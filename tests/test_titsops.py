"""The Tits algebra and its action: idempotent families, Hopf powers,
primitive parts and cumulants, the per-partition decomposition, left
bracketing, and the symmetrized product map."""

import itertools
from fractions import Fraction

import pytest

from species_forge import build_model, titsops
from species_forge.antipode import antipode_family
from species_forge.exactlin import LinComb, LinMap, tensor
from species_forge.models import basis_change
from species_forge.kernels import dec_tits
from species_forge.setcomb import (
    comp_tits,
    compositions_of,
    decode_comp,
    full_mask,
    mobius_partition,
    partitions_of,
    popcount,
    positive_part,
    submasks,
)
from species_forge.species import delta_shape, delta_shape_key, mu_shape, mu_shape_key
from species_forge.titsops import (
    TitsElement,
    binomial_general,
    characteristic_op,
    cumulant,
    cumulant_partition,
    dynkin,
    euler_first,
    euler_higher,
    eulerian_decomposition,
    garsia_reutenauer,
    h_power,
    h_power_dec,
    indecomposable_quotient_dim,
    left_bracketing,
    operator_conv_power,
    operator_log_identity,
    pbw_check,
    pdynkin,
    primitive_basis_on,
    primitive_dimension_ranks,
    primitive_part,
    psi_map,
    q_basis_in_h,
    tits_left_products,
    tits_multiply,
    tits_unit,
)

E = build_model("E")
L = build_model("L")
Pi = build_model("Pi")
G = build_model("G")
Sigma = build_model("Sigma")


# ---------------------------------------------------------------------------
# the Tits algebra itself


def test_tits_multiply_unit_and_idempotence():
    n = 3
    comps = compositions_of(full_mask(n))
    for F in comps:
        hf = TitsElement(n, LinComb.term(F))
        assert tits_multiply(hf, hf) == hf
        assert tits_multiply(tits_unit(n), hf) == hf
        assert tits_multiply(hf, tits_unit(n)) == hf


def _tits_multiply_by_terms(z, w):
    """Reference for tits_multiply: every term pair multiplied and summed in
    Fractions."""
    prod = dec_tits if z.dec else comp_tits
    out = {}
    for f, a in z.coeffs.terms.items():
        for g, b in w.coeffs.terms.items():
            k = prod(f, g)
            out[k] = out.get(k, Fraction(0)) + a * b
    return TitsElement(z.n, LinComb.wrap({k: v for k, v in out.items() if v}), z.dec)


def test_tits_multiply_matches_the_term_by_term_product():
    for n in range(5):
        full = full_mask(n)
        comps = [euler_first(n), h_power(Fraction(1, 2), n)]
        comps += [garsia_reutenauer(X, n) for X in partitions_of(full)]
        decs = [h_power_dec(p, n) for p in range(4)]
        decs.append(TitsElement(n, LinComb({(0, full, 0): 1, (full, 0): -2,
                                            (full,): Fraction(1, 3)}), dec=True))
        # at degree 4 only the two elements on every composition go first
        pairs = [(z, w) for z in (comps if n < 4 else comps[:2]) for w in comps]
        pairs += [(z, w) for z in decs for w in decs]
        for z, w in pairs:
            got = tits_multiply(z, w)
            assert got == _tits_multiply_by_terms(z, w), (z, w)
            assert all(type(v) is Fraction for v in got.coeffs.terms.values())


def _walk_product_elements(n):
    """Every Garsia-Reutenauer idempotent and the classical elements of
    degree n, with coefficients over many denominators, and zero."""
    out = [garsia_reutenauer(X, n) for X in partitions_of(full_mask(n))]
    out += [euler_first(n), h_power(Fraction(1, 2), n), h_power(-1, n), tits_unit(n),
            TitsElement(n, LinComb())]
    return out + ([dynkin(n)] if n else []) + [pdynkin(i, n) for i in range(n)]


def test_tits_left_products_match_tits_multiply():
    for n in range(5):
        ws = _walk_product_elements(n)
        for z in ws:
            got, = tits_left_products([z], ws)
            assert got == [tits_multiply(z, w) for w in ws], z
            assert all(type(v) is Fraction for p in got for v in p.coeffs.terms.values())


def _one_partition_per_type(n):
    out = {}
    for X in partitions_of(full_mask(n)):
        out.setdefault(tuple(sorted(map(popcount, X))), X)
    return out


@pytest.mark.parametrize("X", list(_one_partition_per_type(5).values()),
                         ids=lambda X: "+".join(str(popcount(b)) for b in X))
def test_tits_left_products_of_the_idempotents_at_degree_five(X):
    # one idempotent per partition type, against all 52: 0.4-2.8 s a case,
    # nearly all of it in the oracle
    n = 5
    ws = [garsia_reutenauer(Y, n) for Y in partitions_of(full_mask(n))]
    z = garsia_reutenauer(X, n)
    assert tits_left_products([z], ws) == [[tits_multiply(z, w) for w in ws]]


def test_tits_left_products_refuse_decompositions():
    z = h_power_dec(2, 2)
    with pytest.raises(ValueError):
        tits_left_products([z], [z])
    with pytest.raises(ValueError):
        tits_left_products([h_power(2, 2)], [z])


def test_characteristic_op_is_tits_product_on_sigma():
    for n in range(4):
        comps = compositions_of(full_mask(n))
        for F in comps:
            z = TitsElement(n, LinComb.term(F))
            for Gc in comps:
                got = characteristic_op(Sigma, z, LinComb.term(Gc))
                assert got == LinComb.term(comp_tits(F, Gc))


def test_characteristic_op_unit_and_factoring():
    for name in ("L", "Pi", "G"):
        model = build_model(name)
        for n in range(3):
            for key in model.basis(n):
                h = LinComb.term(key)
                assert characteristic_op(model, tits_unit(n), h) == h
    # decomposition-indexed elements act through empty-block removal
    n = 2
    z = TitsElement(n, LinComb.term((0, 3, 0)), dec=True)
    for key in Sigma.basis(n):
        got = characteristic_op(Sigma, z, LinComb.term(key))
        assert got == LinComb.term(key)


# ---------------------------------------------------------------------------
# the prefix walk against the shape-by-shape sum


def _characteristic_op_by_shapes(model, z, h):
    """Reference for characteristic_op: for every key of h and every shape F
    of z, the coproduct along F and then the product along F, each walked
    from the first block, weighted by z_F and summed in Fractions."""
    if model.connected and z.dec:
        z = TitsElement(z.n, z.coeffs.map_keys(positive_part))
    out = {}
    for key, c in h.terms.items():
        for F, a in z.coeffs.terms.items():
            if model.monomial:
                img = delta_shape_key(model, F, key, a * c)
                if img is None:
                    continue
                c2, k2 = mu_shape_key(model, F, img[1], img[0])
                image = {k2: c2}
            else:
                image = mu_shape(model, F, delta_shape(model, F, LinComb.term(key))).terms
                image = {k2: a * c * c2 for k2, c2 in image.items()}
            for k2, c2 in image.items():
                out[k2] = out.get(k2, Fraction(0)) + c2
    return LinComb.wrap({k: v for k, v in out.items() if v})


def _oracle_elements(n):
    """Tits elements of degree n with integral and non-integral coefficients,
    every Garsia-Reutenauer idempotent and every single composition."""
    yield h_power(-1, n)
    yield h_power(Fraction(1, 2), n)
    yield euler_first(n)
    if n:
        yield dynkin(n)
    for i in range(n):
        yield pdynkin(i, n)
    for X in partitions_of(full_mask(n)):
        yield garsia_reutenauer(X, n)
    for F in compositions_of(full_mask(n)):
        yield TitsElement(n, LinComb.term(F))


def _oracle_inputs(model, n):
    """Two sums of several basis keys with non-unit coefficients, and up to
    degree 3 every basis key on its own (at degree 4 every key for every
    element would take the test from 9 to 34 s)."""
    basis = model.basis(n)
    hs = [LinComb({k: Fraction(i + 1, 3) for i, k in enumerate(basis[::5])}),
          LinComb({k: (-2) ** i for i, k in enumerate(basis[len(basis) // 2::7])})]
    if n <= 3:
        hs += [LinComb.term(k) for k in basis]
    return hs


def _assert_walk_matches_shapes(model, z, hs):
    for h in hs:
        got = characteristic_op(model, z, h)
        assert got == _characteristic_op_by_shapes(model, z, h), (model.name, z, h)
        assert all(type(v) is Fraction for v in got.terms.values()), (model.name, z, h)


@pytest.mark.parametrize("name, nmax", [
    ("E", 4), ("L", 4), ("Pi", 4), ("G", 4), ("Sigma", 4), ("Sigmaq:2", 4),
    ("Sigmaq:-1", 4), ("Lq:2/3", 4), ("Lq:0", 4), ("Q:Sigma", 4), ("Q:Pi", 4),
    ("Q:G", 4), ("dual:L", 3), ("dual:Lq:2/3", 3), ("had:L,Pi", 3),
    ("had:dual:Pi,L", 3),
])
def test_characteristic_op_matches_the_shape_by_shape_sum(name, nmax):
    model = build_model(name)
    for n in range(nmax + 1):
        hs = _oracle_inputs(model, n)
        for z in _oracle_elements(n):
            _assert_walk_matches_shapes(model, z, hs)
        # every column at every degree: psi_map builds all of them in one
        # walk, with states merged across columns
        for z in _oracle_elements(n):
            _assert_columns_match_shapes(model, z, psi_map(model, z).cols)


def _assert_columns_match_shapes(model, z, cols):
    for k in model.basis(z.n):
        assert cols[k] == _characteristic_op_by_shapes(model, z, LinComb.term(k)), \
            (model.name, z, k)
        assert all(type(v) is Fraction for v in cols[k].terms.values())


def _all_columns(model, z):
    """Every column of z's operation from the one walk psi_map takes.  On
    SigmaHat the images of powers p >= 2 leave basis(n) (the truncated
    product), so psi_map cannot hold them in a LinMap."""
    basis = model.basis(z.n)
    seeds = {k: [1, {i: 1}] for i, k in enumerate(basis)}
    return dict(zip(basis, titsops._columns(model, z, seeds, len(basis))))


def test_characteristic_op_matches_the_shape_by_shape_sum_on_decompositions():
    # shapes with empty blocks: their end marks sit on nodes that also have
    # children, blocks equal to the remaining set need not end a shape, and
    # an empty block keeps the union of the prefix, so the walk must finish
    # the states it sends back into the union it is processing
    hat = build_model("SigmaHat:3")
    dual_hat = build_model("dual:SigmaHat:2")  # the walk with LinComb steps
    for n in range(4):
        full = full_mask(n)
        z = TitsElement(n, LinComb({(0, full, 0): 1, (full, 0): -2, (full,): Fraction(1, 3)}),
                        dec=True)
        for model in (hat, dual_hat, Sigma):
            if model is dual_hat and n > 2:
                continue
            hs = _oracle_inputs(model, n)
            for w in [h_power_dec(p, n) for p in range(4)] + [z, z + h_power_dec(2, n)]:
                _assert_walk_matches_shapes(model, w, hs)
                _assert_columns_match_shapes(model, w, _all_columns(model, w))
            for p in range(2):  # images inside basis(n)
                w = h_power_dec(p, n)
                assert psi_map(model, w).cols == _all_columns(model, w)


def test_prefix_tree_shares_equal_subtrees():
    # under a prefix, the shapes of h_power(-1, n) and dynkin(n) depend on
    # the labels it has used, up to sign: one node per subset of [n]
    for n in range(6):
        for z in (h_power(-1, n), dynkin(n) if n else tits_unit(0)):
            tree = titsops.PrefixTree(Sigma, z)
            assert len(tree.nodes) == 2 ** n, (n, z)
            assert tree.root == len(tree.nodes) - 1
            assert all(child < i for i, (_, edges) in enumerate(tree.nodes)
                       for _, _, child in edges)
    # every single composition is a chain of its own
    for F in compositions_of(full_mask(3)):
        assert len(titsops.PrefixTree(Sigma, TitsElement(3, LinComb.term(F))).nodes) == len(F) + 1


def test_h_q_projection_rule():
    # the H element of F acts on the Q element of G by lowering to Q_{FG}
    # when GF == G and by zero otherwise
    n = 3
    comps = compositions_of(full_mask(n))
    for F in comps:
        z = TitsElement(n, LinComb.term(F))
        for Gc in comps:
            qg = q_basis_in_h(Gc)
            got = basis_change(Sigma, "H", "Q", characteristic_op(Sigma, z, qg), n)
            if comp_tits(Gc, F) == Gc:
                assert got == LinComb.term(comp_tits(F, Gc))
            else:
                assert got == LinComb()


def test_euler_first_examples():
    e2 = euler_first(2)
    assert e2.coeffs == LinComb({
        (3,): 1, (1, 2): Fraction(-1, 2), (2, 1): Fraction(-1, 2)})
    assert tits_multiply(e2, e2) == e2
    for n in range(1, 5):
        en = euler_first(n)
        assert tits_multiply(en, en) == en


def test_euler_is_q_element_of_one_block():
    for n in range(1, 5):
        assert euler_first(n).coeffs == q_basis_in_h((full_mask(n),))


def test_primitivity_in_sigma_and_coefficient_sums():
    for n in range(1, 5):
        for z in (euler_first(n), dynkin(n)):
            for S in submasks(full_mask(n)):
                T = full_mask(n) ^ S
                if S == 0 or T == 0:
                    continue
                assert not delta_shape(Sigma, (S, T), z.coeffs)
        # grouping the Eulerian coefficients by support gives the Mobius value
        e = euler_first(n)
        bottom = (full_mask(n),)
        for X in partitions_of(full_mask(n)):
            total = sum((e.coeffs[F] for F in itertools.permutations(X)), Fraction(0))
            assert total == mobius_partition(bottom, X)


def test_garsia_reutenauer_family():
    for n in range(1, 4):
        parts = partitions_of(full_mask(n))
        grs = {X: garsia_reutenauer(X, n) for X in parts}
        total = TitsElement(n, LinComb())
        for z in grs.values():
            total = total + z
        assert total == tits_unit(n)
        for X in parts:
            for Y in parts:
                want = grs[X] if X == Y else TitsElement(n, LinComb())
                assert tits_multiply(grs[X], grs[Y]) == want
    assert garsia_reutenauer(((full_mask(3)),) and ((full_mask(3),)), 3) == euler_first(3)


def test_higher_eulerian_cauchy_relation():
    # within the Tits algebra: the k-th family member is assembled from
    # Q elements; its series identity with Cauchy powers is in the series tests
    n = 3
    assert euler_higher(1, n) == euler_first(n)
    total = TitsElement(n, LinComb())
    for k in range(1, n + 1):
        total = total + euler_higher(k, n)
    assert total == tits_unit(n)


def test_hopf_power_laws():
    values = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
    for n in range(1, 5):
        for p in values:
            for q in values:
                assert tits_multiply(h_power(p, n), h_power(q, n)) == h_power(p * q, n)


def test_h_power_values():
    assert h_power(-1, 2).coeffs == LinComb({(3,): -1, (1, 2): 1, (2, 1): 1})
    assert h_power(1, 3) == tits_unit(3)
    assert h_power(0, 2).coeffs == LinComb()
    # one binomial per block count gives the per-composition definition
    for p in (-1, 0, Fraction(1, 2), 2, Fraction(3, 2)):
        for n in range(6):
            want = {F: binomial_general(p, len(F)) for F in compositions_of(full_mask(n))}
            got = h_power(p, n)
            assert got.coeffs == LinComb(want) and not got.dec, (p, n)
            assert all(type(v) is Fraction for v in got.coeffs.terms.values())


def test_diagonalization():
    for n in range(1, 5):
        for p in (Fraction(-1), Fraction(2), Fraction(3)):
            acc = TitsElement(n, LinComb())
            for k in range(0, n + 1):
                acc = acc + euler_higher(k, n).scale(p ** k)
            assert acc == h_power(p, n)


def test_dec_hopf_powers_multiply():
    for n in range(3):
        for p in range(4):
            for q in range(4):
                lhs = tits_multiply(h_power_dec(p, n), h_power_dec(q, n))
                assert lhs == h_power_dec(p * q, n)


def test_dynkin_quasi_idempotent():
    for n in range(1, 5):
        d = dynkin(n)
        assert tits_multiply(d, d) == d.scale(n)
        total = TitsElement(n, LinComb())
        for i in range(n):
            di = pdynkin(i, n)
            assert tits_multiply(di, di) == di
            total = total + di
        assert total == d


def test_action_axioms():
    # left action on cocommutative models, exhaustive over basis triples
    for name in ("E", "L", "Pi", "Sigma"):
        model = build_model(name)
        for n in range(3 + 1):
            comps = compositions_of(full_mask(n))
            for F in comps:
                zF = TitsElement(n, LinComb.term(F))
                for Gc in comps:
                    zG = TitsElement(n, LinComb.term(Gc))
                    zFG = tits_multiply(zF, zG)
                    for key in model.basis(n):
                        h = LinComb.term(key)
                        lhs = characteristic_op(model, zFG, h)
                        rhs = characteristic_op(model, zF, characteristic_op(model, zG, h))
                        assert lhs == rhs, (name, n, F, Gc, key)


def test_right_action_on_commutative_models():
    for name in ("Pi", "E"):
        model = build_model(name)
        n = 3
        comps = compositions_of(full_mask(n))
        for F in comps[:5]:
            zF = TitsElement(n, LinComb.term(F))
            for Gc in comps[:5]:
                zG = TitsElement(n, LinComb.term(Gc))
                zFG = tits_multiply(zF, zG)
                for key in model.basis(n):
                    h = LinComb.term(key)
                    lhs = characteristic_op(model, zFG, h)
                    rhs = characteristic_op(model, zG, characteristic_op(model, zF, h))
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# primitives, indecomposables, cumulants


def test_primitive_part_examples():
    basis2 = primitive_part(L, 2)
    assert len(basis2) == 1
    v = basis2[0]
    assert set(v.support()) == {decode_comp("0|1"), decode_comp("1|0")}
    assert v[decode_comp("0|1")] == -v[decode_comp("1|0")]
    for n in range(1, 5):
        ranks = primitive_dimension_ranks(L, n)
        want = 1 if n == 1 else [1, 1, 2, 6][n - 1]
        assert ranks["kernel"] == ranks["euler_rank"] == ranks["cumulant"] == want
    for n in range(1, 5):
        ranks = primitive_dimension_ranks(Pi, n)
        assert ranks["kernel"] == ranks["euler_rank"] == ranks["cumulant"] == 1


def test_primitive_dimensions_graphs():
    for n, want in ((1, 1), (2, 1), (3, 4)):
        ranks = primitive_dimension_ranks(G, n)
        assert ranks["kernel"] == ranks["euler_rank"] == ranks["cumulant"] == want


def test_cumulants():
    assert [cumulant(Pi, n) for n in (1, 2, 3, 4, 5)] == [1, 1, 1, 1, 1]
    assert [cumulant(E, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert [cumulant(L, n) for n in (1, 2, 3, 4)] == [1, 1, 2, 6]
    assert cumulant(G, 3) == 4
    assert cumulant(G, 4) == 38
    assert cumulant_partition(L, (7, 56)) == 2 * 2  # two 3-blocks
    assert cumulant_partition(L, (3, 4)) == 1 * 1
    assert cumulant_partition(L, (7, 8)) == 2


def _cumulant_by_partitions(model, n):
    # the alternating sum over the partition lattice, from its one block
    bottom = (full_mask(n),)
    total = 0
    for y in partitions_of(full_mask(n)):
        dims = 1
        for b in y:
            dims *= model.dim(popcount(b))
        total += mobius_partition(bottom, y) * dims
    return total


@pytest.mark.parametrize("spec,nmax", [
    ("E", 6), ("L", 6), ("Lq:2/3", 6), ("Pi", 6), ("G", 6), ("Sigma", 6),
    ("Sigmaq:2", 6), ("dual:L", 5), ("had:L,Pi", 5)])
def test_cumulant_is_the_partition_lattice_sum(spec, nmax):
    # cumulant reads the logarithm of the dimension EGF; the Mobius sum is
    # the same number by the exponential formula
    model = build_model(spec)
    assert [cumulant(model, n) for n in range(nmax + 1)] == \
        [0] + [_cumulant_by_partitions(model, n) for n in range(1, nmax + 1)]


def test_indecomposable_quotients():
    assert [indecomposable_quotient_dim(L, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert [indecomposable_quotient_dim(Sigma, n) for n in (1, 2, 3)] == [1, 1, 1]
    assert [indecomposable_quotient_dim(Pi, n) for n in (1, 2, 3)] == [1, 1, 1]
    assert [indecomposable_quotient_dim(G, n) for n in (1, 2, 3)] == [1, 1, 4]


def test_pbw_dimension_identity():
    # the model dimension is the partition sum of primitive-part products
    for name in ("E", "L", "Pi", "Sigma", "G"):
        model = build_model(name)
        top = 4 if name == "G" else 5
        for n in range(1, top + 1):
            total = sum(cumulant_partition(model, X)
                        for X in partitions_of(full_mask(n)))
            assert total == model.dim(n), (name, n)


# ---------------------------------------------------------------------------
# the per-partition decomposition


def test_eulerian_decomposition_models():
    rep = eulerian_decomposition(Sigma, 3)
    assert rep["ok"] and rep["rank_sum"] == 13
    rep = eulerian_decomposition(L, 3)
    assert rep["ok"]
    by_len = {}
    for e in rep["entries"]:
        by_len.setdefault(len(e["partition"]), []).append(e["rank"])
    assert by_len[1] == [2]  # (3-1)! on the one-block partition
    rep = eulerian_decomposition(Pi, 3)
    assert rep["ok"]
    rep = eulerian_decomposition(E, 3)
    assert rep["ok"]


def _corrupted_idempotents(n):
    parts = partitions_of(full_mask(n))
    bad = {X: garsia_reutenauer(X, n) for X in parts}
    X0 = parts[0]
    coeffs = dict(bad[X0].coeffs.terms)
    key = next(iter(coeffs))
    coeffs[key] = coeffs[key] + 1  # perturb one coefficient
    bad[X0] = TitsElement(n, LinComb(coeffs))
    return bad


def test_eulerian_decomposition_detects_corruption():
    rep = eulerian_decomposition(Sigma, 3, idempotents=_corrupted_idempotents(3))
    assert not rep["ok"]


def _eulerian_decomposition_by_compose(model, n, idempotents=None):
    """Reference for eulerian_decomposition: the rank of every operation,
    and the rank of the iterated coproduct composed with it on the whole
    basis, in Fractions."""
    entries = []
    total = 0
    basis = model.basis(n)
    for X in partitions_of(full_mask(n)):
        z = garsia_reutenauer(X, n) if idempotents is None else idempotents[X]
        pm = psi_map(model, z)
        rank = pm.rank()
        cols = {k: delta_shape(model, tuple(X), LinComb.term(k)) for k in basis}
        codomain = sorted({kk for col in cols.values() for kk in col.terms}, key=repr)
        restricted_rank = LinMap(basis, codomain, cols).compose(pm).rank()
        entries.append({"partition": X, "rank": rank,
                        "expected": cumulant_partition(model, X),
                        "delta_injective": restricted_rank == rank})
        total += rank
    dim = model.dim(n)
    return {"degree": n, "entries": entries, "rank_sum": total, "dim": dim,
            "ok": total == dim and all(e["rank"] == e["expected"] and e["delta_injective"]
                                       for e in entries)}


@pytest.mark.parametrize("model", [E, L, Pi, G, Sigma], ids=lambda m: m.name)
def test_eulerian_decomposition_matches_the_composed_ranks(model):
    for n in range(5):
        assert eulerian_decomposition(model, n) == _eulerian_decomposition_by_compose(model, n)
    for n in (2, 3):
        bad = _corrupted_idempotents(n)
        assert (eulerian_decomposition(model, n, bad)
                == _eulerian_decomposition_by_compose(model, n, bad))


def test_eulerian_decomposition_sees_a_coproduct_that_is_not_injective():
    # the unit acts as the identity, and on L the coproduct along two or
    # more blocks forgets the relative order of labels in different blocks
    n = 3
    rep = eulerian_decomposition(L, n, idempotents={X: tits_unit(n)
                                                   for X in partitions_of(full_mask(n))})
    assert [e["delta_injective"] for e in rep["entries"]] == [len(e["partition"]) == 1
                                                              for e in rep["entries"]]
    assert not rep["ok"]


# ---------------------------------------------------------------------------
# left bracketing and the Dynkin action


def brute_left_bracket_linear(ell):
    """Expand [..[x_1,x_2],..,x_n] over linear-order keys by unfolding the
    commutators directly."""
    terms = {ell[:1]: Fraction(1)}
    for i in range(1, len(ell)):
        nxt = {}
        for key, c in terms.items():
            left = key + (ell[i],)
            right = (ell[i],) + key
            nxt[left] = nxt.get(left, Fraction(0)) + c
            nxt[right] = nxt.get(right, Fraction(0)) - c
        terms = nxt
    return LinComb({k: v for k, v in terms.items() if v})


def test_left_bracketing_example():
    ell = decode_comp("0|1|2")
    shape = tuple(ell)
    got = left_bracketing(L, shape, [LinComb.term((b,)) for b in shape])
    want = LinComb({
        decode_comp("0|1|2"): 1,
        decode_comp("1|0|2"): -1,
        decode_comp("2|0|1"): -1,
        decode_comp("2|1|0"): 1,
    })
    assert got == want
    assert got == brute_left_bracket_linear(ell)


def test_dynkin_action_is_left_bracketing():
    for n in range(1, 5):
        d = dynkin(n)
        for ell in L.basis(n):
            got = characteristic_op(L, d, LinComb.term(ell))
            assert got == brute_left_bracket_linear(ell), (n, ell)


def test_dynkin_on_products_of_primitives():
    # acting on a product of primitives rescales the left bracketing by the
    # size of the first block
    n = 3
    for shape in ((3, 4), (4, 3), (1, 6), (6, 1)):
        facs = [primitive_basis_on(Sigma, b, {})[0] for b in shape]
        prod = mu_shape(Sigma, shape, tensor(*facs))
        got = characteristic_op(Sigma, dynkin(n), prod)
        want = left_bracketing(Sigma, shape, facs).scale(popcount(shape[0]))
        assert got == want
    for j in range(n):
        for shape in ((3, 4), (4, 3)):
            facs = [primitive_basis_on(Sigma, b, {})[0] for b in shape]
            prod = mu_shape(Sigma, shape, tensor(*facs))
            got = characteristic_op(Sigma, pdynkin(j, n), prod)
            if (1 << j) & shape[0]:
                assert got == left_bracketing(Sigma, shape, facs)
            else:
                assert got == LinComb()


def test_left_bracketing_rejects_non_primitive():
    with pytest.raises(ValueError):
        left_bracketing(Sigma, (3, 4), [LinComb.term((1, 2)), LinComb.term((4,))])


def test_dynkin_specht_wever():
    for n in range(1, 4 + 1):
        dmap = psi_map(L, dynkin(n))
        image_rank = dmap.rank()
        want = 1 if n == 1 else [1, 1, 2, 6][n - 1]
        assert image_rank == want
        shifted = dmap - LinMap.identity(L.basis(n)).scale(n)
        eigen_dim = len(shifted.kernel_basis())
        assert eigen_dim == want
        # the image is inside the eigenspace, hence equals it by dimensions
        assert dmap.compose(dmap) == dmap.scale(n)


def test_pbw_explicit_map():
    for name in ("E", "L", "Pi", "Sigma"):
        model = build_model(name)
        for n in range(3 + 1):  # degree 0: the empty product is the unit
            rep = pbw_check(model, n)
            assert rep["bijective"] and rep["comonoid"], (name, n)


def test_operator_families_match_tits_elements():
    for name in ("L", "Pi"):
        model = build_model(name)
        nmax = 3
        logid = operator_log_identity(model, nmax)
        for n in range(nmax + 1):
            assert psi_map(model, euler_first(n), n) == logid[n]
        for p in range(0, 4):
            idp = operator_conv_power(model, p, nmax)
            for n in range(nmax + 1):
                assert psi_map(model, h_power(p, n), n) == idp[n]
        # the Takeuchi family is psi_map(h_power(-1)) itself, so the
        # independent reference is the Milnor-Moore recursion
        sfam = antipode_family(model, nmax, "mm-right")
        for n in range(nmax + 1):
            assert psi_map(model, h_power(-1, n), n) == sfam[n]


def _conv_power_apply_dec(p, key, mask):
    """Independent oracle: the p-th convolution power of the identity on the
    decomposition model, unfolded by the two-block recursion."""
    from species_forge.setcomb import dec_restrict

    if p == 0:
        return {(): Fraction(1)} if mask == 0 else {}
    if p == 1:
        return {key: Fraction(1)}
    out = {}
    for S in submasks(mask):
        T = mask ^ S
        sub = _conv_power_apply_dec(p - 1, dec_restrict(key, S), S)
        kT = dec_restrict(key, T)
        for k1, c in sub.items():
            k2 = k1 + kT
            out[k2] = out.get(k2, 0) + c
    return {k: v for k, v in out.items() if v}


def test_dec_powers_act_as_convolution_powers_on_sigmahat():
    hat = build_model("SigmaHat:3")
    for n in range(3):
        full = full_mask(n)
        for p in range(0, 4):
            for key in hat.basis(n):
                got = characteristic_op(hat, h_power_dec(p, n), LinComb.term(key))
                want = _conv_power_apply_dec(p, key, full)
                assert got.terms == want, (p, n, key)
