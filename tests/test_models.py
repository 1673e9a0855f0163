"""Concrete models: dimensions, basis changes, Q-basis structure constants
(checked against conjugation by the triangular change of basis), graph
utilities, morphisms, and self-duality maps."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from species_forge import dual_model
from species_forge.exactlin import ONE, LinComb, LinMap, tensor
from species_forge import graphs
from species_forge.models import (
    UnknownModelError,
    basis_change,
    build_model as build,
    degree_budget,
    duality_map,
    isoflat,
    isograph_g,
    isograph_pi,
    isolinear,
    isosigma,
    morphism,
    morphism_matrix,
    q_view,
)
from species_forge.setcomb import (
    cyclic_factorial,
    full_mask,
    mask_labels,
    submasks,
    support,
)
from species_forge.species import component_map, mu_shape, run_axiom_suite

E = build("E")
L = build("L")
Pi = build("Pi")
G = build("G")
Sigma = build("Sigma")


def test_dimensions():
    assert [L.dim(n) for n in range(4)] == [1, 1, 2, 6]
    assert Pi.dim(4) == 15
    assert G.dim(3) == 8
    assert len(Sigma.basis(3)) == 13
    hat = build("SigmaHat:4")
    assert len(hat.basis(0)) == 5  # one decomposition of the empty set per block count
    assert hat.dim(0) == 5
    for n in range(1, 4):
        assert hat.dim(n) == sum(p ** n for p in range(1, 5))
        assert len(hat.basis(n)) == hat.dim(n)
    assert [m.dim(5) for m in (E, L, Pi, G, Sigma)] == [1, 120, 52, 1024, 541]


def test_model_registry():
    assert build("Lq:2").q == 2
    assert build("Sigmaq:3/2").q == Fraction(3, 2)
    assert build("dual:L").name == "dual:L"
    assert build("had:L,E").name == "had:L,E"
    with pytest.raises(UnknownModelError):
        build("nope")
    assert degree_budget("G") == 4
    assert degree_budget("SigmaHat:3") == 3
    assert degree_budget("Sigma") == 5
    assert degree_budget("had:L,G") == 4


# ---------------------------------------------------------------------------
# basis changes


def _hadamard_coefficients(model, nmax):
    """(coefficient, product of the factors' coefficients) for every
    product_key and every nonzero coproduct_key of `model` up to nmax."""
    left, right = model.left, model.right
    out = []
    for n in range(nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            T = full ^ S
            for x in model.basis_on(S):
                for y in model.basis_on(T):
                    out.append((model.product_key(S, T, x, y)[0],
                                left.product_key(S, T, x[0], y[0])[0]
                                * right.product_key(S, T, x[1], y[1])[0]))
            for z in model.basis_on(full):
                img = model.coproduct_key(S, T, z)
                if img is not None:
                    out.append((img[0], left.coproduct_key(S, T, z[0])[0]
                                * right.coproduct_key(S, T, z[1])[0]))
    return out


def test_hadamard_coefficients_keep_one():
    # a unit coefficient of a monomial Hadamard product is ONE itself, so the
    # `c is ONE` fast paths see it; any other is the factors' product
    plain = _hadamard_coefficients(build("had:L,Pi"), 3)
    assert plain and all(c is ONE and expected == 1 for c, expected in plain)
    twisted = _hadamard_coefficients(build("had:Sigmaq:2,Lq:3"), 3)
    assert all(c == expected for c, expected in twisted)
    assert any(c != 1 for c, _ in twisted)


def test_sigma_q_basis_change_example():
    lc = basis_change(Sigma, "Q", "H", LinComb.term((3,)))
    assert lc == LinComb({
        (3,): 1,
        (1, 2): Fraction(-1, 2),
        (2, 1): Fraction(-1, 2),
    })


def test_pi_h_to_q_example():
    lc = basis_change(Pi, "H", "Q", LinComb.term((3,)))
    assert lc == LinComb({(3,): 1, (1, 2): 1})


def test_round_trips():
    for model, n in ((Sigma, 3), (Pi, 4), (G, 3)):
        for key in model.basis(n):
            x = LinComb.term(key)
            assert basis_change(model, "Q", "H",
                                basis_change(model, "H", "Q", x, n), n) == x
            assert basis_change(model, "P", "M",
                                basis_change(model, "M", "P", x, n), n) == x


def test_dual_triangles_are_transposes():
    # <P_a, H_b> must equal the coefficient of Q_a in H_b
    for model, n in ((Sigma, 3), (Pi, 3), (G, 3)):
        for a in model.basis(n):
            pa = basis_change(model, "P", "M", LinComb.term(a), n)
            for b in model.basis(n):
                hq = basis_change(model, "H", "Q", LinComb.term(b), n)
                assert pa[b] == hq[a]


def _q_oracle_product(model, S, T, x, y, n):
    hx = basis_change(model, "Q", "H", LinComb.term(x), n)
    hy = basis_change(model, "Q", "H", LinComb.term(y), n)
    return basis_change(model, "H", "Q", mu_shape(model, (S, T), tensor(hx, hy)), n)


def _q_oracle_coproduct(model, S, T, z, n):
    hz = basis_change(model, "Q", "H", LinComb.term(z), n)
    out = {}
    for k, c in hz.terms.items():
        for (a, b), c2 in model.coproduct(S, T, k).terms.items():
            out[(a, b)] = out.get((a, b), 0) + c * c2
    # convert both tensor legs back to the Q side
    converted = {}
    for (a, b), c in out.items():
        if not c:
            continue
        qa = basis_change(model, "H", "Q", LinComb.term(a), n)
        qb = basis_change(model, "H", "Q", LinComb.term(b), n)
        for ka, ca in qa.terms.items():
            for kb, cb in qb.terms.items():
                k2 = (ka, kb)
                w = converted.get(k2, 0) + c * ca * cb
                if w:
                    converted[k2] = w
                else:
                    converted.pop(k2, None)
    return LinComb.wrap(converted)


@pytest.mark.parametrize("name,n", [("Sigma", 3), ("Pi", 3), ("G", 3)])
def test_q_structure_matches_conjugation(name, n):
    model = build(name)
    view = q_view(model)
    full = full_mask(n)
    for S in submasks(full):
        T = full ^ S
        for x in view.basis_on(S):
            for y in view.basis_on(T):
                assert view.product(S, T, x, y) == _q_oracle_product(model, S, T, x, y, n)
        for z in view.basis_on(full):
            assert view.coproduct(S, T, z) == _q_oracle_coproduct(model, S, T, z, n)


def test_q_coproduct_vanishes_off_admissible():
    view = q_view(Pi)
    # {01} is not split by S={0}
    assert view.coproduct(1, 2, (3,)) == LinComb()
    gview = q_view(G)
    assert gview.coproduct(1, 2, 1) == LinComb()  # the edge 01 crosses the split
    sview = q_view(Sigma)
    assert sview.coproduct(1, 2, (3,)) == LinComb()
    assert sview.coproduct(1, 2, (1, 2)) == LinComb.term(((1,), (2,)))


def test_q_views_pass_axiom_suites():
    for name in ("Sigma", "Pi", "G"):
        reports = run_axiom_suite(build(f"Q:{name}"), 3)
        assert all(r.ok() for r in reports), name


# ---------------------------------------------------------------------------
# graphs


def test_graph_utilities():
    k2 = graphs.all_edges_mask(0b11)
    k3 = graphs.all_edges_mask(0b111)
    assert graphs.acyclic_orientations(k2, 0b11) == 2
    assert graphs.acyclic_orientations(k3, 0b111) == 6
    assert graphs.acyclic_orientations(0, 0b1111) == 1
    assert graphs.contraction_lattice(1, 0b11) == ((0b11,), (1, 2))
    assert graphs.components(1, 0b111) == (0b011, 0b100)
    assert graphs.component_count(0, 0b111) == 3
    path = graphs.edges_from_pairs([(0, 1), (1, 2)])
    assert graphs.contract(path, (0b011, 0b100)) == 1  # single edge after merging {01}
    assert graphs.restrict_to_partition(path, (0b011, 0b100)) == graphs.edges_from_pairs([(0, 1)])
    assert graphs.graph_complement(1, 0b11) == 0


@pytest.mark.parametrize("v", range(7))
def test_acyclic_orientations_closed_forms(v):
    # vertices 2..v+1, so the count may not assume the labels start at 0
    labels = list(range(2, v + 2))
    vmask = full_mask(v) << 2
    path = graphs.edges_from_pairs(zip(labels, labels[1:]))
    assert graphs.acyclic_orientations(graphs.all_edges_mask(vmask), vmask) == factorial(v)
    assert graphs.acyclic_orientations(0, vmask) == 1
    assert graphs.acyclic_orientations(path, vmask) == 2 ** max(v - 1, 0)
    if v >= 3:
        cycle = path | graphs.edges_from_pairs([(labels[0], labels[-1])])
        assert graphs.acyclic_orientations(cycle, vmask) == 2 ** v - 2


def _acyclic_by_orientations(g, vmask):
    # an orientation is acyclic iff some order of the vertices sends every
    # arc forward
    edges = graphs.edge_list(g)
    count = 0
    for bits in range(1 << len(edges)):
        arcs = [(i, j) if bits >> t & 1 else (j, i) for t, (i, j) in enumerate(edges)]
        count += any(all(order.index(a) < order.index(b) for a, b in arcs)
                     for order in itertools.permutations(mask_labels(vmask)))
    return count


@pytest.mark.parametrize("vmask", [0, 0b1, 0b110, 0b11100, 0b1111, 0b101101])
def test_acyclic_orientations_of_every_small_graph(vmask):
    for g in graphs.graphs_on(vmask):
        assert graphs.acyclic_orientations(g, vmask) == _acyclic_by_orientations(g, vmask)


def test_graph_encoding():
    g = graphs.edges_from_pairs([(0, 1), (0, 2)])
    assert graphs.encode_graph(g, 3) == "3:e01,e02"
    assert graphs.decode_graph("3:e01,e02") == (g, 3)
    assert graphs.encode_graph(0, 2) == "2:"
    for bad in ("2:e02", "3:e11"):
        with pytest.raises(ValueError):
            graphs.decode_graph(bad)


# ---------------------------------------------------------------------------
# morphisms


def test_morphism_values():
    assert morphism("upsilon", LinComb.term((1, 0, 2))) == LinComb.term((1, 2))
    assert morphism("pi", LinComb.term((2, 1))) == LinComb.term((1, 2))
    assert morphism("k", LinComb.term((3, 4))) == LinComb.term(graphs.edges_from_pairs([(0, 1)]))
    with pytest.raises(UnknownModelError):
        morphism("nope", LinComb())


def test_pi_preserves_q_basis():
    # the support morphism carries the Q element of F to the Q element of its support
    n = 3
    for F in Sigma.basis(n):
        hf = basis_change(Sigma, "Q", "H", LinComb.term(F), n)
        image = morphism("pi", hf)
        assert basis_change(Pi, "H", "Q", image, n) == LinComb.term(support(F))


def _morphism_commutes(name, src, dst, n, max_blocks=3):
    full = full_mask(n)
    fn = lambda lc: morphism(name, lc)
    for S in submasks(full):
        T = full ^ S
        for x in src.basis_on(S):
            for y in src.basis_on(T):
                lhs = fn(src.product(S, T, x, y))
                rhs = mu_shape(dst, (S, T), tensor(fn(LinComb.term(x)), fn(LinComb.term(y))))
                if lhs != rhs:
                    return False
        for z in src.basis_on(full):
            lhs = {}
            for (a, b), c in src.coproduct(S, T, z).terms.items():
                for ka, ca in fn(LinComb.term(a)).terms.items():
                    for kb, cb in fn(LinComb.term(b)).terms.items():
                        lhs[(ka, kb)] = lhs.get((ka, kb), 0) + c * ca * cb
            rhs = {}
            for k, c in fn(LinComb.term(z)).terms.items():
                for pair, c2 in dst.coproduct(S, T, k).terms.items():
                    rhs[pair] = rhs.get(pair, 0) + c * c2
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                return False
    return True


def test_morphisms_commute_with_structure():
    hat = build("SigmaHat:3")
    for n in range(3 + 1):
        assert _morphism_commutes("upsilon", hat, Sigma, n)
    for n in range(4 + 1):
        assert _morphism_commutes("pi", Sigma, Pi, n)
        assert _morphism_commutes("k", Pi, G, n)


def test_morphism_matrices_surjective_injective():
    assert morphism_matrix("pi", 3).rank() == len(Pi.basis(3))  # surjective
    assert morphism_matrix("k", 4).rank() == len(Pi.basis(4))  # injective
    assert morphism_matrix("upsilon", 3).rank() == len(Sigma.basis(3))


# ---------------------------------------------------------------------------
# self-duality maps


def _is_self_transpose(lm):
    return lm == lm.transpose()


def test_duality_self_transpose():
    for lm in (isolinear(3, Fraction(2)), isoflat(3), isograph_pi(3),
               isograph_g(3), isosigma(3, Fraction(2))):
        assert _is_self_transpose(lm)


def test_duality_ranks():
    # frozen per-degree ranks at the sampled parameters
    for q in (Fraction(2), Fraction(3), Fraction(5, 2)):
        assert [isolinear(n, q).rank() for n in range(4)] == [1, 1, 2, 6]
        assert [isosigma(n, q).rank() for n in range(4)] == [1, 1, 3, 13]
    assert [isosigma(n, Fraction(1)).rank() for n in range(4)] == [1, 1, 2, 5]
    assert [isoflat(n).rank() for n in range(5)] == [1, 1, 2, 5, 15]
    assert [isograph_pi(n).rank() for n in range(5)] == [1, 1, 2, 5, 15]
    assert [isograph_g(n).rank() for n in range(4)] == [1, 1, 2, 8]


def test_isograph_g_example():
    # on two vertices, the image of the single edge pairs only with the empty graph
    lm = isograph_g(2)
    assert lm(1) == LinComb.term(0)


def test_isoflat_on_q_basis():
    # the flat duality sends Q elements to cyclic-factorial multiples of P
    for n in (2, 3):
        lm = isoflat(n)
        for X in Pi.basis(n):
            qx = basis_change(Pi, "Q", "H", LinComb.term(X), n)
            image = lm(qx)
            want = basis_change(
                Pi, "P", "M",
                LinComb.term(X, Fraction(cyclic_factorial(X))), n)
            assert image == want


def test_isograph_pi_on_q_basis():
    for n in (2, 3):
        lm = isograph_pi(n)
        for X in Pi.basis(n):
            qx = basis_change(Pi, "Q", "H", LinComb.term(X), n)
            sign = (-1) ** (n - len(X))
            want = basis_change(
                Pi, "P", "M",
                LinComb.term(X, Fraction(sign * cyclic_factorial(X))), n)
            assert lm(qx) == want


def test_isograph_g_on_q_basis():
    # the sign is the edge-count parity: it agrees with the vertex-minus-
    # component count exactly on forests (K3 is the smallest case where the
    # two disagree, and the defining sum forces the edge-count sign)
    for n in (2, 3):
        lm = isograph_g(n)
        for g in G.basis(n):
            qg = basis_change(G, "Q", "H", LinComb.term(g), n)
            sign = (-1) ** g.bit_count()
            want = basis_change(G, "P", "M", LinComb.term(g, Fraction(sign)), n)
            assert lm(qg) == want


def _check_duality_morphism(model, psi_by_degree, n):
    """psi must transport the product to the transpose of the coproduct and
    conversely: psi mu(x (x) y) = mu*(psi x (x) psi y)."""
    dual = dual_model(model)
    full = full_mask(n)
    for S in submasks(full):
        T = full ^ S
        psiS = component_map(model, psi_by_degree[bin(S).count('1')], S)
        psiT = component_map(model, psi_by_degree[bin(T).count('1')], T)
        psiI = psi_by_degree[n]
        for x in model.basis_on(S):
            for y in model.basis_on(T):
                lhs = psiI(model.product(S, T, x, y))
                rhs = mu_shape(dual, (S, T), tensor(psiS(LinComb.term(x)), psiT(LinComb.term(y))))
                if lhs != rhs:
                    return False
    return True


def test_duality_maps_are_morphisms():
    n = 3
    q = Fraction(2)
    lq = build(f"Lq:{q}")
    assert _check_duality_morphism(lq, {m: isolinear(m, q) for m in range(n + 1)}, n)
    assert _check_duality_morphism(Pi, {m: isoflat(m) for m in range(n + 1)}, n)
    assert _check_duality_morphism(Pi, {m: isograph_pi(m) for m in range(n + 1)}, n)
    assert _check_duality_morphism(G, {m: isograph_g(m) for m in range(n + 1)}, n)
    sq = build(f"Sigmaq:{q}")
    assert _check_duality_morphism(sq, {m: isosigma(m, q) for m in range(n + 1)}, n)


def test_pi_g_duality_square():
    # the complete-graph embedding is isometric for the graph dualities
    for n in range(4 + 1):
        k = morphism_matrix("k", n)
        assert k.transpose().compose(isograph_g(n).compose(k)) == isograph_pi(n)


def test_sigma_pi_duality_square():
    # the support morphism intertwines the two flat dualities at q = 1
    for n in range(4 + 1):
        pi = morphism_matrix("pi", n)
        lhs = isosigma(n, Fraction(1))
        rhs = pi.transpose().compose(isoflat(n)).compose(pi)
        assert lhs == rhs


def test_linear_orders_inside_compositions_duality():
    # restricting the composition duality to linear orders recovers theirs
    q = Fraction(2)
    for n in range(4):
        big = isosigma(n, q)
        small = isolinear(n, q)
        orders = small.domain
        proj = LinMap(big.domain, orders,
                      {k: (LinComb.term(k) if k in set(orders) else LinComb())
                       for k in big.domain})
        incl = LinMap(orders, big.domain, {k: LinComb.term(k) for k in orders})
        assert proj.compose(big).compose(incl) == small


def test_duality_map_registry():
    assert duality_map("isoflat", 2).rank() == 2
    with pytest.raises(UnknownModelError):
        duality_map("nope", 2)


def test_sigmahat_degree_zero_monoids():
    hat = build("SigmaHat:6")
    from species_forge.kernels import dec_tits

    # concatenation adds block counts, the Tits product multiplies them
    for p in range(6 + 1):
        for q in range(6 + 1):
            x = (0,) * p
            y = (0,) * q
            assert hat.product(0, 0, x, y) == LinComb.term((0,) * (p + q))
            assert dec_tits(x, y) == (0,) * (p * q)
    # (0,)(0,0) and (0,0)(0,) are one key, so their difference is zero
    cancelling = LinComb({((0,), (0, 0)): 1, ((0, 0), (0,)): -1})
    assert mu_shape(hat, (0, 0), cancelling) == LinComb()
