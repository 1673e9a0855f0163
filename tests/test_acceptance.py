"""Acceptance gate: each test implements one numbered criterion at its
stated degrees with exact equality, and prints one PASS line when it holds.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The whole tier-1 suite took 114-157 s on a busy 2-core machine (four runs),
about 17 s of it the degree-6 axiom suites of E, L and Pi.  Criterion 1
took 5 s: every S_n-equivariant axiom checks one instance per orbit once
naturality is proved on the two generators of S_n, and higher
compatibility follows from the other axioms (run_axiom_suite).  The
degree-5 sweeps that check it by brute force took about 9 s more.
Criterion 2 took about
1.2 s, the Takeuchi families (one walk for all columns) and the
convolutions of the Milnor-Moore recursions and `verify_antipode`, all
accumulating ints.
Criterion 6 took about 3 s, most of it exact elimination (the kernels of
the primitive parts and the ranks of the first Eulerian operations).
Criterion 9 took about 0.2 s, its series calculus accumulating ints.
"""

from fractions import Fraction

import pytest

from species_forge import build_model
from species_forge.antipode import (
    antipode,
    antipode_family,
    closed_form,
    takeuchi_column,
    verify_antipode,
)
from species_forge.exactlin import LinComb, LinMap, tensor
from species_forge.gf import sequence_transform_report, boolean_transform
from species_forge.models import basis_change, q_view
from species_forge.series import (
    cauchy,
    euler_series,
    exp_series,
    is_group_like,
    is_primitive_series,
    log_series,
    power_series,
    primitive_series_witnesses,
    uni_series,
)
from species_forge.setcomb import (
    compositions_of,
    full_mask,
    partitions_of,
    submasks,
)
from species_forge.species import check_higher_compatibility, delta_shape, mu_shape, run_axiom_suite
from species_forge.titsops import (
    TitsElement,
    characteristic_op,
    cumulant,
    cumulant_partition,
    dynkin,
    euler_first,
    euler_higher,
    eulerian_decomposition,
    garsia_reutenauer,
    h_power,
    operator_conv_power,
    operator_log_identity,
    pbw_check,
    primitive_dimension_ranks,
    primitive_part,
    psi_map,
    tits_multiply,
    tits_unit,
)

HOPF_MODELS_N5 = ("E", "L", "Lq:2", "Pi", "Sigma", "Sigmaq:2")


def _report(k, label):
    print(f"ACCEPTANCE {k} [{label}]: PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite():
    for name in HOPF_MODELS_N5:
        reports = run_axiom_suite(build_model(name), 5)
        assert all(r.ok() for r in reports), name
    reports = run_axiom_suite(build_model("G"), 4)
    assert all(r.ok() for r in reports)
    hat = build_model("SigmaHat:3")
    reports = run_axiom_suite(hat, 3)
    assert all(r.ok() for r in reports)
    _report(1, "axiom suite")


@pytest.mark.parametrize("name", HOPF_MODELS_N5)
def test_criterion_1_higher_compatibility_by_sweep(name):
    # the suite records higher compatibility from the paper's proposition
    # once the bimonoid axioms pass; the full sweep still checks it here
    assert check_higher_compatibility(build_model(name), 5) == []


def test_criterion_2_antipode_cross_validation():
    methods = ("takeuchi", "mm-left", "mm-right", "closed")
    for name, top in (("E", 5), ("L", 5), ("Lq:2", 5), ("Pi", 5),
                      ("Sigma", 5), ("Sigmaq:2", 5), ("G", 4)):
        model = build_model(name)
        fams = {m: antipode_family(model, top, m) for m in methods}
        for n in range(top + 1):
            maps = [fams[m][n] for m in methods]
            assert all(mp == maps[0] for mp in maps), (name, n)
        for n in range(top + 1):
            assert verify_antipode(model, fams["takeuchi"], n) == [], (name, n)
    # the graph closed form against the alternating sum on all 64 graphs
    G = build_model("G")
    for g in G.basis(4):
        assert closed_form(G, g, 4) == takeuchi_column(G, 4, g)
    _report(2, "antipode cross-validation")


def test_criterion_3_q_basis_theory():
    for name, top in (("Sigma", 4), ("Pi", 4), ("G", 4)):
        model = build_model(name)
        view = q_view(model)
        for n in range(top + 1):
            # exact round trips through the triangular changes
            for key in model.basis(n):
                x = LinComb.term(key)
                assert basis_change(model, "Q", "H",
                                    basis_change(model, "H", "Q", x, n), n) == x
                assert basis_change(model, "P", "M",
                                    basis_change(model, "M", "P", x, n), n) == x
        # structure constants in the Q basis match conjugation
        for n in range(min(top, 3) + 1):
            full = full_mask(n)
            for S in submasks(full):
                T = full ^ S
                for x in view.basis_on(S):
                    for y in view.basis_on(T):
                        hx = basis_change(model, "Q", "H", LinComb.term(x), n)
                        hy = basis_change(model, "Q", "H", LinComb.term(y), n)
                        want = basis_change(model, "H", "Q",
                                            mu_shape(model, (S, T), tensor(hx, hy)), n)
                        assert view.product(S, T, x, y) == want
        # Q-basis antipodes against the conjugated alternating sum
        for n in range(top + 1):
            sq = antipode(model, n, "closed", basis="Q")
            sh = antipode_family(model, n, "takeuchi")[n]
            for key in view.basis(n):
                hx = basis_change(model, "Q", "H", LinComb.term(key), n)
                assert sq(key) == basis_change(model, "H", "Q", sh(hx), n)
    _report(3, "Q-basis theory")


def test_criterion_4_idempotent_theory():
    for n in range(1, 4 + 1):
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
    Sigma = build_model("Sigma")
    for n in range(1, 5 + 1):
        e = euler_first(n)
        d = dynkin(n)
        assert tits_multiply(e, e) == e
        assert tits_multiply(d, d) == d.scale(n)
        for S in submasks(full_mask(n)):
            T = full_mask(n) ^ S
            if S and T:
                assert not delta_shape(Sigma, (S, T), e.coeffs)
                assert not delta_shape(Sigma, (S, T), d.coeffs)
    values = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
              Fraction(3), Fraction(1, 2))
    for n in range(1, 4 + 1):
        for p in values:
            for q in values:
                assert tits_multiply(h_power(p, n), h_power(q, n)) == h_power(p * q, n)
        for p in (Fraction(-1), Fraction(2), Fraction(3)):
            acc = TitsElement(n, LinComb())
            for k in range(0, n + 1):
                acc = acc + euler_higher(k, n).scale(p ** k)
            assert acc == h_power(p, n)
    _report(4, "idempotent theory")


def test_criterion_5_characteristic_operations():
    models = [build_model(m) for m in ("E", "L", "Lq:2", "Pi", "Sigma", "Sigmaq:2", "G")]
    for model in models:
        top = 4
        idf = {n: LinMap.identity(model.basis(n)) for n in range(top + 1)}
        # the one-block series acts as the identity
        for n in range(top + 1):
            uni_n = TitsElement(n, LinComb.term((full_mask(n),) if n else ()))
            assert psi_map(model, uni_n, n) == idf[n]
        # integer powers act as convolution powers of the identity
        for p in range(0, 4):
            fam = operator_conv_power(model, p, top)
            for n in range(top + 1):
                assert psi_map(model, h_power(p, n), n) == fam[n], (model.name, p, n)
        # the minus-one power acts as the antipode; the Takeuchi family is
        # psi_map(h_power(-1)) itself, so compare with the Milnor-Moore one
        sfam = antipode_family(model, top, "mm-right")
        for n in range(top + 1):
            assert psi_map(model, h_power(-1, n), n) == sfam[n]
        # the first Eulerian acts as the logarithm of the identity
        logid = operator_log_identity(model, top)
        for n in range(top + 1):
            assert psi_map(model, euler_first(n), n) == logid[n]
    # left-action law on cocommutative models
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
                        assert characteristic_op(model, zFG, h) == \
                            characteristic_op(model, zF, characteristic_op(model, zG, h))
    _report(5, "characteristic operations")


def test_criterion_6_primitives_and_cumulants():
    L = build_model("L")
    Pi = build_model("Pi")
    G = build_model("G")
    fact = [1, 1, 2, 6, 24]
    for n in range(1, 5 + 1):
        want = fact[n - 1]
        assert len(primitive_part(L, n)) == want
        assert psi_map(L, euler_first(n)).rank() == want
        assert cumulant(L, n) == want
        assert len(primitive_part(Pi, n)) == 1
        assert psi_map(Pi, euler_first(n)).rank() == 1
        assert cumulant(Pi, n) == 1
    for n, want in ((1, 1), (2, 1), (3, 4), (4, 38)):
        assert len(primitive_part(G, n)) == want
        assert psi_map(G, euler_first(n)).rank() == want
        assert cumulant(G, n) == want
    # P(Sigma) = Lie o E_+: dim P(Sigma)[n] = sum_k S(n, k) (k-1)!, with the
    # Stirling numbers of the second kind from their recurrence
    Sigma = build_model("Sigma")
    stirling = {(0, 0): 1}
    for n in range(1, 5 + 1):
        for k in range(1, n + 1):
            stirling[n, k] = (k * stirling.get((n - 1, k), 0)
                              + stirling.get((n - 1, k - 1), 0))
    wants = [sum(stirling[n, k] * fact[k - 1] for k in range(1, n + 1))
             for n in range(1, 5 + 1)]
    assert wants == [1, 2, 6, 26, 150]
    for n, want in zip(range(1, 5 + 1), wants):
        assert primitive_dimension_ranks(Sigma, n) == {
            "kernel": want, "euler_rank": want, "cumulant": want}
    _report(6, "primitives and cumulants")


def test_criterion_7_eulerian_and_pbw():
    for name in ("Sigma", "L", "Pi", "E"):
        model = build_model(name)
        for n in range(1, 4 + 1):
            rep = eulerian_decomposition(model, n)
            assert rep["ok"], (name, n)
            assert rep["rank_sum"] == model.dim(n)
            for entry in rep["entries"]:
                assert entry["rank"] == cumulant_partition(model, entry["partition"])
        for n in range(1, 3 + 1):
            rep = pbw_check(model, n)
            assert rep["bijective"] and rep["comonoid"], (name, n)
    _report(7, "Eulerian decomposition and the symmetrized product map")


def test_criterion_8_dynkin_specht_wever():
    L = build_model("L")
    fact = [1, 1, 2, 6]
    for n in range(1, 4 + 1):
        dmap = psi_map(L, dynkin(n))
        want = fact[n - 1]
        assert dmap.rank() == want
        eigen = (dmap - LinMap.identity(L.basis(n)).scale(n)).kernel_basis()
        assert len(eigen) == want
        assert dmap.compose(dmap) == dmap.scale(n)
        # brute-force left bracketing on every order
        for ell in L.basis(n):
            terms = {ell[:1]: Fraction(1)}
            for i in range(1, n):
                nxt = {}
                for key, c in terms.items():
                    nxt[key + (ell[i],)] = nxt.get(key + (ell[i],), Fraction(0)) + c
                    nxt[(ell[i],) + key] = nxt.get((ell[i],) + key, Fraction(0)) - c
                terms = nxt
            want_lc = LinComb({k: v for k, v in terms.items() if v})
            assert characteristic_op(L, dynkin(n), LinComb.term(ell)) == want_lc
    _report(8, "Dynkin-Specht-Wever")


def test_criterion_9_series_calculus():
    for name in ("Sigma", "Pi"):
        model = build_model(name)
        for x in primitive_series_witnesses(model, 4):
            g = exp_series(x)
            assert is_group_like(g)
            assert log_series(g) == x
    Sigma = build_model("Sigma")
    uni4 = uni_series(Sigma, 4)
    assert is_group_like(uni4)
    assert is_primitive_series(log_series(uni4))
    vals = (Fraction(1, 2), Fraction(-1), Fraction(2))
    for c in vals:
        for d in vals:
            assert cauchy(power_series(uni4, c), power_series(uni4, d)) == \
                power_series(uni4, c + d)
    uni5 = uni_series(Sigma, 5)
    assert log_series(uni5) == euler_series(Sigma, 5)
    _report(9, "series calculus")


def test_criterion_10_generating_functions():
    for name in ("E", "L", "Pi", "G", "Sigma"):
        model = build_model(name)
        report = sequence_transform_report(model, 6)
        assert report["boolean_nonneg"], name
        assert report["binomial_nonneg"], name
        assert report["log_egf_nonneg"], name
        assert report["type_ratio_nonneg"], name
        assert report["type_weakly_increasing"], name
    assert boolean_transform([1, 1, 2, 6, 24, 120])[:5] == [1, 1, 3, 13, 71]
    _report(10, "generating-function transforms")
