"""Antipode computations: cross-validation of the universal alternating sum,
the one-sided recursions, and the closed forms; convolution identities;
sign behavior on primitives; the cancellation-freeness audit for graphs."""

import contextlib
import io
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from species_forge import build_model
from species_forge.cli import main
from species_forge.antipode import (
    antipode,
    antipode_families,
    antipode_family,
    closed_form,
    closed_term_count,
    has_closed_form,
    takeuchi_column,
    verify_antipode,
)
from species_forge.exactlin import LinComb, LinMap, tensor
from species_forge.models import LinearOrderModel, QCompositionView, basis_change, q_view
from species_forge.kernels import popcount
from species_forge.setcomb import decode_comp, decode_partition, full_mask, submasks
from species_forge.species import (
    NotHopfError,
    component_map,
    convolve,
    identity_family,
    mu_shape,
    unit_family,
)
from species_forge.titsops import euler_first, primitive_part, psi_map

E = build_model("E")
L = build_model("L")
Pi = build_model("Pi")
G = build_model("G")
Sigma = build_model("Sigma")

MODELS_N3 = ("E", "L", "Lq:2", "Pi", "Sigma", "Sigmaq:2", "G")


def test_takeuchi_examples():
    assert antipode(E, 3)(full_mask(3)) == LinComb.term(full_mask(3), -1)
    s = antipode(Pi, 2)
    assert s((3,)) == LinComb({(3,): -1, (1, 2): 2})
    s = antipode(G, 2)
    assert s(1) == LinComb({1: -1, 0: 2})


def test_closed_form_examples():
    lq = build_model("Lq:2")
    assert closed_form(lq, decode_comp("0|1|2"), 3) == LinComb.term(decode_comp("2|1|0"), -8)
    assert closed_form(L, decode_comp("0|1"), 2) == LinComb.term(decode_comp("1|0"), 1)
    # one-block composition: alternating sum over all refinements of itself
    sg = closed_form(Sigma, (7,), 3)
    assert sg[(7,)] == -1 and sg[decode_comp("0|1|2")] == -1
    assert len(sg) == 13


def test_q_closed_form_examples():
    qsig = q_view(Sigma)
    assert closed_form(qsig, decode_comp("0|12"), 3) == LinComb.term(decode_comp("12|0"), 1)
    assert closed_form(qsig, (7,), 3) == LinComb.term((7,), -1)
    qpi = q_view(Pi)
    assert closed_form(qpi, decode_partition("01.2"), 3) == LinComb.term(decode_partition("01.2"), 1)
    qg = q_view(G)
    assert closed_form(qg, 1, 2) == LinComb.term(1, -1)  # one component
    assert closed_form(qg, 0, 2) == LinComb.term(0, 1)  # two isolated vertices


@pytest.mark.parametrize("name", MODELS_N3)
def test_method_agreement(name):
    model = build_model(name)
    fams = {m: antipode_family(model, 3, m) for m in ("takeuchi", "mm-left", "mm-right")}
    if has_closed_form(model):
        fams["closed"] = antipode_family(model, 3, "closed")
    for n in range(4):
        maps = [f[n] for f in fams.values()]
        assert all(m == maps[0] for m in maps), (name, n)


@pytest.mark.parametrize("name", ("Pi", "G", "Sigma"))
def test_q_basis_antipode_matches_conjugated(name):
    model = build_model(name)
    view = q_view(model)
    for n in range(4):
        sq = antipode(model, n, "closed", basis="Q")
        sh = antipode(model, n, "takeuchi")
        for key in view.basis(n):
            hx = basis_change(model, "Q", "H", LinComb.term(key), n)
            conj = basis_change(model, "H", "Q", sh(hx), n)
            assert sq(key) == conj, (name, n, key)


def test_antipode_is_involution_on_bicommutative_models():
    for name in ("E", "Pi", "G"):
        model = build_model(name)
        for n in range(4):
            s = antipode(model, n)
            assert s.compose(s) == LinMap.identity(model.basis(n))
    # cocommutative but noncommutative models are involutive too
    for name in ("L", "Sigma"):
        model = build_model(name)
        for n in range(4):
            s = antipode(model, n)
            assert s.compose(s) == LinMap.identity(model.basis(n))


def test_antipode_reverses_products():
    for name in ("L", "Sigmaq:2", "Pi"):
        model = build_model(name)
        q = model.q
        for n in range(4):
            fam = antipode_family(model, n, "takeuchi")
            full = full_mask(n)
            for S in submasks(full):
                T = full ^ S
                braid = q ** (popcount(S) * popcount(T))
                sS = component_map(model, fam[popcount(S)], S)
                sT = component_map(model, fam[popcount(T)], T)
                for x in model.basis_on(S):
                    for y in model.basis_on(T):
                        lhs = fam[n](model.product(S, T, x, y))
                        rhs = mu_shape(model, (T, S), tensor(sT(LinComb.term(y)),
                                                             sS(LinComb.term(x)))).scale(braid)
                        assert lhs == rhs, (name, n, S, T)


def test_primitives_are_negated():
    for name in ("L", "Pi", "G", "Sigma"):
        model = build_model(name)
        for n in range(1, 4):
            s = antipode(model, n)
            for v in primitive_part(model, n):
                assert s(v) == v.scale(-1)


def test_verify_antipode():
    assert verify_antipode(Pi, antipode_family(Pi, 4), 4) == []
    assert verify_antipode(Sigma, antipode_family(Sigma, 3), 3) == []
    fam = antipode_family(L, 2)
    fam[2] = LinMap.identity(L.basis(2))
    assert verify_antipode(L, fam, 2)


def test_graph_closed_form_is_cancellation_free():
    # term count of the closed form equals the surviving-term count of the
    # exactly-cancelled alternating sum
    for n in range(4 + 1):
        for g in G.basis(n):
            col = takeuchi_column(G, n, g) if n else LinComb.term(g)
            assert closed_term_count(G, g, n) == len(col.terms)
            assert closed_form(G, g, n) == col


def test_not_hopf_refusal():
    hat = build_model("SigmaHat:3")
    with pytest.raises(NotHopfError):
        antipode(hat, 2)
    with pytest.raises(NotHopfError):
        closed_form(hat, ((0, 1),), 1)


def test_degree_zero_antipode_is_identity():
    for name in MODELS_N3:
        model = build_model(name)
        assert antipode(model, 0) == LinMap.identity(model.basis(0))


def test_closed_forms_at_q_zero_have_no_zero_coefficients():
    for name in ("Sigmaq:0", "Lq:0"):
        model = build_model(name)
        fam = antipode_family(model, 4, "closed")
        for n in range(5):
            for k in model.basis(n):
                assert all(fam[n](k).terms.values()), (name, k)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main("antipode Sigmaq:0 3 H takeuchi --cross-check".split()) == 0


# ---------------------------------------------------------------------------
# integer convolution against the LinComb reference


def _convolve_by_lincombs(model, f_by_degree, g_by_degree, n):
    """Reference for convolve: every coproduct, column and product image as
    a LinComb, and every coefficient accumulated in Fractions."""
    full = full_mask(n)
    basis = model.basis(n)
    cols = {k: {} for k in basis}
    for S in submasks(full):
        T = full ^ S
        fS = component_map(model, f_by_degree[popcount(S)], S)
        gT = component_map(model, g_by_degree[popcount(T)], T)
        for k in basis:
            out = cols[k]
            for (a, b), c in model.coproduct(S, T, k).terms.items():
                for ka, ca in fS(a).terms.items():
                    for kb, cb in gT(b).terms.items():
                        for k2, v in model.product(S, T, ka, kb).terms.items():
                            out[k2] = out.get(k2, Fraction(0)) + c * ca * cb * v
    return LinMap(basis, basis, {k: LinComb.wrap({k2: v for k2, v in out.items() if v})
                                 for k, out in cols.items()})


class ThirdProductL(LinearOrderModel):
    """Linear orders whose product carries 1/3 when the left block is the
    larger: not a bimonoid, but a monomial model with non-integral product
    coefficients, which no registered model has."""

    name = "ThirdProductL"

    def product_key(self, S, T, x, y):
        return (Fraction(1, 3) if popcount(S) > popcount(T) else 1), x + y


@pytest.mark.parametrize("name, nmax", [
    ("E", 4), ("L", 4), ("Pi", 4), ("G", 4), ("Sigma", 4), ("Sigmaq:-1", 4),
    ("Lq:2/3", 4), ("Lq:0", 4), ("Q:Sigma", 4), ("Q:Pi", 4), ("dual:L", 3),
    ("dual:Lq:2/3", 3), ("had:L,Pi", 3), ("ThirdProductL", 3),
])
def test_convolve_matches_the_lincomb_sum(name, nmax):
    model = ThirdProductL() if name == "ThirdProductL" else build_model(name)
    families = {
        "id": identity_family(model, nmax),
        "S": antipode_family(model, nmax),
        "euler": {m: psi_map(model, euler_first(m), m) for m in range(nmax + 1)},
    }
    names = [(f_name, g_name) for f_name in families for g_name in families]
    pairs = [(families[f_name], families[g_name]) for f_name, g_name in names]
    transports = {}  # shared across degrees, as by the Milnor-Moore recursions
    for n in range(nmax + 1):
        want = [_convolve_by_lincombs(model, f, g, n) for f, g in pairs]
        for got_all in (convolve(model, pairs, n), convolve(model, pairs, n, transports)):
            assert len(got_all) == len(pairs)
            for label, got, ref in zip(names, got_all, want):
                assert got == ref, (name, n, label)
                assert all(type(v) is Fraction
                           for col in got.cols.values() for v in col.terms.values())


@pytest.mark.parametrize("name, nmax", [
    ("L", 4), ("Lq:2/3", 4), ("Pi", 4), ("Sigma", 4), ("Q:Sigma", 4), ("Q:Pi", 4),
    ("dual:L", 3), ("had:L,Pi", 3),
])
def test_antipode_families_match_one_method_families(name, nmax):
    model = build_model(name)
    both = antipode_families(model, nmax, ("mm-left", "mm-right"))
    assert list(both) == ["mm-left", "mm-right"]
    for method in both:
        assert both[method] == antipode_family(model, nmax, method), (name, method)


def _verify_antipode_by_two_sweeps(model, fam, n):
    """Reference for verify_antipode: one convolution per identity, each by
    the LinComb sum, failures listed id*S first, each in basis order."""
    idf = identity_family(model, n)
    unit = unit_family(model, n)[n]
    bad = []
    for label, conv in (("id*S", _convolve_by_lincombs(model, idf, fam, n)),
                        ("S*id", _convolve_by_lincombs(model, fam, idf, n))):
        if conv != unit:
            bad.extend((label, k) for k in model.basis(n) if conv(k) != unit(k))
    return bad


@pytest.mark.parametrize("name, n, degree", [
    ("L", 3, 2), ("Sigma", 3, 2), ("Q:Sigma", 4, 3), ("Pi", 4, 3), ("Sigma", 3, 3),
])
def test_verify_antipode_lists_failures_as_two_sweeps(name, n, degree):
    model = build_model(name)
    fam = antipode_family(model, n)
    basis = model.basis(degree)
    k0 = basis[len(basis) // 2]
    cols = dict(fam[degree].cols)
    cols[k0] = LinComb.term(k0)  # one corrupted column
    fam[degree] = LinMap(basis, basis, cols)
    got = verify_antipode(model, fam, n)
    assert got and {label for label, _ in got} == {"id*S", "S*id"}
    assert got == _verify_antipode_by_two_sweeps(model, fam, n)


class CountingQSigma(QCompositionView):
    """Q:Sigma counting its coproduct and relabel calls."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def coproduct_key(self, S, T, key):
        self.calls["coproduct_key"] += 1
        return super().coproduct_key(S, T, key)

    def relabel(self, perm, key):
        self.calls["relabel"] += 1
        return super().relabel(perm, key)


def test_convolve_sweeps_once_per_degree():
    # The convolution part of `antipode Sigma 4 Q ... --cross-check`: both
    # Milnor-Moore recursions, then both identities at the top degree.  Each
    # degree m >= 1 takes one sweep of 2^m splits times dim(m) coproducts.
    # The keys of degree m are relabelled once onto each m-subset of [4]
    # other than the initial one, where maps are used as they are: once for
    # both recursions, and once more for the verification.
    n = 4
    model = CountingQSigma()
    antipode_families(model, n, ("mm-left", "mm-right"))
    mm_calls = dict(model.calls)
    model.calls.clear()
    assert verify_antipode(model, antipode_family(q_view(Sigma), n, "takeuchi"), n) == []
    verify_calls = dict(model.calls)

    dims = [model.dim(m) for m in range(n + 1)]
    assert dims == [1, 1, 3, 13, 75]
    relabels = sum((comb(n, m) - 1) * dims[m] for m in range(1, n))
    assert mm_calls == {"coproduct_key": sum(2 ** m * dims[m] for m in range(1, n + 1)),
                        "relabel": relabels}  # 1318, 57
    assert verify_calls == {"coproduct_key": 2 ** n * dims[n], "relabel": relabels}  # 1200, 57
