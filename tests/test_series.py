"""Series calculus: Cauchy products, functional calculus laws, exp/log
round trips, predicates, transport, and the operator families induced on
bimonoids by distinguished series."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from species_forge import build_model, dual_model
from species_forge.antipode import antipode_family
from species_forge.exactlin import LinComb
from species_forge.series import (
    Series,
    cauchy,
    cauchy_power,
    check_invariance,
    euler_series,
    exp_log_bijection_check,
    exp_series,
    exponential_series_E,
    functional_calculus,
    group_like_series_L,
    is_exponential,
    is_gh_primitive,
    is_group_like,
    is_primitive_series,
    log_series,
    power_series,
    primitive_series_witnesses,
    series_to_json,
    tits_series_uni,
    operator_family_from_tits,
    uni_series,
    unit_series,
)
from species_forge.exactlin import tensor
from species_forge.models import CompositionModel
from species_forge.setcomb import compositions_of, encode_comp, full_mask, submasks
from species_forge.species import (
    convolve,
    delta_shape,
    identity_family,
    mu_shape,
    unit_family,
)
from species_forge.titsops import euler_higher, euler_first, h_power, psi_map

E = build_model("E")
L = build_model("L")
Pi = build_model("Pi")
Sigma = build_model("Sigma")


def test_unit_law():
    u = unit_series(Sigma, 3)
    s = uni_series(Sigma, 3)
    assert cauchy(u, s) == s
    assert cauchy(s, u) == s


def test_E_series_are_exponential_generating_functions():
    rng = random.Random(2)
    nmax = 5
    for _ in range(10):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(nmax + 1)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(nmax + 1)]
        s = Series(E, nmax, {n: LinComb.term(full_mask(n), a[n]) for n in range(nmax + 1)})
        t = Series(E, nmax, {n: LinComb.term(full_mask(n), b[n]) for n in range(nmax + 1)})
        st = cauchy(s, t)
        for n in range(nmax + 1):
            want = sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
            assert st.comps[n] == LinComb.term(full_mask(n), want)


def test_exponential_family_in_E():
    ea = exponential_series_E(E, 2, 4)
    eb = exponential_series_E(E, 3, 4)
    assert cauchy(ea, eb) == exponential_series_E(E, 5, 4)
    assert is_exponential(ea) and is_group_like(ea)
    inv = exponential_series_E(E, -2, 4)
    assert cauchy(ea, inv) == unit_series(E, 4)
    # log of e(1) is concentrated on singletons with coefficient 1
    x = log_series(exponential_series_E(E, 1, 4))
    assert x.comps[1] == LinComb.term(1)
    assert all(not x.comps[n] for n in (0, 2, 3, 4))


def test_group_like_family_in_L():
    g1 = group_like_series_L(L, 1, 4)
    g2 = group_like_series_L(L, 2, 4)
    assert cauchy(g1, g1) == g2
    assert is_group_like(g1)
    x = log_series(g1)
    assert is_primitive_series(x)
    assert x.comps[1] == LinComb.term((1,))
    assert all(not x.comps[n] for n in (0, 2, 3, 4))


def test_functional_calculus_laws():
    nmax = 3
    x = euler_series(Sigma, nmax)
    # the identity and square coefficients act as expected
    assert functional_calculus([0, 1], x) == x
    assert functional_calculus([0, 0, 1], x) == cauchy(x, x)
    rng = random.Random(7)
    for _ in range(5):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(nmax + 1)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(nmax + 1)]
        ab = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(nmax + 1)]
        lhs = functional_calculus(ab, x)
        rhs = cauchy(functional_calculus(a, x), functional_calculus(b, x))
        assert lhs == rhs
        s = [a[k] + b[k] for k in range(nmax + 1)]
        assert functional_calculus(s, x) == \
            functional_calculus(a, x) + functional_calculus(b, x)
        if b[0] == 0:
            comp = [sum(a[j] * _power_coeff(b, j, k) for j in range(k + 1))
                    for k in range(nmax + 1)]
            assert functional_calculus(comp, x) == \
                functional_calculus(a, functional_calculus(b, x))


def _power_coeff(b, j, k):
    """Coefficient of x^k in (sum b_i x^i)^j, with b_0 = 0."""
    acc = {0: Fraction(1)}
    for _ in range(j):
        nxt = {}
        for deg, c in acc.items():
            for i, bi in enumerate(b):
                if bi and deg + i <= k:
                    nxt[deg + i] = nxt.get(deg + i, Fraction(0)) + c * bi
        acc = nxt
    return acc.get(k, Fraction(0))


def test_exp_log_round_trips():
    nmax = 4
    for model in (Pi, Sigma):
        for x in primitive_series_witnesses(model, nmax):
            g = exp_series(x)
            assert is_group_like(g)
            assert log_series(g) == x
    uni = uni_series(Sigma, nmax)
    assert log_series(uni) == euler_series(Sigma, nmax)
    assert exp_series(log_series(uni)) == uni


def test_power_laws():
    uni = uni_series(Sigma, 4)
    vals = (Fraction(1, 2), Fraction(-1), Fraction(2))
    for c in vals:
        for d in vals:
            assert cauchy(power_series(uni, c), power_series(uni, d)) == \
                power_series(uni, c + d)
            assert power_series(power_series(uni, c), d) == power_series(uni, c * d)
        assert power_series(uni, c) == exp_series(log_series(uni).scale(c))
    assert is_group_like(power_series(uni, Fraction(1, 2)))


def test_eulerian_family_matches_cauchy_powers():
    nmax = 4
    e1 = euler_series(Sigma, nmax)
    for k in range(0, 4):
        powk = cauchy_power(e1, k).scale(Fraction(1, factorial(k)))
        for n in range(nmax + 1):
            assert powk.comps[n] == euler_higher(k, n).coeffs, (k, n)


def test_distinguished_group_like_series_of_dual_L():
    nmax = 3
    dl = dual_model(L)
    comps = {n: LinComb({k: Fraction(1) for k in dl.basis(n)}) for n in range(nmax + 1)}
    g = Series(dl, nmax, comps)
    assert is_group_like(g)


def test_invariance():
    assert check_invariance(uni_series(Sigma, 4))
    assert check_invariance(euler_series(Sigma, 4))
    for x in primitive_series_witnesses(Pi, 3):
        assert check_invariance(x)
    lopsided = Series(L, 2, {2: LinComb.term((1, 2))})
    assert not check_invariance(lopsided)


def test_scale_by_degree_and_primitivity():
    x = euler_series(Sigma, 3)
    y = x.scale_by_degree(Fraction(3))
    assert is_primitive_series(y)
    for n in range(4):
        assert y.comps[n] == x.comps[n].scale(Fraction(3) ** n)
    g = uni_series(Sigma, 3).scale_by_degree(Fraction(2))
    assert is_group_like(g)


def test_hadamard_product_of_series():
    from species_forge import hadamard

    had = hadamard(Sigma, Sigma)
    nmax = 2
    s = uni_series(Sigma, nmax)
    x = euler_series(Sigma, nmax)
    comps = {}
    for n in range(nmax + 1):
        out = {}
        for k1, c1 in s.comps[n].terms.items():
            for k2, c2 in x.comps[n].terms.items():
                out[(k1, k2)] = c1 * c2
        comps[n] = LinComb(out)
    sx = Series(had, nmax, comps)
    # anything Hadamard a primitive series is primitive
    assert is_primitive_series(sx)


def test_transport_of_primitives():
    nmax = 3
    uni = uni_series(Sigma, nmax)
    x = euler_series(Sigma, nmax)
    u = unit_series(Sigma, nmax)
    assert is_gh_primitive(x, u, u)
    fx = cauchy(uni, x)
    assert is_gh_primitive(fx, uni, uni)
    xf = cauchy(x, uni)
    assert is_gh_primitive(xf, uni, uni)
    # transport by different group-likes on the two sides
    g2 = power_series(uni, Fraction(2))
    assert is_gh_primitive(cauchy(g2, x), cauchy(g2, u), cauchy(g2, u))


def test_exp_log_bijection_reports():
    for model in (Pi, Sigma):
        rep = exp_log_bijection_check(model, 3)
        assert rep["ok"]


def test_operator_series_identity_and_antipode():
    for model in (L, Pi):
        nmax = 3
        idf = identity_family(model, nmax)
        fam = operator_family_from_tits(model, tits_series_uni, nmax)
        assert all(fam[n] == idf[n] for n in range(nmax + 1))
        sfam = antipode_family(model, nmax)
        fam = operator_family_from_tits(model, lambda n: h_power(-1, n), nmax)
        assert all(fam[n] == sfam[n] for n in range(nmax + 1))


def test_exp_of_primitive_valued_map_is_comonoid_morphism():
    # exponentiating the canonical projection onto primitives (a map into
    # the primitive part) in the convolution algebra returns the identity,
    # which is in particular a comonoid morphism
    model = Sigma
    nmax = 3
    f = {n: psi_map(model, euler_first(n), n) for n in range(nmax + 1)}
    exp_f = unit_family(model, nmax)
    power = unit_family(model, nmax)
    for k in range(1, nmax + 1):
        power = {m: convolve(model, [(power, f)], m)[0] for m in range(nmax + 1)}
        exp_f = {m: exp_f[m] + power[m].scale(Fraction(1, factorial(k)))
                 for m in range(nmax + 1)}
    idf = identity_family(model, nmax)
    for n in range(nmax + 1):
        assert exp_f[n] == idf[n]
    # a second witness: exp of (euler scaled by 2) is group-like as an
    # operator series, i.e. it intertwines coproducts multiplicatively
    from species_forge.species import component_map, delta_shape

    g = unit_family(model, nmax)
    power = unit_family(model, nmax)
    f2 = {n: f[n].scale(2) for n in range(nmax + 1)}
    for k in range(1, nmax + 1):
        power = {m: convolve(model, [(power, f2)], m)[0] for m in range(nmax + 1)}
        g = {m: g[m] + power[m].scale(Fraction(1, factorial(k)))
             for m in range(nmax + 1)}
    for n in range(nmax + 1):
        full = full_mask(n)
        for S in range(full + 1):
            if S & ~full:
                continue
            T = full ^ S
            if S | T != full or S & T:
                continue
            gS = component_map(model, g[bin(S).count('1')], S)
            gT = component_map(model, g[bin(T).count('1')], T)
            for key in model.basis(n):
                lhs = delta_shape(model, (S, T), g[n](key))
                rhs = {}
                for (a, b), c in delta_shape(model, (S, T), LinComb.term(key)).terms.items():
                    for ka, ca in gS(a).terms.items():
                        for kb, cb in gT(b).terms.items():
                            k2 = (ka, kb)
                            w = rhs.get(k2, Fraction(0)) + c * ca * cb
                            if w:
                                rhs[k2] = w
                            else:
                                del rhs[k2]
                assert lhs.terms == rhs


def test_series_json():
    s = uni_series(Sigma, 2)
    payload = series_to_json(s, encode_comp)
    assert payload["model"] == "Sigma"
    assert payload["components"]["2"] == {"01": "1"}


def test_domain_guards():
    uni = uni_series(Sigma, 3)
    with pytest.raises(ValueError):
        functional_calculus([1, 1], uni)  # nonzero constant term
    x = euler_series(Sigma, 3)
    with pytest.raises(ValueError):
        log_series(x)
    with pytest.raises(ValueError):
        power_series(x, Fraction(1, 2))


# ---------------------------------------------------------------------------
# oracles: the composition-by-composition functional calculus, the Cauchy
# product as one mu_shape per split, and the predicates as one delta_shape
# or mu_shape per split, all in LinCombs; the integer engine must agree


def _functional_calculus_ref(coeffs, s):
    model = s.model
    a = lambda k: Fraction(coeffs[k]) if k < len(coeffs) else Fraction(0)
    out = {0: model.unit().scale(a(0))}
    for n in range(1, s.nmax + 1):
        total = LinComb()
        for F in compositions_of(full_mask(n)):
            c = a(len(F))
            factors = [s.component_on(b) for b in F]
            if c and all(factors):
                total = total + mu_shape(model, F, tensor(*factors)).scale(c)
        out[n] = total
    return Series(model, s.nmax, out)


def _cauchy_ref(s, t):
    out = {}
    for n in range(s.nmax + 1):
        full = full_mask(n)
        total = LinComb()
        for S in submasks(full):
            T = full ^ S
            total = total + mu_shape(s.model, (S, T), tensor(s.component_on(S), t.component_on(T)))
        out[n] = total
    return Series(s.model, s.nmax, out)


def _splits(s):
    for n in range(s.nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            yield n, S, full ^ S


def _is_exponential_ref(s):
    return s.comps[0] == s.model.unit() and all(
        mu_shape(s.model, (S, T), tensor(s.component_on(S), s.component_on(T))) == s.comps[n]
        for n, S, T in _splits(s))


def _is_group_like_ref(s):
    return delta_shape(s.model, (), s.comps[0]) == tensor() and all(
        delta_shape(s.model, (S, T), s.comps[n]) == tensor(s.component_on(S), s.component_on(T))
        for n, S, T in _splits(s))


def _is_gh_primitive_ref(x, g, h):
    return not delta_shape(x.model, (), x.comps[0]) and all(
        delta_shape(x.model, (S, T), x.comps[n])
        == tensor(g.component_on(S), x.component_on(T)) + tensor(x.component_on(S), h.component_on(T))
        for n, S, T in _splits(x))


# dual:Lq:2/3 is the one model here with non-unit product coefficients; the
# primitive witnesses of had:L,Pi at degree 4 take 30 s to eliminate
ORACLE_MODELS = [("E", 4), ("L", 4), ("Pi", 4), ("G", 4), ("Sigma", 4), ("Sigmaq:2", 4),
                 ("Lq:2/3", 4), ("dual:L", 4), ("dual:Lq:2/3", 3), ("had:L,Pi", 4)]
PREDICATE_MODELS = ORACLE_MODELS[:-1] + [("had:L,Pi", 3)]


def _random_invariant(model, nmax, rng, constant):
    """The symmetrization of a random vector per degree, with non-integral
    coefficients; degree 0 is `constant`."""
    comps = {0: constant}
    for n in range(1, nmax + 1):
        basis = model.basis(n)
        v = LinComb({k: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     for k in rng.sample(basis, min(len(basis), 8))})
        acc = LinComb()
        for perm in itertools.permutations(range(n)):
            acc = acc + model.relabel_lc(perm, v)
        comps[n] = acc.scale(Fraction(1, factorial(n)))
    return Series(model, nmax, comps)


def _perturbed(s, rng):
    """s with one coefficient changed in a degree n >= 2 (where no single
    basis key is primitive)."""
    n = rng.choice(range(2, s.nmax + 1))
    key = rng.choice(s.model.basis(n))
    comps = dict(s.comps)
    comps[n] = comps[n] + LinComb.term(key, Fraction(1, 7))
    return Series(s.model, s.nmax, comps)


def _all_fractions(s):
    return all(type(c) is Fraction for n in s.comps for c in s.comps[n].terms.values())


@pytest.mark.parametrize("name,nmax", ORACLE_MODELS)
def test_functional_calculus_and_cauchy_match_the_oracles(name, nmax):
    model = build_model(name)
    rng = random.Random(name)
    s = _random_invariant(model, nmax, rng, LinComb())
    t = _random_invariant(model, nmax, rng, model.unit().scale(Fraction(-2, 3)))
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nmax + 1)]
    for got, want in ((functional_calculus(coeffs, s), _functional_calculus_ref(coeffs, s)),
                      (exp_series(s), _functional_calculus_ref(
                          [Fraction(1, factorial(k)) for k in range(nmax + 1)], s)),
                      (functional_calculus([0, 0, 1], s), _cauchy_ref(s, s)),
                      (cauchy(s, t), _cauchy_ref(s, t)),
                      (cauchy(t, t), _cauchy_ref(t, t))):
        assert got == want
        assert _all_fractions(got)


@pytest.mark.parametrize("name,nmax", PREDICATE_MODELS)
def test_predicates_match_the_oracles(name, nmax):
    model = build_model(name)
    rng = random.Random(name)
    u = unit_series(model, nmax)
    x = _random_invariant(model, nmax, rng, LinComb())
    t = x + u
    # true cases: the unit is exponential and group-like, a symmetrized
    # primitive is (1, 1)-primitive, and so is the difference of a series
    # and itself
    cases = [(is_exponential, _is_exponential_ref, (u,), True),
             (is_group_like, _is_group_like_ref, (u,), True),
             (is_exponential, _is_exponential_ref, (t,), None),
             (is_group_like, _is_group_like_ref, (t,), None),
             (is_gh_primitive, _is_gh_primitive_ref, (x, u, u), None),
             (is_gh_primitive, _is_gh_primitive_ref, (x - x, t, u), True)]
    for p in primitive_series_witnesses(model, nmax):
        cases.append((is_gh_primitive, _is_gh_primitive_ref, (p, u, u), True))
        cases.append((is_group_like, _is_group_like_ref, (exp_series(p),),
                      True if model.q == 1 else None))
    if name == "E":
        cases.append((is_exponential, _is_exponential_ref,
                      (exponential_series_E(model, Fraction(-3, 2), nmax),), True))
    if name == "Pi":
        singletons = {n: LinComb.term(tuple(1 << i for i in range(n))) for n in range(nmax + 1)}
        cases.append((is_exponential, _is_exponential_ref, (Series(model, nmax, singletons),), True))
    coproducts = {}
    for fast, ref, args, truth in cases:
        want = ref(*args)
        assert fast(*args) == want
        if truth is not None:
            assert want is truth
        if want:
            bad = list(args)
            bad[0] = _perturbed(args[0], rng)
            assert fast(*bad) is False
            assert ref(*bad) is False
        if fast is is_group_like:  # again, through one coproduct table for all
            assert fast(*args, coproducts=coproducts) == want
            if want:
                assert fast(*bad, coproducts=coproducts) is False


def _witnesses_ref(model, nmax):
    from species_forge.titsops import primitive_part

    out = []
    for n in range(1, nmax + 1):
        for v in primitive_part(model, n):
            acc = LinComb()
            for perm in itertools.permutations(range(n)):
                acc = acc + model.relabel_lc(perm, v)
            if acc:
                out.append((n, acc.scale(Fraction(1, factorial(n)))))
    return out


@pytest.mark.parametrize("name,nmax", [("Pi", 4), ("Sigma", 3), ("Lq:2/3", 3), ("dual:L", 3),
                                       ("had:L,Pi", 3)])
def test_primitive_witnesses_match_the_symmetrization_oracle(name, nmax):
    model = build_model(name)
    got = primitive_series_witnesses(model, nmax)
    want = _witnesses_ref(model, nmax)
    assert len(got) == len(want)
    for x, (n, v) in zip(got, want):
        assert x.comps[n] == v
        assert all(not x.comps[m] for m in x.comps if m != n)
        assert _all_fractions(x)


class CountingSigma(CompositionModel):
    """Sigma counting its relabel, product and coproduct calls."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def relabel(self, perm, key):
        self.calls["relabel"] += 1
        return super().relabel(perm, key)

    def product_key(self, S, T, x, y):
        self.calls["product_key"] += 1
        return super().product_key(S, T, x, y)

    def coproduct_key(self, S, T, key):
        self.calls["coproduct_key"] += 1
        return super().coproduct_key(S, T, key)


def test_exp_log_bijection_operation_counts():
    # `series exp-log --model Sigma --nmax 4`: 73 cases.  Composition by
    # composition and split by split in LinCombs it took 19025 relabels,
    # 1813 products and 24070 coproducts.  The witnesses relabel basis(n)
    # once per permutation (1885 of the relabels), each series is read once
    # per mask, and the group-like checks share one coproduct per
    # (S, T, key).
    model = CountingSigma()
    report = exp_log_bijection_check(model, 4)
    assert report["ok"] and len(report["cases"]) == 73
    assert dict(model.calls) == {"relabel": 2730, "product_key": 1509, "coproduct_key": 3587}


@pytest.mark.parametrize("name,false_cases", [
    ("Sigmaq:2", ["exp-primitive-0-group-like", "log-uni-primitive", "uni^1/2-group-like"]),
    ("Lq:2", ["exp-primitive-0-group-like"]),
])
def test_exp_log_bijection_is_for_the_ordinary_braiding(name, false_cases):
    # the bijection uses the ordinary braiding: on a q-twisted model the
    # coproduct of x1 x2 picks up 1 + q, so these cases are false at q = 2
    # (and `series exp-log` exits 1); the round trips still hold
    report = exp_log_bijection_check(build_model(name), 3)
    assert not report["ok"]
    assert [c["case"] for c in report["cases"] if not c["ok"]] == false_cases
