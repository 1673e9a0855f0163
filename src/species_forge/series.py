"""Degree-truncated series of a model: symmetric-group-invariant families of
elements, one per degree, with the Cauchy product and formal functional
calculus (exp, log, arbitrary powers), group-like/primitive/exponential
predicates, and the operator families induced on bimonoids by series of the
composition model.

Truncation is lossless per degree: every identity asserted here is an
identity of the components in degrees 0..nmax.
"""

import itertools
from fractions import Fraction
from math import factorial

from .exactlin import LinComb, tensor
from .kernels import popcount
from .setcomb import compositions_of, full_mask, mask_labels, submasks
from .species import (
    NotHopfError,
    adjacent_transpositions,
    check_relabel_action,
    delta_shape,
    mu_shape,
)
from .titsops import (
    TitsElement,
    binomial_general,
    euler_first,
    h_power,
    is_primitive,
    psi_map,
)

ZERO = Fraction(0)


class Series:
    """Components comps[n] in model[n] for 0 <= n <= nmax."""

    __slots__ = ("model", "nmax", "comps")

    def __init__(self, model, nmax, comps):
        self.model = model
        self.nmax = nmax
        self.comps = {n: comps.get(n, LinComb()) for n in range(nmax + 1)}

    def __eq__(self, other):
        return (isinstance(other, Series) and self.model is other.model
                and self.nmax == other.nmax and self.comps == other.comps)

    def component_on(self, mask):
        """The component on an arbitrary label set, by relabeling the
        standard component along the increasing bijection."""
        m = popcount(mask)
        comp = self.comps[m]
        if mask == full_mask(m):
            return comp
        return self.model.relabel_lc(mask_labels(mask), comp)

    def __add__(self, other):
        self._match(other)
        return Series(self.model, self.nmax,
                      {n: self.comps[n] + other.comps[n] for n in self.comps})

    def __sub__(self, other):
        self._match(other)
        return Series(self.model, self.nmax,
                      {n: self.comps[n] - other.comps[n] for n in self.comps})

    def scale(self, c):
        return Series(self.model, self.nmax,
                      {n: self.comps[n].scale(c) for n in self.comps})

    def scale_by_degree(self, c):
        """The one-parameter rescaling: degree n multiplied by c^n."""
        c = Fraction(c)
        return Series(self.model, self.nmax,
                      {n: self.comps[n].scale(c ** n) for n in self.comps})

    def _match(self, other):
        if self.model is not other.model or self.nmax != other.nmax:
            raise ValueError("series model or truncation mismatch")

    def __repr__(self):
        return f"Series({self.model.name}, nmax={self.nmax})"


def unit_series(model, nmax):
    return Series(model, nmax, {0: model.unit()})


def cauchy(s, t):
    """(s * t)_n as the sum of products over all two-block splits."""
    s._match(t)
    model = s.model
    out = {}
    for n in range(s.nmax + 1):
        full = full_mask(n)
        total = LinComb()
        for S in submasks(full):
            T = full ^ S
            total = total + mu_shape(model, (S, T), tensor(s.component_on(S), t.component_on(T)))
        out[n] = total
    return Series(model, s.nmax, out)


def cauchy_power(s, k):
    out = unit_series(s.model, s.nmax)
    for _ in range(k):
        out = cauchy(out, s)
    return out


def bracket(s, t):
    """Commutator bracket of series under the Cauchy product."""
    return cauchy(s, t) - cauchy(t, s)


def functional_calculus(coeffs, s):
    """Substitute s (with vanishing degree-0 part) into a formal power
    series given by its coefficient list or callable."""
    if s.comps[0]:
        raise ValueError("functional calculus needs a series with zero constant term")
    a = coeffs if callable(coeffs) else (lambda k: coeffs[k] if k < len(coeffs) else ZERO)
    model = s.model
    out = {0: model.unit().scale(a(0))}
    for n in range(1, s.nmax + 1):
        total = LinComb()
        for F in compositions_of(full_mask(n)):
            c = Fraction(a(len(F)))
            if not c:
                continue
            factors = [s.component_on(b) for b in F]
            if all(factors):
                total = total + mu_shape(model, F, tensor(*factors)).scale(c)
        out[n] = total
    return Series(model, s.nmax, out)


def exp_series(s):
    return functional_calculus(lambda k: Fraction(1, factorial(k)), s)


def log_series(t):
    """Logarithm of a series whose degree-0 part is the unit."""
    u = unit_series(t.model, t.nmax)
    if t.comps[0] != u.comps[0]:
        raise ValueError("logarithm needs a series with unit constant term")
    s = t - u
    return functional_calculus(lambda k: ZERO if k == 0 else Fraction((-1) ** (k + 1), k), s)


def power_series(t, c):
    """t^c for an arbitrary exact scalar c."""
    u = unit_series(t.model, t.nmax)
    if t.comps[0] != u.comps[0]:
        raise ValueError("powers need a series with unit constant term")
    s = t - u
    c = Fraction(c)
    return functional_calculus(lambda k: binomial_general(c, k), s)


# ---------------------------------------------------------------------------
# predicates


def is_exponential(s):
    model = s.model
    if s.comps[0] != model.unit():
        return False
    for n in range(s.nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            T = full ^ S
            pair = tensor(s.component_on(S), s.component_on(T))
            if mu_shape(model, (S, T), pair) != s.comps[n]:
                return False
    return True


def is_group_like(s):
    model = s.model
    if delta_shape(model, (), s.comps[0]) != tensor():
        return False
    for n in range(s.nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            T = full ^ S
            pair = tensor(s.component_on(S), s.component_on(T))
            if delta_shape(model, (S, T), s.comps[n]) != pair:
                return False
    return True


def is_primitive_series(s):
    return not s.comps[0] and all(is_primitive(s.model, full_mask(n), s.comps[n])
                                  for n in range(1, s.nmax + 1))


def is_gh_primitive(x, g, h):
    """(g, h)-primitivity: each split of x is g (tensor) x plus x (tensor) h."""
    x._match(g)
    x._match(h)
    model = x.model
    if delta_shape(model, (), x.comps[0]):
        return False
    for n in range(x.nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            T = full ^ S
            rhs = (tensor(g.component_on(S), x.component_on(T))
                   + tensor(x.component_on(S), h.component_on(T)))
            if delta_shape(model, (S, T), x.comps[n]) != rhs:
                return False
    return True


def check_invariance(s):
    """Every component is fixed by relabeling: checked on the adjacent
    transpositions, which generate S_n once relabeling is known to be an
    action (the same action check as naturality, run at each degree)."""
    model = s.model
    for n in range(s.nmax + 1):
        if check_relabel_action(model, n):
            return False
        for perm in adjacent_transpositions(n):
            if model.relabel_lc(perm, s.comps[n]) != s.comps[n]:
                return False
    return True


# ---------------------------------------------------------------------------
# distinguished series


def uni_series(model, nmax):
    """The universal group-like series of the composition model: one block
    per degree (unit in degree 0)."""
    if model.family != "Sigma":
        raise ValueError("the universal series lives in the composition model")
    comps = {0: LinComb.term(())}
    for n in range(1, nmax + 1):
        comps[n] = LinComb.term((full_mask(n),))
    return Series(model, nmax, comps)


def euler_series(model, nmax):
    """The primitive series whose components are the first Eulerian elements."""
    if model.family != "Sigma":
        raise ValueError("the Eulerian series lives in the composition model")
    comps = {n: euler_first(n).coeffs for n in range(1, nmax + 1)}
    comps[0] = LinComb()
    return Series(model, nmax, comps)


def exponential_series_E(model, c, nmax):
    """e(c) in the exponential model: c^n on the single basis key."""
    c = Fraction(c)
    comps = {n: LinComb.term(full_mask(n), c ** n) for n in range(nmax + 1)}
    return Series(model, nmax, comps)


def group_like_series_L(model, c, nmax):
    """g(c) in linear orders: c^n/n! times the sum of all orders."""
    c = Fraction(c)
    comps = {}
    for n in range(nmax + 1):
        coef = c ** n / factorial(n)
        comps[n] = LinComb({key: coef for key in model.basis(n)})
    return Series(model, nmax, comps)


def primitive_series_witnesses(model, nmax):
    """Invariant primitive series obtained by symmetrizing a primitive basis
    per degree (degreewise-concentrated; symmetrizations that vanish are
    dropped)."""
    from .titsops import primitive_part

    out = []
    for n in range(1, nmax + 1):
        perms = list(itertools.permutations(range(n)))
        for v in primitive_part(model, n):
            acc = LinComb()
            for perm in perms:
                acc = acc + model.relabel_lc(perm, v)
            acc = acc.scale(Fraction(1, len(perms)))
            if acc:
                comps = {m: LinComb() for m in range(nmax + 1)}
                comps[n] = acc
                out.append(Series(model, nmax, comps))
    return out


# ---------------------------------------------------------------------------
# operator series: series of the composition model acting on a bimonoid


def tits_series_uni(n):
    key = (full_mask(n),) if n else ()
    return TitsElement(n, LinComb.term(key))


def tits_series_euler(n):
    return euler_first(n)


def tits_series_h_power(p):
    return lambda n: h_power(p, n)


def operator_family_from_tits(model, tits_fn, nmax):
    """Apply a degree-indexed family of Tits elements to a connected model,
    yielding one endomorphism per degree."""
    return {n: psi_map(model, tits_fn(n), n) for n in range(nmax + 1)}


def exp_log_bijection_check(model, nmax):
    """Round trips between primitive and group-like series witnesses."""
    if not model.connected:
        raise NotHopfError("exp/log bijection applies to connected models")
    report = {"model": model.name, "nmax": nmax, "ok": True, "cases": []}

    def record(name, ok):
        report["cases"].append({"case": name, "ok": ok})
        report["ok"] = report["ok"] and ok

    witnesses = primitive_series_witnesses(model, nmax)
    for i, x in enumerate(witnesses):
        g = exp_series(x)
        record(f"exp-primitive-{i}-group-like", is_group_like(g))
        record(f"log-exp-roundtrip-{i}", log_series(g) == x)
    if model.family == "Sigma":
        uni = uni_series(model, nmax)
        record("uni-group-like", is_group_like(uni))
        x = log_series(uni)
        record("log-uni-primitive", is_primitive_series(x))
        record("exp-log-uni", exp_series(x) == uni)
        half = power_series(uni, Fraction(1, 2))
        record("uni^1/2-group-like", is_group_like(half))
        record("uni^1/2-squares-back", cauchy(half, half) == uni)
    return report


def series_to_json(s, encode_key):
    return {
        "model": s.model.name,
        "nmax": s.nmax,
        "components": {
            str(n): {encode_key(k): str(c) for k, c in sorted(
                s.comps[n].terms.items(), key=lambda kv: encode_key(kv[0]))}
            for n in range(s.nmax + 1)
        },
    }
