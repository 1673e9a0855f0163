"""Degree-truncated series of a model: symmetric-group-invariant families of
elements, one per degree, with the Cauchy product and formal functional
calculus (exp, log, arbitrary powers), group-like/primitive/exponential
predicates, and the operator families induced on bimonoids by series of the
composition model.

Truncation is lossless per degree: every identity asserted here is an
identity of the components in degrees 0..nmax.

Products, coproducts and comparisons run on integers: a component on a
label set is read once as ints over one common denominator, results
accumulate int numerators per (key, denominator), and each output
coefficient becomes one Fraction at the end.
"""

import itertools
from fractions import Fraction
from math import factorial

from .exactlin import ONE, ZERO, LinComb, add_part, integral, lc_from_parts, merge_parts
from .kernels import popcount
from .setcomb import full_mask, mask_labels, submasks
from .species import NotHopfError, _block_generators, check_relabel_action
from .titsops import (
    binomial_general,
    euler_first,
    h_power,
    is_primitive,
    primitive_part,
    psi_map,
    tits_unit,
)


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


# ---------------------------------------------------------------------------
# the integer engine: an int column (d, {key: int}) is an element with its
# coefficients over one common denominator d; results accumulate in parts
# {den: {key: int numerator}} (exactlin.add_part), and a column is the
# parts {d: ints}


class _Columns(dict):
    """mask -> the component of a series on that mask as an int column,
    each relabelled and read once."""

    def __init__(self, s):
        super().__init__()
        self.s = s

    def __missing__(self, mask):
        col = self[mask] = integral(self.s.component_on(mask).terms)
        return col


def _flat(parts):
    """The int column of the nonzero coefficients accumulated in parts."""
    d, acc = merge_parts(parts)
    return d, {k: v for k, v in acc.items() if v}


def _multiply(parts, products, S, T, x, y):
    """Accumulate the product on (S, T) of the int columns x on S and y on
    T; `products` is the product of the model's structure_maps()."""
    (dx, xs), (dy, ys) = x, y
    if not (xs and ys):
        return parts
    den = dx * dy
    for kx, nx in xs.items():
        for ky, ny in ys.items():
            for c, k in products(S, T, kx, ky):
                add_part(parts, den * c.denominator, k, nx * ny * c.numerator)
    return parts


def _coproduct(parts, coproducts, S, T, x, table):
    """Accumulate the coproduct on (S, T) of the int column x on S | T,
    `coproducts` the coproduct of the model's structure_maps(), each
    coproduct kept in `table` under (S, T) and the key as its (c, pair)
    terms."""
    d, xs = x
    known = table.get((S, T))
    if known is None:
        known = table[S, T] = {}
    acc = parts.setdefault(d, {})
    for k, num in xs.items():
        cops = known.get(k)
        if cops is None:
            cops = known[k] = coproducts(S, T, k)
        for c, pair in cops:
            if c is ONE:
                acc[pair] = acc.get(pair, 0) + num
            else:
                add_part(parts, d * c.denominator, pair, num * c.numerator)
    return parts


def _tensor(parts, x, y):
    """Accumulate x (tensor) y of two int columns."""
    (dx, xs), (dy, ys) = x, y
    if xs and ys:
        acc = parts.setdefault(dx * dy, {})
        for kx, nx in xs.items():
            for ky, ny in ys.items():
                acc[kx, ky] = acc.get((kx, ky), 0) + nx * ny
    return parts


def _splits_agree(nmax, lhs, rhs):
    """Whether the parts lhs(S, T) and rhs(S, T) are equal on every split
    (S, T) of [n] for n <= nmax, compared exactly in ints."""
    for n in range(nmax + 1):
        full = full_mask(n)
        for S in submasks(full):
            (da, xs), (db, ys) = _flat(lhs(S, full ^ S)), _flat(rhs(S, full ^ S))
            if da != db:
                xs = {k: v * db for k, v in xs.items()}
                ys = {k: v * da for k, v in ys.items()}
            if xs != ys:
                return False
    return True


def cauchy(s, t):
    """(s * t)_n as the sum of products over all two-block splits."""
    s._match(t)
    model = s.model
    _, products = model.structure_maps()
    cs = _Columns(s)
    ct = cs if t is s else _Columns(t)
    out = {}
    for n in range(s.nmax + 1):
        full = full_mask(n)
        parts = {}
        for S in submasks(full):
            _multiply(parts, products, S, full ^ S, cs[S], ct[full ^ S])
        out[n] = lc_from_parts(parts)
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
    series given by its coefficient list or callable.

    Degree n is the sum over the compositions F of [n] of a(len(F)) times
    the left-nested product of s along F.  One walk over the subsets U of
    [nmax] in increasing size keeps, per (U, j), the sum over the
    compositions of U into j blocks, as ints; a block B disjoint from U
    extends it by one product on (U, B).  So each prefix is multiplied
    once, on its own labels.
    """
    if s.comps[0]:
        raise ValueError("functional calculus needs a series with zero constant term")
    a = coeffs if callable(coeffs) else (lambda k: coeffs[k] if k < len(coeffs) else ZERO)
    model = s.model
    _, products = model.structure_maps()
    coef = [Fraction(a(k)) for k in range(s.nmax + 1)]
    top = max((j for j, c in enumerate(coef) if c), default=0)
    cols = _Columns(s)
    full = full_mask(s.nmax)
    states = {}
    degrees = {n: {} for n in range(1, s.nmax + 1)}
    for U in sorted(range(1, full + 1), key=popcount):
        for j in range(1, min(popcount(U), top) + 1):
            x = cols[U] if j == 1 else _flat(states.pop((U, j), {}))
            if not x[1]:
                continue
            c = coef[j]
            if c and not U & (U + 1):  # U is [n]
                d, xs = x
                for k, v in xs.items():
                    add_part(degrees[popcount(U)], d * c.denominator, k, v * c.numerator)
            if j < top:
                for B in submasks(full ^ U):
                    if cols[B][1]:
                        _multiply(states.setdefault((U | B, j + 1), {}), products, U, B, x, cols[B])
    out = {n: lc_from_parts(parts) for n, parts in degrees.items()}
    out[0] = model.unit().scale(coef[0])
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
# predicates: one sweep over the splits of each degree, every component read
# once per mask


def _counit(s):
    return sum((v * s.model.counit(k) for k, v in s.comps[0].terms.items()), ZERO)


def is_exponential(s):
    model = s.model
    if s.comps[0] != model.unit():
        return False
    _, products = model.structure_maps()
    cols = _Columns(s)
    return _splits_agree(s.nmax, lambda S, T: _multiply({}, products, S, T, cols[S], cols[T]),
                         lambda S, T: dict([cols[S | T]]))


def is_group_like(s, coproducts=None):
    """Each split of s is the tensor of its parts.  `coproducts`, a dict
    the caller owns for one model, keeps the coproduct of each (S, T, key)
    for further checks; without it they are kept for this call only."""
    if _counit(s) != 1:
        return False
    cop, _ = s.model.structure_maps()
    cols = _Columns(s)
    table = {} if coproducts is None else coproducts
    return _splits_agree(s.nmax, lambda S, T: _coproduct({}, cop, S, T, cols[S | T], table),
                         lambda S, T: _tensor({}, cols[S], cols[T]))


def is_primitive_series(s):
    return not s.comps[0] and all(is_primitive(s.model, full_mask(n), s.comps[n])
                                  for n in range(1, s.nmax + 1))


def is_gh_primitive(x, g, h):
    """(g, h)-primitivity: each split of x is g (tensor) x plus x (tensor) h."""
    x._match(g)
    x._match(h)
    if _counit(x):
        return False
    cop, _ = x.model.structure_maps()
    cx, cg, ch = _Columns(x), _Columns(g), _Columns(h)
    return _splits_agree(x.nmax, lambda S, T: _coproduct({}, cop, S, T, cx[S | T], {}),
                         lambda S, T: _tensor(_tensor({}, cg[S], cx[T]), cx[S], ch[T]))


def check_invariance(s):
    """Every component is fixed by relabeling: checked on the swap and the
    cycle of _block_generators, which generate S_n once relabeling is known
    to be an action (the same action check as naturality, run at each
    degree)."""
    model = s.model
    for n in range(s.nmax + 1):
        if check_relabel_action(model, n):
            return False
        for perm in _block_generators(full_mask(n), n):
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
    comps = {n: tits_unit(n).coeffs for n in range(nmax + 1)}
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
    out = []
    for n in range(1, nmax + 1):
        vectors = [integral(v.terms) for v in primitive_part(model, n)]
        sums = [{} for _ in vectors]
        basis = model.basis(n)
        for perm in itertools.permutations(range(n)):
            up = {k: model.relabel(perm, k) for k in basis}
            for (_, ints), acc in zip(vectors, sums):
                for k, v in ints.items():
                    k2 = up[k]
                    acc[k2] = acc.get(k2, 0) + v
        for (d, _), acc in zip(vectors, sums):
            acc = lc_from_parts({d * factorial(n): acc})
            if acc:
                comps = {m: LinComb() for m in range(nmax + 1)}
                comps[n] = acc
                out.append(Series(model, nmax, comps))
    return out


# ---------------------------------------------------------------------------
# operator series: series of the composition model acting on a bimonoid


def tits_series_uni(n):
    return tits_unit(n)


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

    coproducts = {}
    witnesses = primitive_series_witnesses(model, nmax)
    for i, x in enumerate(witnesses):
        g = exp_series(x)
        record(f"exp-primitive-{i}-group-like", is_group_like(g, coproducts))
        record(f"log-exp-roundtrip-{i}", log_series(g) == x)
    if model.family == "Sigma":
        uni = uni_series(model, nmax)
        record("uni-group-like", is_group_like(uni, coproducts))
        x = log_series(uni)
        record("log-uni-primitive", is_primitive_series(x))
        record("exp-log-uni", exp_series(x) == uni)
        half = power_series(uni, Fraction(1, 2))
        record("uni^1/2-group-like", is_group_like(half, coproducts))
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
