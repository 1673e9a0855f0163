"""The Tits algebra of set compositions acting on bimonoids: characteristic
operations, Hopf powers, the Eulerian / Garsia-Reutenauer / Dynkin
idempotents, primitive parts, cumulants, the per-partition decomposition of
a cocommutative connected bimonoid, and the explicit symmetrized product map
realizing it.
"""

import itertools
from fractions import Fraction
from math import factorial

from .exactlin import ONE, ZERO, LinComb, LinMap, add_part, integral, lc_from_parts, lc_sum, tensor
from .kernels import comp_tits, dec_tits, popcount
from .models import _sigma_Q_to_H
from .setcomb import (
    compositions_of,
    decompositions_exact,
    full_mask,
    mask_labels,
    mobius_partition,
    partitions_of,
    positive_part,
    submasks,
)
from .species import (
    NotHopfError,
    convolve,
    delta_shape,
    identity_family,
    mu_shape,
    unit_family,
)


class TitsElement:
    """Degree-homogeneous element of the Tits algebra: a linear combination
    of compositions of [n] (or of decompositions, for the unbounded-degree-0
    variant) under the product H_F H_G = H_{FG}."""

    __slots__ = ("n", "coeffs", "dec")

    def __init__(self, n, coeffs, dec=False):
        self.n = n
        self.coeffs = coeffs if isinstance(coeffs, LinComb) else LinComb(coeffs)
        self.dec = dec

    def __eq__(self, other):
        return (isinstance(other, TitsElement) and self.n == other.n
                and self.dec == other.dec and self.coeffs == other.coeffs)

    def __add__(self, other):
        self._check(other)
        return TitsElement(self.n, self.coeffs + other.coeffs, self.dec)

    def __sub__(self, other):
        self._check(other)
        return TitsElement(self.n, self.coeffs - other.coeffs, self.dec)

    def scale(self, c):
        return TitsElement(self.n, self.coeffs.scale(c), self.dec)

    def _check(self, other):
        if self.n != other.n or self.dec != other.dec:
            raise ValueError("degree mismatch between Tits elements")

    def __repr__(self):
        return f"TitsElement(n={self.n}, {self.coeffs!r})"


def tits_unit(n, dec=False):
    key = (full_mask(n),) if n else ()
    return TitsElement(n, LinComb.term(key), dec)


def tits_multiply(z, w):
    """Bilinear extension of the Tits product, on both factors scaled to
    ints and divided once per output term."""
    z._check(w)
    prod = dec_tits if z.dec else comp_tits
    dz, zs = integral(z.coeffs.terms)
    dw, ws = integral(w.coeffs.terms)
    ws = list(ws.items())
    out = {}
    for f, a in zs.items():
        for g, b in ws:
            k = prod(f, g)
            out[k] = out.get(k, 0) + a * b
    return TitsElement(z.n, lc_from_parts({1: out}, dz * dw), z.dec)


# ---------------------------------------------------------------------------
# characteristic operations


class PrefixTree:
    """The support of a Tits element as a tree of its shapes' prefixes.

    A node is a pair [end, children].  `end` is the coefficient of the
    shape that ends at the node, or None where no shape does; the node of
    a shape is marked even when it also has children, as with the empty
    trailing blocks of a decomposition.  `children` maps the next block to
    its node.  The coefficients are z's scaled by `denominator`, the lcm of
    their denominators, so they are ints; `ground` is the union of the
    blocks of every shape.
    """

    __slots__ = ("root", "denominator", "ground")

    def __init__(self, model, z):
        if model.connected and z.dec:
            z = TitsElement(z.n, z.coeffs.map_keys(positive_part))
        self.denominator, coeffs = integral(z.coeffs.terms)
        self.ground = full_mask(z.n)
        self.root = [None, {}]
        for F, a in coeffs.items():
            node = self.root
            for S in F:
                node = node[1].setdefault(S, [None, {}])
            node[0] = a


def characteristic_op(model, z, h, tree=None):
    """z acting on h in model[n] as the sum over z's shapes F of z_F times
    the product along F of the coproduct along F.

    One depth-first walk over z's prefix tree (`tree`, when the caller has
    already built it) serves every shape: a node with block S over the
    remaining set R takes the coproduct (S, R - S) of the remaining key and
    the left-nested product of its first factor onto the accumulated key,
    exactly the steps `delta_shape` and `mu_shape` take along each shape
    through that prefix.  On monomial models each path carries its
    coefficient as an int numerator and denominator; on any model the walk
    accumulates ints per (output key, denominator), so the result holds one
    Fraction per output key.
    """
    if tree is None:
        tree = PrefixTree(model, z)
    walk = _walk_keys if model.monomial else _walk_terms
    parts = {}
    (end, children), ground = tree.root, tree.ground
    for key, c in h.terms.items():
        num, den = c.numerator, c.denominator
        if end is not None:
            e = model.counit(key)
            if e:
                for ku, cu in model.unit().terms.items():
                    add_part(parts, den * e.denominator * cu.denominator, ku,
                             num * e.numerator * cu.numerator * end)
        walk(model, children, key, num, den, ground, parts)
    return lc_from_parts(parts, tree.denominator)


def _walk_keys(model, children, key, num, den, ground, parts):
    """The walk for a monomial model: one key and coefficient per path.

    The coproducts of one column are memoized on their arguments: all
    prefixes with the same union reach the same remaining set and key, so
    at most 3^n coproducts are taken (one per block and disjoint remaining
    set), against one per inner node of the tree.  The memo lives for this
    column only: `_down_keys` is a module-level function, because a nested
    function that calls itself sits in a reference cycle, which would keep
    the memo alive until the next garbage collection."""
    cop = model.coproduct_key
    ctx = (cop, model.product_key, {}, parts)
    for S, (end, sub) in children.items():
        if end is not None:
            add_part(parts, den, key, num * end)
        if sub:
            rest = ground & ~S
            img = cop(S, rest, key)
            if img is None:
                continue
            c, (k1, cur) = img
            num1 = num * c.numerator
            if num1:  # a degenerate braiding parameter can kill the path
                _down_keys(ctx, sub, S, k1, cur, rest, num1, den * c.denominator)


def _down_keys(ctx, children, mask, kacc, cur, rest, num, den):
    cop, prod, memo, parts = ctx
    for S, (end, sub) in children.items():
        if end is not None:
            c, k2 = prod(mask, S, kacc, cur)
            if c is ONE:
                add_part(parts, den, k2, num * end)
            else:
                add_part(parts, den * c.denominator, k2, num * c.numerator * end)
        if sub:
            rest2 = rest & ~S
            mk = (S, rest2, cur)
            img = memo.get(mk, memo)
            if img is memo:
                img = cop(S, rest2, cur)
                if img is not None:
                    c, (k1, cur2) = img
                    img = (c.numerator, c.denominator, k1, cur2)
                memo[mk] = img
            if img is None:
                continue
            cn, cd, k1, cur2 = img
            c, k2 = prod(mask, S, kacc, k1)
            num2, den2 = num * cn, den * cd
            if c is not ONE:
                num2, den2 = num2 * c.numerator, den2 * c.denominator
            if num2:
                _down_keys(ctx, sub, mask | S, k2, cur2, rest2, num2, den2)


def _times(coef, c):
    """coef * c, with an integral c as an int, and no work when c is 1."""
    if c is ONE:
        return coef
    if c.denominator == 1:
        c = c.numerator
        if c == 1:
            return coef
    return coef * c


def _walk_terms(model, children, key, num, den, ground, parts):
    """The walk for any model: each node carries the LinComb of its
    (accumulated key, remaining key) pairs, an integral coefficient as an
    int."""
    coef = num if den == 1 else Fraction(num, den)
    for S, (end, sub) in children.items():
        if end is not None:
            add_part(parts, den, key, num * end)
        if sub:
            rest = ground & ~S
            state = {pair: _times(coef, c)
                     for pair, c in model.coproduct(S, rest, key).terms.items()}
            if state:
                _down_terms(model, parts, sub, S, state, rest)


def _down_terms(model, parts, children, mask, state, rest):
    for S, (end, sub) in children.items():
        if end is not None:
            for (kacc, cur), c in state.items():
                for k2, c2 in model.product(mask, S, kacc, cur).terms.items():
                    v = _times(c, c2) * end
                    add_part(parts, v.denominator, k2, v.numerator)
        if sub:
            rest2 = rest & ~S
            nxt = {}
            for (kacc, cur), c in state.items():
                for (k1, cur2), c1 in model.coproduct(S, rest2, cur).terms.items():
                    c1 = _times(c, c1)
                    for k2, c2 in model.product(mask, S, kacc, k1).terms.items():
                        pair = (k2, cur2)
                        nxt[pair] = nxt.get(pair, 0) + _times(c1, c2)
            nxt = {pair: v for pair, v in nxt.items() if v}
            if nxt:
                _down_terms(model, parts, sub, mask | S, nxt, rest2)


def psi_map(model, z, n=None):
    """The characteristic operation of z as a LinMap on degree n."""
    if n is None:
        n = z.n
    basis = model.basis(n)
    tree = PrefixTree(model, z)
    return LinMap(basis, basis, {k: characteristic_op(model, z, LinComb.term(k), tree)
                                 for k in basis})


# ---------------------------------------------------------------------------
# classical elements of the Tits algebra


def binomial_general(c, k):
    """Generalized binomial coefficient with a Fraction upper argument."""
    c = Fraction(c)
    out = Fraction(1)
    for i in range(k):
        out *= (c - i)
    return out / factorial(k)


def euler_first(n):
    """The degree-n component of the logarithm of the universal series."""
    if n == 0:
        return TitsElement(0, LinComb())
    out = {}
    for F in compositions_of(full_mask(n)):
        k = len(F)
        out[F] = Fraction(-1 if k % 2 == 0 else 1, k)
    return TitsElement(n, LinComb.wrap(out))


def q_basis_in_h(F):
    """The triangular expansion of the Q element of a composition."""
    return LinComb.wrap(dict(_sigma_Q_to_H(F)))


def garsia_reutenauer(X, n):
    """The orthogonal idempotent attached to a partition of [n]."""
    X = tuple(X)
    terms = [q_basis_in_h(F) for F in itertools.permutations(X)]
    coeffs = lc_sum(terms).scale(Fraction(1, factorial(len(X))))
    return TitsElement(n, coeffs)


def euler_higher(k, n):
    """Sum of the partition idempotents over partitions with k blocks."""
    if k == 0:
        return tits_unit(n) if n == 0 else TitsElement(n, LinComb())
    terms = [garsia_reutenauer(X, n).coeffs
             for X in partitions_of(full_mask(n)) if len(X) == k]
    return TitsElement(n, lc_sum(terms))


def dynkin(n):
    """Left-bracketing quasi-idempotent: alternating sum weighted by the
    size of the last block."""
    out = {}
    for F in compositions_of(full_mask(n)):
        sign = -1 if len(F) % 2 == 0 else 1
        out[F] = Fraction(sign * popcount(F[-1]))
    return TitsElement(n, LinComb.wrap(out))


def pdynkin(i, n):
    """The idempotent summand of the Dynkin element attached to label i."""
    bit = 1 << i
    out = {}
    for F in compositions_of(full_mask(n)):
        if F and (F[-1] & bit):
            out[F] = Fraction(-1 if len(F) % 2 == 0 else 1)
    return TitsElement(n, LinComb.wrap(out))


def h_power(p, n):
    """The element operating as the p-th convolution power of the identity;
    p may be any Fraction (binomial coefficients extend polynomially)."""
    p = Fraction(p)
    out = {}
    for F in compositions_of(full_mask(n)):
        c = binomial_general(p, len(F))
        if c:
            out[F] = c
    return TitsElement(n, LinComb.wrap(out))


def h_power_dec(p, n):
    """Decomposition-indexed Hopf power: all decompositions of length p."""
    if p < 0 or p != int(p):
        raise ValueError("the decomposition-indexed power needs an integer p >= 0")
    keys = decompositions_exact(full_mask(n), int(p))
    return TitsElement(n, LinComb({k: ONE for k in keys}), dec=True)


# ---------------------------------------------------------------------------
# primitive part, indecomposables, cumulants


def proper_pairs(n):
    full = full_mask(n)
    return tuple((S, full ^ S) for S in submasks(full) if S and S != full)


def primitive_part(model, n):
    """Basis of the kernel intersection of all proper two-block coproducts."""
    if not model.connected:
        raise NotHopfError(f"{model.name} is not connected")
    basis = model.basis(n)
    if n == 0:
        return []
    cols = {k: {} for k in basis}
    for S, T in proper_pairs(n):
        for k in basis:
            for pair, c in model.coproduct(S, T, k).terms.items():
                key = (S, pair)
                cols[k][key] = cols[k].get(key, ZERO) + c
    codomain = sorted({key for col in cols.values() for key in col},
                      key=repr)
    lm = LinMap(basis, codomain,
                {k: LinComb.wrap({kk: v for kk, v in col.items() if v})
                 for k, col in cols.items()})
    return lm.kernel_basis()


def indecomposable_quotient_dim(model, n):
    """Dimension of the quotient by the span of all proper products."""
    if not model.connected:
        raise NotHopfError(f"{model.name} is not connected")
    basis = model.basis(n)
    if n == 0:
        return 0
    images = []
    for S, T in proper_pairs(n):
        for x in model.basis_on(S):
            for y in model.basis_on(T):
                images.append(model.product(S, T, x, y))
    domain = tuple(range(len(images)))
    lm = LinMap(domain, basis, dict(zip(domain, images)))
    return len(basis) - lm.rank()


def cumulant(model, n):
    """Alternating partition-lattice sum of products of dimensions."""
    if n == 0:
        return 0
    bottom = (full_mask(n),)
    total = ZERO
    for y in partitions_of(full_mask(n)):
        prod = 1
        for b in y:
            prod *= model.dim(popcount(b))
        total += mobius_partition(bottom, y) * prod
    assert total.denominator == 1
    return int(total)


def cumulant_partition(model, X):
    out = 1
    for b in X:
        out *= cumulant(model, popcount(b))
    return out


def primitive_dimension_ranks(model, n):
    """dim P(model)[n] three ways: kernel intersection, rank of the first
    Eulerian operation, and the cumulant formula."""
    kernel_dim = len(primitive_part(model, n))
    euler_rank = psi_map(model, euler_first(n)).rank() if n else 0
    return {"kernel": kernel_dim, "euler_rank": euler_rank, "cumulant": cumulant(model, n)}


# ---------------------------------------------------------------------------
# the per-partition decomposition and the symmetrized product map


def delta_map(model, shape, n):
    """The iterated coproduct along `shape` as a LinMap to tensor keys."""
    basis = model.basis(n)
    cols = {k: delta_shape(model, shape, LinComb.term(k)) for k in basis}
    codomain = sorted({kk for col in cols.values() for kk in col.terms}, key=repr)
    return LinMap(basis, codomain, cols)


def eulerian_decomposition(model, n, idempotents=None):
    """Per-partition ranks of the partition-idempotent operations.

    Returns a report dict with one entry per partition: the rank of the
    operation, the cumulant prediction, and whether the iterated coproduct
    along a composition with that support is injective on the image.
    """
    if not (model.connected and model.cocommutative):
        raise NotHopfError(f"{model.name} must be cocommutative and connected")
    entries = []
    total = 0
    for X in partitions_of(full_mask(n)):
        z = garsia_reutenauer(X, n) if idempotents is None else idempotents[X]
        pm = psi_map(model, z)
        rank = pm.rank()
        expected = cumulant_partition(model, X)
        dm = delta_map(model, tuple(X), n)
        restricted_rank = dm.compose(pm).rank()
        entries.append({
            "partition": X,
            "rank": rank,
            "expected": expected,
            "delta_injective": restricted_rank == rank,
        })
        total += rank
    dim = model.dim(n)
    return {
        "degree": n,
        "entries": entries,
        "rank_sum": total,
        "dim": dim,
        "ok": total == dim and all(e["rank"] == e["expected"] and e["delta_injective"]
                                   for e in entries),
    }


def commutator(model, S, T, xs, ys):
    return mu_shape(model, (S, T), tensor(xs, ys)) - mu_shape(model, (T, S), tensor(ys, xs))


def is_primitive(model, mask, lc):
    """Whether lc, supported on the component `mask`, kills all proper
    two-block coproducts."""
    return not any(delta_shape(model, (S, mask ^ S), lc)
                   for S in submasks(mask) if S and S != mask)


def left_bracketing(model, shape, factors):
    """Iterated commutator [..[x_1, x_2], .., x_k] of primitive factors
    attached to the blocks of `shape`."""
    factors = [f if isinstance(f, LinComb) else LinComb.term(f) for f in factors]
    if len(factors) != len(shape):
        raise ValueError("one factor per block required")
    for b, f in zip(shape, factors):
        if not is_primitive(model, b, f):
            raise ValueError("left bracketing requires primitive factors")
    acc = factors[0]
    mask = shape[0]
    for i in range(1, len(shape)):
        acc = commutator(model, mask, shape[i], acc, factors[i])
        mask |= shape[i]
    return acc


def primitive_basis_on(model, mask, cache=None):
    """Primitive basis of the component on `mask`, transported from the
    standard component by the increasing relabeling."""
    m = popcount(mask)
    if cache is not None and m in cache:
        std = cache[m]
    else:
        std = primitive_part(model, m)
        if cache is not None:
            cache[m] = std
    if mask == full_mask(m):
        return std
    return [model.relabel_lc(mask_labels(mask), v) for v in std]


def pbw_domain(model, n, cache=None):
    """Basis labels of the symmetrized domain: a partition of [n] together
    with one primitive-basis index per block."""
    if cache is None:
        cache = {}
    out = []
    for X in partitions_of(full_mask(n)):
        ranges = [range(len(primitive_basis_on(model, b, cache))) for b in X]
        for idx in itertools.product(*ranges):
            out.append((X, idx))
    return out, cache


def pbw_image(model, X, idx, cache):
    """Image of one domain element: the symmetrized product over all
    orderings of the blocks of X."""
    X = tuple(X)
    vectors = [primitive_basis_on(model, b, cache)[i] for b, i in zip(X, idx)]
    total = LinComb()
    order = list(range(len(X)))
    for perm in itertools.permutations(order):
        shape = tuple(X[j] for j in perm)
        total = total + mu_shape(model, shape, tensor(*[vectors[j] for j in perm]))
    return total.scale(Fraction(1, factorial(len(X))))


def pbw_map(model, n):
    """The comonoid isomorphism from the free commutative shell on the
    primitive part, as an explicit LinMap at degree n."""
    if not (model.connected and model.cocommutative):
        raise NotHopfError(f"{model.name} must be cocommutative and connected")
    domain, cache = pbw_domain(model, n)
    cols = {key: pbw_image(model, key[0], key[1], cache) for key in domain}
    return LinMap(tuple(domain), model.basis(n), cols), cache


def pbw_check(model, n):
    """Bijectivity plus preservation of all two-block coproducts."""
    lm, cache = pbw_map(model, n)
    report = {"degree": n, "bijective": False, "comonoid": True}
    if len(lm.domain) != len(lm.codomain):
        return report
    report["bijective"] = lm.rank() == len(lm.domain)
    full = full_mask(n)
    for S in submasks(full):
        T = full ^ S
        for (X, idx) in lm.domain:
            lhs = delta_shape(model, (S, T), lm.cols[(X, idx)])
            admissible = all((b & S == b) or (b & S == 0) for b in X)
            rhs = LinComb()
            if admissible:
                XS = tuple(b for b in X if b & S)
                XT = tuple(b for b in X if not (b & S))
                iS = tuple(i for b, i in zip(X, idx) if b & S)
                iT = tuple(i for b, i in zip(X, idx) if not (b & S))
                rhs = tensor(pbw_image(model, XS, iS, cache), pbw_image(model, XT, iT, cache))
            if lhs != rhs:
                report["comonoid"] = False
                return report
    return report


# ---------------------------------------------------------------------------
# operator families (convolution powers of the identity, its logarithm)


def operator_conv_power(model, p, nmax):
    """id^{*p} for an integer p >= 0, degree by degree."""
    if p < 0:
        raise ValueError("convolution powers of the identity need p >= 0")
    fam = unit_family(model, nmax)
    idf = identity_family(model, nmax)
    for _ in range(p):
        fam = {m: convolve(model, fam, idf, m) for m in range(nmax + 1)}
    return fam


def operator_log_identity(model, nmax):
    """log(id) in the convolution algebra, truncated degreewise."""
    idf = identity_family(model, nmax)
    uf = unit_family(model, nmax)
    delta = {m: idf[m] - uf[m] for m in range(nmax + 1)}  # locally nilpotent
    out = {m: LinMap.zero(model.basis(m), model.basis(m)) for m in range(nmax + 1)}
    power = uf
    for k in range(1, nmax + 1):
        power = {m: convolve(model, power, delta, m) for m in range(nmax + 1)}
        sign = Fraction(-1 if k % 2 == 0 else 1, k)
        out = {m: out[m] + power[m].scale(sign) for m in range(nmax + 1)}
    return out
