"""The Tits algebra of set compositions acting on bimonoids: characteristic
operations, Hopf powers, the Eulerian / Garsia-Reutenauer / Dynkin
idempotents, primitive parts, cumulants, the per-partition decomposition of
a cocommutative connected bimonoid, and the explicit symmetrized product map
realizing it.
"""

import itertools
from fractions import Fraction
from math import factorial

from .exactlin import LinComb, LinMap, lc_sum
from .kernels import comp_tits, dec_tits, popcount
from .setcomb import (
    compositions_of,
    decompositions_exact,
    full_mask,
    mask_labels,
    mobius_partition,
    partitions_of,
    positive_part,
    refinements,
    rel_length,
    submasks,
)
from .species import (
    NotHopfError,
    convolve,
    delta_shape,
    delta_shape_key,
    identity_family,
    mu_shape,
    mu_shape_key,
    unit_family,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """Bilinear extension of the Tits product."""
    z._check(w)
    prod = dec_tits if z.dec else comp_tits
    out = {}
    for f, a in z.coeffs.terms.items():
        for g, b in w.coeffs.terms.items():
            k = prod(f, g)
            v = out.get(k, ZERO) + a * b
            if v:
                out[k] = v
            else:
                del out[k]
    return TitsElement(z.n, LinComb.wrap(out), z.dec)


# ---------------------------------------------------------------------------
# characteristic operations


def characteristic_op(model, z, h):
    """z acting on h in model[n] as the sum of products-of-coproducts.

    Keys of h run outside the Tits terms, and each Tits coefficient (times
    the key's coefficient when that is not 1) enters as the starting
    coefficient of the coproduct along its composition.
    """
    if model.connected and z.dec:
        z = TitsElement(z.n, z.coeffs.map_keys(positive_part))
    terms = z.coeffs.terms.items()
    out = {}
    for key, c in h.terms.items():
        scaled = terms if c == 1 else [(F, a * c) for F, a in terms]
        if model.monomial:
            for F, a in scaled:
                img = delta_shape_key(model, F, key, a)
                if img is None:
                    continue
                c2, k2 = mu_shape_key(model, F, img[1], img[0])
                w = out.get(k2, ZERO) + c2
                if w:
                    out[k2] = w
                else:
                    del out[k2]
        else:
            x = LinComb.term(key)
            for F, a in scaled:
                for k2, c2 in mu_shape(model, F, delta_shape(model, F, x)).terms.items():
                    w = out.get(k2, ZERO) + a * c2
                    if w:
                        out[k2] = w
                    else:
                        del out[k2]
    return LinComb.wrap(out)


def psi_map(model, z, n=None):
    """The characteristic operation of z as a LinMap on degree n."""
    if n is None:
        n = z.n
    basis = model.basis(n)
    return LinMap(basis, basis,
                  {k: characteristic_op(model, z, LinComb.term(k)) for k in basis})


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
    out = {}
    for g in refinements(F):
        sign = -1 if (len(g) - len(F)) % 2 else 1
        out[g] = Fraction(sign, rel_length(F, g))
    return LinComb.wrap(out)


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


def idempotent(kind, n, *, k=None, X=None, i=None, p=None):
    """Build a named element: euler1, euler_k, garsia_reutenauer, dynkin,
    pdynkin, or h_power."""
    if kind == "euler1":
        return euler_first(n)
    if kind == "euler_k":
        return euler_higher(k, n)
    if kind == "garsia_reutenauer":
        return garsia_reutenauer(X, n)
    if kind == "dynkin":
        return dynkin(n)
    if kind == "pdynkin":
        return pdynkin(i, n)
    if kind == "h_power":
        return h_power(p, n)
    raise ValueError(f"unknown idempotent kind {kind!r}")


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
    rows = []
    codomain = []
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


def mu_pair(model, S, T, xs, ys):
    """Bilinear product of two LinCombs supported on components S and T."""
    out = {}
    for kx, cx in xs.terms.items():
        for ky, cy in ys.terms.items():
            for k, c in model.product(S, T, kx, ky).terms.items():
                w = out.get(k, ZERO) + cx * cy * c
                if w:
                    out[k] = w
                else:
                    del out[k]
    return LinComb.wrap(out)


def commutator(model, S, T, xs, ys):
    return mu_pair(model, S, T, xs, ys) - mu_pair(model, T, S, ys, xs)


def is_primitive(model, mask, lc):
    """Whether lc, supported on the component `mask`, kills all proper
    two-block coproducts."""
    for S in submasks(mask):
        if S == 0 or S == mask:
            continue
        T = mask ^ S
        img = {}
        for k, c in lc.terms.items():
            for pair, c2 in model.coproduct(S, T, k).terms.items():
                w = img.get(pair, ZERO) + c * c2
                if w:
                    img[pair] = w
                else:
                    del img[pair]
        if img:
            return False
    return True


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


def product_along(model, shape, factors):
    factors = [f if isinstance(f, LinComb) else LinComb.term(f) for f in factors]
    acc = factors[0]
    mask = shape[0]
    for i in range(1, len(shape)):
        acc = mu_pair(model, mask, shape[i], acc, factors[i])
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
        facs = [vectors[j] for j in perm]
        total = total + product_along(model, shape, facs)
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
    images = {key: lm.cols[key] for key in lm.domain}
    for S in submasks(full):
        T = full ^ S
        for (X, idx) in lm.domain:
            img = images[(X, idx)]
            lhs = {}
            for k, c in img.terms.items():
                for pair, c2 in model.coproduct(S, T, k).terms.items():
                    w = lhs.get(pair, ZERO) + c * c2
                    if w:
                        lhs[pair] = w
                    else:
                        del lhs[pair]
            admissible = all((b & S == b) or (b & S == 0) for b in X)
            rhs = {}
            if admissible:
                XS = tuple(b for b in X if b & S)
                XT = tuple(b for b in X if not (b & S))
                iS = tuple(i for b, i in zip(X, idx) if b & S)
                iT = tuple(i for b, i in zip(X, idx) if not (b & S))
                left = pbw_image(model, XS, iS, cache) if XS else LinComb.term(model.unit_key())
                right = pbw_image(model, XT, iT, cache) if XT else LinComb.term(model.unit_key())
                for ka, ca in left.terms.items():
                    for kb, cb in right.terms.items():
                        w = rhs.get((ka, kb), ZERO) + ca * cb
                        if w:
                            rhs[(ka, kb)] = w
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
