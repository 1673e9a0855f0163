"""The Tits algebra of set compositions acting on bimonoids: characteristic
operations, Hopf powers, the Eulerian / Garsia-Reutenauer / Dynkin
idempotents, primitive parts, cumulants, the per-partition decomposition of
a cocommutative connected bimonoid, and the explicit symmetrized product map
realizing it.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm

from .exactlin import ONE, ZERO, LinComb, LinMap, add_part, integral, lc_from_parts, lc_sum, tensor
from .gf import log_egf
from .kernels import comp_tits, dec_tits, popcount
from .models import CompositionModel, _sigma_Q_to_H
from .setcomb import (
    compositions_of,
    decompositions_exact,
    full_mask,
    mask_labels,
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
    """The support of a Tits element as a tree of its shapes' prefixes, in
    which subtrees equal up to an integer factor are stored once.

    `nodes[i]` is (end, edges): `end` is the coefficient of the shape that
    ends at the node (0 where none does; a node with edges may end a shape,
    as with the empty trailing blocks of a decomposition), and each edge
    (block, factor, child) stands for `factor` times the subtree of `child`.
    Children are interned before their parents, so a child's index is below
    its parent's and `root` is the last node.  z is `factor / denominator`
    times the root's shapes, all coefficients ints; `ground` is the union of
    the blocks of every shape.  Under a prefix, the shapes of h_power(-1, n)
    and dynkin(n) depend only on the labels the prefix has used, up to sign,
    so their trees have 2^n nodes.
    """

    __slots__ = ("nodes", "root", "factor", "denominator", "ground")

    def __init__(self, model, z):
        if model.connected and z.dec:
            z = TitsElement(z.n, z.coeffs.map_keys(positive_part))
        self.denominator, coeffs = integral(z.coeffs.terms)
        self.ground = full_mask(z.n)
        trie = [0, {}]
        for F, a in coeffs.items():
            node = trie
            for S in F:
                node = node[1].setdefault(S, [0, {}])
            node[0] = a
        self.nodes = []
        self.factor, self.root = self._intern(trie, {})

    def _intern(self, trie, index):
        """(factor, node) with `factor` times the subtree of `node` equal to
        `trie`: its end and edge factors divided by their gcd, the first of
        them made positive."""
        end, children = trie
        edges = sorted((S,) + self._intern(sub, index) for S, sub in children.items())
        g = gcd(end, *(f for _, f, _ in edges)) or 1  # the tree of z = 0
        if (end or (edges[0][1] if edges else 0)) < 0:
            g = -g
        key = (end // g, tuple((S, f // g, c) for S, f, c in edges))
        if key not in index:
            index[key] = len(self.nodes)
            self.nodes.append(key)
        return g, index[key]


def _merge(states, key, den, vec, m):
    """Add m / den times the int vector `vec` to the state `key` of
    `states`, a [denominator, {column: numerator}] pair."""
    if not m:  # a degenerate braiding parameter can kill the path
        return
    st = states.get(key)
    if st is None:
        states[key] = [den, {i: v * m for i, v in vec.items()}]
        return
    d, acc = st
    if d != den:
        common = lcm(d, den)
        if common != d:
            s = common // d
            for i in acc:
                acc[i] *= s
            st[0] = common
        m *= common // den
    for i, v in vec.items():
        acc[i] = acc.get(i, 0) + v * m


def _columns(model, z, seeds, width):
    """The characteristic operation of z on `width` columns at once.

    `seeds` maps each input key to [denominator, {column: numerator}].  A
    walk state is (node, accumulated key, remaining key), with int
    numerators per column over one denominator; equal states are merged
    across paths and columns, so a term that cancels is dropped at the
    prefix where it cancels.  An edge with block S over the remaining set R
    takes the coproduct (S, R - S) of the remaining key and the product of
    its first factor onto the accumulated key, the steps `delta_shape` and
    `mu_shape` take along every shape through the prefix.  States go in
    increasing order of their union U (the labels the prefix has used), and
    each union's states and coproduct memo are dropped once it is done.  An
    empty block keeps U, so within a union the nodes go in decreasing index,
    children after parents.  One LinComb per column, one Fraction per
    coefficient.
    """
    tree = PrefixTree(model, z)
    nodes, ground = tree.nodes, tree.ground
    coproducts, products = model.structure_maps()
    out, pending = {}, {}
    end, edges = nodes[tree.root]
    for key, (den, vec) in seeds.items():
        if end:  # the empty shape: the counit, then the unit
            e = model.counit(key)
            for ku, cu in (model.unit().terms.items() if e else ()):
                c = e * cu * end
                _merge(out, ku, den * c.denominator, vec, c.numerator)
        for S, f, child in edges:
            cend, cedges = nodes[child]
            if cend:
                _merge(out, key, den, vec, f * cend)
            if cedges:
                states = pending.setdefault(S, {}).setdefault(child, {})
                for c, (k1, cur) in coproducts(S, ground & ~S, key):
                    _merge(states, (k1, cur), den * c.denominator, vec, f * c.numerator)
    for U in range(ground + 1):
        level = pending.pop(U, None)
        if level is None:
            continue
        rest, memo = ground & ~U, {}
        while level:
            node = max(level)
            edges = nodes[node][1]
            for (kacc, cur), (den, vec) in level.pop(node).items():
                if 0 in vec.values():
                    vec = {i: v for i, v in vec.items() if v}
                    if not vec:
                        continue
                for S, f, child in edges:
                    cend, cedges = nodes[child]
                    if cend:
                        for c, k2 in products(U, S, kacc, cur):
                            _merge(out, k2, den * c.denominator, vec, f * cend * c.numerator)
                    if not cedges:
                        continue
                    img = memo.get((S, cur))
                    if img is None:
                        img = memo[S, cur] = [(c.numerator, c.denominator, k1, cur2) for c, (k1, cur2)
                                              in coproducts(S, rest & ~S, cur)]
                    states = (pending.setdefault(U | S, {}) if S else level).setdefault(child, {})
                    for cn, cd, k1, cur2 in img:
                        for c, k2 in products(U, S, kacc, k1):
                            _merge(states, (k2, cur2), den * cd * c.denominator, vec,
                                   f * cn * c.numerator)
    parts = [{} for _ in range(width)]
    for k2, (den, vec) in out.items():
        for i, v in vec.items():
            if v:
                add_part(parts[i], den, k2, v * tree.factor)
    return [lc_from_parts(p, tree.denominator) for p in parts]


def characteristic_op(model, z, h):
    """z acting on h in model[n]: the sum over z's shapes F of z_F times
    the product along F of the coproduct along F, by one walk over z's
    prefix tree (`_columns`)."""
    seeds = {k: [c.denominator, {0: c.numerator}] for k, c in h.terms.items()}
    return _columns(model, z, seeds, 1)[0]


def psi_map(model, z, n=None):
    """The characteristic operation of z as a LinMap on degree n, every
    column from one walk."""
    if n is None:
        n = z.n
    basis = model.basis(n)
    seeds = {k: [1, {i: 1}] for i, k in enumerate(basis)}
    return LinMap(basis, basis, dict(zip(basis, _columns(model, z, seeds, len(basis)))))


def tits_left_products(zs, ws):
    """[[z·w for w in ws] for z in zs], one walk of each z's prefix tree.  On
    Sigma with q = 1, in the H basis, the product along F of the coproduct
    along F sends H_G to H_{FG}, so the characteristic operation of z is
    left multiplication by z; each w is one column of the walk, with one
    common denominator per key, and the columns are seeded once for every z.
    Decompositions have no such identity, and they are refused (a w of
    another kind or degree than z by `_check`)."""
    cols = {}
    for i, w in enumerate(ws):
        for F, c in w.coeffs.terms.items():
            cols.setdefault(F, {})[i] = c
    seeds = {F: list(integral(col)) for F, col in cols.items()}
    out = []
    for z in zs:
        if z.dec:
            raise ValueError("the Tits product by a walk is defined on compositions only")
        for w in ws:
            z._check(w)
        out.append([TitsElement(z.n, lc)
                    for lc in _columns(CompositionModel(), z, seeds, len(ws))])
    return out


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
    binomials = [binomial_general(p, k) for k in range(n + 1)]
    return TitsElement(n, LinComb.wrap({F: binomials[len(F)] for F in compositions_of(full_mask(n))
                                        if binomials[len(F)]}))


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
    codomain = dict.fromkeys(key for col in cols.values() for key in col)
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
    """n! times the degree-n coefficient of the logarithm of the dimension
    EGF: the alternating partition-lattice sum of products of dimensions."""
    if n == 0:
        return 0
    total = factorial(n) * log_egf([model.dim(m) for m in range(n + 1)])[n - 1]
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


def eulerian_decomposition(model, n, idempotents=None):
    """Per-partition ranks of the partition-idempotent operations.

    Returns a report dict with one entry per partition: the rank of the
    operation, the cumulant prediction, and whether the iterated coproduct
    along a composition with that support is injective on the image.  One
    elimination gives the rank and a basis of the image (the pivot
    columns); the coproduct is taken on those columns only, and its rank
    there is the dimension of the image's image.
    """
    if not (model.connected and model.cocommutative):
        raise NotHopfError(f"{model.name} must be cocommutative and connected")
    entries = []
    total = 0
    for X in partitions_of(full_mask(n)):
        z = garsia_reutenauer(X, n) if idempotents is None else idempotents[X]
        pm = psi_map(model, z)
        image = pm.image_basis()
        rank = len(image)
        expected = cumulant_partition(model, X)
        cols = {k: delta_shape(model, tuple(X), pm.cols[k]) for k in image}
        codomain = dict.fromkeys(kk for col in cols.values() for kk in col.terms)
        restricted_rank = LinMap(image, codomain, cols).rank()
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
    transports = {}
    for _ in range(p):
        fam = {m: convolve(model, [(fam, idf)], m, transports)[0] for m in range(nmax + 1)}
    return fam


def operator_log_identity(model, nmax):
    """log(id) in the convolution algebra, truncated degreewise."""
    idf = identity_family(model, nmax)
    uf = unit_family(model, nmax)
    delta = {m: idf[m] - uf[m] for m in range(nmax + 1)}  # locally nilpotent
    out = {m: LinMap.zero(model.basis(m), model.basis(m)) for m in range(nmax + 1)}
    power = uf
    transports = {}
    for k in range(1, nmax + 1):
        power = {m: convolve(model, [(power, delta)], m, transports)[0] for m in range(nmax + 1)}
        sign = Fraction(-1 if k % 2 == 0 else 1, k)
        out = {m: out[m] + power[m].scale(sign) for m in range(nmax + 1)}
    return out
