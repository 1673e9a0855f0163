"""Model abstraction for (q-)bimonoids in species, realized degreewise on
canonical ground sets, plus the derived higher structure maps, executable
axiom checks, duality, and Hadamard products.

A model supplies, per label set (as a bitmask): an ordered basis of opaque
hashable keys, a relabeling action, and structure maps

    product(S, T, x, y)  -> LinComb on keys over S|T
    coproduct(S, T, key) -> LinComb over pairs (key_S, key_T)

Models whose maps send basis keys to scalar multiples of basis keys
("monomial" models: the linearized set-theoretic ones, their q-twists, and
the triangular basis views) expose the cheaper `product_key`/`coproduct_key`
interface; everything else (duals, Hadamard products) works through full
LinCombs.  The checkers and antipode code pick the fast path when available.
"""

import itertools
import random
from fractions import Fraction

from .exactlin import LinComb, LinMap, lc_sum
from .kernels import comp_restrict, dist, mask_permute, popcount, tits_perm
from .setcomb import (
    compositions_of,
    decompositions_of,
    full_mask,
    mask_labels,
    submasks,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class UnsupportedOperation(ValueError):
    pass


class NotHopfError(ValueError):
    pass


class SpeciesModel:
    """Base class; concrete models fill in the basis and structure maps."""

    name = "?"
    q = ONE
    connected = True
    commutative = False
    cocommutative = False
    set_theoretic = False
    monomial = False

    # -- basis ------------------------------------------------------------

    def basis_on(self, mask):
        raise NotImplementedError

    def basis(self, n):
        return self.basis_on(full_mask(n))

    def dim(self, n):
        return len(self.basis(n))

    def unit_key(self):
        return self.basis_on(0)[0]

    def counit(self, key):
        """Counit on degree-0 keys; connected models have a single key."""
        return ONE if key == self.unit_key() else ZERO

    # -- structure maps ----------------------------------------------------

    def relabel(self, perm, key):
        raise NotImplementedError

    def product_key(self, S, T, x, y):
        raise NotImplementedError

    def coproduct_key(self, S, T, key):
        raise NotImplementedError

    def product(self, S, T, x, y):
        c, k = self.product_key(S, T, x, y)
        return LinComb.term(k, c)

    def coproduct(self, S, T, key):
        img = self.coproduct_key(S, T, key)
        if img is None:
            return LinComb()
        c, pair = img
        return LinComb.term(pair, c)

    # -- conveniences -------------------------------------------------------

    def relabel_lc(self, perm, lc):
        out = {}
        for k, v in lc.terms.items():
            k2 = self.relabel(perm, k)
            out[k2] = out.get(k2, ZERO) + v
        return LinComb.wrap({k: v for k, v in out.items() if v})

    def __repr__(self):
        return f"<model {self.name}>"


class TensorElement:
    """An element of the tensor space attached to a decomposition: `shape`
    is the tuple of block masks, `factors` a LinComb over key tuples with one
    key (drawn from the block's component) per block."""

    __slots__ = ("shape", "factors")

    def __init__(self, shape, factors):
        self.shape = tuple(shape)
        self.factors = factors if isinstance(factors, LinComb) else LinComb(factors)
        for keys in self.factors.terms:
            if len(keys) != len(self.shape):
                raise ValueError("tensor key length does not match the shape")

    def __eq__(self, other):
        return (isinstance(other, TensorElement)
                and self.shape == other.shape and self.factors == other.factors)

    def __repr__(self):
        return f"TensorElement(shape={self.shape}, factors={self.factors!r})"


def tensor_basis(model, shape):
    """Ordered basis of the tensor space over `shape`: tuples of keys."""
    return tuple(itertools.product(*[model.basis_on(b) for b in shape]))


# ---------------------------------------------------------------------------
# higher product and coproduct maps (left-nested iteration)


def mu_shape(model, shape, tlc):
    """Iterated product along `shape` applied to a LinComb over key tuples."""
    if not shape:
        c = tlc.terms.get((), ZERO)
        return LinComb.term(model.unit_key(), c) if c else LinComb()
    out = {}
    for keys, c0 in tlc.terms.items():
        cur = {keys[0]: c0}
        mask = shape[0]
        for i in range(1, len(shape)):
            nxt = {}
            for kacc, cacc in cur.items():
                for k2, v2 in model.product(mask, shape[i], kacc, keys[i]).terms.items():
                    w = nxt.get(k2, ZERO) + cacc * v2
                    if w:
                        nxt[k2] = w
                    else:
                        del nxt[k2]
            mask |= shape[i]
            cur = nxt
        for k2, v2 in cur.items():
            w = out.get(k2, ZERO) + v2
            if w:
                out[k2] = w
            else:
                del out[k2]
    return LinComb.wrap(out)


def delta_shape(model, shape, lc):
    """Iterated coproduct along `shape`; result is a LinComb over key tuples."""
    if not shape:
        c = sum((v * model.counit(k) for k, v in lc.terms.items()), ZERO)
        return LinComb.term((), c) if c else LinComb()
    rest = 0
    for b in shape:
        rest |= b
    cur = {(k,): v for k, v in lc.terms.items()}
    for i in range(len(shape) - 1):
        rest &= ~shape[i]
        nxt = {}
        for keys, c in cur.items():
            for pair, v in model.coproduct(shape[i], rest, keys[-1]).terms.items():
                tk = keys[:-1] + pair
                w = nxt.get(tk, ZERO) + c * v
                if w:
                    nxt[tk] = w
                else:
                    del nxt[tk]
        cur = nxt
    return LinComb.wrap(cur)


def mu_shape_key(model, shape, keys, coef=ONE):
    """Monomial fast path for mu_shape: returns (coef, key) or None."""
    if not shape:
        return coef, model.unit_key()
    kacc = keys[0]
    mask = shape[0]
    for i in range(1, len(shape)):
        c, kacc = model.product_key(mask, shape[i], kacc, keys[i])
        if c != 1:
            coef *= c
        mask |= shape[i]
    return coef, kacc


def delta_shape_key(model, shape, key, coef=ONE):
    """Monomial fast path for delta_shape: returns (coef, key tuple) or None."""
    k = len(shape)
    if k == 0:
        c = model.counit(key)
        return (coef * c, ()) if c else None
    rest = 0
    for b in shape:
        rest |= b
    keys = []
    cur = key
    for i in range(k - 1):
        rest &= ~shape[i]
        img = model.coproduct_key(shape[i], rest, cur)
        if img is None:
            return None
        c, (k1, cur) = img
        if c != 1:
            coef *= c
            if not coef:  # a degenerate braiding parameter can kill the term
                return None
        keys.append(k1)
    keys.append(cur)
    return coef, tuple(keys)


def higher_mu(model, shape, tensor):
    """Public iterated product: TensorElement over `shape` -> LinComb."""
    if tensor.shape != tuple(shape):
        raise ValueError("tensor shape does not match the requested shape")
    return mu_shape(model, tuple(shape), tensor.factors)


def higher_delta(model, shape, lc):
    """Public iterated coproduct: LinComb -> TensorElement over `shape`."""
    shape = tuple(shape)
    return TensorElement(shape, delta_shape(model, shape, lc))


# ---------------------------------------------------------------------------
# dual and Hadamard constructions


class DualModel(SpeciesModel):
    """Dual of a finite-dimensional model: products transpose coproducts and
    vice versa.  Keys are reused; think of them as labeling the dual basis."""

    def __init__(self, primal):
        self.primal = primal
        self.name = f"dual:{primal.name}"
        self.q = primal.q
        self.connected = primal.connected
        self.commutative = primal.cocommutative
        self.cocommutative = primal.commutative
        self._prod_tables = {}
        self._coprod_tables = {}

    def basis_on(self, mask):
        return self.primal.basis_on(mask)

    def relabel(self, perm, key):
        return self.primal.relabel(perm, key)

    def unit_key(self):
        return self.primal.unit_key()

    def counit(self, key):
        # pairing against the primal unit
        return ONE if key == self.primal.unit_key() else ZERO

    def product(self, S, T, x, y):
        table = self._prod_tables.get((S, T))
        if table is None:
            table = {}
            for z in self.primal.basis_on(S | T):
                for pair, c in self.primal.coproduct(S, T, z).terms.items():
                    table.setdefault(pair, []).append((z, c))
            self._prod_tables[S, T] = table
        return LinComb({z: c for z, c in table.get((x, y), ())})

    def coproduct(self, S, T, key):
        table = self._coprod_tables.get((S, T))
        if table is None:
            table = {}
            for x in self.primal.basis_on(S):
                for y in self.primal.basis_on(T):
                    for z, c in self.primal.product(S, T, x, y).terms.items():
                        table.setdefault(z, []).append(((x, y), c))
            self._coprod_tables[S, T] = table
        return LinComb({pair: c for pair, c in table.get(key, ())})


class HadamardModel(SpeciesModel):
    """Componentwise product of two models; keys are pairs of keys."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.name = f"had:{left.name},{right.name}"
        self.q = left.q * right.q
        self.connected = left.connected and right.connected
        self.commutative = left.commutative and right.commutative
        self.cocommutative = left.cocommutative and right.cocommutative
        self.set_theoretic = left.set_theoretic and right.set_theoretic
        self.monomial = left.monomial and right.monomial

    def basis_on(self, mask):
        return tuple(itertools.product(self.left.basis_on(mask), self.right.basis_on(mask)))

    def relabel(self, perm, key):
        return (self.left.relabel(perm, key[0]), self.right.relabel(perm, key[1]))

    def product_key(self, S, T, x, y):
        c1, k1 = self.left.product_key(S, T, x[0], y[0])
        c2, k2 = self.right.product_key(S, T, x[1], y[1])
        return c1 * c2, (k1, k2)

    def coproduct_key(self, S, T, key):
        img1 = self.left.coproduct_key(S, T, key[0])
        if img1 is None:
            return None
        img2 = self.right.coproduct_key(S, T, key[1])
        if img2 is None:
            return None
        c1, (a1, b1) = img1
        c2, (a2, b2) = img2
        return c1 * c2, ((a1, a2), (b1, b2))

    def product(self, S, T, x, y):
        if self.monomial:
            return SpeciesModel.product(self, S, T, x, y)
        out = {}
        for k1, c1 in self.left.product(S, T, x[0], y[0]).terms.items():
            for k2, c2 in self.right.product(S, T, x[1], y[1]).terms.items():
                out[(k1, k2)] = out.get((k1, k2), ZERO) + c1 * c2
        return LinComb.wrap({k: v for k, v in out.items() if v})

    def coproduct(self, S, T, key):
        if self.monomial:
            return SpeciesModel.coproduct(self, S, T, key)
        out = {}
        for (a1, b1), c1 in self.left.coproduct(S, T, key[0]).terms.items():
            for (a2, b2), c2 in self.right.coproduct(S, T, key[1]).terms.items():
                pair = ((a1, a2), (b1, b2))
                out[pair] = out.get(pair, ZERO) + c1 * c2
        return LinComb.wrap({k: v for k, v in out.items() if v})


def dual_model(model):
    return DualModel(model)


def hadamard(left, right):
    return HadamardModel(left, right)


def orbit_count(model, n):
    """Number of orbits of the symmetric group on the degree-n basis."""
    if not model.set_theoretic:
        raise UnsupportedOperation("orbit counting needs a set-theoretic model")
    keys = set(model.basis(n))
    if n <= 1:
        return len(keys)
    gens = []
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    gens.append(tuple(swap))
    gens.append(tuple((i + 1) % n for i in range(n)))
    orbits = 0
    while keys:
        seed = keys.pop()
        orbits += 1
        frontier = [seed]
        while frontier:
            k = frontier.pop()
            for g in gens:
                k2 = model.relabel(g, k)
                if k2 in keys:
                    keys.remove(k2)
                    frontier.append(k2)
    return orbits


# ---------------------------------------------------------------------------
# axiom checks

AXIOMS = (
    "naturality",
    "associativity",
    "unitality",
    "coassociativity",
    "counitality",
    "compatibility",
    "higher-compatibility",
    "commutativity",
    "cocommutativity",
)


class AxiomReport:
    """Outcome of an axiom sweep; failures are data, not exceptions."""

    def __init__(self, model_name, degree):
        self.model_name = model_name
        self.degree = degree
        self.counterexamples = {}

    def record(self, axiom, failures):
        self.counterexamples[axiom] = list(failures)

    def ok(self):
        return all(not v for v in self.counterexamples.values())

    def counts(self):
        return {axiom: len(v) for axiom, v in self.counterexamples.items()}

    def __repr__(self):
        status = "pass" if self.ok() else f"FAIL {self.counts()}"
        return f"<AxiomReport {self.model_name} n={self.degree}: {status}>"


def _pairs(full):
    return tuple((S, full ^ S) for S in submasks(full))


def check_naturality(model, n, nperms=100, seed=7):
    full = full_mask(n)
    bad = []
    if n <= 1:
        return bad
    perms = list(itertools.permutations(range(n)))
    if len(perms) > nperms:
        rng = random.Random(seed)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(nperms)]
    pairs = _pairs(full)
    for perm in perms:
        for S, T in pairs:
            sS = mask_permute(S, perm)
            sT = mask_permute(T, perm)
            bS = model.basis_on(S)
            bT = model.basis_on(T)
            for x in bS:
                sx = model.relabel(perm, x)
                for y in bT:
                    lhs = model.relabel_lc(perm, model.product(S, T, x, y))
                    rhs = model.product(sS, sT, sx, model.relabel(perm, y))
                    if lhs != rhs:
                        bad.append(("product", perm, S, T, x, y))
            for z in model.basis_on(full):
                lhs = model.coproduct(sS, sT, model.relabel(perm, z))
                rhs = LinComb.wrap({
                    (model.relabel(perm, a), model.relabel(perm, b)): c
                    for (a, b), c in model.coproduct(S, T, z).terms.items()})
                if lhs != rhs:
                    bad.append(("coproduct", perm, S, T, z))
    return bad


def check_associativity(model, n):
    full = full_mask(n)
    bad = []
    for R in submasks(full):
        for S in submasks(full ^ R):
            T = full ^ R ^ S
            bR, bS, bT = model.basis_on(R), model.basis_on(S), model.basis_on(T)
            for x in bR:
                for y in bS:
                    xy = model.product(R, S, x, y)
                    for z in bT:
                        lhs = lc_sum(model.product(R | S, T, k, z).scale(c)
                                     for k, c in xy.terms.items())
                        yz = model.product(S, T, y, z)
                        rhs = lc_sum(model.product(R, S | T, x, k).scale(c)
                                     for k, c in yz.terms.items())
                        if lhs != rhs:
                            bad.append((R, S, T, x, y, z))
    return bad


def check_unitality(model, n):
    full = full_mask(n)
    bad = []
    e = model.unit_key()
    for x in model.basis_on(full):
        if model.product(0, full, e, x) != LinComb.term(x):
            bad.append(("left", x))
        if model.product(full, 0, x, e) != LinComb.term(x):
            bad.append(("right", x))
    return bad


def check_coassociativity(model, n):
    full = full_mask(n)
    bad = []
    for R in submasks(full):
        for S in submasks(full ^ R):
            T = full ^ R ^ S
            for z in model.basis_on(full):
                lhs = {}
                for (a, bc), c in model.coproduct(R, S | T, z).terms.items():
                    for (b, d), c2 in model.coproduct(S, T, bc).terms.items():
                        k = (a, b, d)
                        lhs[k] = lhs.get(k, ZERO) + c * c2
                rhs = {}
                for (ab, d), c in model.coproduct(R | S, T, z).terms.items():
                    for (a, b), c2 in model.coproduct(R, S, ab).terms.items():
                        k = (a, b, d)
                        rhs[k] = rhs.get(k, ZERO) + c * c2
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    bad.append((R, S, T, z))
    return bad


def check_counitality(model, n):
    full = full_mask(n)
    bad = []
    for x in model.basis_on(full):
        left = lc_sum(LinComb.term(b, c * model.counit(a))
                      for (a, b), c in model.coproduct(0, full, x).terms.items())
        right = lc_sum(LinComb.term(a, c * model.counit(b))
                       for (a, b), c in model.coproduct(full, 0, x).terms.items())
        if left != LinComb.term(x):
            bad.append(("left", x))
        if right != LinComb.term(x):
            bad.append(("right", x))
    return bad


def check_compatibility(model, n):
    """The square linking one product to one coproduct through the braiding."""
    full = full_mask(n)
    q = model.q
    bad = []
    pairs = _pairs(full)
    for S1, S2 in pairs:
        b1 = model.basis_on(S1)
        b2 = model.basis_on(S2)
        for T1, T2 in pairs:
            A, B = S1 & T1, S1 & T2
            C, D = S2 & T1, S2 & T2
            for x in b1:
                dx = model.coproduct(A, B, x)
                for y in b2:
                    prod = model.product(S1, S2, x, y)
                    lhs = {}
                    for k, c in prod.terms.items():
                        for pair, c2 in model.coproduct(T1, T2, k).terms.items():
                            w = lhs.get(pair, ZERO) + c * c2
                            if w:
                                lhs[pair] = w
                            else:
                                del lhs[pair]
                    dy = model.coproduct(C, D, y)
                    rhs = {}
                    for (x1, x2), c in dx.terms.items():
                        for (y1, y2), c2 in dy.terms.items():
                            braid = c * c2 * q ** (popcount(B) * popcount(C)) if q != 1 else c * c2
                            if not braid:
                                continue
                            for kl, cl in model.product(A, C, x1, y1).terms.items():
                                for kr, cr in model.product(B, D, x2, y2).terms.items():
                                    w = rhs.get((kl, kr), ZERO) + braid * cl * cr
                                    if w:
                                        rhs[(kl, kr)] = w
                                    else:
                                        del rhs[(kl, kr)]
                    if lhs != rhs:
                        bad.append((S1, S2, T1, T2, x, y))
    return bad


def check_degree_zero(model):
    """Unit/counit coherence on the degree-0 component."""
    bad = []
    e = model.unit_key()
    if model.counit(e) != 1:
        bad.append(("counit-unit",))
    expected = LinComb.term((e, e))
    if model.coproduct(0, 0, e) != expected:
        bad.append(("coproduct-unit",))
    for x in model.basis_on(0):
        for y in model.basis_on(0):
            lhs = sum((c * model.counit(k) for k, c in model.product(0, 0, x, y).terms.items()), ZERO)
            if lhs != model.counit(x) * model.counit(y):
                bad.append(("counit-product", x, y))
    return bad


def check_commutativity(model, n):
    full = full_mask(n)
    q = model.q
    bad = []
    for S, T in _pairs(full):
        f = q ** (popcount(S) * popcount(T))
        for x in model.basis_on(S):
            for y in model.basis_on(T):
                if model.product(S, T, x, y) != model.product(T, S, y, x).scale(f):
                    bad.append((S, T, x, y))
    return bad


def check_cocommutativity(model, n):
    full = full_mask(n)
    q = model.q
    bad = []
    for S, T in _pairs(full):
        f = q ** (popcount(S) * popcount(T))
        for z in model.basis_on(full):
            swapped = LinComb.wrap({(b, a): c * f
                                    for (a, b), c in model.coproduct(S, T, z).terms.items()})
            if swapped != model.coproduct(T, S, z):
                bad.append((S, T, z))
    return bad


def _shape_slices(shapes):
    """Start offsets of consecutive groups with the given lengths."""
    out = []
    pos = 0
    for s in shapes:
        out.append((pos, pos + len(s)))
        pos += len(s)
    return out


def _comp_split(F, G):
    _, _, perm = tits_perm(F, G)
    return ([comp_restrict(G, b) for b in F], [comp_restrict(F, b) for b in G], perm)


def _dec_split(F, G):
    p, q = len(F), len(G)
    perm = tuple(j * p + i for i in range(p) for j in range(q))
    return ([tuple(b & c for c in G) for b in F], [tuple(b & c for b in F) for c in G], perm)


def _higher_compatibility_sweep(model, shapes, split):
    """For every pair F, G of `shapes`: coproduct along G after product along
    F equals product along the G-side splitting of GF, after the braiding,
    after coproduct along the F-side splitting of FG.  `split(F, G)` returns
    those splittings and the block permutation taking FG to GF."""
    bad = []
    q = model.q
    fast = model.monomial
    for F in shapes:
        tb = tensor_basis(model, F)
        lhs_in = [mu_shape_key(model, F, x) if fast else mu_shape(model, F, LinComb.term(x))
                  for x in tb]
        for G in shapes:
            delta_shapes, mu_shapes, perm = split(F, G)
            FG = sum(delta_shapes, ())
            braid = q ** dist(FG, sum(mu_shapes, ())) if q != 1 else ONE
            slices = _shape_slices(mu_shapes)
            for x, lhs_val in zip(tb, lhs_in):
                if fast:
                    c0, ykey = lhs_val
                    lhs_img = delta_shape_key(model, G, ykey, c0)
                    lhs = {lhs_img[1]: lhs_img[0]} if lhs_img else {}
                    rhs = _rhs_fast(model, x, delta_shapes, perm, braid, mu_shapes, slices, len(FG))
                else:
                    lhs = delta_shape(model, G, lhs_val).terms
                    rhs = _rhs_generic(model, x, delta_shapes, perm, braid, mu_shapes, slices, len(FG))
                if lhs != rhs:
                    bad.append((F, G, x))
    return bad


def check_higher_compatibility(model, n):
    """The higher-compatibility axiom over all pairs of compositions."""
    return _higher_compatibility_sweep(model, compositions_of(full_mask(n)), _comp_split)


def _rhs_fast(model, x, delta_shapes, perm, braid, mu_shapes, slices, width):
    coef = braid
    flat = [None] * width
    pos = 0
    for xi, shape in zip(x, delta_shapes):
        img = delta_shape_key(model, shape, xi)
        if img is None:
            return {}
        c, keys = img
        if c != 1:
            coef *= c
        for k in keys:
            flat[perm[pos]] = k
            pos += 1
    out = []
    for (a, b), shape in zip(slices, mu_shapes):
        c, k = mu_shape_key(model, shape, flat[a:b])
        if c != 1:
            coef *= c
        out.append(k)
    return {tuple(out): coef} if coef else {}


def _rhs_generic(model, x, delta_shapes, perm, braid, mu_shapes, slices, width):
    if not braid:
        return {}
    partial = [((), ONE)]
    for xi, shape in zip(x, delta_shapes):
        img = delta_shape(model, shape, LinComb.term(xi))
        if not img:
            return {}
        partial = [(keys + k2, c * c2)
                   for keys, c in partial for k2, c2 in img.terms.items()]
    out = {}
    for keys, c in partial:
        flat = [None] * width
        for pos, k in enumerate(keys):
            flat[perm[pos]] = k
        cur = {(): c * braid}
        for (a, b), shape in zip(slices, mu_shapes):
            img = mu_shape(model, shape, LinComb.term(tuple(flat[a:b])))
            nxt = {}
            for prefix, cp in cur.items():
                for k2, c2 in img.terms.items():
                    w = nxt.get(prefix + (k2,), ZERO) + cp * c2
                    if w:
                        nxt[prefix + (k2,)] = w
            cur = nxt
        for k2, c2 in cur.items():
            w = out.get(k2, ZERO) + c2
            if w:
                out[k2] = w
            else:
                del out[k2]
    return out


def check_higher_compatibility_dec(model, n, max_blocks):
    """Decomposition-indexed variant for non-connected models: F and G range
    over decompositions with at most `max_blocks` blocks, with the canonical
    row/column splittings of FG and GF."""
    return _higher_compatibility_sweep(model, decompositions_of(full_mask(n), max_blocks),
                                       _dec_split)


def check_axiom(model, axiom, n, dec_blocks=None):
    """Run a single named axiom check at degree n; returns counterexamples."""
    if axiom == "naturality":
        return check_naturality(model, n)
    if axiom == "associativity":
        return check_associativity(model, n)
    if axiom == "unitality":
        return check_unitality(model, n)
    if axiom == "coassociativity":
        return check_coassociativity(model, n)
    if axiom == "counitality":
        return check_counitality(model, n)
    if axiom == "compatibility":
        return check_compatibility(model, n)
    if axiom == "higher-compatibility":
        if model.connected:
            return check_higher_compatibility(model, n)
        return check_higher_compatibility_dec(model, n, dec_blocks or 3)
    if axiom == "commutativity":
        return check_commutativity(model, n)
    if axiom == "cocommutativity":
        return check_cocommutativity(model, n)
    raise ValueError(f"unknown axiom {axiom!r}")


def run_axiom_suite(model, nmax, dec_blocks=None):
    """All applicable axiom checks for degrees 0..nmax; one report per degree."""
    reports = []
    for n in range(nmax + 1):
        rep = AxiomReport(model.name, n)
        if n == 0:
            rep.record("degree-zero", check_degree_zero(model))
        axioms = ["naturality", "associativity", "unitality",
                  "coassociativity", "counitality", "compatibility",
                  "higher-compatibility"]
        if model.commutative:
            axioms.append("commutativity")
        if model.cocommutative:
            axioms.append("cocommutativity")
        for axiom in axioms:
            rep.record(axiom, check_axiom(model, axiom, n, dec_blocks=dec_blocks))
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# species endomorphism helpers (identity, convolution, relabel transport)


def component_map(model, linmap, mask):
    """Transport a degree-m endomorphism to the component on `mask` by
    naturality, via the increasing relabeling bijection."""
    labels = mask_labels(mask)
    m = len(labels)
    if linmap.domain != model.basis(m):
        raise ValueError("expected an endomorphism on the standard component")
    if mask == full_mask(m):
        return linmap
    perm = labels  # old label i -> labels[i]
    basis = model.basis_on(mask)
    # relabel down, apply, relabel up
    down = [0] * (max(labels) + 1 if labels else 0)
    for i, lab in enumerate(labels):
        down[lab] = i
    cols = {}
    for k in basis:
        k0 = model.relabel(tuple(down), k)
        cols[k] = model.relabel_lc(perm, linmap(k0))
    return LinMap(basis, basis, cols)


def convolve(model, f_by_degree, g_by_degree, n):
    """Convolution product of two endomorphism families at degree n.

    Each argument maps degree m to a LinMap on basis(m) for 0 <= m <= n.
    """
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
                gb = gT(b).terms
                for ka, ca in fS(a).terms.items():
                    for kb, cb in gb.items():
                        cab = c * ca * cb
                        for k2, v in model.product(S, T, ka, kb).terms.items():
                            w = out.get(k2, ZERO) + cab * v
                            if w:
                                out[k2] = w
                            else:
                                del out[k2]
    return LinMap(basis, basis, {k: LinComb.wrap(out) for k, out in cols.items()})


def identity_family(model, nmax):
    return {m: LinMap.identity(model.basis(m)) for m in range(nmax + 1)}


def unit_family(model, nmax):
    """The convolution unit: unit times counit, zero in positive degrees."""
    out = {}
    for m in range(nmax + 1):
        basis = model.basis(m)
        if m == 0:
            e = model.unit_key()
            out[m] = LinMap(basis, basis,
                            {k: LinComb.term(e, model.counit(k)) for k in basis})
        else:
            out[m] = LinMap.zero(basis, basis)
    return out
