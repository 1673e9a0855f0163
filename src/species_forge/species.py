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
LinCombs.  `SpeciesModel.structure_maps()` picks between the two for every
reader; only the bimonoid-square sweep (`mu_shape_key`, `delta_shape_key`,
`_rhs_fast`) and `convolve` keep a monomial fork, measured to pay.
"""

import functools
import itertools
from math import prod

from .exactlin import ONE, ZERO, LinComb, LinMap, add_part, integral, lc_from_parts, lc_sum, tensor
from .kernels import comp_restrict, dist, mask_permute, popcount, tits_perm
from .setcomb import (
    compositions_of,
    decompositions_exact,
    decompositions_of,
    full_mask,
    mask_labels,
    submasks,
)


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
    family = None
    max_blocks = 3  # block bound of the decomposition sweep (non-connected models)

    # -- basis ------------------------------------------------------------

    def basis_on(self, mask):
        raise NotImplementedError

    def basis(self, n):
        return self.basis_on(full_mask(n))

    def dim(self, n):
        return len(self.basis(n))

    def unit(self):
        """The unit, a LinComb on the degree-0 keys: the product along the
        empty decomposition.  A connected model has one degree-0 key."""
        return LinComb.term(self.basis_on(0)[0])

    def counit(self, key):
        """Counit on degree-0 keys: the coproduct along the empty
        decomposition.  On a connected model it is the unit transposed."""
        return self.unit()[key]

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

    def structure_maps(self):
        """The coproduct and the product as functions to (coefficient,
        image) pairs: the `*_key` maps on a monomial model (a coefficient may
        be 0 where a braiding parameter is), else the LinComb maps' terms."""
        if self.monomial:
            cop, prod = self.coproduct_key, self.product_key
            return ((lambda S, T, key: () if (img := cop(S, T, key)) is None else (img,)),
                    (lambda S, T, x, y: (prod(S, T, x, y),)))
        return ((lambda S, T, key: [(c, p) for p, c in self.coproduct(S, T, key).terms.items()]),
                (lambda S, T, x, y: [(c, k) for k, c in self.product(S, T, x, y).terms.items()]))

    # -- conveniences -------------------------------------------------------

    def relabel_lc(self, perm, lc):
        return lc.map_keys(lambda k: self.relabel(perm, k))

    def __repr__(self):
        return f"<model {self.name}>"


def tensor_basis(model, shape):
    """Ordered basis of the tensor space over `shape`: tuples of keys."""
    return tuple(itertools.product(*[model.basis_on(b) for b in shape]))


# ---------------------------------------------------------------------------
# higher product and coproduct maps (left-nested iteration)


def mu_shape(model, shape, tlc):
    """Iterated product along `shape` applied to a LinComb over key tuples."""
    if not shape:
        return model.unit().scale(tlc[()])
    _, products = model.structure_maps()
    out = {}
    for keys, c0 in tlc.terms.items():
        cur = {keys[0]: c0}
        mask = shape[0]
        for i in range(1, len(shape)):
            nxt = {}
            for kacc, cacc in cur.items():
                for v2, k2 in products(mask, shape[i], kacc, keys[i]):
                    nxt[k2] = nxt.get(k2, ZERO) + cacc * v2
            mask |= shape[i]
            cur = nxt
        for k2, v2 in cur.items():
            out[k2] = out.get(k2, ZERO) + v2
    return LinComb.wrap({k: v for k, v in out.items() if v})


def delta_shape(model, shape, lc):
    """Iterated coproduct along `shape`; result is a LinComb over key tuples."""
    if not shape:
        return LinComb.term((), sum((v * model.counit(k) for k, v in lc.terms.items()), ZERO))
    coproducts, _ = model.structure_maps()
    rest = 0
    for b in shape:
        rest |= b
    cur = {(k,): v for k, v in lc.terms.items()}
    for i in range(len(shape) - 1):
        rest &= ~shape[i]
        nxt = {}
        for keys, c in cur.items():
            for v, pair in coproducts(shape[i], rest, keys[-1]):
                tk = keys[:-1] + pair
                nxt[tk] = nxt.get(tk, ZERO) + c * v
        cur = nxt
    return LinComb.wrap({k: v for k, v in cur.items() if v})


def mu_shape_key(model, shape, keys, coef=ONE):
    """Monomial fast path for mu_shape: returns (coef, key).  The unit of a
    monomial model is one key."""
    if not shape:
        [(key, c)] = model.unit().terms.items()
        return coef * c, key
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


# the public names of the iterated maps, on LinCombs over key tuples
higher_mu, higher_delta = mu_shape, delta_shape


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

    def dim(self, n):
        return self.primal.dim(n)

    def relabel(self, perm, key):
        return self.primal.relabel(perm, key)

    def unit(self):
        """The primal counit transposed: the sum of counit(k) k*."""
        return LinComb({k: self.primal.counit(k) for k in self.primal.basis_on(0)})

    def counit(self, key):
        """The primal unit transposed."""
        return self.primal.unit()[key]

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

    def dim(self, n):
        return self.left.dim(n) * self.right.dim(n)

    def relabel(self, perm, key):
        return (self.left.relabel(perm, key[0]), self.right.relabel(perm, key[1]))

    def unit(self):
        return tensor(self.left.unit(), self.right.unit())

    def counit(self, key):
        return self.left.counit(key[0]) * self.right.counit(key[1])

    def product_key(self, S, T, x, y):
        c1, k1 = self.left.product_key(S, T, x[0], y[0])
        c2, k2 = self.right.product_key(S, T, x[1], y[1])
        # ONE itself when one factor is ONE, for the `c is ONE` fast paths
        return (c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2), (k1, k2)

    def coproduct_key(self, S, T, key):
        img1 = self.left.coproduct_key(S, T, key[0])
        if img1 is None:
            return None
        img2 = self.right.coproduct_key(S, T, key[1])
        if img2 is None:
            return None
        c1, (a1, b1) = img1
        c2, (a2, b2) = img2
        return (c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2), ((a1, a2), (b1, b2))

    def product(self, S, T, x, y):
        return tensor(self.left.product(S, T, x[0], y[0]),
                      self.right.product(S, T, x[1], y[1]))

    def coproduct(self, S, T, key):
        pairs = tensor(self.left.coproduct(S, T, key[0]), self.right.coproduct(S, T, key[1]))
        return LinComb.wrap({((a1, a2), (b1, b2)): c
                             for ((a1, b1), (a2, b2)), c in pairs.terms.items()})


def dual_model(model):
    return DualModel(model)


def hadamard(left, right):
    return HadamardModel(left, right)


def _block_generators(mask, n):
    """The generators of the permutations of the labels in `mask`, as
    permutations of [n] that fix every other label: the swap of the two
    lowest labels and, on three labels or more, the cycle over all of them.
    Every check on generators of a symmetric group takes them from here."""
    labels = mask_labels(mask)
    m = len(labels)
    if m < 2:
        return []
    swap = list(range(n))
    swap[labels[0]], swap[labels[1]] = labels[1], labels[0]
    if m == 2:
        return [tuple(swap)]
    cycle = list(range(n))
    for j in range(m):
        cycle[labels[j]] = labels[(j + 1) % m]
    return [tuple(swap), tuple(cycle)]


def orbit_representatives(model, mask, n):
    """One key per orbit on basis_on(mask) of the permutations of [n] that
    fix every label outside `mask`, each the first of its orbit in basis
    order, found by a search along the swap and the cycle of
    _block_generators, the generators of check_relabel_action.  Images
    outside the basis are not followed; the orbits are exact when
    relabeling is an action that keeps to the basis, as that check
    checks."""
    gens = _block_generators(mask, n)
    basis = model.basis_on(mask)
    unseen = set(basis)
    reps = []
    for rep in basis:
        if not unseen:
            break
        if rep not in unseen:
            continue
        unseen.remove(rep)
        reps.append(rep)
        frontier = [rep]
        while frontier:
            k = frontier.pop()
            for g in gens:
                k2 = model.relabel(g, k)
                if k2 in unseen:
                    unseen.remove(k2)
                    frontier.append(k2)
    return reps


def orbit_count(model, n):
    """Number of orbits of the symmetric group on the degree-n basis."""
    if not model.set_theoretic:
        raise UnsupportedOperation("orbit counting needs a set-theoretic model")
    return len(orbit_representatives(model, full_mask(n), n))


# ---------------------------------------------------------------------------
# axiom checks

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


def _triples(full):
    return [(R, S, full ^ R ^ S) for R in submasks(full) for S in submasks(full ^ R)]


def check_relabel_action(model, n):
    """Relabeling is an action of S_n on the keys over every subset of [n]:
    the identity fixes each key, and relabel(s o t) = relabel(s) relabel(t)
    for every generator s of S_n from _block_generators and every t in S_n,
    where (s o t)[i] = s[t[i]].  Each permutation is a word in the
    generators, so this is functoriality for all of S_n.

    Two more checks make it the action of a species.  Each generator s
    sends basis_on(S) into basis_on(sS).  And the generators of the
    permutations of the labels outside S fix every key over S; those
    permutations are the ones that fix S pointwise, so relabeling a key
    over S by p depends only on p restricted to S.  These failures are
    reported as ("relabel", s, S, key), with the mask S."""
    full = full_mask(n)
    perms = list(itertools.permutations(range(n)))  # the identity first
    index = {p: i for i, p in enumerate(perms)}
    gens = _block_generators(full, n)
    composites = [[(s, index[tuple(s[i] for i in t)]) for s in gens] for t in perms]
    bad = []
    for S in submasks(full):
        targets = [(s, set(model.basis_on(mask_permute(S, s)))) for s in gens]
        fixers = _block_generators(full ^ S, n)
        for k in model.basis_on(S):
            images = [model.relabel(t, k) for t in perms]
            if images[0] != k:
                bad.append(("relabel", perms[0], perms[0], k))
            for t, tk, steps in zip(perms, images, composites):
                for s, st in steps:
                    if images[st] != model.relabel(s, tk):
                        bad.append(("relabel", s, t, k))
            for s, target in targets:
                if model.relabel(s, k) not in target:
                    bad.append(("relabel", s, S, k))
            for f in fixers:
                if model.relabel(f, k) != k:
                    bad.append(("relabel", f, S, k))
    return bad


def check_naturality(model, n):
    """Product and coproduct commute with relabeling, for every permutation.

    The square of p at a split (S, T) of a subset of [n] is the pair of
    identities p mu_(S, T)(x, y) = mu_(pS, pT)(px, py), for the keys x over
    S and y over T, and (p (x) p) Delta_(S, T)(z) = Delta_(pS, pT)(pz), for
    the keys z over S | T.  The iterated maps along a shape are built from
    the products and coproducts on such splits, so once every square holds
    they are natural as well.

    The action check runs first; its failures are ("relabel", ...) entries.
    Then the squares are proved from one split per S_n-orbit of splits
    (_squares_by_transversal).  The orbit of (S, T) is named by (a, b) =
    (|S|, |T|), and its representative is r0 = (S0, T0) with S0 = [0, a)
    and T0 = [a, a + b).  The transport p_(S, T) sends S0, T0 and R0 = [n]
    - S0 - T0 onto S, T and [n] - S - T, each in increasing order.  On the
    tables of mu and Delta at r0, whose images must be basis keys (over
    S0 | T0, and pairs over S0 and T0), two checks are made:

    - transport: the square of p_(S, T) at r0 for every other split (S, T)
      of the orbit, one product per pair (x, y) and one coproduct per key z;
    - stabiliser: the square at r0 of each generator of the permutations of
      S0 and of those of T0 (_block_generators), read off the tables.

    The proof that this gives every square.  By the action check,
    relabeling is an action on the keys over every subset, mask_permute is
    one on the masks, and p sends the keys over S onto those over pS.  So
    squares compose, the squares of q2 at (S, T) and of q1 at q2(S, T)
    giving that of q1 q2 at (S, T), and the square of p at (S, T) gives
    that of p^-1 at p(S, T).  The stabiliser H of r0 permutes each of S0,
    T0 and R0 within itself.  The permutations of R0 fix S0 and T0
    pointwise, so by the locality part of check_relabel_action they fix
    every key over S0, T0 and S0 | T0, the tables' images included, and
    their squares at r0 hold.  With
    the generators of S0 and of T0 they generate H, so the square of every
    h in H at r0 holds.  Now let q be in S_n, (S, T) = p r0 with p =
    p_(S, T), and p' = p_(q(S, T)).  Then h = p'^-1 q p fixes r0, so h is
    in H, and q = p' h p^-1: the squares of p^-1 at (S, T), of h at r0 and
    of p' at r0 compose to the square of q at (S, T).

    When the action check or the proof fails, the squares of the
    generators of S_n are checked at every split of every subset
    (_generator_squares), so the list is always that sweep's, in its
    order."""
    bad = check_relabel_action(model, n)
    if not bad and _squares_by_transversal(model, n):
        return []
    return bad + _generator_squares(model, n)


def _squares_by_transversal(model, n):
    """Whether the transport and stabiliser checks of check_naturality hold
    at degree n; False at the first one that fails."""
    full = full_mask(n)
    tables = {}  # (a, b) -> _representative_tables at ([0, a), [a, a + b))
    for U in submasks(full):
        for S, T in _pairs(U):
            a, b = popcount(S), popcount(T)
            S0 = full_mask(a)
            T0 = full_mask(a + b) ^ S0
            rep = (S, T) == (S0, T0)
            if rep:
                perms = _block_generators(S0, n) + _block_generators(T0, n)
            else:
                perms = [mask_labels(S) + mask_labels(T) + mask_labels(full ^ U)]
            if not perms:
                continue
            if (a, b) not in tables:
                tables[a, b] = _representative_tables(model, S0, T0)
            table = tables[a, b]
            if table is None:
                return False
            if rep:
                mu0, delta0 = table[3:]
                mu, delta = (lambda x, y: mu0.get((x, y))), delta0.get
            else:
                mu, delta = ((lambda x, y: model.product(S, T, x, y).terms),
                             (lambda z: model.coproduct(S, T, z).terms))
            if not all(_carries(model, table, p, mu, delta) for p in perms):
                return False
    return True


def _representative_tables(model, S, T):
    """The keys over S, T and S | T, and the terms of every product and
    coproduct on the split (S, T); None when a term is not a basis key."""
    bS, bT, bU = model.basis_on(S), model.basis_on(T), model.basis_on(S | T)
    mu = {(x, y): model.product(S, T, x, y).terms for x in bS for y in bT}
    delta = {z: model.coproduct(S, T, z).terms for z in bU}
    keys_S, keys_T, keys_U = set(bS), set(bT), set(bU)
    if not all(keys_U.issuperset(terms) for terms in mu.values()):
        return None
    if not all(x in keys_S and y in keys_T for terms in delta.values() for x, y in terms):
        return None
    return bS, bT, bU, mu, delta


def _carries(model, table, p, mu, delta):
    """Whether relabeling by p carries the tables of a representative onto
    mu(x, y) and delta(z), the terms of the maps at its image under p."""
    bS, bT, bU, mu0, delta0 = table
    pS = {x: model.relabel(p, x) for x in bS}
    pT = {y: model.relabel(p, y) for y in bT}
    pU = {z: model.relabel(p, z) for z in bU}
    return (all(mu(pS[x], pT[y]) == {pU[k]: c for k, c in terms.items()}
                for (x, y), terms in mu0.items())
            and all(delta(pU[z]) == {(pS[x], pT[y]): c for (x, y), c in terms.items()}
                    for z, terms in delta0.items()))


def _generator_squares(model, n):
    """The squares of check_naturality for the generators of S_n from
    _block_generators, the swap of 0 and 1 and the cycle over [n], at every
    split (S, T) of every subset of [n]: the failures of
    ("product", perm, S, T, x, y) and ("coproduct", perm, S, T, z).  Each p
    is a word in the generators, so once relabeling is an action these
    squares compose to every square; check_naturality reports this sweep
    when its own proof does not go through, and the tests take it as the
    oracle."""
    bad = []
    gens = _block_generators(full_mask(n), n)
    for U in submasks(full_mask(n)):
        bU = model.basis_on(U)
        for perm in gens:
            for S, T in _pairs(U):
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
                for z in bU:
                    lhs = model.coproduct(sS, sT, model.relabel(perm, z))
                    rhs = LinComb.wrap({
                        (model.relabel(perm, a), model.relabel(perm, b)): c
                        for (a, b), c in model.coproduct(S, T, z).terms.items()})
                    if lhs != rhs:
                        bad.append(("coproduct", perm, S, T, z))
    return bad


def check_associativity(model, n):
    return check_axiom(model, "associativity", n)


def check_unitality(model, n):
    """The product with the unit on either side is the identity."""
    return check_axiom(model, "unitality", n)


def check_coassociativity(model, n):
    return check_axiom(model, "coassociativity", n)


def check_counitality(model, n):
    """The coproduct followed by the counit on either side is the identity."""
    return check_axiom(model, "counitality", n)


def check_compatibility(model, n):
    """The square linking one product to one coproduct through the braiding:
    higher compatibility on the two-block decompositions.  For F = (S1, S2)
    and G = (T1, T2) the splitting of FG is (A, B | C, D) with A = S1 & T1,
    and the braiding is q^dist((A, B, C, D), (A, C, B, D)) = q^(|B||C|)."""
    return check_axiom(model, "compatibility", n)


def check_degree_zero(model):
    """Unit/counit coherence on the degree-0 component: the counit of the
    unit is 1, the unit is group-like, and the counit is multiplicative."""
    bad = []
    unit = model.unit()
    if delta_shape(model, (), unit) != tensor():
        bad.append(("counit-unit",))
    if delta_shape(model, (0, 0), unit) != tensor(unit, unit):
        bad.append(("coproduct-unit",))
    for x, y in tensor_basis(model, (0, 0)):
        lhs = delta_shape(model, (), mu_shape(model, (0, 0), LinComb.term((x, y))))
        if lhs != LinComb.term((), model.counit(x) * model.counit(y)):
            bad.append(("counit-product", x, y))
    return bad


def check_commutativity(model, n):
    return check_axiom(model, "commutativity", n)


def check_cocommutativity(model, n):
    return check_axiom(model, "cocommutativity", n)


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


def _is_interval_shape(F):
    """True iff the blocks of F are consecutive intervals, in order."""
    ends = itertools.accumulate(map(popcount, F))
    return all(b == full_mask(end) ^ full_mask(end - popcount(b)) for b, end in zip(F, ends))


def _sweep(model, n, sweep, natural):
    """Counterexamples of an axiom whose instances are indexed by a shape F
    and a key tuple x in the tensor basis over F.  sweep(model, [n]) gives
    the shapes F and check, where check(model, F, keys) yields the failures
    of F for every x in keys, and for whatever else the axiom ranges over (the
    shapes G of the bimonoid square, the triples or pairs of the
    single-shape axioms), in the order of the full sweep.

    When the model is natural at degree n, one x per orbit of the stabilizer
    of each F decides them all.  The proof: check_naturality gives
    naturality of product and coproduct on every split of every subset of
    [n], for every permutation in S_n (from one split per orbit, or from the
    squares of the generators), and so of the iterated maps along every
    shape.  So for every p in S_n, the two sides of the image of an instance
    under p are p applied to its two sides, and relabeling is invertible: an
    instance fails iff its image under p does.  p also sends what a check
    ranges over for F (all shapes G, all triples or pairs) onto what it
    ranges over for pF.  So F ranges over the shapes whose blocks are
    consecutive intervals: every shape is pF for one of them.  The
    stabilizer of such an F is the product of the permutation groups of its
    blocks, and by the locality part of check_relabel_action it acts on x
    blockwise, so x ranges over products of per-block orbit representatives
    (orbit_representatives).  A single-shape axiom, F = ([n],), reduces to
    one key per S_n-orbit of basis(n); for unitality and counitality p fixes
    the unit and the counit, as the generators fix every degree-0 key.

    `natural` is the verdict check_naturality(model, n) == [].  When it is
    false, or when a representative fails, every F and every x is checked,
    so the counterexamples are always those of the full sweep, in its
    order."""
    shapes, check = sweep(model, full_mask(n))
    if natural:
        reps = functools.cache(lambda b: orbit_representatives(model, b, n))
        for F in filter(_is_interval_shape, shapes):
            if next(check(model, F, tuple(itertools.product(*map(reps, F)))), None) is not None:
                break
        else:
            return []
    return [failure for F in shapes for failure in check(model, F, tensor_basis(model, F))]


def _associativity(model, F, keys):
    R, S, T = F
    for x, y, z in keys:
        lhs = lc_sum(model.product(R | S, T, k, z).scale(c)
                     for k, c in model.product(R, S, x, y).terms.items())
        rhs = lc_sum(model.product(R, S | T, x, k).scale(c)
                     for k, c in model.product(S, T, y, z).terms.items())
        if lhs != rhs:
            yield R, S, T, x, y, z


def _unitality(model, F, keys):
    (full,) = F
    unit = model.unit()
    for (key,) in keys:
        x = LinComb.term(key)
        if mu_shape(model, (0, full), tensor(unit, x)) != x:
            yield "left", key
        if mu_shape(model, (full, 0), tensor(x, unit)) != x:
            yield "right", key


def _coassociativity(model, F, keys):
    (full,) = F
    for R, S, T in _triples(full):
        for (z,) in keys:
            lhs = delta_shape(model, (R, S, T), LinComb.term(z)).terms
            rhs = {}
            for (ab, d), c in model.coproduct(R | S, T, z).terms.items():
                for (a, b), c2 in model.coproduct(R, S, ab).terms.items():
                    k = (a, b, d)
                    rhs[k] = rhs.get(k, ZERO) + c * c2
            if lhs != {k: v for k, v in rhs.items() if v}:
                yield R, S, T, z


def _counitality(model, F, keys):
    (full,) = F
    for (key,) in keys:
        x = LinComb.term(key)
        left = lc_sum(LinComb.term(b, c * model.counit(a))
                      for (a, b), c in model.coproduct(0, full, key).terms.items())
        right = lc_sum(LinComb.term(a, c * model.counit(b))
                       for (a, b), c in model.coproduct(full, 0, key).terms.items())
        if left != x:
            yield "left", key
        if right != x:
            yield "right", key


def _commutativity(model, F, keys):
    S, T = F
    f = model.q ** (popcount(S) * popcount(T))
    for x, y in keys:
        if model.product(S, T, x, y) != model.product(T, S, y, x).scale(f):
            yield S, T, x, y


def _cocommutativity(model, F, keys):
    (full,) = F
    for S, T in _pairs(full):
        f = model.q ** (popcount(S) * popcount(T))
        for (z,) in keys:
            swapped = LinComb.wrap({(b, a): c * f
                                    for (a, b), c in model.coproduct(S, T, z).terms.items()})
            if swapped != model.coproduct(T, S, z):
                yield S, T, z


def _compatibility(model, F, keys, shapes, split):
    """For every G of `shapes`: coproduct along G after product along F
    equals product along the G-side splitting of GF, after the braiding,
    after coproduct along the F-side splitting of FG.  `split(F, G)` returns
    those splittings and the block permutation taking FG to GF.  Relabeling
    by p keeps the block permutation (it depends only on which intersections
    are empty) and the braiding exponent dist (it depends only on the sizes
    of the intersections), as _sweep needs."""
    q = model.q
    fast = model.monomial
    lhs_in = [mu_shape_key(model, F, x) if fast else mu_shape(model, F, LinComb.term(x))
              for x in keys]
    for G in shapes:
        delta_shapes, mu_shapes, perm = split(F, G)
        FG = sum(delta_shapes, ())
        braid = q ** dist(FG, sum(mu_shapes, ())) if q != 1 else ONE
        slices = _shape_slices(mu_shapes)
        for x, lhs_val in zip(keys, lhs_in):
            if fast:
                c0, ykey = lhs_val
                lhs_img = delta_shape_key(model, G, ykey, c0)
                lhs = {lhs_img[1]: lhs_img[0]} if lhs_img else {}
                rhs = _rhs_fast(model, x, delta_shapes, perm, braid, mu_shapes, slices, len(FG))
            else:
                lhs = delta_shape(model, G, lhs_val).terms
                rhs = _rhs_generic(model, x, delta_shapes, perm, braid, mu_shapes, slices, len(FG))
            if lhs != rhs:
                yield F, G, x


def _squares(shapes, split):
    return shapes, functools.partial(_compatibility, shapes=shapes, split=split)


def _composition_squares(model, full):
    return _squares(compositions_of(full), _comp_split)


def _decomposition_squares(model, full):
    return _squares(decompositions_of(full, model.max_blocks), _dec_split)


# The axiom suite, in the order its reports record it: degree-zero and
# naturality, then the eight S_n-equivariant axioms, each with its
# sweep(model, [n]), the shapes F and the check of one shape that _sweep
# runs.  Higher compatibility runs over the compositions of a connected
# model, else over the decompositions with at most model.max_blocks blocks.
_SWEEPS = {
    "associativity": lambda model, full: (_triples(full), _associativity),
    "unitality": lambda model, full: ([(full,)], _unitality),
    "coassociativity": lambda model, full: ([(full,)], _coassociativity),
    "counitality": lambda model, full: ([(full,)], _counitality),
    "compatibility": lambda model, full: _squares(decompositions_exact(full, 2), _dec_split),
    "higher-compatibility": lambda model, full: (
        _composition_squares if model.connected else _decomposition_squares)(model, full),
    "commutativity": lambda model, full: (_pairs(full), _commutativity),
    "cocommutativity": lambda model, full: ([(full,)], _cocommutativity),
}
_SUITE = ("degree-zero", "naturality", *_SWEEPS)


def _applies(model, axiom, n):
    """Whether the suite records `axiom` for the model at degree n."""
    return {"degree-zero": n == 0, "commutativity": model.commutative,
            "cocommutativity": model.cocommutative}.get(axiom, True)


def _axiom_sweep(model, axiom, n, natural):
    """Counterexamples of one of the eight S_n-equivariant axioms at degree
    n, given the verdict natural = check_naturality(model, n) == []: the
    axiom's sweep in _SWEEPS, run by _sweep."""
    if axiom not in _SWEEPS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _sweep(model, n, _SWEEPS[axiom], natural)


def sweep_instances(model, n):
    """Instances (F, x, G) of the full higher-compatibility sweep at degree
    n, the largest sweep of the axiom suite: for each shape F the keys x
    over it, a product of component dimensions, times the number of shapes
    G.  Only the shapes are enumerated.  This sizes the worst case: the
    suite runs the sweep only once a bimonoid axiom has failed
    (run_axiom_suite), and check_higher_compatibility always does."""
    shapes, _ = _SWEEPS["higher-compatibility"](model, full_mask(n))
    dims = [model.dim(k) for k in range(n + 1)]
    return len(shapes) * sum(prod(dims[popcount(b)] for b in F) for F in shapes)


def check_higher_compatibility(model, n):
    """The higher-compatibility axiom over all pairs of compositions."""
    return _sweep(model, n, _composition_squares, not check_naturality(model, n))


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
    """The coproducts of the x_i along the F-side splitting, tensored and
    permuted, then the products along the G-side splitting, tensored.
    The first x_i whose coproduct is zero makes the whole side zero."""
    parts = []
    for xi, shape in zip(x, delta_shapes):
        part = delta_shape(model, shape, LinComb.term(xi))
        if not part:
            return {}
        parts.append(part)
    split = tensor(*parts)
    out = []
    for keys, c in split.terms.items():
        flat = [None] * width
        for pos, k in enumerate(itertools.chain.from_iterable(keys)):
            flat[perm[pos]] = k
        out.append(tensor(*[mu_shape(model, shape, LinComb.term(tuple(flat[a:b])))
                            for (a, b), shape in zip(slices, mu_shapes)]).scale(c * braid))
    return lc_sum(out).terms


def check_higher_compatibility_dec(model, n):
    """Decomposition-indexed variant for non-connected models: F and G range
    over decompositions with at most `model.max_blocks` blocks, with the
    canonical row/column splittings of FG and GF."""
    return _sweep(model, n, _decomposition_squares, not check_naturality(model, n))


def _recorded(model, axiom, n, naturality):
    """What the suite records under `axiom` at degree n, given naturality."""
    if axiom == "degree-zero":
        return check_degree_zero(model)
    if axiom == "naturality":
        return naturality
    return _axiom_sweep(model, axiom, n, not naturality)


def check_axiom(model, axiom, n):
    """The counterexamples run_axiom_suite records under `axiom` at degree n."""
    if axiom not in _SUITE:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _recorded(model, axiom, n, check_naturality(model, n))


def run_axiom_suite(model, nmax):
    """The axioms of _SUITE that apply, in its order, for degrees 0..nmax;
    one report per degree.  Naturality is checked once per degree, and every
    swept axiom takes its verdict.

    Higher compatibility at degree n is recorded as [] without its sweep
    when every axiom _SUITE records before it (degree-zero at n = 0,
    naturality, associativity, unitality, coassociativity, counitality and
    compatibility) has passed at every degree <= n, and, for the
    composition sweep of a connected model, the unit spans the degree-0
    component (dim(0) == 1).  Otherwise the sweep runs, so every list is the full sweep's,
    in its order.  check_axiom and the public checkers always sweep: they
    are the oracle of what follows.

    The proof is the paper's: higher compatibility follows from the
    bimonoid axioms.  For decompositions F = (F_1, ..., F_k) and G = (G_1,
    ..., G_l) of a set I, the instance HC(F, G) that _compatibility checks
    is Delta_G mu_F = mu_GF beta Delta_FG.  Delta_FG is the tensor product
    of the Delta_{G|F_i} over the blocks of F, mu_GF that of the mu_{F|G_j}
    over the blocks of G, and beta is q^dist(F, G) times the block
    permutation (i, j) -> (j, i) of tits_perm or _dec_split, where dist(F,
    G) counts the label pairs that F and G order the opposite way.  The
    decomposition sweep keeps the empty intersections, the composition
    sweep drops them.  The code fixes one nesting: mu_shape is mu_F =
    mu_(I', F_k) (mu_F' (x) id) with F' = (F_1, ..., F_k-1) over I', and
    delta_shape is Delta_G = (id (x) Delta_G'') Delta_(G_1, J'') with G'' =
    (G_2, ..., G_l) over J''; one block is the identity, and the empty shape
    is the unit or the counit.  By induction on k + l, for every
    decomposition of every subset I of [n]:

    - k = 1 or l = 1: both sides are Delta_G, or both are mu_F; the other
      side's maps are one-block identities, the block permutation is the
      identity and dist is 0.
    - k = l = 2: an instance of compatibility on I (for the composition
      sweep, see the empty blocks below).
    - k >= 3: HC((I', F_k), G), then HC(F', G|I') on its first factor.
      Each mu_{F'|G_j} moves through beta, because the braiding reads only
      the sizes of label sets and a product keeps its label set; then
      mu_(I' & G_j, F_k & G_j) (mu_{F'|G_j} (x) id) is mu_{F|G_j} by the
      nesting.  The two block permutations compose to (i, j) -> (j, i), and
      a pair of labels that F and G order the opposite way lies either in
      I' or across I' and F_k, so dist(F, G) = dist(F', G|I') + dist((I',
      F_k), G).
    - l >= 3 and k <= 2: HC(F, (G_1, J'')), then HC(F|J'', G'') on its
      second factor.  Delta_(G_1 & F_i, J'' & F_i) followed by
      Delta_{G''|F_i} on its second factor is Delta_{G|F_i} by the nesting,
      and dist adds up in the same way.
    - k = 0 or l = 0, so I is empty and k, l <= 2 after the steps above:
      Delta_() of the unit is 1, Delta_(0, 0) of the unit is unit (x) unit,
      and Delta_() of a product over (0, 0) is the product of the counits.
      These are the three checks of degree-zero.

    The steps hold as they stand when a block or an intersection is empty:
    a restriction that drops an empty block is still left-nested.  Each
    step multiplies the scalars, q^a q^b = q^(a + b) with a, b >= 0, and
    divides by nothing.  So the argument holds for every q, also for q = 0,
    where the braiding is not invertible, with 0^0 = 1 as Fraction computes
    it.  The nesting is never changed, so the steps do not call on
    associativity or coassociativity; they are premises because the
    proposition is stated for bimonoids, where mu_F and Delta_F do not
    depend on a nesting.

    Empty blocks.  The decomposition sweep needs nothing more: compatibility
    is checked on the two-block decompositions with empty blocks too.  The
    composition sweep drops empty intersections, and that changes only
    k = l = 2: F = (S_1, S_2) and G = (T_1, T_2) with one of A = S_1 & T_1,
    B = S_1 & T_2, C = S_2 & T_1 and D = S_2 & T_2 empty.  Read as
    decompositions, the compatibility instance on (F, G) has a degree-0
    tensor factor there.  Each of (A, B), (C, D), (A, C) and (B, D) has a
    nonempty block, since S_i and T_j are not empty.  So the factor comes
    from Delta_(X, 0) x = x (x) unit or Delta_(0, X) x = unit (x) x, which
    counitality gives once the unit spans the degree-0 component and has
    counit 1; beta moves it with q^0 = 1; and it goes into mu_(X, 0) or
    mu_(0, X), the identity by unitality.  Without the empty factors that
    instance is HC(F, G).

    Subsets.  The induction uses the instances of compatibility, unitality
    and counitality on every subset I of [n].  At each degree m <= n the
    suite has checked all of them on [m], by _sweep's proof or by its full
    sweep; the structure maps read masks, so these are the same
    computations inside [n].  Let |I| = m and let p in S_n send [m] onto I.
    check_naturality at degree n proves the square of every permutation at
    every split of every subset of [n], not only of its generators, so
    relabeling by p commutes with the product and the coproduct there, and
    with mu and Delta along every shape.  p keeps the sizes of the
    blocks, so dist, and which intersections are empty, so the block
    permutation.  It fixes every degree-0 key (the locality part of
    check_relabel_action), so the unit and the counit, and it maps the keys
    over [m] onto those over I, relabeling by p^-1 mapping them back.  So
    the two sides of each instance on I are p applied to the two sides of
    an instance on [m], and they agree."""
    proved = not model.connected or model.dim(0) == 1
    reports = []
    for n in range(nmax + 1):
        rep = AxiomReport(model.name, n)
        naturality = check_naturality(model, n)
        for axiom in _SUITE:
            if not _applies(model, axiom, n):
                continue
            if axiom == "higher-compatibility":
                proved = proved and rep.ok()  # every premise is recorded by now
                if proved:
                    rep.record(axiom, [])
                    continue
            rep.record(axiom, _recorded(model, axiom, n, naturality))
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
    basis = model.basis_on(mask)
    if all(len(col.terms) == 1 and col.terms.get(k) == 1 for k, col in linmap.cols.items()):
        return LinMap.identity(basis)  # the identity transports to itself
    perm = labels  # old label i -> labels[i]
    # relabel down, apply, relabel up
    down = [0] * (max(labels) + 1 if labels else 0)
    for i, lab in enumerate(labels):
        down[lab] = i
    cols = {}
    for k in basis:
        k0 = model.relabel(tuple(down), k)
        cols[k] = model.relabel_lc(perm, linmap(k0))
    return LinMap(basis, basis, cols)


def _int_columns(linmap):
    """Each column of `linmap` as (d, ((key, int), ...)): its coefficients
    scaled to ints by d, the lcm of their denominators."""
    out = {}
    for k, col in linmap.cols.items():
        d, ints = integral(col.terms)
        out[k] = (d, tuple(ints.items()))
    return out


def _transported_columns(model, linmap, mask, transports):
    """The int columns of the degree-m endomorphism `linmap` transported to
    the m-set `mask` by naturality, as component_map does, kept in
    `transports`.

    There each result sits under (id(linmap), mask) together with the map,
    so that no id is reused while the dict lives; and the relabelling of
    basis(m) onto `mask` sits under the mask alone, so that the keys are
    relabelled once per mask for all the maps transported there.
    """
    hit = transports.get((id(linmap), mask))
    if hit is None:
        m = popcount(mask)
        if mask == full_mask(m):
            if linmap.domain != model.basis(m):
                raise ValueError("expected an endomorphism on the standard component")
            cols = _int_columns(linmap)
        else:
            up = transports.get(mask)
            if up is None:
                labels = mask_labels(mask)
                up = transports[mask] = {k: model.relabel(labels, k) for k in model.basis(m)}
            cols = {up[k]: (d, tuple([(up[k2], v) for k2, v in col]))
                    for k, (d, col) in _transported_columns(model, linmap, full_mask(m),
                                                            transports).items()}
        hit = transports[id(linmap), mask] = (linmap, cols)
    return hit[1]


def convolve(model, pairs, n, transports=None):
    """Convolution products f * g of endomorphism families at degree n, one
    LinMap per (f, g) in `pairs`, in order.

    Each family maps degree m to a LinMap on basis(m) for 0 <= m <= n.  One
    sweep over the splits (S, T) and the keys takes each coproduct once and
    applies it to every pair.  Each family map is transported to a mask
    once, its columns read as ints over a common denominator; each output
    column accumulates int numerators per (key, denominator) and holds one
    Fraction per key at the end.

    `transports`, a dict the caller owns for one model, keeps the
    transported columns for further calls, such as the degrees of one
    recursion; without it they are kept for this call only.
    """
    if transports is None:
        transports = {}
    full = full_mask(n)
    basis = model.basis(n)
    outs = [{k: {} for k in basis} for _ in pairs]
    monomial, product_key = model.monomial, model.product_key
    coproducts, products = model.structure_maps()
    for S in submasks(full):
        T = full ^ S
        s, t = popcount(S), popcount(T)
        sides = [(_transported_columns(model, f[s], S, transports),
                  _transported_columns(model, g[t], T, transports), out)
                 for (f, g), out in zip(pairs, outs)]
        for k in basis:
            if monomial:
                img = model.coproduct_key(S, T, k)
                if img is None:
                    continue
                cops = (img,)
            else:
                cops = coproducts(S, T, k)
            for fS, gT, out in sides:
                acc = out[k]
                for c, (a, b) in cops:
                    da, fa = fS[a]
                    db, gb = gT[b]
                    if not (fa and gb):
                        continue
                    den = c.denominator * da * db
                    for ka, na in fa:
                        na *= c.numerator
                        for kb, nb in gb:
                            if monomial:
                                c2, k2 = product_key(S, T, ka, kb)
                                if c2 is ONE:
                                    add_part(acc, den, k2, na * nb)
                                else:
                                    add_part(acc, den * c2.denominator, k2, na * nb * c2.numerator)
                            else:
                                for c2, k2 in products(S, T, ka, kb):
                                    add_part(acc, den * c2.denominator, k2, na * nb * c2.numerator)
    return [LinMap(basis, basis, {k: lc_from_parts(p) for k, p in out.items()}) for out in outs]


def identity_family(model, nmax):
    return {m: LinMap.identity(model.basis(m)) for m in range(nmax + 1)}


def unit_family(model, nmax):
    """The convolution unit: unit times counit, zero in positive degrees."""
    out = {}
    for m in range(nmax + 1):
        basis = model.basis(m)
        if m == 0:
            unit = model.unit()
            out[m] = LinMap(basis, basis, {k: unit.scale(model.counit(k)) for k in basis})
        else:
            out[m] = LinMap.zero(basis, basis)
    return out
