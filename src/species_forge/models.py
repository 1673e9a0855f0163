"""Concrete Hopf monoid models: the exponential model E, linear orders L
(with a q-twist), set partitions Pi, simple graphs G, set compositions
Sigma (with a q-twist) and set decompositions SigmaHat, together with their
Q/M/P basis views, triangular basis changes, the standard morphisms between
them, and the self-duality maps.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

from . import graphs
from .exactlin import ONE, ZERO, LinComb, LinMap
from .kernels import (
    area,
    comp_permute,
    comp_restrict,
    comp_tits,
    dec_restrict,
    dist,
    mask_permute,
    popcount,
)
from .setcomb import (
    coarsenings,
    compositions_of,
    comp_factorial,
    decompositions_of,
    full_mask,
    mask_labels,
    mobius_partition,
    partition_coarsenings,
    partition_join,
    partition_refinements,
    partition_restrict,
    partition_sort,
    partitions_of,
    positive_part,
    rel_factorial,
    rel_length,
    refinements,
    submasks,
    support,
)
from .species import SpeciesModel, dual_model, hadamard


class UnknownModelError(ValueError):
    pass


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def ordered_bell(n):
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(comb(m, k) * out[m - k] for k in range(1, m + 1)))
    return out[n]


class ExponentialModel(SpeciesModel):
    """One basis element per label set; product merges, coproduct splits."""

    name = "E"
    commutative = True
    cocommutative = True
    set_theoretic = True
    monomial = True
    family = "E"

    def basis_on(self, mask):
        return (mask,)

    def relabel(self, perm, key):
        return mask_permute(key, perm)

    def product_key(self, S, T, x, y):
        return ONE, x | y

    def coproduct_key(self, S, T, key):
        return ONE, (key & S, key & T)

    def dim(self, n):
        return 1


class PartitionModel(SpeciesModel):
    """Set partitions; union product, restriction coproduct."""

    name = "Pi"
    commutative = True
    cocommutative = True
    set_theoretic = True
    monomial = True
    family = "Pi"

    def basis_on(self, mask):
        return partitions_of(mask)

    def relabel(self, perm, key):
        return partition_sort(comp_permute(key, perm))

    def product_key(self, S, T, x, y):
        return ONE, partition_sort(x + y)

    def coproduct_key(self, S, T, key):
        return ONE, (partition_restrict(key, S), partition_restrict(key, T))

    def dim(self, n):
        return bell(n)


class GraphModel(SpeciesModel):
    """Simple graphs as edge masks; union product, restriction coproduct."""

    name = "G"
    commutative = True
    cocommutative = True
    set_theoretic = True
    monomial = True
    family = "G"

    def basis_on(self, mask):
        return graphs.graphs_on(mask)

    def relabel(self, perm, key):
        return graphs.graph_permute(key, perm)

    def product_key(self, S, T, x, y):
        return ONE, x | y

    def coproduct_key(self, S, T, key):
        return ONE, (graphs.graph_restrict(key, S), graphs.graph_restrict(key, T))

    def dim(self, n):
        return 1 << comb(n, 2)


class _Powers(dict):
    """The powers q**k of one braiding parameter, each computed once."""

    def __init__(self, q):
        super().__init__()
        self.q = q

    def __missing__(self, k):
        v = self[k] = self.q ** k
        return v


class CompositionModel(SpeciesModel):
    """Set compositions; concatenation product, restriction coproduct
    weighted by q to the crossing number (the area statistic)."""

    monomial = True
    family = "Sigma"

    def __init__(self, q=ONE):
        self.q = Fraction(q)
        self.name = self.family if self.q == 1 else f"{self.family}q:{self.q}"
        self.commutative = False
        self.cocommutative = self.q == 1
        self.set_theoretic = self.q == 1
        self._q_powers = None if self.q == 1 else _Powers(self.q)

    def basis_on(self, mask):
        return compositions_of(mask)

    def relabel(self, perm, key):
        return comp_permute(key, perm)

    def product_key(self, S, T, x, y):
        return ONE, x + y

    def coproduct_key(self, S, T, key):
        if self._q_powers is None:
            c = ONE
        else:
            c = self._q_powers[area(key, S, T)]
        return c, (comp_restrict(key, S), comp_restrict(key, T))

    def dim(self, n):
        return ordered_bell(n)


class LinearOrderModel(CompositionModel):
    """Linear orders as the compositions into singletons, with the same
    product, coproduct and q-twist."""

    family = "L"

    def basis_on(self, mask):
        labels = mask_labels(mask)
        return tuple(
            tuple(1 << i for i in p) for p in itertools.permutations(labels)
        )

    def dim(self, n):
        return factorial(n)


class DecompositionModel(SpeciesModel):
    """Set decompositions (empty blocks allowed); concatenation product and
    restriction coproduct that keeps empty intersections.  Not connected and
    not Hopf: the degree-0 component is the monoid algebra of (N, +).  Basis
    enumeration carries an explicit block-count bound."""

    connected = False
    commutative = False
    cocommutative = True
    set_theoretic = True
    monomial = True
    family = "SigmaHat"

    def __init__(self, max_blocks):
        if max_blocks < 0:
            raise ValueError("block bound must be nonnegative")
        self.max_blocks = max_blocks
        self.name = f"SigmaHat:{max_blocks}"

    def basis_on(self, mask):
        return decompositions_of(mask, self.max_blocks)

    def relabel(self, perm, key):
        return comp_permute(key, perm)

    def unit(self):
        return LinComb.term(())

    def counit(self, key):
        if any(key):
            raise ValueError("counit applies to degree-0 keys only")
        return ONE

    def product_key(self, S, T, x, y):
        return ONE, x + y

    def coproduct_key(self, S, T, key):
        return ONE, (dec_restrict(key, S), dec_restrict(key, T))

    def dim(self, n):
        if n == 0:
            return self.max_blocks + 1
        return sum(p ** n for p in range(1, self.max_blocks + 1))


# ---------------------------------------------------------------------------
# Q-basis views: same keys, structure maps in the Q basis


def _admissible_graph(key, S, T):
    return key & graphs.edges_between(S, T) == 0


def _admissible_coproduct(key, S, T):
    """The Q-basis coproduct of a composition or partition: its blocks in S
    and its blocks in T, in order, when no block meets both S and T (the
    split is admissible), else None."""
    for b in key:
        if b & S and b & T:
            return None
    return ONE, (tuple([b for b in key if b & S]), tuple([b for b in key if b & T]))


class QCompositionView(CompositionModel):
    """Sigma in its Q basis: free product, coproduct supported on admissible
    splits; exhibits the free presentation on the positive exponential."""

    family = "QSigma"

    def __init__(self):
        super().__init__()
        self.name = "Q:Sigma"
        self.set_theoretic = False

    def coproduct_key(self, S, T, key):
        return _admissible_coproduct(key, S, T)


class QPartitionView(PartitionModel):
    """Pi in its Q basis: free commutative presentation on the positive
    exponential."""

    name = "Q:Pi"
    family = "QPi"
    set_theoretic = False

    def coproduct_key(self, S, T, key):
        return _admissible_coproduct(key, S, T)


class QGraphView(GraphModel):
    """G in its Q basis: free commutative presentation on connected graphs."""

    name = "Q:G"
    family = "QG"
    set_theoretic = False

    def coproduct_key(self, S, T, key):
        if not _admissible_graph(key, S, T):
            return None
        return super().coproduct_key(S, T, key)


_Q_VIEWS = {"Sigma": QCompositionView, "Pi": QPartitionView, "G": QGraphView}


def q_view(model):
    """The Q-basis view of Pi, G, or Sigma (at q = 1)."""
    if model.family not in _Q_VIEWS or model.q != 1:
        raise UnknownModelError(f"no Q basis registered for {model.name}")
    return _Q_VIEWS[model.family]()


# ---------------------------------------------------------------------------
# triangular basis changes


def _change(lc, expand):
    out = {}
    for key, c in lc.terms.items():
        for key2, c2 in expand(key):
            w = out.get(key2, ZERO) + c * c2
            if w:
                out[key2] = w
            else:
                del out[key2]
    return LinComb.wrap(out)


def _sigma_H_to_Q(key):
    return [(g, Fraction(1, rel_factorial(key, g))) for g in refinements(key)]


def _sigma_Q_to_H(key):
    out = []
    for g in refinements(key):
        sign = -1 if (len(g) - len(key)) % 2 else 1
        out.append((g, Fraction(sign, rel_length(key, g))))
    return out


def _pi_H_to_Q(key):
    return [(y, ONE) for y in partition_refinements(key)]


def _pi_Q_to_H(key):
    return [(y, mobius_partition(key, y)) for y in partition_refinements(key)]


def _g_H_to_Q(key):
    return [(h, ONE) for h in submasks(key)]


def _g_Q_to_H(key):
    return [(h, Fraction(-1 if (key ^ h).bit_count() % 2 else 1))
            for h in submasks(key)]


def _sigma_P_to_M(key):
    return [(f, Fraction(1, rel_factorial(f, key))) for f in coarsenings(key)]


def _sigma_M_to_P(key):
    out = []
    for f in coarsenings(key):
        sign = -1 if (len(key) - len(f)) % 2 else 1
        out.append((f, Fraction(sign, rel_length(f, key))))
    return out


def _pi_P_to_M(key):
    return [(x, ONE) for x in partition_coarsenings(key)]


def _pi_M_to_P(key):
    return [(x, mobius_partition(x, key)) for x in partition_coarsenings(key)]


def _g_P_to_M(key, ambient):
    rest = graphs.all_edges_mask(ambient) & ~key
    return [(key | s, ONE) for s in submasks(rest)]


def _g_M_to_P(key, ambient):
    rest = graphs.all_edges_mask(ambient) & ~key
    return [(key | s, Fraction(-1 if s.bit_count() % 2 else 1))
            for s in submasks(rest)]


_BASIS_CHANGES = {
    ("Sigma", "H", "Q"): lambda m, n: _sigma_H_to_Q,
    ("Sigma", "Q", "H"): lambda m, n: _sigma_Q_to_H,
    ("Sigma", "P", "M"): lambda m, n: _sigma_P_to_M,
    ("Sigma", "M", "P"): lambda m, n: _sigma_M_to_P,
    ("Pi", "H", "Q"): lambda m, n: _pi_H_to_Q,
    ("Pi", "Q", "H"): lambda m, n: _pi_Q_to_H,
    ("Pi", "P", "M"): lambda m, n: _pi_P_to_M,
    ("Pi", "M", "P"): lambda m, n: _pi_M_to_P,
    ("G", "H", "Q"): lambda m, n: _g_H_to_Q,
    ("G", "Q", "H"): lambda m, n: _g_Q_to_H,
    ("G", "P", "M"): lambda m, n: (lambda key: _g_P_to_M(key, full_mask(n))),
    ("G", "M", "P"): lambda m, n: (lambda key: _g_M_to_P(key, full_mask(n))),
}


def basis_change(model, frm, to, lc, n=None):
    """Convert coordinates between basis views of Pi, G, or Sigma.

    Supported pairs: H <-> Q (primal side) and M <-> P (dual side).  `n` is
    required for the graph dual conversions, whose triangles depend on the
    ambient vertex set.
    """
    if frm == to:
        return lc
    key = (model.family, frm, to)
    if key not in _BASIS_CHANGES:
        raise UnknownModelError(f"unsupported basis change {frm}->{to} for {model.name}")
    if model.family == "G" and frm in ("M", "P") and n is None:
        raise ValueError("graph dual basis changes need the ambient degree n")
    return _change(lc, _BASIS_CHANGES[key](model, n))


# ---------------------------------------------------------------------------
# morphisms


def upsilon(lc):
    """SigmaHat -> Sigma: delete the empty blocks of each decomposition."""
    return lc.map_keys(positive_part)


def pi_support(lc, basis="H"):
    """Sigma -> Pi: forget the order among blocks (in H or Q coordinates)."""
    if basis not in ("H", "Q"):
        raise UnknownModelError("support morphism acts on H or Q coordinates")
    return lc.map_keys(support)


def k_complete(lc):
    """Pi -> G: send a partition to the disjoint union of complete graphs."""
    return lc.map_keys(graphs.complete_on_partition)


MORPHISMS = {"upsilon": upsilon, "pi": pi_support, "k": k_complete}


def morphism(name, lc):
    try:
        fn = MORPHISMS[name]
    except KeyError:
        raise UnknownModelError(f"unknown morphism {name!r}") from None
    return fn(lc)


def morphism_matrix(name, n, max_blocks=3):
    """The named morphism as a LinMap on the degree-n components."""
    full = full_mask(n)
    if name == "upsilon":
        dom = decompositions_of(full, max_blocks)
        cod = compositions_of(full)
    elif name == "pi":
        dom = compositions_of(full)
        cod = partitions_of(full)
    elif name == "k":
        dom = partitions_of(full)
        cod = graphs.graphs_on(full)
    else:
        raise UnknownModelError(f"unknown morphism {name!r}")
    fn = MORPHISMS[name]
    return LinMap(dom, cod, {k: fn(LinComb.term(k)) for k in dom})


# ---------------------------------------------------------------------------
# self-duality maps (H basis -> M basis of the dual, same key alphabet)


def isolinear(n, q):
    """L_q -> dual(L_q), weighting pairs of orders by q^distance."""
    q = Fraction(q)
    basis = LinearOrderModel(q).basis(n)
    cols = {
        ell: LinComb({ell2: q ** dist(ell, ell2) for ell2 in basis})
        for ell in basis
    }
    return LinMap(basis, basis, cols)


def isoflat(n):
    """Pi -> dual(Pi) with coefficients (X v Y)!."""
    basis = partitions_of(full_mask(n))
    cols = {}
    for y in basis:
        col = {}
        for x in basis:
            join = partition_join(x, y)
            coef = 1
            for b in join:
                coef *= factorial(popcount(b))
            col[x] = Fraction(coef)
        cols[y] = LinComb(col)
    return LinMap(basis, basis, cols)


def isograph_pi(n):
    """Pi -> dual(Pi) supported on pairs joining to the maximum partition."""
    full = full_mask(n)
    basis = partitions_of(full)
    top = partitions_of(full)[-1] if n == 0 else tuple(1 << i for i in range(n))
    cols = {}
    for y in basis:
        col = {x: ONE for x in basis if partition_join(x, y) == top}
        cols[y] = LinComb(col)
    return LinMap(basis, basis, cols)


def isograph_g(n):
    """G -> dual(G): sum over graphs avoiding the complement's edges."""
    full = full_mask(n)
    basis = graphs.graphs_on(full)
    cols = {}
    for h in basis:
        comp = graphs.graph_complement(h, full)
        cols[h] = LinComb({g: ONE for g in submasks(comp)})
    return LinMap(basis, basis, cols)


def isosigma(n, q):
    """Sigma_q -> dual(Sigma_q) with coefficients (F F')! q^dist(F, F')."""
    q = Fraction(q)
    basis = compositions_of(full_mask(n))
    cols = {}
    for f in basis:
        col = {}
        for f2 in basis:
            coef = Fraction(comp_factorial(comp_tits(f, f2)))
            if q != 1:
                coef *= q ** dist(f, f2)
            col[f2] = coef
        cols[f] = LinComb(col)
    return LinMap(basis, basis, cols)


DUALITY_MAPS = {
    "isolinear": lambda n, q=ONE: isolinear(n, q),
    "isoflat": lambda n, q=ONE: isoflat(n),
    "isograph_Pi": lambda n, q=ONE: isograph_pi(n),
    "isograph_G": lambda n, q=ONE: isograph_g(n),
    "isoSigma": lambda n, q=ONE: isosigma(n, q),
}


def duality_map(name, n, q=ONE):
    try:
        fn = DUALITY_MAPS[name]
    except KeyError:
        raise UnknownModelError(f"unknown duality map {name!r}") from None
    return fn(n, q)


# ---------------------------------------------------------------------------
# registry


Q_MAX_EXPONENT = 4300  # Python's int-to-string digit limit


def _parse_q(text):
    """The rational braiding parameter of Lq:<q> and Sigmaq:<q>.  Fraction
    expands a decimal exponent into an integer with that many digits, so an
    exponent beyond the digit limit (whose q could not be printed in the
    model name anyway) is refused first."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        too_big = bool(e) and abs(int(exponent)) > Q_MAX_EXPONENT
    except ValueError:
        too_big = False  # not an exponent: Fraction rejects or reads it
    if too_big:
        raise ValueError(f"the exponent of q={text!r} exceeds {Q_MAX_EXPONENT}")
    return Fraction(text)


def build_model(name):
    """Build a model from its registry name.

    Grammar: E | L | Lq:<rational> | Pi | G | Sigma | Sigmaq:<rational> |
    SigmaHat:<maxblocks> | dual:<name> | had:<name>,<name> | Q:<name>.
    """
    name = name.strip()
    if name == "E":
        return ExponentialModel()
    if name == "L":
        return LinearOrderModel()
    if name.startswith("Lq:"):
        return LinearOrderModel(_parse_q(name[3:]))
    if name == "Pi":
        return PartitionModel()
    if name == "G":
        return GraphModel()
    if name == "Sigma":
        return CompositionModel()
    if name.startswith("Sigmaq:"):
        return CompositionModel(_parse_q(name[7:]))
    if name.startswith("SigmaHat:"):
        return DecompositionModel(int(name[9:]))
    if name.startswith("dual:"):
        return dual_model(build_model(name[5:]))
    if name.startswith("had:"):
        left, _, right = name[4:].rpartition(",")
        return hadamard(build_model(left), build_model(right))
    if name.startswith("Q:"):
        return q_view(build_model(name[2:]))
    raise UnknownModelError(f"unknown model {name!r}")


def degree_budget(name):
    """Documented hard cap on the verification degree for a model spec."""
    if "SigmaHat" in name:
        return 3
    if "G" in name:
        return 4
    return 5
