"""Set compositions, decompositions and partitions of the canonical ground
set [n] = {0, ..., n-1}, with their operations, statistics, enumeration and
text encodings.

Subsets are int bitmasks throughout.  A composition/decomposition is a tuple
of masks (ordered blocks); a partition is a tuple of masks sorted by least
element.  These bitmask tuples are the one representation: models, sweeps,
Tits operations and the CLI all work on them through the functions here.

Canonical enumeration orders (frozen, so basis indices are reproducible):

* partitions: restricted-growth-string order; blocks listed by least element;
* compositions: partitions in the order above, each refined by all block
  orderings sorted lexicographically as tuples of masks;
* decompositions with exactly p blocks: label-to-block assignment tuples
  (a_0, ..., a_{m-1}) in lexicographic order; with at most k blocks: p
  ascending, then the exact-p order.
"""

import itertools
from fractions import Fraction
from math import factorial

from .kernels import (
    area,
    comp_permute,
    comp_refines,
    comp_restrict,
    comp_tits,
    dec_restrict,
    dec_tits,
    dist,
    dist_opp,
    mask_permute,
    popcount,
    tits_perm,
)

__all__ = [
    "MAX_DEGREE", "full_mask", "mask_from_labels", "mask_labels",
    "area", "dist", "dist_opp", "popcount", "mask_permute",
    "comp_permute", "comp_restrict", "comp_tits", "comp_refines",
    "dec_restrict", "dec_tits", "tits_perm",
    "comp_concat", "comp_opp", "comp_factorial",
    "rel_length", "rel_factorial", "support", "positive_part",
    "partition_sort", "partition_restrict",
    "partition_refines", "partition_join", "cyclic_factorial",
    "partition_rel_factorial",
    "mobius_partition",
    "compositions_of", "partitions_of", "decompositions_exact",
    "decompositions_of", "refinements", "partition_refinements",
    "coarsenings", "partition_coarsenings",
    "quasi_shuffles", "shuffles", "splittings", "dec_refines", "submasks",
    "encode_comp", "decode_comp", "encode_partition", "decode_partition",
    "encode_dec", "decode_dec",
]

MAX_DEGREE = 60


def full_mask(n):
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be between 0 and {MAX_DEGREE}, got {n}")
    return (1 << n) - 1


def mask_from_labels(labels):
    mask = 0
    for i in labels:
        mask |= 1 << i
    return mask


def mask_labels(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# operations and statistics on raw block tuples


def comp_concat(f, g):
    """Concatenation of (de)compositions of disjoint sets."""
    if _union(f) & _union(g):
        raise ValueError("concatenation requires disjoint ground sets")
    return f + g


def comp_opp(f):
    return tuple(reversed(f))


def comp_factorial(f):
    out = 1
    for b in f:
        out *= factorial(popcount(b))
    return out


def rel_length(f, g):
    """l(g/f): product over blocks of f of the number of g-blocks inside."""
    _require_refines(f, g)
    out = 1
    for b in f:
        out *= len(comp_restrict(g, b))
    return out


def rel_factorial(f, g):
    """(g/f)!: product over blocks of f of (number of g-blocks inside)!."""
    _require_refines(f, g)
    out = 1
    for b in f:
        out *= factorial(len(comp_restrict(g, b)))
    return out


def _require_refines(f, g):
    if not comp_refines(f, g):
        raise ValueError("expected a refinement pair f <= g")


def _union(f):
    mask = 0
    for b in f:
        mask |= b
    return mask


def positive_part(f):
    """Drop the empty blocks of a decomposition."""
    return tuple(b for b in f if b)


def partition_sort(blocks):
    """Canonical order for partition blocks: ascending least element."""
    return tuple(sorted(blocks, key=lambda b: b & -b))


def support(f):
    """Underlying partition of a composition (order among blocks forgotten)."""
    return partition_sort(f)


def partition_restrict(x, smask):
    return partition_sort([c for b in x if (c := b & smask)])


def partition_refines(x, y):
    """True iff x <= y, i.e. every block of y sits inside a block of x."""
    for c in y:
        low = c & -c
        for b in x:
            if b & low:
                if c & ~b:
                    return False
                break
        else:
            return False
    return True


def partition_join(x, y):
    """Join x v y: the common refinement (the one-block partition is the
    minimum here, singletons the maximum)."""
    return partition_sort(b & c for b in x for c in y if b & c)


def cyclic_factorial(x):
    """x-inverted-factorial: number of ways to cyclically order each block."""
    out = 1
    for b in x:
        out *= factorial(popcount(b) - 1)
    return out


def partition_rel_factorial(x, y):
    if not partition_refines(x, y):
        raise ValueError("expected a refinement pair x <= y")
    out = 1
    for b in x:
        out *= factorial(len(partition_restrict(y, b)))
    return out


def mobius_partition(x, y):
    """Mobius function of the partition lattice on an interval x <= y."""
    if not partition_refines(x, y):
        raise ValueError("mobius_partition requires x <= y")
    sign = -1 if (len(y) - len(x)) % 2 else 1
    out = 1
    for b in x:
        out *= factorial(len(partition_restrict(y, b)) - 1)
    return Fraction(sign * out)


# ---------------------------------------------------------------------------
# enumeration

_PARTITION_CACHE = {}
_COMPOSITION_CACHE = {}


def partitions_of(mask):
    """All partitions of the labels of `mask`, in restricted-growth order."""
    try:
        return _PARTITION_CACHE[mask]
    except KeyError:
        pass
    labels = mask_labels(mask)
    out = []
    blocks = []

    def rec(i):
        if i == len(labels):
            out.append(tuple(blocks))
            return
        bit = 1 << labels[i]
        for k in range(len(blocks)):
            blocks[k] |= bit
            rec(i + 1)
            blocks[k] &= ~bit
        blocks.append(bit)
        rec(i + 1)
        blocks.pop()

    rec(0)
    result = tuple(out)
    _PARTITION_CACHE[mask] = result
    return result


def compositions_of(mask):
    """All compositions of the labels of `mask`, in the canonical order."""
    try:
        return _COMPOSITION_CACHE[mask]
    except KeyError:
        pass
    out = []
    for x in partitions_of(mask):
        out.extend(sorted(itertools.permutations(x)))
    result = tuple(out)
    _COMPOSITION_CACHE[mask] = result
    return result


def decompositions_exact(mask, p):
    """Decompositions of `mask` into exactly p (possibly empty) blocks."""
    labels = mask_labels(mask)
    if p == 0:
        return ((),) if not labels else ()
    out = []
    blocks = [0] * p

    def rec(i):
        if i == len(labels):
            out.append(tuple(blocks))
            return
        bit = 1 << labels[i]
        for k in range(p):
            blocks[k] |= bit
            rec(i + 1)
            blocks[k] &= ~bit

    rec(0)
    return tuple(out)


def decompositions_of(mask, max_blocks):
    """Decompositions of `mask` with at most `max_blocks` blocks."""
    out = []
    for p in range(max_blocks + 1):
        out.extend(decompositions_exact(mask, p))
    return tuple(out)


def refinements(f):
    """All compositions g with f <= g, by refining each block independently."""
    per_block = [compositions_of(b) for b in f]
    out = []
    for choice in itertools.product(*per_block):
        g = ()
        for part in choice:
            g += part
        out.append(g)
    return tuple(out)


def partition_refinements(x):
    """All partitions y with x <= y."""
    per_block = [partitions_of(b) for b in x]
    out = []
    for choice in itertools.product(*per_block):
        blocks = ()
        for part in choice:
            blocks += part
        out.append(partition_sort(blocks))
    return tuple(out)


def coarsenings(f):
    """All compositions g with g <= f, i.e. merges of runs of consecutive
    blocks of f; ordered by the bitmask of kept cut positions."""
    k = len(f)
    if k == 0:
        return ((),)
    out = []
    for cuts in range(1 << (k - 1)):
        g = []
        acc = f[0]
        for i in range(1, k):
            if (cuts >> (i - 1)) & 1:
                g.append(acc)
                acc = f[i]
            else:
                acc |= f[i]
        g.append(acc)
        out.append(tuple(g))
    return tuple(out)


def partition_coarsenings(x):
    """All partitions y with y <= x, by merging blocks of x."""
    k = len(x)
    out = []
    for ip in partitions_of((1 << k) - 1):
        blocks = []
        for bm in ip:
            m = 0
            for i in mask_labels(bm):
                m |= x[i]
            blocks.append(m)
        out.append(partition_sort(blocks))
    return tuple(out)


def quasi_shuffles(f, g):
    """All compositions h with h|_S = f and h|_T = g (S, T the ground sets)."""
    if _union(f) & _union(g):
        raise ValueError("quasi-shuffle requires disjoint ground sets")
    out = []
    acc = []

    def rec(i, j):
        if i == len(f) and j == len(g):
            out.append(tuple(acc))
            return
        if i < len(f):
            acc.append(f[i])
            rec(i + 1, j)
            acc.pop()
        if j < len(g):
            acc.append(g[j])
            rec(i, j + 1)
            acc.pop()
        if i < len(f) and j < len(g):
            acc.append(f[i] | g[j])
            rec(i + 1, j + 1)
            acc.pop()

    rec(0, 0)
    return tuple(out)


def shuffles(f, g):
    """Interleavings without merging; for linear orders these are shuffles."""
    return tuple(h for h in quasi_shuffles(f, g) if len(h) == len(f) + len(g))


def splittings(f, g):
    """All tuples (g_1, ..., g_k) of decompositions of the blocks of f whose
    concatenation is g.  Nonempty iff f <= g in the decomposition preorder."""
    out = []
    k, m = len(f), len(g)
    segs = []

    def rec(i, pos):
        if i == k:
            if pos == m:
                out.append(tuple(segs))
            return
        target = f[i]
        acc = 0
        j = pos
        while True:
            if acc == target:
                segs.append(tuple(g[pos:j]))
                rec(i + 1, j)
                segs.pop()
            if j == m or (g[j] & ~target):
                break
            acc |= g[j]
            j += 1

    rec(0, 0)
    return tuple(out)


def dec_refines(f, g):
    """Decomposition preorder f <= g: some splitting of (f, g) exists."""
    return bool(splittings(f, g))


def submasks(mask):
    """All submasks of `mask`, ascending as integers."""
    out = [0]
    s = mask
    while s:
        out.append(s)
        s = (s - 1) & mask
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# text encodings ("01|2" compositions, "01.2" partitions, "01||2"
# decompositions with empty blocks as empty segments)


def _block_str(mask):
    labels = mask_labels(mask)
    if any(i > 15 for i in labels):
        raise ValueError("text encodings support labels 0..15 only")
    return "".join(format(i, "x") for i in labels)


def _block_from_str(s):
    return mask_from_labels(int(c, 16) for c in s)


def encode_comp(f):
    return "|".join(_block_str(b) for b in f)


def decode_comp(s):
    if s == "":
        return ()
    return tuple(_block_from_str(part) for part in s.split("|"))


def encode_partition(x):
    return ".".join(_block_str(b) for b in x)


def decode_partition(s):
    if s == "":
        return ()
    return partition_sort(_block_from_str(part) for part in s.split("."))


def encode_dec(f):
    # All-empty decompositions collide under plain joining; they are encoded
    # as a run of pipes so that every decomposition round-trips.
    if f and not any(f):
        return "|" * len(f)
    return "|".join(_block_str(b) for b in f)


def decode_dec(s):
    if s == "":
        return ()
    if set(s) == {"|"}:
        return (0,) * len(s)
    return tuple(_block_from_str(part) for part in s.split("|"))
