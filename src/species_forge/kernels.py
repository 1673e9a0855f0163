"""Hot kernels for bitmask combinatorics.

A subset of the ground set [n] = {0, ..., n-1} is an int bitmask; a set
composition or decomposition is a tuple of such masks (decompositions may
contain zero masks).  These functions sit inside the exhaustive axiom sweeps
and antipode sums, so they stay free of object plumbing.
"""

BACKEND = "python"  # checked by perfbench/worker.py


def popcount(mask):
    return mask.bit_count()


def mask_permute(mask, perm):
    """Push a mask forward along the label map i -> perm[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def comp_permute(comp, perm):
    return tuple(mask_permute(b, perm) for b in comp)


def comp_restrict(comp, smask):
    """Restriction of a composition: nonempty intersections, in order."""
    return tuple(c for b in comp if (c := b & smask))


def dec_restrict(comp, smask):
    """Restriction of a decomposition: empty intersections are kept."""
    return tuple(b & smask for b in comp)


def comp_tits(f, g):
    """Tits product of compositions: nonempty refinements of f's blocks by g."""
    out = []
    for b in f:
        for c in g:
            if b & c:
                out.append(b & c)
    return tuple(out)


def dec_tits(f, g):
    """Tits product of decompositions: all len(f)*len(g) intersections."""
    out = []
    for b in f:
        for c in g:
            out.append(b & c)
    return tuple(out)


def comp_refines(f, g):
    """True iff f <= g, i.e. g refines f (equivalently fg == g)."""
    return comp_tits(f, g) == g


def area(comp, smask, tmask):
    """Number of pairs (i, j) in S x T with i in a strictly later block than j."""
    total = 0
    suffix = 0
    for b in reversed(comp):
        total += (b & tmask).bit_count() * suffix
        suffix += (b & smask).bit_count()
    return total


def dist(f, g):
    """Pairs split one way by f and the other way by g, counted with sizes."""
    p, q = len(f), len(g)
    if p < 2 or q < 2:
        return 0
    c = [[(f[i] & g[m]).bit_count() for m in range(q)] for i in range(p)]
    total = 0
    for i in range(p):
        ci = c[i]
        for j in range(i + 1, p):
            cj = c[j]
            for m in range(1, q):
                cim = ci[m]
                if cim:
                    for l in range(m):
                        total += cim * cj[l]
    return total


def dist_opp(f):
    """dist(f, reversed(f)): sum of |I_i| * |I_j| over pairs i < j."""
    total = 0
    seen = 0
    for b in f:
        k = b.bit_count()
        total += k * seen
        seen += k
    return total


def tits_perm(f, g):
    """Return (fg, gf, perm) for compositions f, g of the same set.

    perm[a] is the position in gf of block a of fg; it is the canonical
    reordering (i, j) -> (j, i) of the pairwise intersections.
    """
    p, q = len(f), len(g)
    fg = []
    gf_index = {}
    pos = 0
    for j in range(q):
        c = g[j]
        for i in range(p):
            b = f[i] & c
            if b:
                gf_index[b] = pos
                pos += 1
    gf = [0] * pos
    for b, k in gf_index.items():
        gf[k] = b
    perm = []
    for b in f:
        for c in g:
            a = b & c
            if a:
                fg.append(a)
                perm.append(gf_index[a])
    return tuple(fg), tuple(gf), tuple(perm)
