"""Simple graphs on subsets of [n], stored as edge bitmasks.

The edge {i, j} with i < j occupies bit j*(j-1)/2 + i, which depends only on
the two labels, so the same encoding serves every ambient degree and every
vertex subset.
"""

from .setcomb import (
    mask_labels,
    partition_sort,
    partitions_of,
    submasks,
)

_MAX_VERTS = 11  # keeps the full edge mask inside one machine word


def edge_index(i, j):
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


_EDGE_VERTS = tuple(
    (i, j) for j in range(_MAX_VERTS) for i in range(j)
)


def edge_vertices(idx):
    return _EDGE_VERTS[idx]


def edge_list(gmask):
    out = []
    while gmask:
        low = gmask & -gmask
        out.append(_EDGE_VERTS[low.bit_length() - 1])
        gmask ^= low
    return out


def edges_from_pairs(pairs):
    g = 0
    for i, j in pairs:
        g |= 1 << edge_index(i, j)
    return g


def all_edges_mask(vmask):
    """Edge mask of the complete graph on the vertex set."""
    labels = mask_labels(vmask)
    g = 0
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            g |= 1 << edge_index(labels[a], labels[b])
    return g


def edges_between(smask, tmask):
    g = 0
    for i in mask_labels(smask):
        for j in mask_labels(tmask):
            g |= 1 << edge_index(i, j)
    return g


def graph_restrict(g, vmask):
    return g & all_edges_mask(vmask)


def graph_permute(g, perm):
    out = 0
    for i, j in edge_list(g):
        out |= 1 << edge_index(perm[i], perm[j])
    return out


def graph_complement(g, vmask):
    return all_edges_mask(vmask) & ~g


def components(g, vmask):
    """Partition of the vertex set into connected components."""
    adj = {i: 0 for i in mask_labels(vmask)}
    for i, j in edge_list(g & all_edges_mask(vmask)):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    remaining = vmask
    blocks = []
    while remaining:
        low = remaining & -remaining
        comp = low
        frontier = low
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nbrs = adj[bit.bit_length() - 1] & remaining & ~comp
            comp |= nbrs
            frontier |= nbrs
        blocks.append(comp)
        remaining &= ~comp
    return partition_sort(blocks)


def is_connected(g, vmask):
    return len(components(g, vmask)) <= 1


def component_count(g, vmask):
    return len(components(g, vmask))


def restrict_to_partition(g, x):
    """g|_X: keep only edges inside blocks of the partition."""
    out = 0
    for b in x:
        out |= graph_restrict(g, b)
    return out


def contract(g, x):
    """g/_X: the graph on the blocks of X (relabeled 0..len(X)-1) with an
    edge between two blocks whenever g joins them; loops and multiplicities
    vanish in the edge-mask encoding."""
    blocks = list(x)
    out = 0
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if g & edges_between(blocks[a], blocks[b]):
                out |= 1 << edge_index(a, b)
    return out


def contraction_lattice(g, vmask):
    """Partitions of the vertex set whose blocks induce connected subgraphs."""
    return tuple(x for x in partitions_of(vmask)
                 if all(is_connected(graph_restrict(g, b), b) for b in x))


def acyclic_orientations(g, vmask):
    """Count acyclic orientations by their sources.  Each one has a nonempty
    independent set of sources, so by inclusion-exclusion on that set
    a(V) = sum over nonempty independent I in V of (-1)^(|I|+1) a(V - I),
    with a(empty) = 1."""
    nonempty = submasks(vmask)[1:]
    independent = {i for i in nonempty if not g & all_edges_mask(i)}
    count = {0: 1}
    for v in nonempty:
        count[v] = sum((-1) ** (i.bit_count() + 1) * count[v ^ i]
                       for i in independent if not i & ~v)
    return count[vmask]


def complete_on_partition(x):
    """k_X: the disjoint union of complete graphs on the blocks of X."""
    g = 0
    for b in x:
        g |= all_edges_mask(b)
    return g


def graphs_on(vmask):
    """All graphs on the vertex set, as ascending edge masks."""
    return submasks(all_edges_mask(vmask))


def encode_graph(g, n):
    edges = sorted(edge_list(g))
    body = ",".join("e%x%x" % (i, j) for i, j in edges)
    return f"{n}:{body}"


def decode_graph(s):
    head, _, body = s.partition(":")
    n = int(head)
    g = 0
    if body:
        for part in body.split(","):
            if not (part.startswith("e") and len(part) == 3):
                raise ValueError(f"bad edge token {part!r}")
            i, j = int(part[1], 16), int(part[2], 16)
            if i == j or max(i, j) >= n:
                raise ValueError(f"edge {part!r} is not an edge on {n} vertices")
            g |= 1 << edge_index(i, j)
    return g, n
