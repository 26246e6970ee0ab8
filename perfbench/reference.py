"""Independent answers the benchmark checks the program against.

Nothing here imports ``qt2ec``.  Graphs are plain ``(n, edges)`` pairs with
edges as sorted ``(u, v)`` tuples, ``u < v``, indexed in sorted order; that
is the same dense numbering ``qt2ec.Graph`` uses, so edge indices line up.

The edge classes come from Gallai's characterisation of Gamma forcing
(Golumbic, *Algorithmic Graph Theory and Perfect Graphs*, ch. 5): at a
centre v, edges vu and vw are forced together exactly when u and w lie in
one connected component of the complement of G[N(v)].  Within such a
component every edge has its head at v or every edge has its tail there,
which is a parity constraint; the graph is orientable iff no constraint
contradicts another.  This is a different algorithm from the program's
one-union-per-induced-P3 kernel, so agreement is evidence, not an echo.
"""

from __future__ import annotations

from dataclasses import dataclass

Edge = tuple[int, int]


def canonical_edges(edges) -> list[Edge]:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def adjacency(n: int, edges: list[Edge]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(start: int, within: int, step) -> int:
    """Bitset of the component of ``start`` inside ``within``; ``step(v)``
    gives v's neighbour bitset."""
    comp = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= step(v)
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def is_connected_mask(adj: list[int], mask: int) -> bool:
    if not mask:
        return False
    start = (mask & -mask).bit_length() - 1
    return _component(start, mask, adj.__getitem__) == mask


class _ParityUnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size

    def find(self, x: int) -> tuple[int, int]:
        parity = 0
        path = []
        while self.parent[x] != x:
            path.append(x)
            parity ^= self.parity[x]
            x = self.parent[x]
        acc = parity
        for node in path:
            step = self.parity[node]
            self.parent[node] = x
            self.parity[node] = acc
            acc ^= step
        return x, parity

    def union(self, a: int, b: int, rel: int) -> bool:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa ^ pb == rel
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ rel
        return True


@dataclass(frozen=True)
class Answer:
    """Reference facts for one graph."""

    n: int
    edges: tuple[Edge, ...]
    classes: tuple[tuple[int, ...], ...]  # edge indices, sorted by least index
    orientable: bool

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.classes))


def solve(n: int, edges) -> Answer:
    """Edge classes and orientability of the graph, by co-component forcing."""
    edges = canonical_edges(edges)
    index = {e: i for i, e in enumerate(edges)}
    adj = adjacency(n, edges)
    uf = _ParityUnionFind(len(edges))
    orientable = True
    for v in range(n):
        nbrs = adj[v]
        left = nbrs
        while left:
            u0 = (left & -left).bit_length() - 1
            comp = _component(u0, nbrs, lambda x: ~adj[x] & ~(1 << x))
            left &= ~comp
            e0 = index[(u0, v) if u0 < v else (v, u0)]
            h0 = int(v > u0)
            for u in _bits(comp & ~(1 << u0)):
                e = index[(u, v) if u < v else (v, u)]
                if not uf.union(e0, e, h0 ^ int(v > u)):
                    orientable = False
    groups: dict[int, list[int]] = {}
    for e in range(len(edges)):
        groups.setdefault(uf.find(e)[0], []).append(e)
    classes = tuple(tuple(g) for g in sorted(groups.values()))
    return Answer(n, tuple(edges), classes, orientable)


def induced_p3s(n: int, edges: list[Edge]) -> list[tuple[int, int, int]]:
    """Every induced path u-v-w (u < w, uw a non-edge), centre v."""
    adj = adjacency(n, edges)
    out = []
    for v in range(n):
        nbrs = list(_bits(adj[v]))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if not (adj[u] >> w) & 1:
                    out.append((u, v, w))
    return out


def is_quasi_transitive_orientation(
    edges: list[Edge], p3s: list[tuple[int, int, int]], arcs
) -> bool:
    """Definitional test: total, and the centre of every induced P3 is a
    common head or a common tail."""
    heads = {}
    for t, h in arcs:
        heads[(t, h) if t < h else (h, t)] = h
    if len(heads) != len(edges) or set(heads) != set(edges):
        return False
    for u, v, w in p3s:
        if (heads[(u, v) if u < v else (v, u)] == v) != (heads[(v, w) if v < w else (w, v)] == v):
            return False
    return True


def is_homogeneous_witness(n: int, edges: list[Edge], vertices) -> bool:
    """Size 2..n-1, connected induced subgraph, and a module."""
    adj = adjacency(n, edges)
    mask = 0
    for v in vertices:
        mask |= 1 << v
    size = mask.bit_count()
    if not 2 <= size <= n - 1 or not is_connected_mask(adj, mask):
        return False
    for v in range(n):
        if not (mask >> v) & 1:
            hit = adj[v] & mask
            if hit and hit != mask:
                return False
    return True
