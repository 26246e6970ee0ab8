"""Partition of the edge set into forcing classes, with the orientation
each class carries.

Edges vu and vw are Gamma-forced together exactly when u and w are
non-adjacent, i.e. when u-v-w is an induced P3: they must then share a
colour in any quasi-transitive 2-edge-colouring, and share a head or a tail
at v in any quasi-transitive orientation.  At a fixed centre v the forcing
closure is the set of connected components of the complement of G[N(v)]
(Gallai 1967; Golumbic, *Algorithmic Graph Theory and Perfect Graphs*,
ch. 5), and within one such co-component every edge points at v or every
edge points away from v.

The kernel reads ``Graph``'s adjacency bitsets and edge map.  At each
centre it takes every co-component with :func:`qt2ec.graph.reach` over the
complemented bitsets, bounded by the centre's unvisited neighbours, and
links the co-component's edges, with their head/tail parity, to its first
edge: per-edge link lists with at most 4m entries, however many induced
P3s there are.  One BFS over those links from each unlabelled edge in
index order then labels the edge classes.  It gives every edge its
direction relative to its class's least edge, and an edge reached with
both directions names a class that admits no orientation.  ``Graph`` is
immutable, so the partition is computed once per graph and memoised on it;
the colouring, orientation and CLI paths all read that one result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .graph import EdgePair, Graph, induced_p3_edges, reach
from .report import CheckResult, VerificationReport

# The most classes an enumeration of the 2^k colourings or orientations takes.
DEFAULT_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class EdgeClassPartition:
    """The edge classes of a graph, ids ordered by least contained edge index.

    ``bits[e]`` is edge e's direction (0 = low->high) in its class's
    canonical orientation, the one orienting the class's least edge
    low->high.  ``contradictions[c]`` is an edge of class c that the forcing
    rule orients both ways, or None when the class is orientable.
    """

    graph: Graph
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    vertex_sets: tuple[frozenset[int], ...]
    bits: tuple[int, ...] = ()
    contradictions: tuple[EdgePair | None, ...] = ()

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_edges(self, class_id: int) -> tuple[EdgePair, ...]:
        return tuple(self.graph.edge(i) for i in self.classes[class_id])

    def class_of_pair(self, u: int, v: int) -> int:
        return self.class_of[self.graph.edge_index(u, v)]


def compute_classes(g: Graph) -> EdgeClassPartition:
    """The edge-class partition of ``g``, computed on first use and then
    memoised on the graph.

    Output is deterministic: classes are sorted by their least edge index
    and edge lists are sorted.
    """
    # The memo holds the fields, not the partition: a partition refers to
    # its graph, and that cycle would keep every dropped graph alive until
    # the cyclic collector ran.
    if g._partition is None:
        g._partition = _forcing_kernel(g)
    return EdgeClassPartition(g, *g._partition)


def _forcing_kernel(g: Graph) -> tuple:
    """The fields of ``g``'s partition after ``graph``, in declaration order."""
    adj, edge_at = g._adj_bits, g._edge_at
    co_adj = [~a for a in adj]
    # links[e] lists the edges forced together with e, each as f << 1 | rel,
    # where rel is bit(e) xor bit(f) and bit 0 orients an edge low->high.
    links: list[list[int]] = [[] for _ in range(g.m)]

    for v in range(g.n):
        left = adj[v]
        if left & (left - 1) == 0:  # fewer than two neighbours
            continue
        to_v = edge_at[v]
        while left:
            # Take the co-component of the least unvisited neighbour u0 and
            # link each member's edge to vu0.  Edge vu has its head at v iff
            # bit(vu) == (v < u), so member u has rel (v < u0) ^ (v < u).
            low = left & -left
            u0 = low.bit_length() - 1
            e0, h0 = to_v[u0], v < u0
            star = links[e0]
            comp = reach(co_adj, low, left)
            left ^= comp
            comp ^= low
            while comp:
                y = comp & -comp
                comp ^= y
                u = y.bit_length() - 1
                e, rel = to_v[u], h0 ^ (v < u)
                star.append(e << 1 | rel)
                links[e].append(e0 << 1 | rel)

    # One BFS per class, started from its least edge with bit 0, so class
    # ids follow least edges and bits come out canonical.  An edge reached
    # again with the other bit is forced both ways: the class's contradiction.
    class_of = [-1] * g.m
    bits = [0] * g.m
    members: list[list[int]] = []
    contradictions: list[EdgePair | None] = []
    for start in range(g.m):
        if class_of[start] >= 0:
            continue
        cid = len(members)
        class_of[start] = cid
        clash = None
        queue = [start]
        for x in queue:
            bit = bits[x]
            for link in links[x]:
                f = link >> 1
                b = bit ^ (link & 1)
                if class_of[f] < 0:
                    class_of[f] = cid
                    bits[f] = b
                    queue.append(f)
                elif bits[f] != b and clash is None:
                    clash = f
        queue.sort()
        members.append(queue)
        contradictions.append(None if clash is None else g.edge(clash))
    pairs = g.edges
    vertex_sets = tuple(frozenset([x for e in edges for x in pairs[e]]) for edges in members)
    classes = tuple(tuple(edges) for edges in members)
    return tuple(class_of), classes, vertex_sets, tuple(bits), tuple(contradictions)


def class_of_edge(p: EdgeClassPartition, e: EdgePair) -> tuple[EdgePair, ...]:
    """The full class containing edge ``e``, as sorted canonical pairs."""
    return p.class_edges(p.class_of_pair(*e))


def first_straddle(g: Graph, p: EdgeClassPartition) -> tuple[int, int, int] | None:
    """The first induced P3 u-v-w, in ``induced_p3s`` order, whose edges uv
    and vw lie in different classes of ``p``; None when there is none."""
    class_of = p.class_of
    for u, v, w, i, j in induced_p3_edges(g):
        if class_of[i] != class_of[j]:
            return u, v, w
    return None


def verify_partition_laws(g: Graph, p: EdgeClassPartition) -> VerificationReport:
    """Check the structural laws every correctly computed partition obeys.

    (a) each class spans a connected subgraph; (b) incident edges from
    different classes close a triangle; (c) distinct classes have distinct
    vertex sets; (d) no induced P3 straddles two classes.  (b) and (d) are
    the same predicate, decided by one scan and reported under both names.
    Failures carry a witness; an artificially tampered partition trips (d).
    """
    if p.graph != g or len(p.class_of) != g.m:
        raise ContractError("partition does not belong to this graph")
    results: list[CheckResult] = []

    witness = None
    for cid in range(p.k):
        adj: dict[int, int] = {}
        for u, v in p.class_edges(cid):
            adj[u] = adj.get(u, 0) | 1 << v
            adj[v] = adj.get(v, 0) | 1 << u
        span = sum(1 << v for v in adj)
        if reach(adj, span & -span) != span:
            witness = f"class {cid} spans a disconnected subgraph"
            break
    results.append(CheckResult("partition-class-connected", witness is None, witness=witness))

    # Checks (b) and (d) are one predicate: incident edges from different
    # classes whose far ends are non-adjacent form a straddling induced P3.
    straddle = first_straddle(g, p)
    witness = None
    if straddle is not None:
        u, v, w = straddle
        witness = f"edges {(u, v)} and {(v, w)} differ in class but {(u, w)} is a non-edge"
    results.append(CheckResult("partition-cross-class-adjacency", witness is None, witness=witness))

    # Distinct classes may share a vertex set only inside one component, so
    # the global comparison is exactly the per-component law.
    witness = None
    seen: dict[frozenset[int], int] = {}
    for cid, verts in enumerate(p.vertex_sets):
        if verts in seen:
            witness = f"classes {seen[verts]} and {cid} share vertex set {sorted(verts)}"
            break
        seen[verts] = cid
    results.append(CheckResult("partition-distinct-vertex-sets", witness is None, witness=witness))

    witness = None if straddle is None else f"induced P3 {straddle} straddles two classes"
    results.append(CheckResult("partition-p3-same-class", witness is None, witness=witness))
    return VerificationReport(results)
