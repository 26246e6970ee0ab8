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

The kernel works over stars.  A star is one pair (centre v, co-component C
of N(v)), and it holds the edges from v to C.  Every edge lies in exactly
two stars, one at each end.  Let sigma(s) say that the edges of star s point
at its centre.  An edge's head is at the centre of one of its two stars and
its tail at the other, so its two stars have opposite sigma.  A class is
then a connected component of the star graph, which has one node per star
and one link per edge.  The class is orientable iff its component is
bipartite, and an edge's direction bit is the colour of the star at its
low end.

At each centre the kernel first takes the co-component of the least
neighbour with :func:`qt2ec.graph.reach` over the complemented bitsets.
When that is the whole neighbourhood, the centre is one star: its upper
edges get its id all at once, with no walk over the members, and only its
edges to lower neighbours are linked one by one.  Otherwise the centre has
several stars, and one walk numbers them all.  It starts from the
co-component that ``reach`` returned, which has nothing left to grow, then
grows each later one from its least unvisited neighbour, adding each
popped member's unvisited non-neighbours, and hands out the star id in
that same walk, so every neighbour of the centre is visited once.  One BFS
over the star graph from the low star of each unlabelled edge, in edge
order, then labels the classes, and C-level maps over the low stars give
every edge its class and bit.

``Graph`` is immutable, so the partition is computed once per graph and
memoised on it; the colouring, orientation and CLI paths all read that one
result.  Both enumerations are maps over :func:`class_choices`, the one
walk over the 2^k choices of one bit per class.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import product
from operator import itemgetter, xor

from .errors import ContractError, RefusalError
from .graph import EdgePair, Graph, reach

# The most classes an enumeration of the 2^k colourings or orientations takes.
DEFAULT_ENUMERATION_CAP = 20


class EdgeClassPartition(
    namedtuple("EdgeClassPartition", "graph class_of classes vertex_sets bits contradictions")
):
    """The edge classes of a graph, ids ordered by least contained edge index.

    ``bits[e]`` is edge e's direction (0 = low->high) in its class's
    canonical orientation, the one orienting the class's least edge
    low->high.  ``contradictions[c]`` is None when class c is orientable.
    Otherwise it is the class's least edge, which the forcing rule orients
    both ways: in a class with an odd cycle of forcings, every edge is
    reached with both bits from any seed.  The bits inside such a class
    carry no meaning.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_edges(self, class_id: int) -> tuple[EdgePair, ...]:
        return tuple(map(self.graph.edges.__getitem__, self.classes[class_id]))

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


def class_choices(p: EdgeClassPartition, cap: int, oriented: bool = False) -> Iterator[tuple]:
    """For each mask 0..2^k-1 in turn, each edge's class's bit of it (bit i
    is class i's), or with ``oriented`` the edge's canonical bit flipped by
    it.  Raises when called, in order: a negative cap, with ``oriented`` a
    class that has no orientation, and more than ``cap`` classes."""
    if cap < 0:
        raise ContractError(f"enumeration cap must be at least 0, got {cap}")
    if oriented and any(w is not None for w in p.contradictions):
        raise RefusalError("graph has no quasi-transitive orientation")
    if p.k > cap:
        raise RefusalError(f"enumeration cap exceeded: {p.k} classes > cap {cap}")
    # product varies its last place fastest: place k-1-i is mask bit i.
    # itemgetter gives a tuple only when it picks two places or more.
    places = [p.k - 1 - c for c in p.class_of]
    pick = itemgetter(*places) if len(places) > 1 else lambda mask: tuple(mask[i] for i in places)
    masks = product((0, 1), repeat=p.k)
    if oriented:
        return (tuple(map(xor, p.bits, pick(mask))) for mask in masks)
    return map(pick, masks)


def _forcing_kernel(g: Graph) -> tuple:
    """The fields of ``g``'s partition after ``graph``, in declaration order."""
    adj, edge_at = g._adj_bits, g._edge_at
    # Complement rows masked to the vertex range: CPython's bitwise
    # operations are slower on negative ints, which ~a would give.
    full = (1 << g.n) - 1
    co_adj = [full ^ a for a in adj]
    # Star s is one co-component of the neighbourhood of centre[s].
    # links[s] holds the star at the far end of each of s's edges, and
    # low[e] the star at edge e's low end.  A vertex's upper edges have
    # consecutive indices, so low fills up in edge order.
    centre: list[int] = []
    links: list[list[int]] = []
    low: list[int] = []
    for v in range(g.n):
        left = adj[v]
        if not left:
            continue
        to_v = edge_at[v]
        s = len(links)
        comp = reach(co_adj, left & -left, left)
        if comp == left:
            # One star holds every edge at v.  Its edges to lower
            # neighbours reach the stars already made at their low ends.
            centre.append(v)
            down = []
            for u, e in to_v.items():
                if u > v:
                    break
                a = low[e]
                down.append(a)
                links[a].append(s)
            links.append(down)
            low += [s] * (len(to_v) - len(down))
        else:
            # Several stars.  A member above v fills in its edge's low
            # star, whose slot is reserved here; a member below v links
            # the new star to its own.  Each star grows from its seed as
            # it is walked: a popped member adds its unvisited
            # non-neighbours.  The first star's seed is the whole
            # co-component that reach found, so it has none left to add;
            # each later star's seed is its least member.
            low += [0] * (left >> v).bit_count()
            while left:
                left ^= comp
                centre.append(v)
                links.append([])
                while comp:
                    y = comp & -comp
                    comp ^= y
                    u = y.bit_length() - 1
                    grow = co_adj[u] & left
                    if grow:
                        comp |= grow
                        left ^= grow
                    e = to_v[u]
                    if u > v:
                        low[e] = s
                    else:
                        a = low[e]
                        links[a].append(s)
                        links[s].append(a)
                s += 1
                comp = left & -left

    # One BFS per class over the stars, started with colour 0 from the low
    # star of the least edge not yet labelled, so class ids follow least
    # edges and each least edge gets bit 0: bits[e] is the colour of e's
    # low star.  A link between two stars of one colour closes an odd cycle,
    # and then the class has no orientation.
    label = [-1] * len(links)
    colour = [0] * len(links)
    vertex_sets: list[frozenset[int]] = []
    contradictions: list[EdgePair | None] = []
    for e, s in enumerate(low):
        if label[s] >= 0:
            continue
        cid = len(vertex_sets)
        label[s] = cid
        odd = False
        queue = [s]
        for x in queue:
            c = colour[x] ^ 1
            for t in links[x]:
                if label[t] < 0:
                    label[t] = cid
                    colour[t] = c
                    queue.append(t)
                elif colour[t] != c:
                    odd = True
        vertex_sets.append(frozenset(map(centre.__getitem__, queue)))
        contradictions.append(g.edges[e] if odd else None)
    class_of = tuple(map(label.__getitem__, low))
    if len(vertex_sets) == 1:
        classes = (tuple(range(g.m)),)
    else:
        members: list[list[int]] = [[] for _ in vertex_sets]
        for e, cid in enumerate(class_of):
            members[cid].append(e)
        classes = tuple(map(tuple, members))
    bits = tuple(map(colour.__getitem__, low))
    return class_of, classes, tuple(vertex_sets), bits, tuple(contradictions)
