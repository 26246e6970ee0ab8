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

At each centre one walk numbers every star.  It grows each co-component
from the least unvisited neighbour: a popped member u adds the unvisited
neighbours of the centre that u is not adjacent to, ``left ^ (left &
adj[u])``, so no complemented row is ever built.  The walk hands out the
star id as it goes, and every neighbour of the centre is visited once.
Every upper edge of the centre starts out in the first star, and a later
star overwrites only its own members' slots.  So when the first star
takes the whole neighbourhood, as it does at most centres of a dense
graph, the rest of its walk visits only the lower neighbours, whose edges
still need linking.  One BFS over the star graph from the low star of each
unlabelled edge, in edge order, then labels the classes, and C-level maps
over the low stars give every edge its class and bit.

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
from .graph import EdgePair, Graph, check_index

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
        members = self.classes[check_index(class_id, self.k, "class")]
        return tuple(map(self.graph.edges.__getitem__, members))

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
    it.  Raises when called, in order: a cap that is not an int or is
    negative, with ``oriented`` a class that has no orientation, and more
    than ``cap`` classes."""
    if type(cap) is not int:
        raise ContractError(f"enumeration cap must be an int, got {cap!r}")
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
        first = s = len(links)
        # Every upper edge's low star starts as the first star; a later
        # star overwrites the slots of its own members only.
        low += [s] * (left >> v).bit_count()
        while left:
            # The next star grows from the least unvisited neighbour.  A
            # popped member u adds its unvisited non-neighbours, the bits
            # of left that adj[u] lacks.  A member below v links the star
            # to the one at the edge's low end.
            comp = left & -left
            left ^= comp
            centre.append(v)
            mine: list[int] = []
            links.append(mine)
            while comp:
                y = comp & -comp
                comp ^= y
                u = y.bit_length() - 1
                if left:
                    keep = left & adj[u]
                    if keep != left:
                        comp |= left ^ keep
                        left = keep
                        if not left and s == first:
                            # The first star holds every edge at v: only
                            # its members below v are left to link.
                            comp &= (1 << v) - 1
                if u < v:
                    a = low[to_v[u]]
                    links[a].append(s)
                    mine.append(a)
                elif s != first:
                    low[to_v[u]] = s
            s += 1

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
