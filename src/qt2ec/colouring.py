"""Quasi-transitive 2-edge-colourings: validity, counting, enumeration,
classification, and homogeneous-subgraph witnesses.

A colouring is quasi-transitive when no induced P3 is bichromatic, which
happens exactly when the colouring is constant on every edge class.  All
counting therefore goes through the class partition (2^k colourings); the
exhaustive checks live in :mod:`qt2ec.oracle`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .classes import DEFAULT_ENUMERATION_CAP, class_choices, compute_classes
from .errors import ContractError, RefusalError
from .graph import Graph, check_edge_record, induced_p3_edges, is_connected, is_module_set

RED = "R"
BLUE = "B"


class EdgeColouring(namedtuple("EdgeColouring", "graph colours")):
    """A total map edge -> {R, B}, stored per dense edge index."""

    __slots__ = ()

    def __new__(cls, graph: Graph, colours: tuple[str, ...]) -> EdgeColouring:
        check_edge_record(graph, colours, (RED, BLUE), "colouring", "colour")
        return tuple.__new__(cls, (graph, colours))


class Colourability:
    """The three classification buckets, as string constants."""

    TRIVIAL_ONLY = "TrivialOnly"
    UNIQUELY_COLOURABLE = "UniquelyColourable"
    PROPERLY_COLOURABLE = "ProperlyColourable"


class ColourabilityClass(namedtuple("ColourabilityClass", "kind class_count colouring_count")):
    """Classification bucket (a :class:`Colourability` constant) plus the
    class count k and the 2^k total."""

    __slots__ = ()


def is_quasi_transitive_colouring(
    g: Graph, c: EdgeColouring
) -> tuple[bool, tuple[int, int, int] | None]:
    """Definitional validity check: no induced P3 may be bichromatic.

    Returns ``(True, None)`` or ``(False, (u, v, w))`` with a violating
    triple.  Does not consult the class partition.
    """
    if c.graph != g:
        raise ContractError("colouring belongs to a different graph")
    for u, v, w, i, j in induced_p3_edges(g):
        if c.colours[i] != c.colours[j]:
            return False, (u, v, w)
    return True, None


def count_colourings(g: Graph) -> int:
    """Number of quasi-transitive 2-edge-colourings: 2^k for k edge classes
    (the edgeless graph has exactly one, the empty map)."""
    return 1 << compute_classes(g).k


def enumerate_colourings(
    g: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[EdgeColouring]:
    """The 2^k colourings, each class blue where :func:`class_choices` gives
    it bit 1 (so all-R first); valid by construction, they skip the check."""
    colour = (RED, BLUE).__getitem__
    return (EdgeColouring._make((g, tuple(map(colour, c)))) for c in class_choices(compute_classes(g), cap))


def classify_colourability(g: Graph) -> ColourabilityClass:
    """TrivialOnly (k=1), UniquelyColourable (k=2), or ProperlyColourable(k).

    Only connected graphs with at least one edge are classified; anything
    else is refused.
    """
    if g.m == 0:
        raise RefusalError("classification requires at least one edge")
    if not is_connected(g):
        raise RefusalError("classification requires a connected graph")
    k = compute_classes(g).k
    if k == 1:
        kind = Colourability.TRIVIAL_ONLY
    elif k == 2:
        kind = Colourability.UNIQUELY_COLOURABLE
    else:
        kind = Colourability.PROPERLY_COLOURABLE
    return ColourabilityClass(kind, k, 1 << k)


def find_homogeneous_witness(g: Graph) -> frozenset[int] | None:
    """Vertex set of a proper, connected, homogeneous induced subgraph, or
    None when only trivial colourings exist.

    The witness returned is the vertex set of the first edge class that
    does not span the whole graph; with at least two classes such a class
    exists because distinct classes have distinct vertex sets.
    """
    if not is_connected(g):
        raise RefusalError("witness search requires a connected graph")
    p = compute_classes(g)
    if p.k < 2:
        return None
    everything = frozenset(range(g.n))
    for cid in range(p.k):
        if p.vertex_sets[cid] != everything:
            return p.vertex_sets[cid]
    return None


def count_homogeneous_witness_classes(g: Graph) -> int:
    """Number of edge classes whose vertex set is a valid homogeneous
    witness (proper, size in [2, n-1], connected, module)."""
    if not is_connected(g):
        raise RefusalError("witness counting requires a connected graph")
    p = compute_classes(g)
    count = 0
    for cid in range(p.k):
        verts = p.vertex_sets[cid]
        if len(verts) > g.n - 1 or len(verts) < 2:
            continue
        if not is_module_set(g, verts):
            continue
        if not is_connected(g, verts):
            continue
        count += 1
    return count
