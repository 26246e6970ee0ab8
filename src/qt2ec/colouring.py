"""Quasi-transitive 2-edge-colourings: validity, counting, enumeration,
classification, and homogeneous-subgraph witnesses.

A colouring is quasi-transitive when no induced P3 is bichromatic, which
happens exactly when the colouring is constant on every edge class.  All
counting therefore goes through the class partition (2^k colourings); the
exhaustive checks live in :mod:`qt2ec.oracle`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping

from .classes import DEFAULT_ENUMERATION_CAP, EdgeClassPartition, compute_classes
from .errors import ContractError, RefusalError
from .graph import EdgePair, Graph, induced_p3_edges, is_connected, is_module_set

RED = "R"
BLUE = "B"


class EdgeColouring(namedtuple("EdgeColouring", "graph colours")):
    """A total map edge -> {R, B}, stored per dense edge index."""

    __slots__ = ()

    def __new__(cls, graph: Graph, colours: tuple[str, ...]) -> EdgeColouring:
        if len(colours) != graph.m:
            raise ContractError(f"colouring covers {len(colours)} edges, graph has {graph.m}")
        try:
            valid = set(colours) <= {RED, BLUE}
        except TypeError:  # an unhashable value; the loop below names it
            valid = False
        if not valid:
            for c in colours:
                if c not in (RED, BLUE):
                    raise ContractError(f"invalid colour {c!r}")
        return tuple.__new__(cls, (graph, colours))

    @classmethod
    def from_mapping(cls, g: Graph, mapping: Mapping[EdgePair, str]) -> "EdgeColouring":
        colours: list[str | None] = [None] * g.m
        for (u, v), colour in mapping.items():
            idx = g.edge_index(u, v)
            if colours[idx] is not None and colours[idx] != colour:
                raise ContractError(f"edge {g.edge(idx)} coloured twice")
            colours[idx] = colour
        if any(c is None for c in colours):
            missing = g.edge(colours.index(None))
            raise ContractError(f"partial colouring: edge {missing} has no colour")
        return cls(g, tuple(colours))  # type: ignore[arg-type]

    @classmethod
    def monochromatic(cls, g: Graph, colour: str = RED) -> "EdgeColouring":
        return cls(g, (colour,) * g.m)

    def swapped(self) -> "EdgeColouring":
        return EdgeColouring(
            self.graph, tuple(BLUE if c == RED else RED for c in self.colours)
        )


class Colourability:
    """The three classification buckets, as string constants."""

    TRIVIAL_ONLY = "TrivialOnly"
    UNIQUELY_COLOURABLE = "UniquelyColourable"
    PROPERLY_COLOURABLE = "ProperlyColourable"


class ColourabilityClass(namedtuple("ColourabilityClass", "kind class_count colouring_count")):
    """Classification bucket (a :class:`Colourability` constant) plus the
    class count k and the 2^k total."""

    __slots__ = ()

    @property
    def properly_colourable(self) -> bool:
        return self.class_count >= 2


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
    """Yield all valid colourings in class-bitmask order.

    Bit i of the mask is the colour of class i (0 = R), so the first item
    is all-R and the stream has exactly 2^k entries.
    """
    p = compute_classes(g)
    if p.k > cap:
        raise RefusalError(f"enumeration cap exceeded: {p.k} classes > cap {cap}")
    return _colouring_stream(g, p)


def _colouring_stream(g: Graph, p: EdgeClassPartition) -> Iterator[EdgeColouring]:
    for mask in range(1 << p.k):
        colours = tuple(
            BLUE if (mask >> p.class_of[e]) & 1 else RED for e in range(g.m)
        )
        yield EdgeColouring(g, colours)


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
