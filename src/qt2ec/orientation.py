"""Quasi-transitive orientations: the head-sharing forcing rule, partial
orientations generated by a seed arc, feasibility, counting, enumeration.

Direction bits are relative to the canonical low->high edge order (bit 0 =
low->high).  An induced P3 forces its two edges to share a head or share a
tail at the centre, which is a parity constraint between their bits, so a
class is orientable exactly when its constraints contain no odd cycle.  The
co-component forcing kernel of :mod:`qt2ec.classes` decides that for every
class at once and records each class's canonical orientation; the readers
here look those up from the partition memoised on the graph.  Only the
definitional validity check scans induced P3s itself.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence

from .classes import DEFAULT_ENUMERATION_CAP, class_choices, compute_classes
from .errors import ContractError, InfeasibilityError
from .graph import Graph, check_edge_record, check_index, check_type, induced_p3_edges


class Orientation(namedtuple("Orientation", "graph bits")):
    """A partial or total arc assignment, one optional bit per edge index
    (0 = low->high, 1 = high->low, None = unoriented)."""

    __slots__ = ()

    def __new__(cls, graph: Graph, bits: Iterable[int | None]) -> Orientation:
        bits = check_edge_record(graph, bits, (0, 1, None), "orientation", "direction bit")
        return tuple.__new__(cls, (graph, bits))

    @property
    def is_total(self) -> bool:
        return all(b is not None for b in self.bits)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b is not None)

    def arcs(self) -> list[tuple[int, int]]:
        pairs = zip(self.graph.edges, self.bits)
        return [(u, v) if b == 0 else (v, u) for (u, v), b in pairs if b is not None]

    def reversed(self) -> "Orientation":
        return Orientation._make(
            (self.graph, tuple(None if b is None else 1 - b for b in self.bits))
        )

    def format_arcs(self, sep: str = "\n") -> str:
        g = self.graph
        return arc_formatter(g, g.vertex_names(), ARC_TEXT, sep)(self.bits)


# An arc as text: its tail's name, then its head's.
ARC_TEXT = "{} -> {}"


def arc_formatter(
    g: Graph, names: Sequence[str], template: str, sep: str
) -> Callable[[tuple[int | None, ...]], str]:
    """A function from an orientation's bits to its arcs joined by ``sep``,
    each arc ``template`` filled with the names of its tail and its head.

    Each edge's two arc strings are made here, once, so a listing of many
    orientations only picks one string per edge by its bit and joins them.
    The unoriented edges of a partial orientation are skipped.
    """
    fill = template.format
    pairs = [(fill(names[u], names[v]), fill(names[v], names[u])) for u, v in g.edges]
    pick = tuple.__getitem__

    def format_bits(bits: tuple[int | None, ...]) -> str:
        try:
            return sep.join(map(pick, pairs, bits))
        except TypeError:  # a None bit cannot pick: a partial orientation
            return sep.join([pair[b] for pair, b in zip(pairs, bits) if b is not None])

    return format_bits


class OrientationFeasibility(namedtuple("OrientationFeasibility", "partition")):
    """Per-class consistency verdicts of an :class:`EdgeClassPartition`;
    the total count is 2^k or 0."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def orientable(self) -> bool:
        return all(w is None for w in self.partition.contradictions)

    @property
    def count(self) -> int:
        return (1 << self.k) if self.orientable else 0

    def class_consistent(self, class_id: int) -> bool:
        return self.partition.contradictions[check_index(class_id, self.k, "class")] is None


def is_quasi_transitive_orientation(
    g: Graph, o: Orientation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Definitional check: no induced P3 may form a directed 2-path.

    Equivalently the centre of every induced P3 is a common head or a
    common tail.  Returns a violating triple on failure.
    """
    check_type(g, Graph, "is_quasi_transitive_orientation")
    check_type(o, Orientation, "is_quasi_transitive_orientation")
    if o.graph != g:
        raise ContractError("orientation belongs to a different graph")
    if not o.is_total:
        raise ContractError("orientation must be total")
    # Bit 0 heads an edge at its high end, so v is a common head or tail
    # iff the bits differ exactly when v is the high end of one edge only.
    for u, v, w, i, j in induced_p3_edges(g):
        if o.bits[i] ^ o.bits[j] != ((u < v) != (w < v)):  # type: ignore[operator]
            return False, (u, v, w)
    return True, None


def partial_orientation(g: Graph, seed: tuple[int, int]) -> Orientation:
    """The unique partial quasi-transitive orientation generated by the arc
    ``seed = (u, v)`` (oriented u -> v).

    The forcing closure of ``uv`` orients exactly its edge class, so this is
    the class's canonical orientation, reversed when the seed arc points
    the other way.  A class that admits no orientation raises
    InfeasibilityError carrying an edge the forcing orients both ways.
    """
    try:
        u, v = seed
    except (TypeError, ValueError):
        raise ContractError(f"seed arc {seed!r} is not a pair of vertex ids") from None
    p = compute_classes(g)
    start = g.edge_index(u, v)
    cid = p.class_of[start]
    clash = p.contradictions[cid]
    if clash is not None:
        raise InfeasibilityError(f"edge {clash} is forced both ways", edge=clash)
    flip = p.bits[start] ^ (0 if (u, v) == g.edge(start) else 1)
    bits: list[int | None] = [None] * g.m
    for e in p.classes[cid]:
        bits[e] = p.bits[e] ^ flip
    return Orientation._make((g, tuple(bits)))


def orientability(g: Graph) -> OrientationFeasibility:
    """Decide per class whether a consistent orientation exists.

    The graph is quasi-transitively orientable (a comparability graph) iff
    no class contradicts itself, and then has exactly 2^k orientations.
    """
    return OrientationFeasibility(compute_classes(g))


def enumerate_orientations(
    g: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Orientation]:
    """The 2^k orientations, each class reversed from its canonical one where
    :func:`class_choices` gives it bit 1 (which refuses a graph with no
    orientation); valid by construction, they skip the check."""
    return (Orientation._make((g, bits)) for bits in class_choices(compute_classes(g), cap, oriented=True))
