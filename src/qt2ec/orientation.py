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
from collections.abc import Iterable, Iterator

from .classes import DEFAULT_ENUMERATION_CAP, EdgeClassPartition, compute_classes
from .errors import ContractError, InfeasibilityError, RefusalError
from .graph import EdgePair, Graph, induced_p3_edges


class Orientation(namedtuple("Orientation", "graph bits")):
    """A partial or total arc assignment, one optional bit per edge index
    (0 = low->high, 1 = high->low, None = unoriented)."""

    __slots__ = ()

    def __new__(cls, graph: Graph, bits: tuple[int | None, ...]) -> Orientation:
        if len(bits) != graph.m:
            raise ContractError(f"orientation covers {len(bits)} edges, graph has {graph.m}")
        try:
            valid = set(bits) <= {0, 1, None}
        except TypeError:  # an unhashable value; the loop below names it
            valid = False
        if not valid:
            for b in bits:
                if b not in (0, 1, None):
                    raise ContractError(f"invalid direction bit {b!r}")
        return tuple.__new__(cls, (graph, bits))

    @classmethod
    def from_arcs(cls, g: Graph, arcs: Iterable[tuple[int, int]]) -> "Orientation":
        bits: list[int | None] = [None] * g.m
        for tail, head in arcs:
            idx = g.edge_index(tail, head)
            bit = 0 if (tail, head) == g.edge(idx) else 1
            if bits[idx] is not None and bits[idx] != bit:
                raise ContractError(f"edge {g.edge(idx)} oriented both ways")
            bits[idx] = bit
        return cls(g, tuple(bits))

    @property
    def is_total(self) -> bool:
        return all(b is not None for b in self.bits)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b is not None)

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for i, b in enumerate(self.bits):
            if b is None:
                continue
            u, v = self.graph.edge(i)
            out.append((u, v) if b == 0 else (v, u))
        return out

    def arc_of(self, u: int, v: int) -> tuple[int, int] | None:
        idx = self.graph.edge_index(u, v)
        b = self.bits[idx]
        if b is None:
            return None
        a, c = self.graph.edge(idx)
        return (a, c) if b == 0 else (c, a)

    def reversed(self) -> "Orientation":
        return Orientation(
            self.graph, tuple(None if b is None else 1 - b for b in self.bits)
        )

    def restricted_to(self, edge_indices: Iterable[int]) -> "Orientation":
        keep = set(edge_indices)
        return Orientation(
            self.graph,
            tuple(b if i in keep else None for i, b in enumerate(self.bits)),
        )

    def format_arcs(self) -> str:
        g = self.graph
        return "\n".join(f"{g.label(t)} -> {g.label(h)}" for t, h in self.arcs())


class OrientationFeasibility(namedtuple("OrientationFeasibility", "partition")):
    """Per-class consistency verdicts of an :class:`EdgeClassPartition`;
    the total count is 2^k or 0."""

    __slots__ = ()

    @property
    def contradictions(self) -> tuple[EdgePair | None, ...]:
        return self.partition.contradictions

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def orientable(self) -> bool:
        return all(w is None for w in self.contradictions)

    @property
    def count(self) -> int:
        return (1 << self.k) if self.orientable else 0

    def class_consistent(self, class_id: int) -> bool:
        return self.contradictions[class_id] is None


def is_quasi_transitive_orientation(
    g: Graph, o: Orientation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Definitional check: no induced P3 may form a directed 2-path.

    Equivalently the centre of every induced P3 is a common head or a
    common tail.  Returns a violating triple on failure.
    """
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
    u, v = seed
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
    return Orientation(g, tuple(bits))


def orientability(g: Graph) -> OrientationFeasibility:
    """Decide per class whether a consistent orientation exists.

    The graph is quasi-transitively orientable (a comparability graph) iff
    no class contradicts itself, and then has exactly 2^k orientations.
    """
    return OrientationFeasibility(compute_classes(g))


def enumerate_orientations(
    g: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Orientation]:
    """Yield all quasi-transitive orientations in class-bitmask order.

    Per class the canonical choice orients the class's least edge
    low->high; mask bit i = 1 reverses class i.  Refuses non-orientable
    graphs and k above the cap.
    """
    feas = orientability(g)
    if not feas.orientable:
        raise RefusalError("graph has no quasi-transitive orientation")
    if feas.k > cap:
        raise RefusalError(f"enumeration cap exceeded: {feas.k} classes > cap {cap}")
    return _orientation_stream(g, feas.partition)


def _orientation_stream(g: Graph, p: EdgeClassPartition) -> Iterator[Orientation]:
    for mask in range(1 << p.k):
        yield Orientation(
            g,
            tuple(p.bits[e] ^ ((mask >> p.class_of[e]) & 1) for e in range(g.m)),
        )


def same_gamma_class(g: Graph, e: EdgePair, f: EdgePair) -> bool:
    """True iff the partial orientations generated from ``e`` and ``f``
    orient the same edge set, i.e. the edges share a class."""
    feas = orientability(g)
    ce = feas.partition.class_of_pair(*e)
    cf = feas.partition.class_of_pair(*f)
    for cid in (ce, cf):
        if not feas.class_consistent(cid):
            raise InfeasibilityError(
                f"class of edge {g.edge(feas.partition.classes[cid][0])} admits no orientation",
                edge=feas.contradictions[cid],
            )
    return ce == cf
