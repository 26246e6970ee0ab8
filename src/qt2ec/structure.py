"""Pairwise class-intersection analysis and the structural laws every
computed partition obeys.

For two edge classes the vertex sets split into the two exclusive sides and
the shared part; when all three pieces are nonempty ("crossing") strong
structural laws apply.  The three verifiers here take ``(g, p)`` and are
sweep checks as they stand; the three-class check lives in ``oracle``.
This module belongs to the verification half: the fast-path modules never
import it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .classes import EdgeClassPartition
from .errors import ContractError
from .graph import Graph, check_index, check_type, induced_p3_edges, reach
from .report import CheckResult, verdict

DISJOINT = "disjoint"
NESTED = "nested"
CROSSING = "crossing"


class ClassPairRelation(namedtuple("ClassPairRelation", "first second only_first only_second shared")):
    """How the vertex sets of two classes overlap."""

    __slots__ = ()

    @property
    def tag(self) -> str:
        if not self.shared:
            return DISJOINT
        if not self.only_first or not self.only_second:
            return NESTED
        return CROSSING


def class_pair_relation(
    g: Graph, p: EdgeClassPartition, c: int, d: int
) -> ClassPairRelation:
    check_type(g, Graph, "class_pair_relation")
    check_type(p, EdgeClassPartition, "class_pair_relation")
    if p.graph != g:
        raise ContractError("partition does not belong to this graph")
    check_index(c, p.k, "class")
    check_index(d, p.k, "class")
    if c == d:
        raise ContractError("class pair must be distinct")
    vc, vd = p.vertex_sets[c], p.vertex_sets[d]
    return ClassPairRelation(c, d, vc - vd, vd - vc, vc & vd)


def crossing_pairs(g: Graph, p: EdgeClassPartition) -> list[ClassPairRelation]:
    """The relations of the crossing class pairs c < d, in (c, d) order:
    the package's one scan for them.  Two vertex sets cross when they
    meet and neither holds the other, so only a crossing pair gets its
    relation built."""
    check_type(g, Graph, "crossing_pairs")
    check_type(p, EdgeClassPartition, "crossing_pairs")
    if p.graph != g:
        raise ContractError("partition does not belong to this graph")
    sets = p.vertex_sets
    out = []
    for c in range(p.k):
        vc = sets[c]
        for d in range(c + 1, p.k):
            vd = sets[d]
            if not (vc.isdisjoint(vd) or vc <= vd or vd <= vc):
                out.append(ClassPairRelation(c, d, vc - vd, vd - vc, vc & vd))
    return out


def _induces_join(g: Graph, vertices: frozenset[int]) -> bool:
    """A join splits into two nonempty parts with every cross pair adjacent,
    i.e. the complement of the induced subgraph is disconnected."""
    if len(vertices) < 2:
        return False
    inside = sum(1 << v for v in vertices)
    co_adj = [inside & ~g.adjacency_bits(v) for v in range(g.n)]
    return reach(co_adj, inside & -inside, inside) != inside


def check_crossing_lemmas(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    """Assert the five structural laws of every crossing class pair: five
    records per pair, in ``crossing_pairs`` order, and none when no pair
    crosses.

    (a) neither class has an edge inside the shared part; (b) each
    exclusive side is joined to the whole other class's vertex set; (c)
    every class edge touches the shared part; (d) none of the three pieces
    induces a join; (e) all side-to-side edges lie in one further class.
    """
    results: list[CheckResult] = []
    for rel in crossing_pairs(g, p):
        c, d = rel.first, rel.second
        shared, a_side, b_side = rel.shared, rel.only_first, rel.only_second

        inside = avoids = None
        for cid in (c, d):
            for u, v in p.class_edges(cid):
                touches = (u in shared) + (v in shared)
                if touches == 2 and inside is None:
                    inside = f"class {cid} edge {(u, v)} lies inside the intersection"
                elif touches == 0 and avoids is None:
                    avoids = f"class {cid} edge {(u, v)} avoids the intersection"

        # The first missing neighbour of u in the other class is the lowest
        # set bit of that class's vertex bits outside u's adjacency row.
        gap = None
        for side, other in ((a_side, p.vertex_sets[d]), (b_side, p.vertex_sets[c])):
            other_bits = sum(1 << v for v in other)
            for u in sorted(side):
                missing = other_bits & ~g.adjacency_bits(u)
                if missing:
                    v = (missing & -missing).bit_length() - 1
                    gap = f"vertex {u} not adjacent to {v}"
                    break
            if gap:
                break

        join = None
        for name, piece in (("A", a_side), ("B", b_side), ("I", shared)):
            if _induces_join(g, piece):
                join = f"piece {name} = {sorted(piece)} induces a join"
                break

        spread = None
        cross_classes = {
            p.class_of_pair(u, v)
            for u in a_side
            for v in b_side
            if g.has_edge(u, v)
        }
        if len(cross_classes) > 1:
            spread = f"side-to-side edges span classes {sorted(cross_classes)}"

        laws = (
            ("crossing-no-edge-inside-intersection", inside),
            ("crossing-sides-joined", gap),
            ("crossing-edges-touch-intersection", avoids),
            ("crossing-no-piece-is-join", join),
            ("crossing-cross-edges-one-class", spread),
        )
        results.extend(verdict(name, w) for name, w in laws)
    return results


TINY_LEMMA_HYPOTHESES = (
    "u,v,y in shared part; x only in second class's vertex set; "
    "uv,vx in second class; vy an edge outside it; uy in first class"
)


def check_tinylemma_instances(
    g: Graph, p: EdgeClassPartition
) -> list[CheckResult]:
    """Scan every configuration matching the small adjacency lemma's
    hypotheses and assert the forced edge ux exists.

    Each crossing pair plays both roles, (ce, cf) and (cf, ce), in (cf, ce)
    order.  Crossing law (a) rules out the cf edge inside the shared part
    that the hypotheses need, so on a correct partition every graph has
    zero instances; the instance count is recorded in the result detail.
    A test pins that implication: on seeded random groupings of the edges,
    every partition with an instance also fails law (a).
    """
    roles = []  # (cf, ce, cf's exclusive side, shared part)
    for rel in crossing_pairs(g, p):
        roles.append((rel.second, rel.first, rel.only_second, rel.shared))
        roles.append((rel.first, rel.second, rel.only_first, rel.shared))
    roles.sort(key=lambda role: role[:2])
    instances = 0
    witness = None
    for cf, ce, b_side, shared in roles:
        for a, b in p.class_edges(cf):
            if a not in shared or b not in shared:
                continue
            for u, v in ((a, b), (b, a)):
                for x in g.neighbors(v):
                    if x not in b_side or p.class_of_pair(v, x) != cf:
                        continue
                    for y in g.neighbors(v):
                        if y not in shared or y == u:
                            continue
                        if p.class_of_pair(v, y) == cf:
                            continue
                        if not g.has_edge(u, y) or p.class_of_pair(u, y) != ce:
                            continue
                        instances += 1
                        if witness is None and not g.has_edge(u, x):
                            witness = f"u={u} v={v} x={x} y={y}: edge ({u}, {x}) missing"
    detail = f"instances={instances}; hypotheses: {TINY_LEMMA_HYPOTHESES}"
    return [verdict("tinylemma-forced-edge", witness, detail)]


def first_straddle(g: Graph, p: EdgeClassPartition) -> tuple[int, int, int] | None:
    """The first induced P3 u-v-w, in ``induced_p3s`` order, whose edges uv
    and vw lie in different classes of ``p``; None when there is none.

    The answer is cached for the last graph and class ids, so partition
    law (d) and ``shortest-path-single-class`` share one scan per sweep
    graph."""
    return _first_straddle(g, tuple(p.class_of))


@lru_cache(maxsize=1)
def _first_straddle(g: Graph, class_of: tuple[int, ...]) -> tuple[int, int, int] | None:
    for u, v, w, i, j in induced_p3_edges(g):
        if class_of[i] != class_of[j]:
            return u, v, w
    return None


def verify_partition_laws(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    """Check the structural laws every correctly computed partition obeys.

    (a) each class spans a connected subgraph; (b) incident edges from
    different classes close a triangle; (c) distinct classes have distinct
    vertex sets; (d) no induced P3 straddles two classes.  (b) and (d) are
    the same predicate, decided by one scan and reported under both names.
    Failures carry a witness; an artificially tampered partition trips (d).
    """
    check_type(g, Graph, "verify_partition_laws")
    check_type(p, EdgeClassPartition, "verify_partition_laws")
    if p.graph != g or len(p.class_of) != g.m:
        raise ContractError("partition does not belong to this graph")
    results: list[CheckResult] = []

    # Each class's own adjacency rows and the bits of the vertices it spans.
    witness = None
    edges = g.edges
    for cid, members in enumerate(p.classes):
        adj = [0] * g.n
        span = 0
        for e in members:
            u, v = edges[e]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            span |= 1 << u | 1 << v
        if reach(adj, span & -span) != span:
            witness = f"class {cid} spans a disconnected subgraph"
            break
    results.append(verdict("partition-class-connected", witness))

    # Checks (b) and (d) are one predicate: incident edges from different
    # classes whose far ends are non-adjacent form a straddling induced P3.
    straddle = first_straddle(g, p)
    witness = None
    if straddle is not None:
        u, v, w = straddle
        witness = f"edges {(u, v)} and {(v, w)} differ in class but {(u, w)} is a non-edge"
    results.append(verdict("partition-cross-class-adjacency", witness))

    # Distinct classes may share a vertex set only inside one component, so
    # the global comparison is exactly the per-component law.
    witness = None
    seen: dict[frozenset[int], int] = {}
    for cid, verts in enumerate(p.vertex_sets):
        if verts in seen:
            witness = f"classes {seen[verts]} and {cid} share vertex set {sorted(verts)}"
            break
        seen[verts] = cid
    results.append(verdict("partition-distinct-vertex-sets", witness))

    witness = None if straddle is None else f"induced P3 {straddle} straddles two classes"
    results.append(verdict("partition-p3-same-class", witness))
    return results
