"""Differential tests of the star forcing kernel.

The first reference is the definitional algorithm: one parity union per
induced P3, straight from ``induced_p3s``.  The kernel must reproduce its
exact partition, its per-class consistency and its canonical orientations,
on random graphs and on family graphs with hundreds of vertices; every
orientation the fast path hands out must pass the definitional validity
check.  The second is the link-list kernel that the star kernel replaced,
kept here verbatim, on the benchmark's large graph shapes and on every
labeled graph with at most six vertices.  It takes every co-component with
``reach``, while the kernel walks each one after a centre's first itself.
There, a set-based star search also gives the bits of the classes with no
orientation, which the link-list kernel numbers its own way.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qt2ec import (
    Graph,
    InfeasibilityError,
    Orientation,
    compute_classes,
    enumerate_orientations,
    induced_p3s,
    is_quasi_transitive_orientation,
    orientability,
    partial_orientation,
)
from qt2ec.families import family_from_spec
from qt2ec.graph import EdgePair, reach
from qt2ec.oracle import enumerate_labeled_graphs


def p3_reference(g: Graph) -> tuple[tuple[tuple[int, ...], ...], list[bool], list[int]]:
    """Classes ordered by least edge, per-class consistency, and each edge's
    direction relative to its class's least edge oriented low->high."""
    parent = list(range(g.m))
    parity = [0] * g.m  # bit(x) xor bit(parent[x]); bit 0 = low->high
    size = [1] * g.m

    def find(x: int) -> tuple[int, int]:
        acc = 0
        while parent[x] != x:
            acc ^= parity[x]
            x = parent[x]
        return x, acc

    clashing_roots = []
    for u, v, w in induced_p3s(g):
        i, j = g.edge_index(u, v), g.edge_index(v, w)
        # Share a head or a tail at v: bit(i) ^ bit(j) == [v is high in i] ^ [v is high in j].
        rel = (v == g.edge(i)[1]) ^ (v == g.edge(j)[1])
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri != rj:
            if size[ri] < size[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            parity[rj] = pi ^ pj ^ rel
            size[ri] += size[rj]
        elif pi ^ pj != rel:
            clashing_roots.append(ri)

    groups: dict[int, list[int]] = {}
    for e in range(g.m):
        groups.setdefault(find(e)[0], []).append(e)
    classes = tuple(tuple(members) for members in sorted(groups.values()))
    clashing = {find(r)[0] for r in clashing_roots}
    consistent = [find(members[0])[0] not in clashing for members in classes]
    bits = [0] * g.m
    for members in classes:
        base = find(members[0])[1]
        for e in members:
            bits[e] = find(e)[1] ^ base
    return classes, consistent, bits


def check_against_reference(g: Graph, rng: Random, enumeration_cap: int) -> None:
    classes, consistent, ref_bits = p3_reference(g)
    p = compute_classes(g)
    assert p.classes == classes
    assert all(p.class_of[e] == cid for cid, members in enumerate(classes) for e in members)
    assert [c is None for c in p.contradictions] == consistent
    for cid, clash in enumerate(p.contradictions):
        if clash is not None:
            assert p.class_of_pair(*clash) == cid
    feas = orientability(g)
    assert feas.count == ((1 << len(classes)) if all(consistent) else 0)

    total: list[int | None] = [None] * g.m
    for cid, members in enumerate(classes):
        seed_edge = g.edge(rng.choice(members))
        seed = seed_edge if rng.random() < 0.5 else seed_edge[::-1]
        if not consistent[cid]:
            with pytest.raises(InfeasibilityError) as excinfo:
                partial_orientation(g, seed)
            assert excinfo.value.edge in p.class_edges(cid)
            continue
        assert all(p.bits[e] == ref_bits[e] for e in members)
        gamma = partial_orientation(g, seed)
        assert gamma.domain == members
        assert seed in gamma.arcs()
        for e in members:
            total[e] = gamma.bits[e]
    if not feas.orientable:
        return
    ok, triple = is_quasi_transitive_orientation(g, Orientation(g, tuple(total)))
    assert ok, triple
    if feas.k <= enumeration_cap:
        for o in enumerate_orientations(g, cap=enumeration_cap):
            ok, triple = is_quasi_transitive_orientation(g, o)
            assert ok, triple


@st.composite
def graphs_and_rngs(draw, max_n: int = 40) -> tuple[Graph, Random]:
    """G(n, p) graphs, and permutation graphs (always orientable, often
    with many classes), with n up to ``max_n``."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    # A seeded Random, not st.randoms(): every call on the latter is a
    # separate draw, which makes shrinking a failure take minutes.
    rng = Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    else:
        pi = list(range(n))
        rng.shuffle(pi)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if pi[u] > pi[v]]
    return Graph(n, edges), rng


@given(graphs_and_rngs())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_p3_reference_on_random_graphs(case: tuple[Graph, Random]):
    g, rng = case
    check_against_reference(g, rng, enumeration_cap=6)


# Each enumerated orientation costs one definitional scan of every induced
# P3, so enumeration is checked only where 2^k scans stay cheap.
@pytest.mark.parametrize(
    "spec, enumeration_cap",
    [
        ("threshold,200", 0),
        ("complete_multipartite,40,50,60", 0),
        ("double_path_apex,150", 3),
        ("join_k1:cycle,201", 0),
    ],
)
def test_kernel_matches_p3_reference_on_large_families(spec: str, enumeration_cap: int):
    check_against_reference(family_from_spec(spec), Random(spec), enumeration_cap)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_matches_p3_reference_on_dense_random_graphs(seed: int):
    # Dense G(60, 1/2) is non-orientable with a single class: every edge
    # reaches the BFS from both sides, so a missed parity clash shows here.
    rng = Random(seed)
    g = Graph(60, [(u, v) for u in range(60) for v in range(u + 1, 60) if rng.random() < 0.5])
    p = compute_classes(g)
    assert p.k == 1 and p.contradictions[0] is not None
    check_against_reference(g, rng, enumeration_cap=0)


# ---------------------------------------------------------------------------
# the link-list kernel the star kernel replaced


def link_list_kernel(g: Graph) -> tuple:
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


def p3_parity_reach(g: Graph, seed: int) -> list[set[int]]:
    """Every bit each edge can take when ``seed`` has bit 0, by a BFS over
    (edge, bit) states along the induced-P3 parity rule of ``p3_reference``."""
    forced: list[list[tuple[int, int]]] = [[] for _ in range(g.m)]
    for u, v, w in induced_p3s(g):
        i, j = g.edge_index(u, v), g.edge_index(v, w)
        rel = (v == g.edge(i)[1]) ^ (v == g.edge(j)[1])
        forced[i].append((j, rel))
        forced[j].append((i, rel))
    reached: list[set[int]] = [set() for _ in range(g.m)]
    reached[seed].add(0)
    queue = [(seed, 0)]
    for e, bit in queue:
        for f, rel in forced[e]:
            if bit ^ rel not in reached[f]:
                reached[f].add(bit ^ rel)
                queue.append((f, bit ^ rel))
    return reached


def check_against_link_list_kernel(g: Graph) -> None:
    class_of, classes, vertex_sets, bits, contradictions = link_list_kernel(g)
    p = compute_classes(g)
    assert (p.class_of, p.classes, p.vertex_sets) == (class_of, classes, vertex_sets)
    assert [c is None for c in p.contradictions] == [c is None for c in contradictions]
    for cid, members in enumerate(p.classes):
        clash = p.contradictions[cid]
        if clash is None:
            assert all(p.bits[e] == bits[e] for e in members)
            continue
        # The least edge of a class with no orientation is forced both ways
        # from any seed in the class; the last edge serves as the seed here.
        assert clash == g.edge(members[0])
        assert p3_parity_reach(g, members[-1])[members[0]] == {0, 1}


@given(graphs_and_rngs())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_the_link_list_kernel_on_random_graphs(case: tuple[Graph, Random]):
    check_against_link_list_kernel(case[0])


def gnp(rng: Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def permutation_graph(rng: Random, n: int) -> Graph:
    pi = list(range(n))
    rng.shuffle(pi)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if pi[u] > pi[v]])


def cograph(rng: Random, n: int) -> Graph:
    """A random cotree on a shuffled vertex order: its root is a join, and
    joins and unions alternate down it, with 2-3 children per node."""
    edges: list[tuple[int, int]] = []

    def build(vertices: list[int], join: bool) -> None:
        if len(vertices) == 1:
            return
        parts = min(len(vertices), rng.choice((2, 2, 3)))
        cuts = sorted(rng.sample(range(1, len(vertices)), parts - 1))
        groups = [vertices[a:b] for a, b in zip([0] + cuts, cuts + [len(vertices)])]
        for group in groups:
            build(group, not join)
        if join:
            edges.extend(
                (u, v) for i, a in enumerate(groups) for b in groups[i + 1:] for u in a for v in b
            )

    order = list(range(n))
    rng.shuffle(order)
    build(order, True)
    return Graph(n, edges)


# The shapes of the benchmark's kernel-large workload, at its largest sizes
# and up to n = 200: dense and sparse G(n, p) (one class, no orientation),
# and orientable graphs with many classes and many stars per centre.
LARGE_SHAPES = {
    "gnp-dense": lambda rng: gnp(rng, 70, 0.5),
    "gnp-sparse": lambda rng: gnp(rng, 200, 8 / 200),
    "permutation": lambda rng: permutation_graph(rng, 65),
    "cograph": lambda rng: cograph(rng, 70),
    "threshold": lambda rng: family_from_spec("threshold,200"),
    "multipartite": lambda rng: family_from_spec("complete_multipartite,2,5,9,13,17,21,25,28"),
    "double-path-apex": lambda rng: family_from_spec("double_path_apex,99"),
}


@pytest.mark.parametrize("shape", sorted(LARGE_SHAPES))
def test_kernel_matches_the_link_list_kernel_on_large_shapes(shape: str):
    rng = Random(shape)
    for _ in range(2):
        check_against_link_list_kernel(LARGE_SHAPES[shape](rng))


def star_distance_bits(g: Graph) -> list[int]:
    """Each edge's bit as the star kernel defines it, from stars found here
    by a set-based search of each neighbourhood's complement: the parity of
    the star-graph distance from the low star of the least edge of the
    edge's class to the edge's own low star.  On an orientable class that
    is the canonical orientation.  On the others it is the meaning of the
    kernel's bits, which the link-list kernel does not share."""
    star_at: dict[tuple[int, int], int] = {}  # (centre, member) -> star
    stars = 0
    for v in range(g.n):
        todo = set(g.neighbors(v))
        while todo:
            comp = [min(todo)]
            todo.remove(comp[0])
            for u in comp:
                apart = [w for w in todo if not g.has_edge(u, w)]
                todo.difference_update(apart)
                comp += apart
            for u in comp:
                star_at[v, u] = stars
            stars += 1
    links: list[list[int]] = [[] for _ in range(stars)]
    for u, v in g.edges:
        links[star_at[u, v]].append(star_at[v, u])
        links[star_at[v, u]].append(star_at[u, v])
    dist: dict[int, int] = {}
    bits = []
    for u, v in g.edges:
        s = star_at[u, v]
        if s not in dist:
            # The least edge of a class not yet reached.
            dist[s] = 0
            queue = [s]
            for x in queue:
                for t in links[x]:
                    if t not in dist:
                        dist[t] = dist[x] + 1
                        queue.append(t)
        bits.append(dist[s] & 1)
    return bits


def test_kernel_matches_the_link_list_kernel_on_every_labeled_graph_up_to_six_vertices():
    # All 2^15 labeled graphs at n = 6, disconnected ones included.
    graphs = 0
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            graphs += 1
            class_of, classes, vertex_sets, ref_bits, clashes = link_list_kernel(g)
            p = compute_classes(g)
            assert (p.class_of, p.classes, p.vertex_sets) == (class_of, classes, vertex_sets)
            # A class with no orientation names its least edge, wherever
            # the reference found its clash.
            assert p.contradictions == tuple(
                None if clash is None else g.edge(members[0])
                for clash, members in zip(clashes, classes)
            )
            assert list(p.bits) == star_distance_bits(g)
            for members, clash in zip(classes, clashes):
                if clash is None:
                    assert all(p.bits[e] == ref_bits[e] for e in members)
    assert graphs == 1 + 2 + 8 + 64 + 1024 + 2**15
