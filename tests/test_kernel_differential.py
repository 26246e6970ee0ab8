"""Differential test of the co-component forcing kernel.

The reference below is the definitional algorithm the kernel replaced: one
parity union per induced P3, straight from ``induced_p3s``.  The kernel
must reproduce its exact partition, its per-class consistency and its
canonical orientations, on random graphs and on family graphs with
hundreds of vertices; every orientation the fast path hands out must pass
the definitional validity check.
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
        assert gamma.arc_of(*seed) == seed
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
