"""Differential tests of the verification half against independent
references: the backtracking brute-force counters against the exhaustive
2^m mask loops; the subset witness oracle against its vertex-by-vertex
module test; the class-subgraph check, one union-find over the whole
graph's edges, against two per-class references, a union-find over each
class's own induced P3s and the forcing kernel run on each class as a
graph of its own; the shortest-path check's verdict against the full
shortest-path listing, and its witness against what a straddling P3 must
be; the crossing-lemmas and tinylemma checks, which share one
crossing-pair scan, against a crossing test per class pair; and a kill
count per sweep check over tampered partitions."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations, groupby
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qt2ec
from qt2ec import (
    CheckResult,
    EdgeClassPartition,
    Graph,
    RefusalError,
    SweepConfig,
    check_tinylemma_instances,
    class_pair_relation,
    compute_classes,
    orientability,
    theorem_sweep,
)
from qt2ec.families import complete
from qt2ec.graph import induced_p3_edges, induced_p3s, reach
from qt2ec.oracle import (
    ALL_CHECKS,
    MASK_CAP_EDGES,
    _sweep_worker,
    brute_force_colouring_count,
    brute_force_orientation_count,
    enumerate_labeled_graphs,
    graph_from_mask,
    sample_connected_graphs,
    subset_witness_count,
)
from qt2ec.structure import (
    CROSSING,
    DISJOINT,
    NESTED,
    TINY_LEMMA_HYPOTHESES,
    ClassPairRelation,
    _induces_join,
    crossing_pairs,
    first_straddle,
    verify_partition_laws,
)


def mask_colouring_count(g: Graph) -> int:
    """Try all 2^m colour maps; every induced P3 must be monochromatic."""
    pairs = [(g.edge_index(u, v), g.edge_index(v, w)) for u, v, w in induced_p3s(g)]
    count = 0
    for mask in range(1 << g.m):
        for i, j in pairs:
            if ((mask >> i) ^ (mask >> j)) & 1:
                break
        else:
            count += 1
    return count


def mask_orientation_count(g: Graph) -> int:
    """Try all 2^m arc maps (bit 0 = low->high); the centre of every
    induced P3 must be a common head or a common tail."""
    triples = []
    for u, v, w in induced_p3s(g):
        i = g.edge_index(u, v)
        j = g.edge_index(v, w)
        triples.append((i, j, v == g.edge(i)[1], v == g.edge(j)[1]))
    count = 0
    for mask in range(1 << g.m):
        for i, j, head_i_low, head_j_low in triples:
            head_at_v_i = head_i_low != bool((mask >> i) & 1)
            head_at_v_j = head_j_low != bool((mask >> j) & 1)
            if head_at_v_i != head_at_v_j:
                break
        else:
            count += 1
    return count


def assert_counters_agree(graphs) -> None:
    for g in graphs:
        assert brute_force_colouring_count(g) == mask_colouring_count(g), g.edges
        assert brute_force_orientation_count(g) == mask_orientation_count(g), g.edges


def test_every_labeled_graph_up_to_five_vertices():
    assert_counters_agree(
        g for n in range(1, 6) for g in enumerate_labeled_graphs(n, connected_only=False)
    )


def test_seeded_six_vertex_sample():
    assert_counters_agree(sample_connected_graphs(6, 500, seed=3))


def test_dense_seven_vertex_graphs():
    k7_minus_edge = Graph(7, [e for e in complete(7).edges if e != (5, 6)])
    assert k7_minus_edge.m == 20
    graphs = [
        k7_minus_edge,
        Graph(7, [(i, i + 1) for i in range(6)]),  # path: one class, orientable
        Graph(7, [(i, (i + 1) % 7) for i in range(7)]),  # odd cycle: no orientation
        Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (5, 6)]),  # friendship
        Graph(7, [(u, v) for u in range(3) for v in range(3, 7)] + [(0, 1), (3, 4)]),
    ]
    assert_counters_agree(graphs)


def test_counters_refuse_past_the_edge_cap():
    g = Graph(8, [e for e in complete(8).edges][: MASK_CAP_EDGES + 1])
    assert g.m == 23
    with pytest.raises(RefusalError, match=f"capped at {MASK_CAP_EDGES} edges, graph has 23"):
        brute_force_colouring_count(g)
    with pytest.raises(RefusalError, match=f"capped at {MASK_CAP_EDGES} edges, graph has 23"):
        brute_force_orientation_count(g)


def test_pool_sweep_matches_serial_sweep():
    serial = theorem_sweep(SweepConfig(max_n=4, threads=1))
    pooled = theorem_sweep(SweepConfig(max_n=4, threads=2))

    def shape(report):
        return [tuple(r)[:-1] + (r.seconds is None,) for r in report.results]

    assert pooled.meta == serial.meta
    assert shape(pooled) == shape(serial)


# Module-level checks, so a pool can pickle them by reference.


def class_count_parity(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    return [CheckResult("class-count-parity", p.k % 2 == 0, witness=f"k={p.k}")]


def process_id(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    return [CheckResult("process-id", True, detail=str(os.getpid()))]


def test_module_level_registry_runs_on_the_pool():
    registry = {
        "class-count-parity": class_count_parity,
        "colouring-count": ALL_CHECKS["colouring-count"],
    }
    serial = theorem_sweep(SweepConfig(max_n=4, threads=1), registry)
    pooled = theorem_sweep(SweepConfig(max_n=4, threads=2), registry)

    def unstamped(report):
        return [tuple(r)[:-1] for r in report.results]

    assert pooled.meta == serial.meta
    assert unstamped(pooled) == unstamped(serial)
    assert {r.check for r in pooled.results} == set(registry)
    assert not pooled.passed  # K1's zero classes pass, K2's one does not
    where = theorem_sweep(SweepConfig(max_n=3, threads=2), {"process-id": process_id})
    assert str(os.getpid()) not in {r.detail for r in where.results}


def fails_on_k5(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if g.m == 10:
        raise RuntimeError("the check broke on K5")
    return [CheckResult("fails-on-k5", True)]


def must_not_run(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    raise RuntimeError("a check ran before the corpus was listed")


def test_an_unmeetable_sample_is_refused_before_any_check_runs():
    # One graph more than the 26,704 connected six-vertex graphs.
    cfg = SweepConfig(max_n=5, sample_n6=26705)
    for threads in (1, 2):
        with pytest.raises(RefusalError, match="^fewer than 26705 connected graphs exist at n=6$"):
            theorem_sweep(replace(cfg, threads=threads), {"must-not-run": must_not_run})
        assert multiprocessing.active_children() == []


def test_the_counters_scan_and_count_once_per_sweep_graph(monkeypatch):
    # colouring-count and orientation-count share one parity table, and
    # orientation-count and final-equivalence one orientation count.
    scanned: Counter = Counter()
    counted: Counter = Counter()

    def scan(g):
        scanned[g] += 1
        return induced_p3_edges(g)

    def count(g):
        counted[g] += 1
        return brute_force_orientation_count(g)

    monkeypatch.setattr(qt2ec.oracle, "induced_p3_edges", scan)
    monkeypatch.setattr(qt2ec.oracle, "brute_force_orientation_count", count)
    qt2ec.oracle._p3_parity_table.cache_clear()
    qt2ec.oracle._orientation_count.cache_clear()
    checks = frozenset({"colouring-count", "orientation-count", "final-equivalence"})
    report = theorem_sweep(SweepConfig(max_n=5, checks=checks))
    assert len(scanned) == len(counted) == report.meta["graphs"] == 772
    assert set(scanned.values()) == set(counted.values()) == {1}


def test_no_worker_outlives_a_failed_pool_sweep():
    # A refusal comes before any check runs, when the sample asks for one
    # graph more than the 26,704 connected six-vertex graphs; a check that
    # raises in a worker comes after the workers have started.
    cfg = SweepConfig(max_n=5, checks=frozenset({"colouring-count"}), sample_n6=26705)
    refusals = []
    for threads in (1, 2):
        with pytest.raises(RefusalError) as refused:
            theorem_sweep(replace(cfg, threads=threads))
        refusals.append(str(refused.value))
        assert multiprocessing.active_children() == []
    assert refusals == ["fewer than 26705 connected graphs exist at n=6"] * 2
    with pytest.raises(RuntimeError, match="the check broke on K5"):
        theorem_sweep(SweepConfig(max_n=5, threads=2), {"fails-on-k5": fails_on_k5})
    assert multiprocessing.active_children() == []


def test_each_check_time_is_stamped_once_per_graph():
    report = theorem_sweep(SweepConfig(max_n=4))
    stamped: dict[str, int] = {}
    records: dict[str, int] = {}
    for r in report.results:
        stamped[r.graph_key] = stamped.get(r.graph_key, 0) + (r.seconds is not None)
        records[r.graph_key] = records.get(r.graph_key, 0) + 1
    assert set(stamped.values()) == {len(ALL_CHECKS)}
    assert max(records.values()) > len(ALL_CHECKS)  # partition-laws alone returns four


def test_a_multi_record_check_times_its_first_record_in_the_report():
    # partition-laws returns the partition-* records and crossing-lemmas
    # the crossing-* ones, and each family sorts together in a graph's rows.
    report = theorem_sweep(SweepConfig(max_n=5))
    multi = 0
    for (key, family), block in groupby(
        report.results, key=lambda r: (r.graph_key, r.check.split("-")[0])
    ):
        if family not in ("crossing", "partition"):
            continue
        seconds = [r.seconds for r in block]
        assert seconds[0] is not None, (key, family)
        assert seconds[1:] == [None] * (len(seconds) - 1), (key, family)
        multi += len(seconds) > 1
    assert multi == 866  # every graph's four partition-* records, and 94 crossing blocks


# ---------------------------------------------------------------------------
# subset_witness_count


def mask_loop_subset_witness_count(g: Graph) -> int:
    """Every subset of size 2..n-1, tested as a module vertex by vertex
    outside it, then for a connected induced subgraph."""
    adj = [g.adjacency_bits(v) for v in range(g.n)]
    count = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size < 2 or size > g.n - 1:
            continue
        module = True
        for v in range(g.n):
            if (mask >> v) & 1:
                continue
            hit = adj[v] & mask
            if hit != 0 and hit != mask:
                module = False
                break
        count += module and reach(adj, mask & -mask, mask) == mask
    return count


def test_subset_witness_count_matches_the_mask_loop():
    rng = Random(6)
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n, connected_only=False)]
    graphs += [graph_from_mask(6, rng.getrandbits(15)) for _ in range(500)]
    graphs += [complete(7), Graph(7), Graph(7, [(i, i + 1) for i in range(6)])]
    graphs += [graph_from_mask(7, rng.getrandbits(21)) for _ in range(5)]
    # n = 7 is the largest n the subset steps are tabled for.
    graphs += sample_connected_graphs(7, 120, seed=7)
    counts = [subset_witness_count(g) for g in graphs]
    assert counts == [mask_loop_subset_witness_count(g) for g in graphs]
    assert subset_witness_count(complete(7)) == 2**7 - 2 - 7  # every subset of size 2..6
    assert len(set(counts)) > 10
    assert len(set(counts[-120:])) > 3


def test_counters_never_run_the_forcing_kernel(monkeypatch):
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    graphs += sample_connected_graphs(6, 60, seed=17)
    expected = [
        (1 << compute_classes(g).k, orientability(g).count, mask_loop_subset_witness_count(g))
        for g in graphs
    ]

    def kernel(g):
        raise AssertionError("the forcing kernel ran")

    monkeypatch.setattr(qt2ec.classes, "_forcing_kernel", kernel)
    with pytest.raises(AssertionError, match="kernel ran"):
        compute_classes(Graph(3, [(0, 1), (1, 2)]))
    for g, counts in zip(graphs, expected):
        fresh = Graph(g.n, g.edges)  # no memoised partition
        assert (
            brute_force_colouring_count(fresh),
            brute_force_orientation_count(fresh),
            subset_witness_count(fresh),
        ) == counts, g.edges


def test_cli_import_does_not_load_the_process_pool():
    code = "import sys, qt2ec.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(qt2ec.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_worker_rows_do_not_pickle_report_objects():
    names = sorted(ALL_CHECKS)
    rows = _sweep_worker((4, 0b111111, names, ALL_CHECKS))  # K4
    assert rows and all(type(row) is tuple and len(row) == 6 for row in rows)
    assert b"qt2ec.report" not in pickle.dumps(rows)


# ---------------------------------------------------------------------------
# class-subgraph-single-class and shortest-path-single-class


def per_class_union_find_verdict(g: Graph, p: EdgeClassPartition) -> tuple[bool, str | None]:
    """Each class as a graph of its own, its edges joined by a union-find
    over that graph's induced P3s, without the forcing kernel."""
    for cid in range(p.k):
        h = Graph(g.n, p.class_edges(cid))
        parent = list(range(h.m))

        def find(e: int) -> int:
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for _, _, _, i, j in induced_p3_edges(h):
            parent[find(i)] = find(j)
        sub_k = sum(find(e) == e for e in range(h.m))
        if sub_k != 1:
            return False, f"class {cid} splits into {sub_k} classes as its own graph"
    return True, None


def per_class_kernel_verdict(g: Graph, p: EdgeClassPartition) -> tuple[bool, str | None]:
    """Each class as a graph of its own, its class count from the forcing
    kernel: one kernel call per class."""
    for cid in range(p.k):
        sub_k = compute_classes(Graph(g.n, p.class_edges(cid))).k
        if sub_k != 1:
            return False, f"class {cid} splits into {sub_k} classes as its own graph"
    return True, None


def assert_class_subgraph_check_agrees(g: Graph, p: EdgeClassPartition) -> bool:
    """The check against both per-class references; returns whether it passed."""
    expected = per_class_union_find_verdict(g, p)
    assert per_class_kernel_verdict(g, p) == expected, (g.edges, p.classes)
    assert verdict(g, p, "class-subgraph-single-class") == expected, (g.edges, p.classes)
    return expected[0]


def shortest_path_listing_verdict(g: Graph, p: EdgeClassPartition) -> tuple[bool, str | None]:
    """Every shortest x-y path, x < y, listed from one BFS per source."""
    for x in range(g.n):
        dist = {x: 0}
        order = [x]
        for v in order:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    order.append(w)
        for y in range(x + 1, g.n):
            if y not in dist:
                continue
            stack = [[y]]
            while stack:
                partial = stack.pop()
                head = partial[-1]
                if head == x:
                    path = partial[::-1]
                    cids = {p.class_of_pair(a, b) for a, b in zip(path, path[1:])}
                    if len(cids) > 1:
                        return False, f"shortest path {path} uses classes {sorted(cids)}"
                    continue
                for u in g.neighbors(head):
                    if dist.get(u) == dist[head] - 1:
                        stack.append(partial + [u])
    return True, None


def partition_of(g: Graph, groups: list[list[int]]) -> EdgeClassPartition:
    """A hand-built partition with class c holding the edge ids groups[c],
    every class read as orientable with all its bits 0."""
    class_of = [0] * g.m
    for cid, group in enumerate(groups):
        for e in group:
            class_of[e] = cid
    return EdgeClassPartition(
        g,
        tuple(class_of),
        tuple(tuple(group) for group in groups),
        tuple(frozenset(x for e in group for x in g.edge(e)) for group in groups),
        bits=(0,) * g.m,
        contradictions=(None,) * len(groups),
    )


def tampered_partitions(g: Graph, merges=None):
    """The true partition, then for each pair in ``merges`` (default: all)
    two classes merged, also with an empty class added; then each class
    of two or more edges split into its least edge and the rest, and into
    its even and odd positions."""
    true = compute_classes(g)
    yield true
    groups = [list(c) for c in true.classes]
    for i, j in merges if merges is not None else combinations(range(true.k), 2):
        merged = groups[:j] + groups[j + 1:]
        merged[i] = sorted(groups[i] + groups[j])
        yield partition_of(g, merged)
        yield partition_of(g, merged + [[]])
    for i, group in enumerate(groups):
        if len(group) >= 2:
            rest = groups[:i] + groups[i + 1:]
            yield partition_of(g, rest + [group[:1], group[1:]])
            yield partition_of(g, rest + [group[::2], group[1::2]])


def verdict(g: Graph, p: EdgeClassPartition, name: str) -> tuple[bool, str | None]:
    (record,) = ALL_CHECKS[name](g, p)
    return record.passed, record.witness


STRADDLE_WITNESS = re.compile(
    r"shortest path \[(\d+), (\d+), (\d+)\] uses classes \[(\d+), (\d+)\]"
)


def assert_straddle_witness(g: Graph, p: EdgeClassPartition, witness: str) -> None:
    """The witness names an induced P3 u-v-w whose two edges lie in
    different classes of ``p``, and those two classes in order."""
    match = STRADDLE_WITNESS.fullmatch(witness)
    assert match, witness
    u, v, w, a, b = map(int, match.groups())
    assert g.has_edge(u, v) and g.has_edge(v, w) and u != w and not g.has_edge(u, w), witness
    assert a < b and {a, b} == {p.class_of_pair(u, v), p.class_of_pair(v, w)}, witness


def assert_rewritten_checks_agree(g: Graph, merges=None) -> tuple[int, int]:
    """Both checks against their references on every tampered partition;
    returns how many partitions failed each reference."""
    fails = [0, 0]
    for p in tampered_partitions(g, merges):
        fails[0] += not assert_class_subgraph_check_agrees(g, p)
        passed, _ = shortest_path_listing_verdict(g, p)
        new_passed, witness = verdict(g, p, "shortest-path-single-class")
        assert new_passed == passed, (g.edges, p.classes)
        if passed:
            assert witness is None, (g.edges, p.classes)
        else:
            assert_straddle_witness(g, p, witness)
        fails[1] += not passed
    return fails[0], fails[1]


def test_rewritten_checks_on_every_labeled_graph_up_to_five_vertices():
    fails = [0, 0]
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            for slot, count in enumerate(assert_rewritten_checks_agree(g)):
                fails[slot] += count
    # The tampering makes both checks fail, and so name witnesses, many
    # times over.
    assert min(fails) > 1000, fails


@st.composite
def gnp_and_merges(draw, max_n: int = 10) -> tuple[Graph, list[tuple[int, int]]]:
    """A seeded G(n, p) graph and a few class pairs of it to merge."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from([0.2, 0.4, 0.6, 0.85]))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < density])
    pairs = list(combinations(range(compute_classes(g).k), 2))
    return g, rng.sample(pairs, min(3, len(pairs)))


@settings(max_examples=150, deadline=None)
@given(gnp_and_merges())
def test_rewritten_checks_on_random_graphs(case):
    g, merges = case
    assert_rewritten_checks_agree(g, merges)


def triangle_closed_by_another_class(g: Graph, p: EdgeClassPartition) -> bool:
    """Some class holds edges uv and vw whose triangle is closed by an edge
    uw of another class, so u-v-w is an induced P3 of that class's own
    graph but not of g."""
    return any(
        p.class_of_pair(u, v) == p.class_of_pair(v, w) != p.class_of_pair(u, w)
        for v in range(g.n)
        for u, w in combinations(g.neighbors(v), 2)
        if g.has_edge(u, w)
    )


def test_class_subgraph_check_on_random_groupings_of_six_vertex_graphs():
    rng = Random(21)
    closed = passed = 0
    for g in sample_connected_graphs(6, 300, seed=21):
        for p in random_groupings(g, rng, 3):
            closed += triangle_closed_by_another_class(g, p)
            passed += assert_class_subgraph_check_agrees(g, p)
    # Of the 900 groupings, 721 hold a triangle closed by another class's
    # edge, and 233 have every class a single class of its own.
    assert (closed, passed) == (721, 233)


def test_class_subgraph_check_builds_no_graph_and_enters_no_kernel(monkeypatch):
    cases = [
        (g, p)
        for n in range(1, 6)
        for g in enumerate_labeled_graphs(n)
        for p in tampered_partitions(g)
    ]
    rng = Random(22)
    cases += [
        (g, p)
        for g in sample_connected_graphs(6, 60, seed=22)
        for p in random_groupings(g, rng, 3)
    ]
    expected = [per_class_union_find_verdict(g, p) for g, p in cases]
    kernel_calls = 0
    kernel = qt2ec.classes._forcing_kernel

    def counted_kernel(g):
        nonlocal kernel_calls
        kernel_calls += 1
        return kernel(g)

    def no_graph(self, *args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(qt2ec.classes, "_forcing_kernel", counted_kernel)
    monkeypatch.setattr(Graph, "__init__", no_graph)
    assert [verdict(g, p, "class-subgraph-single-class") for g, p in cases] == expected
    assert kernel_calls == 0
    monkeypatch.undo()
    # The patched kernel is live: a sweep runs it once per graph, for the
    # partition under test, and no check runs it again.
    monkeypatch.setattr(qt2ec.classes, "_forcing_kernel", counted_kernel)
    report = theorem_sweep(SweepConfig(max_n=4))
    assert kernel_calls == report.meta["graphs"] == 44


# ---------------------------------------------------------------------------
# crossing-lemmas and tinylemma


def reference_crossing_lemmas(g: Graph, p: EdgeClassPartition, c: int, d: int) -> list[tuple]:
    """The five crossing laws of one pair as ``(check, passed, witness,
    detail)``: laws (a) and (c) in a loop each, law (b) by ``has_edge`` over
    the sorted sides, and laws (d) and (e) as the checks run them."""
    rel = class_pair_relation(g, p, c, d)
    shared, a_side, b_side = rel.shared, rel.only_first, rel.only_second
    edges = [(cid, u, v) for cid in (c, d) for u, v in p.class_edges(cid)]
    inside = next(
        (
            f"class {cid} edge {(u, v)} lies inside the intersection"
            for cid, u, v in edges
            if u in shared and v in shared
        ),
        None,
    )
    avoids = next(
        (
            f"class {cid} edge {(u, v)} avoids the intersection"
            for cid, u, v in edges
            if u not in shared and v not in shared
        ),
        None,
    )
    joined = next(
        (
            f"vertex {u} not adjacent to {v}"
            for side, other in ((a_side, p.vertex_sets[d]), (b_side, p.vertex_sets[c]))
            for u in sorted(side)
            for v in sorted(other)
            if not g.has_edge(u, v)
        ),
        None,
    )
    join = next(
        (
            f"piece {name} = {sorted(piece)} induces a join"
            for name, piece in (("A", a_side), ("B", b_side), ("I", shared))
            if _induces_join(g, piece)
        ),
        None,
    )
    cross = sorted({p.class_of_pair(u, v) for u in a_side for v in b_side if g.has_edge(u, v)})
    spread = f"side-to-side edges span classes {cross}" if len(cross) > 1 else None
    return [
        (name, witness is None, witness, None)
        for name, witness in (
            ("crossing-no-edge-inside-intersection", inside),
            ("crossing-sides-joined", joined),
            ("crossing-edges-touch-intersection", avoids),
            ("crossing-no-piece-is-join", join),
            ("crossing-cross-edges-one-class", spread),
        )
    ]


def reference_crossing_records(g: Graph, p: EdgeClassPartition) -> list[tuple]:
    """The crossing-lemmas sweep check, each class pair tested for crossing
    on its own."""
    records = [
        record
        for c in range(p.k)
        for d in range(c + 1, p.k)
        if class_pair_relation(g, p, c, d).tag == CROSSING
        for record in reference_crossing_lemmas(g, p, c, d)
    ]
    return records or [("crossing-lemmas", True, None, "no crossing pairs")]


def reference_tinylemma(g: Graph, p: EdgeClassPartition) -> tuple[int, tuple]:
    """The tinylemma record and its instance count, scanning every ordered
    class pair (ce, cf) in (cf, ce) order."""
    instances = 0
    witness = None
    for cf in range(p.k):
        for ce in range(p.k):
            if ce == cf:
                continue
            rel = class_pair_relation(g, p, ce, cf)
            if rel.tag != CROSSING:
                continue
            shared, b_side = rel.shared, rel.only_second
            for a, b in p.class_edges(cf):
                if a not in shared or b not in shared:
                    continue
                for u, v in ((a, b), (b, a)):
                    for x in g.neighbors(v):
                        if x not in b_side or p.class_of_pair(v, x) != cf:
                            continue
                        for y in g.neighbors(v):
                            if (
                                y in shared
                                and y != u
                                and p.class_of_pair(v, y) != cf
                                and g.has_edge(u, y)
                                and p.class_of_pair(u, y) == ce
                            ):
                                instances += 1
                                if witness is None and not g.has_edge(u, x):
                                    witness = f"u={u} v={v} x={x} y={y}: edge ({u}, {x}) missing"
    detail = f"instances={instances}; hypotheses: {TINY_LEMMA_HYPOTHESES}"
    return instances, ("tinylemma-forced-edge", witness is None, witness, detail)


def records_of(g: Graph, p: EdgeClassPartition, name: str) -> list[tuple]:
    return [(r.check, r.passed, r.witness, r.detail) for r in ALL_CHECKS[name](g, p)]


def assert_crossing_checks_agree(g: Graph, partitions, fails: Counter) -> None:
    """Both checks against their references on each partition; counts each
    failing record by check, and partitions with tinylemma instances."""
    for p in partitions:
        old = reference_crossing_records(g, p)
        assert records_of(g, p, "crossing-lemmas") == old, (g.edges, p.classes)
        instances, record = reference_tinylemma(g, p)
        assert records_of(g, p, "tinylemma") == [record], (g.edges, p.classes)
        fails.update(check for check, passed, _, _ in old + [record] if not passed)
        fails["partitions with tinylemma instances"] += instances > 0


def test_crossing_checks_on_every_labeled_graph_up_to_five_vertices():
    fails: Counter = Counter()
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            assert_crossing_checks_agree(g, tampered_partitions(g), fails)
    # The tampering breaks every crossing law many times over, but never
    # puts a class edge inside a shared part with the lemma's other
    # hypotheses met.
    laws = [count for check, count in fails.items() if check.startswith("crossing-")]
    assert len(laws) == 5 and min(laws) > 600, fails
    assert fails["partitions with tinylemma instances"] == 0, fails


def all_pairs_crossing(g: Graph, p: EdgeClassPartition) -> list[ClassPairRelation]:
    """Every class pair's relation, built and then kept if its tag is
    crossing."""
    sets = p.vertex_sets
    relations = (
        ClassPairRelation(c, d, sets[c] - sets[d], sets[d] - sets[c], sets[c] & sets[d])
        for c, d in combinations(range(p.k), 2)
    )
    return [rel for rel in relations if rel.tag == CROSSING]


def test_crossing_pairs_match_the_all_pairs_filter_on_tampered_partitions():
    tags: Counter = Counter()
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            for p in tampered_partitions(g):
                assert crossing_pairs(g, p) == all_pairs_crossing(g, p), (g.edges, p.classes)
                tags.update(
                    class_pair_relation(g, p, c, d).tag for c, d in combinations(range(p.k), 2)
                )
    # Disjoint, nested and crossing pairs all occur many times over.
    assert min(tags[DISJOINT], tags[NESTED], tags[CROSSING]) > 1000, tags


def scanned_straddle(g: Graph, p: EdgeClassPartition) -> tuple[int, int, int] | None:
    class_of = p.class_of
    return next(
        ((u, v, w) for u, v, w, i, j in induced_p3_edges(g) if class_of[i] != class_of[j]),
        None,
    )


def test_each_partition_of_a_graph_gets_its_own_straddle():
    # first_straddle keeps its last answer, so each tampered partition is
    # asked right after the true one of the same graph, and the other way.
    straddling = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            true, *tampered = tampered_partitions(g)
            for p in tampered:
                for q in (true, p, p, true):
                    assert first_straddle(g, q) == scanned_straddle(g, q), (g.edges, q.classes)
                straddling += scanned_straddle(g, p) is not None
    assert straddling > 1000


def test_a_straddle_scan_of_the_one_vertex_graph_leaves_no_trace_on_the_next_test():
    # The sweep's first graph is Graph(1), so without the memo cleared
    # between tests the next test's first scan would be a cache hit.
    g = Graph(1)
    assert first_straddle(g, compute_classes(g)) is None


def test_the_straddle_scan_runs_once_per_sweep_graph(monkeypatch):
    scans = 0
    scan = qt2ec.structure.induced_p3_edges

    def counted(g):
        nonlocal scans
        scans += 1
        return scan(g)

    monkeypatch.setattr(qt2ec.structure, "induced_p3_edges", counted)
    checks = frozenset({"partition-laws", "shortest-path-single-class"})
    report = theorem_sweep(SweepConfig(max_n=4, checks=checks))
    assert report.passed
    assert scans == report.meta["graphs"] == 44


def listed(p: EdgeClassPartition) -> EdgeClassPartition:
    """``p`` with a list in place of each tuple field."""
    return EdgeClassPartition(p.graph, *(list(field) for field in tuple(p)[1:]))


def test_partition_laws_accept_a_partition_with_list_fields():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for p in tampered_partitions(g):
                assert verify_partition_laws(g, listed(p)) == verify_partition_laws(g, p)
    # A list can change in place, so such a partition is scanned anew on
    # every call.
    g = Graph(3, [(0, 1), (1, 2)])
    p = listed(compute_classes(g))
    assert all(r.passed for r in verify_partition_laws(g, p))
    p.class_of[1] = 1
    p.classes[:] = [[0], [1]]
    p.vertex_sets[:] = [frozenset({0, 1}), frozenset({1, 2})]
    records = {r.check: r for r in verify_partition_laws(g, p)}
    straddle = records["partition-p3-same-class"].witness
    assert straddle == "induced P3 (0, 1, 2) straddles two classes"


def random_groupings(g: Graph, rng: Random, count: int):
    """``count`` partitions of g's edges into 2..4 classes, each edge in a
    class drawn at random (a class may stay empty)."""
    for _ in range(count):
        groups: list[list[int]] = [[] for _ in range(rng.randint(2, 4))]
        for e in range(g.m):
            groups[rng.randrange(len(groups))].append(e)
        yield partition_of(g, groups)


def test_crossing_checks_on_random_groupings_of_four_and_five_vertex_graphs():
    rng = Random(1)
    fails: Counter = Counter()
    for n in (4, 5):
        for g in enumerate_labeled_graphs(n):
            assert_crossing_checks_agree(g, random_groupings(g, rng, 3), fails)
    # 2,298 partitions: 55 meet the lemma's hypotheses and 41 of those
    # miss a forced edge.
    assert fails["partitions with tinylemma instances"] == 55, fails
    assert fails["tinylemma-forced-edge"] == 41, fails


def test_tinylemma_instances_occur_only_where_crossing_law_a_fails():
    # The lemma's hypotheses put a cf edge inside the shared part, which
    # crossing law (a) forbids: over the same 2,298 random groupings, every
    # partition with an instance also fails law (a).
    rng = Random(1)
    with_instances = with_law_a_failing = 0
    for n in (4, 5):
        for g in enumerate_labeled_graphs(n):
            for p in random_groupings(g, rng, 3):
                (record,) = ALL_CHECKS["tinylemma"](g, p)
                if record.detail.startswith("instances=0;"):
                    continue
                with_instances += 1
                with_law_a_failing += any(
                    r.check == "crossing-no-edge-inside-intersection" and not r.passed
                    for r in ALL_CHECKS["crossing-lemmas"](g, p)
                )
    assert (with_instances, with_law_a_failing) == (55, 55)


# The diamond 0-1-3-2 (diagonal 1-2) with a pendant edge 2-4, split by hand
# into the crossing classes {02, 12, 24} and {01, 13, 23}: u=0, v=1, x=3,
# y=2 meets the lemma's hypotheses, and its forced edge 0-3 is missing.
TINY_GRAPH_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)]


def pair_classes(g: Graph, *classes: list[tuple[int, int]]) -> EdgeClassPartition:
    return partition_of(g, [[g.edge_index(u, v) for u, v in pairs] for pairs in classes])


def test_tinylemma_names_the_missing_forced_edge():
    g = Graph(5, TINY_GRAPH_EDGES)
    p = pair_classes(g, [(0, 2), (1, 2), (2, 4)], [(0, 1), (1, 3), (2, 3)])
    assert [(rel.first, rel.second) for rel in crossing_pairs(g, p)] == [(0, 1)]
    (record,) = check_tinylemma_instances(g, p)
    assert not record.passed
    assert record.witness == "u=0 v=1 x=3 y=2: edge (0, 3) missing"
    assert record.detail.startswith("instances=1;")


def test_tinylemma_passes_once_the_forced_edge_is_there():
    g = Graph(5, TINY_GRAPH_EDGES + [(0, 3)])
    p = pair_classes(g, [(0, 2), (1, 2), (2, 4)], [(0, 1), (1, 3), (2, 3), (0, 3)])
    (record,) = check_tinylemma_instances(g, p)
    assert record.passed and record.witness is None
    assert record.detail.startswith("instances=2;")


def test_tinylemma_names_the_witness_of_the_role_with_the_lower_cf():
    # The edge 0-4 joined to the independent set {1, 2, 3}, split by hand
    # into {04}, {02, 14, 24} and {01, 03, 34}.  Classes 1 and 2 cross on
    # {0, 1, 4}, and each role of the pair misses a forced edge: 1-2 with
    # class 1 as cf, 1-3 with class 2 as cf.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    p = pair_classes(g, [(0, 4)], [(0, 2), (1, 4), (2, 4)], [(0, 1), (0, 3), (3, 4)])
    assert [(rel.first, rel.second) for rel in crossing_pairs(g, p)] == [(1, 2)]
    (record,) = check_tinylemma_instances(g, p)
    assert record.witness == "u=1 v=4 x=2 y=0: edge (1, 2) missing"
    assert record.detail.startswith("instances=2;")


# ---------------------------------------------------------------------------
# every sweep check judges the partition it is handed

# Of the 4,664 partitions from tampered_partitions on the 772 connected
# labeled graphs with n <= 5, how many give each check a failing record.
# The 772 true partitions give none.  No tampering meets the tiny lemma's
# hypotheses; its kill is the 41 random groupings pinned above.
KILLS = {
    "colouring-count": 2929,
    "orientation-count": 2929,
    "partition-laws": 2152,
    "class-subgraph-single-class": 1977,
    "shortest-path-single-class": 1966,
    "pendant-class-bound": 496,
    "two-class-nesting": 721,
    "three-class-classification": 592,
    "crossing-lemmas": 2044,
    "tinylemma": 0,
    "hf1f2-witness": 1010,
    "unique-hf1f2": 2015,
    "final-equivalence": 986,
}


def test_every_check_fails_on_tampered_partitions_and_passes_on_true_ones():
    kills: Counter = Counter()
    partitions = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            true, *tampered = tampered_partitions(g)
            for name, check in ALL_CHECKS.items():
                assert all(r.passed for r in check(g, true)), (name, g.edges)
            for p in tampered:
                kills.update(
                    name
                    for name, check in ALL_CHECKS.items()
                    if not all(r.passed for r in check(g, p))
                )
            partitions += 1 + len(tampered)
    assert partitions == 4664
    assert {name: kills[name] for name in ALL_CHECKS} == KILLS
