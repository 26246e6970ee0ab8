"""Brute-force counters, corpus enumeration, and the theorem sweep harness."""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from functools import partial

import pytest

from qt2ec import (
    CheckResult,
    ContractError,
    EdgeClassPartition,
    Graph,
    RefusalError,
    SweepConfig,
    compute_classes,
    encode_graph6,
    is_connected,
    parse_graph6,
    theorem_sweep,
)
from qt2ec.families import complete, cycle, path, triangle_with_tail, figure_graph
from qt2ec import oracle
from qt2ec.oracle import (
    ALL_CHECKS,
    MAX_SWEEP_THREADS,
    brute_force_colouring_count,
    brute_force_orientation_count,
    enumerate_labeled_graphs,
    graph_from_mask,
    sample_connected_graphs,
    subset_witness_count,
    sweep_records,
)
from qt2ec.report import VerificationReport, json_lines, verdict
from qt2ec.structure import NESTED, ClassPairRelation


# ---------------------------------------------------------------------------
# brute-force counters


def test_brute_force_colouring_counts():
    assert brute_force_colouring_count(path(3)) == 2
    assert brute_force_colouring_count(complete(3)) == 8
    assert brute_force_colouring_count(cycle(5)) == 2
    assert brute_force_colouring_count(Graph(3)) == 1


def test_brute_force_orientation_counts():
    assert brute_force_orientation_count(path(3)) == 2
    assert brute_force_orientation_count(cycle(5)) == 0
    assert brute_force_orientation_count(cycle(4)) == 2
    assert brute_force_orientation_count(figure_graph("k4_minus_e")) == 8


def test_brute_force_edge_cap():
    big = complete(8)  # 28 edges
    with pytest.raises(RefusalError, match="28"):
        brute_force_colouring_count(big)
    with pytest.raises(RefusalError, match="28"):
        brute_force_orientation_count(big)


def test_orientability_is_hereditary_on_every_labeled_graph_up_to_five_vertices():
    # The paper's contrast: comparability graphs (Ghouila-Houri) are closed
    # under deleting a vertex, so they admit a forbidden induced-subgraph
    # characterisation.  The corpus holds every labeled graph with n <= 5,
    # so one-vertex deletions cover every induced subgraph there.
    graphs = deletions = 0
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            if brute_force_orientation_count(g) == 0:
                continue
            graphs += 1
            for v in range(n):
                # g - v, its vertices above v renumbered one lower
                sub = Graph(
                    n - 1,
                    [(a - (a > v), b - (b > v)) for a, b in g.edges if v not in (a, b)],
                )
                assert brute_force_orientation_count(sub) > 0, (g.edges, v)
                deletions += 1
    # All 1,098 graphs but the 12 labeled five-cycles are orientable.
    assert (graphs, deletions) == (1086, 5344)


# ---------------------------------------------------------------------------
# corpus


def test_enumerate_labeled_graph_counts():
    assert len(list(enumerate_labeled_graphs(2, connected_only=False))) == 2
    assert len(list(enumerate_labeled_graphs(2, connected_only=True))) == 1
    assert len(list(enumerate_labeled_graphs(3, connected_only=True))) == 4
    assert len(list(enumerate_labeled_graphs(4, connected_only=True))) == 38
    assert len(list(enumerate_labeled_graphs(5, connected_only=True))) == 728


def test_enumerate_labeled_graphs_range_check():
    with pytest.raises(ContractError):
        list(enumerate_labeled_graphs(0))
    with pytest.raises(ContractError):
        list(enumerate_labeled_graphs(8))


def test_graph_from_mask_is_deterministic():
    # graph6 bits of n = 4: pairs 01 02 12 03 13 23, so 01 and 03 are 100100.
    assert graph_from_mask(4, 0b100100) == Graph(4, [(0, 1), (0, 3)])


def test_sample_connected_graphs_seeded():
    first = sample_connected_graphs(6, 25, seed=13)
    second = sample_connected_graphs(6, 25, seed=13)
    assert first == second
    assert len({g.edges for g in first}) == 25
    assert sample_connected_graphs(6, 5, seed=1) != sample_connected_graphs(6, 5, seed=2)
    with pytest.raises(RefusalError, match="fewer than 2 connected graphs exist at n=2"):
        sample_connected_graphs(2, 2, 0)


def test_connected_counts_match_the_enumerated_corpus():
    # The sweep's header counts its graphs from this table, and its worker
    # keeps each mask whose graph is connected.
    for n in range(1, 7):
        graphs = map(partial(graph_from_mask, n), range(1 << n * (n - 1) // 2))
        assert oracle._CONNECTED_COUNTS[n - 1] == sum(map(is_connected, graphs))


def test_a_mask_is_its_graphs_graph6_bits():
    # Every mask, connected or not, of every n <= 6: 2^15 at n = 6.  The
    # graph6 keys strictly increase with the mask, so listing the masks in
    # ascending order lists the graphs in graph6 order.
    for n in range(1, 7):
        bits = n * (n - 1) // 2
        keys = [encode_graph6(graph_from_mask(n, mask)) for mask in range(1 << bits)]
        assert all(a < b for a, b in zip(keys, keys[1:])), n
        if n >= 2:
            # graph6 writes pair (0, 1) first and pair (n - 2, n - 1) last.
            assert graph_from_mask(n, 1 << (bits - 1)).edges == ((0, 1),)
            assert graph_from_mask(n, 1).edges == ((n - 2, n - 1),)


def test_an_unmeetable_sample_is_refused_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a mask was drawn before the refusal")

    monkeypatch.setattr(oracle, "graph_from_mask", no_draw)
    with pytest.raises(RefusalError, match="fewer than 26705 connected graphs exist at n=6"):
        sample_connected_graphs(6, 26705, 0)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: enumerate_labeled_graphs(3.0), "corpus size must be an int, got 3.0"),
        (lambda: enumerate_labeled_graphs(True), "corpus size must be an int, got True"),
        (lambda: sample_connected_graphs(6.0, 2, 1), "corpus size must be an int, got 6.0"),
        (lambda: sample_connected_graphs(6, 2.0, 1), "count must be an int, got 2.0"),
        (lambda: sample_connected_graphs(6, True, 0), "count must be an int, got True"),
        (lambda: sample_connected_graphs(6, -1, 0), "count must be 0 or more, got -1"),
        (lambda: sample_connected_graphs(6, 2, None), "seed must be an int, got None"),
        (lambda: sample_connected_graphs(6, 2, 1.0), "seed must be an int, got 1.0"),
        (lambda: sample_connected_graphs(6, 2, [1]), "seed must be an int, got [1]"),
    ],
)
def test_the_corpus_functions_refuse_what_they_cannot_use(call, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("seed", [None, [1], 1.0, True, "1"])
def test_the_sweep_refuses_a_seed_that_is_not_an_int(monkeypatch, seed):
    # None drew a new sample on every call and headed the report with
    # "seed": null; [1] failed inside random with a bare TypeError.
    def no_corpus(*args):
        raise AssertionError("corpus built before the seed check")

    monkeypatch.setattr(oracle, "_sample_connected_masks", no_corpus)
    monkeypatch.setattr(oracle, "_records", no_corpus)
    for sample in (2, None):
        with pytest.raises(ContractError, match=f"^{re.escape(f'seed must be an int, got {seed!r}')}$"):
            sweep_records(SweepConfig(max_n=1, sample_n6=sample, seed=seed))


def test_a_sample_of_every_connected_graph_is_met():
    every = sample_connected_graphs(4, 38, 0)
    assert sorted(g.edges for g in every) == sorted(g.edges for g in enumerate_labeled_graphs(4))
    with pytest.raises(RefusalError, match="fewer than 39 connected graphs exist at n=4"):
        sample_connected_graphs(4, 39, 0)


# ---------------------------------------------------------------------------
# subset witness oracle


def test_subset_witness_counts():
    assert subset_witness_count(cycle(5)) == 0
    assert subset_witness_count(triangle_with_tail(3)) == 1
    assert subset_witness_count(figure_graph("k4_minus_e")) == 3
    assert subset_witness_count(figure_graph("fig1_right")) == 0


def test_subset_witness_cap():
    with pytest.raises(RefusalError):
        subset_witness_count(Graph(8))


# ---------------------------------------------------------------------------
# the sweep harness


def test_sweep_passes_at_n4():
    report = theorem_sweep(SweepConfig(max_n=4))
    assert report.passed
    assert report.meta["graphs"] == 44  # 1 + 1 + 4 + 38 connected graphs
    assert report.meta["seed"] == 0
    summary = report.summary()
    assert summary["colouring-count"] == (44, 0)
    assert summary["orientation-count"] == (44, 0)


def test_sweep_final_equivalence_record_of_the_one_vertex_graph():
    # The corpus is connected, so only "@" (one vertex, no edges) takes
    # the vacuous branch.
    report = theorem_sweep(SweepConfig(max_n=2, checks=frozenset({"final-equivalence"})))
    [record] = [r for r in report.results if r.graph_key == "@"]
    assert (record.check, record.passed, record.witness, record.detail) == (
        "final-equivalence",
        True,
        None,
        "no edges, skipped",
    )
    assert all(r.detail is None for r in report.results if r.graph_key != "@")


def test_sweep_records_are_sorted_and_keyed():
    report = theorem_sweep(SweepConfig(max_n=3))
    keys = [(r.graph_key, r.check) for r in report.results]
    assert keys == sorted(keys)
    assert all(r.graph_key for r in report.results)


def record_order(r: CheckResult) -> tuple[str, str, str]:
    return r.graph_key, r.check, r.witness or ""


def test_sweep_records_follow_the_graph_check_witness_order():
    report = theorem_sweep(SweepConfig(max_n=5, sample_n6=100))
    assert len(report.results) > 14298
    assert report.results == sorted(report.results, key=record_order)


def test_sweep_orders_each_checks_records_by_witness():
    # Records of one name come back in mixed witness order, None among
    # them; None and "" tie and keep the order the check returned them in.
    returned = [("mixed", "b"), ("alpha", "z"), ("mixed", None), ("mixed", "a"),
                ("mixed", ""), ("alpha", None), ("mixed", None)]

    def scrambled(g, p):
        return [CheckResult(name, True, detail=str(i), witness=w)
                for i, (name, w) in enumerate(returned)]

    report = theorem_sweep(
        SweepConfig(max_n=3, checks=frozenset({"zeta"})), registry={"zeta": scrambled}
    )
    keys = sorted(encode_graph6(g) for n in range(1, 4) for g in enumerate_labeled_graphs(n))
    one_graph = sorted(
        ((name, w, str(i)) for i, (name, w) in enumerate(returned)),
        key=lambda t: (t[0], t[1] or ""),
    )
    expected = [(key, *t) for key in keys for t in one_graph]
    assert [(r.graph_key, r.check, r.witness, r.detail) for r in report.results] == expected
    assert [r.detail for r in report.results[:7]] == ["5", "1", "2", "4", "6", "3", "0"]


def test_sweep_orders_records_across_checks_by_name_then_witness():
    # The first check's records sort after the second's, and in the
    # second registry the two checks' records tie on their name, so in
    # neither may one check's rows simply follow the other's.
    def late(g, p):
        return [CheckResult("zulu", True), CheckResult("mid", True, witness="b")]

    def early(g, p):
        return [CheckResult("mid", True, witness="a"), CheckResult("alpha", True)]

    def tie_b(g, p):
        return [CheckResult("tie", True, witness="b")]

    def tie_a(g, p):
        return [CheckResult("tie", True, witness="a")]

    cfg = SweepConfig(max_n=1)
    report = theorem_sweep(cfg, registry={"a-late": late, "b-early": early})
    assert [(r.check, r.witness) for r in report.results] == [
        ("alpha", None), ("mid", "a"), ("mid", "b"), ("zulu", None)
    ]
    report = theorem_sweep(cfg, registry={"a-tie": tie_b, "b-tie": tie_a})
    assert [(r.check, r.witness) for r in report.results] == [("tie", "a"), ("tie", "b")]


def test_sweep_graph_keys_decode_to_connected_graphs():
    # The checks carry no connectivity guards of their own: they rely on
    # the sweep's corpus holding connected graphs only.
    report = theorem_sweep(SweepConfig(max_n=5, sample_n6=50))
    keys = {r.graph_key for r in report.results}
    assert len(keys) == report.meta["graphs"] == 772 + 50
    for key in keys:
        assert is_connected(parse_graph6(key)), key


def test_pendant_check_matches_the_set_union_definition():
    # Disconnected graphs give several pendant classes, so the witness
    # list, and its order, is exercised as well as the verdict.
    checked = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            p = compute_classes(g)
            pendant = [
                cid
                for cid in range(p.k)
                if p.vertex_sets[cid].difference(
                    *(p.vertex_sets[o] for o in range(p.k) if o != cid)
                )
            ]
            (record,) = ALL_CHECKS["pendant-class-bound"](g, p)
            assert record.passed == (len(pendant) <= 1)
            assert record.witness == (None if record.passed else f"pendant classes {pendant}")
            checked += not record.passed
    assert checked > 0


def test_three_class_check_fails_on_a_tampered_partition_instead_of_raising():
    # P4 has one class; a partition that claims three (one per edge) must
    # be classified as handed, not recomputed, and fail as a record.
    g = path(4)
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1, 2),
        classes=((0,), (1,), (2,)),
        vertex_sets=(frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
        bits=(0,) * g.m,
        contradictions=(None,) * 3,
    )
    (record,) = ALL_CHECKS["three-class-classification"](g, fake)
    assert not record.passed
    assert record.witness == "neither complete tripartite nor spanning class"


def test_shortest_path_check_names_the_straddling_p3_and_its_classes():
    # P3 split into {01} and {12}: the path 0-1-2 is a shortest 0-2 path
    # and changes class at 1.
    g = path(3)
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1),
        classes=((0,), (1,)),
        vertex_sets=(frozenset({0, 1}), frozenset({1, 2})),
        bits=(0,) * g.m,
        contradictions=(None,) * 2,
    )
    (record,) = ALL_CHECKS["shortest-path-single-class"](g, fake)
    assert not record.passed
    assert record.witness == "shortest path [0, 1, 2] uses classes [0, 1]"


def test_sweep_check_selection():
    cfg = SweepConfig(max_n=3, checks=frozenset({"colouring-count"}))
    report = theorem_sweep(cfg)
    assert {r.check for r in report.results} == {"colouring-count"}
    assert report.meta["checks"] == ["colouring-count"]


def test_sweep_refuses_checks_that_are_not_names():
    for checks in (5, [1, "colouring-count"]):
        with pytest.raises(ContractError, match=f"^checks must be an iterable of check names, got {re.escape(repr(checks))}$"):
            sweep_records(SweepConfig(max_n=3, checks=checks))


def test_sweep_unknown_check_rejected():
    with pytest.raises(ContractError, match="unknown check"):
        theorem_sweep(SweepConfig(max_n=3, checks=frozenset({"nope"})))
    with pytest.raises(ContractError, match="max_n"):
        theorem_sweep(SweepConfig(max_n=8))


@pytest.mark.parametrize("max_n", [0, -1, True, 2.5])
def test_sweep_refuses_empty_corpus(monkeypatch, max_n):
    # True would sweep n = 1 and 2.5 fail in range(); both are refused as
    # not ints, before the record stream is made.
    def no_stream(*args):
        raise AssertionError("record stream made before the max_n check")

    monkeypatch.setattr(oracle, "_records", no_stream)
    message = "max_n must be 1" if type(max_n) is int else f"max_n must be an int, got {max_n!r}"
    with pytest.raises(ContractError, match=message):
        theorem_sweep(SweepConfig(max_n=max_n))


@pytest.mark.parametrize("threads", [0, -1, MAX_SWEEP_THREADS + 1, 10**6, 1.5, True, "2"])
def test_sweep_refuses_thread_counts_out_of_range(monkeypatch, threads):
    # The check must fire before the record stream, let alone a pool, exists.
    def no_stream(*args):
        raise AssertionError("record stream made before the threads check")

    monkeypatch.setattr(oracle, "_records", no_stream)
    message = f"threads must be 1..{MAX_SWEEP_THREADS}, got {threads}"
    if type(threads) is not int:
        message = re.escape(f"threads must be an int, got {threads!r}")
    with pytest.raises(ContractError, match=message):
        theorem_sweep(SweepConfig(max_n=2, threads=threads))
    with pytest.raises(ContractError, match=message):
        theorem_sweep(SweepConfig(max_n=2, threads=threads), registry=ALL_CHECKS)


def test_sweep_refuses_negative_sample(monkeypatch):
    with pytest.raises(ContractError, match="sample_n6 must be 0 or more"):
        theorem_sweep(SweepConfig(max_n=2, sample_n6=-5))
    # 1.5 would draw 2 graphs and head the report with 1.5; it is refused
    # before the sample is drawn or the record stream made.
    def no_corpus(*args):
        raise AssertionError("corpus built before the sample_n6 check")

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_sample_connected_masks", no_corpus)
        patched.setattr(oracle, "_records", no_corpus)
        with pytest.raises(ContractError, match=re.escape("sample_n6 must be an int, got 1.5")):
            theorem_sweep(SweepConfig(max_n=2, sample_n6=1.5))
    for sample in (0, None):
        cfg = SweepConfig(max_n=2, checks=frozenset({"colouring-count"}), sample_n6=sample)
        assert theorem_sweep(cfg).meta["graphs"] == 2


def test_sweep_refuses_a_sample_it_would_not_run():
    # From max_n = 6 the corpus holds every six-vertex graph, so a sample
    # would go unrun; 0 and None stay valid.  The metadata comes before any
    # check runs, and the stream is closed unread.
    for max_n, graphs in ((6, 27_476), (7, 1_893_732)):
        with pytest.raises(ContractError, match=f"sample_n6 needs max_n below 6, got max_n={max_n}"):
            theorem_sweep(SweepConfig(max_n=max_n, sample_n6=5))
        for sample in (0, None):
            meta, records = sweep_records(SweepConfig(max_n=max_n, sample_n6=sample))
            records.close()
            assert meta["graphs"] == graphs


def test_sweep_sample_n6_extends_corpus():
    cfg = SweepConfig(
        max_n=2, checks=frozenset({"colouring-count"}), sample_n6=5, seed=3
    )
    report = theorem_sweep(cfg)
    assert report.meta["graphs"] == 2 + 5  # K1, K2, plus the sampled six-vertex graphs
    assert report.passed


def test_sweep_is_deterministic():
    cfg = SweepConfig(max_n=3)
    first = theorem_sweep(cfg)
    second = theorem_sweep(cfg)
    strip = lambda rs: [(r.check, r.graph_key, r.passed, r.witness) for r in rs]
    assert strip(first.results) == strip(second.results)


def test_sweep_parallel_matches_serial():
    serial = theorem_sweep(SweepConfig(max_n=4))
    parallel = theorem_sweep(SweepConfig(max_n=4, threads=2))
    strip = lambda rs: [(r.check, r.graph_key, r.passed, r.witness) for r in rs]
    assert strip(serial.results) == strip(parallel.results)


def test_sweep_surfaces_broken_check_with_witness():
    # harness negative path: an intentionally wrong check must yield
    # fail records carrying a reproducible graph key
    def always_broken(g, p):
        return [CheckResult("always-broken", False, witness=f"k={p.k}")]

    report = theorem_sweep(
        SweepConfig(max_n=3, checks=frozenset({"always-broken"})),
        registry={"always-broken": always_broken},
    )
    assert not report.passed
    assert len(report.failures()) == 6  # one per connected graph: 1 + 1 + 4
    for failure in report.failures():
        assert failure.graph_key
        assert failure.witness.startswith("k=")


# The SHA-256 of the records below, each JSON line with "seconds" dropped
# and written back with sorted keys, the lines joined by newlines; taken
# from the sweep before its checks were rewritten for speed.
SWEEP_RECORDS_SHA256 = "d759bb4d61a6523e70de6a3cce179eacc18cbb26adc2d263ffe557398ee944d6"


def unstamped_digest(report) -> str:
    lines = []
    for line in report.to_json_lines().splitlines():
        record = json.loads(line)
        record.pop("seconds", None)
        lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_records_match_the_pinned_digest(threads):
    # Every record's check, verdict, witness and detail, and the header,
    # for 772 connected graphs with n <= 5 and 500 sampled with n = 6.
    report = theorem_sweep(SweepConfig(max_n=5, sample_n6=500, seed=3, threads=threads))
    assert len(report.results) == 22854
    assert unstamped_digest(report) == SWEEP_RECORDS_SHA256


def test_json_lines_round_trip():
    report = theorem_sweep(SweepConfig(max_n=2))
    assert report.to_json_lines() == "\n".join(json_lines(report.meta, report.results)) + "\n"
    lines = report.to_json_lines().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "qt2ec-report/1"
    assert header["max_n"] == 2
    for line in lines[1:]:
        record = json.loads(line)
        assert record["passed"] is True
        assert record["graph6"]


def test_check_result_is_an_immutable_hashable_record():
    r = CheckResult("colouring-count", False, witness="brute=3 expected=2^1=2")
    assert (r.graph_key, r.detail, r.seconds) == ("", None, None)
    with pytest.raises(AttributeError):
        r.passed = True
    assert tuple(r) == ("colouring-count", False, "", "brute=3 expected=2^1=2", None, None)
    keyed = CheckResult(check="c", passed=True, graph_key="Bw", seconds=0.5)
    assert tuple(keyed) == ("c", True, "Bw", None, None, 0.5)
    assert len({r, keyed, CheckResult(*tuple(r))}) == 2
    assert pickle.loads(pickle.dumps(keyed)) == keyed
    assert type(pickle.loads(pickle.dumps(keyed))) is CheckResult


def test_a_verdict_fails_exactly_when_it_names_a_witness():
    assert verdict("c") == CheckResult("c", True)
    assert verdict("c", detail="d") == CheckResult("c", True, detail="d")
    assert verdict("c", "w", "d") == CheckResult("c", False, witness="w", detail="d")
    assert type(verdict("c")) is CheckResult


def test_the_sweep_records_are_named_tuples_of_their_fields():
    cfg = SweepConfig()
    assert tuple(cfg) == (5, None, None, 0, 1)
    assert cfg._fields == ("max_n", "checks", "sample_n6", "seed", "threads")
    assert cfg._replace(threads=2) == SweepConfig(threads=2) != cfg
    assert len({cfg, SweepConfig(checks=frozenset({"tinylemma"})), SweepConfig()}) == 2
    rel = ClassPairRelation(0, 1, frozenset({2}), frozenset(), frozenset({0, 1}))
    assert rel.tag == NESTED
    assert rel == (0, 1, frozenset({2}), frozenset(), frozenset({0, 1}))
    report = VerificationReport([CheckResult("c", False, "Bw", "x")], {"graphs": 1})
    assert VerificationReport._fields == ("results", "meta")
    assert (report.passed, report.failures(), report.summary()) == (False, report.results, {"c": (0, 1)})
