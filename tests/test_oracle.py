"""Brute-force counters, corpus enumeration, and the theorem sweep harness."""

from __future__ import annotations

import pytest

from qt2ec import (
    CheckResult,
    ContractError,
    Graph,
    RefusalError,
    SweepConfig,
    theorem_sweep,
)
from qt2ec.families import complete, cycle, path, triangle_with_tail, figure_graph
from qt2ec.oracle import (
    brute_force_colouring_count,
    brute_force_orientation_count,
    enumerate_labeled_graphs,
    graph_from_mask,
    sample_connected_graphs,
    subset_witness_count,
)


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
    assert graph_from_mask(4, 0b101) == Graph(4, [(0, 1), (0, 3)])


def test_sample_connected_graphs_seeded():
    first = sample_connected_graphs(6, 25, seed=13)
    second = sample_connected_graphs(6, 25, seed=13)
    assert first == second
    assert len({g.edges for g in first}) == 25
    assert sample_connected_graphs(6, 5, seed=1) != sample_connected_graphs(6, 5, seed=2)


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


def test_sweep_records_are_sorted_and_keyed():
    report = theorem_sweep(SweepConfig(max_n=3))
    keys = [(r.graph_key, r.check) for r in report.results]
    assert keys == sorted(keys)
    assert all(r.graph_key for r in report.results)


def test_sweep_check_selection():
    cfg = SweepConfig(max_n=3, checks=frozenset({"colouring-count"}))
    report = theorem_sweep(cfg)
    assert {r.check for r in report.results} == {"colouring-count"}
    assert report.meta["checks"] == ["colouring-count"]


def test_sweep_unknown_check_rejected():
    with pytest.raises(ContractError, match="unknown check"):
        theorem_sweep(SweepConfig(max_n=3, checks=frozenset({"nope"})))
    with pytest.raises(ContractError, match="max_n"):
        theorem_sweep(SweepConfig(max_n=8))


@pytest.mark.parametrize("max_n", [0, -1])
def test_sweep_refuses_empty_corpus(max_n):
    with pytest.raises(ContractError, match="max_n must be 1"):
        theorem_sweep(SweepConfig(max_n=max_n))


def test_sweep_refuses_negative_sample():
    with pytest.raises(ContractError, match="sample_n6 must be 0 or more"):
        theorem_sweep(SweepConfig(max_n=2, sample_n6=-5))
    for sample in (0, None):
        cfg = SweepConfig(max_n=2, checks=frozenset({"colouring-count"}), sample_n6=sample)
        assert theorem_sweep(cfg).meta["graphs"] == 2


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


def test_json_lines_round_trip():
    import json

    report = theorem_sweep(SweepConfig(max_n=2))
    lines = report.to_json_lines().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "qt2ec-report/1"
    assert header["max_n"] == 2
    for line in lines[1:]:
        record = json.loads(line)
        assert record["passed"] is True
        assert record["graph6"]
