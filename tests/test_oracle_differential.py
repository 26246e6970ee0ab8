"""Differential test of the backtracking brute-force counters against the
exhaustive 2^m mask loops they replaced, kept here as the reference."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

import qt2ec
from qt2ec import Graph, RefusalError, SweepConfig, theorem_sweep
from qt2ec.families import complete
from qt2ec.graph import induced_p3s
from qt2ec.oracle import (
    ALL_CHECKS,
    MASK_CAP_EDGES,
    brute_force_colouring_count,
    brute_force_orientation_count,
    enumerate_labeled_graphs,
    sample_connected_graphs,
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
        return [astuple(r)[:-1] + (r.seconds is None,) for r in report.results]

    assert pooled.meta == serial.meta
    assert shape(pooled) == shape(serial)


def test_each_check_time_is_stamped_once_per_graph():
    report = theorem_sweep(SweepConfig(max_n=4))
    stamped: dict[str, int] = {}
    records: dict[str, int] = {}
    for r in report.results:
        stamped[r.graph_key] = stamped.get(r.graph_key, 0) + (r.seconds is not None)
        records[r.graph_key] = records.get(r.graph_key, 0) + 1
    assert set(stamped.values()) == {len(ALL_CHECKS)}
    assert max(records.values()) > len(ALL_CHECKS)  # partition-laws alone returns four


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
