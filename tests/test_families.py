"""Generator fixtures and their promised class structure."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qt2ec

from qt2ec import (
    Colourability,
    ContractError,
    RefusalError,
    classify_colourability,
    compute_classes,
    is_complete_multipartite,
)
from qt2ec.families import (
    complete,
    complete_multipartite,
    cycle,
    double_path_apex,
    family_from_spec,
    figure_graph,
    join_with_k1,
    path,
    threshold_alternating,
    triangle_with_tail,
)
from qt2ec.graph import Graph
from qt2ec.oracle import enumerate_labeled_graphs


def test_threshold_smallest_is_k2():
    g = threshold_alternating(2)
    assert g == Graph(2, [(0, 1)])
    assert compute_classes(g).k == 1


def test_threshold_class_counts():
    for n in range(2, 17, 2):
        assert compute_classes(threshold_alternating(n)).k == n // 2
    assert compute_classes(threshold_alternating(16)).k == 8


def test_threshold_rejects_bad_sizes():
    for n in (0, 1, 3, 5):
        with pytest.raises(ContractError):
            threshold_alternating(n)


def test_triangle_with_tail_unique_for_k_at_least_two():
    for k in range(2, 11):
        g = triangle_with_tail(k)
        assert compute_classes(g).k == 2
        assert classify_colourability(g).kind is Colourability.UNIQUELY_COLOURABLE


def test_triangle_with_tail_degenerate_k1_is_triangle():
    # no induced P3 at k=1: three singleton classes, not two
    g = triangle_with_tail(1)
    assert g.m == 3 and g.n == 3
    assert compute_classes(g).k == 3


def test_triangle_with_tail_rejects_nonpositive():
    with pytest.raises(ContractError):
        triangle_with_tail(0)


def test_double_path_apex_three_classes_not_tripartite():
    for k in range(2, 9):
        g = double_path_apex(k)
        assert compute_classes(g).k == 3
        parts = is_complete_multipartite(g)
        assert parts is None or len(parts) != 3


def test_double_path_apex_rejects_small_k():
    with pytest.raises(ContractError):
        double_path_apex(1)


def test_figure_graph_shapes():
    assert figure_graph("fig1_left").m == 12
    assert figure_graph("fig1_right").m == 10
    assert figure_graph("k4_minus_e").m == 5
    assert compute_classes(figure_graph("fig1_left")).k == 4
    assert compute_classes(figure_graph("fig1_right")).k == 1
    with pytest.raises(ContractError):
        figure_graph("fig2_left")


def test_standard_generators():
    assert cycle(5) == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert path(1) == Graph(1)
    assert complete(4).m == 6
    assert compute_classes(complete(4)).k == 6
    assert complete_multipartite(1, 1, 2) == figure_graph("k4_minus_e")
    with pytest.raises(ContractError):
        cycle(2)
    with pytest.raises(ContractError):
        complete_multipartite(1, 0)


def test_join_with_k1_always_properly_colourable():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            joined = join_with_k1(g)
            assert classify_colourability(joined).properly_colourable


def test_join_with_k1_apex_label_never_collides():
    g = family_from_spec("join_k1:triangle_tail,2")
    assert g.n == triangle_with_tail(2).n + 1
    assert g.labels is not None and len(set(g.labels)) == g.n
    twice = join_with_k1(g)
    assert twice.labels is not None and len(set(twice.labels)) == twice.n


def test_generators_are_deterministic():
    assert threshold_alternating(8) == threshold_alternating(8)
    assert double_path_apex(4).edges == double_path_apex(4).edges
    assert figure_graph("fig1_left").labels == ("v1", "v2", "v3", "v4", "v5", "v6")


def test_family_from_spec():
    assert family_from_spec("cycle,5") == cycle(5)
    assert family_from_spec("k4_minus_e") == figure_graph("k4_minus_e")
    assert family_from_spec("complete_multipartite,1,1,2") == figure_graph("k4_minus_e")
    assert family_from_spec("join_k1:cycle,4") == join_with_k1(cycle(4))
    for bad in ("unknown", "cycle", "cycle,a", "k4_minus_e,3", "threshold,1,2"):
        with pytest.raises(ContractError):
            family_from_spec(bad)


@pytest.mark.parametrize(
    "spec",
    [
        "k4_minus_e",
        "fig1_left",
        "fig1_right",
        "threshold,2",
        "threshold,200",
        "triangle_tail,1",
        "triangle_tail,7",
        "double_path_apex,2",
        "double_path_apex,150",
        "path,1",
        "path,9",
        "cycle,3",
        "complete,1",
        "complete,30",
        "complete_multipartite,40,50,60",
        "complete_multipartite,3,1,2,5",
        "join_k1:cycle,5",
        "join_k1: join_k1:fig1_left",
    ],
)
def test_family_spec_size_is_counted_exactly(spec, monkeypatch):
    g = family_from_spec(spec)
    monkeypatch.setattr("qt2ec.families.MAX_FAMILY_SIZE", max(g.n, g.m))
    assert family_from_spec(spec) == g
    monkeypatch.setattr("qt2ec.families.MAX_FAMILY_SIZE", max(g.n, g.m) - 1)
    with pytest.raises(RefusalError):
        family_from_spec(spec)


def test_oversized_family_specs_refuse_before_building_an_edge():
    # The child caps its own address space at 512 MiB, so a spec that did
    # build its edges would die there of MemoryError, not exhaust the host.
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
        "from qt2ec.cli import main; "
        "print([main(['family', '--family', spec]) for spec in sys.argv[1:]])"
    )
    specs = [
        "complete,100000",
        "cycle,1000000000",
        "complete_multipartite,100000,100000",
        "join_k1:complete,100000",
        "complete_multipartite,1000000000",
    ]
    src = str(Path(qt2ec.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *specs],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == str([3] * len(specs))
    assert out.stderr.count("refused: family") == len(specs)
