"""Class-pair relations, crossing lemmas, and the three-class theorem."""

from __future__ import annotations

import pytest

from qt2ec import (
    ContractError,
    EdgeClassPartition,
    check_crossing_lemmas,
    check_tinylemma_instances,
    class_pair_relation,
    compute_classes,
    three_class_classification,
    verify_partition_laws,
)
from qt2ec.families import (
    complete_multipartite,
    cycle,
    double_path_apex,
    figure_graph,
    triangle_with_tail,
)
from qt2ec.graph import Graph
from qt2ec.oracle import enumerate_labeled_graphs
from qt2ec.structure import CROSSING, DISJOINT, NESTED, crossing_pairs


# ---------------------------------------------------------------------------
# pair relations


def test_two_class_graph_is_nested():
    g = triangle_with_tail(3)
    rel = class_pair_relation(g, compute_classes(g), 0, 1)
    assert rel.tag == NESTED


def test_k4_minus_e_crossing_pair():
    g = figure_graph("k4_minus_e")
    p = compute_classes(g)
    rel = class_pair_relation(g, p, 1, 2)
    assert rel.tag == CROSSING
    assert rel.only_first == {0}
    assert rel.only_second == {1}
    assert rel.shared == {2, 3}


def test_double_path_apex_paths_are_disjoint():
    g = double_path_apex(3)
    p = compute_classes(g)
    path_classes = [
        cid for cid in range(p.k) if p.vertex_sets[cid] != frozenset(range(g.n))
    ]
    assert len(path_classes) == 2
    rel = class_pair_relation(g, p, *path_classes)
    assert rel.tag == DISJOINT


def test_pair_relation_contract_errors():
    g = figure_graph("k4_minus_e")
    p = compute_classes(g)
    with pytest.raises(ContractError):
        class_pair_relation(g, p, 1, 1)
    with pytest.raises(ContractError):
        class_pair_relation(cycle(4), p, 0, 1)


def test_pair_relation_pieces_cover_union():
    g = figure_graph("fig1_left")
    p = compute_classes(g)
    for c in range(p.k):
        for d in range(c + 1, p.k):
            rel = class_pair_relation(g, p, c, d)
            assert rel.only_first | rel.only_second | rel.shared == (
                p.vertex_sets[c] | p.vertex_sets[d]
            )
            assert rel.tag in (DISJOINT, NESTED, CROSSING)


def test_crossing_pairs_are_the_crossing_relations_in_pair_order():
    pinned = {"k4_minus_e": [(0, 1), (0, 2), (1, 2)], "fig1_left": [(0, 1), (0, 3), (1, 3)]}
    for name in ("k4_minus_e", "fig1_left", "fig1_right"):
        g = figure_graph(name)
        p = compute_classes(g)
        expected = [
            class_pair_relation(g, p, c, d)
            for c in range(p.k)
            for d in range(c + 1, p.k)
            if class_pair_relation(g, p, c, d).tag == CROSSING
        ]
        assert crossing_pairs(g, p) == expected
        assert [(r.first, r.second) for r in expected] == pinned.get(name, [])
        # An equal graph built apart passes the guard too.
        assert crossing_pairs(Graph(g.n, g.edges, g.labels), p) == expected
    with pytest.raises(ContractError, match="does not belong"):
        crossing_pairs(cycle(4), p)


# ---------------------------------------------------------------------------
# crossing lemmas


def test_crossing_lemmas_pass_on_k4_minus_e():
    g = figure_graph("k4_minus_e")
    p = compute_classes(g)
    records = check_crossing_lemmas(g, p, 1, 2)
    assert all(r.passed for r in records), records
    # the side-to-side edges form exactly the singleton class {0-1}
    assert p.class_of_pair(0, 1) == 0


def test_standalone_verifiers_leave_records_unkeyed():
    # Only theorem_sweep keys records by graph6; a standalone call leaves
    # the key empty.
    g = figure_graph("k4_minus_e")
    p = compute_classes(g)
    for records in (
        check_crossing_lemmas(g, p, 1, 2),
        check_tinylemma_instances(g, p),
        verify_partition_laws(g, p),
    ):
        assert records
        assert all(r.graph_key == "" for r in records)


def test_crossing_lemmas_require_crossing_pair():
    g = triangle_with_tail(3)
    with pytest.raises(ContractError, match="nested"):
        check_crossing_lemmas(g, compute_classes(g), 0, 1)


def test_crossing_lemmas_pass_over_corpus():
    for n in range(3, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            p = compute_classes(g)
            for c in range(p.k):
                for d in range(c + 1, p.k):
                    if class_pair_relation(g, p, c, d).tag != CROSSING:
                        continue
                    records = check_crossing_lemmas(g, p, c, d)
                    assert all(r.passed for r in records), (g.edges, c, d, records)


def test_fabricated_partition_fails_touch_law():
    # C4 with a hand-built wrong partition: {01}, {03}, {12, 23}; the pair
    # ({01}, {12,23}) crosses with shared part {1}, but edge 2-3 avoids it.
    g = cycle(4)
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1, 2, 2),
        classes=((0,), (1,), (2, 3)),
        vertex_sets=(frozenset({0, 1}), frozenset({0, 3}), frozenset({1, 2, 3})),
        bits=(0,) * g.m,
        contradictions=(None,) * 3,
    )
    rel = class_pair_relation(g, fake, 0, 2)
    assert rel.tag == CROSSING
    records = check_crossing_lemmas(g, fake, 0, 2)
    record = next(r for r in records if r.check == "crossing-edges-touch-intersection")
    assert not record.passed
    assert "(2, 3)" in record.witness


# ---------------------------------------------------------------------------
# three-class classification


def test_k4_minus_e_is_complete_tripartite():
    outcome = three_class_classification(figure_graph("k4_minus_e"))
    assert outcome.kind == "complete_tripartite"
    assert outcome.tripartite_parts == ((0,), (1,), (2, 3))


def test_complete_multipartite_generator_round_trip():
    outcome = three_class_classification(complete_multipartite(1, 1, 2))
    assert outcome.kind == "complete_tripartite"


def test_double_path_apex_has_spanning_class():
    for k in (2, 3, 4):
        g = double_path_apex(k)
        outcome = three_class_classification(g)
        assert outcome.kind == "spanning_class"
        assert outcome.tripartite_parts is None
        p = compute_classes(g)
        assert p.vertex_sets[outcome.spanning_class] == frozenset(range(g.n))


def test_three_class_contract_errors():
    with pytest.raises(ContractError, match="3 classes"):
        three_class_classification(cycle(5))
    with pytest.raises(ContractError, match="connected"):
        three_class_classification(Graph(6, [(0, 1), (2, 3), (4, 5)]))


def test_three_class_theorem_over_corpus():
    for n in range(3, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            if compute_classes(g).k != 3:
                continue
            outcome = three_class_classification(g)
            assert (
                outcome.tripartite_parts is not None
                or outcome.spanning_class is not None
            )


# ---------------------------------------------------------------------------
# the small adjacency lemma


def test_tinylemma_vacuous_on_simple_fixtures():
    for g in (figure_graph("k4_minus_e"), Graph(3), cycle(5)):
        (record,) = check_tinylemma_instances(g, compute_classes(g))
        assert record.passed
        assert "instances=0" in record.detail


def test_tinylemma_holds_over_corpus():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            (record,) = check_tinylemma_instances(g, compute_classes(g))
            assert record.passed, (g.edges, record)
