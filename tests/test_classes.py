"""Edge-class partition: golden fixtures, laws, and minimality oracle."""

from __future__ import annotations

import re
from itertools import combinations

import pytest

from qt2ec import (
    Colourability,
    ColourabilityClass,
    ContractError,
    EdgeClassPartition,
    EdgeColouring,
    Graph,
    Orientation,
    OrientationFeasibility,
    RefusalError,
    compute_classes,
    enumerate_colourings,
    enumerate_orientations,
    induced_p3s,
    is_connected,
    is_module_set,
    verify_partition_laws,
)
from qt2ec.classes import class_choices
from qt2ec.families import (
    complete,
    cycle,
    double_path_apex,
    figure_graph,
    path,
    threshold_alternating,
    triangle_with_tail,
)
from qt2ec.oracle import enumerate_labeled_graphs


def closed_edge_masks(g: Graph) -> list[int]:
    """All edge subsets (as bitmasks) no induced P3 crosses: the sets a
    colour class may occupy.  Independent of the union-find path."""
    pairs = [(g.edge_index(u, v), g.edge_index(v, w)) for u, v, w in induced_p3s(g)]
    masks = []
    for mask in range(1 << g.m):
        if all(((mask >> i) ^ (mask >> j)) & 1 == 0 for i, j in pairs):
            masks.append(mask)
    return masks


def minimal_closed_superset(g: Graph, edge_index: int) -> int:
    """Smallest closed edge set containing the edge; asserts uniqueness."""
    best = None
    for mask in closed_edge_masks(g):
        if not (mask >> edge_index) & 1:
            continue
        if best is None or mask.bit_count() < best.bit_count():
            best = mask
    assert best is not None
    ties = [
        m
        for m in closed_edge_masks(g)
        if (m >> edge_index) & 1 and m.bit_count() == best.bit_count()
    ]
    assert ties == [best], "minimum closed superset is not unique"
    return best


# ---------------------------------------------------------------------------
# golden fixtures


def test_p3_single_class():
    p = compute_classes(path(3))
    assert p.k == 1
    assert p.class_edges(0) == ((0, 1), (1, 2))


def test_complete_graphs_have_singleton_classes():
    for n in (3, 4, 5):
        p = compute_classes(complete(n))
        assert p.k == n * (n - 1) // 2
        assert all(len(c) == 1 for c in p.classes)


def test_k4_minus_e_three_classes():
    p = compute_classes(figure_graph("k4_minus_e"))
    assert p.k == 3
    assert [p.class_edges(c) for c in range(3)] == [
        ((0, 1),),
        ((0, 2), (0, 3)),
        ((1, 2), (1, 3)),
    ]
    assert p.vertex_sets == (
        frozenset({0, 1}),
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
    )


def test_threshold_six_has_three_classes():
    assert compute_classes(threshold_alternating(6)).k == 3


def test_figure_one_left_classes():
    p = compute_classes(figure_graph("fig1_left"))
    assert p.k == 4
    assert sorted(len(c) for c in p.classes) == [1, 2, 3, 6]
    # brute-confirmed golden: the six-edge class generated by edge v1v2
    assert p.class_edges(p.class_of_pair(0, 1)) == (
        (0, 1), (0, 3), (1, 2), (1, 5), (2, 3), (3, 5),
    )


def test_cycle_five_single_class():
    p = compute_classes(cycle(5))
    assert p.k == 1


def test_class_of_edge_singletons_and_errors():
    p = compute_classes(complete(3))
    assert p.class_edges(p.class_of_pair(0, 2)) == ((0, 2),)
    with pytest.raises(ContractError):
        p.class_of_pair(0, 3)


def test_triangle_with_tail_apex_edge_is_singleton():
    g = triangle_with_tail(3)
    p = compute_classes(g)
    u, v = g.vertex_by_label("u"), g.vertex_by_label("v")
    assert p.class_edges(p.class_of_pair(u, v)) == ((min(u, v), max(u, v)),)
    assert p.k == 2


def test_double_path_apex_three_classes():
    g = double_path_apex(3)
    p = compute_classes(g)
    assert p.k == 3


def test_empty_and_disconnected_graphs():
    assert compute_classes(Graph(0)).k == 0
    assert compute_classes(Graph(3)).k == 0
    p = compute_classes(Graph(4, [(0, 1), (2, 3)]))
    assert p.k == 2  # classes computed per component


def test_determinism_across_runs():
    g = figure_graph("fig1_left")
    assert compute_classes(g) == compute_classes(g)


@pytest.mark.parametrize(
    "g",
    [Graph(3), path(2), path(4), figure_graph("k4_minus_e"), cycle(5), complete(4), threshold_alternating(8)],
)
def test_class_choices_come_in_class_bitmask_order(g):
    # Mask by mask, each edge reads its class's bit of the mask; oriented,
    # that bit flips the edge's canonical bit.
    p = compute_classes(g)
    want = [tuple((mask >> c) & 1 for c in p.class_of) for mask in range(1 << p.k)]
    assert list(class_choices(p, p.k)) == want
    if all(w is None for w in p.contradictions):
        flipped = [tuple(b ^ x for b, x in zip(p.bits, choice)) for choice in want]
        assert list(class_choices(p, p.k, oriented=True)) == flipped


def test_class_choices_check_the_cap_when_called():
    # No choice is drawn: each error comes from the call itself, a negative
    # cap first, then a class with no orientation, then the class count.
    p = compute_classes(cycle(5))
    with pytest.raises(ContractError, match="enumeration cap must be at least 0, got -1"):
        class_choices(p, -1, oriented=True)
    with pytest.raises(RefusalError, match="graph has no quasi-transitive orientation"):
        class_choices(p, 0, oriented=True)
    with pytest.raises(RefusalError, match="enumeration cap exceeded: 1 classes > cap 0"):
        class_choices(p, 0)
    assert len(list(class_choices(p, 1))) == 2


@pytest.mark.parametrize("cap", [2.5, True, "3", None, 3.0])
def test_an_enumeration_cap_that_is_not_an_int_is_refused(cap):
    # 2.5 and True were taken as caps; "3" and None failed with a bare
    # TypeError at the comparison.  C5 has no orientation, so the orientation
    # call shows the cap is checked first.
    for enumerate_ in (enumerate_colourings, enumerate_orientations):
        for g in (path(4), cycle(5)):
            with pytest.raises(ContractError, match=re.escape(f"enumeration cap must be an int, got {cap!r}")):
                enumerate_(g, cap=cap)


# ---------------------------------------------------------------------------
# partition laws


def test_partition_laws_pass_on_computed_partitions():
    for g in (path(3), cycle(5), figure_graph("fig1_left"), threshold_alternating(8)):
        records = verify_partition_laws(g, compute_classes(g))
        assert all(r.passed for r in records), records


def test_partition_laws_catch_artificial_split():
    g = path(3)
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1),
        classes=((0,), (1,)),
        vertex_sets=(frozenset({0, 1}), frozenset({1, 2})),
        bits=(0,) * g.m,
        contradictions=(None,) * 2,
    )
    records = verify_partition_laws(g, fake)
    failed = {r.check for r in records if not r.passed}
    assert "partition-p3-same-class" in failed
    record = next(r for r in records if r.check == "partition-p3-same-class")
    assert "(0, 1, 2)" in record.witness


def test_partition_laws_catch_disconnected_class():
    g = path(4)
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1, 0),
        classes=((0, 2), (1,)),
        vertex_sets=(frozenset({0, 1, 2, 3}), frozenset({1, 2})),
        bits=(0,) * g.m,
        contradictions=(None,) * 2,
    )
    failed = {r.check for r in verify_partition_laws(g, fake) if not r.passed}
    assert "partition-class-connected" in failed


def test_partition_laws_catch_duplicate_vertex_sets():
    # opposite C4 edges as "classes": both pairs span all four vertices
    g = cycle(4)
    full = frozenset({0, 1, 2, 3})
    fake = EdgeClassPartition(
        g,
        class_of=(0, 1, 1, 0),
        classes=((0, 3), (1, 2)),
        vertex_sets=(full, full),
        bits=(0,) * g.m,
        contradictions=(None,) * 2,
    )
    failed = {r.check for r in verify_partition_laws(g, fake) if not r.passed}
    assert "partition-distinct-vertex-sets" in failed


def test_partition_laws_reject_foreign_partition():
    with pytest.raises(ContractError):
        verify_partition_laws(cycle(4), compute_classes(path(3)))


def test_a_hand_built_partition_must_state_its_bits_and_contradictions():
    # Without them C5's one class would read as orientable, with 2^k
    # orientations, when it has none.
    g = cycle(5)
    with pytest.raises(TypeError, match="bits"):
        EdgeClassPartition(g, (0,) * 5, (tuple(range(5)),), (frozenset(range(5)),))


# ---------------------------------------------------------------------------
# record contracts: immutable tuples compared and hashed by their fields


def _record_cases():
    """(type, field names, fields, fields differing in one place)."""
    g = path(3)
    p = compute_classes(g)
    fields = (g, p.class_of, p.classes, p.vertex_sets, p.bits, p.contradictions)
    return [
        (EdgeClassPartition, "graph class_of classes vertex_sets bits contradictions",
         fields, fields[:4] + ((1, 0), fields[5])),
        (EdgeColouring, "graph colours", (g, ("R", "R")), (g, ("R", "B"))),
        (ColourabilityClass, "kind class_count colouring_count",
         (Colourability.TRIVIAL_ONLY, 1, 2), (Colourability.UNIQUELY_COLOURABLE, 1, 2)),
        (Orientation, "graph bits", (g, (0, 1)), (g, (1, 0))),
        (OrientationFeasibility, "partition", (p,), (compute_classes(cycle(5)),)),
    ]


RECORD_CASES = pytest.mark.parametrize(
    "cls, names, fields, other",
    [pytest.param(*case, id=case[0].__name__) for case in _record_cases()],
)


@RECORD_CASES
def test_record_fields_read_back_and_cannot_be_assigned(cls, names, fields, other):
    record = cls(*fields)
    assert tuple(record) == fields and len(record) == len(fields)
    for name, value in zip(names.split(), fields):
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


@RECORD_CASES
def test_records_of_one_type_compare_and_hash_by_their_fields(cls, names, fields, other):
    record = cls(*fields)
    assert record == cls(*fields) and hash(record) == hash(cls(*fields)) == hash(fields)
    assert record != cls(*other)


@RECORD_CASES
def test_a_record_missing_a_field_is_a_type_error(cls, names, fields, other):
    with pytest.raises(TypeError):
        cls(*fields[:-1])


# ---------------------------------------------------------------------------
# oracle equivalence and theorem-level invariants


def test_classes_equal_minimal_closed_sets_small_corpus():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            p = compute_classes(g)
            class_masks = []
            for cid in range(p.k):
                mask = 0
                for e in p.classes[cid]:
                    mask |= 1 << e
                class_masks.append(mask)
            for e in range(g.m):
                assert minimal_closed_superset(g, e) == class_masks[p.class_of[e]]


def test_proper_class_vertex_sets_are_modules():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            p = compute_classes(g)
            everything = frozenset(range(g.n))
            for cid in range(p.k):
                if p.vertex_sets[cid] != everything:
                    assert is_module_set(g, p.vertex_sets[cid])


def test_homogeneous_subgraph_confines_classes():
    # a connected proper induced module with an edge swallows the whole
    # class of each of its edges
    for n in range(3, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            p = compute_classes(g)
            for size in range(2, g.n):
                for subset in combinations(range(g.n), size):
                    inside = set(subset)
                    inner_edges = {
                        (u, v)
                        for u, v in g.edges
                        if u in inside and v in inside
                    }
                    if not inner_edges or not is_connected(g, inside):
                        continue
                    if not is_module_set(g, inside):
                        continue
                    for u, v in inner_edges:
                        assert set(p.class_edges(p.class_of_pair(u, v))) <= inner_edges
