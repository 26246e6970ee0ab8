"""Colouring validity, counting, enumeration, classification, witnesses."""

from __future__ import annotations

import pytest

from qt2ec import (
    Colourability,
    ContractError,
    EdgeColouring,
    Graph,
    RefusalError,
    classify_colourability,
    compute_classes,
    count_colourings,
    count_homogeneous_witness_classes,
    enumerate_colourings,
    find_homogeneous_witness,
    is_connected,
    is_module_set,
    is_quasi_transitive_colouring,
)
from qt2ec.families import (
    complete,
    cycle,
    double_path_apex,
    figure_graph,
    path,
    triangle_with_tail,
)
from qt2ec.oracle import (
    brute_force_colouring_count,
    enumerate_labeled_graphs,
    sample_connected_graphs,
    subset_witness_count,
)

# Figure-fixture colouring: the dotted edge set is R, the solid set B, and
# its colours in edge order.
_FIG1_LEFT_RED = [
    (0, 1), (1, 2), (1, 5), (3, 4), (0, 3), (1, 4), (2, 3), (3, 5),
]
_FIG1_LEFT_BLUE = [(0, 4), (2, 4), (0, 5), (4, 5)]
_FIG1_LEFT_COLOURS = tuple("RRBBRRRRBRRB")


# ---------------------------------------------------------------------------
# validity


def test_bichromatic_p3_is_invalid_with_witness():
    g = path(3)
    c = EdgeColouring(g, ("R", "B"))
    ok, witness = is_quasi_transitive_colouring(g, c)
    assert not ok and witness == (0, 1, 2)


def test_monochromatic_always_valid():
    for g in (path(4), cycle(5), figure_graph("fig1_right"), Graph(3)):
        ok, witness = is_quasi_transitive_colouring(g, EdgeColouring(g, ("R",) * g.m))
        assert ok and witness is None


def test_figure_one_left_colouring_is_valid():
    g = figure_graph("fig1_left")
    c = EdgeColouring(g, _FIG1_LEFT_COLOURS)
    for colour, edges in (("R", _FIG1_LEFT_RED), ("B", _FIG1_LEFT_BLUE)):
        assert {e for e, x in zip(g.edges, c.colours) if x == colour} == set(edges)
    ok, _ = is_quasi_transitive_colouring(g, c)
    assert ok


def test_partial_colouring_is_contract_error():
    with pytest.raises(ContractError, match="invalid colour None"):
        EdgeColouring(path(3), ("R", None))
    with pytest.raises(ContractError, match="different graph"):
        is_quasi_transitive_colouring(path(3), EdgeColouring(cycle(4), ("R",) * 4))


def test_colours_are_kept_as_a_tuple():
    # A string of colours was kept as the string, unequal to the record
    # built from the same colours as a tuple.
    g = path(4)
    spelled = EdgeColouring(g, "RRB")
    assert spelled.colours == ("R", "R", "B")
    assert spelled == EdgeColouring(g, ("R", "R", "B"))
    assert hash(spelled) == hash(EdgeColouring(g, ["R", "R", "B"]))
    with pytest.raises(ContractError, match="^colours must be iterable, got 5$"):
        EdgeColouring(g, 5)
    with pytest.raises(ContractError, match="^colouring needs a Graph, got None$"):
        EdgeColouring(None, ())


def test_colouring_of_the_wrong_length_is_contract_error():
    with pytest.raises(ContractError, match="colouring covers 1 edges, graph has 2"):
        EdgeColouring(path(3), ("R",))


@pytest.mark.parametrize(
    "colours, bad",
    [
        (("R", "G"), "'G'"),
        (("r", "B"), "'r'"),
        (("B", None), "None"),
        ((["R"], "B"), r"\['R'\]"),  # unhashable
    ],
)
def test_colours_other_than_r_and_b_are_named(colours, bad):
    with pytest.raises(ContractError, match=f"invalid colour {bad}$"):
        EdgeColouring(path(3), colours)


def test_swapping_colours_preserves_validity():
    # the enumerated colourings are closed under swapping R and B
    g = figure_graph("fig1_left")
    stream = {c.colours for c in enumerate_colourings(g)}
    swapped = {tuple("B" if x == "R" else "R" for x in colours) for colours in stream}
    assert swapped == stream
    for colours in swapped:
        ok, _ = is_quasi_transitive_colouring(g, EdgeColouring(g, colours))
        assert ok


# ---------------------------------------------------------------------------
# counting


def test_count_examples():
    assert count_colourings(complete(3)) == 8
    assert count_colourings(cycle(5)) == 2
    assert count_colourings(figure_graph("fig1_right")) == 2
    assert count_colourings(figure_graph("fig1_left")) == 16
    assert count_colourings(Graph(4)) == 1


def test_count_is_arbitrary_precision():
    assert count_colourings(complete(12)) == 2 ** 66


def test_count_matches_brute_force_on_n6_sample():
    for g in sample_connected_graphs(6, 20, seed=7):
        assert count_colourings(g) == brute_force_colouring_count(g)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_k2():
    out = list(enumerate_colourings(complete(2)))
    assert [c.colours for c in out] == [("R",), ("B",)]


def test_enumerate_starts_all_red_and_is_distinct():
    g = figure_graph("fig1_left")
    stream = list(enumerate_colourings(g))
    assert stream[0].colours == ("R",) * g.m
    assert len(stream) == 16 == len({c.colours for c in stream})
    for colouring in stream:
        ok, _ = is_quasi_transitive_colouring(g, colouring)
        assert ok


def test_enumerate_triangle_with_tail():
    g = triangle_with_tail(3)
    stream = list(enumerate_colourings(g))
    assert len(stream) == 4
    nontrivial = [c for c in stream if len(set(c.colours)) == 2]
    assert len(nontrivial) == 2


def test_enumerate_cycle_five_only_monochromatic():
    assert [set(c.colours) for c in enumerate_colourings(cycle(5))] == [{"R"}, {"B"}]


def test_enumerate_cap_refusal_reports_class_count():
    # K7 has 21 singleton classes, above the default cap of 20
    with pytest.raises(RefusalError, match="21"):
        enumerate_colourings(complete(7), cap=20)
    assert len(list(enumerate_colourings(complete(3), cap=3))) == 8


def test_a_negative_enumeration_cap_is_a_contract_error():
    with pytest.raises(ContractError, match="cap must be at least 0, got -1"):
        enumerate_colourings(path(4), cap=-1)
    # cap 0 stays valid: it admits k = 0 and refuses k = 1
    assert [c.colours for c in enumerate_colourings(Graph(3), cap=0)] == [()]
    with pytest.raises(RefusalError, match="1 classes > cap 0"):
        enumerate_colourings(path(4), cap=0)


def test_valid_iff_constant_on_classes_small_corpus():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            p = compute_classes(g)
            for mask in range(1 << g.m):
                colours = tuple("RB"[(mask >> e) & 1] for e in range(g.m))
                ok, _ = is_quasi_transitive_colouring(g, EdgeColouring(g, colours))
                constant = all(
                    len({colours[e] for e in members}) == 1
                    for members in p.classes
                )
                assert ok == constant


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify_colourability(figure_graph("fig1_right")).kind is Colourability.TRIVIAL_ONLY
    for k in range(2, 7):
        result = classify_colourability(triangle_with_tail(k))
        assert result.kind is Colourability.UNIQUELY_COLOURABLE
        assert result.class_count == 2 and result.colouring_count == 4
    result = classify_colourability(double_path_apex(3))
    assert result.kind is Colourability.PROPERLY_COLOURABLE
    assert result.class_count == 3


def test_classify_refusals():
    with pytest.raises(RefusalError):
        classify_colourability(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(RefusalError):
        classify_colourability(Graph(1))


# ---------------------------------------------------------------------------
# homogeneous witnesses


def test_witness_for_triangle_with_tail_is_the_apex_pair():
    g = triangle_with_tail(4)
    witness = find_homogeneous_witness(g)
    assert witness == {g.vertex_by_label("u"), g.vertex_by_label("v")}


def test_witness_absent_examples():
    assert find_homogeneous_witness(figure_graph("fig1_right")) is None
    assert find_homogeneous_witness(cycle(5)) is None
    # subset brute force over all candidate vertex sets agrees
    assert subset_witness_count(cycle(5)) == 0


def test_witness_requires_connected_input():
    with pytest.raises(RefusalError):
        find_homogeneous_witness(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(RefusalError):
        count_homogeneous_witness_classes(Graph(4, [(0, 1), (2, 3)]))


def test_witness_satisfies_all_three_conditions():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            witness = find_homogeneous_witness(g)
            trivial = compute_classes(g).k < 2
            assert (witness is None) == trivial
            if witness is not None:
                assert 2 <= len(witness) <= g.n - 1
                assert is_module_set(g, witness)
                assert is_connected(g, witness)


def test_witness_class_counts():
    assert count_homogeneous_witness_classes(triangle_with_tail(3)) == 1
    assert count_homogeneous_witness_classes(figure_graph("k4_minus_e")) == 3
    assert count_homogeneous_witness_classes(figure_graph("fig1_right")) == 0
