"""Orientation forcing, feasibility, counting, and enumeration."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from qt2ec import (
    Colourability,
    ContractError,
    InfeasibilityError,
    Orientation,
    RefusalError,
    classify_colourability,
    compute_classes,
    enumerate_orientations,
    is_quasi_transitive_orientation,
    orientability,
    partial_orientation,
)
from qt2ec.families import complete, cycle, figure_graph, path
from qt2ec.graph import Graph, induced_p3s
from qt2ec.oracle import brute_force_orientation_count, enumerate_labeled_graphs

# The twelve arcs of the full figure orientation (dense v_i -> i-1), and
# its direction bits in edge order.
_FIG_FULL_ARCS = [
    (5, 1), (4, 3), (0, 3), (2, 1), (2, 3), (5, 3),
    (0, 1), (4, 1), (0, 4), (2, 4), (0, 5), (5, 4),
]
_FIG_FULL_BITS = (0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1)
# The six arcs of the partial orientation generated by v1 -> v2.
_FIG_GAMMA_ARCS = [(0, 1), (2, 1), (5, 1), (0, 3), (2, 3), (5, 3)]


# ---------------------------------------------------------------------------
# validity


def test_common_head_p3_is_valid():
    g = path(3)
    ok, witness = is_quasi_transitive_orientation(g, Orientation(g, (0, 1)))
    assert ok and witness is None


def test_directed_two_path_is_invalid():
    g = path(3)
    ok, witness = is_quasi_transitive_orientation(g, Orientation(g, (0, 0)))
    assert not ok and witness == (0, 1, 2)


def test_figure_orientation_is_valid():
    g = figure_graph("fig1_left")
    o = Orientation(g, _FIG_FULL_BITS)
    assert sorted(o.arcs()) == sorted(_FIG_FULL_ARCS)
    assert o.is_total
    ok, _ = is_quasi_transitive_orientation(g, o)
    assert ok


def test_partial_orientation_is_contract_error_for_validity():
    g = path(3)
    with pytest.raises(ContractError, match="total"):
        is_quasi_transitive_orientation(g, Orientation(g, (0, None)))


@pytest.mark.parametrize(
    "bits",
    [(5, 0), (0, -1), (None, 2), (0, "1"), ([0], 1), (1.0, 0), (0, True), (Fraction(1), 0)],
)
def test_direction_bits_other_than_0_1_none_rejected(bits):
    with pytest.raises(ContractError, match="invalid direction bit"):
        Orientation(path(3), bits)


def test_validity_refuses_an_orientation_of_another_graph():
    with pytest.raises(ContractError, match="^orientation belongs to a different graph$"):
        is_quasi_transitive_orientation(path(3), Orientation(cycle(4), (0,) * 4))


def test_orientation_bits_are_kept_as_a_tuple():
    # Bits given as a list were kept as the list: the record was
    # unhashable and unequal to the one built from the same bits as a tuple.
    g = path(3)
    listed = Orientation(g, [0, None])
    assert type(listed.bits) is tuple
    assert listed == Orientation(g, (0, None))
    assert hash(listed) == hash(Orientation(g, (0, None)))
    with pytest.raises(ContractError, match="^direction bits must be iterable, got None$"):
        Orientation(g, None)
    with pytest.raises(ContractError, match="^orientation needs a Graph, got None$"):
        Orientation(None, ())


def test_orientation_of_the_wrong_length_is_contract_error():
    with pytest.raises(ContractError, match="orientation covers 3 edges, graph has 2"):
        Orientation(path(3), (0, 1, None))


def head_parity_verdict(g: Graph, o: Orientation) -> tuple[bool, tuple[int, int, int] | None]:
    """The validity check in its head-parity form: an edge's head parity
    at a centre is 0 when bit 0 points its head there, and the two edges
    of an induced P3 must have the same bit xor head parity."""

    def head_parity(index: int, centre: int) -> int:
        return 0 if centre == g.edge(index)[1] else 1

    for u, v, w in induced_p3s(g):
        i, j = g.edge_index(u, v), g.edge_index(v, w)
        if o.bits[i] ^ head_parity(i, v) != o.bits[j] ^ head_parity(j, v):
            return False, (u, v, w)
    return True, None


def test_validity_matches_the_head_parity_form():
    # Every total orientation of every labeled graph on at most four
    # vertices, valid and invalid ones alike.
    verdicts = {True: 0, False: 0}
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n, connected_only=False):
            for mask in range(1 << g.m):
                o = Orientation(g, tuple((mask >> e) & 1 for e in range(g.m)))
                verdict = is_quasi_transitive_orientation(g, o)
                assert verdict == head_parity_verdict(g, o), (g.edges, mask)
                verdicts[verdict[0]] += 1
    assert verdicts[True] and verdicts[False]


# ---------------------------------------------------------------------------
# forcing closure


def test_gamma_matches_figure():
    g = figure_graph("fig1_left")
    gamma = partial_orientation(g, (0, 1))
    assert sorted(gamma.arcs()) == sorted(_FIG_GAMMA_ARCS)
    # domain is exactly the class of the seed edge
    p = compute_classes(g)
    assert set(gamma.domain) == set(p.classes[p.class_of_pair(0, 1)])


def test_gamma_on_p3():
    gamma = partial_orientation(path(3), (0, 1))
    assert sorted(gamma.arcs()) == [(0, 1), (2, 1)]


def test_gamma_infeasible_on_odd_forcing_cycle():
    with pytest.raises(InfeasibilityError) as excinfo:
        partial_orientation(cycle(5), (0, 1))
    assert excinfo.value.edge in cycle(5).edges


def test_gamma_unknown_seed_edge():
    with pytest.raises(ContractError):
        partial_orientation(path(3), (0, 2))


@pytest.mark.parametrize("seed", [(0,), None, (0, 1, 2), 5])
def test_gamma_refuses_a_seed_that_is_not_a_pair(seed):
    # Each once raised a bare ValueError or TypeError from the unpacking.
    with pytest.raises(ContractError, match=f"^seed arc {re.escape(repr(seed))} is not a pair of vertex ids$"):
        partial_orientation(path(3), seed)


def test_gamma_reversal_pairs_small_corpus():
    for n in range(2, 5):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            feas = orientability(g)
            for u, v in g.edges:
                if not feas.class_consistent(feas.partition.class_of_pair(u, v)):
                    continue
                forward = partial_orientation(g, (u, v))
                backward = partial_orientation(g, (v, u))
                assert forward.domain == backward.domain
                assert backward == forward.reversed()


# ---------------------------------------------------------------------------
# feasibility and counting


def test_orientability_examples():
    c5 = orientability(cycle(5))
    assert not c5.orientable and c5.count == 0 and c5.k == 1
    assert c5.partition.contradictions[0] is not None

    c4 = orientability(cycle(4))
    assert c4.orientable and c4.k == 1 and c4.count == 2

    k4e = orientability(figure_graph("k4_minus_e"))
    assert k4e.orientable and k4e.k == 3 and k4e.count == 8


def test_orientability_matches_brute_force_small_corpus():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            assert orientability(g).count == brute_force_orientation_count(g)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_k2():
    assert len(list(enumerate_orientations(complete(2)))) == 2


def test_enumerate_p3_both_orientations():
    arcs = [sorted(o.arcs()) for o in enumerate_orientations(path(3))]
    assert arcs == [[(0, 1), (2, 1)], [(1, 0), (1, 2)]]


def test_enumerate_c4_alternating():
    out = [frozenset(o.arcs()) for o in enumerate_orientations(cycle(4))]
    assert len(out) == 2
    assert frozenset([(0, 1), (2, 1), (2, 3), (0, 3)]) in out
    assert frozenset([(1, 0), (1, 2), (3, 2), (3, 0)]) in out


def test_enumerate_streams_are_valid_and_distinct():
    g = figure_graph("fig1_left")
    stream = list(enumerate_orientations(g))
    assert len(stream) == 16 == len({o.bits for o in stream})
    for o in stream:
        ok, _ = is_quasi_transitive_orientation(g, o)
        assert ok


def test_enumerate_refusals():
    with pytest.raises(RefusalError, match="no quasi-transitive"):
        enumerate_orientations(cycle(5))
    with pytest.raises(RefusalError, match="cap"):
        enumerate_orientations(complete(7), cap=20)


def test_a_negative_enumeration_cap_is_a_contract_error():
    # the malformed cap is named before the graph is refused
    for g in (path(4), cycle(5)):
        with pytest.raises(ContractError, match="cap must be at least 0, got -1"):
            enumerate_orientations(g, cap=-1)
    # cap 0 stays valid: it admits k = 0 and refuses k = 1
    assert [o.bits for o in enumerate_orientations(Graph(2), cap=0)] == [()]
    with pytest.raises(RefusalError, match="1 classes > cap 0"):
        enumerate_orientations(path(4), cap=0)


def test_restriction_coherence_small_corpus():
    # any full orientation masked to a class equals the partial
    # orientation seeded with its own arc on any class edge
    for n in range(2, 5):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            if not orientability(g).orientable:
                continue
            p = compute_classes(g)
            for o in enumerate_orientations(g):
                for e, (u, v) in enumerate(g.edges):
                    cid = p.class_of[e]
                    arc = (u, v) if o.bits[e] == 0 else (v, u)
                    masked = tuple(
                        b if p.class_of[f] == cid else None for f, b in enumerate(o.bits)
                    )
                    assert partial_orientation(g, arc) == Orientation(g, masked)


# ---------------------------------------------------------------------------
# class relation through orientations


def test_same_gamma_class():
    # two edges share a class iff the partial orientations they generate
    # orient the same edge set
    def domain(g: Graph, seed: tuple[int, int]) -> tuple[int, ...]:
        return partial_orientation(g, seed).domain

    g = figure_graph("fig1_left")
    assert domain(g, (0, 1)) == domain(g, (2, 3))
    k4e = figure_graph("k4_minus_e")
    assert domain(k4e, (0, 1)) != domain(k4e, (0, 2))
    assert domain(path(3), (0, 1)) == domain(path(3), (1, 2))


def test_arc_serialization():
    g = path(3)
    gamma = partial_orientation(g, (0, 1))
    assert gamma.format_arcs() == "0 -> 1\n2 -> 1"


def test_unique_orientability_matches_trivial_colourability():
    for n in range(2, 5):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            brute = brute_force_orientation_count(g)
            if brute == 0 or g.m == 0:
                continue
            trivial_only = classify_colourability(g).kind is Colourability.TRIVIAL_ONLY
            assert (brute == 2) == trivial_only
