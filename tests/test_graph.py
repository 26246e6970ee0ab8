"""Graph representation, text formats, and primitive structure queries."""

from __future__ import annotations

import ast
import inspect
import re
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qt2ec
from qt2ec import (
    ContractError,
    FormatError,
    Graph,
    RefusalError,
    compute_classes,
    encode_graph6,
    format_edge_list,
    induced_p3_edges,
    induced_p3s,
    is_complete_multipartite,
    is_connected,
    is_module_set,
    parse_edge_list,
    parse_graph6,
    partial_orientation,
    to_dot,
)
from qt2ec.graph import graph_from_mask, mask_pairs, reach
from qt2ec.colouring import EdgeColouring
from qt2ec.families import complete, complete_multipartite, cycle, family_from_spec, figure_graph, path
from qt2ec.oracle import enumerate_labeled_graphs
from qt2ec.orientation import Orientation


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = list(combinations(range(n), 2))
    if not possible:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(possible), unique=True))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# construction


def test_constructor_canonicalizes_and_indexes():
    g = Graph(3, [(2, 1), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.edge_index(2, 1) == 1
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert repr(g) == repr(path(3)) == "Graph(n=3, m=2)"


@pytest.mark.parametrize("seed", range(20))
def test_constructor_output_does_not_depend_on_input_order(seed: int):
    # Shuffled, with each edge in either orientation and some repeated.
    rng = Random(seed)
    n = rng.randrange(1, 30)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    given = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
    given += rng.choices(given, k=len(given) // 3) + [(v, u) for u, v in given[: len(given) // 4]]
    rng.shuffle(given)
    g, ref = Graph(n, given), Graph(n, pairs)
    assert g.edges == ref.edges == tuple(pairs)
    assert [list(row.items()) for row in g._edge_at] == [list(row.items()) for row in ref._edge_at]
    assert g._adj_bits == ref._adj_bits
    assert [g.neighbors(v) for v in range(n)] == [ref.neighbors(v) for v in range(n)]
    for v in range(n):
        assert list(g._edge_at[v]) == sorted(g._edge_at[v])


def _built_both_ways(monkeypatch, build) -> list[tuple[Graph, Graph]]:
    """Each graph ``build()`` makes through ``Graph._make``, paired with
    the public constructor's build of the same arguments, after checking
    that the edges are what ``_make`` trusts them to be: canonical pairs
    of exact ints in range, each once."""
    made = []
    make = Graph._make.__func__

    def recording(cls, n, edges, labels=None):
        edges = list(edges)
        assert all(type(u) is int and type(v) is int and 0 <= u < v < n for u, v in edges)
        assert len(set(edges)) == len(edges)
        g = make(cls, n, edges, labels)
        made.append((g, Graph(n, edges, labels)))
        return g

    with monkeypatch.context() as patch:
        patch.setattr(Graph, "_make", classmethod(recording))
        build()
    return made


def _assert_same_fields(g: Graph, ref: Graph) -> None:
    assert (g.n, g.edges, g.labels, g._adj_bits) == (ref.n, ref.edges, ref.labels, ref._adj_bits)
    assert [list(row.items()) for row in g._edge_at] == [list(row.items()) for row in ref._edge_at]
    assert g._partition is None


def _gnp(rng: Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _permutation_graph(rng: Random, n: int) -> Graph:
    perm = rng.sample(range(n), n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if perm[u] > perm[v]])


def _cograph(rng: Random, n: int) -> Graph:
    # Merge random pieces, one vertex each at the start, by disjoint union
    # or by join, until one is left.
    pieces = [[v] for v in range(n)]
    edges = []
    while len(pieces) > 1:
        a = pieces.pop(rng.randrange(len(pieces)))
        b = pieces.pop(rng.randrange(len(pieces)))
        if rng.random() < 0.5:
            edges += [(u, v) for u in a for v in b]
        pieces.append(a + b)
    return Graph(n, edges)


def test_make_builds_what_the_public_constructor_builds(monkeypatch):
    one_arg = {
        "threshold": range(2, 31, 2),
        "triangle_tail": range(1, 16),
        "double_path_apex": range(2, 16),
        "path": range(1, 16),
        "cycle": range(3, 16),
        "complete": range(1, 16),
    }
    specs = [f"{name},{k}" for name, ks in one_arg.items() for k in ks]
    specs += ["k4_minus_e", "fig1_left", "fig1_right"]
    specs += [
        "complete_multipartite," + ",".join(map(str, parts))
        for parts in ([1], [4], [1, 1], [2, 3], [3, 2], [1, 2, 3], [3, 1, 2, 5], [4, 4, 4, 4], [16, 16, 16, 16, 16])
    ]
    specs += [
        "join_k1:" * depth + base
        for depth in (1, 2, 3)
        for base in ("path,1", "cycle,5", "fig1_left", "k4_minus_e", "threshold,6", "complete_multipartite,2,3")
    ]
    for spec in specs:
        made = _built_both_ways(monkeypatch, lambda: family_from_spec(spec))
        assert len(made) == 1 + spec.count("join_k1:"), spec
        for g, ref in made:
            _assert_same_fields(g, ref)

    # graph_from_mask, then parse_graph6, on every labeled graph with n <= 5.
    for n in range(1, 6):
        made = _built_both_ways(monkeypatch, lambda: list(enumerate_labeled_graphs(n, connected_only=False)))
        assert len(made) == 2 ** (n * (n - 1) // 2)
        for source, ref in made:
            _assert_same_fields(source, ref)
            (parsed, ref), = _built_both_ways(monkeypatch, lambda: parse_graph6(encode_graph6(source)))
            _assert_same_fields(parsed, ref)
            assert parsed == source

    # parse_graph6 on the benchmark's large kernel shapes.
    rng = Random(36)
    shapes = [
        _gnp(rng, 70, 0.5),
        _gnp(rng, 200, 8 / 200),
        _permutation_graph(rng, 65),
        _cograph(rng, 70),
        family_from_spec("threshold,80"),
        family_from_spec("complete_multipartite,9,9,9,9,9,9,9,9,8"),
        family_from_spec("double_path_apex,90"),
    ]
    for source in shapes:
        (parsed, ref), = _built_both_ways(monkeypatch, lambda: parse_graph6(encode_graph6(source)))
        _assert_same_fields(parsed, ref)
        assert parsed == source


def test_constructor_names_the_first_bad_edge_in_input_order():
    class Id(int):
        pass

    cases = [
        ([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
        ([(0, 1), (0, 5), (2, 2)], r"edge \(0, 5\) outside vertex range 0\.\.2"),
        ([(3, 1), (-1, 0)], r"edge \(3, 1\) outside vertex range 0\.\.2"),
        ([(0, 1), (-1, 0)], r"edge \(-1, 0\) outside vertex range 0\.\.2"),
        # A self-loop is named before a range error on the same edge.
        ([(7, 7)], "self-loop at vertex 7"),
        # An edge that is not a pair of int ids, named as given.
        ([("0", "1")], re.escape("edge ('0', '1') is not a pair of int vertex ids")),
        ([(0, 1), None], "edge None is not a pair of int vertex ids"),
        ([(0, 1, 2)], re.escape("edge (0, 1, 2) is not a pair of int vertex ids")),
        # An id must be exactly an int: a float, a Fraction, a bool or an
        # int subclass is refused even where it equals a vertex, and the
        # first such edge is named as given, before any later edge's
        # self-loop or range error.
        ([(1.0, 0)], re.escape("edge (1.0, 0) is not a pair of int vertex ids")),
        ([(0, 1.5), (2, 2)], re.escape("edge (0, 1.5) is not a pair of int vertex ids")),
        ([(0, Fraction(1))], re.escape("edge (0, Fraction(1, 1)) is not a pair of int vertex ids")),
        ([(0, 1), (Id(2), 1)], re.escape("edge (2, 1) is not a pair of int vertex ids")),
        ([(0, True), (True, 2)], re.escape("edge (0, True) is not a pair of int vertex ids")),
        ([(2, 1), (2, False)], re.escape("edge (2, False) is not a pair of int vertex ids")),
        # A repeated edge is refused for a bad id as its first spelling is.
        ([(0, 1), (0, True)], re.escape("edge (0, True) is not a pair of int vertex ids")),
        ([(0, 1), (0, 1.0)], re.escape("edge (0, 1.0) is not a pair of int vertex ids")),
        ([(1, 0), (0, 1.0)], re.escape("edge (0, 1.0) is not a pair of int vertex ids")),
        # Edges that are not iterable at all, named as given.
        (5, "edges must be iterable, got 5"),
        (None, "edges must be iterable, got None"),
    ]
    for edges, message in cases:
        with pytest.raises(ContractError, match=f"^{message}$"):
            Graph(3, edges)
    with pytest.raises(ContractError, match="^vertex count must be at least 0, got -1$"):
        Graph(-1, [(0, 0)])
    for n in (2.0, "3", True):
        with pytest.raises(ContractError, match=f"^vertex count must be an int, got {re.escape(repr(n))}$"):
            Graph(n)


# Each refusal of the edge rule and its exact message, on vertices 0..2.
EDGE_RULE_REFUSALS = [
    # Not a pair.
    ((0,), "edge (0,) is not a pair of int vertex ids"),
    ((0, 1, 2), "edge (0, 1, 2) is not a pair of int vertex ids"),
    ([0, 1, 2], "edge [0, 1, 2] is not a pair of int vertex ids"),
    ("01", "edge '01' is not a pair of int vertex ids"),
    (None, "edge None is not a pair of int vertex ids"),
    (7, "edge 7 is not a pair of int vertex ids"),
    # An id that is not an int.
    ((0, 1.0), "edge (0, 1.0) is not a pair of int vertex ids"),
    (("0", 1), "edge ('0', 1) is not a pair of int vertex ids"),
    ((None, 1), "edge (None, 1) is not a pair of int vertex ids"),
    # A bool, though it equals an int.
    ((True, 2), "edge (True, 2) is not a pair of int vertex ids"),
    ((0, False), "edge (0, False) is not a pair of int vertex ids"),
    # A self-loop, named as such when it is out of range too.
    ((1, 1), "self-loop at vertex 1"),
    ((3, 3), "self-loop at vertex 3"),
    ((-1, -1), "self-loop at vertex -1"),
    # The low end out of range, given first or second.
    ((-1, 2), "edge (-1, 2) outside vertex range 0..2"),
    ((2, -1), "edge (2, -1) outside vertex range 0..2"),
    # The high end out of range, given first or second.
    ((0, 3), "edge (0, 3) outside vertex range 0..2"),
    ((3, 0), "edge (3, 0) outside vertex range 0..2"),
    # Both ends out of range.
    ((-1, 3), "edge (-1, 3) outside vertex range 0..2"),
    ((3, -1), "edge (3, -1) outside vertex range 0..2"),
]


@pytest.mark.parametrize("edge, message", EDGE_RULE_REFUSALS, ids=[repr(e) for e, _ in EDGE_RULE_REFUSALS])
def test_edge_rule_refuses_each_bad_edge_with_its_message(edge, message):
    # Alone, after good edges in either order, and before a later bad edge.
    for edges in ([edge], [(0, 1), (2, 1), edge], iter([(1, 2), edge, (1, 1)])):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            Graph(3, edges)


def test_edge_rule_builds_one_graph_from_every_spelling_of_the_edges():
    Pair = namedtuple("Pair", "u v")
    pairs = [(0, 1), (0, 4), (1, 2), (2, 4), (3, 4)]
    spellings = {
        "canonical tuples": pairs,
        "reversed tuples": [(v, u) for u, v in pairs],
        "lists": [[u, v] for u, v in pairs],
        "reversed lists": [[v, u] for u, v in pairs],
        "named tuples": [Pair(u, v) for u, v in pairs],
        "mixed and repeated": [[0, 1], (4, 0), Pair(1, 2), (2, 4), (4, 3), (1, 0), [4, 2]],
    }
    ref = Graph._make(5, pairs)
    for name, edges in spellings.items():
        g = Graph(5, edges)
        assert g == ref, name
        assert all(type(e) is tuple for e in g.edges), name
        assert [list(row.items()) for row in g._edge_at] == [list(row.items()) for row in ref._edge_at], name
        assert g._adj_bits == ref._adj_bits, name
    # An exact tuple given low end first is kept as the canonical key.
    assert all(kept is given for kept, given in zip(Graph(5, pairs).edges, pairs))


def test_constructor_refuses_numpy_integer_ids():
    # 1 << np.int64(65) wraps, so a numpy id that reached the row build
    # would give vertex 0 a row without vertex 65.
    np = pytest.importorskip("numpy")
    for edges in ([(0, np.int64(65)), (np.int64(65), 66)], [(np.int64(0), np.int64(1)), (1, 2)]):
        message = f"edge {edges[0]!r} is not a pair of int vertex ids"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            Graph(70, edges)


def test_vertex_queries_refuse_what_is_not_a_vertex():
    # A negative id once read the row it wraps to: neighbors(-1) gave
    # vertex 2's neighbours.
    g = Graph(3, [(1, 2)], labels=["a", "b", "c"])
    queries = [
        (g.neighbors, (1,)),
        (g.degree, 1),
        (g.adjacency_bits, 0b010),
        (g.label, "c"),
        (Graph(3, [(1, 2)]).label, "2"),
        (lambda v: is_module_set(g, [1, v]), True),
        (lambda v: is_connected(g, [1, v]), True),
    ]
    for query, at_2 in queries:
        assert query(2) == at_2
        for v in (-1, 3):
            with pytest.raises(ContractError, match=f"^vertex {v} outside range 0\\.\\.2$"):
                query(v)
        for v in (1.0, True, None):
            with pytest.raises(ContractError, match=f"^vertex {re.escape(repr(v))} is not an int vertex id$"):
                query(v)
    for vertex_set in (1, 0.5):
        for query in (is_module_set, is_connected):
            with pytest.raises(ContractError, match=f"^vertex set must be iterable, got {vertex_set}$"):
                query(g, vertex_set)


def test_constructor_reads_a_one_shot_iterator_once():
    pulled = []

    def edges():
        for e in [(1, 2), (0, 1), (2, 1)]:
            pulled.append(e)
            yield e

    g = Graph(3, edges())
    assert g.edges == ((0, 1), (1, 2))
    assert pulled == [(1, 2), (0, 1), (2, 1)]


def test_constructor_rejects_bad_edges():
    with pytest.raises(ContractError):
        Graph(3, [(1, 1)])
    with pytest.raises(ContractError):
        Graph(2, [(0, 2)])
    with pytest.raises(ContractError):
        Graph(-1)


def test_constructor_rejects_bad_labels():
    with pytest.raises(ContractError, match="expected 2 labels, got 1"):
        Graph(2, [(0, 1)], labels=["a"])
    with pytest.raises(ContractError, match="vertex labels must be unique"):
        Graph(2, [(0, 1)], labels=["a", "a"])
    with pytest.raises(ContractError, match="^labels must be iterable, got 5$"):
        Graph(2, [(0, 1)], labels=5)


@pytest.mark.parametrize(
    ("labels", "message"),
    [
        # Each used to be turned into strings: ("None", "1"), a refusal as
        # not unique, and the labels "a", "b", "c".
        ([None, "b", "c"], "vertex label None is not a str"),
        (["a", 1, "1"], "vertex label 1 is not a str"),
        ("abc", "labels must be a sequence of str, got 'abc'"),
        (["a", "b", b"c"], "vertex label b'c' is not a str"),
    ],
)
def test_both_constructors_refuse_labels_that_are_not_strs(labels, message):
    for build in (Graph, Graph._make):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            build(3, [(0, 1)], labels=labels)
    assert Graph(3, [(0, 1)], labels=("a", "1", "None")).labels == ("a", "1", "None")


def test_vertex_by_label_rejects_unknown_labels_and_ids():
    labelled = Graph(2, [(0, 1)], labels=["a", "b"])
    assert labelled.vertex_by_label("b") == 1
    for label in ("c", "0"):
        with pytest.raises(ContractError, match=f"unknown vertex label '{label}'"):
            labelled.vertex_by_label(label)
    plain = Graph(2, [(0, 1)])
    assert plain.vertex_by_label("1") == 1
    for label in ("a", "1_0", "+1", "01", "\u0661"):
        with pytest.raises(ContractError, match=re.escape(f"unknown vertex label '{label}'")):
            plain.vertex_by_label(label)
    for label in ("2", "-1"):
        with pytest.raises(ContractError, match=rf"vertex {label} outside range 0\.\.1"):
            plain.vertex_by_label(label)
    with pytest.raises(ContractError, match="^unknown vertex label None$"):
        plain.vertex_by_label(None)


def test_unknown_edge_is_contract_error():
    # Negative, out-of-range and self pairs are unknown edges too.
    for u, v in [(0, 2), (-1, 0), (0, -1), (-1, 2), (2, -1), (3, 2), (2, 3), (0, 7), (1, 1)]:
        with pytest.raises(ContractError, match="no edge"):
            path(3).edge_index(u, v)


def test_has_edge_is_false_for_out_of_range_endpoints():
    g = Graph(4, [(1, 3)])
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    # -1 must not wrap round to vertex 3's row, and 7 must not index past it.
    for u, v in [(-1, 1), (1, -1), (7, 1), (1, 7), (4, 1), (1, 4), (1, 1)]:
        assert not g.has_edge(u, v), (u, v)


def test_edge_queries_refuse_ids_that_are_not_ints_and_indices_out_of_range():
    g = Graph(3, [(1, 2)])
    # An endpoint that is not an int is named as _vertex names it, however
    # it compares or hashes; an int endpoint out of range is no edge.
    for query, u, v, bad in [
        (g.has_edge, 1.0, 2, 1.0),
        (g.edge_index, 1.0, 2, 1.0),
        (g.has_edge, 1, [2], [2]),
        (g.has_edge, 1, 2.0, 2.0),
        (g.has_edge, True, 2, True),
        (g.edge_index, 1, 2.0, 2.0),
    ]:
        with pytest.raises(ContractError, match=f"^vertex {re.escape(repr(bad))} is not an int vertex id$"):
            query(u, v)
    # A negative index must not wrap round to the last edge.
    assert g.edge(0) == (1, 2)
    for index in (-1, 5):
        with pytest.raises(ContractError, match=f"^edge index {index} outside edge index range 0\\.\\.0$"):
            g.edge(index)
    for index in (1.0, True, None):
        with pytest.raises(ContractError, match=f"^edge index {index!r} is not an int$"):
            g.edge(index)


@given(graphs(max_n=10))
def test_neighbors_and_edge_index_agree_with_the_bitsets(g: Graph):
    for v in range(g.n):
        row = g.adjacency_bits(v)
        assert g.neighbors(v) == tuple(u for u in range(g.n) if (row >> u) & 1)
    for i, (u, v) in enumerate(g.edges):
        assert g.edge_index(u, v) == g.edge_index(v, u) == i


# Each public call handed None where it takes a graph, a record, a text or
# a sweep config: the arguments (G, C, O and P stand for a graph and its
# colouring, orientation and partition), the call that refuses it, and
# the type it names.  Calls that hand the graph on at once are refused by
# the call they hand it to.
G, C, O, P = "graph", "colouring", "orientation", "partition"
NOT_WHAT_IT_TAKES = [
    ("compute_classes", (None,), "compute_classes", "a Graph"),
    ("orientability", (None,), "compute_classes", "a Graph"),
    ("count_colourings", (None,), "compute_classes", "a Graph"),
    ("enumerate_colourings", (None,), "compute_classes", "a Graph"),
    ("enumerate_orientations", (None,), "compute_classes", "a Graph"),
    ("partial_orientation", (None, (0, 1)), "compute_classes", "a Graph"),
    ("classify_colourability", (None,), "classify_colourability", "a Graph"),
    ("find_homogeneous_witness", (None,), "is_connected", "a Graph"),
    ("count_homogeneous_witness_classes", (None,), "is_connected", "a Graph"),
    ("encode_graph6", (None,), "encode_graph6", "a Graph"),
    ("format_edge_list", (None,), "format_edge_list", "a Graph"),
    ("to_dot", (None,), "to_dot", "a Graph"),
    ("induced_p3_edges", (None,), "induced_p3_edges", "a Graph"),
    ("induced_p3s", (None,), "induced_p3_edges", "a Graph"),
    ("is_complete_multipartite", (None,), "is_complete_multipartite", "a Graph"),
    ("is_connected", (None,), "is_connected", "a Graph"),
    ("is_module_set", (None, ()), "is_module_set", "a Graph"),
    ("is_quasi_transitive_colouring", (None, C), "is_quasi_transitive_colouring", "a Graph"),
    ("is_quasi_transitive_colouring", (G, None), "is_quasi_transitive_colouring", "an EdgeColouring"),
    ("is_quasi_transitive_orientation", (None, O), "is_quasi_transitive_orientation", "a Graph"),
    ("is_quasi_transitive_orientation", (G, None), "is_quasi_transitive_orientation", "an Orientation"),
    ("verify_partition_laws", (None, P), "verify_partition_laws", "a Graph"),
    ("verify_partition_laws", (G, None), "verify_partition_laws", "an EdgeClassPartition"),
    ("check_crossing_lemmas", (None, P), "crossing_pairs", "a Graph"),
    ("check_crossing_lemmas", (G, None), "crossing_pairs", "an EdgeClassPartition"),
    ("check_tinylemma_instances", (None, P), "crossing_pairs", "a Graph"),
    ("check_tinylemma_instances", (G, None), "crossing_pairs", "an EdgeClassPartition"),
    ("class_pair_relation", (None, P, 0, 1), "class_pair_relation", "a Graph"),
    ("class_pair_relation", (G, None, 0, 1), "class_pair_relation", "an EdgeClassPartition"),
    ("brute_force_colouring_count", (None,), "brute_force_colouring_count", "a Graph"),
    ("brute_force_orientation_count", (None,), "brute_force_orientation_count", "a Graph"),
    ("subset_witness_count", (None,), "subset_witness_count", "a Graph"),
    ("sweep_records", (None,), "sweep_records", "a SweepConfig"),
    ("theorem_sweep", (None,), "sweep_records", "a SweepConfig"),
    ("parse_edge_list", (None,), "parse_edge_list", "a str"),
    ("parse_graph6", (None,), "parse_graph6", "a str"),
]


@pytest.mark.parametrize(
    "name, args, refuser, kind",
    NOT_WHAT_IT_TAKES,
    ids=[f"{name}-{args.index(None)}" for name, args, _, _ in NOT_WHAT_IT_TAKES],
)
def test_public_calls_refuse_what_they_do_not_take_naming_it(name, args, refuser, kind):
    g = path(3)
    fixtures = {G: g, C: EdgeColouring(g, "RR"), O: Orientation(g, (0, 1)), P: compute_classes(g)}
    args = [fixtures.get(a, a) for a in args]
    with pytest.raises(ContractError, match=f"^{refuser} needs {kind}, got None$"):
        getattr(qt2ec, name)(*args)


def test_every_public_call_on_a_graph_or_a_text_is_in_the_refusal_table():
    takes = {"g", "text", "cfg"}
    public = [
        name
        for name in qt2ec.__all__
        if inspect.isfunction(getattr(qt2ec, name))
        and next(iter(inspect.signature(getattr(qt2ec, name)).parameters), None) in takes
    ]
    assert sorted(set(public)) == sorted({name for name, _, _, _ in NOT_WHAT_IT_TAKES})


# ---------------------------------------------------------------------------
# edge-list format


def test_parse_edge_list_two_edge_path():
    g = parse_edge_list("a b\nb c")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels == ("a", "b", "c")


def test_parse_edge_list_duplicates_collapse():
    g = parse_edge_list("a b\nb a")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_edge_list_self_loop_names_line():
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("a b\nc c")


def test_parse_edge_list_bad_token_count():
    with pytest.raises(FormatError, match="line 1"):
        parse_edge_list("a b c")


def test_parse_edge_list_header_and_comments():
    g = parse_edge_list("# a comment\nvertices: x y z\n\nx y\n")
    assert g.n == 3
    assert g.edges == ((0, 1),)
    assert g.degree(2) == 0


def _reference_parse_edge_list(text: str) -> Graph:
    """The parser as first written: one closure call per token, and each
    line stripped, tested and split on its own."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def vid(token: str) -> int:
        if token not in index:
            index[token] = len(labels)
            labels.append(token)
        return index[token]

    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            for token in line[len("vertices:"):].split():
                vid(token)
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        if tokens[0] == tokens[1]:
            raise FormatError(f"line {lineno}: self-loop on {tokens[0]!r}")
        edges.append((vid(tokens[0]), vid(tokens[1])))
    return Graph(len(labels), edges, labels=labels or None)


def _parsed(parse, text: str) -> tuple:
    try:
        g = parse(text)
    except FormatError as exc:
        return ("FormatError", str(exc))
    return (g.n, g.edges, g.labels)


_TRICKY_EDGE_LISTS = [
    "a\tb\r\nb\t c\r\n",
    "  # indented comment\n\t#tab comment\na b\n #\n",
    "vertices:a b\nb c\n",
    "vertices:\nvertices: \na b\n",
    "  vertices:  x   y\ty\n",
    "vertices:# not a comment\n",
    "a b\nb a\na b\nc a\na c\n",
    "a b\nc c\n",
    "a\n",
    "a b c\n",
    "a b\n\n   \n\x0c\nlone\n",
    "x y\x1cy z z w\x85w x\n",
    "a b\n# vertices: late\nvertices: late a\nlate b\n",
    "",
    "\n\r\n",
]


@pytest.mark.parametrize("text", _TRICKY_EDGE_LISTS)
def test_parse_edge_list_matches_the_reference_on_tricky_text(text):
    assert _parsed(parse_edge_list, text) == _parsed(_reference_parse_edge_list, text)


_EDGE_LIST_PIECES = ["a", "b", "é", "#", "vertices:", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1c", " "]


@given(st.lists(st.sampled_from(_EDGE_LIST_PIECES), max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_parse_edge_list_matches_the_reference(text):
    assert _parsed(parse_edge_list, text) == _parsed(_reference_parse_edge_list, text)


def _assert_parsed_as_the_reference(text: str) -> None:
    """parse_edge_list builds every field the reference parser's checked
    constructor builds from the same edges, or raises its FormatError."""
    try:
        ref = _reference_parse_edge_list(text)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            parse_edge_list(text)
        return
    _assert_same_fields(parse_edge_list(text), ref)


@pytest.mark.parametrize("text", _TRICKY_EDGE_LISTS)
def test_parse_edge_list_fills_what_the_checked_constructor_fills_on_tricky_text(text):
    _assert_parsed_as_the_reference(text)


def test_edge_list_round_trip_keeps_isolated_vertices():
    g = parse_edge_list("vertices: a b c d\nb c")
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs())
def test_edge_list_round_trip(g: Graph):
    assert parse_edge_list(format_edge_list(g)) == g


# Lines of two tokens, each token one or two of the pieces that are not
# whitespace, so that most texts parse: each line is an edge, a comment or
# a header.
_EDGE_LIST_TOKENS = st.lists(
    st.sampled_from([piece for piece in _EDGE_LIST_PIECES if not piece.isspace()]),
    min_size=1,
    max_size=2,
).map("".join)
_EDGE_LIST_LINES = st.tuples(_EDGE_LIST_TOKENS, _EDGE_LIST_TOKENS).map(" ".join)


@given(st.lists(_EDGE_LIST_LINES, max_size=8).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_edge_list_round_trip_from_tricky_text(text):
    # Graph equality ignores labels, so they are compared on their own.
    try:
        g = parse_edge_list(text)
    except FormatError:
        return
    again = parse_edge_list(format_edge_list(g))
    assert (again.n, again.edges, again.labels) == (g.n, g.edges, g.labels)


@given(
    st.one_of(
        st.lists(st.sampled_from(_EDGE_LIST_PIECES), max_size=40).map("".join),
        st.lists(_EDGE_LIST_LINES, max_size=8).map("\n".join),
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_edge_list_fills_what_the_checked_constructor_fills(text):
    _assert_parsed_as_the_reference(text)


@pytest.mark.parametrize(
    ("labels", "edges", "message"),
    [
        (["a", ""], [], "vertex label '' is not one edge-list token"),
        (["a", "b c"], [(0, 1)], "vertex label 'b c' is not one edge-list token"),
        (["a", "b\x1c"], [], "vertex label 'b\\x1c' is not one edge-list token"),
        (["#a", "vertices:b"], [(0, 1)], "edge '#a' 'vertices:b' cannot open an edge-list line"),
    ],
)
def test_format_edge_list_refuses_labels_it_cannot_carry(labels, edges, message):
    with pytest.raises(ContractError, match=re.escape(message)):
        format_edge_list(Graph(len(labels), edges, labels=labels))


def test_format_edge_list_opens_each_line_with_an_edge_token():
    for text in ("x #b\ny #b\n", "a vertices:x\nb vertices:x\n"):
        g = parse_edge_list(text)
        again = parse_edge_list(format_edge_list(g))
        assert (again.n, again.edges, again.labels) == (g.n, g.edges, g.labels)
    assert format_edge_list(Graph(2, [(0, 1)], labels=["#a", "b"])) == "vertices: #a b\nb #a\n"


# ---------------------------------------------------------------------------
# graph6


def test_the_parsers_refuse_more_vertices_than_the_cap(monkeypatch):
    monkeypatch.setattr("qt2ec.graph.MAX_VERTICES", 5)
    five, six = encode_graph6(path(5)), encode_graph6(path(6))
    for g in (parse_edge_list("a b\nc d\nvertices: e"), parse_edge_list("vertices: a b c d e"), parse_graph6(five)):
        assert g.n == 5
    # One vertex over the cap is refused before Graph._make builds a row.
    def no_build(cls, *args, **kwargs):
        raise AssertionError("a graph was built")

    with monkeypatch.context() as patched:
        patched.setattr(Graph, "_make", classmethod(no_build))
        for text in ("a b\nc d\ne f", "vertices: a b c d e\nf a"):
            with pytest.raises(RefusalError, match="^edge list has 6 vertices; the cap is 5 vertices$"):
                parse_edge_list(text)
        with pytest.raises(RefusalError, match="^graph6 graph has 6 vertices; the cap is 5 vertices$"):
            parse_graph6(six)
        # Malformed graph6 input over the cap is still a format error.
        for text, message in ((six[:-1], "truncated graph6 bit stream"), (six + "?", "trailing data")):
            with pytest.raises(FormatError, match=message):
                parse_graph6(text)
    # The public constructor is not capped.
    assert Graph(6, [(0, 5)]).n == 6


def test_graph6_k2():
    # 'A' -> n=2, '_' -> 100000: the single triangle bit set.
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"


def test_graph6_empty_pair():
    assert parse_graph6("A?") == Graph(2)


def test_graph6_five_vertex_star():
    # 'D' -> n=5; bits 000000 111100 decode column-wise to the four
    # edges (0,4), (1,4), (2,4), (3,4).
    g = parse_graph6("D?{")
    assert g == Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


def test_graph6_optional_header_accepted():
    assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])


def test_graph6_errors():
    with pytest.raises(FormatError, match="invalid"):
        parse_graph6("A(")
    with pytest.raises(FormatError, match="invalid"):
        parse_graph6("A" + chr(127))
    with pytest.raises(FormatError, match="truncated"):
        parse_graph6("D?")
    with pytest.raises(FormatError, match="trailing"):
        parse_graph6("A__")
    with pytest.raises(FormatError, match="empty"):
        parse_graph6("   ")
    for text in ("~", "~?"):
        with pytest.raises(FormatError, match="truncated graph6 vertex count"):
            parse_graph6(text)
    with pytest.raises(FormatError, match="nonzero padding bits"):
        parse_graph6("A`")


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_graph6_round_trip(g: Graph):
    encoded = encode_graph6(g)
    assert parse_graph6(encoded) == Graph(g.n, g.edges)


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_graph6_agrees_with_independent_codec(g: Graph):
    ours = encode_graph6(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs
    decoded = nx.from_graph6_bytes(ours.encode())
    assert set(decoded.edges()) == {tuple(e) for e in g.edges}
    assert decoded.number_of_nodes() == g.n


def _sparse_random_graph(n: int, p: float, seed: int) -> Graph:
    rng = Random(seed)
    return Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


@pytest.mark.parametrize(
    "g",
    [
        path(3000),
        path(724),
        path(725),
        _sparse_random_graph(400, 0.01, seed=15),
        _sparse_random_graph(1000, 0.05, seed=16),
    ],
    ids=["path-3000", "path-724", "path-725", "gnp-400", "gnp-1000"],
)
def test_graph6_of_large_sparse_graphs_agrees_with_independent_decoder(g: Graph):
    # An encoder quadratic in the bit count took 80 s on path(3000).
    # networkx's encoder takes seconds here too, so its decoder checks the
    # header and the edge bits, and the strict parser the zero padding.
    # Above n = 724 the encoder writes the bits in more than one block:
    # path(724) has 261,726 bits, one block, and path(725) 262,450, two.
    ours = encode_graph6(g)
    decoded = nx.from_graph6_bytes(ours.encode())
    assert decoded.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in decoded.edges()} == set(g.edges)
    assert parse_graph6(ours) == g


def test_graph6_long_form_vertex_count():
    g = Graph(63, [(0, 62)])
    assert parse_graph6(encode_graph6(g)) == g
    with pytest.raises(ContractError, match="at most 258047 vertices, got 258048"):
        encode_graph6(Graph(258048))


@pytest.mark.parametrize(
    "text",
    [
        "~~??????",  # n=0 in the 8-character form
        "~??A_",  # n=2 (K2) in the 4-character form
        "~??}" + "?" * 316,  # n=62, the largest the 1-character form holds
        "~~???}~~",  # n=258047, the largest the 4-character form holds
    ],
)
def test_graph6_rejects_non_minimal_header(text: str):
    with pytest.raises(FormatError, match="shorter header"):
        parse_graph6(text)


def test_graph6_minimal_headers_round_trip():
    for n in (0, 1, 62, 63):
        text = encode_graph6(Graph(n, [(0, n - 1)] if n > 1 else []))
        assert encode_graph6(parse_graph6(text)) == text


def test_each_mask_bit_is_its_pairs_graph6_bit():
    # mask_pairs against graph6 itself, to n = 8: the graph of each one-bit
    # mask has the table's pair as its one edge, and the mask is the
    # integer of the first N bits of that graph's graph6 body.
    for n in range(9):
        pairs = mask_pairs(n)
        bits = n * (n - 1) // 2
        assert [pair for _, pair in pairs] == list(combinations(range(n), 2))
        assert sorted(bit for bit, _ in pairs) == list(range(bits))
        for bit, pair in pairs:
            g = graph_from_mask(n, 1 << bit)
            assert g.edges == (pair,)
            body = "".join(format(ord(c) - 63, "06b") for c in encode_graph6(g)[1:])
            assert int(body[:bits], 2) == 1 << bit


def test_mask_pairs_refuses_a_count_that_equals_a_tabled_one():
    # 3.0 and True hash as 3 and 1: once those tables exist, a lookup
    # before the check would find them.
    mask_pairs(1), mask_pairs(3)
    for n in (3.0, True):
        with pytest.raises(ContractError, match=f"^vertex count must be an int, got {n!r}$"):
            mask_pairs(n)


@pytest.mark.parametrize(
    ("n", "mask", "message"),
    [
        # -1 read as every pair, 9 as mask 1, and 1.0 failed inside >>.
        (3, -1, "edge mask -1 outside edge mask range 0..7"),
        (3, 8, "edge mask 8 outside edge mask range 0..7"),
        (3, 9, "edge mask 9 outside edge mask range 0..7"),
        (1, 1, "edge mask 1 outside edge mask range 0..0"),
        (3, 1.0, "edge mask 1.0 is not an int"),
        (3, True, "edge mask True is not an int"),
        (3, None, "edge mask None is not an int"),
        (3.0, 1, "vertex count must be an int, got 3.0"),
        (-1, 0, "vertex count must be at least 0, got -1"),
    ],
)
def test_graph_from_mask_refuses_what_is_not_a_mask_of_n(n, mask, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        graph_from_mask(n, mask)


# ---------------------------------------------------------------------------
# DOT


def _dot_edges(dot: str) -> set[tuple[str, str]]:
    return {
        (m.group(1), m.group(2))
        for m in re.finditer(r"(\w+)\s*(?:--|->)\s*(\w+)", dot)
    }


def test_to_dot_plain_k2():
    dot = to_dot(Graph(2, [(0, 1)]))
    assert re.sub(r"\s+", " ", dot).strip() == "graph { 0 -- 1; }"


def test_to_dot_class_overlay_cycles_styles():
    g = figure_graph("k4_minus_e")
    from qt2ec import compute_classes

    dot = to_dot(g, compute_classes(g))
    assert "0 -- 1 [style=solid];" in dot
    assert "0 -- 2 [style=dashed];" in dot
    assert "1 -- 2 [style=dotted];" in dot


def test_to_dot_orientation_is_digraph():
    g = path(3)
    o = Orientation(g, (0, 1))
    dot = to_dot(g, o)
    assert dot.startswith("digraph")
    assert "0 -> 1;" in dot and "2 -> 1;" in dot


def test_to_dot_leaves_unoriented_edges_undirected():
    g = complete(3)  # no induced P3, so the seed arc forces nothing
    dot = to_dot(g, partial_orientation(g, (0, 1)))
    assert dot.splitlines() == [
        "digraph {",
        "  0 -> 1;",
        "  0 -> 2 [dir=none];",
        "  1 -> 2 [dir=none];",
        "}",
    ]


def test_to_dot_rejects_foreign_overlay():
    o = Orientation(path(3), (0, None))
    with pytest.raises(ContractError):
        to_dot(cycle(4), o)
    g = path(3)
    with pytest.raises(ContractError, match="unsupported overlay type SimpleNamespace"):
        to_dot(g, SimpleNamespace(graph=g))
    with pytest.raises(ContractError, match="unsupported overlay type EdgeColouring"):
        to_dot(g, EdgeColouring(g, ("R", "B")))
    with pytest.raises(ContractError, match="unsupported overlay type EdgeColouring"):
        to_dot(Graph(3), EdgeColouring(Graph(3), ()))


@given(graphs())
def test_to_dot_round_trips_edge_set(g: Graph):
    extracted = {
        tuple(sorted((int(a), int(b)))) for a, b in _dot_edges(to_dot(g))
    }
    assert extracted == set(g.edges)


# A DOT ID: a quoted string, in which a backslash takes the next character
# with it, or a bare word.
DOT_ID = r'"((?:[^"\\]|\\.)*)"|([^\s";\[\]{}-]+)'


def _dot_labelled_edges(dot: str) -> list[tuple[str, str]]:
    """Each edge line's two IDs, unquoted, with every escape undone; a
    line that is not ``ID -- ID;`` fails the test."""
    edges = []
    for line in dot.splitlines()[1:-1]:
        m = re.fullmatch(rf"  (?:{DOT_ID}) -- (?:{DOT_ID});", line)
        assert m is not None, line
        quoted_a, bare_a, quoted_b, bare_b = m.groups()
        a = bare_a if quoted_a is None else re.sub(r"\\(.)", r"\1", quoted_a)
        b = bare_b if quoted_b is None else re.sub(r"\\(.)", r"\1", quoted_b)
        edges.append((a, b))
    return edges


@pytest.mark.parametrize("keyword", ["node", "edge", "graph", "digraph", "subgraph", "strict"])
def test_to_dot_quotes_keyword_labels_in_any_case(keyword):
    for label in (keyword, keyword.upper(), keyword.capitalize()):
        g = parse_edge_list(f"{label} x\n")
        assert to_dot(g) == f'graph {{\n  "{label}" -- x;\n}}\n'


def test_to_dot_escapes_backslashes_before_quotes():
    g = parse_edge_list('a\\ b\nb "q"\\\nnode\\\\ c"\n')
    assert to_dot(g).splitlines()[1] == '  "a\\\\" -- b;'
    assert _dot_labelled_edges(to_dot(g)) == [("a\\", "b"), ("b", '"q"\\'), ("node\\\\", 'c"')]


def test_to_dot_leaves_other_labels_as_they_were():
    g = parse_edge_list("nodes edges\nv1 42\n_x y-z\n")
    assert to_dot(g) == 'graph {\n  nodes -- edges;\n  v1 -- 42;\n  _x -- "y-z";\n}\n'


# ---------------------------------------------------------------------------
# induced P3 enumeration


def test_induced_p3s_examples():
    assert list(induced_p3s(path(3))) == [(0, 1, 2)]
    assert list(induced_p3s(complete(3))) == []
    assert set(induced_p3s(cycle(4))) == {(1, 0, 3), (0, 1, 2), (1, 2, 3), (0, 3, 2)}


@given(graphs())
def test_induced_p3s_match_triple_scan(g: Graph):
    found = set(induced_p3s(g))
    for u, v, w in found:
        assert g.has_edge(u, v) and g.has_edge(v, w) and not g.has_edge(u, w)
        assert u < w
    brute = {
        (min(u, w), v, max(u, w))
        for u in range(g.n)
        for v in range(g.n)
        for w in range(g.n)
        if len({u, v, w}) == 3
        and g.has_edge(u, v)
        and g.has_edge(v, w)
        and not g.has_edge(u, w)
    }
    assert found == brute


@st.composite
def gnp_graphs(draw, max_n: int = 14) -> Graph:
    """A seeded G(n, p) graph."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.15, 0.35, 0.6, 0.85]))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < p])


@settings(max_examples=200, deadline=None)
@given(gnp_graphs())
def test_induced_p3_edges_carry_the_edge_indices_of_each_p3(g: Graph):
    for u, v, w, i, j in induced_p3_edges(g):
        assert (i, j) == (g.edge_index(u, v), g.edge_index(v, w))
        assert i < j


def _naive_p3_edges(g: Graph) -> list[tuple[int, int, int, int, int]]:
    """Every induced P3 u-v-w with u < w, found by trying each triple
    against the edge list, sorted by (v, u, w), with the indices of uv and
    vw read from ``g.edges``."""
    edges = set(g.edges)

    def adjacent(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in edges

    paths = sorted(
        (v, u, w)
        for u, w in combinations(range(g.n), 2)
        for v in range(g.n)
        if v not in (u, w) and adjacent(u, v) and adjacent(v, w) and not adjacent(u, w)
    )
    index = g.edges.index
    return [(u, v, w, index((min(u, v), max(u, v))), index((min(v, w), max(v, w)))) for v, u, w in paths]


def test_induced_p3_edges_come_in_scan_order_on_every_small_graph():
    # first_straddle returns the first straddle in this order, and that is
    # the sweep's witness, so the order is pinned and not just the set.
    graphs = [Graph(0)] + [g for n in range(1, 6) for g in enumerate_labeled_graphs(n, connected_only=False)]
    for g in graphs:
        assert list(induced_p3_edges(g)) == _naive_p3_edges(g), g.edges


@settings(max_examples=200, deadline=None)
@given(gnp_graphs(max_n=12))
def test_induced_p3_edges_come_in_scan_order(g: Graph):
    assert list(induced_p3_edges(g)) == _naive_p3_edges(g)


# ---------------------------------------------------------------------------
# modules and multipartite structure


def test_is_module_set_frozen_examples():
    # Both brute-force confirmed: every outside vertex sees all of the set.
    assert is_module_set(figure_graph("k4_minus_e"), {2, 3}) is True
    assert is_module_set(path(3), {0, 2}) is True
    assert is_module_set(path(3), {0, 1, 2}) is True
    assert is_module_set(path(4), {0, 1}) is False


@given(graphs(max_n=6))
def test_is_module_set_matches_naive_definition(g: Graph):
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            inside = set(subset)
            naive = all(
                {u for u in g.neighbors(v) if u in inside} in (set(), inside)
                for v in range(g.n)
                if v not in inside
            )
            assert is_module_set(g, inside) == naive


def test_large_sparse_graphs_keep_no_complemented_rows():
    # A row complemented to n bits costs n/8 bytes whatever the degree, so
    # one per vertex of path(8000) is 8 MB.  The graph's own rows are
    # built before tracing starts, and each call is charged only what its
    # peak adds to what was already held.
    g = path(8000)
    peaks = []
    tracemalloc.start()
    try:
        for call in (compute_classes, is_complete_multipartite):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call(g)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 4_000_000, peaks
    assert peaks[1] < 1_000_000, peaks


def test_is_complete_multipartite_examples():
    assert is_complete_multipartite(figure_graph("k4_minus_e")) == [(0,), (1,), (2, 3)]
    assert is_complete_multipartite(cycle(5)) is None
    assert is_complete_multipartite(complete(3)) == [(0,), (1,), (2,)]


@given(graphs(max_n=6))
def test_is_complete_multipartite_matches_transitivity(g: Graph):
    # complete multipartite <=> non-adjacency is transitive on distinct vertices
    transitive = all(
        not g.has_edge(u, w)
        for u in range(g.n)
        for v in range(g.n)
        for w in range(g.n)
        if len({u, v, w}) == 3
        and not g.has_edge(u, v)
        and not g.has_edge(v, w)
    )
    parts = is_complete_multipartite(g)
    assert (parts is not None) == transitive
    if parts is not None:
        flattened = sorted(v for part in parts for v in part)
        assert flattened == list(range(g.n))
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.has_edge(u, v) == (part_of[u] != part_of[v])


def complement_component_parts(g: Graph) -> list[tuple[int, ...]] | None:
    """The complement-components form of ``is_complete_multipartite``: the
    connected components of the complement are the candidate parts, valid
    iff each is independent in ``g``."""
    seen: set[int] = set()
    parts = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for v in component:
            for w in range(g.n):
                if w not in seen and w != v and not g.has_edge(v, w):
                    seen.add(w)
                    component.append(w)
        members = tuple(sorted(component))
        if any(g.has_edge(u, w) for u, w in combinations(members, 2)):
            return None
        parts.append(members)
    return parts


def test_is_complete_multipartite_matches_the_complement_components():
    graphs = [Graph(0)]
    graphs += [g for n in range(1, 6) for g in enumerate_labeled_graphs(n, connected_only=False)]
    found = 0
    for g in graphs:
        parts = is_complete_multipartite(g)
        assert parts == complement_component_parts(g), g.edges
        found += parts is not None
    assert 0 < found < len(graphs)
    for sizes in [(1,), (4,), (1, 1), (2, 3), (1, 1, 2), (3, 3, 3), (1, 2, 3, 4), (5, 1, 5)]:
        g = complete_multipartite(*sizes)
        parts = is_complete_multipartite(g)
        assert parts == complement_component_parts(g)
        assert [len(part) for part in parts] == list(sizes)


# ---------------------------------------------------------------------------
# Graph's private fields

PRIVATE_FIELDS = {"_adj_bits", "_edge_at", "_partition"}
KERNEL_READERS = {"compute_classes", "_forcing_kernel"}


def _private_field_names(node: ast.AST) -> list[tuple[int, str]]:
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name in PRIVATE_FIELDS:
            found.append((sub.lineno, name))
    return found


def test_only_graph_and_the_forcing_kernel_name_graph_private_fields():
    package = Path(qt2ec.__file__).parent
    offenders = []
    kernel_reads = 0
    for source in sorted(package.glob("*.py")):
        if source.name == "graph.py":
            continue
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            names = _private_field_names(node)
            if source.name == "classes.py" and getattr(node, "name", None) in KERNEL_READERS:
                kernel_reads += len(names)
            else:
                offenders += [f"{source.name}:{line} {name}" for line, name in names]
    assert offenders == []
    assert kernel_reads > 0  # the scan does see the fields where they are read


def test_every_graph_the_package_builds_goes_through_graph_make():
    # Graph._make skips the per-edge check, so only producers whose edges
    # are valid by construction may call it: the parsers, whose ids are
    # exact ints in range, the families and graph_from_mask.  The checked
    # constructor is for library users: no module of the package calls it.
    package = Path(qt2ec.__file__).parent
    callers = set()
    checked = []
    for source in sorted(package.glob("*.py")):
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "_make"
                    and getattr(sub.value, "id", None) not in ("Orientation", "EdgeColouring")
                ):
                    callers.add(f"{source.stem}.{getattr(node, 'name', sub.lineno)}")
                if isinstance(sub, ast.Call) and "Graph" in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    checked.append(f"{source.name}:{sub.lineno}")
    assert checked == []
    builders = {
        "threshold_alternating", "triangle_with_tail", "double_path_apex", "figure_graph",
        "path", "cycle", "complete", "complete_multipartite", "join_with_k1",
    }
    assert callers == {f"families.{name}" for name in builders} | {
        "graph.parse_graph6",
        "graph.parse_edge_list",
        "graph.graph_from_mask",
    }
    assert not any(caller.startswith("cli.") for caller in callers)


FAST_PATH = ("graph", "classes", "colouring", "orientation", "families", "errors", "cli")
VERIFICATION_HALF = {"oracle", "structure", "report"}


def _module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for every dotted part and imported name of each package
    import that runs when the module is imported: everything outside
    function bodies."""
    found = []
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level or parts[0] == "qt2ec":
                found += [(node.lineno, name) for name in parts + [a.name for a in node.names]]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qt2ec":
                    found += [(node.lineno, name) for name in alias.name.split(".")]
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_fast_path_module_imports_the_verification_half_at_module_level():
    package = Path(qt2ec.__file__).parent
    offenders = []
    seen = 0
    for name in FAST_PATH:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imports = _module_level_imports(tree)
        seen += len(imports)
        offenders += [f"{name}.py:{line} {target}" for line, target in imports if target in VERIFICATION_HALF]
    assert offenders == []
    assert seen > 0  # the scan does see the package imports


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so it is left out.
    package = Path(qt2ec.__file__).parent
    unused = []
    for source in sorted(package.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{source.name}:{node.lineno} {name}")
    assert unused == []


def test_only_report_builds_a_check_record():
    # Every check makes its records with report.verdict, so a record
    # passes exactly when it names no witness.
    package = Path(qt2ec.__file__).parent
    builds = []
    verdicts = 0
    for source in sorted(package.glob("*.py")):
        if source.name == "report.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "CheckResult":
                    builds.append(f"{source.name}:{node.lineno}")
                verdicts += name == "verdict"
    assert builds == []
    assert verdicts > 0  # the scan does see the checks' calls


def test_no_module_has_a_global_statement():
    # Shared state lives in lru_cache, keyed on what the answer depends on.
    package = Path(qt2ec.__file__).parent
    found = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# traversal and subgraphs


def test_is_connected():
    assert is_connected(path(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))


@st.composite
def gnp_with_subset(draw) -> tuple[Graph, set[int]]:
    """A seeded G(n, p) graph and a vertex subset of it (maybe empty)."""
    n = draw(st.integers(min_value=0, max_value=14))
    p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    g = Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < p])
    subset = draw(st.sets(st.integers(min_value=0, max_value=n - 1))) if n else set()
    return g, subset


@settings(max_examples=300, deadline=None)
@given(gnp_with_subset())
def test_is_connected_on_a_subset_matches_the_induced_subgraph(case):
    g, subset = case
    reference = nx.Graph(g.edges)
    reference.add_nodes_from(range(g.n))
    sub = reference.subgraph(subset)
    # networkx refuses the null graph, which counts as connected here.
    assert is_connected(g, subset) == (not subset or nx.is_connected(sub))
    assert is_connected(g, iter(subset)) == is_connected(g, sorted(subset))
    assert is_connected(g, set())
    for v in range(g.n):
        assert is_connected(g, {v})
    assert is_connected(g, range(g.n)) == is_connected(g)


def test_is_connected_on_a_subset_rejects_foreign_vertices():
    g = path(4)
    assert is_connected(g, {1, 2}) and not is_connected(g, {0, 2})
    for bad in ({0, 4}, {-1}, {2, -3}):
        with pytest.raises(ContractError):
            is_connected(g, bad)


@st.composite
def reach_cases(draw) -> tuple[list[int], int, int, int]:
    """Random rows on n vertices (not necessarily symmetric), a seed and a
    ``within`` set.  Complemented rows come with a finite ``within``, as
    ``reach`` requires; plain rows also get ``within=-1``."""
    n = draw(st.integers(min_value=1, max_value=12))
    full = (1 << n) - 1
    rows = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=full))
    complemented = draw(st.booleans())
    if complemented:
        rows = [~row for row in rows]
        within = draw(st.integers(min_value=0, max_value=full))
    else:
        within = draw(st.one_of(st.just(-1), st.integers(min_value=0, max_value=full)))
    return rows, seed, within, n


@settings(max_examples=300, deadline=None)
@given(reach_cases())
def test_reach_matches_a_plain_bfs(case):
    rows, seed, within, n = case
    found = {v for v in range(n) if seed >> v & 1}
    queue = list(found)
    for v in queue:
        for u in range(n):
            if rows[v] >> u & 1 and within >> u & 1 and u not in found:
                found.add(u)
                queue.append(u)
    assert reach(rows, seed, within) == sum(1 << v for v in found)

