"""The CLI's listings, compared byte for byte with a plain reference.

The reference below formats every record from scratch, one arc or edge at
a time through ``Graph.label``: ``Orientation.arcs`` with f-strings,
``json.dumps`` of whole records, one ``_dot_id`` per edge end.  The CLI
makes each edge's strings once per call and joins them per record, and
must write the same bytes.
"""

from __future__ import annotations

import json

import pytest

from qt2ec import (
    Graph,
    RefusalError,
    compute_classes,
    count_colourings,
    encode_graph6,
    enumerate_colourings,
    enumerate_orientations,
    orientability,
    parse_edge_list,
    parse_graph6,
    partial_orientation,
)
from qt2ec.cli import main
from qt2ec.graph import _CLASS_STYLES, _dot_id
from qt2ec.orientation import Orientation

# Labels that need quoting or escaping somewhere: quotes, backslashes, an
# arrow, non-ASCII, DOT keywords in any case, digits, brackets.
EDGE_LISTS = {
    "awkward": 'a"b c\\d\nc\\d ->\n-> é\né node\nnode Edge\nEdge a"b\nx-y 12\n12 a"b\n[ ]\n] GRAPH\n',
    "isolated": "vertices: p q strict\np q\nq \\\n",
    "edgeless": "vertices:s t\n",
    "k4": "# four\n  1 2\n1 3\r\n1 4\n2\t3\n2 4\n3 4\n3 2\n",
}
# One graph per (k, orientable) pair, k from 0 to 6.
GRAPH6 = ["B?", "Bg", "EbgG", "C`", "FzPyo", "F_GPo", "Dj{", "FvjVw", "C~"]


def _label_text(g: Graph, u: int, v: int, sep: str) -> str:
    return f"{g.label(u)}{sep}{g.label(v)}"


def _arcs_text(o: Orientation, sep: str) -> str:
    return sep.join(_label_text(o.graph, t, h, " -> ") for t, h in o.arcs())


def _edge_text(g: Graph, index: int) -> str:
    u, v = g.edge(index)
    return _label_text(g, u, v, "-")


def _to_dot(g: Graph, overlay: object) -> str:
    directed = isinstance(overlay, Orientation)
    lines = ["digraph {" if directed else "graph {"]
    for v in range(g.n):
        if g.degree(v) == 0:
            lines.append(f"  {_dot_id(g.label(v))};")
    for idx, (u, v) in enumerate(g.edges):
        a, b = _dot_id(g.label(u)), _dot_id(g.label(v))
        if directed:
            bit = overlay.bits[idx]
            if bit is None:
                lines.append(f"  {a} -> {b} [dir=none];")
            else:
                lines.append(f"  {a} -> {b};" if bit == 0 else f"  {b} -> {a};")
        else:
            style = _CLASS_STYLES[overlay.class_of[idx] % len(_CLASS_STYLES)]
            lines.append(f"  {a} -- {b} [style={style}];")
    return "\n".join([*lines, "}"]) + "\n"


def _text(head: str, lines: list[str]) -> str:
    out = "\n".join([head, *lines])
    return out if out.endswith("\n") else out + "\n"


def _json(g: Graph, **fields: object) -> str:
    record: dict[str, object] = {"schema": "qt2ec/1", "graph6": encode_graph6(g)}
    if g.labels is not None:
        record["labels"] = list(g.labels)
    return json.dumps({**record, **fields}, sort_keys=True) + "\n"


def expected_stdout(g: Graph, sub: str, out: str, seed: tuple[int, int] | None, cap: int | None) -> str:
    """The bytes the CLI writes, made the slow way; raises RefusalError
    where the CLI refuses."""
    if sub == "classes":
        p = compute_classes(g)
        if out == "dot":
            return _to_dot(g, p)
        members = [" ".join(_edge_text(g, e) for e in cls) for cls in p.classes]
        return _text(f"k={p.k}", [f"class {cid}: {text}" for cid, text in enumerate(members)])
    if sub == "colour":
        count = count_colourings(g)
        colourings = None if cap is None else ["".join(c.colours) for c in enumerate_colourings(g, cap)]
        if out == "json":
            fields = {"count": count, "edges": [list(e) for e in g.edges]}
            if colourings is not None:
                fields["colourings"] = colourings
            return _json(g, **fields)
        head = f"count={count}"
        if colourings is not None:
            head += "\nedges: " + " ".join(_edge_text(g, i) for i in range(g.m))
        return _text(head, colourings or [])
    feas = orientability(g)
    gamma = None if seed is None else partial_orientation(g, seed)
    orientations = None if cap is None else list(enumerate_orientations(g, cap))
    if out == "dot":
        return _to_dot(g, gamma)
    if out == "json":
        fields = {"orientable": feas.orientable, "k": feas.k, "count": feas.count}
        if gamma is not None:
            fields["gamma"] = [list(arc) for arc in gamma.arcs()]
        if orientations is not None:
            fields["orientations"] = [[list(a) for a in o.arcs()] for o in orientations]
        return _json(g, **fields)
    head = f"orientable, k={feas.k}, count={feas.count}" if feas.orientable else "not orientable, count=0"
    if gamma is not None:
        head += "\n" + _arcs_text(gamma, "\n")
    return _text(head, [_arcs_text(o, "; ") for o in orientations or ()])


COMMANDS = [
    *[("classes", out, None, None) for out in ("text", "dot")],
    *[("colour", out, None, cap) for out in ("text", "json") for cap in (None, 0, 3, 12)],
    *[
        ("orient", out, seed, cap)
        for out in ("text", "json")
        for seed in (None, "forward", "backward")
        for cap in (None, 0, 3, 12)
    ],
    ("orient", "dot", "forward", None),
    ("orient", "dot", "backward", None),
]


def _inputs(tmp_path) -> list[tuple[Graph, list[str]]]:
    inputs = []
    for name, text in EDGE_LISTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        inputs.append((parse_edge_list(text), [str(path)]))
    for i, line in enumerate(GRAPH6):
        path = tmp_path / f"g{i}.g6"
        path.write_text(line + "\n", encoding="utf-8")
        inputs.append((parse_graph6(line), [str(path), "--in", "graph6"]))
    return inputs


@pytest.mark.parametrize(("sub", "out", "seed", "cap"), COMMANDS)
def test_listings_match_the_per_arc_reference(capsys, tmp_path, sub, out, seed, cap):
    for g, source in _inputs(tmp_path):
        if seed is not None and g.m == 0:
            continue
        argv = [sub, *source, "--out", out]
        arc = None
        if seed is not None:
            u, v = g.edges[0]
            arc = (u, v) if seed == "forward" else (v, u)
            argv += ["--seed-arc", f"{g.label(arc[0])},{g.label(arc[1])}"]
        if cap is not None:
            argv += ["--enumerate", "--cap", str(cap)]
        try:
            want = (0, expected_stdout(g, sub, out, arc, cap))
        except RefusalError:
            want = (3, "")
        code = main(argv)
        assert (code, capsys.readouterr().out) == want, argv


def test_the_inputs_cover_one_to_six_classes_with_and_without_an_orientation(tmp_path):
    seen = {(orientability(g).k, orientability(g).orientable) for g, _ in _inputs(tmp_path)}
    assert {k for k, _ in seen} >= set(range(7))
    assert {True, False} <= {orientable for _, orientable in seen}
