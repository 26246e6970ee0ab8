"""End-to-end CLI behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import qt2ec
from qt2ec import Colourability, classify_colourability, encode_graph6
from qt2ec.cli import build_parser, main
from qt2ec.families import cycle, family_from_spec, figure_graph
from qt2ec.oracle import ALL_CHECKS, SweepConfig, theorem_sweep
from qt2ec.report import CheckResult


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_family_k4_minus_e(capsys):
    code, out, _ = run(capsys, "classes", "--family", "k4_minus_e")
    assert code == 0
    assert out.splitlines() == [
        "k=3",
        "class 0: 0-1",
        "class 1: 0-2 0-3",
        "class 2: 1-2 1-3",
    ]


def test_classify_fig1_right(capsys):
    code, out, _ = run(capsys, "classify", "--family", "fig1_right")
    assert code == 0 and out.strip() == "TrivialOnly"


def test_classify_kinds_are_str_constants_named_as_before(capsys):
    cases = [
        ("fig1_right", Colourability.TRIVIAL_ONLY, "TrivialOnly"),
        ("triangle_tail,3", Colourability.UNIQUELY_COLOURABLE, "Unique"),
        ("double_path_apex,3", Colourability.PROPERLY_COLOURABLE, "Properly(3)"),
    ]
    for spec, kind, name in cases:
        assert classify_colourability(family_from_spec(spec)).kind is kind
        assert isinstance(kind, str)
        assert run(capsys, "classify", "--family", spec) == (0, name + "\n", "")


def test_classify_properly(capsys):
    code, out, _ = run(capsys, "classify", "--family", "double_path_apex,3")
    assert code == 0 and out.strip() == "Properly(3)"
    code, out, _ = run(capsys, "classify", "--family", "triangle_tail,3")
    assert code == 0 and out.strip() == "Unique"


def test_orient_c5_not_orientable(capsys):
    code, out, _ = run(capsys, "orient", "--family", "cycle,5")
    assert code == 0
    assert out.strip() == "not orientable, count=0"


def test_orient_seed_arc_emits_gamma(capsys):
    code, out, _ = run(
        capsys, "orient", "--family", "fig1_left", "--seed-arc", "v1,v2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orientable, k=4, count=16"
    assert sorted(lines[1:]) == sorted(
        ["v1 -> v2", "v3 -> v2", "v6 -> v2", "v1 -> v4", "v3 -> v4", "v6 -> v4"]
    )


def test_orient_enumerate(capsys):
    code, out, _ = run(capsys, "orient", "--family", "path,3", "--enumerate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orientable, k=1, count=2"
    assert sorted(lines[1:]) == ["0 -> 1; 2 -> 1", "1 -> 0; 1 -> 2"]


def test_witness_output(capsys):
    code, out, _ = run(capsys, "witness", "--family", "triangle_tail,3")
    assert code == 0 and out.strip() == "u v"
    code, out, _ = run(capsys, "witness", "--family", "fig1_right")
    assert code == 0 and out.strip() == "none"


def test_colour_enumerate(capsys):
    code, out, _ = run(capsys, "colour", "--family", "path,3", "--enumerate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count=2"
    assert lines[2:] == ["RR", "BB"]


def test_family_graph6_matches_library_encoder(capsys):
    code, out, _ = run(capsys, "family", "--family", "cycle,5", "--out", "graph6")
    assert code == 0 and out.strip() == encode_graph6(cycle(5))


def test_family_edge_list_round_trip(capsys):
    code, out, _ = run(capsys, "family", "--family", "threshold,4")
    assert code == 0
    assert out.startswith("vertices: v1 v2 v3 v4")


def test_graph6_stdin_pipeline(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(encode_graph6(figure_graph("k4_minus_e")) + "\n")
    )
    code, out, _ = run(capsys, "classes", "-", "--in", "graph6")
    assert code == 0 and out.splitlines()[0] == "k=3"


def test_json_output_echoes_graph6_key(capsys):
    code, out, _ = run(
        capsys, "classes", "--family", "k4_minus_e", "--out", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "qt2ec/1"
    assert record["graph6"] == encode_graph6(figure_graph("k4_minus_e"))
    assert record["k"] == 3


def json_record(capsys, *argv: str) -> dict:
    code, out, _ = run(capsys, *argv, "--out", "json")
    assert code == 0
    return json.loads(out)


def test_colour_json_record(capsys):
    record = json_record(capsys, "colour", "--family", "path,3", "--enumerate")
    assert record == {
        "schema": "qt2ec/1",
        "graph6": "Bg",
        "count": 2,
        "edges": [[0, 1], [1, 2]],
        "colourings": ["RR", "BB"],
    }
    record = json_record(capsys, "colour", "--family", "path,3")
    assert "colourings" not in record and record["count"] == 2


def test_classify_json_record(capsys):
    record = json_record(capsys, "classify", "--family", "path,3")
    assert record == {
        "schema": "qt2ec/1",
        "graph6": "Bg",
        "classification": "TrivialOnly",
        "k": 1,
        "count": 2,
    }
    record = json_record(capsys, "classify", "--family", "double_path_apex,3")
    assert (record["classification"], record["k"], record["count"]) == ("Properly(3)", 3, 8)


def test_witness_json_record(capsys):
    assert json_record(capsys, "witness", "--family", "path,3") == {
        "schema": "qt2ec/1",
        "graph6": "Bg",
        "witness": None,
    }
    record = json_record(capsys, "witness", "--family", "triangle_tail,3")
    assert record["witness"] == [3, 4]
    assert record["labels"] == ["w0", "w1", "w2", "u", "v"]


def test_orient_json_record(capsys):
    record = json_record(
        capsys, "orient", "--family", "path,3", "--seed-arc", "0,1", "--enumerate"
    )
    assert record == {
        "schema": "qt2ec/1",
        "graph6": "Bg",
        "orientable": True,
        "k": 1,
        "count": 2,
        "gamma": [[0, 1], [2, 1]],
        "orientations": [[[0, 1], [2, 1]], [[1, 0], [1, 2]]],
    }
    assert json_record(capsys, "orient", "--family", "cycle,5") == {
        "schema": "qt2ec/1",
        "graph6": "Dhc",
        "orientable": False,
        "k": 1,
        "count": 0,
    }


def test_json_records_of_a_labeled_edge_list_carry_the_labels(capsys, tmp_path):
    # A triangle a-b-c with a pendant edge c-d: two classes, {ab} and the rest.
    path = tmp_path / "labeled.txt"
    path.write_text("a b\nb c\nc a\nc d\n")
    header = {"schema": "qt2ec/1", "graph6": "Cx", "labels": ["a", "b", "c", "d"]}
    fields = {
        "classes": {"k": 2, "classes": [[[0, 1]], [[0, 2], [1, 2], [2, 3]]]},
        "colour": {"count": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]},
        "classify": {"classification": "Unique", "k": 2, "count": 4},
        "witness": {"witness": [0, 1]},
        "orient": {"orientable": True, "k": 2, "count": 4},
    }
    for sub, expected in fields.items():
        assert json_record(capsys, sub, str(path)) == {**header, **expected}, sub


def test_family_takes_only_a_spec_and_an_output_format(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("a b\n")
    for argv in (
        ["family", str(graph), "--family", "cycle,4"],
        ["family", "--family", "cycle,4", "--in", "graph6"],
        ["family", "--out", "graph6"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "family", "--family", "cycle,4", "--out", "graph6")
    assert code == 0 and out.strip() == encode_graph6(cycle(4))


def test_family_json_and_dot_outputs(capsys):
    assert json_record(capsys, "family", "--family", "cycle,4") == {
        "schema": "qt2ec/1",
        "graph6": encode_graph6(cycle(4)),
        "n": 4,
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
    }
    code, out, _ = run(capsys, "family", "--family", "path,3", "--out", "dot")
    assert code == 0 and out == "graph {\n  0 -- 1;\n  1 -- 2;\n}\n"


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "classes")
    assert code == 2 and "input source" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("a a\n")
    code, _, err = run(capsys, "classes", str(bad))
    assert code == 2 and "self-loop" in err

    code, _, err = run(capsys, "classes", "--family", "nope")
    assert code == 2 and "unknown family" in err

    for sub in ("colour", "orient"):
        code, out, err = run(capsys, sub, "--family", "path,4", "--enumerate", "--cap", "-1")
        assert (code, out) == (2, ""), sub
        assert "enumeration cap must be at least 0, got -1" in err, sub


def test_orient_argument_errors_exit_two(capsys):
    code, out, err = run(capsys, "orient", "--family", "path,3", "--seed-arc", "0")
    assert code == 2 and out == ""
    assert "--seed-arc expects 'u,v', got '0'" in err
    code, out, err = run(capsys, "orient", "--family", "path,3", "--out", "dot")
    assert code == 2 and out == ""
    assert "dot output for orient requires --seed-arc" in err


def test_an_option_that_would_be_ignored_exits_two(capsys):
    # Each of these exited 0 (or 3, by a cap on an enumeration it never
    # wrote) and dropped an option without a word.
    cases = [
        (["colour", "--family", "path,4", "--cap", "3"], "error: --cap needs --enumerate\n"),
        (["orient", "--family", "path,4", "--cap", "3"], "error: --cap needs --enumerate\n"),
        (["orient", "--family", "path,4", "--cap", "20"], "error: --cap needs --enumerate\n"),
    ]
    dot = ["orient", "--family", "complete,6", "--out", "dot", "--enumerate", "--seed-arc", "0,1"]
    no_dot = "error: --enumerate has no dot output; use --out text or --out json\n"
    for extra in ([], ["--cap", "3"], ["--cap", "20"]):
        cases.append((dot + extra, no_dot))
    no_in = "error: --in applies to a file or '-', not to --family\n"
    for fmt in ("graph6", "edgelist"):
        cases.append((["classes", "--family", "path,3", "--in", fmt], no_in))
    for sample in ([], ["--sample-n6", "0"]):
        cases.append((["verify", "--max-n", "2", "--seed", "9", *sample], "error: --seed needs a positive --sample-n6\n"))
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message), argv


# The parser walk.  Each case is (subcommand, option, the call without the
# option, what the option adds); "FILE" stands for an edge-list file.  The
# call with the option must differ from the one without in stdout or exit
# code, and when it exits 2 it says why in one error line.
INPUT_SUBCOMMANDS = ("classes", "colour", "classify", "witness", "orient", "oracle")
OPTION_CASES = [
    *[(sub, "--family", [], ["--family", "k4_minus_e"]) for sub in INPUT_SUBCOMMANDS],
    *[(sub, "--in", ["FILE"], ["--in", "graph6"]) for sub in INPUT_SUBCOMMANDS],
    *[(sub, "--in", ["--family", "path,3"], ["--in", "graph6"]) for sub in INPUT_SUBCOMMANDS],
    *[(sub, "--out", ["--family", "k4_minus_e"], ["--out", "json"]) for sub in INPUT_SUBCOMMANDS],
    *[(sub, "--enumerate", ["--family", "path,4"], ["--enumerate"]) for sub in ("colour", "orient")],
    *[(sub, "--cap", ["--family", "path,4", "--enumerate"], ["--cap", "0"]) for sub in ("colour", "orient")],
    *[(sub, "--cap", ["--family", "path,4"], ["--cap", "3"]) for sub in ("colour", "orient")],
    ("orient", "--enumerate", ["--family", "complete,6", "--out", "dot", "--seed-arc", "0,1"], ["--enumerate"]),
    ("orient", "--seed-arc", ["--family", "path,4"], ["--seed-arc", "0,1"]),
    ("family", "--family", [], ["--family", "cycle,4"]),
    ("family", "--out", ["--family", "cycle,4"], ["--out", "graph6"]),
    ("verify", "--max-n", ["--checks", "tinylemma"], ["--max-n", "2"]),
    ("verify", "--seed", ["--max-n", "2"], ["--seed", "9"]),
    ("verify", "--seed", ["--max-n", "2", "--sample-n6", "1", "--checks", "crossing-lemmas"], ["--seed", "2"]),
    ("verify", "--sample-n6", ["--max-n", "2"], ["--sample-n6", "1"]),
    ("verify", "--checks", ["--max-n", "2"], ["--checks", "tinylemma"]),
    ("verify", "--out", ["--max-n", "2"], ["--out", "json"]),
]
# Options that change neither stdout nor the exit code by design, each with
# the calls that show it and the reason.
NO_OP_CASES = [
    (
        "verify",
        "--threads",
        ["--max-n", "3", "--checks", "colouring-count"],
        ["--threads", "2"],
        "a pool sweep gives the serial sweep's records; it only spreads the work",
    ),
]


def call_exit(capsys, argv: list[str]) -> tuple[int, str, str]:
    """``run``, with argparse's exit read as the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_walk_covers_every_declared_option():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        (name, option)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    walked = {case[:2] for case in OPTION_CASES + NO_OP_CASES}
    assert walked == declared


@pytest.mark.parametrize(
    ("sub", "option", "base", "extra"),
    OPTION_CASES,
    ids=[" ".join([sub, *base, "+", *extra]) for sub, _, base, extra in OPTION_CASES],
)
def test_no_option_is_silently_ignored(capsys, tmp_path, sub, option, base, extra):
    graph = tmp_path / "graph.txt"
    graph.write_text("a b\nb c\n")
    base = [str(graph) if arg == "FILE" else arg for arg in base]
    without = call_exit(capsys, [sub, *base])
    code, out, err = call_exit(capsys, [sub, *base, *extra])
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
    else:
        assert (code, out) != without[:2], option


@pytest.mark.parametrize(("sub", "option", "base", "extra", "reason"), NO_OP_CASES)
def test_listed_no_op_options_change_nothing(capsys, sub, option, base, extra, reason):
    without = call_exit(capsys, [sub, *base])
    assert without[0] == 0
    assert call_exit(capsys, [sub, *base, *extra])[:2] == without[:2], reason


def test_graph6_input_without_a_graph_exits_two(capsys, tmp_path):
    blank = tmp_path / "blank.g6"
    blank.write_text("\n   \n\n")
    code, out, err = run(capsys, "classes", str(blank), "--in", "graph6")
    assert code == 2 and out == ""
    assert err == "error: no graph6 line found in input\n"


def test_graph6_input_of_more_than_one_line_exits_two(capsys, tmp_path):
    source = tmp_path / "two.g6"
    for text, lines in (("A_\nnot graph6\n", 2), ("\nA_\n\nA_\nBw\n", 3)):
        source.write_text(text)
        code, out, err = run(capsys, "classes", str(source), "--in", "graph6")
        assert code == 2 and out == ""
        assert err == f"error: graph6 input holds {lines} non-blank lines; give one graph per call\n"
    # One line with blank lines around it reads as before.
    source.write_text("\n  \nA_\n\n")
    code, out, _ = run(capsys, "classes", str(source), "--in", "graph6")
    assert code == 0 and out == "k=1\nclass 0: 0-1\n"


def test_unreadable_input_exits_two(capsys, tmp_path):
    for source in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "classes", str(source))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {source}: "), err


def test_non_utf8_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "classes", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "is not UTF-8 text" in err


def test_non_utf8_stdin_exits_two(capsys, monkeypatch):
    # A C locale gives sys.stdin surrogateescape, which would not raise.
    stdin = io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "classes", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: stdin is not UTF-8 text")


def test_refusals_exit_three(capsys, tmp_path):
    disconnected = tmp_path / "two_parts.txt"
    disconnected.write_text("a b\nc d\n")
    code, _, err = run(capsys, "classify", str(disconnected))
    assert code == 3 and "connected" in err

    code, _, err = run(capsys, "orient", "--family", "cycle,5", "--seed-arc", "0,1")
    assert code == 3 and "forced both ways" in err

    for sub in ("colour", "orient"):
        code, out, err = run(capsys, sub, "--family", "path,4", "--enumerate", "--cap", "0")
        assert (code, out) == (3, ""), sub
        assert "1 classes > cap 0" in err, sub

    # C5 has one class and no orientation, which is refused before the cap
    # and before the header line that orient prints without --enumerate.
    for argv in (["--out", "text"], ["--out", "json"], ["--cap", "0"]):
        code, out, err = run(capsys, "orient", "--family", "cycle,5", "--enumerate", *argv)
        assert (code, out) == (3, ""), argv
        assert "no quasi-transitive orientation" in err, argv


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "graphs=6" in out.splitlines()[0]
    assert all(": PASS" in line for line in out.splitlines()[1:])


def unstamped(text: str) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        record.pop("seconds", None)
    return records


def test_verify_json_mode(capsys):
    # The CLI writes the report's lines one by one; they are its text.
    report = theorem_sweep(SweepConfig(max_n=4, checks=frozenset({"crossing-lemmas"})))
    for threads in ("1", "2"):
        code, out, _ = run(
            capsys, "verify", "--max-n", "4", "--checks", "crossing-lemmas", "--threads", threads, "--out", "json"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["schema"] == "qt2ec-report/1"
        assert all(json.loads(line)["passed"] for line in lines[1:])
        assert out.endswith("}\n") and unstamped(out) == unstamped(report.to_json_lines())


def broken(g, p):
    return [CheckResult("broken", False, witness="intentional")]


def test_verify_failure_exits_one(capsys, monkeypatch):
    # The check is module-level, so the pool's workers can unpickle it.
    monkeypatch.setitem(ALL_CHECKS, "broken", broken)
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--checks", "broken")
    assert code == 1
    assert "FAIL" in out
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--checks", "broken", "--threads", threads, "--out", "json")
        assert code == 1, threads
        assert [json.loads(line)["passed"] for line in out.splitlines()[1:]] == [False, False], threads


def breaks_on_three_vertices(g, p):
    if g.n == 3:
        raise OSError(5, "the check broke on a three-vertex graph")
    return [CheckResult("breaks-on-three-vertices", True)]


def test_a_check_that_raises_leaves_the_lines_written_and_is_no_write_error(capsys, monkeypatch):
    # JSON lines are written as the records arrive: the header before any
    # check runs, and the records of K1 and K2 before the check breaks, on
    # the pool too, where each n's masks go out in blocks of their own.
    # The OSError is the check's, not a failed write.
    monkeypatch.setitem(ALL_CHECKS, "breaks-on-three-vertices", breaks_on_three_vertices)
    for threads in ("1", "2"):
        with pytest.raises(OSError, match="the check broke on a three-vertex graph"):
            main(["verify", "--max-n", "3", "--checks", "breaks-on-three-vertices", "--threads", threads, "--out", "json"])
        out = capsys.readouterr().out.splitlines()
        assert [json.loads(line).get("graph6") for line in out] == [None, "@", "A_"], threads


def test_verify_unknown_check_names_the_valid_ones(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "2", "--checks", "nope")
    assert code == 2 and out == ""
    assert f"unknown check 'nope'; expected one of: {', '.join(sorted(ALL_CHECKS))}\n" in err


def test_verify_empty_checks_is_an_unknown_check(capsys):
    # An empty --checks names the check "", not every check.
    code, out, err = run(capsys, "verify", "--max-n", "2", "--checks", "")
    assert code == 2 and out == ""
    assert "unknown check ''; expected one of: " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-n", "0"], "max_n must be 1"),
        (["--max-n", "-2"], "max_n must be 1"),
        (["--max-n", "2", "--sample-n6", "-5"], "sample_n6 must be 0 or more"),
        (["--max-n", "6", "--sample-n6", "5"], "sample_n6 needs max_n below 6, got max_n=6"),
        (["--max-n", "7", "--sample-n6", "1"], "sample_n6 needs max_n below 6, got max_n=7"),
    ],
)
def test_verify_refuses_empty_sweeps(capsys, monkeypatch, argv, message):
    # Each refusal comes before the record stream is made.
    def no_stream(*args):
        raise AssertionError("record stream made before the refusal")

    monkeypatch.setattr(qt2ec.oracle, "_records", no_stream)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_refuses_thread_counts_out_of_range(capsys, monkeypatch):
    # Each refusal comes before the record stream, let alone a pool, exists.
    def no_stream(*args):
        raise AssertionError("record stream made before the refusal")

    monkeypatch.setattr(qt2ec.oracle, "_records", no_stream)
    for value in ("65", "0", "-3"):
        code, out, err = run(capsys, "verify", "--max-n", "2", "--threads", value)
        assert code == 2 and out == ""
        assert f"threads must be 1..64, got {value}" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--max-n", "2", "--threads", "abc"])
    assert excinfo.value.code == 2
    assert "argument --threads: invalid int value: 'abc'" in capsys.readouterr().err


def test_verify_reads_no_environment(capsys, monkeypatch):
    monkeypatch.delenv("QT2EC_THREADS", raising=False)
    expected = run(capsys, "verify", "--max-n", "3")
    assert expected[0] == 0
    monkeypatch.setenv("QT2EC_THREADS", "abc")
    assert run(capsys, "verify", "--max-n", "3") == expected


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "cycle,5")
    assert code == 0
    assert out.strip().splitlines() == ["colourings=2", "orientations=0"]
    assert json_record(capsys, "oracle", "--family", "cycle,5") == {
        "schema": "qt2ec/1",
        "graph6": encode_graph6(cycle(5)),
        "colourings": 2,
        "orientations": 0,
    }


def test_dot_output(capsys):
    code, out, _ = run(capsys, "classes", "--family", "path,3", "--out", "dot")
    assert code == 0
    assert out.startswith("graph {") and "style=" in out

    code, out, _ = run(
        capsys, "orient", "--family", "path,3", "--seed-arc", "0,1", "--out", "dot"
    )
    assert code == 0
    assert out.startswith("digraph {") and "0 -> 1;" in out


def test_parser_is_shared_while_environment_holds(monkeypatch):
    # The parser reads no environment, so a change leaves it shared too.
    parser = build_parser()
    monkeypatch.setenv("COLUMNS", "40")
    assert build_parser() is parser


def test_flags_do_not_carry_over_between_calls(capsys):
    code, out, _ = run(capsys, "colour", "--family", "path,3", "--enumerate")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run(capsys, "colour", "--family", "path,3")
    assert code == 0 and out.splitlines() == ["count=2"]


def test_help_leaves_the_shared_parser_usable(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["orient", "--help"])
    assert excinfo.value.code == 0
    assert "--seed-arc" in capsys.readouterr().out
    code, out, _ = run(capsys, "classes", "--family", "path,3")
    assert code == 0 and out.startswith("k=1")


# ---------------------------------------------------------------------------
# enumerations are written as they are made, and a stdout that cannot be
# written exits 2


def cli_command(*argv: str) -> tuple[list[str], dict[str, str]]:
    """The command line and environment that run the CLI on this package."""
    src = str(Path(qt2ec.__file__).resolve().parents[1])
    return [sys.executable, "-m", "qt2ec.cli", *argv], {**os.environ, "PYTHONPATH": src}


@pytest.mark.parametrize(
    "argv",
    [
        ["orient", "--enumerate"],
        ["orient", "--enumerate", "--out", "json"],
        ["colour", "--enumerate"],
    ],
)
def test_an_enumeration_of_16_classes_runs_in_128_mib(argv, tmp_path):
    # K5 + K3 + 3K2: 16 edges, each its own class.  The child caps its own
    # address space at 128 MiB; a CLI that kept the 2^16 orientations in a
    # list before writing them dies of MemoryError there.
    edges = [*combinations(range(5), 2), *combinations(range(5, 8), 2), (8, 9), (10, 11), (12, 13)]
    graph = tmp_path / "k16.txt"
    graph.write_text("".join(f"{a} {b}\n" for a, b in edges))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27)); "
        "from qt2ec.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    _, env = cli_command()
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, str(graph)], capture_output=True, text=True, timeout=120, env=env
    )
    assert (out.returncode, out.stderr) == (0, "")
    if "json" in argv:
        records = json.loads(out.stdout)["orientations"]
    else:
        records = out.stdout.splitlines()[1 if argv[0] == "orient" else 2 :]
    assert len(records) == 1 << 16


def _assert_one_write_error(code: int, err: str) -> None:
    assert code == 2, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output: "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_two_with_one_error_line():
    command, env = cli_command("classes", "--family", "k4_minus_e")
    with open("/dev/full", "w") as full:
        out = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, env=env)
    _assert_one_write_error(out.returncode, out.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["orient", "-h"], ["-h"]], ids=" ".join)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_to_a_full_stdout_exits_two_with_one_error_line(argv, unbuffered):
    # argparse writes the help itself and drops write errors: when stdout
    # is unbuffered, the write fails inside argparse; otherwise the flush.
    command, env = cli_command(*argv)
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            command, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, env={**env, "PYTHONUNBUFFERED": unbuffered}
        )
    _assert_one_write_error(out.returncode, out.stderr)


def test_a_stdout_closed_early_exits_two_with_one_error_line():
    # K6 has 15 classes: 32,768 lines, far more than a pipe buffer holds.
    command, env = cli_command("orient", "--family", "complete,6", "--enumerate")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert child.stdout.readline().startswith("orientable, k=15")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    _assert_one_write_error(child.wait(timeout=60), err)


def test_a_verify_stream_closed_early_exits_two_with_one_error_line():
    # The n <= 5 sweep writes 14,299 JSON lines, far more than a pipe
    # buffer holds; the header comes before any check runs.
    command, env = cli_command("verify", "--max-n", "5", "--threads", "2", "--out", "json")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert json.loads(child.stdout.readline())["graphs"] == 772
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    _assert_one_write_error(child.wait(timeout=60), err)


# ---------------------------------------------------------------------------
# the import boundary: the fast path never loads the verification half


def fresh_python(code: str, *flags: str) -> str:
    """The stdout of ``code`` run in a new interpreter on this package,
    started with the interpreter options ``flags``."""
    src = str(Path(qt2ec.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout


def test_fast_path_subcommands_do_not_load_the_verification_half():
    code = (
        "import contextlib, io, sys\n"
        "from qt2ec.cli import main\n"
        "for command in ('classes', 'colour', 'classify', 'orient', 'witness'):\n"
        "    for out in ('text', 'json'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main([command, '--family', 'k4_minus_e', '--out', out]) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qt2ec'))))\n"
    )
    assert fresh_python(code).split() == [
        "qt2ec",
        "qt2ec.classes",
        "qt2ec.cli",
        "qt2ec.colouring",
        "qt2ec.errors",
        "qt2ec.families",
        "qt2ec.graph",
        "qt2ec.orientation",
    ]


def test_the_fast_path_imports_without_dataclasses_inspect_or_typing():
    # -S keeps site out: a .pth hook may import typing by itself.  enum
    # comes with argparse, through re, so only the package is held to it.
    code = (
        "import sys\n"
        "heavy = ('dataclasses', 'enum', 'inspect', 'typing')\n"
        "import qt2ec\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "import qt2ec.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    package, cli = fresh_python(code, "-S").splitlines()
    assert package == "[]"
    assert cli in ("[]", "['enum']")


def test_the_verification_half_imports_without_dataclasses_inspect_or_typing():
    code = (
        "import sys, qt2ec.oracle, qt2ec.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    assert fresh_python(code, "-S") == "[]\n"


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = (
        "import sys, qt2ec\n"
        "print(any(m in sys.modules for m in ('qt2ec.oracle', 'qt2ec.structure', 'qt2ec.report')))\n"
        "print([n for n in qt2ec.__all__ if getattr(qt2ec, n) is not vars(qt2ec).get(n)])\n"
        "namespace = {}\n"
        "exec('from qt2ec import *', namespace)\n"
        "print(sorted(set(qt2ec.__all__) - set(namespace)))\n"
        "try:\n"
        "    qt2ec.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh_python(code).splitlines() == [
        "False",
        "[]",
        "[]",
        "module 'qt2ec' has no attribute 'nope'",
    ]
