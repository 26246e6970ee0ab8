"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or format error,
3 refusal (size caps, disconnected input, infeasible class).

The module imports only the fast path.  ``verify`` and ``oracle`` import
the verification half when they run, so the other subcommands never load
it.

Listings are assembled from strings made once per call: the vertex names,
and each edge's ``u-v`` text or its two arcs (:func:`arc_formatter`), so a
record is a join over them.  The one writer, :func:`_emit`, writes a
listing's items as they come, and in JSON output each item is already
JSON text.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Sequence

from .classes import DEFAULT_ENUMERATION_CAP, compute_classes
from .colouring import (
    Colourability,
    classify_colourability,
    count_colourings,
    enumerate_colourings,
    find_homogeneous_witness,
)
from .errors import ContractError, FormatError, RefusalError
from .families import FAMILY_USAGE, family_from_spec
from .graph import (
    Graph,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    to_dot,
)
from .orientation import (
    ARC_TEXT,
    arc_formatter,
    enumerate_orientations,
    orientability,
    partial_orientation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

_KIND_NAMES = {
    Colourability.TRIVIAL_ONLY: "TrivialOnly",
    Colourability.UNIQUELY_COLOURABLE: "Unique",
    Colourability.PROPERLY_COLOURABLE: "Properly",
}


def _add_output_argument(sub: argparse.ArgumentParser, out_choices: tuple[str, ...]) -> None:
    sub.add_argument(
        "--out",
        dest="out_format",
        choices=list(out_choices),
        default="text",
        help="output format (default text)",
    )


def _add_input_arguments(
    sub: argparse.ArgumentParser, out_choices: tuple[str, ...] = ("text", "json")
) -> None:
    sub.add_argument("input", nargs="?", help="graph file, or '-' for stdin")
    sub.add_argument("--family", metavar="SPEC", help=f"generator spec: {FAMILY_USAGE}")
    sub.add_argument(
        "--in",
        dest="in_format",
        choices=["edgelist", "graph6"],
        default="edgelist",
        help="input format (default edgelist)",
    )
    _add_output_argument(sub, out_choices)


def _add_cap_argument(sub: argparse.ArgumentParser) -> None:
    # No default here: an explicit --cap must be told apart from none.
    sub.add_argument(
        "--cap",
        type=int,
        help=f"class-count cap for --enumerate (default {DEFAULT_ENUMERATION_CAP})",
    )


def _read_graph(args: argparse.Namespace) -> Graph:
    if (args.input is None) == (args.family is None):
        raise ContractError("exactly one input source required: a file/'-' or --family")
    if args.family is not None:
        return family_from_spec(args.family)
    source = "stdin" if args.input == "-" else args.input
    try:
        if args.input == "-":
            # Decode the bytes strictly: a C locale's stdin would let
            # undecodable bytes through as surrogate escapes.
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source} is not UTF-8 text: {exc}") from exc
    if args.in_format == "graph6":
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line)
        raise FormatError("no graph6 line found in input")
    return parse_edge_list(text)


def _edge_texts(g: Graph) -> list[str]:
    """Each edge as ``u-v`` over the vertex names, in edge-index order."""
    names = g.vertex_names()
    return [f"{names[u]}-{names[v]}" for u, v in g.edges]


def _json_header(g: Graph) -> dict[str, object]:
    record: dict[str, object] = {"schema": "qt2ec/1", "graph6": encode_graph6(g)}
    if g.labels is not None:
        record["labels"] = list(g.labels)
    return record


class _OutputError(Exception):
    """A write to stdout, or its flush, failed; it reads as the OSError."""


def _emit(out: str | dict, listing: Iterable[str] | None = None, field: str = "") -> None:
    """Write text, or a record as JSON with sorted keys, and flush.  The items
    of ``listing`` are written as they are made: lines after the text, or,
    each already JSON text, the list ``field`` in its sorted place in the
    record."""
    write = sys.stdout.write
    try:
        if isinstance(out, str):
            tail = out
            write(out)
            for line in listing or ():
                tail = "\n" + line
                write(tail)
            if tail and not tail.endswith("\n"):
                write("\n")
        elif listing is None:
            write(json.dumps(out, sort_keys=True) + "\n")
        else:
            # The key occurs once: quotes inside a string value are escaped.
            key = json.dumps(field) + ": ["
            head, _, rest = json.dumps({**out, field: []}, sort_keys=True).partition(key + "]")
            write(head + key)
            for i, item in enumerate(listing):
                write((", " if i else "") + item)
            write("]" + rest + "\n")
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from exc


def _cmd_classes(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    p = compute_classes(g)
    if args.out_format == "json":
        record = _json_header(g)
        record["k"] = p.k
        record["classes"] = [[list(e) for e in p.class_edges(c)] for c in range(p.k)]
        _emit(record)
    elif args.out_format == "dot":
        _emit(to_dot(g, p))
    else:
        edges = _edge_texts(g)
        lines = (f"class {cid}: " + " ".join(map(edges.__getitem__, members)) for cid, members in enumerate(p.classes))
        _emit(f"k={p.k}", lines)
    return EXIT_OK


def _enumeration_cap(args: argparse.Namespace) -> int:
    """The ``--cap`` of an ``--enumerate`` call, or its default; a ``--cap``
    without ``--enumerate`` would be ignored, so it is a usage error."""
    if args.cap is None:
        return DEFAULT_ENUMERATION_CAP
    if not args.enumerate:
        raise ContractError("--cap needs --enumerate")
    return args.cap


def _cmd_colour(args: argparse.Namespace) -> int:
    cap = _enumeration_cap(args)
    g = _read_graph(args)
    count = count_colourings(g)
    colourings = None
    if args.enumerate:
        colourings = ("".join(c.colours) for c in enumerate_colourings(g, cap=cap))
    if args.out_format == "json":
        record = _json_header(g)
        record["count"] = count
        record["edges"] = [list(e) for e in g.edges]
        # The letters are R and B only, so quoting makes each a JSON string.
        _emit(record, None if colourings is None else ('"' + c + '"' for c in colourings), "colourings")
    else:
        text = f"count={count}"
        if colourings is not None:
            text += "\nedges: " + " ".join(_edge_texts(g))
        _emit(text, colourings)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    result = classify_colourability(g)
    name = _KIND_NAMES[result.kind]
    if result.kind is Colourability.PROPERLY_COLOURABLE:
        name = f"Properly({result.class_count})"
    if args.out_format == "json":
        record = _json_header(g)
        record.update(
            {
                "classification": name,
                "k": result.class_count,
                "count": result.colouring_count,
            }
        )
        _emit(record)
    else:
        _emit(name)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    witness = find_homogeneous_witness(g)
    if args.out_format == "json":
        record = _json_header(g)
        record["witness"] = sorted(witness) if witness is not None else None
        _emit(record)
    else:
        if witness is None:
            _emit("none")
        else:
            _emit(" ".join(g.label(v) for v in sorted(witness)))
    return EXIT_OK


def _parse_seed_arc(g: Graph, text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ContractError(f"--seed-arc expects 'u,v', got {text!r}")
    return g.vertex_by_label(parts[0].strip()), g.vertex_by_label(parts[1].strip())


def _cmd_orient(args: argparse.Namespace) -> int:
    cap = _enumeration_cap(args)
    if args.enumerate and args.out_format == "dot":
        raise ContractError("--enumerate has no dot output; use --out text or --out json")
    g = _read_graph(args)
    feas = orientability(g)
    gamma = None
    if args.seed_arc:
        gamma = partial_orientation(g, _parse_seed_arc(g, args.seed_arc))
    listing = None
    if args.enumerate:
        orientations = enumerate_orientations(g, cap=cap)
        if args.out_format == "json":
            arcs = arc_formatter(g, [str(v) for v in range(g.n)], "[{}, {}]", ", ")
            listing = ("[" + arcs(o.bits) + "]" for o in orientations)
        else:
            arcs = arc_formatter(g, g.vertex_names(), ARC_TEXT, "; ")
            listing = (arcs(o.bits) for o in orientations)
    if args.out_format == "json":
        record = _json_header(g)
        record.update({"orientable": feas.orientable, "k": feas.k, "count": feas.count})
        if gamma is not None:
            record["gamma"] = [list(arc) for arc in gamma.arcs()]
        _emit(record, listing, "orientations")
    elif args.out_format == "dot":
        if gamma is None:
            raise ContractError("dot output for orient requires --seed-arc")
        _emit(to_dot(g, gamma))
    else:
        if feas.orientable:
            text = f"orientable, k={feas.k}, count={feas.count}"
        else:
            text = "not orientable, count=0"
        if gamma is not None:
            text += "\n" + gamma.format_arcs()
        _emit(text, listing)
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    g = family_from_spec(args.family)
    if args.out_format == "graph6":
        _emit(encode_graph6(g))
    elif args.out_format == "dot":
        _emit(to_dot(g))
    elif args.out_format == "json":
        record = _json_header(g)
        record["n"] = g.n
        record["edges"] = [list(e) for e in g.edges]
        _emit(record)
    else:
        _emit(format_edge_list(g))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import SweepConfig, theorem_sweep

    checks = frozenset(args.checks.split(",")) if args.checks is not None else None
    cfg = SweepConfig(
        max_n=args.max_n,
        checks=checks,
        sample_n6=args.sample_n6,
        seed=args.seed,
        threads=args.threads,
    )
    report = theorem_sweep(cfg)
    if args.out_format == "json":
        _emit(report.to_json_lines())
    else:
        lines = [f"graphs={report.meta['graphs']} records={len(report.results)}"]
        for name, (passed, failed) in report.summary().items():
            status = "PASS" if failed == 0 else "FAIL"
            lines.append(f"{name}: {status} ({passed} pass, {failed} fail)")
        for failure in report.failures():
            lines.append(f"FAIL {failure.check} on {failure.graph_key}: {failure.witness}")
        _emit("\n".join(lines))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_colouring_count, brute_force_orientation_count

    g = _read_graph(args)
    colourings = brute_force_colouring_count(g)
    orientations = brute_force_orientation_count(g)
    if args.out_format == "json":
        record = _json_header(g)
        record.update({"colourings": colourings, "orientations": orientations})
        _emit(record)
    else:
        _emit(f"colourings={colourings}\norientations={orientations}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that writes its help through :func:`_emit`, so a
    help that cannot be written is reported; argparse drops write errors."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(self.format_help())
        else:
            super().print_help(file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then shared.

    Callers share the returned object and must not mutate it.  Sharing
    saves work only when ``main`` runs more than once in one process (the
    test suite, the benchmark's ``cli-mixed`` workload, or a Python caller
    looping over graphs).  A one-shot ``qt2ec`` command builds the parser
    once either way.
    """
    parser = _Parser(
        prog="qt2ec",
        description=(
            "Edge classes, quasi-transitive 2-edge-colourings, and "
            "quasi-transitive orientations of undirected graphs."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("classes", help="print the edge-class partition")
    _add_input_arguments(sub, out_choices=("text", "json", "dot"))
    sub.set_defaults(fn=_cmd_classes)

    sub = subparsers.add_parser("colour", help="count (and enumerate) colourings")
    _add_input_arguments(sub)
    sub.add_argument("--enumerate", action="store_true")
    _add_cap_argument(sub)
    sub.set_defaults(fn=_cmd_colour)

    sub = subparsers.add_parser("classify", help="TrivialOnly | Unique | Properly(k)")
    _add_input_arguments(sub)
    sub.set_defaults(fn=_cmd_classify)

    sub = subparsers.add_parser("witness", help="print a homogeneous witness vertex set")
    _add_input_arguments(sub)
    sub.set_defaults(fn=_cmd_witness)

    sub = subparsers.add_parser("orient", help="orientability, counting, partial orientations")
    _add_input_arguments(sub, out_choices=("text", "json", "dot"))
    sub.add_argument("--seed-arc", metavar="U,V", help="emit the partial orientation generated by arc u->v")
    sub.add_argument("--enumerate", action="store_true")
    _add_cap_argument(sub)
    sub.set_defaults(fn=_cmd_orient)

    sub = subparsers.add_parser("family", help="emit a generator graph")
    sub.add_argument("--family", metavar="SPEC", required=True, help=f"generator spec: {FAMILY_USAGE}")
    _add_output_argument(sub, ("text", "json", "dot", "graph6"))
    sub.set_defaults(fn=_cmd_family)

    sub = subparsers.add_parser("verify", help="run the theorem sweep")
    sub.add_argument("--max-n", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--sample-n6", type=int, default=None)
    sub.add_argument("--checks", help="comma-separated check names (default all)")
    sub.add_argument("--threads", type=int, default=1, help="sweep worker processes (default 1)")
    _add_output_argument(sub, ("text", "json"))
    sub.set_defaults(fn=_cmd_verify)

    sub = subparsers.add_parser("oracle", help="brute-force colouring/orientation counts")
    _add_input_arguments(sub)
    sub.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (FormatError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except _OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # Point stdout at the null device, so that the flush at exit does
        # not fail on the same buffered bytes and report it again.
        try:
            fd = sys.stdout.fileno()
        except OSError:  # a stdout with no file descriptor
            return EXIT_USAGE
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
