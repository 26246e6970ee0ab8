"""The qt2ec benchmark workloads, run in a fresh interpreter by ``run.py``.

Usage (``run.py`` sets the environment; see README.md):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client.  It drives ``qt2ec``
from outside through public functions, builds every input from ``--seed``
and checks every answer.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed``, ``refusals`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics in whole passes over the
workload's inputs until ``--seconds`` have passed.  ``--trace 1`` makes
one untraced pass and then two traced passes over the same inputs, and
reports per-layer metrics: span times are the mean of the two traced
passes, and counts must agree exactly between them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

from qt2ec import (
    Graph,
    RefusalError,
    classify_colourability,
    compute_classes,
    count_colourings,
    encode_graph6,
    enumerate_colourings,
    enumerate_orientations,
    find_homogeneous_witness,
    induced_p3s,
    orientability,
    parse_edge_list,
    parse_graph6,
    partial_orientation,
    verify_partition_laws,
)
from qt2ec.cli import build_parser
from qt2ec.cli import main as cli_main
from qt2ec.families import family_from_spec
from qt2ec.oracle import (
    ALL_CHECKS,
    SweepConfig,
    brute_force_colouring_count,
    brute_force_orientation_count,
    enumerate_labeled_graphs,
    sample_connected_graphs,
    theorem_sweep,
)

import inputs
import reference
from calibrate import Calibrator
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".bench_build" / "perfbench"
TRACED_PASSES = 2


def _no_span(name, op=None):
    return contextlib.nullcontext()


class Tally:
    """Ops attempted and failed; prints the first few failures to stderr."""

    SHOWN = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refusals = 0
        self._shown = 0

    def record(self, label: str, problems: list[str], ops: int = 1, failed_ops: int | None = None) -> None:
        self.attempted += ops
        if failed_ops is None:
            failed_ops = ops if problems else 0
        self.failed += failed_ops
        if problems and self._shown < self.SHOWN:
            self._shown += 1
            print(f"FAIL {label}: {'; '.join(problems)[:2000]}", file=sys.stderr)


def _guarded(fn, *args):
    """Run one op; an exception is a failure of that op, not of the run."""
    try:
        return fn(*args), None
    except Exception:  # the loop must go on and count it
        return None, traceback.format_exc(limit=4)


def _percentiles(samples: list[float]) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def _peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, for a pool, the workers (each taken
    at the largest worker's peak, which getrusage reports for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024


def _measure(items, seconds: float, run_one, ops_per_item: int = 1) -> dict:
    """Whole passes over ``items``, at least two, until ``seconds`` of wall
    time have passed; ``run_one(item)`` returns the seconds spent in the
    program.
    An item stands for ``ops_per_item`` ops.

    Every op's time is scaled by the calibration (see calibrate.py).
    Throughput is the median over passes of ops per second spent in the
    program.  Latency percentiles are taken per pass and their median
    reported; a one-item pass (a whole sweep) has no spread of its own, so
    there they are over the passes.
    """
    # The collector's full passes scan every live object, so without this
    # the benchmark's own inputs and answers would add to each op's time.
    gc.collect()
    gc.freeze()
    calibrator = Calibrator()
    times: list[float] = []
    start = perf_counter()
    passes = 0
    while True:
        for item in items:
            elapsed = run_one(item)
            times.append(elapsed)
            calibrator.after_op(elapsed)
        passes += 1
        if passes >= 2 and perf_counter() - start >= seconds:
            break
    scaled = [t / ops_per_item for t in calibrator.scaled()]
    width = len(items)
    per_pass = [scaled[i * width:(i + 1) * width] for i in range(passes)]
    if width > 1:
        # Percentiles of each pass's op mix, then the median over passes.
        p50, p90 = (statistics.median(q) for q in zip(*map(_percentiles, per_pass)))
    else:
        p50, p90 = _percentiles(scaled)
    return {
        "throughput_per_s": statistics.median(len(ts) / sum(ts) for ts in per_pass),
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "samples": f"{passes} passes x {width} ops",
        "raw_throughput_per_s": len(times) * ops_per_item / sum(times),
    }


# ---------------------------------------------------------------------------
# kernel-large: Graph build -> compute_classes -> orientability -> partial


KERNEL_SHAPES = (
    "gnp-dense",
    "gnp-sparse",
    "permutation",
    "cograph",
    "threshold",
    "multipartite",
    "double-path-apex",
)
KERNEL_PER_SHAPE = 15


@dataclass
class KernelItem:
    shape: str
    n: int
    edges: list
    spec: str | None
    answer: reference.Answer


def kernel_items(seed: int) -> list[KernelItem]:
    """Per shape, sizes step evenly over a fixed range, so every seed gets
    the same size mix and only the random structure changes with it."""
    rng = Random(f"kernel-large/{seed}")
    items = []
    for shape in KERNEL_SHAPES:
        for i in range(KERNEL_PER_SHAPE):
            def size(lo: int, hi: int) -> int:
                return lo + (hi - lo) * i // (KERNEL_PER_SHAPE - 1)

            spec = None
            if shape == "gnp-dense":
                n, edges = inputs.gnp(rng, size(50, 70), 0.5)
            elif shape == "gnp-sparse":
                n = size(120, 200)
                n, edges = inputs.gnp(rng, n, 8 / n)
            elif shape == "permutation":
                n, edges = inputs.permutation_graph(rng, size(40, 65))
            elif shape == "cograph":
                n, edges = inputs.cograph(rng, size(40, 70))
            elif shape == "threshold":
                spec = f"threshold,{2 * size(25, 40)}"
            elif shape == "multipartite":
                spec = inputs.multipartite_spec(rng, size(50, 80), size(5, 9))
            else:
                spec = f"double_path_apex,{size(30, 90)}"
            if spec is not None:
                n, edges = inputs.spec_graph(spec)
            items.append(KernelItem(shape, n, edges, spec, reference.solve(n, edges)))
    rng.shuffle(items)
    return items


def kernel_op(item: KernelItem, span=_no_span):
    if item.spec is not None:
        with span("families.build"):
            g = family_from_spec(item.spec)
    else:
        with span("graph.build"):
            g = Graph(item.n, item.edges)
    with span("classes.compute"):
        p = compute_classes(g)
    with span("orientation.orientability"):
        feas = orientability(g)
    gamma = None
    if feas.orientable and g.m:
        with span("orientation.partial"):
            gamma = partial_orientation(g, g.edge(0))
    return g, p, feas, gamma


def kernel_check(item: KernelItem, result) -> list[str]:
    g, p, feas, gamma = result
    ans = item.answer
    problems = []
    if g.n != ans.n or g.edges != ans.edges:
        problems.append("graph differs from the generated input")
    if p.k != ans.k or feas.k != ans.k:
        problems.append(f"k={p.k}/{feas.k}, expected {ans.k}")
    if tuple(sorted(len(c) for c in p.classes)) != ans.class_sizes:
        problems.append("class sizes differ")
    if feas.orientable != ans.orientable:
        problems.append(f"orientable={feas.orientable}, expected {ans.orientable}")
    if ans.orientable and (gamma is None or gamma.domain != ans.classes[0]):
        problems.append("partial orientation does not cover exactly the least edge's class")
    if item.shape in ("permutation", "cograph") and not feas.orientable:
        problems.append(f"{item.shape} graphs are orientable by construction")
    if item.spec is not None and p.k != inputs.expected_k_by_construction(item.spec):
        problems.append(f"{item.spec} has k={p.k} against its construction")
    return problems


def kernel_untraced(seed: int, seconds: float) -> tuple[dict, Tally]:
    items = kernel_items(seed)
    tally = Tally()

    def run_one(item):
        t0 = perf_counter()
        result, error = _guarded(kernel_op, item)
        elapsed = perf_counter() - t0
        tally.record(item.shape, [error] if error else kernel_check(item, result))
        return elapsed

    for item in items[:3]:  # warm-up, untimed
        run_one(item)
    metrics = _measure(items, seconds, run_one)
    metrics["peak_rss_mb"] = _peak_rss_mb(0)
    return metrics, tally


def kernel_traced(seed: int) -> tuple[dict, dict, Tally, list]:
    items = kernel_items(seed)
    tally = Tally()
    untraced = 0.0
    for item in items:
        t0 = perf_counter()
        result, error = _guarded(kernel_op, item)
        untraced += perf_counter() - t0
        tally.record(item.shape, [error] if error else kernel_check(item, result))

    passes = []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        for op, item in enumerate(items):
            with tracer.span("op", op):
                result, error = _guarded(kernel_op, item, tracer.span)
            tally.record(item.shape, [error] if error else kernel_check(item, result))
            if error:
                continue
            g, p, _feas, _gamma = result
            with tracer.span("replay", op):
                with tracer.span("graph.p3_scan"):
                    p3 = sum(1 for _ in induced_p3s(g))
            tracer.count("graph.p3_count", p3)
            tracer.count("classes.k_total", p.k)
            tracer.count("_edges", g.m)
        passes.append(tracer)
    metrics, counts = _layer_metrics(passes)
    op_time = _mean(t.totals()[0]["op"] for t in passes)
    kernel = sum(metrics.get(f"{name}_s", 0.0) for name in (
        "graph.build", "families.build", "classes.compute",
        "orientation.orientability", "orientation.partial"))
    metrics["share.kernel_layers"] = kernel / op_time
    _overhead(metrics, len(items) / untraced, len(items) / op_time)
    return metrics, counts, tally, passes


# ---------------------------------------------------------------------------
# sweep-pool: theorem_sweep over n <= 5 plus a seeded n=6 sample, on a pool

SWEEP_SAMPLE_N6 = 500
N5_GRAPHS = 772
N5_RECORDS = 14298
POOL_WORKERS = 2


def sweep_config(seed: int, threads: int) -> SweepConfig:
    return SweepConfig(max_n=5, sample_n6=SWEEP_SAMPLE_N6, seed=seed, threads=threads)


class SweepPin:
    """Checks a sweep report; the first report of a run pins the record
    count and per-check summary that every later one must repeat."""

    def __init__(self) -> None:
        self.pinned: tuple | None = None

    def check(self, report) -> tuple[list[str], int]:
        problems = []
        graphs = report.meta.get("graphs")
        if graphs != N5_GRAPHS + SWEEP_SAMPLE_N6:
            problems.append(f"graphs={graphs}, expected {N5_GRAPHS + SWEEP_SAMPLE_N6}")
        n5 = sum(1 for r in report.results if ord(r.graph_key[0]) - 63 <= 5)
        if n5 != N5_RECORDS:
            problems.append(f"{n5} records at n<=5, expected {N5_RECORDS}")
        failing = {r.graph_key for r in report.failures()}
        if failing:
            problems.append(f"{len(failing)} graphs fail a check, e.g. {sorted(failing)[0]}")
        shape = (len(report.results), tuple(report.summary().items()))
        if self.pinned is None:
            self.pinned = shape
        elif shape != self.pinned:
            problems.append("record count or per-check summary differs from the first sweep")
        if problems and not failing:
            return problems, N5_GRAPHS + SWEEP_SAMPLE_N6
        return problems, len(failing)


def _sweep_op(cfg: SweepConfig, pin: SweepPin, tally: Tally, registry=None):
    """One checked theorem_sweep call: (report or None, seconds)."""
    size = N5_GRAPHS + SWEEP_SAMPLE_N6
    gc.collect()  # each sweep starts from the same collector state
    t0 = perf_counter()
    report, error = _guarded(theorem_sweep, cfg, registry)
    elapsed = perf_counter() - t0
    if error:
        tally.record("sweep", [error], ops=size)
        return None, elapsed
    problems, failed = pin.check(report)
    tally.record("sweep", problems, ops=size, failed_ops=failed)
    return report, elapsed


def sweep_untraced(seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    pin = SweepPin()
    cfg = sweep_config(seed, POOL_WORKERS)
    _sweep_op(cfg, pin, tally)  # warm-up, untimed: the first full sweep runs slow
    metrics = _measure(
        [None], seconds, lambda _: _sweep_op(cfg, pin, tally)[1],
        ops_per_item=N5_GRAPHS + SWEEP_SAMPLE_N6,
    )
    metrics["peak_rss_mb"] = _peak_rss_mb(POOL_WORKERS)
    return metrics, tally


def _timed_registry(tracer: Tracer) -> dict:
    """ALL_CHECKS with each check wrapped in one span, so each check's time
    is counted once per graph however many records it returns."""
    op = {"graph": None, "id": -1}

    def wrap(name, fn):
        def check(g, p):
            if g is not op["graph"]:
                op["graph"], op["id"] = g, op["id"] + 1
            with tracer.span(f"oracle.check.{name}", op["id"]):
                return fn(g, p)
        return check

    return {name: wrap(name, fn) for name, fn in ALL_CHECKS.items()}


def _corpus(seed: int) -> list[Graph]:
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    return graphs + sample_connected_graphs(6, SWEEP_SAMPLE_N6, seed)


def sweep_traced(seed: int) -> tuple[dict, dict, Tally, list]:
    """The pool sweep under one span, with the pool's CPU split; then the
    same sweep replayed serially through the ``registry`` hook (the only
    way to time each check, and serial-only) and the inner layers replayed
    per corpus graph."""
    tally = Tally()
    pool_pin, serial_pin = SweepPin(), SweepPin()
    cfg = sweep_config(seed, POOL_WORKERS)
    serial = sweep_config(seed, 1)
    size = N5_GRAPHS + SWEEP_SAMPLE_N6
    _sweep_op(cfg, pool_pin, tally)  # warm-up, untimed
    _, untraced = _sweep_op(cfg, pool_pin, tally)

    passes, overcounts, bytes_out, pool_split = [], [], [], []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        passes.append(tracer)
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with tracer.span("oracle.sweep", 0):
            report, wall = _sweep_op(cfg, pool_pin, tally)
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if report is None:
            continue
        parent_cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        worker_cpu = (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
        pool_split.append((parent_cpu, worker_cpu, wall))
        with tracer.span("report.to_json_lines", 0):
            text = report.to_json_lines()
        tracer.count("report.records", len(report.results))
        # Not a pinned count: the records carry float timings, whose
        # printed length varies from run to run.
        bytes_out.append(len(text.encode()))

        with tracer.span("replay", 0):
            with tracer.span("oracle.sweep_serial"):
                report, _ = _sweep_op(serial, serial_pin, tally, _timed_registry(tracer))
        if report is not None:
            # Each check is timed once by its span; the records' ``seconds``
            # repeat a multi-record check's time on every record it returns.
            stamped = sum(r.seconds or 0.0 for r in report.results)
            checks = sum(e - s for n, s, e, _p, _o in tracer.spans if n.startswith("oracle.check."))
            overcounts.append(stamped / checks)
        _sweep_replay(tracer, seed)

    metrics, counts = _layer_metrics(passes)
    serial_time = metrics.get("oracle.sweep_serial_s", 0.0)
    checks = sum(v for k, v in metrics.items() if k.startswith("oracle.check."))
    metrics["share.oracle_checks"] = checks / serial_time
    metrics["share.classes_compute"] = metrics.get("classes.compute_s", 0.0) / serial_time
    metrics["report.bytes_out"] = _mean(bytes_out)
    if overcounts:
        metrics["oracle.seconds_overcount"] = _mean(overcounts)
    if pool_split:
        worker_cpu = _mean(s[1] for s in pool_split)
        wall = _mean(s[2] for s in pool_split)
        metrics["oracle.pool_parent_cpu_s"] = _mean(s[0] for s in pool_split)
        metrics["oracle.pool_worker_cpu_s"] = worker_cpu
        metrics["oracle.pool_idle_s"] = POOL_WORKERS * wall - worker_cpu
        metrics["share.pool_idle"] = (POOL_WORKERS * wall - worker_cpu) / (POOL_WORKERS * wall)
    _overhead(metrics, size / untraced, size / metrics["oracle.sweep_s"])
    return metrics, counts, tally, passes


def _sweep_replay(tracer: Tracer, seed: int) -> None:
    """The layers the sweep calls internally, replayed once per corpus
    graph through public functions: corpus build, graph6 key, P3 scan,
    partition and its laws, and the two brute-force counters."""
    with tracer.span("replay", 0):
        with tracer.span("oracle.corpus"):
            corpus = _corpus(seed)
        for op, g in enumerate(corpus):
            with tracer.span("graph.encode_graph6", op):
                encode_graph6(g)
            with tracer.span("graph.p3_scan", op):
                p3 = sum(1 for _ in induced_p3s(g))
            with tracer.span("classes.compute", op):
                p = compute_classes(g)
            with tracer.span("classes.verify_laws", op):
                verify_partition_laws(g, p)
            with tracer.span("oracle.brute_colouring", op):
                colourings = brute_force_colouring_count(g)
            with tracer.span("oracle.brute_orientation", op):
                orientations = brute_force_orientation_count(g)
            tracer.count("graph.p3_count", p3)
            tracer.count("classes.k_total", p.k)
            tracer.count("_edges", g.m)
            tracer.count("oracle.masks_tried", 2 << g.m)
            tracer.count("_maps_valid", colourings + orientations)


# ---------------------------------------------------------------------------
# cli-mixed: in-process qt2ec.cli.main calls on graph6 and edge-list files

CLI_GRAPHS_PER_KIND = 15
CLI_CAP = 8
CLI_PERMUTATION_K = 4
CLI_SUBCOMMANDS = {
    "classes": ("json", "text", "dot"),
    "classify": ("json", "text"),
    "witness": ("json", "text"),
    "colour": ("json", "text"),
    "orient": ("json", "text"),
}


@dataclass
class CliGraph:
    n: int
    edges: list
    answer: reference.Answer
    path: str
    labels: list[str] | None  # None for graph6 input (labels are dense ids)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


@dataclass
class CliOp:
    sub: str
    out: str
    graph: CliGraph
    argv: list[str]
    cap: int | None = None  # --cap of an enumerate call

    @property
    def expect_refusal(self) -> bool:
        if self.sub == "colour":
            return self.graph.answer.k > self.cap
        if self.sub == "orient":
            return not self.graph.answer.orientable or self.graph.answer.k > self.cap
        return False


def _permutation_graph_with_k(rng: Random, n: int) -> tuple[int, list]:
    """A permutation graph with CLI_PERMUTATION_K classes, or the last of
    200 tries.  Their k is mostly 1-3 but now and then 8, and 2^k sets
    the cost of an enumeration; fixing k keeps that cost the same for
    every seed."""
    for _ in range(200):
        n, edges = inputs.permutation_graph(rng, n)
        if reference.solve(n, edges).k == CLI_PERMUTATION_K:
            break
    return n, edges


def cli_items(seed: int, workdir: Path) -> list[CliOp]:
    """Cographs and permutation graphs with n stepping from 8 to 40.

    Enumeration on a permutation graph writes 2^CLI_PERMUTATION_K
    records.  On a cograph it is refused by construction (``--cap`` one
    below its k), since cographs past n=14 or so have k > CLI_CAP anyway
    and below that their k varies widely with the seed."""
    rng = Random(f"cli-mixed/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = []
    count = 2 * CLI_GRAPHS_PER_KIND
    for i in range(count):
        # Sizes step evenly, so every seed gets the same size mix.
        n = 8 + 32 * (i // 2) // (CLI_GRAPHS_PER_KIND - 1)
        n, edges = (inputs.cograph if i % 2 else _permutation_graph_with_k)(rng, n)
        edges = reference.canonical_edges(edges)
        if i % 4 < 2:
            path = workdir / f"g{i}.g6"
            path.write_text(inputs.graph6(n, edges) + "\n", encoding="utf-8")
            labels = None
        else:
            path = workdir / f"g{i}.txt"
            labels = [f"x{v}" for v in range(n)]
            path.write_text(inputs.edge_list_text(n, edges, labels), encoding="utf-8")
        answer = reference.solve(n, edges)
        graphs.append(CliGraph(n, edges, answer, str(path), labels))
    ops = []
    for i, graph in enumerate(graphs):
        for sub, outs in CLI_SUBCOMMANDS.items():
            out = rng.choice(outs)
            argv = [sub, graph.path, "--out", out]
            if graph.labels is None:
                argv += ["--in", "graph6"]
            cap = None
            if sub in ("colour", "orient"):
                cap = graph.answer.k - 1 if i % 2 else CLI_CAP
                argv += ["--enumerate", "--cap", str(cap)]
            ops.append(CliOp(sub, out, graph, argv, cap))
    rng.shuffle(ops)
    return ops


def cli_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class CliChecker:
    """Validates the first answer to each argv against the reference and
    pins its exit code and stdout digest; later answers must repeat it."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.pinned: dict[tuple, tuple[int, str]] = {}

    def check(self, op: CliOp, result, error) -> None:
        if error:
            self.tally.record(" ".join(op.argv), [error])
            return
        code, stdout = result
        key = tuple(op.argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if key in self.pinned:
            problems = [] if self.pinned[key] == (code, digest) else ["output differs from the first call"]
        else:
            problems = _validate_cli(op, code, stdout)
            self.pinned[key] = (code, digest)
        if code == 3 and not problems:
            self.tally.refusals += 1
        self.tally.record(" ".join(op.argv), problems)


def _validate_cli(op: CliOp, code: int, stdout: str) -> list[str]:
    g = op.graph
    ans = g.answer
    if op.expect_refusal:
        if code != 3 or stdout:
            return [f"expected refusal (exit 3, no output), got exit {code}"]
        return []
    if code != 0:
        return [f"exit {code}"]
    lines = stdout.splitlines()
    record = json.loads(stdout) if op.out == "json" else None
    edges = list(ans.edges)
    size = 1 << ans.k
    problems = []
    if record is not None and record.get("graph6") != inputs.graph6(g.n, edges):
        problems.append("json graph6 key differs from the input")
    if op.sub == "classes":
        expected = [[list(edges[e]) for e in members] for members in ans.classes]
        if op.out == "json":
            if record["k"] != ans.k or record["classes"] != expected:
                problems.append("partition differs from the reference")
        elif op.out == "text":
            want = [f"k={ans.k}"] + [
                f"class {cid}: " + " ".join(f"{g.label(u)}-{g.label(v)}" for u, v in cls)
                for cid, cls in enumerate(expected)
            ]
            if lines != want:
                problems.append("partition text differs from the reference")
        elif sum(" -- " in line for line in lines) != len(edges):
            problems.append("dot output does not list every edge")
    elif op.sub == "classify":
        name = {1: "TrivialOnly", 2: "Unique"}.get(ans.k, f"Properly({ans.k})")
        got = (record["classification"], record["k"], record["count"]) if record else (stdout.strip(), ans.k, size)
        if got != (name, ans.k, size):
            problems.append(f"classification {got}, expected {(name, ans.k, size)}")
    elif op.sub == "witness":
        if record is not None:
            witness = record["witness"]
        else:
            text = stdout.strip()
            witness = None if text == "none" else [g.labels.index(t) if g.labels else int(t) for t in text.split()]
        if (witness is None) != (ans.k < 2):
            problems.append(f"witness presence wrong for k={ans.k}")
        elif witness is not None and not reference.is_homogeneous_witness(g.n, edges, witness):
            problems.append(f"witness {witness} is not a homogeneous witness")
    elif op.sub == "colour":
        if record is not None:
            count, colourings = record["count"], record["colourings"]
        else:
            count, colourings = int(lines[0].split("=")[1]), lines[2:]
        valid = all(
            len(c) == len(edges) and all(c[e] == c[members[0]] for members in ans.classes for e in members)
            for c in colourings
        )
        if count != size or len(colourings) != size or len(set(colourings)) != size or not valid:
            problems.append(f"colourings: count {count}, {len(colourings)} listed, expected {size} valid ones")
    elif op.sub == "orient":
        if record is not None:
            head = (record["orientable"], record["k"], record["count"])
            arc_lists = [[tuple(a) for a in arcs] for arcs in record["orientations"]]
        else:
            head = lines[0]
            index = {g.label(v): v for v in range(g.n)}
            arc_lists = [
                [tuple(index[x] for x in arc.split(" -> ")) for arc in line.split("; ")]
                for line in lines[1:]
            ]
        want = (True, ans.k, size) if record is not None else f"orientable, k={ans.k}, count={size}"
        distinct = {tuple(sorted(arcs)) for arcs in arc_lists}
        p3s = reference.induced_p3s(g.n, edges)
        valid = all(reference.is_quasi_transitive_orientation(edges, p3s, arcs) for arcs in arc_lists)
        if head != want or len(arc_lists) != size or len(distinct) != size or not valid:
            problems.append(f"orientations: header {head!r}, {len(arc_lists)} listed, expected {size} valid ones")
    return problems


def cli_untraced(seed: int, seconds: float) -> tuple[dict, Tally]:
    workdir = STATE_DIR / f"cli-inputs-{os.getpid()}"
    try:
        ops = cli_items(seed, workdir)
        tally = Tally()
        checker = CliChecker(tally)

        def run_one(op):
            t0 = perf_counter()
            result, error = _guarded(cli_call, op.argv)
            elapsed = perf_counter() - t0
            checker.check(op, result, error)
            return elapsed

        for op in ops:  # validation pass, untimed
            run_one(op)
        metrics = _measure(ops, seconds, run_one)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["peak_rss_mb"] = _peak_rss_mb(0)
    return metrics, tally


def cli_traced(seed: int) -> tuple[dict, dict, Tally, list]:
    workdir = STATE_DIR / f"cli-inputs-{os.getpid()}"
    try:
        ops = cli_items(seed, workdir)
        tally = Tally()
        checker = CliChecker(tally)
        untraced = 0.0
        for op in ops:
            t0 = perf_counter()
            result, error = _guarded(cli_call, op.argv)
            untraced += perf_counter() - t0
            checker.check(op, result, error)
        passes = []
        for _ in range(TRACED_PASSES):
            tracer = Tracer()
            for i, op in enumerate(ops):
                with tracer.span(f"cli.{op.sub}", i):
                    result, error = _guarded(cli_call, op.argv)
                checker.check(op, result, error)
                if error:
                    continue
                tracer.count("cli.bytes_out", len(result[1].encode()))
                tracer.count("cli.refusals", int(result[0] == 3))
                _, replay_error = _guarded(_cli_replay, tracer, i, op)
                if replay_error:
                    tally.record("replay " + " ".join(op.argv), [replay_error])
            passes.append(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, counts = _layer_metrics(passes)
    totals = [t.totals()[0] for t in passes]
    calls = _mean(sum(tot.get(f"cli.{sub}", 0.0) for sub in CLI_SUBCOMMANDS) for tot in totals)
    replay = _mean(tot.get("replay", 0.0) for tot in totals)
    metrics["cli.unattributed_s"] = calls - replay
    metrics["share.cli_build_parser"] = metrics.get("cli.build_parser_s", 0.0) / calls
    metrics["share.cli_enumerate"] = (
        metrics.get("colouring.enumerate_s", 0.0) + metrics.get("orientation.enumerate_s", 0.0)
    ) / calls
    _overhead(metrics, len(ops) / untraced, len(ops) / calls)
    return metrics, counts, tally, passes


def _cli_replay(tracer: Tracer, op_id: int, op: CliOp) -> None:
    """The public calls ``cli.main`` makes for this argv, each in its own
    span, so their sum can stand beside the measured call."""
    span = tracer.span
    with span("replay", op_id):
        with span("cli.build_parser"):
            build_parser()
        with open(op.graph.path, encoding="utf-8") as handle:
            text = handle.read()
        if op.graph.labels is None:
            with span("graph.parse_graph6"):
                g = parse_graph6(text.splitlines()[0])
        else:
            with span("graph.parse_edge_list"):
                g = parse_edge_list(text)
        try:
            if op.sub == "classes":
                with span("classes.compute"):
                    p = compute_classes(g)
                tracer.count("classes.k_total", p.k)
                tracer.count("_edges", g.m)
                with span("graph.p3_scan"):
                    tracer.count("graph.p3_count", sum(1 for _ in induced_p3s(g)))
            elif op.sub == "classify":
                with span("colouring.classify"):
                    classify_colourability(g)
            elif op.sub == "witness":
                with span("colouring.witness"):
                    find_homogeneous_witness(g)
            elif op.sub == "colour":
                with span("colouring.count"):
                    count_colourings(g)
                with span("colouring.enumerate"):
                    tracer.count("colouring.emitted", sum(1 for _ in enumerate_colourings(g, cap=op.cap)))
            else:
                with span("orientation.orientability"):
                    orientability(g)
                with span("orientation.enumerate"):
                    tracer.count("orientation.emitted", sum(1 for _ in enumerate_orientations(g, cap=op.cap)))
        except RefusalError:
            pass
        if op.out == "json":
            with span("graph.encode_graph6"):
                encode_graph6(g)


# ---------------------------------------------------------------------------
# per-layer metric assembly


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(passes: list[Tracer]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and the counts they pin.

    Span times are the mean over passes.  Counts must be identical in every
    pass; a difference is recorded in the returned counts and fails the
    run.  Counters whose names start with ``_`` only feed ratios.
    """
    per_pass = [tracer.totals() for tracer in passes]
    metrics: dict[str, float] = {}
    for name in set().union(*(total for total, _ in per_pass)) - {"op", "replay"}:
        metrics[f"{name}_s"] = _mean(total.get(name, 0.0) for total, _ in per_pass)
    for layer in set().union(*(own for _, own in per_pass)) - {"op", "replay", "cli"}:
        metrics[f"{layer}.self_s"] = _mean(own.get(layer, 0.0) for _, own in per_pass)
    counts = dict(passes[0].counters)
    if any(dict(tracer.counters) != counts for tracer in passes[1:]):
        counts["mismatch_between_passes"] = 1
    metrics.update((k, v) for k, v in counts.items() if not k.startswith("_") and k != "mismatch_between_passes")
    if counts.get("graph.p3_count"):
        metrics["classes.merge_ratio"] = (counts["_edges"] - counts["classes.k_total"]) / counts["graph.p3_count"]
    if counts.get("oracle.masks_tried"):
        metrics["oracle.brute_useful_ratio"] = counts["_maps_valid"] / counts["oracle.masks_tried"]
    return metrics, counts


def _overhead(metrics: dict, untraced_tput: float, traced_tput: float) -> None:
    metrics["trace.untraced_throughput_per_s"] = untraced_tput
    metrics["trace.traced_throughput_per_s"] = traced_tput
    metrics["trace.overhead"] = 1 - traced_tput / untraced_tput


# ---------------------------------------------------------------------------


UNTRACED = {
    "kernel-large": kernel_untraced,
    "sweep-pool": sweep_untraced,
    "cli-mixed": cli_untraced,
}
TRACED = {
    "kernel-large": kernel_traced,
    "sweep-pool": sweep_traced,
    "cli-mixed": cli_traced,
}


def _compare_counts(workload: str, seed: int, counts: dict, src_digest: str) -> list[str]:
    """Counts of a traced run must equal those of any earlier traced run of
    the same code, workload and seed; the first run records them."""
    path = STATE_DIR / f"counts-{workload}-seed{seed}-{src_digest[:16]}.json"
    problems = []
    if counts.get("mismatch_between_passes"):
        problems.append("counts differ between the two traced passes")
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            problems.append(f"counts differ from the earlier traced run in {path.name}")
    else:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNTRACED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src-digest", default="unknown")
    args = parser.parse_args()
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    if args.trace:
        metrics, counts, tally, passes = TRACED[args.workload](args.seed)
        problems = _compare_counts(args.workload, args.seed, counts, args.src_digest)
        stem = f"trace-{args.workload}-seed{args.seed}"
        for i, tracer in enumerate(passes):
            meta = {"workload": args.workload, "seed": args.seed, "pass": i, "counts": counts}
            tracer.dump(STATE_DIR / f"{stem}-pass{i}.json", meta)
        print(f"spans and counters written to {STATE_DIR.relative_to(ROOT)}/{stem}-pass*.json", file=sys.stderr)
    else:
        metrics, tally = UNTRACED[args.workload](args.seed, args.seconds)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "refusals": tally.refusals,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
