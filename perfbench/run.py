"""Entry point of the qt2ec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The metric names, units and
workloads come from BENCHMARK.json.  For each workload it:

* measures ``setup_s`` (with ``--trace 0``): the median over several
  fresh interpreters of the time to import ``qt2ec`` and ``qt2ec.cli``;
* runs ``workloads.py`` in a fresh interpreter with a clean environment:
  ``PYTHONPATH=src``, ``PYTHONHASHSEED=0``, and no ``QT2EC_THREADS``
  (a stray value would change the CLI's default, and a bad one crashes it);
* prints provenance and every metric with its unit, then, as the last line,
  one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--workload all`` the metric names in that last line carry a
``<workload>.`` prefix.  Exits 2, printing no result, when the program
or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_IMPORTS = 15
RUN_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import qt2ec, qt2ec.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import statistics, calibrate; "
    "print(t, statistics.median(calibrate.calibration_run() for _ in range(5)))"
)


def clean_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QT2EC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qt2ec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"
    (the source digest still identifies the code)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(env: dict[str, str], deadline: float) -> float:
    """Median import time over fresh interpreters, each scaled by the
    calibration job run in the same interpreter just after the import.
    One untimed import first writes the bytecode cache, as an installed
    package would have it."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - monotonic()),
        )
        if i:
            seconds, calibration = map(float, out.stdout.split())
            times.append(seconds * calibrate.NOMINAL_S / calibration)
    return statistics.median(times)


def run_workload(workload: str, args, env, digest: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src-digest", digest,
    ]
    out = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    started = monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qt2ec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no qt2ec sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="qt2ec benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    env = clean_env()
    digest = src_digest()
    workloads = names if args.workload == "all" else [args.workload]
    deadline = started + RUN_TIMEOUT_S * len(workloads)
    print("# provenance " + json.dumps({
        "commit": commit(),
        "src_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
    }, sort_keys=True))

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        measured = {}
        if not args.trace:
            measured["setup_s"] = measure_setup(env, deadline)
        result = run_workload(workload, args, env, digest, deadline)
        measured.update(result["metrics"])
        samples = measured.pop("samples", None)
        raw = measured.pop("raw_throughput_per_s", None)
        missing = sorted(set(units) - set(measured))
        if missing and not args.trace:
            print(f"error: {workload} lacks {missing}", file=sys.stderr)
            return 1
        for name in sorted(set(measured) - set(units)):
            print(f"{workload:13s} {name:44s} {measured[name]:14.6g} (not in BENCHMARK.json)")
        # A layer this workload never calls reads 0.
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            value = measured.get(name, 0)
            final["metrics"][prefix + name] = {"value": value, "unit": unit}
            print(f"{workload:13s} {name:44s} {value:14.6g} {unit}")
        failed_ratio = result["failed"] / result["attempted"]
        print(
            f"{workload:13s} attempted={result['attempted']} failed={result['failed']} "
            f"failed_ratio={failed_ratio:.6g} expected_refusals={result['refusals']} "
            f"latency_samples={samples} raw_throughput_per_s={raw} correct={result['correct']}"
        )
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
