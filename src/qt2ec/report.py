"""Structured pass/fail records shared by the verifier-style operations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple


class CheckResult(NamedTuple):
    """One verdict for one named check on one graph.

    Failing records always carry a reproducible witness.  ``graph_key`` is
    the graph6 encoding of the graph under test; ``theorem_sweep`` sets
    it, and the records of a standalone verifier such as
    ``verify_partition_laws`` leave it empty.  In a theorem sweep a
    check's run time sits in ``seconds`` on the first of its records for
    a graph in ``(check, witness)`` order and is None on the rest, so
    summing ``seconds`` counts each check's time once.  A record is a
    named tuple: immutable, hashable, and cheap to build, since a sweep
    builds one per verdict.  ``tuple(r)`` gives the fields in declaration
    order.
    """

    check: str
    passed: bool
    graph_key: str = ""
    witness: str | None = None
    detail: str | None = None
    seconds: float | None = None


@dataclass
class VerificationReport:
    """A theorem sweep's records plus its run metadata (seed, caps, check
    list); ``theorem_sweep`` is the one place that builds one."""

    results: list[CheckResult] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> dict[str, tuple[int, int]]:
        """Per check name: (pass count, fail count)."""
        counts: dict[str, list[int]] = {}
        for r in self.results:
            bucket = counts.setdefault(r.check, [0, 0])
            bucket[0 if r.passed else 1] += 1
        return {name: (p, f) for name, (p, f) in sorted(counts.items())}

    def to_json_lines(self) -> str:
        lines = [json.dumps({"schema": "qt2ec-report/1", **self.meta}, sort_keys=True)]
        for r in self.results:
            lines.append(
                json.dumps(
                    {
                        "schema": "qt2ec-report/1",
                        "graph6": r.graph_key,
                        "check": r.check,
                        "passed": r.passed,
                        "witness": r.witness,
                        "detail": r.detail,
                        "seconds": r.seconds,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"
