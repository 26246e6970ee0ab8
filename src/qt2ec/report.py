"""Structured pass/fail records shared by the verifier-style operations."""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator


class CheckResult(
    namedtuple(
        "CheckResult",
        "check passed graph_key witness detail seconds",
        defaults=("", None, None, None),
    )
):
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

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "results meta")):
    """A theorem sweep's records plus its run metadata (seed, caps, check
    list); ``theorem_sweep`` is the one place that builds one."""

    __slots__ = ()

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

    def json_lines(self) -> Iterator[str]:
        """The header line, then each record's line, made as it is asked for."""
        yield json.dumps({"schema": "qt2ec-report/1", **self.meta}, sort_keys=True)
        for r in self.results:
            yield json.dumps(
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

    def to_json_lines(self) -> str:
        return "\n".join(self.json_lines()) + "\n"
