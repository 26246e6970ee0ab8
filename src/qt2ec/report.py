"""Structured pass/fail records shared by the verifier-style operations."""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator


class CheckResult(
    namedtuple(
        "CheckResult",
        "check passed graph_key witness detail seconds",
        defaults=("", None, None, None),
    )
):
    """One verdict for one named check on one graph.

    Failing records always carry a reproducible witness.  ``graph_key`` is
    the graph6 encoding of the graph under test; ``sweep_records`` sets
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
    list); ``theorem_sweep`` is the one place that builds one, from the
    stream of ``sweep_records``."""

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

    def to_json_lines(self) -> str:
        return "\n".join(json_lines(self.meta, self.results)) + "\n"


def json_lines(meta: dict, records: Iterable[CheckResult]) -> Iterator[str]:
    """The header line of ``meta``, then each record's line, each made as
    it is asked for, so the records may be a stream."""
    yield json.dumps({"schema": "qt2ec-report/1", **meta}, sort_keys=True)
    for r in records:
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
