"""In-memory spans and counters for the traced run.

A span records (name, start, end, parent span, op id).  The name's first
dotted component is its layer (``classes.compute`` -> ``classes``).  A
span's self time is its duration minus the time its child spans cover.
Everything stays in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, perf_counter(), None, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total duration per span name, self time per layer)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            total[name] += end - start
            layer_self[name.split(".", 1)[0]] += end - start - child_time[i]
        return dict(total), dict(layer_self)

    def dump(self, path, meta: dict) -> None:
        payload = {
            "meta": meta,
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
