"""In-memory spans around the benchmark's calls into the library's layers.

A span records its name, start, end, parent span and run id, plus exact counts
attached by the caller.  Spans stay in memory until the run ends; then they
can be written out as JSON lines.  When tracing is off, `span` records nothing
but still counts the operation, so traced and untraced jobs do the same work.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.ops = 0
        self._stack: list[int] = []

    def span(self, name: str, **counts):
        """Time one library call, counted as one operation; the yielded dict
        takes counts known only after the call."""
        self.ops += 1
        return self._record(name, counts)

    def root(self, name: str):
        """Span around a whole job; the job's calls become its children."""
        return self._record(name, {})

    @contextmanager
    def _record(self, name: str, counts: dict):
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _matches(name: str, prefixes: tuple) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


class LayerTotals:
    """Summed self time, calls and counts of the spans of one traced job."""

    def __init__(self, spans: list[dict]):
        self._rows = list(zip(spans, self_times(spans)))

    def seconds(self, *prefixes: str) -> float:
        return sum(t for s, t in self._rows if _matches(s["name"], prefixes))

    def calls(self, *prefixes: str) -> int:
        return sum(1 for s, _ in self._rows if _matches(s["name"], prefixes))

    def count(self, key: str, *prefixes: str) -> float:
        return sum(s["counts"].get(key, 0) for s, _ in self._rows
                   if _matches(s["name"], prefixes))

    def rate(self, key: str, scale: float, *prefixes: str) -> float:
        """Summed count per second of self time, divided by scale (0 if unused)."""
        t = self.seconds(*prefixes)
        return self.count(key, *prefixes) / scale / t if t > 0 else 0.0


def write_spans(path, spans: list[dict]):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
