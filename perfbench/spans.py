"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name ``<layer>.<function>``, a case, start and end times, the
span that was open when it started, and the run id.  Counts (tuples,
counterexamples, columns) are attached to the span's record.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: dict):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        stack = self.tracer.stack
        self.rec["parent"] = stack[-1] if stack else None
        stack.append(self.rec["id"])
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.records.append(self.rec)
        return False


class _NoSpan:
    """What an untraced run gets: enter and exit do nothing."""

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[dict] = []
        self.stack: list[int] = []
        self._next = 0

    def span(self, name: str, case: str):
        if not self.enabled:
            return _NO_SPAN
        self._next += 1
        return _Span(self, {"id": self._next, "run": self.run_id, "name": name, "case": case})

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.records, key=lambda r: r["id"]), fh, indent=1)


def self_times(records: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the part of its interval
    that its child spans cover."""
    children: dict[int, list[dict]] = {}
    for rec in records:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
    out: dict[str, float] = {}
    for rec in records:
        covered = 0.0
        edge = rec["start"]
        for child in sorted(children.get(rec["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], edge), min(child["end"], rec["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        layer = rec["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (rec["end"] - rec["start"]) - covered
    return out
