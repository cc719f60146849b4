"""Spans recorded from outside the program.

The benchmark times its own calls into each layer's public functions:
``{name, start, end, parent, request}``, kept in memory and written
once when the run ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int, standalone: bool = False):
        """Time one call.  ``standalone`` flags a layer that the program
        only reaches nested inside another and that the benchmark drove
        by itself on the same inputs; such a span has no parent and is
        left out of coverage."""
        index = len(self.spans)
        record = {"name": name, "request": request, "start": 0.0,
                  "end": 0.0,
                  "parent": None if standalone or not self._open
                  else self._open[-1]}
        if standalone:
            record["standalone"] = True
        self.spans.append(record)
        if not standalone:
            self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if not standalone:
                self._open.pop()

    def add(self, name: str, request: int, start: float, end: float,
            parent: int | None = None) -> int:
        """Record a span whose ends were clocked elsewhere."""
        self.spans.append({"name": name, "request": request,
                           "start": start, "end": end, "parent": parent})
        return len(self.spans) - 1


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Per span name, the self time (seconds) of every non-standalone
    span: duration minus the summed durations of its direct children
    (children of one span never overlap — one caller drives them)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    out: dict[str, list[float]] = {}
    for span, child_time in zip(spans, covered):
        if span.get("standalone"):
            continue
        out.setdefault(span["name"], []).append(
            span["end"] - span["start"] - child_time)
    return out


def durations(spans: list[dict], name: str) -> list[float]:
    return [span["end"] - span["start"] for span in spans
            if span["name"] == name]


def write(spans: list[dict], path) -> None:
    with open(path, "w") as handle:
        json.dump(spans, handle)
