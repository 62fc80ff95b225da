"""In-memory span recorder for the traced benchmark pass.

A span is (name, start, end, parent, request). Spans are kept in a list and
written as JSON when the run ends; a layer's self time is its span duration
minus the part covered by its direct children. With ``enabled=False`` every
call is a no-op, which is how end-to-end metrics are measured.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool, phase: str = ""):
        self.enabled = enabled
        self.phase = phase
        self.request: int | None = None
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append({"name": name, "phase": self.phase, "request": self.request,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].update(start=start, end=end)

    def count(self, name: str, value: float) -> None:
        """A counter recorded at the same boundary as the enclosing span."""
        if self.enabled:
            self.counts.append({"name": name, "phase": self.phase,
                                "request": self.request, "value": value})

    def merge(self, spans: list[dict], counts: list[dict], phase: str) -> None:
        """Append spans recorded by a child process, re-tagged with ``phase``."""
        if not self.enabled:
            return
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(dict(s, phase=phase, parent=parent))
        self.counts.extend(dict(c, phase=phase) for c in counts)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def counter_total(counts: list[dict], name: str, phase: str) -> float:
    return sum(c["value"] for c in counts if c["name"] == name and c["phase"] == phase)


def min_request_coverage(spans: list[dict], root: str, phase: str) -> float:
    """Smallest share of a request span's wall time covered by its child spans
    (the library calls), over every request span of ``phase``; 1.0 if none."""
    covered: dict[int, float] = {}
    for s in spans:
        p = s["parent"]
        if p is not None and spans[p]["name"] == root:
            covered[p] = covered.get(p, 0.0) + s["end"] - s["start"]
    shares = [covered.get(i, 0.0) / (s["end"] - s["start"])
              for i, s in enumerate(spans)
              if s["name"] == root and s["phase"] == phase]
    return min(shares) if shares else 1.0
