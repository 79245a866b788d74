"""Spans and counters recorded at the benchmark's own call sites.

A ``Tracer`` keeps every span in memory: name, start, end, parent span and
graph id, plus the counters recorded at that span's boundary.  Nothing is
written until the caller dumps ``spans`` at the end of the run.  A disabled
tracer records no spans.

Traced or not, every call is timed, and a calibration loop runs just before
it (outside the timed part); ``calls`` keeps (graph id, seconds,
calibration seconds) for each program call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, on: bool, calibrate: Callable[[], float]):
        self.on = on
        self.calibrate = calibrate
        self.calls: List[Tuple[Optional[str], float, float]] = []
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self.graph: Optional[str] = None
        self._open: List[int] = []
        self._last: Optional[dict] = None
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "graph": self.graph, "start": perf_counter() - self._t0,
               "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter() - self._t0
            self._open.pop()
            self._last = rec

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name`` ("layer.op")."""
        cal = self.calibrate()
        t0 = perf_counter()
        try:
            if not self.on:
                return fn(*args)
            with self.span(name):
                return fn(*args)
        finally:
            self.calls.append((self.graph, perf_counter() - t0, cal))

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to counter ``key`` on the span that just closed."""
        if self.on:
            self._last["counts"][key] = self._last["counts"].get(key, 0) + value
            self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest ``value`` seen for counter ``key``."""
        if self.on:
            self._last["counts"][key] = max(self._last["counts"].get(key, 0), value)
            self.counts[key] = max(self.counts.get(key, 0), value)

    def time_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_time_by_layer(self) -> Dict[str, float]:
        """Per layer (the part of a span name before the dot): span time
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + s["end"] - s["start"] - c
        return out
