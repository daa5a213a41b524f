"""In-memory span recording for the traced benchmark run.

Spans are recorded only by the benchmark's own code, around its calls
into the public functions of each ``repro`` module.  Each span keeps
its name, layer, start, end, parent span and op id; they stay in memory
and are written out as one Chrome-trace/Perfetto JSON file when the run
ends.  The untraced run never creates a recorder, so its timings carry
no tracing cost.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional

#: The span the current code runs inside (per asyncio task / thread).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Layer name of the op spans that wrap one benchmark operation.
OP_LAYER = "bench"

#: Every layer a span can belong to, in pipeline order.
LAYERS = (
    "bench", "workloads", "bvh", "trace", "gpu", "gpu.vector",
    "runtime", "service", "simlint",
)


class SpanRecorder:
    """Collects spans of one traced pass (or of set-up)."""

    def __init__(self, label: str = "") -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}-{label}-"

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[str] = None):
        """Record one span; nested spans get it as their parent."""
        parent = _CURRENT.get()
        span_id = f"{self._prefix}{next(self._ids)}"
        if op is None and parent is not None:
            op = parent["op"]
        record = {
            "id": span_id, "name": name, "layer": layer, "op": op,
            "parent": parent["id"] if parent is not None else None,
            "pid": os.getpid(), "start": time.perf_counter(), "end": None,
        }
        token = _CURRENT.set(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def op(self, name: str):
        """An op span: one operation of the workload's fixed list."""
        return self.span(name, OP_LAYER, op=name)

    def extend(self, spans: Iterable[Dict]) -> None:
        """Adopt spans recorded elsewhere (a child process)."""
        self.spans.extend(spans)


def maybe_span(rec: Optional[SpanRecorder], name: str, layer: str):
    """``rec.span(...)``, or nothing when the pass is untraced."""
    return rec.span(name, layer) if rec is not None else nullcontext()


def maybe_op(rec: Optional[SpanRecorder], name: str):
    """``rec.op(...)``, or nothing when the pass is untraced."""
    return rec.op(name) if rec is not None else nullcontext()


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _children(spans: List[Dict]) -> Dict[str, List[Dict]]:
    kids: Dict[str, List[Dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)
    return kids


def _covered(span: Dict, kids: Dict[str, List[Dict]]) -> float:
    """Seconds of ``span`` that its direct children cover."""
    lo, hi = span["start"], span["end"]
    return _union_length([
        (max(lo, k["start"]), min(hi, k["end"]))
        for k in kids.get(span["id"], [])
        if k["end"] > lo and k["start"] < hi
    ])


def layer_times(spans: List[Dict]) -> Dict[str, float]:
    """Summed duration of spans by name, in seconds."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + span["end"] - span["start"]
        )
    return totals


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Self time per layer: duration minus what child spans cover."""
    kids = _children(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own = span["end"] - span["start"] - _covered(span, kids)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals


def op_seconds(spans: List[Dict]) -> float:
    """Summed duration of the op spans."""
    return sum(
        s["end"] - s["start"] for s in spans if s["layer"] == OP_LAYER
    )


def coverage(spans: List[Dict]) -> float:
    """Share of op wall time that layer spans cover (time-weighted)."""
    kids = _children(spans)
    ops = [s for s in spans if s["layer"] == OP_LAYER]
    total = sum(s["end"] - s["start"] for s in ops)
    if total <= 0:
        return 0.0
    return sum(_covered(s, kids) for s in ops) / total


def write_chrome_trace(path, spans: List[Dict], origin: float) -> None:
    """Write spans as Chrome-trace/Perfetto ``X`` events (microseconds)."""
    events = [
        {
            "name": s["name"], "cat": s["layer"], "ph": "X",
            "ts": round((s["start"] - origin) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "pid": s["pid"], "tid": 0,
            "args": {"id": s["id"], "parent": s["parent"], "op": s["op"]},
        }
        for s in sorted(spans, key=lambda s: s["start"])
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
