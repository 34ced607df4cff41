"""In-memory spans around calls into e6grad, and their self-time arithmetic.

A ``Tracer`` replaces chosen public functions of the e6grad modules with
wrappers that record one span per call: (name, start, end, parent), where
parent is the index of the enclosing span or None.  The replacement is made
from the benchmark's side, in every e6grad module namespace that holds the
function (``from .linalg import rref`` copies the reference), and undone when
the ``installed`` block ends, so no source file changes.  Counters record work
sizes at the same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A wrapper of ``fn`` recording a span ``name`` and, after the call,
        ``count(counts, args, kwargs, result)``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Trace ``targets``, a list of (span name, "module:attr", count) where
        attr is a function name or "Class.method"; restore on exit."""
        undo = []
        try:
            for name, where, count in targets:
                modname, attr = where.split(":")
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                orig = getattr(owner, attr)
                wrapper = self.wrap(name, orig, count)
                holders = [owner] if isinstance(owner, type) else [
                    m for key, m in list(sys.modules.items())
                    if m is not None and key.split(".")[0] == "e6grad"]
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def to_json(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans, "counts": dict(self.counts)}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [(max(spans[c][1], start), min(spans[c][2], end))
                   for c in children.get(i, ())]
        out.append((end - start) - union_length(
            [(s, e) for s, e in clipped if e > s]))
    return out


def coverage(spans, start: float, end: float) -> float:
    """Share of the interval [start, end] covered by top-level spans."""
    top = [(max(s, start), min(e, end))
           for _, s, e, parent in spans if parent is None]
    covered = union_length([(s, e) for s, e in top if e > s])
    return covered / (end - start) if end > start else 0.0


def cost_per_span(calls: int = 20000) -> float:
    """Seconds a traced call adds to a direct one, measured on a no-op."""
    def noop():
        return None

    traced = Tracer("calibration").wrap("noop", noop)
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t - direct) / calls)
