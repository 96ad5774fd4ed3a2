"""In-memory spans around the toolkit's public functions, and their self times.

`Tracer.install` replaces each named function by a wrapper at module level
(in its home module and in every toolkit module that imported it by name),
so calls between toolkit functions are traced too.  A span records its
name, start, end and parent; spans are kept in a list and only written out
when the benchmark ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span's counts dict."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s.counts
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording a span per call; `count(result, *args, **kw)`
        returns extra per-call counters, computed after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # only calls made inside a traced op are recorded
                return fn(*args, **kwargs)
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(result, *args, **kwargs))
            return result

        return traced

    @contextmanager
    def install(self, targets, modules):
        """Patch every (module, attr, span name, count) target while active."""
        patched = []
        for home, attr, name, count in targets:
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def totals(spans: list[Span]) -> dict:
    """Per span name: calls, total duration, total self time, summed counts."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
        for key, val in s.counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out
