"""Span tracer that measures sigsurv's layers from outside the library.

sigsurv modules bind collaborators with ``from .x import y``, so a call
from ``map_em`` to ``forward_batch`` resolves through
``sigsurv.map_em.forward_batch``, not ``sigsurv.net.forward_batch``.
The tracer therefore replaces a function in every namespace that calls
it (and methods on their classes), records one span per call with its
parent span, and restores every original on ``restore()``. Wrappers
only time and forward their arguments, so traced results are
bit-identical to untraced ones.

Spans stay in memory as ``[id, parent, name, start, end]`` lists and
are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owners, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper for every owner.

        ``on_result(tracer, args, kwargs, result)`` runs after the span
        closes; its cost lands in the parent span's self time, so hooks
        stay cheap.
        """
        for owner in owners:
            original = getattr(owner, attr)
            setattr(owner, attr, self._traced(original, name, on_result))
            self._patches.append((owner, attr, original))

    def _traced(self, fn, name, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total
        minus the time covered by direct child spans)."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
        return out
