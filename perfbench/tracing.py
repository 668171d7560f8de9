"""The benchmark's own span recorder.

Spans are recorded around calls into the library's public functions,
from the benchmark's side of the boundary, so the library itself stays
uninstrumented. Each span keeps its name, start, end and parent; all
spans stay in memory until the run ends, when :meth:`Tracer.layer_table`
folds them into per-layer self times (a span's duration minus the part
covered by its child spans).

A disabled tracer hands out one shared no-op context and wraps nothing,
so the untraced run pays nothing for it.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass(slots=True)
class Span:
    """One recorded call: ``parent`` is the enclosing span's id, or -1."""

    id: int
    name: str
    parent: int
    start: float
    end: float = 0.0


class Tracer:
    """Records spans per thread; a parent is the innermost open span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (a no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        stack = self._stack()
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id, name, stack[-1].id if stack else -1, time.perf_counter()
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (kept in both modes; counters are cheap)."""
        self.counts[name] += amount

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a spanned version (when enabled).

        The wrapper is set on the instance, so the library's own internal
        ``self.attr(...)`` calls are recorded too.
        """
        if not self.enabled:
            return
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self._record(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, spanned)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}`` over all spans."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span.id, 0.0)
        return table

    def overhead_s(self, samples: int = 20000) -> float:
        """Estimated cost of the spans recorded so far.

        Times ``samples`` calls of a no-op method through :meth:`wrap` and
        bare, in this process, and scales the difference per call by the
        number of spans the run recorded. A wrapped call is the dearest
        span the benchmark records, so this is an upper estimate.
        """
        if not self.enabled or not self.spans:
            return 0.0

        class Target:
            def call(self):
                return None

        bare, wrapped = Target(), Target()
        Tracer(True).wrap(wrapped, "call", "trace.calibrate")
        per_call = []
        for target in (bare, wrapped):
            call = target.call
            started = time.perf_counter()
            for _ in range(samples):
                call()
            per_call.append((time.perf_counter() - started) / samples)
        return max(0.0, per_call[1] - per_call[0]) * len(self.spans)
