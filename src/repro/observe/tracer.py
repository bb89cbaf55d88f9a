"""Span-based tracer: per-kernel / per-cube / per-thread timelines.

The paper's entire performance story is told through instrumentation —
gprof kernel percentages (Table I) and OmpP per-region wait metrics
(Table II) — and this module is the library's unified substitute.  A
:class:`Tracer` collects :class:`Span` records (a named interval on one
thread, optionally tagged with the time step and the cube it touched)
from any solver variant and exports them three ways:

* ``chrome://tracing`` JSON (:meth:`Tracer.to_chrome_trace` /
  :meth:`Tracer.save_chrome_trace`) — the per-thread timeline view that
  makes barrier wait and load imbalance visible at a glance;
* a gprof-style :class:`~repro.profiling.gprof.FlatProfile`
  (:meth:`Tracer.flat_profile`) — the Table I analysis;
* an OmpP-style :class:`~repro.profiling.ompp.ParallelProfile` over
  the kernel spans (:meth:`Tracer.parallel_profile`) — the Table II
  analysis.

The tracer is every solver's only timing path.  The disabled path is a
``None`` tracer attribute on the solvers: the hot loops test ``if
tracer is not None`` and skip all bookkeeping, so an untraced run pays
one attribute load and one pointer comparison per instrumentation site
(measured < 5% on the fused whole-step benchmark) and records nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "span_tree_valid"]


@dataclass(frozen=True, slots=True)
class Span:
    """One named interval on one thread.

    Attributes
    ----------
    name:
        Span label — for solver spans, the Algorithm-1 kernel name.
    cat:
        Category for trace-viewer filtering (``"kernel"``, ``"cube"``,
        ``"phase"``, ``"barrier"``...).
    tid:
        Thread (or rank) id the interval ran on.
    step:
        Simulation time step, or ``-1`` when not applicable.
    cube:
        Linear cube index for per-cube spans, or ``-1``.
    start:
        Start time in seconds on the tracer's clock (``perf_counter``).
    duration:
        Interval length in seconds.
    """

    name: str
    cat: str
    tid: int
    step: int
    cube: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Span end time in seconds."""
        return self.start + self.duration


class _SpanHandle:
    """Context manager recording one span on exit (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_step", "_cube", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 step: int, cube: int) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._step = step
        self._cube = cube
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._tracer.record(
            self._name,
            self._tid,
            self._start,
            end - self._start,
            step=self._step,
            cube=self._cube,
            cat=self._cat,
        )


class Tracer:
    """Thread-safe collector of :class:`Span` records.

    Parameters
    ----------
    name:
        Trace label, used as the chrome-trace process name.
    pid:
        Chrome-trace process id; merge several tracers into one file by
        giving each a distinct ``pid`` (see :func:`merge_chrome_traces`).
    """

    def __init__(self, name: str = "lbm-ib", pid: int = 0) -> None:
        self.name = name
        self.pid = pid
        self.epoch = time.perf_counter()
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        tid: int,
        start: float,
        duration: float,
        step: int = -1,
        cube: int = -1,
        cat: str = "kernel",
    ) -> None:
        """Append one finished span (thread-safe).

        ``start`` is a ``time.perf_counter()`` reading taken by the
        caller *before* the work, so recording cost never pollutes the
        measured interval.
        """
        span = Span(name, cat, int(tid), int(step), int(cube),
                    float(start), float(duration))
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, tid: int = 0, step: int = -1, cube: int = -1,
             cat: str = "kernel") -> _SpanHandle:
        """Context manager measuring one block as a span.

        >>> tracer = Tracer()
        >>> with tracer.span("step", cat="phase"):
        ...     with tracer.span("collide"):
        ...         pass
        >>> [s.name for s in tracer.spans]
        ['collide', 'step']
        """
        return _SpanHandle(self, name, cat, tid, step, cube)

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the recorded spans (recording order)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop all recorded spans (the epoch is kept)."""
        with self._lock:
            self._spans.clear()

    # ------------------------------------------------------------------
    # chrome-trace export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The trace as a ``chrome://tracing`` JSON object.

        Complete (``"ph": "X"``) events with microsecond timestamps
        relative to the tracer epoch; ``args`` carries the step and, for
        per-cube spans, the cube id.  Load the file at
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": self.name},
            }
        ]
        for s in self.spans:
            args: dict = {}
            if s.step >= 0:
                args["step"] = s.step
            if s.cube >= 0:
                args["cube"] = s.cube
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "pid": self.pid,
                    "tid": s.tid,
                    "ts": (s.start - self.epoch) * 1e6,
                    "dur": s.duration * 1e6,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path: str | os.PathLike) -> None:
        """Write :meth:`to_chrome_trace` as JSON to ``path``."""
        save_chrome_trace(path, self.to_chrome_trace())

    # ------------------------------------------------------------------
    # gprof / OmpP renderings
    # ------------------------------------------------------------------
    def flat_profile(self, cat: str = "kernel"):
        """Aggregate spans into a gprof-style flat profile (Table I)."""
        from repro.profiling.gprof import FlatProfile

        profile = FlatProfile()
        for s in self.spans:
            if s.cat == cat:
                profile(s.name, s.duration)
        return profile

    def parallel_profile(self, barriers=None):
        """OmpP-style per-region profile over the kernel spans (Table II)."""
        from repro.profiling.ompp import ParallelProfile

        return ParallelProfile(self.spans, barriers)


def save_chrome_trace(path: str | os.PathLike, trace: dict) -> None:
    """Write a chrome-trace object as JSON (parent dirs created)."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")


def merge_chrome_traces(*traces: dict) -> dict:
    """Concatenate several chrome-trace objects into one file.

    Give each source tracer a distinct ``pid`` so the viewer shows them
    as separate processes on a shared timeline.
    """
    events: list[dict] = []
    for trace in traces:
        events.extend(trace["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_tree_valid(spans: list[Span], slack: float = 1e-9) -> bool:
    """Whether each thread's spans form a proper interval forest.

    Two spans on the same thread must either be disjoint or properly
    nested (one entirely inside the other, as a ``span()`` context
    manager stack produces); partial overlap means the trace was
    recorded with mismatched start times and would render as garbage.
    ``slack`` absorbs clock granularity at shared endpoints.
    """
    by_tid: dict[int, list[Span]] = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for tid_spans in by_tid.values():
        ordered = sorted(tid_spans, key=lambda s: (s.start, -s.duration))
        stack: list[Span] = []
        for s in ordered:
            while stack and s.start >= stack[-1].end - slack:
                stack.pop()
            if stack and s.end > stack[-1].end + slack:
                return False  # partial overlap
            stack.append(s)
    return True
