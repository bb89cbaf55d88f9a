"""In-memory span recording around the library's public layer boundaries.

The benchmark measures each layer from outside: it times calls into
public functions and merges the per-kernel spans the library's own
``telemetry=`` hook records.  Nothing here edits the library; the
wrappers are installed on module and class attributes for the length of
one traced phase and restored afterwards.

A span has a name, a start, an end, the id of the span that caused it
(its parent on the same thread) and, where one applies, a job id.  A
layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import itertools
import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass

__all__ = [
    "KERNEL_LAYERS",
    "Span",
    "SpanRecorder",
    "adopt_kernel_spans",
    "layer_of",
    "self_times",
    "span_or_null",
    "traced_layers",
]

#: Library kernel span name -> benchmark layer.  Every kernel name the
#: single-core solver variants record without a slot guard appears here,
#: so a step's kernel spans are attributed completely (the waterfall
#: self-test relies on it).
KERNEL_LAYERS = {
    # lattice stage: two-lattice, fused, AA-pattern and batched variants
    "compute_fluid_collision": "core.lbm.collide_stream",
    "stream_fluid_velocity_distribution": "core.lbm.collide_stream",
    "copy_fluid_velocity_distribution": "core.lbm.collide_stream",
    "fused_collide_stream": "core.lbm.collide_stream",
    "aa_even_collide_swap": "core.lbm.collide_stream",
    "aa_odd_collide_stream": "core.lbm.collide_stream",
    "batched_collide_stream": "core.lbm.collide_stream",
    "swap_distributions": "core.lbm.collide_stream",
    # kernel 7
    "update_fluid_velocity": "core.lbm.update_fluid_velocity",
    # kernels 1-3 (the batched solver records them as one span)
    "compute_bending_force_in_fibers": "core.ib.fiber_forces",
    "compute_stretching_force_in_fibers": "core.ib.fiber_forces",
    "compute_elastic_force_in_fibers": "core.ib.fiber_forces",
    "compute_fiber_forces": "core.ib.fiber_forces",
    # kernel 4 and kernel 8
    "spread_force_from_fibers_to_fluid": "core.ib.spread",
    "move_fibers": "core.ib.move_fibers",
}

_JOURNAL_METHODS = (
    "job_accepted",
    "job_dispatched",
    "job_terminal",
    "job_cancelled",
    "service_resumed",
)

_CKPT_JOB = re.compile(r"ckpt-(.+)-(?:init|\d{8})(?:\.npz)?$")


def layer_of(name: str) -> str:
    """The benchmark layer a span name belongs to."""
    if name in KERNEL_LAYERS:
        return KERNEL_LAYERS[name]
    if name.startswith("service.journal."):
        return "service.journal"
    return name


@dataclass(frozen=True, slots=True)
class Span:
    """One finished interval: ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Handle:
    __slots__ = ("id", "job")

    def __init__(self, span_id: int, job: str | None) -> None:
        self.id = span_id
        self.job = job


class SpanRecorder:
    """Thread-safe in-memory span store; a span's parent is the innermost
    span open in the same thread or asyncio task."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Size of every checkpoint file written while instrumented.
        self.checkpoint_bytes: list[int] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Open span ids, per thread and per asyncio task: each task runs
        # in its own copy of the context, so concurrent clients on one
        # event loop do not become each other's parents.
        self._open = contextvars.ContextVar(f"open_spans_{id(self)}", default=())

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        """Time the block as a span; set ``handle.job`` inside to tag it."""
        handle = _Handle(next(self._ids), job)
        stack = self._open.get()
        parent = stack[-1] if stack else None
        token = self._open.set(stack + (handle.id,))
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            self._open.reset(token)
            self.add(Span(handle.id, name, start, end, parent, handle.job, threading.get_ident()))

    def add(self, span: Span) -> None:
        """Append one finished span (thread-safe)."""
        with self._lock:
            self.spans.append(span)

    def new_id(self) -> int:
        return next(self._ids)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in sorted(self.spans, key=lambda s: s.start)], fh)

    # ------------------------------------------------------------------
    # wrappers around public layer boundaries
    # ------------------------------------------------------------------
    def _wrap(self, fn, name, job_of=None):
        recorder = self

        def wrapped(*args, **kwargs):
            job = job_of(*args, **kwargs) if job_of is not None else None
            with recorder.span(name, job=job):
                return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_save(self, fn):
        recorder = self

        def wrapped(path, *args, **kwargs):
            final = os.fspath(path)
            match = _CKPT_JOB.search(os.path.basename(final))
            with recorder.span("io.checkpoint.save", job=match.group(1) if match else None):
                fn(path, *args, **kwargs)
            if not final.endswith(".npz"):
                final += ".npz"  # save_checkpoint's naming contract
            recorder.checkpoint_bytes.append(os.path.getsize(final))

        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def instrument_io_and_service(self):
        """Span ``save_checkpoint``, ``os.fsync``, ``ServiceJournal`` appends
        and ``BatchScheduler.run`` until the block exits."""
        from repro.batch import scheduler as scheduler_mod
        from repro.io import checkpoint as checkpoint_mod
        from repro.service.journal import ServiceJournal

        def journal_job(_journal, job_id=None, *args, **kwargs):
            return job_id if isinstance(job_id, str) else None

        patches = [
            (os, "fsync", self._wrap(os.fsync, "io.fsync")),
            (checkpoint_mod, "save_checkpoint", self._wrap_save(checkpoint_mod.save_checkpoint)),
            # the scheduler holds its own reference to the function
            (scheduler_mod, "save_checkpoint", self._wrap_save(scheduler_mod.save_checkpoint)),
            (
                scheduler_mod.BatchScheduler,
                "run",
                self._wrap(scheduler_mod.BatchScheduler.run, "batch.run"),
            ),
        ]
        for method in _JOURNAL_METHODS:
            patches.append(
                (
                    ServiceJournal,
                    method,
                    self._wrap(
                        getattr(ServiceJournal, method),
                        f"service.journal.{method}",
                        journal_job,
                    ),
                )
            )
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def span_or_null(recorder: SpanRecorder | None, name: str, job: str | None = None):
    """``recorder.span(...)``, or a no-op block when tracing is off."""
    if recorder is None:
        return contextlib.nullcontext(_Handle(0, job))
    return recorder.span(name, job=job)


def adopt_kernel_spans(recorder: SpanRecorder, tracer_spans, parent_name: str) -> None:
    """Merge the library tracer's kernel spans under ``parent_name`` spans.

    The library records kernel spans with a logical thread id, so each is
    adopted by the benchmark span named ``parent_name`` whose interval
    contains it (those never overlap: one step, or one scheduler run, at a
    time) and inherits that span's thread.
    """
    parents = sorted(recorder.named(parent_name), key=lambda s: s.start)
    starts = [p.start for p in parents]
    for ks in tracer_spans:
        if ks.cat != "kernel":
            continue
        i = bisect.bisect_right(starts, ks.start) - 1
        if i < 0 or ks.end > parents[i].end:
            continue
        parent = parents[i]
        recorder.add(
            Span(recorder.new_id(), ks.name, ks.start, ks.end, parent.id, parent.job, parent.thread)
        )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def traced_layers(spans, roots: str) -> dict[str, float]:
    """Total self seconds per layer over the subtrees of ``roots`` spans."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    inside: dict[int, bool] = {}

    def under_root(s: Span) -> bool:
        if s.id in inside:
            return inside[s.id]
        found = s.name == roots or (
            s.parent is not None and s.parent in by_id and under_root(by_id[s.parent])
        )
        inside[s.id] = found
        return found

    totals: dict[str, float] = {}
    for s in spans:
        if under_root(s):
            layer = layer_of(s.name)
            totals[layer] = totals.get(layer, 0.0) + selfs[s.id]
    return totals
