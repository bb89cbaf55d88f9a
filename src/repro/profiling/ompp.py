"""OmpP-style parallel-region profiling (paper Table II).

The paper uses the OmpP profiler to attribute time to parallel regions
and quantify load imbalance.  :class:`ParallelProfile` performs the
same analysis over the ``cat == "kernel"`` spans a
:class:`~repro.observe.tracer.Tracer` collects from a traced solver (one
span per region per thread per step, the thread taken from
:attr:`~repro.observe.tracer.Span.tid`) plus the instrumented barriers:

* per-region total/mean/max thread time,
* whole-program load imbalance ``(max - mean) / max`` over per-thread
  busy time — the metric of Table II's last column,
* barrier wait shares.

Per-thread *work* is a property of the partition, not of a run; see
:func:`repro.experiments.table2.structural_imbalance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.observe.tracer import Span
from repro.parallel.barrier import InstrumentedBarrier

__all__ = ["RegionStats", "ParallelProfile"]


@dataclass(frozen=True)
class RegionStats:
    """Aggregate statistics of one parallel region (kernel)."""

    name: str
    total_seconds: float
    mean_thread_seconds: float
    max_thread_seconds: float

    @property
    def imbalance(self) -> float:
        """``(max - mean) / max`` of per-thread time in this region."""
        if self.max_thread_seconds <= 0:
            return 0.0
        return (
            self.max_thread_seconds - self.mean_thread_seconds
        ) / self.max_thread_seconds


class ParallelProfile:
    """OmpP-like analysis of a parallel solver run.

    Parameters
    ----------
    spans:
        Tracer spans; only ``cat == "kernel"`` spans are analysed.  The
        team is threads ``0 .. max(tid)``: every thread of a parallel
        solver records a span in every region.
    barriers:
        The solver's instrumented barriers, by name.
    """

    def __init__(
        self,
        spans: Iterable[Span],
        barriers: dict[str, InstrumentedBarrier] | None = None,
    ) -> None:
        self.spans = [s for s in spans if s.cat == "kernel"]
        self.barriers = barriers or {}
        self.num_threads = max((s.tid for s in self.spans), default=0) + 1

    def region_stats(self) -> list[RegionStats]:
        """Per-kernel statistics, ordered by total time descending."""
        per_region: dict[str, np.ndarray] = {}
        for s in self.spans:
            arr = per_region.setdefault(s.name, np.zeros(self.num_threads))
            arr[s.tid] += s.duration
        stats = [
            RegionStats(
                name=k,
                total_seconds=float(v.sum()),
                mean_thread_seconds=float(v.mean()),
                max_thread_seconds=float(v.max()),
            )
            for k, v in per_region.items()
        ]
        stats.sort(key=lambda s: s.total_seconds, reverse=True)
        return stats

    def whole_program_imbalance(self) -> float:
        """Load imbalance ``(max - mean) / max`` of per-thread busy time,
        relative to the whole program (Table II)."""
        busy = np.zeros(self.num_threads)
        for s in self.spans:
            busy[s.tid] += s.duration
        peak = busy.max()
        if peak <= 0:
            return 0.0
        return float((peak - busy.mean()) / peak)

    def barrier_wait_seconds(self) -> float:
        """Total time threads spent waiting at the instrumented barriers."""
        return sum(b.stats.total_wait_seconds for b in self.barriers.values())

    def as_table(self) -> str:
        """Render the per-region profile as fixed-width text."""
        lines = [
            f"{'Region':42s} {'Total(s)':>9} {'Mean(s)':>9} {'Max(s)':>9} {'Imb':>6}",
            "-" * 80,
        ]
        for st in self.region_stats():
            lines.append(
                f"{st.name:42s} {st.total_seconds:>9.4f} "
                f"{st.mean_thread_seconds:>9.4f} {st.max_thread_seconds:>9.4f} "
                f"{100 * st.imbalance:>5.1f}%"
            )
        lines.append("-" * 80)
        lines.append(
            f"whole-program load imbalance: "
            f"{100 * self.whole_program_imbalance():.1f}% (by time)"
        )
        return "\n".join(lines)
