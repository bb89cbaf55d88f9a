"""Statistics, allocation and host helpers shared by the workloads."""

from __future__ import annotations

import statistics
import subprocess
import time
import tracemalloc

__all__ = [
    "STEP_BYTES_LAYOUT",
    "Outcome",
    "alloc_peak",
    "bandwidth_note",
    "cpu_clock",
    "process_cpu_clock",
    "host_llc_bytes",
    "median",
    "p90",
]

#: Data layout ``machine.workload.step_bytes`` models for each solver
#: variant (fused and batched collide+stream move cube-layout traffic; the
#: AA pattern also drops the buffer copy).
STEP_BYTES_LAYOUT = {"sequential": "global", "fused": "cube", "batched": "cube", "inplace": "inplace"}


#: Clock of every timed end-to-end metric: CPU seconds of the calling
#: thread.  The benchmark host is a virtual machine with a few cores of a
#: shared machine; the hypervisor deschedules its vCPUs for stretches
#: whose length changes from minute to minute, and wall-clock step times
#: spread ~2x between runs of the same code.  The guest kernel accounts
#: that steal time apart (paravirtual time accounting), so a thread's CPU
#: time counts only the time the code ran, which is what a user sees on a
#: core of their own.  Waits for the disk are excluded too.
cpu_clock = time.thread_time
#: The same clock summed over the process's threads, for work that
#: crosses threads (the service's event loop and scheduler thread).
process_cpu_clock = time.process_time


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """90th percentile, interpolated between samples (never extrapolated)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def alloc_peak(fn) -> int:
    """Peak bytes ``fn()`` allocates above what is live when it starts.

    Must run while :mod:`tracemalloc` is tracing; objects freed by ``fn``
    that were allocated before it started do not lower the figure.
    """
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn()
    return tracemalloc.get_traced_memory()[1] - base


def host_llc_bytes() -> int:
    """Last-level cache size the host reports (0 when it reports none)."""
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            done = subprocess.run(
                ["getconf", level], capture_output=True, text=True, timeout=10, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return 0
        value = done.stdout.strip()
        if done.returncode == 0 and value.isdigit() and int(value) > 0:
            return int(value)
    return 0


def bandwidth_note(lattice_bytes: int, llc_bytes: int) -> str:
    """Whether ``core.lbm.gbps_computed`` may be read as a memory bandwidth.

    A bandwidth figure needs arrays of at least 4x the last-level cache.
    """
    if llc_bytes and lattice_bytes >= 4 * llc_bytes:
        return f"lattice arrays ({lattice_bytes} B) are at least 4x the host LLC ({llc_bytes} B)"
    return (
        f"lattice arrays ({lattice_bytes} B) are not 4x the host LLC ({llc_bytes} B; 0 = not "
        "reported), so core.lbm.gbps_computed is computed bytes over lattice time, not a "
        "fraction of memory bandwidth"
    )


class Outcome:
    """Operation accounting: every check either passes or counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
