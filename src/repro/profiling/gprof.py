"""gprof-style flat profiling of the sequential solver (paper Table I).

:class:`FlatProfile` accumulates per-kernel wall time — usually the
kernel spans of a traced run, through
:meth:`~repro.observe.tracer.Tracer.flat_profile`; the resulting table ("kernel, percentage of total time", descending) is the
library's reproduction of the paper's gprof analysis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.kernels import KERNEL_NAMES

__all__ = ["FlatProfile"]


@dataclass
class FlatProfile:
    """Accumulated per-kernel seconds, gprof style."""

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def __call__(self, kernel: str, elapsed: float) -> None:
        """Record one kernel invocation."""
        self.seconds[kernel] += elapsed
        self.calls[kernel] += 1

    @property
    def total_seconds(self) -> float:
        """Total profiled time."""
        return sum(self.seconds.values())

    def percentages(self) -> dict[str, float]:
        """Kernel shares of the total in percent, descending."""
        total = self.total_seconds
        if total == 0:
            return {}
        items = sorted(self.seconds.items(), key=lambda kv: kv[1], reverse=True)
        return {k: 100.0 * v / total for k, v in items}

    def kernel_index(self, kernel: str) -> int:
        """The paper's 1-based kernel index (Algorithm 1 order)."""
        return KERNEL_NAMES.index(kernel) + 1

    def as_table(self) -> str:
        """Render the profile like paper Table I."""
        lines = [
            f"{'Idx':>3}  {'Kernel Name':40s} {'Seconds':>10} {'% of Total':>10}",
            "-" * 68,
        ]
        for kernel, pct in self.percentages().items():
            lines.append(
                f"{self.kernel_index(kernel):>2})  {kernel:40s} "
                f"{self.seconds[kernel]:>10.4f} {pct:>9.2f}%"
            )
        lines.append("-" * 68)
        lines.append(f"{'Total':>46s} {self.total_seconds:>10.4f} {100.0:>9.2f}%")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop all accumulated data."""
        self.seconds.clear()
        self.calls.clear()
