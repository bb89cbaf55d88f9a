"""Profiling toolchain: the gprof / OmpP / PAPI substitutes.

``gprof``  — flat per-kernel profile of the sequential solver (Table I)
``ompp``   — parallel-region profile and load imbalance (Table II)
``report`` — paper-style fixed-width table rendering
"""

from repro.profiling.gprof import FlatProfile
from repro.profiling.ompp import ParallelProfile, RegionStats

__all__ = ["FlatProfile", "ParallelProfile", "RegionStats"]
