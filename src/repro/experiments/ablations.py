"""Ablation studies of the cube-based design choices.

DESIGN.md calls out the knobs the paper's Section V introduces; each
gets a measured sweep on a reduced input (real wall time of our
implementation, single machine) so their *relative* effects are
observable:

* ``cube_size_sweep`` — cube edge ``k`` (working-set size vs per-cube
  overhead);
* ``distribution_sweep`` — block / cyclic / block-cyclic ``cube2thread``
  against the lock-contention and imbalance counters;
* ``lock_overhead`` — owner locks on vs off (the writes are
  element-disjoint, so the numerics stay identical);
* ``barrier_schedule`` — the 3-barrier schedule's synchronization cost
  from the instrumented barriers;
* ``delta_kernel_sweep`` — 2-/3-/4-point delta support (influential
  domain 8 vs 27 vs 64 nodes) against spreading/interpolation cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.profiling.report import render_table

__all__ = [
    "AblationResult",
    "cube_size_sweep",
    "distribution_sweep",
    "lock_overhead",
    "delta_kernel_sweep",
    "render_results",
]


@dataclass(frozen=True)
class AblationResult:
    """One ablation configuration's outcome."""

    label: str
    seconds: float
    extra: dict[str, float]


def _base_config(**overrides) -> SimulationConfig:
    defaults = dict(
        fluid_shape=(16, 16, 16),
        tau=0.8,
        structure=StructureConfig(
            kind="flat_sheet", num_fibers=8, nodes_per_fiber=8,
            stretch_coefficient=1e-2, bend_coefficient=1e-4,
        ),
        solver="cube",
        num_threads=2,
        cube_size=4,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _run(config: SimulationConfig, steps: int) -> tuple[float, Simulation]:
    sim = Simulation(config)
    try:
        start = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - start
        return elapsed, sim
    finally:
        sim.close()


def cube_size_sweep(
    cube_sizes: tuple[int, ...] = (2, 4, 8), steps: int = 4
) -> list[AblationResult]:
    """Wall time vs cube edge ``k`` (per-cube working set vs overhead)."""
    results = []
    for k in cube_sizes:
        config = _base_config(cube_size=k)
        elapsed, sim = _run(config, steps)
        cubes = sim.solver.cubes
        results.append(
            AblationResult(
                label=f"k={k}",
                seconds=elapsed,
                extra={
                    "num_cubes": float(cubes.num_cubes),
                    "cube_working_set_kb": cubes.cube_nbytes / 1024.0,
                },
            )
        )
    return results


def distribution_sweep(steps: int = 4) -> list[AblationResult]:
    """block / cyclic / block-cyclic cube distribution comparison."""
    results = []
    for method in ("block", "cyclic", "block_cyclic"):
        config = _base_config(cube_method=method)
        elapsed, sim = _run(config, steps)
        solver = sim.solver
        results.append(
            AblationResult(
                label=method,
                seconds=elapsed,
                extra={
                    "lock_contentions": float(solver.locks.total_contentions()),
                    "lock_acquisitions": float(solver.locks.total_acquisitions()),
                    "load_imbalance_pct": 100.0
                    * float(
                        np.ptp(solver.cube_dist.load_per_thread())
                        / max(1, solver.cube_dist.load_per_thread().max())
                    ),
                },
            )
        )
    return results


def lock_overhead(steps: int = 4) -> list[AblationResult]:
    """Owner locks on vs off (numerics identical, overhead differs);
    with them off, force spreading is serialized by one plain lock."""
    results = []
    for use_locks in (True, False):
        config = _base_config()
        sim = Simulation(config)
        try:
            sim.solver.use_locks = use_locks
            start = time.perf_counter()
            sim.run(steps)
            elapsed = time.perf_counter() - start
            results.append(
                AblationResult(
                    label="locks on" if use_locks else "locks off",
                    seconds=elapsed,
                    extra={
                        "acquisitions": float(sim.solver.locks.total_acquisitions())
                    },
                )
            )
        finally:
            sim.close()
    return results


def delta_kernel_sweep(steps: int = 4) -> list[AblationResult]:
    """2-/3-/4-point delta kernels: influential-domain size vs cost."""
    results = []
    for kind, support in (("linear", 2), ("3point", 3), ("cosine", 4)):
        config = _base_config(solver="sequential", num_threads=1, delta_kind=kind)
        elapsed, sim = _run(config, steps)
        results.append(
            AblationResult(
                label=f"{kind} (support {support})",
                seconds=elapsed,
                extra={"influential_nodes": float(support**3)},
            )
        )
    return results


def render_results(title: str, results: list[AblationResult]) -> str:
    """Text table of an ablation sweep."""
    extra_keys = sorted({k for r in results for k in r.extra})
    return render_table(
        ["Configuration", "Seconds"] + extra_keys,
        [
            [r.label, f"{r.seconds:.3f}"] + [f"{r.extra.get(k, 0):.3g}" for k in extra_keys]
            for r in results
        ],
        title=title,
    )
