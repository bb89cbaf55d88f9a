"""Memory-aware fusion benchmark: the fused hot path vs the sequential
reference.

Not one of the paper's artifacts — this measures the library's own
``variant="fused"`` solver (fused collide-and-stream, two-lattice swap,
zero-allocation arena, bincount scatter, shared delta stencils) against
the kernel-by-kernel sequential program on the Table-I profiling
workload.  Three measurements:

* whole-step and per-kernel wall time for both variants;
* tracemalloc allocation behaviour of a steady-state step, measured
  twice: on the FSI workload (where the IB coupling inherently
  allocates — marker stencils change every step and ``bincount``
  allocates its output) and fluid-only, where the fused path's
  high-water mark stays below a single scalar field — i.e. the fluid
  hot path never allocates an array;
* the kernel-4 scatter primitive in isolation: ``np.bincount`` over
  raveled stencil indices vs the ``np.add.at`` it replaced, including
  the bit-equality check that makes the swap safe.

``python -m repro.experiments fused`` prints the table;
``make bench-fused`` additionally writes ``BENCH_fused.json``.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.api import Simulation
from repro.config import StructureConfig
from repro.experiments.workloads import scaled_profiling_config
from repro.observe import Tracer

__all__ = ["run_bench_fused", "render_bench_fused"]


def _measure_variant(
    solver: str,
    scale: int,
    steps: int,
    warmup: int,
    fluid_only: bool = False,
    precision: str = "float64",
) -> dict:
    """Wall time, per-kernel split and allocation profile of one variant."""
    config = scaled_profiling_config(scale=scale, solver=solver)
    if precision != "float64":
        config = replace(config, precision=precision)
    if fluid_only:
        config = replace(config, structure=StructureConfig(kind="none"))
    sim = Simulation(config)
    tracer = Tracer()
    try:
        sim.run(warmup)

        sim.solver.tracer = tracer
        start = time.perf_counter()
        sim.run(steps)
        wall = time.perf_counter() - start

        # Separate allocation pass so tracemalloc's overhead cannot
        # pollute the timing above.
        sim.solver.tracer = None
        tracemalloc.start()
        tracemalloc.reset_peak()
        sim.run(steps)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        sim.close()

    from repro.core.backend import dtype_bytes

    nx, ny, nz = config.fluid_shape
    return {
        "solver": solver,
        "fluid_only": fluid_only,
        "precision": config.precision,
        "fluid_shape": list(config.fluid_shape),
        "step_seconds": wall / steps,
        "per_kernel_seconds": {
            name: total / steps
            for name, total in sorted(
                tracer.flat_profile().seconds.items(), key=lambda kv: -kv[1]
            )
        },
        "alloc_peak_bytes": int(peak),
        "alloc_retained_bytes": int(retained),
        "scalar_field_bytes": nx * ny * nz * dtype_bytes(config.precision),
    }


def _measure_scatter(scale: int, repeats: int) -> dict:
    """``np.add.at`` vs the bincount scatter on the workload's stencil.

    Both implementations are forced explicitly (``method=``) so the
    size-based dispatch of :func:`~repro.core.ib.spreading.scatter_method`
    cannot make the two timings measure the same code; the dispatcher's
    pick for this stencil is reported as ``chosen_method``.
    """
    from repro.core.ib.spreading import (
        flatten_stencil,
        scatter_flat,
        scatter_method,
    )

    config = scaled_profiling_config(scale=scale)
    structure = config.build_structure()
    delta = config.build_delta()
    sheet = structure.sheets[0]
    grid_shape = config.fluid_shape

    positions = sheet.positions[sheet.active]
    indices, weights = delta.stencil(positions, grid_shape=grid_shape)
    flat_idx, flat_w = flatten_stencil(indices, weights, grid_shape)
    values = np.random.default_rng(0).standard_normal((positions.shape[0], 3))
    num_nodes = int(np.prod(grid_shape))

    from repro.core.backend import backend_for

    backend = backend_for(config.precision)
    target_a = backend.zeros((3,) + grid_shape)
    target_b = np.zeros_like(target_a)
    scatter_flat(flat_idx, flat_w, values, target_a, method="add_at")
    scatter_flat(flat_idx, flat_w, values, target_b, method="bincount")
    max_delta = float(np.abs(target_a - target_b).max())

    start = time.perf_counter()
    for _ in range(repeats):
        scatter_flat(flat_idx, flat_w, values, target_a, method="add_at")
    add_at_seconds = (time.perf_counter() - start) / repeats

    start = time.perf_counter()
    for _ in range(repeats):
        scatter_flat(flat_idx, flat_w, values, target_b, method="bincount")
    bincount_seconds = (time.perf_counter() - start) / repeats

    return {
        "stencil_points": int(flat_idx.shape[0]),
        "stencil_support": int(flat_idx.shape[1]),
        "add_at_seconds": add_at_seconds,
        "bincount_seconds": bincount_seconds,
        "speedup": add_at_seconds / bincount_seconds,
        "max_abs_delta": max_delta,
        "chosen_method": scatter_method(
            num_nodes, flat_idx.size, target_a.dtype.itemsize
        ),
    }


def run_bench_fused(
    scale: int = 2, steps: int = 10, warmup: int = 3, scatter_repeats: int = 5
) -> dict:
    """The complete ``BENCH_fused.json`` record.

    ``scale=2`` is the Table-I profiling grid (62 x 32 x 32); CI smoke
    runs pass a larger ``scale`` for a tiny grid.
    """
    sequential = _measure_variant("sequential", scale, steps, warmup)
    fused = _measure_variant("fused", scale, steps, warmup)
    return {
        "workload": {
            "scale": scale,
            "fluid_shape": sequential["fluid_shape"],
            "steps": steps,
            "warmup": warmup,
        },
        "sequential": sequential,
        "fused": fused,
        "whole_step_speedup": sequential["step_seconds"] / fused["step_seconds"],
        # Same grid without the immersed sheet: isolates the fluid hot
        # path, whose fused variant allocates nothing at steady state.
        # (With markers, fresh stencil arrays per step are inherent —
        # the node positions move.)
        "fluid_only": {
            "sequential": _measure_variant(
                "sequential", scale, steps, warmup, fluid_only=True
            ),
            "fused": _measure_variant("fused", scale, steps, warmup, fluid_only=True),
        },
        "scatter": _measure_scatter(scale, scatter_repeats),
    }


def render_bench_fused(result: dict) -> str:
    """Text table of a :func:`run_bench_fused` record."""
    seq, fus = result["sequential"], result["fused"]
    shape = "x".join(str(n) for n in result["workload"]["fluid_shape"])
    lines = [
        "Memory-aware fused kernels (variant='fused') vs sequential",
        f"  workload: Table-I profile, grid {shape}, "
        f"{result['workload']['steps']} timed steps",
        "",
        f"  {'variant':<12} {'ms/step':>9} {'alloc peak':>12} {'retained':>10}",
    ]
    for rec in (seq, fus):
        lines.append(
            f"  {rec['solver']:<12} {rec['step_seconds'] * 1e3:>9.2f} "
            f"{rec['alloc_peak_bytes']:>10d} B {rec['alloc_retained_bytes']:>8d} B"
        )
    lines.append(f"  whole-step speedup: {result['whole_step_speedup']:.2f}x")
    lines.append("")
    lines.append(
        "  fluid-only allocation profile (no markers; isolates the fluid "
        "hot path):"
    )
    for rec in (result["fluid_only"]["sequential"], result["fluid_only"]["fused"]):
        lines.append(
            f"  {rec['solver']:<12} {rec['step_seconds'] * 1e3:>9.2f} "
            f"{rec['alloc_peak_bytes']:>10d} B {rec['alloc_retained_bytes']:>8d} B"
        )
    lines.append(
        f"  (one scalar field = {fus['scalar_field_bytes']} B; a fused "
        "alloc peak below that means zero array allocations per step)"
    )
    lines.append("")
    lines.append("  per-kernel ms/step:")
    names = list(seq["per_kernel_seconds"]) + [
        n for n in fus["per_kernel_seconds"] if n not in seq["per_kernel_seconds"]
    ]
    for name in names:
        a = seq["per_kernel_seconds"].get(name)
        b = fus["per_kernel_seconds"].get(name)
        fmt = lambda v: f"{v * 1e3:8.3f}" if v is not None else "       -"
        lines.append(f"    {name:<38} seq {fmt(a)}   fused {fmt(b)}")
    sc = result["scatter"]
    lines.append("")
    lines.append(
        f"  kernel-4 scatter ({sc['stencil_points']} nodes x "
        f"{sc['stencil_support']} stencil): np.add.at "
        f"{sc['add_at_seconds'] * 1e3:.3f} ms -> bincount "
        f"{sc['bincount_seconds'] * 1e3:.3f} ms "
        f"({sc['speedup']:.1f}x, max |delta| = {sc['max_abs_delta']:.1e}, "
        f"dispatch picks {sc['chosen_method']})"
    )
    return "\n".join(lines)
