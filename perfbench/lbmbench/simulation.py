"""The two Table-I simulation workloads: one ``Simulation`` in a closed loop.

A client of the library builds a :class:`~repro.api.Simulation` and calls
``run`` on it repeatedly.  Here each call advances ``JOB_STEPS`` steps (one
"job"), and the next call starts when the previous one returns.  Each step
is timed on its own, on the solver thread's CPU clock
(:data:`~lbmbench.common.cpu_clock`), so the step distribution and the job
distribution come from the same run.

``table1_fused`` is the ROADMAP's canonical grid (62x32x32, 26x26 sheet,
fused solver, float64): the lattice stage and kernel 7 dominate.
``table1_dense_mixed`` keeps the grid but uses the paper's 52x52 sheet
(4x the fiber density), the in-place AA solver and mixed precision: IB
spreading becomes the largest kernel and the precision promotion runs.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from lbmbench.common import STEP_BYTES_LAYOUT, Outcome, alloc_peak, cpu_clock, median, p90
from lbmbench.spans import SpanRecorder, adopt_kernel_spans, span_or_null, traced_layers

#: Steps per closed-loop job (one ``Simulation.run(JOB_STEPS)`` call).
JOB_STEPS = 5
#: Untimed steps before the clock starts: arenas and stencil caches fill.
WARMUP_STEPS = 3
#: Jobs whose end state is compared with the float64 sequential reference.
CHECKED_JOBS = (1, 2, 4)
#: Constructions timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 60


@dataclass(frozen=True)
class SimWorkload:
    """One simulation workload: a config and how its output is checked."""

    name: str
    config: object
    #: ``"digest"``: golden digest equals the float64 sequential run's;
    #: ``"tolerance"``: fields within the precision's oracle tolerance.
    check: str


def table1_fused(scale: int = 2) -> SimWorkload:
    from repro.experiments.workloads import scaled_profiling_config

    config = replace(scaled_profiling_config(scale=scale), solver="fused")
    return SimWorkload("table1_fused", config, "digest")


def table1_dense_mixed(scale: int = 2) -> SimWorkload:
    from repro.experiments.workloads import scaled_profiling_config

    config = scaled_profiling_config(scale=scale)
    fibers = 104 // scale  # twice the scaled sheet: the paper's 52x52 at scale 2
    config = replace(
        config,
        solver="inplace",
        precision="mixed",
        structure=replace(config.structure, num_fibers=fibers, nodes_per_fiber=fibers),
    )
    return SimWorkload("table1_dense_mixed", config, "tolerance")


def _state(sim):
    """Gathered state arrays the tolerance check compares (copies)."""
    fluid = sim.fluid
    arrays = {
        name: np.array(getattr(fluid, name), dtype=np.float64)
        for name in ("df", "density", "velocity", "velocity_shifted", "force")
    }
    for i, sheet in enumerate(sim.structure.sheets if sim.structure else []):
        arrays[f"sheet{i}.positions"] = np.array(sheet.positions, dtype=np.float64)
        arrays[f"sheet{i}.velocity"] = np.array(sheet.velocity, dtype=np.float64)
    return arrays


class _Checker:
    """Float64 sequential reference states at the checked step counts."""

    def __init__(self, workload: SimWorkload, seed: int) -> None:
        from repro.api import Simulation
        from repro.core.backend import oracle_tolerance
        from repro.verify.golden import state_digest
        from repro.verify.oracle import seeded_initial_fluid

        self.kind = workload.check
        self.rtol, self.atol = oracle_tolerance(workload.config.precision)
        ref_config = replace(workload.config, solver="sequential", precision="float64")
        self.expected = {}
        with Simulation(ref_config, initial_fluid=seeded_initial_fluid(ref_config, seed)) as ref:
            for job in CHECKED_JOBS:
                step = WARMUP_STEPS + job * JOB_STEPS
                ref.run(step - ref.time_step)
                self.expected[step] = state_digest(ref) if self.kind == "digest" else _state(ref)

    def matches(self, sim) -> bool:
        from repro.verify.golden import state_digest

        expected = self.expected[sim.time_step]
        if self.kind == "digest":
            return state_digest(sim) == expected
        actual = _state(sim)
        return all(
            bool(np.all(np.abs(actual[k] - ref) <= self.atol + self.rtol * np.abs(ref)))
            for k, ref in expected.items()
        )


def _closed_loop(sim, seconds, checker, outcome, recorder=None):
    """Run jobs for ``seconds`` of wall time; returns the CPU timings.

    Checks run between jobs with the clocks stopped.
    """
    sim.run(WARMUP_STEPS)
    step_times, job_times = [], []
    wall = busy = 0.0
    while wall < seconds or len(job_times) < max(CHECKED_JOBS):
        job_start, job_cpu = time.perf_counter(), 0.0
        for _ in range(JOB_STEPS):
            t0 = cpu_clock()
            with span_or_null(recorder, "solver.step"):
                sim.run(1)
            step_times.append(cpu_clock() - t0)
            job_cpu += step_times[-1]
        job_times.append(job_cpu)
        busy += job_cpu
        wall += time.perf_counter() - job_start
        if len(job_times) in CHECKED_JOBS:
            outcome.check(checker.matches(sim), f"job {len(job_times)} differs from the reference")
    velocity = sim.fluid.velocity
    outcome.check(bool(np.isfinite(velocity).all()), "final velocity is not finite")
    return step_times, job_times, busy


def _lattice_bytes(sim) -> int:
    solver = sim.solver
    grid = getattr(solver, "grid", None)
    if grid is None:
        grid = solver.fluid
    return int(grid.df.nbytes + (grid.df_new.nbytes if grid.df_new is not None else 0))


def _alloc_pass(workload: SimWorkload, fluid0) -> tuple[int, int, int]:
    """Deterministic tracemalloc pass: (step peak, spread peak, lattice bytes)."""
    from repro.api import Simulation
    from repro.core import kernels

    config = workload.config
    with Simulation(config, initial_fluid=fluid0) as sim:
        sim.run(WARMUP_STEPS)
        lattice = _lattice_bytes(sim)
        structure, fluid, delta = sim.structure, sim.fluid, config.build_delta()
        tracemalloc.start()
        try:
            # Two steps: the AA solver alternates an even and an odd kernel.
            step_peak = max(alloc_peak(lambda: sim.run(1)) for _ in range(2))
            spread_peak = alloc_peak(
                lambda: kernels.spread_force_from_fibers_to_fluid(structure, fluid, delta)
            )
        finally:
            tracemalloc.stop()
    return step_peak, spread_peak, lattice


def run(workload: SimWorkload, seed: int, seconds: float, trace: bool, trace_path: str | None):
    """Measure one simulation workload; returns ``(metrics, outcome, report)``."""
    from repro.api import Simulation
    from repro.core.backend import dtype_bytes
    from repro.machine.workload import step_bytes
    from repro.observe import Telemetry
    from repro.verify.oracle import seeded_initial_fluid

    config = workload.config
    nodes = int(np.prod(config.fluid_shape))
    fluid0 = seeded_initial_fluid(config, seed)
    outcome = Outcome()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = cpu_clock()
        sim = Simulation(config, initial_fluid=fluid0)
        setups.append(cpu_clock() - t0)
        sim.close()

    step_peak, spread_peak, lattice = _alloc_pass(workload, fluid0)
    checker = _Checker(workload, seed)

    timed_seconds = seconds / 2 if trace else seconds
    with Simulation(config, initial_fluid=fluid0) as sim:
        steps, jobs, busy = _closed_loop(sim, timed_seconds, checker, outcome)
    mlups = nodes / median(steps) / 1e6
    report = {
        "fluid_shape": list(config.fluid_shape),
        "fiber_nodes": config.structure.num_fibers * config.structure.nodes_per_fiber,
        "step_samples": len(steps),
        "job_samples": len(jobs),
        "job_steps": JOB_STEPS,
        "lattice_bytes": lattice,
    }
    if not trace:
        metrics = {
            "mlups": mlups,
            "step_ms_p90": p90(steps) * 1e3,
            "step_alloc_peak_bytes": step_peak,
            "jobs_per_s": len(jobs) / busy,
            "job_latency_ms_p50": median(jobs) * 1e3,
            "job_latency_ms_p90": p90(jobs) * 1e3,
            "setup_s": median(setups),
        }
        return metrics, outcome, report

    recorder = SpanRecorder()
    telemetry = Telemetry()
    with Simulation(config, initial_fluid=fluid0, telemetry=telemetry) as sim:
        traced_steps, _, _ = _closed_loop(sim, seconds / 2, checker, outcome, recorder)
    adopt_kernel_spans(recorder, telemetry.tracer.spans, "solver.step")
    n = len(recorder.named("solver.step"))
    layers = traced_layers(recorder.spans, "solver.step")

    def per_step_ms(layer):
        return layers.get(layer, 0.0) / n * 1e3

    lbm_ms = per_step_ms("core.lbm.collide_stream") + per_step_ms("core.lbm.update_fluid_velocity")
    fiber_nodes = report["fiber_nodes"]
    bytes_per_step = step_bytes(
        nodes, fiber_nodes, STEP_BYTES_LAYOUT[config.solver], dtype_bytes=dtype_bytes(config.precision)
    )
    metrics = {
        "core.lbm.collide_stream_ms": per_step_ms("core.lbm.collide_stream"),
        "core.lbm.update_fluid_velocity_ms": per_step_ms("core.lbm.update_fluid_velocity"),
        "core.lbm.bytes_per_step_computed": bytes_per_step,
        "core.lbm.lattice_bytes": lattice,
        "core.lbm.gbps_computed": bytes_per_step / (lbm_ms / 1e3) / 1e9,
        "core.ib.fiber_forces_ms": per_step_ms("core.ib.fiber_forces"),
        "core.ib.spread_ms": per_step_ms("core.ib.spread"),
        "core.ib.move_fibers_ms": per_step_ms("core.ib.move_fibers"),
        "core.ib.spread_alloc_peak_bytes": spread_peak,
        "solver.step_ms": sum(s.duration for s in recorder.named("solver.step")) / n * 1e3,
        "solver.unattributed_ms": per_step_ms("solver.step"),
        "trace.overhead_ratio": 1.0 - (nodes / median(traced_steps) / 1e6) / mlups,
    }
    report["traced_step_samples"] = n
    report["self_ms_per_step"] = {k: v / n * 1e3 for k, v in sorted(layers.items())}
    if trace_path:
        recorder.write(trace_path)
    return metrics, outcome, report
