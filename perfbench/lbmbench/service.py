"""The two-tenant service workload: ``SimulationService.submit -> result``.

Four asyncio clients in one process, two per tenant (weights 1:3), each
submitting its next job only after the previous ``result`` resolved (a
closed loop).  Jobs are the Table-I profiling grid at scale 4 (31x16x16,
13x13 sheet) on the batched solver, checkpointed every 10 steps, so the
full path runs: admission, journal fsync, queueing, batch waves, kernels
and checkpoint writes.

Times are CPU times (see :data:`~lbmbench.common.cpu_clock`): a job's
latency is the process CPU time spent between ``submit`` returning and
``result`` resolving, throughput is per process CPU second, and a sweep
is the scheduler thread's CPU time inside ``BatchedLBMIBSolver.step``.
Sweep occupancy comes from the scheduler ticks the service hands to its
``retuner`` hook; :class:`TickLog` is a recorder with that interface.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from lbmbench.common import (
    STEP_BYTES_LAYOUT,
    Outcome,
    alloc_peak,
    cpu_clock,
    median,
    p90,
    process_cpu_clock,
)
from lbmbench.spans import KERNEL_LAYERS, SpanRecorder, adopt_kernel_spans, self_times, span_or_null

#: Steps per job: checkpoints at submit, at step 10 and of the final state.
#: A sweep right after a checkpoint runs with cold caches; at 15 steps
#: those are 2 sweeps in 15, so the sweep p90 falls inside that group
#: instead of on the edge between groups (as it would at exactly 10%).
JOB_STEPS = 15
CHECKPOINT_EVERY = 10
MAX_BATCH = 4
#: (tenant, weight) and the clients each tenant runs.
TENANTS = (("light", 1.0), ("heavy", 3.0))
CLIENTS = ("light", "light", "heavy", "heavy")
#: Completed jobs whose final state is compared with a solo run.
SAMPLED_JOBS = 2
#: Cold starts timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
WARMUP_STEPS = 3


def job_config(scale: int = 4):
    from repro.experiments.workloads import scaled_profiling_config

    return replace(scaled_profiling_config(scale=scale), solver="batched")


class TickLog:
    """Receives every :class:`~repro.batch.scheduler.SchedulerTick`."""

    def __init__(self) -> None:
        self.ticks = []

    def bind(self, scheduler) -> None:
        pass

    def observe(self, tick) -> None:
        self.ticks.append(tick)


@contextlib.contextmanager
def sweep_cpu_times():
    """Collect the CPU time of every ``BatchedLBMIBSolver.step`` call."""
    from repro.batch.solver import BatchedLBMIBSolver

    times = []
    original = BatchedLBMIBSolver.step

    def step(self, *args, **kwargs):
        t0 = cpu_clock()
        try:
            return original(self, *args, **kwargs)
        finally:
            times.append(cpu_clock() - t0)

    BatchedLBMIBSolver.step = step
    try:
        yield times
    finally:
        BatchedLBMIBSolver.step = original


@dataclass
class LoopStats:
    wall: float = 0.0
    #: process CPU seconds over the loop
    cpu: float = 0.0
    #: process CPU seconds from ``submit`` returning to ``result``, per job
    latencies: list = field(default_factory=list)
    submits: list = field(default_factory=list)
    queue_waits: list = field(default_factory=list)
    #: job id -> (state seed, status) for every accepted job
    statuses: dict = field(default_factory=dict)
    #: job id -> BatchResult of each client's first job (check candidates)
    kept: dict = field(default_factory=dict)
    rejected: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for _, status in self.statuses.values() if status == "completed")


def build_service(workdir, ticks=None, telemetry=None):
    from repro.service import SimulationService, TenantSpec

    return SimulationService(
        workdir,
        tenants=[TenantSpec(name, weight=weight) for name, weight in TENANTS],
        max_batch=MAX_BATCH,
        checkpoint_every=CHECKPOINT_EVERY,
        telemetry=telemetry,
        retuner=ticks,
    )


async def _client(svc, config, tenant, rng, deadline, stats, recorder):
    from repro.errors import AdmissionError

    first = True
    while time.perf_counter() < deadline:
        state_seed = rng.randrange(2**31)
        t0 = time.perf_counter()
        try:
            with span_or_null(recorder, "service.submit") as handle:
                job = handle.job = svc.submit(config, JOB_STEPS, tenant=tenant, state_seed=state_seed)
        except AdmissionError as exc:
            stats.rejected += 1
            await asyncio.sleep(exc.retry_after_seconds or 0.1)
            continue
        stats.submits.append(time.perf_counter() - t0)
        c1 = process_cpu_clock()
        with span_or_null(recorder, "service.result", job):
            result = await svc.result(job)
        stats.latencies.append(process_cpu_clock() - c1)
        stats.queue_waits.append(svc.poll(job).queue_seconds or 0.0)
        stats.statuses[job] = (state_seed, result.status)
        if first:
            stats.kept[job] = result
            first = False


async def _closed_loop(workdir, config, seconds, seed, recorder=None, telemetry=None):
    ticks = TickLog()
    stats = LoopStats()
    async with build_service(workdir, ticks, telemetry) as svc:
        start, cpu_start = time.perf_counter(), process_cpu_clock()
        deadline = start + seconds
        await asyncio.gather(
            *(
                _client(svc, config, tenant, random.Random(f"{seed}:{i}"), deadline, stats, recorder)
                for i, tenant in enumerate(CLIENTS)
            )
        )
        stats.wall = time.perf_counter() - start
        stats.cpu = process_cpu_clock() - cpu_start
    return stats, ticks


def _setup_times(scratch: str) -> list[float]:
    """Cold starts, each in a fresh interpreter (see ``service_start.py``).

    A warm construction is only a few directory and file opens (~0.1 ms,
    dominated by file-system noise); a user starting the service also pays
    for importing it, which is what a cold start measures.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "service_start.py")
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        try:
            done = subprocess.run(
                [sys.executable, script, src, workdir],
                capture_output=True, text=True, timeout=120, check=True,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _check(stats: LoopStats, config, seed: int, outcome: Outcome) -> None:
    """Every job ``ok``; sampled jobs bit-identical to their solo runs."""
    from repro.api import Simulation
    from repro.verify.golden import fields_digest, state_digest
    from repro.verify.oracle import seeded_initial_fluid

    for _ in range(stats.rejected):
        outcome.check(False, "job rejected at admission")
    candidates = sorted(stats.kept)
    sampled = random.Random(seed).sample(candidates, min(SAMPLED_JOBS, len(candidates)))
    for job_id, (state_seed, status) in sorted(stats.statuses.items()):
        ok = status == "completed"
        if ok and job_id in sampled:
            result = stats.kept[job_id]
            with Simulation(config, initial_fluid=seeded_initial_fluid(config, state_seed)) as solo:
                solo.run(JOB_STEPS)
                ok = fields_digest(result.fluid, result.structure) == state_digest(solo)
        outcome.check(ok, f"{job_id}: status {status}, solo digest checked: {job_id in sampled}")


def _alloc_pass(config, seed: int) -> tuple[int, int, int]:
    """Deterministic tracemalloc pass over one job's batched step."""
    from repro.api import Simulation
    from repro.core import kernels
    from repro.verify.oracle import seeded_initial_fluid

    with Simulation(config, initial_fluid=seeded_initial_fluid(config, seed)) as sim:
        sim.run(WARMUP_STEPS)
        grid = sim.solver.grid
        lattice = int(grid.df.nbytes + grid.df_new.nbytes)
        structure, fluid, delta = sim.structure, sim.fluid, config.build_delta()
        tracemalloc.start()
        try:
            step_peak = max(alloc_peak(lambda: sim.run(1)) for _ in range(2))
            spread_peak = alloc_peak(
                lambda: kernels.spread_force_from_fibers_to_fluid(structure, fluid, delta)
            )
        finally:
            tracemalloc.stop()
    return step_peak, spread_peak, lattice


def _node_mlups(stats: LoopStats, nodes: int) -> float:
    return stats.completed * JOB_STEPS * nodes / stats.cpu / 1e6


def _traced_metrics(recorder: SpanRecorder, ticks: TickLog, stats: LoopStats, config) -> dict:
    from repro.core.backend import dtype_bytes
    from repro.machine.workload import step_bytes

    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    runs = recorder.named("batch.run")
    busy = sum(s.duration for s in runs)

    def in_run(span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "batch.run":
                return True
        return False

    kernels: dict[str, float] = {}
    for s in spans:
        if s.name in KERNEL_LAYERS and in_run(s):
            layer = KERNEL_LAYERS[s.name]
            kernels[layer] = kernels.get(layer, 0.0) + s.duration
    sweeps = max(1, len(ticks.ticks))
    sweep_seconds = [t.step_seconds for t in ticks.ticks]
    occupied = sum(t.occupancy for t in ticks.ticks)
    saves = recorder.named("io.checkpoint.save")
    fsyncs = recorder.named("io.fsync")
    jobs = len(stats.statuses)

    def per_sweep_ms(layer):
        return kernels.get(layer, 0.0) / sweeps * 1e3

    lbm_ms = per_sweep_ms("core.lbm.collide_stream") + per_sweep_ms("core.lbm.update_fluid_velocity")
    nodes = int(np.prod(config.fluid_shape))
    fibers = config.structure.num_fibers * config.structure.nodes_per_fiber
    mean_slots = occupied / sweeps
    bytes_per_sweep = mean_slots * step_bytes(
        nodes, fibers, STEP_BYTES_LAYOUT[config.solver], dtype_bytes=dtype_bytes(config.precision)
    )
    return {
        "core.lbm.collide_stream_ms": per_sweep_ms("core.lbm.collide_stream"),
        "core.lbm.update_fluid_velocity_ms": per_sweep_ms("core.lbm.update_fluid_velocity"),
        "core.lbm.bytes_per_step_computed": bytes_per_sweep,
        "core.lbm.gbps_computed": bytes_per_sweep / (lbm_ms / 1e3) / 1e9 if lbm_ms else 0.0,
        "core.ib.fiber_forces_ms": per_sweep_ms("core.ib.fiber_forces"),
        "core.ib.spread_ms": per_sweep_ms("core.ib.spread"),
        "core.ib.move_fibers_ms": per_sweep_ms("core.ib.move_fibers"),
        "solver.step_ms": sum(sweep_seconds) / sweeps * 1e3,
        "solver.unattributed_ms": (sum(sweep_seconds) - sum(kernels.values())) / sweeps * 1e3,
        "batch.waves": len(runs),
        "batch.slot_occupancy": occupied / (sweeps * MAX_BATCH),
        "batch.step_ms": median(sweep_seconds) * 1e3,
        "io.checkpoint.saves": len(saves),
        "io.checkpoint.saves_per_job": len(saves) / jobs if jobs else 0.0,
        "io.checkpoint.save_ms_p50": median(s.duration for s in saves) * 1e3,
        "io.checkpoint.bytes": median(recorder.checkpoint_bytes),
        "io.checkpoint.busy_share": sum(s.duration for s in saves if in_run(s)) / busy if busy else 0.0,
        "io.fsync.count": len(fsyncs),
        "io.fsync.ms_total": sum(s.duration for s in fsyncs) * 1e3,
        "service.submit_ms_p50": median(stats.submits) * 1e3,
        "service.queue_wait_ms_p50": median(stats.queue_waits) * 1e3,
        "service.journal.appends": sum(1 for s in spans if s.name.startswith("service.journal.")),
        "service.rejected": stats.rejected,
        "service.scheduler_unattributed_share": sum(selfs[s.id] for s in runs) / busy if busy else 0.0,
    }


def run(config, seed: int, seconds: float, trace: bool, trace_path: str | None, scratch: str):
    """Measure the service workload; returns ``(metrics, outcome, report)``."""
    from repro.observe import Telemetry

    nodes = int(np.prod(config.fluid_shape))
    outcome = Outcome()
    setups = _setup_times(scratch)
    step_peak, spread_peak, lattice = _alloc_pass(config, seed)

    timed_seconds = seconds / 2 if trace else seconds
    workdir = tempfile.mkdtemp(prefix="service-", dir=scratch)
    try:
        with sweep_cpu_times() as sweeps:
            stats, _ = asyncio.run(_closed_loop(workdir, config, timed_seconds, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _check(stats, config, seed, outcome)
    mlups = _node_mlups(stats, nodes)
    report = {
        "fluid_shape": list(config.fluid_shape),
        "job_steps": JOB_STEPS,
        "job_samples": len(stats.latencies),
        "sweep_samples": len(sweeps),
        "clients": list(CLIENTS),
        "tenants": dict(TENANTS),
        "lattice_bytes": lattice,
    }
    if not trace:
        metrics = {
            "mlups": mlups,
            "step_ms_p90": p90(sweeps) * 1e3,
            "step_alloc_peak_bytes": step_peak,
            "jobs_per_s": stats.completed / stats.cpu,
            "job_latency_ms_p50": median(stats.latencies) * 1e3,
            "job_latency_ms_p90": p90(stats.latencies) * 1e3,
            "setup_s": median(setups),
        }
        return metrics, outcome, report

    recorder = SpanRecorder()
    telemetry = Telemetry()
    workdir = tempfile.mkdtemp(prefix="service-", dir=scratch)
    try:
        with recorder.instrument_io_and_service():
            traced, traced_ticks = asyncio.run(
                _closed_loop(workdir, config, seconds / 2, seed, recorder, telemetry)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _check(traced, config, seed, outcome)
    adopt_kernel_spans(recorder, telemetry.tracer.spans, "batch.run")
    metrics = _traced_metrics(recorder, traced_ticks, traced, config)
    metrics["core.lbm.lattice_bytes"] = lattice
    metrics["core.ib.spread_alloc_peak_bytes"] = spread_peak
    metrics["trace.overhead_ratio"] = 1.0 - _node_mlups(traced, nodes) / mlups
    report["traced_job_samples"] = len(traced.latencies)
    if trace_path:
        recorder.write(trace_path)
    return metrics, outcome, report
