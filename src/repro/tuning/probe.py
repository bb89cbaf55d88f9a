"""Probe stage: confirm top-ranked predictions with short measured runs.

The predict stage orders candidates; the probe stage settles the final
choice empirically, reusing the interleaved min-of-R measurement
discipline of :func:`repro.tuning.cube.interleaved_min_seconds`: every
candidate is built and warmed first, the field is then timed in
round-robin rounds bounded by a wall-clock budget, and each candidate
reports its best round — a transient stall lands on whichever
candidate was running, not systematically on one.

Each candidate's forced scatter method is installed around its timed
block only (and the previous override restored), so interleaving
candidates with different scatter choices cannot leak state into each
other or into the caller's process.

Probes report **seconds per simulation-step**: a batched candidate of
width ``w`` advancing ``w`` slots per sweep divides its sweep time by
``w``, so solo and batched candidates compare on the common serving
metric (time to advance one simulation by one step).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, PartitionError
from repro.tuning.cube import interleaved_min_seconds
from repro.tuning.space import TuningCandidate

__all__ = ["ProbeResult", "probe_candidates"]


@dataclass(frozen=True)
class ProbeResult:
    """One candidate's measured cost.

    ``seconds`` is the min-of-R per-simulation-step wall time;
    ``rounds`` the interleaved rounds actually completed within the
    budget; ``steps`` the timed steps per round.
    """

    candidate: TuningCandidate
    seconds: float
    rounds: int
    steps: int

    def to_dict(self) -> dict:
        """JSON-safe form for benchmark records."""
        return {
            "candidate": self.candidate.to_dict(),
            "label": self.candidate.label(),
            "seconds": self.seconds,
            "rounds": self.rounds,
            "steps": self.steps,
        }


def _forced_scatter(run: Callable[[], None], scatter: str) -> Callable[[], None]:
    """``run`` with ``scatter`` installed for its duration only."""
    if scatter == "auto":
        return run

    def forced() -> None:
        from repro.core.ib import spreading

        previous = spreading._scatter_override
        spreading.set_scatter_method(scatter)
        try:
            run()
        finally:
            spreading.set_scatter_method(previous)

    return forced


def _solo_runner(config: SimulationConfig, steps: int, warmup_steps: int):
    """``(runner, closer, sims_per_sweep)`` for a solo-variant candidate."""
    from repro.api import Simulation

    sim = Simulation(config)
    if warmup_steps:
        sim.run(warmup_steps)
    return (lambda: sim.run(steps)), sim.close, 1


def _batched_runner(
    config: SimulationConfig, width: int, steps: int, warmup_steps: int
):
    """``(runner, closer, sims_per_sweep)`` for a batched candidate.

    Loads ``width`` identical copies of the configured initial state —
    the probe measures sweep cost at full occupancy, the serving
    scenario the batch width is tuned for.
    """
    from repro.batch.fields import BatchedFluidGrid
    from repro.batch.solver import BatchedLBMIBSolver
    from repro.core.lbm.fields import FluidGrid

    grid = BatchedFluidGrid(
        config.fluid_shape,
        width,
        tau=config.effective_tau,
        collision_operator=config.collision_operator,
        precision=config.precision,
    )
    solver = BatchedLBMIBSolver(
        grid,
        delta=config.build_delta(),
        boundaries=config.build_boundaries(),
        dt=config.dt,
        external_force=config.external_force,
    )
    for slot in range(width):
        fluid = FluidGrid(
            config.fluid_shape,
            tau=config.effective_tau,
            collision_operator=config.collision_operator,
            precision=config.precision,
        )
        solver.load_slot(slot, fluid, config.build_structure())

    def run_steps() -> None:
        for _ in range(steps):
            solver.step()

    if warmup_steps:
        for _ in range(warmup_steps):
            solver.step()
    return run_steps, (lambda: None), width


def probe_candidates(
    base_config: SimulationConfig,
    candidates: list[TuningCandidate],
    steps: int = 3,
    warmup_steps: int = 1,
    repeats: int = 3,
    budget_seconds: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> list[ProbeResult]:
    """Measure ``candidates`` on this machine; per-candidate min-of-R.

    ``clock`` is the timer the interleaved rounds read (see
    :func:`~repro.tuning.cube.interleaved_min_seconds`).

    Candidates whose configuration cannot be built for this workload
    (e.g. a cube edge the thread mesh cannot partition) are skipped —
    infeasible is simply not a contender.  Raises when *no* candidate
    is feasible.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    built: list[tuple[TuningCandidate, Callable[[], None], Callable[[], None], int]] = []
    try:
        for candidate in candidates:
            try:
                config = candidate.to_config(base_config)
                if candidate.variant == "batched" and candidate.batch_width > 1:
                    run, close, per_sweep = _batched_runner(
                        config, candidate.batch_width, steps, warmup_steps
                    )
                else:
                    run, close, per_sweep = _solo_runner(
                        config, steps, warmup_steps
                    )
            except (PartitionError, ConfigurationError):
                continue
            built.append(
                (candidate, _forced_scatter(run, candidate.scatter), close, per_sweep)
            )
        if not built:
            raise ConfigurationError(
                f"no feasible probe candidate among "
                f"{[c.label() for c in candidates]} for grid "
                f"{base_config.fluid_shape}"
            )
        mins, rounds = interleaved_min_seconds(
            [run for _, run, _, _ in built],
            repeats=repeats,
            budget_seconds=budget_seconds,
            clock=clock,
        )
    finally:
        for _, _, close, _ in built:
            close()
    results = []
    for (candidate, _, _, per_sweep), best in zip(built, mins):
        per_sim_step = best / (steps * per_sweep)
        if not math.isfinite(per_sim_step):
            continue
        results.append(
            ProbeResult(
                candidate=candidate,
                seconds=per_sim_step,
                rounds=rounds,
                steps=steps,
            )
        )
    return results
