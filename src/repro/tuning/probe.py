"""Probe stage: confirm top-ranked predictions with short measured runs.

The predict stage orders candidates; the probe stage settles the final
choice empirically, under the interleaved min-of-R measurement
discipline of :func:`interleaved_min_seconds`: every
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

:func:`autotune_cube_size` is the legacy cube-edge sweep on the same
runners and timing discipline; it keeps the configuration's thread
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, PartitionError
from repro.tuning.space import TuningCandidate, TuningResult, valid_cube_sizes

__all__ = [
    "ProbeResult",
    "autotune_cube_size",
    "interleaved_min_seconds",
    "probe_candidates",
]


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


def interleaved_min_seconds(
    runners: Sequence[Callable[[], None]],
    repeats: int = 3,
    budget_seconds: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[float], int]:
    """Round-robin timing of ``runners``; per-runner min over rounds.

    Timing each candidate in one contiguous block lets a single
    transient stall (page reclaim, a sibling process, turbo drift)
    inflate exactly one candidate and crown the wrong winner.  Instead
    the candidates are measured in interleaved rounds — round 0 times
    runner 0, 1, 2, ..., round 1 times them again in the same order —
    so slow moments are spread across the field, and each candidate
    reports its **minimum** round (the classic best-of-R noise floor)
    rather than a sum that accumulates every stall it was unlucky
    enough to absorb.

    ``budget_seconds`` bounds the wall clock: after each completed
    round the elapsed time is checked and no new round starts beyond
    the budget (the first round always runs in full so every runner is
    measured at least once).  ``clock`` reads seconds (injectable so a
    test can make the timings deterministic).  Returns
    ``(min_seconds, rounds_done)``.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")
    if not runners:
        raise ConfigurationError("no runners to time")
    best = [math.inf] * len(runners)
    started = clock()
    rounds_done = 0
    for _ in range(repeats):
        for i, runner in enumerate(runners):
            t0 = clock()
            runner()
            elapsed = clock() - t0
            if elapsed < best[i]:
                best[i] = elapsed
        rounds_done += 1
        if (
            budget_seconds is not None
            and clock() - started >= budget_seconds
        ):
            break
    return best, rounds_done


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
    :func:`interleaved_min_seconds`).

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


def autotune_cube_size(
    config: SimulationConfig,
    candidates: list[int] | None = None,
    steps: int = 3,
    warmup_steps: int = 1,
    repeats: int = 3,
) -> TuningResult:
    """Time the real cube solver per candidate ``k``; return the fastest.

    The candidates are timed in **interleaved rounds** (every candidate
    runs ``steps`` steps, then the field repeats, ``repeats`` times)
    and each candidate reports its min-of-R round — see
    :func:`interleaved_min_seconds` for why a contiguous
    one-block-per-candidate sweep misattributes transient stalls.

    Parameters
    ----------
    config:
        The simulation to tune (its ``cube_size`` is overridden per
        candidate; ``solver`` is forced to ``"cube"``; ``num_threads``
        is kept).
    candidates:
        Cube edges to try; defaults to every valid size except 1
        (unit cubes exist only as a degenerate case).
    steps / warmup_steps:
        Timed and untimed steps per candidate per round.
    repeats:
        Interleaved rounds (the R of min-of-R).
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    if candidates is None:
        candidates = [k for k in valid_cube_sizes(config.fluid_shape) if k > 1] or [1]
    for k in candidates:
        if any(n % k for n in config.fluid_shape):
            raise ConfigurationError(
                f"candidate cube size {k} does not divide {config.fluid_shape}"
            )
    built: list[tuple[int, Callable[[], None], Callable[[], None]]] = []
    try:
        for k in candidates:
            try:
                run, close, _ = _solo_runner(
                    replace(config, solver="cube", cube_size=k), steps, warmup_steps
                )
            except PartitionError:
                # e.g. a single giant cube cannot host the thread mesh;
                # an infeasible candidate is simply not a contender
                continue
            built.append((k, run, close))
        if not built:
            raise ConfigurationError(
                f"no feasible cube-size candidate among {candidates} for "
                f"grid {config.fluid_shape} with {config.num_threads} threads"
            )
        mins, _ = interleaved_min_seconds([run for _, run, _ in built], repeats=repeats)
    finally:
        for _, _, close in built:
            close()
    seconds = {k: best for (k, _, _), best in zip(built, mins)}
    return TuningResult(
        best_cube_size=min(seconds, key=seconds.get), seconds_by_size=seconds
    )
