"""Auto-tuning of the cube size (paper future work).

The paper's conclusion lists "performing auto-tuning and code
optimizations on individual computational kernels" as future work; the
cube edge ``k`` is the central tunable of the cube-based algorithm: a
larger ``k`` means fewer cubes (less bookkeeping, fewer lock
acquisitions) but a bigger per-cube working set (worse cache fit).

Two tuners are provided:

* :func:`suggest_cube_size` — model-guided: the largest valid ``k``
  whose per-cube working set still fits the machine's per-core L2
  share (the locality criterion of paper Section V-A).
* :func:`autotune_cube_size` — empirical: time a few real steps of the
  cube solver for each candidate ``k`` on this machine and return the
  fastest.

The full-configuration tuner (variant x cube size x scatter x
precision x batch width) lives in :mod:`repro.tuning.autotuner`; this
module keeps the narrow cube-only entry points and the shared
interleaved measurement discipline (:func:`interleaved_min_seconds`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec
from repro.parallel.cubes import CubeGrid

__all__ = [
    "valid_cube_sizes",
    "suggest_cube_size",
    "TuningResult",
    "autotune_cube_size",
    "interleaved_min_seconds",
]


def valid_cube_sizes(shape: tuple[int, int, int]) -> list[int]:
    """Cube edges that divide every grid dimension, ascending."""
    if any(n < 1 for n in shape):
        raise ConfigurationError(f"grid shape must be positive, got {shape}")
    g = math.gcd(math.gcd(shape[0], shape[1]), shape[2])
    return [k for k in range(1, g + 1) if g % k == 0]


def suggest_cube_size(
    shape: tuple[int, int, int], machine: MachineSpec
) -> int:
    """Largest valid ``k`` whose cube working set fits the L2 share.

    One L2 instance is shared by ``shared_by`` cores; a cube's field
    set is 48 doubles per node (see
    :attr:`repro.parallel.cubes.CubeGrid.cube_nbytes`).
    """
    l2 = machine.cache(2)
    budget = l2.size_bytes / l2.shared_by
    best = 1
    for k in valid_cube_sizes(shape):
        probe = CubeGrid(shape, k)
        if probe.cube_nbytes <= budget:
            best = k
    return best


@dataclass(frozen=True)
class TuningResult:
    """Outcome of an empirical cube-size sweep.

    ``seconds_by_size`` holds the per-candidate **min over repetitions**
    of the timed-block wall time — the noise-robust statistic of the
    interleaved measurement discipline (see :func:`autotune_cube_size`).
    """

    best_cube_size: int
    seconds_by_size: dict[int, float]

    def as_rows(self) -> list[list[object]]:
        """Table rows ``[k, seconds, best?]`` sorted by ``k``."""
        return [
            [k, round(s, 4), "*" if k == self.best_cube_size else ""]
            for k, s in sorted(self.seconds_by_size.items())
        ]


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
        candidate; ``solver`` is forced to ``"cube"``).
    candidates:
        Cube edges to try; defaults to every valid size except 1
        (unit cubes exist only as a degenerate case).
    steps / warmup_steps:
        Timed and untimed steps per candidate per round.
    repeats:
        Interleaved rounds (the R of min-of-R).
    """
    from dataclasses import replace

    from repro.api import Simulation

    if steps < 1:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")
    if candidates is None:
        candidates = [k for k in valid_cube_sizes(config.fluid_shape) if k > 1]
        if not candidates:
            candidates = [1]
    for k in candidates:
        if any(n % k for n in config.fluid_shape):
            raise ConfigurationError(
                f"candidate cube size {k} does not divide {config.fluid_shape}"
            )

    from repro.errors import PartitionError

    sims: list[tuple[int, object]] = []
    try:
        for k in candidates:
            candidate_config = replace(config, solver="cube", cube_size=k)
            try:
                sim = Simulation(candidate_config)
            except PartitionError:
                # e.g. a single giant cube cannot host the thread mesh;
                # an infeasible candidate is simply not a contender
                continue
            if warmup_steps:
                sim.run(warmup_steps)
            sims.append((k, sim))
        if not sims:
            raise ConfigurationError(
                f"no feasible cube-size candidate among {candidates} for "
                f"grid {config.fluid_shape} with {config.num_threads} threads"
            )
        mins, _ = interleaved_min_seconds(
            [lambda s=sim: s.run(steps) for _, sim in sims], repeats=repeats
        )
    finally:
        for _, sim in sims:
            sim.close()
    seconds = {k: mins[i] for i, (k, _) in enumerate(sims)}
    best = min(seconds, key=seconds.get)
    return TuningResult(best_cube_size=best, seconds_by_size=seconds)
