"""The workload-adaptive autotuner: predict, probe, cache, decide.

:class:`Autotuner.tune` runs the full loop for one workload:

1. **Cache** — a valid :class:`~repro.tuning.cache.TunedDecision` for
   this ``(workload key, machine fingerprint)`` short-circuits
   everything (services skip re-tuning on restart).
2. **Predict** — rank the oracle-safe candidate space with the machine
   model (:mod:`repro.tuning.predict`), recalibrated by any previously
   stored ``model_scale``.
3. **Probe** — measure the top-N predictions with short interleaved
   runs under a wall-clock budget (:mod:`repro.tuning.probe`),
   recording the signed relative prediction error per candidate.
4. **Decide** — the measured winner becomes the cached decision, along
   with the median measured/predicted ratio as the next round's
   ``model_scale``.

Bit-identity safety is structural, not checked after the fact: the
candidate space only contains variants the verification suite pins
against the sequential reference, and only precisions satisfying the
workload's requested contract (see :mod:`repro.tuning.space`); a test
additionally runs a tuned decision through
:class:`repro.verify.DifferentialOracle`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec
from repro.tuning.cache import DecisionCache, TunedDecision
from repro.tuning.predict import Prediction, predict_ranking
from repro.tuning.probe import ProbeResult, probe_candidates
from repro.tuning.space import TuningWorkload, candidate_space

__all__ = ["Autotuner", "TuneReport"]


@dataclass
class TuneReport:
    """Everything one :meth:`Autotuner.tune` call learned.

    ``from_cache`` marks a cache hit (``predictions`` and ``probes``
    are then empty — nothing ran).  ``prediction_errors`` maps probed
    candidate labels to signed relative error
    ``(predicted - measured) / measured``.
    """

    workload: TuningWorkload
    decision: TunedDecision
    from_cache: bool = False
    predictions: list[Prediction] = field(default_factory=list)
    probes: list[ProbeResult] = field(default_factory=list)

    @property
    def prediction_errors(self) -> dict[str, float]:
        """Signed relative prediction error per probed candidate."""
        return {
            p["label"]: p["error"]
            for p in self.decision.probes
            if p.get("error") is not None
        }

    def best_config(self, base: SimulationConfig) -> SimulationConfig:
        """``base`` re-pointed at the tuned decision."""
        return self.decision.candidate.to_config(base)

    def as_rows(self) -> list[list[object]]:
        """Ranking rows ``[label, predicted_ms, measured_ms, error, best?]``
        for CLI/bench tables (predicted order; unprobed rows blank)."""
        measured = {r.candidate.label(): r.seconds for r in self.probes}
        errors = self.prediction_errors
        best = self.decision.candidate.label()
        rows: list[list[object]] = []
        for p in self.predictions:
            label = p.candidate.label()
            rows.append(
                [
                    label,
                    round(p.seconds * 1e3, 4),
                    round(measured[label] * 1e3, 4) if label in measured else "",
                    round(errors[label], 3) if label in errors else "",
                    "*" if label == best else "",
                ]
            )
        return rows


class Autotuner:
    """Model-guided configuration search with measured confirmation.

    Parameters
    ----------
    machine:
        Machine model used by the predict stage (default: the
        ``abu_dhabi`` preset — ranking, not absolute time, is what
        matters, and probes recalibrate the scale).
    cache:
        Decision cache; ``None`` builds an in-memory one (no
        persistence).
    probe_top_n:
        How many top-ranked predictions the probe stage measures.
    probe_steps / probe_warmup / probe_repeats:
        Timed and untimed steps per candidate per round, and the
        interleaved round count (min-of-R).
    budget_seconds:
        Wall-clock budget for the probe rounds (the first round always
        completes so every probed candidate is measured at least once).

    Attributes
    ----------
    clock:
        The timer the probe rounds read, ``time.perf_counter`` by
        default; replace it with a deterministic clock to make the
        measured seconds independent of the host's speed.
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        cache: DecisionCache | None = None,
        probe_top_n: int = 3,
        probe_steps: int = 3,
        probe_warmup: int = 1,
        probe_repeats: int = 3,
        budget_seconds: float | None = None,
    ) -> None:
        if probe_top_n < 1:
            raise ConfigurationError(
                f"probe_top_n must be positive, got {probe_top_n}"
            )
        self.machine = machine
        self.cache = cache if cache is not None else DecisionCache(path=None)
        self.probe_top_n = probe_top_n
        self.probe_steps = probe_steps
        self.probe_warmup = probe_warmup
        self.probe_repeats = probe_repeats
        self.budget_seconds = budget_seconds
        self.clock = time.perf_counter

    # ------------------------------------------------------------------
    def tune(
        self,
        base_config: SimulationConfig,
        batch_size: int = 1,
        variants: tuple[str, ...] | None = None,
        force: bool = False,
    ) -> TuneReport:
        """Tune ``base_config``'s workload; cached decisions win unless
        ``force`` re-probes."""
        workload = TuningWorkload.from_config(base_config, batch_size=batch_size)
        key = workload.key()
        if not force:
            cached = self.cache.get(key)
            if cached is not None:
                return TuneReport(workload=workload, decision=cached, from_cache=True)

        # A stale same-machine decision still carries a useful scale.
        prior = self.cache.get(key)
        model_scale = prior.model_scale if prior is not None else 1.0

        candidates = candidate_space(workload, variants=variants)
        predictions = predict_ranking(
            workload, candidates, machine=self.machine, model_scale=model_scale
        )
        top = predictions[: self.probe_top_n]
        probes = probe_candidates(
            base_config,
            [p.candidate for p in top],
            steps=self.probe_steps,
            warmup_steps=self.probe_warmup,
            repeats=self.probe_repeats,
            budget_seconds=self.budget_seconds,
            clock=self.clock,
        )
        predicted_by_label = {p.candidate.label(): p.seconds for p in predictions}
        probe_records = []
        ratios = []
        for probe in probes:
            label = probe.candidate.label()
            predicted = predicted_by_label[label]
            probe_records.append(
                {
                    "label": label,
                    "predicted": predicted,
                    "measured": probe.seconds,
                    "error": (predicted - probe.seconds) / probe.seconds,
                }
            )
            ratios.append(probe.seconds / predicted)

        if probes:
            winner = min(probes, key=lambda r: (r.seconds, r.candidate.label()))
            decision = TunedDecision(
                workload_key=key,
                candidate=winner.candidate,
                predicted_seconds=predicted_by_label[winner.candidate.label()],
                measured_seconds=winner.seconds,
                model_scale=model_scale * statistics.median(ratios),
                probes=tuple(probe_records),
            )
        else:
            # Every top candidate was infeasible to probe (e.g. a grid
            # the batched layout cannot host): fall back to the model's
            # first feasible-looking choice rather than failing the
            # caller — a prediction-only decision is still oracle-safe.
            best = predictions[0]
            decision = TunedDecision(
                workload_key=key,
                candidate=best.candidate,
                predicted_seconds=best.seconds,
                measured_seconds=best.seconds,
                model_scale=model_scale,
            )
        self.cache.put(decision)
        return TuneReport(
            workload=workload,
            decision=decision,
            from_cache=False,
            predictions=predictions,
            probes=probes,
        )

    def tuned_config(
        self,
        base_config: SimulationConfig,
        batch_size: int = 1,
        variants: tuple[str, ...] | None = None,
        force: bool = False,
    ) -> SimulationConfig:
        """Convenience: :meth:`tune` and return the re-pointed config."""
        report = self.tune(
            base_config, batch_size=batch_size, variants=variants, force=force
        )
        return report.best_config(base_config)
