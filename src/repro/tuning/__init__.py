"""Workload-adaptive autotuning (paper future work, ROADMAP item 2).

The paper's conclusion names auto-tuning as future work; this package
grows the original cube-size sweep into a full configuration tuner:

* :mod:`~repro.tuning.space` — the oracle-safe search space: variant x
  cube size x scatter method x precision x batch width, plus the
  legacy model-guided cube tuner (:func:`valid_cube_sizes`,
  :func:`suggest_cube_size`);
* :mod:`~repro.tuning.predict` — model-guided ranking from the
  calibrated performance model and cache working-set estimates;
* :mod:`~repro.tuning.probe` — measured confirmation of the top-ranked
  candidates under a wall-clock budget, the interleaved min-of-R
  measurement discipline (:func:`interleaved_min_seconds`) and the
  legacy empirical cube sweep (:func:`autotune_cube_size`);
* :mod:`~repro.tuning.cache` — the persisted decision cache keyed by
  ``(workload key, machine fingerprint)``;
* :mod:`~repro.tuning.autotuner` — :class:`Autotuner`, the
  predict -> probe -> cache loop;
* :mod:`~repro.tuning.online` — :class:`OnlineRetuner`, drift-triggered
  re-tuning inside a running scheduler.

``python -m repro.tuning --shape 62x32x32`` prints the whole story for
one workload; ``make bench-tune`` records it as ``BENCH_tune.json``.
"""

from repro.tuning.autotuner import Autotuner, TuneReport
from repro.tuning.cache import SCHEMA_VERSION, DecisionCache, TunedDecision
from repro.tuning.online import OnlineRetuner, RetuneEvent
from repro.tuning.predict import Prediction, predict_ranking, predict_step_seconds
from repro.tuning.probe import (
    ProbeResult,
    autotune_cube_size,
    interleaved_min_seconds,
    probe_candidates,
)
from repro.tuning.space import (
    ORACLE_SAFE_VARIANTS,
    TuningCandidate,
    TuningResult,
    TuningWorkload,
    allowed_precisions,
    candidate_space,
    suggest_cube_size,
    valid_cube_sizes,
)

__all__ = [
    # legacy cube tuners
    "TuningResult",
    "autotune_cube_size",
    "interleaved_min_seconds",
    "suggest_cube_size",
    "valid_cube_sizes",
    # search space
    "ORACLE_SAFE_VARIANTS",
    "TuningCandidate",
    "TuningWorkload",
    "allowed_precisions",
    "candidate_space",
    # predict / probe
    "Prediction",
    "predict_ranking",
    "predict_step_seconds",
    "ProbeResult",
    "probe_candidates",
    # cache
    "SCHEMA_VERSION",
    "DecisionCache",
    "TunedDecision",
    # tuner + online loop
    "Autotuner",
    "TuneReport",
    "OnlineRetuner",
    "RetuneEvent",
]
