"""An in-process kill rebuild reads only the jobs it will run.

``resume_on_kill`` rebuilds the batch scheduler from the job log.  Jobs
the service already finished keep their results in its records, so the
rebuild must not load their final checkpoints again: it loads one
checkpoint per job that is still in flight.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.batch import scheduler as scheduler_mod
from repro.config import SimulationConfig
from repro.observe import Telemetry
from repro.resilience import Fault, FaultInjector
from repro.service import SimulationService
from repro.verify.golden import fields_digest

from .test_service import _solo_digest

pytestmark = pytest.mark.service

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")

#: Jobs completed (and delivered) before the kill.
FINISHED = 4


def test_kill_rebuild_loads_one_checkpoint_per_unfinished_job(tmp_path, monkeypatch):
    loads: list[str] = []
    real_load = scheduler_mod.load_checkpoint

    def counting_load(path):
        loads.append(os.path.basename(path))
        return real_load(path)

    monkeypatch.setattr(scheduler_mod, "load_checkpoint", counting_load)
    telemetry = Telemetry()
    # Only the last, longer job reaches step 6: the kill hits it alone.
    injector = FaultInjector([Fault(kind="kill_worker", step=6, tid=0)])

    async def main():
        async with SimulationService(
            tmp_path,
            max_batch=2,
            telemetry=telemetry,
            fault_injector=injector,
            checkpoint_every=2,
            resume_on_kill=True,
        ) as service:
            done = []
            for seed in range(FINISHED):
                job_id = service.submit(CFG, 4, state_seed=seed)
                assert (await service.result(job_id)).ok
                done.append(job_id)
            assert loads == []
            last = service.submit(CFG, 8, state_seed=FINISHED)
            result = await service.result(last)
            return last, result, [service.poll(job_id).status for job_id in done]

    last, result, statuses = asyncio.run(main())
    assert telemetry.metrics.snapshot()["counters"]["service.kills_survived"] == 1
    assert len(loads) == 1 and loads[0].startswith(f"ckpt-{last}-"), loads
    assert statuses == ["completed"] * FINISHED
    assert result.ok and result.steps_completed == 8
    assert fields_digest(result.fluid, result.structure) == _solo_digest(
        CFG, FINISHED, 8
    )
