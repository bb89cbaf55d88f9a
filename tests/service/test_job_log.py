"""The job log: one durable record per service, and every prefix resumes.

The service and its batch scheduler append to one fsynced JSONL log
(``service.jsonl``); checkpoints are the only other files they write.
The crash-point sweep copies the workdir after every log append — and
once more with a torn partial line after it — and resumes each copy:
whatever the log says happened must stay happened, and everything else
must still finish bit-identical to a solo run.
"""

from __future__ import annotations

import asyncio
import builtins
import fnmatch
import os
import shutil
import threading

import pytest

from repro.api import Simulation
from repro.batch.scheduler import fold_job_log
from repro.config import SimulationConfig
from repro.resilience.incident import IncidentLog
from repro.service import SimulationService
from repro.verify.golden import fields_digest
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.service

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")
LOG = "service.jsonl"
#: Events the scheduler logs while it runs a job.
RUN_EVENTS = {"job_submitted", "checkpoint_saved", "job_retry", "job_completed"}


def _solo_digest(seed: int, steps: int) -> str:
    sim = Simulation(CFG, initial_fluid=seeded_initial_fluid(CFG, seed))
    sim.run(steps)
    return fields_digest(sim.fluid, sim.structure)


def _copy_tree(src: str, dst: str) -> None:
    """Copy a live workdir; files rotated away mid-copy are skipped (a
    logged trail never names a deleted checkpoint)."""
    for root, _dirs, files in os.walk(src):
        os.makedirs(os.path.join(dst, os.path.relpath(root, src)), exist_ok=True)
        for name in files:
            path = os.path.join(root, name)
            try:
                shutil.copy2(path, os.path.join(dst, os.path.relpath(path, src)))
            except FileNotFoundError:
                pass


def test_every_crash_point_resumes_to_solo_results(tmp_path, monkeypatch):
    seeds, steps = (0, 1, 2), 4
    live = str(tmp_path / "live")
    crashes: list[str] = []
    lock = threading.Lock()
    record = IncidentLog.record

    def record_then_copy(self, kind, step=-1, **detail):
        with lock:  # one append at a time, each followed by its copy
            event = record(self, kind, step, **detail)
            crash = str(tmp_path / f"crash{len(crashes):03d}")
            _copy_tree(live, crash)
            crashes.append(crash)
        return event

    monkeypatch.setattr(IncidentLog, "record", record_then_copy)

    async def run_live():
        async with SimulationService(live, max_batch=2, checkpoint_every=2) as svc:
            ids = [svc.submit(CFG, steps, state_seed=seed) for seed in seeds]
            for job_id in ids:
                assert (await svc.result(job_id)).ok

    asyncio.run(run_live())
    monkeypatch.undo()
    assert len(crashes) >= 6 * len(seeds)

    golden = {seed: _solo_digest(seed, steps) for seed in seeds}
    torn = []
    for crash in crashes:
        copy = crash + "-torn"
        shutil.copytree(crash, copy)
        with open(os.path.join(copy, LOG), "a", encoding="utf-8") as fh:
            fh.write('{"seq": 999, "kind": "job_')
        torn.append(copy)

    for workdir in crashes + torn:
        before = IncidentLog.load(os.path.join(workdir, LOG)).events
        prefix = fold_job_log(before)
        accepted = {k: job for k, job in prefix.items() if job.tenant is not None}

        async def resume():
            revived = SimulationService.resume(
                workdir, max_batch=2, checkpoint_every=2
            )
            async with revived:
                return {k: await revived.result(k) for k in accepted}

        results = asyncio.run(resume())
        after = IncidentLog.load(os.path.join(workdir, LOG)).events[len(before):]
        for job_id, job in accepted.items():
            result = results[job_id]
            assert result.status == "completed", (workdir, job_id, result.status)
            assert fields_digest(result.fluid, result.structure) == golden[
                job.state_seed
            ], (workdir, job_id)
            if job.terminal:
                assert result.slot == -1, (workdir, job_id)
                rerun = [
                    e.kind
                    for e in after
                    if e.detail.get("job") == job_id and e.kind in RUN_EVENTS
                ]
                assert rerun == [], (workdir, job_id, rerun)


def test_durable_traffic_per_job(tmp_path, monkeypatch):
    """Per completed job: at most 10 fsyncs, nothing written but the log
    and checkpoints, and a log append that does not grow with the job
    count (a whole-file rewrite of a per-job table would)."""
    steps, num_jobs = 15, 6
    workdir = str(tmp_path)
    fsyncs: list[int] = []
    written: set[str] = set()
    real_fsync, real_open, real_replace = os.fsync, builtins.open, os.replace

    def fsync(fd):
        fsyncs.append(fd)
        return real_fsync(fd)

    def tracked_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+"):
            written.add(os.path.relpath(os.fspath(file), workdir))
        return real_open(file, mode, *args, **kwargs)

    def replace(src, dst, *args, **kwargs):
        written.add(os.path.relpath(os.fspath(dst), workdir))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(builtins, "open", tracked_open)
    monkeypatch.setattr(os, "replace", replace)

    async def main():
        sizes = []
        async with SimulationService(workdir, checkpoint_every=10) as svc:
            for seed in range(10, 10 + num_jobs):
                job_id = svc.submit(CFG, steps, state_seed=seed)
                assert (await svc.result(job_id)).ok
                sizes.append(os.path.getsize(os.path.join(workdir, LOG)))
        return sizes

    sizes = asyncio.run(main())
    monkeypatch.undo()

    assert len(fsyncs) <= 10 * num_jobs
    strays = [
        path
        for path in written
        if path != LOG and not fnmatch.fnmatch(path, "batch/ckpt-*.npz*")
    ]
    assert strays == []
    appended = [b - a for a, b in zip(sizes, sizes[1:])]
    # seq numbers and wall-clock floats vary by a few characters per line
    assert max(appended) - min(appended) <= 64, appended
