"""Crash-safe service journal: accepted jobs survive a hard kill.

The service's durability rule is *journal before admit*: a job is
appended to the journal (fsync'd JSONL via
:class:`~repro.resilience.incident.IncidentLog`) before it enters the
fair queues.  The same log is the batch scheduler's job log (its
``incident_log``), so one append-only file records every job from
acceptance to its terminal state, and both resume paths read one fold
of it (:func:`~repro.batch.scheduler.fold_job_log`): a kill at any
instant leaves every accepted job either submitted (recovered by
:meth:`~repro.batch.scheduler.BatchScheduler.resume`) or re-enqueued
from its logged config + state seed by
:meth:`~repro.service.service.SimulationService.resume`.

Raw initial-state arrays are deliberately not journaled; submissions
carry an optional ``state_seed`` and the journal stores the seed, so
recovery rebuilds bit-identical initial fluids through
:func:`repro.verify.oracle.seeded_initial_fluid`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.batch.scheduler import LoggedJob, fold_job_log
from repro.resilience.incident import IncidentLog

__all__ = ["ServiceJournal", "JournalReplay", "SERVICE_JOURNAL_NAME"]

#: Journal file name inside the service workdir.
SERVICE_JOURNAL_NAME = "service.jsonl"


@dataclass
class JournalReplay:
    """The journal folded per job (see :func:`fold_job_log`)."""

    #: Jobs the service accepted, in acceptance order.
    accepted: dict[str, LoggedJob]


class ServiceJournal:
    """Append-only job-lifecycle journal over an :class:`IncidentLog`
    (``log``, which the service shares with its batch scheduler)."""

    def __init__(self, workdir: str | os.PathLike) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, SERVICE_JOURNAL_NAME)
        self.log = IncidentLog(jsonl_path=self.path)

    # ------------------------------------------------------------------
    # append side
    # ------------------------------------------------------------------
    def job_accepted(
        self,
        job_id: str,
        tenant: str,
        config_dict: dict,
        num_steps: int,
        state_seed: int | None,
        state_bytes: int,
    ) -> None:
        """Durably record an accepted job *before* it is enqueued."""
        self.log.record(
            "job_accepted",
            job=job_id,
            tenant=tenant,
            config=config_dict,
            num_steps=int(num_steps),
            state_seed=state_seed,
            state_bytes=int(state_bytes),
        )

    def job_dispatched(self, job_id: str) -> None:
        """The job left the fair queues for the batch scheduler."""
        self.log.record("job_dispatched", job=job_id)

    def job_terminal(self, job_id: str, status: str, steps: int) -> None:
        """The job reached a terminal status."""
        self.log.record("job_terminal", job=job_id, status=status, steps=int(steps))

    def job_cancelled(self, job_id: str, queued: bool) -> None:
        """A cancellation was accepted (``queued`` = before dispatch)."""
        self.log.record("job_cancelled", job=job_id, queued=bool(queued))

    def service_resumed(self, requeued: int, restored: int) -> None:
        """A restart rebuilt the service from this journal."""
        self.log.record("service_resumed", requeued=requeued, restored=restored)

    def close(self) -> None:
        """Release the underlying journal file handle."""
        self.log.close()

    # ------------------------------------------------------------------
    # replay side
    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, workdir: str | os.PathLike) -> JournalReplay:
        """Fold a (possibly torn-tailed) journal per job."""
        path = os.path.join(os.fspath(workdir), SERVICE_JOURNAL_NAME)
        if not os.path.exists(path):
            return JournalReplay({})
        jobs = fold_job_log(IncidentLog.load(path).events)
        return JournalReplay(
            {k: job for k, job in jobs.items() if job.tenant is not None}
        )
