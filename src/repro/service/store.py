"""Persistent job store: an append-only, fsynced JSONL journal.

The store is a :class:`~repro.sim.journal.Journal` (the durability rule
of DESIGN.md §8: every record is fsynced before the caller proceeds,
and a torn trailing line is truncated away and counted on reopen),
applied to job lifecycles instead of run results:

::

    {"record":"header","version":1}
    {"record":"job","seq":1,"id":"j1-ab12...","digest":"...","spec":{...}}
    {"record":"state","id":"j1-ab12...","state":"running","attempts":1}
    {"record":"state","id":"j1-ab12...","state":"done",...}

Replay folds the records forward: a job's effective state is its last
``state`` record (or ``queued`` if none survived).  The server's crash
recovery re-enqueues every job whose effective state is ``queued`` or
``running`` -- *exactly once per job*, because jobs are keyed by ID and
duplicate ``job`` records (impossible in normal operation, possible
from a torn copy) collapse onto one entry.  A record of the wrong shape
is skipped whole and counted in ``skipped_lines``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.service.jobs import JOB_STATES, Job, JobSpec
from repro.sim.journal import Journal, checked_header, replay_records

STORE_VERSION = 1


class JobStore:
    """Durable journal of every submission and state transition."""

    def __init__(self, journal: Journal) -> None:
        self.path = journal.path
        self.jobs: Dict[str, Job] = {}
        """Jobs by ID, in submission order (dict preserves insertion)."""
        self.next_seq = 1
        self.skipped_lines = 0
        self._journal = journal

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def open(cls, path: str) -> "JobStore":
        """Open ``path``, replaying it if it exists, creating it if not."""
        if not os.path.exists(path):
            return cls(Journal.create(path, {"record": "header", "version": STORE_VERSION}))
        journal, records, skipped = Journal.reopen(path)
        store = cls(journal)
        headers: List[dict] = []
        store.skipped_lines = skipped + replay_records(
            records,
            {
                "header": headers.append,
                "job": store._replay_job,
                "state": store._replay_state,
            },
        )
        try:
            checked_header(path, headers, STORE_VERSION, "job store")
        except ConfigError:
            journal.close()
            raise
        return store

    def _replay_job(self, record: dict) -> None:
        job = Job(
            id=str(record["id"]),
            seq=int(record["seq"]),
            spec=JobSpec.from_dict(record["spec"]),
            digest=str(record["digest"]),
        )
        # Keyed by ID: a duplicated record collapses, keeping replay
        # exactly-once no matter how the file was produced.
        self.jobs[job.id] = job
        self.next_seq = max(self.next_seq, job.seq + 1)

    def _replay_state(self, record: dict) -> None:
        # Convert every field before touching the job, so a malformed
        # record is skipped whole instead of half-applied.
        job = self.jobs[record["id"]]
        state = record["state"]
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        attempts = int(record.get("attempts", job.attempts))
        from_cache = bool(record.get("from_cache", job.from_cache))
        run_failures = int(record.get("run_failures", job.run_failures))
        error = record.get("error")
        job.state = state
        job.attempts = attempts
        job.from_cache = from_cache
        job.run_failures = run_failures
        job.error = str(error) if error is not None else None

    # -------------------------------------------------------------- writing

    def append_job(self, job: Job) -> None:
        """Durably record one accepted submission."""
        self._journal.append(
            {
                "record": "job",
                "seq": job.seq,
                "id": job.id,
                "digest": job.digest,
                "spec": job.spec.to_dict(),
            }
        )
        self.jobs[job.id] = job
        self.next_seq = max(self.next_seq, job.seq + 1)

    def append_state(self, job: Job) -> None:
        """Durably record ``job``'s current state fields."""
        self._journal.append(
            {
                "record": "state",
                "id": job.id,
                "state": job.state,
                "attempts": job.attempts,
                "from_cache": job.from_cache,
                "run_failures": job.run_failures,
                "error": job.error,
            }
        )

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["STORE_VERSION", "JobStore"]
