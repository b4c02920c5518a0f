"""Crash-safe sweep checkpointing.

A :class:`SweepCheckpoint` is an append-only JSONL file recording one
sweep's progress: a header line pinning the sweep's parameters, then
one result line per completed (scheme, workload) run.  It is a
:class:`~repro.sim.journal.Journal`, so every record is durable when
:meth:`SweepCheckpoint.record` returns, and resume removes and counts
the torn line a killed run leaves behind.

Resuming (``repro sweep --resume``) replays the file: the header must
match the requested sweep (same schemes, threshold, epochs, seed --
silently mixing results from a different configuration would poison
the aggregate), completed pairs are skipped, and the runner appends
the remaining runs to the same file.  A sweep interrupted and resumed
therefore produces a checkpoint whose result records are identical to
an uninterrupted run's (the CI chaos-smoke job asserts this).

Format (DESIGN.md §8)::

    {"record": "header", "version": 1, "meta": {...}}
    {"record": "result", "scheme": "aqua-sram", "workload": "mcf", "result": {...}}
    ...
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.journal import Journal, checked_header, replay_records
from repro.sim.stats import WorkloadResult

CHECKPOINT_VERSION = 1

RunKey = Tuple[str, str]
"""(scheme label, workload name) -- the unit of sweep progress."""


def _decode_result(record: dict) -> Tuple[RunKey, WorkloadResult]:
    """One ``result`` record's run key and result (raises on a record of
    the wrong shape, see :data:`~repro.sim.journal.MALFORMED`)."""
    result = WorkloadResult.from_dict(record["result"])
    return (str(record["scheme"]), str(record["workload"])), result


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep runs."""

    def __init__(self, journal: Journal, meta: dict) -> None:
        self.path = journal.path
        self.meta = dict(meta)
        self.completed: Dict[RunKey, WorkloadResult] = {}
        self.skipped_lines = 0
        self.skipped_writes = 0
        """Results that could not be canonically serialized (non-finite
        metrics) and were kept in memory but not journaled."""
        self._journal = journal

    # ------------------------------------------------------------ constructors

    @classmethod
    def create(cls, path: str, meta: dict) -> "SweepCheckpoint":
        """Start a fresh checkpoint, truncating any existing file."""
        meta = dict(meta)
        header = {"record": "header", "version": CHECKPOINT_VERSION, "meta": meta}
        return cls(Journal.create(path, header), meta)

    @classmethod
    def resume(cls, path: str, meta: Optional[dict] = None) -> "SweepCheckpoint":
        """Load a checkpoint and reopen it for appending.

        ``meta``, when given, must match the stored header exactly --
        resuming a sweep under different parameters raises
        :class:`~repro.errors.ConfigError` instead of silently mixing
        incompatible results.  A truncated trailing line (the crash
        artifact of a killed run) is truncated away and counted in
        ``skipped_lines`` (see :meth:`Journal.reopen
        <repro.sim.journal.Journal.reopen>`).  Corruption anywhere else
        is tolerated and counted too, so resume salvages every intact
        record.
        """
        if not os.path.exists(path):
            raise ConfigError(f"checkpoint {path!r} does not exist")
        journal, records, skipped = Journal.reopen(path)
        headers: List[dict] = []
        completed: Dict[RunKey, WorkloadResult] = {}

        def replay_result(record: dict) -> None:
            key, result = _decode_result(record)
            completed[key] = result

        skipped += replay_records(
            records, {"header": headers.append, "result": replay_result}
        )
        try:
            stored_meta = _header_meta(path, headers, meta)
        except ConfigError:
            journal.close()
            raise
        checkpoint = cls(journal, stored_meta)
        checkpoint.skipped_lines = skipped
        checkpoint.completed = completed
        return checkpoint

    # ----------------------------------------------------------------- writing

    def record(self, scheme: str, workload: str, result: WorkloadResult) -> None:
        """Durably record one completed run.

        A result whose metrics cannot be canonically serialized (a NaN
        rate from a zero denominator, say) is counted in
        ``skipped_writes`` and kept in memory -- the sweep continues
        and that one run degrades to re-execution on resume, instead
        of the journal write aborting the whole sweep mid-run.
        """
        try:
            self._journal.append(
                {
                    "record": "result",
                    "scheme": scheme,
                    "workload": workload,
                    "result": result.to_dict(),
                }
            )
        except ConfigError:
            self.skipped_writes += 1
        self.completed[(scheme, workload)] = result

    def has(self, scheme: str, workload: str) -> bool:
        """Whether this (scheme, workload) pair already completed."""
        return (scheme, workload) in self.completed

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _header_meta(path: str, headers: List[dict], meta: Optional[dict]) -> dict:
    """The sweep parameters of a checkpoint's (last) header record,
    checked against the requested ``meta``."""
    header = checked_header(path, headers, CHECKPOINT_VERSION, "sweep checkpoint")
    stored_meta = header.get("meta", {})
    if not isinstance(stored_meta, dict):
        raise ConfigError(
            f"checkpoint {path!r} has a malformed header: meta must be an "
            f"object (got {type(stored_meta).__name__})"
        )
    if meta is not None and dict(meta) != stored_meta:
        mismatched = sorted(
            set(meta) | set(stored_meta),
        )
        detail = ", ".join(
            f"{key}: requested {meta.get(key)!r} vs stored "
            f"{stored_meta.get(key)!r}"
            for key in mismatched
            if meta.get(key) != stored_meta.get(key)
        )
        raise ConfigError(
            f"checkpoint {path!r} was written by a different sweep "
            f"({detail}); start a fresh checkpoint instead"
        )
    return stored_meta


# ------------------------------------------------------- worker-side journals
#
# The parallel executor cannot funnel every worker through one fsynced
# file descriptor, so each worker process appends result records (the
# same JSONL shape as the main checkpoint, headerless) to its own
# sidecar ``<ckpt>.w<k>.jsonl`` (k = worker pid).  The parent absorbs
# the sidecars into the main checkpoint -- on clean completion and,
# crucially, on ``--resume`` after a crash, so no durably journaled run
# is ever re-executed.


def worker_journal_path(checkpoint_path: str, worker_id: int) -> str:
    """The sidecar journal path for one worker of one checkpoint."""
    return f"{checkpoint_path}.w{worker_id}.jsonl"


def worker_journal_paths(checkpoint_path: str) -> List[str]:
    """Existing sidecar journals for a checkpoint, in sorted order."""
    return sorted(glob.glob(glob.escape(checkpoint_path) + ".w*.jsonl"))


def append_result_record(
    path: str, scheme: str, workload: str, result_dict: dict
) -> bool:
    """Durably append one headerless result record to a journal file.

    Opens, fsyncs, and closes per record: worker journals are written
    once per completed run (seconds apart), and short-lived descriptors
    survive pool shutdown and crash-isolation restarts.  A sidecar has
    no header, so the first record creates it; later ones reopen it,
    which also truncates a torn line left by a killed worker whose pid
    this worker reuses.

    Returns whether the record was journaled: a result that cannot be
    canonically serialized (non-finite metrics) is dropped -- the run
    still reaches the parent through the pool's normal return path; it
    just is not crash-durable.
    """
    record = {
        "record": "result",
        "scheme": scheme,
        "workload": workload,
        "result": result_dict,
    }
    try:
        if os.path.exists(path):
            journal, _, _ = Journal.reopen(path)
            with journal:
                journal.append(record)
        else:
            Journal.create(path, record).close()
    except ConfigError:
        return False
    return True


def load_result_records(
    path: str,
) -> Tuple[List[Tuple[str, str, WorkloadResult]], int]:
    """Tolerantly read result records from a (headerless) journal.

    Returns ``(records, skipped)``; corrupt lines -- the truncated tail
    of a killed worker -- are counted, never fatal, exactly as in
    :meth:`SweepCheckpoint.resume`.
    """
    journal, lines, skipped = Journal.reopen(path)
    journal.close()
    records: List[Tuple[str, str, WorkloadResult]] = []

    def replay_result(record: dict) -> None:
        (scheme, workload), result = _decode_result(record)
        records.append((scheme, workload, result))

    skipped += replay_records(lines, {"result": replay_result})
    return records, skipped


def absorb_worker_journals(checkpoint: SweepCheckpoint) -> Tuple[int, int]:
    """Merge every sidecar journal into the main checkpoint, then delete.

    Records already present in the checkpoint (a parent that
    consolidated but died before unlinking) are skipped.  Returns
    ``(absorbed, skipped_lines)``.
    """
    absorbed = 0
    skipped = 0
    for path in worker_journal_paths(checkpoint.path):
        records, bad = load_result_records(path)
        skipped += bad
        for scheme, workload, result in records:
            if checkpoint.has(scheme, workload):
                continue
            checkpoint.record(scheme, workload, result)
            absorbed += 1
        os.remove(path)
    return absorbed, skipped
