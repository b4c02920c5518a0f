"""The one crash-safe JSONL journal behind checkpoints, sidecars and the job store.

A :class:`Journal` is an append-only file of canonical JSON records
(:func:`~repro.core.canon.canonical_dumps`), one per line.  Its
durability rule is the same for every user (DESIGN.md §8): ``append``
flushes and fsyncs each record before it returns, so a kill loses at
most the line being written; ``reopen`` truncates that torn line before
appending again, so no later record can glue onto it; and replay skips
and counts whatever it cannot use instead of raising.  The owners
(:class:`~repro.sim.checkpoint.SweepCheckpoint`, the worker sidecars,
:class:`~repro.service.store.JobStore`) add only their record kinds and
header checks.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.canon import canonical_dumps
from repro.errors import ConfigError, SimulationError

MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)
"""What decoding a record of the wrong shape raises: a missing field, a
value of the wrong type, an unknown kind, a number too large to convert."""


def decode_lines(lines: Iterable[bytes]) -> Tuple[List[dict], int]:
    """Decode UTF-8 JSON-object lines leniently.

    Returns ``(records, skipped)``: blank lines are ignored, and a line
    that is not UTF-8, not valid JSON, or not a JSON object is counted
    in ``skipped`` instead of raising.
    """
    records: List[dict] = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            # UnicodeDecodeError is a ValueError too.
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            skipped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped


def replay_records(
    records: Iterable[dict], handlers: Dict[str, Callable[[dict], None]]
) -> int:
    """Feed each record to the handler for its ``"record"`` kind.

    Returns how many records were skipped: those of a kind with no
    handler, and those whose handler raised one of :data:`MALFORMED`.
    A handler must therefore check a record completely before it
    changes any state.
    """
    skipped = 0
    for record in records:
        try:
            handlers[record.get("record")](record)
        except MALFORMED:
            skipped += 1
    return skipped


def checked_header(path: str, headers: List[dict], version: int, what: str) -> dict:
    """The last of a journal's header records; :class:`ConfigError`
    when there is none or it is not of ``version``."""
    if not headers:
        raise ConfigError(
            f"{path!r} has no header record; not a {what} "
            f"(or corrupted beyond recovery)"
        )
    header = headers[-1]
    if header.get("version") != version:
        raise ConfigError(
            f"{what} {path!r} is version {header.get('version')}, "
            f"this build reads version {version}"
        )
    return header


class Journal:
    """An open, append-only JSONL journal (see the module docstring)."""

    def __init__(self, path: str, fh) -> None:
        self.path = path
        self._fh = fh

    @classmethod
    def create(cls, path: str, header: dict) -> "Journal":
        """Start a fresh journal at ``path`` (truncating any existing
        file) whose first record is ``header``.

        A non-canonical ``header`` raises
        :class:`~repro.errors.ConfigError` before the file is touched.
        """
        line = canonical_dumps(header)
        journal = cls(path, open(path, "w", encoding="utf-8"))
        journal._write(line)
        return journal

    @classmethod
    def reopen(cls, path: str) -> Tuple["Journal", List[dict], int]:
        """Replay ``path`` and reopen it for appending.

        Returns ``(journal, records, skipped)``.  A trailing line that
        lost its newline (a crash mid-write) is truncated away first and
        counted once in ``skipped``: merely skipping it would let the
        next append glue onto the fragment, forming one invalid line
        that the following replay drops -- silently losing a durably
        fsynced record.  Lines :func:`decode_lines` rejects are counted
        too.
        """
        with open(path, "rb+") as fh:
            lines = fh.read().split(b"\n")
            tail = lines.pop()  # what follows the last newline: torn if not empty
            if tail:
                fh.truncate(fh.tell() - len(tail))
        records, skipped = decode_lines(lines)
        return cls(path, open(path, "a", encoding="utf-8")), records, skipped + bool(tail)

    def append(self, record: dict) -> None:
        """Durably append one record.

        A record that cannot be canonically serialized (a non-finite
        float, say) raises :class:`~repro.errors.ConfigError` and
        writes nothing; a closed journal raises
        :class:`~repro.errors.SimulationError`.
        """
        self._write(canonical_dumps(record))

    def _write(self, line: str) -> None:
        fh = self._fh
        if fh is None:
            raise SimulationError(f"journal {self.path!r} is closed")
        fh.write(line)
        fh.write("\n")
        # The record must be durable before the caller acts on it, or a
        # crash could lose a finished run or an accepted job.
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
