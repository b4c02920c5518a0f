"""Reverse-Pointer Table (RPT): RQA slot -> original row.

The RPT is a direct-mapped structure with one entry per quarantine slot
(Sec. IV-C).  Each entry holds a valid bit and the 21-bit original
address of the row occupying that slot, plus (in this model) the epoch
in which the slot was filled -- the datum behind the security rule that
*an RQA slot is never reused within the epoch it was filled*.

The hardware table is provisioned for every slot, but a run usually
fills a handful of them, so the model creates an entry on the slot's
first fill: an untouched slot reads as a never-filled entry without
allocating anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class RptEntry:
    """State of one quarantine slot.

    ``epoch`` records when the slot was *last filled* and is retained
    after invalidation: the no-intra-epoch-reuse rule applies to freed
    slots too (a slot vacated by an internal migration must still sit
    out the rest of its epoch).
    """

    valid: bool = False
    row_id: int = -1
    epoch: int = -1


_NEVER_FILLED = RptEntry()
"""What every untouched slot reads as (shared; never mutated)."""


class ReversePointerTable:
    """Direct-mapped slot -> row table with epoch tags."""

    def __init__(self, num_slots: int) -> None:
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.num_slots = num_slots
        #: Entries of the slots filled at least once, keyed by slot.
        self._entries: Dict[int, RptEntry] = {}
        self._valid = 0

    def _validate(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} outside RPT of {self.num_slots}")

    def entry(self, slot: int) -> RptEntry:
        """The entry for ``slot`` (do not mutate it directly).

        A filled slot returns its live entry; a never-filled slot
        returns a shared default entry (invalid, epoch ``-1``).
        """
        self._validate(slot)
        return self._entries.get(slot, _NEVER_FILLED)

    def is_valid(self, slot: int) -> bool:
        """Whether ``slot`` currently holds a quarantined row."""
        return self.entry(slot).valid

    def install(self, slot: int, row_id: int, epoch: int) -> None:
        """Record that ``row_id`` now occupies ``slot`` (filled in ``epoch``)."""
        self._validate(slot)
        if row_id < 0:
            raise ValueError("row_id must be non-negative")
        entry = self._entries.get(slot)
        if entry is None:
            self._entries[slot] = RptEntry(True, row_id, epoch)
            self._valid += 1
            return
        if not entry.valid:
            self._valid += 1
        entry.valid = True
        entry.row_id = row_id
        entry.epoch = epoch

    def invalidate(self, slot: int) -> Optional[int]:
        """Clear ``slot``; return the row it held, if any."""
        entry = self.entry(slot)
        if not entry.valid:
            return None
        row = entry.row_id
        entry.valid = False
        entry.row_id = -1
        self._valid -= 1
        # entry.epoch is retained: see RptEntry docstring.
        return row

    def resident_row(self, slot: int) -> Optional[int]:
        """Row occupying ``slot``, or ``None`` if the slot is free."""
        entry = self.entry(slot)
        return entry.row_id if entry.valid else None

    def valid_count(self) -> int:
        """Number of occupied slots."""
        return self._valid

    def stale_slots(self, current_epoch: int) -> List[int]:
        """Occupied slots filled before ``current_epoch``, ascending."""
        return sorted(
            slot
            for slot, entry in self._entries.items()
            if entry.valid and entry.epoch < current_epoch
        )

    @staticmethod
    def sram_bytes(num_slots: int, row_pointer_bits: int = 21) -> int:
        """SRAM size: one valid bit + reverse pointer per slot.

        23K slots at 22 bits each is ~64 KB, matching Sec. IV-C.
        """
        return math.ceil(num_slots * (1 + row_pointer_bits) / 8)

    @staticmethod
    def dram_bytes(num_slots: int) -> int:
        """DRAM footprint when memory-mapped (~0.1 MB, Sec. V-A).

        Entries round up to 4 bytes for aligned in-DRAM layout.
        """
        return num_slots * 4
