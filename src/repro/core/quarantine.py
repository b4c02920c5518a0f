"""Row Quarantine Area (RQA): circular allocation with lazy drain.

The RQA is a region of physical rows, invisible to software, managed as
a circular buffer (Sec. IV-D): new quarantines always land at the slot
under the head pointer, which then advances.  Two policies give the
security guarantee:

* **No intra-epoch reuse** -- a slot filled in epoch ``e`` must not be
  reallocated in epoch ``e``.  Equation 3 sizes the RQA so the head
  pointer cannot lap itself within 64 ms; this module *checks* the
  invariant and raises :class:`RqaExhaustedError` if it would be broken.
* **Lazy drain** -- at epoch boundaries the RQA is not flushed (that
  would cost a bulk eviction).  Instead, when the head reaches a slot
  still holding a row quarantined in a *previous* epoch, that stale row
  is first moved back to its original location (a 1.37 us eviction paid
  by the allocation, for 2.74 us total, Sec. IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.rpt import ReversePointerTable
from repro.errors import SimulationError
from repro.telemetry import NULL_TELEMETRY


class RqaExhaustedError(SimulationError):
    """An RQA slot would be reused within the epoch it was filled.

    Reaching this state means the quarantine area was under-provisioned
    for the observed migration rate -- the exact security failure that
    Equation 3's sizing rules out.  Under the default
    ``rqa_full_policy="fail"`` the simulator treats it as fatal; with
    ``"throttle"`` the orchestrator catches it and degrades to rate
    limiting the triggering row instead (DESIGN.md §8).
    """


@dataclass
class Allocation:
    """Result of allocating one quarantine slot."""

    slot: int
    evicted_row: Optional[int]
    """Row drained from the slot (it was quarantined in a past epoch)."""


class RowQuarantineArea:
    """Circular-buffer allocator over the RQA slots.

    The RQA owns the head pointer and the RPT (slot occupancy); the
    mitigation orchestrator owns the FPT and data movement.
    """

    def __init__(
        self,
        num_slots: int,
        rpt: Optional[ReversePointerTable] = None,
        telemetry=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.num_slots = num_slots
        self.rpt = rpt if rpt is not None else ReversePointerTable(num_slots)
        if self.rpt.num_slots != num_slots:
            raise ValueError("RPT size must match RQA size")
        self.head = 0
        self.allocations = 0
        self.evictions = 0
        self.head_wraps = 0
        #: Observability sink plus a simulated-time clock (the RQA has
        #: no notion of time itself; the owning scheme lends it one).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._clock = clock if clock is not None else (lambda: 0.0)

    def allocate(self, row_id: int, epoch: int) -> Allocation:
        """Claim the slot at the head for ``row_id`` in ``epoch``.

        Returns the slot index and, if the slot held a row from a past
        epoch, that row (the caller must migrate it home and invalidate
        its FPT entry).  Raises :class:`RqaExhaustedError` on intra-epoch
        reuse.
        """
        slot = self.head
        entry = self.rpt.entry(slot)
        evicted: Optional[int] = None
        if entry.epoch == epoch:
            # Applies to freed slots too: a slot vacated within this
            # epoch (internal migration) must not be refilled in it.
            raise RqaExhaustedError(
                f"slot {slot} filled in epoch {epoch} would be reused "
                f"in the same epoch (RQA of {self.num_slots} slots "
                "under-provisioned)"
            )
        if entry.valid:
            evicted = self.rpt.invalidate(slot)
            self.evictions += 1
        self.rpt.install(slot, row_id, epoch)
        self.head = (self.head + 1) % self.num_slots
        if self.head == 0:
            self.head_wraps += 1
        self.allocations += 1
        if self.telemetry.enabled:
            # One rotation event per row entering the circular buffer:
            # the standing record of which rows rotated through
            # quarantine, and when.
            self.telemetry.event(
                "quarantine_rotation", self._clock(),
                row=row_id, slot=slot, epoch=epoch,
                evicted_row=evicted, head_wrapped=self.head == 0,
            )
            self.telemetry.inc("rqa_rotations_total")
        return Allocation(slot=slot, evicted_row=evicted)

    def head_blocked(self, epoch: int) -> bool:
        """Would allocating in ``epoch`` hit the intra-epoch reuse guard?

        A side-effect-free probe of the condition that makes
        :meth:`allocate` raise, used by the orchestrator's degradation
        path to throttle *before* burning an allocation attempt.
        """
        return self.rpt.entry(self.head).epoch == epoch

    def release(self, slot: int) -> Optional[int]:
        """Free ``slot`` outside the allocation path (internal migration
        source, or background drain).  Returns the row it held."""
        return self.rpt.invalidate(slot)

    def resident_row(self, slot: int) -> Optional[int]:
        """Row currently quarantined in ``slot`` (``None`` if free)."""
        return self.rpt.resident_row(slot)

    def occupancy(self) -> int:
        """Number of occupied slots."""
        return self.rpt.valid_count()

    def stale_slots(self, current_epoch: int) -> list:
        """Slots holding rows quarantined before ``current_epoch``,
        in ascending slot order.

        Used by the optional background drain (Sec. IV-D notes that
        moving out old rows can be taken off the critical path by
        periodically draining old entries).
        """
        return self.rpt.stale_slots(current_epoch)
