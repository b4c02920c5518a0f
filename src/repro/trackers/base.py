"""Tracker interface shared by every ART implementation.

The tracker contract, from the paper's security argument (Sec. VI-A,
property P1): the tracker must flag a row every time it crosses a
multiple of the *effective threshold* ``T = T_RH / 2`` within one epoch,
so that across the at-most-two tracking epochs that span any refresh
window, a row never reaches ``T_RH`` activations without a mitigation.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional

import numpy as np

from repro.telemetry import NULL_TELEMETRY


def _zero_clock() -> float:
    """Default simulated-time source before telemetry is attached."""
    return 0.0


def segmented_stream_crossings(
    rows: np.ndarray,
    counts: np.ndarray,
    base: Dict[int, int],
    threshold: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-chunk threshold crossings of an exact-counting stream.

    For exact per-row counters the crossings of chunk ``i`` depend only
    on the running total of ``rows[i]`` up to that chunk (cross-row
    order is irrelevant), so the whole stream reduces to a segmented
    cumulative sum: group chunks by row (stable argsort), accumulate
    within each group on top of ``base[row]``, and count the threshold
    multiples stepped over per chunk.

    Returns ``(crossings, unique_rows, unique_totals)`` where
    ``crossings[i]`` equals what ``observe_batch(rows[i], counts[i])``
    would have returned in stream order.
    """
    n = len(rows)
    uniq, inverse = np.unique(rows, return_inverse=True)
    starts = np.fromiter(
        (base[row] for row in uniq.tolist()), dtype=np.int64, count=len(uniq)
    )
    order = np.argsort(inverse, kind="stable")
    sorted_counts = counts[order].astype(np.int64)
    sorted_inverse = inverse[order]
    cum = np.cumsum(sorted_counts)
    seg_first = np.searchsorted(sorted_inverse, np.arange(len(uniq)))
    seg_offset = np.zeros(len(uniq), dtype=np.int64)
    seg_offset[1:] = cum[seg_first[1:] - 1]
    after = cum - seg_offset[sorted_inverse] + starts[sorted_inverse]
    before = after - sorted_counts
    crossings_sorted = after // threshold - before // threshold
    crossings = np.zeros(n, dtype=np.int64)
    crossings[order] = crossings_sorted
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    return crossings, uniq, totals


class AggressorTracker(abc.ABC):
    """Abstract aggressor-row tracker (the ART)."""

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.observations = 0
        self.triggers = 0
        self._telemetry = NULL_TELEMETRY
        self._clock: Callable[[], float] = _zero_clock

    def attach_telemetry(
        self, telemetry, clock: Callable[[], float]
    ) -> None:
        """Wire the owning scheme's telemetry and simulated-time clock.

        Trackers have no notion of time; ``clock`` returns the scheme's
        last-seen access timestamp so install/evict events line up with
        the rest of the trace.
        """
        self._telemetry = telemetry
        self._clock = clock

    def collect_metrics(self, telemetry, **labels) -> None:
        """Snapshot-time export of the tracker's running statistics."""
        registry = telemetry.registry
        registry.counter("tracker_observations_total").set_total(
            self.observations, **labels
        )
        registry.counter("tracker_triggers_total").set_total(
            self.triggers, **labels
        )

    @abc.abstractmethod
    def observe(self, row_id: int) -> bool:
        """Record one activation of *physical* row ``row_id``.

        Returns ``True`` if this activation makes the row's (estimated)
        count reach a multiple of the effective threshold, i.e. the
        mitigation must quarantine/swap the row now.
        """

    def observe_batch(self, row_id: int, count: int) -> int:
        """Record ``count`` back-to-back activations of ``row_id``.

        Returns the number of threshold crossings.  The default loops
        over :meth:`observe`; subclasses override with O(1) batch math
        for the performance sweeps.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return sum(1 for _ in range(count) if self.observe(row_id))

    def observe_epoch(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Record a whole epoch's (row, count) chunk stream at once.

        Returns the per-chunk crossings mask (int64, one entry per
        chunk): element ``i`` is the number of threshold crossings chunk
        ``i`` caused, exactly as ``observe_batch(rows[i], counts[i])``
        would have returned when called in stream order.  The default
        loops over :meth:`observe_batch`; subclasses override with
        array kernels where order permits.
        """
        if len(rows) != len(counts):
            raise ValueError("rows and counts must align")
        out = np.zeros(len(rows), dtype=np.int64)
        observe_batch = self.observe_batch
        for i, (row, count) in enumerate(
            zip(rows.tolist(), counts.tolist())
        ):
            crossings = observe_batch(row, count)
            if crossings:
                out[i] = crossings
        return out

    def chunk_kernel(self) -> Callable[[int, int], int]:
        """A per-chunk feed callable for fused scheme loops.

        Returns a ``kernel(row, count) -> crossings`` for ``count >= 1``
        with exactly :meth:`observe_batch`'s semantics (counters and
        events included).  Schemes' fused epoch paths call this once
        per epoch and then invoke the kernel per chunk, skipping the
        dispatch layers of the scalar path.
        """
        return self.observe_batch

    def epoch_cannot_cross(
        self, unique_rows: np.ndarray, unique_totals: np.ndarray
    ) -> bool:
        """Whether an epoch with these per-row totals provably yields
        zero threshold crossings against the tracker's *current* state.

        Used by vectorized scheme paths to settle entire eventless
        epochs in bulk accounting.  Must err on the side of ``False``:
        a ``True`` here licenses skipping per-chunk tracker simulation
        for the epoch (internal estimator state may then diverge until
        the next epoch reset, but observable behaviour may not).
        The conservative default refuses.
        """
        return False

    def sparse_feed_mask(
        self,
        unique_rows: np.ndarray,
        unique_totals: np.ndarray,
        reserve: int = 0,
    ) -> np.ndarray:
        """Which distinct rows must stream through the per-chunk kernel.

        Returns a bool mask over ``unique_rows``: ``True`` rows must be
        fed chunk-by-chunk (they may cross, or their presence affects
        other rows' estimates); ``False`` rows provably produce zero
        crossings all epoch even if *omitted* from the stream, so a
        scheme may skip their kernel calls and bulk-settle them via
        :meth:`settle_epoch_counters`.  ``reserve`` is the caller's
        upper bound on extra distinct rows (quarantine destinations,
        table rows) that may be observed this epoch beyond
        ``unique_rows`` -- capacity-sensitive trackers must stay safe
        under that many additional installs.  The conservative default
        feeds everything.
        """
        return np.ones(len(unique_rows), dtype=bool)

    def settle_epoch_counters(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> None:
        """Advance observation statistics for a bulk-settled epoch.

        Only valid for streams :meth:`epoch_cannot_cross` or
        :meth:`sparse_feed_mask` cleared for settling (zero crossings,
        so ``triggers`` is untouched).
        """
        self.observations += int(counts.sum())

    @abc.abstractmethod
    def estimate(self, row_id: int) -> int:
        """Current estimated activation count for ``row_id`` (0 if untracked)."""

    def drop(self, row_id: int) -> bool:
        """Discard the tracker's state for ``row_id`` (fault injection).

        Models a lost/corrupted ART entry: the row's activation history
        vanishes and counting restarts from zero, the tracker-side fault
        the chaos harness injects via the ``tracker_drop`` site.  Returns
        whether an entry existed.  The default (for trackers without
        per-row state to drop) is a no-op.
        """
        return False

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all counts at an epoch boundary."""

    def note_trigger(self) -> None:
        """Bump the trigger statistic (called by subclasses)."""
        self.triggers += 1


class PerBankTracker(AggressorTracker):
    """Compose one tracker instance per bank into a rank-level ART.

    Graphene (and hence RRS and AQUA) provision the Misra-Gries summary
    per bank, because the activation budget ``ACTmax`` is a per-bank
    bound.  ``bank_of`` maps a physical row id to its bank and
    ``banks_of`` maps an int64 row array elementwise the same way; both
    default to the interleaved ``row % num_banks``.  A custom
    ``bank_of`` without a ``banks_of`` is applied row by row.
    """

    def __init__(
        self,
        threshold: int,
        num_banks: int,
        bank_of: Optional[Callable[[int], int]] = None,
        *,
        factory: Callable[[int], AggressorTracker],
        banks_of: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        super().__init__(threshold)
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if bank_of is None:
            bank_of = lambda row: row % num_banks  # noqa: E731
            banks_of = lambda rows: rows % num_banks  # noqa: E731
        elif banks_of is None:
            banks_of = lambda rows: np.fromiter(  # noqa: E731
                map(bank_of, rows.tolist()), dtype=np.int64, count=len(rows)
            )
        self._bank_of = bank_of
        self._banks_of = banks_of
        self._banks: Dict[int, AggressorTracker] = {
            bank: factory(threshold) for bank in range(num_banks)
        }

    def bank_ids(self, rows: np.ndarray) -> np.ndarray:
        """The bank of every row in ``rows`` (int64, elementwise
        ``bank_of``): how the epoch predicates partition a stream."""
        return self._banks_of(rows)

    def attach_telemetry(
        self, telemetry, clock: Callable[[], float]
    ) -> None:
        super().attach_telemetry(telemetry, clock)
        for tracker in self._banks.values():
            tracker.attach_telemetry(telemetry, clock)

    def observe(self, row_id: int) -> bool:
        self.observations += 1
        triggered = self._banks[self._bank_of(row_id)].observe(row_id)
        if triggered:
            self.note_trigger()
        return triggered

    def observe_batch(self, row_id: int, count: int) -> int:
        self.observations += count
        crossings = self._banks[self._bank_of(row_id)].observe_batch(
            row_id, count
        )
        self.triggers += crossings
        return crossings

    def observe_epoch(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Epoch feed through the per-bank kernels.

        Per-bank stream order equals global stream order restricted to
        the bank, so dispatching chunk-by-chunk through the fast bank
        kernels is exact; the rank-level counters are settled in bulk.
        """
        if len(rows) != len(counts):
            raise ValueError("rows and counts must align")
        out = np.zeros(len(rows), dtype=np.int64)
        kernel = self.chunk_kernel()
        if kernel is self.observe_batch:
            return super().observe_epoch(rows, counts)
        for i, (row, count) in enumerate(
            zip(rows.tolist(), counts.tolist())
        ):
            if count == 0:
                # observe_batch is a stateless no-op for empty chunks;
                # the fast kernels assume count >= 1.
                continue
            crossings = kernel(row, count)
            if crossings:
                out[i] = crossings
        return out

    def chunk_kernel(self) -> Callable[[int, int], int]:
        bank_of = self._bank_of
        banks = self._banks
        fast = {
            bank: getattr(tracker, "observe_fast", None)
            for bank, tracker in banks.items()
        }
        if any(fn is None for fn in fast.values()):
            return self.observe_batch

        def kernel(row_id: int, count: int) -> int:
            self.observations += count
            crossings = fast[bank_of(row_id)](row_id, count)
            if crossings:
                self.triggers += crossings
            return crossings

        return kernel

    def epoch_cannot_cross(
        self, unique_rows: np.ndarray, unique_totals: np.ndarray
    ) -> bool:
        """Partition the rows by bank and ask each bank tracker."""
        if len(unique_rows) == 0:
            return True
        bank_ids = self.bank_ids(unique_rows)
        for bank, tracker in self._banks.items():
            mask = bank_ids == bank
            if not mask.any():
                continue
            if not tracker.epoch_cannot_cross(
                unique_rows[mask], unique_totals[mask]
            ):
                return False
        return True

    def sparse_feed_mask(
        self,
        unique_rows: np.ndarray,
        unique_totals: np.ndarray,
        reserve: int = 0,
    ) -> np.ndarray:
        """Partition by bank and delegate; ``reserve`` applies per bank."""
        if len(unique_rows) == 0:
            return np.ones(0, dtype=bool)
        out = np.ones(len(unique_rows), dtype=bool)
        bank_ids = self.bank_ids(unique_rows)
        for bank, tracker in self._banks.items():
            mask = bank_ids == bank
            if not mask.any():
                continue
            out[mask] = tracker.sparse_feed_mask(
                unique_rows[mask], unique_totals[mask], reserve
            )
        return out

    def settle_epoch_counters(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> None:
        """Bulk-add the observation counters for a skipped epoch.

        Pairs with a ``True`` :meth:`epoch_cannot_cross` verdict: when a
        scheme settles an entire eventless epoch without feeding the
        estimators, the observation statistics (rank- and bank-level)
        must still advance exactly as the scalar path's would have.
        """
        total = int(counts.sum())
        self.observations += total
        per_bank = np.bincount(
            self.bank_ids(rows), weights=counts, minlength=len(self._banks)
        ).astype(np.int64)
        for bank, tracker in self._banks.items():
            tracker.observations += int(per_bank[bank])

    def estimate(self, row_id: int) -> int:
        return self._banks[self._bank_of(row_id)].estimate(row_id)

    def drop(self, row_id: int) -> bool:
        return self._banks[self._bank_of(row_id)].drop(row_id)

    def reset(self) -> None:
        for tracker in self._banks.values():
            tracker.reset()

    def bank_tracker(self, bank: int) -> AggressorTracker:
        """The underlying tracker for ``bank`` (for tests/inspection)."""
        return self._banks[bank]
