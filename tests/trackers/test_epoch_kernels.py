"""Array-kernel / scalar parity for the tracker epoch API.

``observe_epoch`` must equal chunk-by-chunk ``observe_batch`` calls --
crossings per chunk AND full internal state -- and the epoch planning
predicates (``epoch_cannot_cross``, ``sparse_feed_mask``,
``settle_epoch_counters``) must never change what a scheme could
observe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry import Telemetry
from repro.trackers import (
    ExactTracker,
    HydraTracker,
    MisraGriesTracker,
    PerRowCounterTracker,
)
from repro.trackers.cbf import CountingBloomFilter
from repro.trackers.misra_gries import MisraGriesBank


def _stream(seed: int, n: int = 300, rows: int = 40, zero_every: int = 0):
    rng = np.random.default_rng(seed)
    row_ids = rng.integers(0, rows, size=n).astype(np.int64)
    counts = rng.integers(1, 60, size=n).astype(np.int64)
    if zero_every:
        counts[::zero_every] = 0
    return row_ids, counts


TRACKER_FACTORIES = {
    "exact": lambda: ExactTracker(100),
    "per-row": lambda: PerRowCounterTracker(100, cache_entries=8),
    "misra-gries": lambda: MisraGriesTracker(100, num_banks=4),
    "misra-gries-tiny": lambda: MisraGriesTracker(
        100, num_banks=4, entries_per_bank=3
    ),
    "hydra": lambda: HydraTracker(100),
}


@pytest.mark.parametrize("name", sorted(TRACKER_FACTORIES))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("zero_every", (0, 7))
def test_observe_epoch_matches_batched_observe(name, seed, zero_every):
    rows, counts = _stream(seed, zero_every=zero_every)
    vec = TRACKER_FACTORIES[name]()
    ref = TRACKER_FACTORIES[name]()
    got = vec.observe_epoch(rows, counts)
    want = np.array(
        [ref.observe_batch(int(r), int(c)) for r, c in zip(rows, counts)],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(got, want)
    assert vec.observations == ref.observations
    assert vec.triggers == ref.triggers
    for row in np.unique(rows).tolist():
        assert vec.estimate(int(row)) == ref.estimate(int(row))


def test_observe_fast_matches_observe_batch_state():
    """The inlined MG kernel must be indistinguishable from
    ``observe_batch`` under interleaved use."""
    fast = MisraGriesBank(50, capacity=4)
    slow = MisraGriesBank(50, capacity=4)
    rng = np.random.default_rng(11)
    for _ in range(500):
        row = int(rng.integers(0, 12))
        n = int(rng.integers(1, 30))
        assert fast.observe_fast(row, n) == slow.observe_batch(row, n)
    assert fast._counts == slow._counts
    assert fast._buckets == slow._buckets
    assert fast._min_count == slow._min_count
    assert fast.spill == slow.spill
    assert fast.observations == slow.observations
    assert fast.triggers == slow.triggers
    assert fast.spurious_installs == slow.spurious_installs


def _reference_observe_batch(bank: MisraGriesBank, row_id: int, n: int) -> int:
    """Misra-Gries batch update written step by step (the oracle the
    inlined ``observe_fast`` kernel is pinned to)."""
    bank.observations += n
    threshold = bank.threshold
    telemetry = bank._telemetry

    def bucket_add(row, count):
        bank._buckets.setdefault(count, {})[row] = None

    def install(row, base, count):
        bank._counts[row] = count
        bucket_add(row, count)
        if len(bank._counts) == 1 or count < bank._min_count:
            bank._min_count = count
        crossings = count // threshold - base // threshold
        if crossings > 0 and count >= threshold and base > 0:
            bank.spurious_installs += crossings
        if telemetry.enabled:
            telemetry.event(
                "tracker_install", bank._clock(),
                row=row, estimate=count, spill=base,
                spurious=bool(crossings > 0 and base > 0),
            )
        return crossings

    crossings = 0
    count = bank._counts.get(row_id)
    if count is not None:
        bank._bucket_remove(row_id, count)
        bank._counts[row_id] = count + n
        bucket_add(row_id, count + n)
        bank._advance_min()
        crossings = (count + n) // threshold - count // threshold
    elif len(bank._counts) < bank.capacity:
        crossings = install(row_id, bank.spill, bank.spill + n)
    else:
        bank._advance_min()
        misses_until_install = max(1, bank._min_count - bank.spill)
        if n >= misses_until_install:
            bank.spill += misses_until_install
            victim = next(iter(bank._buckets[bank._min_count]))
            bank._bucket_remove(victim, bank._min_count)
            del bank._counts[victim]
            if telemetry.enabled:
                telemetry.event(
                    "tracker_evict", bank._clock(),
                    row=victim, estimate=bank._min_count, replaced_by=row_id,
                )
            bank._advance_min()
            crossings = install(
                row_id, bank.spill, bank.spill + 1 + n - misses_until_install
            )
        else:
            bank.spill += n
    bank.triggers += crossings
    return crossings


@pytest.mark.parametrize("capacity", (1, 4, 64))
def test_observe_fast_matches_reference_state_and_events(capacity):
    """The inlined MG kernel equals the step-by-step reference: return
    values, full bank state and the traced install/evict events."""
    fast = MisraGriesBank(50, capacity=capacity)
    ref = MisraGriesBank(50, capacity=capacity)
    fast_tel, ref_tel = Telemetry(), Telemetry()
    fast.attach_telemetry(fast_tel, lambda: 1.0)
    ref.attach_telemetry(ref_tel, lambda: 1.0)
    rng = np.random.default_rng(11)
    for _ in range(500):
        row = int(rng.integers(0, 12))
        n = int(rng.integers(1, 30))
        assert fast.observe_fast(row, n) == _reference_observe_batch(ref, row, n)
    assert fast._counts == ref._counts
    assert fast._buckets == ref._buckets
    assert fast._min_count == ref._min_count
    assert fast.spill == ref.spill
    assert fast.observations == ref.observations
    assert fast.triggers == ref.triggers
    assert fast.spurious_installs == ref.spurious_installs
    events = [(e.ts_ns, e.kind, tuple(e.attrs.items())) for e in fast_tel.tracer.events()]
    assert events == [
        (e.ts_ns, e.kind, tuple(e.attrs.items())) for e in ref_tel.tracer.events()
    ]
    assert fast.unsettled_installs == sum(kind == "tracker_install" for _, kind, _ in events)


@pytest.mark.parametrize("name", sorted(TRACKER_FACTORIES))
@pytest.mark.parametrize("seed", (3, 4))
def test_epoch_cannot_cross_is_sound(name, seed):
    """A cannot-cross verdict must mean zero crossings when fed."""
    rows, counts = _stream(seed, n=60, rows=30)
    tracker = TRACKER_FACTORIES[name]()
    uniq, inverse = np.unique(rows, return_inverse=True)
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    if tracker.epoch_cannot_cross(uniq, totals):
        crossings = tracker.observe_epoch(rows, counts)
        assert int(crossings.sum()) == 0


def test_epoch_cannot_cross_rejects_hot_rows():
    tracker = ExactTracker(100)
    uniq = np.array([5], dtype=np.int64)
    totals = np.array([150], dtype=np.int64)
    assert not tracker.epoch_cannot_cross(uniq, totals)
    # Carry-in counts push a small epoch total over the line.
    tracker.observe_batch(7, 80)
    assert not tracker.epoch_cannot_cross(
        np.array([7], dtype=np.int64), np.array([30], dtype=np.int64)
    )


def test_sparse_feed_mask_omission_is_unobservable():
    """Feeding only the masked rows of a fresh bank (and settling the
    rest in bulk) must leave identical estimates and crossings for the
    fed rows, and identical rank/bank counters."""
    full = MisraGriesTracker(100, num_banks=2, entries_per_bank=32)
    sparse = MisraGriesTracker(100, num_banks=2, entries_per_bank=32)
    rows, counts = _stream(8, n=120, rows=20)
    uniq, inverse = np.unique(rows, return_inverse=True)
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    feed = sparse.sparse_feed_mask(uniq, totals)
    full_crossings = full.observe_epoch(rows, counts)
    chunk_feed = feed[inverse]
    sparse_crossings = sparse.observe_epoch(
        rows[chunk_feed], counts[chunk_feed]
    )
    sparse.settle_epoch_counters(rows[~chunk_feed], counts[~chunk_feed])
    np.testing.assert_array_equal(
        full_crossings[chunk_feed], sparse_crossings
    )
    assert int(full_crossings[~chunk_feed].sum()) == 0
    for row, must_feed in zip(uniq.tolist(), feed.tolist()):
        if must_feed:
            assert sparse.estimate(int(row)) == full.estimate(int(row))
    assert sparse.observations == full.observations
    assert sparse.triggers == full.triggers


def test_sparse_feed_mask_conservative_under_pressure():
    """Capacity pressure, reserve, carried state, or spill force a
    full feed (all-True mask)."""
    bank = MisraGriesBank(100, capacity=4)
    uniq = np.arange(6, dtype=np.int64)
    totals = np.full(6, 10, dtype=np.int64)
    assert bank.sparse_feed_mask(uniq, totals).all()  # over capacity
    small = uniq[:2]
    small_totals = totals[:2]
    assert not bank.sparse_feed_mask(small, small_totals).any()
    assert bank.sparse_feed_mask(small, small_totals, reserve=3).all()
    bank.observe_batch(99, 1)  # non-empty table
    assert bank.sparse_feed_mask(small, small_totals).all()


def test_settle_epoch_counters_matches_feeding_exact():
    """For exact counters the settled totals are observable state."""
    fed = ExactTracker(1000)
    settled = ExactTracker(1000)
    rows, counts = _stream(9, n=50, rows=10)
    fed.observe_epoch(rows, counts)
    settled.settle_epoch_counters(rows, counts)
    assert settled.observations == fed.observations
    for row in np.unique(rows).tolist():
        assert settled.estimate(int(row)) == fed.estimate(int(row))


def test_cbf_increment_batch_matches_sequential():
    batched = CountingBloomFilter(counters=64, hashes=3)
    sequential = CountingBloomFilter(counters=64, hashes=3)
    rng = np.random.default_rng(21)
    rows = rng.integers(0, 1000, size=200).astype(np.int64)
    amounts = rng.integers(0, 9, size=200).astype(np.int64)
    batched.increment_batch(rows, amounts)
    for row, amount in zip(rows.tolist(), amounts.tolist()):
        sequential.increment(int(row), int(amount))
    np.testing.assert_array_equal(batched._counters, sequential._counters)
    for row in np.unique(rows).tolist():
        assert batched.estimate(int(row)) == sequential.estimate(int(row))


def test_cbf_increment_batch_validates():
    cbf = CountingBloomFilter(counters=16, hashes=2)
    with pytest.raises(ValueError):
        cbf.increment_batch(
            np.array([1, 2], dtype=np.int64), np.array([1], dtype=np.int64)
        )
    with pytest.raises(ValueError):
        cbf.increment_batch(
            np.array([1], dtype=np.int64), np.array([-1], dtype=np.int64)
        )
