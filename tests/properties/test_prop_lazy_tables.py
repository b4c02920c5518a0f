"""Property tests: lazily built slot tables equal eager list-backed ones.

The RPT creates an entry on a slot's first fill and the FPT-Cache
creates a set's ways on the first install into it.  Random operation
sequences run against both the real structures and eager reference
models that allocate every slot and way up front (the structures'
original layout); every step must return the same result.  Reads and
scans of untouched slots must not allocate at all.
"""

from typing import List, Optional

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.fpt_cache import RRIP_LONG, RRIP_MAX, FptCache
from repro.core.quarantine import RowQuarantineArea, RqaExhaustedError
from repro.core.rpt import ReversePointerTable

NUM_SLOTS = 12


# ------------------------------------------------------------ reference RPT


class _Entry:
    def __init__(self) -> None:
        self.valid = False
        self.row_id = -1
        self.epoch = -1


class EagerRpt:
    """One entry object per slot, allocated up front."""

    def __init__(self, num_slots: int) -> None:
        self.num_slots = num_slots
        self.entries = [_Entry() for _ in range(num_slots)]

    def entry(self, slot: int) -> _Entry:
        if not 0 <= slot < self.num_slots:
            raise ValueError(slot)
        return self.entries[slot]

    def is_valid(self, slot: int) -> bool:
        return self.entry(slot).valid

    def install(self, slot: int, row_id: int, epoch: int) -> None:
        entry = self.entry(slot)
        entry.valid, entry.row_id, entry.epoch = True, row_id, epoch

    def invalidate(self, slot: int) -> Optional[int]:
        entry = self.entry(slot)
        if not entry.valid:
            return None
        row = entry.row_id
        entry.valid, entry.row_id = False, -1
        return row

    def resident_row(self, slot: int) -> Optional[int]:
        entry = self.entry(slot)
        return entry.row_id if entry.valid else None

    def valid_count(self) -> int:
        return sum(1 for entry in self.entries if entry.valid)

    def stale_slots(self, current_epoch: int) -> List[int]:
        return [
            slot
            for slot, entry in enumerate(self.entries)
            if entry.valid and entry.epoch < current_epoch
        ]


def _entry_state(entry) -> tuple:
    return (entry.valid, entry.row_id, entry.epoch)


slots = st.integers(min_value=0, max_value=NUM_SLOTS - 1)
table_rows = st.integers(min_value=0, max_value=500)
epochs = st.integers(min_value=0, max_value=4)


@st.composite
def rpt_ops(draw):
    kinds = ("install", "invalidate", "entry", "resident", "valid",
             "stale", "count")
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=80))):
        kind = draw(st.sampled_from(kinds))
        ops.append((kind, draw(slots), draw(table_rows), draw(epochs)))
    return ops


@st.composite
def rqa_ops(draw):
    kinds = ("allocate", "release", "stale", "occupancy", "head_blocked",
             "resident", "epoch")
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=80))):
        kind = draw(st.sampled_from(kinds))
        ops.append((kind, draw(slots), draw(table_rows)))
    return ops


class TestRptMatchesEager:
    @given(rpt_ops())
    @settings(max_examples=200)
    def test_every_step_equal(self, ops):
        lazy = ReversePointerTable(NUM_SLOTS)
        eager = EagerRpt(NUM_SLOTS)
        for kind, slot, row, epoch in ops:
            if kind == "install":
                lazy.install(slot, row, epoch)
                eager.install(slot, row, epoch)
            elif kind == "invalidate":
                assert lazy.invalidate(slot) == eager.invalidate(slot)
            elif kind == "entry":
                assert _entry_state(lazy.entry(slot)) == _entry_state(
                    eager.entry(slot)
                )
            elif kind == "resident":
                assert lazy.resident_row(slot) == eager.resident_row(slot)
            elif kind == "valid":
                assert lazy.is_valid(slot) == eager.is_valid(slot)
            elif kind == "stale":
                assert lazy.stale_slots(epoch) == eager.stale_slots(epoch)
            else:
                assert lazy.valid_count() == eager.valid_count()
        assert lazy.valid_count() == eager.valid_count()
        assert len(lazy._entries) <= NUM_SLOTS


class TestRqaMatchesEager:
    @given(rqa_ops())
    @settings(max_examples=200)
    def test_every_step_equal(self, ops):
        lazy = RowQuarantineArea(NUM_SLOTS)
        eager = RowQuarantineArea(NUM_SLOTS, rpt=EagerRpt(NUM_SLOTS))
        epoch = 0
        for kind, slot, row in ops:
            if kind == "allocate":
                outcomes = []
                for rqa in (lazy, eager):
                    try:
                        allocation = rqa.allocate(row, epoch)
                        outcomes.append(
                            (allocation.slot, allocation.evicted_row)
                        )
                    except RqaExhaustedError:
                        outcomes.append("exhausted")
                assert outcomes[0] == outcomes[1]
            elif kind == "release":
                assert lazy.release(slot) == eager.release(slot)
            elif kind == "stale":
                assert lazy.stale_slots(epoch) == eager.stale_slots(epoch)
            elif kind == "occupancy":
                assert lazy.occupancy() == eager.occupancy()
            elif kind == "head_blocked":
                assert lazy.head_blocked(epoch) == eager.head_blocked(epoch)
            elif kind == "resident":
                assert lazy.resident_row(slot) == eager.resident_row(slot)
            else:
                epoch += 1
            assert lazy.head == eager.head
            assert lazy.evictions == eager.evictions


# ---------------------------------------------------------- reference cache


class EagerFptCache:
    """Every set's ways allocated up front, in a list of lists."""

    def __init__(self, num_entries: int, ways: int, group_size: int) -> None:
        self.group_size = group_size
        self.num_sets = num_entries // ways
        self.sets = [
            [[False, -1, RRIP_MAX, -1, False] for _ in range(ways)]
            for _ in range(self.num_sets)
        ]  # way = [valid, tag, rrpv, slot, singleton]
        self.hits = self.misses = 0
        self.singleton_filtered = self.corruptions = 0

    def _ways(self, row_id: int) -> list:
        return self.sets[(row_id // self.group_size) % self.num_sets]

    def lookup(self, row_id: int) -> Optional[int]:
        for way in self._ways(row_id):
            if way[0] and way[1] == row_id:
                way[2] = 0
                self.hits += 1
                return way[3]
        self.misses += 1
        return None

    def covered_by_singleton(self, row_id: int) -> bool:
        group = row_id // self.group_size
        for way in self._ways(row_id):
            if (
                way[0] and way[4] and way[1] != row_id
                and way[1] // self.group_size == group
            ):
                self.singleton_filtered += 1
                return True
        return False

    def install(self, row_id: int, slot: int, singleton: bool) -> None:
        ways = self._ways(row_id)
        for way in ways:
            if way[0] and way[1] == row_id:
                way[3], way[4], way[2] = slot, singleton, 0
                return
        victim = next((way for way in ways if not way[0]), None)
        while victim is None:
            victim = next((way for way in ways if way[2] >= RRIP_MAX), None)
            if victim is None:
                for way in ways:
                    way[2] += 1
        victim[:] = [True, row_id, RRIP_LONG, slot, singleton]

    def invalidate(self, row_id: int) -> bool:
        for way in self._ways(row_id):
            if way[0] and way[1] == row_id:
                way[:] = [False, -1, RRIP_MAX, way[3], False]
                return True
        return False

    def corrupt(self, row_id: int) -> Optional[int]:
        for way in self._ways(row_id):
            if way[0]:
                victim = way[1]
                way[:] = [False, -1, RRIP_MAX, way[3], False]
                self.corruptions += 1
                return victim
        return None

    def set_group_singleton(self, group: int, singleton: bool) -> None:
        for way in self.sets[group % self.num_sets]:
            if way[0] and way[1] // self.group_size == group:
                way[4] = singleton

    def occupancy(self) -> int:
        return sum(1 for ways in self.sets for way in ways if way[0])

    def valid_ways(self) -> list:
        return [
            (index, way[1], way[2], way[3], way[4])
            for index, ways in enumerate(self.sets)
            for way in ways
            if way[0]
        ]


def _valid_ways(cache: FptCache) -> list:
    return [
        (index, entry.tag, entry.rrpv, entry.slot, entry.singleton)
        for index in sorted(cache._sets)
        for entry in cache._sets[index]
        if entry.valid
    ]


cache_rows = st.integers(min_value=0, max_value=255)
cache_slots = st.integers(min_value=0, max_value=63)


@st.composite
def cache_ops(draw):
    kinds = ("lookup", "install", "invalidate", "corrupt", "singleton",
             "covered", "occupancy")
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=120))):
        ops.append((
            draw(st.sampled_from(kinds)),
            draw(cache_rows),
            draw(cache_slots),
            draw(st.booleans()),
        ))
    return ops


class TestFptCacheMatchesEager:
    @given(cache_ops())
    @settings(max_examples=200)
    def test_every_step_equal(self, ops):
        # 8 sets of 4 ways over 16 groups: sets alias, ways churn.
        lazy = FptCache(num_entries=32, ways=4, group_size=16)
        eager = EagerFptCache(num_entries=32, ways=4, group_size=16)
        for kind, row, slot, flag in ops:
            if kind == "lookup":
                assert lazy.lookup(row) == eager.lookup(row)
            elif kind == "install":
                lazy.install(row, slot, singleton=flag)
                eager.install(row, slot, singleton=flag)
            elif kind == "invalidate":
                assert lazy.invalidate(row) == eager.invalidate(row)
            elif kind == "corrupt":
                assert lazy.corrupt(row) == eager.corrupt(row)
            elif kind == "singleton":
                group = row // 16
                lazy.set_group_singleton(group, flag)
                eager.set_group_singleton(group, flag)
            elif kind == "covered":
                assert lazy.covered_by_singleton(
                    row
                ) == eager.covered_by_singleton(row)
            else:
                assert lazy.occupancy() == eager.occupancy()
            assert _valid_ways(lazy) == eager.valid_ways()
        assert (lazy.hits, lazy.misses) == (eager.hits, eager.misses)
        assert lazy.singleton_filtered == eager.singleton_filtered
        assert lazy.corruptions == eager.corruptions


# --------------------------------------------------- untouched slots are free


class TestReadsDoNotAllocate:
    @given(st.lists(slots, max_size=30), epochs)
    @settings(max_examples=50)
    def test_rpt_reads_and_scans(self, probes, epoch):
        rpt = ReversePointerTable(NUM_SLOTS)
        for slot in probes:
            rpt.entry(slot)
            rpt.is_valid(slot)
            rpt.resident_row(slot)
            rpt.invalidate(slot)
        assert rpt.stale_slots(epoch) == []
        assert rpt.valid_count() == 0
        assert rpt._entries == {}

    @given(st.lists(slots, max_size=30), epochs)
    @settings(max_examples=50)
    def test_rqa_reads_and_scans(self, probes, epoch):
        rqa = RowQuarantineArea(NUM_SLOTS)
        for slot in probes:
            rqa.resident_row(slot)
            rqa.release(slot)
        assert not rqa.head_blocked(epoch)
        assert rqa.stale_slots(epoch) == []
        assert rqa.occupancy() == 0
        assert rqa.rpt._entries == {}

    @given(st.lists(cache_rows, max_size=30), st.booleans())
    @settings(max_examples=50)
    def test_fpt_cache_reads_and_scans(self, probes, flag):
        cache = FptCache(num_entries=32, ways=4, group_size=16)
        for row in probes:
            assert cache.lookup(row) is None
            assert not cache.covered_by_singleton(row)
            assert not cache.invalidate(row)
            assert cache.corrupt(row) is None
            cache.set_group_singleton(row // 16, flag)
        assert cache.occupancy() == 0
        assert cache._sets == {}

    def test_full_size_aqua_tables_start_empty(self):
        """The paper's provisioning (23K slots, 4K cache entries)
        costs nothing until a row is quarantined."""
        rqa = RowQuarantineArea(23_053)
        cache = FptCache(num_entries=4096)
        assert rqa.stale_slots(1) == [] and rqa.occupancy() == 0
        assert cache.lookup(12345) is None and cache.occupancy() == 0
        assert rqa.rpt._entries == {} and cache._sets == {}
