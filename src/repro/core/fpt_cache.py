"""FPT-Cache: on-chip cache of in-DRAM FPT entries (Sec. V-C, V-D).

A 16-way set-associative cache with RRIP replacement holding FPT entries
*only for currently-quarantined rows* (so its working set is at most the
RQA population, ~23K rows, not the 2M rows of memory).

Two deliberate design points from the paper:

* **Group-aligned indexing** -- all rows of a bloom-filter group map to
  the same set, enabling the singleton probe below.
* **Singleton bit** -- set on a cached entry when its group has exactly
  one valid FPT entry.  On a lookup miss, a second probe of the same set
  checks for any co-group entry with the singleton bit: a hit proves no
  *other* row of the group is quarantined, so the DRAM FPT lookup that a
  bloom-filter false positive would otherwise force can be skipped.

A set's ways are created by the first install into it; until then the
set reads as all-invalid, so lookups and probes of untouched sets
allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


RRIP_BITS = 2
RRIP_MAX = (1 << RRIP_BITS) - 1
RRIP_LONG = RRIP_MAX - 1
"""Insertion RRPV: 'long re-reference interval' per the RRIP policy."""


@dataclass
class FptCacheEntry:
    """One cache way: valid + tag + RRPV + FPT entry + singleton bit."""

    valid: bool = False
    tag: int = -1
    rrpv: int = RRIP_MAX
    slot: int = -1
    singleton: bool = False


class FptCache:
    """16-way set-associative, RRIP-replaced cache of FPT entries."""

    def __init__(
        self,
        num_entries: int = 4096,
        ways: int = 16,
        group_size: int = 16,
    ) -> None:
        if num_entries < ways or num_entries % ways != 0:
            raise ValueError("num_entries must be a positive multiple of ways")
        self.ways = ways
        self.group_size = group_size
        self.num_sets = num_entries // ways
        #: Ways of the sets installed into at least once, keyed by set.
        self._sets: Dict[int, List[FptCacheEntry]] = {}
        self.hits = 0
        self.misses = 0
        self.singleton_filtered = 0
        self.corruptions = 0

    @property
    def num_entries(self) -> int:
        return self.num_sets * self.ways

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint: ~4 bytes/entry (16 KB at 4K entries).

        Valid + ~11-bit tag + 2 RRIP bits + 16-bit FPT entry + singleton.
        """
        return self.num_entries * 4

    def _group_of(self, row_id: int) -> int:
        return row_id // self.group_size

    def _set_of(self, row_id: int) -> Sequence[FptCacheEntry]:
        """The ways of ``row_id``'s set (empty if never installed into)."""
        # Group-aligned indexing: every row of a group lands in one set.
        return self._sets.get(self._group_of(row_id) % self.num_sets, ())

    def lookup(self, row_id: int) -> Optional[int]:
        """Return the cached RQA slot for ``row_id``, or ``None`` on miss."""
        for entry in self._set_of(row_id):
            if entry.valid and entry.tag == row_id:
                entry.rrpv = 0
                self.hits += 1
                return entry.slot
        self.misses += 1
        return None

    def covered_by_singleton(self, row_id: int) -> bool:
        """Second probe after a miss: is the group's only entry cached?

        True means ``row_id`` itself cannot have a valid FPT entry (the
        group's single entry belongs to a different row that is present
        in this set), so the DRAM lookup is skipped.
        """
        group = self._group_of(row_id)
        for entry in self._set_of(row_id):
            if (
                entry.valid
                and entry.singleton
                and entry.tag != row_id
                and self._group_of(entry.tag) == group
            ):
                self.singleton_filtered += 1
                return True
        return False

    def install(self, row_id: int, slot: int, singleton: bool) -> None:
        """Insert/refresh the entry for ``row_id`` (RRIP victim selection)."""
        index = self._group_of(row_id) % self.num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [
                FptCacheEntry() for _ in range(self.ways)
            ]
        for entry in ways:
            if entry.valid and entry.tag == row_id:
                entry.slot = slot
                entry.singleton = singleton
                entry.rrpv = 0
                return
        victim = self._find_victim(ways)
        victim.valid = True
        victim.tag = row_id
        victim.slot = slot
        victim.singleton = singleton
        victim.rrpv = RRIP_LONG

    @staticmethod
    def _find_victim(ways: List[FptCacheEntry]) -> FptCacheEntry:
        """RRIP victim: first invalid way, else first RRPV==max (aging)."""
        for entry in ways:
            if not entry.valid:
                return entry
        while True:
            for entry in ways:
                if entry.rrpv >= RRIP_MAX:
                    return entry
            for entry in ways:
                entry.rrpv += 1

    def invalidate(self, row_id: int) -> bool:
        """Drop ``row_id``'s entry if cached; return whether it was."""
        for entry in self._set_of(row_id):
            if entry.valid and entry.tag == row_id:
                entry.valid = False
                entry.tag = -1
                entry.singleton = False
                entry.rrpv = RRIP_MAX
                return True
        return False

    def corrupt(self, row_id: int) -> Optional[int]:
        """Fault-injection hook: corrupt one valid way of ``row_id``'s set.

        Models a detected SRAM bit flip: cache entries carry parity, so
        a corrupted entry is *dropped* (never served wrong), forcing the
        next lookup of its row back to the in-DRAM FPT -- the safe
        degradation of Sec. V's filter chain.  Returns the row whose
        entry was discarded, or ``None`` if the set held nothing to
        corrupt.
        """
        for entry in self._set_of(row_id):
            if entry.valid:
                victim = entry.tag
                entry.valid = False
                entry.tag = -1
                entry.singleton = False
                entry.rrpv = RRIP_MAX
                self.corruptions += 1
                return victim
        return None

    def set_group_singleton(self, group: int, singleton: bool) -> None:
        """Update the singleton bit on any cached entries of ``group``."""
        for entry in self._sets.get(group % self.num_sets, ()):
            if entry.valid and entry.tag // self.group_size == group:
                entry.singleton = singleton

    def occupancy(self) -> int:
        """Number of valid entries across all sets."""
        return sum(
            1 for ways in self._sets.values() for entry in ways if entry.valid
        )

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def collect_metrics(self, telemetry, **labels) -> None:
        """Snapshot-time export: hit/miss/singleton counts + occupancy.

        The cache keeps plain integer counters on its hot path; this
        copies them into the registry only when a snapshot is taken, so
        per-epoch timeline entries show the hit-rate evolution for free.
        """
        registry = telemetry.registry
        registry.counter("fpt_cache_hits_total").set_total(
            self.hits, **labels
        )
        registry.counter("fpt_cache_misses_total").set_total(
            self.misses, **labels
        )
        registry.counter("fpt_cache_singleton_filtered_total").set_total(
            self.singleton_filtered, **labels
        )
        registry.counter("fpt_cache_corruptions_total").set_total(
            self.corruptions, **labels
        )
        registry.gauge("fpt_cache_occupancy").set(self.occupancy(), **labels)
        registry.gauge("fpt_cache_hit_rate").set(self.hit_rate(), **labels)
