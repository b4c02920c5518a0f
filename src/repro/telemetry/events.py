"""Structured event tracing with a bounded ring buffer.

Every event carries a **simulated-time** timestamp (nanoseconds of
simulated DRAM time, epoch-relative to the run's start), a ``kind``
from the taxonomy in DESIGN.md (``migration``, ``eviction``,
``quarantine_rotation``, ``tracker_install``, ``tracker_evict``,
``refresh_window``, ``throttle``, ...), and free-form attributes.

The tracer is bounded two ways:

* a **ring buffer** (``capacity`` events) so a runaway trace cannot
  exhaust memory -- the oldest events are overwritten and counted in
  ``dropped``;
* an optional **sampling rate**: ``sample_rate=0.1`` keeps a
  deterministic 1-in-10 of offered events (error-diffusion accumulator,
  not RNG, so traces are reproducible run-to-run).

Export formats: JSON Lines (one event object per line) and the Chrome
trace-event format loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass
class TraceEvent:
    """One structured simulation event."""

    ts_ns: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self, extra: Optional[Dict[str, Any]] = None) -> dict:
        record = {"ts_ns": self.ts_ns, "kind": self.kind}
        record.update(self.attrs)
        if extra:
            record.update(extra)
        return record


DEFAULT_CAPACITY = 1 << 18
"""Default ring size (262144 events, comfortably one traced workload)."""


class EventTracer:
    """Bounded, optionally sampled recorder of :class:`TraceEvent`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample_rate: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self._ring: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.offered = 0
        self.sampled_out = 0
        self._acc = 0.0

    @property
    def recorded(self) -> int:
        """Events accepted past sampling (may exceed the ring size)."""
        return self.offered - self.sampled_out

    @property
    def dropped(self) -> int:
        """Recorded events lost to ring-buffer wraparound."""
        return self.recorded - len(self._ring)

    def emit(self, kind: str, ts_ns: float, **attrs) -> bool:
        """Offer one event; returns whether it was recorded."""
        return self.record(kind, ts_ns, attrs)

    def record(self, kind: str, ts_ns: float, attrs: Dict[str, Any]) -> bool:
        """:meth:`emit` with the attributes as a dict the event takes
        over (spares the forwarding ``Telemetry.event`` a second
        keyword-argument copy per event)."""
        self.offered += 1
        if self.sample_rate < 1.0:
            self._acc += self.sample_rate
            if self._acc < 1.0:
                self.sampled_out += 1
                return False
            self._acc -= 1.0
        self._ring.append(TraceEvent(ts_ns, kind, attrs))
        return True

    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.offered = 0
        self.sampled_out = 0
        self._acc = 0.0

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def export_jsonl(self, path: str, extra: Optional[dict] = None) -> int:
        return write_jsonl(path, [(e, extra) for e in self._ring])

    def export_chrome_trace(
        self, path: str, extra: Optional[dict] = None
    ) -> int:
        return write_chrome_trace(path, [(e, extra) for e in self._ring])


TaggedEvent = Tuple[TraceEvent, Optional[Dict[str, Any]]]


def write_jsonl(path: str, tagged_events: Iterable[TaggedEvent]) -> int:
    """Write events (with optional per-event extra fields) as JSONL."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event, extra in tagged_events:
            fh.write(json.dumps(event.to_json_dict(extra)))
            fh.write("\n")
            count += 1
    return count


def write_chrome_trace(
    path: str, tagged_events: Iterable[TaggedEvent]
) -> int:
    """Write events in the Chrome trace-event ("catapult") format.

    Events become instant events (``ph: "i"``); timestamps convert from
    simulated nanoseconds to the format's microseconds.  The per-event
    extra tag (e.g. the workload name) becomes the track (``tid``) so
    multi-workload traces separate into lanes.
    """
    trace_events = []
    for event, extra in tagged_events:
        args = dict(event.attrs)
        tid = 0
        if extra:
            args.update(extra)
            # crc32 for a run-to-run-stable track id (hash() is salted).
            tag = ",".join(f"{k}={v}" for k, v in sorted(extra.items()))
            tid = zlib.crc32(tag.encode("utf-8")) % 1_000_000
        trace_events.append(
            {
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.ts_ns / 1_000.0,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"traceEvents": trace_events, "displayTimeUnit": "ns"}, fh
        )
    return len(trace_events)


def load_trace_lenient(path: str) -> Tuple[List[dict], int]:
    """Read a trace back as a list of flat event dicts.

    Accepts both export formats: JSONL (one object per line) and the
    Chrome trace-event JSON (``{"traceEvents": [...]}``), which is
    normalised back to the JSONL shape (``ts_ns``/``kind`` + attrs).
    Returns ``(records, skipped)`` where ``skipped`` counts JSONL lines
    that failed to parse (truncated trailing writes from a killed run,
    disk corruption, editor damage).  Valid Chrome-trace documents
    never skip; a Chrome-trace file that fails to parse as a whole
    falls back to line-by-line JSONL recovery, salvaging whatever
    parses.
    """
    # Imported on call: repro.sim imports repro.core, which imports
    # this module.
    from repro.sim.journal import decode_lines

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        document = json.loads(data)
    except ValueError:
        document = None
    if isinstance(document, dict) and "traceEvents" in document:
        records = []
        for entry in document["traceEvents"]:
            record = {
                "ts_ns": float(entry.get("ts", 0.0)) * 1_000.0,
                "kind": entry.get("name", "unknown"),
            }
            record.update(entry.get("args", {}))
            records.append(record)
        return records, 0
    return decode_lines(data.split(b"\n"))
