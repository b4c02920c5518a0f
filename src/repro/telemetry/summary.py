"""Trace summarisation backing ``python -m repro inspect``.

Consumes the flat event dicts produced by
:func:`repro.telemetry.events.load_trace_lenient` (either export format) and
derives the three standing diagnostics:

* event counts by kind (and by workload, when the trace is tagged),
* the migration inter-arrival distribution per workload track
  (simulated time between consecutive ``migration`` events -- the
  burstiness instrument for quarantine pressure),
* per-epoch quarantine occupancy, read off the ``refresh_window``
  boundary events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: Inter-arrival histogram bucket bounds, in simulated microseconds.
INTERARRIVAL_BOUNDS_US: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0,
)


@dataclass
class TraceSummary:
    """Aggregated view of one exported trace."""

    total_events: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    workload_kind_counts: Dict[str, Dict[str, int]] = field(
        default_factory=dict
    )
    #: bucket label -> count of migration inter-arrival gaps.
    interarrival_hist: Dict[str, int] = field(default_factory=dict)
    interarrival_count: int = 0
    interarrival_mean_us: float = 0.0
    #: (workload, epoch) -> RQA occupancy at the epoch boundary.
    epoch_occupancy: Dict[Tuple[str, int], float] = field(
        default_factory=dict
    )
    span_ns: float = 0.0


def _bucket_label(gap_us: float) -> str:
    for bound in INTERARRIVAL_BOUNDS_US:
        if gap_us <= bound:
            return f"<= {bound:g} us"
    return f"> {INTERARRIVAL_BOUNDS_US[-1]:g} us"


def summarize_trace(records: List[dict]) -> TraceSummary:
    """Build a :class:`TraceSummary` from flat event dicts."""
    summary = TraceSummary()
    summary.total_events = len(records)
    migration_ts: Dict[str, List[float]] = {}
    min_ts: Optional[float] = None
    max_ts: Optional[float] = None
    for record in records:
        kind = record.get("kind", "unknown")
        track = str(record.get("workload", ""))
        ts = float(record.get("ts_ns", 0.0))
        min_ts = ts if min_ts is None else min(min_ts, ts)
        max_ts = ts if max_ts is None else max(max_ts, ts)
        summary.kind_counts[kind] = summary.kind_counts.get(kind, 0) + 1
        per_workload = summary.workload_kind_counts.setdefault(track, {})
        per_workload[kind] = per_workload.get(kind, 0) + 1
        if kind == "migration":
            migration_ts.setdefault(track, []).append(ts)
        elif kind == "refresh_window":
            occupancy = record.get("rqa_occupancy")
            if occupancy is not None:
                epoch = int(record.get("epoch", 0))
                summary.epoch_occupancy[(track, epoch)] = float(occupancy)
    if min_ts is not None:
        summary.span_ns = max_ts - min_ts
    gap_sum_us = 0.0
    for stamps in migration_ts.values():
        stamps.sort()
        for earlier, later in zip(stamps, stamps[1:]):
            gap_us = (later - earlier) / 1_000.0
            gap_sum_us += gap_us
            label = _bucket_label(gap_us)
            summary.interarrival_hist[label] = (
                summary.interarrival_hist.get(label, 0) + 1
            )
            summary.interarrival_count += 1
    if summary.interarrival_count:
        summary.interarrival_mean_us = (
            gap_sum_us / summary.interarrival_count
        )
    return summary


def _ordered_buckets(hist: Dict[str, int]) -> List[Tuple[str, int]]:
    order = [f"<= {b:g} us" for b in INTERARRIVAL_BOUNDS_US]
    order.append(f"> {INTERARRIVAL_BOUNDS_US[-1]:g} us")
    return [(label, hist[label]) for label in order if label in hist]


def render_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` for terminal output."""
    lines: List[str] = []
    lines.append(
        f"trace: {summary.total_events:,} events spanning "
        f"{summary.span_ns / 1e6:.2f} ms of simulated time"
    )
    lines.append("event counts:")
    for kind in sorted(summary.kind_counts):
        lines.append(f"  {kind:<22} {summary.kind_counts[kind]:>10,}")
    if summary.interarrival_count:
        lines.append(
            "migration inter-arrival "
            f"(n={summary.interarrival_count:,}, "
            f"mean={summary.interarrival_mean_us:.1f} us):"
        )
        peak = max(summary.interarrival_hist.values())
        for label, count in _ordered_buckets(summary.interarrival_hist):
            bar = "#" * max(1, round(24 * count / peak))
            lines.append(f"  {label:<14} {count:>10,}  {bar}")
    if summary.epoch_occupancy:
        lines.append("per-epoch quarantine occupancy:")
        for (track, epoch), occupancy in sorted(
            summary.epoch_occupancy.items()
        ):
            name = track if track else "(untagged)"
            lines.append(
                f"  {name:<12} epoch {epoch}: {occupancy:,.0f} rows in RQA"
            )
    return "\n".join(lines)
