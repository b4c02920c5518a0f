"""Event tracer: ring bounds, sampling, and export round-trips."""

import json

import pytest

from repro.telemetry.events import (
    EventTracer,
    load_trace_lenient,
    write_chrome_trace,
    write_jsonl,
)


def _fill(tracer, n, kind="migration"):
    for i in range(n):
        tracer.emit(kind, float(i), row=i)


class TestRingBuffer:
    def test_capacity_honored(self):
        tracer = EventTracer(capacity=8)
        _fill(tracer, 20)
        events = tracer.events()
        assert len(events) == 8
        # Oldest events were overwritten: the ring keeps the tail.
        assert [e.attrs["row"] for e in events] == list(range(12, 20))
        assert tracer.offered == 20
        assert tracer.recorded == 20
        assert tracer.dropped == 12

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)
        with pytest.raises(ValueError):
            EventTracer(sample_rate=0.0)
        with pytest.raises(ValueError):
            EventTracer(sample_rate=1.5)

    def test_clear_resets_counters(self):
        tracer = EventTracer(capacity=4)
        _fill(tracer, 10)
        tracer.clear()
        assert tracer.events() == []
        assert tracer.offered == 0
        assert tracer.dropped == 0


class TestSampling:
    def test_deterministic_one_in_four(self):
        tracer = EventTracer(sample_rate=0.25)
        _fill(tracer, 100)
        assert tracer.recorded == 25
        assert tracer.sampled_out == 75
        # Error diffusion, no RNG: a second tracer records identically.
        other = EventTracer(sample_rate=0.25)
        _fill(other, 100)
        assert [e.ts_ns for e in other.events()] == [
            e.ts_ns for e in tracer.events()
        ]

    def test_full_rate_keeps_everything(self):
        tracer = EventTracer()
        _fill(tracer, 50)
        assert tracer.recorded == 50
        assert tracer.sampled_out == 0

    def test_kind_counts(self):
        tracer = EventTracer()
        _fill(tracer, 3, kind="migration")
        _fill(tracer, 2, kind="eviction")
        assert tracer.kind_counts() == {"migration": 3, "eviction": 2}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("migration", 100.0, row=7, reason="demand")
        tracer.emit("eviction", 250.0, row=9)
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path, extra={"workload": "gcc"}) == 2
        records, skipped = load_trace_lenient(path)
        assert skipped == 0
        assert records == [
            {"ts_ns": 100.0, "kind": "migration", "row": 7,
             "reason": "demand", "workload": "gcc"},
            {"ts_ns": 250.0, "kind": "eviction", "row": 9,
             "workload": "gcc"},
        ]

    def test_single_line_jsonl_loads(self, tmp_path):
        # A one-event JSONL file is whole-file-parseable JSON; it must
        # still load as JSONL, not be mistaken for a Chrome trace.
        path = str(tmp_path / "one.jsonl")
        tracer = EventTracer()
        tracer.emit("migration", 1.0)
        tracer.export_jsonl(path)
        assert load_trace_lenient(path) == (
            [{"ts_ns": 1.0, "kind": "migration"}], 0
        )

    def test_chrome_round_trip_preserves_ts_and_args(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("migration", 2_000.0, row=3)
        path = str(tmp_path / "trace.json")
        assert tracer.export_chrome_trace(
            path, extra={"workload": "xz"}
        ) == 1
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        (entry,) = document["traceEvents"]
        assert entry["name"] == "migration"
        assert entry["ph"] == "i"
        assert entry["ts"] == 2.0  # microseconds
        records, skipped = load_trace_lenient(path)
        assert skipped == 0
        assert records[0]["ts_ns"] == 2_000.0
        assert records[0]["kind"] == "migration"
        assert records[0]["row"] == 3
        assert records[0]["workload"] == "xz"

    def test_chrome_distinct_tags_get_distinct_tracks(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("migration", 1.0)
        event = tracer.events()[0]
        path = str(tmp_path / "trace.json")
        write_chrome_trace(
            path,
            [(event, {"workload": "gcc"}), (event, {"workload": "xz"})],
        )
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)["traceEvents"]
        assert entries[0]["tid"] != entries[1]["tid"]

    def test_write_jsonl_tagged_events(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("migration", 1.0)
        event = tracer.events()[0]
        path = str(tmp_path / "trace.jsonl")
        count = write_jsonl(path, [(event, None), (event, {"w": "a"})])
        assert count == 2
        records, skipped = load_trace_lenient(path)
        assert skipped == 0
        assert "w" not in records[0]
        assert records[1]["w"] == "a"
