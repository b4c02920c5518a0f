"""SweepCheckpoint: crash-safe journaling and resume semantics."""

import json

import pytest

from repro.core.canon import canonical_dumps
from repro.errors import ConfigError
from repro.sim.checkpoint import (
    SweepCheckpoint,
    append_result_record,
    load_result_records,
)
from repro.sim.stats import WorkloadResult


META = {"scheme": "aqua-sram", "trh": 1000, "epochs": 2, "seed": 0}


def result_for(workload: str, slowdown: float = 1.01) -> WorkloadResult:
    return WorkloadResult(
        workload=workload,
        scheme="aqua",
        epochs=2,
        activations=1000,
        migrations=3,
        row_moves=3,
        evictions=0,
        busy_ns=10.0,
        table_dram_ns=0.0,
        peak_stall_ns=0.0,
        slowdown=slowdown,
        mem_fraction=0.25,
    )


class TestCreateAndRecord:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "xz", result_for("xz"))
            checkpoint.record("aqua-sram", "gcc", result_for("gcc", 1.05))
        resumed = SweepCheckpoint.resume(path, META)
        assert resumed.has("aqua-sram", "xz")
        assert resumed.has("aqua-sram", "gcc")
        assert not resumed.has("aqua-sram", "lbm")
        assert resumed.completed[("aqua-sram", "gcc")].slowdown == 1.05
        assert resumed.skipped_lines == 0
        resumed.close()

    def test_records_are_durable_line_by_line(self, tmp_path):
        """Every record is readable the moment record() returns."""
        path = str(tmp_path / "ck.jsonl")
        checkpoint = SweepCheckpoint.create(path, META)
        checkpoint.record("aqua-sram", "xz", result_for("xz"))
        # Deliberately NOT closed: simulates a kill right after a run.
        lines = open(path).read().splitlines()
        assert len(lines) == 2  # header + one result
        assert json.loads(lines[1])["workload"] == "xz"
        checkpoint.close()

    def test_resume_then_append(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "xz", result_for("xz"))
        with SweepCheckpoint.resume(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "gcc", result_for("gcc"))
        final = SweepCheckpoint.resume(path)
        assert set(final.completed) == {
            ("aqua-sram", "xz"), ("aqua-sram", "gcc")
        }
        final.close()


class TestCrashTolerance:
    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "xz", result_for("xz"))
        with open(path, "a") as fh:
            fh.write('{"record": "result", "scheme": "aqua-sr')  # killed
        resumed = SweepCheckpoint.resume(path, META)
        assert resumed.has("aqua-sram", "xz")
        assert resumed.skipped_lines == 1
        resumed.close()

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        # Resume must truncate the torn fragment, not just skip it:
        # otherwise the first record appended after restart glues onto
        # the fragment and both are lost on the following resume.
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "xz", result_for("xz"))
        with open(path, "a") as fh:
            fh.write('{"record": "result", "scheme": "aqua-sr')  # killed
        with SweepCheckpoint.resume(path, META) as checkpoint:
            assert checkpoint.skipped_lines == 1
            checkpoint.record("aqua-sram", "gcc", result_for("gcc"))
        final = SweepCheckpoint.resume(path, META)
        assert final.skipped_lines == 0  # file is whole again
        assert set(final.completed) == {
            ("aqua-sram", "xz"), ("aqua-sram", "gcc")
        }
        final.close()

    def test_non_finite_result_degrades_to_unjournaled(self, tmp_path):
        # canonical_dumps rejects NaN/Infinity; a result carrying one
        # must not abort the sweep mid-run -- it stays in memory (the
        # current process completes) and simply re-runs on resume.
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record(
                "aqua-sram", "xz", result_for("xz", slowdown=float("nan"))
            )
            assert checkpoint.has("aqua-sram", "xz")
            assert checkpoint.skipped_writes == 1
            checkpoint.record("aqua-sram", "gcc", result_for("gcc"))
        resumed = SweepCheckpoint.resume(path, META)
        assert not resumed.has("aqua-sram", "xz")  # degraded, re-runs
        assert resumed.has("aqua-sram", "gcc")
        assert resumed.skipped_lines == 0  # journal itself stayed clean
        resumed.close()

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            SweepCheckpoint.resume(str(tmp_path / "absent.jsonl"))

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"record": "result"}\n')
        with pytest.raises(ConfigError, match="no header"):
            SweepCheckpoint.resume(str(path))


class TestMalformedRecords:
    """Valid JSON of the wrong shape is skipped and counted, never fatal."""

    @pytest.mark.parametrize("bad", [[1], "x", 5, None])
    def test_non_object_result_skipped_by_sidecar_load(self, tmp_path, bad):
        sidecar = str(tmp_path / "ck.jsonl.w1.jsonl")
        assert append_result_record(
            sidecar, "aqua-sram", "xz", result_for("xz").to_dict()
        )
        with open(sidecar, "a", encoding="utf-8") as fh:
            fh.write(canonical_dumps(
                {"record": "result", "scheme": "aqua-sram",
                 "workload": "gcc", "result": bad}
            ) + "\n")
        records, skipped = load_result_records(sidecar)
        assert [(s, w) for s, w, _ in records] == [("aqua-sram", "xz")]
        assert skipped == 1

    @pytest.mark.parametrize("bad", [[1], "x", 5, None])
    def test_non_object_result_skipped_by_resume(self, tmp_path, bad):
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            checkpoint.record("aqua-sram", "xz", result_for("xz"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(canonical_dumps(
                {"record": "result", "scheme": "aqua-sram",
                 "workload": "gcc", "result": bad}
            ) + "\n")
        with SweepCheckpoint.resume(path, META) as resumed:
            assert set(resumed.completed) == {("aqua-sram", "xz")}
            assert resumed.skipped_lines == 1

    def test_non_object_meta_is_a_config_error(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"meta":[1,2],"record":"header","version":1}\n')
        with pytest.raises(ConfigError, match="meta"):
            SweepCheckpoint.resume(str(path), META)
        with pytest.raises(ConfigError, match="meta"):
            SweepCheckpoint.resume(str(path))


class TestHeaderValidation:
    def test_mismatched_meta_rejected_with_detail(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        SweepCheckpoint.create(path, META).close()
        other = dict(META, trh=2000)
        with pytest.raises(ConfigError, match="trh"):
            SweepCheckpoint.resume(path, other)

    def test_matching_meta_accepted(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        SweepCheckpoint.create(path, META).close()
        SweepCheckpoint.resume(path, dict(META)).close()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(
            '{"record": "header", "version": 99, "meta": {}}\n'
        )
        with pytest.raises(ConfigError, match="version"):
            SweepCheckpoint.resume(str(path))
