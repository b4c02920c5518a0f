"""Journal: the fsynced JSONL primitive under checkpoints and the job store."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.journal import Journal, decode_lines, replay_records


class TestJournal:
    def test_create_append_reopen_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal.create(path, {"record": "header", "version": 1}) as journal:
            journal.append({"record": "x", "n": 1})
        journal, records, skipped = Journal.reopen(path)
        with journal:
            journal.append({"record": "x", "n": 2})
        assert records == [{"record": "header", "version": 1}, {"record": "x", "n": 1}]
        assert skipped == 0
        with open(path, encoding="utf-8") as fh:
            assert fh.read().splitlines()[-1] == '{"n":2,"record":"x"}'

    def test_non_canonical_record_writes_nothing(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with pytest.raises(ConfigError):
            Journal.create(path, {"x": float("nan")})
        assert not (tmp_path / "j.jsonl").exists()
        with Journal.create(path, {"record": "header"}) as journal:
            with pytest.raises(ConfigError):
                journal.append({"x": float("inf")})
        assert (tmp_path / "j.jsonl").read_text() == '{"record":"header"}\n'

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = Journal.create(str(tmp_path / "j.jsonl"), {"record": "header"})
        journal.close()
        with pytest.raises(SimulationError, match="closed"):
            journal.append({"record": "x"})

    def test_torn_tail_is_truncated_and_counted_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"record":"header"}\n{"record":"x","n"')
        journal, records, skipped = Journal.reopen(str(path))
        journal.close()
        assert records == [{"record": "header"}]
        assert skipped == 1
        assert path.read_bytes() == b'{"record":"header"}\n'

    def test_undecodable_bytes_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"record":"header"}\n{"record":"\xff\xfe"}\n{"n":1}\n')
        journal, records, skipped = Journal.reopen(str(path))
        journal.close()
        assert records == [{"record": "header"}, {"n": 1}]
        assert skipped == 1


class TestLenientDecode:
    def test_blank_lines_ignored_and_non_objects_counted(self):
        lines = [b'{"a":1}', b"", b"   ", b"[1]", b"7", b"null", b"{torn", b'{"b":2}\r']
        assert decode_lines(lines) == ([{"a": 1}, {"b": 2}], 4)

    def test_replay_counts_unhandled_and_malformed_records(self):
        seen = []

        def handle(record):
            seen.append(int(record["n"]))

        records = [
            {"record": "x", "n": 1},
            {"record": "x"},  # KeyError
            {"record": "x", "n": [1]},  # TypeError
            {"record": "x", "n": "one"},  # ValueError
            {"record": "x", "n": float("inf")},  # OverflowError
            {"record": "y", "n": 2},  # no handler
            {"record": ["x"], "n": 3},  # unhashable kind
            {"n": 4},  # no kind
        ]
        assert replay_records(records, {"x": handle}) == 7
        assert seen == [1]
