"""JobStore: durable journal replay, exactly-once job identity."""

import json

import pytest

from repro.core.canon import canonical_dumps
from repro.errors import ConfigError, SimulationError
from repro.service.jobs import Job, JobSpec
from repro.service.store import JobStore


def spec(seed: int = 7) -> JobSpec:
    return JobSpec(scheme="aqua-sram", workloads=("xz",), epochs=1, seed=seed)


class TestLifecycle:
    def test_fresh_store_writes_a_header(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore.open(path):
            pass
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header == {"record": "header", "version": 1}

    def test_jobs_and_states_replay(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore.open(path) as store:
            job = Job.create(store.next_seq, spec())
            store.append_job(job)
            job.state = "running"
            job.attempts = 1
            store.append_state(job)
            job.state = "done"
            store.append_state(job)
        with JobStore.open(path) as store:
            assert list(store.jobs) == [job.id]
            replayed = store.get(job.id)
            assert replayed.state == "done"  # last state record wins
            assert replayed.attempts == 1
            assert replayed.spec == spec()
            assert store.next_seq == job.seq + 1

    def test_closed_store_refuses_appends(self, tmp_path):
        store = JobStore.open(str(tmp_path / "jobs.jsonl"))
        store.close()
        with pytest.raises(SimulationError, match="closed"):
            store.append_job(Job.create(1, spec()))


class TestCrashTolerance:
    def test_truncated_trailing_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore.open(path) as store:
            store.append_job(Job.create(1, spec()))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"state","id":"j1-')  # killed mid-write
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1
            assert len(store.jobs) == 1

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        # The torn fragment must be truncated before the store reopens
        # for appending, or the first post-restart record is glued onto
        # it -- one invalid line -- and a durably journaled record
        # silently vanishes from the *next* replay.
        path = str(tmp_path / "jobs.jsonl")
        first = Job.create(1, spec())
        with JobStore.open(path) as store:
            store.append_job(first)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"state","id":"j1-')  # killed mid-write
        second = Job.create(2, spec(seed=8))
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1
            store.append_job(second)
            second.state = "done"
            store.append_state(second)
        with JobStore.open(path) as store:
            assert store.skipped_lines == 0  # file is whole again
            assert sorted(store.jobs) == sorted([first.id, second.id])
            assert store.get(second.id).state == "done"

    def test_duplicate_job_records_collapse_by_id(self, tmp_path):
        # A torn copy can duplicate a job line; replay must stay
        # exactly-once because jobs are keyed by ID.
        path = str(tmp_path / "jobs.jsonl")
        job = Job.create(1, spec())
        with JobStore.open(path) as store:
            store.append_job(job)
        record = {
            "record": "job",
            "seq": job.seq,
            "id": job.id,
            "digest": job.digest,
            "spec": job.spec.to_dict(),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(canonical_dumps(record) + "\n")
        with JobStore.open(path) as store:
            assert len(store.jobs) == 1
            assert store.next_seq == 2

    def test_unknown_record_kinds_are_counted(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore.open(path):
            pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"doom"}\n')
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1

    def test_state_for_unknown_job_is_skipped(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore.open(path):
            pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"state","id":"j9-missing","state":"done"}\n')
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1
            assert store.jobs == {}


class TestMalformedRecords:
    """Valid JSON of the wrong shape is skipped and counted, never fatal:
    a store the server cannot replay is a server that cannot restart."""

    def _store_with_running_job(self, path):
        job = Job.create(1, spec())
        with JobStore.open(path) as store:
            store.append_job(job)
            job.state = "running"
            job.attempts = 1
            store.append_state(job)
        return job

    def test_null_attempts_skips_the_whole_state_record(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        job = self._store_with_running_job(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(canonical_dumps(
                {"record": "state", "id": job.id, "state": "done",
                 "attempts": None}
            ) + "\n")
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1
            replayed = store.get(job.id)
            # Nothing of the bad record was applied, not even its state.
            assert replayed.state == "running"
            assert replayed.attempts == 1

    def test_unhashable_state_id_is_skipped(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        job = self._store_with_running_job(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id":["x"],"record":"state","state":"done"}\n')
        with JobStore.open(path) as store:
            assert store.skipped_lines == 1
            assert store.get(job.id).state == "running"


class TestHeaderGuards:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"record":"state","id":"x","state":"done"}\n')
        with pytest.raises(ConfigError, match="no header"):
            JobStore.open(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"record":"header","version":99}\n')
        with pytest.raises(ConfigError, match="version 99"):
            JobStore.open(str(path))
