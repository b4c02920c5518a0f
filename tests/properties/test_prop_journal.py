"""Property tests: every journal user survives a cut at any byte.

The sweep checkpoint, the worker sidecars and the job store all write
through :class:`repro.sim.journal.Journal`.  Each prefix test writes N
records through one user, then cuts the file at every byte and checks:

* reopening yields exactly the records whose full line, newline
  included, survived the cut;
* one append after reopening, then a replay, yields that prefix plus
  the new record, with no line glued onto a torn fragment;
* a cut inside the header raises ``ConfigError`` (sidecars have no
  header).

The last group replays records whose fields are arbitrary JSON values:
nothing may raise except ``ConfigError`` for a bad header.
"""

import json
import os
import shutil
import tempfile
from typing import Dict, List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.errors import ConfigError
from repro.service.jobs import JOB_STATES, Job, JobSpec
from repro.service.store import JobStore
from repro.sim.checkpoint import (
    SweepCheckpoint,
    append_result_record,
    load_result_records,
)
from repro.sim.stats import WorkloadResult

META = {"scheme": "aqua-sram", "trh": 1000, "epochs": 1, "seed": 0}

RUNS = st.lists(
    st.tuples(st.integers(0, 10**9), st.floats(1.0, 4.0)),
    min_size=1,
    max_size=3,
)
"""(activations, slowdown) per journaled run: enough to vary line
lengths, so cuts land at different offsets inside each record."""


def result(workload: str, activations: int, slowdown: float) -> WorkloadResult:
    return WorkloadResult(
        workload=workload,
        scheme="aqua",
        epochs=1,
        activations=activations,
        migrations=0,
        row_moves=0,
        evictions=0,
        busy_ns=1.0,
        table_dram_ns=0.0,
        peak_stall_ns=0.0,
        slowdown=slowdown,
        mem_fraction=0.5,
    )


def line_ends(data: bytes) -> List[int]:
    """The offset just past each newline: a line survives a cut at
    ``size`` exactly when its end is ``<= size``."""
    return [index + 1 for index, byte in enumerate(data) if byte == 0x0A]


def write_prefix(path: str, data: bytes, size: int) -> None:
    with open(path, "wb") as fh:
        fh.write(data[:size])


# ------------------------------------------------------------- checkpoint


@settings(max_examples=5, deadline=None)
@given(RUNS)
def test_checkpoint_every_prefix(runs):
    expected = {
        ("aqua-sram", f"w{i}"): result(f"w{i}", acts, slowdown)
        for i, (acts, slowdown) in enumerate(runs)
    }
    new_key = ("aqua-sram", "new")
    new_result = result("new", 1, 1.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            for key, value in expected.items():
                checkpoint.record(*key, value)
        with open(path, "rb") as fh:
            data = fh.read()
        header_end, *ends = line_ends(data)
        for size in range(len(data) + 1):
            write_prefix(path, data, size)
            if size < header_end:
                with pytest.raises(ConfigError, match="no header"):
                    SweepCheckpoint.resume(path, META)
                continue
            survived = dict(list(expected.items())[: sum(e <= size for e in ends)])
            with SweepCheckpoint.resume(path, META) as resumed:
                assert resumed.completed == survived
                assert resumed.skipped_lines == int(size not in ends + [header_end])
                resumed.record(*new_key, new_result)
            with SweepCheckpoint.resume(path, META) as replayed:
                assert replayed.completed == {**survived, new_key: new_result}
                assert replayed.skipped_lines == 0


# --------------------------------------------------------- worker sidecars


@settings(max_examples=5, deadline=None)
@given(RUNS)
def test_sidecar_every_prefix(runs):
    expected = [
        ("aqua-sram", f"w{i}", result(f"w{i}", acts, slowdown))
        for i, (acts, slowdown) in enumerate(runs)
    ]
    new = ("aqua-sram", "new", result("new", 1, 1.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.jsonl.w1.jsonl")
        for scheme, workload, value in expected:
            assert append_result_record(path, scheme, workload, value.to_dict())
        with open(path, "rb") as fh:
            data = fh.read()
        ends = line_ends(data)
        appended = path + ".append"
        for size in range(len(data) + 1):
            survived = expected[: sum(e <= size for e in ends)]
            torn = int(size not in ends + [0])
            write_prefix(path, data, size)
            shutil.copyfile(path, appended)
            assert load_result_records(path) == (survived, torn)
            # The append's own reopen repairs the torn tail.
            assert append_result_record(appended, new[0], new[1], new[2].to_dict())
            assert load_result_records(appended) == (survived + [new], 0)


# --------------------------------------------------------------- job store


def store_view(store: JobStore) -> List[Tuple[str, str, int]]:
    return [(job.id, job.state, job.attempts) for job in store.jobs.values()]


@settings(max_examples=5, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(JOB_STATES), st.integers(0, 5)),
        min_size=1,
        max_size=3,
    )
)
def test_store_every_prefix(transitions):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "jobs.jsonl")
        # views[k] is the replayed state after the first k records.
        views: List[List[Tuple[str, str, int]]] = [[]]
        with JobStore.open(path) as store:
            for seq, (state, attempts) in enumerate(transitions, start=1):
                job = Job.create(seq, JobSpec(scheme="aqua-sram", workloads=("xz",), seed=seq))
                store.append_job(job)
                views.append(store_view(store))
                job.state, job.attempts = state, attempts
                store.append_state(job)
                views.append(store_view(store))
        with open(path, "rb") as fh:
            data = fh.read()
        header_end, *ends = line_ends(data)
        new = Job.create(len(transitions) + 1, JobSpec(scheme="aqua-sram", workloads=("wrf",)))
        for size in range(len(data) + 1):
            write_prefix(path, data, size)
            if size < header_end:
                with pytest.raises(ConfigError, match="no header"):
                    JobStore.open(path)
                continue
            survived = views[sum(e <= size for e in ends)]
            with JobStore.open(path) as store:
                assert store_view(store) == survived
                assert store.skipped_lines == int(size not in ends + [header_end])
                store.append_job(new)
            with JobStore.open(path) as store:
                assert store_view(store) == survived + [(new.id, "queued", 0)]
                assert store.skipped_lines == 0


# ------------------------------------------------- arbitrary field values

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
"""Any JSON value, including huge integers and NaN/Infinity tokens."""

RESULT = result("xz", 10, 1.0).to_dict()
SPEC = JobSpec(scheme="aqua-sram", workloads=("xz",)).to_dict()
JOB_ID = "j1-abc"


@st.composite
def mangled(draw, template: Dict) -> Dict:
    """``template`` with up to three fields replaced by arbitrary JSON."""
    record = dict(template)
    for key in draw(st.lists(st.sampled_from(sorted(template)), max_size=3)):
        record[key] = draw(JSON)
    return record


@st.composite
def body_record(draw):
    """One journal line's value: a mangled record of every kind, or not
    a record at all."""
    result_record = {"record": "result", "scheme": "aqua-sram", "workload": "xz"}
    result_record["result"] = draw(mangled(RESULT))
    job_record = {"record": "job", "seq": 1, "id": JOB_ID, "digest": "d"}
    job_record["spec"] = draw(mangled(SPEC))
    state_record = {
        "record": "state",
        "id": JOB_ID,
        "state": "done",
        "attempts": 1,
        "from_cache": False,
        "run_failures": 0,
        "error": None,
    }
    value = draw(
        st.one_of(
            mangled(result_record),
            mangled(job_record),
            mangled(state_record),
            mangled({"record": "other"}),
            JSON,
        )
    )
    # A second header would replace the valid one under test.
    assume(not (isinstance(value, dict) and value.get("record") == "header"))
    return value


def write_lines(path: str, values: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for value in values:
            fh.write(json.dumps(value) + "\n")


CHECKPOINT_HEADER = {"record": "header", "version": 1, "meta": META}
STORE_HEADER = {"record": "header", "version": 1}


@settings(max_examples=150, deadline=None)
@given(st.lists(body_record(), max_size=6))
def test_arbitrary_fields_never_raise_under_a_valid_header(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        write_lines(path, [CHECKPOINT_HEADER] + body)
        SweepCheckpoint.resume(path, META).close()
        write_lines(path, body)
        load_result_records(path)
        write_lines(path, [STORE_HEADER] + body)
        JobStore.open(path).close()


@settings(max_examples=150, deadline=None)
@given(
    mangled(CHECKPOINT_HEADER),
    mangled(STORE_HEADER),
    st.lists(body_record(), max_size=3),
)
def test_a_bad_header_raises_only_config_error(checkpoint_header, store_header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        write_lines(path, [checkpoint_header] + body)
        for meta in (META, None):
            try:
                SweepCheckpoint.resume(path, meta).close()
            except ConfigError:
                pass
        write_lines(path, [store_header] + body)
        try:
            JobStore.open(path).close()
        except ConfigError:
            pass
