"""Tests for the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import os
import re

import pytest

import run
import service_load
from spans import Tracer, instrument, self_times

from repro.core.canon import content_digest
from repro.mitigations.base import MitigationScheme
from repro.parallel import build_results_document, expand_grid, run_sweep_parallel
from repro.sim import runner
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.system import SystemSimulator
from repro.workloads.spec import SyntheticWorkload, workload

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def lbm_at_250_document():
    points = expand_grid(["blockhammer"], ["lbm"], thresholds=(250,), seed=run.DEFAULT_SEED)
    meta = {"scheme": "blockhammer", "trh": 250, "epochs": 2, "seed": run.DEFAULT_SEED}
    return build_results_document(meta, points, run_sweep_parallel(points))


def report(label, document):
    return {
        "label": label, "points": 1, "hit_latencies": [0.001], "errors": [],
        "digest": content_digest(document), "fault_digests": {},
    }


def test_pinned_digest_matches_a_fresh_run_and_rejects_a_corrupted_document():
    document = lbm_at_250_document()
    with open(os.path.join(run.HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["sweep-hot"]
    assert content_digest(document) == pinned["blockhammer@250:lbm"]["digest"]
    good = [
        dict(report(label, document), digest=pin["digest"], fault_digests=pin["fault_digests"])
        for label, pin in pinned.items()
    ]
    assert run.check_sweeps("sweep-hot", run.DEFAULT_SEED, [good])[1:] == (0, [])

    document["results"][0]["result"]["activations"] += 1
    corrupted = [
        report(r["label"], document) if r["label"] == "blockhammer@250:lbm" else r
        for r in good
    ]
    attempted, failed, errors = run.check_sweeps("sweep-hot", run.DEFAULT_SEED, [good, corrupted])
    assert failed == 2 and attempted == 4 * len(good)
    assert any("pinned" in e for e in errors)
    assert any("differs from the first pass" in e for e in errors)


@pytest.mark.parametrize("scheme", run.SCHEMES)
def test_feed_span_on_an_overriding_scheme_records_time_and_is_restored(scheme):
    originals = (
        dict(runner.SCHEME_BUILDERS), SystemSimulator.run,
        SweepCheckpoint.record, SyntheticWorkload.epoch_trace,
    )
    tracer = Tracer()
    instrument(tracer)
    try:
        instance = runner.SCHEME_BUILDERS[scheme](1000)()
        SystemSimulator(instance).run(workload("xz"), epochs=1)
    finally:
        tracer.restore()
    assert type(instance).access_epoch is not MitigationScheme.access_epoch
    feeds = [s for s in tracer.spans if s["name"] == "sim.feed"]
    assert [s["attrs"]["scheme"] for s in feeds] == [scheme]
    assert feeds[0]["attrs"]["acts"] > 0
    assert feeds[0]["end_ns"] > feeds[0]["start_ns"]
    run_span = next(s for s in tracer.spans if s["name"] == "sim.run")
    assert feeds[0]["parent"] == run_span["id"]
    assert (
        dict(runner.SCHEME_BUILDERS), SystemSimulator.run,
        SweepCheckpoint.record, SyntheticWorkload.epoch_trace,
    ) == originals


def test_self_time_excludes_children():
    second = 1_000_000_000
    spans = [
        {"id": "a", "parent": None, "name": "outer", "start_ns": 0, "end_ns": 10 * second},
        {"id": "b", "parent": "a", "name": "inner", "start_ns": 1, "end_ns": 4 * second + 1},
    ]
    assert self_times(spans) == {"outer": 6.0, "inner": 4.0}


def test_metric_names_are_well_formed_and_cover_what_the_run_reports():
    spec = benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    result = lbm_at_250_document()["results"][0]["result"]
    assert set(run.simulated_counts([result])) <= per_layer
    span = {"id": "a", "parent": None, "start_ns": 0, "end_ns": 1, "attrs": {}}
    spans = [
        dict(span, name="cli.import"),
        dict(span, id="b", name="sim.feed", attrs={"scheme": "rrs", "acts": 3}),
    ]
    assert set(run.layer_metrics(spans, 1, 1.0)) <= per_layer


def test_seed_determines_the_service_job_stream():
    def first(seed, n=80):
        stream = service_load.JobStream(seed)
        return [stream.spec(i) for i in range(n)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    specs = first(3, 200)
    keys = [service_load.spec_key(s) for s in specs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            assert keys.index(key) <= i - service_load.REPEAT_GAP
    repeats = len(keys) - len(set(keys))
    assert repeats == (len(keys) - service_load.REPEAT_GAP) // 2
    warmup = service_load.JobStream(3, service_load.WARMUP_SEED_SPACE)
    assert not {service_load.spec_key(warmup.spec(i)) for i in range(20)} & set(keys)
