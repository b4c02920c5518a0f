"""One cold ``repro sweep --checkpoint --out`` invocation, then its
``--resume``, in a fresh interpreter.

Usage: ``python3 perfbench/sweep_child.py '<task json>'``.  The task
names the scheme, threshold, workloads and seed, whether faults and
program telemetry are on (``chaos``), whether to record spans
(``trace``) and a scratch directory.  The last stdout line is a JSON
report for ``run.py``.

The steps mirror ``repro sweep`` (``expand_grid`` -> ``SweepCheckpoint``
-> ``run_sweep_parallel(jobs=1)`` -> results document), called through
the library so the chaos variant can pass a ``FaultSpec``, which the CLI
verb does not take.
"""

import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from host import peak_rss_mb  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

CHAOS_FAULT_RATE = 1e-3
RESUMES = 50
"""``--resume`` runs per invocation: enough hit samples for a p90."""


def sim_counts(document: dict) -> dict:
    """The simulated counts of every result, for identity checks."""
    return {
        f"{entry['scheme']}/{entry['workload']}": {
            key: entry["result"][key]
            for key in (
                "activations", "migrations", "row_moves", "evictions",
                "busy_ns", "table_dram_ns", "slowdown", "lookup_breakdown",
                "extra",
            )
        }
        for entry in document["results"]
    }


def main(task: dict) -> dict:
    tracer = Tracer() if task["trace"] else None
    if tracer is not None:
        with tracer.span("cli.import"):
            import repro.cli  # noqa: F401 -- what a CLI user pays
        instrument(tracer)
    else:
        import repro.cli  # noqa: F401
    from repro.core.canon import content_digest
    from repro.faults import FaultSpec
    from repro.parallel import (
        build_results_document,
        expand_grid,
        run_sweep_parallel,
        write_results_document,
    )
    from repro.sim.checkpoint import SweepCheckpoint
    from repro.telemetry import write_jsonl

    ready_ns = time.monotonic_ns()
    seed = task["seed"]
    chaos = task["chaos"]
    work = task["work"]
    meta = {
        "scheme": task["scheme"],
        "trh": task["trh"],
        "epochs": task["epochs"],
        "seed": seed,
    }
    points = expand_grid(
        [task["scheme"]],
        task["workloads"],
        thresholds=(task["trh"],),
        epochs=task["epochs"],
        seed=seed,
    )
    options = (
        {"trace": True, "fault_spec": FaultSpec(seed=seed, fault_rate=CHAOS_FAULT_RATE)}
        if chaos
        else {}
    )
    ckpt_path = os.path.join(work, "sweep.ckpt.jsonl")
    out_path = os.path.join(work, "results.json")

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext({})

    def sweep(checkpoint):
        with span("parallel.run_sweep"):
            return run_sweep_parallel(points, jobs=1, checkpoint=checkpoint, **options)

    def document(report, path):
        with span("parallel.document") as attrs:
            doc = build_results_document(meta, points, report)
            write_results_document(path, doc)
            attrs["bytes"] = os.path.getsize(path)
        return doc

    # Misses: every point is computed.  Each checkpoint record marks a
    # point's completion, which gives per-point latencies.
    started = time.monotonic()
    checkpoint = SweepCheckpoint.create(ckpt_path, meta)
    done_at = []
    record = checkpoint.record

    def stamped_record(*args, **kwargs):
        record(*args, **kwargs)
        done_at.append(time.monotonic())

    checkpoint.record = stamped_record
    try:
        report = sweep(checkpoint)
    finally:
        checkpoint.close()
    events = 0
    if chaos:
        events_path = os.path.join(work, "events.jsonl")
        tagged = [
            (event, {"workload": point.workload})
            for point in points
            for event in report.events.get(point.key, [])
        ]
        with span("telemetry.export"):
            events = write_jsonl(events_path, tagged)
        os.remove(events_path)
    doc = document(report, out_path)
    miss_latencies = [b - a for a, b in zip([started] + done_at, done_at)]

    # Hits: re-run the finished sweep with --resume, RESUMES times;
    # every point comes back from the checkpoint journal, and the
    # document must be the same bytes.
    with open(out_path, encoding="utf-8") as fh:
        miss_text = fh.read()
    hit_latencies = []
    wrong = set()
    for _ in range(RESUMES):
        hit_started = time.monotonic()
        resumed = SweepCheckpoint.resume(ckpt_path, meta)
        try:
            report2 = sweep(resumed)
        finally:
            resumed.close()
        document(report2, out_path)
        hit_latencies.append(time.monotonic() - hit_started)
        if report2.resumed != len(points):
            wrong.add(f"resume re-ran {len(points) - report2.resumed} point(s)")
        with open(out_path, encoding="utf-8") as fh:
            if fh.read() != miss_text:
                wrong.add("resumed document differs from the computed one")
    os.remove(ckpt_path)
    os.remove(out_path)
    end_ns = time.monotonic_ns()

    errors = [f"{f.scheme}/{f.workload}: {f.error}" for f in report.failures]
    errors += sorted(wrong)
    result = {
        "ready_ns": ready_ns,
        "end_ns": end_ns,
        "points": len(points),
        "miss_latencies": miss_latencies,
        "hit_latencies": hit_latencies,
        "acts": sum(entry["result"]["activations"] for entry in doc["results"]),
        "digest": content_digest(doc),
        "counts": sim_counts(doc),
        "fault_digests": {
            f"{key[0]}/{key[1]}": value["digest"]
            for key, value in sorted(report.faults.items())
        },
        "faults_injected": sum(
            sum(value["counts"].values()) for value in report.faults.values()
        ),
        "events": events,
        "events_dropped": sum(report.trace_dropped.values()),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.restore()
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
