"""The repository benchmark: cold CLI sweeps, an instrumented chaos sweep
and a mixed hit/miss service stream.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-hot --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced runs of the same work and
reports per-layer metrics from the spans (see README.md).  Every metric
is printed with its unit; the last stdout line is one JSON object.  The
exit code is 1 when any operation failed or any output was wrong, and 2
when the tree holds no program to measure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from host import nominal, peak_rss_mb, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0

SCHEMES = ("aqua-mm", "aqua-sram", "blockhammer", "rrs", "victim-refresh")
HOT = ["lbm", "blender", "gcc", "mcf"]
#: One entry per cold ``repro sweep`` invocation; a pass runs them all.
#: lbm at T_RH 250 is the only point with evictions (the lazy drain).
INVOCATIONS = {
    "sweep-hot": [{"scheme": s, "trh": 1000, "workloads": HOT} for s in SCHEMES]
    + [{"scheme": s, "trh": 250, "workloads": ["lbm"]} for s in SCHEMES],
    "sweep-chaos": [
        {"scheme": s, "trh": 1000, "workloads": [w]}
        for s in ("aqua-mm", "aqua-sram", "rrs")
        for w in ("gcc", "mcf")
    ],
}
WORKLOADS = ("sweep-hot", "sweep-chaos", "service-mixed")
SERVICE_SETUPS = 3
"""Server starts per untraced service run; setup_s is their median."""
FPT_OUTCOMES = ("sram", "bloom_filtered", "cache_hit", "singleton", "dram_access")
PIN_SAMPLE = 48
"""service-mixed reports simulated counts over the computed jobs among
the first this-many stream entries, so the counts repeat exactly."""


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ sweeps


def run_child(task):
    """One sweep invocation in a fresh interpreter."""
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep_child.py"), json.dumps(task)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"sweep child {task['scheme']}@{task['trh']} exited "
            f"{proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["label"] = f"{task['scheme']}@{task['trh']}:{'+'.join(task['workloads'])}"
    report["setup_s"] = (report["ready_ns"] - spawned) / 1e9
    report["timed_s"] = (report["end_ns"] - report["ready_ns"]) / 1e9
    return report


def run_pass(workload, seed, trace, work, speeds, chaos=None):
    """Every invocation of ``workload`` once, each after a reference
    timing appended to ``speeds``."""
    if chaos is None:
        chaos = workload == "sweep-chaos"
    reports = []
    for inv in INVOCATIONS[workload]:
        speeds.append(reference_s())
        reports.append(
            run_child(dict(inv, epochs=2, seed=seed, chaos=chaos, trace=trace, work=work))
        )
    return reports


def check_sweeps(workload, seed, passes):
    """(attempted, failed, errors): every invocation must succeed, give
    the same document on every pass and, at the default seed, the
    pinned digests."""
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[workload]
    attempted = failed = 0
    errors = []
    first = {r["label"]: r for r in passes[0]}
    for reports in passes:
        for r in reports:
            ops = r["points"] + len(r["hit_latencies"])
            attempted += ops
            wrong = list(r["errors"])
            if r["digest"] != first[r["label"]]["digest"]:
                wrong.append("document differs from the first pass")
            if r["fault_digests"] != first[r["label"]]["fault_digests"]:
                wrong.append("fault schedule differs from the first pass")
            if seed == DEFAULT_SEED:
                pin = pinned[r["label"]]
                if r["digest"] != pin["digest"]:
                    wrong.append(f"document digest {r['digest']} != pinned {pin['digest']}")
                if r["fault_digests"] != pin["fault_digests"]:
                    wrong.append("fault schedule digests differ from the pinned ones")
            if wrong:
                failed += ops
                errors.extend(f"{r['label']}: {e}" for e in wrong)
    return attempted, failed, errors


def sweep_end_to_end(reports):
    timed = sum(r["timed_s"] for r in reports)
    misses = [x for r in reports for x in r["miss_latencies"]]
    hits = [x for r in reports for x in r["hit_latencies"]]
    return {
        "setup_s": statistics.median([r["setup_s"] for r in reports]),
        "acts_per_s": sum(r["acts"] for r in reports) / timed,
        "jobs_per_s": (len(misses) + len(hits)) / timed,
        "miss_latency_p50_s": statistics.median(misses),
        "hit_latency_p50_s": statistics.median(hits),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }, {"miss": len(misses), "hit": len(hits)}


def simulated_counts(results):
    """Per-layer simulated counts over WorkloadResult dicts."""
    out = {
        "sim.activations": sum(r["activations"] for r in results),
        "core.migrations": sum(r["migrations"] for r in results),
        "core.row_moves": sum(r["row_moves"] for r in results),
        "core.evictions": sum(r["evictions"] for r in results),
        "trackers.spurious_installs": sum(
            r["extra"].get("spurious_installs", 0.0) for r in results
        ),
        "mitigations.busy_ns": sum(r["busy_ns"] for r in results),
        "core.table_dram_ns": sum(r["table_dram_ns"] for r in results),
        "sim.gmean_slowdown": math.exp(
            sum(math.log(r["slowdown"]) for r in results) / len(results)
        ),
    }
    breakdowns = [r["lookup_breakdown"] for r in results if r["lookup_breakdown"]]
    for outcome in FPT_OUTCOMES:
        out[f"core.fpt_lookup.{outcome}"] = (
            sum(b.get(outcome, 0.0) for b in breakdowns) / len(breakdowns)
            if breakdowns
            else 0.0
        )
    return out


def layer_metrics(spans, norm, wall):
    """Per-layer metrics from spans; times are totals divided by
    ``norm`` (passes for sweeps, computed jobs for the service)."""
    from spans import self_times

    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(items):
        return sum(s["end_ns"] - s["start_ns"] for s in items) / 1e9

    traces = named("workloads.epoch_trace")
    feeds = named("sim.feed")
    documents = named("parallel.document")
    out = {
        "cli.import_s": statistics.median(
            s["end_ns"] - s["start_ns"] for s in named("cli.import")
        ) / 1e9,
        "workloads.trace_gen_s": total(s for s in traces if not s["attrs"]["hit"]) / norm,
        "workloads.trace_cache_hit_ratio": (
            sum(s["attrs"]["hit"] for s in traces) / len(traces) if traces else 0.0
        ),
        "core.build_s": own.get("core.build", 0.0) / norm,
        "sim.feed_s": total(feeds) / norm,
        "sim.feed_share": total(feeds) / wall,
        "sim.run_other_s": own.get("sim.run", 0.0) / norm,
        "sim.checkpoint_record_s": own.get("sim.checkpoint_record", 0.0) / norm,
        "sim.checkpoint_records": len(named("sim.checkpoint_record")) / norm,
        "parallel.document_s": own.get("parallel.document", 0.0) / norm,
        "telemetry.export_s": own.get("telemetry.export", 0.0) / norm,
    }
    if documents and "bytes" in documents[0]["attrs"]:
        out["parallel.document_bytes"] = statistics.fmean(
            s["attrs"]["bytes"] for s in documents
        )
    for scheme in SCHEMES:
        mine = [s for s in feeds if s["attrs"]["scheme"] == scheme]
        acts = sum(s["attrs"]["acts"] for s in mine)
        out[f"sim.feed_ns_per_act.{scheme}"] = total(mine) * 1e9 / acts if acts else 0.0
    return out


def feed_ns_per_act(spans):
    feeds = [s for s in spans if s["name"] == "sim.feed"]
    return sum(s["end_ns"] - s["start_ns"] for s in feeds) / sum(s["attrs"]["acts"] for s in feeds)


def run_sweeps(workload, seed, seconds, trace, work, spans_out):
    """Whole passes while another one fits in ``seconds`` (at least one);
    under ``trace`` they alternate untraced and traced, at least one of
    each."""
    started = time.monotonic()
    passes, speeds = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced, work, speeds))
        elapsed = time.monotonic() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (
            not trace or len(passes) >= 2
        ):
            break
    checked = passes
    if len(passes) == 1:
        # Only one pass fit: repeat its cheapest invocation, untimed, so
        # the identity check across repeats still runs for this seed.
        i = min(range(len(passes[0])), key=lambda k: passes[0][k]["timed_s"])
        repeat = run_child(
            dict(
                INVOCATIONS[workload][i], epochs=2, seed=seed,
                chaos=workload == "sweep-chaos", trace=False, work=work,
            )
        )
        checked = passes + [[repeat]]
    attempted, failed, errors = check_sweeps(workload, seed, checked)
    # The digests to pin in pinned.json when run at the default seed.
    detail = {
        "digests": {
            r["label"]: {"digest": r["digest"], "fault_digests": r["fault_digests"]}
            for r in passes[0]
        }
    }
    reports = [r for p in passes for r in p]
    if not trace:
        detail["host_metrics"], detail["samples"] = sweep_end_to_end(reports)
        metrics, detail["host_scale"] = nominal(detail["host_metrics"], speeds)
        return metrics, attempted, failed, errors, detail
    plain = [r for i, p in enumerate(passes) if i % 2 == 0 for r in p]
    traced = [r for i, p in enumerate(passes) if i % 2 == 1 for r in p]
    n_traced = len(passes) // 2
    spans = [s for r in traced for s in r["spans"]]
    traced_wall = sum(r["timed_s"] for r in traced)
    metrics = layer_metrics(spans, n_traced, traced_wall)
    metrics["trace.overhead_ratio"] = (traced_wall / len(traced)) / (
        sum(r["timed_s"] for r in plain) / len(plain)
    )
    metrics["trace.timed_s"] = traced_wall / n_traced
    metrics["telemetry.events"] = sum(r["events"] for r in traced) / n_traced
    metrics["telemetry.dropped"] = sum(r["events_dropped"] for r in traced) / n_traced
    metrics["faults.injected"] = sum(r["faults_injected"] for r in traced) / n_traced
    metrics.update(
        simulated_counts([c for r in passes[0] for c in r["counts"].values()])
    )
    if workload == "sweep-chaos":
        # The same points with telemetry and faults off: the feed cost
        # per ACT that tracing and fault injection add.
        clean = run_pass(workload, seed, True, work, speeds, chaos=False)
        metrics["telemetry.feed_overhead_ratio"] = feed_ns_per_act(spans) / feed_ns_per_act(
            [s for r in clean for s in r["spans"]]
        )
        spans += [s for r in clean for s in r["spans"]]
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return metrics, attempted, failed, errors, detail


# ----------------------------------------------------------------- service


def run_service(seed, seconds, trace, work, spans_out):
    import service_load as sl
    from repro.service.client import ServiceClient

    setups = []
    if not trace:
        for i in range(SERVICE_SETUPS - 1):
            server = sl.Server(ROOT, os.path.join(work, f"probe{i}"))
            try:
                setups.append(server.start().setup_s)
            finally:
                server.stop()
    # Untraced, or (traced) an untraced half then a traced half, each
    # replaying the stream from its start against a fresh server.
    halves = [(None, seconds)] if not trace else [(None, seconds / 2), (spans_out, seconds / 2)]
    runs = []
    for spans_path, secs in halves:
        server = sl.Server(
            ROOT, os.path.join(work, "traced" if spans_path else "plain"), spans_path
        )
        try:
            setups.append(server.start().setup_s)
            warm, _ = sl.drive(
                server.port, sl.JobStream(seed, sl.WARMUP_SEED_SPACE), count=sl.WARMUP_JOBS
            )
            client = ServiceClient(port=server.port)
            before = client.metrics()
            records, wall = sl.drive(server.port, sl.JobStream(seed), seconds=secs)
            after = client.metrics()
            runs.append(
                {
                    "warm": warm,
                    "records": records,
                    "wall": wall,
                    "rss": peak_rss_mb(server.proc.pid),
                    "exec_s": (
                        after["service_job_latency_s_sum"] - before["service_job_latency_s_sum"]
                    ) / (
                        after["service_job_latency_s_count"]
                        - before["service_job_latency_s_count"]
                    ),
                }
            )
        finally:
            server.stop()
    # Hits must repeat their miss's bytes, also across the two halves.
    errors = sl.check([r for run in runs for r in run["warm"] + run["records"]])
    errors += sl.direct_check(runs[0]["records"])
    every = [r for run in runs for r in run["warm"] + run["records"]]
    failed = sum("error" in r for r in every)
    if not trace:
        records, wall = runs[0]["records"], runs[0]["wall"]
        ok = [r for r in records if "error" not in r]
        misses = [r["latency"] for r in ok if not r["cached"]]
        hits = [r["latency"] for r in ok if r["cached"]]
        if not misses or not hits:
            raise BenchError("too short a run: no cache misses or no cache hits")
        acts = sum(
            entry["result"]["activations"]
            for r in ok if not r["cached"]
            for entry in json.loads(r["text"])["results"]
        )
        # Host seconds, unscaled (README.md, "Host speed").
        metrics = {
            "setup_s": statistics.median(setups),
            "acts_per_s": acts / wall,
            "jobs_per_s": len(ok) / wall,
            "miss_latency_p50_s": statistics.median(misses),
            "hit_latency_p50_s": statistics.median(hits),
            "peak_rss_mb": runs[0]["rss"],
        }
        return metrics, len(every), failed, errors, {
            "samples": {"miss": len(misses), "hit": len(hits)}
        }

    records, traced_wall, exec_s = runs[1]["records"], runs[1]["wall"], runs[1]["exec_s"]
    ok = [r for r in records if "error" not in r]
    misses = [r for r in ok if not r["cached"]]
    with open(spans_out, encoding="utf-8") as fh:
        spans = json.load(fh)
    metrics = layer_metrics(spans, len(misses), traced_wall)
    metrics["parallel.document_bytes"] = statistics.fmean(len(r["text"]) for r in misses)
    metrics["trace.overhead_ratio"] = (runs[1]["wall"] / len(records)) / (
        runs[0]["wall"] / len(runs[0]["records"])
    )
    metrics["trace.timed_s"] = traced_wall

    def call_mean(name):
        spent = [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name]
        return sum(spent) / len(spent) / 1e9 if spent else 0.0

    mean = statistics.fmean
    metrics.update(
        {
            "service.submit_s": mean(r["submit"] for r in ok),
            "service.fetch_s": mean(r["fetch"] for r in ok),
            "service.poll_requests_per_job": mean(r["polls"] for r in ok),
            "service.exec_s": exec_s,
            "service.queue_wait_s": mean(
                r["latency"] - r["submit"] - r["fetch"] for r in misses
            ) - exec_s,
            "service.store_append_s": call_mean("service.store_append"),
            "service.cache_get_s": call_mean("service.cache_get"),
            "service.cache_put_s": call_mean("service.cache_put"),
            "service.cache_hit_ratio": (len(ok) - len(misses)) / len(records),
        }
    )
    # The tails, from the untraced half: too unsteady on a shared host to
    # bound as end-to-end metrics (README.md, "Tails").
    plain = [r for r in runs[0]["records"] if "error" not in r]
    for kind, cached in (("miss", False), ("hit", True)):
        metrics[f"service.{kind}_latency_p90_s"] = statistics.quantiles(
            [r["latency"] for r in plain if r["cached"] == cached], n=10
        )[8]
    pinned = [r for r in misses if r["index"] < PIN_SAMPLE]
    metrics.update(
        simulated_counts(
            [e["result"] for r in pinned for e in json.loads(r["text"])["results"]]
        )
    )
    return metrics, len(every), failed, errors, {}


# -------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    from repro.sim.runner import SCHEME_BUILDERS

    if sorted(SCHEME_BUILDERS) != sorted(SCHEMES):
        raise BenchError(f"registered schemes changed: {sorted(SCHEME_BUILDERS)}")
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        runner = run_service if args.workload == "service-mixed" else (
            lambda *a: run_sweeps(args.workload, *a)
        )
        metrics, attempted, failed, errors, detail = runner(
            args.seed, args.seconds, bool(args.trace), work, stem + ".spans.json"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unknown = set(metrics) - set(units)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not args.trace and set(units) - set(metrics):
        raise BenchError(f"unmeasured: {sorted(set(units) - set(metrics))}")
    # Per-layer metrics of layers a workload does not exercise read 0.
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, errors=errors, **detail), fh, indent=2)
    for error in errors:
        print(f"FAIL {error}")
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value['value']:.6g} {value['unit']}")
    for kind, count in detail.get("samples", {}).items():
        print(f"{args.workload} {kind} latency samples = {count}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
