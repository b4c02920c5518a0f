"""The ``service-mixed`` workload: a ``repro serve`` subprocess driven by
one closed-loop client over a seeded, half-repeating job stream.

One client, not several: every job then meets an otherwise idle server.
With two client threads, a hit's latency was set by GIL hand-offs
against the thread simulating the other client's miss, and two runs of
one seed differed by half (README.md, "Why one client").
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.parallel import (
    build_results_document,
    render_results_document,
    run_sweep_parallel,
)
from repro.service.client import TERMINAL_STATES, ServiceClient
from repro.service.jobs import JobSpec
from repro.sim.runner import SCHEME_BUILDERS

#: Two zero-band SPEC names whose streaming background makes a miss cost
#: ~50-350 ms, and six light names that cost ~3-110 ms.  Every block of
#: fresh jobs holds each (scheme, name) pair once, so the miss latency
#: percentiles sit on a fixed mix, not on a lucky draw: p50 among the
#: light jobs, p90 among the streaming ones.
STREAMING = ("nab", "bwaves")
LIGHT = ("xz", "wrf", "povray", "leela", "exchange2", "parest")
POLL_S = 0.005
"""Result polling interval: fine enough that a miss's latency measures
the server, not the client's sleep (``ServiceClient.wait`` sleeps 0.2 s)."""
REPEAT_GAP = 16
"""The first this-many jobs are fresh.  After them, each pair of jobs
holds one fresh spec and one repeat, in seeded order; a repeat names a
fresh spec issued at least this many jobs earlier."""
WARMUP_JOBS = 6
TIMED_SEED_SPACE = (0, 1 << 20)
WARMUP_SEED_SPACE = (1 << 20, 1 << 21)
"""Job seeds of the warm-up and the timed stream never overlap, so no
timed job is a hit on warm-up work."""


class JobStream:
    """Job ``i`` is a pure function of ``(seed, i)``."""

    def __init__(self, seed: int, seed_space=TIMED_SEED_SPACE) -> None:
        self._rng = random.Random(seed)
        self._seed_space = seed_space
        self._combos = [
            (scheme, name)
            for scheme in sorted(SCHEME_BUILDERS)
            for name in STREAMING + LIGHT
        ]
        self._block: List[tuple] = []
        self._used = set()
        self._fresh: List[int] = []
        self.specs: List[dict] = []

    def _next_fresh(self) -> dict:
        if not self._block:
            self._block = list(self._combos)
            self._rng.shuffle(self._block)
        scheme, name = self._block.pop()
        while True:
            job_seed = self._rng.randrange(*self._seed_space)
            if (scheme, name, job_seed) not in self._used:
                break
        self._used.add((scheme, name, job_seed))
        return {
            "scheme": scheme,
            "workloads": [name],
            "trh": 1000,
            "epochs": 1,
            "seed": job_seed,
        }

    def _append_fresh(self) -> None:
        self._fresh.append(len(self.specs))
        self.specs.append(self._next_fresh())

    def _append_repeat(self) -> None:
        i = len(self.specs)
        eligible = [j for j in self._fresh if j <= i - REPEAT_GAP]
        self.specs.append(self.specs[self._rng.choice(eligible)])

    def spec(self, index: int) -> dict:
        while len(self.specs) <= index:
            if len(self.specs) < REPEAT_GAP:
                self._append_fresh()
            elif self._rng.random() < 0.5:
                self._append_repeat()
                self._append_fresh()
            else:
                self._append_fresh()
                self._append_repeat()
        return self.specs[index]


def spec_key(spec: dict) -> tuple:
    return (spec["scheme"], tuple(spec["workloads"]), spec["seed"])


class Server:
    """One ``repro serve`` process over fresh state under ``work``."""

    def __init__(self, root: str, work: str, spans_path: Optional[str] = None):
        os.makedirs(work, exist_ok=True)
        self.work = work
        serve = [
            "serve", "--port", "0",
            "--store", os.path.join(work, "jobs.jsonl"),
            "--cache-dir", os.path.join(work, "cache"),
        ]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro"] + serve
        else:
            self.argv = [
                sys.executable,
                os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py"),
                spans_path,
            ] + serve
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Server":
        started = time.monotonic()
        self._stderr = open(os.path.join(self.work, "stderr.txt"), "w")
        self.proc = subprocess.Popen(
            self.argv, env=self.env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        for line in self.proc.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        else:
            self.stop()
            raise RuntimeError(f"server exited before serving; see {self._stderr.name}")
        with socket.create_connection(("127.0.0.1", self.port), timeout=10):
            pass
        self.setup_s = time.monotonic() - started
        return self

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        self.proc = None


def drive(
    port: int,
    stream: JobStream,
    *,
    count: Optional[int] = None,
    seconds: Optional[float] = None,
) -> tuple:
    """Send ``stream`` from its start, one job at a time, for ``count``
    jobs or ``seconds``; returns (records, wall seconds)."""
    client = ServiceClient(port=port, timeout_s=60.0)
    records: List[dict] = []
    started = time.monotonic()
    for index in range(count) if count is not None else itertools.count():
        if seconds is not None and time.monotonic() - started >= seconds:
            break
        spec = stream.spec(index)
        record = {"index": index, "key": spec_key(spec), "spec": spec}
        t0 = time.monotonic()
        try:
            reply = client.submit(spec)
            t1 = time.monotonic()
            job, polls = reply["job"], 0
            while job["state"] not in TERMINAL_STATES:
                time.sleep(POLL_S)
                job = client.job(job["id"])
                polls += 1
            t2 = time.monotonic()
            text = client.result_text(job["id"])
            t3 = time.monotonic()
        except ReproError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record.update(
                cached=bool(reply["cached"]), state=job["state"],
                latency=t3 - t0, submit=t1 - t0, fetch=t3 - t2,
                polls=polls, text=text,
            )
            if job["state"] != "done":
                record["error"] = f"job {job['id']} {job['state']}: {job.get('error')}"
        records.append(record)
    return records, time.monotonic() - started


def check(records: List[dict]) -> List[str]:
    """Every failure, and every hit whose bytes differ from its miss's."""
    errors = [f"job {r['index']}: {r['error']}" for r in records if "error" in r]
    first: Dict[tuple, str] = {}
    for r in records:
        if "error" in r:
            continue
        if first.setdefault(r["key"], r["text"]) != r["text"]:
            r["error"] = "bytes differ from the first result of this spec"
            errors.append(f"job {r['index']}: {r['error']}")
    return errors


def direct_check(records: List[dict], samples: int = 3) -> List[str]:
    """The first ``samples`` computed results must equal an in-process
    ``run_sweep_parallel`` of the same spec."""
    errors = []
    misses = [r for r in records if "error" not in r and not r["cached"]]
    for r in misses[:samples]:
        spec = JobSpec.from_dict(r["spec"])
        points = spec.points()
        report = run_sweep_parallel(points, jobs=1)
        text = render_results_document(build_results_document(spec.meta(), points, report))
        if text != r["text"]:
            r["error"] = "differs from a direct in-process run"
            errors.append(f"job {r['index']}: {r['error']}")
    return errors
