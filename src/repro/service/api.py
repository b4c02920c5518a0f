"""The simulation job service: orchestrator + HTTP JSON API.

Architecture (DESIGN.md §10)::

    repro submit ──HTTP──▶ ServiceServer ──▶ SimulationService
                                               │  submit(): digest spec,
                                               │  consult ResultCache,
                                               │  journal to JobStore,
                                               │  enqueue in JobQueue
                                               ▼
                                          dispatcher task(s)
                                               │  await queue.get()
                                               ▼
                                    loop.run_in_executor (thread)
                                               │  run_sweep_parallel
                                               │  (ProcessPoolExecutor
                                               │   when jobs > 1)
                                               ▼
                                 canonical results document ──▶ cache

Three properties the tests and the ``service-smoke`` CI job pin down:

* **Cache correctness** -- a hit returns the byte-identical document a
  cold run would produce, because both sides are the same
  :func:`repro.parallel.results.render_results_document` bytes.
* **Exactly-once recovery** -- every accepted job is journaled before
  it is queued; restart re-enqueues ``queued``/``running`` jobs from
  the store (once per job ID) and completed work is never re-run.
* **Graceful drain** -- SIGTERM stops accepting, lets the in-flight
  job finish and persist, and leaves the backlog journaled for the
  next start.

The HTTP layer is a deliberately small HTTP/1.1 implementation over
``asyncio`` streams (stdlib only -- no new dependencies): one request
per connection, JSON in, JSON out, ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.parallel.executor import run_sweep_parallel
from repro.parallel.results import (
    build_results_document,
    render_results_document,
)
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec
from repro.service.queue import JobQueue
from repro.service.store import JobStore
from repro.telemetry import Telemetry

LATENCY_BUCKETS_S = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)
"""Wall-clock job latency buckets (seconds) -- service scale, not the
nanosecond scale the simulation histograms use."""


def _now_ns() -> float:
    return float(time.time_ns())


class SimulationService:
    """Owns the queue, cache, store, and dispatch of simulation jobs."""

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        queue: JobQueue,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.queue = queue
        self.jobs = jobs
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Pre-register the latency histogram with service-scale buckets
        # (telemetry.observe would otherwise create nanosecond ones).
        self.telemetry.registry.histogram(
            "service_job_latency_s",
            help="wall-clock seconds from dequeue to completion",
            buckets=LATENCY_BUCKETS_S,
        )
        self.draining = False

    # ----------------------------------------------------------- construction

    @classmethod
    def open(
        cls,
        store_path: str,
        cache_dir: str,
        max_depth: int = 64,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> "SimulationService":
        """Open (or create) a service over durable state, recovering
        any jobs a previous process left unfinished."""
        telemetry = telemetry if telemetry is not None else Telemetry()
        service = cls(
            store=JobStore.open(store_path),
            cache=ResultCache(cache_dir, telemetry=telemetry),
            queue=JobQueue(max_depth=max_depth, telemetry=telemetry),
            jobs=jobs,
            telemetry=telemetry,
        )
        service.recover()
        return service

    def recover(self) -> int:
        """Re-enqueue journaled jobs that never finished (exactly once
        per job: the store collapses records by job ID)."""
        recovered = 0
        for job in self.store.jobs.values():
            if job.state in ("queued", "running"):
                job.state = "queued"
                self.queue.restore(job)
                recovered += 1
        if recovered:
            self.telemetry.inc(
                "service_jobs_recovered_total", float(recovered)
            )
            self.telemetry.event(
                "service_recovered", _now_ns(), jobs=recovered
            )
        return recovered

    # ------------------------------------------------------------ submission

    def submit(self, spec: JobSpec) -> Job:
        """Accept one submission: cache-hit instantly or enqueue.

        Raises :class:`~repro.errors.ConfigError` for malformed specs
        and :class:`~repro.errors.QueueFullError` when the queue is at
        ``max_depth`` (nothing is journaled in either case -- a refused
        submission leaves no trace to recover).
        """
        spec.validate()
        digest = spec.cache_key()
        cached = self.cache.get(digest)
        if cached is None and self.queue.full:
            raise QueueFullError(
                f"job queue is full ({self.queue.depth}/"
                f"{self.queue.max_depth} deep); retry after the backlog "
                f"drains"
            )
        job = Job.create(self.store.next_seq, spec, digest=digest)
        self.store.append_job(job)
        self.telemetry.inc("service_jobs_submitted_total")
        self.telemetry.event(
            "job_submitted", _now_ns(), job=job.id, digest=digest[:16],
            priority=spec.priority,
        )
        if cached is not None:
            job.state = "done"
            job.from_cache = True
            self.store.append_state(job)
            self.telemetry.inc("service_jobs_completed_total", state="done")
            self.telemetry.event(
                "job_cached", _now_ns(), job=job.id, digest=digest[:16]
            )
            return job
        self.queue.put_nowait(job)
        return job

    # -------------------------------------------------------------- dispatch

    def _run_blocking(self, spec: JobSpec) -> Tuple[str, int]:
        """Execute one job's sweep (worker-thread side).

        Returns ``(document_text, failure_count)``.  Runs through the
        existing :func:`~repro.parallel.run_sweep_parallel` bridge:
        ``jobs > 1`` fans out to its ProcessPoolExecutor, and the
        deterministic merge means the rendered document is identical
        to the direct CLI run's.
        """
        points = spec.points()
        report = run_sweep_parallel(
            points,
            jobs=self.jobs,
            fault_spec=spec.fault_spec,
            timeout_s=spec.timeout_s,
            retries=spec.retries,
        )
        document = build_results_document(spec.meta(), points, report)
        return render_results_document(document), len(report.failures)

    async def _execute(self, job: Job) -> None:
        """Run one dequeued job to a terminal (or requeued) state."""
        job.state = "running"
        job.attempts += 1
        self.store.append_state(job)
        self.telemetry.event(
            "job_started", _now_ns(), job=job.id, attempt=job.attempts
        )
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            text, failures = await loop.run_in_executor(
                None, self._run_blocking, job.spec
            )
        except Exception as exc:  # noqa: BLE001 -- ledgered, not fatal
            self._conclude(job, error=f"{type(exc).__name__}: {exc}")
            return
        finally:
            latency = time.monotonic() - started
            self.telemetry.observe("service_job_latency_s", latency)
            job.extras["latency_s"] = latency
        if failures:
            self._conclude(
                job,
                error=f"{failures} of {len(job.spec.points())} run(s) "
                      f"failed (see the failure ledger)",
                run_failures=failures,
                text=text,
            )
            return
        # Success: the document becomes the content-addressed truth for
        # this spec.  put() is atomic, so concurrent dispatchers racing
        # on the same digest simply overwrite with identical bytes.
        self.cache.put(job.digest, text)
        job.state = "done"
        job.error = None
        self.store.append_state(job)
        self.telemetry.inc("service_jobs_completed_total", state="done")
        self.telemetry.event(
            "job_completed", _now_ns(), job=job.id,
            latency_s=round(job.extras.get("latency_s", 0.0), 6),
        )

    def _conclude(
        self,
        job: Job,
        error: str,
        run_failures: int = 0,
        text: Optional[str] = None,
    ) -> None:
        """Map a failed attempt to retry-or-fail (the job-level mirror
        of the runner's worker-level fault tolerance)."""
        job.run_failures = run_failures
        if job.attempts < job.spec.max_attempts:
            job.state = "queued"
            job.error = error
            self.store.append_state(job)
            self.telemetry.inc("service_jobs_retried_total")
            self.telemetry.event(
                "job_retried", _now_ns(), job=job.id, attempt=job.attempts
            )
            try:
                self.queue.put_nowait(job)
            except QueueFullError:
                job.state = "failed"
                job.error = f"{error} (retry refused: queue full)"
                self.store.append_state(job)
                self.telemetry.inc(
                    "service_jobs_completed_total", state="failed"
                )
            return
        job.state = "failed"
        job.error = error
        if text is not None and run_failures:
            # A partial document (some runs failed) is still useful for
            # debugging, but it must never enter the dedup namespace:
            # a resubmission of this spec has to re-run the work, not
            # be served a document that records failures.
            self.cache.put_partial(job.digest, text)
        self.store.append_state(job)
        self.telemetry.inc("service_jobs_completed_total", state="failed")
        self.telemetry.event(
            "job_failed", _now_ns(), job=job.id, error=error[:120]
        )

    async def dispatcher(self, stop: asyncio.Event) -> None:
        """Pull jobs until ``stop`` is set; never abandons a running job."""
        while not stop.is_set():
            get_task = asyncio.ensure_future(self.queue.get())
            stop_task = asyncio.ensure_future(stop.wait())
            try:
                await asyncio.wait(
                    {get_task, stop_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            except asyncio.CancelledError:
                get_task.cancel()
                stop_task.cancel()
                raise
            if get_task.done() and not get_task.cancelled():
                stop_task.cancel()
                await self._execute(get_task.result())
            else:
                get_task.cancel()

    # --------------------------------------------------------------- queries

    def job(self, job_id: str) -> Job:
        job = self.store.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def list_jobs(self) -> List[Job]:
        return list(self.store.jobs.values())

    def result_text(self, job_id: str) -> str:
        """The result document for a finished job (verbatim bytes)."""
        job = self.job(job_id)
        if job.state in ("queued", "running"):
            raise ServiceError(
                f"job {job_id} is {job.state}; result not available yet"
            )
        text = self.cache.peek(job.digest)
        if text is None:
            # Failed jobs may have left a partial ledger for debugging.
            text = self.cache.peek_partial(job.digest)
        if text is None:
            raise JobNotFoundError(
                f"job {job_id} has no stored result"
                + (f" (state {job.state}: {job.error})" if job.error else "")
            )
        return text

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.store.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def metrics_snapshot(self) -> Dict[str, float]:
        return self.telemetry.registry.snapshot()

    def close(self) -> None:
        self.store.close()


# ---------------------------------------------------------------- HTTP layer


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

MAX_BODY_BYTES = 1 << 20  # a spec is tiny; anything bigger is abuse

REQUEST_DEADLINE_S = 10.0
"""Wall-clock budget to read one full request (line + headers + body)."""


def _response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: dict) -> bytes:
    return _response(
        status, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    )


class ServiceServer:
    """Minimal asyncio HTTP server exposing a :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- plumbing

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 -- never kill the server
            payload = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        try:
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> bytes:
        # One deadline covers the whole read (request line, headers,
        # body): a client that stalls at any point -- slow-loris style
        # -- cannot pin a handler coroutine forever.
        try:
            return await asyncio.wait_for(
                self._read_and_route(reader), timeout=REQUEST_DEADLINE_S
            )
        except asyncio.TimeoutError:
            return _json_response(400, {"error": "request timed out"})

    async def _read_and_route(self, reader: asyncio.StreamReader) -> bytes:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                return _json_response(
                    400, {"error": "malformed request line"}
                )
            method, target, _version = parts
            content_length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        return _json_response(
                            400, {"error": "bad Content-Length"}
                        )
            if content_length < 0:
                return _json_response(400, {"error": "bad Content-Length"})
            if content_length > MAX_BODY_BYTES:
                return _json_response(
                    400, {"error": "request body too large"}
                )
            body = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
        except asyncio.IncompleteReadError:
            return _json_response(
                400, {"error": "body shorter than Content-Length"}
            )
        except ValueError:
            # StreamReader.readline: a line over the reader's limit.
            return _json_response(
                400, {"error": "request line or header too long"}
            )
        try:
            path = urlsplit(target).path
        except ValueError:
            return _json_response(400, {"error": "malformed request target"})
        return self._route(method.upper(), path, body)

    # -------------------------------------------------------------- routing

    def _route(self, method: str, path: str, body: bytes) -> bytes:
        service = self.service
        if path == "/v1/healthz" and method == "GET":
            return _json_response(
                200,
                {
                    "status": "draining" if service.draining else "ok",
                    "queue_depth": service.queue.depth,
                    "jobs": service.counts(),
                },
            )
        if path == "/v1/metrics" and method == "GET":
            return _json_response(
                200, {"metrics": service.metrics_snapshot()}
            )
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return _json_response(
                    200,
                    {
                        "jobs": [
                            job.to_dict(include_spec=False)
                            for job in service.list_jobs()
                        ]
                    },
                )
            return _json_response(405, {"error": f"{method} not allowed"})
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if method != "GET":
                return _json_response(405, {"error": f"{method} not allowed"})
            if rest.endswith("/result"):
                return self._result(rest[: -len("/result")].rstrip("/"))
            return self._job(rest)
        return _json_response(404, {"error": f"no route {method} {path}"})

    def _submit(self, body: bytes) -> bytes:
        if self.service.draining:
            return _json_response(
                429, {"error": "server is draining; resubmit after restart"}
            )
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError, RecursionError):
            return _json_response(400, {"error": "body is not valid JSON"})
        try:
            spec = JobSpec.from_dict(
                data.get("spec", data) if isinstance(data, dict) else data
            )
            job = self.service.submit(spec)
        except ConfigError as exc:
            return _json_response(400, {"error": str(exc)})
        except QueueFullError as exc:
            return _json_response(429, {"error": str(exc)})
        status = 200 if job.from_cache else 201
        return _json_response(
            status, {"job": job.to_dict(), "cached": job.from_cache}
        )

    def _job(self, job_id: str) -> bytes:
        try:
            job = self.service.job(job_id)
        except JobNotFoundError as exc:
            return _json_response(404, {"error": str(exc)})
        return _json_response(200, {"job": job.to_dict()})

    def _result(self, job_id: str) -> bytes:
        try:
            text = self.service.result_text(job_id)
        except JobNotFoundError as exc:
            return _json_response(404, {"error": str(exc)})
        except ServiceError as exc:
            return _json_response(409, {"error": str(exc)})
        return _response(200, text.encode("utf-8"))


# ------------------------------------------------------------------ serving


async def serve_async(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 0,
    dispatchers: int = 1,
    stop: Optional[asyncio.Event] = None,
    install_signal_handlers: bool = True,
    on_ready: Optional[Callable[[ServiceServer], None]] = None,
) -> None:
    """Serve until ``stop`` (or SIGTERM/SIGINT), then drain gracefully.

    Drain order matters: close the listener first (no new work), then
    let dispatchers finish their in-flight job, then close the store.
    Queued-but-unstarted jobs stay journaled and are re-enqueued by the
    next ``recover()``.
    """
    server = ServiceServer(service, host, port)
    await server.start()
    stop = stop if stop is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: List[signal.Signals] = []
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
    tasks = [
        asyncio.ensure_future(service.dispatcher(stop))
        for _ in range(max(1, dispatchers))
    ]
    if on_ready is not None:
        on_ready(server)
    try:
        await stop.wait()
        service.draining = True
        await server.close()
        await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        service.close()


class BackgroundServer:
    """A server on its own thread + event loop (tests, CLI smoke).

    ``start()`` blocks until the port is bound; ``stop()`` performs the
    same graceful drain as SIGTERM and joins the thread.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        dispatchers: int = 1,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.dispatchers = dispatchers
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def _main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def ready(server: ServiceServer) -> None:
                self.port = server.port
                self._ready.set()

            await serve_async(
                self.service,
                host=self.host,
                port=self.port,
                dispatchers=self.dispatchers,
                stop=self._stop,
                install_signal_handlers=False,
                on_ready=ready,
            )

        try:
            asyncio.run(body())
        except BaseException as exc:  # noqa: BLE001 -- surfaced by start()
            self._error = exc
            self._ready.set()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServiceError("service did not come up within 30s")
        if self._error is not None:
            raise ServiceError(f"service failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise ServiceError("service did not drain within timeout")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def wait_for_port(
    host: str, port: int, timeout_s: float = 10.0
) -> bool:
    """Poll until a TCP connect succeeds (CI smoke helper)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return True
        except OSError:
            time.sleep(0.05)
    return False


__all__ = [
    "BackgroundServer",
    "ServiceServer",
    "SimulationService",
    "serve_async",
    "wait_for_port",
]
