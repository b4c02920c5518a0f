"""SimulationService end-to-end: cache correctness, recovery, HTTP.

The three service guarantees pinned here (and re-proved over real HTTP
by the CI ``service-smoke`` job):

* a cache hit returns the *byte-identical* document a cold run -- or a
  direct ``repro sweep`` -- produces;
* crash-restart resumes journaled jobs exactly once;
* backpressure and error routes map onto clean HTTP statuses.
"""

import asyncio
import json

import pytest

from repro.errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.faults import FaultSpec
from repro.parallel import run_sweep_parallel
from repro.parallel.results import (
    build_results_document,
    render_results_document,
)
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceServer,
    SimulationService,
)
from repro.service.jobs import JobSpec
from repro.service.store import JobStore

SPEC = JobSpec(scheme="aqua-sram", workloads=("xz",), epochs=1, seed=7)
OTHER = JobSpec(scheme="aqua-sram", workloads=("xz",), epochs=1, seed=8)


@pytest.fixture(scope="module")
def direct_document() -> str:
    """What ``repro sweep --out`` writes for SPEC's parameters."""
    points = SPEC.points()
    report = run_sweep_parallel(points, jobs=1)
    return render_results_document(
        build_results_document(SPEC.meta(), points, report)
    )


def open_service(tmp_path, **kwargs) -> SimulationService:
    return SimulationService.open(
        str(tmp_path / "jobs.jsonl"), str(tmp_path / "cache"), **kwargs
    )


def run_next(service: SimulationService):
    """Dequeue and execute one job (a dispatcher's inner loop)."""

    async def body():
        job = await service.queue.get()
        await service._execute(job)
        return job

    return asyncio.run(body())


class TestCacheSemantics:
    def test_cache_hit_is_byte_identical_to_cold_run(
        self, tmp_path, direct_document
    ):
        service = open_service(tmp_path)
        try:
            cold = service.submit(SPEC)
            assert not cold.from_cache
            assert cold.state == "queued"
            assert run_next(service) is cold
            assert cold.state == "done"
            cold_text = service.result_text(cold.id)
            # The service document IS the direct-sweep document.
            assert cold_text == direct_document

            hit = service.submit(SPEC)
            assert hit.from_cache
            assert hit.state == "done"
            assert hit.attempts == 0  # never executed
            assert hit.id != cold.id  # a new submission, same work
            assert service.result_text(hit.id) == cold_text

            snapshot = service.metrics_snapshot()
            assert snapshot["service_cache_misses_total"] == 1.0
            assert snapshot["service_cache_hits_total"] == 1.0
            assert snapshot["service_jobs_submitted_total"] == 2.0
            assert (
                snapshot["service_jobs_completed_total{state=done}"] == 2.0
            )
            assert any(
                name.startswith("service_job_latency_s")
                for name in snapshot
            )
        finally:
            service.close()

    def test_validation_failures_journal_nothing(self, tmp_path):
        self.assert_rejected_without_trace(
            tmp_path, JobSpec(scheme="doom", workloads=("xz",)),
            "unknown scheme",
        )

    @pytest.mark.parametrize(
        "spec, match",
        [
            (
                JobSpec(
                    scheme="aqua-mm", workloads=("xz",),
                    fault_spec=FaultSpec(fault_rate=5),
                ),
                "fault_rate must be in",
            ),
            (
                JobSpec(
                    scheme="aqua-mm", workloads=("xz",),
                    fault_spec=FaultSpec(rates=(("doom", 0.1),)),
                ),
                "unknown fault site",
            ),
            (
                JobSpec(
                    scheme="aqua-mm", workloads=("xz",),
                    fault_spec=FaultSpec(rates=(("tracker_drop", -1.0),)),
                ),
                "rate for site",
            ),
        ],
    )
    def test_fault_spec_validation_failures_journal_nothing(
        self, tmp_path, spec, match
    ):
        self.assert_rejected_without_trace(tmp_path, spec, match)

    @staticmethod
    def assert_rejected_without_trace(tmp_path, spec, match):
        service = open_service(tmp_path)
        try:
            with pytest.raises(ConfigError, match=match):
                service.submit(spec)
            assert service.list_jobs() == []
            assert service.queue.depth == 0
        finally:
            service.close()
        with JobStore.open(str(tmp_path / "jobs.jsonl")) as store:
            assert store.jobs == {}


class TestBackpressure:
    def test_queue_full_rejects_and_journals_nothing(self, tmp_path):
        service = open_service(tmp_path, max_depth=1)
        try:
            accepted = service.submit(SPEC)
            with pytest.raises(QueueFullError, match="full"):
                service.submit(OTHER)
            assert [job.id for job in service.list_jobs()] == [accepted.id]
        finally:
            service.close()
        # A refused submission leaves no trace to recover.
        with JobStore.open(str(tmp_path / "jobs.jsonl")) as store:
            assert len(store.jobs) == 1


class TestCrashRecovery:
    def test_restart_resumes_queued_jobs_exactly_once(self, tmp_path):
        service = open_service(tmp_path)
        first = service.submit(SPEC)
        second = service.submit(OTHER)
        # Crash: the process dies with both jobs journaled but unrun.
        service.store.close()

        revived = open_service(tmp_path)
        try:
            assert revived.queue.depth == 2
            snapshot = revived.metrics_snapshot()
            assert snapshot["service_jobs_recovered_total"] == 2.0
            done = [run_next(revived), run_next(revived)]
            assert sorted(job.id for job in done) == sorted(
                [first.id, second.id]
            )
            for job in done:
                assert job.state == "done"
                assert job.attempts == 1  # exactly once, not replayed
            assert len(revived.cache.keys()) == 2
        finally:
            revived.close()

        # A third start finds only terminal states: nothing re-runs.
        third = open_service(tmp_path)
        try:
            assert third.queue.depth == 0
            assert third.counts() == {"done": 2}
        finally:
            third.close()


class TestFailurePaths:
    def test_exception_retries_then_fails(self, tmp_path):
        service = open_service(tmp_path)
        try:
            def boom(spec):
                raise RuntimeError("synthetic sweep failure")

            service._run_blocking = boom
            job = service.submit(
                JobSpec(
                    scheme="aqua-sram", workloads=("xz",), epochs=1,
                    seed=7, max_attempts=2,
                )
            )
            assert run_next(service) is job
            assert job.state == "queued"  # first failure requeues
            assert job.attempts == 1
            assert run_next(service) is job
            assert job.state == "failed"  # attempts exhausted
            assert job.attempts == 2
            assert "RuntimeError: synthetic sweep failure" in job.error
            snapshot = service.metrics_snapshot()
            assert snapshot["service_jobs_retried_total"] == 1.0
            assert (
                snapshot["service_jobs_completed_total{state=failed}"]
                == 1.0
            )
        finally:
            service.close()

    def test_partial_run_failures_keep_the_partial_document(
        self, tmp_path
    ):
        service = open_service(tmp_path)
        try:
            service._run_blocking = lambda spec: ("partial-document", 1)
            job = service.submit(SPEC)
            run_next(service)
            assert job.state == "failed"
            assert job.run_failures == 1
            assert "1 of 1 run(s) failed" in job.error
            # The partial ledger is retrievable for debugging...
            assert service.result_text(job.id) == "partial-document"
            # ...but was never counted as a cache win...
            assert "service_cache_hits_total" not in (
                service.metrics_snapshot()
            )
            # ...and never entered the dedup namespace: resubmitting
            # the same spec re-runs the work instead of being served
            # the failed document as a "cached" success.
            assert service.cache.get(job.digest) is None
            resubmitted = service.submit(SPEC)
            assert not resubmitted.from_cache
            assert resubmitted.state == "queued"
        finally:
            service.close()

    def test_result_for_unfinished_job_is_a_clean_conflict(self, tmp_path):
        service = open_service(tmp_path)
        try:
            job = service.submit(SPEC)
            with pytest.raises(ServiceError, match="queued"):
                service.result_text(job.id)
            with pytest.raises(JobNotFoundError, match="no job"):
                service.job("j9-nope")
        finally:
            service.close()


# --------------------------------------------------------------- HTTP layer


def route(server: ServiceServer, method: str, path: str, body: dict = None):
    """Drive one request through the router, returning (status, payload)."""
    raw = server._route(
        method, path,
        json.dumps(body).encode() if body is not None else b"",
    )
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, payload


BAD_BODIES = (
    # int(inf): an OverflowError, not a ValueError.
    b'{"scheme": "aqua-mm", "workloads": ["xz"], "trh": 1e400}',
    b'{"scheme": "aqua-mm", "workloads": ["xz"], "fault_spec": [1]}',
    b'{"scheme": "aqua-mm", "workloads": ["xz"], '
    b'"fault_spec": {"seed": 1e400}}',
    b'{"scheme": "aqua-mm", "workloads": ["xz"], '
    b'"fault_spec": {"fault_rate": 5}}',
    b"[" * 100_000,
)
"""Submit bodies each rejected with a 400 (a 500 before the fixes)."""


def respond(server: ServiceServer, raw: bytes) -> bytes:
    """Read one request from ``raw`` bytes (then EOF) and answer it."""

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await server._respond(reader)

    return asyncio.run(body())


class TestHttpRoutes:
    """Status-code mapping, exercised synchronously (no sockets)."""

    def test_error_routes(self, tmp_path):
        service = open_service(tmp_path, max_depth=1)
        server = ServiceServer(service)
        try:
            status, _ = route(server, "GET", "/v1/healthz")
            assert status == 200
            status, _ = route(server, "GET", "/v1/doom")
            assert status == 404
            status, _ = route(server, "DELETE", "/v1/jobs")
            assert status == 405
            status, payload = route(server, "POST", "/v1/jobs", None)
            assert status == 400  # empty body
            raw = server._route("POST", "/v1/jobs", b"not json")
            assert b"400" in raw.split(b"\r\n", 1)[0]
            for body in BAD_BODIES:
                raw = server._route("POST", "/v1/jobs", body)
                assert raw.startswith(b"HTTP/1.1 400 "), body

            status, _ = route(
                server, "POST", "/v1/jobs", {"spec": SPEC.to_dict()}
            )
            assert status == 201  # accepted, not cached
            status, payload = route(
                server, "POST", "/v1/jobs", {"spec": OTHER.to_dict()}
            )
            assert status == 429  # queue full (depth 1)
            assert b"full" in payload

            job_id = service.list_jobs()[0].id
            status, _ = route(
                server, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 409  # queued, no result yet
            status, _ = route(server, "GET", "/v1/jobs/j9-nope")
            assert status == 404

            service.draining = True
            status, _ = route(
                server, "POST", "/v1/jobs", {"spec": SPEC.to_dict()}
            )
            assert status == 429  # draining refuses new work
        finally:
            service.close()


class TestHttpReader:
    """Malformed requests read off the wire get a 400, never a 500."""

    @pytest.mark.parametrize(
        "raw",
        [
            # Content-Length promises 50 bytes, the client sends 5.
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
            b'{"sch',
            # A request line over the StreamReader's 64 KiB line limit.
            b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n",
            # A header line over it.
            b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 17)
            + b"\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"GET http://[::1/v1/healthz HTTP/1.1\r\n\r\n",
        ],
        ids=[
            "truncated-body", "long-request-line", "long-header",
            "negative-content-length", "bad-target",
        ],
    )
    def test_malformed_request_is_a_400(self, tmp_path, raw):
        service = open_service(tmp_path)
        try:
            response = respond(ServiceServer(service), raw)
        finally:
            service.close()
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_stalled_request_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.service.api.REQUEST_DEADLINE_S", 0.05
        )
        service = open_service(tmp_path)
        server = ServiceServer(service)

        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /v1/healthz HTTP/1.1\r\n")
            return await server._respond(reader)  # never sees EOF

        try:
            response = asyncio.run(body())
        finally:
            service.close()
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"timed out" in response


class TestHttpEndToEnd:
    def test_submit_wait_fetch_and_cached_resubmit(
        self, tmp_path, direct_document
    ):
        service = open_service(tmp_path)
        with BackgroundServer(service) as server:
            client = ServiceClient(port=server.port)
            assert client.health()["status"] == "ok"

            accepted = client.submit(SPEC)
            assert not accepted["cached"]
            job = client.wait(accepted["job"]["id"], timeout_s=120.0)
            assert job["state"] == "done"
            assert job["attempts"] == 1
            text = client.result_text(job["id"])
            assert text == direct_document

            again = client.submit(SPEC)
            assert again["cached"]
            assert again["job"]["state"] == "done"
            assert client.result_text(again["job"]["id"]) == text

            assert len(client.jobs()) == 2
            assert client.metrics()["service_cache_hits_total"] == 1.0
            with pytest.raises(JobNotFoundError):
                client.job("j9-nope")

        # Graceful drain persisted every terminal state: a restart has
        # nothing to recover and the cached result is still served.
        revived = open_service(tmp_path)
        try:
            assert revived.queue.depth == 0
            assert revived.counts() == {"done": 2}
            hit = revived.submit(SPEC)
            assert hit.from_cache
        finally:
            revived.close()
