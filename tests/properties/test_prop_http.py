"""Property tests: the HTTP request reader answers any bytes cleanly.

``ServiceServer._respond`` reads one request (line, headers, body) from
an ``asyncio.StreamReader`` and routes it.  Whatever the client sends --
arbitrary bytes, a request cut at any point, a lying Content-Length,
lines past the reader's 64 KiB limit, or a job spec with out-of-range,
non-finite or wrongly shaped fields -- the answer must be a well-formed
HTTP/1.1 response with a JSON body, it must arrive within
``REQUEST_DEADLINE_S``, and it must not be a 500: an exception escaping
``_respond`` is what the connection handler turns into a 500.
"""

import json
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.faults import FAULT_SITES
from repro.service import ServiceServer, SimulationService
from repro.service.api import _STATUS_TEXT, REQUEST_DEADLINE_S

from tests.service.test_service import respond

NUMBERS = st.one_of(
    st.integers(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)
"""Numeric fields: json.dumps writes non-finite floats as the
``NaN``/``Infinity`` tokens the service's json.loads accepts."""

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)

FAULT_SPECS = st.one_of(
    JSON,
    st.fixed_dictionaries(
        {},
        optional={
            "seed": NUMBERS,
            "fault_rate": NUMBERS,
            "rates": st.lists(
                st.tuples(
                    st.sampled_from(FAULT_SITES + ("doom",)), NUMBERS
                ).map(list),
                max_size=2,
            ),
        },
    ),
)

SPECS = st.fixed_dictionaries(
    {
        "scheme": st.one_of(st.sampled_from(["aqua-mm", "rrs", "doom"]), JSON),
        "workloads": st.one_of(
            st.lists(st.sampled_from(["xz", "gcc", "doom"]), max_size=3),
            JSON,
        ),
    },
    optional={
        field: NUMBERS
        for field in (
            "trh", "epochs", "seed", "timeout_s", "retries", "priority",
            "max_attempts",
        )
    }
    | {"fault_spec": FAULT_SPECS},
)

BODIES = st.one_of(
    st.binary(max_size=64),
    st.one_of(SPECS, SPECS.map(lambda spec: {"spec": spec}), JSON).map(
        lambda value: json.dumps(value).encode()
    ),
)

TARGETS = st.one_of(
    st.sampled_from(
        ["/v1/healthz", "/v1/metrics", "/v1/jobs", "/v1/jobs/j0-x",
         "/v1/jobs/j0-x/result", "/", "http://[::1/v1/jobs"]
    ),
    st.text(max_size=12),
)


@st.composite
def requests(draw) -> bytes:
    """A request shaped like HTTP, cut anywhere, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    method = draw(st.sampled_from(["GET", "POST", "DELETE", "post"]))
    target = draw(TARGETS)
    body = draw(BODIES)
    length = draw(
        st.one_of(
            st.just(str(len(body))),
            st.integers(-2, len(body) + 8).map(str),
            st.text(max_size=4),
        )
    )
    pad = draw(st.sampled_from([0, 0, 0, 1 << 17]))
    head = f"{method} {target} HTTP/1.1\r\nContent-Length: {length}\r\n"
    if pad:
        head += "X-Pad: " + "a" * pad + "\r\n"
    raw = head.encode("utf-8") + b"\r\n" + body
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return raw


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    # Depth 1: at most one valid submission is ever journaled (fsynced);
    # the rest are refused with a 429 before touching the store.
    service = SimulationService.open(
        str(root / "jobs.jsonl"), str(root / "cache"), max_depth=1
    )
    yield ServiceServer(service)
    service.close()


def parse(response: bytes) -> int:
    """Check the response is well formed; return its status."""
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, response[:200]
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    version, status, reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    assert _STATUS_TEXT[int(status)] == reason
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert int(headers["Content-Length"]) == len(body)
    assert headers["Connection"] == "close"
    json.loads(body)
    return int(status)


@settings(max_examples=300, deadline=None)
@given(raw=requests())
def test_any_request_gets_a_well_formed_non_500_answer(server, raw):
    started = time.monotonic()
    response = respond(server, raw)
    assert time.monotonic() - started < REQUEST_DEADLINE_S
    assert parse(response) != 500
