"""FaultInjector.draw_block + fire == the same checks made one by one.

The fused epoch loops draw a whole epoch's ``tracker_drop`` checks as
one block and fire the hits in stream order, while other sites keep
calling :meth:`FaultInjector.inject` in between.  Every observable of
the injector must come out exactly as if each check had been an
``inject()`` call.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.faults import FAULT_SITES, FaultInjector
from repro.telemetry import Telemetry

rates = st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)


def _injector(rate):
    telemetry = Telemetry()
    injector = FaultInjector(
        seed=3, fault_rate=0.2, rates={"tracker_drop": rate},
        scope="prop", telemetry=telemetry,
    )
    return injector, telemetry


def _observed(injector, telemetry):
    return {
        "rng": {
            site: state.rng.getstate()
            for site, state in injector._sites.items()
        },
        "offered": {site: injector.offered(site) for site in FAULT_SITES},
        "counts": injector.counts(),
        "total": injector.total_injected,
        "digest": injector.schedule_digest(),
        "events": [
            (event.ts_ns, event.kind, tuple(event.attrs.items()))
            for event in telemetry.tracer.events()
        ],
        "metrics": list(telemetry.registry.snapshot().items()),
    }


@settings(max_examples=60, deadline=None)
@given(
    rate=rates,
    prefix=st.integers(0, 20),
    n=st.integers(0, 400),
    others=st.lists(
        st.tuples(
            st.integers(0, 400),
            st.sampled_from([s for s in FAULT_SITES if s != "tracker_drop"]),
        ),
        max_size=30,
    ),
)
def test_block_then_fire_equals_sequential_injects(rate, prefix, n, others):
    site = "tracker_drop"
    interleaved = {}
    for position, other in others:
        interleaved.setdefault(min(position, n), []).append(other)

    def other_checks(injector, i):
        for other in interleaved.get(i, ()):
            injector.inject(other, ts_ns=i + 0.5, row=-i)

    sequential, seq_tel = _injector(rate)
    blocked, blk_tel = _injector(rate)
    for injector in (sequential, blocked):
        for j in range(prefix):
            injector.inject(site, ts_ns=-1.0, row=j)

    for i in range(n):
        other_checks(sequential, i)
        sequential.inject(site, ts_ns=float(i), scheme="s", row=i)
    other_checks(sequential, n)

    base = blocked.offered(site)
    fires = set(blocked.draw_block(site, n))
    for i in range(n):
        other_checks(blocked, i)
        if i in fires:
            blocked.fire(site, base + i + 1, float(i), scheme="s", row=i)
    other_checks(blocked, n)

    assert _observed(blocked, blk_tel) == _observed(sequential, seq_tel)


def test_offsets_are_sorted_block_positions():
    injector = FaultInjector(seed=1, fault_rate=0.3)
    offsets = injector.draw_block("tracker_drop", 200)
    assert offsets == sorted(offsets)
    assert all(0 <= offset < 200 for offset in offsets)
    assert offsets


def test_rate_zero_block_counts_checks_without_drawing():
    injector = FaultInjector(seed=1, fault_rate=0.3, rates={"tracker_drop": 0.0})
    before = injector._sites["tracker_drop"].rng.getstate()
    assert injector.draw_block("tracker_drop", 50) == []
    assert injector.offered("tracker_drop") == 50
    assert injector._sites["tracker_drop"].rng.getstate() == before


def test_negative_block_rejected():
    with pytest.raises(ValueError):
        FaultInjector(seed=1).draw_block("tracker_drop", -1)
