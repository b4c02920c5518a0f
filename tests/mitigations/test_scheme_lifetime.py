"""A finished scheme is freed by reference counting alone.

A scheme that sits in a reference cycle outlives its run until the
next full garbage-collection pass, and so does everything it owns
(tracker banks, quarantine tables, row data).  The GC's allocation
heuristics do not see numpy or dict memory, so in a long-lived process
such as ``repro serve`` dead schemes pile up between passes.  These
tests run one epoch of every registered scheme with the collector
disabled -- plain, traced, fault-injected, and both -- and require the
scheme to die the moment its last reference goes.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import FaultInjector
from repro.sim.runner import SCHEME_BUILDERS, baseline
from repro.telemetry import Telemetry
from repro.workloads import SyntheticWorkload

from tests.mitigations.test_epoch_equivalence import TINY_SPEC

MODES = ("plain", "telemetry", "faults", "both")

FACTORIES = {name: builder(1000) for name, builder in SCHEME_BUILDERS.items()}
FACTORIES["baseline"] = baseline()


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_one_epoch(name: str, mode: str) -> weakref.ref:
    """Build ``name`` in ``mode``, feed it one epoch, return a weakref."""
    telemetry = Telemetry() if mode in ("telemetry", "both") else None
    factory = FACTORIES[name]
    scheme = factory(telemetry=telemetry) if telemetry else factory()
    if mode in ("faults", "both"):
        scheme.attach_faults(
            FaultInjector(
                seed=3, fault_rate=1e-2, scope="lifetime",
                telemetry=telemetry,
            )
        )
    trace = SyntheticWorkload(
        TINY_SPEC, seed=7, max_background_acts=3000
    ).epoch_trace(0)
    dt = scheme.refresh.timing.trefw_ns / (trace.total_activations + 1)
    scheme.access_epoch(trace.rows, trace.counts, 0.0, dt)
    if telemetry is not None:
        scheme.collect_metrics(telemetry)
    assert scheme.stats.accesses == trace.total_activations
    return weakref.ref(scheme)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_scheme_freed_without_gc(gc_disabled, name, mode):
    ref = _run_one_epoch(name, mode)
    assert ref() is None, (
        f"{name} ({mode}) survived its last reference: a reference "
        f"cycle keeps it alive"
    )
