"""Instrumented epochs on the fused loop equal the scalar loop.

AQUA (both table modes) and RRS run epochs with telemetry and/or fault
injection attached on a fused loop instead of the scalar chunk loop.
Everything an instrumented run reports must be bit-identical to the
scalar reference: the :class:`WorkloadResult` (timeline included), the
event stream in order -- timestamps, kinds and attributes in insertion
order --, the metrics registry snapshot (series order included), and
every fault site's schedule digest, fire counts and check counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aqua import AquaMitigation
from repro.faults import FAULT_SITES, FaultInjector
from repro.mitigations.base import MitigationScheme
from repro.mitigations.blockhammer import Blockhammer
from repro.mitigations.none import NoMitigation
from repro.mitigations.rrs import RandomizedRowSwap
from repro.mitigations.victim_refresh import VictimRefresh
from repro.sim.runner import SCHEME_BUILDERS, run_hardened
from repro.telemetry import Telemetry
from repro.workloads import SyntheticWorkload, clear_trace_cache

from tests.mitigations.test_epoch_equivalence import SEEDS, TINY_SPEC

_OVERRIDING = (
    AquaMitigation,
    VictimRefresh,
    RandomizedRowSwap,
    Blockhammer,
    NoMitigation,
)

FUSED_SCHEMES = ("aqua-mm", "aqua-sram", "rrs")
MODES = ("telemetry", "faults", "both")


def _observed_run(factory, target, mode, epochs=2, fault_rate=1e-2, rates=()):
    """Run one point and return everything an instrumented run reports."""
    telemetry = Telemetry() if mode in ("telemetry", "both") else None
    injector = None
    if mode in ("faults", "both"):
        injector = FaultInjector(
            seed=11, fault_rate=fault_rate, rates=dict(rates),
            scope="equiv", telemetry=telemetry,
        )
    result = run_hardened(
        factory, target, epochs=epochs,
        telemetry=telemetry, fault_injector=injector,
    )
    observed = {"result": result.to_dict()}
    if telemetry is not None:
        observed["events"] = [
            (event.ts_ns, event.kind, tuple(event.attrs.items()))
            for event in telemetry.tracer.events()
        ]
        observed["snapshot"] = list(telemetry.registry.snapshot().items())
    if injector is not None:
        observed["digest"] = injector.schedule_digest()
        observed["counts"] = injector.counts()
        observed["offered"] = {
            site: injector.offered(site) for site in FAULT_SITES
        }
    return observed


def _scalar_observed(monkeypatch, *args, **kwargs):
    """The same run with every override forced to the scalar loop."""
    for cls in _OVERRIDING:
        monkeypatch.setattr(cls, "access_epoch", MitigationScheme.access_epoch)
    try:
        return _observed_run(*args, **kwargs)
    finally:
        monkeypatch.undo()


def _assert_same(monkeypatch, builder, target, mode, **kwargs):
    fused = _observed_run(builder, target, mode, **kwargs)
    scalar = _scalar_observed(monkeypatch, builder, target, mode, **kwargs)
    assert fused.keys() == scalar.keys()
    for key in fused:
        assert fused[key] == scalar[key], key
    return fused


def _tiny(seed):
    return SyntheticWorkload(TINY_SPEC, seed=seed, max_background_acts=3000)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", FUSED_SCHEMES)
def test_instrumented_epochs_match_scalar(monkeypatch, scheme, seed, mode):
    clear_trace_cache()
    fused = _assert_same(
        monkeypatch, SCHEME_BUILDERS[scheme](1000), _tiny(seed), mode
    )
    if mode != "telemetry":
        # The suite only means something if faults actually fire.
        assert fused["counts"].get("tracker_drop", 0) > 0


@pytest.mark.parametrize("scheme", FUSED_SCHEMES)
def test_postponed_boundary_matches_scalar(monkeypatch, scheme):
    """``refresh_postpone`` holds every boundary open mid-epoch: the
    epoch's first chunks still belong to the previous epoch."""
    fused = _assert_same(
        monkeypatch, SCHEME_BUILDERS[scheme](1000), _tiny(7), "both",
        epochs=3, rates=(("refresh_postpone", 1.0),),
    )
    assert fused["counts"]["refresh_postpone"] == 2


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_evicting_rqa_matches_scalar(monkeypatch, scheme):
    """T_RH 250 with a small RQA: the head laps previous-epoch rows,
    so lazy-drain evictions run inside the instrumented loop."""
    fused = _assert_same(
        monkeypatch, SCHEME_BUILDERS[scheme](250, rqa_slots=64), _tiny(0),
        "both", epochs=3,
    )
    assert fused["result"]["evictions"] > 0


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_throttle_fallback_matches_scalar(monkeypatch, scheme):
    """An RQA too small for the epoch degrades quarantines to throttling."""
    builder = SCHEME_BUILDERS[scheme](
        250, rqa_slots=16, rqa_full_policy="throttle"
    )
    fused = _assert_same(monkeypatch, builder, _tiny(7), "both", epochs=3)
    assert any(kind == "throttle" for _, kind, _ in fused["events"])


def test_spill_heavy_tracker_matches_scalar(monkeypatch):
    """A 4-entry ART: evictions and spurious installs, with events."""
    builder = SCHEME_BUILDERS["aqua-mm"](1000, tracker_entries_per_bank=4)
    fused = _assert_same(monkeypatch, builder, _tiny(5), "both")
    kinds = {kind for _, kind, _ in fused["events"]}
    assert {"tracker_install", "tracker_evict", "fault"} <= kinds


@pytest.mark.parametrize("tracker", ("exact", "hydra"))
@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_other_arts_match_scalar(monkeypatch, scheme, tracker):
    """Non-Misra-Gries ARTs feed through ``chunk_kernel`` instead of
    the direct per-bank dispatch."""
    builder = SCHEME_BUILDERS[scheme](1000, tracker=tracker)
    fused = _assert_same(monkeypatch, builder, _tiny(13), "both")
    assert fused["result"]["migrations"] > 0


@pytest.mark.parametrize("scheme", FUSED_SCHEMES)
def test_instrumented_epoch_leaves_scalar_loop(monkeypatch, scheme):
    """The fused schemes do not fall back when instrumented."""
    calls = []
    monkeypatch.setattr(
        MitigationScheme, "_scalar_epoch",
        lambda self, *args: calls.append(self.name),
    )
    factory = SCHEME_BUILDERS[scheme](1000)
    scheme_obj = factory(telemetry=Telemetry())
    trace = _tiny(0).epoch_trace(0)
    scheme_obj.access_epoch(trace.rows, trace.counts, 0.0, 1.0)
    assert calls == []


@pytest.mark.parametrize("scheme", ("blockhammer", "victim-refresh"))
@pytest.mark.parametrize("mode", ("telemetry", "faults"))
def test_scalar_fallback_schemes_stay_scalar(monkeypatch, scheme, mode):
    calls = []
    original = MitigationScheme._scalar_epoch

    def spy(self, *args):
        calls.append(self.name)
        return original(self, *args)

    monkeypatch.setattr(MitigationScheme, "_scalar_epoch", spy)
    factory = SCHEME_BUILDERS[scheme](1000)
    if mode == "telemetry":
        scheme_obj = factory(telemetry=Telemetry())
    else:
        scheme_obj = factory()
        scheme_obj.attach_faults(FaultInjector(seed=1, fault_rate=1e-2))
    rows = np.array([1, 2, 1], dtype=np.int64)
    counts = np.array([5, 5, 5], dtype=np.int64)
    scheme_obj.access_epoch(rows, counts, 0.0, 10.0)
    assert calls == [scheme_obj.name]
