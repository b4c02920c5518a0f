"""Seed-deterministic fault injector.

Each fault *site* is a named hook point in the simulation; components
ask ``injector.inject(site, ...)`` at the moment the fault would bite
and take their degradation path when it returns ``True``.  Sites draw
from independent PRNG streams seeded by ``(seed, scope, site)``, so

* the same seed always yields the same schedule (bit-for-bit),
* adding a new site (or a scheme that never consults one site) does not
  perturb the draws of any other site, and
* per-run ``scope`` strings (e.g. ``"aqua-mm/gcc"``) decorrelate the
  schedules of different runs sharing one seed.

Every injected fault is emitted as a ``fault`` event through the
attached :class:`~repro.telemetry.core.Telemetry` tracer and counted in
the ``faults_injected_total`` metric, so ``repro inspect`` sees the
fault record next to the migrations and throttles it caused.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry import NULL_TELEMETRY


FAULT_SITES = (
    "rqa_forced_full",
    "migration_interrupt",
    "fpt_cache_miss",
    "fpt_cache_corrupt",
    "tracker_drop",
    "refresh_postpone",
)
"""The hook points wired through the simulator (DESIGN.md §8)."""


@dataclass
class _SiteState:
    """Per-site PRNG stream and counters."""

    rng: random.Random
    rate: float
    offered: int = 0
    injected: int = 0


class NullFaultInjector:
    """Shared do-nothing injector: the allocation-free disabled path."""

    __slots__ = ()

    enabled = False

    def inject(self, site: str, ts_ns: float = 0.0, **attrs) -> bool:
        return False

    def counts(self) -> Dict[str, int]:
        return {}

    @property
    def total_injected(self) -> int:
        return 0


NULL_INJECTOR = NullFaultInjector()
"""The singleton every un-faulted component shares."""


def _check_rates(fault_rate: float, rates: Dict[str, float]) -> None:
    """Reject an out-of-range rate or an unknown site name."""
    if not 0.0 <= fault_rate <= 1.0:
        raise ConfigError(
            f"fault_rate must be in [0, 1] (got {fault_rate})"
        )
    for site, rate in rates.items():
        if site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; choose from {FAULT_SITES}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(
                f"rate for site {site!r} must be in [0, 1] (got {rate})"
            )


@dataclass(frozen=True)
class FaultSpec:
    """Picklable recipe for building a :class:`FaultInjector` per run.

    Live injectors hold per-site PRNG streams mid-draw plus a telemetry
    reference -- state that is not process-safe to share: shipping one
    injector to N workers would fork its streams and destroy schedule
    determinism.  A spec instead crosses the process boundary and each
    worker derives its own injector with ``scope="<label>/<workload>"``,
    so the fault schedule of a run point depends only on (seed, scope,
    rates) -- never on which worker ran it or in what order.

    ``rates`` is a tuple of ``(site, rate)`` pairs (a dict is not
    hashable or deterministic to pickle); :meth:`validate` applies the
    site and range checks of the :class:`FaultInjector` constructor
    that :meth:`build` calls.
    """

    seed: int = 0
    fault_rate: float = 0.0
    rates: Tuple[Tuple[str, float], ...] = ()

    def validate(self) -> None:
        """Raise :class:`ConfigError` where :meth:`build` would."""
        _check_rates(self.fault_rate, dict(self.rates))

    def build(self, scope: str, telemetry=None) -> "FaultInjector":
        """Derive the deterministic injector for one run point."""
        return FaultInjector(
            seed=self.seed,
            fault_rate=self.fault_rate,
            rates=dict(self.rates),
            scope=scope,
            telemetry=telemetry,
        )

    # --------------------------------------------------------- serialization
    #
    # A spec is part of a service job's identity: two submissions with
    # different fault schedules must hash to different cache keys, so
    # the dict form is canonical (sorted rate pairs) and round-trips
    # exactly.

    def to_dict(self) -> dict:
        """Canonical JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "rates": [
                [site, rate] for site, rate in sorted(self.rates)
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"FaultSpec must be an object (got {type(data).__name__})"
            )
        try:
            rates = tuple(
                (str(site), float(rate)) for site, rate in data.get("rates", [])
            )
            return FaultSpec(
                seed=int(data.get("seed", 0)),
                fault_rate=float(data.get("fault_rate", 0.0)),
                rates=rates,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed FaultSpec dict: {exc}") from exc


class FaultInjector:
    """Deterministic per-site fault scheduler.

    Parameters
    ----------
    seed:
        Schedule seed.  Same seed (and scope/rates) -> same schedule.
    fault_rate:
        Default probability that any one hook-point check fires.
    rates:
        Per-site overrides of ``fault_rate`` (``{"tracker_drop": 0.0}``
        disables one site).  Unknown site names are rejected.
    scope:
        Free-form string mixed into every site's stream seed, used by
        the chaos runner to give each (scheme, workload) pair its own
        schedule under one user-facing seed.
    telemetry:
        Sink for ``fault`` events and the ``faults_injected_total``
        counter; defaults to the null telemetry.
    """

    enabled = True

    def __init__(
        self,
        seed: int = 0,
        fault_rate: float = 0.0,
        rates: Optional[Dict[str, float]] = None,
        scope: str = "",
        telemetry=None,
    ) -> None:
        rates = dict(rates) if rates else {}
        _check_rates(fault_rate, rates)
        self.seed = seed
        self.scope = scope
        self.fault_rate = fault_rate
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._sites: Dict[str, _SiteState] = {}
        for site in FAULT_SITES:
            # str seeds hash through SHA-512: stable across runs and
            # platforms (unlike hash(), which is salted per process).
            stream = random.Random(f"{seed}:{scope}:{site}")
            self._sites[site] = _SiteState(
                rng=stream, rate=rates.get(site, fault_rate)
            )
        self.total_injected = 0
        self._digest = 0

    def inject(self, site: str, ts_ns: float = 0.0, **attrs) -> bool:
        """One hook-point check: should the fault fire here?

        Consumes one draw from the site's private stream per check
        (rate-zero sites short-circuit without drawing).  Because each
        site draws from its own stream, the schedule of one site is
        independent of how often any other site is consulted.
        """
        state = self._sites[site]
        state.offered += 1
        if state.rate <= 0.0:
            return False
        if state.rng.random() >= state.rate:
            return False
        self.fire(site, state.offered, ts_ns, **attrs)
        return True

    def draw_block(self, site: str, n: int) -> List[int]:
        """Make ``n`` consecutive checks against ``site`` at once.

        Consumes exactly the draws ``n`` :meth:`inject` calls would and
        returns the 0-based offsets (ascending) of the checks that fire;
        check ``offset`` is number ``offered_before + offset + 1``.  The
        caller owes one :meth:`fire` per offset, in stream order, with
        that number -- together they are bit-identical to the ``n``
        sequential checks (RNG state, counters, digest, events, metrics)
        even when fires of other sites land in between.  The block is
        committed up front: a caller that stops early leaves ``offered``
        and the stream as if all ``n`` checks were made.
        """
        if n < 0:
            raise ValueError("block size must be >= 0")
        state = self._sites[site]
        state.offered += n
        rate = state.rate
        if rate <= 0.0:
            return []
        draw = state.rng.random
        return [i for i in range(n) if draw() < rate]

    def fire(self, site: str, check_no: int, ts_ns: float = 0.0, **attrs) -> None:
        """Record that check number ``check_no`` of ``site`` fired.

        The post-draw bookkeeping shared by :meth:`inject` and the
        :meth:`draw_block` callers: counters, the schedule digest, the
        ``fault`` event and the ``faults_injected_total`` metric.
        """
        state = self._sites[site]
        state.injected += 1
        self.total_injected += 1
        self._digest = zlib.crc32(
            f"{site}@{check_no}".encode("ascii"), self._digest
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.event(
                "fault", ts_ns, site=site, seq=state.injected, **attrs
            )
            telemetry.inc("faults_injected_total", site=site)

    # ------------------------------------------------------------- reporting

    def counts(self) -> Dict[str, int]:
        """Injected-fault count per site (only sites that fired)."""
        return {
            site: state.injected
            for site, state in self._sites.items()
            if state.injected
        }

    def offered(self, site: str) -> int:
        """Number of hook-point checks made against ``site``."""
        return self._sites[site].offered

    def schedule_digest(self) -> str:
        """CRC of every fired (site, check-index) pair so far.

        Two runs with equal digests observed identical fault schedules;
        the reproducibility tests and the chaos summary both use this.
        """
        return f"{self._digest:08x}"

    def summary(self) -> str:
        """Compact deterministic one-liner for chaos reports."""
        fired = self.counts()
        if not fired:
            return "none"
        parts = ", ".join(f"{site}={n}" for site, n in sorted(fired.items()))
        return f"{self.total_injected} ({parts})"
