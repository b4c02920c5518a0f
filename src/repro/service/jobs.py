"""Job specifications and job records for the simulation service.

A :class:`JobSpec` is the *identity* of a piece of simulation work: it
expands to the same (scheme x workload) :class:`~repro.parallel.RunPoint`
grid the CLI's ``sweep`` builds, and hashes -- via the canonical
serialization in :mod:`repro.core.canon` -- to the content-addressed
cache key.  Two submissions with equal specs are, by construction, the
same work, and the second is served from cache.

The cache key covers exactly the fields that determine the result
document: the run points (scheme, workloads, threshold, epochs, seed,
scheme kwargs) and the execution semantics that can change outcomes
(per-run timeout, retry budget, fault spec).  Scheduling knobs --
``priority``, ``max_attempts`` -- are deliberately excluded: they say
*when and how stubbornly* to run, not *what* to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.canon import content_digest, short_digest
from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.parallel.executor import RunPoint, expand_grid
from repro.sim.runner import SCHEME_BUILDERS
from repro.workloads.mixes import all_mixes
from repro.workloads.table2 import SPEC_NAMES

CACHE_KEY_VERSION = 1
"""Bumped whenever result-document semantics change incompatibly, so a
stale cache can never serve bytes a newer simulator would not produce."""

DEFAULT_PRIORITY = 10
"""Lower numbers run first; the default sits mid-scale so urgent (0)
and bulk (>=20) submissions have room on both sides."""

JOB_STATES = ("queued", "running", "done", "failed")

_KNOWN_WORKLOADS: Optional[frozenset] = None


def known_workload_names() -> frozenset:
    """Every submittable workload name (SPEC + mixes), cached."""
    global _KNOWN_WORKLOADS
    if _KNOWN_WORKLOADS is None:
        _KNOWN_WORKLOADS = frozenset(SPEC_NAMES) | {
            mix.name for mix in all_mixes()
        }
    return _KNOWN_WORKLOADS


@dataclass(frozen=True)
class JobSpec:
    """One submittable unit of sweep work (a scheme over workloads)."""

    scheme: str
    workloads: Tuple[str, ...]
    trh: int = 1000
    epochs: int = 2
    seed: int = 0
    timeout_s: float = 0.0
    retries: int = 0
    priority: int = DEFAULT_PRIORITY
    max_attempts: int = 1
    fault_spec: Optional[FaultSpec] = None

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Reject malformed specs with field-and-range messages."""
        if self.scheme not in SCHEME_BUILDERS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from "
                f"{sorted(SCHEME_BUILDERS)}"
            )
        if not self.workloads:
            raise ConfigError("a job needs at least one workload")
        unknown = [
            name for name in self.workloads
            if name not in known_workload_names()
        ]
        if unknown:
            raise ConfigError(
                f"unknown workloads {unknown}; choose from {SPEC_NAMES} "
                f"or a mix name"
            )
        if len(set(self.workloads)) != len(self.workloads):
            raise ConfigError(
                f"duplicate workloads in {list(self.workloads)}; each "
                f"(scheme, workload) pair may appear once per job"
            )
        if self.trh < 2:
            raise ConfigError(f"trh must be >= 2 (got {self.trh})")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1 (got {self.epochs})")
        if self.timeout_s < 0:
            raise ConfigError(
                f"timeout_s must be >= 0 (got {self.timeout_s})"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0 (got {self.retries})")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.fault_spec is not None:
            self.fault_spec.validate()

    # ------------------------------------------------------------- expansion

    def points(self) -> List[RunPoint]:
        """The run-point grid, in the deterministic merge order."""
        return expand_grid(
            [self.scheme],
            list(self.workloads),
            thresholds=(self.trh,),
            epochs=self.epochs,
            seed=self.seed,
        )

    def meta(self) -> Dict[str, object]:
        """The results-document ``meta`` -- byte-compatible with the
        dict ``repro sweep`` embeds, which is what makes a fetched
        service result diff-clean against a direct CLI run."""
        return {
            "scheme": self.scheme,
            "trh": self.trh,
            "epochs": self.epochs,
            "seed": self.seed,
        }

    # ------------------------------------------------------------ cache key

    def cache_dict(self) -> dict:
        """The hashed identity (see the module docstring for scope)."""
        return {
            "version": CACHE_KEY_VERSION,
            "points": [point.to_dict() for point in self.points()],
            "exec": {
                "timeout_s": self.timeout_s,
                "retries": self.retries,
                "fault_spec": (
                    self.fault_spec.to_dict()
                    if self.fault_spec is not None
                    else None
                ),
            },
        }

    def cache_key(self) -> str:
        """Content digest keying this spec's result in the cache."""
        return content_digest(self.cache_dict())

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "scheme": self.scheme,
            "workloads": list(self.workloads),
            "trh": self.trh,
            "epochs": self.epochs,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "priority": self.priority,
            "max_attempts": self.max_attempts,
            "fault_spec": (
                self.fault_spec.to_dict()
                if self.fault_spec is not None
                else None
            ),
        }

    @staticmethod
    def from_dict(data: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (or an API body)."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"job spec must be an object (got {type(data).__name__})"
            )
        unknown = set(data) - {
            "scheme", "workloads", "trh", "epochs", "seed", "timeout_s",
            "retries", "priority", "max_attempts", "fault_spec",
        }
        if unknown:
            raise ConfigError(f"unknown job spec fields {sorted(unknown)}")
        if "scheme" not in data:
            raise ConfigError("job spec needs a 'scheme'")
        workloads = data.get("workloads")
        if not isinstance(workloads, (list, tuple)) or not workloads:
            raise ConfigError(
                "job spec needs a non-empty 'workloads' list"
            )
        fault = data.get("fault_spec")
        try:
            return JobSpec(
                scheme=str(data["scheme"]),
                workloads=tuple(str(name) for name in workloads),
                trh=int(data.get("trh", 1000)),
                epochs=int(data.get("epochs", 2)),
                seed=int(data.get("seed", 0)),
                timeout_s=float(data.get("timeout_s", 0.0)),
                retries=int(data.get("retries", 0)),
                priority=int(data.get("priority", DEFAULT_PRIORITY)),
                max_attempts=int(data.get("max_attempts", 1)),
                fault_spec=(
                    FaultSpec.from_dict(fault) if fault is not None else None
                ),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed job spec: {exc}") from exc


@dataclass
class Job:
    """One submission's lifecycle record.

    The ID embeds the submission sequence number (unique per store) and
    the spec's short digest, so an operator reading logs can tell at a
    glance which jobs are the same work resubmitted.
    """

    id: str
    seq: int
    spec: JobSpec
    digest: str
    state: str = "queued"
    attempts: int = 0
    from_cache: bool = False
    error: Optional[str] = None
    run_failures: int = 0
    """Per-run failures recorded in the result document (a job can
    complete with a partial ledger, mirroring ``repro sweep``)."""
    extras: Dict[str, float] = field(default_factory=dict)
    """Operational timings (latency seconds); never part of results."""

    @staticmethod
    def create(seq: int, spec: JobSpec, digest: Optional[str] = None) -> "Job":
        digest = digest if digest is not None else spec.cache_key()
        return Job(
            id=f"j{seq}-{digest[:12]}",
            seq=seq,
            spec=spec,
            digest=digest,
        )

    def to_dict(self, include_spec: bool = True) -> dict:
        """JSON-ready dict for the store and the API."""
        data = {
            "id": self.id,
            "seq": self.seq,
            "digest": self.digest,
            "state": self.state,
            "attempts": self.attempts,
            "from_cache": self.from_cache,
            "error": self.error,
            "run_failures": self.run_failures,
        }
        if include_spec:
            data["spec"] = self.spec.to_dict()
        return data


__all__ = [
    "CACHE_KEY_VERSION",
    "DEFAULT_PRIORITY",
    "JOB_STATES",
    "Job",
    "JobSpec",
    "known_workload_names",
    "short_digest",
]
