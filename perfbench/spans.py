"""Wall-clock spans recorded from outside the program.

The benchmark's traced runs wrap calls into the program's public
functions with spans (name, start, end, the span that caused it) and
keep them in memory until the run ends.  Nothing under ``src/`` is
changed: :func:`instrument` swaps attributes on the program's modules
and classes, and :meth:`Tracer.restore` puts every original back.

Times come from ``time.monotonic_ns``, which is one system-wide clock on
Linux, so spans written by the benchmark process, its sweep children and
a traced server can be merged onto one timeline.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List


class Tracer:
    """Collects spans per thread, and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record one span; the caller may add attributes to the yielded
        dict before the span closes."""
        stack = self._stack()
        span_id = f"{self._pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield attrs
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "thread": threading.get_ident(),
                    "attrs": attrs,
                }
            )

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, key: str, replacement) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) until
        :meth:`restore`."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, replacement)

    def restore(self) -> None:
        """Put back every original replaced by :meth:`patch`."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def traced_factory(tracer: Tracer, scheme: str, factory: Callable) -> Callable:
    """A scheme factory whose call is a ``core.build`` span and whose
    built instance has its own ``access_epoch`` wrapped in ``sim.feed``.

    The wrapper goes on the instance, not on ``MitigationScheme``: the
    registered schemes override ``access_epoch``, so a base-class wrapper
    would never run for them.
    """

    @functools.wraps(factory)
    def build(*args, **kwargs):
        with tracer.span("core.build", scheme=scheme):
            instance = factory(*args, **kwargs)
        feed = instance.access_epoch

        def access_epoch(*feed_args, **feed_kwargs):
            counts = feed_args[1] if len(feed_args) > 1 else feed_kwargs["counts"]
            with tracer.span("sim.feed", scheme=scheme, acts=int(counts.sum())):
                return feed(*feed_args, **feed_kwargs)

        instance.access_epoch = access_epoch
        return instance

    return build


def instrument(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries (see README.md, "Spans")."""
    from repro.sim import runner
    from repro.sim.checkpoint import SweepCheckpoint
    from repro.sim.system import SystemSimulator
    from repro.workloads import spec as workload_spec
    from repro.workloads.spec import SyntheticWorkload

    for name, builder in list(runner.SCHEME_BUILDERS.items()):
        tracer.patch(
            runner.SCHEME_BUILDERS,
            name,
            functools.wraps(builder)(
                lambda *a, _b=builder, _n=name, **kw: traced_factory(
                    tracer, _n, _b(*a, **kw)
                )
            ),
        )
    tracer.patch(
        SystemSimulator, "run", tracer.wrap(SystemSimulator.run, "sim.run")
    )
    tracer.patch(
        SweepCheckpoint,
        "record",
        tracer.wrap(SweepCheckpoint.record, "sim.checkpoint_record"),
    )
    epoch_trace = SyntheticWorkload.epoch_trace

    def traced_epoch_trace(self, epoch: int = 0):
        with tracer.span("workloads.epoch_trace") as attrs:
            misses = workload_spec.trace_cache_stats()[1]
            trace = epoch_trace(self, epoch)
            attrs["hit"] = workload_spec.trace_cache_stats()[1] == misses
            return trace

    tracer.patch(SyntheticWorkload, "epoch_trace", traced_epoch_trace)


def instrument_service(tracer: Tracer) -> None:
    """Wrap the service's store, cache and execution boundaries, on top
    of :func:`instrument`'s simulator layers."""
    from repro.service import api
    from repro.service.cache import ResultCache
    from repro.service.store import JobStore

    instrument(tracer)
    for method in ("append_job", "append_state"):
        tracer.patch(
            JobStore,
            method,
            tracer.wrap(getattr(JobStore, method), "service.store_append"),
        )
    tracer.patch(
        ResultCache, "get", tracer.wrap(ResultCache.get, "service.cache_get")
    )
    tracer.patch(
        ResultCache, "put", tracer.wrap(ResultCache.put, "service.cache_put")
    )
    tracer.patch(
        api,
        "run_sweep_parallel",
        tracer.wrap(api.run_sweep_parallel, "parallel.run_sweep"),
    )
    tracer.patch(
        api,
        "render_results_document",
        tracer.wrap(api.render_results_document, "parallel.document"),
    )


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds per span name, minus the time of each span's children
    (a layer's self time)."""
    child_ns: Dict[str, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + (
                span["end_ns"] - span["start_ns"]
            )
    out: Dict[str, float] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - child_ns.get(span["id"], 0)
        out[span["name"]] = out.get(span["name"], 0.0) + own / 1e9
    return out
