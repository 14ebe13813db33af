"""In-memory span recorder and the runtime layer wrappers.

A span is one call into a layer's public function: name, start, end,
parent span id and the run id that ties the spans of one full run
together.  Spans stay in memory while the run executes and are
written out once it ends (:meth:`SpanRecorder.dump`).

The wrappers are installed from outside the program
(:func:`install_layers` patches class attributes and module-level
bindings at runtime), so the code under ``src/`` is measured as it
ships.  A layer's self time is its spans' duration minus the part of
that interval its child spans cover; all wrapped calls run on the
caller's thread (the benchmark keeps ``workers=1``), so children nest
strictly inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass(frozen=True)
class Layer:
    """One measured layer: the public functions wrapped under its name.

    ``targets`` are ``(module, attribute path)`` pairs; ``counts``
    maps ``(args, kwargs, result)`` of one call to work counters, of
    which those named in ``reports`` are reported as
    ``<layer>.<counter>``; ``moves`` names the end-to-end metric the
    layer should move, and on which workload.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    moves: str
    counts: Callable[[tuple, dict, object], dict] | None = None
    reports: tuple[str, ...] = ()


def _simulated(args, kwargs, result):
    # simulate(cache, policy, pages, ...) -> CacheStats of the measured
    # accesses only, so the fed count comes from the pages argument.
    pages = args[2] if len(args) > 2 else kwargs["pages"]
    return {
        "accesses": len(pages),
        "measured": result.accesses,
        "hits": result.hits,
    }


LAYERS: tuple[Layer, ...] = (
    Layer(
        "traces.read",
        (
            ("repro.cli", "stream_trace_chunks"),
            ("repro.traces.io", "load_trace"),
        ),
        "setup_s; serve-drift, serve-lru",
        # stream_trace_chunks returns (length, iterator): its rows are
        # counted per chunk as the iterator is consumed.
        lambda a, k, r: {} if isinstance(r, tuple) else {"rows": len(r)},
        ("rows",),
    ),
    Layer(
        "traces.preprocess",
        (("repro.traces.preprocess", "TracePreprocessor.process"),),
        "setup_s; fabric-paper",
        lambda a, k, r: {"rows": len(r)},
        ("rows",),
    ),
    Layer(
        "gmm.train",
        (("repro.core.engine", "GmmPolicyEngine.train"),),
        "setup_s; all workloads",
    ),
    Layer(
        "engine.score",
        (("repro.core.engine", "GmmPolicyEngine.score"),),
        "accesses_per_s, chunk_p50_ms on serve-drift; setup_s on"
        " fabric-paper; 0 calls after setup on serve-lru",
        lambda a, k, r: {"rows": len(r)},
        ("rows",),
    ),
    Layer(
        "engine.page_scores",
        (("repro.core.engine", "GmmPolicyEngine.page_scores"),),
        "chunk_p90_ms on serve-drift (first-touch pages); setup_s on"
        " fabric-paper",
        lambda a, k, r: {"pages": len(r)},
        ("pages",),
    ),
    Layer(
        "pipeline.stamp",
        (("repro.core.pipeline", "StagedPipeline.chunk_features"),),
        "accesses_per_s; serve-drift",
    ),
    Layer(
        "sharding.route",
        (
            ("repro.serving.sharding", "ShardedCachePlanes.route"),
            ("repro.serving.sharding", "ShardedCachePlanes.partition"),
        ),
        "accesses_per_s; serve-lru",
    ),
    Layer(
        "parallel.replay",
        (("repro.core.parallel", "ParallelExecutor.replay"),),
        "accesses_per_s; serve-lru, fabric-paper",
        lambda a, k, r: {"tasks": len(r)},
        ("tasks",),
    ),
    Layer(
        "cache.simulate",
        (
            ("repro.core.pipeline", "simulate_fast"),
            ("repro.core.pipeline", "simulate"),
            ("repro.core.parallel", "simulate_fast"),
            ("repro.core.parallel", "simulate"),
            ("repro.cache.simulate_fast", "simulate"),
        ),
        "accesses_per_s; serve-lru (most), fabric-paper",
        _simulated,
        ("accesses",),
    ),
    Layer(
        "stats.outcomes",
        (
            ("repro.serving.service", "stats_from_outcomes"),
            ("repro.cxl.fabric", "stats_from_outcomes"),
        ),
        "chunk_p50_ms; serve-lru",
    ),
    Layer(
        "metrics.record",
        (("repro.serving.metrics", "RollingMetrics.record"),),
        "chunk_p50_ms; serve-lru",
    ),
    Layer(
        "drift.observe",
        (("repro.serving.drift", "DriftDetector.observe"),),
        "chunk_p50_ms; serve-drift",
        lambda a, k, r: {"drifted": int(r.drifted)},
        ("drifted",),
    ),
    Layer(
        "refresh.ingest",
        (("repro.serving.refresh", "ModelRefresher.ingest"),),
        "chunk_p90_ms, total_s; serve-drift",
    ),
    Layer(
        "refresh.build",
        (("repro.serving.refresh", "ModelRefresher.build"),),
        "chunk_p90_ms, total_s; serve-drift",
    ),
    Layer(
        "hardware.price",
        (
            ("repro.core.pipeline", "StagedPipeline.price"),
            (
                "repro.hardware.latency",
                "LatencyModel.average_access_time_us",
            ),
            (
                "repro.hardware.latency",
                "DevicePathLatencyModel.total_time_ns",
            ),
        ),
        "total_s; fabric-paper",
    ),
    Layer(
        "fabric.place",
        (("repro.cxl.fabric", "CxlFabric.place"),),
        "accesses_per_s; fabric-paper",
    ),
    Layer(
        "fabric.bind",
        (("repro.cxl.fabric", "CxlFabric.bind"),),
        "accesses_per_s; fabric-paper",
    ),
    Layer(
        "fabric.replay",
        (("repro.cxl.fabric", "CxlFabric.run_prepared"),),
        "accesses_per_s; fabric-paper",
    ),
    Layer(
        "service.ingest",
        (("repro.serving.service", "IcgmmCacheService.ingest"),),
        "chunk_p50_ms; serve-drift, serve-lru",
    ),
)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    max_s: float = 0.0
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """Records nested spans for one run (single caller thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.spans: list[Span] = []
        self.totals: dict[str, LayerTotals] = {}
        self._stack: list[Span] = []

    def call(self, layer: Layer, fn, args: tuple, kwargs: dict):
        # Re-entry into the layer that is already open (a wrapped
        # function calling another wrapped function of the same
        # layer) belongs to the outer span.
        if not self.active or (
            self._stack and self._stack[-1].name == layer.name
        ):
            return fn(*args, **kwargs)
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            name=layer.name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            duration = span.end - span.start
            if self._stack:
                self._stack[-1].child_s += duration
            totals = self.totals.setdefault(layer.name, LayerTotals())
            totals.calls += 1
            totals.self_s += duration - span.child_s
            totals.max_s = max(totals.max_s, duration)
        if layer.counts is not None:
            for key, value in layer.counts(args, kwargs, result).items():
                totals.counts[key] = totals.counts.get(key, 0) + value
        return result

    def iterate(self, layer: Layer, iterator):
        """Yield from ``iterator``, one span per ``next()`` call."""
        while True:
            try:
                item = self.call(layer, next, (iterator,), {})
            except StopIteration:
                return
            yield item

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self, path) -> None:
        """Write every span of the run as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": [
                        [s.id, s.parent, s.name, s.start, s.end]
                        for s in self.spans
                    ],
                    "columns": ["id", "parent", "name", "start", "end"],
                },
                handle,
            )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _wrapper(recorder: SpanRecorder, layer: Layer, fn):
    if layer.name == "traces.read" and fn.__name__ == "stream_trace_chunks":
        # The CLI consumes the chunk iterator lazily: the reading
        # happens inside each next(), so that is what is timed.
        @functools.wraps(fn)
        def streamed(*args, **kwargs):
            length, chunks = recorder.call(layer, fn, args, kwargs)
            return length, recorder.iterate(layer, chunks)

        return streamed

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs)

    return wrapped


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer target so calls record into ``recorder``."""
    for layer in LAYERS:
        for module_name, path in layer.targets:
            owner, attr = _resolve(module_name, path)
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _wrapper(recorder, layer, raw.__func__)
                )
            else:
                wrapped = _wrapper(recorder, layer, raw)
            setattr(owner, attr, wrapped)


def layer_metrics(recorder: SpanRecorder, wall_s: float, swaps: int) -> dict:
    """Per-layer metrics of one traced run (see :func:`metric_units`).

    ``wall_s`` is the run's wall time, ``swaps`` the engine swaps the
    run committed (the useful outcome of a refresh build).
    """
    out = {}
    for layer in LAYERS:
        totals = recorder.totals.get(layer.name, LayerTotals())
        out[f"{layer.name}.calls"] = totals.calls
        out[f"{layer.name}.self_s"] = totals.self_s
        for key in layer.reports:
            out[f"{layer.name}.{key}"] = totals.counts.get(key, 0)
    simulated = recorder.totals.get("cache.simulate", LayerTotals()).counts
    measured = simulated.get("measured", 0)
    out["cache.simulate.hit_ratio"] = (
        simulated.get("hits", 0) / measured if measured else 0.0
    )
    builds = recorder.totals.get("refresh.build", LayerTotals())
    out["refresh.build.swap_ratio"] = (
        swaps / builds.calls if builds.calls else 0.0
    )
    out["refresh.build.max_s"] = builds.max_s
    unattributed = max(0.0, wall_s - recorder.top_level_s())
    out["unattributed.self_s"] = unattributed
    out["unattributed.share"] = unattributed / wall_s
    return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, by name."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for key in layer.reports:
            units[f"{layer.name}.{key}"] = "count"
    units.update({
        "cache.simulate.hit_ratio": "ratio",
        "refresh.build.swap_ratio": "ratio",
        "refresh.build.max_s": "s",
        "unattributed.self_s": "s",
        "unattributed.share": "ratio",
        "trace_overhead": "ratio",
    })
    return units
