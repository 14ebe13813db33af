"""The benchmark's workloads: trace generation, one full run, checks.

Each workload replays a trace generated from the benchmark's seed
through the public entry points a user calls, as a closed loop with
one caller in one process (``ParallelConfig``'s default
``workers=1``).  :func:`make_trace` runs in the parent before any
timing; :func:`full_run` runs in a fresh child process per repeat and
times one full run, trace file to report; :func:`check` runs after
the timed region and verifies the run's outputs.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

SERVE_CHUNK = 4096
# serve-drift: 100 chunks of 4096 per repeat, so >= 10 chunk samples lie
# beyond p90.
SERVE_LENGTH = 100 * SERVE_CHUNK
# serve-lru serves about 2-4x faster per chunk.  total_s takes each
# chunk at its fastest over a run's repeats, so more, shorter repeats
# steady it more than longer ones: 150 chunks make a repeat about 4 s.
SERVE_LRU_LENGTH = 150 * SERVE_CHUNK
SERVE_TENANTS = ("memtier", "stream")


# Why each was chosen: BENCHMARK.json and README.md.
WORKLOADS = ("serve-drift", "serve-lru", "fabric-paper")


# ----------------------------------------------------------------------
# Trace generation (parent process, untimed)
# ----------------------------------------------------------------------
def make_trace(workload: str, seed: int, path: str) -> int:
    """Generate the workload's trace from ``seed`` into ``path``
    (stored ``.npz``); returns its length."""
    from repro.core.config import IcgmmConfig, ServingConfig
    from repro.traces.io import save_trace_npz
    from repro.traces.mixing import multi_tenant_trace, relocate
    from repro.traces.record import MemoryTrace
    from repro.traces.workloads import get_workload

    rng = np.random.default_rng(seed)
    if workload in ("serve-drift", "serve-lru"):
        scale = IcgmmConfig(seed=seed).workload_scale
        partition = ServingConfig().partition_pages

        def tenants(n):
            return multi_tenant_trace(
                [get_workload(name, scale=scale) for name in SERVE_TENANTS],
                [1.0] * len(SERVE_TENANTS),
                n,
                rng,
                partition_pages=partition,
            )

        if workload == "serve-drift":
            # The shape `repro serve --drift` builds: every tenant's
            # hot region moves at the stream midpoint.
            half = SERVE_LENGTH // 2
            trace = MemoryTrace.concatenate(
                [
                    tenants(half),
                    relocate(
                        tenants(SERVE_LENGTH - half),
                        base_page=partition // 8,
                    ),
                ]
            )
        else:
            trace = tenants(SERVE_LRU_LENGTH)
    elif workload == "fabric-paper":
        config = IcgmmConfig.paper_hardware(seed=seed)
        generator = get_workload("memtier", scale=config.workload_scale)
        trace = generator.generate(generator.default_length, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    save_trace_npz(trace, path, compressed=False)
    return len(trace)


# ----------------------------------------------------------------------
# One full run (child process, timed)
# ----------------------------------------------------------------------
class CallTimer:
    """Caller-side clock around one public method: the closed loop's
    own view of each call it waits on (kept in untraced runs too)."""

    def __init__(self, owner: type, attr: str) -> None:
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.calls: list[tuple[float, float]] = []
        self.receivers: list = []
        timer = self

        def timed(receiver, *args, **kwargs):
            start = time.perf_counter()
            result = timer.original(receiver, *args, **kwargs)
            timer.calls.append((start, time.perf_counter()))
            timer.receivers.append(receiver)
            return result

        setattr(owner, attr, timed)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


def _strategy_table(outcomes) -> str:
    from repro.analysis import render_table

    return render_table(
        ["strategy", "miss rate %", "avg access us"],
        [
            [o.strategy, o.miss_rate_percent, o.average_time_us]
            for o in outcomes.values()
        ],
    )


def _offline_sim(result) -> dict:
    """Best-GMM figures of an offline BenchmarkResult (Fig. 6 pick)."""
    best = result.best_gmm
    return {
        "best_strategy": best.strategy,
        "sim_miss_pct": best.miss_rate_percent,
        "sim_access_us": best.average_time_us,
        "sim_lru_miss_pct": result.lru.miss_rate_percent,
        "sim_miss_cut_pts": result.miss_reduction_points,
        "sim_time_cut_pct": result.time_reduction_percent,
    }


def full_run(workload: str, seed: int, path: str) -> dict:
    """Time one full run, trace file to report.

    Returns the timings (``t0`` = start of the run, ``setup_end`` =
    first simulated access, ``end`` = report done), the per-chunk
    call intervals, the simulated-design figures and the objects the
    checks need (under ``"state"``).
    """
    if workload in ("serve-drift", "serve-lru"):
        return _serve_run(workload, seed, path)
    return _fabric_run(seed, path)


def _serve_run(workload: str, seed: int, path: str) -> dict:
    from repro import cli
    from repro.serving import IcgmmCacheService

    argv = [
        "serve", "--trace", path, "--chunk", str(SERVE_CHUNK),
        "--report-every", "1", "--seed", str(seed),
    ]
    if workload == "serve-lru":
        argv += ["--strategy", "lru", "--no-refresh"]
    ingest = CallTimer(IcgmmCacheService, "ingest")
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        end = time.perf_counter()
    finally:
        ingest.restore()
    if code != 0:
        raise RuntimeError(f"repro serve exited {code}")
    service = ingest.receivers[0]
    totals = service.totals
    return {
        "t0": t0,
        "setup_end": ingest.calls[0][0],
        "end": end,
        "replayed": service.access_cursor,
        "chunks": ingest.calls,
        "sim": {
            "sim_miss_pct": 100.0 * totals.miss_rate,
            "sim_access_us": service.pipeline.latency_model
            .average_access_time_us(totals),
        },
        "state": {"service": service},
    }


def _fabric_run(seed: int, path: str) -> dict:
    from repro.core.config import STRATEGIES, FabricTopology, IcgmmConfig
    from repro.core.results import BenchmarkResult, StrategyOutcome
    from repro.cxl.fabric import CxlFabric
    from repro.traces import io as trace_io

    t0 = time.perf_counter()
    trace = trace_io.load_trace(path)
    fabric = CxlFabric(
        FabricTopology(n_devices=4),
        config=IcgmmConfig.paper_hardware(seed=seed),
    )
    try:
        prepared = fabric.pipeline.prepare("memtier", trace=trace)
        setup_end = time.perf_counter()
        chunks, runs = [], {}
        for strategy in STRATEGIES:
            start = time.perf_counter()
            runs[strategy] = fabric.run_prepared(prepared, strategy)
            chunks.append((start, time.perf_counter()))
    finally:
        fabric.close()
    result = BenchmarkResult(
        workload="memtier",
        outcomes={
            strategy: StrategyOutcome(
                strategy=strategy,
                stats=run.totals,
                average_time_us=run.average_latency_us,
            )
            for strategy, run in runs.items()
        },
    )
    _strategy_table(result.outcomes)  # the report, as `repro run` makes
    end = time.perf_counter()
    return {
        "t0": t0,
        "setup_end": setup_end,
        "end": end,
        "replayed": len(prepared) * len(runs),
        "chunks": chunks,
        "sim": _offline_sim(result),
        "state": {"fabric": fabric, "prepared": prepared, "runs": runs},
    }


# ----------------------------------------------------------------------
# Correctness checks (child process, after the timed region)
# ----------------------------------------------------------------------
def check(workload: str, run: dict, oracle: bool) -> tuple[list[dict], int]:
    """Verify one run's outputs; returns ``(checks, unaccounted)``
    where ``unaccounted`` counts accesses fed but not accounted.

    ``oracle`` adds the checks that replay the stream again through an
    independent path (serve-lru's single-shot replay, fabric-paper's
    per-device single-shot replays); they cost seconds, so a run makes
    them once.
    """
    state = run["state"]
    if workload in ("serve-drift", "serve-lru"):
        return _check_serve(workload, run, state["service"], oracle)
    return _check_fabric(state, oracle)


def _result(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _check_serve(
    workload: str, run: dict, service, oracle: bool
) -> tuple[list, int]:
    totals = service.totals
    measured = service.access_cursor - service.measure_from
    unaccounted = (run["length"] - service.access_cursor) + abs(
        measured - totals.accesses
    )
    checks = [
        _result(
            "every fed access accounted",
            unaccounted == 0,
            f"fed {run['length']}, ingested {service.access_cursor},"
            f" measured {totals.accesses} of {measured}",
        ),
    ]
    if workload == "serve-drift":
        checks.append(
            _result(
                "refresh exercised (>= 1 engine swap)",
                len(service.swaps) >= 1,
                f"{len(service.swaps)} swap(s)",
            )
        )
    elif oracle:
        expected = _single_shot_lru(service, run["path"])
        checks.append(
            _result(
                "sharded totals = unsharded single-shot replay",
                expected == totals,
                f"service {totals} vs single-shot {expected}",
            )
        )
    return checks, unaccounted


def _single_shot_lru(service, path: str):
    """One unsharded LRU replay of the whole stream at the service's
    geometry, counted from the service's ``measure_from``."""
    from repro.cache.setassoc import SetAssociativeCache
    from repro.cache.stats import stats_from_outcomes
    from repro.core.pipeline import StagedPipeline
    from repro.core.policy import build_policy
    from repro.traces import io as trace_io

    trace = trace_io.load_trace(path)
    pages = trace.page_indices()
    is_write = np.asarray(trace.is_write)
    outcome = np.empty(pages.shape[0], dtype=np.uint8)
    pipeline = StagedPipeline(service.config)
    pipeline.simulate(
        SetAssociativeCache(service.config.geometry),
        build_policy("lru", 0.0),
        pages,
        is_write,
        outcome=outcome,
    )
    measured = np.arange(pages.shape[0]) >= service.measure_from
    return stats_from_outcomes(outcome, is_write, measured)


def _check_fabric(state: dict, oracle: bool) -> tuple[list, int]:
    fabric, prepared, runs = state["fabric"], state["prepared"], state["runs"]
    warmup = fabric.config.warmup_fraction
    # Each device's sub-stream, re-derived through the public placement
    # rule (interleave: it does not depend on the bound strategy).
    device_ids, local_pages = fabric.place(
        prepared.page_indices, prepared.page_frequency_scores
    )
    positions = [
        np.nonzero(device_ids == d)[0]
        for d in range(fabric.topology.n_devices)
    ]
    expected = [p.size - int(p.size * warmup) for p in positions]
    checks, unaccounted = [], 0
    for strategy, run in runs.items():
        measured = [d.stats.accesses for d in run.devices]
        lost = sum(abs(e - m) for e, m in zip(expected, measured))
        unaccounted += lost
        checks.append(
            _result(
                f"{strategy}: every device measured its sub-stream",
                lost == 0,
                f"measured {measured}, expected {expected}",
            )
        )
        if oracle:
            differing = [
                d for d, p in enumerate(positions)
                if _single_shot_device(
                    fabric, prepared, strategy, d, local_pages[p], p
                ) != run.devices[d].stats
            ]
            checks.append(
                _result(
                    f"{strategy}: per-device stats = single-shot replay"
                    " of each sub-stream",
                    not differing,
                    f"devices {differing} differ",
                )
            )
    return checks, unaccounted


def _single_shot_device(fabric, prepared, strategy, device, pages, positions):
    """One offline replay of one device's sub-stream, outside the
    fabric: its own cache and policy, the same warm-up cut."""
    from repro.cache.setassoc import SetAssociativeCache
    from repro.core.pipeline import StagedPipeline
    from repro.core.policy import build_policy

    page_scores = None
    if strategy == "gmm-caching-eviction":
        # The device's slice of the global page -> score map, keyed by
        # the device-local page the simulator sees (interleave).
        n = fabric.topology.n_devices
        page_scores = {
            page // n: score
            for page, score in prepared.page_score_map().items()
            if page % n == device
        }
    pipeline = StagedPipeline(fabric.config)
    scores = pipeline.strategy_scores(prepared, strategy)
    return pipeline.simulate(
        SetAssociativeCache(fabric.config.geometry),
        build_policy(
            strategy,
            prepared.engine.admission_threshold,
            page_scores=page_scores,
        ),
        pages,
        prepared.is_write[positions],
        scores=scores[positions] if scores is not None else None,
        warmup_fraction=fabric.config.warmup_fraction,
    )
