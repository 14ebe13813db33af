"""Differential tests: the fast simulator on set-skewed traces.

Pinned regression cases for traces that pile many distinct pages
onto one or a few cache sets: a single scorching set whose working
set fits or thrashes its ways, burst ping-pong between two sets,
memtier-style hot keys stacked in one set, and short same-set spans
rotating across sets.  Narrow same-set rounds send most of these
accesses to the scalar tail, so they pin the round/tail hand-off.
Contract: *bit identical* counters, final cache planes, and
per-access outcome codes against the scalar reference, for every
registered kernel (order-dependent ones -- SLRU, decayed LFU --
included).  ``tests/cache/test_simulate_fast_parity.py`` fuzzes the
same shapes over random geometries and chunkings.
"""

import numpy as np
import pytest

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    CounterRandomPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    ScoreBasedPolicy,
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast
from repro.core.policy import CombinedIcgmmPolicy

#: Every registered-kernel policy.
POLICY_FACTORIES = [
    ("lru", lambda pages, universe: LruPolicy()),
    ("fifo", lambda pages, universe: FifoPolicy()),
    ("lfu", lambda pages, universe: LfuPolicy()),
    ("clock", lambda pages, universe: ClockPolicy()),
    ("2q", lambda pages, universe: TwoQPolicy()),
    ("belady", lambda pages, universe: BeladyPolicy(pages)),
    (
        "counter-random",
        lambda pages, universe: CounterRandomPolicy(seed=17),
    ),
    (
        "score-update",
        lambda pages, universe: ScoreBasedPolicy(
            threshold=0.1, update_score_on_hit=True
        ),
    ),
    (
        "gmm-caching",
        lambda pages, universe: GmmCachePolicy(
            threshold=0.15, eviction=False
        ),
    ),
    (
        "gmm-eviction",
        lambda pages, universe: GmmCachePolicy(admission=False),
    ),
    (
        "combined",
        lambda pages, universe: CombinedIcgmmPolicy(
            threshold=0.1,
            page_scores={
                page: (page % 29) / 29.0
                for page in range(0, universe, 2)
            },
        ),
    ),
    ("slru", lambda pages, universe: SlruPolicy()),
    ("lfu-decay", lambda pages, universe: LfuPolicy(decay=0.9)),
]

N = 24_000


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _set_skewed_traces(n_sets: int, ways: int):
    """Set-skewed page streams."""
    rng = np.random.default_rng(31)
    traces = {}
    # One scorching set, working set fits: long all-hit spans.
    fitting = max(2, ways - 2)
    traces["single-set-fits"] = (
        rng.integers(0, fitting, N) * n_sets
    ).astype(np.int64)
    # One scorching set, working set overflows: constant conflict
    # misses.
    traces["single-set-thrash"] = (
        rng.integers(0, 2 * ways, N) * n_sets
    ).astype(np.int64)
    # Two sets, burst ping-pong (spans alternate between the sets).
    burst = np.repeat(rng.integers(0, ways, N // 6 + 1), 6)[:N]
    traces["2set-pingpong"] = (
        burst % 2 + (burst // 2) * n_sets
    ).astype(np.int64)
    # memtier-style: hot fraction 0.99 over a handful of keys, with
    # a cold tail that lands in (and occasionally evicts from) the
    # hot sets.
    hot = (rng.integers(0, fitting, N) * n_sets).astype(np.int64)
    cold = rng.integers(0, 40 * n_sets * ways, N).astype(np.int64)
    traces["memtier-hot99"] = np.where(
        rng.random(N) < 0.99, hot, cold
    ).astype(np.int64)
    return traces


def _run_both(geometry, make, pages, is_write, scores, warmup,
              **fast_kwargs):
    """Reference and fast engine, with outcomes."""
    results = []
    for runner, kwargs in ((simulate, {}), (simulate_fast, fast_kwargs)):
        cache = SetAssociativeCache(geometry)
        policy = make(pages, int(pages.max()) + 1)
        outcome = np.empty(pages.shape[0], dtype=np.uint8)
        stats = runner(
            cache,
            policy,
            pages,
            is_write,
            scores=scores,
            warmup_fraction=warmup,
            outcome=outcome,
            **kwargs,
        )
        results.append((stats, cache, outcome))
    return results


def _assert_identical(reference, other, context):
    (ref_stats, ref_cache, ref_out) = reference
    (stats, cache, out) = other
    assert ref_stats == stats, f"{context}: counters diverge"
    np.testing.assert_array_equal(
        ref_cache.tags, cache.tags, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.dirty, cache.dirty, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.meta, cache.meta, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.stamp, cache.stamp, err_msg=context
    )
    np.testing.assert_array_equal(ref_out, out, err_msg=context)


@pytest.mark.parametrize(
    "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
)
@pytest.mark.parametrize("n_sets,ways", [(64, 8), (8, 4), (1, 4)])
def test_collapse_bit_identical_on_set_skewed_traces(
    name, make, n_sets, ways
):
    geometry = _geometry(n_sets, ways)
    rng = np.random.default_rng(11)
    for trace_name, pages in _set_skewed_traces(n_sets, ways).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N) * 0.4
        reference, fast = _run_both(
            geometry, make, pages, is_write, scores, warmup=0.2
        )
        _assert_identical(
            reference, fast, f"{name}/{trace_name}/{n_sets}x{ways}"
        )


@pytest.mark.parametrize(
    "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
)
def test_collapse_with_short_spans_forced(name, make):
    """Small chunks and a unit round width force every set-skewed
    access through the vector rounds instead of the scalar tail."""
    geometry = _geometry(16, 4)
    rng = np.random.default_rng(13)
    for trace_name, pages in _set_skewed_traces(16, 4).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N) * 0.4
        reference, fast = _run_both(
            geometry, make, pages, is_write, scores, warmup=0.1,
            chunk_size=257, min_round_width=1,
        )
        _assert_identical(reference, fast, f"{name}/{trace_name}/forced")


@pytest.mark.parametrize(
    "name,make",
    [p for p in POLICY_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in POLICY_FACTORIES if n != "belady"],
)
def test_collapse_resumable_chunked_replay(name, make):
    """Chunked replay with index_offset stays exact (same-set spans
    straddling chunk boundaries split without losing parity)."""
    geometry = _geometry(4, 4)
    pages = _set_skewed_traces(4, 4)["memtier-hot99"]
    rng = np.random.default_rng(7)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N) * 0.4

    one_cache = SetAssociativeCache(geometry)
    one_policy = make(pages, int(pages.max()) + 1)
    one = simulate_fast(
        one_cache, one_policy, pages, is_write, scores=scores,
    )

    chunk_cache = SetAssociativeCache(geometry)
    chunk_policy = make(pages, int(pages.max()) + 1)
    total = None
    step = 1_237  # odd step so spans straddle chunk boundaries
    for start in range(0, N, step):
        stop = min(start + step, N)
        stats = simulate_fast(
            chunk_cache,
            chunk_policy,
            pages[start:stop],
            is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
        )
        total = stats if total is None else total.merge(stats)
    assert total == one, name
    np.testing.assert_array_equal(one_cache.tags, chunk_cache.tags)
    np.testing.assert_array_equal(one_cache.meta, chunk_cache.meta)
    np.testing.assert_array_equal(one_cache.stamp, chunk_cache.stamp)


@pytest.mark.parametrize(
    "name,make",
    [p for p in POLICY_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in POLICY_FACTORIES if n != "belady"],
)
def test_short_span_resumable_chunked_replay(name, make):
    """Chunk-straddling resumable replay of short same-set spans
    alternating between two sets, with outcome buffers: totals,
    final planes and outcome codes must stay bit-identical to the
    scalar reference."""
    geometry = _geometry(8, 4)
    pages = _set_skewed_traces(8, 4)["2set-pingpong"]
    rng = np.random.default_rng(19)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N) * 0.4

    reference, _ = _run_both(
        geometry, make, pages, is_write, scores, warmup=0.0
    )

    chunk_cache = SetAssociativeCache(geometry)
    chunk_policy = make(pages, int(pages.max()) + 1)
    chunk_out = np.empty(N, dtype=np.uint8)
    total = None
    step = 1_237  # odd step so spans straddle chunk boundaries
    for start in range(0, N, step):
        stop = min(start + step, N)
        stats = simulate_fast(
            chunk_cache,
            chunk_policy,
            pages[start:stop],
            is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
            outcome=chunk_out[start:stop],
        )
        total = stats if total is None else total.merge(stats)
    chunked = (total, chunk_cache, chunk_out)
    _assert_identical(reference, chunked, f"{name}/short-span")


@pytest.mark.parametrize("strategy", ["lru", "gmm-caching-eviction"])
def test_short_span_serving_workers_match(strategy):
    """Parallel shard replay of a burst-heavy stream is bit-identical
    to the sequential loop."""
    from repro.core.config import (
        GmmEngineConfig,
        IcgmmConfig,
        ParallelConfig,
        ServingConfig,
    )
    from repro.core.engine import GmmPolicyEngine
    from repro.serving import IcgmmCacheService

    n, train = 40_000, 4_000
    rng = np.random.default_rng(29)
    # Short same-page bursts.
    burst = np.repeat(rng.integers(0, 3000, n // 5 + 1), 5)[:n]
    pages = burst.astype(np.int64)
    is_write = rng.random(n) < 0.3
    config = IcgmmConfig(
        gmm=GmmEngineConfig(n_components=4, max_train_samples=2_000)
    )
    features = np.column_stack(
        [
            pages[:train].astype(np.float64),
            np.zeros(train, dtype=np.float64),
        ]
    )
    engine = GmmPolicyEngine.train(
        features, config.gmm, np.random.default_rng(1)
    )

    def serve(workers):
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=4,
            strategy=strategy,
            refresh_enabled=False,
            parallel=ParallelConfig(workers=workers, backend="thread"),
        )
        with IcgmmCacheService(
            engine,
            config=config,
            serving=serving,
            measure_from=train,
        ) as service:
            service.ingest(pages, is_write)
            return service.totals, service.summary()

    assert serve(4) == serve(1)
