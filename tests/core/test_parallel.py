"""Unit tests of the multicore execution engine.

Covers the determinism contract (results in task order, first error
in task order), both backends, the shared-memory cache planes of the
process backend, and the :class:`~repro.core.config.ParallelConfig`
wiring.
"""

import numpy as np
import pytest

from repro.cache.policies import LruPolicy
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
)
from repro.cache.simulate_fast import simulate_fast
from repro.core.config import ParallelConfig
from repro.core.parallel import (
    ParallelExecutor,
    ReplayTask,
    SharedCache,
    resolve_workers,
)

GEOMETRY = CacheGeometry(
    capacity_bytes=32 * 4096 * 4, block_bytes=4096, associativity=4
)


def _trace(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 5_000, n),
        rng.random(n) < 0.3,
        rng.standard_normal(n),
    )


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _add(a, b):
    return a + b


class TestConfig:
    def test_defaults_inline(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert config.backend == "thread"

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(backend="greenlet")

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_from_config(self):
        executor = ParallelExecutor.from_config(None)
        assert executor.workers == 1
        executor = ParallelExecutor.from_config(
            ParallelConfig(workers=3, backend="process")
        )
        assert executor.workers == 3
        assert executor.backend == "process"
        assert executor.uses_shared_caches


class TestMap:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_in_item_order(self, workers):
        with ParallelExecutor(workers, "thread") as executor:
            assert executor.map(_square, range(10)) == [
                x * x for x in range(10)
            ]

    def test_star_unpacks(self):
        with ParallelExecutor(4, "thread") as executor:
            assert executor.map(
                _add, [(1, 2), (3, 4)], star=True
            ) == [3, 7]

    def test_first_error_in_item_order_propagates(self):
        with ParallelExecutor(4, "thread") as executor:
            with pytest.raises(ValueError, match="boom on 3"):
                executor.map(_boom, [0, 1, 2, 3, 4])

    def test_process_backend_map(self):
        with ParallelExecutor(2, "process") as executor:
            assert executor.map(_square, [2, 5]) == [4, 25]

    def test_process_backend_error_propagates(self):
        with ParallelExecutor(2, "process") as executor:
            with pytest.raises(ValueError, match="boom on 3"):
                executor.map(_boom, [3, 1])


class TestSharedCache:
    def test_behaves_like_fresh_cache(self):
        shared = SharedCache(GEOMETRY)
        plain = SetAssociativeCache(GEOMETRY)
        np.testing.assert_array_equal(shared.cache.tags, plain.tags)
        np.testing.assert_array_equal(shared.cache.meta, plain.meta)
        pages, is_write, scores = _trace()
        a = simulate_fast(
            shared.cache, LruPolicy(), pages, is_write, scores=scores
        )
        b = simulate_fast(
            plain, LruPolicy(), pages, is_write, scores=scores
        )
        assert a == b
        np.testing.assert_array_equal(shared.cache.tags, plain.tags)
        shared.close()

    def test_make_cache_allocation(self):
        thread_exec = ParallelExecutor(4, "thread")
        cache, handle = thread_exec.make_cache(GEOMETRY)
        assert handle is None  # threads share memory natively
        proc_exec = ParallelExecutor(2, "process")
        cache, handle = proc_exec.make_cache(GEOMETRY)
        assert handle is not None
        assert cache is handle.cache
        handle.close()
        thread_exec.shutdown()
        proc_exec.shutdown()

    def test_process_replay_requires_shared(self):
        pages, is_write, scores = _trace(200)
        with ParallelExecutor(2, "process") as executor:
            tasks = [
                ReplayTask(
                    cache=SetAssociativeCache(GEOMETRY),
                    policy=LruPolicy(),
                    pages=pages,
                    is_write=is_write,
                )
                for _ in range(2)
            ]
            with pytest.raises(ValueError, match="SharedCache"):
                executor.replay(tasks)


class TestReplay:
    @pytest.mark.parametrize(
        "workers,backend", [(1, "thread"), (4, "thread"), (2, "process")]
    )
    def test_bit_identical_to_direct_call(self, workers, backend):
        pages, is_write, scores = _trace()
        reference = SetAssociativeCache(GEOMETRY)
        ref_stats = simulate_fast(
            reference, LruPolicy(), pages, is_write, scores=scores
        )
        with ParallelExecutor(workers, backend) as executor:
            caches, handles, tasks = [], [], []
            for _ in range(3):
                cache, handle = executor.make_cache(GEOMETRY)
                caches.append(cache)
                handles.append(handle)
                tasks.append(
                    ReplayTask(
                        cache=cache,
                        policy=LruPolicy(),
                        pages=pages,
                        is_write=is_write,
                        scores=scores,
                        record_outcome=True,
                    )
                )
                tasks[-1].shared = handle
            results = executor.replay(tasks)
            for cache, result in zip(caches, results):
                assert result.stats == ref_stats
                assert result.outcome is not None
                np.testing.assert_array_equal(
                    cache.tags, reference.tags
                )
                np.testing.assert_array_equal(
                    cache.stamp, reference.stamp
                )
            for handle in handles:
                if handle is not None:
                    handle.close()

    def test_crash_inside_process_worker_propagates(self):
        """A task failing inside the spawned worker's replay body
        (not at dispatch) re-raises in the parent."""
        pages, is_write, _ = _trace(500)
        with ParallelExecutor(2, "process") as executor:
            tasks = []
            handles = []
            for i in range(2):
                cache, handle = executor.make_cache(GEOMETRY)
                handles.append(handle)
                tasks.append(
                    ReplayTask(
                        cache=cache,
                        policy=LruPolicy(),
                        pages=pages,
                        is_write=is_write,
                        # Invalid on the second task only: the worker's
                        # stream validation raises mid-replay.
                        warmup_fraction=-1.0 if i == 1 else 0.0,
                        shared=handle,
                    )
                )
            with pytest.raises(
                ValueError, match="warmup_fraction"
            ):
                executor.replay(tasks)
            for handle in handles:
                handle.close()


class TestRunGrid:
    def test_grid_order_and_parallel_match(self):
        from repro.analysis.sweep import run_grid

        points = [(i, i + 1) for i in range(6)]
        sequential = run_grid(_add, points)
        threaded = run_grid(
            _add, points, parallel=ParallelConfig(workers=4)
        )
        spawned = run_grid(
            _add,
            points,
            parallel=ParallelConfig(workers=2, backend="process"),
        )
        assert sequential == threaded == spawned
        assert sequential == [a + b for a, b in points]
