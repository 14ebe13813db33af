"""Reusable multicore execution engine for independent replays.

The paper's pitch is hardware-rate caching: the FPGA scores and
serves the DRAM cache in a pipeline (Sec. 4), every stage busy at
once.  The software reproduction's analogue is that its three big
replay loops are *embarrassingly parallel* -- every CXL fabric device,
every serving shard, and every sweep grid point owns fully
independent state (cache planes, policy, resumable cursor) -- yet
until this module they all ran sequentially on one core.

:class:`ParallelExecutor` drives them concurrently under one
contract: **determinism**.  Tasks are dispatched in caller order,
results are merged in caller order (never completion order), no
randomness enters scheduling, and each task touches only its own
state -- so a parallel run is *bit-identical* to ``workers=1``, which
the parity suites in ``tests/cxl`` and ``tests/serving`` assert.

Two backends:

``thread`` (default)
    A plain thread pool.  The fast-path simulator spends its time in
    numpy whole-array operations, which release the GIL, so threads
    scale across cores with zero serialization cost and zero data
    movement (workers mutate the caller's arrays in place).

``process``
    An opt-in spawn-based process pool for workloads whose Python-side
    time (scalar tails, tiny chunks, reference-simulator runs) would
    serialize on the GIL.  Cache planes are allocated in POSIX shared
    memory (:class:`SharedCache`) so workers mutate the *same*
    ``(n_sets, ways)`` storage the parent reads -- no plane copies per
    round.  Policies travel by pickle and are handed back to the
    caller post-run, keeping resumable replay exact across rounds.

Use ``spawn`` (not ``fork``) so the pool is safe under threaded
parents and identical across platforms; the price is a one-time
interpreter+import cost per worker, amortised over a pool's lifetime.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import (
    INVALID,
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats
from repro.core.config import ParallelConfig


class WorkerCrashError(RuntimeError):
    """A task's retry budget was exhausted by (injected) crashes.

    Raised parent-side when the chaos fault hook reports more
    consecutive crashed attempts for a task than
    :attr:`ParallelExecutor.max_retries` allows.  The pool itself is
    shut down first (and re-created lazily on the next fan-out), so
    the executor stays usable after propagation.
    """


def resolve_workers(workers: int) -> int:
    """Effective worker count (``0`` means the host's CPU count)."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# Shared-memory cache planes (process backend)
# ----------------------------------------------------------------------

#: The four per-way planes of :class:`SetAssociativeCache`, in the
#: order they are packed into a shared segment.  The single-byte
#: ``dirty`` plane goes last so the 8-byte planes stay aligned.
_PLANES = (
    ("tags", np.int64),
    ("meta", np.float64),
    ("stamp", np.float64),
    ("dirty", np.bool_),
)


def _plane_layout(
    geometry: CacheGeometry,
) -> tuple[dict[str, int], int]:
    """Byte offset per plane and the total segment size."""
    cells = geometry.n_sets * geometry.associativity
    offsets: dict[str, int] = {}
    total = 0
    for name, dtype in _PLANES:
        offsets[name] = total
        total += cells * np.dtype(dtype).itemsize
    return offsets, total


def _cache_over_buffer(
    geometry: CacheGeometry, buf
) -> SetAssociativeCache:
    """A :class:`SetAssociativeCache` whose planes view ``buf``.

    Bypasses ``__init__`` (which would allocate fresh planes) and
    points the four plane attributes at the buffer instead; every
    simulator and kernel operation works unchanged because they only
    ever index the arrays.
    """
    cache = SetAssociativeCache.__new__(SetAssociativeCache)
    cache.geometry = geometry
    shape = (geometry.n_sets, geometry.associativity)
    offsets, _ = _plane_layout(geometry)
    for name, dtype in _PLANES:
        setattr(
            cache,
            name,
            np.ndarray(shape, dtype=dtype, buffer=buf, offset=offsets[name]),
        )
    return cache


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment, tolerating exported views.

    ``close`` raises :class:`BufferError` while numpy views of the
    buffer are still alive somewhere; the mapping then lives until
    those views are garbage-collected, but ``unlink`` still removes
    the name so nothing leaks into ``/dev/shm``.
    """
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedCache:
    """Cache planes in one POSIX shared-memory segment.

    The owning process constructs it (planes initialised empty,
    exactly like a fresh :class:`SetAssociativeCache`) and passes
    :attr:`name` to workers, which attach zero-copy views over the
    same physical pages -- a worker's fills and metadata updates are
    immediately visible to the parent without any copy-back.

    The segment is unlinked by :meth:`close` (call it when the cache
    is retired, e.g. on a fabric reset) with a GC finalizer as the
    safety net.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        _, size = _plane_layout(geometry)
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self.name = self._shm.name
        self.cache = _cache_over_buffer(geometry, self._shm.buf)
        self.cache.tags.fill(INVALID)
        self.cache.dirty.fill(False)
        self.cache.meta.fill(0.0)
        self.cache.stamp.fill(0.0)
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm
        )

    def close(self) -> None:
        """Drop the planes and unlink the segment."""
        self.cache = None  # release this side's buffer views
        self._finalizer()

    def __repr__(self) -> str:
        return (
            f"SharedCache(name={self.name!r},"
            f" sets={self.geometry.n_sets},"
            f" ways={self.geometry.associativity})"
        )


#: Worker-side attachment cache: segment name -> (shm, cache).  One
#: attach per segment per worker process, reused across every round
#: dispatched to that worker.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, SetAssociativeCache]] = {}


def _evict_stale_attachments() -> None:
    """Drop cached attachments whose segment the parent has retired.

    A fabric/service ``reset()`` unlinks its old segments and
    allocates fresh names; without eviction a long-lived worker would
    keep the unlinked segments' pages mapped forever.  Probing by
    name (an attach that fails with ``FileNotFoundError`` once the
    parent unlinked) is portable across POSIX shm backends; the probe
    runs only when a *new* segment shows up, i.e. once per
    generation, not per task.
    """
    for name in list(_ATTACHED):
        try:
            probe = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            shm, _ = _ATTACHED.pop(name)
            try:
                shm.close()
            except BufferError:  # views die with the popped cache
                pass
        else:
            probe.close()


def _attached_cache(
    name: str, geometry: CacheGeometry
) -> SetAssociativeCache:
    """Attach (once per process) to a parent-owned shared segment."""
    entry = _ATTACHED.get(name)
    if entry is not None:
        return entry[1]
    _evict_stale_attachments()
    # Pool workers share the parent's resource-tracker process, so
    # this attach-side registration is idempotent (set semantics) and
    # the parent's eventual unlink clears it -- no premature cleanup,
    # no double-unlink.
    shm = shared_memory.SharedMemory(name=name)
    cache = _cache_over_buffer(geometry, shm.buf)
    _ATTACHED[name] = (shm, cache)
    return cache


# ----------------------------------------------------------------------
# Replay tasks
# ----------------------------------------------------------------------


@dataclass
class ReplayTask:
    """One resumable Simulate-stage call over an independent cache.

    This is the unit the fabric (per device) and the serving loop
    (per shard) dispatch: the exact argument set of
    :meth:`repro.core.pipeline.StagedPipeline.simulate`, plus the
    optional :attr:`shared` handle the process backend needs to reach
    the cache's planes from another process.
    """

    cache: SetAssociativeCache
    policy: ReplacementPolicy
    pages: np.ndarray
    is_write: np.ndarray
    scores: np.ndarray | None = None
    warmup_fraction: float = 0.0
    index_offset: int = 0
    record_outcome: bool = False
    shared: SharedCache | None = None


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one :class:`ReplayTask`.

    Attributes
    ----------
    stats:
        Counters of the replayed (sub-)stream.
    outcome:
        Per-access ``OUTCOME_*`` codes when the task asked for them,
        else ``None``.
    policy:
        The post-run policy object.  Under the thread backend this is
        the task's own instance; under the process backend it is the
        pickle round-trip that carries any scalar-side policy state
        (CLOCK hands, RNG cursors) back to the caller, which must
        adopt it for the next round to stay bit-exact.
    elapsed_s:
        Wall-clock seconds the task's simulate call took inside its
        worker.  Merged (in task order) into a caller-supplied
        :class:`~repro.core.pipeline.StageProfiler`, so profile
        *structure* stays deterministic across worker counts even
        though the seconds themselves are measurements.
    """

    stats: CacheStats
    outcome: np.ndarray | None
    policy: ReplacementPolicy
    elapsed_s: float = 0.0


def _run_replay(task: ReplayTask, simulator: str) -> ReplayResult:
    """Execute one task in-process (inline and thread backends)."""
    run = simulate_fast if simulator == "fast" else simulate
    outcome = (
        np.empty(task.pages.shape[0], dtype=np.uint8)
        if task.record_outcome
        else None
    )
    started = time.perf_counter()
    stats = run(
        task.cache,
        task.policy,
        task.pages,
        task.is_write,
        scores=task.scores,
        warmup_fraction=task.warmup_fraction,
        index_offset=task.index_offset,
        outcome=outcome,
    )
    return ReplayResult(
        stats=stats,
        outcome=outcome,
        policy=task.policy,
        elapsed_s=time.perf_counter() - started,
    )


def _run_replay_in_worker(
    name: str,
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None,
    warmup_fraction: float,
    index_offset: int,
    record_outcome: bool,
    simulator: str,
) -> tuple[CacheStats, np.ndarray | None, ReplacementPolicy, float]:
    """Process-backend task body: attach shared planes and replay."""
    cache = _attached_cache(name, geometry)
    result = _run_replay(
        ReplayTask(
            cache=cache,
            policy=policy,
            pages=pages,
            is_write=is_write,
            scores=scores,
            warmup_fraction=warmup_fraction,
            index_offset=index_offset,
            record_outcome=record_outcome,
        ),
        simulator,
    )
    return result.stats, result.outcome, result.policy, result.elapsed_s


def _call_star(fn, args: tuple):
    """Top-level ``fn(*args)`` trampoline (picklable for spawn)."""
    return fn(*args)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class ParallelExecutor:
    """Deterministic fan-out over threads or spawn processes.

    Parameters
    ----------
    workers:
        Concurrent workers; ``0`` resolves to the CPU count, ``1``
        executes inline (no pool, no overhead).
    backend:
        ``"thread"`` or ``"process"`` (see module docstring).

    Pools are created lazily on first real fan-out and reused until
    :meth:`shutdown` (the executor is also a context manager), so a
    streaming caller pays pool start-up once, not per chunk.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str = "thread",
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        self.workers = resolve_workers(workers)
        self.backend = backend
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Optional chaos hook ``(dispatch_round, task_index) -> int``
        #: returning the number of consecutive attempts that crash for
        #: that task.  Consulted parent-side *before* any submission,
        #: so an injected crash never mutates task state and a retried
        #: attempt is bit-identical to an uninterrupted one.
        self.fault_hook = None
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._dispatch_round = 0
        self._retries_performed = 0
        self._tasks_dispatched = 0

    @classmethod
    def from_config(
        cls, config: ParallelConfig | None
    ) -> "ParallelExecutor":
        """Executor matching a :class:`ParallelConfig` (None = inline)."""
        if config is None:
            return cls()
        return cls(
            workers=config.workers,
            backend=config.backend,
            max_retries=config.max_retries,
            retry_backoff_s=config.retry_backoff_s,
        )

    @property
    def retries_performed(self) -> int:
        """Attempts recovered so far (injected crashes + real retries)."""
        return self._retries_performed

    @property
    def dispatch_rounds(self) -> int:
        """Fan-out calls issued so far (the executor's logical clock)."""
        return self._dispatch_round

    @property
    def tasks_dispatched(self) -> int:
        """Tasks/items submitted across all fan-out calls."""
        return self._tasks_dispatched

    # -- lifecycle ------------------------------------------------------
    @property
    def uses_shared_caches(self) -> bool:
        """Whether callers must allocate caches as :class:`SharedCache`."""
        return self.backend == "process" and self.workers > 1

    def make_cache(
        self, geometry: CacheGeometry
    ) -> tuple[SetAssociativeCache, SharedCache | None]:
        """A fresh cache reachable by this executor's workers.

        Returns ``(cache, shared_handle)``; the handle is ``None``
        for inline/thread execution (a plain in-process cache) and
        must be kept -- and eventually :meth:`SharedCache.close`\\ d --
        by the caller otherwise.
        """
        if not self.uses_shared_caches:
            return SetAssociativeCache(geometry), None
        handle = SharedCache(geometry)
        return handle.cache, handle

    def _ensure_pool(self):
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-parallel",
                )
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=get_context("spawn"),
                )
        return self._pool

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- retry plumbing -------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff_s > 0.0:
            time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))

    def _consume_injected_crashes(
        self, dispatch_round: int, n_tasks: int
    ) -> None:
        """Absorb chaos-injected crashes before submitting anything.

        Crashes are simulated parent-side and pre-execution: a task
        whose crashes fit inside the retry budget simply runs once,
        normally, afterwards -- bit-identical to a fault-free run.  A
        task whose crash count exceeds :attr:`max_retries` exhausts
        the budget and raises :class:`WorkerCrashError` (pool shut
        down first so it cannot wedge).
        """
        hook = self.fault_hook
        if hook is None:
            return
        for task_index in range(n_tasks):
            crashes = hook(dispatch_round, task_index)
            if crashes <= 0:
                continue
            if crashes > self.max_retries:
                self.shutdown()
                raise WorkerCrashError(
                    f"task {task_index} of dispatch round"
                    f" {dispatch_round} crashed {crashes} time(s);"
                    f" retry budget is {self.max_retries}"
                )
            for attempt in range(1, crashes + 1):
                self._retries_performed += 1
                self._backoff(attempt)

    # -- generic ordered fan-out ---------------------------------------
    def map(self, fn, items, star: bool = False) -> list:
        """``[fn(item) for item in items]``, possibly concurrent.

        Results come back in *item order* regardless of completion
        order, and the first failing item's exception (again in item
        order) is re-raised -- both halves of the determinism
        contract.  With ``star=True`` each item is an argument tuple.
        The process backend requires ``fn`` (and items) to be
        picklable, i.e. a module-level function.

        Real exceptions are retried up to :attr:`max_retries` times
        (``map`` tasks are pure functions, so a wholesale re-run is
        safe) with exponential backoff; on final failure the pool is
        shut down before the error propagates, and the next fan-out
        re-pools lazily.
        """
        dispatch_round = self._dispatch_round
        self._dispatch_round += 1
        items = list(items)
        self._tasks_dispatched += len(items)
        self._consume_injected_crashes(dispatch_round, len(items))
        attempt = 0
        while True:
            try:
                return self._map_once(fn, items, star)
            except Exception:
                self.shutdown()
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                self._retries_performed += 1
                self._backoff(attempt)

    def _map_once(self, fn, items: list, star: bool) -> list:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(*item) if star else fn(item) for item in items]
        pool = self._ensure_pool()
        if star and self.backend == "process":
            futures = [
                pool.submit(_call_star, fn, item) for item in items
            ]
        elif star:
            futures = [pool.submit(fn, *item) for item in items]
        else:
            futures = [pool.submit(fn, item) for item in items]
        return _gather(futures)

    # -- simulate fan-out ----------------------------------------------
    def replay(
        self,
        tasks: list[ReplayTask],
        simulator: str = "fast",
        profiler=None,
    ) -> list[ReplayResult]:
        """Run independent Simulate-stage tasks; results in task order.

        The caller is responsible for task independence (no two tasks
        sharing a cache/policy) -- true by construction for fabric
        devices, serving shards and sweep points.  Under the process
        backend every task must carry a :attr:`ReplayTask.shared`
        handle, and the caller must adopt each returned
        :attr:`ReplayResult.policy`.

        ``profiler`` (a :class:`~repro.core.pipeline.StageProfiler`)
        receives each task's in-worker simulate time under the
        ``"simulate.task"`` section, merged in *task order* after the
        deterministic gather -- never completion order -- so the
        profile's section names and call counts are identical at
        workers=1 and workers=N.

        Unlike :meth:`map`, a *real* exception is never retried here:
        replay tasks mutate resumable cache/policy state, so a re-run
        after a partial mutation would not be bit-exact.  Injected
        (pre-execution) crashes still draw from the retry budget, and
        the pool is shut down before any error propagates so the
        executor stays usable.
        """
        dispatch_round = self._dispatch_round
        self._dispatch_round += 1
        self._tasks_dispatched += len(tasks)
        self._consume_injected_crashes(dispatch_round, len(tasks))
        try:
            results = self._replay_once(tasks, simulator)
        except Exception:
            self.shutdown()
            raise
        if profiler is not None:
            for result in results:
                profiler.add("simulate.task", result.elapsed_s)
        return results

    def _replay_once(
        self, tasks: list[ReplayTask], simulator: str
    ) -> list[ReplayResult]:
        if self.workers <= 1 or len(tasks) <= 1:
            return [_run_replay(task, simulator) for task in tasks]
        pool = self._ensure_pool()
        if self.backend == "thread":
            futures = [
                pool.submit(_run_replay, task, simulator)
                for task in tasks
            ]
            return _gather(futures)
        for task in tasks:
            if task.shared is None:
                raise ValueError(
                    "process-backend replay needs SharedCache-backed"
                    " tasks (allocate caches via"
                    " ParallelExecutor.make_cache)"
                )
        futures = [
            pool.submit(
                _run_replay_in_worker,
                task.shared.name,
                task.shared.geometry,
                task.policy,
                task.pages,
                task.is_write,
                task.scores,
                task.warmup_fraction,
                task.index_offset,
                task.record_outcome,
                simulator,
            )
            for task in tasks
        ]
        raw = _gather(futures)
        return [
            ReplayResult(
                stats=stats,
                outcome=outcome,
                policy=policy,
                elapsed_s=elapsed_s,
            )
            for stats, outcome, policy, elapsed_s in raw
        ]

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers},"
            f" backend={self.backend!r})"
        )


def _gather(futures: list[Future]) -> list:
    """Results in submission order; first (by order) error re-raised."""
    results = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
            results.append(None)
    if error is not None:
        raise error
    return results


__all__ = [
    "ParallelExecutor",
    "ReplayResult",
    "ReplayTask",
    "SharedCache",
    "WorkerCrashError",
    "resolve_workers",
]
