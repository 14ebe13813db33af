"""Training/refresh-throughput benchmark: fast path vs reference.

Measures wall-clock of (1) :meth:`EMTrainer.fit` -- the vectorized
greedy-k-means++ seeded, quadratic-form, batched-restart fast path --
against :meth:`EMTrainer.fit_reference` (sequential restarts through
the reference k-means and triangular-solve E-step), asserting per row
that the fast path's batched / sequential / executor restart modes
produce *identical* models at equal seeds; and (2)
:meth:`ModelRefresher.build` (warm-started EM) on a drifted Zipf
stream, recording the post-drift holdout likelihood of the refreshed
model next to the stale, unrefreshed one's.  Emits
``BENCH_train_throughput.json``.

Acceptance (enforced by ``--validate``): on rows marked
``paper_geometry`` (the simulator-default K = 64 with ``n_init`` =
4) fit speedup >= 4x; on every refresh row the refreshed model's
holdout log-likelihood beats the stale model's.

    PYTHONPATH=src python benchmarks/bench_train_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke   # quick
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import GmmEngineConfig
from repro.core.engine import GmmPolicyEngine
from repro.core.parallel import ParallelExecutor
from repro.gmm.em import EMTrainer
from repro.serving.refresh import ModelRefresher
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

#: Schema of ``kind == "fit"`` rows.
FIT_SCHEMA = {
    "kind": str,
    "k": int,
    "n_init": int,
    "n_samples": int,
    "reference_s": float,
    "fast_s": float,
    "speedup": float,
    "modes_identical": bool,
    "paper_geometry": bool,
}

#: Schema of ``kind == "refresh"`` rows.
REFRESH_SCHEMA = {
    "kind": str,
    "k": int,
    "buffered_samples": int,
    "refresh_s": float,
    "stale_holdout_ll": float,
    "refreshed_holdout_ll": float,
    "paper_geometry": bool,
}

#: Acceptance gate on paper-geometry fit rows.
MIN_FIT_SPEEDUP = 4.0


def make_points(n: int, seed: int = 0) -> np.ndarray:
    """Standardised blob features shaped like trained (P, T) inputs."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [
            rng.normal(
                loc=(i % 7, i // 7), scale=0.3, size=(n // 8, 2)
            )
            for i in range(8)
        ]
    )
    return (points - points.mean(axis=0)) / points.std(axis=0)


def _results_identical(a, b) -> bool:
    return (
        np.array_equal(a.model.weights, b.model.weights)
        and np.array_equal(a.model.means, b.model.means)
        and np.array_equal(a.model.covariances, b.model.covariances)
        and a.n_iter == b.n_iter
        and a.log_likelihood == b.log_likelihood
    )


def bench_fit(k: int, n_init: int, points: np.ndarray, paper: bool):
    """One fit row: reference vs fast, plus the mode-identity check."""
    trainer = EMTrainer(
        n_components=k, max_iter=40, tol=1e-3, n_init=n_init
    )
    started = time.perf_counter()
    trainer.fit_reference(points, np.random.default_rng(1))
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = trainer.fit(points, np.random.default_rng(1))
    fast_s = time.perf_counter() - started

    sequential_trainer = EMTrainer(
        n_components=k,
        max_iter=40,
        tol=1e-3,
        n_init=n_init,
        restart_mode="sequential",
    )
    sequential = sequential_trainer.fit(
        points, np.random.default_rng(1)
    )
    with ParallelExecutor(workers=2) as executor:
        fanned = sequential_trainer.fit(
            points, np.random.default_rng(1), executor=executor
        )
    identical = _results_identical(
        batched, sequential
    ) and _results_identical(batched, fanned)

    row = {
        "kind": "fit",
        "k": int(k),
        "n_init": int(n_init),
        "n_samples": int(points.shape[0]),
        "reference_s": round(reference_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(reference_s / fast_s, 2),
        "modes_identical": bool(identical),
        "paper_geometry": bool(paper),
    }
    print(
        f"fit     K={k:<3d} n_init={n_init}  ref {reference_s:7.2f}s"
        f"  fast {fast_s:6.2f}s  speedup {row['speedup']:5.1f}x"
        f"  identical={identical}"
    )
    return row


def _drift_features(base_page: int, n: int, rng) -> np.ndarray:
    pages, _ = ZipfSampler(
        base_page=base_page, n_pages=2000, alpha=1.2
    ).sample(n, rng)
    timestamps = transform_timestamps(n, mode="prose")
    return np.column_stack(
        [pages.astype(np.float64), timestamps.astype(np.float64)]
    )


def bench_refresh(
    k: int, n_train: int, n_buffered: int, paper: bool
):
    """One refresh row: build time and post-drift holdout quality."""
    rng = np.random.default_rng(0)
    engine = GmmPolicyEngine.train(
        _drift_features(0, n_train, rng),
        GmmEngineConfig(n_components=k, max_iter=30),
        np.random.default_rng(1),
    )
    drifted = _drift_features(6000, n_buffered, rng)
    holdout = engine.scaler.transform(
        _drift_features(6000, 8000, rng)
    )
    chunk = max(1, n_buffered // 6)

    refresher = ModelRefresher(buffer_chunks=6)
    for start in range(0, n_buffered, chunk):
        refresher.ingest(drifted[start : start + chunk])
    started = time.perf_counter()
    refreshed = refresher.build(engine)
    refresh_s = time.perf_counter() - started
    stale_ll = float(np.mean(engine.model.log_score_samples(holdout)))
    refreshed_ll = float(
        np.mean(refreshed.model.log_score_samples(holdout))
    )

    row = {
        "kind": "refresh",
        "k": int(k),
        "buffered_samples": int(n_buffered),
        "refresh_s": round(refresh_s, 4),
        "stale_holdout_ll": round(stale_ll, 4),
        "refreshed_holdout_ll": round(refreshed_ll, 4),
        "paper_geometry": bool(paper),
    }
    print(
        f"refresh K={k:<3d} buffered={n_buffered:>6d}"
        f"  build {refresh_s:6.3f}s"
        f"  holdout ll {refreshed_ll:.3f} vs stale {stale_ll:.3f}"
    )
    return row


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check; returns a list of problems."""
    problems = []
    if "results" not in payload:
        return ["missing top-level 'results'"]
    rows = payload["results"]
    if not isinstance(rows, list) or not rows:
        return ["'results' must be a non-empty list"]
    paper_fit = paper_refresh = 0
    for i, row in enumerate(rows):
        schema = (
            FIT_SCHEMA if row.get("kind") == "fit" else REFRESH_SCHEMA
        )
        for field, kind in schema.items():
            if field not in row:
                problems.append(f"results[{i}]: missing {field!r}")
            elif kind is float:
                if not isinstance(row[field], (int, float)):
                    problems.append(
                        f"results[{i}].{field}: not numeric"
                    )
            elif not isinstance(row[field], kind):
                problems.append(
                    f"results[{i}].{field}: expected {kind.__name__}"
                )
        if row.get("kind") == "fit":
            if not row.get("modes_identical", False):
                problems.append(
                    f"results[{i}]: restart modes diverged"
                )
            if row.get("paper_geometry"):
                paper_fit += 1
                if row.get("speedup", 0.0) < MIN_FIT_SPEEDUP:
                    problems.append(
                        f"results[{i}]: fit speedup"
                        f" {row.get('speedup')} <"
                        f" {MIN_FIT_SPEEDUP}x at paper geometry"
                    )
        else:
            paper_refresh += bool(row.get("paper_geometry"))
            if not row.get("refreshed_holdout_ll", -np.inf) > row.get(
                "stale_holdout_ll", np.inf
            ):
                problems.append(
                    f"results[{i}]: refreshed model's post-drift"
                    " holdout likelihood does not beat the stale"
                    " model's"
                )
    if not payload.get("smoke") and (
        paper_fit == 0 or paper_refresh == 0
    ):
        problems.append(
            "full run must include paper-geometry fit and refresh rows"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small geometries, no paper-geometry gates (CI smoke)",
    )
    parser.add_argument(
        "--validate",
        metavar="JSON",
        help="validate an existing output file and exit",
    )
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    if args.validate:
        path = Path(args.validate)
        if not path.is_file():
            print(f"INVALID: no such file: {path}", file=sys.stderr)
            return 1
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"INVALID: not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid"
            f" ({len(payload['results'])} result rows)"
        )
        return 0

    if args.smoke:
        fit_grid = [(8, 2, 8_000, False)]
        refresh_grid = [(8, 8_000, 12_000, False)]
        output = args.output or "BENCH_train_throughput.smoke.json"
    else:
        fit_grid = [
            (8, 4, 40_000, False),
            (16, 4, 40_000, False),
            (64, 4, 40_000, True),  # simulator-default K
        ]
        refresh_grid = [
            (8, 24_000, 49_152, False),
            (64, 24_000, 49_152, True),
        ]
        output = args.output or "BENCH_train_throughput.json"

    results = []
    for k, n_init, n, paper in fit_grid:
        results.append(bench_fit(k, n_init, make_points(n), paper))
    for k, n_train, n_buffered, paper in refresh_grid:
        results.append(bench_refresh(k, n_train, n_buffered, paper))

    payload = {
        "bench": "train_throughput",
        "smoke": bool(args.smoke),
        "gates": {
            "min_fit_speedup_paper": MIN_FIT_SPEEDUP,
        },
        "results": results,
    }
    problems = validate(payload)
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
