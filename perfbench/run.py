"""End-to-end benchmark of the ICGMM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-drift --seed 7 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7   # every workload

For one workload the script generates the workload's trace from
``--seed`` (before any timing), then runs full repeats -- trace file
to report, each in a fresh process -- until at least
:data:`MIN_REPEATS` untraced repeats exist (two, when a third would
overrun :data:`SOFT_CAP_S`) and the next repeat would end past
``--seconds``.
It checks every repeat's outputs, checks that the simulated-design
figures and layer call counts repeat exactly, prints a report, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the bounded end-to-end metrics of
untraced repeats (``setup_s`` and ``peak_rss_mb``, medians over
repeats); the report above them also prints ``total_s``, the sum of
the run's segments -- setup, each chunk call, each gap between calls
-- each at its fastest over the repeats (:func:`best_segments`), and
the figures derived from it.  With ``--trace 1`` traced
and untraced repeats alternate, and the metrics are the per-layer ones
of the traced repeats plus ``trace_overhead`` (traced over untraced
mean ``total_s``).  The exit code is 0 only when every check passed.

Working files (traces, per-repeat results, spans, the result with its
host fingerprint) go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

# Untraced repeats per run, whatever --seconds says: setup_s is a median
# over these, total_s a best-of over them ...
MIN_REPEATS = 3
# ... unless the third would end past this many seconds (a slow host);
# then two repeats are enough.  Keeps 4 + 22 runs of every workload
# inside an hour at --seconds 40.
SOFT_CAP_S = 44.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end table but not in the result line.
# - The host (a shared 2-vCPU x86_64 VM) runs its vCPUs at two speeds
#   about 1.3-1.8x apart, for stretches of seconds to several minutes,
#   so every time after setup depends on when it was measured.  Over
#   ten seeds, total_s (best-of segments) spread 0.09-0.27 and its
#   median moved by up to 46% between sets of the same code; the serve
#   chunk median and the access rate spread 0.12-0.31; a tail over
#   fabric-paper's four strategy replays (their maximum) 0.16-0.34.
#   A bound of at most 0.25 cannot hold them, so compare them with
#   interleaved runs of both versions instead.
# - failed_frac is 0 on every correct run (the result line's `failed`
#   carries it).
# - The sim_* figures are the modelled design: they repeat exactly for
#   a seed (checked) but move with it -- serve-drift lands on 1, 2 or 3
#   refresh swaps, fabric-paper's miss cut is 0 or negative -- so their
#   spread across seeds says nothing of the host.
REPORT_ONLY = (
    ("total_s", "s"),
    ("accesses_per_s", "1/s"),
    ("chunk_p50_ms", "ms"),
    ("chunk_p90_ms", "ms"),
    ("failed_frac", "ratio"),
    ("sim_miss_pct", "%"),
    ("sim_access_us", "us"),
    ("sim_lru_miss_pct", "%"),
    ("sim_miss_cut_pts", "pts"),
    ("sim_time_cut_pct", "%"),
)
# Layer metrics that count work rather than time: identical on every
# run of one seed.
_TIMED_SUFFIXES = (".self_s", ".max_s", ".share")


def host_fingerprint(seed: int) -> dict:
    """CPU, BLAS, Python/numpy and source revision of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_rev() -> str:
    """HEAD's commit ("unknown" outside a git repository)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _repeat(workload, seed, trace_file, length, traced, index) -> dict:
    run_id = f"{workload}-s{seed}-r{index}{'-traced' if traced else ''}"
    out = WORK / "repeats" / f"{run_id}.json"
    command = [
        sys.executable, str(HERE / "repeat.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace-file", str(trace_file), "--length", str(length),
        "--traced", str(int(traced)), "--oracle", str(int(index == 0)),
        "--run-id", run_id, "--out", str(out),
        "--spans-out", str(WORK / "spans" / f"{run_id}.json"),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repeat {run_id} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: int, traced: bool):
    """All repeats of one workload; returns the aggregated result."""
    from workloads import make_trace

    for sub in ("traces", "repeats", "spans", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    trace_file = WORK / "traces" / f"{workload}-s{seed}.npz"
    length = make_trace(workload, seed, str(trace_file))

    started = time.perf_counter()
    plain, tracedruns = [], []
    while True:
        # Traced mode interleaves traced and untraced repeats
        # (T, U, T, U, ...) so that both see the same host conditions.
        want_traced = traced and len(tracedruns) <= len(plain)
        index = len(plain) + len(tracedruns)
        begun = time.perf_counter()
        result = _repeat(
            workload, seed, trace_file, length, want_traced, index
        )
        (tracedruns if want_traced else plain).append(result)
        now = time.perf_counter()
        if traced:
            enough = len(tracedruns) >= 2 and len(plain) >= 1
        else:
            enough = len(plain) >= MIN_REPEATS or (
                len(plain) == 2
                and now + (now - begun) - started > SOFT_CAP_S
            )
        # Stop once enough repeats exist and the next one (as long as
        # this one) would end past --seconds.
        if enough and now + (now - begun) - started > seconds:
            break
    trace_file.unlink()
    result = aggregate(workload, seed, plain, tracedruns)
    result["checks"].append(_check_record(result, plain + tracedruns))
    result["failed"] += not result["checks"][-1]["ok"]
    return result


def _source_digest() -> str:
    """Digest of the program's source: determinism records are kept
    per source version, so an edited program starts fresh ones."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_record(result: dict, runs: list) -> dict:
    """Compare this run's deterministic figures with earlier runs of
    the same workload, seed and source (``.perfbench/determinism``)."""
    figures = {k: repr(v) for k, v in runs[0]["sim"].items()}
    figures.update(
        (k, repr(v)) for k, v in result["layers"].items()
        if not k.endswith(_TIMED_SUFFIXES) and k != "trace_overhead"
    )
    record_dir = WORK / "determinism"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / (
        f"{result['workload']}-s{result['seed']}-{_source_digest()}.json"
    )
    known = json.loads(record.read_text()) if record.exists() else {}
    differing = [
        k for k, v in figures.items() if k in known and known[k] != v
    ]
    record.write_text(json.dumps({**figures, **known}, indent=1))
    return {
        "name": "figures identical to earlier runs of this seed",
        "ok": not differing,
        "detail": ", ".join(
            f"{k}: {known[k]} then {figures[k]}" for k in differing
        ) or f"{sum(k in known for k in figures)} compared",
    }


def best_segments(runs: list) -> np.ndarray:
    """The segments of a full run, each at its fastest over ``runs``.

    A run's segments are setup (start to the first chunk call), then
    alternately each chunk call and the gap before the next one, and
    last the gap from the final call to the report's end; ``[1::2]``
    are the calls.  Every repeat of one seed does the same work in
    each segment (the determinism checks hold it), so the fastest of
    a segment's repeats is its time with the least interference from
    the host.  A shared 2-vCPU x86_64 host runs its vCPUs at two
    speeds 1.5-1.8x apart, for stretches of seconds to minutes; one
    repeat's total, or the mean or median of three, lands on whichever
    speed the repeats happened to get, while each segment (10 ms to
    5 s) is taken from a fast stretch if any repeat met one there.
    """
    bounds = np.array([
        [0.0, *(t for call in r["chunk_at"] for t in call), r["total_s"]]
        for r in runs
    ])
    return np.diff(bounds, axis=1).min(axis=0)


def aggregate(workload: str, seed: int, plain: list, traced: list) -> dict:
    runs = plain + traced
    checks = [c for r in runs for c in r["checks"]]
    # Determinism: the simulated design and the work each layer did
    # must repeat exactly across runs of one seed.
    for name in runs[0]["sim"]:
        values = {repr(r["sim"][name]) for r in runs}
        checks.append({
            "name": f"{name} identical across {len(runs)} runs",
            "ok": len(values) == 1,
            "detail": ", ".join(sorted(values)),
        })
    if len(traced) >= 2:
        counted = [
            k for k in traced[0]["layers"]
            if not k.endswith(_TIMED_SUFFIXES)
        ]
        differing = [
            k for k in counted
            if len({repr(r["layers"][k]) for r in traced}) > 1
        ]
        checks.append({
            "name": f"layer counts identical across {len(traced)}"
            " traced runs",
            "ok": not differing,
            "detail": ", ".join(differing) or f"{len(counted)} counts",
        })
    if workload == "serve-lru" and traced:
        # The control workload: LRU with refresh off scores nothing once
        # the engine is trained, so a scorer change cannot move it.
        after = [r["score_calls_after_setup"] for r in traced]
        checks.append({
            "name": "no engine.score calls after setup",
            "ok": not any(after),
            "detail": f"{after} per traced run",
        })
    attempted = sum(r["replayed"] for r in runs)
    failed = sum(r["unaccounted"] for r in runs) + sum(
        not c["ok"] for c in checks
    )

    sim = runs[0]["sim"]
    median = statistics.median
    segments = best_segments(plain)
    end_to_end = {
        "setup_s": median(r["setup_s"] for r in plain),
        "total_s": float(segments.sum()),
        # Accesses replayed after setup over the seconds they took.
        "accesses_per_s": plain[0]["replayed"] / segments[1:].sum(),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "failed_frac": failed / attempted,
        "sim_miss_pct": sim["sim_miss_pct"],
        "sim_access_us": sim["sim_access_us"],
    }
    if workload.startswith("serve"):
        # The ingest calls (4096 accesses each), each at its fastest;
        # >= 100 of them, so >= 10 lie beyond p90.
        chunks_ms = 1e3 * segments[1::2]
        end_to_end["chunk_p50_ms"] = float(np.percentile(chunks_ms, 50))
        end_to_end["chunk_p90_ms"] = float(np.percentile(chunks_ms, 90))
    for name in ("sim_lru_miss_pct", "sim_miss_cut_pts", "sim_time_cut_pct"):
        if name in sim:
            end_to_end[name] = sim[name]
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            layers[key] = (
                median(values) if key.endswith(_TIMED_SUFFIXES)
                else values[0]
            )
        layers["trace_overhead"] = statistics.fmean(
            r["total_s"] for r in traced
        ) / statistics.fmean(r["total_s"] for r in plain)
    return {
        "workload": workload,
        "seed": seed,
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "chunks": len(plain[0]["chunk_at"]),
        "best_strategy": sim.get("best_strategy"),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": end_to_end,
        "layers": layers,
    }


def _units() -> dict:
    from spans import metric_units

    return {**dict(END_TO_END + REPORT_ONLY), **metric_units()}


def report(result: dict, traced: bool, fingerprint: dict) -> None:
    """Human-readable tables (everything above the result line)."""
    from spans import LAYERS

    units = _units()
    print(
        f"== {result['workload']} (seed {result['seed']},"
        f" {result['repeats']['untraced']} untraced +"
        f" {result['repeats']['traced']} traced repeats,"
        f" {result['chunks']} chunks)"
    )
    print("host: " + json.dumps(fingerprint))
    if result["best_strategy"]:
        print(f"best GMM strategy: {result['best_strategy']}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<24s} {value:>16.6g} {units[name]}")
    if result["workload"] == "fabric-paper":
        print(
            "  (fabric-paper has no paper reference: its model is"
            " unvalidated)"
        )
    if traced:
        print(f"  {'layer':<20s} {'calls':>8s} {'self_s':>10s}  moves")
        layers = result["layers"]
        for layer in LAYERS:
            print(
                f"  {layer.name:<20s}"
                f" {layers[layer.name + '.calls']:>8d}"
                f" {layers[layer.name + '.self_s']:>10.4f}  {layer.moves}"
            )
        for name, value in layers.items():
            if not name.endswith((".calls", ".self_s")):
                print(f"  {name:<32s} {value:>14.6g} {units[name]}")
    grouped: dict[str, list] = {}
    for check in result["checks"]:
        grouped.setdefault(check["name"], []).append(check)
    for name, group in grouped.items():
        passed = sum(c["ok"] for c in group)
        status = "ok  " if passed == len(group) else "FAIL"
        runs = f" ({passed}/{len(group)} runs)" if len(group) > 1 else ""
        print(f"  [{status}] {name}{runs}")
        for check in group:
            if not check["ok"]:
                print(f"         {check['detail']}")


def result_line(result: dict, traced: bool) -> str:
    units = _units()
    if traced:
        metrics = result["layers"]
    else:
        metrics = {name: result["end_to_end"][name] for name, _ in END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program to measure ({ROOT / 'src' / 'repro'}"
            " is missing); run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    fingerprint = host_fingerprint(args.seed)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["host"] = fingerprint
        out = WORK / "results" / (
            f"{name}-s{args.seed}-trace{args.trace}.json"
        )
        out.write_text(json.dumps(result, indent=2))
        report(result, bool(args.trace), fingerprint)
        print(result_line(result, bool(args.trace)), flush=True)
        ok = ok and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
