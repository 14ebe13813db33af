"""One repeat of one workload, in its own process.

Started by ``perfbench/run.py``; not meant to be run by hand.  Times
one full run of the workload over a pre-generated trace file, runs
the workload's correctness checks outside the timed region, and
writes a JSON result (and, when traced, the run's spans) to the paths
it is given.  A fresh process per repeat makes every repeat pay what
a user's run pays (cold start, training, allocation) and gives each
its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import SpanRecorder, install_layers, layer_metrics  # noqa: E402
from workloads import check, full_run  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's own RSS high-water mark (``VmHWM``).

    Not ``ru_maxrss``: on Linux that survives fork and exec, so it
    would carry the parent's peak (which generated the trace) into
    every repeat.  ``VmHWM`` belongs to the address space, which
    starts fresh at exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    recorder = SpanRecorder(args.run_id)
    if args.traced:
        install_layers(recorder)
        recorder.active = True
    run = full_run(args.workload, args.seed, args.trace_file)
    recorder.active = False
    rss_mb = _peak_rss_mb()
    run["length"] = args.length
    run["path"] = args.trace_file

    started = time.perf_counter()
    checks, unaccounted = check(args.workload, run, bool(args.oracle))
    check_s = time.perf_counter() - started

    wall_s = run["end"] - run["t0"]
    result = {
        "run_id": args.run_id,
        "traced": bool(args.traced),
        "setup_s": run["setup_end"] - run["t0"],
        "total_s": wall_s,
        "replayed": run["replayed"],
        # Each chunk call's start and end, from the start of the run.
        "chunk_at": [
            [start - run["t0"], end - run["t0"]]
            for start, end in run["chunks"]
        ],
        "peak_rss_mb": rss_mb,
        "sim": run["sim"],
        "checks": checks,
        "check_s": check_s,
        "unaccounted": unaccounted,
    }
    if args.traced:
        service = run["state"].get("service")
        swaps = len(service.swaps) if service is not None else 0
        result["layers"] = layer_metrics(recorder, wall_s, swaps)
        result["score_calls_after_setup"] = sum(
            span.name == "engine.score" and span.start >= run["setup_end"]
            for span in recorder.spans
        )
        if args.spans_out:
            recorder.dump(args.spans_out)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
