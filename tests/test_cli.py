"""Tests for the command-line interface."""

import contextlib
import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces.io import load_trace_csv, load_trace_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate-trace", "quake", "-o", "x.csv"]
            )


class TestGenerateTrace:
    def test_writes_npz(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        code = main(
            [
                "generate-trace",
                "heap",
                "-n",
                "2000",
                "-o",
                str(path),
                "--scale",
                "0.03125",
            ]
        )
        assert code == 0
        trace = load_trace_npz(path)
        assert len(trace) == 2000
        assert "wrote 2000 requests" in capsys.readouterr().out

    def test_writes_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(
            ["generate-trace", "stream", "-n", "500", "-o", str(path)]
        ) == 0
        assert len(load_trace_csv(path)) == 500

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        path = tmp_path / "trace.parquet"
        code = main(
            ["generate-trace", "heap", "-n", "10", "-o", str(path)]
        )
        assert code == 2
        assert "must end in" in capsys.readouterr().err

    def test_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for path in (a, b):
            main(
                [
                    "generate-trace",
                    "dlrm",
                    "-n",
                    "1000",
                    "-o",
                    str(path),
                    "--seed",
                    "7",
                ]
            )
        np.testing.assert_array_equal(
            load_trace_npz(a).addresses, load_trace_npz(b).addresses
        )


class TestRun:
    def test_run_prints_strategy_table(self, capsys):
        code = main(
            [
                "run",
                "stream",
                "--trace-length",
                "40000",
                "--components",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lru" in out
        assert "gmm-caching-eviction" in out
        assert "best:" in out


class TestSuite:
    def test_suite_two_workloads(self, capsys):
        code = main(
            [
                "suite",
                "--workloads",
                "stream",
                "heap",
                "--trace-length",
                "40000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction_points" in out
        assert "reduction_percent" in out


class TestServe:
    def test_serve_replays_and_reports(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "stream",
                "--length",
                "30000",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard:0" in out
        assert "tenant:0" in out
        assert "tenant:1" in out
        assert "miss rate" in out
        assert "0 engine swap(s)" in out

    def test_serve_with_drift_refreshes(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "60000",
                "--chunk",
                "4096",
                "--components",
                "6",
                "--drift",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine swapped" in out
        assert "generation" in out

    def test_serve_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--length",
                    "5000",
                    "--strategy",
                    "banana",
                ]
            )

    def test_serve_rejects_indivisible_shards(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "20000",
                "--components",
                "6",
                "--shards",
                "7",
                "--no-refresh",
            ]
        )
        assert code == 2
        assert "divide" in capsys.readouterr().err


def _drop_progress(out: str) -> list[str]:
    """Output lines minus the training banner and per-window lines."""
    return [
        line
        for line in out.splitlines()
        if not line.startswith(("training offline engine", "  cursor"))
    ]


class TestServeTrace:
    """``serve --trace``: the streaming replay path."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-trace")
        paths = {}
        for suffix, flags in ((".npz", ["--uncompressed"]), (".csv", [])):
            paths[suffix] = root / f"memtier{suffix}"
            assert main(
                [
                    "generate-trace",
                    "memtier",
                    "-n",
                    "24000",
                    "-o",
                    str(paths[suffix]),
                    *flags,
                ]
            ) == 0
        return paths

    @pytest.fixture(scope="class")
    def npz_out(self, traces):
        return self._run(traces[".npz"])

    @staticmethod
    def _run(path, *extra):
        buffer = io.StringIO()
        argv = ["serve", "--trace", str(path), "--chunk", "1024"]
        with contextlib.redirect_stdout(buffer):
            assert main([*argv, "--components", "6", *extra]) == 0
        return buffer.getvalue()

    def test_npz_and_csv_print_the_same_output(self, traces, npz_out):
        csv_out = self._run(traces[".csv"]).splitlines()
        assert csv_out[0] == (
            f"training offline engine on 7,200 requests from"
            f" {traces['.csv']}..."
        )
        assert csv_out[1:] == npz_out.splitlines()[1:]

    def test_report_window_does_not_change_results(self, traces, npz_out):
        # Refresh swaps engines mid-stream, so a chunking that
        # depended on the window would move drift and swap timing.
        assert "[engine swapped]" in npz_out
        one = self._run(traces[".npz"], "--report-every", "1")
        three = self._run(traces[".npz"], "--report-every", "3")
        assert one.count("  cursor") == 24
        assert three.count("  cursor") == 8
        assert _drop_progress(one) == _drop_progress(npz_out)
        assert _drop_progress(three) == _drop_progress(npz_out)


class TestServeMalformedTrace:
    """A bad row past the first read window is an error, not a crash."""

    @pytest.fixture
    def closes(self, monkeypatch):
        from repro.serving import IcgmmCacheService

        calls = []
        original = IcgmmCacheService.close

        def close(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(IcgmmCacheService, "close", close)
        return calls

    @staticmethod
    def _write(tmp_path, replace=None, trailer=""):
        path = tmp_path / "trace.csv"
        assert main(
            ["generate-trace", "memtier", "-n", "4000", "-o", str(path)]
        ) == 0
        lines = path.read_text().splitlines()
        if replace is not None:
            line_number, row = replace
            lines[line_number - 1] = row
        path.write_text("\n".join(lines) + "\n" + trailer)
        return path

    def _serve(self, path):
        return main(
            [
                "serve",
                "--trace",
                str(path),
                "--chunk",
                "256",
                "--report-every",
                "1",
                "--components",
                "4",
            ]
        )

    def test_bad_row_in_training_prefix(self, tmp_path, capsys, closes):
        # 4000 rows train on the first 1200: line 700 is in the prefix
        # but past the first 256-row read window.
        path = self._write(tmp_path, replace=(700, "R,notanint,5"))
        assert self._serve(path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "notanint" in captured.err
        assert "training offline engine" not in captured.out
        assert closes == []  # failed before the service existed

    def test_bad_row_while_serving(self, tmp_path, capsys, closes):
        path = self._write(tmp_path, replace=(3000, "R,notanint,5"))
        assert self._serve(path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "notanint" in captured.err
        assert "  cursor" in captured.out
        assert "total: " not in captured.out
        assert len(closes) == 1

    def test_trailing_blank_lines(self, tmp_path, capsys, closes):
        path = self._write(tmp_path, trailer="\n\n")
        assert self._serve(path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 4002: expected 3 fields, got 0\n"
        assert len(closes) == 1


class TestHardwareReport:
    def test_report_contains_table2(self, capsys):
        assert main(["hardware-report"]) == 0
        out = capsys.readouterr().out
        assert "LSTM" in out
        assert "339" in out
        assert "15,4" in out  # the ~15,433x speedup


class TestTelemetryCapture:
    """--telemetry-out / --json plumbing plus the metrics and top
    subcommands that re-render a captured snapshot."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "serve.json"
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "16384",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
                "--telemetry-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_snapshot_file_is_canonical_json(self, snapshot_path):
        payload = json.loads(snapshot_path.read_text())
        assert payload["schema"] == "repro.telemetry/v1"
        assert len(payload["digest"]) == 64
        assert payload["extra"]["command"] == "serve"
        names = {f["name"] for f in payload["metrics"]}
        assert "serving_chunks_total" in names

    def test_serve_json_owns_stdout(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "8192",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # pure JSON, no tables mixed in
        assert payload["extra"]["command"] == "serve"
        assert "summary" in payload["extra"]

    def test_fabric_writes_prometheus_and_trace(self, tmp_path, capsys):
        prom = tmp_path / "fabric.prom"
        trace = tmp_path / "fabric.trace.json"
        for target in (prom, trace):
            code = main(
                [
                    "fabric",
                    "stream",
                    "--trace-length",
                    "20000",
                    "--devices",
                    "2",
                    "--telemetry-out",
                    str(target),
                ]
            )
            assert code == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# HELP fabric_chunks_total" in text
        assert "# TYPE fabric_chunks_total counter" in text
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_metrics_renders_prometheus(self, snapshot_path, capsys):
        assert main(["metrics", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_chunks_total counter" in out

    def test_metrics_renders_trace(self, snapshot_path, capsys):
        assert (
            main(
                ["metrics", str(snapshot_path), "--format", "trace"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "traceEvents" in payload

    def test_metrics_json_round_trips_digest(
        self, snapshot_path, capsys
    ):
        assert (
            main(["metrics", str(snapshot_path), "--format", "json"])
            == 0
        )
        rendered = json.loads(capsys.readouterr().out)
        original = json.loads(snapshot_path.read_text())
        assert rendered["digest"] == original["digest"]

    def test_metrics_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/v9"}')
        assert main(["metrics", str(bogus)]) == 2
        assert "snapshot" in capsys.readouterr().err

    def test_top_renders_dashboard(self, snapshot_path, capsys):
        assert main(["top", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "serving_chunks_total" in out
        assert "spans" in out

    def test_chaos_json_carries_scorecard(self, capsys):
        code = main(
            [
                "chaos",
                "--scenarios",
                "device_failure",
                "--length",
                "8192",
                "--chunk",
                "2048",
                "--devices",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["extra"]["scenarios"]
        assert rows and rows[0]["scenario"] == "device_failure"
        assert "timeline_digest" in rows[0]

    def test_run_accepts_telemetry_out(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        code = main(
            [
                "run",
                "stream",
                "--trace-length",
                "40000",
                "--telemetry-out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["extra"]["command"] == "run"
        names = {f["name"] for f in payload["metrics"]}
        assert "pipeline_stage_calls_total" in names
