"""Bench report schema accessors and baseline comparison logic.

All synthetic reports — no simulation; see tests/test_epoch.py and the
perf-smoke CI job for measured-throughput coverage.
"""

from repro.analysis.bench import (
    compare_to_baseline,
    comparison_entries,
    host_meta,
)


def _row(benchmark, protocol, size, wall_s, instructions):
    return {
        "benchmark": benchmark,
        "protocol": protocol,
        "size": size,
        "wall_s": wall_s,
        "instructions": instructions,
        "steps_per_second": instructions / wall_s,
    }


def _report(rows, **extra):
    wall = sum(r["wall_s"] for r in rows)
    instrs = sum(r["instructions"] for r in rows)
    report = {
        "schema": 2,
        "suite": "full",
        "machine": "dual-socket",
        "runs": rows,
        "totals": {
            "wall_s": wall,
            "instructions": instrs,
            "steps_per_second": instrs / wall,
        },
        "meta": {"python": "3.11.0"},
    }
    report.update(extra)
    return report


class TestSchemaAccessors:
    def test_schema2_host_meta_lives_in_meta(self):
        report = _report([_row("fib", "MESI", "small", 1.0, 1000)])
        report["meta"]["host_cpus"] = 4
        assert host_meta(report)["host_cpus"] == 4

    def test_schema1_host_keys_read_from_comparisons(self):
        # schema-1 reports stashed host_cpus/note next to the real entries
        report = _report(
            [_row("fib", "MESI", "small", 1.0, 1000)],
            comparisons={
                "host_cpus": 1,
                "note": "legacy layout",
                "fig8_matrix_small": {"serial_s": 9.8},
            },
        )
        del report["meta"]
        meta = host_meta(report)
        assert meta["host_cpus"] == 1
        assert meta["note"] == "legacy layout"

    def test_meta_wins_over_legacy_keys(self):
        report = _report(
            [_row("fib", "MESI", "small", 1.0, 1000)],
            comparisons={"host_cpus": 1},
        )
        report["meta"]["host_cpus"] = 8
        assert host_meta(report)["host_cpus"] == 8

    def test_comparison_entries_filters_host_keys(self):
        report = _report(
            [_row("fib", "MESI", "small", 1.0, 1000)],
            comparisons={
                "host_cpus": 1,
                "note": "x",
                "fig8_matrix_small": {"serial_s": 9.8},
                "epoch_batched_vs_pr2": {"speedup": 1.5},
            },
        )
        entries = comparison_entries(report)
        assert set(entries) == {"fig8_matrix_small", "epoch_batched_vs_pr2"}

    def test_reports_without_comparisons(self):
        report = _report([_row("fib", "MESI", "small", 1.0, 1000)])
        assert comparison_entries(report) == {}
        assert host_meta(report) == report["meta"]


class TestCompareToBaseline:
    def test_same_suite_uses_totals(self):
        rows = [_row("fib", "MESI", "small", 1.0, 1000)]
        ok, msg = compare_to_baseline(_report(rows), _report(rows))
        assert ok
        assert "[totals]" in msg

    def test_regression_detected(self):
        fast = [_row("fib", "MESI", "small", 1.0, 1000)]
        slow = [_row("fib", "MESI", "small", 2.0, 1000)]
        ok, msg = compare_to_baseline(_report(slow), _report(fast), 0.30)
        assert not ok
        assert msg.startswith("REGRESSION")

    def test_quick_vs_full_compares_matching_rows_only(self):
        quick_rows = [_row("fib", "MESI", "small", 1.0, 1000)]
        full_rows = [
            _row("fib", "MESI", "small", 1.0, 1000),
            # an extra, much faster row that would flatter the full totals
            _row("quickhull", "MESI", "small", 0.1, 10_000),
        ]
        ok, msg = compare_to_baseline(_report(quick_rows), _report(full_rows))
        assert ok  # identical on the matched row; totals would say 0.02x
        assert "1 matching baseline rows" in msg

    def test_no_matching_rows_falls_back_to_totals(self):
        quick = [_row("fib", "MESI", "small", 1.0, 1000)]
        other = [_row("grep", "WARDen", "test", 1.0, 1000)]
        ok, msg = compare_to_baseline(_report(quick), _report(other))
        assert ok
        assert "[totals]" in msg

    def test_empty_baseline_skips(self):
        report = _report([_row("fib", "MESI", "small", 1.0, 1000)])
        baseline = {"totals": {"steps_per_second": 0}, "runs": []}
        ok, msg = compare_to_baseline(report, baseline)
        assert ok
        assert "skipping" in msg


class TestFindDefaultBaseline:
    @staticmethod
    def _write(tmp_path, name, stamp, mode=None):
        import json

        report = _report(
            [_row("fib", "MESI", "small", 1.0, 1000)],
            meta={"python": "3.11.0", "timestamp": stamp},
        )
        if mode is not None:
            report["mode"] = mode
        (tmp_path / name).write_text(json.dumps(report))
        return report

    def test_picks_newest_by_timestamp(self, tmp_path):
        from repro.analysis.bench import find_default_baseline

        self._write(tmp_path, "BENCH_old.json", "2026-01-01T00:00:00Z")
        self._write(tmp_path, "BENCH_new.json", "2026-06-01T00:00:00Z")
        path, report = find_default_baseline(tmp_path)
        assert path is not None and path.name == "BENCH_new.json"
        assert report["meta"]["timestamp"] == "2026-06-01T00:00:00Z"

    def test_filters_by_mode_and_excludes_out_path(self, tmp_path):
        from repro.analysis.bench import find_default_baseline

        self._write(tmp_path, "BENCH_sim.json", "2026-01-01T00:00:00Z")
        self._write(
            tmp_path, "BENCH_replay.json", "2026-06-01T00:00:00Z",
            mode="replay",
        )
        path, _ = find_default_baseline(tmp_path, mode="sim")
        assert path.name == "BENCH_sim.json"  # replay report is newer but skipped
        path, _ = find_default_baseline(tmp_path, mode="replay")
        assert path.name == "BENCH_replay.json"
        # the report being written never compares against itself
        path, report = find_default_baseline(
            tmp_path, mode="replay", exclude=tmp_path / "BENCH_replay.json"
        )
        assert path is None and report is None

    def test_empty_directory(self, tmp_path):
        from repro.analysis.bench import find_default_baseline

        assert find_default_baseline(tmp_path) == (None, None)


def test_replay_mode_suite_is_bit_identical_and_tagged(tmp_path, monkeypatch):
    """End-to-end: a replay-mode bench run produces the same simulated work
    (instructions/cycles) as the sim-mode rows it mirrors, and tags itself."""
    from repro.analysis.bench import render_report, run_bench_suite
    from repro.analysis.pool import DEFAULT_CACHE_DIR
    from repro.common.config import dual_socket
    import repro.analysis.bench as bench_mod

    # point the trace store at tmp (keep the repo cache dir clean)
    from repro.replay import TraceStore

    orig = TraceStore.__init__

    def patched(self, root=None):
        orig(self, root if root is not None else tmp_path)

    monkeypatch.setattr(TraceStore, "__init__", patched)
    monkeypatch.setattr(bench_mod, "QUICK_SUITE", [("fib", "test")])
    sim = run_bench_suite(quick=True, mode="sim")
    replay = run_bench_suite(quick=True, mode="replay")
    assert replay["mode"] == "replay" and sim["mode"] == "sim"
    assert "[replay]" in render_report(replay)
    for sim_row, replay_row in zip(sim["runs"], replay["runs"]):
        assert sim_row["instructions"] == replay_row["instructions"]
        assert sim_row["cycles"] == replay_row["cycles"]


def test_replay_mode_repeats_are_cold(tmp_path, monkeypatch):
    """Each replay repeat decodes fresh bytes, so preprocessing is timed on
    every repeat instead of being served from the trace's memo."""
    from repro.analysis.bench import run_bench_suite
    import repro.analysis.bench as bench_mod
    import repro.replay.kernel as kernel_mod
    from repro.replay import TraceStore

    orig_init = TraceStore.__init__

    def store_init(self, root=None):
        orig_init(self, root if root is not None else tmp_path)

    monkeypatch.setattr(TraceStore, "__init__", store_init)
    monkeypatch.setattr(bench_mod, "QUICK_SUITE", [("fib", "test")])
    calls = []
    orig_preprocess = kernel_mod._preprocess

    def counting_preprocess(tr, bs):
        calls.append(bs)
        return orig_preprocess(tr, bs)

    monkeypatch.setattr(kernel_mod, "_preprocess", counting_preprocess)
    report = run_bench_suite(quick=True, mode="replay", repeats=2)
    # one row per protocol (mesi, warden), two cold repeats each
    assert len(report["runs"]) == 2
    assert len(calls) == 4
