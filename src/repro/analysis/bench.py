"""Simulator throughput benchmark: wall-clock / steps-per-second baselines.

``warden-repro bench`` runs a fixed suite of uncached simulations, times
them, and emits a ``BENCH_*.json`` report.  The simulated work per run
(instructions, cycles) is deterministic, so ``steps_per_second`` —
simulated instructions retired per wall-clock second — is a clean
throughput metric for the simulator itself: regressions in the engine or
protocol hot paths show up directly, independent of which figures are
being regenerated.

A committed report doubles as a regression baseline:
:func:`compare_to_baseline` checks the aggregate throughput ratio against
a tolerance (CI uses 30%).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hashlib

from repro.analysis.pool import (
    DEFAULT_CACHE_DIR,
    MatrixReport,
    RunTask,
    config_fingerprint,
    run_task_robust,
)
from repro.analysis.run import run_benchmark
from repro.common.config import MachineConfig, dual_socket

#: Schema 2 moves host facts (``host_cpus``, free-form ``note``) under
#: ``meta`` where the other host metadata lives; ``comparisons``, when a
#: report carries one, is purely benchmark-keyed.  Schema-1 reports mixed
#: both as sibling keys inside ``comparisons`` — the accessors below read
#: either layout, so committed baselines never need rewriting.
BENCH_SCHEMA = 2

#: legacy schema-1 keys that may sit inside ``comparisons`` next to the
#: real benchmark entries
_HOST_META_KEYS = ("host_cpus", "note")

#: (benchmark, size) rows; every row runs under both protocols.
#: The quick suite is sized for CI smoke runs (a few seconds); the full
#: suite exercises more benchmarks at the "small" inputs.
QUICK_SUITE: List[Tuple[str, str]] = [
    ("fib", "small"),
    ("primes", "small"),
    ("msort", "small"),
    ("tokens", "test"),
    ("grep", "test"),
]

FULL_SUITE: List[Tuple[str, str]] = QUICK_SUITE + [
    ("dedup", "small"),
    ("nqueens", "small"),
    ("quickhull", "small"),
    ("suffix-array", "small"),
    ("make_array", "small"),
]


class BenchJournal:
    """Append-only JSONL checkpoint of completed bench rows.

    The bench suite's analogue of :class:`~repro.analysis.pool.MatrixJournal`:
    each completed row (a timed run dict) is appended as one JSON line to
    ``journal-bench-<suite-fingerprint>.jsonl`` under ``.warden-cache``, so
    ``bench --resume`` re-times only the rows an interrupted run never
    finished.  Timings are wall-clock (not bit-reproducible), so resumed
    rows keep their original measurement.
    """

    def __init__(self, fingerprint: str, directory=DEFAULT_CACHE_DIR) -> None:
        self.path = Path(directory) / f"journal-bench-{fingerprint}.jsonl"

    @staticmethod
    def row_key(row: Dict) -> str:
        return f"{row['benchmark']}|{row['protocol']}|{row['size']}"

    def load(self) -> Dict[str, Dict]:
        out: Dict[str, Dict] = {}
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return out
        for line in lines:
            try:
                row = json.loads(line)
                out[self.row_key(row)] = row
            except Exception:
                continue
        return out

    def append(self, row: Dict) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        except OSError:
            pass

    def remove(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


def _suite_fingerprint(
    suite: List[Tuple[str, str]],
    config: MachineConfig,
    repeats: int,
    mode: str = "sim",
) -> str:
    payload = json.dumps(
        {
            "suite": suite,
            "config": config_fingerprint(config),
            "repeats": repeats,
            "mode": mode,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_bench_suite(
    quick: bool = False,
    config: Optional[MachineConfig] = None,
    repeats: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    resume: bool = False,
    report: Optional[MatrixReport] = None,
    mode: str = "sim",
    extra_rows: Optional[List[Tuple[str, str]]] = None,
) -> Dict:
    """Time the bench suite; return the report dict (see BENCH_SCHEMA).

    Every run bypasses both caches — the point is to measure simulation,
    not cache lookups.  With ``repeats > 1`` each row is run that many
    times and the *fastest* wall-clock is kept (standard noise floor).

    ``mode="replay"`` times the vectorized replay kernel instead of the
    interpreted engine: each row's trace is recorded (or fetched from the
    trace store) *untimed*, then each repeat times a cold replay: decode
    a fresh :class:`~repro.replay.Trace` from the serialized bytes, then
    :func:`~repro.replay.replay_trace` (preprocessing and kernel loop), so
    the trace's preprocessing memo never carries over between repeats.
    Replay rows always run in-process — the robustness knobs
    (``timeout``/``retries``) apply to ``mode="sim"`` only, since a replay
    is a short deterministic array walk with nothing to preempt.

    ``timeout``/``retries`` run each sim row through the robust single-task
    path (:func:`~repro.analysis.pool.run_task_robust`; with a timeout each
    attempt gets a fresh single-worker process, and the row's wall-clock is
    measured inside that process so pool spawn overhead never pollutes the
    throughput numbers).  ``resume`` checkpoints completed rows to a
    :class:`BenchJournal` and skips them on re-run.
    """
    config = config if config is not None else dual_socket()
    suite = QUICK_SUITE if quick else FULL_SUITE
    if extra_rows:
        # Caller-appended workload rows (bench --workload): same timing
        # loop, same two protocols, and part of the suite fingerprint so
        # --resume never mixes journals across different row sets.
        suite = suite + list(extra_rows)
    robust = mode == "sim" and (timeout is not None or retries > 0)
    journal: Optional[BenchJournal] = None
    done: Dict[str, Dict] = {}
    if resume:
        journal = BenchJournal(_suite_fingerprint(suite, config, repeats, mode))
        done = journal.load()
        if done and report is not None:
            report.resumed += len(done)
            report.record(
                "resume", -1, 0, detail=f"{len(done)} bench rows from journal"
            )
    runs = []
    row_index = 0
    for name, size in suite:
        for protocol in ("mesi", "warden"):
            row_index += 1
            key = f"{name}|{protocol}|{size}"
            if key in done:
                runs.append(done[key])
                continue
            best_wall = None
            result = None
            if mode == "replay":
                from repro.analysis.pool import task_fingerprint
                from repro.replay import (
                    Trace,
                    TraceStore,
                    record_benchmark,
                    replay_trace,
                )

                store = TraceStore()
                fp = task_fingerprint(RunTask(
                    benchmark=name,
                    protocol=protocol,
                    config=config,
                    size=size,
                ))
                trace = store.load(fp)
                if trace is None:
                    trace, _ = record_benchmark(
                        name, protocol, config, size=size, fingerprint=fp
                    )
                    store.store(fp, trace)
                blob = trace.to_bytes()
                for _ in range(max(1, repeats)):
                    t0 = time.perf_counter()
                    result = replay_trace(Trace.from_bytes(blob))
                    wall = time.perf_counter() - t0
                    if best_wall is None or wall < best_wall:
                        best_wall = wall
                stats = result.stats
                row = {
                    "benchmark": name,
                    "protocol": result.protocol,
                    "size": size,
                    "wall_s": best_wall,
                    "instructions": stats.instructions,
                    "cycles": stats.cycles,
                    "steps_per_second": stats.instructions / best_wall
                    if best_wall
                    else 0.0,
                }
                runs.append(row)
                if journal is not None:
                    journal.append(row)
                continue
            for _ in range(max(1, repeats)):
                if robust:
                    task = RunTask(
                        benchmark=name,
                        protocol=protocol,
                        config=config,
                        size=size,
                        use_cache=False,
                    )
                    result, wall = run_task_robust(
                        task,
                        timeout=timeout,
                        retries=retries,
                        report=report,
                        index=row_index - 1,
                    )
                else:
                    t0 = time.perf_counter()
                    result = run_benchmark(
                        name,
                        protocol,
                        config,
                        size=size,
                        use_cache=False,
                        use_disk_cache=False,
                    )
                    wall = time.perf_counter() - t0
                if best_wall is None or wall < best_wall:
                    best_wall = wall
            stats = result.stats
            row = {
                "benchmark": name,
                "protocol": result.protocol,
                "size": size,
                "wall_s": best_wall,
                "instructions": stats.instructions,
                "cycles": stats.cycles,
                "steps_per_second": stats.instructions / best_wall
                if best_wall
                else 0.0,
            }
            runs.append(row)
            if journal is not None:
                journal.append(row)
    if journal is not None:
        journal.remove()
    total_wall = sum(r["wall_s"] for r in runs)
    total_instrs = sum(r["instructions"] for r in runs)
    out = {
        "schema": BENCH_SCHEMA,
        "suite": "quick" if quick else "full",
        "mode": mode,
        "machine": config.name,
        "runs": runs,
        "totals": {
            "wall_s": total_wall,
            "instructions": total_instrs,
            "steps_per_second": total_instrs / total_wall if total_wall else 0.0,
        },
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "host_cpus": os.cpu_count(),
        },
    }
    if report is not None and not report.clean:
        out["robustness"] = report.to_dict()
    return out


def host_meta(report: Dict) -> Dict:
    """Host facts of a report, regardless of schema version.

    Schema >= 2 keeps them in ``meta``; schema 1 stashed ``host_cpus`` /
    ``note`` as sibling keys inside ``comparisons``.
    """
    meta = dict(report.get("meta", {}))
    legacy = report.get("comparisons", {})
    for key in _HOST_META_KEYS:
        if key not in meta and key in legacy:
            meta[key] = legacy[key]
    return meta


def comparison_entries(report: Dict) -> Dict[str, Dict]:
    """The benchmark-keyed entries of ``comparisons``, regardless of schema.

    Filters out the legacy schema-1 host keys (anything non-dict), so
    callers can iterate comparison blocks without layout checks.
    """
    return {
        key: value
        for key, value in report.get("comparisons", {}).items()
        if isinstance(value, dict)
    }


def render_report(report: Dict) -> str:
    """Human-readable table for one bench report (any schema version)."""
    meta = host_meta(report)
    host = f" ({meta['host_cpus']} host cpus)" if meta.get("host_cpus") else ""
    mode = report.get("mode", "sim")
    mode_tag = f" [{mode}]" if mode != "sim" else ""
    lines = [
        f"bench suite: {report['suite']}{mode_tag} on {report['machine']} "
        f"({meta.get('python', '?')}){host}",
        f"{'benchmark':<14} {'protocol':<8} {'size':<8} "
        f"{'wall (s)':>9} {'instrs':>10} {'steps/s':>12}",
    ]
    for r in report["runs"]:
        lines.append(
            f"{r['benchmark']:<14} {r['protocol']:<8} {r['size']:<8} "
            f"{r['wall_s']:>9.3f} {r['instructions']:>10} "
            f"{r['steps_per_second']:>12.0f}"
        )
    totals = report["totals"]
    lines.append(
        f"{'TOTAL':<14} {'':<8} {'':<8} {totals['wall_s']:>9.3f} "
        f"{totals['instructions']:>10} {totals['steps_per_second']:>12.0f}"
    )
    return "\n".join(lines)


def write_report(path, report: Dict) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_report(path) -> Dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def find_default_baseline(
    directory=".", mode: str = "sim", exclude=None
) -> Tuple[Optional[Path], Optional[Dict]]:
    """Newest committed ``BENCH_*.json`` whose mode matches, or (None, None).

    ``warden-repro bench`` auto-selects its baseline with this when the
    user passes none: reports in ``directory`` are filtered to the given
    ``mode`` (reports without a ``mode`` field are schema-1/2 sim reports)
    and the newest by ``meta.timestamp`` (file mtime as fallback) wins.
    ``exclude`` skips a path — typically the report being written, so a
    run never compares against itself.
    """
    directory = Path(directory)
    exclude = Path(exclude).resolve() if exclude is not None else None
    best: Tuple = (None, None)
    best_stamp = ""
    for path in sorted(directory.glob("BENCH_*.json")):
        if exclude is not None and path.resolve() == exclude:
            continue
        try:
            report = load_report(path)
        except (OSError, ValueError):
            continue
        if report.get("mode", "sim") != mode:
            continue
        stamp = str(host_meta(report).get("timestamp", ""))
        if not stamp:
            try:
                stamp = time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime(path.stat().st_mtime)
                )
            except OSError:
                continue
        if stamp >= best_stamp:
            best = (path, report)
            best_stamp = stamp
    return best


def compare_to_baseline(
    report: Dict, baseline: Dict, max_regression: float = 0.30
) -> Tuple[bool, str]:
    """Check aggregate steps/second against a baseline report.

    Returns ``(ok, message)`` — ``ok`` is False when throughput dropped by
    more than ``max_regression`` (e.g. 0.30 = 30%) versus the baseline.
    """
    current = report["totals"]["steps_per_second"]
    reference = baseline["totals"]["steps_per_second"]
    scope = "totals"
    # Suite-matched comparison: when the baseline covers more rows than the
    # report (quick run vs a committed full-suite baseline), restrict the
    # reference to the rows the report actually ran — otherwise the quick
    # suite's different benchmark mix skews the ratio.
    rows = {
        (r["benchmark"], r["protocol"], r["size"]) for r in report["runs"]
    }
    matched = [
        r
        for r in baseline.get("runs", [])
        if (r["benchmark"], r["protocol"], r["size"]) in rows
    ]
    if matched and len(matched) != len(baseline.get("runs", [])):
        wall = sum(r["wall_s"] for r in matched)
        if wall > 0:
            reference = sum(r["instructions"] for r in matched) / wall
            scope = f"{len(matched)} matching baseline rows"
    if reference <= 0:
        return True, "baseline has no throughput data; skipping comparison"
    ratio = current / reference
    message = (
        f"throughput {current:,.0f} steps/s vs baseline {reference:,.0f} "
        f"steps/s [{scope}] ({ratio:.2f}x, tolerance -{max_regression:.0%})"
    )
    if ratio < 1.0 - max_regression:
        return False, "REGRESSION: " + message
    return True, "ok: " + message
