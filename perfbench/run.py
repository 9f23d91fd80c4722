"""Repository benchmark for the WARDen reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-engine --seed 42 --seconds 20 --trace 0

Times the import of the package and sets the workload up, several times
each, then runs whole passes over its cells for ``--seconds`` and checks
every output.  Pass
times are reported in reference seconds (see :class:`HostSpeed`), set-up
times in host seconds.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, so the tracing overhead and the
identity of their simulated statistics are measured in the same run.  The
full report — host calibration, provenance, per-pass and per-cell times and
the spans — goes to ``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.

Exits 2 without a result when the package cannot be imported from this
checkout's ``src``, when a ``REPRO_*`` override of the code path is set,
or when a persistent result cache is installed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: environment knobs that move the package off its default code path
GUARDED_ENV = ("REPRO_EPOCH_BATCH", "REPRO_NUMPY", "REPRO_REPLAY", "REPRO_FAULTS")

END_TO_END_UNITS = {
    "sim_instr_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: deterministic RunStats counters, summed over the runs of one pass
COUNTERS = {
    "sim.instructions": lambda s: s.instructions,
    "sim.cycles": lambda s: s.cycles,
    "coherence.total_accesses": lambda s: s.coherence.total_accesses,
    "coherence.invalidations": lambda s: s.coherence.invalidations,
    "coherence.downgrades": lambda s: s.coherence.downgrades,
    "coherence.messages": lambda s: s.coherence.total_messages,
    "coherence.reconciled_blocks": lambda s: s.coherence.reconciled_blocks,
    "mem.l1_accesses": lambda s: s.coherence.l1_accesses,
    "mem.l2_accesses": lambda s: s.coherence.l2_accesses,
    "mem.l3_accesses": lambda s: s.coherence.l3_accesses,
    "mem.dram_accesses": lambda s: s.coherence.dram_accesses,
}

PER_LAYER_UNITS = {
    "coherence.access_s": "s",
    "coherence.access_calls": "count",
    "coherence.ns_per_access": "ns",
    "coherence.fast_calls": "count",
    "coherence.fast_s": "s",
    "coherence.fast_hit_ratio": "ratio",
    "coherence.region_add_s": "s",
    "coherence.region_remove_s": "s",
    "coherence.region_remove_calls": "count",
    "hlpl_sim.self_s": "s",
    "bench.workload_s": "s",
    "bench.reference_s": "s",
    "energy.compute_s": "s",
    "replay.record_s": "s",
    "replay.decode_s": "s",
    "replay.prep_s": "s",
    "replay.loop_s": "s",
    "replay.ns_per_event": "ns",
    "replay.events_per_s": "1/s",
    "replay.events": "count",
    "replay.blocks": "count",
    "verify.diff_s": "s",
    "verify.detector_s": "s",
    "verify.oracle_s": "s",
    "verify.oracle_regions": "count",
    "verify.benign_waws": "count",
    "verify.races": "count",
    **{name: "count" for name in COUNTERS},
    "warden_speedup": "ratio",
    "fail_ratio": "ratio",
    "trace.overhead": "ratio",
}


#: fresh-interpreter imports and workload set-ups per run (medians reported)
IMPORT_PROBES = 11
SETUP_REPEATS = 5


class Refused(Exception):
    """The run cannot give numbers for the default code path."""


#: times the import of the package and the workloads in a fresh interpreter
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n"
)


def _import_package():
    """Import the package from this checkout's ``src`` and the workloads."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise Refused(f"cannot import the package from {src}: {exc}") from None
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise Refused(f"repro was imported from {repro.__file__}, not {src}")
    from repro.analysis.run import get_disk_cache

    if get_disk_cache() is not None:
        raise Refused("a persistent result cache is installed")
    return workloads


def import_seconds() -> float:
    """Import time of the package and the workloads in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


#: the reference loop's length, and the time host times are scaled to
REF_ITERATIONS = 2_500
REF_SECONDS = 0.002
#: the reference loop's table: 2**16 lines, several MB of objects
REF_TABLE_MASK = (1 << 16) - 1


class _Line:
    __slots__ = ("state", "mask")

    def __init__(self) -> None:
        self.state = 0
        self.mask = 0


def reference_loop(table: dict, n: int = REF_ITERATIONS) -> float:
    """Time of a fixed pure-Python loop: one sample of host speed.

    Like the simulator, it looks up slotted objects at pseudo-random keys
    of a table of several MB, so contention from other tenants for the
    core and its caches slows it about as much as it slows the simulator.
    """
    start = time.perf_counter()
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = table.get((x & REF_TABLE_MASK) << 6)
        if line is not None and line.state != 3:
            line.state = (line.state + 1) & 3
            line.mask |= 1 << (i & 7)
    return time.perf_counter() - start


class HostSpeed:
    """Samples host speed with :func:`reference_loop` between cells.

    The host's speed drifts by tens of percent over seconds when other
    tenants load the machine, and it moves the simulator and the reference
    loop alike.  Host times are therefore reported as *reference seconds*:
    measured seconds x ``REF_SECONDS`` / the median reference-loop time of
    the samples taken during and next to the interval, i.e. the time on a
    host where the loop takes ``REF_SECONDS``.  Each cell is scaled by its
    own samples, since the speed changes within a pass.
    """

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.samples: list = []
        self.times: list = []
        self._table = {i << 6: _Line() for i in range(REF_TABLE_MASK + 1)}

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(reference_loop(self._table))
            self.times.append(time.perf_counter())

    def tick(self) -> None:
        if time.perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Normalisation factor for the host interval ``[start, end]``.

        Uses the samples taken within ``every`` of it; the median ignores
        samples stretched by a preemption.
        """
        lo = bisect.bisect_left(self.times, start - self.every)
        hi = bisect.bisect_right(self.times, end + self.every)
        return REF_SECONDS / statistics.median(self.samples[lo:hi])



def pin_to_current_cpu() -> None:
    """Keep this process, and the interpreters it starts, on one CPU.

    The host-speed samples then describe the CPU the measured work runs on.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no affinity control here: samples still bracket each cell


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` (absent in a plain copy)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def counters(p) -> dict:
    out = dict.fromkeys(COUNTERS, 0)
    for cell in p.cells:
        for _, stats in cell.runs:
            for name, get in COUNTERS.items():
                out[name] += get(stats)
    return out


def throughput(p) -> float:
    """Geomean over cells of simulated instructions per reference second.

    Each cell weighs the same, so a seed that makes one cell's input larger
    moves the figure less than a pass total would.
    """
    logs = [
        math.log(sum(s.instructions for _, s in c.runs) / (c.seconds * c.scale))
        for c in p.cells if c.runs
    ]
    return math.exp(statistics.fmean(logs))


def layer_metrics(p) -> dict:
    """Per-layer times (reference seconds) and counts of one traced pass."""
    from spans import layer_totals

    totals = layer_totals(p.log)

    def count(name, key="calls"):
        return totals.get(name, {}).get(key, 0)

    def secs(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0) * p.scale

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    access_s, access_calls = secs("coherence.access"), count("coherence.access")
    fast_calls = count("coherence.fast")
    events = p.extra.get("replay.events", 0)
    replay_s = secs("replay.decode") + secs("replay.prep") + secs("replay.loop")
    return {
        "coherence.access_s": access_s,
        "coherence.access_calls": access_calls,
        "coherence.ns_per_access": per(access_s, access_calls, 1e9),
        "coherence.fast_calls": fast_calls,
        "coherence.fast_s": secs("coherence.fast"),
        "coherence.fast_hit_ratio": per(count("coherence.fast", "hits"), fast_calls),
        "coherence.region_add_s": secs("coherence.region_add"),
        "coherence.region_remove_s": secs("coherence.region_remove"),
        "coherence.region_remove_calls": count("coherence.region_remove"),
        "hlpl_sim.self_s": secs("hlpl_sim.run", "self_s"),
        "bench.workload_s": secs("bench.workload"),
        "bench.reference_s": secs("bench.reference"),
        "energy.compute_s": secs("energy.compute"),
        "replay.decode_s": secs("replay.decode"),
        "replay.prep_s": secs("replay.prep"),
        "replay.loop_s": secs("replay.loop"),
        "replay.ns_per_event": per(replay_s, events, 1e9),
        "replay.events_per_s": per(events, replay_s),
        "verify.diff_s": secs("verify.diff"),
        "verify.detector_s": secs("verify.detector"),
        "verify.oracle_s": secs("verify.oracle"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size=None, expected=None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    workloads = _import_package()
    from spans import NullLog, SpanLog

    pin_to_current_cpu()
    host = HostSpeed()
    if expected is None:
        expected = workloads.load_expected()
    wl = workloads.WORKLOADS[workload](size)
    wseed = workloads.workload_seed(seed)

    # Set-up is the import of the package, timed in fresh interpreters, plus
    # the workload's own set-up; each is repeated and the median taken.  The
    # state of the last set-up is the one measured.  Set-up times stay in
    # host seconds: a set-up or a fresh interpreter evicts the reference
    # loop's table from the CPU caches, so samples next to it misjudge the
    # host's speed (measured here: scaled imports spread 4x more than raw).
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup(wseed)
        setups.append(time.perf_counter() - start)

    def measured_pass(log):
        gc.collect()
        host.sample(3)
        p = wl.run_pass(state, log, host.tick)
        host.sample(3)
        for c in p.cells:
            c.scale = host.scale(c.start, c.start + c.seconds)
        return p

    # Whole passes while the next one is expected to end within the budget.
    untraced, traced = [], []
    start = last = time.perf_counter()
    while True:
        untraced.append(measured_pass(NullLog()))
        if trace:
            log = SpanLog()
            with wl.tracing(log):
                p = measured_pass(log)
            p.log = log
            traced.append(p)
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            break
        last = now

    for p in untraced:
        workloads.check_pass(p, wl.size, expected)
    for p in traced:
        workloads.check_pass(p, wl.size, expected, untraced=untraced[0])
    cells = [c for p in untraced + traced for c in p.cells]
    failed = [c for c in cells if c.failures]
    fail_ratio = len(failed) / len(cells)

    first = untraced[0]
    if trace:
        rows = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        metrics.update(first.extra)
        metrics["replay.record_s"] = (
            statistics.median(setups) if workload == "replay-cold" else 0.0
        )
        metrics.update(counters(first))
        metrics["warden_speedup"] = workloads.geomean_speedup(first.cells)
        metrics["fail_ratio"] = fail_ratio
        metrics["trace.overhead"] = (
            statistics.median(p.ref_seconds for p in traced)
            / statistics.median(p.ref_seconds for p in untraced) - 1.0
        )
        metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "sim_instr_per_s": statistics.median(throughput(p) for p in untraced),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.analysis.pool import code_fingerprint

    meta = {
        "workload": workload,
        "seed": seed,
        "input_seeds": sorted({c.seed for c in first.cells}),
        "size": wl.size,
        "seconds": seconds,
        "trace": trace,
        "ref_loop_iterations": REF_ITERATIONS,
        "ref_loop_s": statistics.median(host.samples),
        "ref_loop_samples": len(host.samples),
        "python": platform.python_version(),
        "numpy": numpy_version,
        # REPRO_NUMPY is refused above, so the kernel takes numpy whenever
        # it imports
        "replay_numpy_path": workload == "replay-cold" and numpy_version is not None,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "code_fingerprint": code_fingerprint(),
        "import_runs_s": imports,
        "setup_runs_s": setups,
    }
    report = {
        "meta": meta,
        "result": {
            "correct": not failed,
            "attempted": len(cells),
            "failed": len(failed),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        },
        "passes": [
            {"traced": p.log is not None, "wall_s": p.wall, "ref_s": p.ref_seconds,
             "cells": {c.key: [c.seconds * c.scale, sum(s.instructions for _, s in c.runs)]
                       for c in p.cells}}
            for p in untraced + traced
        ],
        "failures": {c.key: c.failures for c in failed},
    }
    if trace:
        report["cell_overhead"] = {
            c.key: statistics.median(q.cells[i].seconds * q.cells[i].scale for q in traced)
            / statistics.median(q.cells[i].seconds * q.cells[i].scale for q in untraced) - 1.0
            for i, c in enumerate(first.cells)
        }
        report["spans"] = [p.log.to_dict() for p in traced]
    return report


def write_report(report: dict) -> Path:
    meta = report["meta"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-engine", "synth-engine", "replay-cold", "verify-all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("test", "small", "default"),
                        help="override the workload's input size (tests use 'test')")
    args = parser.parse_args(argv)

    overrides = [name for name in GUARDED_ENV if name in os.environ]
    try:
        if overrides:
            raise Refused(f"{', '.join(overrides)} set; unset to measure the default code path")
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    path = write_report(report)
    meta, result = report["meta"], report["result"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} size={meta['size']} "
          f"passes={len(report['passes'])} report={path.relative_to(ROOT)}")
    print("meta " + json.dumps({k: meta[k] for k in (
        "ref_loop_s", "python", "numpy", "replay_numpy_path", "nproc", "git_revision")}))
    walls = [p["wall_s"] for p in report["passes"] if not p["traced"]]
    print(f"  host wall per pass (unscaled): median {statistics.median(walls):.4g} s")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for key, failures in report["failures"].items():
        print(f"  FAILED {key}: {'; '.join(failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
