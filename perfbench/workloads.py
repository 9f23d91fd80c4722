"""The benchmark's workloads: which cells each runs, its set-up, one pass,
and the wrappers its traced passes install.

Every workload is a closed loop driven by one client: one process running
its cells serially, each cell starting when the previous one returned.
Cells go through the package's public entry points only — the result
caches are always off except where ``verify_benchmark`` relies on the
in-process one, which is cleared before every pass.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.analysis.conformance as conformance
import repro.analysis.run as run_mod
from repro.analysis.conformance import stats_digest, verify_benchmark
from repro.analysis.run import ResultMismatchError, clear_cache, run_benchmark
from repro.bench import PAPER_ORDER
from repro.common.config import dual_socket
from repro.replay import ReplayKernel, Trace, record_benchmark

from spans import GROUP_PARENT, SpanLog, patched, timed_calls

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "expected_digests.json"

#: the protocols of the paper's figures, and every registered protocol
PAPER_PROTOCOLS = ("mesi", "warden")
ALL_PROTOCOLS = ("mesi", "moesi", "sisd", "warden")
SYNTH = ("synth-falseshare", "synth-phase", "synth-ring", "synth-rwmix", "synth-zipf")

#: Seeds the expected-digest file covers: 0-31 plus the figure seeds 42-44.
#: Any other ``--seed`` is folded into 0-31 so that every run's digests are
#: checked against the file.
DIGEST_SEEDS = tuple(range(32)) + (42, 43, 44)

DIGEST_CHARS = 16


def workload_seed(seed: int) -> int:
    return seed if seed in DIGEST_SEEDS else seed % 32


def input_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct input seeds derived from a run's seed."""
    return [workload_seed(seed + 11 * i) for i in range(count)]


def short_digest(stats) -> str:
    return stats_digest(stats)[:DIGEST_CHARS]


def load_expected() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(expected: dict, size: str, run_key: str, seed: int) -> Optional[str]:
    try:
        column = expected["digests"][size][run_key]
        return column[expected["seeds"].index(seed)]
    except (KeyError, ValueError, IndexError):
        return None


@dataclass
class Cell:
    """One unit of work in a pass and what it produced."""

    key: str
    seed: int
    #: host clock at the start, and host seconds taken
    start: float
    seconds: float
    #: (run key "benchmark/protocol", RunStats) of every simulated run
    runs: List[Tuple[str, object]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: run key -> digest the run must reproduce (besides the expected file)
    reference: Dict[str, str] = field(default_factory=dict)
    #: host-speed normalisation factor, set by the harness
    scale: float = 1.0


@dataclass
class Pass:
    cells: List[Cell]
    extra: Dict[str, float] = field(default_factory=dict)
    log: Optional[SpanLog] = None

    @property
    def wall(self) -> float:
        """Host seconds spent in the cells (host-speed samples excluded)."""
        return sum(c.seconds for c in self.cells)

    @property
    def ref_seconds(self) -> float:
        """Reference seconds spent in the cells."""
        return sum(c.seconds * c.scale for c in self.cells)

    @property
    def scale(self) -> float:
        """The normalisation factor of the pass as a whole."""
        return self.ref_seconds / self.wall


def check_pass(p: Pass, size: str, expected: dict, untraced: Optional[Pass] = None) -> None:
    """Add each failed output check to its cell's failures.

    Every run's digest must match the expected-digest file and the cell's
    own reference digest; a traced pass must also reproduce the digests of
    the untraced pass ``untraced``.
    """
    baseline = {}
    if untraced is not None:
        baseline = {
            (c.key, k): short_digest(s) for c in untraced.cells for k, s in c.runs
        }
    for cell in p.cells:
        for key, stats in cell.runs:
            digest = short_digest(stats)
            want = expected_digest(expected, size, key, cell.seed)
            if want is None:
                cell.failures.append(f"{key}: no expected digest for seed {cell.seed}")
            elif digest != want:
                cell.failures.append(f"{key}: digest {digest} != expected {want}")
            ref = cell.reference.get(key)
            if ref is not None and digest != ref:
                cell.failures.append(f"{key}: replay digest {digest} != recorded {ref}")
            base = baseline.get((cell.key, key))
            if untraced is not None and digest != base:
                cell.failures.append(f"{key}: traced digest {digest} != untraced {base}")


def geomean_speedup(cells: List[Cell]) -> float:
    """Geomean over benchmarks of MESI cycles / WARDen cycles (Fig. 8)."""
    cycles: Dict[Tuple[str, int], Dict[str, int]] = {}
    for cell in cells:
        for key, stats in cell.runs:
            bench, proto = key.rsplit("/", 1)
            cycles.setdefault((bench, cell.seed), {})[proto] = stats.cycles
    ratios = [
        c["mesi"] / c["warden"]
        for c in cycles.values()
        if "mesi" in c and c.get("warden")
    ]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


# ----------------------------------------------------------------------
# Tracing wrappers around the engine path of ``run_benchmark``
# ----------------------------------------------------------------------

class _TracedBenchmark:
    """Times input generation and the reference of one benchmark."""

    def __init__(self, bench, log: SpanLog) -> None:
        self._bench = bench
        self._log = log
        self.root_task = bench.root_task

    def workload(self, *args, **kwargs):
        with self._log.span("bench.workload"):
            return self._bench.workload(*args, **kwargs)

    def reference(self, workload):
        with self._log.span("bench.reference"):
            return self._bench.reference(workload)


def traced_engine(log: SpanLog):
    """Patch the names ``run_benchmark`` resolves so its layers are timed.

    The protocol's hot methods are wrapped on the instance right after the
    machine is built, before ``Runtime`` hoists them; their call groups are
    re-parented to the ``hlpl_sim.run`` span that drives them.
    """
    real_machine = run_mod.Machine
    real_runtime = run_mod.Runtime
    real_energy = run_mod.EnergyModel
    real_get = run_mod.get_benchmark
    pending: List[list] = []

    def machine(config, protocol):
        m = real_machine(config, protocol)
        p = m.protocol
        groups = [
            log.group("coherence.access"),
            log.group("coherence.fast"),
            log.group("coherence.region_add"),
            log.group("coherence.region_remove"),
        ]
        p.access = timed_calls(p.access, groups[0])
        p.try_fast_access = timed_calls(p.try_fast_access, groups[1], count_hits=True)
        p.add_region = timed_calls(p.add_region, groups[2])
        p.remove_region = timed_calls(p.remove_region, groups[3])
        pending[:] = groups
        return m

    def runtime(*args, **kwargs):
        rt = real_runtime(*args, **kwargs)
        groups = list(pending)
        pending.clear()
        inner = rt.run

        def run(*a, **k):
            with log.span("hlpl_sim.run") as sid:
                for g in groups:
                    g[GROUP_PARENT] = sid
                return inner(*a, **k)

        rt.run = run
        return rt

    def energy(config):
        model = real_energy(config)
        inner = model.compute

        def compute(stats):
            with log.span("energy.compute"):
                return inner(stats)

        model.compute = compute
        return model

    def get_benchmark(name):
        return _TracedBenchmark(real_get(name), log)

    return patched(
        run_mod,
        Machine=machine,
        Runtime=runtime,
        EnergyModel=energy,
        get_benchmark=get_benchmark,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    name = ""
    size = "small"

    def __init__(self, size: Optional[str] = None) -> None:
        if size is not None:
            self.size = size
        self.config = dual_socket()

    def setup(self, seed: int):
        """Prepare the cells of a run with input seed ``seed``."""
        raise NotImplementedError

    def run_pass(self, state, log, tick=lambda: None) -> Pass:
        """Run every cell once; ``tick`` is called before each cell."""
        raise NotImplementedError

    def tracing(self, log: SpanLog):
        return traced_engine(log)


class EngineWorkload(Workload):
    """Benchmarks x protocols through ``run_benchmark`` (epoch engine)."""

    benchmarks: Tuple[str, ...] = ()
    protocols: Tuple[str, ...] = ()
    #: inputs per benchmark and protocol in a pass
    inputs = 1

    def setup(self, seed: int):
        # Resolving the names loads the workload front ends lazily imported
        # by get_benchmark, so the first timed pass does not pay for it.
        for name in self.benchmarks:
            run_mod.get_benchmark(name)
        return [
            (b, p, s)
            for s in input_seeds(seed, self.inputs)
            for b in self.benchmarks
            for p in self.protocols
        ]

    def run_pass(self, state, log, tick=lambda: None) -> Pass:
        cells = []
        clock = time.perf_counter
        for bench, proto, seed in state:
            key = f"{bench}/{proto}"
            cell_id = log.cell = f"{key}@{seed}"
            tick()
            t0 = clock()
            runs, failures = [], []
            with log.span("cell"):
                try:
                    res = run_benchmark(
                        bench, proto, self.config, size=self.size, seed=seed,
                        use_cache=False, use_disk_cache=False,
                    )
                    runs.append((key, res.stats))
                except ResultMismatchError as exc:
                    failures.append(str(exc))
            cells.append(Cell(cell_id, seed, t0, clock() - t0, runs, failures))
        return Pass(cells)


class PaperEngine(EngineWorkload):
    """The 14 paper kernels x MESI/WARDen: the work of ``figure fig8-11``.

    The runtime's fork/join, heap and WARD marking and the epoch fast path
    carry it; the only workload with WARD region reconciliation.
    """

    name = "paper-engine"
    benchmarks = tuple(PAPER_ORDER)
    protocols = PAPER_PROTOCOLS


class SynthEngine(EngineWorkload):
    """The five ``synth-*`` traces x all four protocols.

    Raw-address sharing traffic (rw-mix, ring RMWs, false sharing) keeps
    the coherence miss and invalidation handlers busy while the runtime is
    nearly idle: a change that speeds private hits but costs misses shows
    here.
    """

    name = "synth-engine"
    benchmarks = SYNTH
    protocols = ALL_PROTOCOLS
    # How costly a synthetic trace is to simulate per instruction depends on
    # the sharing pattern its seed draws, so one run averages two inputs.
    inputs = 2


class ReplayCold(Workload):
    """Record every cell in set-up, replay each from fresh bytes per pass.

    ``Trace`` memoizes its replay preprocessing on the object, so decoding
    a new ``Trace`` per pass keeps preprocessing inside the timing.
    """

    name = "replay-cold"
    size = "test"

    def setup(self, seed: int):
        traces = []
        for bench in PAPER_ORDER:
            for proto in ALL_PROTOCOLS:
                trace, res = record_benchmark(
                    bench, proto, self.config, size=self.size, seed=seed
                )
                traces.append((f"{bench}/{proto}", seed, trace.to_bytes(), short_digest(res.stats)))
        return traces

    def run_pass(self, state, log, tick=lambda: None) -> Pass:
        cells = []
        events = blocks = 0
        clock = time.perf_counter
        for key, seed, blob, recorded in state:
            log.cell = key
            tick()
            t0 = clock()
            with log.span("cell"):
                with log.span("replay.decode"):
                    trace = Trace.from_bytes(blob)
                with log.span("replay.prep"):
                    kernel = ReplayKernel(trace)
                with log.span("replay.loop"):
                    stats = kernel.run()
            events += len(trace)
            blocks += kernel.nblocks
            cells.append(Cell(key, seed, t0, clock() - t0, [(key, stats)], reference={key: recorded}))
        return Pass(cells, {"replay.events": events, "replay.blocks": blocks})

    def tracing(self, log: SpanLog):
        return nullcontext()  # the replay spans come from run_pass itself


class VerifyAll(Workload):
    """``verify --all`` equivalent: MESI vs WARDen on every paper kernel."""

    name = "verify-all"

    def setup(self, seed: int):
        return [(bench, seed) for bench in PAPER_ORDER]

    def run_pass(self, state, log, tick=lambda: None) -> Pass:
        clear_cache()
        cells = []
        races = benign = regions = 0
        clock = time.perf_counter
        for bench, seed in state:
            log.cell = bench
            tick()
            t0 = clock()
            with log.span("cell"):
                report = verify_benchmark(bench, self.config, size=self.size, seed=seed)
            cell = Cell(bench, seed, t0, clock() - t0, failures=list(report.failures))
            if report.races and not cell.failures:
                cell.failures.append(f"{report.races} races")
            races += report.races
            benign += report.benign_waws
            regions += report.oracle_regions
            cells.append(cell)
        # The differential legs left their results in the in-process cache;
        # reading them back costs nothing and gives their full stats.
        for cell in cells:
            for proto in PAPER_PROTOCOLS:
                res = run_benchmark(cell.key, proto, self.config, size=self.size, seed=cell.seed)
                cell.runs.append((f"{cell.key}/{proto}", res.stats))
        extra = {"verify.races": races, "verify.benign_waws": benign, "verify.oracle_regions": regions}
        return Pass(cells, extra)

    @contextmanager
    def tracing(self, log: SpanLog):
        real_run = conformance.run_benchmark
        real_oracle = conformance.replay_region_oracle

        def run_benchmark_traced(*args, **kwargs):
            leg = "verify.detector" if kwargs.get("race_detector") is not None else "verify.diff"
            with log.span(leg):
                return real_run(*args, **kwargs)

        def oracle(*args, **kwargs):
            with log.span("verify.oracle"):
                return real_oracle(*args, **kwargs)

        with traced_engine(log), patched(
            conformance,
            run_benchmark=run_benchmark_traced,
            replay_region_oracle=oracle,
        ):
            yield


WORKLOADS = {w.name: w for w in (PaperEngine, SynthEngine, ReplayCold, VerifyAll)}
