"""Seeded synthetic service workloads emitted as memory traces.

Each generator models one service-shaped traffic regime the 14 paper
kernels cannot express, as a deterministic function of ``(rng, scale,
knobs)`` — same seed, same knobs ⇒ byte-identical trace text ⇒
bit-identical RunStats on both the engine and replay paths:

* ``zipf`` — key-value cache with Zipfian key popularity: hot keys are
  read (and occasionally written) by every thread, so raising ``skew``
  concentrates traffic on a few blocks and drives sharing/invalidation
  traffic up.
* ``rwmix`` — uniform key access with a tunable write fraction: the
  knob for write-invalidate cost sweeps (``write_frac`` up ⇒
  invalidations up).
* ``ring`` — producer/consumer rings: thread ``t`` writes items +
  bumps a tail counter (RMW), thread ``t+1`` drains them — the classic
  migratory/communication pattern.
* ``falseshare`` — per-thread counters deliberately packed into shared
  cache lines (``slots_per_line`` > 1): pure false-sharing stress with a
  private-line control knob.
* ``phase`` — phase-shifting working sets: each phase moves every
  thread to a fresh mostly-private window with a small shared overlap,
  modelling request batches churning a cache.

``SYNTH_WORKLOADS`` registers one ready-made :class:`Benchmark` per
regime (names ``synth-*``); :func:`make_trace` builds a raw trace for
arbitrary knob settings (the CLI ``synth`` subcommand's entry point).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

from repro.bench.common import Benchmark
from repro.common.errors import ConfigError
from repro.workloads.adapter import trace_root_task
from repro.workloads.memtrace import (
    K_LOAD,
    K_RMW,
    K_STORE,
    MAX_TRACE_THREADS,
    MemTrace,
)

#: one cache line in every generator's address arithmetic; matches the
#: machine presets (traces remain valid at other block sizes, the
#: sharing patterns are simply sharper at <=64B lines).
LINE = 64

#: ops per thread at each named size.  "default" is deliberately far
#: beyond the built-in kernels' inputs — the replay kernel is the
#: intended substrate at that scale.
SCALES = {"test": 150, "small": 1200, "default": 25000}

#: one trace row, ``(thread, kind, addr, size)``
Op = Tuple[int, int, int, int]


def _zipf_cdf(keys: int, skew: float) -> List[float]:
    """Cumulative weights for ranks ``1..keys`` under ``1/rank**skew``."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(keys)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def gen_zipf(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    keys: int = 64,
    skew: float = 1.2,
    read_frac: float = 0.9,
) -> MemTrace:
    """Zipfian key-popularity cache traffic (rank ``r`` lives at block ``r``)."""
    cdf = _zipf_cdf(keys, skew)
    ops: List[Op] = []
    append, draw = ops.append, rng.random
    for _ in range(ops_per_thread):
        for thread in range(threads):
            key = bisect_left(cdf, draw())
            kind = K_LOAD if draw() < read_frac else K_STORE
            append((thread, kind, key * LINE, 8))
    return MemTrace(ops, name=f"zipf(skew={skew},read_frac={read_frac})")


def gen_rwmix(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    keys: int = 48,
    write_frac: float = 0.3,
) -> MemTrace:
    """Uniform key access with a tunable write fraction."""
    ops: List[Op] = []
    append, draw, randrange = ops.append, rng.random, rng.randrange
    for _ in range(ops_per_thread):
        for thread in range(threads):
            key = randrange(keys)
            kind = K_STORE if draw() < write_frac else K_LOAD
            append((thread, kind, key * LINE, 8))
    return MemTrace(ops, name=f"rwmix(write_frac={write_frac})")


def gen_ring(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    slots: int = 16,
) -> MemTrace:
    """Producer/consumer rings: ``t`` produces, ``t+1`` consumes.

    Ring ``t`` occupies ``slots`` item lines plus one counter line
    (head and tail packed 8 bytes apart — deliberately, as real SPSC
    queues often do).  Each logical item is 4 ops: produce = store item
    + RMW tail; consume = RMW head + load item.
    """
    ring_span = (slots + 1) * LINE
    items = max(1, ops_per_thread // 4)
    ops: List[Op] = []
    append, randrange = ops.append, rng.randrange
    for i in range(items):
        for thread in range(threads):
            ring = thread  # thread t produces into ring t
            base = ring * ring_span
            # seed-dependent payload offset within the slot line (the
            # consumer reads exactly what the producer wrote)
            item = base + (i % slots) * LINE + 8 * randrange(8)
            append((thread, K_STORE, item, 8))
            append((thread, K_RMW, base + slots * LINE, 8))  # tail
            consumer = (thread + 1) % threads
            append((consumer, K_RMW, base + slots * LINE + 8, 8))  # head
            append((consumer, K_LOAD, item, 8))
    return MemTrace(ops, name=f"ring(slots={slots})")


def gen_falseshare(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    slots_per_line: int = 8,
    read_frac: float = 0.25,
) -> MemTrace:
    """Per-thread counters packed ``slots_per_line`` to a cache line.

    At ``slots_per_line=1`` every counter has a private line (the fixed
    version of the bug); at 8 all eight threads fight over one line.
    """
    slot_stride = LINE // slots_per_line
    ops: List[Op] = []
    append, draw = ops.append, rng.random
    for _ in range(ops_per_thread):
        for thread in range(threads):
            line = thread // slots_per_line
            slot = thread % slots_per_line
            addr = line * LINE + slot * slot_stride
            kind = K_LOAD if draw() < read_frac else K_STORE
            append((thread, kind, addr, min(8, slot_stride)))
    return MemTrace(ops, name=f"falseshare(slots_per_line={slots_per_line})")


def gen_phase(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    phases: int = 4,
    window_lines: int = 16,
    shared_frac: float = 0.2,
) -> MemTrace:
    """Phase-shifting working sets with a small shared overlap.

    Each phase, thread ``t`` works a fresh private window of
    ``window_lines`` lines; a ``shared_frac`` slice of its accesses hits
    that phase's common window instead (write-mostly, so phase churn
    generates real coherence turnover, not just capacity misses).
    """
    per_phase = max(1, ops_per_thread // phases)
    shared_base_line = threads * phases * window_lines
    ops: List[Op] = []
    append, draw, randrange = ops.append, rng.random, rng.randrange
    for phase in range(phases):
        for _ in range(per_phase):
            for thread in range(threads):
                if draw() < shared_frac:
                    line = shared_base_line + phase * window_lines \
                        + randrange(window_lines)
                    kind = K_STORE if draw() < 0.5 else K_LOAD
                else:
                    line = (thread * phases + phase) * window_lines \
                        + randrange(window_lines)
                    kind = K_STORE if draw() < 0.3 else K_LOAD
                append((thread, kind, line * LINE, 8))
    return MemTrace(ops, name=f"phase(phases={phases})")


#: generator registry: kind -> callable(rng, ops_per_thread, **knobs)
GENERATORS: Dict[str, Callable[..., MemTrace]] = {
    "zipf": gen_zipf,
    "rwmix": gen_rwmix,
    "ring": gen_ring,
    "falseshare": gen_falseshare,
    "phase": gen_phase,
}


#: knob -> (low, high, integer-only): the inclusive range every generator
#: accepts.  Thread ids must fit a trace (``MAX_TRACE_THREADS``), counts
#: must be positive, a line holds at most one 1-byte slot per byte,
#: fractions are probabilities, and the Zipf weights stay finite floats.
KNOB_RANGES: Dict[str, Tuple[float, float, bool]] = {
    "threads": (1, MAX_TRACE_THREADS, True),
    "keys": (1, float("inf"), True),
    "slots": (1, float("inf"), True),
    "phases": (1, float("inf"), True),
    "window_lines": (1, float("inf"), True),
    "slots_per_line": (1, LINE, True),
    "read_frac": (0.0, 1.0, False),
    "write_frac": (0.0, 1.0, False),
    "shared_frac": (0.0, 1.0, False),
    "skew": (0.0, 16.0, False),
}


def _check_knob(kind: str, name: str, value) -> None:
    bounds = KNOB_RANGES.get(name)
    if bounds is None:
        return  # unknown names are the generator's TypeError
    low, high, integral = bounds
    if integral:
        ok = isinstance(value, int) and not isinstance(value, bool)
        what = "an integer"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        what = "a number"
    if not ok:
        raise ConfigError(f"synth {kind}: {name} must be {what}, got {value!r}")
    if not low <= value <= high:  # also rejects nan
        span = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
        raise ConfigError(f"synth {kind}: {name}={value} must be {span}")


def make_trace(
    kind: str, seed: int = 42, ops_per_thread: int = SCALES["test"], **knobs
) -> MemTrace:
    """Build one synthetic trace with explicit knobs (CLI ``synth`` path).

    Unknown kinds, unknown knob names and knob values outside
    :data:`KNOB_RANGES` raise :class:`ConfigError` (operational error, CLI
    exit 2).
    """
    try:
        generator = GENERATORS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown synthetic workload {kind!r}; "
            f"choose from {sorted(GENERATORS)}"
        ) from None
    if not isinstance(ops_per_thread, int) or ops_per_thread < 1:
        raise ConfigError(
            f"synth {kind}: ops per thread must be >= 1, got {ops_per_thread!r}"
        )
    for name, value in knobs.items():
        _check_knob(kind, name, value)
    try:
        return generator(random.Random(seed), ops_per_thread, **knobs)
    except TypeError as exc:
        raise ConfigError(
            f"bad knob for synthetic workload {kind!r}: {exc}"
        ) from None


def _synth_benchmark(kind: str, description: str, **knobs) -> Benchmark:
    generator = GENERATORS[kind]

    def build(rng: random.Random, scale: int) -> MemTrace:
        return generator(rng, scale, **knobs)

    return Benchmark(
        name=f"synth-{kind}",
        build=build,
        root_task=trace_root_task,
        reference=lambda workload: workload.checksum(),
        scales=dict(SCALES),
        description=description,
    )


#: the registered synthetic benchmarks — standard Benchmark objects that
#: run/bench/verify/record/replay accept exactly like the paper kernels.
SYNTH_WORKLOADS: Dict[str, Benchmark] = {
    bench.name: bench
    for bench in (
        _synth_benchmark(
            "zipf", "Zipfian key-popularity cache traffic (skew 1.2)"
        ),
        _synth_benchmark(
            "rwmix", "uniform keys, 30% writes (rw-mix sweep anchor)"
        ),
        _synth_benchmark(
            "ring", "producer/consumer rings with RMW head/tail counters"
        ),
        _synth_benchmark(
            "falseshare", "8 threads' counters packed into shared lines"
        ),
        _synth_benchmark(
            "phase", "phase-shifting working sets with shared overlap"
        ),
    )
}

#: the subset pinned in the golden digest corpus (4 x all protocols)
GOLDEN_SYNTH = ("synth-zipf", "synth-rwmix", "synth-ring", "synth-falseshare")
