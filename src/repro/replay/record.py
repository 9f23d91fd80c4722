"""Recording one interpreted run into a replayable trace.

The recorder is a thin wrapper around the normal engine: a
:class:`RecordingMachine` captures every protocol-visible instruction the
runtime issues (accesses, WARD region boundaries, NUMA placement) and a
:class:`RecordingCore` folds everything *between* those instructions —
compute batches, scheduler backoff, fork overhead — into per-thread pending
charges that ride on the next event's ``pre_instrs``/``pre_cycles`` fields.
The recorded run itself is unperturbed: all charges still land on the real
core clocks immediately, so the recorded ``RunStats`` (and hence the
reference-checked result) are exactly what :func:`repro.analysis.run.
run_benchmark` would produce.

Recording runs on the same epoch-batched engine, with sleeping idle
workers, as an ordinary run, so accesses arrive by two routes:

* slow accesses pass through :meth:`RecordingMachine.access`, which emits
  them before the transaction;
* fast-path hits never reach :meth:`Machine.access`.  Each one is a
  successful ``protocol.try_fast_access`` followed by exactly one
  ``CoreModel.load``/``store`` on the issuing thread's core (in the
  engine's run/batch loops and the scheduler's deque touches).  The
  machine wraps ``try_fast_access`` on the protocol instance to remember
  the granted ``(addr, size)``, and :class:`RecordingCore` emits it from
  that load/store, where the thread (not the protocol core: SMT siblings
  share one) and the spin flag are known.

Three engine behaviours are captured by instance patches on the runtime:

* ``scheduler._assign`` clamps a worker's clock forward to a stolen
  strand's ready time — the only non-additive clock write in the machine.
  Recorded as ``K_SYNC`` (only when the clamp actually moves the clock).
* ``scheduler.catch_up`` retires a sleeping idle worker's spins in closed
  form.  Each catch-up that retires n > 0 spins is recorded as one
  ``K_SPIN`` carrying n and the sleeper's WARD spin-block count; the
  sleeper's pending charges ride on it.
* ``runtime._on_root_done`` identifies which thread finished the root
  strand; its clock is the makespan, so the trace must know the thread.

Under ``REPRO_EPOCH_BATCH=0`` the engine steps per-op, nobody sleeps, and
every spin is recorded as explicit accesses: that trace is the reference
the closed form is held to.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.analysis.pool import RunTask, code_fingerprint, task_fingerprint
from repro.bench import get_benchmark
from repro.common.config import MachineConfig
from repro.common.types import AccessType
from repro.energy.model import EnergyModel
from repro.hlpl.policy import MarkingPolicy
from repro.hlpl.runtime import Runtime
from repro.obs.tracer import ReplayEvent
from repro.sim.core import CoreModel
from repro.sim.machine import Machine
from repro.replay.trace import (
    AT_LOAD,
    AT_STORE,
    K_ACCESS,
    K_FLUSH,
    K_LLC_WARM,
    K_PLACE,
    K_REGION_ADD,
    K_REGION_REMOVE,
    K_SPIN,
    K_SYNC,
    TRACE_SCHEMA,
    Trace,
    encode_result,
)

_AT_CODE = {AccessType.LOAD: 0, AccessType.STORE: 1, AccessType.RMW: 2}


class TraceRecorder:
    """Accumulates the event columns plus per-thread pending charges."""

    __slots__ = ("trace", "pend_i", "pend_c", "final_thread", "granted")

    def __init__(self, num_threads: int) -> None:
        self.trace = Trace()
        #: compute instructions / plain cycles charged to each thread since
        #: its last protocol-visible event
        self.pend_i: List[int] = [0] * num_threads
        self.pend_c: List[int] = [0] * num_threads
        self.final_thread = 0
        #: ``(addr, size)`` of the access ``try_fast_access`` just granted;
        #: the issuing core's load/store emits and clears it
        self.granted: Optional[Tuple[int, int]] = None

    def emit(
        self, kind: int, thread: int, atype: int, size: int, spin: int,
        addr: int, aux: int,
    ) -> None:
        pi = self.pend_i[thread]
        pc = self.pend_c[thread]
        if pi or pc:
            self.pend_i[thread] = 0
            self.pend_c[thread] = 0
        self.trace.append(kind, thread, atype, size, spin, addr, aux, pi, pc)

    def finish(self) -> None:
        """Flush trailing pendings (charges with no successor event)."""
        for thread in range(len(self.pend_i)):
            if self.pend_i[thread] or self.pend_c[thread]:
                self.emit(K_FLUSH, thread, 0, 0, 0, 0, 0)


class RecordingCore(CoreModel):
    """A core model that mirrors compute/idle charges into the recorder.

    The real clock and stats still advance normally — pendings are a trace
    artifact only, so the recorded run is bit-identical to an untraced one.
    """

    def __init__(
        self, config: MachineConfig, thread: int, recorder: TraceRecorder,
        tracer=None,
    ) -> None:
        super().__init__(config, thread, tracer=tracer)
        self._recorder = recorder

    def load(self, latency: int, spin: bool = False) -> None:
        recorder = self._recorder
        granted = recorder.granted
        if granted is not None:  # a fast-path hit: Machine.access never saw it
            recorder.granted = None
            recorder.emit(
                K_ACCESS, self.thread, AT_LOAD, granted[1], 1 if spin else 0,
                granted[0], 0,
            )
        super().load(latency, spin)

    def store(self, latency: int) -> None:
        recorder = self._recorder
        granted = recorder.granted
        if granted is not None:
            recorder.granted = None
            recorder.emit(
                K_ACCESS, self.thread, AT_STORE, granted[1], 0, granted[0], 0
            )
        super().store(latency)

    def compute(self, instrs: int) -> None:
        self._recorder.pend_i[self.thread] += instrs
        self.clock += instrs
        self.stats.compute_instrs += instrs

    def advance(self, cycles: int) -> None:
        self._recorder.pend_c[self.thread] += cycles
        self.clock += cycles


class RecordingMachine(Machine):
    """A machine that records protocol-visible events as it executes."""

    def __init__(self, config: MachineConfig, protocol="mesi") -> None:
        super().__init__(config, protocol)
        self.recorder = recorder = TraceRecorder(config.num_threads)
        # Replace the cores and wrap the fast path before any
        # Runtime/Scheduler sees (or hoists) them.
        self.cores = [
            RecordingCore(config, t, recorder, tracer=self.tracer)
            for t in range(config.num_threads)
        ]
        try_fast = self.protocol.try_fast_access

        def try_fast_access(core, addr, size, atype):
            latency = try_fast(core, addr, size, atype)
            if latency is not None:
                recorder.granted = (addr, size)
            return latency

        self.protocol.try_fast_access = try_fast_access

    # -- recorded instruction streams ----------------------------------
    def access(self, thread, addr, size, atype, spin=False):
        self.recorder.emit(
            K_ACCESS, thread, _AT_CODE[atype], size, 1 if spin else 0, addr, 0
        )
        return super().access(thread, addr, size, atype, spin=spin)

    def place(self, addr, size, thread):
        self.recorder.emit(K_PLACE, thread, 0, 0, 0, addr, size)
        super().place(addr, size, thread)

    def llc_warm_fill(self, addr, thread=0):
        # Input loaders fill the LLC outside any access transaction; the
        # fills perturb LLC LRU order, so replay must reproduce them.
        self.recorder.emit(K_LLC_WARM, thread, 0, 0, 0, addr, 0)
        super().llc_warm_fill(addr, thread)

    def add_ward_region(self, thread, start, end):
        if not self.protocol.supports_ward:
            return None
        # Mirror Machine.add_ward_region, but record the region instruction
        # *after* its 1-instruction charge so the charge rides in this
        # event's pre fields (replay then applies it exactly once).
        self.cores[thread].compute(1)
        self._stamp_tracer(thread)
        self.recorder.emit(K_REGION_ADD, thread, 0, 0, 0, start, end)
        return self.protocol.add_region(start, end)

    def remove_ward_region(self, thread, region):
        if region is None or not self.protocol.supports_ward:
            return
        self.cores[thread].compute(1)
        self._stamp_tracer(thread)
        self.recorder.emit(
            K_REGION_REMOVE, thread, 0, 0, 0, 0, region.region_id
        )
        self.protocol.remove_region(region)


def record_benchmark(
    name: str,
    protocol,
    config: MachineConfig,
    size: str = "default",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    check_result: bool = True,
    fingerprint: Optional[str] = None,
    obs_sink=None,
) -> Tuple[Trace, "BenchResult"]:
    """Run one benchmark through the interpreted engine, recording its trace.

    Returns ``(trace, result)`` where ``result`` is the same
    :class:`~repro.analysis.run.BenchResult` a direct ``run_benchmark``
    call would produce (the recorded run *is* a normal run) and ``trace``
    carries everything the replay kernel needs, including the pickled
    functional result and the task/code fingerprints that key the store.
    """
    # Imported here: analysis.run's replay entry point imports this module.
    from repro.analysis.run import (
        BenchResult,
        ResultMismatchError,
        _protocol_key,
    )

    bench = get_benchmark(name)
    workload = bench.workload(size=size, seed=seed)
    machine = RecordingMachine(config, protocol)
    recorder = machine.recorder
    if obs_sink is not None:
        obs_sink.emit(ReplayEvent(0, "record-start", name, machine.protocol.name))
    rt = Runtime(machine, policy=policy, seed=seed)

    # Capture the scheduler's ready-clock clamp (the one non-additive
    # clock write), the sleepers' closed-form spins, and the identity of
    # the makespan thread.
    sched = rt.scheduler
    orig_assign = sched._assign
    cores = machine.cores

    def _assign_hook(worker, strand):
        if strand.ready_clock > cores[worker.thread].clock:
            recorder.emit(
                K_SYNC, worker.thread, 0, 0, 0, 0, strand.ready_clock
            )
        orig_assign(worker, strand)

    sched._assign = _assign_hook
    orig_catch_up = sched.catch_up
    spin_ward = sched._spin_ward

    def _catch_up_hook(thread, clock, key_thread):
        cstats = cores[thread].stats
        before = cstats.spin_loads
        orig_catch_up(thread, clock, key_thread)
        spins = cstats.spin_loads - before
        if spins:
            recorder.emit(K_SPIN, thread, 0, 0, spin_ward[thread], 0, spins)

    sched.catch_up = _catch_up_hook
    orig_root_done = rt._on_root_done

    def _root_done_hook(value, worker):
        recorder.final_thread = worker.thread
        orig_root_done(value, worker)

    rt._on_root_done = _root_done_hook

    result, stats = rt.run(bench.root_task, workload)
    stats.benchmark = name
    EnergyModel(config).compute(stats)
    if check_result:
        expected = bench.reference(workload)
        if result != expected:
            raise ResultMismatchError(
                f"{name} on {protocol}: recorded result does not match the "
                f"reference (got {str(result)[:80]}...)"
            )
    recorder.finish()

    trace = recorder.trace
    if fingerprint is None:
        fingerprint = task_fingerprint(RunTask(
            benchmark=name,
            protocol=_protocol_key(protocol),
            config=config,
            size=size,
            seed=seed,
            policy=policy,
        ))
    trace.meta = {
        "schema": TRACE_SCHEMA,
        "fingerprint": fingerprint,
        "code_fingerprint": code_fingerprint(),
        "benchmark": name,
        "protocol": _protocol_key(protocol),
        "protocol_name": machine.protocol.name,
        "supports_ward": machine.protocol.supports_ward,
        "size": size,
        "seed": seed,
        "policy": policy.value,
        "machine": config.name,
        "config": dataclasses.asdict(config),
        "final_thread": recorder.final_thread,
        "events": len(trace),
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        # steal probes happen inside the scheduler, invisible to the
        # protocol: carried as per-thread totals and injected at finalize
        "steals": [
            [cm.stats.steal_attempts, cm.stats.successful_steals]
            for cm in machine.cores
        ],
        "result": encode_result(result),
    }
    out = BenchResult(
        benchmark=name,
        protocol=machine.protocol.name,
        machine=config.name,
        size=size,
        stats=stats,
        result=result,
        ward_checked=False,
    )
    if obs_sink is not None:
        obs_sink.emit(ReplayEvent(
            0, "record-done", name, machine.protocol.name, events=len(trace)
        ))
    return trace, out
