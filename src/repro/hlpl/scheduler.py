"""Work-stealing scheduler with simulated-memory deques.

Each worker owns a deque; the owner pushes/pops at the bottom, thieves
steal from the top with an atomic.  The deque's top/bottom words live at
simulated addresses (padded to one cache block each, as real runtimes pad),
so scheduling itself generates realistic coherence traffic — identically for
MESI and WARDen, since runtime metadata is never inside a WARD region.

Idle workers spin with exponential backoff (busy-wait synchronization, as in
the PBBS suite — see the paper's Fig. 11 discussion of ray).  Once a spin
loop has settled (backoff capped, nothing ready anywhere, both spin words
private L1 hits) every further spin is identical, so :meth:`on_idle`
reports the worker quiescent and the engine fast-forwards its spins in
closed form (:meth:`WorkStealingScheduler.catch_up`) until the next
:meth:`push` or the end of the run; see ``repro.sim.engine``.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.common.types import AccessType

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_RMW = AccessType.RMW

BACKOFF_MIN = 64
#: capped low: long backoffs make steal latency (and thus the critical path)
#: jitter by thousands of cycles, drowning protocol effects in noise
BACKOFF_MAX = 512


class WorkStealingScheduler:
    """Implements the engine's scheduler interface (§2.1's "standard
    work-stealing scheduler")."""

    def __init__(self, rt, model_traffic: bool = True, seed: int = 0) -> None:
        self.rt = rt
        machine = rt.machine
        nthreads = machine.config.num_threads
        bs = machine.config.block_size
        self.deques: List[deque] = [deque() for _ in range(nthreads)]
        self.total_ready = 0
        self.finished = False
        #: when False, deque/steal operations cost fixed cycles instead of
        #: simulated memory traffic (diagnostic / ablation knob)
        self.model_traffic = model_traffic
        self.bottom_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        self.top_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        self.flag_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        for t in range(nthreads):
            machine.place(self.bottom_addr[t], bs, t)
            machine.place(self.top_addr[t], bs, t)
            machine.place(self.flag_addr[t], bs, t)
        self._backoff = [BACKOFF_MIN] * nthreads
        #: mirror the engine's epoch knob: scheduler deque/spin accesses are
        #: overwhelmingly private hits, so route them through the epoch fast
        #: path (identical statistical effects; see try_fast_access) unless
        #: REPRO_EPOCH_BATCH=0 asks for the pure reference access path
        self._fast_touch = getattr(rt.engine, "epoch_batch", False)
        # hoisted hot-path handles (all stable for the machine's lifetime;
        # on_idle dominates simulated idle time, so attribute chains matter)
        self._machine = machine
        self._cores = machine.cores
        self._core_of = machine._core_of
        self._try_fast = machine.protocol.try_fast_access
        self._tracer = machine.tracer
        self._nthreads = nthreads
        config = machine.config
        self._engine = rt.engine
        self._l1_latency = config.l1.latency
        #: idle workers may sleep (leave the engine heap) only when their
        #: spins are fast-path private hits no SMT sibling can reorder
        self._may_sleep = self._fast_touch and config.threads_per_core == 1
        #: cycles of one settled spin: two L1-hit loads plus capped backoff
        self._spin_cycles = 2 * config.l1.latency + BACKOFF_MAX
        #: per thread, how many of its two spin blocks are in a WARD state
        #: (each settled spin adds that many ``ward_accesses``)
        self._spin_ward = [0] * nthreads
        self._per_socket = config.cores_per_socket * config.threads_per_core
        self._num_sockets = config.num_sockets
        # Deterministic per-worker victim choice (xorshift-style LCG),
        # perturbed by the run seed so harnesses can average out
        # steal-timing noise across runs.
        self._rng_state = [
            (0x9E3779B9 * (t + 1) ^ (seed * 0x85EBCA6B)) & 0xFFFFFFFF
            for t in range(nthreads)
        ]

    def _next_victim(self, thread: int) -> int:
        """NUMA-aware victim choice: 3 of 4 probes stay on the thief's
        socket (a remote probe costs a full cross-socket round trip)."""
        state = self._rng_state[thread]
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        self._rng_state[thread] = state
        nthreads = self._nthreads
        per_socket = self._per_socket
        if self._num_sockets > 1 and state & 0x3 == 0:
            # remote probe: uniform over all other threads
            victim = (state >> 2) % (nthreads - 1)
            if victim >= thread:
                victim += 1
            return victim
        base = thread - (thread % per_socket)
        if per_socket <= 1:
            victim = (state >> 2) % (nthreads - 1)
            return victim + 1 if victim >= thread else victim
        local = base + (state >> 2) % (per_socket - 1)
        if local >= thread:
            local += 1
        return local

    def _touch(self, thread: int, addr: int, atype, spin: bool = False) -> int:
        """Charge one deque/flag access to ``thread``.

        Returns the latency when the access resolved on the epoch fast
        path (a private hit), else 0.
        """
        if not self.model_traffic:
            self._cores[thread].advance(4)
            return 0
        # Deque words and spin flags are overwhelmingly private hits, so
        # take the epoch fast path (identical statistical effects) when the
        # tracer doesn't need per-access events; atomics always fall
        # through (try_fast_access declines RMWs).
        if self._fast_touch and not self._tracer.enabled:
            latency = self._try_fast(self._core_of[thread], addr, 8, atype)
            if latency is not None:
                cm = self._cores[thread]
                if atype is _LOAD:
                    cm.load(latency, spin=spin)
                else:
                    cm.store(latency)
                return latency
        self._machine.access(thread, addr, 8, atype, spin=spin)
        return 0

    # ------------------------------------------------------------------
    def push(self, thread: int, strand) -> None:
        """Owner pushes a ready strand at the bottom of its own deque.

        Sleeping idle workers are caught up first: from this step on their
        spins would see the new strand.
        """
        engine = self._engine
        if engine.sleepers:
            engine.wake_sleepers()
        strand.ready_clock = self._cores[thread].clock
        self.deques[thread].append(strand)
        self.total_ready += 1
        self._touch(thread, self.bottom_addr[thread], _STORE)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def has_work_for(self, worker) -> bool:
        # Idle workers always spin (busy-wait runtime); termination is
        # signalled through ``finished``.
        return not self.finished

    def on_idle(self, worker) -> bool:
        """One idle step: pop, steal or spin.

        Returns True when the step was a spin that left the worker
        quiescent — every further spin until the next :meth:`push` is then
        identical, and the engine may fast-forward them with
        :meth:`catch_up`.
        """
        thread = worker.thread
        core = self._cores[thread]

        # 1. Own deque: pop the newest task (bottom).
        bottom_latency = self._touch(thread, self.bottom_addr[thread], _LOAD)
        own = self.deques[thread]
        if own:
            strand = own.pop()
            self.total_ready -= 1
            self._touch(thread, self.bottom_addr[thread], _STORE)
            self._assign(worker, strand)
            return False

        # 2. Steal attempt: probe one random victim (standard work stealing
        #    probes a single victim per attempt, then backs off briefly).
        if self.total_ready > 0 and len(self.deques) > 1:
            victim = self._next_victim(thread)
            core.stats.steal_attempts += 1
            self._touch(thread, self.top_addr[victim], _LOAD)
            vdeque = self.deques[victim]
            tracer = self._tracer
            if vdeque:
                self._touch(thread, self.top_addr[victim], _RMW)
                strand = vdeque.popleft()
                self.total_ready -= 1
                core.stats.successful_steals += 1
                if tracer.enabled:
                    tracer.steal(core.clock, thread, victim, True)
                self._assign(worker, strand)
                return False
            if tracer.enabled:
                tracer.steal(core.clock, thread, victim, False)
            core.advance(BACKOFF_MIN)  # brief pause before the next probe
            return False

        # 3. Nothing to do (total_ready == 0): spin on a local flag with
        #    exponential backoff.
        flag_latency = self._touch(
            thread, self.flag_addr[thread], _LOAD, spin=True
        )
        backoff = self._backoff
        core.advance(backoff[thread])
        backoff[thread] = nxt = min(backoff[thread] * 2, BACKOFF_MAX)
        l1_latency = self._l1_latency
        if (
            nxt == BACKOFF_MAX
            and bottom_latency == l1_latency
            and flag_latency == l1_latency
            and self._may_sleep
        ):
            # Both spin words were L1 hits, so both blocks stay valid in
            # this L1: only this thread ever touches them.
            self._spin_ward[thread] = self._ward_blocks(thread)
            return True
        return False

    def _ward_blocks(self, thread: int) -> int:
        """How many of ``thread``'s two spin blocks sit in a WARD state."""
        protocol = self._machine.protocol
        l1 = protocol.l1[self._core_of[thread]]
        ward_states = protocol._ward_states
        return sum(
            l1.peek(addr).state in ward_states
            for addr in (self.bottom_addr[thread], self.flag_addr[thread])
        )

    def catch_up(self, thread: int, clock: int, key_thread: int) -> None:
        """Retire, in closed form, a quiescent worker's pending spins.

        The worker retires exactly the spins the per-op engine would pop
        before the step keyed ``(clock, key_thread)``: the heap orders the
        spin starting at ``c`` first iff ``c < clock``, or ``c == clock``
        and ``thread < key_thread``.  Each spin adds what :meth:`on_idle`
        would: two L1-hit loads (one a spin load) and ``_spin_cycles``.
        """
        core = self._cores[thread]
        lag = clock - core.clock
        period = self._spin_cycles
        if thread < key_thread:
            if lag < 0:
                return
            spins = lag // period + 1
        else:
            if lag <= 0:
                return
            spins = -(-lag // period)
        core.clock += spins * period
        cstats = core.stats
        cstats.loads += 2 * spins
        cstats.spin_loads += spins
        protocol = self._machine.protocol
        protocol.l1[self._core_of[thread]].hits += 2 * spins
        pstats = protocol.stats
        pstats.total_accesses += 2 * spins
        pstats.ward_accesses += self._spin_ward[thread] * spins

    # ------------------------------------------------------------------
    def _assign(self, worker, strand) -> None:
        core = self._cores[worker.thread]
        if strand.ready_clock > core.clock:
            # Causality: a strand cannot run before it was made ready.
            core.clock = strand.ready_clock
        self._backoff[worker.thread] = BACKOFF_MIN
        worker.strand = strand
