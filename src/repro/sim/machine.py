"""The simulated machine: cores + coherence protocol + address space."""

from __future__ import annotations

from typing import List, Optional, Union

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.common.stats import RunStats
from repro.common.types import AccessType
from repro.coherence.registry import protocol_class, protocol_map
from repro.obs.tracer import Tracer
from repro.sim.core import CoreModel

#: Base of the simulated physical address space handed out by sbrk.
ADDRESS_SPACE_BASE = 0x1_0000


class Machine:
    """Cores, caches, directory, and a bump allocator for simulated memory."""

    def __init__(
        self,
        config: MachineConfig,
        protocol: Union[str, type] = "mesi",
    ) -> None:
        self.config = config
        if isinstance(protocol, str):
            try:
                protocol_cls = protocol_class(protocol)
            except KeyError:
                raise ConfigError(
                    f"unknown protocol {protocol!r}; "
                    f"choose from {sorted(protocol_map())}"
                ) from None
        else:
            protocol_cls = protocol
        self.run_stats = RunStats(
            protocol=protocol_cls.name,
            machine=config.name,
            num_threads=config.num_threads,
        )
        #: shared event bus; disabled (one attribute check per hot-path
        #: site) until a sink is installed via ``machine.tracer.install``
        self.tracer = Tracer()
        self.protocol = protocol_cls(
            config, self.run_stats.coherence, tracer=self.tracer
        )
        self.cores: List[CoreModel] = [
            CoreModel(config, t, tracer=self.tracer)
            for t in range(config.num_threads)
        ]
        #: thread -> physical core, precomputed for the access hot path
        self._core_of: tuple = tuple(
            config.core_of_thread(t) for t in range(config.num_threads)
        )
        self._brk = ADDRESS_SPACE_BASE

    # ------------------------------------------------------------------
    # Address space
    # ------------------------------------------------------------------
    def sbrk(self, nbytes: int, align: Optional[int] = None) -> int:
        """Allocate ``nbytes`` of simulated memory; returns the base address."""
        if nbytes <= 0:
            raise ValueError("sbrk needs a positive size")
        align = align or self.config.block_size
        self._brk = (self._brk + align - 1) // align * align
        base = self._brk
        self._brk += nbytes
        return base

    # ------------------------------------------------------------------
    # Memory accesses (charged to the issuing hardware thread)
    # ------------------------------------------------------------------
    def access(
        self,
        thread: int,
        addr: int,
        size: int,
        atype: AccessType,
        spin: bool = False,
    ) -> int:
        cm = self.cores[thread]
        tracer = self.tracer
        if tracer.enabled:
            # Stamp the emission context so protocol-internal events carry
            # the issuing thread's clock without any plumbing of their own.
            start = cm.clock
            tracer.cycle = start
            tracer.thread = thread
        latency = self.protocol.access(self._core_of[thread], addr, size, atype)
        if atype is AccessType.LOAD:
            cm.load(latency, spin=spin)
        elif atype is AccessType.STORE:
            cm.store(latency)
        else:
            cm.rmw(latency)
        if tracer.enabled:
            tracer.access(start, thread, atype.value, addr, size, latency)
        return latency

    def compute(self, thread: int, instrs: int) -> None:
        self.cores[thread].compute(instrs)

    def place(self, addr: int, size: int, thread: int) -> None:
        """NUMA first-touch: home the pages of ``[addr, addr+size)`` on the
        allocating thread's socket."""
        socket = self.config.socket_of_thread(thread)
        self.protocol.set_page_home(addr, size, socket)

    def llc_warm_fill(self, addr: int, thread: int = 0) -> None:
        """Warm one block into its home LLC slice without a simulated access.

        Used by input loaders: the data was just written by (unmeasured)
        input I/O, so the kernel starts LLC-warm.  ``thread`` carries no
        timing effect; it identifies the issuing thread for recorders."""
        self.protocol._llc_fill(addr)

    # ------------------------------------------------------------------
    # WARD region interface (the Add/Remove Region instructions of §6.1)
    # ------------------------------------------------------------------
    @property
    def supports_ward(self) -> bool:
        return self.protocol.supports_ward

    def add_ward_region(self, thread: int, start: int, end: int):
        """Execute an Add-Region instruction on ``thread``; returns a region
        handle (None when unsupported or the region CAM is full)."""
        if not self.protocol.supports_ward:
            return None
        self.cores[thread].compute(1)  # the new instruction itself
        self._stamp_tracer(thread)
        return self.protocol.add_region(start, end)

    def remove_ward_region(self, thread: int, region) -> None:
        """Execute a Remove-Region instruction; reconciliation happens at the
        directory and is overlapped with execution (§6.1), so only the
        instruction cost lands on the issuing thread."""
        if region is None or not self.protocol.supports_ward:
            return
        self.cores[thread].compute(1)
        self._stamp_tracer(thread)
        self.protocol.remove_region(region)

    def _stamp_tracer(self, thread: int) -> None:
        """Refresh the tracer's emission context to ``thread``'s clock."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.cycle = self.cores[thread].clock
            tracer.thread = thread

    # ------------------------------------------------------------------
    def finalize(self, makespan: Optional[int] = None) -> RunStats:
        """Aggregate per-thread counters into the RunStats and return it."""
        stats = self.run_stats
        stats.cores = type(stats.cores)()
        for cm in self.cores:
            stats.cores.merge(cm.stats)
        stats.coherence.l1_accesses = sum(
            c.hits + c.misses for c in self.protocol.l1
        )
        stats.coherence.l2_accesses = sum(
            c.hits + c.misses for c in self.protocol.l2
        )
        if makespan is None:
            makespan = max((cm.clock for cm in self.cores), default=0)
        stats.cycles = makespan
        return stats
