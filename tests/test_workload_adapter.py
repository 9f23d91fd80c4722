"""Trace adapter and checksum contract (workload front end).

Pins the exact op stream one adapter thread body yields — in-block,
straddling, multi-block, block-aligned and size-0 accesses of every kind
at two block sizes — since no golden digest covers straddling accesses
and engine-vs-replay identity shares the adapter on both sides.  Also
pins the checksum's packing (blake2b-64 over little-endian uint64
words), its memo invalidation, and that a wrong combination of thread
results still fails the run's result check.
"""

import dataclasses
import struct
from hashlib import blake2b
from types import SimpleNamespace

import pytest

from repro.analysis.run import ResultMismatchError, run_benchmark
from repro.bench import BENCHMARKS
from repro.common.config import dual_socket
from repro.sim.ops import LoadOp, RmwOp, StoreOp
from repro.workloads import TRACE_ADDR_BASE, MemTrace, benchmark_from_trace
from repro.workloads.adapter import _thread_body
from repro.workloads.memtrace import K_LOAD, K_RMW, K_STORE

#: (kind, addr, size) rows of thread 0, one case per row
THREAD0 = [
    (K_LOAD, 0x40, 8),      # inside one block
    (K_STORE, 0x3C, 16),    # straddles a 64B boundary: 4 + 12
    (K_RMW, 0x10, 200),     # spans four 64B blocks: 48, 64, 64, 24
    (K_LOAD, 0x100, 64),    # exactly one aligned 64B block
    (K_STORE, 0x200, 0),    # size 0 replays as 1 byte
    (7, 0x208, 8),          # unknown kind code replays as RMW
]

EXPECTED = {
    64: [
        (LoadOp, 0x40, 8),
        (StoreOp, 0x3C, 4), (StoreOp, 0x40, 12),
        (RmwOp, 0x10, 48), (RmwOp, 0x40, 64), (RmwOp, 0x80, 64),
        (RmwOp, 0xC0, 24),
        (LoadOp, 0x100, 64),
        (StoreOp, 0x200, 1),
        (RmwOp, 0x208, 8),
    ],
    32: [
        (LoadOp, 0x40, 8),
        (StoreOp, 0x3C, 4), (StoreOp, 0x40, 12),
        (RmwOp, 0x10, 16), (RmwOp, 0x20, 32), (RmwOp, 0x40, 32),
        (RmwOp, 0x60, 32), (RmwOp, 0x80, 32), (RmwOp, 0xA0, 32),
        (RmwOp, 0xC0, 24),
        (LoadOp, 0x100, 32), (LoadOp, 0x120, 32),
        (StoreOp, 0x200, 1),
        (RmwOp, 0x208, 8),
    ],
}


def _trace():
    ops = [(0, kind, addr, size) for kind, addr, size in THREAD0]
    ops.insert(2, (1, K_STORE, 0x40, 8))  # a second thread, interleaved
    return MemTrace(ops)


def _drive(body, block_size):
    """Run one thread body to completion: (yielded ops, return value)."""
    config = SimpleNamespace(block_size=block_size)
    ctx = SimpleNamespace(rt=SimpleNamespace(machine=SimpleNamespace(config=config)))
    gen = body(ctx)
    ops = []
    try:
        while True:
            ops.append(next(gen))
    except StopIteration as stop:
        return ops, stop.value


@pytest.mark.parametrize("block_size", sorted(EXPECTED))
def test_thread_body_op_stream(block_size):
    trace = _trace()
    ops, value = _drive(_thread_body(trace, 0), block_size)
    got = [(type(op), op.addr - TRACE_ADDR_BASE, op.size) for op in ops]
    assert got == EXPECTED[block_size]
    assert all(op.heap is None for op in ops)
    assert value == trace.thread_checksum(0)


def _reference_hash(rows):
    words = [w & ((1 << 64) - 1) for row in rows for w in row]
    packed = struct.pack(f"<{len(words)}Q", *words)
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "little")


def test_checksum_is_blake2b_over_little_endian_words():
    rows = [(K_LOAD, 0x40, 8), (K_STORE, -8, 4), (K_RMW, (1 << 64) + 5, 1)]
    trace = MemTrace([(3, kind, addr, size) for kind, addr, size in rows])
    h = _reference_hash(rows)
    assert trace.thread_checksum(3) == h
    assert trace.checksum() == (4 * h) & ((1 << 64) - 1)
    assert trace.thread_checksum(9) == _reference_hash([])


def test_append_invalidates_the_checksum_memo():
    trace = _trace()
    before, thread0 = trace.checksum(), trace.thread_checksum(0)
    trace.append(0, K_LOAD, 0x80, 8)
    assert trace.thread_checksum(0) != thread0
    assert trace.checksum() != before
    assert trace.by_thread()[0][-1] == (K_LOAD, 0x80, 8)


def test_swapped_thread_results_fail_the_result_check(monkeypatch):
    """The reference shares the memoized thread hashes with the simulated
    bodies, yet a wrong combination of their results is still caught."""

    def swapped_root(ctx, trace):
        threads = trace.threads()
        results = yield from ctx.par(
            *[_thread_body(trace, thread) for thread in threads]
        )
        results = [results[1], results[0]] + list(results[2:])
        total = 0
        for thread, digest in zip(threads, results):
            total = (total + (thread + 1) * digest) & ((1 << 64) - 1)
        return total

    bench = dataclasses.replace(
        benchmark_from_trace(_trace(), "swapped-trace"), root_task=swapped_root
    )
    monkeypatch.setitem(BENCHMARKS, "swapped-trace", bench)
    with pytest.raises(ResultMismatchError):
        run_benchmark(
            "swapped-trace", "mesi", dual_socket(), size="test",
            use_cache=False, use_disk_cache=False,
        )
