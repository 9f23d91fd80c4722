#!/usr/bin/env python
"""CI gate: the recorder must not perturb the run, and the vectorized
replay kernel must be bit-identical to it.

Records one cell (primes/warden at the small input on the dual-socket
machine by default) on the epoch-batched engine, replays the trace through
the packed replay kernel — after a serialization round-trip, so the
on-disk format is on the hook too — and diffs the full
``RunStats.to_dict()`` (cycles, per-core counters, and the coherence
message matrix) twice: replay against the recording, and the recording
against an uncached ``run_benchmark`` of the same cell.  Any mismatch
prints the differing keys and exits non-zero.  On success it prints the
trace's event count and how many of those are ``K_SPIN`` events (a
sleeping idle worker's closed-form spins).

The broader matrix (every benchmark x protocol at the "test" size, both
the numpy and the pure-Python preprocessing paths) lives in
tests/test_replay.py; this script is the cheap standalone smoke for the
replay-bit-identity CI job.

Usage: PYTHONPATH=src python scripts/check_replay_identity.py
       [benchmark] [protocol] [size]
"""

from __future__ import annotations

import sys


def diff_dicts(left: dict, right: dict, names=("replayed", "reference"),
               prefix: str = "") -> list:
    diffs = []
    for key in sorted(set(left) | set(right)):
        path = f"{prefix}{key}"
        a = left.get(key)
        b = right.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            diffs.extend(diff_dicts(a, b, names, path + "."))
        elif a != b:
            diffs.append(f"  {path}: {names[0]}={a!r} {names[1]}={b!r}")
    return diffs


def main(argv) -> int:
    name = argv[1] if len(argv) > 1 else "primes"
    protocol = argv[2] if len(argv) > 2 else "warden"
    size = argv[3] if len(argv) > 3 else "small"

    from repro.analysis.run import run_benchmark
    from repro.common.config import dual_socket
    from repro.replay import Trace, record_benchmark, replay_trace
    from repro.replay.trace import K_SPIN

    config = dual_socket()
    trace, recorded = record_benchmark(name, protocol, config, size=size)
    replayed = replay_trace(Trace.from_bytes(trace.to_bytes()))
    engine = run_benchmark(
        name, protocol, config, size=size, use_cache=False,
        use_disk_cache=False,
    )

    cell = f"{name}/{protocol}/{size}"
    failed = False
    for what, left, right, names in (
        ("replay diverges from the recording", replayed, recorded,
         ("replayed", "recorded")),
        ("the recording diverges from an uncached run", recorded, engine,
         ("recorded", "engine")),
    ):
        diffs = diff_dicts(left.stats.to_dict(), right.stats.to_dict(), names)
        if left.result != right.result:
            diffs.append("  benchmark result values differ")
        if diffs:
            print(f"FAIL: {cell}: {what}:")
            print("\n".join(diffs))
            failed = True
    if failed:
        return 1
    spins = sum(1 for kind in trace.kind if kind == K_SPIN)
    print(f"ok: {cell} replay == recording == uncached engine run "
          f"({len(trace)} events, {spins} K_SPIN, "
          f"{replayed.stats.instructions} instructions, "
          f"{replayed.stats.cycles} cycles)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
