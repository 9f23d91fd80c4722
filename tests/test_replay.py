"""Record/replay subsystem tests (repro.replay).

The load-bearing property is *bit-identity*: for the recorded (benchmark,
protocol, config, seed, policy) tuple, the vectorized replay kernel must
produce exactly the ``RunStats`` the interpreted engine produces — pinned
here against the same golden digest corpus that guards the engine itself,
for every benchmark x protocol cell, on both the numpy and the pure-Python
preprocessing paths.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.conformance import stats_digest
from repro.analysis.pool import RunTask, replay_matrix, task_fingerprint
from repro.analysis.run import replay_benchmark, run_benchmark
from repro.analysis import run as run_mod
from repro.bench import PAPER_ORDER
from repro.cli import main
from repro.common.config import dual_socket, single_socket
from repro.common.errors import ConfigError
from repro.hlpl.scheduler import BACKOFF_MAX
from repro.replay import (
    Trace,
    TraceStore,
    record_benchmark,
    replay_trace,
)
from repro.replay.kernel import ReplayKernel
from repro.replay.trace import K_FLUSH, K_SPIN, TRACE_MAGIC, TRACE_SCHEMA

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "stats_digests.json"
)

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

CELLS = sorted(GOLDEN["entries"])


def _record(name, protocol, **kwargs):
    return record_benchmark(
        name, protocol, dual_socket(), size=GOLDEN["size"],
        seed=GOLDEN["seed"], **kwargs,
    )


# ----------------------------------------------------------------------
# Golden replay identity: every cell, both preprocessing paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", CELLS)
def test_replay_matches_golden_digest(cell, monkeypatch):
    name, protocol = cell.split("/")
    expected = GOLDEN["entries"][cell]["digest"]
    trace, recorded = _record(name, protocol)
    # the recording run itself is an unperturbed engine run
    assert stats_digest(recorded.stats) == expected

    replayed = replay_trace(trace)
    assert stats_digest(replayed.stats) == expected, (
        f"replay kernel diverges from the engine on {cell}"
    )

    monkeypatch.setenv("REPRO_NUMPY", "0")
    fallback = replay_trace(trace)
    assert stats_digest(fallback.stats) == expected, (
        f"pure-Python replay path diverges on {cell}"
    )


# ----------------------------------------------------------------------
# Closed-form idle spins (K_SPIN) and the epoch-batched recorder
# ----------------------------------------------------------------------
def _spins(trace):
    return sum(1 for kind in trace.kind if kind == K_SPIN)


@pytest.mark.parametrize("name", ["msort", "primes", "synth-ring"])
@pytest.mark.parametrize("protocol", ["mesi", "warden", "moesi", "sisd"])
def test_per_op_recording_is_the_closed_form_reference(
    name, protocol, monkeypatch
):
    """A per-op recording spells every idle spin out as two accesses; the
    default recording folds a sleeper's spins into one K_SPIN per wake.
    Both replay to the same RunStats."""
    batched, recorded = _record(name, protocol)
    monkeypatch.setenv("REPRO_EPOCH_BATCH", "0")
    per_op, per_op_recorded = _record(name, protocol)
    assert _spins(batched) > 0
    assert _spins(per_op) == 0
    assert len(per_op) > len(batched)
    assert per_op_recorded.stats.to_dict() == recorded.stats.to_dict()
    for trace in (batched, per_op):
        assert replay_trace(trace).stats.to_dict() == recorded.stats.to_dict()


@pytest.mark.parametrize(
    "name", ["msort", "primes", "synth-ring", "synth-falseshare"]
)
@pytest.mark.parametrize("protocol", ["mesi", "warden", "moesi", "sisd"])
def test_smt_record_replay_identity(name, protocol):
    """Under SMT a protocol core hosts two threads (and nobody sleeps):
    fast-path hits must be attributed to the issuing thread."""
    config = dual_socket().replace(threads_per_core=2)
    trace, recorded = record_benchmark(name, protocol, config, size="test")
    reference = run_benchmark(
        name, protocol, config, size="test", use_cache=False,
        use_disk_cache=False,
    )
    assert recorded.stats.to_dict() == reference.stats.to_dict()
    assert replay_trace(trace).stats.to_dict() == reference.stats.to_dict()


def test_spin_event_applies_closed_form():
    """One K_SPIN of n spins: n * (2 * l1 + BACKOFF_MAX) cycles, 2n L1-hit
    loads (n of them spin loads), ward * n WARD accesses."""
    source, _ = _record("fib", "warden")
    trace = Trace(meta=dict(source.meta, steals=[], final_thread=3))
    trace.append(K_SPIN, 3, 0, 0, 2, 0, 7, 11, 5)  # ward=2, n=7
    trace.append(K_FLUSH, 3, 0, 0, 0, 0, 0, 0, 13)
    stats = replay_trace(trace).stats
    l1 = dual_socket().l1.latency
    assert stats.cycles == 11 + 5 + 7 * (2 * l1 + BACKOFF_MAX) + 13
    assert stats.cores.loads == 14
    assert stats.cores.spin_loads == 7
    assert stats.cores.compute_instrs == 11
    assert stats.cores.load_stall_cycles == 0
    coh = stats.coherence
    assert coh.total_accesses == coh.l1_accesses == 14
    assert coh.ward_accesses == 14
    assert coh.l2_accesses == coh.l3_accesses == 0


def _with_schema(blob: bytes, schema: int) -> bytes:
    """Rewrite a serialized trace's header to claim another schema."""
    off = len(TRACE_MAGIC)
    length = int.from_bytes(blob[off:off + 8], "little")
    header = json.loads(blob[off + 8:off + 8 + length])
    header["schema"] = schema
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        TRACE_MAGIC + len(text).to_bytes(8, "little") + text
        + blob[off + 8 + length:]
    )


def test_schema_1_traces_are_refused(tmp_path):
    """Schema-1 traces spell idle spins out per-op and know no K_SPIN:
    the store misses on them and ``replay --trace`` exits 2."""
    assert TRACE_SCHEMA == 2
    fp = "d" * 64
    trace, _ = _record("fib", "mesi", fingerprint=fp)
    old = _with_schema(trace.to_bytes(), 1)
    with pytest.raises(ValueError, match="schema 1"):
        Trace.from_bytes(old)
    store = TraceStore(tmp_path)
    store.root.mkdir(parents=True, exist_ok=True)
    store.path_for(fp).write_bytes(old)
    assert store.load(fp) is None
    path = tmp_path / "old.wtrace"
    path.write_bytes(old)
    assert main(["replay", "--trace", str(path)]) == 2
    path.write_bytes(_with_schema(old, TRACE_SCHEMA))
    assert main(["replay", "--trace", str(path)]) == 0


def test_replay_full_stats_equality():
    """Digest equality is the sweep; one cell also diffs the raw dicts so a
    digest-scheme bug cannot mask a real divergence."""
    trace, recorded = _record("tokens", "warden")
    replayed = replay_trace(trace)
    assert replayed.stats.to_dict() == recorded.stats.to_dict()
    assert replayed.result == recorded.result


# ----------------------------------------------------------------------
# Trace round-trip + store hygiene
# ----------------------------------------------------------------------
def test_trace_serialization_round_trip():
    trace, recorded = _record("msort", "mesi")
    clone = Trace.from_bytes(trace.to_bytes())
    assert len(clone) == len(trace)
    assert clone.meta == trace.meta
    replayed = replay_trace(clone)
    assert replayed.stats.to_dict() == recorded.stats.to_dict()
    assert replayed.result == recorded.result


def test_trace_store_round_trip(tmp_path):
    store = TraceStore(tmp_path)
    fp = "a" * 64
    trace, _ = _record("fib", "mesi", fingerprint=fp)
    path = store.store(fp, trace)
    assert path is not None and path.exists()
    loaded = store.load(fp)
    assert loaded is not None
    assert len(loaded) == len(trace)


def test_trace_store_rejects_corrupt_and_stale(tmp_path):
    store = TraceStore(tmp_path)
    fp = "b" * 64
    trace, _ = _record("fib", "mesi", fingerprint=fp)
    assert store.store(fp, trace) is not None

    # stale: embedded fingerprint differs from the requested key
    assert store.load("c" * 64) is None

    # stale: recorded by "different code"
    trace.meta["code_fingerprint"] = "not-the-current-code"
    assert store.store(fp, trace) is not None
    assert store.load(fp) is None

    # corrupt: load misses AND quarantines the file
    path = store.path_for(fp)
    path.write_bytes(b"garbage, not a trace")
    assert store.load(fp) is None
    assert not path.exists()


# ----------------------------------------------------------------------
# Integration: replay_benchmark / replay_matrix
# ----------------------------------------------------------------------
def test_replay_benchmark_records_then_replays(tmp_path):
    store = TraceStore(tmp_path)
    config = dual_socket()
    kwargs = dict(size="test", trace_store=store)
    first = replay_benchmark("grep", "mesi", config, **kwargs)   # records
    second = replay_benchmark("grep", "mesi", config, **kwargs)  # replays
    reference = run_benchmark(
        "grep", "mesi", config, size="test", use_cache=False,
        use_disk_cache=False,
    )
    assert first.stats.to_dict() == reference.stats.to_dict()
    assert second.stats.to_dict() == reference.stats.to_dict()
    assert second.result == reference.result
    # exactly one trace was recorded and reused
    assert len(list(store.root.glob("*.wtrace"))) == 1


def test_replay_benchmark_never_touches_result_caches(tmp_path):
    run_mod.clear_cache()
    before = dict(run_mod._CACHE)
    replay_benchmark(
        "fib", "mesi", dual_socket(), size="test",
        trace_store=TraceStore(tmp_path),
    )
    assert run_mod._CACHE == before, (
        "replay results must never enter the exact-result cache"
    )


def test_replay_env_escape_hatch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REPLAY", "0")
    store = TraceStore(tmp_path)
    result = replay_benchmark(
        "fib", "mesi", dual_socket(), size="test", trace_store=store,
    )
    reference = run_benchmark(
        "fib", "mesi", dual_socket(), size="test", use_cache=False,
        use_disk_cache=False,
    )
    assert result.stats.to_dict() == reference.stats.to_dict()
    # the interpreted path must not have written any trace
    assert list(store.root.glob("*.wtrace")) == []


def test_replay_matrix_sweeps_variants(tmp_path):
    config = dual_socket()
    base = RunTask(
        benchmark="tokens", protocol="mesi", config=config, size="test",
    )
    shrunk = dataclasses.replace(
        config,
        name="quarter-llc",
        l3=dataclasses.replace(config.l3, size_bytes=config.l3.size_bytes // 4),
    )
    store = TraceStore(tmp_path)
    results = replay_matrix(base, [config, shrunk], trace_store=store)
    reference = run_benchmark(
        "tokens", "mesi", config, size="test", use_cache=False,
        use_disk_cache=False,
    )
    # identity variant is bit-identical; the shrunk LLC is a trace-driven
    # approximation that can only see more (or equal) DRAM traffic
    assert results[0].stats.to_dict() == reference.stats.to_dict()
    assert (
        results[1].stats.coherence.dram_accesses
        >= results[0].stats.coherence.dram_accesses
    )
    assert results[1].machine == "quarter-llc"
    # one recording serves the whole sweep
    assert len(list(store.root.glob("*.wtrace"))) == 1


def test_replay_rejects_machine_with_fewer_threads(tmp_path):
    trace, _ = record_benchmark("primes", "mesi", dual_socket(), size="test")
    with pytest.raises(ConfigError, match="24-thread.*12 hardware threads"):
        ReplayKernel(trace, single_socket())
    path = tmp_path / "primes.wtrace"
    path.write_bytes(trace.to_bytes())
    assert main(["replay", "--trace", str(path), "--machine", "single"]) == 2
    # the recorded machine (the default) and a same-size preset still run
    assert main(["replay", "--trace", str(path)]) == 0
    assert main(["replay", "--trace", str(path), "--machine", "dual"]) == 0


def test_recorded_trace_fingerprint_matches_task_key(tmp_path):
    config = dual_socket()
    task = RunTask(
        benchmark="fib", protocol="mesi", config=config, size="test", seed=42,
    )
    key = task_fingerprint(task)
    store = TraceStore(tmp_path)
    replay_benchmark("fib", "mesi", config, size="test", trace_store=store)
    assert store.path_for(key).exists()
