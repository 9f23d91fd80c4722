"""Sleeping idle workers: the closed-form spin catch-up.

A quiescent idle worker leaves the engine's min-clock heap and later
retires its pending spins in one :meth:`WorkStealingScheduler.catch_up`
call (see "Sleeping idle workers" in ``repro/sim/engine.py``).  These tests
hold the closed form to the real :meth:`on_idle` called once per spin, and
check that a run in which no worker ever gets work ends in a deadlock
error instead of spinning forever.
"""

import random

import pytest

from repro.common.errors import SimulationError
from repro.hlpl.runtime import Runtime
from repro.hlpl.scheduler import BACKOFF_MAX
from repro.sim.engine import Strand
from repro.sim.machine import Machine
from tests.conftest import tiny_config

SPIN_THREAD = 2  # tiny_config has threads 0..3: keys tie on both sides


@pytest.fixture(autouse=True)
def _epoch_mode(monkeypatch):
    monkeypatch.setenv("REPRO_EPOCH_BATCH", "1")


def _settled(protocol: str, config=None):
    """A standalone runtime whose SPIN_THREAD worker has gone quiescent."""
    rt = Runtime(Machine(config or tiny_config(), protocol))
    worker = rt.engine.workers[SPIN_THREAD]
    for _ in range(32):
        if rt.scheduler.on_idle(worker):
            return rt, worker
    raise AssertionError("idle worker never became quiescent")


def _fingerprint(rt):
    machine = rt.machine
    core = machine.cores[SPIN_THREAD]
    l1 = machine.protocol.l1[machine._core_of[SPIN_THREAD]]
    stats = machine.protocol.stats
    return (
        core.clock,
        core.stats.to_dict(),
        l1.hits,
        l1.misses,
        [list(cset) for _, cset in sorted(l1._sets.items())],
        stats.total_accesses,
        stats.ward_accesses,
    )


def _keys(period: int, base: int, seed: int):
    """Random wake keys around ``base``, with exact spin-start ties."""
    rng = random.Random(seed)
    keys = []
    for j in range(-1, 6):
        for key_thread in (0, 1, 3):
            keys.append((base + j * period, key_thread))  # tie on a spin
    for _ in range(40):
        keys.append((base + rng.randrange(-period, 7 * period),
                     rng.choice((0, 1, 3))))
    return keys


@pytest.mark.parametrize(
    "seed,protocol", enumerate(["mesi", "warden", "moesi", "sisd"])
)
def test_catch_up_matches_repeated_on_idle(seed, protocol):
    rt, _ = _settled(protocol)
    period = rt.scheduler._spin_cycles
    assert period == 2 * rt.machine.config.l1.latency + BACKOFF_MAX
    base = rt.machine.cores[SPIN_THREAD].clock
    for key in _keys(period, base, seed=seed):
        key_clock, key_thread = key
        closed, _ = _settled(protocol)
        closed.scheduler.catch_up(SPIN_THREAD, key_clock, key_thread)

        stepped, worker = _settled(protocol)
        core = stepped.machine.cores[SPIN_THREAD]
        # the heap pops this worker's next spin first iff its key is smaller
        while (core.clock, SPIN_THREAD) < key:
            assert stepped.scheduler.on_idle(worker)
        assert _fingerprint(closed) == _fingerprint(stepped), key


def test_catch_up_counts_ties_by_thread_id():
    rt, _ = _settled("mesi")
    sched = rt.scheduler
    core = rt.machine.cores[SPIN_THREAD]
    start = core.clock
    sched.catch_up(SPIN_THREAD, start, 3)  # higher thread: our spin first
    assert core.clock == start + sched._spin_cycles
    sched.catch_up(SPIN_THREAD, core.clock, 1)  # lower thread: it goes first
    assert core.clock == start + sched._spin_cycles
    sched.catch_up(SPIN_THREAD, start, 3)  # key already behind: no-op
    assert core.clock == start + sched._spin_cycles


def test_spins_before_quiescence_are_not_skippable():
    rt = Runtime(Machine(tiny_config(), "mesi"))
    worker = rt.engine.workers[SPIN_THREAD]
    quiet = [rt.scheduler.on_idle(worker) for _ in range(5)]
    # spin 1 misses cold; the backoff used by the next spin ramps
    # 128 -> 256 -> 512, and only a capped next spin is skippable
    assert quiet == [False, False, True, True, True]


@pytest.mark.parametrize(
    "setup",
    ["smt", "model_traffic_off", "per_op"],
)
def test_sleeping_disabled(setup, monkeypatch):
    config = tiny_config()
    if setup == "smt":
        config = config.replace(threads_per_core=2)
    if setup == "per_op":
        monkeypatch.setenv("REPRO_EPOCH_BATCH", "0")
    rt = Runtime(Machine(config, "mesi"))
    if setup == "model_traffic_off":
        rt.scheduler.model_traffic = False
    worker = rt.engine.workers[SPIN_THREAD]
    assert not any(rt.scheduler.on_idle(worker) for _ in range(32))


def test_push_wakes_sleepers():
    rt = Runtime(Machine(tiny_config(), "mesi"))
    engine = rt.engine
    sleeper = engine.workers[SPIN_THREAD]
    while not rt.scheduler.on_idle(sleeper):
        pass
    engine.sleepers.append(sleeper)
    engine.current_worker = engine.workers[0]
    engine.step_clock = rt.machine.cores[SPIN_THREAD].clock + 5000
    before = rt.machine.cores[SPIN_THREAD].stats.spin_loads

    rt.scheduler.push(0, Strand(iter(())))
    assert engine.sleepers == []
    assert rt.machine.cores[SPIN_THREAD].stats.spin_loads > before
    assert engine._heap == [(rt.machine.cores[SPIN_THREAD].clock, SPIN_THREAD)]


def test_workers_without_work_deadlock_instead_of_spinning():
    rt = Runtime(Machine(tiny_config(), "mesi"))
    with pytest.raises(SimulationError, match="^deadlock"):
        rt.engine.run()  # no root strand was ever pushed
    assert len(rt.engine.sleepers) == rt.machine.config.num_threads
