"""Differential conformance harness tests (repro.analysis.conformance).

Unit layer exercises the value-level oracle replay and the stats-invariant
checks (via doctored stats); the integration layer runs the full harness
on real benchmarks and round-trips the report through its JSON form.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis import conformance
from repro.analysis.conformance import (
    ConformanceReport,
    ConformanceResult,
    replay_region_oracle,
    run_verify,
    stats_digest,
    verify_benchmark,
)
from repro.verify.race import RegionLog
from tests.conftest import tiny_config


def _log(entries, *, region_id=3, start=0, end=256, truncated=False):
    return RegionLog(
        region_id=region_id, start=start, end=end,
        entries=list(entries), truncated=truncated,
    )


class TestOracleReplay:
    def test_compliant_log_is_clean(self):
        # Disjoint writers plus each task reading only its own writes.
        log = _log([
            ("STORE", 1, 0x40), ("LOAD", 1, 0x40),
            ("STORE", 2, 0x48), ("RMW", 2, 0x48),
        ])
        assert replay_region_oracle(log, random.Random(1), frozenset()) == []

    def test_cross_task_raw_is_observable_incoherence(self):
        log = _log([("STORE", 1, 0x40), ("LOAD", 2, 0x40)])
        failures = replay_region_oracle(log, random.Random(1), frozenset())
        assert len(failures) == 1
        assert "observable incoherence" in failures[0]
        assert "0x40" in failures[0]

    def test_waw_outside_benign_set_is_order_dependent(self):
        log = _log([("STORE", 1, 0x40), ("STORE", 2, 0x40)])
        failures = replay_region_oracle(log, random.Random(1), frozenset())
        assert failures and "reconciliation order" in failures[0]

    def test_benign_waw_addresses_are_exempt(self):
        log = _log([
            ("STORE", 1, 0x40), ("STORE", 2, 0x40),
            ("LOAD", 2, 0x40),  # sees its own write; SC may differ
        ])
        assert replay_region_oracle(log, random.Random(1), frozenset({0x40})) == []

    def test_truncated_log_is_skipped_with_notice(self):
        log = _log([("STORE", 1, 0x40)], truncated=True)
        (message,) = replay_region_oracle(log, random.Random(1), frozenset())
        assert "truncated" in message and "skipped" in message


# ----------------------------------------------------------------------
# Stats-invariant checks against doctored runs
# ----------------------------------------------------------------------

def _fake_stats(compute=100, adds=0, removes=0, ward_accesses=0,
                inv=0, dg=0, coverage=0.0):
    return SimpleNamespace(
        cycles=10,
        instructions=100,
        cores=SimpleNamespace(compute_instrs=compute),
        coherence=SimpleNamespace(
            invalidations=inv,
            downgrades=dg,
            ward_accesses=ward_accesses,
            ward_region_adds=adds,
            ward_region_removes=removes,
            ward_coverage=coverage,
        ),
    )


def _install_fake_runs(monkeypatch, mesi_run, warden_run):
    def fake_run_benchmark(name, protocol, config, **kwargs):
        return mesi_run if protocol == "mesi" else warden_run

    monkeypatch.setattr(conformance, "run_benchmark", fake_run_benchmark)


class TestInvariantChecks:
    def test_doctored_runs_trip_every_invariant(self, monkeypatch):
        mesi = SimpleNamespace(
            result=[1], stats=_fake_stats(compute=100, ward_accesses=5, inv=0)
        )
        warden = SimpleNamespace(
            result=[2],
            stats=_fake_stats(
                compute=150, adds=2, removes=4, inv=500, coverage=1.5
            ),
        )
        _install_fake_runs(monkeypatch, mesi, warden)
        out = verify_benchmark("fib", tiny_config(), check_oracle=False)
        assert not out.passed
        text = "\n".join(out.failures)
        assert "different results" in text
        assert "compute-instruction identity broken" in text
        assert "removes (4) exceed adds (2)" in text
        assert "mesi reported nonzero ward_accesses" in text
        assert "coverage 1.5 outside [0, 1]" in text
        assert "exceed MESI" in text

    def test_consistent_fakes_pass(self, monkeypatch):
        mesi = SimpleNamespace(result=[1], stats=_fake_stats(compute=100))
        warden = SimpleNamespace(
            result=[1], stats=_fake_stats(compute=104, adds=2, removes=2,
                                          ward_accesses=9, coverage=0.5)
        )
        _install_fake_runs(monkeypatch, mesi, warden)
        out = verify_benchmark("fib", tiny_config(), check_oracle=False)
        assert out.passed, out.failures


# ----------------------------------------------------------------------
# Full harness on real benchmarks
# ----------------------------------------------------------------------

class TestRunVerify:
    def test_fib_and_primes_conform(self):
        report = run_verify(["fib", "primes"], tiny_config(), size="test")
        assert report.passed
        by_name = {r.benchmark: r for r in report.results}
        assert by_name["fib"].races == 0
        primes = by_name["primes"]
        assert primes.races == 0
        assert primes.benign_waws > 0  # the sieve's apathetic stores
        assert primes.oracle_regions > 0
        assert primes.detector["checked_accesses"] > 0
        assert set(primes.stats) == {"mesi", "warden"}

    def test_any_registered_pair_verifies(self):
        # The harness is baseline/candidate-generic: every registered
        # protocol conforms against MESI, and non-MESI baselines work too.
        from repro.coherence.registry import available_protocols

        for candidate in available_protocols():
            report = run_verify(
                ["fib"], tiny_config(), size="test", protocol=candidate,
                check_oracle=False,
            )
            assert report.passed, (candidate, report.results[0].failures)
            (result,) = report.results
            assert result.baseline == "mesi"
            assert set(result.stats) == {"mesi", candidate}
        report = run_verify(
            ["fib"], tiny_config(), size="test",
            protocol="sisd", baseline="warden", check_oracle=False,
        )
        assert report.passed, report.results[0].failures
        assert set(report.results[0].stats) == {"warden", "sisd"}

    def test_report_round_trips_through_json_dict(self):
        report = run_verify(["fib"], tiny_config(), size="test")
        data = report.to_dict()
        assert data["schema"] == "warden-repro/verify/v1"
        assert data["passed"] is True
        back = ConformanceReport.from_dict(data)
        assert back.to_dict() == data

    def test_failed_result_survives_round_trip(self):
        result = ConformanceResult(
            benchmark="x", size="test", machine="m", seed=1, protocol="warden"
        )
        result.fail("boom")
        report = ConformanceReport(size="test", machine="m", seed=1,
                                   results=[result])
        assert not report.passed
        back = ConformanceReport.from_dict(report.to_dict())
        assert not back.passed
        assert back.results[0].failures == ["boom"]


class TestStatsDigest:
    def test_digest_is_deterministic_and_discriminating(self):
        from repro.analysis.run import run_benchmark

        a = run_benchmark("fib", "warden", tiny_config(), size="test")
        b = run_benchmark("fib", "warden", tiny_config(), size="test")
        c = run_benchmark("fib", "mesi", tiny_config(), size="test")
        assert stats_digest(a.stats) == stats_digest(b.stats)
        assert stats_digest(a.stats) != stats_digest(c.stats)
        assert len(stats_digest(a.stats)) == 64


# ----------------------------------------------------------------------
# The hooked candidate run serves every leg
# ----------------------------------------------------------------------

def _verify_cells():
    from repro.bench import PAPER_ORDER
    from repro.coherence.registry import available_protocols
    from repro.workloads import workload_names

    return [
        (name, proto)
        for name in list(PAPER_ORDER) + workload_names()
        for proto in available_protocols()
    ]


@pytest.mark.parametrize("name,protocol", _verify_cells())
def test_hooks_observe_and_never_steer(name, protocol):
    # verify reads leg 1 off the hooked run, so the race detector and the
    # WARD checker must leave every counter and the result untouched.
    from repro.analysis.run import run_benchmark
    from repro.coherence.registry import protocol_class
    from repro.common.config import dual_socket
    from repro.verify.race import RaceDetector

    config = dual_socket()
    plain = run_benchmark(name, protocol, config, size="test",
                          use_cache=False)
    hooked = run_benchmark(
        name, protocol, config, size="test", use_cache=False,
        check_ward=protocol_class(protocol).supports_ward,
        race_detector=RaceDetector(
            benchmark=name, raise_on_race=False, record_regions=True
        ),
    )
    assert stats_digest(hooked.stats) == stats_digest(plain.stats)
    assert hooked.result == plain.result


@pytest.fixture
def sim_count(monkeypatch):
    """Count engine simulations (``Runtime.run`` calls) from a cold cache."""
    from repro.analysis import run as run_mod
    from repro.hlpl.runtime import Runtime

    calls = []
    real = Runtime.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Runtime, "run", counting_run)
    previous = run_mod.set_disk_cache(None)
    run_mod.clear_cache()
    yield calls
    run_mod.clear_cache()
    run_mod.set_disk_cache(previous)


class TestSingleCandidateRun:
    def test_cold_verify_simulates_each_protocol_once(self, sim_count):
        out = verify_benchmark("primes", tiny_config(), size="test")
        assert out.passed, out.failures
        assert len(sim_count) == 2

    def test_cached_baseline_leaves_one_simulation(self, sim_count):
        from repro.analysis.run import run_benchmark

        run_benchmark("primes", "mesi", tiny_config(), size="test")
        sim_count.clear()
        out = verify_benchmark("primes", tiny_config(), size="test")
        assert out.passed, out.failures
        assert len(sim_count) == 1
        assert out.oracle_regions > 0  # the detector leg still ran

    def test_hooked_run_is_cached_as_the_plain_run(self, sim_count):
        from repro.analysis.run import run_benchmark

        verify_benchmark("primes", tiny_config(), size="test")
        sim_count.clear()
        cached = run_benchmark("primes", "warden", tiny_config(), size="test")
        assert sim_count == []
        assert not cached.ward_checked
        fresh = run_benchmark("primes", "warden", tiny_config(), size="test",
                              use_cache=False)
        assert stats_digest(cached.stats) == stats_digest(fresh.stats)
        assert cached.result == fresh.result

    def test_hooked_run_reaches_the_disk_cache(self, sim_count, tmp_path):
        from repro.analysis.pool import DiskCache
        from repro.analysis.run import clear_cache, run_benchmark, set_disk_cache

        set_disk_cache(DiskCache(tmp_path))
        verify_benchmark("fib", tiny_config(), size="test")
        clear_cache()
        sim_count.clear()
        hit = run_benchmark("fib", "warden", tiny_config(), size="test")
        assert sim_count == []
        assert not hit.ward_checked

    def test_violation_falls_back_to_a_plain_candidate_run(self, monkeypatch):
        from repro.common.errors import WardViolationError

        mesi = SimpleNamespace(result=[1], stats=_fake_stats(compute=100))
        warden = SimpleNamespace(
            result=[1], stats=_fake_stats(compute=104, adds=2, removes=2,
                                          ward_accesses=9, coverage=0.5)
        )
        calls = []

        def fake_run_benchmark(name, protocol, config, **kwargs):
            calls.append((protocol, kwargs.get("race_detector") is not None))
            if protocol == "mesi":
                return mesi
            if kwargs.get("race_detector") is not None:
                raise WardViolationError(0x40, writer=1, reader=2)
            return warden

        monkeypatch.setattr(conformance, "run_benchmark", fake_run_benchmark)
        out = verify_benchmark("fib", tiny_config(), check_oracle=False)
        assert calls == [("mesi", False), ("warden", True), ("warden", False)]
        assert out.failures == [str(WardViolationError(0x40, 1, 2))]
        assert out.stats["warden"]["compute_instrs"] == 104
        assert out.stats["warden"]["ward_accesses"] == 9

    def test_pool_prefetches_baseline_runs_only(self, monkeypatch):
        captured = []
        monkeypatch.setattr(
            conformance, "prefetch",
            lambda tasks, **kwargs: captured.extend(tasks),
        )
        report = run_verify(["fib", "primes"], tiny_config(), size="test",
                            jobs=2, check_oracle=False)
        assert report.passed
        assert [(t.benchmark, t.protocol) for t in captured] == [
            ("fib", "mesi"), ("primes", "mesi"),
        ]
