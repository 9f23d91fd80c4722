"""Tests of the benchmark itself, at the smallest input size.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _result(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    result = _result(
        capsys, "--workload", workload, "--seed", "42", "--seconds", "0",
        "--trace", str(trace), "--size", "test",
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_doctored_expected_digest_raises_fail_ratio():
    import workloads

    expected = copy.deepcopy(workloads.load_expected())
    column = expected["digests"]["test"]["synth-ring/moesi"]
    index = expected["seeds"].index(42)
    column[index] = "0" * len(column[index])
    report = run.run("synth-engine", 42, 0, trace=True, size="test", expected=expected)
    result = report["result"]
    assert result["correct"] is False
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert list(report["failures"]) == ["synth-ring/moesi@42"]


@pytest.mark.parametrize("workload", ["paper-engine", "verify-all"])
def test_traced_and_untraced_digests_match(workload):
    import workloads
    from spans import NullLog, SpanLog

    wl = workloads.WORKLOADS[workload]("test")
    state = wl.setup(7)
    plain = wl.run_pass(state, NullLog())
    log = SpanLog()
    with wl.tracing(log):
        traced = wl.run_pass(state, log)

    def digests(p):
        return {k: workloads.short_digest(s) for c in p.cells for k, s in c.runs}

    assert digests(traced) == digests(plain)
    names = {s[1] for s in log.spans}
    assert {"cell", "hlpl_sim.run", "bench.workload", "energy.compute"} <= names
    assert any(g[3] for g in log.groups if g[0] == "coherence.fast")


def test_refuses_code_path_override(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EPOCH_BATCH", "0")
    assert run.main(["--workload", "synth-engine", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
