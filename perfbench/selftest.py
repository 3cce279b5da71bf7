"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Smoke runs give the worker tiny job counts (`--min-jobs 5`,
`--trace-jobs 5`), not the benchmark's run length.  The file is named so
that the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_SUFFIXES = (".calls", ".gates", ".pairs", ".triples", ".max_den_bits", "evals_per_solve",
                  "evals_per_triple")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, *worker_args: str) -> tuple[dict, dict]:
    return run.measure(workload, 7, 0, trace, worker_args)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_and_repeats(workload):
    first_meta, first = result(workload, 0, "--min-jobs", "5")
    assert first["correct"] and first["failed"] == 0 and first_meta["failed_share"] == 0
    assert set(first["metrics"]) == set(run.END_TO_END_UNITS)
    assert set(first_meta["unscaled"]) == set(run.END_TO_END_UNITS) - {"peak_rss_mb"}
    for name, metric in first["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name
    second_meta, _ = result(workload, 0, "--min-jobs", "5")
    assert second_meta["outputs_sha256"] == first_meta["outputs_sha256"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    meta, first = result(workload, 1, "--trace-jobs", "5")
    _, second = result(workload, 1, "--trace-jobs", "5")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(tracing.PER_LAYER)
    values = {name: m["value"] for name, m in first["metrics"].items()}
    for name in values:
        if name.endswith(EXACT_SUFFIXES):
            assert values[name] == second["metrics"][name]["value"], name
    if workload in ("converse-synthesis", "power-analyze"):
        assert values["circuit.evaluate.calls"] == 0
    if workload == "converse-synthesis":
        assert values["converse.synthesize.calls"] == 5
        assert values["converse.geodesic_closure.calls"] == 2 * values["converse.synthesize.calls"]
    if workload == "hardness-certify":
        assert values["circuit.evaluate.calls"] > 0 and values["reduce.triples"] == 5 * 24


def test_failed_jobs_are_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["cli-oneshot"](7, tmp_path)
    calls = []

    def check(job, out):
        calls.append(job)
        if len(calls) % 3 == 0:
            raise CheckFailed("forced failure")
        return "ok\n"

    monkeypatch.setattr(workload, "check", check)
    out = worker.closed_loop(workload, workload.prepare(0), 0, 2 * len(workload.STRATA))
    out["versions"] = {}
    meta, res = run.report("cli-oneshot", 7, 0, 0, [(0.1, run.PROBE_NOMINAL_S)], out)
    assert res["correct"] is False
    assert res["failed"] == len(calls) // 3 and res["attempted"] == len(calls)
    assert meta["failed_share"] == res["failed"] / res["attempted"] > 0
    assert capsys.readouterr().err.count("cli-oneshot: failure ") == worker.MAX_TRACEBACKS


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-oneshot", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
