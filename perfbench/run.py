"""Benchmark of contraction-kit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from src/.
Workloads (see perfbench/README.md): hardness-certify, converse-synthesis,
power-analyze, cli-oneshot.  Each run is a closed loop with one client in
its own process.  Set-up time is measured in SETUP_REPS extra processes that
only set up, plus the loop's own process, and reported as their median.

Every timing is reported in seconds at a fixed host speed: the worker probes
the host next to each measurement (worker.probe, a Fraction loop and a numpy
loop that call no library code), and a time t measured next to probe time p
is reported as t * PROBE_NOMINAL_S / p.  The shared host this benchmark runs
on drifts between speeds up to 1.7x apart within seconds, and the probe
drifts with it.  The plain wall times are in the metadata (`unscaled`).

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the span recorder.  The line before it holds the
run's metadata: code identity, machine, versions, seed, sample counts, the
output digest and the baseline numbers recorded in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PACKAGE = ROOT / "src" / "contraction_kit"

WORKLOADS = ("hardness-certify", "converse-synthesis", "power-analyze", "cli-oneshot")
SETUP_REPS = 6
DEADLINE_S = 170  # every run must end within 180 s
PROBE_NOMINAL_S = 0.0015  # about the median probe time on the baseline machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON output."""
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    # Fixed string hashing, so dict and set layouts are the same in every run.
    # One BLAS thread, so the only thread-level parallelism is the CLI's own
    # --jobs fan-out.
    env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def scaled(times: list[float], probes: list[float]) -> list[float]:
    return [t * PROBE_NOMINAL_S / p for t, p in zip(times, probes)]


def job_stats(times: list[float]) -> dict:
    return {
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[8],
        "jobs_per_s": len(times) / sum(times),
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            worker_args: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, then run the workload once; (metadata, result)."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup = [spawn(base + ["--setup-only"], deadline) for _ in range(SETUP_REPS)]
    run = spawn(base + ["--seconds", str(seconds), "--trace", str(trace), *worker_args], deadline)
    setup.append(run)
    return report(workload, seed, seconds, trace,
                  [(out["setup_s"], out["setup_probe_s"]) for out in setup], run)


def report(workload: str, seed: int, seconds: float, trace: int,
           setup: list[tuple[float, float]], run: dict) -> tuple[dict, dict]:
    """The metadata and the result object of one worker's output; `setup`
    holds each process's (set-up time, probe time)."""
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **source_identity(),
        "nproc": os.cpu_count(),
        **run["versions"],
        "samples": {"setup": len(setup)},
        "outputs_sha256": run["outputs_sha256"],
        "digest_jobs": run["digest_jobs"],
        "failed_share": run["failed"] / run["attempted"],
    }
    if trace:
        values, units = run["per_layer"], run["per_layer_units"]
        meta["samples"]["traced_jobs"] = run["traced_jobs"]
        meta["bases"] = run["bases"]
    else:
        if len(run["job_s"]) < 2:
            raise RuntimeError("fewer than two jobs succeeded")
        setup_s, setup_probe_s = zip(*setup)
        values = {"setup_s": statistics.median(scaled(setup_s, setup_probe_s)),
                  **job_stats(scaled(run["job_s"], run["job_probe_s"])),
                  "peak_rss_mb": run["peak_rss_mb"]}
        units = END_TO_END_UNITS
        meta["unscaled"] = {"setup_s": statistics.median(setup_s), **job_stats(run["job_s"])}
        meta["probe_s"] = {"setup_median": statistics.median(setup_probe_s),
                           "job_median": statistics.median(run["job_probe_s"]),
                           "nominal": PROBE_NOMINAL_S}
        meta["samples"]["jobs"] = len(run["job_s"])
        meta["wall_s"] = run["wall_s"]
    baseline_path = HERE / "baseline.json"
    if baseline_path.exists():
        meta["baseline"] = json.loads(baseline_path.read_text())["workloads"].get(workload)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return meta, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no contraction_kit sources under {PACKAGE}", file=sys.stderr)
        return 2
    try:
        meta, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
