"""One workload process of the benchmark; started by run.py, never by hand.

The process imports the library, builds the workload and prepares its first
job; the time from the parent's spawn timestamp (`--t0`, a CLOCK_MONOTONIC
reading, which is system-wide on Linux) to that point is its set-up time,
reported with one `probe` of the host taken right after it.  Then it runs
one of:

  --setup-only   nothing more;
  --trace 0      the closed loop: one job at a time until `--seconds` have
                 passed, at least MIN_JOBS jobs are done and the last block
                 of the size schedule is complete.  `probe` times the host
                 between consecutive jobs, and each job's time is reported
                 with the mean of the probes just before and just after it;
  --trace 1      the workload's first TRACE_JOBS jobs without spans, then
                 the same jobs again with the span recorder installed.

`--min-jobs` and `--trace-jobs` shrink those counts for the benchmark's own
tests.  It prints one JSON object on stdout, and the first MAX_TRACEBACKS
failures on stderr.  Input files live in a private directory under
.perfbench_work/, which is removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
MIN_JOBS = 100  # at least 10 jobs beyond the 90th percentile
MAX_TRACEBACKS = 3

PROBE_FRACTIONS = [F(i, 7 + i) for i in range(1, 40)]
PROBE_MATRIX = numpy.random.default_rng(5).normal(size=(64, 64)) / 8


def _fraction_kernel() -> None:
    total, cap = F(0), F(10**6)
    for x in PROBE_FRACTIONS:
        for y in PROBE_FRACTIONS[:12]:
            total = min(total + x * y, cap)


def _numpy_kernel() -> None:
    work = PROBE_MATRIX
    for _ in range(20):
        work = PROBE_MATRIX.T @ work @ PROBE_MATRIX
        work = work / numpy.abs(work).max()


def _best_of_two(kernel) -> float:
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """The host's current speed, in seconds: the geometric mean of the best
    of two timings of a Fraction loop and of a dense numpy matmul loop, with
    the garbage collector off.  Neither kernel calls the library, so no
    change to the library moves the probe; a slow phase of a shared host
    slows the probe and the jobs next to it alike."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return math.sqrt(_best_of_two(_fraction_kernel) * _best_of_two(_numpy_kernel))
    finally:
        if enabled:
            gc.enable()


class Loop:
    """Runs jobs, times `run` alone, and keeps failures and the output digest.

    With `probing`, the host is probed after every job (and once at the
    start), and each successful job's time comes with the mean of the probe
    before it and the probe after it.
    """

    def __init__(self, workload, digest_jobs: int, probing: bool = False):
        self.workload = workload
        self.digest_jobs = digest_jobs
        self.digest = hashlib.sha256()
        self.times: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.probing = probing
        self.last_probe = probe() if probing else None

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(f"{self.workload.name}: failure {self.failed}: {message}", file=sys.stderr)

    def job(self, i: int, job=None, recorder=None) -> None:
        self.attempted += 1
        try:
            if job is None:
                job = self.workload.prepare(i)
            if recorder is not None:
                recorder.begin_job(i)
            before = self.last_probe
            start = time.perf_counter()
            try:
                out = self.workload.run(job)
            finally:
                elapsed = time.perf_counter() - start
                if recorder is not None:
                    recorder.end_job()
                if self.probing:
                    self.last_probe = probe()
            text = self.workload.check(job, out)
        except Exception:
            self.fail(f"job {i}:\n{traceback.format_exc()}")
            text = "FAILED\n"
        else:
            self.times.append(elapsed)
            if self.probing:
                self.probes.append((before + self.last_probe) / 2)
        if i < self.digest_jobs:
            self.digest.update(f"job {i}\n{text}".encode())


def closed_loop(workload, first, seconds: float, min_jobs: int) -> dict:
    """Jobs until `seconds` have passed and `min_jobs` are done, ending on a
    whole block of the workload's strata so every run has the same size mix."""
    loop = Loop(workload, min_jobs, probing=True)
    block = len(workload.STRATA)
    begin = time.perf_counter()
    loop.job(0, first)
    i = 1
    while i < min_jobs or i % block or time.perf_counter() - begin < seconds:
        loop.job(i)
        i += 1
    result = {
        "job_s": loop.times,
        "job_probe_s": loop.probes,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wall_s": time.perf_counter() - begin,
        "outputs_sha256": loop.digest.hexdigest(),
        "digest_jobs": min_jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result


def traced_run(workload, first, jobs: int, trace_path: Path) -> dict:
    plain = Loop(workload, jobs)
    plain.job(0, first)
    for i in range(1, jobs):
        plain.job(i)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    traced = Loop(workload, jobs)
    prepared = []
    for i in range(jobs):
        job = workload.prepare(i)
        prepared.append(job)
        traced.job(i, job, recorder)
    per_layer, bases = tracing.layer_metrics(recorder.spans)
    untraced_s, traced_s = sum(plain.times), sum(traced.times)
    per_layer["trace.overhead"] = traced_s / untraced_s - 1
    bases["trace.overhead"] = {"untraced_s": untraced_s, "traced_s": traced_s}
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.fail("traced outputs differ from untraced outputs")
    if hasattr(workload, "verify_mix"):
        accepted, calls = workload.verify_mix(prepared)
        share = bases["cls.verify.accept_share"]
        if (share["accepted"], share["calls"]) != (accepted, calls):
            traced.fail(f"cls.verify accepted {share['accepted']} of {share['calls']} calls; "
                        f"the generated mix has {accepted} of {calls}")
    recorder.write(trace_path)
    return {
        "per_layer": per_layer,
        "per_layer_units": {name: unit for name, (unit, _better) in tracing.PER_LAYER.items()},
        "bases": bases,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "outputs_sha256": traced.digest.hexdigest(),
        "digest_jobs": jobs,
        "traced_jobs": jobs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-jobs", type=int, default=MIN_JOBS)
    parser.add_argument("--trace-jobs", type=int)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # the CLI sees bare file names, so reports do not depend on the path
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        first = workload.prepare(0)
        result = {"setup_s": time.monotonic() - args.t0, "setup_probe_s": probe()}
        if args.setup_only:
            pass
        elif args.trace:
            jobs = args.trace_jobs or workload.TRACE_JOBS
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            result.update(traced_run(workload, first, jobs, trace_path))
        else:
            result.update(closed_loop(workload, first, args.seconds, args.min_jobs))
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        }
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
