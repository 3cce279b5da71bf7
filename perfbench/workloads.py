"""The four seeded workloads of the contraction-kit benchmark.

Each workload turns (seed, job index) into one job's inputs, runs the job
through the library's public functions or `cli.main`, and checks the job's
output.  Only `run` is timed; `prepare` (input generation and file writing)
and `check` are the benchmark's own work.

Inputs are generated here, never taken from the test corpora, so editing a
test cannot change the benchmark.  Job i of a seed always gets the same
inputs.  Sizes are drawn by stratified schedules: every block of jobs holds
each size of the workload's mix exactly once, in a seeded order, so every
seed sees the same size mix and the median and the 90th percentile fall
inside a size stratum rather than on a boundary between two.  Job 0, which
is prepared during set-up, always gets the first stratum, so set-up time
does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from contraction_kit import cli, cls, converse, gridsearch, power, reduce
from contraction_kit.circuit import build_power_circuit
from contraction_kit.library import (
    affine_contraction_circuit,
    l1_distance_circuit,
    l1_potential_circuit,
    sq_l2_distance_circuit,
)

GRID = 16  # inputs live on the 1/16 grid of the unit cube
SCALES = (F(1, 2), F(5, 8), F(3, 4), F(7, 8))  # contraction factors s of the affine maps
POTENTIAL_SCALES = (F(1, 4), F(1, 3))


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def job_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


def stratum(seed: int, i: int, strata: tuple):
    """The stratum of job i: each block of len(strata) jobs holds every entry once.

    Job 0 gets strata[0]; the rest of the first block is shuffled.
    """
    block, pos = divmod(i, len(strata))
    order = list(strata[1:] if block == 0 else strata)
    random.Random(f"{seed}:block:{block}").shuffle(order)
    if block == 0:
        order.insert(0, strata[0])
    return order[pos]


def grid_value(rng: random.Random) -> F:
    return F(rng.randint(0, GRID), GRID)


def grid_point(rng: random.Random) -> tuple[F, F, F]:
    return (grid_value(rng), grid_value(rng), grid_value(rng))


def distinct_points(rng: random.Random, count: int) -> list[tuple[F, F, F]]:
    points: list[tuple[F, F, F]] = []
    while len(points) < count:
        pt = grid_point(rng)
        if pt not in points:
            points.append(pt)
    return points


def far_corner(t) -> tuple[F, F, F]:
    """The cube corner farthest from t: at least 1/2 away in every coordinate."""
    return tuple(F(0) if c >= F(1, 2) else F(1) for c in t)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and stdout plus stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# --------------------------------------------------------------------------
# 1. hardness-certify


class HardnessCertify:
    """Hardness round trip plus constructed-metric certification.

    Nearly all of the time is `Circuit.evaluate` on the 100-140-gate
    interpolated-metric circuits.  The target's first coordinate stays in
    [0, 1/8]: the grid solver scans x1 first, so a target deeper in the cube
    would make the job's cost a function of the scan position alone, and
    the slowest strata would spread so widely that the 90th percentile of a
    run would depend on the seed.
    """

    name = "hardness-certify"
    # (eps, 16 * target x1): eps sets the circuit size, x1 the grid solver's scan length
    STRATA = tuple((eps, x1) for eps in (F(1, 16), F(1, 8), F(1, 4), F(1, 2)) for x1 in range(3))
    TRIPLES = 24
    TRACE_JOBS = 40

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, i: int):
        rng = job_rng(self.seed, i)
        eps, x1 = stratum(self.seed, i, self.STRATA)
        t = (F(x1, GRID), grid_value(rng), grid_value(rng))
        s = rng.choice(SCALES)
        inst = cls.CLSLocalInstance(
            affine_contraction_circuit(s, t),
            l1_potential_circuit(t, rng.choice(POTENTIAL_SCALES)),
            eps,
            rng.choice((F(1), F(2))),
        )
        triples = [[grid_point(rng) for _ in range(3)] for _ in range(self.TRIPLES)]
        return inst, triples

    def run(self, job):
        inst, triples = job
        artifacts = reduce.reduce_cls_local_to_banach(inst, half_eps=True)
        sol = gridsearch.solve_instance(artifacts.produced)
        mapped = reduce.map_banach_solution_to_cls_local(inst, artifacts, sol)
        verdict = cls.verify(inst, mapped)
        cert = reduce.certify_constructed_metric(artifacts, triples)
        return artifacts, sol, mapped, verdict, cert

    def check(self, job, out) -> str:
        artifacts, sol, mapped, verdict, cert = out
        c_prime = artifacts.substitutions["c_prime"]
        require(verdict.accepted, f"back-mapped {mapped.kind} rejected: {verdict.reason}")
        require(cert.all_pass, "constructed metric certification failed")
        require(
            cert.min_offdiag is not None and cert.min_offdiag >= c_prime,
            f"min off-diagonal distance {cert.min_offdiag} below c' = {c_prime}",
        )
        return (
            artifacts.provenance_text() + sol.to_text() + mapped.to_text()
            + f"{verdict.clause}: {verdict.reason}\n" + cert.report_text()
        )


# --------------------------------------------------------------------------
# 2. converse-synthesis


def random_selfmap(rng: random.Random, n: int) -> converse.FiniteSelfMap:
    """Distinct quarter-integer points in [0,3]^3, l1 base metric, random functional tree."""
    points: set[tuple[F, ...]] = set()
    while len(points) < n:
        points.add(tuple(F(rng.randint(0, 12), 4) for _ in range(3)))
    coords = sorted(points)
    dist = [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    fixed = rng.randrange(n)
    fmap = [0] * n
    fmap[fixed] = fixed
    assigned = [fixed]
    order = [i for i in range(n) if i != fixed]
    rng.shuffle(order)
    for idx in order:
        fmap[idx] = rng.choice(assigned)
        assigned.append(idx)
    return converse.FiniteSelfMap([f"p{i}" for i in range(n)], coords, dist, fmap, fixed)


class ConverseSynthesis:
    """`synthesize` plus `report_text`: O(n^3) Fraction matrix work, no circuits.

    Three in five jobs have n = 16, so the median is a small instance; one in
    five has n = 40, so the 90th percentile is a large one.  c is stratified
    with n because its denominator sets the size of every entry of d_c.
    """

    name = "converse-synthesis"
    STRATA = tuple((n, c) for n in (16, 16, 16, 24, 40) for c in (F(1, 4), F(1, 2), F(9, 10)))
    TRACE_JOBS = 45

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, i: int):
        rng = job_rng(self.seed, i)
        n, c = stratum(self.seed, i, self.STRATA)
        return random_selfmap(rng, n), c, rng.choice((F(1, 8), F(1, 2)))

    def run(self, job):
        result = converse.synthesize(*job)
        return result, result.report_text()

    def check(self, job, out) -> str:
        result, text = out
        require(result.certified, "synthesized metric is not certified")
        require("[FAIL]" not in text, "report lists a failed certificate entry")
        return text


# --------------------------------------------------------------------------
# 3. power-analyze


def gapped_symmetric_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1].copy()
    lam[0] = lam[1] * rng.uniform(1.5, 3.0)
    a = (q * lam) @ q.T
    return (a + a.T) / 2


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


@dataclass
class PowerJob:
    threads: int
    candidates: list


class PowerAnalyze:
    """`power analyze` through the CLI, then an mpmath replay of the worst pair.

    The replay reuses the eigensystem the CLI call computed (captured from
    `power.jacobi_eigensolve`), so a job pays for one Jacobi solve.  Among
    the job's own candidate pairs the one with the largest float ratio is
    replayed at 128 bits and must still respect the certified rate.
    """

    name = "power-analyze"
    # (matrix dimension, --jobs): the median falls mid-way through the 32s,
    # the 90th percentile mid-way through the 64s.  The thread count is part
    # of the stratum, so every seed gives each dimension half of each.
    STRATA = tuple(zip((16,) * 6 + (32,) * 10 + (64,) * 4, itertools.cycle((1, 2))))
    PAIRS = 300
    CANDIDATES = 8
    MATRIX = "matrix.txt"
    TRACE_JOBS = 40

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.system = None
        solve = power.jacobi_eigensolve

        def capture(a):
            self.system = solve(a)
            return self.system

        power.jacobi_eigensolve = capture

    def prepare(self, i: int) -> PowerJob:
        rng = np.random.default_rng([self.seed, i])
        n, threads = stratum(self.seed, i, self.STRATA)
        matrix = gapped_symmetric_matrix(rng, n)
        (self.workdir / self.MATRIX).write_text(power.format_matrix(matrix), encoding="utf-8")
        candidates = [(unit_vector(rng, n), unit_vector(rng, n)) for _ in range(self.CANDIDATES)]
        os.environ["CONTRACTION_KIT_SEED"] = str(rng.integers(0, 2**31))
        return PowerJob(threads, candidates)

    def run(self, job: PowerJob):
        self.system = None
        code, text = call_cli([
            "--jobs", str(job.threads), "power", self.MATRIX, "analyze", "--pairs", str(self.PAIRS),
        ])
        sys_ = self.system
        cert = power.certify_contraction_rate(sys_, job.candidates)
        worst = max(cert.pairs, key=lambda p: p.ratio or 0.0).index
        before, after = power.replay_pair_mp(sys_, *job.candidates[worst])
        return code, text, sys_.rate, worst, before, after

    def check(self, job: PowerJob, out) -> str:
        code, text, rate, worst, before, after = out
        require(code == 0, f"power analyze exited {code}")
        require("violations 0" in text, "power analyze reported violations")
        require(before > 0 and after / before <= rate + power.RATE_SLACK,
                f"replayed ratio {after / before!r} exceeds rate {rate!r}")
        return text + f"replay pair {worst} {before!r} {after!r}\n"


# --------------------------------------------------------------------------
# 4. cli-oneshot


def _cls_local(rng, t, s=None, ps=None, eps=None, lam=None) -> cls.CLSLocalInstance:
    return cls.CLSLocalInstance(
        affine_contraction_circuit(s or rng.choice(SCALES), t),
        l1_potential_circuit(t, ps or rng.choice(POTENTIAL_SCALES)),
        eps or rng.choice((F(1, 4), F(1, 2))),
        lam or rng.choice((F(1), F(2))),
    )


def _banach(rng, t, d=None, eps=None, lam=None, c=None, promised=False) -> cls.BanachInstance:
    return cls.BanachInstance(
        affine_contraction_circuit(rng.choice(SCALES), t),
        d or l1_distance_circuit(),
        eps or rng.choice((F(1, 4), F(1, 2))),
        lam or rng.choice((F(1), F(2))),
        c or F(9, 10),
        metric_promised=promised,
    )


def _contraction(rng, t, eps=None, lam=None, c=None) -> cls.ContractionMapInstance:
    return cls.ContractionMapInstance(
        affine_contraction_circuit(rng.choice(SCALES), t),
        eps or rng.choice((F(1, 4), F(1, 2))),
        lam or rng.choice((F(1), F(2))),
        c or F(9, 10),
    )


def _step(t) -> tuple[F, F, F]:
    """A grid neighbour of t along the first axis."""
    return (t[0] + F(1, GRID) if t[0] < 1 else t[0] - F(1, GRID), t[1], t[2])


def _verify_case(rng, tag: str, kind: str, accept: bool):
    """(instance, witnesses, expected exit code); the verdict follows from the construction.

    With the affine map f(x) = t + s(x - t), s in [1/2, 7/8], the l1 metric
    and the l1 potential p = ps * |x - t|_1:
      Oa/CO1 hold at x = t and fail at the far corner for eps = 1/16;
      Ob holds iff c < s; Oc/CO2 hold iff lambda < s; CO3 holds iff lambda < ps;
      Od holds for lambda < 1 on collinear points and fails for lambda = 1
      (triangle inequality); Oe holds for the squared l2 "metric" on three
      collinear points and fails for l1.
    """
    t = grid_point(rng)
    x, y = distinct_points(rng, 2)
    promised = tag == "banach-met"
    if tag == "cls-local":
        if kind == "CO1":
            inst = _cls_local(rng, t) if accept else _cls_local(rng, t, F(1, 2), F(1, 3), F(1, 16))
            return inst, [t if accept else far_corner(t)], 0 if accept else 1
        if kind == "CO2":
            return _cls_local(rng, t, lam=F(1, 4) if accept else F(1)), [x, y], 0 if accept else 1
        if accept:
            return _cls_local(rng, t, lam=F(1, 8)), [t, _step(t)], 0
        return _cls_local(rng, t, lam=F(1)), [x, y], 1
    if tag == "contraction-map":
        if kind == "Oa":
            return _contraction(rng, t, eps=F(1, 16)), [t if accept else far_corner(t)], 0 if accept else 1
        if kind == "Ob":
            return _contraction(rng, t, c=F(1, 4) if accept else F(9, 10)), [x, y], 0 if accept else 1
        return _contraction(rng, t, lam=F(1, 4) if accept else F(1)), [x, y], 0 if accept else 1
    if tag == "constructed":
        # banach instance built by the hardness reduction: a 100+-gate metric circuit
        src = _cls_local(rng, t, ps=F(1, 4), eps=F(1, 16))
        inst = reduce.reduce_cls_local_to_banach(src).produced
        return inst, [t if accept else far_corner(t)], 0 if accept else 1
    if kind == "Oa":
        inst = _banach(rng, t, eps=F(1, 16), promised=promised)
        return inst, [t if accept else far_corner(t)], 0 if accept else 1
    if kind == "Ob":
        return _banach(rng, t, c=F(1, 4) if accept else F(9, 10), promised=promised), [x, y], 0 if accept else 1
    if kind == "Oc":
        return _banach(rng, t, lam=F(1, 4) if accept else F(1), promised=promised), [x, y], 0 if accept else 1
    if kind == "Od":
        if accept:
            a = (F(rng.randint(0, GRID // 2), GRID), grid_value(rng), grid_value(rng))
            x2 = (a[0] + F(1, 2), a[1], a[2])
            y2 = (a[0] + F(1, 4), a[1], a[2])
            return _banach(rng, t, lam=F(1, 2), promised=promised), [a, x2, a, y2], 0
        u, v = distinct_points(rng, 2)
        return _banach(rng, t, lam=F(1), promised=promised), [x, y, u, v], 1
    # Oe
    if promised:
        return _banach(rng, t, promised=True), [x], 2
    if accept:
        a = (F(rng.randint(0, GRID // 2), GRID), grid_value(rng), grid_value(rng))
        step = F(rng.randint(1, GRID // 4), GRID)
        witnesses = [a, (a[0] + 2 * step, a[1], a[2]), (a[0] + step, a[1], a[2])]
        return _banach(rng, t, d=sq_l2_distance_circuit()), witnesses, 0
    return _banach(rng, t), distinct_points(rng, rng.randint(1, 3)), 1


VERIFY_CASES = (
    [("cls-local", k, a) for k in ("CO1", "CO2", "CO3") for a in (True, False)]
    + [("banach", k, a) for k in ("Oa", "Ob", "Oc", "Od", "Oe") for a in (True, False)]
    + [("banach-met", "Oa", True), ("banach-met", "Ob", False), ("banach-met", "Oc", True),
       ("banach-met", "Od", True), ("banach-met", "Oe", False)]
    + [("contraction-map", k, a) for k in ("Oa", "Ob", "Oc") for a in (True, False)]
    + [("constructed", "Oa", True), ("constructed", "Oa", False)]
)
OTHER_CASES = (
    ("reduce", "cls-local-to-banach", False),
    ("reduce", "cls-local-to-banach", True),
    ("reduce", "banach-to-cls-local", False),
    ("eval", "l1", False),
    ("eval", "power", False),
    ("eval", "affine", False),
)
CLI_CASES = tuple(VERIFY_CASES) + OTHER_CASES


@dataclass
class CliJob:
    case: tuple
    argv: list
    expected_code: int
    expected_text: str  # a whole line the output must contain


class CliOneshot:
    """One in-process `cli.main` call per job on files written just before it.

    The mix repeats every len(CLI_CASES) jobs: verify on every tag and every
    kind, accepting and rejecting, reduce in both directions, and eval.  Each
    circuit is parsed and then evaluated only a handful of times.
    """

    name = "cli-oneshot"
    STRATA = CLI_CASES
    TRACE_JOBS = 10 * len(CLI_CASES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _write(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text, encoding="utf-8")
        return name

    def prepare(self, i: int) -> CliJob:
        rng = job_rng(self.seed, i)
        case = stratum(self.seed, i, self.STRATA)
        command, kind, flag = case
        if command == "reduce":
            t = grid_point(rng)
            if kind == "cls-local-to-banach":
                src = _cls_local(rng, t)
            else:
                src = _banach(rng, t, c=rng.choice((F(1, 2), F(3, 4), F(9, 10))))
            argv = ["reduce", "--direction", kind, self._write("src.txt", cls.instance_to_text(src)),
                    "target.txt"] + (["--half-eps"] if flag else [])
            direction = "cls-local->banach" if kind == "cls-local-to-banach" else "banach->cls-local"
            return CliJob(case, argv, 0, f"direction {direction}")
        if command == "eval":
            if kind == "l1":
                k = rng.choice((F(1), F(1, 2), F(3, 4)))
                x, y = grid_point(rng), grid_point(rng)
                circ, args = l1_distance_circuit(k), list(x) + list(y)
                expected = [k * sum(abs(a - b) for a, b in zip(x, y))]
            elif kind == "power":
                c, e = rng.choice((F(1, 2), F(9, 10), F(2, 3))), rng.randint(0, 64)
                circ, args, expected = build_power_circuit(c, 64), [F(e)], [c ** e]
            else:
                s, t, x = rng.choice(SCALES), grid_point(rng), grid_point(rng)
                circ, args = affine_contraction_circuit(s, t), list(x)
                expected = [tc + s * (xc - tc) for xc, tc in zip(x, t)]
            argv = ["eval", self._write("circuit.txt", circ.to_text())] + [str(a) for a in args]
            return CliJob(case, argv, 0, " ".join(str(v) for v in expected))
        inst, witnesses, code = _verify_case(rng, command, kind, flag)
        sol = cls.Solution(kind, tuple(witnesses))
        argv = ["verify", self._write("instance.txt", cls.instance_to_text(inst)),
                self._write("solution.txt", sol.to_text())]
        expected_text = {
            0: "verdict ACCEPT",
            1: "verdict REJECT",
            2: "error: promise problem: Oe is not accepted by banach-met",
        }[code]
        return CliJob(case, argv, code, expected_text)

    def run(self, job: CliJob):
        return call_cli(job.argv)

    @staticmethod
    def verify_mix(jobs: list[CliJob]) -> tuple[int, int]:
        """(accepting, all) verifier calls the jobs make: an Oe claim on banach-met exits first."""
        codes = [job.expected_code for job in jobs if job.case[0] not in ("reduce", "eval")]
        return codes.count(0), codes.count(0) + codes.count(1)

    def check(self, job: CliJob, out) -> str:
        code, text = out
        require(code == job.expected_code,
                f"{job.case}: exit {code}, expected {job.expected_code}: {text[-200:]!r}")
        require(job.expected_text in text.splitlines(),
                f"{job.case}: output lacks the line {job.expected_text!r}")
        return f"{' '.join(job.argv)}\n{code}\n{text}"


WORKLOADS = {w.name: w for w in (HardnessCertify, ConverseSynthesis, PowerAnalyze, CliOneshot)}
