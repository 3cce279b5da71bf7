"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 5 checks that the global iteration budget of predict_iterations,
the least n with c^n*d0/(1-c) <= eps/2, is never below the steps a start
actually needs; any counterexamples are dumped to
tests/criterion5_counterexamples.csv.
"""

import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, sqrt as mp_sqrt

from corpus import banach_corpus, cls_local_corpus, selfmap_corpus
from contraction_kit.circuit import build_power_circuit
from contraction_kit.cls import verify
from contraction_kit.converse import synthesize
from contraction_kit.gridsearch import solve_instance
from contraction_kit.iteration import predict_iterations
from contraction_kit.power import (
    PAPER_PAIR_X,
    eigen_metric,
    iteration_bound,
    jacobi_eigensolve,
    lp_counterexample,
    paper_counterexample_system,
    power_step,
)
from contraction_kit.reduce import (
    certify_constructed_metric,
    map_banach_solution_to_cls_local,
    map_cls_local_solution_to_banach,
    reduce_banach_to_cls_local,
    reduce_cls_local_to_banach,
    smooth_interpolation,
)

C_VALUES = (F(1, 4), F(1, 2), F(9, 10))
EPS_VALUES = (F(1, 8), F(1, 2))
COUNTEREXAMPLE_FILE = Path(__file__).parent / "criterion5_counterexamples.csv"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# ------------------------------------------------------------ shared fixtures


@pytest.fixture(scope="module")
def corpus():
    return selfmap_corpus()


@pytest.fixture(scope="module")
def hardness_artifacts():
    artifacts = []
    for inst in cls_local_corpus():
        artifacts.append(reduce_cls_local_to_banach(inst, half_eps=True))
    return artifacts


def random_symmetric_system(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam2 = 0.5 + rng.random()
    gap = 0.1 + 0.5 * rng.random()
    rest = np.sort(rng.uniform(0.05, lam2, size=n - 1))[::-1]
    spectrum = np.concatenate([[lam2 + gap], rest])
    a = q @ np.diag(spectrum) @ q.T
    return jacobi_eigensolve((a + a.T) / 2)


# ------------------------------------------------------------ criterion 1


def test_criterion_1_power_contraction_rate():
    rng = np.random.default_rng(20240211)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 9))
        sys_ = random_symmetric_system(rng, n)
        bound = sys_.rate + 1e-9
        checked = 0
        while checked < 1000:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            if abs(x @ sys_.v1) < 1e-10 or abs(y @ sys_.v1) < 1e-10:
                continue
            before = eigen_metric(sys_, x, y)
            after = eigen_metric(sys_, power_step(sys_, x), power_step(sys_, y))
            if before > 0:
                ratio = after / before
                worst = max(worst, ratio - sys_.rate)
                if after > bound * before:
                    ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(1, ok, f"10 systems x 1000 pairs, worst ratio excess {worst:.2e}, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------ criterion 2


def test_criterion_2_l2_counterexample_reproduction():
    rep = lp_counterexample(2)
    mp.prec = 128
    x = [1 / mp_sqrt(5), 2 / mp_sqrt(5)]
    y = [1 / mp_sqrt(10), 3 / mp_sqrt(10)]
    fx = [1 / mp_sqrt(2), 1 / mp_sqrt(2)]
    fy = [2 / mp_sqrt(13), 3 / mp_sqrt(13)]
    before_hp = float(mp_sqrt((x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2))
    after_hp = float(mp_sqrt((fx[0] - fy[0]) ** 2 + (fx[1] - fy[1]) ** 2))
    ok = (
        rep.d_after >= 0.19
        and rep.d_after > rep.d_before
        and abs(rep.d_after - after_hp) <= 1e-3
        and abs(rep.d_before - before_hp) <= 1e-3
    )
    report(2, ok, f"|f(x)-f(y)|_2 = {rep.d_after:.4f} > |x-y|_2 = {rep.d_before:.4f}")
    assert ok


# ------------------------------------------------------------ criterion 3


def test_criterion_3_iteration_bound():
    sys_ = paper_counterexample_system()
    rep = iteration_bound(sys_, np.array(PAPER_PAIR_X), 0.25)
    ok = (
        rep.predicted == 3
        and abs(rep.final_distance - 0.25) <= 1e-12
        and rep.final_l2_error <= 0.25
    )
    report(3, ok, f"predicted t = {rep.predicted}, d(x_3, v1) = {rep.final_distance:.15f}, "
                  f"|x_3 - v1|_2 = {rep.final_l2_error:.6f}")
    assert ok


# ------------------------------------------------------------ criterion 4


def shortest_simple_path_oracle(weights):
    n = len(weights)

    def dfs(current, target, visited, length, cap):
        if cap is not None and length >= cap:
            return cap
        if current == target:
            return length
        for nxt in range(n):
            if nxt not in visited:
                visited.add(nxt)
                cap = dfs(nxt, target, visited, length + weights[current][nxt], cap)
                visited.remove(nxt)
        return cap

    return [
        [F(0) if i == j else dfs(i, j, {i}, F(0), None) for j in range(n)]
        for i in range(n)
    ]


def test_criterion_4_converse_synthesis_certificates(corpus):
    start = time.perf_counter()
    synth_count = 0
    oracle_count = 0
    for m in corpus:
        for c in C_VALUES:
            for eps in EPS_VALUES:
                s = synthesize(m, c, eps)  # raises on any certificate failure
                assert s.certified
                synth_count += 1
                if m.size <= 8:
                    assert s.d_c == shortest_simple_path_oracle(s.rho)
                    oracle_count += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(4, ok, f"{synth_count} syntheses certified (contraction + proximity transfer exhaustive), "
                  f"{oracle_count} geodesic matrices equal the path oracle, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------ criterion 5


def budget_cases(corpus):
    for m in corpus:
        fp = m.fixed_point
        for c in C_VALUES:
            for eps in EPS_VALUES:
                s = synthesize(m, c, eps / 2)
                for x0 in range(m.size):
                    orbit = m.orbit(x0)
                    realized = next(
                        t for t, idx in enumerate(orbit) if m.d(idx, fp) <= eps
                    )
                    d0 = s.d_c[x0][m.map[x0]]
                    yield m, c, eps, x0, realized, d0


def test_criterion_5_budget_validity(corpus):
    failures = []
    total = 0
    for m, c, eps, x0, realized, d0 in budget_cases(corpus):
        total += 1
        budget = predict_iterations(d0, c, eps).budget
        if realized > budget:
            failures.append((m.size, str(c), str(eps), x0, realized, budget, float(d0)))
    if failures:
        lines = ["points,c,eps,start_index,realized_steps,budget,d0"]
        lines += [",".join(str(v) for v in row) for row in failures]
        COUNTEREXAMPLE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok = not failures
    report(5, ok, f"global budget valid in {total - len(failures)}/{total} cases"
                  + ("" if ok else f"; counterexamples dumped to {COUNTEREXAMPLE_FILE.name}"))
    assert ok, (
        f"{len(failures)} budget violations: predict_iterations is below the realized "
        f"steps to eps, so it does not force c^n*d0/(1-c) below eps/2"
    )


# ------------------------------------------------------------ criterion 6


def test_criterion_6_reduction_round_trips(hardness_artifacts):
    start = time.perf_counter()
    accepted = 0
    total = 0
    for inst, art in zip(cls_local_corpus(), hardness_artifacts):
        total += 1
        sol = solve_instance(art.produced)
        assert sol is not None, "grid solver found no witness on the reduced instance"
        mapped = map_banach_solution_to_cls_local(inst, art, sol)
        if verify(inst, mapped):
            accepted += 1
    for inst in banach_corpus():
        total += 1
        art = reduce_banach_to_cls_local(inst)
        sol = solve_instance(art.produced)
        assert sol is not None, "grid solver found no witness on the reduced instance"
        mapped = map_cls_local_solution_to_banach(inst, sol)
        if verify(inst, mapped):
            accepted += 1
    elapsed = time.perf_counter() - start
    ok = accepted == total == 40 and elapsed < 60.0
    report(6, ok, f"{accepted}/{total} round trips ACCEPT, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------ criterion 7


def test_criterion_7_constructed_metric_properties(hardness_artifacts):
    import random

    rng = random.Random(20240211)
    all_ok = True
    checked = 0
    for art in hardness_artifacts:
        triples = [
            tuple(tuple(F(rng.randint(0, 16), 16) for _ in range(3)) for _ in range(3))
            for _ in range(200)
        ]
        rep = certify_constructed_metric(art, triples)
        checked += len(rep.case_verdicts)
        if not rep.all_pass or rep.min_offdiag < art.substitutions["c_prime"]:
            all_ok = False
    report(7, all_ok, f"{len(hardness_artifacts)} constructed metrics, "
                      f"{checked} triples: axioms + d >= c' hold")
    assert all_ok


# ------------------------------------------------------------ criterion 8


def naive_power(c: F, e: int) -> F:
    out = F(1)
    for _ in range(e):
        out *= c
    return out


def test_criterion_8_power_circuits_and_interpolation_bracketing():
    ok = True
    for c in (F(1, 2), F(9, 10)):
        circ = build_power_circuit(c, 64)
        for e in range(65):
            if circ([F(e)]) != naive_power(c, e):
                ok = False
        for k in range(0, 1001):
            w = -F(k, 100)
            value = smooth_interpolation(w, c)
            n = math.ceil(w)
            if not (c ** (n + 1) <= value <= c ** n):
                ok = False
    report(8, ok, "power circuits exact for e in 0..64 at c in {1/2, 9/10}; "
                  "B(w) bracketing holds on the 1e-2 grid of [-10, 0]")
    assert ok
