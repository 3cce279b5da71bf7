import contextlib
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, sqrt as mp_sqrt

from contraction_kit import power
from contraction_kit.cli import main
from contraction_kit.power import (
    PAPER_PAIR_X,
    PAPER_PAIR_Y,
    SpectralError,
    SpectralSystem,
    certify_contraction_rate,
    eigen_metric,
    format_matrix,
    iteration_bound,
    jacobi_eigensolve,
    lp_counterexample,
    paper_counterexample_system,
    parse_matrix,
    power_step,
    replay_pair_mp,
)

POWER_PINS = Path(__file__).parent / "power_pins.json"


def random_gapped_system(rng, n, gap=0.3):
    """Positive spectrum with a controlled top gap; lambda2 dominates the rest."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam2 = 1.0 + rng.random()
    spectrum = np.concatenate([[lam2 + gap], np.sort(rng.uniform(0.1, lam2, size=n - 1))[::-1]])
    a = q @ np.diag(spectrum) @ q.T
    return jacobi_eigensolve((a + a.T) / 2)


def random_valid_pairs(rng, sys_, count):
    pairs = []
    while len(pairs) < count:
        x = rng.normal(size=sys_.dimension)
        y = rng.normal(size=sys_.dimension)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        if abs(x @ sys_.v1) > 1e-8 and abs(y @ sys_.v1) > 1e-8:
            pairs.append((x, y))
    return pairs


# ---------------------------------------------------------------- jacobi


def test_jacobi_diagonal_matrix():
    sys_ = jacobi_eigensolve([[2.0, 0.0], [0.0, 1.0]])
    assert sys_.eigenvalues == pytest.approx([2.0, 1.0])
    assert sys_.v1 == pytest.approx([1.0, 0.0])


def test_jacobi_two_by_two_offdiagonal():
    sys_ = jacobi_eigensolve([[2.0, 1.0], [1.0, 2.0]])
    assert sys_.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
    assert abs(sys_.v1 @ np.array([1.0, 1.0]) / math.sqrt(2)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")  # an overflow in tau * tau would warn
def test_jacobi_huge_tau_does_not_overflow():
    # tau is about -5e299 at the one rotation, past sqrt(float max) ~ 1.3e154
    with np.errstate(over="raise"):
        sys_ = jacobi_eigensolve([[1e300, 1.0], [1.0, 1.0]])
    assert sys_.eigenvalues[0] == 1e300
    assert sys_.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)


def test_jacobi_gap_error_on_identity():
    with pytest.raises(SpectralError, match="gap"):
        jacobi_eigensolve(np.eye(3))


def test_jacobi_rejects_asymmetric():
    with pytest.raises(SpectralError, match="symmetric"):
        jacobi_eigensolve([[1.0, 2.0], [0.0, 3.0]])


def test_jacobi_matches_numpy_eigh_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 4, 8):
        sys_ = random_gapped_system(rng, n)
        oracle = np.sort(np.linalg.eigvalsh(sys_.matrix))[::-1]
        assert sys_.eigenvalues == pytest.approx(oracle, abs=1e-10)
        for i in range(n):
            res = np.linalg.norm(sys_.matrix @ sys_.eigenvectors[i]
                                 - sys_.eigenvalues[i] * sys_.eigenvectors[i])
            assert res <= 1e-10


def test_spectral_system_validates_invariants():
    with pytest.raises(SpectralError, match="orthonormal"):
        SpectralSystem(np.diag([2.0, 1.0]), np.array([2.0, 1.0]),
                       np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SpectralError, match="residual"):
        SpectralSystem(np.diag([2.0, 1.0]), np.array([2.0, 1.5]), np.eye(2))


# ---------------------------------------------------------------- power step & metric


def test_power_step_fixes_v1():
    sys_ = paper_counterexample_system()
    out = power_step(sys_, sys_.v1)
    assert out == pytest.approx(sys_.v1, abs=1e-14)


def test_power_step_paper_values():
    sys_ = paper_counterexample_system()
    fx = power_step(sys_, np.array(PAPER_PAIR_X))
    fy = power_step(sys_, np.array(PAPER_PAIR_Y))
    assert fx == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-14)
    assert fy == pytest.approx([2 / math.sqrt(13), 3 / math.sqrt(13)], abs=1e-14)


def test_power_step_requires_unit_vector():
    sys_ = paper_counterexample_system()
    with pytest.raises(SpectralError, match="unit"):
        power_step(sys_, np.array([1.0, 1.0]))


def test_power_step_rejects_perpendicular_start():
    sys_ = paper_counterexample_system()
    with pytest.raises(SpectralError, match="perpendicular"):
        power_step(sys_, np.array([0.0, 1.0]))


def test_eigen_metric_zero_on_equal_points():
    sys_ = paper_counterexample_system()
    x = np.array(PAPER_PAIR_X)
    assert eigen_metric(sys_, x, x).value == 0.0


def test_eigen_metric_paper_values():
    sys_ = paper_counterexample_system()
    x, y = np.array(PAPER_PAIR_X), np.array(PAPER_PAIR_Y)
    before = eigen_metric(sys_, x, y)
    assert before.value == pytest.approx(1.0, abs=1e-12)
    after = eigen_metric(sys_, power_step(sys_, x), power_step(sys_, y))
    assert after.value == pytest.approx(0.5, abs=1e-12)
    assert before.orthogonality_defect(sys_) <= 1e-10


def test_eigen_metric_undefined_near_perpendicular():
    sys_ = paper_counterexample_system()
    with pytest.raises(SpectralError, match="undefined"):
        eigen_metric(sys_, np.array([0.0, 1.0]), np.array(PAPER_PAIR_X))


def test_residual_orthogonal_to_v1_on_random_pairs():
    rng = np.random.default_rng(3)
    sys_ = random_gapped_system(rng, 5)
    for x, y in random_valid_pairs(rng, sys_, 50):
        assert eigen_metric(sys_, x, y).orthogonality_defect(sys_) <= 1e-10


# ---------------------------------------------------------------- certificates


def test_certify_paper_pair_ratio_half():
    sys_ = paper_counterexample_system()
    cert = certify_contraction_rate(sys_, [(np.array(PAPER_PAIR_X), np.array(PAPER_PAIR_Y))])
    assert cert.ok
    assert cert.max_ratio == pytest.approx(0.5, abs=1e-12)


def test_certify_span_v1_pair_is_vacuous():
    sys_ = paper_counterexample_system()
    cert = certify_contraction_rate(sys_, [(sys_.v1, -sys_.v1)])
    assert cert.ok
    assert cert.pairs[0].ratio is None


def test_certify_random_system_within_rate():
    rng = np.random.default_rng(11)
    sys_ = random_gapped_system(rng, 5)
    cert = certify_contraction_rate(sys_, random_valid_pairs(rng, sys_, 100))
    assert cert.ok
    assert cert.max_ratio <= sys_.rate + 1e-9


def test_high_precision_replay_agrees_with_float_path():
    rng = np.random.default_rng(7)
    sys_ = random_gapped_system(rng, 4)
    for x, y in random_valid_pairs(rng, sys_, 10):
        before = eigen_metric(sys_, x, y).value
        after = eigen_metric(sys_, power_step(sys_, x), power_step(sys_, y)).value
        before_mp, after_mp = replay_pair_mp(sys_, x, y)
        assert before == pytest.approx(before_mp, rel=1e-9, abs=1e-12)
        assert after == pytest.approx(after_mp, rel=1e-9, abs=1e-12)


def test_eigenvalue_identity_for_random_vectors():
    rng = np.random.default_rng(19)
    sys_ = random_gapped_system(rng, 6)
    for _ in range(25):
        x = rng.normal(size=6)
        lhs = (sys_.matrix @ x) @ sys_.v1
        rhs = sys_.eigenvalues[0] * (x @ sys_.v1)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_principal_component_ratio_grows_per_step():
    rng = np.random.default_rng(23)
    sys_ = random_gapped_system(rng, 4)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    if abs(x @ sys_.v1) < 1e-6:
        x = sys_.v1 + 0.3 * sys_.eigenvectors[1]
        x /= np.linalg.norm(x)
    growth = sys_.eigenvalues[0] / sys_.eigenvalues[1]
    for _ in range(5):
        nxt = power_step(sys_, x)
        for i in range(1, 4):
            comp = abs(x @ sys_.eigenvectors[i])
            comp_next = abs(nxt @ sys_.eigenvectors[i])
            if comp > 1e-13:
                ratio_before = abs(x @ sys_.v1) / comp
                ratio_after = abs(nxt @ sys_.v1) / comp_next
                assert ratio_after >= growth * ratio_before * (1 - 1e-9)
        x = nxt


# ---------------------------------------------------------------- counterexamples


def high_precision_paper_values():
    mp.prec = 128
    x = [1 / mp_sqrt(5), 2 / mp_sqrt(5)]
    y = [1 / mp_sqrt(10), 3 / mp_sqrt(10)]
    fx = [1 / mp_sqrt(2), 1 / mp_sqrt(2)]
    fy = [2 / mp_sqrt(13), 3 / mp_sqrt(13)]

    def dist(u, v):
        return float(mp_sqrt((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2))

    return dist(x, y), dist(fx, fy)


def test_l2_counterexample_matches_paper_within_tolerance():
    report = lp_counterexample(2)
    before_hp, after_hp = high_precision_paper_values()
    assert report.expanding
    assert report.d_after >= 0.19
    assert abs(report.d_after - after_hp) <= 1e-3
    assert abs(report.d_before - before_hp) <= 1e-3
    assert report.ratio > 1


def test_l1_and_linf_counterexamples_found():
    for p in (1, math.inf):
        report = lp_counterexample(p)
        assert report.expanding
        assert report.d_after > report.d_before > 0


def test_unsupported_norm_rejected():
    with pytest.raises(SpectralError, match="supported"):
        lp_counterexample(3)


# ---------------------------------------------------------------- iteration bound


def test_bound_zero_steps_from_v1():
    sys_ = paper_counterexample_system()
    report = iteration_bound(sys_, sys_.v1, 0.25)
    assert report.predicted == 0
    assert report.ok


def test_bound_paper_example():
    sys_ = paper_counterexample_system()
    report = iteration_bound(sys_, np.array(PAPER_PAIR_X), 0.25)
    assert report.predicted == 3
    assert abs(report.final_distance - 0.25) <= 1e-12
    assert report.final_l2_error <= 0.25
    # every step contracts the distance to v1 by the rate exactly here
    for prev, nxt in zip(report.distances, report.distances[1:]):
        assert nxt == pytest.approx(0.5 * prev, rel=1e-12)


def test_bound_conversion_inequality():
    # d(x_t, v1) <= eps forces <x_t, v1> >= (1 + eps^2)^(-1/2)
    sys_ = paper_counterexample_system()
    report = iteration_bound(sys_, np.array(PAPER_PAIR_X), 0.25)
    x = np.array(PAPER_PAIR_X)
    for _ in range(report.predicted):
        x = power_step(sys_, x)
    eps = 0.25
    assert x @ sys_.v1 >= (1 + eps ** 2) ** -0.5 - 1e-12


# ---------------------------------------------------------------- files


def test_matrix_file_roundtrip():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    again = parse_matrix(format_matrix(a))
    assert np.array_equal(a, again)


def test_matrix_parse_errors():
    with pytest.raises(SpectralError):
        parse_matrix("2\n1.0 2.0\n")
    with pytest.raises(SpectralError):
        parse_matrix("")


# ---------------------------------------------------------------- pinned float bits


def pinned_matrices():
    """(name, matrix): seeded gapped matrices, and one whose tau overflows when squared.

    17, 20 and 33 are dimensions where a column update narrowed to columns p
    and q rounds differently from the dense product.
    """
    cases = []
    for n in (2, 3, 5, 16, 17, 20, 33, 64):
        rng = np.random.default_rng([9, n])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1].copy()
        lam[0] = lam[1] * rng.uniform(1.5, 3.0)
        a = (q * lam) @ q.T
        cases.append((f"gapped-{n}", (a + a.T) / 2))
    cases.append(("huge-tau", np.array([[1e300, 1.0], [1.0, 1.0]])))
    return cases


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def power_pin_digests(directory: Path) -> dict:
    """Digests of the eigensystem bits and of `power analyze --format csv --pairs 300`."""
    out = {}
    for name, a in pinned_matrices():
        sys_ = jacobi_eigensolve(a)
        path = directory / f"{name}.txt"
        path.write_text(format_matrix(a), encoding="utf-8")
        code, stdout, stderr = run_main(
            ["--format", "csv", "power", str(path), "analyze", "--pairs", "300"])
        out[name] = {
            "eigenvalues_sha256": _sha256(sys_.eigenvalues.tobytes()),
            "eigenvectors_sha256": _sha256(sys_.eigenvectors.tobytes()),
            "analyze_exit": code,
            "analyze_stdout_sha256": _sha256(stdout.encode("utf-8")),
            "analyze_stderr": stderr,
        }
    return out


def test_power_outputs_match_pins(tmp_path, monkeypatch):
    # power_pins.json was captured from the dense Jacobi rotations and the
    # per-pair certificate loop; it is never regenerated.  The digests are
    # float bits, so they hold for the BLAS build they were taken with.
    monkeypatch.delenv("CONTRACTION_KIT_SEED", raising=False)
    pins = json.loads(POWER_PINS.read_text(encoding="utf-8"))
    assert power_pin_digests(tmp_path) == pins
    assert {pin["analyze_exit"] for pin in pins.values()} == {0, 2}


# ---------------------------------------------------------------- fast paths against references


def eigen_outcome(solve, a):
    """Eigensystem bits, or the error, that `solve` gives on `a`."""
    try:
        sys_ = solve(a)
    except SpectralError as exc:
        return "error", str(exc)
    return sys_.eigenvalues.tobytes(), sys_.eigenvectors.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.sampled_from(["normal", "integer", "large"]))
def test_jacobi_matches_reference_bit_for_bit(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "integer":  # repeated entries; often no gap, so both must raise alike
        a = rng.integers(-2, 3, size=(n, n)).astype(float)
    elif kind == "large":  # the 1e-14 target is out of reach: the sweeps do not converge
        n = min(n, 5)
        a = rng.normal(size=(n, n)) * 100.0
    else:
        a = rng.normal(size=(n, n))
    a = a + a.T
    assert eigen_outcome(jacobi_eigensolve, a) == eigen_outcome(power._jacobi_eigensolve_reference, a)


@pytest.mark.parametrize("n", [33, 47, 64])
def test_jacobi_matches_reference_at_large_dimensions(n):
    a = dict(pinned_matrices()).get(f"gapped-{n}")
    if a is None:
        a = np.random.default_rng(n).normal(size=(n, n))
        a = a + a.T
    assert eigen_outcome(jacobi_eigensolve, a) == eigen_outcome(power._jacobi_eigensolve_reference, a)


def test_jacobi_non_convergence_matches_reference():
    a = np.random.default_rng(1).normal(size=(4, 4)) * 100.0
    a = a + a.T
    outcome = eigen_outcome(jacobi_eigensolve, a)
    assert outcome == ("error", "Jacobi sweeps did not reach the off-diagonal target")
    assert outcome == eigen_outcome(power._jacobi_eigensolve_reference, a)


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 300])
def test_batched_certificate_matches_scalar_loop(monkeypatch, count):
    rng = np.random.default_rng(count)
    sys_ = random_gapped_system(rng, 7)
    pairs = random_valid_pairs(rng, sys_, count)
    if count:
        pairs[count // 2] = (sys_.v1, -sys_.v1)  # vacuous: d_before is 0
    reference = power._certify_contraction_rate_reference(sys_, pairs)
    cert = certify_contraction_rate(sys_, pairs)
    assert cert.to_csv() == reference.to_csv()
    assert cert.violations == reference.violations == []
    # a negative slack that fails about half the pairs exercises the violation list
    margins = sorted(sys_.rate * p.d_before - p.d_after for p in reference.pairs)
    if margins:
        monkeypatch.setattr(power, "RATE_SLACK", -margins[len(margins) // 2])
        reference = power._certify_contraction_rate_reference(sys_, pairs)
        cert = certify_contraction_rate(sys_, pairs)
        assert cert.violations == reference.violations
        assert 0 < len(cert.violations) < count or count == 1


def kernel_system():
    """diag(1e-4, 0) with v1 tilted by 1e-7: within every tolerance, and e2 is in the kernel."""
    s = 1e-7
    c = math.sqrt(1.0 - s * s)
    return SpectralSystem(np.diag([1e-4, 0.0]), np.array([1e-4, 0.0]), np.array([[c, s], [-s, c]]))


def bad_pair_cases():
    rng = np.random.default_rng(5)
    sys_ = random_gapped_system(rng, 4)
    unit = sys_.v1 + 0.5 * sys_.eigenvectors[1]
    unit /= np.linalg.norm(unit)
    kernel = kernel_system()
    return [
        ("non-unit", sys_, (2.0 * unit, unit), "power_step expects a unit vector"),
        ("perpendicular", sys_, (sys_.eigenvectors[2], unit), "metric undefined"),
        ("kernel", kernel, (np.array([0.0, 1.0]), kernel.v1), "A x vanished"),
    ]


@pytest.mark.parametrize("at", [0, 70])
@pytest.mark.parametrize("case", bad_pair_cases(), ids=lambda case: case[0])
def test_batched_certificate_raises_the_scalar_error(case, at):
    _, sys_, bad, fragment = case
    pairs = random_valid_pairs(np.random.default_rng(at), sys_, 100)
    pairs[at] = bad
    pairs[at + 20] = bad[::-1]  # a later bad pair must not decide the error
    errors = []
    for certify in (certify_contraction_rate, power._certify_contraction_rate_reference):
        with pytest.raises(SpectralError) as info:
            certify(sys_, pairs)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert fragment in errors[0]


def test_batched_certificate_keeps_float_warnings_of_the_scalar_loop():
    # outside the CLI's error state the overflow only warns, and the inf/nan
    # it leaves trips the overlap check one step later
    sys_ = jacobi_eigensolve([[1e300, 1.0], [1.0, 1.0]])
    pairs = [((0.6, 0.8), (0.8, 0.6))] * 3
    outcomes = []
    for certify in (certify_contraction_rate, power._certify_contraction_rate_reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SpectralError) as info:
                certify(sys_, pairs)
        outcomes.append(([str(w.message) for w in caught], str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert "overflow encountered in dot" in outcomes[0][0]


@pytest.mark.parametrize("name", ["gapped-20", "huge-tau"])
def test_power_analyze_matches_reference_paths(tmp_path, monkeypatch, name):
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(dict(pinned_matrices())[name]), encoding="utf-8")
    argv = ["--format", "csv", "power", str(path), "analyze", "--pairs", "130"]
    fast = run_main(argv)
    monkeypatch.setattr(power, "jacobi_eigensolve", power._jacobi_eigensolve_reference)
    monkeypatch.setattr(power, "certify_contraction_rate", power._certify_contraction_rate_reference)
    monkeypatch.setattr(power, "sample_pairs", power._sample_pairs_reference)
    assert fast == run_main(argv)
    assert fast[0] == (2 if name == "huge-tau" else 0)


@pytest.mark.parametrize("n, overlap_min", [(2, power.OVERLAP_MIN), (3, 0.3), (16, power.OVERLAP_MIN),
                                            (16, 0.3), (64, power.OVERLAP_MIN), (64, 0.1)])
def test_power_pairs_match_per_vector_draws(monkeypatch, n, overlap_min):
    # a raised OVERLAP_MIN rejects many draws, so later rounds draw the rest
    monkeypatch.setattr(power, "OVERLAP_MIN", overlap_min)
    sys_ = random_gapped_system(np.random.default_rng(n), n)
    for count in (0, 1, 50, 300):
        got = power.sample_pairs(sys_, count, seed=count + n)
        want = power._sample_pairs_reference(sys_, count, seed=count + n)
        assert len(got) == len(want) == count
        for (x, y), (x0, y0) in zip(got, want):
            assert np.array_equal(x, x0) and np.array_equal(y, y0)


class ScriptedNormals:
    """A stand-in for `default_rng` that deals out one fixed stream of normals."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used:self.used + count].reshape(size)
        self.used += count
        return out


def test_power_pairs_skip_zero_draws_as_the_per_vector_loop(monkeypatch):
    # pairs 0 and 2 hold an all-zero draw and pair 3 one perpendicular to v1;
    # the batch must skip them without a division warning
    sys_ = paper_counterexample_system()
    rows = [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0], [0.6, -0.8], [1.0, 2.0], [0.0, 0.0],
            [0.0, 5.0], [2.0, 1.0], [-1.0, 0.5], [4.0, 3.0], [1.0, -1.0], [2.0, 2.0]]
    streams = {}
    for sample in (power.sample_pairs, power._sample_pairs_reference):
        rng = ScriptedNormals(np.ravel(rows))
        monkeypatch.setattr(np.random, "default_rng", lambda seed, rng=rng: rng)
        with np.errstate(all="raise"):
            streams[sample] = (sample(sys_, 3, seed=0), rng.used)
    (got, used), (want, used_ref) = streams.values()
    assert used == used_ref == 24
    assert len(got) == len(want) == 3
    for (x, y), (x0, y0) in zip(got, want):
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
    assert np.array_equal(got[0][0], [0.6, 0.8])


def test_negative_pair_count_is_an_input_error(tmp_path):
    sys_ = paper_counterexample_system()
    with pytest.raises(SpectralError, match="nonnegative"):
        power.sample_pairs(sys_, -3, seed=0)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(np.diag([2.0, 1.0])), encoding="utf-8")
    code, out, err = run_main(["power", str(path), "analyze", "--pairs", "-3"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "-3" in err


def replay_pair_mp_per_entry_norm(sys_, x, y, precision=power.REPLAY_PRECISION):
    """The replay as first written, recomputing ||A x|| for every entry."""
    old = mp.prec
    mp.prec = precision
    try:
        a = [[mpf(v) for v in row] for row in sys_.matrix]
        v1 = [mpf(v) for v in sys_.v1]
        n = len(v1)

        def dot(u, w):
            return sum((u[i] * w[i] for i in range(n)), mpf(0))

        def norm(u):
            return mp_sqrt(dot(u, u))

        def metric(u, w):
            nu = dot(u, v1)
            nw = dot(w, v1)
            return norm([u[i] / nu - w[i] / nw for i in range(n)])

        xs = [mpf(v) for v in x]
        ys = [mpf(v) for v in y]
        ax, ay = [dot(row, xs) for row in a], [dot(row, ys) for row in a]
        fx = [v / norm(ax) for v in ax]
        fy = [v / norm(ay) for v in ay]
        return float(metric(xs, ys)), float(metric(fx, fy))
    finally:
        mp.prec = old


@pytest.mark.parametrize("n", [2, 16, 64])
def test_replay_matches_per_entry_norm(n):
    rng = np.random.default_rng(n)
    sys_ = random_gapped_system(rng, n)
    for x, y in random_valid_pairs(rng, sys_, 3 if n == 64 else 10):
        assert replay_pair_mp(sys_, x, y) == replay_pair_mp_per_entry_norm(sys_, x, y)


def test_replay_restores_mpmath_precision():
    sys_ = paper_counterexample_system()
    before = mp.prec
    replay_pair_mp(sys_, PAPER_PAIR_X, PAPER_PAIR_Y)
    assert mp.prec == before
