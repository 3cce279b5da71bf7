import contextlib
import hashlib
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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


@pytest.mark.parametrize("matrix, eigenvalues, eigenvectors, message", [
    (np.ones((2, 3)), [2.0, 1.0], np.eye(2), "matrix must be square"),
    (np.diag([2.0, 1.0]), [2.0, 1.0, 0.0], np.eye(2), "inconsistent shapes"),
    (np.diag([1.0, 2.0]), [1.0, 2.0], np.eye(2), "eigenvalues must be sorted descending"),
])
def test_spectral_system_input_errors(matrix, eigenvalues, eigenvectors, message):
    with pytest.raises(SpectralError) as exc:
        SpectralSystem(matrix, np.array(eigenvalues), eigenvectors)
    assert str(exc.value) == message


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
    assert eigen_metric(sys_, x, x) == 0.0


def test_eigen_metric_paper_values():
    sys_ = paper_counterexample_system()
    x, y = np.array(PAPER_PAIR_X), np.array(PAPER_PAIR_Y)
    assert eigen_metric(sys_, x, y) == pytest.approx(1.0, abs=1e-12)
    after = eigen_metric(sys_, power_step(sys_, x), power_step(sys_, y))
    assert after == pytest.approx(0.5, abs=1e-12)


def test_eigen_metric_undefined_near_perpendicular():
    sys_ = paper_counterexample_system()
    with pytest.raises(SpectralError, match="undefined"):
        eigen_metric(sys_, np.array([0.0, 1.0]), np.array(PAPER_PAIR_X))


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
        before = eigen_metric(sys_, x, y)
        after = eigen_metric(sys_, power_step(sys_, x), power_step(sys_, y))
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
    # the dimension line is checked, in the words of the matrix check, before any row
    # is read: the rows below would each fail to parse
    below = "is below 2: the eigen-metric needs a second eigenvalue"
    for n, message in ((-1, f"dimension -1 {below}"), (0, f"dimension 0 {below}"),
                       (1, f"dimension 1 {below}"), (65, "dimension 65 exceeds 64")):
        for rows in ("", "bad\n" * max(n, 0)):
            with pytest.raises(SpectralError) as raised:
                parse_matrix(f"{n}\n{rows}")
            assert str(raised.value) == message


# ---------------------------------------------------------------- pinned float bits


def pinned_matrices():
    """(name, matrix): seeded gapped matrices, and one whose tau overflows when squared.

    17, 20 and 33 are dimensions where a column update narrowed to columns p
    and q rounds differently from the dense product.
    """
    cases = [(f"gapped-{n}", gapped_matrix(np.random.default_rng([9, n]), n))
             for n in (2, 3, 5, 16, 17, 20, 33, 64)]
    cases.append(("huge-tau", np.array([[1e300, 1.0], [1.0, 1.0]])))
    return cases


def gapped_matrix(rng, n):
    """A symmetric matrix with a random eigenbasis and a dominant lambda1."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1].copy()
    lam[0] = lam[1] * rng.uniform(1.5, 3.0)
    a = (q * lam) @ q.T
    return (a + a.T) / 2


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


@pytest.mark.parametrize("n", [16, 32, 33, 47, 64])
def test_jacobi_matches_reference_at_large_dimensions(column_forms, n):
    a = dict(pinned_matrices()).get(f"gapped-{n}")
    if a is None:
        a = np.random.default_rng(n).normal(size=(n, n))
        a = a + a.T
    solve_twice_like_reference(a)  # cold, then on the forms the first solve taught


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


def test_pair_count_past_numpy_array_size_is_an_input_error():
    # the first draw of count pairs in dimension 2 is 2 * count * 2 float64s; numpy
    # sizes an array of up to intp max bytes, an 8 EiB one that no host can hold
    sys_ = paper_counterexample_system()
    largest = np.iinfo(np.intp).max // 32
    with pytest.raises(MemoryError):
        power.sample_pairs(sys_, largest, seed=0)
    with pytest.raises(SpectralError, match=f"pair count {largest + 1} is too large"):
        power.sample_pairs(sys_, largest + 1, seed=0)


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


@pytest.mark.parametrize("n", [2, 16, 32, 64])
def test_replay_matches_per_entry_norm(n):
    rng = np.random.default_rng(n)
    sys_ = random_gapped_system(rng, n)
    pairs = random_valid_pairs(rng, sys_, 3 if n == 64 else 10)
    for x, y in pairs + [(sys_.v1, sys_.v1)]:  # the last pair has d(x, y) = 0
        want = replay_pair_mp_per_entry_norm(sys_, x, y)
        assert replay_pair_mp(sys_, x, y) == power._replay_pair_mp_reference(sys_, x, y) == want


def test_replay_restores_mpmath_precision():
    sys_ = paper_counterexample_system()
    before = mp.prec
    replay_pair_mp(sys_, PAPER_PAIR_X, PAPER_PAIR_Y)
    assert mp.prec == before


def adversarial_floats(rng, shape):
    """Exact zeros, -0.0, subnormals, and both signs of magnitudes from 1e-40 to 1e5."""
    kind = rng.integers(0, 5, size=shape)
    normal = rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-40, 5, size=shape)
    subnormal = rng.integers(-(2 ** 52), 2 ** 52, size=shape) * 5e-324
    return np.select([kind == 0, kind == 1, kind == 2], [0.0, -0.0, subnormal], normal)


def test_exact_dots_equal_the_mpf_sums():
    rng = np.random.default_rng(15)
    exact = fallback = 0
    with mp.workprec(power.REPLAY_PRECISION):
        for _ in range(400):
            n = int(rng.integers(1, 9))
            rows = adversarial_floats(rng, (int(rng.integers(1, 4)), n))
            vecs = adversarial_floats(rng, (int(rng.integers(1, 3)), n))
            for i, row in enumerate(power._exact_dots(rows, vecs)):
                for j, value in enumerate(row):
                    want = power._mp_dot(map(mpf, rows[i].tolist()), map(mpf, vecs[j].tolist()))
                    if value is None:
                        fallback += 1
                    else:
                        exact += 1
                        assert value._mpf_ == want._mpf_, (rows[i], vecs[j])
    # both paths must run: the wide magnitude range makes about half the sums fall back
    assert exact > 200 and fallback > 200


def test_mp_dots_fall_back_on_non_finite_entries():
    rows = np.array([[math.inf, 1.0], [1.0, 2.0], [math.inf, -math.inf]])
    vecs = np.array([[0.5, 0.25], [1.0, math.nan]])
    with mp.workprec(power.REPLAY_PRECISION):
        exact = power._exact_dots(rows, vecs)
        assert [[v is None for v in row] for row in exact] == [
            [True, True], [False, True], [True, True]]
        got = power._mp_dots(rows, vecs)
        want = [[power._mp_dot(map(mpf, r.tolist()), map(mpf, v.tolist())) for v in vecs]
                for r in rows]
    assert [[v._mpf_ for v in row] for row in got] == [[v._mpf_ for v in row] for row in want]


def test_replay_fast_path_holds_on_pinned_matrices():
    """Fewer than 1% of the float dot products fall back to the mpf sum.

    huge-tau is left out: its row (1e300, 1) and its v1 ~ (1, 1e-300) span
    about 1000 bits, so those sums must fall back, and do.
    """
    rows = fallback = 0
    with mp.workprec(power.REPLAY_PRECISION):
        for name, a in pinned_matrices():
            sys_ = jacobi_eigensolve(a)
            for x, y in power.sample_pairs(sys_, 20, seed=len(a)):
                pair = np.array([x, y])
                out = power._exact_dots(sys_.matrix, pair) + power._exact_dots(pair, sys_.v1[None])
                misses = sum(v is None for row in out for v in row)
                if name == "huge-tau":
                    assert misses == 4  # row 0 of A x and of A y, <x, v1> and <y, v1>
                else:
                    rows += sum(map(len, out))
                    fallback += misses
    assert rows > 6000 and fallback < rows / 100


# ---------------------------------------------------------------- learnt O(n) column turns


@pytest.fixture
def column_forms(monkeypatch):
    """An empty table of learnt column forms; the process's own comes back after the test."""
    forms = {}
    monkeypatch.setattr(power, "_COLUMN_FORMS", forms)
    return forms


@pytest.fixture
def fast_turns(monkeypatch):
    """The outcome of each O(n) column turn tried, True where it turned the columns."""
    made = []
    turn = power._ColumnTurn.turn

    def counted(self, *args):
        made.append(turn(self, *args))
        return made[-1]

    monkeypatch.setattr(power._ColumnTurn, "turn", counted)
    return made


def solve_twice_like_reference(a):
    """Solve `a` twice, learning then on learnt forms; both match the dense reference."""
    expected = eigen_outcome(power._jacobi_eigensolve_reference, a)
    assert eigen_outcome(jacobi_eigensolve, a) == expected
    assert eigen_outcome(jacobi_eigensolve, a) == expected
    return expected


# the gate, 64, and dimensions between them: n mod 8 = 5, 1, 4, 0
LEARNT_DIMENSIONS = [power.FAST_COLUMNS_MIN, 57, 60, 64]


@pytest.mark.parametrize("n", LEARNT_DIMENSIONS)
def test_learnt_column_turns_match_reference(column_forms, fast_turns, n):
    a = gapped_matrix(np.random.default_rng([16, n]), n)
    solve_twice_like_reference(a)
    assert set(column_forms) == {n}
    second = fast_turns[len(fast_turns) // 2:]
    assert sum(second) > len(second) // 2  # the second solve turns most columns in O(n)
    assert_every_learnt_form_reproduces_the_dense_product(n, column_forms[n])


def assert_every_learnt_form_reproduces_the_dense_product(n, forms):
    """Each entry of the table is one the dense product taught, and turns a random stack
    with the dense product's bits."""
    assert set(np.unique(forms)) <= {0, power._ColumnTurn.PRODUCT, power._ColumnTurn.SUM}
    assert not np.diag(forms).any()
    columns = power._ColumnTurn(n, forms)
    taught = [(p, q) for p, q in zip(*np.triu_indices(n, 1)) if forms[p, q] and forms[q, p]]
    assert len(taught) > n * (n - 1) // 4
    rng = np.random.default_rng([19, n])
    for p, q in taught:
        stack = rng.normal(size=(2 * n, n))
        angle = rng.uniform(-math.pi / 4, math.pi / 4)
        c, s = math.cos(angle), math.sin(angle)
        rot = np.eye(n)
        rot[p, p] = rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        dense = stack @ rot
        assert columns.turn(stack, p, q, c, s)
        assert stack.tobytes() == dense.tobytes()


def test_dimensions_below_the_gate_learn_nothing(column_forms, fast_turns):
    for n in (16, power.FAST_COLUMNS_MIN - 1):
        jacobi_eigensolve(gapped_matrix(np.random.default_rng([16, n]), n))
    assert column_forms == {} and fast_turns == []


def zero_cases(n):
    """(name, matrix) at dimension n: signed zeros, exact zeros, a subnormal next to a zero."""
    rng = np.random.default_rng([17, n])
    a = gapped_matrix(rng, n)
    signed = a.copy()
    signed[3, 7] = signed[7, 3] = signed[5, 5] = -0.0
    blocks = np.zeros((n, n))
    for lo, hi, scale in ((0, 10, 3.0), (10, 25, 1.0), (25, n, 0.5)):
        blocks[lo:hi, lo:hi] = gapped_matrix(rng, hi - lo) * scale
    negative_blocks = np.where(blocks == 0, -0.0, blocks)
    tiny = a.copy()
    tiny[9, 0] = tiny[0, 9] = 0.0
    tiny[9, 1] = tiny[1, 9] = 5e-324  # 5e-324 * |s| < 2^-1075 rounds to a signed zero
    return [("negative-zeros", signed), ("block-diagonal", blocks),
            ("block-diagonal-negative-zeros", negative_blocks), ("subnormal", tiny)]


def test_learnt_column_turns_keep_zeros_like_reference(column_forms):
    # both forms occur at 57 with OpenBLAS on a Xeon core; at the gate and at 64 every
    # learnt form is PRODUCT there
    for n in (power.FAST_COLUMNS_MIN, 57, 64):
        jacobi_eigensolve(gapped_matrix(np.random.default_rng([16, n]), n))  # teach every pair
        if n == 57:
            assert set(np.unique(column_forms[n])) == {
                0, power._ColumnTurn.PRODUCT, power._ColumnTurn.SUM}
        for _, a in zero_cases(n):  # each solve turns on the taught forms from its first sweep
            assert eigen_outcome(jacobi_eigensolve, a) == eigen_outcome(
                power._jacobi_eigensolve_reference, a)


class _EnoughPivots(Exception):
    pass


def stack_digests(monkeypatch, a, gate, pivots):
    """A digest of the whole stack at each of the first `pivots` pivots of a solve of
    `a`, with the O(n) column turn allowed from dimension `gate` up."""
    seen = []
    angle = power._jacobi_angle

    def traced(stack, p, q, skip):
        if len(seen) == pivots:
            raise _EnoughPivots
        seen.append(hashlib.blake2b(stack, digest_size=16).digest())
        return angle(stack, p, q, skip)

    with monkeypatch.context() as patched:
        patched.setattr(power, "_jacobi_angle", traced)
        patched.setattr(power, "FAST_COLUMNS_MIN", gate)
        with contextlib.suppress(_EnoughPivots):
            jacobi_eigensolve(a)
    return seen


def test_a_step_that_leaves_a_negative_zero_hands_the_solve_to_the_dense_product(
        column_forms, monkeypatch):
    # rows whose only entries are a diagonal one and a few subnormals: s * e underflows
    # there, in rows other than p and q, and a turn can leave a -0.0 that the dense
    # product would make +0.0 at a later step
    n = power.FAST_COLUMNS_MIN
    rng = np.random.default_rng([5, n, 11])
    a = gapped_matrix(rng, n)
    for i in rng.choice(np.arange(2, n), size=4, replace=False):
        v = np.zeros(n)
        couplings = rng.choice([j for j in range(n) if j != i], size=3, replace=False)
        v[couplings] = rng.integers(1, 3, size=3) * 5e-324 * rng.choice([-1, 1], size=3)
        v[i] = rng.uniform(0.1, 0.5)
        a[i, :] = a[:, i] = v
    pivots = n * (n - 1)  # two sweeps
    dense = stack_digests(monkeypatch, a, power.MAX_DIMENSION + 1, pivots)
    jacobi_eigensolve(a)  # teaches the pairs it can
    assert stack_digests(monkeypatch, a, power.FAST_COLUMNS_MIN, pivots) == dense
    expected = eigen_outcome(power._jacobi_eigensolve_reference, a)
    assert eigen_outcome(jacobi_eigensolve, a) == expected


def test_non_convergence_at_the_gate_raises_like_reference(column_forms):
    a = np.random.default_rng(1).normal(size=(power.FAST_COLUMNS_MIN,) * 2) * 100.0
    assert solve_twice_like_reference(a + a.T) == (
        "error", "Jacobi sweeps did not reach the off-diagonal target")


def test_inputs_past_the_guards_solve_dense(column_forms, fast_turns):
    n = power.FAST_COLUMNS_MIN
    a = gapped_matrix(np.random.default_rng([18, n]), n)
    huge = a.copy()
    huge[0, :] = huge[:, 0] = 0.0
    huge[0, 0] = 1e300  # n * max|a_ij| passes 2^1000; row 0 never turns, so the sweeps converge
    signed = a.copy()
    signed[0, 0] = -0.0
    for refused in (huge, signed, np.where(a > 0.5, np.inf, a), np.where(a > 0.5, np.nan, a)):
        assert power._column_turn(refused) is None
    for refused in (huge, signed):
        assert eigen_outcome(jacobi_eigensolve, refused) == eigen_outcome(
            power._jacobi_eigensolve_reference, refused)
    assert fast_turns == []
    assert power._column_turn(a) is not None


def zeros_decided_by_least_magnitude(pair, turned, s):
    """The zero-sign check as the least-magnitude scan states it: the reference for
    `_ColumnTurn._zeros_decided`."""
    if np.count_nonzero(turned) == turned.size:
        return True
    magnitudes = np.abs(pair)
    least = magnitudes.min()
    if not least:
        nonzero = magnitudes[magnitudes != 0]
        least = nonzero.min() if nonzero.size else math.inf
    return abs(s) * least >= power._UNDERFLOW_FREE


@st.composite
def loaded_steps(draw):
    """(pair, s): a step sine s and loaded columns whose least nonzero magnitude is 0.0,
    a subnormal, or within a few ulps of 2^-968 / |s|, where |s * e| meets the bound."""
    s = draw(st.sampled_from([0.0]) | st.floats(2.0 ** -60, 1 / math.sqrt(2))
             | st.builds(math.ldexp, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-112, -54)))
    s *= draw(st.sampled_from([1.0, -1.0]))
    near = [power._UNDERFLOW_FREE / abs(s) if s else power._UNDERFLOW_FREE]
    for _ in range(2):
        near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
    least = draw(st.sampled_from(near) | st.sampled_from([5e-324, 1e-310, 2.0 ** -1022])
                 | st.floats(1e-300, 1e-250))
    rows = draw(st.integers(1, 6))
    entries = draw(st.lists(st.sampled_from([0.0, least]) | st.floats(1.0, 2.0),
                            min_size=4 * rows, max_size=4 * rows))
    pair = np.array(entries).reshape(2 * rows, 2)
    pair[draw(st.lists(st.integers(0, 2 * rows - 1), max_size=rows))] = 0.0  # +0.0 rows
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=pair.size, max_size=pair.size))
    return pair * np.reshape(signs, pair.shape), s


# |s| * 0x1.49b67cda5b235p-962 rounds to just below 2^-968, although the quotient
# 2^-968 / |s| rounds to that entry: a threshold taken as the quotient would pass it
ROUNDED_QUOTIENT = (np.array([[float.fromhex("0x1.49b67cda5b235p-962"), 1.0], [0.0, 0.0]]),
                    float.fromhex("0x1.8d88a7451b32dp-7"))


@settings(max_examples=300, deadline=None)
@given(loaded_steps())
@example(ROUNDED_QUOTIENT)
def test_zeros_decided_refuses_where_the_least_magnitude_scan_refuses(step):
    pair, s = step
    columns = power._ColumnTurn(len(pair) // 2, np.zeros((1, 1), dtype=np.int8))
    columns.pair[...] = pair
    turned = np.zeros(1)  # the check is reached only when a turned entry is a zero
    assert columns._zeros_decided(s) == zeros_decided_by_least_magnitude(pair, turned, s)


@settings(max_examples=300, deadline=None)
@given(loaded_steps())
@example(ROUNDED_QUOTIENT)
def test_annihilated_zeros_are_decided_where_the_scan_of_their_rows_decides(step):
    # the turn reaches this check for the (p, q) and (q, p) entries, whose zeros lie in
    # rows p and q
    pair, s = step
    columns = power._ColumnTurn(len(pair) // 2, np.zeros((1, 1), dtype=np.int8))
    columns.pair[...] = pair
    turned = np.zeros(1)
    for p, q in itertools.combinations(range(len(pair)), 2):
        assert columns._annihilated_decided(p, q, s) == zeros_decided_by_least_magnitude(
            pair[[p, q]], turned, s)


@pytest.mark.parametrize("n", [power.FAST_COLUMNS_MIN, 64])
def test_eigenvector_entries_outside_the_fill_are_positive_zeros(column_forms, fast_turns, monkeypatch, n):
    """At every pivot of a solve on the O(n) path, each eigenvector entry of column j
    outside the fill mask fill[j] is +0.0."""
    made, handed_off, outside = [], [], []
    column_turn, angle, has_negative_zero = (
        power._column_turn, power._jacobi_angle, power._has_negative_zero)

    def new_solve(a0):
        made.append(column_turn(a0))
        handed_off.clear()
        return made[-1]

    def hand_off(a):
        found = has_negative_zero(a)
        if found:  # the solve hands its rest to the dense product and leaves the fill
            handed_off.append(True)
        return found

    def traced(stack, p, q, skip):
        if made[-1] is not None and not handed_off:
            rows = np.arange(n, dtype=np.uint64)[:, None]
            absent = (np.array(made[-1].fill, dtype=np.uint64)[None, :] >> rows) & np.uint64(1) == 0
            assert not stack[n:].view(np.uint64)[absent].any()
            outside.append(np.count_nonzero(absent))
        return angle(stack, p, q, skip)

    monkeypatch.setattr(power, "_column_turn", new_solve)
    monkeypatch.setattr(power, "_has_negative_zero", hand_off)
    monkeypatch.setattr(power, "_jacobi_angle", traced)
    jacobi_eigensolve(gapped_matrix(np.random.default_rng([16, n]), n))  # teach every pair
    for _, a in zero_cases(n):
        jacobi_eigensolve(a)
    assert sum(fast_turns) > len(fast_turns) // 2 and max(outside) > 0


def test_column_turn_leaves_undecided_zeros_to_the_dense_product():
    n, p, q = power.FAST_COLUMNS_MIN, 3, 17
    rng = np.random.default_rng(20)
    c, s = math.sqrt(1 - 0.4 ** 2), 0.4
    rot = np.eye(n)
    rot[p, p] = rot[q, q] = c
    rot[p, q] = s
    rot[q, p] = -s
    columns = power._ColumnTurn(n, np.zeros((n, n), dtype=np.int8))
    # both forms give each entry of a column that holds only 0 and 1
    ones = np.zeros((2 * n, n))
    ones[:, p] = 1.0
    columns.learn(ones, ones @ rot, p, q, c, s)
    assert not columns.forms.any()
    stack = rng.normal(size=(2 * n, n))
    columns.learn(stack, stack @ rot, p, q, c, s)
    assert columns.forms[p, q] and columns.forms[q, p]
    # 0 * c - s * 5e-324 underflows: the sign of that zero is the dense product's to decide
    stack[9, p], stack[9, q] = 0.0, 5e-324
    before = stack.tobytes()
    assert not columns.turn(stack, p, q, c, s)
    assert stack.tobytes() == before
    taught = columns.forms.copy()
    columns.forms[...] = 0
    columns.learn(stack, stack @ rot, p, q, c, s)
    assert not columns.forms.any()
    # an exact zero, from two zero entries, is +0.0 under every form
    columns.forms[...] = taught
    stack[9, q] = 0.0
    dense = stack @ rot
    assert columns.turn(stack, p, q, c, s)
    assert stack.tobytes() == dense.tobytes()


def test_column_turn_leaves_annihilated_and_row_zeros_to_the_dense_product():
    n, p, q = power.FAST_COLUMNS_MIN, 3, 17
    rng = np.random.default_rng(21)
    c, s = math.sqrt(1 - 0.4 ** 2), 0.4
    rot = np.eye(n)
    rot[p, p] = rot[q, q] = c
    rot[p, q] = s
    rot[q, p] = -s
    columns = power._ColumnTurn(n, np.zeros((n, n), dtype=np.int8))
    stack = rng.normal(size=(2 * n, n))
    columns.learn(stack, stack @ rot, p, q, c, s)
    assert columns.forms[p, q] and columns.forms[q, p]
    # s * 5e-324 + c * 0 underflows at (p, q): the sign of that annihilated zero is the
    # dense product's to decide
    stack[p, p], stack[p, q] = 5e-324, 0.0
    before = stack.tobytes()
    assert not columns.turn(stack, p, q, c, s)
    assert stack.tobytes() == before
    # a -0.0 that the row turn left in row q: the dense product makes it +0.0
    stack = rng.normal(size=(2 * n, n))
    stack[q, 5] = -0.0
    columns.rows[...] = stack[[p, q]]
    before = stack.tobytes()
    assert not columns.turn(stack, p, q, c, s)
    assert stack.tobytes() == before
    assert not np.signbit((stack @ rot)[q, 5])
