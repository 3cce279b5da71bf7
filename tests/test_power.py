import math

import numpy as np
import pytest
from mpmath import mp, sqrt as mp_sqrt

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
