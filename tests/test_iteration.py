import math
from fractions import Fraction as F

import pytest

from contraction_kit import iteration
from contraction_kit.circuit import InputError
from contraction_kit.iteration import (
    StopReason,
    predict_iterations,
    run_bip,
)
from contraction_kit.library import l1

ONES = (F(1), F(1), F(1))


def halve(x):
    return tuple(c / 2 for c in x)


def first_step_with_geometric_residual_below(eps: F) -> tuple[int, F]:
    # independent closed-form oracle: residual(t) = 3/2^(t+1) for the halving
    # map started at (1,1,1)
    t = 0
    while F(3, 2 ** (t + 1)) > eps:
        t += 1
    return t, F(3, 2 ** (t + 1))


def test_halving_stops_at_oracle_index():
    stop, residual = first_step_with_geometric_residual_below(F(1, 8))
    trace = run_bip(halve, ONES, l1, F(1, 8), 100)
    assert trace.stop_reason is StopReason.RESIDUAL_BELOW_EPS
    assert trace.stop_index == stop == 4
    assert trace.residuals[-1] == residual == F(3, 32)
    assert len(trace.residuals) == len(trace.points) - 1


def test_identity_stops_immediately():
    trace = run_bip(lambda x: x, ONES, l1, F(1, 100), 10)
    assert trace.stop_reason is StopReason.RESIDUAL_BELOW_EPS
    assert trace.stop_index == 0
    assert trace.residuals == [F(0)]


def test_flip_map_cycles():
    flip = lambda x: (1 - x[0], x[1], x[2])
    trace = run_bip(flip, (F(0), F(0), F(0)), l1, F(1, 2), 100)
    assert trace.stop_reason is StopReason.CYCLE_DETECTED
    assert len(trace.points) == 3  # 0 -> 1 -> 0 revisit


def test_max_iters_reached():
    drift = lambda x: (x[0] + 1, x[1], x[2])
    trace = run_bip(drift, (F(0), F(0), F(0)), l1, F(1, 2), 7)
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert len(trace.residuals) == 7


def test_float_mode_stagnation_detected():
    flip = lambda x: (1.0 - x[0], x[1], x[2])
    trace = run_bip(flip, (0.0, 0.0, 0.0), lambda a, b: abs(a[0] - b[0]), 1e-6, 500)
    assert trace.stop_reason is StopReason.CYCLE_DETECTED
    assert len(trace.residuals) <= 120


def test_certified_contraction_rate_bounds_residuals():
    trace = run_bip(halve, ONES, l1, F(1, 1000), 100)
    for prev, nxt in zip(trace.residuals, trace.residuals[1:]):
        assert nxt <= F(1, 2) * prev


def test_trace_csv_layout():
    trace = run_bip(halve, ONES, l1, F(1, 2), 10)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "step,x1,x2,x3,residual"
    assert len(lines) == len(trace.points) + 1
    assert lines[1].startswith("0,1,1,1,")
    assert lines[-1].endswith(",")  # the final point has no residual yet


def test_global_budget_worked_examples():
    # least n with c^n * d0/(1-c) <= eps/2: 2^-n * 2 <= 1/4 needs n = 3
    assert predict_iterations(1, F(1, 2), F(1, 2)).predicted_steps == pytest.approx(3)
    # the log argument is 1 when d0 = (1-c)*eps/2
    c, eps = F(1, 2), F(1, 3)
    d0 = (1 - c) * eps / 2
    assert predict_iterations(d0, c, eps).predicted_steps == pytest.approx(0)
    # 2^-n * 8 <= 1/2 needs n = 4
    assert predict_iterations(4, F(1, 2), F(1)).predicted_steps == pytest.approx(4)
    # a 2-point corpus map at c = 9/10, eps = 1/2 with d0 = 5/2 whose start
    # lies more than eps from the fixed point, so it needs one step
    assert predict_iterations(F(5, 2), F(9, 10), F(1, 2)).budget >= 1


def least_steps(d0, c, eps) -> int:
    n = 0
    while c**n * d0 / (1 - c) > eps / 2:
        n += 1
    return n


def test_global_budget_settled_exactly_at_boundary():
    # d0 = (1-c)*eps/(2c) meets c^1*d0/(1-c) <= eps/2 with equality, so 1 step
    # suffices; the float formula reads 1 + 4e-16, whose ceiling is 2
    c, eps = F(1, 3), F(1, 8)
    budget = predict_iterations((1 - c) * eps / 2 / c, c, eps)
    assert 1 < budget.predicted_steps < 1 + 1e-12
    assert budget.budget == 1
    # just past the boundary the float formula reads 0.0 but one step is needed
    c = F(1, 2)
    budget = predict_iterations((1 - c) * eps / 2 * (1 + F(1, 10**20)), c, eps)
    assert budget.predicted_steps == 0
    assert budget.budget == 1


@pytest.mark.parametrize("c", [F(1, 3), F(1, 2), F(9, 10)])
@pytest.mark.parametrize("eps", [F(1, 8), F(1, 2), F(1)])
def test_global_budget_is_least_n_on_rationals(c, eps):
    for k in range(8):
        for d0 in ((1 - c) * eps / 2 / c**k, F(7, 3) / c**k):
            assert predict_iterations(d0, c, eps).budget == least_steps(d0, c, eps)


def test_global_budget_near_one_skips_exact_powers():
    # c^n at n ~ 2.2e10 would need about 6.6e11 bits; the float formula
    # settles it, accurate here because 1 - c is taken exactly
    c = 1 - F(1, 10**9)
    budget = predict_iterations(1, c, F(1, 2))
    # log(1/c) = 1e-9 + 1e-18/2 + O(1e-27)
    assert budget.predicted_steps == pytest.approx(math.log(4e9) / (1e-9 + 5e-19), rel=1e-12)
    assert budget.budget == math.ceil(budget.predicted_steps)


@pytest.mark.parametrize("c", [F(1, 3), F(9, 10)])
def test_global_budget_past_exact_bits_stays_an_upper_bound(c, monkeypatch):
    # with no exact test allowed a boundary case takes the top of the window
    monkeypatch.setattr(iteration, "_EXACT_BITS", 0)
    eps = F(1, 8)
    for k in range(1, 8):
        d0 = (1 - c) * eps / 2 / c**k
        assert predict_iterations(d0, c, eps).budget in (k, k + 1)


def test_global_budget_zero_d0():
    budget = predict_iterations(0, F(1, 2), F(1, 4))
    assert budget.budget == 0
    assert budget.predicted_steps == -math.inf


def test_sound_budget_dominates_classic_form():
    # the budget n meets c^n d0/(1-c) <= eps/2
    for d0 in (F(1, 4), F(1), F(7, 2)):
        for c in (F(1, 4), F(1, 2), F(9, 10)):
            for eps in (F(1, 8), F(1, 2)):
                n = predict_iterations(d0, c, eps).budget
                assert float(c) ** n * float(d0) / (1 - float(c)) <= float(eps) / 2 + 1e-12


def test_budget_argument_validation():
    with pytest.raises(ValueError):
        predict_iterations(1, F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        predict_iterations(1, F(1, 2), 0)
    with pytest.raises(ValueError):
        run_bip(halve, ONES, l1, F(1, 8), 0)


@pytest.mark.parametrize("d0, c, eps, message", [
    (-1, F(1, 2), F(1, 8), "d0 must be nonnegative"),
    (1, F(3, 2), F(1, 2), "c must lie in (0,1)"),
    (1, F(1, 2), 0, "eps must be positive"),
])
def test_budget_argument_errors(d0, c, eps, message):
    with pytest.raises(InputError) as exc:
        predict_iterations(d0, c, eps)
    assert str(exc.value) == message


def test_budget_ceiling_clamped_at_zero():
    # d0 far below (1-c)*eps/2 sends the formula negative; no step is needed
    budget = predict_iterations(F(1, 1000), F(1, 2), F(1, 2))
    assert budget.predicted_steps < 0
    assert budget.budget == 0
    budget = predict_iterations(5, F(1, 2), F(1))
    assert 4 < budget.predicted_steps < 5
    assert budget.budget == 5


def assert_least_steps(budget, d0, c, eps):
    n = budget.budget
    assert c**n * d0 / (1 - c) <= eps / 2
    assert n == 0 or c ** (n - 1) * d0 / (1 - c) > eps / 2


@pytest.mark.parametrize("d0, c, eps", [
    (F(10**400), F(1, 2), F(1, 8)),  # float(d0) overflows
    (F(1, 10**400), F(1, 2), F(1, 10**420)),  # float(d0) and float(eps) underflow
    (F(10**500), F(1, 10**400), F(1)),  # float(1 - c) rounds to 1
    (F(7, 3), F(1, 3), F(1, 10**310)),  # 2/((1-c)*eps) overflows
])
def test_global_budget_outside_the_float_range(d0, c, eps):
    budget = predict_iterations(d0, c, eps)
    assert budget.budget > 0
    assert_least_steps(budget, d0, c, eps)


@pytest.mark.parametrize("c", [F(1, 10**8), F(3, 10**9), F(1, 10**12)])
def test_global_budget_is_least_n_for_small_c(c):
    # float(1 - c) keeps only about 16 digits of c here, enough to move the
    # float formula across an integer 1e-9 away from a boundary
    eps = F(1, 8)
    for k in range(1, 4):
        boundary = (1 - c) * eps / 2 / c**k
        for d0 in (boundary * (1 + F(1, 10**9)), boundary * (1 - F(1, 10**9))):
            assert_least_steps(predict_iterations(d0, c, eps), d0, c, eps)


@pytest.mark.parametrize("gap", [F(1, 10**400), F(1, 10**307)])
def test_global_budget_with_c_too_close_to_one_is_rejected(gap):
    with pytest.raises(ValueError, match="no iteration budget is representable"):
        predict_iterations(1, 1 - gap, F(1, 2))
