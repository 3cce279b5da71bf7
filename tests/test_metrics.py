import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from contraction_kit.library import (
    circuit_fn,
    discrete_metric_circuit,
    identity_map_circuit,
    l1,
    l1_distance_circuit,
    linf_distance_circuit,
    scaling_map_circuit,
    sq_l2_distance_circuit,
    step_map_circuit,
)
from contraction_kit.metrics import (
    AXIOM_TRIANGLE,
    PointPair,
    check_metric_axioms,
    check_metric_matrix,
    find_contraction_violation,
    find_lipschitz_violation,
)

ORIGIN = (F(0), F(0), F(0))
E1 = (F(1), F(0), F(0))
E2 = (F(0), F(1), F(0))
MID = (F(1, 2), F(0), F(0))

rational = st.fractions(min_value=0, max_value=1, max_denominator=32)
points = st.tuples(rational, rational, rational)


def test_squared_l2_triangle_violation_with_midpoint():
    violation = check_metric_axioms(sq_l2_distance_circuit(), [ORIGIN, E1, E2, MID])
    assert violation is not None
    assert violation.axiom == AXIOM_TRIANGLE
    # d(0, e1) = 1 exceeds the chain through the midpoint: 1/4 + 1/4
    assert violation.lhs == 1
    assert violation.rhs == F(1, 2)
    assert violation.replay(circuit_fn(sq_l2_distance_circuit()))


def test_squared_l2_passes_without_midpoint():
    assert check_metric_axioms(sq_l2_distance_circuit(), [ORIGIN, E1, E2]) is None


def test_l1_circuit_is_a_metric():
    assert check_metric_axioms(l1_distance_circuit(), [ORIGIN, E1, E2, MID]) is None


def test_discrete_metric_passes():
    assert check_metric_axioms(discrete_metric_circuit(), [ORIGIN, (F(1), F(1), F(1))]) is None


@given(st.lists(points, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_true_metrics_pass_on_random_point_sets(pts):
    for circ in (l1_distance_circuit(), linf_distance_circuit(), discrete_metric_circuit()):
        assert check_metric_axioms(circ, pts) is None


def test_identity_map_is_one_lipschitz():
    pairs = [PointPair(ORIGIN, E1), PointPair(E1, E2), PointPair(MID, E2)]
    assert find_lipschitz_violation(identity_map_circuit(), F(1), pairs) is None


def test_step_circuit_lipschitz_violation():
    pair = PointPair((F(49, 100), F(0), F(0)), (F(51, 100), F(0), F(0)))
    violation = find_lipschitz_violation(step_map_circuit(), F(1), [pair])
    assert violation is not None
    assert violation.lhs == 1
    assert violation.rhs == F(2, 100)


def test_halving_map_quarter_lipschitz_violation():
    violation = find_lipschitz_violation(
        scaling_map_circuit(F(1, 2)), F(1, 4), [PointPair(ORIGIN, E1)]
    )
    assert violation is not None
    assert violation.lhs == F(1, 2)
    assert violation.rhs == F(1, 4)


def test_halving_contracts_at_one_half():
    pairs = [PointPair(ORIGIN, E1), PointPair(E1, E2)]
    assert find_contraction_violation(scaling_map_circuit(F(1, 2)), l1, F(1, 2), pairs) is None


def test_halving_violates_one_quarter():
    violation = find_contraction_violation(
        scaling_map_circuit(F(1, 2)), l1, F(1, 4), [PointPair(ORIGIN, E1)]
    )
    assert violation is not None
    assert violation.lhs == F(1, 2)
    assert violation.rhs == F(1, 4)


def test_power_iteration_expands_l2_at_c_one():
    # the diag(2,1) normalized power step on the documented pair, with the
    # float coordinates converted exactly to rationals
    x = tuple(F(v) for v in (1 / math.sqrt(5), 2 / math.sqrt(5)))
    y = tuple(F(v) for v in (1 / math.sqrt(10), 3 / math.sqrt(10)))

    def f(pt):
        a, b = float(pt[0]), float(pt[1])
        n = math.hypot(2 * a, b)
        return (F(2 * a / n), F(b / n))

    def dist(u, v):
        return F(math.hypot(float(u[0] - v[0]), float(u[1] - v[1])))

    class Pair:
        pass

    pair = Pair()
    pair.x, pair.y = x, y
    violation = find_contraction_violation(f, dist, F(1), [pair])
    assert violation is not None
    assert float(violation.lhs) > float(violation.rhs)


@given(
    st.fractions(min_value="1/100", max_value="99/100", max_denominator=100),
    st.fractions(min_value="1/100", max_value="99/100", max_denominator=100),
    st.lists(st.tuples(points, points), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_contraction_violation_monotone_in_c(c1, c2, raw_pairs):
    lo, hi = min(c1, c2), max(c1, c2)
    pairs = [PointPair(a, b) for a, b in raw_pairs]
    f = scaling_map_circuit(F(3, 4))
    if find_contraction_violation(f, l1, lo, pairs) is None:
        assert find_contraction_violation(f, l1, hi, pairs) is None


def test_violation_replay_reproduces_inequality():
    violation = check_metric_axioms(sq_l2_distance_circuit(), [ORIGIN, E1, MID])
    assert violation is not None
    assert violation.replay(circuit_fn(sq_l2_distance_circuit()))


def test_matrix_checker_accepts_and_rejects():
    good = [[F(0), F(1)], [F(1), F(0)]]
    assert check_metric_matrix(good) is None
    asym = [[F(0), F(1)], [F(2), F(0)]]
    assert "SYMMETRY" in check_metric_matrix(asym)
    bad_triangle = [
        [F(0), F(1), F(3)],
        [F(1), F(0), F(1)],
        [F(3), F(1), F(0)],
    ]
    assert "TRIANGLE" in check_metric_matrix(bad_triangle)
    # two axioms fail: the report names the first in axiom order
    assert check_metric_matrix([[F(1), F(-1)], [F(-1), F(0)]]) == "NONNEG: d(0,1) = -1 < 0"
    assert check_metric_matrix([[F(0)], [F(0)]]) == "row 0 has length 1, expected 2"
