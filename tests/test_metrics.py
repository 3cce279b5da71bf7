import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contraction_kit import metrics
from contraction_kit.circuit import CircuitBuilder, Scaled, int_dtype
from contraction_kit.library import (
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
    TRIANGLE_BLOCK,
    _describe_first_failure,
    _first_failure,
    check_metric_axioms,
    check_metric_matrix,
    contraction_violated,
    lipschitz_violated,
    metric_failure_mask,
    semimetric_mask,
    triangle_mask,
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
    assert_triangle_fails(violation)


def assert_triangle_fails(violation):
    assert violation.axiom == AXIOM_TRIANGLE
    d = sq_l2_distance_circuit()
    x, y, z = violation.witnesses
    assert d(x, y) > d(x, z) + d(z, y)


def test_squared_l2_passes_without_midpoint():
    assert check_metric_axioms(sq_l2_distance_circuit(), [ORIGIN, E1, E2]) is None


def test_l1_circuit_is_a_metric():
    assert check_metric_axioms(l1_distance_circuit(), [ORIGIN, E1, E2, MID]) is None


@pytest.mark.parametrize("inputs, outputs", [(6, 2), (3, 1)])
def test_check_metric_axioms_refuses_a_circuit_of_other_arity(inputs, outputs):
    b = CircuitBuilder()
    circuit = b.build(b.inputs(inputs)[:outputs])
    with pytest.raises(ValueError) as exc:
        check_metric_axioms(circuit, [ORIGIN, E1])
    assert str(exc.value) == "distance circuit must map 6 inputs to 1 output"


def test_discrete_metric_passes():
    assert check_metric_axioms(discrete_metric_circuit(), [ORIGIN, (F(1), F(1), F(1))]) is None


@given(st.lists(points, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_true_metrics_pass_on_random_point_sets(pts):
    for circ in (l1_distance_circuit(), linf_distance_circuit(), discrete_metric_circuit()):
        assert check_metric_axioms(circ, pts) is None


def test_identity_map_is_one_lipschitz():
    f = identity_map_circuit()
    for x, y in [(ORIGIN, E1), (E1, E2), (MID, E2)]:
        assert not lipschitz_violated(f, F(1), x, y)[0]


def test_step_circuit_lipschitz_violation():
    x, y = (F(49, 100), F(0), F(0)), (F(51, 100), F(0), F(0))
    assert lipschitz_violated(step_map_circuit(), F(1), x, y) == (True, 1, F(2, 100))


def test_halving_map_quarter_lipschitz_violation():
    f = scaling_map_circuit(F(1, 2))
    assert lipschitz_violated(f, F(1, 4), ORIGIN, E1) == (True, F(1, 2), F(1, 4))


def test_halving_contracts_at_one_half():
    f = scaling_map_circuit(F(1, 2))
    for x, y in [(ORIGIN, E1), (E1, E2)]:
        assert not contraction_violated(f, l1, F(1, 2), x, y)[0]


def test_halving_violates_one_quarter():
    f = scaling_map_circuit(F(1, 2))
    assert contraction_violated(f, l1, F(1, 4), ORIGIN, E1) == (True, F(1, 2), F(1, 4))


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

    violated, lhs, rhs = contraction_violated(f, dist, F(1), x, y)
    assert violated
    assert float(lhs) > float(rhs)


@given(
    st.fractions(min_value="1/100", max_value="99/100", max_denominator=100),
    st.fractions(min_value="1/100", max_value="99/100", max_denominator=100),
    st.lists(st.tuples(points, points), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_contraction_violation_monotone_in_c(c1, c2, raw_pairs):
    lo, hi = min(c1, c2), max(c1, c2)
    f = scaling_map_circuit(F(3, 4))
    for x, y in raw_pairs:
        if contraction_violated(f, l1, hi, x, y)[0]:
            assert contraction_violated(f, l1, lo, x, y)[0]


def test_violation_replay_reproduces_inequality():
    violation = check_metric_axioms(sq_l2_distance_circuit(), [ORIGIN, E1, MID])
    assert violation is not None
    assert_triangle_fails(violation)


def test_matrix_checker_accepts_and_rejects():
    good = [[F(0), F(1)], [F(1), F(0)]]
    assert check_metric_matrix(Scaled.of(good)) is None
    asym = [[F(0), F(1)], [F(2), F(0)]]
    assert "SYMMETRY" in check_metric_matrix(Scaled.of(asym))
    bad_triangle = [
        [F(0), F(1), F(3)],
        [F(1), F(0), F(1)],
        [F(3), F(1), F(0)],
    ]
    assert "TRIANGLE" in check_metric_matrix(Scaled.of(bad_triangle))
    # two axioms fail: the report names the first in axiom order
    assert check_metric_matrix(Scaled.of([[F(1), F(-1)], [F(-1), F(0)]])) == "NONNEG: d(0,1) = -1 < 0"


METRIC_3 = [[F(0), F(1), F(3, 2)], [F(1), F(0), F(1)], [F(3, 2), F(1), F(0)]]
# entries that break exactly one axiom of the metric above, and the report's prefix
AXIOM_BREAKS = [
    ({(0, 2): F(-1, 2)}, "NONNEG: d(0,2)"),
    ({(1, 1): F(1, 3)}, "IDENTITY: d(1,1)"),
    ({(0, 2): F(0), (2, 0): F(0)}, "IDENTITY: d(0,2) = 0"),
    ({(1, 2): F(5, 4)}, "SYMMETRY: d(1,2)"),
    ({(0, 2): F(3), (2, 0): F(3)}, "TRIANGLE: d(0,2)"),
]


@pytest.mark.parametrize("scale", [1, 2**63])
@pytest.mark.parametrize("cells, prefix", AXIOM_BREAKS)
def test_matrix_checker_matches_reference_on_each_axiom(scale, cells, prefix):
    dist = [r[:] for r in METRIC_3]
    for (i, j), value in cells.items():
        dist[i][j] = value
    dist = [[v * scale for v in r] for r in dist]
    assert Scaled.of(dist).num.dtype == (object if scale > 1 else np.int64)
    message = check_metric_matrix(Scaled.of(dist))
    assert message == _describe_first_failure(dist)
    assert message.startswith(prefix)
    assert check_metric_matrix(Scaled.of([[v * scale for v in r] for r in METRIC_3])) is None


@given(st.integers(1, 7), st.sampled_from(["raw", "symmetric"]), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_checker_matches_reference_scan(n, shape, huge, data):
    # symmetric entries in [1, 2] always form a metric; [1, 5] often breaks the triangle
    low = -1 if shape == "raw" else 1
    high = data.draw(st.sampled_from([2, 5]))
    sixths = data.draw(st.lists(st.integers(6 * low, 6 * high), min_size=n * n, max_size=n * n))
    dist = [[F(v, 6) for v in sixths[i * n : (i + 1) * n]] for i in range(n)]
    if shape == "symmetric":
        for i in range(n):
            dist[i][i] = F(0)
            for j in range(i):
                dist[j][i] = dist[i][j]
    if huge:
        dist = [[v * 2**64 for v in r] for r in dist]
    failed = _first_failure(dist, range(n)) is not None
    assert check_metric_matrix(Scaled.of(dist)) == (_describe_first_failure(dist) if failed else None)


@given(st.integers(1, 5), st.integers(0, 4), st.booleans(), st.booleans(), st.booleans(),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_semimetric_failure_matches_entry_scan(k, count, zero_diagonal, positive, symmetric, huge,
                                               data):
    # each semimetric property can be forced on the drawn matrices; with all three nothing
    # fails.  Keys from three values put repeated points, where a zero off the diagonal is
    # no failure
    mats, keys = [], []
    for _ in range(count):
        entries = data.draw(st.lists(st.integers(-1, 3), min_size=k * k, max_size=k * k))
        rho = [[F(v, 2) for v in entries[i * k : (i + 1) * k]] for i in range(k)]
        for i in range(k):
            if zero_diagonal:
                rho[i][i] = F(0)
            if positive:
                rho[i] = [v if j == i else abs(v) + F(1, 2) for j, v in enumerate(rho[i])]
        if symmetric:
            for i in range(k):
                for j in range(i):
                    rho[j][i] = rho[i][j]
        if huge:
            rho = [[v * 2**64 for v in r] for r in rho]
        mats.append(rho)
        keys.append(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    failures = [_first_failure(rho, key) for rho, key in zip(mats, keys)]
    expected = [f is not None and f[0] != AXIOM_TRIANGLE for f in failures]
    assert not any(expected) or not (zero_diagonal and positive and symmetric)
    stack = Scaled.of([row for rho in mats for row in rho]).num.reshape(count, k, k)
    nonzero = any(v for rho in mats for row in rho for v in row)
    assert stack.dtype == (object if huge and nonzero else np.int64)
    distinct = np.array([[[a != b for b in key] for a in key] for key in keys], dtype=bool)
    distinct = distinct.reshape(count, k, k)
    assert semimetric_mask(stack, distinct).tolist() == expected
    assert semimetric_mask(stack.astype(object), distinct).tolist() == expected
    # one matrix at a time, as geodesic_closure calls it
    assert [bool(semimetric_mask(d, m)) for d, m in zip(stack, distinct)] == expected


@given(st.integers(0, 4), st.integers(0, 5), st.sampled_from(["raw", "semimetric", "line"]),
       st.sampled_from(["plain", "edge", "huge"]), st.sampled_from(["one", "cross", "small"]), st.data())
@settings(max_examples=200, deadline=None)
def test_metric_failure_mask_matches_first_failure(k, count, shape, scale, blocks, data):
    # keys from two values put repeated points, where a zero off the diagonal is no failure
    mats, keys = [], []
    for _ in range(count):
        entries = data.draw(st.lists(st.integers(-1, 4), min_size=k * k, max_size=k * k))
        dist = [[F(v, 3) for v in entries[i * k : (i + 1) * k]] for i in range(k)]
        if shape == "semimetric":  # zero diagonal and symmetric: the triangle decides
            for i in range(k):
                dist[i][i] = F(0)
                for j in range(i):
                    dist[j][i] = dist[i][j] = abs(dist[i][j])
        if shape == "line" and k > 1:
            # points on a line: each point between i and j gives a path that ties
            # with d[i,j]; one pair moved by 1/3 then keeps or breaks those ties
            dist = [[abs(x - y) for y in entries[:k]] for x in entries[:k]]
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            dist[i][j] = dist[j][i] = dist[i][j] + data.draw(st.sampled_from([F(-1, 3), F(0), F(1, 3)]))
        mats.append(dist)
        keys.append(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    # a positive factor keeps every failure, so the answers are read before scaling
    expected = [_first_failure(dist, key) is not None for dist, key in zip(mats, keys)]
    stack = Scaled.of([row for dist in mats for row in dist]).num.reshape(count, k, k)
    top = int(abs(stack).max(initial=0))
    if scale == "edge" and top:  # as close to int_dtype's int64 bound 2**62 - 1 as a factor gets
        stack = stack * ((2**62 - 1) // top)
        assert 2**62 - top <= abs(stack).max() and int_dtype(int(abs(stack).max())) is np.int64
    elif scale == "huge" and top:  # entries past 2**63, held as Python ints
        stack = stack.astype(object) * 2**64
    distinct = np.array([[[a != b for b in key] for a in key] for key in keys], dtype=bool)
    distinct = distinct.reshape(count, k, k)
    # one matrix at a time, as _certify calls triangle_mask
    semimetric = ~semimetric_mask(stack, distinct)
    assert [bool(triangle_mask(d)) for d in stack[semimetric]] == [
        not failed for failed, kept in zip(expected, semimetric) if kept
    ]
    block = TRIANGLE_BLOCK
    if blocks == "cross" and count and k > 1:  # three blocks of matrices, each drawn one many times
        picks = np.arange(2 * TRIANGLE_BLOCK // k**3 + 1) % count
        stack, distinct, expected = stack[picks], distinct[picks], [expected[t] for t in picks]
    elif blocks == "small":  # blocks of k rows and of matrices that split unevenly
        block = data.draw(st.sampled_from([1, 20, 40]))
    with mock.patch.object(metrics, "TRIANGLE_BLOCK", block):
        assert metric_failure_mask(stack, distinct).tolist() == expected
        assert metric_failure_mask(stack.astype(object), distinct).tolist() == expected
