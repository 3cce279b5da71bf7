import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mpmath import iv

from contraction_kit.circuit import CircuitBuilder, CircuitError
from contraction_kit.cls import BanachInstance, CLSLocalInstance, Solution, verify, verify_banach
from contraction_kit.gridsearch import solve_instance
from contraction_kit.library import (
    affine_contraction_circuit,
    as_point,
    circuit_fn,
    constant_potential_circuit,
    coordinate_potential_circuit,
    flip_map_circuit,
    identity_map_circuit,
    l1_distance_circuit,
    l1_potential_circuit,
    scaling_map_circuit,
    sq_l2_distance_circuit,
)
from contraction_kit.metrics import check_metric_axioms
from contraction_kit.reduce import (
    CLSLOCAL_TO_BANACH,
    MetricCertification,
    ReductionArtifacts,
    ReductionBug,
    TriangleCaseVerdict,
    build_interpolated_metric_circuit,
    build_interpolation_circuit,
    build_kappa_circuit,
    ceil_fraction,
    certified_lambda_prime,
    certify_constructed_metric,
    map_banach_solution_to_cls_local,
    map_cls_local_solution_to_banach,
    reduce_banach_to_cls_local,
    reduce_cls_local_to_banach,
    smooth_interpolation,
)

ORIGIN = (F(0), F(0), F(0))
E1 = (F(1), F(0), F(0))
HALF = (F(1, 2), F(1, 2), F(1, 2))


# ---------------------------------------------------------------- B(w)


def test_interpolation_reference_values():
    c = F(9, 10)
    assert smooth_interpolation(F(0), c) == 1
    assert smooth_interpolation(F(-2), c) == F(100, 81)
    # halfway between the lattice values c^-1 and c^0
    assert smooth_interpolation(F(-3, 2), c) == F(19, 18)


def test_interpolation_circuit_matches_reference():
    c = F(9, 10)
    circ = build_interpolation_circuit(c, 10)
    for num in range(0, 101, 7):
        w = -F(num, 10)
        assert circ.evaluate1([w]) == smooth_interpolation(w, c)
    assert circ.evaluate1([F(-3, 2)]) == F(19, 18)


@given(st.fractions(min_value=-10, max_value=0, max_denominator=64),
       st.sampled_from([F(1, 2), F(9, 10), F(39, 40)]))
@settings(max_examples=80, deadline=None)
def test_interpolation_bracketing(w, c):
    value = smooth_interpolation(w, c)
    n = ceil_fraction(w)
    assert c ** (n + 1) <= value <= c ** n


@given(st.fractions(min_value=-8, max_value=0, max_denominator=32),
       st.fractions(min_value=-8, max_value=0, max_denominator=32))
@settings(max_examples=60, deadline=None)
def test_interpolation_envelope_quasi_monotone(w1, w2):
    # the bracketing implies B(w') >= c*B(w) for w' <= w; pointwise
    # monotonicity fails for this interpolation (it is discontinuous
    # at integer arguments)
    c = F(9, 10)
    lo, hi = min(w1, w2), max(w1, w2)
    assert smooth_interpolation(lo, c) >= c * smooth_interpolation(hi, c)


def test_interpolation_is_not_pointwise_monotone():
    c = F(9, 10)
    assert smooth_interpolation(F(-99, 100), c) < smooth_interpolation(F(-1, 2), c)


@given(st.data(), st.integers(min_value=1, max_value=40),
       st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
@settings(max_examples=150, deadline=None)
def test_interpolation_circuit_equals_reference_on_its_range(data, max_abs, c):
    # the peeled remainder is the mixing weight t = ceil(w) - w at every w in range
    w = data.draw(st.fractions(min_value=-max_abs, max_value=0, max_denominator=64))
    circ = build_interpolation_circuit(c, max_abs)
    assert circ.evaluate1([w]) == smooth_interpolation(w, c)


def test_interpolation_circuit_rejects_bad_args():
    with pytest.raises(CircuitError):
        build_interpolation_circuit(F(3, 2), 4)
    with pytest.raises(CircuitError):
        build_interpolation_circuit(F(1, 2), 0)


# ---------------------------------------------------------------- kappa and d


def test_kappa_constant_zero_potential():
    circ = build_kappa_circuit(constant_potential_circuit(0), F(1, 2))
    assert circ.evaluate1([F(1, 3)] * 6) == 0


def test_kappa_coordinate_example():
    circ = build_kappa_circuit(coordinate_potential_circuit(), F(1, 2))
    assert circ.evaluate1(list(E1) + [F(1, 2), F(0), F(0)]) == -2


@given(st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=8)] * 3),
       st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=8)] * 3))
@settings(max_examples=40, deadline=None)
def test_kappa_symmetric(x, y):
    circ = build_kappa_circuit(l1_potential_circuit(HALF, F(1, 3)), F(1, 2))
    assert circ.evaluate1(list(x) + list(y)) == circ.evaluate1(list(y) + list(x))


def test_metric_circuit_zero_on_diagonal_and_one_at_zero_potential():
    d = build_interpolated_metric_circuit(constant_potential_circuit(0), F(1, 2), F(9, 10))
    x = (F(1, 3), F(0), F(1))
    assert d.evaluate1(list(x) + list(x)) == 0
    assert d.evaluate1(list(x) + list(ORIGIN)) == 1


def test_metric_circuit_integer_kappa_example():
    # p = x1, eps = 1/4: p(x) = 3*eps/2 and p(y) = 2*eps give kappa = -2
    d = build_interpolated_metric_circuit(coordinate_potential_circuit(), F(1, 4), F(9, 10))
    x = (F(3, 8), F(0), F(0))
    y = (F(1, 2), F(0), F(0))
    assert d.evaluate1(list(x) + list(y)) == F(100, 81)


def test_metric_circuit_gate_count_logarithmic_in_inv_eps():
    p = coordinate_potential_circuit()
    small = build_interpolated_metric_circuit(p, F(1, 4), F(9, 10))
    large = build_interpolated_metric_circuit(p, F(1, 4096), F(9, 10))
    assert large.gate_count <= small.gate_count + 12 * (4096 .bit_length() - 4 .bit_length())


# ---------------------------------------------------------------- constants


def test_lambda_prime_worked_example():
    # c' = 9/10, eps = 1: the certified bound of (10/9)*ln(10/9) is below 1
    assert certified_lambda_prime(F(1), F(1), F(9, 10)) == 1


def test_lambda_prime_grows_with_inverse_eps():
    assert certified_lambda_prime(F(1), F(1, 10), F(9, 10)) > 1


def test_hardness_constants_at_eps_one():
    inst = CLSLocalInstance(
        scaling_map_circuit(F(1, 2)), l1_potential_circuit(ORIGIN, F(1, 3)), F(1), F(1)
    )
    art = reduce_cls_local_to_banach(inst)
    assert art.substitutions["c_prime"] == F(9, 10)
    assert art.substitutions["eps_prime"] == F(10, 9)
    assert art.produced.c == F(9, 10)
    assert not art.produced.metric_promised


def test_hardness_rejects_large_eps():
    inst = CLSLocalInstance(
        scaling_map_circuit(F(1, 2)), l1_potential_circuit(ORIGIN, F(1, 3)), F(12), F(1)
    )
    with pytest.raises(CircuitError, match="below 10"):
        reduce_cls_local_to_banach(inst)


def test_half_eps_uses_rescaled_constants():
    inst = CLSLocalInstance(
        scaling_map_circuit(F(1, 2)), l1_potential_circuit(ORIGIN, F(1, 3)), F(1), F(1)
    )
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    assert art.substitutions["eps_r"] == F(1, 2)
    assert art.substitutions["c_prime"] == F(19, 20)
    assert "half-eps" in art.provenance_text()


def test_constructed_metric_lower_bound_on_samples():
    inst = CLSLocalInstance(
        scaling_map_circuit(F(1, 2)), l1_potential_circuit(HALF, F(1, 3)), F(1, 2), F(1)
    )
    art = reduce_cls_local_to_banach(inst)
    d = circuit_fn(art.produced.d)
    c_prime = art.substitutions["c_prime"]
    rng = random.Random(3)
    for _ in range(64):
        x = tuple(F(rng.randint(0, 16), 16) for _ in range(3))
        y = tuple(F(rng.randint(0, 16), 16) for _ in range(3))
        if x != y:
            assert d(x, y) >= c_prime


# ---------------------------------------------------------------- membership direction


def test_membership_constants_and_potential():
    inst = BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1), F(1, 2)
    )
    art = reduce_banach_to_cls_local(inst)
    assert art.substitutions["eps_prime"] == F(1, 8)
    assert art.substitutions["eps_prime"] < inst.eps
    p = circuit_fn(art.produced.p)
    assert p((F(1), F(1), F(1))) == F(3, 2)  # |x - x/2|_1


def test_membership_identity_gives_zero_potential():
    inst = BanachInstance(identity_map_circuit(), l1_distance_circuit(), F(1, 4), F(1), F(1, 2))
    art = reduce_banach_to_cls_local(inst)
    p = circuit_fn(art.produced.p)
    assert p((F(1, 3), F(2, 3), F(1))) == 0
    assert verify(art.produced, Solution("CO1", (HALF,)))


def test_backmap_co1_to_oa_at_fixed_point():
    inst = BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1), F(1, 2)
    )
    mapped = map_cls_local_solution_to_banach(inst, Solution("CO1", (ORIGIN,)))
    assert mapped.kind == "Oa"
    assert verify_banach(inst, mapped)


def test_backmap_co1_to_ob_branch():
    # the flip map keeps d(f(x), f(f(x))) = d(x, f(x)) = 1 > c * 1
    inst = BanachInstance(flip_map_circuit(), l1_distance_circuit(), F(1, 4), F(1), F(1, 2))
    mapped = map_cls_local_solution_to_banach(inst, Solution("CO1", (ORIGIN,)))
    assert mapped.kind == "Ob"
    assert mapped.witnesses == (ORIGIN, E1)


def test_backmap_co2_to_oc():
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    stretch = b.build([b.mul(xs[0], b.const(2)), b.add(xs[1], zero), b.add(xs[2], zero)])
    # f doubles x1, so it is not in [0,1]^3 on all of the cube; witnesses stay inside
    inst = BanachInstance(stretch, l1_distance_circuit(), F(1, 100), F(3, 2), F(1, 2))
    sol = Solution("CO2", (ORIGIN, (F(1, 2), F(0), F(0))))
    mapped = map_cls_local_solution_to_banach(inst, sol)
    assert mapped.kind == "Oc"


def test_backmap_co3_to_od_with_moving_points():
    inst = BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1, 4), F(1, 2)
    )
    sol = Solution("CO3", ((F(1), F(1), F(1)), HALF))
    mapped = map_cls_local_solution_to_banach(inst, sol)
    assert mapped.kind == "Od"
    # witnesses are (x, f(x), y, f(y)) after ordering by |z - f(z)|_1
    assert mapped.witnesses[0] == HALF
    assert mapped.witnesses[1] == (F(1, 4), F(1, 4), F(1, 4))


def test_backmap_co3_degenerate_oe_on_syntactic():
    # d(x,x) = 1 whenever x1 > 1/2: an identity-of-indiscernibles violation
    b = CircuitBuilder()
    xs = b.inputs(3)
    b.inputs(3)
    d = b.build([b.gt(xs[0], b.const(F(1, 2)))])
    inst = BanachInstance(identity_map_circuit(), d, F(1, 4), F(1, 4), F(1, 2))
    sol = Solution("CO3", ((F(51, 100), F(0), F(0)), (F(49, 100), F(0), F(0))))
    mapped = map_cls_local_solution_to_banach(inst, sol)
    assert mapped.kind == "Oe"
    assert verify_banach(inst, mapped)


def test_backmap_rejects_unverified_input():
    inst = BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1), F(1, 2)
    )
    with pytest.raises(ReductionBug, match="does not verify"):
        map_cls_local_solution_to_banach(inst, Solution("CO2", (ORIGIN, E1)))


# ---------------------------------------------------------------- hardness direction


def hardness_instance(eps=F(1, 2), lam=F(1), scale=F(1, 2)):
    return CLSLocalInstance(
        affine_contraction_circuit(scale, HALF), l1_potential_circuit(HALF, F(1, 3)), eps, lam
    )


def test_hardness_roundtrip_with_half_eps():
    inst = hardness_instance()
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    sol = solve_instance(art.produced)
    assert sol is not None
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert verify(inst, mapped)


def test_backmap_oa_to_co1():
    inst = hardness_instance()
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    mapped = map_banach_solution_to_cls_local(inst, art, Solution("Oa", (HALF,)))
    assert mapped.kind == "CO1"
    assert verify(inst, mapped)


def test_backmap_oc_to_co2():
    # a potential with a Lipschitz break: p = step at 1/2 scaled into [0,1]
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    f = b.build([b.gt(xs[0], b.const(F(1, 2))), b.add(xs[1], zero), b.add(xs[2], zero)])
    inst = CLSLocalInstance(f, l1_potential_circuit(ORIGIN, F(1, 3)), F(1, 2), F(1))
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    sol = Solution("Oc", ((F(49, 100), F(0), F(0)), (F(51, 100), F(0), F(0))))
    assert verify_banach(art.produced, sol)
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert mapped.kind == "CO2"


def test_backmap_ob_to_co1_through_kappa_branch():
    # a step of 3/8 drops p = x1 by 1.5*eps_r: enough to break the c'
    # contraction between kappa cells, yet within the 2*eps_r back-map slack
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    f_circ = b.build([b.max(b.sub(xs[0], b.const(F(3, 8))), zero),
                      b.add(xs[1], zero), b.add(xs[2], zero)])
    inst = CLSLocalInstance(f_circ, coordinate_potential_circuit(), F(1, 2), F(1))
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    x = (F(5, 8), F(0), F(0))
    y = (F(5, 8), F(1), F(0))
    sol = Solution("Ob", (x, y))
    assert verify_banach(art.produced, sol).accepted
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert mapped.kind == "CO1"
    assert mapped.witnesses == (x,)
    assert verify(inst, mapped)


def test_backmap_od_to_co3_on_genuine_potential_break():
    # p itself has a Lipschitz break at x1 = 1/2, so the metric circuit's
    # Lipschitz violation back-maps to an honest CO3 at (x1, y1)
    b = CircuitBuilder()
    xs = b.inputs(3)
    p = b.build([b.gt(xs[0], b.const(F(1, 2)))])
    inst = CLSLocalInstance(identity_map_circuit(), p, F(1, 2), F(1))
    art = reduce_cls_local_to_banach(inst, half_eps=True)
    x1 = (F(51, 100), F(0), F(0))
    y1 = (F(49, 100), F(0), F(0))
    far = (F(0), F(0), F(1))
    sol = Solution("Od", (x1, far, y1, far))
    assert verify_banach(art.produced, sol).accepted
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert mapped.kind == "CO3"
    assert mapped.witnesses == (x1, y1)
    assert verify(inst, mapped)


def test_backmap_od_refuted_when_p_is_lipschitz():
    # an Od witness caused by the interpolation's jump at integer kappa, not
    # by p: the back-mapping must flag it instead of minting a false CO3
    inst = CLSLocalInstance(
        identity_map_circuit(), coordinate_potential_circuit(), F(1, 2), F(1)
    )
    art = reduce_cls_local_to_banach(inst)  # eps_r = 1/2, c' = 19/20
    x1, x2 = E1, (F(1), F(1, 2), F(0))
    y1, y2 = (F(31, 32), F(0), F(0)), (F(31, 32), F(1, 2), F(0))
    sol = Solution("Od", (x1, x2, y1, y2))
    assert verify_banach(art.produced, sol).accepted
    with pytest.raises(ReductionBug, match="refuted"):
        map_banach_solution_to_cls_local(inst, art, sol)


def test_contraction_transfer_for_exact_eps_drops():
    # when the larger endpoint potential drops by exactly eps along a step,
    # the interpolation identity B(w+1) = c*B(w) makes the constructed d
    # contract at exactly c'
    eps = F(1, 4)
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    f_circ = b.build([b.max(b.sub(xs[0], b.const(eps)), zero),
                      b.add(xs[1], zero), b.add(xs[2], zero)])
    inst = CLSLocalInstance(f_circ, coordinate_potential_circuit(), eps, F(1))
    art = reduce_cls_local_to_banach(inst)
    d = circuit_fn(art.produced.d)
    f = circuit_fn(f_circ)
    c_prime = art.substitutions["c_prime"]
    rng = random.Random(5)
    for _ in range(50):
        x = (F(rng.randint(4, 16), 16), F(rng.randint(0, 16), 16), F(0))
        y = (F(rng.randint(4, 16), 16), F(rng.randint(0, 16), 16), F(1))
        assert d(f(x), f(y)) <= c_prime * d(x, y)


def test_contraction_transfer_fails_when_potential_overshoots():
    # a drop larger than eps can land on the interpolation's plateau at zero
    # potential, where d is pinned at 1 and the c' factor cannot be paid;
    # "drops by at least eps" is not enough for contraction on those samples
    eps = F(1, 2)
    inst = CLSLocalInstance(
        affine_contraction_circuit(F(0), (F(0), F(0), F(0))),  # constant map to 0
        coordinate_potential_circuit(), eps, F(1),
    )
    art = reduce_cls_local_to_banach(inst)
    d = circuit_fn(art.produced.d)
    c_prime = art.substitutions["c_prime"]
    x = (F(3, 5), F(0), F(0))   # potential 1.2*eps, dropping to 0 in one step
    y = (F(3, 5), F(1), F(0))
    fx, fy = (F(0), F(0), F(0)), (F(0), F(1), F(0))
    assert d(fx, fy) > c_prime * d(x, y)


def test_certify_constant_potential_is_scaled_discrete():
    inst = CLSLocalInstance(
        identity_map_circuit(), constant_potential_circuit(F(1, 2)), F(1, 2), F(1)
    )
    art = reduce_cls_local_to_banach(inst)
    rng = random.Random(17)
    triples = [
        tuple(tuple(F(rng.randint(0, 8), 8) for _ in range(3)) for _ in range(3))
        for _ in range(40)
    ]
    report = certify_constructed_metric(art, triples)
    assert report.all_pass
    d = circuit_fn(art.produced.d)
    value = d(ORIGIN, E1)
    assert value == d(E1, (F(0), F(1), F(0)))  # constant off the diagonal


def test_certify_reports_both_triangle_cases():
    inst = hardness_instance()
    art = reduce_cls_local_to_banach(inst)
    triples = [
        (ORIGIN, E1, HALF),                               # p(z) below both endpoints
        (HALF, (F(1, 2), F(1, 2), F(5, 8)), ORIGIN),      # p(z) above both endpoints
        ((F(1), F(1), F(1)), ORIGIN, HALF),
    ]
    report = certify_constructed_metric(art, triples)
    assert report.all_pass
    cases = {v.case for v in report.case_verdicts}
    assert cases == {"p(x)>=p(z)", "p(x)<p(z)"}


def certify_pairwise(artifacts, triples):
    """certify_constructed_metric as one circuit_fn call per pair and per point."""
    d = circuit_fn(artifacts.produced.d)
    p = circuit_fn(artifacts.source.p)
    c_prime = artifacts.substitutions["c_prime"]
    report = MetricCertification()
    for raw in triples:
        triple = tuple(as_point(pt) for pt in raw)
        dist = [[d(a, b) for b in triple] for a in triple]
        pot = [p(a) for a in triple]
        violation = check_metric_axioms(dist, triple)
        if violation is not None:
            report.axiom_failures.append(
                f"{violation.axiom} at {violation.witnesses}: "
                f"lhs={violation.lhs} rhs={violation.rhs}"
            )
        for i, a in enumerate(triple):
            for j, bpt in enumerate(triple):
                if a != bpt:
                    val = dist[i][j]
                    if report.min_offdiag is None or val < report.min_offdiag:
                        report.min_offdiag = val
                    if val < c_prime:
                        report.lower_bound_failures.append(f"d({a},{bpt}) = {val} < c' = {c_prime}")
        x, y, z = 0, 1, 2
        if pot[x] < pot[y]:
            x, y = y, x
        case = "p(x)>=p(z)" if pot[x] >= pot[z] else "p(x)<p(z)"
        lhs, rhs = dist[x][y], dist[x][z] + dist[z][y]
        report.case_verdicts.append(TriangleCaseVerdict(case, lhs <= rhs, lhs, rhs))
    return report


def random_triples(rng, count, denominators):
    return [
        tuple(tuple(F(rng.randint(0, den), den) for den in rng.choices(denominators, k=3))
              for _ in range(3))
        for _ in range(count)
    ]


def lopsided_distance_circuit():
    """2*max(x1-y1, 0) + max(y1-x1, 0): not symmetric, so d(a,b) and d(b,a) differ."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    zero = b.const(0)
    ahead = b.max(b.sub(xs[0], ys[0]), zero)
    behind = b.max(b.sub(ys[0], xs[0]), zero)
    return b.build([b.add(b.mul(ahead, b.const(2)), behind)])


def broken_metric_artifacts(d):
    src = hardness_instance()
    art = reduce_cls_local_to_banach(src)
    banach = BanachInstance(src.f, d, F(1), F(1), F(1, 2))
    return ReductionArtifacts(CLSLOCAL_TO_BANACH, src, banach, dict(art.substitutions))


def assert_same_certification(art, triples):
    got = certify_constructed_metric(art, triples)
    want = certify_pairwise(art, triples)
    assert got.axiom_failures == want.axiom_failures
    assert got.lower_bound_failures == want.lower_bound_failures
    assert got.min_offdiag == want.min_offdiag
    assert type(got.min_offdiag) is type(want.min_offdiag)
    assert got.case_verdicts == want.case_verdicts
    for g, w in zip(got.case_verdicts, want.case_verdicts):
        assert (type(g.lhs), type(g.rhs)) == (type(w.lhs), type(w.rhs)) == (F, F)
    assert got.report_text() == want.report_text()
    return got


@pytest.mark.parametrize("denominators", [[16], [8, 16]])
@pytest.mark.parametrize("half_eps", [False, True])
def test_batched_certificate_matches_pairwise(denominators, half_eps):
    rng = random.Random(8 + len(denominators))
    art = reduce_cls_local_to_banach(hardness_instance(), half_eps=half_eps)
    # a repeated point puts diagonal pairs and d = 0 into the batch
    triples = random_triples(rng, 40, denominators) + [(HALF, HALF, ORIGIN), (E1, E1, E1)]
    assert assert_same_certification(art, triples).all_pass


def test_batched_certificate_matches_pairwise_constant_potential():
    inst = CLSLocalInstance(
        identity_map_circuit(), constant_potential_circuit(F(1, 2)), F(1, 2), F(1)
    )
    art = reduce_cls_local_to_banach(inst)
    triples = random_triples(random.Random(17), 30, [8, 16])
    assert assert_same_certification(art, triples).all_pass


@pytest.mark.parametrize("d", [sq_l2_distance_circuit, lopsided_distance_circuit])
def test_batched_certificate_matches_pairwise_broken_metric(d):
    quarter = (F(1, 4), F(0), F(0))
    half_e1 = (F(1, 2), F(0), F(0))
    triples = [(ORIGIN, half_e1, quarter), (ORIGIN, E1, (F(0), F(1), F(0))),
               ((F(1), F(1), F(1)), ORIGIN, ORIGIN), (ORIGIN, ORIGIN, ORIGIN)]
    triples += random_triples(random.Random(5), 20, [8, 16])
    report = assert_same_certification(broken_metric_artifacts(d()), triples)
    assert not report.all_pass
    assert report.axiom_failures and report.lower_bound_failures


def test_batched_certificate_empty_and_malformed_triples():
    art = reduce_cls_local_to_banach(hardness_instance())
    assert assert_same_certification(art, []).report_text() == (
        "triples checked: 0\naxiom failures: 0\nlower-bound failures: 0\noverall: PASS\n"
    )
    with pytest.raises(ValueError, match="exactly 3 points"):
        certify_constructed_metric(art, [(ORIGIN, E1)])


def test_lambda_prime_restores_interval_precision():
    before = iv.prec
    certified_lambda_prime(F(1), F(1, 2), F(19, 20))
    assert iv.prec == before


def test_backmap_co3_to_oa_at_a_fixed_point():
    # p(x) = K*|x - f(x)|_1 = K/2*|x - t|_1 breaks the small lambda at x = t,
    # and t, the fixed point of f, is an Oa witness
    t = (F(1, 4), F(1, 2), F(3, 4))
    inst = BanachInstance(
        affine_contraction_circuit(F(1, 2), t), l1_distance_circuit(F(1000)), F(1, 4), F(1), F(1, 2)
    )
    mapped = map_cls_local_solution_to_banach(inst, Solution("CO3", (t, ORIGIN)))
    assert mapped == Solution("Oa", (t,))
    assert verify_banach(inst, mapped)


def test_backmap_ob_to_co1_at_x():
    # p = 0 makes the constructed d the discrete metric, so any x != y with
    # f(x) != f(y) is an Ob witness, and p(f(x)) = 0 > p(x) - eps_r
    inst = CLSLocalInstance(scaling_map_circuit(F(1, 2)), constant_potential_circuit(0), F(1, 2), F(1))
    art = reduce_cls_local_to_banach(inst)
    sol = Solution("Ob", (E1, ORIGIN))
    assert verify_banach(art.produced, sol)
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert mapped == Solution("CO1", (E1,))
    assert verify(inst, mapped)


def test_backmap_ob_to_co1_at_y():
    # p = x1 with f(v) = (v1*v2, v2, v3): p drops by 1 at x and not at all at y,
    # while kappa, and so d, is the same before and after the step
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    f_circ = b.build([b.mul(xs[0], xs[1]), b.add(xs[1], zero), b.add(xs[2], zero)])
    inst = CLSLocalInstance(f_circ, coordinate_potential_circuit(), F(1, 2), F(1))
    art = reduce_cls_local_to_banach(inst)
    x, y = E1, (F(1), F(1), F(0))
    sol = Solution("Ob", (x, y))
    assert verify_banach(art.produced, sol)
    mapped = map_banach_solution_to_cls_local(inst, art, sol)
    assert mapped == Solution("CO1", (y,))
    assert verify(inst, mapped)
