from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from corpus import banach_corpus
from contraction_kit.circuit import CircuitBuilder
from contraction_kit.cls import (
    BanachInstance,
    CLSLocalInstance,
    ContractionMapInstance,
    InstanceError,
    Solution,
    SolutionKindError,
    instance_to_text,
    parse_instance,
    parse_solution,
    verify,
    verify_banach,
    verify_cls_local,
    verify_contraction_map,
)
from contraction_kit.gridsearch import solve_instance
from contraction_kit.library import (
    affine_contraction_circuit,
    coordinate_potential_circuit,
    identity_map_circuit,
    l1_distance_circuit,
    scaling_map_circuit,
    sq_l2_distance_circuit,
    step_potential_circuit,
)

ORIGIN = (F(0), F(0), F(0))
E1 = (F(1), F(0), F(0))


def shift_down_map(step: F):
    """x |-> (x1 - step clamped at 0, x2, x3); drops the potential x1 by step."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    out0 = b.max(b.sub(xs[0], b.const(step)), zero)
    return b.build([out0, b.add(xs[1], zero), b.add(xs[2], zero)])


def test_co1_identity_always_accepts():
    inst = CLSLocalInstance(identity_map_circuit(), coordinate_potential_circuit(), F(1, 4), F(1))
    verdict = verify_cls_local(inst, Solution("CO1", ((F(1, 3), F(1, 7), F(1)),)))
    assert verdict.accepted
    assert verdict.lhs == verdict.rhs + inst.eps


def test_co3_step_potential_accepts():
    inst = CLSLocalInstance(identity_map_circuit(), step_potential_circuit(), F(1, 4), F(1))
    sol = Solution("CO3", ((F(49, 100), F(0), F(0)), (F(51, 100), F(0), F(0))))
    verdict = verify_cls_local(inst, sol)
    assert verdict.accepted
    assert verdict.lhs == 1
    assert verdict.rhs == F(2, 100)


def test_co1_rejected_when_potential_drops_two_eps():
    eps = F(1, 4)
    inst = CLSLocalInstance(shift_down_map(2 * eps), coordinate_potential_circuit(), eps, F(1))
    verdict = verify_cls_local(inst, Solution("CO1", (E1,)))
    assert not verdict.accepted
    assert verdict.lhs == F(1, 2)  # p(f(x)) = 1 - 2*eps
    assert verdict.rhs == F(3, 4)  # p(x) - eps


def test_witness_outside_cube_rejected_with_reason():
    inst = CLSLocalInstance(identity_map_circuit(), coordinate_potential_circuit(), F(1, 4), F(1))
    verdict = verify_cls_local(inst, Solution("CO1", ((F(2), F(0), F(0)),)))
    assert not verdict.accepted
    assert "outside" in verdict.reason


def test_kind_namespace_enforced():
    inst = CLSLocalInstance(identity_map_circuit(), coordinate_potential_circuit(), F(1, 4), F(1))
    with pytest.raises(SolutionKindError):
        verify_cls_local(inst, Solution("Oa", (ORIGIN,)))


def banach_halving(metric_promised=False, c=F(1, 2), eps=F(1, 4)):
    return BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), eps, F(1), c,
        metric_promised=metric_promised,
    )


def test_oa_at_origin():
    verdict = verify_banach(banach_halving(), Solution("Oa", (ORIGIN,)))
    assert verdict.accepted
    assert verdict.lhs == 0


def test_ob_quarter_violation():
    verdict = verify_banach(banach_halving(c=F(1, 4)), Solution("Ob", (ORIGIN, E1)))
    assert verdict.accepted
    assert verdict.lhs == F(1, 2)
    assert verdict.rhs == F(1, 4)


def test_ob_rejected_on_genuine_contraction():
    verdict = verify_banach(banach_halving(c=F(3, 4)), Solution("Ob", (ORIGIN, E1)))
    assert not verdict.accepted


def test_oe_triangle_on_squared_l2():
    inst = BanachInstance(
        scaling_map_circuit(F(1, 2)), sq_l2_distance_circuit(), F(1, 4), F(1), F(1, 2)
    )
    sol = Solution("Oe", (ORIGIN, E1, (F(1, 2), F(0), F(0))))
    verdict = verify_banach(inst, sol)
    assert verdict.accepted
    assert verdict.lhs == 1
    assert verdict.rhs == F(1, 2)


def test_oe_against_promise_rejected():
    verdict = verify_banach(banach_halving(metric_promised=True), Solution("Oe", (ORIGIN,)))
    assert not verdict.accepted
    assert "promise" in verdict.reason


def test_od_side_conditions():
    inst = banach_halving()
    same = Solution("Od", (ORIGIN, ORIGIN, E1, (F(0), F(1), F(0))))
    verdict = verify_banach(inst, same)
    assert not verdict.accepted
    assert "side condition" in verdict.reason


def test_od_accepts_on_scaled_metric():
    # d = 2|x-y|_1 is 2-Lipschitz in each argument; lambda = 1 is violated
    inst = BanachInstance(
        identity_map_circuit(), l1_distance_circuit(F(2)), F(1, 4), F(1), F(1, 2)
    )
    sol = Solution("Od", (ORIGIN, E1, ORIGIN, (F(1, 2), F(0), F(0))))
    verdict = verify_banach(inst, sol)
    assert verdict.accepted
    assert verdict.lhs == 1  # |2*1 - 2*(1/2)|
    assert verdict.rhs == F(1, 2)


def test_contraction_map_verifier():
    inst = ContractionMapInstance(identity_map_circuit(), F(1, 4), F(1), F(1, 2))
    assert verify_contraction_map(inst, Solution("Oa", ((F(1, 3), F(0), F(1)),))).accepted
    halving = ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 100), F(1), F(1, 4))
    ob = verify_contraction_map(halving, Solution("Ob", (ORIGIN, E1)))
    assert ob.accepted
    assert ob.lhs == F(1, 4)   # squared form
    assert ob.rhs == F(1, 16)
    oc = verify_contraction_map(halving, Solution("Oc", (ORIGIN, E1)))
    assert not oc.accepted


point = st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=16)] * 3)


@given(st.sampled_from(["CO1", "CO2", "CO3"]), st.lists(point, min_size=1, max_size=2))
@settings(max_examples=50, deadline=None)
def test_cls_local_verifier_total(kind, pts):
    need = 1 if kind == "CO1" else 2
    if len(pts) < need:
        pts = pts * 2
    inst = CLSLocalInstance(
        affine_contraction_circuit(F(1, 2), (F(1, 2), F(1, 2), F(1, 2))),
        coordinate_potential_circuit(), F(1, 4), F(1),
    )
    verdict = verify_cls_local(inst, Solution(kind, tuple(pts[:need])))
    assert verdict.accepted in (True, False)


@given(st.sampled_from(["Oa", "Ob", "Oc", "Od", "Oe"]), st.lists(point, min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_banach_verifier_total(kind, pts):
    counts = {"Oa": 1, "Ob": 2, "Oc": 2, "Od": 4, "Oe": 3}
    inst = banach_halving()
    verdict = verify_banach(inst, Solution(kind, tuple(pts[: counts[kind]])))
    assert verdict.accepted in (True, False)


def test_instance_file_roundtrip():
    for inst in (
        banach_halving(),
        banach_halving(metric_promised=True),
        CLSLocalInstance(identity_map_circuit(), coordinate_potential_circuit(), F(1, 3), F(2)),
        ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 5), F(1), F(2, 3)),
    ):
        again = parse_instance(instance_to_text(inst))
        assert again.tag == inst.tag
        assert again.eps == inst.eps
        assert again.lam == inst.lam
        assert again.f.evaluate([F(1, 3)] * 3) == inst.f.evaluate([F(1, 3)] * 3)


def test_solution_file_roundtrip():
    sol = Solution("Od", (ORIGIN, E1, (F(1, 2), F(1), F(0)), (F(1), F(1), F(1))))
    again = parse_solution(sol.to_text())
    assert again == sol


def test_malformed_inputs_raise_instance_error():
    with pytest.raises(InstanceError):
        parse_instance("unknown-tag\n")
    with pytest.raises(InstanceError):
        parse_instance("cls-local\neps 1/4\nlambda 1\n")  # missing circuits
    with pytest.raises(InstanceError):
        parse_solution("")
    with pytest.raises(InstanceError):
        Solution("CO1", (ORIGIN, E1))  # wrong witness count
    with pytest.raises(InstanceError):
        CLSLocalInstance(identity_map_circuit(), coordinate_potential_circuit(), F(0), F(1))


def test_accept_verdicts_replay_under_reevaluation():
    from contraction_kit.library import sq_l2

    inst = banach_halving(c=F(1, 4))
    sol = Solution("Ob", (ORIGIN, E1))
    verdict = verify_banach(inst, sol)
    assert verdict.accepted
    f = inst.f
    d = inst.d
    assert verdict.lhs == d(f(ORIGIN), f(E1))
    assert verdict.rhs == inst.c * d(ORIGIN, E1)
    assert verdict.lhs > verdict.rhs

    cm = ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 100), F(1), F(1, 4))
    v2 = verify_contraction_map(cm, Solution("Ob", (ORIGIN, E1)))
    fcm = cm.f
    assert v2.lhs == sq_l2(fcm(ORIGIN), fcm(E1))
    assert v2.rhs == cm.c ** 2 * sq_l2(ORIGIN, E1)


def test_syntactic_banach_grid_totality_on_corpus():
    # desk-scale totality: the grid solver finds an accepted witness on every
    # corpus instance
    for inst in banach_corpus()[:6]:
        sol = solve_instance(inst)
        assert sol is not None
        assert verify(inst, sol)


def test_grid_solver_contraction_map_kinds():
    # fixed point on the grid: Oa wins the kind priority
    inst = ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 8), F(1), F(3, 4))
    sol = solve_instance(inst)
    assert sol is not None and sol.kind == "Oa"
    assert verify(inst, sol)
    # eps too small for the grid to certify a fixed point, c too small for the
    # halving map: the contraction-violation clause fires instead
    tight = ContractionMapInstance(
        affine_contraction_circuit(F(1, 2), (F(1, 32), F(1, 32), F(1, 32))),
        F(1, 64), F(1), F(1, 4),
    )
    sol2 = solve_instance(tight)
    assert sol2 is not None and sol2.kind == "Ob"
    assert verify(tight, sol2)
