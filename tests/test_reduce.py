import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import mpmath
from mpmath import iv

from corpus import cls_local_corpus
from contraction_kit.circuit import CircuitBuilder, CircuitError, InputError, _Program
from contraction_kit.cls import (
    BanachInstance,
    CLSLocalInstance,
    Solution,
    instance_to_text,
    verify,
    verify_banach,
)
from contraction_kit.gridsearch import solve_instance
from contraction_kit.library import (
    affine_contraction_circuit,
    as_point,
    constant_potential_circuit,
    coordinate_potential_circuit,
    discrete_metric_circuit,
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
        assert circ([w]) == smooth_interpolation(w, c)
    assert circ([F(-3, 2)]) == F(19, 18)


@given(st.fractions(min_value=-10, max_value=0, max_denominator=64),
       st.sampled_from([F(1, 2), F(9, 10), F(39, 40)]))
@settings(max_examples=80, deadline=None)
def test_interpolation_bracketing(w, c):
    value = smooth_interpolation(w, c)
    n = math.ceil(w)
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
    assert circ([w]) == smooth_interpolation(w, c)


def test_interpolation_circuit_rejects_bad_args():
    with pytest.raises(CircuitError):
        build_interpolation_circuit(F(3, 2), 4)
    with pytest.raises(CircuitError):
        build_interpolation_circuit(F(1, 2), 0)


# ---------------------------------------------------------------- kappa and d


def test_kappa_constant_zero_potential():
    circ = build_kappa_circuit(constant_potential_circuit(0), F(1, 2))
    assert circ([F(1, 3)] * 6) == 0


def test_kappa_coordinate_example():
    circ = build_kappa_circuit(coordinate_potential_circuit(), F(1, 2))
    assert circ(E1, (F(1, 2), F(0), F(0))) == -2


@given(st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=8)] * 3),
       st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=8)] * 3))
@settings(max_examples=40, deadline=None)
def test_kappa_symmetric(x, y):
    circ = build_kappa_circuit(l1_potential_circuit(HALF, F(1, 3)), F(1, 2))
    assert circ(x, y) == circ(y, x)


def test_metric_circuit_zero_on_diagonal_and_one_at_zero_potential():
    d = build_interpolated_metric_circuit(constant_potential_circuit(0), F(1, 2), F(9, 10))
    x = (F(1, 3), F(0), F(1))
    assert d(x, x) == 0
    assert d(x, ORIGIN) == 1


def test_metric_circuit_integer_kappa_example():
    # p = x1, eps = 1/4: p(x) = 3*eps/2 and p(y) = 2*eps give kappa = -2
    d = build_interpolated_metric_circuit(coordinate_potential_circuit(), F(1, 4), F(9, 10))
    x = (F(3, 8), F(0), F(0))
    y = (F(1, 2), F(0), F(0))
    assert d(x, y) == F(100, 81)


def test_metric_circuit_gate_count_logarithmic_in_inv_eps():
    p = coordinate_potential_circuit()
    small = build_interpolated_metric_circuit(p, F(1, 4), F(9, 10))
    large = build_interpolated_metric_circuit(p, F(1, 4096), F(9, 10))
    assert large.gate_count <= small.gate_count + 12 * (4096 .bit_length() - 4 .bit_length())


def inlined_metric_circuit(p, eps, c):
    """The reference d: kappa, B and d_S each built as a circuit, then inlined into a third."""
    kappa = build_kappa_circuit(p, eps)
    interp = build_interpolation_circuit(c, max(1, math.ceil(1 / F(eps))))
    b = CircuitBuilder()
    pair = b.inputs(6)
    interp_val = b.inline(interp, b.inline(kappa, pair))[0]
    d_s = b.inline(discrete_metric_circuit(), pair)[0]
    return b.build([b.mul(interp_val, d_s)])


def assert_one_builder_matches_inlined(p, eps, c):
    pushed = []
    push = CircuitBuilder._push

    def counting_push(self, gate):
        pushed.append(gate)
        return push(self, gate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CircuitBuilder, "_push", counting_push)
        d = build_interpolated_metric_circuit(p, eps, c)
    # each gate of d is pushed once: nothing is built to be inlined
    assert len(pushed) == d.gate_count
    assert d.to_text() == inlined_metric_circuit(p, eps, c).to_text()


COORDINATES = st.fractions(min_value=0, max_value=1, max_denominator=16)


@given(
    st.tuples(COORDINATES, COORDINATES, COORDINATES),
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
    st.integers(1, 4096).map(lambda k: F(1, k)) | st.fractions(F(1, 64), 9, max_denominator=64),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda c: 0 < c < 1),
)
@settings(max_examples=60, deadline=None)
def test_one_builder_metric_circuit_matches_inlined_composition(target, scale, eps, c):
    assert_one_builder_matches_inlined(l1_potential_circuit(target, scale), eps, c)


@pytest.mark.parametrize("half_eps", [False, True])
def test_one_builder_metric_circuit_matches_inlined_on_the_corpus(half_eps):
    for inst in cls_local_corpus():
        art = reduce_cls_local_to_banach(inst, half_eps=half_eps)
        eps_r, c_prime = art.substitutions["eps_r"], art.substitutions["c_prime"]
        assert art.produced.d.to_text() == inlined_metric_circuit(inst.p, eps_r, c_prime).to_text()
        assert_one_builder_matches_inlined(inst.p, eps_r, c_prime)


def test_hardness_corpus_targets_keep_their_bytes():
    # sha256 of every produced instance text, without and with half_eps, as
    # the build-then-inline construction wrote them; the reference above
    # shares the builders' bodies, so this pins their gate and const order
    digest = hashlib.sha256()
    for inst in cls_local_corpus():
        for half_eps in (False, True):
            produced = reduce_cls_local_to_banach(inst, half_eps=half_eps).produced
            digest.update(instance_to_text(produced).encode())
    assert digest.hexdigest() == "c1398a2d9752342f762f4fbe43af69d021628cf420a4369d6c51b517c334ec03"


def test_one_builder_metric_circuit_keeps_argument_errors():
    p = coordinate_potential_circuit()
    for eps, c, message in ((F(0), F(1, 2), "eps must be positive"),
                            (F(-1), F(2), "eps must be positive"),
                            (F(1, 2), F(1), "c must lie in \\(0,1\\)")):
        with pytest.raises(CircuitError, match=message):
            build_interpolated_metric_circuit(p, eps, c)
    with pytest.raises(CircuitError, match="inline arity mismatch"):
        build_interpolated_metric_circuit(discrete_metric_circuit(), F(1, 2), F(2))


# ---------------------------------------------------------------- constants


def test_lambda_prime_worked_example():
    # c' = 9/10, eps = 1: the certified bound of (10/9)*ln(10/9) is below 1
    assert certified_lambda_prime(F(1), F(1), F(9, 10)) == 1


def test_lambda_prime_grows_with_inverse_eps():
    assert certified_lambda_prime(F(1), F(1, 10), F(9, 10)) > 1


def test_lambda_prime_past_the_bit_limit_is_an_input_error():
    # 2**(10**6) fits under LAMBDA_PRIME_MAX_BITS; 2**(10**7) and 2**(10**100) do not
    assert certified_lambda_prime(F(1), F(1, 10**6), F(1, 2)) > 2 ** 10**6
    for eps in (F(1, 10**7), F(1, 10**100 - 1)):
        with pytest.raises(InputError, match="eps is too small"):
            certified_lambda_prime(F(1), eps, F(1, 2))


@pytest.mark.parametrize("k", [40, 43])
def test_lambda_prime_stays_tight_for_tiny_eps(k):
    # c' = 1 - eps/10, as the reduction takes it: the bound is about 0.11 * lambda,
    # which a 128-bit interval around ln(1/c') swamped (54 digits at k = 40)
    eps = F(1, 10**k - 1)
    assert certified_lambda_prime(F(7), eps, 1 - eps / 10) == 7


def test_lambda_prime_refuses_the_eps_the_fixed_precision_refused():
    # the 128-bit bound has 756,407 bits at eps = 2^-145 and passes
    # LAMBDA_PRIME_MAX_BITS at 2^-146; the tight bound moves neither refusal
    eps = F(1, 2**145)
    assert certified_lambda_prime(F(1), eps, 1 - eps / 10) == 1
    eps = F(1, 2**146)
    with pytest.raises(InputError, match="eps is too small"):
        certified_lambda_prime(F(1), eps, 1 - eps / 10)
    # (10/9)^10 * ln(10/9) * 10 = 3.02..., at the 128 bits every eps down to 2^-64 keeps
    assert certified_lambda_prime(F(1), F(1, 10), F(9, 10)) == 4


@pytest.mark.parametrize("lam, k", [(1, 300), (7, 5000)])
def test_lambda_prime_ceiling_is_not_rounded_below_the_bound(lam, k):
    # c' = 1/2: the bound 2^k * lam * ln 2 * k has k + 8 to k + 15 bits, which
    # a 53-bit ceiling of the interval's end rounded below the true value
    got = certified_lambda_prime(F(lam), F(1, k), F(1, 2))
    with mpmath.workprec(6000):
        want = int(mpmath.ceil(mpmath.mpf(2) ** k * lam * mpmath.log(2) * k))
    assert want <= got < want + (want >> 100)


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
    d = art.produced.d
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
    p = art.produced.p
    assert p((F(1), F(1), F(1))) == F(3, 2)  # |x - x/2|_1


def test_membership_identity_gives_zero_potential():
    inst = BanachInstance(identity_map_circuit(), l1_distance_circuit(), F(1, 4), F(1), F(1, 2))
    art = reduce_banach_to_cls_local(inst)
    p = art.produced.p
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
    d = art.produced.d
    f = f_circ
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
    d = art.produced.d
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
    d = art.produced.d
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
    """certify_constructed_metric as one circuit call per pair and per point."""
    d = artifacts.produced.d
    p = artifacts.source.p
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


def circuit_on_first_coordinates(op):
    """A 6-input distance circuit built by op(builder, x1, y1) from the first coordinates."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    return b.build([op(b, xs[0], ys[0])])


def constant_one_distance_circuit():
    b = CircuitBuilder()
    b.inputs(6)
    return b.build([b.const(1)])


QUARTER = (F(1, 4), F(0), F(0))
HALF_E1 = (F(1, 2), F(0), F(0))
E2 = (F(0), F(1), F(0))

# name -> (distance circuit, triples, the axiom their failures name or None,
#          whether lower-bound failures are expected)
FAILING_METRICS = {
    "nonneg": (circuit_on_first_coordinates(lambda b, x, y: b.sub(y, x)),
               [(E1, ORIGIN, QUARTER), (ORIGIN, QUARTER, HALF_E1)], "NONNEG", True),
    "identity-diagonal": (constant_one_distance_circuit(),
                          [(ORIGIN, E1, QUARTER), (HALF, E2, ORIGIN)], "IDENTITY", False),
    "identity-distinct": (circuit_on_first_coordinates(lambda b, x, y: b.abs(x, y)),
                          [(ORIGIN, E2, E1), (E1, HALF_E1, (F(1), F(1), F(1)))], "IDENTITY", True),
    "triangle": (sq_l2_distance_circuit(),
                 [(ORIGIN, E1, HALF_E1), (E2, ORIGIN, (F(0), F(1, 2), F(0)))], "TRIANGLE", True),
    "below-c-prime": (l1_distance_circuit(F(1, 16)),
                      [(ORIGIN, E1, QUARTER), (HALF, E2, E1)], None, True),
    # a repeated point: d(x,x) = 1 fails, and the zero between the copies is not a failure
    "repeated-point": (constant_one_distance_circuit(), [(ORIGIN, ORIGIN, E1), (E1, E2, E2)],
                       "IDENTITY", False),
}


@pytest.mark.parametrize("name", sorted(FAILING_METRICS))
def test_batched_certificate_matches_pairwise_on_each_failure(name):
    d, triples, axiom, below = FAILING_METRICS[name]
    triples = list(triples) + random_triples(random.Random(len(name)), 6, [4, 8])
    report = assert_same_certification(broken_metric_artifacts(d), triples)
    assert not report.all_pass
    assert bool(report.lower_bound_failures) == below
    if axiom is None:
        assert not report.axiom_failures
    else:
        assert report.axiom_failures
        assert all(msg.startswith(axiom + " at ") for msg in report.axiom_failures[:2])


@pytest.mark.parametrize("below", [F(0), F(1, 1000)])
def test_batched_certificate_lower_bound_is_strict(below):
    # d = (c' - below) * d_S: at exactly c' every off-diagonal distance meets the bound
    c_prime = F(19, 20)  # 1 - eps/10 at hardness_instance's eps = 1/2
    b = CircuitBuilder()
    d_s = b.inline(discrete_metric_circuit(), b.inputs(6))[0]
    art = broken_metric_artifacts(b.build([b.mul(d_s, b.const(c_prime - below))]))
    assert art.substitutions["c_prime"] == c_prime
    # 6 ordered pairs of distinct points in the first triple, 4 in the second
    report = assert_same_certification(art, [(ORIGIN, E1, HALF), (HALF, E2, HALF)])
    assert report.min_offdiag == c_prime - below
    assert not report.axiom_failures
    assert len(report.lower_bound_failures) == (0 if below == 0 else 10)


def test_batched_certificate_matches_pairwise_coprime_denominators():
    art = reduce_cls_local_to_banach(hardness_instance(scale=F(1, 3)), half_eps=True)
    triples = random_triples(random.Random(37), 30, [3, 7, 16]) + [(HALF, ORIGIN, HALF)]
    assert assert_same_certification(art, triples).all_pass


@pytest.mark.parametrize("broken", [False, True])
def test_batched_certificate_matches_pairwise_past_bit_budget(monkeypatch, broken):
    # 8 bits leave no room for the batch's shared D (336), so both circuits run row by row
    art = broken_metric_artifacts(sq_l2_distance_circuit()) if broken else (
        reduce_cls_local_to_banach(hardness_instance()))
    triples = random_triples(random.Random(3), 12, [3, 7, 16]) + [(ORIGIN, E1, HALF_E1)]
    monkeypatch.setattr("contraction_kit.circuit.DEN_BIT_BUDGET", 8)
    batches = []
    run_many = _Program.run_many

    def spy(self, columns, d, size):
        batches.append(run_many(self, columns, d, size))
        return batches[-1]

    monkeypatch.setattr(_Program, "run_many", spy)
    report = assert_same_certification(art, triples)
    assert batches == [None, None]
    assert report.all_pass != broken


def test_passing_certificate_makes_no_axiom_scan(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return check_metric_axioms(*args)

    monkeypatch.setattr("contraction_kit.reduce.check_metric_axioms", spy)
    art = reduce_cls_local_to_banach(hardness_instance(), half_eps=True)
    # repeated points are not failures, so the axiom mask does not flag them
    triples = random_triples(random.Random(4), 30, [8, 16]) + [(HALF, HALF, ORIGIN), (E1, E1, E1)]
    assert certify_constructed_metric(art, triples).all_pass
    assert calls == []
    # a failing triple is the one handed to the scan
    art = broken_metric_artifacts(sq_l2_distance_circuit())
    certify_constructed_metric(art, [(ORIGIN, E2, E1), (ORIGIN, E1, HALF_E1)])
    assert [args[1] for args in calls] == [(ORIGIN, E1, HALF_E1)]


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
