import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from contraction_kit.circuit import (
    DEN_BIT_BUDGET,
    BINARY_OPS,
    Circuit,
    CircuitBuilder,
    CircuitError,
    CircuitParseError,
    build_power_circuit,
    parse_circuit,
    parse_fraction,
)

CONST_HALF = "n0: const 1/2\noutputs: n0\n"

DOUBLER = """\
input 0
n1: add n0 n0
outputs: n1
"""

MUL_MAX = """\
input 0
input 1
n2: mul n0 n1
n3: max n2 n0
outputs: n3
"""

GT = """\
input 0
input 1
n2: gt n0 n1
outputs: n2
"""


def test_const_circuit():
    c = parse_circuit(CONST_HALF)
    assert c.input_arity == 0
    assert c.evaluate([]) == [F(1, 2)]


def test_doubler():
    c = parse_circuit(DOUBLER)
    assert c.evaluate1([F(3, 7)]) == F(6, 7)


def test_gt_semantics():
    c = parse_circuit(GT)
    assert c.evaluate1([F(1, 3), F(1, 2)]) == 0
    assert c.evaluate1([F(1, 2), F(1, 3)]) == 1
    assert c.evaluate1([F(1, 2), F(1, 2)]) == 0


def test_mul_then_max():
    c = parse_circuit(MUL_MAX)
    assert c.evaluate1([F(1, 2), F(1, 3)]) == F(1, 2)


def test_forward_reference_rejected():
    with pytest.raises(CircuitParseError, match="forward reference"):
        parse_circuit("input 0\nn1: add n0 n2\nn2: const 1\noutputs: n1\n")


def test_self_reference_rejected():
    with pytest.raises(CircuitParseError, match="cycle"):
        parse_circuit("input 0\nn1: add n1 n0\noutputs: n1\n")


def test_unknown_gate_rejected():
    with pytest.raises(CircuitParseError, match="unknown gate"):
        parse_circuit("input 0\nn1: exp n0 n0\noutputs: n1\n")


def test_arity_mismatch_rejected():
    with pytest.raises(CircuitParseError):
        parse_circuit("input 0\nn1: add n0\noutputs: n1\n")


def test_duplicate_id_rejected():
    with pytest.raises(CircuitParseError, match="duplicate"):
        parse_circuit("input 0\nn0: const 1\noutputs: n0\n")


def test_dangling_output_rejected():
    with pytest.raises(CircuitParseError, match="dangling"):
        parse_circuit("input 0\noutputs: n4\n")


def test_parse_error_carries_line_number():
    try:
        parse_circuit("n0: const 1/2\nn1: add n0 n7\noutputs: n1\n")
    except CircuitParseError as exc:
        assert exc.line_no == 2
    else:
        pytest.fail("expected a parse error")


def test_evaluate_arity_checked():
    c = parse_circuit(DOUBLER)
    message = "arity mismatch: circuit takes 1 inputs, got 2"
    with pytest.raises(CircuitError) as err:
        c.evaluate([F(1), F(2)])
    assert str(err.value) == message


def test_evaluation_deterministic():
    c = parse_circuit(MUL_MAX)
    args = [F(5, 9), F(2, 11)]
    assert c.evaluate(args) == c.evaluate(args)


def test_roundtrip_100_random_inputs():
    b = CircuitBuilder()
    xs = b.inputs(3)
    t = b.mul(b.add(xs[0], b.const(F(2, 3))), b.sub(xs[1], xs[2]))
    c = b.build([b.max(t, b.gt(xs[0], xs[1])), b.min(t, xs[2])])
    again = parse_circuit(c.to_text())
    rng = random.Random(1234)
    for _ in range(100):
        args = [F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)]
        assert c.evaluate(args) == again.evaluate(args)


def naive_power(c: F, e: int) -> F:
    out = F(1)
    for _ in range(e):
        out *= c
    return out


def test_power_circuit_simple_values():
    c = build_power_circuit(F(1, 2), 8)
    assert c.evaluate1([F(3)]) == F(1, 8)
    c910 = build_power_circuit(F(9, 10), 16)
    assert c910.evaluate1([F(0)]) == 1
    assert c910.evaluate1([F(10)]) == F(3486784401, 10000000000)


@pytest.mark.parametrize("c", [F(1, 2), F(9, 10)])
def test_power_circuit_matches_naive_loop(c):
    circ = build_power_circuit(c, 20)
    for e in range(21):
        assert circ.evaluate1([F(e)]) == naive_power(c, e)


def test_power_circuit_gate_count_logarithmic():
    small = build_power_circuit(F(1, 2), 4)
    large = build_power_circuit(F(1, 2), 4096)
    # widening the exponent range costs a constant number of gates per extra bit
    assert large.gate_count <= small.gate_count + 12 * (4096 .bit_length() - 4 .bit_length())


def test_power_circuit_argument_validation():
    with pytest.raises(CircuitError):
        build_power_circuit(F(3, 2), 4)
    with pytest.raises(CircuitError):
        build_power_circuit(F(1, 2), 0)


@given(st.integers(-1000, 1000), st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_parse_fraction_roundtrip(num, den):
    q = F(num, den)
    assert parse_fraction(f"{q.numerator}/{q.denominator}") == q


@given(
    st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=64), min_size=2, max_size=2)
)
@settings(max_examples=50, deadline=None)
def test_builder_ops_match_python_semantics(args):
    b = CircuitBuilder()
    xs = b.inputs(2)
    outs = [
        b.add(xs[0], xs[1]),
        b.sub(xs[0], xs[1]),
        b.mul(xs[0], xs[1]),
        b.max(xs[0], xs[1]),
        b.min(xs[0], xs[1]),
        b.gt(xs[0], xs[1]),
    ]
    c = b.build(outs)
    a, bb = args
    got = c.evaluate(args)
    assert got == [a + bb, a - bb, a * bb, max(a, bb), min(a, bb), F(1 if a > bb else 0)]


# consts over pairwise coprime denominators, so lcm scaling is exercised
CONST_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)

# every kind of value Fraction() accepts as a circuit input
INPUT_VALUES = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=40),
    st.fractions(min_value=-10, max_value=10, max_denominator=40).map(str),
    st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False),
    st.decimals(min_value=-10, max_value=10, places=3, allow_nan=False, allow_infinity=False),
    st.booleans(),
)


@st.composite
def random_circuits(draw):
    b = CircuitBuilder()
    nodes = b.inputs(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(1, 3))):
        num = draw(st.integers(-9, 9))
        nodes.append(b.const(F(num, draw(st.sampled_from(CONST_DENOMINATORS)))))
    for kind in draw(st.lists(st.sampled_from(BINARY_OPS), min_size=len(BINARY_OPS), max_size=30)):
        a, c = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        nodes.append(b.op(kind, a, c))
    outputs = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    circuit = b.build(outputs)
    args = draw(st.lists(INPUT_VALUES, min_size=circuit.input_arity, max_size=circuit.input_arity))
    return circuit, args


@given(random_circuits())
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_reference_interpreter(case):
    circuit, args = case
    got = circuit.evaluate(args)
    want = circuit._evaluate_reference([F(a) for a in args])
    assert got == want
    assert all(type(v) is F for v in got)
    # a second call runs the cached program and must agree too
    assert circuit.evaluate(args) == want


def squaring_chain(squarings: int) -> Circuit:
    b = CircuitBuilder()
    x = b.input()
    for _ in range(squarings):
        x = b.mul(x, x)
    return b.build([x])


def test_repeated_squaring_falls_back_past_bit_budget(monkeypatch):
    calls = []
    reference = Circuit._evaluate_reference

    def spy(self, inputs):
        calls.append(list(inputs))
        return reference(self, inputs)

    monkeypatch.setattr(Circuit, "_evaluate_reference", spy)
    # x**(2**k) on x = 1/3 has static denominator 3**(2**k); the budget check
    # counts K.bit_length() + e*(D-1).bit_length() = 1 + 2*2**k bits for it
    fits = ((DEN_BIT_BUDGET - 1) // 2).bit_length() - 1
    assert 1 + 2 * 2**fits <= DEN_BIT_BUDGET < 1 + 2 * 2 ** (fits + 1)
    deep = squaring_chain(fits + 1)
    assert deep.evaluate([F(1, 3)]) == [F(1, 3) ** 2 ** (fits + 1)]
    assert len(calls) == 1
    # integer inputs have D = 1, so the same chain stays on the integer path
    assert deep.evaluate([3]) == [F(3) ** 2 ** (fits + 1)]
    # one squaring fewer fits the budget at D = 3
    assert squaring_chain(fits).evaluate([F(1, 3)]) == [F(1, 3) ** 2**fits]
    assert len(calls) == 1


# ---------------------------------------------------------------- evaluate_many


def assert_same_values(got, want):
    assert got == want
    for got_row, want_row in zip(got, want):
        assert [type(v) for v in got_row] == [F] * len(want_row)
        assert all(type(v.numerator) is int and type(v.denominator) is int for v in got_row)


@st.composite
def random_batches(draw):
    circuit, _ = draw(random_circuits())
    n = circuit.input_arity
    rows = draw(st.lists(st.lists(INPUT_VALUES, min_size=n, max_size=n), max_size=6))
    return circuit, rows


@given(random_batches())
@settings(max_examples=200, deadline=None)
def test_evaluate_many_matches_evaluate_and_reference(case):
    # rows draw integers, floats, decimals and fractions over 40 denominators,
    # so most batches mix denominators and share a D no single row has
    circuit, rows = case
    got = circuit.evaluate_many(rows)
    assert_same_values(got, [circuit.evaluate(r) for r in rows])
    assert_same_values(got, [circuit._evaluate_reference([F(a) for a in r]) for r in rows])


def test_evaluate_many_mixed_denominators():
    c = parse_circuit(MUL_MAX)
    rows = [[F(1, 3), F(2, 5)], [F(-7, 8), 4], [F(1, 9), F(-5, 7)], [0, 0]]
    assert_same_values(c.evaluate_many(rows), [c.evaluate(r) for r in rows])
    gt = parse_circuit(GT)
    assert_same_values(gt.evaluate_many(rows), [[F(0)], [F(0)], [F(1)], [F(0)]])


def test_evaluate_many_broadcasts_constant_outputs():
    b = CircuitBuilder()
    x = b.input()
    third = b.const(F(1, 3))
    fixed = b.max(b.const(3), b.const(5))  # a step on two const slots
    c = b.build([third, b.mul(x, third), fixed, b.gt(b.const(2), b.const(1))])
    rows = [[F(1, 2)], [F(3, 7)], [2]]
    got = c.evaluate_many(rows)
    assert_same_values(got, [c.evaluate(r) for r in rows])
    assert [row[0] for row in got] == [F(1, 3)] * 3
    assert [row[2:] for row in got] == [[F(5), F(1)]] * 3


def test_evaluate_many_empty_batch():
    assert parse_circuit(DOUBLER).evaluate_many([]) == []
    assert parse_circuit(CONST_HALF).evaluate_many([]) == []


def test_evaluate_many_arity_checked():
    c = parse_circuit(DOUBLER)
    with pytest.raises(CircuitError) as want:
        c.evaluate([F(1), F(2)])
    with pytest.raises(CircuitError) as got:
        c.evaluate_many([[F(1)], [F(1), F(2)], [F(3)]])
    assert str(got.value) == str(want.value)


def test_evaluate_many_falls_back_per_row_past_bit_budget(monkeypatch):
    # x*y has static denominator D**2, counted as 1 + 2*(D-1).bit_length()
    # bits: with a 21-bit budget, D - 1 may have at most 10 bits
    monkeypatch.setattr("contraction_kit.circuit.DEN_BIT_BUDGET", 21)
    calls = []
    evaluate, reference = Circuit.evaluate, Circuit._evaluate_reference

    def spy_evaluate(self, inputs):
        calls.append("evaluate")
        return evaluate(self, inputs)

    def spy_reference(self, inputs):
        calls.append("reference")
        return reference(self, inputs)

    monkeypatch.setattr(Circuit, "evaluate", spy_evaluate)
    monkeypatch.setattr(Circuit, "_evaluate_reference", spy_reference)
    b = CircuitBuilder()
    x, y = b.inputs(2)
    c = b.build([b.mul(x, y)])
    # 997 and 991 each fit alone; their lcm, 988027, needs 20 bits
    rows = [[F(1, 997), F(3)], [F(2, 991), F(5)]]
    assert c.evaluate_many(rows) == [[F(3, 997)], [F(10, 991)]]
    assert calls == ["evaluate", "evaluate"]
    # a batch whose shared D fits runs as one batch
    calls.clear()
    assert c.evaluate_many([[F(1, 4), F(3)], [F(1, 8), F(1, 2)]]) == [[F(3, 4)], [F(1, 16)]]
    assert calls == []
    # a row past the budget alone still reaches the reference on the fallback
    calls.clear()
    assert c.evaluate_many([[F(1, 2049), 1], [F(1, 3), 1]]) == [[F(1, 2049)], [F(1, 3)]]
    assert calls == ["evaluate", "reference", "evaluate"]
