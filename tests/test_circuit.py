import operator
import random
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contraction_kit.circuit import (
    DEN_BIT_BUDGET,
    BINARY_OPS,
    Circuit,
    CircuitBuilder,
    CircuitError,
    CircuitParseError,
    Gate,
    Scaled,
    build_power_circuit,
    format_fraction,
    format_ratio,
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
    assert c([F(3, 7)]) == F(6, 7)


def test_gt_semantics():
    c = parse_circuit(GT)
    assert c([F(1, 3), F(1, 2)]) == 0
    assert c([F(1, 2), F(1, 3)]) == 1
    assert c([F(1, 2), F(1, 2)]) == 0


def test_reference_gives_a_fraction_for_a_gt_output():
    # the reference runs the int ops, whose gt gives a plain int; outputs come back as Fractions
    c = parse_circuit(GT)
    for args in ([F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)], [F(1, 2), F(1, 2)]):
        got = c._evaluate_reference(args)
        assert [type(v) for v in got] == [F]
        assert got == c.evaluate(args)


def test_mul_then_max():
    c = parse_circuit(MUL_MAX)
    assert c([F(1, 2), F(1, 3)]) == F(1, 2)


def test_forward_reference_rejected():
    with pytest.raises(CircuitParseError, match="forward reference"):
        parse_circuit("input 0\nn1: add n0 n2\nn2: const 1\noutputs: n1\n")


def test_ids_out_of_numeric_order_keep_their_declaration_order():
    # the gate dict's insertion order is the one stored order: n7 comes before n3
    text = "input 5\nn7: const 2/3\nn3: mul n5 n7\nn1: sub n3 n5\noutputs: n1 n3\n"
    c = parse_circuit(text)
    assert [node_id for node_id, _ in c.nodes()] == [5, 7, 3, 1]
    assert c.to_text() == text
    again = parse_circuit(c.to_text())
    xs = [F(3, 4), F(-5), F(0)]
    for x in xs:
        want = [F(2, 3) * x - x, F(2, 3) * x]
        assert c.evaluate([x]) == again.evaluate([x]) == c._evaluate_reference([x]) == want
    column = Scaled(np.array([3, -20, 0], dtype=object), 4)
    diff, prod = c((column,))
    assert [F(v, diff.den) for v in diff.num] == [c([x])[0] for x in xs]
    assert [F(v, prod.den) for v in prod.num] == [c([x])[1] for x in xs]


def test_gate_dict_order_is_checked_for_forward_references():
    # a Circuit evaluates its gates in the dict's insertion order, so n2 may not read n1 here
    gates = {0: Gate("input", input_index=0), 2: Gate("add", (0, 1)), 1: Gate("const", value=F(1))}
    with pytest.raises(CircuitError, match=r"^forward reference to n1 from n2$"):
        Circuit(gates, [2])


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


def test_node_ids_in_other_decimal_scripts_parse():
    # int() reads any Unicode decimal digit: n٣ is n3, as it always was
    c = parse_circuit("input ٠\nn٣: add n٠ n0\noutputs: n3 n０\n")
    assert c.evaluate([F(1, 2)]) == [F(1), F(1, 2)]


def test_parse_error_carries_line_number():
    try:
        parse_circuit("n0: const 1/2\nn1: add n0 n7\noutputs: n1\n")
    except CircuitParseError as exc:
        assert exc.line_no == 2
    else:
        pytest.fail("expected a parse error")


def _int_limit_message(digits: int) -> str:
    try:
        int("1" * digits)
    except ValueError as exc:
        return str(exc)
    pytest.fail("expected the int-conversion limit")


# one case per CircuitParseError message, with its exact text and line number
PARSE_ERRORS = {
    "unparseable": ("input 0\nn1 add n0 n0\noutputs: n1\n",
                    "line 2: unparseable line 'n1 add n0 n0'"),
    "bad-input": ("input x\noutputs: n0\n", "line 1: bad input declaration 'input x'"),
    "input-prefix": ("inputs: add n0 n1\noutputs: n0\n",
                     "line 1: bad input declaration 'inputs: add n0 n1'"),
    "bad-node-ref-head": ("input 0\nm1: add n0 n0\noutputs: m1\n",
                          "line 2: bad node reference 'm1'"),
    "bad-node-ref-spaced": ("input 0\nn 1: add n0 n0\noutputs: n1\n",
                            "line 2: bad node reference 'n 1'"),
    "bad-node-ref-arg": ("input 0\nn1: add n0 x0\noutputs: n1\n",
                         "line 2: bad node reference 'x0'"),
    "bad-node-ref-output": ("input 0\noutputs: add n0\n", "line 2: bad node reference 'add'"),
    "node-id-too-long": ("input 0\nn1: add n0 n" + "1" * 5000 + "\noutputs: n1\n",
                         "line 2: " + _int_limit_message(5000)),
    "duplicate-input": ("input 0\ninput 0\noutputs: n0\n", "line 2: duplicate node id n0"),
    "duplicate-gate": ("input 0\nn0: add n0 n0\noutputs: n0\n", "line 2: duplicate node id n0"),
    "unknown-gate": ("input 0\nn1: exp n0 n0\noutputs: n1\n", "line 2: unknown gate 'exp'"),
    "binary-arity": ("input 0\nn1: add n0\noutputs: n1\n",
                     "line 2: add takes exactly two node references"),
    "binary-arity-three": ("input 0\nn1: mul n0 n0 n0\noutputs: n1\n",
                           "line 2: mul takes exactly two node references"),
    "const-arity": ("n0: const 1 2\noutputs: n0\n", "line 1: const takes exactly one rational"),
    "bad-rational": ("n0: const 1/0\noutputs: n0\n",
                     "line 1: bad rational '1/0': zero denominator in '1/0'"),
    "bad-rational-text": ("n0: const half\noutputs: n0\n",
                          "line 1: bad rational 'half': invalid literal for int() with base 10: 'half'"),
    "forward-reference": ("input 0\nn1: add n0 n2\nn2: const 1\noutputs: n1\n",
                          "line 2: forward reference to n2"),
    "forward-before-cycle": ("input 0\nn1: sub n2 n1\noutputs: n1\n",
                             "line 2: forward reference to n2"),
    "self-cycle": ("input 0\n# a comment line\n\nn1: gt n1 n0\noutputs: n1\n",
                   "line 4: cycle detected: n1 references itself"),
    "dangling-output": ("input 0\noutputs: n0 n4\n", "line 2: dangling node id n4"),
    "empty-outputs": ("input 0\noutputs:\n", "line 2: empty outputs line"),
    "content-after-outputs": ("input 0\noutputs: n0\n\nn1: add n0 n0\n",
                              "line 4: content after outputs line"),
    "missing-outputs": ("input 0\nn1: add n0 n0  # no outputs\n", "line 2: missing outputs line"),
    "missing-outputs-empty-text": ("", "line 1: missing outputs line"),
}


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_parse_error_messages_are_pinned(name):
    text, message = PARSE_ERRORS[name]
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert str(err.value) == message
    assert err.value.line_no == int(message.split(":")[0].removeprefix("line "))


def test_gate_lines_parse_with_any_spacing_around_the_colon():
    want = parse_circuit("input 0\nn1: add n0 n0\noutputs: n1\n").to_text()
    for line in ("n1:add n0 n0", "n1 : add n0 n0", "n1:\tadd  n0 n0  # doubled"):
        assert parse_circuit(f"input 0\n{line}\noutputs: n1\n").to_text() == want


def test_builder_rejects_an_unknown_op():
    b = CircuitBuilder()
    x = b.input()
    with pytest.raises(CircuitError) as err:
        b.op("pow", x, x)
    assert str(err.value) == "unknown gate kind 'pow'"


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
    assert c([F(3)]) == F(1, 8)
    c910 = build_power_circuit(F(9, 10), 16)
    assert c910([F(0)]) == 1
    assert c910([F(10)]) == F(3486784401, 10000000000)


@pytest.mark.parametrize("c", [F(1, 2), F(9, 10)])
def test_power_circuit_matches_naive_loop(c):
    circ = build_power_circuit(c, 20)
    for e in range(21):
        assert circ([F(e)]) == naive_power(c, e)


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


@given(st.integers(-(2**80), 2**80), st.integers(1, 2**80))
@settings(max_examples=60, deadline=None)
def test_format_ratio_writes_the_ratio_in_lowest_terms(num, den):
    q = F(num, den)
    want = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert format_ratio(num, den) == format_fraction(q) == want


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


@st.composite
def random_batches(draw):
    circuit, _ = draw(random_circuits())
    n = circuit.input_arity
    rows = draw(st.lists(st.lists(INPUT_VALUES, min_size=n, max_size=n), max_size=6))
    return circuit, rows


# ---------------------------------------------------------------- the batch kernel


# numerators below 2^62 in magnitude, which Scaled.of keeps as int64: a lift to
# another denominator, a product with a rational or a square of one passes 2^63
INT64_NUMS = st.integers(-(2**62) + 1, 2**62 - 1)


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(INT64_NUMS, min_size=n, max_size=n), st.lists(INT64_NUMS, min_size=n, max_size=n))),
    st.integers(1, 12),
    st.integers(1, 12),
    st.builds(F, INT64_NUMS, st.integers(1, 12)),
)
@example(([2**62 - 1, -(2**62) + 1], [2**62 - 1, 1]), 1, 7, F(2**62 - 1, 5))
@settings(max_examples=100, deadline=None)
def test_operators_on_int64_numerators_match_fraction_arithmetic(pair, den_a, den_b, q):
    # each numerator over den is k * lcm / den with |k| < 2^62, so it fits int64
    xs = [F(k, den_a) for k in pair[0]]
    ys = [F(k, den_b) for k in pair[1]]
    a, b = Scaled.of(xs), Scaled.of(ys)
    assert a.num.dtype == b.num.dtype == np.int64
    elementwise = [
        (a + b, [x + y for x, y in zip(xs, ys)]),
        (a - b, [x - y for x, y in zip(xs, ys)]),
        (a + q, [x + q for x in xs]),
        (q - a, [q - x for x in xs]),
        (abs(a - b), [abs(x - y) for x, y in zip(xs, ys)]),
        (abs(a), [abs(x) for x in xs]),
        (a * q, [x * q for x in xs]),
        (q * b, [q * y for y in ys]),
        (a ** 2, [x ** 2 for x in xs]),
    ]
    for got, want in elementwise:
        assert got.fractions() == want
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        assert op(a, b).tolist() == [op(x, y) for x, y in zip(xs, ys)]
        assert op(a, q).tolist() == [op(x, q) for x in xs]
        assert op(q, b).tolist() == [op(q, y) for y in ys]
    # the operands keep their int64 numerators: no operator lifts in place
    assert a.num.dtype == np.int64 and a.fractions() == xs


def scaled_columns(circuit, rows, extra=1):
    """The rows as input columns of numerators over extra * (the lcm of their denominators)."""
    qss = [[F(a) for a in row] for row in rows]
    d = extra * lcm(*(q.denominator for qs in qss for q in qs))
    columns = [np.array([qs[i].numerator * (d // qs[i].denominator) for qs in qss], dtype=object)
               for i in range(circuit.input_arity)]
    return columns, d


def run_many(circuit, columns, d, size):
    """The circuit's integer program on a batch of input columns over ``d``."""
    return circuit._program.run_many(columns, d, size)


def assert_columns_match(circuit, rows, out):
    """Each output ``Scaled`` read as Fractions equals evaluate and the reference."""
    assert len(out) == circuit.output_arity
    for col in out:
        assert type(col) is Scaled
        assert type(col.den) is int and col.den > 0
        assert len(col.num) == len(rows)
        assert all(type(v) is int for v in col.num)
    got = [[F(col.num[r], col.den) for col in out] for r in range(len(rows))]
    assert got == [circuit.evaluate(r) for r in rows]
    assert got == [circuit._evaluate_reference([F(a) for a in r]) for r in rows]


@given(random_batches(), st.sampled_from([1, 6]))
@settings(max_examples=200, deadline=None)
def test_run_many_matches_evaluate_and_reference(case, extra):
    # extra = 6 puts the inputs over a denominator larger than their lcm
    circuit, rows = case
    columns, d = scaled_columns(circuit, rows, extra)
    out = run_many(circuit, columns, d, len(rows))
    if out is None:  # tiny floats carry denominators past the bit budget
        assert (d - 1).bit_length() > circuit._program.max_d_bits
    else:
        assert_columns_match(circuit, rows, out)


def test_run_many_existing_cases():
    cases = [
        (MUL_MAX, [[F(1, 3), F(2, 5)], [F(-7, 8), 4], [F(1, 9), F(-5, 7)], [0, 0]]),
        (GT, [[F(1, 3), F(2, 5)], [F(-7, 8), 4], [F(1, 9), F(-5, 7)], [0, 0]]),
        (DOUBLER, [[F(3, 7)], [F(-1, 2)], [5]]),
    ]
    for text, rows in cases:
        c = parse_circuit(text)
        columns, d = scaled_columns(c, rows)
        assert_columns_match(c, rows, run_many(c, columns, d, len(rows)))


def test_run_many_broadcasts_constant_outputs():
    b = CircuitBuilder()
    x = b.input()
    third = b.const(F(1, 3))
    fixed = b.max(b.const(3), b.const(5))
    c = b.build([third, b.mul(x, third), fixed])
    rows = [[F(1, 2)], [F(3, 7)], [2]]
    columns, d = scaled_columns(c, rows)
    out = run_many(c, columns, d, len(rows))
    assert_columns_match(c, rows, out)
    assert [F(v, out[0].den) for v in out[0].num] == [F(1, 3)] * 3
    # a circuit with no inputs has no columns: the size alone sets the batch
    (half,) = run_many(parse_circuit(CONST_HALF), [], 1, 4)
    assert [F(v, half.den) for v in half.num] == [F(1, 2)] * 4


def test_run_many_empty_batch():
    c = parse_circuit(MUL_MAX)
    empty = np.array([], dtype=object)
    (out,) = run_many(c, [empty, empty], 1, 0)
    assert len(out.num) == 0 and out.den == 1
    (half,) = run_many(parse_circuit(CONST_HALF), [], 1, 0)
    assert len(half.num) == 0


def test_run_many_arity_checked():
    c = parse_circuit(MUL_MAX)
    with pytest.raises(CircuitError, match="arity mismatch: circuit takes 2 inputs, got 1"):
        c((Scaled(np.array([1], dtype=object), 1),))


def test_run_many_none_past_bit_budget(monkeypatch):
    # x*y has static denominator D**2, counted as 1 + 2*(D-1).bit_length()
    # bits: with a 21-bit budget, D - 1 may have at most 10 bits
    monkeypatch.setattr("contraction_kit.circuit.DEN_BIT_BUDGET", 21)
    b = CircuitBuilder()
    x, y = b.inputs(2)
    c = b.build([b.mul(x, y)])
    rows = [[F(1, 997), F(3)], [F(2, 991), F(5)]]
    assert run_many(c, *scaled_columns(c, rows), len(rows)) is None
    rows = [[F(1, 4), F(3)], [F(1, 8), F(1, 2)]]
    assert_columns_match(c, rows, run_many(c, *scaled_columns(c, rows), len(rows)))


# ---------------------------------------------------------------- calls on points


def test_call_on_points_is_evaluate():
    # one output comes back as a scalar, several as a tuple; points flatten in order
    mul_max = parse_circuit(MUL_MAX)
    got = mul_max((F(1, 3), F(2, 5)))
    assert type(got) is F and got == mul_max.evaluate([F(1, 3), F(2, 5)])[0]
    assert mul_max((F(-7, 8),), (4,)) == mul_max.evaluate([F(-7, 8), 4])[0] == F(-7, 8)
    b = CircuitBuilder()
    x, y = b.inputs(2)
    pair = b.build([b.add(x, y), b.gt(x, y), b.const(F(1, 3))])
    assert pair((F(1, 2), F(1, 3))) == tuple(pair.evaluate([F(1, 2), F(1, 3)]))
    assert pair((F(1, 2),), (F(1, 3),)) == (F(5, 6), 1, F(1, 3))
    with pytest.raises(CircuitError, match="arity mismatch: circuit takes 2 inputs, got 3"):
        pair((F(1), F(2), F(3)))


def call_on_columns(circuit, columns, d):
    """The circuit called on one point column of ``columns / d``, its outputs as a list."""
    out = circuit(tuple(Scaled(column, d) for column in columns))
    return list(out) if isinstance(out, tuple) else [out]


@given(random_batches())
@example((squaring_chain(3), [[F(1, 3)], [2.0**-1000], [F(5, 7)]]))
@settings(max_examples=200, deadline=None)
def test_call_on_point_columns_matches_evaluate_and_reference(case):
    # rows draw integers, floats, decimals and fractions over 40 denominators,
    # so most batches mix denominators and share a D no single row has; a tiny
    # float puts that D past the bit budget, which sends the batch row by row
    # (x**8 allows 512 bits of D - 1: the example's middle row alone runs the reference)
    circuit, rows = case
    assume(circuit.input_arity > 0)  # a point column needs a coordinate to carry its rows
    columns, d = scaled_columns(circuit, rows)
    assert_columns_match(circuit, rows, call_on_columns(circuit, columns, d))


def test_call_brings_point_columns_to_one_denominator():
    # x over 4 and y over 6 run as one batch over D = 12: max(x*y, x) is over D**2
    c = parse_circuit(MUL_MAX)
    x = Scaled(np.array([1, -3, 2], dtype=object), 4)
    y = Scaled(np.array([5, 1, -6], dtype=object), 6)
    out = c((x, y))
    assert out.den == 144
    rows = [[F(1, 4), F(5, 6)], [F(-3, 4), F(1, 6)], [F(1, 2), F(-1)]]
    assert [F(v, out.den) for v in out.num] == [c(r) for r in rows]
    again = c((x,), (y,))
    assert again.den == out.den and list(again.num) == list(out.num)


def test_call_on_point_columns_falls_back_per_row_past_bit_budget(monkeypatch):
    # as in test_run_many_none_past_bit_budget: D - 1 may have at most 10 bits
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

    def run(rows):
        (out,) = call_on_columns(c, *scaled_columns(c, rows))
        return list(out.num), out.den

    # 997 and 991 each fit alone, their lcm 988027 does not: each row runs on
    # its own, and the output comes back over the lcm of the rows' denominators
    assert run([[F(1, 997), F(3)], [F(2, 991), F(5)]]) == ([3 * 991, 10 * 997], 997 * 991)
    assert calls == ["evaluate", "evaluate"]
    # a batch whose shared D fits runs as one batch
    calls.clear()
    nums, den = run([[F(1, 4), F(3)], [F(1, 8), F(1, 2)]])
    assert [F(v, den) for v in nums] == [F(3, 4), F(1, 16)]
    assert calls == []
    # a row past the budget alone reaches the reference; 2049 = 3 * 683
    calls.clear()
    assert run([[F(1, 2049), 1], [F(1, 3), 1]]) == ([1, 683], 2049)
    assert calls == ["evaluate", "reference", "evaluate"]
