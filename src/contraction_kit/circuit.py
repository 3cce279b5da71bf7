"""Arithmetic circuits over exact rationals.

A circuit is a DAG of gates from {add, sub, mul, max, min, gt, const} plus
declared input nodes.  Gates are total over the rationals; ``gt`` outputs 1
if its left argument is strictly greater than its right argument and 0
otherwise.  Evaluation is exact, pure, and deterministic, so circuits can
back strict-inequality verifiers with no tolerance ambiguity.

Evaluation runs on plain integers with static denominators, the
fraction-free idea of Bareiss elimination.  On its first evaluation a
circuit is lowered once into a flat program over Python ints.  Lowering
gives every node a denominator ``K*D**e``: ``D`` is the lcm of the input
denominators of one call, and ``K`` and ``e`` are fixed by the gates alone.
Inputs are ``(1, 1)``, a const is ``(den, 0)``, ``mul`` multiplies the
``K`` and adds the ``e``, ``add``/``sub``/``max``/``min`` scale both
operands to ``lcm(K_a, K_b)*D**max(e_a, e_b)``, and ``gt`` is ``(1, 0)``.
A node then holds only its numerator, so no gate takes a gcd; each output
becomes one ``Fraction(num, K*D**e)``.  Where some ``K*D**e`` of a call
would pass ``DEN_BIT_BUDGET`` bits (deep ``mul`` chains such as repeated
squaring), that call runs the ``Fraction`` interpreter instead, which stays
as the reference.  Both give the same canonical fractions.
``evaluate_many`` runs each step of the same program once for a batch of
input rows, over numpy object columns of Python ints that share one ``D``
for the whole batch; a batch whose shared ``D`` fails the budget check is
evaluated row by row.

Text format (UTF-8, one node per line, ``#`` starts a comment):

    input <id>                      declares node <id> as the next input
    n<id>: const <num>/<den>        rational constant
    n<id>: <op> n<i> n<j>           op in {add, sub, mul, max, min, gt}
    outputs: n<i> [n<j> ...]        final line, names the output nodes

Node references may only point at previously declared nodes, which makes
cycles unrepresentable; a reference to a later node is rejected as a
forward reference.  Inputs bind positionally in declaration order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

BINARY_OPS = ("add", "sub", "mul", "max", "min", "gt")
GATE_KINDS = BINARY_OPS + ("const", "input")

_OP_FUNCS: dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "gt": lambda a, b: Fraction(1) if a > b else Fraction(0),
}

# Largest static denominator K*D**e, in bits, that the integer path carries;
# a call that would pass it at any node runs the Fraction interpreter.
DEN_BIT_BUDGET = 4096

_INT_OPS: dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "max": max,
    "min": min,
    "gt": lambda a, b: 1 if a > b else 0,
}

# the same ops on numpy object arrays of Python ints, one entry per row, which
# broadcast a plain Python int operand and give a Python int for two of them;
# gt goes through int64 so its 0/1 come back as Python ints, not bools
_COLUMN_OPS: dict[str, Callable] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "max": lambda a, b: np.maximum(a, b, dtype=object),
    "min": lambda a, b: np.minimum(a, b, dtype=object),
    "gt": lambda a, b: np.greater(a, b).astype(np.int64).astype(object),
}


class CircuitError(ValueError):
    """Structural problem in a circuit (bad reference, arity, ...)."""


class CircuitParseError(CircuitError):
    """Parse failure; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_fraction(text: str) -> Fraction:
    """Parse ``a/b`` or ``a`` with integer parts into an exact rational.

    Raises ValueError on malformed text, including a zero denominator.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_fraction(q: Fraction) -> str:
    """Render a rational as ``num/den`` (integers as ``num/1``-free form)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Gate:
    """One circuit node: an operation, a constant, or a declared input."""

    kind: str
    args: tuple[int, ...] = ()
    value: Fraction | None = None       # const only
    input_index: int | None = None      # input only

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind in BINARY_OPS and len(self.args) != 2:
            raise CircuitError(f"{self.kind} gate takes exactly two inputs")
        if self.kind in ("const", "input") and self.args:
            raise CircuitError(f"{self.kind} gate takes no inputs")
        if self.kind == "const" and self.value is None:
            raise CircuitError("const gate needs a rational value")


class Circuit:
    """Immutable gate list in topological order plus designated outputs."""

    def __init__(self, gates: dict[int, Gate], order: Sequence[int], outputs: Sequence[int]):
        self._gates = dict(gates)
        self._order = list(order)
        self.outputs = list(outputs)
        self._inputs = [i for i in self._order if self._gates[i].kind == "input"]
        self._validate()

    def _validate(self) -> None:
        seen: set[int] = set()
        for node_id in self._order:
            gate = self._gates[node_id]
            for ref in gate.args:
                if ref not in self._gates:
                    raise CircuitError(f"dangling node id n{ref}")
                if ref not in seen:
                    raise CircuitError(f"forward reference to n{ref} from n{node_id}")
            seen.add(node_id)
        for out in self.outputs:
            if out not in self._gates:
                raise CircuitError(f"dangling output id n{out}")
        if not self.outputs:
            raise CircuitError("circuit declares no outputs")

    @property
    def input_arity(self) -> int:
        return len(self._inputs)

    @property
    def output_arity(self) -> int:
        return len(self.outputs)

    @property
    def gate_count(self) -> int:
        return len(self._order)

    def nodes(self) -> Iterable[tuple[int, Gate]]:
        for node_id in self._order:
            yield node_id, self._gates[node_id]

    def _fractions(self, inputs: Sequence[Fraction]) -> list[Fraction]:
        """One input row as Fractions, after the arity check."""
        if len(inputs) != self.input_arity:
            raise CircuitError(
                f"arity mismatch: circuit takes {self.input_arity} inputs, got {len(inputs)}"
            )
        return [q if type(q) is Fraction else Fraction(q) for q in inputs]

    @cached_property
    def _program(self) -> _Program:
        """The integer program, lowered on first use."""
        return _Program(self)

    def evaluate(self, inputs: Sequence[Fraction]) -> list[Fraction]:
        """Exactly evaluate the circuit on rational inputs.

        Runs the circuit's integer program (lowered on the first call) and
        falls back to ``_evaluate_reference`` when the call's static
        denominators would pass ``DEN_BIT_BUDGET`` bits.
        """
        qs = self._fractions(inputs)
        out = self._program.run(qs)
        return self._evaluate_reference(qs) if out is None else out

    def evaluate_many(self, rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        """Exactly evaluate the circuit on many input rows: ``[evaluate(r) for r in rows]``.

        Runs each step of the integer program once for the whole batch, over
        column-wise values that share one ``D``, the lcm of every input
        denominator in the batch.  When that ``D`` would put some static
        denominator past ``DEN_BIT_BUDGET`` bits, each row goes through
        ``evaluate`` on its own and keeps its own ``D`` or the reference.
        """
        qss = [self._fractions(row) for row in rows]
        if not qss:
            return []
        out = self._program.run_many(qss)
        return [self.evaluate(qs) for qs in qss] if out is None else out

    def _evaluate_reference(self, qs: Sequence[Fraction]) -> list[Fraction]:
        """The ``Fraction`` interpreter: one exact rational op per gate.

        Takes one ``Fraction`` per input, as ``evaluate`` passes them.
        """
        values: dict[int, Fraction] = {}
        for node_id in self._order:
            gate = self._gates[node_id]
            if gate.kind == "input":
                values[node_id] = qs[gate.input_index]
            elif gate.kind == "const":
                values[node_id] = gate.value
            else:
                values[node_id] = _OP_FUNCS[gate.kind](values[gate.args[0]], values[gate.args[1]])
        return [values[out] for out in self.outputs]

    def evaluate1(self, inputs: Sequence[Fraction]) -> Fraction:
        """Evaluate a single-output circuit and return the scalar."""
        out = self.evaluate(inputs)
        if len(out) != 1:
            raise CircuitError(f"expected one output, circuit has {len(out)}")
        return out[0]

    def to_text(self) -> str:
        lines = []
        for node_id in self._order:
            gate = self._gates[node_id]
            if gate.kind == "input":
                lines.append(f"input {node_id}")
            elif gate.kind == "const":
                lines.append(f"n{node_id}: const {format_fraction(gate.value)}")
            else:
                lines.append(f"n{node_id}: {gate.kind} n{gate.args[0]} n{gate.args[1]}")
        lines.append("outputs: " + " ".join(f"n{i}" for i in self.outputs))
        return "\n".join(lines) + "\n"


def _d_bits_limit(k: int, e: int) -> int:
    """Largest b with K.bit_length() + e*b <= DEN_BIT_BUDGET, or -1 if none."""
    left = DEN_BIT_BUDGET - k.bit_length()
    if left < 0:
        return -1
    return left // e if e else DEN_BIT_BUDGET


class _Program:
    """A circuit lowered to integer steps over static denominators ``K*D**e``.

    Slots hold numerators: the inputs by position, then the consts, then one
    slot per gate in topological order.  A step is ``(op, a, sa, b, sb)``;
    a nonzero ``sa`` names the entry of ``scales`` that lifts slot ``a`` to
    the gate's common denominator, as a pair ``(m, k)`` meaning ``m*D**k``.
    ``column_ops`` holds, per step, its form over numpy object columns of
    Python ints for ``run_many``.
    """

    def __init__(self, circuit: Circuit) -> None:
        node: dict[int, tuple[int, int, int]] = {}  # node id -> (slot, K, e)
        levels = {(1, 1)}  # every (K, e) some node or comparison carries
        self.consts: list[int] = []
        gates: list[tuple[int, Gate]] = []
        for node_id, gate in circuit.nodes():
            if gate.kind == "input":
                node[node_id] = (gate.input_index, 1, 1)
            elif gate.kind == "const":
                q = Fraction(gate.value)
                node[node_id] = (circuit.input_arity + len(self.consts), q.denominator, 0)
                self.consts.append(q.numerator)
                levels.add((q.denominator, 0))
            else:
                gates.append((node_id, gate))
        scale_index = {(1, 0): 0}
        self.steps: list[tuple] = []
        for slot, (node_id, gate) in enumerate(gates, start=len(node)):
            a, ka, ea = node[gate.args[0]]
            b, kb, eb = node[gate.args[1]]
            sa = sb = 0
            if gate.kind == "mul":
                k, e = ka * kb, ea + eb
            else:
                k, e = lcm(ka, kb), max(ea, eb)
                sa = scale_index.setdefault((k // ka, e - ea), len(scale_index))
                sb = scale_index.setdefault((k // kb, e - eb), len(scale_index))
            levels.add((k, e))
            if gate.kind == "gt":
                k, e = 1, 0
            node[node_id] = (slot, k, e)
            self.steps.append((_INT_OPS[gate.kind], a, sa, b, sb))
        self.column_ops = [_COLUMN_OPS[gate.kind] for _, gate in gates]
        self.scales = list(scale_index)
        self.outputs = [node[out] for out in circuit.outputs]
        # per step, the slots no later step or output reads: run_many drops
        # their columns, so a batch holds only the live ones
        last_use = {}
        for k, (_, a, _, b, _) in enumerate(self.steps):
            last_use[a] = last_use[b] = k
        for i, _, _ in self.outputs:
            last_use.pop(i, None)
        self.releases: list[list[int]] = [[] for _ in self.steps]
        for slot, k in last_use.items():
            self.releases[k].append(slot)
        # the largest (D-1).bit_length() that keeps every K*D**e in budget
        self.max_d_bits = min(_d_bits_limit(k, e) for k, e in levels)

    def run(self, qs: Sequence[Fraction]) -> list[Fraction] | None:
        """Evaluate on canonical fractions; None when over the bit budget."""
        d = lcm(*(q.denominator for q in qs))
        # K*D**e has at most K.bit_length() + e*(D-1).bit_length() bits
        if (d - 1).bit_length() > self.max_d_bits:
            return None
        v = [q.numerator * (d // q.denominator) for q in qs]
        v += self.consts
        s = [m * d**k for m, k in self.scales]
        for op, a, sa, b, sb in self.steps:
            x = v[a]
            y = v[b]
            if sa:
                x *= s[sa]
            if sb:
                y *= s[sb]
            v.append(op(x, y))
        return [Fraction(v[i], k * d**e) for i, k, e in self.outputs]

    def run_many(self, rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
        """``run`` on every row at once with one shared ``D``; None when over budget.

        A slot that depends on an input holds an object array with one
        Python int per row; one fixed by the consts alone holds a plain
        Python int, which every column op broadcasts.
        """
        d = lcm(*(q.denominator for qs in rows for q in qs))
        if (d - 1).bit_length() > self.max_d_bits:
            return None
        v: list = [
            np.array([qs[i].numerator * (d // qs[i].denominator) for qs in rows], dtype=object)
            for i in range(len(rows[0]))
        ]
        v += self.consts
        s = [m * d**k for m, k in self.scales]
        for (_, a, sa, b, sb), op, release in zip(self.steps, self.column_ops, self.releases):
            x = v[a]
            y = v[b]
            if sa:
                x = x * s[sa]  # never *=: that would scale the column in place
            if sb:
                y = y * s[sb]
            v.append(op(x, y))
            for slot in release:
                v[slot] = None
        columns = []
        for i, k, e in self.outputs:
            den = k * d**e
            column = np.broadcast_to(np.asarray(v[i], dtype=object), len(rows))
            columns.append([Fraction(num, den) for num in column])
        return [list(row) for row in zip(*columns)]


def _parse_node_ref(token: str, line_no: int) -> int:
    if not token.startswith("n") or not token[1:].isdigit():
        raise CircuitParseError(line_no, f"bad node reference {token!r}")
    return int(token[1:])


def content_lines(text: str) -> list[str]:
    """The lines of an input file with ``#`` comments, surrounding space and blank lines dropped."""
    return [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]


def parse_circuit(text: str) -> Circuit:
    """Parse the textual circuit format; raises CircuitParseError with line info."""
    gates: dict[int, Gate] = {}
    order: list[int] = []
    outputs: list[int] | None = None
    n_inputs = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if outputs is not None:
            raise CircuitParseError(line_no, "content after outputs line")
        if line.startswith("input"):
            token = line[len("input"):].strip()
            if not token.isdigit():
                raise CircuitParseError(line_no, f"bad input declaration {line!r}")
            node_id = int(token)
            if node_id in gates:
                raise CircuitParseError(line_no, f"duplicate node id n{node_id}")
            gates[node_id] = Gate("input", input_index=n_inputs)
            order.append(node_id)
            n_inputs += 1
            continue
        if line.startswith("outputs:"):
            refs = line[len("outputs:"):].split()
            if not refs:
                raise CircuitParseError(line_no, "empty outputs line")
            out_ids = []
            for token in refs:
                ref = _parse_node_ref(token, line_no)
                if ref not in gates:
                    raise CircuitParseError(line_no, f"dangling node id n{ref}")
                out_ids.append(ref)
            outputs = out_ids
            continue
        head, _, rest = line.partition(":")
        if not rest:
            raise CircuitParseError(line_no, f"unparseable line {line!r}")
        node_id = _parse_node_ref(head.strip(), line_no)
        if node_id in gates:
            raise CircuitParseError(line_no, f"duplicate node id n{node_id}")
        parts = rest.split()
        op = parts[0]
        if op == "const":
            if len(parts) != 2:
                raise CircuitParseError(line_no, "const takes exactly one rational")
            try:
                value = parse_fraction(parts[1])
            except ValueError as exc:
                raise CircuitParseError(line_no, f"bad rational {parts[1]!r}: {exc}") from exc
            gates[node_id] = Gate("const", value=value)
        elif op in BINARY_OPS:
            if len(parts) != 3:
                raise CircuitParseError(line_no, f"{op} takes exactly two node references")
            a = _parse_node_ref(parts[1], line_no)
            b = _parse_node_ref(parts[2], line_no)
            for ref in (a, b):
                if ref not in gates:
                    if ref == node_id:
                        raise CircuitParseError(line_no, f"cycle detected: n{node_id} references itself")
                    raise CircuitParseError(line_no, f"forward reference to n{ref}")
            gates[node_id] = Gate(op, (a, b))
        else:
            raise CircuitParseError(line_no, f"unknown gate {op!r}")
        order.append(node_id)
    if outputs is None:
        raise CircuitParseError(len(text.splitlines()) or 1, "missing outputs line")
    return Circuit(gates, order, outputs)


class CircuitBuilder:
    """Programmatic circuit construction with fresh sequential node ids."""

    def __init__(self) -> None:
        self._gates: dict[int, Gate] = {}
        self._order: list[int] = []
        self._n_inputs = 0
        self._const_cache: dict[Fraction, int] = {}

    def _push(self, gate: Gate) -> int:
        node_id = len(self._order)
        self._gates[node_id] = gate
        self._order.append(node_id)
        return node_id

    def input(self) -> int:
        node_id = self._push(Gate("input", input_index=self._n_inputs))
        self._n_inputs += 1
        return node_id

    def inputs(self, count: int) -> list[int]:
        return [self.input() for _ in range(count)]

    def const(self, value) -> int:
        q = Fraction(value)
        if q not in self._const_cache:
            self._const_cache[q] = self._push(Gate("const", value=q))
        return self._const_cache[q]

    def op(self, kind: str, a: int, b: int) -> int:
        return self._push(Gate(kind, (a, b)))

    def add(self, a: int, b: int) -> int:
        return self.op("add", a, b)

    def sub(self, a: int, b: int) -> int:
        return self.op("sub", a, b)

    def mul(self, a: int, b: int) -> int:
        return self.op("mul", a, b)

    def max(self, a: int, b: int) -> int:
        return self.op("max", a, b)

    def min(self, a: int, b: int) -> int:
        return self.op("min", a, b)

    def gt(self, a: int, b: int) -> int:
        return self.op("gt", a, b)

    def abs(self, a: int, b: int) -> int:
        """|a - b| as max(a-b, b-a)."""
        return self.max(self.sub(a, b), self.sub(b, a))

    def sum(self, ids: Sequence[int]) -> int:
        if not ids:
            return self.const(0)
        acc = ids[0]
        for node in ids[1:]:
            acc = self.add(acc, node)
        return acc

    def peel_power(self, v: int, base: Fraction, max_value: int) -> tuple[int, int]:
        """(base**floor(v), v - floor(v)) for a node v holding a value in [0, max_value].

        The binary digits of floor(v) are peeled off with gt/sub gates against
        descending powers of two, and the matching repeated squarings of base
        are multiplied together.  Gate count is O(log max_value).
        """
        one = self.const(1)
        n_bits = max_value.bit_length()
        # squares[j] = base**(2**j), built in-circuit by repeated squaring
        squares = [self.const(base)]
        for _ in range(1, n_bits):
            squares.append(self.mul(squares[-1], squares[-1]))
        remainder = v
        acc = one
        for j in range(n_bits - 1, -1, -1):
            threshold = self.const(2 ** j)
            bit = self.sub(one, self.gt(threshold, remainder))  # 1 iff remainder >= 2**j
            remainder = self.sub(remainder, self.mul(bit, threshold))
            factor = self.add(self.mul(bit, squares[j]), self.sub(one, bit))
            acc = self.mul(acc, factor)
        return acc, remainder

    def inline(self, circuit: Circuit, args: Sequence[int]) -> list[int]:
        """Splice another circuit in, wiring its inputs to existing nodes."""
        if len(args) != circuit.input_arity:
            raise CircuitError(
                f"inline arity mismatch: circuit takes {circuit.input_arity}, got {len(args)}"
            )
        mapping: dict[int, int] = {}
        for node_id, gate in circuit.nodes():
            if gate.kind == "input":
                mapping[node_id] = args[gate.input_index]
            elif gate.kind == "const":
                mapping[node_id] = self.const(gate.value)
            else:
                mapping[node_id] = self.op(gate.kind, mapping[gate.args[0]], mapping[gate.args[1]])
        return [mapping[out] for out in circuit.outputs]

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(self._gates, self._order, outputs)


def build_power_circuit(c: Fraction, max_exponent: int) -> Circuit:
    """Circuit computing c**e for integer inputs e in [0, max_exponent].

    The exponent arrives as a rational-encoded integer and goes through
    ``CircuitBuilder.peel_power``.  Gate count is O(log max_exponent).
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise CircuitError(f"c must lie in (0,1), got {format_fraction(c)}")
    if max_exponent < 1:
        raise CircuitError("max_exponent must be at least 1")
    b = CircuitBuilder()
    power, _ = b.peel_power(b.input(), c, max_exponent)
    return b.build([power])
