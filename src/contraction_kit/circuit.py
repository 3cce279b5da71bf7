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

A circuit is called on points: ``circuit(x, y)`` reads its inputs from the
coordinates of the points in order.  On rationals the call is ``evaluate``.
On point columns (tuples of 1-D ``Scaled``s, one row per point) it is
the one batch entry: ``Scaled.common`` brings the columns to one ``D`` and
each step of the same program runs once for the whole batch over numpy
object columns of Python ints, each output a ``Scaled`` over its static
``K*D**e``; past the budget the rows run one by one.  A caller that reads
many rows built from few points scales the points once with ``Scaled.of``
and gathers their columns by index.

Text format (UTF-8, one node per line, ``#`` starts a comment):

    input <id>                      declares node <id> as the next input
    n<id>: const <num>/<den>        rational constant
    n<id>: <op> n<i> n<j>           op in {add, sub, mul, max, min, gt}
    outputs: n<i> [n<j> ...]        final line, names the output nodes

Node references may only point at previously declared nodes, which makes
cycles unrepresentable; a reference to a later node is rejected as a
forward reference.  Inputs bind positionally in declaration order.

A ``Gate`` is a plain named tuple that checks nothing.  Checks live where a
bad gate can come in: ``parse_circuit`` rejects each malformed line with a
``CircuitParseError`` naming the line, ``CircuitBuilder.op`` rejects a kind
outside ``_GATE_OPS``, and ``Circuit`` checks references and outputs.  That one
table holds each binary kind's op on ints and on columns, for both evaluators.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

# Largest static denominator K*D**e, in bits, that the integer path carries;
# a call that would pass it at any node runs the Fraction interpreter.
DEN_BIT_BUDGET = 4096

# per gate kind, its exact op twice.  First on Python ints and Fractions alike:
# the integer program runs it on scaled numerators, the Fraction interpreter on
# values.  Then on numpy object arrays of Python ints, one entry per row, which
# broadcast a plain Python int operand and give a Python int for two of them;
# gt goes through int64 so its 0/1 come back as Python ints, not bools
_GATE_OPS: dict[str, tuple[Callable, Callable]] = {
    "add": (operator.add, operator.add),
    "sub": (operator.sub, operator.sub),
    "mul": (operator.mul, operator.mul),
    "max": (max, lambda a, b: np.maximum(a, b, dtype=object)),
    "min": (min, lambda a, b: np.minimum(a, b, dtype=object)),
    "gt": (lambda a, b: 1 if a > b else 0, lambda a, b: np.greater(a, b).astype(np.int64).astype(object)),
}
BINARY_OPS = tuple(_GATE_OPS)


class InputError(ValueError):
    """Malformed or out-of-range input text or argument; each module's input error subclasses it."""


class CircuitError(InputError):
    """Structural problem in a circuit (bad reference, arity, ...)."""


class CircuitParseError(CircuitError):
    """Parse failure; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_number(convert: Callable[[str], T], text: str, error: type[ValueError] = InputError) -> T:
    """``convert(text)`` (``int`` or ``float``), raising ``error`` with the same message on malformed text."""
    try:
        return convert(text)
    except ValueError as exc:
        raise error(str(exc)) from None


def parse_fraction(text: str) -> Fraction:
    """Parse ``a/b`` or ``a`` with integer parts into an exact rational.

    Raises InputError on malformed text, including a zero denominator.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if parse_number(int, den) == 0:
            raise InputError(f"zero denominator in {text!r}")
        return Fraction(parse_number(int, num), parse_number(int, den))
    return Fraction(parse_number(int, text))


def format_ratio(num: int, den: int) -> str:
    """Render ``num / den`` (den > 0) in lowest terms as ``num/den``, or ``num`` when whole.

    Raises InputError when a part has more digits than ``sys.get_int_max_str_digits()``.
    """
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        if den == 1:
            return str(num)
        return f"{num}/{den}"
    except ValueError as exc:
        raise InputError(str(exc)) from None


def format_fraction(q: Fraction) -> str:
    """Render a rational as ``format_ratio`` does its numerator and denominator."""
    return format_ratio(q.numerator, q.denominator)


class Gate(NamedTuple):
    """One circuit node: an operation, a constant, or a declared input.

    Unchecked; ``parse_circuit`` and ``CircuitBuilder`` make only valid gates.
    """

    kind: str
    args: tuple[int, ...] = ()
    value: Fraction | None = None       # const only
    input_index: int | None = None      # input only


def int_dtype(bound: int):
    """int64 if the sum of two entries of magnitude <= bound fits, else object (Python ints)."""
    return np.int64 if 2 * bound < 1 << 63 else object


def _times(num, k: int):
    """num * k, without the copy a factor of 1 would make."""
    return num if k == 1 else num * k


class Scaled:
    """Rationals ``num / den``: an integer array ``num`` of any shape over one ``den > 0``.

    The one place that scales, lifts, reads back and prints exact rational
    arrays: point columns, which circuits and clause predicates take and
    give, and the converse matrices.  ``num`` is int64 where ``int_dtype``
    allows it, else Python ints in an object array, and is not reduced.
    The operators are the clauses': ``+``, ``-`` and comparisons (a boolean
    mask) with a ``Scaled`` or a rational, ``abs``, ``*`` by a rational and
    ``**`` by a natural number.  They lift an int64 ``num`` to Python ints
    first, so none of them wraps.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = num
        self.den = den

    @staticmethod
    def of(values: Sequence) -> Scaled:
        """``values``, ints and Fractions nested in lists or tuples, over the lcm of their denominators.

        Each distinct denominator is divided into the lcm once, and ``num``
        has the dtype ``int_dtype`` picks; ``[]`` gives an empty column.
        """
        shape, flat = [len(values)], list(values)
        while flat and isinstance(flat[0], (list, tuple)):
            shape.append(len(flat[0]))
            flat = [x for row in flat for x in row]
        dens = {x.denominator for x in flat}
        den = lcm(*dens)
        factor = {q: den // q for q in dens}
        ints = [x.numerator * factor[x.denominator] for x in flat]
        dtype = int_dtype(max(map(abs, ints), default=0))
        return Scaled(np.array(ints, dtype=dtype).reshape(shape), den)

    @staticmethod
    def common(values: Sequence, factor: int | None = None) -> tuple[list, int]:
        """``(nums, s)``: ``values`` (``Scaled``s or rationals) over the lcm ``s`` of their denominators.

        Without ``factor`` they are Python ints.  A caller that computes on
        int64 passes the largest ``factor`` it multiplies them by; they then
        have the dtype ``int_dtype`` picks for ``factor`` times the largest
        lifted |numerator|.
        """
        parts = [(v.num, v.den) if type(v) is Scaled else (v.numerator, v.denominator) for v in values]
        s = lcm(*(den for _, den in parts))
        dtype = object
        if factor is not None:
            top = max(max(1, int(abs(num).max())) * (s // den) for num, den in parts)
            dtype = int_dtype(factor * top)
        return [_times(np.asarray(num, dtype=dtype), s // den) for num, den in parts], s

    def wide(self) -> Scaled:
        """The same values with ``num`` as Python ints, on which no arithmetic wraps."""
        return self if self.num.dtype == object else Scaled(self.num.astype(object), self.den)

    def __getitem__(self, index):
        """``num[index]`` over ``den``; an entry, picked by one integer per axis, as a Fraction."""
        num = self.num[index]
        if isinstance(num, np.ndarray):
            return Scaled(num, self.den)
        return Fraction(int(num), self.den)

    def columns(self) -> tuple[Scaled, ...]:
        """The columns of a 2-D ``Scaled``: a block of points, one per row, gives its point columns."""
        return tuple(Scaled(column, self.den) for column in self.num.T)

    def fractions(self) -> list:
        """The values as Fractions in nested lists (the inverse of ``of``), each computed once."""
        value = {v: Fraction(v, self.den) for v in set(self.num.ravel().tolist())}
        return np.frompyfunc(value.__getitem__, 1, 1)(self.num).tolist()

    def texts(self) -> list:
        """The values as ``format_ratio`` writes them, in nested lists: one ``np.unique`` sort
        gives the distinct numerators, each is written once, and the sort's inverse gathers them."""
        values, inverse = np.unique(self.num, return_inverse=True)
        texts = np.array([format_ratio(v, self.den) for v in values.tolist()], dtype=object)
        return texts[inverse.reshape(self.num.shape)].tolist()

    def __add__(self, other) -> Scaled:
        (a, b), den = Scaled.common((self, other))
        return Scaled(a + b, den)

    __radd__ = __add__

    def __sub__(self, other) -> Scaled:
        (a, b), den = Scaled.common((self, other))
        return Scaled(a - b, den)

    def __rsub__(self, other) -> Scaled:
        (a, b), den = Scaled.common((self, other))
        return Scaled(b - a, den)

    def __abs__(self) -> Scaled:
        return Scaled(np.abs(self.wide().num), self.den)

    def __mul__(self, other) -> Scaled:
        if isinstance(other, Scaled):
            return NotImplemented
        return Scaled(self.wide().num * other.numerator, self.den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Scaled:
        return Scaled(self.wide().num ** k, self.den ** k)

    def _compare(self, other, op) -> np.ndarray:
        (a, b), _ = Scaled.common((self, other))
        return op(a, b)

    def __lt__(self, other) -> np.ndarray:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> np.ndarray:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> np.ndarray:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> np.ndarray:
        return self._compare(other, operator.ge)


class Circuit:
    """Immutable gates, keyed by node id in topological order, plus designated outputs."""

    def __init__(self, gates: dict[int, Gate], outputs: Sequence[int]):
        self._gates = dict(gates)  # insertion order is the evaluation order
        self.outputs = list(outputs)
        self.input_arity = sum(gate.kind == "input" for gate in self._gates.values())
        self._validate()

    def _validate(self) -> None:
        seen: set[int] = set()
        for node_id, gate in self._gates.items():
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
    def output_arity(self) -> int:
        return len(self.outputs)

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    def nodes(self) -> Iterable[tuple[int, Gate]]:
        return self._gates.items()

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
        if len(inputs) != self.input_arity:
            raise self._arity_error(len(inputs))
        qs = [q if type(q) is Fraction else Fraction(q) for q in inputs]
        out = self._program.run(qs)
        return self._evaluate_reference(qs) if out is None else out

    def _arity_error(self, got: int) -> CircuitError:
        return CircuitError(f"arity mismatch: circuit takes {self.input_arity} inputs, got {got}")

    def __call__(self, *points):
        """The circuit on points, its inputs read from their coordinates in order.

        Points of rationals go to ``evaluate``.  Point columns, tuples of
        1-D ``Scaled``s, are brought to the lcm of their denominators and
        run as one batch on the integer program; past the bit budget they
        run row by row, and each output is ``Scaled.of`` its rows' values,
        over Python ints.  One output comes back alone, several as a tuple.
        """
        flat = [c for p in points for c in p]
        if flat and type(flat[0]) is Scaled:
            if len(flat) != self.input_arity:
                raise self._arity_error(len(flat))
            columns, den = Scaled.common(flat)
            out = self._program.run_many(columns, den, len(columns[0]))
            if out is None:
                rows = zip(*(c.tolist() for c in columns))
                values = [self.evaluate([Fraction(v, den) for v in row]) for row in rows]
                out = [Scaled.of([row[k] for row in values]).wide() for k in range(self.output_arity)]
        else:
            out = self.evaluate(flat)
        return out[0] if len(out) == 1 else tuple(out)

    def _evaluate_reference(self, qs: Sequence[Fraction]) -> list[Fraction]:
        """The ``Fraction`` interpreter: one exact rational op per gate.

        Takes one ``Fraction`` per input, as ``evaluate`` passes them.
        """
        values: dict[int, Fraction] = {}
        for node_id, gate in self._gates.items():
            if gate.kind == "input":
                values[node_id] = qs[gate.input_index]
            elif gate.kind == "const":
                values[node_id] = gate.value
            else:
                values[node_id] = _GATE_OPS[gate.kind][0](values[gate.args[0]], values[gate.args[1]])
        return [Fraction(values[out]) for out in self.outputs]

    def to_text(self) -> str:
        lines = []
        for node_id, gate in self._gates.items():
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
        gates: list[tuple[int, str, tuple[int, ...]]] = []
        for node_id, (kind, args, q, index) in circuit.nodes():
            if kind == "input":
                node[node_id] = (index, 1, 1)
            elif kind == "const":  # q is a Fraction (or an int): canonical parts
                node[node_id] = (circuit.input_arity + len(self.consts), q.denominator, 0)
                self.consts.append(q.numerator)
                levels.add((q.denominator, 0))
            else:
                gates.append((node_id, kind, args))
        scale_index = {(1, 0): 0}
        self.steps: list[tuple] = []
        for slot, (node_id, kind, (x, y)) in enumerate(gates, start=len(node)):
            a, ka, ea = node[x]
            b, kb, eb = node[y]
            sa = sb = 0
            if kind == "mul":
                k, e = ka * kb, ea + eb
            else:
                k, e = lcm(ka, kb), max(ea, eb)
                sa = scale_index.setdefault((k // ka, e - ea), len(scale_index))
                sb = scale_index.setdefault((k // kb, e - eb), len(scale_index))
            levels.add((k, e))
            if kind == "gt":
                k, e = 1, 0
            node[node_id] = (slot, k, e)
            self.steps.append((_GATE_OPS[kind][0], a, sa, b, sb))
        self.column_ops = [_GATE_OPS[kind][1] for _, kind, _ in gates]
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

    def run_many(self, columns: Sequence[np.ndarray], d: int, size: int) -> list[Scaled] | None:
        """``run`` on a batch of ``size`` rows; None when over budget.

        ``columns[i][r] / d`` is input ``i`` of row ``r``: one numpy object
        array of Python ints per input, all over the one denominator ``d``;
        ``size`` gives the row count for a circuit with no inputs.  None
        when ``d`` would put some static denominator ``K*d**e`` past
        ``DEN_BIT_BUDGET`` bits.  A slot that depends on an input holds an
        object array with one Python int per row; one fixed by the consts
        alone holds a plain Python int, which every column op broadcasts,
        so a const output comes back as ``size`` equal rows.  Each output is
        a ``Scaled`` over its static denominator ``K*d**e``, not
        reduced to lowest terms.
        """
        if (d - 1).bit_length() > self.max_d_bits:
            return None
        v: list = list(columns)
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
        return [
            Scaled(np.broadcast_to(np.asarray(v[i], dtype=object), size), k * d**e)
            for i, k, e in self.outputs
        ]


def _parse_node_id(digits: str, line_no: int, what: str, text: str) -> int:
    """The node id spelled by decimal ``digits``; CircuitParseError ``f"{what} {text!r}"`` on other text.

    The message is formatted only on failure.  ``str.isdecimal`` admits
    exactly the digits ``int`` reads; ``str.isdigit`` would also admit '²'
    and '①', which ``int`` rejects.
    """
    if not digits.isdecimal():
        raise CircuitParseError(line_no, f"{what} {text!r}")
    try:
        return int(digits)
    except ValueError as exc:  # more digits than the interpreter's int-conversion limit
        raise CircuitParseError(line_no, str(exc)) from None


def _parse_node_ref(token: str, line_no: int) -> int:
    digits = token[1:] if token[:1] == "n" else ""
    return _parse_node_id(digits, line_no, "bad node reference", token)


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The content lines of an input file, ``#`` comments, surrounding space and blank
    lines dropped, each with its 1-based line number in the file."""
    splits = enumerate(text.splitlines(), 1)
    return [(no, ln) for no, raw in splits if (ln := raw.split("#", 1)[0].strip())]


def content_lines(text: str) -> list[str]:
    """The lines of an input file with ``#`` comments, surrounding space and blank lines dropped."""
    return [ln for _, ln in numbered_lines(text)]


def parse_circuit(text: str | list[tuple[int, str]], end: int | None = None) -> Circuit:
    """Parse the textual circuit format; raises CircuitParseError with line info.

    ``text`` is a circuit's text, or a block of a larger file: its
    ``numbered_lines``, with ``end`` the number of the line that closes the
    block, which a missing outputs line names.  A gate line ``n<id>: <op>
    n<i> n<j>`` is tested first, since almost every line is one; a line that
    starts with ``n`` cannot be an input or outputs line, so the order of the
    tests changes no message.
    """
    lines = text
    if isinstance(text, str):
        lines, end = numbered_lines(text), len(text.splitlines()) or 1
    gates: dict[int, Gate] = {}
    outputs: list[int] | None = None
    n_inputs = 0
    for line_no, line in lines:
        if outputs is not None:
            raise CircuitParseError(line_no, "content after outputs line")
        head, _, rest = line.partition(":")
        parts = rest.split()
        op = parts[0] if parts else ""
        if op in _GATE_OPS and line[0] == "n":
            node_id = _parse_node_ref(head.rstrip(), line_no)
            if node_id in gates:
                raise CircuitParseError(line_no, f"duplicate node id n{node_id}")
            if len(parts) != 3:
                raise CircuitParseError(line_no, f"{op} takes exactly two node references")
            a = _parse_node_ref(parts[1], line_no)
            b = _parse_node_ref(parts[2], line_no)
            if not (a in gates and b in gates):
                ref = b if a in gates else a
                if ref == node_id:
                    raise CircuitParseError(line_no, f"cycle detected: n{node_id} references itself")
                raise CircuitParseError(line_no, f"forward reference to n{ref}")
            gates[node_id] = Gate(op, (a, b))
            continue
        if line.startswith("input"):
            token = line[len("input"):].strip()
            node_id = _parse_node_id(token, line_no, "bad input declaration", line)
            if node_id in gates:
                raise CircuitParseError(line_no, f"duplicate node id n{node_id}")
            gates[node_id] = Gate("input", input_index=n_inputs)
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
        if not rest:
            raise CircuitParseError(line_no, f"unparseable line {line!r}")
        node_id = _parse_node_ref(head.strip(), line_no)
        if node_id in gates:
            raise CircuitParseError(line_no, f"duplicate node id n{node_id}")
        if op != "const":  # a binary op here has a head that is no node reference
            raise CircuitParseError(line_no, f"unknown gate {op!r}")
        if len(parts) != 2:
            raise CircuitParseError(line_no, "const takes exactly one rational")
        try:
            value = parse_fraction(parts[1])
        except InputError as exc:
            raise CircuitParseError(line_no, f"bad rational {parts[1]!r}: {exc}") from exc
        gates[node_id] = Gate("const", value=value)
    if outputs is None:
        raise CircuitParseError(end, "missing outputs line")
    return Circuit(gates, outputs)


class CircuitBuilder:
    """Programmatic circuit construction with fresh sequential node ids."""

    def __init__(self) -> None:
        self._gates: dict[int, Gate] = {}
        self._n_inputs = 0
        self._const_cache: dict[tuple[int, int], int] = {}

    def _push(self, gate: Gate) -> int:
        node_id = len(self._gates)
        self._gates[node_id] = gate
        return node_id

    def input(self) -> int:
        node_id = self._push(Gate("input", input_index=self._n_inputs))
        self._n_inputs += 1
        return node_id

    def inputs(self, count: int) -> list[int]:
        return [self.input() for _ in range(count)]

    def const(self, value) -> int:
        q = value if type(value) is Fraction else Fraction(value)
        key = (q.numerator, q.denominator)  # a tuple of ints hashes faster than a Fraction
        node_id = self._const_cache.get(key)
        if node_id is None:
            node_id = self._const_cache[key] = self._push(Gate("const", value=q))
        return node_id

    def op(self, kind: str, a: int, b: int) -> int:
        if kind not in _GATE_OPS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        return self._push(Gate(kind, (a, b)))

    def add(self, a: int, b: int) -> int:
        return self._push(Gate("add", (a, b)))

    def sub(self, a: int, b: int) -> int:
        return self._push(Gate("sub", (a, b)))

    def mul(self, a: int, b: int) -> int:
        return self._push(Gate("mul", (a, b)))

    def max(self, a: int, b: int) -> int:
        return self._push(Gate("max", (a, b)))

    def min(self, a: int, b: int) -> int:
        return self._push(Gate("min", (a, b)))

    def gt(self, a: int, b: int) -> int:
        return self._push(Gate("gt", (a, b)))

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
        for node_id, (kind, refs, value, index) in circuit.nodes():
            if kind == "input":
                mapping[node_id] = args[index]
            elif kind == "const":
                mapping[node_id] = self.const(value)
            else:
                mapping[node_id] = self.op(kind, mapping[refs[0]], mapping[refs[1]])
        return [mapping[out] for out in circuit.outputs]

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(self._gates, outputs)


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
