"""Stock circuits and point helpers shared by verifiers, reductions, and tests.

Maps are 3->3 circuits over [0,1]^3, potentials 3->1, distances 6->1 with the
first point in inputs 0..2 and the second in inputs 3..5.

A point is three rationals.  A point column is three ``ScaledColumn``s, one
chunk of points with each coordinate over one denominator; ``circuit_fn``
evaluates a circuit on points and ``circuit_columns`` on point columns,
through the batch kernel ``on_one_scale``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .circuit import Circuit, CircuitBuilder

Point = tuple[Fraction, Fraction, Fraction]


def as_point(coords: Sequence) -> Point:
    if len(coords) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(coords)}")
    # a Fraction is kept as it is: Fraction(q) would rebuild it
    point = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    return point  # type: ignore[return-value]


def l1(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((abs(a - b) for a, b in zip(x, y)), Fraction(0))


def sq_l2(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum(((a - b) ** 2 for a, b in zip(x, y)), Fraction(0))


def in_unit_cube(x: Sequence[Fraction]) -> bool:
    return all(0 <= c <= 1 for c in x)


def circuit_fn(circuit: Circuit):
    """Wrap a circuit as a tuple-in/tuple-out evaluator."""

    def call(*points: Sequence[Fraction]):
        flat: list[Fraction] = [c for p in points for c in p]
        out = circuit.evaluate(flat)
        return out[0] if len(out) == 1 else tuple(out)

    return call


def _times(num, k: int):
    """num * k, without the copy a factor of 1 would make."""
    return num if k == 1 else num * k


class ScaledColumn:
    """A column of rationals ``num[r] / den``: an object array of Python ints over one denominator.

    The value a clause predicate computes on a chunk of candidates.  It has
    the operations the clauses use: ``+`` and ``-`` with a column or a
    rational (an int or a ``Fraction``), ``abs``, multiplication by a
    rational, ``**`` by a natural number, and comparisons with a column or a
    rational, each of which gives a boolean mask with one entry per row.
    ``den`` is positive; the numerators are not reduced.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = num
        self.den = den

    @staticmethod
    def _parts(other) -> tuple:
        if isinstance(other, ScaledColumn):
            return other.num, other.den
        return other.numerator, other.denominator

    def _lift(self, other) -> tuple:
        """Both operands' numerators over the lcm of their denominators, and that lcm."""
        num, den = self._parts(other)
        common = lcm(self.den, den)
        return _times(self.num, common // self.den), _times(num, common // den), common

    def __add__(self, other) -> ScaledColumn:
        a, b, den = self._lift(other)
        return ScaledColumn(a + b, den)

    __radd__ = __add__

    def __sub__(self, other) -> ScaledColumn:
        a, b, den = self._lift(other)
        return ScaledColumn(a - b, den)

    def __rsub__(self, other) -> ScaledColumn:
        a, b, den = self._lift(other)
        return ScaledColumn(b - a, den)

    def __abs__(self) -> ScaledColumn:
        return ScaledColumn(np.abs(self.num), self.den)

    def __mul__(self, other) -> ScaledColumn:
        if isinstance(other, ScaledColumn):
            return NotImplemented
        return ScaledColumn(self.num * other.numerator, self.den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> ScaledColumn:
        return ScaledColumn(self.num ** k, self.den ** k)

    def _compare(self, other, op) -> np.ndarray:
        num, den = self._parts(other)  # denominators are positive: cross-multiply
        return op(_times(self.num, den), _times(num, self.den))

    def __lt__(self, other) -> np.ndarray:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> np.ndarray:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> np.ndarray:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> np.ndarray:
        return self._compare(other, operator.ge)


def on_one_scale(circuit: Circuit, columns: Sequence[np.ndarray], scale: int) -> list[tuple]:
    """Each output of ``circuit`` on the rows of ``columns / scale``, as (numerators, denominator).

    The batch runs through ``Circuit.evaluate_columns``.  A batch over its bit
    budget is evaluated row by row, and each output's values are brought to
    one denominator, the lcm of theirs.
    """
    size = len(columns[0])
    out = circuit.evaluate_columns(columns, scale, size)
    if out is not None:
        return out
    rows = zip(*(c.tolist() for c in columns))
    values = [circuit.evaluate([Fraction(v, scale) for v in row]) for row in rows]
    scaled = []
    for k in range(circuit.output_arity):
        den = lcm(*(row[k].denominator for row in values))
        nums = [row[k].numerator * (den // row[k].denominator) for row in values]
        scaled.append((np.array(nums, dtype=object).reshape(size), den))
    return scaled


def circuit_columns(circuit: Circuit):
    """``circuit_fn`` on point columns: tuples of ``ScaledColumn``s in, ``ScaledColumn``s out."""

    def call(*points: Sequence[ScaledColumn]):
        flat = [c for p in points for c in p]
        den = lcm(*(c.den for c in flat))
        out = [
            ScaledColumn(num, d)
            for num, d in on_one_scale(circuit, [_times(c.num, den // c.den) for c in flat], den)
        ]
        return out[0] if len(out) == 1 else tuple(out)

    return call


def l1_distance_circuit(scale: Fraction = Fraction(1)) -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    total = b.sum([b.abs(xs[i], ys[i]) for i in range(3)])
    if scale != 1:
        total = b.mul(total, b.const(scale))
    return b.build([total])


def weighted_l1_distance_circuit(weights: Sequence[Fraction]) -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    terms = [b.mul(b.abs(xs[i], ys[i]), b.const(Fraction(w))) for i, w in enumerate(weights)]
    return b.build([b.sum(terms)])


def linf_distance_circuit() -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    diffs = [b.abs(xs[i], ys[i]) for i in range(3)]
    return b.build([b.max(b.max(diffs[0], diffs[1]), diffs[2])])


def sq_l2_distance_circuit() -> Circuit:
    """Squared Euclidean distance; not a metric (triangle inequality fails)."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    terms = []
    for i in range(3):
        diff = b.sub(xs[i], ys[i])
        terms.append(b.mul(diff, diff))
    return b.build([b.sum(terms)])


def discrete_metric_circuit() -> Circuit:
    """1 iff the two points differ in any coordinate, else 0."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    flags = []
    for i in range(3):
        flags.append(b.add(b.gt(xs[i], ys[i]), b.gt(ys[i], xs[i])))
    return b.build([b.gt(b.sum(flags), b.const(0))])


def identity_map_circuit() -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    # add 0 so outputs are gate nodes rather than raw inputs
    zero = b.const(0)
    return b.build([b.add(x, zero) for x in xs])


def scaling_map_circuit(s: Fraction) -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    sc = b.const(Fraction(s))
    return b.build([b.mul(x, sc) for x in xs])


def affine_contraction_circuit(s: Fraction, target: Sequence) -> Circuit:
    """x |-> target + s*(x - target); maps the cube into itself for s in [0,1]."""
    t = as_point(target)
    b = CircuitBuilder()
    xs = b.inputs(3)
    sc = b.const(Fraction(s))
    outs = []
    for i in range(3):
        outs.append(b.add(b.const(t[i]), b.mul(sc, b.sub(xs[i], b.const(t[i])))))
    return b.build(outs)


def step_map_circuit(threshold: Fraction = Fraction(1, 2)) -> Circuit:
    """x |-> (1 if x1 > threshold else 0, 0, 0); discontinuous on purpose."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    return b.build([b.gt(xs[0], b.const(Fraction(threshold))), zero, zero])


def flip_map_circuit() -> Circuit:
    """x |-> (1 - x1, x2, x3); a period-2 map away from x1 = 1/2."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    zero = b.const(0)
    return b.build([b.sub(b.const(1), xs[0]), b.add(xs[1], zero), b.add(xs[2], zero)])


def coordinate_potential_circuit(index: int = 0) -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    return b.build([b.add(xs[index], b.const(0))])


def step_potential_circuit(threshold: Fraction = Fraction(1, 2)) -> Circuit:
    b = CircuitBuilder()
    xs = b.inputs(3)
    return b.build([b.gt(xs[0], b.const(Fraction(threshold)))])


def l1_potential_circuit(target: Sequence, scale: Fraction = Fraction(1)) -> Circuit:
    """p(x) = scale * |x - target|_1; the canonical distance-to-fixed-point potential."""
    t = as_point(target)
    b = CircuitBuilder()
    xs = b.inputs(3)
    total = b.sum([b.abs(xs[i], b.const(t[i])) for i in range(3)])
    if scale != 1:
        total = b.mul(total, b.const(Fraction(scale)))
    return b.build([total])


def constant_potential_circuit(value) -> Circuit:
    b = CircuitBuilder()
    b.inputs(3)
    return b.build([b.const(Fraction(value))])
