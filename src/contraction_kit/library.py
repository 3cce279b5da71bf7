"""Stock circuits and point helpers shared by verifiers, reductions, and tests.

Maps are 3->3 circuits over [0,1]^3, potentials 3->1, distances 6->1 with the
first point in inputs 0..2 and the second in inputs 3..5.

A point is three rationals.  A point column is three 1-D ``circuit.Scaled``s,
one chunk of points with each coordinate over one denominator.  A circuit is
called directly on either: ``d(x, y)``, ``f(x)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, CircuitBuilder, InputError

Point = tuple[Fraction, Fraction, Fraction]


def as_point(coords: Sequence) -> Point:
    if len(coords) != 3:
        raise InputError(f"expected 3 coordinates, got {len(coords)}")
    # a Fraction is kept as it is: Fraction(q) would rebuild it
    point = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    return point  # type: ignore[return-value]


def l1(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((abs(a - b) for a, b in zip(x, y)), Fraction(0))


def sq_l2(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum(((a - b) ** 2 for a, b in zip(x, y)), Fraction(0))


def in_unit_cube(x: Sequence[Fraction]) -> bool:
    return all(0 <= c <= 1 for c in x)


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


def discrete_metric(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> int:
    """A node of ``b`` that is 1 iff the points at nodes ``xs`` and ``ys`` differ, else 0."""
    flags = [b.add(b.gt(x, y), b.gt(y, x)) for x, y in zip(xs, ys)]
    return b.gt(b.sum(flags), b.const(0))


def discrete_metric_circuit() -> Circuit:
    """1 iff the two points differ in any coordinate, else 0."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    return b.build([discrete_metric(b, xs, b.inputs(3))])


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
