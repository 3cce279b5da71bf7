"""Exact deciders for metric axioms, Lipschitz continuity, and contraction.

All checks are over caller-supplied finite point sets and decide strict
inequalities exactly on rationals; no epsilon slack is ever added.  Returned
violations carry the witnesses and both sides of the failed inequality so
they replay bit-for-bit through re-evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .circuit import Circuit
from .library import Point, as_point, circuit_fn, l1

AXIOM_NONNEG = "NONNEG"
AXIOM_IDENTITY = "IDENTITY"
AXIOM_SYMMETRY = "SYMMETRY"
AXIOM_TRIANGLE = "TRIANGLE"

DistanceFn = Callable[[Sequence[Fraction], Sequence[Fraction]], Fraction]


@dataclass(frozen=True)
class MetricViolation:
    """A failed metric axiom with the witnessing points and both sides."""

    axiom: str
    witnesses: tuple[Point, ...]
    lhs: Fraction
    rhs: Fraction

    def replay(self, d: DistanceFn) -> bool:
        """Re-derive the violation from scratch; True iff it still holds."""
        w = self.witnesses
        if self.axiom == AXIOM_NONNEG:
            return d(w[0], w[1]) < 0
        if self.axiom == AXIOM_IDENTITY:
            if len(w) == 1:
                return d(w[0], w[0]) != 0
            return w[0] != w[1] and d(w[0], w[1]) == 0
        if self.axiom == AXIOM_SYMMETRY:
            return d(w[0], w[1]) != d(w[1], w[0])
        if self.axiom == AXIOM_TRIANGLE:
            return d(w[0], w[1]) > d(w[0], w[2]) + d(w[2], w[1])
        raise ValueError(f"unknown axiom {self.axiom!r}")


@dataclass(frozen=True)
class PointPair:
    x: Point
    y: Point

    def __post_init__(self):
        object.__setattr__(self, "x", as_point(self.x))
        object.__setattr__(self, "y", as_point(self.y))


def _as_distance(d) -> DistanceFn:
    if isinstance(d, Circuit):
        if d.input_arity != 6 or d.output_arity != 1:
            raise ValueError("distance circuit must map 6 inputs to 1 output")
        return circuit_fn(d)
    return d


def _first_failure(dist: Sequence[Sequence[Fraction]], keys: Sequence):
    """First metric-axiom failure of a k x k matrix as (axiom, indices, lhs, rhs), or None.

    Axioms are scanned in the order nonnegativity, identity of indiscernibles
    (the diagonal, then pairs with distinct keys), symmetry, triangle
    inequality; within each axiom the index tuples run in lexicographic
    order, so the result is deterministic.  Indices i and j name distinct
    points when keys[i] != keys[j].
    """
    n = len(dist)
    for i in range(n):
        for j in range(n):
            if dist[i][j] < 0:
                return AXIOM_NONNEG, (i, j), dist[i][j], Fraction(0)
    for i in range(n):
        if dist[i][i] != 0:
            return AXIOM_IDENTITY, (i,), dist[i][i], Fraction(0)
    for i in range(n):
        for j in range(n):
            if keys[i] != keys[j] and dist[i][j] == 0:
                return AXIOM_IDENTITY, (i, j), Fraction(0), Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                return AXIOM_SYMMETRY, (i, j), dist[i][j], dist[j][i]
    for i in range(n):
        row = dist[i]
        for j in range(n):
            if i == j:
                continue
            lhs = row[j]
            for k in range(n):
                if k != i and k != j:
                    rhs = row[k] + dist[k][j]
                    if lhs > rhs:
                        return AXIOM_TRIANGLE, (i, j, k), lhs, rhs
    return None


def check_metric_axioms(d, points: Sequence[Sequence[Fraction]]) -> MetricViolation | None:
    """First metric-axiom violation of d over the point set, or None.

    d is a distance circuit or callable, evaluated once per ordered pair of
    points, or the matrix of those values already evaluated (row i, column
    j holds d(points[i], points[j])).  The matrix is scanned in the order of
    ``_first_failure``; the violation names the points themselves.
    """
    pts = [as_point(p) for p in points]
    if isinstance(d, Circuit) or callable(d):
        raw = _as_distance(d)
        d = [[raw(x, y) for y in pts] for x in pts]
    failure = _first_failure(d, pts)
    if failure is None:
        return None
    axiom, idx, lhs, rhs = failure
    return MetricViolation(axiom, tuple(pts[i] for i in idx), lhs, rhs)


@dataclass(frozen=True)
class LipschitzViolation:
    pair: PointPair
    lhs: Fraction  # |g(x) - g(y)|_1
    rhs: Fraction  # lam * |x - y|_1


def lipschitz_violated(g, lam: Fraction, x: Point, y: Point) -> tuple[bool, Fraction, Fraction]:
    """(|g(x)-g(y)|_1 > lam*|x-y|_1, lhs, rhs), decided exactly.

    g may be tuple-valued (a map) or scalar-valued (a potential), on points
    or on point columns.
    """
    gx, gy = g(x), g(y)
    if not isinstance(gx, tuple):
        gx, gy = (gx,), (gy,)
    lhs = l1(gx, gy)
    rhs = lam * l1(x, y)
    return lhs > rhs, lhs, rhs


def contraction_violated(f, dist, c: Fraction, x: Point, y: Point) -> tuple[bool, Fraction, Fraction]:
    """(dist(f(x), f(y)) > c * dist(x, y), lhs, rhs), decided exactly."""
    lhs = dist(f(x), f(y))
    rhs = c * dist(x, y)
    return lhs > rhs, lhs, rhs


def find_lipschitz_violation(
    g, lam: Fraction, pairs: Sequence[PointPair]
) -> LipschitzViolation | None:
    """First pair violating lambda-Lipschitz continuity of g in the l1 norm."""
    lam = Fraction(lam)
    fn = circuit_fn(g) if isinstance(g, Circuit) else g
    for pair in pairs:
        violated, lhs, rhs = lipschitz_violated(fn, lam, pair.x, pair.y)
        if violated:
            return LipschitzViolation(pair, lhs, rhs)
    return None


@dataclass(frozen=True)
class ContractionViolation:
    pair: PointPair
    lhs: Fraction  # d(f(x), f(y))
    rhs: Fraction  # c * d(x, y)


def find_contraction_violation(
    f, d, c: Fraction, pairs: Sequence[PointPair]
) -> ContractionViolation | None:
    """First pair with d(f(x), f(y)) > c * d(x, y), decided exactly.

    c = 1 is admitted so non-expansion can be refuted (the power-iteration
    counterexample needs it); contraction proper means c < 1.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("contraction constant must lie in (0,1]")
    fn = circuit_fn(f) if isinstance(f, Circuit) else f
    dist = _as_distance(d)
    for pair in pairs:
        violated, lhs, rhs = contraction_violated(fn, dist, c, pair.x, pair.y)
        if violated:
            return ContractionViolation(pair, lhs, rhs)
    return None


def scale_to_integers(mat: Sequence[Sequence[Fraction]]) -> tuple[np.ndarray, int]:
    """(D, L) with D[i, j] = mat[i][j] * L exactly, L the lcm of the denominators.

    Entries are ints or Fractions, in rows of one length.  D has the dtype
    ``int_dtype`` picks for max|D|.
    """
    flat = [x for row in mat for x in row]
    factor = {q: 1 for q in {x.denominator for x in flat}}
    scale = math.lcm(*factor)
    for q in factor:
        factor[q] = scale // q
    ints = [x.numerator * factor[x.denominator] for x in flat]
    dtype = int_dtype(max(map(abs, ints), default=0))
    return np.array(ints, dtype=dtype).reshape(len(mat), len(mat[0]) if mat else 0), scale


def int_dtype(bound: int):
    """int64 if the sum of two entries of magnitude <= bound fits, else object (Python ints)."""
    return np.int64 if 2 * bound < 1 << 63 else object


def scaled_to_fractions(d: np.ndarray, scale: int) -> list[list[Fraction]]:
    """The Fraction matrix d / scale, the inverse of ``scale_to_integers``."""
    rows = d.tolist()
    value = {v: Fraction(v, scale) for v in {v for row in rows for v in row}}
    return [[value[v] for v in row] for row in rows]


def min_plus_closure(d: np.ndarray) -> np.ndarray:
    """Floyd-Warshall in place on a scaled matrix (or a stack) with entries >= 0; returns d.

    Entries only fall, and each sum adds two of them, so a scaled matrix
    from ``scale_to_integers`` cannot overflow.
    """
    for k in range(d.shape[-1]):
        np.minimum(d, d[..., :, k, None] + d[..., None, k, :], out=d)
    return d


# semimetric_failure's answer per code; the messages name rho, the converse closure's weights
_SEMIMETRIC_FAILURES = (None, "rho must have a zero diagonal", "rho must be symmetric",
                        "rho must be positive off the diagonal")


def _semimetric_codes(d: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Failure codes per row of each square matrix in a stack: diagonal entry, then each column.

    1 is a nonzero diagonal entry, 2 an entry that differs from its mirror,
    3 an entry below zero or a zero between indices that ``distinct`` marks.
    """
    off = np.where(d != np.swapaxes(d, -1, -2), 2, np.where((d < 0) | ((d == 0) & distinct), 3, 0))
    diagonal = np.where(np.diagonal(d, axis1=-2, axis2=-1) != 0, 1, 0)
    return np.concatenate([diagonal[..., None], off], axis=-1)


def semimetric_failure(d: np.ndarray) -> str | None:
    """First way a square matrix of ints or Fractions fails to be a semimetric, or None.

    A semimetric meets every metric axiom but the triangle inequality.  The scan runs
    row by row: the diagonal entry, then each column, symmetry before positivity.
    """
    codes = _semimetric_codes(d, ~np.eye(len(d), dtype=bool)).ravel()
    return _SEMIMETRIC_FAILURES[codes[(codes != 0).argmax()]] if len(codes) else None


def metric_failure_mask(d: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Per matrix of a (T, k, k) stack of scaled matrices, whether ``_first_failure`` fails it.

    ``distinct[t, i, j]`` is ``keys[i] != keys[j]`` for matrix t.  A matrix
    that passes the semimetric codes (which cover nonnegativity, identity
    of indiscernibles and symmetry) meets the triangle inequality iff no
    chain is shorter than the direct entry, i.e. iff its closure is itself;
    only those matrices are closed, so no sum sees a negative entry.
    """
    failed = _semimetric_codes(d, distinct).any(axis=(-2, -1))
    keep = ~failed
    failed[keep] = (min_plus_closure(d[keep]) != d[keep]).any(axis=(-2, -1))  # d[keep] is a copy
    return failed


def ragged_row(dist: Sequence[Sequence[Fraction]]) -> str | None:
    """The first row whose length is not the row count, described, or None."""
    n = len(dist)
    for i in range(n):
        if len(dist[i]) != n:
            return f"row {i} has length {len(dist[i])}, expected {n}"
    return None


def check_metric_matrix(
    dist: Sequence[Sequence[Fraction]], scaled: np.ndarray | None = None
) -> str | None:
    """Exhaustive metric-axiom check for a square distance matrix.

    Returns None on pass or a short description of the first failure, in the
    scan order of ``_first_failure``; used to vet finite-space base metrics
    and synthesized matrices.  Acceptance is decided on the matrix scaled to
    integers, ``scaled`` when the caller holds ``scale_to_integers(dist)[0]``
    already; only a failing matrix runs the scan, in ``_describe_first_failure``.
    """
    bad = ragged_row(dist)
    if bad is not None:
        return bad
    if scaled is None:
        scaled = scale_to_integers(dist)[0]
    if not metric_failure_mask(scaled[None], ~np.eye(len(dist), dtype=bool))[0]:
        return None
    return _describe_first_failure(dist)


def _describe_first_failure(dist: Sequence[Sequence[Fraction]]) -> str | None:
    """``check_metric_matrix``'s answer for a square matrix, from the ``_first_failure`` scan."""
    failure = _first_failure(dist, range(len(dist)))
    if failure is None:
        return None
    axiom, idx, lhs, rhs = failure
    i, j = idx[0], idx[-1]
    if axiom == AXIOM_NONNEG:
        return f"NONNEG: d({i},{j}) = {lhs} < 0"
    if axiom == AXIOM_IDENTITY:
        if len(idx) == 1:
            return f"IDENTITY: d({i},{i}) = {lhs} != 0"
        return f"IDENTITY: d({i},{j}) = 0 for distinct indices"
    if axiom == AXIOM_SYMMETRY:
        return f"SYMMETRY: d({i},{j}) != d({j},{i})"
    i, j, k = idx
    return f"TRIANGLE: d({i},{j}) = {lhs} > d({i},{k}) + d({k},{j}) = {rhs}"
