"""Exact deciders for metric axioms, Lipschitz continuity, and contraction.

All checks are over caller-supplied finite point sets and decide strict
inequalities exactly on rationals; no epsilon slack is ever added.
``check_metric_axioms`` names the first failed axiom with its witnessing
points and both sides; ``lipschitz_violated`` and ``contraction_violated``
decide a pair of points, or of point columns, and return both sides: the
grid solver's clauses pass them ``gridsearch.CHUNK`` = 64-row columns.  The
matrix checks decide acceptance on the integer-scaled matrix, a stack at a
time: ``semimetric_mask`` decides every axiom before the triangle inequality
and ``triangle_mask`` the triangle inequality itself, and only a failing
matrix runs the ``_first_failure`` scan, which words the failure.
``check_metric_matrix`` decides a distance matrix, wording a failure by indices;
``converse`` decides d_c and words every failure of its matrices through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .circuit import Circuit, Scaled
from .library import Point, as_point, l1

AXIOM_NONNEG = "NONNEG"
AXIOM_IDENTITY = "IDENTITY"
AXIOM_SYMMETRY = "SYMMETRY"
AXIOM_TRIANGLE = "TRIANGLE"

@dataclass(frozen=True)
class MetricViolation:
    """A failed metric axiom with the witnessing points and both sides."""

    axiom: str
    witnesses: tuple[Point, ...]
    lhs: Fraction
    rhs: Fraction


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
    if callable(d):
        if isinstance(d, Circuit) and (d.input_arity != 6 or d.output_arity != 1):
            raise ValueError("distance circuit must map 6 inputs to 1 output")
        d = [[d(x, y) for y in pts] for x in pts]
    failure = _first_failure(d, pts)
    if failure is None:
        return None
    axiom, idx, lhs, rhs = failure
    return MetricViolation(axiom, tuple(pts[i] for i in idx), lhs, rhs)


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


TRIANGLE_BLOCK = 1 << 15  # most sums triangle_mask holds at once, unless one row k gives more


def min_plus_closure(d: np.ndarray) -> np.ndarray:
    """Floyd-Warshall in place on a scaled matrix (or a stack) with entries >= 0; returns d.

    Entries only fall, and each sum adds two of them, so the numerators of
    a ``Scaled.of`` matrix cannot overflow.
    """
    for k in range(d.shape[-1]):
        np.minimum(d, d[..., :, k, None] + d[..., None, k, :], out=d)
    return d


def semimetric_mask(d: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Per scaled integer matrix of a stack, or for one, whether an axiom before TRIANGLE fails.

    That is a nonzero diagonal entry, an entry unequal to its mirror, or an
    entry below 1 where ``distinct`` marks the pair and below 0 elsewhere:
    exactly the matrices on which ``_first_failure`` finds a failure other
    than TRIANGLE, when ``distinct[..., i, j]`` is ``keys[i] != keys[j]``.
    """
    # comparing with the bools reads them as 1 and 0
    bad = (d != np.swapaxes(d, -1, -2)) | (d < distinct)
    return bad.any(axis=(-2, -1)) | np.diagonal(d, axis1=-2, axis2=-1).any(axis=-1)


def triangle_mask(d: np.ndarray) -> np.ndarray:
    """Per symmetric scaled matrix of a stack, or for one, whether every d[i,j] <= d[i,k] + d[k,j].

    By symmetry d[i,k] + d[k,j] is d[k,i] + d[k,j], two entries of row k, so
    the shortest one-stop path is a minimum over the leading axis: one
    min-plus product, summed ``TRIANGLE_BLOCK`` entries at a time over blocks
    of matrices and of k.  Each sum adds two entries, for which ``int_dtype``
    leaves room on int64, and Python ints never wrap, so the answer is exact.
    A 0 x 0 or 1 x 1 matrix has no triangle and passes.
    """
    n = d.shape[-1]
    if n < 2:
        return np.ones(d.shape[:-2], dtype=bool)[()]
    stack = d.reshape(-1, n, n)
    k_step = min(n, max(1, TRIANGLE_BLOCK // (n * n)))
    t_step = max(1, TRIANGLE_BLOCK // (k_step * n * n))
    ok = np.empty(len(stack), dtype=bool)
    for t in range(0, len(stack), t_step):
        block = stack[t:t + t_step]
        low = None
        for k in range(0, n, k_step):
            rows = block[:, k:k + k_step]
            via = (rows[..., :, None] + rows[..., None, :]).min(axis=1)
            low = via if low is None else np.minimum(low, via, out=low)
        ok[t:t + t_step] = (block <= low).all(axis=(-2, -1))
    return ok.reshape(d.shape[:-2])[()]


def metric_failure_mask(d: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Per matrix of a (T, k, k) stack of scaled matrices, whether ``_first_failure`` fails it.

    ``distinct[t, i, j]`` is ``keys[i] != keys[j]`` for matrix t.  A matrix
    that passes ``semimetric_mask`` is symmetric, with a zero diagonal and no
    negative entry, so ``triangle_mask`` decides the triangle inequality on
    it: the triples with a repeated index, which ``_first_failure`` skips,
    hold on every such matrix.  On a matrix that fails ``semimetric_mask``,
    ``triangle_mask``'s answer does not change the result.
    """
    return semimetric_mask(d, distinct) | ~triangle_mask(d)


def ragged_row(dist: Sequence[Sequence[Fraction]]) -> str | None:
    """The first row whose length is not the row count, described, or None."""
    n = len(dist)
    for i in range(n):
        if len(dist[i]) != n:
            return f"row {i} has length {len(dist[i])}, expected {n}"
    return None


def check_metric_matrix(d: Scaled) -> str | None:
    """The first metric-axiom failure of a square scaled matrix, described by its indices, or None.

    Acceptance is decided on the scaled integers by ``metric_failure_mask``.
    Only a failing matrix is read back as Fractions, and its first failure in
    the scan order of ``_first_failure`` is worded by ``_describe_first_failure``.
    """
    n = len(d.num)  # Scaled.of reads an empty matrix as an empty column
    if not metric_failure_mask(d.num.reshape(1, n, n), ~np.eye(n, dtype=bool))[0]:
        return None
    return _describe_first_failure(d.fractions())


def _describe_first_failure(dist: Sequence[Sequence[Fraction]]) -> str:
    """``check_metric_matrix``'s answer for a square matrix that fails, from the ``_first_failure`` scan."""
    axiom, idx, lhs, rhs = _first_failure(dist, range(len(dist)))
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
