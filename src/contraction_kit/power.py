"""Power iteration, the eigen-metric it contracts under, and its certificates.

The metric d(x,y) = || x/<x,v1> - y/<y,v1> ||_2 contracts at rate
max_{i>=2} |lambda_i| / lambda1 under the normalized power step for symmetric
matrices whose principal eigenvalue dominates every other in absolute value
(symmetry makes left and right eigenvectors coincide and gives
||A z||_2 <= max_{i>=2} |lambda_i| ||z||_2 on the complement of v1).
Main arithmetic is float64; certificates can be replayed through a 128-bit
mpmath oracle.

The fast paths give the float bits of their references.  A Jacobi rotation
takes its angle from three entries and turns rows p and q 2-wide.  Columns
p and q of the working matrix stacked on the eigenvectors turn in one dense
product until that product has taught the process which of two O(n) forms
gives its bits at (n, p, q, column): a product narrowed to two columns
rounds differently from the dense one at some places, and which way is the
BLAS kernel's, not the values'.  From dimension FAST_COLUMNS_MIN up, a
learnt step then turns the two columns in O(n) (`_ColumnTurn`): it copies
them out, turns them in one 2-wide product and writes them back.  Each
column keeps a bitmask, its fill, of the eigenvector rows that may be
nonzero; every other row holds +0.0, which every path turns to +0.0, and a
turn gives both columns the union of their fills.  One count of zeros over
rows p and q and the turned columns then makes further calls only for a
zero the fill does not account for.  Per rotation that is a fixed handful
of NumPy calls on 2n x 2 arrays in place of a (2n) x n x n product;
`_jacobi_eigensolve_reference` keeps three dense products per rotation.
Each product of the solve is `ndarray.dot` with `out`: the BLAS call of
`np.dot` without its `__array_function__` dispatch, which is about a
quarter of what a 2-wide `np.dot` costs.  The rate certificate runs chunks
of pairs through stacked `np.matmul`, which makes the same ddot and gemv
calls per row as `eigen_metric` and `power_step`.

The replay gives the mpf values of `_replay_pair_mp_reference`, which runs
every entry through mpf.  A dot product whose operands are all float64, a
row of A x or <x, v1>, is summed as Python ints over a common exponent: each
product of two doubles is exact at 106 bits, and when the sum of the terms'
absolute values spans at most REPLAY_PRECISION bits above their lowest set
bit, no partial sum of the left-to-right mpf sum rounds, so the exact sum is
its value.  A sum that fails that check, and the O(n) rest on 128-bit
values, run in mpf.

Matrix file format: a dimension line, then one row of decimal reals per line.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from mpmath import mp, mpf, sqrt as mp_sqrt
from mpmath.libmp import from_man_exp

from .circuit import InputError, content_lines, parse_number

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
GAP_MIN = 1e-8
UNIT_TOL = 1e-12
OVERLAP_MIN = 1e-10
RATE_SLACK = 1e-9
JACOBI_TARGET = 1e-14
MAX_DIMENSION = 64
REPLAY_PRECISION = 128
RATE_CHUNK = 64  # pairs per stacked batch in certify_contraction_rate; bounds its memory
MAX_POWER_STEPS = 10_000  # most power steps iteration_bound plans and runs
# largest |tau| whose square stays finite in jacobi_eigensolve
_TAU_SQUARE_MAX = math.sqrt(sys.float_info.max)


class SpectralError(InputError):
    """Matrix or vector fails a module precondition."""


def _check_dimension(n: int) -> None:
    """The dimension must lie in 2..MAX_DIMENSION."""
    if n < 2:
        raise SpectralError(f"dimension {n} is below 2: the eigen-metric needs a second eigenvalue")
    if n > MAX_DIMENSION:
        raise SpectralError(f"dimension {n} exceeds {MAX_DIMENSION}")


def _check_matrix(a: np.ndarray) -> None:
    """The matrix must be square, of dimension 2..MAX_DIMENSION, and symmetric."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectralError("matrix must be square")
    _check_dimension(a.shape[0])
    if not np.allclose(a, a.T, atol=1e-12, rtol=0):
        raise SpectralError("matrix is not symmetric")


@dataclass
class SpectralSystem:
    """Symmetric matrix with validated, descending eigenpairs (v_i as rows)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        _check_matrix(a)
        n = a.shape[0]
        if lam.shape != (n,) or vec.shape != (n, n):
            raise SpectralError("inconsistent shapes")
        if np.any(np.diff(lam) > 0):
            raise SpectralError("eigenvalues must be sorted descending")
        # descending order puts max_{i>=2} |lambda_i| at lambda2 or -lambda_n
        gap = lam[0] - max(lam[1], -lam[-1])
        if gap < GAP_MIN:
            raise SpectralError(
                f"dominance gap too small: lambda1 - max |lambda_i|, i >= 2, is {gap:.3e}"
            )
        gram = vec @ vec.T
        if np.max(np.abs(gram - np.eye(n))) > ORTHO_TOL:
            raise SpectralError("eigenvectors are not orthonormal")
        for i in range(n):
            res = np.linalg.norm(a @ vec[i] - lam[i] * vec[i])
            if res > RESIDUAL_TOL:
                raise SpectralError(f"eigenpair {i} residual {res:.3e} exceeds {RESIDUAL_TOL}")
        self.matrix, self.eigenvalues, self.eigenvectors = a, lam, vec

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def v1(self) -> np.ndarray:
        return self.eigenvectors[0]

    @property
    def rate(self) -> float:
        """Contraction constant max_{i>=2} |lambda_i| / lambda1 of the eigen-metric."""
        lam = self.eigenvalues
        return max(lam[1], -lam[-1]) / lam[0]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _jacobi_angle(work: np.ndarray, p: int, q: int, skip: float) -> tuple[float, float] | None:
    """(cos, sin) of the rotation that zeroes work[p, q]; None when |work[p, q]| < skip.

    The entries are read as Python floats: IEEE double arithmetic gives the
    bits of `np.float64` scalar arithmetic at a fraction of its cost.
    """
    apq = work.item(p, q)
    if abs(apq) < skip:
        return None
    tau = (work.item(q, q) - work.item(p, p)) / (2.0 * apq)
    if abs(tau) < _TAU_SQUARE_MAX:
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    else:  # the limit of the form above, where tau * tau would overflow
        t = 1.0 / (2.0 * tau)
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c


def _jacobi_skip(n: int) -> float:
    """The |a_pq| below which a rotation is skipped: the target spread over n^2 entries."""
    return JACOBI_TARGET / (n * n)


def _off_diagonal_mass(work: np.ndarray) -> float:
    # Frobenius mass of the off-diagonal part, taken entrywise: the
    # total-minus-diagonal form cancels catastrophically near convergence
    return float(np.linalg.norm(work - np.diag(np.diag(work))))


def _eigensystem(a0: np.ndarray, work: np.ndarray, vecs: np.ndarray) -> SpectralSystem:
    lam = np.diag(work).copy()
    order = np.argsort(-lam)
    lam = lam[order]
    rows = np.array([_fix_sign(vecs[:, i]) for i in order])
    return SpectralSystem(a0, lam, rows)


class _ColumnTurn:
    """Buffers for turning columns p and q of the stack in O(n), and the forms that do it.

    The dense product's turned column equals, on every row, one of two forms
    of the two old columns x (column p) and y (column q) and the step
    w = [[c, s], [-s, c]]: PRODUCT, the 2-wide BLAS product `[x y] @ w`, or
    SUM, the two products rounded on their own and then added.  Which one is
    a property of the BLAS kernel at (n, p, q, column), not of the values,
    except for the sign of a zero left by a product that underflows to zero:
    the zero terms of the dense product decide that sign.  The learning and
    the O(n) turn both leave a step that may hold such a zero to the dense
    product.
    """

    PRODUCT, SUM = 1, 2

    def __init__(self, n: int, forms: np.ndarray, fill: list[int] | None = None):
        self.forms = forms  # forms[p, q] for column p, forms[q, p] for column q; 0 = unlearnt
        # fill[j]: bit i set where eigenvector row i of column j may be nonzero; every
        # other row of the column holds +0.0.  Without a solve behind it every row may be.
        self.fill = [(1 << n) - 1] * n if fill is None else fill
        self.w = np.empty((2, 2))
        self.flat_w = _flat(self.w)
        self.pair = np.empty((2 * n, 2))  # x and y
        # rows p and q of the stack, which the solve turns into `rows`, then the turned
        # columns: one count covers both.  Ones until then, so they count as nonzero.
        self.counted = np.ones(6 * n)
        self.rows = self.counted[:2 * n].reshape(2, n)
        self.turned = self.counted[2 * n:].reshape(2 * n, 2)
        self.magnitudes = np.empty((2 * n, 2))
        self.below = np.empty((2 * n, 2), dtype=bool)
        # laid out so that each ufunc runs along 2n entries
        self.products = np.empty((2, 2, 2 * n))  # products[j, k] = w[k, j] * (x, y)[k]
        self.summed = np.empty((2, 2 * n))  # SUM of column j in row j
        self.dense = np.empty((2, 2 * n))  # the dense product's columns p and q

    def _load(self, stack: np.ndarray, p: int, q: int, c: float, s: float) -> None:
        self.pair[...] = stack[:, p:q + 1:q - p]
        w = self.flat_w
        w[0] = w[3] = c
        w[1] = s
        w[2] = -s

    def _sums(self) -> None:
        np.multiply(self.w.T[:, :, None], self.pair.T, out=self.products)
        np.add(self.products[:, 0], self.products[:, 1], out=self.summed)

    def _zeros_decided(self, s: float) -> bool:
        """Whether every zero the loaded step can turn out is +0.0 under the dense product too.

        A zero where x and y are both +0.0, or where two products cancel
        exactly, is +0.0 whatever zero terms the dense product adds.  Only a
        product that underflows to zero leaves the sign to those terms, and
        none does when |s * e| >= 2^-968 for every nonzero loaded entry e
        (and c >= |s|): each product is then a multiple of 2^-1074.  So the
        step is decided exactly when every loaded entry e whose float product
        |s| * |e| is below 2^-968 is a zero, the test `_annihilated_decided`
        makes on four entries.  A step with s = 0.0 (or non-finite) is refused.
        """
        scale = abs(s)
        if not 0.0 < scale < math.inf:
            return False
        pair, magnitudes = self.pair, self.magnitudes
        np.multiply(np.abs(pair, out=magnitudes), scale, out=magnitudes)
        small = np.count_nonzero(np.less(magnitudes, _UNDERFLOW_FREE, out=self.below))
        return small == pair.size - np.count_nonzero(pair)

    def _annihilated_decided(self, p: int, q: int, s: float) -> bool:
        """`_zeros_decided` on the four loaded entries of rows p and q alone.

        A turned entry takes its sign from the loaded entries of its own row,
        so a zero in row p or q is decided when each of those four entries is
        a zero or has |s * e| >= 2^-968.
        """
        if not 0.0 < abs(s) < math.inf:
            return False
        pair = self.pair
        for e in (pair.item(p, 0), pair.item(p, 1), pair.item(q, 0), pair.item(q, 1)):
            if e and abs(s * e) < _UNDERFLOW_FREE:
                return False
        return True

    def _short_count_decided(self, p: int, q: int, s: float, missing: int) -> bool:
        """Whether a turn whose count came `missing` nonzeros short of the fill's may be stored.

        It may not when rows p and q hold a -0.0: the solve then hands the
        step to the dense product.  A zero of rows p and q is the row turn's,
        the same on every path.  When the turned columns' other zeros are the
        annihilated entries (p, q) and (q, p), rows p and q decide them
        (`_annihilated_decided`); any other zero takes the whole-pair scan.
        """
        rows = self.rows
        in_rows = rows.size - np.count_nonzero(rows)
        if in_rows and _has_negative_zero(rows):
            return False
        turned = self.turned
        annihilated = (turned.item(p, 1) == 0.0) + (turned.item(q, 0) == 0.0)
        if missing - in_rows == annihilated:
            return not annihilated or self._annihilated_decided(p, q, s)
        return self._zeros_decided(s)

    def turn(self, stack: np.ndarray, p: int, q: int, c: float, s: float) -> bool:
        """Turn columns p and q of `stack` in place; False, touching nothing, when the
        forms are unlearnt, `rows` holds a -0.0, or a turned entry is a zero whose sign
        they do not decide.

        One count over `counted` finds every zero of rows p and q and of the
        turned columns.  The 2 (n - popcount) turned entries outside the
        columns' joint fill are +0.0 on every path (x = y = +0.0 and c > 0),
        so only a count short of the rest reaches `_short_count_decided`.
        """
        fp, fq = self.forms.item(p, q), self.forms.item(q, p)
        if not (fp and fq):
            return False
        # `_load`, written out: this runs once a rotation, where a call costs a few percent
        columns = stack[:, p:q + 1:q - p]
        pair, turned, w = self.pair, self.turned, self.flat_w
        pair[...] = columns
        w[0] = w[3] = c
        w[1] = s
        w[2] = -s
        if fp == self.PRODUCT or fq == self.PRODUCT:
            pair.dot(self.w, out=turned)
        if fp == self.SUM or fq == self.SUM:
            self._sums()
            if fp == self.SUM:
                turned[:, 0] = self.summed[0]
            if fq == self.SUM:
                turned[:, 1] = self.summed[1]
        fill = self.fill
        union = fill[p] | fill[q]
        missing = 4 * len(fill) + 2 * union.bit_count() - np.count_nonzero(self.counted)
        if missing and not self._short_count_decided(p, q, s, missing):
            return False
        columns[...] = turned
        fill[p] = fill[q] = union
        return True

    def learn(self, stack: np.ndarray, dense: np.ndarray, p: int, q: int, c: float, s: float) -> bool:
        """Record the form of each column that `dense`, the dense product of `stack`, took.

        A form is recorded only when it alone matches every row byte for
        byte, on a step with no zero that the forms leave undecided.  Returns
        False when a turned column holds a -0.0: the O(n) turn leaves a -0.0
        in place where the dense product would make it +0.0, so it no longer
        gives the dense bits on this stack.  Columns p and q get the union of
        their fills, as on the O(n) path.
        """
        fill = self.fill
        union = fill[p] = fill[q] = fill[p] | fill[q]
        got = self.dense
        got[...] = dense[:, p:q + 1:q - p].T
        if _has_negative_zero(got):
            return False
        self._load(stack, p, q, c, s)
        filled = 2 * (len(fill) + union.bit_count())  # the count with no zero past the fill's
        if np.count_nonzero(got) < filled and not self._zeros_decided(s):
            return True
        self.pair.dot(self.w, out=self.turned)
        self._sums()
        for j, entry in ((0, (p, q)), (1, (q, p))):
            want = got[j].tobytes()
            by_product = self.turned[:, j].tobytes() == want
            by_sum = self.summed[j].tobytes() == want
            if by_product != by_sum:
                self.forms[entry] = self.PRODUCT if by_product else self.SUM
        return True


# learnt column forms, one int8 table per dimension, taught only by the dense product
_COLUMN_FORMS: dict[int, np.ndarray] = {}
# the least dimension whose columns turn in O(n) once learnt.  It was set at the
# crossover of a solve that still has to learn its forms, which cheaper pivots
# have since moved down: with one OpenBLAS thread on a Xeon core, the median
# cold solve cost 1.03x a dense one at n = 44, 0.87x at 46, 0.91x at 48, 0.85x
# at 50, 0.83x at 51 and 52, 0.72x at 53 and 0.68x at 56, and a warm one 0.74x,
# 0.59x, 0.62x, 0.58x, 0.56x, 0.58x, 0.48x and 0.45x (33 gapped matrices
# each); cold solves break even near n = 44.  No benchmark workload runs a
# dimension from 33 to 63, so the gate stays here.
FAST_COLUMNS_MIN = 53
_FAST_NORM_MAX = 2.0 ** 1000  # a bound on the Frobenius norm that keeps every product finite
_UNDERFLOW_FREE = 2.0 ** -968  # no product of doubles this large rounds to zero


def _column_turn(a0: np.ndarray) -> _ColumnTurn | None:
    """The O(n) column turn for a solve of `a0`, or None when every rotation must run dense.

    The dense product leaves the other columns as they are only when the
    stack is finite and holds no -0.0: it turns inf into NaN (inf * 0) and
    -0.0 into +0.0 (-0.0 + 0.0).  Rotations keep the Frobenius norm, which
    n * max|a_ij| bounds.  A turn can make a -0.0 where a product underflows;
    `jacobi_eigensolve` checks every step for one.
    """
    n = a0.shape[0]
    if n < FAST_COLUMNS_MIN or not float(np.max(np.abs(a0))) * n < _FAST_NORM_MAX or _has_negative_zero(a0):
        return None
    forms = _COLUMN_FORMS.setdefault(n, np.zeros((n, n), dtype=np.int8))
    return _ColumnTurn(n, forms, [1 << j for j in range(n)])  # the identity's fill


def _has_negative_zero(a: np.ndarray) -> bool:
    return np.count_nonzero(a) < a.size and bool(np.signbit(a[a == 0]).any())


def _flat(a: np.ndarray) -> memoryview:
    """The C-contiguous float64 `a` as a flat memoryview: a scalar write through it
    costs about half a 2-D index assignment."""
    return memoryview(a).cast("B").cast("d")


def jacobi_eigensolve(a: Sequence[Sequence[float]]) -> SpectralSystem:
    """Cyclic Jacobi sweeps until the off-diagonal Frobenius mass is < 1e-14.

    Gives the float bits of `_jacobi_eigensolve_reference` without building a
    rotation matrix per step.  Every rotation calls `_jacobi_angle` once,
    writes the four entries of its 2x2 through a flat view, and turns rows p
    and q of the working matrix in one 2x2 @ 2xn product that it stores back.
    The columns then turn on one of two paths:

    - Dense, below FAST_COLUMNS_MIN, for an input `_column_turn` refuses, and
      on a step whose forms are not learnt yet: four entries of an identity
      are set for the step through a flat view, one product turns the whole
      working matrix stacked on the eigenvectors, and the four entries are
      reset.  From FAST_COLUMNS_MIN up, that product also teaches this
      process the O(n) form of each column it turned (`_ColumnTurn.learn`).
    - O(n), on a step whose forms are learnt: `_ColumnTurn.turn` turns
      columns p and q with the same bits (one load, one 2-wide product, one
      count of zeros, one store).  The row product writes rows p and q into
      the buffer that holds the turned columns, so one count covers both.
      It falls short of the buffer's size by the 2 (n - popcount)
      eigenvector entries outside the columns' joint fill, which are +0.0
      on every path, and by any other zero.  Only such a zero costs more
      calls: an annihilated (p, q) or (q, p) entry is decided from the four
      loaded entries of rows p and q, any other by the whole-pair scan.

    Every product is `ndarray.dot` with `out`, the same BLAS call as
    `np.dot` without its dispatch.  The O(n) path holds only while the stack
    has no -0.0, so the first step that leaves one in rows p and q or in
    columns p and q hands the rest of the solve to the dense product; rows p
    and q are searched for one only when the count is short or the turn is
    refused.
    """
    a0 = np.asarray(a, dtype=float)
    _check_matrix(a0)
    n = a0.shape[0]
    stack = np.concatenate([a0, np.eye(n)])  # working matrix over eigenvector columns
    spare = np.empty_like(stack)
    rot = np.eye(n)
    turn = np.empty((2, 2))
    flat_rot, flat_turn = _flat(rot), _flat(turn)
    skip = _jacobi_skip(n)
    columns = _column_turn(a0)
    rows_pq = np.empty((2, n)) if columns is None else columns.rows
    for _ in range(100):
        if _off_diagonal_mass(stack[:n]) < JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                angle = _jacobi_angle(stack, p, q, skip)  # reads the top n rows only
                if angle is None:
                    continue
                c, s = angle
                flat_turn[0] = flat_turn[3] = c
                flat_turn[1] = -s
                flat_turn[2] = s
                view = stack[p:q + 1:q - p]
                turn.dot(view, out=rows_pq)
                view[...] = rows_pq
                if columns is not None:
                    if columns.turn(stack, p, q, c, s):
                        continue
                    if _has_negative_zero(rows_pq):
                        columns = None
                pp, qq, pq, qp = p * (n + 1), q * (n + 1), p * n + q, q * n + p
                flat_rot[pp] = flat_rot[qq] = c
                flat_rot[pq] = s
                flat_rot[qp] = -s
                stack.dot(rot, out=spare)
                flat_rot[pp] = flat_rot[qq] = 1.0
                flat_rot[pq] = flat_rot[qp] = 0.0
                if columns is not None and not columns.learn(stack, spare, p, q, c, s):
                    columns = None
                stack, spare = spare, stack
    else:
        raise SpectralError("Jacobi sweeps did not reach the off-diagonal target")
    return _eigensystem(a0, stack[:n], stack[n:])


def _jacobi_eigensolve_reference(a: Sequence[Sequence[float]]) -> SpectralSystem:
    """Dense form of `jacobi_eigensolve`: three n x n products per rotation."""
    a0 = np.asarray(a, dtype=float)
    _check_matrix(a0)
    n = a0.shape[0]
    work = a0.copy()
    vecs = np.eye(n)
    skip = _jacobi_skip(n)
    for _ in range(100):
        if _off_diagonal_mass(work) < JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                angle = _jacobi_angle(work, p, q, skip)
                if angle is None:
                    continue
                c, s = angle
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                work = rot.T @ work @ rot
                vecs = vecs @ rot
    else:
        raise SpectralError("Jacobi sweeps did not reach the off-diagonal target")
    return _eigensystem(a0, work, vecs)


def power_step(sys: SpectralSystem, x: Sequence[float]) -> np.ndarray:
    """One normalized iteration A x / ||A x||_2, sign-aligned to <., v1> > 0."""
    xv = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(xv) - 1.0) > UNIT_TOL:
        raise SpectralError("power_step expects a unit vector")
    if abs(float(xv @ sys.v1)) < OVERLAP_MIN:
        raise SpectralError("starting vector is perpendicular to the principal eigenvector")
    ax = sys.matrix @ xv
    norm = np.linalg.norm(ax)
    if norm == 0.0:
        raise SpectralError("A x vanished; x lies in the kernel")
    out = ax / norm
    if float(out @ sys.v1) < 0:
        out = -out
    return out


def eigen_metric(sys: SpectralSystem, x: Sequence[float], y: Sequence[float]) -> float:
    """d(x,y) = || x/<x,v1> - y/<y,v1> ||_2; undefined near <.,v1> = 0."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    ox = float(xv @ sys.v1)
    oy = float(yv @ sys.v1)
    if abs(ox) < OVERLAP_MIN or abs(oy) < OVERLAP_MIN:
        raise SpectralError("metric undefined: vector nearly perpendicular to v1")
    return float(np.linalg.norm(xv / ox - yv / oy))


@dataclass
class RatePair:
    index: int
    d_before: float
    d_after: float

    @property
    def ratio(self) -> float | None:
        if self.d_before == 0.0:
            return None  # vacuous: both points normalize onto v1
        return self.d_after / self.d_before


@dataclass
class RateCertificate:
    pairs: list[RatePair] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        ratios = [p.ratio for p in self.pairs if p.ratio is not None]
        return max(ratios) if ratios else 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self) -> str:
        lines = ["pair,d_before,d_after,ratio"]
        for p in self.pairs:
            ratio = "" if p.ratio is None else repr(p.ratio)
            lines.append(f"{p.index},{p.d_before!r},{p.d_after!r},{ratio}")
        return "\n".join(lines) + "\n"


def row_dots(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u_i, w_i> for each row i (w may be one vector): one BLAS ddot per row, as `u_i @ w_i`."""
    return (u[:, None, :] @ w[..., None])[:, 0, 0]


def sample_pairs(sys: SpectralSystem, count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """`count` pairs of unit vectors drawn from `default_rng(seed)`.

    A pair is skipped when either draw is zero or nearly perpendicular to
    v1.  Each round draws every pair still missing in one `rng.normal` call:
    the same stream, and the same float bits, as `_sample_pairs_reference`,
    which draws one vector at a time.  A count below 0, or one whose first
    draw is past numpy's array size, is a SpectralError.
    """
    if count < 0:
        raise SpectralError(f"pair count must be nonnegative, got {count}")
    if 2 * count * sys.dimension * 8 > np.iinfo(np.intp).max:  # float64 bytes of the first draw
        raise SpectralError(f"pair count {count} is too large: its draws exceed numpy's array size")
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        draws = rng.normal(size=(2 * (count - len(pairs)), sys.dimension))
        norms = np.sqrt(row_dots(draws, draws))
        units = draws / np.where(norms == 0, 1.0, norms)[:, None]
        usable = (norms != 0) & (np.abs(row_dots(units, sys.v1)) >= OVERLAP_MIN)
        keep = usable[0::2] & usable[1::2]
        pairs.extend(zip(units[0::2][keep], units[1::2][keep]))
    return pairs


def _sample_pairs_reference(sys: SpectralSystem, count: int, seed: int):
    """`sample_pairs` one vector at a time."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        x, y = rng.normal(size=sys.dimension), rng.normal(size=sys.dimension)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0 or ny == 0:
            continue
        x, y = x / nx, y / ny
        if abs(x @ sys.v1) >= OVERLAP_MIN and abs(y @ sys.v1) >= OVERLAP_MIN:
            pairs.append((x, y))
    return pairs


def _rate_chunk(sys: SpectralSystem, chunk) -> list[tuple[float, float]]:
    """(d(x,y), d(f(x),f(y))) of each pair, with the float bits of the scalar path.

    Every inner product is one ddot and every A x one gemv, as in
    `eigen_metric` and `power_step`; it raises wherever one of those would.
    """
    xs = np.asarray([x for x, _ in chunk], dtype=float)
    ys = np.asarray([y for _, y in chunk], dtype=float)
    if xs.shape != (len(chunk), sys.dimension) or ys.shape != xs.shape:
        raise SpectralError("pairs must be vectors of the matrix dimension")

    def metric(u, w):
        ou, ow = row_dots(u, sys.v1), row_dots(w, sys.v1)
        if np.any(np.abs(ou) < OVERLAP_MIN) or np.any(np.abs(ow) < OVERLAP_MIN):
            raise SpectralError("metric undefined")
        residual = u / ou[:, None] - w / ow[:, None]
        return np.sqrt(row_dots(residual, residual))

    def step(u):
        if np.any(np.abs(np.sqrt(row_dots(u, u)) - 1.0) > UNIT_TOL):
            raise SpectralError("not a unit vector")
        au = (sys.matrix @ u[:, :, None])[:, :, 0]
        norm = np.sqrt(row_dots(au, au))
        if np.any(norm == 0.0):
            raise SpectralError("A x vanished")
        out = au / norm[:, None]
        return np.where(row_dots(out, sys.v1)[:, None] < 0, -out, out)

    before = metric(xs, ys)
    after = metric(step(xs), step(ys))
    return list(zip(before.tolist(), after.tolist()))


def _rate_pairs_scalar(sys: SpectralSystem, pairs) -> list[tuple[float, float]]:
    return [
        (eigen_metric(sys, x, y), eigen_metric(sys, power_step(sys, x), power_step(sys, y)))
        for x, y in pairs
    ]


def _rate_certificate(sys: SpectralSystem, values: list[tuple[float, float]]) -> RateCertificate:
    cert = RateCertificate()
    for idx, (before, after) in enumerate(values):
        cert.pairs.append(RatePair(idx, before, after))
        if after > sys.rate * before + RATE_SLACK:
            cert.violations.append(idx)
    return cert


def certify_contraction_rate(
    sys: SpectralSystem, pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> RateCertificate:
    """Check d(f(x), f(y)) <= rate * d(x,y) + 1e-9 for every pair.

    Pairs go through `_rate_chunk` RATE_CHUNK at a time.  A chunk that fails
    there in any way, a float exception included, runs again pair by pair
    through `eigen_metric` and `power_step`, so the first bad pair raises its
    own error under the caller's error state.
    """
    values: list[tuple[float, float]] = []
    for start in range(0, len(pairs), RATE_CHUNK):
        chunk = pairs[start:start + RATE_CHUNK]
        try:
            with np.errstate(all="raise"):
                values.extend(_rate_chunk(sys, chunk))
        except (ValueError, FloatingPointError):
            values.extend(_rate_pairs_scalar(sys, chunk))
    return _rate_certificate(sys, values)


def _certify_contraction_rate_reference(
    sys: SpectralSystem, pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> RateCertificate:
    """`certify_contraction_rate` one pair at a time."""
    return _rate_certificate(sys, _rate_pairs_scalar(sys, pairs))


def _float_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, e) with v = m * 2**e exactly for finite v: m odd in int64, or 0 with e = _NO_TERM."""
    frac, exp = np.frexp(v)
    m = (frac * 2.0 ** 53).astype(np.int64)  # exact: |frac| lies in [1/2, 1)
    zero = m == 0
    shift = np.where(zero, 0, np.frexp(m & -m)[1] - 1)  # trailing zero bits of m
    return m >> shift, np.where(zero, _NO_TERM, exp.astype(np.int64) - 53 + shift)


_NO_TERM = 1 << 40  # the exponent of a zero entry: above any float's, so no minimum picks it


def _exact_dots(rows: np.ndarray, vecs: np.ndarray) -> list[list]:
    """out[i][j] = `_mp_dot` of the mpf forms of rows[i] and vecs[j], or None where that may round.

    Each product of two doubles is exact at 106 bits.  The terms are summed
    as Python ints over a common exponent.  Let T be the bit length of the
    sum of their absolute values and L the lowest set bit among them.  If
    T - L <= mp.prec, every partial sum of the left-to-right mpf sum fits in
    mp.prec bits, so none rounds and the exact sum is its value.  Otherwise,
    and for a row or vector with a non-finite entry, the entry is None.
    """
    finite_r, finite_v = np.isfinite(rows).all(axis=1), np.isfinite(vecs).all(axis=1)
    mr, er = _float_parts(np.where(finite_r[:, None], rows, 0.0))
    mv, ev = _float_parts(np.where(finite_v[:, None], vecs, 0.0))
    low = (er[:, None, :] + ev[None, :, :]).min(axis=2)  # of the nonzero terms
    frame_r, frame_v = er.min(axis=1), ev.min(axis=1)

    def scaled(m, e, frame):  # Python ints m * 2**(e - frame), each row on its own frame
        shift = np.where(m == 0, 0, e - frame[:, None])
        return np.left_shift(m.astype(object), shift.astype(object))

    ri, vi = scaled(mr, er, frame_r), scaled(mv, ev, frame_v)
    sums, spans = (ri @ vi.T).tolist(), (abs(ri) @ abs(vi.T)).tolist()
    out = []
    low = low.tolist()
    for i, fr in enumerate(frame_r.tolist()):
        row = []
        for j, fv in enumerate(frame_v.tolist()):
            frame = fr + fv
            exact = finite_r[i] and finite_v[j] and (
                spans[i][j].bit_length() - (low[i][j] - frame) <= mp.prec)
            row.append(mp.make_mpf(from_man_exp(sums[i][j], frame)) if exact else None)
        out.append(row)
    return out


def _mp_dot(u, w):
    """sum(u_i * w_i) in mpf, left to right from mpf(0)."""
    return sum(map(operator.mul, u, w), mpf(0))


def _mp_dots(rows: np.ndarray, vecs: np.ndarray) -> list[list]:
    """`_mp_dot` of the mpf forms of rows[i] and vecs[j], exact where `_exact_dots` allows."""
    out = _exact_dots(rows, vecs)
    for i, row in enumerate(out):
        for j, value in enumerate(row):
            if value is None:
                row[j] = _mp_dot(map(mpf, rows[i].tolist()), map(mpf, vecs[j].tolist()))
    return out


def _mp_norm(u):
    return mp_sqrt(_mp_dot(u, u))


def replay_pair_mp(
    sys: SpectralSystem, x: Sequence[float], y: Sequence[float]
) -> tuple[float, float]:
    """(d(x,y), d(f(x),f(y))) recomputed from the same floats at REPLAY_PRECISION bits.

    Gives the mpf values of `_replay_pair_mp_reference`.  The dot products of
    float operands, the rows of A x and A y and <x, v1> and <y, v1>, come from
    `_mp_dots`; the O(n) rest, on 128-bit values, runs in mpf.
    """
    pair = np.array([x, y], dtype=float)
    with mp.workprec(REPLAY_PRECISION):
        v1 = [mpf(v) for v in sys.v1.tolist()]

        def metric(u, w, nu, nw):
            return _mp_norm([ui / nu - wi / nw for ui, wi in zip(u, w)])

        (ox,), (oy,) = _mp_dots(pair, sys.v1[None])
        xs, ys = ([mpf(v) for v in row] for row in pair.tolist())
        before = metric(xs, ys, ox, oy)
        ax, ay = zip(*_mp_dots(sys.matrix, pair))
        nx, ny = _mp_norm(ax), _mp_norm(ay)
        fx = [v / nx for v in ax]
        fy = [v / ny for v in ay]
        after = metric(fx, fy, _mp_dot(fx, v1), _mp_dot(fy, v1))
        return float(before), float(after)


def _replay_pair_mp_reference(
    sys: SpectralSystem, x: Sequence[float], y: Sequence[float]
) -> tuple[float, float]:
    """`replay_pair_mp` with every entry and every dot product in mpf."""
    with mp.workprec(REPLAY_PRECISION):
        a = [[mpf(v) for v in row] for row in sys.matrix.tolist()]
        v1 = [mpf(v) for v in sys.v1.tolist()]
        n = len(v1)

        def dot(u, w):
            return sum((u[i] * w[i] for i in range(n)), mpf(0))

        def matvec(u):
            return [dot(row, u) for row in a]

        def norm(u):
            return mp_sqrt(dot(u, u))

        def metric(u, w):
            nu = dot(u, v1)
            nw = dot(w, v1)
            return norm([u[i] / nu - w[i] / nw for i in range(n)])

        xs = [mpf(v) for v in x]
        ys = [mpf(v) for v in y]
        before = metric(xs, ys)
        ax, ay = matvec(xs), matvec(ys)
        nx, ny = norm(ax), norm(ay)
        fx = [v / nx for v in ax]
        fy = [v / ny for v in ay]
        after = metric(fx, fy)
        return float(before), float(after)


PAPER_PAIR_X = (1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0))
PAPER_PAIR_Y = (1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0))


def paper_counterexample_system() -> SpectralSystem:
    return SpectralSystem(
        np.diag([2.0, 1.0]), np.array([2.0, 1.0]), np.eye(2)
    )


@dataclass
class LpCounterexample:
    p: float
    x: tuple[float, ...]
    y: tuple[float, ...]
    d_before: float
    d_after: float

    @property
    def expanding(self) -> bool:
        return self.d_after > self.d_before

    @property
    def ratio(self) -> float:
        return self.d_after / self.d_before


def lp_counterexample(p: float) -> LpCounterexample:
    """Expansion witness for the normalized power step of diag(2,1) in l_p.

    p = 2 reproduces the documented pair; p in {1, inf} scans a 1e-2 grid on
    the simplex of 2-vectors (l2-normalized) and returns the first expanding
    pair found.
    """
    sys = paper_counterexample_system()

    def norm_p(v: np.ndarray) -> float:
        return float(np.linalg.norm(v, ord=p))

    def step(v: np.ndarray) -> np.ndarray:
        return power_step(sys, v)

    if p == 2:
        x = np.array(PAPER_PAIR_X)
        y = np.array(PAPER_PAIR_Y)
        return LpCounterexample(
            2, tuple(x), tuple(y), norm_p(x - y), norm_p(step(x) - step(y))
        )
    if p not in (1, math.inf):
        raise SpectralError("supported norms: p in {1, 2, inf}")
    # k = 0 is the direction v2, which the power step cannot take
    ts = (k / 100.0 for k in range(1, 101))
    grid = [v / np.linalg.norm(v) for v in (np.array([t, 1.0 - t]) for t in ts)]
    for x, y in itertools.combinations(grid, 2):
        before, after = norm_p(x - y), norm_p(step(x) - step(y))
        if after > before:
            return LpCounterexample(p, tuple(x), tuple(y), before, after)
    raise SpectralError(f"no expanding pair found on the grid for p={p}")


@dataclass
class IterationBoundReport:
    predicted: int
    distances: list[float]          # d(x_t, v1) for t = 0..predicted
    final_distance: float
    final_l2_error: float
    eps: float

    @property
    def ok(self) -> bool:
        slack = 1e-12  # float-noise allowance at exact-equality boundaries
        return self.final_distance <= self.eps + slack and self.final_l2_error <= self.eps + slack


def iteration_bound(sys: SpectralSystem, x0: Sequence[float], eps: float) -> IterationBoundReport:
    """Predicted step count log(d(x0,v1)/eps)/log(1/rate), then verify.

    Runs the predicted number of steps and confirms both d(x_t, v1) <= eps and
    ||x_t - v1||_2 <= eps (the d-to-l2 conversion).  A zero rate predicts one
    step; a plan above MAX_POWER_STEPS is refused before any step runs.
    """
    if eps <= 0:
        raise SpectralError("eps must be positive")
    x = np.asarray(x0, dtype=float)
    d0 = eigen_metric(sys, x, sys.v1)
    if d0 <= eps:
        predicted = 0
    elif sys.rate == 0:  # every other eigenvalue is 0, so A x lies on the line of v1
        predicted = 1
    else:
        ratio = d0 / eps  # overflows where eps is subnormal
        log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(d0) - math.log(eps)
        per_step = math.log(1.0 / sys.rate)
        if log_ratio > MAX_POWER_STEPS * per_step:  # no division: per_step may round to 0
            raise SpectralError(
                f"--eps {eps!r} needs more than MAX_POWER_STEPS = {MAX_POWER_STEPS} power steps"
            )
        predicted = math.ceil(log_ratio / per_step)
    distances = [d0]
    for _ in range(predicted):
        x = power_step(sys, x)
        distances.append(eigen_metric(sys, x, sys.v1))
    final_l2 = float(np.linalg.norm(x - sys.v1))
    return IterationBoundReport(predicted, distances, distances[-1], final_l2, float(eps))


def parse_matrix(text: str) -> np.ndarray:
    lines = content_lines(text)
    if not lines:
        raise SpectralError("empty matrix file")
    n = parse_number(int, lines[0], SpectralError)
    _check_dimension(n)
    if len(lines) != n + 1:
        raise SpectralError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        row = [parse_number(float, tok, SpectralError) for tok in ln.split()]
        if len(row) != n:
            raise SpectralError(f"row has {len(row)} entries, expected {n}")
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise SpectralError(f"non-finite entry {value!r} at row {i}, column {j}")
        rows.append(row)
    return np.array(rows)


def format_matrix(a: np.ndarray) -> str:
    n = a.shape[0]
    lines = [str(n)]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
