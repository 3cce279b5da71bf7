"""Power iteration, the eigen-metric it contracts under, and its certificates.

The metric d(x,y) = || x/<x,v1> - y/<y,v1> ||_2 contracts at rate
max_{i>=2} |lambda_i| / lambda1 under the normalized power step for symmetric
matrices whose principal eigenvalue dominates every other in absolute value
(symmetry makes left and right eigenvectors coincide and gives
||A z||_2 <= max_{i>=2} |lambda_i| ||z||_2 on the complement of v1).
Main arithmetic is float64; certificates can be replayed through a 128-bit
mpmath oracle.

The fast paths give the float bits of their references.  A Jacobi rotation
turns rows p and q 2-wide and the columns of the working matrix stacked on the
eigenvectors in one dense product, because a product narrowed to two columns
rounds differently from the dense one at some dimensions
(`_jacobi_eigensolve_reference` keeps three dense products per rotation).  The
rate certificate runs chunks of pairs through stacked `np.matmul`, which makes
the same ddot and gemv calls per row as `eigen_metric` and `power_step`.

Matrix file format: a dimension line, then one row of decimal reals per line.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from mpmath import mp, mpf, sqrt as mp_sqrt

from .circuit import content_lines

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


class SpectralError(ValueError):
    """Matrix or vector fails a module precondition."""


def _check_matrix(a: np.ndarray) -> None:
    """The matrix must be square, of dimension 2..MAX_DIMENSION, and symmetric."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectralError("matrix must be square")
    n = a.shape[0]
    if n < 2:
        raise SpectralError(f"dimension {n} is below 2: the eigen-metric needs a second eigenvalue")
    if n > MAX_DIMENSION:
        raise SpectralError(f"dimension {n} exceeds {MAX_DIMENSION}")
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


def _jacobi_angle(work: np.ndarray, p: int, q: int) -> tuple[float, float] | None:
    """(cos, sin) of the rotation that zeroes work[p, q]; None when it is already small."""
    n = work.shape[1]
    apq = work[p, q]
    if abs(apq) < JACOBI_TARGET / max(1, n * n):
        return None
    tau = (work[q, q] - work[p, p]) / (2.0 * apq)
    if abs(tau) < _TAU_SQUARE_MAX:
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    else:  # the limit of the form above, where tau * tau would overflow
        t = 1.0 / (2.0 * tau)
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c


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


def jacobi_eigensolve(a: Sequence[Sequence[float]]) -> SpectralSystem:
    """Cyclic Jacobi sweeps until the off-diagonal Frobenius mass is < 1e-14.

    Gives the float bits of `_jacobi_eigensolve_reference` without building a
    rotation matrix per step.  Rows p and q of the working matrix turn in one
    2x2 @ 2xn product.  The columns turn in one dense product of the working
    matrix stacked on the eigenvectors, by an identity whose four entries are
    set for the step: a product narrowed to columns p and q rounds
    differently from the dense one at some dimensions (17, 20, 33, ...).
    """
    a0 = np.asarray(a, dtype=float)
    _check_matrix(a0)
    n = a0.shape[0]
    stack = np.concatenate([a0, np.eye(n)])  # working matrix over eigenvector columns
    spare = np.empty_like(stack)
    rot = np.eye(n)
    turn = np.empty((2, 2))
    rows_pq = np.empty((2, n))
    for _ in range(100):
        if _off_diagonal_mass(stack[:n]) < JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                angle = _jacobi_angle(stack, p, q)  # reads the top n rows only
                if angle is None:
                    continue
                c, s = angle
                turn[0, 0] = turn[1, 1] = c
                turn[0, 1] = -s
                turn[1, 0] = s
                view = stack[p:q + 1:q - p]
                np.matmul(turn, view, out=rows_pq)
                view[...] = rows_pq
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                np.matmul(stack, rot, out=spare)
                rot[p, p] = rot[q, q] = 1.0
                rot[p, q] = rot[q, p] = 0.0
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
    for _ in range(100):
        if _off_diagonal_mass(work) < JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                angle = _jacobi_angle(work, p, q)
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


@dataclass
class EigenMetricValue:
    """d(x,y) with the v1-normalized points and their difference kept for audit."""

    value: float
    normalized_x: np.ndarray
    normalized_y: np.ndarray
    residual: np.ndarray

    def orthogonality_defect(self, sys: SpectralSystem) -> float:
        return abs(float(self.residual @ sys.v1))


def eigen_metric(sys: SpectralSystem, x: Sequence[float], y: Sequence[float]) -> EigenMetricValue:
    """d(x,y) = || x/<x,v1> - y/<y,v1> ||_2; undefined near <.,v1> = 0."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    ox = float(xv @ sys.v1)
    oy = float(yv @ sys.v1)
    if abs(ox) < OVERLAP_MIN or abs(oy) < OVERLAP_MIN:
        raise SpectralError("metric undefined: vector nearly perpendicular to v1")
    nx = xv / ox
    ny = yv / oy
    residual = nx - ny
    return EigenMetricValue(float(np.linalg.norm(residual)), nx, ny, residual)


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
    rate_bound: float
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
    which draws one vector at a time.
    """
    if count < 0:
        raise SpectralError(f"pair count must be nonnegative, got {count}")
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
        if np.any(np.abs(row_dots(u, sys.v1)) < OVERLAP_MIN):
            raise SpectralError("perpendicular to v1")
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
        (eigen_metric(sys, x, y).value,
         eigen_metric(sys, power_step(sys, x), power_step(sys, y)).value)
        for x, y in pairs
    ]


def _rate_certificate(sys: SpectralSystem, values: list[tuple[float, float]]) -> RateCertificate:
    cert = RateCertificate(rate_bound=sys.rate)
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


def replay_pair_mp(
    sys: SpectralSystem, x: Sequence[float], y: Sequence[float]
) -> tuple[float, float]:
    """(d(x,y), d(f(x),f(y))) recomputed from the same floats at REPLAY_PRECISION bits."""
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
        return float(np.linalg.norm(v, ord=(np.inf if p == math.inf else p)))

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
    grid = []
    for k in range(101):
        t = k / 100.0
        v = np.array([t, 1.0 - t])
        n = np.linalg.norm(v)
        if n == 0.0:
            continue
        v = v / n
        if abs(v[0]) >= OVERLAP_MIN:
            grid.append(v)
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            x, y = grid[i], grid[j]
            before = norm_p(x - y)
            if before == 0.0:
                continue
            after = norm_p(step(x) - step(y))
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
    d0 = eigen_metric(sys, x, sys.v1).value
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
        distances.append(eigen_metric(sys, x, sys.v1).value)
    final_l2 = float(np.linalg.norm(x - sys.v1))
    return IterationBoundReport(predicted, distances, distances[-1], final_l2, float(eps))


def parse_matrix(text: str) -> np.ndarray:
    lines = content_lines(text)
    if not lines:
        raise SpectralError("empty matrix file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise SpectralError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        row = [float(tok) for tok in ln.split()]
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
