"""Synthesis of a contraction metric on a finite space with a convergent self-map.

Given a finite metric space, a self-map whose every orbit reaches a unique
fixed point, a constant c in (0,1), and eps > 0, build the witnessing metric
d_c in three steps: the orbit sup-metric d_M (makes f non-expanding), the
level-weighted rho_c = c^kappa * d_M (makes f c-contracting but may break the
triangle inequality), and the geodesic closure of rho_c (restores it).  Every
theoretical property becomes an exhaustive, exact check recorded in a
certificate; a certificate failure is an implementation-bug detector and
raises.  The closure runs once, in the construction: the certificate asks
``metrics.check_metric_matrix`` whether d_c is a metric, one min-plus
product, instead of closing d_c again.  That check also words every
metric-axiom failure of the base metric, rho and d_c.

Self-map file format (UTF-8, ``#`` comments):

    points <n>
    <label> <x1> <x2> <x3>      one line per point (coordinates informational)
    map: <i0> <i1> ... (n 0-based image indices)
    fixed: <i>
    distances:
    <d(1,0)>
    <d(2,0)> <d(2,1)>
    ...                          lower-triangular rationals
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .circuit import (
    InputError, Scaled, content_lines, format_fraction, int_dtype, parse_fraction, parse_number
)
from .metrics import (
    AXIOM_TRIANGLE,
    _first_failure,
    check_metric_matrix,
    min_plus_closure,
    ragged_row,
    semimetric_mask,
)

Matrix = list[list[Fraction]]


class SelfMapError(InputError):
    """Invalid finite self-map instance."""


class CertificateError(AssertionError):
    """A synthesized-metric certificate check failed (should be impossible)."""


@dataclass(frozen=True)
class FiniteSelfMap:
    """A finite metric space with a self-map, vetted once and frozen.

    The fields are stored as tuples, so no edit after construction can leave
    ``scaled_distance`` stale or skip the checks.
    """

    labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...]
    base_distance: tuple[tuple[Fraction, ...], ...]
    map: tuple[int, ...]
    fixed_point: int
    # iterates[t] is f^[t] of every point, for t up to the first row that is all x*
    iterates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("labels", "map"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("coords", "base_distance"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        n = len(self.labels)
        if not (len(self.coords) == len(self.map) == len(self.base_distance) == n):
            raise SelfMapError("inconsistent field lengths")
        if len(set(self.labels)) < n:
            label = next(x for i, x in enumerate(self.labels) if x in self.labels[:i])
            raise SelfMapError(f"repeated label {label!r}")
        # the ragged-row check runs before the one conversion to integers
        bad = ragged_row(self.base_distance) or check_metric_matrix(self.scaled_distance)
        if bad is not None:
            raise SelfMapError(f"base distance is not a metric: {bad}")
        if any(not 0 <= i < n for i in self.map):
            raise SelfMapError("map image out of range")
        if not 0 <= self.fixed_point < n:
            raise SelfMapError(f"fixed point index {self.fixed_point} out of range")
        if self.map[self.fixed_point] != self.fixed_point:
            raise SelfMapError("declared fixed point is not fixed")
        fmap, rows = np.array(self.map), [np.arange(n)]
        fixed = np.flatnonzero(fmap == rows[0])
        if len(fixed) > 1:
            raise SelfMapError(f"second fixed point at index {fixed[fixed != self.fixed_point][0]}")
        # an orbit that reaches x* does so within n - 1 steps
        while len(rows) < n and (rows[-1] != self.fixed_point).any():
            rows.append(fmap[rows[-1]])
        stuck = rows[-1] != self.fixed_point
        if stuck.any():
            raise SelfMapError(f"orbit of index {stuck.argmax()} does not reach the fixed point")
        table = np.array(rows)
        table.flags.writeable = False
        object.__setattr__(self, "iterates", table)

    @property
    def size(self) -> int:
        return len(self.labels)

    def orbit(self, i: int) -> list[int]:
        """Indices i, f(i), ..., ending at the fixed point: column i of ``iterates``, cut at x*."""
        column = self.iterates[:, i]
        return column[: (column == self.fixed_point).argmax() + 1].tolist()

    def d(self, i: int, j: int) -> Fraction:
        return self.base_distance[i][j]

    @cached_property
    def scaled_distance(self) -> Scaled:
        """The base metric scaled to integers, converted once per self-map."""
        return Scaled.of(self.base_distance)

    def to_text(self) -> str:
        lines = [f"points {self.size}"]
        for label, coord in zip(self.labels, self.coords):
            lines.append(label + " " + " ".join(format_fraction(c) for c in coord))
        lines.append("map: " + " ".join(str(i) for i in self.map))
        lines.append(f"fixed: {self.fixed_point}")
        lines.append("distances:")
        for i in range(1, self.size):
            lines.append(" ".join(format_fraction(self.base_distance[i][j]) for j in range(i)))
        return "\n".join(lines) + "\n"


def parse_selfmap(text: str) -> FiniteSelfMap:
    lines = content_lines(text)
    if not lines or not lines[0].startswith("points"):
        raise SelfMapError("missing 'points <n>' header")
    header = lines[0].split()
    if len(header) != 2:
        raise SelfMapError(f"expected 'points <n>' header, got {lines[0]!r}")
    n = parse_number(int, header[1], SelfMapError)
    if n < 1:
        raise SelfMapError(f"point count must be a positive integer, got {n}")
    if len(lines) < n + 4:
        raise SelfMapError("truncated self-map file")
    labels, coords = [], []
    for ln in lines[1 : n + 1]:
        parts = ln.split()
        labels.append(parts[0])
        coords.append(tuple(parse_fraction(p) for p in parts[1:]))
    map_line = lines[n + 1]
    if not map_line.startswith("map:"):
        raise SelfMapError("expected 'map:' line")
    fmap = [parse_number(int, t, SelfMapError) for t in map_line[len("map:"):].split()]
    fixed_line = lines[n + 2]
    if not fixed_line.startswith("fixed:"):
        raise SelfMapError("expected 'fixed:' line")
    fixed = parse_number(int, fixed_line[len("fixed:"):].strip(), SelfMapError)
    if lines[n + 3] != "distances:":
        raise SelfMapError("expected 'distances:' line")
    rows = lines[n + 4 :]
    if len(rows) != n - 1:
        raise SelfMapError(f"expected {n - 1} distance rows, got {len(rows)}")
    lower: Matrix = [[]]  # lower[i] holds d(i, j) for j < i
    for i, row in enumerate(rows, start=1):
        lower.append([parse_fraction(t) for t in row.split()])
        if len(lower[i]) != i:
            raise SelfMapError(f"distance row {i} must have {i} entries")
    # built only from checked rows, so a short file cannot make it allocate n x n
    dist = [lower[i] + [Fraction(0)] + [lower[j][i] for j in range(i + 1, n)] for i in range(n)]
    return FiniteSelfMap(labels, coords, dist, fmap, fixed)


def find_invariant_neighborhood(m: FiniteSelfMap, eps: Fraction) -> list[int]:
    """W with x* in W, f(W) subseteq W, and base-metric diameter <= eps.

    U is the largest closed ball around the fixed point whose diameter is
    <= eps (checked exactly), k the first exponent with f^[k](U) subseteq U,
    and W the intersection of the preimages f^[-j](U), j < k.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise SelfMapError("eps must be positive")
    fp = m.fixed_point
    base = m.scaled_distance.num
    near = base <= eps.numerator * m.scaled_distance.den // eps.denominator  # floor(eps * den)
    best: list[int] = [fp]
    for r in sorted(set(base[fp].tolist())):
        ball = np.flatnonzero(base[fp] <= r)
        if near[ball[:, None], ball].all():
            best = ball.tolist()
        else:
            break
    in_u = np.zeros(m.size, dtype=bool)
    in_u[best] = True
    it = m.iterates
    # the first t >= 1 with f^[t](U) inside U; past the table's end every row is x*, in U
    k = next((t for t in range(1, len(it)) if in_u[it[t, in_u]].all()), len(it))
    in_w = in_u[it[:k]].all(axis=0)
    w = np.flatnonzero(in_w)
    if not in_w[fp] or not in_w[np.array(m.map)[w]].all() or not near[w[:, None], w].all():
        raise CertificateError(f"W = {w.tolist()} is not an eps-small f-invariant set around x*")
    return w.tolist()


def compute_orbit_metric(m: FiniteSelfMap) -> Scaled:
    """d_M(x,y) = max over t >= 0 of d(f^[t](x), f^[t](y)), on the base metric's scale.

    A running max over the rows of ``iterates``, on the base metric scaled to
    integers; every row past the table's end is x*, where d is 0.
    """
    base = m.scaled_distance.num
    d_m = base.copy()
    for at in m.iterates[1:]:
        np.maximum(d_m, base[at[:, None], at], out=d_m)
    return Scaled(d_m, m.scaled_distance.den)


def compute_levels(m: FiniteSelfMap, w: Sequence[int]) -> list[float]:
    """Level n(x) of each point, read off the nested image sets K_t of W.

    n(x*) is +inf; for x in K_0 \\ {x*} it is the deepest K_t containing x;
    for x outside K_0 it is minus the number of steps to enter K_0.  K_t is
    f^[t](W), read from the rows of ``iterates`` up to the first that maps W to x*.
    """
    fp, it = m.fixed_point, m.iterates
    images = it[:, w]
    t_end = (images == fp).all(axis=1).argmax() + 1
    in_k = np.zeros((t_end, m.size), dtype=bool)
    in_k[np.arange(t_end)[:, None], images[:t_end]] = True
    # the K_t are nested, since f(W) lies in W, so x lies in K_0 .. K_n(x)
    levels = np.where(in_k[0], in_k.sum(axis=0) - 1, -in_k[0][it].argmax(axis=0)).tolist()
    levels[fp] = math.inf
    return levels


def compute_rho(d_m: Scaled, levels: Sequence[float], c: Fraction) -> Scaled:
    """rho_c(x,y) = c^min(n(x), n(y)) * d_M(x,y); contraction holds, triangle may not.

    With c = p/q and the finite levels in [lo, hi], lo <= 0 <= hi, c^kappa is the
    integer p^(kappa-lo) * q^(hi-kappa) over p^(-lo) * q^hi, which joins d_M's scale.
    x*'s +inf level counts as hi: the min pairs it with a finite level, or d_M is 0.
    """
    d = d_m.num
    p, q = Fraction(c).as_integer_ratio()
    finite = [int(v) for v in levels if not math.isinf(v)]
    lo, hi = min([0, *finite]), max([0, *finite])
    weights = [p ** (k - lo) * q ** (hi - k) for k in range(lo, hi + 1)]
    dtype = int_dtype(max(weights) * max(1, int(abs(d).max(initial=0))))
    kappa = np.array([hi if math.isinf(v) else int(v) for v in levels]) - lo
    rho = d.astype(dtype) * np.array(weights, dtype=dtype)[np.minimum.outer(kappa, kappa)]
    return Scaled(rho, d_m.den * p ** -lo * q ** hi)


def _compute_rho_reference(d_m: Matrix, levels: Sequence[float], c: Fraction) -> Matrix:
    """The Fraction loop that ``compute_rho`` must equal (tests only)."""
    c = Fraction(c)
    n = len(d_m)
    rho: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if d_m[i][j] == 0:
                continue
            # the +inf sentinel never reaches here: it pairs only with finite
            # levels through the min unless both points are the fixed point,
            # and that pair has d_M = 0
            kappa = int(min(levels[i], levels[j]))
            rho[i][j] = rho[j][i] = c ** kappa * d_m[i][j]
    return rho


def geodesic_closure(rho: Scaled) -> Scaled:
    """All-pairs shortest chain lengths over rho; enforces the triangle inequality.

    Floyd-Warshall runs on a copy of rho's scaled integers, whose dtype leaves
    room for every sum, so the result is exact, on rho's scale, and equals
    ``_geodesic_closure_reference``.  A rho that fails an axiom before the
    triangle inequality raises ValueError, worded by ``check_metric_matrix``.
    """
    if semimetric_mask(rho.num, ~np.eye(len(rho.num), dtype=bool)):
        raise ValueError(f"rho is not a semimetric: {check_metric_matrix(rho)}")
    return Scaled(min_plus_closure(rho.num.copy()), rho.den)


def _geodesic_closure_reference(rho: Matrix) -> Matrix:
    """The Fraction triple loop that ``geodesic_closure`` must equal (tests only)."""
    if (failure := _first_failure(rho, range(len(rho)))) and failure[0] != AXIOM_TRIANGLE:
        raise ValueError(f"rho is not a semimetric: {check_metric_matrix(Scaled.of(rho))}")
    n = len(rho)
    dist = [row[:] for row in rho]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            for j in range(n):
                via = dik + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


@dataclass
class CertificateEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SynthesizedMetric:
    selfmap: FiniteSelfMap
    c: Fraction
    eps: Fraction
    w: list[int]
    levels: list[float]
    certificate: list[CertificateEntry]
    # d_M, rho_c and d_c as ``Scaled`` matrices, the one form the stages hand on and
    # report_text renders; d_m, rho and d_c below are Fraction views of them, built on first read
    scaled: tuple[Scaled, Scaled, Scaled] = field(repr=False, compare=False)

    @cached_property
    def d_m(self) -> Matrix:
        return self.scaled[0].fractions()

    @cached_property
    def rho(self) -> Matrix:
        return self.scaled[1].fractions()

    @cached_property
    def d_c(self) -> Matrix:
        return self.scaled[2].fractions()

    @property
    def certified(self) -> bool:
        return all(e.ok for e in self.certificate)

    def report_text(self) -> str:
        """The report; ``Scaled.texts`` writes each distinct entry of a matrix once."""
        m = self.selfmap
        lines = [
            f"synthesized contraction metric: n={m.size} c={format_fraction(self.c)} "
            f"eps={format_fraction(self.eps)}",
            "W: " + " ".join(m.labels[i] for i in self.w),
            "levels: " + " ".join(
                f"{m.labels[i]}={'inf' if math.isinf(lv) else int(lv)}"
                for i, lv in enumerate(self.levels)
            ),
        ]
        for name, matrix in zip(("d_M", "rho_c", "d_c"), self.scaled):
            lines.append(f"matrix {name}:")
            lines.extend("  " + " ".join(row) for row in matrix.texts())
        lines.append("certificate:")
        for entry in self.certificate:
            status = "PASS" if entry.ok else "FAIL"
            detail = f" {entry.detail}" if entry.detail else ""
            lines.append(f"  [{status}] {entry.name}{detail}")
        return "\n".join(lines) + "\n"


def _first_hit(mask: np.ndarray, detail: Callable[..., str]) -> str | None:
    """``detail`` of the row-major first True index of ``mask``, ``np.argwhere(mask)[0]``, or None."""
    if not mask.any():
        return None
    return detail(*(int(i) for i in np.unravel_index(mask.argmax(), mask.shape)))


def _certify(m: FiniteSelfMap, c: Fraction, eps: Fraction, w, d_m: Scaled, d_c: Scaled):
    """Exhaustive synthesis certificate; every entry must pass on valid inputs.

    d, d_M and d_c are decided on one integer scale s, the lcm of their
    scales, reached by integer multiplies; c = p/q enters by cross-multiplying
    and eps as floor(eps * s), as in ``find_invariant_neighborhood``.  A
    failing entry names its first failing pair in row-major order, with the
    Fraction values.  The closure is not run again: d_c is its own closure
    iff it is a metric, so one ``check_metric_matrix`` answer gives both the
    "d_c metric axioms" and the "geodesic closure idempotent" entries.
    """
    n, fp, f = m.size, m.fixed_point, np.array(m.map)
    p, q = c.numerator, c.denominator
    # q * DC is the largest number formed: at most q * top, top the largest lifted |entry|
    (D, DM, DC), s = Scaled.common((m.scaled_distance, d_m, d_c), q)
    small = DC <= eps.numerator * s // eps.denominator  # d_c <= eps
    far = D > 2 * eps.numerator * s // eps.denominator  # d > 2 eps
    outside = np.ones(n, dtype=bool)
    outside[w] = False
    d_to_k0 = DM[:, w].min(axis=1)
    metric_failure = check_metric_matrix(d_c)
    failures = [
        ("d_M dominates d", _first_hit(
            D > DM, lambda i, j: f"d({i},{j})={m.d(i, j)} > d_M={d_m[i, j]}")),
        ("f non-expanding under d_M", _first_hit(
            DM[f[:, None], f] > DM, lambda i, j: f"pair ({i},{j})")),
        ("d_c metric axioms", metric_failure),
        ("c-contraction of d_c", _first_hit(
            q * DC[f[:, None], f] > p * DC,
            lambda i, j: f"pair ({i},{j}): {d_c[f[i], f[j]]} > c*{d_c[i, j]}")),
        ("small d_c implies base proximity", _first_hit(
            small & far & far[fp][:, None] & far[fp][None, :], lambda i, j: f"pair ({i},{j})")),
        # fixed-point form of the proximity transfer; this converts a d_c bound
        # at x* into a base-metric bound, which the global iteration budget needs
        ("small d_c at the fixed point implies base proximity", _first_hit(
            small[:, fp] & far[:, fp],
            lambda i: f"point {i}: d_c={d_c[i, fp]} <= eps but d={m.d(i, fp)} > 2*eps")),
        ("lower bound d_c >= min(d_M, d_M(., K0)) outside K0", _first_hit(
            outside[:, None] & outside[None, :] & ~np.eye(n, dtype=bool)
            & (DC < np.minimum(DM, d_to_k0[:, None])),
            lambda i, j: f"pair ({i},{j})")),
        ("geodesic closure idempotent",
         None if metric_failure is None else "closure(closure(rho)) != closure(rho)"),
    ]
    return [CertificateEntry(name, fail is None, fail or "") for name, fail in failures]


def synthesize(m: FiniteSelfMap, c: Fraction, eps: Fraction) -> SynthesizedMetric:
    """Run the three-step construction and certify it exhaustively.

    Raises CertificateError with the first witnessing failure if any check
    fails; on valid inputs that indicates an implementation bug, not bad data.
    """
    c = Fraction(c)
    eps = Fraction(eps)
    if not 0 < c < 1:
        raise SelfMapError("c must lie in (0,1)")
    w = find_invariant_neighborhood(m, eps)
    d_m = compute_orbit_metric(m)
    levels = compute_levels(m, w)
    rho = compute_rho(d_m, levels, c)
    d_c = geodesic_closure(rho)
    certificate = _certify(m, c, eps, w, d_m, d_c)
    for entry in certificate:
        if not entry.ok:
            raise CertificateError(f"{entry.name}: {entry.detail}")
    return SynthesizedMetric(m, c, eps, w, levels, certificate, (d_m, rho, d_c))
