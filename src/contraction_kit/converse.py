"""Synthesis of a contraction metric on a finite space with a convergent self-map.

Given a finite metric space, a self-map whose every orbit reaches a unique
fixed point, a constant c in (0,1), and eps > 0, build the witnessing metric
d_c in three steps: the orbit sup-metric d_M (makes f non-expanding), the
level-weighted rho_c = c^kappa * d_M (makes f c-contracting but may break the
triangle inequality), and the geodesic closure of rho_c (restores it).  Every
theoretical property becomes an exhaustive, exact check recorded in a
certificate; a certificate failure is an implementation-bug detector and
raises.

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
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .circuit import content_lines, format_fraction, parse_fraction
from .metrics import (
    _describe_first_failure,
    check_metric_matrix,
    int_dtype,
    min_plus_closure,
    ragged_row,
    scale_to_integers,
    scaled_to_fractions,
    semimetric_failure,
)

Matrix = list[list[Fraction]]
Scaled = tuple[np.ndarray, int]  # (D, s): the matrix D / s, as ``scale_to_integers`` gives it


class SelfMapError(ValueError):
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

    def __post_init__(self) -> None:
        for name in ("labels", "map"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("coords", "base_distance"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        n = len(self.labels)
        if not (len(self.coords) == len(self.map) == len(self.base_distance) == n):
            raise SelfMapError("inconsistent field lengths")
        # the ragged-row check runs before the one conversion to integers
        bad = ragged_row(self.base_distance)
        if bad is None:
            bad = check_metric_matrix(self.base_distance, self.scaled_distance[0])
        if bad is not None:
            raise SelfMapError(f"base distance is not a metric: {bad}")
        if any(not 0 <= i < n for i in self.map):
            raise SelfMapError("map image out of range")
        if not 0 <= self.fixed_point < n:
            raise SelfMapError(f"fixed point index {self.fixed_point} out of range")
        if self.map[self.fixed_point] != self.fixed_point:
            raise SelfMapError("declared fixed point is not fixed")
        for i in range(n):
            if i != self.fixed_point and self.map[i] == i:
                raise SelfMapError(f"second fixed point at index {i}")
        for i in range(n):
            x = i
            for _ in range(n):
                if x == self.fixed_point:
                    break
                x = self.map[x]
            if x != self.fixed_point:
                raise SelfMapError(f"orbit of index {i} does not reach the fixed point")

    @property
    def size(self) -> int:
        return len(self.labels)

    def orbit(self, i: int) -> list[int]:
        """Indices i, f(i), ..., ending at the fixed point."""
        out = [i]
        while out[-1] != self.fixed_point:
            out.append(self.map[out[-1]])
        return out

    def d(self, i: int, j: int) -> Fraction:
        return self.base_distance[i][j]

    @cached_property
    def scaled_distance(self) -> Scaled:
        """The base metric scaled to integers, converted once per self-map."""
        return scale_to_integers(self.base_distance)

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
    n = int(header[1])
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
    fmap = [int(t) for t in map_line[len("map:"):].split()]
    fixed_line = lines[n + 2]
    if not fixed_line.startswith("fixed:"):
        raise SelfMapError("expected 'fixed:' line")
    fixed = int(fixed_line[len("fixed:"):].strip())
    if lines[n + 3] != "distances:":
        raise SelfMapError("expected 'distances:' line")
    dist = [[Fraction(0)] * n for _ in range(n)]
    rows = lines[n + 4 :]
    if len(rows) != n - 1:
        raise SelfMapError(f"expected {n - 1} distance rows, got {len(rows)}")
    for i, row in enumerate(rows, start=1):
        vals = [parse_fraction(t) for t in row.split()]
        if len(vals) != i:
            raise SelfMapError(f"distance row {i} must have {i} entries")
        for j, v in enumerate(vals):
            dist[i][j] = v
            dist[j][i] = v
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
    base, scale = m.scaled_distance
    near = base <= math.floor(eps * scale)  # d <= eps, on the integer scale
    best: list[int] = [fp]
    for r in sorted(set(base[fp].tolist())):
        ball = np.flatnonzero(base[fp] <= r)
        if near[np.ix_(ball, ball)].all():
            best = ball.tolist()
        else:
            break
    u_set = set(best)

    def image(s: set[int]) -> set[int]:
        return {m.map[x] for x in s}

    k = 1
    img = image(u_set)
    while not img <= u_set:
        img = image(img)
        k += 1
    # an orbit shorter than k ends at x*, which U holds
    w = [x for x in range(m.size) if u_set.issuperset(m.orbit(x)[:k])]
    w_set = set(w)
    if fp not in w_set or not image(w_set) <= w_set or not near[np.ix_(w, w)].all():
        return [fp]  # cannot happen on valid instances; singleton always qualifies
    return sorted(w)


def compute_orbit_metric(m: FiniteSelfMap) -> Scaled:
    """d_M(x,y) = max over t >= 0 of d(f^[t](x), f^[t](y)), on the base metric's scale.

    Runs on the base metric scaled to integers.  ``at`` holds f^[t] of every
    point; f fixes x* and every orbit reaches it, so t stops once all have.
    """
    base, scale = m.scaled_distance
    fmap = np.array(m.map)
    at = np.arange(m.size)
    d_m = base.copy()
    while (at != m.fixed_point).any():
        at = fmap[at]
        np.maximum(d_m, base[np.ix_(at, at)], out=d_m)
    return d_m, scale


def compute_levels(m: FiniteSelfMap, w: Sequence[int]) -> tuple[list[float], list[list[int]]]:
    """Level n(x) of each point and the nested image sets K_t of W.

    n(x*) is +inf; for x in K_0 \\ {x*} it is the deepest K_t containing x;
    for x outside K_0 it is minus the number of steps to enter K_0.
    """
    fp = m.fixed_point
    k_sets: list[set[int]] = [set(w)]
    while k_sets[-1] != {fp}:
        k_sets.append({m.map[x] for x in k_sets[-1]})
    levels: list[float] = [0.0] * m.size
    for x in range(m.size):
        if x == fp:
            levels[x] = math.inf
        elif x in k_sets[0]:
            levels[x] = max(t for t, ks in enumerate(k_sets) if x in ks)
        else:
            levels[x] = -next(t for t, y in enumerate(m.orbit(x)) if y in k_sets[0])
    return levels, [sorted(ks) for ks in k_sets]


def compute_rho(d_m: Scaled, levels: Sequence[float], c: Fraction) -> Scaled:
    """rho_c(x,y) = c^min(n(x), n(y)) * d_M(x,y); contraction holds, triangle may not.

    With c = p/q and the finite levels in [lo, hi], lo <= 0 <= hi, c^kappa is the
    integer p^(kappa-lo) * q^(hi-kappa) over p^(-lo) * q^hi, which joins d_M's scale.
    x*'s +inf level counts as hi: the min pairs it with a finite level, or d_M is 0.
    """
    d, scale = d_m
    p, q = Fraction(c).as_integer_ratio()
    finite = [int(v) for v in levels if not math.isinf(v)]
    lo, hi = min([0, *finite]), max([0, *finite])
    weights = [p ** (k - lo) * q ** (hi - k) for k in range(lo, hi + 1)]
    dtype = int_dtype(max(weights) * max(1, int(abs(d).max(initial=0))))
    kappa = np.array([hi if math.isinf(v) else int(v) for v in levels]) - lo
    rho = d.astype(dtype) * np.array(weights, dtype=dtype)[np.minimum.outer(kappa, kappa)]
    return rho, scale * p ** -lo * q ** hi


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
    ``_geodesic_closure_reference``.
    """
    d, scale = rho
    if (bad := semimetric_failure(d)) is not None:
        raise ValueError(bad)
    return min_plus_closure(d.copy()), scale


def _geodesic_closure_reference(rho: Matrix) -> Matrix:
    """The Fraction triple loop that ``geodesic_closure`` must equal (tests only)."""
    if (bad := semimetric_failure(np.array(rho, dtype=object))) is not None:
        raise ValueError(bad)
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
    d_m: Matrix
    levels: list[float]
    k_sets: list[list[int]]
    rho: Matrix
    d_c: Matrix
    certificate: list[CertificateEntry]

    @property
    def certified(self) -> bool:
        return all(e.ok for e in self.certificate)

    def report_text(self) -> str:
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
        for name, mat in (("d_M", self.d_m), ("rho_c", self.rho), ("d_c", self.d_c)):
            lines.append(f"matrix {name}:")
            for row in mat:
                lines.append("  " + " ".join(format_fraction(v) for v in row))
        lines.append("certificate:")
        for entry in self.certificate:
            status = "PASS" if entry.ok else "FAIL"
            detail = f" {entry.detail}" if entry.detail else ""
            lines.append(f"  [{status}] {entry.name}{detail}")
        return "\n".join(lines) + "\n"


def _certify(m: FiniteSelfMap, c: Fraction, eps: Fraction, w, d_m: Scaled, d_c: Scaled):
    """Exhaustive synthesis certificate; every entry must pass on valid inputs.

    d, d_M and d_c are decided on one integer scale s, the lcm of their
    scales, reached by integer multiplies; c = p/q and eps = a/b enter by
    cross-multiplication.  A failing entry names its first failing pair in
    row-major order, with the Fraction values.
    """
    n, fp, f = m.size, m.fixed_point, np.array(m.map)
    scaled = (m.scaled_distance, d_m, d_c)
    s = math.lcm(*(scale for _, scale in scaled))
    p, q = c.numerator, c.denominator
    a, b = eps.numerator, eps.denominator
    # each product below is at most max(q, b) * max|entry| or 2 * a * s
    top = max(max(1, int(abs(x).max())) * (s // scale) for x, scale in scaled)
    dtype = int_dtype(max(max(q, b) * top, a * s))
    D, DM, DC = (x.astype(dtype) * (s // scale) for x, scale in scaled)
    small = b * DC <= a * s  # d_c <= eps
    far = b * D > 2 * a * s  # d > 2 eps
    outside = np.ones(n, dtype=bool)
    outside[w] = False
    d_to_k0 = DM[:, w].min(axis=1)
    # for a semimetric, which the closure demands, the closure is d_c itself
    # iff the triangle inequality holds, i.e. iff d_c is a metric
    closed = np.array_equal(geodesic_closure(d_c)[0], d_c[0])

    def at(x, i, j):  # an entry of D, DM or DC as a Fraction, to word a failure
        return Fraction(int(x[i, j]), s)

    def first(mask, detail):
        hits = np.argwhere(mask)
        return detail(*map(int, hits[0])) if len(hits) else None

    failures = [
        ("d_M dominates d", first(
            D > DM, lambda i, j: f"d({i},{j})={m.d(i, j)} > d_M={at(DM, i, j)}")),
        ("f non-expanding under d_M", first(
            DM[np.ix_(f, f)] > DM, lambda i, j: f"pair ({i},{j})")),
        ("d_c metric axioms",
         None if closed else _describe_first_failure(scaled_to_fractions(*d_c))),
        ("c-contraction of d_c", first(
            q * DC[np.ix_(f, f)] > p * DC,
            lambda i, j: f"pair ({i},{j}): {at(DC, f[i], f[j])} > c*{at(DC, i, j)}")),
        ("small d_c implies base proximity", first(
            small & far & far[fp][:, None] & far[fp][None, :], lambda i, j: f"pair ({i},{j})")),
        # fixed-point form of the proximity transfer; this converts a d_c bound
        # at x* into a base-metric bound, which the global iteration budget needs
        ("small d_c at the fixed point implies base proximity", first(
            small[:, fp] & far[:, fp],
            lambda i: f"point {i}: d_c={at(DC, i, fp)} <= eps but d={m.d(i, fp)} > 2*eps")),
        ("lower bound d_c >= min(d_M, d_M(., K0)) outside K0", first(
            outside[:, None] & outside[None, :] & ~np.eye(n, dtype=bool)
            & (DC < np.minimum(DM, d_to_k0[:, None])),
            lambda i, j: f"pair ({i},{j})")),
        ("geodesic closure idempotent",
         None if closed else "closure(closure(rho)) != closure(rho)"),
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
    levels, k_sets = compute_levels(m, w)
    rho = compute_rho(d_m, levels, c)
    d_c = geodesic_closure(rho)
    certificate = _certify(m, c, eps, w, d_m, d_c)
    for entry in certificate:
        if not entry.ok:
            raise CertificateError(f"{entry.name}: {entry.detail}")
    d_m, rho, d_c = (scaled_to_fractions(*x) for x in (d_m, rho, d_c))
    return SynthesizedMetric(m, c, eps, w, d_m, levels, k_sets, rho, d_c, certificate)
