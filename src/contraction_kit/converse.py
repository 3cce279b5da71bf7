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
from fractions import Fraction
from typing import Sequence

from .circuit import content_lines, format_fraction, parse_fraction
from .metrics import check_metric_matrix

Matrix = list[list[Fraction]]


class SelfMapError(ValueError):
    """Invalid finite self-map instance."""


class CertificateError(AssertionError):
    """A synthesized-metric certificate check failed (should be impossible)."""


@dataclass
class FiniteSelfMap:
    labels: list[str]
    coords: list[tuple[Fraction, ...]]
    base_distance: Matrix
    map: list[int]
    fixed_point: int

    def __post_init__(self) -> None:
        n = len(self.labels)
        if not (len(self.coords) == len(self.map) == len(self.base_distance) == n):
            raise SelfMapError("inconsistent field lengths")
        bad = check_metric_matrix(self.base_distance)
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
    radii = sorted({m.d(fp, i) for i in range(m.size)})
    best: list[int] = [fp]
    for r in radii:
        ball = [i for i in range(m.size) if m.d(fp, i) <= r]
        if all(m.d(a, b) <= eps for a in ball for b in ball):
            best = ball
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
    w = []
    for x in range(m.size):
        y = x
        ok = True
        for _ in range(k):
            if y not in u_set:
                ok = False
                break
            y = m.map[y]
        if ok:
            w.append(x)
    w_set = set(w)
    if fp not in w_set or not image(w_set) <= w_set or any(
        m.d(a, b) > eps for a in w for b in w
    ):
        return [fp]  # cannot happen on valid instances; singleton always qualifies
    return sorted(w)


def compute_orbit_metric(m: FiniteSelfMap) -> Matrix:
    """d_M(x,y) = max over t >= 0 of d(f^[t](x), f^[t](y))."""
    n = m.size
    orbits = [m.orbit(i) for i in range(n)]
    d_m: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            oi, oj = orbits[i], orbits[j]
            steps = max(len(oi), len(oj))
            val = Fraction(0)
            for t in range(steps):
                a = oi[t] if t < len(oi) else m.fixed_point
                b = oj[t] if t < len(oj) else m.fixed_point
                dv = m.d(a, b)
                if dv > val:
                    val = dv
            d_m[i][j] = d_m[j][i] = val
    return d_m


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
            y, steps = x, 0
            while y not in k_sets[0]:
                y = m.map[y]
                steps += 1
            levels[x] = -steps
    return levels, [sorted(ks) for ks in k_sets]


def compute_rho(d_m: Matrix, levels: Sequence[float], c: Fraction) -> Matrix:
    """rho_c(x,y) = c^min(n(x), n(y)) * d_M(x,y); contraction holds, triangle may not."""
    c = Fraction(c)
    n = len(d_m)
    rho: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if d_m[i][j] == 0:
                continue
            kappa = min(levels[i], levels[j])
            # the +inf sentinel never reaches here: it pairs only with finite
            # levels through the min unless both points are the fixed point,
            # and that pair has d_M = 0
            rho[i][j] = rho[j][i] = c ** int(kappa) * d_m[i][j]
    return rho


def geodesic_closure(rho: Matrix) -> Matrix:
    """All-pairs shortest chain lengths over rho; enforces the triangle inequality."""
    n = len(rho)
    for i in range(n):
        if rho[i][i] != 0:
            raise ValueError("rho must have a zero diagonal")
        for j in range(n):
            if rho[i][j] != rho[j][i]:
                raise ValueError("rho must be symmetric")
            if i != j and rho[i][j] <= 0:
                raise ValueError("rho must be positive off the diagonal")
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


def _certify(m: FiniteSelfMap, c: Fraction, eps: Fraction, w, d_m, levels, rho, d_c):
    """Exhaustive synthesis certificate; every entry must pass on valid inputs."""
    n = m.size
    fp = m.fixed_point
    entries: list[CertificateEntry] = []

    def check(name: str, failures: list[str]):
        entries.append(CertificateEntry(name, not failures, failures[0] if failures else ""))

    fails = [
        f"d({i},{j})={m.d(i, j)} > d_M={d_m[i][j]}"
        for i in range(n)
        for j in range(n)
        if m.d(i, j) > d_m[i][j]
    ]
    check("d_M dominates d", fails)

    fails = [
        f"pair ({i},{j})"
        for i in range(n)
        for j in range(n)
        if d_m[m.map[i]][m.map[j]] > d_m[i][j]
    ]
    check("f non-expanding under d_M", fails)

    bad = check_metric_matrix(d_c)
    check("d_c metric axioms", [bad] if bad else [])

    fails = [
        f"pair ({i},{j}): {d_c[m.map[i]][m.map[j]]} > c*{d_c[i][j]}"
        for i in range(n)
        for j in range(n)
        if d_c[m.map[i]][m.map[j]] > c * d_c[i][j]
    ]
    check("c-contraction of d_c", fails)

    fails = []
    for i in range(n):
        for j in range(n):
            if d_c[i][j] <= eps:
                if min(m.d(fp, i), m.d(fp, j), m.d(i, j)) > 2 * eps:
                    fails.append(f"pair ({i},{j})")
    check("small d_c implies base proximity", fails)

    # fixed-point form of the proximity transfer; this converts a d_c bound
    # at x* into a base-metric bound, which the global iteration budget needs
    fails = [
        f"point {i}: d_c={d_c[i][fp]} <= eps but d={m.d(i, fp)} > 2*eps"
        for i in range(n)
        if d_c[i][fp] <= eps and m.d(i, fp) > 2 * eps
    ]
    check("small d_c at the fixed point implies base proximity", fails)

    k0 = set(w)
    outside = [i for i in range(n) if i not in k0]
    fails = []
    for i in outside:
        d_to_k0 = min(d_m[i][x] for x in k0)
        for j in outside:
            if i != j and d_c[i][j] < min(d_m[i][j], d_to_k0):
                fails.append(f"pair ({i},{j})")
    check("lower bound d_c >= min(d_M, d_M(., K0)) outside K0", fails)

    again = geodesic_closure(d_c)
    fails = ["closure(closure(rho)) != closure(rho)"] if again != d_c else []
    check("geodesic closure idempotent", fails)

    return entries


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
    certificate = _certify(m, c, eps, w, d_m, levels, rho, d_c)
    result = SynthesizedMetric(m, c, eps, w, d_m, levels, k_sets, rho, d_c, certificate)
    for entry in certificate:
        if not entry.ok:
            raise CertificateError(f"{entry.name}: {entry.detail}")
    return result
