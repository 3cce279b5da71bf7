"""Inter-reductions between the Banach and CLS-Local search problems.

Membership direction: a banach instance (f, d, eps, lambda, c) becomes the
cls-local instance (f, p(x) = d(x, f(x)), eps' = (1-c)*eps, lambda' = lambda);
solutions map back by a case analysis on the potential.

Hardness direction: a cls-local instance (f, p, eps, lambda) becomes a banach
instance with f' = f and the interpolated metric circuit
d(x,y) = B(kappa(x,y)) * d_S(x,y), where kappa = min(-p(x)/eps, -p(y)/eps),
d_S is the discrete metric, and B linearly mixes the bracketing powers
c^ceil(w) and c^(ceil(w)+1); the new constants are c' = 1 - 0.1*eps,
eps' = 1/c', lambda' = max(lambda, ceil(c'^(-1/eps)*lambda*ln(1/c')/eps)).
The transcendental lambda' bound is certified by interval arithmetic before
the ceiling, so it is exact and reproducible.

The optional half_eps switch runs the hardness construction at eps/2; with it
the back-mapping lands CO1 witnesses that verify at the source eps (without
it they carry the construction's inherent 2*eps slack).

certify_constructed_metric checks the constructed d on sampled triples on one
integer scale: the points are scaled once to a common denominator, d and p
run as batches over integer columns (Circuit.evaluate_columns), and every
clause is decided on the numerators d's values share one denominator over.
The metric axioms go through metrics.metric_failure_mask, and only a flagged
triple reaches the check_metric_axioms scan that names its failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import iv

from .circuit import Circuit, CircuitBuilder, CircuitError, format_fraction
from .cls import (
    CLAUSES,
    BanachInstance,
    CLSLocalInstance,
    Solution,
    evaluators,
    verify_banach,
    verify_cls_local,
)
from .library import as_point, discrete_metric_circuit, l1, on_one_scale
from .metrics import (
    check_metric_axioms,
    metric_failure_mask,
    scale_to_integers,
    scaled_to_fractions,
)

BANACH_TO_CLSLOCAL = "banach->cls-local"
CLSLOCAL_TO_BANACH = "cls-local->banach"


class ReductionBug(AssertionError):
    """A back-mapped solution failed re-verification; carries the replay."""


def ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def smooth_interpolation(w: Fraction, c: Fraction) -> Fraction:
    """B(w) = (1-(ceil(w)-w))*c^ceil(w) + (ceil(w)-w)*c^(ceil(w)+1), w <= 0."""
    w, c = Fraction(w), Fraction(c)
    if w > 0:
        raise ValueError("B is defined for w <= 0")
    cw = ceil_fraction(w)
    t = Fraction(cw) - w
    return (1 - t) * c ** cw + t * c ** (cw + 1)


def build_interpolation_circuit(c: Fraction, max_abs: int) -> Circuit:
    """One-input circuit computing B(w) for w in [-max_abs, 0].

    Inputs are clamped to the supported range.  Peeling v = -w gives
    (1/c)**floor(v) = c**ceil(w) and the remainder v - floor(v) = ceil(w) - w,
    the mixing weight t of B.  O(log max_abs) gates.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise CircuitError("c must lie in (0,1)")
    if max_abs < 1:
        raise CircuitError("max_abs must be at least 1")
    b = CircuitBuilder()
    w = b.input()
    zero = b.const(0)
    one = b.const(1)
    w_cl = b.min(b.max(w, b.const(-max_abs)), zero)
    v = b.sub(zero, w_cl)  # v = -w in [0, max_abs]
    upper, t = b.peel_power(v, 1 / c, max_abs)  # c**ceil(w), ceil(w) - w
    lower = b.mul(upper, b.const(c))  # c**(ceil(w)+1)
    value = b.add(b.mul(b.sub(one, t), upper), b.mul(t, lower))
    return b.build([value])


def build_kappa_circuit(p: Circuit, eps: Fraction) -> Circuit:
    """6-input circuit for kappa(x,y) = min(-p(x)/eps, -p(y)/eps)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise CircuitError("eps must be positive")
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    inv = b.const(1 / eps)
    zero = b.const(0)
    px = b.inline(p, xs)[0]
    py = b.inline(p, ys)[0]
    kx = b.sub(zero, b.mul(px, inv))
    ky = b.sub(zero, b.mul(py, inv))
    return b.build([b.min(kx, ky)])


def build_interpolated_metric_circuit(p: Circuit, eps: Fraction, c: Fraction) -> Circuit:
    """d(x,y) = B(kappa(x,y)) * d_S(x,y) as one 6-input circuit.

    Gate count is 2*|p| + O(log(1/eps)).
    """
    kappa = build_kappa_circuit(p, eps)
    interp = build_interpolation_circuit(c, max(1, ceil_fraction(1 / Fraction(eps))))
    b = CircuitBuilder()
    pair = b.inputs(6)
    interp_val = b.inline(interp, b.inline(kappa, pair))[0]
    d_s = b.inline(discrete_metric_circuit(), pair)[0]
    return b.build([b.mul(interp_val, d_s)])


def certified_lambda_prime(lam: Fraction, eps: Fraction, c_prime: Fraction) -> Fraction:
    """max(lambda, ceil(c'^(-1/eps) * lambda * ln(1/c') / eps)) with a certified ceiling."""
    old = iv.prec  # the interval context has no workprec
    iv.prec = 128
    try:
        ci = iv.mpf(c_prime.numerator) / iv.mpf(c_prime.denominator)
        ei = iv.mpf(eps.numerator) / iv.mpf(eps.denominator)
        li = iv.mpf(lam.numerator) / iv.mpf(lam.denominator)
        log_inv = iv.log(1 / ci)
        bound = iv.exp(log_inv / ei) * li * log_inv / ei
        ceiling = Fraction(int(mpmath.ceil(bound.b)))
    finally:
        iv.prec = old
    return max(Fraction(lam), ceiling)


@dataclass
class ReductionArtifacts:
    direction: str
    source: CLSLocalInstance | BanachInstance
    produced: CLSLocalInstance | BanachInstance
    substitutions: dict[str, Fraction]
    half_eps: bool = False

    def provenance_text(self) -> str:
        lines = [f"direction {self.direction}"]
        if self.half_eps:
            lines.append("half-eps pre-scaling: on")
        for key in sorted(self.substitutions):
            lines.append(f"{key} {format_fraction(self.substitutions[key])}")
        return "\n".join(lines) + "\n"


def reduce_banach_to_cls_local(inst: BanachInstance) -> ReductionArtifacts:
    """Membership direction: p(x) = d(x, f(x)), eps' = (1-c)*eps, lambda' = lambda."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    fx = b.inline(inst.f, xs)
    p_out = b.inline(inst.d, list(xs) + list(fx))[0]
    p = b.build([p_out])
    eps_prime = (1 - inst.c) * inst.eps
    produced = CLSLocalInstance(inst.f, p, eps_prime, inst.lam)
    subs = {"eps": inst.eps, "c": inst.c, "eps_prime": eps_prime, "lambda_prime": inst.lam}
    return ReductionArtifacts(BANACH_TO_CLSLOCAL, inst, produced, subs)


def map_cls_local_solution_to_banach(src: BanachInstance, sol: Solution) -> Solution:
    """Back-map a CO1/CO2/CO3 witness of the reduced instance to an Oa..Oe witness.

    Raises ReductionBug when the input does not verify against the reduced
    instance or the mapped solution fails verify_banach.
    """
    artifacts = reduce_banach_to_cls_local(src)
    pre = verify_cls_local(artifacts.produced, sol)
    if not pre:
        raise ReductionBug(f"solution does not verify against the reduced instance: {pre.reason}")
    f, d = evaluators(src)
    if sol.kind == "CO1":
        (x,) = sol.witnesses
        fx = f(x)
        if CLAUSES[("banach", "Ob")].holds(src, f, d, x, fx)[0]:
            mapped = Solution("Ob", (x, fx))
        else:
            mapped = Solution("Oa", (x,))
    elif sol.kind == "CO2":
        mapped = Solution("Oc", sol.witnesses)
    else:  # CO3
        x, y = sol.witnesses
        if l1(x, f(x)) > l1(y, f(y)):
            x, y = y, x
        fx, fy = f(x), f(y)
        if x == fx:
            if d(x, fx) == 0:
                mapped = Solution("Oa", (x,))
            elif not src.metric_promised:
                mapped = Solution("Oe", (x,))
            else:
                raise ReductionBug(
                    f"d(x,x) = {d(x, fx)} != 0 at x = {x} on a promised metric"
                )
        else:
            mapped = Solution("Od", (x, fx, y, fy))
    verdict = verify_banach(src, mapped)
    if not verdict:
        raise ReductionBug(
            f"back-mapped {sol.kind} -> {mapped.kind} fails verification: "
            f"{verdict.reason} (lhs={verdict.lhs}, rhs={verdict.rhs})"
        )
    return mapped


def reduce_cls_local_to_banach(inst: CLSLocalInstance, half_eps: bool = False) -> ReductionArtifacts:
    """Hardness direction: the interpolated-metric construction."""
    eps_r = inst.eps / 2 if half_eps else inst.eps
    if eps_r >= 10:
        raise CircuitError("eps must be below 10: c' = 1 - 0.1*eps would leave (0,1)")
    c_prime = 1 - eps_r / 10
    eps_prime = 1 / c_prime
    lam_prime = certified_lambda_prime(inst.lam, eps_r, c_prime)
    d = build_interpolated_metric_circuit(inst.p, eps_r, c_prime)
    produced = BanachInstance(inst.f, d, eps_prime, lam_prime, c_prime, metric_promised=False)
    subs = {
        "eps": inst.eps,
        "eps_r": eps_r,
        "c_prime": c_prime,
        "eps_prime": eps_prime,
        "lambda_prime": lam_prime,
    }
    return ReductionArtifacts(CLSLOCAL_TO_BANACH, inst, produced, subs, half_eps=half_eps)


def map_banach_solution_to_cls_local(
    src: CLSLocalInstance, artifacts: ReductionArtifacts, sol: Solution
) -> Solution:
    """Back-map an Oa..Od witness of the constructed banach instance to CO1/CO2/CO3."""
    if artifacts.direction != CLSLOCAL_TO_BANACH:
        raise ReductionBug("artifacts are not from the hardness direction")
    pre = verify_banach(artifacts.produced, sol)
    if not pre:
        raise ReductionBug(f"solution does not verify against the reduced instance: {pre.reason}")
    f, p = evaluators(src)
    eps_r = artifacts.substitutions["eps_r"]
    if sol.kind == "Oa":
        mapped = Solution("CO1", sol.witnesses)
    elif sol.kind == "Ob":
        x, y = sol.witnesses
        if p(f(x)) > p(x) - eps_r:
            mapped = Solution("CO1", (x,))
        elif p(f(y)) > p(y) - eps_r:
            mapped = Solution("CO1", (y,))
        else:
            # bracketing forces max(p(f(x)), p(f(y))) > max(p(x), p(y)) - 2*eps_r
            candidate = x if p(f(x)) >= p(f(y)) else y
            mapped = Solution("CO1", (candidate,))
    elif sol.kind == "Oc":
        mapped = Solution("CO2", sol.witnesses)
    elif sol.kind == "Od":
        x1, _, y1, _ = sol.witnesses
        if not CLAUSES[("cls-local", "CO3")].holds(src, f, p, x1, y1)[0]:
            raise ReductionBug(
                "Od claim refuted by replay: |p(x1)-p(y1)| <= lambda*|x1-y1|_1; "
                "the metric-circuit Lipschitz violation is not caused by p"
            )
        mapped = Solution("CO3", (x1, y1))
    else:
        raise ReductionBug(
            "verified Oe against the constructed instance: d is a metric by "
            "construction, so this indicates a bug"
        )
    verdict = verify_cls_local(src, mapped)
    if not verdict:
        raise ReductionBug(
            f"back-mapped {sol.kind} -> {mapped.kind} fails verification: "
            f"{verdict.reason} (lhs={verdict.lhs}, rhs={verdict.rhs}); "
            "hardness reductions carry 2*eps slack unless run with half_eps"
        )
    return mapped


@dataclass
class TriangleCaseVerdict:
    case: str  # "p(x)>=p(z)" or "p(x)<p(z)" after the p(x)>=p(y) normalization
    ok: bool
    lhs: Fraction
    rhs: Fraction


@dataclass
class MetricCertification:
    axiom_failures: list[str] = field(default_factory=list)
    lower_bound_failures: list[str] = field(default_factory=list)
    case_verdicts: list[TriangleCaseVerdict] = field(default_factory=list)
    min_offdiag: Fraction | None = None

    @property
    def all_pass(self) -> bool:
        return not self.axiom_failures and not self.lower_bound_failures and all(
            v.ok for v in self.case_verdicts
        )

    def report_text(self) -> str:
        lines = [f"triples checked: {len(self.case_verdicts)}"]
        if self.min_offdiag is not None:
            lines.append(f"min d(x,y) over sampled x != y: {format_fraction(self.min_offdiag)}")
        lines.append(f"axiom failures: {len(self.axiom_failures)}")
        lines.extend(f"  {msg}" for msg in self.axiom_failures)
        lines.append(f"lower-bound failures: {len(self.lower_bound_failures)}")
        lines.extend(f"  {msg}" for msg in self.lower_bound_failures)
        by_case: dict[str, list[TriangleCaseVerdict]] = {}
        for v in self.case_verdicts:
            by_case.setdefault(v.case, []).append(v)
        for case, verdicts in sorted(by_case.items()):
            ok = sum(1 for v in verdicts if v.ok)
            lines.append(f"triangle case {case}: {ok}/{len(verdicts)} hold")
        lines.append("overall: " + ("PASS" if self.all_pass else "FAIL"))
        return "\n".join(lines) + "\n"


def certify_constructed_metric(
    artifacts: ReductionArtifacts, triples: Sequence[Sequence[Sequence[Fraction]]]
) -> MetricCertification:
    """Check metric axioms, the d >= c' lower bound, and the two-case triangle
    argument of the constructed metric over sampled triples.

    Every point is scaled once to the batch's common denominator; d is
    evaluated once per ordered pair of each triple and p once per point,
    each circuit in one batch over columns gathered from those integers.
    Each clause is decided on the integer numerators that d's values (and
    p's) share one denominator over.  ``Fraction``s are built only for the
    report: each triple's two triangle sides, the smallest off-diagonal
    distance, and the detail strings of failures.  A triple flagged by the
    axiom mask is described by ``check_metric_axioms``.
    """
    if artifacts.direction != CLSLOCAL_TO_BANACH:
        raise ReductionBug("artifacts are not from the hardness direction")
    c_prime = artifacts.substitutions["c_prime"]
    points = [tuple(as_point(pt) for pt in raw) for raw in triples]
    if any(len(triple) != 3 for triple in points):
        raise ValueError("each triple needs exactly 3 points")
    report = MetricCertification()
    if not points:
        return report
    scaled, scale = scale_to_integers([pt for triple in points for pt in triple])
    coords = scaled.astype(object)  # (3T, 3) Python ints: row 3t+i is point i of triple t
    n = len(points)
    first = np.repeat(np.arange(3 * n), 3)  # pair row 9t+3i+j reads point 3t+i ...
    second = np.arange(3 * n).reshape(n, 1, 3).repeat(3, axis=1).ravel()  # ... and 3t+j
    ((d_num, d_den),) = on_one_scale(
        artifacts.produced.d, [*coords[first].T, *coords[second].T], scale
    )
    ((p_num, _),) = on_one_scale(artifacts.source.p, list(coords.T), scale)
    dist = d_num.reshape(n, 3, 3)
    pot = p_num.reshape(n, 3)
    pts = coords.reshape(n, 3, 3)
    distinct = (pts[:, :, None, :] != pts[:, None, :, :]).any(axis=3)

    for k in np.flatnonzero(metric_failure_mask(dist, distinct)):
        violation = check_metric_axioms(scaled_to_fractions(dist[k], d_den), points[k])
        if violation is not None:
            report.axiom_failures.append(
                f"{violation.axiom} at {violation.witnesses}: "
                f"lhs={violation.lhs} rhs={violation.rhs}"
            )
    offdiag = dist[distinct]
    if offdiag.size:
        report.min_offdiag = Fraction(int(offdiag.min()), d_den)
    below = distinct & (dist * c_prime.denominator < c_prime.numerator * d_den)
    for k, i, j in np.argwhere(below):
        u, v, val = points[k][i], points[k][j], Fraction(dist[k, i, j], d_den)
        report.lower_bound_failures.append(f"d({u},{v}) = {val} < c' = {c_prime}")

    rows = np.arange(n)
    x = np.where(pot[:, 0] < pot[:, 1], 1, 0)  # x, y = 0, 1 ordered so that p(x) >= p(y)
    y = 1 - x
    ge = (pot[rows, x] >= pot[:, 2]).tolist()
    lhs = dist[rows, x, y]
    rhs = dist[rows, x, 2] + dist[rows, 2, y]
    for case_ge, ok, a, b in zip(ge, (lhs <= rhs).tolist(), lhs.tolist(), rhs.tolist()):
        report.case_verdicts.append(TriangleCaseVerdict(
            "p(x)>=p(z)" if case_ge else "p(x)<p(z)", ok, Fraction(a, d_den), Fraction(b, d_den)
        ))
    return report
