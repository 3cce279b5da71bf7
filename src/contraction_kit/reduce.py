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
integer scale: the points are scaled once, as one ``circuit.Scaled`` block,
d and p are called on point columns gathered from it (one batch each, the
circuits' one batch entry), and every clause is decided on the ``Scaled``
values d gives, which share one denominator.
The metric axioms go through metrics.metric_failure_mask, and only a flagged
triple reaches the check_metric_axioms scan that names its failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import iv

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    InputError,
    Scaled,
    format_fraction,
)
from .cls import (
    CLAUSES,
    BanachInstance,
    CLSLocalInstance,
    Solution,
    verify_banach,
    verify_cls_local,
)
from .library import as_point, discrete_metric, l1
from .metrics import check_metric_axioms, metric_failure_mask

# bits past which certified_lambda_prime refuses the ceiling: far above the
# ~14,300 bits of the 4,300 digits format_fraction can write, far below an
# int that costs real memory
LAMBDA_PRIME_MAX_BITS = 1 << 20
# interval precision of certified_lambda_prime's size test, and the least it
# computes the value at; the value's precision rises with the smallness of eps
# and of 1 - c' up to LAMBDA_PRIME_MAX_PREC
LAMBDA_PRIME_PREC = 128
LAMBDA_PRIME_MAX_PREC = 320

BANACH_TO_CLSLOCAL = "banach->cls-local"
CLSLOCAL_TO_BANACH = "cls-local->banach"


class ReductionBug(AssertionError):
    """A back-mapped solution failed re-verification; carries the replay."""


def smooth_interpolation(w: Fraction, c: Fraction) -> Fraction:
    """B(w) = (1-(ceil(w)-w))*c^ceil(w) + (ceil(w)-w)*c^(ceil(w)+1), w <= 0."""
    w, c = Fraction(w), Fraction(c)
    if w > 0:
        raise ValueError("B is defined for w <= 0")
    cw = math.ceil(w)
    t = Fraction(cw) - w
    return (1 - t) * c ** cw + t * c ** (cw + 1)


def _interpolation(b: CircuitBuilder, w: int, c: Fraction, max_abs: int) -> int:
    """B at node ``w`` of ``b``, clamped to [-max_abs, 0]; the body of ``build_interpolation_circuit``."""
    c = Fraction(c)
    if not 0 < c < 1:
        raise CircuitError("c must lie in (0,1)")
    if max_abs < 1:
        raise CircuitError("max_abs must be at least 1")
    zero = b.const(0)
    one = b.const(1)
    w_cl = b.min(b.max(w, b.const(-max_abs)), zero)
    v = b.sub(zero, w_cl)  # v = -w in [0, max_abs]
    upper, t = b.peel_power(v, 1 / c, max_abs)  # c**ceil(w), ceil(w) - w
    lower = b.mul(upper, b.const(c))  # c**(ceil(w)+1)
    return b.add(b.mul(b.sub(one, t), upper), b.mul(t, lower))


def build_interpolation_circuit(c: Fraction, max_abs: int) -> Circuit:
    """One-input circuit computing B(w) for w in [-max_abs, 0].

    Inputs are clamped to the supported range.  Peeling v = -w gives
    (1/c)**floor(v) = c**ceil(w) and the remainder v - floor(v) = ceil(w) - w,
    the mixing weight t of B.  O(log max_abs) gates.
    """
    b = CircuitBuilder()
    return b.build([_interpolation(b, b.input(), c, max_abs)])


def _kappa(b: CircuitBuilder, p: Circuit, xs: Sequence[int], ys: Sequence[int], eps: Fraction) -> int:
    """kappa of the points at nodes ``xs`` and ``ys`` of ``b``, with ``p`` inlined once for each."""
    eps = Fraction(eps)
    if eps <= 0:
        raise CircuitError("eps must be positive")
    inv = b.const(1 / eps)
    zero = b.const(0)
    px = b.inline(p, xs)[0]
    py = b.inline(p, ys)[0]
    kx = b.sub(zero, b.mul(px, inv))
    ky = b.sub(zero, b.mul(py, inv))
    return b.min(kx, ky)


def build_kappa_circuit(p: Circuit, eps: Fraction) -> Circuit:
    """6-input circuit for kappa(x,y) = min(-p(x)/eps, -p(y)/eps)."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    return b.build([_kappa(b, p, xs, b.inputs(3), eps)])


def build_interpolated_metric_circuit(p: Circuit, eps: Fraction, c: Fraction) -> Circuit:
    """d(x,y) = B(kappa(x,y)) * d_S(x,y) as one 6-input circuit.

    kappa, B and d_S are written into one builder, so each gate of d is made
    once; the builder's const cache shares a constant between them.  Gate
    count is 2*|p| + O(log(1/eps)).
    """
    b = CircuitBuilder()
    xs = b.inputs(3)
    ys = b.inputs(3)
    kappa = _kappa(b, p, xs, ys, eps)
    interp = _interpolation(b, kappa, c, max(1, math.ceil(1 / Fraction(eps))))
    return b.build([b.mul(interp, discrete_metric(b, xs, ys))])


def _smallness(x: Fraction) -> int:
    """About log2(1/|x|) for |x| < 1, and 0 for |x| >= 1."""
    return max(0, x.denominator.bit_length() - abs(x.numerator).bit_length())


def _lambda_prime_bound(lam: Fraction, eps: Fraction, c_prime: Fraction, prec: int):
    """The ceiling of the upper end of c'^(-1/eps) * lambda * ln(1/c') / eps in a
    `prec`-bit interval, or None when that end has more than LAMBDA_PRIME_MAX_BITS bits."""
    old = iv.prec  # the interval context has no workprec
    iv.prec = prec
    try:
        ci = iv.mpf(c_prime.numerator) / iv.mpf(c_prime.denominator)
        ei = iv.mpf(eps.numerator) / iv.mpf(eps.denominator)
        li = iv.mpf(lam.numerator) / iv.mpf(lam.denominator)
        log_inv = iv.log(1 / ci)
        bound = iv.exp(log_inv / ei) * li * log_inv / ei
        if mpmath.mag(bound.b) > LAMBDA_PRIME_MAX_BITS:
            return None
        with mpmath.workprec(prec):  # the end holds prec bits, which 53 would round
            return int(mpmath.ceil(bound.b))
    finally:
        iv.prec = old


def certified_lambda_prime(
    lam: Fraction, eps: Fraction, c_prime: Fraction, writable: bool = False
) -> Fraction:
    """max(lambda, ceil(c'^(-1/eps) * lambda * ln(1/c') / eps)) with a certified ceiling.

    Raises InputError when the bound at LAMBDA_PRIME_PREC bits has more than
    LAMBDA_PRIME_MAX_BITS bits, which a tiny eps brings about through
    c'^(-1/eps) or through the width of the interval around ln(1/c').  That
    width is some 2^-prec, and dividing by eps widens it by 2^smallness(eps)
    before exp, so for an eps or 1 - c' below 2^-64 the bound is computed
    again at 64 bits past their smallness (at most LAMBDA_PRIME_MAX_PREC),
    and the lesser of the two certified ceilings is taken.

    With `writable`, it also raises InputError when the bound at
    LAMBDA_PRIME_PREC bits has more digits than `format_fraction` writes.
    The reduction refuses those eps, as it did when it wrote that bound: the
    tighter bound does not make the `d` it builds for them, which squares
    1/c' about log2(1/eps) times, any cheaper to evaluate.
    """
    ceiling = _lambda_prime_bound(lam, eps, c_prime, LAMBDA_PRIME_PREC)
    if ceiling is None:
        raise InputError(
            f"eps is too small: the certified lambda' bound has more than "
            f"{LAMBDA_PRIME_MAX_BITS} bits"
        )
    if writable:
        try:
            format_fraction(Fraction(ceiling))
        except InputError as exc:
            raise InputError(
                f"eps is too small: the lambda' bound at {LAMBDA_PRIME_PREC} bits cannot be "
                f"written ({exc})"
            ) from None
    smallness = max(_smallness(eps), _smallness(1 - c_prime))
    prec = min(smallness + 64, LAMBDA_PRIME_MAX_PREC)
    if prec > LAMBDA_PRIME_PREC:
        tight = _lambda_prime_bound(lam, eps, c_prime, prec)
        if tight is not None:
            ceiling = min(ceiling, tight)
    return max(Fraction(lam), Fraction(ceiling))


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
    f, d = src.f, src.d
    if sol.kind == "CO1":
        (x,) = sol.witnesses
        fx = f(x)
        if CLAUSES[("banach", "Ob")].holds(src, x, fx)[0]:
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
    lam_prime = certified_lambda_prime(inst.lam, eps_r, c_prime, writable=True)
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
    f, p = src.f, src.p
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
        if not CLAUSES[("cls-local", "CO3")].holds(src, x1, y1)[0]:
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

    Every point is scaled once, by ``Scaled.of``; d is evaluated once per
    ordered pair of each triple and p once per point, each circuit called
    once on point columns gathered from that block.  Each clause is decided
    on the ``Scaled`` values d (and p) give, over one denominator each.
    ``Fraction``s are built only for the report: each triple's two triangle
    sides, the smallest off-diagonal distance, and the detail strings of
    failures.  A triple flagged by the axiom mask is described by
    ``check_metric_axioms``.
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
    coords = Scaled.of([pt for triple in points for pt in triple])  # row 3t+i is point i of triple t
    n = len(points)
    first = np.repeat(np.arange(3 * n), 3)  # pair row 9t+3i+j reads point 3t+i ...
    second = np.arange(3 * n).reshape(n, 1, 3).repeat(3, axis=1).ravel()  # ... and 3t+j
    d = artifacts.produced.d(coords[first].columns(), coords[second].columns())
    dist = Scaled(d.num.reshape(n, 3, 3), d.den)
    pot = artifacts.source.p(coords.columns()).num.reshape(n, 3)
    pts = coords.num.reshape(n, 3, 3)
    distinct = (pts[:, :, None, :] != pts[:, None, :, :]).any(axis=3)

    for k in np.flatnonzero(metric_failure_mask(dist.num, distinct)):
        # the mask flags exactly the triples the scan fails, so each has a violation
        violation = check_metric_axioms(dist[k].fractions(), points[k])
        report.axiom_failures.append(
            f"{violation.axiom} at {violation.witnesses}: lhs={violation.lhs} rhs={violation.rhs}"
        )
    offdiag = dist[distinct]
    if offdiag.num.size:
        report.min_offdiag = offdiag[offdiag.num.argmin()]
    below = distinct & (dist < c_prime)
    if below.any():
        for k, i, j in zip(*np.nonzero(below)):
            u, v, val = points[k][i], points[k][j], dist[k, i, j]
            report.lower_bound_failures.append(f"d({u},{v}) = {val} < c' = {c_prime}")

    rows = np.arange(n)
    x = np.where(pot[:, 0] < pot[:, 1], 1, 0)  # x, y = 0, 1 ordered so that p(x) >= p(y)
    y = 1 - x
    ge = (pot[rows, x] >= pot[:, 2]).tolist()
    lhs = dist[rows, x, y]
    rhs = dist[rows, x, 2] + dist[rows, 2, y]
    for case_ge, ok, a, b in zip(ge, (lhs <= rhs).tolist(), lhs.fractions(), rhs.fractions()):
        report.case_verdicts.append(
            TriangleCaseVerdict("p(x)>=p(z)" if case_ge else "p(x)<p(z)", ok, a, b)
        )
    return report
