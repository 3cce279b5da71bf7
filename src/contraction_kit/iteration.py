"""Basic iterative procedure (x_{t+1} = f(x_t)) and iteration-count budgets.

run_bip iterates on exact rational tuples and detects a cycle by exact
revisit of a point.  The budget formulas take d0 measured in a synthesized
contraction metric; see the converse module for how that metric is produced
on finite spaces.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .circuit import InputError, format_fraction


class StopReason(enum.Enum):
    RESIDUAL_BELOW_EPS = "residual_below_eps"
    MAX_ITERS = "max_iters"
    CYCLE_DETECTED = "cycle_detected"


@dataclass
class IterationTrace:
    """The visited points, per-step residuals d(x_t, x_{t+1}), and stop cause."""

    points: list
    residuals: list
    stop_reason: StopReason

    @property
    def stop_index(self) -> int:
        return len(self.residuals) - 1 if self.residuals else 0

    def to_csv(self) -> str:
        lines = ["step,x1,x2,x3,residual"]
        for t, pt in enumerate(self.points):
            res = format_fraction(self.residuals[t]) if t < len(self.residuals) else ""
            coords = ",".join(format_fraction(c) for c in pt)
            lines.append(f"{t},{coords},{res}")
        return "\n".join(lines) + "\n"


def run_bip(
    f: Callable,
    x0,
    d: Callable,
    eps,
    max_iters: int,
) -> IterationTrace:
    """Iterate f from x0 until the residual d(x_t, f(x_t)) drops to eps.

    Points are tuples of exact rationals; a point seen before ends the run as
    a cycle.
    """
    if max_iters < 1:
        raise InputError("max_iters must be at least 1")
    x = tuple(x0)
    if not (eps > 0):
        raise InputError("eps must be positive")
    points = [x]
    residuals = []
    seen = {x}
    for _ in range(max_iters):
        nxt = tuple(f(x))
        res = d(x, nxt)
        points.append(nxt)
        residuals.append(res)
        if res <= eps:
            return IterationTrace(points, residuals, StopReason.RESIDUAL_BELOW_EPS)
        if nxt in seen:
            return IterationTrace(points, residuals, StopReason.CYCLE_DETECTED)
        seen.add(nxt)
        x = nxt
    return IterationTrace(points, residuals, StopReason.MAX_ITERS)


@dataclass(frozen=True)
class IterationBudget:
    """Real-valued budget formula and the integer budget settled from it."""

    predicted_steps: float
    budget: int


def _check_budget_args(d0, c, eps) -> None:
    if not 0 < c < 1:
        raise InputError("c must lie in (0,1)")
    if d0 < 0:
        raise InputError("d0 must be nonnegative")
    if not eps > 0:
        raise InputError("eps must be positive")


# Rounding error allowed for the float budget formula, relative to its terms;
# far above the few ulps its logs lose.  Only a window of this width around
# the formula that holds an integer sends the budget to the exact test.
_FLOAT_SLACK = 2.0**-44
# Largest c^n, in bits, that the exact test computes.
_EXACT_BITS = 1 << 20


def _log(q: Fraction) -> float:
    """math.log(q) for a positive rational, also where float(q) would overflow or underflow."""
    if sys.float_info.min <= q <= sys.float_info.max:
        return math.log(q)
    # q / 2**shift lies in (1/2, 2), where one int division rounds it once
    shift = q.numerator.bit_length() - q.denominator.bit_length()
    mantissa = (q.numerator << max(0, -shift)) / (q.denominator << max(0, shift))
    return math.log(mantissa) + shift * math.log(2)


def predict_iterations(d0, c, eps) -> IterationBudget:
    """Global iteration budget (log d0 + log(2/((1-c)*eps))) / log(1/c).

    d0 is d_{c,eps/2}(x0, f(x0)) measured in the synthesized metric.  The
    budget is the least n with c^n*d0/(1-c) <= eps/2.  It rests on two
    entries of the converse certificate of synthesize(m, c, eps/2):
    "c-contraction of d_c" gives d_c(x_n, x*) <= c^n*d0/(1-c), and "small
    d_c at the fixed point implies base proximity" turns d_c(x_n, x*) <=
    eps/2 into d(x_n, x*) <= eps.  The ratio form makes the log base
    irrelevant.

    The float formula can be off by one at an exact boundary.  Its ceiling
    is the budget when the formula lies more than its rounding error from
    an integer.  Otherwise an exact test on the rational inputs settles n,
    unless c^n would pass _EXACT_BITS bits; the budget is then the ceiling
    at the top of the window.  That is never below the least n; the window
    is narrower than one step unless 1 - c is below about 1e-11.  Logs of
    rationals outside the float range are taken from their bits; where c is
    so close to 1 that the formula leaves the float range, InputError.
    """
    _check_budget_args(d0, c, eps)
    d0, c, eps = Fraction(d0), Fraction(c), Fraction(eps)
    if d0 == 0:
        return IterationBudget(-math.inf, 0)
    t0, t1 = _log(d0), _log(2 / ((1 - c) * eps))
    # 1 - c is exact and log1p keeps log(1/c) accurate for c near 1; below
    # c = 1/2, float(1 - c) would drop the low bits of c, so log(c) is taken
    gap = float(1 - c)
    if gap < sys.float_info.min:
        raise InputError("c is within 2.2e-308 of 1: no iteration budget is representable")
    rate = -math.log1p(-gap) if c >= 0.5 else -_log(c)
    value = (t0 + t1) / rate
    slack = _FLOAT_SLACK * ((1 + abs(t0) + abs(t1)) / rate + abs(value))
    if not math.isfinite(value + slack):
        raise InputError("c is too close to 1: no iteration budget is representable")
    lo, hi = (max(0, math.ceil(v)) for v in (value - slack, value + slack))
    if lo < hi and hi * c.denominator.bit_length() <= _EXACT_BITS:
        hi = _least_steps(lo, hi, d0, c, eps)
    return IterationBudget(value, hi)


def _least_steps(lo: int, hi: int, d0: Fraction, c: Fraction, eps: Fraction) -> int:
    """The least n in [lo, hi] with c^n*d0/(1-c) <= eps/2; hi must qualify."""
    p, q = c.numerator, c.denominator
    # c^n*d0/(1-c) <= eps/2  <=>  left*p^n <= right*q^n, over integers
    left = 2 * eps.denominator * d0.numerator * q
    right = eps.numerator * d0.denominator * (q - p)
    while lo < hi:
        mid = (lo + hi) // 2
        if left * p**mid <= right * q**mid:
            hi = mid
        else:
            lo = mid + 1
    return hi


