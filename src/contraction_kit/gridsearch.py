"""Exhaustive desk-scale grid solver used to exercise reduction round-trips.

Not a general CLS solver: it scans a rational grid over [0,1]^3 (default
resolution 1/16) for each accepted solution kind in a fixed priority order
(fixed-point-style witnesses first), and checks violation clauses over a
coarser pair/triple budget.  Candidates are decided by the verifier's own
clause predicates (``cls.CLAUSES``) on the instance's circuit evaluators,
every returned solution is re-verified before it is handed back, and the
scan order is deterministic.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable

from .cls import CLAUSES, ProblemInstance, Solution, accepted_kinds, evaluators, verify
from .library import Point
from .metrics import check_metric_axioms

COARSE_RESOLUTION = Fraction(1, 4)
MAX_PAIRS = 4000
MAX_QUADS = 4000
MAX_TRIANGLE_POINTS = 24


def grid_points(resolution: Fraction) -> list[Point]:
    resolution = Fraction(resolution)
    if not 0 < resolution <= 1:
        raise ValueError("resolution must lie in (0, 1]")
    steps = int(1 / resolution)
    axis = [Fraction(k) * resolution for k in range(steps + 1)]
    if axis[-1] != 1:
        axis.append(Fraction(1))
    return [p for p in itertools.product(axis, repeat=3)]


def _candidate_pairs(resolution: Fraction) -> list[tuple[Point, Point]]:
    coarse = grid_points(COARSE_RESOLUTION)
    pairs: list[tuple[Point, Point]] = []
    for pt in coarse:
        for i in range(3):
            if pt[i] + resolution <= 1:
                nxt = list(pt)
                nxt[i] = nxt[i] + resolution
                pairs.append((pt, tuple(nxt)))
    for i in range(len(coarse)):
        for j in range(i + 1, len(coarse)):
            pairs.append((coarse[i], coarse[j]))
            if len(pairs) >= MAX_PAIRS:
                return pairs
    return pairs


def _quads(pairs: list[tuple[Point, Point]]) -> Iterable[tuple[Point, ...]]:
    quad_pairs = [(x, y) for x, y in pairs if x != y]
    quads = itertools.product(quad_pairs, quad_pairs)
    return (xs + ys for xs, ys in itertools.islice(quads, MAX_QUADS))


def _metric_violations(d, fine: list[Point]) -> Iterable[tuple[Point, ...]]:
    """Oe candidates: fine-grid points, pairs of coarse points, then the first
    failure of the metric scan over the coarse points.  Every coarse pair has
    passed by then, so that failure is a triangle violation."""
    yield from ((x,) for x in fine)
    coarse = grid_points(COARSE_RESOLUTION)[:MAX_TRIANGLE_POINTS]
    yield from itertools.combinations(coarse, 2)
    violation = check_metric_axioms(d, coarse)
    if violation is not None:
        yield violation.witnesses


def solve_instance(inst: ProblemInstance, resolution: Fraction = Fraction(1, 16)) -> Solution | None:
    """First grid candidate, in kind priority order, whose clause holds."""
    f, g = evaluators(inst)
    fine = grid_points(resolution)
    pairs = functools.cache(lambda: _candidate_pairs(resolution))
    # candidate streams by witness count; pairs are built only if a pair kind is reached
    streams = {
        1: lambda: ((x,) for x in fine),
        2: pairs,
        4: lambda: _quads(pairs()),
    }
    for kind in accepted_kinds(inst):
        clause = CLAUSES[(inst.namespace, kind)]
        stream = _metric_violations(g, fine) if kind == "Oe" else streams[clause.witnesses[0]]()
        for witnesses in stream:
            if clause.holds(inst, f, g, *witnesses)[0]:
                sol = Solution(kind, witnesses)
                return sol if verify(inst, sol) else None
    return None
