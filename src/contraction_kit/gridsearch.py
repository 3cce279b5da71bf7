"""Exhaustive desk-scale grid solver used to exercise reduction round-trips.

Not a general CLS solver: it scans a rational grid over [0,1]^3 (default
resolution 1/16) for each accepted solution kind in a fixed priority order
(fixed-point-style witnesses first), and checks violation clauses over a
coarser pair/quad budget.  Candidates are decided by the verifier's own
clause predicates (``cls.CLAUSES``), every returned solution is re-verified
before it is handed back, and the scan order is deterministic.

Each candidate stream is decided ``CHUNK`` candidates at a time on the exact
batch kernel.  Per resolution, the grid is held once, as a scaled block: the
points the streams read over one integer denominator, with the streams kept
as index arrays into it (the fine grid, the neighbour and coarse pairs, and
the Od quads).  A chunk gathers each witness's point column by index and
runs the clause's predicate on it; the instance's circuits are called on
point columns, their one batch entry (row by row when a batch passes the bit
budget).  The predicate gives a mask, and its first true row in stream order
is the hit, the candidate the scalar scan ``_solve_instance_reference`` stops
at; only the hit's witnesses are read back as Fractions.  Oe's short scan
stays scalar, through ``check_metric_axioms``, on fine points built lazily.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .circuit import InputError, Scaled
from .cls import CLAUSES, ProblemInstance, Solution, accepted_kinds, verify
from .library import Point
from .metrics import check_metric_axioms

COARSE_RESOLUTION = Fraction(1, 4)
MAX_PAIRS = 4000
MAX_QUADS = 4000
MAX_TRIANGLE_POINTS = 24
CHUNK = 64  # candidates decided per batch
# most steps per axis: the scaled grid is built whole, a solve peaks near
# 0.74 GB at 260 steps
MAX_GRID_STEPS = 260


def _axis(resolution: Fraction) -> list[Fraction]:
    """The grid's coordinates on each axis: the multiples of the resolution, then 1."""
    resolution = Fraction(resolution)
    if not 0 < resolution <= 1:
        raise InputError("resolution must lie in (0, 1]")
    steps = int(1 / resolution)
    if steps > MAX_GRID_STEPS:
        raise InputError(
            f"--grid {resolution} needs {steps} steps per axis, above the budget of {MAX_GRID_STEPS}"
        )
    axis = [Fraction(k) * resolution for k in range(steps + 1)]
    if axis[-1] != 1:
        axis.append(Fraction(1))
    return axis


def grid_points(resolution: Fraction) -> tuple[Point, ...]:
    """The grid over [0,1]^3 in scan order: the coarse points and the scalar reference's grid."""
    return tuple(itertools.product(_axis(resolution), repeat=3))


def _candidate_pairs(resolution: Fraction) -> Iterator[tuple[Point, Point]]:
    """Each coarse point with its neighbours one step up each axis, then the
    pairs of coarse points, until MAX_PAIRS pairs in all."""
    coarse = grid_points(COARSE_RESOLUTION)
    count = 0
    for pt in coarse:
        for i in range(3):
            if pt[i] + resolution <= 1:
                nxt = list(pt)
                nxt[i] = nxt[i] + resolution
                count += 1
                yield pt, tuple(nxt)
    for pair in itertools.combinations(coarse, 2):
        yield pair
        count += 1
        if count >= MAX_PAIRS:
            return


def _quads(pairs: list[tuple[Point, Point]]) -> Iterable[tuple[Point, ...]]:
    quad_pairs = [(x, y) for x, y in pairs if x != y]
    quads = itertools.product(quad_pairs, quad_pairs)
    return (xs + ys for xs, ys in itertools.islice(quads, MAX_QUADS))


@dataclass(frozen=True)
class _Grid:
    """A resolution's candidate streams as rows of indices into its points.

    Row k of ``scaled`` is point k over Python ints: the fine grid in scan
    order, then the pair points off it.  ``streams[w]`` holds the w-witness
    candidates in scan order.
    """

    scaled: Scaled
    streams: dict[int, np.ndarray]


@functools.cache
def _grid(resolution: Fraction) -> _Grid:
    """The fine grid, then the pair points off it, and the streams over them.

    A fine point's index follows from its coordinates' places on the axis, so
    only pair points off the grid are looked up in a table.
    """
    axis = _axis(resolution)
    n = len(axis)
    size = n ** 3  # of the fine grid
    place = {q: k for k, q in enumerate(axis)}
    extra: dict[Point, int] = {}

    def index(pt: Point) -> int:
        if all(q in place for q in pt):
            return (place[pt[0]] * n + place[pt[1]]) * n + place[pt[2]]
        return extra.setdefault(pt, size + len(extra))

    flat = (index(pt) for pair in _candidate_pairs(resolution) for pt in pair)
    pair_rows = np.fromiter(flat, dtype=np.int32).reshape(-1, 2)
    distinct = pair_rows[pair_rows[:, 0] != pair_rows[:, 1]]
    # the first MAX_QUADS of itertools.product(distinct, distinct), as _quads takes them
    k = np.arange(min(MAX_QUADS, len(distinct) ** 2))
    quads = np.hstack([distinct[k // len(distinct)], distinct[k % len(distinct)]])
    # the axis, then the extra points' coordinates, over Python ints
    scaled = Scaled.of(axis + [q for pt in extra for q in pt]).wide()
    coords = np.empty((size + len(extra), 3), dtype=object)
    for i in range(3):  # coordinate i of the fine grid, in itertools.product order
        coords[:size, i] = np.tile(np.repeat(scaled.num[:n], n ** (2 - i)), n ** i)
    coords[size:] = scaled.num[n:].reshape(-1, 3)
    streams = {1: np.arange(size, dtype=np.int32)[:, None], 2: pair_rows, 4: quads}
    return _Grid(Scaled(coords, scaled.den), streams)


def _metric_violations(d, fine: Iterable[Point]) -> Iterable[tuple[Point, ...]]:
    """Oe candidates: fine-grid points, pairs of coarse points, then the first
    failure of the metric scan over the coarse points.  Every coarse pair has
    passed by then, so that failure is a triangle violation."""
    yield from ((x,) for x in fine)
    coarse = grid_points(COARSE_RESOLUTION)[:MAX_TRIANGLE_POINTS]
    yield from itertools.combinations(coarse, 2)
    violation = check_metric_axioms(d, coarse)
    if violation is not None:
        yield violation.witnesses


def _first_hit(inst, clause, grid: _Grid, stream: np.ndarray) -> tuple[Point, ...] | None:
    """The first candidate of the stream whose clause holds, decided CHUNK rows at a time."""
    for start in range(0, len(stream), CHUNK):
        rows = stream[start:start + CHUNK]
        ok = clause.holds(inst, *(grid.scaled[column].columns() for column in rows.T))[0]
        hits = np.flatnonzero(ok)
        if len(hits):
            return tuple(tuple(grid.scaled[k, i] for i in range(3)) for k in rows[hits[0]])
    return None


def solve_instance(inst: ProblemInstance, resolution: Fraction = Fraction(1, 16)) -> Solution | None:
    """First grid candidate, in kind priority order, whose clause holds."""
    grid = _grid(resolution)
    for kind in accepted_kinds(inst):
        clause = CLAUSES[(inst.namespace, kind)]
        if kind == "Oe":
            candidates = _metric_violations(inst.d, itertools.product(_axis(resolution), repeat=3))
            hit = next((w for w in candidates if clause.holds(inst, *w)[0]), None)
        else:
            hit = _first_hit(inst, clause, grid, grid.streams[clause.witnesses[0]])
        if hit is not None:
            sol = Solution(kind, hit)
            return sol if verify(inst, sol) else None
    return None


def _solve_instance_reference(
    inst: ProblemInstance, resolution: Fraction = Fraction(1, 16)
) -> Solution | None:
    """The scalar scan ``solve_instance`` must equal (tests only): one candidate at a time."""
    fine = grid_points(resolution)
    pairs = functools.cache(lambda: list(_candidate_pairs(resolution)))
    # candidate streams by witness count; pairs are built only if a pair kind is reached
    streams = {
        1: lambda: ((x,) for x in fine),
        2: pairs,
        4: lambda: _quads(pairs()),
    }
    for kind in accepted_kinds(inst):
        clause = CLAUSES[(inst.namespace, kind)]
        stream = _metric_violations(inst.d, fine) if kind == "Oe" else streams[clause.witnesses[0]]()
        for witnesses in stream:
            if clause.holds(inst, *witnesses)[0]:
                sol = Solution(kind, witnesses)
                return sol if verify(inst, sol) else None
    return None
