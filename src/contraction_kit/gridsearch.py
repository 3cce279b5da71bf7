"""Exhaustive desk-scale grid solver used to exercise reduction round-trips.

Not a general CLS solver: it scans a rational grid over [0,1]^3 (default
resolution 1/16) for each accepted solution kind in a fixed priority order
(fixed-point-style witnesses first), and checks violation clauses over a
coarser pair/quad budget.  Candidates are decided by the verifier's own
clause predicates (``cls.CLAUSES``), every hit is re-verified (one the
verifier rejects raises AssertionError), and the scan order is deterministic.

Each candidate stream is decided ``CHUNK`` candidates at a time on the exact
batch kernel.  Per resolution, each coordinate a candidate uses is held once,
in a table over one integer denominator (the axis, then the pair points' few
off-axis coordinates), and each stream (the fine grid, the neighbour and
coarse pairs, the Od quads) is an array of 2-byte index triples into it.  A
chunk gathers each witness's point column from the table and runs the
clause's predicate on it; the instance's circuits are called on point
columns, their one batch entry (row by row when a batch passes the bit
budget).  The mask's first true row in stream order is the hit, the candidate
the scalar scan ``_solve_instance_reference`` stops at; only the hit's
witnesses are read back as Fractions.  Oe's scan is decided the same way: a
fine point fails when d(x, x) is nonzero, CHUNK points at a time, and one d
call fills the coarse points' matrix, whose 2 x 2 blocks
``metrics.metric_failure_mask`` decides in pair order and whose triangle
inequality ``metrics.triangle_mask`` decides; ``check_metric_axioms`` only
words a triangle failure.
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
from .metrics import check_metric_axioms, metric_failure_mask, triangle_mask

COARSE_RESOLUTION = Fraction(1, 4)
MAX_PAIRS = 4000
MAX_QUADS = 4000
MAX_TRIANGLE_POINTS = 24
CHUNK = 64  # candidates decided per batch
# most steps per axis; it keeps --grid past 260 steps an input error (exit 2),
# and a solve at 260 steps peaks near 130 MB
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
    """A resolution's candidate streams as index triples into one coordinate table.

    ``values`` holds each coordinate a candidate uses once, over Python ints:
    the axis, then the pair points' off-axis coordinates in the order they
    are first named.  ``streams[w]`` holds the w-witness candidates in scan
    order, one ``(w, 3)`` block of indices into ``values`` per candidate.
    """

    values: Scaled
    streams: dict[int, np.ndarray]


@functools.lru_cache(maxsize=1)
def _grid(resolution: Fraction) -> _Grid:
    """The coordinate table and the fine, pair and quad streams over it."""
    axis = _axis(resolution)
    place = {q: k for k, q in enumerate(axis)}
    coords = (q for pair in _candidate_pairs(resolution) for pt in pair for q in pt)
    pairs = np.fromiter((place.setdefault(q, len(place)) for q in coords), dtype=np.uint16).reshape(-1, 2, 3)
    distinct = pairs[(pairs[:, 0] != pairs[:, 1]).any(axis=1)]  # triples are equal iff the points are
    # the first MAX_QUADS of itertools.product(distinct, distinct), as _quads takes them
    k = np.arange(min(MAX_QUADS, len(distinct) ** 2))
    quads = np.concatenate([distinct[k // len(distinct)], distinct[k % len(distinct)]], axis=1)
    # each fine point's axis places, in itertools.product order
    fine = np.indices((len(axis),) * 3, dtype=np.uint16).reshape(3, -1).T[:, None]
    return _Grid(Scaled.of(list(place)).wide(), {1: fine, 2: pairs, 4: quads})


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


def _coarse_violation(d) -> tuple[Point, ...] | None:
    """The first of ``_metric_violations``'s candidates after the fine points, decided on one matrix.

    One d call on the coarse points' ordered pairs fills their matrix; its
    2 x 2 blocks, diagonals included, are the coarse pairs in
    ``itertools.combinations`` order.  If every pair passes, the matrix is a
    semimetric and only the triangle inequality can fail it.
    """
    coarse = grid_points(COARSE_RESOLUTION)[:MAX_TRIANGLE_POINTS]
    points = Scaled.of(coarse)
    x, y = np.indices((len(coarse),) * 2).reshape(2, -1)
    dist = d(points[x].columns(), points[y].columns())
    matrix = dist.num.reshape(len(coarse), len(coarse))
    pairs = np.array(list(itertools.combinations(range(len(coarse)), 2)))
    failed = metric_failure_mask(matrix[pairs[:, :, None], pairs[:, None, :]], ~np.eye(2, dtype=bool))
    if failed.any():
        return tuple(coarse[i] for i in pairs[failed.argmax()])
    if triangle_mask(matrix):
        return None
    return check_metric_axioms(Scaled(matrix, dist.den).fractions(), coarse).witnesses


def _first_hit(holds, grid: _Grid, stream: np.ndarray) -> tuple[Point, ...] | None:
    """The first candidate of the stream that ``holds`` flags, decided CHUNK rows at a time.

    ``holds`` takes one point column per witness and gives a boolean mask.
    """
    for start in range(0, len(stream), CHUNK):
        rows = stream[start:start + CHUNK]
        hits = np.flatnonzero(holds(*(grid.values[witness].columns() for witness in rows.swapaxes(0, 1))))
        if len(hits):
            return tuple(tuple(grid.values[int(i)] for i in triple) for triple in rows[hits[0]])
    return None


def _verified(inst: ProblemInstance, sol: Solution) -> Solution:
    """``sol``, which the verifier must accept: a hit it rejects is a solver bug, not a miss."""
    if not (verdict := verify(inst, sol)):
        raise AssertionError(f"the verifier rejects the grid's {sol.kind} hit: {verdict.reason}")
    return sol


def solve_instance(inst: ProblemInstance, resolution: Fraction = Fraction(1, 16)) -> Solution | None:
    """First grid candidate, in kind priority order, whose clause holds."""
    grid = _grid(resolution)
    for kind in accepted_kinds(inst):
        clause = CLAUSES[(inst.namespace, kind)]
        if kind == "Oe":  # a fine point's 1 x 1 matrix fails exactly when its entry is nonzero
            hit = _first_hit(lambda x: inst.d(x, x).num != 0, grid, grid.streams[1])
            hit = hit or _coarse_violation(inst.d)
        else:
            hit = _first_hit(lambda *ws: clause.holds(inst, *ws)[0], grid, grid.streams[clause.witnesses[0]])
        if hit is not None:
            return _verified(inst, Solution(kind, hit))
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
                return _verified(inst, Solution(kind, witnesses))
    return None
