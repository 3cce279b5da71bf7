"""The chunked grid solver against its scalar reference, and the columns it decides on.

``solve_instance`` decides each candidate stream CHUNK rows at a time on the
batch kernel; ``_solve_instance_reference`` is the scalar scan it replaced.
Every case requires the two to return equal solutions, or None on both sides.
"""

import operator
import tracemalloc
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import banach_corpus, cls_local_corpus
from test_golden import distance, solve_instances
from contraction_kit.circuit import CircuitBuilder, InputError, Scaled, _Program
from contraction_kit.cls import BanachInstance, CLSLocalInstance, ContractionMapInstance
from contraction_kit import cls, gridsearch, metrics
from contraction_kit.gridsearch import (
    CHUNK,
    COARSE_RESOLUTION,
    MAX_GRID_STEPS,
    _axis,
    _candidate_pairs,
    _grid,
    _quads,
    _solve_instance_reference,
    grid_points,
    solve_instance,
)
from contraction_kit.library import (
    affine_contraction_circuit,
    coordinate_potential_circuit,
    l1_distance_circuit,
    scaling_map_circuit,
    weighted_l1_distance_circuit,
)
from contraction_kit.reduce import reduce_cls_local_to_banach

SIXTEENTH = F(1, 16)


def assert_same_solution(inst, resolution=SIXTEENTH):
    got = solve_instance(inst, resolution)
    assert got == _solve_instance_reference(inst, resolution)
    return got


def affine(scale, shift):
    """x |-> scale * x + shift, coordinate by coordinate."""
    b = CircuitBuilder()
    xs = b.inputs(3)
    return b.build([b.add(b.mul(x, b.const(F(scale))), b.const(F(s))) for x, s in zip(xs, shift)])


def constant_map(point):
    return affine_contraction_circuit(F(0), point)


@pytest.mark.parametrize(
    "name, inst, grid", solve_instances(), ids=[case[0] for case in solve_instances()]
)
def test_golden_solve_cases_match_reference(name, inst, grid):
    assert_same_solution(inst, F(grid) if grid else SIXTEENTH)


@pytest.mark.parametrize("index", range(len(cls_local_corpus())))
def test_round_trip_targets_match_reference(index):
    # the golden cases reduce with half_eps; criterion 6's round trip without it
    produced = reduce_cls_local_to_banach(cls_local_corpus()[index]).produced
    assert assert_same_solution(produced) is not None


def kind_cases():
    """(expected kind, instance), each built so that the kind is the first to hold."""
    away = affine(F(1, 2), (1, 0, 0))  # fixed point at x1 = 2, off the cube
    return [
        ("CO1", cls_local_corpus()[0]),
        ("CO2", CLSLocalInstance(
            affine(2, (-2, 0, 0)), coordinate_potential_circuit(0), F(1, 4), F(1))),
        ("CO3", CLSLocalInstance(
            affine(F(1, 2), (-1, 0, 0)), coordinate_potential_circuit(0), F(1, 4), F(1, 2))),
        ("Oa", ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 8), F(1), F(3, 4))),
        ("Ob", ContractionMapInstance(
            affine_contraction_circuit(F(1, 2), (F(1, 32),) * 3), F(1, 64), F(1), F(1, 4))),
        ("Oc", ContractionMapInstance(away, F(1, 8), F(1, 4), F(3, 4))),
        ("Oa", banach_corpus()[0]),
        ("Ob", BanachInstance(away, l1_distance_circuit(), F(1, 4), F(1), F(1, 4))),
        ("Oc", BanachInstance(away, l1_distance_circuit(), F(1, 4), F(1, 4), F(1, 2))),
        ("Od", BanachInstance(away, l1_distance_circuit(F(2)), F(1, 4), F(1), F(1, 2))),
    ]


@pytest.mark.parametrize("kind, inst", kind_cases(), ids=lambda v: getattr(v, "tag", v))
def test_every_kind_matches_reference(kind, inst):
    assert assert_same_solution(inst).kind == kind


def early_cases():
    """The kind cases whose first hit comes early.  The rest make the reference
    scan the whole fine grid one point at a time, then whole pair streams."""
    return [case for case in kind_cases() if case[0] in ("CO1", "CO2", "Oa", "Ob")]


@pytest.mark.parametrize("grid", [F(1, 4), F(2, 5)], ids=str)
@pytest.mark.parametrize("kind, inst", early_cases(), ids=lambda v: getattr(v, "tag", v))
def test_coarser_grids_match_reference(grid, kind, inst):
    assert assert_same_solution(inst, grid).kind == kind


# at 2/5 the 1/4 coarse points fall off the axis, so pair and quad rows read
# off-axis entries of the coordinate table
@pytest.mark.parametrize(
    "kind, inst", [case for case in kind_cases() if case[0] in ("CO3", "Oc", "Od")],
    ids=lambda v: getattr(v, "tag", v),
)
def test_off_axis_candidates_match_reference(kind, inst):
    assert assert_same_solution(inst, F(2, 5)).kind == kind


# a pair kind on the 1/32 grid comes after 35,937 one-witness candidates
@pytest.mark.parametrize(
    "kind, inst", [case for case in early_cases() if case[0] in ("CO1", "Oa")],
    ids=lambda v: getattr(v, "tag", v),
)
def test_finer_grid_matches_reference(kind, inst):
    assert assert_same_solution(inst, F(1, 32)).kind == kind


@pytest.mark.parametrize("grid", [SIXTEENTH, F(1, 3), F(2, 5)], ids=str)
def test_index_streams_list_the_reference_candidates(grid):
    table = _grid(grid)
    pairs = list(_candidate_pairs(grid))
    fine = grid_points(grid)

    def listed(width):  # each row's points read from the coordinate table, entry by entry
        return [tuple(tuple(table.values[int(i)] for i in triple) for triple in row) for row in table.streams[width]]

    assert listed(1) == [(x,) for x in fine]
    assert listed(2) == pairs
    assert listed(4) == list(_quads(pairs))
    # the table holds the axis, then the pair points' off-axis coordinates as the pairs name them
    axis = _axis(grid)
    off_axis = dict.fromkeys(q for pair in pairs for pt in pair for q in pt if q not in axis)
    assert [F(q, table.values.den) for q in table.values.num.tolist()] == axis + list(off_axis)


def test_grid_holds_no_block_per_fine_point():
    # the fine stream takes 6 bytes a point, 6.2 MB at 101^3 points; three object
    # references a point would take 24 MB more
    _grid.cache_clear()
    tracemalloc.start()
    try:
        _grid(F(1, 100))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8_000_000


def test_grid_cache_keeps_only_the_last_resolution():
    inst = banach_corpus()[0]
    solve_instance(inst, F(1, 20))
    solve_instance(inst, SIXTEENTH)
    assert _grid.cache_info().currsize == 1


@pytest.mark.parametrize("kind, inst", [case for case in kind_cases() if case[0] in ("CO1", "Oa", "Od")],
                         ids=lambda v: getattr(v, "tag", v))
def test_solve_builds_no_fine_point_tuple(kind, inst, monkeypatch):
    # the chunked solver reads the fine grid as axis places into its coordinate
    # table; the coarse pairs still come from grid_points
    resolution = F(1, 20)
    want = _solve_instance_reference(inst, resolution)
    coarse_only = grid_points

    def refuse(res):
        if res != COARSE_RESOLUTION:
            raise AssertionError(f"grid_points({res}) called")
        return coarse_only(res)

    monkeypatch.setattr(gridsearch, "grid_points", refuse)
    _grid.cache_clear()
    got = solve_instance(inst, resolution)
    assert got.kind == kind and got == want


def lopsided_third_axis():
    """lopsided_l1 without its first two axes: 0 between points apart only off the third."""
    def build(b, xs, ys):
        zero = b.const(0)
        return b.sum([b.mul(b.max(b.sub(xs[2], ys[2]), zero), b.const(2)), b.max(b.sub(ys[2], xs[2]), zero)])
    return distance(build)


# the instances that reach Oe, by the witness count of their hit: the golden
# ones, and one whose first failing coarse pair is asymmetric while a scan of
# the coarse points' whole matrix would name a later pair at 0 first
OE_WITNESSES = {"oe-singleton": 1, "oe-pair": 2, "oe-triangle": 3, "no-solution": None, "pair-order": 2}
OE_INSTANCES = {name: inst for name, inst, _ in solve_instances() if name in OE_WITNESSES}
OE_INSTANCES["pair-order"] = BanachInstance(
    constant_map((F(1, 32),) * 3), lopsided_third_axis(), F(1, 1000), F(4), F(1, 2))


# at 2/7 the coarse points, multiples of 1/4, fall off the fine grid
@pytest.mark.parametrize("grid", [SIXTEENTH, F(2, 7)], ids=str)
@pytest.mark.parametrize("name", OE_WITNESSES)
def test_batched_oe_scan_matches_reference(name, grid):
    got = assert_same_solution(OE_INSTANCES[name], grid)
    assert (None if got is None else len(got.witnesses)) == OE_WITNESSES[name]
    assert got is None or got.kind == "Oe"


@pytest.mark.parametrize("name", ["oe-pair", "oe-triangle"])
def test_oe_scan_words_only_its_hit(name, monkeypatch):
    # one call per candidate would make 4,915 on oe-pair (4,913 grid points, the
    # hit and verify); the batched scan words only a triangle failure, and verify
    # replays the hit
    calls, check = [], metrics.check_metric_axioms

    def spy(d, points):
        calls.append(len(points))
        return check(d, points)

    monkeypatch.setattr(gridsearch, "check_metric_axioms", spy)
    monkeypatch.setattr(cls, "check_metric_axioms", spy)
    assert solve_instance(OE_INSTANCES[name]).kind == "Oe"
    assert len(calls) <= 2


@pytest.mark.parametrize("solve", [solve_instance, _solve_instance_reference], ids=["chunked", "reference"])
@pytest.mark.parametrize("kind", ["Oa", "Oe"])
def test_a_hit_the_verifier_rejects_raises(kind, solve, monkeypatch):
    # a hit the clause predicates found but the verifier rejects is a solver bug,
    # which must not read as "no solution found" (exit 1)
    insts = {"Oa": ContractionMapInstance(constant_map((F(1, 4),) * 3), F(1, 1000), F(1), F(1, 2)),
             "Oe": OE_INSTANCES["oe-pair"]}
    monkeypatch.setattr(gridsearch, "verify", lambda inst, sol: cls.Verdict(False, sol.kind, "patched"))
    with pytest.raises(AssertionError, match=f"rejects the grid's {kind} hit: patched$"):
        solve(insts[kind])


@pytest.mark.parametrize("position", [0, CHUNK - 1, CHUNK, CHUNK + 1])
def test_first_hit_at_chunk_edges(position):
    target = grid_points(SIXTEENTH)[position]
    # only the target itself is within eps of the constant map's value
    exact = ContractionMapInstance(constant_map(target), F(1, 1000), F(1), F(1, 2))
    assert assert_same_solution(exact).witnesses == (target,)
    # weighted so that the grid point before the target, a step down in x3,
    # is the first one exactly eps away
    steep = weighted_l1_distance_circuit((F(4), F(2), F(1)))
    boundary = BanachInstance(constant_map(target), steep, SIXTEENTH, F(1), F(1, 2))
    want = grid_points(SIXTEENTH)[max(position - 1, 0)]
    assert assert_same_solution(boundary).witnesses == (want,)


def test_over_budget_chunks_run_row_by_row(monkeypatch):
    # a 2-bit budget leaves D at most 1 bit, and every batch on the 1/4 grid
    # starts from D = 4, so its chunks run row by row; a batch fed by values
    # brought to their own lcm may still fit
    monkeypatch.setattr("contraction_kit.circuit.DEN_BIT_BUDGET", 2)
    batches = []
    run_many = _Program.run_many

    def spy(self, columns, d, size):
        batches.append(run_many(self, columns, d, size))
        return batches[-1]

    monkeypatch.setattr(_Program, "run_many", spy)
    insts = [cls_local_corpus()[3], banach_corpus()[1],
             reduce_cls_local_to_banach(cls_local_corpus()[0], half_eps=True).produced]
    # the Fraction interpreter runs every row here, on both sides
    insts += [inst for _, inst in early_cases()]
    for inst in insts:
        assert_same_solution(inst, F(1, 4))
    assert None in batches


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def column(values, extra=1):
    """values as a Scaled column over extra times the lcm of their denominators."""
    den = lcm(*(q.denominator for q in values)) * extra
    return Scaled(np.array([int(q * den) for q in values], dtype=object), den)


def as_fractions(col):
    return [F(n, col.den) for n in col.num]


COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(RATIONALS, min_size=n, max_size=n), st.lists(RATIONALS, min_size=n, max_size=n))),
    RATIONALS,
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_scaled_column_matches_fraction_arithmetic(pair, q, extra, power):
    xs, ys = pair
    a, b = column(xs, extra), column(ys)
    elementwise = [
        (a + b, [x + y for x, y in zip(xs, ys)]),
        (a - b, [x - y for x, y in zip(xs, ys)]),
        (a + q, [x + q for x in xs]),
        (q + a, [q + x for x in xs]),
        (a - q, [x - q for x in xs]),
        (q - a, [q - x for x in xs]),
        (abs(a - b), [abs(x - y) for x, y in zip(xs, ys)]),
        (a * q, [x * q for x in xs]),
        (q * a, [q * x for x in xs]),
        (a ** power, [x ** power for x in xs]),
        (sum((a, b), F(0)), [x + y for x, y in zip(xs, ys)]),
    ]
    for got, want in elementwise:
        assert as_fractions(got) == want
    for op in COMPARISONS:
        assert op(a, b).tolist() == [op(x, y) for x, y in zip(xs, ys)]
        assert op(a, q).tolist() == [op(x, q) for x in xs]
        assert op(q, a).tolist() == [op(q, x) for x in xs]


def test_grid_past_the_step_budget_is_an_input_error():
    assert len(_axis(F(1, MAX_GRID_STEPS))) == MAX_GRID_STEPS + 1
    assert len(_axis(F(2, 2 * MAX_GRID_STEPS + 1))) == MAX_GRID_STEPS + 2  # the axis ends at 1
    for resolution in (F(1, MAX_GRID_STEPS + 1), F(1, 10**100)):
        with pytest.raises(InputError, match="^--grid .* steps per axis, above the budget"):
            _axis(resolution)
