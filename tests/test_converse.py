import copy
import dataclasses
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_selfmap
from contraction_kit import converse, metrics
from contraction_kit.circuit import InputError, Scaled, format_fraction
from contraction_kit.cli import main
from contraction_kit.converse import (
    CertificateError,
    FiniteSelfMap,
    SelfMapError,
    _certify,
    _compute_rho_reference,
    _first_hit,
    _geodesic_closure_reference,
    compute_levels,
    compute_orbit_metric,
    compute_rho,
    find_invariant_neighborhood,
    geodesic_closure,
    parse_selfmap,
    synthesize,
)

CERTIFICATE_PINS = Path(__file__).parent / "certificate_pins.json"


def chain_selfmap(distances=(1, 1, 1)) -> FiniteSelfMap:
    """a -> b -> c -> star with consecutive gaps `distances` on a line."""
    n = len(distances) + 1
    pos = [F(0)]
    for gap in distances:
        pos.append(pos[-1] + F(gap))
    dist = [[abs(pos[i] - pos[j]) for j in range(n)] for i in range(n)]
    labels = [f"p{i}" for i in range(n)]
    coords = [(p, F(0), F(0)) for p in pos]
    fmap = [min(i + 1, n - 1) for i in range(n)]
    return FiniteSelfMap(labels, coords, dist, fmap, n - 1)


def shortest_simple_path_oracle(weights):
    """Exhaustive DFS over simple paths with pruning; independent of the
    dynamic-programming closure."""
    n = len(weights)
    best = [[None] * n for _ in range(n)]

    def dfs(current, target, visited, length, cap):
        if cap is not None and length >= cap:
            return cap
        if current == target:
            return length if cap is None or length < cap else cap
        for nxt in range(n):
            if nxt not in visited:
                visited.add(nxt)
                cap = dfs(nxt, target, visited, length + weights[current][nxt], cap)
                visited.remove(nxt)
        return cap

    for i in range(n):
        for j in range(n):
            if i == j:
                best[i][j] = F(0)
            else:
                best[i][j] = dfs(i, j, {i}, F(0), None)
    return best


def closure_of_fractions(rho):
    """geodesic_closure on a Fraction matrix, through its scaled-integer form."""
    return geodesic_closure(Scaled.of(rho)).fractions()


def certify_fractions(m, c, eps, w, d_m, d_c):
    """_certify on Fraction matrices d_M and d_c, through their scaled-integer form."""
    return _certify(m, c, eps, w, Scaled.of(d_m), Scaled.of(d_c))


def test_neighborhood_singleton_when_eps_small():
    m = chain_selfmap((1, 1))  # 3 points, unit gaps
    assert find_invariant_neighborhood(m, F(1, 2)) == [m.fixed_point]


def test_neighborhood_whole_space_when_eps_covers_diameter():
    m = chain_selfmap((1, 1))
    assert find_invariant_neighborhood(m, F(2)) == [0, 1, 2]


def test_neighborhood_respects_diameter_not_just_radius():
    # two points at distance 1: with eps = 1 the whole space qualifies
    m = chain_selfmap((1,))
    assert find_invariant_neighborhood(m, F(1)) == [0, 1]


def test_neighborhood_that_fails_its_postcondition_raises():
    # U = {x*, 1}, and f sends 1 far away, so W is {x*} alone
    near, far = F(1, 10), F(5)
    dist = [[F(0), near, far], [near, F(0), far - near], [far, far - near, F(0)]]
    m = FiniteSelfMap(["s", "a", "b"], [(F(0),)] * 3, dist, [0, 2, 0], 0)
    assert find_invariant_neighborhood(m, F(1, 5)) == [0]
    # an iterate table cut to its first row makes W = U, which f leaves
    object.__setattr__(m, "iterates", m.iterates[:1])
    with pytest.raises(CertificateError, match=r"W = \[0, 1\] is not"):
        find_invariant_neighborhood(m, F(1, 5))


def test_neighborhood_invariance_and_diameter_on_random_maps():
    rng = random.Random(5)
    for _ in range(20):
        m = random_selfmap(rng)
        for eps in (F(1, 8), F(1, 2), F(3)):
            w = find_invariant_neighborhood(m, eps)
            assert m.fixed_point in w
            assert all(m.map[x] in w for x in w)
            assert all(m.d(a, b) <= eps for a in w for b in w)


def test_levels_of_unit_chain():
    m = chain_selfmap((1, 1, 1))
    w = find_invariant_neighborhood(m, F(1, 2))
    assert w == [3]
    levels = compute_levels(m, w)
    assert levels[:3] == [-3, -2, -1]
    assert math.isinf(levels[3])


def test_levels_with_two_point_neighborhood():
    # eps = 1 admits W = {c, star}; c sits in K0 but not in f(W) = {star},
    # b is one step from entering, a two steps
    m = chain_selfmap((1, 1, 1))
    w = find_invariant_neighborhood(m, F(1))
    assert w == [2, 3]
    levels = compute_levels(m, w)
    assert levels[2] == 0
    assert levels[1] == -1
    assert levels[0] == -2


def test_orbit_metric_examples():
    m = chain_selfmap((1, 2, 1))
    d_m = compute_orbit_metric(m).fractions()
    for i in range(m.size):
        assert d_m[i][i] == 0
    # d_M dominates d and f is non-expanding
    for i in range(m.size):
        for j in range(m.size):
            assert d_m[i][j] >= m.d(i, j)
            assert d_m[m.map[i]][m.map[j]] <= d_m[i][j]
    # sup over the orbit of (star, b): distances to the fixed point shrink along orbits
    fp = m.fixed_point
    assert d_m[fp][1] == max(m.d(fp, 1), m.d(fp, m.map[1]), m.d(fp, m.map[m.map[1]]))


def test_orbit_metric_constant_map_equals_base():
    n = 4
    coords = [(F(i), F(0), F(0)) for i in range(n)]
    dist = [[abs(F(i) - F(j)) for j in range(n)] for i in range(n)]
    m = FiniteSelfMap([f"p{i}" for i in range(n)], coords, dist, [3, 3, 3, 3], 3)
    assert compute_orbit_metric(m).fractions() == dist


def orbit_metric_brute_force(m):
    """max over t < n of d(f^[t](i), f^[t](j)), iterating f from scratch for every t."""
    def image(i, t):
        for _ in range(t):
            i = m.map[i]
        return i

    n = m.size
    return [[max(m.d(image(i, t), image(j, t)) for t in range(n)) for j in range(n)]
            for i in range(n)]


def orbit_walk(m, i):
    """i, f(i), ..., ending at the fixed point, one step of ``m.map`` at a time."""
    out = [i]
    while out[-1] != m.fixed_point:
        out.append(m.map[out[-1]])
    return out


def set_walk_construction(m, eps):
    """W and the levels by set images and list orbits, on the Fraction metric.

    U is grown ball by ball around x* while its diameter stays <= eps; the
    rest follows ``find_invariant_neighborhood`` and ``compute_levels`` step
    for step, one point and one image set K_t at a time.
    """
    fp, points = m.fixed_point, range(m.size)
    u = {fp}
    for r in sorted({m.d(fp, x) for x in points}):
        ball = {x for x in points if m.d(fp, x) <= r}
        if any(m.d(a, b) > eps for a in ball for b in ball):
            break
        u = ball

    def image(s):
        return {m.map[x] for x in s}

    k, img = 1, image(u)
    while not img <= u:
        k, img = k + 1, image(img)
    w = {x for x in points if u.issuperset(orbit_walk(m, x)[:k])}
    if fp not in w or not image(w) <= w or any(m.d(a, b) > eps for a in w for b in w):
        w = {fp}
    k_sets = [w]
    while k_sets[-1] != {fp}:
        k_sets.append(image(k_sets[-1]))
    levels = [
        math.inf if x == fp
        else max(t for t, ks in enumerate(k_sets) if x in ks) if x in w
        else -next(t for t, y in enumerate(orbit_walk(m, x)) if y in w)
        for x in points
    ]
    return sorted(w), levels


def one_point_selfmap() -> FiniteSelfMap:
    return FiniteSelfMap(["star"], [(F(0), F(0), F(0))], [[F(0)]], [0], 0)


def test_iterate_table_stages_match_set_walks():
    rng = random.Random(22)
    chain = chain_selfmap((1,) * 11)
    # a 12-point chain is the longest table there is: 12 rows of 12 points
    assert chain.iterates.shape == (12, 12)
    assert one_point_selfmap().iterates.tolist() == [[0]]
    for m in [one_point_selfmap(), chain] + [random_selfmap(rng) for _ in range(40)]:
        orbits = [orbit_walk(m, i) for i in range(m.size)]
        assert len(m.iterates) == max(map(len, orbits))
        assert [m.orbit(i) for i in range(m.size)] == orbits
        assert all(type(x) is int for i in range(m.size) for x in m.orbit(i))
        assert compute_orbit_metric(m).fractions() == orbit_metric_brute_force(m)
        for eps in (F(1, 8), F(1, 2), F(1), F(3)):
            w = find_invariant_neighborhood(m, eps)
            levels = compute_levels(m, w)
            assert (w, levels) == set_walk_construction(m, eps)
            assert levels[m.fixed_point] is math.inf
            assert all(type(v) is int for i, v in enumerate(levels) if i != m.fixed_point)
            assert all(type(x) is int for x in w)


@pytest.mark.parametrize("fmap, stuck", [([1, 0, 3, 2, 4], 0), ([4, 2, 1, 4, 4], 1)])
def test_load_error_names_the_smallest_stuck_index(fmap, stuck):
    # [1, 0, 3, 2, 4] holds two 2-cycles, each away from the fixed point 4
    dist = [[abs(F(i - j)) for j in range(5)] for i in range(5)]
    coords = [(F(i), F(0), F(0)) for i in range(5)]
    with pytest.raises(SelfMapError, match=f"orbit of index {stuck} does not reach"):
        FiniteSelfMap([f"p{i}" for i in range(5)], coords, dist, fmap, 4)


@pytest.mark.parametrize("scale", [F(1), F(2**70, 3)])  # 2^70/3 leaves int64
@given(st.integers(1, 8), st.data())
@settings(max_examples=30, deadline=None)
def test_orbit_metric_matches_brute_force(scale, n, data):
    pos = data.draw(st.lists(st.fractions(0, 4, max_denominator=8), min_size=n, max_size=n,
                             unique=True))
    dist = [[abs(a - b) * scale for b in pos] for a in pos]
    fixed = data.draw(st.integers(0, n - 1))
    fmap = [fixed] * n
    reached = [fixed]
    for i in data.draw(st.permutations([i for i in range(n) if i != fixed])):
        fmap[i] = data.draw(st.sampled_from(reached))
        reached.append(i)
    coords = [(p, F(0), F(0)) for p in pos]
    m = FiniteSelfMap([f"p{i}" for i in range(n)], coords, dist, fmap, fixed)
    d_m = compute_orbit_metric(m).fractions()
    assert d_m == orbit_metric_brute_force(m)
    assert all(isinstance(v, F) for row in d_m for v in row)


def test_rho_examples():
    levels = [-2, -1, math.inf]
    d_m = [[F(0), F(3), F(4)], [F(3), F(0), F(2)], [F(4), F(2), F(0)]]
    rho = compute_rho(Scaled.of(d_m), levels, F(1, 2)).fractions()
    assert rho[0][0] == 0
    assert rho[0][1] == 12  # c^-2 * 3
    assert rho[1][2] == 4   # kappa = min(-1, inf) = -1
    same_level = compute_rho(Scaled.of(d_m), [0, 0, math.inf], F(1, 2)).fractions()
    assert same_level[0][1] == d_m[0][1]  # c^0 = 1


@pytest.mark.parametrize("huge", [False, True])
@pytest.mark.parametrize("level_range", [(-5, 0), (-5, 5), (0, 5)])
@given(st.integers(1, 8), st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]), st.data())
@settings(max_examples=25, deadline=None)
def test_compute_rho_matches_reference(huge, level_range, n, c, data):
    # entries of at least 2^62 leave no int64 headroom and force Python ints
    num = st.integers(12 * 2**62, 2**70) if huge else st.integers(1, 64)
    d_m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d_m[i][j] = d_m[j][i] = F(data.draw(num), data.draw(st.integers(1, 12)))
    levels = data.draw(st.lists(st.integers(*level_range), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # the fixed point's level
        levels[data.draw(st.integers(0, n - 1))] = math.inf
    rho = compute_rho(Scaled.of(d_m), levels, c)
    if n > 1:
        assert rho.num.dtype == (object if huge else np.int64)
    assert rho.fractions() == _compute_rho_reference(d_m, levels, c)


@pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(9, 10)])
@pytest.mark.parametrize("level", [math.inf, -3, 0, 4])
def test_compute_rho_single_point(c, level):
    rho = compute_rho(Scaled.of([[F(0)]]), [level], c)
    assert rho.fractions() == _compute_rho_reference([[F(0)]], [level], c) == [[0]]


def test_geodesic_closure_direct_and_shortcut():
    rho = [[F(0), F(10), F(1)], [F(10), F(0), F(1)], [F(1), F(1), F(0)]]
    d_c = closure_of_fractions(rho)
    assert d_c[0][1] == 2
    metric_already = [[F(0), F(1)], [F(1), F(0)]]
    assert closure_of_fractions(metric_already) == metric_already


def test_geodesic_closure_validates_input():
    cases = [
        ([[F(1)]], "IDENTITY: d(0,0) = 1 != 0"),
        ([[F(0), F(1)], [F(2), F(0)]], "SYMMETRY: d(0,1) != d(1,0)"),
        ([[F(0), F(0)], [F(0), F(0)]], "IDENTITY: d(0,1) = 0 for distinct indices"),
        # several axioms fail: both closures name the first in the scan of _first_failure
        ([[F(0), F(-1), F(2)], [F(-1), F(0), F(1)], [F(3), F(1), F(5)]],
         "NONNEG: d(0,1) = -1 < 0"),
    ]
    for rho, message in cases:
        for closure in (closure_of_fractions, _geodesic_closure_reference):
            with pytest.raises(ValueError) as info:
                closure(rho)
            assert str(info.value) == f"rho is not a semimetric: {message}"


@given(st.integers(1, 5), st.booleans(), st.booleans(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_both_closures_refuse_the_same_rho_in_the_same_words(n, zero_diagonal, positive,
                                                            symmetric, data):
    # each semimetric property can be forced; with all three both closures close rho
    entries = data.draw(st.lists(st.integers(-1, 3), min_size=n * n, max_size=n * n))
    rho = [[F(v, 2) for v in entries[i * n : (i + 1) * n]] for i in range(n)]
    for i in range(n):
        if zero_diagonal:
            rho[i][i] = F(0)
        if positive:
            rho[i] = [v if j == i else abs(v) + F(1, 2) for j, v in enumerate(rho[i])]
    if symmetric:
        for i in range(n):
            for j in range(i):
                rho[j][i] = rho[i][j]
    outcomes = []
    for closure in (closure_of_fractions, _geodesic_closure_reference):
        try:
            outcomes.append(closure(rho))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], list) or not (zero_diagonal and positive and symmetric)


@pytest.mark.parametrize("huge", [False, True])
@given(st.integers(1, 12), st.data())
@settings(max_examples=30, deadline=None)
def test_geodesic_closure_matches_reference(huge, n, data):
    # entries of at least 2^62 leave no int64 headroom and force Python ints
    num = st.integers(12 * 2**62, 2**70) if huge else st.integers(1, 64)
    weights = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = F(data.draw(num), data.draw(st.integers(1, 12)))
            weights[i][j] = weights[j][i] = w
    # the same entries as a 1-D column and a (k, 3) block of points read back too, as does 0 x 0
    entries = [w for row in weights for w in row]
    points = [entries[i : i + 3] for i in range(0, len(entries) - 2, 3)]
    for values in (entries, points, []):
        assert Scaled.of(values).fractions() == values
    if n > 1:
        expected = object if huge else np.int64
        assert Scaled.of(weights).num.dtype == expected
        assert Scaled.of(entries).num.dtype == Scaled.of(points).num.dtype == expected
    closure = closure_of_fractions(weights)
    assert closure == _geodesic_closure_reference(weights)
    assert all(isinstance(v, F) for row in closure for v in row)


@given(st.integers(2, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_geodesic_matches_path_oracle(n, data):
    weights = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = data.draw(st.fractions(min_value="1/8", max_value=8, max_denominator=16))
            weights[i][j] = weights[j][i] = w
    closure = closure_of_fractions(weights)
    assert closure == shortest_simple_path_oracle(weights)
    assert closure_of_fractions(closure) == closure


def test_synthesize_single_point():
    m = FiniteSelfMap(["star"], [(F(0), F(0), F(0))], [[F(0)]], [0], 0)
    s = synthesize(m, F(1, 2), F(1))
    assert s.d_c == [[F(0)]]
    assert s.certified


def test_synthesize_chain_certificate_and_oracle():
    m = chain_selfmap((1, 1, 1))
    s = synthesize(m, F(1, 2), F(1))
    assert s.certified
    assert s.d_c == shortest_simple_path_oracle(s.rho)
    fp = m.fixed_point
    for i in range(m.size):
        for j in range(m.size):
            assert s.d_c[m.map[i]][m.map[j]] <= F(1, 2) * s.d_c[i][j]


def test_fraction_matrices_are_lazy_views_of_scaled():
    s = synthesize(random_selfmap(random.Random(5), 12), F(1, 2), F(1, 4))
    s.report_text()
    names = ("d_m", "rho", "d_c")
    assert not set(names) & set(vars(s))
    for k, name in enumerate(names):
        assert getattr(s, name) == s.scaled[k].fractions()
        assert name in vars(s)


@pytest.mark.parametrize("big", [F(1), F(2**70, 3)])  # 2^70/3 leaves int64
@pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(9, 10), F(999, 1000), F(1, 1000)])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_report_matrices_match_format_fraction(n, c, big):
    m = random_selfmap(random.Random(n), n)
    if big != 1:
        d = [[v * big for v in row] for row in m.base_distance]
        m = FiniteSelfMap(m.labels, m.coords, d, m.map, m.fixed_point)
    s = synthesize(m, c, F(4) * big)  # eps = 4 puts more than x* in W from n = 2
    lines = s.report_text().splitlines()
    views = copy.copy(s)  # the Fraction views are read on a copy: s stays unconverted
    for name, attr in (("d_M", "d_m"), ("rho_c", "rho"), ("d_c", "d_c")):
        at = lines.index(f"matrix {name}:") + 1
        want = ["  " + " ".join(map(format_fraction, row)) for row in getattr(views, attr)]
        assert lines[at : at + n] == want
    assert not {"d_m", "rho", "d_c"} & set(vars(s))
    if big != 1 and n > 1:  # a one-point matrix is [[0]], which fits int64
        assert all(d.num.dtype == object for d in s.scaled)


INT_LIMIT = ("Exceeds the limit (640 digits) for integer string conversion; "
             "use sys.set_int_max_str_digits() to increase the limit")
NEAR_ONE = F(10**50 - 1, 10**50)


@pytest.fixture
def int_digits_640():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def test_report_past_the_digit_limit_is_an_input_error(int_digits_640):
    # levels run to 14 on a 16-point chain, so rho_c has denominators 10^700
    s = synthesize(chain_selfmap((1,) * 15), NEAR_ONE, F(100))
    with pytest.raises(InputError) as exc:
        s.report_text()
    assert str(exc.value) == INT_LIMIT


def test_synthesize_past_the_digit_limit_exits_two(int_digits_640, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(chain_selfmap((1,) * 15).to_text(), encoding="utf-8")
    assert main(["synthesize", str(path), f"{NEAR_ONE}", "100"]) == 2
    assert capsys.readouterr() == ("", f"error: {INT_LIMIT}\n")


def test_two_fixed_points_rejected_at_load():
    with pytest.raises(SelfMapError, match="second fixed point"):
        FiniteSelfMap(
            ["a", "b"],
            [(F(0), F(0), F(0)), (F(1), F(0), F(0))],
            [[F(0), F(1)], [F(1), F(0)]],
            [0, 1],
            0,
        )


def test_nonconvergent_orbit_rejected_at_load():
    dist = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]]
    coords = [(F(i), F(0), F(0)) for i in range(3)]
    with pytest.raises(SelfMapError, match="does not reach"):
        FiniteSelfMap(["a", "b", "star"], coords, dist, [1, 0, 2], 2)


def test_non_metric_base_rejected_at_load():
    dist = [[F(0), F(5), F(1)], [F(5), F(0), F(1)], [F(1), F(1), F(0)]]
    coords = [(F(i), F(0), F(0)) for i in range(3)]
    with pytest.raises(SelfMapError, match="TRIANGLE"):
        FiniteSelfMap(["a", "b", "star"], coords, dist, [2, 2, 2], 2)


def test_ragged_base_distance_rejected_before_scaling(monkeypatch):
    # the one ragged-row check runs before the base metric is scaled to integers
    calls, of = [], Scaled.of

    def spy(values):
        calls.append(values)
        return of(values)

    monkeypatch.setattr(Scaled, "of", staticmethod(spy))
    coords = [(F(i), F(0), F(0)) for i in range(2)]
    with pytest.raises(SelfMapError) as info:
        FiniteSelfMap(["a", "b"], coords, [[F(0)], [F(0)]], [1, 1], 1)
    assert str(info.value) == "base distance is not a metric: row 0 has length 1, expected 2"
    assert calls == []


def test_repeated_label_rejected_at_load():
    dist = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]]
    coords = [(F(i), F(0), F(0)) for i in range(3)]
    with pytest.raises(SelfMapError) as info:
        FiniteSelfMap(["b", "a", "a"], coords, dist, [1, 2, 2], 2)
    assert str(info.value) == "repeated label 'a'"


def test_selfmap_cannot_be_edited_after_construction():
    # an edit would leave scaled_distance stale and skip the checks
    m = chain_selfmap((1, 1, 1))
    scaled = m.scaled_distance
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.base_distance = [[F(0)] * 4 for _ in range(4)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.map = [3, 3, 3, 3]
    with pytest.raises(TypeError):
        m.base_distance[0][1] = F(7)
    with pytest.raises(TypeError):
        m.base_distance[0] = (F(0),) * 4
    with pytest.raises(TypeError):
        m.map[0] = 0
    with pytest.raises(ValueError):
        m.iterates[0, 0] = 3
    assert m.scaled_distance is scaled
    assert m.base_distance[0][1] == 1 and m.map == (1, 2, 3, 3)


def test_selfmap_file_roundtrip():
    rng = random.Random(11)
    m = random_selfmap(rng, 6)
    again = parse_selfmap(m.to_text())
    assert again.labels == m.labels
    assert again.base_distance == m.base_distance
    assert again.map == m.map
    assert again.fixed_point == m.fixed_point


def test_selfmap_parse_errors():
    with pytest.raises(SelfMapError):
        parse_selfmap("points 2\na 0 0 0\nb 1 0 0\nmap: 1 1\nfixed: 1\ndistances:\n")
    with pytest.raises(SelfMapError):
        parse_selfmap("nope\n")


def test_short_distance_block_is_refused_before_the_matrix_is_built():
    # the n x n matrix would hold n^2 references of 8 bytes each
    n = 3000
    text = (f"points {n}\n" + "".join(f"p{i} 0 0 0\n" for i in range(n))
            + "map: " + " ".join(["0"] * n) + "\nfixed: 0\ndistances:\n1\n1 1\n1 1 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(SelfMapError, match="expected 2999 distance rows, got 3"):
            parse_selfmap(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_synthesis_certificate_on_random_corpus_sample():
    rng = random.Random(99)
    for _ in range(10):
        m = random_selfmap(rng)
        for c in (F(1, 4), F(9, 10)):
            s = synthesize(m, c, F(1, 2))
            assert s.certified
            # entrywise base-metric domination and the fixed-point proximity transfer
            fp = m.fixed_point
            for i in range(m.size):
                for j in range(m.size):
                    assert m.d(i, j) <= s.d_m[i][j]
                if s.d_c[i][fp] <= s.eps:
                    assert m.d(i, fp) <= 2 * s.eps


def test_synthesis_runs_the_closure_once(monkeypatch):
    # the certificate decides d_c's triangle inequality with one min-plus
    # product, so the construction's closure is the only one; at 40 points
    # that product takes its k rows in two blocks
    calls, closure = [], metrics.min_plus_closure

    def spy(d):
        calls.append(d.shape)
        return closure(d)

    monkeypatch.setattr(converse, "min_plus_closure", spy)
    monkeypatch.setattr(metrics, "min_plus_closure", spy)
    assert synthesize(random_selfmap(random.Random(7), 40), F(1, 2), F(1, 4)).certified
    assert calls == [(40, 40)]


CORRUPTION_FACTORS = (F(1, 64), F(1, 4), F(1, 2), F(3, 4), F(3, 2), F(2), F(8))


def corrupted_certificate_cases():
    """_certify arguments whose d_M and d_c are corrupted but stay semimetrics.

    Each case runs the synthesis stages on a small random self-map, then
    scales up to three symmetric pairs of d_M and of d_c by one of
    CORRUPTION_FACTORS.  Every fourth case first scales the base metric and
    eps by 2^70/3, so the scaled integers leave int64.
    """
    rng = random.Random(7)
    cases = []
    for k in range(40):
        m = random_selfmap(rng, rng.randint(3, 7))
        big = F(2**70, 3) if k % 4 == 3 else F(1)
        if big != 1:
            d = [[v * big for v in row] for row in m.base_distance]
            m = FiniteSelfMap(m.labels, m.coords, d, m.map, m.fixed_point)
        c = rng.choice((F(1, 4), F(1, 2), F(9, 10)))
        eps = rng.choice((F(1, 4), F(1, 2), F(2))) * big
        w = find_invariant_neighborhood(m, eps)
        d_m = compute_orbit_metric(m)
        levels = compute_levels(m, w)
        d_c = geodesic_closure(compute_rho(d_m, levels, c)).fractions()
        d_m = d_m.fractions()
        for mat in (d_m, d_c):
            for _ in range(rng.randint(0, 3)):
                i, j = rng.sample(range(m.size), 2)
                mat[i][j] = mat[j][i] = mat[i][j] * rng.choice(CORRUPTION_FACTORS)
        cases.append((m, c, eps, w, d_m, d_c))
    return cases


def test_certificate_failures_match_pins():
    # certificate_pins.json holds (name, ok, detail) of every entry, captured
    # before the entries were decided on integers; it is never regenerated
    pins = json.loads(CERTIFICATE_PINS.read_text(encoding="utf-8"))
    got = [
        [[e.name, e.ok, e.detail] for e in certify_fractions(m, c, eps, w, d_m, d_c)]
        for m, c, eps, w, d_m, d_c in corrupted_certificate_cases()
    ]
    assert got == pins
    failing = {name for case in pins for name, ok, _ in case if not ok}
    assert failing == {name for name, _, _ in pins[0]}  # every entry fails somewhere


def test_eps_entries_match_fraction_comparisons_on_the_boundary():
    # an eps equal to a d_c entry, or to half a base distance, puts a pair on
    # d_c = eps or d = 2 eps exactly, where floor(eps * s) must decide as the
    # Fractions do; on the two-point chain with d_c = 1/3, eps * s = 3/2 is no integer
    chain = chain_selfmap((1,))
    d_c = [[F(0), F(1, 3)], [F(1, 3), F(0)]]
    cases = corrupted_certificate_cases()
    cases.append((chain, F(1, 2), None, [1], compute_orbit_metric(chain).fractions(), d_c))
    seen = set()
    for m, c, _, w, d_m, d_c in cases:
        n, fp, d = m.size, m.fixed_point, m.base_distance
        pairs = [(0, 1)] + [(i, fp) for i in range(n) if i != fp]
        for eps in {e for i, j in pairs for e in (d_c[i][j], d[i][j] / 2)}:
            small = [[v <= eps for v in row] for row in d_c]
            far = [[v > 2 * eps for v in row] for row in d]
            want = (
                not any(small[i][j] and far[i][j] and far[fp][i] and far[fp][j]
                        for i in range(n) for j in range(n)),
                not any(small[i][fp] and far[i][fp] for i in range(n)),
            )
            entries = {e.name: e.ok for e in certify_fractions(m, c, eps, w, d_m, d_c)}
            assert (entries["small d_c implies base proximity"],
                    entries["small d_c at the fixed point implies base proximity"]) == want
            seen.add(want)
    assert len(seen) > 1  # the cases reach a failing entry


@given(st.lists(st.integers(0, 5), min_size=1, max_size=2), st.data())
@settings(max_examples=100, deadline=None)
def test_first_hit_is_the_first_argwhere_row(shape, data):
    cells = math.prod(shape)
    # sparse masks put the first hit anywhere, including past the first row
    bits = data.draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    mask = np.array([b == 0 for b in bits], dtype=bool).reshape(shape)
    hits = np.argwhere(mask)
    expected = tuple(int(i) for i in hits[0]) if len(hits) else None
    assert _first_hit(mask, lambda *index: index) == expected


@pytest.mark.parametrize("entries, message", [
    ({(0, 1): F(0), (1, 0): F(0)}, "IDENTITY: d(0,1) = 0 for distinct indices"),
    ({(1, 0): F(100)}, "SYMMETRY: d(0,1) != d(1,0)"),
    ({(2, 2): F(1)}, "IDENTITY: d(2,2) = 1 != 0"),
], ids=["zero off the diagonal", "asymmetric", "nonzero diagonal"])
def test_certify_rejects_non_semimetric_d_c(entries, message):
    m, c, eps, w, d_m, d_c = corrupted_certificate_cases()[2]
    for (i, j), value in entries.items():
        d_c[i][j] = value
    entries = {e.name: e for e in certify_fractions(m, c, eps, w, d_m, d_c)}
    axioms = entries["d_c metric axioms"]
    assert (axioms.ok, axioms.detail) == (False, message)
    assert not entries["geodesic closure idempotent"].ok


def test_synthesize_raises_certificate_error_on_non_semimetric_d_c(monkeypatch):
    # a closure that broke symmetry fails the certificate like any other entry
    closure = converse.geodesic_closure

    def asymmetric(rho):
        d_c = closure(rho)
        d_c.num[0, 1] += 1
        return d_c

    monkeypatch.setattr(converse, "geodesic_closure", asymmetric)
    with pytest.raises(CertificateError) as info:
        synthesize(chain_selfmap((1, 1, 1)), F(1, 2), F(1, 4))
    assert str(info.value) == "d_c metric axioms: SYMMETRY: d(0,1) != d(1,0)"
