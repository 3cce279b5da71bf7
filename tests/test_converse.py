import dataclasses
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_selfmap
from contraction_kit.converse import (
    FiniteSelfMap,
    SelfMapError,
    _certify,
    _compute_rho_reference,
    _geodesic_closure_reference,
    compute_levels,
    compute_orbit_metric,
    compute_rho,
    find_invariant_neighborhood,
    geodesic_closure,
    parse_selfmap,
    synthesize,
)
from contraction_kit.metrics import scale_to_integers, scaled_to_fractions

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
    return scaled_to_fractions(*geodesic_closure(scale_to_integers(rho)))


def certify_fractions(m, c, eps, w, d_m, d_c):
    """_certify on Fraction matrices d_M and d_c, through their scaled-integer form."""
    return _certify(m, c, eps, w, scale_to_integers(d_m), scale_to_integers(d_c))


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
    levels, k_sets = compute_levels(m, w)
    assert levels[:3] == [-3, -2, -1]
    assert math.isinf(levels[3])
    assert k_sets == [[3]]


def test_levels_with_two_point_neighborhood():
    # eps = 1 admits W = {c, star}; c sits in K0 but not in f(W) = {star},
    # b is one step from entering, a two steps
    m = chain_selfmap((1, 1, 1))
    w = find_invariant_neighborhood(m, F(1))
    assert w == [2, 3]
    levels, k_sets = compute_levels(m, w)
    assert levels[2] == 0
    assert levels[1] == -1
    assert levels[0] == -2
    assert k_sets == [[2, 3], [3]]


def test_orbit_metric_examples():
    m = chain_selfmap((1, 2, 1))
    d_m = scaled_to_fractions(*compute_orbit_metric(m))
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
    assert scaled_to_fractions(*compute_orbit_metric(m)) == dist


def orbit_metric_brute_force(m):
    """max over t < n of d(f^[t](i), f^[t](j)), iterating f from scratch for every t."""
    def image(i, t):
        for _ in range(t):
            i = m.map[i]
        return i

    n = m.size
    return [[max(m.d(image(i, t), image(j, t)) for t in range(n)) for j in range(n)]
            for i in range(n)]


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
    d_m = scaled_to_fractions(*compute_orbit_metric(m))
    assert d_m == orbit_metric_brute_force(m)
    assert all(isinstance(v, F) for row in d_m for v in row)


def test_rho_examples():
    levels = [-2, -1, math.inf]
    d_m = [[F(0), F(3), F(4)], [F(3), F(0), F(2)], [F(4), F(2), F(0)]]
    rho = scaled_to_fractions(*compute_rho(scale_to_integers(d_m), levels, F(1, 2)))
    assert rho[0][0] == 0
    assert rho[0][1] == 12  # c^-2 * 3
    assert rho[1][2] == 4   # kappa = min(-1, inf) = -1
    same_level = scaled_to_fractions(*compute_rho(scale_to_integers(d_m), [0, 0, math.inf], F(1, 2)))
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
    rho, scale = compute_rho(scale_to_integers(d_m), levels, c)
    if n > 1:
        assert rho.dtype == (object if huge else np.int64)
    assert scaled_to_fractions(rho, scale) == _compute_rho_reference(d_m, levels, c)


@pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(9, 10)])
@pytest.mark.parametrize("level", [math.inf, -3, 0, 4])
def test_compute_rho_single_point(c, level):
    rho = compute_rho(scale_to_integers([[F(0)]]), [level], c)
    assert scaled_to_fractions(*rho) == _compute_rho_reference([[F(0)]], [level], c) == [[0]]


def test_geodesic_closure_direct_and_shortcut():
    rho = [[F(0), F(10), F(1)], [F(10), F(0), F(1)], [F(1), F(1), F(0)]]
    d_c = closure_of_fractions(rho)
    assert d_c[0][1] == 2
    metric_already = [[F(0), F(1)], [F(1), F(0)]]
    assert closure_of_fractions(metric_already) == metric_already


def test_geodesic_closure_validates_input():
    cases = [
        ([[F(1)]], "zero diagonal"),
        ([[F(0), F(1)], [F(2), F(0)]], "symmetric"),
        ([[F(0), F(0)], [F(0), F(0)]], "positive off the diagonal"),
        # several entries are bad: both closures name the first in row order
        ([[F(0), F(-1), F(2)], [F(-1), F(0), F(1)], [F(3), F(1), F(5)]], "positive off"),
    ]
    for rho, message in cases:
        for closure in (closure_of_fractions, _geodesic_closure_reference):
            with pytest.raises(ValueError, match=message):
                closure(rho)


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
    if n > 1:
        expected = object if huge else np.int64
        assert scale_to_integers(weights)[0].dtype == expected
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
        levels, _ = compute_levels(m, w)
        d_c = scaled_to_fractions(*geodesic_closure(compute_rho(d_m, levels, c)))
        d_m = scaled_to_fractions(*d_m)
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


@pytest.mark.parametrize("entries, message", [
    ({(0, 1): F(0), (1, 0): F(0)}, "positive off the diagonal"),
    ({(1, 0): F(100)}, "symmetric"),
    ({(2, 2): F(1)}, "zero diagonal"),
])
def test_certify_rejects_non_semimetric_d_c(entries, message):
    m, c, eps, w, d_m, d_c = corrupted_certificate_cases()[2]
    for (i, j), value in entries.items():
        d_c[i][j] = value
    with pytest.raises(ValueError, match=message):
        certify_fractions(m, c, eps, w, d_m, d_c)
