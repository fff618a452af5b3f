"""Resisting oracles: the answers must stay consistent with one convex
function while forcing the documented number of queries."""
import math

import numpy as np
import pytest

from centercut.adversary import (ContinuousMedian, IntegerFiber, MixedFiber,
                                 adversary_query,
                                 game_constraint_set, game_measure,
                                 is_consistent, lower_bound_for,
                                 lower_bound_value)
from centercut.centerpoint import centroid
from centercut import geom
from centercut.errors import DimensionTooLarge, OutsideRegion
from centercut.geom import Box, Polytope
from centercut.measures import LatticeCounting, MixedInteger, UniformPolytope

UNIT_BOX = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def _play_continuous(points):
    st = ContinuousMedian(UNIT_BOX)
    for p in points:
        adversary_query(st, np.array(p, dtype=float))
    return st


# ---------------------------------------------------------------------------
# integer fiber game

def test_integer_fiber_first_cut_keeps_half():
    st = IntegerFiber(2, 8)
    value, h = adversary_query(st, np.array([3.0, 0.0]))
    assert value < 0.0
    cand = st.fiber_candidates()
    assert cand[(0,)] == [4, 5, 6, 7]   # larger side survives, query point out
    assert cand[(1,)] == list(range(8))
    assert h[0] != 0.0


def test_integer_fiber_halving_invariant():
    # querying the candidate median can never shrink a fiber below half
    st = IntegerFiber(2, 8)
    r = 8
    while r > 1:
        ks = st.fiber_candidates()[(0,)]
        x = np.array([float(ks[len(ks) // 2]), 0.0])
        adversary_query(st, x)
        ks_new = st.fiber_candidates()[(0,)]
        assert len(ks_new) >= math.ceil((r - 1) / 2)
        assert len(ks_new) < r
        r = len(ks_new)
    assert st.queries >= 3
    assert is_consistent(st)


def test_integer_fiber_out_of_fiber_query_preserves_candidates():
    st = IntegerFiber(2, 8)
    before = sum(len(v) for v in st.fiber_candidates().values())
    assert before == 16
    adversary_query(st, np.array([7.5, 1.7]))   # outside the candidate hull
    after = sum(len(v) for v in st.fiber_candidates().values())
    assert after == before
    assert is_consistent(st)


def test_integer_fiber_outside_region():
    st = IntegerFiber(2, 8)
    with pytest.raises(OutsideRegion):
        adversary_query(st, np.array([8.0, 0.0]))   # upper face is exclusive
    with pytest.raises(OutsideRegion):
        adversary_query(st, np.array([-0.1, 0.0]))
    with pytest.raises(ValueError):
        adversary_query(st, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# replay and consistency

def test_replay_returns_identical_answers():
    pts = [[0.5, 0.5], [0.25, 0.5], [0.7, 0.31], [0.5, 0.12]]
    st = _play_continuous(pts)
    first = [adversary_query(st, np.array(p)) for p in pts]
    queries_after = st.queries
    again = [adversary_query(st, np.array(p)) for p in pts]
    for (v1, h1), (v2, h2) in zip(first, again):
        assert v1 == v2
        assert np.array_equal(h1, h2)
    assert st.queries == queries_after   # replays add no pieces


def test_replay_tolerance():
    st = _play_continuous([[0.5, 0.5]])
    v0, h0 = adversary_query(st, np.array([0.5, 0.5]))
    v1, h1 = adversary_query(st, np.array([0.5 + 1e-13, 0.5]))
    assert v1 == v0
    assert np.array_equal(h1, h0)


def test_answers_strictly_decrease():
    # drive queries from the centroid of the surviving region, like the solver
    st = _play_continuous([])
    vals = [adversary_query(st, np.array([0.5, 0.5]))[0]]
    for _ in range(4):
        x = centroid(st._region())
        assert st._inside(x)
        vals.append(adversary_query(st, x)[0])
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_epigraph_is_convex():
    st = _play_continuous([[0.5, 0.5], [0.3, 0.4], [0.62, 0.58], [0.44, 0.51]])
    rng = np.random.default_rng(8)
    ys = rng.uniform(0.0, 1.0, size=(1000, 2, 2))
    for y1, y2 in ys:
        mid = 0.5 * (y1 + y2)
        lhs = st.epigraph(mid)[0]
        rhs = 0.5 * (st.epigraph(y1)[0] + st.epigraph(y2)[0])
        assert lhs <= rhs + 1e-12


def test_query_value_attains_epigraph():
    st = _play_continuous([])
    x = np.array([0.5, 0.5])
    v, h = adversary_query(st, x)
    assert st.epigraph(x)[0] == pytest.approx(v, abs=1e-15)
    assert is_consistent(st)


def test_games_stay_consistent():
    st1 = _play_continuous([[0.5, 0.5], [0.25, 0.5], [0.7, 0.31]])
    assert is_consistent(st1)
    st2 = IntegerFiber(2, 4)
    for p in [[1.0, 0.0], [2.0, 1.0], [0.0, 0.0], [1.5, 0.5]]:
        adversary_query(st2, np.array(p))
    assert is_consistent(st2)
    st3 = MixedFiber(1, 1, 4)
    for p in [[0.0, 2.0], [1.0, 1.0], [0.0, 3.1], [1.0, 0.4]]:
        adversary_query(st3, np.array(p))
    assert is_consistent(st3)


# ---------------------------------------------------------------------------
# mixed fiber game

def _fiber_volumes(st):
    return {v: float(np.prod(hi - lo)) for v, (lo, hi) in st.remaining_boxes().items()}


def test_mixed_fiber_boxes_shrink_in_fiber_only():
    st = MixedFiber(1, 1, 4)
    adversary_query(st, np.array([0.0, 2.0]))
    vols = _fiber_volumes(st)
    assert vols[(1,)] == 4.0
    assert 1.9 <= vols[(0,)] <= 2.1
    # a strictly separating query trims fiber boxes by at most the xi offset
    before = _fiber_volumes(st)
    adversary_query(st, np.array([0.5, 3.9]))
    after = _fiber_volumes(st)
    for v, vol in before.items():
        assert vol - 1e-4 <= after[v] <= vol
    assert is_consistent(st)


# ---------------------------------------------------------------------------
# bounds and solver inputs

def test_lower_bound_value_frozen():
    assert lower_bound_value("continuous_median", delta=1.0, V=1024.0) == 9
    assert lower_bound_value("integer_fiber", n=2, B=8) == 8
    assert lower_bound_value("mixed_fiber", n=1, d=1, B=8, delta=1.0) == 6
    assert lower_bound_value("continuous_median", delta=2.0, V=1.0) == 0
    with pytest.raises(ValueError):
        lower_bound_value("nonsense")


def test_lower_bound_for_dispatch():
    st = ContinuousMedian(Box(np.zeros(2), np.full(2, 32.0)))
    assert lower_bound_for(st, 1.0) == 9
    assert lower_bound_for(IntegerFiber(2, 8), 0.5) == 8
    assert lower_bound_for(MixedFiber(1, 1, 8), 1.0) == 6


def test_game_measure_and_constraints():
    st = ContinuousMedian(UNIT_BOX)
    assert isinstance(game_measure(st), UniformPolytope)
    assert game_constraint_set(st).kind == "continuous"
    st = IntegerFiber(2, 4)
    assert isinstance(game_measure(st), LatticeCounting)
    assert game_constraint_set(st) .n == 2
    st = MixedFiber(1, 1, 4)
    m = game_measure(st)
    assert isinstance(m, MixedInteger)
    assert (m.n, m.d) == (1, 1)
    assert game_constraint_set(st).kind == "mixed"


def test_continuous_game_needs_two_dims():
    with pytest.raises(ValueError):
        ContinuousMedian(Box(np.zeros(3), np.ones(3)))
    with pytest.raises(ValueError):
        IntegerFiber(0, 4)
    with pytest.raises(ValueError):
        MixedFiber(1, 0, 4)


# ---------------------------------------------------------------------------
# game regions

def test_game_measure_in_four_dimensions_raises_before_any_lp(spy):
    lps = spy(geom, "_lp_feasible_bounded")
    with pytest.raises(DimensionTooLarge):
        game_measure(MixedFiber(2, 2, 4))
    assert lps == []


@pytest.mark.parametrize("game", [ContinuousMedian(Box(np.array([7.0, 8.0]),
                                                       np.array([39.0, 40.0]))),
                                  IntegerFiber(2, 8), IntegerFiber(3, 8),
                                  MixedFiber(1, 1, 8), MixedFiber(1, 2, 4),
                                  MixedFiber(2, 1, 4)])
def test_game_measures_match_a_validated_region(spy, game):
    # the box region skips validation; its measure keeps the vertices and
    # masses a validated polytope of the same box gives
    lps = spy(geom, "_lp_feasible_bounded")
    m = game_measure(game)
    assert lps == []
    checked = Polytope.from_halfspaces([c.as_closed() for c in game.E0.half_open_cuts()])
    ref = type(m)(checked, *([game.n, game.d] if isinstance(game, MixedFiber) else []))
    assert np.array_equal(m.polytope.vertices(), checked.vertices())
    assert m.total_mass == ref.total_mass
    if isinstance(m, LatticeCounting):
        assert np.array_equal(m.active_points(), ref.active_points())
