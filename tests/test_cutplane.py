"""Cutting-plane solver: oracles, epigraph cuts, termination, and the
iteration and gap bounds."""
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from centercut.adversary import (ContinuousMedian, IntegerFiber,
                                 game_constraint_set, game_measure)
from centercut.centerpoint import ConstraintSet, _lex_best
from centercut import geom
from centercut.cutplane import (Adversarial, AffineMax, Centerpoint, Centroid,
                                ConvexQuadratic, RandomFeasible, Sum,
                                _pick_centerpoint, epigraph_cut, evaluate, iteration_upper_bound,
                                mixed_gap_bound, solve, unit_ball_volume)
from centercut.depth import depth_finite
from centercut.errors import EmptyRegion, InfeasibleStart, ZeroSubgradient
from centercut.geom import Box, Polytope
from centercut.measures import (FinitePointMass, LatticeCounting, MixedInteger,
                                RngState, UniformPolytope)

UNIT_SQUARE = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
E_UNIT = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def _abs_coord(i, dim, shift):
    # |x_i - shift| as a two-piece affine max, 1-Lipschitz
    up, dn = np.zeros(dim), np.zeros(dim)
    up[i], dn[i] = 1.0, -1.0
    return AffineMax([(up, -shift), (dn, shift)])


# ---------------------------------------------------------------------------
# oracles

def test_affine_max_evaluate():
    o = AffineMax([(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 1.0)])
    v, g = evaluate(o, np.array([2.0, 0.0]))
    assert v == 2.0
    assert np.array_equal(g, [1.0, 0.0])
    assert o.call_count == 1
    # ties resolve to the earliest piece
    v, g = evaluate(o, np.array([1.0, 0.0]))
    assert v == 1.0
    assert np.array_equal(g, [1.0, 0.0])


def test_quadratic_evaluate():
    o = ConvexQuadratic(np.eye(2), np.array([1.0, 1.0]))
    v, g = evaluate(o, np.array([1.0, 1.0]))
    assert v == 0.0
    assert np.array_equal(g, [0.0, 0.0])
    v, g = evaluate(o, np.array([2.0, 1.0]))
    assert v == 1.0
    assert np.array_equal(g, [2.0, 0.0])
    with pytest.raises(ValueError):
        ConvexQuadratic(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        ConvexQuadratic(-np.eye(2), np.zeros(2))


def test_sum_evaluate():
    aff = AffineMax([(np.array([1.0, 0.0]), 0.3)])
    quad = ConvexQuadratic(np.eye(2), np.zeros(2))
    o = Sum([aff, quad])
    v, g = evaluate(o, np.zeros(2))
    assert v == 0.3
    assert np.array_equal(g, [1.0, 0.0])
    assert (o.call_count, aff.call_count, quad.call_count) == (1, 1, 1)


def test_evaluate_rejects_nonfinite():
    o = AffineMax([(np.array([1.0]), 0.0)])
    with pytest.raises(ValueError):
        evaluate(o, np.array([math.inf]))


# ---------------------------------------------------------------------------
# epigraph cuts

def test_epigraph_cut_halfspace():
    cut = epigraph_cut(np.array([1.0, 1.0]), 2.0, np.array([1.0, 1.0]), 3.0)
    # keeps {x1 + x2 <= 3}
    inside = cut.contains(np.array([[0.0, 0.0], [1.5, 1.5], [3.0, 0.0]]))
    assert inside.tolist() == [True, True, True]
    assert not cut.contains(np.array([[2.0, 2.0]]))[0]


def test_epigraph_cut_shifts_with_best_value():
    x, h = np.array([1.0, 1.0]), np.array([1.0, 1.0])
    tight = epigraph_cut(x, 2.0, h, 2.0)   # keeps {x1 + x2 <= 2}
    assert not tight.contains(np.array([[1.5, 1.0]]))[0]
    assert tight.contains(np.array([[1.0, 1.0]]))[0]


def test_epigraph_cut_zero_subgradient():
    with pytest.raises(ZeroSubgradient):
        epigraph_cut(np.zeros(2), 1.0, np.zeros(2), 2.0)


# ---------------------------------------------------------------------------
# solver end to end

def test_solve_quadratic_over_lattice():
    o = ConvexQuadratic(np.eye(2), np.array([0.3, 0.7]))
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [4.0, 4.0]))
    E0 = Box(np.array([0.0, 0.0]), np.array([4.0, 4.0]))
    rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.5)
    assert np.array_equal(rep.best_point, [0.0, 1.0])
    assert rep.best_value == pytest.approx(0.18, abs=1e-12)
    assert rep.stop_reason in ("mass_below_delta", "empty_region")
    upper, lower = rep.bound_comparison
    assert upper == 13 and lower is None
    assert rep.oracle_calls <= upper
    assert len(rep.iteration_trace) == rep.oracle_calls


def test_solve_continuous_abs():
    o = _abs_coord(0, 2, 0.5)
    nu = UniformPolytope(UNIT_SQUARE)
    rep = solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 1e-3)
    assert rep.best_value == 0.0
    assert rep.best_point[0] == pytest.approx(0.5, abs=1e-6)
    assert rep.bound_comparison[0] == 12
    assert rep.oracle_calls <= 12
    assert rep.iteration_trace[-1].mass_after <= 1e-3


def test_solve_zero_subgradient_stop():
    o = ConvexQuadratic(np.eye(2), np.array([0.5, 0.5]), r=1.25)
    nu = UniformPolytope(UNIT_SQUARE)
    rep = solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 1e-3,
                strategy=Centroid())
    assert rep.stop_reason == "zero_subgradient"
    assert rep.oracle_calls == 1
    assert np.array_equal(rep.best_point, [0.5, 0.5])
    assert rep.best_value == 1.25


def test_solve_budget_stop():
    o = ConvexQuadratic(np.eye(2), np.array([0.3, 0.7]))
    nu = UniformPolytope(UNIT_SQUARE)
    rep = solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 1e-9, budget=3)
    assert rep.stop_reason == "budget"
    assert rep.oracle_calls == 3


def test_solve_infeasible_start():
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [3.0, 3.0]))
    E0 = Box(np.array([10.0, 10.0]), np.array([11.0, 11.0]))
    with pytest.raises(InfeasibleStart):
        solve(ConvexQuadratic(np.eye(2), np.zeros(2)),
              ConstraintSet.lattice(2), nu, E0, 0.5)


def test_solve_random_quadratics_match_brute_force():
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    E0 = Box(np.array([0.0, 0.0]), np.array([8.0, 8.0]))
    grid = np.array([[i, j] for i in range(8) for j in range(8)], dtype=float)
    rng = np.random.default_rng(55)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        Q = A.T @ A + 0.1 * np.eye(2)
        c = rng.uniform(0.0, 8.0, size=2)
        r = float(rng.uniform(-1.0, 1.0))
        o = ConvexQuadratic(Q, c, r)
        rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.9)
        vals = grid - c
        truth = float((np.einsum("ij,jk,ik->i", vals, Q, vals) + r).min())
        assert rep.best_value == pytest.approx(truth, abs=1e-9)
        assert rep.oracle_calls <= 15


def test_solve_trace_mass_contraction():
    # each row removes at least its recorded depth fraction of the region
    o = ConvexQuadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([5.1, 2.2]))
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    E0 = Box(np.array([0.0, 0.0]), np.array([8.0, 8.0]))
    rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.9)
    prev = 64.0
    for row in rep.iteration_trace:
        assert row.mass_after <= prev + 1e-9
        if row.depth is not None:
            assert row.mass_after <= (1.0 - row.depth + 1e-6) * prev
        prev = row.mass_after


def test_box8_solve_enumerates_the_lattice_once(spy):
    # each rebuild filters the points of the base measure
    calls = spy(geom, "enumerate_lattice_points")
    o = ConvexQuadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([5.1, 2.2]))
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    E0 = Box(np.array([0.0, 0.0]), np.array([8.0, 8.0]))
    rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.9)
    assert len(rep.iteration_trace) > 1 and len(calls) == 1


def test_finite_centerpoint_pick_matches_brute_force():
    # weighted points on a small grid (duplicates and collinear triples): the
    # Centerpoint strategy picks what a per-point depth_finite loop picks
    gen = np.random.default_rng(91)
    E0 = Box(np.zeros(2), np.full(2, 7.0))
    for _ in range(6):
        pts = gen.integers(0, 7, size=(int(gen.integers(5, 60)), 2)).astype(float)
        nu = FinitePointMass(pts, gen.uniform(0.2, 3.0, len(pts)))
        rep = solve(ConvexQuadratic(np.eye(2), gen.uniform(0.0, 7.0, 2)),
                    ConstraintSet.continuous(2), nu, E0, 0.05)
        m = nu.restrict(tuple(E0.half_open_cuts()))
        act, w = m.active_points(), m.active_weights()
        vals = [depth_finite(act, p, w).value for p in act]
        k = _lex_best(act, vals)
        assert np.array_equal(rep.iteration_trace[0].point, act[k])
        assert rep.iteration_trace[0].depth <= vals[k] + 1e-12


def _random_lattice_polytope_3d(gen, lo, hi):
    """Hull of seeded integer-ish points, holding between lo and hi lattice
    points."""
    while True:
        v = gen.uniform(0.0, gen.uniform(3.0, 7.0), size=(8, 3)) @ gen.normal(size=(3, 3))
        hull = ConvexHull(v)
        P = Polytope.from_rows(np.column_stack([hull.equations[:, :3], -hull.equations[:, 3]]))
        try:
            m = LatticeCounting(P)
        except EmptyRegion:
            continue
        if lo <= m.total_mass <= hi:
            return m


def test_3d_lattice_pick_clears_the_paper_floor():
    """On seeded random 3D lattice polytopes the solver's pick is the deepest
    lattice point, and its depth clears the lattice floor 2^-3."""
    gen = np.random.default_rng(2015)
    for _ in range(10):
        m = _random_lattice_polytope_3d(gen, 20, 150)
        pts = m.active_points()
        point, value = _pick_centerpoint(m, RngState(0), 0)
        vals = [depth_finite(pts, p).value for p in pts]
        assert value == max(vals) == vals[_lex_best(pts, vals)]
        assert np.array_equal(point, pts[_lex_best(pts, vals)])
        assert value >= 1.0 / 8.0


def test_3d_lattice_pick_on_the_box():
    m = LatticeCounting(Polytope.from_box(np.zeros(3), np.full(3, 4.0)))
    point, value = _pick_centerpoint(m, RngState(0), 0)
    assert point.tolist() == [2.0, 2.0, 2.0]
    assert value == 63.0 / 125.0


def test_solve_mixed_gap_bound():
    # 1-Lipschitz objective in the continuous block: gap <= L * delta / 2
    o = _abs_coord(1, 2, 0.37)
    nu = MixedInteger(Polytope.from_box([0.0, 0.0], [3.0, 1.0]), 1, 1)
    E0 = Box(np.array([0.0, 0.0]), np.array([4.0, 1.0]))
    rep = solve(o, ConstraintSet.mixed(1, 1), nu, E0, 0.05)
    # the exact fiber search picks (1, 0.5), (1, 0.25) and then the optimum
    # (1, 0.37), whose cut empties the region
    assert rep.stop_reason == "empty_region"
    assert rep.best_value == 0.0
    assert rep.best_value <= mixed_gap_bound(1.0, 0.05, 1) + 1e-9
    assert rep.best_point[0] == round(rep.best_point[0])


def test_solve_random_feasible_strategy():
    o = ConvexQuadratic(np.eye(2), np.array([0.3, 0.7]))
    nu = UniformPolytope(UNIT_SQUARE)
    rep = solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 0.3,
                strategy=RandomFeasible(3))
    assert rep.stop_reason in ("mass_below_delta", "empty_region",
                               "zero_subgradient")
    assert rep.bound_comparison == (None, None)
    assert rep.best_value <= o(np.array([0.5, 0.5]))[0] + 1e-12


# ---------------------------------------------------------------------------
# adversarial oracles through the solver

def test_solve_integer_fiber_game():
    st = IntegerFiber(2, 8)
    o = Adversarial(st)
    rep = solve(o, game_constraint_set(st), game_measure(st), st.E0, 0.5)
    upper, lower = rep.bound_comparison
    assert lower == 8
    assert rep.oracle_calls >= lower
    assert upper == 13 and rep.oracle_calls <= upper


def test_solve_continuous_median_game():
    st = ContinuousMedian(Box(np.array([0.0, 0.0]), np.array([32.0, 32.0])))
    o = Adversarial(st)
    rep = solve(o, game_constraint_set(st), game_measure(st), st.E0, 1.0)
    upper, lower = rep.bound_comparison
    assert lower == 9
    assert rep.oracle_calls >= lower
    assert upper == 12 and rep.oracle_calls <= upper


# ---------------------------------------------------------------------------
# bounds

def test_iteration_upper_bound_frozen():
    assert iteration_upper_bound(0.5, 1024.0, 1.0) == 10
    assert iteration_upper_bound(0.25, 64.0, 0.9) == 15
    assert iteration_upper_bound(4.0 / 9.0, 1.0, 1e-3) == 12
    assert iteration_upper_bound(0.5, 0.5, 1.0) == 0


def test_iteration_upper_bound_validation():
    for c, V, delta in [(0.0, 1.0, 0.1), (1.0, 1.0, 0.1), (0.5, 1.0, 0.0),
                        (0.5, -1.0, 0.1)]:
        with pytest.raises(ValueError):
            iteration_upper_bound(c, V, delta)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


def test_mixed_gap_bound_frozen():
    assert mixed_gap_bound(0.1, 1.0, 1) == pytest.approx(0.05, abs=1e-15)
    assert mixed_gap_bound(1.0, math.pi, 2) == pytest.approx(1.0, abs=1e-12)
    assert mixed_gap_bound(0.0, 0.5, 1) == 0.0
    for L, delta, d in [(1.0, 0.0, 1), (1.0, 0.5, 0), (-1.0, 0.5, 1)]:
        with pytest.raises(ValueError):
            mixed_gap_bound(L, delta, d)


@pytest.mark.parametrize("measure", [
    LatticeCounting(Polytope.from_box([0.0, 0.0], [4.0, 4.0])),
    LatticeCounting(Polytope.from_box([0.0], [6.0])),
    FinitePointMass([[0, 0], [3, 1], [1, 3], [2, 2], [4, 4]], [1, 2, 1, 3, 1]),
])
def test_solve_best_point_owns_its_memory(measure):
    dim = measure.dim
    o = ConvexQuadratic(np.eye(dim), np.full(dim, 1.3), 0.0)
    S = ConstraintSet.lattice(dim)
    rep = solve(o, S, measure, Box(np.zeros(dim), np.full(dim, 5.0)), 0.5)
    assert rep.best_point is not None and rep.best_point.base is None
