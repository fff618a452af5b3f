"""Cutting-plane solver: oracles, epigraph cuts, termination, and the
iteration and gap bounds."""
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from centercut.adversary import (ContinuousMedian, IntegerFiber, MixedFiber,
                                 game_constraint_set, game_measure)
from centercut.centerpoint import ConstraintSet, _lex_best, _pruned_lex_best
from centercut import cutplane as cutplane_mod
from centercut import depth as depth_mod
from centercut import geom
from centercut.cutplane import (Adversarial, AffineMax, Centerpoint, Centroid,
                                ConvexQuadratic, RandomFeasible, Sum,
                                _mixed_mean, _pick_centerpoint, epigraph_cut, evaluate, iteration_upper_bound,
                                mixed_gap_bound, solve, unit_ball_volume)
from centercut.depth import depth_finite
from centercut.errors import EmptyRegion, InfeasibleStart, ZeroSubgradient
from centercut.geom import Box, Halfspace, Polytope
from centercut.measures import (MASS_TOL, FinitePointMass, LatticeCounting,
                                MixedInteger, UniformPolytope)

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


def test_solve_rejects_a_negative_budget_and_a_zero_budget_makes_no_call():
    o = ConvexQuadratic(np.eye(2), np.array([0.3, 0.7]))
    nu = UniformPolytope(UNIT_SQUARE)
    with pytest.raises(ValueError, match="budget"):
        solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 1e-9, budget=-3)
    rep = solve(o, ConstraintSet.continuous(2), nu, E_UNIT, 1e-9, budget=0)
    assert (rep.stop_reason, rep.oracle_calls, rep.best_point) == ("budget", 0, None)
    assert o.call_count == 0


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


def test_solve_builds_the_box_cuts_once(spy):
    # the box cuts restrict the measure once; iterations add epigraph cuts
    calls = spy(Box, "half_open_cuts")
    o = ConvexQuadratic(np.eye(2), np.array([3.3, 4.7]))
    nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    rep = solve(o, ConstraintSet.lattice(2), nu, Box(np.zeros(2), np.full(2, 8.0)), 0.9)
    assert len(rep.iteration_trace) > 1 and len(calls) == 1


def _solve_rebuilding_every_iteration(o, nu, E0, delta):
    """solve's Centerpoint loop for counting measures, except that every
    iteration restricts the start-box measure by all the cuts re-tightened
    to the best value. Returns (best value, trace rows as tuples)."""
    boxed = nu.restrict(tuple(E0.half_open_cuts()))
    m, best, records, rows = boxed, math.inf, [], []
    while m.total_mass > delta:
        x, est = _pick_centerpoint(m)
        value, h = evaluate(o, x)
        best = min(best, value)
        records.append((x, value, h))
        u = epigraph_cut(x, value, h, best).n
        removed = float(m.halfspace_mass(Halfspace.from_vector(-u, float(-u @ x))))
        try:
            m = boxed.restrict(tuple(_open(epigraph_cut(xj, vj, hj, best))
                                     for xj, vj, hj in records))
            mass = m.total_mass
        except EmptyRegion:
            mass = 0.0
        rows.append((x.tobytes(), value, h.tobytes(), mass, min(est, removed)))
        if mass <= MASS_TOL:
            break
    return best, rows


def test_solve_restricting_by_the_newest_cut_matches_a_full_rebuild():
    # while the best value stands, solve restricts the current measure by
    # the newest cut only; the report equals the rebuild's, bit for bit
    gen = np.random.default_rng(8)
    pts = gen.integers(0, 9, size=(60, 2)).astype(float)
    measures = [LatticeCounting(Polytope.from_vertices_2d([[0.2, 0.1], [11.3, 1.7],
                                                           [9.6, 10.8], [0.9, 8.4]])),
                LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0])),
                FinitePointMass(pts, gen.integers(1, 5, size=len(pts)).astype(float))]
    kept = 0
    for nu in measures:
        lo, hi = nu.active_points().min(axis=0), nu.active_points().max(axis=0) + 1.0
        E0 = Box(lo, hi)
        # integer subgradients and values in quarters put lattice points on
        # the cut lines, where an open cut and a closed one differ
        objectives = [ConvexQuadratic(np.eye(2), np.floor((lo + hi) / 2.0) + [0.5, -0.5]),
                      ConvexQuadratic(np.diag([1.0, 2.0]), lo + [2.5, 3.5])]
        for _ in range(3):
            A = gen.normal(size=(2, 2))
            objectives.append(ConvexQuadratic(A.T @ A + 0.1 * np.eye(2),
                                              gen.uniform(lo, hi - 1.0)))
        for o in objectives:
            rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.9)
            best, rows = _solve_rebuilding_every_iteration(o, nu, E0, 0.9)
            assert rep.best_value == best
            assert [(r.point.tobytes(), r.value, r.subgradient.tobytes(), r.mass_after,
                     r.depth) for r in rep.iteration_trace] == rows
            values = [r.value for r in rep.iteration_trace]
            kept += sum(v >= min(values[:i]) for i, v in enumerate(values) if i)
    assert kept >= 5   # iterations that kept the best value, and so one region


def _open(c):
    return Halfspace(c.normal, c.offset, False)


def _cut_key(c):
    return c.n.tobytes(), c.offset, c.closed


def test_solve_region_matches_rebuilding_every_cut_with_epigraph_cut(monkeypatch):
    # solve keeps each cut as a normalized row and rebuilds only offsets; the
    # region of every restriction equals a loop that rebuilds each cut with
    # epigraph_cut on every improving query, bit for bit
    regions = []
    for cls in (LatticeCounting, FinitePointMass):
        real = cls.restrict

        def restrict(self, cuts, real=real):
            regions.append(tuple(_cut_key(c) for c in self.region + tuple(cuts)))
            return real(self, cuts)

        monkeypatch.setattr(cls, "restrict", restrict)
    gen = np.random.default_rng(15)
    pts = gen.integers(0, 9, size=(60, 2)).astype(float)
    box8 = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    cases = [(box8, ConvexQuadratic(np.eye(2), np.array([3.3, 4.7]))),
             (box8, ConvexQuadratic(np.diag([1.0, 3.0]), np.array([6.25, 0.5]), 2.0)),
             (FinitePointMass(pts, gen.uniform(0.5, 2.0, len(pts))),
              ConvexQuadratic(np.eye(2), np.array([2.2, 5.9]))),
             # the flat piece is the maximum only where x1 >= 1.5 and
             # x1 + x2 <= 2.5, so the solve ends on a vanishing subgradient
             (box8, AffineMax([(np.array([1.0, 1.0]), -4.0), (np.array([-1.0, 0.0]), 0.0),
                               (np.zeros(2), -1.5)]))]
    stops, kept = [], 0
    for nu, o in cases:
        lo, hi = nu.active_points().min(axis=0), nu.active_points().max(axis=0) + 1.0
        E0 = Box(lo, hi)
        regions.clear()
        rep = solve(o, ConstraintSet.lattice(2), nu, E0, 0.9)
        stops.append(rep.stop_reason)
        box = tuple(E0.half_open_cuts())
        want = [tuple(_cut_key(c) for c in box)]
        region, best, rows = box, math.inf, []
        for r in rep.iteration_trace:
            improved = r.value < best
            kept += not improved
            best = min(best, r.value)
            if not np.any(r.subgradient):
                break
            rows.append((r.point, r.value, r.subgradient))
            for x, v, h in rows:   # epigraph_cut rounds as from_vector(-h, -rhs) did
                assert _cut_key(epigraph_cut(x, v, h, best)) == _cut_key(
                    Halfspace.from_vector(-h, -(float(h @ x) + (best - v))))
            if improved:
                region = box + tuple(_open(epigraph_cut(x, v, h, best)) for x, v, h in rows)
            else:
                region = region + (_open(epigraph_cut(*rows[-1], best)),)
            want.append(tuple(_cut_key(c) for c in region))
        assert regions == want and len(want) > 3
    assert stops == ["empty_region", "empty_region", "mass_below_delta", "zero_subgradient"]
    assert kept > 0   # some queries keep the best value and add one cut


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
        point, value = _pick_centerpoint(m)
        vals = [depth_finite(pts, p).value for p in pts]
        assert value == max(vals) == vals[_lex_best(pts, vals)]
        assert np.array_equal(point, pts[_lex_best(pts, vals)])
        assert value >= 1.0 / 8.0


def test_3d_lattice_pick_on_the_box():
    m = LatticeCounting(Polytope.from_box(np.zeros(3), np.full(3, 4.0)))
    point, value = _pick_centerpoint(m)
    assert point.tolist() == [2.0, 2.0, 2.0]
    assert value == 63.0 / 125.0


def test_1d_lattice_pick_is_the_lower_median_with_the_depth_loop_bits():
    """A 1D lattice pick is the lower median of its points, with the point
    and value of the ``depth_finite`` loop over every point, bit for bit,
    on seeded intervals cut by open and closed halflines."""
    gen = np.random.default_rng(1511)
    sizes = set()
    for _ in range(60):
        lo = float(gen.integers(-60, 60)) + gen.uniform(-0.5, 0.5)
        try:
            m = LatticeCounting(Polytope.from_box([lo], [lo + gen.uniform(0.5, 300.0)]))
            for _ in range(int(gen.integers(0, 4))):
                pts = m.active_points()
                t = float(gen.uniform(pts[0, 0] - 0.5, pts[-1, 0] + 0.5))
                m = m.restrict([Halfspace.from_vector([float(gen.choice([-1.0, 1.0]))], t,
                                                      closed=bool(gen.integers(2)))])
        except EmptyRegion:
            continue
        pts = m.active_points()
        sizes.add(len(pts))
        k, res = _pruned_lex_best(pts, pts, m.active_weights())
        point, value = _pick_centerpoint(m)
        assert point.tobytes() == pts[k].tobytes() and value == res.value
    assert 1 in sizes and max(sizes) > 200 and len(sizes) > 30


def test_3d_uniform_solve_is_deterministic_and_stops_on_the_exact_mass():
    # every mass is exact, so two runs agree bit for bit, the run stops on
    # the first region of volume <= delta, and every pick, taken at the exact
    # centroid, is at least as deep as Grunbaum's floor (3/4)^3
    nu = UniformPolytope(Polytope.from_box([0.0] * 3, [1.0] * 3))
    E0 = Box(np.zeros(3), np.ones(3))
    o = ConvexQuadratic(np.diag([1.0, 2.0, 0.5]), np.array([0.3, 0.6, 0.2]))
    reps = [solve(o, ConstraintSet.continuous(3), nu, E0, delta=0.2) for _ in range(2)]
    a, b = reps
    assert a.stop_reason == "mass_below_delta"
    assert len(a.iteration_trace) == len(b.iteration_trace) >= 2
    for ra, rb in zip(a.iteration_trace, b.iteration_trace):
        assert np.array_equal(ra.point, rb.point)
        assert (ra.value, ra.mass_after, ra.depth) == (rb.value, rb.mass_after, rb.depth)
        assert ra.depth >= 27.0 / 64.0 - 1e-12
    masses = [r.mass_after for r in a.iteration_trace]
    assert masses[-1] <= 0.2 < min(masses[:-1])


def test_mixed_mean_is_the_exact_fiber_weighted_mean():
    # n = 1, d = 2 on [0, 3] x [0, 1]^2: four unit squares, mean (1.5, .5, .5),
    # moved to the nearest fiber z = 1 (the first of the two tied)
    cube = MixedInteger(Polytope.from_box([0.0] * 3, [3.0, 1.0, 1.0]), 1, 2)
    assert _mixed_mean(cube) == pytest.approx([1.0, 0.5, 0.5], abs=1e-12)
    # the triangle fibers of {x >= 0, y >= 0, z >= 0, x + y + z <= 2}: areas
    # 2, 1/2, 0 (dropped) and centroids (2 - x)/3 in both coordinates
    simplex = MixedInteger(Polytope.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                                               [1, 1, 1, 2]]), 1, 2)
    want_c = (2.0 * 2.0 / 3.0 + 0.5 * 1.0 / 3.0) / 2.5
    assert _mixed_mean(simplex) == pytest.approx([0.0, want_c, want_c], abs=1e-12)
    # n = 1, d = 1 trapezoid: fiber z has [0, 1 + z], z = 0..2
    trap = MixedInteger(Polytope.from_rows([[-1, 0, 0], [1, 0, 2], [0, -1, 0], [-1, 1, 1]]),
                        1, 1)
    lengths = np.array([1.0, 2.0, 3.0])
    z = lengths @ [0.0, 1.0, 2.0] / lengths.sum()
    y = lengths @ (lengths / 2.0) / lengths.sum()
    assert z == pytest.approx(4.0 / 3.0)
    assert _mixed_mean(trap) == pytest.approx([1.0, y], abs=1e-12)


def test_mixed_mean_outside_its_polygon_fiber_moves_into_it():
    # {0 <= z <= 1, 2z <= y1 <= 2z + 1/2, 0 <= y2 <= 1}: the mean
    # (1/2, 5/4, 1/2) goes to fiber z = 0, whose square [0, 1/2] x [0, 1]
    # does not hold (5/4, 1/2); its nearest point there is (1/2, 1/2)
    P = Polytope.from_rows([[-1, 0, 0, 0], [1, 0, 0, 1], [2, -1, 0, 0], [-2, 1, 0, 0.5],
                            [0, 0, -1, 0], [0, 0, 1, 1]])
    m = MixedInteger(P, 1, 2)
    x = _mixed_mean(m)
    assert x == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert P.contains(x[None])[0]
    o = ConvexQuadratic(np.eye(3), np.array([0.5, 1.2, 0.5]))
    rep = solve(o, ConstraintSet.mixed(1, 2), m, Box(np.zeros(3), np.array([2.0, 3.0, 2.0])),
                0.1)
    assert P.contains(rep.iteration_trace[0].point[None])[0]
    assert rep.iteration_trace[0].depth > 0.0


BOX_432 = Polytope.from_box(np.zeros(3), [4.0, 3.0, 2.0])
BOX_632 = Polytope.from_box(np.zeros(3), [6.0, 3.0, 2.0])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("nu, S, hi", [
    (UniformPolytope(BOX_432), ConstraintSet.continuous(3), [4.0, 3.0, 2.0]),
    (MixedInteger(BOX_632, 1, 2), ConstraintSet.mixed(1, 2), [6.0, 3.0, 2.0]),
], ids=["uniform3d", "mixed12"])
def test_picks_without_an_exact_engine_record_their_removed_share(spy, seed, nu, S, hi):
    # 3D uniform and n = 1, d = 2 mixed Centerpoint picks sample no depth:
    # each trace row records the share its cut removes from the region the
    # pick was made in, and a 3D centroid removes at least (3/4)^3
    sampled = spy(depth_mod, "depth_sampled")
    E0 = Box(np.zeros(3), np.array(hi))
    o = ConvexQuadratic(np.eye(3), np.random.default_rng(seed).uniform(0.0, hi))
    rep = solve(o, S, nu, E0, 0.05)
    assert sampled == []
    assert rep.stop_reason in ("mass_below_delta", "empty_region")
    boxed = nu.restrict(tuple(E0.half_open_cuts()))
    m, best, rows = boxed, math.inf, rep.iteration_trace
    for i, row in enumerate(rows):
        best = min(best, row.value)
        u = epigraph_cut(row.point, row.value, row.subgradient, best).n
        removed = m.halfspace_mass(Halfspace.from_vector(-u, float(-u @ row.point)))
        assert row.depth == removed
        if isinstance(nu, UniformPolytope):
            assert row.depth >= 27.0 / 64.0 - 1e-12
        if i + 1 < len(rows):
            m = boxed.restrict(tuple(_open(epigraph_cut(r.point, r.value, r.subgradient, best))
                                     for r in rows[:i + 1]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_uniform_1d_centerpoint_solve_records_the_exact_depth(spy, seed):
    # a 1D Centerpoint pick is the interval's midpoint; each trace row holds
    # depth(m, x) of the region the pick was made in, the halving share
    picks = spy(cutplane_mod, "_pick")
    nu = UniformPolytope(Polytope.from_rows([[1, 5.5], [-1, 0.3]]))
    c = np.random.default_rng(seed).uniform(-0.3, 5.5, 1)
    rep = solve(ConvexQuadratic(np.eye(1), c), ConstraintSet.continuous(1), nu,
                Box([-1.0], [6.0]), 1e-3)
    rows = rep.iteration_trace
    assert rep.stop_reason == "mass_below_delta" and len(rows) == len(picks) >= 5
    for row, (_strategy, m, _i) in zip(rows, picks):
        assert row.depth == depth_mod.depth(m, row.point).value
        assert row.depth == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.best_point[0] - c[0]) <= 1e-3


@pytest.mark.xfail(strict=True, reason="the n = 2, d = 1 mixed mean sits on its fiber's "
                                       "boundary and its cuts remove almost nothing")
def test_mixed_n2_d1_centerpoint_solve_does_not_stall():
    # from iteration 9 on the pick is (2, 2, 1.3171...) and the region's mass
    # stays at 0.3769...; without a budget the solve makes 10,000 calls
    nu = MixedInteger(Polytope.from_box(np.zeros(3), [6.0, 5.0, 2.0]), 2, 1)
    o = ConvexQuadratic(np.eye(3), np.array([2.3, 1.6, 1.2]))
    rep = solve(o, ConstraintSet.mixed(2, 1), nu, Box(np.zeros(3), np.array([7.0, 6.0, 3.0])),
                0.05, budget=60)
    assert rep.stop_reason != "budget"


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


@pytest.mark.parametrize("d", [1, 2])
def test_solve_stops_when_a_repeated_query_removes_nothing(d):
    # at B = 2^40 the picks sit near 5.5e11, where the interior nudge of 1e-9
    # is below an ulp: the pick repeats the previous point, the game replays
    # its answer, and the cut keeps every bit of the mass; without the stop
    # the solve spins to its budget
    st = MixedFiber(1, d, 2 ** 40)
    rep = solve(Adversarial(st), game_constraint_set(st), game_measure(st), st.E0, 0.5,
                budget=40)
    assert rep.stop_reason == "stalled"
    assert rep.oracle_calls <= 3
    last, prev = rep.iteration_trace[-2:]
    assert np.array_equal(last.point, prev.point)
    assert last.mass_after == prev.mass_after


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
