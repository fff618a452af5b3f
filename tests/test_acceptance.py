"""Acceptance gate: eleven end-to-end criteria, one test per criterion so the
verbose run shows one pass/fail line each. Every criterion asserts its stated
tolerance and its wall-clock budget."""
import time

import numpy as np
from scipy.spatial import ConvexHull

from centercut.adversary import (ContinuousMedian, IntegerFiber,
                                 adversary_query, game_constraint_set,
                                 game_measure, is_consistent)
from centercut.centerpoint import (ConstraintSet, centerpoint_2d_integer,
                                   centerpoint_lenstra_mixed,
                                   centerpoint_mixed_2d,
                                   centerpoint_monte_carlo, centroid,
                                   mc_sample_size)
from centercut.cutplane import (Adversarial, AffineMax, Centerpoint, Centroid,
                                ConvexQuadratic, iteration_upper_bound,
                                mixed_gap_bound, solve)
from centercut.depth import depth_finite, min_direction_2d
from centercut.geom import Box, Polytope
from centercut.measures import (FinitePointMass, LatticeCounting, MixedInteger,
                                RngState, UniformPolytope)
from depth_oracles import depth_angle_grid

TRIANGLE = Polytope.from_vertices_2d([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
GRUNBAUM_2D = 4.0 / 9.0

_QUAD_RUNS = []   # criterion 7 solver runs, re-read by criterion 9
_GAME_RUNS = []   # criterion 8 game runs, re-read by criterion 11


def _passline(num, name, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s exceeds {budget}s"
    print(f"criterion {num:02d} {name}: PASS ({elapsed:.2f}s)")


def _random_lattice_polygons(seed, count, span, max_points):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        hullpts = rng.uniform(-span, span, size=(6, 2))
        try:
            P = Polytope.from_vertices_2d(hullpts[ConvexHull(hullpts).vertices])
            m = LatticeCounting(P)
        except Exception:
            continue
        if 3 <= len(m.active_points()) <= max_points:
            out.append((P, m.active_points()))
    return out


def _random_trapezoid(rng):
    # fibers x = 0..K with continuous block [0, h(x)], h linear and positive
    K = int(rng.integers(2, 5))
    h0, h1 = rng.uniform(0.5, 2.0, size=2)
    rows = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, float(K)],
                     [0.0, -1.0, 0.0], [(h0 - h1) / K, 1.0, h0]])
    return Polytope.from_rows(rows), K, float(h0), float(h1)


def _quadratic_runs():
    """50 seeded convex quadratics over the half-open lattice box [0,8)^2."""
    if not _QUAD_RUNS:
        nu = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
        E0 = Box(np.array([0.0, 0.0]), np.array([8.0, 8.0]))
        grid = np.array([[i, j] for i in range(8) for j in range(8)], dtype=float)
        rng = np.random.default_rng(909)
        for _ in range(50):
            A = rng.normal(size=(2, 2))
            Q = A.T @ A + 0.1 * np.eye(2)
            c = rng.uniform(0.0, 8.0, size=2)
            r = float(rng.uniform(-1.0, 1.0))
            rep = solve(ConvexQuadratic(Q, c, r), ConstraintSet.lattice(2),
                        nu, E0, 0.9)
            dif = grid - c
            vals = np.einsum("ij,jk,ik->i", dif, Q, dif) + r
            _QUAD_RUNS.append((rep, grid[int(np.argmin(vals))],
                               float(vals.min())))
    return _QUAD_RUNS


def _game_runs():
    """Centerpoint and centroid strategies against both resisting oracles."""
    if not _GAME_RUNS:
        specs = [
            (lambda: IntegerFiber(2, 8), 0.5, 8),
            (lambda: ContinuousMedian(Box(np.array([0.0, 0.0]),
                                          np.array([32.0, 32.0]))), 1.0, 9),
        ]
        for make, delta, want_lower in specs:
            for strategy in (Centerpoint(), Centroid()):
                st = make()
                rep = solve(Adversarial(st), game_constraint_set(st),
                            game_measure(st), st.E0, delta, strategy=strategy)
                _GAME_RUNS.append((st, rep, want_lower,
                                   isinstance(strategy, Centerpoint)))
    return _GAME_RUNS


def test_criterion_01_grunbaum_tightness():
    t0 = time.monotonic()
    m = UniformPolytope(TRIANGLE)
    v = min_direction_2d(m, centroid(m)).value
    assert abs(v - GRUNBAUM_2D) <= 1e-8
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        verts = rng.uniform(-5.0, 5.0, size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 0.2:
            continue
        mt = UniformPolytope(Polytope.from_vertices_2d(verts))
        assert min_direction_2d(mt, centroid(mt)).value >= GRUNBAUM_2D - 1e-8
        done += 1
    _passline(1, "grunbaum tightness 4/9", t0, 5.0)


def test_criterion_02_symmetry_half():
    t0 = time.monotonic()
    sq = UniformPolytope(Polytope.from_box([0.0, 0.0], [1.0, 1.0]))
    assert abs(min_direction_2d(sq, [0.5, 0.5]).value - 0.5) <= 1e-9
    for k in (1.0, 3.0, 5.0):   # even grids: center is not a lattice point
        g = LatticeCounting(Polytope.from_box([0.0, 0.0], [k, k]))
        assert abs(min_direction_2d(g, [k / 2.0, k / 2.0]).value - 0.5) <= 1e-9
    mx = MixedInteger(Polytope.from_box([0.0, 0.0], [2.0, 1.0]), 1, 1)
    assert abs(depth_angle_grid(mx, [1.0, 0.5], 1024).value - 0.5) <= 1e-9
    assert abs(min_direction_2d(mx, [1.0, 0.5]).value - 0.5) <= 1e-9
    _passline(2, "central symmetry depth 1/2", t0, 5.0)


def test_criterion_03_cross_engine_exact_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(5, 41))
        pts = rng.uniform(-3.0, 3.0, size=(n, 2))
        m = FinitePointMass(pts)
        for x in (pts.mean(axis=0), pts[0], rng.uniform(-1.0, 1.0, size=2)):
            assert depth_finite(pts, x).value == \
                depth_angle_grid(m, x, 100_000).value
    for _P, active in _random_lattice_polygons(505, 25, 5.0, 80):
        m = LatticeCounting(_P)
        for p in active:
            assert min_direction_2d(m, p).value == depth_finite(active, p).value
    _passline(3, "finite sweep equals dense angle oracle", t0, 60.0)


def test_criterion_04_helly_floors():
    t0 = time.monotonic()
    for P, _active in _random_lattice_polygons(404, 15, 7.0, 200):
        assert centerpoint_2d_integer(P).depth.value >= 0.25 - 1e-12
    rng = np.random.default_rng(1212)
    for _ in range(10):
        P, _K, _h0, _h1 = _random_trapezoid(rng)
        assert centerpoint_mixed_2d(MixedInteger(P, 1, 1)).depth.value \
            >= 0.25 - 1e-6
        assert centerpoint_lenstra_mixed(P, 1, 1).depth.value >= 0.125 - 1e-9
    _passline(4, "helly floors 1/4 lattice, 1/4 mixed, 1/8 lenstra", t0, 60.0)


def test_criterion_05_exact_integer_matches_brute_force():
    t0 = time.monotonic()
    for P, active in _random_lattice_polygons(707, 25, 8.0, 200):
        vals = np.array([depth_finite(active, p).value for p in active])
        res = centerpoint_2d_integer(P)
        assert res.depth.value == float(vals.max())
        tied = np.flatnonzero(vals >= vals.max() - 1e-12)
        want = active[tied[np.lexsort(active[tied].T[::-1])[0]]]
        assert np.array_equal(res.point, want.astype(float))
    _passline(5, "exact lattice centerpoint equals brute force", t0, 60.0)


def test_criterion_06_monte_carlo_triangle():
    t0 = time.monotonic()
    m = UniformPolytope(TRIANGLE)
    S = ConstraintSet.continuous(2)
    assert mc_sample_size(0.05, 0.1, 3) == 1061
    ok = 0
    for seed in range(100):
        res = centerpoint_monte_carlo(m, S, 0.05, 0.1, RngState(seed))
        assert res.samples_used == 1061
        if min_direction_2d(m, res.point).value >= GRUNBAUM_2D - 0.05:
            ok += 1
    assert ok >= 90
    _passline(6, f"monte carlo eps-centerpoint ({ok}/100 trials deep)", t0, 120.0)


def test_criterion_07_solver_exact_on_integer_quadratics():
    t0 = time.monotonic()
    assert iteration_upper_bound(0.25, 64.0, 0.9) == 15
    for rep, want_point, want_value in _quadratic_runs():
        assert np.array_equal(rep.best_point, want_point)
        assert abs(rep.best_value - want_value) <= 1e-9
        assert rep.bound_comparison[0] == 15
        assert rep.oracle_calls <= 15
    _passline(7, "solver exact on 50 lattice quadratics", t0, 120.0)


def test_criterion_08_adversarial_lower_bounds():
    t0 = time.monotonic()
    runs = _game_runs()
    assert len(runs) == 4
    for st, rep, want_lower, is_cp in runs:
        upper, lower = rep.bound_comparison
        assert lower == want_lower
        assert rep.oracle_calls >= lower
        if is_cp:
            assert rep.oracle_calls <= upper
    _passline(8, "resisting oracles force 8 and 9 calls", t0, 60.0)


def test_criterion_09_mass_contraction():
    runs = _quadratic_runs()   # generated under criterion 7's budget
    t0 = time.monotonic()
    base = LatticeCounting(Polytope.from_box([0.0, 0.0], [8.0, 8.0]))
    E0 = Box(np.array([0.0, 0.0]), np.array([8.0, 8.0]))
    assert base.restrict(tuple(E0.half_open_cuts())).total_mass == 64.0
    for rep, _p, _v in runs:
        prev = 64.0
        for row in rep.iteration_trace:
            assert row.mass_after <= prev + 1e-9
            if row.depth is not None:
                assert row.mass_after <= (1.0 - row.depth + 1e-6) * prev
            prev = row.mass_after
    _passline(9, "trace mass contracts by recorded depth", t0, 120.0)


def test_criterion_10_mixed_lipschitz_gap():
    t0 = time.monotonic()
    rng = np.random.default_rng(1111)
    for _ in range(20):
        P, K, h0, h1 = _random_trapezoid(rng)
        m = MixedInteger(P, 1, 1)
        L = float(rng.uniform(0.5, 2.0))
        # optimum held interior to its fiber span by more than delta/2,
        # so the sublevel ball that certifies the gap bound fits in the fiber
        t = float(rng.uniform(0.1, min(h0, h1) - 0.1))
        a = float(rng.uniform(-0.4, 0.4))
        o = AffineMax([(np.array([a, L]), -L * t), (np.array([a, -L]), L * t)])
        delta = float(rng.uniform(0.03, 0.15))
        E0 = Box(np.array([0.0, 0.0]), np.array([K + 1.0, max(h0, h1) + 0.5]))
        rep = solve(o, ConstraintSet.mixed(1, 1), m, E0, delta)
        truth = min(a * fz[0] + L * max(lo - t, t - hi, 0.0)
                    for fz, (lo, hi), _vol in m.fibers)
        assert rep.best_value - truth <= mixed_gap_bound(L, delta, 1) + 1e-9
        assert abs(mixed_gap_bound(L, delta, 1) - L * delta / 2.0) <= 1e-12
    _passline(10, "mixed gap within L*delta/2", t0, 120.0)


def test_criterion_11_adversary_replay_consistency():
    runs = _game_runs()   # generated under criterion 8's budget
    t0 = time.monotonic()
    for st, rep, _lo, _cp in runs:
        assert len(st.log) == rep.oracle_calls
        assert is_consistent(st)
        for rec in st.log:
            assert st.epigraph(rec.x)[0] == rec.value
            v, h = adversary_query(st, rec.x)
            assert v == rec.value
            assert np.array_equal(h, rec.h)
    _passline(11, "replay reproduces every recorded answer", t0, 10.0)
