"""Centerpoint routes: centroid witness, Monte Carlo, exact lattice and
mixed searches, and the width-based recursion."""
import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from centercut import centerpoint as cp_mod
from centercut import depth as depth_mod
from centercut.centerpoint import (CANDIDATE_CAP, ConstraintSet,
                                   _EVEN_DIRS, _arrangement_vertices,
                                   _depth_upper_bounds, _fiber_breakpoints,
                                   _halfplane_bounds, _lex_best, _project,
                                   _prune_directions, _pruned_lex_best,
                                   _topk_indices,
                                   centerpoint_2d_integer,
                                   centerpoint_lattice_measure,
                                   centerpoint_lenstra_mixed,
                                   centerpoint_mixed_2d,
                                   centerpoint_monte_carlo, centroid,
                                   depth_guarantee, mc_sample_size)
from centercut.depth import depth_finite, depth_sampled, min_direction_2d
from centercut.errors import BudgetExceeded, DimensionTooLarge, EmptyLattice
from centercut.geom import Polytope, convex_hull_2d, lattice_width_2d
from centercut.measures import (FinitePointMass, LatticeCounting, MixedInteger,
                                RngState, UniformPolytope)

TRIANGLE = Polytope.from_vertices_2d([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
STRIP = Polytope.from_box([0.0, 0.0], [2.0, 1.0])
GRUNBAUM_2D = 4.0 / 9.0


def _hull_polygon(pts):
    hull = ConvexHull(pts)
    return Polytope.from_vertices_2d(pts[hull.vertices])


def _random_trapezoid(rng):
    # fibers x = 0..K with continuous block [0, h(x)], h linear and positive
    K = int(rng.integers(2, 5))
    h0, h1 = rng.uniform(0.5, 2.0, size=2)
    rows = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, float(K)],
                     [0.0, -1.0, 0.0], [(h0 - h1) / K, 1.0, h0]])
    return Polytope.from_rows(rows), K


# ---------------------------------------------------------------------------
# centroid witness

def test_centroid_frozen():
    c = centroid(UniformPolytope(TRIANGLE))
    assert c == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    c = centroid(UniformPolytope(UNIT_SQUARE))
    assert c == pytest.approx([0.5, 0.5], abs=1e-12)


def test_centroid_triangle_depth_is_grunbaum():
    # the centroid floor (n/(n+1))^n is tight on every triangle
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        verts = rng.uniform(-5.0, 5.0, size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 0.2:
            continue
        m = UniformPolytope(Polytope.from_vertices_2d(verts))
        val = min_direction_2d(m, centroid(m)).value
        assert val >= GRUNBAUM_2D - 1e-8
        assert val <= GRUNBAUM_2D + 1e-6
        done += 1


# ---------------------------------------------------------------------------
# sample-size rule

def test_mc_sample_size_frozen():
    assert mc_sample_size(0.1, 0.1, 3) == 266
    assert mc_sample_size(1.0, 0.5, 1, C=1.0) == 2
    assert mc_sample_size(0.4, 0.5, 3) == 12
    assert mc_sample_size(0.15, 0.2, 3) == 103


def test_mc_sample_size_quadruples_before_ceiling():
    for eps, delta, vc in [(0.2, 0.1, 3), (0.5, 0.3, 2), (0.08, 0.05, 4)]:
        raw = 0.5 / (eps * eps) * (vc + math.log(1.0 / delta))
        assert mc_sample_size(eps, delta, vc) == math.ceil(raw)
        assert mc_sample_size(eps / 2.0, delta, vc) == math.ceil(4.0 * raw)


def test_mc_sample_size_validation():
    for eps, delta in [(0.0, 0.1), (1.5, 0.1), (0.1, 0.0), (0.1, 1.0), (-0.2, 0.5)]:
        with pytest.raises(ValueError):
            mc_sample_size(eps, delta, 3)


# ---------------------------------------------------------------------------
# constraint sets and guarantees

def test_constraint_set_dims():
    assert ConstraintSet.continuous(2).dim == 2
    assert ConstraintSet.lattice(2) == ConstraintSet("lattice", 2, 0)
    assert ConstraintSet.mixed(1, 1).dim == 2
    with pytest.raises(ValueError):
        ConstraintSet("fuzzy", 1, 1)
    with pytest.raises(ValueError):
        ConstraintSet.continuous(0)


def test_depth_guarantee_table():
    g = depth_guarantee(ConstraintSet.continuous(2))
    assert (g.helly, g.floor, g.grunbaum_floor) == (3, 1.0 / 3.0, GRUNBAUM_2D)
    g = depth_guarantee(ConstraintSet.continuous(1))
    assert (g.helly, g.floor, g.grunbaum_floor) == (2, 0.5, 0.5)
    g = depth_guarantee(ConstraintSet.lattice(2))
    assert (g.helly, g.floor) == (4, 0.25)
    assert g.grunbaum_floor is None and g.lenstra_floor is None
    g = depth_guarantee(ConstraintSet.mixed(1, 1))
    assert (g.helly, g.floor) == (4, 0.25)
    g = depth_guarantee(ConstraintSet.mixed(2, 1))
    assert (g.helly, g.floor) == (8, 0.125)


# ---------------------------------------------------------------------------
# Monte Carlo route

def test_mc_deterministic_per_seed():
    m = UniformPolytope(TRIANGLE)
    S = ConstraintSet.continuous(2)
    a = centerpoint_monte_carlo(m, S, 0.15, 0.2, RngState(11))
    b = centerpoint_monte_carlo(m, S, 0.15, 0.2, RngState(11))
    assert np.array_equal(a.point, b.point)
    assert a.depth.value == b.depth.value
    assert a.samples_used == b.samples_used == 103
    c = centerpoint_monte_carlo(m, S, 0.15, 0.2, RngState(12))
    assert not np.array_equal(a.point, c.point)


def test_mc_square_near_center():
    m = UniformPolytope(UNIT_SQUARE)
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.02, 0.1,
                                  RngState(5))
    assert np.abs(res.point - 0.5).max() <= 0.1
    assert res.depth.value >= 0.5 - 0.05
    assert res.method == "mc"


def test_mc_maximizer_dominates_sample_points():
    # the returned point is at least as deep as every sample point
    m = UniformPolytope(TRIANGLE)
    eps, delta = 0.15, 0.2
    N = mc_sample_size(eps, delta, 3)
    pts = m.sample(RngState(9), N)
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), eps, delta,
                                  RngState(9))
    assert res.samples_used == N
    best_sample = max(depth_finite(pts, p).value for p in pts)
    assert res.depth.value >= best_sample - 1e-12


def test_mc_exhaustive_arrangement_branch():
    # 12 samples: the full line arrangement fits under the size limit
    m = UniformPolytope(UNIT_SQUARE)
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.4, 0.5,
                                  RngState(21))
    assert res.samples_used == 12
    pts = m.sample(RngState(21), 12)
    best_sample = max(depth_finite(pts, p).value for p in pts)
    assert res.depth.value >= best_sample - 1e-12


def test_mc_continuous_1d_and_3d():
    m1 = UniformPolytope(Polytope.from_box([0.0], [1.0]))
    r1 = centerpoint_monte_carlo(m1, ConstraintSet.continuous(1), 0.3, 0.3,
                                 RngState(2))
    pts = m1.sample(RngState(2), r1.samples_used)
    assert r1.depth.value >= max(depth_finite(pts, p).value for p in pts) - 1e-12
    assert abs(r1.point[0] - 0.5) <= 0.3

    m3 = UniformPolytope(Polytope.from_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]))
    r3 = centerpoint_monte_carlo(m3, ConstraintSet.continuous(3), 0.3, 0.3,
                                 RngState(2))
    pts = m3.sample(RngState(2), r3.samples_used)
    assert r3.point.shape == (3,)
    assert r3.depth.value >= max(depth_finite(pts, p).value for p in pts) - 1e-12


@pytest.mark.parametrize("poly", [Polytope.from_box([0.0], [1.0]), TRIANGLE,
                                  Polytope.from_box([0.0] * 3, [1.0, 2.0, 0.5])])
def test_monte_carlo_result_is_the_searchs_own_depth(spy, poly):
    # the winner's depth comes from the search itself: a 2D query makes no
    # depth_finite call after its kernel rows, and 1D and 3D queries make
    # one per candidate; the witness attains the value
    calls = spy(cp_mod, "depth_finite")
    m = UniformPolytope(poly)
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(poly.dim), 0.2, 0.2,
                                  RngState(4))
    assert len(calls) == (0 if poly.dim == 2 else res.samples_used)
    pts = m.sample(RngState(4), res.samples_used)
    want = depth_finite(pts, res.point)
    assert (res.depth.value, res.depth.exact, res.depth.gap) == (want.value, True, 0.0)
    assert np.array_equal(res.depth.witness.coords, want.witness.coords)
    rel = pts - res.point
    scale = max(1.0, float(np.abs(rel).max()))
    kept = np.count_nonzero(rel @ res.depth.witness.coords >= -1e-12 * scale) / len(pts)
    assert kept == pytest.approx(res.depth.value, abs=1e-12)


def test_mc_lattice_frozen():
    m = LatticeCounting(Polytope.from_box([0.0, 0.0], [4.0, 4.0]))
    res = centerpoint_monte_carlo(m, ConstraintSet.lattice(2), 0.2, 0.2,
                                  RngState(3))
    assert np.array_equal(res.point, [2.0, 2.0])
    assert res.samples_used == 58
    assert np.array_equal(res.point, np.round(res.point))
    assert res.depth.exact


def test_mc_mixed_feasible():
    m = MixedInteger(STRIP, 1, 1)
    res = centerpoint_monte_carlo(m, ConstraintSet.mixed(1, 1), 0.2, 0.2,
                                  RngState(6))
    z = res.point[0]
    assert z == round(z)
    spans = {float(fz[0]): payload for fz, payload, _v in m.fibers}
    lo, hi = spans[z]
    assert lo - 1e-9 <= res.point[1] <= hi + 1e-9
    assert res.depth.exact


def _arrangement_by_loop(pts):
    """Reference: lines through every pair of points, then every pair of
    lines with four distinct endpoints intersected one at a time, both in
    combinations order."""
    lines = []
    for i, j in itertools.combinations(range(len(pts)), 2):
        p, q = pts[i], pts[j]
        d = q - p
        n = np.array([-d[1], d[0]])
        lines.append(({i, j}, n, float(n @ p)))
    out = []
    for (ends1, n1, c1), (ends2, n2, c2) in itertools.combinations(lines, 2):
        if ends1 & ends2:
            continue
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if abs(det) <= 1e-12:
            continue
        out.append([(c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det])
    return np.array(out).reshape(-1, 2)


def test_arrangement_vertices_match_pairwise_loop():
    """Bit for bit, with parallel and repeated lines from integer points."""
    gen = np.random.default_rng(77)
    sets = [gen.uniform(-3.0, 3.0, size=(n, 2)) for n in (0, 1, 2, 5, 9, 14)]
    sets += [gen.integers(0, 4, size=(n, 2)).astype(float) for n in (6, 10)]
    for pts in sets:
        want = _arrangement_by_loop(pts)
        got = _arrangement_vertices(pts, CANDIDATE_CAP)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # the cap counts kept vertices, as the loop's early exit did
    kept = len(_arrangement_by_loop(sets[3]))
    with pytest.raises(BudgetExceeded):
        _arrangement_vertices(sets[3], kept - 1)
    assert len(_arrangement_vertices(sets[3], kept)) == kept


def test_arrangement_vertices_of_general_position_points():
    """n points in general position: every 4-subset gives its three
    pairings' crossings, and none of them is a sample point again."""
    for seed, n in [(1, 4), (2, 5), (3, 7), (4, 9), (5, 12)]:
        pts = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 2))
        # general position: no three points near a line
        for a, b, c in itertools.combinations(pts, 3):
            e1, e2 = b - a, c - a
            assert abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-6
        got = _arrangement_vertices(pts, CANDIDATE_CAP)
        assert len(got) == 3 * math.comb(n, 4)
        gap = np.linalg.norm(got[:, None, :] - pts[None, :, :], axis=2)
        assert gap.min(initial=np.inf) > 1e-9


@pytest.mark.parametrize("poly,eps,seed", [(UNIT_SQUARE, 0.4, 21), (TRIANGLE, 0.4, 3),
                                           (STRIP, 0.35, 8)])
def test_mc_exhaustive_branch_is_the_brute_force_pick(poly, eps, seed):
    """The sample points and every crossing of lines with four distinct
    endpoints, each through depth_finite: the query returns the
    lexicographically smallest candidate within 1e-12 of the deepest."""
    m = UniformPolytope(poly)
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), eps, 0.5,
                                  RngState(seed))
    pts = m.sample(RngState(seed), res.samples_used)
    assert len(pts) <= 20   # the full arrangement fits under ARRANGEMENT_LIMIT
    cand = np.vstack([pts, _arrangement_by_loop(pts)])
    vals = np.array([depth_finite(pts, c).value for c in cand])
    tied = cand[vals >= vals.max() - 1e-12]
    want = tied[np.lexsort(tied.T[::-1])[0]]
    assert np.array_equal(res.point, want)
    assert abs(res.depth.value - vals.max()) <= 1e-12


def test_mc_tie_heavy_query_skips_rounded_copies_of_its_samples(spy):
    """A query whose deepest sample point attains the maximum: a crossing
    of two lines through that point would be a rounded copy of it, tied
    within 1e-12, and would take an exact kernel row to lose the
    tie-break."""
    m = UniformPolytope(Polytope.from_vertices_2d(
        [[0.006138519906864204, -3.3117597435096204],
         [2.649304242374585, 1.2792751122520771],
         [2.1883164861823614, 3.635874468442511]]))
    calls = spy(depth_mod, "_sweep_counting_min_batch")
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1,
                                  RngState(121658689))
    assert sum(len(c) for c, _pts, _w in calls) <= 60
    assert res.point.tolist() == [1.6170224816648038, 0.5365573052081754]
    assert res.depth.value == 0.4429783223374175


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mc_continuous_sample_above_the_cap_is_not_drawn(spy, dim):
    # every sample point of a continuous S is a candidate, so a sample above
    # the cap raises before any point is drawn
    m = UniformPolytope(Polytope.from_box(np.zeros(dim), np.ones(dim)))
    calls = spy(UniformPolytope, "sample")
    N = mc_sample_size(0.3, 0.3, dim + 1)
    with pytest.raises(BudgetExceeded, match=f"{N} sample points exceed cap {N - 1}"):
        centerpoint_monte_carlo(m, ConstraintSet.continuous(dim), 0.3, 0.3, RngState(0),
                                candidate_cap=N - 1)
    assert calls == []


def test_mc_mixed_sample_above_the_cap_is_not_drawn(spy):
    # every sample point of an n=1, d=1 mixed S is a candidate too: the
    # [0,2]x[0,1] document with --eps 0.0016 drew 1,035,671 candidates
    # before its cap check
    calls = spy(MixedInteger, "sample")
    N = mc_sample_size(0.3, 0.3, 3)
    with pytest.raises(BudgetExceeded, match=f"{N} sample points exceed cap {N - 1}"):
        centerpoint_monte_carlo(MixedInteger(STRIP, 1, 1), ConstraintSet.mixed(1, 1), 0.3,
                                0.3, RngState(0), candidate_cap=N - 1)
    assert calls == []


def test_mc_lattice_sample_above_the_cap_is_not_drawn(spy):
    # a lattice S holds its whole sample as well, so the cap raises before
    # any point is drawn: --eps 1e-6 would ask for 19.3 TiB of them
    calls = spy(LatticeCounting, "sample")
    N = mc_sample_size(0.3, 0.3, 3)
    with pytest.raises(BudgetExceeded, match=f"{N} sample points exceed cap {N - 1}"):
        centerpoint_monte_carlo(LatticeCounting(Polytope.from_box([0.0, 0.0], [9.0, 9.0])),
                                ConstraintSet.lattice(2), 0.3, 0.3, RngState(0),
                                candidate_cap=N - 1)
    assert calls == []


def test_mc_candidate_cap():
    m = LatticeCounting(Polytope.from_box([0.0, 0.0], [9.0, 9.0]))
    with pytest.raises(BudgetExceeded):
        centerpoint_monte_carlo(m, ConstraintSet.lattice(2), 0.3, 0.3,
                                RngState(0), candidate_cap=3)


@pytest.mark.parametrize("m", [
    UniformPolytope(Polytope.from_box([0.2, 0.2], [0.8, 0.8])),
    FinitePointMass([[0.2, 0.3], [0.7, 0.4], [0.5, 0.8]]),
])
def test_mc_lattice_candidates_need_an_integer_point(m):
    # the support's bounding box holds no integer point: no candidate at all
    with pytest.raises(EmptyLattice):
        centerpoint_monte_carlo(m, ConstraintSet.lattice(2), 0.3, 0.3, RngState(0))


@pytest.mark.parametrize("top", [10 ** 19, 10 ** 20])
@pytest.mark.parametrize("family", ["finite", "uniform"])
def test_mc_lattice_candidates_past_the_int64_range_raise_budget_exceeded(family, top):
    # the bounds lie past 2**63, where no int64 holds them
    m = (FinitePointMass([[0.0, 0.0], [float(top), 1.0]]) if family == "finite" else
         UniformPolytope(Polytope.from_box([0.0, 0.0], [float(top), 1.0])))
    with pytest.raises(BudgetExceeded, match="lattice candidate grid exceeds cap"):
        centerpoint_monte_carlo(m, ConstraintSet.lattice(2), 0.3, 0.3, RngState(0))


# ---------------------------------------------------------------------------
# exact 2D lattice route

def test_exact_integer_frozen_grid():
    # 3x3 grid: every line through the center splits the other 8 points 4/4
    res = centerpoint_2d_integer(Polytope.from_box([0.0, 0.0], [2.0, 2.0]))
    assert np.array_equal(res.point, [1.0, 1.0])
    assert res.depth.value == 5.0 / 9.0
    assert res.depth.exact and res.depth.gap == 0.0
    assert res.method == "exact2d-int"
    assert res.guarantee.floor == 0.25


def test_exact_integer_collinear_segment():
    res = centerpoint_2d_integer(Polytope.from_vertices_2d([[0.0, 0.0], [4.0, 0.0]]))
    assert np.array_equal(res.point, [2.0, 0.0])
    assert res.depth.value == 3.0 / 5.0


def test_exact_integer_matches_brute_force():
    rng = np.random.default_rng(77)
    done = 0
    while done < 12:
        P = _hull_polygon(rng.uniform(-6.0, 6.0, size=(6, 2)))
        try:
            m = LatticeCounting(P)
        except Exception:
            continue
        active = m.active_points()
        if not 3 <= len(active) <= 120:
            continue
        vals = np.array([depth_finite(active, p).value for p in active])
        top = float(vals.max())
        tied = np.flatnonzero(vals >= top - 1e-12)
        want = active[tied[np.lexsort(active[tied].T[::-1])[0]]]

        res = centerpoint_2d_integer(P)
        assert res.depth.value == top
        assert np.array_equal(res.point, want.astype(float))
        assert res.depth.value >= 0.25 - 1e-12   # lattice Helly floor
        done += 1


def test_exact_integer_empty_and_budget():
    with pytest.raises(EmptyLattice):
        centerpoint_2d_integer(Polytope.from_box([0.2, 0.1], [0.8, 0.9]))
    with pytest.raises(BudgetExceeded):
        centerpoint_2d_integer(Polytope.from_box([0.0, 0.0], [9.0, 9.0]), cap=10)
    with pytest.raises(DimensionTooLarge):
        centerpoint_lattice_measure(LatticeCounting(Polytope.from_box([0.0] * 3, [2.0] * 3)))


def test_translation_equivariance():
    verts = np.array([[0.0, 0.0], [5.0, 1.0], [6.0, 4.0], [2.0, 5.0]])
    t = np.array([3.0, -2.0])
    a = centerpoint_2d_integer(Polytope.from_vertices_2d(verts))
    b = centerpoint_2d_integer(Polytope.from_vertices_2d(verts + t))
    assert np.array_equal(b.point, a.point + t)
    assert b.depth.value == a.depth.value

    ma = LatticeCounting(Polytope.from_vertices_2d(verts))
    mb = LatticeCounting(Polytope.from_vertices_2d(verts + t))
    S = ConstraintSet.lattice(2)
    ra = centerpoint_monte_carlo(ma, S, 0.2, 0.2, RngState(7))
    rb = centerpoint_monte_carlo(mb, S, 0.2, 0.2, RngState(7))
    assert np.array_equal(rb.point, ra.point + t)


# ---------------------------------------------------------------------------
# exact mixed route

def test_exact_mixed_strip():
    res = centerpoint_mixed_2d(MixedInteger(STRIP, 1, 1))
    assert np.array_equal(res.point, [1.0, 0.5])
    # 0.5 up to the rounding of the cut offset in halfspace_masses
    assert res.depth.value == pytest.approx(0.5, abs=1e-15)
    assert res.method == "exact-mixed"


def _mixed_trapezoids(seed, fibers):
    """Seeded trapezoids with the given fiber counts: fibers z = 0..K with
    a block between two affine bounds, so the fibers have unequal ends."""
    gen = np.random.default_rng(seed)
    out = []
    for F in fibers:
        K = F - 1
        b0, b1 = gen.uniform(-1.0, 1.0, 2)
        t0, t1 = b0 + gen.uniform(0.2, 2.5), b1 + gen.uniform(0.2, 2.5)
        rows = [[-1, 0, 0], [1, 0, K], [(b1 - b0) / max(K, 1), -1, -b0],
                [(t0 - t1) / max(K, 1), 1, t0]]
        out.append(MixedInteger(Polytope.from_rows(rows), 1, 1))
    return out


def _unpruned_mixed_pick(m):
    """The exact fiber search without its bracket and pruning: every
    breakpoint of every fiber and every column crossing inside every
    interval, evaluated from the cut family."""
    cand, vals = [], []
    for z0, lo, hi in zip(m._z[:, 0], m._lo, m._hi):
        ys = _fiber_breakpoints(m, z0, lo, hi)
        V = depth_mod._mixed_cuts(m, z0, ys)[1]
        for q in range(len(ys) - 1):
            a, b = V[q], V[q + 1]
            for i, j in itertools.combinations(range(len(a)), 2):
                den = (a[i] - a[j]) - (b[i] - b[j])
                if den == 0.0:
                    continue
                t = (a[i] - a[j]) / den
                h = ys[q + 1] - ys[q]
                if t * h > 1e-12 * max(1.0, hi - lo) and (1 - t) * h > 1e-12 * max(1.0, hi - lo):
                    cand.append([z0, ys[q] + t * h])
                    vals.append(float(np.min(a + (b - a) * t)))
        cand += [[z0, y] for y in ys]
        vals += list(V.min(axis=1))
    return np.array(cand[_lex_best(cand, vals)])


def test_exact_mixed_beats_a_dense_grid():
    """On trapezoids with 1-7 fibers the pick is at least as deep as the best
    point of a 300-point grid on every fiber, and the reported depth is the
    engine's depth at the pick."""
    for m in _mixed_trapezoids(2727, [1, 1, 2, 3, 4, 5, 6, 7]):
        res = centerpoint_mixed_2d(m)
        grid = max(min_direction_2d(m, np.array([z[0], y])).value
                   for z, (lo, hi), _v in m.fibers for y in np.linspace(lo, hi, 300))
        assert res.depth.value >= grid - 1e-12
        assert res.depth.value == min_direction_2d(m, res.point).value
        assert res.depth.exact and res.depth.gap == 0.0


def test_exact_mixed_pruning_keeps_the_pick(spy):
    """The quasi-concave bracket and the fiber bound leave the pick of the
    unpruned search unchanged, ties included, and a wide region searches
    only the fibers near its middle."""
    boxes = [MixedInteger(Polytope.from_box([0.0, 0.0], [float(K), 1.0]), 1, 1)
             for K in (1, 2, 4, 6)]
    for m in _mixed_trapezoids(3131, [1, 2, 3, 5, 7, 9]) + boxes:
        assert np.array_equal(centerpoint_mixed_2d(m).point, _unpruned_mixed_pick(m))
    calls = spy(cp_mod, "_fiber_search")
    wide = _mixed_trapezoids(4141, [41])[0]
    res = centerpoint_mixed_2d(wide)
    assert len(calls) < 8
    assert res.depth.value >= max(min_direction_2d(wide, np.array([z[0], y])).value
                                  for z, (lo, hi), _v in wide.fibers[15:26]
                                  for y in np.linspace(lo, hi, 50)) - 1e-12


def test_mixed_cut_columns_are_linear_between_breakpoints():
    """Exactness rests on this: between consecutive breakpoints every column
    of the cut family is linear in y, so its value at the midpoint is the
    mean of its end values."""
    for m in _mixed_trapezoids(5353, [2, 3, 4, 6, 7]):
        for z0, lo, hi in zip(m._z[:, 0], m._lo, m._hi):
            ys = _fiber_breakpoints(m, z0, lo, hi)
            ends = depth_mod._mixed_cuts(m, z0, ys)[1]
            mids = depth_mod._mixed_cuts(m, z0, (ys[:-1] + ys[1:]) / 2.0)[1]
            assert np.abs(mids - (ends[:-1] + ends[1:]) / 2.0).max() <= 1e-12


def test_exact_mixed_at_least_recursion():
    # the per-fiber search never does worse than the width-based recursion
    rng = np.random.default_rng(15)
    for _ in range(6):
        P, _K = _random_trapezoid(rng)
        exact = centerpoint_mixed_2d(MixedInteger(P, 1, 1))
        rec = centerpoint_lenstra_mixed(P, 1, 1)
        assert exact.depth.value >= rec.depth.value - 1e-12


# ---------------------------------------------------------------------------
# width-based recursion

def test_lenstra_strip_frozen():
    res = centerpoint_lenstra_mixed(STRIP, 1, 1)
    assert np.array_equal(res.point, [1.0, 0.5])
    assert res.depth.value == pytest.approx(0.5, abs=1e-9)
    assert res.method == "lenstra"
    assert res.guarantee.lenstra_floor == 0.125
    assert (res.guarantee.helly, res.guarantee.floor) == (4, 0.25)


def test_lenstra_wide_branch():
    res = centerpoint_lenstra_mixed(Polytope.from_box([0.0, 0.0], [70.0, 1.0]), 1, 1)
    assert res.point[0] == 35.0
    assert res.depth.value == pytest.approx(0.5, abs=1e-9)


def test_lenstra_empty_lattice():
    with pytest.raises(EmptyLattice):
        centerpoint_lenstra_mixed(Polytope.from_box([0.2, 0.0], [0.8, 1.0]), 1, 1)


def test_lenstra_random_trapezoids():
    rng = np.random.default_rng(99)
    for _ in range(20):
        P, _K = _random_trapezoid(rng)
        m = MixedInteger(P, 1, 1)
        res = centerpoint_lenstra_mixed(P, 1, 1)
        z = res.point[0]
        assert z == round(z)
        spans = {float(fz[0]): payload for fz, payload, _v in m.fibers}
        lo, hi = spans[z]
        assert lo - 1e-9 <= res.point[1] <= hi + 1e-9
        # independent exact recheck of the certified depth
        again = min_direction_2d(m, res.point).value
        assert again == res.depth.value
        assert again >= 0.125 - 1e-9   # width-based recursion floor
        # a direction subsample can only overestimate the depth
        sampled = depth_sampled(m, res.point, 500, RngState(1)).value
        assert sampled >= again - 1e-12


def test_lenstra_two_integer_blocks():
    P = Polytope.from_box([0.0, 0.0, 0.0], [3.0, 3.0, 1.0])
    res = centerpoint_lenstra_mixed(P, 2, 1)
    assert np.array_equal(res.point[:2], np.round(res.point[:2]))
    assert P.contains(res.point)
    assert res.guarantee.lenstra_floor == 1.0 / 128.0
    assert res.depth.value >= 1.0 / 128.0 - 1e-9
    assert not res.depth.exact

    wide = centerpoint_lenstra_mixed(P, 2, 1, omega_bar=2.0)
    assert np.array_equal(wide.point[:2], np.round(wide.point[:2]))
    assert P.contains(wide.point)
    assert wide.depth.value >= 1.0 / 128.0 - 1e-9


def test_lenstra_builds_each_slice_measure_once(monkeypatch):
    """The recursion hands each slice's measure to the n=1 step, so no
    polytope is built twice, and the points keep their frozen values."""
    hexagon = Polytope.from_vertices_2d([[0, 0], [4, 1], [5, 3], [3, 5], [1, 4], [-1, 2]])
    rows = [[-h.n[0], -h.n[1], 0.0, -h.offset] for h in hexagon.constraints]
    rows += [[0.0, 0.0, -1.0, 0.0], [-0.1, 0.05, 1.0, 1.5]]
    built = []
    init = MixedInteger.__init__

    def counted(self, polytope, *args, **kwargs):
        built.append(polytope)   # holding them keeps every id distinct
        init(self, polytope, *args, **kwargs)

    monkeypatch.setattr(MixedInteger, "__init__", counted)
    for P, want in ((Polytope.from_box([0.0, 0.0, 0.0], [3.0, 3.0, 1.0]), [1.0, 1.0, 0.5]),
                    (Polytope.from_rows(rows), [2.0, 2.0, 0.8])):
        built.clear()
        assert centerpoint_lenstra_mixed(P, 2, 1).point.tolist() == want
        assert len(built) > 2
        assert len({id(q) for q in built}) == len(built)


def test_lenstra_projection_is_the_convex_hull():
    P = Polytope.from_box([0.0, 0.0, 0.0], [3.0, 3.0, 1.0])
    proj = convex_hull_2d(P.vertices()[:, [0, 1]])
    assert proj.tolist() == [[0, 0], [3, 0], [3, 3], [0, 3]]
    w, u = lattice_width_2d(Polytope.from_vertices_2d(proj))
    assert (w, u.tolist()) == (3.0, [1, 0])


def test_lenstra_validation():
    P = Polytope.from_box([0.0, 0.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        centerpoint_lenstra_mixed(P, 0, 1)
    with pytest.raises(ValueError):
        centerpoint_lenstra_mixed(Polytope.from_box([0.0] * 4, [1.0] * 4), 3, 1)
    with pytest.raises(ValueError):
        centerpoint_lenstra_mixed(Polytope.from_box([0.0] * 3, [1.0] * 3), 1, 2)


# ---------------------------------------------------------------------------
# shape-adapted pruning and result memory

def _thin_triangles(seed, count):
    gen = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = gen.uniform(-5.0, 5.0, size=(3, 2))
        e1, e2 = v[1] - v[0], v[2] - v[0]
        if 0.05 <= abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2.0 <= 0.2:
            out.append(UniformPolytope(Polytope.from_vertices_2d(v)))
    return out


def _weighted_collinear_sets(seed, count):
    # grid points have many collinear triples; candidates add pair midpoints
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pts = gen.integers(0, 5, size=(40, 2)).astype(float)
        w = gen.integers(1, 4, size=40).astype(float)
        i, j = gen.integers(0, 40, size=(2, 30))
        out.append((pts, np.vstack([pts, (pts[i] + pts[j]) / 2.0]), w))
    return out


def _bound_and_search_cases():
    cases = []
    for k, m in enumerate(_thin_triangles(7, 5)):
        pts = m.sample(RngState(k), 300)
        extra = m.sample(RngState(100 + k), 60) * 1.01
        cases.append((pts, np.vstack([pts, extra]), np.ones(len(pts))))
        # near 1e6, with candidates far outside the hull
        far = pts + 1e6
        outside = 1e6 + 50.0 * np.random.default_rng(k).normal(size=(20, 2))
        cases.append((far, np.vstack([far, extra + 1e6, outside]), np.ones(len(pts))))
    gen = np.random.default_rng(9)
    for _ in range(3):   # duplicated points with weights, near 1e6
        pts = 1e6 + gen.integers(0, 5, size=(30, 2)).astype(float)
        pts = np.vstack([pts, pts[:10], pts[:5]])
        w = gen.integers(1, 4, size=len(pts)).astype(float)
        cases.append((pts, np.vstack([pts, pts[:6] + 0.5, [[0.0, 0.0], [3e6, -1e6]]]), w))
    return cases + _weighted_collinear_sets(8, 5)


def test_adapted_upper_bounds_are_sound_and_search_matches_brute_force():
    for pts, cand, w in _bound_and_search_cases():
        exact = depth_mod._sweep_counting_min_batch(cand, pts, w)[0] / w.sum()
        # weighted sums are taken in another order here than in the bound
        assert np.all(_depth_upper_bounds(pts, cand, w) >= exact - 1e-12)
        k, res = _pruned_lex_best(pts, cand, w)
        assert k == _lex_best(cand, exact) and res.value == exact[k]


def _returns(monkeypatch, name):
    """Wrap ``centerpoint.<name>`` for one test; the list gets each call's
    return value."""
    out = []
    real = getattr(cp_mod, name)

    def wrapped(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(cp_mod, name, wrapped)
    return out


def test_monte_carlo_bounds_each_sample_once(spy, monkeypatch):
    # the sample is projected and sorted along the prune directions once per
    # query; that table bounds the samples in the top-k search and screens
    # the arrangement vertices against the best depth it found, whose
    # survivors alone get full bounds; the pick is the one a fresh pass over
    # every candidate makes
    bounds = spy(cp_mod, "_depth_upper_bounds")
    searches = spy(cp_mod, "_pruned_lex_best")
    deepest = spy(cp_mod, "_deepest_depths")
    tables = _returns(monkeypatch, "_project")
    halfplane = spy(cp_mod, "_halfplane_bounds")
    dirs = _returns(monkeypatch, "_prune_directions")
    screens = _returns(monkeypatch, "_slab_screen")
    screen_calls = spy(cp_mod, "_slab_screen")
    hexagon = _hull_polygon(np.array([[0.0, 0.0], [3.0, -1.0], [5.0, 1.0], [4.0, 4.0],
                                      [1.0, 4.5], [-1.0, 2.0]]))
    runs = []
    tightened = 0
    for k, m in enumerate(_thin_triangles(11, 2) + [UniformPolytope(hexagon)]):
        for calls in (bounds, searches, deepest, tables, halfplane, dirs, screens,
                      screen_calls):
            calls.clear()
        res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1, RngState(k))
        (pts, cand), = [call[:2] for call in searches]
        assert len(cand) > len(pts)
        assert bounds == [] and len(dirs) == 1
        tab, = [t for t in tables if t.U is dirs[0]]
        assert tab.pts is pts
        (top_call, cand_call), = [[call for call in halfplane if call[0] is tab]]
        assert top_call[1] is pts and len(top_call) == 2
        top_vals, top_ub = deepest[0][4], deepest[0][5]
        floor = cand_call[2]
        assert floor == np.nanmax(top_vals) - 1e-12 > 0.0
        assert np.array_equal(cand_call[1], cand[len(pts):])
        # one screen of the arrangement vertices, along the prune directions,
        # and most of them fall out
        (live, low), = [got for call, got in zip(screen_calls, screens) if call[0] is tab]
        assert len(live) == len(cand) - len(pts) and 0 < live.sum() < len(live) / 2
        cand_ub = deepest[1][5]
        assert np.array_equal(cand_ub[:len(pts)], top_ub)
        assert np.all(cand_ub[len(pts):][~live] == low) and low < floor
        # every other screen is a tightening pass: one per bound call along
        # witness directions, against that search's positive threshold
        tight = [call for call in halfplane if call[0] is not tab]
        assert all(t.U is not dirs[0] and t.pts is pts for t in tables if t is not tab)
        assert [call[0] for call in screen_calls if call[0] is not tab] == \
            [call[0] for call in tight]
        assert all(len(call) == 3 and call[2] > 0.0 for call in tight)
        tightened += len(tight)
        runs.append((m, k, res))
    assert tightened > 0
    real = cp_mod._continuous_candidates_2d
    monkeypatch.setattr(cp_mod, "_continuous_candidates_2d",
                        lambda pts, cap: (real(pts, cap)[0], None))
    for m, k, res in runs:
        bounds.clear()
        fresh = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1, RngState(k))
        assert len(bounds[-1][1]) == len(searches[-1][1])   # every candidate bounded
        assert np.array_equal(fresh.point, res.point)
        assert (fresh.depth.value, fresh.depth.exact, fresh.depth.gap) == \
            (res.depth.value, res.depth.exact, res.depth.gap)
        assert np.array_equal(fresh.depth.witness.coords, res.depth.witness.coords)


def test_monte_carlo_on_collinear_samples():
    # the sample lines all coincide, so no arrangement vertex is left to bound
    m = FinitePointMass([[i, 2 * i + 1] for i in range(30)])
    res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1, RngState(3))
    assert res.point.tolist() == [14.0, 29.0]


def test_prune_directions_adapt_only_to_elongated_clouds():
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    line = np.array([[i, 2.0 * i + 1.0] for i in range(6)])
    for pts in (grid, line, grid * [1.0, 1.9]):   # principal moments within 4x
        assert _prune_directions(pts, np.ones(len(pts))) is _EVEN_DIRS
    for m in _thin_triangles(3, 3):
        pts = m.sample(RngState(0), 200)
        U = _prune_directions(pts, np.ones(len(pts)))
        assert U.shape == _EVEN_DIRS.shape and not np.allclose(U, _EVEN_DIRS)
        assert np.allclose(np.hypot(U[:, 0], U[:, 1]), 1.0)


def _kernel_rows(calls):
    return sum(len(np.atleast_2d(centers)) for centers, *_ in calls)


def test_adapted_pruning_keeps_thin_triangles_cheap(spy):
    # with 16 fixed directions these searches evaluated 300-1500 exact rows,
    # with adapted ones 99-163, and with bounds tightened along the witness
    # directions 22-30
    calls = spy(depth_mod, "_sweep_counting_min_batch")
    for k, m in enumerate(_thin_triangles(5, 4)):
        calls.clear()
        centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1, RngState(k))
        assert _kernel_rows(calls) <= 40


def test_result_points_own_their_memory():
    lattice = LatticeCounting(Polytope.from_box([0.0, 0.0], [4.0, 3.0]))
    results = [
        centerpoint_monte_carlo(UniformPolytope(TRIANGLE), ConstraintSet.continuous(2),
                                0.2, 0.2, RngState(1)),
        centerpoint_monte_carlo(lattice, ConstraintSet.lattice(2), 0.2, 0.2, RngState(1)),
        centerpoint_lattice_measure(lattice),
        centerpoint_mixed_2d(MixedInteger(STRIP, 1, 1)),
        centerpoint_lenstra_mixed(STRIP, 1, 1),
        centerpoint_lenstra_mixed(Polytope.from_box([0.0, 0.0, 0.0], [3.0, 3.0, 1.0]), 2, 1),
    ]
    for res in results:
        assert res.point.base is None


# ---------------------------------------------------------------------------
# bound-driven batches of the deepest-point search

def _brute_lex_best(pts, cand, w):
    res = [depth_finite(pts, c, w) for c in cand]
    k = _lex_best(cand, [r.value for r in res])
    return k, res[k]


def _same_pick(found, want):
    """The same index, and the same depth value and witness, bit for bit."""
    (k, a), (j, b) = found, want
    return (k == j and (a.value, a.exact, a.gap) == (b.value, b.exact, b.gap)
            and np.array_equal(a.witness.coords, b.witness.coords))


def _lattice_measures(seed, sizes):
    gen = np.random.default_rng(seed)
    out = []
    for target in sizes:
        ang = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False) + gen.uniform(-0.3, 0.3, 6)
        v = np.c_[np.cos(ang), np.sin(ang)]
        v = v * np.sqrt(target / ConvexHull(v).volume) + gen.uniform(0.0, 1.0, 2)
        out.append(LatticeCounting(_hull_polygon(v)))
    return out


def _lattice_polygons(seed, sizes):
    return [m.active_points() for m in _lattice_measures(seed, sizes)]


@pytest.mark.parametrize("hi, max_rows", [((7.0, 7.0), 4), ((19.0, 16.0), 2)])
def test_box_search_evaluates_only_the_tied_centers(spy, hi, max_rows):
    # the 8x8 box has four tied centers, the 20x17 box two; whole-batch
    # searches evaluated 64 and 73 rows
    pts = LatticeCounting(Polytope.from_box([0.0, 0.0], hi)).active_points()
    w = np.ones(len(pts))
    calls = spy(depth_mod, "_sweep_counting_min_batch")
    found = _pruned_lex_best(pts, pts)
    assert _kernel_rows(calls) <= max_rows
    assert _same_pick(found, _brute_lex_best(pts, pts, w))


def test_lattice_pick_evaluates_each_center_once(spy):
    """A 2D lattice pick makes one ``min_direction_2d`` call, the search's
    first row, and evaluates no center twice, in the one-batch case (up to
    _PRUNE_DIRS points) and in the bounded search. Its point, value and
    witness are the bits of the search followed by the engine at its
    winner."""
    boxes = [([0.0, 0.0], [7.0, 7.0]), ([0.0, 0.0], [19.0, 16.0]),
             ([3.0, 0.0], [3.0, 12.0]), ([0.0, 2.0], [30.0, 2.0])]   # ties; collinear
    lattices = ([LatticeCounting(Polytope.from_box(lo, hi)) for lo, hi in boxes]
                + _lattice_measures(0, [1, 2, 3, 5, 9, 16, 17, 30, 70, 200, 400]))
    want = []
    for m in lattices:
        pts = m.active_points()
        k, _res = _pruned_lex_best(pts, pts)
        want.append((pts[k], min_direction_2d(m, pts[k])))
    kernel = spy(depth_mod, "_sweep_counting_min_batch")
    engine = spy(cp_mod, "min_direction_2d")
    for m, (point, res) in zip(lattices, want):
        kernel.clear()
        engine.clear()
        got = centerpoint_lattice_measure(m)
        centers = np.vstack([np.atleast_2d(c) for c, *_ in kernel])
        assert len(engine) == 1
        assert len(np.unique(centers, axis=0)) == len(centers)
        assert got.point.tobytes() == point.tobytes()
        assert (got.depth.value, got.depth.exact, got.depth.gap) == (res.value, True, 0.0)
        assert got.depth.witness.coords.tobytes() == res.witness.coords.tobytes()


def _lattice_and_duplicate_cases():
    cases = [(p, p, np.ones(len(p)))
             for p in _lattice_polygons(21, [12, 25, 40, 70, 120, 200, 340, 400])]
    gen = np.random.default_rng(22)
    for _ in range(6):
        pts = gen.integers(0, 6, size=(30, 2)).astype(float)
        pts = np.vstack([pts, pts[:8]])   # duplicated support points
        w = gen.integers(1, 5, size=len(pts)).astype(float)
        cases.append((pts, np.vstack([pts, gen.uniform(0.0, 5.0, size=(10, 2))]), w))
    return cases


def test_search_matches_brute_force_on_lattice_polygons_and_weighted_duplicates():
    cases = _lattice_and_duplicate_cases()
    assert min(len(c[0]) for c in cases) >= 10 and max(len(c[0]) for c in cases) >= 390
    for pts, cand, w in cases:
        assert _same_pick(_pruned_lex_best(pts, cand, w), _brute_lex_best(pts, cand, w))
    # a near tie: (0, 0) lies about 1e-13 below (1, 0), inside the 1e-12 tie
    # band, and its bound equals its depth, so the search must reach it
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 3.0]])
    w = np.array([1.0 + 3e-13, 1.0, 1.0])
    assert _pruned_lex_best(pts, pts, w)[0] == _brute_lex_best(pts, pts, w)[0] == 1


def _hexagon_samples(seed, count):
    hexagon = _hull_polygon(np.array([[0.0, 0.0], [3.0, -1.0], [5.0, 1.0], [4.0, 4.0],
                                      [1.0, 4.5], [-1.0, 2.0]]))
    return UniformPolytope(hexagon).sample(RngState(seed), count)


def _assert_topk_matches_a_full_stable_argsort(pts):
    full = depth_mod._sweep_counting_min_batch(pts, pts, np.ones(len(pts)))[0] / len(pts)
    top, vals, angles, ub, tab = _topk_indices(pts, 12)
    assert np.array_equal(top, np.argsort(-full, kind="stable")[:12])
    assert np.array_equal(ub, _depth_upper_bounds(pts, pts, np.ones(len(pts))))
    U = _prune_directions(pts, np.ones(len(pts)))
    assert tab.pts is pts and np.array_equal(tab.U, U)
    assert np.array_equal(tab.ps, np.sort(U @ pts.T, axis=1))
    assert np.array_equal(tab.cum, np.tile(np.arange(len(pts) + 1.0), (len(U), 1)))
    known = ~np.isnan(vals)
    assert np.array_equal(vals[known], full[known])
    assert np.all(full[~known] < full[top[-1]] - 1e-12)
    # each evaluated row's angle is the witness depth_finite gives that point
    assert np.array_equal(np.isnan(angles), ~known)
    for i in np.flatnonzero(known):
        assert np.array_equal(depth_mod._result(vals[i], angles[i], True, 0.0).witness.coords,
                              depth_finite(pts, pts[i]).witness.coords)


def test_topk_matches_a_full_stable_argsort():
    _assert_topk_matches_a_full_stable_argsort(_hexagon_samples(1061, 1061))


# ---------------------------------------------------------------------------
# bounds tightened along witness directions

def test_bounds_along_witness_and_random_directions_are_sound():
    gen = np.random.default_rng(25)
    for pts, cand, w in _bound_and_search_cases() + _lattice_and_duplicate_cases():
        exact, angles = depth_mod._sweep_counting_min_batch(cand, pts, w)
        exact = exact / w.sum()
        rand = gen.normal(size=(40, 2))
        for U in (np.column_stack([np.sin(angles), np.cos(angles)]),
                  rand / np.hypot(rand[:, 0], rand[:, 1])[:, None]):
            assert np.all(_halfplane_bounds(_project(pts, w, U), cand) >= exact - 1e-12)


@pytest.mark.parametrize("batch", [1, 200])
def test_tightened_search_matches_brute_force(spy, monkeypatch, batch):
    # small batches make the qualifiers overflow one, so the search probes
    # and tightens its bounds along the probe rows' witness directions
    monkeypatch.setattr(depth_mod, "_BATCH_ELEMENTS", batch)
    bounds = spy(cp_mod, "_halfplane_bounds")
    prune = spy(cp_mod, "_depth_upper_bounds")
    cases = _bound_and_search_cases() + _lattice_and_duplicate_cases()
    for pts, cand, w in cases:
        assert _same_pick(_pruned_lex_best(pts, cand, w), _brute_lex_best(pts, cand, w))
        ub = _depth_upper_bounds(pts, cand, w)
        kept = ub.copy()   # the search tightens its own copy
        cp_mod._deepest_depths(pts, cand, w, 1, np.full(len(cand), np.nan), ub,
                               np.full(len(cand), np.nan))
        assert np.array_equal(ub, kept)
    assert len(bounds) > len(prune)
    _assert_topk_matches_a_full_stable_argsort(_hexagon_samples(1062, 300))


def test_mc_pick_is_the_same_at_every_batch_size(spy, monkeypatch):
    # the batch size sets how many kernel rows a call takes and when the
    # search probes and tightens, never the point, value or witness: 1,061
    # samples of a triangle, a hexagon and a thin sliver
    hexagon = _hull_polygon(np.array([[0.0, 0.0], [3.0, -1.0], [5.0, 1.0], [4.0, 4.0],
                                      [1.0, 4.5], [-1.0, 2.0]]))
    kernel = spy(depth_mod, "_sweep_counting_min_batch")
    for k, m in enumerate([UniformPolytope(TRIANGLE), UniformPolytope(hexagon)]
                          + _thin_triangles(13, 1)):
        picks, calls = [], []
        for batch in (depth_mod._BATCH_ELEMENTS, 25_000, 500):
            monkeypatch.setattr(depth_mod, "_BATCH_ELEMENTS", batch)
            kernel.clear()
            res = centerpoint_monte_carlo(m, ConstraintSet.continuous(2), 0.05, 0.1,
                                          RngState(40 + k))
            assert res.samples_used == 1061
            picks.append((res.point.tobytes(), res.depth.value,
                          res.depth.witness.coords.tobytes()))
            calls.append(len(kernel))
        assert picks[0] == picks[1] == picks[2]
        assert len(set(calls)) > 1


def test_lattice_searches_fit_one_batch_and_never_tighten(spy):
    # the qualifiers of a lattice pick fit in one batch, so only the
    # shape-adapted bound pass runs, and only on sets of more than
    # _PRUNE_DIRS points: smaller ones are one kernel batch without bounds
    bounds = spy(cp_mod, "_halfplane_bounds")
    prune = spy(cp_mod, "_depth_upper_bounds")
    boxes = [LatticeCounting(Polytope.from_box([0.0, 0.0], hi)).active_points()
             for hi in ((7.0, 7.0), (19.0, 16.0))]
    sets = boxes + _lattice_polygons(21, [12, 25, 40, 70, 120, 200, 340, 400])
    for pts in sets:
        _pruned_lex_best(pts, pts)
    assert len(bounds) == len(prune) == sum(len(p) > cp_mod._PRUNE_DIRS for p in sets)


def _small_candidate_cases():
    """(points, candidates, weights) with 1 to _PRUNE_DIRS candidates:
    lattice polygons and collinear lattice points searched over themselves,
    weighted finite point masses with duplicated points, and their
    candidates with duplicates and off-support points."""
    gen = np.random.default_rng(31)
    cases = [(p, p, np.ones(len(p))) for p in _lattice_polygons(23, [3, 6, 9, 12, 14])]
    line = np.array([[k, 2 * k] for k in range(-3, 5)], dtype=float)   # collinear
    cases += [(line, line, np.ones(len(line))), (line, line[:1], np.ones(len(line)))]
    # four tied centers, the lexicographically smallest last
    box = LatticeCounting(Polytope.from_box([0.0, 0.0], [3.0, 3.0])).active_points()
    cases.append((box, box[::-1], np.ones(len(box))))
    for k in range(1, cp_mod._PRUNE_DIRS + 1):
        pts = gen.integers(0, 5, size=(int(gen.integers(5, 40)), 2)).astype(float)
        pts = np.vstack([pts, pts[:3]])   # duplicated support points
        m = FinitePointMass(pts, weights=gen.integers(1, 6, size=len(pts)).astype(float))
        sup = m.active_points()
        cand = np.vstack([sup[gen.integers(0, len(sup), size=k - k // 3)],
                          gen.uniform(0.0, 4.0, size=(k // 3, 2))])
        cases.append((sup, cand, m.active_weights()))
    return cases


def test_small_candidate_sets_are_one_kernel_batch_and_match_brute_force(spy):
    # at most _PRUNE_DIRS candidates in one batch: no bound pass, one kernel
    # call, and the pick, value and witness of depth_finite at every candidate
    bounds = spy(cp_mod, "_halfplane_bounds")
    kernel = spy(depth_mod, "_sweep_counting_min_batch")
    cases = _small_candidate_cases()
    assert {len(c) for _p, c, _w in cases} == set(range(1, cp_mod._PRUNE_DIRS + 1))
    for pts, cand, w in cases:
        kernel.clear()
        found = _pruned_lex_best(pts, cand, w)
        assert len(kernel) == 1 and len(kernel[0][0]) == len(cand)
        assert _same_pick(found, _brute_lex_best(pts, cand, w))
    assert bounds == []
    # _PRUNE_DIRS candidates over more points than one batch holds: bounds
    pts = LatticeCounting(Polytope.from_box([0.0, 0.0], [45.0, 45.0])).active_points()
    assert cp_mod._PRUNE_DIRS * len(pts) > depth_mod._BATCH_ELEMENTS
    cand = pts[:: len(pts) // cp_mod._PRUNE_DIRS][:cp_mod._PRUNE_DIRS]
    w = np.ones(len(pts))
    assert _same_pick(_pruned_lex_best(pts, cand, w), _brute_lex_best(pts, cand, w))
    assert len(bounds) == 1


def _searched_bounds(tab, cand):
    """``_halfplane_bounds`` without a floor, with one search per candidate
    end: the reference for the self-search, which reads most counts from
    the ranks. Returns (bounds, how many sorted entries have counts other
    than their rank r below and r + 1 up to their ends)."""
    D, n = tab.ps.shape
    scale = max(1.0, float(np.abs(tab.pts).max()), float(np.abs(cand).max()))
    pad = 1e-9 * scale
    span = 4.0 * scale + 1.0
    rr = np.arange(D)[:, None]
    cu = tab.U @ cand.T
    corder = np.argsort(cu, axis=1)
    cs = cu[rr, corder]
    shift = span * rr
    keys = (tab.ps + shift).ravel()

    def points_before(ends, side):
        return np.searchsorted(keys, (ends + shift).ravel(), side=side).reshape(cs.shape) - n * rr

    below, upto = points_before(cs - pad, "left"), points_before(cs + pad, "right")
    bound = np.empty(cs.shape)
    bound[rr, corder] = np.minimum(tab.total - tab.cum[rr, below], tab.cum[rr, upto])
    ranks = np.arange(cs.shape[1])
    return bound.min(axis=0) / tab.total, np.count_nonzero((below != ranks) | (upto != ranks + 1))


def test_self_bounds_read_from_the_ranks_equal_a_full_search():
    gen = np.random.default_rng(1500)
    cases = [(p, np.ones(len(p))) for p in _lattice_polygons(15, [12, 40, 200, 400])]
    grid = gen.integers(0, 6, size=(40, 2)).astype(float)
    cases.append((np.vstack([grid, grid[:15], grid[:5]]), np.ones(60)))   # exact duplicates
    # chains of near-ties: neighbours 3e-10 * scale apart, inside the 1e-9 pad
    for scale in (1.0, 50.0):
        chain = np.column_stack([np.arange(12) * 3e-10 * scale, np.zeros(12)])
        pts = np.vstack([chain, chain[::-1] + [0.0, scale], gen.uniform(-scale, scale, (20, 2))])
        cases.append((pts, gen.uniform(0.5, 2.0, len(pts))))
    # duplicates near 1e6, where the pad is 1e-3, and weighted points
    big = 1e6 + gen.integers(0, 4, size=(30, 2)).astype(float)
    big = np.vstack([big, big[:10], big + [4e-4, 0.0]])
    cases.append((big, gen.integers(1, 4, size=len(big)).astype(float)))
    cases.append((big, gen.uniform(0.1, 3.0, len(big))))
    searched = 0
    for pts, w in cases:
        for U in (_prune_directions(pts, w), np.array([[0.0, 1.0], [1.0, 0.0]])):
            tab = _project(pts, w, U)
            got = _halfplane_bounds(tab, tab.pts)
            want, off_rank = _searched_bounds(tab, pts.copy())
            assert got.tobytes() == want.tobytes()
            # a copy takes the general path, which must agree too
            assert got.tobytes() == _halfplane_bounds(tab, pts.copy()).tobytes()
            searched += off_rank
    assert searched > 100   # many entries have neighbours within the pad


# ---------------------------------------------------------------------------
# screening candidates against the best known depth

def _known(pts, w, K):
    # what _topk_indices passes on, for any weights
    tab = _project(pts, w, _prune_directions(pts, w))
    ub = _halfplane_bounds(tab, pts)
    angles = np.full(len(pts), np.nan)
    vals = cp_mod._deepest_depths(pts, pts, w, K, np.full(len(pts), np.nan), ub, angles)
    return vals, angles, ub, tab


@pytest.mark.parametrize("K", [1, 3, 12])
def test_screened_candidates_lie_below_the_floor_and_search_matches_brute_force(monkeypatch, K):
    screens = _returns(monkeypatch, "_slab_screen")
    screened = 0
    for pts, cand, w in _bound_and_search_cases() + _lattice_and_duplicate_cases():
        if len(cand) == len(pts):   # lattice polygons: add the midpoints of neighbours
            cand = np.vstack([pts, (pts[:-1] + pts[1:]) / 2.0])
        known = _known(pts, w, K)
        tab = known[3]
        floor = np.nanmax(known[0]) - 1e-12
        extra = cand[len(pts):]
        exact = depth_mod._sweep_counting_min_batch(extra, pts, w)[0] / w.sum()
        full = _halfplane_bounds(tab, extra)
        screens.clear()
        ub = _halfplane_bounds(tab, extra, floor)
        (live, low), = screens
        # a screened candidate is one whose bound falls below the floor, and
        # its recorded bound is sound; the others keep their full bounds
        assert np.array_equal(live, full >= floor)
        assert np.all(exact[~live] < floor) and np.all(ub[~live] >= exact[~live])
        assert np.all(ub[~live] == low) and low < floor
        assert np.array_equal(ub[live], full[live])
        screened += np.count_nonzero(~live)
        assert _same_pick(_pruned_lex_best(pts, cand, w, known),
                          _brute_lex_best(pts, cand, w))
    assert screened > 0


def test_screen_edge_floors():
    # a floor <= 0 screens nothing; a floor above every bound screens all
    pts, cand, w = _bound_and_search_cases()[0]
    tab = _project(pts, w, _prune_directions(pts, w))
    full = _halfplane_bounds(tab, cand[len(pts):])
    cu = tab.U @ cand[len(pts):].T
    for floor in (0.0, -0.25):
        assert np.array_equal(_halfplane_bounds(tab, cand[len(pts):], floor), full)
        assert cp_mod._slab_screen(tab, cu, 1e-9, floor)[0].all()
    floor = full.max() + 1e-9
    live, low = cp_mod._slab_screen(tab, cu, 1e-9, floor)
    assert not live.any() and full.max() <= low < floor
    assert np.all(_halfplane_bounds(tab, cand[len(pts):], floor) == low)


def _mask_screen(tab, cu, pad, floor):
    """``_slab_screen`` by its definition: the slab ends from padded edge
    columns and the bound as the largest of all shares under ``floor``."""
    rr = np.arange(len(tab.U))
    below = tab.cum / tab.total
    above = (tab.total - tab.cum) / tab.total
    edges = np.pad(tab.ps, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    lo = edges[rr, np.count_nonzero(below < floor, axis=1)] - pad
    hi = edges[rr, np.count_nonzero(above >= floor, axis=1)] + pad
    live = np.all((cu >= lo[:, None]) & (cu <= hi[:, None]), axis=0)
    shares = np.concatenate([below, above])
    return live, float(shares[shares < floor].max(initial=0.0))


def test_screen_matches_the_mask_formula():
    # seeded tables of unit, integer and fractional weights, with duplicated
    # points, against floors <= 0, above every share, exactly on a share
    # and between shares
    gen = np.random.default_rng(41)
    for t in range(60):
        n = int(gen.integers(1, 40))
        pts = gen.normal(size=(n, 2)) * gen.uniform(0.1, 1e3)
        pts[gen.integers(0, n, size=n // 4)] = pts[0]
        w = [np.ones(n), gen.integers(1, 5, size=n).astype(float),
             gen.uniform(0.1, 3.0, size=n)][t % 3]
        U = gen.normal(size=(int(gen.integers(1, 17)), 2))
        tab = _project(pts, w, U / np.hypot(U[:, 0], U[:, 1])[:, None])
        cu = tab.U @ np.vstack([pts, gen.normal(size=(20, 2)) * np.abs(pts).max()]).T
        pad = 1e-9 * max(1.0, float(np.abs(cu).max()))
        shares = np.concatenate([tab.cum, tab.total - tab.cum]) / tab.total
        on = gen.choice(shares.ravel(), size=4)
        for floor in (0.0, -0.5, shares.max() + 1e-9, 2.0, *on, *gen.uniform(0.0, 0.6, 4)):
            live, low = cp_mod._slab_screen(tab, cu, pad, floor)
            want_live, want_low = _mask_screen(tab, cu, pad, floor)
            assert np.array_equal(live, want_live) and low == want_low


@pytest.mark.parametrize("w, floor, lo_stat, hi_stat, low", [
    (np.ones(25), 0.19, 4.0, 20.0, 4.0 / 25.0),
    (np.ones(25), 5.0 / 25.0, 4.0, 20.0, 4.0 / 25.0),   # a floor equal to a share
    (np.r_[np.full(5, 2.0), np.ones(20)], 0.25, 3.0, 17.0, 7.0 / 30.0)])
def test_screen_keeps_candidates_exactly_at_the_padded_slab_ends(monkeypatch, w, floor,
                                                                 lo_stat, hi_stat, low):
    # one direction, (0, 1), so a projection is the y coordinate exactly; the
    # sample's y values are 0..24, so the order statistics are integers
    screens = _returns(monkeypatch, "_slab_screen")
    pts = np.array([[i % 5, i] for i in range(25)], dtype=float)
    tab = _project(pts, w, np.array([[0.0, 1.0]]))
    pad = 1e-9 * 24.0   # the membership pad: 1e-9 times the largest |coordinate|
    lo, hi = lo_stat - pad, hi_stat + pad
    assert lo + pad == lo_stat and hi - pad == hi_stat
    ys = [lo, np.nextafter(lo, -np.inf), lo_stat, lo_stat - 2.0 * pad,
          hi, np.nextafter(hi, np.inf), hi_stat, hi_stat + 2.0 * pad]
    cand = np.column_stack([np.full(len(ys), 2.0), ys])
    ub = _halfplane_bounds(tab, cand, floor)
    (live, got_low), = screens
    assert live.tolist() == [True, False, True, False, True, False, True, False]
    assert got_low == low and np.all(ub[~live] == low)
    assert np.all(ub[live] >= floor)
