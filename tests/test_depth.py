import numpy as np
import pytest
from scipy.spatial import ConvexHull

from centercut import depth as depth_mod
from centercut.depth import (_sweep_counting_min_batch, depth, depth_finite,
                             depth_sampled, min_direction_2d)
from centercut.errors import DimensionTooLarge
from centercut.geom import Direction, Halfspace, Polytope
from centercut.measures import (FinitePointMass, LatticeCounting, MixedInteger,
                                RngState, UniformPolytope)
from depth_oracles import depth_angle_grid

TRIANGLE = Polytope.from_vertices_2d([[0, 0], [1, 0], [0, 1]])
UNIT_SQUARE = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
GRID_3 = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)


def _brute_depth(points, weights, x, num_angles=100_000):
    """Independent dense sweep: min closed-halfspace weight fraction."""
    pts = np.asarray(points, dtype=float) - np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    ang = np.linspace(0.0, 2.0 * np.pi, num_angles, endpoint=False)
    dirs = np.stack([np.sin(ang), np.cos(ang)], axis=1)
    proj = dirs @ pts.T                      # (angles, points)
    scale = max(1.0, float(np.abs(pts).max()))
    masses = np.where(proj >= -1e-12 * scale, w, 0.0).sum(axis=1)
    return float(masses.min()) / float(w.sum())


def test_depth_finite_vertex_of_triangle():
    pts = [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]
    res = depth_finite(pts, [0.0, 0.0])
    assert res.exact and res.gap == 0.0
    assert res.value == pytest.approx(1.0 / 3.0, abs=0.0)
    assert isinstance(res.witness, Direction)


def test_depth_finite_square_center():
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    res = depth_finite(pts, [0.5, 0.5])
    assert res.value == pytest.approx(0.5, abs=0.0)


def test_depth_finite_grid_matches_dense_sweep():
    res = depth_finite(GRID_3, [1.0, 1.0])
    want = _brute_depth(GRID_3, np.ones(9), [1.0, 1.0])
    assert res.value == pytest.approx(want, abs=1e-12)


def test_depth_finite_random_points_match_dense_sweep():
    gen = np.random.default_rng(505)
    for _ in range(10):
        pts = gen.uniform(-2, 2, size=(gen.integers(4, 12), 2))
        w = gen.uniform(0.2, 2.0, size=len(pts))
        x = pts[gen.integers(len(pts))] * 0.5 + pts.mean(axis=0) * 0.5
        res = depth_finite(pts, x, weights=w)
        want = _brute_depth(pts, w, x)
        # the dense grid can only overshoot the exact minimum
        assert res.value <= want + 1e-12
        assert want - res.value <= 2e-4


def test_depth_finite_dimension_guard():
    pts = np.zeros((5, 4))
    with pytest.raises(DimensionTooLarge):
        depth_finite(pts, np.zeros(4))


def test_uniform_triangle_centroid_four_ninths():
    m = UniformPolytope(TRIANGLE)
    res = min_direction_2d(m, [1.0 / 3.0, 1.0 / 3.0])
    assert res.value == pytest.approx(4.0 / 9.0, abs=1e-8)
    assert res.gap == 0.0


def test_uniform_square_center_half():
    m = UniformPolytope(UNIT_SQUARE)
    res = min_direction_2d(m, [0.5, 0.5])
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_lattice_engine_matches_finite_engine():
    m = LatticeCounting(Polytope.from_box([0.0, 0.0], [2.0, 2.0]))
    a = min_direction_2d(m, [1.0, 1.0])
    b = depth_finite(GRID_3, [1.0, 1.0])
    assert a.exact and a.gap == 0.0
    assert a.value == b.value
    # witness attains the reported mass under the public evaluator
    h = Halfspace(a.witness, float(a.witness.coords @ np.array([1.0, 1.0])))
    assert float(m.halfspace_mass(h)) == pytest.approx(a.value, abs=1e-12)


def _bits(r):
    return (r.value.hex(), r.witness.coords.tobytes(), r.exact, r.gap.hex())


def _interval_depth(lo, hi, x):
    """The interval formula the CLI used before ``depth`` took it over."""
    above = min(max(hi - x, 0.0), hi - lo)
    below = min(max(x - lo, 0.0), hi - lo)
    return (float(min(above, below) / (hi - lo)),
            Direction.from_vector([1.0 if above <= below else -1.0]))


CUBE = Polytope.from_box([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
PTS_1D = np.array([[0.0], [1.0], [2.5], [4.0]])
PTS_3D = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [0.2, 0.4, 0.9]])


@pytest.mark.parametrize("m, x", [
    (FinitePointMass(PTS_1D, [1, 2, 1, 3]), [1.0]),
    (FinitePointMass(PTS_1D), [5.0]),
    (FinitePointMass(GRID_3[:7]), [0.7, 1.2]),
    (FinitePointMass(PTS_3D), [0.4, 0.4, 0.4]),
    (LatticeCounting(Polytope.from_rows([[1, 5.5], [-1, 0.3]])), [3.5]),
    (LatticeCounting(TRIANGLE), [0.2, 0.3]),
    (LatticeCounting(Polytope.from_box([0.0, 0.0], [4.0, 3.0])), [2.0, 1.0]),
    (LatticeCounting(CUBE), [0.5, 1.0, 0.5]),
    (UniformPolytope(TRIANGLE), [0.3, 0.3]),
    (UniformPolytope(UNIT_SQUARE), [1.5, 0.5]),
    (MixedInteger(Polytope.from_box([0.0, 0.0], [2.0, 1.0]), 1, 1), [1.0, 0.3]),
])
def test_depth_is_the_engine_each_caller_used(m, x):
    """``depth`` returns bit for bit what the CLI, the solver and the
    Lenstra route got from their own engine choice."""
    if m.dim == 2:
        want = min_direction_2d(m, x)
    else:
        want = depth_finite(m.active_points(), x, m.active_weights())
    assert _bits(depth(m, np.asarray(x))) == _bits(want)


@pytest.mark.parametrize("x", [1.0, 2.0, 1.625, -0.25, 3.5, -1.0, 4.0, 0.1 + 0.2])
def test_depth_of_an_interval_is_the_interval_formula(x):
    # [-0.25, 3.5]; x = 1.625 is the midpoint, a tie, whose witness is +1
    m = UniformPolytope(Polytope.from_rows([[1, 3.5], [-1, 0.25]]))
    value, witness = _interval_depth(-0.25, 3.5, x)
    r = depth(m, np.array([x]))
    assert _bits(r) == (value.hex(), witness.coords.tobytes(), True, (0.0).hex())
    if x == 1.625:
        assert r.witness.coords.tolist() == [1.0]


@pytest.mark.parametrize("m", [
    UniformPolytope(CUBE),
    MixedInteger(CUBE, 1, 2),
    MixedInteger(CUBE, 2, 1),
])
def test_depth_has_no_exact_engine_for_3d_smooth_families(m):
    assert depth(m, [1.0, 1.0, 0.7]) is None


def test_depth_outside_support_is_zero():
    m = UniformPolytope(UNIT_SQUARE)
    assert min_direction_2d(m, [5.0, 5.0]).value == 0.0
    assert depth_finite(GRID_3, [10.0, 0.0]).value == 0.0


def test_sampled_depth_bounds_exact():
    m = UniformPolytope(TRIANGLE)
    centroid = [1.0 / 3.0, 1.0 / 3.0]
    exact = min_direction_2d(m, centroid)
    res = depth_sampled(m, centroid, 10_000, RngState(42))
    assert not res.exact and res.gap == 1.0
    assert res.value >= exact.value - 1e-12
    assert abs(res.value - 4.0 / 9.0) <= 0.02


def test_sampled_single_direction_equals_mass():
    m = UniformPolytope(UNIT_SQUARE)
    x = np.array([0.3, 0.6])
    rng = RngState(77)
    res = depth_sampled(m, x, 1, rng)
    u = rng.generator().normal(size=(1, 2))[0]
    u /= np.linalg.norm(u)
    h = Halfspace(Direction.from_vector(u), float(u @ x))
    assert res.value == float(m.halfspace_mass(h))


def test_angle_grid_agrees_with_exact_on_grid():
    m = LatticeCounting(Polytope.from_box([0.0, 0.0], [2.0, 2.0]))
    exact = min_direction_2d(m, [1.0, 1.0])
    dense = depth_angle_grid(m, [1.0, 1.0], 100_000)
    assert dense.value == pytest.approx(exact.value, abs=1e-12)


def test_quasi_concavity_on_random_polygons():
    gen = np.random.default_rng(808)
    done = 0
    while done < 10:
        pts = gen.uniform(-2, 2, size=(8, 2))
        hull = ConvexHull(pts)
        poly = Polytope.from_vertices_2d(pts[hull.vertices])
        m = UniformPolytope(poly)
        if m.total_mass < 0.5:
            continue
        done += 1
        inner = m.sample(RngState(done), 6)
        for k in range(0, 6, 2):
            a, b = inner[k], inner[k + 1]
            da = min_direction_2d(m, a).value
            db = min_direction_2d(m, b).value
            dm = min_direction_2d(m, 0.5 * (a + b)).value
            assert dm >= min(da, db) - 1e-8


def test_weight_rescaling_invariance():
    gen = np.random.default_rng(66)
    pts = gen.uniform(-1, 1, size=(7, 2))
    w = gen.uniform(0.5, 2.0, size=7)
    x = pts.mean(axis=0)
    a = depth_finite(pts, x, weights=w)
    b = depth_finite(pts, x, weights=w * 3.7)
    assert a.value == pytest.approx(b.value, abs=1e-15)


def test_symmetry_centers_have_depth_half():
    # even lattice grid: counting arithmetic is exact
    even = LatticeCounting(Polytope.from_box([0.0, 0.0], [3.0, 3.0]))
    assert min_direction_2d(even, [1.5, 1.5]).value == 0.5
    # uniform square and symmetric mixed strip: within the sweep tolerance
    sq = UniformPolytope(UNIT_SQUARE)
    assert min_direction_2d(sq, [0.5, 0.5]).value == pytest.approx(0.5, abs=1e-9)
    mix = MixedInteger(Polytope.from_box([0.0, 0.0], [2.0, 1.0]), n=1, d=1)
    assert min_direction_2d(mix, [1.0, 0.5]).value == pytest.approx(0.5, abs=1e-9)


def test_helly_floor_uniform_polytopes():
    gen = np.random.default_rng(1717)
    done = 0
    while done < 8:
        pts = gen.uniform(-2, 2, size=(7, 2))
        hull = ConvexHull(pts)
        poly = Polytope.from_vertices_2d(pts[hull.vertices])
        m = UniformPolytope(poly)
        if m.total_mass < 0.5:
            continue
        done += 1
        verts = poly.vertices()
        cx = verts.mean(axis=0)
        cands = [cx] + list(m.sample(RngState(31, done), 12))
        best = max(min_direction_2d(m, c).value for c in cands)
        assert best >= 1.0 / 3.0 - 1e-8


def test_helly_floor_lattice():
    gen = np.random.default_rng(2727)
    done = 0
    while done < 8:
        pts = gen.uniform(-3, 3, size=(6, 2))
        hull = ConvexHull(pts)
        poly = Polytope.from_vertices_2d(pts[hull.vertices])
        try:
            m = LatticeCounting(poly)
        except Exception:
            continue
        if m.total_mass < 3:
            continue
        done += 1
        best = max(min_direction_2d(m, p).value for p in m.active_points())
        assert best >= 0.25 - 1e-12


def test_helly_floor_mixed():
    gen = np.random.default_rng(3737)
    for trial in range(8):
        K = int(gen.integers(2, 5))
        h0 = float(gen.uniform(0.5, 2.0))
        h1 = float(gen.uniform(0.5, 2.0))
        # trapezoid fibers: z in {0..K}, slice [0, h0 + (h1-h0) z / K]
        rows = [[-1, 0, 0], [1, 0, K], [0, -1, 0],
                [(h0 - h1) / K, 1, h0]]
        m = MixedInteger(Polytope.from_rows(rows), n=1, d=1)
        cands = []
        for z, payload, _vol in m.fibers:
            lo, hi = payload
            for t in (0.25, 0.5, 0.75):
                cands.append([float(z[0]), lo + t * (hi - lo)])
        best = max(min_direction_2d(m, c).value for c in cands)
        assert best >= 0.25 - 1e-9


def test_min_direction_rejects_wrong_shapes():
    cube = Polytope.from_box([0.0] * 3, [1.0] * 3)
    with pytest.raises(DimensionTooLarge):
        min_direction_2d(LatticeCounting(cube), [0.5, 0.5, 0.5])
    wide = MixedInteger(Polytope.from_box([0.0] * 3, [2.0, 2.0, 1.0]), n=2, d=1)
    with pytest.raises(DimensionTooLarge):
        min_direction_2d(wide, [1.0, 1.0, 0.5])


def _integer_counting_depth(points, x):
    """Counting depth of lattice point x by integer arithmetic alone.

    The closed-halfplane count is constant between event directions (normals
    of the offsets p - x) and is no smaller at an event than beside it, so
    probing both sides of every event finds the minimum. A probe K*e +- e_perp
    turns e by less than the angle to any other event when K exceeds twice
    the largest squared offset norm.
    """
    w = np.asarray(points, dtype=np.int64) - np.asarray(x, dtype=np.int64)
    off = w[np.any(w != 0, axis=1)]
    if len(off) == 0:
        return len(w)
    K = 2 * int((off ** 2).sum(axis=1).max()) + 1
    e = np.concatenate([np.c_[-off[:, 1], off[:, 0]], np.c_[off[:, 1], -off[:, 0]]])
    e_perp = np.c_[-e[:, 1], e[:, 0]]
    probes = np.concatenate([K * e + e_perp, K * e - e_perp])
    return int((probes @ w.T >= 0).sum(axis=1).min())


def test_batch_kernel_counts_antipodal_collinear_points():
    pts = np.array([[0.0, 0.0], [-6.0, -5.0], [12.0, 10.0]])
    got, angle = _sweep_counting_min_batch(np.zeros((1, 2)), pts, np.ones(3))
    assert got.tolist() == [2.0]
    u = np.array([np.sin(angle[0]), np.cos(angle[0])])
    assert int((pts @ u >= -1e-12).sum()) == 2
    assert depth_finite(pts, [0.0, 0.0]).value * 3 == 2.0
    assert _integer_counting_depth(pts, [0, 0]) == 2


def test_batch_kernel_matches_integer_reference():
    """The batch kernel over every point of a seeded lattice polygon (with
    many collinear triples) equals an integer-arithmetic depth, one center at
    a time as in ``min_direction_2d`` or all at once, and every witness
    attains its depth."""
    gen = np.random.default_rng(2024)
    ang = np.sort(gen.uniform(0.0, 2.0 * np.pi, 9))
    verts = np.c_[np.cos(ang), np.sin(ang)] * 11.0 + gen.uniform(0.0, 1.0, 2)
    m = LatticeCounting(Polytope.from_vertices_2d(verts))
    pts = m.active_points()
    N = len(pts)
    assert 250 <= N <= 350
    batch, _angles = _sweep_counting_min_batch(pts, pts, np.ones(N))
    single = [min_direction_2d(m, p) for p in pts]
    exact = [_integer_counting_depth(pts, p) for p in pts]
    assert batch.tolist() == [round(r.value * N) for r in single]
    assert batch.tolist() == exact
    for p, r in zip(pts, single):
        _assert_exact_and_attained(m, p, r)


def test_batch_kernel_rows_do_not_depend_on_the_point_order():
    """The kernel sorts angles with an unspecified order among equal ones,
    so with integer weights every row, value and angle, is bit-identical
    under any permutation of the points: centers on data points (at-center
    entries), duplicated points and collinear lattice points (exact angle
    ties), and centers off the lattice."""
    gen = np.random.default_rng(77)
    grid = np.array([[i, j] for i in range(-3, 4) for j in range(-2, 4)], dtype=float)
    pts = np.vstack([grid, grid[gen.integers(0, len(grid), 12)]])
    w = gen.integers(1, 5, size=len(pts)).astype(float)
    centers = np.vstack([pts, [[0.5, 0.5], [0.25, -1.0], [1.0 / 3.0, 2.0]]])
    rel = pts - pts[0]
    betas = np.mod(np.arctan2(rel[:, 0], rel[:, 1]), 2.0 * np.pi)
    assert len(np.unique(betas)) < len(pts) - 12   # exact ties beyond the duplicates
    want = _sweep_counting_min_batch(centers, pts, w)
    for _ in range(6):
        perm = gen.permutation(len(pts))
        got = _sweep_counting_min_batch(centers, pts[perm], w[perm])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_batch_kernel_at_center_test_is_the_hypot_of_the_offset(scale):
    """A point counts at the center, in every closed halfplane, exactly when
    hypot of its offset is at most 1e-12 times the scale, max(1, largest
    |offset coordinate|). The offsets here lie at most that far from the
    center along each axis, on either side of that circle: around the
    center of a cross of four points, of depth 2 alone, one counts 3 and
    the other 2. Each row also goes alone and as the single-set form."""
    tol = 1e-12 * scale
    cases = [((0.0, 0.0), 3), ((0.5 * tol, 0.5 * tol), 3), ((tol, 0.0), 3),
             ((0.0, -tol), 3), ((0.7 * tol, -0.7 * tol), 3),
             ((0.9 * tol, 0.9 * tol), 2), ((-tol, tol), 2), ((2.0 * tol, 0.0), 2)]
    cross = scale * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    sets = np.array([np.vstack([cross, [d]]) for d, _ in cases])
    w = np.ones(5)
    vals, angles = _sweep_counting_min_batch(np.zeros((len(cases), 2)), sets, w)
    assert vals.tolist() == [want for _, want in cases]
    for k, (d, want) in enumerate(cases):
        (val,), (angle,) = _sweep_counting_min_batch([0.0, 0.0], sets[k], w)
        assert (val, angle) == (vals[k], angles[k]) == (want, angles[k])


def test_counting_witness_attains_weighted_depth():
    """Weighted points, some at x and some collinear with x on both sides:
    ``depth_finite`` and ``min_direction_2d`` agree, never exceed a dense
    angle sweep, and their witnesses attain the depth."""
    gen = np.random.default_rng(606)
    for _ in range(12):
        pts = gen.uniform(-3, 3, size=(int(gen.integers(3, 15)), 2))
        x = pts[0].copy()
        d = gen.normal(size=2)
        line = x + np.outer(gen.choice([-2.0, -0.5, 1.0, 2.5], 3), d)
        pts = np.vstack([pts, line, [x]])
        w = gen.uniform(0.2, 3.0, len(pts))
        m = FinitePointMass(pts, w)
        for q in (x, line[0], pts.mean(axis=0)):
            a = depth_finite(pts, q, weights=w)
            b = min_direction_2d(m, q)
            assert a.value == b.value
            assert a.value <= _brute_depth(pts, w, q) + 1e-12
            _assert_exact_and_attained(m, q, a)
            _assert_exact_and_attained(m, q, b)


# 200k reference angles, evaluated in chunks to bound the working set
DENSE_CHUNKS = np.array_split(np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False), 8)


def _dense_min(mass_at):
    return min(float(np.min(mass_at(angles))) for angles in DENSE_CHUNKS)


def _assert_exact_and_attained(m, x, res):
    assert res.exact is True and res.gap == 0.0
    h = Halfspace(res.witness, float(res.witness.coords @ np.asarray(x)))
    assert float(m.halfspace_mass(h)) == pytest.approx(res.value, abs=1e-12)


def _fan_area_masses(verts, x, angles):
    """Uniform polygon mass of the closed halfplane u(a).(y - x) >= 0 for
    each angle a, as a reference independent of polygon clipping.

    With x at the origin the cut chord lies on a line through the origin and
    adds nothing to the Green's-theorem area sum, so the kept area is the sum
    of the edge fan areas cross(a, b) / 2, each scaled by the fraction of its
    edge on the kept side. Vectorized over angles, it replaces
    ``depth_angle_grid``, which loops over exact halfspace masses and would
    take about a minute per point at 200k angles.
    """
    a = np.asarray(verts, dtype=float) - np.asarray(x, dtype=float)
    b = np.roll(a, -1, axis=0)
    fan = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    u = np.stack([np.sin(angles), np.cos(angles)], axis=1)
    va, vb = u @ a.T, u @ b.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = va / (va - vb)
    frac = np.where(va >= 0, np.where(vb >= 0, 1.0, t), np.where(vb >= 0, 1.0 - t, 0.0))
    return (frac @ fan) / float(fan.sum())


def test_fan_area_reference_matches_angle_grid_oracle():
    m = UniformPolytope(Polytope.from_vertices_2d([[0, 0], [2, 0], [3, 1], [1, 2]]))
    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    for x in ([1.2, 0.7], [2.0, 0.0], [0.5, 0.0]):
        want = depth_angle_grid(m, x, 720).value
        got = _fan_area_masses(m.region_vertices(), x, grid).min()
        assert got == pytest.approx(want, abs=1e-12)


def test_uniform_engine_is_exact_on_random_polygons():
    gen = np.random.default_rng(4242)
    done = 0
    while done < 6:
        pts = gen.uniform(-2, 2, size=(int(gen.integers(4, 10)), 2))
        hull = ConvexHull(pts)
        poly = Polytope.from_vertices_2d(pts[hull.vertices])
        m = UniformPolytope(poly)
        if m.total_mass < 0.5:
            continue
        done += 1
        verts = m.region_vertices()
        xs = list(m.sample(RngState(done), 3))
        xs += [verts[0], 0.3 * verts[1] + 0.7 * verts[2]]   # a vertex, an edge
        for x in xs:
            res = min_direction_2d(m, x)
            _assert_exact_and_attained(m, x, res)
            assert res.value <= _dense_min(lambda a: _fan_area_masses(verts, x, a)) + 1e-12


def _angle_mixed_masses(m, x, alphas):
    """n=1, d=1 mixed mass of the closed halfplane u(a).(y - x) >= 0 for each
    angle a, vectorized over (angles x fibers): a reference independent of
    ``halfspace_masses``, relative to x, with whole fibers kept or dropped
    when the cut runs along the fiber direction."""
    Z, LO, HI = m._z[:, 0], m._lo, m._hi
    s = np.sin(alphas)[:, None]
    c = np.cos(alphas)[:, None]
    dz = Z[None, :] - x[0]
    smooth = np.abs(c) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ystar = (s * -dz) / c + x[1]
    kept_pos = np.clip(HI[None, :] - np.maximum(LO[None, :], ystar), 0.0, None)
    kept_neg = np.clip(np.minimum(HI[None, :], ystar) - LO[None, :], 0.0, None)
    kept = np.where(c > 0, kept_pos, kept_neg)
    whole = np.where(s * dz >= -1e-9, (HI - LO)[None, :], 0.0)
    return np.where(smooth, kept, whole).sum(axis=1) / m.total_mass


def test_mixed_engine_is_exact_on_random_trapezoids():
    gen = np.random.default_rng(5151)
    for _ in range(12):
        K = int(gen.integers(1, 6))
        b0, b1 = gen.uniform(-1.0, 1.0, 2)
        t0, t1 = b0 + gen.uniform(0.2, 2.5), b1 + gen.uniform(0.2, 2.5)
        rows = [[-1, 0, 0], [1, 0, K], [(b1 - b0) / K, -1, -b0],
                [(t0 - t1) / K, 1, t0]]
        m = MixedInteger(Polytope.from_rows(rows), n=1, d=1)
        Z, LO, HI = m._z[:, 0], m._lo, m._hi
        k = int(gen.integers(len(Z)))
        xs = [[Z[k], gen.uniform(LO[k], HI[k])],              # on a fiber
              [Z[k], LO[k]], [Z[k], HI[k]],                   # fiber ends
              [gen.uniform(0, K), gen.uniform(b0, t0)]]       # between fibers
        for x in map(np.array, xs):
            res = min_direction_2d(m, x)
            _assert_exact_and_attained(m, x, res)
            dense = _dense_min(lambda a: _angle_mixed_masses(m, x, a))
            assert res.value <= dense + 1e-12


# ---------------------------------------------------------------------------
# batched sampled depth for mixed measures with one continuous coordinate

def _scalar_mixed_mass(m, h):
    """The per-fiber scalar d = 1 evaluator that ``halfspace_masses`` replaced."""
    head, tail = h.n[:m.n], h.n[m.n:]
    kept = 0.0
    for z, (lo, hi), vol in m.fibers:
        rhs = h.offset - float(head @ np.asarray(z, dtype=float))
        if np.linalg.norm(tail) <= 1e-12:
            slack = -rhs
            if (slack >= -1e-9) if h.closed else (slack > 1e-9):
                kept += vol
            continue
        a = float(tail[0])
        t = rhs / a
        kept += max(hi - max(lo, t), 0.0) if a > 0 else max(min(hi, t) - lo, 0.0)
    return min(max(kept / m.total_mass, 0.0), 1.0)


def _sampled_by_loop(m, x, num, rng):
    """depth_sampled as one halfspace_mass call per direction."""
    dirs = rng.generator().normal(size=(num, m.dim))
    dirs[np.linalg.norm(dirs, axis=1) < 1e-12] = np.eye(m.dim)[0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    best, best_u, hs = np.inf, dirs[0], []
    for u in dirs:
        h = Halfspace(Direction.from_vector(u), float(u @ x))
        hs.append(h)
        v = m.halfspace_mass(h)
        if v < best - 1e-15:
            best, best_u = v, u
    return best, Direction.from_vector(best_u).coords, hs


def _seeded_mixed_measures():
    gen = np.random.default_rng(2718)
    out = []
    for _ in range(3):   # n=1, d=1 trapezoids
        K = int(gen.integers(2, 6))
        b0, b1 = gen.uniform(-1.0, 1.0, 2)
        t0, t1 = b0 + gen.uniform(0.2, 2.5), b1 + gen.uniform(0.2, 2.5)
        out.append(MixedInteger(Polytope.from_rows(
            [[-1, 0, 0], [1, 0, K], [(b1 - b0) / K, -1, -b0], [(t0 - t1) / K, 1, t0]]), 1, 1))
    for _ in range(3):   # n=2, d=1: a hexagon in the integer plane times a sloped block
        ang = np.sort(gen.uniform(0.0, 2.0 * np.pi, 6))
        v = np.c_[np.cos(ang), np.sin(ang)] * gen.uniform(2.5, 3.5) + gen.uniform(0, 1, 2)
        rows = [[-h.n[0], -h.n[1], 0.0, -h.offset]
                for h in Polytope.from_vertices_2d(v[ConvexHull(v).vertices]).constraints]
        g = gen.uniform(-0.05, 0.05, 2)
        rows += [[0, 0, -1, 0], [-g[0], -g[1], 1, gen.uniform(1, 2) - g @ v.mean(axis=0)]]
        out.append(MixedInteger(Polytope.from_rows(rows), 2, 1))
    return out


def test_batched_sampled_depth_matches_per_direction_loop():
    for i, m in enumerate(_seeded_mixed_measures()):
        for j, x in enumerate(m.sample(RngState(i), 4)):
            rng = RngState(100 * i + j)
            res = depth_sampled(m, x, 300, rng)
            value, witness, hs = _sampled_by_loop(m, x, 300, rng)
            assert res.value == value
            assert np.array_equal(res.witness.coords, witness)
            # the one-row evaluator behind halfspace_mass is the scalar one
            assert all(m.halfspace_mass(h) == _scalar_mixed_mass(m, h) for h in hs[:40])


@pytest.mark.parametrize("rows, n, normal, offset, closed_mass, open_mass", [
    # fibers x = 0..3 of [0,3]x[0,1]; x >= 1 keeps three, x > 1 two
    ([[1, 0, 3], [-1, 0, 0], [0, 1, 1], [0, -1, 0]], 1, [1.0, 0.0], 1.0, 0.75, 0.5),
    ([[1, 0, 3], [-1, 0, 0], [0, 1, 1], [0, -1, 0]], 1, [-1.0, 0.0], -2.0, 0.75, 0.5),
    # fibers (x, y) in {0,1}^2 of the unit cube; 0.6x + 0.8y >= 0.6 keeps all but (0, 0)
    ([[1, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, 0]],
     2, [0.6, 0.8, 0.0], 0.6, 0.75, 0.5),
])
def test_whole_fiber_rows_match_scalar_evaluator(rows, n, normal, offset, closed_mass,
                                                open_mass):
    m = MixedInteger(Polytope.from_rows(rows), n, 1)
    for closed, want in ((True, closed_mass), (False, open_mass)):
        h = Halfspace(Direction(np.array(normal)), offset, closed)
        assert m.halfspace_mass(h) == _scalar_mixed_mass(m, h) == want


# ---------------------------------------------------------------------------
# 3D counting depth: the line reduction against the candidate-normal engine

def _normals_depth_3d(points, x, weights):
    """Reference 3D counting depth by the candidate-normal method.

    Probes both sides of every plane through x and two non-collinear offsets;
    offsets on a probed plane are resolved by the 2D kernel in that plane,
    and an all-collinear set is a 1-D problem along its line.
    """
    rel = np.asarray(points, dtype=float) - np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    scale = max(1.0, float(np.max(np.abs(rel))))
    r = np.linalg.norm(rel, axis=1)
    at_center = r <= 1e-12 * scale
    base = float(weights[at_center].sum())
    v, w, rv = rel[~at_center], weights[~at_center], r[~at_center]
    if len(v) == 0:
        return 1.0
    normals = []
    for i in range(len(v) - 1):
        cr = np.cross(v[i], v[i + 1:])
        ns = np.linalg.norm(cr, axis=1)
        keep = ns > 1e-12 * rv[i] * rv[i + 1:]
        normals.extend(cr[keep] / ns[keep, None])
    if not normals:
        e = v[int(np.argmax(rv))] / float(np.max(rv))
        t = v @ e
        return (base + min(float(w[t >= -1e-9].sum()), float(w[t <= 1e-9].sum()))) / total
    best = np.inf
    for n in normals:
        for u in (n, -n):
            vals = v @ u
            bnd = np.abs(vals) <= 1e-9
            mass = base + float(w[vals > 1e-9].sum())
            if mass >= best:
                continue
            if bnd.any():
                t1 = np.cross(u, np.eye(3)[int(np.argmin(np.abs(u)))])
                t1 /= np.linalg.norm(t1)
                t2 = np.cross(u, t1)
                proj = np.column_stack([v[bnd] @ t1, v[bnd] @ t2])
                mass += float(_sweep_counting_min_batch(np.zeros(2), proj, w[bnd])[0][0])
            best = min(best, mass)
    return best / total


def _cases_3d():
    """Seeded clouds (half on integer coordinates, some with x on a data
    point), every point of four small boxes, collinear and coplanar sets,
    x outside the hull, and every point at x."""
    gen = np.random.default_rng(3003)
    for k in range(60):
        n = int(gen.integers(1, 30))
        pts = (gen.integers(-2, 3, size=(n, 3)).astype(float) if k % 2
               else gen.normal(size=(n, 3)))
        x = pts[gen.integers(n)].copy() if k % 3 == 0 else gen.integers(-1, 2, 3) * 0.5
        yield pts, x
    for shape in ((2, 2, 2), (3, 3, 3), (8, 2, 2), (4, 3, 2)):
        box = np.array(np.meshgrid(*map(np.arange, shape), indexing="ij"),
                       dtype=float).reshape(3, -1).T
        for x in box:
            yield box, x
    line = np.outer(np.arange(-3, 5), [1.0, 2.0, -1.0])
    plane = np.array([[i, j, i + j] for i in range(4) for j in range(3)], dtype=float)
    yield line, np.zeros(3)
    yield line, np.array([0.5, 1.0, -0.5])
    yield plane, np.array([2.0, 1.0, 3.0])
    yield plane, np.array([1.0, 1.0, 0.0])
    yield np.c_[plane[:, :2], np.zeros(len(plane))], np.array([1.0, 1.0, 0.0])
    yield np.array(np.meshgrid(*[np.arange(3)] * 3), dtype=float).reshape(3, -1).T, \
        np.array([5.0, 1.0, 1.0])
    yield np.zeros((3, 3)), np.zeros(3)


def _closed_mass(pts, x, w, u):
    rel = np.asarray(pts, dtype=float) - x
    scale = max(1.0, float(np.abs(rel).max()))
    return float(w[rel @ u >= -1e-12 * scale].sum()) / float(w.sum())


def test_depth_finite_3d_matches_normals_engine():
    """Unit weights: the line reduction gives the candidate-normal value bit
    for bit, and its witness attains it."""
    for pts, x in _cases_3d():
        w = np.ones(len(pts))
        res = depth_finite(pts, x)
        assert res.exact and res.gap == 0.0
        assert res.value == _normals_depth_3d(pts, x, w)
        assert _closed_mass(pts, x, w, res.witness.coords) == pytest.approx(res.value, abs=1e-12)


def test_depth_finite_3d_real_weights():
    """Real weights differ from the reference only in summation order."""
    gen = np.random.default_rng(4004)
    for k in range(40):
        n = int(gen.integers(2, 25))
        pts = (gen.integers(-2, 3, size=(n, 3)).astype(float) if k % 2
               else gen.normal(size=(n, 3)))
        w = gen.uniform(0.1, 3.0, n)
        x = pts[0].copy() if k % 3 == 0 else gen.normal(size=3) * 0.4
        res = depth_finite(pts, x, weights=w)
        assert res.value == pytest.approx(_normals_depth_3d(pts, x, w), abs=1e-12)
        assert _closed_mass(pts, x, w, res.witness.coords) == pytest.approx(res.value, abs=1e-12)


def test_depth_finite_3d_blocks_bound_the_working_set(monkeypatch):
    """Lines go to the kernel in blocks of about _BATCH_ELEMENTS (line,
    point) pairs, and the block size changes neither value nor witness."""
    pts = np.array(np.meshgrid(*[np.arange(4)] * 3), dtype=float).reshape(3, -1).T
    x = np.array([1.0, 2.0, 1.0])
    want = depth_finite(pts, x)
    sizes = []
    kernel = depth_mod._sweep_counting_min_batch

    def spy(centers, rel, weights):
        sizes.append(np.shape(rel)[:2])
        return kernel(centers, rel, weights)

    monkeypatch.setattr(depth_mod, "_sweep_counting_min_batch", spy)
    monkeypatch.setattr(depth_mod, "_BATCH_ELEMENTS", 500)
    got = depth_finite(pts, x)
    assert got.value == want.value
    assert np.array_equal(got.witness.coords, want.witness.coords)
    # x is a grid point: 63 lines, 7 to a block
    assert sizes == [(7, 63)] * 9


def _reference_kernel(centers, pts, weights):
    """The counting kernel as first written: a weight copy per row,
    ``np.mod`` for the angle wrap, ``hypot`` for every entry and a clipped
    search index. ``_sweep_counting_min_batch`` must match it bit for bit."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts = np.asarray(pts, dtype=float)
    C, N = len(centers), pts.shape[-2]
    rows = np.arange(C)
    rr = rows[:, None]
    rel = (pts if pts.ndim == 3 else pts[None]) - centers[:, None, :]
    scale = np.maximum(1.0, np.abs(rel).reshape(C, -1).max(axis=1))
    r = np.hypot(rel[..., 0], rel[..., 1])
    at_center = r <= 1e-12 * scale[:, None]
    w = np.broadcast_to(np.asarray(weights, dtype=float), (C, N)).copy()
    total = w.sum(axis=1)
    w[at_center] = 0.0
    betas = np.where(at_center, 0.0,
                     np.mod(np.arctan2(rel[..., 0], rel[..., 1]), 2.0 * np.pi))
    order = np.argsort(betas, axis=1)
    betas = betas[rr, order]
    w = w[rr, order]
    ext = np.concatenate([betas, betas + 2.0 * np.pi], axis=1)
    cum = np.zeros((C, 2 * N + 1))
    np.cumsum(np.concatenate([w, w], axis=1), axis=1, out=cum[:, 1:])
    offs = (4.0 * np.pi) * rr
    idx = np.searchsorted((ext + offs).ravel(),
                          (betas + (np.pi - 1e-12) + offs).ravel(), side="left")
    idx = np.clip(idx.reshape(C, N) - 2 * N * rr, 0, 2 * N)
    open_w = cum[rr, idx] - cum[:, :N]
    i = np.argmax(open_w, axis=1)
    j = idx[rows, i]
    b_prev = np.where(i > 0, ext[rows, i - 1], betas[:, -1] - 2.0 * np.pi)
    lo = np.maximum(b_prev, ext[rows, j - 1] - np.pi)
    hi = np.minimum(ext[rows, i], ext[rows, j] - np.pi)
    return total - open_w[rows, i], (lo + hi) / 2.0 - np.pi / 2.0


def _assert_kernel_matches_reference(centers, pts, w):
    got = _sweep_counting_min_batch(centers, pts, w)
    want = _reference_kernel(centers, pts, w)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))


def test_batch_kernel_matches_its_reference_formula_bit_for_bit():
    """The kernel's angle wrap, weight masking and unclipped search give
    the values and angles, down to the sign of zero, of the reference
    formula on the inputs where they could differ."""
    gen = np.random.default_rng(1515)
    # signed zeros: atan2 gives -0.0 and -pi, which both wrap to +0.0 and +pi
    signed = np.array([[-0.0, 1.0], [0.0, -1.0], [-0.0, -1.0], [-0.0, -0.0], [1.0, -0.0],
                       [-1.0, 0.0], [-1e-300, 1.0], [2.0, 3.0], [-2.0, -3.0]])
    for c in ([0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0], [1.0, -0.0]):
        _assert_kernel_matches_reference(np.array([c]), signed, np.ones(len(signed)))
    # offsets exactly at the at-center radius 1e-12 * scale and one ulp past it
    for scale in (1.0, 1000.0, 3.0e5):
        t = 1e-12 * scale
        for r in (t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)):
            pts = np.array([[r, 0.0], [0.0, -r], [-r, 0.0], [scale, 1.0], [-1.0, scale],
                            [0.5, -0.25 * scale], [-scale, -scale]])
            _assert_kernel_matches_reference(np.zeros((1, 2)), pts, np.ones(len(pts)))
            _assert_kernel_matches_reference(pts, pts, np.arange(1.0, len(pts) + 1.0))
    # collinear lattice points, every point a center, unit and integer weights
    grid = np.array([[i, j] for i in range(-4, 5) for j in range(-3, 6)], dtype=float)
    for w in (np.ones(len(grid)), gen.integers(1, 6, len(grid)).astype(float)):
        _assert_kernel_matches_reference(grid, grid, w)
        _assert_kernel_matches_reference(np.array([[0.5, 0.5], [1.0 / 3.0, -2.0]]), grid, w)
    # non-integer weights, with duplicates; long rows sum pairwise in blocks
    pts = np.vstack([gen.normal(size=(300, 2)) * 5.0, grid[:40], grid[:40]])
    w = gen.uniform(0.05, 3.0, len(pts))
    _assert_kernel_matches_reference(pts[::7], pts, w)
    # one point set per center with zero weights, as the 3D reduction sends
    proj = gen.integers(-3, 4, size=(6, 40, 2)).astype(float)
    w3 = np.where(gen.random((6, 40)) < 0.3, 0.0, gen.uniform(0.5, 2.0, (6, 40)))
    _assert_kernel_matches_reference(np.zeros((6, 2)), proj, w3)
    _assert_kernel_matches_reference(np.zeros((6, 2)), proj, np.where(w3 > 0, 1.0, 0.0))
    # one center and one point, at the center or off it
    for p in ([[0.0, 0.0]], [[2.0, -1.0]]):
        _assert_kernel_matches_reference(np.zeros((1, 2)), np.array(p), np.ones(1))
    # all points inside an open half circle, anchored at the last sorted
    # angle, so the arc ends at the last entry of its row: alone, and in the
    # first, a middle and the last row of a batch
    half = np.array([[1.0, 10.0], [2.0, 10.0], [-1.0, 1.0]])
    _assert_kernel_matches_reference(np.zeros((1, 2)), half, np.ones(3))
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [-3.0, 1.0], [0.0, 0.0]])
    _assert_kernel_matches_reference(centers, half, np.ones(3))
    # one batch of exactly _BATCH_ELEMENTS pairs, the largest row offsets
    pts = gen.integers(-5, 6, size=(16, 2)).astype(float)
    centers = np.vstack([gen.integers(-6, 7, size=(depth_mod._BATCH_ELEMENTS // 16 - 1, 2)),
                         pts[:1]]).astype(float)
    _assert_kernel_matches_reference(centers, pts, np.ones(16))
    _assert_kernel_matches_reference(np.zeros((depth_mod._BATCH_ELEMENTS // 3, 2)),
                                     np.broadcast_to(half, (depth_mod._BATCH_ELEMENTS // 3, 3, 2)),
                                     np.ones(3))
