import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from centercut import geom
from centercut.centerpoint import centerpoint_lenstra_mixed, centroid
from centercut.cutplane import _mixed_mean
from centercut.errors import BudgetExceeded, DimensionTooLarge, EmptyRegion, RejectionStall
from centercut.geom import Direction, Halfspace, Polytope
from centercut.measures import (MASS_TOL, FinitePointMass, LatticeCounting, MixedInteger,
                                RngState, UniformPolytope, _cut_mask,
                                _points_in_polygon)

UNIT_SQUARE = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
SQUARE_2 = Polytope.from_box([0.0, 0.0], [2.0, 2.0])
STRIP = Polytope.from_box([0.0, 0.0], [2.0, 1.0])      # mixed: x1 integer


def test_rng_state_determinism_and_children():
    a = RngState(7).generator().random(5)
    b = RngState(7).generator().random(5)
    assert np.array_equal(a, b)
    c = RngState(7).child(0).generator().random(5)
    d = RngState(7).child(1).generator().random(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(c, d)
    assert RngState(7).child(3) == RngState(7).child(3)


def test_uniform_square_halfspace_mass_half():
    m = UniformPolytope(UNIT_SQUARE)
    e = m.halfspace_mass(Halfspace.from_vector([1.0, 0.0], 0.5))
    assert float(e) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e-11, 1e-10, -1e-10, 1e-9, 3e-9])
def test_uniform_cut_near_a_vertex_keeps_its_sliver(offset):
    # a cut through the center passing within ~offset of two corners: the
    # crossing points must not be merged into the corners
    m = UniformPolytope(UNIT_SQUARE)
    a = 0.75 * np.pi + offset
    u = np.array([np.sin(a), np.cos(a)])
    e = m.halfspace_mass(Halfspace.from_vector(u, float(u @ [0.5, 0.5])))
    assert float(e) == pytest.approx(0.5, abs=1e-15)


def test_uniform_1d_masses_are_the_interval_formula():
    # {y : y >= t} keeps [max(lo, t), hi] and {y : -y >= -t} keeps
    # [lo, min(hi, t)], open or closed alike: an interval has no atoms
    base = UniformPolytope(Polytope.from_rows([[1, 5.5], [-1, 0.3]]))
    cut = base.restrict([Halfspace.from_vector([1.0], 0.7),
                         Halfspace.from_vector([-1.0], -4.2, closed=False)])
    assert base._interval == (-0.3, 5.5) and cut._interval == (0.7, 4.2)
    gen = np.random.default_rng(8)
    for m in (base, cut):
        lo, hi = m._interval
        assert m.total_mass == hi - lo
        for t in [lo, hi, lo - 3.0, hi + 3.0, *gen.uniform(lo - 1.0, hi + 1.0, 20)]:
            for closed in (True, False):
                up = m.halfspace_mass(Halfspace.from_vector([1.0], t, closed))
                down = m.halfspace_mass(Halfspace.from_vector([-1.0], -t, closed))
                assert up == min(max(max(hi - max(lo, t), 0.0) / (hi - lo), 0.0), 1.0)
                assert down == min(max(max(min(hi, t) - lo, 0.0) / (hi - lo), 0.0), 1.0)
                assert up + down == pytest.approx(1.0, abs=1e-12)


def test_lattice_grid_mass_six_ninths():
    m = LatticeCounting(SQUARE_2)
    assert m.total_mass == 9.0
    e = m.halfspace_mass(Halfspace.from_vector([1.0, 1.0], 2.0))
    assert float(e) == pytest.approx(6.0 / 9.0, abs=0.0)


def test_mixed_strip_mass_two_thirds():
    m = MixedInteger(STRIP, n=1, d=1)
    assert len(m.fibers) == 3
    e = m.halfspace_mass(Halfspace.from_vector([1.0, 0.0], 1.0))
    assert float(e) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_mixed_two_continuous_coords_fibers_are_squares():
    m = MixedInteger(Polytope.from_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), n=1, d=2)
    assert m.total_mass == pytest.approx(2.0, abs=1e-12)
    assert [v for _z, _p, v in m.fibers] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_uniform_cube_half_mass_is_exact():
    cube = Polytope.from_box([0.0] * 3, [1.0] * 3)
    m = UniformPolytope(cube)
    e = m.halfspace_mass(Halfspace.from_vector([1.0, 0.0, 0.0], 0.5))
    assert float(e) == pytest.approx(0.5, abs=1e-12)


def test_restrict_square_keeps_half_mass():
    m = UniformPolytope(UNIT_SQUARE)
    r = m.restrict([Halfspace.from_vector([1.0, 0.0], 0.5)])
    assert r.total_mass == pytest.approx(0.5, abs=1e-12)


def test_restrict_lattice_open_cut_drops_boundary():
    m = LatticeCounting(SQUARE_2)
    r = m.restrict([Halfspace.from_vector([1.0, 0.0], 0.0, closed=False)])
    assert r.total_mass == 6.0


def test_restrict_to_empty_region_raises():
    far = Halfspace.from_vector([1.0, 0.0], 10.0)
    with pytest.raises(EmptyRegion):
        UniformPolytope(UNIT_SQUARE).restrict([far])
    with pytest.raises(EmptyRegion):
        LatticeCounting(UNIT_SQUARE).restrict([far])
    with pytest.raises(EmptyRegion):
        MixedInteger(STRIP, n=1, d=1).restrict([far])


def test_sampling_is_deterministic():
    for m in (UniformPolytope(UNIT_SQUARE), LatticeCounting(SQUARE_2),
              MixedInteger(STRIP, n=1, d=1),
              FinitePointMass([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])):
        a = m.sample(RngState(11, 4), 64)
        b = m.sample(RngState(11, 4), 64)
        assert np.array_equal(a, b)
        c = m.sample(RngState(12, 4), 64)
        assert not np.array_equal(a, c)


def test_samples_lie_in_support_and_region():
    cut = Halfspace.from_vector([0.0, 1.0], 0.25)
    m = UniformPolytope(UNIT_SQUARE).restrict([cut])
    pts = m.sample(RngState(5), 500)
    assert np.all(UNIT_SQUARE.contains(pts))
    assert np.all(pts[:, 1] >= 0.25 - 1e-9)

    lat = LatticeCounting(SQUARE_2).restrict([cut])
    lp = lat.sample(RngState(6), 200)
    assert np.all(lp == np.round(lp))
    assert np.all(lp[:, 1] >= 1)

    mx = MixedInteger(STRIP, n=1, d=1)
    mp = mx.sample(RngState(7), 300)
    assert np.all(mp[:, 0] == np.round(mp[:, 0]))
    assert np.all((mp[:, 1] >= 0.0) & (mp[:, 1] <= 1.0))


def test_mixed_fiber_frequencies_chi_square():
    # 30000 fiber-proportional draws over three unit fibers; the chi-square
    # statistic with 2 degrees of freedom stays below the 1 - 1e-4 quantile
    # (18.42) and every frequency lands within 0.02 of 1/3
    m = MixedInteger(STRIP, n=1, d=1)
    pts = m.sample(RngState(2024), 30000)
    counts = np.array([(pts[:, 0] == k).sum() for k in (0, 1, 2)])
    assert counts.sum() == 30000
    freq = counts / 30000.0
    assert np.all(np.abs(freq - 1.0 / 3.0) <= 0.02)
    expected = 10000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.42


def test_complement_masses_sum_to_one():
    gen = np.random.default_rng(31)
    finite = FinitePointMass(gen.uniform(0, 2, size=(9, 2)),
                             gen.uniform(0.1, 1, 9))
    lattice = LatticeCounting(SQUARE_2)
    for m, pts in ((finite, finite.active_points()),
                   (lattice, lattice.active_points())):
        for _ in range(25):
            u = gen.normal(size=2)
            u /= np.linalg.norm(u)
            h = Halfspace.from_vector(u, float(gen.uniform(-1, 3)))
            # the partition itself is exact: every point counted once
            in_h = h.contains(pts)
            in_c = h.complement().contains(pts)
            assert np.all(in_h ^ in_c)
            total = float(m.halfspace_mass(h)) + float(m.halfspace_mass(h.complement()))
            assert total == pytest.approx(1.0, abs=1e-15)
    # boundary through lattice points: closed side claims them, bitwise sum
    h = Halfspace.from_vector([1.0, 0.0], 1.0)
    a = float(lattice.halfspace_mass(h))
    b = float(lattice.halfspace_mass(h.complement()))
    assert (a, b) == (6.0 / 9.0, 3.0 / 9.0)
    assert a + b == 1.0
    vol = UniformPolytope(UNIT_SQUARE)
    mix = MixedInteger(STRIP, n=1, d=1)
    for m in (vol, mix):
        for _ in range(25):
            u = gen.normal(size=2)
            u /= np.linalg.norm(u)
            h = Halfspace.from_vector(u, float(gen.uniform(-0.5, 1.5)))
            total = float(m.halfspace_mass(h)) + float(m.halfspace_mass(h.complement()))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_mass_monotone_in_nested_halfspaces():
    gen = np.random.default_rng(77)
    measures = [UniformPolytope(UNIT_SQUARE), LatticeCounting(SQUARE_2),
                MixedInteger(STRIP, n=1, d=1),
                FinitePointMass(gen.uniform(0, 2, size=(12, 2)))]
    for m in measures:
        for _ in range(20):
            u = gen.normal(size=2)
            u /= np.linalg.norm(u)
            c = float(gen.uniform(-1, 2))
            small = Halfspace.from_vector(u, c)
            large = Halfspace.from_vector(u, c - float(gen.uniform(0, 2)))
            assert float(m.halfspace_mass(small)) <= \
                float(m.halfspace_mass(large)) + 1e-12


def test_mc_estimate_within_three_stderr():
    gen = np.random.default_rng(1234)
    hits = 0
    trials = 200
    draws = 100_000
    for t in range(trials):
        lo = gen.uniform(-1, 0, size=2)
        hi = gen.uniform(0.5, 2, size=2)
        m = UniformPolytope(Polytope.from_box(lo, hi))
        u = gen.normal(size=2)
        u /= np.linalg.norm(u)
        h = Halfspace.from_vector(u, float(u @ gen.uniform(lo, hi)))
        exact = float(m.halfspace_mass(h))
        pts = m.sample(RngState(9000 + t), draws)
        p = float(h.contains(pts).mean())
        se = max(np.sqrt(p * (1 - p) / draws), 1e-12)
        if abs(p - exact) <= 3.0 * se:
            hits += 1
    assert hits >= 0.99 * trials


def _support(m):
    """What a measure's region holds: active points and weights, the region's
    vertices, or its fiber slices."""
    if isinstance(m, (FinitePointMass, LatticeCounting)):
        return [m.active_points().tobytes(), m.active_weights().tobytes()]
    if isinstance(m, UniformPolytope):
        return [m.region_vertices().tobytes()]
    return [(z, np.asarray(p).tobytes(), v) for z, p, v in m.fibers]


def test_restriction_composition_matches_joint():
    # restricting by A, then by B, is restricting by A + B: the same region
    # tuple, support and total mass, bit for bit, for all four families
    h1 = (Halfspace.from_vector([1.0, 0.0], 0.25),)
    h2 = (Halfspace.from_vector([0.0, 1.0], 0.25),)
    gen = np.random.default_rng(5)
    pts = gen.integers(0, 4, size=(25, 2)).astype(float)
    P3 = Polytope.from_box([0.0] * 3, [2.0, 1.0, 1.0])
    a = (Halfspace.from_vector([1.0, 0.4], 0.3), Halfspace.from_vector([-0.3, 1.0], -1.0))
    b = (Halfspace.from_vector([1.0, 1.0], 1.0, closed=False),
         Halfspace.from_vector([-1.0, 0.2], -1.7))
    a3 = (Halfspace.from_vector([0.2, 1.0, 0.1], 0.2),)
    b3 = (Halfspace.from_vector([0.1, -0.3, 1.0], 0.1, closed=False),
          Halfspace.from_vector([-0.5, 0.2, -1.0], -1.9))
    cases = [(UniformPolytope(UNIT_SQUARE), h1, h2), (LatticeCounting(SQUARE_2), h1, h2),
             (MixedInteger(STRIP, n=1, d=1), h1, h2),
             (FinitePointMass(pts, gen.integers(1, 4, size=len(pts))), a, b),
             (LatticeCounting(SQUARE_2), a, b),
             (UniformPolytope(SQUARE_2), a, b),
             (UniformPolytope(P3), a3, b3),
             (MixedInteger(STRIP, 1, 1), a, b),
             (MixedInteger(P3, 1, 2), a3, b3)]
    for m, a, b in cases:
        step = m.restrict(a).restrict(b)
        joint = m.restrict(a + b)
        assert step.region == joint.region == m.region + a + b
        assert step.total_mass == joint.total_mass < m.restrict(a).total_mass
        assert _support(step) == _support(joint)


def test_rejection_stall_on_sliver():
    sliver = Polytope.from_vertices_2d([[0, 0], [1, 1], [1, 1 + 1e-7]])
    m = UniformPolytope(sliver)
    with pytest.raises(RejectionStall):
        m.sample(RngState(1), 10)


def test_finite_point_mass_weights():
    m = FinitePointMass([[0.0, 0.0], [1.0, 0.0]], weights=[1.0, 3.0])
    e = m.halfspace_mass(Halfspace.from_vector([1.0, 0.0], 0.5))
    assert float(e) == pytest.approx(0.75, abs=0.0)
    with pytest.raises(ValueError):
        FinitePointMass([[0.0, 0.0]], weights=[0.0])


def test_lattice_restriction_filters_its_points(spy):
    # a restriction filters the points it was made from, so chained
    # restrictions enumerate the polytope once; that they equal one joint
    # restriction is checked for every family below
    P = Polytope.from_vertices_2d([[0.3, 0.1], [9.2, 1.4], [7.7, 8.9], [1.1, 6.6]])
    a = (Halfspace.from_vector([1.0, 0.4], 2.0), Halfspace.from_vector([-0.3, 1.0], -1.0))
    b = (Halfspace.from_vector([1.0, 1.0], 5.0, closed=False),
         Halfspace.from_vector([-1.0, 0.2], -7.5))
    calls = spy(geom, "enumerate_lattice_points")
    base = LatticeCounting(P)
    step = base.restrict(a).restrict(b)
    assert len(calls) == 1
    assert step.region == a + b and 0 < step.total_mass < base.total_mass


def _state(m):
    """Everything a restriction sets, as exact values and bytes: total mass,
    region, and the family's own state."""
    out = [m.total_mass.hex(), tuple((c.n.tobytes(), c.offset, c.closed) for c in m.region)]
    if isinstance(m, FinitePointMass):   # lattice measures too
        out += [m.active_points().tobytes(), m.active_weights().tobytes()]
    elif isinstance(m, UniformPolytope) and m.dim == 1:
        out.append([v.hex() for v in m._interval])
    elif isinstance(m, UniformPolytope) and m.dim == 2:
        out.append(m._verts.tobytes())
    elif isinstance(m, UniformPolytope):
        out += [m._verts.tobytes(), m._centroid.tobytes()]
    else:
        out.append([(z, np.asarray(p).tobytes(), v.hex()) for z, p, v in m.fibers])
        if m.d == 1:
            out += [a.tobytes() for a in (m._z, m._lo, m._hi, m._vol)]
    return out


_TRAPEZOID = Polytope.from_vertices_2d([[0.0, 0.0], [5.0, 0.0], [4.0, 2.5], [1.0, 3.0]])
_SLANTED = Polytope.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 3],
                               [0, 1, 0, 3], [0.3, 0.2, 1, 2.5]])
_CHAIN_CASES = {   # measure, and a support point that every cut keeps with a margin
    "finite-2d": (lambda g: FinitePointMass(g.uniform(0, 4, (30, 2)), g.uniform(0.5, 2, 30)),
                  None),
    "finite-3d": (lambda g: FinitePointMass(g.uniform(0, 4, (30, 3))), None),
    "lattice-2d": (lambda g: LatticeCounting(_TRAPEZOID), [2.0, 1.0]),
    "lattice-3d": (lambda g: LatticeCounting(_SLANTED), [1.0, 1.0, 1.0]),
    "uniform-1d": (lambda g: UniformPolytope(Polytope.from_box([0.0], [4.0])), [2.0]),
    "uniform-2d": (lambda g: UniformPolytope(_TRAPEZOID), [2.5, 1.2]),
    "uniform-3d": (lambda g: UniformPolytope(_SLANTED), [1.5, 1.5, 1.0]),
    "mixed-1-1": (lambda g: MixedInteger(_TRAPEZOID, 1, 1), [2.0, 1.2]),
    "mixed-2-1": (lambda g: MixedInteger(_SLANTED, 2, 1), [1.0, 1.0, 1.0]),
    "mixed-1-2": (lambda g: MixedInteger(_SLANTED, 1, 2), [1.0, 1.5, 1.0]),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_restriction_chain_matches_one_restriction_and_leaves_the_parent(case):
    # a seeded chain of open and closed cuts, one restriction per cut, gives
    # the bytes of one restriction by all of them; no restriction changes the
    # state of the measure it was made from (a copy shares its arrays)
    gen = np.random.default_rng([71, sorted(_CHAIN_CASES).index(case)])
    build, p = _CHAIN_CASES[case]
    base = build(gen)
    if p is None:   # the point nearest the mean
        pts = base.active_points()
        p = pts[np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1))]
    cuts = []
    for i in range(7):   # i = 3: open and on the first axis, a flat cut of the mixed measures
        u = np.eye(base.dim)[0] if i == 3 else gen.normal(size=base.dim)
        r = 1.0 if i == 3 else gen.uniform(0.2, 1.0)
        cuts.append(Halfspace.from_vector(u, float(u @ p) - r * np.linalg.norm(u),
                                          closed=i % 2 == 0))
    m, masses = base, []
    for c in cuts:
        before = _state(m)
        child = m.restrict([c])
        assert _state(m) == before
        m = child
        masses.append(m.total_mass)
    before = _state(base)
    joint = base.restrict(cuts)
    assert _state(base) == before
    assert _state(m) == _state(joint)
    assert masses[-1] < base.total_mass and len(set(masses)) > 2


# ---------------------------------------------------------------------------
# slices and samplers against the per-subset and per-family loops they replace

def _pairwise_polygon(items):
    """Reference: the d = 2 slice polygon from one det/solve per row pair."""
    normals = [np.asarray(t, dtype=float) for t, _ in items]
    offsets = [float(r) for _, r in items]
    scale = max([abs(o) for o in offsets] + [1.0])
    pts = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            M = np.array([normals[i], normals[j]])
            if abs(np.linalg.det(M)) <= 1e-12:
                continue
            x = np.linalg.solve(M, np.array([offsets[i], offsets[j]]))
            if all(normals[t] @ x >= offsets[t] - geom.EPS * scale for t in range(len(items))):
                pts.append(x)
    return geom.convex_hull_2d(np.array(pts)) if pts else np.zeros((0, 2))


def _rejection_loop(gen, lo, hi, count, min_batch, accept):
    """Reference: the rejection loop each sampler used to carry."""
    out, got = [], 0
    while got < count:
        batch = max(count - got, min_batch)
        pts = gen.uniform(lo, hi, size=(batch, len(lo)))
        acc = pts[accept(pts)][:count - got]
        out.append(acc)
        got += len(acc)
    return np.vstack(out)


def _seeded_mixed_1_2(k):
    gen = np.random.default_rng([30, k])
    c = gen.normal(size=3)
    A = gen.normal(size=(int(gen.integers(2, 7)), 3))
    b = A @ c - gen.exponential(size=len(A)) * 2.0
    rows = [Halfspace.from_vector(a, o) for a, o in zip(A, b)]
    box = Polytope.from_box(c - gen.uniform(1.0, 3.0, 3), c + gen.uniform(1.0, 3.0, 3))
    return Polytope.from_halfspaces(rows + list(box.constraints))


def test_mixed_slices_match_the_pairwise_polygon():
    empty = 0
    for k in range(30):
        m = MixedInteger(_seeded_mixed_1_2(k), 1, 2)
        lo, hi = m.polytope.bounding_box()
        cons = m._split_rows(m.polytope.constraints)
        # one fiber beyond each end, so empty slices are compared too
        for z in range(int(np.floor(lo[0])) - 1, int(np.ceil(hi[0])) + 2):
            sliced, feasible = m._slice_constraints(np.array([float(z)]), cons)
            if not feasible:
                continue
            verts, vol = m._slice_geometry(sliced)
            want = _pairwise_polygon(sliced)
            assert verts.shape == want.shape and np.array_equal(verts, want)
            assert vol == abs(geom.shoelace_area(want))
            empty += len(want) == 0
    assert empty > 0


def test_restricted_mixed_fibers_match_the_pairwise_polygon():
    # a restriction clips each live fiber polygon by the new cuts alone; the
    # result is the polygon of all the fiber's rows, and no other fiber lives
    compared = 0
    for k in range(20):
        gen = np.random.default_rng([73, k])
        m = MixedInteger(_seeded_mixed_1_2(k), 1, 2)
        lo, hi = m.polytope.bounding_box()
        for i in range(7):   # i = 3: a flat cut, on the integer axis alone
            u = np.eye(3)[0] if i == 3 else gen.normal(size=3)
            z, verts, _v = m.fibers[int(gen.integers(len(m.fibers)))]
            off = float(u @ np.r_[z, verts.mean(axis=0)]) - 0.5 * np.linalg.norm(u)
            m = m.restrict([Halfspace.from_vector(u, off, closed=i % 2 == 0)])
        rows = m._split_rows(m.polytope.constraints + m.region)
        fibers = {z[0]: (verts, vol) for z, verts, vol in m.fibers}
        for z in range(int(np.floor(lo[0])) - 1, int(np.ceil(hi[0])) + 2):
            sliced, feasible = m._slice_constraints(np.array([float(z)]), rows)
            want = _pairwise_polygon(sliced) if feasible else np.zeros((0, 2))
            area = abs(geom.shoelace_area(want))
            if area <= MASS_TOL:
                assert z not in fibers
                continue
            verts, vol = fibers[z]
            assert verts.shape == want.shape
            assert np.abs(verts - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert vol == pytest.approx(area, rel=1e-12)
            compared += 1
    assert compared > 30


def test_mixed_tail_norms_are_taken_once_per_constraint(monkeypatch):
    # a constraint's continuous tail is the same on every fiber, so the
    # zero-tail test costs one norm per facet and per cut, however many fibers
    real = np.linalg.norm
    calls = []

    def norm(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "centercut.measures":
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    cut = Halfspace.from_vector([0.3, 1.0, -0.5], 0.2)
    for K in (2, 20):
        m = MixedInteger(Polytope.from_box([0.0, 0.0, 0.0], [K, 1.0, 1.0]), 1, 2)
        assert len(m.fibers) == K + 1 and len(calls) == 6
        m.halfspace_mass(cut)
        assert len(calls) == 7
        calls.clear()


@pytest.mark.parametrize("closed", [True, False])
def test_zero_tail_cut_keeps_or_drops_whole_fibers(closed):
    # box [0, 2] x [0, 1]^2: three unit fibers; a cut on the integer axis at
    # 1 keeps fiber 1 exactly when it is closed
    m = MixedInteger(Polytope.from_box([0.0, 0.0, 0.0], [2.0, 1.0, 1.0]), 1, 2)
    up = Halfspace.from_vector([1.0, 0.0, 0.0], 1.0, closed=closed)
    down = Halfspace.from_vector([-1.0, 0.0, 0.0], -1.0, closed=closed)
    kept = 2.0 / 3.0 if closed else 1.0 / 3.0
    assert float(m.halfspace_mass(up)) == kept
    assert float(m.halfspace_mass(down)) == kept
    assert [z for z, _p, _v in m.restrict([up]).fibers] == ([(1,), (2,)] if closed else [(2,)])
    assert [z for z, _p, _v in m.restrict([down]).fibers] == ([(0,), (1,)] if closed else [(0,)])


def test_samples_match_the_old_rejection_loops():
    tri = Polytope.from_vertices_2d([[0.0, 0.0], [3.0, 0.5], [1.0, 2.0]])
    cut = Halfspace.from_vector([1.0, 1.0], 1.0, closed=False)
    pyramid = Polytope.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [1, 1, 1, 2]])
    for m in (UniformPolytope(tri), UniformPolytope(tri).restrict([cut]),
              UniformPolytope(pyramid)):
        lo, hi = m.region_vertices().min(axis=0), m.region_vertices().max(axis=0)
        want = _rejection_loop(RngState(4).generator(), lo, hi, 3000, 1024,
                               lambda p: m.polytope.contains(p) & _cut_mask(p, m.region))
        assert np.array_equal(m.sample(RngState(4), 3000), want)

    m = MixedInteger(_seeded_mixed_1_2(3), 1, 2)
    gen = RngState(9).generator()
    vols = np.array([v for _z, _p, v in m.fibers])
    picks = np.minimum(np.searchsorted(np.cumsum(vols / vols.sum()), gen.random(700),
                                       side="right"), len(m.fibers) - 1)
    want = np.zeros((700, 3))
    for fi in np.unique(picks):
        rows = np.where(picks == fi)[0]
        z, verts, _v = m.fibers[fi]
        want[rows, 0] = z[0]
        want[rows, 1:] = _rejection_loop(gen, verts.min(axis=0), verts.max(axis=0),
                                         len(rows), 256,
                                         lambda p: _points_in_polygon(p, verts))
    assert len(np.unique(picks)) > 1
    assert np.array_equal(m.sample(RngState(9), 700), want)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2)])
def test_mixed_measure_above_dimension_three_raises(n, d):
    with pytest.raises(DimensionTooLarge):
        MixedInteger(Polytope.from_box(np.zeros(4), np.ones(4)), n, d)


# ---------------------------------------------------------------------------
# exact 3D uniform measures

BOX_432 = Polytope.from_box([0.0] * 3, [4.0, 3.0, 2.0])


def test_mixed_fiber_grid_above_the_cap_raises_before_any_slice(spy):
    # [0, 1e9] x [0, 1] has 1e9 + 1 integer fibers, more than LATTICE_CAP
    sliced = spy(MixedInteger, "_slice_constraints")
    with pytest.raises(BudgetExceeded, match="exceeds cap"):
        MixedInteger(Polytope.from_box([0.0, 0.0], [1e9, 1.0]), 1, 1)
    assert sliced == []


@pytest.mark.parametrize("top", [10 ** 19, 10 ** 20])
def test_mixed_fiber_grid_past_the_int64_range_raises_budget_exceeded(spy, top):
    # the bounds lie past 2**63, where no int64 holds them, so the grid
    # counted in int64 would look empty
    sliced = spy(MixedInteger, "_slice_constraints")
    with pytest.raises(BudgetExceeded, match=f"fiber grid of size {top + 1} exceeds"):
        MixedInteger(Polytope.from_box([0.0, 0.0], [float(top), 1.0]), 1, 1)
    assert sliced == []


def test_uniform_3d_masses_match_closed_forms():
    m = UniformPolytope(BOX_432)
    assert m.total_mass == pytest.approx(24.0, rel=1e-12)
    for t in (0.5, 1.0, 3.7):
        for closed in (True, False):
            e = m.halfspace_mass(Halfspace.from_vector([1.0, 0.0, 0.0], t, closed))
            assert float(e) == pytest.approx((4.0 - t) / 4.0, abs=1e-12)
    for s in (0.5, 1.5, 2.0):   # the corner x + y + z <= s, s <= 2
        e = m.halfspace_mass(Halfspace.from_vector([-1.0, -1.0, -1.0], -s))
        assert float(e) == pytest.approx(s ** 3 / 6.0 / 24.0, abs=1e-12)
    assert float(m.halfspace_mass(Halfspace.from_vector([0.0, 0.0, 1.0], 5.0))) == 0.0
    assert float(m.halfspace_mass(Halfspace.from_vector([0.0, 0.0, 1.0], -1.0))) == 1.0
    cube = UniformPolytope(Polytope.from_box([0.0] * 3, [1.0] * 3))
    assert cube.total_mass == pytest.approx(1.0, rel=1e-12)
    cut = Halfspace.from_vector([-1.0, -1.0, -1.0], -1.5)
    assert cube.restrict([cut]).total_mass == pytest.approx(0.5, abs=1e-12)
    assert float(cube.halfspace_mass(cut)) == pytest.approx(0.5, abs=1e-12)
    half = cube.restrict([Halfspace.from_vector([1.0, 1.0, 0.0], 1.0)])
    assert half.total_mass == pytest.approx(0.5, abs=1e-12)


def _rows_volume_3d(A, b):
    """Reference: volume, centroid and hull vertices of ``{y : A y >= b}``
    from the basic solutions of all its rows, their hull fanned from the
    solutions' mean; 3D uniform measures computed them so before they
    clipped their vertex sets."""
    pts, _ = geom._basic_solutions(A, b, geom.EPS * max(1.0, float(np.max(np.abs(b)))))
    if len(pts) < 4:
        return 0.0, None, pts
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0, None, pts
    c = pts.mean(axis=0)
    T = pts[hull.simplices] - c
    vols = np.abs(np.linalg.det(T)) / 6.0
    return float(vols.sum()), c + (vols @ T.sum(axis=1)) / (4.0 * vols.sum()), pts[hull.vertices]


def _near_both_ways(p, q, tol):
    d = np.linalg.norm(p[:, None] - q[None], axis=-1)
    return bool(d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol)


@pytest.mark.parametrize("seed", range(6))
def test_clipped_3d_regions_match_the_rows_they_were_cut_by(seed):
    # masses, centroids, vertex sets and halfspace masses along a seeded
    # chain of open and closed cuts, each restriction clipping its parent's
    # vertices, equal those of all the rows' basic solutions
    gen = np.random.default_rng([72, seed])
    poly = (BOX_432, _SLANTED)[seed % 2]
    A = np.array([h.n for h in poly.constraints])
    b = np.array([h.offset for h in poly.constraints])
    m = UniformPolytope(poly)
    for i in range(31):
        verts = m.region_vertices()
        u = gen.normal(size=3)
        u /= np.linalg.norm(u)
        if i == 30:   # through the region's lowest vertex along u: keeps it all
            off = float((verts @ u).min())
        else:
            proj = verts @ u
            off = float(u @ centroid(m)) - gen.uniform(-0.2, 0.5) * float(proj.max() - proj.min())
        cut = Halfspace(Direction(u), off, closed=i % 2 == 0)
        A, b = np.vstack([A, u]), np.append(b, off)
        vol, c, want = _rows_volume_3d(A, b)
        assert m.halfspace_mass(cut) == pytest.approx(vol / m.total_mass, rel=1e-12)
        m = m.restrict([cut])
        assert m.total_mass == pytest.approx(vol, rel=1e-12)
        assert np.abs(centroid(m) - c).max() <= 1e-12 * np.abs(c).max()
        assert _near_both_ways(m.region_vertices(), want, 1e-12 * np.abs(want).max())
    assert len(m.region) == 31 and m.total_mass < 1e-3 * UniformPolytope(poly).total_mass
    x = np.eye(3)[seed % 3]
    c = centroid(m)
    for cuts in ([Halfspace.from_vector(x, float(x @ c)), Halfspace.from_vector(-x, -float(x @ c))],
                 [Halfspace.from_vector(x, float(m.region_vertices()[:, seed % 3].max()) + 0.5,
                                        closed=False)]):   # flat, then empty
        rows = np.vstack([A] + [h.n for h in cuts]), np.append(b, [h.offset for h in cuts])
        assert _rows_volume_3d(*rows)[0] <= MASS_TOL
        with pytest.raises(EmptyRegion):
            m.restrict(cuts)


def _tetrahedron(v):
    eq = ConvexHull(v).equations   # n . x + c <= 0 inside
    return Polytope.from_rows(np.c_[eq[:, :3], -eq[:, 3]])


def test_uniform_3d_centroid_of_a_tetrahedron_is_its_vertex_mean():
    gen = np.random.default_rng(51)
    for _ in range(8):
        v = gen.uniform(-3.0, 3.0, size=(4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) < 0.5:
            continue
        m = UniformPolytope(_tetrahedron(v))
        assert m.total_mass == pytest.approx(abs(np.linalg.det(v[1:] - v[0])) / 6.0,
                                             rel=1e-9)
        assert centroid(m) == pytest.approx(v.mean(axis=0), abs=1e-9)
        got = m.region_vertices()
        assert got[np.lexsort(got.T[::-1])] == pytest.approx(v[np.lexsort(v.T[::-1])],
                                                               abs=1e-9)


def test_uniform_3d_centroid_matches_a_sampled_mean():
    gen = np.random.default_rng(52)
    cuts = []
    for _ in range(4):
        u = gen.normal(size=3)
        cuts.append(Halfspace.from_vector(u, float(u @ gen.uniform([1.5, 1.0, 0.6],
                                                                   [2.5, 2.0, 1.4])) - 0.8))
    m = UniformPolytope(BOX_432).restrict(cuts)
    c = centroid(m)
    pts = m.sample(RngState(5), 20_000)
    assert np.all(m.polytope.contains(pts)) and np.all(_cut_mask(pts, m.region))
    se = pts.std(axis=0) / np.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0) - c) <= 4.0 * se)
    frac = m.total_mass / float(np.prod(pts.max(axis=0) - pts.min(axis=0)))
    assert 0.0 < frac <= 1.0


@pytest.mark.parametrize("side, mass", [(0.5, 0.125), (5.0, 125.0)])
def test_small_region_of_a_large_box_is_exact_and_samples(side, mass):
    # 20k box samples found no point of [0, 0.5]^3 in [0, 100]^3, and read
    # [0, 5]^3 as 50 +- 50
    big = Polytope.from_box([0.0] * 3, [100.0] * 3)
    cuts = [Halfspace.from_vector(-np.eye(3)[i], -side, closed=False) for i in range(3)]
    m = UniformPolytope(big).restrict(cuts)
    assert m.total_mass == pytest.approx(mass, rel=1e-12)
    assert centroid(m) == pytest.approx(np.full(3, side / 2.0), abs=1e-12)
    pts = m.sample(RngState(1), 500)
    assert pts.shape == (500, 3) and np.all(pts <= side) and np.all(pts >= 0.0)


def test_flat_or_empty_3d_regions_raise():
    cube = UniformPolytope(Polytope.from_box([0.0] * 3, [1.0] * 3))
    flat = [Halfspace.from_vector([1.0, 0.0, 0.0], 0.5),
            Halfspace.from_vector([-1.0, 0.0, 0.0], -0.5)]
    beyond = [Halfspace.from_vector([1.0, 0.0, 0.0], 2.0)]
    corner = [Halfspace.from_vector([1.0, 1.0, 1.0], 3.0)]
    for cuts in (flat, beyond, corner):
        with pytest.raises(EmptyRegion):
            cube.restrict(cuts)


def test_uniform_and_mixed_masses_and_centers_draw_no_samples(monkeypatch):
    def refuse(self, rng, count):
        raise AssertionError("a mass or center drew samples")

    monkeypatch.setattr(UniformPolytope, "sample", refuse)
    monkeypatch.setattr(MixedInteger, "sample", refuse)
    cut = Halfspace.from_vector([1.0, 2.0, -1.0], 1.0)
    m = UniformPolytope(BOX_432).restrict([cut])
    m.restrict([Halfspace.from_vector([0.0, 1.0, 1.0], 1.0)])
    m.halfspace_mass(Halfspace.from_vector([1.0, 1.0, 1.0], 3.0))
    centroid(m)
    _mixed_mean(MixedInteger(Polytope.from_box([0.0] * 3, [3.0, 1.0, 1.0]), 1, 2))
    _mixed_mean(MixedInteger(STRIP, 1, 1))
    centerpoint_lenstra_mixed(Polytope.from_box([0.0] * 3, [3.0, 3.0, 1.0]), 2, 1,
                              omega_bar=2.0)
