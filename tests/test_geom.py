import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

import centercut.geom as geom_mod

from centercut.errors import BudgetExceeded, DimensionTooLarge, Infeasible, Unbounded
from centercut.geom import (Box, Direction, Halfspace, Polytope, clip_polygon_vertices,
                            convex_hull_2d, enumerate_lattice_points,
                            enumerate_vertices, lattice_width_2d, shoelace_area)

SQUARE = Polytope.from_vertices_2d([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE_2 = Polytope.from_vertices_2d([[0, 0], [2, 0], [0, 2]])


def _hull_polygon(pts: np.ndarray) -> Polytope:
    hull = ConvexHull(pts)
    return Polytope.from_vertices_2d(pts[hull.vertices])


def _clip(poly: Polytope, h: Halfspace) -> np.ndarray:
    """The vertex cycle of ``poly`` clipped by ``h``."""
    return clip_polygon_vertices(poly.vertices(), h.n, h.offset)


def _area(poly: Polytope) -> float:
    """Signed area of the CCW vertex cycle of ``poly``."""
    return shoelace_area(poly.vertices())


def test_direction_normalized():
    d = Direction.from_vector([3.0, 4.0])
    assert abs(np.linalg.norm(d.coords) - 1.0) <= 1e-12
    assert np.allclose(d.coords, [0.6, 0.8])


def test_direction_rejects_zero():
    with pytest.raises(ValueError):
        Direction.from_vector([0.0, 0.0])


def test_halfspace_from_vector_normalizes_once(spy):
    gen = np.random.default_rng(4)
    for v, c in zip(gen.normal(size=(50, 3)) * 10.0 ** gen.integers(-5, 6, (50, 1)),
                    gen.normal(size=50)):
        h = Halfspace.from_vector(v, c)
        assert np.array_equal(h.n, Direction.from_vector(v).coords)
        assert h.offset == c / float(np.linalg.norm(v))
    # the one norm is sqrt(v . v), the sum np.linalg.norm takes
    norms = spy(np.linalg, "norm")
    roots = spy(geom_mod.math, "sqrt")
    Halfspace.from_vector([3.0, -4.0], 1.0)
    assert len(roots) == 1 and norms == []
    with pytest.raises(ValueError):
        Halfspace.from_vector([0.0, 0.0], 1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError):   # the norm overflows
        Halfspace.from_vector([1e308, 1e308], 1.0)


def test_halfspace_membership_openness():
    h = Halfspace.from_vector([1.0, 0.0], 0.5)          # {x1 >= 0.5}
    pts = np.array([[0.5, 0.0], [0.4, 0.0], [0.6, 0.0]])
    assert h.contains(pts).tolist() == [True, False, True]
    assert Halfspace(h.normal, h.offset, False).contains(pts).tolist() == [False, False, True]
    comp = h.complement()
    assert comp.contains(pts).tolist() == [False, True, False]
    assert not comp.closed


def test_clip_square_diagonal():
    # {x1 + x2 <= 1} keeps the lower-left triangle
    h = Halfspace.from_vector([-1.0, -1.0], -1.0)
    out = _clip(SQUARE, h)
    assert shoelace_area(out) == pytest.approx(0.5, abs=1e-12)
    assert len(out) == 3


def test_clip_disjoint_halfspace_empty():
    h = Halfspace.from_vector([1.0, 0.0], 2.0)
    out = _clip(SQUARE, h)
    assert len(out) == 0
    assert shoelace_area(out) == 0.0


def test_clip_triangle_quadrilateral_area():
    # triangle (0,0),(2,0),(0,2) cut by {x1 <= 1}: shoelace on the
    # corners (0,0),(1,0),(1,1),(0,2) gives 1.5
    h = Halfspace.from_vector([-1.0, 0.0], -1.0)
    out = _clip(TRIANGLE_2, h)
    assert shoelace_area(out) == pytest.approx(1.5, abs=1e-12)
    assert len(out) == 4


def test_polygon_area_basics():
    assert _area(SQUARE) == pytest.approx(1.0, abs=1e-12)
    tri = Polytope.from_vertices_2d([[0, 0], [1, 0], [0, 1]])
    assert _area(tri) == pytest.approx(0.5, abs=1e-12)
    seg = Polytope.from_vertices_2d([[0, 0], [1, 0]])
    assert _area(seg) == 0.0


def test_clip_matches_analytic_rectangle_grid():
    # axis-parallel cuts of an axis-aligned rectangle have closed-form areas
    rect = Polytope.from_vertices_2d([[0, 0], [3, 0], [3, 2], [0, 2]])
    for t in np.linspace(-1.0, 4.0, 26):
        h = Halfspace.from_vector([-1.0, 0.0], -t)      # {x1 <= t}
        want = 2.0 * min(max(float(t), 0.0), 3.0)
        assert shoelace_area(_clip(rect, h)) == pytest.approx(want, abs=1e-9)
    for t in np.linspace(-0.5, 2.5, 25):
        h = Halfspace.from_vector([0.0, 1.0], t)        # {x2 >= t}
        want = 3.0 * (2.0 - min(max(float(t), 0.0), 2.0))
        assert shoelace_area(_clip(rect, h)) == pytest.approx(want, abs=1e-9)


def test_clip_additivity_500_random_pairs():
    gen = np.random.default_rng(20240817)
    for _ in range(500):
        poly = _hull_polygon(gen.uniform(-3, 3, size=(7, 2)))
        if _area(poly) < 1e-6:
            continue
        u = gen.normal(size=2)
        u /= np.linalg.norm(u)
        c = float(u @ (poly.vertices().mean(axis=0) + gen.normal(size=2)))
        h = Halfspace.from_vector(u, c)
        a = shoelace_area(_clip(poly, h))
        b = shoelace_area(_clip(poly, h.complement()))
        assert a + b == pytest.approx(_area(poly), abs=1e-9)


def test_enumerate_vertices_square_triangle():
    sq = Polytope.from_rows([[1, 0, 1], [-1, 0, 0], [0, 1, 1], [0, -1, 0]])
    assert len(sq.vertices()) == 4
    tri = Polytope.from_rows([[-1, 0, 0], [0, -1, 0], [1, 1, 1]])
    assert len(tri.vertices()) == 3


def test_enumerate_vertices_infeasible_unbounded():
    with pytest.raises(Infeasible):
        enumerate_vertices(Polytope.from_rows([[-1, 0], [1, -1]], validate=False))
    with pytest.raises(Unbounded):
        enumerate_vertices(Polytope.from_rows([[-1, 0, 0], [0, -1, 0]],
                                              validate=False))


def test_vertices_satisfy_all_constraints():
    gen = np.random.default_rng(7)
    for _ in range(20):
        rows = [[1, 0, 10], [-1, 0, 10], [0, 1, 10], [0, -1, 10]]
        for _ in range(6):
            u = gen.normal(size=2)
            u /= np.linalg.norm(u)
            rows.append([u[0], u[1], gen.uniform(0.5, 6.0)])
        P = Polytope.from_rows(rows)
        V = P.vertices()
        assert len(V) >= 3
        for v in V:
            assert P.contains(v[None])[0]


def test_lattice_points_frozen_counts():
    sq2 = Polytope.from_rows([[1, 0, 2], [-1, 0, 0], [0, 1, 2], [0, -1, 0]])
    assert len(enumerate_lattice_points(sq2)) == 9
    assert len(enumerate_lattice_points(TRIANGLE_2)) == 6
    thin = Polytope.from_rows([[1, 0, 0.8], [-1, 0, -0.2], [0, 1, 1], [0, -1, 0]])
    assert len(enumerate_lattice_points(thin)) == 0


def test_lattice_points_match_box_scan():
    gen = np.random.default_rng(99)
    checked = 0
    for _ in range(14):
        poly = _hull_polygon(gen.uniform(-4, 4, size=(5, 2)))
        if _area(poly) < 0.5:
            continue
        checked += 1
        got = {tuple(int(c) for c in p) for p in enumerate_lattice_points(poly)}
        lo, hi = poly.bounding_box()
        want = set()
        for i in range(int(np.floor(lo[0])) - 1, int(np.ceil(hi[0])) + 2):
            for j in range(int(np.floor(lo[1])) - 1, int(np.ceil(hi[1])) + 2):
                if poly.contains(np.array([[i, j]], dtype=float))[0]:
                    want.add((i, j))
        assert got == want
    assert checked >= 10


def test_lattice_points_come_in_lexicographic_order():
    # the bounding-box grid is scanned in lexicographic order, so no sort runs
    polys = [TRIANGLE_2, Polytope.from_rows([[1, 5.5], [-1, 0.3]]),
             Polytope.from_rows([[1, 1, 3.5], [-1, 0, 0.5], [0, -1, 1], [1, -2, 2]]),
             Polytope.from_box([-1.0, 0.0, -2.0], [1.0, 2.0, 0.5])]
    for poly in polys:
        pts = enumerate_lattice_points(poly)
        assert len(pts) > 2
        assert np.array_equal(pts, pts[np.lexsort(pts.T[::-1])])


def test_lattice_enumeration_budget():
    big = Polytope.from_rows([[1, 0, 9000], [-1, 0, 0], [0, 1, 9000], [0, -1, 0]])
    with pytest.raises(BudgetExceeded):
        enumerate_lattice_points(big, cap=1000)


@pytest.mark.parametrize("top", [10 ** 19, 10 ** 20])
def test_lattice_grid_past_the_int64_range_raises_budget_exceeded(top):
    # the bounds lie past 2**63, where no int64 holds them: the grid size is
    # counted in exact integers, and no warning is raised
    box = Polytope.from_box([0.0, 0.0], [float(top), 1.0])
    with pytest.raises(BudgetExceeded, match=f"lattice grid of size {2 * top + 2} exceeds"):
        enumerate_lattice_points(box)


def test_lattice_width_frozen():
    B = 5
    sq = Polytope.from_vertices_2d([[0, 0], [B, 0], [B, B], [0, B]])
    w, u = lattice_width_2d(sq)
    assert w == pytest.approx(float(B), abs=1e-9)
    assert tuple(u) == (1, 0)

    flat = Polytope.from_vertices_2d([[0, 0], [10, 0], [10, 0.5], [0, 0.5]])
    w, u = lattice_width_2d(flat)
    assert w == pytest.approx(0.5, abs=1e-9)
    assert tuple(u) == (0, 1)

    tri = Polytope.from_vertices_2d([[0, 0], [3, 0], [0, 3]])
    w, _u = lattice_width_2d(tri)
    assert w == pytest.approx(3.0, abs=1e-9)


def _width_test_polygons(seed, count):
    # random hulls, slivers, rotated slivers and integer hexagons
    gen = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            v = gen.uniform(-5, 5, size=(gen.integers(3, 9), 2))
        elif kind in (1, 2):
            a = gen.uniform(0.0, np.pi) if kind == 2 else 0.0
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            L, h = gen.uniform(2.0, 12.0), gen.uniform(0.3, 1.0)
            v = np.array([[0, 0], [L, 0], [L, h], [0, h]]) @ rot.T + gen.uniform(-3, 3, 2)
        else:
            ang = np.linspace(0, 2 * np.pi, 6, endpoint=False) + gen.uniform(-0.3, 0.3, 6)
            v = np.round(np.c_[np.cos(ang), np.sin(ang)] * gen.uniform(2, 6))
        out.append(Polytope.from_vertices_2d(convex_hull_2d(v)))
    return out


def test_lattice_width_matches_a_fixed_radius_search():
    # a minimizing u has |u| <= diameter / Euclidean width, at most 40 here,
    # so every direction with entries in [-40, 40] holds all of them
    R = 40
    U = np.array([(a, b) for a in range(R + 1) for b in range(-R, R + 1)
                  if a > 0 or b > 0])
    for P in _width_test_polygons(31, 60):
        v = P.vertices()
        assert len(v) >= 3
        edges = np.roll(v, -1, axis=0) - v
        euclid = min(np.abs(e[0] * (v - p)[:, 1] - e[1] * (v - p)[:, 0]).max()
                     / np.linalg.norm(e) for e, p in zip(edges, v))
        diam = max(np.linalg.norm(p - q) for p in v for q in v)
        assert diam / euclid <= R
        proj = v @ U.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        best = widths.min()
        tied = U[widths <= best + 1e-12 * (1.0 + best)]
        w, u = lattice_width_2d(P)
        assert w == pytest.approx(best, abs=1e-12 * (1.0 + best))
        assert tuple(u) == max(map(tuple, tied))


def test_lattice_width_unimodular_invariance():
    gen = np.random.default_rng(4242)
    base = Polytope.from_vertices_2d([[0, 0], [4, 1], [3, 5], [-1, 3]])
    w0, u0 = lattice_width_2d(base)
    assert math.gcd(*map(int, u0)) == 1
    found = 0
    while found < 20:
        M = gen.integers(-3, 4, size=(2, 2))
        if abs(round(np.linalg.det(M))) != 1:
            continue
        found += 1
        img = _hull_polygon(base.vertices() @ M.T.astype(float))
        w1, u1 = lattice_width_2d(img)
        assert w1 == pytest.approx(w0, abs=1e-9)
        assert math.gcd(*map(int, u1)) == 1


@pytest.mark.parametrize("rows, want_u", [
    # |1001x - 1000y| <= 1/2: the flat direction lies far outside any small
    # direction grid
    ([[1001, -1000, 0.5], [-1001, 1000, 0.5], [1, 0, 3000], [-1, 0, 0]], (1001, -1000)),
    ([[1, -1, 0.5], [-1, 1, 0.5], [1, 0, 3000], [-1, 0, 0]], (1, -1)),
])
def test_lattice_width_of_long_thin_strips(rows, want_u):
    P = Polytope.from_rows(rows)
    t0 = time.perf_counter()
    w, u = lattice_width_2d(P)
    assert time.perf_counter() - t0 < 0.1
    assert tuple(u) == want_u
    assert w == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("verts, want_u", [
    ([[0.3, 0.7]], (1, 0)),
    ([[0, 0], [3, 0]], (0, 1)),
    ([[0, 0], [2, 1]], (1, -2)),
])
def test_lattice_width_of_zero_area_input_is_zero_along_a_primitive_direction(verts, want_u):
    w, u = lattice_width_2d(Polytope.from_vertices_2d(verts))
    assert (w, tuple(u)) == (0.0, want_u)


def test_convex_hull_2d_drops_interior_collinear_and_duplicate_points():
    pts = [[1, 1], [2, 0], [0, 0], [2, 2], [1, 0], [0, 2], [2, 2], [0, 1], [1, 1]]
    assert convex_hull_2d(pts).tolist() == [[0, 0], [2, 0], [2, 2], [0, 2]]
    assert convex_hull_2d([[2, 2], [0, 0], [1, 1], [0, 0]]).tolist() == [[0, 0], [2, 2]]
    assert convex_hull_2d([[3, 1], [3, 1]]).tolist() == [[3, 1]]
    gen = np.random.default_rng(77)
    for _ in range(20):
        cloud = gen.normal(size=(40, 2))
        want = _hull_polygon(cloud).vertices()
        assert np.allclose(convex_hull_2d(cloud), want, atol=1e-12)


def _monotone_chain_hull(pts):
    """``convex_hull_2d`` with its turn tests on numpy scalars: the reference
    for the vertex cycles of 2D polytopes."""
    p = np.unique(np.atleast_2d(np.asarray(pts, dtype=float)).reshape(-1, 2), axis=0)

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2:
                a, b = out[-1] - out[-2], q - out[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(q)
        return out[:-1]

    if len(p) <= 2:
        return geom_mod.canonical_polygon(p)
    return geom_mod.canonical_polygon(np.array(chain(p) + chain(p[::-1])))


def _slice_rows(seed, count):
    """Constraint rows of the integer slices of n=2, d=1 polytopes, a
    hexagon in the integer plane times 0 <= y <= c0 + g.z, each cut by a
    line u.z = t for a small primitive u, as the width-based recursion
    slices them: in the coordinates (k, y) of z = z0 + k*w."""
    gen = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        ang = np.linspace(0, 2 * np.pi, 6, endpoint=False) + gen.uniform(-0.3, 0.3, 6)
        v = np.c_[np.cos(ang), np.sin(ang)] * gen.uniform(1.5, 4.0) + gen.uniform(0, 1, 2)
        rows = [[-h.n[0], -h.n[1], 0.0, -h.offset]
                for h in Polytope.from_vertices_2d(v).constraints]
        g = gen.uniform(-0.3, 0.3, 2)
        rows += [[0.0, 0.0, -1.0, 0.0], [-g[0], -g[1], 1.0, gen.uniform(1.0, 2.0)]]
        P = Polytope.from_rows(rows)
        u = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [1, 2]][gen.integers(6)])
        w = np.array([-u[1], u[0]])
        z0dir = np.array([1, 0]) if u[0] == 1 else np.array([0, 1]) if u[1] == 1 else \
            np.array([1, -1])   # u.z0dir = 1 for every u above
        tv = P.vertices()[:, :2] @ u
        for t in range(math.ceil(tv.min()), math.floor(tv.max()) + 1):
            z0 = t * z0dir
            sl = np.array([[-(h.n[:2] @ w), -h.n[2], -(h.offset - h.n[:2] @ z0)]
                           for h in P.constraints])
            flat = np.abs(sl[:, :2]).max(axis=1) <= 1e-12
            if not np.any(sl[flat, 2] < -1e-9):
                out.append(sl[~flat])
    return out[:count]


def test_polytope_vertex_cycles_are_the_monotone_chain_hull():
    # a 2D polytope orders its enumerated vertices without np.unique and
    # without numpy scalar turn tests; the cycle keeps the reference hull's
    # bits: start vertex, orientation, duplicates and collinear points dropped
    degenerate = [
        # a segment with a row through its midpoint, tilted 1e-12: three
        # collinear vertices
        [[0, 1, 1], [0, -1, -1], [-1, 0, 0], [1, 0, 2], [1e-12, -1, -1 + 1e-12]],
        # a triangle of area 9.9e-19 <= EPS**2: canonical_polygon collapses it
        [[0, -1, 0], [-0.99, 1, 0], [0.99, 1, 1.98e-9]],
        # a redundant row 1e-11 outside a corner: three rows through it
        [[-1, 0, 0], [1, 0, 2], [0, -1, 0], [0, 1, 1], [1, 1, 3 + 1e-11]],
        # a corner cut 1.06e-9 deep, inside the feasibility tolerance: two
        # more vertices, each on the line of an edge
        [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2 - 1.5e-9 / math.sqrt(2)]],
        # a square cut on the diagonal: a triangle whose hull drops nothing
        [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    ]
    cases = _slice_rows(3, 150) + [np.array(r, dtype=float) for r in degenerate]
    dropped = collapsed = 0
    for rows in cases:
        P = Polytope.from_rows(rows)
        found = enumerate_vertices(P)
        want = _monotone_chain_hull(found)
        for got in (P.vertices(), convex_hull_2d(found)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        dropped += len(want) < len(found)
        collapsed += len(want) <= 2 < len(found)
    assert dropped >= 2 and collapsed >= 2


def _seeded_2d_polytope(k):
    """Polytope ``k`` of a seeded family: hulls and collinear runs of points
    (a point, a segment) through ``from_vertices_2d``, boxes (some of zero
    width) through ``from_box``, halfplanes around a point through
    ``from_halfspaces``, and triangles of area at most EPS**2 through
    ``from_rows``, which canonical_polygon collapses to a segment."""
    g = np.random.default_rng([41, k])
    kind = k % 6
    if kind == 5:
        a = float(g.uniform(0.5, 0.99))
        return Polytope.from_rows([[0, -1, 0], [-a, 1, 0], [a, 1, 2e-9 * a]])
    if kind == 0:
        return _hull_polygon(g.uniform(-3, 3, size=(int(g.integers(3, 9)), 2)))
    if kind == 1:
        base = g.integers(-3, 3, size=2).astype(float)
        step = g.integers(-2, 3, size=2).astype(float)
        return Polytope.from_vertices_2d(base + np.outer(np.arange(g.integers(1, 4)), step))
    if kind == 2:
        return Polytope.from_box(g.uniform(-3, 0, 2), g.uniform(0, 3, 2))
    if kind == 3:
        lo = g.integers(-3, 3, 2).astype(float)
        return Polytope.from_box(lo, lo + [g.integers(0, 3), g.integers(0, 2)])
    c = g.uniform(-1, 1, 2)
    hs = [Halfspace.from_vector(u, float(u @ c) - r)
          for u, r in zip(g.normal(size=(int(g.integers(3, 8)), 2)), g.uniform(0.2, 2, 8))]
    hs += [Halfspace.from_vector(u, -5.0) for u in ([1, 0], [-1, 0], [0, 1], [0, -1])]
    return Polytope.from_halfspaces(hs)


def test_2d_vertices_are_already_canonical():
    # vertices() of a 2D polytope is the CCW cycle from the lexicographically
    # smallest vertex, so canonical_polygon keeps its bytes; degenerate
    # polytopes give one point or a segment's two ends
    sizes = set()
    for k in range(400):
        v = _seeded_2d_polytope(k).vertices()
        canon = geom_mod.canonical_polygon(v)
        assert canon.shape == v.shape and canon.tobytes() == v.tobytes()
        sizes.add(len(v))
    assert {1, 2, 3, 4, 5} <= sizes


def test_nearest_point_in_polygon():
    # a point the polygon holds stays; others go to the nearest boundary
    # point, against a dense sample of the boundary
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    for p in ([1.0, 1.0], [0.0, 0.0], [2.0, 0.0]):
        assert np.array_equal(geom_mod.nearest_point_in_polygon(tri, p), p)
    t = np.linspace(0.0, 1.0, 20_001)[:, None]
    boundary = np.vstack([a + t * (b - a) for a, b in zip(tri, np.roll(tri, -1, axis=0))])
    gen = np.random.default_rng(4)
    for p in gen.uniform(-3.0, 7.0, size=(40, 2)):
        q = geom_mod.nearest_point_in_polygon(tri, p)
        if Polytope.from_vertices_2d(tri).contains(p[None])[0]:
            assert np.array_equal(q, p)
            continue
        ref = np.min(np.hypot(*(boundary - p).T))
        assert np.hypot(*(q - p)) == pytest.approx(ref, abs=1e-3)
        assert np.hypot(*(q - p)) <= ref + 1e-12
    assert np.array_equal(geom_mod.nearest_point_in_polygon(tri, [-1.0, -1.0]), [0.0, 0.0])
    assert geom_mod.nearest_point_in_polygon(tri, [2.0, -5.0]) == pytest.approx([2.0, 0.0])


def test_box_half_open_semantics():
    b = Box([0.0, 0.0], [2.0, 2.0])
    inside = b.contains_half_open(np.array([[0.0, 0.0], [1.9999, 1.0],
                                            [2.0, 1.0], [-0.1, 0.5]]))
    assert inside.tolist() == [True, True, False, False]
    assert b.diameter() == pytest.approx(np.sqrt(8.0))
    cuts = b.half_open_cuts()
    assert len(cuts) == 4
    assert sum(1 for c in cuts if c.closed) == 2


def test_from_rows_matches_from_box():
    P = Polytope.from_rows([[1, 0, 2], [-1, 0, 0], [0, 1, 3], [0, -1, -1]])
    Q = Polytope.from_box([0.0, 1.0], [2.0, 3.0])
    assert np.allclose(P.vertices(), Q.vertices())
    assert _area(P) == pytest.approx(_area(Q), abs=1e-12)


@pytest.mark.parametrize("rows", [
    [[1, 0, 2], [-1, 0, 0], [0, 1, 1], [0, -1, 0], [1, 1, 2.5]],
    [[1, 0, 0, 2], [-1, 0, 0, 0], [0, 1, 0, 2], [0, -1, 0, 0], [0, 0, 1, 1],
     [0, 0, -1, 0], [1, 1, 1, 4]],
    [[1, 3], [-1, 1], [2, 4]],
])
def test_validated_polytope_runs_no_lp(spy, rows):
    # the enumeration proves a nonempty bounded polytope by itself
    calls = spy(geom_mod, "linprog")
    P = Polytope.from_rows(rows)
    P.vertices()
    P.bounding_box()
    assert calls == []


_DEGENERATE = {
    # each system's vertices or exception, as the LP check decides them
    "point": ([[-1, 0, 0], [0, -1, 0], [1, 1, 0]], [[0, 0]]),
    "segment": ([[1, 0, 1], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], [[0, 0], [1, 0]]),
    "rotated-segment": ([[1, 1, 1], [-1, -1, -1], [1, -1, 1], [-1, 1, 1]], [[0, 1], [1, 0]]),
    # a 1e-10-wide sliver: its vertices lie within the 1e-9 dedupe distance
    "sliver": ([[1, 0, 1], [-1, 0, 0], [0, 1, 1e-10], [0, -1, 0]], [[0, 1e-10], [1, 1e-10]]),
    "wedge": ([[-1, 0, 0], [0, -1, 0], [1, -1, 1]], Unbounded),
    "strip": ([[0, 1, 1], [0, -1, 0], [-1, 0, 0]], Unbounded),
    "infeasible-1e-10": ([[1, 0, 0], [-1, 0, -1e-10], [0, 1, 1], [0, -1, 0]],
                         [[0, 0], [0, 1]]),
    "infeasible-1e-6": ([[1, 0, 0], [-1, 0, -1e-6], [0, 1, 1], [0, -1, 0]], Infeasible),
    "infeasible-1e-10-at-1e4": ([[1, 0, 1e4], [-1, 0, -1e4 - 1e-10], [0, 1, 1e4 + 1],
                                 [0, -1, -1e4]], [[1e4, 1e4], [1e4, 1e4 + 1]]),
    # EPS * scale is 1e-5 here, so the brute force alone would accept it
    "infeasible-1e-6-at-1e4": ([[1, 0, 1e4], [-1, 0, -1e4 - 1e-6], [0, 1, 1e4 + 1],
                                [0, -1, -1e4]], Infeasible),
    "1d-point": ([[1, 2], [-1, -2]], [[2]]),
    "1d-infeasible-1e-10": ([[1, 0], [-1, -1e-10]], [[1e-10]]),
    "1d-infeasible-1e-6-at-1e4": ([[1, 1e4], [-1, -1e4 - 1e-6]], Infeasible),
    "1d-ray": ([[1, 3]], Unbounded),
    "3d-point": ([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [1, 1, 1, 0]], [[0, 0, 0]]),
    "3d-sliver": ([[1, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0], [0, 0, 1, 1e-10],
                   [0, 0, -1, 0]], [[0, 0, 1e-10], [0, 1, 1e-10], [1, 0, 1e-10], [1, 1, 1e-10]]),
    "3d-strip": ([[1, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0]], Unbounded),
    "3d-wedge-in-a-slab": ([[1, 0, 0, 1], [-1, 0, 0, 0], [0, 0, 1, 1], [0, 0, -1, 0],
                            [1, 1, 0, 5]], Unbounded),
    "3d-infeasible-1e-6-at-1e4": ([[1, 0, 0, 1e4], [-1, 0, 0, -1e4 - 1e-6], [0, 1, 0, 1],
                                   [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, 0]], Infeasible),
}


@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_validation_of_degenerate_and_nearly_infeasible_systems(name):
    rows, want = _DEGENERATE[name]
    if isinstance(want, type):
        with pytest.raises(want):
            Polytope.from_rows(rows)
    else:
        assert np.array_equal(Polytope.from_rows(rows).vertices(), want)


@pytest.mark.parametrize("rows, error", [
    ([[1, 0], [-1, -1]], Infeasible),                         # x <= 0, x >= 1
    ([[1, 1]], Unbounded),
    ([[1, 0, 0], [-1, 0, -1], [0, 1, 1], [0, -1, 0]], Infeasible),
    ([[1, 0, 1], [0, 1, 1], [0, -1, 0]], Unbounded),
    ([[1, 0, 0, 0], [-1, 0, 0, -1], [0, 1, 0, 1], [0, -1, 0, 0], [0, 0, 1, 1],
      [0, 0, -1, 0]], Infeasible),
    ([[1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, 0]], Unbounded),
    (np.vstack([np.hstack([np.eye(4), np.zeros((4, 1))]),
                np.hstack([-np.eye(4), -np.ones((4, 1))])]), Infeasible),
    (np.hstack([np.eye(4), np.ones((4, 1))]), Unbounded),
])
def test_validation_rejects_infeasible_and_unbounded_rows(rows, error):
    with pytest.raises(error):
        Polytope.from_rows(rows)


def test_four_dimensional_box_validates_without_vertices():
    P = Polytope.from_rows(np.vstack([np.hstack([np.eye(4), np.ones((4, 1))]),
                                      np.hstack([-np.eye(4), np.zeros((4, 1))])]))
    assert P.dim == 4 and P.cached_vertices is None


def test_four_dimensional_enumeration_raises_dimension_too_large():
    P = Polytope.from_box(np.zeros(4), np.ones(4))
    with pytest.raises(DimensionTooLarge):
        enumerate_vertices(P)
    with pytest.raises(DimensionTooLarge):
        enumerate_lattice_points(P)


def _per_subset_vertices(poly):
    """Reference: the enumeration as one det/solve per constraint subset,
    with a Python-loop dedupe keeping the first point of each 1e-9 cluster."""
    cs, dim = poly.constraints, poly.dim
    A = np.array([h.n for h in cs])
    b = np.array([h.offset for h in cs])
    scale = float(np.max(np.abs(b), initial=0.0)) + 1.0
    found, proved = [], False
    for idx in itertools.combinations(range(len(cs)), dim):
        M, rhs = A[list(idx)], b[list(idx)]
        if abs(np.linalg.det(M)) <= 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        Ax = A @ x
        if np.all(Ax >= b - geom_mod.EPS * scale):
            found.append(x)
            proved = proved or bool(np.all(Ax >= b - 1e-12 * scale))
    if not proved or geom_mod._has_recession_ray(A):
        geom_mod._lp_feasible_bounded(cs, dim)
    if not found:
        r = linprog(np.zeros(dim), A_ub=-A, b_ub=-b, bounds=[(None, None)] * dim,
                    method="highs")
        found.append(np.asarray(r.x, dtype=float))
    kept = []
    for r in found:
        if not any(np.linalg.norm(r - k) <= geom_mod.EPS for k in kept):
            kept.append(r)
    return geom_mod._lex_sorted(np.array(kept))


def _seeded_systems():
    gen = np.random.default_rng(20)
    for k in range(240):
        dim = 2 + k % 2
        m = int(gen.integers(dim + 1, 13))
        c = gen.normal(size=dim)
        if k % 4 == 0:    # integer rows: parallel rows and many rows through one vertex
            A = gen.integers(-2, 3, size=(m, dim)).astype(float)
            A[np.all(A == 0, axis=1), 0] = 1.0
            b = np.floor(A @ c) - gen.integers(0, 2, size=m)
        else:
            A = gen.normal(size=(m, dim))
            b = A @ c - gen.exponential(size=m)
        if k % 6 == 1:    # infeasible: a row opposite another, pushed past it
            A = np.vstack([A, -A[0]])
            b = np.append(b, -b[0] + 0.5)
        if k % 6 == 3:    # often unbounded: only dim rows
            A, b = A[:dim], b[:dim]
        if k % 5 == 2:    # a repeated row and a scaled parallel copy
            A = np.vstack([A, A[:1], 2.0 * A[1:2]])
            b = np.concatenate([b, b[:1], 2.0 * b[1:2]])
        yield Polytope(dim, tuple(Halfspace.from_vector(a, o) for a, o in zip(A, b)))
    # three and four facets through one vertex
    yield Polytope.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [-1, -1, 0, 0],
                              [1, 1, 1, 1]], validate=False)
    yield Polytope.from_rows([[-1, 0, 0], [0, -1, 0], [-1, -1, 0], [-2, -1, 0], [1, 1, 1]],
                             validate=False)


def _vertices_or_error(fn, poly):
    try:
        return fn(poly)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def test_batched_enumeration_matches_the_per_subset_loop():
    kinds = set()
    for poly in _seeded_systems():
        want = _vertices_or_error(_per_subset_vertices, poly)
        got = _vertices_or_error(enumerate_vertices, poly)
        if isinstance(want, type):
            assert got is want
            kinds.add(want)
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            kinds.add(poly.dim)
    assert kinds == {2, 3, Infeasible, Unbounded}


def test_one_enumeration_makes_one_batched_solve(spy):
    solves = spy(np.linalg, "solve")
    dets = spy(np.linalg, "det")
    cube = Polytope.from_box(np.zeros(3), np.ones(3))
    assert len(enumerate_vertices(cube)) == 8
    assert len(solves) == 1 and len(dets) == 1
    assert solves[0][0].shape == (8, 3, 3)   # the nonsingular triples of six facets


# ---------------------------------------------------------------------------
# 3D volumes and centroids

def _hull_polytope_3d(verts):
    eq = ConvexHull(verts).equations   # n . x + c <= 0 inside
    return Polytope.from_rows(np.c_[eq[:, :3], -eq[:, 3]])


def test_volume_centroid_3d_of_boxes_and_simplices():
    for lo, hi in (([0.0] * 3, [1.0] * 3), ([0.0] * 3, [4.0, 3.0, 2.0]),
                   ([-2.0, 1.0, 5.0], [-1.5, 4.0, 5.25])):
        vol, c, verts = geom_mod.volume_centroid_3d(Polytope.from_box(lo, hi).vertices())
        assert vol == pytest.approx(np.prod(np.subtract(hi, lo)), rel=1e-12)
        assert c == pytest.approx((np.add(lo, hi)) / 2.0, abs=1e-12)
        assert len(verts) == 8
    gen = np.random.default_rng(33)
    for _ in range(10):
        v = gen.normal(size=(4, 3)) * 3.0
        det = abs(np.linalg.det(v[1:] - v[0]))
        vol, c, verts = geom_mod.volume_centroid_3d(_hull_polytope_3d(v).vertices())
        assert vol == pytest.approx(det / 6.0, rel=1e-9)
        assert c == pytest.approx(v.mean(axis=0), abs=1e-9)
        assert len(verts) == 4
    # the unit cube below x + y + z = 1.5 is half of it, by symmetry
    cube = Polytope.from_box([0.0] * 3, [1.0] * 3).vertices()
    u = -np.ones(3) / np.sqrt(3.0)
    vol, c, _ = geom_mod.volume_centroid_3d(
        geom_mod.clip_vertices_3d(cube, u, -1.5 / np.sqrt(3.0)))
    assert vol == pytest.approx(0.5, abs=1e-12)
    assert np.all(c < 0.5)


def test_volume_centroid_3d_of_flat_and_empty_sets_is_zero():
    cube = Polytope.from_box([0.0] * 3, [1.0] * 3).vertices()
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    cases = [(x, [0.5, -0.5]),        # the square x = 1/2: flat
             (x, [2.0, -3.0]),        # beyond the cube: empty
             (np.array([[1.0, 1.0, 1.0]]) / np.sqrt(3.0), [np.sqrt(3.0)]),   # one corner
             (np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0), [np.sqrt(2.0)])]   # one edge
    for extra, off in cases:
        pts = cube
        for n, o in zip(extra, off):
            pts = geom_mod.clip_vertices_3d(pts, n, o)
        vol, c, _ = geom_mod.volume_centroid_3d(pts)
        assert vol == 0.0 and c is None


def test_import_leaves_scipy_optimize_unloaded_until_an_lp():
    # a fresh interpreter: importing the package loads no LP solver, and a 4D
    # polytope, which vertex enumeration cannot validate, still gets the LP check
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import centercut
        from centercut.errors import Infeasible, Unbounded
        from centercut.geom import Halfspace, Polytope
        assert "scipy.optimize" not in sys.modules
        eye = np.eye(4)
        box = [Halfspace.from_vector(e, 0.0) for e in eye] + \\
            [Halfspace.from_vector(-e, -1.0) for e in eye]
        assert Polytope.from_halfspaces(box).dim == 4
        assert "scipy.optimize" in sys.modules
        for cs, err in ((box + [Halfspace.from_vector(np.ones(4), 5.0)], Infeasible),
                        (box[:4], Unbounded)):
            try:
                Polytope.from_halfspaces(cs)
            except err:
                pass
            else:
                raise AssertionError(err.__name__)
    """)
    src = str(pathlib.Path(geom_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                       timeout=120)
    assert r.returncode == 0, r.stderr
