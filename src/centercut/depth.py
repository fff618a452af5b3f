"""Halfspace depth evaluation.

The depth of a point x under a measure m is the infimum over unit directions
u of the mass of the closed halfspace {y : u.(y - x) >= 0}. ``depth(m, x)``
is the one place that picks an exact engine, by family and dimension:

    finite and lattice, 1D-3D       ``depth_finite``
    uniform and mixed, 2D           ``min_direction_2d``
    uniform, 1D                     the interval formula
    uniform 3D; mixed, n + d = 3    none: ``depth`` returns None

Besides the counting kernel below, ``min_direction_2d`` evaluates a finite
candidate set of angles for uniform polygons and, for n=1, d=1 mixed
measures, the cut family ``_mixed_cuts``, which the exact mixed centerpoint
search evaluates too. ``depth_sampled`` is an upper bound from random
directions, one vectorized pass for mixed measures with d = 1.

Counting measures work in the angle parametrization u(a) = (sin a, cos a):
a point at offset w from x has u(a).w = |w| cos(a - b) with b = atan2(w1, w2),
so it lies in the closed halfspace exactly when b is within pi/2 of a. The
mass is therefore a half-circle window sum over the sorted b's, piecewise
constant in a with breakpoints at b +- pi/2. One kernel evaluates its
minimum exactly: ``_sweep_counting_min_batch`` maximizes the complementary
open arc with one searchsorted per query point, for many query points at
once, and returns a minimizing angle from the middle of a constancy arc. It
is the one exact counting-depth kernel: it serves ``depth_finite`` in 2D and,
through the reduction to planes normal to lines through x, in 3D, as well as
``min_direction_2d`` for counting measures and every deepest-point search
over a finite set.

It treats angles within 1e-12 rad of a window boundary as on it, so points
that are collinear with x, which floating-point atan2 puts a few ulps to
either side of each other's antipode, count as on the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import DimensionTooLarge
from .geom import Direction, Halfspace
from .measures import FinitePointMass, Measure, MixedInteger, RngState, UniformPolytope

TWO_PI = 2.0 * math.pi
# the most (row, point) pairs per kernel call: the 3D reduction and the exact
# mixed search send blocks of about this size, and the deepest-point search
# caps each batch at it. The cost of a row jumps once a call's temporaries
# are large enough that glibc hands them back to the OS after the call and
# faults them in again on the next one (the jump goes away with
# MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ raised). Where it sits
# depends on the allocator's history in the process: alone, a row at 1,061
# points cost 60-72 us in batches of 3 to 8 rows and 79-101 us from 10 rows
# up (2-vCPU Xeon VM). So the size was chosen on whole Monte Carlo
# queries of 1,061 samples: their median time was flat from 4,096 to 8,192
# pairs and 12% higher at 12,288 and at 25,000
_BATCH_ELEMENTS = 8_192


@dataclass(frozen=True)
class DepthResult:
    """Depth value with the (approximately) minimizing direction.

    ``gap`` is an upper bound on |value - true depth|; it is 0 exactly when
    ``exact`` is True.
    """

    value: float
    witness: Direction | None
    exact: bool
    gap: float


def _u(alpha):
    return np.array([math.sin(alpha), math.cos(alpha)])


def _result(value, alpha, exact, gap) -> DepthResult:
    # _u of a finite angle is a finite vector, so _vector's checks are skipped
    return DepthResult(float(value), Direction._normalized(_u(alpha))[0], exact, gap)


# ---------------------------------------------------------------------------
# counting sweep machinery

def _sweep_counting_min_batch(centers, pts, weights):
    """Minimum closed-halfplane weight at each center, with a minimizing
    angle; many centers at once. Returns (minima, angles). ``pts`` is one
    (N, 2) point set shared by every center, or one set per center,
    shape (C, N, 2).

    Uses the complement identity: the closed window [a-pi/2, a+pi/2] misses
    exactly one open arc (a+pi/2, a+3pi/2), and the supremum of open-arc
    weight is attained by a half-open arc [b_i, b_i+pi) anchored at a point
    angle. The arc ends 1e-12 rad short of b_i+pi, the module's boundary
    slack, so a point antipodal to b_i stays on the closed side even when
    atan2 rounds its angle just below b_i+pi.
    One searchsorted per row does the sweep; at-center points ride along as
    zero-weight entries so rows stay rectangular without changing any sum.
    One flat search serves every row by offsetting row j into the disjoint
    block [4*pi*j, 4*pi*(j+1)). The search for anchor i always lands in
    [i + 1, N + i] of its row, since the arc end lies strictly between b_i
    and b_i + 2*pi and rounding is monotone, so no index needs clipping.

    The atan2 angles, in [-pi, pi], are wrapped into [0, 2*pi] by adding
    2*pi to the negative ones, which rounds as ``np.mod`` does and, like it,
    turns -0.0 into +0.0. The kernel is called thousands of times per solve
    on small sets, so it keeps its numpy calls few, and every gather is a
    flat index into a raveled (C, .) array: a numpy fancy index with one row
    and one column array costs several times as much. The doubled angles
    ``ext`` and the cumulative weights ``cum`` both have 2N + 1 columns,
    ``ext`` led by b_{N-1} - 2*pi, the angle before the first one, so the
    search position p of an arc end in the (C, 2N) search keys, plus its
    row, is the flat index of that arc end in ``cum`` and of the angle
    before it in ``ext``.

    The angles are sorted with numpy's default (SIMD) argsort, so the order
    of equal angles is unspecified. A row reads only sorted angles and the
    cumulative weight at the first anchor of each group of equal angles: an
    arc's search ends at such a group's first entry, and the first
    maximizing anchor starts one, since later anchors of a group miss its
    earlier weights. So a row's value and angle never depend on the order
    inside a group, except for the rounding of sums of non-integer weights;
    with integer weights, as every counting measure has, they are exact.

    Witness: for the first maximizing anchor i with arc end j, any open arc
    (s, s+pi) with s in (max(b_{i-1}, b_{j-1} - pi), min(b_i, b_j - pi))
    misses exactly the points i..j-1, with b_{-1} = b_{N-1} - 2*pi. The
    midpoint s of that interval lies inside a constancy arc, away from every
    breakpoint, and the angle s - pi/2 attains the minimum.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts = np.asarray(pts, dtype=float)
    C, N = len(centers), pts.shape[-2]
    rows = np.arange(C)
    rr = rows[:, None]
    x = pts[..., 0] - centers[:, :1]
    y = pts[..., 1] - centers[:, 1:]
    near = np.maximum(np.abs(x), np.abs(y))
    tol = 1e-12 * np.maximum(1.0, near.max(axis=1, keepdims=True))
    # at the center: hypot(x, y) <= tol, which needs near <= tol and holds
    # where x = y = 0, so hypot runs only when a nonzero offset is that near
    at_center = near <= tol
    if np.count_nonzero(near[at_center]):
        r, c = np.nonzero(at_center)
        at_center[r, c] = np.hypot(x[r, c], y[r, c]) <= tol[r, 0]
    weights = np.asarray(weights, dtype=float)
    total = weights.sum(axis=-1)
    b = np.arctan2(x, y)
    b += np.where(b < 0.0, TWO_PI, 0.0)
    betas = np.where(at_center, 0.0, b)
    order = np.argsort(betas, axis=1)
    order += N * rr
    betas = betas.ravel()[order]
    w = np.where(at_center, 0.0, weights).ravel()[order]
    ext = np.concatenate([betas[:, -1:] - TWO_PI, betas, betas + TWO_PI], axis=1)
    cum = np.zeros((C, 2 * N + 1))
    np.cumsum(np.concatenate([w, w], axis=1), axis=1, out=cum[:, 1:])
    offs = (2.0 * TWO_PI) * rr
    q = np.searchsorted((ext[:, 1:] + offs).ravel(),
                        (betas + (math.pi - 1e-12) + offs).ravel(), side="left")
    q = q.reshape(C, N) + rr   # each arc end, flat in cum
    open_w = cum.ravel()[q] - cum[:, :N]
    i = np.argmax(open_w, axis=1)
    best = N * rows + i   # the first maximizing anchor, flat in (C, N)
    j = q.ravel()[best]   # b_{j-1}, flat in ext
    a = (2 * N + 1) * rows + i   # b_{i-1}, flat in ext
    ext = ext.ravel()
    lo = np.maximum(ext[a], ext[j] - math.pi)
    hi = np.minimum(ext[a + 1], ext[j + 1] - math.pi)
    return total - open_w.ravel()[best], (lo + hi) / 2.0 - math.pi / 2.0


# ---------------------------------------------------------------------------
# finite point lists, dimensions 1-3

def _depth_finite_1d(vals, weights, total):
    m_plus = float(weights[vals >= -geom.EPS].sum())
    m_minus = float(weights[vals <= geom.EPS].sum())
    if m_plus <= m_minus:
        return m_plus / total, np.array([1.0])
    return m_minus / total, np.array([-1.0])


def _depth_finite_3d(rel, weights, total):
    """Line reduction of 3D counting depth; returns (value, witness).

    Each non-center unit offset e gives the line L through x along e. The
    offsets on L (projected length <= 1e-12, the kernel's at-center test)
    split into the ray along e and the opposite ray; the others are
    projected onto the plane normal to e, one kernel row per line, in blocks
    of about _BATCH_ELEMENTS (row, point) pairs.
    """
    scale = max(1.0, float(np.max(np.abs(rel))))
    r = np.linalg.norm(rel, axis=1)
    at_center = r <= 1e-12 * scale
    base = float(weights[at_center].sum())
    w = weights[~at_center]
    if len(w) == 0:
        return 1.0, np.array([0.0, 0.0, 1.0])
    U = rel[~at_center] / r[~at_center, None]
    best = (math.inf,)
    step = max(1, _BATCH_ELEMENTS // len(U))
    for s in range(0, len(U), step):
        E = U[s:s + step]
        t1 = np.cross(E, np.eye(3)[np.argmin(np.abs(E), axis=1)])
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(E, t1)
        proj = np.stack([t1 @ U.T, t2 @ U.T], axis=-1)
        on_line = np.hypot(proj[..., 0], proj[..., 1]) <= 1e-12
        along = E @ U.T
        fwd = np.where(on_line & (along > 0), w, 0.0).sum(axis=1)
        back = np.where(on_line & (along < 0), w, 0.0).sum(axis=1)
        d2, alpha = _sweep_counting_min_batch(np.zeros((len(E), 2)), proj,
                                              np.where(on_line, 0.0, w))
        vals = np.minimum(fwd, back) + d2
        k = int(np.argmin(vals))
        if vals[k] < best[0]:
            best = (vals[k], E[k], math.sin(alpha[k]) * t1[k] + math.cos(alpha[k]) * t2[k],
                    on_line[k], 1.0 if fwd[k] <= back[k] else -1.0)
    val, e, u0, line, side = best
    # tilt u0 toward the lighter ray, too little to move any off-line offset
    t = min(0.5, 0.5 * float(np.min(np.abs(U[~line] @ u0), initial=1.0)))
    return (base + val) / total, u0 + side * t * e


def depth_finite(points, x, weights=None) -> DepthResult:
    """Exact depth of x in a weighted finite point list (dim 1-3).

    Dimension 2 is one row of the counting kernel. Dimension 3 reduces to
    it: the closed-halfspace weight is minimized on an open cell of the
    great-circle arrangement {u : u.(p - x) = 0}, and every such cell borders
    the circle of a line L through x and a data point. Tilting a direction u0
    of that circle (u0 normal to L) off it keeps the points off L on the side
    u0 puts them and adds exactly one of L's two open rays, so

        depth = w(at x) + min over L of [min(w(L+), w(L-)) + D2_L],

    divided by the total weight, where D2_L is the 2D closed depth at the
    origin of the other points projected onto the plane normal to L. The
    witness is the kernel's angle of the minimizing line, mapped back to u0
    and tilted toward the lighter ray.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xv = np.asarray(x, dtype=float).ravel()
    dim = pts.shape[1]
    if dim > 3:
        raise DimensionTooLarge(f"depth_finite supports dimension <= 3, got {dim}")
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    total = float(w.sum())
    if dim == 2:
        mass, alpha = _sweep_counting_min_batch(xv, pts, w)
        return _result(mass[0] / total, alpha[0], True, 0.0)
    rel = pts - xv
    if dim == 1:
        val, u = _depth_finite_1d(rel[:, 0], w, total)
        return DepthResult(val, Direction.from_vector(u), True, 0.0)
    val, u = _depth_finite_3d(rel, w, total)
    return DepthResult(val, Direction.from_vector(u), True, 0.0)


# ---------------------------------------------------------------------------
# smooth-area engines (uniform polygons, mixed fibers): finite candidate sets

def _outside_witness(verts, x):
    """Inward edge normal of a region edge strictly separating x, if any."""
    scale = max(1.0, float(np.max(np.abs(verts))))
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        d = q - p
        n = np.array([-d[1], d[0]])
        nn = np.linalg.norm(n)
        if nn <= 1e-15:
            continue
        n = n / nn
        if (x - p) @ n < -geom.EPS * scale:
            return -n
    return None


def _sweep_uniform_2d(m: UniformPolytope, x):
    """Exact depth for a uniform polygon.

    Between vertex events the cut line crosses two fixed edges i, j at
    distances r_i, r_j from x, and the kept area changes at rate
    (r_i^2 - r_j^2) / 2 in the angle. So the area is minimized at an event or
    at the chord that x bisects, whose normal is parallel to
    d_j n_i + d_i n_j (n the unit edge normals, d the distances from x to the
    edge lines). Every such angle and its antipode is evaluated exactly.
    """
    verts = m.region_vertices()
    sep = _outside_witness(verts, x)
    if sep is not None:
        return DepthResult(0.0, Direction.from_vector(sep), True, 0.0)
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    rel = verts - x
    dist = np.einsum("ij,ij->i", normals, rel)
    i, j = np.triu_indices(len(verts), 1)
    bis = dist[j, None] * normals[i] + dist[i, None] * normals[j]
    chords = np.arctan2(bis[:, 0], bis[:, 1])
    # vertex events: the cut line through x meets a vertex other than x
    keep = np.hypot(rel[:, 0], rel[:, 1]) > 1e-12 * max(1.0, float(np.max(np.abs(verts))))
    betas = np.arctan2(rel[keep, 0], rel[keep, 1])
    cand = np.unique(np.mod(np.concatenate(
        [betas - math.pi / 2.0, betas + math.pi / 2.0, chords, chords + math.pi]), TWO_PI))
    best = math.inf
    best_a = 0.0
    for a in cand:
        u = _u(a)
        kept = geom.clip_polygon_vertices(verts, u, float(u @ x))
        area = abs(geom.shoelace_area(kept))
        if area < best - 1e-15:
            best, best_a = area, a
    return _result(best / m.total_mass, best_a, True, 0.0)


def _mixed_cuts(m: MixedInteger, z0, ys):
    """Normals, shape (len(ys), 2E + 4, 2), and closed-halfplane masses,
    shape (len(ys), 2E + 4), of the n=1, d=1 cut family at the points
    (z0, y), from one ``halfspace_masses`` call: both sides of the line
    through the point and each of the E endpoints of the fibers z != z0,
    and four cuts steeper than all of those lines, with slopes
    +-(2 max |dv/dz| + 1), which keep or drop each other fiber whole."""
    Z = m._z[:, 0]
    other = Z != z0
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    dz = np.concatenate([Z[other], Z[other]]) - z0
    dv = np.concatenate([m._lo[other], m._hi[other]]) - ys[:, None]
    slope = 2.0 * np.max(np.abs(dv / dz), axis=1, initial=0.0) + 1.0
    lines = np.stack(np.broadcast_arrays(-dv, dz), axis=-1)
    steep = np.stack([np.outer(slope, [1.0, 1.0, -1.0, -1.0]),
                      np.broadcast_to([1.0, -1.0, 1.0, -1.0], (len(ys), 4))], axis=-1)
    N = np.concatenate([lines, -lines, steep], axis=1)
    N /= np.hypot(N[..., 0], N[..., 1])[..., None]
    pts = np.column_stack([np.full(len(ys), float(z0)), ys])
    masses = m.halfspace_masses(N.reshape(-1, 2), geom.row_dots(N, pts[:, None, :]).ravel())
    return N, masses.reshape(len(ys), -1)


def _sweep_mixed_2d(m: MixedInteger, x):
    """Exact depth for n=1, d=1 mixed measures: the least ``_mixed_cuts``
    mass at x, with its normal as the witness. Between the events where the
    cut line meets a fiber endpoint each kept length is affine in tan(a), so
    the mass is monotone on each arc and continuous at the events, and on
    the arcs next to the stratum u = (+-1, 0) it is constant; on the stratum
    whole fibers flip, which keeps at least as much. The steep cuts stay far
    from the stratum, where ``halfspace_mass`` could not resolve u.x.
    """
    if m.n != 1 or m.d != 1:
        raise DimensionTooLarge("exact mixed sweep supports n=1, d=1 only")
    xv = np.asarray(x, dtype=float).ravel()
    N, vals = _mixed_cuts(m, xv[0], xv[1:])
    k = int(np.argmin(vals[0]))
    return DepthResult(float(vals[0, k]), Direction.from_vector(N[0, k]), True, 0.0)


def min_direction_2d(m: Measure, x) -> DepthResult:
    """Exact depth engine for the 2D measure families; every family returns
    ``exact=True, gap=0.0``.

    Counting measures go through ``depth_finite``, one row of the batch
    counting kernel. Uniform polygons and n=1, d=1 mixed measures evaluate a
    finite candidate set that provably holds a minimizing angle: the vertex
    or fiber-endpoint events, plus the bisected chords for polygons and the
    lattice stratum u = (+-1, 0) for mixed measures.
    """
    xv = np.asarray(x, dtype=float).ravel()
    if isinstance(m, FinitePointMass):
        if m.dim != 2:
            raise DimensionTooLarge("counting sweep is 2D only")
        return depth_finite(m.active_points(), xv, m.active_weights())
    if isinstance(m, UniformPolytope):
        if m.dim != 2:
            raise DimensionTooLarge("uniform sweep is 2D only")
        return _sweep_uniform_2d(m, xv)
    if isinstance(m, MixedInteger):
        return _sweep_mixed_2d(m, xv)
    raise TypeError(f"unsupported measure family: {type(m).__name__}")


def depth(m: Measure, x) -> DepthResult | None:
    """Exact depth of x under m by the module's engine table; None where it
    has no engine. In [lo, hi] the depth is the lighter length beside x over
    hi - lo, 0 outside; the witness points to the lighter side, +1 on a tie
    as in ``depth_finite``."""
    if isinstance(m, FinitePointMass):
        return depth_finite(m.active_points(), x, m.active_weights())
    if m.dim == 2:
        return min_direction_2d(m, x)
    if isinstance(m, UniformPolytope) and m.dim == 1:
        lo, hi = m._interval
        above = min(max(hi - x[0], 0.0), hi - lo)
        below = min(max(x[0] - lo, 0.0), hi - lo)
        return DepthResult(float(min(above, below) / (hi - lo)),
                           Direction.from_vector([1.0 if above <= below else -1.0]), True, 0.0)
    return None


# ---------------------------------------------------------------------------
# sampled bounds

def depth_sampled(m: Measure, x, num_directions: int, rng: RngState) -> DepthResult:
    """Upper bound: minimum closed-halfspace mass through x over random unit
    directions, the first minimizer (within 1e-15) as the witness.

    Mixed measures with d = 1 evaluate every direction in one
    ``MixedInteger.halfspace_masses`` pass; other families call
    ``halfspace_mass`` once per direction. Both round each direction's
    normal and offset as the per-direction ``Halfspace`` does.
    """
    xv = np.asarray(x, dtype=float).ravel()
    gen = rng.generator()
    dirs = gen.normal(size=(num_directions, m.dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs[norms < 1e-12] = np.eye(m.dim)[0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    if isinstance(m, MixedInteger) and m.d == 1:
        # row_dots rounds as Direction.from_vector's norm and u @ x do, so
        # every value equals the loop's bit for bit
        units = dirs / np.sqrt(geom.row_dots(dirs, dirs))[:, None]
        vals = m.halfspace_masses(units, geom.row_dots(dirs, xv)).tolist()
    else:
        vals = [m.halfspace_mass(Halfspace(Direction.from_vector(u), float(u @ xv)))
                for u in dirs]
    best = math.inf
    best_u = dirs[0]
    for u, v in zip(dirs, vals):
        if v < best - 1e-15:
            best, best_u = v, u
    return DepthResult(float(best), Direction.from_vector(best_u), False, 1.0)
