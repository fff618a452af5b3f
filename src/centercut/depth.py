"""Halfspace depth evaluation.

The depth of a point x under a measure m is the infimum over unit directions
u of the mass of the closed halfspace {y : u.(y - x) >= 0}. Engines here:

* ``depth_finite``: exact for weighted point lists in dimensions 1-3.
* ``min_direction_2d``: exact angular sweeps for the 2D measure families
  (counting sweeps are fully exact; smooth-area sweeps carry the 1-D search
  tolerance in the ``gap`` field).
* ``depth_sampled``: an upper bound from finitely many random directions.
* ``depth_angle_grid``: a dense fixed-grid oracle, used for cross-checks.

Counting sweeps work in the angle parametrization u(a) = (sin a, cos a): a
point at offset w from x has u(a).w = |w| cos(a - b) with b = atan2(w1, w2),
so it lies in the closed halfspace exactly when b is within pi/2 of a. The
mass is therefore a half-circle window sum over the sorted b's, piecewise
constant in a with breakpoints at b +- pi/2. Two engines evaluate it:

* ``_sweep_counting_2d`` probes every breakpoint, the breakpoints nudged by
  1e-12 to either side, and every midpoint of consecutive breakpoints, which
  visits every constancy arc and also returns a minimizing angle. It serves
  the calls that need a witness direction: ``min_direction_2d``,
  ``depth_finite`` and the inner sweep of the 3D engine.
* ``_sweep_counting_min_batch`` returns the minimum only, for many query
  points at once. It backs every deepest-point search over a finite set (the
  exact lattice centerpoint and the Monte Carlo route).

Both treat angles within 1e-12 rad of a window boundary as on it, so points
that are collinear with x, which floating-point atan2 puts a few ulps to
either side of each other's antipode, count the same in both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import DimensionTooLarge
from .geom import Direction, Halfspace
from .measures import (FinitePointMass, LatticeCounting, Measure, MixedInteger,
                       RngState, UniformPolytope)

TWO_PI = 2.0 * math.pi
GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    return DepthResult(float(value), Direction.from_vector(_u(alpha)), exact, gap)


# ---------------------------------------------------------------------------
# counting sweep machinery

def _window_masses(betas, weights, alphas):
    """Closed half-circle window sums: for each angle a, total weight of
    betas within pi/2 of a (mod 2pi), boundaries included."""
    order = np.argsort(betas, kind="stable")
    b = betas[order]
    w = weights[order]
    ext = np.concatenate([b, b + TWO_PI])
    cum = np.concatenate([[0.0], np.cumsum(np.concatenate([w, w]))])
    lo = np.mod(alphas, TWO_PI) - math.pi / 2.0
    shift = lo < 0
    lo = lo + shift * TWO_PI
    hi = lo + math.pi
    i0 = np.searchsorted(ext, lo - 1e-12, side="left")
    i1 = np.searchsorted(ext, hi + 1e-12, side="right")
    return cum[i1] - cum[i0]


def _counting_candidates(betas):
    events = np.unique(np.mod(np.concatenate([betas - math.pi / 2.0,
                                              betas + math.pi / 2.0]), TWO_PI))
    mids = (events + np.roll(events, -1)) / 2.0
    mids[-1] = math.fmod((events[-1] + events[0] + TWO_PI) / 2.0, TWO_PI)
    cand = np.concatenate([events, events - 1e-12, events + 1e-12, mids])
    return np.sort(np.mod(cand, TWO_PI))


def _sweep_counting_2d(rel, weights):
    """Exact min over directions of closed-halfplane weight, for points at
    offsets ``rel`` from the query point. Returns (min weight, angle)."""
    scale = max(1.0, float(np.max(np.abs(rel))) if len(rel) else 1.0)
    r = np.hypot(rel[:, 0], rel[:, 1])
    at_center = r <= 1e-12 * scale
    base = float(weights[at_center].sum())
    v = rel[~at_center]
    w = weights[~at_center]
    if len(v) == 0:
        return base, 0.0
    betas = np.mod(np.arctan2(v[:, 0], v[:, 1]), TWO_PI)
    cand = _counting_candidates(betas)
    masses = base + _window_masses(betas, w, cand)
    k = int(np.argmin(masses))    # candidates ascending: smallest angle wins ties
    return float(masses[k]), float(cand[k])


def _sweep_counting_min_batch(centers, pts, weights):
    """Minimum closed-halfplane weight at each center, many centers at once.

    Uses the complement identity: the closed window [a-pi/2, a+pi/2] misses
    exactly one open arc of length pi, and the supremum of open-arc weight is
    attained by a half-open arc [b_i, b_i+pi) anchored at a point angle. The
    arc ends 1e-12 rad short of b_i+pi, the boundary slack of
    ``_window_masses``, so a point antipodal to b_i stays on the closed side
    even when atan2 rounds its angle just below b_i+pi; with that slack the
    result agrees with the minimum of ``_sweep_counting_2d``.
    One searchsorted per row replaces the probe sweep; at-center points ride
    along as zero-weight entries so rows stay rectangular without changing
    any sum. One flat search serves every row by offsetting row j into the
    disjoint block [4*pi*j, 4*pi*(j+1)).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts = np.asarray(pts, dtype=float)
    C, N = len(centers), len(pts)
    rel = pts[None, :, :] - centers[:, None, :]
    scale = np.maximum(1.0, np.abs(rel).reshape(C, -1).max(axis=1))
    r = np.hypot(rel[..., 0], rel[..., 1])
    at_center = r <= 1e-12 * scale[:, None]
    w = np.broadcast_to(np.asarray(weights, dtype=float), (C, N)).copy()
    total = w.sum(axis=1)
    w[at_center] = 0.0
    betas = np.where(at_center, 0.0,
                     np.mod(np.arctan2(rel[..., 0], rel[..., 1]), TWO_PI))
    order = np.argsort(betas, axis=1, kind="stable")
    betas = np.take_along_axis(betas, order, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    ext = np.concatenate([betas, betas + TWO_PI], axis=1)
    cum = np.zeros((C, 2 * N + 1))
    np.cumsum(np.concatenate([w, w], axis=1), axis=1, out=cum[:, 1:])
    offs = (2.0 * TWO_PI) * np.arange(C)[:, None]
    idx = np.searchsorted((ext + offs).ravel(),
                          (betas + (math.pi - 1e-12) + offs).ravel(), side="left")
    idx = np.clip(idx.reshape(C, N) - 2 * N * np.arange(C)[:, None], 0, 2 * N)
    rows = np.arange(C)[:, None]
    open_max = (cum[rows, idx] - cum[:, :N]).max(axis=1)
    return total - open_max


# ---------------------------------------------------------------------------
# finite point lists, dimensions 1-3

def _depth_finite_1d(vals, weights, total):
    m_plus = float(weights[vals >= -geom.EPS].sum())
    m_minus = float(weights[vals <= geom.EPS].sum())
    if m_plus <= m_minus:
        return m_plus / total, np.array([1.0])
    return m_minus / total, np.array([-1.0])


def _plane_basis(u):
    pick = np.eye(3)[int(np.argmin(np.abs(u)))]
    t1 = np.cross(u, pick)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(u, t1)
    return t1, t2


def _depth_finite_3d(rel, weights, total):
    scale = max(1.0, float(np.max(np.abs(rel))))
    r = np.linalg.norm(rel, axis=1)
    at_center = r <= 1e-12 * scale
    base = float(weights[at_center].sum())
    v = rel[~at_center]
    w = weights[~at_center]
    rv = r[~at_center]
    if len(v) == 0:
        return 1.0, np.array([0.0, 0.0, 1.0])
    normals = []
    for i in range(len(v) - 1):
        cr = np.cross(v[i], v[i + 1:])
        ns = np.linalg.norm(cr, axis=1)
        keep = ns > 1e-12 * rv[i] * rv[i + 1:]
        normals.extend(cr[keep] / ns[keep, None])
    if not normals:
        # all offsets collinear: a 1-D problem along the common line
        e = v[int(np.argmax(np.linalg.norm(v, axis=1)))]
        e = e / np.linalg.norm(e)
        t = v @ e
        val, uw = _depth_finite_1d(t, w, 1.0)
        return (base + val) / total, uw[0] * e
    best = math.inf
    best_u = None
    for n in normals:
        for u in (n, -n):
            vals = v @ u
            strict = vals > geom.EPS
            bnd = np.abs(vals) <= geom.EPS
            mass = base + float(w[strict].sum())
            if mass >= best:
                continue
            if bnd.any():
                t1, t2 = _plane_basis(u)
                proj = np.column_stack([v[bnd] @ t1, v[bnd] @ t2])
                sub, _a = _sweep_counting_2d(proj, w[bnd])
                mass += sub
            if mass < best - 1e-15:
                best = mass
                best_u = u
    return best / total, best_u


def depth_finite(points, x, weights=None) -> DepthResult:
    """Exact depth of x in a weighted finite point list (dim 1-3).

    The minimum is taken over candidate directions normal to hyperplanes
    through x and dim-1 of the points, probed to both sides; points exactly
    on a candidate hyperplane are resolved by an inner sweep over tilt
    directions, so the result is the true infimum of closed-halfspace weight.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xv = np.asarray(x, dtype=float).ravel()
    dim = pts.shape[1]
    if dim > 3:
        raise DimensionTooLarge(f"depth_finite supports dimension <= 3, got {dim}")
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    total = float(w.sum())
    rel = pts - xv
    if dim == 1:
        val, u = _depth_finite_1d(rel[:, 0], w, total)
        return DepthResult(val, Direction.from_vector(u), True, 0.0)
    if dim == 2:
        mass, alpha = _sweep_counting_2d(rel, w)
        return _result(mass / total, alpha, True, 0.0)
    val, u = _depth_finite_3d(rel, w, total)
    return DepthResult(val, Direction.from_vector(u), True, 0.0)


# ---------------------------------------------------------------------------
# smooth-area sweeps (uniform polygons, mixed fibers)

def _golden_min(f, a, b, tol=GOLDEN_TOL):
    """Golden-section minimum of f on [a, b]; returns (x, f(x)).

    Endpoints are evaluated too, so on arcs where f is monotone or has a
    single interior maximum the returned value is still the arc minimum.
    """
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = (a + b) / 2.0
    cands = [(f(a), a), (f(b), b), (f1, x1), (f2, x2), (f(xm), xm)]
    fv, xv = min(cands, key=lambda t: t[0])
    return xv, fv


def _arc_list(events):
    ev = np.unique(np.mod(events, TWO_PI))
    if len(ev) == 0:
        return [(0.0, TWO_PI)]
    arcs = [(float(ev[i]), float(ev[i + 1])) for i in range(len(ev) - 1)]
    arcs.append((float(ev[-1]), float(ev[0]) + TWO_PI))
    return arcs


def _sweep_smooth(mass_at, events, chunk=None):
    """Minimize a piecewise-smooth angular mass over [0, 2pi).

    Events bound the smooth arcs; each arc (optionally split into chunks) is
    searched by golden section with endpoint evaluation. Returns (mass, angle)
    with smallest-angle tie-breaking at 1e-15 resolution.
    """
    best = math.inf
    best_a = 0.0
    for a, b in _arc_list(events):
        pieces = [(a, b)]
        if chunk is not None and b - a > chunk:
            ks = np.linspace(a, b, int(math.ceil((b - a) / chunk)) + 1)
            pieces = list(zip(ks[:-1], ks[1:]))
        for lo, hi in pieces:
            xv, fv = _golden_min(mass_at, lo, hi)
            for ang, val in ((lo, mass_at(lo)), (xv, fv)):
                if val < best - 1e-15:
                    best = val
                    best_a = ang
    return best, math.fmod(best_a, TWO_PI)


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
    verts = m.region_vertices()
    sep = _outside_witness(verts, x)
    if sep is not None:
        return DepthResult(0.0, Direction.from_vector(sep), True, 0.0)
    rel = verts - x
    r = np.hypot(rel[:, 0], rel[:, 1])
    keep = r > 1e-12 * max(1.0, float(np.max(np.abs(verts))))
    betas = np.arctan2(rel[keep, 0], rel[keep, 1])
    events = np.concatenate([betas - math.pi / 2.0, betas + math.pi / 2.0])

    def mass_at(alpha):
        u = _u(alpha)
        kept = geom.clip_polygon_vertices(verts, u, float(u @ x))
        return abs(geom.shoelace_area(kept))

    best, alpha = _sweep_smooth(mass_at, events)
    return _result(best / m.total_mass, alpha, False, GOLDEN_TOL)


def _mixed_arrays(m: MixedInteger):
    Z = np.array([z[0] for z, _p, _v in m.fibers], dtype=float)
    LO = np.array([p[0] for _z, p, _v in m.fibers], dtype=float)
    HI = np.array([p[1] for _z, p, _v in m.fibers], dtype=float)
    return Z, LO, HI


def _mixed_masses(Z, LO, HI, total, xv, alphas):
    """Closed-halfspace mixed mass at u(a) through xv for each angle in
    ``alphas``; vectorized over (angles x fibers)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    s = np.sin(alphas)[:, None]
    c = np.cos(alphas)[:, None]
    dz = Z[None, :] - xv[0]
    span = HI - LO
    smooth = np.abs(c) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ystar = (s * -dz) / c + xv[1]
    kept_pos = np.clip(HI[None, :] - np.maximum(LO[None, :], ystar), 0.0, None)
    kept_neg = np.clip(np.minimum(HI[None, :], ystar) - LO[None, :], 0.0, None)
    kept = np.where(c > 0, kept_pos, kept_neg)
    # degenerate tail: the cut runs along the fiber direction, whole fibers
    # are kept or dropped; closed semantics keeps the boundary fiber
    whole = np.where(s * dz >= -geom.EPS, span[None, :], 0.0)
    kept = np.where(smooth, kept, whole)
    return kept.sum(axis=1) / total


def _sweep_mixed_2d(m: MixedInteger, x, grid: int = 4096):
    """Depth for n=1, d=1 mixed measures: dense vectorized bracketing over
    fiber-endpoint events plus a uniform grid, golden refinement of the best
    brackets, and explicit probes of the lattice stratum u = (+-1, 0)."""
    if m.n != 1 or m.d != 1:
        raise DimensionTooLarge("exact mixed sweep supports n=1, d=1 only")
    xv = np.asarray(x, dtype=float).ravel()
    Z, LO, HI = _mixed_arrays(m)
    total = m.total_mass
    endpoints = np.concatenate([np.column_stack([Z, LO]), np.column_stack([Z, HI])])
    rel = endpoints - xv
    r = np.hypot(rel[:, 0], rel[:, 1])
    keep = r > 1e-12 * max(1.0, float(np.abs(endpoints).max()))
    betas = np.arctan2(rel[keep, 0], rel[keep, 1])
    events = np.mod(np.concatenate([betas - math.pi / 2.0, betas + math.pi / 2.0]),
                    TWO_PI)
    step = TWO_PI / grid
    cand = np.unique(np.concatenate([
        np.linspace(0.0, TWO_PI, grid, endpoint=False),
        events, events - 1e-12, events + 1e-12,
        [math.pi / 2.0, 3.0 * math.pi / 2.0],
    ]))
    vals = _mixed_masses(Z, LO, HI, total, xv, cand)
    order = np.argsort(vals, kind="stable")

    def mass_at(alpha):
        return float(_mixed_masses(Z, LO, HI, total, xv, [alpha])[0])

    best = float(vals[order[0]])
    best_a = float(cand[order[0]])
    seen = []
    for k in order[:8]:
        a0 = float(cand[k])
        if any(abs(a0 - s0) < 2.5 * step for s0 in seen):
            continue
        seen.append(a0)
        xa, fa = _golden_min(mass_at, a0 - step, a0 + step)
        if fa < best - 1e-15 or (fa < best + 1e-15 and xa < best_a):
            best, best_a = fa, math.fmod(xa + TWO_PI, TWO_PI)
        if len(seen) >= 4:
            break
    return _result(best, best_a, False, GOLDEN_TOL)


def min_direction_2d(m: Measure, x) -> DepthResult:
    """Exact depth engine for the 2D measure families.

    Counting families use the fully exact angular sweep (gap 0). Uniform
    polygons and n=1, d=1 mixed measures locate critical angles at vertex or
    fiber-endpoint events and search each smooth arc to the 1e-10 tolerance
    reported in ``gap``.
    """
    xv = np.asarray(x, dtype=float).ravel()
    if isinstance(m, LatticeCounting):
        if m.dim != 2:
            raise DimensionTooLarge("lattice sweep is 2D only")
        pts = m.active_points()
        mass, alpha = _sweep_counting_2d(pts - xv, np.ones(len(pts)))
        return _result(mass / m.total_mass, alpha, True, 0.0)
    if isinstance(m, FinitePointMass):
        if m.dim != 2:
            raise DimensionTooLarge("finite-point sweep here is 2D only")
        mass, alpha = _sweep_counting_2d(m.active_points() - xv, m.active_weights())
        return _result(mass / m.total_mass, alpha, True, 0.0)
    if isinstance(m, UniformPolytope):
        if m.dim != 2:
            raise DimensionTooLarge("uniform sweep is 2D only")
        return _sweep_uniform_2d(m, xv)
    if isinstance(m, MixedInteger):
        return _sweep_mixed_2d(m, xv)
    raise TypeError(f"unsupported measure family: {type(m).__name__}")


# ---------------------------------------------------------------------------
# sampled and grid bounds

def depth_sampled(m: Measure, x, num_directions: int, rng: RngState) -> DepthResult:
    """Upper bound: minimum halfspace mass over random unit directions."""
    xv = np.asarray(x, dtype=float).ravel()
    gen = rng.generator()
    dirs = gen.normal(size=(num_directions, m.dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs[norms < 1e-12] = np.eye(m.dim)[0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    best = math.inf
    best_u = dirs[0]
    for u in dirs:
        h = Halfspace(Direction.from_vector(u), float(u @ xv))
        v = m.halfspace_mass(h).value
        if v < best - 1e-15:
            best, best_u = v, u
    return DepthResult(float(best), Direction.from_vector(best_u), False, 1.0)


def depth_angle_grid(m: Measure, x, num_angles: int) -> DepthResult:
    """Dense 2D angle-grid oracle: min mass over u(a) for a on a uniform grid.

    Counting families evaluate all angles with one vectorized window pass;
    other families loop over exact halfspace masses.
    """
    xv = np.asarray(x, dtype=float).ravel()
    alphas = np.linspace(0.0, TWO_PI, num_angles, endpoint=False)
    if isinstance(m, (FinitePointMass, LatticeCounting)):
        pts = m.active_points()
        w = (m.active_weights() if isinstance(m, FinitePointMass)
             else np.ones(len(pts)))
        rel = pts - xv
        scale = max(1.0, float(np.max(np.abs(rel))) if len(rel) else 1.0)
        r = np.hypot(rel[:, 0], rel[:, 1])
        at_center = r <= 1e-12 * scale
        base = float(w[at_center].sum())
        betas = np.mod(np.arctan2(rel[~at_center, 0], rel[~at_center, 1]), TWO_PI)
        masses = base + _window_masses(betas, w[~at_center], alphas)
        k = int(np.argmin(masses))
        return _result(masses[k] / m.total_mass, alphas[k], False, 1.0)
    best = math.inf
    best_a = 0.0
    for a in alphas:
        u = _u(a)
        h = Halfspace(Direction.from_vector(u), float(u @ xv))
        v = m.halfspace_mass(h).value
        if v < best - 1e-15:
            best, best_a = v, a
    return _result(best, best_a, False, 1.0)
