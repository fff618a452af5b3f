"""Centerpoint computation: points maximizing halfspace depth over a
constraint set.

Four routes: Monte Carlo sampling with exact maximization over an enriched
candidate set, exhaustive exact search over 2D lattice points, a width-based
recursion for mixed-integer sets, and the centroid witness for continuous
sets. Every returned point satisfies its constraint set exactly (integer
blocks are exact integers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import depth as depth_mod
from . import geom
from .depth import depth_finite, min_direction_2d
from .errors import (BudgetExceeded, DimensionTooLarge, EmptyLattice,
                     EmptyRegion, Infeasible)
from .geom import Polytope
from .measures import (FinitePointMass, LatticeCounting, Measure, MixedInteger,
                       RngState, UniformPolytope)

DEFAULT_C = 0.5
CANDIDATE_CAP = 1_000_000
# full line-arrangement candidate sets are only built below this size;
# larger samples fall back to enrichment around the deepest sample points
ARRANGEMENT_LIMIT = 20_000
TOP_K = 12
OMEGA_BAR = 64


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible-set kind: n integer coordinates followed by d continuous."""

    kind: str   # "continuous" | "lattice" | "mixed"
    n: int
    d: int

    def __post_init__(self):
        if self.kind not in ("continuous", "lattice", "mixed"):
            raise ValueError(f"unknown constraint-set kind: {self.kind}")
        if self.n < 0 or self.d < 0 or self.n + self.d < 1:
            raise ValueError("constraint set needs at least one coordinate")

    @classmethod
    def continuous(cls, dim: int) -> "ConstraintSet":
        return cls("continuous", 0, dim)

    @classmethod
    def lattice(cls, n: int) -> "ConstraintSet":
        return cls("lattice", n, 0)

    @classmethod
    def mixed(cls, n: int, d: int) -> "ConstraintSet":
        return cls("mixed", n, d)

    @property
    def dim(self) -> int:
        return self.n + self.d


@dataclass(frozen=True)
class DepthGuarantee:
    """Depth floor 1/helly; the centroid floor is set for continuous sets
    and the recursion floor for width-based mixed results."""

    helly: int
    floor: float
    grunbaum_floor: float | None = None
    lenstra_floor: float | None = None


def depth_guarantee(S: ConstraintSet) -> DepthGuarantee:
    if S.kind == "continuous":
        nn = S.dim
        return DepthGuarantee(nn + 1, 1.0 / (nn + 1), (nn / (nn + 1.0)) ** nn)
    if S.kind == "lattice":
        return DepthGuarantee(2 ** S.n, 1.0 / 2 ** S.n)
    helly = 2 ** S.n * (S.d + 1)
    return DepthGuarantee(helly, 1.0 / helly)


@dataclass(frozen=True)
class CenterpointResult:
    point: np.ndarray
    depth: DepthResult
    method: str
    samples_used: int
    guarantee: DepthGuarantee


def _lex_best(candidates, values, tol=1e-12):
    """Index of the max value; exact lexicographically smallest point on ties."""
    values = np.asarray(values)
    top = float(values.max())
    tied = np.flatnonzero(values >= top - tol)
    pts = np.asarray(candidates)[tied]
    return int(tied[np.lexsort(pts.T[::-1])[0]])


# ---------------------------------------------------------------------------
# centroid witness

def centroid(m: UniformPolytope) -> np.ndarray:
    """Centroid of support . region: exact in dimensions 1 and 2 (fan
    triangulation); higher dimensions use a seeded 200k-sample mean and the
    result is an estimate."""
    if m.dim == 1:
        lo, hi = m._interval
        return np.array([(lo + hi) / 2.0])
    if m.dim == 2:
        verts = m.region_vertices()
        if len(verts) < 3:
            raise EmptyRegion("degenerate region has no 2D centroid")
        p0 = verts[0]
        acc = np.zeros(2)
        area = 0.0
        for i in range(1, len(verts) - 1):
            a = geom.shoelace_area(np.array([p0, verts[i], verts[i + 1]]))
            acc += a * (p0 + verts[i] + verts[i + 1]) / 3.0
            area += a
        return acc / area
    pts = m.sample(RngState(0), 200_000)
    return pts.mean(axis=0)


# ---------------------------------------------------------------------------
# Monte Carlo route

def mc_sample_size(eps: float, delta: float, vc_dim: int, C: float = DEFAULT_C) -> int:
    """Sample size C * (1/eps^2) * (vc_dim + ln(1/delta))."""
    if not (0 < eps <= 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    return int(math.ceil(C / (eps * eps) * (vc_dim + math.log(1.0 / delta))))


def _arrangement_vertices(pts, cap):
    """Pairwise intersections of the lines through pairs of ``pts``, both in
    ``itertools.combinations`` order, skipping near-parallel pairs."""
    i, j = np.triu_indices(len(pts), 1)
    d = pts[j] - pts[i]
    nrm = np.column_stack([-d[:, 1], d[:, 0]])
    off = geom.row_dots(nrm, pts[i])
    a, b = np.triu_indices(len(nrm), 1)
    n1, n2, c1, c2 = nrm[a], nrm[b], off[a], off[b]
    det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
    keep = np.abs(det) > 1e-12
    if np.count_nonzero(keep) > cap:
        raise BudgetExceeded("candidate cap exceeded while intersecting lines")
    n1, n2, c1, c2, det = n1[keep], n2[keep], c1[keep], c2[keep], det[keep]
    return np.column_stack([(c1 * n2[:, 1] - c2 * n1[:, 1]) / det,
                            (n1[:, 0] * c2 - n2[:, 0] * c1) / det])


def _continuous_candidates_2d(pts, cap):
    """Line-arrangement vertices to add to the sample points: the full
    arrangement when it fits, otherwise lines through the deepest samples.
    Returns (extra points, sample depths where they were computed)."""
    n = len(pts)
    n_lines = n * (n - 1) // 2
    exhaustive = n_lines * (n_lines - 1) // 2 + n <= min(cap, ARRANGEMENT_LIMIT)
    vals = None
    if exhaustive:
        extra = _arrangement_vertices(pts, cap)
    else:
        top, vals = _topk_indices(pts, TOP_K)
        extra = _arrangement_vertices(pts[np.sort(top)], cap)
    if n + len(extra) > cap:
        raise BudgetExceeded(f"{n + len(extra)} candidates exceed cap {cap}")
    return extra, vals


_PRUNE_DIRS = 16
_PRUNE_ANGLES = np.arange(_PRUNE_DIRS) * (math.pi / _PRUNE_DIRS)
_EVEN_DIRS = np.stack([np.sin(_PRUNE_ANGLES), np.cos(_PRUNE_ANGLES)], axis=1)


def _prune_directions(pts, w):
    """_PRUNE_DIRS unit directions, evenly spaced after whitening ``pts``.

    For an elongated cloud the evenly spaced directions v are mapped to
    L^-T v, with L the Cholesky factor of the weighted 2x2 second moments of
    ``pts`` about their mean, so a thin cloud gets as many directions across
    it as along it. Collinear points, and clouds whose principal moments lie
    within a factor 4 of each other, keep the evenly spaced directions: on
    such clouds adapted ones bound no tighter. The moments are summed in
    closed form, since ``np.cov`` with ``eigh`` costs several times as much
    on the small point sets of lattice picks.
    """
    total = float(w.sum())
    d = pts - (w @ pts) / total
    (sxx, sxy), (_syx, syy) = ((d.T * w) @ d / total).tolist()
    # tr^2 / det = q + 2 + 1/q for the ratio q >= 1 of the principal moments
    tr2 = (sxx + syy) ** 2
    det = sxx * syy - sxy * sxy
    if not 1e-12 * tr2 < det < tr2 / 6.25:
        return _EVEN_DIRS
    l11 = math.sqrt(sxx)
    l21 = sxy / l11
    l22 = math.sqrt(det / sxx)
    # row vectors: v^T L^-1 = (L^-T v)^T
    U = _EVEN_DIRS @ np.array([[1.0 / l11, 0.0], [-l21 / (l11 * l22), 1.0 / l22]])
    return U / np.hypot(U[:, 0], U[:, 1])[:, None]


def _depth_upper_bounds(pts, cand, w):
    """Sound upper bounds on the depth of ``cand`` under the weights ``w`` on
    ``pts``: closed-halfplane mass along the unit directions of
    ``_prune_directions``, adapted to the shape of ``pts``, with a membership
    pad wider than the exact engine's. Any direction gives an upper bound,
    since depth is the infimum over all of them."""
    U = _prune_directions(pts, w)
    pad = 1e-9 * max(1.0, float(np.abs(pts).max()), float(np.abs(cand).max()))
    pu = U @ pts.T
    cu = U @ cand.T
    order = np.argsort(pu, axis=1)
    pu = np.take_along_axis(pu, order, axis=1)
    cum = np.zeros((_PRUNE_DIRS, len(pts) + 1))
    np.cumsum(w[order], axis=1, out=cum[:, 1:])
    lo, hi = cu - pad, cu + pad
    total = float(w.sum())
    ub = np.full(len(cand), np.inf)
    for k in range(_PRUNE_DIRS):
        above = total - cum[k, np.searchsorted(pu[k], lo[k], side="left")]
        below = cum[k, np.searchsorted(pu[k], hi[k], side="right")]
        np.minimum(ub, np.minimum(above, below), out=ub)
    return ub / total


def _deepest_depths(pts, cand, w, K, vals):
    """Fill the NaN entries of ``vals`` with exact depths of ``cand`` under
    the weights ``w`` on ``pts``, only where the upper bounds cannot rule a
    candidate out, so every entry left NaN lies more than 1e-12 below the
    K-th largest value.

    Candidates are taken in descending upper-bound order. The first batch is
    the ``K - len(top)`` best-bounded ones, which fills the K largest values
    known so far; each later batch is the next candidates whose bound reaches
    the current K-th largest value minus 1e-12, at most
    ``depth._BATCH_ELEMENTS`` (row, point) pairs, and the search stops when no
    bound reaches it.
    """
    ub = _depth_upper_bounds(pts, cand, w)
    todo = np.flatnonzero(np.isnan(vals))
    order = todo[np.argsort(-ub[todo], kind="stable")]
    neg_ub = -ub[order]   # ascending, for searchsorted
    top = np.sort(vals[~np.isnan(vals)])[-K:]   # the K largest so far
    total = float(w.sum())
    rows = max(1, depth_mod._BATCH_ELEMENTS // len(pts))
    s = 0
    while s < len(order):
        if len(top) < K:
            end = s + K - len(top)
        else:
            end = int(np.searchsorted(neg_ub, 1e-12 - top[0], side="right"))
            if end <= s:
                break
        take = order[s:min(end, s + rows)]
        got = depth_mod._sweep_counting_min_batch(cand[take], pts, w)[0] / total
        vals[take] = got
        top = np.sort(np.concatenate([top, got]))[-K:]
        s += len(take)
    return vals


def _topk_indices(pts, K):
    """Indices of the K deepest sample points, value descending then index
    ascending, exactly as a full stable argsort would pick them. Returns
    (indices, values with NaN where the depth was never needed)."""
    pts = np.asarray(pts, dtype=float)
    vals = _deepest_depths(pts, pts, np.ones(len(pts)), K, np.full(len(pts), np.nan))
    filled = np.flatnonzero(~np.isnan(vals))
    top = filled[np.lexsort((filled, -vals[filled]))][:K]
    return top, vals


def _pruned_lex_best(pts, cand, weights=None, known=None):
    """Index and exact depth of the deepest point of ``cand`` under the
    weights on ``pts`` (unit weights when None), lexicographically smallest
    among values within 1e-12 of the best, as _lex_best over every exact
    depth would pick it. The one deepest-point search over a finite set:
    2D points run the pruned batch search, where ``known`` optionally carries
    already-exact values (NaN where unknown) for a prefix of cand; other
    dimensions evaluate ``depth_finite`` at every candidate.
    """
    pts = np.asarray(pts, dtype=float)
    cand = np.asarray(cand, dtype=float)
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    if pts.shape[1] != 2:
        vals = np.array([depth_finite(pts, c, w).value for c in cand])
        k = _lex_best(cand, vals)
        return k, float(vals[k])
    vals = np.full(len(cand), np.nan)
    if known is not None:
        vals[:len(known)] = known
    vals = _deepest_depths(pts, cand, w, 1, vals)
    filled = np.flatnonzero(~np.isnan(vals))
    k = int(filled[_lex_best(cand[filled], vals[filled])])
    return k, float(vals[k])


def _lattice_candidates(m: Measure, cap):
    """Integer grid of the bounding box of the support: the active points of
    a finite-support measure, the polytope otherwise."""
    if isinstance(m, (LatticeCounting, FinitePointMass)):
        pts = m.active_points()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    else:
        lo, hi = m.polytope.bounding_box()
    zlo = np.ceil(lo - geom.EPS).astype(int)
    zhi = np.floor(hi + geom.EPS).astype(int)
    counts = zhi - zlo + 1
    if np.prod(counts.astype(float)) > cap:
        raise BudgetExceeded("lattice candidate grid exceeds cap")
    axes = [np.arange(zlo[i], zhi[i] + 1) for i in range(len(zlo))]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grid]).astype(float)


def centerpoint_monte_carlo(m: Measure, S: ConstraintSet, eps: float,
                            delta: float, rng: RngState, C: float = DEFAULT_C,
                            candidate_cap: int = CANDIDATE_CAP) -> CenterpointResult:
    """eps-approximate centerpoint with probability >= 1 - delta.

    Draws N = mc_sample_size points, then returns the S-feasible maximizer of
    exact depth under the sample counting measure. Continuous 2D candidates
    are the sample points plus line-arrangement vertices (the full
    arrangement when it fits, otherwise lines through the deepest sample
    points); lattice candidates are the integer grid of the bounding box;
    mixed candidates optimize the continuous block per fiber.
    """
    N = mc_sample_size(eps, delta, S.dim + 1, C)
    pts = m.sample(rng, N)
    guarantee = depth_guarantee(S)
    known = None
    if S.kind == "continuous":
        if S.dim == 2:
            extra, known = _continuous_candidates_2d(pts, candidate_cap)
            cand = np.vstack([pts, extra]) if len(extra) else np.asarray(pts)
        else:
            cand = pts  # dims 1 and 3: sample points only
    elif S.kind == "lattice":
        cand = _lattice_candidates(m, candidate_cap)
    else:
        cand = _mixed_candidates(m, pts, candidate_cap)
    k, _val = _pruned_lex_best(pts, cand, known=known)
    best = cand[k].copy()   # a view would keep the whole candidate array alive
    res = depth_finite(pts, best)
    return CenterpointResult(best, res, "mc", N, guarantee)


def _mixed_candidates(m: MixedInteger, pts, cap):
    if m.n != 1 or m.d != 1:
        raise ValueError("mixed Monte Carlo candidates support n=1, d=1")
    cand = []
    for z, (lo, hi), _vol in m.fibers:
        ys = {lo, hi, (lo + hi) / 2.0}
        on_fiber = pts[np.abs(pts[:, 0] - z[0]) < 1e-9]
        ys.update(float(y) for y in on_fiber[:, 1])
        for y in ys:
            cand.append([float(z[0]), min(max(y, lo), hi)])
    if len(cand) > cap:
        raise BudgetExceeded(f"{len(cand)} candidates exceed cap {cap}")
    return np.array(cand)


# ---------------------------------------------------------------------------
# exact 2D lattice route

def centerpoint_lattice_measure(m: LatticeCounting) -> CenterpointResult:
    """Exact counting-measure centerpoint of a 2D lattice measure: the
    deepest active lattice point, lexicographically smallest on ties.

    ``_pruned_lex_best`` runs the batch counting kernel over the active
    points with upper-bound pruning; only the winner goes through
    ``min_direction_2d``, the same kernel with one center, for its witness
    direction. Raises DimensionTooLarge for other dimensions.
    """
    if m.dim != 2:
        raise DimensionTooLarge(f"exact lattice centerpoint is 2D only, got {m.dim}")
    pts = m.active_points()
    k, _val = _pruned_lex_best(pts, pts)
    point = pts[k].copy()
    return CenterpointResult(point, min_direction_2d(m, point), "exact2d-int", 0,
                             depth_guarantee(ConstraintSet.lattice(2)))


def centerpoint_2d_integer(P: Polytope, cap: int = 100_000) -> CenterpointResult:
    """Lattice point of P maximizing exact depth of the counting measure on
    P's lattice points."""
    if P.dim != 2:
        raise ValueError("exact integer centerpoint is 2D only")
    try:
        m = LatticeCounting(P)
    except EmptyRegion:
        raise EmptyLattice("polytope contains no lattice point") from None
    if m.total_mass > cap:
        raise BudgetExceeded(f"{int(m.total_mass)} lattice points exceed cap {cap}")
    return centerpoint_lattice_measure(m)


# ---------------------------------------------------------------------------
# exact mixed route (n=1, d=1)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a, b, tol):
    """Golden-section minimum of f on [a, b]; returns (x, f(x)).

    Endpoints are evaluated too, so on intervals where f is monotone or has
    a single interior maximum the returned value is still the minimum.
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


def centerpoint_mixed_2d(m: MixedInteger) -> CenterpointResult:
    """Depth maximizer over fibers for n=1, d=1 mixed measures.

    Depth is quasi-concave along each fiber line, so each fiber is searched
    by golden section over the continuous block, to 1e-9 of its length, with
    endpoint and midpoint probes; the best fiber wins, lexicographic ties.
    Every probe is an exact ``min_direction_2d`` depth, so the returned
    depth is exact for the returned point, while the point itself is
    located only to the search tolerance.
    """
    if m.n != 1 or m.d != 1:
        raise ValueError("exact mixed centerpoint supports n=1, d=1")
    cand, vals = [], []
    for z, (lo, hi), _vol in m.fibers:
        zf = float(z[0])

        def f(y, _z=zf):
            return -min_direction_2d(m, np.array([_z, y])).value

        span = hi - lo
        y0, fv = _golden_min(f, lo, hi, tol=max(1e-9, 1e-9 * span))
        for y, v in ((y0, -fv), ((lo + hi) / 2.0, None), (lo, None), (hi, None)):
            if v is None:
                v = min_direction_2d(m, np.array([zf, y])).value
            cand.append([zf, y])
            vals.append(v)
    k = _lex_best(cand, vals, tol=1e-9)
    point = np.array(cand[k])
    return CenterpointResult(point, min_direction_2d(m, point), "exact-mixed", 0,
                             depth_guarantee(ConstraintSet.mixed(1, 1)))


# ---------------------------------------------------------------------------
# width-based mixed recursion

def _lenstra_floor(n: int, d: int) -> float:
    return 1.0 / (2 ** (n * n) * (d + 1) ** (n + 1))


def _nearest_fiber_point(m: MixedInteger, target) -> np.ndarray:
    """Nearest point of the fiber union to ``target`` (n=1 only)."""
    best = None
    for z, payload, _vol in m.fibers:
        zf = float(z[0])
        if m.d == 1:
            lo, hi = payload
            y = min(max(target[1], lo), hi)
            p = np.array([zf, y])
        else:
            p = np.array([zf] + list(target[1:]))
        key = (abs(zf - target[0]), np.linalg.norm(p - target))
        if best is None or key < best[0]:
            best = (key, p)
    return best[1]


def _project_vertices(P: Polytope, coords) -> np.ndarray:
    """Projection of P onto ``coords`` as a canonical convex polygon.

    Projected vertices come in vertex-enumeration order, with interior and
    coincident images, so the polygon is their convex hull.
    """
    return geom.convex_hull_2d(P.vertices()[:, coords])


def centerpoint_lenstra_mixed(P: Polytope, n: int, d: int,
                              omega_bar: float = OMEGA_BAR) -> CenterpointResult:
    """Width-based recursion for mixed sets (n <= 2, d = 1).

    Wide integer projection (lattice width > omega_bar): take the continuous
    relaxation's centroid and round to the nearest fiber point. Narrow: slice
    along the flatness direction, recurse per fiber (base case n=0 returns
    the slice midpoint), then return the best point of the finite auxiliary
    measure weighted by fiber masses.

    The returned depth is exact for n=1 (``min_direction_2d``). For n=2 it
    is ``depth_sampled`` over 2000 directions: an upper bound on the true
    depth, reported with ``exact=False``.
    """
    if n < 1 or n > 2 or d != 1:
        raise ValueError("width-based recursion supports n in {1,2}, d=1")
    try:
        m = MixedInteger(P, n, d)
    except EmptyRegion:
        raise EmptyLattice("no integer fiber meets the polytope") from None
    guarantee = DepthGuarantee(2 ** n * (d + 1), 1.0 / (2 ** n * (d + 1)),
                               lenstra_floor=_lenstra_floor(n, d))
    if n == 1:
        point = _lenstra_point_1d(m, omega_bar)
        return CenterpointResult(point, min_direction_2d(m, point), "lenstra", 0, guarantee)
    # n == 2: slice the integer projection along its flatness direction
    proj = _project_vertices(P, [0, 1])
    width, u = geom.lattice_width_2d(Polytope.from_vertices_2d(proj))
    if width > omega_bar:
        pts = UniformPolytope(P).sample(RngState(0), 100_000)
        c = pts.mean(axis=0)
        z = np.round(c[:2])
        point = _slice_point(m, z, c)
    else:
        point = _narrow_recursion(P, m, u, omega_bar)
    res = depth_mod.depth_sampled(m, point, 2000, RngState(0))
    return CenterpointResult(point, res, "lenstra", 0, guarantee)


def _lenstra_point_1d(m: MixedInteger, omega_bar) -> np.ndarray:
    """The n=1, d=1 recursion point of a built measure: the centroid rounded
    to the nearest fiber point when the integer width exceeds omega_bar,
    otherwise the deepest fiber midpoint weighted by fiber lengths."""
    lo, hi = m.polytope.bounding_box()
    if float(hi[0] - lo[0]) > omega_bar:
        return _nearest_fiber_point(m, centroid(UniformPolytope(m.polytope)))
    aux_pts = np.array([[float(z[0]), (p[0] + p[1]) / 2.0] for z, p, _v in m.fibers])
    aux_w = np.array([v for _z, _p, v in m.fibers])
    return aux_pts[_pruned_lex_best(aux_pts, aux_pts, aux_w)[0]].copy()


def _slice_point(m: MixedInteger, z, target) -> np.ndarray:
    best = None
    for fz, payload, _vol in m.fibers:
        za = np.asarray(fz, dtype=float)
        lo, hi = payload
        y = min(max(target[m.n], lo), hi)
        p = np.concatenate([za, [y]])
        key = (float(np.linalg.norm(za - z)), float(np.linalg.norm(p - target)))
        if best is None or key < best[0]:
            best = (key, p)
    return best[1]


def _narrow_recursion(P: Polytope, m: MixedInteger, u, omega_bar) -> np.ndarray:
    # parametrize {z : u.z = t} as z0 + k*w with det[u w] = +-1
    u = np.asarray(u, dtype=int)
    g = math.gcd(int(u[0]), int(u[1]))
    if g > 1:
        u = u // g
    a, b = _bezout(int(u[0]), int(u[1]))
    w = np.array([-u[1], u[0]])
    verts = P.vertices()
    tvals = verts[:, :2] @ u
    aux_pts, aux_w = [], []
    for t in range(int(math.ceil(tvals.min() - geom.EPS)),
                   int(math.floor(tvals.max() + geom.EPS)) + 1):
        z0 = np.array([a * t, b * t], dtype=float)
        rows = np.array([[-(h.n[:2] @ w), -h.n[2], -(h.offset - h.n[:2] @ z0)]
                         for h in P.constraints])
        # a facet normal parallel to u leaves no (k, y) part on this slice:
        # it either holds on the whole slice or empties it
        flat = np.abs(rows[:, :2]).max(axis=1) <= 1e-12
        if np.any(rows[flat, 2] < -geom.EPS):
            continue
        try:
            sub = Polytope.from_rows(rows[~flat])
            subm = MixedInteger(sub, 1, 1)
        except (Infeasible, EmptyRegion):
            continue
        k, y = _lenstra_point_1d(subm, omega_bar)
        aux_pts.append(np.concatenate([z0 + k * w, [y]]))
        aux_w.append(subm.total_mass)
    if not aux_pts:
        raise EmptyLattice("no integer slice meets the polytope")
    aux_pts = np.array(aux_pts)
    return aux_pts[_pruned_lex_best(aux_pts, aux_pts, aux_w)[0]].copy()


def _bezout(p: int, q: int):
    """(a, b) with p*a + q*b = 1 for coprime p, q."""
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t
