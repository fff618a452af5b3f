"""Centerpoint computation: points maximizing halfspace depth over a
constraint set.

Five routes: Monte Carlo sampling with exact maximization over an enriched
candidate set, exhaustive exact search over 2D lattice points, an exact
per-fiber candidate-set search for n=1, d=1 mixed measures, a width-based
recursion for mixed-integer sets, and the exact centroid witness for
continuous sets. Every returned point satisfies its constraint set exactly
(integer blocks are exact integers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _lex_best(candidates, values):
    """Index of the max value; exact lexicographically smallest point on ties."""
    values = np.asarray(values)
    top = float(values.max())
    tied = np.flatnonzero(values >= top - 1e-12)
    pts = np.asarray(candidates)[tied]
    return int(tied[np.lexsort(pts.T[::-1])[0]])


# ---------------------------------------------------------------------------
# centroid witness

def centroid(m: UniformPolytope) -> np.ndarray:
    """Exact centroid of support . region: the interval midpoint in 1D, the
    fanned polygon centroid in 2D, and in 3D the one the measure computed
    with its volume (``geom.volume_centroid_3d``)."""
    if m.dim == 1:
        lo, hi = m._interval
        return np.array([(lo + hi) / 2.0])
    if m.dim == 2:
        return geom.polygon_centroid(m.region_vertices())
    return m._centroid.copy()


# ---------------------------------------------------------------------------
# Monte Carlo route

def mc_sample_size(eps: float, delta: float, vc_dim: int, C: float = DEFAULT_C) -> int:
    """Sample size C * (1/eps^2) * (vc_dim + ln(1/delta))."""
    if not (0 < eps <= 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    return int(math.ceil(C / (eps * eps) * (vc_dim + math.log(1.0 / delta))))


def _arrangement_vertices(pts, cap):
    """Pairwise intersections of the lines through pairs of ``pts``, both in
    ``itertools.combinations`` order, for line pairs with four distinct
    endpoints only, skipping near-parallel pairs. Two lines that share an
    endpoint meet at that sample point, so their vertex would only be a
    rounded copy of a candidate already in the set; n points in general
    position give 3 * C(n, 4) vertices."""
    i, j = np.triu_indices(len(pts), 1)
    d = pts[j] - pts[i]
    nrm = np.column_stack([-d[:, 1], d[:, 0]])
    off = geom.row_dots(nrm, pts[i])
    a, b = np.triu_indices(len(nrm), 1)
    # i < j on each line and i[a] <= i[b], so i[a] != j[b] always holds
    apart = (i[a] != i[b]) & (j[a] != i[b]) & (j[a] != j[b])
    a, b = a[apart], b[apart]
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
    arrangement when it fits, otherwise lines through the deepest samples,
    in both cases only vertices of lines with four distinct endpoints
    (``_arrangement_vertices``). Returns (extra points, None or the sample
    depths where they were computed with the samples' upper bounds)."""
    n = len(pts)
    n_lines = n * (n - 1) // 2
    # counts every pair of lines, so it bounds the candidates from above
    exhaustive = n_lines * (n_lines - 1) // 2 + n <= min(cap, ARRANGEMENT_LIMIT)
    known = None
    if exhaustive:
        extra = _arrangement_vertices(pts, cap)
    else:
        top, *known = _topk_indices(pts, TOP_K)
        extra = _arrangement_vertices(pts[np.sort(top)], cap)
    if n + len(extra) > cap:
        raise BudgetExceeded(f"{n + len(extra)} candidates exceed cap {cap}")
    return extra, known


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


class _Projections(NamedTuple):
    """A weighted sample sorted along unit directions, the rows of ``U``:
    each row's sorting permutation ``order`` and sorted projections ``ps``
    (D, n), and the cumulative weights in that order ``cum`` (D, n + 1),
    from 0 up to about ``total``."""

    pts: np.ndarray
    U: np.ndarray
    order: np.ndarray
    ps: np.ndarray
    cum: np.ndarray
    total: float


def _project(pts, w, U):
    """The ``_Projections`` table of the weights ``w`` on ``pts`` along the
    rows of ``U``: one projection and one sort per direction."""
    pu = U @ pts.T
    order = np.argsort(pu, axis=1)
    cum = np.zeros((len(U), len(pts) + 1))
    np.cumsum(w[order], axis=1, out=cum[:, 1:])
    return _Projections(pts, U, order, np.take_along_axis(pu, order, axis=1), cum,
                        float(w.sum()))


def _slab_screen(tab, cu, pad, floor):
    """Which candidates, by their projections ``cu`` (one row per direction
    of ``tab``), may reach the depth ``floor`` (a share of the total
    weight), and a sound bound below ``floor`` for the others.

    Along a direction, a candidate's padded closed halfplane below it holds
    less than ``floor`` exactly when its projection lies under
    lo = ps[j - 1] - pad, with j the number of cumulative weights below
    ``floor``; the halfplane above holds less exactly when it lies over
    hi = ps[i - 1] + pad, with i the number of cumulative weights whose
    complement reaches ``floor``. A candidate outside [lo, hi] along some
    direction has depth below ``floor``, and the largest halfplane share
    below ``floor`` bounds it. With floor <= 0 every slab is the whole line;
    with floor above every share, every slab is empty.

    Each row of ``below`` ascends and each row of ``above`` descends, so the
    largest share under ``floor`` in a row is below[j - 1] or above[i], the
    entries next to the counts that place the slab.
    Returns (inside every slab, that bound).
    """
    D, n = tab.ps.shape
    rr = np.arange(D)
    below = tab.cum / tab.total
    above = (tab.total - tab.cum) / tab.total
    j = np.count_nonzero(below < floor, axis=1)
    i = np.count_nonzero(above >= floor, axis=1)
    edges = np.empty((D, n + 2))
    edges[:, 0], edges[:, -1] = -np.inf, np.inf
    edges[:, 1:-1] = tab.ps
    lo = edges[rr, j] - pad
    hi = edges[rr, i] + pad
    live = np.all((cu >= lo[:, None]) & (cu <= hi[:, None]), axis=0)
    low = np.maximum(np.where(j > 0, below[rr, j - 1], 0.0),
                     np.where(i <= n, above[rr, np.minimum(i, n)], 0.0))
    return live, float(low.max(initial=0.0))


def _halfplane_bounds(tab, cand, floor=0.0):
    """Sound upper bounds on the depth of ``cand`` under the weighted sample
    of the ``_Projections`` table ``tab``: the least closed-halfplane mass
    along its directions, with a membership pad wider than the exact
    engine's. Any direction gives an upper bound, since depth is the infimum
    over all of them.

    ``_slab_screen`` first gives every candidate outside the slabs of
    ``floor`` a bound below it, so those are never sorted or searched. One
    pass serves every direction for the rest: projections onto direction k
    are shifted into the block around k * span, and one search of the
    sorted candidate ends into the sorted point projections counts the
    points on each side of every candidate. Rounding is monotone, so the
    shift can only move a point onto a candidate's end, which widens a
    halfplane and never narrows it.

    A self-search (``cand is tab.pts``) needs no candidate sort and almost
    no search: the point of rank r along a direction has its own key between
    its shifted ends, so r points lie below its lower end and r + 1 up to
    its upper end, unless the key of the rank r - 1 or r + 1 neighbour
    reaches that end. Only those entries are searched, with the same
    shifted keys and ends, so the bounds are the ones a full search gives.
    """
    D, n = tab.ps.shape
    scale = max(1.0, float(np.abs(tab.pts).max()), float(np.abs(cand).max(initial=0.0)))
    pad = 1e-9 * scale
    span = 4.0 * scale + 1.0   # over twice any |projection| + pad: |U| = 1
    rr = np.arange(D)[:, None]
    ub = np.empty(len(cand))
    live = slice(None)
    if cand is tab.pts:   # a self-search sorts once
        corder, cs = tab.order, tab.ps
    else:
        cu = tab.U @ cand.T
        if floor > 0.0:
            live, low = _slab_screen(tab, cu, pad, floor)
            ub[:] = low
            cu = cu[:, live]
        corder = np.argsort(cu, axis=1)
        cs = cu[rr, corder]
    shift = span * rr
    keys = tab.ps + shift
    flat = keys.ravel()
    lo, hi = (cs - pad) + shift, (cs + pad) + shift   # the padded ends, shifted
    if cand is tab.pts:   # counts from the ranks, searched only next to near-ties
        above = tab.total - tab.cum[:, :-1]
        below = tab.cum[:, 1:].copy()
        k, r = np.nonzero(keys[:, :-1] >= lo[:, 1:])
        r += 1
        above[k, r] = tab.total - tab.cum[k, np.searchsorted(flat, lo[k, r], side="left") - n * k]
        k, r = np.nonzero(keys[:, 1:] <= hi[:, :-1])
        below[k, r] = tab.cum[k, np.searchsorted(flat, hi[k, r], side="right") - n * k]
    else:
        first = n * rr   # the keys of the blocks before block k
        above = tab.total - tab.cum[rr, np.searchsorted(flat, lo.ravel(), side="left")
                                    .reshape(lo.shape) - first]
        below = tab.cum[rr, np.searchsorted(flat, hi.ravel(), side="right")
                        .reshape(hi.shape) - first]
    bound = np.empty(cs.shape)
    bound[rr, corder] = np.minimum(above, below)
    ub[live] = bound.min(axis=0, initial=np.inf) / tab.total
    return ub


def _depth_upper_bounds(pts, cand, w):
    """``_halfplane_bounds`` along the directions of ``_prune_directions``,
    adapted to the shape of ``pts``."""
    return _halfplane_bounds(_project(pts, w, _prune_directions(pts, w)), cand)


def _deepest_depths(pts, cand, w, K, vals, ub, angles):
    """Fill the NaN entries of ``vals`` with exact depths of ``cand`` under
    the weights ``w`` on ``pts``, and the same entries of ``angles`` with the
    kernel's minimizing angles, only where the upper bounds ``ub`` (from
    ``_halfplane_bounds``) and the bounds tightened below cannot rule a
    candidate out, so every entry left NaN lies more than 1e-12 below the
    K-th largest value. ``ub`` itself is left unchanged.

    Candidates are taken in descending bound order; when ``vals`` already
    holds K values, only those whose bound reaches the K-th largest minus
    1e-12 are sorted, since no other can ever qualify. The first batch is the
    ``K - len(top)`` best-bounded ones, which fills the K largest values
    known so far. A candidate qualifies while its bound reaches the current
    K-th largest value minus 1e-12; the search stops when none does. When
    the qualifiers fit in one batch of ``depth._BATCH_ELEMENTS`` (row, point)
    pairs, the batch takes them all. That size (see its comment) is 7 rows
    at 1,061 samples. Larger batches cost more per row and take whole sets
    of qualifiers that a probe would rule out: at 25,000 pairs (23 rows) the
    last search of a Monte Carlo query evaluated 12.5 rows on average over
    210 recorded queries, against 7.8 at 8,192. Otherwise it is a probe of
    the best-bounded ones, 1 row at first and twice as many each time up to a
    full batch, and the kernel's minimizing angle a of each probe row gives
    a unit direction (sin a, cos a) along which ``_halfplane_bounds``
    tightens the bounds of the remaining qualifiers, screened against the
    threshold, so only those inside its slabs are sorted. The ones that fall
    below the threshold are dropped, since it only rises, and the survivors
    are re-sorted. Every bound stays sound, so each candidate within 1e-12
    of the K-th largest value is still evaluated.
    """
    todo = np.flatnonzero(np.isnan(vals))
    top = np.sort(vals[~np.isnan(vals)])[-K:]   # the K largest so far
    if len(top) == K:   # only the qualifiers are ever taken
        todo = todo[-ub[todo] <= 1e-12 - top[0]]
    order = todo[np.argsort(-ub[todo], kind="stable")]   # left, best bound first
    neg_ub = -ub[order]   # ascending, for searchsorted; a copy, so ub stays
    total = float(w.sum())
    rows = max(1, depth_mod._BATCH_ELEMENTS // len(pts))
    probe = 1
    while len(order):
        tighten = False
        if len(top) < K:
            n_take = min(K - len(top), rows)
        else:
            n_take = int(np.searchsorted(neg_ub, 1e-12 - top[0], side="right"))
            if n_take == 0:
                break
            if n_take > rows:
                n_take, probe, tighten = probe, min(2 * probe, rows), True
        take = order[:n_take]
        got, angles[take] = depth_mod._sweep_counting_min_batch(cand[take], pts, w)
        got /= total
        vals[take] = got
        top = np.sort(np.concatenate([top, got]))[-K:]
        order, neg_ub = order[n_take:], neg_ub[n_take:]
        if tighten:
            end = int(np.searchsorted(neg_ub, 1e-12 - top[0], side="right"))
            U = np.column_stack([np.sin(angles[take]), np.cos(angles[take])])
            neg = np.maximum(neg_ub[:end], -_halfplane_bounds(
                _project(pts, w, U), cand[order[:end]], top[0] - 1e-12))
            keep = np.flatnonzero(neg <= 1e-12 - top[0])
            keep = keep[np.argsort(neg[keep], kind="stable")]
            order, neg_ub = order[keep], neg[keep]
    return vals


def _topk_indices(pts, K):
    """Indices of the K deepest sample points, value descending then index
    ascending, exactly as a full stable argsort would pick them. The sample
    is projected and sorted once, along ``_prune_directions``, into a
    ``_Projections`` table that bounds every point. Returns (indices, values
    and the kernel's minimizing angles, both NaN where the depth was never
    needed, the upper bounds of every point, the table), the last four
    ready to pass on as ``_pruned_lex_best``'s ``known``."""
    pts = np.asarray(pts, dtype=float)
    w = np.ones(len(pts))
    tab = _project(pts, w, _prune_directions(pts, w))
    ub = _halfplane_bounds(tab, pts)
    angles = np.full(len(pts), np.nan)
    vals = _deepest_depths(pts, pts, w, K, np.full(len(pts), np.nan), ub, angles)
    filled = np.flatnonzero(~np.isnan(vals))
    top = filled[np.lexsort((filled, -vals[filled]))][:K]
    return top, vals, angles, ub, tab


def _pruned_lex_best(pts, cand, weights=None, known=None):
    """Index and exact ``DepthResult`` of the deepest point of ``cand``
    under the weights on ``pts`` (unit weights when None), lexicographically
    smallest among values within 1e-12 of the best, as _lex_best over every
    exact depth would pick it. The one deepest-point search over a finite
    set: 2D points run the pruned batch search, and the winner's own kernel
    row gives its value and witness, as ``depth_finite`` would; other
    dimensions evaluate ``depth_finite`` at every candidate.

    Without ``known``, a set of at most ``_PRUNE_DIRS`` candidates that fits
    in one kernel batch skips the bounds: the bound pass sorts the sample
    along as many directions as it would take kernel rows to evaluate every
    candidate, and the pruned search evaluates every candidate within 1e-12
    of the best anyway, so both pick the same one. The row offsets of the
    kernel's flat search then stay below 4*pi*16, where one ulp is far
    under its 1e-12 slack, so the values and witness are the same too.

    ``known`` optionally carries (exact values and minimizing angles, NaN
    where unknown; upper bounds) for a prefix of cand, and a
    ``_Projections`` table of the same weighted ``pts``, as
    ``_topk_indices`` returns them. The search can only end at or above the
    best known value, so the rest of cand is screened against that value
    minus 1e-12 from the table, without sorting the sample again: only the
    candidates inside every slab get full bounds.
    """
    pts = np.asarray(pts, dtype=float)
    cand = np.asarray(cand, dtype=float)
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    if pts.shape[1] != 2:
        res = [depth_finite(pts, c, w) for c in cand]
        k = _lex_best(cand, [r.value for r in res])
        return k, res[k]
    if (known is None and len(cand) <= _PRUNE_DIRS
            and len(cand) * len(pts) <= depth_mod._BATCH_ELEMENTS):
        vals, angles = depth_mod._sweep_counting_min_batch(cand, pts, w)
        vals /= float(w.sum())
        k = _lex_best(cand, vals)
        return k, depth_mod._result(vals[k], angles[k], True, 0.0)
    vals = np.full(len(cand), np.nan)
    angles = np.full(len(cand), np.nan)
    if known is None:
        ub = _depth_upper_bounds(pts, cand, w)
    else:
        known_vals, known_angles, known_ub, tab = known
        vals[:len(known_vals)] = known_vals
        angles[:len(known_angles)] = known_angles
        # the search below starts its threshold at the best known value
        floor = float(np.nanmax(known_vals)) - 1e-12
        ub = np.concatenate([known_ub, _halfplane_bounds(tab, cand[len(known_ub):], floor)])
    vals = _deepest_depths(pts, cand, w, 1, vals, ub, angles)
    filled = np.flatnonzero(~np.isnan(vals))
    k = int(filled[_lex_best(cand[filled], vals[filled])])
    return k, depth_mod._result(vals[k], angles[k], True, 0.0)


def _lattice_candidates(m: Measure, cap):
    """Integer grid of the bounding box of the support: the active points of
    a finite-support measure, the polytope otherwise. Raises EmptyLattice
    when the box holds no integer point."""
    if isinstance(m, FinitePointMass):
        pts = m.active_points()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    else:
        lo, hi = m.polytope.bounding_box()
    zlo = np.ceil(lo - geom.EPS).astype(int)
    zhi = np.floor(hi + geom.EPS).astype(int)
    counts = zhi - zlo + 1
    if np.any(counts <= 0):
        raise EmptyLattice("bounding box of the support holds no integer point")
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
    are the sample points plus the vertices where two lines through pairs
    of sample points with four distinct endpoints cross (the full
    arrangement when it fits, otherwise lines through the deepest sample
    points); lattice candidates are the integer grid of the bounding box;
    mixed candidates optimize the continuous block per fiber.

    ``_pruned_lex_best`` picks the maximizer with exact depths only where
    upper bounds cannot rule a candidate out: halfplane masses along
    directions adapted to the sample's shape, tightened along the witness
    directions of the candidates already evaluated when many remain. In the
    arrangement case the sample is projected and sorted along those
    directions once: the same table bounds the sample points in the top-K
    search and screens the arrangement vertices against the best depth it
    found, so only the vertices that may reach it are bounded and sorted.
    The pick is the one exact depths at every candidate would give.
    """
    N = mc_sample_size(eps, delta, S.dim + 1, C)
    # every sample point of a continuous or mixed S is a candidate
    if S.kind != "lattice" and N > candidate_cap:
        raise BudgetExceeded(f"{N} sample points exceed cap {candidate_cap}")
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
    k, res = _pruned_lex_best(pts, cand, known=known)
    # a view would keep the whole candidate array alive
    return CenterpointResult(cand[k].copy(), res, "mc", N, guarantee)


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

_LATTICE_2D_GUARANTEE = depth_guarantee(ConstraintSet.lattice(2))


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
    k, _res = _pruned_lex_best(pts, pts)
    point = pts[k].copy()
    return CenterpointResult(point, min_direction_2d(m, point), "exact2d-int", 0,
                             _LATTICE_2D_GUARANTEE)


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

def _fiber_breakpoints(m: MixedInteger, z0, lo, hi):
    """lo, hi and every crossing inside (lo, hi) of the fiber z0 with a line
    through two endpoints on distinct other fibers, sorted: the only y where
    a ``_mixed_cuts`` column can bend."""
    Z = m._z[:, 0]
    other = Z != z0
    ez = np.concatenate([Z[other], Z[other]])
    ev = np.concatenate([m._lo[other], m._hi[other]])
    a, b = np.nonzero(np.triu(ez[:, None] != ez))   # pairs on distinct fibers
    y = ev[a] + (ev[b] - ev[a]) * (z0 - ez[a]) / (ez[b] - ez[a])
    return np.unique(np.concatenate([[lo, hi], y[(y > lo) & (y < hi)]]))


def _fiber_search(m: MixedInteger, z0, lo, hi):
    """Candidate y values on the fiber (z0, [lo, hi]) and their depths: a
    deepest point of the fiber and each breakpoint and column crossing
    within 1e-12 of it.

    Depth is quasi-concave along the fiber, so every isqrt(n)-th of its n
    breakpoints brackets the points within 2e-12 of the best of them. Inside
    the bracket every column is linear between breakpoints, so the depth is
    concave there and peaks at a breakpoint or where two columns cross, at
    the least column interpolated from the ends. Crossings within
    1e-12 * max(1, hi - lo) of an end are left to that end.
    """
    ys = _fiber_breakpoints(m, z0, lo, hi)
    step = max(1, depth_mod._BATCH_ELEMENTS // (4 * len(m.fibers) ** 2))   # 4F cuts x F fibers

    def cuts(y):
        return np.concatenate([depth_mod._mixed_cuts(m, z0, y[k:k + step])[1]
                               for k in range(0, len(y), step)])

    idx = np.unique(np.r_[0:len(ys):math.isqrt(len(ys)), len(ys) - 1])
    g = cuts(ys[idx]).min(axis=1)
    high = np.flatnonzero(g >= g.max() - 2e-12)
    ys = ys[idx[max(high[0] - 1, 0)]:idx[min(high[-1] + 1, len(idx) - 1)] + 1]
    V = cuts(ys)
    out_y, out_v = [ys], [V.min(axis=1)]
    i, j = np.triu_indices(V.shape[1], 1)
    tol = 1e-12 * max(1.0, hi - lo)
    for q in np.array_split(np.arange(len(ys) - 1),
                            max(1, (len(ys) - 1) * len(i) // depth_mod._BATCH_ELEMENTS)):
        A, B = V[q], V[q + 1]
        dA, dB = A[:, i] - A[:, j], B[:, i] - B[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = dA / (dA - dB)
        h = (ys[q + 1] - ys[q])[:, None]
        r, c = np.nonzero((s * h > tol) & ((1.0 - s) * h > tol))
        s = s[r, c][:, None]
        out_y.append(ys[q[r]] + s[:, 0] * h[r, 0])
        out_v.append((A[r] + (B[r] - A[r]) * s).min(axis=1))
    return np.concatenate(out_y), np.concatenate(out_v)


def centerpoint_mixed_2d(m: MixedInteger) -> CenterpointResult:
    """Exact depth maximizer of an n=1, d=1 mixed measure: the deepest
    ``_fiber_search`` candidate, lexicographically smallest among values
    within 1e-12, with ``min_direction_2d`` depth. Fibers go in descending
    order of the bound the two stratum cuts put on their depth, and the
    search stops at one whose bound lies 2e-12 below the best value."""
    if m.n != 1 or m.d != 1:
        raise ValueError("exact mixed centerpoint supports n=1, d=1")
    Z, LO, HI = m._z[:, 0], m._lo, m._hi
    left = np.cumsum(m._vol) - m._vol   # fibers come in ascending z
    right = m.total_mass - left - m._vol
    y = np.clip((LO + HI + right - left) / 2.0, LO, HI)
    bound = np.minimum(right + HI - y, left + y - LO) / m.total_mass
    best = -math.inf
    cand, vals = [], []
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] < best - 2e-12:
            break
        ys, v = _fiber_search(m, Z[k], LO[k], HI[k])
        best = max(best, float(v.max()))
        cand.append(np.column_stack([np.full(len(ys), Z[k]), ys]))
        vals.append(v)
    cand = np.concatenate(cand)
    point = cand[_lex_best(cand, np.concatenate(vals))].copy()
    return CenterpointResult(point, min_direction_2d(m, point), "exact-mixed", 0,
                             depth_guarantee(ConstraintSet.mixed(1, 1)))


# ---------------------------------------------------------------------------
# width-based mixed recursion

def _lenstra_floor(n: int, d: int) -> float:
    return 1.0 / (2 ** (n * n) * (d + 1) ** (n + 1))


def centerpoint_lenstra_mixed(P: Polytope, n: int, d: int,
                              omega_bar: float = OMEGA_BAR) -> CenterpointResult:
    """Width-based recursion for mixed sets (n <= 2, d = 1).

    Wide integer projection (lattice width > omega_bar): take the continuous
    relaxation's exact centroid (``centroid``, in 2D or 3D) and round to the
    nearest fiber point. Narrow: slice along the flatness direction, recurse
    per fiber (base case n=0 returns the slice midpoint), then return the
    best point of the finite auxiliary measure weighted by fiber masses.

    The returned depth is exact for n=1 (``depth.depth``). For n=2, which
    ``depth`` has no engine for, it is ``depth_sampled`` over 2000
    directions: an upper bound, reported with ``exact=False``.
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
    else:   # slice the integer projection along its flatness direction
        # projected vertices repeat and fall inside, so take their convex hull
        proj = geom.convex_hull_2d(P.vertices()[:, [0, 1]])
        width, u = geom.lattice_width_2d(Polytope.from_vertices_2d(proj))
        if width > omega_bar:
            c = centroid(UniformPolytope(P))
            point = _slice_point(m, np.round(c[:2]), c)
        else:
            point = _narrow_recursion(P, u, omega_bar)
    res = depth_mod.depth(m, point) or depth_mod.depth_sampled(m, point, 2000, RngState(0))
    return CenterpointResult(point, res, "lenstra", 0, guarantee)


def _lenstra_point_1d(m: MixedInteger, omega_bar) -> np.ndarray:
    """The n=1, d=1 recursion point of a built measure: the centroid rounded
    to the nearest fiber point when the integer width exceeds omega_bar,
    otherwise the deepest fiber midpoint weighted by fiber lengths."""
    lo, hi = m.polytope.bounding_box()
    if float(hi[0] - lo[0]) > omega_bar:
        c = centroid(UniformPolytope(m.polytope))
        return _slice_point(m, c[:1], c)
    aux_pts = np.array([[float(z[0]), (p[0] + p[1]) / 2.0] for z, p, _v in m.fibers])
    aux_w = np.array([v for _z, _p, v in m.fibers])
    return aux_pts[_pruned_lex_best(aux_pts, aux_pts, aux_w)[0]].copy()


def _slice_point(m: MixedInteger, z, target) -> np.ndarray:
    """Point of the d = 1 fiber whose integer block is nearest ``z``, ties
    broken by distance to ``target``: that block with ``target``'s
    continuous coordinate clamped into the fiber."""
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


def _narrow_recursion(P: Polytope, u, omega_bar) -> np.ndarray:
    # parametrize {z : u.z = t} as z0 + k*w with det[u w] = +-1; the
    # flatness direction u is primitive
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
