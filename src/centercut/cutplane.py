"""Cutting-plane solver driven by region measures.

Each iteration picks a strategy point inside the open region, queries the
first-order oracle, and keeps only the epigraph halfspace
``h_j . (x - x_j) <= best_value - value_j``. All cuts are tightened to the
current best value (the tightest region the recorded queries support): when
a query improves the best value, the measure restricted to the start box is
restricted by every re-tightened cut anew; otherwise the old cuts would come
out bit-identical, so the current measure is restricted by the newest cut
alone, which gives the same region. Each query's cut is kept as a
normalized row (unit normal, |h_j| and h_j . x_j), so re-tightening a cut
recomputes only its offset, with ``epigraph_cut``'s rounding. The run stops
once the open region's mass drops to ``delta``, the region empties, a zero
subgradient certifies optimality, or the call budget runs out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adversary as adversary_mod
from . import geom
from .centerpoint import (ConstraintSet, _pruned_lex_best,
                          centerpoint_lattice_measure, centerpoint_mixed_2d,
                          centroid, depth_guarantee)
# min_direction_2d is unused here; perfbench's tracer test asserts this binding
from .depth import depth, min_direction_2d
from .errors import EmptyRegion, InfeasibleStart, ZeroSubgradient
from .geom import Box, Direction, Halfspace
from .measures import (FinitePointMass, LatticeCounting, MASS_TOL, Measure,
                       MixedInteger, RngState, UniformPolytope)

DEFAULT_BUDGET = 10_000
# only an exactly vanishing subgradient certifies optimality; adversarial
# oracles legitimately answer with very small h late in a game
_ZERO_GRAD_TOL = 0.0


# ---------------------------------------------------------------------------
# first-order oracles

@dataclass
class AffineMax:
    """g(x) = max_i a_i . x + b_i; subgradient from the smallest maximizing index."""

    pieces: list
    call_count: int = 0

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("AffineMax needs at least one piece")
        self.pieces = [(np.asarray(a, dtype=float), float(b)) for a, b in self.pieces]

    def __call__(self, x):
        vals = np.array([a @ x + b for a, b in self.pieces])
        j = int(np.argmax(vals))
        return float(vals[j]), self.pieces[j][0].copy()


@dataclass
class ConvexQuadratic:
    """g(x) = (x-c)' Q (x-c) + r with Q symmetric PSD."""

    Q: np.ndarray
    c: np.ndarray
    r: float = 0.0
    call_count: int = 0

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if not np.allclose(self.Q, self.Q.T, atol=1e-9):
            raise ValueError("Q must be symmetric")
        if float(np.linalg.eigvalsh(self.Q).min()) < -1e-9:
            raise ValueError("Q must be positive semidefinite")

    def __call__(self, x):
        w = np.asarray(x, dtype=float) - self.c
        return float(w @ self.Q @ w + self.r), 2.0 * (self.Q @ w)


@dataclass
class Sum:
    parts: list
    call_count: int = 0

    def __call__(self, x):
        total, grad = 0.0, None
        for p in self.parts:
            v, g = evaluate(p, x)
            total += v
            grad = g if grad is None else grad + g
        return total, grad


@dataclass
class Adversarial:
    """Resisting oracle: answers come from an adversary game state."""

    state: object
    call_count: int = 0

    def __call__(self, x):
        return adversary_mod.adversary_query(self.state, x)


FirstOrderOracle = AffineMax | ConvexQuadratic | Sum | Adversarial


def evaluate(o, x):
    """Query the oracle: exact value and one valid subgradient."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("oracle query must be finite")
    value, grad = o(x)
    o.call_count += 1
    return value, np.asarray(grad, dtype=float)


class _CutRow(NamedTuple):
    """One query's epigraph cut with its offset left open: the unit normal
    -h_j / |h_j|, the norm |h_j|, h_j . x_j and value_j."""

    normal: Direction
    scale: float
    hx: float
    value: float

    @classmethod
    def of(cls, x_j, value_j: float, h_j) -> "_CutRow":
        """Raises ZeroSubgradient when h_j vanishes."""
        x_j = np.asarray(x_j, dtype=float)
        h_j = np.asarray(h_j, dtype=float)
        if float(np.linalg.norm(h_j)) <= _ZERO_GRAD_TOL:
            raise ZeroSubgradient(x_j, value_j)
        normal, scale = Direction._normalized(geom._vector(-h_j))
        return cls(normal, scale, float(h_j @ x_j), value_j)

    def at(self, best_value: float, closed: bool = True) -> Halfspace:
        """The cut tightened to ``best_value``, rounded as
        ``Halfspace.from_vector(-h_j, -rhs)`` rounds it."""
        return Halfspace(self.normal, -(self.hx + (best_value - self.value)) / self.scale,
                         closed)


def epigraph_cut(x_j, value_j: float, h_j, best_value: float) -> Halfspace:
    """Closed halfspace {x : h_j . (x - x_j) <= best_value - value_j}.

    Raises ZeroSubgradient when h_j vanishes: x_j is then optimal and there
    is nothing to cut.
    """
    return _CutRow.of(x_j, value_j, h_j).at(best_value)


# ---------------------------------------------------------------------------
# strategies

@dataclass(frozen=True)
class Centerpoint:
    """Query the centerpoint of the restricted measure (exact engine per family)."""


@dataclass(frozen=True)
class Centroid:
    """Query the mean point (rounded to the nearest support point when S is discrete)."""


@dataclass(frozen=True)
class RandomFeasible:
    seed: int = 0


def _nearest_row(pts, target):
    i = int(np.argmin(np.linalg.norm(pts - target, axis=1)))
    return pts[i].copy()


def _pick_centerpoint(m: Measure):
    """The Centerpoint pick, with its exact depth where ``depth`` has an
    engine; None for 3D uniform measures and for mixed measures other than
    n = 1, d = 1, whose trace then records the removed share."""
    if isinstance(m, LatticeCounting) and m.dim == 2:
        r = centerpoint_lattice_measure(m)
        return r.point, r.depth.value
    if isinstance(m, MixedInteger) and m.n == 1 and m.d == 1:
        r = centerpoint_mixed_2d(m)
        return r.point, r.depth.value
    if isinstance(m, (UniformPolytope, MixedInteger)):
        x = _pick_centroid(m)
        r = depth(m, x)
        return x, None if r is None else r.value
    # finite point masses and 1D/3D lattices: the deepest support point
    pts = m.active_points()
    k, res = _pruned_lex_best(pts, pts, m.active_weights())
    return pts[k].copy(), res.value


def _mixed_mean(m: MixedInteger) -> np.ndarray:
    """The mean of the measure, the volume-weighted mean of its fiber
    centroids (interval midpoints for d = 1, polygon centroids for d = 2),
    moved to the fiber nearest in the integer block, and clamped into that
    fiber: into its interval for d = 1, to the nearest point of its polygon
    for d = 2."""
    zs = np.array([z for z, _p, _v in m.fibers], dtype=float)
    vols = np.array([v for _z, _p, v in m.fibers])
    if m.d == 1:
        cs = ((m._lo + m._hi) / 2.0)[:, None]
    else:
        cs = np.array([geom.polygon_centroid(p) for _z, p, _v in m.fibers])
    mean = vols @ np.hstack([zs, cs]) / vols.sum()
    k = int(np.argmin(np.abs(zs - mean[:m.n]).sum(axis=1)))
    z, payload, _v = m.fibers[k]
    out = np.concatenate([np.asarray(z, dtype=float), mean[m.n:]])
    if m.d == 1:
        lo, hi = payload
        out[m.n] = min(max(out[m.n], lo), hi)
    else:
        out[m.n:] = geom.nearest_point_in_polygon(payload, out[m.n:])
    return out


def _pick_centroid(m: Measure):
    if isinstance(m, UniformPolytope):
        return centroid(m)
    if isinstance(m, MixedInteger):
        return _mixed_mean(m)
    pts = m.active_points()
    return _nearest_row(pts, pts.mean(axis=0))


def _pick(strategy, m: Measure, i: int):
    """Strategy point inside the open region, with a depth estimate when known."""
    if isinstance(strategy, Centerpoint):
        return _pick_centerpoint(m)
    if isinstance(strategy, Centroid):
        return _pick_centroid(m), None
    if isinstance(strategy, RandomFeasible):
        return m.sample(RngState(strategy.seed).child(i), 1)[0], None
    raise TypeError(f"unknown strategy: {strategy!r}")


def _nudge_interior(x, m: Measure):
    """Push a continuous block off any cut boundary it sits on exactly."""
    if isinstance(m, FinitePointMass):   # its picks clear every open cut by EPS
        return x
    start = m.n if isinstance(m, MixedInteger) else 0
    x = np.array(x, dtype=float)
    for c in m.region:
        if not c.closed and c.value(x[None])[0] <= 1e-12:
            tail = c.n[start:]
            if np.linalg.norm(tail) > 1e-12:
                x[start:] += 1e-9 * tail / np.linalg.norm(tail)
    return x


# ---------------------------------------------------------------------------
# solver

@dataclass(frozen=True)
class TraceRow:
    point: np.ndarray
    value: float
    subgradient: np.ndarray
    mass_after: float
    depth: float | None = None


@dataclass(frozen=True)
class SolveReport:
    best_point: np.ndarray | None
    best_value: float
    oracle_calls: int
    iteration_trace: list
    stop_reason: str
    bound_comparison: tuple


def solve(o, S: ConstraintSet, nu: Measure, E0: Box, delta: float,
          strategy=Centerpoint(), budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Run the cutting-plane loop until the open region mass is at most delta.

    The measure ``nu`` must be supported on S; E0 membership uses half-open
    box semantics (lower faces in, upper faces out) so integer supports on
    the lower boundary stay queryable.

    Each query's cut is normalized once, into a ``_CutRow``; an improving
    query rebuilds every cut from those rows, offsets only, and the region
    equals the one ``epigraph_cut`` at the new best value would give, bit
    for bit. Raises ValueError for a negative ``budget``.
    """
    if budget < 0:
        raise ValueError("the oracle call budget must be nonnegative")
    try:
        boxed = nu.restrict(tuple(E0.half_open_cuts()))
    except EmptyRegion:
        raise InfeasibleStart("no feasible point inside the starting box") from None
    m = boxed
    best_point, best_value = None, math.inf
    rows = []   # each query's _CutRow
    V = m.total_mass
    trace = []
    stop = None
    upper = _upper_bound_or_none(S, strategy, V, delta)

    if m.total_mass <= delta:
        stop = "mass_below_delta"
    calls_start = o.call_count
    while stop is None:
        if o.call_count - calls_start >= budget:
            stop = "budget"
            break
        try:
            x, est = _pick(strategy, m, len(trace))
        except EmptyRegion:   # degenerate sliver region below pick tolerance
            stop = "empty_region"
            break
        x = _nudge_interior(x, m)
        value, h = evaluate(o, x)
        improved = value < best_value
        if improved:
            best_value, best_point = value, x
        try:
            row = _CutRow.of(x, value, h)
        except ZeroSubgradient:
            trace.append(TraceRow(x, value, h, m.total_mass, est))
            stop = "zero_subgradient"
            break
        rows.append(row)
        u = row.normal.coords  # inward normal of the kept side; -u points at the removed mass
        back, scale = Direction._normalized(-u)
        removed = float(m.halfspace_mass(Halfspace(back, float(-u @ x) / scale)))
        depth_rec = removed if est is None else min(est, removed)
        try:
            if improved:   # every cut moves with best_value
                m = boxed.restrict(tuple(r.at(best_value, closed=False) for r in rows))
            else:   # the old cuts would come out bit-identical: add the new one
                m = m.restrict((row.at(best_value, closed=False),))
            mass = m.total_mass
        except EmptyRegion:
            mass = 0.0
        trace.append(TraceRow(x, value, h, mass, depth_rec))
        if mass <= MASS_TOL:
            stop = "empty_region"
            break
        if m.total_mass <= delta:
            stop = "mass_below_delta"
            break

    lower = None
    if isinstance(o, Adversarial):
        lower = adversary_mod.lower_bound_for(o.state, delta)
    return SolveReport(best_point, best_value,
                       o.call_count - calls_start, trace, stop, (upper, lower))


def _upper_bound_or_none(S, strategy, V, delta):
    if not isinstance(strategy, Centerpoint) or delta <= 0:
        return None
    g = depth_guarantee(S)
    c = g.grunbaum_floor if S.kind == "continuous" and g.grunbaum_floor else g.floor
    return iteration_upper_bound(c, V, delta)


# ---------------------------------------------------------------------------
# bounds

def iteration_upper_bound(c: float, V: float, delta: float) -> int:
    """ceil(log(V/delta) / log(1/(1-c))) oracle calls suffice at depth c."""
    if not (0 < c < 1):
        raise ValueError("depth floor c must lie in (0, 1)")
    if delta <= 0 or V < 0:
        raise ValueError("need V >= 0 and delta > 0")
    if V <= delta:
        return 0
    ratio = math.log(V / delta) / math.log(1.0 / (1.0 - c))
    return int(math.ceil(ratio - 1e-12))


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def mixed_gap_bound(L: float, delta: float, d: int) -> float:
    """Objective-gap bound L * (delta / kappa_d)^(1/d) for the continuous block."""
    if L < 0 or delta <= 0 or d < 1:
        raise ValueError("need L >= 0, delta > 0, d >= 1")
    return L * (delta / unit_ball_volume(d)) ** (1.0 / d)
