"""Resisting first-order oracles for worst-case solver benchmarks.

Each game answers queries from an explicit convex function: a max of affine
pieces ``t >= h_j . (y - x_j) - c_j``. A query strictly inside the current
best-response region {g < -c} appends one piece whose constant advances by a
positive xi, chosen small enough that (a) every earlier answer is still the
exact max over pieces, (b) the new piece strictly dominates at its own query
point, and (c) every surviving candidate stays strictly inside all tightened
cuts. Queries at or above the current epigraph floor are answered from the
existing pieces and add nothing.

The subgradient magnitudes shrink with xi as the game runs (scaling each new
piece down is the only way to keep old answers valid once past queries
surround the region), by a factor per query that grows with the region's
size. Once xi falls below half an ulp of the running constant, the constant
stops advancing and the game answers with an exactly zero subgradient, on
which a solve stops. So a solve can stop short of the game's lower bound:
the integer game from B = 1024 on, the mixed game with n + d = 3 already at
B = 8 (the table ``repro/lower_bounds.csv`` lists the cases checked).
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .centerpoint import ConstraintSet
from .errors import EmptyRegion, OutsideRegion
from .geom import Box, Halfspace
from .measures import LatticeCounting, MixedInteger, UniformPolytope

_REPLAY_TOL = 1e-12
_SEP_GRID = 720


@dataclass(frozen=True)
class AffinePiece:
    """One epigraph piece: t >= h . (y - x) - cum."""

    h: np.ndarray
    x: np.ndarray
    cum: float

    def value(self, y) -> float:
        return float(self.h @ (np.asarray(y, dtype=float) - self.x)) - self.cum


def _separating_direction(x, pts):
    """The unit u maximizing the margin min over ``pts`` of u . (x - p); None
    unless that margin exceeds 1e-9, so always when x lies in their hull.

    The best u is (x - q) / |x - q| for q the point of the hull nearest x,
    which is the projection of x onto the affine hull of at most dim + 1 of
    the points with nonnegative barycentric coordinates. Every such
    projection is a candidate; for the 8 extreme points the games pass in
    3D there are 162 subsets.
    """
    best_u, best_margin = None, 1e-9
    for k in range(1, min(len(pts), len(x) + 1) + 1):
        for idx in itertools.combinations(range(len(pts)), k):
            p0 = pts[idx[0]]
            A = (pts[list(idx[1:])] - p0).T
            lam = np.linalg.lstsq(A, x - p0, rcond=None)[0]
            if np.any(lam < -1e-12) or float(lam.sum()) > 1.0 + 1e-12:
                continue
            w = x - (p0 + A @ lam)
            nw = float(np.linalg.norm(w))
            if nw == 0.0:   # x is a point of the hull
                return None
            u = w / nw
            margin = float(np.min((x - pts) @ u))
            if margin > best_margin:
                best_u, best_margin = u, margin
    return best_u


@dataclass(frozen=True)
class _LogEntry:
    x: np.ndarray
    value: float
    h: np.ndarray


class _Game:
    kind = ""

    def __init__(self, E0: Box):
        self.E0 = E0
        self.pieces: list[AffinePiece] = []
        self.log: list[_LogEntry] = []
        self.cum = 0.0
        self.queries = 0              # piece-adding queries only
        self.eps_geom = 1e-6 * E0.diameter()

    # -- epigraph -----------------------------------------------------------
    def epigraph(self, y):
        """(max piece value, subgradient of a maximizing piece)."""
        best, bh = -math.inf, None
        for p in self.pieces:
            v = p.value(y)
            if v > best:
                best, bh = v, p.h
        return best, bh

    def _inside(self, x) -> bool:
        # strictly-better region {g < -cum}; no pieces yet means everywhere
        if not self.pieces:
            return True
        return self.epigraph(x)[0] < -self.cum

    # -- game hooks ---------------------------------------------------------
    def _direction(self, x) -> np.ndarray:
        raise NotImplementedError

    def _candidate_slack(self):
        return None

    def _next_xi(self, x) -> float:
        xi = self.eps_geom * 0.5 ** self.queries
        if self.pieces:
            xi = min(xi, 0.5 * (-self.cum - self.epigraph(x)[0]))
        cand = self._candidate_slack()
        if cand is not None:
            xi = min(xi, 0.25 * cand)
        return xi

    def _scaled(self, h_raw, x, cum_new) -> np.ndarray:
        """Scale the raw direction down until every past answer stays the max."""
        tau = 1.0
        for rec in self.log:
            dpos = float(h_raw @ (rec.x - x))
            if dpos > 0.0:
                gap = rec.value + cum_new   # > 0: answers only move down
                tau = min(tau, 0.999 * gap / dpos)
        return tau * h_raw


def adversary_query(st: _Game, x):
    """Answer one first-order query; mutates the game state."""
    x = np.array(x, dtype=float)
    if x.shape != (st.E0.dim,):
        raise ValueError("query dimension does not match the game region")
    if not bool(st.E0.contains_half_open(x[None])[0]):
        raise OutsideRegion("query left the game's starting region")
    for rec in st.log:
        if float(np.max(np.abs(rec.x - x))) <= _REPLAY_TOL:
            return rec.value, rec.h.copy()
    if not st._inside(x):
        value, h = st.epigraph(x)
        st.log.append(_LogEntry(x, value, h.copy()))
        return value, h.copy()
    xi = st._next_xi(x)
    cum_new = st.cum + xi
    h = st._scaled(st._direction(x), x, cum_new)
    st.pieces.append(AffinePiece(h, x.copy(), cum_new))
    st.cum = cum_new
    st.queries += 1
    value = -cum_new
    st.log.append(_LogEntry(x, value, h))
    return value, h.copy()


def is_consistent(st: _Game) -> bool:
    """Every recorded answer equals the final max-of-affines at its point,
    with the recorded subgradient attaining the max."""
    for rec in st.log:
        v, _h = st.epigraph(rec.x)
        if abs(v - rec.value) > 1e-9 * max(1.0, abs(rec.value)):
            return False
        attained = any(abs(p.value(rec.x) - v) <= 1e-9 * max(1.0, abs(v))
                       and np.array_equal(p.h, rec.h) for p in st.pieces)
        if not attained:
            return False
    return True


# ---------------------------------------------------------------------------
# continuous halving game

class ContinuousMedian(_Game):
    """2D uniform game: every cut keeps at least half the remaining area."""

    kind = "continuous_median"

    def __init__(self, E0: Box):
        if E0.dim != 2:
            raise ValueError("the continuous game is two-dimensional")
        super().__init__(E0)

    def _region(self):
        cuts = []
        for p in self.pieces:
            # keep side {h_j . (y - x_j) <= cum_j - cum}
            cuts.append(Halfspace.from_vector(
                -p.h, -(float(p.h @ p.x) + (p.cum - self.cum))))
        try:
            return UniformPolytope(self.E0.as_polytope()).restrict(cuts)
        except EmptyRegion:
            return None

    def _direction(self, x):
        m = self._region()
        if m is None:
            return np.array([1.0, 0.0])
        best_u, best_gap = np.array([1.0, 0.0]), math.inf
        for theta in np.linspace(0.0, 2.0 * math.pi, _SEP_GRID, endpoint=False):
            u = np.array([math.cos(theta), math.sin(theta)])
            removed = float(m.halfspace_mass(Halfspace.from_vector(u, float(u @ x))))
            if abs(removed - 0.5) < best_gap:
                best_gap = abs(removed - 0.5)
                best_u = u if removed <= 0.5 else -u
        return best_u


# ---------------------------------------------------------------------------
# lattice fiber game

class IntegerFiber(_Game):
    """Counting game on fibers {0..B-1} x {v}, v in {0,1}^(n-1).

    In-fiber cuts are thresholds on the fiber coordinate, tilted on the
    binary coordinates by +-(2B+1) so every other fiber keeps slack >= B+1.
    """

    kind = "integer_fiber"

    def __init__(self, n: int, B: int):
        if n < 1 or B < 1:
            raise ValueError("need n >= 1 and B >= 1")
        super().__init__(Box(np.zeros(n), np.array([B] + [2] * (n - 1), dtype=float)))
        self.n = n
        self.B = B

    def fiber_candidates(self) -> dict:
        """Per binary tail v, the range of k whose point (k, v) is strictly
        inside every piece's cut. k enters a piece's float value once, so
        the value is monotone along the fiber and the piece keeps a prefix
        (h_0 > 0), a suffix (h_0 < 0), or all or none (h_0 = 0) of it: one
        bisection per piece finds the same points a scan would."""
        out = {}
        for v in itertools.product((0, 1), repeat=self.n - 1):
            ks = range(self.B)
            for p in self.pieces:
                def cut(k, p=p, v=v):
                    return not p.value(np.array((k,) + v, dtype=float)) < -self.cum
                if p.h[0] > 0.0:
                    ks = ks[:bisect.bisect_left(ks, True, key=cut)]
                elif p.h[0] < 0.0:
                    ks = ks[bisect.bisect_left(ks, True, key=lambda k: not cut(k)):]
                elif ks and cut(ks[0]):
                    ks = ks[:0]
            out[v] = ks
        return out

    def _range_ends(self) -> np.ndarray:
        """The ends of the fiber ranges: the candidate hull's extreme points."""
        ends = sorted({(k,) + v for v, ks in self.fiber_candidates().items()
                       for k in ((ks[0], ks[-1]) if ks else ())})
        return np.array(ends, dtype=float).reshape(-1, self.n)

    def _candidate_slack(self):
        # each piece is monotone along a fiber, so its largest value over a
        # range sits at an end: the minimum slack over the ends is the
        # minimum over every candidate
        if not self.pieces:
            return None
        ends = self._range_ends()
        if len(ends) == 0:
            return None
        return min(-self.cum - self.epigraph(p)[0] for p in ends)

    def _tilt(self, v) -> np.ndarray:
        h = np.zeros(self.n)
        for m, vm in enumerate(v):
            h[1 + m] = (2 * self.B + 1) * (2 * vm - 1)
        return h

    def _direction(self, x):
        tail = x[1:]
        v = np.round(tail)
        if np.all((v == 0) | (v == 1)) and float(np.max(np.abs(tail - v), initial=0.0)) <= 1e-9:
            vt = tuple(int(t) for t in v)
            ks = self.fiber_candidates()[vt]
            q = x[0]
            # k < t exactly when k < ceil(t), and k > t when k > floor(t)
            below = len(range(ks.start, min(ks.stop, math.ceil(q - 1e-9))))
            above = len(range(max(ks.start, math.floor(q + 1e-9) + 1), ks.stop))
            s = -1.0 if above > below else 1.0   # keep the larger side; s=+1 keeps below
            h = self._tilt(vt)
            h[0] = s
            return h
        return self._separating(x)

    def _separating(self, x):
        ends = self._range_ends()
        if len(ends) == 0:
            e = np.zeros(self.n)
            e[0] = 1.0
            return e
        u = _separating_direction(x, ends)
        if u is not None:
            return u
        # x sits inside the candidate hull off every fiber: concede the
        # threshold cut that removes the fewest candidates
        pts = np.array([(k,) + v for v, ks in self.fiber_candidates().items()
                        for k in ks], dtype=float)
        options = []
        vt = tuple(int(min(max(round(t), 0), 1)) for t in x[1:])
        for s in (1.0, -1.0):
            h = self._tilt(vt)
            h[0] = s
            options.append(h)
        for m in range(self.n - 1):
            e = np.zeros(self.n)
            e[1 + m] = 1.0
            options += [e.copy(), -e]
        removed = [int(np.sum(pts @ h - float(h @ x) >= 0.0)) for h in options]
        return options[int(np.argmin(removed))]


# ---------------------------------------------------------------------------
# mixed fiber game

class MixedFiber(_Game):
    """Volume game on fibers {v} x [0,B)^d, v in {0,1}^n.

    In-fiber cuts are thresholds on one continuous axis with the same
    +-(2B+1) binary tilt, and off-fiber answers also have one continuous
    entry, so the per-fiber remaining regions stay boxes.
    """

    kind = "mixed_fiber"

    def __init__(self, n: int, d: int, B: int):
        if n < 1 or d < 1 or B < 1:
            raise ValueError("need n, d, B >= 1")
        super().__init__(Box(np.zeros(n + d),
                             np.array([2.0] * n + [float(B)] * d)))
        self.n = n
        self.d = d
        self.B = B

    def remaining_boxes(self) -> dict:
        """Per-fiber surviving box (lo, hi); only axis-aligned pieces shrink it."""
        out = {}
        for v in itertools.product((0, 1), repeat=self.n):
            va = np.asarray(v, dtype=float)
            lo = np.zeros(self.d)
            hi = np.full(self.d, float(self.B))
            alive = True
            for p in self.pieces:
                hy = p.h[self.n:]
                c0 = float(p.h[:self.n] @ (va - p.x[:self.n])) \
                    - float(hy @ p.x[self.n:]) - p.cum
                rhs = -self.cum - c0
                nz = np.flatnonzero(hy != 0.0)
                if len(nz) == 0:
                    if not 0.0 < rhs:
                        alive = False
                        break
                elif len(nz) == 1:
                    a = int(nz[0])
                    if hy[a] > 0:
                        hi[a] = min(hi[a], rhs / hy[a])
                    else:
                        lo[a] = max(lo[a], rhs / hy[a])
                # every piece has at most one nonzero continuous entry: the
                # in-fiber thresholds, and the off-fiber answers, which
                # separate in one (binary block, continuous axis) subspace
            if alive and np.all(hi - lo > 1e-12):
                out[v] = (lo, hi)
        return out

    def _corners(self, lo, hi):
        for bits in itertools.product((0, 1), repeat=self.d):
            yield np.where(np.asarray(bits, dtype=bool), hi, lo)

    def _candidate_slack(self):
        if not self.pieces:
            return None
        best = None
        for v, (lo, hi) in self.remaining_boxes().items():
            va = np.asarray(v, dtype=float)
            w = hi - lo
            # probe slightly inside each face so boundary corners do not
            # collapse the schedule to zero
            for c in self._corners(lo + 1e-6 * w, hi - 1e-6 * w):
                slack = -self.cum - self.epigraph(np.concatenate([va, c]))[0]
                if slack > 0 and (best is None or slack < best):
                    best = slack
        return best

    def _tilt(self, v) -> np.ndarray:
        h = np.zeros(self.n + self.d)
        for m, vm in enumerate(v):
            h[m] = (2 * self.B + 1) * (2 * vm - 1)
        return h

    def _direction(self, x):
        head = x[:self.n]
        v = np.round(head)
        boxes = self.remaining_boxes()
        vt = tuple(int(t) for t in v) if np.all((v == 0) | (v == 1)) else None
        if vt is not None and float(np.max(np.abs(head - v))) <= 1e-9 and vt in boxes:
            lo, hi = boxes[vt]
            y = x[self.n:]
            best_a, best_keep = 0, -1.0
            for a in range(self.d):
                w = hi[a] - lo[a]
                if w <= 1e-12:
                    continue
                keep = max(y[a] - lo[a], hi[a] - y[a]) / w
                if keep > best_keep:
                    best_keep, best_a = keep, a
            s = 1.0 if y[best_a] - lo[best_a] >= hi[best_a] - y[best_a] else -1.0
            h = self._tilt(vt)
            h[self.n + best_a] = s
            return h
        return self._separating(x, boxes)

    def _separating(self, x, boxes):
        if not boxes:
            e = np.zeros(self.n + self.d)
            e[0] = 1.0
            return e
        # separate in each (binary block, axis a) subspace, where every box
        # is the segment between its two faces on axis a, and keep the
        # largest margin: one continuous entry keeps the fiber regions boxes
        best_h, best_margin = None, -math.inf
        for a in range(self.d):
            sub = np.append(x[:self.n], x[self.n + a])
            pts = np.array([np.append(np.asarray(v, dtype=float), t)
                            for v, (lo, hi) in boxes.items() for t in (lo[a], hi[a])])
            u = _separating_direction(sub, pts)
            if u is None:
                continue
            margin = float(np.min((sub - pts) @ u))
            if margin > best_margin:
                best_h, best_margin = np.zeros(self.n + self.d), margin
                best_h[:self.n] = u[:self.n]
                best_h[self.n + a] = u[self.n]
        if best_h is not None:
            return best_h
        # concede: pure threshold on the continuous axis losing least volume
        best_h, best_lost = None, math.inf
        for a in range(self.d):
            for s in (1.0, -1.0):
                lost = 0.0
                for v, (lo, hi) in boxes.items():
                    w = hi - lo
                    cut = s * (hi[a] - x[self.n + a]) if s > 0 \
                        else (x[self.n + a] - lo[a])
                    frac = min(max(cut / w[a], 0.0), 1.0) if w[a] > 0 else 0.0
                    lost += frac * float(np.prod(w))
                if lost < best_lost:
                    h = np.zeros(self.n + self.d)
                    h[self.n + a] = s
                    best_h, best_lost = h, lost
        return best_h


# ---------------------------------------------------------------------------
# closed-form lower bounds

def lower_bound_value(kind: str, n: int = 0, d: int = 0, B: int = 0,
                      delta: float = 1.0, V: float = 0.0) -> int:
    """Minimum oracle calls forced by the named game, clamped at 0."""
    if kind == "continuous_median":
        if V <= 0 or delta <= 0 or V <= delta:
            return 0
        val = math.ceil(math.log2(V / delta) - 1e-9) - 1
    elif kind == "integer_fiber":
        val = 2 ** (n - 1) * (int(math.floor(math.log2(B) + 1e-9)) + 1)
    elif kind == "mixed_fiber":
        val = math.ceil(2 ** n * (math.log2(B ** d / delta) + n - 1) - 1e-9)
    else:
        raise ValueError(f"unknown adversary kind: {kind}")
    return max(0, int(val))


def lower_bound_for(st: _Game, delta: float) -> int:
    if isinstance(st, ContinuousMedian):
        V = float(np.prod(st.E0.upper - st.E0.lower))
        return lower_bound_value("continuous_median", delta=delta, V=V)
    if isinstance(st, IntegerFiber):
        return lower_bound_value("integer_fiber", n=st.n, B=st.B)
    if isinstance(st, MixedFiber):
        return lower_bound_value("mixed_fiber", n=st.n, d=st.d, B=st.B, delta=delta)
    raise TypeError(f"unknown game state: {st!r}")


# ---------------------------------------------------------------------------
# matching solver inputs

def game_measure(st: _Game):
    """The region measure the game is played against."""
    if isinstance(st, ContinuousMedian):
        return UniformPolytope(st.E0.as_polytope())
    if isinstance(st, IntegerFiber):
        return LatticeCounting(st.E0.as_polytope())
    if isinstance(st, MixedFiber):
        return MixedInteger(st.E0.as_polytope(), st.n, st.d)
    raise TypeError(f"unknown game state: {st!r}")


def game_constraint_set(st: _Game) -> ConstraintSet:
    if isinstance(st, ContinuousMedian):
        return ConstraintSet.continuous(2)
    if isinstance(st, IntegerFiber):
        return ConstraintSet.lattice(st.n)
    if isinstance(st, MixedFiber):
        return ConstraintSet.mixed(st.n, st.d)
    raise TypeError(f"unknown game state: {st!r}")
