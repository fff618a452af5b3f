"""Measure families over constrained supports.

Four families share one contract: exact halfspace mass in low dimension,
restriction by halfspace cuts with open-cut bookkeeping (so the mass of the
open region is what gets tracked), and deterministic seeded sampling.

Masses handed back are :class:`MassEstimate` values, and every one is
exact: the low-dimensional geometry (interval clips, polygon clipping, 3D
volumes from vertex enumeration) comes from :mod:`centercut.geom`, and no
mass is estimated from samples. Rejection sampling runs through one loop,
``_rejection_sample``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import DimensionTooLarge, EmptyRegion, RejectionStall
from .geom import Halfspace, Polytope

MASS_TOL = 1e-12          # zero-mass threshold for volume-backed families
_STALL_PROPOSALS = 1_000_000
_STALL_RATE = 1e-6


@dataclass(frozen=True)
class MassEstimate:
    """A normalized mass in [0, 1], computed exactly."""

    value: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class RngState:
    """Deterministic RNG handle: same (seed, stream) reproduces all draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        mask = (1 << 64) - 1
        ss = np.random.SeedSequence(entropy=(self.seed & mask, self.stream & mask))
        return np.random.default_rng(ss)

    def child(self, i: int) -> "RngState":
        return RngState(self.seed, self.stream * 1_000_003 + i + 1)


def _cut_mask(pts: np.ndarray, cuts, tol: float = geom.EPS) -> np.ndarray:
    """Which rows of the 2D float array ``pts`` every cut contains, with
    ``Halfspace.contains``'s slack and tolerance."""
    mask = np.ones(len(pts), dtype=bool)
    for c in cuts:
        v = pts @ c.n - c.offset
        mask &= v >= -tol if c.closed else v > tol
    return mask


class Measure:
    """Common base: a support, a tuple of region cuts, a cached total mass."""

    family: str = ""

    def __init__(self, region=()):
        self.region = tuple(region)
        self.total_mass = 0.0   # unnormalized mass of support . region

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def halfspace_mass(self, h: Halfspace) -> MassEstimate:
        raise NotImplementedError

    def restrict(self, cuts) -> "Measure":
        raise NotImplementedError

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        raise NotImplementedError

    def _check_nonempty(self):
        if self.total_mass <= MASS_TOL:
            raise EmptyRegion(f"{self.family}: region mass is zero")


class FinitePointMass(Measure):
    """Finitely many weighted points; all masses are exact weight sums."""

    family = "finite_points"

    def __init__(self, points, weights=None, region=()):
        super().__init__(region)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if weights is None:
            w = np.ones(len(pts))
        else:
            w = np.asarray(weights, dtype=float)
        if len(w) != len(pts):
            raise ValueError("points and weights length mismatch")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        self.points = pts
        self.weights = w
        self._active = _cut_mask(pts, self.region)
        self.total_mass = float(w[self._active].sum())
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def active_points(self) -> np.ndarray:
        return self.points[self._active]

    def active_weights(self) -> np.ndarray:
        return self.weights[self._active]

    def halfspace_mass(self, h) -> MassEstimate:
        mask = self._active & _cut_mask(self.points, (h,))
        v = float(self.weights[mask].sum()) / self.total_mass
        return MassEstimate(min(max(v, 0.0), 1.0))

    def restrict(self, cuts) -> "FinitePointMass":
        return FinitePointMass(self.points, self.weights, self.region + tuple(cuts))

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        gen = rng.generator()
        pts = self.active_points()
        w = self.active_weights()
        idx = gen.choice(len(pts), size=count, p=w / w.sum())
        return pts[idx]


class LatticeCounting(Measure):
    """Counting measure on the lattice points of a bounded polytope."""

    family = "lattice_counting"

    def __init__(self, polytope: Polytope, region=(), *, _points=None):
        """``_points`` is private to ``restrict``: the lattice points of the
        polytope that already satisfy every cut of ``region``, so a
        restriction masks its parent's active points by the new cuts only,
        instead of enumerating the polytope again and applying every cut."""
        super().__init__(region)
        self.polytope = polytope
        if _points is None:
            _points = geom.enumerate_lattice_points(polytope).astype(float)
            _points = _points[_cut_mask(_points, self.region)]
        self._points = _points
        self.total_mass = float(len(self._points))
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def active_points(self) -> np.ndarray:
        return self._points

    def active_weights(self) -> np.ndarray:
        return np.ones(len(self._points))

    def halfspace_mass(self, h) -> MassEstimate:
        inside = _cut_mask(self._points, (h,))
        return MassEstimate(float(inside.sum()) / self.total_mass)

    def restrict(self, cuts) -> "LatticeCounting":
        cuts = tuple(cuts)
        return LatticeCounting(self.polytope, self.region + cuts,
                               _points=self._points[_cut_mask(self._points, cuts)])

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        gen = rng.generator()
        idx = gen.integers(0, len(self._points), size=count)
        return self._points[idx]


def _interval_from_halfspaces(items) -> tuple[float, float]:
    """1D feasible interval for scalar constraints ``a*y >= c``; may be empty."""
    lo, hi = -math.inf, math.inf
    for a, c in items:
        if a > 1e-12:
            lo = max(lo, c / a)
        elif a < -1e-12:
            hi = min(hi, c / a)
        elif c > geom.EPS:
            return (0.0, -1.0)  # infeasible
    return lo, hi


class UniformPolytope(Measure):
    """Uniform (Lebesgue) measure on a bounded polytope, exact in every
    dimension it supports: interval arithmetic in 1D, polygon clipping in
    2D, and in 3D ``geom.volume_centroid_3d`` on the polytope's rows plus
    the region's, which also gives the region's vertices and centroid.
    Higher dimensions raise DimensionTooLarge.
    """

    family = "uniform_polytope"

    def __init__(self, polytope: Polytope, region=()):
        super().__init__(region)
        self.polytope = polytope
        d = polytope.dim
        if d == 1:
            v = polytope.vertices().ravel()
            lo, hi = _interval_from_halfspaces(
                [(1.0, float(v.min())), (-1.0, -float(v.max()))]
                + [(float(c.n[0]), c.offset) for c in self.region])
            self._interval = (lo, hi)
            self.total_mass = max(hi - lo, 0.0)
        elif d == 2:
            verts = polytope.polygon()
            for c in self.region:
                verts = geom.clip_polygon_vertices(verts, c.n, c.offset)
            self._verts = verts
            self.total_mass = abs(geom.shoelace_area(verts))
        elif d == 3:
            rows = polytope.constraints + self.region
            self._A = np.array([h.n for h in rows])
            self._b = np.array([h.offset for h in rows])
            self.total_mass, self._centroid, self._verts = geom.volume_centroid_3d(
                self._A, self._b)
        else:
            raise DimensionTooLarge(f"uniform measures support dimension <= 3, got {d}")
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def region_vertices(self) -> np.ndarray:
        """Vertices of support . region: a vertex cycle in 2D, the vertices
        of its convex hull in 3D."""
        if self.polytope.dim == 1:
            raise ValueError("region_vertices needs dimension 2 or 3")
        return self._verts

    def halfspace_mass(self, h) -> MassEstimate:
        d = self.polytope.dim
        if d == 1:
            lo, hi = self._interval
            lo, hi = _interval_from_halfspaces([(1.0, lo), (-1.0, -hi),
                                                (float(h.n[0]), h.offset)])
            return MassEstimate(min(max(max(hi - lo, 0.0) / self.total_mass, 0.0), 1.0))
        if d == 2:
            kept = abs(geom.shoelace_area(geom.clip_polygon_vertices(self._verts, h.n,
                                                                     h.offset)))
        else:
            kept = geom.volume_centroid_3d(np.vstack([self._A, h.n]),
                                           np.append(self._b, h.offset))[0]
        return MassEstimate(min(max(kept / self.total_mass, 0.0), 1.0))

    def restrict(self, cuts) -> "UniformPolytope":
        return UniformPolytope(self.polytope, self.region + tuple(cuts))

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        """Rejection draws from the bounding box of the region's vertices;
        the interval itself in 1D."""
        gen = rng.generator()
        if self.polytope.dim == 1:
            lo, hi = self._interval
            return (lo + gen.random(count) * (hi - lo)).reshape(-1, 1)
        verts = self.region_vertices()
        return _rejection_sample(
            gen, verts.min(axis=0), verts.max(axis=0), count, 1024,
            lambda pts: self.polytope.contains(pts) & _cut_mask(pts, self.region))


class MixedInteger(Measure):
    """Fiber measure: integer first block, uniform volume on each slice.

    The mass of a set is the summed d-volume of its fiber slices. Every
    slice is a polytope of dimension d <= 2, an interval or a polygon from
    ``geom``'s vertex enumeration, so every mass is exact; there are no
    Monte Carlo slices. Raises DimensionTooLarge when n + d > 3, where
    vertex enumeration, and with it the fiber build, stops.
    """

    family = "mixed_integer"

    def __init__(self, polytope: Polytope, n: int, d: int, region=()):
        super().__init__(region)
        if n < 1 or d < 1:
            raise ValueError("mixed measure needs n >= 1 integer and d >= 1 continuous coords")
        if polytope.dim != n + d:
            raise ValueError("polytope dimension must equal n + d")
        if n + d > 3:
            raise DimensionTooLarge(f"mixed measures support n + d <= 3, got {n + d}")
        self.polytope = polytope
        self.n = n
        self.d = d
        self._build_fibers()
        self.total_mass = float(sum(f[2] for f in self.fibers))
        self._check_nonempty()
        if d == 1:   # fiber arrays for halfspace_masses and the exact 2D depth engine
            self._z = np.array([z for z, _p, _v in self.fibers], dtype=float)
            self._lo, self._hi = np.array([p for _z, p, _v in self.fibers], dtype=float).T
            self._vol = np.array([v for _z, _p, v in self.fibers])

    @property
    def dim(self) -> int:
        return self.n + self.d

    def _constraints(self):
        """The polytope's facets and the region's cuts, split for slicing:
        see ``_split_rows``."""
        return self._split_rows([(h.n, h.offset, True) for h in self.polytope.constraints]
                                + [(c.n, c.offset, c.closed) for c in self.region])

    def _split_rows(self, rows):
        """(head, tail, offset, closed, flat) for each (normal, offset,
        closed) row: the normal's integer and continuous blocks, and whether
        the tail is numerically zero, decided once for every fiber."""
        return [(nvec[:self.n], nvec[self.n:], off, closed,
                 np.linalg.norm(nvec[self.n:]) <= 1e-12) for nvec, off, closed in rows]

    def _slice_constraints(self, z: np.ndarray, cons):
        """Constraints ``cons`` (from ``_split_rows``) restricted to the
        fiber at integer block ``z``.

        Returns (list of (tail, rhs), feasible). A constraint whose tail is
        numerically zero acts on the whole fiber: its openness decides
        whether an exactly-boundary fiber stays in.
        """
        out = []
        for head, tail, off, closed, flat in cons:
            rhs = off - float(head @ z)
            if flat:
                slack = -rhs
                ok = slack >= -geom.EPS if closed else slack > geom.EPS
                if not ok:
                    return None, False
            else:
                out.append((tail, rhs))
        return out, True

    def _build_fibers(self):
        lo, hi = self.polytope.bounding_box()
        zlo = np.ceil(lo[:self.n] - geom.EPS).astype(int)
        zhi = np.floor(hi[:self.n] + geom.EPS).astype(int)
        cons = self._constraints()
        self.fibers = []  # (z tuple, payload, volume)
        for z in itertools.product(*[range(zlo[i], zhi[i] + 1) for i in range(self.n)]):
            sliced, feas = self._slice_constraints(np.asarray(z, dtype=float), cons)
            if not feas:
                continue
            payload, vol = self._slice_geometry(sliced)
            if vol > MASS_TOL:
                self.fibers.append((z, payload, vol))

    def _slice_geometry(self, sliced):
        """(payload, volume) of one slice: an interval for d = 1, the
        canonical polygon of ``geom``'s basic solutions for d = 2."""
        if self.d == 1:
            lo, hi = _interval_from_halfspaces([(float(t[0]), r) for t, r in sliced])
            return (lo, hi), max(hi - lo, 0.0)
        tails = np.array([t for t, _r in sliced], dtype=float).reshape(-1, 2)
        rhs = np.array([r for _t, r in sliced], dtype=float)
        pts, _ = geom._basic_solutions(
            tails, rhs, geom.EPS * max(1.0, float(np.max(np.abs(rhs), initial=0.0))))
        verts = geom.convex_hull_2d(pts) if len(pts) else np.zeros((0, 2))
        return verts, abs(geom.shoelace_area(verts))

    def fiber_slices(self):
        """List of (integer block tuple, payload, volume)."""
        return list(self.fibers)

    def halfspace_masses(self, normals, offsets, closed: bool = True) -> np.ndarray:
        """Normalized masses of the halfspaces ``{y : normals[i] . y >= offsets[i]}``
        (unit normals) for d = 1, all rows in one pass over (rows x fibers).

        Each fiber keeps the part of its interval on the kept side; a row
        whose continuous entry is numerically zero keeps or drops whole
        fibers, and its openness decides a fiber exactly on the boundary.
        Fibers are summed one by one in fiber order, so a row's value does
        not depend on the other rows.
        """
        if self.d != 1:
            raise ValueError("halfspace_masses needs d = 1")
        N = np.atleast_2d(np.asarray(normals, dtype=float))
        a = N[:, self.n]
        rhs = np.asarray(offsets, dtype=float)[:, None] - geom.row_dots(
            N[:, None, :self.n], self._z[None, :, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = rhs / a[:, None]
            kept = np.where(a[:, None] > 0,
                            np.maximum(self._hi - np.maximum(self._lo, t), 0.0),
                            np.maximum(np.minimum(self._hi, t) - self._lo, 0.0))
        whole = np.sqrt(a * a) <= 1e-12   # np.linalg.norm of the one-entry tail
        if whole.any():
            slack = -rhs[whole]
            inside = slack >= -geom.EPS if closed else slack > geom.EPS
            kept[whole] = np.where(inside, self._vol, 0.0)
        kept = np.cumsum(kept, axis=1)[:, -1]   # sequential, unlike sum()
        return np.minimum(np.maximum(kept / self.total_mass, 0.0), 1.0)

    def halfspace_mass(self, h) -> MassEstimate:
        if self.d == 1:
            return MassEstimate(float(self.halfspace_masses(h.n, [h.offset], h.closed)[0]))
        cut = self._split_rows([(h.n, h.offset, h.closed)])
        kept = 0.0
        for z, verts, vol in self.fibers:
            sliced, inside = self._slice_constraints(np.asarray(z, dtype=float), cut)
            if not inside:
                continue
            if not sliced:   # a zero-tail cut keeps the whole fiber
                kept += vol
                continue
            tail, rhs = sliced[0]
            kept += abs(geom.shoelace_area(geom.clip_polygon_vertices(verts, tail, rhs)))
        return MassEstimate(min(max(kept / self.total_mass, 0.0), 1.0))

    def restrict(self, cuts) -> "MixedInteger":
        return MixedInteger(self.polytope, self.n, self.d, self.region + tuple(cuts))

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        gen = rng.generator()
        vols = np.array([f[2] for f in self.fibers])
        cum = np.cumsum(vols / vols.sum())
        picks = np.searchsorted(cum, gen.random(count), side="right")
        picks = np.minimum(picks, len(self.fibers) - 1)
        out = np.zeros((count, self.dim))
        for fi in np.unique(picks):
            rows = np.where(picks == fi)[0]
            z, payload, _vol = self.fibers[fi]
            out[rows, :self.n] = np.asarray(z, dtype=float)
            if self.d == 1:
                lo, hi = payload
                out[rows, self.n] = lo + gen.random(len(rows)) * (hi - lo)
            else:
                out[rows, self.n:] = _rejection_sample(
                    gen, payload.min(axis=0), payload.max(axis=0), len(rows), 256,
                    lambda pts: _points_in_polygon(pts, payload))
        return out


def _rejection_sample(gen, lo, hi, count, min_batch, accept) -> np.ndarray:
    """``count`` points of the box ``[lo, hi]`` that pass ``accept``.

    Draws batches of ``max(count - got, min_batch)`` uniform points and keeps
    the accepted ones in draw order; raises RejectionStall once a million
    proposals keep fewer than one in 1e6.
    """
    out = []
    got, proposed = 0, 0
    while got < count:
        batch = max(count - got, min_batch)
        pts = gen.uniform(lo, hi, size=(batch, len(lo)))
        acc = pts[accept(pts)][:count - got]
        out.append(acc)
        got += len(acc)
        proposed += batch
        if proposed >= _STALL_PROPOSALS and got / proposed < _STALL_RATE:
            raise RejectionStall("acceptance rate below 1e-6")
    return np.vstack(out)


def _points_in_polygon(pts, verts) -> np.ndarray:
    ok = np.ones(len(pts), dtype=bool)
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        d = q - p
        n = np.array([-d[1], d[0]])
        ok &= (pts - p) @ n >= -geom.EPS
    return ok


# ---------------------------------------------------------------------------
# module-level operations

def halfspace_mass(m: Measure, h: Halfspace) -> MassEstimate:
    """Normalized mass of ``h`` intersected with the measure's region."""
    return m.halfspace_mass(h)


def restrict(m: Measure, cuts) -> Measure:
    """New measure with extra region cuts; raises EmptyRegion at zero mass."""
    return m.restrict(tuple(cuts))


def sample(m: Measure, rng: RngState, count: int) -> np.ndarray:
    """Draw ``count`` points; deterministic in (seed, stream)."""
    return m.sample(rng, count)
