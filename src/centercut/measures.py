"""Measure families over constrained supports.

Three families share one contract: exact halfspace mass in low dimension,
restriction by halfspace cuts with open-cut bookkeeping (so the mass of the
open region is what gets tracked), and deterministic seeded sampling. They
are counting measures (``FinitePointMass``, weighted points; a lattice
measure, ``LatticeCounting``, is the one with unit weights on a polytope's
lattice points), uniform measures on polytopes and mixed-integer fiber
measures. A constructor builds the uncut support; a restriction starts from
its parent and applies the new cuts alone, so a chain of them gives the
bits of one.

Masses handed back are plain floats, and every one is exact: the
low-dimensional geometry (interval clips, polygon clipping, volumes of
clipped 3D vertex sets) comes from :mod:`centercut.geom`, and no mass is
estimated from samples. Rejection sampling runs through one loop,
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
    region: tuple = ()        # cuts applied since the build, in order
    total_mass: float = 0.0   # unnormalized mass of support . region

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def halfspace_mass(self, h: Halfspace) -> float:
        raise NotImplementedError

    def restrict(self, cuts) -> "Measure":
        """A shallow copy cut by ``cuts``: the family's ``_cut`` updates its
        state by them alone and rebinds, never edits, the arrays it shares
        with this measure. Raises EmptyRegion when no mass is left."""
        cuts = tuple(cuts)
        child = object.__new__(type(self))   # cheaper than copy.copy
        child.__dict__.update(self.__dict__)
        child.region = self.region + cuts
        child._cut(cuts)
        child._check_nonempty()
        return child

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        raise NotImplementedError

    def _check_nonempty(self):
        if self.total_mass <= MASS_TOL:
            raise EmptyRegion(f"{self.family}: region mass is zero")


class FinitePointMass(Measure):
    """Finitely many weighted points; all masses are exact weight sums. A
    restriction keeps the points, with their weights, that every cut holds."""

    family = "finite_points"

    def __init__(self, points, weights=None):
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
        self.total_mass = float(w.sum())
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def active_points(self) -> np.ndarray:
        return self.points

    def active_weights(self) -> np.ndarray:
        return self.weights

    def halfspace_mass(self, h) -> float:
        v = float(self.weights[_cut_mask(self.points, (h,))].sum()) / self.total_mass
        return min(max(v, 0.0), 1.0)

    def _cut(self, cuts):
        kept = _cut_mask(self.points, cuts)
        self.points = self.points[kept]
        self.weights = self.weights[kept]
        self.total_mass = float(self.weights.sum())

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        gen = rng.generator()
        w = self.weights
        idx = gen.choice(len(self.points), size=count, p=w / w.sum())
        return self.points[idx]


class LatticeCounting(FinitePointMass):
    """Counting measure on the lattice points of a bounded polytope: the
    finite point mass of unit weight on them."""

    family = "lattice_counting"

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        super().__init__(geom.enumerate_lattice_points(polytope))

    # perfbench/spans.py wraps LatticeCounting.__dict__["__init__"] and
    # ["halfspace_mass"], so both stay on this class; the count equals the
    # inherited weight sum bit for bit.
    def halfspace_mass(self, h) -> float:
        return float(_cut_mask(self.points, (h,)).sum()) / self.total_mass

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        """Uniform draws by index, a different random stream from the
        weighted ``choice`` of finite point masses."""
        gen = rng.generator()
        return self.points[gen.integers(0, len(self.points), size=count)]


def _interval_from_halfspaces(items, lo=-math.inf, hi=math.inf) -> tuple[float, float]:
    """The interval [lo, hi] cut by scalar constraints ``a*y >= c`` with
    |a| > 1e-12; may be empty."""
    for a, c in items:
        if a > 0:
            lo = max(lo, c / a)
        else:
            hi = min(hi, c / a)
    return lo, hi


class UniformPolytope(Measure):
    """Uniform (Lebesgue) measure on a bounded polytope, exact in every
    dimension it supports: interval arithmetic in 1D, polygon clipping in
    2D, and in 3D ``geom.volume_centroid_3d`` of the region's vertices,
    with its centroid. Higher dimensions raise DimensionTooLarge. A
    restriction clips the parent's interval, vertex cycle or 3D vertex set
    by each new cut, keeping a 3D clip's hull vertices alone.
    """

    family = "uniform_polytope"

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        d = polytope.dim
        if d == 1:
            v = polytope.vertices().ravel()
            self._interval = (float(v.min()), float(v.max()))
        elif d == 2:
            self._verts = polytope.vertices()
        elif d == 3:
            self.total_mass, self._centroid, self._verts = geom.volume_centroid_3d(
                polytope.vertices())
        else:
            raise DimensionTooLarge(f"uniform measures support dimension <= 3, got {d}")
        self._cut(())
        self._check_nonempty()

    def _cut(self, cuts):
        d = self.polytope.dim
        if d == 1:
            lo, hi = self._interval = _interval_from_halfspaces(
                [(float(c.n[0]), c.offset) for c in cuts], *self._interval)
            self.total_mass = max(hi - lo, 0.0)
        elif d == 2:
            for c in cuts:
                self._verts = geom.clip_polygon_vertices(self._verts, c.n, c.offset)
            self.total_mass = abs(geom.shoelace_area(self._verts))
        else:
            for c in cuts:
                self.total_mass, self._centroid, self._verts = geom.volume_centroid_3d(
                    geom.clip_vertices_3d(self._verts, c.n, c.offset))

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def region_vertices(self) -> np.ndarray:
        """Vertices of support . region: a vertex cycle in 2D, the vertices
        of its convex hull in 3D."""
        if self.polytope.dim == 1:
            raise ValueError("region_vertices needs dimension 2 or 3")
        return self._verts

    def halfspace_mass(self, h) -> float:
        d = self.polytope.dim
        if d == 1:
            lo, hi = _interval_from_halfspaces([(float(h.n[0]), h.offset)], *self._interval)
            return min(max(max(hi - lo, 0.0) / self.total_mass, 0.0), 1.0)
        if d == 2:
            kept = abs(geom.shoelace_area(geom.clip_polygon_vertices(self._verts, h.n,
                                                                     h.offset)))
        else:
            kept = geom.volume_centroid_3d(geom.clip_vertices_3d(self._verts, h.n,
                                                                 h.offset))[0]
        return min(max(kept / self.total_mass, 0.0), 1.0)

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
    vertex enumeration, and with it the fiber build, stops. A restriction
    clips each live fiber's interval or polygon by the new cuts.
    """

    family = "mixed_integer"

    def __init__(self, polytope: Polytope, n: int, d: int):
        if n < 1 or d < 1:
            raise ValueError("mixed measure needs n >= 1 integer and d >= 1 continuous coords")
        if polytope.dim != n + d:
            raise ValueError("polytope dimension must equal n + d")
        if n + d > 3:
            raise DimensionTooLarge(f"mixed measures support n + d <= 3, got {n + d}")
        self.polytope = polytope
        self.n = n
        self.d = d
        self._slice(self._split_rows(polytope.constraints))
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.n + self.d

    def _split_rows(self, rows):
        """(head, tail, offset, closed, flat) for each halfspace of ``rows``:
        the normal's integer and continuous blocks, and whether the tail is
        numerically zero, decided once for every fiber."""
        return [(h.n[:self.n], h.n[self.n:], h.offset, h.closed,
                 np.linalg.norm(h.n[self.n:]) <= 1e-12) for h in rows]

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

    def _slice(self, cons, fibers=None):
        """Set ``fibers`` (z tuple, payload, volume) to the slices above
        MASS_TOL of ``fibers``, else of every integer block of the bounding
        box, by the rows ``cons``; BudgetExceeded when that grid is larger
        than ``geom.LATTICE_CAP``, before any slice."""
        if fibers is None:
            lo, hi = self.polytope.bounding_box()
            axes = geom.integer_axes(lo[:self.n], hi[:self.n], geom.LATTICE_CAP,
                                     "fiber grid of size {total} exceeds cap {cap}")
            fibers = ((z, None, None) for z in itertools.product(*axes))
        self.fibers = []
        for z, payload, _vol in fibers:
            sliced, feas = self._slice_constraints(np.asarray(z, dtype=float), cons)
            if feas:
                payload, vol = self._slice_geometry(sliced, payload)
                if vol > MASS_TOL:
                    self.fibers.append((z, payload, vol))
        self.total_mass = float(sum(f[2] for f in self.fibers))
        if self.d == 1:   # fiber arrays for halfspace_masses and the exact 2D depth engine
            self._z = np.array([z for z, _p, _v in self.fibers], dtype=float)
            self._lo, self._hi = np.reshape([p for _z, p, _v in self.fibers], (-1, 2)).T
            self._vol = np.array([v for _z, _p, v in self.fibers])

    def _cut(self, cuts):
        self._slice(self._split_rows(cuts), self.fibers)

    def _slice_geometry(self, sliced, payload=None):
        """(payload, volume) of one slice: ``payload``, an interval or a vertex
        cycle, clipped by its rows; with none (a build), the whole line or
        the canonical polygon of ``geom``'s basic solutions of the rows."""
        if self.d == 1:
            lo, hi = _interval_from_halfspaces([(float(t[0]), r) for t, r in sliced],
                                               *(payload or (-math.inf, math.inf)))
            return (lo, hi), max(hi - lo, 0.0)
        if payload is None:
            tails = np.array([t for t, _r in sliced], dtype=float).reshape(-1, 2)
            rhs = np.array([r for _t, r in sliced], dtype=float)
            pts, _ = geom._basic_solutions(
                tails, rhs, geom.EPS * max(1.0, float(np.max(np.abs(rhs), initial=0.0))))
            payload = geom.convex_hull_2d(pts) if len(pts) else np.zeros((0, 2))
        else:
            for tail, rhs in sliced:
                payload = geom.clip_polygon_vertices(payload, tail, rhs)
        return payload, abs(geom.shoelace_area(payload))

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

    def halfspace_mass(self, h) -> float:
        if self.d == 1:
            return float(self.halfspace_masses(h.n, [h.offset], h.closed)[0])
        cut = self._split_rows([h])
        kept = 0.0
        for z, verts, _vol in self.fibers:
            sliced, inside = self._slice_constraints(np.asarray(z, dtype=float), cut)
            if inside:   # a zero-tail cut keeps the whole polygon
                kept += self._slice_geometry(sliced, verts)[1]
        return min(max(kept / self.total_mass, 0.0), 1.0)

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

