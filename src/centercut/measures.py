"""Measure families over constrained supports.

Four families share one contract: exact halfspace mass in low dimension,
restriction by halfspace cuts with open-cut bookkeeping (so the mass of the
open region is what gets tracked), and deterministic seeded sampling.

Masses handed back are :class:`MassEstimate` values; the ``exact`` flag is
False exactly when a Monte Carlo path was used, in which case ``stderr``
carries the reported standard error.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import EmptyRegion, RejectionStall
from .geom import Box, Halfspace, Polytope

MASS_TOL = 1e-12          # zero-mass threshold for volume-backed families
MC_DEFAULT_SAMPLES = 20_000
_STALL_PROPOSALS = 1_000_000
_STALL_RATE = 1e-6


@dataclass(frozen=True)
class MassEstimate:
    """A mass value in [0, 1]; ``exact`` is False on Monte Carlo paths."""

    value: float
    exact: bool = True
    stderr: float = 0.0

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
    mask = np.ones(len(pts), dtype=bool)
    for c in cuts:
        mask &= c.contains(pts, tol)
    return mask


class Measure:
    """Common base: a support, a tuple of region cuts, a cached total mass."""

    family: str = ""

    def __init__(self, region=()):
        self.region = tuple(region)
        self.total_mass = 0.0   # unnormalized mass of support . region
        self.mass_exact = True
        self.mass_stderr = 0.0

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def halfspace_mass(self, h: Halfspace, rng: RngState | None = None,
                       mc_samples: int = MC_DEFAULT_SAMPLES) -> MassEstimate:
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

    def halfspace_mass(self, h, rng=None, mc_samples=MC_DEFAULT_SAMPLES) -> MassEstimate:
        mask = self._active & h.contains(self.points)
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
        """``_points`` is private to ``restrict``: the active points of a
        measure whose region ``region`` only adds cuts to, so a restriction
        filters them instead of enumerating the polytope again."""
        super().__init__(region)
        self.polytope = polytope
        if _points is None:
            _points = geom.enumerate_lattice_points(polytope).astype(float)
        self._points = _points[_cut_mask(_points, self.region)]
        self.total_mass = float(len(self._points))
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def active_points(self) -> np.ndarray:
        return self._points

    def active_weights(self) -> np.ndarray:
        return np.ones(len(self._points))

    def halfspace_mass(self, h, rng=None, mc_samples=MC_DEFAULT_SAMPLES) -> MassEstimate:
        inside = h.contains(self._points)
        return MassEstimate(float(inside.sum()) / self.total_mass)

    def restrict(self, cuts) -> "LatticeCounting":
        return LatticeCounting(self.polytope, self.region + tuple(cuts),
                               _points=self._points)

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
    """Uniform (Lebesgue) measure on a bounded polytope.

    Dimensions 1 and 2 are exact (interval arithmetic / polygon clipping);
    dimension >= 3 falls back to Monte Carlo with reported standard error.
    """

    family = "uniform_polytope"

    def __init__(self, polytope: Polytope, region=(), rng: RngState | None = None,
                 mc_samples: int = MC_DEFAULT_SAMPLES):
        super().__init__(region)
        self.polytope = polytope
        self.mass_exact = True
        self.mass_stderr = 0.0
        d = polytope.dim
        if d == 1:
            v = polytope.vertices().ravel()
            lo, hi = float(v.min()), float(v.max())
            for c in self.region:
                a = float(c.n[0])
                t = c.offset / a
                if a > 0:
                    lo = max(lo, t)
                else:
                    hi = min(hi, t)
            self._interval = (lo, hi)
            self.total_mass = max(hi - lo, 0.0)
        elif d == 2:
            verts = polytope.polygon()
            for c in self.region:
                verts = geom.clip_polygon_vertices(verts, c.n, c.offset)
            self._verts = verts
            self.total_mass = abs(geom.shoelace_area(verts))
        else:
            self.mass_exact = False
            lo, hi = polytope.bounding_box()
            self._bbox = (lo, hi)
            r = rng if rng is not None else RngState(0)
            gen = r.generator()
            pts = gen.uniform(lo, hi, size=(mc_samples, d))
            ok = polytope.contains(pts) & _cut_mask(pts, self.region)
            frac = float(ok.mean())
            boxvol = float(np.prod(hi - lo))
            self.total_mass = frac * boxvol
            self.mass_stderr = math.sqrt(frac * (1.0 - frac) / mc_samples) * boxvol
        self._check_nonempty()

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def region_vertices(self) -> np.ndarray:
        """Vertex cycle of support . region (2D only)."""
        if self.polytope.dim != 2:
            raise ValueError("region_vertices is 2D only")
        return self._verts

    def halfspace_mass(self, h, rng=None, mc_samples=MC_DEFAULT_SAMPLES) -> MassEstimate:
        d = self.polytope.dim
        if d == 1:
            lo, hi = self._interval
            a, c = float(h.n[0]), h.offset
            t = c / a
            if a > 0:
                kept = max(hi - max(lo, t), 0.0)
            else:
                kept = max(min(hi, t) - lo, 0.0)
            return MassEstimate(min(max(kept / self.total_mass, 0.0), 1.0))
        if d == 2:
            kept = geom.clip_polygon_vertices(self._verts, h.n, h.offset)
            v = abs(geom.shoelace_area(kept)) / self.total_mass
            return MassEstimate(min(max(v, 0.0), 1.0))
        r = rng if rng is not None else RngState(0)
        pts = self.sample(r, mc_samples)
        inside = h.contains(pts)
        p = float(inside.mean())
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_samples)
        return MassEstimate(p, exact=False, stderr=se)

    def restrict(self, cuts) -> "UniformPolytope":
        return UniformPolytope(self.polytope, self.region + tuple(cuts))

    def sample(self, rng: RngState, count: int) -> np.ndarray:
        gen = rng.generator()
        d = self.polytope.dim
        if d == 1:
            lo, hi = self._interval
            return (lo + gen.random(count) * (hi - lo)).reshape(-1, 1)
        if d == 2:
            if len(self._verts) < 3:
                raise EmptyRegion("degenerate region cannot be sampled")
            lo = self._verts.min(axis=0)
            hi = self._verts.max(axis=0)
        else:
            lo, hi = self._bbox
        out = []
        got, proposed = 0, 0
        while got < count:
            batch = max(count - got, 1024)
            pts = gen.uniform(lo, hi, size=(batch, d))
            ok = self.polytope.contains(pts) & _cut_mask(pts, self.region)
            acc = pts[ok]
            out.append(acc[:count - got])
            got += min(len(acc), count - got)
            proposed += batch
            if proposed >= _STALL_PROPOSALS and got / proposed < _STALL_RATE:
                raise RejectionStall("acceptance rate below 1e-6")
        return np.vstack(out)


class MixedInteger(Measure):
    """Fiber measure: integer first block, uniform volume on each slice.

    The mass of a set is the summed d-volume of its fiber slices. Slices are
    exact for d <= 2; d >= 3 uses per-fiber bounding-box Monte Carlo and
    flags results as estimates.
    """

    family = "mixed_integer"

    def __init__(self, polytope: Polytope, n: int, d: int, region=(),
                 rng: RngState | None = None, mc_samples: int = MC_DEFAULT_SAMPLES):
        super().__init__(region)
        if n < 1 or d < 1:
            raise ValueError("mixed measure needs n >= 1 integer and d >= 1 continuous coords")
        if polytope.dim != n + d:
            raise ValueError("polytope dimension must equal n + d")
        self.polytope = polytope
        self.n = n
        self.d = d
        self.mass_exact = d <= 2
        self._build_fibers(rng, mc_samples)
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
        cons = [(h.n, h.offset, True) for h in self.polytope.constraints]
        cons += [(c.n, c.offset, c.closed) for c in self.region]
        return cons

    def _slice_constraints(self, z: np.ndarray, cons):
        """Constraints restricted to the fiber at integer block ``z``.

        Returns (list of (tail, rhs), feasible). A constraint whose tail is
        numerically zero acts on the whole fiber: its openness decides
        whether an exactly-boundary fiber stays in.
        """
        out = []
        for nvec, off, closed in cons:
            head, tail = nvec[:self.n], nvec[self.n:]
            rhs = off - float(head @ z)
            if np.linalg.norm(tail) <= 1e-12:
                slack = -rhs
                ok = slack >= -geom.EPS if closed else slack > geom.EPS
                if not ok:
                    return None, False
            else:
                out.append((tail, rhs))
        return out, True

    def _build_fibers(self, rng, mc_samples):
        lo, hi = self.polytope.bounding_box()
        zlo = np.ceil(lo[:self.n] - geom.EPS).astype(int)
        zhi = np.floor(hi[:self.n] + geom.EPS).astype(int)
        cons = self._constraints()
        self.fibers = []  # (z tuple, payload, volume)
        self._mc = (rng if rng is not None else RngState(0), mc_samples)
        var = 0.0
        for z in itertools.product(*[range(zlo[i], zhi[i] + 1) for i in range(self.n)]):
            za = np.asarray(z, dtype=float)
            sliced, feas = self._slice_constraints(za, cons)
            if not feas:
                continue
            payload, vol, se = self._slice_geometry(sliced)
            var += se * se
            if vol > MASS_TOL:
                self.fibers.append((z, payload, vol))
        self.mass_stderr = math.sqrt(var)

    def _slice_geometry(self, sliced):
        if self.d == 1:
            lo, hi = _interval_from_halfspaces([(float(t[0]), r) for t, r in sliced])
            return (lo, hi), max(hi - lo, 0.0), 0.0
        if self.d == 2:
            verts = _verts_from_halfspaces_2d([(t, r) for t, r in sliced])
            return verts, abs(geom.shoelace_area(verts)), 0.0
        # d >= 3: bounding box Monte Carlo on the slice
        lo, hi = self.polytope.bounding_box()
        blo, bhi = lo[self.n:], hi[self.n:]
        rng, samples = self._mc
        gen = rng.generator()
        pts = gen.uniform(blo, bhi, size=(samples, self.d))
        ok = np.ones(samples, dtype=bool)
        for t, r in sliced:
            ok &= pts @ t >= r - geom.EPS
        frac = float(ok.mean())
        boxvol = float(np.prod(bhi - blo))
        se = math.sqrt(frac * (1.0 - frac) / samples) * boxvol
        return (tuple(blo), tuple(bhi), tuple((tuple(t), r) for t, r in sliced)), \
            frac * boxvol, se

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

    def halfspace_mass(self, h, rng=None, mc_samples=MC_DEFAULT_SAMPLES) -> MassEstimate:
        if self.d == 1:
            return MassEstimate(float(self.halfspace_masses(h.n, [h.offset], h.closed)[0]))
        head, tail = h.n[:self.n], h.n[self.n:]
        kept = 0.0
        exact = self.d <= 2
        for z, payload, vol in self.fibers:
            za = np.asarray(z, dtype=float)
            rhs = h.offset - float(head @ za)
            if np.linalg.norm(tail) <= 1e-12:
                slack = -rhs
                inside = slack >= -geom.EPS if h.closed else slack > geom.EPS
                if inside:
                    kept += vol
                continue
            if self.d == 2:
                cut = geom.clip_polygon_vertices(payload, tail, rhs)
                kept += abs(geom.shoelace_area(cut))
            else:
                exact = False
                blo, bhi, sliced = payload
                r = rng if rng is not None else RngState(0)
                gen = r.generator()
                pts = gen.uniform(blo, bhi, size=(mc_samples, self.d))
                ok = np.ones(mc_samples, dtype=bool)
                for t, rr in sliced:
                    ok &= pts @ np.asarray(t) >= rr - geom.EPS
                hit = ok & (pts @ tail >= rhs - geom.EPS)
                denom = max(float(ok.sum()), 1.0)
                kept += vol * float(hit.sum()) / denom
        v = min(max(kept / self.total_mass, 0.0), 1.0)
        if exact:
            return MassEstimate(v)
        se = math.sqrt(max(v * (1 - v), 1e-12) / mc_samples)
        return MassEstimate(v, exact=False, stderr=se)

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
            elif self.d == 2:
                out[rows, self.n:] = _sample_polygon(gen, payload, len(rows))
            else:
                blo, bhi, sliced = payload
                out[rows, self.n:] = _sample_slice_mc(gen, blo, bhi, sliced, len(rows))
        return out


def _verts_from_halfspaces_2d(items) -> np.ndarray:
    """Vertices of ``{y : t_i . y >= r_i}`` in the plane (bounded input)."""
    normals = [np.asarray(t, dtype=float) for t, _ in items]
    offsets = [float(r) for _, r in items]
    pts = []
    k = len(items)
    scale = max([abs(o) for o in offsets] + [1.0])
    for i in range(k):
        for j in range(i + 1, k):
            M = np.array([normals[i], normals[j]])
            if abs(np.linalg.det(M)) <= 1e-12:
                continue
            x = np.linalg.solve(M, np.array([offsets[i], offsets[j]]))
            ok = all(normals[t] @ x >= offsets[t] - geom.EPS * scale for t in range(k))
            if ok:
                pts.append(x)
    if not pts:
        return np.zeros((0, 2))
    return geom.convex_hull_2d(np.array(pts))


def _sample_polygon(gen, verts, count) -> np.ndarray:
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    out = []
    got, proposed = 0, 0
    while got < count:
        batch = max(count - got, 256)
        pts = gen.uniform(lo, hi, size=(batch, 2))
        ok = _points_in_polygon(pts, verts)
        acc = pts[ok][:count - got]
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


def _sample_slice_mc(gen, blo, bhi, sliced, count) -> np.ndarray:
    blo = np.asarray(blo)
    bhi = np.asarray(bhi)
    out = []
    got, proposed = 0, 0
    while got < count:
        batch = max(count - got, 256)
        pts = gen.uniform(blo, bhi, size=(batch, len(blo)))
        ok = np.ones(batch, dtype=bool)
        for t, r in sliced:
            ok &= pts @ np.asarray(t) >= r - geom.EPS
        acc = pts[ok][:count - got]
        out.append(acc)
        got += len(acc)
        proposed += batch
        if proposed >= _STALL_PROPOSALS and got / proposed < _STALL_RATE:
            raise RejectionStall("acceptance rate below 1e-6")
    return np.vstack(out)


# ---------------------------------------------------------------------------
# module-level operations

def halfspace_mass(m: Measure, h: Halfspace, rng: RngState | None = None,
                   mc_samples: int = MC_DEFAULT_SAMPLES) -> MassEstimate:
    """Normalized mass of ``h`` intersected with the measure's region."""
    return m.halfspace_mass(h, rng=rng, mc_samples=mc_samples)


def restrict(m: Measure, cuts) -> Measure:
    """New measure with extra region cuts; raises EmptyRegion at zero mass."""
    return m.restrict(tuple(cuts))


def sample(m: Measure, rng: RngState, count: int) -> np.ndarray:
    """Draw ``count`` points; deterministic in (seed, stream)."""
    return m.sample(rng, count)
