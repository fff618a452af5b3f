"""Low-dimensional convex geometry kernel.

Directions, halfspaces and H-representation polytopes, plus the handful of
exact primitives everything else is built on: polygon clipping, planar convex
hulls, signed areas and centroids, batched brute-force vertex enumeration
(dimension <= 3), 3D volumes and centroids from it, bounded lattice point
enumeration, and 2D lattice width.

Halfspaces are written ``{y : normal . y >= offset}`` with a unit normal.
Serialized constraint rows use the opposite convention ``a . x <= b`` (one
row ``[a_1, ..., a_n, b]``), which :meth:`Polytope.from_rows` converts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import BudgetExceeded, DimensionTooLarge, Infeasible, Unbounded

EPS = 1e-9          # vertex dedup / membership tolerance
UNIT_TOL = 1e-12    # unit-norm tolerance for directions
LATTICE_CAP = 10_000_000  # default lattice enumeration budget


def _vector(x, dim: Optional[int] = None) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("expected a 1-D coordinate vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    if dim is not None and a.size != dim:
        raise ValueError(f"expected dimension {dim}, got {a.size}")
    return a


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call. Only LP
    feasibility checks use it, and neither centerpoint queries nor solves on
    validated polytopes make one, so ``import centercut`` leaves
    ``scipy.optimize`` (most of its import time and memory) unloaded. Every
    LP goes through this module-level name, so a profiler can wrap it."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def row_dots(a, b) -> np.ndarray:
    """Dot products along the last axis: ``a[i] @ b[i]`` for every index i
    of the broadcast leading axes.

    Each entry is rounded exactly as the 1-D product ``a[i] @ b[i]`` is:
    numpy's matmul runs one BLAS dot per (1 x k)(k x 1) product, while an
    axis-wise sum or a matrix-vector product can round differently in the
    last ulp.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Direction:
    """A unit vector of R^n (norm within 1e-12 of 1)."""

    coords: np.ndarray

    def __post_init__(self):
        a = _vector(self.coords)
        if abs(float(np.linalg.norm(a)) - 1.0) > UNIT_TOL:
            raise ValueError("direction is not unit length")
        object.__setattr__(self, "coords", a)

    @classmethod
    def from_vector(cls, v) -> "Direction":
        return cls._normalized(_vector(v))[0]

    @classmethod
    def _normalized(cls, a: np.ndarray) -> tuple["Direction", float]:
        """``(a / |a|, |a|)`` for a finite 1-D vector ``a``, with one norm,
        sqrt(a . a), the sum ``np.linalg.norm`` takes for a real vector. A
        finite norm makes the quotient unit length to a few ulp, so only an
        overflowing one runs the unit check, which rejects it."""
        n = math.sqrt(a.dot(a))
        if n <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        if n == math.inf:
            return cls(a / n), n
        d = object.__new__(cls)
        object.__setattr__(d, "coords", a / n)
        return d, n

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class Halfspace:
    """``{y : normal . y >= offset}``, closed or open (strict)."""

    normal: Direction
    offset: float
    closed: bool = True

    @classmethod
    def from_vector(cls, normal, offset: float, closed: bool = True) -> "Halfspace":
        d, scale = Direction._normalized(_vector(normal))
        return cls(d, float(offset) / scale, closed)

    @property
    def n(self) -> np.ndarray:
        return self.normal.coords

    @property
    def dim(self) -> int:
        return self.normal.dim

    def value(self, pts) -> np.ndarray:
        """Signed slack ``normal . y - offset`` for each row of ``pts``."""
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        return p @ self.n - self.offset

    def contains(self, pts) -> np.ndarray:
        v = self.value(pts)
        if self.closed:
            return v >= -EPS
        return v > EPS

    def complement(self) -> "Halfspace":
        """The complementary halfspace (closedness flips)."""
        return Halfspace(Direction(-self.n), -self.offset, not self.closed)

    def as_closed(self) -> "Halfspace":
        return self if self.closed else Halfspace(self.normal, self.offset, True)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; used half-open ``[lower, upper)`` as a start region."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lower)
        hi = _vector(self.upper, lo.size)
        if np.any(hi < lo):
            raise ValueError("box upper bound below lower bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def half_open_cuts(self) -> list[Halfspace]:
        """Halfspace list for ``lower <= y < upper``."""
        cuts = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            cuts.append(Halfspace(Direction(e.copy()), float(self.lower[i]), True))
            cuts.append(Halfspace(Direction(-e), -float(self.upper[i]), False))
        return cuts

    def as_polytope(self) -> "Polytope":
        """The closed box. It needs no validation: lower <= upper makes it a
        nonempty bounded polytope, so no LP runs in any dimension."""
        return Polytope.from_halfspaces([c.as_closed() for c in self.half_open_cuts()],
                                        validate=False)

    def contains_half_open(self, pts) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        ok_lo = np.all(p >= self.lower - EPS, axis=1)
        ok_hi = np.all(p < self.upper - EPS, axis=1)
        return ok_lo & ok_hi

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


def _lp_feasible_bounded(constraints: Sequence[Halfspace], dim: int) -> None:
    """Raise Infeasible / Unbounded for the closed system ``n_i . y >= c_i``."""
    if not constraints:
        raise Unbounded("no constraints: whole space")
    A_ub = np.array([-h.n for h in constraints])
    b_ub = np.array([-h.offset for h in constraints])
    base = linprog(np.zeros(dim), A_ub=A_ub, b_ub=b_ub,
                   bounds=[(None, None)] * dim, method="highs")
    if base.status == 2:
        raise Infeasible("constraint system has no feasible point")
    for j in range(dim):
        c = np.zeros(dim)
        c[j] = -1.0
        for sign in (1.0, -1.0):
            r = linprog(sign * c, A_ub=A_ub, b_ub=b_ub,
                        bounds=[(None, None)] * dim, method="highs")
            if r.status == 3:
                raise Unbounded(f"coordinate {j} is unbounded")
            if r.status == 2:
                raise Infeasible("constraint system has no feasible point")


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    if len(rows) == 0:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


@dataclass(frozen=True)
class Polytope:
    """Bounded H-representation polytope (all constraints closed)."""

    dim: int
    constraints: tuple[Halfspace, ...]
    cached_vertices: Optional[np.ndarray] = None

    @classmethod
    def from_halfspaces(cls, constraints: Iterable[Halfspace], validate: bool = True,
                        vertices: Optional[np.ndarray] = None) -> "Polytope":
        """Polytope of the closed constraints.

        ``validate`` raises Infeasible or Unbounded for a system that is not
        a nonempty bounded polytope. In dimensions <= 3 without given
        ``vertices`` it does so by enumerating the vertices, which are
        cached for ``vertices()`` and run the 2*dim+1 LP check only when
        they do not prove the polytope themselves (``enumerate_vertices``);
        otherwise it runs the LP check alone.
        """
        cs = tuple(h.as_closed() for h in constraints)
        if not cs:
            raise ValueError("a polytope needs at least one constraint")
        dim = cs[0].dim
        if any(h.dim != dim for h in cs):
            raise ValueError("mixed constraint dimensions")
        verts = None if vertices is None else np.asarray(vertices, dtype=float)
        poly = cls(dim, cs, verts)
        if validate:
            if dim <= 3 and verts is None:
                poly.vertices()   # validates and caches the vertices
            else:
                _lp_feasible_bounded(cs, dim)
        return poly

    @classmethod
    def from_rows(cls, rows, validate: bool = True) -> "Polytope":
        """Rows ``[a_1, ..., a_n, b]`` each meaning ``a . x <= b``."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("constraint rows must be [a..., b] with n >= 1")
        hs = []
        for row in arr:
            a, b = row[:-1], row[-1]
            if np.linalg.norm(a) <= 0:
                raise ValueError("zero normal in constraint row")
            # a.x <= b  <=>  (-a).x >= -b
            hs.append(Halfspace.from_vector(-a, -b, closed=True))
        return cls.from_halfspaces(hs, validate=validate)

    @classmethod
    def from_box(cls, lower, upper) -> "Polytope":
        lo, hi = _vector(lower), _vector(upper)
        hs = []
        for i in range(lo.size):
            e = np.zeros(lo.size)
            e[i] = 1.0
            hs.append(Halfspace(Direction(e.copy()), float(lo[i])))
            hs.append(Halfspace(Direction(-e), -float(hi[i])))
        return cls.from_halfspaces(hs, validate=False)

    @classmethod
    def from_vertices_2d(cls, verts) -> "Polytope":
        """Build a 2D polytope from a convex vertex list (canonicalized)."""
        v = np.atleast_2d(np.asarray(verts, dtype=float)).reshape(-1, 2)
        v = canonical_polygon(v)
        constraints: list[Halfspace] = []
        if len(v) >= 3 and abs(shoelace_area(v)) > 0.0:
            for i in range(len(v)):
                p, q = v[i], v[(i + 1) % len(v)]
                d = q - p
                n = np.array([-d[1], d[0]])  # inward for CCW order
                constraints.append(Halfspace.from_vector(n, float(n @ p)))
        else:
            # degenerate polygon (point / segment / empty): box the hull
            if len(v) == 0:
                # canonical empty polytope
                e = np.array([1.0, 0.0])
                constraints = [Halfspace(Direction(e.copy()), 1.0),
                               Halfspace(Direction(-e), 0.0)]
            else:
                lo, hi = v.min(axis=0), v.max(axis=0)
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = 1.0
                    constraints.append(Halfspace(Direction(e.copy()), float(lo[i])))
                    constraints.append(Halfspace(Direction(-e.copy()), -float(hi[i])))
                if len(v) == 2:
                    d = v[1] - v[0]
                    n = np.array([-d[1], d[0]])
                    nn = float(np.linalg.norm(n))
                    if nn > 0:
                        c = float(n @ v[0]) / nn
                        constraints.append(Halfspace.from_vector(n, c * nn))
                        constraints.append(Halfspace.from_vector(-n, -c * nn))
        return cls.from_halfspaces(constraints, validate=False, vertices=v)

    def contains(self, pts) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = np.ones(len(p), dtype=bool)
        for h in self.constraints:
            ok &= h.contains(p)
        return ok

    def vertices(self) -> np.ndarray:
        if self.cached_vertices is not None:
            return self.cached_vertices
        verts = enumerate_vertices(self)
        if self.dim == 2 and len(verts) >= 3:
            # enumeration returns lex order; the hull rebuilds the cycle
            verts = _vertex_cycle(verts)
        object.__setattr__(self, "cached_vertices", verts)
        return verts

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.vertices()
        if len(v) == 0:
            raise Infeasible("empty polytope has no bounding box")
        return v.min(axis=0), v.max(axis=0)


# ---------------------------------------------------------------------------
# polygon primitives (raw vertex arrays, CCW order)

def shoelace_area(verts: np.ndarray) -> float:
    """Signed area of a vertex cycle; positive for CCW order."""
    v = np.asarray(verts, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(verts: np.ndarray) -> np.ndarray:
    """Centroid of a vertex cycle of nonzero area: the area-weighted mean of
    the triangles fanned from its first vertex."""
    p0 = verts[0]
    acc = np.zeros(2)
    area = 0.0
    for i in range(1, len(verts) - 1):
        a = shoelace_area(np.array([p0, verts[i], verts[i + 1]]))
        acc += a * (p0 + verts[i] + verts[i + 1]) / 3.0
        area += a
    return acc / area


def nearest_point_in_polygon(verts: np.ndarray, p) -> np.ndarray:
    """The point of a convex CCW vertex cycle nearest to ``p``: ``p`` itself
    when no edge has it strictly outside, otherwise the nearest of the
    edges' nearest points."""
    v = np.asarray(verts, dtype=float)
    p = np.asarray(p, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    rel = p - v
    if np.all(e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0] >= 0.0):
        return p.copy()
    t = np.clip(row_dots(rel, e) / row_dots(e, e), 0.0, 1.0)
    near = v + t[:, None] * e
    return near[int(np.argmin(np.hypot(near[:, 0] - p[0], near[:, 1] - p[1])))]


def canonical_polygon(verts: np.ndarray, tol: float = EPS) -> np.ndarray:
    """Dedupe, orient CCW, and start at the lexicographically smallest vertex."""
    v = np.atleast_2d(np.asarray(verts, dtype=float)).reshape(-1, 2)
    if len(v) == 0:
        return v
    keep = [v[0]]
    for p in v[1:]:
        if np.linalg.norm(p - keep[-1]) > tol:
            keep.append(p)
    while len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= tol:
        keep.pop()
    v = np.array(keep)
    if len(v) >= 3:
        if shoelace_area(v) < 0:
            v = v[::-1]
        if abs(shoelace_area(v)) <= tol * tol:
            # collapse collinear chains to their extreme points
            order = np.lexsort((v[:, 1], v[:, 0]))
            v = np.array([v[order[0]], v[order[-1]]])
            if np.linalg.norm(v[0] - v[1]) <= tol:
                v = v[:1]
    start = int(np.lexsort((v[:, 1], v[:, 0]))[0])
    return np.roll(v, -start, axis=0)


def convex_hull_2d(pts) -> np.ndarray:
    """Convex hull of planar points in canonical form (Andrew's monotone
    chain). Duplicate and collinear points are allowed and dropped, so a
    degenerate input gives a segment's two ends or a single point."""
    p = np.unique(np.atleast_2d(np.asarray(pts, dtype=float)).reshape(-1, 2), axis=0)
    if len(p) <= 2:
        return canonical_polygon(p)
    return canonical_polygon(p[_hull_cycle(p)])


def _hull_cycle(p) -> list[int]:
    """Row indices of the hull of lexicographically sorted distinct points,
    counterclockwise from the first (Andrew's monotone chain); a point on
    the line of its neighbours on the hull is dropped. The turn tests run
    on Python floats, which round as numpy's float64 scalars do."""
    xy = p.tolist()

    def chain(seq):
        out = []
        for k in seq:
            qx, qy = xy[k]
            while len(out) >= 2:
                (ox, oy), (px, py) = xy[out[-2]], xy[out[-1]]
                if (px - ox) * (qy - oy) - (py - oy) * (qx - ox) > 0:
                    break
                out.pop()
            out.append(k)
        return out[:-1]

    return chain(range(len(xy))) + chain(range(len(xy) - 1, -1, -1))


def _vertex_cycle(verts) -> np.ndarray:
    """``convex_hull_2d`` of the vertices ``enumerate_vertices`` returns.
    They are sorted lexicographically and lie pairwise more than EPS apart,
    so ``np.unique`` would keep them as they are. ``canonical_polygon``
    keeps the hull cycle as it is when every edge is longer than EPS, by
    the norm it takes, and the area exceeds EPS**2, so it runs only on
    the other cycles."""
    cyc = verts[_hull_cycle(verts)]
    e = np.roll(cyc, -1, axis=0) - cyc
    if shoelace_area(cyc) > EPS * EPS and np.sqrt(row_dots(e, e)).min() > EPS:
        return cyc
    return canonical_polygon(cyc)


def clip_polygon_vertices(verts: np.ndarray, normal, offset: float) -> np.ndarray:
    """Clip a convex CCW vertex cycle against ``{y : normal . y >= offset}``."""
    v = np.atleast_2d(np.asarray(verts, dtype=float)).reshape(-1, 2)
    if len(v) == 0:
        return v
    n = np.asarray(normal, dtype=float)
    vals = v @ n - float(offset)
    scale = float(np.max(np.abs(vals))) + 1.0
    keep_tol = 1e-12 * scale
    out: list[np.ndarray] = []
    m = len(v)
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        va, vb = vals[i], vals[(i + 1) % m]
        if va >= -keep_tol:
            out.append(a)
            if vb < -keep_tol and va > keep_tol:
                t = va / (va - vb)
                out.append(a + t * (b - a))
        elif vb > keep_tol:
            t = va / (va - vb)
            out.append(a + t * (b - a))
    if not out:
        return np.zeros((0, 2))
    return canonical_polygon(np.array(out), tol=keep_tol)


# ---------------------------------------------------------------------------
# enumeration

def _has_recession_ray(A: np.ndarray) -> bool:
    """Whether the cone ``{d : A d >= 0}`` of unit rows ``A`` of rank
    ``dim`` (2 or 3) has a ray, within 1e-12.

    Rank ``dim`` makes the cone pointed, so it has a ray exactly when one of
    its extreme-ray candidates lies in it: the null directions of dim - 1
    independent rows, +-perp(n_i) in 2D and +-(n_i x n_j) in 3D. The 3D
    products stay unnormalized, so the tolerance scales with |n_i x n_j|,
    plus 1e-15 for rounding; rows parallel within 1e-12 are skipped.
    """
    if A.shape[1] == 2:
        R = np.column_stack([-A[:, 1], A[:, 0]])
        tol = 1e-12
    else:
        i, j = np.triu_indices(len(A), 1)
        R = np.cross(A[i], A[j])
        c = np.linalg.norm(R, axis=1)
        R, tol = R[c > 1e-12], 1e-12 * c[c > 1e-12] + 1e-15
    P = A @ R.T
    return bool(np.any((P.min(axis=0) >= -tol) | (P.max(axis=0) <= tol)))


def _basic_solutions(A: np.ndarray, b: np.ndarray, tol: float):
    """Basic solutions of ``A y >= b`` that satisfy every row within ``tol``.

    Stacks the ``dim``-row subsystems of ``A`` in ``itertools.combinations``
    order, drops those with ``|det| <= 1e-12`` and solves the rest in one
    batched call. Returns the kept solutions, in that order, and their
    products ``A y``, one row each. Every solve, determinant and product
    rounds as the per-subsystem call would.
    """
    dim = A.shape[1]
    idx = np.array(list(itertools.combinations(range(len(A)), dim)),
                   dtype=int).reshape(-1, dim)
    M = A[idx]
    ok = np.abs(np.linalg.det(M)) > 1e-12
    X = np.linalg.solve(M[ok], b[idx[ok]][:, :, None])[:, :, 0]
    P = np.matmul(A, X[:, :, None])[:, :, 0]
    feasible = np.all(P >= b - tol, axis=1)
    return X[feasible], P[feasible]


def volume_centroid_3d(A: np.ndarray, b: np.ndarray):
    """Volume, centroid and vertices of the bounded 3D set ``{y : A y >= b}``.

    The vertices are the ``_basic_solutions`` within EPS * max(1, max |b|),
    the tolerance of the mixed measures' polygon slices. The boundary
    triangles of their convex hull, fanned to the mean of the vertices, cut
    the set into tetrahedra: its volume is the sum of theirs, and its
    centroid the volume-weighted mean of their centroids. Fewer than four
    vertices, or an affinely flat set of them, give volume 0 and centroid
    None.
    """
    pts, _ = _basic_solutions(A, b, EPS * max(1.0, float(np.max(np.abs(b), initial=0.0))))
    if len(pts) < 4:
        return 0.0, None, pts
    try:
        hull = ConvexHull(pts)
    except QhullError:   # a flat vertex set
        return 0.0, None, pts
    c = pts.mean(axis=0)
    T = pts[hull.simplices] - c
    vols = np.abs(np.linalg.det(T)) / 6.0
    volume = float(vols.sum())
    return volume, c + (vols @ T.sum(axis=1)) / (4.0 * volume), pts[hull.vertices]


def enumerate_vertices(poly: Polytope) -> np.ndarray:
    """All vertices of a bounded polytope in dimension <= 3.

    Brute force over constraint subsets of size ``dim`` in one batched solve
    (``_basic_solutions``): keep the solutions feasible within
    1e-9 * scale, where scale is 1 + max |offset|, and dedupe them within
    1e-9, keeping the first point of each cluster. Raises DimensionTooLarge
    above dimension 3.

    Raises Infeasible when the constraint set is empty and Unbounded when a
    recession direction exists. No LP runs when a basic solution satisfies
    every row within 1e-12 * scale, tighter than the LP's tolerance, and no
    recession ray exists (``_has_recession_ray``; in 1D, a lower and an
    upper bound); otherwise ``_lp_feasible_bounded`` decides.
    """
    dim = poly.dim
    if dim > 3:
        raise DimensionTooLarge("vertex enumeration is limited to dimension <= 3")
    cs = poly.constraints
    if dim == 1:
        los = [h.offset / h.n[0] for h in cs if h.n[0] > 0]
        his = [h.offset / h.n[0] for h in cs if h.n[0] < 0]
        if not (los and his and
                max(los) <= min(his) + 1e-12 * (max(map(abs, los + his)) + 1.0)):
            _lp_feasible_bounded(cs, dim)
        lo, hi = max(los), min(his)
        pts = np.array([[lo]]) if abs(hi - lo) <= EPS else np.array([[lo], [hi]])
        return _lex_sorted(pts)
    A = np.array([h.n for h in cs])
    b = np.array([h.offset for h in cs])
    scale = float(np.max(np.abs(b), initial=0.0)) + 1.0
    found, products = _basic_solutions(A, b, EPS * scale)
    proved = bool(np.any(np.all(products >= b - 1e-12 * scale, axis=1)))
    if not proved or _has_recession_ray(A):
        _lp_feasible_bounded(cs, dim)
    if len(found) == 0:
        # feasible but no basic solution in dim <= 3 only happens for
        # degenerate data; fall back to the LP witness
        r = linprog(np.zeros(dim), A_ub=-A, b_ub=-b,
                    bounds=[(None, None)] * dim, method="highs")
        found = np.asarray(r.x, dtype=float)[None, :]
    # a point is dropped when it lies within EPS of an earlier kept point
    near = np.tril(np.linalg.norm(found[:, None] - found[None], axis=-1) <= EPS, -1)
    keep = np.ones(len(found), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):
        keep[i] = not np.any(near[i] & keep)
    return _lex_sorted(found[keep])


def enumerate_lattice_points(poly: Polytope, cap: int = LATTICE_CAP) -> np.ndarray:
    """Integer points of a bounded polytope in dimension <= 3.

    Scans the integer grid of the bounding box and keeps points satisfying
    every (closed) constraint within 1e-9. The grid size is checked against
    ``cap`` before scanning; BudgetExceeded is raised when it would be
    larger.
    """
    dim = poly.dim
    if dim > 3:
        raise DimensionTooLarge("lattice enumeration is limited to dimension <= 3")
    verts = poly.vertices()
    if len(verts) == 0:
        raise Infeasible("empty polytope")
    lo = np.ceil(verts.min(axis=0) - EPS).astype(int)
    hi = np.floor(verts.max(axis=0) + EPS).astype(int)
    counts = np.maximum(hi - lo + 1, 0)
    total = int(np.prod(counts.astype(object)))
    if total > cap:
        raise BudgetExceeded(f"lattice grid of size {total} exceeds cap {cap}")
    if total == 0:
        return np.zeros((0, dim), dtype=int)
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    # the ij meshgrid is in lexicographic order, and the mask keeps it
    return grid[poly.contains(grid.astype(float))]


def _widths(verts: np.ndarray, dirs) -> np.ndarray:
    """Width ``max u.v - min u.v`` of the vertices along each direction."""
    proj = verts @ np.asarray(dirs, dtype=float).T
    return proj.max(axis=0) - proj.min(axis=0)


def _least_width_step(verts: np.ndarray, base: np.ndarray, step: np.ndarray) -> int:
    """An integer t minimizing the width along ``base + t * step``.

    The width is convex and piecewise linear in t, with breaks where two
    vertices tie along the direction, so the floor or the ceiling of a
    break attains its least value over the integers. ``step`` must have
    positive width.
    """
    p, q = verts @ base.astype(float), verts @ step.astype(float)
    i, j = np.nonzero(q[:, None] > q[None, :])
    breaks = (p[j] - p[i]) / (q[i] - q[j])
    ts = np.unique(np.r_[np.floor(breaks), np.ceil(breaks)]).astype(np.int64)
    return int(ts[np.argmin(_widths(verts, base + ts[:, None] * step))])


def _canonical(u: np.ndarray) -> np.ndarray:
    """``u`` or ``-u``, whichever has its first nonzero entry positive."""
    return -u if u[0] < 0 or (u[0] == 0 and u[1] < 0) else u


def lattice_width_2d(poly: Polytope) -> tuple[float, np.ndarray]:
    """Lattice width of a 2D polytope and a minimizing integer direction.

    Minimizes the width norm ``N(u) = max u.x - min u.x`` over nonzero
    integer directions by generalized Gauss reduction (Kaib and Schnorr
    1996): starting from the unit vectors, replace ``b2`` by the
    ``b2 + t b1`` of least width and swap while ``N(b2) < N(b1)``. The
    reduced ``b1`` attains the lattice width, and its direction is
    primitive. Ties are broken toward the lexicographically largest
    canonical direction (first nonzero entry positive) within
    ``1e-12 * (1 + width)`` of the width. Zero-area input ends the
    reduction once the extent ``N(b1) / |b1|`` along ``b1`` falls to
    ``EPS``: a point gives ``(0.0, (1, 0))``, a segment its primitive normal.
    """
    if poly.dim != 2:
        raise ValueError("lattice_width_2d requires a 2D polytope")
    verts = poly.vertices()
    if len(verts) == 0:
        raise Infeasible("empty polytope")
    b1, b2 = np.array([1, 0]), np.array([0, 1])
    n1 = _widths(verts, [b1, b2])[0]
    while True:
        if n1 <= EPS * math.hypot(*b1):
            return float(n1), _canonical(b1)
        b2 = b2 + _least_width_step(verts, b2, b1) * b1
        n1, n2 = _widths(verts, [b1, b2])
        if n2 >= n1:
            break
        b1, b2, n1 = b2, b1, n2
    # On the reduced pair N(a b1 + c b2) >= |c| N(b2) / 2, so a direction
    # tied with b1 has |c| <= 2 (c >= 0 up to sign), and the a of two tied
    # directions with the same c differ by at most 2: each c's ties lie
    # within 2 of its least-width a.
    cands = [b1[None]]
    for c in (1, 2):
        t = _least_width_step(verts, c * b2, b1)
        cands.append(c * b2 + np.arange(t - 2, t + 3)[:, None] * b1)
    cands = np.vstack(cands)
    widths = _widths(verts, cands)
    w = float(widths.min())
    tied = cands[widths <= w + 1e-12 * (1.0 + w)]
    return w, max(map(_canonical, tied), key=tuple)
