"""Reference depth oracles that only the tests use: a dense angle grid, and
the closed half-circle window sums it evaluates counting measures with.

The window sums treat angles within 1e-12 rad of a window boundary as on
it, the boundary slack of the counting kernel
``depth._sweep_counting_min_batch``.
"""
import math

import numpy as np

from centercut.depth import TWO_PI, DepthResult, _result, _u
from centercut.geom import Direction, Halfspace
from centercut.measures import FinitePointMass, Measure


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


def depth_angle_grid(m: Measure, x, num_angles: int) -> DepthResult:
    """Dense 2D angle-grid oracle: min mass over u(a) for a on a uniform grid.

    Counting families evaluate all angles with one vectorized window pass;
    other families loop over exact halfspace masses.
    """
    xv = np.asarray(x, dtype=float).ravel()
    alphas = np.linspace(0.0, TWO_PI, num_angles, endpoint=False)
    if isinstance(m, FinitePointMass):
        w = m.active_weights()
        rel = m.active_points() - xv
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
        v = m.halfspace_mass(h)
        if v < best - 1e-15:
            best, best_a = v, a
    return _result(best, best_a, False, 1.0)
