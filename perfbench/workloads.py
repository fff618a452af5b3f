"""Seeded job lists, the timed job bodies and their reference checks.

A workload is a list of rounds. Round ``r`` of seed ``s`` is generated from
``numpy.random.default_rng([s, r])`` with a fixed composition of job kinds,
so every round costs about the same and a run made of whole rounds has the
same mix whatever its length. ``run`` is the timed part of a job: it builds
the measure from the generated inputs and calls the library once (a solve,
a centerpoint route or an adversary game). ``check`` runs after the timer
stops and compares the output with a reference computed independently.

Checks take plain outputs (``Output``), so tests can plant wrong answers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from centercut import adversary, centerpoint, cutplane, depth, geom, measures

GRUNBAUM_2D = 4.0 / 9.0
MC_EPS, MC_DELTA = 0.05, 0.1          # 1061 samples per Monte Carlo query
LATTICE_DELTA = 0.9                   # delta < 1: integer solves are exact
LENSTRA_DEPTH_DIRECTIONS = 256
LENSTRA_FLOOR = 1.0 / (2 ** (2 * 2) * (1 + 1) ** (2 + 1))   # 1/(2^(n^2) (d+1)^(n+1)), n=2, d=1
# the Monte Carlo route promises depth >= 4/9 - eps only with probability
# 1 - delta, so a run may miss on that share of those jobs and stay correct
MISS_ALLOWANCE = {"mc_triangle": MC_DELTA, "mc_hexagon": MC_DELTA}


@dataclass
class Job:
    kind: str                 # workload-specific job kind (size band, game)
    params: dict              # generated inputs, plain numbers and arrays


@dataclass
class Output:
    """What a job returns to its check and to the count metrics."""

    point: np.ndarray | None = None
    value: float | None = None
    oracle_calls: int | None = None
    pivot_depths: list = field(default_factory=list)   # exact depths seen
    removed_over_floor: list = field(default_factory=list)
    iterations: int | None = None
    lower: int | None = None          # adversary bounds
    upper: int | None = None
    consistent: bool | None = None
    pieces: int | None = None         # adversary queries that added a piece
    queries: int | None = None


# ---------------------------------------------------------------------------
# input generators

def _convex_polygon(rng, k=6, jitter=0.3):
    ang = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False) + rng.uniform(-jitter, jitter, k)
    r = rng.uniform(0.7, 1.0, k)
    v = np.c_[r * np.cos(ang), r * np.sin(ang)]
    return v[ConvexHull(v).vertices]


def _lattice_polygon(rng, target, tol=0.05):
    """Convex hexagon holding target*(1 +- tol) lattice points."""
    while True:
        v = _convex_polygon(rng)
        area = ConvexHull(v).volume
        v = v * np.sqrt(target / area) + rng.uniform(0.0, 1.0, 2)
        count = len(geom.enumerate_lattice_points(geom.Polytope.from_vertices_2d(v)))
        if abs(count - target) <= tol * target:
            return v


def _quadratic(rng, lo, hi):
    A = rng.normal(size=(2, 2))
    return {"Q": A.T @ A + 0.1 * np.eye(2), "c": rng.uniform(lo, hi),
            "r": float(rng.uniform(-1.0, 1.0))}


def lattice_round(rng):
    """The 8x8 box of acceptance criterion 7, 40 small polygons, 20 medium
    and one large; about a third of the time each goes to the medium and
    the large band. The median job lies well inside the small band. The
    tail (ten jobs beyond it) lies inside the medium band while a run holds
    at most sixteen rounds; a run of this mix holds four to eight."""
    jobs = [Job("box8", {"lower": np.zeros(2), "upper": np.full(2, 8.0),
                         **_quadratic(rng, 0.0, 8.0)})]
    for kind, target in [("n70", 70)] * 40 + [("n340", 340)] * 20 + [("n1500", 1500)]:
        v = _lattice_polygon(rng, target)
        jobs.append(Job(kind, {"verts": v, **_quadratic(rng, v.min(axis=0), v.max(axis=0))}))
    return jobs


def mixed_round(rng):
    """One trapezoid per fiber count 2..6, built as acceptance criterion 10
    builds them (K + 1 fibers x = 0..K, block [0, h(x)], h affine)."""
    jobs = []
    for K in (1, 2, 3, 4, 5):
        h0, h1 = rng.uniform(0.5, 2.0, size=2)
        L = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.1, min(h0, h1) - 0.1))
        a = float(rng.uniform(-0.4, 0.4))
        delta = float(rng.uniform(0.03, 0.15))
        jobs.append(Job(f"fibers{K + 1}", {"K": K, "h0": float(h0), "h1": float(h1),
                                           "L": L, "t": t, "a": a, "delta": delta}))
    return jobs


def _lenstra_rows(rng):
    """n=2, d=1 polytope: a random hexagon in the integer plane times a
    continuous block 0 <= y <= c0 + g.(z - center)."""
    v = _convex_polygon(rng) * rng.uniform(2.8, 3.2) + rng.uniform(0.0, 1.0, 2)
    rows = []
    for h in geom.Polytope.from_vertices_2d(v).constraints:
        rows.append([-h.n[0], -h.n[1], 0.0, -h.offset])
    g = rng.uniform(-0.05, 0.05, 2)
    c0 = rng.uniform(1.0, 2.0)
    rows.append([0.0, 0.0, -1.0, 0.0])
    rows.append([-g[0], -g[1], 1.0, c0 - g @ v.mean(axis=0)])
    return np.array(rows)


def query_round(rng):
    """Three Monte Carlo queries on triangles, three on hexagons, one
    width-based recursion on an n=2, d=1 polytope. With this mix the median
    and the tail (ten jobs beyond it) are Monte Carlo jobs while a run holds
    at most nine rounds; a run holds five to seven."""
    jobs = []
    for kind in ("mc_triangle", "mc_hexagon") * 3:
        if kind == "mc_triangle":
            while True:
                v = rng.uniform(-5.0, 5.0, size=(3, 2))
                e1, e2 = v[1] - v[0], v[2] - v[0]
                if abs(e1[0] * e2[1] - e1[1] * e2[0]) >= 0.2:
                    break
        else:
            v = _convex_polygon(rng) * rng.uniform(0.5, 5.0)
        jobs.append(Job(kind, {"verts": v, "mc_seed": int(rng.integers(2**31))}))
    jobs.append(Job("lenstra", {"rows": _lenstra_rows(rng)}))
    return jobs


GAMES = (("median32", "Centerpoint"), ("median32", "Centroid"),
         ("fiber2", "Centerpoint"), ("fiber2", "Centroid"),
         ("fiber3", "Centerpoint"), ("fiber3", "Centroid"),
         ("mixed1", "Centerpoint"), ("mixed1", "Centroid"))


def games_round(rng):
    """The four resisting-oracle games under both strategies, four times
    over, each pass in its own seeded order. The games themselves are fixed:
    the continuous game is played on [0, 32)^2 as in acceptance criterion 8.
    A round of 32 jobs is longer than half a run even on a fast host, so
    every run is exactly one round, and the median and tail are order
    statistics of four repeats of one game rather than of a single job."""
    return [_game_job(*GAMES[i]) for _ in range(4) for i in rng.permutation(len(GAMES))]


def _game_job(game, strategy):
    return Job(f"{game}.{strategy.lower()}", {"game": game, "strategy": strategy})


# ---------------------------------------------------------------------------
# timed job bodies

def _trace_rows(rep, floor):
    """Pivot depths and removed share / floor from a solve's trace rows."""
    depths, ratios = [], []
    prev = None
    for row in rep.iteration_trace:
        if row.depth is not None:
            depths.append(float(row.depth))
        if prev is not None and prev > 0:
            ratios.append((1.0 - row.mass_after / prev) / floor)
        prev = row.mass_after
    return depths, ratios


def run_lattice(job):
    p = job.params
    if job.kind == "box8":
        P = geom.Polytope.from_box(p["lower"], p["upper"])
        E0 = geom.Box(p["lower"], p["upper"])
    else:
        P = geom.Polytope.from_vertices_2d(p["verts"])
        lo, hi = P.bounding_box()
        E0 = geom.Box(np.floor(lo), np.floor(hi) + 1.0)
    nu = measures.LatticeCounting(P)
    return cutplane.solve(cutplane.ConvexQuadratic(p["Q"], p["c"], p["r"]),
                          centerpoint.ConstraintSet.lattice(2), nu, E0, LATTICE_DELTA)


def run_mixed(job):
    p = job.params
    K, h0, h1, L, t, a = (p[k] for k in ("K", "h0", "h1", "L", "t", "a"))
    P = geom.Polytope.from_rows([[-1.0, 0.0, 0.0], [1.0, 0.0, float(K)],
                                 [0.0, -1.0, 0.0], [(h0 - h1) / K, 1.0, h0]])
    m = measures.MixedInteger(P, 1, 1)
    o = cutplane.AffineMax([(np.array([a, L]), -L * t), (np.array([a, -L]), L * t)])
    E0 = geom.Box(np.array([0.0, 0.0]), np.array([K + 1.0, max(h0, h1) + 0.5]))
    return cutplane.solve(o, centerpoint.ConstraintSet.mixed(1, 1), m, E0, p["delta"])


def run_query(job):
    p = job.params
    if job.kind == "lenstra":
        P = geom.Polytope.from_rows(p["rows"])
        return centerpoint.centerpoint_lenstra_mixed(P, 2, 1), P
    m = measures.UniformPolytope(geom.Polytope.from_vertices_2d(p["verts"]))
    res = centerpoint.centerpoint_monte_carlo(m, centerpoint.ConstraintSet.continuous(2),
                                              MC_EPS, MC_DELTA, measures.RngState(p["mc_seed"]))
    return res, m


def _make_game(job):
    game = job.params["game"]
    if game == "median32":
        return adversary.ContinuousMedian(geom.Box(np.zeros(2), np.full(2, 32.0))), 1.0
    if game == "fiber2":
        return adversary.IntegerFiber(2, 8), 0.5
    if game == "fiber3":
        return adversary.IntegerFiber(3, 8), 0.5
    return adversary.MixedFiber(1, 1, 8), 1.0


def run_game(job):
    st, delta = _make_game(job)
    strategy = getattr(cutplane, job.params["strategy"])()
    rep = cutplane.solve(cutplane.Adversarial(st), adversary.game_constraint_set(st),
                         adversary.game_measure(st), st.E0, delta, strategy=strategy)
    return rep, st, adversary.is_consistent(st)


# ---------------------------------------------------------------------------
# outputs: turn a job's return value into plain numbers (after the timer)

def _solve_floor(S):
    g = centerpoint.depth_guarantee(S)
    return g.grunbaum_floor if S.kind == "continuous" and g.grunbaum_floor else g.floor


def _solve_output(rep, S):
    d, ratios = _trace_rows(rep, _solve_floor(S))
    return Output(point=rep.best_point, value=rep.best_value, oracle_calls=rep.oracle_calls,
                  pivot_depths=d, removed_over_floor=ratios,
                  iterations=len(rep.iteration_trace))


def output_lattice(job, rep):
    return _solve_output(rep, centerpoint.ConstraintSet.lattice(2))


def output_mixed(job, rep):
    return _solve_output(rep, centerpoint.ConstraintSet.mixed(1, 1))


def output_query(job, ret):
    res, m = ret
    out = Output(point=np.asarray(res.point, dtype=float))
    if job.kind != "lenstra":
        # exact depth of the Monte Carlo point, the sample the check and
        # pivot_depth use; the Lenstra depth is sampled, so it adds none
        out.pivot_depths = [float(depth.min_direction_2d(m, out.point).value)]
    return out


def output_game(job, ret):
    rep, st, consistent = ret
    upper, lower = rep.bound_comparison
    out = Output(point=rep.best_point, value=rep.best_value, oracle_calls=rep.oracle_calls,
                 iterations=len(rep.iteration_trace), lower=lower, upper=upper,
                 consistent=bool(consistent), pieces=st.queries, queries=len(st.log))
    if job.params["strategy"] == "Centerpoint":
        out.pivot_depths, out.removed_over_floor = _trace_rows(
            rep, _solve_floor(adversary.game_constraint_set(st)))
    return out


# ---------------------------------------------------------------------------
# reference checks

def check_lattice(job, out):
    """Brute-force argmin of the quadratic over the enumerated points."""
    p = job.params
    if job.kind == "box8":
        grid = np.array([[i, j] for i in range(8) for j in range(8)], dtype=float)
    else:
        grid = geom.enumerate_lattice_points(
            geom.Polytope.from_vertices_2d(p["verts"])).astype(float)
    dif = grid - p["c"]
    vals = np.einsum("ij,jk,ik->i", dif, p["Q"], dif) + p["r"]
    k = int(np.argmin(vals))
    return (out.point is not None and np.array_equal(np.asarray(out.point), grid[k])
            and abs(out.value - float(vals[k])) <= 1e-9 * max(1.0, abs(float(vals[k]))))


def mixed_truth(job):
    """Exact minimum of the objective over the fibers."""
    p = job.params
    K, h0, h1, L, t, a = (p[k] for k in ("K", "h0", "h1", "L", "t", "a"))
    best = np.inf
    for x in range(K + 1):
        hi = h0 + (h1 - h0) * x / K
        best = min(best, a * x + L * max(-t, t - hi, 0.0))
    return best


def check_mixed(job, out):
    """Objective gap within mixed_gap_bound(L, delta, 1)."""
    p = job.params
    bound = cutplane.mixed_gap_bound(p["L"], p["delta"], 1)
    return out.value is not None and out.value - mixed_truth(job) <= bound + 1e-9


def check_query(job, out):
    """Monte Carlo: exact depth >= 4/9 - eps. Lenstra: the point is a
    feasible mixed point and its sampled depth clears the recursion floor."""
    if job.kind != "lenstra":
        return bool(out.pivot_depths) and out.pivot_depths[0] >= GRUNBAUM_2D - MC_EPS
    P = geom.Polytope.from_rows(job.params["rows"])
    x = out.point
    if not (np.array_equal(x[:2], np.round(x[:2])) and bool(P.contains(x)[0])):
        return False
    m = measures.MixedInteger(P, 2, 1)
    sampled = depth.depth_sampled(m, x, LENSTRA_DEPTH_DIRECTIONS, measures.RngState(0)).value
    return sampled >= LENSTRA_FLOOR - 1e-9


def check_game(job, out):
    """Calls at least the game's lower bound, at most the centerpoint upper
    bound, and every recorded answer consistent with one convex function."""
    if out.oracle_calls is None or out.lower is None or out.oracle_calls < out.lower:
        return False
    if job.params["strategy"] == "Centerpoint" and (
            out.upper is None or out.oracle_calls > out.upper):
        return False
    return bool(out.consistent)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    run: object
    output: object
    check: object
    warmup: Job
    solves: bool              # whether jobs make oracle calls


WORKLOADS = {
    "lattice-solve": Workload(
        "lattice-solve", lattice_round, run_lattice, output_lattice, check_lattice,
        Job("box8", {"lower": np.zeros(2), "upper": np.full(2, 8.0),
                     "Q": np.eye(2), "c": np.array([3.3, 4.7]), "r": 0.0}), True),
    "mixed-solve": Workload(
        "mixed-solve", mixed_round, run_mixed, output_mixed, check_mixed,
        Job("fibers2", {"K": 1, "h0": 1.0, "h1": 1.5, "L": 1.0, "t": 0.5, "a": 0.2,
                        "delta": 0.15}), True),
    "centerpoint-query": Workload(
        "centerpoint-query", query_round, run_query, output_query, check_query,
        Job("mc_triangle", {"verts": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            "mc_seed": 7}), False),
    "adversary-games": Workload(
        "adversary-games", games_round, run_game, output_game, check_game,
        _game_job("fiber2", "Centroid"), True),
}


def make_round(workload: Workload, seed: int, r: int):
    return workload.make_round(np.random.default_rng([seed, r]))
