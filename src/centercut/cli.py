"""Command-line entry point.

Problem documents are strict JSON: ``schema_version`` 1, a ``command`` naming
the subcommand, and the command's payload. Unknown keys are rejected so golden
outputs stay stable. Flags override document fields. All randomness derives
from the seed (--seed, else the document's ``seed``, else 0) through fixed
per-command child streams; identical inputs give byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import adversary as adversary_mod
from . import cutplane
from . import depth as depth_mod
from .centerpoint import (ConstraintSet, centerpoint_lattice_measure,
                          centerpoint_lenstra_mixed, centerpoint_mixed_2d,
                          centerpoint_monte_carlo, centroid, depth_guarantee)
from .errors import (BudgetExceeded, DimensionTooLarge, EmptyLattice,
                     EmptyRegion, Infeasible, InfeasibleStart,
                     OutsideRegion, ParseError, RejectionStall, SchemaError,
                     Unbounded)
from .geom import Box, Polytope
from .measures import (FinitePointMass, LatticeCounting, MixedInteger,
                       RngState, UniformPolytope)

SCHEMA_VERSION = 1
_COMMANDS = ("depth", "centerpoint", "solve", "adversary-run", "bench")

_BENCH_COLUMNS = ("id", "kind", "n", "d", "B", "delta", "strategy",
                  "oracle_calls", "upper_bound", "lower_bound", "bound_ok",
                  "error")


# ---------------------------------------------------------------------------
# schema validation

def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}", "unknown key")
    for k in required:
        if k not in obj:
            _fail(path, f"missing required key {k!r}")


def _number(x, path) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, "expected a number")
    if not abs(x) <= sys.float_info.max:   # json reads NaN, Infinity and 1e400
        _fail(path, "expected a finite number")
    return float(x)


def _integer(x, path) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, "expected an integer")
    return x


def _vector(x, path) -> list:
    if not isinstance(x, list) or not x:
        _fail(path, "expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _matrix(x, path) -> list:
    if not isinstance(x, list) or not x:
        _fail(path, "expected a nonempty list of rows")
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(x)]
    if len({len(r) for r in rows}) != 1:
        _fail(path, "rows must have equal length")
    return rows


def _check_polytope(x, path):
    rows = _matrix(x, path)
    if len(rows[0]) < 2:
        _fail(path, "constraint rows are [a..., b] with n >= 1")


def _check_box(x, path):
    _check_keys(x, path, ("lower", "upper"))
    lo = _vector(x["lower"], f"{path}.lower")
    hi = _vector(x["upper"], f"{path}.upper")
    if len(lo) != len(hi):
        _fail(path, "lower and upper must have the same length")


def _check_measure(x, path):
    if not isinstance(x, dict) or "family" not in x:
        _fail(path, "expected an object with a 'family' key")
    fam = x["family"]
    if fam == "finite":
        _check_keys(x, path, ("family", "points"), ("weights",))
        pts = _matrix(x["points"], f"{path}.points")
        if "weights" in x:
            w = _vector(x["weights"], f"{path}.weights")
            if len(w) != len(pts):
                _fail(f"{path}.weights", "one weight per point")
    elif fam in ("lattice", "uniform"):
        _check_keys(x, path, ("family", "polytope"))
        _check_polytope(x["polytope"], f"{path}.polytope")
    elif fam == "mixed":
        _check_keys(x, path, ("family", "polytope", "n", "d"))
        _check_polytope(x["polytope"], f"{path}.polytope")
        _integer(x["n"], f"{path}.n")
        _integer(x["d"], f"{path}.d")
    else:
        _fail(f"{path}.family", f"unknown measure family {fam!r}")


def _check_constraint(x, path):
    if not isinstance(x, dict) or "kind" not in x:
        _fail(path, "expected an object with a 'kind' key")
    kind = x["kind"]
    if kind == "continuous":
        _check_keys(x, path, ("kind", "dim"))
        _integer(x["dim"], f"{path}.dim")
    elif kind == "lattice":
        _check_keys(x, path, ("kind", "n"))
        _integer(x["n"], f"{path}.n")
    elif kind == "mixed":
        _check_keys(x, path, ("kind", "n", "d"))
        _integer(x["n"], f"{path}.n")
        _integer(x["d"], f"{path}.d")
    else:
        _fail(f"{path}.kind", f"unknown constraint kind {kind!r}")


def _check_objective(x, path):
    if not isinstance(x, dict) or "type" not in x:
        _fail(path, "expected an object with a 'type' key")
    t = x["type"]
    if t == "affine_max":
        _check_keys(x, path, ("type", "pieces"))
        rows = _matrix(x["pieces"], f"{path}.pieces")
        if len(rows[0]) < 2:
            _fail(f"{path}.pieces", "piece rows are [a..., b]")
    elif t == "quadratic":
        _check_keys(x, path, ("type", "Q", "c"), ("r",))
        q = _matrix(x["Q"], f"{path}.Q")
        c = _vector(x["c"], f"{path}.c")
        if len(q) != len(c) or len(q[0]) != len(c):
            _fail(f"{path}.Q", "Q must be square and match c")
        if "r" in x:
            _number(x["r"], f"{path}.r")
    elif t == "sum":
        _check_keys(x, path, ("type", "parts"))
        if not isinstance(x["parts"], list) or not x["parts"]:
            _fail(f"{path}.parts", "expected a nonempty list")
        for i, part in enumerate(x["parts"]):
            _check_objective(part, f"{path}.parts[{i}]")
    else:
        _fail(f"{path}.type", f"unknown objective type {t!r}")


def _check_game(x, path):
    if not isinstance(x, dict) or "kind" not in x:
        _fail(path, "expected an object with a 'kind' key")
    kind = x["kind"]
    if kind == "continuous_median":
        _check_keys(x, path, ("kind", "E0"))
        _check_box(x["E0"], f"{path}.E0")
    elif kind == "integer_fiber":
        _check_keys(x, path, ("kind", "n", "B"))
        _integer(x["n"], f"{path}.n")
        _integer(x["B"], f"{path}.B")
    elif kind == "mixed_fiber":
        _check_keys(x, path, ("kind", "n", "d", "B"))
        for k in ("n", "d", "B"):
            _integer(x[k], f"{path}.{k}")
    else:
        _fail(f"{path}.kind", f"unknown game kind {kind!r}")


_PAYLOAD_KEYS = {
    "depth": (("measure", "point"), ()),
    "centerpoint": (("measure",), ("constraint", "method", "eps", "delta",
                                   "seed", "C")),
    "solve": (("objective", "constraint", "measure", "E0", "delta"),
              ("strategy", "budget", "seed")),
    "adversary-run": (("game", "delta"), ("strategy", "budget", "seed")),
}


def _validate_payload(doc, path="$"):
    cmd = doc["command"]
    required, optional = _PAYLOAD_KEYS[cmd]
    _check_keys(doc, path, ("schema_version", "command") + required, optional)
    if cmd == "depth":
        _check_measure(doc["measure"], f"{path}.measure")
        _vector(doc["point"], f"{path}.point")
    elif cmd == "centerpoint":
        _check_measure(doc["measure"], f"{path}.measure")
        if "constraint" in doc:
            _check_constraint(doc["constraint"], f"{path}.constraint")
        if "method" in doc and doc["method"] not in ("mc", "exact2d-int",
                                                     "lenstra", "centroid"):
            _fail(f"{path}.method", f"unknown method {doc['method']!r}")
        if "seed" in doc:
            _integer(doc["seed"], f"{path}.seed")
    elif cmd == "solve":
        _check_objective(doc["objective"], f"{path}.objective")
        _check_constraint(doc["constraint"], f"{path}.constraint")
        _check_measure(doc["measure"], f"{path}.measure")
        _check_box(doc["E0"], f"{path}.E0")
        _number(doc["delta"], f"{path}.delta")
        _check_strategy_budget(doc, path)
    elif cmd == "adversary-run":
        _check_game(doc["game"], f"{path}.game")
        _number(doc["delta"], f"{path}.delta")
        _check_strategy_budget(doc, path)


def _check_strategy_budget(doc, path):
    if "strategy" in doc and doc["strategy"] not in ("centerpoint", "centroid",
                                                     "random"):
        _fail(f"{path}.strategy", f"unknown strategy {doc['strategy']!r}")
    if "budget" in doc:
        _integer(doc["budget"], f"{path}.budget")
    if "seed" in doc:
        _integer(doc["seed"], f"{path}.seed")


def parse_problem(text: str) -> dict:
    """Parse and validate a problem document; strict about unknown keys."""
    try:
        doc = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer of over 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")
    if "schema_version" not in doc:
        _fail("$", "missing required key 'schema_version'")
    if doc["schema_version"] != SCHEMA_VERSION:
        _fail("$.schema_version", f"unsupported version {doc['schema_version']!r}")
    if "command" not in doc:
        _fail("$", "missing required key 'command'")
    if doc["command"] not in _COMMANDS:
        _fail("$.command", f"unknown command {doc['command']!r}")
    if doc["command"] == "bench":
        _check_keys(doc, "$", ("schema_version", "command", "instances"))
        if not isinstance(doc["instances"], list):
            _fail("$.instances", "expected a list")
        for i, inst in enumerate(doc["instances"]):
            path = f"$.instances[{i}]"
            if not isinstance(inst, dict):
                _fail(path, "expected an object")
            if "id" not in inst:
                _fail(path, "missing required key 'id'")
            if not isinstance(inst["id"], str):
                _fail(f"{path}.id", "expected a string")
            if inst.get("command") not in ("solve", "adversary-run"):
                _fail(f"{path}.command", "bench instances are solve or adversary-run")
            sub = {k: v for k, v in inst.items() if k != "id"}
            sub["schema_version"] = SCHEMA_VERSION
            _validate_payload(sub, path)
    else:
        _validate_payload(doc)
    return doc


def serialize(doc: dict) -> str:
    """Canonical text form; parse . serialize is idempotent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builders

def _at(path, build, *args):
    """``build(*args)``, with the library's ValueError reported as a schema
    error at the document path ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _objective_dims(spec) -> set:
    """The dimensions an objective's pieces, centers and parts name."""
    if spec["type"] == "affine_max":
        return {len(spec["pieces"][0]) - 1}
    if spec["type"] == "quadratic":
        return {len(spec["c"])}
    return set().union(*(_objective_dims(p) for p in spec["parts"]))


def _check_dimension(what, dim):
    """Uniform, lattice and mixed measures stop above dimension 3. Saying
    so before the polytope is built spares its LP checks, which run from
    dimension 4 on."""
    if dim > 3:
        raise DimensionTooLarge(f"{what} support dimension <= 3, got {dim}")


def _build_measure(spec):
    fam = spec["family"]
    if fam == "finite":
        return FinitePointMass(spec["points"], spec.get("weights"))
    _check_dimension(f"{fam} measures", len(spec["polytope"][0]) - 1)
    poly = Polytope.from_rows(spec["polytope"])
    if fam == "lattice":
        return LatticeCounting(poly)
    if fam == "uniform":
        return UniformPolytope(poly)
    return MixedInteger(poly, spec["n"], spec["d"])


def _build_constraint(spec) -> ConstraintSet:
    if spec["kind"] == "continuous":
        return ConstraintSet.continuous(spec["dim"])
    if spec["kind"] == "lattice":
        return ConstraintSet.lattice(spec["n"])
    return ConstraintSet.mixed(spec["n"], spec["d"])


def _default_constraint(m) -> ConstraintSet:
    if isinstance(m, LatticeCounting):
        return ConstraintSet.lattice(m.dim)
    if isinstance(m, MixedInteger):
        return ConstraintSet.mixed(m.n, m.d)
    return ConstraintSet.continuous(m.dim)


def _build_objective(spec):
    t = spec["type"]
    if t == "affine_max":
        return cutplane.AffineMax([(row[:-1], row[-1]) for row in spec["pieces"]])
    if t == "quadratic":
        return cutplane.ConvexQuadratic(np.asarray(spec["Q"], dtype=float),
                                        np.asarray(spec["c"], dtype=float),
                                        spec.get("r", 0.0))
    return cutplane.Sum([_build_objective(p) for p in spec["parts"]])


def _build_game(spec):
    kind = spec["kind"]
    if kind == "continuous_median":
        e0 = spec["E0"]
        return adversary_mod.ContinuousMedian(Box(e0["lower"], e0["upper"]))
    if kind == "integer_fiber":
        game = adversary_mod.IntegerFiber(spec["n"], spec["B"])
    else:
        game = adversary_mod.MixedFiber(spec["n"], spec["d"], spec["B"])
    _check_dimension(f"{kind} games", game.E0.dim)
    return game


_STRATEGIES = {
    "centerpoint": lambda seed: cutplane.Centerpoint(),
    "centroid": lambda seed: cutplane.Centroid(),
    "random": cutplane.RandomFeasible,
}


def _pick(args_value, doc, key, default):
    if args_value is not None:
        return args_value
    return doc.get(key, default)


# ---------------------------------------------------------------------------
# subcommand handlers (return plain-python output dicts)

def _pyify(x):
    if isinstance(x, np.ndarray):
        return [_pyify(v) for v in x.tolist()]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (list, tuple)):
        return [_pyify(v) for v in x]
    if isinstance(x, dict):
        return {k: _pyify(v) for k, v in x.items()}
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


def _depth_at(m, x, rng):
    """``depth.depth``, else the upper bound from 2000 sampled directions."""
    return depth_mod.depth(m, x) or depth_mod.depth_sampled(m, x, 2000, rng)


def cmd_depth(doc, args) -> dict:
    m = _at("$.measure", _build_measure, doc["measure"])
    x = np.asarray(doc["point"], dtype=float)
    if x.shape != (m.dim,):
        _fail("$.point", "dimension does not match the measure")
    rng = RngState(_pick(args.seed, doc, "seed", 0)).child(0)
    r = _depth_at(m, x, rng)
    witness = None if r.witness is None else list(r.witness.coords)
    return _pyify({"command": "depth", "value": r.value, "witness": witness,
                   "exact": r.exact, "gap": r.gap})


def cmd_centerpoint(doc, args) -> dict:
    m = _at("$.measure", _build_measure, doc["measure"])
    method = _pick(args.method, doc, "method", "mc")
    eps = _number(_pick(args.eps, doc, "eps", 0.1), "$.eps")
    delta = _number(_pick(args.delta, doc, "delta", 0.1), "$.delta")
    c_const = _number(_pick(args.C, doc, "C", 0.5), "$.C")
    if c_const <= 0:
        _fail("$.C", "C must be positive")
    seed = int(_pick(args.seed, doc, "seed", 0))
    rng = RngState(seed).child(1)
    if "constraint" in doc:
        S = _at("$.constraint", _build_constraint, doc["constraint"])
        if S.dim != m.dim:
            _fail("$.constraint", f"dimension does not match the measure's {m.dim}")
    else:
        S = _default_constraint(m)
    mixed11 = isinstance(m, MixedInteger) and (m.n, m.d) == (1, 1)
    if method == "mc":
        if not 0 < eps <= 1:
            _fail("$.eps", "eps must lie in (0, 1]")
        if not 0 < delta < 1:
            _fail("$.delta", "delta must lie in (0, 1)")
        if S.kind == "mixed" and not mixed11:
            _fail("$.method", "mc over a mixed constraint needs an n=1, d=1 "
                  "mixed measure")
        res = centerpoint_monte_carlo(m, S, eps, delta, rng, C=c_const)
    elif method == "exact2d-int":
        if isinstance(m, LatticeCounting) and m.dim == 2:
            res = centerpoint_lattice_measure(m)
        elif mixed11:
            res = centerpoint_mixed_2d(m)
        else:
            _fail("$.method", "exact2d-int needs a 2D lattice or an n=1, d=1 "
                  "mixed measure")
    elif method == "lenstra":
        if not (isinstance(m, MixedInteger) and m.n in (1, 2) and m.d == 1):
            _fail("$.method", "lenstra needs a mixed measure with n=1 or 2, d=1")
        res = centerpoint_lenstra_mixed(m.polytope, m.n, m.d)
    else:
        if not isinstance(m, UniformPolytope):
            _fail("$.method", "centroid needs a uniform measure")
        point = centroid(m)
        r = _depth_at(m, point, rng)
        g = depth_guarantee(S)
        return _pyify({"command": "centerpoint", "point": list(point),
                       "depth": r.value, "depth_exact": r.exact,
                       "depth_gap": r.gap, "method": "centroid",
                       "samples_used": 0, "guarantee": _guarantee_dict(g)})
    return _pyify({"command": "centerpoint", "point": list(res.point),
                   "depth": res.depth.value, "depth_exact": res.depth.exact,
                   "depth_gap": res.depth.gap, "method": res.method,
                   "samples_used": res.samples_used,
                   "guarantee": _guarantee_dict(res.guarantee)})


def _guarantee_dict(g):
    if g is None:
        return None
    return {"helly": g.helly, "floor": g.floor,
            "grunbaum_floor": g.grunbaum_floor,
            "lenstra_floor": g.lenstra_floor}


def _solve_with_flags(o, S, nu, E0, doc, args):
    """``cutplane.solve`` with delta, strategy, budget and seed taken from
    the flags, else the document; returns (report, strategy name, delta).
    The seed reaches the random strategy only."""
    delta = _number(_pick(args.delta, doc, "delta", doc["delta"]), "$.delta")
    strategy_name = _pick(args.strategy, doc, "strategy", "centerpoint")
    budget = int(_pick(args.budget, doc, "budget", 10_000))
    seed = int(_pick(args.seed, doc, "seed", 0))
    strategy = _STRATEGIES[strategy_name](seed)
    report = cutplane.solve(o, S, nu, E0, delta, strategy=strategy, budget=budget)
    return report, strategy_name, delta


def cmd_solve(doc, args) -> dict:
    o = _at("$.objective", _build_objective, doc["objective"])
    S = _at("$.constraint", _build_constraint, doc["constraint"])
    nu = _at("$.measure", _build_measure, doc["measure"])
    e0 = doc["E0"]
    if S.dim != nu.dim:
        _fail("$.constraint", f"dimension does not match the measure's {nu.dim}")
    if _objective_dims(doc["objective"]) != {nu.dim}:
        _fail("$.objective", f"dimension does not match the measure's {nu.dim}")
    if len(e0["lower"]) != nu.dim:
        _fail("$.E0", f"dimension does not match the measure's {nu.dim}")
    E0 = _at("$.E0", Box, e0["lower"], e0["upper"])
    report, strategy_name, delta = _solve_with_flags(o, S, nu, E0, doc, args)
    upper, lower = report.bound_comparison
    trace = report.iteration_trace
    return _pyify({
        "command": "solve",
        "best_point": None if report.best_point is None else list(report.best_point),
        "best_value": report.best_value,
        "oracle_calls": report.oracle_calls,
        "iterations": len(trace),
        "stop_reason": report.stop_reason,
        "final_mass": trace[-1].mass_after if trace else None,
        "upper_bound": upper,
        "lower_bound": lower,
        "delta": delta,
        "strategy": strategy_name,
    })


def cmd_adversary_run(doc, args) -> dict:
    game = _at("$.game", _build_game, doc["game"])
    report, strategy_name, delta = _solve_with_flags(
        cutplane.Adversarial(game), adversary_mod.game_constraint_set(game),
        adversary_mod.game_measure(game), game.E0, doc, args)
    lower = adversary_mod.lower_bound_for(game, delta)
    return _pyify({
        "command": "adversary-run",
        "game": game.kind,
        "oracle_calls": report.oracle_calls,
        "lower_bound": lower,
        "bound_ok": report.oracle_calls >= lower,
        "stop_reason": report.stop_reason,
        "best_value": report.best_value,
        "consistent": adversary_mod.is_consistent(game),
        "strategy": strategy_name,
        "delta": delta,
    })


def _instance_facts(inst) -> dict:
    """S kind and size fields for a bench row."""
    if inst["command"] == "adversary-run":
        g = inst["game"]
        kind = {"continuous_median": "continuous", "integer_fiber": "lattice",
                "mixed_fiber": "mixed"}[g["kind"]]
        if g["kind"] == "continuous_median":
            return {"kind": kind, "n": 0, "d": len(g["E0"]["lower"]), "B": ""}
        return {"kind": kind, "n": g["n"], "d": g.get("d", 0), "B": g["B"]}
    c = inst["constraint"]
    if c["kind"] == "continuous":
        return {"kind": "continuous", "n": 0, "d": c["dim"], "B": ""}
    if c["kind"] == "lattice":
        return {"kind": "lattice", "n": c["n"], "d": 0, "B": ""}
    return {"kind": "mixed", "n": c["n"], "d": c["d"], "B": ""}


def run_bench(instances, args) -> list[dict]:
    """Run every instance with fixed seeds; errors become annotated rows."""
    rows = []
    for i, inst in enumerate(instances):
        row = {k: "" for k in _BENCH_COLUMNS}
        row["id"] = inst["id"]
        sub = {k: v for k, v in inst.items() if k != "id"}
        sub["schema_version"] = SCHEMA_VERSION
        try:
            row.update(_instance_facts(sub))
            row["delta"] = sub.get("delta", "")
            row["strategy"] = sub.get("strategy", "centerpoint")
            if sub["command"] == "adversary-run":
                out = cmd_adversary_run(sub, args)
                row["oracle_calls"] = out["oracle_calls"]
                row["lower_bound"] = out["lower_bound"]
                row["bound_ok"] = out["bound_ok"]
            else:
                out = cmd_solve(sub, args)
                row["oracle_calls"] = out["oracle_calls"]
                row["upper_bound"] = "" if out["upper_bound"] is None else out["upper_bound"]
                ok = (out["upper_bound"] is None
                      or out["oracle_calls"] <= out["upper_bound"])
                row["bound_ok"] = ok
        except Exception as exc:   # annotated row, never abort the suite
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["bound_ok"] = ""
        rows.append(row)
    return rows


def cmd_bench(doc, args) -> dict:
    rows = run_bench(doc["instances"], args)
    return {"command": "bench", "rows": rows}


_HANDLERS = {
    "depth": cmd_depth,
    "centerpoint": cmd_centerpoint,
    "solve": cmd_solve,
    "adversary-run": cmd_adversary_run,
    "bench": cmd_bench,
}


# ---------------------------------------------------------------------------
# rendering

def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    if v is None:
        return ""
    return str(v)


def _render(out: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if out.get("command") == "bench":
        w.writerow(_BENCH_COLUMNS)
        for row in out["rows"]:
            w.writerow([_csv_cell(row[k]) for k in _BENCH_COLUMNS])
    else:
        keys = sorted(out)
        w.writerow(keys)
        w.writerow([_csv_cell(out[k]) for k in keys])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="centercut",
                                description="halfspace-depth centerpoints and "
                                            "cutting-plane solving")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True, help="problem file (JSON)")
        sp.add_argument("--seed", type=int, default=None,
                        help="overrides the document seed (default 0)")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--method",
                        choices=("mc", "exact2d-int", "lenstra", "centroid"),
                        default=None)
        sp.add_argument("--strategy",
                        choices=("centerpoint", "centroid", "random"),
                        default=None)
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument("--C", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
        doc = parse_problem(text)
        if doc["command"] != args.command:
            raise SchemaError(
                f"$.command: document says {doc['command']!r} but the "
                f"{args.command!r} subcommand was invoked")
        out = _HANDLERS[args.command](doc, args)
        payload = _render(out, args.format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, RejectionStall, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Infeasible, Unbounded, EmptyRegion, EmptyLattice, InfeasibleStart,
            OutsideRegion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
