"""Problem-document parsing, the command-line entry point, and its exit
codes and output formats."""
import json

import numpy as np
import pytest

from centercut import adversary, cutplane, geom
from centercut.centerpoint import (ConstraintSet, centerpoint_lenstra_mixed,
                                   centerpoint_mixed_2d)
from centercut.cli import _COMMANDS, main, parse_problem, serialize
from centercut.depth import depth_finite
from centercut.errors import ParseError, SchemaError
from centercut.geom import Box, Polytope, enumerate_lattice_points
from centercut.measures import LatticeCounting, MixedInteger, UniformPolytope

SQUARE_ROWS = [[1, 0, 1], [-1, 0, 0], [0, 1, 1], [0, -1, 0]]
GRID4_ROWS = [[1, 0, 4], [-1, 0, 0], [0, 1, 4], [0, -1, 0]]
CUBE_ROWS = [[1, 0, 0, 2], [-1, 0, 0, 0], [0, 1, 0, 2], [0, -1, 0, 0],
             [0, 0, 1, 2], [0, 0, -1, 0]]
EMPTY_LATTICE_ROWS = [[1, 0, 0.8], [-1, 0, -0.2], [0, 1, 1], [0, -1, 0]]

DEPTH_DOC = {
    "schema_version": 1,
    "command": "depth",
    "measure": {"family": "finite",
                "points": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "point": [0.5, 0.5],
}

SOLVE_DOC = {
    "schema_version": 1,
    "command": "solve",
    "objective": {"type": "quadratic", "Q": [[1, 0], [0, 1]], "c": [0.3, 0.7]},
    "constraint": {"kind": "lattice", "n": 2},
    "measure": {"family": "lattice", "polytope": GRID4_ROWS},
    "E0": {"lower": [0, 0], "upper": [4, 4]},
    "delta": 0.5,
}


def _write(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(tmp_path, doc, command, extra=()):
    inp = _write(tmp_path, doc, f"{command}.json")
    out = tmp_path / f"{command}.out"
    code = main([command, "--input", inp, "--output", str(out)] + list(extra))
    return code, out


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal_documents():
    assert parse_problem(json.dumps(DEPTH_DOC))["command"] == "depth"
    assert parse_problem(json.dumps(SOLVE_DOC))["command"] == "solve"


def test_parse_invalid_json():
    with pytest.raises(ParseError):
        parse_problem("{nope")


def test_parse_missing_key_is_named():
    doc = {k: v for k, v in SOLVE_DOC.items() if k != "delta"}
    with pytest.raises(SchemaError, match="delta"):
        parse_problem(json.dumps(doc))


def test_parse_unknown_key_rejected():
    doc = dict(DEPTH_DOC, typo=1)
    with pytest.raises(SchemaError, match="typo"):
        parse_problem(json.dumps(doc))
    doc = dict(DEPTH_DOC)
    doc["measure"] = dict(doc["measure"], extra=[1])
    with pytest.raises(SchemaError, match="extra"):
        parse_problem(json.dumps(doc))


def test_parse_schema_version_checked():
    with pytest.raises(SchemaError, match="schema_version"):
        parse_problem(json.dumps(dict(DEPTH_DOC, schema_version=2)))
    doc = {k: v for k, v in DEPTH_DOC.items() if k != "schema_version"}
    with pytest.raises(SchemaError, match="schema_version"):
        parse_problem(json.dumps(doc))


def test_parse_bench_instances_validated():
    doc = {"schema_version": 1, "command": "bench",
           "instances": [{"id": "x", "command": "depth"}]}
    with pytest.raises(SchemaError, match="solve or adversary-run"):
        parse_problem(json.dumps(doc))


def test_serialize_round_trip_idempotent():
    for doc in (DEPTH_DOC, SOLVE_DOC):
        s1 = serialize(parse_problem(json.dumps(doc)))
        s2 = serialize(parse_problem(s1))
        assert s1 == s2


# ---------------------------------------------------------------------------
# subcommands end to end

def test_cli_depth(tmp_path):
    code, out = _run(tmp_path, DEPTH_DOC, "depth")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["value"] == 0.5
    assert got["exact"] is True
    assert got["gap"] == 0.0
    assert len(got["witness"]) == 2


@pytest.mark.parametrize("measure, point, value", [
    ({"family": "uniform", "polytope": SQUARE_ROWS}, [0.2, 0.7], 0.12),
    ({"family": "mixed", "polytope": [[1, 0, 2], [-1, 0, 0], [0, 1, 1], [0, -1, 0]],
      "n": 1, "d": 1}, [1.0, 0.2], 0.2),
])
def test_cli_depth_is_exact_for_smooth_families(tmp_path, measure, point, value):
    doc = {"schema_version": 1, "command": "depth", "measure": measure, "point": point}
    code, out = _run(tmp_path, doc, "depth")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["exact"] is True
    assert got["gap"] == 0.0
    assert got["value"] == pytest.approx(value, abs=1e-12)


def test_cli_centerpoint_exact_integer(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint",
           "measure": {"family": "lattice",
                       "polytope": [[1, 0, 2], [-1, 0, 0], [0, 1, 2], [0, -1, 0]]},
           "method": "exact2d-int"}
    code, out = _run(tmp_path, doc, "centerpoint")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["point"] == [1.0, 1.0]
    assert got["depth"] == 5.0 / 9.0
    assert got["method"] == "exact2d-int"
    assert got["guarantee"]["floor"] == 0.25


def test_cli_centerpoint_centroid(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint",
           "measure": {"family": "uniform", "polytope": SQUARE_ROWS},
           "method": "centroid"}
    code, out = _run(tmp_path, doc, "centerpoint")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["point"] == [0.5, 0.5]
    assert got["depth"] == pytest.approx(0.5, abs=1e-9)
    assert got["guarantee"]["grunbaum_floor"] == pytest.approx(4.0 / 9.0)


def test_cli_centerpoint_mc_sample_count(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint",
           "measure": {"family": "uniform", "polytope": SQUARE_ROWS},
           "method": "mc", "eps": 0.15, "delta": 0.2, "seed": 4}
    code, out = _run(tmp_path, doc, "centerpoint")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["samples_used"] == 103
    assert abs(got["point"][0] - 0.5) <= 0.2


def test_cli_solve(tmp_path):
    code, out = _run(tmp_path, SOLVE_DOC, "solve")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["best_point"] == [0.0, 1.0]
    assert got["best_value"] == pytest.approx(0.18, abs=1e-12)
    assert got["oracle_calls"] == got["iterations"]
    assert got["upper_bound"] == 13


def test_cli_flag_overrides_document(tmp_path):
    code, out = _run(tmp_path, SOLVE_DOC, "solve", ["--delta", "0.9"])
    assert code == 0
    assert json.loads(out.read_text())["delta"] == 0.9


def test_cli_seed_flag_overrides_document_seed(tmp_path):
    doc = dict(SOLVE_DOC, seed=5, strategy="random")
    outs = {s: _run(tmp_path, doc, "solve", ["--seed", str(s)])[1].read_text()
            for s in (1, 2, 3, 5)}
    assert len({outs[1], outs[2], outs[3]}) > 1
    assert outs[5] == _run(tmp_path, doc, "solve")[1].read_text()
    # --seed 0 is a seed like any other, not "unset"
    cp = {"schema_version": 1, "command": "centerpoint",
          "measure": {"family": "uniform", "polytope": SQUARE_ROWS},
          "method": "mc", "eps": 0.3, "delta": 0.2}
    zero = _run(tmp_path, dict(cp, seed=0), "centerpoint")[1].read_text()
    assert _run(tmp_path, dict(cp, seed=4), "centerpoint", ["--seed", "0"])[1].read_text() == zero
    assert _run(tmp_path, dict(cp, seed=4), "centerpoint")[1].read_text() != zero


@pytest.mark.parametrize("measure", [
    {"family": "lattice", "polytope": GRID4_ROWS},
    {"family": "mixed", "polytope": SQUARE_ROWS, "n": 1, "d": 1},
    {"family": "finite", "points": [[0, 0], [1, 0], [0, 1]]},
])
def test_cli_centroid_rejects_non_uniform_measures(tmp_path, measure):
    doc = {"schema_version": 1, "command": "centerpoint", "measure": measure}
    inp = _write(tmp_path, doc)
    assert main(["centerpoint", "--input", inp, "--method", "centroid"]) == 2


@pytest.mark.parametrize("measure, method", [
    ({"family": "mixed", "polytope": CUBE_ROWS, "n": 1, "d": 2}, "exact2d-int"),
    ({"family": "mixed", "polytope": CUBE_ROWS, "n": 1, "d": 2}, "lenstra"),
    ({"family": "mixed", "polytope": CUBE_ROWS, "n": 1, "d": 2}, "mc"),
    ({"family": "lattice", "polytope": CUBE_ROWS}, "exact2d-int"),
])
def test_cli_centerpoint_rejects_unsupported_method_measure_pairs(tmp_path, capsys,
                                                                  measure, method):
    doc = {"schema_version": 1, "command": "centerpoint", "measure": measure}
    inp = _write(tmp_path, doc)
    assert main(["centerpoint", "--input", inp, "--method", method]) == 2
    assert "$.method" in capsys.readouterr().err


def test_cli_centerpoint_mc_lattice_constraint_on_finite_points(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint", "method": "mc",
           "measure": {"family": "finite",
                       "points": [[0, 0], [3, 0], [0, 3], [3, 3], [1.5, 1.2]]},
           "constraint": {"kind": "lattice", "n": 2}}
    code, out = _run(tmp_path, doc, "centerpoint")
    assert code == 0
    point = json.loads(out.read_text())["point"]
    assert len(point) == 2 and all(c == int(c) for c in point)


def test_cli_adversary_run(tmp_path):
    doc = {"schema_version": 1, "command": "adversary-run",
           "game": {"kind": "integer_fiber", "n": 2, "B": 8}, "delta": 0.5}
    code, out = _run(tmp_path, doc, "adversary-run")
    assert code == 0
    got = json.loads(out.read_text())
    assert got["lower_bound"] == 8
    assert got["bound_ok"] is True
    assert got["consistent"] is True


def test_cli_csv_format(tmp_path):
    code, out = _run(tmp_path, DEPTH_DOC, "depth", ["--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "command"


# ---------------------------------------------------------------------------
# answers equal the library's, bit for bit

TRAPEZOID_ROWS = [[1, 0, 3], [-1, 0, 0], [0, -1, 0], [0.2, 1, 1.6]]   # n = 1, d = 1
PRISM_ROWS = [[1, 0, 0, 3], [-1, 0, 0, 0], [0, 1, 0, 2], [0, -1, 0, 0],
              [0, 0, -1, 0], [0.1, -0.2, 1, 1.5]]                      # n = 2, d = 1
AFFINE_MAX = {"type": "affine_max", "pieces": [[1, 0.5, -1.2], [-1, 0.2, 0.9], [0, -1, 0.4]]}
SUM_OBJECTIVE = {"type": "sum", "parts": [
    AFFINE_MAX, {"type": "quadratic", "Q": [[1, 0.2], [0.2, 2]], "c": [1.1, 0.6], "r": 0.5}]}


def _library_objective(spec):
    if spec["type"] == "affine_max":
        return cutplane.AffineMax([(np.array(p[:-1], dtype=float), p[-1])
                                   for p in spec["pieces"]])
    if spec["type"] == "quadratic":
        return cutplane.ConvexQuadratic(np.array(spec["Q"], dtype=float),
                                        np.array(spec["c"], dtype=float), spec.get("r", 0.0))
    return cutplane.Sum([_library_objective(p) for p in spec["parts"]])


def _solve_fields(rep):
    trace = rep.iteration_trace
    return {"best_point": rep.best_point.tolist(), "best_value": rep.best_value,
            "oracle_calls": rep.oracle_calls, "iterations": len(trace),
            "stop_reason": rep.stop_reason, "final_mass": trace[-1].mass_after,
            "upper_bound": rep.bound_comparison[0], "lower_bound": rep.bound_comparison[1]}


def _cli_json(tmp_path, doc, extra=()):
    code, out = _run(tmp_path, doc, doc["command"], extra)
    assert code == 0
    return json.loads(out.read_text())


def test_cli_exact2d_int_on_a_mixed_measure_is_the_library_answer(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint", "method": "exact2d-int",
           "measure": {"family": "mixed", "polytope": TRAPEZOID_ROWS, "n": 1, "d": 1}}
    got = _cli_json(tmp_path, doc)
    res = centerpoint_mixed_2d(MixedInteger(Polytope.from_rows(TRAPEZOID_ROWS), 1, 1))
    assert got["point"] == res.point.tolist() and got["depth"] == res.depth.value
    assert (got["depth_exact"], got["depth_gap"]) == (True, 0.0)
    assert got["method"] == res.method


@pytest.mark.parametrize("rows, n", [(TRAPEZOID_ROWS, 1), (PRISM_ROWS, 2)])
def test_cli_lenstra_flag_is_the_library_answer(tmp_path, rows, n):
    doc = {"schema_version": 1, "command": "centerpoint",
           "measure": {"family": "mixed", "polytope": rows, "n": n, "d": 1}}
    got = _cli_json(tmp_path, doc, ["--method", "lenstra"])
    res = centerpoint_lenstra_mixed(Polytope.from_rows(rows), n, 1)
    assert got["point"] == res.point.tolist() and got["depth"] == res.depth.value
    assert (got["depth_exact"], got["depth_gap"]) == (res.depth.exact, res.depth.gap)
    assert (got["method"], got["samples_used"]) == (res.method, res.samples_used)


@pytest.mark.parametrize("objective", [AFFINE_MAX, SUM_OBJECTIVE], ids=["affine_max", "sum"])
@pytest.mark.parametrize("strategy", ["centerpoint", "centroid"])
def test_cli_solve_of_affine_max_and_sum_objectives_is_the_library_answer(
        tmp_path, objective, strategy):
    doc = {"schema_version": 1, "command": "solve", "objective": objective,
           "constraint": {"kind": "continuous", "dim": 2},
           "measure": {"family": "uniform", "polytope": GRID4_ROWS},
           "E0": {"lower": [0, 0], "upper": [4, 4]}, "delta": 0.05, "strategy": strategy}
    got = _cli_json(tmp_path, doc)
    strat = cutplane.Centerpoint() if strategy == "centerpoint" else cutplane.Centroid()
    rep = cutplane.solve(_library_objective(objective), ConstraintSet.continuous(2),
                         UniformPolytope(Polytope.from_rows(GRID4_ROWS)),
                         Box([0.0, 0.0], [4.0, 4.0]), 0.05, strategy=strat)
    assert {k: got[k] for k in _solve_fields(rep)} == _solve_fields(rep)
    assert rep.oracle_calls > 3


def test_cli_adversary_run_on_the_continuous_median_is_the_library_answer(tmp_path):
    doc = {"schema_version": 1, "command": "adversary-run", "delta": 1.0,
           "game": {"kind": "continuous_median", "E0": {"lower": [0, 0], "upper": [8, 8]}}}
    got = _cli_json(tmp_path, doc)
    game = adversary.ContinuousMedian(Box([0.0, 0.0], [8.0, 8.0]))
    rep = cutplane.solve(cutplane.Adversarial(game), adversary.game_constraint_set(game),
                         adversary.game_measure(game), game.E0, 1.0)
    lower = adversary.lower_bound_for(game, 1.0)
    assert got == {"command": "adversary-run", "game": "continuous_median",
                   "oracle_calls": rep.oracle_calls, "lower_bound": lower,
                   "bound_ok": rep.oracle_calls >= lower, "stop_reason": rep.stop_reason,
                   "best_value": rep.best_value, "consistent": adversary.is_consistent(game),
                   "strategy": "centerpoint", "delta": 1.0}


def test_cli_bench_rows_of_continuous_and_mixed_solves_are_the_library_answers(tmp_path):
    uniform = {"command": "solve", "objective": SUM_OBJECTIVE,
               "constraint": {"kind": "continuous", "dim": 2},
               "measure": {"family": "uniform", "polytope": GRID4_ROWS},
               "E0": {"lower": [0, 0], "upper": [4, 4]}, "delta": 0.05}
    mixed = {"command": "solve", "objective": AFFINE_MAX,
             "constraint": {"kind": "mixed", "n": 1, "d": 1},
             "measure": {"family": "mixed", "polytope": TRAPEZOID_ROWS, "n": 1, "d": 1},
             "E0": {"lower": [0, 0], "upper": [4, 2]}, "delta": 0.02}
    doc = {"schema_version": 1, "command": "bench",
           "instances": [{"id": "uniform", **uniform}, {"id": "mixed", **mixed}]}
    rows = _cli_json(tmp_path, doc)["rows"]
    reps = [cutplane.solve(_library_objective(AFFINE_MAX if i else SUM_OBJECTIVE),
                           S, m, E0, delta)
            for i, (S, m, E0, delta) in enumerate([
                (ConstraintSet.continuous(2), UniformPolytope(Polytope.from_rows(GRID4_ROWS)),
                 Box([0.0, 0.0], [4.0, 4.0]), 0.05),
                (ConstraintSet.mixed(1, 1),
                 MixedInteger(Polytope.from_rows(TRAPEZOID_ROWS), 1, 1),
                 Box([0.0, 0.0], [4.0, 2.0]), 0.02)])]
    facts = [("continuous", 0, 2, 0.05), ("mixed", 1, 1, 0.02)]
    for row, rep, (kind, n, d, delta) in zip(rows, reps, facts):
        upper = rep.bound_comparison[0]
        assert row == {"id": row["id"], "kind": kind, "n": n, "d": d, "B": "", "delta": delta,
                       "strategy": "centerpoint", "oracle_calls": rep.oracle_calls,
                       "upper_bound": upper, "lower_bound": "",
                       "bound_ok": rep.oracle_calls <= upper, "error": ""}
    assert [r["id"] for r in rows] == ["uniform", "mixed"]


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["depth", "--input", str(bad)]) == 2
    assert main(["depth", "--input", str(tmp_path / "missing.json")]) == 2


def test_exit_code_command_mismatch(tmp_path):
    inp = _write(tmp_path, DEPTH_DOC)
    assert main(["centerpoint", "--input", inp]) == 2


def test_exit_code_budget(tmp_path):
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "lattice",
                       "polytope": [[1, 0, 4000], [-1, 0, 0],
                                    [0, 1, 4000], [0, -1, 0]]},
           "point": [1.0, 1.0]}
    inp = _write(tmp_path, doc)
    assert main(["depth", "--input", inp]) == 3


def test_exit_code_budget_mixed_fiber_grid(tmp_path, capsys):
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "mixed", "polytope": [[1, 0, 1e9], [-1, 0, 0],
                                                      [0, 1, 1], [0, -1, 0]],
                       "n": 1, "d": 1},
           "point": [1.0, 0.5]}
    assert main(["depth", "--input", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("error: fiber grid")


BOX4_ROWS = np.vstack([np.hstack([np.eye(4), np.full((4, 1), 2.0)]),
                       np.hstack([-np.eye(4), np.zeros((4, 1))])]).tolist()


DIM4_DOCS = [
    ("depth", {"measure": {"family": "uniform", "polytope": BOX4_ROWS}, "point": [1, 1, 1, 1]}),
    ("depth", {"measure": {"family": "lattice", "polytope": BOX4_ROWS}, "point": [1, 1, 1, 1]}),
    ("depth", {"measure": {"family": "mixed", "polytope": BOX4_ROWS, "n": 1, "d": 3},
               "point": [1, 1, 1, 1]}),
    ("centerpoint", {"measure": {"family": "uniform", "polytope": BOX4_ROWS}}),
    ("centerpoint", {"measure": {"family": "lattice", "polytope": BOX4_ROWS}}),
    ("centerpoint", {"measure": {"family": "mixed", "polytope": BOX4_ROWS, "n": 2, "d": 2}}),
    ("adversary-run", {"game": {"kind": "mixed_fiber", "n": 2, "d": 2, "B": 4}, "delta": 1.0}),
    # n + d does not match the rows: a ValueError traceback before the
    # row width was checked
    ("depth", {"measure": {"family": "mixed", "polytope": BOX4_ROWS, "n": 1, "d": 1},
               "point": [1, 1, 1, 1]}),
]


@pytest.mark.parametrize("command, doc", DIM4_DOCS)
def test_exit_code_dimension_above_three(tmp_path, capsys, command, doc):
    inp = _write(tmp_path, {"schema_version": 1, "command": command, **doc})
    assert main([command, "--input", inp]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc", DIM4_DOCS)
def test_dimension_above_three_exits_before_any_lp(tmp_path, spy, command, doc):
    lps = spy(geom, "_lp_feasible_bounded")
    inp = _write(tmp_path, {"schema_version": 1, "command": command, **doc})
    assert main([command, "--input", inp]) == 3
    assert lps == []


# documents the library rejects with a ValueError: each exits 2 naming the
# document path, before any solve
BAD_VALUE_DOCS = [
    ("centerpoint", "$.eps", {"measure": {"family": "uniform", "polytope": SQUARE_ROWS},
                              "eps": 0}),
    ("solve", "$.objective", dict(SOLVE_DOC, objective={
        "type": "quadratic", "Q": [[1, 1], [0, 1]], "c": [0.3, 0.7]})),
    ("solve", "$.objective", dict(SOLVE_DOC, objective={
        "type": "quadratic", "Q": [[1, 0], [0, -1]], "c": [0.3, 0.7]})),
    ("solve", "$.objective", dict(SOLVE_DOC, objective={
        "type": "quadratic", "Q": np.eye(3).tolist(), "c": [0.3, 0.7, 0.1]})),
    ("solve", "$.E0", dict(SOLVE_DOC, E0={"lower": [0, 0, 0], "upper": [4, 4, 4]})),
    ("depth", "$.measure", {"measure": {"family": "finite", "points": [[0, 0], [1, 0], [0, 1]],
                                        "weights": [1, 0, 1]}, "point": [0.2, 0.2]}),
    ("depth", "$.measure", {"measure": {"family": "mixed", "polytope": SQUARE_ROWS,
                                        "n": 0, "d": 2}, "point": [0.5, 0.5]}),
    ("centerpoint", "$.constraint", {"measure": {"family": "uniform", "polytope": SQUARE_ROWS},
                                     "constraint": {"kind": "continuous", "dim": 0}}),
    ("adversary-run", "$.game", {"game": {"kind": "integer_fiber", "n": 0, "B": 8},
                                 "delta": 0.5}),
    # a constraint of another dimension than the measure's would give the
    # solve a 3D upper bound and the query a 3D guarantee
    ("solve", "$.constraint", dict(SOLVE_DOC, constraint={"kind": "lattice", "n": 3})),
    ("centerpoint", "$.constraint", {"measure": {"family": "uniform", "polytope": SQUARE_ROWS},
                                     "constraint": {"kind": "continuous", "dim": 3},
                                     "method": "mc", "eps": 0.3, "delta": 0.2}),
]


@pytest.mark.parametrize("command, path, doc", BAD_VALUE_DOCS)
def test_exit_code_bad_values_name_their_path(tmp_path, capsys, command, path, doc):
    inp = _write(tmp_path, {**doc, "schema_version": 1, "command": command})
    assert main([command, "--input", inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("error:") == 1
    assert "Traceback" not in err


# json reads NaN, Infinity and 1e400 as floats; each names its path, exit 2
NON_FINITE_TEXTS = [
    ("depth", "$.point[0]", '{"measure": {"family": "uniform", "polytope": %s}, '
                            '"point": [NaN, 0.5]}' % json.dumps(SQUARE_ROWS)),
    ("depth", "$.point[0]", '{"measure": {"family": "finite", "points": [[0, 0], [1, 0], '
                            '[0, 1]]}, "point": [Infinity, 0.5]}'),
    ("depth", "$.measure.polytope[0][2]", '{"measure": {"family": "uniform", "polytope": '
                                          '[[1, 0, Infinity], [-1, 0, 0], [0, 1, 1], '
                                          '[0, -1, 0]]}, "point": [0.5, 0.5]}'),
    ("solve", "$.objective.c[1]", json.dumps({k: v for k, v in SOLVE_DOC.items()
                                              if k not in ("schema_version", "command")})
     .replace('"c": [0.3, 0.7]', '"c": [0.3, 1e400]')),
    ("depth", "$.point[1]", '{"measure": {"family": "uniform", "polytope": %s}, '
                            '"point": [0.5, -1%s]}' % (json.dumps(SQUARE_ROWS), "0" * 400)),
]


@pytest.mark.parametrize("command, path, text", NON_FINITE_TEXTS, ids=[
    "nan-point", "infinite-point", "infinite-polytope-row", "overflowing-objective",
    "integer-past-float-range"])
def test_exit_code_non_finite_numbers_name_their_path(tmp_path, capsys, command, path, text):
    inp = tmp_path / "in.json"
    inp.write_text('{"schema_version": 1, "command": "%s", %s' % (command, text[1:]))
    assert main([command, "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: expected a finite number\n"


def test_exit_code_integer_past_the_parser_digit_limit(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text('{"schema_version": 1, "command": "depth", "point": [1%s]}' % ("0" * 5000))
    assert main(["depth", "--input", str(inp)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


CENTROID_DOC = {"schema_version": 1, "command": "centerpoint", "method": "centroid",
                "measure": {"family": "uniform", "polytope": SQUARE_ROWS}}


@pytest.mark.parametrize("command, doc, flags, path, msg", [
    ("solve", SOLVE_DOC, ["--delta", "nan"], "$.delta", "expected a finite number"),
    ("solve", SOLVE_DOC, ["--delta", "inf"], "$.delta", "expected a finite number"),
    ("adversary-run", {"schema_version": 1, "command": "adversary-run", "delta": 0.5,
                       "game": {"kind": "integer_fiber", "n": 2, "B": 8}},
     ["--delta", "nan"], "$.delta", "expected a finite number"),
    ("centerpoint", CENTROID_DOC, ["--eps", "nan"], "$.eps", "expected a finite number"),
    ("centerpoint", CENTROID_DOC, ["--delta=-inf"], "$.delta", "expected a finite number"),
    ("centerpoint", CENTROID_DOC, ["--C", "nan"], "$.C", "expected a finite number"),
    ("centerpoint", CENTROID_DOC, ["--C", "inf"], "$.C", "expected a finite number"),
    ("centerpoint", CENTROID_DOC, ["--C", "0"], "$.C", "C must be positive"),
    ("centerpoint", CENTROID_DOC, ["--C", "-1"], "$.C", "C must be positive"),
    ("centerpoint", dict(CENTROID_DOC, method="mc", C=0), [], "$.C", "C must be positive"),
    ("centerpoint", dict(CENTROID_DOC, eps="0.1"), [], "$.eps", "expected a number"),
])
def test_exit_code_bad_numeric_flags_name_their_path(tmp_path, capsys, command, doc, flags,
                                                     path, msg):
    assert main([command, "--input", _write(tmp_path, doc)] + flags) == 2
    assert capsys.readouterr().err == f"error: {path}: {msg}\n"


ADVERSARY_DOC = {"schema_version": 1, "command": "adversary-run", "delta": 0.5,
                 "game": {"kind": "integer_fiber", "n": 2, "B": 8}}
SOLVE_INSTANCE = {k: v for k, v in SOLVE_DOC.items() if k != "schema_version"}


@pytest.mark.parametrize("command, doc, flags, path", [
    ("solve", dict(SOLVE_DOC, budget=-3), [], "$.budget"),
    ("solve", SOLVE_DOC, ["--budget", "-3"], "$.budget"),
    ("adversary-run", dict(ADVERSARY_DOC, budget=-3), [], "$.budget"),
    ("adversary-run", ADVERSARY_DOC, ["--budget", "-3"], "$.budget"),
    ("bench", {"schema_version": 1, "command": "bench", "instances": [
        dict(SOLVE_INSTANCE, id="q", budget=-3)]}, [], "$.instances[0].budget"),
])
def test_exit_code_negative_budget_names_its_path(tmp_path, capsys, command, doc, flags, path):
    # a negative budget made no oracle call and printed stop_reason "budget"
    assert main([command, "--input", _write(tmp_path, doc)] + flags) == 2
    assert capsys.readouterr().err == f"error: {path}: expected an integer >= 0\n"


def test_bench_negative_budget_flag_annotates_every_row(tmp_path):
    game = {"id": "g", "command": "adversary-run", "delta": 0.5, "game": ADVERSARY_DOC["game"]}
    doc = {"schema_version": 1, "command": "bench",
           "instances": [dict(SOLVE_INSTANCE, id="q"), game]}
    code, out = _run(tmp_path, doc, "bench", ["--budget", "-3"])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["error"], r["bound_ok"]) for r in rows] == [
        ("SchemaError: $.budget: expected an integer >= 0", "")] * 2


def test_cli_zero_budget_makes_no_oracle_call(tmp_path):
    code, out = _run(tmp_path, SOLVE_DOC, "solve", ["--budget", "0"])
    assert code == 0
    res = json.loads(out.read_text())
    assert (res["oracle_calls"], res["stop_reason"], res["best_point"]) == (0, "budget", None)


def test_cli_depth_of_a_3d_uniform_measure_is_sampled(tmp_path):
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "uniform", "polytope": CUBE_ROWS}, "point": [1.0, 0.7, 1.2]}
    code, out = _run(tmp_path, doc, "depth")
    assert code == 0
    got = json.loads(out.read_text())
    assert (got["exact"], got["gap"]) == (False, 1.0)
    assert 0.0 < got["value"] <= 0.5


def test_cli_centerpoint_solve_ignores_the_seed(tmp_path):
    # the Centerpoint strategy draws nothing, so --seed changes no byte
    doc = {"schema_version": 1, "command": "solve",
           "objective": {"type": "quadratic", "Q": np.eye(3).tolist(), "c": [1.3, 1.1, 0.7]},
           "constraint": {"kind": "continuous", "dim": 3},
           "measure": {"family": "uniform", "polytope": CUBE_ROWS},
           "E0": {"lower": [0, 0, 0], "upper": [2, 2, 2]}, "delta": 0.5}
    outs = [_run(tmp_path, doc, "solve", ["--seed", s])[1].read_bytes() for s in ("0", "7")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["stop_reason"] == "mass_below_delta"


# [-0.25, 3.5]: each side of x = 1 against the length 3.75
INTERVAL_ROWS = [[1, 3.5], [-1, 0.25]]


@pytest.mark.parametrize("x, value, witness", [
    (1.0, 1.25 / 3.75, -1.0), (2.0, 1.5 / 3.75, 1.0), (1.625, 0.5, 1.0),
    (-0.25, 0.0, -1.0), (3.5, 0.0, 1.0), (-1.0, 0.0, -1.0), (4.0, 0.0, 1.0),
])
def test_cli_depth_in_an_interval_is_exact(tmp_path, x, value, witness):
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "uniform", "polytope": INTERVAL_ROWS}, "point": [x]}
    code, out = _run(tmp_path, doc, "depth")
    assert code == 0
    got = json.loads(out.read_text())
    assert (got["value"], got["witness"], got["exact"], got["gap"]) == \
        (value, [witness], True, 0.0)


def test_cli_centroid_depth_in_an_interval_is_exact(tmp_path):
    doc = {"schema_version": 1, "command": "centerpoint", "method": "centroid",
           "measure": {"family": "uniform", "polytope": INTERVAL_ROWS}}
    code, out = _run(tmp_path, doc, "centerpoint")
    assert code == 0
    got = json.loads(out.read_text())
    assert (got["point"], got["depth"], got["depth_exact"], got["depth_gap"]) == \
        ([1.625], 0.5, True, 0.0)


def test_cli_depth_of_a_3d_lattice_is_exact(tmp_path):
    rows = [[1, 0, 0, 2], [-1, 0, 0, 0], [0, 1, 0, 2], [0, -1, 0, 0], [1, 1, 1, 3.5],
            [0, 0, -1, 0]]
    point = [0.5, 1.0, 0.5]
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "lattice", "polytope": rows}, "point": point}
    code, out = _run(tmp_path, doc, "depth")
    assert code == 0
    got = json.loads(out.read_text())
    pts = enumerate_lattice_points(Polytope.from_rows(rows)).astype(float)
    assert got["exact"] is True
    assert got["gap"] == 0.0
    assert got["value"] == depth_finite(pts, point).value


def test_exit_code_empty_region(tmp_path):
    doc = {"schema_version": 1, "command": "depth",
           "measure": {"family": "lattice", "polytope": EMPTY_LATTICE_ROWS},
           "point": [0.5, 0.5]}
    inp = _write(tmp_path, doc)
    assert main(["depth", "--input", inp]) == 4


def test_exit_code_mc_lattice_constraint_without_integer_points(tmp_path, capsys):
    doc = {"schema_version": 1, "command": "centerpoint", "method": "mc",
           "measure": {"family": "uniform", "polytope": [[1, 0, 0.8], [-1, 0, -0.2],
                                                         [0, 1, 0.8], [0, -1, -0.2]]},
           "constraint": {"kind": "lattice", "n": 2}}
    inp = _write(tmp_path, doc)
    assert main(["centerpoint", "--input", inp]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_lattice_past_the_int64_range(tmp_path, capsys):
    # [0, 1e19] x [0, 1] holds more lattice points than the cap and than
    # int64 can count: exit 3, not an empty lattice
    doc = {"schema_version": 1, "command": "depth", "point": [1.0, 0.5],
           "measure": {"family": "lattice", "polytope": [[1, 0, 1e19], [-1, 0, 0],
                                                        [0, 1, 1], [0, -1, 0]]}}
    assert main(["depth", "--input", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("error: lattice grid of size 20000000000000000002")


def test_exit_code_mc_lattice_sample_above_the_cap(tmp_path, capsys, spy):
    # eps 1e-3 asks for 2,651,293 sample points, more than CANDIDATE_CAP
    doc = {"schema_version": 1, "command": "centerpoint", "method": "mc", "eps": 1e-3,
           "measure": {"family": "lattice", "polytope": GRID4_ROWS}}
    calls = spy(LatticeCounting, "sample")
    assert main(["centerpoint", "--input", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err == "error: 2651293 sample points exceed cap 1000000\n"
    assert calls == []


@pytest.mark.parametrize("game", [{"kind": "integer_fiber", "n": 10 ** 7, "B": 8},
                                  {"kind": "mixed_fiber", "n": 10 ** 7, "d": 1, "B": 8},
                                  {"kind": "mixed_fiber", "n": 2, "d": 2, "B": 8}],
                         ids=["integer-n1e7", "mixed-n1e7", "mixed-n2-d2"])
def test_fiber_game_above_dimension_three_is_not_built(tmp_path, capsys, spy, game):
    # the dimension comes from the document, so no game builds its n-entry
    # box (129 MB at n = 4e6) before the check
    built = [spy(adversary, "IntegerFiber"), spy(adversary, "MixedFiber")]
    doc = {"schema_version": 1, "command": "adversary-run", "game": game, "delta": 0.5}
    assert main(["adversary-run", "--input", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {game['kind']} games support")
    assert built == [[], []]


@pytest.mark.parametrize("B", [2 ** 53 + 1, 10 ** 195, 10 ** 400],
                         ids=["2**53+1", "1e195", "1e400"])
@pytest.mark.parametrize("kind, extra", [("integer_fiber", {"n": 2}),
                                         ("mixed_fiber", {"n": 1, "d": 1}),
                                         ("mixed_fiber", {"n": 1, "d": 2})],
                         ids=["integer", "mixed-d1", "mixed-d2"])
def test_fiber_game_range_past_float64_integers_names_its_path(tmp_path, capsys, kind,
                                                                extra, B):
    # float64 holds every integer only up to 2**53; the games compute in it
    doc = {"schema_version": 1, "command": "adversary-run", "delta": 0.5,
           "game": {"kind": kind, "B": B, **extra}}
    assert main(["adversary-run", "--input", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: $.game.B: expected an integer <= 2**53\n"
    bench = {"schema_version": 1, "command": "bench",
             "instances": [{"id": "big", **{k: v for k, v in doc.items()
                                            if k != "schema_version"}}]}
    assert main(["bench", "--input", _write(tmp_path, bench, "bench.json")]) == 2
    assert capsys.readouterr().err.startswith("error: $.instances[0].game.B: ")


def test_fiber_game_range_of_float64_integers_is_accepted():
    doc = {"schema_version": 1, "command": "adversary-run", "delta": 0.5,
           "game": {"kind": "mixed_fiber", "n": 1, "d": 1, "B": 2 ** 53}}
    assert parse_problem(json.dumps(doc)) == doc


@pytest.mark.parametrize("d, calls", [(1, 3), (2, 2)])
def test_mixed_fiber_game_at_the_top_of_its_range_stops_stalled(tmp_path, d, calls):
    # the picks repeat once the interior nudge falls below an ulp; the solve
    # stops there instead of spinning to the default budget of 10,000 calls
    doc = {"schema_version": 1, "command": "adversary-run", "delta": 0.5,
           "game": {"kind": "mixed_fiber", "n": 1, "d": d, "B": 2 ** 53}}
    code, out = _run(tmp_path, doc, "adversary-run")
    assert code == 0
    got = json.loads(out.read_text())
    assert (got["stop_reason"], got["oracle_calls"]) == ("stalled", calls)
    assert got["bound_ok"] is False and got["consistent"] is True


_FINITE = {"family": "finite", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
_DEPTH = {"command": "depth", "measure": _FINITE, "point": [0.5, 0.5]}
_SOLVE = {k: v for k, v in SOLVE_DOC.items() if k != "schema_version"}
_ADVERSARY = {"command": "adversary-run", "game": {"kind": "integer_fiber", "n": 2, "B": 8},
              "delta": 0.5}
_CENTERPOINT = {"command": "centerpoint", "measure": _FINITE}

# one document per schema check: each exits 2 and names its document path
SCHEMA_ERROR_DOCS = {
    "not-an-object": ("$.E0", dict(_SOLVE, E0=[0, 4])),
    "not-an-integer": ("$.measure.n", dict(_DEPTH, measure={
        "family": "mixed", "polytope": SQUARE_ROWS, "n": 1.5, "d": 1})),
    "empty-vector": ("$.point", dict(_DEPTH, point=[])),
    "not-a-matrix": ("$.measure.points", dict(_DEPTH, measure={"family": "finite",
                                                               "points": 5})),
    "ragged-matrix": ("$.measure.points", dict(_DEPTH, measure={"family": "finite",
                                                                "points": [[0, 0], [1]]})),
    "short-polytope-rows": ("$.measure.polytope", dict(_DEPTH, measure={
        "family": "uniform", "polytope": [[1], [2]]})),
    "box-lengths": ("$.E0", dict(_SOLVE, E0={"lower": [0, 0], "upper": [4]})),
    "measure-without-family": ("$.measure", dict(_DEPTH, measure={"points": [[0, 0]]})),
    "weights-per-point": ("$.measure.weights", dict(_DEPTH, measure=dict(_FINITE,
                                                                          weights=[1]))),
    "unknown-family": ("$.measure.family", dict(_DEPTH, measure={"family": "gaussian"})),
    "constraint-without-kind": ("$.constraint", dict(_SOLVE, constraint={"n": 2})),
    "unknown-constraint": ("$.constraint.kind", dict(_SOLVE, constraint={"kind": "boolean"})),
    "objective-without-type": ("$.objective", dict(_SOLVE, objective={"c": [0, 0]})),
    "short-pieces": ("$.objective.pieces", dict(_SOLVE, objective={"type": "affine_max",
                                                                   "pieces": [[1], [2]]})),
    "non-square-Q": ("$.objective.Q", dict(_SOLVE, objective={"type": "quadratic",
                                                              "Q": [[1, 0]], "c": [0, 0]})),
    "empty-parts": ("$.objective.parts", dict(_SOLVE, objective={"type": "sum", "parts": []})),
    "unknown-objective": ("$.objective.type", dict(_SOLVE, objective={"type": "cubic"})),
    "game-without-kind": ("$.game", dict(_ADVERSARY, game={"n": 2, "B": 8})),
    "unknown-game": ("$.game.kind", dict(_ADVERSARY, game={"kind": "chess"})),
    "unknown-method": ("$.method", dict(_CENTERPOINT, method="newton")),
    "unknown-strategy": ("$.strategy", dict(_SOLVE, strategy="greedy")),
    "not-a-document": ("$", [1, 2]),
    "missing-command": ("$", {}),
    "unknown-command": ("$.command", {"command": "optimize"}),
    "instances-not-a-list": ("$.instances", {"command": "bench", "instances": {}}),
    "instance-not-an-object": ("$.instances[0]", {"command": "bench", "instances": [5]}),
    "instance-without-id": ("$.instances[0]", {"command": "bench",
                                               "instances": [{"command": "solve"}]}),
    "instance-id-not-a-string": ("$.instances[0].id", {"command": "bench",
                                                      "instances": [{"id": 5}]}),
    "point-dimension": ("$.point", dict(_DEPTH, point=[0.5])),
    "C-not-positive": ("$.C", dict(_CENTERPOINT, C=0)),
    "delta-out-of-range": ("$.delta", dict(_CENTERPOINT, delta=1)),
}


@pytest.mark.parametrize("case", list(SCHEMA_ERROR_DOCS))
def test_exit_code_schema_errors_name_their_path(tmp_path, capsys, case):
    path, doc = SCHEMA_ERROR_DOCS[case]
    command = "depth"   # the subcommand of a document without a known command
    if isinstance(doc, dict):
        doc = {"schema_version": 1, **doc}
        command = doc.get("command") if doc.get("command") in _COMMANDS else command
    assert main([command, "--input", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("error:") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bench

BENCH_DOC = {
    "schema_version": 1,
    "command": "bench",
    "instances": [
        {"id": "quad-lattice", **{k: v for k, v in SOLVE_DOC.items()
                                  if k != "schema_version"}},
        {"id": "fiber-8", "command": "adversary-run",
         "game": {"kind": "integer_fiber", "n": 2, "B": 8}, "delta": 0.5},
        {"id": "empty", "command": "solve",
         "objective": {"type": "quadratic", "Q": [[1, 0], [0, 1]], "c": [0, 0]},
         "constraint": {"kind": "lattice", "n": 2},
         "measure": {"family": "lattice", "polytope": EMPTY_LATTICE_ROWS},
         "E0": {"lower": [0, 0], "upper": [1, 1]}, "delta": 0.5},
    ],
}


def test_bench_rows_and_error_annotation(tmp_path):
    code, out = _run(tmp_path, BENCH_DOC, "bench", ["--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,kind,n,d,B,delta,strategy,oracle_calls")
    assert len(lines) == 4
    by_id = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert "EmptyRegion" in by_id["empty"]
    assert ",true," in by_id["fiber-8"]
    assert by_id["quad-lattice"].split(",")[1] == "lattice"


def test_bench_byte_identical_reruns(tmp_path):
    inp = _write(tmp_path, BENCH_DOC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "--input", inp, "--output", str(out1),
                 "--format", "csv"]) == 0
    assert main(["bench", "--input", inp, "--output", str(out2),
                 "--format", "csv"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_empty_suite(tmp_path):
    doc = {"schema_version": 1, "command": "bench", "instances": []}
    code, out = _run(tmp_path, doc, "bench", ["--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1   # header only
    code, out = _run(tmp_path, doc, "bench")
    assert json.loads(out.read_text())["rows"] == []
