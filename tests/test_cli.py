import json
import warnings

import numpy as np
import pytest

from pharmonious import (RadiusField, interval_grid, path_graph,
                         read_field_csv, square_grid, write_field_csv,
                         write_radius_csv)
from pharmonious import solver
from pharmonious.cli import main


def run(*argv):
    return main([str(a) for a in argv])


# -- probe ---------------------------------------------------------------------


def test_probe_1d_grid(tmp_path, capsys):
    assert run("probe", "--grid", "1d", "--n", "257", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "probe.json").read_text())
    probe = doc["probe"]
    assert 1.8 <= probe["doubling_estimate"] <= 2.05
    assert 1.0 <= probe["annular_decay_estimates"]["1.0"] <= 1.1
    assert doc["manifest"]["command"] == "probe"


def test_probe_2d_grid(tmp_path):
    assert run("probe", "--grid", "2d", "--n", "65", "--samples", "50",
               "--out", tmp_path) == 0
    probe = json.loads((tmp_path / "probe.json").read_text())["probe"]
    assert 3.5 <= probe["doubling_estimate"] <= 4.4
    assert 1.9 <= probe["annular_decay_estimates"]["1.0"] <= 2.2


@pytest.mark.parametrize("samples", [0, -5])
def test_probe_needs_a_sample(tmp_path, capsys, samples):
    # the geodesic probe took a max over no sources, or drew a negative
    # number of them: ValueError tracebacks
    assert run("probe", "--grid", "1d", "--n", 17, "--samples", samples,
               "--out", tmp_path) == 2
    assert capsys.readouterr().err == \
        f"input error: --samples must be at least 1, got {samples}\n"
    assert not list(tmp_path.iterdir())


def test_probe_malformed_file(tmp_path, capsys):
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps({"metric": "euclidean", "points": []}))
    assert run("probe", "--space", bad, "--out", tmp_path) == 2
    assert "no points" in capsys.readouterr().err


def test_probe_invalid_record_named(tmp_path, capsys):
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{"id": 0, "coords": [0.0], "weight": 1.0},
                   {"id": 1, "coords": [1.0]}],  # missing weight
    }))
    assert run("probe", "--space", bad, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "#1" in err


def test_probe_zero_weight_edges_are_duplicate_points(tmp_path, capsys):
    # a path whose edges all weigh 0 used to end in a ValueError traceback
    # from resolution()
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps({
        "metric": "graph",
        "points": [{"id": k, "weight": 1.0, "boundary": k in (0, 3)}
                   for k in range(4)],
        "edges": [[k, k + 1, 0.0] for k in range(3)],
    }))
    assert run("probe", "--space", bad, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "input error: duplicate points" in err
    assert "Traceback" not in err


def test_probe_metric_alias_is_unknown(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "graph_shortest_path",
        "points": [{"id": k, "weight": 1.0, "boundary": k in (0, 2)}
                   for k in range(3)],
        "edges": [[0, 1, 1.0], [1, 2, 1.0]]}))
    assert run("probe", "--space", space, "--out", tmp_path) == 2
    assert "input error: unknown metric kind 'graph_shortest_path'" in \
        capsys.readouterr().err


def test_probe_space_file_not_json(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text("metric: euclidean\n")
    assert run("probe", "--space", space, "--out", tmp_path) == 2
    assert "input error: not valid JSON" in capsys.readouterr().err


def test_probe_nan_coordinate_is_input_error(tmp_path, capsys):
    # json.load reads NaN, which fails every closed-form comparison: it
    # must be refused as input, not end in a traceback
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{"id": k, "coords": [x, 1.0], "weight": 1.0,
                    "boundary": k == 0}
                   for k, x in enumerate([0.0, float("nan"), 2.0])]}))
    assert "NaN" in space.read_text()
    assert run("probe", "--space", space, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "input error: non-finite point coordinate" in err
    assert "Traceback" not in err


def _points(n, coords=None):
    return [{"id": k, "weight": 1.0, "boundary": k in (0, n - 1),
             **({} if coords is None else {"coords": coords[k]})}
            for k in range(n)]


_LINE = [[0.0], [1.0], [2.0]]
_METRIC = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


@pytest.mark.parametrize("doc, message", [
    ({"metric": "euclidean", "points": _points(3, [[0.0], [1.0, 0.5], [2.0]])},
     "coords must be a rectangular array"),
    ({"metric": "euclidean", "points": _points(3, [[], [], []])},
     "coords must hold one row of numbers per point"),
    ({"metric": "euclidean", "points": _points(3, [[0.0], ["x"], [2.0]])},
     "coords must be a rectangular array"),
    ({"metric": "graph", "points": _points(3), "edges": [[0, 1, 1.0], [1, 2]]},
     "edges must be rows [i, j, weight]"),
    ({"metric": "graph", "points": _points(3), "edges": [[0, 1, 1.0], [1, 2, "x"]]},
     "edges must be a rectangular array"),
    ({"metric": "graph", "points": _points(3), "edges": 5},
     "edges must be rows [i, j, weight]"),
    ({"metric": "graph", "points": 5}, "points must be a list"),
    ({"metric": "matrix", "points": _points(3),
      "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, "x"], [2.0, 1.0, 0.0]]},
     "distance matrix must be a rectangular array"),
    ({"metric": "matrix", "points": _points(3), "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0]]},
     "distance matrix must be a rectangular array"),
    ({"metric": "matrix", "points": _points(3),
      "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, float("nan")], [2.0, 1.0, 0.0]]},
     "non-finite distance entry"),
    ({"metric": "euclidean", "points": _points(3)},
     "euclidean metric requires point coordinates"),
    ({"metric": "euclidean", "points": _points(3, [[0.0], [1.0], [0.0]])},
     "duplicate points: zero distance between distinct ids"),
    ({"metric": "graph", "points": _points(3)}, "graph metric requires an edge list"),
    ({"metric": "graph", "points": _points(3), "edges": []},
     "edges must be rows [i, j, weight]"),
    ({"metric": "matrix", "points": _points(3), "matrix": [[0.0, 1.0], [1.0, 0.0]]},
     "matrix metric requires an n-by-n matrix"),
    ({"metric": "matrix", "points": _points(3),
      "matrix": [[1.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]},
     "distance matrix has a nonzero diagonal"),
    ({"metric": "matrix", "points": _points(3),
      "matrix": [[0.0, -1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]},
     "negative distance entry"),
    ({"metric": "euclidean",
      "points": [{**p, "weight": float("inf")} for p in _points(3, _LINE)]},
     "weights must be positive and finite"),
    ({"points": _points(3, _LINE)}, "missing required key: 'metric'"),
    ({"metric": "euclidean"}, "missing required key: 'points'"),
    ({"metric": "euclidean", "points": _points(3, _LINE)[:2] + _points(3)[2:]},
     "coords given for some points but not all"),
    ({"metric": "euclidean", "points": [{**p, "id": 0} for p in _points(3, _LINE)]},
     "duplicate point ids"),
    ({"metric": "graph", "points": _points(3), "edges": [[0, 1, 1.0], [1, 7, 1.0]]},
     "edge endpoint id 7 not among points"),
    ({"metric": "graph", "edges": [[0, 1.2, 1], [1, 2.9, 1]],
      "points": [{**p, "id": i} for p, i in zip(_points(3), [0, 1.7, "2"])]},
     "point id 1.7 is not an integer"),
], ids=["ragged-coords", "empty-coords", "text-coordinate", "short-edge-row",
        "text-edge-weight", "edges-not-a-list", "points-not-a-list",
        "text-matrix-entry", "ragged-matrix", "nan-matrix-entry", "no-coords",
        "duplicate-coords", "no-edges", "empty-edges", "matrix-shape",
        "matrix-diagonal", "negative-matrix-entry", "infinite-weight",
        "no-metric", "no-points", "coords-on-some-points", "duplicate-ids",
        "unknown-endpoint", "non-integral-ids"])
def test_malformed_space_file_is_input_error(tmp_path, capsys, doc, message):
    # each of these used to end in a ValueError or TypeError traceback,
    # exit 1; a NaN matrix entry was reported as an asymmetric matrix.
    # From no-coords on, the refusals worked but no test reached them;
    # int() truncated the non-integral ids to 1 and 2
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    assert run("probe", "--space", space, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}")
    assert "Traceback" not in err


# -- validate --------------------------------------------------------------------


def test_validate_good_setup(tmp_path):
    code = run("validate", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["pass"] and doc["gate"]["pass"]


def test_validate_records_how_L_was_obtained(tmp_path):
    # --rho-factor: the analytic bound of a scaled boundary distance; the
    # same radii read from a CSV: the exact fit
    args = ["validate", "--grid", "2d", "--n", "17", "--rho-factor", 0.4,
            "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4, "--out", tmp_path]
    assert run(*args) == 0
    assert json.loads((tmp_path / "validate.json").read_text())["L_mode"] \
        == "analytic"
    assert run(*args, "--L", 1.0) == 0
    assert json.loads((tmp_path / "validate.json").read_text())["L_mode"] \
        == "supplied"
    sp = square_grid(17)
    write_radius_csv(sp, RadiusField.scaled_boundary_distance(sp, 0.4),
                     tmp_path / "rho.csv")
    assert run("validate", "--grid", "2d", "--n", "17", "--rho", tmp_path / "rho.csv",
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 0
    assert json.loads((tmp_path / "validate.json").read_text())["L_mode"] \
        == "exact"


def test_validate_gate_failure_names_condition(tmp_path, capsys):
    code = run("validate", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
               "--alpha", 0.6, "--epsilon", 0.2, "--lam", 0.2, "--L", 2.0,
               "--out", tmp_path)
    assert code == 1
    out = capsys.readouterr().out
    assert "alpha_below_inverse_lipschitz" in out


@pytest.mark.parametrize("delta", ["nan", 0.0, 5.0])
def test_gate_refuses_a_delta_outside_the_unit_interval(tmp_path, capsys, delta):
    # validate wrote "pass": true and solve passed its gate; certify already
    # refused through its probes and empirical_holder
    args = ["--grid", "1d", "--n", 17, "--rho-factor", 0.4, "--alpha", 0.3,
            "--epsilon", 0.5, "--lam", 0.4, "--delta", delta, "--out", tmp_path]
    assert run("validate", *args) == 2
    assert run("solve", *args, "--boundary-fn", "linear") == 2
    message = f"input error: delta must be in (0,1], got {float(delta)}\n"
    assert capsys.readouterr().err == 2 * message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("L", [0.0, -1.0])
def test_validate_nonpositive_L_fails_the_gate_without_traceback(tmp_path, capsys, L):
    # beta_max divided by L |alpha| = 0 (ZeroDivisionError) or took the log
    # of a negative number (ValueError); a negative L to the power delta
    # would make the series ratio complex
    assert run("validate", "--grid", "1d", "--n", 17, "--rho-factor", 0.4,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4, "--delta", 0.5,
               "--L", L, "--out", tmp_path) == 1
    out, err = capsys.readouterr()
    assert "failed: alpha_below_inverse_lipschitz" in out and err == ""
    gate = json.loads((tmp_path / "validate.json").read_text(),
                      parse_constant=_refuse_constant)["gate"]
    assert not gate["conditions"]["alpha_below_inverse_lipschitz"]
    assert gate["beta_max"] == 0.0
    assert gate["series_ratio"] == (0.0 if L == 0.0 else None)  # inf is null


def test_validate_zero_interior_radius(tmp_path):
    sp = interval_grid(17)
    rho_csv = tmp_path / "rho.csv"
    lines = ["id,rho"]
    d = sp.boundary_distances()
    for i in range(len(sp)):
        v = 0.0 if i == 8 else float(0.5 * d[i])
        lines.append(f"{i},{v!r}")
    rho_csv.write_text("\n".join(lines) + "\n")
    code = run("validate", "--grid", "1d", "--n", "17", "--rho", rho_csv,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path)
    assert code == 1
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["admissible"]["nonpositive_interior"] == [8]


def test_validate_radius_csv_with_unknown_id(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rho.write_text("id,rho\n0,0.0\n77,0.5\n16,0.0\n")
    assert run("validate", "--grid", "1d", "--n", 17, "--rho", rho,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "unknown or invalid id or value in row ['77', '0.5']" in err
    assert "Traceback" not in err


def test_validate_radius_csv_with_repeated_id(tmp_path, capsys):
    # the second row for id 2 used to overwrite the first without a word
    rho = tmp_path / "rho.csv"
    rho.write_text("id,rho\n0,0.0\n1,0.1\n2,0.1\n2,0.2\n3,0.1\n4,0.0\n")
    assert run("validate", "--grid", "1d", "--n", 5, "--rho", rho,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("input error: ")
    assert "duplicate id 2 in row ['2', '0.2']" in err
    assert not (tmp_path / "validate.json").exists()


def test_certify_field_csv_with_repeated_id(tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("id,value\n0,0.0\n1,0.25\n2,3.0\n2,99.0\n3,0.75\n4,1.0\n")
    assert run("certify", "--grid", "1d", "--n", 5, "--rho-factor", 0.4,
               "--field", field, "--alpha", 0.3, "--epsilon", 0.5,
               "--lam", 0.4, "--m", 2, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("input error: ")
    assert "duplicate id 2 in row ['2', '99.0']" in err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_short_field_csv_is_input_error(tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("id,value\n0,0.0\n1,0.25\n2,0.5\n3,0.75\n")
    assert run("certify", "--grid", "1d", "--n", 5, "--rho-factor", 0.4,
               "--field", field, "--alpha", 0.3, "--epsilon", 0.5,
               "--lam", 0.4, "--m", 2, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("input error: ")
    assert "missing value for some points" in err
    assert not (tmp_path / "certificate.json").exists()


def test_validate_missing_file(tmp_path):
    assert run("validate", "--grid", "1d", "--n", "17",
               "--rho", tmp_path / "absent.csv",
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 2


def test_validate_component_without_boundary_is_input_error(tmp_path, capsys):
    # 3-5 have no path to the boundary point 0: their scaled radius is inf,
    # which used to pass every hypothesis after a numpy warning
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "graph",
        "points": [{"id": k, "weight": 1.0, "boundary": k == 0}
                   for k in range(6)],
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [3, 4, 1.0], [4, 5, 1.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("validate", "--space", space, "--rho-factor", 0.4,
                   "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
                   "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "input error: radius is not finite at 3 points, first [3, 4, 5]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("factor, power, message", [
    ("inf", "1", "radius factor must be finite, got inf"),
    ("0.4", "-1", "radius power must be nonnegative, got -1.0"),
    ("0.4", "inf", "radius power must be finite, got inf")],
    ids=["inf-factor", "negative-power", "inf-power"])
def test_validate_refuses_a_bad_radius_scaling(tmp_path, capsys, factor, power, message):
    # numpy's warnings, each with a source line, came before the input
    # error; an inf power exited 1 as an inadmissible radius of zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("validate", "--grid", "2d", "--n", 9, "--rho-factor", factor,
                   "--rho-power", power, "--alpha", 0.3, "--epsilon", 0.5,
                   "--lam", 0.4, "--out", tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "validate.json").exists()


def test_validate_id_beyond_int64_is_input_error(tmp_path, capsys):
    # the id passed the loader and then overflowed the int64 cast of the
    # ids: a traceback and exit 1
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{**p, "id": 10 ** 20 if k == 1 else k}
                   for k, p in enumerate(_points(3, _LINE))]}))
    code = run("validate", "--space", space, "--rho-factor", 0.4,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "input error: point id 100000000000000000000 is outside the int64 range"]


# -- solve -----------------------------------------------------------------------


def test_solve_linear_problem_converges_immediately(tmp_path):
    code = run("solve", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
               "--boundary-fn", "linear", "--alpha", 0.3,
               "--init-fn", "linear", "--tol", 1e-12, "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["converged"] and doc["iterations_used"] == 0
    sp = interval_grid(257)
    u = read_field_csv(sp, tmp_path / "field.csv")
    assert np.array_equal(u, sp.coords[:, 0])


def test_solve_2d_reference_problem(tmp_path):
    code = run("solve", "--grid", "2d", "--n", "65", "--rho-factor", 0.4,
               "--boundary-fn", "saddle", "--alpha", 0.3, "--init-fn",
               "saddle", "--tol", 1e-8, "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["converged"]
    assert doc["final_residual"] <= 1e-8


def test_solve_iteration_budget_exit_code(tmp_path):
    code = run("solve", "--grid", "2d", "--n", "33", "--rho-factor", 0.4,
               "--boundary-fn", "saddle", "--alpha", 0.3, "--init-fn",
               "saddle", "--tol", 1e-12, "--max-iter", 1, "--out", tmp_path)
    assert code == 3
    # partial outputs still written
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "solve_report.json").exists()


def test_diverging_solve_is_non_convergence(tmp_path, capsys):
    # |alpha| = 5 amplifies the saddle until a sweep overflows; the
    # overflow must not surface as a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("solve", "--grid", "2d", "--n", 9, "--rho-factor", 0.9,
                   "--boundary-fn", "saddle", "--init-fn", "saddle",
                   "--alpha", -5, "--max-iter", 10000, "--out", tmp_path)
    assert code == 3
    assert "input error" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert not doc["converged"] and doc["iterations_used"] < 10000
    assert doc["final_residual"] is None  # not finite: written as null
    u = read_field_csv(square_grid(9), tmp_path / "field.csv")
    assert np.abs(u).max() > 1e300


def test_growing_residual_stops_as_stalled(tmp_path, capsys, monkeypatch):
    # the |alpha| = 5 saddle grows for 7,832 sweeps before it overflows; a
    # shorter stall window ends it first, unconverged, with the reason
    monkeypatch.setattr(solver, "STALL_SWEEPS", 100)
    code = run("solve", "--grid", "2d", "--n", 9, "--rho-factor", 0.9,
               "--boundary-fn", "saddle", "--init-fn", "saddle",
               "--alpha", -5, "--out", tmp_path)
    assert code == 3
    assert "stopped: stalled: no new residual minimum in 100 sweeps" \
        in capsys.readouterr().out
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    best = int(np.argmin(doc["residual_history"]))
    assert not doc["converged"] and doc["iterations_used"] == best + 100
    assert doc["stop_reason"].startswith("stalled: no new residual minimum in 100 sweeps")


def test_solve_report_records_why_the_solve_stopped(tmp_path):
    # SolveReport.to_dict left its stop_reason out of solve_report.json
    solve = ("solve", "--grid", "2d", "--n", 17, "--rho-factor", 0.4, "--alpha", 0.3,
             "--boundary-fn", "saddle", "--init-fn", "saddle")
    assert run(*solve, "--tol", 1e-8, "--out", tmp_path / "converged") == 0
    assert run(*solve, "--tol", 1e-12, "--max-iter", 1, "--out", tmp_path / "budget") == 3
    reasons = [json.loads((tmp_path / out / "solve_report.json").read_text())["stop_reason"]
               for out in ("converged", "budget")]
    assert reasons == ["residual under the tolerance", "sweep budget of 1 spent"]


def test_solve_non_admissible_always_exits_one(tmp_path):
    code = run("solve", "--grid", "1d", "--n", "65", "--rho-factor", 2.0,
               "--boundary-fn", "linear", "--alpha", 0.3, "--force",
               "--out", tmp_path)
    assert code == 1


def test_solve_gate_blocks_without_force(tmp_path):
    args = ["solve", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
            "--boundary-fn", "linear", "--alpha", 0.6, "--epsilon", 0.5,
            "--lam", 0.4, "--init-fn", "linear", "--out", tmp_path]
    assert run(*args) == 1
    assert run(*args, "--force") == 0


# -- certify ---------------------------------------------------------------------


def test_certify_linear_fixed_point(tmp_path):
    run("solve", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
        "--boundary-fn", "linear", "--alpha", 0.3, "--init-fn", "linear",
        "--tol", 1e-12, "--out", tmp_path)
    code = run("certify", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
               "--field", tmp_path / "field.csv", "--alpha", 0.3,
               "--epsilon", 0.5, "--lam", 0.4, "--m", 2, "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["pass"]
    assert doc["empirical_constant"] == 1.0
    # the bound scales with the half-oscillation of x on [0, 1], 1/2
    assert doc["half_oscillation"] == 0.5
    assert abs(doc["theoretical_constant"] - 70.0) < 1e-9


def _certify_past_the_float_range(tmp_path, capsys, m):
    """certify of a solved linear field at index m: exit 1, the bound inf
    (null in certificate.json), no pass and nothing on stderr."""
    run("solve", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
        "--boundary-fn", "linear", "--alpha", 0.3, "--init-fn", "linear",
        "--tol", 1e-12, "--out", tmp_path)
    code = run("certify", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
               "--field", tmp_path / "field.csv", "--alpha", 0.3,
               "--epsilon", 0.5, "--lam", 0.4, "--m", m, "--out", tmp_path)
    assert code == 1
    out, err = capsys.readouterr()
    assert "theoretical=inf" in out and err == ""
    doc = json.loads((tmp_path / "certificate.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["theoretical_constant"] is None and not doc["pass"]
    assert doc["gate"]["pass"] and doc["empirical_constant"] == 1.0


def test_certify_withholds_a_bound_past_the_float_range(tmp_path, capsys):
    # (1 - epsilon)^(-m beta delta) at m = 100000 ended in OverflowError
    _certify_past_the_float_range(tmp_path, capsys, 100000)


def test_certify_takes_an_index_past_the_float_range(tmp_path, capsys):
    # a 321-digit m ended in OverflowError at (1 - epsilon)^m, the cut of
    # the exhaustion set, before the bound was reached
    _certify_past_the_float_range(tmp_path, capsys, 10 ** 320)


def test_certify_alpha_one_scope(tmp_path, capsys):
    run("solve", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
        "--boundary-fn", "linear", "--alpha", 0.3, "--init-fn", "linear",
        "--tol", 1e-12, "--out", tmp_path)
    code = run("certify", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
               "--field", tmp_path / "field.csv", "--alpha", 1.0,
               "--epsilon", 0.5, "--lam", 0.4, "--m", 2, "--out", tmp_path)
    assert code == 1
    assert "scope" in capsys.readouterr().err


def test_certify_stale_field(tmp_path, capsys):
    sp = interval_grid(65)
    field = tmp_path / "stale.csv"
    rows = ["id,value"] + [f"{i},{float(np.sin(7.0 * i))!r}" for i in range(len(sp))]
    field.write_text("\n".join(rows) + "\n")
    code = run("certify", "--grid", "1d", "--n", "65", "--rho-factor", 0.4,
               "--field", field, "--alpha", 0.3, "--epsilon", 0.5,
               "--lam", 0.4, "--m", 2, "--out", tmp_path)
    assert code == 1
    assert "not a fixed point" in capsys.readouterr().err


def test_certify_checks_what_validate_checks(tmp_path, capsys):
    # rho = 0.4 dist is below lambda dist at lambda = 0.5: validate fails on
    # the radius restriction, and certify used to pass with a bound of 896
    space = ["--grid", "2d", "--n", 33, "--rho-factor", 0.4, "--alpha", 0.3]
    hyp = ["--epsilon", 0.5, "--lam", 0.5]
    assert run("solve", *space, "--boundary-fn", "saddle", "--init-fn",
               "saddle", "--out", tmp_path) == 0
    assert run("validate", *space, *hyp, "--out", tmp_path) == 1
    capsys.readouterr()
    assert run("certify", *space, *hyp, "--field", tmp_path / "field.csv",
               "--m", 2, "--out", tmp_path) == 1
    assert "failed: radius_bounds" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate.json").read_text(),
                      parse_constant=_refuse_constant)
    valid = json.loads((tmp_path / "validate.json").read_text())
    assert cert["pass"] is False and cert["theoretical_constant"] is None
    assert not cert["radius_bounds"]["ok"]
    assert cert["radius_bounds"] == valid["radius_bounds"]
    assert cert["admissible"] == valid["admissible"]


def test_certify_without_interior_point_is_input_error(tmp_path, capsys):
    # the empty ball table used to end in a zero-size reduction traceback
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{"id": k, "coords": [float(k)], "weight": 1.0,
                    "boundary": True} for k in range(2)]}))
    rho = tmp_path / "rho.csv"
    rho.write_text("id,rho\n0,0.0\n1,0.0\n")
    field = tmp_path / "field.csv"
    field.write_text("id,value\n0,0.0\n1,0.0\n")
    code = run("certify", "--space", space, "--rho", rho, "--field", field,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4, "--m", 1,
               "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "input error: space has no interior points" in err
    assert "Traceback" not in err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_outputs_are_strict(tmp_path):
    # a diverging solve wrote Infinity, alpha = 0 wrote beta_max Infinity
    assert run("solve", "--grid", "2d", "--n", 9, "--rho-factor", 0.9,
               "--boundary-fn", "saddle", "--init-fn", "saddle",
               "--alpha", -5, "--max-iter", 10000, "--out", tmp_path) == 3
    doc = json.loads((tmp_path / "solve_report.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["residual_history"][-1] is None
    assert run("validate", "--grid", "1d", "--n", 65, "--rho-factor", 0.4,
               "--alpha", 0.0, "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "validate.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["gate"]["beta_max"] is None


def test_probe_disconnected_cloud_writes_null(tmp_path, capsys):
    # the gap at 10 disconnects the hop graph: the geodesic defect is inf
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{"id": k, "coords": [x], "weight": 1.0, "boundary": k == 0}
                   for k, x in enumerate([0.0, 1.0, 2.0, 10.0])]}))
    assert run("probe", "--space", space, "--out", tmp_path) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "probe.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["probe"]["geodesic_defect"] is None


def test_nan_argument_is_written_as_null(tmp_path):
    assert run("validate", "--grid", "1d", "--n", 17, "--rho-factor", 0.4,
               "--alpha", "nan", "--epsilon", 0.5, "--lam", 0.4,
               "--out", tmp_path) == 1
    doc = json.loads((tmp_path / "validate.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["gate"]["alpha"] is None and not doc["pass"]
    assert "nan" in doc["manifest"]["argv"]


def test_solve_gate_leaves_inadmissible_radius_to_the_solver(tmp_path, capsys):
    # --force skips the gate but never admissibility: no hint to use it
    assert run("solve", "--grid", "1d", "--n", 17, "--rho-factor", 1.5,
               "--boundary-fn", "linear", "--alpha", 0.3, "--epsilon", 0.5,
               "--lam", 0.4, "--out", tmp_path) == 1
    out, err = capsys.readouterr()
    assert "--force" not in out
    assert "refused: radius field is not admissible" in err


@pytest.mark.parametrize("point", [22, 70])
def test_certify_refuses_a_negative_radius(tmp_path, capsys, point):
    # at the last center (70) the empty ball ended in an IndexError
    # traceback; at 22 certify read a mean over no points
    sp = square_grid(9)
    values = RadiusField.scaled_boundary_distance(sp, 0.4).values.copy()
    values[point] = -0.1
    write_radius_csv(sp, RadiusField(values), tmp_path / "rho.csv")
    write_field_csv(sp, np.zeros(len(sp)), tmp_path / "field.csv")
    code = run("certify", "--grid", "2d", "--n", 9, "--rho", tmp_path / "rho.csv",
               "--field", tmp_path / "field.csv", "--m", 2, "--epsilon", 0.5,
               "--lam", 0.4, "--alpha", 0.3, "--out", tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("refused: negative radius") and f"[{point}]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("flag, value, name", [
    ("--residual-tol", "nan", "--residual-tol"),
    ("--residual-tol", "inf", "--residual-tol"),
    ("--gamma", "nan", "gamma"), ("--gamma", "inf", "gamma"),
    ("--gamma", 0.0, "gamma"), ("--gamma", 1.5, "gamma")])
def test_certify_refuses_a_bad_gamma_or_residual_tolerance(tmp_path, capsys,
                                                           alpha, flag, value, name):
    # a nan tolerance was refused as a residual failure (exit 1), a nan gamma
    # passed at alpha = 0.3 with "gamma": null, and at alpha = 0 the message
    # blamed delta
    write_field_csv(square_grid(9), np.zeros(81), tmp_path / "field.csv")
    args = ["certify", "--grid", "2d", "--n", 9, "--rho-factor", 0.4,
            "--field", tmp_path / "field.csv", "--alpha", alpha, "--epsilon", 0.5,
            "--lam", 0.4, "--m", 2, "--out", tmp_path]
    assert run(*args, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and name in err and "delta" not in err
    assert not (tmp_path / "certificate.json").exists()
    assert run(*args) == 0


def test_validate_all_boundary_space_fails_without_traceback(tmp_path, capsys):
    # ell = 0 made the lambda cap 0.0 ** (1 - beta): ZeroDivisionError at beta 2
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "metric": "euclidean",
        "points": [{"id": k, "coords": [float(k)], "weight": 1.0,
                    "boundary": True} for k in range(2)]}))
    rho = tmp_path / "rho.csv"
    rho.write_text("id,rho\n0,0.0\n1,0.0\n")
    code = run("validate", "--space", space, "--rho", rho, "--alpha", 0.3,
               "--epsilon", 0.5, "--lam", 0.4, "--beta", 2, "--out", tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "validate.json").read_text(),
                     parse_constant=_refuse_constant)
    assert not doc["admissible"]["ok"] and doc["radius_bounds"]["lambda_cap"] is None


# -- asymptotics --------------------------------------------------------------------


def test_asymptotics_mean_mode(tmp_path):
    code = run("asymptotics", "--fn", "sq_norm", "--x", "1,0", "--n", 2,
               "--mode", "mean", "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "asymptotics.json").read_text())
    assert doc["predicted"] == 0.5
    assert abs(doc["extrapolated"] - 0.5) < 0.02 * 0.5
    rows = (tmp_path / "asymptotics.csv").read_text().strip().splitlines()
    assert rows[0] == "radius,quotient"
    assert len(rows) == 1 + len(doc["radii"])


def test_asymptotics_midrange_mode(tmp_path):
    code = run("asymptotics", "--fn", "sq_norm", "--x", "1,0", "--n", 2,
               "--mode", "midrange", "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "asymptotics.json").read_text())
    assert doc["predicted"] == 1.0
    assert abs(doc["extrapolated"] - 1.0) < 0.02


def test_asymptotics_linear_p_harmonic(tmp_path):
    code = run("asymptotics", "--fn", "linear", "--x", "0.2,0.1", "--n", 2,
               "--mode", "p", "--p", 7.5, "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "asymptotics.json").read_text())
    assert doc["predicted"] == 0.0
    assert abs(doc["extrapolated"]) < 1e-12


@pytest.mark.parametrize("flag, value, message", [
    ("--x", "1,abc", "--x must be comma-separated numbers, got '1,abc'"),
    ("--radii", "0.4,zz", "--radii must be comma-separated numbers, got '0.4,zz'"),
    ("--radii", "0.4,nan", "point [1.0, 0.0] and radii [0.4, nan] must be finite"),
    ("--radii", "0.4,inf", "point [1.0, 0.0] and radii [inf, 0.4] must be finite"),
    ("--x", "nan,0",
     "point [nan, 0.0] and radii [0.4, 0.2, 0.1, 0.05] must be finite"),
    ("--x", "1e200,0", "sq_norm: gradient[0] inconsistent with finite differences"),
    ("--radii", "0.4,0.0001",
     "radii [0.4, 0.0001] ask for a cube of 1.64e+10 lattice points about the "
     "largest ball (lattice step 6.25e-06), over the limit of 1e+08")],
    ids=["x-word", "radii-word", "radii-nan", "radii-inf", "x-nan", "x-overflow",
         "radii-cube"])
def test_asymptotics_bad_numbers_are_input_errors(tmp_path, capsys, flag, value,
                                                  message):
    # parsing ended in a ValueError traceback, and so did math.floor of a
    # nan radius (an inf one in OverflowError); --x nan,0 exited 0 with NaN
    # quotients, and so did --x 1e200,0, whose finite differences are nan;
    # --radii 0.4,0.0001 built a cube of 1.6e10 lattice offsets
    assert run("asymptotics", "--fn", "sq_norm", "--x", "1,0", "--n", 2,
               flag, value, "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_asymptotics_unknown_function(tmp_path):
    assert run("asymptotics", "--fn", "nope", "--x", "1,0", "--n", 2,
               "--out", tmp_path) == 2


# -- round trips and manifests --------------------------------------------------------


def test_field_csv_reload_bit_exact(tmp_path):
    run("solve", "--grid", "2d", "--n", "33", "--rho-factor", 0.4,
        "--boundary-fn", "saddle", "--alpha", 0.3, "--init-fn", "saddle",
        "--out", tmp_path)
    sp = square_grid(33)
    u1 = read_field_csv(sp, tmp_path / "field.csv")
    text = (tmp_path / "field.csv").read_bytes()
    u2 = read_field_csv(sp, tmp_path / "field.csv")
    assert np.array_equal(u1, u2)
    # shortest-roundtrip decimals: rewriting the parsed values is identical
    from pharmonious import write_field_csv
    write_field_csv(sp, u1, tmp_path / "field2.csv")
    assert (tmp_path / "field2.csv").read_bytes() == text


def test_manifest_rerun_reproduces_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run("solve", "--grid", "2d", "--n", "33", "--rho-factor", 0.4,
        "--boundary-fn", "saddle", "--alpha", 0.3, "--init-fn", "saddle",
        "--out", out1)
    manifest = json.loads((out1 / "solve_report.json").read_text())["manifest"]
    argv = list(manifest["argv"])
    argv[argv.index(str(out1))] = str(out2)
    assert main(argv) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()


def test_threads_flag_does_not_change_fields(tmp_path):
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        run("solve", "--grid", "2d", "--n", "33", "--rho-factor", 0.4,
            "--boundary-fn", "saddle", "--alpha", 0.3, "--init-fn", "saddle",
            "--threads", threads, "--out", out)
        outs.append((out / "field.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_is_input_error(tmp_path, capsys, threads):
    # --threads -3 used to pass and land in the manifest
    assert run("validate", "--grid", "1d", "--n", 17, "--rho-factor", 0.4,
               "--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4,
               "--threads", threads, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"input error: --threads must be at least 1, got {threads}\n"
    assert not (tmp_path / "validate.json").exists()


@pytest.mark.parametrize("argv, output", [
    (("probe", "--grid", "1d", "--n", 17), "probe.json"),
    (("validate", "--grid", "1d", "--n", 17, "--rho-factor", 0.4, "--alpha", 0.3,
      "--epsilon", 0.5, "--lam", 0.4), "validate.json")], ids=["probe", "validate"])
def test_negative_seed_is_input_error(tmp_path, capsys, argv, output):
    # probe ended in a ValueError traceback from np.random.default_rng, and
    # validate exited 0 with "seed": -1 in its manifest
    assert run(*argv, "--seed", -1, "--out", tmp_path) == 2
    assert capsys.readouterr().err == "input error: --seed must be at least 0, got -1\n"
    assert not (tmp_path / output).exists()


def test_solve_records_iterate_modulus_snapshots(tmp_path):
    # no test serialized a snapshot: the snapshot branch of
    # SolveReport.to_dict and Modulus.breakpoint_list never ran
    every = 5
    assert run("solve", "--grid", "disk", "--n", 17, "--rho-factor", 0.4,
               "--alpha", 0.3, "--boundary-fn", "saddle", "--init-fn", "saddle",
               "--record-every", every, "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text(),
                     parse_constant=_refuse_constant)
    snapshots = doc["modulus_snapshots"]
    assert {s["m"] for s in snapshots} == {1, 2}
    for snap in snapshots:
        assert snap["m"] in (1, 2) and snap["iteration"] % every == 0
        ts, ys = np.array(snap["breakpoints"]).T
        assert (ts[0], ys[0]) == (0.0, 0.0)
        assert np.all(np.diff(ts) > 0) and np.all(np.diff(ys) >= 0)


def test_negative_record_every_is_input_error(tmp_path, capsys):
    # it exited 0, with the snapshots silently off
    assert run("solve", "--grid", "1d", "--n", 17, "--rho-factor", 0.4,
               "--alpha", 0.3, "--boundary-fn", "linear", "--record-every", -1,
               "--out", tmp_path) == 2
    assert capsys.readouterr().err == "input error: record_every must be >= 0\n"
    assert not (tmp_path / "solve_report.json").exists()


def test_solve_config_file(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "tolerance": 1e-12,
                               "max_iterations": 50, "record_every": 0}))
    code = run("solve", "--grid", "1d", "--n", "257", "--rho-factor", 0.4,
               "--boundary-fn", "linear", "--init-fn", "linear",
               "--config", cfg, "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["converged"] and doc["iterations_used"] == 0
    assert doc["manifest"]["command"] == "solve"


def test_solve_epsilon_without_lam_is_input_error(tmp_path, capsys):
    code = run("solve", "--grid", "1d", "--n", "17", "--rho-factor", 0.4,
               "--boundary-fn", "linear", "--alpha", 0.3, "--epsilon", 0.5,
               "--out", tmp_path)
    assert code == 2
    assert "--lam" in capsys.readouterr().err


def test_solve_missing_alpha(tmp_path):
    code = run("solve", "--grid", "1d", "--n", "17", "--rho-factor", 0.4,
               "--boundary-fn", "linear", "--out", tmp_path)
    assert code == 2


@pytest.mark.parametrize("config, message", [
    # NaN passed the tolerance check: 100000 sweeps, then exit 3
    ('{"alpha": 0.3, "tolerance": NaN}', "tolerance must be a finite number"),
    ('{"alpha": 0.3, "max_iterations": "50"}',
     "max_iterations must be a finite integer"),
    ("[1, 2]", "--config must hold a JSON object"),
    ('{"alpha": 0.3, "tol": 1e-3}', "--config must hold a JSON object with "
     "keys among alpha, tolerance, max_iterations, record_every"),
], ids=["nan-tolerance", "string-max-iterations", "list", "unknown-key"])
def test_solve_bad_config_is_input_error(tmp_path, capsys, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    code = run("solve", "--grid", "1d", "--n", "17", "--rho-factor", 0.4,
               "--boundary-fn", "linear", "--init-fn", "linear",
               "--config", cfg, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert f"input error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "solve_report.json").exists()


def test_solve_flag_overrides_config_key(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "tolerance": 1e-12,
                               "max_iterations": 1}))
    args = ["solve", "--grid", "2d", "--n", 9, "--rho-factor", 0.4,
            "--boundary-fn", "saddle", "--init-fn", "saddle",
            "--config", cfg, "--out", tmp_path]
    assert run(*args) == 3
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["iterations_used"] == 1
    assert run(*args, "--max-iter", 2) == 3
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["iterations_used"] == 2


@pytest.mark.parametrize("argv, message", [
    (["--grid", "path", "--boundary-fn", "linear"],
     "--boundary-fn needs a space with coordinates"),
    (["--grid", "1d", "--boundary-fn", "saddle"],
     "the saddle boundary function is two-dimensional"),
    (["--grid", "path", "--boundary", "BOUNDARY", "--init-fn", "linear"],
     "--init-fn needs a space with coordinates"),
    (["--grid", "1d", "--boundary-fn", "linear", "--init-fn", "saddle"],
     "the saddle boundary function is two-dimensional"),
], ids=["boundary-fn-without-coords", "saddle-in-1d", "init-fn-without-coords",
        "init-saddle-in-1d"])
def test_solve_boundary_and_init_functions_need_coordinates(tmp_path, capsys,
                                                            argv, message):
    boundary = tmp_path / "boundary.csv"
    write_field_csv(path_graph(17), np.zeros(17), boundary)
    argv = [boundary if a == "BOUNDARY" else a for a in argv]
    code = run("solve", *argv, "--n", 17, "--rho-factor", 0.4,
               "--alpha", 0.3, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("command, option, content", [
    ("solve", "--config", None),
    ("solve", "--config", b"\xff\xfe"),
    ("validate", "--space", None),
    ("validate", "--rho", b"id,rho\n0,\xff\n"),
], ids=["config-directory", "config-undecodable", "space-directory",
        "rho-undecodable"])
def test_file_errors_are_input_errors(tmp_path, capsys, command, option,
                                      content):
    # a directory or undecodable bytes used to end in a traceback, exit 1
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    args = {"--config": ["--grid", "1d", "--rho-factor", 0.4, "--config", path,
                         "--boundary-fn", "linear"],
            "--space": ["--space", path, "--rho-factor", 0.4],
            "--rho": ["--grid", "1d", "--rho", path]}[option]
    if command == "validate":
        args += ["--alpha", 0.3, "--epsilon", 0.5, "--lam", 0.4]
    code = run(command, *args, "--n", 17, "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: ")


def test_solve_boundary_csv_matches_boundary_function(tmp_path):
    sp = interval_grid(17)
    values = tmp_path / "boundary.csv"
    write_field_csv(sp, sp.coords[:, 0], values)
    common = ["solve", "--grid", "1d", "--n", 17, "--rho-factor", 0.4,
              "--alpha", 0.3]
    assert run(*common, "--boundary", values, "--out", tmp_path / "csv") == 0
    assert run(*common, "--boundary-fn", "linear",
               "--out", tmp_path / "fn") == 0
    assert (tmp_path / "csv" / "field.csv").read_bytes() == \
        (tmp_path / "fn" / "field.csv").read_bytes()
