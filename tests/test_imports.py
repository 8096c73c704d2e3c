"""Which spaces import scipy: only the distance rows of a graph with a
component deeper than the round cap do.  Every Euclidean space (lines,
raveled 2-D grids, disks, clouds and 3-D grids) runs validate, solve and
certify on numpy alone, its diameter included, and so does the probe of a
grid whose hop graph stays shallow; so do shallow graphs, hubs included
(ball tables, pair scans, probes, the diameter), the boundary distances of
every graph and the triangle check of a matrix space.  No CLI call loads
numpy.random or numpy.ma: the probes draw from the standard library's
random.Random, and sorted distinct values skip np.unique's masked-array
check.  Each check runs in a fresh interpreter."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cloud, cube_grid, hub_lattice_doc, lattice_doc, matrix_cloud

ROOT = Path(__file__).resolve().parent.parent

# the packages no lean CLI call loads; blocked runs set them to None
LEAN = ("scipy", "numpy.random", "numpy.ma")
# the loaded modules of the LEAN packages, as a JSON list on the last line
LOADED = f"""
print(json.dumps(sorted(name for name, module in sys.modules.items() if module is not None
                        and any(name == p or name.startswith(p + ".") for p in {LEAN!r}))))
"""

PIPELINE = f"""
import sys
if sys.argv[1] == "blocked":
    sys.modules.update(dict.fromkeys({LEAN!r}))
from pharmonious.cli import main
args = json.loads(sys.argv[2])
for call in args:
    code = main(call)
    if code != 0:
        sys.exit(f"{{call[0]}} exited {{code}}")
""" + LOADED
OUTPUTS = ("validate.json", "field.csv", "solve_report.json", "certificate.json")


def python(code, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", "import json\n" + code, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pipeline(space, boundary):
    common = [*space, "--rho-factor", "0.4", "--alpha", "0.3", "--seed", "1",
              "--out", "out"]
    gate = ["--epsilon", "0.5", "--lam", "0.4"]
    return [["validate", *common, *gate],
            ["solve", *common, *boundary, "--tol", "1e-8"],
            ["certify", *common, *gate, "--field", "out/field.csv", "--m", "2",
             "--residual-tol", "1e-7"]]


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert python("import pharmonious.cli, sys\n" + LOADED, cwd=tmp_path) == []


def test_probe_draws_keep_their_literal_values():
    # the probes draw from CPython's Mersenne Twister (random.Random): a
    # change in its seeding, randrange or sample moves every probed constant
    def draws(seed):
        rng = random.Random(seed)
        return ([rng.randrange(4225), rng.randrange(1, 100), rng.randrange(7)],
                random.Random(seed).sample(range(1089), 4))
    assert draws(0) == ([3155, 98, 3], [788, 861, 82, 530])
    assert draws(1) == ([1100, 73, 6], [275, 129, 522, 241])


def run_without_scipy(tmp_path, calls, files=OUTPUTS):
    """The outputs of a pipeline run with scipy, numpy.random and numpy.ma
    blocked, after checking that a plain run loads none of them and writes
    the same bytes."""
    outputs = {}
    for mode in ("blocked", "plain"):
        (tmp_path / mode).mkdir()
        assert python(PIPELINE, mode, json.dumps(calls), cwd=tmp_path / mode) == []
        outputs[mode] = {f: (tmp_path / mode / "out" / f).read_bytes() for f in files}
    assert outputs["blocked"] == outputs["plain"]
    return outputs["blocked"]


@pytest.mark.parametrize("grid, n, fn", [("1d", 33, "linear"), ("2d", 17, "saddle"),
                                         ("disk", 17, "saddle")])
def test_grid_pipelines_run_without_scipy(tmp_path, grid, n, fn):
    run_without_scipy(tmp_path, pipeline(["--grid", grid, "--n", str(n)],
                                         ["--boundary-fn", fn, "--init-fn", fn]))


def test_grid_diameters_load_no_scipy(tmp_path):
    # the diameter is a search over distance rows; it used to take
    # scipy.spatial's ConvexHull above one dimension
    assert python("import sys\n"
                  "from pharmonious import disk_grid, interval_grid, square_grid\n"
                  "d = [s.diameter() for s in (square_grid(33), disk_grid(33),\n"
                  "                            interval_grid(33))]\n"
                  "assert d == [2 ** 0.5, 1.0, 1.0], d\n"
                  "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))",
                  cwd=tmp_path) == []


@pytest.mark.parametrize("grid", ["2d", "disk"])
def test_grid_probes_load_no_scipy(tmp_path, grid):
    # the geodesic probe's hop graph is a graph space searched by rounds; it
    # used to be a scipy CSR searched by scipy's Dijkstra; its sources and
    # the probe centres used to be drawn by numpy.random
    probe = run_without_scipy(tmp_path, [["probe", "--grid", grid, "--n", "33",
                                          "--out", "out"]], files=["probe.json"])
    assert json.loads(probe["probe.json"])["probe"]["geodesic_defect"] > 0


def test_graph_diameters_load_no_scipy(tmp_path):
    # each component is one search row; they used to come from scipy's
    # connected components
    assert python("import sys\n"
                  "from pharmonious import Space, lattice_graph\n"
                  "two = Space(weights=[1.0] * 6, metric='graph', boundary=[0, 3],\n"
                  "            edges=[[0, 1, 1.0], [1, 2, 2.0], [3, 4, 5.0]])\n"
                  "d = [lattice_graph(33, 33).diameter(), two.diameter()]\n"
                  "assert d == [64.0, 5.0], d\n"
                  "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))",
                  cwd=tmp_path) == []


def test_graph_validate_runs_without_scipy(tmp_path):
    # the path's rows run on Dijkstra (see _Graph._engine), but its boundary
    # distances run by rounds whatever the engine
    for grid, n in (("lattice", "9"), ("path", "401")):
        calls = json.dumps(pipeline(["--grid", grid, "--n", n], [])[:1])
        outputs = {}
        for mode in ("blocked", "plain"):
            (tmp_path / grid / mode).mkdir(parents=True)
            assert python(PIPELINE, mode, calls, cwd=tmp_path / grid / mode) == []
            outputs[mode] = (tmp_path / grid / mode / "out" / "validate.json").read_bytes()
        assert outputs["blocked"] == outputs["plain"]


def test_graph_set_up_loads_no_scipy(tmp_path):
    # what every graph CLI call does before its subcommand: the space, its
    # boundary distances and the radius field, then the hypothesis checks
    n = 9
    points = [{"id": k, "weight": 1.0,
               "boundary": k // n in (0, n - 1) or k % n in (0, n - 1)}
              for k in range(n * n)]
    edges = ([[k, k + 1, 0.125] for k in range(n * n) if k % n < n - 1]
             + [[k, k + n, 0.125] for k in range(n * n - n)])
    (tmp_path / "lattice.json").write_text(json.dumps(
        {"metric": "graph", "points": points, "edges": edges}))
    assert python("import sys\n"
                  "from pharmonious import RadiusField, load_space\n"
                  "from pharmonious.radius import check_hypotheses\n"
                  "sp = load_space('lattice.json')\n"
                  "rho = RadiusField.scaled_boundary_distance(sp, 0.4)\n"
                  "assert not check_hypotheses(sp, rho, 0.3, 0.5, 1.0, 0.4).failed\n"
                  "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))",
                  cwd=tmp_path) == []


def test_cloud_validate_loads_no_scipy(tmp_path):
    # validate reads boundary distances and the radius field, no ball; the
    # boundary query used to build KD-trees of scipy.spatial
    rng = np.random.default_rng(7)
    coords = rng.uniform(size=(2000, 2))
    edge = np.minimum(coords, 1.0 - coords).min(axis=1)
    (tmp_path / "cloud.json").write_text(json.dumps({"metric": "euclidean", "points": [
        {"id": k, "coords": c.tolist(), "weight": 1.0, "boundary": bool(e < 0.02)}
        for k, (c, e) in enumerate(zip(coords, edge))]}))
    calls = json.dumps(pipeline(["--space", "cloud.json"], [])[:1])
    assert python(PIPELINE, "plain", calls, cwd=tmp_path) == []
    assert (tmp_path / "out" / "validate.json").exists()


@pytest.mark.parametrize("space", ["grid", "json"])
def test_graph_pipeline_loads_no_scipy(tmp_path, space):
    # shallow searches run by rounds: ball tables, the certify residual,
    # the adjacent-pair Holder scan and (json: no analytic constants) the
    # probes; they used to load scipy.sparse.csgraph for Dijkstra rows
    n = 9
    if space == "grid":
        rows = ["id,value"] + [f"{k},{(k // n) / (n - 1)!r}" for k in range(n * n)]
        (tmp_path / "boundary.csv").write_text("\n".join(rows) + "\n")
        args = ["--grid", "lattice", "--n", str(n)], ["--boundary", "../boundary.csv"]
    else:
        (tmp_path / "lattice.json").write_text(json.dumps(lattice_doc(n)))
        args = ["--space", "../lattice.json"], ["--boundary-fn", "saddle"]
    certificate = run_without_scipy(tmp_path, pipeline(*args))["certificate.json"]
    assert (b'"probed"' in certificate) == (space == "json")


def test_hub_lattice_pipeline_loads_no_scipy(tmp_path):
    # the hub heads a tree of copies of itself in the padded table; a graph
    # with a hub used to run every search on scipy's Dijkstra
    (tmp_path / "hub.json").write_text(json.dumps(hub_lattice_doc()))
    run_without_scipy(tmp_path, pipeline(["--space", "../hub.json"],
                                         ["--boundary-fn", "saddle", "--init-fn", "saddle"]))


def test_matrix_validate_loads_no_scipy(tmp_path):
    # the triangle check is a numpy min-plus closure; it used to be scipy's
    # shortest_path
    sp = matrix_cloud()
    (tmp_path / "matrix.json").write_text(json.dumps({
        "metric": "matrix", "matrix": sp._metric.matrix.tolist(),
        "points": [{"id": k, "weight": float(w), "boundary": bool(b)}
                   for k, (w, b) in enumerate(zip(sp.weights, sp.boundary_mask))]}))
    run_without_scipy(tmp_path, pipeline(["--space", "../matrix.json"], [])[:1],
                      files=["validate.json"])


TABLES = """
import sys
import numpy as np
from pharmonious import BallTable, RadiusField, load_space
sp = load_space("space.json")
rho = RadiusField.scaled_boundary_distance(sp, 0.6)
table = BallTable(sp, rho)
members, counts = sp.balls(np.arange(len(sp)), rho.values)
d = sp.distances(np.arange(len(sp)))
want = [np.flatnonzero(row <= r) for row, r in zip(d, rho.values)]
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "keys": sp._metric._strips[2].shape[1],
    "oracle": np.array_equal(members, np.concatenate(want))
              and counts.tolist() == [len(w) for w in want],
    "table": int(table.counts.sum()) == int(counts[sp.interior_indices].sum())}))
"""


@pytest.mark.parametrize("space", ["cloud", "grid3d"])
def test_cloud_and_3d_grid_pipelines_load_no_scipy(tmp_path, space):
    # keys of two columns: the slab search keeps the candidates within
    # reach by their closed-form key distance, where a KD-tree of
    # scipy.spatial used to search them
    sp = cloud(2, 400, 3) if space == "cloud" else cube_grid(9)
    (tmp_path / "space.json").write_text(json.dumps({"metric": "euclidean", "points": [
        {"id": k, "coords": c.tolist(), "weight": 1.0, "boundary": bool(b)}
        for k, (c, b) in enumerate(zip(sp.coords, sp.boundary_mask))]}))
    assert python(TABLES, cwd=tmp_path) == {
        "scipy": [], "keys": 2, "oracle": True, "table": True}
    run_without_scipy(tmp_path, pipeline(["--space", "../space.json"],
                                         ["--boundary-fn", "saddle", "--init-fn", "saddle"]))
