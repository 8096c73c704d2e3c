"""The pipelines of tests/golden.json and the SHA-256 of their outputs.

    PYTHONPATH=src python tests/golden.py

runs every pipeline in a temporary directory and rewrites tests/golden.json.
A change that moves output bits on purpose reruns it and declares each
changed entry.  Each pipeline runs validate, solve and certify through
cli.main in this process, with relative paths, so that the argv each JSON
output records is fixed; each probe run writes probe.json.  The cloud, the
cube and the matrix space carry no analytic constants, so their
certificates hold probed ones; each is written as a space JSON first.  A
variant reruns a pipeline with more arguments to some of its steps, so that
the reports' other branches keep their bytes too.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from pharmonious.cli import main

from conftest import cube_grid, disk_cloud, matrix_cloud

GOLDEN = Path(__file__).resolve().parent / "golden.json"
HYPOTHESES = ["--rho-factor", "0.4", "--alpha", "0.3"]
GATE = ["--epsilon", "0.5", "--lam", "0.4"]
# name: (space arguments, solve's data arguments)
PIPELINES = {
    "1d_65": (["--grid", "1d", "--n", "65"],
              ["--boundary-fn", "linear", "--init-fn", "linear"]),
    "2d_33": (["--grid", "2d", "--n", "33"],
              ["--boundary-fn", "saddle", "--init-fn", "saddle"]),
    "disk_33": (["--grid", "disk", "--n", "33"],
                ["--boundary-fn", "saddle", "--init-fn", "saddle"]),
    "lattice_17": (["--grid", "lattice", "--n", "17"], ["--boundary", "boundary.csv"]),
    "path_101": (["--grid", "path", "--n", "101"], ["--boundary", "boundary.csv"]),
    "cloud_500": (["--space", "cloud_500.json"],
                  ["--boundary-fn", "saddle", "--init-fn", "saddle"]),
    "cube_9": (["--space", "cube_9.json"],
               ["--boundary-fn", "saddle", "--init-fn", "saddle"]),
    "matrix_80": (["--space", "matrix_80.json"], ["--boundary", "boundary.csv"]),
}
# a space without coordinates takes its data from boundary.csv, id / points
NO_COORDS = {"lattice_17": 17 * 17, "path_101": 101, "matrix_80": 80}
# name: the space its pipeline writes to name.json
SPACES = {"cloud_500": lambda: disk_cloud(500, 4), "cube_9": lambda: cube_grid(9),
          "matrix_80": matrix_cloud}
# name: (pipeline, {step: arguments added to it}); every pipeline above
# converges, passes its gate and records no snapshots: these record the
# iterate modulus, stop on the sweep budget (exit 3; certified at a residual
# tolerance the last iterate meets) and take a lambda past the gate's window
# (validate and certify exit 1, the certificate's bound is null)
VARIANTS = {
    "2d_33_snapshots": ("2d_33", {"solve": ["--record-every", "50"]}),
    "2d_33_budget": ("2d_33", {"solve": ["--max-iter", "20"],
                               "certify": ["--residual-tol", "1"]}),
    "2d_33_lam_5": ("2d_33", {"validate": ["--lam", "5"], "certify": ["--lam", "5"]}),
}
PROBES = {
    "probe_2d_33": ["--grid", "2d", "--n", "33"],
    "probe_disk_33": ["--grid", "disk", "--n", "33"],
    "probe_lattice_17": ["--grid", "lattice", "--n", "17"],
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def space_doc(sp):
    """The JSON document of the Euclidean or matrix space sp, its points in
    order, ids 0 to n - 1."""
    points = [{"id": k, "weight": w, "boundary": b} for k, (w, b) in
              enumerate(zip(sp.weights.tolist(), sp.boundary_mask.tolist()))]
    if sp.coords is None:
        return {"metric": "matrix", "points": points, "matrix": sp._metric.matrix.tolist()}
    for point, c in zip(points, sp.coords.tolist()):
        point["coords"] = c
    return {"metric": "euclidean", "points": points}


def run_pipeline(name, extra=()):
    """{step: exit code, file: SHA-256}, plus the numbers a reader wants in a
    diff (sweeps, final residual, empirical constant, C and theoretical
    constant), of the pipeline or variant name, run in the current
    directory; extra arguments go to every step."""
    base, added = VARIANTS.get(name, (name, {}))
    space, data = PIPELINES[base]
    if base in SPACES:
        Path(f"{base}.json").write_text(json.dumps(space_doc(SPACES[base]())))
    if base in NO_COORDS:
        n = NO_COORDS[base]
        Path("boundary.csv").write_text(
            "id,value\n" + "".join(f"{k},{k / n!r}\n" for k in range(n)))
    out = ["--out", name, *extra]
    steps = {
        "validate": [*space, *HYPOTHESES, *GATE, *out],
        "solve": [*space, *HYPOTHESES, *data, *out],
        "certify": [*space, *HYPOTHESES, "--field", f"{name}/field.csv", "--m", "2",
                    *GATE, *out],
    }
    record = {step: main([step, *argv, *added.get(step, ())])
              for step, argv in steps.items()}
    for file in ("validate.json", "field.csv", "solve_report.json", "certificate.json"):
        record[file] = _digest(Path(name, file))
    report = json.loads(Path(name, "solve_report.json").read_text())
    certificate = json.loads(Path(name, "certificate.json").read_text())
    record["sweeps"] = report["iterations_used"]
    record["final_residual"] = report["final_residual"]
    record["empirical_constant"] = certificate["empirical_constant"]
    record["C"] = certificate["constants"]["C"]
    record["theoretical_constant"] = certificate["theoretical_constant"]
    return record


def run_probe(name):
    """{probe: exit code, probe.json: SHA-256} of the probe run name, run in
    the current directory."""
    record = {"probe": main(["probe", *PROBES[name], "--out", name])}
    record["probe.json"] = _digest(Path(name, "probe.json"))
    return record


def run(name):
    return run_probe(name) if name in PROBES else run_pipeline(name)


if __name__ == "__main__":
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        records = {name: run(name) for name in [*PIPELINES, *VARIANTS, *PROBES]}
        os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n")
    sys.exit(0)
