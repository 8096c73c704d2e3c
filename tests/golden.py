"""The pipelines of tests/golden.json and the SHA-256 of their outputs.

    PYTHONPATH=src python tests/golden.py

runs every pipeline in a temporary directory and rewrites tests/golden.json.
A change that moves output bits on purpose reruns it and declares each
changed entry.  Each pipeline runs validate, solve and certify through
cli.main in this process, with relative paths, so that the argv each JSON
output records is fixed; each probe run writes probe.json.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from pharmonious.cli import main

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
}
# a graph has no coordinates, so its data is boundary.csv, id / points
GRAPH_POINTS = {"lattice_17": 17 * 17, "path_101": 101}
PROBES = {
    "probe_2d_33": ["--grid", "2d", "--n", "33"],
    "probe_disk_33": ["--grid", "disk", "--n", "33"],
    "probe_lattice_17": ["--grid", "lattice", "--n", "17"],
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(name):
    """{step: exit code, file: SHA-256}, plus the sweeps and the empirical
    constant, of the pipeline name, run in the current directory."""
    space, data = PIPELINES[name]
    if name in GRAPH_POINTS:
        n = GRAPH_POINTS[name]
        Path("boundary.csv").write_text(
            "id,value\n" + "".join(f"{k},{k / n!r}\n" for k in range(n)))
    out = ["--out", name]
    record = {
        "validate": main(["validate", *space, *HYPOTHESES, *GATE, *out]),
        "solve": main(["solve", *space, *HYPOTHESES, *data, *out]),
        "certify": main(["certify", *space, *HYPOTHESES, "--field", f"{name}/field.csv",
                         "--m", "2", *GATE, *out]),
    }
    for file in ("validate.json", "field.csv", "solve_report.json", "certificate.json"):
        record[file] = _digest(Path(name, file))
    record["sweeps"] = json.loads(Path(name, "solve_report.json").read_text())["iterations_used"]
    record["empirical_constant"] = json.loads(
        Path(name, "certificate.json").read_text())["empirical_constant"]
    return record


def run_probe(name):
    """{probe: exit code, probe.json: SHA-256} of the probe run name, run in
    the current directory."""
    record = {"probe": main(["probe", *PROBES[name], "--out", name])}
    record["probe.json"] = _digest(Path(name, "probe.json"))
    return record


def run(name):
    return run_pipeline(name) if name in PIPELINES else run_probe(name)


if __name__ == "__main__":
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        records = {name: run(name) for name in [*PIPELINES, *PROBES]}
        os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n")
    sys.exit(0)
