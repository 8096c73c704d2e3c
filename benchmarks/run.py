"""Benchmark: the CLI pipeline validate -> solve -> certify, end to end.

Usage (from the root of a checkout; the program is imported from ``src/``):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all      # every workload in turn

Workloads (the inputs do not depend on the seed; the seed reaches every
call's ``--seed``, which drives the sampled scans and the probes):

    ref2d_129        square_grid(129): bound by the sweep kernel (431 sweeps
                     over 5.6M ball memberships); the Lipschitz scan samples.
    lattice65_graph  65x65 lattice graph (edge length 1/64) read from a space
                     JSON with coordinates and no analytic constants: bound
                     by ball tables built from Dijkstra rows; certify probes.
    ref2d_65         square_grid(65), the pinned acceptance size: interpreter
                     set-up and exact pair scans dominate, sweeps are minor.
                     Runnable here, but left out of BENCHMARK.json: three
                     workloads do not fit the benchmark's time budget.

``--trace 0`` runs pipelines as fresh ``python -m pharmonious.cli``
processes, one at a time, until ``--seconds`` have passed (at least one),
then repeats ``validate`` and ``certify`` alone until each has three
samples.  It reports the median wall time of each call, their sum as the
pipeline time, the median over pipelines of the largest peak RSS among a
pipeline's processes, and the median of three fresh-interpreter set-ups
(import plus Space and RadiusField).  BENCHMARK.json bounds the pipeline
time, set-up time and peak RSS; the per-call times are printed and recorded
without a bound, since on a shared machine a single call of a few seconds
drifts by more than any useful bound between runs.

``--trace 1`` repeats the pipeline traced (``benchmarks/tracer.py``, span
wrappers on every public function of each module) and reports per-layer
self and inclusive times, kernel counts, solver convergence, the span
coverage of each call, and the tracing overhead: the traced total minus the
median untraced total recorded by earlier runs in this checkout.

Every call is checked: exit code 0, no traceback, ``validate`` and the
certificate pass, ``solve`` converged under its tolerance, sweep counts and
empirical Holder constants equal ``benchmarks/reference.json``, and outputs
(``field.csv`` and the manifest JSON files) are byte-identical to every
earlier pipeline of the same workload, seed and source tree.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Full records, with the machine description, go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable or "python3"

DEADLINE_S = 165.0       # a run must end within 180 s
SETUP_REPS = 3
MIN_CALL_SAMPLES = 3
OUTPUT_FILES = ("validate.json", "field.csv", "solve_report.json",
                "certificate.json")
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SOLVE_TOL = 1e-8
CONSTANT_RTOL = 1e-9
RATE_TAIL = 50           # residuals used for the contraction-rate estimate
MIN_COVERAGE = 0.9       # share of a traced call the spans should explain

COMMON = ["--rho-factor", "0.4", "--alpha", "0.3"]
LATTICE_FILE = "lattice65.json"


class Workload:
    def __init__(self, name, space_args, probe_args, lattice_n=None):
        self.name = name
        self.space_args = space_args
        self.probe_args = probe_args
        self.lattice_n = lattice_n

    def calls(self, seed):
        s = ["--seed", str(seed), "--out", "out"]
        gate = ["--epsilon", "0.5", "--lam", "0.4"]
        return [
            ("validate", ["validate", *self.space_args, *COMMON, *gate, *s]),
            ("solve", ["solve", *self.space_args, *COMMON,
                       "--boundary-fn", "saddle", "--init-fn", "saddle",
                       "--tol", repr(SOLVE_TOL), *s]),
            ("certify", ["certify", *self.space_args, *COMMON,
                         "--field", "out/field.csv", "--m", "2", *gate,
                         "--residual-tol", "1e-7", *s]),
        ]


WORKLOADS = {
    "ref2d_129": Workload("ref2d_129", ["--grid", "2d", "--n", "129"],
                          ["--grid", "129", "0.4"]),
    "ref2d_65": Workload("ref2d_65", ["--grid", "2d", "--n", "65"],
                         ["--grid", "65", "0.4"]),
    "lattice65_graph": Workload("lattice65_graph",
                                ["--space", "../" + LATTICE_FILE],
                                ["--space", LATTICE_FILE, "0.4"], lattice_n=65),
}


def lattice_space_doc(n):
    """n-by-n lattice graph on [0,1]^2 with coordinates, Lebesgue weights
    and the outer frame as boundary; no analytic constants."""
    h = 1.0 / (n - 1)
    points, edges = [], []
    for i in range(n):
        for j in range(n):
            k = i * n + j
            points.append({"id": k, "coords": [i * h, j * h], "weight": h * h,
                           "boundary": i in (0, n - 1) or j in (0, n - 1)})
            if i + 1 < n:
                edges.append([k, k + n, h])
            if j + 1 < n:
                edges.append([k, k + 1, h])
    return {"metric": "graph", "points": points, "edges": edges}


# -- processes -------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def kill(pid):
    # the child is reaped only by wait4 below, so its pid is not reused
    # before the timer is cancelled
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd, cwd, tag, timeout):
    """Run cmd in cwd to completion, killing it after timeout seconds; return
    (exit code, wall s, peak RSS MB, stdout, stderr).  The child's own
    rusage gives its peak RSS; its output goes to cwd/tag.{stdout,stderr}."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err,
                                env=child_env())
        timer = threading.Timer(max(timeout, 1.0), kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


# -- checks ----------------------------------------------------------------------


def read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_call(workload, name, rc, stdout, stderr, out_dir):
    """Problems with one finished CLI call; an empty list means it passed."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "Traceback (most recent call last)" in stdout + stderr:
        problems.append("traceback printed")
    ref = REFERENCE[workload.name]
    if name == "validate":
        doc = read_json(out_dir / "validate.json")
        if not doc or doc.get("pass") is not True:
            problems.append("validate did not pass")
    elif name == "solve":
        doc = read_json(out_dir / "solve_report.json")
        if not doc or doc.get("converged") is not True:
            problems.append("solve did not converge")
        else:
            res = doc.get("final_residual")
            if not isinstance(res, (int, float)) or not res <= SOLVE_TOL:
                problems.append(f"final residual {res} above {SOLVE_TOL}")
            if doc.get("iterations_used") != ref["sweeps"]:
                problems.append(f"{doc.get('iterations_used')} sweeps, "
                                f"reference {ref['sweeps']}")
    else:
        doc = read_json(out_dir / "certificate.json")
        if not doc or doc.get("pass") is not True:
            problems.append("certificate did not pass")
        else:
            emp = doc.get("empirical_constant")
            want = ref["empirical_constant"]
            if not isinstance(emp, (int, float)) or \
                    not abs(emp - want) <= CONSTANT_RTOL * abs(want):
                problems.append(f"empirical constant {emp}, reference {want}")
    return problems


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests per (workload, seed, source tree), kept across runs so
    that every pipeline is compared with the first one ever recorded."""

    def __init__(self, path, key):
        self.path, self.key = path, key
        self.all = read_json(path) or {}

    def check(self, out_dir):
        got = {}
        for fname in OUTPUT_FILES:
            f = out_dir / fname
            got[fname] = hashlib.sha256(f.read_bytes()).hexdigest() \
                if f.exists() else None
        want = self.all.setdefault(self.key, got)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        return [f"{f} differs from an earlier run" for f in OUTPUT_FILES
                if want.get(f) != got[f]]


class UntracedLog:
    """Untraced pipeline totals per (workload, source tree), kept across runs
    as the baseline of the tracing overhead."""

    def __init__(self, path, key):
        self.path, self.key = path, key

    def totals(self):
        return (read_json(self.path) or {}).get(self.key, [])

    def add(self, total):
        doc = read_json(self.path) or {}
        doc.setdefault(self.key, []).append(total)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(doc, indent=1, sort_keys=True))


# -- one pipeline ------------------------------------------------------------------


def run_call(workload, name, argv, cwd, deadline, traced=False):
    """One CLI call in cwd, as a fresh interpreter, and its checks."""
    if traced:
        cmd = [PY, str(BENCH / "tracer.py"), f"spans_{name}.json", "--", *argv]
    else:
        cmd = [PY, "-m", "pharmonious.cli", *argv]
    rc, wall, rss, out, err = run_process(cmd, cwd, name,
                                          deadline - time.perf_counter())
    return {"wall_s": wall, "peak_rss_mb": rss, "exit": rc,
            "problems": check_call(workload, name, rc, out, err, cwd / "out")}


def run_pipeline(workload, seed, cwd, deadline, digests, traced=False):
    """validate -> solve -> certify in cwd.  A failed call ends the pipeline;
    the calls it skips count as failed."""
    if cwd.exists():
        shutil.rmtree(cwd)
    calls = {}
    problems = []
    for name, argv in workload.calls(seed):
        if problems:
            calls[name] = {"skipped": True, "problems": ["earlier call failed"]}
            continue
        calls[name] = run_call(workload, name, argv, cwd, deadline, traced)
        problems = calls[name]["problems"]
    if not problems:
        calls["certify"]["problems"] = problems = digests.check(cwd / "out")
    failed = sum(1 for c in calls.values() if c["problems"])
    return {"calls": calls, "failed": failed, "ok": failed == 0,
            "total_s": sum(c.get("wall_s", 0.0) for c in calls.values()),
            "peak_rss_mb": max(c.get("peak_rss_mb", 0.0) for c in calls.values())}


# -- traced metrics ----------------------------------------------------------------


class SpanSet:
    """Spans of one traced call, with inclusive and self times."""

    def __init__(self, doc):
        self.spans = doc["spans"]
        self.dur = [s[4] - s[3] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, self.dur):
            if s[0] >= 0:
                child[s[0]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def named(self, pred):
        return [k for k, s in enumerate(self.spans) if pred(s[2])]

    def inclusive(self, pred):
        """Time inside spans matching pred, counting nested matches once."""
        total = 0.0
        for k in self.named(pred):
            p = self.spans[k][0]
            while p >= 0 and not pred(self.spans[p][2]):
                p = self.spans[p][0]
            if p < 0:
                total += self.dur[k]
        return total

    def self_of(self, pred):
        return sum(self.self_time[k] for k in self.named(pred))

    def layer_self(self, layer):
        return sum(t for s, t in zip(self.spans, self.self_time) if s[1] == layer)

    def roots(self):
        return sum(d for s, d in zip(self.spans, self.dur) if s[0] < 0)


def is_(*names):
    names = set(names)
    return lambda n: n in names


def contraction_rate(history):
    """Geometric mean ratio of successive residuals over the history's tail."""
    tail = [r for r in history[-RATE_TAIL:] if r > 0]
    if len(tail) < 2:
        return float("nan")
    return math.exp((math.log(tail[-1]) - math.log(tail[0])) / (len(tail) - 1))


CONSTRUCTORS = is_("space.square_grid", "space.interval_grid", "space.disk_grid",
                   "space.path_graph", "space.lattice_graph", "space.load_space",
                   "space.space_from_dict", "space.Space.__init__")


def layer_metrics(cwd):
    docs = {name: json.loads((cwd / f"spans_{name}.json").read_text())
            for name in ("validate", "solve", "certify")}
    sets = {name: SpanSet(doc) for name, doc in docs.items()}
    every = list(sets.values())

    def total(fn):
        return sum(fn(s) for s in every)

    sweeps = [(s.dur[k], s.spans[k][5]["members"]) for s in every
              for k in s.named(is_("operators.BallTable.alpha_means"))]
    tables = [t for doc in docs.values() for t in doc["tables"]]
    largest = max(tables, key=lambda t: t["members"]) if tables else {}
    rows = [len({s.spans[k][5]["source"]
                 for k in s.named(is_("space.Space.distances_from"))})
            for s in every]
    holder = [s.spans[k][5] for s in every
              for k in s.named(is_("regularity.empirical_holder"))]
    report = json.loads((cwd / "out" / "solve_report.json").read_text())
    m = {
        "operators.sweep_s": sum(d for d, _ in sweeps),
        "operators.sweep_calls": len(sweeps),
        "operators.sweep_ms_p50": 1e3 * statistics.median(d for d, _ in sweeps)
        if sweeps else 0.0,
        "operators.memberships_per_s": sum(n for _, n in sweeps)
        / max(sum(d for d, _ in sweeps), 1e-12),
        "operators.members": largest.get("members", 0),
        "operators.index_runs": largest.get("index_runs", 0),
        "operators.bytes_per_sweep_computed": largest.get("bytes_per_sweep", 0),
        "operators.table_build_s": total(lambda s: s.inclusive(
            is_("operators.BallTable.__init__"))),
        "operators.table_builds": len(tables),
        "operators.field_io_s": total(lambda s: s.inclusive(
            is_("operators.read_field_csv", "operators.write_field_csv"))),
        "space.construct_s": total(lambda s: s.inclusive(CONSTRUCTORS)),
        "space.boundary_distances_s": total(lambda s: s.inclusive(
            is_("space.Space.boundary_distances"))),
        "space.distances_from_calls": total(lambda s: len(
            s.named(is_("space.Space.distances_from")))),
        "space.distance_rows": max(rows),
        "space.probe_calls": total(lambda s: len(
            s.named(lambda n: n.startswith("space.Space.probe_")))),
        "radius.rho_s": total(lambda s: s.inclusive(
            is_("radius.RadiusField.scaled_boundary_distance",
                "radius.read_radius_csv"))),
        "radius.fit_lipschitz_s": total(lambda s: s.inclusive(
            is_("radius.fit_lipschitz"))),
        "radius.fit_lipschitz_calls": total(lambda s: len(
            s.named(is_("radius.fit_lipschitz")))),
        "solver.sweeps": report["iterations_used"],
        "solver.solve_self_s": total(lambda s: s.self_of(
            is_("solver.solve_dirichlet"))),
        "solver.residual_s": total(lambda s: s.inclusive(is_("solver.residual"))),
        "solver.contraction_rate": contraction_rate(report["residual_history"]),
        "regularity.certify_self_s": total(lambda s: s.self_of(
            is_("regularity.certify"))),
        "regularity.empirical_holder_s": total(lambda s: s.inclusive(
            is_("regularity.empirical_holder"))),
        "regularity.holder_pairs": sum(h["pairs"] for h in holder),
        "regularity.sampled_scans": sum(h["mode"] == "sampled" for h in holder),
        "regularity.space_constants_s": total(lambda s: s.inclusive(
            is_("regularity.space_constants"))),
        "cli.import_s": sum(doc["import_s"] for doc in docs.values()),
        "trace.spans": total(lambda s: len(s.spans)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(lambda s: s.layer_self(layer))
    for name, s in sets.items():
        doc = docs[name]
        m[f"trace.coverage_{name}"] = (doc["import_s"] + s.roots()) / doc["script_s"]
    return m


# -- machine record ----------------------------------------------------------------


def machine_record(seed, probe):
    """What ran where: CPU, caches, library versions, kernel identity."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "numba_importable": probe.get("numba_importable"),
        "USE_COMPILED_SWEEP": probe.get("USE_COMPILED_SWEEP"),
        "kernel": "compiled" if probe.get("USE_COMPILED_SWEEP") is True
        else "numpy",
        "seed": seed,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k.startswith(("OMP_", "MKL_",
                                                          "OPENBLAS_", "NUMBA_"))},
    }


# -- measurement -------------------------------------------------------------------


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()
        self.deadline = self.start + DEADLINE_S
        self.dir = OUT / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        src = source_digest()
        self.digests = DigestStore(OUT / "digests.json",
                                   f"{workload.name}|seed={seed}|src={src}")
        self.untraced = UntracedLog(OUT / "untraced_totals.json",
                                    f"{workload.name}|src={src}")
        self.dir.mkdir(parents=True, exist_ok=True)
        if workload.lattice_n:
            (self.dir / LATTICE_FILE).write_text(
                json.dumps(lattice_space_doc(workload.lattice_n)))

    def setups(self, reps):
        """Fresh-interpreter set-up times (import + Space + RadiusField)."""
        out = []
        cmd = [PY, str(BENCH / "setup_probe.py"), *self.workload.probe_args]
        for k in range(reps):
            self.attempted += 1
            rc, wall, rss, stdout, stderr = run_process(
                cmd, self.dir, f"setup{k}", self.deadline - time.perf_counter())
            doc = None
            if rc == 0:
                try:
                    doc = json.loads(stdout.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    doc = None
            if doc is None:
                self.failed += 1
                self.problems.append(f"setup probe failed: exit {rc}: {stderr[-300:]}")
                continue
            out.append(doc)
        return out

    def pipeline(self, tag, traced=False):
        p = run_pipeline(self.workload, self.seed, self.dir / tag,
                         self.deadline, self.digests, traced)
        if p["ok"] and not traced:
            self.untraced.add(p["total_s"])
        self.attempted += len(p["calls"])
        self.failed += p["failed"]
        for name, call in p["calls"].items():
            self.problems += [f"{tag} {name}: {msg}" for msg in call["problems"]]
        return p

    def more(self, done, last_s):
        """Keep measuring until --seconds have passed, if another round still
        fits before the deadline."""
        if not done:
            return True
        now = time.perf_counter()
        return (now - self.start < self.seconds and now + last_s < self.deadline
                and not self.problems)

    def measure_end_to_end(self):
        setups = self.setups(SETUP_REPS)
        runs, last = [], 0.0
        self.start = time.perf_counter()
        while self.more(runs, last):
            p = self.pipeline(f"p{len(runs)}")
            last = p["total_s"]
            runs.append(p)
        walls = {name: [p["calls"][name]["wall_s"] for p in runs
                        if "wall_s" in p["calls"][name]]
                 for name in ("validate", "solve", "certify")}
        self.top_up(walls)
        metrics = {f"{name}_s": statistics.median(w) if w else math.nan
                   for name, w in walls.items()}
        # the pipeline is its three calls in sequence
        metrics["total_s"] = sum(metrics[f"{name}_s"] for name in walls)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in runs)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups) \
            if setups else math.nan
        samples = {"pipelines": len(runs), "setups": len(setups),
                   "call_walls": walls, "per_pipeline": runs,
                   "per_setup": setups}
        return metrics, samples, (setups[0] if setups else {})

    def top_up(self, walls):
        """Repeat validate and certify in the first pipeline's directory until
        each has MIN_CALL_SAMPLES wall times.  A single call of a few seconds
        varies by about 20% on a shared two-core machine; unlike the solve,
        these two are cheap on every workload.  Each repeat is checked and
        its outputs byte-compared like a pipeline's."""
        cwd = self.dir / "p0"
        argv = dict(self.workload.calls(self.seed))
        for name in ("validate", "certify"):
            while (not self.problems and len(walls[name]) < MIN_CALL_SAMPLES
                   and time.perf_counter() + statistics.median(walls[name])
                   < self.deadline):
                call = run_call(self.workload, name, argv[name], cwd, self.deadline)
                problems = call["problems"] or self.digests.check(cwd / "out")
                self.attempted += 1
                self.failed += bool(problems)
                self.problems += [f"p0 {name} repeat: {msg}" for msg in problems]
                walls[name].append(call["wall_s"])

    def measure_layers(self):
        """Traced pipelines until --seconds have passed.  The tracing overhead
        is the traced total minus the median untraced total recorded for this
        workload and source tree by earlier runs; a run that finds none runs
        one untraced pipeline after the traced ones, if it fits."""
        probe = self.setups(1)
        rounds, last = [], 0.0
        self.start = time.perf_counter()
        while self.more(rounds, last):
            tag = f"t{len(rounds)}"
            traced = self.pipeline(tag, traced=True)
            last = traced["total_s"]
            if not traced["ok"]:
                break
            rounds.append(layer_metrics(self.dir / tag))
            rounds[-1]["trace.overhead_s"] = last
        if (rounds and not self.untraced.totals() and not self.problems
                and time.perf_counter() + last < self.deadline):
            self.pipeline("p0")
        baseline = self.untraced.totals()
        for r in rounds:
            if baseline:
                r["trace.overhead_s"] -= statistics.median(baseline)
            else:
                self.notes.append("no untraced pipeline recorded: "
                                  "trace.overhead_s reported as 0")
                r["trace.overhead_s"] = 0.0
        metrics = {name: statistics.median(r[name] for r in rounds)
                   for name in rounds[0]} if rounds else {}
        return metrics, {"pipelines": len(rounds), "per_pipeline": rounds}, \
            (probe[0] if probe else {})


def benchmark_metrics(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    if trace:
        measured, samples, probe = run.measure_layers()
        wanted = benchmark_metrics("per_layer")
    else:
        measured, samples, probe = run.measure_end_to_end()
        wanted = benchmark_metrics("end_to_end")
    if probe and not str(probe.get("pharmonious_file", "")).startswith(str(SRC)):
        run.failed += 1
        run.problems.append(f"pharmonious imported from outside {SRC}: "
                            f"{probe.get('pharmonious_file')}")
    unmeasured = [name for name in wanted
                  if not math.isfinite(measured.get(name, math.nan))]
    if unmeasured and not run.problems:
        run.problems.append(f"metrics not measured: {unmeasured}")
    metrics = {name: {"value": 0.0 if name in unmeasured else measured[name],
                      "unit": unit}
               for name, unit in wanted.items()}
    machine = machine_record(seed, probe)
    error_rate = run.failed / max(run.attempted, 1)

    print(f"workload {workload.name}  seed {seed}  trace {trace}  "
          f"kernel {machine['kernel']}  medians over {samples['pipelines']} "
          f"{'traced ' if trace else ''}pipelines")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    # per-call times: measured and recorded, but not bounded in BENCHMARK.json
    calls = {name: v for name, v in measured.items() if name not in wanted}
    for name, v in calls.items():
        print(f"  {name:38s} {v:.6g} s (no bound)")
    print(f"  {'error_rate':38s} {error_rate:.6g} ({run.failed} of "
          f"{run.attempted} calls failed)")
    for msg in run.problems:
        print(f"  problem: {msg}")
    low = {k: m["value"] for k, m in metrics.items()
           if k.startswith("trace.coverage_") and m["value"] < MIN_COVERAGE}
    if low:
        run.notes.append(f"spans cover less than {MIN_COVERAGE:.0%}: {low}")
    for msg in dict.fromkeys(run.notes):
        print(f"  note: {msg}")
    print("machine: " + json.dumps(machine, sort_keys=True))

    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "seconds": seconds, "machine": machine, "metrics": metrics,
              "unbounded_metrics": calls,
              "error_rate": error_rate, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems, "samples": samples}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{workload.name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return {"correct": not run.problems and run.failed == 0,
            "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pharmonious" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'pharmonious'} is missing",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
