"""The CI workflow runs the tier-1 command that ROADMAP.md declares and the
console script that pyproject.toml declares."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_roadmap_tier1_command():
    # the workflow cannot run offline; this is what keeps the two in step
    declared = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                         (ROOT / "ROADMAP.md").read_text())
    assert declared, "ROADMAP.md declares no tier-1 command"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert declared.group(1) in [line.strip() for line in workflow.splitlines()]


def test_workflow_matrix_includes_the_python_floor():
    # the floor is read with a regex: tomllib is not in Python 3.10
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"^\s*python-version:\s*\[([^\]]*)\]", workflow, re.MULTILINE)
    assert matrix, "the workflow has no python-version matrix"
    versions = [v.strip().strip("'\"") for v in matrix.group(1).split(",")]
    assert floor.group(1) in versions


def test_workflow_job_has_a_timeout():
    # without timeout-minutes a hung test holds the runner for six hours
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    job = re.search(r"^  tier1:\n((?:    .*\n|\s*\n)*)", workflow, re.MULTILINE)
    assert job, "the workflow has no tier1 job"
    timeout = re.search(r"^    timeout-minutes:\s*(\d+)\s*$", job.group(1), re.MULTILINE)
    assert timeout, "the tier1 job sets no timeout-minutes"
    assert 0 < int(timeout.group(1)) <= 60


def test_workflow_runs_the_console_script():
    # pyproject.toml declares the pharmonious entry point; the tier-1 tests
    # call cli.main directly, so only these steps run the installed script:
    # validate, a check that it recorded the analytic L, solve with modulus
    # snapshots, a check that solve_report.json holds its keys in the
    # report's declaration order and a snapshot, then certify of the
    # solved field; on a lattice graph validate, the boundary
    # CSV, solve, certify and a certify through .github/lean_imports.py,
    # which fails if cli.main imports any scipy, numpy.random or numpy.ma
    # module; a 9 x 9 lattice space JSON without analytic constants, its
    # solve, a certify through .github/lean_imports.py and a check that the
    # certificate's constants were probed; a 17 x 17 hub lattice space JSON,
    # its solve and a certify through .github/lean_imports.py; a 60-point
    # matrix space JSON and a validate through .github/lean_imports.py; a
    # 2-D cloud space and its validate, solve and certify, each through
    # .github/lean_imports.py; a
    # 9 x 9 x 9 cube space JSON and the same three through
    # .github/lean_imports.py; on the disk grid validate, solve, certify and a probe through
    # .github/lean_imports.py; on the 97 x 97 grid a solve, a
    # certify at m = 3 and a check that its Holder scan was exact; on a
    # path of 401 nodes (rows on Dijkstra) a validate through
    # .github/lean_imports.py, then a probe; a probe of a 33 x 33 lattice and a
    # check that its probe.json holds both default deltas' annular decay
    # estimates at 1 or more, a finite doubling estimate and a ring jump in
    # [0, 1); one p-expansion; two validates that must exit 2, one with a
    # negative seed, one with a nan delta; an asymptotics at an overflowing point
    # that must exit 2; a certify at a 321-digit m that must exit 1
    # with no traceback; a certify at a negative residual tolerance that
    # must exit 2; and a solve at a 400-digit sweep budget that must exit 2
    # with no traceback
    script = re.search(r'^pharmonious\s*=\s*"pharmonious\.cli:main"',
                       (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert script, "pyproject.toml declares no pharmonious console script"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.strip()[len("run:"):].strip() for line in workflow.splitlines()
            if line.strip().startswith("run:")]
    smoke = ['pharmonious validate --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/smoke"',
             'grep -qE \'"L_mode":[[:space:]]+"analytic"\' "$RUNNER_TEMP/smoke/validate.json"',
             'pharmonious solve --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--boundary-fn linear --record-every 10 --out "$RUNNER_TEMP/smoke"',
             'python -c "import json, sys; r = json.load(open(sys.argv[1])); '
             'sys.exit(not (list(r) == [\'manifest\', \'iterations_used\', '
             '\'residual_history\', \'converged\', \'final_residual\', \'stop_reason\', '
             '\'modulus_snapshots\'] and r[\'modulus_snapshots\']))" '
             '"$RUNNER_TEMP/smoke/solve_report.json"',
             'pharmonious certify --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/smoke/field.csv" --m 2 --epsilon 0.5 --lam 0.4 '
             '--out "$RUNNER_TEMP/smoke"',
             'pharmonious validate --grid lattice --n 9 --rho-factor 0.4 --alpha 0.3 '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/graph"',
             'python -c "print(\'id,value\'); print(*(f\'{k},{(k // 9 - k % 9) / 8}\' '
             'for k in range(81)), sep=chr(10))" > "$RUNNER_TEMP/graph/boundary.csv"',
             'pharmonious solve --grid lattice --n 9 --rho-factor 0.4 --alpha 0.3 '
             '--boundary "$RUNNER_TEMP/graph/boundary.csv" --out "$RUNNER_TEMP/graph"',
             'pharmonious certify --grid lattice --n 9 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/graph/field.csv" --m 2 --epsilon 0.5 --lam 0.4 '
             '--out "$RUNNER_TEMP/graph"',
             'python .github/lean_imports.py certify --grid lattice --n 9 '
             '--rho-factor 0.4 --alpha 0.3 --field "$RUNNER_TEMP/graph/field.csv" '
             '--m 2 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/graph"',
             'python -c "import json; n = 9; h = 1 / (n - 1); print(json.dumps(dict('
             'metric=\'graph\', points=[dict(id=k, coords=[k // n * h, k % n * h], '
             'weight=h * h, boundary=k // n in (0, n - 1) or k % n in (0, n - 1)) '
             'for k in range(n * n)], edges=[[k, k + 1, h] for k in range(n * n) '
             'if k % n < n - 1] + [[k, k + n, h] for k in range(n * n - n)])))" '
             '> "$RUNNER_TEMP/graphjson.json"',
             'pharmonious solve --space "$RUNNER_TEMP/graphjson.json" --rho-factor 0.4 '
             '--alpha 0.3 --boundary-fn saddle --init-fn saddle --out "$RUNNER_TEMP/graphjson"',
             'python .github/lean_imports.py certify --space "$RUNNER_TEMP/graphjson.json" '
             '--rho-factor 0.4 --alpha 0.3 --field "$RUNNER_TEMP/graphjson/field.csv" '
             '--m 2 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/graphjson"',
             'grep -qE \'"source":[[:space:]]+"probed"\' '
             '"$RUNNER_TEMP/graphjson/certificate.json"',
             'python -c "import json, math; n = 17; h = 1 / (n - 1); print(json.dumps(dict('
             'metric=\'graph\', points=[dict(id=k, coords=[k // n * h, k % n * h], '
             'weight=h * h, boundary=k // n in (0, n - 1) or k % n in (0, n - 1)) '
             'for k in range(n * n)], edges=[[k, k + 1, h] for k in range(n * n) '
             'if k % n < n - 1] + [[k, k + n, h] for k in range(n * n - n)] + '
             '[[0, k, math.hypot(k // n, k % n) * h] for k in range(16, n * n, 16)])))" '
             '> "$RUNNER_TEMP/hub.json"',
             'pharmonious solve --space "$RUNNER_TEMP/hub.json" --rho-factor 0.4 '
             '--alpha 0.3 --boundary-fn saddle --init-fn saddle --out "$RUNNER_TEMP/hub"',
             'python .github/lean_imports.py certify --space "$RUNNER_TEMP/hub.json" '
             '--rho-factor 0.4 --alpha 0.3 --field "$RUNNER_TEMP/hub/field.csv" '
             '--m 2 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/hub"',
             'python -c "import json, math, random; random.seed(2); pts = [[random.random(), '
             'random.random()] for k in range(60)]; print(json.dumps(dict(metric=\'matrix\', '
             'points=[dict(id=k, weight=1.0, boundary=min(p + [1 - x for x in p]) < 0.15) '
             'for k, p in enumerate(pts)], matrix=[[math.dist(p, q) for q in pts] '
             'for p in pts])))" > "$RUNNER_TEMP/matrix.json"',
             'python .github/lean_imports.py validate --space "$RUNNER_TEMP/matrix.json" '
             '--rho-factor 0.4 --alpha 0.3 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/matrix"',
             'python -c "import json, random; random.seed(1); pts = [[random.random(), '
             'random.random()] for k in range(2000)]; print(json.dumps(dict('
             'metric=\'euclidean\', points=[dict(id=k, coords=p, weight=1.0, '
             'boundary=min(p + [1 - x for x in p]) < 0.02) for k, p in enumerate(pts)])))" '
             '> "$RUNNER_TEMP/cloud.json"',
             'python .github/lean_imports.py validate --space "$RUNNER_TEMP/cloud.json" '
             '--rho-factor 0.4 --alpha 0.3 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/cloud"',
             'python .github/lean_imports.py solve --space "$RUNNER_TEMP/cloud.json" '
             '--rho-factor 0.4 --alpha 0.3 --boundary-fn saddle --init-fn saddle '
             '--out "$RUNNER_TEMP/cloud"',
             'python .github/lean_imports.py certify --space "$RUNNER_TEMP/cloud.json" '
             '--rho-factor 0.4 --alpha 0.3 --field "$RUNNER_TEMP/cloud/field.csv" --m 2 '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/cloud"',
             'python -c "import json; n = 9; h = 1 / (n - 1); print(json.dumps(dict('
             'metric=\'euclidean\', points=[dict(id=k, coords=[k // n // n * h, '
             'k // n % n * h, k % n * h], weight=h ** 3, boundary=any(i in (0, n - 1) '
             'for i in (k // n // n, k // n % n, k % n))) for k in range(n ** 3)])))" '
             '> "$RUNNER_TEMP/cube.json"',
             'python .github/lean_imports.py validate --space "$RUNNER_TEMP/cube.json" '
             '--rho-factor 0.4 --alpha 0.3 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/cube"',
             'python .github/lean_imports.py solve --space "$RUNNER_TEMP/cube.json" '
             '--rho-factor 0.4 --alpha 0.3 --boundary-fn saddle --init-fn saddle '
             '--out "$RUNNER_TEMP/cube"',
             'python .github/lean_imports.py certify --space "$RUNNER_TEMP/cube.json" '
             '--rho-factor 0.4 --alpha 0.3 --field "$RUNNER_TEMP/cube/field.csv" --m 2 '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/cube"',
             'pharmonious validate --grid disk --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/disk"',
             'pharmonious solve --grid disk --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--boundary-fn saddle --init-fn saddle --out "$RUNNER_TEMP/disk"',
             'pharmonious certify --grid disk --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/disk/field.csv" --m 2 --epsilon 0.5 --lam 0.4 '
             '--out "$RUNNER_TEMP/disk"',
             'python .github/lean_imports.py probe --grid disk --n 33 --out "$RUNNER_TEMP/disk"',
             'pharmonious solve --grid 2d --n 97 --rho-factor 0.4 --alpha 0.3 '
             '--boundary-fn saddle --init-fn saddle --out "$RUNNER_TEMP/grid97"',
             'pharmonious certify --grid 2d --n 97 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/grid97/field.csv" --m 3 --epsilon 0.5 --lam 0.4 '
             '--out "$RUNNER_TEMP/grid97"',
             'grep -qE \'"empirical_mode":[[:space:]]+"exact"\' '
             '"$RUNNER_TEMP/grid97/certificate.json"',
             'python .github/lean_imports.py validate --grid path --n 401 '
             '--rho-factor 0.4 --alpha 0.3 --epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/path"',
             'pharmonious probe --grid path --n 401 --out "$RUNNER_TEMP/path"',
             'pharmonious probe --grid lattice --n 33 --out "$RUNNER_TEMP/lattice33"',
             'python -c "import json, math, sys; p = json.load(open(sys.argv[1]))[\'probe\']; '
             'd = p[\'annular_decay_estimates\']; sys.exit(not (sorted(d) == [\'0.5\', \'1.0\'] '
             'and min(d.values()) >= 1 and math.isfinite(p[\'doubling_estimate\']) '
             'and 0 <= p[\'ring_jump\'] < 1))" '
             '"$RUNNER_TEMP/lattice33/probe.json"',
             'pharmonious asymptotics --fn sq_norm --x 1,0 --n 2 --mode p --p 4 '
             '--out "$RUNNER_TEMP/disk"',
             'if pharmonious validate --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--epsilon 0.5 --lam 0.4 --seed -1; then exit 1; else test $? -eq 2; fi',
             'if pharmonious validate --grid disk --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--epsilon 0.5 --lam 0.4 --delta nan; then exit 1; else test $? -eq 2; fi',
             'if pharmonious asymptotics --fn sq_norm --x 1e200,0 --n 2 '
             '--out "$RUNNER_TEMP/disk"; then exit 1; else test $? -eq 2; fi',
             'if pharmonious certify --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/smoke/field.csv" --m "$(python -c \'print(10 ** 320)\')" '
             '--epsilon 0.5 --lam 0.4 --out "$RUNNER_TEMP/huge" 2> "$RUNNER_TEMP/huge.err"; '
             'then exit 1; else test $? -eq 1 && ! grep -q Traceback "$RUNNER_TEMP/huge.err"; fi',
             'if pharmonious certify --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--field "$RUNNER_TEMP/smoke/field.csv" --m 2 --epsilon 0.5 --lam 0.4 '
             '--residual-tol -1 --out "$RUNNER_TEMP/tol"; then exit 1; else test $? -eq 2; fi',
             'if pharmonious solve --grid 1d --n 33 --rho-factor 0.4 --alpha 0.3 '
             '--boundary-fn linear --max-iter "$(python -c \'print(10 ** 399)\')" '
             '--out "$RUNNER_TEMP/budget" 2> "$RUNNER_TEMP/budget.err"; '
             'then exit 1; else test $? -eq 2 && ! grep -q Traceback "$RUNNER_TEMP/budget.err"; fi']
    assert [run for run in runs
            if "pharmonious " in run or "$RUNNER_TEMP/smoke" in run
            or "$RUNNER_TEMP/graph" in run or "$RUNNER_TEMP/hub" in run
            or "$RUNNER_TEMP/matrix" in run or "$RUNNER_TEMP/cloud" in run
            or "$RUNNER_TEMP/cube" in run
            or "$RUNNER_TEMP/disk" in run
            or "$RUNNER_TEMP/grid97" in run or "$RUNNER_TEMP/path" in run
            or "$RUNNER_TEMP/lattice33" in run] == smoke


def test_workflow_runs_the_golden_test_on_baseline_simd():
    # the golden outputs once more with numpy's AVX2 and AVX-512 kernels
    # off: an output whose bits hang on the SIMD width fails there
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.strip()[len("run:"):].strip() for line in workflow.splitlines()
            if line.strip().startswith("run:")]
    assert 'NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" '\
        'PYTHONPATH=src python -m pytest -q tests/test_golden.py' in runs


def test_workflow_run_lines_are_plain_yaml_scalars():
    # a plain YAML scalar ends at ": " and at " #": the grep for
    # '"L_mode": "analytic"' made the whole workflow fail to parse
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    for line in workflow.splitlines():
        if line.strip().startswith("run:"):
            value = line.strip()[len("run:"):].strip()
            assert value == "|" or (": " not in value and " #" not in value), line
