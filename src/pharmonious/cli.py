"""Command-line orchestration.

Subcommands: probe | validate | solve | certify | asymptotics.  Inputs are
either a space JSON file or a built-in grid; radii come from a CSV or a
boundary-distance scaling; every JSON output embeds the run manifest
(command, argv, seed, threads) so a run can be reproduced byte for byte
from its own output.  Exit codes: 0 pass/converged, 1 hypothesis or
certificate failure, 2 input error, 3 non-convergence.  --threads is
recorded but never changes numeric output (sweeps are synchronous and
reductions use a fixed order).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, operators, radius, regularity, solver
from .errors import (AdmissibilityError, CertificateResidualError,
                     CertificateScopeError, ConfigurationError,
                     DisconnectedSpaceError, SpaceFormatError)
from .space import (check_parameters, disk_grid, interval_grid, lattice_graph,
                    load_space, path_graph, square_grid)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3

CONFIG_KEYS = ("alpha", "tolerance", "max_iterations", "record_every")  # solve --config

BOUNDARY_FUNCTIONS = {
    "zero": lambda c: np.zeros(len(c)),
    "one": lambda c: np.ones(len(c)),
    "linear": lambda c: c[:, 0],
    "saddle": lambda c: c[:, 0] ** 2 - c[:, 1] ** 2,
}


def _add_common(p):
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the probes' random draws (probe, and the "
                        "probed constants of certify); recorded in the manifest")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest; numerically inert")
    p.add_argument("--out", type=Path, default=Path("."))


def _add_space_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--space", type=Path, help="space JSON file")
    g.add_argument("--grid", choices=["1d", "2d", "disk", "path", "lattice"])
    p.add_argument("--n", type=int, default=65, help="grid points per side")


def _add_rho_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rho", type=Path, help="radius CSV (id,rho)")
    g.add_argument("--rho-factor", type=float,
                   help="rho = factor * dist(., boundary)^power")
    p.add_argument("--rho-power", type=float, default=1.0)


def _add_hypothesis_args(p, required=True):
    """The hypotheses' parameters besides alpha (validate, solve, certify)."""
    p.add_argument("--epsilon", type=float, required=required,
                   help="without it, solve skips the parameter gate")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lam", type=float, required=required)
    p.add_argument("--delta", type=float, default=1.0)


def _build_space(args):
    if args.space is not None:
        return load_space(args.space)
    n = args.n
    return {"1d": interval_grid, "2d": square_grid, "disk": disk_grid,
            "path": path_graph,
            "lattice": lambda k: lattice_graph(k, k)}[args.grid](n)


def _build_rho(args, space):
    if args.rho is not None:
        return radius.read_radius_csv(space, args.rho)
    return radius.RadiusField.scaled_boundary_distance(
        space, args.rho_factor, args.rho_power)


def _function_values(space, flag, name, points):
    """The built-in function name (given by option flag) at the points."""
    if space.coords is None:
        raise SpaceFormatError(f"{flag} needs a space with coordinates")
    if space.coords.shape[1] < 2 and name == "saddle":
        raise SpaceFormatError("the saddle boundary function is two-dimensional")
    return BOUNDARY_FUNCTIONS[name](space.coords[points])


def _boundary_values(args, space):
    if args.boundary is not None:
        values = operators.read_field_csv(space, args.boundary)
        return values[space.boundary_indices]
    return _function_values(space, "--boundary-fn", args.boundary_fn,
                            space.boundary_indices)


def _numbers(flag, text):
    """The comma-separated numbers of an option's value."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise SpaceFormatError(f"{flag} must be comma-separated numbers, "
                               f"got {text!r}") from exc


def _manifest(args):
    return {
        "command": args.command,
        "argv": args._argv,
        "seed": args.seed,
        "threads": args.threads,
        "version": __version__,
    }


def _write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    # strict JSON: NaN and +-Infinity, read back from a lenient dump, are null
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


# -- subcommands -----------------------------------------------------------------


def cmd_probe(args):
    space = _build_space(args)
    report = space.probe_report(samples=args.samples, seed=args.seed,
                                deltas=tuple(args.delta))
    doc = {"manifest": _manifest(args), "probe": report.to_dict(),
           "n_points": len(space)}
    _write_json(args.out / "probe.json", doc)
    print(json.dumps(doc["probe"], indent=2))
    return EXIT_OK


def cmd_validate(args):
    space = _build_space(args)
    rho = _build_rho(args, space)
    hyp = radius.check_hypotheses(space, rho, args.alpha, args.epsilon,
                                  args.beta, args.lam, args.delta, L=args.L)
    doc = {"manifest": _manifest(args), **hyp.to_dict(), "L_mode": hyp.L_mode,
           "pass": not hyp.failed}
    _write_json(args.out / "validate.json", doc)
    print(f"admissible={hyp.admissible.ok} bounds={hyp.radius_bounds.ok} "
          f"gate={hyp.gate.passed}")
    if hyp.failed:
        print("failed: " + ", ".join(hyp.failed))
    return EXIT_FAIL if hyp.failed else EXIT_OK


def cmd_solve(args):
    # precedence: explicit flag > --config object > SolveConfig's default
    settings = {}
    if args.config is not None:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict) or not set(settings) <= set(CONFIG_KEYS):
            raise SpaceFormatError("--config must hold a JSON object with keys "
                                   f"among {', '.join(CONFIG_KEYS)}")
    flags = (args.alpha, args.tol, args.max_iter, args.record_every)
    settings.update((k, v) for k, v in zip(CONFIG_KEYS, flags) if v is not None)
    if "alpha" not in settings:
        raise SpaceFormatError("alpha missing: pass --alpha or put it in --config")
    alpha = settings.pop("alpha")
    # the gate's flags are checked whether or not the gate runs
    gate = {"epsilon": args.epsilon, "beta": args.beta, "lam": args.lam,
            "delta": args.delta}
    check_parameters(**{k: v for k, v in gate.items() if v is not None})
    space = _build_space(args)
    rho = _build_rho(args, space)
    bvals = _boundary_values(args, space)
    initial = None
    if args.init_fn is not None:
        initial = _function_values(space, "--init-fn", args.init_fn,
                                   np.arange(len(space)))
    config = solver.SolveConfig(**settings, initial=initial)
    if args.epsilon is not None and not args.force:
        if args.lam is None:
            raise SpaceFormatError("the parameter gate (--epsilon) needs --lam; "
                                   "pass --lam or --force")
        hyp = radius.check_hypotheses(space, rho, alpha, args.epsilon,
                                      args.beta, args.lam, args.delta)
        if hyp.admissible.ok and hyp.failed:  # else solve_dirichlet refuses
            print("validation failed (rerun with --force to solve anyway): "
                  + ", ".join(hyp.failed))
            return EXIT_FAIL
    report = solver.solve_dirichlet(space, rho, alpha, bvals, config)
    args.out.mkdir(parents=True, exist_ok=True)
    operators.write_field_csv(space, report.field, args.out / "field.csv")
    doc = {"manifest": _manifest(args), **report.to_dict()}
    _write_json(args.out / "solve_report.json", doc)
    print(f"converged={report.converged} iterations={report.iterations_used} "
          f"residual={report.final_residual:.3e}")
    if not report.converged:
        print(f"stopped: {report.stop_reason}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_certify(args):
    space = _build_space(args)
    rho = _build_rho(args, space)
    u = operators.read_field_csv(space, args.field)
    cert = regularity.certify(
        space, rho, u, args.alpha, args.m, epsilon=args.epsilon,
        beta=args.beta, lam=args.lam, delta=args.delta, gamma=args.gamma,
        residual_tolerance=args.residual_tol, seed=args.seed)
    doc = {"manifest": _manifest(args), **cert.to_dict()}
    _write_json(args.out / "certificate.json", doc)
    print(f"pass={cert.passed} empirical={cert.empirical_constant:.6g} "
          f"theoretical={cert.theoretical_constant:.6g}")
    if cert.hypotheses.failed:
        print("failed: " + ", ".join(cert.hypotheses.failed))
    return EXIT_OK if cert.passed else EXIT_FAIL


def cmd_asymptotics(args):
    x = np.array(_numbers("--x", args.x))
    radii = _numbers("--radii", args.radii)
    f = asymptotics.test_function(args.fn, args.n)
    if args.mode == "mean":
        result = asymptotics.expansion_mean(f, x, radii)
    elif args.mode == "midrange":
        result = asymptotics.expansion_midrange(f, x, radii)
    else:
        result = asymptotics.expansion_p(f, x, args.p, args.n, radii)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "asymptotics.csv", "w") as fh:
        fh.write("radius,quotient\n")
        for r, q in zip(result.radii, result.quotients):
            fh.write(f"{r!r},{q!r}\n")
    doc = {"manifest": _manifest(args), **result.to_dict()}
    _write_json(args.out / "asymptotics.json", doc)
    print(f"mode={result.mode} extrapolated={result.extrapolated:.6g} "
          f"predicted={result.predicted:.6g} rel_err={result.relative_error:.3g}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pharmonious",
        description="Ball-averaging operators, p-harmonious fixed points, and "
                    "regularity certificates on finite metric measure spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="estimate structural constants of a space")
    _add_common(p)
    _add_space_args(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--delta", type=float, action="append", default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("validate", help="admissibility, radius bounds, parameter gate")
    _add_common(p)
    _add_space_args(p)
    _add_rho_args(p)
    p.add_argument("--alpha", type=float, required=True)
    _add_hypothesis_args(p)
    p.add_argument("--L", type=float, default=None,
                   help="override the fitted Lipschitz constant")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="fixed-point iteration with Dirichlet data")
    _add_common(p)
    _add_space_args(p)
    _add_rho_args(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--boundary", type=Path, help="boundary CSV (id,value)")
    g.add_argument("--boundary-fn", choices=sorted(BOUNDARY_FUNCTIONS))
    p.add_argument("--config", type=Path, default=None,
                   help="JSON with alpha/tolerance/max_iterations/record_every")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--record-every", type=int, default=None)
    p.add_argument("--init-fn", choices=sorted(BOUNDARY_FUNCTIONS), default=None)
    _add_hypothesis_args(p, required=False)
    p.add_argument("--force", action="store_true",
                   help="skip the gate (admissibility and the parameters' "
                        "domains are never skipped)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="regularity certificate for a solved field")
    _add_common(p)
    _add_space_args(p)
    _add_rho_args(p)
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_hypothesis_args(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--residual-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("asymptotics", help="small-radius expansion checks")
    _add_common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--mode", choices=["mean", "midrange", "p"], default="mean")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--radii", default="0.4,0.2,0.1,0.05")
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if args.command == "probe" and args.delta is None:
        args.delta = [0.5, 1.0]
    try:
        check_parameters(threads=args.threads, seed=args.seed)
        return args.func(args)
    except (SpaceFormatError, ConfigurationError, DisconnectedSpaceError,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AdmissibilityError, CertificateScopeError,
            CertificateResidualError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
