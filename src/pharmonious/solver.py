"""Fixed-point iteration for the alpha-mean value property.

Synchronous (double-buffered) sweeps of the alpha-mean operator with the
boundary values held fixed; the residual is the sup-norm defect of the
fixed-point equation on the interior.  Convergence here is empirical: the
iteration stops when the residual falls under the tolerance, sets no new
minimum for STALL_SWEEPS sweeps, or the sweep budget runs out, and a
non-converged outcome is reported, not raised.

Note on boundary coupling: with an admissible radius bounded by
epsilon * dist (epsilon < 1), interior balls never reach the boundary, so
boundary data influences the limit only through the initial field (the
near-boundary points whose ball is a singleton stay frozen and act as the
effective Dirichlet layer).  Constants on the interior are always exact
fixed points; richer fixed points come from richer initial guesses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import radius as radius_mod
from .errors import AdmissibilityError, SpaceFormatError
from .operators import BallTable, ScalarField
from .space import point_values


# A solve whose residual has set no new minimum for this many sweeps has
# stalled, or grows, and stops unconverged.  A converging iteration sets a
# new minimum nearly every sweep; a slow divergence that overflows within
# the window (the |alpha| = 5 saddle on square_grid(9): 7,832 sweeps) still
# ends on its overflow.
STALL_SWEEPS = 10_000
# Iterate-modulus snapshots (SolveConfig.record_every) are taken on the
# exhaustion sets of these indices m at this epsilon.
SNAPSHOT_M = (1, 2)
SNAPSHOT_EPSILON = 0.5


def finite_number(name, value, integer=False):
    """value, if it is a finite number (an integer if asked); no bool is."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise SpaceFormatError(f"{name} must be a finite "
                               f"{'integer' if integer else 'number'}, got {value!r}")
    return value


@dataclass
class SolveConfig:
    tolerance: float = 1e-8
    max_iterations: int = 100_000
    record_every: int = 0          # iterate-modulus snapshot cadence; 0 = off
    initial: object = None         # full-length array; default = boundary mean

    def __post_init__(self):
        if finite_number("tolerance", self.tolerance) <= 0:
            raise SpaceFormatError("tolerance must be positive")
        if finite_number("max_iterations", self.max_iterations, True) < 1:
            raise SpaceFormatError("max_iterations must be >= 1")
        if finite_number("record_every", self.record_every, True) < 0:
            raise SpaceFormatError("record_every must be >= 0")


@dataclass
class SolveReport:
    field: ScalarField
    iterations_used: int
    residual_history: list
    converged: bool
    final_residual: float
    modulus_snapshots: list = None
    stop_reason: str = ""          # why the iteration ended

    def to_dict(self):
        return {
            "iterations_used": self.iterations_used,
            "residual_history": self.residual_history,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "stop_reason": self.stop_reason,
            "modulus_snapshots": [
                {"iteration": it, "m": m, "breakpoints": mod.breakpoint_list()}
                for it, m, mod in (self.modulus_snapshots or [])
            ],
        }


def _normalize_boundary(space, boundary_data):
    b = space.boundary_indices
    if len(b) == 0:
        raise SpaceFormatError("space has an empty boundary")
    if isinstance(boundary_data, dict):
        try:
            boundary_data = [boundary_data[int(i)] for i in b]
        except KeyError as exc:
            raise SpaceFormatError(f"boundary data missing point {exc}") from exc
    vals = point_values(boundary_data, "boundary data")
    if vals.shape == (len(space),):
        vals = vals[b]
    elif vals.shape != (len(b),):
        raise SpaceFormatError(
            f"boundary data length {vals.shape} matches neither the boundary "
            f"({len(b)}) nor the space ({len(space)})")
    return b, vals


def solve_dirichlet(space, rho, alpha, boundary_data, config=None):
    """Iterate the alpha-mean operator to a fixed point with fixed boundary.

    Refuses non-admissible radius fields.  The returned field is the last
    iterate whose residual was measured, so the reported final residual is
    exactly what an independent residual() recomputation gives.  A sweep
    whose residual is not finite ends the solve unconverged and is not
    kept: the field stays the last finite iterate.
    Deterministic: synchronous sweeps, fixed reduction order.
    """
    if config is None:
        config = SolveConfig()
    report = radius_mod.validate_admissible(space, rho)
    if not report.ok:
        raise AdmissibilityError(
            f"radius field is not admissible: {report.to_dict()}")
    b, bvals = _normalize_boundary(space, boundary_data)
    interior = space.interior_indices  # not empty: validate_admissible requires it

    u = np.empty(len(space))
    if config.initial is not None:
        u[:] = point_values(config.initial, "initial guess", len(space))
    else:
        u[:] = bvals.mean()
    u[b] = bvals

    table = BallTable(space, rho)
    exhaustions = {}
    if config.record_every > 0:
        exhaustions = {m: radius_mod.exhaustion(space, SNAPSHOT_EPSILON, m)
                       for m in SNAPSHOT_M}

    history = []
    snapshots = []
    iterations = 0
    best, best_at = math.inf, 0
    while True:
        # a diverging iteration (|alpha| > 1) overflows; it is reported as
        # non-convergence, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            swept = table.alpha_means(u, alpha)
            residual_now = float(np.abs(swept - u[interior]).max())
        history.append(residual_now)
        if not math.isfinite(residual_now):
            reason = "residual is not finite: the iteration diverged"
            break
        if config.record_every > 0 and iterations % config.record_every == 0:
            for m, members in exhaustions.items():
                snapshots.append(
                    (iterations, m, ops.oscillation_modulus(space, u, members)))
        if residual_now <= config.tolerance:
            reason = "residual under the tolerance"
            break
        if residual_now < best:
            best, best_at = residual_now, iterations
        elif iterations - best_at >= STALL_SWEEPS:
            reason = (f"stalled: no new residual minimum in {STALL_SWEEPS} "
                      f"sweeps (least {best:.3e} at sweep {best_at})")
            break
        if iterations >= config.max_iterations:
            reason = f"sweep budget of {config.max_iterations} spent"
            break
        u[interior] = swept
        iterations += 1
    converged = residual_now <= config.tolerance
    return SolveReport(
        field=ScalarField(space, u),
        iterations_used=iterations,
        residual_history=history,
        converged=converged,
        final_residual=residual_now,
        modulus_snapshots=snapshots,
        stop_reason=reason,
    )


def residual(space, rho, u, alpha, table=None):
    """Sup-norm defect of the fixed-point equation on the interior.

    Without a table, the interior's balls are searched and swept one block
    of centers at a time, each block's balls holding about BLOCK_ENTRIES
    index runs (see Space._table_cuts), so no whole table is held; the
    radii are checked once, as a whole table checks them.  Each ball's
    value is the one a whole table gives (the same runs and the same
    whole-space prefix sums), and the max is exact."""
    v = point_values(u, "field", len(space))
    if table is None:
        centers = space.interior_indices
        cuts = space._table_cuts(centers, ops._ball_radii(space, rho, centers))
        tables = (BallTable(space, rho, centers[lo:hi])
                  for lo, hi in zip(cuts[:-1], cuts[1:]))
    else:
        centers, tables = table.centers, [table]
    if len(centers) == 0:
        raise SpaceFormatError("space has no interior points")

    def defect(t):
        return np.abs(t.alpha_means(v, alpha) - v[t.centers]).max()

    # map keeps no table past its block; np.max, not max(), so that a nan
    # in any block is the residual
    return float(np.max(list(map(defect, tables))))

