"""Per-point input: every entry point that takes one value per point reads
it through space.point_values, and refuses a wrong length, a non-numeric
input and a non-finite value with a SpaceFormatError that names the input."""

from types import SimpleNamespace

import numpy as np
import pytest

from pharmonious import (BallTable, Modulus, RadiusField, ScalarField,
                         SolveConfig, SpaceFormatError, alpha_mean_value,
                         apply_alpha_mean, certify, check_alpha_mean_modulus,
                         check_mean_stability, check_radius_bounds,
                         empirical_holder, exhaustion,
                         mean_value, oscillation_modulus, residual,
                         solve_dirichlet, square_grid, validate_admissible,
                         write_field_csv)
from pharmonious.radius import gap_majorant, max_gap_ratio
from pharmonious.space import point_values

SPACE = square_grid(9)  # 81 points, 32 on the boundary
N = len(SPACE)
RHO = RadiusField.scaled_boundary_distance(SPACE, 0.4)
K2 = exhaustion(SPACE, 0.5, 2)


def _radius(v):
    # a radius field that skips RadiusField's own check, so the entry point's
    # check is the one that runs
    return SimpleNamespace(values=v)


# (name, what the message names, whether the length is checked, call)
ENTRIES = [
    ("ScalarField", "field", True, lambda v, tmp: ScalarField(SPACE, v)),
    ("alpha_mean_value", "field", True,
     lambda v, tmp: alpha_mean_value(SPACE, RHO, v, 40, 0.3)),
    ("mean_value", "field", True, lambda v, tmp: mean_value(SPACE, RHO, v, 40)),
    ("apply_alpha_mean", "field", True,
     lambda v, tmp: apply_alpha_mean(SPACE, RHO, v, 0.3)),
    ("check_mean_stability", "field", True,
     lambda v, tmp: check_mean_stability(SPACE, v, SPACE.ball(40, 0.2),
                                         SPACE.ball(41, 0.2))),
    ("check_alpha_mean_modulus", "field", True,
     lambda v, tmp: check_alpha_mean_modulus(SPACE, RHO, v, 0.3, K2,
                                             Modulus.identity(1.0))),
    ("oscillation_modulus", "field", True,
     lambda v, tmp: oscillation_modulus(SPACE, v, K2)),
    ("write_field_csv", "field", True,
     lambda v, tmp: write_field_csv(SPACE, v, tmp / "field.csv")),
    ("residual", "field", True, lambda v, tmp: residual(SPACE, RHO, v, 0.3)),
    ("initial-guess", "initial guess", True,
     lambda v, tmp: solve_dirichlet(SPACE, RHO, 0.3, SPACE.coords[:, 0],
                                    SolveConfig(initial=v))),
    ("boundary-data", "boundary data", True,
     lambda v, tmp: solve_dirichlet(SPACE, RHO, 0.3, v)),
    ("certify", "field", True,
     lambda v, tmp: certify(SPACE, RHO, v, 0.3, 2, epsilon=0.5, beta=1.0, lam=0.4)),
    ("empirical_holder", "field", True,
     lambda v, tmp: empirical_holder(SPACE, v, K2, 1.0)),
    ("max_gap_ratio", "values", True, lambda v, tmp: max_gap_ratio(SPACE, v)),
    ("gap_majorant", "values", True, lambda v, tmp: gap_majorant(SPACE, v)),
    ("RadiusField", "radius", False, lambda v, tmp: RadiusField(v)),
    ("validate_admissible", "radius", True,
     lambda v, tmp: validate_admissible(SPACE, _radius(v))),
    ("check_radius_bounds", "radius", True,
     lambda v, tmp: check_radius_bounds(SPACE, _radius(v), 0.1, 1.0, 0.5)),
    ("BallTable", "radius", True, lambda v, tmp: BallTable(SPACE, _radius(v))),
    ("apply_alpha_mean-radius", "radius", True,
     lambda v, tmp: apply_alpha_mean(SPACE, _radius(v), np.zeros(N), 0.3)),
    ("ball_runs", "ball radius", True,
     lambda v, tmp: SPACE.ball_runs(np.arange(N), v)),
]


def _nan():
    v = np.full(N, 0.1)
    v[40] = np.nan
    return v


INPUTS = [("short", lambda: np.full(N - 1, 0.1)),
          ("long", lambda: np.full(N + 1, 0.1)),
          ("text", lambda: ["x"] * N),
          ("nan", _nan)]


@pytest.mark.parametrize("what, call, make", [
    pytest.param(what, call, make, id=f"{name}-{kind}")
    for name, what, sized, call in ENTRIES
    for kind, make in INPUTS if sized or kind in ("text", "nan")])
def test_entry_points_refuse_malformed_per_point_input(what, call, make, tmp_path):
    # at 80 or 82 values residual, apply_alpha_mean, mean_value, certify and
    # check_alpha_mean_modulus raised numpy's broadcast ValueError, and
    # check_mean_stability passed; write_field_csv wrote 80 rows; a radius
    # field of 82 values swept and passed check_radius_bounds; residual(...,
    # "x") and ball_runs with too few radii raised a bare ValueError
    with pytest.raises(SpaceFormatError) as exc:
        call(make(), tmp_path)
    assert str(exc.value).startswith(what + " ")
    assert not (tmp_path / "field.csv").exists()


def test_point_values_messages_and_no_copy():
    v = np.linspace(0.0, 1.0, 6)
    assert point_values(v, "field", 6) is v
    with pytest.raises(SpaceFormatError,
                       match=r"^field of shape \(5,\) for a space of 6 points$"):
        point_values(v[:5], "field", 6)
    with pytest.raises(SpaceFormatError, match="^field must be an array of numbers$"):
        point_values([[0.0], [1.0, 2.0]], "field")
    v = v.copy()
    v[[3, 4, 5]] = [np.nan, np.inf, -np.inf]
    with pytest.raises(SpaceFormatError,
                       match=r"^radius is not finite at 3 points, first \[3, 4, 5\]$"):
        point_values(v, "radius")
