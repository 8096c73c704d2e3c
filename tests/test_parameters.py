"""Numeric parameters: every entry point checks its parameters through
space.check_parameters, against the one table of domains, and refuses a
value outside its domain with the same SpaceFormatError, which names the
parameter, before it does any work."""

import inspect
import math

import numpy as np
import pytest

from pharmonious import (Modulus, ModulusFamily, RadiusField, SolveConfig,
                         SpaceFormatError, TheoreticalModulus, alpha_mean_value,
                         apply_alpha_mean, certified_holder_constant, certify,
                         check_alpha_mean_modulus, check_hypotheses,
                         check_radius_bounds, empirical_holder, exhaustion,
                         fixed_point_oscillation_bound, iterate_modulus,
                         iterate_modulus_bound, residual, solve_dirichlet,
                         square_grid, validate_parameters)
from pharmonious.space import COUNT_MAX, PARAMETER_DOMAINS, check_parameters

SPACE = square_grid(9)
RHO = RadiusField.scaled_boundary_distance(SPACE, 0.4)
FIELD = np.zeros(len(SPACE))
BIG = 10 ** 399  # 400 digits: past the float range and every count


def _family(**kw):
    args = dict(C=1.0, lam=0.4, epsilon=0.5, beta=1.0, delta=1.0, gamma=1.0,
                normalized=Modulus.identity(1.0))
    return ModulusFamily("annular_holder", **{**args, **kw})


# Each entry point as a call whose keyword defaults are in their domains;
# the parameters it checks are its keywords.
ENTRIES = {
    "validate_parameters":
        lambda alpha=0.3, L=1.0, epsilon=0.5, beta=1.0, lam=0.4, delta=1.0:
        validate_parameters(alpha, L, epsilon, beta, lam, 0.5, delta),
    "check_hypotheses":
        lambda alpha=0.3, L=1.0, epsilon=0.5, beta=1.0, lam=0.4, delta=1.0:
        check_hypotheses(SPACE, RHO, alpha, epsilon, beta, lam, delta, L=L),
    "certify":
        lambda alpha=0.3, m=2, epsilon=0.5, beta=1.0, lam=0.4, delta=1.0,
        gamma=1.0, residual_tolerance=1e-6, seed=0:
        certify(SPACE, RHO, FIELD, alpha, m, epsilon=epsilon, beta=beta, lam=lam,
                delta=delta, gamma=gamma, residual_tolerance=residual_tolerance,
                seed=seed),
    "SolveConfig":
        lambda tolerance=1e-8, max_iterations=10, record_every=0:
        SolveConfig(tolerance, max_iterations, record_every),
    "solve_dirichlet":
        lambda alpha=0.3: solve_dirichlet(SPACE, RHO, alpha, FIELD),
    "exhaustion": lambda epsilon=0.5, m=2: exhaustion(SPACE, epsilon, m),
    "empirical_holder":
        lambda delta=1.0: empirical_holder(SPACE, FIELD, [40, 41], delta),
    "probe_doubling":
        lambda samples=8, seed=0: SPACE.probe_doubling(samples, seed),
    "probe_annular_decay":
        lambda delta=1.0, samples=8, seed=0:
        SPACE.probe_annular_decay(delta, samples, seed),
    "probe_geodesic_defect":
        lambda samples=8, seed=0: SPACE.probe_geodesic_defect(samples, seed),
    "probe_report":
        lambda delta=1.0, samples=8, seed=0:
        SPACE.probe_report(samples, seed, (0.5, delta)),
    "TheoreticalModulus":
        lambda delta=1.0, gamma=1.0:
        TheoreticalModulus("annular_holder", C=1.0, rho_K=1.0, delta=delta,
                           gamma=gamma),
    "ModulusFamily":
        lambda lam=0.4, epsilon=0.5, beta=1.0, delta=1.0, gamma=1.0:
        _family(lam=lam, epsilon=epsilon, beta=beta, delta=delta, gamma=gamma),
    "Modulus.power": lambda gamma=1.0: Modulus.power(1.0, gamma, 1.0),
    "iterate_modulus":
        lambda n=2: iterate_modulus(Modulus.identity(1.0), n, 0.5),
    "iterate_modulus_bound":
        lambda m=1, n=2, alpha=0.3:
        iterate_modulus_bound(m, n, 0.1, alpha=alpha, norm_u=1.0,
                              u_modulus=Modulus.identity(1.0), family=_family()),
    "scaled_boundary_distance":
        lambda rho_factor=0.4, rho_power=1.0:
        RadiusField.scaled_boundary_distance(SPACE, rho_factor, rho_power),
    "residual": lambda alpha=0.3: residual(SPACE, RHO, FIELD, alpha),
    "apply_alpha_mean": lambda alpha=0.3: apply_alpha_mean(SPACE, RHO, FIELD, alpha),
    "alpha_mean_value":
        lambda alpha=0.3: alpha_mean_value(SPACE, RHO, FIELD, 40, alpha),
    "check_alpha_mean_modulus":
        lambda alpha=0.3: check_alpha_mean_modulus(
            SPACE, RHO, FIELD, alpha, exhaustion(SPACE, 0.5, 2), Modulus.identity(2.0)),
    "certified_holder_constant":
        lambda m=2, alpha=0.3, L=1.0, epsilon=0.5, beta=1.0, lam=0.4, delta=1.0:
        certified_holder_constant(m, alpha=alpha, L=L, epsilon=epsilon, beta=beta,
                                  lam=lam, delta=delta, norm_u=1.0, C=1.0),
    "fixed_point_oscillation_bound":
        lambda m=2, alpha=0.3:
        fixed_point_oscillation_bound(m, 0.1, alpha=alpha, norm_u=1.0, family=_family()),
    "check_radius_bounds":
        lambda lam=0.4, beta=1.0, epsilon=0.5: check_radius_bounds(SPACE, RHO, lam, beta, epsilon),
}


def _takers(name):
    return [entry for entry, call in ENTRIES.items()
            if name in inspect.signature(call).parameters]


# (parameter, value outside its domain, the one message)
OUT_OF_DOMAIN = [
    ("alpha", math.nan, "alpha must be a finite number, got nan"),
    ("alpha", BIG, f"alpha must be a finite number, got {BIG}"),
    ("L", math.inf, "L must be a finite number, got inf"),
    ("epsilon", 1.5, "epsilon must be a finite number in (0, 1), got 1.5"),
    ("epsilon", 0, "epsilon must be a finite number in (0, 1), got 0"),
    ("beta", math.nan, "beta must be a finite number, got nan"),
    ("lam", -math.inf, "lam must be a finite number, got -inf"),
    ("delta", 0.0, "delta must be a finite number in (0, 1], got 0.0"),
    ("delta", math.nan, "delta must be a finite number in (0, 1], got nan"),
    ("gamma", 1.5, "gamma must be a finite number in (0, 1], got 1.5"),
    ("m", 2.5, "m must be a finite integer in [1, inf), got 2.5"),
    ("m", 0, "m must be a finite integer in [1, inf), got 0"),
    ("n", 2.5, f"n must be a finite integer in [0, {COUNT_MAX}], got 2.5"),
    ("n", -1, f"n must be a finite integer in [0, {COUNT_MAX}], got -1"),
    ("tolerance", 0.0, "tolerance must be a finite number in (0, inf), got 0.0"),
    ("tolerance", math.nan, "tolerance must be a finite number in (0, inf), got nan"),
    ("residual_tolerance", -1.0,
     "residual_tolerance must be a finite number in [0, inf), got -1.0"),
    ("max_iterations", BIG,
     f"max_iterations must be a finite integer in [1, {COUNT_MAX}], got {BIG}"),
    ("max_iterations", "50",
     f"max_iterations must be a finite integer in [1, {COUNT_MAX}], got '50'"),
    ("record_every", -1,
     f"record_every must be a finite integer in [0, {COUNT_MAX}], got -1"),
    ("samples", 0, f"samples must be a finite integer in [1, {COUNT_MAX}], got 0"),
    ("samples", BIG,
     f"samples must be a finite integer in [1, {COUNT_MAX}], got {BIG}"),
    ("seed", -1, f"seed must be a finite integer in [0, {COUNT_MAX}], got -1"),
    ("seed", True, f"seed must be a finite integer in [0, {COUNT_MAX}], got True"),
    ("rho_factor", math.nan, "rho_factor must be a finite number, got nan"),
    ("rho_power", -1.0, "rho_power must be a finite number in [0, inf), got -1.0"),
]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_point_runs_at_its_defaults(entry):
    ENTRIES[entry]()


@pytest.mark.parametrize("name, value, message", OUT_OF_DOMAIN,
                         ids=[f"{n}-{str(v)[:8]}" for n, v, _ in OUT_OF_DOMAIN])
def test_every_entry_point_refuses_a_parameter_outside_its_domain(name, value,
                                                                  message):
    # solve_dirichlet(alpha=nan) reported a diverged iteration, certify at
    # seed -1 passed on a grid, certify at m = 2.5 wrote m = 2.5,
    # iterate_modulus at n = 2.5 truncated n to 2, and a 400-digit count
    # ended in an OverflowError
    takers = _takers(name)
    assert takers
    for entry in takers:
        with pytest.raises(SpaceFormatError) as info:
            ENTRIES[entry](**{name: value})
        assert str(info.value) == message, entry


def test_every_parameter_of_the_table_has_an_entry_point():
    # threads is the command line's own
    assert {name for name in PARAMETER_DOMAINS if not _takers(name)} == {"threads"}


def test_integers_are_compared_without_float_conversion():
    # the exhaustion index is an exponent and may pass the float range; a
    # count stops at COUNT_MAX
    check_parameters(m=10 ** 320, seed=COUNT_MAX, samples=np.int64(COUNT_MAX))
    assert np.array_equal(exhaustion(SPACE, 0.5, 10 ** 320), SPACE.interior_indices)
    with pytest.raises(SpaceFormatError, match="^seed must be"):
        check_parameters(seed=COUNT_MAX + 1)
    with pytest.raises(SpaceFormatError, match="^m must be"):
        check_parameters(m=float(2))


@pytest.mark.parametrize("call", [
    lambda: residual(SPACE, RHO, FIELD, math.nan),
    lambda: apply_alpha_mean(SPACE, RHO, FIELD, math.nan),
    lambda: alpha_mean_value(SPACE, RHO, FIELD, 40, math.nan)],
    ids=["residual", "apply_alpha_mean", "alpha_mean_value"])
def test_an_alpha_of_nan_is_refused_by_every_sweep_entry_point(call):
    # residual and alpha_mean_value returned nan, apply_alpha_mean zeros
    with pytest.raises(SpaceFormatError, match="^alpha must be a finite number, got nan$"):
        call()


def test_the_bound_helpers_refuse_a_fractional_m_and_a_nan_epsilon():
    # certified_holder_constant(2.5, ...) returned 24.749, and a nan epsilon
    # reported no upper violation in check_radius_bounds
    with pytest.raises(SpaceFormatError, match="^m must be a finite integer"):
        ENTRIES["certified_holder_constant"](m=2.5)
    with pytest.raises(SpaceFormatError, match="^m must be a finite integer"):
        ENTRIES["fixed_point_oscillation_bound"](m=2.5)
    with pytest.raises(SpaceFormatError, match="^epsilon must be a finite number"):
        check_radius_bounds(SPACE, RHO, 0.4, 1.0, math.nan)


@pytest.mark.parametrize("value, shown", [
    (10 ** 5000, "an integer of 5001 digits"),
    (10 ** 5000 - 1, "an integer of 5000 digits"),
    (-10 ** 6000, "a negative integer of 6001 digits")],
    ids=["5001-digits", "5000-digits", "negative-6001-digits"])
def test_an_integer_too_long_for_repr_is_named_by_its_digits(value, shown):
    # repr of an integer past 4,300 digits raised Python's ValueError
    with pytest.raises(SpaceFormatError,
                       match=f"^seed must be a finite integer in \\[0, {COUNT_MAX}\\], "
                             f"got {shown}$"):
        check_parameters(seed=value)
