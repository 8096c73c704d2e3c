import math
import re

import numpy as np
import pytest

from pharmonious import (CertificateResidualError, CertificateScopeError,
                         Modulus, RadiusField, SeriesDivergenceError,
                         SolveConfig, SpaceFormatError, TheoreticalModulus,
                         ModulusFamily, branch_constant, certified_holder_constant,
                         certify, empirical_holder, exhaustion, fit_lipschitz,
                         fixed_point_oscillation_bound, interval_grid,
                         iterate_modulus_bound, solve_dirichlet,
                         space_constants, square_grid)

# -- theoretical moduli ------------------------------------------------------------


def test_holder_family_linear_case():
    w = TheoreticalModulus("annular_holder", C=4.0, rho_K=0.25, delta=1.0,
                           gamma=1.0)
    # 4 L D_delta (t / rho_K)^delta with L = D_delta = 1: here C/rho_K = 16
    for t in (0.0, 0.1, 0.5):
        assert w(t) == 16.0 * t


def test_holder_family_zero_at_zero():
    w = TheoreticalModulus("annular_holder", C=7.0, rho_K=0.1, delta=0.5,
                           gamma=0.5)
    assert w(0.0) == 0.0


def test_continuous_family_worked_value():
    normalized = Modulus.capped_linear(2.0, 1.0)
    w = TheoreticalModulus("annular_continuous", C=8.0, rho_K=0.5, delta=1.0,
                           normalized=normalized)
    assert abs(w(0.3) - 9.6) < 1e-12  # 8 * (0.6 / 0.5)


def test_families_nondecreasing():
    normalized = Modulus.capped_linear(1.5, 1.0)
    for w in (TheoreticalModulus("annular_continuous", C=2.0, rho_K=0.2,
                                 delta=0.7, normalized=normalized),
              TheoreticalModulus("annular_holder", C=2.0, rho_K=0.2,
                                 delta=0.7, gamma=0.5)):
        ts = np.linspace(0, 1, 33)
        vals = np.asarray(w(ts))
        assert np.all(np.diff(vals) >= -1e-12)


def test_family_rejects_bad_rho():
    with pytest.raises(SpaceFormatError):
        TheoreticalModulus("annular_holder", C=1.0, rho_K=0.0, delta=1.0)


def test_branch_constant_is_max_of_branches():
    assert branch_constant(1.0, 1.0, 2.0, 1.0) == 8.0   # max(4, 8)
    assert branch_constant(3.0, 1.0, 1.0, 1.0) == 12.0  # max(12, 2)


# -- mean-sweep modulus property (the W bound in action) -----------------------------


def test_mean_sweeps_obey_family_modulus(grid1d, grid1d_rho, rng):
    # |sweep^n u(x) - sweep^n u(y)| <= ||u|| W(d(x,y)) for the analytic
    # 1D constants (D_delta = 1, D_mu = 2, L = 1)
    from pharmonious import apply_alpha_mean

    sp, rho = grid1d, grid1d_rho
    k2 = exhaustion(sp, 0.5, 2)
    rho_k = float(rho.values[k2].min())
    C = branch_constant(1.0, 1.0, 2.0, 1.0)
    normalized = Modulus.identity(sp.diameter())
    w = TheoreticalModulus("annular_continuous", C=C, rho_K=rho_k, delta=1.0,
                           normalized=normalized)
    u = rng.uniform(-1, 1, size=len(sp))
    norm = np.abs(u).max()
    slack = 2 * sp.resolution()
    swept = u.copy()
    for n in range(5):
        swept = apply_alpha_mean(sp, rho, swept, 0.0)
        for _ in range(40):
            x, y = rng.choice(k2, size=2, replace=False)
            d = sp.distance(int(x), int(y))
            lhs = abs(swept[x] - swept[y])
            assert lhs <= norm * w(min(d + slack, sp.diameter())) + 1e-12


# -- fixed point series ---------------------------------------------------------------


def family_for(alpha, L, eps, beta, delta, lam, C, diam=1.0):
    normalized = Modulus.capped_linear(L, diam)
    return ModulusFamily("annular_holder", C=C, lam=lam, epsilon=eps, beta=beta,
                   delta=delta, gamma=1.0, normalized=normalized)


def test_series_alpha_zero_single_term():
    fam = family_for(0.0, 1.0, 0.5, 1.0, 1.0, 0.4, 8.0)
    t = 0.2
    got = fixed_point_oscillation_bound(2, t, alpha=0.0, norm_u=1.5,
                                        family=fam)
    assert got == 1.5 * float(fam.at(2)(t))


def test_series_zero_at_zero():
    fam = family_for(0.3, 1.0, 0.5, 1.0, 1.0, 0.4, 8.0)
    assert fixed_point_oscillation_bound(2, 0.0, alpha=0.3, norm_u=1.0,
                                         family=fam) == 0.0


def test_series_matches_closed_form():
    alpha, L, eps, beta, delta, lam = 0.3, 1.0, 0.5, 1.0, 1.0, 0.4
    fam = family_for(alpha, L, eps, beta, delta, lam, 8.0)
    t = 0.125
    series = fixed_point_oscillation_bound(2, t, alpha=alpha, norm_u=1.0,
                                           family=fam)
    closed = certified_holder_constant(2, alpha=alpha, L=L, epsilon=eps,
                                       beta=beta, lam=lam, delta=delta,
                                       norm_u=1.0, C=8.0) * t
    assert abs(series - closed) / closed < 1e-10


@pytest.mark.parametrize("kind", ["annular_holder", "annular_continuous"])
@pytest.mark.parametrize("epsilon, beta, delta, alpha", [
    (0.9, 2.0, 1.0, 0.0), (0.9, 2.0, 1.0, 0.005), (0.95, 2.5, 0.5, 0.0)])
def test_series_near_epsilon_one_matches_closed_form(kind, epsilon, beta,
                                                     delta, alpha):
    # rho_K(j) = lambda (1-epsilon)^(j beta) underflows long before j = J_CAP:
    # |alpha|^j rho_K(j)^(-delta) overflowed, or rho_K(j) reached 0
    fam = ModulusFamily(kind, C=8.0, lam=0.4, epsilon=epsilon, beta=beta,
                        delta=delta, normalized=Modulus.capped_linear(1.0, 1.0))
    series = fixed_point_oscillation_bound(1, 0.1, alpha=alpha, norm_u=1.0,
                                           family=fam)
    closed = certified_holder_constant(1, alpha=alpha, L=1.0, epsilon=epsilon,
                                       beta=beta, lam=0.4, delta=delta,
                                       norm_u=1.0, C=8.0) * 0.1 ** delta
    assert abs(series - closed) <= 1e-12 * closed


def test_series_diverges_loudly():
    fam = family_for(0.8, 1.0, 0.5, 1.0, 1.0, 0.4, 8.0)  # ratio 1.6
    with pytest.raises(SeriesDivergenceError, match="root-test"):
        fixed_point_oscillation_bound(1, 0.1, alpha=0.8, norm_u=1.0,
                                      family=fam)


def test_series_monotone_in_t_and_m():
    fam = family_for(0.3, 1.0, 0.5, 1.0, 1.0, 0.4, 8.0)
    ts = np.linspace(0, 1, 9)
    vals = [fixed_point_oscillation_bound(2, t, alpha=0.3, norm_u=1.0,
                                          family=fam) for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # deeper exhaustion sets (larger m) have smaller radii, larger bound
    m_vals = [fixed_point_oscillation_bound(m, 0.3, alpha=0.3, norm_u=1.0,
                                            family=fam) for m in (1, 2, 3)]
    assert m_vals[0] <= m_vals[1] <= m_vals[2]


# -- closed-form Holder constant -------------------------------------------------------


def test_holder_constant_worked_value():
    got = certified_holder_constant(2, alpha=0.3, L=1.0, epsilon=0.5, beta=1.0,
                                    lam=0.4, delta=1.0, norm_u=1.0, C=8.0,
                                    ell_omega=0.5)
    assert abs(got - 140.0) < 1e-9


def test_holder_constant_alpha_zero_collapses_series_factor():
    got = certified_holder_constant(2, alpha=0.0, L=1.0, epsilon=0.5, beta=1.0,
                                    lam=0.4, delta=1.0, norm_u=2.0, C=8.0)
    assert abs(got - 8.0 * 2.0 * (1 / 0.4) * 4.0) < 1e-9


def test_holder_constant_beta_one_matches_general_path():
    a = certified_holder_constant(3, alpha=0.2, L=1.0, epsilon=0.4, beta=1.0,
                                  lam=0.3, delta=1.0, norm_u=1.0, C=5.0,
                                  ell_omega=0.5)
    b = certified_holder_constant(3, alpha=0.2, L=1.0, epsilon=0.4,
                                  beta=1.0 + 0.0, lam=0.3, delta=1.0,
                                  norm_u=1.0, C=5.0)
    assert a == b


def test_holder_constant_past_the_float_range_is_inf():
    # (1 - epsilon)^(-m beta delta) = 2^100000 ended in OverflowError
    assert certified_holder_constant(100000, alpha=0.3, L=1.0, epsilon=0.5,
                                     beta=1.0, lam=0.4, delta=1.0, norm_u=1.0,
                                     C=8.0) == math.inf


def test_holder_constant_refuses_failed_gate():
    with pytest.raises(SpaceFormatError, match="alpha_below_inverse_lipschitz"):
        certified_holder_constant(2, alpha=0.9, L=2.0, epsilon=0.1, beta=1.0,
                                  lam=0.05, delta=1.0, norm_u=1.0, C=8.0)


# -- empirical Holder seminorm ---------------------------------------------------------


def test_empirical_linear_slope_one(grid1d):
    u = grid1d.coords[:, 0]
    k2 = exhaustion(grid1d, 0.5, 2)
    emp = empirical_holder(grid1d, u, k2, 1.0)
    assert emp.value == 1.0
    assert emp.mode == "exact"


def test_empirical_constant_zero(grid1d):
    u = np.full(len(grid1d), 3.3)
    emp = empirical_holder(grid1d, u, exhaustion(grid1d, 0.5, 2), 1.0)
    assert emp.value == 0.0


def test_empirical_sqrt_adjacent_pair(grid1d):
    # max of |sqrt(s) - sqrt(t)| / |s - t| over the [0.25, 0.75] grid is
    # attained by the leftmost adjacent pair: 16 (sqrt(65) - 8) at h = 1/256
    u = np.sqrt(grid1d.coords[:, 0])
    members = np.flatnonzero((grid1d.coords[:, 0] >= 0.25)
                             & (grid1d.coords[:, 0] <= 0.75))
    emp = empirical_holder(grid1d, u, members, 1.0)
    oracle = 0.0  # exhaustive pair-scan oracle
    xs = grid1d.coords[members, 0]
    for i in range(len(members)):
        dif = np.abs(np.sqrt(xs) - np.sqrt(xs[i]))
        dd = np.abs(xs - xs[i])
        mask = dd > 0
        oracle = max(oracle, float((dif[mask] / dd[mask]).max()))
    assert abs(emp.value - oracle) < 1e-13
    assert abs(emp.value - 16.0 * (math.sqrt(65.0) - 8.0)) < 1e-12
    assert abs(emp.value - 1.0) < 0.005  # tends to the true seminorm 1
    assert emp.value == pytest.approx(0.996124, abs=5e-7)


def test_empirical_single_point_notice(grid1d):
    emp = empirical_holder(grid1d, np.zeros(len(grid1d)), [5], 1.0)
    assert emp.value == 0.0 and emp.mode == "undefined"


def test_empirical_exact_mode_at_any_size():
    sp = square_grid(81)  # 6561 points, every pair scanned
    u = sp.coords[:, 0]
    members = np.arange(len(sp))
    emp = empirical_holder(sp, u, members, 1.0)
    assert emp.mode == "exact"
    assert emp.pairs == len(sp) * (len(sp) - 1) // 2
    assert emp.value == 1.0


def test_empirical_holder_finds_a_one_point_bump():
    # a bump of 0.01 at one point of K_3 (5,329 points) on a slope of 0.3:
    # the seminorm is its ratio against a grid neighbour, 1.26; a draw of
    # 1M pairs read 0.467, missing the bump's neighbours
    sp = square_grid(97)
    K = exhaustion(sp, 0.5, 3)
    x = K[len(K) // 2]
    assert (len(K), x) == (5329, 4704)
    u = 0.3 * sp.coords[:, 0]
    u[x] += 0.01
    neighbours = [x - 1, x + 1, x - 97, x + 97]
    expected = max(abs(u[x] - u[y]) / sp.distance(x, y) for y in neighbours)
    assert expected == pytest.approx(1.26)
    assert empirical_holder(sp, u, K, 1.0).value == expected


# -- constants provenance ---------------------------------------------------------------


def test_space_constants_analytic_on_grids(grid1d):
    c = space_constants(grid1d)
    assert c == {"D_delta": 1.0, "D_mu": 2.0, "delta": 1.0,
                 "source": "analytic"}


def test_space_constants_probed_with_safety(grid1d):
    c = space_constants(grid1d, delta=0.5)  # no analytic value at delta 0.5
    assert c["source"] == "probed"
    assert c["D_delta"] >= 1.1 - 1e-12


# -- certificates ---------------------------------------------------------------------


def test_certificate_linear_fixed_point_passes(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    cert = certify(grid1d, grid1d_rho, u, 0.3, 2, epsilon=0.5, beta=1.0,
                   lam=0.4)
    assert cert.passed
    assert cert.gate.passed
    assert cert.empirical_constant == 1.0
    assert cert.half_oscillation == 0.5  # u = x on [0, 1]
    assert cert.theoretical_constant > 50.0
    assert cert.constants["source"] == "analytic"
    assert cert.residual == 0.0


def test_certificate_refuses_alpha_one(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    with pytest.raises(CertificateScopeError):
        certify(grid1d, grid1d_rho, u, 1.0, 2, epsilon=0.5, beta=1.0, lam=0.4)


def test_certificate_refuses_stale_field(grid1d, grid1d_rho, rng):
    u = rng.uniform(-1, 1, size=len(grid1d))  # residual far above tolerance
    with pytest.raises(CertificateResidualError, match="not a fixed point"):
        certify(grid1d, grid1d_rho, u, 0.3, 2, epsilon=0.5, beta=1.0, lam=0.4)


def test_certificate_refuses_non_finite_field():
    # one inf value used to pass with residual nan and empirical 0
    sp = square_grid(17)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    u = sp.coords[:, 0].copy()
    u[sp.interior_indices[40]] = np.inf
    with pytest.raises(SpaceFormatError,
                       match=re.escape(f"field is not finite at 1 points, first "
                                       f"[{sp.interior_indices[40]}]")):
        certify(sp, rho, u, 0.3, 2, epsilon=0.5, beta=1.0, lam=0.4)


def test_certificate_nan_residual_tolerance_refuses(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    with pytest.raises(CertificateResidualError):
        certify(grid1d, grid1d_rho, u, 0.3, 2, epsilon=0.5, beta=1.0, lam=0.4,
                residual_tolerance=math.nan)


def test_certificate_gate_failure_reported_not_raised(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    cert = certify(grid1d, grid1d_rho, u, 0.3, 2, epsilon=0.8, beta=1.0,
                   lam=0.4)
    assert not cert.passed
    assert not cert.gate.passed
    assert "epsilon_window" in cert.gate.failed_conditions
    assert math.isnan(cert.theoretical_constant)


def test_certificate_alpha_zero_uses_holder_exponent(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    cert = certify(grid1d, grid1d_rho, u, 0.0, 2, epsilon=0.5, beta=1.0,
                   lam=0.4, gamma=0.5)
    assert cert.exponent == 0.5
    assert cert.passed


def test_certificate_json_shape(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    cert = certify(grid1d, grid1d_rho, u, 0.3, 2, epsilon=0.5, beta=1.0,
                   lam=0.4)
    doc = cert.to_dict()
    for key in ("gate", "m", "delta", "theoretical_constant",
                "empirical_constant", "empirical_mode", "pass", "constants"):
        assert key in doc
    assert set(doc["constants"]) >= {"C", "D_delta", "D_mu", "source",
                                     "L_mode"}


def test_certificate_records_how_L_was_obtained():
    sp = square_grid(17)
    u = np.full(len(sp), 0.5)
    kwargs = dict(epsilon=0.5, beta=1.0, lam=0.4)
    analytic = RadiusField.scaled_boundary_distance(sp, 0.4)
    cert = certify(sp, analytic, u, 0.3, 2, **kwargs)
    assert cert.constants["L_mode"] == "analytic"
    fitted = RadiusField(analytic.values)  # as a radius CSV gives it
    cert = certify(sp, fitted, u, 0.3, 2, **kwargs)
    assert cert.constants["L_mode"] == "exact"
    supplied = RadiusField.scaled_boundary_distance(sp, 0.4)
    supplied.lipschitz_L = 1.0
    cert = certify(sp, supplied, u, 0.3, 2, **kwargs)
    assert cert.constants["L_mode"] == "supplied"


def test_hand_set_L_after_fit_is_supplied():
    sp = square_grid(17)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    fit_lipschitz(sp, rho)
    assert rho.lipschitz_mode == "exact"
    rho.lipschitz_L = 3.0
    cert = certify(sp, rho, np.full(len(sp), 0.5), 0.1, 2, epsilon=0.5,
                   beta=1.0, lam=0.4)
    assert cert.constants["L"] == 3.0
    assert cert.constants["L_mode"] == "supplied"


def test_radius_nonzero_on_boundary_does_not_certify(grid1d, grid1d_rho):
    values = grid1d_rho.values.copy()
    values[grid1d.boundary_indices[0]] = 1e-4  # L stays 1
    cert = certify(grid1d, RadiusField(values), grid1d.coords[:, 0], 0.3, 2,
                   epsilon=0.5, beta=1.0, lam=0.4)
    assert not cert.passed
    assert cert.hypotheses.failed == ["admissible"]
    assert cert.gate.passed and math.isnan(cert.theoretical_constant)
    assert cert.to_dict()["admissible"]["nonzero_on_boundary"] == \
        [int(grid1d.boundary_indices[0])]


def test_certificate_solved_nonconstant_2d(grid2d_65):
    rho = RadiusField.scaled_boundary_distance(grid2d_65, 0.4)
    g = grid2d_65.coords[:, 0] ** 2 - grid2d_65.coords[:, 1] ** 2
    rep = solve_dirichlet(grid2d_65, rho, 0.3, g[grid2d_65.boundary_indices],
                          SolveConfig(tolerance=1e-9, initial=g))
    assert rep.converged
    cert = certify(grid2d_65, rho, rep.field, 0.3, 2, epsilon=0.5, beta=1.0,
                   lam=0.4, residual_tolerance=1e-8)
    assert cert.passed
    assert cert.empirical_constant > 1.0  # genuinely nonconstant field
    assert abs(cert.theoretical_constant - 1120.0 * cert.half_oscillation) < 1e-9



@pytest.mark.parametrize("shift", [1000.0, -1000.0])
def test_a_constant_shift_leaves_the_certificate_alone(shift):
    # T_alpha(u + c) = T_alpha u + c, so the bound scales with the
    # half-oscillation of the field, which no shift moves (max |u| did)
    sp = square_grid(33)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    g = sp.coords[:, 0] ** 2 - sp.coords[:, 1] ** 2
    rep = solve_dirichlet(sp, rho, 0.0, g[sp.boundary_indices],
                          SolveConfig(tolerance=1e-10, initial=g))
    args = dict(epsilon=0.5, beta=1.0, lam=0.1)
    cert = certify(sp, rho, rep.field, 0.0, 2, **args)
    moved = certify(sp, rho, rep.field.values + shift, 0.0, 2, **args)
    assert cert.passed and moved.passed
    assert cert.half_oscillation == 0.5 * (g.max() - g.min())
    assert abs(moved.theoretical_constant - cert.theoretical_constant) \
        <= 1e-12 * cert.theoretical_constant
    assert moved.to_dict()["half_oscillation"] == pytest.approx(
        cert.half_oscillation, rel=1e-12)
    assert abs(moved.empirical_constant - cert.empirical_constant) \
        <= 1e-9 * cert.empirical_constant


def _family(**kw):
    args = dict(C=1.0, lam=0.4, epsilon=0.5, beta=1.0, delta=1.0,
                normalized=Modulus.identity(1.0))
    return ModulusFamily("annular_holder", **{**args, **kw})


@pytest.mark.parametrize("call, message", [
    (lambda: TheoreticalModulus("annular_holder", C=1.0, rho_K=1.0, delta=0.0),
     r"delta must be in \(0,1\], got 0.0"),
    (lambda: TheoreticalModulus("cubic", C=1.0, rho_K=1.0, delta=1.0),
     "unknown modulus family kind 'cubic'"),
    (lambda: TheoreticalModulus("annular_continuous", C=1.0, rho_K=1.0, delta=1.0),
     "continuous family needs the normalized radius modulus"),
    (lambda: TheoreticalModulus("annular_holder", C=1.0, rho_K=1.0, delta=1.0, gamma=1.5),
     r"gamma must be in \(0,1\], got 1.5"),
    (lambda: _family(epsilon=1.0), r"epsilon must be in \(0,1\), got 1.0"),
    (lambda: _family(lam=0.0), "lambda must be positive, got 0.0"),
    (lambda: fixed_point_oscillation_bound(1, 0.1, alpha=1.5, norm_u=1.0, family=_family()),
     r"series bound requires \|alpha\| <= 1"),
    (lambda: iterate_modulus_bound(1, -1, 0.1, alpha=0.5, norm_u=1.0,
                                   u_modulus=Modulus.identity(1.0), family=_family()),
     "sweep count must be nonnegative"),
    (lambda: empirical_holder(interval_grid(9), np.zeros(9), [0, 1, 2], 1.5),
     r"delta must be in \(0,1\], got 1.5")],
    ids=["delta", "unknown-kind", "continuous-without-modulus", "gamma",
         "family-epsilon", "family-lambda", "series-alpha", "negative-sweeps",
         "empirical-delta"])
def test_regularity_refusals(call, message):
    with pytest.raises(SpaceFormatError, match=message):
        call()
