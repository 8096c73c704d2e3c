import math

import numpy as np
import pytest

from pharmonious import (AdmissibilityError, Modulus, RadiusField,
                         SolveConfig, SpaceFormatError, ModulusFamily,
                         equicontinuity_gate, exhaustion, interval_grid,
                         iterate_modulus, iterate_modulus_bound,
                         oscillation_modulus, residual, root_test_margin,
                         Space, solve_dirichlet, square_grid)
from pharmonious.solver import STALL_SWEEPS, _normalize_boundary


def identity_family(C=1.0, lam=1.0, eps=0.5, beta=1.0, delta=1.0, diam=1.0):
    return ModulusFamily("annular_continuous", C=C, lam=lam, epsilon=eps, beta=beta,
                   delta=delta, normalized=Modulus.identity(diam))


# -- residual -------------------------------------------------------------------


def test_residual_of_exact_fixed_point(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    assert residual(grid1d, grid1d_rho, u, 0.3) == 0.0


def test_residual_of_constant(grid1d, grid1d_rho):
    u = np.full(len(grid1d), -4.2)
    for alpha in (-0.2, 0.0, 0.5, 1.0):
        assert residual(grid1d, grid1d_rho, u, alpha) == 0.0


def test_residual_of_squares_fixed_radius():
    # mean of t^2 over [x - rho, x + rho] exceeds x^2 by about rho^2 / 3
    from pharmonious import alpha_mean_value

    sp = interval_grid(257)
    values = np.zeros(len(sp))
    interior = sp.interior_indices
    values[interior] = 0.1
    rho = RadiusField(values)
    u = sp.coords[:, 0] ** 2
    res = residual(sp, rho, u, 0.0)
    assert res >= 0.1 ** 2 / 3 - 2 * sp.resolution()
    # at a point with a full symmetric ball the defect is the analytic one
    x = 128  # the point 0.5
    defect = abs(alpha_mean_value(sp, rho, u, x, 0.0) - u[x])
    assert abs(defect - 0.1 ** 2 / 3) < 2 * sp.resolution() * 0.1


# -- solve ----------------------------------------------------------------------


def test_linear_initial_guess_converges_at_iteration_zero(grid1d, grid1d_rho):
    u0 = grid1d.coords[:, 0]
    for alpha in (-0.2, 0.0, 0.3, 0.9):
        rep = solve_dirichlet(grid1d, grid1d_rho, alpha, {0: 0.0, 256: 1.0},
                              SolveConfig(tolerance=1e-12,
                                          initial=u0))
        assert rep.converged
        assert rep.iterations_used == 0
        assert rep.final_residual <= 1e-12


def test_constant_boundary_data_converges_to_constant(grid1d, grid1d_rho):
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.4, {0: 2.0, 256: 2.0},
                          SolveConfig(tolerance=1e-14))
    assert rep.converged
    assert rep.final_residual == 0.0
    assert np.all(rep.field.values == 2.0)


def test_nonconstant_fixed_point_from_extension_initial(grid1d, grid1d_rho):
    g = grid1d.coords[:, 0] ** 2
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.3,
                          g[grid1d.boundary_indices],
                          SolveConfig(tolerance=1e-10, initial=g))
    assert rep.converged
    u = rep.field.values
    assert np.abs(u - u.mean()).max() > 0.01  # genuinely nonconstant
    assert residual(grid1d, grid1d_rho, u, 0.3) == rep.final_residual


def test_returned_residual_matches_independent_recompute(grid1d, grid1d_rho):
    g = grid1d.coords[:, 0] ** 3
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.5,
                          g[grid1d.boundary_indices],
                          SolveConfig(tolerance=1e-9, initial=g))
    assert residual(grid1d, grid1d_rho, rep.field, 0.5) == rep.final_residual


def test_solve_is_deterministic(grid1d, grid1d_rho):
    g = np.sin(3 * grid1d.coords[:, 0])
    runs = [solve_dirichlet(grid1d, grid1d_rho, 0.3,
                            g[grid1d.boundary_indices],
                            SolveConfig(tolerance=1e-10, initial=g))
            for _ in range(2)]
    assert np.array_equal(runs[0].field.values, runs[1].field.values)
    assert runs[0].residual_history == runs[1].residual_history


def test_solve_refuses_non_admissible(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 2.0)
    with pytest.raises(AdmissibilityError):
        solve_dirichlet(grid1d, rho, 0.3, {0: 0.0, 256: 1.0})


def test_solve_rejects_nan_boundary(grid1d, grid1d_rho):
    with pytest.raises(SpaceFormatError):
        solve_dirichlet(grid1d, grid1d_rho, 0.3, {0: np.nan, 256: 1.0})


def test_solve_boundary_dict_missing_a_point(grid1d, grid1d_rho):
    with pytest.raises(SpaceFormatError, match="boundary data missing point 256"):
        solve_dirichlet(grid1d, grid1d_rho, 0.3, {0: 0.0})


def test_solve_full_length_boundary_data_reads_the_boundary(grid1d, grid1d_rho):
    g = grid1d.coords[:, 0] ** 2
    config = SolveConfig(tolerance=1e-10, initial=g)
    full = solve_dirichlet(grid1d, grid1d_rho, 0.3, g, config)
    short = solve_dirichlet(grid1d, grid1d_rho, 0.3,
                            g[grid1d.boundary_indices], config)
    assert np.array_equal(full.field.values, short.field.values)


def test_solve_refuses_boundary_data_of_the_wrong_length(grid1d, grid1d_rho):
    with pytest.raises(SpaceFormatError, match=r"boundary data length \(3,\) matches "
                       r"neither the boundary \(2\) nor the space \(257\)"):
        solve_dirichlet(grid1d, grid1d_rho, 0.3, [0.0, 1.0, 2.0])


def test_boundary_data_needs_a_boundary():
    # solve_dirichlet refuses such a space earlier, in its admissibility check
    sp = Space(coords=[[0.0], [1.0], [2.0]], weights=[1.0] * 3, boundary=[])
    with pytest.raises(SpaceFormatError, match="space has an empty boundary"):
        _normalize_boundary(sp, [])


def test_solve_refuses_initial_guess_of_the_wrong_length(grid1d, grid1d_rho):
    with pytest.raises(SpaceFormatError,
                       match=r"initial guess of shape \(256,\) for a space of 257 points"):
        solve_dirichlet(grid1d, grid1d_rho, 0.3, {0: 0.0, 256: 1.0},
                        SolveConfig(initial=np.zeros(len(grid1d) - 1)))


def test_solve_boundary_never_changes(grid1d, grid1d_rho):
    g = np.cos(grid1d.coords[:, 0])
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.2,
                          g[grid1d.boundary_indices],
                          SolveConfig(tolerance=1e-10, initial=g))
    assert np.array_equal(rep.field.values[grid1d.boundary_indices],
                          g[grid1d.boundary_indices])


def test_iterates_stay_in_comparison_interval(grid1d, grid1d_rho, rng):
    u0 = rng.uniform(-1, 2, size=len(grid1d))
    b = grid1d.boundary_indices
    lo = min(u0.min(), u0[b].min())
    hi = max(u0.max(), u0[b].max())
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.6, u0[b],
                          SolveConfig(tolerance=1e-10, initial=u0))
    assert rep.field.values.min() >= lo - 1e-12
    assert rep.field.values.max() <= hi + 1e-12


def test_non_convergence_is_reported_not_raised(grid1d, grid1d_rho):
    g = grid1d.coords[:, 0] ** 2
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.3,
                          g[grid1d.boundary_indices],
                          SolveConfig(tolerance=1e-14,
                                      max_iterations=2, initial=g))
    assert not rep.converged
    assert rep.iterations_used == 2
    assert len(rep.residual_history) == 3


def test_stalled_solve_stops_unconverged():
    # alpha = 1.2: the residual sets its least value at sweep 67, then
    # wanders near 0.27; the solve used to run all 100,000 sweeps
    sp = square_grid(17)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    x = sp.coords[:, 0]
    rep = solve_dirichlet(sp, rho, 1.2, x[sp.boundary_indices],
                          SolveConfig(initial=np.sin(7.0 * x)))
    assert not rep.converged
    best = int(np.argmin(rep.residual_history))
    assert best == 67 and rep.iterations_used == best + STALL_SWEEPS
    assert rep.stop_reason.startswith("stalled")


def test_modulus_snapshots_recorded(grid1d, grid1d_rho):
    g = grid1d.coords[:, 0] ** 2
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.3,
                          g[grid1d.boundary_indices],
                          SolveConfig(tolerance=1e-10, initial=g,
                                      record_every=10))
    assert rep.modulus_snapshots
    it, m, mod = next(s for s in rep.modulus_snapshots if s[1] == 2)
    assert m == 2
    assert mod(0.0) == 0.0


def test_solve_config_validation():
    with pytest.raises(SpaceFormatError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(SpaceFormatError):
        SolveConfig(max_iterations=0)
    # a negative cadence switched the snapshots off without a word
    with pytest.raises(SpaceFormatError, match="record_every must be >= 0"):
        SolveConfig(record_every=-1)


# -- iterate oscillation bound ----------------------------------------------------


def test_iterate_bound_n_zero_is_field_modulus():
    fam = identity_family()
    u_mod = Modulus.capped_linear(2.0, 1.0)
    normalized = Modulus.identity(1.0)
    for t in (0.0, 0.2, 0.5):
        got = iterate_modulus_bound(2, 0, t, alpha=0.5, norm_u=3.0,
                                    u_modulus=u_mod, family=fam)
        assert got == u_mod(t)


def test_iterate_bound_alpha_zero_single_sweep():
    fam = identity_family(C=2.0, lam=0.5)
    normalized = Modulus.identity(1.0)
    u_mod = Modulus.capped_linear(1.0, 1.0)
    t = 0.3
    got = iterate_modulus_bound(3, 1, t, alpha=0.0, norm_u=2.0,
                                u_modulus=u_mod, family=fam)
    assert got == 2.0 * float(fam.at(3)(t))


def test_iterate_bound_term_by_term_oracle():
    alpha, eps, beta, delta = 0.3, 0.5, 1.0, 1.0
    normalized = Modulus.capped_linear(1.0, 1.0)
    fam = ModulusFamily("annular_continuous", C=8.0, lam=0.4, epsilon=eps, beta=beta,
                  delta=delta, normalized=normalized)
    u_mod = Modulus.capped_linear(1.5, 1.0)
    m, n, t, norm_u = 2, 6, 0.2, 1.7
    # independent term-by-term summation
    oracle = abs(alpha) ** n * u_mod(iterate_modulus(normalized, n, t))
    tail = sum(abs(alpha) ** j * fam.at(m + j)(iterate_modulus(normalized, j, t))
               for j in range(n))
    oracle += (1 - alpha) * norm_u * tail
    got = iterate_modulus_bound(m, n, t, alpha=alpha, norm_u=norm_u,
                                u_modulus=u_mod, family=fam)
    assert abs(got - oracle) < 1e-12


def test_iterate_bound_monotone_in_t():
    fam = identity_family(C=3.0, lam=0.3)
    normalized = Modulus.identity(1.0)
    u_mod = Modulus.capped_linear(1.0, 1.0)
    ts = np.linspace(0, 1, 17)
    vals = [iterate_modulus_bound(1, 4, t, alpha=0.4, norm_u=1.0,
                                  u_modulus=u_mod, family=fam)
            for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_iterate_bound_rejects_large_alpha():
    fam = identity_family()
    with pytest.raises(SpaceFormatError):
        iterate_modulus_bound(1, 1, 0.1, alpha=1.5, norm_u=1.0,
                              u_modulus=Modulus.identity(1.0), family=fam)


# -- root test ------------------------------------------------------------------


def test_root_test_alpha_zero():
    assert root_test_margin(0.0, identity_family()) == 0.0


def test_root_test_analytic_value_normalized_family():
    # with C = diam = lam = 1 the j-th root is exactly (1-eps)^(-beta delta)
    margin = root_test_margin(0.3, identity_family())
    assert abs(margin - 0.6) < 1e-12


def test_root_test_gate_failure_value():
    margin = root_test_margin(0.6, identity_family())
    assert abs(margin - 1.2) < 1e-12
    assert margin >= 1.0


def test_root_test_surrogate_above_analytic():
    fam = identity_family(C=1.0, lam=0.4)  # A = 2.5
    margin = root_test_margin(0.3, fam)
    analytic = 0.6
    assert 1.0 <= margin / analytic <= 1.05


# -- equicontinuity gate ------------------------------------------------------------


def test_gate_examples():
    assert equicontinuity_gate(0.3, 0.5, 1.0).passed
    assert not equicontinuity_gate(0.3, 0.8, 1.0).passed
    assert equicontinuity_gate(0.0, 0.7, 5.0).passed


def test_gate_beta_bound():
    v = equicontinuity_gate(0.3, 0.5, 1.0)
    assert abs(v.beta_max - math.log(1 / 0.3) / math.log(2)) < 1e-12


def test_gate_iff_analytic_margin_at_delta_one():
    # at delta = 1 the gate conditions are equivalent to margin < 1
    alphas = np.concatenate([[0.0], np.arange(0.1, 1.0, 0.1),
                             -np.arange(0.1, 1.0, 0.1)])
    for alpha in alphas:
        for eps in np.arange(0.1, 1.0, 0.1):
            for beta in (1.0, 1.25, 1.5, 2.0):
                v = equicontinuity_gate(alpha, eps, beta, 1.0)
                margin = abs(alpha) * (1 - eps) ** (-beta)
                if abs(margin - 1.0) < 1e-9 or abs(eps - (1 - abs(alpha))) < 1e-9:
                    continue  # FP ties at condition boundaries are arbitrary
                assert v.passed == (margin < 1.0), (alpha, eps, beta)


def test_gate_pass_implies_margin_below_one_all_delta():
    for alpha in np.arange(-0.9, 1.0, 0.1):
        for eps in np.arange(0.1, 1.0, 0.1):
            for beta in (1.0, 1.5, 2.0):
                for delta in (0.5, 1.0):
                    v = equicontinuity_gate(alpha, eps, beta, delta)
                    if v.passed:
                        assert v.analytic_margin < 1.0 + 1e-12


def test_gate_agrees_with_root_test_margin():
    # the A = 1 family makes the surrogate equal the analytic margin
    for alpha in (0.0, 0.2, 0.45, 0.7):
        for eps in (0.2, 0.5):
            fam = identity_family(eps=eps)
            v = equicontinuity_gate(alpha, eps, 1.0, 1.0)
            surrogate = root_test_margin(alpha, fam)
            if abs(surrogate - 1.0) > 1e-9:
                assert v.passed == (surrogate < 1.0)


# -- oscillation snapshots helper ---------------------------------------------------


def test_oscillation_modulus_bounds_oscillation(grid1d, rng):
    u = np.sin(5 * grid1d.coords[:, 0])
    members = exhaustion(grid1d, 0.5, 3)
    omega = oscillation_modulus(grid1d, u, members)
    sub = members[:: max(1, len(members) // 40)]
    for i in sub:
        for j in sub:
            if i < j:
                d = grid1d.distance(int(i), int(j))
                assert abs(u[i] - u[j]) <= omega(min(d, omega.domain_end)) + 1e-9


def test_2d_reference_solve_regression_baseline():
    # deterministic iteration count for the 65x65 reference problem with
    # rho = 0.3 dist and the boundary-extension initial guess
    from pharmonious import square_grid

    sp = square_grid(65)
    rho = RadiusField.scaled_boundary_distance(sp, 0.3)
    g = sp.coords[:, 0] ** 2 - sp.coords[:, 1] ** 2
    rep = solve_dirichlet(sp, rho, 0.3, g[sp.boundary_indices],
                          SolveConfig(tolerance=1e-8, initial=g))
    assert rep.converged
    assert rep.final_residual <= 1e-8
    assert rep.iterations_used == 376  # frozen baseline


def test_solve_on_graph_metric_space():
    from pharmonious import path_graph

    sp = path_graph(33)
    d = sp.boundary_distances()
    rho = RadiusField(0.9 * d)
    g = {0: 0.0, 32: 4.0}
    init = np.linspace(0.0, 4.0, 33) ** 2 / 4.0
    rep = solve_dirichlet(sp, rho, 0.25, g,
                          SolveConfig(tolerance=1e-10,
                                      initial=init))
    assert rep.converged
    u = rep.field.values
    assert u[0] == 0.0 and u[32] == 4.0
    assert residual(sp, rho, u, 0.25) == rep.final_residual
    # comparison interval
    assert u.min() >= min(init.min(), 0.0) - 1e-12
    assert u.max() <= max(init.max(), 4.0) + 1e-12
