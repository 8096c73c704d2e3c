"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they pass; runtime limits are asserted where stated.
The compiled sweep kernel is warmed once up front so that runtime limits
measure the computation, not the one-time JIT compile.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pharmonious import (BallTable, Modulus, RadiusField, SolveConfig,
                         ModulusFamily, alpha_mean_value, certified_holder_constant,
                         certify, check_mean_stability, check_symdiff_bounds,
                         disk_grid, empirical_holder, equicontinuity_gate,
                         exhaustion, expansion_mean, expansion_midrange,
                         expansion_p, fit_lipschitz,
                         fixed_point_oscillation_bound, interval_grid,
                         iterate_modulus, residual, root_test_margin,
                         solve_dirichlet, square_grid)
from pharmonious import test_function as catalog_function
from pharmonious.cli import main as cli_main


def report(num, desc, elapsed=None, limit=None):
    timing = ""
    if limit is not None:
        timing = f"  [{elapsed:.2f}s < {limit:.0f}s]"
        assert elapsed < limit, f"criterion {num} over budget: {elapsed:.2f}s"
    print(f"\nACCEPTANCE {num}: PASS - {desc}{timing}")


@contextmanager
def failing_report(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    sp = interval_grid(9)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    BallTable(sp, rho).alpha_means(np.zeros(len(sp)), 0.3)


@pytest.fixture(scope="module")
def ref_1d():
    sp = interval_grid(257)
    return sp, RadiusField.scaled_boundary_distance(sp, 0.4)


@pytest.fixture(scope="module")
def ref_2d_65():
    sp = square_grid(65)
    return sp, RadiusField.scaled_boundary_distance(sp, 0.4)


def test_criterion_01_exact_fixed_points(ref_1d):
    """1D grid h=1/256, rho = 0.4 dist: the linear field is a fixed point to
    1e-12 for alpha in {-0.2, 0, 0.3, 0.9}; constants have residual 0."""
    with failing_report(1, "exact fixed points on the dyadic 1D grid"):
        sp, rho = ref_1d
        lin = sp.coords[:, 0]
        const = np.full(len(sp), 0.7)
        t0 = time.perf_counter()
        for alpha in (-0.2, 0.0, 0.3, 0.9):
            assert residual(sp, rho, lin, alpha) <= 1e-12
        for alpha in (-0.2, 0.0, 0.3, 0.5, 0.9, 1.0):
            assert residual(sp, rho, const, alpha) == 0.0
        elapsed = time.perf_counter() - t0
    report(1, "linear residual <= 1e-12, constant residual exactly 0",
           elapsed, 1.0)


def test_criterion_02_mean_stability_trials(ref_1d):
    """Two-ball mean stability: 1e3 random ball pairs x 10 random fields on
    1D and 2D grids, slack >= -1e-12 in every trial."""
    with failing_report(2, "two-ball mean stability trials"):
        rng = np.random.default_rng(42)
        sp1, _ = ref_1d
        sp2 = square_grid(33)
        t0 = time.perf_counter()
        for sp, n_pairs in ((sp1, 500), (sp2, 500)):
            diam = sp.diameter()
            fields = rng.uniform(-1.0, 1.0, size=(10, len(sp)))
            for _ in range(n_pairs):
                x = int(rng.integers(len(sp)))
                y = int(rng.integers(len(sp)))
                b1 = sp.ball(x, float(rng.uniform(0.0, 0.6 * diam)))
                b2 = sp.ball(y, float(rng.uniform(0.0, 0.6 * diam)))
                for u in fields:
                    rec = check_mean_stability(sp, u, b1, b2)
                    assert rec.passed
                    assert rec.slack >= -1e-12
        elapsed = time.perf_counter() - t0
    report(2, "10^4 trials held with slack >= -1e-12 on 1D and 2D grids",
           elapsed, 10.0)


def test_criterion_03_symdiff_branch_bounds():
    """Symmetric-difference ratio bound: exhaustive K_2 scan on the 1D grid
    (D_delta = 1) and 1e3 sampled pairs on the 2D disk (D_delta = 2), with
    discreteness slack 2h everywhere."""
    with failing_report(3, "symmetric-difference branch bounds"):
        sp = interval_grid(257)
        rho = RadiusField.scaled_boundary_distance(sp, 0.3)
        fit_lipschitz(sp, rho)
        k2 = exhaustion(sp, 0.5, 2)
        rho_k = float(rho.values[k2].min())
        slack = 2.0 * sp.resolution()
        t0 = time.perf_counter()
        for x, y in itertools.combinations(k2.tolist(), 2):
            rec = check_symdiff_bounds(sp, rho, x, y, rho.lipschitz_L, 1.0,
                                       1.0, rho_k, 2.0, slack=slack)
            assert rec.details["lipschitz_pass"], (x, y)
        elapsed = time.perf_counter() - t0

        disk = disk_grid(65)
        rho_d = RadiusField.scaled_boundary_distance(disk, 0.3)
        fit_lipschitz(disk, rho_d)
        k2d = exhaustion(disk, 0.5, 2)
        rho_kd = float(rho_d.values[k2d].min())
        slack_d = 2.0 * disk.resolution()
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        for _ in range(1000):
            x, y = rng.choice(k2d, size=2, replace=False)
            rec = check_symdiff_bounds(disk, rho_d, int(x), int(y),
                                       rho_d.lipschitz_L, 2.0, 1.0, rho_kd,
                                       4.0, slack=slack_d)
            assert rec.details["lipschitz_pass"], (x, y)
        elapsed += time.perf_counter() - t0
    report(3, "exhaustive 1D K_2 scan and 10^3 disk pairs hold with 2h slack",
           elapsed, 3.0)


def test_criterion_04_annular_decay_probes():
    """Probe estimates: 1D in [1, 1.1]; 2D in [2, 2.2] with r_min >= 16h."""
    with failing_report(4, "annular decay probe windows"):
        t0 = time.perf_counter()
        est_1d = interval_grid(257).probe_annular_decay(1.0, seed=0)
        est_2d = square_grid(129).probe_annular_decay(1.0, seed=0)
        elapsed = time.perf_counter() - t0
        assert 1.0 <= est_1d <= 1.1, est_1d
        assert 2.0 <= est_2d <= 2.2, est_2d
    report(4, f"1D estimate {est_1d:.4f} in [1, 1.1]; "
              f"2D estimate {est_2d:.4f} in [2, 2.2]", elapsed, 5.0)


def test_criterion_05_certificate_and_refinement(ref_2d_65):
    """2D reference problem: solve converges to 1e-8, the parameter gate
    passes, the measured Lipschitz seminorm on K_2 is below the certified
    bound, and grid refinement moves the seminorm by < 20%."""
    with failing_report(5, "2D certificate and refinement stability"):
        t0 = time.perf_counter()
        alpha, eps, beta, lam, delta, m = 0.3, 0.5, 1.0, 0.4, 1.0, 2

        def run(n):
            sp = square_grid(n)
            rho = RadiusField.scaled_boundary_distance(sp, 0.4)
            g = sp.coords[:, 0] ** 2 - sp.coords[:, 1] ** 2
            # contract-default initial guess (mean of boundary data)
            rep0 = solve_dirichlet(sp, rho, alpha, g[sp.boundary_indices],
                                   SolveConfig(tolerance=1e-8))
            assert rep0.converged and rep0.final_residual <= 1e-8
            # boundary-extension initial guess: nonconstant fixed point
            rep = solve_dirichlet(sp, rho, alpha, g[sp.boundary_indices],
                                  SolveConfig(tolerance=1e-8,
                                              initial=g))
            assert rep.converged and rep.final_residual <= 1e-8
            cert = certify(sp, rho, rep.field, alpha, m, epsilon=eps,
                           beta=beta, lam=lam, delta=delta,
                           residual_tolerance=1e-7)
            assert cert.gate.passed
            assert cert.passed
            assert cert.empirical_constant <= cert.theoretical_constant
            # the closed-form bound with the analytic 2D constants
            expect = certified_holder_constant(
                m, alpha=alpha, L=1.0, epsilon=eps, beta=beta, lam=lam,
                delta=delta, norm_u=cert.half_oscillation, C=64.0, ell_omega=0.5)
            assert abs(cert.theoretical_constant - expect) < 1e-9
            return cert

        cert65 = run(65)
        cert129 = run(129)
        change = abs(cert129.empirical_constant - cert65.empirical_constant) \
            / max(cert65.empirical_constant, cert129.empirical_constant)
        assert change < 0.20, change
        elapsed = time.perf_counter() - t0
    report(5, f"certificates pass (empirical {cert65.empirical_constant:.3f} "
              f"<= bound {cert65.theoretical_constant:.0f}); refinement "
              f"change {100 * change:.1f}% < 20%", elapsed, 120.0)


def test_criterion_06_series_matches_closed_form():
    """Truncated series + geometric tail equals the closed-form constant
    times t^delta to relative 1e-9 on 20 random gate-passing tuples."""
    with failing_report(6, "series / closed-form identity"):
        rng = np.random.default_rng(123)
        done = 0
        while done < 20:
            alpha = float(rng.uniform(-0.6, 0.6))
            L = float(rng.uniform(1.0, 2.0))
            if L * abs(alpha) >= 0.95:
                continue
            eps_hi = 1.0 - L * abs(alpha)
            eps = float(rng.uniform(0.05, eps_hi * 0.95))
            if alpha == 0.0:
                beta_hi = 2.5
            else:
                beta_hi = math.log(1 / (L * abs(alpha))) / math.log(1 / (1 - eps))
            if beta_hi <= 1.0:
                continue
            beta = float(rng.uniform(1.0, min(beta_hi * 0.95, 2.5)))
            if beta < 1.0:
                continue
            lam = float(rng.uniform(0.05, eps))
            delta = float(rng.choice([0.5, 1.0]))
            norm_u = float(rng.uniform(0.5, 2.0))
            C = float(rng.uniform(1.0, 64.0))
            m = int(rng.integers(1, 4))
            diam = 1.0
            # a convergence margin is needed: at series ratio -> 1 the
            # diameter cap on the normalized iterates separates the true series
            # from the idealized closed form for every representable t
            if abs(alpha) * L ** delta * (1 - eps) ** (-beta * delta) > 0.9:
                continue
            normalized = Modulus.capped_linear(L, diam)
            fam = ModulusFamily("annular_holder", C=C, lam=lam, epsilon=eps,
                          beta=beta, delta=delta, gamma=1.0,
                          normalized=normalized)
            # small enough that the cap onset lies where q^j < 1e-10
            t = diam * L ** -420 * float(rng.uniform(0.1, 1.0))
            series = fixed_point_oscillation_bound(
                m, t, alpha=alpha, norm_u=norm_u, family=fam)
            closed = certified_holder_constant(
                m, alpha=alpha, L=L, epsilon=eps, beta=beta, lam=lam,
                delta=delta, norm_u=norm_u, C=C, ell_omega=1.0) * t ** delta
            assert abs(series - closed) / closed < 1e-9, \
                (alpha, L, eps, beta, lam, delta)
            done += 1
    report(6, "20 random tuples match to relative 1e-9 at j_cap = 200")


def test_criterion_07_root_test_and_gate_agreement():
    """Finite-j root-test surrogate within 5% above the analytic margin at
    j_max = 40, and gate agreement (margin < 1 iff the equicontinuity
    conditions) over a 600+ tuple scan at delta = 1."""
    with failing_report(7, "root test surrogate and gate agreement"):
        normalized = Modulus.identity(1.0)
        rng = np.random.default_rng(5)
        # surrogate band: family with C = diam = 1, lambda = 0.4
        for _ in range(25):
            alpha = float(rng.uniform(0.05, 0.9))
            eps = float(rng.uniform(0.05, 0.9))
            beta = float(rng.uniform(1.0, 2.0))
            fam = ModulusFamily("annular_continuous", C=1.0, lam=0.4, epsilon=eps,
                          beta=beta, delta=1.0, normalized=normalized)
            analytic = alpha * (1 - eps) ** (-beta)
            surrogate = root_test_margin(alpha, fam)
            assert 1.0 <= surrogate / analytic <= 1.05, (alpha, eps, beta)
        assert root_test_margin(0.0, fam) == 0.0

        # gate agreement at delta = 1 (where the equivalence is a theorem);
        # tuples within 1e-9 of a condition boundary are skipped (floating
        # point ties there are arbitrary)
        alphas = np.concatenate([[0.0], np.arange(0.1, 1.0, 0.1),
                                 -np.arange(0.1, 1.0, 0.1)])
        scanned = 0
        for alpha in alphas:
            for eps in np.arange(0.1, 1.0, 0.1):
                for beta in (1.0, 1.25, 1.5, 2.0):
                    margin = abs(alpha) * (1 - eps) ** (-beta)
                    if abs(margin - 1.0) < 1e-9 \
                            or abs(eps - (1 - abs(alpha))) < 1e-9:
                        continue
                    verdict = equicontinuity_gate(alpha, eps, beta, 1.0)
                    assert verdict.passed == (margin < 1.0), (alpha, eps, beta)
                    scanned += 1
        assert scanned >= 500, scanned

        # for delta < 1 the gate is sufficient (not necessary): pass
        # implies margin < 1
        for alpha in alphas:
            for eps in np.arange(0.1, 1.0, 0.1):
                for beta in (1.0, 1.5, 2.0):
                    v = equicontinuity_gate(alpha, eps, beta, 0.5)
                    if v.passed:
                        assert v.analytic_margin < 1.0
    report(7, f"surrogate within [1, 1.05] x analytic; {scanned} tuple "
              "agreement scan at delta = 1")


def test_criterion_08_asymptotic_expansions():
    """Mean / midrange / p = 4 expansion limits for the squared norm at
    (1, 0) in the plane, each within 2%."""
    with failing_report(8, "asymptotic expansion limits"):
        t0 = time.perf_counter()
        f = catalog_function("sq_norm", 2)
        x = np.array([1.0, 0.0])
        radii = [0.4, 0.2, 0.1, 0.05]
        h = 0.05 / 32  # finer than the required min(radii)/16
        r_mean = expansion_mean(f, x, radii, h=h)
        r_mid = expansion_midrange(f, x, radii, h=h)
        r_p = expansion_p(f, x, 4.0, 2, radii, h=h)
        elapsed = time.perf_counter() - t0
        assert abs(r_mean.extrapolated - 0.5) <= 0.02 * 0.5
        assert abs(r_mid.extrapolated - 1.0) <= 0.02 * 1.0
        assert abs(r_p.extrapolated - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
    report(8, f"mean {r_mean.extrapolated:.4f} (0.5), midrange "
              f"{r_mid.extrapolated:.4f} (1.0), p=4 {r_p.extrapolated:.4f} "
              f"({2 / 3:.4f}), all within 2%", elapsed, 30.0)


def test_criterion_09_iterated_modulus_exact_bound():
    """normalized^(j)(t) <= min(L^j t, diam) exactly for L in {1, 1.5, 2}, j <= 20,
    100 sampled t (dyadic samples keep every product exact in binary)."""
    with failing_report(9, "iterated modulus exact bound"):
        rng = np.random.default_rng(11)
        diam = 1.0
        ts = rng.integers(1, 2 ** 20, size=100) * 2.0 ** -20
        for L in (1.0, 1.5, 2.0):
            normalized = Modulus.capped_linear(L, diam)
            for t in ts:
                s = float(t)
                for j in range(21):
                    bound = min(L ** j * t, diam)
                    assert s <= bound, (L, t, j)
                    s = float(normalized(s))
    report(9, "exact (zero-tolerance) in 6300 iterate comparisons")


def test_criterion_10_thread_count_determinism(tmp_path):
    """The 2D reference solve rerun with --threads 1/4/8 writes
    byte-identical field files."""
    with failing_report(10, "thread-count determinism"):
        blobs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"threads{threads}"
            code = cli_main([
                "solve", "--grid", "2d", "--n", "65", "--rho-factor", "0.4",
                "--boundary-fn", "saddle", "--alpha", "0.3",
                "--init-fn", "saddle", "--tol", "1e-8",
                "--threads", str(threads), "--out", str(out),
            ])
            assert code == 0
            blobs.append((out / "field.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
    report(10, "field files byte-identical across --threads 1/4/8")
