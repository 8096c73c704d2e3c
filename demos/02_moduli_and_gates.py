"""The moduli-of-continuity algebra and the parameter gates.

A radius field needs a concave modulus of continuity; the normalized
version (identity when the modulus is sub-identity, otherwise rescaled so
the diameter is a fixed point) is what gets composed with itself when
operator sweeps are iterated.  The parameter gate collects everything the
closed-form Holder bound assumes, and the root test decides whether the
fixed-point oscillation series converges at all.
"""

import numpy as np

from pharmonious import (Modulus, RadiusField, ModulusFamily, equicontinuity_gate,
                         fit_lipschitz, fit_radius_modulus, interval_grid,
                         iterate_modulus, normalize_modulus, root_test_margin,
                         validate_parameters)

# -- normalizing moduli ---------------------------------------------------------

print("normalized radius moduli nm (diam = 1):")
for label, omega in [
    ("omega(t) = t/2 (sub-identity)", Modulus.linear(0.5, 1.0)),
    ("omega(t) = min(2t, 1)", Modulus.capped_linear(2.0, 1.0)),
    ("omega(t) = sqrt(t)", Modulus.power(1.0, 0.5, 1.0)),
]:
    nm = normalize_modulus(omega, 1.0)
    ts = [0.1, 0.25, 0.5, 1.0]
    vals = ", ".join(f"nm({t}) = {nm(t):.3f}" for t in ts)
    print(f"  {label:32s} -> {vals}")

print("\niterates of min(2t, 1) at t = 0.1:",
      [iterate_modulus(Modulus.capped_linear(2.0, 1.0), n, 0.1)
       for n in range(6)])

# -- fitting a modulus from data ---------------------------------------------------

sp = interval_grid(257)
rho = RadiusField.scaled_boundary_distance(sp, 0.4)
L = fit_lipschitz(sp, rho)
omega = fit_radius_modulus(sp, rho)
print(f"\nfitted Lipschitz constant of rho = 0.4 dist: raw "
      f"{rho.raw_lipschitz:.4f}, clamped {L}")
print(f"fitted concave majorant at t = 0.25: {omega(0.25):.4f}")

# -- parameter gates ------------------------------------------------------------

print("\nmain parameter gate:")
for alpha, L, eps, beta, lam in [(0.3, 1.0, 0.5, 1.0, 0.4),
                                 (0.6, 2.0, 0.2, 1.0, 0.1),
                                 (0.0, 1.0, 0.5, 3.0, 0.4)]:
    gate = validate_parameters(alpha, L, eps, beta, lam, ell_omega=0.5)
    verdict = "pass" if gate.passed else "FAIL " + ",".join(gate.failed_conditions)
    print(f"  alpha={alpha:4.1f} L={L} eps={eps} beta={beta} lam={lam}: "
          f"{verdict}  (beta_max {gate.beta_max:.3f}, series ratio "
          f"{gate.series_ratio:.3f})")

# -- root test ------------------------------------------------------------------

print("\nfinite-j root-test surrogate vs the analytic margin:")
fam = ModulusFamily("annular_continuous", C=1.0, lam=1.0, epsilon=0.5, beta=1.0,
              delta=1.0, normalized=Modulus.identity(1.0))
for alpha in (0.0, 0.3, 0.45, 0.6):
    margin = root_test_margin(alpha, fam)
    analytic = alpha * 2.0
    gate = equicontinuity_gate(alpha, 0.5, 1.0)
    print(f"  alpha={alpha:4.2f}: surrogate {margin:.4f}, analytic {analytic:.4f},"
          f" equicontinuity gate {'pass' if gate.passed else 'fail'}")
