"""Theoretical oscillation moduli, the fixed-point series, and certificates.

Two families of moduli bound n-fold mean sweeps on a compact set K with
rho_K = inf of the radius over K (nm is the normalized radius modulus):

    annular_continuous: t -> C rho_K^(-delta) nm(t)^delta
    annular_holder:     t -> C rho_K^(-delta) t^(gamma delta)

For a fixed point of the alpha-mean operator the oscillation on the m-th
exhaustion set is bounded by the series over j of |alpha|^j times the
level-(m+j) family modulus evaluated at the j-fold composition of nm,
scaled by (1-alpha) ||u||_inf; with a Lipschitz radius the series sums in
closed form to (Holder constant) * t^delta.  A certificate compares that
closed-form bound against the measured Holder seminorm of a solved field
and records every constant with provenance.  It scales the bound by the
half-oscillation (max u - min u) / 2, not by max |u|: the alpha-mean
operator commutes with adding a constant, so u - c is a fixed point with
u's seminorm, and c = the midrange of u gives sup |u - c| = osc(u) / 2.

The same family bounds the sweep iterates: the n-sweep oscillation bound,
the finite-j root-test margin and the equicontinuity parameter gate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import radius as radius_mod
from . import solver as solver_mod
from .errors import (CertificateResidualError, CertificateScopeError,
                     SeriesDivergenceError, SpaceFormatError)
from .radius import Modulus
from .space import check_parameters, point_values, report_dict


J_CAP = 200   # terms summed before the closed-form tail of the series
J_MAX = 40    # largest level the root-test surrogate reads


@dataclass
class TheoreticalModulus:
    """Callable oscillation modulus for mean sweeps on one compact set."""

    kind: str                  # "annular_continuous" | "annular_holder"
    C: float
    rho_K: float
    delta: float
    gamma: float = 1.0
    normalized: Modulus = None

    def __post_init__(self):
        check_parameters(delta=self.delta, gamma=self.gamma)
        if self.rho_K <= 0:
            raise SpaceFormatError(f"rho_K must be positive, got {self.rho_K}")
        if self.kind not in ("annular_continuous", "annular_holder"):
            raise SpaceFormatError(f"unknown modulus family kind {self.kind!r}")
        if self.kind == "annular_continuous" and self.normalized is None:
            raise SpaceFormatError("continuous family needs the normalized radius modulus")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scale = self.C * self.rho_K ** (-self.delta)
        if self.kind == "annular_continuous":
            out = scale * np.asarray(self.normalized(np.minimum(t_arr, self.normalized.domain_end))) ** self.delta
        else:
            out = scale * t_arr ** (self.gamma * self.delta)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


class ModulusFamily:
    """The modulus family over the exhaustion: j -> W on K_j with the
    analytic lower bound rho_{K_j} = lambda (1-epsilon)^(j beta).  The
    diameter is the end of the normalized radius modulus's domain."""

    def __init__(self, kind, *, C, lam, epsilon, beta, delta, normalized,
                 gamma=1.0):
        check_parameters(lam=lam, epsilon=epsilon, beta=beta, delta=delta,
                         gamma=gamma)
        if lam <= 0:
            raise SpaceFormatError(f"lambda must be positive, got {lam}")
        self.kind = kind
        self.C = C
        self.lam = lam
        self.epsilon = epsilon
        self.beta = beta
        self.delta = delta
        self.gamma = gamma
        self.normalized = normalized
        self.diam = normalized.domain_end

    def rho_lower(self, j):
        return self.lam * (1.0 - self.epsilon) ** (j * self.beta)

    def at(self, j):
        return TheoreticalModulus(self.kind, C=self.C, rho_K=self.rho_lower(j),
                                  delta=self.delta, gamma=self.gamma,
                                  normalized=self.normalized)

    def partial_sum(self, m, t, alpha, terms):
        """(sum over j < terms of |alpha|^j at(m + j)(min(s_j, diam)), s_terms)
        with s_j the j-fold composition of the normalized modulus at t.

        |alpha|^j rho_{K_(m+j)}^(-delta) = q^j rho_{K_m}^(-delta) with q the
        capped series ratio, so term j is q^j at(m)(min(s_j, diam)): the
        two factors cannot overflow or underflow apart."""
        q = radius_mod.series_ratio(alpha, 1.0, self.epsilon, self.beta,
                                    self.delta)
        level_m = self.at(m)
        total = 0.0
        s = float(t)
        for j in range(int(terms)):
            total += (q ** j) * float(level_m(min(s, self.diam)))
            s = float(self.normalized(min(s, self.diam)))
        return total, s


def branch_constant(lipschitz_L, annular_constant, doubling_constant, delta):
    """The modulus-family constant: the larger of the two symmetric-difference
    branch constants (radius.branch_constants)."""
    return max(radius_mod.branch_constants(lipschitz_L, annular_constant,
                                           doubling_constant, delta))


def fixed_point_oscillation_bound(m, t, *, alpha, norm_u, family):
    """Oscillation bound for any fixed point on the m-th exhaustion set.

    The series over j >= 0 of |alpha|^j * family.at(m + j)(s_j), with s_j
    the j-fold composition of the normalized radius modulus at t, scaled
    by (1 - alpha) ||u||_inf; evaluated as the sum of the first J_CAP + 1
    terms plus a closed-form geometric tail bound so the certified value
    never depends on the truncation point.
    """
    check_parameters(m=m, alpha=alpha)
    a = abs(alpha)
    if a > 1:
        raise SpaceFormatError("series bound requires |alpha| <= 1")
    q_capped = radius_mod.series_ratio(alpha, 1.0, family.epsilon,
                                       family.beta, family.delta)
    if a > 0 and q_capped >= 1.0:
        raise SeriesDivergenceError(
            f"series ratio |alpha| (1-epsilon)^(-beta delta) = {q_capped} >= 1: "
            "the root-test convergence condition fails for this family")
    diam = family.diam
    # at alpha = 0 every term past j = 0 vanishes
    total, s = family.partial_sum(m, t, alpha, 1 if a == 0.0 else J_CAP + 1)
    # geometric tail from J_CAP + 1 on
    if a == 0.0:
        tail = 0.0
    else:
        level_m = family.at(m)
        tails = []
        nm = family.normalized
        if nm.kind == "power" and nm.gamma == 1.0:
            # while uncapped the normalized iterates grow like L^j t and the
            # terms are exactly geometric in the uncapped ratio
            q_un = radius_mod.series_ratio(
                alpha, nm.coeff, family.epsilon, family.beta,
                family.delta, family.gamma)
            if q_un < 1.0 and s < diam:
                first = (q_capped ** (J_CAP + 1)) * float(level_m(s))
                tails.append(first / (1.0 - q_un))
        # always-valid capped bound: the level terms at the diameter decay
        # geometrically in the capped ratio
        first_capped = (q_capped ** (J_CAP + 1)) * float(level_m(diam))
        tails.append(first_capped / (1.0 - q_capped))
        tail = min(tails)
    return (1.0 - alpha) * norm_u * (total + tail)


def iterate_modulus_bound(m, n, t, *, alpha, norm_u, u_modulus, family):
    """Oscillation bound for the n-fold sweep on the m-th exhaustion set.

    With s_j the j-fold self-composition of the normalized radius modulus
    applied to t, the bound is

        |alpha|^n * u_modulus(s_n)
          + (1 - alpha) * norm_u * sum over j < n of
                |alpha|^j * family.at(m + j)(s_j).

    u_modulus must be a modulus for the unswept field on the (m+n)-th
    exhaustion set; family provides the mean-sweep modulus at each
    exhaustion index.
    """
    check_parameters(m=m, n=n, alpha=alpha)
    if abs(alpha) > 1:
        raise SpaceFormatError("iterate bound requires |alpha| <= 1")
    total, s = family.partial_sum(m, t, alpha, n)
    head = (abs(alpha) ** n) * float(u_modulus(min(s, u_modulus.domain_end)))
    return head + (1.0 - alpha) * norm_u * total


def root_test_margin(alpha, family):
    """Finite-j surrogate for the root-test margin.

    |alpha| * max over j in [J_MAX/2, J_MAX] of W_j(diam)^(1/j): a
    stabilized tail statistic standing in for the limsup.  The gate passes
    when the margin is < 1.
    """
    a = abs(alpha)
    if a == 0.0:
        return 0.0
    best = 0.0
    for j in range(J_MAX // 2, J_MAX + 1):
        w_end = float(family.at(j)(family.diam))
        if w_end > 0:
            best = max(best, w_end ** (1.0 / j))
    return a * best


def equicontinuity_gate(alpha, epsilon, beta, delta=1.0):
    """Parameter gate for equicontinuity of the sweep iterates: the main
    gate (validate_parameters) at L = 1, without the lambda window.

    Its series ratio (analytic_margin) is the analytic root-test margin
    |alpha| (1-epsilon)^(-delta beta): the conditions imply margin < 1 for
    every delta in (0,1], and at delta = 1 they are equivalent to it.
    """
    return radius_mod.validate_parameters(alpha, 1.0, epsilon, beta, delta=delta)


def certified_holder_constant(m, *, alpha, L, epsilon, beta, lam, delta,
                              norm_u, C, ell_omega=None):
    """Closed-form Holder-seminorm bound on the m-th exhaustion set.

    C (1-alpha) ||u||_inf lambda^(-delta) (1-epsilon)^(-m beta delta)
      / (1 - L^delta |alpha| (1-epsilon)^(-beta delta)).

    Refuses (naming the condition) when the parameter gate fails; inf when
    a power leaves the float range, a bound that certifies nothing.
    """
    check_parameters(m=m)
    gate = radius_mod.validate_parameters(alpha, L, epsilon, beta, lam,
                                          ell_omega, delta)
    if not gate.passed:
        raise SpaceFormatError(
            f"parameter gate fails: {', '.join(gate.failed_conditions)}")
    try:
        return (C * (1.0 - alpha) * norm_u * lam ** (-delta)
                * (1.0 - epsilon) ** (-m * beta * delta) / (1.0 - gate.series_ratio))
    except OverflowError:
        return math.inf


EmpiricalHolder = namedtuple("EmpiricalHolder", ["value", "mode", "pairs"])


def empirical_holder(space, u, members, delta):
    """Measured Holder seminorm max |u(x)-u(y)| / d(x,y)^delta over the set.

    Scans every pair of the set (Space.pair_scan), mode "exact".  Fewer
    than two points yields 0 with the notice mode "undefined".
    """
    check_parameters(delta=delta)
    members = space._indices(members)
    v = point_values(u, "field", len(space))
    if len(members) < 2:
        return EmpiricalHolder(0.0, "undefined", 0)
    value, pairs = radius_mod.max_gap_ratio(space, v, delta, members)
    return EmpiricalHolder(value, "exact", pairs)


@dataclass
class RegularityCertificate:
    hypotheses: radius_mod.HypothesisReport
    m: int
    delta: float
    exponent: float
    theoretical_constant: float
    empirical_constant: float
    empirical_mode: str
    passed: bool
    constants: dict
    residual: float
    alpha: float
    half_oscillation: float

    gate = property(lambda self: self.hypotheses.gate)

    def to_dict(self):  # the hypotheses' keys first, at the top level
        return {**self.hypotheses.to_dict(), **report_dict(self, ("hypotheses",))}


PROBE_SAFETY = 1.1   # probes undersample suprema


def space_constants(space, delta=1.0, seed=0):
    """Annular-decay and doubling constants with provenance.

    Built-in grids carry analytic values; anything else gets the probe
    estimates of one pass over one row per probe center (see
    Space._probe_pass), inflated by PROBE_SAFETY, as Python floats.
    """
    a = space.analytic_constants or {}
    ann = a.get("annular_decay", {})
    if float(delta) in ann and "doubling" in a:
        return {"D_delta": ann[float(delta)], "D_mu": a["doubling"],
                "delta": float(delta), "source": "analytic"}
    doubling, decay, _ = space._probe_pass([delta], seed=seed)
    return {
        "D_delta": PROBE_SAFETY * decay[float(delta)],
        "D_mu": PROBE_SAFETY * doubling,
        "delta": float(delta),
        "source": "probed",
    }


def certify(space, rho, u, alpha, m, *, epsilon, beta, lam, delta=1.0,
            gamma=1.0, residual_tolerance=1e-6, seed=0):
    """Assemble a regularity certificate for a solved field.

    The hypotheses of the bound (radius.check_hypotheses, as validate
    checks them), the closed-form Holder bound on the m-th exhaustion set
    (nan unless every hypothesis holds), the measured seminorm there, and
    the provenance of every constant (L_mode: "exact" for the fit's pair
    scan, "analytic" for a scaled boundary distance, or "supplied" for a
    hand-set rho.lipschitz_L).  The seed drives the probes of the space's
    constants when it has no analytic ones; every pair scan is exact.  The
    midrange-only case alpha = 1 is out of certificate scope; a field whose
    residual exceeds the tolerance is refused (it is not a fixed point).
    For alpha = 0 the certificate uses the gamma*delta exponent (Holder
    radius branch); otherwise the radius must be Lipschitz and the exponent
    is delta.  A parameter outside its domain (see check_parameters) is
    refused before the residual is measured.
    """
    check_parameters(alpha=alpha, m=m, epsilon=epsilon, beta=beta, lam=lam,
                     delta=delta, gamma=gamma,
                     residual_tolerance=residual_tolerance, seed=seed)
    if alpha == 1.0:
        raise CertificateScopeError(
            "alpha = 1 (midrange-only) is outside certificate scope")
    v = point_values(u, "field", len(space))
    res = solver_mod.residual(space, rho, v, alpha)
    if not res <= residual_tolerance:
        raise CertificateResidualError(
            f"field residual {res:.3e} exceeds tolerance {residual_tolerance:.3e}: "
            "not a fixed point")
    constants = space_constants(space, delta, seed=seed)
    hyp = radius_mod.check_hypotheses(space, rho, alpha, epsilon, beta, lam,
                                      delta)
    L = hyp.gate.L
    C = branch_constant(L, constants["D_delta"], constants["D_mu"], delta)
    # the sup norm of the fixed point u - midrange (see the module docstring)
    half_oscillation = 0.5 * (float(v.max()) - float(v.min()))
    exponent = gamma * delta if alpha == 0.0 else delta
    members = radius_mod.exhaustion(space, epsilon, m)
    emp = empirical_holder(space, v, members, exponent)
    theo = math.nan  # no certified bound without every hypothesis
    if not hyp.failed:
        theo = certified_holder_constant(
            m, alpha=alpha, L=L, epsilon=epsilon, beta=beta, lam=lam,
            delta=delta, norm_u=half_oscillation, C=C, ell_omega=space.ell())
    passed = bool(not hyp.failed and math.isfinite(theo) and emp.value <= theo)
    cdict = {"C": C, "D_delta": constants["D_delta"],
             "D_mu": constants["D_mu"], "source": constants["source"],
             "L": L, "L_mode": hyp.L_mode, "gamma": gamma}
    return RegularityCertificate(
        hypotheses=hyp, m=m, delta=delta, exponent=exponent,
        theoretical_constant=theo, empirical_constant=emp.value,
        empirical_mode=emp.mode, passed=passed, constants=cdict,
        residual=res, alpha=alpha, half_oscillation=half_oscillation,
    )
