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
and records every constant with provenance.
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
from .operators import field_values
from .radius import Modulus


@dataclass
class TheoreticalModulus:
    """Callable oscillation modulus for mean sweeps on one compact set."""

    kind: str                  # "annular_continuous" | "annular_holder"
    C: float
    rho_K: float
    delta: float
    gamma: float = 1.0
    normalized: Modulus = None
    diam: float = None

    def __post_init__(self):
        if self.rho_K <= 0:
            raise SpaceFormatError(f"rho_K must be positive, got {self.rho_K}")
        if not 0.0 < self.delta <= 1.0:
            raise SpaceFormatError(f"delta must be in (0,1], got {self.delta}")
        if self.kind not in ("annular_continuous", "annular_holder"):
            raise SpaceFormatError(f"unknown modulus family kind {self.kind!r}")
        if self.kind == "annular_continuous" and self.normalized is None:
            raise SpaceFormatError("continuous family needs the normalized radius modulus")
        if self.kind == "annular_holder" and not 0.0 < self.gamma <= 1.0:
            raise SpaceFormatError(f"gamma must be in (0,1], got {self.gamma}")
        if self.diam is None:
            self.diam = self.normalized.domain_end if self.normalized is not None else math.inf

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
    analytic lower bound rho_{K_j} = lambda (1-epsilon)^(j beta)."""

    def __init__(self, kind, *, C, lam, epsilon, beta, delta, diam,
                 gamma=1.0, normalized=None):
        if not 0.0 < epsilon < 1.0:
            raise SpaceFormatError(f"epsilon must be in (0,1), got {epsilon}")
        if lam <= 0:
            raise SpaceFormatError(f"lambda must be positive, got {lam}")
        self.kind = kind
        self.C = C
        self.lam = lam
        self.epsilon = epsilon
        self.beta = beta
        self.delta = delta
        self.gamma = gamma
        self.diam = diam
        self.normalized = normalized if normalized is not None else Modulus.identity(diam)

    def rho_lower(self, j):
        return self.lam * (1.0 - self.epsilon) ** (j * self.beta)

    def at(self, j):
        return TheoreticalModulus(self.kind, C=self.C, rho_K=self.rho_lower(j),
                                  delta=self.delta, gamma=self.gamma,
                                  normalized=self.normalized, diam=self.diam)

    def growth_slope(self):
        """Growth rate of the normalized radius modulus iterates."""
        if self.normalized.kind == "linear":
            return self.normalized.slope
        return None

    def tail_ratio_capped(self, alpha):
        """Term ratio once normalized iterates are capped at the diameter."""
        return abs(alpha) * (1.0 - self.epsilon) ** (-self.beta * self.delta)

    def tail_ratio_uncapped(self, alpha):
        """Term ratio while the normalized-modulus iterates still grow like
        L^j t (Lipschitz radius; None for non-linear moduli)."""
        L = self.growth_slope()
        if L is None:
            return None
        return abs(alpha) * L ** (self.gamma * self.delta) \
            * (1.0 - self.epsilon) ** (-self.beta * self.delta)


def branch_constant(lipschitz_L, annular_constant, doubling_constant, delta):
    """The modulus-family constant: max of the two symmetric-difference
    branch constants, 4 L D_delta and 2^delta D_mu^2 D_delta."""
    return max(4.0 * lipschitz_L * annular_constant,
               2.0 ** delta * doubling_constant ** 2 * annular_constant)


def fixed_point_oscillation_bound(m, t, *, alpha, norm_u, family, j_cap=200):
    """Oscillation bound for any fixed point on the m-th exhaustion set.

    The series over j >= 0 of |alpha|^j * family.at(m + j)(s_j), with s_j
    the j-fold composition of the normalized radius modulus at t, scaled
    by (1 - alpha) ||u||_inf; evaluated as a truncated sum plus a
    closed-form geometric tail bound so the certified value never depends
    on the truncation point.
    """
    a = abs(alpha)
    if a > 1:
        raise SpaceFormatError("series bound requires |alpha| <= 1")
    if j_cap < 1:
        raise SpaceFormatError("j_cap must be >= 1")
    q_capped = family.tail_ratio_capped(alpha)
    if a > 0 and q_capped >= 1.0:
        raise SeriesDivergenceError(
            f"series ratio |alpha| (1-epsilon)^(-beta delta) = {q_capped} >= 1: "
            "the root-test convergence condition fails for this family")
    normalized = family.normalized
    diam = family.diam
    total = 0.0
    s = float(t)
    for j in range(j_cap + 1):
        total += (a ** j) * float(family.at(m + j)(min(s, diam)))
        s = float(normalized(min(s, diam)))
    # geometric tail from j_cap + 1 on
    if a == 0.0:
        tail = 0.0
    else:
        tails = []
        q_un = family.tail_ratio_uncapped(alpha)
        if q_un is not None and q_un < 1.0 and s < diam:
            # while uncapped the terms are exactly geometric in q_un
            first = (a ** (j_cap + 1)) * float(family.at(m + j_cap + 1)(min(s, diam)))
            tails.append(first / (1.0 - q_un))
        # always-valid capped bound: the level terms at the diameter decay
        # geometrically in the capped ratio
        first_capped = (a ** (j_cap + 1)) * float(family.at(m + j_cap + 1)(diam))
        tails.append(first_capped / (1.0 - q_capped))
        tail = min(tails)
    return (1.0 - alpha) * norm_u * (total + tail)


def certified_holder_constant(m, *, alpha, L, epsilon, beta, lam, delta,
                              norm_u, C, ell_omega=None):
    """Closed-form Holder-seminorm bound on the m-th exhaustion set.

    C (1-alpha) ||u||_inf lambda^(-delta) (1-epsilon)^(-m beta delta)
      / (1 - L^delta |alpha| (1-epsilon)^(-beta delta)).

    Refuses (naming the condition) when the parameter gate fails.
    """
    gate = radius_mod.validate_parameters(alpha, L, epsilon, beta, lam,
                                          ell_omega, delta)
    if not gate.passed:
        raise SpaceFormatError(
            f"parameter gate fails: {', '.join(gate.failed_conditions)}")
    return (C * (1.0 - alpha) * norm_u * lam ** (-delta)
            * (1.0 - epsilon) ** (-m * beta * delta) / (1.0 - gate.series_ratio))


EmpiricalHolder = namedtuple("EmpiricalHolder", ["value", "mode", "pairs"])


def empirical_holder(space, u, members, delta, seed=0):
    """Measured Holder seminorm max |u(x)-u(y)| / d(x,y)^delta over the set.

    Scans the pairs of Space.pair_scan: exact up to 5000 points, seeded
    pair sampling above (the sampled value is a lower bound for the true
    seminorm and is flagged).  Fewer than two points yields 0 with a notice.
    """
    members = np.asarray(members, dtype=int)
    v = field_values(u)
    if len(members) < 2:
        return EmpiricalHolder(0.0, "undefined", 0)
    if not 0.0 < delta <= 1.0:
        raise SpaceFormatError(f"delta must be in (0,1], got {delta}")
    return EmpiricalHolder(*radius_mod.max_gap_ratio(space, v, delta, members, seed))


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
    norm_u: float

    gate = property(lambda self: self.hypotheses.gate)

    def to_dict(self):
        return {
            **self.hypotheses.to_dict(),
            "m": self.m,
            "delta": self.delta,
            "exponent": self.exponent,
            "theoretical_constant": self.theoretical_constant,
            "empirical_constant": self.empirical_constant,
            "empirical_mode": self.empirical_mode,
            "pass": self.passed,
            "constants": self.constants,
            "residual": self.residual,
            "alpha": self.alpha,
            "norm_u": self.norm_u,
        }


PROBE_SAFETY = 1.1   # probes undersample suprema


def space_constants(space, delta=1.0, seed=0):
    """Annular-decay and doubling constants with provenance.

    Built-in grids carry analytic values; anything else gets probe
    estimates inflated by PROBE_SAFETY.
    """
    a = space.analytic_constants or {}
    ann = a.get("annular_decay", {})
    if float(delta) in ann and "doubling" in a:
        return {"D_delta": ann[float(delta)], "D_mu": a["doubling"],
                "delta": float(delta), "source": "analytic"}
    return {
        "D_delta": PROBE_SAFETY * space.probe_annular_decay(delta, seed=seed),
        "D_mu": PROBE_SAFETY * space.probe_doubling(seed=seed),
        "delta": float(delta),
        "source": "probed",
    }


def certify(space, rho, u, alpha, m, *, epsilon, beta, lam, delta=1.0,
            gamma=1.0, residual_tolerance=1e-6, seed=0):
    """Assemble a regularity certificate for a solved field.

    The hypotheses of the bound (radius.check_hypotheses, as validate
    checks them), the closed-form Holder bound on the m-th exhaustion set
    (nan unless every hypothesis holds), the measured seminorm there, and
    the provenance of every constant (L_mode: the fit's exact or sampled
    pair scan, or "supplied" for a hand-set rho.lipschitz_L).  The
    midrange-only case alpha = 1 is out of certificate scope; a field whose
    residual exceeds the tolerance is refused (it is not a fixed point).
    For alpha = 0 the certificate uses the gamma*delta exponent (Holder
    radius branch); otherwise the radius must be Lipschitz and the exponent
    is delta.
    """
    if alpha == 1.0:
        raise CertificateScopeError(
            "alpha = 1 (midrange-only) is outside certificate scope")
    v = field_values(u)
    res = solver_mod.residual(space, rho, v, alpha)
    if not res <= residual_tolerance:
        raise CertificateResidualError(
            f"field residual {res:.3e} exceeds tolerance {residual_tolerance:.3e}: "
            "not a fixed point")
    constants = space_constants(space, delta, seed=seed)
    hyp = radius_mod.check_hypotheses(space, rho, alpha, epsilon, beta, lam,
                                      delta, seed=seed)
    L = hyp.gate.L
    C = branch_constant(L, constants["D_delta"], constants["D_mu"], delta)
    norm_u = float(np.abs(v).max())
    exponent = gamma * delta if alpha == 0.0 else delta
    members = radius_mod.exhaustion(space, epsilon, m)
    emp = empirical_holder(space, v, members, exponent, seed=seed)
    theo = math.nan  # no certified bound without every hypothesis
    if not hyp.failed:
        theo = certified_holder_constant(
            m, alpha=alpha, L=L, epsilon=epsilon, beta=beta, lam=lam,
            delta=delta, norm_u=norm_u, C=C, ell_omega=space.ell())
    passed = bool(not hyp.failed and math.isfinite(theo) and emp.value <= theo)
    cdict = {"C": C, "D_delta": constants["D_delta"],
             "D_mu": constants["D_mu"], "source": constants["source"],
             "L": L, "L_mode": hyp.L_mode, "gamma": gamma}
    return RegularityCertificate(
        hypotheses=hyp, m=m, delta=delta, exponent=exponent,
        theoretical_constant=theo, empirical_constant=emp.value,
        empirical_mode=emp.mode, passed=passed, constants=cdict,
        residual=res, alpha=alpha, norm_u=norm_u,
    )
