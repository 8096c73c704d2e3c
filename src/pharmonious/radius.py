"""Admissible radius fields and the moduli-of-continuity algebra.

An admissible radius field assigns every interior point a positive radius
bounded by its boundary distance, and vanishes exactly on the boundary.
Moduli of continuity are concave nondecreasing functions with omega(0)=0;
the normalized modulus (identity when omega is sub-identity, otherwise
omega rescaled so the diameter is a fixed point) dominates both t and
omega(t) and is the object that gets iterated.  The exhaustion K_m and the
ball hull tie radius decay near the boundary to the nesting of compacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SpaceFormatError
from .space import read_id_csv, write_id_csv


class Modulus:
    """Concave nondecreasing function on [0, domain_end] with value 0 at 0.

    Stored either as piecewise-linear breakpoints or as the exact closed
    form "power": min(coeff*t**gamma, cap), linear at gamma = 1.  The
    closed form evaluates without interpolation so that iterated
    compositions of a Lipschitz modulus are exact in floating point
    (t**1.0 is t exactly).
    Beyond the last breakpoint the function continues flat.
    """

    __slots__ = ("kind", "ts", "ys", "coeff", "gamma", "cap", "domain_end")

    def __init__(self, *, kind, domain_end, ts=None, ys=None,
                 coeff=None, gamma=None, cap=None):
        self.kind = kind
        self.domain_end = float(domain_end)
        self.ts = None if ts is None else np.asarray(ts, dtype=float)
        self.ys = None if ys is None else np.asarray(ys, dtype=float)
        self.coeff = coeff
        self.gamma = gamma
        self.cap = math.inf if cap is None else float(cap)
        self._validate()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_breakpoints(cls, ts, ys, domain_end=None):
        ts = np.asarray(ts, dtype=float)
        if domain_end is None:
            domain_end = ts[-1]
        return cls(kind="pwl", domain_end=domain_end, ts=ts, ys=ys)

    @classmethod
    def linear(cls, slope, domain_end, cap=None):
        """t -> min(slope * t, cap); uncapped when cap is None."""
        return cls.power(slope, 1.0, domain_end, cap)

    @classmethod
    def capped_linear(cls, slope, domain_end):
        """The Lipschitz radius modulus t -> min(slope * t, domain_end)."""
        return cls.power(slope, 1.0, domain_end, cap=domain_end)

    @classmethod
    def identity(cls, domain_end):
        return cls.capped_linear(1.0, domain_end)

    @classmethod
    def power(cls, coeff, gamma, domain_end, cap=None):
        """t -> min(coeff * t**gamma, cap), 0 < gamma <= 1."""
        if not 0.0 < gamma <= 1.0:
            raise SpaceFormatError(f"power modulus exponent must be in (0,1], got {gamma}")
        return cls(kind="power", domain_end=domain_end, coeff=float(coeff),
                   gamma=float(gamma), cap=cap)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        if self.domain_end < 0:
            raise SpaceFormatError("modulus domain must be nonnegative")
        if self.kind == "pwl":
            ts, ys = self.ts, self.ys
            if ts is None or ys is None or len(ts) != len(ys) or len(ts) < 2:
                raise SpaceFormatError("piecewise modulus needs matching breakpoints")
            if ts[0] != 0.0 or ys[0] != 0.0:
                raise SpaceFormatError("modulus must start at (0, 0)")
            if np.any(np.diff(ts) <= 0):
                raise SpaceFormatError("breakpoint abscissae must increase")
            if np.any(np.diff(ys) < -1e-12 * max(1.0, abs(ys).max())):
                raise SpaceFormatError("modulus must be nondecreasing")
            slopes = np.diff(ys) / np.diff(ts)
            if np.any(np.diff(slopes) > 1e-9 * max(1.0, abs(slopes).max())):
                raise SpaceFormatError("modulus must be concave")
        elif self.kind == "power":
            if self.coeff is None or self.coeff < 0:
                raise SpaceFormatError("power modulus needs a nonnegative coefficient")
        else:
            raise SpaceFormatError(f"unknown modulus kind {self.kind!r}")

    # -- evaluation -----------------------------------------------------------

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise SpaceFormatError("modulus argument must be nonnegative")
        if self.kind == "power":
            out = np.minimum(self.coeff * np.power(t_arr, self.gamma), self.cap)
        else:
            out = np.interp(t_arr, self.ts, self.ys)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def value_at_end(self):
        return self(self.domain_end)

    def is_sub_identity(self):
        """True when omega(t) <= t on the whole domain."""
        if self.domain_end == 0:
            return True
        if self.kind == "power":
            if self.coeff == 0.0:
                return True
            if self.gamma == 1.0:
                return self.coeff <= 1.0
            # coeff * t^gamma > t near 0 for any coeff > 0 when gamma < 1
            return False
        return bool(np.all(self.ys <= self.ts))

    def capped(self, cap):
        """Pointwise min with the given cap; stays concave nondecreasing."""
        if self.kind == "pwl":
            ys = np.minimum(self.ys, cap)
            ts = self.ts
            # insert the crossing point so the cap is hit exactly
            over = np.flatnonzero(self.ys > cap)
            if over.size and over[0] > 0:
                k = over[0]
                t_cross = ts[k - 1] + (cap - ys[k - 1]) * (ts[k] - ts[k - 1]) / (self.ys[k] - ys[k - 1])
                ts = np.concatenate([ts[:k], [t_cross], ts[k:]])
                ys = np.concatenate([ys[:k], [cap], ys[k:]])
            return Modulus.from_breakpoints(ts, ys, self.domain_end)
        kw = dict(kind=self.kind, domain_end=self.domain_end,
                  coeff=self.coeff, gamma=self.gamma,
                  cap=min(self.cap, cap))
        return Modulus(**kw)

    def breakpoint_list(self, points=33):
        """Breakpoints for serialization (closed forms are densified)."""
        if self.kind == "pwl":
            return list(zip(self.ts.tolist(), self.ys.tolist()))
        ts = np.linspace(0.0, self.domain_end, points)
        return list(zip(ts.tolist(), np.asarray(self(ts)).tolist()))

    def to_json(self):
        return json.dumps({"breakpoints": self.breakpoint_list(), "kind": self.kind})

    @classmethod
    def from_json(cls, text):
        """Rebuild from a breakpoint-array JSON (closed forms come back as
        their piecewise-linear densification)."""
        doc = json.loads(text)
        ts, ys = zip(*doc["breakpoints"])
        return cls.from_breakpoints(ts, ys)


def _distinct_gaps(ds, gaps):
    """The distinct d_i > 0, ascending, each with the largest max(gap_i, 0)
    at it: exact, so reducing parts of a scatter and then their union gives
    what reducing the whole gives."""
    ds = np.asarray(ds, dtype=float).ravel()
    gaps = np.asarray(gaps, dtype=float).ravel()
    keep = ds > 0
    uniq_d, inverse = np.unique(ds[keep], return_inverse=True)
    uniq_g = np.zeros_like(uniq_d)
    np.maximum.at(uniq_g, inverse, np.maximum(gaps[keep], 0.0))
    return uniq_d, uniq_g


def _upper_hull(ds, gaps):
    """Upper convex hull of the origin and the points (d_i, max(gap_i, 0))
    with d_i > 0, as vertex arrays starting at the origin."""
    uniq_d, uniq_g = _distinct_gaps(ds, gaps)
    hull = [(0.0, 0.0)]
    for p in zip(uniq_d, uniq_g):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies below the chord (upper hull)
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    xs, ys = zip(*hull)
    return np.array(xs), np.array(ys)


def least_concave_majorant(ds, gaps, domain_end):
    """Least concave nondecreasing majorant of the scatter {(d_i, gap_i)}.

    Upper convex hull of the points together with the origin; a decreasing
    hull tail is flattened at the running maximum so the result is a valid
    modulus of continuity.
    """
    hull_t, hull_y = _upper_hull(ds, gaps)
    if len(hull_t) == 1:
        return Modulus.from_breakpoints([0.0, max(domain_end, 1.0)], [0.0, 0.0],
                                        domain_end)
    # flatten any decreasing tail at the peak value
    ts, ys = [hull_t[0]], [hull_y[0]]
    for x, y in zip(hull_t[1:], hull_y[1:]):
        if y < ys[-1]:
            break
        ts.append(x)
        ys.append(y)
    if ts[-1] < domain_end:
        ts.append(domain_end)
        ys.append(ys[-1])
    return Modulus.from_breakpoints(ts, ys, domain_end)


def normalize_modulus(omega, diam):
    """The normalized radius modulus: identity if omega is sub-identity,
    otherwise omega rescaled so that the diameter is a fixed point.  The
    result dominates max(t, omega(t)) and equals diam at diam.  Requires
    omega(diam) <= diam (cap upstream with Modulus.capped)."""
    end = omega.value_at_end() if omega.domain_end == diam else omega(min(diam, omega.domain_end))
    if end > diam * (1 + 1e-12):
        raise SpaceFormatError(
            f"modulus value {end} at the diameter exceeds the diameter {diam}; cap it first")
    if omega.is_sub_identity():
        return Modulus.identity(diam)
    if end <= 0:
        return Modulus.identity(diam)
    factor = diam / end
    if omega.kind == "power":
        return Modulus.power(factor * omega.coeff, omega.gamma, diam,
                             cap=None if omega.cap is math.inf else factor * omega.cap)
    ts = omega.ts
    ys = factor * omega.ys
    if ts[-1] < diam:
        ts = np.concatenate([ts, [diam]])
        ys = np.concatenate([ys, [ys[-1]]])
    if ts[-1] == diam:
        ys[-1] = diam  # exact fixed point at the diameter
    return Modulus.from_breakpoints(ts, np.minimum(ys, diam), diam)


def iterate_modulus(normalized, n, t):
    """n-fold composition of the normalized modulus; n = 0 returns t."""
    diam = normalized.domain_end
    if not 0 <= t <= diam * (1 + 1e-12):
        raise SpaceFormatError(f"argument {t} outside [0, {diam}]")
    if n < 0:
        raise SpaceFormatError("iteration count must be nonnegative")
    s = float(t)
    for _ in range(int(n)):
        s = float(normalized(min(s, diam)))
    return s


# -- radius fields ---------------------------------------------------------------


class RadiusField:
    """Per-point radius values with fitted regularity metadata.

    Values are immutable after construction; Lipschitz/Holder fits are
    attached once and then the object is safe to share.  So a radius ball
    depends only on (space, center), and the pair checks of operators keep
    the balls they search in balls.
    """

    def __init__(self, values):
        v = np.array(values, dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):  # e.g. scaled distances on a boundaryless component
            raise SpaceFormatError(f"radius is not finite at {len(bad)} "
                                   f"points, first {bad[:10].tolist()}")
        v.flags.writeable = False
        self.values = v
        self._lipschitz_L = None      # clamped to >= 1 for the theory
        self.raw_lipschitz = None     # the actual fitted slope
        self.lipschitz_mode = None    # exact or sampled (the fit), supplied
        self.lipschitz_pairs = 0      # pairs that scan compared
        self.holder_fits = {}         # gamma -> coefficient
        self.balls = {}               # space -> {center: ball members}

    lipschitz_L = property(lambda self: self._lipschitz_L)

    @lipschitz_L.setter
    def lipschitz_L(self, value):  # fit_lipschitz then records its own mode
        self._lipschitz_L, self.lipschitz_mode = value, "supplied"

    def __getitem__(self, i):
        return float(self.values[i])

    def __len__(self):
        return len(self.values)

    @classmethod
    def scaled_boundary_distance(cls, space, factor, power=1.0):
        """rho(x) = factor * dist(x, boundary)**power; admissible for
        0 < factor <= 1 and power >= 1 on bounded domains with ell <= 1."""
        d = space.boundary_distances()
        return cls(factor * d ** power if power != 1.0 else factor * d)


@dataclass
class AdmissibilityReport:
    ok: bool
    nonpositive_interior: list = field(default_factory=list)
    exceeds_boundary_distance: list = field(default_factory=list)
    nonzero_on_boundary: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def validate_admissible(space, rho):
    """Check 0 < rho <= dist(.,boundary) on the interior and rho = 0 on the
    boundary; the report lists every violating point."""
    v = rho.values
    if len(v) != len(space):
        raise SpaceFormatError("radius field length does not match space")
    d = space.boundary_distances()
    interior = space.interior_indices
    bdry = space.boundary_indices
    nonpos = [int(i) for i in interior[v[interior] <= 0]]
    exceeds = [int(i) for i in interior[v[interior] > d[interior]]]
    nonzero = [int(i) for i in bdry[v[bdry] != 0]]
    ok = not (nonpos or exceeds or nonzero) and len(interior) > 0
    return AdmissibilityReport(ok, nonpos, exceeds, nonzero)


def _point_values(space, values):
    """values as a float array of one finite value per point of space."""
    v = np.asarray(values, dtype=float)
    if v.shape != (len(space),):
        raise SpaceFormatError(f"values of shape {v.shape} for a space of "
                               f"{len(space)} points")
    if not np.all(np.isfinite(v)):
        raise SpaceFormatError("values are not all finite")
    return v


def max_gap_ratio(space, values, exponent=1.0, members=None, seed=0):
    """max |values(x) - values(y)| / d(x, y)^exponent over the pair scan of
    members (default: the whole space), as (value, mode, pairs); a sampled
    value is a lower bound for the exact one.  values holds one finite
    value per point of the space."""
    values = _point_values(space, values)
    scan = space.pair_scan(members, seed, lipschitz=(exponent == 1.0))
    best = 0.0
    for i, j, d in scan.blocks:
        dv = np.abs(values[i] - values[j])
        if np.any((d == 0) & (dv > 0) & (i != j)):
            raise SpaceFormatError("distinct points at distance zero with differing values")
        mask = d > 0
        best = max(best, float((dv[mask] / d[mask] ** exponent).max(initial=0.0)))
    return best, scan.mode, scan.pairs


def gap_majorant(space, values, members=None, seed=0):
    """Least concave majorant of the |values(x) - values(y)| vs d(x, y)
    scatter over the pair scan of members (default: the whole space).

    Each exact block is reduced to the vertices of its upper hull: the
    upper hull of a union has its vertices among those of the blocks'
    hulls.  A sampled scan is one draw, streamed in blocks: each is reduced
    to its distinct distances (see _distinct_gaps) and the hull is taken
    once, over their union, so the blocking cannot move a breakpoint (the
    hull's tests of nearly collinear points round differently when their
    neighbours differ).  values holds one finite value per point of the
    space."""
    values = _point_values(space, values)
    scan = space.pair_scan(members, seed)
    reduce = _upper_hull if scan.mode == "exact" else _distinct_gaps
    ts, ys = [np.zeros(0)], [np.zeros(0)]
    for i, j, d in scan.blocks:
        t, y = reduce(d, np.abs(values[i] - values[j]))
        ts.append(t)
        ys.append(y)
    return least_concave_majorant(np.concatenate(ts), np.concatenate(ys),
                                  space.diameter())


def fit_lipschitz(space, rho, seed=0):
    """Fit the Lipschitz constant of the radius field and clamp it at 1
    (the regularity theory assumes L >= 1).  Stores the raw and the clamped
    value on the field, with the mode and pair count of the scan (a sampled
    fit is a lower bound); returns the clamped one."""
    raw, mode, pairs = max_gap_ratio(space, rho.values, 1.0, seed=seed)
    rho.raw_lipschitz = raw
    rho.lipschitz_L = max(1.0, raw)
    rho.lipschitz_mode, rho.lipschitz_pairs = mode, pairs
    return rho.lipschitz_L


def fit_holder(space, rho, gamma, seed=0):
    """Fit the gamma-Holder coefficient of the radius field."""
    coeff, _, _ = max_gap_ratio(space, rho.values, gamma, seed=seed)
    rho.holder_fits[float(gamma)] = coeff
    return coeff


def fit_radius_modulus(space, rho, seed=0):
    """Concave majorant of the |rho(x)-rho(y)| vs d(x,y) scatter, capped at
    the diameter so it can be normalized."""
    return gap_majorant(space, rho.values, seed=seed).capped(space.diameter())


# -- parameter gates ---------------------------------------------------------------


def series_ratio(alpha, L, epsilon, beta, delta, gamma=1.0):
    """Term ratio of the fixed-point series while the normalized-modulus
    iterates grow like L^j t: L^(gamma delta) |alpha| (1-epsilon)^(-beta delta)
    (at L = 1 the ratio once they are capped at the diameter); inf outside
    0 < epsilon < 1."""
    if not 0.0 < epsilon < 1.0:
        return math.inf
    return L ** (gamma * delta) * abs(alpha) * (1.0 - epsilon) ** (-beta * delta)


def branch_constants(L, D_delta, D_mu, delta):
    """The two symmetric-difference branch constants: 4 L D_delta
    (Lipschitz) and 2^delta D_mu^2 D_delta (continuity)."""
    return 4.0 * L * D_delta, 2.0 ** delta * D_mu ** 2 * D_delta


def max_lambda(ell_omega, beta, epsilon):
    """Largest admissible lambda, ell^(1-beta) * epsilon (inf when ell = 0)."""
    return ell_omega ** (1.0 - beta) * epsilon if ell_omega > 0 else math.inf


@dataclass
class ParameterGate:
    """Verdict of the full parameter gate for the closed-form Holder bound."""

    alpha: float
    L: float
    epsilon: float
    beta: float
    lam: float
    ell_omega: float
    delta: float
    conditions: dict
    failed_conditions: list
    passed: bool
    beta_max: float
    series_ratio: float
    equicontinuity_passed: bool

    # at L = 1 the series ratio is the analytic root-test margin
    analytic_margin = property(lambda self: self.series_ratio)

    def to_dict(self):
        return {
            "alpha": self.alpha, "L": self.L, "epsilon": self.epsilon,
            "beta": self.beta, "lambda": self.lam, "ell_omega": self.ell_omega,
            "delta": self.delta,
            "conditions": self.conditions,
            "failed_conditions": self.failed_conditions,
            "pass": self.passed,
            "beta_max": self.beta_max,
            "series_ratio": self.series_ratio,
            "equicontinuity_pass": self.equicontinuity_passed,
        }


def validate_parameters(alpha, L, epsilon, beta, lam=None, ell_omega=None,
                        delta=1.0):
    """Evaluate every condition of the main regularity gate.

    |alpha| < 1/L; 0 < epsilon < 1 - L|alpha|;
    1 <= beta < log(1/(L|alpha|)) / log(1/(1-epsilon))  (vacuous at alpha=0);
    0 < lambda <= max_lambda(ell, beta, epsilon), checked only when the
    domain's ell_omega is given.  The L = 1 variant (iterate
    equicontinuity, the same gate without the lambda window) is recorded as
    a separate flag, and the geometric series ratio
    L^delta |alpha| (1-eps)^(-beta delta) is reported for the root test.
    """
    a = abs(alpha)
    conds = {"alpha_below_inverse_lipschitz": L > 0 and a < 1.0 / L,
             "epsilon_window": 0.0 < epsilon < 1.0 - L * a}
    if a == 0.0:
        beta_max = math.inf
    elif L * a < 1.0 and 0.0 < epsilon < 1.0:
        beta_max = math.log(1.0 / (L * a)) / math.log(1.0 / (1.0 - epsilon))
    else:
        beta_max = 0.0
    conds["beta_window"] = 1.0 <= beta < beta_max
    equicontinuity = all(conds.values()) if L == 1.0 else \
        validate_parameters(alpha, 1.0, epsilon, beta).passed
    if ell_omega is not None:
        conds["lambda_window"] = 0.0 < lam <= max_lambda(ell_omega, beta, epsilon)
    failed = [k for k, v in conds.items() if not v]
    return ParameterGate(
        alpha=alpha, L=L, epsilon=epsilon, beta=beta, lam=lam,
        ell_omega=ell_omega, delta=delta,
        conditions=conds, failed_conditions=failed, passed=not failed,
        beta_max=beta_max,
        series_ratio=series_ratio(alpha, L, epsilon, beta, delta),
        equicontinuity_passed=equicontinuity,
    )


@dataclass
class RadiusBoundsReport:
    """Pointwise check of lambda*dist^beta <= rho <= epsilon*dist."""

    lambda_window_ok: bool
    lower_violations: list
    upper_violations: list
    lam: float
    beta: float
    epsilon: float
    lambda_cap: float

    @property
    def ok(self):
        return self.lambda_window_ok and not self.lower_violations \
            and not self.upper_violations

    def to_dict(self):
        return {
            "ok": self.ok,
            "lambda_window_ok": self.lambda_window_ok,
            "lambda_cap": self.lambda_cap,
            "lower_violations": self.lower_violations,
            "upper_violations": self.upper_violations,
            "lambda": self.lam, "beta": self.beta, "epsilon": self.epsilon,
        }


def check_radius_bounds(space, rho, lam, beta, epsilon):
    """Verify the two-sided radius restriction per interior point.

    A lambda outside its admissibility window (0, max_lambda] is recorded
    as a gate failure but the pointwise check still runs."""
    d = space.boundary_distances()
    interior = space.interior_indices
    v = rho.values
    lam_cap = max_lambda(space.ell(), beta, epsilon)
    window_ok = 0.0 < lam <= lam_cap
    lower = lam * d[interior] ** beta
    upper = epsilon * d[interior]
    low_bad = [int(i) for i in interior[v[interior] < lower]]
    up_bad = [int(i) for i in interior[v[interior] > upper]]
    return RadiusBoundsReport(window_ok, low_bad, up_bad, lam, beta, epsilon,
                              lam_cap)


@dataclass
class HypothesisReport:
    """Every hypothesis of the closed-form Holder bound on one (space, rho),
    with the provenance of L: the fit's exact or sampled scan, or supplied."""

    admissible: AdmissibilityReport
    radius_bounds: RadiusBoundsReport
    gate: ParameterGate
    L_mode: str

    @property
    def failed(self):
        """Names of the failed checks, the gate's conditions last."""
        return [k for k in ("admissible", "radius_bounds")
                if not getattr(self, k).ok] + self.gate.failed_conditions

    def to_dict(self):  # L_mode goes with the caller's constants
        return {k: getattr(self, k).to_dict()
                for k in ("admissible", "radius_bounds", "gate")}


def check_hypotheses(space, rho, alpha, epsilon, beta, lam, delta=1.0,
                     L=None, seed=0):
    """Admissibility of rho, lambda dist^beta <= rho <= epsilon dist and the
    parameter gate at L: the one given, else rho's own, else a fit."""
    admissible = validate_admissible(space, rho)
    bounds = check_radius_bounds(space, rho, lam, beta, epsilon)
    L_mode = "supplied"
    if L is None:
        L = rho.lipschitz_L or fit_lipschitz(space, rho, seed=seed)
        L_mode = rho.lipschitz_mode
    gate = validate_parameters(alpha, L, epsilon, beta, lam, space.ell(), delta)
    return HypothesisReport(admissible, bounds, gate, L_mode)


# -- exhaustion and hulls --------------------------------------------------------


def exhaustion(space, epsilon, m):
    """K_m: interior points at boundary distance >= (1-epsilon)^m.  Nested
    and increasing in m; may be empty for small m (that is reported by the
    caller, not an error)."""
    if not 0.0 < epsilon < 1.0:
        raise SpaceFormatError(f"epsilon must be in (0,1), got {epsilon}")
    if m < 1:
        raise SpaceFormatError(f"exhaustion index must be >= 1, got {m}")
    d = space.boundary_distances()
    cut = (1.0 - epsilon) ** m
    mask = (d >= cut) & ~space.boundary_mask
    return np.flatnonzero(mask)


def hull(space, rho, members):
    """Union of the radius balls over the given point set."""
    members = np.asarray(members, dtype=int)
    balls, _ = space.balls(members, rho.values[members])
    return np.unique(balls)


# -- file format -----------------------------------------------------------------


def read_radius_csv(space, path):
    """Radius file: header id,rho; ids must match the space."""
    return RadiusField(read_id_csv(space, path, "rho"))


def write_radius_csv(space, rho, path):
    write_id_csv(space, path, "rho", rho.values)
