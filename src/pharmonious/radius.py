"""Admissible radius fields and the moduli-of-continuity algebra.

An admissible radius field assigns every interior point a positive radius
bounded by its boundary distance, and vanishes exactly on the boundary.
Moduli of continuity are concave nondecreasing functions with omega(0)=0;
the normalized modulus (identity when omega is sub-identity, otherwise
omega rescaled so the diameter is a fixed point) dominates both t and
omega(t) and is the object that gets iterated.  The exhaustion K_m ties
radius decay near the boundary to the nesting of compacts.  Radius values
and the values of the gap scans are read, and refused when malformed, by
space.point_values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import space as space_mod
from .errors import SpaceFormatError
from .space import (HAIR, check_parameters, point_values, read_id_csv,
                    report_dict, write_id_csv)


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
        check_parameters(gamma=gamma)
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

    def breakpoint_list(self):
        """Breakpoints for serialization (closed forms are densified to 33)."""
        if self.kind == "pwl":
            return list(zip(self.ts.tolist(), self.ys.tolist()))
        ts = np.linspace(0.0, self.domain_end, 33)
        return list(zip(ts.tolist(), np.asarray(self(ts)).tolist()))


def _staircase(ds, gaps):
    """The points of {(d_i, max(gap_i, 0)) : d_i > 0} that the upper hull of
    the origin and the scatter's nondecreasing part can keep: ascending in
    d, each where the gap first rises above every gap at a smaller distance
    (and above 0), and the last point with the largest gap, where the hull
    turns flat.  Comparisons only, so the staircase of the staircases of
    any split of a scatter is the staircase of the whole."""
    ds = np.asarray(ds, dtype=float).ravel()
    gaps = np.asarray(gaps, dtype=float).ravel()
    keep = ds > 0
    uniq_d, inverse = np.unique(ds[keep], return_inverse=True)
    g = np.zeros_like(uniq_d)
    np.maximum.at(g, inverse, np.maximum(gaps[keep], 0.0))
    step = g > np.maximum.accumulate(np.concatenate([[0.0], g[:-1]]))
    step[np.flatnonzero(g == g.max(initial=0.0))[-1:]] = True
    return uniq_d[step], g[step]


def _upper_hull(ds, gaps):
    """Upper convex hull of the origin and the staircase of the points
    (d_i, max(gap_i, 0)) with d_i > 0, as vertex arrays starting at the
    origin; nondecreasing, as the staircase is."""
    hull = [(0.0, 0.0)]
    for p in zip(*(a.tolist() for a in _staircase(ds, gaps))):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies below the chord (upper
            # hull), or when the slopes Modulus checks would rise there
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1) \
                    or (y2 - y1) / (x2 - x1) < (p[1] - y2) / (p[0] - x2):
                hull.pop()
            else:
                break
        hull.append(p)
    xs, ys = zip(*hull)
    return np.array(xs), np.array(ys)


def least_concave_majorant(ds, gaps, domain_end):
    """Least concave nondecreasing majorant of the scatter {(d_i, gap_i)}:
    the upper hull of the origin and the scatter's staircase (see
    _upper_hull), continued flat to domain_end."""
    ts, ys = _upper_hull(ds, gaps)
    if len(ts) == 1:
        return Modulus.from_breakpoints([0.0, max(domain_end, 1.0)], [0.0, 0.0],
                                        domain_end)
    if ts[-1] < domain_end:
        ts, ys = np.append(ts, domain_end), np.append(ys, ys[-1])
    return Modulus.from_breakpoints(ts, ys, domain_end)


def normalize_modulus(omega, diam):
    """The normalized radius modulus: identity if omega is sub-identity,
    otherwise omega rescaled so that the diameter is a fixed point.  The
    result dominates max(t, omega(t)) and equals diam at diam.  Requires
    omega(diam) <= diam (cap upstream with Modulus.capped)."""
    end = omega(min(diam, omega.domain_end))
    if end > diam * (1 + 1e-12):
        raise SpaceFormatError(
            f"modulus value {end} at the diameter exceeds the diameter {diam}; cap it first")
    if omega.is_sub_identity() or end <= 0:
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
    check_parameters(n=n)
    diam = normalized.domain_end
    if not 0 <= t <= diam * (1 + 1e-12):
        raise SpaceFormatError(f"argument {t} outside [0, {diam}]")
    s = float(t)
    for _ in range(n):
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
        # a read-only copy, so the caller's array stays writable; a radius
        # that is not finite (the scaled distance on a component without
        # boundary) is refused
        v = np.array(point_values(values, "radius"))
        v.flags.writeable = False
        self.values = v
        self._lipschitz_L = None      # clamped to >= 1 for the theory
        self.raw_lipschitz = None     # the actual fitted or analytic slope
        self.lipschitz_mode = None    # exact (the fit), analytic or supplied
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
        0 < factor <= 1 and power >= 1 on bounded domains with ell <= 1.

        dist(., boundary) is 1-Lipschitz in every metric space (the triangle
        inequality), so for power >= 1 the field records its Lipschitz bound
        with no scan (lipschitz_mode "analytic"): |factor| at power 1 and
        |factor| * power * ell**(power - 1) above (ell = space.ell()), each
        widened by a HAIR against rounding.  A power below 1 is not Lipschitz
        at the boundary; check_hypotheses fits it.  A factor or power
        outside its domain (rho_factor, rho_power of check_parameters) is
        refused before any value is computed."""
        check_parameters(rho_factor=factor, rho_power=power)
        d = space.boundary_distances()
        rho = cls(factor * d ** power if power != 1.0 else factor * d)
        if power >= 1.0:
            rho.raw_lipschitz = abs(factor) * power \
                * space.ell() ** (power - 1.0) * HAIR
            rho.lipschitz_L = max(1.0, rho.raw_lipschitz)
            rho.lipschitz_mode = "analytic"
        return rho


@dataclass
class AdmissibilityReport:
    ok: bool
    nonpositive_interior: list = field(default_factory=list)
    exceeds_boundary_distance: list = field(default_factory=list)
    nonzero_on_boundary: list = field(default_factory=list)

    to_dict = report_dict


def validate_admissible(space, rho):
    """Check 0 < rho <= dist(.,boundary) on the interior and rho = 0 on the
    boundary; the report lists every violating point."""
    v = point_values(rho, "radius", len(space))
    d = space.boundary_distances()
    interior = space.interior_indices
    bdry = space.boundary_indices
    nonpos = [int(i) for i in interior[v[interior] <= 0]]
    exceeds = [int(i) for i in interior[v[interior] > d[interior]]]
    nonzero = [int(i) for i in bdry[v[bdry] != 0]]
    ok = not (nonpos or exceeds or nonzero) and len(interior) > 0
    return AdmissibilityReport(ok, nonpos, exceeds, nonzero)


def max_gap_ratio(space, values, exponent=1.0, members=None):
    """max |values(x) - values(y)| / d(x, y)^exponent over every pair of
    members (default: the whole space), as (value, pairs).  values holds
    one finite value per point of the space."""
    values = point_values(values, "values", len(space))
    scan = space.pair_scan(members, lipschitz=(exponent == 1.0))
    best = 0.0
    for i, j, d in scan.blocks:
        dv = np.subtract(values[i], values[j])
        np.abs(dv, out=dv)
        # d is 0 only where i == j, where dv is 0 too: distinct points are
        # apart; the ratios are taken in place, over the block, not its copy
        np.divide(dv, d if exponent == 1.0 else d ** exponent, out=dv, where=d > 0)
        best = max(best, float(dv.max(initial=0.0)))
    return best, scan.pairs


def gap_majorant(space, values, members=None):
    """Least concave majorant of the |values(x) - values(y)| vs d(x, y)
    scatter over every pair of members (default: the whole space).

    Each block's staircase (see _staircase, which no split changes) waits
    in a list after the running staircase; once the waiting points pass
    BLOCK_ENTRIES, the list is folded into one running staircase, the
    staircase of them all joined.  So the scan holds one block, one
    staircase and about one block of waiting points; the hull is taken
    once, over the last fold.  values holds one finite value per point of
    the space."""
    values = point_values(values, "values", len(space))

    def fold(parts):
        return [_staircase(*map(np.concatenate, zip(*parts)))]
    parts, waiting = [(np.zeros(0), np.zeros(0))], 0
    for i, j, d in space.pair_scan(members).blocks:
        parts.append(_staircase(d, np.abs(values[i] - values[j])))
        waiting += len(parts[-1][0])
        if waiting > space_mod.BLOCK_ENTRIES:
            parts, waiting = fold(parts), 0
    return least_concave_majorant(*fold(parts)[0], space.diameter())


def fit_lipschitz(space, rho):
    """Fit the Lipschitz constant of the radius field and clamp it at 1
    (the regularity theory assumes L >= 1).  Stores the raw and the clamped
    value on the field, with the exact mode and the pair count of the scan;
    returns the clamped one."""
    raw, pairs = max_gap_ratio(space, rho.values, 1.0)
    rho.raw_lipschitz = raw
    rho.lipschitz_L = max(1.0, raw)
    rho.lipschitz_mode, rho.lipschitz_pairs = "exact", pairs
    return rho.lipschitz_L


def fit_holder(space, rho, gamma):
    """Fit the gamma-Holder coefficient of the radius field."""
    coeff = max_gap_ratio(space, rho.values, gamma)[0]
    rho.holder_fits[float(gamma)] = coeff
    return coeff


def fit_radius_modulus(space, rho):
    """Concave majorant of the |rho(x)-rho(y)| vs d(x,y) scatter, capped at
    the diameter so it can be normalized."""
    return gap_majorant(space, rho.values).capped(space.diameter())


# -- parameter gates ---------------------------------------------------------------


def series_ratio(alpha, L, epsilon, beta, delta, gamma=1.0):
    """Term ratio of the fixed-point series while the normalized-modulus
    iterates grow like L^j t: L^(gamma delta) |alpha| (1-epsilon)^(-beta delta)
    (at L = 1 the ratio once they are capped at the diameter); inf at
    L < 0, whose fractional powers are complex.  An epsilon outside its
    domain is refused (see check_parameters)."""
    check_parameters(epsilon=epsilon)
    if L < 0.0:
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

    to_dict = report_dict


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
    A parameter outside its domain (see check_parameters) is refused; an
    L <= 0 fails the first condition.
    """
    check_parameters(alpha=alpha, L=L, epsilon=epsilon, beta=beta, delta=delta,
                     **({} if lam is None else {"lam": lam}))
    a = abs(alpha)
    conds = {"alpha_below_inverse_lipschitz": L > 0 and a < 1.0 / L,
             "epsilon_window": epsilon < 1.0 - L * a}
    if a == 0.0:
        beta_max = math.inf
    elif 0.0 < L * a < 1.0:
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

    ok: bool   # the window holds and no point violates a bound
    lambda_window_ok: bool
    lambda_cap: float
    lower_violations: list
    upper_violations: list
    lam: float
    beta: float
    epsilon: float

    to_dict = report_dict


def check_radius_bounds(space, rho, lam, beta, epsilon):
    """Verify the two-sided radius restriction per interior point.

    A lambda outside its admissibility window (0, max_lambda] is recorded
    as a gate failure but the pointwise check still runs."""
    d = space.boundary_distances()
    interior = space.interior_indices
    v = point_values(rho, "radius", len(space))
    lam_cap = max_lambda(space.ell(), beta, epsilon)
    window_ok = 0.0 < lam <= lam_cap
    lower = lam * d[interior] ** beta
    upper = epsilon * d[interior]
    low_bad = [int(i) for i in interior[v[interior] < lower]]
    up_bad = [int(i) for i in interior[v[interior] > upper]]
    return RadiusBoundsReport(window_ok and not low_bad and not up_bad, window_ok,
                              lam_cap, low_bad, up_bad, lam, beta, epsilon)


@dataclass
class HypothesisReport:
    """Every hypothesis of the closed-form Holder bound on one (space, rho),
    with the provenance of L: the fit's exact scan, the analytic bound of a
    scaled boundary distance, or supplied."""

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
        return report_dict(self, ("L_mode",))


def check_hypotheses(space, rho, alpha, epsilon, beta, lam, delta=1.0,
                     L=None):
    """Admissibility of rho, lambda dist^beta <= rho <= epsilon dist and the
    parameter gate at L: the one given, else rho's own (supplied, fitted or
    analytic), else a fit.  A parameter outside its domain is refused
    before any of them (see check_parameters)."""
    check_parameters(alpha=alpha, epsilon=epsilon, beta=beta, lam=lam,
                     delta=delta, **({} if L is None else {"L": L}))
    admissible = validate_admissible(space, rho)
    bounds = check_radius_bounds(space, rho, lam, beta, epsilon)
    L_mode = "supplied"
    if L is None:
        L = rho.lipschitz_L or fit_lipschitz(space, rho)
        L_mode = rho.lipschitz_mode
    gate = validate_parameters(alpha, L, epsilon, beta, lam, space.ell(), delta)
    return HypothesisReport(admissible, bounds, gate, L_mode)


# -- exhaustion ------------------------------------------------------------------


def exhaustion(space, epsilon, m):
    """K_m: interior points at boundary distance >= (1-epsilon)^m.  Nested
    and increasing in m; may be empty for small m (that is reported by the
    caller, not an error)."""
    check_parameters(epsilon=epsilon, m=m)
    d = space.boundary_distances()
    try:
        cut = (1.0 - epsilon) ** m
    except OverflowError:  # an integer m past the float range: 0 < 1 - epsilon < 1
        cut = 0.0
    mask = (d >= cut) & ~space.boundary_mask
    return np.flatnonzero(mask)


# -- file format -----------------------------------------------------------------


def read_radius_csv(space, path):
    """Radius file: header id,rho; ids must match the space."""
    return RadiusField(read_id_csv(space, path, "rho"))


def write_radius_csv(space, rho, path):
    write_id_csv(space, path, "rho", rho.values)
