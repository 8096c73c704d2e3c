"""Small-radius expansions of the averaging operators on Euclidean lattices.

For a C^2 function f the ball mean exceeds f(x) by rho^2 * lap(f)/(2(n+2))
to leading order, and the ball midrange by rho^2 * lap_inf(f)/(2 |grad f|^2)
whenever the gradient does not vanish; the alpha-blend of the two
quotients reproduces the p-laplacian combination under
alpha = (p-2)/(p+n), vanishing exactly at p-harmonic points.  The
expansion_* functions measure those quotients on uniform lattices with
radii snapped to whole lattice steps (so the discrete sup/inf hit the
continuum extremal points for axis-extremal functions) and Richardson-
extrapolate the radius sequence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SpaceFormatError

GRID_FINENESS = 16  # lattice step <= smallest radius / 16 (the default step)
# radii whose largest ball sits in a cube of more lattice offsets than this
# are refused before any ball is built; the default radii in three
# dimensions ask for 257^3, about 1.7e7
CUBE_POINTS_LIMIT = 10 ** 8


@dataclass
class SmoothTestFunction:
    """Closed-form value/gradient/hessian evaluators on R^n."""

    name: str
    dim: int
    value: object      # (m, n) -> (m,)
    gradient: object   # (n,) -> (n,)
    hessian: object    # (n,) -> (n, n)

    def laplacian(self, x):
        return float(np.trace(self.hessian(np.asarray(x, dtype=float))))

    def infinity_laplacian(self, x):
        """Sum over i,j of f_i f_j f_ij (the un-normalized form)."""
        x = np.asarray(x, dtype=float)
        g = self.gradient(x)
        return float(g @ self.hessian(x) @ g)

    def self_check(self, x, step=1e-4, rtol=1e-6):
        """Finite-difference consistency of gradient and hessian."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        g = np.asarray(self.gradient(x), dtype=float)
        h = np.asarray(self.hessian(x), dtype=float)
        scale = max(1.0, float(np.abs(g).max()), float(np.abs(h).max()))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            # an overflowed value is reported below, not warned about here
            with np.errstate(over="ignore", invalid="ignore"):
                fd = (self.value((x + e)[None, :])[0]
                      - self.value((x - e)[None, :])[0]) / (2 * step)
            # not (... <= tol): a nan difference (an overflowed value) fails
            if not abs(fd - g[i]) <= rtol * scale:
                raise SpaceFormatError(
                    f"{self.name}: gradient[{i}] inconsistent with finite differences")
            gp = np.asarray(self.gradient(x + e), dtype=float)
            gm = np.asarray(self.gradient(x - e), dtype=float)
            fd_row = (gp - gm) / (2 * step)
            if not np.abs(fd_row - h[i]).max() <= rtol * scale:
                raise SpaceFormatError(
                    f"{self.name}: hessian row {i} inconsistent with finite differences")
        return True


def _sq_norm(n):
    return SmoothTestFunction(
        name="sq_norm", dim=n,
        value=lambda X: (np.asarray(X, dtype=float) ** 2).sum(axis=1),
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        hessian=lambda x: 2.0 * np.eye(n),
    )


def _linear(n):
    return SmoothTestFunction(
        name="linear", dim=n,
        value=lambda X: np.asarray(X, dtype=float)[:, 0],
        gradient=lambda x: np.eye(n)[0],
        hessian=lambda x: np.zeros((n, n)),
    )


def _saddle(n):
    if n != 2:
        raise SpaceFormatError("the saddle test function is two-dimensional")

    def hess(x):
        return np.array([[2.0, 0.0], [0.0, -2.0]])

    return SmoothTestFunction(
        name="saddle", dim=2,
        value=lambda X: np.asarray(X, dtype=float)[:, 0] ** 2
        - np.asarray(X, dtype=float)[:, 1] ** 2,
        gradient=lambda x: np.array([2.0 * x[0], -2.0 * x[1]]),
        hessian=hess,
    )


def _cubic_harmonic(n):
    if n != 2:
        raise SpaceFormatError("the cubic harmonic test function is two-dimensional")
    return SmoothTestFunction(
        name="cubic_harmonic", dim=2,
        value=lambda X: np.asarray(X, dtype=float)[:, 0] ** 3
        - 3.0 * np.asarray(X, dtype=float)[:, 0] * np.asarray(X, dtype=float)[:, 1] ** 2,
        gradient=lambda x: np.array([3.0 * x[0] ** 2 - 3.0 * x[1] ** 2,
                                     -6.0 * x[0] * x[1]]),
        hessian=lambda x: np.array([[6.0 * x[0], -6.0 * x[1]],
                                    [-6.0 * x[1], -6.0 * x[0]]]),
    )


CATALOG = {
    "sq_norm": _sq_norm,
    "linear": _linear,
    "saddle": _saddle,
    "cubic_harmonic": _cubic_harmonic,
}


def test_function(name, n):
    try:
        return CATALOG[name](n)
    except KeyError as exc:
        raise SpaceFormatError(
            f"unknown test function {name!r}; catalog: {sorted(CATALOG)}") from exc


def alpha_from_p(p, n):
    """The blend weight matching the p-laplacian: (p-2)/(p+n); p=2 -> 0
    (plain mean / usual laplacian), p=infinity -> 1 (midrange only)."""
    if p == math.inf:
        return 1.0
    if not p > 1:
        raise SpaceFormatError(f"p must be > 1 or infinity, got {p}")
    return (p - 2.0) / (p + n)


@dataclass
class ExpansionResult:
    mode: str
    radii: list
    quotients: list
    extrapolated: float
    predicted: float
    relative_error: float
    h: float
    floor_estimate: float
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def richardson_limit(step_ratio, values):
    """Repeated Richardson elimination; values ordered coarse to fine."""
    level = list(values)
    n = len(level)
    if n == 1:
        return level[0]
    for m in range(1, n):
        mult = step_ratio ** m
        level = [(mult * level[i + 1] - level[i]) / (mult - 1.0)
                 for i in range(len(level) - 1)]
    return level[0]


def _prepare(f, x, radii, h):
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise SpaceFormatError(f"point has dimension {x.shape}, function needs {f.dim}")
    radii = sorted((float(r) for r in radii), reverse=True)
    if not (np.isfinite(x).all() and np.isfinite(radii).all()):
        raise SpaceFormatError(f"point {x.tolist()} and radii {radii} must be finite")
    if len(radii) < 2 or radii[-1] <= 0:
        raise SpaceFormatError("need at least two positive radii")
    if h is None:
        h = radii[-1] / GRID_FINENESS
    if h > radii[-1] / GRID_FINENESS * (1 + 1e-12):
        raise SpaceFormatError(
            f"lattice step {h} too coarse: need h <= min radius / {GRID_FINENESS}")
    with np.errstate(divide="ignore", over="ignore"):
        cube = (2.0 * np.floor(np.float64(radii[0]) / h + 1e-9) + 1.0) ** f.dim
    if not cube <= CUBE_POINTS_LIMIT:
        raise SpaceFormatError(
            f"radii {radii} ask for a cube of {cube:.3g} lattice points about "
            f"the largest ball (lattice step {h:.3g}), over the limit of "
            f"{CUBE_POINTS_LIMIT:.0e}")
    # snap radii down to whole lattice steps (keeps discrete extrema exact)
    snapped = [math.floor(r / h + 1e-9) * h for r in radii]
    ratios = [snapped[i] / snapped[i + 1] for i in range(len(snapped) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise SpaceFormatError("radii must form a geometric progression")
    f.self_check(x)
    return x, snapped, h


def _lattice_ball(x, rho, h, dim):
    """The points x + h k of the ball, k integer with |k| <= rho / h, in
    the order of the raveled cube of offsets (the first axis slowest),
    built one slab of the first axis at a time."""
    k_max = int(math.floor(rho / h + 1e-9))
    axis = np.arange(-k_max, k_max + 1)
    # the offsets of one slab, besides its first coordinate
    rest = np.zeros((1, 0), axis.dtype) if dim == 1 else np.stack(
        [m.ravel() for m in np.meshgrid(*[axis] * (dim - 1), indexing="ij")], axis=1)
    rest_sq = (rest * rest).sum(axis=1)
    slabs = []
    for i in axis:
        inside = rest[i * i + rest_sq <= k_max * k_max + 1e-9]
        slabs.append(x[None, :] + h * np.column_stack(
            [np.full(len(inside), i), inside]))
    return np.concatenate(slabs)


def _quotients(f, x, radii, h, kinds):
    """{kind: [(the kind's reduction of f over the ball - f(x)) / rho^2 per
    radius]} for kinds among "mean" and "midrange": each lattice ball is
    built, and f evaluated on it, once."""
    fx = f.value(x[None, :])[0]
    out = {kind: [] for kind in kinds}
    for rho in radii:
        vals = f.value(_lattice_ball(x, rho, h, f.dim))
        for kind in kinds:
            reduced = vals.mean() if kind == "mean" else 0.5 * (vals.max() + vals.min())
            out[kind].append(float((reduced - fx) / rho ** 2))
    return out


def _extrapolate(radii, quotients):
    # radii arrive descending, a geometric progression (see _prepare):
    # values run coarse (largest rho) to fine; the remainder is even in
    # rho, so eliminate powers of rho^2
    return richardson_limit((radii[0] / radii[1]) ** 2, list(quotients))


def _expansion(mode, f, x, radii, h, alpha=None, details=None):
    """The ExpansionResult of mode "mean", "midrange" or "p", the
    alpha-blend of the two, whose details add both quotient lists.  The
    midrange and the blend refuse a point with vanishing gradient (their
    prediction needs |grad f| > 0)."""
    x, radii, h = _prepare(f, x, radii, h)
    if mode != "mean":
        g = np.asarray(f.gradient(x), dtype=float)
        g2 = float(g @ g)
        if g2 <= 1e-16:
            raise SpaceFormatError(f"{'blend' if mode == 'p' else mode} expansion "
                                   "needs a nonvanishing gradient at the point")
    q = _quotients(f, x, radii, h, ("mean", "midrange") if mode == "p" else (mode,))
    if mode == "mean":
        quotients, predicted = q["mean"], f.laplacian(x) / (2.0 * (f.dim + 2.0))
    elif mode == "midrange":
        quotients, predicted = q["midrange"], f.infinity_laplacian(x) / (2.0 * g2)
    else:
        quotients = [alpha * qm + (1.0 - alpha) * qa
                     for qm, qa in zip(q["midrange"], q["mean"])]
        predicted = alpha * f.infinity_laplacian(x) / (2.0 * g2) \
            + (1.0 - alpha) * f.laplacian(x) / (2.0 * (f.dim + 2.0))
        details = {**details, "mean_quotients": q["mean"],
                   "midrange_quotients": q["midrange"]}
    extrap = _extrapolate(radii, quotients)
    floor = h / min(radii) if mode == "mean" else h / min(radii) ** 2
    rel = abs(extrap) if predicted == 0.0 else \
        abs(extrap - predicted) / abs(predicted)
    return ExpansionResult(mode, radii, quotients, extrap, predicted, rel, h,
                           floor, details or {})


def expansion_mean(f, x, radii, h=None):
    """Mean-expansion quotients and their limit vs lap(f)/(2(n+2))."""
    return _expansion("mean", f, x, radii, h)


def expansion_midrange(f, x, radii, h=None):
    """Midrange-expansion quotients vs lap_inf(f)/(2 |grad f|^2); refuses
    points with vanishing gradient."""
    return _expansion("midrange", f, x, radii, h)


def expansion_p(f, x, p, n, radii, h=None):
    """Blend-expansion quotients for the p-laplacian combination.

    The per-radius quotient is exactly the alpha-affine combination of the
    mean and midrange quotients (computed from the same lattice balls);
    the predicted limit vanishes exactly at p-harmonic points.
    """
    alpha = alpha_from_p(p, n)
    return _expansion("p", f, x, radii, h, alpha, {"p": p, "alpha": alpha})
