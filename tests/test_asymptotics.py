import math

import numpy as np
import pytest

from pharmonious import (SmoothTestFunction, SpaceFormatError, alpha_from_p,
                         expansion_mean, expansion_midrange, expansion_p)
from pharmonious import asymptotics
from pharmonious import test_function as catalog_function
from pharmonious.asymptotics import richardson_limit

RADII = [0.4, 0.2, 0.1, 0.05]


# -- the p <-> alpha map ---------------------------------------------------------


def test_alpha_p_two_is_zero():
    for n in (1, 2, 3, 7):
        assert alpha_from_p(2.0, n) == 0.0


def test_alpha_p_four_n_two():
    assert alpha_from_p(4.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_alpha_p_infinity_is_one():
    assert alpha_from_p(math.inf, 2) == 1.0


def test_alpha_rejects_small_p():
    with pytest.raises(SpaceFormatError):
        alpha_from_p(1.0, 2)
    with pytest.raises(SpaceFormatError):
        alpha_from_p(0.5, 3)


# -- the catalog ----------------------------------------------------------------


@pytest.mark.parametrize("name,n", [("sq_norm", 2), ("sq_norm", 3),
                                    ("linear", 2), ("saddle", 2),
                                    ("cubic_harmonic", 2)])
def test_catalog_self_consistency(name, n):
    f = catalog_function(name, n)
    x = np.full(n, 0.7)
    assert f.self_check(x)


def test_catalog_unknown_name():
    with pytest.raises(SpaceFormatError, match="catalog"):
        catalog_function("nope", 2)


def test_derivative_values_sq_norm():
    f = catalog_function("sq_norm", 2)
    x = np.array([1.0, 0.0])
    assert f.laplacian(x) == 4.0
    assert f.infinity_laplacian(x) == 8.0   # 8 |x|^2 at |x| = 1


def test_cubic_harmonic_is_harmonic():
    f = catalog_function("cubic_harmonic", 2)
    for x in ([1.0, 0.3], [0.5, -0.4]):
        assert abs(f.laplacian(np.array(x))) < 1e-12


# -- richardson -----------------------------------------------------------------


def test_richardson_eliminates_leading_order():
    # q(rho) = 1 + rho^2 at rho ratio 2: one elimination is exact
    rhos = [0.4, 0.2, 0.1]
    vals = [1 + r ** 2 for r in rhos]
    assert richardson_limit(4.0, vals) == pytest.approx(1.0, abs=1e-12)


def test_richardson_of_one_value_is_that_value():
    assert richardson_limit(4.0, [0.3]) == 0.3


# -- expansions ------------------------------------------------------------------


def test_mean_expansion_r1_square():
    f = catalog_function("sq_norm", 1)
    res = expansion_mean(f, np.array([0.3]), RADII)
    # predicted limit 2/(2*3) = 1/3; analytic mean excess is rho^2/3
    assert res.predicted == pytest.approx(1.0 / 3.0, abs=1e-15)
    for q, rho in zip(res.quotients, res.radii):
        # exact discrete oracle: the lattice average of (kh)^2 over
        # k = -P..P is h^2 P(P+1)/3, so the quotient is (P+1)/(3P)
        P = round(rho / res.h)
        assert q == pytest.approx((P + 1) / (3 * P), rel=1e-12)
    # the large-radius quotient is within h/rho of the continuum value
    assert max(res.quotients, key=lambda q: -abs(q - 1 / 3)) \
        == pytest.approx(1 / 3, rel=0.01)


def test_mean_expansion_r2_square():
    f = catalog_function("sq_norm", 2)
    res = expansion_mean(f, np.array([1.0, 0.0]), RADII)
    assert res.predicted == 0.5
    assert res.relative_error < 0.02


def test_mean_expansion_linear_zero():
    f = catalog_function("linear", 2)
    res = expansion_mean(f, np.array([0.2, 0.1]), RADII)
    assert res.predicted == 0.0
    # symmetric lattice balls average linear functions exactly
    assert all(abs(q) < 1e-12 for q in res.quotients)


def test_mean_expansion_saddle_zero():
    f = catalog_function("saddle", 2)
    res = expansion_mean(f, np.array([1.0, 0.5]), RADII)
    assert res.predicted == 0.0
    assert abs(res.extrapolated) < 5e-3


def test_midrange_expansion_r2_square():
    f = catalog_function("sq_norm", 2)
    res = expansion_midrange(f, np.array([1.0, 0.0]), RADII)
    # lap_inf/(2 |grad|^2) = 8 / 8 = 1; lattice-aligned radii are exact
    assert res.predicted == 1.0
    assert res.relative_error < 1e-9


def test_midrange_refuses_vanishing_gradient():
    f = catalog_function("sq_norm", 2)
    with pytest.raises(SpaceFormatError, match="gradient"):
        expansion_midrange(f, np.zeros(2), RADII)


def test_midrange_linear_zero():
    f = catalog_function("linear", 2)
    res = expansion_midrange(f, np.array([0.0, 0.0]), RADII)
    assert res.predicted == 0.0
    assert all(abs(q) < 1e-12 for q in res.quotients)


def test_p_expansion_reduces_to_mean_at_p_two():
    f = catalog_function("sq_norm", 2)
    x = np.array([1.0, 0.0])
    res_p = expansion_p(f, x, 2.0, 2, RADII)
    res_m = expansion_mean(f, x, RADII)
    assert res_p.quotients == res_m.quotients
    assert res_p.predicted == res_m.predicted


def test_p_expansion_p4_combination():
    f = catalog_function("sq_norm", 2)
    res = expansion_p(f, np.array([1.0, 0.0]), 4.0, 2, RADII)
    assert res.predicted == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert res.relative_error < 0.02


def test_p_expansion_affine_identity():
    f = catalog_function("sq_norm", 2)
    res = expansion_p(f, np.array([1.0, 0.0]), 4.0, 2, RADII)
    alpha = res.details["alpha"]
    for q, qm, qs in zip(res.quotients, res.details["mean_quotients"],
                         res.details["midrange_quotients"]):
        assert q == alpha * qs + (1 - alpha) * qm


def test_p_expansion_linear_is_p_harmonic():
    f = catalog_function("linear", 2)
    for p in (2.0, 4.0, 11.0):
        res = expansion_p(f, np.array([0.3, -0.2]), p, 2, RADII)
        assert res.predicted == 0.0
        assert abs(res.extrapolated) < 1e-12


def test_p_expansion_vanishes_iff_p_laplacian_core_does():
    # the predicted limit is proportional to the p-laplacian core
    f = catalog_function("sq_norm", 2)
    x = np.array([1.0, 0.0])
    for p in (2.0, 3.0, 4.0):
        res = expansion_p(f, x, p, 2, RADII)
        g = f.gradient(x)
        core = f.laplacian(x) + (p - 2.0) * f.infinity_laplacian(x) / float(g @ g)
        assert res.predicted == pytest.approx(core / (2 * (p + 2)), rel=1e-12)


def test_quotient_radius_independence_for_quadratics():
    # log-log slope of quotient vs radius is near zero for quadratic f
    f = catalog_function("sq_norm", 2)
    res = expansion_mean(f, np.array([1.0, 0.0]), RADII, h=0.05 / 32)
    qs = np.array(res.quotients)
    rs = np.array(res.radii)
    slope = np.polyfit(np.log(rs), np.log(qs), 1)[0]
    assert abs(slope) < 0.01


def test_grid_fineness_enforced():
    f = catalog_function("sq_norm", 2)
    with pytest.raises(SpaceFormatError, match="coarse"):
        expansion_mean(f, np.array([1.0, 0.0]), RADII, h=0.05 / 4)


def test_nongeometric_radii_rejected():
    f = catalog_function("sq_norm", 2)
    with pytest.raises(SpaceFormatError, match="geometric"):
        expansion_mean(f, np.array([1.0, 0.0]), [0.4, 0.3, 0.1, 0.05])


def test_nongeometric_radii_rejected_before_any_ball(monkeypatch):
    # every lattice ball was built first: 492 MB traced in three dimensions
    monkeypatch.setattr(asymptotics, "_lattice_ball", None)  # a call fails
    f = catalog_function("sq_norm", 3)
    with pytest.raises(SpaceFormatError, match="geometric"):
        expansion_mean(f, np.array([1.0, 0.0, 0.0]), [0.4, 0.3, 0.1, 0.05])


def _squared(gradient, hessian):
    """x^2 on the line with the given (possibly wrong) derivatives."""
    return SmoothTestFunction(name="squared", dim=1,
                              value=lambda X: np.asarray(X, dtype=float)[:, 0] ** 2,
                              gradient=gradient, hessian=hessian)


@pytest.mark.parametrize("call, message", [
    (lambda: _squared(lambda x: 0.0 * x, lambda x: 2.0 * np.eye(1)).self_check([0.5]),
     r"squared: gradient\[0\] inconsistent with finite differences"),
    (lambda: _squared(lambda x: 2.0 * x, lambda x: np.zeros((1, 1))).self_check([0.5]),
     "squared: hessian row 0 inconsistent with finite differences"),
    (lambda: catalog_function("saddle", 3), "the saddle test function is two-dimensional"),
    (lambda: catalog_function("cubic_harmonic", 3),
     "the cubic harmonic test function is two-dimensional"),
    (lambda: expansion_mean(catalog_function("sq_norm", 2), [0.1], RADII),
     r"point has dimension \(1,\), function needs 2"),
    (lambda: expansion_mean(catalog_function("sq_norm", 2), [0.1, 0.2], [0.4]),
     "need at least two positive radii"),
    (lambda: expansion_mean(catalog_function("sq_norm", 2), [math.inf, 0.0], RADII),
     r"point \[inf, 0.0\] and radii \[0.4, 0.2, 0.1, 0.05\] must be finite"),
    (lambda: expansion_p(catalog_function("sq_norm", 2), [0.0, 0.0], 3.0, 2, RADII),
     "blend expansion needs a nonvanishing gradient at the point")],
    ids=["wrong-gradient", "wrong-hessian", "saddle-dimension",
         "cubic-dimension", "point-dimension", "one-radius", "infinite-point",
         "blend-gradient"])
def test_asymptotics_refusals(call, message):
    with pytest.raises(SpaceFormatError, match=message):
        call()
