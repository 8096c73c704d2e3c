import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonious import (BallTable, Modulus, RadiusField, Space, SpaceFormatError,
                         check_hypotheses, check_radius_bounds, disk_grid,
                         exhaustion, fit_holder,
                         fit_lipschitz, fit_radius_modulus,
                         interval_grid, iterate_modulus, lattice_graph,
                         least_concave_majorant, normalize_modulus,
                         path_graph, read_radius_csv, square_grid,
                         validate_admissible, validate_parameters,
                         write_radius_csv)
from pharmonious import space as space_mod
from pharmonious.radius import _staircase, gap_majorant, max_gap_ratio

import reference as ref
from conftest import disk_cloud

# -- admissibility ---------------------------------------------------------------


def test_radius_field_length_is_its_point_count(grid1d):
    assert len(RadiusField.scaled_boundary_distance(grid1d, 0.4)) == len(grid1d)


def test_half_distance_field_is_admissible(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.5)
    assert validate_admissible(grid1d, rho).ok


def test_double_distance_field_fails_everywhere(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 2.0)
    rep = validate_admissible(grid1d, rho)
    assert not rep.ok
    assert len(rep.exceeds_boundary_distance) == len(grid1d.interior_indices)


def test_zero_interior_point_is_listed(grid1d):
    values = 0.5 * grid1d.boundary_distances()
    values = values.copy()
    values[100] = 0.0
    rep = validate_admissible(grid1d, RadiusField(values))
    assert not rep.ok
    assert rep.nonpositive_interior == [100]


def test_nonzero_boundary_value_is_listed(grid1d):
    values = 0.5 * grid1d.boundary_distances()
    values = values.copy()
    values[0] = 0.1
    rep = validate_admissible(grid1d, RadiusField(values))
    assert not rep.ok
    assert rep.nonzero_on_boundary == [0]


# -- Lipschitz / Holder fits --------------------------------------------------------


def test_constant_rho_clamps_to_one():
    sp = interval_grid(3)  # single interior point
    values = np.zeros(3)
    values[1] = 0.25
    rho = RadiusField(values)
    assert fit_lipschitz(sp, rho) == 1.0


def test_scaled_distance_fit_is_clamped(grid1d):
    # oracle: pairwise brute force on a subsample
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.25)
    L = fit_lipschitz(grid1d, rho)
    sub = np.arange(0, len(grid1d), 8)
    best = 0.0
    for i in sub:
        for j in sub:
            if i != j:
                d = grid1d.distance(int(i), int(j))
                best = max(best, abs(rho[i] - rho[j]) / d)
    assert L == 1.0  # clamped
    assert abs(rho.raw_lipschitz - 0.25) < 1e-9
    assert rho.raw_lipschitz >= best - 1e-12


def test_steep_field_fit_on_path_graph():
    sp = path_graph(5)
    rho = RadiusField(np.array([0.0, 2.0, 4.0, 6.0, 0.0]))
    # oracle: brute force over all pairs
    best = max(abs(rho[i] - rho[j]) / sp.distance(i, j)
               for i in range(5) for j in range(5) if i != j)
    assert fit_lipschitz(sp, rho) == best == 6.0


@pytest.mark.parametrize("n", [17, 71], ids=["17-exact", "71-exact"])
def test_lipschitz_fit_records_scan_mode(n):
    # 71^2 = 5041 points: a fit of any size scans every pair
    sp = square_grid(n)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    fit_lipschitz(sp, rho)
    assert rho.lipschitz_mode == "exact"
    assert rho.lipschitz_pairs == len(sp) * (len(sp) - 1) // 2
    assert rho.raw_lipschitz == pytest.approx(0.4, rel=1e-12)


@pytest.fixture(scope="module", params=["square", "disk", "lattice", "path", "cloud"])
def analytic_space(request):
    return {"square": lambda: square_grid(33), "disk": lambda: disk_grid(33),
            "lattice": lambda: lattice_graph(17, 17),
            "path": lambda: path_graph(41),
            "cloud": lambda: disk_cloud(1500, 0)}[request.param]()


@pytest.mark.parametrize("factor", [0.25, 0.4, 1.0])
@pytest.mark.parametrize("power", [1.0, 2.0])
def test_analytic_lipschitz_bound_dominates_the_exact_scan(analytic_space, factor,
                                                           power, monkeypatch):
    # dist(., boundary) is 1-Lipschitz, so factor * dist**power has slope at
    # most factor * power * ell**(power - 1); the exact scan read
    # 0.40000000000000036 at factor 0.4 on square_grid(33), hence the HAIR
    sp = analytic_space
    rho = RadiusField.scaled_boundary_distance(sp, factor, power)
    exact = max_gap_ratio(sp, rho.values)[0]
    assert rho.lipschitz_mode == "analytic" and rho.lipschitz_pairs == 0
    assert exact <= rho.raw_lipschitz <= factor * power * sp.ell() ** (power - 1.0) \
        * space_mod.HAIR
    assert rho.lipschitz_L == max(1.0, rho.raw_lipschitz)

    def no_scan(*args, **kwargs):
        raise AssertionError("a pair scan ran")
    monkeypatch.setattr(Space, "pair_scan", no_scan)
    hyp = check_hypotheses(sp, rho, 0.3, 0.5, 1.0, 0.4)
    assert hyp.L_mode == "analytic" and hyp.gate.L == rho.lipschitz_L


def test_root_powers_and_plain_radius_fields_still_scan():
    sp = square_grid(17)
    scaled = RadiusField.scaled_boundary_distance(sp, 0.4)
    for rho in (RadiusField.scaled_boundary_distance(sp, 0.4, 0.5),
                RadiusField(scaled.values)):
        assert rho.lipschitz_mode is None
        hyp = check_hypotheses(sp, rho, 0.3, 0.5, 1.0, 0.4)
        assert hyp.L_mode == "exact"
        assert rho.lipschitz_pairs == len(sp) * (len(sp) - 1) // 2
    # an explicit fit of an analytic field scans and records its mode
    fit_lipschitz(sp, scaled)
    assert scaled.lipschitz_mode == "exact" and scaled.lipschitz_pairs > 0


BAD_SCALINGS = [(math.inf, 1.0, "rho_factor must be a finite number, got inf"),
                (math.nan, 1.0, "rho_factor must be a finite number, got nan"),
                (0.4, math.inf, "rho_power must be a finite number in [0, inf), got inf"),
                (0.4, math.nan, "rho_power must be a finite number in [0, inf), got nan"),
                (0.4, -1.0, "rho_power must be a finite number in [0, inf), got -1.0")]
BAD_SCALING_IDS = ["inf-factor", "nan-factor", "inf-power", "nan-power", "negative-power"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor, power, message", BAD_SCALINGS, ids=BAD_SCALING_IDS)
def test_scaled_boundary_distance_refuses_a_bad_scaling(factor, power, message):
    # factor * d ** power ran first: an inf factor times the boundary's
    # zeros and a negative power of them warned, before the radius was
    # refused as not finite (or, at an inf power, passed as all zeros)
    with pytest.raises(SpaceFormatError) as info:
        RadiusField.scaled_boundary_distance(square_grid(9), factor, power)
    assert str(info.value) == message


@pytest.fixture(params=["path", "lattice", "random", "two_components",
                        "parallel_edges"])
def graph_and_values(request, random_graph):
    sp = {"path": lambda: path_graph(41),
          "lattice": lambda: lattice_graph(13, 11),
          "random": lambda: random_graph(1),
          "two_components": lambda: random_graph(2, split=True),
          "parallel_edges": lambda: random_graph(3, parallel=True),
          }[request.param]()
    noise = np.random.default_rng(9).uniform(0.0, 1.0, len(sp))
    return sp, [0.4 * sp.boundary_distances(), noise]


def test_graph_lipschitz_scan_equals_full_pair_scan(graph_and_values):
    # the edge scan: a shortest path's edges bound every pair's ratio
    sp, fields = graph_and_values
    n = len(sp)
    for values in fields:
        assert max_gap_ratio(sp, values, 1.0) == \
            (ref.max_ratio(sp, values, 1.0), n * (n - 1) // 2)


@pytest.mark.parametrize("fn", [max_gap_ratio, gap_majorant])
@pytest.mark.parametrize("values, message", [
    (np.r_[np.nan, np.zeros(32)], r"values is not finite at 1 points, first \[0\]"),
    (np.r_[np.zeros(32), np.inf], r"values is not finite at 1 points, first \[32\]"),
    (np.linspace(0.0, 1.0, 40), r"values of shape \(40,\) for a space of 33 points"),
    (np.linspace(0.0, 1.0, 20), r"values of shape \(20,\) for a space of 33 points")],
    ids=["nan", "inf", "too-long", "too-short"])
def test_gap_scans_refuse_bad_values(fn, values, message):
    # a NaN read as a ratio of 0.0, 40 values as 0.82, 20 as an IndexError
    with pytest.raises(SpaceFormatError, match=message):
        fn(interval_grid(33), values)


def test_graph_holder_fit_equals_full_pair_scan(graph_and_values):
    sp, fields = graph_and_values
    for values in fields:
        assert fit_holder(sp, RadiusField(values), 0.5) == \
            ref.max_ratio(sp, values, 0.5)


def test_holder_fit_records_coefficient(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.3)
    c = fit_holder(grid1d, rho, 0.5)
    assert c == rho.holder_fits[0.5]
    assert c > 0


# -- modulus algebra -----------------------------------------------------------------


def test_normalize_sub_identity_becomes_identity():
    omega = Modulus.linear(0.5, 1.0)
    normalized = normalize_modulus(omega, 1.0)
    for t in (0.0, 0.3, 0.7, 1.0):
        assert normalized(t) == t


def test_normalize_capped_lipschitz_is_fixed():
    omega = Modulus.capped_linear(2.0, 1.0)
    normalized = normalize_modulus(omega, 1.0)
    assert normalized(0.3) == 0.6
    assert normalized(0.7) == 1.0
    assert normalized(1.0) == 1.0


def test_normalize_sqrt_modulus():
    omega = Modulus.power(1.0, 0.5, 1.0)
    normalized = normalize_modulus(omega, 1.0)
    # omega(1) = 1 so the modulus is already normalized
    assert normalized(0.25) == 0.5
    assert normalized(1.0) == 1.0


def test_normalize_piecewise_linear_rescales_to_the_diameter():
    # not sub-identity (0.3 > 0.1): ys scale by diam / omega(diam) = 1 / 0.6
    omega = Modulus.from_breakpoints([0.0, 0.1, 1.0], [0.0, 0.3, 0.6])
    normalized = normalize_modulus(omega, 1.0)
    assert np.allclose(normalized.ys, [0.0, 0.5, 1.0], rtol=0, atol=1e-15)
    assert normalized(1.0) == 1.0


def test_normalize_continues_a_short_modulus_flat_to_the_diameter():
    # the last breakpoint, 0.5, lies below the diameter 1: the normalized
    # modulus gains a breakpoint at the diameter, its fixed point
    omega = Modulus.from_breakpoints([0.0, 0.5], [0.0, 1.0], 1.0)
    normalized = normalize_modulus(omega, 1.0)
    assert normalized.ts.tolist() == [0.0, 0.5, 1.0]
    assert normalized.ys.tolist() == [0.0, 1.0, 1.0]


def test_normalize_at_diameter_zero_is_the_identity():
    # a square root is no sub-identity on [0, 1]; at the diameter 0 it is
    # 0, and the rescaling diam / omega(diam) would be 0 / 0
    normalized = normalize_modulus(Modulus.power(1.0, 0.5, 1.0), 0.0)
    identity = Modulus.identity(0.0)
    assert [getattr(normalized, k) for k in Modulus.__slots__] == \
        [getattr(identity, k) for k in Modulus.__slots__]


def test_sub_identity_on_a_one_point_domain_and_at_coefficient_zero():
    # below exponent 1 a power lies above t near 0, unless its domain is
    # {0} or its coefficient is 0
    assert Modulus.power(2.0, 0.5, 0.0).is_sub_identity()
    assert Modulus.power(0.0, 0.5, 1.0).is_sub_identity()
    assert not Modulus.power(0.5, 0.5, 1.0).is_sub_identity()


def test_power_breakpoint_list_samples_the_domain_at_33_points():
    omega = Modulus.power(2.0, 0.5, 1.0, cap=1.5)
    ts, ys = np.array(omega.breakpoint_list()).T
    assert ts.tolist() == np.linspace(0.0, 1.0, 33).tolist()
    assert ys.tolist() == omega(ts).tolist()
    assert (ys[0], ys[8], ys[-1]) == (0.0, 1.0, 1.5)  # t = 0, 1/4 and 1


def test_normalize_rejects_oversized_modulus():
    omega = Modulus.linear(2.0, 1.0)  # omega(1) = 2 > diam
    with pytest.raises(SpaceFormatError, match="cap"):
        normalize_modulus(omega, 1.0)


@given(st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_hat_bounds_dominate_t_and_omega(t):
    omega = Modulus.capped_linear(3.0, 1.0)
    normalized = normalize_modulus(omega, 1.0)
    v = normalized(t)
    assert max(t, omega(t)) <= v + 1e-15
    assert v <= 1.0
    assert normalized(1.0) == 1.0


def test_iterate_zero_times_is_identity():
    normalized = Modulus.capped_linear(2.0, 1.0)
    assert iterate_modulus(normalized, 0, 0.37) == 0.37


def test_iterate_twice_doubles_twice():
    normalized = Modulus.capped_linear(2.0, 1.0)
    assert iterate_modulus(normalized, 2, 0.1) == 0.4


def test_iterate_five_times_caps_at_diameter():
    normalized = Modulus.capped_linear(2.0, 1.0)
    assert iterate_modulus(normalized, 5, 0.1) == 1.0


def test_iterate_rejects_out_of_domain():
    normalized = Modulus.capped_linear(2.0, 1.0)
    with pytest.raises(SpaceFormatError):
        iterate_modulus(normalized, 1, 1.5)


def test_iterate_monotone_in_t_and_n():
    normalized = Modulus.capped_linear(1.5, 1.0)
    ts = np.linspace(0, 1, 21)
    for n in range(4):
        vals = [iterate_modulus(normalized, n, t) for t in ts]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for t in ts:
        vals = [iterate_modulus(normalized, n, t) for n in range(6)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_iterate_composition_associativity():
    normalized = Modulus.capped_linear(1.5, 1.0)
    for t in (0.0, 0.1, 0.4, 1.0):
        for a, b in [(1, 2), (2, 3), (0, 4)]:
            inner = iterate_modulus(normalized, b, t)
            assert iterate_modulus(normalized, a + b, t) == iterate_modulus(normalized, a, inner)


def test_least_concave_majorant_covers_data(rng):
    d = rng.uniform(0.01, 1.0, size=200)
    g = rng.uniform(0.0, 0.5, size=200)
    omega = least_concave_majorant(d, g, 1.0)
    vals = omega(d)
    assert np.all(vals >= g - 1e-12)
    # concavity at breakpoints
    slopes = np.diff(omega.ys) / np.diff(omega.ts)
    assert np.all(np.diff(slopes) <= 1e-9)


def _sample(sp, n, seed):
    """n seeded distinct points of sp, ascending."""
    return np.sort(np.random.default_rng(seed).choice(len(sp), n, replace=False))


def test_sampled_majorant_does_not_depend_on_the_blocks():
    # every pair of a seeded sample of the disk's points: rho = d / 2 puts
    # hull points nearly on one line, where the hull's tests round
    # differently in a block than in the whole scatter
    sp = disk_grid(101)
    values = 0.5 * sp.boundary_distances()
    members = _sample(sp, 1200, 0)
    whole = least_concave_majorant(
        sp.distances(members, members), np.abs(values[members, None] - values[members]),
        sp.diameter())
    assert len(whole.ts) > 3
    omega = gap_majorant(sp, values, members)
    assert np.array_equal(omega.ts, whole.ts) and np.array_equal(omega.ys, whole.ys)


def test_exact_majorant_does_not_depend_on_the_blocks(monkeypatch):
    # nearly collinear hull points, scanned exactly: one block of every pair
    # against blocks of three rows (per-block hulls moved a breakpoint here)
    sp = disk_grid(41)
    values = 0.4 * sp.boundary_distances()
    every = np.arange(len(sp))
    whole = least_concave_majorant(
        sp.distances(every), np.abs(values[:, None] - values[None, :]), sp.diameter())
    assert len(whole.ts) > 3
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 3 * len(sp))
    omega = gap_majorant(sp, values)
    assert np.array_equal(omega.ts, whole.ts) and np.array_equal(omega.ys, whole.ys)


_scatter = st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]) | st.floats(0.0, 1.0),
                              st.sampled_from([-0.5, 0.0, 0.2, 0.4]) | st.floats(-1.0, 1.0)),
                    max_size=60)


@settings(max_examples=200)
@given(_scatter, st.lists(st.integers(0, 60), max_size=6), st.randoms(use_true_random=False))
def test_staircase_of_the_parts_is_the_staircase_of_the_whole(points, cuts, random):
    # ties in d and in the gap, zero distances and negative gaps included
    random.shuffle(points)
    ds = np.array([d for d, _ in points], dtype=float)
    gaps = np.array([g for _, g in points], dtype=float)
    parts = [_staircase(d, g) for d, g in zip(np.split(ds, sorted(cuts)),
                                             np.split(gaps, sorted(cuts)))]
    whole = _staircase(ds, gaps)
    joined = _staircase(*(np.concatenate(c) for c in zip(*parts)))
    assert all(np.array_equal(a, b) for a, b in zip(joined, whole))
    # the gaps rise strictly, but for the flat end's last point
    assert np.all(np.diff(whole[0]) > 0) and np.all(np.diff(whole[1][:-1]) > 0)
    assert np.all(np.diff(whole[1][-2:]) >= 0)


@pytest.mark.parametrize("ds, gaps, ts, ys", [
    ([0.5, 1, 2, 3], [0, 0, 0, 0], [0, 3, 6], [0, 0, 0]),
    ([0.5, 1, 2, 3, 4], [0, 1, 1, 2, 2], [0, 1, 3, 4, 6], [0, 1, 2, 2, 2]),
    ([1, 2, 3, 4, 5], [1, 1, 1, 0.5, 0.2], [0, 1, 3, 6], [0, 1, 1, 1]),
    ([0, 1, 1, 2, 3], [5, 0.5, 1, 1, -1], [0, 1, 2, 6], [0, 1, 1, 1])],
    ids=["zeros", "runs", "decreasing-tail", "zero-distance-and-repeats"])
def test_majorant_breakpoints_of_flat_runs(ds, gaps, ts, ys):
    # a run of equal gaps keeps its first point, and the last run its last,
    # where the flat end starts: the breakpoints the hull of every point has
    omega = least_concave_majorant(ds, gaps, 6.0)
    assert omega.ts.tolist() == ts and omega.ys.tolist() == ys


def test_disk_radius_modulus_passes_its_own_concavity_check():
    # this sample's scatter held the distances 0.21 and 0.21000000000000008
    # (as a draw of 1M pairs of the disk did); the hull's cross-product test
    # kept both, and the slope over that step rose above the slope before
    # it, so the majorant was not concave
    sp = disk_grid(101)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    members = _sample(sp, 2000, 2)
    omega = gap_majorant(sp, rho.values, members).capped(sp.diameter())
    slopes = np.diff(omega.ys) / np.diff(omega.ts)
    assert np.all(np.diff(slopes) <= 0)
    # above every pair, up to the rounding of interpolating a chord
    for i, j, d in sp.pair_scan(members).blocks:
        assert np.all(omega(d) >= np.abs(rho.values[i] - rho.values[j]) - 1e-15)


def test_exact_scans_hold_one_block_at_a_time():
    # 5,041 points, every pair scanned a block at a time: a fit held 2.3 MB
    # and a majorant 4.9 MB, against 203 MB for one distance matrix
    sp = square_grid(71)
    rho = RadiusField.scaled_boundary_distance(sp, 0.5)
    peaks = {}
    for name, call, limit in (("fit_lipschitz", lambda: fit_lipschitz(sp, rho), 6e6),
                              ("gap_majorant", lambda: gap_majorant(sp, rho.values), 10e6)):
        tracemalloc.start()
        try:
            call()
            peaks[name] = (tracemalloc.get_traced_memory()[1], limit)
        finally:
            tracemalloc.stop()
    assert rho.lipschitz_mode == "exact"
    assert all(peak < limit for peak, limit in peaks.values()), peaks


def test_fitted_radius_modulus_dominates_gaps(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.4)
    omega = fit_radius_modulus(grid1d, rho)  # exhaustive below the pair budget
    sub = np.arange(0, len(grid1d), 16)
    for i in sub[:10]:
        for j in sub:
            if i != j:
                d = grid1d.distance(int(i), int(j))
                assert abs(rho[i] - rho[j]) <= omega(min(d, omega.domain_end)) + 1e-9


# -- radius bounds and the lambda window -------------------------------------------


def test_radius_bounds_tight_pass(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.5)
    rep = check_radius_bounds(grid1d, rho, lam=0.5, beta=1.0, epsilon=0.5)
    assert rep.ok


def test_lambda_window_beta_two(grid1d):
    # ell = 0.5, beta = 2: the window cap is ell^(1-beta) * eps = 2 eps
    eps = 0.5
    rho = RadiusField(eps * grid1d.boundary_distances() ** 2)
    ok = check_radius_bounds(grid1d, rho, lam=2 * eps, beta=2.0, epsilon=eps)
    assert ok.lambda_window_ok
    bad = check_radius_bounds(grid1d, rho, lam=3 * eps, beta=2.0, epsilon=eps)
    assert not bad.lambda_window_ok
    assert bad.lambda_cap == 2 * eps


def test_constant_radius_violates_upper_bound_near_boundary(grid1d):
    interior = grid1d.interior_indices
    values = np.zeros(len(grid1d))
    values[interior] = 0.01
    rep = check_radius_bounds(grid1d, RadiusField(values), lam=0.1, beta=1.0,
                              epsilon=0.5)
    assert rep.upper_violations  # eps * dist < c near the boundary


# -- parameter gate ------------------------------------------------------------------


def test_gate_beta_window_value():
    gate = validate_parameters(0.3, 1.0, 0.5, 1.0, 0.4, 0.5, 1.0)
    assert gate.passed
    assert abs(gate.beta_max - math.log(10 / 3) / math.log(2)) < 1e-12
    assert abs(gate.beta_max - 1.736965594166206) < 1e-12


def test_gate_alpha_vs_lipschitz_fails():
    gate = validate_parameters(0.6, 2.0, 0.2, 1.0, 0.1, 0.5, 1.0)
    assert not gate.passed
    assert "alpha_below_inverse_lipschitz" in gate.failed_conditions


def test_gate_alpha_zero_beta_unbounded():
    gate = validate_parameters(0.0, 4.0, 0.5, 3.0, 0.4, 0.5, 1.0)
    assert gate.beta_max == math.inf
    assert gate.conditions["beta_window"]
    assert gate.passed


def test_gate_pass_implies_series_ratio_below_one(rng):
    for _ in range(300):
        alpha = rng.uniform(-0.9, 0.9)
        L = rng.uniform(1.0, 2.0)
        eps = rng.uniform(0.05, 0.9)
        beta = rng.uniform(1.0, 2.5)
        delta = rng.choice([0.5, 1.0])
        lam = rng.uniform(0.01, 1.0)
        gate = validate_parameters(alpha, L, eps, beta, lam, 0.5, delta)
        if gate.passed:
            assert gate.series_ratio < 1.0


@pytest.mark.parametrize("L", [0.0, -0.5, -1.0])
def test_gate_at_a_nonpositive_L_fails_in_real_numbers(L):
    # 1 / (L |alpha|) divided by zero or took the log of a negative number,
    # and a negative L to the power delta is complex
    gate = validate_parameters(0.3, L, 0.5, 1.0, 0.4, 0.5, 0.5)
    assert "alpha_below_inverse_lipschitz" in gate.failed_conditions
    assert gate.beta_max == 0.0
    assert gate.series_ratio == (0.0 if L == 0.0 else math.inf)


@pytest.mark.parametrize("delta", [math.nan, 0.0, -0.5, 1.5])
def test_gate_refuses_a_delta_outside_the_unit_interval(delta):
    with pytest.raises(SpaceFormatError) as info:
        validate_parameters(0.3, 1.0, 0.5, 1.0, 0.4, 0.5, delta)
    assert str(info.value) == f"delta must be a finite number in (0, 1], got {delta}"


def test_gate_records_equicontinuity_flag():
    gate = validate_parameters(0.3, 2.0, 0.3, 1.0, 0.2, 0.5, 1.0)
    # L = 2 fails the main gate at alpha = 0.3? 1/L = 0.5 > 0.3 passes;
    # epsilon < 1 - 0.6 = 0.4 passes. The L = 1 variant passes too.
    assert gate.equicontinuity_passed


# -- exhaustion and ball hulls -------------------------------------------------------


def _ball_hull(space, rho, members):
    """The union of the radius balls of members, as check_alpha_mean_modulus
    reads it off its table."""
    return np.unique(BallTable(space, rho, centers=members).indices)


def test_exhaustion_1d_first_two_levels(grid1d):
    k1 = exhaustion(grid1d, 0.5, 1)
    k2 = exhaustion(grid1d, 0.5, 2)
    assert list(grid1d.coords[k1, 0]) == [0.5]
    xs = grid1d.coords[k2, 0]
    assert xs.min() == 0.25 and xs.max() == 0.75
    assert set(k1) <= set(k2)


def test_exhaustion_eventually_everything(grid1d):
    km = exhaustion(grid1d, 0.5, 12)  # (1/2)^12 < h
    assert np.array_equal(km, grid1d.interior_indices)


def test_exhaustion_nested(grid1d):
    prev = set()
    for m in range(1, 10):
        cur = set(exhaustion(grid1d, 0.5, m))
        assert prev <= cur
        prev = cur


def test_rho_lower_bound_on_exhaustion(grid1d):
    # with rho = lambda * dist the infimum over K_m is >= lambda (1-eps)^m
    lam, eps = 0.4, 0.5
    rho = RadiusField.scaled_boundary_distance(grid1d, lam)
    for m in (1, 2, 3):
        members = exhaustion(grid1d, eps, m)
        assert rho.values[members].min() >= lam * (1 - eps) ** m


def test_hull_single_ball(grid1d):
    rho = RadiusField(np.zeros(len(grid1d)))
    rho.values.flags.writeable = True
    rho.values[128] = 0.2
    rho.values.flags.writeable = False
    members = _ball_hull(grid1d, rho, [128])
    xs = grid1d.coords[members, 0]
    assert xs.min() >= 0.3 - 1e-12 and xs.max() <= 0.7 + 1e-12
    assert len(members) == len(grid1d.ball(128, 0.2))


def test_hull_empty(grid1d, grid1d_rho):
    assert len(_ball_hull(grid1d, grid1d_rho, [])) == 0


def test_hull_monotone(grid1d, grid1d_rho):
    g1 = exhaustion(grid1d, 0.5, 1)
    g2 = exhaustion(grid1d, 0.5, 2)
    h1 = set(_ball_hull(grid1d, grid1d_rho, g1))
    h2 = set(_ball_hull(grid1d, grid1d_rho, g2))
    assert h1 <= h2


def test_hull_of_km_inside_next_level(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.5)  # eps = 0.5 bound
    for m in (1, 2, 3):
        km = exhaustion(grid1d, 0.5, m)
        knext = set(exhaustion(grid1d, 0.5, m + 1))
        assert set(_ball_hull(grid1d, rho, km)) <= knext


# -- files ------------------------------------------------------------------------


def test_radius_csv_round_trip(grid1d, grid1d_rho, tmp_path):
    path = tmp_path / "rho.csv"
    write_radius_csv(grid1d, grid1d_rho, path)
    back = read_radius_csv(grid1d, path)
    assert np.array_equal(back.values, grid1d_rho.values)


def test_radius_csv_rejects_bad_header(grid1d, tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("point,r\n0,0.1\n")
    with pytest.raises(SpaceFormatError, match="header"):
        read_radius_csv(grid1d, path)


def test_interior_connected_under_ball_overlap(grid1d, grid1d_rho):
    # the interior forms one component when points are joined whenever
    # their closed radius balls touch; with rho = eps * dist this needs
    # eps >= 1/2 (shallower fields deliberately freeze a near-boundary
    # layer that acts as effective Dirichlet data)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from pharmonious import square_grid

    sq = square_grid(17)
    for sp, rho in [(grid1d, RadiusField.scaled_boundary_distance(grid1d, 0.5)),
                    (sq, RadiusField.scaled_boundary_distance(sq, 0.5))]:
        interior = sp.interior_indices
        rows, cols = [], []
        for a, i in enumerate(interior):
            d = sp.distances_from(int(i))[interior]
            touch = np.flatnonzero(d <= rho[i] + rho.values[interior])
            rows.extend([a] * len(touch))
            cols.extend(touch.tolist())
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(len(interior), len(interior)))
        n_comp, _ = connected_components(adj, directed=False)
        assert n_comp == 1


def test_modulus_capped_inserts_crossing():
    omega = Modulus.from_breakpoints([0.0, 1.0], [0.0, 2.0])  # slope 2
    capped = omega.capped(1.0)
    assert capped(0.25) == 0.5
    assert capped(0.5) == 1.0   # crossing breakpoint hit exactly
    assert capped(0.8) == 1.0
    # analytic kinds cap through the closed form
    lin = Modulus.linear(2.0, 1.0).capped(1.0)
    assert lin(0.7) == 1.0 and lin(0.3) == 0.6


def test_normalize_fitted_pwl_modulus(grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.4)
    omega = fit_radius_modulus(grid1d, rho)
    nm = normalize_modulus(omega, grid1d.diameter())
    ts = np.linspace(0.0, grid1d.diameter(), 101)
    vals = np.asarray(nm(ts))
    assert nm(grid1d.diameter()) == grid1d.diameter()
    assert np.all(vals >= ts - 1e-12)          # dominates the identity
    assert np.all(vals >= np.asarray(omega(ts)) - 1e-12)  # dominates omega
    assert np.all(vals <= grid1d.diameter() + 1e-12)


# -- refusals ----------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: Modulus(kind="pwl", domain_end=-1.0, ts=[0, 1], ys=[0, 1]),
     "modulus domain must be nonnegative"),
    (lambda: Modulus.from_breakpoints([0.0], [0.0]),
     "piecewise modulus needs matching breakpoints"),
    (lambda: Modulus.from_breakpoints([0.1, 1.0], [0.0, 1.0]),
     r"modulus must start at \(0, 0\)"),
    (lambda: Modulus.from_breakpoints([0.0, 1.0, 1.0], [0.0, 0.5, 1.0]),
     "breakpoint abscissae must increase"),
    (lambda: Modulus.from_breakpoints([0.0, 1.0, 2.0], [0.0, 1.0, 0.5]),
     "modulus must be nondecreasing"),
    (lambda: Modulus.from_breakpoints([0.0, 1.0, 2.0], [0.0, 0.1, 1.0]),
     "modulus must be concave"),
    (lambda: Modulus(kind="power", domain_end=1.0, coeff=-1.0, gamma=1.0),
     "power modulus needs a nonnegative coefficient"),
    (lambda: Modulus(kind="cubic", domain_end=1.0), "unknown modulus kind 'cubic'"),
    (lambda: Modulus.power(1.0, 1.5, 1.0),
     r"^gamma must be a finite number in \(0, 1\], got 1.5$"),
    (lambda: Modulus.identity(1.0)(-0.1), "modulus argument must be nonnegative"),
    (lambda: iterate_modulus(Modulus.identity(1.0), -1, 0.5),
     rf"^n must be a finite integer in \[0, {2 ** 63 - 1}\], got -1$"),
    (lambda: exhaustion(interval_grid(9), 1.0, 1),
     r"^epsilon must be a finite number in \(0, 1\), got 1.0$"),
    (lambda: exhaustion(interval_grid(9), 0.5, 0),
     r"^m must be a finite integer in \[1, inf\), got 0$"),
    (lambda: validate_admissible(interval_grid(9), RadiusField(np.zeros(10))),
     r"radius of shape \(10,\) for a space of 9 points"),
    # a point 1e-200 from another, whose distance underflows to 0, is
    # refused where the space is built, before any scan could meet it
    (lambda: max_gap_ratio(Space(coords=[[0.0], [1e-200], [1.0]], weights=[1.0] * 3,
                                 boundary=[0, 2]), [0.0, 1.0, 2.0]),
     "duplicate points: zero distance between distinct ids")],
    ids=["negative-domain", "one-breakpoint", "not-at-origin", "repeated-abscissa",
         "decreasing", "convex", "negative-coefficient", "unknown-kind", "exponent",
         "negative-argument", "negative-iterations", "exhaustion-epsilon",
         "exhaustion-index", "radius-length", "zero-distance"])
def test_radius_refusals(call, message):
    with pytest.raises(SpaceFormatError, match=message):
        call()
