import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonious import (AdmissibilityError, BallTable, Modulus, RadiusField,
                         ScalarField, SpaceFormatError,
                         TheoreticalModulus, alpha_mean_value,
                         apply_alpha_mean, ball_symdiff_ratio,
                         check_alpha_mean_modulus, check_mean_stability,
                         check_symdiff_bounds, exhaustion, fit_lipschitz,
                         hausdorff_gaps, interval_grid, disk_grid,
                         lattice_graph, mean_value, midrange_value,
                         path_graph, read_field_csv, solve_dirichlet,
                         SolveConfig, Space, square_grid, write_field_csv)
from pharmonious.operators import _queries

import reference as ref
from conftest import box_space, cloud, cube_grid, reordered, run_ends, shuffled


@pytest.fixture(scope="module")
def grid100():
    """h = 0.01 grid on [0,1] for the worked pointwise examples."""
    return interval_grid(101)


@pytest.fixture(scope="module")
def rho_flat(grid100):
    """rho = 0.1 at the midpoint (only the midpoint is evaluated)."""
    values = np.zeros(len(grid100))
    values[50] = 0.1
    return RadiusField(values)


# -- pointwise evaluation ------------------------------------------------------------


def test_mean_of_constant(grid100, rho_flat):
    u = np.full(len(grid100), 3.0)
    assert mean_value(grid100, rho_flat, u, 50) == 3.0


def test_mean_of_squares_matches_brute_force(grid100, rho_flat):
    u = grid100.coords[:, 0] ** 2
    got = mean_value(grid100, rho_flat, u, 50)
    # brute-force weighted-sum oracle over enumerated members
    members = grid100.ball(50, 0.1).members
    w = grid100.weights[members]
    oracle = float((w * u[members]).sum() / w.sum())
    assert abs(got - oracle) < 1e-14
    # continuum value is 0.253333...; 21 atoms give 0.2536666...
    assert abs(oracle - 0.25366666666666665) < 1e-12
    assert abs(got - 0.2533333) < 5e-4


def test_mean_of_linear_on_symmetric_ball_is_exact(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    assert mean_value(grid1d, grid1d_rho, u, 128) == u[128]


def test_midrange_of_constant(grid100, rho_flat):
    u = np.full(len(grid100), -1.5)
    assert midrange_value(grid100, rho_flat, u, 50) == -1.5


def test_midrange_of_squares(grid100, rho_flat):
    u = grid100.coords[:, 0] ** 2
    got = midrange_value(grid100, rho_flat, u, 50)
    # enumerate members: max = 0.36, min = 0.16 on [0.4, 0.6]
    members = grid100.ball(50, 0.1).members
    oracle = 0.5 * (u[members].max() + u[members].min())
    assert got == oracle
    assert abs(got - 0.26) < 1e-12


def test_midrange_of_linear_symmetric(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0]
    assert midrange_value(grid1d, grid1d_rho, u, 128) == u[128]


def test_alpha_mean_endpoints(grid100, rho_flat):
    u = grid100.coords[:, 0] ** 2
    m = mean_value(grid100, rho_flat, u, 50)
    s = midrange_value(grid100, rho_flat, u, 50)
    assert alpha_mean_value(grid100, rho_flat, u, 50, 0.0) == m
    assert alpha_mean_value(grid100, rho_flat, u, 50, 1.0) == s


def test_alpha_mean_is_affine_combination(grid100, rho_flat):
    u = grid100.coords[:, 0] ** 2
    m = mean_value(grid100, rho_flat, u, 50)
    s = midrange_value(grid100, rho_flat, u, 50)
    got = alpha_mean_value(grid100, rho_flat, u, 50, 1.0 / 3.0)
    oracle = m + (1.0 / 3.0) * (s - m)
    assert got == oracle
    assert abs(got - ((1 / 3) * 0.26 + (2 / 3) * 0.25366666666666665)) < 1e-12
    # spec-sheet headline value from the continuum mean
    assert abs(got - 0.255556) < 3e-3


def test_alpha_mean_affinity_three_points(grid1d, grid1d_rho, rng):
    u = rng.normal(size=len(grid1d))
    for x in (40, 128, 200):
        vals = {a: alpha_mean_value(grid1d, grid1d_rho, u, x, a)
                for a in (0.2, 0.5, 0.8)}
        # collinear in alpha: midpoint identity
        assert abs(vals[0.5] - 0.5 * (vals[0.2] + vals[0.8])) < 1e-12


@given(st.integers(1, 255), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_comparison_principle(x, alpha):
    sp = interval_grid(257)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    rng = np.random.default_rng(x)
    u = rng.uniform(-1, 1, size=len(sp))
    members = sp.ball(x, rho[x]).members
    lo, hi = u[members].min(), u[members].max()
    val = alpha_mean_value(sp, rho, u, x, alpha)
    assert lo - 1e-12 <= val <= hi + 1e-12


def test_monotonicity_in_field(grid1d, grid1d_rho, rng):
    u = rng.normal(size=len(grid1d))
    v = u + rng.uniform(0, 1, size=len(grid1d))
    for x in (10, 100, 222):
        assert mean_value(grid1d, grid1d_rho, u, x) \
            <= mean_value(grid1d, grid1d_rho, v, x) + 1e-12
        assert midrange_value(grid1d, grid1d_rho, u, x) \
            <= midrange_value(grid1d, grid1d_rho, v, x) + 1e-12


# -- sweeps ---------------------------------------------------------------------


def test_sweep_fixes_constants(grid1d, grid1d_rho):
    u = np.full(len(grid1d), 2.5)
    out = apply_alpha_mean(grid1d, grid1d_rho, u, 0.3)
    assert np.array_equal(out, u)


def test_sweep_fixes_linear_field(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0].copy()
    out = apply_alpha_mean(grid1d, grid1d_rho, u, 0.3)
    assert np.abs(out - u).max() < 1e-15


def test_sweep_keeps_boundary(grid1d, grid1d_rho, rng):
    u = rng.normal(size=len(grid1d))
    out = apply_alpha_mean(grid1d, grid1d_rho, u, 0.7)
    b = grid1d.boundary_indices
    assert np.array_equal(out[b], u[b])


def test_sweep_value_matches_pointwise(grid1d, grid1d_rho):
    u = grid1d.coords[:, 0] ** 2
    out = apply_alpha_mean(grid1d, grid1d_rho, u, 0.0)
    assert out[128] == mean_value(grid1d, grid1d_rho, u, 128)


def test_sweep_contracts_sup_norm(grid1d, grid1d_rho, rng):
    u = rng.uniform(-3, 3, size=len(grid1d))
    for alpha in (0.0, 0.4, 1.0):
        out = apply_alpha_mean(grid1d, grid1d_rho, u, alpha)
        assert np.abs(out).max() <= np.abs(u).max() + 1e-12


# -- symmetric differences --------------------------------------------------------


def test_symdiff_same_point_zero(grid1d, grid1d_rho):
    assert ball_symdiff_ratio(grid1d, grid1d_rho, 128, 128) == 0.0


def test_symdiff_disjoint_balls_two():
    sp = interval_grid(101)
    values = np.zeros(len(sp))
    values[20] = 0.05
    values[80] = 0.05
    rho = RadiusField(values)
    assert ball_symdiff_ratio(sp, rho, 20, 80) == 2.0


def test_symdiff_half_overlap_near_one():
    # unit balls at 1 and 2 inside [0,3]: members [0,2] and [1,3]
    sp = interval_grid(301, 0.0, 3.0)
    values = np.zeros(len(sp))
    values[100] = 1.0
    values[200] = 1.0
    rho = RadiusField(values)
    got = ball_symdiff_ratio(sp, rho, 100, 200)
    # oracle by enumeration
    bx = set(sp.ball(100, 1.0).members)
    by = set(sp.ball(200, 1.0).members)
    mu = lambda s: sp.measure(np.array(sorted(s)))
    oracle = mu(bx ^ by) / max(mu(bx), mu(by))
    assert abs(got - oracle) < 1e-12
    # continuum value is 2/2 = 1; atoms shift it by O(h)
    assert abs(got - 1.0) <= 3 * sp.resolution()


def test_symdiff_symmetry(grid1d, grid1d_rho, rng):
    interior = grid1d.interior_indices
    for _ in range(20):
        x, y = rng.choice(interior, size=2, replace=False)
        assert ball_symdiff_ratio(grid1d, grid1d_rho, int(x), int(y)) \
            == ball_symdiff_ratio(grid1d, grid1d_rho, int(y), int(x))


# -- mean stability (two-ball estimate) ---------------------------------------------


def test_mean_stability_identical_balls(grid1d, rng):
    u = rng.normal(size=len(grid1d))
    b = grid1d.ball(100, 0.17)
    rec = check_mean_stability(grid1d, u, b, b)
    assert rec.passed and rec.lhs == 0.0 and rec.rhs == 0.0


def test_mean_stability_constant_field(grid1d):
    u = np.ones(len(grid1d))
    b1 = grid1d.ball(30, 0.1)
    b2 = grid1d.ball(200, 0.15)
    rec = check_mean_stability(grid1d, u, b1, b2)
    assert rec.passed and abs(rec.lhs) < 1e-15


def test_mean_stability_random_trials(grid1d, rng):
    for _ in range(200):
        u = rng.uniform(-1, 1, size=len(grid1d))
        x, y = rng.integers(0, len(grid1d), size=2)
        b1 = grid1d.ball(int(x), float(rng.uniform(0, 0.6)))
        b2 = grid1d.ball(int(y), float(rng.uniform(0, 0.6)))
        rec = check_mean_stability(grid1d, u, b1, b2)
        assert rec.passed
        assert rec.slack >= -1e-12


def test_mean_stability_iterated(grid1d, grid1d_rho, rng):
    u = rng.uniform(-1, 1, size=len(grid1d))
    b1 = grid1d.ball(100, grid1d_rho[100])
    b2 = grid1d.ball(150, grid1d_rho[150])
    rec = check_mean_stability(grid1d, u, b1, b2, rho=grid1d_rho)
    assert rec.passed
    assert len(rec.details["iterates"]) == 5
    assert all(r["pass"] for r in rec.details["iterates"])


# -- symmetric difference branch bounds ---------------------------------------------


def test_symdiff_bounds_same_point(grid1d, grid1d_rho):
    k2 = exhaustion(grid1d, 0.5, 2)
    rho_k = float(grid1d_rho.values[k2].min())
    rec = check_symdiff_bounds(grid1d, grid1d_rho, 128, 128, 1.0, 1.0, 1.0,
                               rho_k, 2.0)
    assert rec.passed and rec.lhs == 0.0


def test_symdiff_bounds_1d_exhaustive_scan():
    sp = interval_grid(257)
    rho = RadiusField.scaled_boundary_distance(sp, 0.3)
    fit_lipschitz(sp, rho)
    k2 = exhaustion(sp, 0.5, 2)
    rho_k = float(rho.values[k2].min())
    for x in k2[::4]:
        for y in k2[::4]:
            if x < y:
                rec = check_symdiff_bounds(sp, rho, int(x), int(y), 1.0, 1.0,
                                           1.0, rho_k, 2.0)
                assert rec.details["lipschitz_pass"], (x, y, rec)


def test_symdiff_bounds_rejects_bad_rho_k(grid1d, grid1d_rho):
    from pharmonious import SpaceFormatError
    with pytest.raises(SpaceFormatError):
        check_symdiff_bounds(grid1d, grid1d_rho, 100, 101, 1.0, 1.0, 1.0, 0.0)


# -- midrange gaps ------------------------------------------------------------------


def test_gaps_same_point(grid1d, grid1d_rho):
    gaps, rec = hausdorff_gaps(grid1d, grid1d_rho, 128, 128)
    assert gaps.sup_inf_xy == 0.0 and gaps.sup_inf_yx == 0.0
    assert rec.passed


def test_gaps_shifted_balls_worked_example():
    sp = interval_grid(101)
    values = np.zeros(len(sp))
    values[50] = 0.2
    values[60] = 0.2
    rho = RadiusField(values)
    gaps, rec = hausdorff_gaps(sp, rho, 50, 60, normalized=Modulus.identity(1.0))
    # balls [0.3,0.7] and [0.4,0.8]: each one-sided gap is 0.1
    assert abs(gaps.sup_inf_xy - 0.1) < 1e-12
    assert abs(gaps.sup_inf_yx - 0.1) < 1e-12
    assert rec.passed  # 0.1 <= normalized(0.1) + slack


def test_gaps_nested_balls(grid1d):
    values = np.zeros(len(grid1d))
    values[128] = 0.3   # [0.2, 0.8]
    values[130] = 0.05  # inside the larger ball
    rho = RadiusField(values)
    gaps, rec = hausdorff_gaps(grid1d, rho, 128, 130)
    assert gaps.sup_inf_yx == 0.0  # every member of B_y lies in B_x
    assert rec.passed


def test_gaps_orientation_question_recorded():
    # radii differing much more than the distance: the printed one-sided
    # pairing fails in one orientation while the symmetrized claim holds
    sp = interval_grid(257)
    values = np.zeros(len(sp))
    values[128] = 0.4   # B_x = [0.1, 0.9]
    values[129] = 0.01  # B_y tiny, d(x,y) = 1/256
    rho = RadiusField(values)
    gaps, rec = hausdorff_gaps(sp, rho, 128, 129,
                               normalized=Modulus.capped_linear(112.0, 1.0))
    assert rec.passed  # symmetrized claim with a steep enough normalized
    printed = rec.details["printed_orientation"]
    transposed = rec.details["transposed_orientation"]
    assert not printed["xy_vs_minus"]   # sup-inf from the big ball is ~0.4
    assert transposed["xy_vs_plus"]


def test_gaps_skipped_on_non_geodesic_flag():
    sp = interval_grid(65)
    sp.geodesic_like = False
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    gaps, rec = hausdorff_gaps(sp, rho, 32, 33)
    assert rec.branch == "skipped"
    sp.geodesic_like = True


# -- one-sweep modulus transfer -------------------------------------------------------


def _mean_modulus_1d(sp, rho, k_members):
    rho_k = float(rho.values[k_members].min())
    normalized = Modulus.capped_linear(1.0, sp.diameter())
    return TheoreticalModulus("annular_continuous", C=8.0, rho_K=rho_k,
                              delta=1.0, normalized=normalized)


def test_alpha_mean_modulus_constant_field(grid1d, grid1d_rho):
    k2 = exhaustion(grid1d, 0.5, 2)
    u = np.full(len(grid1d), 4.0)
    rec = check_alpha_mean_modulus(grid1d, grid1d_rho, u, 0.3, k2,
                                   _mean_modulus_1d(grid1d, grid1d_rho, k2))
    assert rec.passed and rec.lhs == 0.0


def test_alpha_mean_modulus_on_solved_field(grid1d, grid1d_rho):
    b = grid1d.boundary_indices
    g = grid1d.coords[b, 0]
    rep = solve_dirichlet(grid1d, grid1d_rho, 0.3, g,
                          SolveConfig(tolerance=1e-10,
                                      initial=grid1d.coords[:, 0] ** 2))
    assert rep.converged
    k2 = exhaustion(grid1d, 0.5, 2)
    rec = check_alpha_mean_modulus(grid1d, grid1d_rho, rep.field, 0.3, k2,
                                   _mean_modulus_1d(grid1d, grid1d_rho, k2))
    assert rec.passed
    assert rec.rhs >= rec.lhs


def test_alpha_mean_modulus_alpha_zero_reduces_to_mean_check(grid1d, grid1d_rho, rng):
    k2 = exhaustion(grid1d, 0.5, 2)
    u = rng.uniform(-1, 1, size=len(grid1d))
    rec = check_alpha_mean_modulus(grid1d, grid1d_rho, u, 0.0, k2,
                                   _mean_modulus_1d(grid1d, grid1d_rho, k2))
    assert rec.passed


def test_alpha_mean_modulus_out_of_hypothesis(grid1d, grid1d_rho):
    k2 = exhaustion(grid1d, 0.5, 2)
    u = np.zeros(len(grid1d))
    rec = check_alpha_mean_modulus(grid1d, grid1d_rho, u, 1.5, k2,
                                   _mean_modulus_1d(grid1d, grid1d_rho, k2))
    assert not rec.passed
    assert rec.branch == "out-of-hypothesis"


# -- one ball search per (space, rho, centre) ----------------------------------------


def _count_ball_runs(monkeypatch):
    calls = []
    search = Space.ball_runs

    def counted(self, centers, radii):
        calls.append(len(centers))
        return search(self, centers, radii)
    monkeypatch.setattr(Space, "ball_runs", counted)
    return calls


def test_pair_checks_search_each_ball_once(monkeypatch):
    sp = interval_grid(65)
    rho = RadiusField.scaled_boundary_distance(sp, 0.3)
    fit_lipschitz(sp, rho)
    k2 = exhaustion(sp, 0.5, 2).tolist()
    rho_k = float(rho.values[k2].min())
    calls = _count_ball_runs(monkeypatch)
    for x, y in itertools.combinations(k2, 2):
        ball_symdiff_ratio(sp, rho, x, y)
        check_symdiff_bounds(sp, rho, x, y, rho.lipschitz_L, 1.0, 1.0, rho_k, 2.0)
        hausdorff_gaps(sp, rho, y, x)
    assert calls == [1] * len(k2)


def test_alpha_mean_modulus_searches_its_balls_once(monkeypatch, grid1d):
    rho = RadiusField.scaled_boundary_distance(grid1d, 0.4)
    k2 = exhaustion(grid1d, 0.5, 2)
    u = np.random.default_rng(1).uniform(-1, 1, size=len(grid1d))
    family = _mean_modulus_1d(grid1d, rho, k2)
    calls = _count_ball_runs(monkeypatch)
    assert check_alpha_mean_modulus(grid1d, rho, u, 0.3, k2, family).passed
    assert calls == [len(k2)]


def test_one_radius_field_keeps_the_balls_of_each_space():
    a, b = interval_grid(33), interval_grid(33, hi=2.0)
    rho = RadiusField.scaled_boundary_distance(a, 0.4)
    for sp in (a, b, a):
        fresh = RadiusField(rho.values)
        assert ball_symdiff_ratio(sp, rho, 16, 18) == \
            ball_symdiff_ratio(sp, fresh, 16, 18)
        assert hausdorff_gaps(sp, rho, 16, 18)[0] == \
            hausdorff_gaps(sp, fresh, 16, 18)[0]
    assert ball_symdiff_ratio(a, rho, 16, 18) != ball_symdiff_ratio(b, rho, 16, 18)


def test_pair_checks_refuse_a_negative_radius_every_time(grid1d):
    values = np.zeros(len(grid1d))
    values[100] = -0.1
    rho = RadiusField(values)
    for _ in range(2):
        with pytest.raises(SpaceFormatError, match="negative ball radius"):
            ball_symdiff_ratio(grid1d, rho, 100, 101)


@pytest.mark.parametrize("check", [
    lambda sp, rho: ball_symdiff_ratio(sp, rho, 40, 41),
    lambda sp, rho: check_symdiff_bounds(sp, rho, 40, 41, 1.0, 1.0, 1.0, 0.1)],
    ids=["symdiff-ratio", "symdiff-bounds"])
@pytest.mark.parametrize("n", [84, 50])
def test_pair_checks_refuse_a_radius_field_of_another_length(check, n):
    # the balls read rho[x] of any field: ball_symdiff_ratio returned 2.0
    # for an 84-point field on 81 points, and a 50-point one gave a ratio
    with pytest.raises(SpaceFormatError,
                       match=rf"radius of shape \({n},\) for a space of 81 points"):
        check(square_grid(9), RadiusField(np.full(n, 0.1)))


# -- scalar fields and files ---------------------------------------------------------


def test_scalar_field_validation(grid1d):
    with pytest.raises(Exception):
        ScalarField(grid1d, np.full(len(grid1d), np.nan))
    with pytest.raises(Exception):
        ScalarField(grid1d, np.zeros(3))


def test_field_csv_round_trip(grid1d, rng, tmp_path):
    u = rng.normal(size=len(grid1d))
    path = tmp_path / "field.csv"
    write_field_csv(grid1d, u, path)
    back = read_field_csv(grid1d, path)
    assert np.array_equal(back, u)


def test_field_csv_rejects_non_finite_and_missing(grid1d, tmp_path):
    path = tmp_path / "field.csv"
    write_field_csv(grid1d, np.zeros(len(grid1d)), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["4,inf"] + lines[6:]) + "\n")
    with pytest.raises(SpaceFormatError, match="non-finite"):
        read_field_csv(grid1d, path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SpaceFormatError, match="missing value"):
        read_field_csv(grid1d, path)


def test_field_csv_is_the_csv_writers_bytes(tmp_path):
    # ids and repr(float) on lines ended by \r\n, as csv.writer writes them
    sp = interval_grid(6)
    u = np.array([-0.0, 1e-300, 0.1, 1e16, -2.5e-7, 123456789.123])
    write_field_csv(sp, u, tmp_path / "field.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "value"])
        writer.writerows([k, repr(v)] for k, v in enumerate(u.tolist()))
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert np.array_equal(read_field_csv(sp, tmp_path / "field.csv"), u)


@pytest.mark.parametrize("rows, message", [
    (["0,nan", "0,1", "9,1"], "non-finite value in row ['0', 'nan']"),
    (["0,1", "0,inf", "9,1"], "duplicate id 0 in row ['0', 'inf']"),
    (["0,1", "1,inf", "1,1", "9,1"], "non-finite value in row ['1', 'inf']"),
    (["0,1", "1,1", "1,2", "9,1"], "duplicate id 1 in row ['1', '2']"),
    (["0,1", "9,1", "2,inf", "1,1", "1,2"], "unknown or invalid id or value in row ['9', '1']"),
    (["0,1", "1", "1,inf"], "unknown or invalid id or value in row ['1']"),
    (["0,1", "1,x"], "unknown or invalid id or value in row ['1', 'x']"),
    (["0,1", "", "1,1"], "missing value for some points"),
])
def test_field_csv_names_its_first_bad_row(tmp_path, rows, message):
    # the first bad row in file order is named; within a row an unreadable
    # id or value comes first, then a repeated id, then a non-finite value
    sp = interval_grid(3)
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["id,value", *rows]) + "\n")
    with pytest.raises(SpaceFormatError) as err:
        read_field_csv(sp, path)
    assert message in str(err.value)


def _assert_table_matches_oracle(table, rho):
    sp = table.space
    members, counts, a, b = ref.balls(sp, table.centers, rho.values[table.centers])
    starts = np.cumsum(counts) - counts
    assert np.array_equal(table.counts, counts)
    assert np.array_equal(table.starts, starts)
    assert np.array_equal(table.indices, members)
    assert np.array_equal(table.weight_sums,
                          np.add.reduceat(sp.weights[members], starts))
    run_a, run_b = run_ends(table)
    assert np.array_equal(run_a[table._ball_runs], a)
    assert np.array_equal(run_b[table._ball_runs], b)
    # each distinct run once
    key = run_a * (len(sp) + 1) + run_b
    assert np.all(np.diff(key) > 0)


def _uneven_rows(n=33, seed=0):
    """An n-by-n grid whose rows take their own sorted random last
    coordinates: strips with uneven spacing."""
    rng = np.random.default_rng(seed)
    ys = np.sort(rng.uniform(size=(n, n)), axis=1)
    coords = np.column_stack([np.repeat(np.linspace(0.0, 1.0, n), n),
                              ys.ravel()])
    return box_space(coords, rng.uniform(0.5, 2.0, n * n))


def _random_strips(strips=40, per=40):
    """3-D strips of per points at random leading coordinates, each with
    its own sorted random last coordinates: with no dyadic coordinate, the
    chord and the closed form round apart near a sphere."""
    rng = np.random.default_rng(0)
    coords = np.column_stack([
        np.repeat(rng.uniform(size=(strips, 2)), per, axis=0),
        np.sort(rng.uniform(size=(strips, per)), axis=1).ravel()])
    return box_space(coords, rng.uniform(0.5, 2.0, len(coords)))


def _tie_radii(sp, seed=0):
    """Each radius equal to the distance from its point to another point,
    so that a member lies exactly on every sphere."""
    other = np.random.default_rng(seed).integers(0, len(sp), len(sp))
    return RadiusField(sp.pair_distances(np.arange(len(sp)), other))


def test_ball_table_matches_ball_queries(grid2d_small):
    rho = RadiusField.scaled_boundary_distance(grid2d_small, 0.4)
    _assert_table_matches_oracle(BallTable(grid2d_small, rho), rho)


@pytest.mark.parametrize("make, radius", [
    (lambda: square_grid(33), 0.99),
    (lambda: disk_grid(33), 0.4), (lambda: disk_grid(33), 1.0),
    (lambda: interval_grid(257), 0.4), (lambda: interval_grid(257), 0.99),
    (lambda: shuffled(square_grid(33), 5), 0.4),
    (lambda: cloud(2, 300, 2, weighted=True), 0.6),
    (lambda: cloud(3, 300, 3, weighted=True), 0.6),
    (lambda: cloud(8, 300, 8, weighted=True), 0.6),
    (lambda: _uneven_rows(), 0.6), (lambda: _uneven_rows(), "tie"),
    (lambda: cube_grid(9), 0.4), (lambda: cube_grid(9), "tie"),
    (lambda: square_grid(33), "tie"), (lambda: disk_grid(33), "tie"),
    (lambda: interval_grid(65), "tie"),
    (lambda: shuffled(square_grid(17), 2), "tie"),
    (lambda: cloud(3, 300, 3, weighted=True), "tie"),
    (lambda: shuffled(square_grid(17), 2), "hair"),
    (lambda: cloud(3, 300, 3, weighted=True), "hair"),
    (lambda: square_grid(17), "hair"),
    (lambda: _random_strips(), "ulp"),
    (lambda: cloud(8, 300, 8, weighted=True), "tie"),
    (lambda: _random_strips(), "hair"),
    (lambda: lattice_graph(13, 11), 0.5), (lambda: path_graph(41), 1.0),
])
def test_ball_table_matches_member_oracle(make, radius):
    # runs, counts and weight sums of the strip search (Euclidean) and of
    # compressed distance rows (graphs) against the members of dense
    # distance rows; "tie" puts a point exactly on every ball's sphere,
    # "ulp" one float outside it, "hair" just outside it, within the
    # slack (HAIR) by which the key searches widen every reach
    sp = make()
    if radius == "tie":
        rho = _tie_radii(sp)
    elif radius == "ulp":
        rho = RadiusField(np.nextafter(_tie_radii(sp).values, 0.0))
    elif radius == "hair":
        rho = RadiusField(_tie_radii(sp).values * (1.0 - 1e-10))
    else:
        rho = RadiusField.scaled_boundary_distance(sp, radius)
    _assert_table_matches_oracle(BallTable(sp, rho), rho)


@pytest.mark.parametrize("make", [
    lambda: reordered(interval_grid(129), np.arange(129)[::-1].copy()),
    lambda: reordered(square_grid(33), (np.random.default_rng(4).permutation(33)[:, None]
                                        * 33 + np.arange(33)).ravel())],
    ids=["reversed_line", "shuffled_rows"])
@pytest.mark.parametrize("radius", [0.4, 0.99, "tie", "hair"])
def test_keys_out_of_strip_order_ball_table_matches_member_oracle(make, radius):
    # strips keyed by one coordinate but not in key order (the one-point
    # strips of a reversed line, a grid's rows in shuffled order): the
    # sorted-key search re-sorts each ball's candidates
    test_ball_table_matches_member_oracle(make, radius)


@pytest.mark.parametrize("point", [22, 70])
def test_ball_table_refuses_a_negative_radius(point):
    # the empty ball used to take weight_sums 0.015625 with counts 0 at
    # point 22 (alpha_means read 23.0 for u = index), and the last center's
    # empty ball raised an IndexError in np.add.reduceat
    sp = square_grid(9)
    values = RadiusField.scaled_boundary_distance(sp, 0.4).values.copy()
    values[point] = -0.1
    with pytest.raises(AdmissibilityError, match=rf"at points \[{point}\]"):
        BallTable(sp, RadiusField(values))


def test_ball_table_build_and_sweeps_hold_little_memory(traced):
    # the build held 12.9 MB above what it keeps (the blocks' owners, a and
    # b joined at once, then the dedupe's key, sort and which), then 3.2 MB
    # (the sparse-table queries built from whole-length temporaries), and
    # every sweep allocated 4.8 MB of run and membership temporaries; with
    # intp runs and queries the build kept 6.6 MB and peaked at 7.5 MB
    sp = square_grid(129)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    tables = []
    kept, peak = traced(lambda: tables.append(BallTable(sp, rho)))
    assert peak < kept + 1.5e6, (kept, peak)
    assert peak < 4.5e6, peak
    table = tables[0]
    u = np.random.default_rng(2).uniform(-1.0, 1.0, len(sp)) / 3.0
    first = table.alpha_means(u, 0.3)  # allocates the sweep buffers
    table.alpha_means(np.cos(u), 0.3)  # the buffers carry nothing over
    again = []
    _, peak = traced(lambda: again.append(table.alpha_means(u, 0.3)))
    assert peak < 1e6, peak
    assert np.array_equal(first, again[0])


def test_ball_table_keeps_four_bytes_per_ball_run_and_two_queries_per_run():
    # the five intp index arrays of 129^2 (282,627 ball-runs, 109,331
    # distinct runs as ends a, b and two queries) took 5.5 MB
    sp = square_grid(129)
    table = BallTable(sp, RadiusField.scaled_boundary_distance(sp, 0.4))
    index = (table._ball_runs, table._query_lo, table._query_hi)
    assert [a.dtype for a in index] == [np.dtype(np.int32)] * 3
    ball_runs, runs = len(table._ball_runs), len(table._query_lo)
    per_ball = sum(getattr(table, name).nbytes for name in (
        "centers", "counts", "starts", "_first_run", "weight_sums"))
    held = sum(a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray))
    assert held <= 4 * (ball_runs + 2 * runs) + per_ball


def test_queries_do_not_depend_on_the_key_and_index_types():
    # keys outgrow uint32 once (n + 1)^2 > 2^32 (n >= 65,536) and queries
    # outgrow int32 once levels * n >= 2^31, both too large for a test
    # table: one table's queries are built again from its keys in the
    # wider types
    sp = square_grid(33)
    table = BallTable(sp, RadiusField.scaled_boundary_distance(sp, 0.4))
    a, b = run_ends(table)
    keys = a * (len(sp) + 1) + b
    for key_type, index_type in itertools.product((np.uint32, np.uint64),
                                                  (np.int32, np.int64)):
        lo, hi = _queries(keys.astype(key_type), len(sp), index_type)
        assert lo.dtype == hi.dtype == index_type
        assert np.array_equal(lo, table._query_lo)
        assert np.array_equal(hi, table._query_hi)


def _stride_line(n=257, stride=128):
    """interval_grid(n) in the point order 0, stride, 2 stride, ... (mod n):
    index-consecutive points lie at least min(stride, n - stride) cells
    apart, so no ball of radius 0.4 dist holds two of them."""
    return reordered(interval_grid(n), stride * np.arange(n) % n)


def _power_runs(n=33):
    """interval_grid(n) with the radius (i + 1) h at point i: the ball of
    point i is [0, 2i + 2) clipped to the space, so runs of exactly 4, 8,
    16 and 32 points (2^k) are among its runs."""
    sp = interval_grid(n)
    return sp, RadiusField((np.arange(n) + 1.0) / (n - 1))


@pytest.mark.parametrize("case", ["one_level", "powers_of_two"])
def test_prefix_sums_are_read_through_the_queries(case):
    # the mean reads P[b] at k n + b - 2^k of row k shifted by 2^k, then
    # P[a] at k n + a: a one-level table reads both from row 0, and a run
    # of exactly 2^k points reads both windows at one column
    if case == "one_level":
        sp = _stride_line()
        rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    else:
        sp, rho = _power_runs()
    table = BallTable(sp, rho)
    _assert_table_matches_oracle(table, rho)
    a, b = run_ends(table)
    if case == "one_level":
        assert table._levels == 1 and np.all(b - a == 1)
    else:
        assert {4, 8, 16, 32} <= set((b - a).tolist())
        assert table._levels == 6
    u = np.random.default_rng(5).uniform(-1.0, 1.0, len(sp))
    radii = rho.values[table.centers]
    for alpha in (0.0, 0.3, 1.0):
        want = ref.alpha_means(sp, table.centers, radii, u, alpha)
        got = table.alpha_means(u, alpha)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(u).max(), alpha
        assert alpha != 1.0 or np.array_equal(got, want)


def test_strips_are_the_rows_of_a_raveled_grid():
    bounds = square_grid(33)._metric._strips[0]
    assert np.array_equal(bounds, np.arange(0, 33 * 33 + 1, 33))
    bounds = cube_grid(9)._metric._strips[0]
    assert np.array_equal(bounds, np.arange(0, 9 ** 3 + 1, 9))
    # a shuffled grid has no strips: every point is its own
    bounds = shuffled(square_grid(17), 5)._metric._strips[0]
    assert np.array_equal(bounds, np.arange(17 * 17 + 1))


def test_ball_table_counts_of_the_benchmark_tracer():
    # benchmarks/tracer.py counts members and index runs from the table's
    # public attributes (it lists every member); both must match the
    # oracle, as must the tracer's per-sweep read of len(table.indices)
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for sp in (square_grid(33), lattice_graph(13, 11)):
        rho = RadiusField.scaled_boundary_distance(sp, 0.4)
        table = BallTable(sp, rho)
        members, counts, a, b = ref.balls(sp, table.centers, rho.values[table.centers])
        got = tracer.table_counts(table, len(sp))
        assert got["members"] == len(members) == len(table.indices)
        assert got["index_runs"] == len(a)
        assert got["bytes_per_sweep"] > 0


# -- the run kernel against member-wise reductions ----------------------------------


@pytest.fixture(scope="module", params=["square", "disk", "lattice", "path",
                                        "matrix", "permuted"])
def kernel_table(request):
    sp = {"square": lambda: square_grid(33), "disk": lambda: disk_grid(33),
          "lattice": lambda: lattice_graph(13, 11),
          "path": lambda: path_graph(41),
          "matrix": lambda: request.getfixturevalue("matrix_space"),
          "permuted": lambda: request.getfixturevalue("permuted_grid"),
          }[request.param]()
    return BallTable(sp, RadiusField.scaled_boundary_distance(sp, 0.5))


@pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.3, 1.0])
def test_run_kernel_matches_memberwise_reduction(kernel_table, alpha):
    u = np.random.default_rng(7).uniform(-1.0, 1.0, len(kernel_table.space))
    got = kernel_table.alpha_means(u, alpha)
    sp, centers = kernel_table.space, kernel_table.centers
    radii = RadiusField.scaled_boundary_distance(sp, 0.5).values[centers]
    want = ref.alpha_means(sp, centers, radii, u, alpha)
    if alpha == 1.0:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(u).max()
    const = np.full(len(u), -0.37)
    assert np.array_equal(kernel_table.alpha_means(const, alpha),
                          const[kernel_table.centers])
    # constant on every ball but not globally: a boundary point lies in no
    # interior ball at rho = 0.5 dist
    const[kernel_table.space.boundary_indices[0]] = 5.0
    assert np.all(kernel_table.alpha_means(const, alpha) == -0.37)
    shifted = kernel_table.alpha_means(u + 1e6, alpha) - 1e6
    assert np.abs(shifted - got).max() <= 1e-9
