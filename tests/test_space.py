import json
import re
import sys
import warnings

import numpy as np
import pytest

from pharmonious import (BallTable, ConfigurationError, DisconnectedSpaceError,
                         Modulus, RadiusField, Space, SpaceFormatError,
                         alpha_mean_value, ball_symdiff_ratio,
                         check_alpha_mean_modulus, disk_grid,
                         empirical_holder, fit_lipschitz,
                         interval_grid, lattice_graph, path_graph,
                         space_from_dict, square_grid)
from pharmonious import space as space_mod

import reference as ref
from conftest import cloud, cube_grid, hub_star, lattice_doc, reordered, shuffled


# -- distances ------------------------------------------------------------------


def test_distance_same_point_is_zero(grid1d):
    assert grid1d.distance(13, 13) == 0.0


def test_distance_1d_closed_form():
    sp = interval_grid(5)  # h = 0.25, points 0, 0.25, ..., 1
    assert sp.distance(0, 3) == 0.75


def test_path_graph_distance_matches_dijkstra_oracle():
    sp = path_graph(3)
    oracle = ref.distances(sp)
    for i in range(3):
        for j in range(3):
            assert sp.distance(i, j) == oracle[i, j]
    assert sp.distance(0, 2) == 2.0


def test_disconnected_graph_raises():
    sp = Space(weights=[1.0, 1.0, 1.0], boundary=[0], metric="graph",
               edges=[[0, 1, 1.0]])
    with pytest.raises(DisconnectedSpaceError):
        sp.distance(0, 2)


def test_metric_axioms_on_random_triples(grid2d_small, rng):
    n = len(grid2d_small)
    idx = rng.integers(0, n, size=(10_000, 3))
    for i, j, k in idx[:200]:  # exact per-triple checks on a subsample
        dij = grid2d_small.distance(int(i), int(j))
        assert dij == grid2d_small.distance(int(j), int(i))
        assert dij <= grid2d_small.distance(int(i), int(k)) \
            + grid2d_small.distance(int(k), int(j)) + 1e-12
    # vectorized scan of the full sample
    i, j, k = idx.T
    ci, cj, ck = (grid2d_small.coords[v] for v in (i, j, k))
    dij = np.sqrt(((ci - cj) ** 2).sum(1))
    dik = np.sqrt(((ci - ck) ** 2).sum(1))
    dkj = np.sqrt(((ck - cj) ** 2).sum(1))
    assert np.all(dij <= dik + dkj + 1e-12)


# -- balls ----------------------------------------------------------------------


def test_ball_radius_zero_is_singleton(grid1d):
    b = grid1d.ball(100, 0.0)
    assert list(b.members) == [100]


def test_ball_negative_radius_rejected(grid1d):
    with pytest.raises(SpaceFormatError):
        grid1d.ball(0, -0.1)


def test_ball_21_members_oracle():
    sp = interval_grid(101)  # h = 0.01 on [0,1]
    x = 50  # the point 0.5
    b = sp.ball(x, 0.1)
    # oracle: enumerate every point and count d <= r
    d = np.abs(sp.coords[:, 0] - sp.coords[x, 0])
    expected = np.flatnonzero(d <= 0.1)
    assert np.array_equal(b.members, expected)
    assert len(b) == 21


def test_ball_beyond_diameter_is_whole_space(grid1d):
    assert len(grid1d.ball(17, grid1d.diameter() + 1.0)) == len(grid1d)


def test_ball_membership_monotone_in_radius(grid1d, rng):
    for _ in range(20):
        x = int(rng.integers(len(grid1d)))
        r1, r2 = sorted(rng.uniform(0, 1, size=2))
        m1 = set(grid1d.ball(x, r1).members)
        m2 = set(grid1d.ball(x, r2).members)
        assert m1 <= m2


# -- measures -------------------------------------------------------------------


def test_measure_empty_set_is_zero(grid1d):
    assert grid1d.measure([]) == 0.0


def test_measure_ball_oracle():
    sp = interval_grid(101)
    b = sp.ball(50, 0.1)
    oracle = float(sp.weights[b.members].sum())
    assert sp.measure(b.members) == oracle
    assert abs(oracle - 0.21) < 1e-12  # 21 atoms of h = 0.01


def test_measure_additive_and_monotone(grid1d, rng):
    n = len(grid1d)
    for _ in range(50):
        a = np.flatnonzero(rng.uniform(size=n) < 0.3)
        b = np.flatnonzero(rng.uniform(size=n) < 0.3)
        union = np.union1d(a, b)
        inter = np.intersect1d(a, b)
        lhs = grid1d.measure(union) + grid1d.measure(inter)
        rhs = grid1d.measure(a) + grid1d.measure(b)
        assert abs(lhs - rhs) < 1e-12
        assert grid1d.measure(inter) <= grid1d.measure(a) + 1e-15


def test_measure_symdiff_triangle(grid1d, rng):
    def symdiff(a, b):
        return np.setxor1d(a, b)

    n = len(grid1d)
    for _ in range(50):
        a, b, c = (np.flatnonzero(rng.uniform(size=n) < 0.3) for _ in range(3))
        ab = grid1d.measure(symdiff(a, b))
        ac = grid1d.measure(symdiff(a, c))
        cb = grid1d.measure(symdiff(c, b))
        assert ab <= ac + cb + 1e-12
        assert abs(grid1d.measure(a) - grid1d.measure(b)) <= ab + 1e-12


# -- boundary geometry ------------------------------------------------------------


def test_boundary_point_distance_zero(grid1d):
    d = grid1d.boundary_distances()
    for b in grid1d.boundary_indices:
        assert d[b] == 0.0


def test_dist_to_boundary_1d_closed_form():
    sp = interval_grid(11)  # h = 0.1
    x = 3  # the point 0.3
    assert abs(sp.boundary_distances()[x] - 0.3) < 1e-15


def test_ell_is_half_width(grid1d):
    # oracle: max over the grid of the boundary distance
    oracle = max(min(grid1d.distance(i, int(b)) for b in grid1d.boundary_indices)
                 for i in range(0, len(grid1d), 16))
    assert grid1d.ell() == 0.5
    assert grid1d.ell() >= oracle


def test_empty_boundary_is_configuration_error():
    sp = Space(weights=[1.0, 1.0], boundary=[],
               coords=[[0.0], [1.0]], metric="euclidean")
    with pytest.raises(ConfigurationError):
        sp.boundary_distances()


def _shuffled_line():
    return shuffled(interval_grid(65), 2)


def _reversed_line():
    # every point its own strip, the strips in descending key order
    return reordered(interval_grid(65), np.arange(65)[::-1])


def _uneven_rows():
    """Rows of 1 to 9 points at random heights and uneven row spacing; the
    boundary is seven points, so most rows have none."""
    rng = np.random.default_rng(4)
    rows = [(x, np.sort(rng.uniform(0.0, 3.0, size=rng.integers(1, 10))))
            for x in np.cumsum(rng.uniform(0.05, 0.5, size=30))]
    coords = np.concatenate([np.column_stack([np.full(len(y), x), y]) for x, y in rows])
    return Space(coords=coords, weights=np.ones(len(coords)),
                 boundary=rng.choice(len(coords), size=7, replace=False))


def _left_edge_grid():
    """square_grid(33) whose boundary is its first row and one far point:
    every other row but one has no boundary point."""
    sp = square_grid(33)
    return Space(coords=sp.coords, weights=sp.weights,
                 boundary=np.append(np.arange(33), 33 * 20 + 30))


@pytest.mark.parametrize("make", [
    lambda f: square_grid(33), lambda f: disk_grid(33),
    lambda f: f("permuted_grid"), lambda f: interval_grid(65),
    lambda f: cloud(3, 300, 11), lambda f: cloud(8, 300, 11), lambda f: lattice_graph(13, 11),
    lambda f: f("random_graph")(2, split=True, boundary=[0, 7]),
    lambda f: f("matrix_space"), lambda f: _shuffled_line(),
    lambda f: _reversed_line(), lambda f: _uneven_rows(),
    lambda f: _left_edge_grid(), lambda f: square_grid(129),
    lambda f: disk_grid(97)],
    ids=["square", "disk", "permuted", "interval", "cloud3d", "cloud8d", "lattice",
         "graph_unbounded_component", "matrix", "shuffled_line", "reversed_line",
         "uneven_rows", "rows_without_boundary", "square129", "disk97"])
def test_boundary_distances_equal_blocked_minimum(make, request):
    # the bits of the closed-form distance rows, in 8 dimensions too, where
    # sum() pairs the squares (see space._squares)
    sp = make(request.getfixturevalue)
    reference = ref.nearest(sp, sp.boundary_indices)
    assert np.array_equal(sp.boundary_distances(), reference)


def test_graph_component_without_boundary_reads_inf(random_graph):
    d = random_graph(2, split=True, boundary=[0, 7]).boundary_distances()
    assert np.isfinite(d[:30]).all() and np.isinf(d[30:]).all()


def _decades_graph(seed, n=200, m=600, repeats=False, lonely=False):
    """Random graph with lengths 10^-3 .. 10^3; repeats adds every edge
    again, reversed, at a new length, plus self-loops; lonely adds a
    component of five points without a boundary point."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(2, m))
    edges = [np.column_stack([i, j, 10.0 ** rng.uniform(-3, 3, m)])]
    if repeats:
        loops = rng.integers(0, n, 20)
        edges += [np.column_stack([j, i, 10.0 ** rng.uniform(-3, 3, m)]),
                  np.column_stack([loops, loops, rng.uniform(0.5, 2.0, 20)])]
    else:
        edges[0] = edges[0][i != j]
    if lonely:
        edges.append([[n + k, n + k + 1, 10.0 ** (k - 2)] for k in range(4)])
    size = n + 5 * lonely
    return Space(weights=np.ones(size), metric="graph", edges=np.vstack(edges),
                 boundary=rng.choice(n, 4, replace=False))


@pytest.mark.parametrize("make, lonely", [
    (lambda: space_from_dict(lattice_doc(65)), 0), (lambda: path_graph(41), 0),
    (lambda: lattice_graph(13, 11), 0),
    *[(lambda s=s: _decades_graph(s), 0) for s in range(3)],
    (lambda: _decades_graph(3, repeats=True), 0),
    (lambda: _decades_graph(4, lonely=True), 5),
    (lambda: path_graph(2001), 0), (hub_star, 0)],
    ids=["lattice65", "path41", "lattice13x11", "decades0", "decades1", "decades2",
         "repeats_and_loops", "lonely_component", "path2001", "hub"])
def test_graph_nearest_boundary_equals_dijkstra(make, lonely):
    # the search by rounds and Dijkstra's settle order reach the same least
    # float path sum, bit for bit; the last `lonely` points have no path to
    # the boundary and read inf
    sp = make()
    got = sp.boundary_distances()
    assert np.array_equal(got, ref.nearest(sp, sp.boundary_indices))
    assert np.isinf(got[len(sp) - lonely:]).all()
    targets = np.random.default_rng(len(sp)).choice(len(sp), 3, replace=False)
    assert np.array_equal(sp._metric.boundary_distances(targets),
                          ref.nearest(sp, targets))


def test_diameter_2d_is_sqrt2(grid2d_small):
    assert abs(grid2d_small.diameter() - np.sqrt(2.0)) < 1e-15


def test_diameter_of_collinear_points_without_a_hull():
    # ConvexHull refuses a flat 2D cloud; the pair scan takes over
    x = np.linspace(0.0, 1.0, 7)
    sp = Space(weights=np.ones(7), boundary=[0, 6],
               coords=np.column_stack([x, 2.0 * x]))
    assert abs(sp.diameter() - np.sqrt(5.0)) < 1e-15


@pytest.mark.parametrize("make, expected", [
    (lambda: path_graph(41), 40.0),
    (lambda: lattice_graph(13, 11), 22.0),
    # components {0, 1, 2} (largest distance 3) and {3, 4} (5): the
    # infinite distances between them do not count
    (lambda: Space(weights=np.ones(5), metric="graph", boundary=[0, 3],
                   edges=[[0, 1, 1.0], [1, 2, 2.0], [3, 4, 5.0]]), 5.0),
])
def test_graph_diameter_oracle(make, expected):
    assert make().diameter() == expected


@pytest.mark.parametrize("make", [
    lambda g: path_graph(41), lambda g: lattice_graph(13, 11),
    *[lambda g, s=s: g(s) for s in range(6)],
    *[lambda g, s=s: g(s, split=True) for s in range(6)],
    lambda g: g(7, parallel=True)])
def test_graph_diameter_equals_all_pairs_maximum(make, random_graph):
    # the diameter takes a few Dijkstra rows; the all-pairs scan takes one
    # per point
    sp = make(random_graph)
    d = ref.distances(sp)
    assert sp.diameter() == d[np.isfinite(d)].max()


@pytest.mark.parametrize("make", [
    lambda: interval_grid(257), lambda: square_grid(33), lambda: disk_grid(65),
    lambda: cube_grid(9, boundary=[0]),
    lambda: Space(coords=np.column_stack([np.linspace(0.0, 1.0, 7),
                                          np.linspace(0.0, 2.0, 7)]),
                  weights=np.ones(7), boundary=[0]),
    lambda: cloud(2, 3000, 1, boundary=[0]), lambda: cloud(3, 3000, 2, boundary=[0]),
    lambda: cloud(2, 4000, 3, disk=True, boundary=[0]),
    lambda: path_graph(41), lambda: lattice_graph(13, 11),
    # components {0, 1, 2} and {3, 4}, and node 5 on its own
    lambda: Space(weights=np.ones(6), metric="graph", boundary=[0, 3],
                  edges=[[0, 1, 1.0], [1, 2, 2.0], [3, 4, 5.0]]),
    lambda: Space(coords=[[0.3, 0.7]], weights=[1.0], boundary=[0])],
    ids=["interval", "square", "disk", "cube", "collinear", "cloud2d", "cloud3d",
         "disk-cloud", "path", "lattice", "components-and-isolated", "one-point"])
def test_diameter_equals_all_pairs_maximum(make):
    # one search for Euclidean and graph spaces, exact to the last bit
    sp = make()
    rows = np.arange(len(sp))
    oracle = max(float(d[np.isfinite(d)].max())
                 for d in (sp.distances(rows[lo:lo + 256])
                           for lo in range(0, len(sp), 256)))
    assert sp.diameter() == oracle


def test_matrix_diameter_is_largest_entry(matrix_space):
    assert matrix_space.diameter() == matrix_space.distances(
        np.arange(len(matrix_space))).max()


def test_matrix_resolution_is_smallest_off_diagonal_entry(matrix_space):
    d = matrix_space.distances(np.arange(len(matrix_space)))
    assert matrix_space.resolution() == d[~np.eye(len(d), dtype=bool)].min()


@pytest.mark.parametrize("dim", range(1, 11))
def test_cloud_resolution_is_least_off_diagonal_distance(dim):
    # the least closed-form distance, bit for bit: a KD-tree's own
    # distances moved it by an ulp in 4 or 5 of these seeds at 8 to 10
    # dimensions
    for seed in range(20):
        sp = cloud(dim, 200, seed, boundary=[0])
        assert sp.resolution() == ref.least_distance(sp), seed


def _tiny_rows():
    """A 5-by-9 grid in raveled order whose first three rows lie 3e-160 and
    4e-160 apart, below TINY."""
    return Space(coords=np.column_stack([np.repeat([0.0, 3e-160, 7e-160, 0.5, 1.0], 9),
                                         np.tile(np.linspace(0.0, 1.0, 9), 5)]),
                 weights=np.ones(45), boundary=[0])


@pytest.mark.parametrize("make", [
    lambda: shuffled(square_grid(33), 6), lambda: cube_grid(9),
    lambda: Space(coords=[[0.2, 0.9], [0.7, 0.1]], weights=[1.0, 1.0], boundary=[0]),
    lambda: Space(coords=[[0.0, 0.5], [3e-160, 0.5], [1.0, 0.5], [0.5, 1.0]],
                  weights=np.ones(4), boundary=[0]),
    _tiny_rows, lambda: shuffled(_tiny_rows(), 1)],
    ids=["shuffled_grid", "cube9", "two_points", "tiny_coordinate", "tiny_rows",
         "shuffled_tiny_rows"])
def test_resolution_is_least_off_diagonal_distance(make):
    # and the balls of that radius hold the pairs at it: a gap of 3e-160
    # squares to a subnormal, which the closed form reads 6e-6 short, far
    # past HAIR (the key searches widen every reach by TINY as well)
    sp = make()
    r, d = ref.least_distance(sp), ref.distances(sp)
    members, _ = sp.balls(np.arange(len(sp)), np.full(len(sp), r))
    assert members.tolist() == np.nonzero(d <= r)[1].tolist()
    assert sp.resolution() == r


# -- probes ---------------------------------------------------------------------


def test_annular_decay_1d_close_to_analytic(grid1d):
    est = grid1d.probe_annular_decay(1.0, seed=0)
    h, r_min = grid1d.resolution(), 16 * grid1d.resolution()
    assert 1.0 <= est <= 1.0 * (1 + 10 * h / r_min)


def test_annular_decay_2d_close_to_analytic(grid2d_65):
    est = grid2d_65.probe_annular_decay(1.0, seed=0)
    h, r_min = grid2d_65.resolution(), 16 * grid2d_65.resolution()
    assert 1.9 <= est <= 2.0 * (1 + 10 * h / r_min)


def test_annular_decay_skips_degenerate_annuli():
    sp = interval_grid(5)
    # every shell is below r_min: no valid samples, clamped estimate
    assert sp.probe_annular_decay(1.0, seed=0) == 1.0


def test_annular_decay_rejects_bad_delta(grid1d):
    with pytest.raises(SpaceFormatError):
        grid1d.probe_annular_decay(1.5)


def test_doubling_1d(grid1d):
    est = grid1d.probe_doubling(seed=0)
    assert 1.8 <= est <= 2.05


def test_doubling_2d(grid2d_65):
    est = grid2d_65.probe_doubling(seed=0)
    assert 3.5 <= est <= 4.4


def test_doubling_single_point_space():
    sp = Space(weights=[2.0], boundary=[], coords=[[0.0]], metric="euclidean")
    assert sp.probe_doubling() == 1.0


def test_ring_continuity_no_new_members(grid1d):
    h = grid1d.resolution()
    # radii strictly inside the first shell: no jumps after the start
    assert grid1d.probe_ring_continuity(128, [h / 4, h / 3, h / 2]) == 0.0


def test_ring_continuity_sweep_oracle():
    sp = interval_grid(101)
    h = sp.resolution()
    radii = np.arange(1, 41) * h + h / 2  # between-shell radii
    jump = sp.probe_ring_continuity(50, radii)
    # oracle: single-step jump is two atoms over the running ball measure
    mus = [sp.measure(sp.ball(50, r).members) for r in radii]
    oracle = max((b - a) / b for a, b in zip(mus[:-1], mus[1:]))
    assert jump == oracle


def test_ring_continuity_halves_with_h():
    radii = np.linspace(0.25, 0.5, 65)
    coarse = interval_grid(129).probe_ring_continuity(64, radii)
    fine = interval_grid(257).probe_ring_continuity(128, radii)
    assert 0.4 <= fine / coarse <= 0.6


def test_ring_continuity_rejects_unsorted(grid1d):
    with pytest.raises(SpaceFormatError):
        grid1d.probe_ring_continuity(10, [0.3, 0.2])


@pytest.mark.parametrize("radii", [0.3, [[0.1, 0.2]]], ids=["scalar", "nested"])
def test_ring_continuity_rejects_radii_that_are_no_sequence(grid1d, radii):
    # a scalar ended in len()'s TypeError
    with pytest.raises(SpaceFormatError, match="radii must be strictly increasing"):
        grid1d.probe_ring_continuity(10, radii)


@pytest.mark.parametrize("radii", [[0.1, np.nan], [np.nan, 0.2], [0.1, np.inf],
                                   [-np.inf, 0.2]])
def test_ring_continuity_rejects_non_finite_radii(radii):
    # [0.1, nan] read 0.0 and [nan, 0.2] read 1.0
    with pytest.raises(SpaceFormatError, match="ring radius is not finite"):
        square_grid(9).probe_ring_continuity(40, radii)


PROBES = {"geodesic": lambda sp, **kw: sp.probe_geodesic_defect(**kw),
          "doubling": lambda sp, **kw: sp.probe_doubling(**kw),
          "annular": lambda sp, **kw: sp.probe_annular_decay(1.0, **kw),
          "report": lambda sp, **kw: sp.probe_report(**kw)}


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("make", [lambda: square_grid(9), lambda: path_graph(9)],
                         ids=["grid", "graph"])
@pytest.mark.parametrize("key, value", [
    ("samples", np.nan), ("samples", 2.5), ("samples", -5), ("samples", "8"),
    ("samples", True), ("seed", -1), ("seed", 1.5), ("seed", np.nan), ("seed", None)])
def test_probes_refuse_a_count_that_is_no_nonnegative_integer(probe, make, key, value):
    # samples=nan ended in numpy's "negative dimensions" ValueError, 2.5 in
    # a TypeError, the doubling probe ran silently at samples=-5, and a
    # seed of -1 ended in numpy's ValueError
    with pytest.raises(SpaceFormatError, match=f"{key} must be a nonnegative integer"):
        PROBES[probe](make(), **{key: value})


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probes_take_numpy_integers(probe):
    sp = square_grid(9)
    plain = PROBES[probe](sp, samples=8, seed=1)
    assert PROBES[probe](sp, samples=np.int64(8), seed=np.uint8(1)) == plain


def test_geodesic_defect_graph_is_zero():
    assert path_graph(9).probe_geodesic_defect() == 0.0


def test_geodesic_defect_grid_small(grid2d_small):
    defect = grid2d_small.probe_geodesic_defect(samples=16, seed=0)
    # 8-neighbor lattice paths stretch straight lines by at most ~8.3%
    assert 0.0 <= defect <= 0.09 * grid2d_small.diameter()


@pytest.mark.parametrize("make", [
    lambda: square_grid(17), lambda: disk_grid(33), lambda: interval_grid(65),
    lambda: cube_grid(9), lambda: cloud(2, 300, 2, boundary=np.arange(20))],
    ids=["square", "disk", "interval", "cube", "cloud"])
def test_geodesic_defect_equals_the_reference(make):
    # the hop graph is a graph Space searched by its own engine; the
    # reference builds its hops from dense rows and runs scipy's Dijkstra
    sp = make()
    for seed, samples in ((0, 16), (1, 64)):
        assert sp.probe_geodesic_defect(samples=samples, seed=seed) == \
            ref.geodesic_defect(sp, samples, seed)


def test_geodesic_defect_of_the_cloud_is_infinite():
    # the 300-point cloud's hop graph has more than one component
    assert cloud(2, 300, 2, boundary=np.arange(20)).probe_geodesic_defect(16) == np.inf


@pytest.mark.parametrize("make", [lambda: square_grid(9), lambda: path_graph(9)],
                         ids=["grid", "graph"])
def test_geodesic_probe_needs_a_sample(make):
    # on the grid a max over no sources ended in ValueError
    with pytest.raises(SpaceFormatError, match="at least one sample, got 0"):
        make().probe_report(samples=0)


def test_probe_report_fields(grid1d):
    rep = grid1d.probe_report(samples=50, seed=0)
    doc = rep.to_dict()
    assert doc["doubling_estimate"] >= 1.0
    assert all(v >= 1.0 for v in doc["annular_decay_estimates"].values())
    assert 0.0 <= doc["ring_jump"] < 1.0
    assert doc["geodesic_defect"] >= 0.0


def test_probe_report_without_coordinates():
    # the probe centers of a space without coordinates are its first and
    # last points plus seeded random ones
    doc = path_graph(9).probe_report(samples=20, seed=0).to_dict()
    assert doc["doubling_estimate"] >= 1.0
    assert all(v >= 1.0 for v in doc["annular_decay_estimates"].values())
    assert doc["geodesic_defect"] == 0.0


def test_annular_decay_of_one_point_is_one():
    sp = Space(coords=[[0.5]], weights=[1.0], boundary=[0])
    assert sp.resolution() == 0.0
    assert sp.probe_annular_decay(1.0) == 1.0


# -- the disk grid -----------------------------------------------------------------


def test_disk_grid_structure():
    sp = disk_grid(33)
    c = np.array([0.5, 0.5])
    r = np.sqrt(((sp.coords - c) ** 2).sum(1))
    assert np.all(r <= 0.5 + 1e-12)
    assert len(sp.boundary_indices) > 0
    assert len(sp.interior_indices) > 0
    # boundary points hug the circle
    assert r[sp.boundary_indices].min() > 0.5 - 2.5 * sp.resolution()


@pytest.mark.parametrize("n, radius", [(5, 0.5), (6, 0.3), (33, 0.5), (40, 0.45),
                                       (41, 0.7)])
def test_disk_grid_boundary_is_where_a_neighbour_leaves(n, radius):
    # the reference loop: a kept point with a 4-neighbour off the kept lattice
    sp = disk_grid(n, radius)
    ij = np.rint(sp.coords * (n - 1)).astype(int).tolist()
    kept = set(map(tuple, ij))
    boundary = [k for k, (i, j) in enumerate(ij) if any(
        q not in kept for q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)))]
    assert sp.boundary_indices.tolist() == boundary


@pytest.mark.parametrize("nx, ny", [(3, 3), (3, 7), (6, 4), (9, 9)])
def test_graph_generators_keep_their_edge_rows(nx, ny):
    # the reference loops: per node in index order, the edge to (i + 1, j)
    # before the edge to (i, j + 1); the frame in index order
    edges = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                edges.append([i * ny + j, (i + 1) * ny + j, 0.25])
            if j + 1 < ny:
                edges.append([i * ny + j, i * ny + j + 1, 0.25])
    frame = [i * ny + j for i in range(nx) for j in range(ny)
             if i in (0, nx - 1) or j in (0, ny - 1)]
    sp = lattice_graph(nx, ny, 0.25)
    assert sp.edges.tolist() == edges and sp.boundary_indices.tolist() == frame
    assert path_graph(nx, 0.25).edges.tolist() == [[i, i + 1, 0.25] for i in range(nx - 1)]


# -- loader validation --------------------------------------------------------------


def _point(i, w=1.0, boundary=False, coords=None):
    p = {"id": i, "weight": w, "boundary": boundary}
    if coords is not None:
        p["coords"] = coords
    return p


def test_loader_round_trip_euclidean(tmp_path):
    doc = {
        "metric": "euclidean",
        "points": [_point(10, 0.5, True, [0.0]), _point(11, 0.5, False, [0.5]),
                   _point(12, 0.5, True, [1.0])],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    from pharmonious import load_space
    sp = load_space(path)
    assert len(sp) == 3
    assert list(sp.ids) == [10, 11, 12]
    assert sp.distance(0, 2) == 1.0


def test_loader_rejects_empty_points():
    with pytest.raises(SpaceFormatError, match="no points"):
        space_from_dict({"metric": "euclidean", "points": []})


def test_loader_rejects_nonpositive_weight():
    with pytest.raises(SpaceFormatError, match="weight"):
        space_from_dict({"metric": "euclidean",
                         "points": [_point(0, 0.0, coords=[0.0])]})


def test_loader_rejects_negative_edge():
    doc = {"metric": "graph",
           "points": [_point(0), _point(1)],
           "edges": [[0, 1, -2.0]]}
    with pytest.raises(SpaceFormatError, match="edge"):
        space_from_dict(doc)


def test_loader_refuses_flags_that_are_not_booleans(tmp_path, capsys):
    # "false" and "no" are truthy: both points joined the boundary, and
    # "geodesic": "false" read geodesic_like=True
    def doc(flags, geodesic=None):
        return {"metric": "euclidean", "geodesic": geodesic,
                "points": [_point(10 + k, boundary=f, coords=[float(k)])
                           for k, f in enumerate(flags)]}
    sp = space_from_dict(doc([True, False, True], geodesic=True))
    assert sp.boundary_indices.tolist() == [0, 2] and sp.geodesic_like is True
    # null: the metric's default, not geodesic for a Euclidean cloud
    assert space_from_dict(doc([True, False, True])).geodesic_like is False
    for flag, name in (("false", "10"), ("no", "12"), (1, "10"), (None, "12")):
        flags = [flag if k == int(name) - 10 else k == 1 for k in range(3)]
        with pytest.raises(SpaceFormatError, match=f"boundary flag .* point id {name} "):
            space_from_dict(doc(flags))
    for geodesic in ("false", 0, 1.0, []):
        with pytest.raises(SpaceFormatError, match="geodesic"):
            space_from_dict(doc([True, False, True], geodesic))
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps(doc(["false", False, "no"])))
    from pharmonious.cli import main
    assert main(["probe", "--space", str(bad), "--out", str(tmp_path)]) == 2
    assert "point id 10" in capsys.readouterr().err


def test_loader_rejects_asymmetric_matrix():
    doc = {"metric": "matrix",
           "points": [_point(0), _point(1)],
           "matrix": [[0.0, 1.0], [2.0, 0.0]]}
    with pytest.raises(SpaceFormatError, match="symmetric|asymmetric"):
        space_from_dict(doc)


def test_loader_rejects_triangle_violation():
    m = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    doc = {"metric": "matrix",
           "points": [_point(i) for i in range(3)],
           "matrix": m}
    with pytest.raises(SpaceFormatError, match="triangle"):
        space_from_dict(doc)


def test_triangle_check_is_exact_above_200_points():
    # a line metric on 400 points with one short cut: d(0, 2) = 3.5 exceeds
    # d(0, 1) + d(1, 2) = 2; 100K sampled triples used to miss it
    x = np.arange(400.0)
    m = np.abs(x[:, None] - x[None, :])
    Space(metric="matrix", matrix=m, weights=np.ones(400), boundary=[0, 399])
    m[0, 2] = m[2, 0] = 3.5
    with pytest.raises(SpaceFormatError, match="triangle"):
        Space(metric="matrix", matrix=m, weights=np.ones(400),
              boundary=[0, 399])


def test_loader_rejects_duplicate_points_in_matrix():
    m = [[0.0, 0.0], [0.0, 0.0]]
    doc = {"metric": "matrix", "points": [_point(0), _point(1)], "matrix": m}
    with pytest.raises(SpaceFormatError, match="duplicate"):
        space_from_dict(doc)


def test_non_integral_ids_are_refused_by_name():
    # int() truncated a point id 1.7 to 1 and an edge endpoint 2.9 to 2
    def doc(ids, edges):
        return {"metric": "graph", "edges": edges,
                "points": [_point(i, boundary=k == 0) for k, i in enumerate(ids)]}
    sp = space_from_dict(doc([0, 1, "2"], [[0, "1", 1.0], [1, 2, 1.0]]))
    assert sp.ids.tolist() == [0, 1, 2]
    assert sp.distance(0, 2) == 2.0
    for ids, edges, value in (([0, 1.7, "2"], [[0, 1, 1.0]], "1.7"),
                              ([0, 1, 2], [[0, 1.2, 1.0], [1, 2, 1.0]], "1.2"),
                              ([0, 1, 2], [[0, 1, 1.0], [1, 2.9, 1.0]], "2.9"),
                              ([0, "1.5", 2], [[0, 1, 1.0]], "'1.5'")):
        with pytest.raises(SpaceFormatError, match=f"point id {value} is not an integer"):
            space_from_dict(doc(ids, edges))
    line = {"coords": [[0.0], [1.0], [2.0]], "weights": [1.0] * 3, "boundary": [0]}
    assert Space(**line, ids=[0, "1", 2.0]).ids.tolist() == [0, 1, 2]
    for ids, value in (([0, 1.7, 2], "1.7"), (["0", "1.5", "2"], "'1.5'"),
                       ([0, "x", 2], "'x'"), ([0, None, 2], "None")):
        with pytest.raises(SpaceFormatError, match=f"point id {value} is not an integer"):
            Space(**line, ids=ids)


def test_ids_beyond_int64_are_refused_by_name():
    # the int64 cast raised an OverflowError, which no caller caught
    line = {"coords": [[0.0], [1.0], [2.0]], "weights": [1.0] * 3, "boundary": [0]}
    for big in (10 ** 20, -2 ** 63 - 1, 2 ** 63, 1e20, "100000000000000000000"):
        with pytest.raises(SpaceFormatError,
                           match=re.escape(f"point id {big!r} is outside the int64 range")):
            Space(**line, ids=[0, big, 2])
    assert Space(**line, ids=[0, 2 ** 63 - 1, -2 ** 63]).ids.tolist() == \
        [0, 2 ** 63 - 1, -2 ** 63]


def test_float_array_ids_beyond_int64_are_refused_by_range():
    # the int64 cast warned "invalid value encountered in cast", and the
    # junk it made was refused as "point ids must be integers"
    line = {"coords": [[0.0], [1.0], [2.0]], "weights": [1.0] * 3, "boundary": [0]}
    for ids, value in ((np.array([0, 1e20, 2]), "1e+20"),
                       (np.array([0, -1e20, 2]), "-1e+20"),
                       (np.array([0, 2.0 ** 63, 2]), "9.223372036854776e+18"),
                       (np.array([0, 2 ** 63, 2], dtype=np.uint64),
                        "9223372036854775808")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpaceFormatError,
                               match=re.escape(f"point id {value} is outside the int64 range")):
                Space(**line, ids=ids)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpaceFormatError, match="point id nan is not an integer"):
            Space(**line, ids=np.array([0, np.nan, 2]))
        assert Space(**line, ids=np.array([0, -2.0 ** 63, 2])).ids.tolist() == \
            [0, -2 ** 63, 2]


@pytest.mark.parametrize("coords", [
    [[0.0], [1e-200], [1.0]],
    # the pair 0, 2 is not adjacent in the lexicographic order
    [[0.0, 0.0], [7.0, 5e-201], [0.0, 1e-200]]], ids=["line", "plane"])
def test_distinct_points_at_distance_zero_are_refused(coords):
    # these constructed, and distance(0, 1) (on the line) read 0.0
    with pytest.raises(SpaceFormatError,
                       match="duplicate points: zero distance between distinct ids"):
        Space(coords=coords, weights=[1.0] * 3, boundary=[0, 2])


def test_tiny_coordinates_apart_are_kept():
    sp = Space(coords=[[0.0], [1e-150], [1.0]], weights=[1.0] * 3, boundary=[0, 2])
    assert sp.distance(0, 1) == 1e-150


@pytest.mark.parametrize("make, message", [
    (lambda: interval_grid(2), "interval grid needs at least 3 points"),
    (lambda: square_grid(2), "square grid needs at least 3 points per side"),
    (lambda: disk_grid(4), "disk grid needs at least 5 points per side"),
    (lambda: path_graph(2), "path graph needs at least 3 nodes"),
    (lambda: lattice_graph(2, 5), "lattice graph needs at least 3 nodes per side"),
    (lambda: lattice_graph(5, 2), "lattice graph needs at least 3 nodes per side")])
def test_generators_refuse_too_few_points(make, message):
    with pytest.raises(SpaceFormatError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: path_graph(5, "a"), "edges must be a rectangular array of numbers"),
    (lambda: lattice_graph(4, 5, [1.0, 2.0]),
     "edges must be a rectangular array of numbers"),
    (lambda: lattice_graph(4, 5, None), "non-finite edge entry"),
    (lambda: path_graph(5, -1.0), "negative edge weight")])
def test_graph_generators_refuse_a_weight_that_is_not_a_number(make, message):
    # refused by Space as the rows [i, i + 1, weight] of a list were
    with pytest.raises(SpaceFormatError, match=message):
        make()


def test_space_refuses_no_points_duplicate_ids_and_unknown_index():
    with pytest.raises(SpaceFormatError, match="no points"):
        Space(coords=np.zeros((0, 1)), weights=[], boundary=[])
    line = {"coords": [[0.0], [1.0], [2.0]], "weights": [1.0] * 3, "boundary": [0, 2]}
    with pytest.raises(SpaceFormatError, match="duplicate point ids"):
        Space(**line, ids=[4, 5, 4])
    # two ids for three points were refused as "duplicate point ids"
    for ids, shape in (([0, 1], "(2,)"), ([0, 1, 2, 3], "(4,)"),
                       ([[0], [1], [2]], "(3, 1)"), (7, "()")):
        with pytest.raises(SpaceFormatError, match=re.escape(
                f"point ids of shape {shape} for a space of 3 points")):
            Space(**line, ids=ids)
    sp = Space(**line)
    for call in (sp.distances_from, lambda i: sp.ball(i, 1.0)):
        for bad in (-1, 3):
            with pytest.raises(SpaceFormatError, match=f"unknown point index {bad}"):
                call(bad)


@pytest.mark.parametrize("call", [
    lambda sp, rho: sp.ball(1.5, 0.2),
    lambda sp, rho: sp.distance(0.5, 2.7),
    lambda sp, rho: sp.distances([1.5]),
    lambda sp, rho: sp.distances([1], [2.5]),
    lambda sp, rho: sp.distances_from(1.5),
    lambda sp, rho: sp.pair_distances([1.5], [2]),
    lambda sp, rho: sp.ball_runs([1.5], [0.2]),
    lambda sp, rho: sp.balls([1.5], [0.2]),
    lambda sp, rho: sp.pair_scan(members=[0.5, 2.5]),
    lambda sp, rho: sp.measure([1.5]),
    lambda sp, rho: BallTable(sp, rho, centers=[1.5]),
    lambda sp, rho: ball_symdiff_ratio(sp, rho, 1.5, 3),
    lambda sp, rho: ball_symdiff_ratio(sp, rho, 3, 1.5),
    lambda sp, rho: empirical_holder(sp, np.zeros(len(sp)), [0.5, 2.5], 1.0),
    lambda sp, rho: alpha_mean_value(sp, rho, np.zeros(len(sp)), 1.5, 0.3),
    lambda sp, rho: check_alpha_mean_modulus(sp, rho, np.zeros(len(sp)), 0.3, [1.5, 3],
                                             Modulus.identity(1.0)),
    lambda sp, rho: Space(coords=[[0.0], [1.0], [2.0]], weights=[1.0] * 3,
                          boundary=[0.5, 2]),
    lambda sp, rho: Space(metric="graph", edges=[[0, 1.5, 1.0], [1, 2, 1.0]],
                          weights=[1.0] * 3, boundary=[0, 2])],
    ids=["ball", "distance", "distances-rows", "distances-cols", "distances-from",
         "pair-distances", "ball-runs", "balls", "pair-scan",
         "measure", "ball-table", "symdiff-first", "symdiff-second",
         "empirical-holder", "alpha-mean-value", "alpha-mean-modulus", "boundary",
         "graph-edge"])
def test_non_integral_point_indices_are_refused(call):
    # each read a truncated index: ball(1.5) was point 1's ball, and
    # ball_symdiff_ratio ended in a bare numpy IndexError
    sp = interval_grid(9)
    with pytest.raises(SpaceFormatError, match=r"point indices must be integers, got \[\d\.5"):
        call(sp, RadiusField.scaled_boundary_distance(sp, 0.4))


def test_integral_point_indices_of_any_dtype_are_read():
    sp = interval_grid(9)
    assert np.array_equal(sp.ball(2.0, 0.2).members, sp.ball(2, 0.2).members)
    assert sp.distance(np.float32(1.0), 3.0) == sp.distance(1, 3)
    assert np.array_equal(sp.distances(np.array([1.0, 4.0])), sp.distances([1, 4]))
    assert np.array_equal(sp.distances(np.array([1, 4], dtype=np.uint8)), sp.distances([1, 4]))
    assert sp.measure([]) == 0.0
    for bad in ("a", None, np.nan, np.inf):
        with pytest.raises(SpaceFormatError, match="point indices must be integers"):
            sp.ball(bad, 0.2)
    with pytest.raises(SpaceFormatError, match=re.escape("unknown point index [9.0, 1e+20, -1.0]")):
        sp.distances([9, 1e20, -1])


def test_matrix_space_distances_work():
    m = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    sp = space_from_dict({"metric": "matrix",
                          "points": [_point(0, boundary=True), _point(1),
                                     _point(2, boundary=True)],
                          "matrix": m})
    assert sp.distance(0, 2) == 2.0
    assert sp.boundary_distances()[1] == 1.0


# -- the metric layer -------------------------------------------------------------


def test_out_of_range_point_indices_rejected():
    # boundary=[-1] used to mark the last point silently
    for bad in ([-1], [3], [0, 5]):
        with pytest.raises(SpaceFormatError, match="out of range"):
            Space(coords=[[0.0], [1.0], [2.0]], weights=[1.0, 1.0, 1.0],
                  boundary=bad)
    sp = path_graph(5)
    for call in (lambda: sp.distances([-1]), lambda: sp.pair_scan([0, 5]),
                 lambda: sp.balls([7], [1.0])):
        with pytest.raises(SpaceFormatError, match="out of range"):
            call()


@pytest.mark.parametrize("make", [
    lambda f: square_grid(9), lambda f: path_graph(9), lambda f: interval_grid(9),
    lambda f: f("permuted_grid")])
def test_negative_radius_ball_is_empty(make, request):
    # the permuted grid's points are strips of one point each
    sp = make(request.getfixturevalue)
    members, counts = sp.balls([4, 5], [-1.0, 0.0])
    assert members.tolist() == [5] and counts.tolist() == [0, 1]
    members, counts = sp.balls([4], [-1.0])
    assert len(members) == 0 and counts.tolist() == [0]


@pytest.mark.parametrize("make", [
    lambda f: square_grid(9), lambda f: path_graph(9), lambda f: f("matrix_space"),
    lambda f: f("permuted_grid")], ids=["grid", "graph", "matrix", "permuted"])
@pytest.mark.parametrize("radius", [np.inf, -np.inf, np.nan])
def test_non_finite_ball_radius_is_refused(make, radius, request):
    # square_grid(9).ball(1, inf) held 9 of the 81 points (the chord end
    # 1j * inf is nan+infj), and a nan radius gave an empty ball
    sp = make(request.getfixturevalue)
    with pytest.raises(SpaceFormatError, match="not finite"):
        sp.balls([1, 2], [0.5, radius])
    if not radius < 0:  # ball() refuses a negative radius by its sign
        with pytest.raises(SpaceFormatError, match="not finite"):
            sp.ball(1, radius)


@pytest.mark.parametrize("make", [
    lambda: square_grid(33), lambda: disk_grid(33), lambda: interval_grid(65),
    _shuffled_line, _reversed_line, _uneven_rows, _left_edge_grid])
def test_one_key_column_spaces_search_boundary_by_strips(make, monkeypatch):
    # lines, raveled grids and disks, whose strips are keyed by one column,
    # take their boundary distances from the blocked minimum of the closed
    # form, on numpy alone
    sp = make()
    assert sp._metric._strips[2].shape[1] == 1
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)
    assert np.isfinite(sp.boundary_distances()).all()


@pytest.mark.parametrize("make", [
    lambda: cloud(2, 300, 11), lambda: cube_grid(9, boundary=[0]),
    lambda: shuffled(square_grid(33), 6)],
    ids=["cloud2d", "cube9", "shuffled_grid"])
def test_boundary_distances_of_multi_key_spaces_load_no_scipy(make, monkeypatch):
    # spaces whose keys have two or more columns take their boundary
    # distances on numpy alone; they used to build two KD-trees
    sp = make()
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)
    assert np.isfinite(sp.boundary_distances()).all()
    monkeypatch.undo()
    assert sp._metric._strips[2].shape[1] > 1


@pytest.mark.parametrize("dim", range(10))
def test_squares_rooted_equal_euclidean(dim):
    # the boundary query roots the summed squares from a block of points to
    # one target at a time: the bits of the distance blocks.  Dimension 0
    # is the leading slice c[:, :-1] of a line, which ball searches take
    rng = np.random.default_rng(dim)
    c = rng.uniform(-1.0, 1.0, (700, dim + 1)) * 10.0 ** rng.integers(-3, 4, (700, dim + 1))
    x, t = c[:400, :-1], c[400:, :-1]
    block = space_mod._euclidean(x[:, None, :], t[None, :, :])
    for j in range(0, 300, 7):
        assert np.array_equal(np.sqrt(space_mod._squares(x, t[j])),
                              block[:, j] if dim else block)


@pytest.mark.parametrize("dim", range(1, 10))
def test_euclidean_equals_the_summed_squares(dim):
    # one and two dimensions add the squares column by column; the bits
    # must stay those of sum() over the last axis, which outputs depend on
    # (it pairs eight or more terms)
    rng = np.random.default_rng(dim)
    a = rng.uniform(-1.0, 1.0, (400, 1, dim)) * 10.0 ** rng.integers(-3, 4, (400, 1, dim))
    b = rng.uniform(-1.0, 1.0, (1, 300, dim))
    diff = a - b
    assert np.array_equal(space_mod._euclidean(a, b),
                          np.sqrt((diff * diff).sum(axis=-1)))


@pytest.mark.parametrize("a, b", [
    ([0, 3, 3], [2, 3, 5]), ([0, 5], [2, 5]), ([3, 0], [3, 2]), ([4], [4]),
    ([], []), ([6, 6, 1, 9, 9], [6, 8, 3, 9, 12]), ([2, 7], [5, 8])],
    ids=["middle", "last", "first", "only", "none", "several", "nonempty"])
def test_run_members_skips_empty_runs(a, b):
    # empty runs used to shift the members after them, or raise IndexError
    want = [i for lo, hi in zip(a, b) for i in range(lo, hi)]
    got = space_mod.run_members(np.array(a, dtype=np.intp), np.array(b, dtype=np.intp))
    assert got.tolist() == want
    # filled in place, over whatever out held
    out = np.full(len(want), -7, dtype=np.intp)
    got = space_mod.run_members(np.array(a, dtype=np.intp), np.array(b, dtype=np.intp),
                                out=out)
    assert got is out and out.tolist() == want


def test_parallel_and_reversed_edges_collapse_to_smallest_weight(random_graph):
    # csr_matrix used to sum duplicates: d(0, 1) read 2.0
    sp = Space(weights=[1.0] * 3, boundary=[0], metric="graph",
               edges=[[0, 1, 1.0], [1, 0, 1.0], [0, 1, 3.0], [1, 2, 1.0],
                      [2, 2, 0.5], [1, 1, 0.0]])
    assert sp.distance(0, 1) == 1.0
    assert sp.boundary_distances().tolist() == [0.0, 1.0, 2.0]
    assert sp.resolution() == 1.0
    sp = random_graph(4, parallel=True)
    oracle = ref.distances(sp)
    assert np.allclose(sp.distances(np.arange(len(sp))), oracle, rtol=1e-13)
    with pytest.raises(SpaceFormatError, match="out of range"):
        Space(weights=[1.0] * 3, boundary=[0], metric="graph", edges=[[0, 5, 1.0]])


@pytest.mark.parametrize("weight, message", [(0.0, "duplicate points"),
                                             (np.nan, "non-finite"),
                                             (np.inf, "non-finite")])
def test_zero_or_non_finite_edge_weight_rejected(weight, message):
    with pytest.raises(SpaceFormatError, match=message):
        Space(weights=[1.0] * 3, boundary=[0], metric="graph",
              edges=[[0, 1, 1.0], [2, 1, weight]])


@pytest.mark.parametrize("query", ["fit_lipschitz", "graph_boundary",
                                   "euclidean_boundary"])
def test_whole_space_queries_visit_no_distance_block(query, monkeypatch):
    # fails if a Lipschitz fit or a boundary distance falls back to dense
    # distance blocks, which scan all pairs (or all boundary-point pairs)
    sp = square_grid(33) if query == "euclidean_boundary" else lattice_graph(33, 33)

    def refuse(*args, **kwargs):
        raise AssertionError("dense distance block requested")
    # every dense block, through Space.distances or not, is a backend's
    for backend in space_mod.METRICS.values():
        monkeypatch.setattr(backend, "distances", refuse)
    if query == "fit_lipschitz":
        rho = RadiusField(np.random.default_rng(1).uniform(size=len(sp)))
        assert fit_lipschitz(sp, rho) > 0 and rho.lipschitz_mode == "exact"
    else:
        assert np.isfinite(sp.boundary_distances()).all()


@pytest.mark.parametrize("make", [lambda g: path_graph(41),
                                  lambda g: lattice_graph(13, 11),
                                  lambda g: g(3, parallel=True)])
@pytest.mark.parametrize("factor", [0.4, 0.5, 1.0])
def test_graph_ball_table_matches_all_pairs_reference(make, factor, random_graph):
    # factors 0.5 and 1.0 put ball radii exactly on integer path lengths,
    # so ties at the Dijkstra cut-off are exercised; the random graph has
    # parallel edges and self-loops
    sp = make(random_graph)
    rho = RadiusField.scaled_boundary_distance(sp, factor)
    table = BallTable(sp, rho)
    cols, counts, _, _ = ref.balls(sp, table.centers, rho.values[table.centers])
    assert np.array_equal(table.indices, cols)
    assert np.array_equal(table.starts, np.cumsum(counts) - counts)


@pytest.mark.parametrize("make", [lambda g: lattice_graph(9, 7),
                                  lambda g: g(3, parallel=True)],
                         ids=["lattice", "parallel"])
def test_sampled_graph_pair_distances_equal_distance(make, random_graph, monkeypatch):
    # seeded random pairs, their distance rows taken a block of sources at
    # a time
    sp = make(random_graph)
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 5 * len(sp))
    i, j = np.random.default_rng(4).integers(0, len(sp), size=(2, 3000))
    d = sp.pair_distances(i, j)
    assert d.shape == i.shape
    assert np.array_equal(d, ref.distances(sp)[i, j])
    for a, b, dist in zip(i, j, d):
        assert dist == sp.distance(int(a), int(b))


def test_exact_pair_scan_covers_every_pair(grid2d_small):
    members = np.arange(0, len(grid2d_small), 7)
    scan = grid2d_small.pair_scan(members)
    assert scan.pairs == len(members) * (len(members) - 1) // 2
    covered = set()
    for i, j, d in scan.blocks:
        ii, jj = np.broadcast_arrays(i, j)
        covered |= {frozenset(p) for p in zip(ii.ravel().tolist(),
                                              jj.ravel().tolist()) if p[0] != p[1]}
        assert np.array_equal(d, grid2d_small.distances(i[:, 0], j[0]))
    assert len(covered) == scan.pairs


def test_only_space_module_reads_metric():
    import ast
    import pathlib
    src = pathlib.Path(space_mod.__file__).parent
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(src.glob("*.py")) if path.name != "space.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "metric"]
    assert readers == []
    # in space.py only Space.__init__ may look at the metric kind: it picks
    # the backend, and the backends answer everything else
    tree = ast.parse(pathlib.Path(space_mod.__file__).read_text())
    space_cls = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Space")
    init = next(node for node in space_cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    allowed = {id(node) for node in ast.walk(init)}
    kinds = {"euclidean", "graph", "matrix"}
    dispatches = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "metric"
                and isinstance(node.ctx, ast.Load)):
            dispatches.append(f"space.py:{node.lineno} reads .metric")
        if isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and leaf.value in kinds
                for operand in [node.left, *node.comparators]
                for leaf in ast.walk(operand)):
            dispatches.append(f"space.py:{node.lineno} compares with a metric kind")
    assert dispatches == []
