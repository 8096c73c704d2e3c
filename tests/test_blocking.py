"""One scratch budget, space.BLOCK_ENTRIES: every stage reads it at call
time, so one patch reaches them all, and no result depends on it."""

import numpy as np
import pytest

from pharmonious import (BallTable, RadiusField, disk_grid, empirical_holder,
                         exhaustion, hausdorff_gaps, lattice_graph, path_graph,
                         residual, square_grid)
from pharmonious import space as space_mod
from pharmonious.radius import gap_majorant, max_gap_ratio

from conftest import disk_cloud, run_ends

TINY = 37  # entries per block: most blocks hold one row, ball or pair


SPACES = {"square": lambda: square_grid(33), "disk": lambda: disk_grid(33),
          "lattice": lambda: lattice_graph(17, 17), "path": lambda: path_graph(41),
          "cloud": lambda: disk_cloud(500, 4)}


def _everything(make):
    """Every blocked result on a fresh space: boundary distances, ball-table
    arrays, alpha means, the residual without a table, the pair reductions,
    the Holder scan, the sup-inf gaps of two balls, the geodesic defect, the
    doubling and annular-decay probes and the diameter."""
    sp = make()
    out = {"boundary_distances": sp.boundary_distances()}
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    table = BallTable(sp, rho)
    u = np.sin(7.0 * np.arange(len(sp)) / len(sp)) / 3.0
    out.update({name: getattr(table, name) for name in (
        "centers", "counts", "starts", "weight_sums", "indices", "_first_run",
        "_ball_runs", "_query_lo", "_query_hi")})
    out["run_ends"] = run_ends(table)
    for alpha in (0.0, 0.3, 1.0):
        out[f"alpha_means {alpha}"] = table.alpha_means(u, alpha)
    out["residual"] = residual(sp, rho, u, 0.3)
    members = sp.interior_indices
    for exponent in (1.0, 0.5):
        out[f"max_gap_ratio {exponent}"] = max_gap_ratio(sp, u, exponent, members)
    omega = gap_majorant(sp, u, members)
    out["gap_majorant"] = (omega.ts, omega.ys)
    out["empirical_holder"] = empirical_holder(sp, u, members, 0.5)
    x, y = members[len(members) // 2], members[len(members) // 2 + 1]
    gaps = hausdorff_gaps(sp, rho, x, y)[0]
    out["hausdorff_gaps"] = (gaps.sup_inf_xy, gaps.sup_inf_yx)
    out["geodesic_defect"] = sp.probe_geodesic_defect(samples=16, seed=3)
    out["doubling"] = sp.probe_doubling()
    for delta in (0.5, 1.0):
        out[f"annular_decay {delta}"] = sp.probe_annular_decay(delta)
    out["diameter"] = sp.diameter()
    return out


def _bits(value):
    """value to compare bit for bit: tuples item by item, strings as they
    are, numbers and arrays by dtype, shape and bytes."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, str):
        return value
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("name", sorted(SPACES))
def test_no_result_depends_on_the_budget(name, monkeypatch):
    make = SPACES[name]
    whole = _everything(make)
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", TINY)
    sp = make()
    assert len(list(sp._exact_blocks(np.arange(len(sp))))) > len(sp) // 2
    tiny = _everything(make)
    assert whole.keys() == tiny.keys()
    for key, value in whole.items():
        assert _bits(value) == _bits(tiny[key]), key


def test_block_cuts_hold_the_budget_plus_one_item(monkeypatch):
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 100)
    rng = np.random.default_rng(0)
    for sizes in (rng.integers(0, 40, 500), rng.integers(0, 400, 50),
                  np.zeros(7, int), np.zeros(0, int), np.full(9, 100)):
        cuts = space_mod.block_cuts(sizes)
        assert cuts[0] == 0 and cuts[-1] == len(sizes)
        assert np.all(np.diff(cuts) > 0)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            assert sizes[lo:hi].sum() < 100 + sizes[hi - 1]


def test_distinct_is_np_unique():
    # block cuts, id checks and the modulus probes take sorted distinct
    # values without np.unique's masked-array check (it imports numpy.ma)
    rng = np.random.default_rng(1)
    for values in (rng.integers(0, 30, 200), rng.integers(0, 9, (7, 5)),
                   rng.choice([0.5, 1e-300, 2.0, 7.25], 40), np.zeros(0), np.ones(3)):
        got = space_mod.distinct(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))


def _benchmark_lattice():
    # the benchmark's 65x65 lattice: edges 1/64 long, scipy loaded
    sp = lattice_graph(65, 65, edge_weight=1.0 / 64)
    sp.distances([0])
    return sp


def test_lattice_table_build_holds_little_above_what_it_keeps(traced):
    # the weight sums listed all 233,433 members and weights in one block
    # and the Dijkstra ball search took 62 rows a block: 4.7 MB above kept
    sp = _benchmark_lattice()
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    kept, peak = traced(lambda: BallTable(sp, rho))
    assert peak < kept + 1.5e6, (kept, peak)


def test_lattice_holder_scan_holds_little(traced):
    # 1,089 points: 62 whole Dijkstra rows a block peaked at 3.8 MB
    sp = _benchmark_lattice()
    members = exhaustion(sp, 0.5, 2)
    assert len(members) == 1089
    u = np.random.default_rng(1).uniform(size=len(sp))
    _, peak = traced(lambda: empirical_holder(sp, u, members, 1.0))
    assert peak < 1.5e6, peak


def test_exact_blocks_fill_the_budget():
    # a Euclidean block is rows x the members from its first row on; sized
    # by the whole space, the 129^2 K_2 set took 15 rows a block throughout,
    # down to 375 entries
    sp = square_grid(129)
    members = exhaustion(sp, 0.5, 2)
    sizes = [d.size for _, _, d in sp._exact_blocks(members)]
    assert max(sizes) <= space_mod.BLOCK_ENTRIES
    assert min(sizes[:-1]) >= space_mod.BLOCK_ENTRIES // 2


@pytest.mark.parametrize("make, x, y", [(lambda: square_grid(129), 8320, 8321),
                                        (_benchmark_lattice, 2112, 2113)],
                         ids=["square129", "lattice65"])
def test_hausdorff_gaps_hold_little(make, x, y, traced):
    # the whole |B_x| x |B_y| distance block peaked at 66 MB on the 129^2
    # grid (2,061 x 2,001 members) and at 11.4 MB on the lattice
    sp = make()
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    hausdorff_gaps(sp, rho, x, y)  # the balls, resolution and L, kept
    _, peak = traced(lambda: hausdorff_gaps(sp, rho, x, y))
    assert peak < 2e6, peak


def test_geodesic_probe_holds_little(traced):
    # 64 Dijkstra rows on the hop graph and 64 distance rows, 16,641 wide,
    # peaked at 30 MB
    sp = square_grid(129)
    sp.probe_geodesic_defect(samples=1)  # the resolution and scipy, loaded
    _, peak = traced(lambda: sp.probe_geodesic_defect(samples=64))
    assert peak < 12e6, peak


def test_boundary_distances_hold_little(traced):
    # the strip walk took every point on both sides at once: 8.4 MB
    sp = square_grid(129)
    _, peak = traced(sp.boundary_distances)
    assert peak < 2.5e6, peak


def test_residual_without_a_table_holds_little(traced):
    # the whole table of 282,627 runs was built for one sweep: 12.0 MB
    sp = square_grid(129)
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, len(sp)) / 3.0
    _, peak = traced(lambda: residual(sp, rho, u, 0.3))
    assert peak < 5e6, peak


def test_sweep_buffers_hold_one_block_of_gathers():
    # one membership array (282,627 floats) and a second per-run array
    # took 3.1 MB besides the sparse table, a per-run array and the prefix
    # sums
    sp = square_grid(129)
    table = BallTable(sp, RadiusField.scaled_boundary_distance(sp, 0.4))
    table.alpha_means(np.zeros(len(sp)), 0.3)
    *arrays, gathers = table._buffers
    n, runs, balls = len(sp), len(table._query_lo), len(table.centers)
    widest = np.diff(np.append(table._first_run, len(table._ball_runs))).max()
    block = space_mod.BLOCK_ENTRIES + widest
    # views of the block and of the table, and one offset per ball
    held = sum(a.nbytes for a in arrays) + sum(g[3].nbytes for g in gathers)
    assert held <= 8 * (table._levels * n + runs + block + n + 1 + balls)
