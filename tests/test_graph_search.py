"""Graph searches by rounds against scipy's Dijkstra, bit for bit, hubs
included (a hub heads a tree of copies of itself in the padded table), and
the engine of distance rows each space picks once, before its first search;
the adjacent-pair Holder scan against the full exact pair scan and, on
hubs, against Dijkstra's stopped searches; probes that read one row per
center, whatever the blocks."""

import itertools
import random

import numpy as np
import pytest

from pharmonious import (BallTable, RadiusField, Space, lattice_graph, path_graph,
                         space_constants, space_from_dict)
from pharmonious import space as space_mod
from pharmonious.radius import max_gap_ratio

import reference as ref
from conftest import hub_lattice_doc, hub_star, lattice_doc


def graph_with_strays(seed, n=300):
    """n nodes: the first n - 25 joined by two random edges each, then a
    cycle of 20 nodes apart from them and 5 isolated nodes, so that every
    row has unreachable entries; lengths spread over six decades."""
    rng = np.random.default_rng(seed)
    main = n - 25
    cycle = np.arange(main, main + 20)
    i = np.concatenate([np.repeat(np.arange(main), 2), cycle])
    j = np.concatenate([rng.integers(0, main, 2 * main), np.roll(cycle, 1)])
    w = 10.0 ** rng.uniform(-3.0, 3.0, len(i))
    return Space(weights=np.ones(n), boundary=[0], metric="graph",
                 edges=np.column_stack([i, j, w]))


def ring(n, weight=1.0):
    i = np.arange(n)
    return Space(weights=np.ones(n), boundary=[0], metric="graph",
                 edges=np.column_stack([i, (i + 1) % n, np.full(n, weight)]))


GRAPHS = {"lattice": lambda: lattice_graph(13, 11), "path": lambda: path_graph(41),
          **{f"random{seed}": (lambda seed=seed: graph_with_strays(seed)) for seed in range(3)}}


@pytest.mark.parametrize("limited", [False, True], ids=["full", "limit"])
@pytest.mark.parametrize("name", GRAPHS)
def test_rounds_equal_dijkstra(name, limited):
    sp = GRAPHS[name]()
    assert sp._metric._table is not None
    assert sp._metric._engine == "rounds"
    rows = np.arange(len(sp))
    reference = ref.distances(sp, rows)
    limit = np.inf
    if limited:  # a limit on an attained distance: ties at the cut-off
        limit = float(np.median(reference[np.isfinite(reference)]))
        reference = ref.distances(sp, rows, limit)
        assert 0 < np.isfinite(reference).mean() < 1
    assert np.isinf(reference).any() == (limited or name.startswith("random"))
    got = sp.distances(rows, limit=limit)
    assert got.tobytes() == reference.tobytes()
    cols = rows[::7]
    assert np.array_equal(sp.distances(rows[3:40], cols, limit), reference[3:40][:, cols])


# -- hubs: nodes of degree above the padded table's width -------------------------

HUBS = {"star": hub_star, "star20001": lambda: hub_star(20001),
        "lattice": lambda: space_from_dict(hub_lattice_doc())}


@pytest.fixture(scope="module", params=HUBS)
def hub_space(request):
    """A space whose point 0 is a hub: hub_star's 200 and 20001 points, and
    the 65x65 hub lattice."""
    return HUBS[request.param]()


def test_a_graph_with_a_hub_gets_a_padded_table(hub_space):
    # the hub's row links at 0.0 to copies of itself past the n points, each
    # row no wider than the rule's width; its rows run by rounds
    sp = hub_space
    table, length = sp._metric._table
    n = len(sp)
    # the stars' leaves have degree 1 (width 2); lattice points joined to
    # the hub have degree 5
    assert table.shape[1] == {200: 2, 20001: 2, 4225: 5}[n] and len(table) > n
    links = length[0] == 0.0
    assert links.any() and (table[0, links] >= n).all()
    assert np.isinf(length[0, ~links]).all()
    assert sp._metric._engine == "rounds"
    assert sp._metric.row_width(None) == len(table)
    assert sp.distances([0, 5]).shape == (2, n)


@pytest.mark.parametrize("limited", [False, True], ids=["full", "limit"])
def test_hub_rows_equal_dijkstra(hub_space, limited):
    sp = hub_space
    rows = np.array([0, 1, 5, len(sp) // 2, len(sp) - 1])  # the hub is row 0's source
    reference = ref.distances(sp, rows)
    limit = np.inf
    if limited:  # a limit on an attained distance: ties at the cut-off
        limit = float(np.median(reference))
        reference = ref.distances(sp, rows, limit)
        assert 0 < np.isfinite(reference).mean() < 1
    got = sp.distances(rows, limit=limit)
    assert got.shape == reference.shape and got.tobytes() == reference.tobytes()


def test_hub_boundary_distances_equal_dijkstra(hub_space):
    sp = hub_space
    assert sp.boundary_distances().tobytes() == \
        ref.nearest(sp, sp.boundary_indices).tobytes()
    targets = np.array([0, len(sp) - 1])  # the hub among the targets
    assert sp._metric.boundary_distances(targets).tobytes() == \
        ref.nearest(sp, targets).tobytes()


def test_hub_diameters_equal_dijkstra(hub_space):
    sp = hub_space
    rows = np.arange(len(sp))
    if len(sp) == 20001:
        # a path of the star holds two edges at most, so the longest
        # edge's leaf, the last, is as far from some point as any two are
        rows = rows[-1:]
    assert sp.diameter() == max(float(ref.distances(sp, rows[lo:lo + 500]).max())
                                for lo in range(0, len(rows), 500))


@pytest.mark.parametrize("hub", ["inside", "outside"])
def test_hub_adjacent_scans_equal_dijkstra(hub_space, hub):
    # the hub in K: its own search leaves through its copies, which never
    # stop; outside K: searches from other points pass through it
    sp = hub_space
    members = np.sort(np.random.default_rng(3).choice(np.arange(1, len(sp)), 60,
                                                      replace=False))
    if hub == "inside":
        members = np.append(0, members)
    i, j, d = (np.concatenate(x) for x in zip(*sp.pair_scan(members, lipschitz=True).blocks))
    order = np.lexsort((j, i))
    want = ref.adjacent_pairs(sp, members)
    assert np.array_equal(i[order], want[0]) and np.array_equal(j[order], want[1])
    assert d[order].tobytes() == want[2].tobytes()
    assert (0 in i) == (hub == "inside")


def test_deep_path_rows_run_on_dijkstra():
    sp = path_graph(2001)
    # a full row from point 0 takes 2001 rounds, past the cap
    assert sp._metric._engine == "dijkstra"
    reference = ref.distances(sp, [0, 1000, 2000])
    limited = sp.distances([0, 1000, 2000], limit=100.0)
    assert np.array_equal(limited, ref.distances(sp, [0, 1000, 2000], 100.0))
    assert np.array_equal(sp.distances([0, 1000, 2000]), reference)
    assert np.array_equal(sp.distances([7], limit=3.0), ref.distances(sp, [7], 3.0))


@pytest.mark.parametrize("row_first", [False, True])
def test_long_path_ball_table_equals_dijkstra_balls(row_first):
    sp = path_graph(2001)
    assert sp._metric._engine == "dijkstra"
    if row_first:
        sp.distances([0])
    rho = RadiusField.scaled_boundary_distance(sp, 0.4)
    table = BallTable(sp, rho)
    d = ref.distances(sp, table.centers)
    rows, cols = np.nonzero(d <= rho.values[table.centers][:, None])
    assert np.array_equal(table.indices, cols)
    assert np.array_equal(table.counts, np.bincount(rows, minlength=len(table.centers)))


def stray_zero(n=5001):
    """Point 0 alone, points 1 to n - 1 a unit path; boundary 0, 1, n - 1:
    a search from point 0 alone stops at once."""
    i = np.arange(1, n - 1)
    return Space(weights=np.ones(n), boundary=[0, 1, n - 1], metric="graph",
                 edges=np.column_stack([i, i + 1, np.ones(n - 2)]))


ENGINES = {"path": (lambda: path_graph(2001), "dijkstra"),
           "ring": (lambda: ring(401, 0.1), "dijkstra"),
           "lattice65_doc": (lambda: space_from_dict(lattice_doc(65)), "rounds"),
           "stray_zero": (stray_zero, "dijkstra")}


@pytest.mark.parametrize("name", ENGINES)
def test_engine_is_decided_before_the_first_search(name):
    # which queries come first changes neither the engine nor a bit
    make, engine = ENGINES[name]

    def table(sp):
        t = BallTable(sp, RadiusField.scaled_boundary_distance(sp, 0.4))
        return t.indices.tobytes() + t.counts.tobytes()

    def scan(sp):
        u = np.random.default_rng(5).normal(size=len(sp))
        return max_gap_ratio(sp, u, 1.0, np.array([3, 204]))[0]

    def probe(sp):
        centers = np.array([0, 17, len(sp) - 1])
        return b"".join(d.tobytes() for _, d in sp._distance_blocks(centers))

    runs = []
    for order in ((table, scan, probe), (probe, scan, table)):
        sp = make()
        assert sp._metric._engine == engine
        got = {step.__name__: step(sp) for step in order}
        assert sp._metric._engine == engine
        runs.append(got)
    assert runs[0] == runs[1]


# -- the adjacent-pair scan -------------------------------------------------------


def holey_sets(sp, seed):
    """Sets K: scattered points, a band with holes, two far blobs, all."""
    rng = np.random.default_rng(seed)
    n = len(sp)
    band = np.arange(n // 4, 3 * n // 4)

    def blob(center):  # the 30 points nearest to center
        return np.argsort(sp.distances([center])[0], kind="stable")[:30]
    return {"scattered": np.sort(rng.choice(n, n // 5, replace=False)),
            "holes": band[rng.uniform(size=len(band)) > 0.3],
            "blobs": np.union1d(blob(1), blob(n - 30)),
            "all": np.arange(n)}


SCANNED = {**GRAPHS, "lattice-tenths": lambda: lattice_graph(21, 17, edge_weight=0.1),
           "ring": lambda: ring(401, 0.1)}


@pytest.mark.parametrize("name", SCANNED)
def test_adjacent_scan_equals_the_full_scan(name):
    sp = SCANNED[name]()
    gaps = []
    for seed in range(2):
        # a rough field, whose ratio peaks on an edge, and a distance field,
        # whose ratio 1 (times a scale) is met on paths of many hops
        d = sp.distances([7 * seed])[0]
        fields = (np.random.default_rng(seed).normal(size=len(sp)),
                  np.where(np.isfinite(d), d, 0.0) * (1.0 + seed / 3.0))
        for u, members in itertools.product(fields, holey_sets(sp, seed).values()):
            value, pairs = max_gap_ratio(sp, u, 1.0, members)
            assert pairs == len(members) * (len(members) - 1) // 2
            full = ref.max_ratio(sp, u, members=members)
            # distances read past points of K are bounds: never above
            assert value <= full
            gaps.append((full - value) / full)
    # a few ulps at most (one on the ring's lengths of 0.1); none on unit
    # lengths
    assert max(gaps) <= 4 * np.finfo(float).eps, max(gaps)
    if name in ("lattice", "path"):
        assert max(gaps) == 0.0


def test_adjacent_scan_on_a_deep_ring_runs_by_rounds(monkeypatch):
    # two points of K on a ring of 401: each search walks 200 hops, by
    # rounds, though the ring's distance rows run on Dijkstra
    sp = ring(401, 0.1)
    assert sp._metric._engine == "dijkstra"
    monkeypatch.setattr(space_mod._Graph, "_dijkstra", None)
    u = np.random.default_rng(5).normal(size=len(sp))
    members = np.array([3, 204])
    value = max_gap_ratio(sp, u, 1.0, members)[0]
    assert value == ref.max_ratio(sp, u, members=members) > 0


def test_adjacent_scan_is_exact_at_any_size():
    sp = lattice_graph(9, 7)
    scan = sp.pair_scan(sp.interior_indices, lipschitz=True)
    assert scan.pairs == 35 * 34 // 2


@pytest.mark.parametrize("whole", [True, False], ids=["stored", "searched"])
def test_whole_space_scan_is_the_edge_list(whole):
    # K = X: every point's neighbours lie in K, so its pairs are its edges
    sp = graph_with_strays(4)
    members = None if whole else np.arange(len(sp))
    scan = sp.pair_scan(members, lipschitz=True)
    i, j, d = (np.concatenate(x) for x in zip(*scan.blocks))
    lo, hi, w = ref.edge_pairs(sp)
    pair = lo * len(sp) + hi
    assert np.array_equal(i * len(sp) + j, pair) and np.array_equal(d, w)


# -- probes -----------------------------------------------------------------------


def _counted_rows(monkeypatch):
    """The row counts of every _Graph.distances call, in a list."""
    calls = []
    real = space_mod._Graph.distances

    def counted(self, rows, cols=None, limit=np.inf):
        calls.append(len(rows))
        return real(self, rows, cols, limit)
    monkeypatch.setattr(space_mod._Graph, "distances", counted)
    return calls


def _probe_centers(sp, samples, seed):
    """How many centers one probe pass draws: the extremal and extra ones,
    then samples more."""
    first = sp._probe_centers(random.Random(seed), extra=max(4, samples // 8))
    return len(first) + samples


def test_probes_do_not_depend_on_their_blocks(monkeypatch):
    calls = _counted_rows(monkeypatch)
    blocked = space_from_dict(lattice_doc(33)).probe_report(samples=120, seed=2).to_dict()
    rows_taken, blocks = sum(calls), len(calls)
    # one row a block: every row taken alone
    calls.clear()
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 1)
    sp = space_from_dict(lattice_doc(33))
    assert sp.probe_report(samples=120, seed=2).to_dict() == blocked
    assert set(calls) == {1}
    # one pass: each probe center's row once, the same rows in either budget
    # (1,365 rows here when the probes predicted their drawn centers)
    assert rows_taken == len(calls) == _probe_centers(sp, 120, 2)
    assert blocks < len(calls) / 8


def test_probed_constants_take_one_row_per_center(monkeypatch):
    # the benchmark's lattice: the doubling and annular probes each took
    # their own rows, 279 in all
    calls = _counted_rows(monkeypatch)
    sp = space_from_dict(lattice_doc(65))
    constants = space_constants(sp, 1.0, seed=1)
    assert sum(calls) == _probe_centers(sp, 200, 1)
    assert all(type(constants[key]) is float for key in ("D_delta", "D_mu"))
