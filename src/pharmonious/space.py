"""Finite discrete metric measure spaces.

A space is a finite weighted point cloud with a metric, a positive measure
atom per point, and a designated boundary subset.  Closed balls, set
measures, and boundary distances are the primitives every other module
builds on.  The metric is a backend picked once, from METRICS: closed-form
Euclidean, graph shortest path, or an explicit matrix.  The probe_* methods
estimate the structural constants the theory assumes (doubling, annular
decay, ring continuity, geodesicity): estimators with explicit degeneracy
guards, never proofs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DisconnectedSpaceError, SpaceFormatError

# Dense distance blocks hold about this many entries (rows * points).
BLOCK_ENTRIES = 1 << 18
# Pair scans visit every pair of up to EXACT_PAIR_LIMIT points and draw
# SAMPLED_PAIRS seeded random pairs above that, streamed in blocks of at
# most BLOCK_ENTRIES // 4 pairs.
EXACT_PAIR_LIMIT = 5_000
SAMPLED_PAIRS = 1_000_000
# The doubling and annular-decay probes skip radii below this many
# resolutions, where a ball's measure is dominated by single cells.
PROBE_R_MIN_CELLS = 16.0
# Key searches widen every reach by this factor, so that rounding never
# drops a strip the closed-form distance puts within reach.
HAIR = 1.0 + 1e-9

PairScan = namedtuple("PairScan", ["mode", "pairs", "blocks"])
PairScan.__doc__ = """Pairs of a point set: mode "exact" or "sampled", the
number of distinct pairs covered, and an iterator of (i, j, d) blocks with
point indices i, j broadcastable to the distance block d.  Each block is
computed when the iterator reaches it, so a scan holds one block at a time
(plus, when sampled, the draws: two int32 arrays of SAMPLED_PAIRS)."""


@dataclass(frozen=True)
class Ball:
    """Closed ball: members = {y : d(center, y) <= radius}, ascending ids."""

    center: int
    radius: float
    members: np.ndarray

    def __len__(self):
        return len(self.members)


@dataclass
class SpaceProbeReport:
    """Estimates of the structural constants of a space.

    doubling_estimate and the annular decay estimates are lower bounds for
    the best constants (max over sampled configurations, clamped at 1).
    ring_jump is the largest single-radius atom fraction of r -> mu(B(x,r));
    a discrete measure is never ring-continuous, so this reports the atom
    scale instead of a boolean.  geodesic_defect is the worst excess of
    hop-graph path length over metric distance on sampled pairs.
    """

    doubling_estimate: float
    annular_decay_estimates: dict
    ring_jump: float
    geodesic_defect: float
    samples: int = 0
    seed: int = 0

    def to_dict(self):
        return {
            "doubling_estimate": self.doubling_estimate,
            "annular_decay_estimates": {
                repr(k): v for k, v in self.annular_decay_estimates.items()
            },
            "ring_jump": self.ring_jump,
            "geodesic_defect": self.geodesic_defect,
            "samples": self.samples,
            "seed": self.seed,
        }


def _as_readonly(a, dtype, what):
    """a as a read-only array of dtype, refused when ragged or not numeric."""
    try:
        out = np.array(a, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceFormatError(f"{what} must be a rectangular array of numbers") from exc
    out.flags.writeable = False
    return out


def _euclidean(a, b):
    """Closed-form Euclidean distance between broadcast coordinate arrays.

    Every Euclidean distance goes through this formula, so ball membership
    ties and pair scans agree bit for bit wherever they are computed.  In
    one or two dimensions the squares are added column by column: the same
    sum x0^2 + x1^2 that sum() forms, without its slow reduction over a
    last axis of two."""
    if a.shape[-1] > 2:
        diff = a - b
        return np.sqrt((diff * diff).sum(axis=-1))
    sq = 0.0
    for k in range(a.shape[-1]):
        d = a[..., k] - b[..., k]
        d *= d
        sq = d if k == 0 else np.add(sq, d, out=d)
    return np.sqrt(sq)


def _flatten(lists):
    """(owner, item) arrays of a list of index lists, owner by owner."""
    sizes = np.fromiter(map(len, lists), np.intp, len(lists))
    items = np.fromiter(itertools.chain.from_iterable(lists), np.intp,
                        int(sizes.sum()))
    return np.repeat(np.arange(len(lists)), sizes), items


def _merge_runs(owner, a, b):
    """(owner, a, b) of the maximal runs of index intervals [a, b), given in
    ascending order per owner: index-adjacent intervals of one owner join."""
    if not len(a):
        return owner, a, b
    new = np.ones(len(a), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (a[1:] != b[:-1])
    at = np.flatnonzero(new)
    return owner[at], a[at], b[np.append(at[1:], len(a)) - 1]


def run_members(a, b):
    """The point indices of the runs [a, b), concatenated in run order: a
    running sum of steps of one that jumps from each run's end to the next
    run's start.  Empty runs add nothing."""
    keep = b > a
    a, b = a[keep], b[keep]
    ends = np.cumsum(b - a)
    step = np.ones(int(ends[-1]) if len(ends) else 0, dtype=np.intp)
    if len(step):
        step[0] = a[0]
        step[ends[:-1]] = a[1:] - b[:-1] + 1
    return np.cumsum(step)


# -- metric backends -------------------------------------------------------------


class _Metric:
    """A metric backend checks its input, holds its data and answers the
    queries of Space on checked point indices.  ball_intervals gives each
    ball's member intervals [a, b) and ball_width the entries one center's
    search holds; path_metric marks shortest-path distances.  The defaults
    read balls off dense distance blocks, know no Lipschitz edge block and
    find the diameter from a few distance rows (see diameter)."""

    path_metric = False
    edges = None

    def ball_width(self):
        return self.n

    def pair_order(self, members, a):
        """The order in which a sampled scan visits its pairs, whose sources
        are members[a]: None, as drawn."""
        return None

    def ball_intervals(self, centers, radii):
        block = self.distances(centers, limit=max(float(radii.max()), 0.0))
        owner, a = np.nonzero(block <= radii[:, None])
        return owner, a, a + 1

    def lipschitz_block(self):
        return None

    def diameter(self, comp=None):
        """Largest distance between points of comp (default: every point),
        exactly, from a few distance rows (Crescenzi et al., TCS 2013).

        A center u is sought first: a double sweep gives two far points,
        u minimizes the largest distance to the points swept so far, and
        the point farthest from u joins them while that lowers u's
        eccentricity.  Eccentricities are then taken in decreasing order of
        d(u, .); once the largest found is >= 2 d(u, w) for the next point
        w, widened by HAIR against rounding, it is the diameter, since the
        points not yet taken lie pairwise within d(w', u) + d(u, w'') <=
        2 d(u, w).
        """
        cols = comp
        comp = np.arange(self.n) if comp is None else comp

        def row(k):
            return self.distances(comp[[k]], cols)[0]

        swept = [row(0)]
        swept = [row(np.argmax(swept[0]))]
        swept.append(row(np.argmax(swept[0])))
        d_u = np.full(len(comp), np.inf)
        while True:
            d = row(np.argmin(np.max(swept, axis=0)))
            if d.max() >= d_u.max():
                break
            d_u = d
            swept.append(row(np.argmax(d_u)))
        found = float(np.max(swept))
        order = np.argsort(-d_u, kind="stable")
        taken, size = 0, 1
        while taken < len(comp) and found < HAIR * 2.0 * d_u[order[taken]]:
            batch = comp[order[taken:taken + size]]
            found = max(found, float(self.distances(batch, cols).max()))
            taken += len(batch)
            size = min(2 * size, max(1, BLOCK_ENTRIES // self.n))
        return found


class _Euclidean(_Metric):
    """Closed-form distances between distinct points (see _euclidean); balls
    and boundary distances search strips (see _strips), not dense blocks."""

    def __init__(self, space, coords=None, **_):
        if coords is None:
            raise SpaceFormatError("euclidean metric requires point coordinates")
        self.coords, self.n = coords, len(coords)
        c = coords[np.lexsort(coords.T)]
        if np.any(np.all(c[1:] == c[:-1], axis=1)):
            raise SpaceFormatError("duplicate points: zero distance between distinct ids")

    def distances(self, rows, cols=None, limit=np.inf):
        other = self.coords if cols is None else self.coords[cols]
        return _euclidean(self.coords[rows, None, :], other[None, :, :])

    def pair_distances(self, i, j):
        # np.take gathers rows several times faster than fancy indexing
        return _euclidean(np.take(self.coords, i, axis=0),
                          np.take(self.coords, j, axis=0))

    def ball_width(self):
        # a center has at most one candidate per strip
        return len(self._strips[0]) - 1

    def boundary_distances(self, targets):
        return self._strips[5](targets)

    def resolution(self):
        from scipy.spatial import cKDTree
        d, _ = cKDTree(self.coords).query(self.coords, k=2)
        return float(d[:, 1].min())

    @functools.cached_property
    def _strips(self):
        """(bounds, code, keys, ranks, near, nearest): the strips of the
        index order and what locates a point in them.

        A strip is a maximal run of consecutive indices whose points share
        every coordinate but the last, with the last strictly increasing
        (a row of a raveled grid); strip k holds bounds[k]:bounds[k + 1].
        The closed-form distance from any point is monotone in the last
        coordinate on either side of its nearest strip point, so a ball
        meets a strip in one index interval.  Strips are keyed by their
        leading coordinates (a zero on a line), keys per point.  When the
        strips average fewer than two points (a shuffled grid, a cloud)
        every point is its own strip, keyed by all its coordinates (see
        _near_keys for near and nearest).  ranks holds the distinct last
        coordinates, sorted, and code = strip * (len(ranks) + 1) + rank of
        the last coordinate, per point, as int64: the last coordinate
        increases along a strip, so code is sorted, and one searchsorted of
        strip * (len(ranks) + 1) + searchsorted(ranks, y) finds the first
        point of a strip whose last coordinate is >= y.
        """
        c = self.coords
        n, dim = c.shape
        joined = (np.all(c[1:, :-1] == c[:-1, :-1], axis=1)
                  & (c[1:, -1] > c[:-1, -1]))
        start = np.flatnonzero(np.concatenate([[True], ~joined]))
        if 2 * len(start) > n:
            start, keys = np.arange(n), c
        else:
            keys = c[:, :-1] if dim > 1 else np.zeros((n, 1))
        bounds = np.append(start, n)
        ranks, rank = np.unique(c[:, -1], return_inverse=True)
        code = np.repeat(np.arange(len(start)) * (len(ranks) + 1), np.diff(bounds)) + rank
        return bounds, code, keys, ranks, *self._near_keys(keys[start])

    def _near_keys(self, keys):
        """(near, nearest) for strips with these keys: near(at, reach) ->
        (owner, k), for each row of at the rows k of keys within reach of it
        (widened by HAIR), ascending; nearest(targets), every point's
        distance to its nearest target, as distances() gives it.

        One key column is searched by a searchsorted over the sorted keys
        (a ball's candidates re-sorted only when the key order is not the
        row order), and nearest is _strip_nearest.  More columns take
        KD-trees (scipy is imported here): nearest is the closed-form
        minimum over the targets within a HAIR of the tree's distance."""
        if keys.shape[1] > 1:
            from scipy.spatial import cKDTree
            tree = cKDTree(keys)

            def nearest(targets):
                c = self.coords
                to = cKDTree(c[targets])
                owner, near = _flatten(to.query_ball_point(
                    c, to.query(c)[0] * HAIR, return_sorted=True))
                out = np.full(self.n, np.inf)
                np.minimum.at(out, owner, self.pair_distances(targets[near], owner))
                return out
            return (lambda at, reach: _flatten(tree.query_ball_point(
                at, reach * HAIR, return_sorted=True))), nearest
        order = np.argsort(keys[:, 0], kind="stable")
        sorted_keys = keys[order, 0]
        ordered = bool(np.all(order[1:] > order[:-1]))

        def near(at, reach):
            at, reach = at[:, 0], reach * HAIR
            lo = np.searchsorted(sorted_keys, at - reach)
            hi = np.maximum(lo, np.searchsorted(sorted_keys, at + reach, "right"))
            owner = np.repeat(np.arange(len(at)), hi - lo)
            k = run_members(lo, hi)
            if ordered:
                return owner, k
            code = np.sort(owner * len(keys) + order[k])
            return owner, code - owner * len(keys)
        return near, self._strip_nearest

    def ball_intervals(self, centers, radii):
        """The balls' nonempty intervals [a, b) with each strip, found with
        the closed-form distance, so ties are decided exactly as distances()
        decides them; the candidate strips come from near (see _near_keys).

        One searchsorted over the codes puts the ends where the strip crosses
        the chord, last coordinate = center +- sqrt(r^2 - leading distance^2).
        Each end then steps by one index while the closed form disagrees: a
        down while a - 1 is inside, b up while b is inside, then a up while
        a is outside, b down while b - 1 is outside.  The closed form is
        monotone on either side of the strip's nearest point, so its
        interval overlaps or touches the chord's and the steps end on it
        exactly.  When every strip is one point, each candidate is checked.
        """
        bounds, code, keys, ranks, near, _ = self._strips
        c = self.coords
        owner, strip = near(keys[centers], radii)
        ctr, r, s0 = centers[owner], radii[owner], bounds[strip]
        if len(bounds) > len(c):  # strips of one point: the candidates themselves
            keep = self.pair_distances(s0, ctr) <= r
            return owner[keep], s0[keep], s0[keep] + 1
        s1 = bounds[strip + 1]
        half = np.sqrt(np.maximum(
            r ** 2 - _euclidean(c[s0, :-1], c[ctr, :-1]) ** 2, 0.0))
        a, b = np.searchsorted(code, strip * (len(ranks) + 1) + np.searchsorted(
            ranks, c[ctr, -1] + [[-1.0], [1.0]] * half))

        def inside(i, k):
            # closed-form membership of point i in ball k, False off its strip
            return ((i >= s0[k]) & (i < s1[k])
                    & (self.pair_distances(np.clip(i, 0, len(c) - 1), ctr[k]) <= r[k]))

        def walk(end, step, go):
            k = np.arange(len(end))
            while len(k):
                k = k[go(end[k], k)]
                end[k] += step

        walk(a, -1, lambda i, k: inside(i - 1, k))
        walk(b, 1, inside)
        walk(a, 1, lambda i, k: (i < b[k]) & ~inside(i, k))
        walk(b, -1, lambda i, k: (i > a[k]) & ~inside(i - 1, k))
        keep = a < b
        return owner[keep], a[keep], b[keep]

    def _strip_nearest(self, targets):
        """min over the targets t of d(t, x), for every point x, on a space
        whose strips are keyed by one coordinate (see _strips).

        The targets are grouped by strip, the groups sorted by key, and runs
        of about sqrt(groups) / 2 groups form blocks.  In a group or a
        block, one searchsorted finds the targets on either side of a
        point's last coordinate: its rank and the targets' strips are read
        off the strip codes (see _strips), and ranks are coded with the
        segment as the strips code them with the strip.  Of the two, the
        one with the smaller gap is the nearest there, since at a fixed key
        the closed form is monotone in the gap.  No rank table is built
        here.  Each point first takes the closed-form distance to the
        nearest target of the nearest group by key on either side: a bound.
        It then walks the blocks outward from its key, on both sides at
        once, and stops on a side once the key
        distance exceeds the bound by a HAIR.  A block whose key distance
        and smallest gap put all its targets beyond the bound is passed
        over; in the others, each group within the bound by key gives the
        closed-form distance to its nearest target, which lowers the bound.
        No distance block is built.
        """
        _, code, keys, ranks, _, _ = self._strips
        key, last = keys[:, 0], self.coords[:, -1]
        n, width = len(key), len(ranks) + 1
        rank = code % width
        t = targets[np.argsort(key[targets], kind="stable")]
        strip = code[t] // width
        new = np.append(True, strip[1:] != strip[:-1])
        group, group_key = np.cumsum(new) - 1, key[t[new]]
        groups, span = len(group_key), max(1, math.isqrt(len(group_key)) // 2)
        block = group // span + 1  # blocks 1..B; 0 and B + 1 end every walk
        k0, k1 = (np.concatenate([[np.nan], k, [np.nan]]) for k in (
            group_key[::span], group_key[np.minimum(
                np.arange(1, block[-1] + 1) * span, groups) - 1]))

        def coded(segment, x):
            # the rank of last[x] coded with a segment, as the strips code it
            return segment * width + rank[x]

        def index(segment):
            # the targets' codes by segment, sorted; the last coordinates in
            # that order; where each segment starts
            keyed = np.sort(coded(segment, t))
            return keyed, ranks[keyed % width], np.searchsorted(
                segment, np.arange(segment[-1] + 2))

        def nearest(index, s, x):
            # position and gap of the target nearest to last[x] in segment s
            keyed, values, start = index
            i = np.searchsorted(keyed, coded(s, x))
            lo, hi = np.maximum(i - 1, start[s]), np.minimum(i, start[s + 1] - 1)
            gap_lo, gap_hi = np.abs(values[lo] - last[x]), np.abs(values[hi] - last[x])
            return np.where(gap_hi < gap_lo, hi, lo), np.minimum(gap_lo, gap_hi)

        groups_index, blocks_index = index(group), index(block)
        best = np.full(n, np.inf)
        pos = np.searchsorted(group_key, key)
        x, g = np.tile(np.arange(n), 2), np.concatenate([pos, pos - 1])
        ok = (g >= 0) & (g < groups)
        xg, g = x[ok], g[ok]
        np.minimum.at(best, xg, self.pair_distances(
            t[nearest(groups_index, g, xg)[0]], xg))
        b = np.concatenate([pos // span + 1, pos // span])
        step = np.repeat([1, -1], n)
        while len(x):
            reach = best[x] * HAIR
            dk = np.maximum(np.maximum(k0[b] - key[x], key[x] - k1[b]), 0.0)
            ok = dk <= reach
            x, b, step, dk, reach = x[ok], b[ok], step[ok], dk[ok], reach[ok]
            gap = nearest(blocks_index, b, x)[1]
            keep = dk * dk + gap * gap <= reach * reach
            lo = (b[keep] - 1) * span
            hi = np.minimum(lo + span, groups)
            xg, g = np.repeat(x[keep], hi - lo), run_members(lo, hi)
            ok = np.abs(group_key[g] - key[xg]) <= best[xg] * HAIR
            xg, g = xg[ok], g[ok]
            np.minimum.at(best, xg, self.pair_distances(
                t[nearest(groups_index, g, xg)[0]], xg))
            b = b + step
        return best


class _Graph(_Metric):
    """Shortest paths by batched Dijkstra runs over undirected edges, each
    node pair at its smallest edge weight; self-loops are dropped.  The CSR
    stores every pair both ways at one weight, so Dijkstra runs directed on
    it as built, and the pairs (lo < hi, weight) are the Lipschitz block."""

    path_metric = True

    def __init__(self, space, edges=None, **_):
        if edges is None:
            raise SpaceFormatError("graph metric requires an edge list")
        e = _as_readonly(edges, float, "edges")
        if e.ndim != 2 or e.shape[1] != 3:
            raise SpaceFormatError("edges must be rows [i, j, weight]")
        if not np.all(np.isfinite(e)):
            raise SpaceFormatError("non-finite edge entry")
        if np.any(e[:, 2] < 0):
            raise SpaceFormatError("negative edge weight")
        self.edges = e
        n = self.n = len(space)
        # one undirected edge per node pair, at its smallest weight:
        # csr_matrix would sum parallel and reversed edges
        i, j = space._indices(e[:, 0]), space._indices(e[:, 1])
        keep = i != j
        if np.any(e[keep, 2] == 0):
            raise SpaceFormatError("duplicate points: zero distance between distinct ids")
        pair, slot = np.unique(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep],
                               return_inverse=True)
        w = np.full(len(pair), np.inf)
        np.minimum.at(w, slot, e[keep, 2])
        lo, hi = pair // n, pair % n
        self._edge_block = lo, hi, w
        from scipy import sparse
        self.graph = sparse.csr_matrix(
            (np.concatenate([w, w]),
             (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
            shape=(n, n))

    def distances(self, rows, cols=None, limit=np.inf):
        from scipy.sparse.csgraph import dijkstra
        block = dijkstra(self.graph, indices=rows, directed=True, limit=limit)
        return block if cols is None else block[:, cols]

    def pair_order(self, members, a):
        # by source: consecutive blocks share at most one source, so a scan
        # runs each Dijkstra row once, plus at most once more per block
        return np.argsort(members[a], kind="stable")

    def pair_distances(self, i, j):
        # grouped by source, one batched Dijkstra per block of sources
        out = np.empty(len(i))
        order = np.argsort(i, kind="stable")
        sources, first = np.unique(i[order], return_index=True)
        first = np.append(first, len(i))
        step = max(1, BLOCK_ENTRIES // self.n)
        for lo in range(0, len(sources), step):
            rows = sources[lo:lo + step]
            s = order[first[lo]:first[lo + len(rows)]]
            out[s] = self.distances(rows)[np.searchsorted(rows, i[s]), j[s]]
        return out

    def lipschitz_block(self):
        return self._edge_block

    def boundary_distances(self, targets):
        # one multi-source Dijkstra, inf on a component without targets
        from scipy.sparse.csgraph import dijkstra
        return dijkstra(self.graph, indices=targets, directed=True, min_only=True)

    def diameter(self):
        """Largest finite distance: the largest diameter of a connected
        component (see _Metric.diameter)."""
        from scipy.sparse.csgraph import connected_components
        _, label = connected_components(self.graph, directed=False)
        comps = np.split(np.argsort(label, kind="stable"),
                         np.cumsum(np.bincount(label))[:-1])
        return max((_Metric.diameter(self, comp) for comp in comps
                    if len(comp) > 1), default=0.0)

    def resolution(self):
        w = self.graph.data
        return float(w.min()) if w.size else 0.0


class _Matrix(_Metric):
    """An explicit distance matrix, checked to be a metric on distinct points."""

    def __init__(self, space, matrix=None, **_):
        self.n = n = len(space)
        m = None if matrix is None else _as_readonly(matrix, float, "distance matrix")
        if m is None or m.shape != (n, n):
            raise SpaceFormatError("matrix metric requires an n-by-n matrix")
        if not np.all(np.isfinite(m)):
            raise SpaceFormatError("non-finite distance entry")
        if not np.array_equal(m, m.T):
            raise SpaceFormatError("asymmetric distance matrix")
        if np.any(np.diag(m) != 0.0):
            raise SpaceFormatError("distance matrix has a nonzero diagonal")
        if np.any(m < 0):
            raise SpaceFormatError("negative distance entry")
        if np.any(m[~np.eye(n, dtype=bool)] <= 0):
            raise SpaceFormatError("duplicate points: zero distance between distinct ids")
        # d(i,k) <= d(i,j) + d(j,k) for every triple iff no path of
        # matrix entries is shorter than the direct entry
        from scipy.sparse.csgraph import shortest_path
        if np.any(m > shortest_path(m) + 1e-12 * np.maximum(m, 1.0)):
            raise SpaceFormatError("triangle inequality violated")
        self.matrix = m

    def distances(self, rows, cols=None, limit=np.inf):
        block = self.matrix[rows]
        return block if cols is None else block[:, cols]

    def pair_distances(self, i, j):
        return self.matrix[i, j]

    def boundary_distances(self, targets):
        return self.matrix[targets].min(axis=0)

    def diameter(self):
        return float(self.matrix.max())

    def resolution(self):
        return float(self.matrix[~np.eye(self.n, dtype=bool)].min())


# The metric kinds a Space is built on, and their backends.
METRICS = {"euclidean": _Euclidean, "graph": _Graph, "matrix": _Matrix}


class Space:
    """Immutable finite metric measure space with a boundary subset.

    Construction validates the weights, the coordinates (any metric may
    carry them) and, in the metric's backend, the metric contract.  After
    construction all queries are pure reads and safe to share.
    """

    def __init__(self, *, weights, boundary, coords=None, metric="euclidean",
                 edges=None, matrix=None, ids=None, analytic_constants=None,
                 geodesic_like=None):
        if not isinstance(metric, str) or metric not in METRICS:
            raise SpaceFormatError(f"unknown metric kind {metric!r}")
        self.metric = metric
        self.weights = _as_readonly(weights, float, "weights")
        n = len(self.weights)
        if n == 0:
            raise SpaceFormatError("no points")
        bmask = np.zeros(n, dtype=bool)
        bmask[self._indices(boundary)] = True
        self.boundary_mask = _as_readonly(bmask, bool, "boundary")
        try:
            with np.errstate(invalid="ignore"):  # 1e20 casts to junk, named below
                self.ids = _as_readonly(np.arange(n) if ids is None else ids, np.int64, "ids")
        except SpaceFormatError:  # name the id the cast refused, such as "1.5"
            for value in np.ravel(np.array(ids, dtype=object)):
                _point_id(value)
            raise
        if ids is not None:  # the int64 cast truncates 1.7 to 1 and wraps 2**63
            given = _as_readonly(ids, float, "ids")
            wrong = given[self.ids != given].tolist()
            for value in wrong:
                if abs(value) >= 2 ** 63:  # refused by its range first
                    _point_id(value)
            if wrong:
                raise SpaceFormatError(f"point ids must be integers, got {wrong}")
        if len(np.unique(self.ids)) != n:
            raise SpaceFormatError("duplicate point ids")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise SpaceFormatError("weights must be positive and finite")
        c = self.coords = None if coords is None else _as_readonly(coords, float, "coords")
        if c is not None and (c.ndim != 2 or c.shape[1] == 0 or len(c) != n):
            raise SpaceFormatError("coords must hold one row of numbers per point")
        if c is not None and not np.all(np.isfinite(c)):
            raise SpaceFormatError("non-finite point coordinate")
        self._metric = METRICS[metric](self, coords=c, edges=edges, matrix=matrix)
        self.edges = self._metric.edges
        self.analytic_constants = dict(analytic_constants) if analytic_constants else None
        self.geodesic_like = bool(self._metric.path_metric if geodesic_like is None
                                  else geodesic_like)
        self._bdry_dist = self._diameter = self._resolution = None

    # -- basic structure ----------------------------------------------------

    def __len__(self):
        return len(self.weights)

    @property
    def boundary_indices(self):
        return np.flatnonzero(self.boundary_mask)

    @property
    def interior_indices(self):
        return np.flatnonzero(~self.boundary_mask)

    # -- distances: point indices checked, then handed to the backend ---------

    def _check_index(self, i):
        if not 0 <= int(i) < len(self):
            raise SpaceFormatError(f"unknown point index {i}")
        return int(i)

    def _indices(self, a):
        a = np.asarray(a, dtype=np.intp).reshape(-1)
        if a.size and (a.min() < 0 or a.max() >= len(self)):
            raise SpaceFormatError(f"point index out of range 0..{len(self) - 1}: "
                                   f"{a[(a < 0) | (a >= len(self))].tolist()}")
        return a

    def distances(self, rows, cols=None, limit=np.inf):
        """Dense block d(rows, cols), cols default to every point; graph
        entries farther than limit read inf (limit is ignored elsewhere)."""
        cols = None if cols is None else self._indices(cols)
        return self._metric.distances(self._indices(rows), cols, limit)

    def distances_from(self, i):
        """Distance row d(i, .)."""
        return self.distances([self._check_index(i)])[0]

    def distance(self, i, j):
        d = float(self.pair_distances([self._check_index(i)],
                                      [self._check_index(j)])[0])
        if np.isinf(d):
            raise DisconnectedSpaceError(f"no path between points {i} and {j}")
        return d

    def _exact_blocks(self, members):
        """(i, j, d) blocks of row slices of members against the members
        from the slice on: every unordered pair appears at least once."""
        step = max(1, BLOCK_ENTRIES // len(self))
        for lo in range(0, len(members), step):
            rows, cols = members[lo:lo + step], members[lo:]
            yield rows[:, None], cols[None, :], self.distances(rows, cols)

    def pair_distances(self, i, j):
        """d(i[k], j[k]) for paired index arrays."""
        return self._metric.pair_distances(self._indices(i), self._indices(j))

    def pair_scan(self, members=None, seed=0, lipschitz=False):
        """PairScan over the points of members (default: the whole space).

        Exact up to EXACT_PAIR_LIMIT points.  Above it, SAMPLED_PAIRS seeded
        random pairs of distinct points; a reduction over them is a lower
        bound for the exact one.  The draws are held as int32 positions in
        members and streamed in blocks of at most BLOCK_ENTRIES // 4 pairs:
        a block is gathered, its pairs i == j dropped and its distances
        taken only when the iterator reaches it.  The backend picks the
        order of the pairs (see pair_order; graphs go by source).

        lipschitz=True says the caller takes max |f(x) - f(y)| / d(x, y).
        On a whole graph space that maximum is attained on an edge (sum the
        edge bounds along a shortest path): one exact block, at any size.
        """
        block = self._metric.lipschitz_block() if lipschitz and members is None else None
        if block is not None:
            n = len(self)
            return PairScan("exact", n * (n - 1) // 2, iter([block]))
        members = np.arange(len(self)) if members is None \
            else self._indices(members)
        n = len(members)
        if n <= EXACT_PAIR_LIMIT:
            return PairScan("exact", n * (n - 1) // 2, self._exact_blocks(members))
        rng = np.random.default_rng(seed)
        # int32 draws equal the default int64 ones value for value and leave
        # the generator where those leave it
        a = rng.integers(0, n, size=SAMPLED_PAIRS, dtype=np.int32)
        b = rng.integers(0, n, size=SAMPLED_PAIRS, dtype=np.int32)
        order = self._metric.pair_order(members, a)
        step = max(1, BLOCK_ENTRIES // 4)
        starts = range(0, len(a), step)

        def pairs(lo):
            at = slice(lo, lo + step) if order is None else order[lo:lo + step]
            i, j = members[a[at]], members[b[at]]
            keep = i != j
            return i[keep], j[keep]

        def blocks():
            for lo in starts:
                i, j = pairs(lo)
                yield i, j, self.pair_distances(i, j)
        return PairScan("sampled", sum(len(pairs(lo)[0]) for lo in starts), blocks())

    # -- balls and measures ---------------------------------------------------

    def balls(self, centers, radii):
        """Closed balls {y : d(c, y) <= r} as (members, counts): the members
        of every ball in ascending order, concatenated, and one count per
        ball; the runs of ball_runs, expanded."""
        a, b, _, counts = self.ball_runs(centers, radii)
        return run_members(a, b), counts

    def ball_runs(self, centers, radii):
        """Closed balls {y : d(c, y) <= r} as maximal runs [a, b) of
        consecutive point indices: (a, b, runs, counts), the runs of every
        ball in ascending order, concatenated, and per ball its number of
        runs and of members.  A negative radius gives an empty ball; a
        non-finite one is refused.  The backend searches one block of
        centers at a time (see _Euclidean.ball_intervals; graphs stop
        Dijkstra at the block's largest radius), holding one block of
        members at most."""
        centers = self._indices(centers)
        radii = np.asarray(radii, dtype=float).reshape(-1)
        if not np.all(np.isfinite(radii)):
            raise SpaceFormatError("ball radius is not finite")
        step = max(1, BLOCK_ENTRIES // self._metric.ball_width())
        parts = [(np.array([], dtype=np.intp),) * 3]
        for lo in range(0, len(centers), step):
            owner, a, b = _merge_runs(*self._metric.ball_intervals(
                centers[lo:lo + step], radii[lo:lo + step]))
            parts.append((owner + lo, a, b))
        owner, a, b = (np.concatenate(p) for p in zip(*parts))
        return (a, b, np.bincount(owner, minlength=len(centers)),
                np.bincount(owner, b - a, len(centers)).astype(np.intp))

    def ball(self, x, r):
        if r < 0:
            raise SpaceFormatError(f"negative ball radius {r}")
        x = self._check_index(x)
        members, _ = self.balls([x], [r])
        return Ball(center=x, radius=float(r), members=members)

    def measure(self, members):
        members = np.asarray(list(members) if isinstance(members, set) else members, dtype=int)
        if members.size == 0:
            return 0.0
        return float(self.weights[members].sum())

    # -- boundary geometry ----------------------------------------------------

    def boundary_distances(self):
        """dist(x, boundary) for every point, zero exactly on the boundary:
        one nearest-target query of the backend, not a scan of pairs."""
        if self._bdry_dist is None:
            b = self.boundary_indices
            if len(b) == 0:
                raise ConfigurationError("space has an empty boundary")
            out = self._metric.boundary_distances(b)
            out[b] = 0.0
            out.flags.writeable = False
            self._bdry_dist = out
        return self._bdry_dist

    def dist_to_boundary(self, x):
        x = self._check_index(x)
        return float(self.boundary_distances()[x])

    def ell(self):
        """Largest distance to the boundary over the space."""
        return float(self.boundary_distances().max())

    def diameter(self):
        """Largest finite distance."""
        if self._diameter is None:
            self._diameter = self._metric.diameter()
        return self._diameter

    def resolution(self):
        """Smallest positive inter-point distance (the grid step h on grids)."""
        if self._resolution is None:
            self._resolution = 0.0 if len(self) < 2 else self._metric.resolution()
        return self._resolution

    # -- probes ----------------------------------------------------------------

    def _probe_centers(self, rng, extra=4):
        """Extremal points (bounding box corners, deepest point) plus random ones."""
        centers = set()
        if self.coords is not None:
            lo, hi = self.coords.min(axis=0), self.coords.max(axis=0)
            for corner in itertools.product(*zip(lo, hi)):
                d2 = ((self.coords - np.asarray(corner)) ** 2).sum(axis=1)
                centers.add(int(np.argmin(d2)))
            mid = (lo + hi) / 2.0
            centers.add(int(np.argmin(((self.coords - mid) ** 2).sum(axis=1))))
        else:
            centers.add(0)
            centers.add(len(self) - 1)
        for _ in range(extra):
            centers.add(int(rng.integers(len(self))))
        return sorted(centers)

    def probe_annular_decay(self, delta=1.0, samples=200, seed=0):
        """Estimate the annular decay constant for the given exponent.

        Max over sampled (x, r, R) of mu(B(x,R)\\B(x,r)) / (((R-r)/R)^delta
        * mu(B(x,R))).  Radii snap to realized distances from the center so
        that annulus widths are honest multiples of the local shell spacing;
        samples with R - r below the grid resolution, or r below
        PROBE_R_MIN_CELLS resolutions, are skipped.  A deterministic
        structured family (extremal centers, thin shells at several radius
        fractions) is always included, plus seeded random samples.  Result
        is clamped below at 1.
        """
        if not 0.0 < delta <= 1.0:
            raise SpaceFormatError(f"annular decay exponent must be in (0, 1], got {delta}")
        res = self.resolution()
        if res <= 0:
            return 1.0
        r_min = PROBE_R_MIN_CELLS * res
        rng = np.random.default_rng(seed)
        best = 1.0

        def visit(d, R, r):
            nonlocal best
            if R <= 0 or R - r < res or r < r_min:
                return
            mu_R = float(self.weights[d <= R].sum())
            mu_ann = float(self.weights[(d > r) & (d <= R)].sum())
            est = mu_ann / (((R - r) / R) ** delta * mu_R)
            if est > best:
                best = est

        # structured shells at extremal centers
        for x in self._probe_centers(rng):
            d = self.distances_from(x)
            vals = np.unique(d[np.isfinite(d)])
            vals = vals[vals > 0]
            if len(vals) < 2:
                continue
            dmax = vals[-1]
            for frac in (0.5, 0.7, 0.85, 0.95, 1.0):
                k = np.searchsorted(vals, frac * dmax, side="right") - 1
                if k < 1:
                    continue
                R = vals[k]
                for cells in (1, 2, 4, 8):
                    width = cells * res
                    j = np.searchsorted(vals, R - width, side="right") - 1
                    if j < 0 or vals[j] >= R:
                        continue
                    visit(d, R, vals[j])

        # seeded random shells (wider: single-cell random shells are too noisy)
        width_floor = 2.0 * res
        for _ in range(samples):
            x = int(rng.integers(len(self)))
            d = self.distances_from(x)
            vals = np.unique(d[np.isfinite(d)])
            vals = vals[vals >= r_min]
            if len(vals) < 2:
                continue
            R = float(vals[rng.integers(1, len(vals))])
            lo = vals[vals <= R - width_floor]
            if len(lo) == 0:
                continue
            r = float(lo[rng.integers(len(lo))])
            visit(d, R, r)
        return best

    def probe_doubling(self, samples=200, seed=0):
        """Estimate the doubling constant: max mu(B(x,2r))/mu(B(x,r))."""
        res = self.resolution()
        if res <= 0:
            return 1.0
        rng = np.random.default_rng(seed)
        best = 1.0
        centers = self._probe_centers(rng, extra=max(4, samples // 8))
        quantiles = np.linspace(0.0, 1.0, 9)
        for x in centers:
            d = self.distances_from(x)
            vals = np.unique(d[np.isfinite(d)])
            vals = vals[vals >= PROBE_R_MIN_CELLS * res]
            if len(vals) == 0:
                continue
            picks = vals[np.unique((quantiles * (len(vals) - 1)).astype(int))]
            lo_r = rng.choice(vals, size=min(len(vals), max(1, samples // len(centers))))
            for r in np.unique(np.concatenate([picks, lo_r])):
                mu_r = float(self.weights[d <= r].sum())
                mu_2r = float(self.weights[d <= 2.0 * r].sum())
                best = max(best, mu_2r / mu_r)
        return best

    def probe_ring_continuity(self, x, radii):
        """Largest relative single-step jump of r -> mu(B(x,r)) over the sweep."""
        radii = np.asarray(radii, dtype=float)
        if len(radii) < 2 or np.any(np.diff(radii) <= 0):
            raise SpaceFormatError("radii must be strictly increasing")
        d = self.distances_from(x)
        mus = np.array([self.weights[d <= r].sum() for r in radii])
        jump = 0.0
        for a, b in zip(mus[:-1], mus[1:]):
            if b > 0:
                jump = max(jump, (b - a) / b)
        return jump

    def probe_geodesic_defect(self, samples=100, seed=0):
        """Worst excess of hop-graph path length over metric distance.

        Hop graph joins pairs within 1.5 resolutions, edge length = metric
        distance.  Path metrics (graphs) have defect 0 by construction.
        Infinite result means the hop graph is disconnected (strongly
        non-geodesic cloud).
        """
        if self._metric.path_metric:
            return 0.0
        res = self.resolution()
        if res <= 0 or len(self) < 3:
            return 0.0
        n = len(self)
        near, counts = self.balls(np.arange(n), np.full(n, 1.5 * res))
        from scipy import sparse
        from scipy.sparse.csgraph import dijkstra
        owner = np.repeat(np.arange(n), counts)
        adj = sparse.csr_matrix((self.pair_distances(owner, near), (owner, near)),
                                shape=(n, n))
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=min(samples, n), replace=False)
        # adj holds every hop both ways (balls are symmetric): run it as built
        paths = dijkstra(adj, indices=sources, directed=True)
        if not np.isfinite(paths).all():
            return float("inf")
        return max(0.0, float((paths - self.distances(sources)).max()))

    def probe_report(self, samples=200, seed=0, deltas=(0.5, 1.0)):
        rng = np.random.default_rng(seed)
        ann = {float(d): self.probe_annular_decay(d, samples=samples, seed=seed)
               for d in deltas}
        centers = self._probe_centers(rng, extra=2)
        jump = 0.0
        r_floor = PROBE_R_MIN_CELLS * self.resolution()
        for x in centers:
            d = self.distances_from(x)
            vals = np.unique(d[np.isfinite(d)])
            vals = vals[vals >= r_floor]
            if len(vals) < 2:
                continue
            sweep = vals[:: max(1, len(vals) // 200)]
            if len(sweep) >= 2:
                jump = max(jump, self.probe_ring_continuity(x, sweep))
        return SpaceProbeReport(
            doubling_estimate=self.probe_doubling(samples=samples, seed=seed),
            annular_decay_estimates=ann,
            ring_jump=jump,
            geodesic_defect=self.probe_geodesic_defect(samples=min(samples, 64), seed=seed),
            samples=samples,
            seed=seed,
        )


# -- built-in generators -------------------------------------------------------
#
# Grids carry their analytic constants (Lebesgue cell weights make the
# continuum annulus/doubling computations exact up to boundary cells).


def interval_grid(n, lo=0.0, hi=1.0):
    """1D grid with n points inclusive of both endpoints; boundary = {lo, hi}."""
    if n < 3:
        raise SpaceFormatError("interval grid needs at least 3 points")
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    return Space(
        coords=xs.reshape(-1, 1),
        weights=np.full(n, h),
        boundary=[0, n - 1],
        geodesic_like=True,
        analytic_constants={"doubling": 2.0, "annular_decay": {1.0: 1.0}},
    )


def square_grid(n, lo=0.0, hi=1.0):
    """n-by-n grid on [lo,hi]^2; boundary = outer frame; weights = h^2."""
    if n < 3:
        raise SpaceFormatError("square grid needs at least 3 points per side")
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    frame = (I == 0) | (I == n - 1) | (J == 0) | (J == n - 1)
    return Space(
        coords=coords,
        weights=np.full(n * n, h * h),
        boundary=np.flatnonzero(frame.ravel()),
        geodesic_like=True,
        analytic_constants={"doubling": 4.0, "annular_decay": {1.0: 2.0}},
    )


def disk_grid(n, radius=0.5):
    """Lattice points of the n-by-n unit-square grid inside the centered disk.

    Boundary = lattice points whose 4-neighborhood leaves the disk.
    """
    if n < 5:
        raise SpaceFormatError("disk grid needs at least 5 points per side")
    xs = np.linspace(0.0, 1.0, n)
    h = 1.0 / (n - 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    c = np.array([0.5, 0.5])
    r2 = ((coords - c) ** 2).sum(axis=1)
    inside = r2 <= radius * radius
    coords = coords[inside]

    kept = {tuple(np.round(p / h).astype(int)) for p in coords}
    bdry = []
    for k, p in enumerate(coords):
        i, j = np.round(p / h).astype(int)
        nb = [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        if any(q not in kept for q in nb):
            bdry.append(k)
    return Space(
        coords=coords,
        weights=np.full(len(coords), h * h),
        boundary=bdry,
        geodesic_like=True,
        analytic_constants={"doubling": 4.0, "annular_decay": {1.0: 2.0}},
    )


def path_graph(n, edge_weight=1.0, weights=None):
    """Path graph 0 - 1 - ... - (n-1) with unit weights; boundary = endpoints."""
    if n < 3:
        raise SpaceFormatError("path graph needs at least 3 nodes")
    edges = [[i, i + 1, edge_weight] for i in range(n - 1)]
    return Space(
        weights=np.full(n, 1.0) if weights is None else weights,
        boundary=[0, n - 1],
        metric="graph",
        edges=edges,
        analytic_constants={"doubling": 2.0, "annular_decay": {1.0: 1.0}},
    )


def lattice_graph(nx, ny, edge_weight=1.0):
    """nx-by-ny grid graph with unit edges; boundary = outer frame."""
    if nx < 3 or ny < 3:
        raise SpaceFormatError("lattice graph needs at least 3 nodes per side")
    def node(i, j):
        return i * ny + j
    edges = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                edges.append([node(i, j), node(i + 1, j), edge_weight])
            if j + 1 < ny:
                edges.append([node(i, j), node(i, j + 1), edge_weight])
    frame = [node(i, j) for i in range(nx) for j in range(ny)
             if i in (0, nx - 1) or j in (0, ny - 1)]
    return Space(
        weights=np.full(nx * ny, 1.0),
        boundary=frame,
        metric="graph",
        edges=edges,
        analytic_constants={"doubling": 4.0, "annular_decay": {1.0: 2.0}},
    )


# -- file format ---------------------------------------------------------------

def _point_id(value):
    """value as an integer point id: an integer, or a number or string that
    is one, within the int64 range ids are stored in; int() alone would
    truncate 1.7 to 1."""
    try:
        pid = int(value)
        integral = isinstance(value, str) or value == pid
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise SpaceFormatError(f"point id {value!r} is not an integer")
    if not -2 ** 63 <= pid < 2 ** 63:
        raise SpaceFormatError(f"point id {value!r} is outside the int64 range")
    return pid


def space_from_dict(doc):
    """Build a Space from the JSON document format.

    { "metric": "euclidean"|"graph"|"matrix",
      "points": [ {"id": int, "coords": [..]?, "weight": real, "boundary": bool} ],
      "edges": [ [i, j, w] ]?,        # graph metric, ids refer to point ids
      "matrix": [[..]]?,              # explicit matrix, point order
      "geodesic": bool? }
    """
    try:
        metric = doc["metric"]
        points = doc["points"]
    except (KeyError, TypeError) as exc:
        raise SpaceFormatError(f"missing required key: {exc}") from exc
    if not isinstance(points, list):
        raise SpaceFormatError("points must be a list of point records")
    if not points:
        raise SpaceFormatError("no points")
    ids, weights, coords, boundary = [], [], [], []
    for k, p in enumerate(points):
        try:
            pid = p["id"]
            weights.append(float(p["weight"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpaceFormatError(f"invalid point record #{k}: {p!r}") from exc
        ids.append(_point_id(pid))
        if weights[-1] <= 0:
            raise SpaceFormatError(f"nonpositive weight at point id {ids[-1]}")
        if p.get("boundary", False):
            boundary.append(k)
        if "coords" in p and p["coords"] is not None:
            coords.append(p["coords"])
    if coords and len(coords) != len(points):
        raise SpaceFormatError("coords given for some points but not all")
    id_to_index = {pid: k for k, pid in enumerate(ids)}
    if len(id_to_index) != len(ids):
        raise SpaceFormatError("duplicate point ids")
    edges = doc.get("edges")
    if edges is not None:
        # endpoint ids become point indices; Space converts the weights
        try:
            edges = [[id_to_index[_point_id(i)], id_to_index[_point_id(j)], w]
                     for i, j, w in edges]
        except KeyError as exc:
            raise SpaceFormatError(f"edge endpoint id {exc} not among points") from exc
        except SpaceFormatError:  # a non-integral endpoint id, named
            raise
        except (TypeError, ValueError) as exc:
            raise SpaceFormatError("edges must be rows [i, j, weight]") from exc
    return Space(
        coords=coords or None,
        weights=weights,
        boundary=boundary,
        metric=metric,
        edges=edges,
        matrix=doc.get("matrix"),
        ids=ids,
        geodesic_like=doc.get("geodesic"),
    )


def load_space(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(f"not valid JSON: {exc}") from exc
    return space_from_dict(doc)


def read_id_csv(space, path, column):
    """Per-point values from a CSV with header id,<column>: one finite value
    for every point id of the space."""
    values = np.empty(len(space))
    seen = np.zeros(len(space), dtype=bool)
    id_to_index = {int(pid): k for k, pid in enumerate(space.ids)}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["id", column]:
            raise SpaceFormatError(f"{path}: expected header 'id,{column}'")
        for row in reader:
            if not row:
                continue
            try:
                idx = id_to_index[int(row[0])]
                values[idx] = float(row[1])
            except (KeyError, ValueError, IndexError) as exc:
                raise SpaceFormatError(f"{path}: unknown or invalid id or value in row {row!r}") from exc
            if not np.isfinite(values[idx]):
                raise SpaceFormatError(f"{path}: non-finite {column} in row {row!r}")
            seen[idx] = True
    if not seen.all():
        raise SpaceFormatError(f"{path}: missing {column} for some points")
    return values


def write_id_csv(space, path, column, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", column])
        for pid, v in zip(space.ids, values):
            writer.writerow([int(pid), repr(float(v))])
