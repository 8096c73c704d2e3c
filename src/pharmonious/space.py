"""Finite discrete metric measure spaces.

A space is a finite weighted point cloud with a metric, a positive measure
atom per point, and a designated boundary subset.  Closed balls, set
measures, and boundary distances are the primitives every other module
builds on.  The metric is a backend picked once, from METRICS: closed-form
Euclidean, graph shortest path, or an explicit matrix.  The probe_* methods
estimate the structural constants the theory assumes (doubling, annular
decay, ring continuity, geodesicity): estimators with explicit degeneracy
guards, never proofs.  The doubling, annular-decay and ring probes read one
pass over one distance row per probe center (see Space._probe_pass).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DisconnectedSpaceError, SpaceFormatError

# The one scratch budget: a block of work holds about this many entries
# per array (512 KiB of float64), each stage counting the entries it
# allocates (see block_rows and block_cuts).
BLOCK_ENTRIES = 1 << 16
# A graph space with a component whose full search passes ROUND_CAP rounds
# runs its distance rows on scipy's Dijkstra (see _Graph._engine): a
# certify-shaped run (ball table, probes, adjacent-pair scan) on an n-by-n
# lattice took as long either way, scipy's import included, between n = 73
# (145 rounds) and 81; a corner row takes 2n - 1 rounds, so lattices up to 75
# per side stay on rounds.
ROUND_CAP = 150
# The doubling and annular-decay probes skip radii below this many
# resolutions, where a ball's measure is dominated by single cells.
PROBE_R_MIN_CELLS = 16.0
# Key searches widen every reach by this factor, so that rounding never
# drops a key the closed-form distance puts within reach (neither from the
# slab of the first key column nor by the closed-form key distance, see
# _near_keys); an analytic Lipschitz bound is widened by it against the
# rounding of its field.
HAIR = 1.0 + 1e-9
# Distinct floats differ by more than 1e-156, whose square is no subnormal,
# unless one of them is nonzero and smaller than TINY in magnitude; so only
# a point with such a coordinate can sit at closed-form distance 0.0 from a
# distinct point, or at one short of a coordinate gap by more than HAIR
# allows (a gap of 3e-160 reads 6e-6 short): key searches widen every reach
# by TINY as well.
TINY = 1e-140

PairScan = namedtuple("PairScan", ["pairs", "blocks"])
PairScan.__doc__ = """Every pair of a point set: the number of distinct
pairs, and an iterator of (i, j, d) blocks with point indices i, j
broadcastable to the distance block d.  Each block is computed when the
iterator reaches it, so a scan holds one block at a time."""


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
    the best constants (max over sampled configurations, clamped at 1),
    all from one pass over one distance row per probe center (see
    Space._probe_pass).  ring_jump is the largest single-radius atom
    fraction of r -> mu(B(x,r)) on the rows of that pass's extremal and
    extra centers; a discrete measure is never ring-continuous, so this
    reports the atom scale instead of a boolean.  geodesic_defect is the
    worst excess of hop-graph path length over metric distance on sampled
    pairs.
    """

    doubling_estimate: float
    annular_decay_estimates: dict
    ring_jump: float
    geodesic_defect: float
    samples: int = 0
    seed: int = 0

    def to_dict(self):
        # the fields in order, the decay exponents as keys by repr
        return {**asdict(self), "annular_decay_estimates": {
            repr(k): v for k, v in self.annular_decay_estimates.items()}}


def _as_readonly(a, dtype, what):
    """a as a read-only array of dtype, refused when ragged or not numeric."""
    try:
        out = np.array(a, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceFormatError(f"{what} must be a rectangular array of numbers") from exc
    out.flags.writeable = False
    return out


def point_values(values, what, n=None):
    """values (a ScalarField or RadiusField gives its .values) as a float
    array, not copied: the one check of per-point input.  Refused, naming
    what, when not numeric, of a shape other than (n,) when n is given, or
    not finite."""
    try:
        v = np.asarray(getattr(values, "values", values), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceFormatError(f"{what} must be an array of numbers") from exc
    if n is not None and v.shape != (n,):
        raise SpaceFormatError(f"{what} of shape {v.shape} for a space of {n} points")
    if not np.isfinite(v).all():
        bad = np.flatnonzero(~np.isfinite(v))
        raise SpaceFormatError(f"{what} is not finite at {len(bad)} points, "
                               f"first {bad[:10].tolist()}")
    return v


def _count(what, value):
    """value as an int: refused, naming what, unless it is a nonnegative
    integer (numpy's pass, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise SpaceFormatError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def block_rows(width):
    """Rows of width entries each that one block holds: BLOCK_ENTRIES //
    width, at least one."""
    return max(1, BLOCK_ENTRIES // width)


def block_cuts(sizes):
    """Cuts 0 = c_0 < ... < c_k = len(sizes) into blocks of consecutive
    items, an item holding sizes[i] entries: each block starts at the first
    item whose running start reaches the next multiple of BLOCK_ENTRIES, so
    it holds fewer than BLOCK_ENTRIES entries plus its last item's."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(ends[-1]) if len(ends) else 0
    return np.unique(np.concatenate([
        [0], np.searchsorted(starts, np.arange(0, total, BLOCK_ENTRIES)),
        [len(sizes)]]))


def _squares(a, b):
    """Summed squares of a - b over the last axis, broadcast: under every
    Euclidean distance (see _euclidean).

    In one or two dimensions the squares are added column by column: the
    same sum x0^2 + x1^2 that sum() forms, without its slow reduction over
    a last axis of two.  Above, sum() pairs the terms as it does (eight or
    more are not added in order).  No column gives 0.0."""
    if a.shape[-1] > 2:
        diff = a - b
        return (diff * diff).sum(axis=-1)
    sq = 0.0
    for k in range(a.shape[-1]):
        d = a[..., k] - b[..., k]
        d *= d
        sq = d if k == 0 else np.add(sq, d, out=d)
    return sq


def _euclidean(a, b):
    """Closed-form Euclidean distance between broadcast coordinate arrays:
    the square root of _squares.

    Every Euclidean distance goes through this formula, so ball membership
    ties, pair scans and boundary distances agree bit for bit wherever they
    are computed."""
    return np.sqrt(_squares(a, b))


def _merge_runs(owner, a, b):
    """(owner, a, b) of the maximal runs of index intervals [a, b), given in
    ascending order per owner: index-adjacent intervals of one owner join."""
    if not len(a):
        return owner, a, b
    new = np.ones(len(a), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (a[1:] != b[:-1])
    at = np.flatnonzero(new)
    return owner[at], a[at], b[np.append(at[1:], len(a)) - 1]


def run_members(a, b, out=None):
    """The point indices of the runs [a, b), concatenated in run order: a
    running sum of steps of one that jumps from each run's end to the next
    run's start.  Empty runs add nothing.  out, when given, is an intp
    array of exactly that many entries, filled in place."""
    keep = b > a
    a, b = a[keep], b[keep]
    ends = np.cumsum(b - a)
    step = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.intp) \
        if out is None else out
    step.fill(1)
    if len(step):
        step[0] = a[0]
        step[ends[:-1]] = a[1:] - b[:-1] + 1
    return np.cumsum(step, out=step)


# -- metric backends -------------------------------------------------------------


class _Metric:
    """A metric backend checks its input, holds its data and answers the
    queries of Space on checked point indices.  ball_intervals gives each
    ball's member intervals [a, b), ball_width the entries each center's
    search holds, run_width the most index runs each ball has (None: not
    known before the search) and row_width the entries of one row of
    distances(rows, cols); path_metric marks shortest-path distances,
    whose backend gives adjacent_blocks (see Space.pair_scan).  The
    defaults read balls off dense distance blocks, slice only the columns
    asked for and find the diameter from a few distance rows (see
    diameter)."""

    path_metric = False
    edges = None

    def ball_width(self, centers, radii):
        return np.full(len(centers), self.n)

    def row_width(self, cols):
        return self.n if cols is None else len(cols)

    def run_width(self, centers, radii):
        # no bound below n before the search: one table per dense search
        # block took twice a whole table's time on a 65x65 lattice graph
        return None

    def ball_intervals(self, centers, radii):
        block = self.distances(centers, limit=max(float(radii.max()), 0.0))
        # a flat nonzero, split after, takes half the time of a 2-D one
        owner, a = np.divmod(np.flatnonzero(block <= radii[:, None]), block.shape[1])
        return owner, a, a + 1

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
            size = min(2 * size, block_rows(self.row_width(cols)))
        return found


class _Euclidean(_Metric):
    """Closed-form distances between distinct points (see _euclidean).
    Balls search strips (see _strips), not dense blocks; boundary distances
    are the minimum of the closed form over every target, a block of
    points at a time."""

    def __init__(self, space, coords=None, **_):
        if coords is None:
            raise SpaceFormatError("euclidean metric requires point coordinates")
        self.coords, self.n = coords, len(coords)
        c = coords[np.lexsort(coords.T)]
        # equal rows, and distinct rows at distance 0.0 (see TINY): a zero
        # besides its own in the distance row of a point with a tiny coordinate
        tiny = np.flatnonzero(np.any((coords != 0) & (np.abs(coords) < TINY), axis=1))
        step = block_rows(self.n)
        zeros = sum(np.count_nonzero(self.distances(tiny[lo:lo + step]) == 0)
                    for lo in range(0, len(tiny), step))
        if np.any(np.all(c[1:] == c[:-1], axis=1)) or zeros > len(tiny):
            raise SpaceFormatError("duplicate points: zero distance between distinct ids")

    def distances(self, rows, cols=None, limit=np.inf):
        other = self.coords if cols is None else self.coords[cols]
        return _euclidean(self.coords[rows, None, :], other[None, :, :])

    def pair_distances(self, i, j):
        # np.take gathers rows several times faster than fancy indexing
        return _euclidean(np.take(self.coords, i, axis=0),
                          np.take(self.coords, j, axis=0))

    def ball_width(self, centers, radii):
        # a center meets a strip at most once; one-point strips (a cloud)
        # are bounded by the keys within reach in the first column; each
        # candidate gathers its key columns (see _near_keys)
        bounds, _, keys, _, _ = self._strips
        if len(bounds) > self.n:
            width = self.run_width(centers, radii)
        else:
            width = np.full(len(centers), len(bounds) - 1)
        return width * keys.shape[1]

    def run_width(self, centers, radii):
        # a ball meets each strip within reach of its key (see near) in one
        # interval
        _, _, keys, _, near = self._strips
        return near(keys[centers], radii, counts=True)

    def boundary_distances(self, targets):
        """min over the targets t of d(t, x), for every point x: a block of
        points (see block_rows) takes the running minimum of its summed
        squares to each target in turn, then one sqrt per point.  sqrt is
        correctly rounded, hence monotone, so this is the minimum of the
        closed-form distances bit for bit.  One target at a time, not a
        block of targets: numpy subtracts a row from a column several times
        slower than a point from a column."""
        c, out = self.coords, np.full(self.n, np.inf)
        rows = block_rows(c.shape[1])
        for lo in range(0, self.n, rows):
            x, best = c[lo:lo + rows], out[lo:lo + rows]
            for t in c[targets]:
                np.minimum(best, _squares(x, t), out=best)
        return np.sqrt(out, out=out)

    def resolution(self):
        """The least closed-form distance between distinct points, exactly:
        r, the least between neighbours in lexsort order, is a distance
        between two points, so no pair closer than r is missed by the
        balls of radius r, searched a block of centers at a time."""
        c = self.coords[np.lexsort(self.coords.T)]
        radii = np.full(self.n, float(_euclidean(c[1:], c[:-1]).min()))
        centers, best = np.arange(self.n), np.inf
        cuts = block_cuts(self.ball_width(centers, radii))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            owner, a, b = self.ball_intervals(centers[lo:hi], radii[lo:hi])
            d = self.pair_distances(np.repeat(centers[lo:hi][owner], b - a),
                                    run_members(a, b))
            best = min(best, float(d[d > 0].min(initial=np.inf)))
        return best

    @functools.cached_property
    def _strips(self):
        """(bounds, code, keys, ranks, near): the strips of the index order
        and what locates a point in them.

        A strip is a maximal run of consecutive indices whose points share
        every coordinate but the last, with the last strictly increasing
        (a row of a raveled grid); strip k holds bounds[k]:bounds[k + 1].
        The closed-form distance from any point is monotone in the last
        coordinate on either side of its nearest strip point, so a ball
        meets a strip in one index interval.  Strips are keyed by their
        leading coordinates (a zero on a line), keys per point.  When the
        strips average fewer than two points (a shuffled grid, a cloud)
        every point is its own strip, keyed by all its coordinates; near
        is one slab search whatever the key width (see _near_keys).  ranks
        holds the distinct last coordinates, sorted, and code = strip *
        (len(ranks) + 1) + rank of the last coordinate, per point, as
        int64: the last coordinate increases along a strip, so code is
        sorted, and one searchsorted of strip * (len(ranks) + 1) +
        searchsorted(ranks, y) finds the first point of a strip whose last
        coordinate is >= y.
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
        return bounds, code, keys, ranks, self._near_keys(keys[start])

    def _near_keys(self, keys):
        """near for strips with these keys: near(at, reach) -> (owner, k),
        for each row of at the rows k of keys within reach of it (widened by
        HAIR and TINY), ascending; near(at, reach, counts=True), per row of
        at, how many keys lie within reach in the first column alone: as
        many (one column) or more.

        One search for every key width, a slab of the sorted first key
        column (Bentley and Friedman, ACM Computing Surveys 1979): two
        searchsorted put each row's slab ends, and keys of more columns keep
        the slab's candidates whose closed-form key distance is within
        reach, gathered with np.take (a fancy index of rows took four times
        as long on a 12,000-point cloud).  The candidates are re-sorted per
        ball only when the key order is not the row order."""
        order = np.argsort(keys[:, 0], kind="stable")
        sorted_keys = keys[order, 0]
        ordered = bool(np.all(order[1:] > order[:-1]))

        def near(at, reach, counts=False):
            reach = reach * HAIR + TINY
            lo = np.searchsorted(sorted_keys, at[:, 0] - reach)
            hi = np.maximum(lo, np.searchsorted(sorted_keys, at[:, 0] + reach, "right"))
            if counts:
                return hi - lo
            owner = np.repeat(np.arange(len(at)), hi - lo)
            k = run_members(lo, hi)
            if not ordered:
                k = np.take(order, k)
            if keys.shape[1] > 1:
                keep = _euclidean(np.take(keys, k, axis=0),
                                  np.take(at, owner, axis=0)) <= np.take(reach, owner)
                owner, k = owner[keep], k[keep]
            if ordered:
                return owner, k
            code = np.sort(owner * len(keys) + k)
            return owner, code - owner * len(keys)
        return near

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
        bounds, code, keys, ranks, near = self._strips
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


class _Graph(_Metric):
    """Shortest paths over undirected edges, each node pair at its smallest
    edge weight; self-loops are dropped.

    The graph is one CSR built with numpy by two sorts (the pairs, then
    the rows): row pointers, targets and lengths, every pair stored both
    ways at its one weight, targets ascending per row.  Distance rows,
    boundary distances, the K-adjacent pair scan and the resolution read
    it directly, so a space whose searches stay shallow never imports
    scipy.

    Searches are by rounds: each round relaxes the out-edges of the points
    whose distance fell in the previous round, keeps the least candidate
    per target, and it stops when nothing falls.  It gives the same bits as
    Dijkstra: adding a nonnegative length to a float never lowers it and is
    monotone, so Dijkstra's settle order (Dijkstra 1959) and this
    label-correcting order (Bellman 1958) both reach the least
    left-to-right float sum over paths.  One loop (see _rounds) runs every
    search over the CSR padded to the largest degree (see _table), on
    labelled rows in one flat block: one row per source for distance rows,
    a block of sources at a time, a limit dropping the candidates past it
    as Dijkstra's does; one row seeded at every target for
    boundary_distances.  A search runs one round per hop of its deepest
    shortest path, a round taking 30-150 us: a full row of the 65x65
    lattice (129 rounds at most) takes 0.5-0.7 ms in blocks of 15, against
    0.35 ms for Dijkstra, whose scipy import costs 0.26-0.45 s and 25 MB.
    So the space picks the engine of its distance rows once, before its
    first search of rows (see _engine): scipy's Dijkstra, on a
    csr_matrix of the same arrays (see graph), for a graph whose padded
    table would be too large (a hub) or with a component whose full search
    passes ROUND_CAP rounds, and rounds otherwise; no later query changes
    it.  Boundary distances run by rounds whenever the padded table exists,
    whatever the engine (1 ms on a 65x65 lattice, 0.12 s on a path of
    20001 nodes), and by Dijkstra only on a hub.  Every other shortest path
    of the package is a search of rows: the diameter's components, and the
    geodesic probe's hop graph, itself a graph Space.  So scipy loads only
    in graph, _dijkstra and the hub's boundary distances.
    """

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
        i, j = space._indices(e[:, 0]), space._indices(e[:, 1])
        keep = i != j
        w = e[keep, 2]
        if np.any(w == 0):
            raise SpaceFormatError("duplicate points: zero distance between distinct ids")
        # one undirected edge per node pair lo < hi, ascending, at its
        # smallest weight: the least of each run of the sorted pair keys;
        # each temporary is dropped once read (the geodesic probe's hop graph
        # of square_grid(129) holds 65,792 edges)
        pair = np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep]
        del i, j, keep
        order = np.argsort(pair)
        pair, w = pair[order], w[order]
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        lo, hi = np.divmod(pair[first], n)
        w = np.minimum.reduceat(w, first)
        del pair, first, order
        # the CSR, sorted by (row, target): a stable sort by row puts the
        # targets below the row (pairs by hi, then lo) before those above
        order = np.argsort(np.concatenate([hi, lo]), kind="stable")
        self._csr = (np.concatenate([[0], np.cumsum(np.bincount(lo, minlength=n)
                                                    + np.bincount(hi, minlength=n))]),
                     np.concatenate([lo, hi])[order], np.concatenate([w, w])[order])

    @functools.cached_property
    def graph(self):
        """The CSR as a scipy csr_matrix (scipy.sparse is imported here)."""
        from scipy import sparse
        indptr, targets, lengths = self._csr
        return sparse.csr_matrix((lengths, targets, indptr), shape=(self.n, self.n))

    def row_width(self, cols):
        # distance rows are whole rows, sliced after
        return self.n

    def distances(self, rows, cols=None, limit=np.inf):
        block = self._search(rows, limit)
        return block if cols is None else block[:, cols]

    def _search(self, sources, limit=np.inf, stop=None):
        """The (len(sources), n) block of distances from the sources, inf
        past limit; points of the mask stop are reached but not left, bar
        each row's own source.  By the space's one engine (see _engine)."""
        if self._engine == "dijkstra":
            return self._dijkstra(sources, limit, stop)
        return self._rounds(np.arange(len(sources)) * self.n + sources, len(sources),
                            limit, stop)

    @functools.cached_property
    def _engine(self):
        """The engine of every search of rows, "rounds" or "dijkstra",
        decided before the first one: Dijkstra without a padded table, or
        when a full search in any component passes ROUND_CAP rounds (the
        only capped searches).  Each capped search starts at the lowest
        points with an edge not yet reached, one labelled row each, the
        block doubling from one point, so a connected graph runs one
        search, and an isolated point none."""
        if self._table is None:
            return "dijkstra"
        unreached, size = np.flatnonzero(np.diff(self._csr[0])), 1
        while len(unreached):
            seeds = unreached[:size]
            block = self._rounds(np.arange(len(seeds)) * self.n + seeds, len(seeds),
                                 cap=ROUND_CAP)
            if block is None:
                return "dijkstra"
            unreached = unreached[np.isinf(block[:, unreached]).all(axis=0)]
            size = min(2 * size, block_rows(self.n))
        return "rounds"

    @functools.cached_property
    def _table(self):
        """(targets, lengths), the CSR padded to an n-by-(largest degree)
        table: a row's free slots lead back to its own node at length inf.
        None where that would hold more than four times the CSR's entries."""
        indptr, to, lengths = self._csr
        degree = np.diff(indptr)
        width = int(degree.max(initial=0))
        if self.n * width > 4 * len(to):
            return None
        node = np.repeat(np.arange(self.n), degree)
        slot = np.arange(len(to)) - indptr[node]
        table = np.repeat(np.arange(self.n), width).reshape(self.n, width)
        table[node, slot] = to
        length = np.full((self.n, width), np.inf)
        length[node, slot] = lengths
        return table, length

    def _rounds(self, fell, rows, limit=np.inf, stop=None, cap=None):
        """The search by rounds (see the class docstring) over the padded
        table: a (rows, n) block of labelled rows seeded with 0.0 at the
        flat indices fell, run until nothing falls; None past cap rounds
        (None: no cap)."""
        table, length = self._table
        n = self.n
        block = np.full((rows, n), np.inf)
        flat = block.reshape(-1)
        flat[fell] = 0.0
        for _ in itertools.islice(itertools.count(), cap):
            node = fell % n
            cand = (flat[fell][:, None] + length[node]).reshape(-1)
            target = ((fell - node)[:, None] + table[node]).reshape(-1)
            lower = cand < flat[target]
            if limit < np.inf:
                lower &= cand <= limit
            target, cand = target[lower], cand[lower]
            np.minimum.at(flat, target, cand)
            target.sort()
            first = np.ones(len(target), dtype=bool)
            np.not_equal(target[1:], target[:-1], out=first[1:])
            fell = target[first]
            if stop is not None:
                fell = fell[~stop[fell % n]]
            if not len(fell):
                return block
        return None

    def _dijkstra(self, sources, limit, stop):
        """_search by scipy's Dijkstra.  With stop, the stopped points lose
        their out-edges and each source leaves from a copy of itself, node
        n + k, that keeps them: the same paths the rounds take."""
        from scipy.sparse.csgraph import dijkstra
        if stop is None:
            return dijkstra(self.graph, indices=sources, directed=True, limit=limit)
        from scipy import sparse
        indptr, to, lengths = self._csr
        n, k = self.n, len(sources)
        a = np.concatenate([np.where(stop, indptr[1:], indptr[:-1]), indptr[sources]])
        b = np.concatenate([indptr[1:], indptr[sources + 1]])
        edge = run_members(a, b)
        split = sparse.csr_matrix(
            (lengths[edge], to[edge], np.concatenate([[0], np.cumsum(b - a)])),
            shape=(n + k, n + k))
        return dijkstra(split, indices=n + np.arange(k), directed=True,
                        limit=limit)[:, :n]

    def pair_distances(self, i, j):
        # grouped by source, one block of distance rows per block of sources
        out = np.empty(len(i))
        order = np.argsort(i, kind="stable")
        sources, first = np.unique(i[order], return_index=True)
        first = np.append(first, len(i))
        step = block_rows(self.n)
        for lo in range(0, len(sources), step):
            rows = sources[lo:lo + step]
            s = order[first[lo]:first[lo + len(rows)]]
            out[s] = self.distances(rows)[np.searchsorted(rows, i[s]), j[s]]
        return out

    def adjacent_blocks(self, members):
        """(i, j, d) blocks of the K-adjacent pairs i < j of K = members:
        the pairs joined by a path with no point of K inside, d the least
        such path (>= d(i, j)), read off a search from i that reaches the
        points of K but does not leave them.  A point whose neighbours all
        lie in K has its edges for pairs; the others are searched, a block
        of sources at a time (see _search)."""
        indptr, to, lengths = self._csr
        inside = np.zeros(self.n, dtype=bool)
        inside[members] = True
        k = np.flatnonzero(inside)
        left = np.concatenate([[0], np.cumsum(~inside[to])])
        leaves = (left[indptr[k + 1]] - left[indptr[k]]) > 0
        near, far = k[~leaves], k[leaves]
        a, b = indptr[near], indptr[near + 1]
        cuts = block_cuts(b - a)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            edge = run_members(a[lo:hi], b[lo:hi])
            i, j = np.repeat(near[lo:hi], b[lo:hi] - a[lo:hi]), to[edge]
            keep = j > i
            yield i[keep], j[keep], lengths[edge[keep]]
        step = block_rows(self.n)
        for lo in range(0, len(far), step):
            s = far[lo:lo + step]
            d = self._search(s, stop=inside)[:, k]
            row, col = np.nonzero((k > s[:, None]) & (d < np.inf))
            yield s[row], k[col], d[row, col]

    def boundary_distances(self, targets):
        # one row seeded at every target, by rounds whatever the engine (see
        # the class docstring); inf on a component without targets
        if self._table is None:
            from scipy.sparse.csgraph import dijkstra
            return dijkstra(self.graph, indices=targets, min_only=True)
        return self._rounds(targets, 1)[0]

    def diameter(self):
        """Largest finite distance: the largest diameter of a connected
        component (see _Metric.diameter).  Each component is the finite
        entries of one search row (see _search) from its lowest point with
        an edge; isolated points are skipped, as _engine skips them."""
        found, unreached = 0.0, np.flatnonzero(np.diff(self._csr[0]))
        while len(unreached):
            row = self._search(unreached[:1])[0]
            found = max(found, _Metric.diameter(self, np.flatnonzero(np.isfinite(row))))
            unreached = unreached[np.isinf(row[unreached])]
        return found

    def resolution(self):
        w = self._csr[2]
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
        return self.matrix[rows] if cols is None else self.matrix[np.ix_(rows, cols)]

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
    construction all queries are pure reads and safe to share.  Every
    distance, ball and pair scan of the library goes through distances,
    pair_distances, balls and pair_scan.  Distance rows are not cached, so
    memory grows with one distance block, not with the number of pairs.
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
        if ids is not None:  # each id read by _point_id, which names a bad one
            ids = np.array(ids, dtype=object)
            if ids.shape != (n,):
                raise SpaceFormatError(f"point ids of shape {ids.shape} for a space "
                                       f"of {n} points")
            ids = [_point_id(value) for value in ids.tolist()]
        self.ids = _as_readonly(np.arange(n) if ids is None else ids, np.int64, "ids")
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
        """One point index as an int, checked by _indices."""
        return self._indices([i]).item()

    def _indices(self, a):
        """Point indices as a flat intp array: the one index check.  Integer
        arrays pass as they are; any other values only where each is an
        integer (1.5 is refused, not truncated to 1)."""
        a = np.asarray(a).reshape(-1)
        if a.dtype.kind not in "iu":
            try:
                f = a.astype(float)
            except (TypeError, ValueError):  # such as "a" or None
                f = np.full(a.shape, np.nan)
            wrong = a[~np.isfinite(f) | (f != np.floor(f))]
            if wrong.size:
                raise SpaceFormatError(f"point indices must be integers, got {wrong[:10].tolist()}")
            a = f
        if a.size and (a.min() < 0 or a.max() >= len(self)):
            out = a[(a < 0) | (a >= len(self))]
            shown = out[0] if out.size == 1 else out[:10].tolist()
            raise SpaceFormatError(f"unknown point index {shown}, out of range 0..{len(self) - 1}")
        return a.astype(np.intp, copy=False)

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
        from the slice on: every unordered pair appears at least once.  Each
        slice takes the rows of the backend's row width that one block holds
        (see _Metric.row_width), so the slices lengthen as the columns
        shrink."""
        lo = 0
        while lo < len(members):
            cols = members[lo:]
            rows = cols[:block_rows(self._metric.row_width(cols))]
            yield rows[:, None], cols[None, :], self.distances(rows, cols)
            lo += len(rows)

    def _distance_blocks(self, rows, cols=None):
        """(rows, d(rows, cols)) blocks over slices of rows, each as many
        rows as one block holds at the backend's row width."""
        step = block_rows(self._metric.row_width(cols))
        for lo in range(0, len(rows), step):
            yield rows[lo:lo + step], self.distances(rows[lo:lo + step], cols)

    def pair_distances(self, i, j):
        """d(i[k], j[k]) for paired index arrays."""
        return self._metric.pair_distances(self._indices(i), self._indices(j))

    def pair_scan(self, members=None, lipschitz=False):
        """PairScan over every pair of points of members (default: the whole
        space), one block of rows at a time (see _exact_blocks): the time
        grows with the square of the set, the memory stays one block.

        lipschitz=True says the caller takes max |f(x) - f(y)| / d(x, y).
        On a path metric that maximum over K = members is attained on a
        K-adjacent pair, joined by a path with no other point of K inside
        (cut a shortest path at its points of K: the distances add up, so
        one piece has at least the whole ratio); the scan yields those pairs
        alone (see _Graph.adjacent_blocks).  Their distances are bounds
        >= d(x, y), so only that maximum may read them; in floats it can
        fall below the full scan's by rounding, never above it.
        """
        members = np.arange(len(self)) if members is None else self._indices(members)
        n = len(members)
        blocks = (self._metric.adjacent_blocks(members)
                  if lipschitz and self._metric.path_metric
                  else self._exact_blocks(members))
        return PairScan(n * (n - 1) // 2, blocks)

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
        Dijkstra at the block's largest radius), the blocks cut by the
        entries each center's search holds (see block_cuts and
        _Metric.ball_width).  a and b are new arrays, the caller's to
        overwrite (BallTable builds its key over a)."""
        centers = self._indices(centers)
        radii = point_values(radii, "ball radius", len(centers))
        cuts = block_cuts(self._metric.ball_width(centers, radii))
        # runs and counts are filled in place: small per-block parts of them,
        # left between the parts of a and b, kept the heap from shrinking
        # once those were joined
        runs, counts = np.empty(len(centers), np.intp), np.empty(len(centers), np.intp)
        a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            owner, a_k, b_k = _merge_runs(*self._metric.ball_intervals(
                centers[lo:hi], radii[lo:hi]))
            a.append(a_k)
            b.append(b_k)
            runs[lo:hi] = np.bincount(owner, minlength=hi - lo)
            counts[lo:hi] = np.bincount(owner, b_k - a_k, hi - lo)
        # one list of parts at a time, each dropped as it is joined
        a = np.concatenate(a)
        b = np.concatenate(b)
        return a, b, runs, counts

    def _table_cuts(self, centers, radii):
        """Cuts of the checked centers into blocks whose balls hold fewer
        than BLOCK_ENTRIES index runs plus the last ball's (see block_cuts),
        where the backend bounds each ball's runs before its search (see
        _Metric.run_width); one block where it does not."""
        width = self._metric.run_width(centers, radii)
        return np.array([0, len(centers)]) if width is None else block_cuts(width)

    def ball(self, x, r):
        if r < 0:
            raise SpaceFormatError(f"negative ball radius {r}")
        x = self._check_index(x)
        members, _ = self.balls([x], [r])
        return Ball(center=x, radius=float(r), members=members)

    def measure(self, members):
        members = self._indices(list(members) if isinstance(members, set) else members)
        return float(self.weights[members].sum())

    # -- boundary geometry ----------------------------------------------------

    def boundary_distances(self):
        """dist(x, boundary) for every point, zero exactly on the boundary:
        one query of the backend, which builds no distance block through
        distances()."""
        if self._bdry_dist is None:
            b = self.boundary_indices
            if len(b) == 0:
                raise ConfigurationError("space has an empty boundary")
            out = self._metric.boundary_distances(b)
            out[b] = 0.0
            out.flags.writeable = False
            self._bdry_dist = out
        return self._bdry_dist

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

    def _probe_rows(self, centers):
        """The distance rows d(x, .) of the centers in turn, taken a block
        at a time (see _distance_blocks)."""
        for _, d in self._distance_blocks(np.asarray(centers, dtype=np.intp)):
            yield from d

    def _probe_pass(self, deltas=(), samples=200, seed=0, ring=False):
        """(doubling, {delta: annular decay}, ring jump) of one pass over one
        stream of distance rows: the estimates of probe_doubling and
        probe_annular_decay, each clamped below at 1, and with ring=True the
        ring jump of probe_report (0 without).

        A generator seeded by seed draws every center first: the extremal
        points and max(4, samples // 8) extra ones (see _probe_centers), then
        samples more.  After that it draws only each row's random shell, in
        row order.  The rows come a block at a time (see _probe_rows), and
        each is reduced once to its distinct finite distances t and the
        cumulative measure mu(B(x, t)), so each ball measure is one lookup.
        Radii below PROBE_R_MIN_CELLS resolutions are skipped, where a
        ball's measure is dominated by single cells.  The ring sweep reads
        the rows of the first centers, those of _probe_centers.
        """
        samples, seed = _count("samples", samples), _count("seed", seed)
        decay = dict.fromkeys(map(float, deltas), 1.0)
        for delta in decay:
            if not 0.0 < delta <= 1.0:
                raise SpaceFormatError(f"annular decay exponent must be in (0, 1], got {delta}")
        doubling, jump = 1.0, 0.0
        res = self.resolution()
        if res <= 0:
            return doubling, decay, jump
        r_min = PROBE_R_MIN_CELLS * res
        rng = np.random.default_rng(seed)
        first = self._probe_centers(rng, extra=max(4, samples // 8))
        centers = np.concatenate([first, rng.integers(len(self), size=samples)])
        fractions = np.array([[0.5], [0.7], [0.85], [0.95], [1.0]])
        widths = np.array([1.0, 2.0, 4.0, 8.0]) * res
        for k, d in enumerate(self._probe_rows(centers)):
            finite = np.isfinite(d)
            t, where = np.unique(d[finite], return_inverse=True)
            mass = np.cumsum(np.bincount(where, self.weights[finite]))
            low = np.searchsorted(t, r_min)  # the first radius at or above r_min
            if low == len(t):
                continue
            # doubling: mu(B(x, 2r)) / mu(B(x, r)) at every radius r of the row
            twice = np.searchsorted(t, 2.0 * t[low:], side="right") - 1
            doubling = max(doubling, float((mass[twice] / mass[low:]).max()))
            # annuli B(x, R) \ B(x, r) as index pairs into t: the structured
            # shells, 1, 2, 4 and 8 cells wide at five fractions of the
            # farthest distance, then one seeded random shell at least two
            # cells wide (single-cell random shells are too noisy)
            outer = np.searchsorted(t, fractions * t[-1], side="right") - 1
            inner = np.searchsorted(t, t[outer] - widths, side="right") - 1
            outer, inner = (a.ravel() for a in np.broadcast_arrays(outer, inner))
            if len(t) - low >= 2:
                R = low + rng.integers(1, len(t) - low)
                count = np.searchsorted(t, t[R] - 2.0 * res, side="right") - low
                if count > 0:
                    outer = np.append(outer, R)
                    inner = np.append(inner, low + rng.integers(count))
            keep = (inner >= low) & (t[outer] - t[inner] >= res)
            if keep.any():
                outer, inner = outer[keep], inner[keep]
                share = (mass[outer] - mass[inner]) / mass[outer]
                thickness = (t[outer] - t[inner]) / t[outer]
                for delta in decay:
                    decay[delta] = max(decay[delta], float((share / thickness ** delta).max()))
            if ring and k < len(first):
                sweep = t[low::max(1, (len(t) - low) // 200)]
                if len(sweep) >= 2:
                    jump = max(jump, self._ring_jump(d, sweep))
        return doubling, decay, jump

    def probe_annular_decay(self, delta=1.0, samples=200, seed=0):
        """Estimate the annular decay constant for the given exponent.

        Max over sampled (x, r, R) of mu(B(x,R)\\B(x,r)) / (((R-r)/R)^delta
        * mu(B(x,R))).  Radii snap to realized distances from the center so
        that annulus widths are honest multiples of the local shell spacing;
        samples with R - r below the grid resolution, or r below
        PROBE_R_MIN_CELLS resolutions, are skipped.  A deterministic
        structured family (thin shells at several radius fractions) and
        one seeded random shell are read on every row of the probe pass
        (see _probe_pass).  Result is clamped below at 1.
        """
        return self._probe_pass([delta], samples, seed)[1][float(delta)]

    def probe_doubling(self, samples=200, seed=0):
        """Estimate the doubling constant: max mu(B(x,2r))/mu(B(x,r)) over
        every radius r of every row of the probe pass (see _probe_pass)."""
        return self._probe_pass((), samples, seed)[0]

    def probe_ring_continuity(self, x, radii):
        """Largest relative single-step jump of r -> mu(B(x,r)) over the sweep."""
        radii = point_values(radii, "ring radius")
        if radii.ndim != 1 or len(radii) < 2 or np.any(np.diff(radii) <= 0):
            raise SpaceFormatError("radii must be strictly increasing")
        return self._ring_jump(self.distances_from(x), radii)

    def _ring_jump(self, d, radii):
        """probe_ring_continuity on the distance row d of its center."""
        mus = np.array([self.weights[d <= r].sum() for r in radii])
        grew = mus[1:] > 0
        return float(((mus[1:] - mus[:-1])[grew] / mus[1:][grew]).max(initial=0.0))

    def probe_geodesic_defect(self, samples=100, seed=0):
        """Worst excess of hop-graph path length over metric distance.

        The hop graph is a graph Space joining the pairs within 1.5
        resolutions, each edge at its closed-form distance, so its rows run
        on the engine it picks (see _Graph._engine).  Path metrics (graphs)
        have defect 0 by construction.  Infinite result means the hop graph
        is disconnected (strongly non-geodesic cloud).  Fewer than one
        sample is refused, and so is a samples or seed that is not a
        nonnegative integer.  The sources run in blocks of distance rows
        (see _distance_blocks), each with its rows of the hop graph.
        """
        seed = _count("seed", seed)
        if _count("samples", samples) < 1:
            raise SpaceFormatError(
                f"geodesic probe needs at least one sample, got {samples}")
        if self._metric.path_metric:
            return 0.0
        res = self.resolution()
        if res <= 0 or len(self) < 3:
            return 0.0
        n = len(self)
        near, counts = self.balls(np.arange(n), np.full(n, 1.5 * res))
        owner = np.repeat(np.arange(n), counts)
        keep = owner < near
        owner, near = owner[keep], near[keep]
        edges = np.column_stack([owner, near, self.pair_distances(owner, near)])
        del near, counts, owner, keep  # not held while the hop graph is built
        hops = Space(weights=self.weights, boundary=[], metric="graph", edges=edges)
        del edges  # nor this copy of its edges while its rows run
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=min(samples, n), replace=False)
        worst = 0.0
        for rows, d in self._distance_blocks(sources):
            paths = hops.distances(rows)
            if not np.isfinite(paths).all():
                return float("inf")
            worst = max(worst, float((paths - d).max()))
        return worst

    def probe_report(self, samples=200, seed=0, deltas=(0.5, 1.0)):
        """SpaceProbeReport of one probe pass for every delta and the ring
        jump (see _probe_pass), and of the geodesic probe."""
        doubling, decay, jump = self._probe_pass(deltas, samples, seed, ring=True)
        return SpaceProbeReport(
            doubling_estimate=doubling,
            annular_decay_estimates=decay,
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


def _frame(nx, ny):
    """The outer frame of an nx-by-ny grid raveled row by row, ascending."""
    inner = np.zeros((nx, ny), dtype=bool)
    inner[1:-1, 1:-1] = True
    return np.flatnonzero(~inner)


def _edge_rows(i, j, weight):
    """Graph edges [i, j, weight], every one at the one number weight."""
    w = _as_readonly(weight, float, "edges")
    if w.ndim:
        raise SpaceFormatError("edges must be a rectangular array of numbers")
    return np.column_stack([i, j, np.full(len(i), w)])


def square_grid(n, lo=0.0, hi=1.0):
    """n-by-n grid on [lo,hi]^2; boundary = outer frame; weights = h^2."""
    if n < 3:
        raise SpaceFormatError("square grid needs at least 3 points per side")
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    return Space(
        coords=coords,
        weights=np.full(n * n, h * h),
        boundary=_frame(n, n),
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
    inside = (((coords - 0.5) ** 2).sum(axis=1) <= radius * radius).reshape(n, n)
    # inner: inside, and so are its four neighbours (none off the grid)
    pad = np.pad(inside, 1)
    inner = pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    coords = coords[inside.ravel()]
    return Space(
        coords=coords,
        weights=np.full(len(coords), h * h),
        boundary=np.flatnonzero(~inner[inside]),
        geodesic_like=True,
        analytic_constants={"doubling": 4.0, "annular_decay": {1.0: 2.0}},
    )


def path_graph(n, edge_weight=1.0, weights=None):
    """Path graph 0 - 1 - ... - (n-1) with unit weights; boundary = endpoints."""
    if n < 3:
        raise SpaceFormatError("path graph needs at least 3 nodes")
    i = np.arange(n - 1)
    return Space(
        weights=np.full(n, 1.0) if weights is None else weights,
        boundary=[0, n - 1],
        metric="graph",
        edges=_edge_rows(i, i + 1, edge_weight),
        analytic_constants={"doubling": 2.0, "annular_decay": {1.0: 1.0}},
    )


def lattice_graph(nx, ny, edge_weight=1.0):
    """nx-by-ny grid graph with unit edges; boundary = outer frame."""
    if nx < 3 or ny < 3:
        raise SpaceFormatError("lattice graph needs at least 3 nodes per side")
    # node i * ny + j; its edge to (i + 1, j) comes before its edge to (i, j + 1)
    node = np.arange(nx * ny)
    keep = np.column_stack([node < (nx - 1) * ny, node % ny < ny - 1])
    return Space(
        weights=np.full(nx * ny, 1.0),
        boundary=_frame(nx, ny),
        metric="graph",
        edges=_edge_rows(np.repeat(node, 2)[keep.ravel()],
                         (node[:, None] + [ny, 1])[keep], edge_weight),
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
        flag = p.get("boundary", False)
        if not isinstance(flag, bool):  # "false" is truthy
            raise SpaceFormatError(f"boundary flag {flag!r} at point id {ids[-1]} "
                                   "is not true or false")
        if flag:
            boundary.append(k)
        if "coords" in p and p["coords"] is not None:
            coords.append(p["coords"])
    if coords and len(coords) != len(points):
        raise SpaceFormatError("coords given for some points but not all")
    geodesic = doc.get("geodesic")
    if geodesic is not None and not isinstance(geodesic, bool):
        raise SpaceFormatError(f"geodesic {geodesic!r} is not true, false or null")
    id_to_index = {pid: k for k, pid in enumerate(ids)}  # Space refuses repeats
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
        geodesic_like=geodesic,
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
    for every point id of the space, each id on one row."""
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
                value = float(row[1])
            except (KeyError, ValueError, IndexError) as exc:
                raise SpaceFormatError(f"{path}: unknown or invalid id or value in row {row!r}") from exc
            if seen[idx]:
                raise SpaceFormatError(f"{path}: duplicate id {space.ids[idx]} in row {row!r}")
            if not np.isfinite(value):
                raise SpaceFormatError(f"{path}: non-finite {column} in row {row!r}")
            values[idx], seen[idx] = value, True
    if not seen.all():
        raise SpaceFormatError(f"{path}: missing {column} for some points")
    return values


def write_id_csv(space, path, column, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", column])
        for pid, v in zip(space.ids, values):
            writer.writerow([int(pid), repr(float(v))])
