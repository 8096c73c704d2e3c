"""Ball-averaging operators and the oscillation inequality checkers.

The three pointwise operators on a scalar field u at an interior point x
with radius ball B_x:

    mean:      measure-weighted average of u over B_x
    midrange:  (max + min) / 2 of u over B_x
    alpha mean: alpha * midrange + (1 - alpha) * mean

Fixed points of the alpha-mean operator are the (generalized)
p-harmonious fields.  The check_* functions verify the quantitative
oscillation inequalities that drive the regularity certificates; each
returns a CheckRecord carrying both sides, the slack, and the discreteness
allowance used (a theorem that is exact in the continuum can fail on a
grid by at most a cell or two, and the records make that allowance
explicit).

The pair checks (symmetric differences, sup-inf gaps, the iterated mean
stability bound) take each radius ball from _ball, which searches it once
per (space, rho, center) and keeps its members on rho.  Sweeps, residuals
and the single-point means build a BallTable and keep none.

Every field u (a ScalarField or one value per point) and the radius field
of a BallTable are read through space.point_values, which refuses a
wrong length, a non-numeric input and a non-finite value by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import radius as radius_mod
from .errors import AdmissibilityError, SpaceFormatError
from .radius import Modulus
from .space import (block_cuts, block_rows, check_parameters, distinct,
                    point_values, read_id_csv, run_members, write_id_csv)


@dataclass
class ScalarField:
    """Real value per point, interior/boundary split inherited from the
    space; the values are read by space.point_values."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        self.values = point_values(self.values, "field", len(self.space))


@dataclass
class GapPair:
    """One-sided sup-inf distances between two radius balls."""

    sup_inf_xy: float   # max over B_x of dist(.., B_y)
    sup_inf_yx: float   # max over B_y of dist(.., B_x)


@dataclass
class CheckRecord:
    """One verified inequality: lhs <= rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    branch: str = ""
    slack_allowance: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.rhs - self.lhs


# -- ball tables -------------------------------------------------------------
#
# The members of a ball, in ascending point order, fall into runs of
# consecutive point indices (the rows of a ball on a raveled grid), and a
# sweep works per run, not per member, so its cost scales with the number of
# runs.  Space.ball_runs finds them without listing members, one block of
# centers at a time: on a Euclidean space each ball meets each strip of the
# index order (a grid row) in one interval: one searchsorted finds the
# chord's ends, the closed form moves them by single indices where it
# disagrees.  At rho = 0.4 dist on square_grid(129) a table builds in about
# 0.13 s, against 1.5 s for listing and compressing its 5.6M members.  A
# shuffled grid or a cloud has no strips: every point is its own.
# Neighbouring balls share most runs, so the table keeps each distinct run
# once (109,331 of 282,627 at 129²) and each ball's list of them.
#
# A table keeps no run's ends, only where a sweep reads the run: at level
# k = floor(log2(b - a)) of a sparse table of n columns, whose row k covers
# the windows [i, i + 2^k), the run [a, b) is the two windows read at
# k * n + a and k * n + b - 2^k (_query_lo, _query_hi).  The queries and
# each ball's list of runs (_ball_runs, indices into the queries) share one
# signed integer type, int32 until levels * n or the run count passes 2^31:
# 2.0 MB at 129², against 5.5 MB of intp ends, indices and queries.  The
# build keeps no whole list of runs either: per block of the search it sums
# the balls' weights member by member and keeps the runs' keys
# a * (n + 1) + b in the narrowest type that holds (n + 1)^2; the blocks'
# distinct keys are merged into one sorted list, each block's keys become
# indices into it, and the distinct keys become queries, a block of runs at
# a time.
#
# A run's max and min are two lookups in the sparse table of the field,
# which is exact, so midranges do not depend on how a ball splits into runs.
# A run's mu-sum is P[b] - P[a], P the prefix sums of w * (u - c), with c
# the midrange of u over the whole space, read through the same queries: row
# k of the table first holds P[i + 2^k] (read at k * n + b - 2^k), then
# every row holds P[i] (read at k * n + a).  Its rounding error is about
# eps * osc(u) * mu(X), so a ball mean carries an error of about
# eps * osc(u) * mu(X) / mu(B) (member-wise sums: eps * osc(u) over the
# ball).  A ball whose max equals its min takes that value as its mean, so
# constants are exact fixed points.  Single-point evaluation, sweeps and
# residuals all go through alpha_means with the same runs and the same
# reduction order, so they agree bit for bit and do not depend on any
# parallel execution plan.
#
# A sweep fills buffers allocated at the first: the sparse table, one value
# per distinct run, one block of gathered runs, the prefix sums and one
# block offset per ball.  np.take reads intp indices only: each gather casts
# its block of queries or of _ball_runs into a new array first, a pass as
# costly as copying intp indices (about 0.5 ms of a 3.9 ms sweep at 129²).
# Each lookup fills the per-run values a block of runs at a time; each
# block of balls (cut by their run counts, see space.block_cuts) then
# gathers its runs' values into the block and reduces them there, ball by
# ball, so the values do not depend on the blocks.  A residual without a
# table (solver.residual) builds one table per block of centers whose
# balls' runs fill the budget.


class BallTable:
    """The radius balls of the given centers, as Space.ball_runs computes
    them, with the member count (counts, starts) and measure (weight_sums)
    per ball: each distinct index run once, as its two sparse-table queries
    (_query_lo, _query_hi), and each ball's list of runs (_ball_runs, from
    _first_run on), the three in one narrow integer type (see above).  A
    negative radius is refused: its ball is empty and has no mean.

    A table is not for concurrent use: every sweep fills the same buffers
    (see _buffers)."""

    def __init__(self, space, rho, centers=None):
        if centers is None:
            centers = space.interior_indices
        self.space = space
        self.centers = space._indices(centers)
        n = len(space)
        keys, longest = self._search(_ball_radii(space, rho, self.centers))
        self.starts = np.cumsum(self.counts) - self.counts
        # each distinct run once, in ascending order of (a, b): the blocks'
        # sorted distinct keys, merged by one stable sort
        run_keys = distinct(np.concatenate(list(map(distinct, keys))), kind="stable")
        self._levels = max(longest, 1).bit_length()
        # the least signed type, at least int32, holding every index below
        # (min_scalar_type of a negative bound is signed)
        index_type = np.result_type(np.int32, np.min_scalar_type(
            -max(self._levels * n, len(run_keys))))
        ends = np.cumsum([0, *map(len, keys)]).tolist()
        self._ball_runs = np.empty(ends[-1], index_type)
        for lo, hi in zip(ends[:-1], ends[1:]):
            # searching the keys in ascending order saves more than their
            # argsort costs
            key = keys.pop(0)
            order = np.argsort(key)
            self._ball_runs[lo:hi][order] = np.searchsorted(run_keys, key[order])
        self._query_lo, self._query_hi = _queries(run_keys, n, index_type)

    def _search(self, radii):
        """Search the balls block by block (see _joined), filling counts,
        weight_sums and _first_run: (the blocks' run keys a (n + 1) + b in
        the narrowest type that holds (n + 1)^2, the longest run)."""
        n, balls = len(self.space), len(self.centers)
        runs, self.counts = np.empty(balls, np.intp), np.empty(balls, np.intp)
        self.weight_sums = np.empty(balls)
        keys, longest, lo = [np.zeros(0, np.min_scalar_type((n + 1) ** 2))], 0, 0
        for a, b, runs_k, counts_k in _joined(self.space.ball_runs(self.centers, radii)):
            hi = lo + len(runs_k)
            runs[lo:hi], self.counts[lo:hi] = runs_k, counts_k
            self.weight_sums[lo:hi] = _weight_sums(self.space.weights, a, b,
                                                   runs_k, counts_k)
            longest = max(longest, int((b - a).max(initial=0)))
            key = np.multiply(a, n + 1, dtype=np.intp)
            key += b
            keys.append(key.astype(keys[0].dtype))
            lo = hi
        self._first_run = np.cumsum(runs) - runs
        return keys, longest

    @functools.cached_property
    def indices(self):
        """Members of every ball in ascending order, concatenated: CSR with
        starts and counts.  Listed on first read from each run's ends (at
        level k = _query_lo // n: a = _query_lo - k n and b = _query_hi -
        k n + 2^k); the kernel never reads them."""
        n = len(self.space)
        level, a = np.divmod(self._query_lo.astype(np.intp), n)
        b = self._query_hi - level * n + np.left_shift(1, level)
        return run_members(a[self._ball_runs], b[self._ball_runs])

    @functools.cached_property
    def _buffers(self):
        """What a sweep fills, allocated at the first: the (levels, n)
        sparse table (for the max, then the min, then the prefix sums), one
        array per distinct run, one block of gathered runs, the n + 1
        prefix sums, and per block of balls (cut by their run counts, see
        space.block_cuts) its slice of the balls, its slice of _ball_runs,
        its part of the block and each ball's first run in that part (one
        offset per ball in all)."""
        n = len(self.space)
        ends = np.append(self._first_run, len(self._ball_runs))
        cuts = block_cuts(np.diff(ends)).tolist()
        ends = ends[cuts].tolist()
        block = np.empty(max(np.diff(ends), default=0))
        gathers = [(slice(lo, hi), self._ball_runs[first:last],
                    block[:last - first], self._first_run[lo:hi] - first)
                   for lo, hi, first, last in zip(cuts[:-1], cuts[1:], ends[:-1], ends[1:])]
        return (np.empty((self._levels, n)), np.empty(len(self._query_lo)), block,
                np.empty(n + 1), gathers)

    def _per_run(self, source, queries, combine=None):
        """source at each distinct run's query into the per-run values, or,
        with combine, combine(values, source at the query) into them, a
        block of runs at a time, so that numpy's cast of the queries to
        intp holds one block."""
        _, runs, block, _, _ = self._buffers
        step = max(len(block), 1)
        for lo in range(0, len(runs), step):
            chunk, at = runs[lo:lo + step], queries[lo:lo + step]
            # take writes to out in place only under mode="clip" (under
            # "raise" numpy buffers it); every index is the table's own
            if combine is None:
                source.take(at, out=chunk, mode="clip")
            else:
                combine(chunk, source.take(at, out=block[:len(chunk)], mode="clip"),
                        out=chunk)

    def _per_ball(self, reduce):
        """reduce over each ball's runs of the per-run values: each block of
        balls (see _buffers) gathers its runs' values into the block buffer
        and reduces them there.  reduceat works ball by ball, so the values
        do not depend on the blocks."""
        _, runs, _, _, gathers = self._buffers
        out = np.empty(len(self.centers))
        for balls, ball_runs, gathered, offsets in gathers:
            reduce.reduceat(runs.take(ball_runs, out=gathered, mode="clip"),
                            offsets, out=out[balls])
        return out

    def _extremum(self, ufunc, values):
        """ufunc (np.maximum or np.minimum) of the field over each ball, from
        a sparse table whose level k holds it over the windows [i, i + 2^k)."""
        table = self._buffers[0]
        n = len(self.space)
        table[0] = values
        for k in range(1, self._levels):
            half, m = 1 << (k - 1), n - (1 << k) + 1
            ufunc(table[k - 1, :m], table[k - 1, half:half + m], out=table[k, :m])
        self._per_run(table.reshape(-1), self._query_lo)
        self._per_run(table.reshape(-1), self._query_hi, ufunc)
        return self._per_ball(ufunc)

    def alpha_means(self, values, alpha):
        top = self._extremum(np.maximum, values)
        bottom = self._extremum(np.minimum, values)
        s = 0.5 * (top + bottom)
        if alpha == 1.0:
            return s
        constant = top == bottom
        del bottom
        table, _, _, prefix, _ = self._buffers
        n = len(self.space)
        # less the global midrange: the rounding scales with the oscillation
        # of u, not with its offset
        mid = 0.5 * values.max() + 0.5 * values.min()
        deltas = np.subtract(values, mid, out=table[0])
        prefix[0] = 0.0
        np.cumsum(np.multiply(self.space.weights, deltas, out=deltas),
                  out=prefix[1:])
        # P[b] - P[a] through the queries: row k holds P[i + 2^k] for the
        # ends, then every row holds P[i] for the starts
        for k in range(self._levels):
            table[k, :n + 1 - (1 << k)] = prefix[1 << k:]
        self._per_run(table.reshape(-1), self._query_hi)
        table[:] = prefix[:n]
        self._per_run(table.reshape(-1), self._query_lo, np.subtract)
        totals = self._per_ball(np.add)
        # centered form, as a correction to the center value:
        # center + (totals - (center - mid) * mu(B)) / mu(B), in place
        center = values[self.centers]
        m = np.subtract(center, mid)
        m *= self.weight_sums
        np.subtract(totals, m, out=m)
        del totals
        m /= self.weight_sums
        m += center
        np.copyto(m, top, where=constant)
        if alpha == 0.0:
            return m
        s -= m  # m + alpha * (s - m), in place
        s *= alpha
        m += s
        return m


def _joined(blocks):
    """The (a, b, runs, counts) blocks of Space.ball_runs, consecutive ones
    joined until their balls hold BLOCK_ENTRIES members: a graph's search
    block holds a few balls (its rows are whole distance rows), and each
    block costs the same few calls however few balls it holds."""
    def join(parts):
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    parts, members = [], 0
    for part in blocks:
        parts.append(part)
        members += int(part[3].sum())
        if members >= block_rows(1):
            yield join(parts)
            parts, members = [], 0
    if parts:
        yield join(parts)


def _weight_sums(weights, a, b, runs, counts):
    """mu(B) per ball of one search block from its runs [a, b), summed
    member by member (np.add.reduceat over its ascending members), a
    sub-block of balls at a time, cut by their member counts (see
    space.block_cuts)."""
    out = np.empty(len(counts))
    starts = np.cumsum(counts) - counts
    run_cuts = np.append(np.cumsum(runs) - runs, len(a))
    cuts = block_cuts(counts)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block = slice(run_cuts[lo], run_cuts[hi])
        out[lo:hi] = np.add.reduceat(
            np.take(weights, run_members(a[block], b[block]), mode="clip"),
            starts[lo:hi] - starts[lo])
    return out


def _queries(run_keys, n, index_type):
    """The sparse-table queries (k n + a, k n + b - 2^k) of the runs [a, b)
    with keys a (n + 1) + b, k = floor(log2(b - a)), in index_type: the
    windows of length 2^k from a and to b.  A block of runs at a time, each
    run taking two entries of temporaries (its length and level)."""
    query_lo = np.empty(len(run_keys), index_type)
    query_hi = np.empty(len(run_keys), index_type)
    step = block_rows(2)
    for lo in range(0, len(run_keys), step):
        a, b = query_lo[lo:lo + step], query_hi[lo:lo + step]
        np.divmod(run_keys[lo:lo + step], n + 1, out=(a, b), casting="unsafe")
        level = np.subtract(b, a, dtype=float)
        level = np.frexp(level, out=(level, np.empty(len(level), np.int32)))[1]
        level -= 1
        b -= np.left_shift(1, level, dtype=index_type)
        shift = np.multiply(level, n, dtype=index_type)
        a += shift
        b += shift
    return query_lo, query_hi


def _ball_radii(space, rho, centers):
    """rho at the checked centers; a negative radius is refused: its ball
    is empty and has no mean."""
    radii = point_values(rho, "radius", len(space))[centers]
    if np.any(radii < 0):
        raise AdmissibilityError("negative radius (an empty ball) at points "
                                 f"{centers[radii < 0][:10].tolist()}")
    return radii


def mean_value(space, rho, u, x):
    """Measure-weighted average of u over the radius ball of x."""
    return alpha_mean_value(space, rho, u, x, 0.0)


def midrange_value(space, rho, u, x):
    """(max + min)/2 of u over the radius ball of x."""
    return alpha_mean_value(space, rho, u, x, 1.0)


def alpha_mean_value(space, rho, u, x, alpha):
    """alpha * midrange + (1 - alpha) * mean at x; any real alpha."""
    check_parameters(alpha=alpha)
    table = BallTable(space, rho, centers=[x])
    return float(table.alpha_means(point_values(u, "field", len(space)), alpha)[0])


def apply_alpha_mean(space, rho, u, alpha, table=None):
    """One synchronous sweep: interior replaced by the alpha-mean values,
    boundary copied unchanged."""
    check_parameters(alpha=alpha)
    v = point_values(u, "field", len(space))
    if table is None:
        table = BallTable(space, rho)
    out = v.copy()
    out[table.centers] = table.alpha_means(v, alpha)
    return out


# -- symmetric differences -----------------------------------------------------


def _ball(space, rho, x):
    """Members of the radius ball of x, searched once per (space, rho, x):
    rho's values are immutable, so the ball is kept on rho, per space,
    once they are read as one radius per point of the space."""
    if space not in rho.balls:
        point_values(rho, "radius", len(space))
        rho.balls[space] = {}
    balls = rho.balls[space]
    x = space._check_index(x)  # before rho[x] reads it: 1.5 is no index
    if x not in balls:
        balls[x] = space.ball(x, rho[x]).members
        balls[x].flags.writeable = False  # shared by every later caller
    return balls[x]


def _symdiff_ratio(space, m1, m2):
    mu1, mu2 = space.measure(m1), space.measure(m2)
    inter = np.intersect1d(m1, m2, assume_unique=True)
    return (mu1 + mu2 - 2.0 * space.measure(inter)) / max(mu1, mu2)


def ball_symdiff_ratio(space, rho, x, y):
    """mu(B_x symdiff B_y) / max(mu(B_x), mu(B_y)); lies in [0, 2]."""
    return _symdiff_ratio(space, _ball(space, rho, x), _ball(space, rho, y))


STABILITY_ITERATES = 5   # sweeps of the iterated mean-stability check
STABILITY_TOL = 1e-12    # floating-point allowance of that exact theorem


def check_mean_stability(space, u, ball1, ball2, rho=None):
    """Mean-difference stability over two balls.

    Verifies |mean_B1 u - mean_B2 u| <= 2 ||u||_inf mu(B1 sym B2) /
    max(mu(B1), mu(B2)).  This is an exact-arithmetic theorem, so a failure
    beyond the floating-point tolerance signals an implementation bug.
    When a radius field is supplied, the iterated form (the same bound for
    n-fold mean sweeps, with the ORIGINAL sup norm, over the radius balls
    of the two centers) is verified for n = 1..STABILITY_ITERATES.
    """
    v = point_values(u, "field", len(space))
    norm = float(np.abs(v).max())

    def mean_over(members):
        w = space.weights[members]
        zero = np.array([0])
        return float(np.add.reduceat(w * v[members], zero)[0]
                     / np.add.reduceat(w, zero)[0])

    lhs = abs(mean_over(ball1.members) - mean_over(ball2.members))
    rhs = 2.0 * norm * _symdiff_ratio(space, ball1.members, ball2.members)
    passed = lhs <= rhs + STABILITY_TOL
    details = {}
    if rho is not None:
        x, y = ball1.center, ball2.center
        rhs_iter = 2.0 * norm * ball_symdiff_ratio(space, rho, x, y)
        table = BallTable(space, rho)
        w = v.copy()
        iter_records = []
        for n in range(1, STABILITY_ITERATES + 1):
            w = apply_alpha_mean(space, rho, w, 0.0, table)
            lhs_n = abs(w[x] - w[y])
            ok = lhs_n <= rhs_iter + STABILITY_TOL
            passed = passed and ok
            iter_records.append({"n": n, "lhs": lhs_n, "rhs": rhs_iter, "pass": ok})
        details["iterates"] = iter_records
    return CheckRecord("mean_stability", lhs, rhs, passed, details=details)


def check_symdiff_bounds(space, rho, x, y, lipschitz_L, annular_constant,
                         delta, rho_K, doubling_constant=None, slack=None):
    """Symmetric-difference ratio against the two theoretical branches.

    Lipschitz branch:   ratio <= 4 L D_delta ((d + slack) / rho_K)^delta
    continuity branch:  ratio <= 2^delta D_mu^2 D_delta (nm(d + slack) / rho_K)^delta

    with nm the capped-linear radius modulus t -> min(L t, diam).

    slack defaults to two grid cells: the continuum annulus argument picks
    up at most one extra cell per side on a lattice.  The record carries
    which branches hold; the Lipschitz branch is the primary verdict.
    """
    if rho_K <= 0:
        raise SpaceFormatError(f"rho_K must be positive, got {rho_K}")
    if slack is None:
        slack = 2.0 * space.resolution()
    d = space.distance(x, y)
    lhs = ball_symdiff_ratio(space, rho, x, y)
    d_eff = d + slack
    c_lip, c_cont = radius_mod.branch_constants(
        lipschitz_L, annular_constant, doubling_constant or 0.0, delta)
    rhs_lip = c_lip * (d_eff / rho_K) ** delta
    lip_ok = lhs <= rhs_lip
    details = {"distance": d, "lipschitz_pass": lip_ok, "rhs_lipschitz": rhs_lip}
    cont_ok = None
    if doubling_constant is not None:
        normalized = Modulus.capped_linear(lipschitz_L, space.diameter())
        rhs_cont = c_cont * (normalized(min(d_eff, normalized.domain_end)) / rho_K) ** delta
        cont_ok = lhs <= rhs_cont
        details.update({"continuity_pass": cont_ok, "rhs_continuity": rhs_cont})
    passed = lip_ok if cont_ok is None else (lip_ok or cont_ok)
    branch = "lipschitz" if lip_ok else ("continuity" if cont_ok else "none")
    return CheckRecord("symdiff_bounds", lhs, rhs_lip, passed, branch=branch,
                       slack_allowance=slack, details=details)


def _lipschitz_modulus(space, rho):
    """The normalized modulus of a Lipschitz radius, t -> min(L t, diam),
    with rho's own L or a fit."""
    L = rho.lipschitz_L or radius_mod.fit_lipschitz(space, rho)
    return Modulus.capped_linear(L, space.diameter())


def hausdorff_gaps(space, rho, x, y, normalized=None):
    """One-sided sup-inf gaps between the radius balls of x and y.

    g_xy = max over s in B_x of min over t in B_y of d(s,t), and the
    transpose.  On a geodesic-like space the symmetrized claim
    (g_xy + g_yx)/2 <= normalized(d(x,y)) + slack must hold; the two printed
    one-sided bounds max(d + rho difference, 0) are evaluated in both
    orientations and recorded, but only the symmetrized claim decides the
    verdict (the one-sided pairing is orientation-ambiguous when the radii
    differ a lot).  slack is two grid cells, the price of discrete
    non-geodesicity; normalized defaults to the Lipschitz radius modulus.
    The distances run in row blocks of B_x (see Space._distance_blocks),
    each taking its row minima and lowering the column minima: max and min
    are exact, so the gaps do not depend on the blocking.
    """
    slack = 2.0 * space.resolution()
    g_xy, col_min = 0.0, np.inf
    for _, sub in space._distance_blocks(_ball(space, rho, x), _ball(space, rho, y)):
        g_xy = max(g_xy, float(sub.min(axis=1).max()))
        col_min = np.minimum(col_min, sub.min(axis=0))
    g_yx = float(col_min.max())
    gaps = GapPair(sup_inf_xy=g_xy, sup_inf_yx=g_yx)
    if not space.geodesic_like:
        rec = CheckRecord("midrange_gap", 0.0, 0.0, True, branch="skipped",
                          details={"note": "space not flagged geodesic-like"})
        return gaps, rec
    if normalized is None:
        normalized = _lipschitz_modulus(space, rho)
    d = space.distance(x, y)
    lhs = 0.5 * (g_xy + g_yx)
    rhs = float(normalized(min(d, normalized.domain_end))) + slack
    one_sided_printed = {
        # as printed: the yx gap against rho(x) - rho(y)
        "yx_vs_plus": g_yx <= max(d + rho[x] - rho[y], 0.0) + slack,
        "xy_vs_minus": g_xy <= max(d + rho[y] - rho[x], 0.0) + slack,
    }
    one_sided_transposed = {
        "xy_vs_plus": g_xy <= max(d + rho[x] - rho[y], 0.0) + slack,
        "yx_vs_minus": g_yx <= max(d + rho[y] - rho[x], 0.0) + slack,
    }
    rec = CheckRecord("midrange_gap", lhs, rhs, lhs <= rhs,
                      branch="symmetrized", slack_allowance=slack,
                      details={"printed_orientation": one_sided_printed,
                               "transposed_orientation": one_sided_transposed,
                               "distance": d})
    return gaps, rec


def oscillation_modulus(space, u, members):
    """Least concave majorant of the oscillation scatter of u over the set."""
    return radius_mod.gap_majorant(space, point_values(u, "field", len(space)),
                                   members)


def check_alpha_mean_modulus(space, rho, u, alpha, members, mean_modulus):
    """One-sweep oscillation transfer on a compact set.

    With omega_swept the empirical modulus of the swept field on the set,
    omega_u the empirical modulus of u on the ball hull of the set, and nm
    the normalized modulus of the Lipschitz radius, verifies

        omega_swept(t) <= |alpha| * omega_u(nm(t) + slack)
                          + (1 - alpha) * ||u||_inf * mean_modulus(t + slack)

    at the breakpoints t of omega_swept.  Requires |alpha| <= 1
    (out-of-hypothesis notice otherwise); slack is two grid cells.
    """
    check_parameters(alpha=alpha)
    if abs(alpha) > 1:
        return CheckRecord("alpha_mean_modulus", 0.0, 0.0, False,
                           branch="out-of-hypothesis",
                           details={"note": f"|alpha| = {abs(alpha)} > 1"})
    slack = 2.0 * space.resolution()
    members = space._indices(members)
    v = point_values(u, "field", len(space))
    norm = float(np.abs(v).max())
    normalized = _lipschitz_modulus(space, rho)
    table = BallTable(space, rho, centers=members)
    swept = apply_alpha_mean(space, rho, v, alpha, table)
    omega_lhs = oscillation_modulus(space, swept, members)
    omega_u = oscillation_modulus(space, v, distinct(table.indices))
    diam = space.diameter()
    probe_ts = distinct(omega_lhs.ts[omega_lhs.ts > 0])
    worst = None
    passed = True
    for t in probe_ts:
        lhs = float(omega_lhs(t))
        arg = min(float(normalized(min(t, diam))) + slack, omega_u.domain_end)
        rhs = abs(alpha) * float(omega_u(arg)) \
            + (1.0 - alpha) * norm * float(mean_modulus(min(t + slack, diam)))
        ok = lhs <= rhs
        passed = passed and ok
        if worst is None or (rhs - lhs) < (worst[1] - worst[0]):
            worst = (lhs, rhs, float(t))
    lhs_w, rhs_w, t_w = worst if worst else (0.0, 0.0, 0.0)
    return CheckRecord("alpha_mean_modulus", lhs_w, rhs_w, passed,
                       branch="sampled-distances", slack_allowance=slack,
                       details={"worst_t": t_w, "alpha": alpha,
                                "n_probes": int(probe_ts.size)})


# -- field files ---------------------------------------------------------------


def read_field_csv(space, path):
    """Field file: header id,value; ids must match the space."""
    return read_id_csv(space, path, "value")


def write_field_csv(space, values, path):
    write_id_csv(space, path, "value", point_values(values, "field", len(space)))
