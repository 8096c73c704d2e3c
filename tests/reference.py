"""Slow references for the differential tests.

Every expected distance, ball, ball measure, member-wise mean and full
pair-scan maximum of the tests is computed here, from a space's raw inputs
alone: the coordinates, the edge list, the weights and the input matrix.
Each query takes full dense rows with no blocking, and none reads a search
structure of the space or calls a Space query, so a fault in the code under
test cannot carry over into its reference.

- Euclidean spaces: the square root of the squared coordinate differences
  added column by column, in coordinate order, which gives the library's
  bits in every dimension (sum() pairs eight or more terms, so it would
  not).
- Graph spaces: scipy's Dijkstra on a CSR built here from the edge list,
  each node pair once at its smallest weight, self-loops dropped.
- Matrix spaces: the input matrix, as the space keeps it.

The geodesic defect's hop graph is built here too, from the dense rows, and
searched by scipy's Dijkstra.
"""

import functools
import random

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra


def edge_pairs(sp):
    """(lo, hi, w): every node pair lo < hi of the edge list once, ascending
    by (lo, hi), at its smallest weight; self-loops dropped."""
    e = sp.edges
    lo = np.minimum(e[:, 0], e[:, 1]).astype(int)
    hi = np.maximum(e[:, 0], e[:, 1]).astype(int)
    order = np.lexsort((e[:, 2], hi, lo))
    lo, hi, w = lo[order], hi[order], e[order, 2]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    keep = first & (lo != hi)
    return lo[keep], hi[keep], w[keep]


@functools.lru_cache(maxsize=4)
def _graph(sp):
    """The CSR of edge_pairs, every pair stored both ways."""
    lo, hi, w = edge_pairs(sp)
    n = len(sp.weights)
    return sparse.csr_matrix((np.concatenate([w, w]),
                              (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
                             shape=(n, n))


def distances(sp, rows=None, limit=np.inf):
    """The dense block d(rows, every point), rows default to every point;
    graph entries farther than limit read inf."""
    rows = np.arange(len(sp.weights)) if rows is None else np.asarray(rows)
    if sp.metric == "euclidean":
        c = sp.coords
        return np.array([np.sqrt(functools.reduce(np.add, ((c[r] - c) ** 2).T))
                         for r in rows])
    if sp.metric == "matrix":
        return sp._metric.matrix[rows]
    return dijkstra(_graph(sp), directed=True, indices=rows, limit=limit)


def adjacent_pairs(sp, members):
    """(i, j, d) of the K-adjacent pairs i < j of K = members, ascending by
    (i, j): d is the least path from i to j with no point of K inside, by
    scipy's Dijkstra from i over the edges of edge_pairs that leave i or a
    point outside K."""
    lo, hi, w = edge_pairs(sp)
    n = len(sp.weights)
    tail, head, w = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([w, w])
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    k = np.flatnonzero(inside)
    out = []
    for i in k:
        keep = ~inside[tail] | (tail == i)
        graph = sparse.csr_matrix((w[keep], (tail[keep], head[keep])), shape=(n, n))
        d = dijkstra(graph, directed=True, indices=i)[k]
        found = (k > i) & np.isfinite(d)
        out.append((np.full(found.sum(), i), k[found], d[found]))
    return tuple(np.concatenate(x) for x in zip(*out))


def nearest(sp, targets):
    """The distance from every point to its nearest target: a running
    minimum over the targets' rows."""
    d = np.full(len(sp.weights), np.inf)
    for t in targets:
        np.minimum(d, distances(sp, [t])[0], out=d)
    return d


def least_distance(sp):
    """The least distance between two distinct points."""
    d = distances(sp)
    return d[~np.eye(len(d), dtype=bool)].min()


def balls(sp, centers, radii):
    """The closed balls {y : d(c, y) <= r} as (members, counts, a, b): the
    members of every ball ascending, concatenated, the count per ball, and
    the maximal runs [a, b) of consecutive members of each ball."""
    rows, members = np.nonzero(distances(sp, centers) <= np.asarray(radii)[:, None])
    counts = np.bincount(rows, minlength=len(centers))
    new = np.ones(len(members), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (members[1:] != members[:-1] + 1)
    at = np.flatnonzero(new)
    ends = members[np.append(at[1:], len(members)) - 1] + 1
    return members, counts, members[at], ends


def ball_measures(sp, x, radii):
    """mu(B(x, r)) for each radius r: the weights of each ball's members,
    summed member by member over x's distance row."""
    d = distances(sp, [x])[0]
    return np.array([sp.weights[d <= r].sum() for r in radii])


def alpha_means(sp, centers, radii, v, alpha):
    """alpha * midrange + (1 - alpha) * weighted mean of v over each ball,
    reduced over every member; the mean is taken about the centre's
    value."""
    members, counts, _, _ = balls(sp, centers, radii)
    starts = np.cumsum(counts) - counts
    vals, w = v[members], sp.weights[members]
    center_vals = v[centers]
    m = center_vals + np.add.reduceat(w * (vals - np.repeat(center_vals, counts)), starts) \
        / np.add.reduceat(w, starts)
    s = 0.5 * (np.maximum.reduceat(vals, starts) + np.minimum.reduceat(vals, starts))
    return s if alpha == 1.0 else m + alpha * (s - m)


def max_ratio(sp, u, exponent=1.0, members=None):
    """max |u(x) - u(y)| / d(x, y)^exponent over every pair x < y of members
    (default: every point) at a positive distance, d read from x's row."""
    members = np.arange(len(sp.weights)) if members is None else np.asarray(members)
    d = distances(sp, members)[:, members]
    du = np.abs(u[members][:, None] - u[members][None, :])
    pair = np.triu(d > 0, 1)
    return float((du[pair] / d[pair] ** exponent).max(initial=0.0))


def geodesic_defect(sp, samples, seed):
    """max over the sampled sources x and every y of the hop-graph path
    length minus d(x, y), inf when a hop path is missing: the hop graph joins
    the pairs within 1.5 least distances, each at its distance, and the
    sources are min(samples, n) distinct points drawn by the standard
    library's random.Random(seed).sample(range(n), k)."""
    d = distances(sp)
    res = least_distance(sp)
    lo, hi = np.nonzero(np.triu(d <= 1.5 * res, 1))
    n = len(d)
    hops = sparse.csr_matrix((d[lo, hi], (lo, hi)), shape=(n, n))
    sources = random.Random(seed).sample(range(n), min(samples, n))
    paths = dijkstra(hops, directed=False, indices=sources)
    if not np.isfinite(paths).all():
        return np.inf
    return float((paths - d[sources]).max())
