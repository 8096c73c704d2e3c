import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from pharmonious import RadiusField, Space, interval_grid, square_grid

# every run draws the same examples; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def grid1d():
    """Dyadic 1D grid on [0,1], h = 1/256."""
    return interval_grid(257)


@pytest.fixture(scope="session")
def grid1d_rho(grid1d):
    return RadiusField.scaled_boundary_distance(grid1d, 0.4)


@pytest.fixture(scope="session")
def grid2d_small():
    """33x33 grid on [0,1]^2, h = 1/32."""
    return square_grid(33)


@pytest.fixture(scope="session")
def grid2d_65():
    return square_grid(65)


# -- Euclidean test spaces ------------------------------------------------------


def box_space(coords, weights=None, boundary=None):
    """A Euclidean space on coords, unit weights unless given; the boundary
    defaults to the points within 0.1 of a face of the unit box."""
    if boundary is None:
        boundary = np.flatnonzero(np.minimum(coords, 1.0 - coords).min(axis=1) < 0.1)
    return Space(coords=coords, weights=np.ones(len(coords)) if weights is None else weights,
                 boundary=boundary)


def cloud(dim, n, seed, weighted=False, disk=False, boundary=None):
    """n seeded uniform points of [0, 1]^dim (disk: those within 0.5 of its
    centre), as a box_space; weighted draws the weights from [0.5, 2) after
    the points."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(size=(n, dim))
    if disk:
        c = c[((c - 0.5) ** 2).sum(axis=1) <= 0.25]
    return box_space(c, rng.uniform(0.5, 2.0, len(c)) if weighted else None, boundary)


def disk_cloud(n, seed):
    """n seeded uniform points of the disk of radius 0.5 about the origin,
    weights 1/n, the outer ring 0.45 < |x| as boundary."""
    rng = np.random.default_rng(seed)
    r, theta = 0.5 * np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2 * np.pi, n)
    return Space(coords=np.column_stack([r * np.cos(theta), r * np.sin(theta)]),
                 weights=np.full(n, 1.0 / n), boundary=np.flatnonzero(r > 0.45))


def cube_grid(n, boundary=None):
    """The n^3 grid on [0,1]^3 in raveled order (strips keyed by two leading
    coordinates), unit weights; the boundary defaults to its outer frame."""
    x = np.linspace(0.0, 1.0, n)
    c = np.stack(np.meshgrid(x, x, x, indexing="ij"), -1).reshape(-1, 3)
    if boundary is None:
        boundary = np.flatnonzero(np.any((c == 0.0) | (c == 1.0), axis=1))
    return box_space(c, boundary=boundary)


def reordered(sp, perm):
    """The Euclidean space sp with its points in the order perm."""
    where = np.empty_like(perm)
    where[perm] = np.arange(len(sp))
    return Space(coords=sp.coords[perm], weights=sp.weights[perm],
                 boundary=where[sp.boundary_indices])


def shuffled(sp, seed):
    """sp in a seeded random point order (see reordered)."""
    return reordered(sp, np.random.default_rng(seed).permutation(len(sp)))


def run_ends(table):
    """(a, b) of each distinct run [a, b) of a BallTable, read off its two
    sparse-table queries k n + a and k n + b - 2^k, with a check that k is
    the run's level floor(log2(b - a)) and the table has one level more
    than its longest run's."""
    n = len(table.space)
    k, a = np.divmod(table._query_lo.astype(np.int64), n)
    b = table._query_hi - k * n + 2 ** k
    assert np.all((2 ** k <= b - a) & (b - a < 2 ** (k + 1)))
    assert table._levels == int(k.max(initial=0)) + 1
    return a, b


# -- graph test spaces ----------------------------------------------------------


def lattice_doc(n):
    """The n-by-n lattice graph on [0, 1]^2 as a space document, the space
    the benchmark's lattice document builds: coordinates, Lebesgue weights,
    unit-step edges of length 1/(n - 1), the outer frame as boundary and no
    analytic constants."""
    h = 1.0 / (n - 1)
    points = [{"id": k, "coords": [k // n * h, k % n * h], "weight": h * h,
               "boundary": k // n in (0, n - 1) or k % n in (0, n - 1)}
              for k in range(n * n)]
    edges = ([[k, k + 1, h] for k in range(n * n) if k % n < n - 1]
             + [[k, k + n, h] for k in range(n * n - n)])
    return {"metric": "graph", "points": points, "edges": edges}


def hub_lattice_doc(n=65, every=16):
    """lattice_doc(n) with point 0 also joined to every every-th point, each
    link at the Euclidean length between the two: a hub of degree
    2 + (n^2 - 1) // every among points of degree at most 5."""
    doc = lattice_doc(n)
    h = 1.0 / (n - 1)
    doc["edges"] += [[0, k, math.hypot(k // n, k % n) * h]
                     for k in range(every, n * n, every)]
    return doc


def hub_star(n=200):
    """A star of n points about point 0, edge k of length 1 + k/n, point 1
    the boundary: padded to its largest degree it would hold n^2 entries."""
    i = np.arange(1, n)
    return Space(weights=np.ones(n), boundary=[1], metric="graph",
                 edges=np.column_stack([np.zeros(n - 1), i, 1.0 + i / n]))


# -- fixtures ---------------------------------------------------------------------


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _traced(call):
    """(kept, peak) bytes traced over call(), its result kept."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 (kept while the memory is read)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """_traced: (kept, peak) bytes traced over a call."""
    return _traced


def matrix_cloud():
    """80 random points of the unit square under an explicit distance matrix;
    boundary = the points within 0.15 of the square's edge."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(80, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    edge = np.minimum(pts, 1.0 - pts).min(axis=1)
    return Space(metric="matrix", matrix=np.maximum(d, d.T),
                 weights=rng.uniform(0.5, 2.0, size=80),
                 boundary=np.flatnonzero(edge < 0.15))


@pytest.fixture(scope="session")
def matrix_space():
    """The 80-point matrix space of matrix_cloud."""
    return matrix_cloud()


@pytest.fixture(scope="session")
def permuted_grid():
    """square_grid(17) in a random point order: consecutive indices are no
    longer neighbours, so almost every index run is one member long."""
    return shuffled(square_grid(17), 5)


@pytest.fixture(scope="session")
def random_graph():
    """Factory of seeded random weighted graphs: a chain 0 - 1 - ... - n-1
    plus random chords (self-loops included), weights in [0.1, 2).

    split drops the middle chain edge and every chord across it, leaving
    two components; parallel adds every chord again, reversed, at a new
    weight.  The boundary defaults to both ends of the chain."""
    def make(seed, n=60, chords=90, split=False, parallel=False, boundary=None):
        rng = np.random.default_rng(seed)
        chain = [[k, k + 1, w] for k, w in enumerate(rng.uniform(0.1, 2.0, n - 1))
                 if not (split and k == n // 2 - 1)]
        i, j = rng.integers(0, n, size=(2, chords))
        if split:
            keep = (i < n // 2) == (j < n // 2)
            i, j = i[keep], j[keep]
        edges = [np.array(chain), np.column_stack([i, j, rng.uniform(0.1, 2.0, len(i))])]
        if parallel:
            edges.append(np.column_stack([j, i, rng.uniform(0.1, 2.0, len(i))]))
        return Space(weights=rng.uniform(0.5, 2.0, n), metric="graph",
                     edges=np.vstack(edges),
                     boundary=[0, n - 1] if boundary is None else boundary)
    return make
