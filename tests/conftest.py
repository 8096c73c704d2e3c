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


@pytest.fixture(scope="session")
def matrix_space():
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
def permuted_grid():
    """square_grid(17) in a random point order: consecutive indices are no
    longer neighbours, so almost every index run is one member long."""
    sp = square_grid(17)
    perm = np.random.default_rng(5).permutation(len(sp))
    where = np.empty_like(perm)
    where[perm] = np.arange(len(sp))
    return Space(coords=sp.coords[perm], weights=sp.weights[perm],
                 boundary=where[sp.boundary_indices])


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
