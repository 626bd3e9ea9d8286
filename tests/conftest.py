import numpy as np
import pytest

import bmcut


@pytest.fixture
def edge2():
    """Two nodes, one unit edge."""
    return bmcut.preprocess([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def triangle():
    """Complete graph on 3 nodes with all weights -1."""
    return bmcut.preprocess(-(np.ones((3, 3)) - np.eye(3)))


@pytest.fixture
def triangle_saddle():
    """All rows equal: a stationary point of the triangle instance, f = -6."""
    return bmcut.FactorPoint(np.tile([1.0, 0.0], (3, 1)))


@pytest.fixture
def triangle_optimum():
    """Rows at mutual 120 degrees: the r=2 maximizer, f = 3."""
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    return bmcut.FactorPoint(np.column_stack([np.cos(ang), np.sin(ang)]))


def small_corpus(sizes=(10, 50, 200), seeds=(0, 1)):
    """Mixed Gaussian and signed Erdos-Renyi instances."""
    out = []
    for n in sizes:
        for s in seeds:
            out.append(bmcut.gen_gaussian(n, seed=100 * n + s))
            edges = min(3 * n, n * (n - 1) // 2)
            sign = -1 if s % 2 == 0 else 1
            out.append(bmcut.gen_erdos_renyi(n, edges, sign, seed=200 * n + s))
    return out


# (file name, format, text) of files each loader reads but the instance
# build refuses: an infinite entry, and finite entries whose sums overflow:
# a column's one-norm, a repeated edge's weight, and the self-loops' trace
REFUSED_FILES = [
    pytest.param("inf.mtx", "matrix-market",
                 "%%MatrixMarket matrix coordinate real general\n"
                 "2 2 1\n2 1 inf\n", id="mtx_inf"),
    pytest.param("big.mtx", "matrix-market",
                 "%%MatrixMarket matrix coordinate real general\n"
                 "3 3 2\n2 1 1e308\n3 1 1e308\n", id="mtx_overflow"),
    pytest.param("big.txt", "edge-list", "1 2 1e308\n1 3 1e308\n",
                 id="edges_overflow"),
    pytest.param("big.txt", "edge-list", "1 2 1e308\n2 1 1e308\n",
                 id="edges_repeat_overflow"),
    pytest.param("big.txt", "edge-list", "1 1 1e308\n2 2 1e308\n1 2 1.0\n",
                 id="edges_self_loops_overflow"),
]


def gaussian_pair_zeroed(n, seed):
    """A Gaussian instance with the pair (0, 1) zeroed: rows 0 and 1 are
    partial, so the instance is not complete."""
    a = bmcut.gen_gaussian(n, seed).dense()
    a[0, 1] = a[1, 0] = 0.0
    return bmcut.preprocess(a)


def negated_complete(n):
    """K_n's Max-Cut instance A = I - J, complete.  At the all-equal point
    A - Lambda = n I - J, whose top eigenvalue n has multiplicity n - 1."""
    return bmcut.preprocess(-(np.ones((n, n)) - np.eye(n)))
