"""Independent test oracles: dense formulas, brute enumeration, grid search.

Everything here recomputes from dense matrices and first principles, never
through the package's incremental caches or operators, so the two routes can
disagree when one of them is wrong.
"""

import numpy as np

from bmcut import manifold


def f_dense(instance, sigma: np.ndarray) -> float:
    """Objective <A, S S^T> from the dense cost matrix."""
    a = instance.dense()
    return float(np.sum(a * (sigma @ sigma.T)))


def lambda_dense(instance, sigma: np.ndarray) -> np.ndarray:
    """diag(A S S^T) from dense matrices."""
    a = instance.dense()
    return np.diag(a @ sigma @ sigma.T).copy()


def grad_dense(instance, sigma: np.ndarray) -> np.ndarray:
    """Rows 2 (g_i - <sigma_i, g_i> sigma_i) from dense matrices."""
    a = instance.dense()
    g = a @ sigma
    lam = np.einsum("ij,ij->i", sigma, g)
    return 2.0 * (g - lam[:, None] * sigma)


def tangent_basis(sigma: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the tangent space: one-hot rows times an
    orthonormal completion of each sigma_i."""
    n, r = sigma.shape
    basis = []
    for i in range(n):
        proj = np.eye(r) - np.outer(sigma[i], sigma[i])
        w, v = np.linalg.eigh(proj)
        vecs = v[:, w > 0.5]
        assert vecs.shape[1] == r - 1
        for m in range(r - 1):
            e = np.zeros((n, r))
            e[i] = vecs[:, m]
            basis.append(e)
    return basis


def dense_tangent_hessian(instance, sigma: np.ndarray) -> np.ndarray:
    """The curvature operator as an n(r-1) square matrix in an explicit
    tangent basis, from the analytic form 2 <u, (A - Lambda) v>."""
    a = instance.dense()
    lam = lambda_dense(instance, sigma)
    basis = tangent_basis(sigma)
    dim = len(basis)
    h = np.empty((dim, dim))
    images = [2.0 * (a @ e - lam[:, None] * e) for e in basis]
    for col, img in enumerate(images):
        for row, e in enumerate(basis):
            h[row, col] = np.sum(e * img)
    return 0.5 * (h + h.T)


def triangle_angular_max(resolution: float = 1e-3) -> float:
    """Grid-search maximum of the objective for the all -1 triangle at r=2.

    With sigma_1 pinned at angle 0, f(t2, t3) =
    -2 (cos t2 + cos t3 + cos(t2 - t3)).
    """
    grid = np.arange(0.0, 2 * np.pi, resolution)
    best = -np.inf
    c = np.cos(grid)
    chunk = 512
    for lo in range(0, grid.size, chunk):
        t2 = grid[lo:lo + chunk][:, None]
        f = -2.0 * (np.cos(t2) + c[None, :] + np.cos(t2 - grid[None, :]))
        best = max(best, float(f.max()))
    return best


def exhaustive_best_cut(instance) -> float:
    """Plain 2^n enumeration (no symmetry tricks), small n only."""
    n = instance.n
    assert n <= 16
    a = instance.dense()
    best = -np.inf
    for k in range(1 << n):
        x = np.array([1.0 if (k >> b) & 1 else -1.0 for b in range(n)])
        best = max(best, float(x @ a @ x))
    return best


def align_procrustes(p: np.ndarray, q: np.ndarray):
    """Orthogonal Q minimizing ||p - q Q||_F, plus the minimized residual:
    the distance between two factors up to the orthogonal symmetry of the
    objective."""
    assert p.shape == q.shape
    uu, _, vt = np.linalg.svd(q.T @ p)
    rot = uu @ vt
    return rot, float(np.linalg.norm(p - q @ rot))


class TestProcrustes:
    """Checks of the oracle itself; test_manifold imports this class, which is
    where pytest collects it."""

    def test_orbit_member_zero_residual(self):
        rng = np.random.default_rng(5)
        p = manifold.random_point(8, 3, rng).sigma
        q0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        _, res = align_procrustes(p, p @ q0)
        assert res < 1e-10

    def test_same_point_identity(self):
        p = manifold.random_point(6, 3, np.random.default_rng(8)).sigma
        rot, res = align_procrustes(p, p)
        assert res < 1e-10
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_residual_bounded_by_plain_distance(self):
        rng = np.random.default_rng(9)
        p = manifold.random_point(7, 3, rng).sigma
        q = manifold.random_point(7, 3, rng).sigma
        _, res = align_procrustes(p, q)
        assert res <= np.linalg.norm(p - q) + 1e-12
