"""Independent test oracles: dense formulas, brute enumeration, grid search.

Everything here recomputes from dense matrices and first principles, never
through the package's incremental caches or operators, so the two routes can
disagree when one of them is wrong.
"""

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp

import bmcut
from bmcut import ValidationError, certify, escape, manifold

BRUTE_FORCE_LIMIT = 24
PLANTED_MARGIN = 0.5   # planted_instance's lambda_2 must exceed 2 by this


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


def random_tangent(point, rng: np.random.Generator):
    """Unit-Frobenius tangent from a projected Gaussian draw."""
    w = manifold._project_rows(point.sigma,
                               rng.standard_normal(point.sigma.shape))
    nrm = np.linalg.norm(w)
    assert nrm > 0.0, "tangent space is trivial (r = 1?)"
    return w / nrm


def geodesic_distance(p, q) -> float:
    """sqrt of the sum of squared great-circle angles between matching rows.

    The angle arccos<p_i, q_i> is evaluated as 2 atan2(|p_i - q_i|, |p_i + q_i|),
    which stays exact at coincident and antipodal rows where arccos of a
    rounded dot product loses half the digits.
    """
    assert p.sigma.shape == q.sigma.shape
    diff = np.linalg.norm(p.sigma - q.sigma, axis=1)
    summ = np.linalg.norm(p.sigma + q.sigma, axis=1)
    angles = 2.0 * np.arctan2(diff, summ)
    return float(np.sqrt(np.sum(angles**2)))


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


def brute_force_best_cut(instance) -> certify.Cut:
    """Exhaustive sign enumeration (first entry pinned to +1); n <= 24 only."""
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"exhaustive enumeration refused for n={n} > {BRUTE_FORCE_LIMIT}")
    a = instance.dense()
    total = 1 << max(0, n - 1)
    chunk = 1 << 15
    bit_cols = np.arange(max(0, n - 1), dtype=np.uint32)
    best_value = -np.inf
    best_k = 0
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        x = np.empty((ks.size, n))
        x[:, 0] = 1.0
        if n > 1:
            x[:, 1:] = (((ks[:, None] >> bit_cols[None, :]) & 1) * 2.0) - 1.0
        energies = np.einsum("bi,bi->b", x @ a, x)
        j = int(np.argmax(energies))
        if energies[j] > best_value:
            best_value = float(energies[j])
            best_k = int(ks[j])
    signs = np.empty(n)
    signs[0] = 1.0
    if n > 1:
        signs[1:] = (((best_k >> bit_cols) & 1) * 2.0) - 1.0
    return certify.Cut(signs=signs, value=best_value)


@dataclass
class Planted:
    instance: object
    signs: np.ndarray     # the optimal cut x, in the instance's labels
    optimum: float        # x^T A x = 2 (|E_good| - |E_bad|)
    offsets: np.ndarray   # the circulant's connection set C
    lambda2: float        # lambda_2 of the circulant's Laplacian, closed form


def planted_instance(n: int, seed: int) -> Planted:
    """A signed graph whose relaxation optimum is a known cut x.

    A circulant "good" graph on Z_n with 8 random offsets below n/2
    (degree 16), and a random matching of "bad" edges on half the nodes that
    skips every pair the circulant joins, give A = D_x (W_good - W_bad) D_x
    for random signs x, under a random relabelling.  With Lambda(x) = diag(x_i (A x)_i),
    A - Lambda(x) = -D_x (L_good - L_bad) D_x.  L x = 0 for both Laplacians
    and lambda_max(L_bad) <= 2 for a matching, so lambda_2(L_good) > 2 makes
    0 the simple top eigenvalue of A - Lambda(x), and weak duality makes x
    optimal (Bandeira, Found. Comput. Math. 2018).  lambda_2 of a circulant
    is min over k != 0 of sum_c 2 (1 - cos(2 pi k c / n)); a draw whose
    lambda_2 is within PLANTED_MARGIN of 2 is refused.
    """
    rng = np.random.default_rng(seed)
    offsets = 1 + rng.choice(n // 2 - 1, size=8, replace=False)
    angles = 2.0 * np.pi * np.outer(np.arange(1, n), offsets) / n
    lambda2 = float((2.0 * (1.0 - np.cos(angles))).sum(axis=1).min())
    if lambda2 < 2.0 + PLANTED_MARGIN:
        raise ValidationError(f"lambda_2 = {lambda2} is within "
                              f"{PLANTED_MARGIN} of 2")
    gi = np.tile(np.arange(n), offsets.size)
    gj = (gi + np.repeat(offsets, n)) % n
    bi, bj = rng.permutation(n)[:n // 4 * 2].reshape(-1, 2).T
    gap = (bi - bj) % n
    keep = ~np.isin(np.minimum(gap, n - gap), offsets)
    bi, bj = bi[keep], bj[keep]
    x = rng.choice([-1.0, 1.0], size=n)
    i, j = np.concatenate([gi, bi]), np.concatenate([gj, bj])
    w = np.concatenate([np.ones(gi.size), -np.ones(bi.size)]) * x[i] * x[j]
    label = rng.permutation(n)
    raw = sp.coo_array((np.concatenate([w, w]),
                        (label[np.concatenate([i, j])],
                         label[np.concatenate([j, i])])), shape=(n, n))
    signs = np.empty(n)
    signs[label] = x
    return Planted(bmcut.preprocess(raw), signs,
                   2.0 * (gi.size - bi.size), offsets, lambda2)


def lanczos_reference(instance, point, cache, max_iters, rng):
    """Per-vector Lanczos: the basis is a list of (n, r) arrays,
    reorthogonalised by two modified Gram-Schmidt sweeps of one inner
    product per stored vector, and stacked at the end.  It stops at
    breakdown and flags it as exhausted.  It shares the package's curvature
    operator, Hess without a shift, and returns lambda_max(T) as its
    estimate; the recurrence, the orthogonalisation and the reconstruction
    are its own.  Given the same generator it draws the same random numbers
    as lanczos_leading.
    """
    def mgs(vec, basis):
        for b in basis:
            vec = vec - np.sum(vec * b) * b
        return vec

    sigma = point.sigma
    n, r = sigma.shape
    m = min(max_iters, n * (r - 1))
    breakdown_tol = certify.BREAKDOWN_TOL * instance.unit

    def apply(u):
        return manifold._hess_apply_rows(instance, sigma, cache.inner, u)

    u = manifold._project_rows(sigma, rng.standard_normal((n, r)))
    u /= np.linalg.norm(u)
    basis = [u]
    hu = apply(u)
    alphas = [float(np.sum(u * hu))]
    res = hu - alphas[0] * u
    betas = []
    exhausted = False

    for _ in range(1, m):
        res = manifold._project_rows(sigma, res)
        res = mgs(mgs(res, basis), basis)
        beta = float(np.linalg.norm(res))
        if beta <= breakdown_tol:
            exhausted = True
            break
        betas.append(beta)
        unew = res / beta
        hu = apply(unew)
        alphas.append(float(np.sum(unew * hu)))
        res = hu - alphas[-1] * unew - beta * basis[-1]
        basis.append(unew)

    alpha_arr = np.asarray(alphas)
    beta_arr = np.asarray(betas)
    k = len(alphas)
    if k == 1:
        top, y = alpha_arr[0], np.ones(1)
    else:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            alpha_arr, beta_arr, select="i", select_range=(k - 1, k - 1))
        top, y = float(vals[0]), vecs[:, 0]
    stack = np.stack(basis)
    direction = manifold._project_rows(sigma, np.tensordot(y, stack, axes=1))
    direction /= np.linalg.norm(direction)
    return escape.LanczosResult(
        estimate=float(top),
        direction=direction,
        tri=escape.TridiagonalForm(alpha=alpha_arr, beta=beta_arr, basis=stack),
        exhausted=exhausted,
        iterations=k,
    )


def round_cut_reference(instance, point, trials, rng):
    """Per-trial hyperplane rounding: one raw standard normal draw z of r,
    the signs of sigma z with sign(0) := +1, and one cut_value matvec per
    trial, keeping the first strictly best.  z is not normalised, which
    leaves the signs of z/|z|, and a zero draw gives the all-+1 trial.
    Given the same generator it draws the same random numbers as round_cut.
    """
    sigma = point.sigma
    best_signs = None
    best_value = -np.inf
    for _ in range(trials):
        z = rng.standard_normal(sigma.shape[1])
        x = np.where(sigma @ z >= 0.0, 1.0, -1.0)
        v = certify.cut_value(instance, x)
        if v > best_value:
            best_value = v
            best_signs = x
    return certify.Cut(signs=best_signs, value=best_value)


def bcm_step_reference(instance, point, cache, i: int) -> float:
    """The coordinate step by gather and scatter alone: g, norms and inner of
    every neighbour of row i are gathered, updated and written back, whether
    or not row i touches every other row."""
    ni = cache.norms[i]
    if ni <= 0.0:
        return 0.0
    ascent = 2.0 * (ni - cache.inner[i])
    if ascent <= 0.0:
        return 0.0
    sigma = point.sigma
    new = cache.g[i] / ni
    delta = new - sigma[i]
    sigma[i] = new
    cache.inner[i] = ni
    cols, vals = instance.row(i)
    if cols.size:
        gc = cache.g[cols]
        gc += vals[:, None] * delta[None, :]
        cache.g[cols] = gc
        cache.norms[cols] = np.sqrt(np.vecdot(gc, gc))
        cache.inner[cols] = np.vecdot(gc, sigma[cols])
    return float(ascent)


def block_sweep_reference(instance, point, cache, rows) -> np.ndarray:
    """bcm_step_reference on each of rows in turn: the step-by-step sweep
    that bcm.block_sweep delays, returning the same per-step ascents."""
    return np.asarray([bcm_step_reference(instance, point, cache, i)
                       for i in rows])


def matrix_market_reference(path):
    """A Matrix Market file through scipy's reader and `preprocess`'s
    (A + A^T)/2, whatever its header's symmetry: the loader's old path."""
    return bmcut.preprocess(scipy.io.mmread(path))


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
