"""Geometry of the product of unit spheres: points, tangents, maps, derivatives.

A point is an (n, r) matrix with unit rows, r >= 1.  A tangent at that point
is a plain (n, r) array whose rows are orthogonal to the corresponding point
rows; the public functions that take one check it.  All operations here are
pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-8
ZERO_ROW_TOL = 1e-14


@dataclass
class FactorPoint:
    """An (n, r) factor matrix with unit rows."""

    sigma: np.ndarray

    def __post_init__(self):
        self.sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        if self.sigma.ndim != 2:
            raise DimensionError(f"factor must be 2-d, got shape {self.sigma.shape}")
        if self.sigma.shape[1] < 1:
            raise ValidationError("a factor needs r >= 1")
        err = np.abs(np.einsum("ij,ij->i", self.sigma, self.sigma) - 1.0)
        if err.size and not err.max() <= 2.0 * UNIT_TOL:  # NaN fails
            raise ValidationError(f"rows are not unit norm (max error {err.max():g})")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def r(self) -> int:
        return self.sigma.shape[1]

    def copy(self) -> "FactorPoint":
        return FactorPoint(self.sigma.copy())


def _check_tangency(sigma: np.ndarray, u: np.ndarray, tol: float = TANGENT_TOL):
    if u.shape != sigma.shape:
        raise DimensionError(f"tangent shape {u.shape} != point shape {sigma.shape}")
    dots = np.abs(np.einsum("ij,ij->i", sigma, u))
    scale = 1.0 + np.linalg.norm(u, axis=1)
    worst = (dots / scale).max() if dots.size else 0.0
    if not worst <= tol:  # NaN fails
        raise ValidationError(f"matrix is not tangent to the point (error {worst:g})")


def _project_rows(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise orthogonal projection: w_i - <sigma_i, w_i> sigma_i."""
    return w - np.einsum("ij,ij->i", sigma, w)[:, None] * sigma


def random_point(n: int, r: int, rng: np.random.Generator) -> FactorPoint:
    """Rows drawn uniformly on the unit sphere via normalized Gaussians."""
    if n < 0 or r < 1:
        raise ValidationError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    x = rng.standard_normal((n, r))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-300
    if bad.any():
        x[bad] = 0.0
        x[bad, 0] = 1.0
        norms[bad] = 1.0
    return FactorPoint(x / norms)


def exp_map(point: FactorPoint, u: np.ndarray, t: float) -> FactorPoint:
    """Geodesic step: row i moves to sigma_i cos(|u_i| t) + (u_i/|u_i|) sin(|u_i| t).

    Rows with |u_i| below the zero-motion tolerance are returned unchanged.
    """
    if t < 0:
        raise ValidationError(f"step length must be >= 0, got {t}")
    _check_tangency(point.sigma, u)
    sigma = point.sigma
    row_norms = np.linalg.norm(u, axis=1)
    moving = row_norms > ZERO_ROW_TOL
    out = sigma.copy()
    if moving.any():
        nr = row_norms[moving][:, None]
        theta = nr * t
        out[moving] = sigma[moving] * np.cos(theta) + (u[moving] / nr) * np.sin(theta)
    return FactorPoint(out)


def riemannian_gradient(point: FactorPoint, cache) -> np.ndarray:
    """Rows 2 (g_i - <sigma_i, g_i> sigma_i); tangent by construction."""
    return 2.0 * (cache.g - cache.inner[:, None] * point.sigma)


def grad_metric_sq(cache) -> float:
    """The ascent metric 2 sum_i (|g_i|^2 - <sigma_i, g_i>^2).

    This is the quantity the escape threshold and the rate bounds are
    calibrated against; it equals half the squared Frobenius norm of
    riemannian_gradient.  Per-row terms are clamped at zero, which only
    absorbs last-bit cancellation noise.
    """
    terms = cache.norms**2 - cache.inner**2
    return float(2.0 * np.sum(np.maximum(terms, 0.0)))


def hess_quadratic(instance, point: FactorPoint, u: np.ndarray, cache) -> float:
    """Curvature quadratic form 2 (<U, A U> - sum_i lambda_i |u_i|^2)."""
    _check_tangency(point.sigma, u)
    au = instance.matmat(u)
    quad = np.sum(u * au) - np.sum(cache.inner * np.einsum("ij,ij->i", u, u))
    return float(2.0 * quad)


def _hess_apply_rows(instance, sigma: np.ndarray, inner: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """Curvature operator on the tangent array u: the tangent projection of
    2 (A U - Lambda U), with Lambda = diag(inner)."""
    raw = 2.0 * (instance.matmat(u) - inner[:, None] * u)
    return _project_rows(sigma, raw)


def save_point(point: FactorPoint, path: str) -> None:
    """Write a point as CSV when path ends in .csv, otherwise as little-endian
    binary: n, r (int64), then the row-major float64 entries."""
    if path.endswith(".csv"):
        np.savetxt(path, point.sigma, delimiter=",", fmt="%.17g")
        return
    with open(path, "wb") as fh:
        fh.write(np.int64(point.n).astype("<i8").tobytes())
        fh.write(np.int64(point.r).astype("<i8").tobytes())
        fh.write(point.sigma.astype("<f8").tobytes())


def load_point(path: str) -> FactorPoint:
    """Read a point written by save_point; the extension picks the format."""
    if path.endswith(".csv"):
        return FactorPoint(np.loadtxt(path, delimiter=",", ndmin=2))
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise ValidationError(f"{path}: truncated point file")
        n = int(np.frombuffer(head[:8], dtype="<i8")[0])
        r = int(np.frombuffer(head[8:], dtype="<i8")[0])
        body = fh.read()
    if n < 0 or r < 0:
        raise ValidationError(f"{path}: negative size n={n}, r={r}")
    if len(body) != 8 * n * r:
        raise ValidationError(f"{path}: expected {8 * n * r} payload bytes")
    return FactorPoint(np.frombuffer(body, dtype="<f8").reshape(n, r).copy())
