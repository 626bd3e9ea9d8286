"""Geometry of the product of unit spheres: points, tangents, maps, derivatives.

A point is an (n, r) matrix with unit rows.  A tangent vector at that point is
an (n, r) matrix whose rows are orthogonal to the corresponding point rows.
All operations here are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-8
ZERO_ROW_TOL = 1e-14


@dataclass
class FactorPoint:
    """An (n, r) factor matrix with unit rows."""

    sigma: np.ndarray
    allow_r1: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        if self.sigma.ndim != 2:
            raise DimensionError(f"factor must be 2-d, got shape {self.sigma.shape}")
        if self.sigma.shape[1] < 2 and not self.allow_r1:
            raise ValidationError(
                "r = 1 is only meant for rounding diagnostics; pass allow_r1=True"
            )
        err = np.abs(np.einsum("ij,ij->i", self.sigma, self.sigma) - 1.0)
        if err.size and err.max() > 2.0 * UNIT_TOL:
            raise ValidationError(f"rows are not unit norm (max error {err.max():g})")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def r(self) -> int:
        return self.sigma.shape[1]

    def copy(self) -> "FactorPoint":
        return FactorPoint(self.sigma.copy(), allow_r1=self.allow_r1)

    def renormalize(self) -> None:
        """Rescale rows back to unit norm after long mutating runs."""
        self.sigma /= np.linalg.norm(self.sigma, axis=1, keepdims=True)


@dataclass
class TangentVector:
    """An (n, r) matrix with each row orthogonal to the base point's row."""

    u: np.ndarray
    point: FactorPoint

    def __post_init__(self):
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        if self.u.shape != self.point.sigma.shape:
            raise DimensionError(
                f"tangent shape {self.u.shape} != point shape {self.point.sigma.shape}"
            )
        _check_tangency(self.point.sigma, self.u)

    def norm(self) -> float:
        return float(np.linalg.norm(self.u))


def _check_tangency(sigma: np.ndarray, u: np.ndarray, tol: float = TANGENT_TOL):
    dots = np.abs(np.einsum("ij,ij->i", sigma, u))
    scale = 1.0 + np.linalg.norm(u, axis=1)
    worst = (dots / scale).max() if dots.size else 0.0
    if worst > tol:
        raise ValidationError(f"matrix is not tangent to the point (error {worst:g})")


def _project_rows(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w - np.einsum("ij,ij->i", sigma, w)[:, None] * sigma


def random_point(n: int, r: int, rng: np.random.Generator,
                 allow_r1: bool = False) -> FactorPoint:
    """Rows drawn uniformly on the unit sphere via normalized Gaussians."""
    x = rng.standard_normal((n, r))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-300
    if bad.any():
        x[bad] = 0.0
        x[bad, 0] = 1.0
        norms[bad] = 1.0
    return FactorPoint(x / norms, allow_r1=allow_r1)


def random_tangent(point: FactorPoint, rng: np.random.Generator) -> TangentVector:
    """Unit-Frobenius tangent from a projected Gaussian draw."""
    w = _project_rows(point.sigma, rng.standard_normal(point.sigma.shape))
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise ValidationError("tangent space is trivial (r = 1?)")
    return TangentVector(w / nrm, point)


def project_tangent(point: FactorPoint, w) -> TangentVector:
    """Rowwise orthogonal projection: w_i - <sigma_i, w_i> sigma_i."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != point.sigma.shape:
        raise DimensionError(f"shape {w.shape} != point shape {point.sigma.shape}")
    return TangentVector(_project_rows(point.sigma, w), point)


def exp_map(point: FactorPoint, u: TangentVector, t: float) -> FactorPoint:
    """Geodesic step: row i moves to sigma_i cos(|u_i| t) + (u_i/|u_i|) sin(|u_i| t).

    Rows with |u_i| below the zero-motion tolerance are returned unchanged.
    """
    if t < 0:
        raise ValidationError(f"step length must be >= 0, got {t}")
    _check_tangency(point.sigma, u.u)
    sigma = point.sigma
    row_norms = np.linalg.norm(u.u, axis=1)
    moving = row_norms > ZERO_ROW_TOL
    out = sigma.copy()
    if moving.any():
        nr = row_norms[moving][:, None]
        theta = nr * t
        out[moving] = sigma[moving] * np.cos(theta) + (u.u[moving] / nr) * np.sin(theta)
    return FactorPoint(out, allow_r1=point.allow_r1)


def geodesic_distance(p: FactorPoint, q: FactorPoint) -> float:
    """sqrt of the sum of squared great-circle angles between matching rows.

    The angle arccos<p_i, q_i> is evaluated as 2 atan2(|p_i - q_i|, |p_i + q_i|),
    which stays exact at coincident and antipodal rows where arccos of a
    rounded dot product loses half the digits.
    """
    if p.sigma.shape != q.sigma.shape:
        raise DimensionError("points have different shapes")
    diff = np.linalg.norm(p.sigma - q.sigma, axis=1)
    summ = np.linalg.norm(p.sigma + q.sigma, axis=1)
    angles = 2.0 * np.arctan2(diff, summ)
    return float(np.sqrt(np.sum(angles**2)))


def riemannian_gradient(point: FactorPoint, cache) -> TangentVector:
    """Rows 2 (g_i - <sigma_i, g_i> sigma_i); tangent by construction."""
    grad = 2.0 * (cache.g - cache.inner[:, None] * point.sigma)
    return TangentVector(grad, point)


def grad_metric_sq(point: FactorPoint, cache) -> float:
    """The ascent metric 2 sum_i (|g_i|^2 - <sigma_i, g_i>^2).

    This is the quantity the escape threshold and the rate bounds are
    calibrated against; it equals half the squared Frobenius norm of
    riemannian_gradient.  Per-row terms are clamped at zero, which only
    absorbs last-bit cancellation noise.
    """
    terms = cache.norms**2 - cache.inner**2
    return float(2.0 * np.sum(np.maximum(terms, 0.0)))


def hess_quadratic(instance, point: FactorPoint, u: TangentVector, cache) -> float:
    """Curvature quadratic form 2 (<U, A U> - sum_i lambda_i |u_i|^2)."""
    _check_tangency(point.sigma, u.u)
    au = instance.matmat(u.u)
    quad = np.sum(u.u * au) - np.sum(cache.inner * np.einsum("ij,ij->i", u.u, u.u))
    return float(2.0 * quad)


def hess_apply(instance, point: FactorPoint, u: TangentVector, cache) -> TangentVector:
    """Curvature operator: tangent projection of 2 (A U - Lambda U)."""
    _check_tangency(point.sigma, u.u)
    out = _hess_apply_rows(instance, point.sigma, cache.inner, u.u)
    return TangentVector(out, point)


def _hess_apply_rows(instance, sigma: np.ndarray, inner: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    raw = 2.0 * (instance.matmat(u) - inner[:, None] * u)
    return _project_rows(sigma, raw)


def save_point(point: FactorPoint, path: str, fmt: str = "binary") -> None:
    """Serialize a point: little-endian (n, r, row-major f64) or CSV."""
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(np.int64(point.n).astype("<i8").tobytes())
            fh.write(np.int64(point.r).astype("<i8").tobytes())
            fh.write(point.sigma.astype("<f8").tobytes())
    elif fmt == "csv":
        np.savetxt(path, point.sigma, delimiter=",", fmt="%.17g")
    else:
        raise ValidationError(f"unknown point format {fmt!r}")


def load_point(path: str, fmt: str = "binary", allow_r1: bool = False) -> FactorPoint:
    if fmt == "binary":
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise ValidationError(f"{path}: truncated point file")
            n = int(np.frombuffer(head[:8], dtype="<i8")[0])
            r = int(np.frombuffer(head[8:], dtype="<i8")[0])
            body = fh.read()
        if len(body) != 8 * n * r:
            raise ValidationError(f"{path}: expected {8 * n * r} payload bytes")
        sigma = np.frombuffer(body, dtype="<f8").reshape(n, r).copy()
        return FactorPoint(sigma, allow_r1=allow_r1)
    if fmt == "csv":
        sigma = np.loadtxt(path, delimiter=",", ndmin=2)
        return FactorPoint(sigma, allow_r1=allow_r1)
    raise ValidationError(f"unknown point format {fmt!r}")
