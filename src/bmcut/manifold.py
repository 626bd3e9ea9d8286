"""Geometry of the product of unit spheres: points, tangents, maps, derivatives.

A point is an (n, r) matrix with unit rows, r >= 1.  A tangent at that point
is a plain (n, r) array whose rows are orthogonal to the corresponding point
rows; the public functions that take one check it.  All operations here are
pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError, ValidationError, check_count, check_real

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-8


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


def _check_tangency(sigma: np.ndarray, u: np.ndarray):
    if u.shape != sigma.shape:
        raise DimensionError(f"tangent shape {u.shape} != point shape {sigma.shape}")
    dots = np.abs(np.einsum("ij,ij->i", sigma, u))
    # relative to |u_i|, which hypot forms without underflow; NaN fails
    if not np.all(dots <= TANGENT_TOL * np.hypot.reduce(u, axis=1)):
        raise ValidationError(f"matrix is not tangent to the point "
                              f"(|<s_i, u_i>| > {TANGENT_TOL:g} |u_i| in some row)")


def _project_rows(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise orthogonal projection: w_i - <sigma_i, w_i> sigma_i."""
    return w - np.einsum("ij,ij->i", sigma, w)[:, None] * sigma


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Divide each row of x by its norm, in place, and return x; a row of
    norm below 1e-300 has no direction and becomes e_1."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-300
    if bad.any():
        x[bad] = 0.0
        x[bad, 0] = 1.0
        norms[bad] = 1.0
    x /= norms
    return x


def random_point(n: int, r: int, rng: np.random.Generator) -> FactorPoint:
    """Rows drawn uniformly on the unit sphere via normalized Gaussians."""
    n, r = check_count("n", n, 0), check_count("r", r, 1)
    return FactorPoint(_unit_rows(rng.standard_normal((n, r))))


def exp_map(point: FactorPoint, u: np.ndarray, t: float) -> FactorPoint:
    """Geodesic step: row i moves to sigma_i cos(pi x_i) + u_i t sinc(x_i),
    x_i = |u_i| t/pi: sigma_i cos(theta) + (u_i/|u_i|) sin(theta) without the
    division, so a row with u_i = 0 stays; cos and sinc see one rounded
    angle pi x_i, so rows stay unit at any t."""
    t = check_real("t", t, 0.0)
    _check_tangency(point.sigma, u)
    x = np.linalg.norm(u, axis=1, keepdims=True) * t / np.pi
    return FactorPoint(point.sigma * np.cos(np.pi * x)
                       + u * (t * np.sinc(x)))


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
    terms = metric_term(cache.norms, cache.inner)
    return float(2.0 * np.sum(np.maximum(terms, 0.0)))


def metric_term(norm, inner):
    """|g_i|^2 - <sigma_i, g_i>^2, a row's term of grad_metric_sq before its
    clamp at zero, for one row's two scalars or for arrays of rows.  Each is
    a correctly rounded square and difference, so a row's term has the same
    bits either way; the metric, a rounded sum of clamped terms, is never
    below twice any one of them."""
    return norm * norm - inner * inner


def hess_quadratic(instance, point: FactorPoint, u: np.ndarray, cache) -> float:
    """Curvature quadratic form <u, Hess[u]> = 2 (<U, A U> - sum_i lambda_i
    |u_i|^2) for a tangent array u."""
    _check_tangency(point.sigma, u)
    instance.check_rows(point.n, "point")
    instance.check_rows(cache.inner.size, "cache")
    return float(np.sum(u * _hess_apply_rows(instance, point.sigma,
                                             cache.inner, u)))


def _hess_apply_rows(instance, sigma: np.ndarray, inner: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """Curvature operator on the tangent array u: the tangent projection of
    2 (A U - Lambda U), with Lambda = diag(inner)."""
    raw = 2.0 * (instance.rows @ u - inner[:, None] * u)
    return _project_rows(sigma, raw)


def save_point(point: FactorPoint, path: str) -> None:
    """Write a point as CSV when path ends in .csv, otherwise as little-endian
    binary: n, r (int64), then the row-major float64 entries."""
    if path.endswith(".csv"):
        np.savetxt(path, point.sigma, delimiter=",", fmt="%.17g")
        return
    with open(path, "wb") as fh:
        fh.write(np.array([point.n, point.r], dtype="<i8").tobytes())
        fh.write(point.sigma.astype("<f8").tobytes())


def load_point(path: str) -> FactorPoint:
    """Read a point written by save_point; the extension picks the format."""
    if path.endswith(".csv"):
        try:
            sigma = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:   # ragged rows or a non-numeric cell
            raise ParseError(f"{path}: {exc}") from None
        return FactorPoint(sigma)
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise ValidationError(f"{path}: truncated point file")
        n, r = map(int, np.frombuffer(head, dtype="<i8"))
        body = fh.read()
    if n < 0 or r < 0:
        raise ValidationError(f"{path}: negative size n={n}, r={r}")
    if len(body) != 8 * n * r:
        raise ValidationError(f"{path}: expected {8 * n * r} payload bytes")
    return FactorPoint(np.frombuffer(body, dtype="<f8").reshape(n, r).copy())
