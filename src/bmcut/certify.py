"""Dual certificates, approximation reporting, and hyperplane rounding.

For any diagonal vector lam and any feasible X (unit diagonal, psd),
<A, X> = <A - Diag(lam), X> + sum(lam) <= n max(lambda_max(A - Diag(lam)), 0)
+ sum(lam), so picking lam_i = <sigma_i, g_i> at the current iterate yields an
unconditional upper bound on the relaxation optimum.  At rank-deficient
second-order points the bound is tight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .bcm import GradientCache
from .errors import NumericalError, ValidationError
from .manifold import FactorPoint
from .problem import ProblemInstance

DENSE_EIG_LIMIT = 200
ROUND_CHUNK = 32        # rounding trials scored per sparse matmat
BRUTE_FORCE_LIMIT = 24


@dataclass
class Certificate:
    lam: np.ndarray       # diagonal multipliers <sigma_i, g_i>
    upper_bound: float    # sum(lam) + n * max(slack, 0)
    slack: float          # estimated lambda_max(A - Diag(lam))
    gap: float            # upper_bound - f at the certifying point

    def as_dict(self) -> dict:
        return {"lam": self.lam.tolist(), "upper_bound": self.upper_bound,
                "slack": self.slack, "gap": self.gap}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


@dataclass
class Cut:
    signs: np.ndarray     # entries in {-1, +1}
    value: float          # <A, x x^T>, trace offset excluded

    def total_value(self, instance: ProblemInstance) -> float:
        return self.value + instance.trace_offset

    def as_dict(self) -> dict:
        return {"signs": self.signs.astype(int).tolist(), "value": self.value}


def _shifted_lambda_max(instance: ProblemInstance, lam: np.ndarray) -> float:
    """lambda_max(A - Diag(lam)); dense for small n, Lanczos otherwise."""
    n = instance.n
    if n <= DENSE_EIG_LIMIT:
        m = instance.dense()
        m[np.diag_indices(n)] -= lam
        return float(scipy.linalg.eigvalsh(m)[-1])
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: instance.rows @ v - lam * v, dtype=np.float64)
    # ARPACK's own start vector is unseeded; a fixed one from a local
    # generator makes the bound a function of the iterate alone
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals = scipy.sparse.linalg.eigsh(
            op, k=1, which="LA", tol=1e-8, maxiter=200 * n, v0=v0,
            return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        # a partially converged Ritz value can sit below lambda_max, and a
        # bound built on it would be too low
        raise NumericalError("eigenvalue estimation did not converge") from exc
    return float(vals[0])


def dual_upper_bound(instance: ProblemInstance, point: FactorPoint,
                     cache: GradientCache) -> Certificate:
    """Certified upper bound on the relaxation optimum from the current iterate."""
    lam = cache.inner.copy()
    slack = _shifted_lambda_max(instance, lam)
    upper = float(lam.sum() + instance.n * max(slack, 0.0))
    return Certificate(lam=lam, upper_bound=upper, slack=slack,
                       gap=upper - cache.objective())


def approx_report(instance: ProblemInstance, point: FactorPoint,
                  cache: GradientCache, epsilon: float) -> dict:
    """Achieved value against the certified bound, with the floors for the
    point's rank r.  The floors assume a positive semidefinite cost matrix
    and are labeled conditional; the upper bound itself is unconditional.
    """
    r = point.r
    if r < 2:
        raise ValidationError(f"the report needs r >= 2, got r = {r}")
    if not (epsilon >= 0.0 and math.isfinite(instance.n * epsilon)):
        raise ValidationError(
            f"epsilon must be >= 0 with n * epsilon finite, got {epsilon!r}")
    cert = dual_upper_bound(instance, point, cache)
    f = cache.objective()
    u = cert.upper_bound
    ratio = f / u if u > 0 else None
    factor1 = 1.0 - 1.0 / (r - 1)
    factor2 = 1.0 - 2.0 / (r - 1)
    notes = [
        "upper_bound is unconditional (weak duality)",
        "floors are conditional on the cost matrix being positive semidefinite",
        "floors use upper_bound in place of the unknown optimum, so they "
        "over-demand: meeting them is sufficient, missing them proves nothing",
    ]
    if r == 2:
        notes.append("r = 2 makes floor_concave vacuous (factor 0)")
    return {
        "n": instance.n,
        "r": r,
        "epsilon": epsilon,
        "f_raw": f,
        "f_total": f + instance.trace_offset,
        "upper_bound": u,
        "slack": cert.slack,
        "gap": cert.gap,
        "ratio_vs_bound": ratio,
        "floor_concave": factor1 * u - instance.n * epsilon / 2.0,
        "floor_two_sided": factor2 * u,
        "floor_concave_vacuous": r == 2,
        "guarantees": ["upper_bound"],
        "diagnostics": ["ratio_vs_bound", "floor_concave", "floor_two_sided"],
        "notes": notes,
    }


def cut_value(instance: ProblemInstance, signs: np.ndarray) -> float:
    """<A, x x^T> for a sign vector x, trace offset excluded."""
    x = np.asarray(signs, dtype=np.float64)
    return float(x @ (instance.rows @ x))


def _chunk_winner(instance: ProblemInstance, sigma: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Signs of the first best trial among the unit directions in z's rows.

    The (n, k) sign block is scored by one sparse matmat; every temporary
    dies on return, so a chunk holds about 2 n k doubles at a time.
    """
    x = np.where(sigma @ z.T >= 0.0, 1.0, -1.0)
    v = np.einsum("ij,ij->j", x, instance.rows @ x)
    return x[:, int(np.argmax(v))].copy()


def round_cut(instance: ProblemInstance, point: FactorPoint, trials: int,
              rng: np.random.Generator) -> Cut:
    """Best hyperplane rounding over `trials` draws (Goemans-Williamson).

    Each trial projects the rows onto a uniformly random direction and takes
    signs, with sign(0) := +1.  Trials run in chunks of ROUND_CHUNK = 32: a
    chunk draws its k directions as one (k, r) block, which leaves the
    generator where k single draws of r would, and scores its k sign vectors
    with one sparse matmat.  The first strictly best trial wins.  Chunk
    winners are compared by `cut_value`, which also gives the reported value,
    so a cut drawn again in a later chunk ties exactly; inside a chunk the
    matmat's scores, which can differ from `cut_value` in the last bits,
    order the trials.  Working memory is about 2 n ROUND_CHUNK doubles.
    Deterministic per generator state.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    sigma = point.sigma
    best_signs = None
    best_value = -np.inf
    for start in range(0, trials, ROUND_CHUNK):
        z = rng.standard_normal((min(ROUND_CHUNK, trials - start),
                                 sigma.shape[1]))
        nz = np.linalg.norm(z, axis=1)
        zero = nz == 0.0
        z[zero, 0] = 1.0
        nz[zero] = 1.0
        z /= nz[:, None]
        signs = _chunk_winner(instance, sigma, z)
        value = cut_value(instance, signs)
        if value > best_value:
            best_signs, best_value = signs, value
    return Cut(signs=best_signs, value=best_value)


def brute_force_best_cut(instance: ProblemInstance) -> Cut:
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
    return Cut(signs=signs, value=best_value)
