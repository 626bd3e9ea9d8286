"""Dual certificates, approximation reporting, and hyperplane rounding.

For any diagonal vector lam and any feasible X (unit diagonal, psd),
<A, X> = <A - Diag(lam), X> + sum(lam) <= n max(lambda_max(A - Diag(lam)), 0)
+ sum(lam) (weak duality), so picking lam_i = <sigma_i, g_i> at the current
iterate bounds the relaxation optimum.  The reported bound puts the
eigensolver's estimate theta in place of lambda_max, with no margin added:
LAPACK's top eigenvalue on complete instances, stored dense, and on all
others the top Ritz value of a seeded Lanczos recurrence, which in floating
point does not rise above lambda_max beyond rounding (Paige, Linear Algebra
Appl. 34, 1980), so beyond rounding it can only fall short of it.  At
rank-deficient second-order points the bound is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import daxpy

from .bcm import GradientCache
from .errors import NumericalError, ValidationError, check_count, check_real
from .manifold import FactorPoint
from .problem import ProblemInstance

ROUND_CHUNK = 32        # rounding trials scored per matrix product
# the recurrence of top_ritz_value, on A - Diag(lam) over instance.unit:
RITZ_TOL = 1e-8         # stop at a top Ritz residual |beta_k s_k| this small
BREAKDOWN_TOL = 1e-12   # stop at a beta this small: the Krylov space is invariant
MAX_LANCZOS_STEPS = 20000   # refuse a theta not converged in this many steps


@dataclass
class Certificate:
    lam: np.ndarray       # diagonal multipliers <sigma_i, g_i>
    upper_bound: float    # sum(lam) + n * max(slack, 0)
    slack: float          # estimated lambda_max(A - Diag(lam))
    gap: float            # upper_bound - f at the certifying point
    iterations: int       # Lanczos steps for slack; 0 where LAPACK's is taken

    def as_dict(self) -> dict:
        return {"lam": self.lam.tolist(), "upper_bound": self.upper_bound,
                "slack": self.slack, "gap": self.gap,
                "iterations": self.iterations}


@dataclass
class Cut:
    signs: np.ndarray     # entries in {-1, +1}
    value: float          # <A, x x^T>, trace offset excluded

    def as_dict(self) -> dict:
        return {"signs": self.signs.astype(int).tolist(), "value": self.value}


def leading_pair(instance: ProblemInstance,
                 lam: np.ndarray) -> tuple[float, np.ndarray]:
    """LAPACK's top eigenpair (theta, v) of A - Diag(lam), |v| = 1.

    LAPACK's value for the matrix divided by `instance.unit`, times that
    unit, so theta and v are the same numbers at every scale of A; the
    division and the solve run in place on one n x n dense copy, taken on
    complete instances alone.  Where the one-pair solve fails or returns no
    pair, as it can at a highly repeated top eigenvalue, the full solve's
    last pair is taken, on a new copy; failure of both raises NumericalError.
    """
    n, unit = instance.n, instance.unit
    for subset in ([n - 1, n - 1], None):
        m = instance.dense()
        m[np.diag_indices(n)] -= lam
        m /= unit   # exact: unit is a power of two
        try:
            # m.T is the same symmetric matrix in Fortran order, which
            # LAPACK overwrites without making a copy
            vals, vecs = scipy.linalg.eigh(m.T, subset_by_index=subset,
                                           overwrite_a=True)
        except scipy.linalg.LinAlgError:
            continue
        if len(vals):
            return float(vals[-1]) * unit, vecs[:, -1]
    raise NumericalError("dense eigensolve did not converge")


def lanczos(apply, q: np.ndarray):
    """The plain three-term Lanczos recurrence from the unit vector q.

    Yields (q_k, alpha_k, beta_k) for k = 1, 2, ...: the k-th vector, the
    diagonal of T_k and the norm of the residual, whose direction is q_{k+1}.
    `apply(q)` returns a new array, which two BLAS daxpys update in place.
    Nothing is reorthogonalised: converged Ritz pairs stay accurate when
    orthogonality is lost (Paige, Linear Algebra Appl. 34, 1980).  The caller
    stops at a breakdown beta_k.  Non-finite values raise NumericalError.
    """
    q_prev, beta = np.zeros_like(q), 0.0
    while True:
        w = daxpy(q_prev, apply(q), a=-beta)   # in place: w -= beta q_prev
        alpha = float(q @ w)
        w = daxpy(q, w, a=-alpha)
        beta = math.sqrt(w @ w)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NumericalError("Lanczos recurrence gave a non-finite value")
        yield q, alpha, beta
        w /= beta
        q_prev, q = q, w


def _top_ritz_pair(alphas: list, betas: list) -> tuple[float, np.ndarray]:
    """The top eigenvalue of the tridiagonal T_k and its unit eigenvector,
    by LAPACK's bisection (stebz) and inverse iteration (stein).  Called
    directly: eigh_tridiagonal's checks and dispatch cost about 40 us a
    call, a fifth of a sparse certificate's recurrence."""
    d, k = np.array(alphas), len(alphas)
    e = np.array(betas or [0.0])   # LAPACK's wrapper wants a length >= 1
    m, vals, block, split, info = lapack.dstebz(d, e, 2, 0.0, 0.0, k, k,
                                                0.0, "B")
    if info == 0:
        vecs, info = lapack.dstein(d, e, vals[:m], block, split)
    if info:
        raise NumericalError("tridiagonal eigensolve did not converge")
    return float(vals[0]), vecs[:, 0]


def top_ritz_value(instance: ProblemInstance,
                   lam: np.ndarray) -> tuple[float, int]:
    """Estimate lambda_max(A - Diag(lam)) by the recurrence `lanczos`.

    Runs on M = (A - Diag(lam)) / instance.unit, exact as in leading_pair,
    from the normalised standard normal vector of default_rng(0), so theta
    is a function of lam alone, and keeps T_k and four length-n vectors but
    no basis.  At step min(n, 64) and every max(8, k // 8) steps after, and
    at a breakdown beta_k <= BREAKDOWN_TOL, it takes T_k's top pair (theta_k,
    s) and stops once |beta_k s_k| <= RITZ_TOL, i.e. RITZ_TOL |A|_1 in A's
    units.  Before step n, a Ritz value in a cluster under the top can pass it.
    Returns (theta_k times the unit, k).  A non-finite alpha or beta, or no
    convergence in MAX_LANCZOS_STEPS steps, raises NumericalError: an
    unconverged theta can sit below lambda_max, and a bound on it too low.
    """
    n, unit, rows = instance.n, instance.unit, instance.rows
    shift, term = lam / unit, np.empty(n)

    def apply(q):   # with rows @ q / unit: M q, exactly
        w = rows @ q
        w /= unit
        w -= np.multiply(shift, q, out=term)
        return w

    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(q @ q)
    alphas, betas, check = [], [], min(n, 64)
    for k, (_, alpha, beta) in zip(range(1, MAX_LANCZOS_STEPS + 1),
                                   lanczos(apply, q)):
        alphas.append(alpha)
        if beta <= BREAKDOWN_TOL or k == check:
            theta, s = _top_ritz_pair(alphas, betas)
            if beta * abs(s[-1]) <= RITZ_TOL:   # holds at every breakdown
                return theta * unit, k
            check = k + max(8, k // 8)
        betas.append(beta)
    raise NumericalError(f"eigenvalue estimation did not converge in "
                         f"{MAX_LANCZOS_STEPS} Lanczos steps")


def dual_upper_bound(instance: ProblemInstance, point: FactorPoint,
                     cache: GradientCache) -> Certificate:
    """Upper bound on the relaxation optimum from the current iterate.

    Its theta is LAPACK's (leading_pair) on complete instances, and on all
    others top_ritz_value's, whose step count the certificate carries.
    Either is an estimate with no margin added.
    """
    if instance.n == 0:
        raise ValidationError("the dual bound needs n >= 1, got n = 0")
    instance.check_rows(cache.inner.size, "cache")
    lam = cache.inner.copy()
    if instance.complete:
        slack, steps = leading_pair(instance, lam)[0], 0
    else:
        slack, steps = top_ritz_value(instance, lam)
    upper = float(lam.sum() + instance.n * max(slack, 0.0))
    return Certificate(lam=lam, upper_bound=upper, slack=slack,
                       gap=upper - cache.objective(), iterations=steps)


def report_epsilon(n: int, epsilon) -> float:
    """The report's epsilon as a float: >= 0, with n * epsilon finite."""
    eps = check_real("epsilon", epsilon, 0.0)
    if math.isinf(n * eps):   # n = 0 gives 0
        raise ValidationError(
            f"epsilon must be >= 0 with n * epsilon finite, got {epsilon!r}")
    return eps


def approx_report(instance: ProblemInstance, point: FactorPoint,
                  cert: Certificate, epsilon: float) -> dict:
    """Achieved value against the certified bound, with the floors for the
    point's rank r.  `cert` is the point's `dual_upper_bound`, whose lam
    also gives the achieved value f = sum(lam).  The floors assume a
    positive semidefinite cost matrix and are labeled conditional.  Weak
    duality needs no such condition, but the upper bound holds the
    eigensolver's theta for lambda_max with no margin added.
    """
    epsilon, r = report_epsilon(instance.n, epsilon), point.r
    if r < 2:
        raise ValidationError(f"the report needs r >= 2, got r = {r}")
    f = float(cert.lam.sum())
    u = cert.upper_bound
    ratio = f / u if u > 0 else None
    notes = [
        "upper_bound is weak duality's, with no margin on the eigensolver's theta",
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
        "floor_concave": (1.0 - 1.0 / (r - 1)) * u - instance.n * epsilon / 2.0,
        "floor_two_sided": (1.0 - 2.0 / (r - 1)) * u,
        "floor_concave_vacuous": r == 2,
        "guarantees": ["upper_bound"],
        "diagnostics": ["ratio_vs_bound", "floor_concave", "floor_two_sided"],
        "notes": notes,
    }


def cut_value(instance: ProblemInstance, signs: np.ndarray) -> float:
    """<A, x x^T> for a sign vector x, trace offset excluded."""
    x = np.asarray(signs, dtype=np.float64)
    instance.check_rows(len(x), "sign vector")
    return float(x @ (instance.rows @ x))


def _chunk_winner(a, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Signs of the first best trial among the directions in z's rows.

    The (n, k) sign block is scored by one product with a, the instance's
    rows in either storage; every temporary dies on return, so a chunk
    holds about 2 n k doubles at a time.
    """
    # {0, 1} to {-1, +1} in place: no third (n, k) float block is held
    x = (sigma @ z.T >= 0.0).astype(np.float64)
    x *= 2.0
    x -= 1.0
    v = np.einsum("ij,ij->j", x, a @ x)
    return x[:, int(np.argmax(v))].copy()


def round_cut(instance: ProblemInstance, point: FactorPoint, trials: int,
              rng: np.random.Generator) -> Cut:
    """Best hyperplane rounding over `trials` draws (Goemans-Williamson).

    Each trial projects the rows onto a raw standard normal draw z and takes
    signs, with sign(0) := +1: they are those of z/|z|, a uniformly random
    direction, and a zero draw is the all-+1 trial.  Trials run in chunks of
    ROUND_CHUNK = 32: a chunk draws its k directions as one (k, r) block, which
    leaves the generator where k single draws of r would, and scores its k sign
    vectors with one product with the instance's rows.  The first strictly best
    trial wins.  Chunk winners are compared by `cut_value`, which also gives
    the reported value, so a cut drawn again in a later chunk ties exactly;
    inside a chunk the product's scores, which can differ from `cut_value` in
    the last bits, order the trials.  Working memory is about 2 n ROUND_CHUNK
    doubles.  Deterministic per generator state.
    """
    trials = check_count("trials", trials, 1)
    instance.check_rows(point.n, "point")
    sigma = point.sigma
    best_signs, best_value = None, -np.inf
    for start in range(0, trials, ROUND_CHUNK):
        z = rng.standard_normal((min(ROUND_CHUNK, trials - start),
                                 sigma.shape[1]))
        signs = _chunk_winner(instance.rows, sigma, z)
        value = cut_value(instance, signs)
        if value > best_value:
            best_signs, best_value = signs, value
    return Cut(signs=best_signs, value=best_value)
