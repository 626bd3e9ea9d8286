"""Second-order escape: Lanczos on the shifted curvature operator.

When the gradient metric falls below eps^3/(1350 |A|_1), a leading curvature
direction is extracted with a tridiagonal Lanczos recurrence on
H[u] = Hess[u] + 4 |A|_1 u (the shift makes H positive semidefinite on the
tangent space) and a geodesic step of length eps/(15 |A|_1) is taken along it.
The three constants are tied together by the cubic ascent bound
eps^3/(2700 |A|_1^2); changing one invalidates the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

# bcm_step, select_coordinate, grad_metric_sq: unused, kept for perfbench spans
from .bcm import (REFRESH_PERIOD, EscapePolicy, GradientCache, SolverConfig,
                  SolveTrace, TraceRecord, bcm_step, drive, init_cache,
                  refresh_cache, select_coordinate, start_point)
from .certify import dual_upper_bound
from .errors import TrivialInstanceError, ValidationError
from .manifold import (FactorPoint, _hess_apply_rows, _project_rows, exp_map,
                       grad_metric_sq, hess_quadratic, riemannian_gradient)
from .problem import ProblemInstance

THRESHOLD_DENOM = 1350.0
STEP_DENOM = 15.0
ASCENT_DENOM = 2700.0
EPOCH_CAP_NUM = 675.0
LANCZOS_TAIL_CONST = 1.648
HESS_SHIFT_FACTOR = 4.0


@dataclass
class EscapeConfig:
    epsilon: float | None = None   # None: pick from the dual bound at the start
    delta: float = 0.01            # failure probability budget for Lanczos
    seed: int = 0

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValidationError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must be in (0, 1)")


@dataclass
class TridiagonalForm:
    alpha: np.ndarray         # diagonal
    beta: np.ndarray          # off-diagonal, > 0: the recurrence stops
                              # at breakdown
    basis: np.ndarray         # (k, n, r) Lanczos vectors: a view of the first
                              # k rows of the preallocated (m, n r) basis


@dataclass
class LanczosResult:
    estimate: float           # unshifted leading curvature estimate
    direction: np.ndarray     # (n, r) tangent array, unit Frobenius norm
    tri: TridiagonalForm
    exhausted: bool           # stopped at breakdown before max_iters: the
                              # Krylov space is invariant and the pair exact
    iterations: int


def _check_epsilon(instance: ProblemInstance, epsilon: float) -> int:
    """Refuse an epsilon that leaves an escape constant undefined, and return
    the epoch cap ceil(675 n |A|_1^2 / eps^2), the cap on a run's combined
    epochs and so on its Lanczos calls.  Every constant divides by epsilon
    or |A|_1; the threshold and the ascent floor cube epsilon."""
    if not 0.0 < epsilon < math.inf:   # NaN fails
        raise ValidationError(f"epsilon must be finite and > 0, got {epsilon}")
    if instance.one_norm == 0.0:
        raise TrivialInstanceError("zero cost matrix: every point is optimal")
    try:   # float ** raises OverflowError where * and / give inf
        cap = EPOCH_CAP_NUM * instance.n * instance.one_norm**2 / epsilon**2
        if epsilon**3 < math.inf and cap < math.inf:
            return math.ceil(cap)
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValidationError(f"epsilon = {epsilon!r} gives no finite eps^3 or "
                          "epoch cap 675 n |A|_1^2/eps^2")


def escape_threshold(instance: ProblemInstance, epsilon: float) -> float:
    """Gradient-metric level below which the second-order branch engages."""
    _check_epsilon(instance, epsilon)
    return epsilon**3 / (THRESHOLD_DENOM * instance.one_norm)


def escape_ascent_floor(instance: ProblemInstance, epsilon: float) -> float:
    """Guaranteed objective gain of one accepted escape step."""
    _check_epsilon(instance, epsilon)
    return epsilon**3 / (ASCENT_DENOM * instance.one_norm**2)


def _shifted_apply_rows(instance, sigma, inner, u):
    """H[u] = Hess[u] + 4 |A|_1 u; positive semidefinite on the tangent space."""
    return (_hess_apply_rows(instance, sigma, inner, u)
            + (HESS_SHIFT_FACTOR * instance.one_norm) * u)


def lanczos_budget(instance: ProblemInstance, epsilon: float, delta: float,
                   r: int) -> int:
    """Iteration count that bounds the failure probability of every Lanczos
    call over the whole run by delta; capped at the tangent dimension n(r-1),
    where the recurrence is exact.
    """
    if not 0.0 < delta < 1.0 or r < 2:
        raise ValidationError("need delta in (0,1), r >= 2")
    calls = _check_epsilon(instance, epsilon)
    dim = instance.n * (r - 1)
    ell = math.ceil(
        (0.5 + 2.0 * math.sqrt(instance.one_norm / epsilon))
        * math.log(calls * LANCZOS_TAIL_CONST * math.sqrt(dim) / delta)
    )
    return min(ell, dim)


def lanczos_leading(instance: ProblemInstance, point: FactorPoint,
                    cache: GradientCache, max_iters: int,
                    rng: np.random.Generator) -> LanczosResult:
    """Leading curvature eigenpair via the tridiagonal recurrence on H.

    Starts from a uniformly random unit tangent vector.  The Lanczos vectors
    are the flattened rows of one (m, n r) array allocated up front,
    m = min(max_iters, n (r-1)), so the basis costs m n r 8 bytes and is
    never copied.  Each new vector is reorthogonalised against all stored
    ones by two classical Gram-Schmidt passes (CGS2).  At breakdown
    (beta <= 1e-12 max(1, |A|_1)) the recurrence stops and flags
    `exhausted`: the Krylov space of the start is then invariant under H,
    it holds the start's component in every eigenspace, and its top Ritz
    pair is exact (almost surely, for a random start).
    Returns the unshifted estimate lambda_max(T) - 4 |A|_1 and the
    reconstructed unit direction.
    """
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    sigma = point.sigma
    n, r = sigma.shape
    dim = n * (r - 1)
    if dim == 0:
        raise ValidationError("tangent space is trivial (r = 1)")
    m = min(max_iters, dim)
    shift = HESS_SHIFT_FACTOR * instance.one_norm
    breakdown_tol = 1e-12 * max(1.0, instance.one_norm)
    basis = np.empty((m, n * r))

    u = _project_rows(sigma, rng.standard_normal((n, r)))
    u /= np.linalg.norm(u)
    basis[0] = u.ravel()
    hu = _shifted_apply_rows(instance, sigma, cache.inner, u)
    alphas = [float(np.sum(u * hu))]
    res = hu - alphas[0] * u
    betas: list[float] = []
    exhausted = False

    for k in range(1, m):
        vec = _project_rows(sigma, res).ravel()
        # CGS2: vec -= basis^T (basis vec), two BLAS matrix-vector products
        # per pass.  One pass leaves rounding errors along the basis; the
        # second removes them ("twice is enough", Giraud et al. 2005).
        stored = basis[:k]
        for _ in range(2):
            vec -= (stored @ vec) @ stored
        beta = float(np.linalg.norm(vec))
        if beta <= breakdown_tol:
            exhausted = True
            break
        betas.append(beta)
        basis[k] = vec / beta
        u = basis[k].reshape(n, r)
        hu = _shifted_apply_rows(instance, sigma, cache.inner, u)
        alphas.append(float(np.sum(u * hu)))
        res = hu - alphas[-1] * u - beta * basis[k - 1].reshape(n, r)

    k = len(alphas)
    alpha_arr = np.asarray(alphas)
    beta_arr = np.asarray(betas)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        alpha_arr, beta_arr, select="i", select_range=(k - 1, k - 1))
    direction = _project_rows(sigma, (vecs[:, 0] @ basis[:k]).reshape(n, r))
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        raise ValidationError("Lanczos produced a null direction")
    direction /= nrm
    return LanczosResult(
        estimate=float(vals[0] - shift),
        direction=direction,
        tri=TridiagonalForm(alpha=alpha_arr, beta=beta_arr,
                            basis=basis[:k].reshape(k, n, r)),
        exhausted=exhausted,
        iterations=k,
    )


def second_order_step(instance: ProblemInstance, point: FactorPoint,
                      cache: GradientCache, direction: np.ndarray,
                      epsilon: float) -> float:
    """Geodesic step of length eps/(15 |A|_1) along the (sign-corrected)
    tangent array `direction`, followed by a full cache rebuild.  Mutates
    point and cache; returns the measured objective increase.
    """
    _check_epsilon(instance, epsilon)
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError(f"direction must have unit Frobenius norm, got {nrm}")
    d = direction
    if float(np.sum(d * riemannian_gradient(point, cache))) < 0.0:
        d = -d
    t = epsilon / (STEP_DENOM * instance.one_norm)
    f_before = cache.objective()
    moved = exp_map(point, d, t)
    point.sigma[:] = moved.sigma
    refresh_cache(instance, point, cache)
    return cache.objective() - f_before


def auto_epsilon(instance: ProblemInstance, point: FactorPoint,
                 cache: GradientCache) -> float:
    """Accuracy target 2 U / (n (r-1)) with U the dual upper bound at the
    given iterate, of rank r, standing in for the unknown optimum."""
    if point.r < 2:
        raise ValidationError(f"auto epsilon needs r >= 2, got r = {point.r}")
    cert = dual_upper_bound(instance, point, cache)
    if cert.upper_bound <= 0.0:
        raise ValidationError(
            "auto epsilon needs a positive upper bound; pass epsilon explicitly")
    return 2.0 * cert.upper_bound / (instance.n * (point.r - 1))


def run_bcm2(instance: ProblemInstance, solver: SolverConfig,
             esc: EscapeConfig, initial: FactorPoint | None = None,
             r: int | None = None):
    """Greedy coordinate ascent interleaved with Lanczos escape steps.

    Above the threshold the greedy rule takes single-row steps (n of them
    count as one epoch); below it, a leading curvature direction is computed
    and either stepped along (curvature >= eps/2) or, failing that, the point
    is declared an eps-approximate concave point and the run stops.  A hard
    cap on combined epochs (see _check_epsilon) applies, on top of the user's
    max_epochs.  The loop itself is bcm.drive with an escape policy;
    solver.rule and solver.grad_tol are not used.
    """
    point, rng = start_point(instance, solver.seed, initial, r)
    n, rr = instance.n, point.r

    if instance.one_norm == 0.0:
        trace = SolveTrace(header={
            "method": "bcm2", "n": n, "r": rr,
            "instance_checksum": instance.checksum(),
            "trace_offset": instance.trace_offset,
        }, status="trivial")
        trace.records.append(TraceRecord(
            epoch=0, kind="bcm", f_raw=0.0, f_total=instance.trace_offset,
            grad_metric_sq=0.0, steps=0, coords_updated=0, wall_time=0.0))
        return point, trace

    cache = init_cache(instance, point)
    eps = esc.epsilon if esc.epsilon is not None else auto_epsilon(
        instance, point, cache)
    cap = _check_epsilon(instance, eps)
    threshold = escape_threshold(instance, eps)
    budget = lanczos_budget(instance, eps, esc.delta, rr)
    t_step = eps / (STEP_DENOM * instance.one_norm)
    rng_lan = np.random.default_rng(esc.seed)

    trace = SolveTrace(header={
        "method": "bcm2", "n": n, "r": rr, "epsilon": eps, "delta": esc.delta,
        "threshold": threshold, "epoch_cap": cap, "lanczos_budget": budget,
        "step_length": t_step, "retries": 0,
        "lanczos_reorth": True, "seed": solver.seed,
        "escape_seed": esc.seed, "max_epochs": solver.max_epochs,
        "refresh_period": REFRESH_PERIOD,
        "instance_checksum": instance.checksum(),
        "trace_offset": instance.trace_offset,
    })

    def escape_step():
        res = lanczos_leading(instance, point, cache, budget, rng_lan)
        ray = hess_quadratic(instance, point, res.direction, cache)
        if ray < eps / 2.0:
            return None
        return second_order_step(instance, point, cache, res.direction, eps), ray

    trace.status, steps, escapes = drive(
        instance, point, cache, rng, trace, replace(solver, rule="greedy"),
        -math.inf, EscapePolicy(threshold, cap, escape_step))
    trace.header["bcm_epochs"] = steps / n
    trace.header["bcm_steps"] = steps
    trace.header["escape_steps"] = escapes
    return point, trace
