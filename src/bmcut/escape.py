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
from .bcm import (EscapePolicy, GradientCache, SolverConfig, SolveTrace,
                  TraceRecord, bcm_step, drive, init_cache, refresh_cache,
                  select_coordinate, start_point)
from .certify import dual_upper_bound
from .errors import TrivialInstanceError, ValidationError
from .manifold import (FactorPoint, TangentVector, _hess_apply_rows,
                       _project_rows, exp_map, grad_metric_sq, hess_quadratic,
                       riemannian_gradient)
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
    lanczos_reorth: bool = True
    seed: int = 0
    retries: int = 0               # extra random restarts before the concave verdict

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError("epsilon must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must be in (0, 1)")
        if self.retries < 0:
            raise ValidationError("retries must be >= 0")


@dataclass
class TridiagonalForm:
    alpha: np.ndarray         # diagonal
    beta: np.ndarray          # off-diagonal, >= 0
    basis: np.ndarray         # (k, n, r) stored tangent vectors


@dataclass
class LanczosResult:
    estimate: float           # unshifted leading curvature estimate
    direction: TangentVector  # unit Frobenius norm
    tri: TridiagonalForm
    exhausted: bool           # tangent space ran out before max_iters
    iterations: int


def escape_threshold(instance: ProblemInstance, epsilon: float) -> float:
    """Gradient-metric level below which the second-order branch engages."""
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if instance.one_norm == 0.0:
        raise TrivialInstanceError("zero cost matrix: every point is optimal")
    return epsilon**3 / (THRESHOLD_DENOM * instance.one_norm)


def escape_ascent_floor(instance: ProblemInstance, epsilon: float) -> float:
    """Guaranteed objective gain of one accepted escape step."""
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if instance.one_norm == 0.0:
        raise TrivialInstanceError("zero cost matrix: every point is optimal")
    return epsilon**3 / (ASCENT_DENOM * instance.one_norm**2)


def shifted_hess_apply(instance: ProblemInstance, point: FactorPoint,
                       u: TangentVector, cache: GradientCache) -> TangentVector:
    """H[u] = Hess[u] + 4 |A|_1 u; positive semidefinite on the tangent space."""
    rows = _shifted_apply_rows(instance, point.sigma, cache.inner, u.u)
    return TangentVector(rows, point)


def _shifted_apply_rows(instance, sigma, inner, u):
    return (_hess_apply_rows(instance, sigma, inner, u)
            + (HESS_SHIFT_FACTOR * instance.one_norm) * u)


def lanczos_budget(instance: ProblemInstance, epsilon: float, delta: float,
                   r: int) -> int:
    """Iteration count that bounds the failure probability of every Lanczos
    call over the whole run by delta; capped at the tangent dimension n(r-1),
    where the recurrence is exact.
    """
    if epsilon <= 0 or not 0.0 < delta < 1.0 or r < 2:
        raise ValidationError("need epsilon > 0, delta in (0,1), r >= 2")
    if instance.one_norm == 0.0:
        raise TrivialInstanceError("zero cost matrix: every point is optimal")
    n = instance.n
    dim = n * (r - 1)
    calls = math.ceil(EPOCH_CAP_NUM * n * instance.one_norm**2 / epsilon**2)
    ell = math.ceil(
        (0.5 + 2.0 * math.sqrt(instance.one_norm / epsilon))
        * math.log(calls * LANCZOS_TAIL_CONST * math.sqrt(dim) / delta)
    )
    return min(ell, dim)


def _orthogonalize(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        vec = vec - np.sum(vec * b) * b
    return vec


def lanczos_leading(instance: ProblemInstance, point: FactorPoint,
                    cache: GradientCache, max_iters: int,
                    rng: np.random.Generator,
                    reorth: bool = True) -> LanczosResult:
    """Leading curvature eigenpair via the tridiagonal recurrence on H.

    Starts from a uniformly random unit tangent vector.  On breakdown
    (beta = 0) a fresh random direction orthogonal to the stored basis is
    substituted; if none exists the tangent space is exhausted and the
    recurrence is already exact.  Returns the unshifted estimate
    lambda_max(T) - 4 |A|_1 and the reconstructed unit direction.
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

    u = _project_rows(sigma, rng.standard_normal((n, r)))
    u /= np.linalg.norm(u)
    basis = [u]
    hu = _shifted_apply_rows(instance, sigma, cache.inner, u)
    alphas = [float(np.sum(u * hu))]
    res = hu - alphas[0] * u
    betas: list[float] = []
    exhausted = False

    for _ in range(1, m):
        res = _project_rows(sigma, res)
        if reorth:
            res = _orthogonalize(res, basis)
            res = _orthogonalize(res, basis)
        beta = float(np.linalg.norm(res))
        if beta <= breakdown_tol:
            # invariant subspace found: restart orthogonally to it
            new = None
            for _attempt in range(3):
                cand = _project_rows(sigma, rng.standard_normal((n, r)))
                cand = _orthogonalize(_orthogonalize(cand, basis), basis)
                nrm = float(np.linalg.norm(cand))
                if nrm > 1e-8:
                    new = cand / nrm
                    break
            if new is None:
                exhausted = True
                break
            betas.append(0.0)
            unew = new
        else:
            betas.append(beta)
            unew = res / beta
        hu = _shifted_apply_rows(instance, sigma, cache.inner, unew)
        alphas.append(float(np.sum(unew * hu)))
        res = hu - alphas[-1] * unew - betas[-1] * basis[-1]
        basis.append(unew)

    alpha_arr = np.asarray(alphas)
    beta_arr = np.asarray(betas)
    k = len(alphas)
    if k == 1:
        top = alpha_arr[0]
        y = np.ones(1)
    else:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            alpha_arr, beta_arr, select="i", select_range=(k - 1, k - 1))
        top = float(vals[0])
        y = vecs[:, 0]
    stack = np.stack(basis)
    direction = np.tensordot(y, stack, axes=1)
    direction = _project_rows(sigma, direction)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        raise ValidationError("Lanczos produced a null direction")
    direction /= nrm
    return LanczosResult(
        estimate=float(top - shift),
        direction=TangentVector(direction, point),
        tri=TridiagonalForm(alpha=alpha_arr, beta=beta_arr, basis=stack),
        exhausted=exhausted,
        iterations=k,
    )


def second_order_step(instance: ProblemInstance, point: FactorPoint,
                      cache: GradientCache, direction: TangentVector,
                      epsilon: float) -> float:
    """Geodesic step of length eps/(15 |A|_1) along the (sign-corrected)
    direction, followed by a full cache rebuild.  Mutates point and cache;
    returns the measured objective increase.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if instance.one_norm == 0.0:
        raise TrivialInstanceError("zero cost matrix: every point is optimal")
    nrm = direction.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError(f"direction must have unit Frobenius norm, got {nrm}")
    grad = riemannian_gradient(point, cache)
    d = direction.u
    if float(np.sum(d * grad.u)) < 0.0:
        d = -d
    t = epsilon / (STEP_DENOM * instance.one_norm)
    f_before = cache.objective()
    moved = exp_map(point, TangentVector(d, point), t)
    point.sigma[:] = moved.sigma
    refresh_cache(instance, point, cache)
    return cache.objective() - f_before


def auto_epsilon(instance: ProblemInstance, point: FactorPoint,
                 cache: GradientCache, r: int) -> float:
    """Accuracy target 2 U / (n (r-1)) with U the dual upper bound at the
    given iterate standing in for the unknown optimum."""
    cert = dual_upper_bound(instance, point, cache)
    if cert.upper_bound <= 0.0:
        raise ValidationError(
            "auto epsilon needs a positive upper bound; pass epsilon explicitly")
    return 2.0 * cert.upper_bound / (instance.n * (r - 1))


def run_bcm2(instance: ProblemInstance, solver: SolverConfig,
             esc: EscapeConfig, initial: FactorPoint | None = None,
             r: int | None = None):
    """Greedy coordinate ascent interleaved with Lanczos escape steps.

    Above the threshold the greedy rule takes single-row steps (n of them
    count as one epoch); below it, a leading curvature direction is computed
    and either stepped along (curvature >= eps/2) or, failing that, the point
    is declared an eps-approximate concave point and the run stops.  A hard
    cap of ceil(675 n |A|_1^2 / eps^2) combined epochs applies, on top of the
    user's max_epochs.  The loop itself is bcm.drive with an escape policy;
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
        instance, point, cache, rr)
    threshold = escape_threshold(instance, eps)
    cap = math.ceil(EPOCH_CAP_NUM * n * instance.one_norm**2 / eps**2)
    budget = lanczos_budget(instance, eps, esc.delta, rr)
    t_step = eps / (STEP_DENOM * instance.one_norm)
    rng_lan = np.random.default_rng(esc.seed)

    trace = SolveTrace(header={
        "method": "bcm2", "n": n, "r": rr, "epsilon": eps, "delta": esc.delta,
        "threshold": threshold, "epoch_cap": cap, "lanczos_budget": budget,
        "step_length": t_step, "retries": esc.retries,
        "lanczos_reorth": esc.lanczos_reorth, "seed": solver.seed,
        "escape_seed": esc.seed, "max_epochs": solver.max_epochs,
        "refresh_period": solver.refresh_period,
        "instance_checksum": instance.checksum(),
        "trace_offset": instance.trace_offset,
    })

    def escape_step():
        for _attempt in range(esc.retries + 1):
            res = lanczos_leading(instance, point, cache, budget, rng_lan,
                                  reorth=esc.lanczos_reorth)
            ray = hess_quadratic(instance, point, res.direction, cache)
            if ray >= eps / 2.0:
                gain = second_order_step(instance, point, cache,
                                         res.direction, eps)
                return gain, ray
        return None

    trace.status, steps, escapes = drive(
        instance, point, cache, rng, trace, replace(solver, rule="greedy"),
        -math.inf, EscapePolicy(threshold, cap, escape_step))
    trace.header["bcm_epochs"] = steps / n
    trace.header["bcm_steps"] = steps
    trace.header["escape_steps"] = escapes
    return point, trace
