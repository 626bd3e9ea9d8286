"""Second-order escape: the leading pair of A - Lambda, Lanczos as fallback.

When the gradient metric falls below eps^3/(1350 |A|_1), the solver looks for
a tangent direction of curvature >= eps/2 and takes a geodesic step of length
eps/(15 |A|_1) along it.  For a tangent U, <U, Hess[U]> = 2 tr(U^T (A -
Lambda) U) with Lambda = diag(<sigma_i, g_i>), so twice the top eigenvalue of
A - Lambda, the dual certificate's own eigenproblem, bounds the curvature,
and at a rank-deficient point v z^T (v its top eigenvector, S z = 0) attains
the bound (Journee, Bach, Absil & Sepulchre, SIAM J. Optim. 20(5), 2010).
Where that direction falls short, and always on incomplete instances, a
tridiagonal Lanczos recurrence on the curvature operator Hess[u] runs.
_check_epsilon forms the three constants and the cubic ascent bound
eps^3/(2700 |A|_1^2) that ties them; changing one invalidates the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# bcm_step, select_coordinate, grad_metric_sq: unused, kept for perfbench spans
from .bcm import (GradientCache, SolverConfig, bcm_step, drive, refresh_cache,
                  select_coordinate, start_point)
from .certify import (BREAKDOWN_TOL, _top_ritz_pair, dual_upper_bound, lanczos,
                      leading_pair)
from .errors import ValidationError, check_count, check_real
from .manifold import (FactorPoint, _hess_apply_rows, _project_rows, exp_map,
                       grad_metric_sq, hess_quadratic, riemannian_gradient)
from .problem import ProblemInstance

THRESHOLD_DENOM = 1350.0
STEP_DENOM = 15.0
ASCENT_DENOM = 2700.0
EPOCH_CAP_NUM = 675.0
LANCZOS_TAIL_CONST = 1.648


@dataclass(frozen=True)
class EscapeConfig:
    epsilon: float | None = None   # None: pick from the dual bound at the start
    delta: float = 0.01            # failure probability budget for Lanczos
    seed: int = 0

    def __post_init__(self):
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", check_real(
                "epsilon", self.epsilon, 0.0, open_low=True))
        object.__setattr__(self, "delta", check_real(
            "delta", self.delta, 0.0, 1.0, open_low=True))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


@dataclass
class TridiagonalForm:
    alpha: np.ndarray         # diagonal
    beta: np.ndarray          # off-diagonal, > 0: it stops at breakdown
    basis: np.ndarray         # (k, n, r) Lanczos vectors: a view of the first
                              # k rows of the preallocated (m, n r) basis


@dataclass
class LanczosResult:
    estimate: float           # leading curvature estimate, lambda_max(T)
    direction: np.ndarray     # (n, r) tangent array, unit Frobenius norm
    tri: TridiagonalForm
    exhausted: bool           # stopped at breakdown before max_iters: the
                              # Krylov space is invariant and the pair exact
    iterations: int


def _check_epsilon(instance: ProblemInstance,
                   epsilon) -> tuple[float, int, float, float, float]:
    """The one place bcm2's numbers are formed from epsilon: returns (eps,
    cap, threshold, floor, step), the epoch cap ceil(675 n |A|_1^2 / eps^2)
    on a run's combined epochs and Lanczos calls, eps^3/(1350 |A|_1),
    eps^3/(2700 |A|_1^2) and eps/(15 |A|_1).  Refuses the zero instance and
    an epsilon for which one of them is not finite."""
    epsilon = check_real("epsilon", epsilon, 0.0, open_low=True)
    one = instance.one_norm
    if one == 0.0:
        raise ValidationError("zero cost matrix: every point is optimal")
    try:   # float ** raises OverflowError where * and / give inf
        cap = EPOCH_CAP_NUM * instance.n * one**2 / epsilon**2
        cube = (epsilon / one)**3   # free of the units of A
        threshold = cube * one**2 / THRESHOLD_DENOM
        floor = cube * one / ASCENT_DENOM
        step = epsilon / (STEP_DENOM * one)
        if max(cap, threshold, floor, step) < math.inf:
            return epsilon, math.ceil(cap), threshold, floor, step
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValidationError(f"epsilon = {epsilon!r} gives no finite escape "
                          "constant or epoch cap 675 n |A|_1^2/eps^2")


def escape_threshold(instance: ProblemInstance, epsilon: float) -> float:
    """Gradient-metric level below which the second-order branch engages."""
    return _check_epsilon(instance, epsilon)[2]


def escape_ascent_floor(instance: ProblemInstance, epsilon: float) -> float:
    """Guaranteed objective gain of one accepted escape step."""
    return _check_epsilon(instance, epsilon)[3]


def lanczos_budget(instance: ProblemInstance, epsilon: float, delta: float,
                   r: int) -> int:
    """Iteration count that bounds the failure probability of every Lanczos
    call over the whole run by delta; capped at the tangent dimension n(r-1),
    where the recurrence is exact, also where the bound overflows to inf.

    The bound (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4),
    1992) is stated for positive semidefinite operators and is applied to
    Hess + 4 |A|_1 I, which is one on the tangent space.  Krylov spaces do
    not change under a shift, so Lanczos run on Hess itself finds the same
    Ritz vectors, with every Ritz value lower by 4 |A|_1, and the budget
    holds for it unchanged.
    """
    delta = check_real("delta", delta, 0.0, 1.0, open_low=True)
    r = check_count("r", r, 2)
    epsilon, calls = _check_epsilon(instance, epsilon)[:2]
    dim = instance.n * (r - 1)
    return math.ceil(min(
        (0.5 + 2.0 * math.sqrt(instance.one_norm / epsilon))
        * math.log(calls * LANCZOS_TAIL_CONST * math.sqrt(dim) / delta), dim))


def lanczos_leading(instance: ProblemInstance, point: FactorPoint,
                    cache: GradientCache, max_iters: int,
                    rng: np.random.Generator) -> LanczosResult:
    """Leading curvature eigenpair via the Lanczos recurrence on Hess.

    Runs certify.lanczos, the dual bound's recurrence, on the flattened
    curvature operator from a uniformly random unit tangent vector, for
    m = min(max_iters, n (r-1)) steps.  Its vectors fill one (m, n r) array
    allocated up front (m n r 8 bytes); they are not reorthogonalised, since
    run_bcm2 accepts a direction only by its true hess_quadratic.  A
    breakdown beta <= BREAKDOWN_TOL unit, the certificate's rule, before step
    m stops it and flags `exhausted`: the start's Krylov space is then
    invariant under Hess, and its top Ritz pair is exact (almost surely, for
    a random start).
    Returns the estimate lambda_max(T) and the reconstructed unit direction.
    """
    max_iters = check_count("max_iters", max_iters, 1)
    sigma = point.sigma
    n, r = sigma.shape
    dim = n * (r - 1)
    if dim == 0:
        raise ValidationError("tangent space is trivial (r = 1)")
    m = min(max_iters, dim)
    unit = instance.unit   # T in these units is the same at every scale of A
    basis, alphas, betas = np.empty((m, n * r)), [], []

    def apply(q):
        return _hess_apply_rows(instance, sigma, cache.inner,
                                q.reshape(n, r)).ravel()

    start = _project_rows(sigma, rng.standard_normal((n, r))).ravel()
    start /= np.linalg.norm(start)
    for k, (q, alpha, beta) in enumerate(lanczos(apply, start), 1):
        basis[k - 1] = q
        alphas.append(alpha)
        if k == m or beta <= BREAKDOWN_TOL * unit:
            exhausted = k < m
            break
        betas.append(beta)

    theta, y = _top_ritz_pair([a / unit for a in alphas],
                              [b / unit for b in betas])
    direction = _project_rows(sigma, (y @ basis[:k]).reshape(n, r))
    direction /= np.linalg.norm(direction)
    return LanczosResult(
        estimate=theta * unit,
        direction=direction,
        tri=TridiagonalForm(alpha=np.asarray(alphas), beta=np.asarray(betas),
                            basis=basis[:k].reshape(k, n, r)),
        exhausted=exhausted,
        iterations=k,
    )


def second_order_step(instance: ProblemInstance, point: FactorPoint,
                      cache: GradientCache, direction: np.ndarray,
                      epsilon: float) -> float:
    """Geodesic step of length eps/(15 |A|_1), from _check_epsilon, along
    the (sign-corrected) tangent array `direction`, then a full cache
    rebuild.  Mutates point and cache; returns the measured objective gain.
    """
    t = _check_epsilon(instance, epsilon)[4]
    nrm = float(np.linalg.norm(direction))
    if not abs(nrm - 1.0) <= 1e-8:   # NaN fails
        raise ValidationError(f"direction must have unit Frobenius norm, got {nrm}")
    d = direction
    if float(np.sum(d * riemannian_gradient(point, cache))) < 0.0:
        d = -d
    f_before = cache.objective()
    point.sigma[:] = exp_map(point, d, t).sigma
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
    """Greedy coordinate ascent interleaved with escape steps.

    Above the threshold the greedy rule takes single-row steps (n of them
    count as one epoch).  Below it, an escape step on a complete instance
      (a) computes LAPACK's top pair (theta, v) of A - Lambda (leading_pair);
      (b) declares the point eps-approximate concave if 2 theta < eps/2,
          which bounds every curvature below eps/2 and the gap by n eps/4;
      (c) steps along U = proj(v z^T), normalised, with z the last right
          singular vector of S, if its curvature is >= eps/2;
      (d) else, and always on an incomplete instance (whose dual bound's
          theta is a basis-free Lanczos estimate with no eigenvector and no
          proven margin), runs Lanczos on the curvature operator, steps
          along its direction if that curvature is >= eps/2, or stops with
          the concave verdict, which holds with probability >= 1 - delta.
    The header's lanczos_calls counts the steps that reached (d).  The loop
    itself is bcm.drive with the escape threshold and step, and
    max_epochs = min(cap, solver.max_epochs), where cap (see _check_epsilon)
    bounds the combined epochs; status "epoch_cap" reports a stop at a cap
    no larger than solver.max_epochs.  solver.rule and solver.grad_tol are
    not used.
    """
    point, rng, cache, trace = start_point(instance, "bcm2", solver, initial, r)
    if instance.one_norm == 0.0:
        # every metric is exactly 0: drive records epoch 0 and stops
        drive(instance, point, cache, rng, trace, solver, 0.0)
        trace.status = "trivial"
        return point, trace

    eps, cap, threshold, _, t_step = _check_epsilon(
        instance, esc.epsilon if esc.epsilon is not None
        else auto_epsilon(instance, point, cache))
    budget = lanczos_budget(instance, eps, esc.delta, point.r)
    rng_lan = np.random.default_rng(esc.seed)
    trace.header.update(
        epsilon=eps, delta=esc.delta, threshold=threshold, epoch_cap=cap,
        lanczos_budget=budget, step_length=t_step, retries=0,
        lanczos_reorth=False, escape_seed=esc.seed, lanczos_calls=0)

    def escape_step():
        ray = -math.inf   # incomplete: Lanczos alone gives the direction
        if instance.complete:
            theta, v = leading_pair(instance, cache.inner)
            if 2.0 * theta < eps / 2.0:
                return None
            z = np.linalg.svd(point.sigma, full_matrices=instance.n < point.r)[2][-1]
            # a second projection keeps each row tangent relative to its own
            # length, also where v_i z is nearly parallel to sigma_i
            u = _project_rows(point.sigma,
                              _project_rows(point.sigma, np.outer(v, z)))
            u /= np.linalg.norm(u) or 1.0   # u = 0 has curvature 0: Lanczos
            ray = hess_quadratic(instance, point, u, cache)
        if ray < eps / 2.0:
            trace.header["lanczos_calls"] += 1
            u = lanczos_leading(instance, point, cache, budget, rng_lan).direction
            ray = hess_quadratic(instance, point, u, cache)
            if ray < eps / 2.0:
                return None
        return second_order_step(instance, point, cache, u, eps), ray

    greedy = replace(solver, rule="greedy", max_epochs=min(cap, solver.max_epochs))
    status, steps, escapes = drive(instance, point, cache, rng, trace, greedy,
                                   -math.inf, threshold, escape_step)
    trace.status = ("epoch_cap" if status == "max_epochs"
                    and cap <= solver.max_epochs else status)
    trace.header.update(bcm_epochs=steps / instance.n, bcm_steps=steps,
                        escape_steps=escapes)
    return point, trace
