"""Block-coordinate maximization: gradient cache, selection rules, ascent steps.

Each step replaces one row sigma_i by its exact maximizer g_i/|g_i|, where
g_i = sum_{j != i} A_ij sigma_j is kept incrementally up to date.  The ascent
per step equals 2 (|g_i| - <sigma_i, g_i>) and is never negative, so the
objective trace is monotone.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .manifold import FactorPoint, grad_metric_sq, random_point
from .problem import ProblemInstance

RULES = ("cyclic", "uniform", "importance", "greedy")
REFRESH_PERIOD = 100   # coordinate epochs between full cache recomputations
_ZERO = np.zeros(1)


@dataclass
class GradientCache:
    """Neighbor sums g_i with their norms and alignments <sigma_i, g_i>."""

    g: np.ndarray        # (n, r)
    norms: np.ndarray    # (n,)  |g_i|
    inner: np.ndarray    # (n,)  <sigma_i, g_i>

    def objective(self) -> float:
        """f = <A, S S^T> = sum_i <sigma_i, g_i>, without the trace offset."""
        return float(self.inner.sum())


def init_cache(instance: ProblemInstance, point: FactorPoint) -> GradientCache:
    if point.n != instance.n:
        raise ValidationError(
            f"point has {point.n} rows, instance has {instance.n}"
        )
    g = instance.matmat(point.sigma)
    # np.linalg.norm may differ in the last bit from bcm_step's
    # sqrt(einsum); changing either formula changes the golden digests
    norms = np.linalg.norm(g, axis=1)
    inner = np.einsum("ij,ij->i", point.sigma, g)
    return GradientCache(g=g, norms=norms, inner=inner)


def refresh_cache(instance: ProblemInstance, point: FactorPoint,
                  cache: GradientCache) -> None:
    """Recompute the cache from scratch, in place, to wash out drift."""
    fresh = init_cache(instance, point)
    cache.g[:] = fresh.g
    cache.norms[:] = fresh.norms
    cache.inner[:] = fresh.inner


def select_coordinate(rule: str, cache: GradientCache,
                      rng: np.random.Generator, step: int = 0) -> int:
    """Pick the next row index under the given rule.

    cyclic walks 0..n-1 using the step counter; uniform is 1/n each;
    importance is proportional to |g_i| (uniform fallback when all are zero);
    greedy takes argmax of |g_i| - <sigma_i, g_i> with lowest-index ties.
    """
    n = cache.norms.shape[0]
    if rule == "cyclic":
        return step % n
    if rule == "uniform":
        return int(rng.integers(n))
    if rule == "greedy":
        return int(np.argmax(cache.norms - cache.inner))
    if rule == "importance":
        total = float(cache.norms.sum())
        if total <= 0.0:
            return int(rng.integers(n))
        x = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(cache.norms), x, side="right"))
        return min(idx, n - 1)
    raise ValidationError(f"unknown coordinate rule {rule!r}; pick from {RULES}")


def bcm_step(instance: ProblemInstance, point: FactorPoint,
             cache: GradientCache, i: int) -> float:
    """Set sigma_i <- g_i/|g_i| and update the cache incrementally.

    Returns the exact ascent 2 (|g_i| - <sigma_i, g_i>), measured before the
    update.  Rows with |g_i| = 0, or already at their maximizer, are left
    untouched and return 0.
    """
    if not 0 <= i < instance.n:
        raise ValidationError(f"row index {i} out of range for n={instance.n}")
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
    cache.inner[i] = ni  # g_i is unchanged: A_ii = 0
    cols, vals = instance.row(i)
    if cols.size == instance.n - 1:
        # full row: one rank-1 update of all of g with the gather path's
        # bits; sorted cols put the zero coefficient at i, g_i is restored
        # (g_i + 0*delta turns -0.0 into +0.0), and |g_i| keeps its stored
        # value (see init_cache)
        g, gi = cache.g, cache.g[i].copy()
        g += np.concatenate((vals[:i], _ZERO, vals[i:]))[:, None] * delta
        g[i] = gi
        np.sqrt(np.einsum("ij,ij->i", g, g), out=cache.norms)
        np.einsum("ij,ij->i", g, sigma, out=cache.inner)
        cache.norms[i] = cache.inner[i] = ni
    elif cols.size:
        gc = cache.g[cols]
        gc += vals[:, None] * delta[None, :]
        cache.g[cols] = gc
        cache.norms[cols] = np.sqrt(np.einsum("ij,ij->i", gc, gc))
        cache.inner[cols] = np.einsum("ij,ij->i", gc, sigma[cols])
    return float(ascent)


@dataclass
class SolverConfig:
    rule: str = "cyclic"
    max_epochs: int = 10_000
    grad_tol: float | None = None   # None: 1e-12 * n * |A|_1^2
    seed: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}; pick from {RULES}")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.grad_tol is not None and not self.grad_tol >= 0:   # NaN fails
            raise ValidationError(f"grad_tol must be >= 0, got {self.grad_tol}")


def default_grad_tol(instance: ProblemInstance) -> float:
    return 1e-12 * instance.n * instance.one_norm**2


@dataclass
class TraceRecord:
    epoch: int
    kind: str                    # "bcm" or "escape"
    f_raw: float
    f_total: float
    grad_metric_sq: float
    steps: int
    coords_updated: int
    wall_time: float
    escape_gain: float | None = None
    rayleigh: float | None = None

    _FIELDS = ("epoch", "kind", "f_raw", "f_total", "grad_metric_sq",
               "steps", "coords_updated", "escape_gain", "rayleigh")

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {k: getattr(self, k) for k in self._FIELDS}
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


@dataclass
class SolveTrace:
    """Per-epoch records plus a reproducibility header.

    Timing stays in memory for summaries; serialized traces omit it unless
    asked, so identical (spec, seed) runs produce byte-identical files.
    """

    header: dict = field(default_factory=dict)
    records: list[TraceRecord] = field(default_factory=list)
    status: str = ""

    def f_values(self, kind: str | None = None) -> np.ndarray:
        recs = self.records if kind is None else [r for r in self.records
                                                  if r.kind == kind]
        return np.asarray([r.f_raw for r in recs])

    def final(self) -> TraceRecord:
        return self.records[-1]

    def write(self, path: str, include_timing: bool = False) -> None:
        """Write the trace as CSV when path ends in .csv, otherwise as JSON
        lines: a header object, then one object per record."""
        with open(path, "w", encoding="utf-8") as fh:
            if not path.endswith(".csv"):
                head = {"type": "header", "schema": "trace_v1",
                        "status": self.status, **self.header}
                fh.write(json.dumps(head, sort_keys=True) + "\n")
                for rec in self.records:
                    row = {"type": "record", **rec.as_dict(include_timing)}
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
                return
            cols = list(TraceRecord._FIELDS)
            if include_timing:
                cols.append("wall_time")
            fh.write(f"# schema=trace_v1 status={self.status}\n")
            for key in sorted(self.header):
                fh.write(f"# {key}={self.header[key]}\n")
            fh.write(",".join(cols) + "\n")
            for rec in self.records:
                row = rec.as_dict(include_timing)
                fh.write(",".join("" if row[c] is None else repr(row[c])
                                  if isinstance(row[c], float) else str(row[c])
                                  for c in cols) + "\n")


def start_point(instance: ProblemInstance, seed: int,
                initial: FactorPoint | None = None, r: int | None = None):
    """The run's seeded generator and its starting point, as (point, rng).

    Takes exactly one of `initial`, which is copied and never mutated, and
    `r`, the rank of a point whose rows are drawn uniformly at random from
    the generator.  Every solver needs n >= 1 and r >= 2.
    """
    if (initial is None) == (r is None):
        raise ValidationError("a solver run needs exactly one of an initial "
                              "point and r")
    if instance.n == 0:
        raise ValidationError("the solvers need n >= 1, got n = 0")
    rng = np.random.default_rng(seed)
    if initial is not None:
        point = initial.copy()
    else:
        point = random_point(instance.n, r, rng)
    if point.n != instance.n:
        raise ValidationError("initial point does not match the instance size")
    if point.r < 2:
        raise ValidationError(f"the solvers need r >= 2, got r = {point.r}")
    return point, rng


@dataclass
class EscapePolicy:
    """The second-order branch of the solver loop in `drive`.

    Whenever the gradient metric is at or under `threshold`, the loop calls
    `step()`, which returns (gain, rayleigh) for an accepted escape step or
    None for the concave verdict.  Coordinate and escape epochs together stop
    at `epoch_cap`.
    """

    threshold: float
    epoch_cap: int
    step: Callable[[], tuple[float, float] | None]


def drive(instance: ProblemInstance, point: FactorPoint, cache: GradientCache,
          rng: np.random.Generator, trace: SolveTrace, config: SolverConfig,
          tol: float, policy: EscapePolicy | None = None):
    """The solver loop: sweeps of up to n coordinate steps, one record each.

    An epoch is n coordinate steps or one escape step.  The epoch-0 record
    comes first; the cache is refreshed before coordinate epoch e whenever
    e % REFRESH_PERIOD == 0.  No coordinate step is taken past the epoch
    caps; with a policy, the escape threshold is checked before every step;
    tol is checked after every sweep.  Mutates point, cache and trace;
    returns (status, coordinate steps, escape steps).
    """
    n = instance.n
    limit, at_limit = config.max_epochs, "max_epochs"
    if policy is not None and policy.epoch_cap <= limit:
        limit, at_limit = policy.epoch_cap, "epoch_cap"
    steps = escapes = 0
    touched = np.zeros(n, dtype=bool)
    t0 = time.perf_counter()

    def emit(kind, taken, coords, gain=None, ray=None):
        metric = grad_metric_sq(cache)
        trace.records.append(TraceRecord(
            epoch=steps // n + escapes, kind=kind, f_raw=cache.objective(),
            f_total=cache.objective() + instance.trace_offset,
            grad_metric_sq=metric, steps=taken, coords_updated=coords,
            wall_time=time.perf_counter() - t0, escape_gain=gain,
            rayleigh=ray))
        return metric

    metric = emit("bcm", 0, 0)
    while True:
        if metric <= tol:
            return "converged", steps, escapes
        # coordinate steps left before steps // n + escapes reaches the limit
        left = (limit - escapes) * n - steps
        if left <= 0:
            return at_limit, steps, escapes
        touched[:] = False
        sweep, begun = min(n, left), steps
        for _ in range(sweep):
            if (policy is not None
                    and grad_metric_sq(cache) <= policy.threshold):
                break
            if steps % n == 0 and (steps // n + 1) % REFRESH_PERIOD == 0:
                refresh_cache(instance, point, cache)
            i = select_coordinate(config.rule, cache, rng, step=steps)
            if bcm_step(instance, point, cache, i) > 0.0:
                touched[i] = True
            steps += 1
        if steps > begun:
            metric = emit("bcm", steps - begun, int(touched.sum()))
        if steps - begun < sweep:   # the metric fell to the escape threshold
            accepted = policy.step()
            if accepted is None:
                return "concave", steps, escapes
            escapes += 1
            metric = emit("escape", 1, n, *accepted)


def run(instance: ProblemInstance, config: SolverConfig,
        initial: FactorPoint | None = None, r: int | None = None):
    """Run coordinate maximization until the gradient metric falls under
    grad_tol or max_epochs (of n steps each) elapse.

    Returns (point, trace); the starting point follows start_point.
    """
    point, rng = start_point(instance, config.seed, initial, r)
    tol = config.grad_tol if config.grad_tol is not None else default_grad_tol(instance)
    cache = init_cache(instance, point)
    trace = SolveTrace(header={
        "method": "bcm", "n": instance.n, "r": point.r, "rule": config.rule,
        "max_epochs": config.max_epochs, "grad_tol": tol, "seed": config.seed,
        "refresh_period": REFRESH_PERIOD,
        "instance_checksum": instance.checksum(),
        "trace_offset": instance.trace_offset,
    })
    trace.status, _, _ = drive(instance, point, cache, rng, trace, config, tol)
    return point, trace
