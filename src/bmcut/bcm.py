"""Block-coordinate maximization: gradient cache, selection rules, ascent steps.

Each step replaces one row sigma_i by its exact maximizer g_i/|g_i|, where
g_i = sum_{j != i} A_ij sigma_j is kept incrementally up to date.  The ascent
per step equals 2 (|g_i| - <sigma_i, g_i>) and is never negative, so the
objective trace is monotone.  block_sweep delays the update of g by BLOCK steps.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError, check_count, check_indices, check_real
from .manifold import FactorPoint, grad_metric_sq, metric_term, random_point
from .problem import ProblemInstance

RULES = ("cyclic", "uniform", "importance", "greedy")
REFRESH_PERIOD = 100   # trace records between full cache recomputations
BLOCK = 32             # steps per delayed update of g in block_sweep


@dataclass
class GradientCache:
    """Neighbor sums g_i with their norms and alignments <sigma_i, g_i>."""

    g: np.ndarray        # (n, r)
    norms: np.ndarray    # (n,)  |g_i|
    inner: np.ndarray    # (n,)  <sigma_i, g_i>

    def objective(self) -> float:
        """f = <A, S S^T> = sum_i <sigma_i, g_i>, without the trace offset."""
        return float(self.inner.sum())


def _row_stats(g: np.ndarray, sigma: np.ndarray, norms=None, inner=None):
    """(|g_i|, <sigma_i, g_i>) by one dot per row, written into norms and
    inner when given: the one formula behind every norm and alignment in the
    cache, the same bits in any batch of rows and as floats for one 1-D row."""
    if g.ndim == 1:
        return math.sqrt(np.vecdot(g, g)), float(np.vecdot(sigma, g))
    sq = np.vecdot(g, g, out=norms)
    return np.sqrt(sq, out=sq), np.vecdot(sigma, g, out=inner)


def init_cache(instance: ProblemInstance, point: FactorPoint) -> GradientCache:
    instance.check_rows(point.n, "point")
    g = instance.rows @ point.sigma
    return GradientCache(g, *_row_stats(g, point.sigma))


def refresh_cache(instance: ProblemInstance, point: FactorPoint,
                  cache: GradientCache) -> None:
    """Recompute the cache from scratch, in place, to wash out drift."""
    cache.g[:] = instance.rows @ point.sigma
    _row_stats(cache.g, point.sigma, cache.norms, cache.inner)


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
        return int((cache.norms - cache.inner).argmax())
    if rule == "importance":
        total = float(cache.norms.sum())
        if total <= 0.0:
            return int(rng.integers(n))
        x = rng.random() * total
        idx = int(cache.norms.cumsum().searchsorted(x, side="right"))
        return min(idx, n - 1)
    raise ValidationError(f"unknown coordinate rule {rule!r}; pick from {RULES}")


def bcm_step(instance: ProblemInstance, point: FactorPoint,
             cache: GradientCache, i: int) -> float:
    """Set sigma_i <- g_i/|g_i| and update the cache incrementally.

    Returns the exact ascent 2 (|g_i| - <sigma_i, g_i>), measured before the
    update.  Rows with |g_i| = 0, or already at their maximizer, are left
    untouched and return 0.
    """
    i = check_count("row index", i, 0, instance.n)
    g, norms, inner, sigma = cache.g, cache.norms, cache.inner, point.sigma
    ni = norms.item(i)
    ascent = 2.0 * (ni - inner.item(i))
    if ni <= 0.0 or ascent <= 0.0:   # |g_i|^2 can underflow while g_i != 0
        return 0.0
    new = g[i] / ni
    delta, sigma[i] = new - sigma[i], new
    if instance.complete:
        # one row change, added around row i: the gather path's bits, g_i alone
        change = np.multiply.outer(instance.rows[i], delta)
        g[:i] += change[:i]
        g[i + 1:] += change[i + 1:]
        _row_stats(g, sigma, norms, inner)
    else:
        cols, vals = instance.row(i)
        gc = g.take(cols, axis=0)
        gc += vals[:, None] * delta
        g[cols] = gc
        norms[cols], inner[cols] = _row_stats(gc, sigma.take(cols, 0))
    inner[i] = ni  # g_i is unchanged: A_ii = 0
    return ascent


def block_sweep(instance: ProblemInstance, point: FactorPoint,
                cache: GradientCache, rows) -> np.ndarray:
    """bcm_step on each of `rows`, a 1-D array of indices in [0, n), in
    turn, with the update of g delayed; returns the per-step ascents.  Needs
    `instance.complete`: A[J, :] is read from the dense array.

    Step t of a block J of BLOCK rows adds A[i, J[:t]] @ D[:t], the block's
    row changes D so far, to g_i; it steps and skips as bcm_step does, also
    a row drawn again before another moves, marked by inner_i = |g_i|.  One
    product g += A[J, :]^T D ends a block.
    """
    rows = check_indices("rows", rows, instance.n)
    sigma, g, ascents = point.sigma, cache.g, np.zeros(rows.size)
    if not rows.size:
        return ascents
    last = rows[0] if cache.inner[rows[0]] == cache.norms[rows[0]] else -1
    for lo in range(0, rows.size, BLOCK):
        block = rows[lo:lo + BLOCK]
        a = instance.rows[block]
        coupling, d = a[:, block], np.zeros((block.size, sigma.shape[1]))
        for t, i in enumerate(block.tolist()):
            gi, si = g[i] + coupling[t, :t] @ d[:t], sigma[i]
            ni, inner = _row_stats(gi, si)
            ascent = 2.0 * (ni - inner)
            if i == last or ni <= 0.0 or ascent <= 0.0:
                continue
            gi /= ni   # gi is a fresh array: it becomes the new sigma_i
            np.subtract(gi, si, out=d[t])
            si[:], ascents[lo + t], last = gi, ascent, i
        g += a.T @ d
    _row_stats(g, sigma, cache.norms, cache.inner)
    if last >= 0:
        cache.inner[last] = cache.norms[last]
    return ascents


@dataclass(frozen=True)
class SolverConfig:
    rule: str = "cyclic"
    max_epochs: int = 10_000
    grad_tol: float | None = None   # None: 1e-12 * n * |A|_1^2
    seed: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}; pick from {RULES}")
        object.__setattr__(self, "max_epochs",
                           check_count("max_epochs", self.max_epochs, 1))
        if self.grad_tol is not None:
            object.__setattr__(self, "grad_tol",
                               check_real("grad_tol", self.grad_tol, 0.0))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


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
    escape_gain: float | None = None
    rayleigh: float | None = None
    wall_time: float = 0.0       # last: serialized only when asked

    @staticmethod
    def columns(include_timing: bool = False) -> list[str]:
        names = [f.name for f in fields(TraceRecord)]
        return names if include_timing else names[:-1]

    def as_dict(self, include_timing: bool = False) -> dict:
        return {k: getattr(self, k) for k in self.columns(include_timing)}


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
            fh.write(f"# schema=trace_v1 status={self.status}\n")
            for key in sorted(self.header):
                fh.write(f"# {key}={self.header[key]}\n")
            fh.write(",".join(TraceRecord.columns(include_timing)) + "\n")
            for rec in self.records:   # as_dict keeps the column order
                vals = rec.as_dict(include_timing).values()
                fh.write(",".join("" if v is None else repr(v) if isinstance(v, float)
                                  else str(v) for v in vals) + "\n")


def start_point(instance: ProblemInstance, method: str, config: SolverConfig,
                initial: FactorPoint | None = None, r: int | None = None):
    """Everything a solver run starts from: (point, rng, cache, trace).

    Takes exactly one of `initial`, which is copied and never mutated, and
    `r`, the rank of a point whose rows are drawn uniformly at random from
    the generator seeded with config.seed.  Every solver needs n >= 1,
    r >= 2, and |A|_1 = 0 or |A|_1^2 a normal float.  The trace header holds
    the fields every method writes; each method adds its own.
    """
    if (initial is None) == (r is None):
        raise ValidationError("a solver run needs exactly one of an initial "
                              "point and r")
    if instance.n == 0:
        raise ValidationError("the solvers need n >= 1, got n = 0")
    square = instance.one_norm * instance.one_norm
    if instance.one_norm and not np.finfo(float).tiny <= square < np.inf:
        # grad_tol and the epoch caps square |A|_1, and the metric's terms
        # |g_i|^2 lose their digits below the normal range
        raise ValidationError(
            f"|A|_1 = {instance.one_norm!r} squares outside the normal float "
            "range; rescale A")
    rng = np.random.default_rng(config.seed)
    if initial is not None:
        point = initial.copy()
    else:
        point = random_point(instance.n, r, rng)
    if point.r < 2:
        raise ValidationError(f"the solvers need r >= 2, got r = {point.r}")
    trace = SolveTrace(header={
        "method": method, "n": instance.n, "r": point.r, "seed": config.seed,
        "max_epochs": config.max_epochs, "refresh_period": REFRESH_PERIOD,
        "instance_checksum": instance.checksum(),
        "trace_offset": instance.trace_offset,
    })
    return point, rng, init_cache(instance, point), trace


def drive(instance: ProblemInstance, point: FactorPoint, cache: GradientCache,
          rng: np.random.Generator, trace: SolveTrace, config: SolverConfig,
          tol: float, threshold: float = -math.inf,
          escape: Callable[[], tuple[float, float] | None] | None = None):
    """The solver loop: sweeps of up to n coordinate steps, one record each.

    An epoch is n coordinate steps or one escape step.  The epoch-0 record
    comes first; a sweep starts with a cache refresh when the trace holds a
    multiple of REFRESH_PERIOD records.  No coordinate step is taken past
    config.max_epochs epochs.  With an `escape` callable, which returns
    (gain, rayleigh) for an accepted escape step or None for the concave
    verdict, the loop calls it whenever the gradient metric is at or under
    `threshold`, checked after every pick: by the picked row's own metric
    term unless that is at or under it, then by the exact metric.  A pick
    dropped at the threshold has drawn from rng under uniform and
    importance; greedy draws nothing.  tol is checked after every sweep.
    Mutates point, cache and trace; returns (status, coordinate steps,
    escape steps).
    """
    n = instance.n
    steps = escapes = 0
    touched = np.zeros(n, dtype=bool)
    blocked = (escape is None and config.rule in ("cyclic", "uniform")
               and instance.complete)
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
        # coordinate steps left before steps // n + escapes reaches max_epochs
        left = (config.max_epochs - escapes) * n - steps
        if left <= 0:
            return "max_epochs", steps, escapes
        if len(trace.records) % REFRESH_PERIOD == 0:
            refresh_cache(instance, point, cache)
        touched[:] = False
        sweep, begun, rows = min(n, left), steps, []
        for _ in range(sweep):
            i = select_coordinate(config.rule, cache, rng, step=steps)
            # the metric is at least twice row i's term, so only a pick
            # whose own term is at or under the threshold needs the exact sum
            if (escape is not None
                    and 2.0 * metric_term(cache.norms.item(i), cache.inner.item(i))
                    <= threshold and grad_metric_sq(cache) <= threshold):
                break
            rows.append(i)
            if not blocked and bcm_step(instance, point, cache, i) > 0.0:
                touched[i] = True
            steps += 1
        if blocked and rows:
            ascents = block_sweep(instance, point, cache, rows)
            touched[np.asarray(rows)[ascents > 0.0]] = True
        if steps > begun:
            metric = emit("bcm", steps - begun, int(touched.sum()))
        if steps - begun < sweep:   # the metric fell to the escape threshold
            accepted = escape()
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
    point, rng, cache, trace = start_point(instance, "bcm", config, initial, r)
    tol = config.grad_tol if config.grad_tol is not None else default_grad_tol(instance)
    trace.header.update(rule=config.rule, grad_tol=tol)
    trace.status, _, _ = drive(instance, point, cache, rng, trace, config, tol)
    return point, trace
