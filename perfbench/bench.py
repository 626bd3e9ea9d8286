"""Workloads, the timed pipeline, correctness checks and metric aggregation.

One pipeline is what a bmcut user runs on one instance file:
load -> solve to the stated tolerance -> certify (dual bound) -> round.
The benchmark drives it only through bmcut's public library API.  A run
solves a batch of instances drawn from the seed, in passes, for a set time.
Times are normalised to the reference speed of ``hostspeed``; each
instance's time is the median over its passes, and the batch's the
interquartile mean (mean of the middle half) over instances.  Quality is
summarised the same way over every instance's first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import statistics
import tracemalloc
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from hostspeed import REF_UNIT_S, Reference
from spans import Recorder, SpanTable, instrumented

# Correctness margins, as multiples of n |A|_1, the scale of f, U and the cut.
BOUND_MARGIN = 1e-8      # f <= U and cut <= U; eigsh runs at relative tol 1e-8
CERT_MARGIN = 2e-8       # U against the bound rebuilt from the reported lam: the
                         # program's eigsh tol 1e-8 on |lambda_max| <= 2 |A|_1
MONOTONE_MARGIN = 1e-12  # decrease tolerated between consecutive bcm records
REFERENCE_MARGIN = 1e-9  # f and the cut value against the benchmark's own matrix
GAIN_MARGIN = 1e-12      # escape gain against escape_ascent_floor

DENSE_REFERENCE_LIMIT = 300  # reference lambda_max: eigvalsh up to here, else
REFERENCE_EIG_TOL = 1e-12    # eigsh at this relative tolerance

REF_SHARE = 0.25         # reference-kernel time per pipeline, as a share
                         # of that pipeline's time
MAX_EPOCHS = 100_000     # far beyond any stop rule here; hitting it fails "status"
INDEX_BYTES = 4          # CSR column indices are int32 at these sizes


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str               # "gaussian" or "er"
    fmt: str                 # instance file format passed to load_instance
    n: int
    r: int
    instances: int           # instances per run, drawn from the seed
    traced: int              # leading instances rerun under tracing (--trace 1)
    method: str = "bcm"      # "bcm" (bmcut.run) or "bcm2" (bmcut.run_bcm2)
    rule: str = "cyclic"
    tol_factor: float = 0.0  # bcm stop rule: grad_tol = tol_factor * n * |A|_1^2
                             # (bcm2 ignores grad_tol)
    epsilon: float = 0.0     # bcm2 stop rule: the eps-concave verdict
    edges: int = 0
    sign: int = -1
    trials: int = 1000

    @property
    def status(self) -> str:
        """The solver status a correct run ends with."""
        return "concave" if self.method == "bcm2" else "converged"


WORKLOADS = {
    # Dense rows: each accepted step scatters (n-1) x r values, so the row
    # update kernel and the rounding matvec dominate; cyclic selection is O(1).
    "dense": Workload("dense", "gaussian", "matrix-market", n=240, r=22,
                      instances=18, traced=6, rule="cyclic", tol_factor=1e-6),
    # Degree ~6: per-step Python overhead, the O(n) greedy argmax and the
    # Python edge-list parser dominate.
    "sparse": Workload("sparse", "er", "edge-list", n=1000, r=45,
                       instances=12, traced=6, rule="greedy", tol_factor=2e-4,
                       edges=3000),
    # The all-equal start is first-order stationary, so Lanczos escape steps
    # must run before the concave verdict; greedy argmax spans only n rows.
    # The escape-step count, the step count and the final gap are
    # heavy-tailed across instances, hence many small instances.
    "escape": Workload("escape", "gaussian", "matrix-market", n=20, r=4,
                       instances=128, traced=16, method="bcm2", rule="greedy",
                       epsilon=0.01),
}


@dataclass(frozen=True)
class Instance:
    """Instance ``index`` of the batch drawn from ``seed``, and its file."""

    seed: int
    index: int
    path: str

    def matrix(self, w: Workload) -> sp.csr_array:
        return make_matrix(w, self.seed, self.index)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index, stream])

    def int_seed(self, stream: int) -> int:
        seq = np.random.SeedSequence([self.seed, self.index, stream])
        return int(seq.generate_state(1)[0])


def make_matrix(w: Workload, seed: int, k: int) -> sp.csr_array:
    """The benchmark's own draw of instance k: symmetric, zero diagonal."""
    rng = np.random.default_rng([seed, k])
    n = w.n
    if w.graph == "gaussian":
        g = rng.standard_normal((n, n))
        a = (g + g.T) / n
        np.fill_diagonal(a, 0.0)
        return sp.csr_array(a)
    flat = np.sort(rng.choice(n * (n - 1) // 2, size=w.edges, replace=False))
    # pair (i, j), i < j, has flat index starts[i] + (j - i - 1)
    idx = np.arange(n, dtype=np.int64)
    starts = idx * (n - 1) - idx * (idx - 1) // 2
    i = np.searchsorted(starts, flat, side="right") - 1
    j = i + 1 + (flat - starts[i])
    vals = np.full(2 * w.edges, float(w.sign))
    return sp.csr_array((vals, (np.concatenate([i, j]), np.concatenate([j, i]))),
                        shape=(n, n))


def write_inputs(w: Workload, seed: int, workdir: str) -> list[Instance]:
    """Write the batch of instance files; done before any clock starts."""
    out = []
    for k in range(w.instances):
        a = make_matrix(w, seed, k)
        if w.fmt == "matrix-market":
            path = os.path.join(workdir, f"{w.name}-{k}.mtx")
            scipy.io.mmwrite(path, sp.coo_array(a), symmetry="symmetric")
        else:
            path = os.path.join(workdir, f"{w.name}-{k}.txt")
            upper = sp.coo_array(sp.triu(a, k=1))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# {w.n} nodes, {upper.nnz} edges\n")
                fh.writelines(f"{i + 1} {j + 1} {v:g}\n"
                              for i, j, v in zip(upper.row, upper.col, upper.data))
        out.append(Instance(seed, k, path))
    return out


@dataclass
class Outcome:
    """One pipeline's outputs, reduced to what the checks and metrics need."""

    times: dict              # setup, solve, certify, round (s)
    status: str
    f_trace: np.ndarray      # f_raw on the bcm records of the solver trace
    f: float                 # objective at the final point, fresh cache
    upper: float             # dual upper bound U
    lam: np.ndarray          # the certificate's multipliers
    slack: float             # its estimate of lambda_max(A - Diag(lam))
    cut: float               # best rounded cut value
    steps: int               # coordinate steps
    epochs: float            # coordinate steps / n
    gains: np.ndarray        # escape gains
    floor: float             # escape_ascent_floor (0 for bcm)
    digest: str              # sha256 of the final factor's bytes
    sigma: np.ndarray | None
    signs: np.ndarray | None
    slowdown: float = 1.0    # host slowdown the pipeline ran under (hostspeed)

    @property
    def rel_gap(self) -> float:
        return (self.upper - self.f) / abs(self.upper)

    @property
    def cut_ratio(self) -> float:
        return self.cut / self.upper


def no_span(_name: str):
    return contextlib.nullcontext()


def pipeline(bmcut, w: Workload, inst_in: Instance, span=no_span) -> Outcome:
    """load -> solve -> certify -> round on one instance file."""
    t0 = perf_counter()
    with span("problem.build"):
        inst = bmcut.load_instance(inst_in.path, w.fmt)
    with span("manifold.initial_point"):
        if w.method == "bcm2":
            start = np.zeros((inst.n, w.r))
            start[:, 0] = 1.0
            point = bmcut.FactorPoint(start)
        else:
            point = bmcut.random_point(inst.n, w.r, inst_in.rng(0))
    t1 = perf_counter()
    with span("bcm.loop"):
        cfg = bmcut.SolverConfig(
            rule=w.rule, max_epochs=MAX_EPOCHS, seed=inst_in.int_seed(1),
            grad_tol=w.tol_factor * inst.n * inst.one_norm**2)
        if w.method == "bcm2":
            esc = bmcut.EscapeConfig(epsilon=w.epsilon, seed=inst_in.int_seed(2))
            point, trace = bmcut.run_bcm2(inst, cfg, esc, initial=point)
        else:
            point, trace = bmcut.run(inst, cfg, initial=point)
    t2 = perf_counter()
    with span("bcm.init_cache"):
        cache = bmcut.init_cache(inst, point)
    with span("certify.dual_bound"):
        cert = bmcut.dual_upper_bound(inst, point, cache)
    t3 = perf_counter()
    with span("certify.round"):
        cut = bmcut.round_cut(inst, point, w.trials, inst_in.rng(3))
    t4 = perf_counter()

    steps = sum(r.steps for r in trace.records if r.kind == "bcm")
    gains = np.asarray([r.escape_gain for r in trace.records
                        if r.kind == "escape"], dtype=np.float64)
    floor = bmcut.escape_ascent_floor(inst, w.epsilon) if w.epsilon else 0.0
    return Outcome(
        times={"setup": t1 - t0, "solve": t2 - t1, "certify": t3 - t2,
               "round": t4 - t3},
        status=trace.status, f_trace=trace.f_values(kind="bcm"),
        f=cache.objective(), upper=cert.upper_bound, lam=cert.lam,
        slack=cert.slack, cut=cut.value,
        steps=steps, epochs=steps / inst.n, gains=gains, floor=floor,
        digest=hashlib.sha256(point.sigma.tobytes()).hexdigest(),
        sigma=point.sigma, signs=cut.signs)


def reference_lambda_max(a: sp.csr_array, lam: np.ndarray) -> float:
    """lambda_max(A - Diag(lam)) from the benchmark's own matrix."""
    m = a - sp.diags_array(lam)
    if a.shape[0] <= DENSE_REFERENCE_LIMIT:
        return float(scipy.linalg.eigvalsh(m.toarray())[-1])
    return float(scipy.sparse.linalg.eigsh(
        m, k=1, which="LA", tol=REFERENCE_EIG_TOL,
        return_eigenvectors=False)[0])


def check(w: Workload, a: sp.csr_array, out: Outcome) -> dict[str, bool]:
    """Correctness of one pipeline, judged against the benchmark's own matrix."""
    scale = max(1.0, w.n * float(abs(a).sum(axis=0).max()))
    f_ref = float(np.sum(out.sigma * (a @ out.sigma)))
    x = out.signs
    cut_ref = float(x @ (a @ x))
    upper_ref = float(out.lam.sum()
                      + w.n * max(reference_lambda_max(a, out.lam), 0.0))
    return {
        "status": out.status == w.status,
        "trace_monotone": bool(np.all(np.diff(out.f_trace)
                                      >= -MONOTONE_MARGIN * scale)),
        "f_le_bound": out.f <= out.upper + BOUND_MARGIN * scale,
        "cut_le_bound": out.cut <= out.upper + BOUND_MARGIN * scale,
        "bound_covers_reference": out.upper >= upper_ref - CERT_MARGIN * scale,
        "escape_gain_floor": bool(np.all(out.gains
                                         >= out.floor - GAIN_MARGIN * scale)),
        "f_matches_reference": abs(out.f - f_ref) <= REFERENCE_MARGIN * scale,
        "cut_matches_reference": (bool(np.all(np.abs(x) == 1.0))
                                  and abs(out.cut - cut_ref)
                                  <= REFERENCE_MARGIN * scale),
    }


class Tally:
    """Correctness checks attempted, and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results: dict[str, bool], where: str) -> None:
        self.attempted += len(results)
        self.failed += [f"{where}:{k}" for k, ok in results.items() if not ok]


def iq_mean(values) -> float:
    """Mean of the middle half of the sorted values (all of them if < 4)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    drop = len(v) // 4
    return float(v[drop:len(v) - drop].mean())


def collect(bmcut, w: Workload, inputs: list[Instance], seconds: float,
            tally: Tally, ref: Reference) -> list[list[Outcome]]:
    """Untraced, checked pipelines: the outcomes of each instance, in order.

    Passes go round the batch until the next pipeline would end after
    ``seconds``; the first pass is always whole.  The reference kernel runs
    between consecutive pipelines for ``REF_SHARE`` of the previous one's
    time, and each outcome records the slowdown its pipeline ran under.
    Every pipeline is checked, and every later pass must return the point
    of the first, byte for byte.
    """
    warm = pipeline(bmcut, w, inputs[0])   # first-call imports, untimed
    runs: list[list[Outcome]] = [[] for _ in inputs]
    cost = [0.0] * len(inputs)      # wall time of each instance's last turn
    deadline = perf_counter() + seconds
    before = ref.seconds_per_unit(REF_SHARE * sum(warm.times.values()))
    for k in itertools.count():
        inst_in = inputs[k % len(inputs)]
        outs = runs[inst_in.index]
        start = perf_counter()
        if k >= len(inputs) and start + cost[inst_in.index] > deadline:
            break
        out = pipeline(bmcut, w, inst_in)
        after = ref.seconds_per_unit(REF_SHARE * sum(out.times.values()))
        out.slowdown = (before + after) / 2 / REF_UNIT_S
        before = after
        result = check(w, inst_in.matrix(w), out)
        if outs:
            result["rerun_identical"] = out.digest == outs[0].digest
        tally.add(result, f"{w.name}[{inst_in.index}]")
        outs.append(replace(out, sigma=None, signs=None, lam=None))
        cost[inst_in.index] = perf_counter() - start
    return runs


def peak_alloc_mb(bmcut, w: Workload, inst_in: Instance, first: Outcome,
                  tally: Tally) -> float:
    """Peak memory allocated during one more, untimed pipeline on ``inst_in``.

    tracemalloc counts every Python and numpy allocation, so the figure is
    bmcut's working set alone, without the interpreter and the imports.  The
    pipeline must return the point of ``first``, the instance's first pass.
    """
    tracemalloc.start()
    try:
        out = pipeline(bmcut, w, inst_in)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = check(w, inst_in.matrix(w), out)
    result["rerun_identical"] = out.digest == first.digest
    tally.add(result, f"{w.name}[{inst_in.index}].alloc")
    return peak / 1e6


def summarize(runs: list[list[Outcome]]) -> dict[str, float]:
    """End-to-end time and quality metrics from the outcomes of ``collect``.

    A time is the phase's wall time divided by the slowdown its pipeline ran
    under.  Each instance's time for a phase is the median over its passes;
    the batch's is the interquartile mean over instances.  Quality comes
    from the first pass of every instance.
    """
    def per_instance(phase):
        return [statistics.median(o.times[phase] / o.slowdown for o in outs)
                for outs in runs]

    def total(o):
        return sum(o.times.values()) / o.slowdown

    solve = per_instance("solve")
    first = [outs[0] for outs in runs]
    return {
        # Set-up times are summarised by their median over every pass, as
        # the benchmark contract asks; the other times use the IQM, which
        # does not jump when a count such as epochs = 18 or 19 splits the
        # batch in half.
        "setup_s": statistics.median(o.times["setup"] / o.slowdown
                                     for outs in runs for o in outs),
        "solve_s": iq_mean(solve),
        "certify_s": iq_mean(per_instance("certify")),
        "round_s": iq_mean(per_instance("round")),
        "time_to_solution_s": iq_mean(
            [statistics.median(map(total, outs)) for outs in runs]),
        "steps_per_s": iq_mean([o.steps / t for o, t in zip(first, solve)]),
        "rel_gap": iq_mean([o.rel_gap for o in first]),
        "cut_ratio": iq_mean([o.cut_ratio for o in first]),
    }


def wall_summary(runs: list[list[Outcome]]) -> dict[str, float]:
    """The un-normalised counterparts of the time metrics, for the record."""
    outs = [o for inst in runs for o in inst]
    return {"passes": len(outs),
            "slowdown_median": statistics.median(o.slowdown for o in outs),
            "solve_wall_s": iq_mean([statistics.median(o.times["solve"]
                                                       for o in inst)
                                     for inst in runs])}


def measure(bmcut, w: Workload, inputs: list[Instance], seconds: float,
            tally: Tally, record: dict | None = None) -> dict[str, float]:
    """End-to-end metrics from untraced passes over the batch.

    ``record``, when given, receives the figures of ``wall_summary``.
    """
    runs = collect(bmcut, w, inputs, seconds, tally, Reference())
    if record is not None:
        record.update(wall_summary(runs))
    # Memory is measured on the instance with the median step count: on
    # escape the working set grows with the solver trace, whose length
    # varies tenfold across instances.
    by_steps = sorted(inputs, key=lambda i: (runs[i.index][0].steps, i.index))
    typical = by_steps[len(by_steps) // 2]
    return summarize(runs) | {
        "peak_alloc_mb": peak_alloc_mb(bmcut, w, typical, runs[typical.index][0],
                                       tally)}


def trace_targets(bmcut):
    """(module, attribute, span name, info) for every wrapped public function.

    Each function is patched in every module that looks it up, because
    ``escape`` imported its own references to the ``bcm`` and ``manifold``
    functions.
    """
    def step_info(args, out):
        return args[3], out > 0.0

    def lanczos_info(args, out):
        return out.iterations, out.exhausted, out.tri.basis.nbytes

    targets = []
    for module in (bmcut.bcm, bmcut.escape):
        targets += [(module, "select_coordinate", "bcm.select", None),
                    (module, "bcm_step", "bcm.step", step_info),
                    (module, "refresh_cache", "bcm.refresh", None),
                    (module, "grad_metric_sq", "manifold.grad_metric_sq", None)]
    targets += [(bmcut.escape, "lanczos_leading", "escape.lanczos", lanczos_info),
                (bmcut.escape, "hess_quadratic", "escape.hess_quadratic", None),
                (bmcut.escape, "second_order_step", "escape.step", None),
                (bmcut.certify, "cut_value", "certify.cut_value", None)]
    return targets


def measure_traced(bmcut, w: Workload, inputs: list[Instance], tally: Tally,
                   spans_path: str | None = None) -> dict[str, float]:
    """Per-layer metrics: each of the first ``w.traced`` instances runs once
    untraced and once with spans; layer numbers are means per instance."""
    rec = Recorder()
    targets = trace_targets(bmcut)
    originals = [getattr(m, attr) for m, attr, _, _ in targets]
    pipeline(bmcut, w, inputs[0])   # first-call imports and caches, untimed
    traced_inputs = inputs[:w.traced]
    outs, overhead, wall = [], [], 0.0
    for inst_in in traced_inputs:
        plain = pipeline(bmcut, w, inst_in)
        rec.run = inst_in.index
        with instrumented(rec, targets):
            t0 = perf_counter()
            with rec.span("pipeline"):
                traced = pipeline(bmcut, w, inst_in, rec.span)
            wall += perf_counter() - t0
        a = inst_in.matrix(w)
        where = f"{w.name}[{inst_in.index}]"
        tally.add(check(w, a, plain), where + ".untraced")
        result = check(w, a, traced)
        result["traced_point_identical"] = traced.digest == plain.digest
        tally.add(result, where + ".traced")
        overhead.append(traced.times["solve"] - plain.times["solve"])
        outs.append(traced)
    table = SpanTable(rec.rows)
    tally.add({
        "patches_restored": all(getattr(m, attr) is orig for (m, attr, _, _), orig
                                in zip(targets, originals)),
        "self_times_add_up": abs(table.total_self_s() - wall) <= 1e-3 * wall,
    }, f"{w.name}.spans")
    if spans_path is not None:
        rec.save(spans_path)
    degrees = {i.index: np.diff(i.matrix(w).indptr) for i in traced_inputs}
    return layer_metrics(table, w, outs, degrees, overhead, wall)


def layer_metrics(table, w: Workload, outs: list[Outcome], degrees: dict,
                  overhead: list[float], wall: float) -> dict[str, float]:
    """Per-layer counts, self times, percentiles and ratios, per instance."""
    t = len(outs)
    calls = {name: table.calls(name) / t for name in (
        "bcm.step", "bcm.select", "manifold.grad_metric_sq", "bcm.refresh",
        "escape.lanczos", "escape.step", "certify.cut_value")}
    self_s = {name: table.self_s(name) / t for name in (
        "bcm.step", "bcm.select", "manifold.grad_metric_sq", "bcm.refresh",
        "bcm.loop", "escape.lanczos", "escape.step", "escape.hess_quadratic",
        "certify.dual_bound", "certify.round", "certify.cut_value")}

    # Row updates: bytes computed from array sizes, not measured traffic.
    scattered, nbytes, accepted = 0, 0, 0
    for run_id, deg in degrees.items():
        info = table.info("bcm.step", run_id)
        if not info:
            continue
        rows = np.asarray([i for i, _ in info], dtype=np.int64)
        ok = np.asarray([acc for _, acc in info], dtype=bool)
        d = deg[rows[ok]]
        accepted += int(ok.sum())
        scattered += int(d.sum())
        nbytes += int(np.sum(8 * (3 * w.r + d * (3 * w.r + 3)) + INDEX_BYTES * d))
        nbytes += 16 * int((~ok).sum())
    gbytes = nbytes / 1e9 / t

    lanczos = table.info("escape.lanczos")
    iterations = sum(it for it, _, _ in lanczos)
    round_s = table.duration_s("certify.round") / t

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "bcm.step.calls": calls["bcm.step"],
        "bcm.step.self_s": self_s["bcm.step"],
        "bcm.step.p50_us": table.percentile_us("bcm.step", 50),
        "bcm.step.p99_us": table.percentile_us("bcm.step", 99),
        "bcm.step.accept_ratio": ratio(accepted, table.calls("bcm.step")),
        "bcm.step.rows_scattered": scattered / t,
        "bcm.step.gbytes_computed": gbytes,
        "bcm.step.gb_per_s": ratio(gbytes, self_s["bcm.step"]),
        "bcm.select.calls": calls["bcm.select"],
        "bcm.select.self_s": self_s["bcm.select"],
        "bcm.select.p50_us": table.percentile_us("bcm.select", 50),
        "bcm.select.p99_us": table.percentile_us("bcm.select", 99),
        "manifold.grad_metric_sq.calls": calls["manifold.grad_metric_sq"],
        "manifold.grad_metric_sq.self_s": self_s["manifold.grad_metric_sq"],
        "bcm.refresh.calls": calls["bcm.refresh"],
        "bcm.refresh.self_s": self_s["bcm.refresh"],
        "bcm.epochs": sum(o.epochs for o in outs) / t,
        "bcm.steps": sum(o.steps for o in outs) / t,
        "bcm.loop.self_s": self_s["bcm.loop"],
        "escape.lanczos.calls": calls["escape.lanczos"],
        "escape.lanczos.self_s": self_s["escape.lanczos"],
        "escape.lanczos.iterations": iterations / t,
        "escape.lanczos.us_per_iter": ratio(table.self_s("escape.lanczos") * 1e6,
                                            iterations),
        "escape.lanczos.exhausted": sum(ex for _, ex, _ in lanczos) / t,
        "escape.lanczos.accept_ratio": ratio(calls["escape.step"],
                                             calls["escape.lanczos"]),
        "escape.lanczos.basis_mb": max((b for _, _, b in lanczos), default=0) / 1e6,
        "escape.steps": sum(len(o.gains) for o in outs) / t,
        "escape.step.self_s": self_s["escape.step"],
        "escape.hess_quadratic.self_s": self_s["escape.hess_quadratic"],
        "problem.build_s": table.duration_s("problem.build") / t,
        "certify.dual_bound.self_s": self_s["certify.dual_bound"],
        "certify.round.self_s": self_s["certify.round"],
        "certify.cut_value.calls": calls["certify.cut_value"],
        "certify.cut_value.self_s": self_s["certify.cut_value"],
        "certify.round.trials_per_s": ratio(w.trials, round_s),
        "trace.overhead_s": sum(overhead) / t,
        "trace.pipeline_s": wall / t,
    }
