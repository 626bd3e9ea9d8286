"""The benchmark's seams: the per-layer spans patch bmcut module attributes
by name, and each workload's pipeline must pass the benchmark's own checks.

perfbench/tests is not part of this suite, and runs at tiny sizes, so these
tests keep a rename or a deletion of a patched function, a change that breaks
one of the spans' info callbacks, or a change that fails a correctness check
at a workload's real size, from passing here and failing only when the
benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import bmcut

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402


def test_trace_targets_resolve_to_callables():
    targets = bench.trace_targets(bmcut)
    assert targets
    for module, attr, span, _info in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span}) is gone"


def test_info_callbacks_on_real_calls():
    # the all-equal start is stationary, so the first bcm2 run calls bcm_step
    # and takes escape steps; the second, at r = 2 from a random start, ends
    # at a full-rank point where the escape falls through to lanczos_leading
    n, r = 20, 4
    inst = bmcut.gen_gaussian(n, 8)
    start = np.zeros((n, r))
    start[:, 0] = 1.0
    targets = bench.trace_targets(bmcut)
    rec = spans.Recorder()
    cfg = bmcut.SolverConfig(rule="greedy", seed=1)
    esc = bmcut.EscapeConfig(epsilon=0.01, seed=2)
    with spans.instrumented(rec, targets):
        rec.run = r   # each span records the rank of its run
        _, trace = bmcut.run_bcm2(inst, cfg, esc,
                                  initial=bmcut.FactorPoint(start))
        rec.run = 2
        _, fallback = bmcut.run_bcm2(inst, cfg, esc, r=2)
    assert trace.header["escape_steps"] >= 1
    assert fallback.status == "concave"
    assert fallback.header["lanczos_calls"] >= 1
    infos, ranks = {}, {}
    for row in rec.rows:
        infos.setdefault(row[spans.NAME], []).append(row[spans.INFO])
        ranks.setdefault(row[spans.NAME], []).append(row[spans.RUN])
    for _module, _attr, span, info in targets:
        if info is not None:
            assert infos.get(span), f"span {span} was never recorded"
            assert all(x is not None for x in infos[span]), span

    for i, accepted in infos["bcm.step"]:
        assert 0 <= i < n and isinstance(accepted, bool)
    assert any(accepted for _, accepted in infos["bcm.step"])
    for (iterations, exhausted, nbytes), rank in zip(infos["escape.lanczos"],
                                                     ranks["escape.lanczos"]):
        assert 1 <= iterations <= n * (rank - 1)
        assert isinstance(exhausted, bool)
        assert nbytes == iterations * n * rank * 8


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_passes_the_benchmark_checks(name, tmp_path):
    # the first instance of seed 0, at the workload's own size and settings
    w = bench.WORKLOADS[name]
    inputs = bench.write_inputs(w, 0, str(tmp_path))
    out = bench.pipeline(bmcut, w, inputs[0])
    checks = bench.check(w, inputs[0].matrix(w), out)
    assert out.status == w.status
    assert all(checks.values()), sorted(k for k, ok in checks.items() if not ok)
