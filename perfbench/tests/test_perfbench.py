"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
import bmcut  # noqa: E402
from spans import Recorder, SpanTable, instrumented  # noqa: E402

TINY = {
    "dense": replace(bench.WORKLOADS["dense"], n=30, r=8, instances=3, traced=2),
    "sparse": replace(bench.WORKLOADS["sparse"], n=200, r=20, edges=600,
                      instances=3, traced=2),
    "escape": replace(bench.WORKLOADS["escape"], n=8, r=3, instances=3, traced=2),
}


def declared(group):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[group]}


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_emitted(name, tmp_path):
    w = TINY[name]
    inputs = bench.write_inputs(w, 0, str(tmp_path))
    tally = bench.Tally()
    e2e = bench.measure(bmcut, w, inputs, 0.01, tally)
    layers = bench.measure_traced(bmcut, w, inputs, tally)
    assert set(e2e) == declared("end_to_end")
    assert set(layers) == declared("per_layer")
    assert tally.failed == [] and tally.attempted > 0
    assert all(np.isfinite(v) for v in (*e2e.values(), *layers.values()))
    assert e2e["rel_gap"] > 0 and e2e["cut_ratio"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_changes_instance_checksum(name, tmp_path):
    w = TINY[name]

    def checksum(seed, sub):
        (tmp_path / sub).mkdir()
        inp = bench.write_inputs(w, seed, str(tmp_path / sub))[0]
        return bmcut.load_instance(inp.path, w.fmt).checksum()

    first = checksum(0, "a")
    assert checksum(0, "b") == first
    assert checksum(1, "c") != first


def tiny_outcome(tmp_path, name="escape"):
    w = TINY[name]
    inp = bench.write_inputs(w, 3, str(tmp_path))[0]
    return w, inp.matrix(w), bench.pipeline(bmcut, w, inp)


def underestimated_slack(o):
    """The bound a certificate would report with half its lambda_max."""
    slack = o.slack / 2
    return replace(o, slack=slack,
                   upper=float(o.lam.sum() + len(o.lam) * max(slack, 0.0)))


@pytest.mark.parametrize("corrupt, failed_checks", [
    (lambda o: replace(o, upper=o.f - 1e-3),
     {"f_le_bound", "bound_covers_reference"}),
    (underestimated_slack, {"bound_covers_reference"}),
    (lambda o: replace(o, cut=o.cut + 1e-3), {"cut_matches_reference"}),
    (lambda o: replace(o, status="max_epochs"), {"status"}),
    (lambda o: replace(o, f_trace=o.f_trace[::-1].copy()), {"trace_monotone"}),
    (lambda o: replace(o, gains=o.gains * 0 + o.floor / 2), {"escape_gain_floor"}),
])
def test_corrupted_result_is_a_failed_op(tmp_path, corrupt, failed_checks):
    w, a, out = tiny_outcome(tmp_path)
    assert len(out.gains) > 0 and np.ptp(out.f_trace) > 0 and out.slack > 0
    tally = bench.Tally()
    tally.add(bench.check(w, a, out), "ok")
    assert tally.failed == []
    tally.add(bench.check(w, a, corrupt(out)), "bad")
    assert set(tally.failed) == {f"bad:{c}" for c in failed_checks}
    assert tally.attempted == 2 * len(bench.check(w, a, out))


@pytest.mark.parametrize("name", ["dense", "sparse"])
@pytest.mark.parametrize("dense_limit", [0, 10**6])   # eigsh, then eigvalsh
def test_reference_lambda_max_is_exact(name, dense_limit, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "DENSE_REFERENCE_LIMIT", dense_limit)
    w = TINY[name]
    a = bench.write_inputs(w, 0, str(tmp_path))[0].matrix(w)
    lam = np.random.default_rng(0).standard_normal(w.n)
    exact = np.linalg.eigvalsh(a.toarray() - np.diag(lam))[-1]
    assert bench.reference_lambda_max(a, lam) == pytest.approx(exact, abs=1e-9)


def test_self_times_add_up_and_patches_are_restored():
    import time

    class Module:
        pass

    mod = Module()
    mod.leaf = lambda: time.sleep(0.002)

    def parent():
        mod.leaf()
        mod.leaf()

    mod.parent = parent
    original_leaf = mod.leaf
    rec = Recorder()
    targets = [(mod, "leaf", "leaf", None), (mod, "parent", "parent", None)]
    with pytest.raises(RuntimeError):
        with instrumented(rec, targets):
            with rec.span("root"):
                mod.parent()
            raise RuntimeError("patches must come off on errors too")
    assert mod.leaf is original_leaf and mod.parent is parent
    table = SpanTable(rec.rows)
    assert table.calls("leaf") == 2 and table.calls("parent") == 1
    assert table.total_self_s() == pytest.approx(table.duration_s("root"),
                                                 rel=1e-12)
    assert table.self_s("leaf") == pytest.approx(table.duration_s("leaf"))
    assert table.self_s("parent") < table.duration_s("parent") - 0.003


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "escape",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_divided_by_the_slowdown(tmp_path):
    _, _, out = tiny_outcome(tmp_path)
    times = {"setup": 0.1, "solve": 0.4, "certify": 0.2, "round": 0.3}
    plain = bench.summarize([[replace(out, times=times)]])
    slowed = bench.summarize([[replace(out, times={k: 2 * v for k, v
                                                    in times.items()},
                                       slowdown=2.0)]])
    assert slowed == pytest.approx(plain, rel=1e-12)
    assert plain["time_to_solution_s"] == pytest.approx(1.0)


def test_reference_unit_time_is_positive_and_repeatable():
    from hostspeed import Reference

    a, b = Reference(), Reference()
    assert a.unit() == b.unit()
    assert a.seconds_per_unit(0.0) > 0
