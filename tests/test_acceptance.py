"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import bmcut
from bmcut import FactorPoint, bcm, certify, cli, escape, manifold

import oracles


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {desc} "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\n[PASS] criterion {num}: {desc} "
          f"({time.perf_counter() - start:.1f}s)")


def acceptance_corpus():
    """20 instances: n in {10, 50, 200}, Gaussian and signed Erdos-Renyi."""
    out = []
    for n in (10, 50, 200):
        for s in (0, 1):
            out.append(bmcut.gen_gaussian(n, seed=17 * n + s))
            out.append(bmcut.gen_erdos_renyi(
                n, 3 * n, sign=-1 if s == 0 else 1, seed=23 * n + s))
    for n in (10, 50):
        out.append(bmcut.gen_gaussian(n, seed=31 * n))
        out.append(bmcut.gen_erdos_renyi(n, 2 * n, sign=-1, seed=37 * n))
    for n in (10, 50, 200):
        out.append(bmcut.gen_erdos_renyi(n, n, sign=1, seed=41 * n))
    out.append(bmcut.gen_gaussian(200, seed=43))
    assert len(out) == 20
    return out


def default_rank(n):
    return max(2, math.ceil(math.sqrt(2 * n)))


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def triangle():
    return bmcut.preprocess(-(np.ones((3, 3)) - np.eye(3)))


@pytest.fixture(scope="module")
def saddle_bcm2_trace(triangle):
    """BCM2 started exactly at the all-equal stationary point (criteria 5, 6)."""
    start = FactorPoint(np.tile([1.0, 0.0], (3, 1)))
    cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000_000, seed=1)
    esc = escape.EscapeConfig(epsilon=0.01, seed=2)
    return escape.run_bcm2(triangle, cfg, esc, initial=start)


@pytest.fixture(scope="module")
def escape_heavy_traces(triangle, saddle_bcm2_trace):
    """(instance, trace) pairs from runs that take second-order steps.

    All-equal starts are first-order stationary for any instance, so each run
    must go through the escape branch before coordinate steps can move.
    """
    pairs = [(triangle, saddle_bcm2_trace[1])]
    for k in range(5):
        inst = bmcut.gen_erdos_renyi(10, 20, sign=-1, seed=500 + k)
        start = FactorPoint(np.tile([1.0, 0.0], (10, 1)))
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=100_000, seed=k)
        esc = escape.EscapeConfig(epsilon=0.05, seed=100 + k)
        _, trace = escape.run_bcm2(inst, cfg, esc, initial=start)
        pairs.append((inst, trace))
    return pairs


def test_criterion_1_exact_ascent_identity(corpus):
    with criterion(1, "exact ascent identity over 1e5 steps, tol 1e-8"):
        steps_per_run = 1250
        total = 0
        worst = 0.0
        for inst in corpus:
            r = default_rank(inst.n)
            for rule in bcm.RULES:
                rng = np.random.default_rng(inst.n + hash(rule) % 1000)
                point = manifold.random_point(inst.n, r, rng)
                cache = bcm.init_cache(inst, point)
                for step in range(steps_per_run):
                    if step % 100 == 0:  # from-scratch resync
                        bcm.refresh_cache(inst, point, cache)
                    f_before = cache.objective()
                    i = bcm.select_coordinate(rule, cache, rng, step=step)
                    predicted = bcm.bcm_step(inst, point, cache, i)
                    err = abs((cache.objective() - f_before) - predicted)
                    worst = max(worst, err)
                    assert err <= 1e-8
                total += steps_per_run
        assert total == 100_000
        print(f"  worst |measured - predicted| = {worst:.2e}", end="")


def test_criterion_2_greedy_bound_and_envelope(corpus):
    with criterion(2, "greedy per-step bound and K-epoch envelope"):
        for inst in corpus:
            n = inst.n
            r = default_rank(n)
            rng = np.random.default_rng(n + 5)
            point = manifold.random_point(n, r, rng)
            cache = bcm.init_cache(inst, point)
            f0 = cache.objective()
            epoch_metrics = []
            epochs = 10
            for e in range(epochs):
                epoch_metrics.append(manifold.grad_metric_sq(cache))
                for s in range(n):
                    metric = manifold.grad_metric_sq(cache)
                    i = bcm.select_coordinate("greedy", cache, rng)
                    ascent = bcm.bcm_step(inst, point, cache, i)
                    if inst.one_norm > 0:
                        assert ascent >= metric / (2 * n * inst.one_norm) - 1e-9
            if inst.one_norm == 0:
                continue
            cert = certify.dual_upper_bound(inst, point, cache)
            u = cert.upper_bound
            running_min = np.minimum.accumulate(epoch_metrics)
            for k in range(1, epochs + 1):
                bound = 2 * n * inst.one_norm * (u - f0) / k
                assert running_min[k - 1] <= bound + 1e-9


def test_criterion_3_geometry_against_differences():
    with criterion(3, "gradient and curvature match finite differences"):
        t = 1e-4
        rng = np.random.default_rng(77)
        for pair in range(100):
            inst = bmcut.gen_gaussian(20, seed=pair % 10)
            point = manifold.random_point(20, 5, rng)
            cache = bcm.init_cache(inst, point)
            tv = oracles.random_tangent(point, rng)
            fp = oracles.f_dense(inst, manifold.exp_map(point, tv, t).sigma)
            fm = oracles.f_dense(inst, manifold.exp_map(point, -tv, t).sigma)
            f0 = oracles.f_dense(inst, point.sigma)

            lin = float(np.sum(tv * manifold.riemannian_gradient(point, cache)))
            assert abs((fp - fm) / (2 * t) - lin) <= 1e-4

            quad = manifold.hess_quadratic(inst, point, tv, cache)
            assert abs((fp - 2 * f0 + fm) / t**2 - quad) <= 1e-4


def test_criterion_4_lanczos_vs_dense_oracle():
    with criterion(4, "Lanczos matches dense oracle (full and partial budget)"):
        base = 7
        hits = 0
        for s in range(50):
            inst = bmcut.gen_gaussian(15, seed=base * 1000 + s)
            point = manifold.random_point(
                15, 4, np.random.default_rng(base * 2000 + s + 1))
            cache = bcm.init_cache(inst, point)
            h = oracles.dense_tangent_hessian(inst, point.sigma)
            top = float(np.linalg.eigvalsh(h)[-1])

            full = escape.lanczos_leading(
                inst, point, cache, 45, np.random.default_rng(base * 3000 + s))
            assert abs(full.estimate - top) <= 1e-8

            part = escape.lanczos_leading(
                inst, point, cache, 15,
                np.random.default_rng(base * 3000 + s + 2))
            if abs(part.estimate - top) <= 0.01 * abs(top):
                hits += 1
        assert hits >= 45
        print(f"  partial-budget hits: {hits}/50", end="")


def test_criterion_5_saddle_escape(triangle, saddle_bcm2_trace):
    with criterion(5, "BCM stalls at the triangle saddle, BCM2 escapes"):
        start = FactorPoint(np.tile([1.0, 0.0], (3, 1)))
        cache = bcm.init_cache(triangle, start)
        assert manifold.grad_metric_sq(cache) == 0.0
        assert cache.objective() == -6.0

        cfg = bcm.SolverConfig(rule="greedy", max_epochs=100, grad_tol=0.0,
                               seed=0)
        _, bcm_trace = bcm.run(triangle, cfg, initial=start)
        assert all(rec.f_raw == -6.0 for rec in bcm_trace.records)
        assert sum(rec.steps for rec in bcm_trace.records) == 0

        grid_opt = oracles.triangle_angular_max(resolution=1e-3)
        assert grid_opt == pytest.approx(3.0, abs=1e-5)

        point, trace = saddle_bcm2_trace
        assert trace.status == "concave"
        assert trace.final().f_raw >= 2.9
        # the grid undershoots the continuum optimum by O(resolution^2)
        assert trace.final().f_raw <= grid_opt + 1e-4
        used = trace.header["bcm_epochs"] + trace.header["escape_steps"]
        assert used <= trace.header["epoch_cap"]
        print(f"  bcm2 terminal f = {trace.final().f_raw:.6f}", end="")


def test_criterion_6_second_order_ascent_floor(escape_heavy_traces):
    with criterion(6, "every accepted escape step gains the cubic floor"):
        total_escapes = 0
        for inst, trace in escape_heavy_traces:
            floor = escape.escape_ascent_floor(inst, trace.header["epsilon"])
            for rec in trace.records:
                if rec.kind != "escape":
                    continue
                total_escapes += 1
                assert rec.escape_gain >= floor - 1e-9
        assert total_escapes >= 3
        print(f"  escape steps checked: {total_escapes}", end="")


def test_criterion_7_global_optimality_full_rank():
    with criterion(7, "dual gap <= 1e-3 and cross-rule/restart agreement"):
        for k in range(10):
            inst = bmcut.gen_gaussian(40, seed=700 + k)
            tight = 1e-13 * inst.n * inst.one_norm**2

            cfg = bcm.SolverConfig(rule="greedy", max_epochs=5000, seed=50 + k)
            esc = escape.EscapeConfig(epsilon=0.01, seed=60 + k)
            p2, t2 = escape.run_bcm2(inst, cfg, esc, r=9)
            assert t2.status == "concave"
            cache = bcm.init_cache(inst, p2)
            cert = certify.dual_upper_bound(inst, p2, cache)
            assert cert.gap / max(1.0, abs(cert.upper_bound)) <= 1e-3

            finals = [cache.objective()]
            for j, rule in enumerate(bcm.RULES):
                c = bcm.SolverConfig(rule=rule, max_epochs=5000,
                                     grad_tol=tight, seed=1000 + 10 * k + j)
                _, tr = bcm.run(inst, c, r=9)
                finals.append(tr.final().f_raw)
            for j in range(5):
                c = bcm.SolverConfig(rule="cyclic", max_epochs=5000,
                                     grad_tol=tight, seed=2000 + 10 * k + j)
                _, tr = bcm.run(inst, c, r=9)
                finals.append(tr.final().f_raw)
            finals = np.asarray(finals)
            spread = (finals.max() - finals.min()) / np.abs(finals).max()
            assert spread <= 1e-4


def test_criterion_8_rounding_sandwich():
    with criterion(8, "round_cut <= brute force <= dual bound; 7/10 attained"):
        attained = 0
        for k in range(10):
            n = 12 + (k % 5) * 2
            sign = -1 if k < 5 else 1
            inst = bmcut.gen_erdos_renyi(n, 2 * n, sign, seed=300 + k)
            cfg = bcm.SolverConfig(rule="greedy", max_epochs=3000, seed=k)
            point, _ = bcm.run(inst, cfg, r=default_rank(n))
            cache = bcm.init_cache(inst, point)
            cert = certify.dual_upper_bound(inst, point, cache)
            brute = oracles.brute_force_best_cut(inst)
            cut = certify.round_cut(inst, point, 1000,
                                    np.random.default_rng(900 + k))
            assert cut.value <= brute.value + 1e-9
            assert brute.value <= cert.upper_bound + 1e-9
            if abs(cut.value - brute.value) <= 1e-9:
                attained += 1
        assert attained >= 7
        print(f"  rounding attained brute force on {attained}/10", end="")


def test_criterion_9_byte_identical_traces(tmp_path):
    with criterion(9, "identical spec and seed give byte-identical traces"):
        for method, extra in (("bcm", ["--rule", "uniform"]),
                              ("bcm2", ["--epsilon", "0.05"])):
            args = ["solve", "--gen", "er:n=20,edges=50,sign=-1,seed=4",
                    "--method", method, "--seed", "11",
                    "--max-epochs", "200"] + extra
            paths = [str(tmp_path / f"{method}_{i}.jsonl") for i in (0, 1)]
            for p in paths:
                assert cli.main(args + ["--trace", p]) == 0
            b0, b1 = (open(p, "rb").read() for p in paths)
            assert b0 == b1


def test_criterion_10_norm_inequality(corpus):
    with criterion(10, "l11 norm <= n * one norm on every generated instance"):
        checked = 0
        extra = [bmcut.gen_gaussian(40, seed=700 + k) for k in range(10)]
        extra += [bmcut.gen_erdos_renyi(12 + (k % 5) * 2, 2 * (12 + (k % 5) * 2),
                                        -1 if k < 5 else 1, seed=300 + k)
                  for k in range(10)]
        for inst in list(corpus) + extra:
            assert inst.l11_norm <= inst.n * inst.one_norm + 1e-12
            checked += 1
        assert checked == 40
        print(f"  instances checked: {checked}", end="")
