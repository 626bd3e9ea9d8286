import math
import re
import tracemalloc

import numpy as np
import pytest

import bmcut
from bmcut import ValidationError, bcm, certify, escape, manifold

import oracles
from conftest import gaussian_pair_zeroed, negated_complete


def rand_setup(n=10, r=3, seed=0, inst_seed=1):
    rng = np.random.default_rng(seed)
    inst = bmcut.gen_gaussian(n, seed=inst_seed)
    point = manifold.random_point(n, r, rng)
    cache = bcm.init_cache(inst, point)
    return inst, point, cache, rng


def assert_same_lanczos(got, ref, inst):
    assert got.estimate == pytest.approx(ref.estimate,
                                         abs=1e-10 * inst.one_norm)
    assert abs(np.sum(got.direction * ref.direction)) >= 1.0 - 1e-8
    assert got.iterations == ref.iterations
    assert got.exhausted == ref.exhausted


class TestThreshold:
    def test_unit_values(self):
        inst = bmcut.preprocess([[0.0, 0.5], [0.5, 0.0]])
        assert inst.one_norm == 0.5
        got = escape.escape_threshold(inst, 1.0)
        assert got == pytest.approx(1.0 / (1350.0 * 0.5))
        one = bmcut.preprocess([[0.0, 1.0], [1.0, 0.0]])
        assert escape.escape_threshold(one, 1.0) == pytest.approx(1.0 / 1350.0)

    def test_cubic_scaling(self, triangle):
        a = escape.escape_threshold(triangle, 0.1)
        b = escape.escape_threshold(triangle, 0.2)
        assert b == pytest.approx(8.0 * a, rel=1e-12)

    def test_epsilon_zero_rejected(self, triangle):
        with pytest.raises(ValidationError):
            escape.escape_threshold(triangle, 0.0)

    def test_zero_instance_trivial(self):
        inst = bmcut.preprocess(np.zeros((4, 4)))
        with pytest.raises(ValidationError, match="zero cost matrix"):
            escape.escape_threshold(inst, 0.5)

    @pytest.mark.parametrize("fn", [escape.escape_threshold,
                                    escape.escape_ascent_floor])
    def test_overflowing_cube_rejected(self, triangle, fn):
        # eps^3 overflows above about 5.6e102, where float ** raises
        with pytest.raises(ValidationError, match=r"epsilon = 1e\+103"):
            fn(triangle, 1e103)

    @pytest.mark.parametrize("ratio", [3e-5, 1e-4])
    def test_threshold_under_rounding_error_refused(self, ratio):
        # eps^3/(1350 |A|_1) under n ulp(|A|_1^2), where the metric's terms
        # are rounding: these runs ended max_epochs after 3000 epochs (3e-5)
        # and concave after 396 (1e-4)
        inst = bmcut.gen_gaussian(61, 2)
        esc = escape.EscapeConfig(epsilon=ratio * inst.one_norm)
        with pytest.raises(ValidationError, match="epsilon = .*rounding error"):
            escape.run_bcm2(inst, bcm.SolverConfig(), esc, r=11)

    def test_refusal_names_the_smallest_epsilon(self):
        inst = bmcut.gen_gaussian(61, 2)
        with pytest.raises(ValidationError) as exc:
            escape.escape_threshold(inst, 1e-4 * inst.one_norm)
        least = float(re.search(r"epsilon >= (\S+)", str(exc.value))[1])
        assert (escape.escape_threshold(inst, least * 1.001)
                >= 61 * math.ulp(inst.one_norm**2))
        with pytest.raises(ValidationError, match="rounding error"):
            escape.escape_threshold(inst, least * 0.999)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("eps", [0.01, 0.5, 3.0])
    def test_values_are_the_paper_formulas(self, seed, eps):
        # bit for bit the expressions each function used to form itself
        inst = bmcut.gen_gaussian(20, seed)
        one = inst.one_norm
        assert (escape.escape_threshold(inst, eps)
                == (eps / one)**3 * one**2 / 1350.0)
        assert (escape.escape_ascent_floor(inst, eps)
                == (eps / one)**3 * one / 2700.0)
        _, trace = escape.run_bcm2(inst, bcm.SolverConfig(max_epochs=1),
                                   escape.EscapeConfig(epsilon=eps), r=3)
        assert trace.header["threshold"] == escape.escape_threshold(inst, eps)
        assert trace.header["step_length"] == eps / (15.0 * one)
        assert trace.header["epoch_cap"] == math.ceil(675.0 * 20 * one**2 / eps**2)


class TestShiftedApply:
    """Hess + 4 |A|_1 I, the operator lanczos_budget is derived for."""

    def test_psd_matches_dense_spectrum(self):
        inst, point, _, _ = rand_setup(n=7, r=3, seed=4, inst_seed=6)
        h = oracles.dense_tangent_hessian(inst, point.sigma)
        shifted = h + 4.0 * inst.one_norm * np.eye(h.shape[0])
        assert np.linalg.eigvalsh(shifted)[0] >= -1e-10

    def test_zero_instance_returns_zero(self):
        inst = bmcut.preprocess(np.zeros((5, 5)))
        point = manifold.random_point(5, 3, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        u = oracles.random_tangent(point, np.random.default_rng(1))
        out = manifold._hess_apply_rows(inst, point.sigma, cache.inner, u)
        assert np.array_equal(out, np.zeros((5, 3)))


class TestBudget:
    def test_cap_at_tangent_dimension(self):
        # eps = 1e-3 is 1.28e3 times the smallest accepted at n = 6
        inst = bmcut.gen_gaussian(6, seed=0)
        assert escape.lanczos_budget(inst, 1e-3, 0.01, 3) == 6 * 2

    def test_monotone_in_epsilon(self):
        inst = bmcut.gen_gaussian(200, seed=0)
        loose = escape.lanczos_budget(inst, 1.0, 0.1, 20)
        tight = escape.lanczos_budget(inst, 0.25, 0.1, 20)
        assert tight >= loose

    def test_frozen_reference_value(self):
        # direct evaluation of the budget expression for
        # n=100, r=15, |A|_1=1, eps=0.1, delta=0.1
        n, r, one, eps, delta = 100, 15, 1.0, 0.1, 0.1
        calls = math.ceil(675 * n * one**2 / eps**2)
        expect = math.ceil(
            (0.5 + 2 * math.sqrt(one / eps))
            * math.log(calls * 1.648 * math.sqrt(n * (r - 1)) / delta))
        assert expect == 152  # frozen: computed once from the formula above

        a = np.zeros((n, n))
        a[0, 1] = a[1, 0] = 1.0  # one_norm exactly 1
        inst = bmcut.preprocess(a)
        assert escape.lanczos_budget(inst, eps, delta, r) == 152

    @pytest.mark.parametrize("r, cap", [(3, 12), (4, 18)])
    def test_overflowing_bound_gives_the_cap(self, r, cap):
        # the log argument overflowed to inf and math.ceil raised
        # OverflowError; the bound exceeds every dimension there
        inst = bmcut.gen_gaussian(6, 0)
        assert escape.lanczos_budget(inst, 1e-3, 1e-320, r) == cap

    def test_validation(self):
        inst = bmcut.gen_gaussian(5, seed=0)
        with pytest.raises(ValidationError):
            escape.lanczos_budget(inst, 0.0, 0.1, 3)
        for eps in (math.inf, math.nan, 1e-160, 1e-200):
            with pytest.raises(ValidationError, match="epsilon"):
                escape.lanczos_budget(inst, eps, 0.1, 3)
        with pytest.raises(ValidationError):
            escape.lanczos_budget(inst, 0.1, 1.5, 3)
        with pytest.raises(ValidationError):
            escape.lanczos_budget(inst, 0.1, 0.1, 1)


class TestLanczos:
    def test_full_budget_matches_dense(self):
        inst, point, cache, _ = rand_setup(n=8, r=3, seed=1, inst_seed=2)
        dim = 8 * 2
        h = oracles.dense_tangent_hessian(inst, point.sigma)
        top = np.linalg.eigvalsh(h)[-1]
        res = escape.lanczos_leading(inst, point, cache, dim,
                                     np.random.default_rng(5))
        assert res.estimate == pytest.approx(top, abs=1e-8)
        assert res.iterations <= dim

    def test_direction_rayleigh_reaches_estimate(self):
        inst, point, cache, _ = rand_setup(n=9, r=4, seed=2, inst_seed=3)
        res = escape.lanczos_leading(inst, point, cache, 9 * 3,
                                     np.random.default_rng(4))
        ray = manifold.hess_quadratic(inst, point, res.direction, cache)
        assert ray >= res.estimate - 1e-8
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)

    def test_partial_budget_accuracy(self):
        # 20 iterations on a 200-dimensional tangent space
        hits = 0
        for seed in range(10):
            inst, point, cache, _ = rand_setup(n=100, r=3, seed=1100 + seed,
                                               inst_seed=1900 + seed)
            h = oracles.dense_tangent_hessian(inst, point.sigma)
            top = np.linalg.eigvalsh(h)[-1]
            res = escape.lanczos_leading(inst, point, cache, 20,
                                         np.random.default_rng(5700 + seed))
            if abs(res.estimate - top) <= 0.01 * abs(top):
                hits += 1
        assert hits >= 9

    def test_basis_rows_unit(self):
        # the plain recurrence does not keep its basis orthogonal, but each
        # vector is a residual divided by its norm beta > 0
        inst, point, cache, _ = rand_setup(n=7, r=3, seed=3, inst_seed=9)
        res = escape.lanczos_leading(inst, point, cache, 14,
                                     np.random.default_rng(2))
        norms = np.linalg.norm(res.tri.basis, axis=(1, 2))
        assert np.abs(norms - 1.0).max() <= 1e-14
        assert np.all(res.tri.beta > 0.0)

    @pytest.mark.parametrize("n, r", [(3, 2), (5, 3), (8, 4)])
    def test_breakdown_at_complete_graph_saddle(self, n, r):
        # all rows equal on K_n: the curvature operator has few distinct
        # eigenvalues, so the Krylov space of the start is invariant after a
        # few steps; the recurrence stops there with the exact top pair
        inst = bmcut.preprocess(-(np.ones((n, n)) - np.eye(n)))
        sigma = np.zeros((n, r))
        sigma[:, 0] = 1.0
        point = bmcut.FactorPoint(sigma)
        cache = bcm.init_cache(inst, point)
        res = escape.lanczos_leading(inst, point, cache, n * (r - 1),
                                     np.random.default_rng(0))
        top = np.linalg.eigvalsh(oracles.dense_tangent_hessian(inst, sigma))[-1]
        assert res.exhausted
        assert res.iterations < n * (r - 1)
        assert np.all(res.tri.beta > 0.0)
        assert res.estimate == pytest.approx(top, abs=1e-8)
        ray = manifold.hess_quadratic(inst, point, res.direction, cache)
        assert ray == pytest.approx(top, abs=1e-8)

    @pytest.mark.parametrize("n, r, iters", [
        (8, 3, 16),     # full budget: the recurrence is exact
        (30, 4, 25),
        (100, 3, 20),
        # full tangent dimension, where the plain recurrence loses
        # orthogonality: the estimate and the direction still match
        (30, 4, 90),
        (20, 4, 60),
    ])
    def test_matches_reference(self, n, r, iters):
        for seed in range(3):
            inst, point, cache, _ = rand_setup(n=n, r=r, seed=40 + seed,
                                               inst_seed=60 + seed)
            got = escape.lanczos_leading(inst, point, cache, iters,
                                         np.random.default_rng(seed))
            ref = oracles.lanczos_reference(inst, point, cache, iters,
                                            np.random.default_rng(seed))
            assert_same_lanczos(got, ref, inst)

    def test_matches_reference_at_breakdown(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        got = escape.lanczos_leading(triangle, triangle_saddle, cache, 3,
                                     np.random.default_rng(0))
        ref = oracles.lanczos_reference(triangle, triangle_saddle, cache, 3,
                                        np.random.default_rng(0))
        assert ref.exhausted
        assert_same_lanczos(got, ref, triangle)

    def test_peak_memory_one_basis(self):
        inst = bmcut.gen_gaussian(300, 1)
        point = manifold.random_point(300, 8, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        tracemalloc.start()
        try:
            res = escape.lanczos_leading(inst, point, cache, 400,
                                         np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.tri.basis.shape == (res.iterations, 300, 8)
        assert peak <= 1.25 * res.tri.basis.nbytes

    def test_single_iteration(self):
        inst, point, cache, _ = rand_setup()
        res = escape.lanczos_leading(inst, point, cache, 1,
                                     np.random.default_rng(1))
        assert res.iterations == 1
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)

    def test_max_iters_validated(self):
        inst, point, cache, _ = rand_setup()
        with pytest.raises(ValidationError):
            escape.lanczos_leading(inst, point, cache, 0,
                                   np.random.default_rng(1))

    def test_rank_one_refused(self):
        inst = bmcut.gen_gaussian(6, seed=0)
        line = bmcut.FactorPoint(np.ones((6, 1)))
        with pytest.raises(ValidationError, match="tangent space is trivial"):
            escape.lanczos_leading(inst, line, bcm.init_cache(inst, line), 5,
                                   np.random.default_rng(1))


class TestSecondOrderStep:
    def test_sign_flip_when_against_gradient(self):
        inst, point, cache, rng = rand_setup(n=8, r=3, seed=5, inst_seed=7)
        grad = manifold.riemannian_gradient(point, cache)
        u = oracles.random_tangent(point, rng)
        if float(np.sum(u * grad)) > 0:
            u = -u
        # moving along the corrected direction cannot lose the first-order term
        before = cache.objective()
        gain = escape.second_order_step(inst, point, cache, u, epsilon=0.05)
        assert cache.objective() == pytest.approx(before + gain, abs=1e-12)

    def test_ascent_floor_at_triangle_saddle(self, triangle, triangle_saddle):
        point = triangle_saddle.copy()
        cache = bcm.init_cache(triangle, point)
        eps = 0.01
        res = escape.lanczos_leading(triangle, point, cache, 6,
                                     np.random.default_rng(3))
        ray = manifold.hess_quadratic(triangle, point, res.direction, cache)
        assert ray >= eps / 2
        gain = escape.second_order_step(triangle, point, cache, res.direction,
                                        eps)
        floor = escape.escape_ascent_floor(triangle, eps)
        assert floor == eps**3 / (2700.0 * triangle.one_norm**2)
        assert gain >= floor - 1e-9

    def test_non_unit_direction_rejected(self):
        inst, point, cache, rng = rand_setup()
        u = oracles.random_tangent(point, rng)
        bad = 0.5 * u
        with pytest.raises(ValidationError):
            escape.second_order_step(inst, point, cache, bad, 0.1)

    def test_nan_direction_rejected_untouched(self):
        # NaN passed the norm test and failed later, in exp_map, as "not
        # tangent"
        inst, point, cache, rng = rand_setup()
        bad = np.full_like(point.sigma, np.nan)

        def state():
            return [a.tobytes() for a in (point.sigma, cache.g, cache.norms,
                                          cache.inner)]
        before = state()
        with pytest.raises(ValidationError, match="unit Frobenius norm"):
            escape.second_order_step(inst, point, cache, bad, 0.1)
        assert state() == before

    def test_epsilon_zero_rejected(self):
        inst, point, cache, rng = rand_setup()
        u = oracles.random_tangent(point, rng)
        with pytest.raises(ValidationError):
            escape.second_order_step(inst, point, cache, u, 0.0)


class TestRunBcm2:
    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_rank_one_rejected(self, epsilon):
        # epsilon=None used to reach auto_epsilon's 1/(r - 1)
        inst = bmcut.gen_gaussian(6, seed=0)
        start = manifold.random_point(6, 1, np.random.default_rng(0))
        cfg = bcm.SolverConfig(rule="greedy", seed=0)
        esc = escape.EscapeConfig(epsilon=epsilon, seed=0)
        with pytest.raises(ValidationError, match="r >= 2"):
            escape.run_bcm2(inst, cfg, esc, initial=start)

    @pytest.mark.parametrize("r", [0, -1])
    def test_bad_rank_rejected(self, r):
        cfg = bcm.SolverConfig(rule="greedy", seed=0)
        esc = escape.EscapeConfig(epsilon=0.1, seed=0)
        with pytest.raises(ValidationError, match="r must be >= 1"):
            escape.run_bcm2(bmcut.gen_gaussian(6, seed=0), cfg, esc, r=r)

    def test_zero_instance_immediate(self):
        inst = bmcut.preprocess(np.zeros((5, 5)))
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=100, seed=0)
        esc = escape.EscapeConfig(epsilon=0.1, seed=0)
        point, trace = escape.run_bcm2(inst, cfg, esc, r=3)
        assert trace.status == "trivial"
        assert trace.final().f_raw == 0.0
        assert trace.final().epoch == 0
        # the run starts like every other one: the shared header, one record
        assert len(trace.records) == 1
        assert trace.header == {
            "method": "bcm2", "n": 5, "r": 3, "seed": 0, "max_epochs": 100,
            "refresh_period": bcm.REFRESH_PERIOD,
            "instance_checksum": inst.checksum(), "trace_offset": 0.0}

    def test_escapes_triangle_saddle(self, triangle, triangle_saddle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=1)
        esc = escape.EscapeConfig(epsilon=0.01, seed=2)
        point, trace = escape.run_bcm2(triangle, cfg, esc,
                                       initial=triangle_saddle)
        assert trace.status == "concave"
        assert trace.records[0].f_raw == -6.0
        assert trace.final().f_raw >= 2.9
        kinds = {r.kind for r in trace.records}
        assert kinds == {"bcm", "escape"}
        cap = math.ceil(675 * 3 * triangle.one_norm**2 / 0.01**2)
        assert trace.header["epoch_cap"] == cap
        assert (trace.header["bcm_epochs"] + trace.header["escape_steps"]
                <= cap)

    def test_monotone_and_gains_floored(self, triangle, triangle_saddle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=1)
        esc = escape.EscapeConfig(epsilon=0.01, seed=2)
        _, trace = escape.run_bcm2(triangle, cfg, esc, initial=triangle_saddle)
        f = trace.f_values()
        assert np.all(np.diff(f) >= 0.0)
        floor = 0.01**3 / (2700.0 * triangle.one_norm**2)
        for rec in trace.records:
            if rec.kind == "escape":
                assert rec.escape_gain >= floor - 1e-9
                assert rec.rayleigh >= 0.005

    def test_concave_verdict_certified_by_dense_oracle(self):
        # run to the verdict, then check the curvature spectrum at the end
        inst = bmcut.gen_gaussian(10, seed=31)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=3)
        eps = 0.05
        esc = escape.EscapeConfig(epsilon=eps, seed=4)
        point, trace = escape.run_bcm2(inst, cfg, esc, r=4)
        assert trace.status == "concave"
        h = oracles.dense_tangent_hessian(inst, point.sigma)
        assert np.linalg.eigvalsh(h)[-1] <= eps + 1e-6

    @pytest.mark.parametrize("seed, r", [(8, 4), (3, 4), (5, 5)])
    def test_dense_concave_verdict_bounds_gap(self, seed, r):
        # without a Lanczos call, the verdict is 2 theta < eps/2 for the
        # exact top eigenvalue theta of A - Lambda, so the certificate at the
        # final point has gap n max(theta, 0) <= n eps/4
        n, eps = 20, 0.01
        inst = bmcut.gen_gaussian(n, seed)
        start = np.zeros((n, r))
        start[:, 0] = 1.0
        cfg = bcm.SolverConfig(rule="greedy", seed=1)
        esc = escape.EscapeConfig(epsilon=eps, seed=2)
        point, trace = escape.run_bcm2(inst, cfg, esc,
                                       initial=bmcut.FactorPoint(start))
        assert trace.status == "concave"
        assert trace.header["escape_steps"] >= 1
        assert trace.header["lanczos_calls"] == 0
        cert = bmcut.dual_upper_bound(inst, point, bcm.init_cache(inst, point))
        assert cert.gap <= n * eps / 4 + 1e-9 * n * inst.one_norm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complete_above_dense_limit_takes_leading_pair(self, monkeypatch,
                                                           seed):
        # a complete instance takes LAPACK's pair at any size, so the escape
        # steps along v z^T without a Lanczos call
        calls, real = [], escape.leading_pair
        monkeypatch.setattr(escape, "leading_pair",
                            lambda *args: calls.append(1) or real(*args))
        inst = bmcut.gen_gaussian(201, seed)
        assert inst.complete
        start = np.zeros((201, 2))
        start[:, 0] = 1.0
        _, trace = escape.run_bcm2(
            inst, bcm.SolverConfig(rule="greedy", max_epochs=1),
            escape.EscapeConfig(epsilon=0.01),
            initial=bmcut.FactorPoint(start))
        assert trace.header["escape_steps"] == 1
        assert trace.header["lanczos_calls"] == 0
        assert calls == [1]

    def test_lanczos_alone_on_incomplete(self, monkeypatch):
        # on an incomplete instance no leading pair is computed: every
        # escape step, and the concave verdict, come from Lanczos
        calls, real = [], escape.leading_pair
        monkeypatch.setattr(escape, "leading_pair",
                            lambda *args: calls.append(1) or real(*args))
        start = np.zeros((20, 4))
        start[:, 0] = 1.0
        _, trace = escape.run_bcm2(
            gaussian_pair_zeroed(20, 8),
            bcm.SolverConfig(rule="greedy", seed=1),
            escape.EscapeConfig(epsilon=0.01, seed=2),
            initial=bmcut.FactorPoint(start))
        assert calls == []
        assert trace.status == "concave"
        assert trace.header["escape_steps"] >= 1
        assert (trace.header["lanczos_calls"]
                == trace.header["escape_steps"] + 1)

    @pytest.mark.parametrize("n, complete", [
        (20, False), (200, False), (201, False), (20, True), (201, True)])
    def test_storage_picks_the_eigensolver(self, monkeypatch, n, complete):
        # LAPACK's pair for the certificate and the escape exactly where the
        # instance is stored dense, at every size
        calls, real = [], escape.leading_pair
        monkeypatch.setattr(escape, "leading_pair",
                            lambda *args: calls.append(1) or real(*args))
        inst = (bmcut.gen_gaussian(n, 3) if complete
                else gaussian_pair_zeroed(n, 3))
        assert inst.complete == complete
        start = np.zeros((n, 2))
        start[:, 0] = 1.0
        point = bmcut.FactorPoint(start)
        cert = bmcut.dual_upper_bound(inst, point, bcm.init_cache(inst, point))
        assert (cert.iterations == 0) == complete
        _, trace = escape.run_bcm2(
            inst, bcm.SolverConfig(rule="greedy", max_epochs=1),
            escape.EscapeConfig(epsilon=0.01), initial=point)
        assert trace.header["escape_steps"] >= 1
        assert bool(calls) == complete

    @pytest.mark.parametrize("n", [200, 300])
    def test_repeated_top_eigenvalue(self, n):
        # K_n's all-equal point, where LAPACK's one-pair solve for the
        # (n - 1)-fold top eigenvalue of A - Lambda can return no pair
        inst = negated_complete(n)
        start = np.zeros((n, 4))
        start[:, 0] = 1.0
        _, trace = escape.run_bcm2(
            inst, bcm.SolverConfig(rule="greedy", seed=0),
            escape.EscapeConfig(epsilon=0.05 * inst.one_norm),
            initial=bmcut.FactorPoint(start))
        assert trace.status == "concave"
        assert trace.header["escape_steps"] >= 1

    @pytest.mark.parametrize("max_epochs, status", [
        (1, "max_epochs"), (2, "epoch_cap"), (3, "epoch_cap")])
    def test_epoch_cap_status(self, monkeypatch, max_epochs, status):
        # a smaller cap numerator makes the paper's epoch cap 2; a cap equal
        # to max_epochs reports "epoch_cap", a larger one "max_epochs"
        monkeypatch.setattr(escape, "EPOCH_CAP_NUM", 3e-6)
        start = np.zeros((20, 4))
        start[:, 0] = 1.0
        _, trace = escape.run_bcm2(
            bmcut.gen_gaussian(20, 8),
            bcm.SolverConfig(rule="greedy", max_epochs=max_epochs, seed=1),
            escape.EscapeConfig(epsilon=0.01, seed=2),
            initial=bmcut.FactorPoint(start))
        assert trace.header["epoch_cap"] == 2
        assert trace.header["max_epochs"] == max_epochs
        assert trace.status == status
        if status == "epoch_cap":
            assert trace.header["bcm_steps"] == 20
            assert trace.header["escape_steps"] == 1

    def test_row_term_test_keeps_every_decision(self, monkeypatch):
        # the metric is never below twice the picked row's term, so testing
        # that term first changes no decision; defeated, every step sums
        # the whole metric
        inst = bmcut.gen_gaussian(20, 8)
        start = np.zeros((20, 4))
        start[:, 0] = 1.0
        real = manifold.grad_metric_sq

        def solve():
            calls = []
            monkeypatch.setattr(bcm, "grad_metric_sq",
                                lambda cache: calls.append(1) or real(cache))
            point, trace = escape.run_bcm2(
                inst, bcm.SolverConfig(rule="greedy", seed=1),
                escape.EscapeConfig(epsilon=0.01, seed=2),
                initial=bmcut.FactorPoint(start))
            recs = [rec.as_dict() for rec in trace.records]
            return point.sigma.tobytes(), recs, len(calls)

        sigma, recs, calls = solve()
        monkeypatch.setattr(bcm, "metric_term", lambda norm, inner: -math.inf)
        exact_sigma, exact_recs, exact_calls = solve()
        assert sigma == exact_sigma
        assert recs == exact_recs
        assert calls * 4 < exact_calls

    def test_no_step_past_max_epochs(self, triangle):
        # rows 0-2: a triangle at its saddle, whose escape waits until the
        # second triangle (rows 3-5) has converged partway through a sweep
        a = np.zeros((6, 6))
        a[:3, :3] = a[3:, 3:] = triangle.dense()
        inst = bmcut.preprocess(a)
        rest = manifold.random_point(3, 2, np.random.default_rng(0)).sigma
        start = bmcut.FactorPoint(np.vstack([np.tile([1.0, 0.0], (3, 1)),
                                             rest]))
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=3, seed=1)
        esc = escape.EscapeConfig(epsilon=0.5, seed=2)
        _, trace = escape.run_bcm2(inst, cfg, esc, initial=start)
        kinds = [(rec.kind, rec.steps) for rec in trace.records]
        assert kinds == [("bcm", 0), ("bcm", 6), ("bcm", 3), ("escape", 1),
                         ("bcm", 3)]
        steps, escapes = (trace.header["bcm_steps"],
                          trace.header["escape_steps"])
        assert trace.status == "max_epochs"
        assert steps // 6 + escapes == 3
        # the step that reached the cap was the last one taken
        assert (steps - 1) // 6 + escapes == 2
        assert sum(rec.steps for rec in trace.records
                   if rec.kind == "bcm") == steps

    def test_threshold_echoed_in_header(self, triangle, triangle_saddle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=100, seed=1)
        esc = escape.EscapeConfig(epsilon=0.02, delta=0.05, seed=2)
        _, trace = escape.run_bcm2(triangle, cfg, esc, initial=triangle_saddle)
        head = trace.header
        assert head["epsilon"] == 0.02
        assert head["delta"] == 0.05
        assert head["threshold"] == pytest.approx(
            0.02**3 / (1350 * triangle.one_norm))
        assert head["step_length"] == pytest.approx(
            0.02 / (15 * triangle.one_norm))
        assert "lanczos_budget" in head

    def test_auto_epsilon_runs(self):
        inst = bmcut.gen_erdos_renyi(12, 30, sign=-1, seed=6)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=7)
        esc = escape.EscapeConfig(epsilon=None, seed=8)
        point, trace = escape.run_bcm2(inst, cfg, esc, r=5)
        assert trace.status in ("concave", "epoch_cap", "max_epochs")
        assert trace.header["epsilon"] > 0

    def test_bcm_epoch_gain_floor_inside_bcm2(self, triangle, triangle_saddle):
        # coordinate steps only run above the threshold, so each one gains
        # more than threshold/(2 n |A|_1) = eps^3/(2700 n |A|_1^2)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=1)
        eps = 0.01
        esc = escape.EscapeConfig(epsilon=eps, seed=2)
        _, trace = escape.run_bcm2(triangle, cfg, esc, initial=triangle_saddle)
        per_step = eps**3 / (2700.0 * triangle.n * triangle.one_norm**2)
        for prev, rec in zip(trace.records, trace.records[1:]):
            if rec.kind == "bcm" and rec.steps > 0:
                gain = rec.f_raw - prev.f_raw
                assert gain >= rec.steps * per_step - 1e-9

    def test_auto_epsilon_full_rank_two_sided_floor(self):
        # r at the full-rank scale: the terminal value clears the two-sided
        # floor evaluated with the certified bound standing in for the optimum
        inst = bmcut.gen_gaussian(60, seed=13)
        r = 11
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10_000, seed=3)
        esc = escape.EscapeConfig(epsilon=None, seed=4)
        point, trace = escape.run_bcm2(inst, cfg, esc, r=r)
        assert trace.status == "concave"
        cache = bcm.init_cache(inst, point)
        cert = bmcut.dual_upper_bound(inst, point, cache)
        assert cache.objective() >= (1 - 2 / (r - 1)) * cert.upper_bound

    @pytest.mark.parametrize("epsilon", [1e-200, 1e-160, math.inf, math.nan,
                                         1e103, 1e150])
    def test_bad_epsilon_rejected(self, epsilon):
        # 1e-200 squares to 0, 1e-160 gives an infinite epoch cap, and
        # 1e103 and 1e150 cube to more than the largest float
        cfg = bcm.SolverConfig(rule="greedy", seed=0)
        with pytest.raises(ValidationError, match="epsilon"):
            escape.run_bcm2(bmcut.gen_gaussian(6, seed=0), cfg,
                            escape.EscapeConfig(epsilon=epsilon), r=3)

    def test_auto_epsilon_reads_rank_from_point(self):
        inst = bmcut.gen_gaussian(6, seed=0)
        point = manifold.random_point(6, 3, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        u = bmcut.dual_upper_bound(inst, point, cache).upper_bound
        assert escape.auto_epsilon(inst, point, cache) == 2.0 * u / (6 * 2)
        line = bmcut.FactorPoint(np.ones((6, 1)))   # 1/(r - 1) divides by 0
        with pytest.raises(ValidationError, match="r = 1"):
            escape.auto_epsilon(inst, line, bcm.init_cache(inst, line))

    def test_auto_epsilon_needs_positive_bound(self, monkeypatch):
        # weak duality makes U > 0 for any nonzero A; only a failed
        # eigensolve could report U <= 0
        inst = bmcut.gen_gaussian(6, seed=0)
        point = manifold.random_point(6, 3, np.random.default_rng(0))
        cert = certify.Certificate(lam=np.zeros(6), upper_bound=0.0,
                                   slack=0.0, gap=0.0, iterations=0)
        monkeypatch.setattr(escape, "dual_upper_bound", lambda *args: cert)
        with pytest.raises(ValidationError, match="needs a positive upper bound"):
            escape.auto_epsilon(inst, point, bcm.init_cache(inst, point))

    def test_tiny_auto_epsilon_rejected(self):
        # entries near 1e-170 make |A|_1^2, and so the automatic epsilon's
        # square, underflow: the run is refused before epsilon is picked
        inst = bmcut.preprocess(bmcut.gen_gaussian(6, seed=0).dense() * 1e-170)
        cfg = bcm.SolverConfig(rule="greedy", seed=0)
        with pytest.raises(ValidationError, match="rescale A"):
            escape.run_bcm2(inst, cfg, escape.EscapeConfig(), r=3)

    def test_retries_config(self):
        # the option is gone: one Lanczos call decides each escape step
        with pytest.raises(TypeError):
            escape.EscapeConfig(epsilon=0.1, retries=1)
        with pytest.raises(ValidationError):
            escape.EscapeConfig(epsilon=0.1, delta=0.0)
        with pytest.raises(ValidationError):
            escape.EscapeConfig(epsilon=-1.0)
