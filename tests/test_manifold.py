import numpy as np
import pytest

import bmcut
from bmcut import FactorPoint, ValidationError, manifold

import oracles
from oracles import TestProcrustes  # noqa: F401  (collected from here)


def rand_setup(n=6, r=3, seed=0, inst_seed=1):
    rng = np.random.default_rng(seed)
    inst = bmcut.gen_gaussian(n, seed=inst_seed)
    point = manifold.random_point(n, r, rng)
    cache = bmcut.init_cache(inst, point)
    return inst, point, cache, rng


class TestFactorPoint:
    def test_unit_rows_enforced(self):
        with pytest.raises(ValidationError):
            FactorPoint(np.ones((3, 2)))

    def test_nan_row_rejected(self):
        with pytest.raises(ValidationError):
            FactorPoint(np.array([[np.nan, 0.0], [1.0, 0.0]]))

    def test_rank_one_is_a_point(self):
        pt = FactorPoint(np.array([[1.0], [-1.0], [1.0]]))
        assert pt.r == 1
        assert pt.copy().r == 1

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
    def test_rank_zero_rejected(self, shape):
        with pytest.raises(ValidationError, match="r >= 1"):
            FactorPoint(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_not_two_d_rejected(self, shape):
        with pytest.raises(bmcut.DimensionError, match="factor must be 2-d"):
            FactorPoint(np.ones(shape))

    @pytest.mark.parametrize("n, r", [(-2, 3), (4, 0), (4, -1)])
    def test_random_point_rejects_sizes(self, n, r):
        with pytest.raises(ValidationError, match="n must be >= 0" if n < 0
                           else "r must be >= 1"):
            manifold.random_point(n, r, np.random.default_rng(0))

    def test_random_point_rank_one(self):
        pt = manifold.random_point(4, 1, np.random.default_rng(0))
        assert pt.r == 1
        assert np.array_equal(np.abs(pt.sigma), np.ones((4, 1)))

    def test_random_point_zero_draw_row(self):
        # a row drawn as exactly zero has no direction: it becomes e_1
        class ZeroRow:
            def standard_normal(self, shape):
                x = np.random.default_rng(0).standard_normal(shape)
                x[2] = 0.0
                return x

        pt = manifold.random_point(5, 3, ZeroRow())
        assert np.array_equal(pt.sigma[2], [1.0, 0.0, 0.0])
        assert np.allclose(np.linalg.norm(pt.sigma, axis=1), 1.0, atol=1e-12)
        FactorPoint(pt.sigma)   # checks the unit rows

    def test_random_point_rows_unit(self):
        pt = manifold.random_point(50, 7, np.random.default_rng(4))
        assert np.allclose(np.linalg.norm(pt.sigma, axis=1), 1.0, atol=1e-12)


class TestProjection:
    def test_projecting_point_rows_gives_zero(self):
        _, point, _, _ = rand_setup()
        u = manifold._project_rows(point.sigma, point.sigma)
        assert np.allclose(u, 0.0, atol=1e-14)

    def test_idempotent_on_tangent(self):
        _, point, _, rng = rand_setup()
        u = oracles.random_tangent(point, rng)
        again = manifold._project_rows(point.sigma, u)
        assert np.allclose(again, u, atol=1e-14)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(12)
        point = manifold.random_point(3, 2, rng)
        w = rng.standard_normal((3, 2))
        u = manifold._project_rows(point.sigma, w)
        s = point.sigma
        expect = w - np.diag(np.diag(w @ s.T)) @ s
        assert np.allclose(u, expect, atol=1e-12)

    def test_nan_tangent_rejected(self):
        inst, point, cache, _ = rand_setup()
        u = np.zeros_like(point.sigma)
        u[2, 1] = np.nan
        with pytest.raises(ValidationError):
            manifold.exp_map(point, u, 0.1)
        with pytest.raises(ValidationError):
            manifold.hess_quadratic(inst, point, u, cache)

    def test_shape_mismatch(self):
        inst, point, cache, _ = rand_setup()
        with pytest.raises(bmcut.DimensionError):
            manifold.exp_map(point, np.zeros((2, 2)), 0.1)
        with pytest.raises(bmcut.DimensionError):
            manifold.hess_quadratic(inst, point, np.zeros((2, 2)), cache)


class TestExpMap:
    def test_t_zero_identity(self):
        _, point, _, rng = rand_setup()
        tv = oracles.random_tangent(point, rng)
        out = manifold.exp_map(point, tv, 0.0)
        assert np.array_equal(out.sigma, point.sigma)

    def test_quarter_circle(self):
        point = FactorPoint(np.array([[1.0, 0.0]]))
        out = manifold.exp_map(point, np.array([[0.0, 1.0]]), np.pi / 2)
        assert np.allclose(out.sigma, [[0.0, 1.0]], atol=1e-15)

    def test_rows_stay_unit(self):
        _, point, _, rng = rand_setup(n=20, r=5)
        tv = oracles.random_tangent(point, rng)
        for t in (1e-3, 0.3, 2.0, 11.0):
            out = manifold.exp_map(point, tv, t)
            assert np.allclose(np.linalg.norm(out.sigma, axis=1), 1.0, atol=1e-12)

    def test_rows_stay_unit_at_huge_steps(self):
        # cos and sinc take one rounded angle: with cos(theta) against
        # sin(pi (theta/pi)), rows left the sphere by 1.1e-7 at t = 1e9
        point = manifold.random_point(50, 3, np.random.default_rng(0))
        u = oracles.random_tangent(point, np.random.default_rng(1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        out = manifold.exp_map(point, u, 1e9)
        assert np.allclose(np.linalg.norm(out.sigma, axis=1), 1.0, atol=1e-12)

    def test_zero_rows_unmoved(self):
        _, point, _, rng = rand_setup()
        u = oracles.random_tangent(point, rng)
        u[2] = 0.0
        out = manifold.exp_map(point, u, 0.7)
        assert np.array_equal(out.sigma[2], point.sigma[2])

    def test_short_rows_follow_the_geodesic(self):
        # a row of norm 1e-15 and a step of 1e12 turn row 1 by
        # theta = |u_1| t = 1e-3; the rows with u_i = 0 stay
        _, point, _, rng = rand_setup()
        u = np.zeros_like(point.sigma)
        u[1] = oracles.random_tangent(point, rng)[1]
        u[1] *= 1e-15 / np.linalg.norm(u[1])
        t = 1e12
        out = manifold.exp_map(point, u, t).sigma
        want = (point.sigma[1] * np.cos(1e-3)
                + u[1] * 1e15 * np.sin(1e-3))
        assert np.allclose(out[1], want, rtol=0.0, atol=1e-15)
        assert np.linalg.norm(out[1] - point.sigma[1]) > 9e-4
        assert np.array_equal(out[2], point.sigma[2])

    def test_non_tangent_rejected(self):
        _, point, _, rng = rand_setup()
        other = manifold.random_point(point.n, point.r,
                                      np.random.default_rng(99))
        tv = oracles.random_tangent(other, rng)
        with pytest.raises(ValidationError, match="not tangent"):
            manifold.exp_map(point, tv, 0.1)

    def test_short_rows_judged_by_angle(self):
        # |<s_i, u_i>| <= 1e-8 (1 + |u_i|) let rows of size 2^-300 through
        # at any angle; the test is now relative to |u_i|
        # (2^-540: sqrt(sum u^2) would underflow to 0)
        inst, point, cache, rng = rand_setup()
        for scale in (2.0**-300, 2.0**-540):
            tangent = oracles.random_tangent(point, rng) * scale
            tangent[3] = 0.0
            moved = manifold.exp_map(point, tangent, 0.1)
            assert np.array_equal(moved.sigma, point.sigma)
            slanted = tangent + point.sigma * scale
            with pytest.raises(ValidationError, match="not tangent"):
                manifold.exp_map(point, slanted, 0.1)
            with pytest.raises(ValidationError, match="not tangent"):
                manifold.hess_quadratic(inst, point, slanted, cache)

    def test_negative_t_rejected(self):
        _, point, _, rng = rand_setup()
        tv = oracles.random_tangent(point, rng)
        with pytest.raises(ValidationError):
            manifold.exp_map(point, tv, -0.1)


class TestDistance:
    def test_zero_at_same_point(self):
        _, point, _, _ = rand_setup()
        assert oracles.geodesic_distance(point, point) == 0.0

    def test_small_step_length(self):
        _, point, _, rng = rand_setup(n=10, r=4)
        tv = oracles.random_tangent(point, rng)  # unit Frobenius
        t = 1e-3
        moved = manifold.exp_map(point, tv, t)
        d = oracles.geodesic_distance(point, moved)
        assert d == pytest.approx(t * np.linalg.norm(tv), abs=1e-8)

    def test_antipodal_single_row(self):
        p = FactorPoint(np.array([[0.6, 0.8]]))
        q = FactorPoint(np.array([[-0.6, -0.8]]))
        assert oracles.geodesic_distance(p, q) == pytest.approx(np.pi, abs=1e-7)


class TestGradient:
    def test_zero_instance(self):
        inst = bmcut.preprocess(np.zeros((4, 4)))
        point = manifold.random_point(4, 3, np.random.default_rng(1))
        cache = bmcut.init_cache(inst, point)
        g = manifold.riemannian_gradient(point, cache)
        assert np.array_equal(g, np.zeros((4, 3)))
        assert manifold.grad_metric_sq(cache) == 0.0

    def test_aligned_edge_is_stationary(self, edge2):
        sig = np.tile([0.6, 0.8], (2, 1))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        point = FactorPoint(sig)
        cache = bmcut.init_cache(edge2, point)
        g = manifold.riemannian_gradient(point, cache)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_triangle_all_equal_stationary_with_curvature(self, triangle,
                                                          triangle_saddle):
        cache = bmcut.init_cache(triangle, triangle_saddle)
        g = manifold.riemannian_gradient(triangle_saddle, cache)
        assert np.allclose(g, 0.0, atol=1e-14)
        assert np.allclose(cache.inner, -2.0)
        assert manifold.grad_metric_sq(cache) == 0.0
        # yet the curvature operator has a strictly positive direction
        h = oracles.dense_tangent_hessian(triangle, triangle_saddle.sigma)
        assert np.linalg.eigvalsh(h)[-1] > 1.0

    def test_matches_dense_oracle(self):
        for seed in range(5):
            inst, point, cache, _ = rand_setup(n=8, r=3, seed=seed,
                                               inst_seed=seed + 10)
            g = manifold.riemannian_gradient(point, cache)
            assert np.allclose(g, oracles.grad_dense(inst, point.sigma),
                               atol=1e-12)

    def test_metric_identity(self):
        for seed in range(10):
            _, point, cache, _ = rand_setup(n=9, r=4, seed=seed, inst_seed=seed)
            lit = np.linalg.norm(
                manifold.riemannian_gradient(point, cache)) ** 2
            metric = manifold.grad_metric_sq(cache)
            assert metric == pytest.approx(0.5 * lit, abs=1e-10)
            assert np.sqrt(2.0 * metric) == pytest.approx(np.sqrt(lit),
                                                          abs=1e-10)

    def test_metric_zero_at_fixed_points(self):
        inst = bmcut.gen_gaussian(12, seed=21)
        cfg = bmcut.SolverConfig(rule="greedy", max_epochs=5000,
                                 grad_tol=1e-24, seed=0)
        point, _ = bmcut.run(inst, cfg, r=5)
        cache = bmcut.init_cache(inst, point)
        # every row aligned with its own neighbor sum: metric collapses
        aligned = cache.norms - cache.inner
        assert np.all(np.abs(aligned[cache.norms > 1e-12]) < 1e-9)
        assert manifold.grad_metric_sq(cache) < 1e-14

    def test_lambda_diag_matches_dense(self):
        inst, point, cache, _ = rand_setup(n=6, r=3)
        assert np.allclose(cache.inner, oracles.lambda_dense(inst, point.sigma),
                           atol=1e-10)


class TestHessian:
    def test_zero_tangent(self):
        inst, point, cache, _ = rand_setup()
        zero = np.zeros(point.sigma.shape)
        assert manifold.hess_quadratic(inst, point, zero, cache) == 0.0
        out = manifold._hess_apply_rows(inst, point.sigma, cache.inner, zero)
        assert np.array_equal(out, np.zeros(point.sigma.shape))

    def test_non_tangent_rejected(self):
        inst, point, cache, rng = rand_setup()
        other = manifold.random_point(point.n, point.r,
                                      np.random.default_rng(99))
        for u in (oracles.random_tangent(other, rng), point.sigma):
            with pytest.raises(ValidationError, match="not tangent"):
                manifold.hess_quadratic(inst, point, u, cache)

    def test_size_mismatch(self):
        point = manifold.random_point(12, 3, np.random.default_rng(0))
        cache = bmcut.init_cache(bmcut.gen_gaussian(12, seed=0), point)
        u = oracles.random_tangent(point, np.random.default_rng(1))
        with pytest.raises(ValidationError,
                           match="has 12 rows, instance has 10"):
            manifold.hess_quadratic(bmcut.gen_gaussian(10, seed=0), point, u,
                                    cache)

    def test_cache_size_mismatch(self):
        inst, point, _, rng = rand_setup(n=10)
        other = manifold.random_point(12, 3, rng)
        cache = bmcut.init_cache(bmcut.gen_gaussian(12, seed=0), other)
        u = oracles.random_tangent(point, rng)
        with pytest.raises(ValidationError,
                           match="cache has 12 rows, instance has 10"):
            manifold.hess_quadratic(inst, point, u, cache)

    def test_quadratic_matches_second_difference(self):
        t = 1e-4
        for seed in range(20):
            inst, point, cache, rng = rand_setup(n=6, r=3, seed=seed,
                                                 inst_seed=seed + 3)
            tv = oracles.random_tangent(point, rng)
            quad = manifold.hess_quadratic(inst, point, tv, cache)
            fp = oracles.f_dense(inst, manifold.exp_map(point, tv, t).sigma)
            f0 = oracles.f_dense(inst, point.sigma)
            fm = oracles.f_dense(inst, manifold.exp_map(point, -tv, t).sigma)
            fd = (fp - 2 * f0 + fm) / t**2
            assert quad == pytest.approx(fd, abs=1e-4)

    def test_escape_direction_at_triangle_saddle(self, triangle,
                                                 triangle_saddle):
        cache = bmcut.init_cache(triangle, triangle_saddle)
        u = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]) / np.sqrt(2.0)
        quad = manifold.hess_quadratic(triangle, triangle_saddle, u, cache)
        assert quad > 1.0
        h = oracles.dense_tangent_hessian(triangle, triangle_saddle.sigma)
        assert quad <= np.linalg.eigvalsh(h)[-1] + 1e-10

    def test_apply_self_adjoint_and_consistent(self):
        inst, point, cache, rng = rand_setup(n=7, r=4, seed=2, inst_seed=5)
        for _ in range(100):
            u = oracles.random_tangent(point, rng)
            v = oracles.random_tangent(point, rng)
            hu = manifold._hess_apply_rows(inst, point.sigma, cache.inner, u)
            hv = manifold._hess_apply_rows(inst, point.sigma, cache.inner, v)
            assert np.sum(v * hu) == pytest.approx(np.sum(u * hv), abs=1e-10)
            assert np.sum(u * hu) == pytest.approx(
                manifold.hess_quadratic(inst, point, u, cache), abs=1e-10)

    def test_apply_matches_dense_oracle(self):
        inst, point, cache, rng = rand_setup(n=5, r=3, seed=7, inst_seed=8)
        basis = oracles.tangent_basis(point.sigma)
        h = oracles.dense_tangent_hessian(inst, point.sigma)
        coefs = rng.standard_normal(len(basis))
        u = sum(c * e for c, e in zip(coefs, basis))
        got = manifold._hess_apply_rows(inst, point.sigma, cache.inner, u)
        want_coefs = h @ coefs
        want = sum(c * e for c, e in zip(want_coefs, basis))
        assert np.allclose(got, want, atol=1e-10)


class TestTaylor:
    def test_cubic_remainder_ratio(self):
        ratios = []
        for seed in range(20):
            inst, point, cache, rng = rand_setup(n=8, r=3, seed=seed,
                                                 inst_seed=seed + 40)
            tv = oracles.random_tangent(point, rng)
            grad = manifold.riemannian_gradient(point, cache)
            quad = manifold.hess_quadratic(inst, point, tv, cache)
            lin = np.sum(tv * grad)
            f0 = oracles.f_dense(inst, point.sigma)

            def remainder(t):
                ft = oracles.f_dense(inst, manifold.exp_map(point, tv, t).sigma)
                return abs(ft - f0 - t * lin - 0.5 * t * t * quad)

            r2, r3 = remainder(1e-2), remainder(1e-3)
            if r3 < 1e-13:  # remainder at float noise; ratio meaningless
                continue
            ratios.append(r2 / r3)
        assert all(r >= 800 for r in ratios)
        assert np.median(ratios) >= 950

    def test_objective_orthogonal_invariance(self):
        inst, point, _, rng = rand_setup(n=10, r=4, seed=3, inst_seed=6)
        f0 = oracles.f_dense(inst, point.sigma)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            f1 = oracles.f_dense(inst, point.sigma @ q)
            assert abs(f0 - f1) <= 1e-9


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        p = manifold.random_point(9, 4, np.random.default_rng(2))
        path = str(tmp_path / "pt.bin")
        manifold.save_point(p, path)
        assert (tmp_path / "pt.bin").stat().st_size == 16 + 8 * 9 * 4
        back = manifold.load_point(path)
        assert np.array_equal(p.sigma, back.sigma)

    def test_csv_roundtrip(self, tmp_path):
        p = manifold.random_point(4, 3, np.random.default_rng(3))
        path = str(tmp_path / "pt.csv")
        manifold.save_point(p, path)
        assert np.array_equal(np.loadtxt(path, delimiter=","), p.sigma)
        back = manifold.load_point(path)
        assert np.array_equal(p.sigma, back.sigma)

    def test_negative_sizes_rejected(self, tmp_path):
        # n * r * 8 matches the 64 payload bytes, yet no (n, r) array exists
        path = tmp_path / "neg.bin"
        path.write_bytes(np.array([-1, -8], dtype="<i8").tobytes()
                         + np.zeros(8, dtype="<f8").tobytes())
        with pytest.raises(ValidationError, match="negative size"):
            manifold.load_point(str(path))

    def test_short_payload_rejected(self, tmp_path):
        # the header says (3, 2), which needs 48 bytes; five doubles follow
        path = tmp_path / "short.bin"
        path.write_bytes(np.array([3, 2], dtype="<i8").tobytes()
                         + np.zeros(5, dtype="<f8").tobytes())
        with pytest.raises(ValidationError, match="expected 48 payload bytes"):
            manifold.load_point(str(path))

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValidationError):
            manifold.load_point(str(path))
