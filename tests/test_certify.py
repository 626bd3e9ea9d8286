import json

import numpy as np
import pytest
import scipy.sparse.linalg

import bmcut
from bmcut import (FactorPoint, NumericalError, ValidationError, bcm, certify,
                   cli, manifold)

import oracles


class TestDualBound:
    def test_single_edge_optimum_tight(self, edge2):
        point = FactorPoint(np.tile([1.0, 0.0], (2, 1)))
        cache = bcm.init_cache(edge2, point)
        cert = certify.dual_upper_bound(edge2, point, cache)
        assert np.allclose(cert.lam, [1.0, 1.0])
        # A - I has eigenvalues {0, -2}
        assert cert.slack == pytest.approx(0.0, abs=1e-12)
        assert cert.upper_bound == pytest.approx(2.0, abs=1e-10)
        assert cert.gap == pytest.approx(0.0, abs=1e-10)

    def test_triangle_optimum_tight(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        cert = certify.dual_upper_bound(triangle, triangle_optimum, cache)
        assert np.allclose(cert.lam, 1.0, atol=1e-12)
        assert cert.upper_bound == pytest.approx(3.0, abs=1e-9)
        assert cert.gap <= 1e-9

    def test_bound_dominates_feasible_values(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            inst = bmcut.gen_gaussian(12, seed=seed)
            point = manifold.random_point(12, 4, rng)
            cache = bcm.init_cache(inst, point)
            cert = certify.dual_upper_bound(inst, point, cache)
            assert cert.upper_bound >= cache.objective() - 1e-8
            assert cert.gap > 0  # random points are never stationary

    def test_large_n_lanczos_path(self):
        inst = bmcut.gen_erdos_renyi(300, 900, sign=-1, seed=5)
        point = manifold.random_point(300, 5, np.random.default_rng(1))
        cache = bcm.init_cache(inst, point)
        cert = certify.dual_upper_bound(inst, point, cache)
        # cross-check the iterative eigenvalue against the dense one
        m = inst.dense()
        m[np.diag_indices(300)] -= cert.lam
        dense_top = np.linalg.eigvalsh(m)[-1]
        assert cert.slack == pytest.approx(dense_top, abs=1e-6)
        assert cert.upper_bound >= cache.objective() - 1e-8

    def test_arpack_no_convergence_raises(self, tmp_path, monkeypatch):
        # a partially converged Ritz value may sit below lambda_max, so the
        # bound must refuse it rather than come out too low
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "stalled", np.array([-1e3]), np.zeros((250, 1)))

        inst = bmcut.gen_erdos_renyi(250, 750, sign=-1, seed=5)
        point = manifold.random_point(250, 5, np.random.default_rng(1))
        cache = bcm.init_cache(inst, point)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(NumericalError):
            certify.dual_upper_bound(inst, point, cache)

        graph, pt = tmp_path / "g.txt", tmp_path / "p.bin"
        bmcut.write_edge_list(inst, str(graph))
        bmcut.save_point(point, str(pt))
        assert cli.main(["certify", "--edge-list", str(graph),
                         "--point", str(pt)]) == 4

    def test_fixed_point_lambda_equals_norms(self):
        inst = bmcut.gen_gaussian(15, seed=4)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=3000, seed=2)
        point, _ = bcm.run(inst, cfg, r=6)
        cache = bcm.init_cache(inst, point)
        live = cache.norms > 1e-12
        assert np.abs(cache.inner[live] - cache.norms[live]).max() < 1e-8

    def test_json_serialization(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        cert = certify.dual_upper_bound(triangle, triangle_optimum, cache)
        data = json.loads(cert.to_json())
        assert set(data) == {"lam", "upper_bound", "slack", "gap"}
        assert len(data["lam"]) == 3


class TestApproxReport:
    def test_r2_floor_vacuous(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        rep = certify.approx_report(triangle, triangle_optimum, cache, r=2,
                                    epsilon=0.1)
        assert rep["floor_concave_vacuous"] is True
        assert rep["floor_concave"] == pytest.approx(-3 * 0.1 / 2, abs=1e-9)
        assert rep["ratio_vs_bound"] == pytest.approx(1.0, abs=1e-9)

    def test_r11_two_sided_factor(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        rep = certify.approx_report(triangle, triangle_optimum, cache, r=11,
                                    epsilon=0.0)
        assert rep["floor_two_sided"] == pytest.approx(0.8 * rep["upper_bound"])

    def test_labels_present(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        rep = certify.approx_report(triangle, triangle_optimum, cache, r=3,
                                    epsilon=0.01)
        assert rep["guarantees"] == ["upper_bound"]
        assert "floor_concave" in rep["diagnostics"]
        assert any("positive semidefinite" in n for n in rep["notes"])

    def test_r_below_two_rejected(self, triangle, triangle_optimum):
        cache = bcm.init_cache(triangle, triangle_optimum)
        with pytest.raises(ValidationError):
            certify.approx_report(triangle, triangle_optimum, cache, r=1,
                                  epsilon=0.1)


class TestRounding:
    def test_single_edge_identical_rows(self, edge2):
        point = FactorPoint(np.tile([0.0, 1.0], (2, 1)))
        cut = certify.round_cut(edge2, point, 20, np.random.default_rng(0))
        assert cut.value == 2.0
        assert cut.signs[0] == cut.signs[1]

    def test_triangle_vs_exhaustive(self, triangle, triangle_optimum):
        best = oracles.exhaustive_best_cut(triangle)
        assert best == 2.0
        cut = certify.round_cut(triangle, triangle_optimum, 100,
                                np.random.default_rng(3))
        assert cut.value == best

    def test_r1_returns_entry_signs(self, edge2):
        point = FactorPoint(np.array([[1.0], [-1.0]]), allow_r1=True)
        cut = certify.round_cut(edge2, point, 10, np.random.default_rng(1))
        # sign pattern matches the entries up to a global flip
        assert abs(float(cut.signs @ np.array([1.0, -1.0]))) == 2.0
        assert cut.value == -2.0

    def test_reproducible_per_seed(self, triangle, triangle_optimum):
        a = certify.round_cut(triangle, triangle_optimum, 50,
                              np.random.default_rng(9))
        b = certify.round_cut(triangle, triangle_optimum, 50,
                              np.random.default_rng(9))
        assert np.array_equal(a.signs, b.signs)
        assert a.value == b.value

    def test_trials_validated(self, triangle, triangle_optimum):
        with pytest.raises(ValidationError):
            certify.round_cut(triangle, triangle_optimum, 0,
                              np.random.default_rng(0))

    def test_total_value_adds_offset(self):
        inst = bmcut.preprocess([[2.0, 1.0], [1.0, 0.0]])
        point = FactorPoint(np.tile([1.0, 0.0], (2, 1)))
        cut = certify.round_cut(inst, point, 5, np.random.default_rng(0))
        assert cut.total_value(inst) == cut.value + 2.0


class TestBruteForce:
    def test_triangle(self, triangle):
        cut = certify.brute_force_best_cut(triangle)
        assert cut.value == 2.0
        assert cut.signs[0] == 1.0

    def test_single_edge(self, edge2):
        cut = certify.brute_force_best_cut(edge2)
        assert cut.value == 2.0
        assert np.array_equal(cut.signs, [1.0, 1.0])

    def test_matches_plain_enumeration(self):
        for seed in range(5):
            inst = bmcut.gen_erdos_renyi(9, 14, sign=-1, seed=seed)
            fast = certify.brute_force_best_cut(inst)
            assert fast.value == pytest.approx(
                oracles.exhaustive_best_cut(inst), abs=1e-10)
            assert certify.cut_value(inst, fast.signs) == pytest.approx(
                fast.value, abs=1e-10)

    def test_size_cap(self):
        inst = bmcut.gen_erdos_renyi(25, 30, sign=-1, seed=0)
        with pytest.raises(ValidationError):
            certify.brute_force_best_cut(inst)

    def test_below_dual_bound(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            inst = bmcut.gen_erdos_renyi(10, 20, sign=-1, seed=seed + 40)
            point = manifold.random_point(10, 4, rng)
            cache = bcm.init_cache(inst, point)
            cert = certify.dual_upper_bound(inst, point, cache)
            brute = certify.brute_force_best_cut(inst)
            assert brute.value <= cert.upper_bound + 1e-8


class TestWeakDualityChain:
    def test_cut_le_solver_le_bound(self):
        for seed in range(5):
            inst = bmcut.gen_erdos_renyi(12, 25, sign=-1, seed=seed + 60)
            cfg = bcm.SolverConfig(rule="greedy", max_epochs=2000,
                                   seed=seed)
            point, trace = bcm.run(inst, cfg, r=5)
            cache = bcm.init_cache(inst, point)
            cert = certify.dual_upper_bound(inst, point, cache)
            cut = certify.round_cut(inst, point, 200,
                                    np.random.default_rng(seed))
            assert cut.value <= trace.final().f_raw + 1e-8
            assert trace.final().f_raw <= cert.upper_bound + 1e-8
