import copy
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bmcut
from bmcut import (FactorPoint, NumericalError, ValidationError, bcm, certify,
                   cli, manifold)

import oracles
from conftest import gaussian_pair_zeroed, negated_complete
from test_rules import RULES, SOURCES, breaches, named, scopes


class TestDualBound:
    def test_empty_instance_rejected(self):
        # eigvalsh of a 0 x 0 matrix has no largest eigenvalue: IndexError
        inst = bmcut.preprocess(np.zeros((0, 0)))
        point = FactorPoint(np.zeros((0, 3)))
        with pytest.raises(ValidationError, match="n = 0"):
            certify.dual_upper_bound(inst, point, bcm.init_cache(inst, point))

    def test_size_mismatch(self):
        point = manifold.random_point(12, 3, np.random.default_rng(0))
        cache = bcm.init_cache(bmcut.gen_gaussian(12, seed=0), point)
        with pytest.raises(ValidationError,
                           match="has 12 rows, instance has 10"):
            certify.dual_upper_bound(bmcut.gen_gaussian(10, seed=0), point,
                                     cache)

    def test_cache_size_mismatch(self):
        inst = bmcut.gen_gaussian(10, seed=0)
        point = manifold.random_point(10, 3, np.random.default_rng(0))
        other = manifold.random_point(12, 3, np.random.default_rng(0))
        cache = bcm.init_cache(bmcut.gen_gaussian(12, seed=0), other)
        with pytest.raises(ValidationError,
                           match="cache has 12 rows, instance has 10"):
            certify.dual_upper_bound(inst, point, cache)

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

    @pytest.mark.parametrize("inst, r", [
        (bmcut.gen_gaussian(240, seed=0), 22),
        (bmcut.gen_erdos_renyi(1000, 3000, sign=-1, seed=0), 45),
    ], ids=["gaussian-240", "er-1000"])
    def test_lanczos_path_repeatable(self, inst, r):
        # the recurrence's start vector is fixed, so one iterate gives one
        # bound, down to the line that bmcut certify prints
        point = manifold.random_point(inst.n, r, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)

        def printed():
            cert = certify.dual_upper_bound(inst, point, cache)
            return json.dumps(cert.as_dict(), sort_keys=True)

        first = printed()
        for _ in range(3):
            assert printed() == first

    def test_lanczos_cap_raises(self, tmp_path, monkeypatch):
        # a partially converged Ritz value may sit below lambda_max, so the
        # bound must refuse it rather than come out too low; this instance
        # converges in about 60 steps
        inst = bmcut.gen_erdos_renyi(250, 750, sign=-1, seed=5)
        point = manifold.random_point(250, 5, np.random.default_rng(1))
        cache = bcm.init_cache(inst, point)
        monkeypatch.setattr(certify, "MAX_LANCZOS_STEPS", 20)
        with pytest.raises(NumericalError, match="did not converge in 20"):
            certify.dual_upper_bound(inst, point, cache)

        graph, pt = tmp_path / "g.txt", tmp_path / "p.bin"
        bmcut.write_edge_list(inst, str(graph))
        bmcut.save_point(point, str(pt))
        assert cli.main(["certify", "--edge-list", str(graph),
                         "--point", str(pt)]) == 4

    def test_non_finite_lam_raises_at_once(self, monkeypatch):
        # a NaN multiplier poisons every alpha; the first step refuses it,
        # before the one-step cap could
        inst = bmcut.gen_erdos_renyi(250, 750, sign=-1, seed=5)
        lam = np.zeros(250)
        lam[7] = np.nan
        monkeypatch.setattr(certify, "MAX_LANCZOS_STEPS", 1)
        with pytest.raises(NumericalError, match="non-finite"):
            certify.top_ritz_value(inst, lam)

    def test_complete_above_limit_takes_dense_eigh(self, monkeypatch):
        # the storage alone picks the eigensolver, at any size
        def refused(*args, **kwargs):
            raise AssertionError("Lanczos run on a complete instance")

        monkeypatch.setattr(certify, "top_ritz_value", refused)
        inst = bmcut.gen_gaussian(240, seed=1)
        assert inst.complete
        point = manifold.random_point(240, 22, np.random.default_rng(2))
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        m = inst.dense()
        m[np.diag_indices(240)] -= cert.lam
        assert (abs(cert.slack - np.linalg.eigvalsh(m)[-1])
                <= 1e-12 * inst.one_norm)

    def test_incomplete_above_limit_takes_lanczos(self, monkeypatch):
        # one zero pair makes a Gaussian instance take the recurrence
        inst = gaussian_pair_zeroed(240, 1)
        assert not inst.complete
        point = manifold.random_point(240, 22, np.random.default_rng(2))
        cache = bcm.init_cache(inst, point)
        dense_calls, lanczos_calls = [], []
        dense, lanczos = bmcut.ProblemInstance.dense, certify.top_ritz_value

        monkeypatch.setattr(bmcut.ProblemInstance, "dense",
                            lambda self: dense_calls.append(1) or dense(self))
        monkeypatch.setattr(certify, "top_ritz_value",
                            lambda *a: lanczos_calls.append(1) or lanczos(*a))
        cert = certify.dual_upper_bound(inst, point, cache)
        assert lanczos_calls == [1]
        assert dense_calls == []
        assert cert.iterations > 0

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_tridiagonal_eigensolve_failure_raises(self, tmp_path, monkeypatch,
                                                   routine):
        # LAPACK reports its failure in `info`, the last value it returns
        real = getattr(scipy.linalg.lapack, routine)
        monkeypatch.setattr(scipy.linalg.lapack, routine,
                            lambda *a: (*real(*a)[:-1], 1))
        with pytest.raises(NumericalError, match="tridiagonal"):
            certify._top_ritz_pair([1.0, 2.0, 3.0], [0.5, 0.5])

        inst = gaussian_pair_zeroed(201, 1)
        assert not inst.complete
        graph, pt = tmp_path / "g.mtx", tmp_path / "p.bin"
        bmcut.write_matrix_market(inst, str(graph))
        bmcut.save_point(manifold.random_point(201, 4, np.random.default_rng(2)),
                         str(pt))
        assert cli.main(["certify", "--mtx", str(graph),
                         "--point", str(pt)]) == 4

    def test_dense_eigh_failure_raises(self, tmp_path, monkeypatch):
        # LAPACK's failure is refused like the recurrence's, not let through
        # as a LinAlgError
        def failed(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        inst = bmcut.gen_gaussian(30, seed=0)
        point = manifold.random_point(30, 4, np.random.default_rng(1))
        cache = bcm.init_cache(inst, point)
        monkeypatch.setattr(scipy.linalg, "eigh", failed)
        with pytest.raises(NumericalError):
            certify.dual_upper_bound(inst, point, cache)

        graph, pt = tmp_path / "g.txt", tmp_path / "p.bin"
        bmcut.write_edge_list(inst, str(graph))
        bmcut.save_point(point, str(pt))
        assert cli.main(["certify", "--edge-list", str(graph),
                         "--point", str(pt)]) == 4

    @pytest.mark.parametrize("inst, complete", [
        (bmcut.gen_gaussian(240, seed=0), True),
        (bmcut.gen_gaussian(20, seed=0), True),
        (bmcut.gen_erdos_renyi(1000, 3000, sign=-1, seed=0), False),
    ], ids=["dense", "escape", "sparse"])
    def test_workload_class(self, inst, complete):
        # each benchmark workload's kind of instance: the Gaussian ones take
        # LAPACK's pair, the sparse ER one the recurrence
        point = manifold.random_point(inst.n, 4, np.random.default_rng(0))
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        assert inst.complete == complete
        assert (cert.iterations == 0) == complete

    def test_dense_path_working_memory(self):
        # A - Lambda is scaled and solved in place in one n x n copy; an
        # out-of-place quotient or a Fortran copy for LAPACK would each add
        # n^2 doubles
        inst = bmcut.gen_gaussian(400, seed=0)
        point = manifold.random_point(400, 8, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        tracemalloc.start()
        try:
            certify.dual_upper_bound(inst, point, cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * inst.n**2

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
        data = json.loads(json.dumps(cert.as_dict(), sort_keys=True))
        assert set(data) == {"lam", "upper_bound", "slack", "gap",
                             "iterations"}
        assert len(data["lam"]) == 3
        assert data["iterations"] == 0   # the triangle takes LAPACK's pair


class TestLeadingPair:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 9), r=st.integers(2, 4), seed=st.integers(0, 2**16),
           deficient=st.booleans(), gaussian=st.booleans())
    def test_bounds_tangent_hessian(self, n, r, seed, deficient, gaussian):
        # <U, Hess[U]> = 2 tr(U^T (A - Lambda) U), so 2 theta bounds the
        # curvature; at a rank-deficient point v z^T is tangent and attains it
        rng = np.random.default_rng(seed)
        inst = (bmcut.gen_gaussian(n, seed) if gaussian else
                bmcut.gen_erdos_renyi(n, n * (n - 1) // 3 + 1, -1, seed))
        if deficient:   # rows in a random (r-1)-dimensional subspace
            rows = manifold.random_point(n, r - 1, rng).sigma
            q = np.linalg.qr(rng.standard_normal((r, r)))[0]
            point = FactorPoint(np.pad(rows, ((0, 0), (0, 1))) @ q)
            z = q[-1]
        else:
            point = manifold.random_point(n, r, rng)
        cache = bcm.init_cache(inst, point)
        theta, v = certify.leading_pair(inst, cache.inner)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        top = np.linalg.eigvalsh(oracles.dense_tangent_hessian(inst,
                                                               point.sigma))[-1]
        tol = 1e-10 * max(1.0, inst.one_norm)
        assert 2.0 * theta >= top - tol
        if deficient:
            assert 2.0 * theta == pytest.approx(top, abs=tol)
            u = manifold._project_rows(point.sigma, np.outer(v, z))
            assert manifold.hess_quadratic(inst, point, u, cache) \
                == pytest.approx(2.0 * theta, abs=tol)

    @pytest.mark.parametrize("inst, r", [
        (bmcut.gen_gaussian(30, seed=2), 4),
        (bmcut.gen_erdos_renyi(250, 750, sign=-1, seed=5), 5),
        (bmcut.gen_gaussian(240, seed=4), 22),
    ], ids=["dense-eigh", "lanczos", "dense-eigh-above-limit"])
    def test_slack_is_theta(self, inst, r):
        # the certificate and the escape read one eigensolve on a complete
        # instance, and the certificate the recurrence's theta on all others
        point = manifold.random_point(inst.n, r, np.random.default_rng(3))
        cache = bcm.init_cache(inst, point)
        cert = certify.dual_upper_bound(inst, point, cache)
        if inst.complete:
            theta, steps = certify.leading_pair(inst, cache.inner)[0], 0
        else:
            theta, steps = certify.top_ritz_value(inst, cache.inner)
        assert (cert.slack, cert.iterations) == (theta, steps)

    @pytest.mark.parametrize("n", [200, 240, 300])
    def test_repeated_top_eigenvalue(self, tmp_path, n):
        # A - Lambda = n I - J: LAPACK's one-pair solve can return no pair
        # for its (n - 1)-fold top eigenvalue (at n = 200 and 300 with one
        # BLAS thread, at 240 with two), and the full solve then gives it
        inst = negated_complete(n)
        point = FactorPoint(np.tile([1.0, 0.0, 0.0], (n, 1)))
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        assert abs(cert.slack - n) <= 1e-12 * n
        graph, pt = tmp_path / "k.mtx", tmp_path / "eq.csv"
        bmcut.write_matrix_market(inst, str(graph))
        bmcut.save_point(point, str(pt))
        assert cli.main(["certify", "--mtx", str(graph),
                         "--point", str(pt)]) == 0

    def test_full_solve_where_one_pair_gives_none(self, monkeypatch):
        # the one-pair solve returns no pair after overwriting its input:
        # the full solve runs on a new copy of A - Diag(lam)
        real = scipy.linalg.eigh

        def no_pair(a, subset_by_index=None, **kwargs):
            if subset_by_index is None:
                return real(a, **kwargs)
            a[...] = np.nan
            return np.empty(0), np.empty((a.shape[0], 0))

        monkeypatch.setattr(scipy.linalg, "eigh", no_pair)
        inst = bmcut.gen_gaussian(30, seed=0)
        lam = np.random.default_rng(1).standard_normal(30)
        theta, v = certify.leading_pair(inst, lam)
        m = inst.dense()
        m[np.diag_indices(30)] -= lam
        tol = 1e-12 * inst.one_norm
        assert abs(theta - np.linalg.eigvalsh(m)[-1]) <= tol
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(m @ v - theta * v) <= 1e-10 * inst.one_norm


class TestRitzValueAccuracy:
    """The recurrence's theta against LAPACK's, to 1e-8 |A|_1, the scale of
    its stopping test and of the benchmark's bound check."""

    @staticmethod
    def assert_close(inst, lam, cluster=1):
        theta, steps = certify.top_ritz_value(inst, lam)
        m = inst.dense()
        m[np.diag_indices(inst.n)] -= lam
        vals = scipy.linalg.eigvalsh(m)
        assert abs(theta - vals[-1]) <= 1e-8 * inst.one_norm
        assert (vals >= vals[-1] - 1e-3 * inst.one_norm).sum() >= cluster
        assert 1 <= steps < certify.MAX_LANCZOS_STEPS
        return theta, steps

    def test_er_random_point(self):
        inst = bmcut.gen_erdos_renyi(300, 900, sign=-1, seed=0)
        point = manifold.random_point(300, 25, np.random.default_rng(0))
        self.assert_close(inst, bcm.init_cache(inst, point).inner)

    def test_er_greedy_iterate(self):
        # the sparse benchmark's kind of iterate: greedy, 9 epochs.  theta's
        # bits and step count pin the recurrence: a kernel that reorders an
        # operation moves them
        inst = bmcut.gen_erdos_renyi(1000, 3000, sign=-1, seed=0)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=9, grad_tol=0.0,
                               seed=0)
        point, _ = bcm.run(inst, cfg, r=45)
        theta, steps = self.assert_close(inst,
                                         bcm.init_cache(inst, point).inner)
        assert (theta.hex(), steps) == ("0x1.efbce3ad3872ep-4", 144)

    def test_er_near_stationary_cluster(self):
        # cyclic iterates: several eigenvalues of A - Lambda sit within
        # 1e-3 |A|_1 of the top one, the cluster a Krylov method must
        # resolve (ER n = 3000 takes 325 steps and has 7 in it)
        for n, epochs, r in ((300, 200, 25), (3000, 30, 78)):
            inst = bmcut.gen_erdos_renyi(n, 3 * n, sign=-1, seed=0)
            cfg = bcm.SolverConfig(rule="cyclic", max_epochs=epochs,
                                   grad_tol=0.0, seed=0)
            point, _ = bcm.run(inst, cfg, r=r)
            self.assert_close(inst, bcm.init_cache(inst, point).inner,
                              cluster=5)

    def test_gaussian_pair_zeroed(self):
        inst = gaussian_pair_zeroed(500, 3)
        point = manifold.random_point(500, 32, np.random.default_rng(0))
        self.assert_close(inst, bcm.init_cache(inst, point).inner)

    @pytest.mark.parametrize("levels, steps", [((0.0,), 1), ((1.0, 3.0), 2)])
    def test_breakdown_is_exact(self, levels, steps):
        # A = 0 and lam with d distinct values: the Krylov space of any start
        # has dimension d, so beta_d breaks down and T_d holds the spectrum
        inst = bmcut.preprocess(sp.csr_array((300, 300)))
        assert not inst.complete
        lam = np.repeat(levels, 300 // len(levels))
        theta, k = certify.top_ritz_value(inst, lam)
        assert k == steps
        assert theta == pytest.approx(-min(levels), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 40), k=st.integers(-400, 400),
           seed=st.integers(0, 2**32 - 1))
    @example(data=None, n=2, k=0, seed=0)
    def test_small_incomplete(self, data, n, k, seed):
        # the small incomplete instances the recurrence serves alone: random
        # patterns with isolated rows and disconnected parts at a random
        # point, and near-complete unweighted ER graphs at the all-equal
        # point, whose spectra are degenerate; A scaled by 2^k.  The example
        # is n = 2 with a zero off-diagonal
        rng = np.random.default_rng(seed)
        if data is None:
            a, point = np.zeros((2, 2)), FactorPoint(np.eye(2))
        elif data.draw(st.booleans(), label="er"):
            pairs = n * (n - 1) // 2
            assume(pairs >= 2)
            edges = data.draw(st.integers(max(1, pairs - 2 * n), pairs - 1),
                              label="edges")
            a = bmcut.gen_erdos_renyi(n, edges, -1, seed).dense()
            point = FactorPoint(np.tile([1.0, 0.0, 0.0], (n, 1)))
        else:
            density = data.draw(st.floats(0.0, 1.0), label="density")
            a = np.triu(rng.standard_normal((n, n))
                        * (rng.random((n, n)) < density), 1)
            a[0, 1] = 0.0
            parts = data.draw(st.integers(1, n), label="parts")
            a[:parts, parts:] = 0.0   # rows < parts apart from the rest
            a += a.T
            point = manifold.random_point(n, data.draw(st.integers(2, 5)),
                                          rng)
        inst = bmcut.preprocess(a * 2.0**k)
        assert not inst.complete
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        m = inst.dense()
        m[np.diag_indices(n)] -= cert.lam
        assert abs(cert.slack - np.linalg.eigvalsh(m)[-1]) \
            <= 1e-8 * inst.one_norm
        assert cert.iterations > 0

    def test_planted_optimum(self):
        # Lambda(x) at the planted cut: lambda_max(A - Lambda) = 0 exactly
        planted = oracles.planted_instance(2000, seed=1)
        inst, x = planted.instance, planted.signs
        theta, _ = certify.top_ritz_value(inst, x * (inst.rows @ x))
        assert abs(theta) <= 1e-8 * inst.one_norm


def padded(point, r):
    """The point with zero columns appended up to rank r: the same Gram
    matrix, so the same cache and bound, at a larger rank."""
    return FactorPoint(np.pad(point.sigma, ((0, 0), (0, r - point.r))))


def cert_at(instance, point):
    return certify.dual_upper_bound(instance, point,
                                    bcm.init_cache(instance, point))


class TestApproxReport:
    # every field of the report, notes included, at the triangle's optimum
    # and at its saddle: the dense eigensolve's slack, the bound, the floors
    # at each rank and epsilon, and the labels
    DIGESTS = {
        ("optimum", 2, 0.1):
            "71c7eb8c7c19a64a95e9dc06bf45556d5306d92c053f6271e5b1795b4371ac96",
        ("optimum", 3, 0.01):
            "2c542ed2da4e91828bfa24238cd11ae74f816785ea64d19b374b777c20de69f0",
        ("optimum", 11, 0.0):
            "cea42fa93e8602f56081d5450488601008d399df1c48988c53632f07de6f801e",
        ("saddle", 4, 0.05):
            "d3625e3ddaa5a45e7f0a4ab05bd888c713f7798767186a54502984861f35bcd3",
    }

    @pytest.mark.parametrize("start, r, epsilon", list(DIGESTS))
    def test_report_from_certificate(self, triangle, triangle_optimum,
                                     triangle_saddle, start, r, epsilon):
        point = padded(triangle_optimum if start == "optimum"
                       else triangle_saddle, r)
        rep = certify.approx_report(triangle, point, cert_at(triangle, point),
                                    epsilon)
        assert rep["f_raw"] == bcm.init_cache(triangle, point).objective()
        text = json.dumps(rep, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == self.DIGESTS[start, r,
                                                                epsilon]

    def test_r2_floor_vacuous(self, triangle, triangle_optimum):
        cert = cert_at(triangle, triangle_optimum)
        rep = certify.approx_report(triangle, triangle_optimum, cert,
                                    epsilon=0.1)
        assert rep["r"] == 2
        assert rep["floor_concave_vacuous"] is True
        assert rep["floor_concave"] == pytest.approx(-3 * 0.1 / 2, abs=1e-9)
        assert rep["ratio_vs_bound"] == pytest.approx(1.0, abs=1e-9)

    def test_r11_two_sided_factor(self, triangle, triangle_optimum):
        point = padded(triangle_optimum, 11)
        cert = cert_at(triangle, point)
        rep = certify.approx_report(triangle, point, cert, epsilon=0.0)
        assert rep["r"] == 11
        assert rep["floor_two_sided"] == pytest.approx(0.8 * rep["upper_bound"])
        assert rep["floor_concave"] == pytest.approx(0.9 * rep["upper_bound"])

    def test_labels_present(self, triangle, triangle_optimum):
        point = padded(triangle_optimum, 3)
        cert = cert_at(triangle, point)
        rep = certify.approx_report(triangle, point, cert, epsilon=0.01)
        assert rep["r"] == 3
        assert rep["floor_concave_vacuous"] is False
        assert rep["guarantees"] == ["upper_bound"]
        assert "floor_concave" in rep["diagnostics"]
        assert any("positive semidefinite" in n for n in rep["notes"])
        # theta comes from the eigensolver with no margin added
        assert not any("unconditional" in n for n in rep["notes"])

    def test_r_below_two_rejected(self, triangle):
        point = FactorPoint(np.array([[1.0], [-1.0], [1.0]]))
        cert = cert_at(triangle, point)
        with pytest.raises(ValidationError, match="r = 1"):
            certify.approx_report(triangle, point, cert, epsilon=0.1)

    @pytest.mark.parametrize("epsilon", [-5.0, -1e-300, float("inf"),
                                         float("nan"), 1e308])
    def test_bad_epsilon_rejected(self, triangle, triangle_optimum, epsilon):
        # a negative epsilon raised floor_concave above its epsilon = 0 value;
        # inf, nan and an overflowing n * epsilon made it non-JSON
        cert = cert_at(triangle, triangle_optimum)
        with pytest.raises(ValidationError,
                           match=re.escape(f"got {epsilon!r}")):
            certify.approx_report(triangle, triangle_optimum, cert, epsilon)


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
        point = FactorPoint(np.array([[1.0], [-1.0]]))
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

    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(10, seed=0),
        bmcut.gen_erdos_renyi(10, 15, sign=-1, seed=0),
    ], ids=["complete", "csr"])
    def test_size_mismatch_refused_before_drawing(self, inst):
        point = manifold.random_point(12, 3, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        state = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(ValidationError,
                           match="point has 12 rows, instance has 10"):
            certify.round_cut(inst, point, 40, rng)
        assert rng.bit_generator.state == state

    def test_cut_value_size_mismatch(self):
        inst = bmcut.gen_gaussian(10, seed=0)
        with pytest.raises(ValidationError,
                           match="sign vector has 7 rows, instance has 10"):
            certify.cut_value(inst, np.ones(7))

    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(240, seed=0),
        bmcut.gen_erdos_renyi(240, 720, sign=-1, seed=0),
    ], ids=["complete", "csr"])
    def test_scores_by_the_stored_rows(self, monkeypatch, inst):
        # either storage scores the chunks as it is: no dense copy of A,
        # whose 8 n^2 bytes would triple the 2 n k doubles of a chunk of
        # k = 32 trials at n = 240
        def copy_of_a(self):
            raise AssertionError("round_cut made a dense copy of A")

        monkeypatch.setattr(bmcut.ProblemInstance, "dense", copy_of_a)
        point = manifold.random_point(240, 22, np.random.default_rng(0))
        tracemalloc.start()
        try:
            certify.round_cut(inst, point, 1000, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * inst.n * 32 * 8


class DrawQueue:
    """Stands in for a Generator: hands out fixed normals in draw order,
    whatever shape each call asks for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.pos = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.pos:self.pos + count].reshape(size).copy()
        self.pos += count
        return out


def assert_same_cut(a, b):
    assert np.array_equal(a.signs, b.signs)
    assert a.value == b.value


class TestRoundingMatchesReference:
    """round_cut scores chunks of trials at once; the per-trial loop in
    oracles.round_cut_reference is what it must reproduce exactly."""

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("trials", [1, 31, 32, 33, 1000])
    def test_signs_value_and_stream(self, trials, r):
        inst = bmcut.gen_gaussian(30, seed=7 + r)
        point = manifold.random_point(30, r, np.random.default_rng(r))
        fast_rng, ref_rng = (np.random.default_rng(11) for _ in range(2))
        fast = certify.round_cut(inst, point, trials, fast_rng)
        ref = oracles.round_cut_reference(inst, point, trials, ref_rng)
        assert_same_cut(fast, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_two_nodes(self, edge2):
        point = manifold.random_point(2, 3, np.random.default_rng(4))
        fast = certify.round_cut(edge2, point, 33, np.random.default_rng(2))
        ref = oracles.round_cut_reference(edge2, point, 33,
                                          np.random.default_rng(2))
        assert_same_cut(fast, ref)

    def test_identical_rows(self):
        inst = bmcut.gen_erdos_renyi(16, 30, sign=-1, seed=3)
        sigma = manifold.random_point(16, 4, np.random.default_rng(5)).sigma
        sigma[8:] = sigma[0]
        point = FactorPoint(sigma)
        for trials in (32, 100):
            fast = certify.round_cut(inst, point, trials,
                                     np.random.default_rng(6))
            ref = oracles.round_cut_reference(inst, point, trials,
                                              np.random.default_rng(6))
            assert_same_cut(fast, ref)
            assert len(set(fast.signs[8:])) == 1

    def test_zero_direction_is_all_plus_trial(self):
        # a zero draw projects every row to 0, and sign(0) := +1 makes it the
        # all-+1 trial; the other draws are orthogonal to both rows and give
        # it too.  Taking the zero draw as e_1 would cut the edge (value 2)
        inst = bmcut.preprocess([[0.0, -1.0], [-1.0, 0.0]])
        point = FactorPoint(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        draws = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        fast_rng, ref_rng = DrawQueue(draws), DrawQueue(draws)
        fast = certify.round_cut(inst, point, 3, fast_rng)
        ref = oracles.round_cut_reference(inst, point, 3, ref_rng)
        assert_same_cut(fast, ref)
        assert np.array_equal(fast.signs, [1.0, 1.0])
        assert fast.value == -2.0
        assert fast_rng.pos == ref_rng.pos == len(draws)

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("trials", [1, 33, 1000])
    @pytest.mark.parametrize("inst", [
        gaussian_pair_zeroed(30, seed=8),
        bmcut.preprocess(np.zeros((1, 1))),
    ], ids=["csr_path", "single_node"])
    def test_signs_value_and_stream_other_paths(self, inst, trials, r):
        point = manifold.random_point(inst.n, r, np.random.default_rng(r))
        fast_rng, ref_rng = (np.random.default_rng(11) for _ in range(2))
        fast = certify.round_cut(inst, point, trials, fast_rng)
        ref = oracles.round_cut_reference(inst, point, trials, ref_rng)
        assert_same_cut(fast, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_working_memory_bounded_by_chunk(self):
        # a chunk holds about 2 n k doubles for k = 32 trials: 0.5 MB here,
        # under the ~0.7 MB that rounding adds at most to a solve of this size
        # today.  Chunks of r = 45 trials, or all 1000 at once, do not fit.
        inst = bmcut.gen_erdos_renyi(1000, 3000, -1, 0)
        point = manifold.random_point(1000, 45, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            certify.round_cut(inst, point, 1000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * inst.n * 32 * 8


@st.composite
def split_graphs(draw):
    """Signed graphs on at most 12 nodes: two or three components that each
    hold a path plus random chords, and at least one isolated node, under a
    random relabelling."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)
                 .filter(lambda s: sum(s) <= 11))
    isolated = draw(st.integers(1, 12 - sum(sizes)))
    n = sum(sizes) + isolated
    label = draw(st.permutations(range(n)))
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                if j == i + 1 or draw(st.booleans()):
                    w = draw(st.sampled_from([-1.0, 1.0]))
                    a[label[i], label[j]] = a[label[j], label[i]] = w
        start += size
    return bmcut.preprocess(a)


class TestRoundingSandwich:
    @settings(max_examples=40, deadline=None)
    @given(inst=split_graphs(), seed=st.integers(0, 2**16))
    def test_cut_le_brute_le_bound(self, inst, seed):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=200, seed=seed)
        point, _ = bcm.run(inst, cfg, r=3)
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        brute = oracles.brute_force_best_cut(inst)
        cut = certify.round_cut(inst, point, 64, np.random.default_rng(seed))
        assert cut.value <= brute.value
        assert brute.value <= cert.upper_bound + 1e-9 * inst.n
        assert certify.cut_value(inst, cut.signs) == cut.value


class TestBruteForce:
    def test_triangle(self, triangle):
        cut = oracles.brute_force_best_cut(triangle)
        assert cut.value == 2.0
        assert cut.signs[0] == 1.0

    def test_single_edge(self, edge2):
        cut = oracles.brute_force_best_cut(edge2)
        assert cut.value == 2.0
        assert np.array_equal(cut.signs, [1.0, 1.0])

    def test_matches_plain_enumeration(self):
        for seed in range(5):
            inst = bmcut.gen_erdos_renyi(9, 14, sign=-1, seed=seed)
            fast = oracles.brute_force_best_cut(inst)
            assert fast.value == pytest.approx(
                oracles.exhaustive_best_cut(inst), abs=1e-10)
            assert certify.cut_value(inst, fast.signs) == pytest.approx(
                fast.value, abs=1e-10)

    def test_size_cap(self):
        inst = bmcut.gen_erdos_renyi(25, 30, sign=-1, seed=0)
        with pytest.raises(ValidationError):
            oracles.brute_force_best_cut(inst)

    def test_below_dual_bound(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            inst = bmcut.gen_erdos_renyi(10, 20, sign=-1, seed=seed + 40)
            point = manifold.random_point(10, 4, rng)
            cache = bcm.init_cache(inst, point)
            cert = certify.dual_upper_bound(inst, point, cache)
            brute = oracles.brute_force_best_cut(inst)
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


@pytest.mark.parametrize("n, r", [(200, 20), (2000, 64)])
class TestPlanted:
    """oracles.planted_instance's optimum is known, so the solver, the bound
    and the cut are checked against it, not against each other."""

    def test_optimum_is_proven(self, n, r):
        planted = oracles.planted_instance(n, seed=1)
        col = np.zeros(n)
        col[0] = 2.0 * planted.offsets.size
        col[planted.offsets] = col[n - planted.offsets] = -1.0
        lam2 = scipy.linalg.eigvalsh(scipy.linalg.circulant(col))[1]
        assert lam2 == pytest.approx(planted.lambda2, abs=1e-10)
        inst, x = planted.instance, planted.signs
        assert x @ (inst.rows @ x) == planted.optimum
        m = inst.dense()
        m[np.diag_indices(n)] -= x * (m @ x)
        second, top = scipy.linalg.eigh(m, eigvals_only=True,
                                        subset_by_index=[n - 2, n - 1])
        assert abs(top) <= 1e-12 * inst.one_norm
        assert second <= 2.0 - planted.lambda2 + 1e-9   # 0 is simple

    def test_solve_bound_and_cut_meet_the_optimum(self, n, r):
        planted = oracles.planted_instance(n, seed=1)
        inst, opt = planted.instance, planted.optimum
        for epochs in (1, 3):
            # a misconverged theta would show as a bound under the optimum
            cfg = bcm.SolverConfig(rule="cyclic", max_epochs=epochs, seed=0)
            point, _ = bcm.run(inst, cfg, r=r)
            assert cert_at(inst, point).upper_bound >= opt
        point, trace = bcm.run(inst, bcm.SolverConfig(rule="cyclic", seed=0),
                               r=r)
        assert trace.status == "converged"
        f = trace.final().f_raw
        assert f <= opt
        assert (opt - f) / opt <= 1e-6
        # converged, U and OPT agree to rounding, in either order
        assert abs(cert_at(inst, point).upper_bound - opt) <= 1e-9 * opt
        cut = certify.round_cut(inst, point, 100, np.random.default_rng(0))
        assert cut.value <= opt


@pytest.mark.parametrize("source, found", [
    ("from .certify import RITZ_TOL as TOL\n", True),
    ("tol = certify.RITZ_TOL\n", True),
    ("RITZ_TOL = 1e-8\n", True),
    ("# RITZ_TOL\nx = 'RITZ_TOL'\n", False)],
    ids=["import", "attribute", "assignment", "comment"])
def test_checker_finds_names(source, found):
    assert bool(scopes(source, lambda node: named(node, {"RITZ_TOL"}))) == found


@pytest.mark.parametrize("name", ["eigh", "daxpy", "dstebz", "dstein",
                                  "eigh_tridiagonal"])
def test_certify_alone_names(name):
    # the eigensolvers row of RULES, one name at a time
    row = RULES["eigensolvers"]._replace(
        match=lambda node: named(node, {name}))
    assert breaches(row, SOURCES) == set()
