import copy
import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bmcut
from bmcut import FactorPoint, ValidationError, bcm, escape, manifold

import oracles
from conftest import small_corpus


def six():
    """A Gaussian n = 6 instance, a rank-2 point and its cache."""
    inst = bmcut.gen_gaussian(6, 0)
    point = manifold.random_point(6, 2, np.random.default_rng(0))
    return inst, point, bcm.init_cache(inst, point)


class TestInitCache:
    def test_zero_instance(self):
        inst = bmcut.preprocess(np.zeros((5, 5)))
        point = manifold.random_point(5, 3, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        assert np.array_equal(cache.g, np.zeros((5, 3)))
        assert np.array_equal(cache.norms, np.zeros(5))
        assert cache.objective() == 0.0

    def test_single_edge(self, edge2):
        point = manifold.random_point(2, 2, np.random.default_rng(1))
        cache = bcm.init_cache(edge2, point)
        assert np.allclose(cache.g[0], point.sigma[1])
        assert np.allclose(cache.g[1], point.sigma[0])

    def test_triangle_all_equal(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        assert np.allclose(cache.g, -2.0 * triangle_saddle.sigma)
        assert np.allclose(cache.norms, 2.0)
        assert np.allclose(cache.inner, -2.0)

    def test_shape_mismatch(self, triangle):
        point = manifold.random_point(4, 2, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            bcm.init_cache(triangle, point)


class TestSelect:
    def test_greedy_tie_lowest_index(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        scores = cache.norms - cache.inner
        assert np.allclose(scores, 4.0)
        i = bcm.select_coordinate("greedy", cache, np.random.default_rng(0))
        assert i == 0

    def test_importance_zero_norm_fallback(self):
        inst = bmcut.preprocess(np.zeros((6, 6)))
        point = manifold.random_point(6, 2, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        rng = np.random.default_rng(5)
        seen = {bcm.select_coordinate("importance", cache, rng)
                for _ in range(10_000)}
        assert seen == set(range(6))

    def test_importance_proportional(self):
        # two rows with 3:1 norm ratio
        cache = bcm.GradientCache(
            g=np.array([[3.0, 0.0], [1.0, 0.0]]),
            norms=np.array([3.0, 1.0]),
            inner=np.zeros(2))
        rng = np.random.default_rng(17)
        draws = np.array([bcm.select_coordinate("importance", cache, rng)
                          for _ in range(20_000)])
        frac = (draws == 0).mean()
        assert abs(frac - 0.75) < 0.02

    def test_uniform_reproducible(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        s1 = [bcm.select_coordinate("uniform", cache, rng1) for _ in range(50)]
        s2 = [bcm.select_coordinate("uniform", cache, rng2) for _ in range(50)]
        assert s1 == s2

    def test_cyclic_order(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        rng = np.random.default_rng(0)
        idx = [bcm.select_coordinate("cyclic", cache, rng, step=s)
               for s in range(7)]
        assert idx == [0, 1, 2, 0, 1, 2, 0]

    def test_unknown_rule(self, triangle, triangle_saddle):
        cache = bcm.init_cache(triangle, triangle_saddle)
        with pytest.raises(ValidationError):
            bcm.select_coordinate("steepest", cache, np.random.default_rng(0))


class TestStep:
    def test_single_edge_alignment(self, edge2):
        rng = np.random.default_rng(7)
        point = manifold.random_point(2, 2, rng)
        cache = bcm.init_cache(edge2, point)
        dot_before = float(point.sigma[0] @ point.sigma[1])
        ascent = bcm.bcm_step(edge2, point, cache, 0)
        assert ascent == pytest.approx(2.0 * (1.0 - dot_before), abs=1e-12)
        assert np.allclose(point.sigma[0], point.sigma[1])
        assert oracles.f_dense(edge2, point.sigma) == pytest.approx(2.0,
                                                                    abs=1e-12)

    def test_triangle_from_saddle(self, triangle, triangle_saddle):
        point = triangle_saddle.copy()
        cache = bcm.init_cache(triangle, point)
        ascent = bcm.bcm_step(triangle, point, cache, 0)
        assert ascent == 8.0
        assert np.allclose(point.sigma[0], [-1.0, 0.0])
        assert oracles.f_dense(triangle, point.sigma) == pytest.approx(2.0)

    def test_stationary_row_untouched(self, edge2):
        sig = np.tile([0.6, 0.8], (2, 1))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        point = FactorPoint(sig)
        cache = bcm.init_cache(edge2, point)
        before = point.sigma.copy()
        assert bcm.bcm_step(edge2, point, cache, 0) == 0.0
        assert np.array_equal(point.sigma, before)

    def test_zero_norm_row_skipped(self):
        inst = bmcut.preprocess(np.zeros((3, 3)))
        point = manifold.random_point(3, 2, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        before = point.sigma.copy()
        assert bcm.bcm_step(inst, point, cache, 1) == 0.0
        assert np.array_equal(point.sigma, before)

    def test_underflowing_norm_row_skipped(self):
        # entries near 1e-170: each |g_i|^2 underflows, so |g_i| = 0 while
        # g_i and <sigma_i, g_i> are not zero; a step would divide by 0
        inst = bmcut.preprocess(bmcut.gen_gaussian(6, seed=0).dense() * 1e-170)
        point = manifold.random_point(6, 3, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        assert np.all(cache.norms == 0.0) and np.any(cache.inner < 0.0)
        before = point.sigma.copy()
        for i in range(6):
            assert bcm.bcm_step(inst, point, cache, i) == 0.0
        assert np.array_equal(point.sigma, before)

    def test_index_out_of_range(self, edge2):
        point = manifold.random_point(2, 2, np.random.default_rng(0))
        cache = bcm.init_cache(edge2, point)
        with pytest.raises(ValidationError):
            bcm.bcm_step(edge2, point, cache, 2)

    @pytest.mark.parametrize("i", [
        1.5, np.float64(2.0), True, np.True_, -1, 12, "1", np.array([1]),
    ], ids=["float", "np_float", "bool", "np_bool", "negative", "n", "str",
            "array"])
    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(12, 0), bmcut.gen_erdos_renyi(12, 30, -1, 0),
    ], ids=["gaussian", "erdos_renyi"])
    def test_non_index_refused_untouched(self, inst, i):
        point = manifold.random_point(12, 3, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        before = _state_bytes(point, cache)
        with pytest.raises(ValidationError, match="row index"):
            bcm.bcm_step(inst, point, cache, i)
        assert _state_bytes(point, cache) == before

    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(12, 0), bmcut.gen_erdos_renyi(12, 30, -1, 0),
    ], ids=["gaussian", "erdos_renyi"])
    def test_numpy_integer_index_steps_as_int(self, inst):
        states = []
        for i in (3, np.int64(3), np.intp(3), np.array(3)):
            point = manifold.random_point(12, 3, np.random.default_rng(0))
            cache = bcm.init_cache(inst, point)
            ascent = bcm.bcm_step(inst, point, cache, i)
            assert type(ascent) is float and ascent > 0.0
            states.append((ascent, _state_bytes(point, cache)))
        assert all(s == states[0] for s in states)

    def test_ascent_identity_against_dense(self):
        for inst in small_corpus(sizes=(10, 20), seeds=(0,)):
            rng = np.random.default_rng(3)
            point = manifold.random_point(inst.n, 4, rng)
            cache = bcm.init_cache(inst, point)
            for step in range(200):
                i = bcm.select_coordinate("uniform", cache, rng)
                f_before = oracles.f_dense(inst, point.sigma)
                predicted = bcm.bcm_step(inst, point, cache, i)
                f_after = oracles.f_dense(inst, point.sigma)
                assert f_after - f_before == pytest.approx(predicted, abs=1e-9)

    def test_cache_consistent_after_many_steps(self):
        inst = bmcut.gen_gaussian(30, seed=9)
        rng = np.random.default_rng(4)
        point = manifold.random_point(30, 6, rng)
        cache = bcm.init_cache(inst, point)
        for step in range(500):
            i = bcm.select_coordinate("uniform", cache, rng)
            bcm.bcm_step(inst, point, cache, i)
        fresh = bcm.init_cache(inst, point)
        scale = max(1.0, np.abs(fresh.g).max())
        assert np.abs(cache.g - fresh.g).max() / scale < 1e-9
        assert np.allclose(cache.norms, fresh.norms, atol=1e-9)
        assert np.allclose(cache.inner, fresh.inner, atol=1e-9)
        # norms and inner stay consistent with the cache's own g rows
        assert np.allclose(cache.norms, np.linalg.norm(cache.g, axis=1),
                           atol=1e-12)
        assert np.allclose(cache.inner,
                           np.einsum("ij,ij->i", point.sigma, cache.g),
                           atol=1e-12)

    def test_norm_bound(self):
        for inst in small_corpus(sizes=(10, 50), seeds=(0,)):
            rng = np.random.default_rng(11)
            point = manifold.random_point(inst.n, 5, rng)
            cache = bcm.init_cache(inst, point)
            for step in range(300):
                i = bcm.select_coordinate("greedy", cache, rng)
                bcm.bcm_step(inst, point, cache, i)
                assert cache.norms.max() <= inst.one_norm + 1e-12


def _partial_gaussian(n, seed):
    """A Gaussian instance whose node 0 loses half of its edges: row 0 and
    the rows it lost are partial, every other row is full."""
    a = bmcut.gen_gaussian(n, seed).dense()
    a[0, 1::2] = a[1::2, 0] = 0.0
    return bmcut.preprocess(a)


def _star_plus_edges(n, seed):
    """Node 0 joined to every other node (a full row), plus random edges
    among the rest (partial rows)."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    a[0, 1:] = rng.standard_normal(n - 1)
    for _ in range(n):
        j, k = rng.choice(np.arange(1, n), size=2, replace=False)
        a[j, k] = rng.standard_normal()
    return bmcut.preprocess(a + a.T)


def _state_bytes(point, cache):
    return [x.tobytes() for x in (point.sigma, cache.g, cache.norms,
                                  cache.inner)]


class TestFullRowStep:
    """bcm_step updates all of g in place on a complete instance and
    gathers and scatters on any other, full rows included; either way its
    iterates must equal the reference step's bit for bit."""

    @pytest.mark.parametrize("rule", bcm.RULES)
    @pytest.mark.parametrize("r", [3, 5, 45])
    @pytest.mark.parametrize("make", [
        lambda: _partial_gaussian(40, 1),
        lambda: _star_plus_edges(30, 2),
        lambda: bmcut.gen_gaussian(2, 3),
        lambda: bmcut.gen_gaussian(40, 5),
    ], ids=["partial_gaussian", "star_plus_edges", "n2", "gaussian"])
    def test_matches_gather_scatter(self, make, r, rule):
        inst = make()
        n = inst.n
        full = [inst.row(i)[0].size == n - 1 for i in range(n)]
        assert any(full) and inst.complete == all(full)
        point = manifold.random_point(n, r, np.random.default_rng(r))
        cache = bcm.init_cache(inst, point)
        ref_point, ref_cache = point.copy(), copy.deepcopy(cache)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for step in range(4 * n):
            i = bcm.select_coordinate(rule, cache, rng, step=step)
            assert i == bcm.select_coordinate(rule, ref_cache, ref_rng,
                                              step=step)
            ascent = bcm.bcm_step(inst, point, cache, i)
            assert ascent == oracles.bcm_step_reference(inst, ref_point,
                                                        ref_cache, i)
        assert _state_bytes(point, cache) == _state_bytes(ref_point,
                                                          ref_cache)

    @pytest.mark.parametrize("rule", bcm.RULES)
    @pytest.mark.parametrize("make", [
        lambda: _partial_gaussian(40, 1),
        lambda: _star_plus_edges(30, 2),
    ], ids=["partial_gaussian", "star_plus_edges"])
    def test_norms_follow_one_row_formula(self, make, rule):
        # init_cache, refresh_cache and both step paths compute |g_i| by one
        # formula, so the stored norms equal a fresh one bit for bit
        inst = make()
        point = manifold.random_point(inst.n, 5, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)

        def assert_norms_exact():
            fresh = np.sqrt(np.vecdot(cache.g, cache.g))
            assert np.array_equal(cache.norms, fresh)

        assert_norms_exact()
        bcm.refresh_cache(inst, point, cache)
        assert_norms_exact()
        rng = np.random.default_rng(1)
        for step in range(4 * inst.n):
            i = bcm.select_coordinate(rule, cache, rng, step=step)
            bcm.bcm_step(inst, point, cache, i)
        assert_norms_exact()

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 22, 45, 64, 448])
    def test_row_stats_bits_follow_the_row_alone(self, r):
        # the cache takes _row_stats of all rows, of gathered neighbours and
        # of single rows, block_sweep of one 1-D row; one BLAS dot per row
        # must give each row the same bits whichever rows share the call,
        # wherever the row starts and at any scale
        rng = np.random.default_rng(r)
        g, sigma = rng.standard_normal((2, 9, r))
        g[1] *= 2.0**500
        g[2] *= 2.0**-500
        g[4] = 0.0
        norms, inner = bcm._row_stats(g, sigma)
        buf = np.empty(2 * g.size + 1)   # rows one double off their alignment
        g_odd = buf[1:g.size + 1].reshape(g.shape)
        sigma_odd = buf[g.size + 1:].reshape(g.shape)
        g_odd[:], sigma_odd[:] = g, sigma
        rows = np.array([7, 0, 3, 3, 8])
        cases = [(rows, bcm._row_stats(g.take(rows, 0), sigma.take(rows, 0))),
                 (slice(None), bcm._row_stats(g_odd, sigma_odd))]
        for k in range(9):
            cases += [([k], bcm._row_stats(g[k][None], sigma[k][None])),
                      ([k], bcm._row_stats(g_odd[k:k + 1], sigma_odd[k:k + 1]))]
        for idx, (got_norms, got_inner) in cases:
            assert got_norms.tobytes() == norms[idx].tobytes()
            assert got_inner.tobytes() == inner[idx].tobytes()
        for k in range(9):
            for one_row in (bcm._row_stats(g[k], sigma[k]),
                            bcm._row_stats(g_odd[k], sigma_odd[k])):
                assert [type(x) for x in one_row] == [float, float]
                assert (np.array(one_row).tobytes()
                        == np.array([norms[k], inner[k]]).tobytes())

    def test_keeps_negative_zero_in_own_row(self, triangle):
        # g_2 = (-2, -0.0) and sigma_2 = (0, -1): delta_2 = (-1, +1), so
        # g_2 + 0*delta_2 would turn the -0.0 into +0.0
        point = FactorPoint(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]))
        cache = bcm.init_cache(triangle, point)
        cache.g[2, 1] = -0.0
        ref_point, ref_cache = point.copy(), copy.deepcopy(cache)
        assert bcm.bcm_step(triangle, point, cache, 2) == 4.0
        oracles.bcm_step_reference(triangle, ref_point, ref_cache, 2)
        assert np.signbit(cache.g[2, 1])
        assert _state_bytes(point, cache) == _state_bytes(ref_point,
                                                          ref_cache)

    def test_no_dense_copy_of_a(self):
        # a dense n x n copy of A alone would take n^2 * 8 bytes
        n = 400
        inst = bmcut.gen_gaussian(n, 4)
        point = manifold.random_point(n, 8, np.random.default_rng(0))
        cache = bcm.init_cache(inst, point)
        tracemalloc.start()
        try:
            for i in range(50):
                assert bcm.bcm_step(inst, point, cache, i) > 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def run_both(inst, rule, r, epochs=20):
    """bcm.run through block_sweep and through the step-by-step reference.

    The runs stop at the default grad_tol.  Far below it, a row that sits
    d away from its maximizer has the ascent |g_i| d^2, under the rounding
    level of |g_i| once d < 1e-8, so whether it is stepped depends on the
    last bits of g_i: n = 3 runs that go on to 20 epochs end 3e-9 apart."""
    cfg = bcm.SolverConfig(rule=rule, max_epochs=epochs, seed=4)
    blocked = bcm.run(inst, cfg, r=r)
    saved = bcm.block_sweep
    bcm.block_sweep = oracles.block_sweep_reference
    try:
        return blocked, bcm.run(inst, cfg, r=r)
    finally:
        bcm.block_sweep = saved


class TestBlockSweep:
    """block_sweep delays the update of g by up to BLOCK steps but keeps
    every step exact, so it must follow the step-by-step sweep to rounding."""

    @pytest.mark.parametrize("rule", ["cyclic", "uniform"])
    @pytest.mark.parametrize("r", [2, 5, 22])
    @pytest.mark.parametrize("n", [2, 3, 61, 240])
    def test_matches_step_by_step(self, n, r, rule):
        (point, trace), (ref_point, ref) = run_both(bmcut.gen_gaussian(n, 6),
                                                    rule, r)
        assert trace.status == ref.status
        assert np.abs(point.sigma - ref_point.sigma).max() <= 1e-12
        assert ([rec.coords_updated for rec in trace.records]
                == [rec.coords_updated for rec in ref.records])
        assert np.all(np.diff(trace.f_values()) >= 0.0)

    def run_rows(self, inst, rows, r=5):
        point = manifold.random_point(inst.n, r, np.random.default_rng(1))
        cache = bcm.init_cache(inst, point)
        ref_point, ref_cache = point.copy(), copy.deepcopy(cache)
        f0 = cache.objective()
        ascents = bcm.block_sweep(inst, point, cache, rows)
        ref = oracles.block_sweep_reference(inst, ref_point, ref_cache, rows)
        assert np.abs(point.sigma - ref_point.sigma).max() <= 1e-12
        assert np.allclose(ascents, ref, rtol=1e-10, atol=1e-12)
        for got, want in ((cache.g, ref_cache.g), (cache.norms, ref_cache.norms),
                          (cache.inner, ref_cache.inner)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        return f0, ascents, cache

    def test_uniform_block_repeats_row(self):
        # uniform can draw a row twice within one block: its second step
        # must see the first one's change to its own row, and none from A_ii
        inst = bmcut.gen_gaussian(61, 2)
        rows = np.random.default_rng(3).integers(61, size=3 * 61)
        assert any(np.unique(rows[lo:lo + bcm.BLOCK]).size < bcm.BLOCK
                   for lo in range(0, rows.size, bcm.BLOCK))
        _, ascents, _ = self.run_rows(inst, [7, 7, 9, 7] + rows.tolist())
        # as in bcm_step, row 7 is at its maximizer until row 9 moves
        assert ascents[0] > 0.0 and ascents[1] == 0.0 and ascents[3] > 0.0

    def test_csr_rows_match_step_by_step(self):
        # the kernel does not need a complete instance; drive keeps CSR
        # instances on bcm_step only because it is faster there
        inst = bmcut.gen_erdos_renyi(30, 60, sign=-1, seed=4)
        assert not inst.complete
        rows = np.random.default_rng(5).integers(30, size=200)
        self.run_rows(inst, rows, r=4)

    def test_partial_last_block(self):
        n = 2 * bcm.BLOCK + 5
        assert n % bcm.BLOCK
        self.run_rows(bmcut.gen_gaussian(n, 4), list(range(n)) * 2)

    def test_sweep_ascent_identity(self):
        # frozen: the per-step ascents add up to the sweep's objective gain
        inst = bmcut.gen_gaussian(90, 5)
        f0, ascents, cache = self.run_rows(inst, list(range(90)) * 3, r=9)
        gain = cache.objective() - f0
        assert gain > 0.0
        assert abs(ascents.sum() - gain) <= 1e-12 * gain

    @pytest.mark.parametrize("rows", [
        [], [-2], [-1], [3, -1], [10], np.arange(3, 11), [1.0], [True],
        np.array([0, 1], dtype=bool), [[1, 2]], 3, "1",
    ], ids=["empty", "minus_two", "minus_one", "sentinel_last", "n",
            "past_n", "float", "bool", "bool_array", "2d", "scalar", "str"])
    def test_row_indices_checked(self, rows):
        # bcm_step refuses a bad index; block_sweep refuses the whole call
        # before it moves anything, and takes no step for no rows
        inst = bmcut.gen_gaussian(10, 1)
        point = manifold.random_point(10, 3, np.random.default_rng(2))
        cache = bcm.init_cache(inst, point)
        before = _state_bytes(point, cache)
        if isinstance(rows, list) and not rows:
            assert bcm.block_sweep(inst, point, cache, rows).shape == (0,)
        else:
            with pytest.raises(ValidationError, match="rows must be a 1-D"):
                bcm.block_sweep(inst, point, cache, rows)
        assert _state_bytes(point, cache) == before

    def test_complete_instances_skip_bcm_step(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[3])
            return step(*args)

        step = bcm.bcm_step
        monkeypatch.setattr(bcm, "bcm_step", counted)
        cfg = bcm.SolverConfig(rule="cyclic", max_epochs=3, seed=0)
        bcm.run(bmcut.gen_gaussian(40, 1), cfg, r=4)
        assert calls == []   # a refactor must not drop the blocked path
        bcm.run(bmcut.gen_erdos_renyi(40, 120, -1, 1), cfg, r=4)
        assert len(calls) == 3 * 40   # nor may a sparse instance take it


class TestRun:
    def test_single_edge_one_epoch(self, edge2):
        # exactly representable start: the terminal metric is exactly zero
        start = FactorPoint(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cfg = bcm.SolverConfig(rule="cyclic", max_epochs=50, seed=0)
        point, trace = bcm.run(edge2, cfg, initial=start)
        assert trace.final().f_raw == 2.0
        assert trace.final().grad_metric_sq < 1e-20
        assert trace.final().epoch <= 1

        # random starts settle at the float noise floor instead
        point2, trace2 = bcm.run(edge2, cfg, r=2)
        assert trace2.final().f_raw == pytest.approx(2.0, abs=1e-12)
        assert trace2.final().grad_metric_sq < 1e-12
        assert trace2.final().epoch <= 2

    def test_triangle_reaches_angular_optimum(self, triangle):
        opt = oracles.triangle_angular_max(resolution=2e-3)
        for rule in bcm.RULES:
            cfg = bcm.SolverConfig(rule=rule, max_epochs=2000, seed=5)
            _, trace = bcm.run(triangle, cfg, r=2)
            assert trace.final().f_raw == pytest.approx(opt, abs=1e-4)

    def test_trace_monotone_all_rules(self):
        inst = bmcut.gen_gaussian(25, seed=14)
        for rule in bcm.RULES:
            cfg = bcm.SolverConfig(rule=rule, max_epochs=300, seed=2)
            _, trace = bcm.run(inst, cfg, r=7)
            f = trace.f_values()
            assert np.all(np.diff(f) >= 0.0)

    def test_initial_point_not_mutated(self, triangle, triangle_saddle):
        before = triangle_saddle.sigma.copy()
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=10, seed=0)
        bcm.run(triangle, cfg, initial=FactorPoint(before.copy()))
        assert np.array_equal(triangle_saddle.sigma, before)

    def test_greedy_per_step_bound(self):
        inst = bmcut.gen_gaussian(20, seed=8)
        rng = np.random.default_rng(0)
        point = manifold.random_point(20, 5, rng)
        cache = bcm.init_cache(inst, point)
        for step in range(400):
            metric = manifold.grad_metric_sq(cache)
            i = bcm.select_coordinate("greedy", cache, rng)
            ascent = bcm.bcm_step(inst, point, cache, i)
            bound = metric / (2 * inst.n * inst.one_norm)
            assert ascent >= bound - 1e-9

    def test_importance_and_uniform_per_step_inequality(self):
        # the drawn row always satisfies ascent >= (|g|^2 - <s,g>^2)/|g|;
        # expectation-level rates are only reported descriptively
        inst = bmcut.gen_erdos_renyi(15, 40, sign=-1, seed=3)
        averages = {}
        for rule in ("uniform", "importance"):
            rng = np.random.default_rng(6)
            point = manifold.random_point(15, 4, rng)
            cache = bcm.init_cache(inst, point)
            gains, refs = [], []
            for step in range(300):
                metric = manifold.grad_metric_sq(cache)
                i = bcm.select_coordinate(rule, cache, rng)
                ni, ii = cache.norms[i], cache.inner[i]
                ascent = bcm.bcm_step(inst, point, cache, i)
                if ni > 0:
                    assert ascent >= (ni**2 - ii**2) / ni - 1e-12
                gains.append(ascent)
                denom = (2 * inst.n * inst.one_norm if rule == "uniform"
                         else 2 * inst.l11_norm)
                refs.append(metric / denom)
            assert sum(gains) > 0
            averages[rule] = (np.mean(gains), np.mean(refs))
        for rule, (gain, ref) in averages.items():
            print(f"\n  {rule}: mean ascent {gain:.3e}, "
                  f"mean rate-bound term {ref:.3e}")

    def test_config_validates(self):
        with pytest.raises(ValidationError):
            bcm.SolverConfig(max_epochs=0)
        with pytest.raises(ValidationError):
            bcm.SolverConfig(rule="fastest")
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="grad_tol"):
                bcm.SolverConfig(grad_tol=tol)

    def test_configs_are_frozen(self):
        # a field assigned after construction would skip its check and fail
        # later, in drive or trace.write; replace runs the checks again
        cfg, esc = bcm.SolverConfig(), bmcut.EscapeConfig(epsilon=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_epochs = 2.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            esc.epsilon = np.float32(0.1)
        with pytest.raises(ValidationError, match="max_epochs"):
            dataclasses.replace(cfg, max_epochs=2.5)
        with pytest.raises(ValidationError, match="delta"):
            dataclasses.replace(esc, delta=1.0)
        moved = dataclasses.replace(cfg, max_epochs=np.int64(3))
        assert type(moved.max_epochs) is int and cfg.max_epochs == 10_000
        # run_bcm2 runs drive on its own greedy copy of the solver config
        cyclic = bcm.SolverConfig(rule="cyclic", max_epochs=2, seed=0)
        _, trace = bmcut.run_bcm2(bmcut.gen_gaussian(30, 0), cyclic, esc, r=3)
        assert trace.status == "max_epochs" and trace.header["bcm_epochs"] <= 2
        assert cyclic == bcm.SolverConfig(rule="cyclic", max_epochs=2, seed=0)

    @pytest.mark.parametrize("field, make", [
        ("max_epochs", lambda: bcm.SolverConfig(max_epochs=2.5)),
        ("max_epochs", lambda: bcm.SolverConfig(max_epochs="3")),
        ("seed", lambda: bcm.SolverConfig(seed=2.0)),
        ("seed", lambda: bmcut.EscapeConfig(seed=1.5)),
        ("seed", lambda: bmcut.EscapeConfig(seed=np.float64(1.0))),
        ("trials", lambda: bmcut.round_cut(*six()[:2], 10.0,
                                           np.random.default_rng(1))),
        ("max_iters", lambda: escape.lanczos_leading(*six(), 4.0,
                                                     np.random.default_rng(1))),
        ("max_epochs", lambda: bcm.SolverConfig(max_epochs=True)),
        ("seed", lambda: bcm.SolverConfig(seed=False)),
        ("seed", lambda: bmcut.EscapeConfig(seed=True)),
        ("trials", lambda: bmcut.round_cut(*six()[:2], True,
                                           np.random.default_rng(1))),
        ("max_iters", lambda: escape.lanczos_leading(*six(), True,
                                                     np.random.default_rng(1))),
        ("n", lambda: manifold.random_point(2.0, 2, np.random.default_rng(0))),
        ("r", lambda: manifold.random_point(3, np.float64(2.0),
                                            np.random.default_rng(0))),
        ("r", lambda: bcm.run(bmcut.gen_gaussian(6, 0), bcm.SolverConfig(),
                              r=2.0)),
        ("n", lambda: bmcut.gen_gaussian(5.0, 0)),
        ("seed", lambda: bmcut.gen_gaussian(5, np.float64(0.0))),
        ("n", lambda: bmcut.gen_erdos_renyi(10.0, 5, -1, 0)),
        ("edges", lambda: bmcut.gen_erdos_renyi(10, 5.0, -1, 0)),
        ("seed", lambda: bmcut.gen_erdos_renyi(10, 5, -1, 2.0)),
        ("r", lambda: escape.lanczos_budget(bmcut.gen_gaussian(5, 0), 0.1,
                                            0.01, 2.5)),
        ("r", lambda: escape.lanczos_budget(bmcut.gen_gaussian(5, 0), 0.1,
                                            0.01, np.float64(2.0))),
        ("sign", lambda: bmcut.gen_erdos_renyi(6, 4, True, 0)),
        ("sign", lambda: bmcut.gen_erdos_renyi(6, 4, np.float64(-1.0), 0)),
    ], ids=["max_epochs_float", "max_epochs_str", "seed_float",
            "escape_seed_float", "escape_seed_numpy_float", "trials_float",
            "max_iters_float", "max_epochs_bool", "seed_bool",
            "escape_seed_bool", "trials_bool", "max_iters_bool",
            "random_point_n_float", "random_point_r_numpy_float",
            "run_r_float", "gaussian_n_float", "gaussian_seed_numpy_float",
            "erdos_renyi_n_float", "erdos_renyi_edges_float",
            "erdos_renyi_seed_float", "lanczos_budget_r_float",
            "lanczos_budget_r_numpy_float", "erdos_renyi_sign_bool",
            "erdos_renyi_sign_numpy_float"])
    def test_non_integer_counts_refused(self, field, make):
        # refused up front, not by a TypeError in the middle of a run
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            make()

    def test_numpy_integer_counts_stored_as_int(self, tmp_path):
        cfg = bcm.SolverConfig(max_epochs=np.int64(2), seed=np.uint8(3))
        assert type(cfg.max_epochs) is int and type(cfg.seed) is int
        assert type(bmcut.EscapeConfig(seed=np.int32(1)).seed) is int
        zero_d = bcm.SolverConfig(max_epochs=np.array(2), seed=np.array(3))
        assert type(zero_d.max_epochs) is int and type(zero_d.seed) is int
        assert type(bmcut.EscapeConfig(seed=np.array(1)).seed) is int
        assert np.array_equal(
            bmcut.gen_erdos_renyi(np.int64(10), np.array(5), -1,
                                  np.int64(2)).dense(),
            bmcut.gen_erdos_renyi(10, 5, -1, 2).dense())
        budget = escape.lanczos_budget(bmcut.gen_gaussian(np.array(5), 0),
                                       0.1, 0.01, np.int64(3))
        assert budget == escape.lanczos_budget(bmcut.gen_gaussian(5, 0),
                                               0.1, 0.01, 3)
        _, trace = bcm.run(bmcut.gen_gaussian(6, 0), cfg, r=2)
        trace.write(str(tmp_path / "t.jsonl"))   # the header is plain JSON

    @pytest.mark.parametrize("value", [
        True, np.True_, "0.1", 1j, np.array([0.1]), float("nan"), 10**400],
        ids=["bool", "numpy_bool", "str", "complex", "array", "nan", "big_int"])
    @pytest.mark.parametrize("field, make", [
        ("grad_tol", lambda v, _: bcm.SolverConfig(grad_tol=v)),
        ("epsilon", lambda v, _: escape.EscapeConfig(epsilon=v)),
        ("delta", lambda v, _: escape.EscapeConfig(delta=v)),
        ("epsilon", lambda v, s: escape.escape_threshold(s[0], v)),
        ("epsilon", lambda v, s: escape.escape_ascent_floor(s[0], v)),
        ("epsilon", lambda v, s: escape.lanczos_budget(s[0], v, 0.01, 3)),
        ("delta", lambda v, s: escape.lanczos_budget(s[0], 0.1, v, 3)),
        ("epsilon", lambda v, s: escape.second_order_step(
            *s[:3], oracles.random_tangent(s[1], np.random.default_rng(0)), v)),
        ("t", lambda v, s: manifold.exp_map(
            s[1], oracles.random_tangent(s[1], np.random.default_rng(0)), v)),
        ("epsilon", lambda v, s: bmcut.approx_report(
            s[0], s[1], bmcut.dual_upper_bound(*s), v)),
    ], ids=["grad_tol", "config_epsilon", "config_delta", "escape_threshold",
            "escape_ascent_floor", "lanczos_budget_epsilon",
            "lanczos_budget_delta", "second_order_step", "exp_map",
            "approx_report"])
    def test_non_real_parameters_refused(self, field, make, value):
        # bools and arrays passed as numbers, strings and complex numbers
        # raised TypeError, and NaN reached the arithmetic
        with pytest.raises(ValidationError, match=f"{field} must be"):
            make(value, six())

    def test_numpy_reals_stored_as_float(self, tmp_path):
        for x in (np.float32(0.25), np.float64(0.25), 1):
            assert type(bcm.SolverConfig(grad_tol=x).grad_tol) is float
            assert type(escape.EscapeConfig(epsilon=x).epsilon) is float
            assert type(escape.EscapeConfig(delta=x / 2).delta) is float
        # a float32 epsilon set the precision of the escape constants
        inst, eps, delta = bmcut.gen_gaussian(10, 1), np.float32(0.01), np.float32(0.3)
        for fn in (escape.escape_threshold, escape.escape_ascent_floor):
            assert fn(inst, eps) == fn(inst, float(eps))
            assert type(fn(inst, eps)) is float
        assert (escape.lanczos_budget(inst, eps, delta, 3)
                == escape.lanczos_budget(inst, float(eps), float(delta), 3))

        def trace_bytes(eps, delta, tol):
            # a float32 reached the JSON header and failed the write
            _, bcm2 = escape.run_bcm2(inst, bcm.SolverConfig(),
                                      escape.EscapeConfig(eps, delta), r=3)
            _, plain = bcm.run(inst, bcm.SolverConfig(grad_tol=tol), r=3)
            out = []
            for trace in (bcm2, plain):
                for name in ("t.jsonl", "t.csv"):
                    trace.write(str(tmp_path / name))
                    out.append((tmp_path / name).read_bytes())
            return out

        f32 = (np.float32(0.05), delta, np.float32(1e-3))
        assert trace_bytes(*f32) == trace_bytes(*map(float, f32))
        inst, point, cache = six()
        report = bmcut.approx_report(inst, point,
                                     bmcut.dual_upper_bound(inst, point, cache),
                                     np.float32(0.1))
        assert report["epsilon"] == float(np.float32(0.1))
        json.dumps(report)

    def test_run_needs_r_or_initial(self, triangle):
        cfg = bcm.SolverConfig()
        with pytest.raises(ValidationError):
            bcm.run(triangle, cfg)

    @pytest.mark.parametrize("entry", ["start_point", "bcm", "bcm2"])
    def test_initial_and_r_rejected(self, triangle, triangle_saddle, entry):
        # r was silently ignored whenever an initial point was given
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=2)
        with pytest.raises(ValidationError, match="exactly one"):
            if entry == "start_point":
                bcm.start_point(triangle, "bcm", cfg, triangle_saddle, r=5)
            elif entry == "bcm":
                bcm.run(triangle, cfg, initial=triangle_saddle, r=5)
            else:
                bmcut.run_bcm2(triangle, cfg, bmcut.EscapeConfig(epsilon=0.1),
                               initial=triangle_saddle, r=5)

    @pytest.mark.parametrize("method", ["bcm", "bcm2"])
    def test_empty_instance_rejected(self, method):
        # bcm divided by n = 0 in drive; bcm2 returned a "trivial" trace
        inst = bmcut.preprocess(np.zeros((0, 0)))
        cfg = bcm.SolverConfig(max_epochs=2)
        with pytest.raises(ValidationError, match="n = 0"):
            if method == "bcm":
                bcm.run(inst, cfg, r=2)
            else:
                bmcut.run_bcm2(inst, cfg, bmcut.EscapeConfig(), r=2)

    @pytest.mark.parametrize("method", ["bcm", "bcm2"])
    @pytest.mark.parametrize("source", ["drawn", "given"])
    def test_rank_one_rejected(self, method, source):
        inst = bmcut.gen_gaussian(6, seed=0)
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=2)
        start = ({"r": 1} if source == "drawn"
                 else {"initial": FactorPoint(np.ones((6, 1)))})
        with pytest.raises(ValidationError) as exc:
            if method == "bcm":
                bcm.run(inst, cfg, **start)
            else:
                bmcut.run_bcm2(inst, cfg, bmcut.EscapeConfig(epsilon=0.1),
                               **start)
        assert str(exc.value) == "the solvers need r >= 2, got r = 1"

    @pytest.mark.parametrize("r", [0, -1])
    def test_bad_rank_rejected(self, r):
        cfg = bcm.SolverConfig(max_epochs=2)
        with pytest.raises(ValidationError, match="r must be >= 1"):
            bcm.run(bmcut.gen_gaussian(6, seed=0), cfg, r=r)

    @pytest.mark.parametrize("method", ["bcm", "bcm2"])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_unnormal_square_norm_rejected(self, method, scale):
        # |A|_1^2 underflows to 0, is subnormal, or overflows: bcm reported
        # "converged" at its random start (1e-170) or at a 1% dual gap
        # (1e-160), and default_grad_tol raised OverflowError (1e160)
        inst = bmcut.preprocess(bmcut.gen_gaussian(6, seed=0).dense() * scale)
        cfg = bcm.SolverConfig(max_epochs=100)
        with pytest.raises(ValidationError, match="rescale A"):
            if method == "bcm":
                bcm.run(inst, cfg, r=3)
            else:
                bmcut.run_bcm2(inst, cfg, bmcut.EscapeConfig(), r=3)

    def test_zero_instance_runs(self):
        inst = bmcut.preprocess(np.zeros((4, 4)))
        _, trace = bcm.run(inst, bcm.SolverConfig(max_epochs=5), r=2)
        assert trace.status == "converged"
        assert trace.final().f_raw == 0.0

    def test_deterministic_runs(self):
        inst = bmcut.gen_gaussian(18, seed=2)
        cfg = bcm.SolverConfig(rule="uniform", max_epochs=50, seed=33)
        p1, t1 = bcm.run(inst, cfg, r=6)
        p2, t2 = bcm.run(inst, cfg, r=6)
        assert np.array_equal(p1.sigma, p2.sigma)
        assert t1.f_values().tolist() == t2.f_values().tolist()

    def test_refresh_at_sweep_starts(self, monkeypatch):
        # drive refreshes the cache only as a sweep starts with a multiple
        # of REFRESH_PERIOD records; bcm2's escape steps refresh on their own
        traces, at = [], []
        real_drive, real_refresh = bcm.drive, bcm.refresh_cache

        def drive(instance, point, cache, rng, trace, *rest):
            traces.append(trace)
            return real_drive(instance, point, cache, rng, trace, *rest)

        def refresh(*args):
            at.append(len(traces[-1].records))
            real_refresh(*args)

        monkeypatch.setattr(bcm, "drive", drive)
        monkeypatch.setattr(escape, "drive", drive)
        monkeypatch.setattr(bcm, "refresh_cache", refresh)
        inst = bmcut.gen_erdos_renyi(60, 180, -1, 1)
        cfg = bcm.SolverConfig(rule="cyclic", max_epochs=250, grad_tol=0.0)
        _, trace = bcm.run(inst, cfg, r=8)
        assert len(trace.records) == 251
        assert at == [100, 200]

        at.clear()
        start = np.zeros((20, 4))
        start[:, 0] = 1.0
        _, trace = bmcut.run_bcm2(
            bmcut.gen_gaussian(20, 8), bcm.SolverConfig(rule="greedy", seed=1),
            bmcut.EscapeConfig(epsilon=0.01, seed=2), initial=FactorPoint(start))
        assert len(trace.records) == 151
        assert at == [100]   # not mid-sweep, at coordinate epoch 100


class TestTraceIO:
    def test_jsonl_roundtrip_and_schema(self, tmp_path, triangle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=20, seed=1)
        _, trace = bcm.run(triangle, cfg, r=2)
        path = str(tmp_path / "t.jsonl")
        trace.write(path)
        lines = [json.loads(x) for x in Path(path).read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["schema"] == "trace_v1"
        assert "instance_checksum" in lines[0]
        recs = [x for x in lines if x["type"] == "record"]
        assert len(recs) == len(trace.records)
        assert all("wall_time" not in x for x in recs)
        f = [x["f_raw"] for x in recs]
        assert f == trace.f_values().tolist()

    def test_jsonl_timing_opt_in(self, tmp_path, triangle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=5, seed=1)
        _, trace = bcm.run(triangle, cfg, r=2)
        path = str(tmp_path / "t.jsonl")
        trace.write(path, include_timing=True)
        rec = json.loads(Path(path).read_text().splitlines()[1])
        assert "wall_time" in rec

    def test_csv_shape(self, tmp_path, triangle):
        cfg = bcm.SolverConfig(rule="cyclic", max_epochs=10, seed=0)
        _, trace = bcm.run(triangle, cfg, r=2)
        path = str(tmp_path / "t.csv")
        trace.write(path)
        lines = Path(path).read_text().splitlines()
        data = [x for x in lines if not x.startswith("#")]
        header = data[0].split(",")
        assert header[:3] == ["epoch", "kind", "f_raw"]
        assert len(data) - 1 == len(trace.records)


def trace_digest(path, point, trace) -> str:
    """sha256 of the trace_v1 JSON-lines file plus the final factor bytes."""
    trace.write(str(path))
    h = hashlib.sha256(path.read_bytes())
    h.update(point.sigma.astype("<f8").tobytes())
    return h.hexdigest()


class TestGoldenTraces:
    """Digests of every iterate, record and header field.  F_RAW pins each
    case's final objective to 1e-10 relative and COUNTS its coordinate
    steps and records exactly, so a renewed digest must come with iterates
    that moved only in their last bits, on the same steps."""

    # each selection rule on CSR storage: ER n = 300, r = 8, 250 epochs
    BCM = {
        "cyclic": "e8600fa9530c7d89afffea6d5f7eb03f08a1fd4e594f28a01a2f28a40bfb0712",
        "uniform": "81d8e6348d2250e534da96331c7d4372e7162b30cface240783341109f2fcf58",
        "importance": "4255252844fab95d7ca95f1ef9be7b8158b64cc34eec854883a2e30ccfeedbc5",
        "greedy": "7968eed69e5779f75c048927a9658fcad371ae5c85d19c40e8662bf62c9f9cd7",
    }
    # bcm2 from a random start on dense storage: it makes no escape step
    # and no Lanczos call, so it pins greedy steps under an escape threshold
    # and the header's bcm2 fields
    BCM2 = "9daa6904a76caa80ebeafc80cc3999091ea755329ec5d531f081e4fb941d3a71"
    # the stationary all-equal start on dense storage: it pins the rounding
    # of the escape directions, which test_bcm2 does not: 6 escapes along
    # LAPACK's leading pair of A - Lambda, each an exp_map step
    BCM2_ESCAPES = "31a9733237eafe64a4852b425d6b1a55ea7bcba28ecd203219c1836c55fac1d4"
    # the same start on CSR storage: drive's threshold pre-check, the
    # gather-and-scatter step under an escape policy, and escapes along
    # Lanczos directions: 3 escapes from 4 Lanczos calls, then the concave
    # verdict
    BCM2_ESCAPES_CSR = (
        "4e0cbe2dccf6486e91cb9081d7c18a91a53b735f062d6fc37c9709dd795b85b0")

    # every row of these is full: bcm_step's in-place path on dense storage,
    # where init_cache and refresh_cache take BLAS products, and the cyclic
    # sweeps run through the step-by-step reference in place of block_sweep
    BCM_DENSE = {
        (240, 0, 22, "cyclic"):
            "d730da230c2b28e26c175f846acc30fcda9863cd8b17b219f2995afb19684ea5",
        (61, 2, 5, "greedy"):
            "fdd0deaacaf4417d1c03b8202099a0913164ae38068b97c1cdc0e2f976e9254f",
    }

    # the same cyclic case, and a uniform one, through block_sweep itself:
    # its sigma differs from the step-by-step sweep's in the last bits
    BCM_BLOCKED = {
        (240, 0, 22, "cyclic"):
            "bae62c66beb13c386155ce412e46f9aeb7eb8ebe4d3daffbfb08ad9243222972",
        (61, 2, 5, "uniform"):
            "5e9b932826edff2bd5f827bab8d4cf0802ff55c925a050bd9df0eeb08304a7b3",
    }

    F_RAW = {
        "cyclic": 1230.1897316280738,
        "uniform": 1230.1829465417873,
        "importance": 1230.1839626713474,
        "greedy": 1230.1907609790028,
        (240, 0, 22, "cyclic"): 38.80530387753638,
        (61, 2, 5, "greedy"): 18.648429893815027,
        ("blocked", 240, 0, 22, "cyclic"): 38.80530387753638,
        ("blocked", 61, 2, 5, "uniform"): 18.640048254479638,
        "bcm2": 14.384915723469149,
        "bcm2_escapes": 9.694098844035516,
        "bcm2_escapes_csr": 197.20850612823105,
    }

    # (coordinate steps, records) of each case, the header's bcm_steps for
    # bcm2
    COUNTS = {
        "cyclic": (75000, 251),
        "uniform": (75000, 251),
        "importance": (75000, 251),
        "greedy": (75000, 251),
        (240, 0, 22, "cyclic"): (7200, 31),
        (61, 2, 5, "greedy"): (1830, 31),
        ("blocked", 240, 0, 22, "cyclic"): (7200, 31),
        ("blocked", 61, 2, 5, "uniform"): (1830, 31),
        "bcm2": (2477, 63),
        "bcm2_escapes": (2793, 151),
        "bcm2_escapes_csr": (18448, 313),
    }

    def assert_final(self, trace, case):
        assert trace.final().f_raw == pytest.approx(self.F_RAW[case],
                                                    rel=1e-10)
        steps = sum(rec.steps for rec in trace.records if rec.kind == "bcm")
        assert steps == trace.header.get("bcm_steps", steps)
        assert (steps, len(trace.records)) == self.COUNTS[case]

    @pytest.mark.parametrize("rule", bcm.RULES)
    def test_bcm_rule(self, tmp_path, rule):
        # 250 epochs cross two cache refreshes
        inst = bmcut.gen_erdos_renyi(300, 900, -1, 3)
        cfg = bcm.SolverConfig(rule=rule, max_epochs=250, grad_tol=0.0, seed=5)
        point, trace = bcm.run(inst, cfg, r=8)
        self.assert_final(trace, rule)
        assert trace_digest(tmp_path / "t.jsonl", point, trace) == self.BCM[rule]

    @staticmethod
    def dense_run(n, seed, r, rule):
        inst = bmcut.gen_gaussian(n, seed)
        cfg = bcm.SolverConfig(rule=rule, max_epochs=30, grad_tol=0.0, seed=0)
        return bcm.run(inst, cfg, r=r)

    @pytest.mark.parametrize("n, seed, r, rule", list(BCM_DENSE))
    def test_bcm_dense(self, tmp_path, monkeypatch, n, seed, r, rule):
        monkeypatch.setattr(bcm, "block_sweep", oracles.block_sweep_reference)
        point, trace = self.dense_run(n, seed, r, rule)
        self.assert_final(trace, (n, seed, r, rule))
        assert (trace_digest(tmp_path / "t.jsonl", point, trace)
                == self.BCM_DENSE[n, seed, r, rule])

    @pytest.mark.parametrize("n, seed, r, rule", list(BCM_BLOCKED))
    def test_bcm_blocked(self, tmp_path, n, seed, r, rule):
        point, trace = self.dense_run(n, seed, r, rule)
        self.assert_final(trace, ("blocked", n, seed, r, rule))
        assert (trace_digest(tmp_path / "t.jsonl", point, trace)
                == self.BCM_BLOCKED[n, seed, r, rule])

    def test_bcm2(self, tmp_path):
        inst = bmcut.gen_gaussian(40, 1)
        cfg = bcm.SolverConfig(rule="greedy", seed=2)
        esc = bmcut.EscapeConfig(epsilon=0.01, seed=3)
        point, trace = bmcut.run_bcm2(inst, cfg, esc, r=5)
        self.assert_final(trace, "bcm2")
        assert trace_digest(tmp_path / "t.jsonl", point, trace) == self.BCM2

    def escape_run(self, tmp_path, inst, case):
        # the all-equal start is stationary: escape steps must come first
        start = np.zeros((inst.n, 4))
        start[:, 0] = 1.0
        cfg = bcm.SolverConfig(rule="greedy", seed=1)
        esc = bmcut.EscapeConfig(epsilon=0.01, seed=2)
        point, trace = bmcut.run_bcm2(inst, cfg, esc, initial=FactorPoint(start))
        assert trace.header["escape_steps"] >= 2
        self.assert_final(trace, case)
        return trace_digest(tmp_path / "t.jsonl", point, trace)

    def test_bcm2_escapes(self, tmp_path):
        inst = bmcut.gen_gaussian(20, 8)
        assert (self.escape_run(tmp_path, inst, "bcm2_escapes")
                == self.BCM2_ESCAPES)

    def test_bcm2_escapes_csr(self, tmp_path):
        inst = bmcut.gen_erdos_renyi(60, 150, -1, 4)
        assert not inst.complete
        assert (self.escape_run(tmp_path, inst, "bcm2_escapes_csr")
                == self.BCM2_ESCAPES_CSR)
