import copy
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import bmcut
from bmcut import FactorPoint, ValidationError, bcm, manifold

import oracles
from conftest import small_corpus


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

    def test_index_out_of_range(self, edge2):
        point = manifold.random_point(2, 2, np.random.default_rng(0))
        cache = bcm.init_cache(edge2, point)
        with pytest.raises(ValidationError):
            bcm.bcm_step(edge2, point, cache, 2)

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
    """bcm_step updates all of g in place when row i touches every other row;
    its iterates must equal the gather/scatter step's bit for bit."""

    @pytest.mark.parametrize("rule", bcm.RULES)
    @pytest.mark.parametrize("r", [3, 5, 45])
    @pytest.mark.parametrize("make", [
        lambda: _partial_gaussian(40, 1),
        lambda: _star_plus_edges(30, 2),
        lambda: bmcut.gen_gaussian(2, 3),
    ], ids=["partial_gaussian", "star_plus_edges", "n2"])
    def test_matches_gather_scatter(self, make, r, rule):
        inst = make()
        n = inst.n
        full = [inst.row(i)[0].size == n - 1 for i in range(n)]
        assert any(full) and (n == 2 or not all(full))
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
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValidationError, match="grad_tol"):
                bcm.SolverConfig(grad_tol=tol)

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
                bcm.start_point(triangle, 0, triangle_saddle, r=5)
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
        with pytest.raises(ValidationError, match="r >= 1"):
            bcm.run(bmcut.gen_gaussian(6, seed=0), cfg, r=r)

    def test_deterministic_runs(self):
        inst = bmcut.gen_gaussian(18, seed=2)
        cfg = bcm.SolverConfig(rule="uniform", max_epochs=50, seed=33)
        p1, t1 = bcm.run(inst, cfg, r=6)
        p2, t2 = bcm.run(inst, cfg, r=6)
        assert np.array_equal(p1.sigma, p2.sigma)
        assert t1.f_values().tolist() == t2.f_values().tolist()


class TestTraceIO:
    def test_jsonl_roundtrip_and_schema(self, tmp_path, triangle):
        cfg = bcm.SolverConfig(rule="greedy", max_epochs=20, seed=1)
        _, trace = bcm.run(triangle, cfg, r=2)
        path = str(tmp_path / "t.jsonl")
        trace.write(path)
        lines = [json.loads(x) for x in open(path)]
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
        rec = json.loads(open(path).readlines()[1])
        assert "wall_time" in rec

    def test_csv_shape(self, tmp_path, triangle):
        cfg = bcm.SolverConfig(rule="cyclic", max_epochs=10, seed=0)
        _, trace = bcm.run(triangle, cfg, r=2)
        path = str(tmp_path / "t.csv")
        trace.write(path)
        lines = open(path).read().splitlines()
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
    """Digests frozen from the two-loop solver that bcm.drive replaced; any
    change to an iterate, a record or the header shows up here."""

    BCM = {
        "cyclic": "fa712ce526d2cdb5696662324ff3ebbc23cfb16ac0e71c51c6e85367a64b517e",
        "uniform": "157967085a5a4ef3b9066b6abd390979eeebf5f4c4c9e98587127c7689c31fa2",
        "importance": "ceadd5c0e4dcd9f32d6328071ab6f562b1ed0c622c61eb69b5bc9b1d3b9e92b6",
        "greedy": "2f38e882c0aacf3c5bb8833896e5c49e2635e36fb810fa0da353efaf3b169830",
    }
    BCM2 = "73544051bc39ddfcd43a38673cf13ae260eef1f36a70e5e15e65788babccea8b"
    # computed on the preallocated-basis CGS2 Lanczos; it pins the rounding of
    # the escape directions, which test_bcm2 (no escape step) does not
    BCM2_ESCAPES = "325e82c5d8f644f5725e4d816d8e9b36c08762dafff8842e0651db42de31a4e3"

    # every row of these is full: bcm_step's in-place path; computed on the
    # gather/scatter step before that path existed
    BCM_DENSE = {
        (240, 0, 22, "cyclic"):
            "436a3cb7915adb7c1afbf297c5d3d33410ec26e2ba1594dc58b093ca941a99ab",
        (61, 2, 5, "greedy"):
            "3658c58b8bed9739392ccbf1d8d5de7371dece9fbdb361ea7fc00987ea16b005",
    }

    @pytest.mark.parametrize("rule", bcm.RULES)
    def test_bcm_rule(self, tmp_path, rule):
        # 250 epochs cross two cache refreshes
        inst = bmcut.gen_erdos_renyi(300, 900, -1, 3)
        cfg = bcm.SolverConfig(rule=rule, max_epochs=250, grad_tol=0.0, seed=5)
        point, trace = bcm.run(inst, cfg, r=8)
        assert trace_digest(tmp_path / "t.jsonl", point, trace) == self.BCM[rule]

    @pytest.mark.parametrize("n, seed, r, rule", list(BCM_DENSE))
    def test_bcm_dense(self, tmp_path, n, seed, r, rule):
        inst = bmcut.gen_gaussian(n, seed)
        cfg = bcm.SolverConfig(rule=rule, max_epochs=30, grad_tol=0.0, seed=0)
        point, trace = bcm.run(inst, cfg, r=r)
        assert (trace_digest(tmp_path / "t.jsonl", point, trace)
                == self.BCM_DENSE[n, seed, r, rule])

    def test_bcm2(self, tmp_path):
        inst = bmcut.gen_gaussian(40, 1)
        cfg = bcm.SolverConfig(rule="greedy", seed=2)
        esc = bmcut.EscapeConfig(epsilon=0.01, seed=3)
        point, trace = bmcut.run_bcm2(inst, cfg, esc, r=5)
        assert trace_digest(tmp_path / "t.jsonl", point, trace) == self.BCM2

    def test_bcm2_escapes(self, tmp_path):
        # the all-equal start is stationary: escape steps must come first
        inst = bmcut.gen_gaussian(20, 8)
        start = np.zeros((20, 4))
        start[:, 0] = 1.0
        cfg = bcm.SolverConfig(rule="greedy", seed=1)
        esc = bmcut.EscapeConfig(epsilon=0.01, seed=2)
        point, trace = bmcut.run_bcm2(inst, cfg, esc, initial=FactorPoint(start))
        assert trace.header["escape_steps"] >= 2
        assert (trace_digest(tmp_path / "t.jsonl", point, trace)
                == self.BCM2_ESCAPES)
