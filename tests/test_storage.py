"""Storage follows the data: a complete instance is one read-only dense
array, any other read-only CSR rows, and only problem.py knows which."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import bmcut
from bmcut import bcm, certify, escape, problem

from conftest import gaussian_pair_zeroed

LAYOUT = {"indptr", "indices", "data"}


def mm_gaussian(tmp_path):
    path = tmp_path / "g.mtx"
    bmcut.write_matrix_market(bmcut.gen_gaussian(12, seed=3), str(path))
    return bmcut.load_instance(str(path), "matrix-market")


class TestStorageRule:
    @pytest.mark.parametrize("make", [
        lambda tmp: bmcut.gen_gaussian(30, seed=1),
        mm_gaussian,
        lambda tmp: bmcut.gen_erdos_renyi(20, 20 * 19 // 2, sign=-1, seed=2),
    ], ids=["gaussian", "matrix_market", "complete_graph"])
    def test_complete_is_dense(self, tmp_path, make):
        inst = make(tmp_path)
        assert isinstance(inst.rows, np.ndarray) and inst.complete
        assert inst.rows.shape == (inst.n, inst.n)
        assert inst.nnz == inst.n * (inst.n - 1)
        assert np.all(np.diag(inst.rows) == 0.0)

    def test_incomplete_is_csr(self):
        inst = gaussian_pair_zeroed(30, seed=1)
        assert isinstance(inst.rows, sp.csr_array) and not inst.complete
        assert inst.nnz == 30 * 29 - 2

    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(6, seed=0), gaussian_pair_zeroed(6, seed=0),
    ], ids=["dense", "csr"])
    def test_row_gives_off_diagonal_entries(self, inst):
        a = inst.dense()
        for i in range(inst.n):
            cols, vals = inst.row(i)
            want = np.flatnonzero(a[i])
            assert np.array_equal(cols, want)
            assert np.array_equal(vals, a[i, want])


class TestReadOnly:
    def test_dense_storage_refuses_writes(self):
        inst = bmcut.gen_gaussian(5, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            inst.rows[0, 1] = 1.0

    def test_csr_storage_refuses_writes(self):
        inst = gaussian_pair_zeroed(5, seed=0)
        for name in sorted(LAYOUT):
            with pytest.raises(ValueError, match="read-only"):
                getattr(inst.rows, name)[:] *= 2

    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(5, seed=0), gaussian_pair_zeroed(5, seed=0),
    ], ids=["dense", "csr"])
    def test_dense_is_a_writable_copy(self, inst):
        before = inst.checksum()
        a = inst.dense()
        a *= 1000.0
        assert inst.checksum() == before
        assert np.array_equal(inst.dense() * 1000.0, a)


class TestBytes:
    """The checksum and both writers see the CSR bytes they saw before
    complete instances were stored dense."""

    DIGESTS = {
        "gaussian50": (
            "d0051185257f46f92f23444d14a5391e3882185609c9f271169fb6abad522b15",
            "1f1cb4587d718d8c5f3441207012cf8b26e98360d50c40efc9533145cd6a866c",
            "2d6a32d2011f434a4fe11f70ee139a278918cabaaad96e0ebff93605460b5b5a"),
        "gaussian2": (
            "4d4dd5fdb1d6748c4f1043c090e837300b818aa3b330d2c5a0f71062bc766249",
            "e2198f1cbf27bbd7773c6a7b8dbd936d694bf82e6915f7e12551729406ddd424",
            "45b8cc6a85ab2c1ed53977fb3d24e21761b97a8980b5bc8836696f95e9ce16d9"),
        "zero1": (
            "01d0fabd251fcbbe2b93b4b927b26ad2a1a99077152e45ded1e678afa45dbec5",
            "1f967fcb238f14c7175ffef85ced6f142d8077851030332cc6d8743cfd70f5d9",
            "d88821bfed32e2a04ca742ebb316227676217e29acfd0fa0e790244c2f56c605"),
    }

    @pytest.mark.parametrize("name, inst", [
        ("gaussian50", bmcut.gen_gaussian(50, 3)),
        ("gaussian2", bmcut.gen_gaussian(2, 1)),
        ("zero1", bmcut.preprocess(np.zeros((1, 1)))),
    ], ids=["gaussian50", "gaussian2", "zero1"])
    def test_checksum_and_writers(self, tmp_path, name, inst):
        assert inst.complete
        edges, mm = tmp_path / "a.txt", tmp_path / "a.mtx"
        bmcut.write_edge_list(inst, str(edges))
        bmcut.write_matrix_market(inst, str(mm))
        got = (inst.checksum(),
               hashlib.sha256(edges.read_bytes()).hexdigest(),
               hashlib.sha256(mm.read_bytes()).hexdigest())
        assert got == self.DIGESTS[name]


def csr_digest(inst):
    """SHA-256 of int64 n, the CSR arrays of A (int64 indptr and indices,
    float64 data) and float64 trace_offset, rebuilt from the dense copy."""
    csr = sp.csr_array(inst.dense())
    h = hashlib.sha256(np.int64(inst.n).tobytes())
    for part, dtype in zip((csr.indptr, csr.indices, csr.data),
                           ("<i8", "<i8", "<f8")):
        h.update(np.asarray(part, dtype=dtype).tobytes())
    h.update(np.float64(inst.trace_offset).tobytes())
    return h.hexdigest()


def edge_list(tmp_path):
    # repeats in both orientations, a self-loop, and a pair that cancels
    path = tmp_path / "e.txt"
    path.write_text("# 6 nodes\n1 2 1.5\n2 1 0.25\n3 3 4.0\n1 2 -0.5\n"
                    "4 5 2.0\n5 4 -2.0\n2 6 -1.0\n6 2 -1.0\n")
    return bmcut.load_instance(str(path), "edge-list")


class TestChecksum:
    """`_finish` hashes the CSR image once; the digest is that image's."""

    @pytest.mark.parametrize("make", [
        lambda tmp: bmcut.gen_gaussian(30, seed=1),
        lambda tmp: bmcut.gen_erdos_renyi(40, 100, sign=-1, seed=2),
        lambda tmp: bmcut.gen_erdos_renyi(12, 66, sign=1, seed=0),
        lambda tmp: bmcut.preprocess(sp.csr_array(
            (np.array([0.0, 2.0, 0.0, 2.0]), np.array([1, 2, 0, 0]),
             np.array([0, 2, 3, 4])), shape=(3, 3))),
        lambda tmp: bmcut.preprocess([[0.0, 3.0, 1.0], [-3.0, 0.0, 2.0],
                                      [1.0, 2.0, 0.0]]),
        lambda tmp: bmcut.preprocess([[1.5, 1.0], [1.0, -4.0]]),
        edge_list,
        lambda tmp: bmcut.preprocess(np.zeros((0, 0))),
        lambda tmp: bmcut.preprocess([[2.5]]),
        lambda tmp: gaussian_pair_zeroed(9, seed=4),
    ], ids=["gaussian", "erdos_renyi", "complete_graph", "explicit_zeros",
            "cancellation", "diagonal", "edge_list", "n0", "n1",
            "pair_zeroed"])
    def test_matches_csr_oracle(self, tmp_path, make):
        inst = make(tmp_path)
        assert inst.checksum() == csr_digest(inst)

    def test_solves_hash_nothing(self, monkeypatch):
        calls = []

        def sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(problem, "hashlib", SimpleNamespace(sha256=sha256))
        gaussian = bmcut.gen_gaussian(61, 2)
        er = bmcut.gen_erdos_renyi(100, 300, sign=-1, seed=1)
        small = bmcut.gen_gaussian(20, 8)
        assert len(calls) == 3   # one per construction
        calls.clear()
        bcm.run(gaussian, bcm.SolverConfig(rule="cyclic", max_epochs=20), r=5)
        bcm.run(er, bcm.SolverConfig(rule="greedy", max_epochs=20), r=5)
        escape.run_bcm2(small, bcm.SolverConfig(rule="greedy", seed=1),
                        escape.EscapeConfig(epsilon=0.01, seed=2), r=4)
        assert calls == []


def mm_coordinate(tmp_path):
    path = tmp_path / "er.mtx"
    bmcut.write_matrix_market(bmcut.gen_erdos_renyi(40, 100, sign=-1, seed=2),
                              str(path))
    return bmcut.load_instance(str(path), "matrix-market")


def preprocess_int32():
    a = sp.random_array((30, 30), density=0.2, format="csr",
                        rng=np.random.default_rng(5))
    a.indices, a.indptr = a.indices.astype(np.int32), a.indptr.astype(np.int32)
    return bmcut.preprocess(a)


class TestSourceDigests:
    """The checksum hashes indices as int64, so an instance's digest does not
    depend on the index dtype its source gave (ER edge lists give int64,
    Matrix Market coordinate and sparse preprocess input int32).  The
    digests are fixed, so a change of the stored index dtype that moved a
    checksum would fail here."""

    # renewed for gen_erdos_renyi's one Generator.choice draw
    ER = "8ed9428bfa633772c4d826219be19b2088ee184e7d9bf30f9ec1bca083abb2e6"

    @pytest.mark.parametrize("make, digest", [
        (lambda tmp: bmcut.gen_erdos_renyi(40, 100, sign=-1, seed=2), ER),
        (mm_coordinate, ER),
        (lambda tmp: preprocess_int32(),
         "656b6ef6e9c6ba2a35bd6b9fde0b8fe294bb1656e3d6a25c533b2bb8e7beda81"),
    ], ids=["erdos_renyi", "matrix_market", "preprocess_csr"])
    def test_checksum_is_pinned(self, tmp_path, make, digest):
        inst = make(tmp_path)
        assert not inst.complete
        assert inst.checksum() == digest == csr_digest(inst)


def as_csr(inst):
    """The same complete matrix as CSR rows, built around _finish."""
    return problem.ProblemInstance(
        n=inst.n, rows=sp.csr_array(inst.dense()),
        trace_offset=inst.trace_offset, one_norm=inst.one_norm,
        l11_norm=inst.l11_norm, digest=inst.checksum())


@pytest.mark.parametrize("rule", ["cyclic", "greedy"])
def test_storages_agree(rule):
    # the dense storage sweeps in blocks (cyclic) or steps in place
    # (greedy); CSR gathers and scatters every row
    dense = bmcut.gen_gaussian(61, 2)
    csr = as_csr(dense)
    assert dense.complete and not csr.complete
    cfg = bcm.SolverConfig(rule=rule, max_epochs=30, grad_tol=0.0, seed=0)
    out = []
    for inst in (dense, csr):
        point, trace = bcm.run(inst, cfg, r=5)
        cache = bcm.init_cache(inst, point)
        cert = certify.dual_upper_bound(inst, point, cache)
        cut = certify.round_cut(inst, point, 200, np.random.default_rng(4))
        out.append((point.sigma, trace.final().f_raw, cert.slack, cut.value))
    (s0, *v0), (s1, *v1) = out
    assert np.abs(s0 - s1).max() <= 1e-12
    for a, b in zip(v0, v1):
        assert a == pytest.approx(b, rel=1e-12)
