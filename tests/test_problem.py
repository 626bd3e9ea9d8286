import collections
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from scipy import stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bmcut
import oracles
from bmcut import DimensionError, ParseError, ValidationError, problem

from conftest import BEYOND_INT64_EDGES, REFUSED_FILES, gaussian_pair_zeroed


def offset_instance():
    """A 3 x 3 instance with trace offset 2 + 3 = 5."""
    return bmcut.preprocess([[2.0, 1, 0], [1, 3, 4], [0, 4, 0]])


def recompute_norms(inst):
    a = np.abs(inst.dense())
    return a.sum(axis=0).max(), a.sum()


def line_loop(path):
    """The edge-list loader's line loop alone, on the file as text mode reads it."""
    with open(path, encoding="utf-8") as fh:
        return problem._parse_edge_lines(path, fh)


def load_outcome(path):
    """What load_instance gives on an edge list: the instance's identity, or
    the refusal's type and message."""
    try:
        inst = bmcut.load_instance(path, "edge-list")
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return (inst.n, inst.checksum(), inst.trace_offset,
            None if inst.complete else inst.rows.indices.dtype)


# edge-list texts that numpy's reader and the line loop might read apart: a
# lead of headers, comments and blank lines, a body of edges (any whitespace
# str.split knows) and blank lines, and, in one text of three, an odd line: a
# '#' line after the first edge, bad arity, spellings only Python's int and
# float take (1_0, Arabic-Indic three) or both refuse, 0, negative, above-header
# and overflowing indices, and non-finite weights
BLANK = st.sampled_from(["", "  ", "\t", "\x0c"])
LEAD_LINE = st.one_of(BLANK, st.integers(0, 6).map(lambda k: f"# {k} nodes"),
                      st.sampled_from(["# a comment", "#3 nodes", " # 4 nodes, 2 edges"]))
SEP = st.sampled_from([" ", "  ", "\t", "\x0c", "\xa0", "\x0b", "\x1c", "\x85",
                       "\u2028", "\u3000"])
BODY_LINE = st.one_of(BLANK, st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["1", "2", "3", "+1", "04"]),
    SEP, st.sampled_from(["1", "2", "3", "4"]), SEP,
    st.sampled_from(["1.0", "-2.5", "3", "1e-3", "+.5", "5.", "-0", "1E2", "1e-400"]),
    st.sampled_from(["", " ", "\xa0"])).map("".join))
ODD_LINE = st.one_of(
    st.sampled_from(["# 2 nodes", "# a comment", "1 2", "1 2 3 4", "1 2 3 # tail",
                     "1\u200b2\u200b3"]),
    st.tuples(st.sampled_from(["1", "1_0", "\u0663", "0", "-1", "99999999999999999999",
                               "1.0", "x"]),
              st.sampled_from([" 2 ", " 9 "]),
              st.sampled_from(["1_0.5", "\u0663", "nan", "-Infinity", "inf", "1e400",
                               "1e308", "0x10", "x", "1"])).map("".join))


def edge_text(lead, body, odd, at, eol, final_eol):
    """The lead, then the body with the odd line, if any, before body[at]."""
    lines = lead + body[:at] + ([] if odd is None else [odd]) + body[at:]
    return eol.join(lines) + eol * final_eol


EDGE_TEXT = st.builds(
    edge_text, st.lists(LEAD_LINE, max_size=3), st.lists(BODY_LINE, max_size=6),
    st.one_of(st.none(), st.none(), ODD_LINE), st.integers(0, 6),
    st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())


class TestPreprocess:
    def test_symmetric_input_passthrough(self):
        inst = bmcut.preprocess([[0, 1], [1, 0]])
        assert inst.n == 2
        assert inst.rows[0, 1] == 1.0
        assert inst.one_norm == 1.0
        assert inst.l11_norm == 2.0
        assert inst.trace_offset == 0.0

    def test_asymmetric_with_diagonal(self):
        # (A + A^T)/2 of [[2,0],[4,2]] is [[2,2],[2,2]]; diagonal carries 4
        inst = bmcut.preprocess([[2.0, 0.0], [4.0, 2.0]])
        assert inst.rows[0, 1] == 2.0
        assert inst.rows[1, 0] == 2.0
        assert inst.trace_offset == 4.0
        assert inst.one_norm == 2.0

    def test_zero_matrix(self):
        for n in (1, 2, 5):
            inst = bmcut.preprocess(np.zeros((n, n)))
            assert inst.nnz == 0
            assert inst.one_norm == 0.0
            assert inst.l11_norm == 0.0
            assert inst.trace_offset == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            bmcut.preprocess(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            bmcut.preprocess([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            bmcut.preprocess([[0.0, np.inf], [1.0, 0.0]])

    @pytest.mark.parametrize("make", [np.asarray, sp.csr_array, sp.coo_matrix],
                             ids=["dense", "csr", "coo"])
    def test_complex_rejected(self, make):
        # the float64 conversion would keep [[0, 1], [1, 0]] and warn
        raw = make(np.array([[0, 1 + 2j], [1 - 2j, 0]]))
        with pytest.raises(ValidationError, match="complex"):
            bmcut.preprocess(raw)

    def test_cancellation_zeros_dropped(self):
        # antisymmetric part cancels exactly and must not be stored
        inst = bmcut.preprocess([[0.0, 3.0], [-3.0, 0.0]])
        assert inst.nnz == 0

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
    def test_symmetry_zero_diag_and_norms(self, raw):
        inst = bmcut.preprocess(raw)
        d = inst.dense()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        one, l11 = recompute_norms(inst)
        assert inst.one_norm == pytest.approx(one, rel=1e-12, abs=1e-15)
        assert inst.l11_norm == pytest.approx(l11, rel=1e-12, abs=1e-15)
        assert inst.l11_norm <= inst.n * inst.one_norm + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (5, 5), elements=st.floats(-5, 5)))
    def test_sparse_input_matches_dense(self, raw):
        dense = bmcut.preprocess(raw)
        assert bmcut.preprocess(sp.csr_array(raw)).checksum() == dense.checksum()
        assert bmcut.preprocess(sp.coo_matrix(raw)).checksum() == dense.checksum()

    def test_sparse_integer_input_summed_in_float(self):
        # (m + m.T) in int64 would wrap 2**62 + 2**62 around to -2**63
        raw = sp.csr_array(np.array([[0, 2**62], [2**62, 0]], dtype=np.int64))
        inst = bmcut.preprocess(raw)
        assert inst.rows[0, 1] == 2.0**62
        assert inst.checksum() == bmcut.preprocess(raw.toarray()).checksum()

    def test_overflowing_trace_rejected(self):
        # each diagonal entry survives symmetrization; their sum does not
        with pytest.raises(ValidationError, match="non-finite"):
            bmcut.preprocess(np.diag([8e307, 8e307, 8e307]))

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (5, 5), elements=st.floats(-5, 5)))
    def test_idempotent(self, raw):
        first = bmcut.preprocess(raw)
        second = bmcut.preprocess(first.dense())
        assert np.array_equal(first.dense(), second.dense())


class TestGaussian:
    def test_deterministic_per_seed(self):
        a = bmcut.gen_gaussian(100, seed=7)
        b = bmcut.gen_gaussian(100, seed=7)
        assert np.array_equal(a.dense(), b.dense())
        assert a.checksum() == b.checksum()
        c = bmcut.gen_gaussian(100, seed=8)
        assert not np.array_equal(a.dense(), c.dense())

    def test_exact_symmetry(self):
        inst = bmcut.gen_gaussian(100, seed=3)
        d = inst.dense()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert inst.trace_offset == 0.0

    def test_offdiagonal_mean_near_zero(self):
        n = 1000
        inst = bmcut.gen_gaussian(n, seed=11)
        d = inst.dense()
        vals = d[np.triu_indices(n, k=1)]
        # entry variance is 2/n^2; five standard errors of the sample mean
        se = np.sqrt(2.0 / n**2) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 5 * se

    def test_n_too_small(self):
        with pytest.raises(ValidationError):
            bmcut.gen_gaussian(1, seed=0)


class TestErdosRenyi:
    def test_complete_graph_forced(self):
        inst = bmcut.gen_erdos_renyi(4, 6, sign=-1, seed=123)
        expect = -(np.ones((4, 4)) - np.eye(4))
        assert np.array_equal(inst.dense(), expect)

    def test_edge_count(self):
        inst = bmcut.gen_erdos_renyi(10, 15, sign=1, seed=5)
        assert inst.nnz == 30
        d = inst.dense()
        assert np.array_equal(d, d.T)
        assert set(np.unique(d)) <= {0.0, 1.0}

    def test_zero_edges_rejected(self):
        with pytest.raises(ValidationError):
            bmcut.gen_erdos_renyi(10, 0, sign=1, seed=0)

    def test_over_capacity_rejected(self):
        with pytest.raises(ValidationError):
            bmcut.gen_erdos_renyi(5, 11, sign=1, seed=0)

    def test_bad_sign_rejected(self):
        for sign in (2, 0, -2):
            with pytest.raises(ValidationError):
                bmcut.gen_erdos_renyi(5, 3, sign=sign, seed=0)

    def test_deterministic_both_regimes(self):
        # a sparse draw and a dense one
        for edges in (5, 40):
            a = bmcut.gen_erdos_renyi(10, edges, sign=-1, seed=9)
            b = bmcut.gen_erdos_renyi(10, edges, sign=-1, seed=9)
            assert np.array_equal(a.dense(), b.dense())
            assert a.nnz == 2 * edges

    @pytest.mark.parametrize("edges", [2, 4], ids=["sparse", "dense"])
    def test_uniform_over_edge_sets(self, edges):
        # n = 4 has 6 possible edges and 15 sets of 2, or of 4
        counts = collections.Counter()
        for seed in range(1500):
            inst = bmcut.gen_erdos_renyi(4, edges, sign=-1, seed=seed)
            counts[np.flatnonzero(np.triu(inst.dense())).tobytes()] += 1
        assert len(counts) == 15
        observed = np.array(list(counts.values()))
        assert stats.chisquare(observed).statistic < stats.chi2.isf(1e-4, 14)

    @pytest.mark.parametrize("n, edges", [(4, 6), (10, 5), (10, 40), (300, 900)])
    def test_one_choice_draw(self, n, edges):
        # the edge set is one choice without replacement over the n(n-1)/2
        # pairs, numbered as np.triu_indices lists them
        m = n * (n - 1) // 2
        ks = np.sort(np.random.default_rng(7).choice(m, edges, replace=False))
        i, j = np.triu_indices(n, 1)
        expect = np.zeros((n, n), dtype=bool)
        expect[i[ks], j[ks]] = True
        inst = bmcut.gen_erdos_renyi(n, edges, sign=-1, seed=7)
        assert np.array_equal(np.triu(inst.dense()) != 0, expect)

    def test_norm_inequality_over_generators(self):
        for seed in range(5):
            g = bmcut.gen_gaussian(30, seed=seed)
            e = bmcut.gen_erdos_renyi(30, 60, sign=-1, seed=seed)
            for inst in (g, e):
                assert inst.l11_norm <= inst.n * inst.one_norm + 1e-12
                one, l11 = recompute_norms(inst)
                assert inst.one_norm == pytest.approx(one, rel=1e-12)
                assert inst.l11_norm == pytest.approx(l11, rel=1e-12)


class TestComplete:
    @pytest.mark.parametrize("inst", [
        bmcut.gen_gaussian(2, seed=0),
        bmcut.gen_gaussian(30, seed=1),
        bmcut.preprocess(np.zeros((1, 1))),
    ], ids=["gaussian2", "gaussian30", "zero1"])
    def test_complete(self, inst):
        assert inst.complete

    @pytest.mark.parametrize("inst", [
        bmcut.gen_erdos_renyi(30, 60, sign=-1, seed=0),
        gaussian_pair_zeroed(30, seed=1),
        bmcut.preprocess(np.zeros((3, 3))),
    ], ids=["erdos_renyi", "gaussian_pair_zeroed", "zero3"])
    def test_not_complete(self, inst):
        assert not inst.complete


# small symmetric coordinate files: entries in either triangle and on the
# diagonal, repeated coordinates (a few of them, so repeats are common),
# explicit and signed zeros, subnormal, cancelling and overflowing values,
# and integer and pattern fields
MTX_VALUE = {
    "real": st.sampled_from(["0", "-0.0", "1.5", "-2", "0.1", "5e-324", "1e16",
                             "-1e16", "8.9e307", "1e308", "-1e308"]),
    "integer": st.sampled_from(["0", "3", "-7", "9007199254740993",
                                "-4611686018427387904"]),
    "pattern": st.just(""),
}


@st.composite
def symmetric_mtx(draw):
    n = draw(st.integers(1, 12))
    field = draw(st.sampled_from(sorted(MTX_VALUE)))
    coords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                           min_size=1, max_size=6))
    entries = draw(st.lists(st.tuples(st.sampled_from(coords), MTX_VALUE[field]),
                            max_size=20))
    body = "".join(f"{i} {j} {v}".rstrip() + "\n" for (i, j), v in entries)
    return (f"%%MatrixMarket matrix coordinate {field} symmetric\n"
            f"{n} {n} {len(entries)}\n{body}")


def build_outcome(build, path):
    """The instance's stored bits and cached values, or the refusal's type
    and message without the path load_instance adds."""
    try:
        inst = build(path)
    except ValidationError as exc:
        return type(exc), str(exc).removeprefix(f"{path}: ")
    parts = (inst.rows,) if inst.complete else (
        inst.rows.data, inst.rows.indices, inst.rows.indptr)
    return (inst.n, [(a.dtype.str, a.tobytes()) for a in parts], inst.digest,
            inst.one_norm.hex(), inst.l11_norm.hex(), inst.trace_offset.hex())


class TestLoad:
    def test_edge_list_minimal(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 2 1.0\n")
        inst = bmcut.load_instance(str(p), "edge-list")
        assert inst.n == 2
        assert inst.rows[0, 1] == 1.0

    def test_edge_list_comments_duplicates(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# a comment\n1 2 1.5\n2 1 0.5\n1 3 2.0\n\n")
        inst = bmcut.load_instance(str(p), "edge-list")
        assert inst.n == 3
        # the repeats of {1, 2}, in either orientation, are summed once and
        # mirrored, with no halving: 1.5 + 0.5
        assert inst.rows[0, 1] == 2.0
        assert inst.rows[1, 0] == 2.0
        assert inst.rows[0, 2] == 2.0

    def test_edge_list_self_loop_feeds_offset(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 1 5.0\n1 2 1.0\n")
        inst = bmcut.load_instance(str(p), "edge-list")
        assert inst.trace_offset == 5.0
        assert inst.rows[0, 0] == 0.0

    def test_edge_list_bad_weight_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 1.0\n2 3 x\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2"):
            bmcut.load_instance(str(p), "edge-list")

    def test_edge_list_bad_arity_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n")
        with pytest.raises(ParseError, match=r"bad\.txt:1"):
            bmcut.load_instance(str(p), "edge-list")

    def test_edge_list_zero_index_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 2 1.0\n")
        with pytest.raises(ParseError, match="1-based"):
            bmcut.load_instance(str(p), "edge-list")

    def test_matrix_market_symmetric_k3(self, tmp_path):
        p = tmp_path / "k3.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "2 1 -1.0\n"
            "3 1 -1.0\n"
            "3 2 -1.0\n")
        inst = bmcut.load_instance(str(p), "matrix-market")
        assert inst.n == 3
        assert inst.one_norm == pytest.approx(2.0)
        assert np.array_equal(inst.dense(), -(np.ones((3, 3)) - np.eye(3)))

    def test_matrix_market_general_symmetrized(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 2 4.0\n")
        inst = bmcut.load_instance(str(p), "matrix-market")
        assert inst.rows[0, 1] == 2.0
        assert inst.rows[1, 0] == 2.0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_matrix_market_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
            f"2 1 {bad}\n")
        with pytest.raises(ValidationError, match="non-finite"):
            bmcut.load_instance(str(p), "matrix-market")

    @pytest.mark.parametrize("line", ["2 3 nan", "1 2 inf"])
    def test_edge_list_non_finite_weight_rejected(self, tmp_path, line):
        p = tmp_path / "bad.txt"
        p.write_text(f"1 2 1.0\n{line}\n")
        with pytest.raises(ParseError,
                           match=rf"bad\.txt:2: non-finite weight {line[4:]}"):
            bmcut.load_instance(str(p), "edge-list")

    def test_edge_list_overflowing_norm_rejected(self, tmp_path):
        # each entry is finite; l11_norm and row 1's one-norm sum are not
        p = tmp_path / "big.txt"
        p.write_text("1 2 1e308\n1 3 1e308\n")
        with pytest.raises(ValidationError, match="non-finite"):
            bmcut.load_instance(str(p), "edge-list")

    def test_edge_list_cancelling_repeats_symmetric(self, tmp_path):
        # summed in two different orders, (i, j) and (j, i) would disagree
        p = tmp_path / "cancel.txt"
        p.write_text("1 2 1e16\n2 1 1\n1 2 -1e16\n")
        inst = bmcut.load_instance(str(p), "edge-list")
        assert (inst.rows != inst.rows.T).nnz == 0

    @pytest.mark.parametrize("name, fmt, text", REFUSED_FILES)
    def test_refused_file_is_named(self, tmp_path, name, fmt, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValidationError) as exc:
            bmcut.load_instance(str(p), fmt)
        assert str(exc.value) == (
            f"{p}: matrix contains non-finite entries or sums")

    def test_matrix_market_non_square_names_path(self, tmp_path):
        p = tmp_path / "wide.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n"
            "1 3 1.0\n")
        with pytest.raises(DimensionError, match=r"wide\.mtx"):
            bmcut.load_instance(str(p), "matrix-market")

    @pytest.mark.parametrize("layout, entry", [
        ("coordinate", "2 2 1\n1 2 1.0 5.0\n"),
        ("array", "2 2\n0 0\n1.0 5.0\n1.0 5.0\n0 0\n")])
    def test_matrix_market_complex_rejected(self, tmp_path, layout, entry):
        # casting to float64 would drop the imaginary parts
        p = tmp_path / "cplx.mtx"
        p.write_text(f"%%MatrixMarket matrix {layout} complex general\n{entry}")
        with pytest.raises(ParseError, match=r"cplx\.mtx: complex"):
            bmcut.load_instance(str(p), "matrix-market")

    def test_matrix_market_garbage_rejected(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text("not a matrix\n")
        with pytest.raises(ParseError):
            bmcut.load_instance(str(p), "matrix-market")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            bmcut.load_instance("whatever", "hdf5")

    def test_edge_list_roundtrip(self, tmp_path):
        # the second instance's last node is isolated: only the header's node
        # count keeps it.  The third's trace offset 5 is written as the
        # self-loop "1 1 5.0", which the loader adds to the diagonal once
        tail = np.zeros((5, 5))
        tail[0, 1] = tail[1, 0] = tail[1, 3] = tail[3, 1] = -1.0
        for inst in (bmcut.gen_erdos_renyi(12, 20, sign=-1, seed=4),
                     bmcut.preprocess(tail), offset_instance()):
            p = tmp_path / "round.txt"
            bmcut.write_edge_list(inst, str(p))
            back = bmcut.load_instance(str(p), "edge-list")
            assert back.n == inst.n
            assert back.checksum() == inst.checksum()

    def test_edge_list_no_edges_roundtrip(self, tmp_path):
        # the "# <n> nodes" header alone gives n; the instance is all zeros
        inst = bmcut.preprocess(np.zeros((3, 3)))
        p = tmp_path / "empty.txt"
        bmcut.write_edge_list(inst, str(p))
        back = bmcut.load_instance(str(p), "edge-list")
        assert back.n == 3 and back.nnz == 0
        assert back.checksum() == inst.checksum()

    def test_edge_list_no_edges_without_header_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# a comment, but no node count\n\n")
        with pytest.raises(ParseError, match="no edges"):
            bmcut.load_instance(str(p), "edge-list")

    def test_edge_list_index_above_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# 3 nodes, 2 edges\n1 2 1.0\n2 4 1.0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:3"):
            bmcut.load_instance(str(p), "edge-list")

    @pytest.mark.parametrize("text, message", BEYOND_INT64_EDGES)
    def test_edge_list_beyond_int64_rejected(self, tmp_path, text, message):
        p = tmp_path / "huge.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}:1: {message}")):
            bmcut.load_instance(str(p), "edge-list")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6),
                              st.integers(-4, 4)), min_size=1, max_size=30))
    def test_edge_list_sums_repeats(self, tmp_path_factory, edges):
        p = tmp_path_factory.mktemp("edges") / "e.txt"
        p.write_text("".join(f"{i} {j} {w}\n" for i, j, w in edges))
        inst = bmcut.load_instance(str(p), "edge-list")
        i, j, w = (np.array(col) for col in zip(*edges))
        n = max(i.max(), j.max())
        off = i != j
        ref = np.zeros((n, n))
        np.add.at(ref, (i[off] - 1, j[off] - 1), w[off])
        np.add.at(ref, (j[off] - 1, i[off] - 1), w[off])
        assert inst.n == n
        assert np.array_equal(inst.dense(), ref)
        assert inst.trace_offset == w[~off].sum()

    def test_edge_list_not_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "latin.txt"
        p.write_bytes(b"1 2 1.0\n2 3 \xff\n")
        with pytest.raises(ParseError,
                           match=r"latin\.txt: 'utf-8' codec can't decode byte 0xff"):
            bmcut.load_instance(str(p), "edge-list")

    @settings(max_examples=150, deadline=None)
    @given(EDGE_TEXT)
    def test_edge_list_stages_agree(self, tmp_path_factory, text):
        # numpy's reader and the line loop it falls back to give one result
        p = str(tmp_path_factory.mktemp("edges") / "e.txt")
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(problem, "_load_edge_list", line_loop):
            expected = load_outcome(p)
        assert load_outcome(p) == expected

    @pytest.mark.parametrize("header", [True, False])
    def test_edge_list_numpy_stage_loads(self, tmp_path, monkeypatch, header):
        # a first stage that refused every file would reach the line loop
        def refuse(path, lines):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(problem, "_parse_edge_lines", refuse)
        inst = bmcut.gen_erdos_renyi(30, 200, sign=-1, seed=1)
        p = tmp_path / "e.txt"
        bmcut.write_edge_list(inst, str(p))
        if not header:   # node 30 has an edge, so n is the largest index
            p.write_text(p.read_text().split("\n", 1)[1])
        assert bmcut.load_instance(str(p), "edge-list").checksum() == inst.checksum()

    def test_index_arrays_are_int64(self, tmp_path):
        # the checksum hashes indices as <i8 whatever their dtype, and int32
        # indices would slow every take in bcm_step
        inst = bmcut.gen_erdos_renyi(50, 100, sign=-1, seed=0)
        p = tmp_path / "e.txt"
        bmcut.write_edge_list(inst, str(p))
        for got in (inst, bmcut.load_instance(str(p), "edge-list")):
            assert not got.complete
            assert got.rows.indices.dtype == np.int64
            assert got.rows.indptr.dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(symmetric_mtx())
    @example("%%MatrixMarket matrix coordinate real symmetric\n"
             "2 2 3\n2 1 1e16\n2 1 -1e16\n1 2 1.5\n")
    def test_matrix_market_symmetric_as_stored(self, tmp_path_factory, text):
        # a symmetric header skips (A + A^T)/2, which gives the same bits and
        # the same refusals on the reader's mirrored entries.  The reader puts
        # the mirrors after the stored entries, so repeats can sum to
        # different values at (1, 2) and (2, 1) (2 and 1.5 in the example),
        # which (A + A^T)/2 evens out
        p = str(tmp_path_factory.mktemp("mtx") / "s.mtx")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        expected = build_outcome(oracles.matrix_market_reference, p)
        assert build_outcome(
            lambda path: bmcut.load_instance(path, "matrix-market"), p) == expected

    def test_matrix_market_symmetric_build_peak(self, tmp_path):
        # the build of a symmetric file holds no more than scipy's reader
        # holds while it reads; (A + A^T)/2 took 2.25 times that
        p = str(tmp_path / "g.mtx")
        bmcut.write_matrix_market(bmcut.gen_gaussian(240, seed=5), p)
        peaks = []
        for read in (scipy.io.mmread,
                     lambda path: bmcut.load_instance(path, "matrix-market")):
            read(p)   # imports and first-call caches are not the build's
            tracemalloc.start()
            try:
                read(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_matrix_market_roundtrip(self, tmp_path):
        # a trace offset is written as the (1, 1) entry, which the loader
        # keeps exactly
        for inst in (bmcut.gen_gaussian(8, seed=2), offset_instance()):
            p = tmp_path / "round.mtx"
            bmcut.write_matrix_market(inst, str(p))
            back = bmcut.load_instance(str(p), "matrix-market")
            assert back.trace_offset == inst.trace_offset
            assert back.checksum() == inst.checksum()

    def test_matrix_market_offset_overflow_refused(self, tmp_path):
        # the loader refuses a diagonal entry above half the largest float,
        # whose symmetrization would overflow, so the file could not be read back
        inst = bmcut.preprocess(np.diag([6e307, 6e307]))
        p = tmp_path / "big.mtx"
        with pytest.raises(ValidationError, match="trace offset"):
            bmcut.write_matrix_market(inst, str(p))
        fits = bmcut.preprocess(np.diag([4e307, 4e307]))
        bmcut.write_matrix_market(fits, str(p))
        back = bmcut.load_instance(str(p), "matrix-market")
        assert back.checksum() == fits.checksum()

    def test_zero_offset_files_unchanged(self, tmp_path):
        # a zero offset, as in every bmcut gen output, writes no diagonal
        # entry: the edge list holds the strict upper triangle, the Matrix
        # Market file the strict lower one
        inst = bmcut.gen_erdos_renyi(5, 3, sign=-1, seed=0)
        p, q = tmp_path / "e.txt", tmp_path / "e.mtx"
        bmcut.write_edge_list(inst, str(p))
        bmcut.write_matrix_market(inst, str(q))
        assert p.read_text().splitlines()[0] == "# 5 nodes, 3 edges"
        assert all(i != j for i, j, _ in
                   (line.split() for line in p.read_text().splitlines()[1:]))
        rows = [line.split() for line in q.read_text().splitlines()
                if not line.startswith("%")]
        assert rows[0] == ["5", "5", "3"]
        assert all(int(i) > int(j) for i, j, _ in rows[1:])
