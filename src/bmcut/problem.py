"""Problem instances: symmetric zero-diagonal cost matrices with cached norms.

The objective <A, X> over matrices with unit diagonal only sees the symmetric
part of A, and zeroing the diagonal shifts it by the constant trace(A).  Every
source (``preprocess``, the generators, and both file loaders) ends in one
construction path, ``_finish``: it strips the diagonal into ``trace_offset``,
caches the two norms the solver bounds depend on, and rejects non-finite
entries and sums that overflow.  Weighted pairs (edge lists, Erdos-Renyi
graphs) go through ``_from_edges``, which sums each pair's repeats once and
mirrors the sum; raw matrices (Matrix Market files) go through
``preprocess``, which symmetrizes.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, ParseError, ValidationError


@dataclass(frozen=True)
class ProblemInstance:
    """Symmetric cost matrix with zero diagonal, row-accessible sparse storage.

    Immutable after construction; safe to share across concurrent solver runs.
    """

    n: int
    rows: sp.csr_array      # symmetric, zero diagonal, sorted column indices
    trace_offset: float     # trace of the symmetrized input, reported additively
    one_norm: float         # max_j sum_i |A_ij|
    l11_norm: float         # sum_ij |A_ij|

    def row(self, i: int):
        """Column indices and values of row i (the diagonal is never stored)."""
        lo, hi = self.rows.indptr[i], self.rows.indptr[i + 1]
        return self.rows.indices[lo:hi], self.rows.data[lo:hi]

    def matmat(self, dense: np.ndarray) -> np.ndarray:
        """A @ dense for an (n, k) array."""
        return self.rows @ dense

    def dense(self) -> np.ndarray:
        return self.rows.toarray()

    @property
    def nnz(self) -> int:
        return int(self.rows.nnz)

    def checksum(self) -> str:
        """SHA-256 over the canonical storage, for trace headers."""
        h = hashlib.sha256()
        h.update(np.int64(self.n).tobytes())
        h.update(np.asarray(self.rows.indptr, dtype="<i8").tobytes())
        h.update(np.asarray(self.rows.indices, dtype="<i8").tobytes())
        h.update(np.asarray(self.rows.data, dtype="<f8").tobytes())
        h.update(np.float64(self.trace_offset).tobytes())
        return h.hexdigest()


def _finish(sym: sp.sparray | np.ndarray) -> ProblemInstance:
    """Build an instance from an exactly symmetric matrix (diagonal included).

    ``sym`` is a dense array or a sparse matrix whose repeated coordinates are
    already summed.  Strips the diagonal into trace_offset, drops explicit
    zeros (including cancellations produced by symmetrization), sorts column
    indices and caches the norms.  Rejects the matrix when trace_offset or
    l11_norm is not finite: that covers every NaN or inf entry, and finite
    entries whose sums overflow.
    """
    coo = sp.coo_array(sym)
    keep = (coo.row != coo.col) & (coo.data != 0.0)
    mat = sp.coo_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
    ).tocsr()
    with np.errstate(over="ignore"):   # an overflowing sum is refused below
        offset = float(coo.diagonal().sum())
        l11 = float(abs(mat.data).sum())
    if not (math.isfinite(l11) and math.isfinite(offset)):
        raise ValidationError("matrix contains non-finite entries or sums")
    n = mat.shape[0]
    col_abs = abs(mat).sum(axis=0)
    one_norm = float(col_abs.max()) if n else 0.0
    return ProblemInstance(n=n, rows=mat, trace_offset=offset,
                           one_norm=one_norm, l11_norm=l11)


def _from_edges(n: int, i, j, w) -> ProblemInstance:
    """Build an instance from 0-based weighted pairs (i, j, w).

    Entry {i, j} is the sum of the weights of every pair naming it, in either
    orientation; a self-loop (i == j) adds its weight to the diagonal once.
    """
    i, j, w = np.asarray(i), np.asarray(j), np.asarray(w, dtype=np.float64)
    # CSR conversion sums each pair's weights once, in the upper triangle;
    # mirroring those sums keeps the matrix exactly symmetric
    upper = sp.coo_array(
        (w, (np.minimum(i, j), np.maximum(i, j))), shape=(n, n)
    ).tocsr()
    return _finish(upper + sp.triu(upper, k=1).T)


def preprocess(raw_matrix) -> ProblemInstance:
    """Symmetrize a square matrix, zero its diagonal, and cache norms.

    ``raw_matrix`` is array-like or scipy-sparse.  The returned instance
    stores (raw + raw.T)/2 off the diagonal; trace_offset records the trace
    removed from the diagonal.
    """
    if sp.issparse(raw_matrix):
        m = sp.csr_array(raw_matrix, dtype=np.float64)
    else:
        m = np.asarray(raw_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return _finish((m + m.T) * 0.5)


def gen_gaussian(n: int, seed: int) -> ProblemInstance:
    """Random dense symmetric instance with entries (G_ij + G_ji)/n, G standard normal.

    The diagonal is zero and the draw is deterministic per seed.
    """
    if n < 2:
        raise ValidationError(f"gaussian instance needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = (g + g.T) / n
    np.fill_diagonal(a, 0.0)
    return _finish(a)


def _decode_pairs(ks: np.ndarray, n: int):
    """Map flat indices in [0, n(n-1)/2) to (i, j) with i < j, lexicographic."""
    starts = np.arange(n, dtype=np.int64) * (n - 1) - (
        np.arange(n, dtype=np.int64) * (np.arange(n, dtype=np.int64) - 1)
    ) // 2
    i = np.searchsorted(starts, ks, side="right") - 1
    j = i + 1 + (ks - starts[i])
    return i, j


def gen_erdos_renyi(n: int, edges: int, sign: int, seed: int) -> ProblemInstance:
    """Uniform simple graph on n nodes with exactly `edges` edges, weights sign*1.

    sign=-1 orients maximization of <A, X> toward the Max-Cut relaxation.
    """
    if n < 2:
        raise ValidationError(f"graph instance needs n >= 2, got {n}")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    m = n * (n - 1) // 2
    if not 1 <= edges <= m:
        raise ValidationError(f"edges must be in [1, {m}] for n={n}, got {edges}")
    rng = np.random.default_rng(seed)
    if edges <= m // 3:
        # sparse regime: rejection into a set stays uniform over edge subsets
        chosen: set[int] = set()
        while len(chosen) < edges:
            need = edges - len(chosen)
            for k in rng.integers(0, m, size=max(16, 2 * need)):
                chosen.add(int(k))
                if len(chosen) == edges:
                    break
        ks = np.fromiter(sorted(chosen), dtype=np.int64)
    else:
        ks = np.sort(rng.permutation(m)[:edges]).astype(np.int64)
    i, j = _decode_pairs(ks, n)
    return _from_edges(n, i, j, np.full(edges, float(sign)))


_NODES_HEADER = re.compile(r"#\s*(\d+) nodes\b")


def _load_edge_list(path: str) -> ProblemInstance:
    # a line "i j w" adds w to the symmetric entry {i, j}; a "# <n> nodes"
    # comment before the first edge fixes n, so trailing isolated nodes and
    # edgeless graphs survive
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n = None
    limit = math.inf
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                header = _NODES_HEADER.match(text)
                if header and not rows:
                    n = limit = int(header.group(1))
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(f"{path}:{ln}: expected 'i j w', got {text!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
            if not (0 < i <= limit and 0 < j <= limit):
                if i < 1 or j < 1:
                    raise ParseError(
                        f"{path}:{ln}: indices are 1-based, got {i} {j}")
                raise ParseError(
                    f"{path}:{ln}: index {max(i, j)} exceeds the header's "
                    f"{n} nodes")
            if not math.isfinite(w):
                raise ParseError(f"{path}:{ln}: non-finite weight {parts[2]}")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(w)
    if n is None:
        if not rows:
            raise ParseError(f"{path}: no edges found and no '# <n> nodes' header")
        n = max(max(rows), max(cols)) + 1
    return _from_edges(n, rows, cols, vals)


def _load_matrix_market(path: str) -> ProblemInstance:
    import scipy.io

    try:
        raw = scipy.io.mmread(path)
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from None
    if np.iscomplexobj(raw):
        raise ParseError(f"{path}: complex entries are not supported")
    try:
        return preprocess(raw)
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from None


def load_instance(path: str, format: str = "edge-list") -> ProblemInstance:
    """Load an instance file and build it through the one construction path.

    Formats: "edge-list" (lines "i j w", 1-based, '#' comments; repeated
    pairs, in either orientation, are summed; a "# <n> nodes" comment before
    the first edge sets n, else n is the largest index) and "matrix-market"
    (coordinate or array; passed to ``preprocess``, so a general header is
    symmetrized).
    Every source rejects non-finite entries, and finite entries whose sums
    (repeated pairs, norms, trace) overflow.
    """
    if format == "edge-list":
        return _load_edge_list(path)
    if format == "matrix-market":
        return _load_matrix_market(path)
    raise ValidationError(f"unknown instance format {format!r}")


def write_edge_list(instance: ProblemInstance, path: str) -> None:
    """Write a "# <n> nodes" header and the strict upper triangle as 1-based
    "i j w" lines.

    The trace offset has no edge-list representation and is dropped.
    """
    coo = sp.coo_array(sp.triu(instance.rows, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {instance.n} nodes, {coo.nnz} edges\n")
        for i, j, w in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {float(w)!r}\n")


def write_matrix_market(instance: ProblemInstance, path: str) -> None:
    import scipy.io

    # through a handle: given a name, mmwrite appends .mtx to any other suffix
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, sp.coo_matrix(instance.rows), symmetry="symmetric")
