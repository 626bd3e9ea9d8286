"""Problem instances: symmetric zero-diagonal cost matrices with cached norms.

The objective <A, X> over matrices with unit diagonal only sees the symmetric
part of A, and zeroing the diagonal shifts it by the constant trace(A).  Every
source (``preprocess``, the generators, and both file loaders) ends in one
construction path, ``_finish``: it strips the diagonal into ``trace_offset``,
caches the two norms the solver bounds depend on, and rejects non-finite
entries and sums that overflow.  Weighted pairs (edge lists, Erdos-Renyi
graphs) go through ``_from_edges``, which sums each pair's repeats once and
mirrors the sum; raw matrices go through ``preprocess``, which symmetrizes,
as do Matrix Market files except symmetric coordinate ones, taken as stored.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, ParseError, ValidationError, check_count


@dataclass(frozen=True)
class ProblemInstance:
    """Symmetric cost matrix with zero diagonal: one (n, n) array if every
    off-diagonal entry is nonzero (complete), else CSR rows.  Read-only, so
    it is safe to share across concurrent solver runs.
    """

    n: int
    rows: sp.csr_array | np.ndarray   # zero diagonal; CSR columns sorted
    trace_offset: float     # trace of the symmetrized input, reported additively
    one_norm: float         # max_j sum_i |A_ij|
    l11_norm: float         # sum_ij |A_ij|
    digest: str             # checksum(), taken by _finish

    def row(self, i: int):
        """Column indices and values of row i's off-diagonal entries."""
        if self.complete:
            cols = np.delete(np.arange(self.n), i)
            return cols, self.rows[i, cols]
        lo, hi = self.rows.indptr[i], self.rows.indptr[i + 1]
        return self.rows.indices[lo:hi], self.rows.data[lo:hi]

    def dense(self) -> np.ndarray:
        """A writable n x n copy of A."""
        return self.rows.copy() if self.complete else self.rows.toarray()

    @property
    def nnz(self) -> int:
        return self.n * (self.n - 1) if self.complete else int(self.rows.nnz)

    @property
    def complete(self) -> bool:
        """Stored dense, as `_finish` does with no zero off-diagonal entry;
        `bcm.drive`, `bcm_step`, `dual_upper_bound` and `run_bcm2` branch on it."""
        return isinstance(self.rows, np.ndarray)

    def check_rows(self, m: int, what: str) -> None:
        """Refuse the caller's `what` (point, cache, sign vector) of m rows."""
        if m != self.n:
            raise ValidationError(f"{what} has {m} rows, instance has {self.n}")

    @property
    def unit(self) -> float:
        """The power of two 2^j with 2^j <= |A|_1 < 2^(j+1) (1/2 for A = 0).
        Eigensolvers take matrices divided by it, which is exact, and so see
        the same numbers at every scale of A."""
        return math.ldexp(1.0, math.frexp(self.one_norm)[1] - 1)

    def checksum(self) -> str:
        """SHA-256 over int64 n, A's CSR indptr and indices (int64) and data,
        and trace_offset, for trace headers; `_finish` hashed them once."""
        return self.digest


def _finish(sym: sp.sparray | np.ndarray) -> ProblemInstance:
    """Build an instance from an exactly symmetric matrix (diagonal included).

    ``sym`` is dense, or sparse with no repeated coordinates (as a symmetric
    file's CSR is), built for this call, so a sparse ``sym`` is edited in place.
    Here the instance's only CSR image is filtered (diagonal into trace_offset,
    explicit zeros and symmetrization's cancellations dropped, columns
    sorted) and gives the norms and checksum; then a complete A is densified
    and the storage made read-only.  Rejects a non-finite trace_offset or
    l11_norm: every NaN or inf entry, and finite entries whose sums overflow.
    """
    mat = sp.csr_array(sym)
    mat.sum_duplicates()   # sorts the columns of a non-canonical sum
    n = mat.shape[0]
    rows = np.repeat(np.arange(n, dtype=mat.indices.dtype), np.diff(mat.indptr))
    with np.errstate(over="ignore"):   # an overflowing sum is refused below
        offset = float(mat.diagonal().sum())
        mat.data[mat.indices == rows] = 0.0
        mat.eliminate_zeros()
        l11 = float(abs(mat.data).sum())
    if not (math.isfinite(l11) and math.isfinite(offset)):
        raise ValidationError("matrix contains non-finite entries or sums")
    one_norm = float(abs(mat).sum(axis=0).max()) if n else 0.0
    h = hashlib.sha256(np.concatenate(([n], mat.indptr, mat.indices), dtype="<i8"))
    h.update(mat.data)
    h.update(np.float64(offset))
    if mat.nnz == n * (n - 1):
        mat = mat.toarray()
        parts = (mat,)
    else:
        parts = (mat.data, mat.indices, mat.indptr)
    for part in parts:
        part.flags.writeable = False
    return ProblemInstance(n=n, rows=mat, trace_offset=offset,
                           one_norm=one_norm, l11_norm=l11, digest=h.hexdigest())


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

    ``raw_matrix`` is array-like or scipy-sparse, with real entries.  The
    returned instance stores (raw + raw.T)/2 off the diagonal; trace_offset
    records the trace removed from the diagonal.  On an exactly symmetric
    raw, whose sum doubles each entry exactly, those are raw's own bits,
    unless a diagonal entry above half the largest float overflows.
    """
    if np.iscomplexobj(raw_matrix):   # the float64 conversion would drop them
        raise ValidationError("complex entries are not supported")
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
    n = check_count("n", n, 2)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    g = rng.standard_normal((n, n))
    a = (g + g.T) / n
    np.fill_diagonal(a, 0.0)
    return _finish(a)


def _decode_pairs(ks: np.ndarray, n: int):
    """Map flat indices in [0, n(n-1)/2) to (i, j) with i < j, lexicographic."""
    k = np.arange(n, dtype=np.int64)
    starts = k * (n - 1) - k * (k - 1) // 2
    i = np.searchsorted(starts, ks, side="right") - 1
    j = i + 1 + (ks - starts[i])
    return i, j


def gen_erdos_renyi(n: int, edges: int, sign: int, seed: int) -> ProblemInstance:
    """Uniform simple graph on n nodes with exactly `edges` edges, weights sign*1.

    The edge set is one draw without replacement from the n(n-1)/2 pairs.
    sign=-1 orients maximization of <A, X> toward the Max-Cut relaxation.
    """
    n = check_count("n", n, 2)
    if not check_count("sign", sign, -1, 2):
        raise ValidationError("sign must be +1 or -1, got 0")
    m = n * (n - 1) // 2
    edges = check_count("edges", edges, 1, m + 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    ks = np.sort(rng.choice(m, size=edges, replace=False))
    i, j = _decode_pairs(ks, n)
    return _from_edges(n, i, j, np.full(edges, float(sign)))


_NODES_HEADER = re.compile(r"#\s*(\d+) nodes\b")
_INT64_MAX = np.iinfo(np.int64).max


def _load_edge_list(path: str) -> ProblemInstance:
    """Scan the leading blank and '#' lines for the header, then parse any rest
    (loadtxt warns on none) with numpy's C reader and check it in bulk.  What
    that refuses goes to `_parse_edge_lines`, the one source of line-numbered
    errors, which also takes what only numpy refused (`1_0`, later comments)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = io.StringIO(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    n, start = None, 0
    for line in iter(text.readline, ""):
        if (line := line.strip()) and not line.startswith("#"):
            text.seek(start)
            try:
                i, j, w = np.loadtxt(text, [("i", np.int64), ("j", np.int64), ("w", float)],
                                     ndmin=1, comments=None, unpack=True)
            except ValueError:   # grammar, arity, int64 overflow, a later '#' line
                break
            top = int(max(i.max(), j.max()))
            n = top if n is None else n
            if min(i.min(), j.min()) >= 1 and top <= n and np.isfinite(w).all():
                text.close()   # frees the text before the build's peak
                return _from_edges(n, i - 1, j - 1, w)
            break
        header = _NODES_HEADER.match(line)
        n, start = int(header.group(1)) if header else n, text.tell()
        if (n or 0) > _INT64_MAX:   # the line loop names its line
            break
    return _parse_edge_lines(path, text.getvalue().split("\n"))


def _parse_edge_lines(path: str, lines) -> ProblemInstance:
    # a line "i j w" adds w to the symmetric entry {i, j}; a "# <n> nodes"
    # comment before the first edge fixes n, so trailing isolated nodes and
    # edgeless graphs survive
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n = None
    limit = _INT64_MAX
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            header = _NODES_HEADER.match(text)
            if header and not rows:
                n = limit = int(header.group(1))
                if n > _INT64_MAX:
                    raise ParseError(f"{path}:{ln}: {n} nodes exceed int64")
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
            raise ParseError(f"{path}:{ln}: index {max(i, j)} exceeds " + (
                "int64" if n is None else f"the header's {n} nodes"))
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
    """A square coordinate file with a symmetric header, which the reader
    mirrors, goes to `_finish` as stored; the rest go to `preprocess`, as do
    merged repeats, whose sums can differ by orientation, and a diagonal
    entry whose doubling overflows, which `preprocess` refuses."""
    import scipy.io

    try:
        raw = scipy.io.mmread(path)
        nrows, ncols, _, layout, _, symmetry = scipy.io.mminfo(path)
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from None
    if np.iscomplexobj(raw):
        raise ParseError(f"{path}: complex entries are not supported")
    if not (layout == "coordinate" and symmetry == "symmetric" and nrows == ncols):
        return preprocess(raw)
    m = sp.csr_array(raw, dtype=np.float64)
    merged = m.nnz != raw.nnz
    del raw   # frees the reader's output before the build's peak
    if merged or (abs(m.diagonal()) > np.finfo(np.float64).max / 2).any():
        return preprocess(m)
    return _finish(m)


def load_instance(path: str, format: str = "edge-list") -> ProblemInstance:
    """Load an instance file and build it through the one construction path.

    Formats: "edge-list" (UTF-8 lines "i j w", 1-based, '#' comments; repeated
    pairs, in either orientation, are summed; a "# <n> nodes" comment before the
    first edge sets n, else n is the largest index; numpy's reader parses it, and
    Python's line loop whatever numpy refuses; an index or a header count beyond
    int64 is refused) and "matrix-market" (coordinate or array; a general
    header is symmetrized by ``preprocess``, and a symmetric coordinate file,
    which the reader mirrors, is taken as stored, with the same bits).
    Every source rejects non-finite entries, and finite entries whose sums
    (repeated pairs, norms, trace) overflow; a refusal names the file.
    """
    loaders = {"edge-list": _load_edge_list,
               "matrix-market": _load_matrix_market}
    if format not in loaders:
        raise ValidationError(f"unknown instance format {format!r}")
    try:   # a ParseError already names the file
        return loaders[format](path)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_edge_list(instance: ProblemInstance, path: str) -> None:
    """Write a "# <n> nodes" header, a nonzero trace offset as the self-loop
    "1 1 offset", and the strict upper triangle, as 1-based "i j w" lines."""
    coo = sp.coo_array(sp.triu(instance.rows, k=1))
    loop = [(0, 0, instance.trace_offset)] if instance.trace_offset else []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {instance.n} nodes, {coo.nnz + len(loop)} edges\n")
        for i, j, w in loop + list(zip(coo.row, coo.col, coo.data)):
            fh.write(f"{i + 1} {j + 1} {float(w)!r}\n")


def write_matrix_market(instance: ProblemInstance, path: str) -> None:
    """Write A as a symmetric coordinate file, a nonzero trace offset as (1, 1)."""
    import scipy.io

    a, offset = sp.coo_array(instance.rows), instance.trace_offset
    if abs(offset) > np.finfo(np.float64).max / 2:   # (x + x) 0.5 overflows
        raise ValidationError(f"trace offset {offset!r} overflows the symmetrization")
    if offset:
        a = sp.coo_array((np.r_[offset, a.data], (np.r_[0, a.row], np.r_[0, a.col])),
                         shape=a.shape)
    # through a handle: given a name, mmwrite appends .mtx to any other suffix
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a, symmetry="symmetric")
