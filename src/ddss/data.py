"""LIBSVM ingestion, block partitions, and per-dataset precomputation."""

import numpy as np
import scipy.sparse as sp

# Fixed reduction granularity for full-gradient accumulation.  Partial sums
# are always folded in chunk order, so the result is bit-identical no matter
# how many threads computed the partials.
GRAD_CHUNK = 256


class ParseError(ValueError):
    """Malformed LIBSVM input."""


class SparseDataset:
    """Dual-indexed sparse design matrix with regression targets.

    Rows (samples) and columns (features) of the same matrix are both kept,
    as sorted CSR and CSC.  Immutable after construction.
    """

    def __init__(self, matrix, targets):
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        self.n, self.p = csr.shape
        if self.n < 1 or self.p < 1:
            raise ValueError("dataset must have n >= 1 and p >= 1")
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (self.n,):
            raise ValueError("targets must have length n")
        self.csr = csr
        self.csc = csr.tocsc()
        self.csc.sort_indices()
        self.targets = targets

    def row(self, i):
        a, b = self.csr.indptr[i], self.csr.indptr[i + 1]
        return self.csr.indices[a:b], self.csr.data[a:b]

    def col(self, j):
        a, b = self.csc.indptr[j], self.csc.indptr[j + 1]
        return self.csc.indices[a:b], self.csc.data[a:b]

    def row_sq_norms(self):
        sq = self.csr.copy()
        sq.data **= 2
        return np.asarray(sq.sum(axis=1)).ravel()


def parse_libsvm(source, n_features=None):
    """Parse LIBSVM text (``label idx:val ...``, 1-based, ascending indices).

    ``source`` may be a string or any iterable of lines.  Comment lines
    starting with ``#`` are skipped.  Returns a :class:`SparseDataset` with
    0-based internal indices; ``n_features`` pads trailing all-zero columns.
    """
    if isinstance(source, (str, bytes)):
        if isinstance(source, bytes):
            source = source.decode()
        lines = source.splitlines()
    else:
        lines = source

    targets = []
    rows_i = []
    cols_j = []
    vals = []
    p_seen = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            targets.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {tokens[0]!r}")
        i = len(targets) - 1
        prev = 0
        for tok in tokens[1:]:
            parts = tok.split(":")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            try:
                j = int(parts[0])
                v = float(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            if j < 1:
                raise ParseError(f"line {lineno}: index {j} is not 1-based")
            if j <= prev:
                raise ParseError(f"line {lineno}: non-ascending indices")
            prev = j
            rows_i.append(i)
            cols_j.append(j - 1)
            vals.append(v)
            p_seen = max(p_seen, j)

    n = len(targets)
    if n == 0:
        raise ParseError("empty input")
    p = p_seen
    if n_features is not None:
        if n_features < p_seen:
            raise ParseError(
                f"n_features={n_features} smaller than max index {p_seen}")
        p = n_features
    if p == 0:
        raise ParseError("no features present and no dimension override")
    mat = sp.coo_matrix(
        (vals, (rows_i, cols_j)), shape=(n, p), dtype=np.float64)
    return SparseDataset(mat, targets)


class BlockPartition:
    """Disjoint, covering partition of the feature indices into blocks."""

    def __init__(self, blocks, p):
        self.blocks = [np.asarray(sorted(b), dtype=np.int64) for b in blocks]
        self.p = p
        self.q = len(self.blocks)
        seen = np.zeros(p, dtype=bool)
        self.block_of = np.full(p, -1, dtype=np.int64)
        for j, b in enumerate(self.blocks):
            if len(b) == 0:
                raise ValueError(f"block {j} is empty")
            if b[0] < 0 or b[-1] >= p:
                raise ValueError(f"block {j} has indices outside [0, {p})")
            if seen[b].any():
                raise ValueError("blocks overlap")
            seen[b] = True
            self.block_of[b] = j
        if not seen.all():
            raise ValueError("blocks do not cover [0, p)")
        self.sizes = np.array([len(b) for b in self.blocks])
        self.singleton = bool(self.q == p)

    @classmethod
    def singletons(cls, p):
        return cls([[j] for j in range(p)], p)

    @classmethod
    def contiguous(cls, p, block_size):
        blocks = [list(range(a, min(a + block_size, p)))
                  for a in range(0, p, block_size)]
        return cls(blocks, p)


class SupportMap:
    """Per-sample touched-block sets with occurrence counts and reweighting.

    ``psi[i]`` holds the block ids intersecting the nonzeros of row i,
    ``counts[g]`` how many samples touch block g, ``weights[g] = n/counts[g]``
    (NaN when a block is never touched), and ``delta`` the maximum touch
    frequency max_g counts[g]/n.
    """

    def __init__(self, psi, counts, weights, delta):
        self.psi = psi
        self.counts = counts
        self.weights = weights
        self.delta = delta


def build_support_map(dataset, partition):
    if partition.p != dataset.p:
        raise ValueError("partition dimension does not match dataset")
    counts = np.zeros(partition.q, dtype=np.int64)
    psi = []
    for i in range(dataset.n):
        idx, _ = dataset.row(i)
        blocks = np.unique(partition.block_of[idx])
        psi.append(blocks)
        counts[blocks] += 1
    weights = np.full(partition.q, np.nan)
    touched = counts > 0
    weights[touched] = dataset.n / counts[touched]
    delta = counts.max() / dataset.n if touched.any() else 0.0
    return SupportMap(psi, counts, weights, delta)


def column_dual_norms(dataset, partition, reg):
    """Per-block dual-norm bound of the column submatrix A_j.

    For separable (L1-style) blocks this is the largest column 2-norm; for
    group-L2 blocks the spectral norm of the n x |G_j| submatrix.
    """
    out = np.zeros(partition.q)
    for j, b in enumerate(partition.blocks):
        out[j] = reg.matrix_dual_norm(dataset.csc[:, b])
    return out


def smoothness_constant(dataset, loss):
    """L = gamma * max_i ||a_i||^2, valid for per-sample losses f_i(a_i^T x)."""
    sq = dataset.row_sq_norms()
    return float(loss.gamma * sq.max()) if dataset.n else 0.0


def fold_partials(partials, p):
    """Sum partial gradient vectors strictly in the order given."""
    out = np.zeros(p)
    for part in partials:
        out += part
    return out


def chunked_AT_u(csr, u, pool=None):
    """csr.T @ u accumulated chunk by chunk and folded in chunk order.

    With a thread pool the chunk partials are computed in parallel but still
    folded in chunk order, so the result never depends on the worker count.
    """
    n, p = csr.shape
    bounds = list(range(0, n, GRAD_CHUNK)) + [n]
    ranges = list(zip(bounds[:-1], bounds[1:]))

    def partial(r):
        a, b = r
        return csr[a:b].T @ u[a:b]

    mapper = map if pool is None else pool.map
    return fold_partials(mapper(partial, ranges), p)


def gradient_sum(dataset, u, pool=None):
    """A^T u of the whole dataset, by the order-stable chunk fold."""
    return chunked_AT_u(dataset.csr, u, pool=pool)
