import numpy as np
import pytest
import scipy.sparse as sp

from ddss import BlockPartition, ParseError, SparseDataset, parse_libsvm
from ddss.data import (build_support_map, column_dual_norms, fold_partials,
                       gradient_sum, smoothness_constant)
from ddss.model import GroupL2Norm, L1Norm, LogisticLoss, SquaredLoss


class TestParseLibsvm:
    def test_basic(self):
        ds = parse_libsvm("1 1:2.0 3:1.0\n-1 2:4.0")
        assert (ds.n, ds.p) == (2, 3)
        idx, val = ds.row(0)
        assert idx.tolist() == [0, 2] and val.tolist() == [2.0, 1.0]
        cidx, cval = ds.col(1)
        assert cidx.tolist() == [1] and cval.tolist() == [4.0]
        assert ds.targets.tolist() == [1.0, -1.0]

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm("")

    def test_non_ascending(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("1 3:1 1:2")

    def test_bad_token_has_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:1\n1 1:abc")

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_libsvm("one 1:1")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError, match="1-based"):
            parse_libsvm("1 0:1")

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n\n1 1:1\n# tail\n2 2:3\n")
        assert ds.n == 2 and ds.p == 2

    def test_dimension_override_pads(self):
        ds = parse_libsvm("1 1:1", n_features=5)
        assert ds.p == 5
        with pytest.raises(ParseError):
            parse_libsvm("1 4:1", n_features=3)

    def test_empty_row_allowed(self):
        ds = parse_libsvm("3.5\n1 1:1")
        assert ds.n == 2
        idx, _ = ds.row(0)
        assert len(idx) == 0


class TestSparseDataset:
    def test_row_col_views_agree(self):
        rng = np.random.default_rng(0)
        A = np.where(rng.random((30, 20)) < 0.3, rng.normal(size=(30, 20)), 0)
        ds = SparseDataset(sp.csr_matrix(A), rng.normal(size=30))
        assert np.array_equal(ds.csr.toarray(), A)
        assert np.array_equal(ds.csc.toarray(), A)
        for i in range(30):
            idx, val = ds.row(i)
            assert idx.tolist() == np.flatnonzero(A[i]).tolist()
            assert np.array_equal(val, A[i, idx])
        for j in range(20):
            idx, val = ds.col(j)
            assert idx.tolist() == np.flatnonzero(A[:, j]).tolist()
            assert np.array_equal(val, A[idx, j])

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            SparseDataset(sp.csr_matrix((0, 3)), [])
        with pytest.raises(ValueError):
            SparseDataset(sp.csr_matrix(np.eye(2)), [1.0])


class TestBlockPartition:
    def test_singletons_and_contiguous(self):
        ps = BlockPartition.singletons(4)
        assert ps.q == 4 and ps.singleton
        pc = BlockPartition.contiguous(5, 2)
        assert [b.tolist() for b in pc.blocks] == [[0, 1], [2, 3], [4]]
        assert not pc.singleton

    def test_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            BlockPartition([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError, match="cover"):
            BlockPartition([[0], [2]], 3)
        with pytest.raises(ValueError, match="empty"):
            BlockPartition([[0, 1, 2], []], 3)


class TestSupportMap:
    def test_tiny_counts(self):
        # row0 touches block 0 only; row1 touches blocks 0 and 1
        ds = parse_libsvm("0 1:1\n0 1:2 2:3")
        part = BlockPartition.singletons(2)
        sm = build_support_map(ds, part)
        assert sm.counts.tolist() == [2, 1]
        assert sm.weights.tolist() == [1.0, 2.0]
        assert sm.delta == 1.0
        assert sm.psi[0].tolist() == [0] and sm.psi[1].tolist() == [0, 1]

    def test_d_equals_n_over_count(self):
        ds = parse_libsvm("0 1:1\n0 1:1\n0 2:1\n0 2:1")
        sm = build_support_map(ds, BlockPartition.singletons(2))
        assert sm.weights.tolist() == [2.0, 2.0]

    def test_dense_all_ones(self):
        ds = parse_libsvm("0 1:1 2:1 3:1\n0 1:1 2:1 3:1\n0 1:1 2:1 3:1")
        sm = build_support_map(ds, BlockPartition.singletons(3))
        assert sm.delta == 1.0
        assert np.all(sm.weights == 1.0)

    def test_absent_block_flagged(self):
        ds = parse_libsvm("0 1:1", n_features=2)
        sm = build_support_map(ds, BlockPartition.singletons(2))
        assert np.isnan(sm.weights[1])

    def test_averaged_reweighting_identity(self):
        rng = np.random.default_rng(3)
        A = np.where(rng.random((40, 12)) < 0.25, 1.0, 0.0)
        ds = SparseDataset(sp.csr_matrix(A), np.zeros(40))
        part = BlockPartition.contiguous(12, 3)
        sm = build_support_map(ds, part)
        for g in range(part.q):
            if sm.counts[g] == 0:
                continue
            total = sum(sm.weights[g] for i in range(ds.n)
                        if g in sm.psi[i]) / ds.n
            assert abs(total - 1.0) <= 1e-12

    def test_delta_bounds(self):
        rng = np.random.default_rng(4)
        A = np.where(rng.random((25, 9)) < 0.4, rng.normal(size=(25, 9)), 0)
        A[0, 0] = 1.0  # ensure at least one nonzero
        ds = SparseDataset(sp.csr_matrix(A), np.zeros(25))
        sm = build_support_map(ds, BlockPartition.singletons(9))
        assert 1.0 / ds.n <= sm.delta <= 1.0


class TestNorms:
    def test_column_dual_norm_l1(self):
        ds = parse_libsvm("0 1:3\n0 1:4")
        out = column_dual_norms(ds, BlockPartition.singletons(1), L1Norm())
        assert out.tolist() == [5.0]

    def test_zero_column(self):
        ds = parse_libsvm("0 1:1", n_features=2)
        out = column_dual_norms(ds, BlockPartition.singletons(2), L1Norm())
        assert out[1] == 0.0

    def test_identity(self):
        ds = parse_libsvm("0 1:1\n0 2:1")
        out = column_dual_norms(ds, BlockPartition.singletons(2), L1Norm())
        assert out.tolist() == [1.0, 1.0]

    def test_group_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(15, 6))
        ds = SparseDataset(sp.csr_matrix(A), np.zeros(15))
        part = BlockPartition.contiguous(6, 3)
        out = column_dual_norms(ds, part, GroupL2Norm())
        for j, b in enumerate(part.blocks):
            sigma = np.linalg.svd(A[:, b], compute_uv=False)[0]
            assert abs(out[j] - sigma) <= 1e-8 * sigma

    def test_group_dual_norm_is_upper_bound(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=40)
        blocks = [np.c_[a, -a]]  # a power iteration from ones returns 0 here
        for _ in range(50):
            n, m = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            blocks.append(np.where(rng.random((n, m)) < 0.4,
                                   rng.normal(size=(n, m)), 0.0))
        for B in blocks:
            sigma = np.linalg.norm(B, 2)
            for cols in (B, sp.csc_matrix(B)):
                bound = GroupL2Norm().matrix_dual_norm(cols)
                assert sigma <= bound <= sigma * (1 + 1e-9) + 1e-300
        assert abs(GroupL2Norm().matrix_dual_norm(blocks[0])
                   - np.sqrt(2) * np.linalg.norm(a)) <= 1e-12 * np.linalg.norm(a)
        assert GroupL2Norm().matrix_dual_norm(np.zeros((3, 2))) == 0.0

    def test_smoothness_constant(self):
        ds = parse_libsvm("0 1:1\n0 2:2")
        assert smoothness_constant(ds, SquaredLoss()) == 4.0
        assert smoothness_constant(ds, LogisticLoss()) == 1.0

    def test_smoothness_ignores_empty_row(self):
        ds = parse_libsvm("0\n0 1:2")
        assert smoothness_constant(ds, SquaredLoss()) == 4.0


class TestGradientSum:
    def test_matches_dense(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(700, 13))  # spans several chunks
        ds = SparseDataset(sp.csr_matrix(A), np.zeros(700))
        u = rng.normal(size=700)
        out = gradient_sum(ds, u)
        assert np.allclose(out, A.T @ u, atol=1e-10)

    def test_pool_is_bit_identical(self):
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(8)
        A = rng.normal(size=(1000, 9))
        ds = SparseDataset(sp.csr_matrix(A), np.zeros(1000))
        u = rng.normal(size=1000)
        serial = gradient_sum(ds, u)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = gradient_sum(ds, u, pool=pool)
        assert np.array_equal(serial, parallel)

    def test_fold_order_fixed(self):
        parts = [np.array([1e16]), np.array([1.0]), np.array([-1e16])]
        assert fold_partials(parts, 1)[0] == fold_partials(list(parts), 1)[0]
