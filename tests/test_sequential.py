import numpy as np
import pytest
import scipy.sparse as sp

from conftest import lasso_model, random_lasso
from ddss import (BlockPartition, ModelSpec, SparseDataset, parse_libsvm,
                  traces_equal)
from ddss.data import build_support_map, gradient_sum
from ddss.engine import EpochWorkspace, margin, vr_estimate
from ddss.model import (GroupL2Norm, L1Norm, SquaredLoss, primal_objective)
from ddss.screening import ActiveSet, precompute
from ddss.sequential import (DivergenceError, OracleError, SolverConfig,
                             oracle_solve, resolve_step, rng_for, split_inner,
                             solve_sequential)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="bogus")
        with pytest.raises(ValueError):
            SolverConfig(eta=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(epochs=0)

    def test_theorem_defaults(self):
        ds = random_lasso(20, 8, 1.0, seed=0, row_norm=1.0)
        m = lasso_model(ds, ratio=0.3, mu_f=1e-2)
        stats = precompute(m, ds)
        eta, K = resolve_step(SolverConfig(), m, stats, ds.n)
        L = stats.L
        kappa = L / 1e-2
        assert eta == min(1.0 / (24 * kappa * L), kappa / (2 * L))
        assert K == int(np.ceil(4 * np.log(3) / (eta * 1e-2)))

    def test_tau_branch(self):
        ds = random_lasso(20, 8, 1.0, seed=0, row_norm=1.0)
        m = lasso_model(ds, ratio=0.3, mu_f=0.5)
        stats = precompute(m, ds)
        kappa = stats.L / 0.5
        eta, _ = resolve_step(SolverConfig(tau_assumed=100.0), m, stats, ds.n)
        assert eta == min(1.0 / (24 * kappa * stats.L),
                          kappa / (2 * stats.L),
                          kappa / (10 * 100.0 * stats.L))

    def test_mu_zero_fallback_warns(self):
        ds = random_lasso(20, 8, 1.0, seed=0)
        m = lasso_model(ds, ratio=0.3)
        stats = precompute(m, ds)
        with pytest.warns(UserWarning):
            eta, K = resolve_step(SolverConfig(), m, stats, ds.n)
        assert eta == 1.0 / (3.0 * stats.L)
        assert K == 2 * ds.n


class TestOracle:
    def test_orthogonal_lasso(self):
        ds = parse_libsvm("1.0 1:1\n-0.2 2:1\n0.6 3:1")
        m = lasso_model(ds, ratio=0.5)
        lam, _ = m.lambdas(ds.n)
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        closed = np.sign(ds.targets) * np.maximum(
            np.abs(ds.targets) - ds.n * lam, 0.0)
        assert np.allclose(xs, closed, atol=1e-10)

    def test_zero_beyond_lambda_max(self):
        ds = random_lasso(25, 10, 1.0, seed=1)
        m = lasso_model(ds, ratio=1.3)
        assert np.all(oracle_solve(m, ds, tol_gap=1e-12) == 0.0)

    def test_self_consistency_different_order(self):
        ds = random_lasso(50, 20, 1.0, seed=2)
        m = lasso_model(ds, ratio=0.15)
        xa = oracle_solve(m, ds, tol_gap=1e-12)
        xb = oracle_solve(m, ds, tol_gap=1e-12, order_seed=7)
        assert abs(primal_objective(m, ds, xa)
                   - primal_objective(m, ds, xb)) <= 1e-10

    def test_iteration_cap_carries_best(self):
        ds = random_lasso(30, 12, 1.0, seed=3)
        m = lasso_model(ds, ratio=0.1)
        with pytest.raises(OracleError) as exc:
            oracle_solve(m, ds, tol_gap=0.0, max_updates=48)
        assert exc.value.best_x is not None
        assert exc.value.best_x.shape == (12,)

    def test_fista_group_path(self):
        ds = random_lasso(30, 12, 1.0, seed=4)
        part = BlockPartition.contiguous(12, 3)
        m = lasso_model(ds, ratio=0.2, reg=GroupL2Norm(), partition=part)
        xs = oracle_solve(m, ds, tol_gap=1e-10)
        from ddss.model import duality_gap
        gap, _ = duality_gap(m, ds, xs)
        assert gap <= 1e-10


class TestVRGradient:
    def _setup(self, seed=0):
        ds = random_lasso(10, 6, 0.6, seed=seed)
        part = BlockPartition.contiguous(6, 2)
        m = lasso_model(ds, ratio=0.3, reg=GroupL2Norm(), partition=part)
        stats = precompute(m, ds)
        ws = EpochWorkspace(ds, part, stats.support, ActiveSet(part))
        return ds, part, m, stats, ws

    def test_anchor_cancellation(self):
        ds, part, m, stats, ws = self._setup()
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=6)
        z0d = m.loss.deriv(ws.z_of(x0), ds.targets)
        grad0 = gradient_sum(ds, m.loss.deriv(ds.csr @ x0, ds.targets)) / ds.n
        for i in range(ds.n):
            idx, v = vr_estimate(ws, m, i, x0, z0d[i], x0, grad0)
            assert np.array_equal(v, ws.dvec[i] * grad0[idx])

    def test_unbiasedness(self):
        ds, part, m, stats, ws = self._setup(seed=5)
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=6)
        xhat = rng.normal(size=6)
        z0d = m.loss.deriv(ws.z_of(x0), ds.targets)
        grad0 = gradient_sum(ds, m.loss.deriv(ds.csr @ x0, ds.targets)) / ds.n
        acc = np.zeros(6)
        for i in range(ds.n):
            idx, v = vr_estimate(ws, m, i, xhat, z0d[i], x0, grad0)
            acc[idx] += v
        acc /= ds.n
        gF = gradient_sum(ds, m.loss.deriv(ds.csr @ xhat, ds.targets)) / ds.n
        touched = stats.support.counts[part.block_of] > 0
        assert np.max(np.abs((acc - gF)[touched])) <= 1e-12

    def test_dense_rows_reduce_to_svrg(self):
        ds = random_lasso(8, 5, 1.0, seed=6)
        part = BlockPartition.singletons(5)
        m = lasso_model(ds, ratio=0.3)
        stats = precompute(m, ds)
        assert np.all(stats.support.weights == 1.0)
        ws = EpochWorkspace(ds, part, stats.support, ActiveSet(part))
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=5)
        xhat = rng.normal(size=5)
        z0d = m.loss.deriv(ws.z_of(x0), ds.targets)
        grad0 = gradient_sum(ds, m.loss.deriv(ds.csr @ x0, ds.targets)) / ds.n
        i = 3
        idx, v = vr_estimate(ws, m, i, xhat, z0d[i], x0, grad0)
        ai = ds.csr[i].toarray().ravel()
        classic = (m.loss.deriv(ai @ xhat, ds.targets[i])
                   - m.loss.deriv(ai @ x0, ds.targets[i])) * ai + grad0
        assert np.allclose(np.asarray(v), classic[idx], atol=1e-13)


class TestMarginPath:
    """``z_of`` must give the step kernels' own margins bit for bit, on rows
    of every length, an all-zero row, group blocks, a shrunken active set
    and a worker shard."""

    @staticmethod
    def _dataset(n=90, p=48, seed=3):
        # Row i carries i % (p + 1) nonzeros: every length 0..p, rows 0 and
        # p + 1 all zero.
        rng = np.random.default_rng(seed)
        A = np.zeros((n, p))
        for i in range(n):
            cols = rng.choice(p, size=i % (p + 1), replace=False)
            A[i, cols] = rng.normal(size=len(cols))
        return SparseDataset(sp.csr_matrix(A), rng.normal(size=n))

    @pytest.mark.parametrize("block_size, shrink, shard", [
        (1, False, False), (4, False, False), (4, True, True),
        (1, True, True)])
    def test_z_of_matches_kernel(self, block_size, shrink, shard):
        ds = self._dataset()
        if block_size == 1:
            part, reg = BlockPartition.singletons(ds.p), L1Norm()
        else:
            part, reg = BlockPartition.contiguous(ds.p, block_size), GroupL2Norm()
        m = lasso_model(ds, ratio=0.3, reg=reg, partition=part)
        stats = precompute(m, ds)
        active = (ActiveSet(part, np.arange(0, part.q, 3)) if shrink
                  else ActiveSet(part))
        ids = np.arange(1, ds.n, 2) if shard else None
        ws = EpochWorkspace(ds, part, stats.support, active, sample_ids=ids)
        lengths = [len(r) for r in ws.rows_val]
        assert min(lengths) == 0 and len(set(lengths)) > 10

        rng = np.random.default_rng(4)
        x = rng.normal(size=active.p_s)
        z = ws.z_of(x)
        kernel = [margin(ws.rows_val[i], x[ws.tf[i]][ws.rpos[i]])
                  for i in range(ws.n_local)]
        assert np.array_equal(z, kernel)

        # At x = x0 the kernel's control variate cancels exactly.
        grad0 = rng.normal(size=active.p_s)
        z0d = m.loss.deriv(z, ws.targets)
        for i in range(ws.n_local):
            idx, v = vr_estimate(ws, m, i, x, z0d[i], x, grad0)
            assert np.array_equal(v, ws.dvec[i] * grad0[idx])


class TestSequentialSolver:
    def test_determinism(self):
        ds = random_lasso(40, 15, 0.8, seed=7)
        m = lasso_model(ds, ratio=0.2)
        cfg = SolverConfig(epochs=6, seed=11)
        a = solve_sequential(m, ds, cfg)
        b = solve_sequential(m, ds, cfg)
        assert traces_equal(a.trace, b.trace)
        assert np.array_equal(a.x, b.x)

    def test_trivial_lambda(self):
        ds = random_lasso(30, 10, 1.0, seed=8)
        m = lasso_model(ds, ratio=1.0)
        res = solve_sequential(m, ds, SolverConfig(epochs=3, seed=0))
        assert res.trace[1].active_blocks == 0
        assert np.all(res.x == 0.0)

    def test_ridge_matches_oracle(self):
        ds = random_lasso(60, 20, 1.0, seed=9, row_norm=np.sqrt(0.1))
        m = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        res = solve_sequential(m, ds, SolverConfig(epochs=8, seed=0))
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        assert abs(res.final_objective
                   - primal_objective(m, ds, xs)) <= 1e-8

    def test_prox_svrg_same_objective_more_touches(self):
        ds = random_lasso(60, 20, 1.0, seed=9, row_norm=np.sqrt(0.1))
        m = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        m_scr = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        m_scr.allow_screen_with_ridge = True
        r_scr = solve_sequential(m_scr, ds,
                                 SolverConfig(epochs=8, seed=0, mode="ddss"))
        r_svrg = solve_sequential(m, ds, SolverConfig(epochs=8, seed=0,
                                                      mode="prox_svrg"))
        assert abs(r_scr.final_objective - r_svrg.final_objective) <= 1e-8
        assert r_svrg.touches >= r_scr.touches

    def test_divergence_detected(self):
        ds = random_lasso(30, 10, 1.0, seed=10)
        m = lasso_model(ds, ratio=0.05)
        with pytest.raises(DivergenceError):
            solve_sequential(m, ds, SolverConfig(epochs=30, seed=0,
                                                 eta=500.0))

    def test_eliminated_coordinates_zero(self):
        ds = random_lasso(50, 18, 0.7, seed=11)
        m = lasso_model(ds, ratio=0.3)
        res = solve_sequential(m, ds, SolverConfig(epochs=12, seed=0))
        outside = np.setdiff1d(np.arange(18), res.active.feat_ids)
        assert np.all(res.x[outside] == 0.0)

    def test_trace_shape(self):
        ds = random_lasso(30, 10, 1.0, seed=12)
        m = lasso_model(ds, ratio=0.5)
        res = solve_sequential(m, ds, SolverConfig(epochs=7, seed=0))
        assert [r.epoch for r in res.trace] == list(range(7))
        from ddss import validate_trace
        validate_trace(res.trace)


class TestNaiveMode:
    def test_converges_but_sublinear_tail(self):
        ds = random_lasso(60, 20, 1.0, seed=9, row_norm=np.sqrt(0.1))
        m = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        vr = solve_sequential(m, ds, SolverConfig(epochs=8, seed=0))
        nv = solve_sequential(m, ds, SolverConfig(epochs=8, seed=0,
                                                  mode="ddss_naive"))
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        assert nv.final_gap >= vr.final_gap
        # the diminishing-step baseline hovers in its noise ball: bounded,
        # but strictly farther from the optimum than the anchored solver
        assert nv.final_gap < 10 * nv.trace[0].gap
        assert (np.linalg.norm(nv.x - xs)
                > np.linalg.norm(vr.x - xs))

    def test_single_sample_deterministic(self):
        ds = parse_libsvm("2.0 1:1 2:0.5")
        m = lasso_model(ds, ratio=0.2)
        res = solve_sequential(
            m, ds, SolverConfig(epochs=4, seed=3, mode="ddss_naive"))
        res2 = solve_sequential(
            m, ds, SolverConfig(epochs=4, seed=99, mode="ddss_naive"))
        # only one sample to draw: the seed cannot matter
        assert np.array_equal(res.x, res2.x)


class TestHelpers:
    def test_split_inner(self):
        assert split_inner(10, 4) == [3, 3, 2, 2]
        assert split_inner(3, 4) == [1, 1, 1, 0]
        assert sum(split_inner(1234, 7)) == 1234

    def test_rng_streams_distinct(self):
        a = rng_for(0, 0, 0).integers(0, 1 << 30, size=8)
        b = rng_for(0, 1, 0).integers(0, 1 << 30, size=8)
        c = rng_for(0, 0, 1).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, rng_for(0, 0, 0).integers(0, 1 << 30, size=8))
