import numpy as np
import pytest

from conftest import interleaved_group_lasso, lasso_model, random_lasso
from ddss import traces_equal
from ddss.model import primal_objective
from ddss.sequential import SolverConfig, oracle_solve, solve_sequential
from ddss.shared_mem import SharedIterate, solve_shared


class TestSharedIterate:
    def test_read_commit_version(self):
        s = SharedIterate(np.zeros(4))
        idx = np.array([0, 2])
        vals, ver = s.read(idx)
        assert ver == 0 and vals.tolist() == [0.0, 0.0]
        s.commit_add(idx, np.array([1.0, 3.0]))
        assert s.version() == 1
        assert s.x.tolist() == [1.0, 0.0, 3.0, 0.0]
        s.commit_overwrite(np.array([1]), np.array([7.0]))
        assert s.version() == 2
        assert s.x[1] == 7.0

    def test_duplicate_index_accumulates(self):
        s = SharedIterate(np.zeros(2))
        s.commit_add(np.array([0, 0, 1]), np.array([1.0, 2.0, 5.0]))
        assert s.x.tolist() == [3.0, 5.0]

    def test_delta_conservation(self):
        # the iterate is exactly the initial value plus every committed delta
        rng = np.random.default_rng(0)
        s = SharedIterate(rng.normal(size=6))
        start = s.x.copy()
        total = np.zeros(6)
        for _ in range(200):
            idx = rng.choice(6, size=rng.integers(1, 4), replace=False)
            delta = rng.normal(size=len(idx))
            s.commit_add(idx, delta)
            total[idx] += delta
        # summation orders differ, so exact only up to rounding
        assert np.allclose(s.x, start + total, rtol=0, atol=1e-12)
        assert s.version() == 200


class TestSingleThread:
    @pytest.mark.parametrize("mode,interleaved", [
        ("ddss", False), ("ddss_naive", False),
        ("ddss", True), ("ddss_naive", True)],
        ids=["ddss", "ddss_naive", "ddss-interleaved-groups",
             "ddss_naive-interleaved-groups"])
    def test_bit_identical_to_sequential(self, mode, interleaved):
        for seed in range(5):
            if interleaved:
                ds, m = interleaved_group_lasso(60, 16, 0.6, 100 + seed, 0.3)
            else:
                ds = random_lasso(40, 15, 0.7, seed=100 + seed)
                m = lasso_model(ds, ratio=0.25)
            cfg = SolverConfig(epochs=6, seed=seed, mode=mode)
            seq = solve_sequential(m, ds, cfg)
            shr = solve_shared(m, ds, cfg, threads=1)
            assert traces_equal(seq.trace, shr.trace)
            assert np.array_equal(seq.x, shr.x)
            assert seq.final_objective == shr.final_objective
            assert seq.final_gap == shr.final_gap

    def test_invalid_thread_count(self):
        ds = random_lasso(10, 5, 1.0, seed=0)
        m = lasso_model(ds, ratio=0.5)
        with pytest.raises(ValueError):
            solve_shared(m, ds, SolverConfig(), threads=0)


class TestMultiThread:
    def test_four_threads_reach_oracle(self):
        ds = random_lasso(60, 20, 1.0, seed=9, row_norm=np.sqrt(0.1))
        m = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        res = solve_shared(m, ds, SolverConfig(epochs=8, seed=0), threads=4)
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        assert abs(res.final_objective
                   - primal_objective(m, ds, xs)) <= 1e-6

    def test_trivial_lambda_four_threads(self):
        ds = random_lasso(30, 10, 1.0, seed=8)
        m = lasso_model(ds, ratio=1.1)
        res = solve_shared(m, ds, SolverConfig(epochs=3, seed=0), threads=4)
        assert np.all(res.x == 0.0)
        assert res.trace[-1].active_blocks == 0

    def test_staleness_reported(self):
        ds = random_lasso(50, 15, 1.0, seed=7)
        m = lasso_model(ds, ratio=0.3)
        res = solve_shared(m, ds, SolverConfig(epochs=4, seed=0), threads=4)
        assert res.tau_hat >= 0.0
        assert np.isfinite(res.tau_hat)
        for rec in res.trace:
            assert rec.staleness >= 0.0

    def test_eliminated_coordinates_zero(self):
        ds = random_lasso(50, 18, 0.7, seed=11)
        m = lasso_model(ds, ratio=0.3)
        res = solve_shared(m, ds, SolverConfig(epochs=10, seed=0), threads=4)
        outside = np.setdiff1d(np.arange(18), res.active.feat_ids)
        assert np.all(res.x[outside] == 0.0)
