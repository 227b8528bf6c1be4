import numpy as np
import pytest
import scipy.sparse as sp

from conftest import lasso_model, random_lasso
from ddss import BlockPartition, ModelSpec, SparseDataset, parse_libsvm
from ddss.model import GroupL2Norm, L1Norm, SquaredLoss, primal_objective
from ddss.screening import (ActiveSet, ScreeningSafetyError,
                            equicorrelation_set, evaluate_screen, precompute)
from ddss.sequential import SolverConfig, oracle_solve, solve_sequential


class TestActiveSet:
    def test_full_set_is_identity(self):
        part = BlockPartition.singletons(3)
        a = ActiveSet(part)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(a.compact(x), x)
        assert np.array_equal(a.expand(a.compact(x)), x)

    def test_partial_mapping(self):
        part = BlockPartition.singletons(3)
        a = ActiveSet(part, blocks=[0, 2])
        assert a.p_s == 2 and a.q_s == 2
        xc = np.array([4.0, 5.0])
        assert a.expand(xc).tolist() == [4.0, 0.0, 5.0]
        assert a.compact(np.array([4.0, 0.0, 5.0])).tolist() == [4.0, 5.0]

    def test_mass_outside_raises(self):
        part = BlockPartition.singletons(3)
        a = ActiveSet(part, blocks=[0, 2])
        with pytest.raises(ScreeningSafetyError):
            a.compact(np.array([1.0, 0.5, 2.0]))

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        part = BlockPartition.contiguous(10, 3)
        a = ActiveSet(part, blocks=[1, 3])
        for _ in range(20):
            xc = rng.normal(size=a.p_s)
            assert np.array_equal(a.compact(a.expand(xc)), xc)

    def test_restrict_subset_rule(self):
        part = BlockPartition.singletons(4)
        a = ActiveSet(part, blocks=[0, 1, 3])
        b = a.restrict([0, 3])
        assert b.blocks.tolist() == [0, 3] and b.epoch == a.epoch + 1
        with pytest.raises(ValueError):
            a.restrict([0, 2])

    def test_restrict_vector(self):
        part = BlockPartition.singletons(4)
        a = ActiveSet(part, blocks=[0, 1, 3])
        b = a.restrict([1, 3])
        v = np.array([9.0, 8.0, 7.0])
        assert a.restrict_vector(v, b).tolist() == [8.0, 7.0]


def _screen_at(model, data, x):
    """One screen over the full active set at x: (new active set, report)."""
    active = ActiveSet(model.partition)
    report, _, _ = evaluate_screen(model, data, precompute(model, data),
                                   active, data.csr, x)
    return active.restrict(report.survivors), report


class TestScreenPass:
    def test_zero_column_always_eliminated(self):
        ds = parse_libsvm("1 1:1\n-1 1:2", n_features=3)
        m = lasso_model(ds, ratio=0.5)
        new, report = _screen_at(m, ds, np.zeros(3))
        assert 1 not in new.blocks and 2 not in new.blocks

    def test_survivors_empty_at_critical_lambda(self):
        ds = random_lasso(30, 12, 1.0, seed=2)
        m = lasso_model(ds, ratio=1.0)
        new, report = _screen_at(m, ds, np.zeros(ds.p))
        assert report.gap == 0.0
        assert len(new.blocks) == 0

    def test_survivors_equal_equicorrelation_after_convergence(self):
        ds = random_lasso(20, 10, 1.0, seed=3, k_true=2, noise=0.01)
        m = lasso_model(ds, ratio=0.3)
        res = solve_sequential(m, ds, SolverConfig(epochs=40, seed=0))
        assert res.final_gap <= 1e-10
        xs = oracle_solve(m, ds, tol_gap=1e-12)
        eq = set(equicorrelation_set(m, ds, xs).tolist())
        assert set(res.active.blocks.tolist()) <= eq

    def test_monotone_shrinkage(self):
        ds = random_lasso(40, 15, 0.8, seed=4)
        m = lasso_model(ds, ratio=0.2)
        seen = []
        res = solve_sequential(
            m, ds, SolverConfig(epochs=15, seed=1),
            epoch_callback=lambda s, active, x: seen.append(
                set(active.blocks.tolist())))
        for a, b in zip(seen, seen[1:]):
            assert b <= a

    def test_margins_aligned_with_tested(self):
        ds = random_lasso(25, 8, 1.0, seed=5)
        m = lasso_model(ds, ratio=0.4)
        new, report = _screen_at(m, ds, np.zeros(ds.p))
        assert len(report.margins) == len(report.tested) == ds.p
        _, nlam = m.lambdas(ds.n)
        for j, margin in zip(report.tested, report.margins):
            if j in report.eliminated and margin < -1e-9:
                raise AssertionError("eliminated block with negative margin")


class TestSafety:
    def test_no_unsafe_elimination_small_suite(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(20, 80))
            p = int(rng.integers(10, 30))
            density = float(rng.choice([0.3, 0.7, 1.0]))
            ratio = float(rng.choice([0.9, 0.5, 0.1]))
            ds = random_lasso(n, p, density, seed=500 + trial)
            m = lasso_model(ds, ratio=ratio)
            res = solve_sequential(m, ds, SolverConfig(epochs=12, seed=trial))
            xs = oracle_solve(m, ds, tol_gap=1e-12)
            eliminated = set(range(p)) - set(res.active.blocks.tolist())
            for j in eliminated:
                assert abs(xs[j]) <= 1e-9, (trial, j, xs[j])
            assert np.all(res.x[list(eliminated)] == 0.0)


    def test_negated_column_group_never_unsafely_eliminated(self):
        # group 0 is [a, -a]: a power iteration started from the all-ones
        # vector finds its spectral norm 0, which drops the radius term of
        # the safe test for that group
        group0_nonzero = 0
        for trial in range(10):
            rng = np.random.default_rng(900 + trial)
            n, p = 40, 12
            A = np.where(rng.random((n, p)) < 0.5, rng.normal(size=(n, p)),
                         0.0)
            A[:, 1] = -A[:, 0]
            x_true = np.zeros(p)
            x_true[[0, 4, 7]] = [1.0, rng.normal(), rng.normal()]
            y = A @ x_true + 0.05 * rng.normal(size=n)
            ds = SparseDataset(sp.csr_matrix(A), y)
            part = BlockPartition.contiguous(p, 2)
            m = lasso_model(ds, ratio=float(rng.choice([0.2, 0.4])),
                            reg=GroupL2Norm(), partition=part)
            res = solve_sequential(m, ds, SolverConfig(epochs=6, seed=trial))
            xs = oracle_solve(m, ds, tol_gap=1e-10)
            group0_nonzero += bool(np.any(xs[:2] != 0.0))
            for g in set(range(part.q)) - set(res.active.blocks.tolist()):
                assert np.all(np.abs(xs[part.blocks[g]]) <= 1e-9), (trial, g)
        assert group0_nonzero >= 5


class TestEquicorrelation:
    def test_orthogonal_design_closed_form(self):
        # orthogonal columns: oracle support = soft-threshold support
        ds = parse_libsvm("2 1:1\n0.3 2:1\n-1.5 3:1")
        m = lasso_model(ds, ratio=0.4)
        lam, _ = m.lambdas(ds.n)
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        closed = np.sign(ds.targets) * np.maximum(
            np.abs(ds.targets) / ds.n - lam, 0.0) * ds.n
        assert np.allclose(xs, closed, atol=1e-10)
        eq = set(equicorrelation_set(m, ds, xs).tolist())
        assert set(np.flatnonzero(xs).tolist()) <= eq

    def test_small_lambda_keeps_nonzero_columns(self):
        ds = random_lasso(30, 6, 1.0, seed=6, noise=0.2)
        m = lasso_model(ds, ratio=1e-4)
        xs = oracle_solve(m, ds, tol_gap=1e-12)
        eq = equicorrelation_set(m, ds, xs)
        assert len(eq) == 6
