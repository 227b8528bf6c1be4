import numpy as np
import pytest
import scipy.sparse as sp

from ddss import BlockPartition, ModelSpec, SparseDataset
from ddss.model import (GroupL2Norm, L1Norm, SquaredLoss,
                        critical_lambda_scaled)


def random_lasso(n, p, density, seed, noise=0.05, k_true=None, row_norm=None):
    """Random planted-sparse Lasso instance (dataset only)."""
    rng = np.random.default_rng(seed)
    if k_true is None:
        k_true = max(1, p // 5)
    x_true = np.zeros(p)
    supp = rng.choice(p, size=k_true, replace=False)
    x_true[supp] = rng.normal(size=k_true)
    A = np.where(rng.random((n, p)) < density, rng.normal(size=(n, p)), 0.0)
    if row_norm is not None:
        norms = np.linalg.norm(A, axis=1)
        keep = norms > 0
        A[keep] *= (row_norm / norms[keep])[:, None]
    y = A @ x_true + noise * rng.normal(size=n)
    return SparseDataset(sp.csr_matrix(A), y)


def lasso_model(data, ratio, mu_f=0.0, reg=None, partition=None):
    """Lasso ModelSpec at a fraction of the critical regularization level."""
    if partition is None:
        partition = BlockPartition.singletons(data.p)
    if reg is None:
        reg = L1Norm()
    probe = ModelSpec(SquaredLoss(), reg, partition, lam=1.0)
    nlam_max = critical_lambda_scaled(probe, data)
    return ModelSpec(SquaredLoss(), reg, partition, lam_n=ratio * nlam_max,
                     mu_f=mu_f)


def interleaved_group_lasso(n, p, density, seed, ratio):
    """Group Lasso whose blocks [j, j + p/2] are not contiguous feature
    ranges, so column selection over the active set leaves CSR rows
    unsorted unless they are sorted explicitly."""
    data = random_lasso(n, p, density, seed=seed)
    half = p // 2
    part = BlockPartition([[j, j + half] for j in range(half)], p)
    return data, lasso_model(data, ratio, reg=GroupL2Norm(), partition=part)


#: pass/fail lines recorded by the acceptance suite; echoed after the run so
#: they stay visible even under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _quiet_step_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore",
                                message="mu_f = 0: falling back .*")
        yield
