"""The benchmark's instruments rebind ddss functions by name; a renamed or
removed hook must fail here rather than in every benchmark solve."""

import sys
from pathlib import Path

import numpy as np

from conftest import lasso_model, random_lasso
from ddss import harness
from ddss.sequential import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_probe_and_tracer_hooks_bind():
    tracer = _tracer_module()
    ds = random_lasso(30, 10, 0.8, seed=1)
    m = lasso_model(ds, ratio=0.3)
    epochs = 3
    cfg = SolverConfig(epochs=epochs, seed=0)
    probe = tracer.HeadProbe()
    trace = tracer.Tracer()
    trace.install()
    try:
        for solve in (lambda: harness.dist_solve(m, ds, cfg, n_workers=2),
                      lambda: harness.solve_sequential(m, ds, cfg)):
            probe.reset()
            result = solve()
            assert len(probe.heads) == epochs + 1
            assert probe.result is result
    finally:
        trace.uninstall()
        probe.close()
    assert trace.count("distributed.server") == 1
    assert trace.count("sequential.inner") == 2 * epochs
    assert len(trace.samples["engine.step"]) > 0
    assert np.isfinite(result.final_objective)


def test_wrapped_kernel_sees_every_touch():
    """Every backend's steps go through the kernels the tracer wraps: the
    touches the wrapper counts are the solve's touches."""
    tracer = _tracer_module()
    ds = random_lasso(30, 10, 0.8, seed=2)
    m = lasso_model(ds, ratio=0.3)
    epochs = 3
    cfg = SolverConfig(epochs=epochs, seed=0)
    trace = tracer.Tracer()
    trace.install()
    touched = trace.samples["engine.step_touches"]
    try:
        for solve in (lambda: harness.solve_sequential(m, ds, cfg),
                      lambda: harness.solve_shared(m, ds, cfg, threads=2),
                      lambda: harness.dist_solve(m, ds, cfg, n_workers=2)):
            seen = len(touched)
            result = solve()
            assert result.touches > 0
            assert sum(touched[seen:]) == result.touches
    finally:
        trace.uninstall()
    assert trace.count("shared_mem.worker_loop") == 2 * epochs
