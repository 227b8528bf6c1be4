"""The benchmark's instruments rebind ddss functions by name; a renamed or
removed hook must fail here rather than in every benchmark solve."""

import sys
from pathlib import Path

import numpy as np

from conftest import lasso_model, random_lasso
from ddss import harness
from ddss.sequential import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_probe_and_tracer_hooks_bind():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
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
