"""Sequential solvers: the exact oracle, the plain variance-reduced baseline,
and the single-threaded screening solver that anchors all concurrent backends."""

import math
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .data import gradient_sum
from .engine import EpochWorkspace, run_steps
from .model import duality_gap, prox_full, primal_objective
from .screening import ActiveSet, evaluate_screen, precompute
from .trace import TraceRecord

MODES = ("ddss", "ddss_naive", "prox_svrg", "oracle")


class DivergenceError(RuntimeError):
    """The objective blew up; the step size is too large."""


class OracleError(RuntimeError):
    def __init__(self, message, best_x=None):
        super().__init__(message)
        self.best_x = best_x


@dataclass
class SolverConfig:
    eta: float = None          # None -> strong-convexity default / 1/(3L)
    inner: int = None          # K; None -> default from (eta, mu) or 2n
    epochs: int = 10
    seed: int = 0
    tau_assumed: float = 0.0
    mode: str = "ddss"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.inner is not None and self.inner < 0:
            raise ValueError("inner loop size must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class SolveResult:
    x: np.ndarray
    trace: list
    final_objective: float
    final_gap: float
    active: ActiveSet
    eliminated_log: list
    eta: float
    inner: int
    touches: int
    tau_hat: float


def resolve_step(config, model, L, n):
    """Step size and inner-loop length from the smoothness constant L,
    following the strong-convexity defaults when a ridge makes the smooth
    part strongly convex."""
    mu = model.mu_f
    if config.eta is not None:
        eta = config.eta
    elif L == 0.0:
        eta = 1.0
    elif mu > 0:
        kappa = L / mu
        cands = [1.0 / (24.0 * kappa * L), kappa / (2.0 * L)]
        if config.tau_assumed > 0:
            cands.append(kappa / (10.0 * config.tau_assumed * L))
        eta = min(cands)
    else:
        warnings.warn("mu_f = 0: falling back to eta = 1/(3L)")
        eta = 1.0 / (3.0 * L)
    if config.inner is not None:
        K = config.inner
    elif mu > 0:
        K = int(math.ceil(4.0 * math.log(3.0) / (eta * mu)))
    else:
        K = 2 * n
    return eta, K


def rng_for(seed, worker_id, epoch):
    """Per-(worker, epoch) stream; every backend draws from the same family."""
    return np.random.default_rng([seed, worker_id, epoch])


def split_inner(K, workers):
    """Split K iterations across workers, remainder to low ids."""
    base, rem = divmod(K, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def run_epochs(model, data, config, inner_fn, pool=None, epoch_callback=None,
               gather=None):
    """Shared outer loop of every backend: screen at the epoch head,
    re-anchor, run inner_fn.

    ``inner_fn(s, ws, x, anchor)`` mutates ``x`` in place and returns
    (coordinate_touches, staleness); ``anchor`` is the epoch's
    ``engine.Anchor``.
    ``epoch_callback(s, active, x_expanded)``, when given, observes the
    iterate after each epoch's inner loop.
    ``gather(s, x)``, when given, returns the pre-reduced A_c^T u of the
    epoch head (the distributed gradient gather); otherwise the head folds
    it itself.
    """
    stats = precompute(model, data)
    eta, K = resolve_step(config, model, stats.L, data.n)
    screen = config.mode != "prox_svrg" and model.screening_enabled

    active = ActiveSet(model.partition)
    ws = EpochWorkspace(data, model.partition, stats.support, active)
    x = np.zeros(active.p_s)
    trace = []
    eliminated_log = []
    touches_total = 0
    tau_hat = 0.0
    p_init = None
    t0 = perf_counter()

    for s in range(config.epochs):
        gsum = None if gather is None else gather(s, x)
        report, grad, _ys = evaluate_screen(
            model, data, stats, active, ws.csr_c, x, gsum=gsum, pool=pool,
            force_screen=screen)
        if p_init is None:
            p_init = report.primal
        elif (not np.isfinite(report.primal)
              or report.primal > 1e6 * max(abs(p_init), 1.0)):
            raise DivergenceError(
                f"objective exploded at epoch {s}; reduce the step size")
        if len(report.eliminated):
            eliminated_log.append((s, report.eliminated))
        new_active = active.restrict(report.survivors)
        grad0 = grad
        if new_active.p_s != active.p_s:
            grad0 = grad[active.subset_positions(new_active)]
            x = active.restrict_vector(x, new_active)
            ws = EpochWorkspace(data, model.partition, stats.support,
                                new_active)
        active = new_active
        anchor = ws.anchor(model, x, grad0, eta, K, stats.lam)
        touches, staleness = inner_fn(s, ws, x, anchor)
        touches_total += touches
        tau_hat = max(tau_hat, staleness)
        trace.append(TraceRecord(
            epoch=s, wall_time_s=perf_counter() - t0,
            objective=report.primal, gap=report.gap,
            active_blocks=active.q_s, active_features=active.p_s,
            nnz_coefficients=int(np.count_nonzero(x)),
            coordinate_touches=touches_total, staleness=staleness))
        if epoch_callback is not None:
            epoch_callback(s, active, active.expand(x))

    final_report, _, _ = evaluate_screen(
        model, data, stats, active, ws.csr_c, x, pool=pool,
        force_screen=screen)
    x_full = active.expand(x)
    return SolveResult(
        x=x_full, trace=trace, final_objective=final_report.primal,
        final_gap=final_report.gap, active=active,
        eliminated_log=eliminated_log, eta=eta, inner=K,
        touches=touches_total, tau_hat=tau_hat)


def solve_sequential(model, data, config, epoch_callback=None):
    """Single-threaded solver; the semantic ground truth for all backends."""
    naive = config.mode == "ddss_naive"

    def inner(s, ws, x, anchor):
        if naive:
            commit = x.__setitem__
        else:
            def commit(idx, delta):
                x[idx] += delta
        touches = run_steps(ws, model, rng_for(config.seed, 0, s), anchor.K,
                            x.__getitem__, commit, anchor,
                            step="naive" if naive else "vr", t0=s * anchor.K)
        return touches, 0.0

    return run_epochs(model, data, config, inner,
                      epoch_callback=epoch_callback)


def spectral_norm(csr, tol=1e-12, maxiter=5000):
    p = csr.shape[1]
    if p == 0 or csr.nnz == 0:
        return 0.0
    v = np.full(p, 1.0 / np.sqrt(p))
    prev = 0.0
    for _ in range(maxiter):
        w = csr.T @ (csr @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(nrm - prev) <= tol * max(1.0, nrm):
            prev = nrm
            break
        prev = nrm
    return float(np.sqrt(prev))


def _cd_lasso(model, data, tol_gap, max_updates, order_seed):
    """Coordinate descent for separable-L1 squared loss (plus optional ridge)."""
    n, p = data.n, data.p
    lam, _ = model.lambdas(n)
    mu = model.mu_f
    y = data.targets
    col_sq = np.asarray(data.csc.multiply(data.csc).sum(axis=0)).ravel()
    denom = col_sq / n + mu
    x = np.zeros(p)
    r = y.copy()
    if order_seed is None:
        order = np.arange(p)
    else:
        order = np.random.default_rng(order_seed).permutation(p)
    updates = 0
    best_gap = np.inf
    while True:
        for j in order:
            if denom[j] == 0.0:
                continue
            idx, val = data.col(j)
            t = (val @ r[idx]) / n + (col_sq[j] / n) * x[j]
            xj = np.sign(t) * max(abs(t) - lam, 0.0) / denom[j]
            if xj != x[j]:
                r[idx] -= val * (xj - x[j])
                x[j] = xj
        updates += p
        gap, _ = duality_gap(model, data, x)
        best_gap = min(best_gap, gap)
        if gap <= tol_gap:
            return x
        if updates >= max_updates:
            raise OracleError(
                f"oracle did not reach gap {tol_gap} "
                f"(best {best_gap}) in {updates} updates", best_x=x)


def _fista(model, data, tol_gap, max_updates):
    n, p = data.n, data.p
    lam, _ = model.lambdas(n)
    mu = model.mu_f
    LF = model.loss.gamma * spectral_norm(data.csr) ** 2 / n + mu
    step = 1.0 / LF if LF > 0 else 1.0
    x = np.zeros(p)
    v = x.copy()
    theta = 1.0
    it = 0
    while True:
        z = data.csr @ v
        grad = gradient_sum(data, model.loss.deriv(z, data.targets)) / n
        if mu > 0:
            grad = grad + mu * v
        x_new = prox_full(model.reg, model.partition, v - step * grad,
                          step * lam)
        theta_new = (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2)) / 2.0
        v = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        x, theta = x_new, theta_new
        it += 1
        if it % 20 == 0 or it == 1:
            gap, _ = duality_gap(model, data, x)
            if gap <= tol_gap:
                return x
            if it * p >= max_updates:
                raise OracleError(
                    f"oracle did not reach gap {tol_gap} in {it} iterations",
                    best_x=x)


def oracle_solve(model, data, tol_gap=1e-12, max_updates=10_000_000,
                 order_seed=None):
    """Solve to a certified duality gap; coordinate descent for the L1 +
    squared-loss family, accelerated proximal gradient otherwise."""
    if model.loss.name == "squared" and model.reg.separable:
        return _cd_lasso(model, data, tol_gap, max_updates, order_seed)
    return _fista(model, data, tol_gap, max_updates)
