"""Dynamic gap-safe elimination: active sets, the per-block test, compaction."""

from dataclasses import dataclass, field

import numpy as np

from .data import (build_support_map, chunked_AT_u, column_dual_norms,
                   gradient_sum, smoothness_constant)
from .model import dual_objective, regularizer_value

# Relative width of the tie band around the elimination threshold.  A block
# strictly below n*lam*(1 - _TIE_RTOL) is provably inactive and eliminated.
# Inside the band the test is an exact tie up to rounding: that happens both
# when lam sits exactly at its critical value (x = 0, the block is a zero
# block and can go) and when an active block has converged (its correlation
# attains n*lam and it must stay).  The current coefficients disambiguate:
# tie blocks are eliminated only while they are exactly zero.  The width
# must absorb the rounding of the folded A^T u sums (different backends
# fold partials in different groupings, and at exact convergence an active
# block's computed correlation can sit ~1e-14 relative off the threshold),
# while staying far below any honest screening margin; a band hit with a
# zero coefficient then only occurs at (numerically) exact optimality,
# where the block really is zero in an optimal solution.
_TIE_RTOL = 1e-11


class ScreeningSafetyError(RuntimeError):
    """An iterate carried mass outside the active set."""


@dataclass
class ScreeningReport:
    gap: float
    radius: float
    eliminated: np.ndarray
    survivors: np.ndarray
    margins: np.ndarray          # aligned with the tested (incoming) blocks
    tested: np.ndarray           # block ids that were tested
    primal: float = 0.0
    dual: float = 0.0
    screened: bool = True


class ActiveSet:
    """Surviving blocks with a compact remapping to dense working storage."""

    def __init__(self, partition, blocks=None, epoch=0):
        self.partition = partition
        if blocks is None:
            blocks = np.arange(partition.q)
        self.blocks = np.asarray(sorted(blocks), dtype=np.int64)
        self.epoch = epoch
        self.q_s = len(self.blocks)
        feats = ([partition.blocks[j] for j in self.blocks]
                 if self.q_s else [np.empty(0, dtype=np.int64)])
        self.feat_ids = np.concatenate(feats)
        self.p_s = len(self.feat_ids)
        sizes = partition.sizes[self.blocks] if self.q_s else np.empty(0, int)
        self.block_bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self.feat_map = np.full(partition.p, -1, dtype=np.int64)
        self.feat_map[self.feat_ids] = np.arange(self.p_s)
        self.block_pos = np.full(partition.q, -1, dtype=np.int64)
        self.block_pos[self.blocks] = np.arange(self.q_s)

    def block_slice(self, pos):
        """Compact feature range of the pos-th surviving block."""
        return slice(self.block_bounds[pos], self.block_bounds[pos + 1])

    def compact(self, x_full):
        x_full = np.asarray(x_full, dtype=np.float64)
        mask = np.ones(self.partition.p, dtype=bool)
        mask[self.feat_ids] = False
        if np.any(x_full[mask] != 0.0):
            raise ScreeningSafetyError(
                "vector has nonzero mass outside the active set")
        return x_full[self.feat_ids].copy()

    def expand(self, x_c):
        out = np.zeros(self.partition.p)
        out[self.feat_ids] = x_c
        return out

    def restrict(self, surviving_blocks):
        surviving = np.asarray(surviving_blocks, dtype=np.int64)
        if not np.all(np.isin(surviving, self.blocks)):
            raise ValueError("surviving blocks must be a subset of the active set")
        return ActiveSet(self.partition, surviving, epoch=self.epoch + 1)

    def subset_positions(self, new_active):
        """Positions of new_active's features inside this compact layout."""
        return self.feat_map[new_active.feat_ids]

    def restrict_vector(self, x_c, new_active):
        """Project a compact vector onto a shrunken active set (drops the
        eliminated coordinates, which are provably zero at the optimum)."""
        return x_c[self.subset_positions(new_active)].copy()


class ProblemStats:
    """Static per-problem quantities shared by all backends."""

    def __init__(self, model, data):
        self.support = build_support_map(data, model.partition)
        self.col_dual = column_dual_norms(data, model.partition, model.reg)
        self.L = smoothness_constant(data, model.loss)
        lam, nlam = model.lambdas(data.n)
        self.lam = lam
        self.nlam = nlam


def precompute(model, data):
    return ProblemStats(model, data)


def compact_regularizer_value(reg, active, x_c):
    if reg.separable:
        return reg.block_value(x_c)
    return sum(reg.block_value(x_c[active.block_slice(k)])
               for k in range(active.q_s))


def evaluate_screen(model, data, stats, active, csr_c, x_c, gsum=None,
                    pool=None, force_screen=None):
    """One elimination pass at the epoch head.

    Evaluates primal/dual/gap on the compact subproblem, runs the per-block
    test over the incoming active set, and returns the report together with
    the anchor gradient (restricted later by the caller).  ``gsum`` may be a
    pre-reduced A_c^T u (distributed gradient gather); otherwise it is
    computed here with the order-stable chunk fold.
    """
    loss = model.loss
    reg = model.reg
    lam, nlam = stats.lam, stats.nlam
    z = csr_c @ x_c
    u = loss.deriv(z, data.targets)
    if gsum is None:
        gsum = chunked_AT_u(csr_c, u, pool=pool)
    grad = gsum / data.n
    if model.mu_f > 0:
        grad = grad + model.mu_f * x_c

    p_val = float(np.mean(loss.value(z, data.targets)))
    if model.mu_f > 0:
        p_val += 0.5 * model.mu_f * float(x_c @ x_c)
    p_val += lam * compact_regularizer_value(reg, active, x_c)

    block_dual = np.array([
        reg.block_dual_norm(gsum[active.block_slice(k)])
        for k in range(active.q_s)])

    screen = model.screening_enabled if force_screen is None else force_screen
    if screen or model.mu_f == 0:
        dmax = block_dual.max() if active.q_s else 0.0
        scale = max(1.0, dmax / nlam) if nlam > 0 else max(1.0, dmax)
        ys = -u / scale
        d_val = dual_objective(model, data, ys)
    else:
        # No elimination this pass, and with a ridge the gap uses the
        # ridge-aware conjugate of the penalty (finite everywhere, no dual
        # scaling needed).
        ys = -u
        d_val = dual_objective(model, data, ys)
        for k in range(active.q_s):
            d_val -= reg.ridge_conjugate(
                -gsum[active.block_slice(k)] / data.n, lam, model.mu_f)
    gap = p_val - d_val
    # When screening, a gap below the rounding error of the objective
    # evaluation is numerically zero; without the floor, ulp-level
    # differences in the gradient fold (e.g. distributed shard partials)
    # manufacture a tiny positive gap whose radius pushes exact ties out of
    # the tie band.
    gap_floor = (256.0 * np.finfo(float).eps * max(abs(p_val), abs(d_val))
                 if screen else 0.0)
    if gap < gap_floor:
        gap = 0.0
    # Dual-ball radius from the (1/(n*gamma))-strong concavity of D:
    # ||ys - y*||^2 <= 2*n*gamma*(P(x) - D(ys)).
    radius = np.sqrt(2.0 * data.n * loss.gamma * gap)
    if screen:
        lhs = block_dual / scale + stats.col_dual[active.blocks] * radius
        margins = nlam - lhs
        blk_nonzero = np.array([
            bool(np.any(x_c[active.block_slice(k)] != 0.0))
            for k in range(active.q_s)], dtype=bool)
        below = lhs < nlam * (1.0 - _TIE_RTOL)
        in_band = ~below & (lhs <= nlam * (1.0 + _TIE_RTOL))
        elim = below | (in_band & ~blk_nonzero)
        survivors = active.blocks[~elim]
        eliminated = active.blocks[elim]
    else:
        margins = np.full(active.q_s, np.nan)
        survivors = active.blocks.copy()
        eliminated = np.empty(0, dtype=np.int64)

    report = ScreeningReport(
        gap=float(gap), radius=float(radius), eliminated=eliminated,
        survivors=survivors, margins=margins, tested=active.blocks.copy(),
        primal=float(p_val), dual=float(d_val), screened=bool(screen))
    return report, grad, ys


def equicorrelation_set(model, data, x_star, rtol=1e-6):
    """Blocks whose dual correlation attains n*lam at the (oracle) optimum."""
    from .model import residual_dual_vector, dual_scale

    _, nlam = model.lambdas(data.n)
    u = residual_dual_vector(model, data, x_star)
    ys = dual_scale(model, data, u)
    gsum = gradient_sum(data, -ys)
    out = []
    for j, b in enumerate(model.partition.blocks):
        if model.reg.block_dual_norm(-gsum[b]) >= nlam * (1.0 - rtol):
            out.append(j)
    return np.asarray(out, dtype=np.int64)
