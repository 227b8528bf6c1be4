"""Loss and regularizer families, objectives, duals, and proximal operators."""

import numpy as np
from scipy.special import expit, xlogy

from .data import gradient_sum


class SquaredLoss:
    """Per-sample squared loss f(z) = (1/2)(y - z)^2."""

    name = "squared"
    gamma = 1.0

    def value(self, z, y):
        return 0.5 * (y - z) ** 2

    def deriv(self, z, y):
        return z - y

    def conjugate(self, u, y):
        # sup_z uz - (1/2)(y - z)^2 = uy + u^2/2
        return u * y + 0.5 * u * u


class LogisticLoss:
    """Per-sample logistic loss f(z) = log(1 + exp(-y z)) with y in {-1, +1}."""

    name = "logistic"
    gamma = 0.25

    def value(self, z, y):
        return np.logaddexp(0.0, -y * z)

    def deriv(self, z, y):
        return -y * expit(-y * z)

    def conjugate(self, u, y):
        t = np.asarray(u * y, dtype=np.float64)
        inside = (t >= -1.0) & (t <= 0.0)
        tc = np.clip(t, -1.0, 0.0)
        val = xlogy(-tc, -tc) + xlogy(1.0 + tc, 1.0 + tc)
        out = np.where(inside, val, np.inf)
        if out.ndim == 0:
            return float(out)
        return out


class L1Norm:
    """Elementwise L1 penalty; block value is the L1 norm of the block."""

    name = "l1"
    separable = True

    def block_value(self, v):
        return float(np.sum(np.abs(v)))

    def block_dual_norm(self, v):
        v = np.atleast_1d(v)
        return float(np.max(np.abs(v))) if v.size else 0.0

    def block_prox(self, v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def matrix_dual_norm(self, cols):
        """Operator norm for the (2-norm, max-norm) pairing: max column 2-norm."""
        sq = cols.multiply(cols) if hasattr(cols, "multiply") else np.square(cols)
        col_sq = np.asarray(sq.sum(axis=0)).ravel()
        return float(np.sqrt(col_sq.max())) if col_sq.size else 0.0

    def ridge_conjugate(self, w, lam, mu):
        """(lam*||.||_1 + (mu/2)||.||^2)^* evaluated at w."""
        s = np.maximum(np.abs(w) - lam, 0.0)
        return float(np.sum(s * s) / (2.0 * mu))


class GroupL2Norm:
    """Group penalty: block value is the Euclidean norm of the block."""

    name = "group_l2"
    separable = False

    def block_value(self, v):
        return float(np.linalg.norm(v))

    def block_dual_norm(self, v):
        return float(np.linalg.norm(v))

    def block_prox(self, v, t):
        nrm = np.linalg.norm(v)
        if nrm <= t:
            return np.zeros_like(v)
        return (1.0 - t / nrm) * v

    def matrix_dual_norm(self, cols):
        """Guaranteed upper bound on the spectral norm of the n x m block.

        The exact top eigenvalue (``eigvalsh``) of the Gram matrix, plus a
        rounding allowance: the computed Gram is within n*eps*tr(G) of the
        exact one in 2-norm, and eigvalsh is backward stable (error a small
        multiple of m*eps*||G||), so (n + m^2 + 2)*eps*tr(G) covers both.
        The safe test needs an upper bound; a power iteration converges from
        below and returns 0 on a block [a, -a] started from all ones.
        """
        n, m = cols.shape
        if m == 0:
            return 0.0
        gram = cols.T @ cols
        gram = gram.toarray() if hasattr(gram, "toarray") else np.asarray(gram)
        top = max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
        slack = (n + m * m + 2) * np.finfo(float).eps * float(np.trace(gram))
        bound = np.sqrt(top + slack)
        return float(np.nextafter(bound, np.inf)) if bound else 0.0

    def ridge_conjugate(self, w, lam, mu):
        s = max(np.linalg.norm(w) - lam, 0.0)
        return float(s * s / (2.0 * mu))


class ModelSpec:
    """Loss + regularizer + block partition + regularization weights.

    The canonical regularization strength can be given either as ``lam``
    (the per-sample weight used in the objective) or as ``lam_n`` (the
    n-scaled threshold used by the dual constraint and the screening test);
    storing ``lam_n`` directly avoids a divide/multiply round trip when the
    caller parameterizes by a fraction of the critical value.
    """

    def __init__(self, loss, reg, partition, lam=None, lam_n=None, mu_f=0.0,
                 allow_screen_with_ridge=False):
        if lam is not None and lam <= 0:
            raise ValueError("lam must be positive")
        if lam_n is not None and lam_n < 0:
            raise ValueError("lam_n must be nonnegative")
        if mu_f < 0:
            raise ValueError("mu_f must be nonnegative")
        self.loss = loss
        self.reg = reg
        self.partition = partition
        self.lam = lam
        self.lam_n = lam_n
        self.mu_f = mu_f
        self.allow_screen_with_ridge = allow_screen_with_ridge

    def lambdas(self, n):
        """Resolve (lam, n*lam) for a dataset with n samples."""
        if self.lam_n is not None:
            lam = self.lam if self.lam is not None else self.lam_n / n
            return lam, self.lam_n
        if self.lam is None:
            raise ValueError("no regularization strength configured")
        return self.lam, n * self.lam

    @property
    def screening_enabled(self):
        return self.mu_f == 0.0 or self.allow_screen_with_ridge


def regularizer_value(reg, partition, x):
    return sum(reg.block_value(x[b]) for b in partition.blocks)


def primal_objective(model, data, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.p,):
        raise ValueError(f"x has length {x.shape}, expected ({data.p},)")
    lam, _ = model.lambdas(data.n)
    z = data.csr @ x
    val = float(np.mean(model.loss.value(z, data.targets)))
    if model.mu_f > 0:
        val += 0.5 * model.mu_f * float(x @ x)
    return val + lam * regularizer_value(model.reg, model.partition, x)


def residual_dual_vector(model, data, x):
    """u_i = f_i'(a_i^T x); the negated dual candidate before scaling."""
    z = data.csr @ np.asarray(x, dtype=np.float64)
    return model.loss.deriv(z, data.targets)


def _max_block_dual_norm(model, gsum):
    dmax = 0.0
    for b in model.partition.blocks:
        dmax = max(dmax, model.reg.block_dual_norm(gsum[b]))
    return dmax


def dual_scale(model, data, u, gsum=None):
    """Scale -u into the dual feasible region (block dual norms <= n*lam)."""
    _, nlam = model.lambdas(data.n)
    if gsum is None:
        gsum = gradient_sum(data, u)
    dmax = _max_block_dual_norm(model, gsum)
    scale = max(1.0, dmax / nlam) if nlam > 0 else max(1.0, dmax)
    return -u / scale


def dual_objective(model, data, ys):
    """D(y) = -(1/n) sum_i f_i*(-y_i)."""
    return -float(np.mean(model.loss.conjugate(-ys, data.targets)))


def duality_gap(model, data, x):
    """Duality gap at x and the dual point that certifies it.

    With mu_f > 0 the ridge is folded into the regularizer side and the gap
    uses the (lam*Omega + (mu_f/2)||.||^2) conjugate, which is finite
    everywhere and needs no scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    u = residual_dual_vector(model, data, x)
    p_val = primal_objective(model, data, x)
    lam, _ = model.lambdas(data.n)
    gsum = gradient_sum(data, u)
    if model.mu_f > 0:
        ys = -u
        d_val = dual_objective(model, data, ys)
        for b in model.partition.blocks:
            d_val -= model.reg.ridge_conjugate(-gsum[b] / data.n, lam, model.mu_f)
    else:
        ys = dual_scale(model, data, u, gsum=gsum)
        d_val = dual_objective(model, data, ys)
    return p_val - d_val, ys


def prox_full(reg, partition, x, t):
    """prox of t * Omega, applied block by block."""
    x = np.asarray(x, dtype=np.float64)
    if reg.separable:
        return reg.block_prox(x, t)
    out = np.empty_like(x)
    for b in partition.blocks:
        out[b] = reg.block_prox(x[b], t)
    return out


def prox_weighted(reg, partition, support, i, x, t):
    """prox of the per-sample reweighted penalty: blocks in Psi_i get the
    threshold t*d_G, all other blocks pass through unchanged."""
    out = np.array(x, dtype=np.float64)
    for g in support.psi[i]:
        b = partition.blocks[g]
        out[b] = reg.block_prox(out[b], t * support.weights[g])
    return out


def critical_lambda_scaled(model, data):
    """n * lambda_max: the dual norm of A^T u at x = 0."""
    u0 = model.loss.deriv(np.zeros(data.n), data.targets)
    return float(_max_block_dual_norm(model, gradient_sum(data, u0)))


def lambda_max(model, data):
    """Smallest lam at which the all-zero solution is optimal."""
    if model.loss.name not in ("squared", "logistic"):
        raise ValueError(f"unsupported loss {model.loss.name!r}")
    return critical_lambda_scaled(model, data) / data.n
