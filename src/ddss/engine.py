"""Per-epoch compact views and the stochastic inner-step kernels.

All backends (sequential, shared-memory, distributed workers) run the same
proposal functions on the same compact representations, so a single-worker
run of any backend reproduces the sequential iterate stream bit for bit.
"""

import numpy as np

from .screening import chunked_AT_u


class EpochWorkspace:
    """Compact row views of a sample subset over the current active set."""

    def __init__(self, data, partition, support, active, sample_ids=None):
        self.active = active
        if sample_ids is None:
            sample_ids = np.arange(data.n)
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        self.n_local = len(self.sample_ids)
        self.targets = data.targets[self.sample_ids]
        self.csr_c = data.csr[self.sample_ids][:, active.feat_ids].tocsr()
        self.csr_c.sort_indices()

        fmap = active.feat_map
        self.singleton = partition.singleton
        self.rows_idx = []
        self.rows_val = []
        self.tf = []            # touched compact features (whole blocks)
        self.rpos = []          # positions of the row support inside tf
        self.dvec = []          # d_G per touched feature
        self.block_ids = []     # touched compact block positions
        self.block_offsets = [] # segment bounds of tf per touched block
        weights = support.weights
        for i in self.sample_ids:
            idx, val = data.row(i)
            keep = fmap[idx] >= 0
            cidx = fmap[idx[keep]]
            cval = val[keep]
            self.rows_idx.append(cidx)
            self.rows_val.append(cval)
            if self.singleton:
                tf = cidx
                rpos = np.arange(len(cidx))
                dv = weights[active.blocks[cidx]] if len(cidx) else np.empty(0)
                bids = cidx
                boff = np.arange(len(cidx) + 1)
            else:
                bpos = np.unique(active.block_pos[partition.block_of[
                    active.feat_ids[cidx]]]) if len(cidx) else np.empty(0, int)
                segs = [np.arange(active.block_bounds[k],
                                  active.block_bounds[k + 1]) for k in bpos]
                tf = (np.concatenate(segs) if segs
                      else np.empty(0, dtype=np.int64))
                rpos = np.searchsorted(tf, cidx)
                dv = np.concatenate([
                    np.full(len(s), weights[active.blocks[k]])
                    for k, s in zip(bpos, segs)]) if segs else np.empty(0)
                bids = np.asarray(bpos, dtype=np.int64)
                boff = np.concatenate(([0], np.cumsum(
                    [len(s) for s in segs]))).astype(np.int64)
            self.tf.append(tf)
            self.rpos.append(rpos)
            self.dvec.append(dv)
            self.block_ids.append(bids)
            self.block_offsets.append(boff)
        self._margin_groups = _equal_length_groups(self.rows_idx,
                                                   self.rows_val)

    def z_of(self, x_c):
        """Margins a_i^T x_c of every local sample, exactly as the step
        kernels compute them; used for the epoch anchor z0.

        Rows of equal support length are stacked and reduced by one batched
        ``np.matmul``, the routine behind ``margin``, on the same operands
        (``rows_val[i]`` and ``x_c[rows_idx[i]]``). So at x = x0 a kernel's
        f'(a_i^T x) - f'(z0_i) is exactly zero and the variance-reduced
        estimate is exactly d * grad0. A CSR matvec sums in another order
        and may differ in the last bit.
        """
        z = np.zeros(self.n_local)
        for rows, idx, vals in self._margin_groups:
            z[rows] = np.matmul(vals, x_c[idx][:, :, None])[:, 0, 0]
        return z

    def partial_gradient(self, x_c, loss):
        """Unnormalized sum of f_i'(z_i) a_i over this subset (chunk-folded).

        Keeps the CSR matvec ``csr_c @ x_c`` rather than ``z_of``: the
        distributed gradient gather must match ``evaluate_screen``, which
        forms z the same way, for a one-worker run to replay the sequential
        stream bit for bit.
        """
        z = self.csr_c @ x_c
        u = loss.deriv(z, self.targets)
        return chunked_AT_u(self.csr_c, u)


def _equal_length_groups(rows_idx, rows_val):
    """Rows bucketed by support length k > 0, as (row positions, (g, k)
    index matrix, (g, 1, k) value stack) for ``z_of``'s batched margin."""
    lengths = np.array([len(v) for v in rows_val], dtype=np.int64)
    if not lengths.any():
        return []
    flat_idx = np.concatenate(rows_idx)
    flat_val = np.concatenate(rows_val)
    starts = np.cumsum(lengths) - lengths
    groups = []
    for k in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == k)
        at = starts[rows][:, None] + np.arange(k)
        groups.append((rows, flat_idx[at], flat_val[at][:, None, :]))
    return groups


def margin(rv, xr):
    """a_i^T x from a sample's compact row values and the iterate on its
    row support: the one margin routine of every step kernel (0.0 for an
    empty row). ``EpochWorkspace.z_of`` batches the same ``np.matmul``."""
    return np.matmul(rv, xr) if len(rv) else 0.0


def _prox_blocks(reg, w, thr_vec, block_offsets):
    """Blockwise prox with a per-feature threshold vector (constant within a
    block); the separable case short-circuits to the vector prox."""
    if reg.separable:
        return reg.block_prox(w, thr_vec)
    out = np.empty_like(w)
    for k in range(len(block_offsets) - 1):
        a, b = block_offsets[k], block_offsets[k + 1]
        out[a:b] = reg.block_prox(w[a:b], thr_vec[a])
    return out


def vr_proposal(ws, model, i_loc, xb, z0_i_deriv, x0b, grad0b, eta, lam):
    """Variance-reduced sparse step for local sample i.

    ``xb`` is the (possibly inconsistently read) iterate restricted to the
    touched features ws.tf[i_loc]; returns the additive delta on that support.
    """
    rv = ws.rows_val[i_loc]
    rp = ws.rpos[i_loc]
    dv = ws.dvec[i_loc]
    zhat = margin(rv, xb[rp])
    c = model.loss.deriv(zhat, ws.targets[i_loc]) - z0_i_deriv
    v = dv * grad0b
    if model.mu_f > 0:
        v = v + model.mu_f * dv * (xb - x0b)
    if len(rp):
        v[rp] += c * rv
    w = xb - eta * v
    wnew = _prox_blocks(model.reg, w, eta * lam * dv,
                        ws.block_offsets[i_loc])
    return wnew - xb


def vr_estimate(ws, model, i_loc, x, z0_i_deriv, x0, grad0):
    """The variance-reduced gradient estimate itself (support, values).

    ``x``, ``x0`` and ``grad0`` are full compact vectors; the estimate is
    supported on the touched blocks of local sample i.
    """
    idx = ws.tf[i_loc]
    xb = x[idx]
    rv = ws.rows_val[i_loc]
    rp = ws.rpos[i_loc]
    dv = ws.dvec[i_loc]
    zhat = margin(rv, xb[rp])
    c = model.loss.deriv(zhat, ws.targets[i_loc]) - z0_i_deriv
    v = dv * grad0[idx]
    if model.mu_f > 0:
        v = v + model.mu_f * dv * (xb - x0[idx])
    if len(rp):
        v[rp] += c * rv
    return idx, v


def naive_proposal(ws, model, i_loc, xb, eta_t, lam):
    """Plain stochastic proximal step restricted to the touched blocks."""
    v = naive_gradient(ws, model, i_loc, xb)
    return naive_apply(model.reg, xb, v, eta_t, lam, ws.block_offsets[i_loc])


def naive_gradient(ws, model, i_loc, xb):
    """Raw stochastic gradient on the touched support (sent by distributed
    workers in naive mode; the server applies the prox)."""
    rv = ws.rows_val[i_loc]
    rp = ws.rpos[i_loc]
    zhat = margin(rv, xb[rp])
    c = model.loss.deriv(zhat, ws.targets[i_loc])
    v = np.zeros_like(xb)
    if len(rp):
        v[rp] = c * rv
    return v


def naive_apply(reg, xb, v, eta_t, lam, block_offsets):
    """Completion of a naive step: the blockwise prox of xb - eta_t * v
    (in ``naive_proposal``, and on the distributed server)."""
    w = xb - eta_t * v
    thr = np.full_like(xb, eta_t * lam)
    return _prox_blocks(reg, w, thr, block_offsets)


def naive_step_size(eta0, t_global, K):
    """Diminishing schedule for the non-variance-reduced mode."""
    return eta0 / (1.0 + t_global / K)
