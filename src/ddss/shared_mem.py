"""Lock-free shared-memory backend: threads over one iterate array.

Commits go through single numpy calls (``np.add.at`` / fancy-index reads),
which the interpreter executes indivisibly per coordinate, so concurrent
writers never tear an individual coefficient.  A one-cell version counter is
bumped on every commit; the difference between the counter at read time and
at commit time is the measured overlap, whose maximum is reported as tau_hat.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .engine import run_steps
from .sequential import run_epochs, rng_for, split_inner


class SharedIterate:
    """A mutable iterate plus a commit counter, shared across threads."""

    def __init__(self, x):
        self.x = x
        self._version = np.zeros(1, dtype=np.int64)

    def version(self):
        return int(self._version[0])

    def read(self, idx):
        """Inconsistent (but per-coordinate atomic) read of a support."""
        ver = int(self._version[0])
        return self.x[idx], ver

    def commit_add(self, idx, delta):
        np.add.at(self.x, idx, delta)
        np.add.at(self._version, 0, 1)

    def commit_overwrite(self, idx, vals):
        self.x[idx] = vals
        np.add.at(self._version, 0, 1)


def _worker_loop(shared, ws, model, config, wid, epoch, k_w, anchor):
    """One thread's share of an epoch: ``run_steps`` reading and committing
    through ``shared``, with the overlap of each step measured."""
    naive = config.mode == "ddss_naive"
    ver0 = 0
    stale_max = 0

    def read(idx):
        nonlocal ver0
        xb, ver0 = shared.read(idx)
        return xb

    def commit(idx, out):
        nonlocal stale_max
        stale_max = max(stale_max, shared.version() - ver0)
        if naive:
            shared.commit_overwrite(idx, out)
        else:
            shared.commit_add(idx, out)

    touches = run_steps(ws, model, rng_for(config.seed, wid, epoch), k_w,
                        read, commit, anchor,
                        step="naive" if naive else "vr", t0=epoch * k_w)
    return touches, stale_max


def solve_shared(model, data, config, threads=4):
    """Run the solver with ``threads`` concurrent workers on one iterate.

    A single-thread run reproduces the sequential backend bit for bit: the
    lone worker is worker 0, draws the same per-epoch streams, and executes
    the same step kernel on the same compact views.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    pool = ThreadPoolExecutor(max_workers=threads)

    def inner(s, ws, x, anchor):
        shared = SharedIterate(x)
        splits = split_inner(anchor.K, threads)
        futs = [
            pool.submit(_worker_loop, shared, ws, model, config, w, s,
                        splits[w], anchor)
            for w in range(threads)
        ]
        touches = 0
        stale = 0
        for f in futs:
            t, sm = f.result()
            touches += t
            stale = max(stale, sm)
        return touches, float(stale)

    try:
        return run_epochs(model, data, config, inner,
                          pool=pool if threads > 1 else None)
    finally:
        pool.shutdown(wait=True)
