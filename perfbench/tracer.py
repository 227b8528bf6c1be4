"""Measure the ddss layers from outside the package.

Two instruments, both installed by rebinding names in the ``ddss`` modules
and both removed again afterwards:

* ``HeadProbe`` is always on.  It stamps every epoch-head screen and the
  moment a backend returns its result, which the end-to-end metrics need
  (``setup_s`` ends at the first head, ``time_to_gap_s`` at the head that
  certifies the target).  It also times a fixed reference loop before the
  solve, at every head and after the solve, and ``scaled_clock`` turns
  those samples into a clock that runs at a reference host speed.  It adds
  a handful of calls per solve; no solver work runs during a sample (the
  backends screen at the head only once every inner step has returned).
* ``Tracer`` is on only in traced runs.  It wraps the public functions of
  ``data``, ``model``, ``screening``, ``engine``, ``sequential``,
  ``shared_mem`` and ``distributed``.  Coarse calls (parse, precompute, epoch
  heads, workspace builds, epoch inner loops) become span records kept in
  memory; per-step calls (the step kernel, commits, frame encode/decode,
  receives) are aggregated into latency arrays instead of one span each.
"""

import collections
import functools
import itertools
import os
import sys
import threading
from time import perf_counter

import numpy as np

import ddss.data
import ddss.distributed
import ddss.engine
import ddss.harness
import ddss.model
import ddss.screening
import ddss.sequential
import ddss.shared_mem


class _Rebinder:
    """Rebind module and class attributes, and undo it in reverse order."""

    def __init__(self):
        self._undo = []

    def one(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(self, module, attr, make):
        """Wrap ``module.attr`` in every ddss module that binds the same
        object, since ``from .x import f`` copies the binding."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name, mod in sorted(sys.modules.items()):
            if (name == "ddss" or name.startswith("ddss.")) and \
                    mod.__dict__.get(attr) is orig:
                self.one(mod, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


REF_ITERATIONS = 200_000
REF_S = 0.02     # nominal time of the reference loop: the scaled clock's unit


def reference_loop():
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return perf_counter() - t0


def scaled_clock(samples, scaled=True):
    """Map a raw ``perf_counter`` time to seconds at the reference speed.

    ``samples`` are ``(start, end, loop_s)`` reference-loop runs in time
    order.  The time between two samples runs at the geometric mean of
    their speeds, and the samples themselves take no time; the mapped time
    is 0 at the end of the first sample.  With ``scaled=False`` the clock
    only leaves the samples out.  On a shared VM the whole machine's speed
    drifts by 20% or more from one second to the next, and it moves the
    solver and the loop alike, so the scaled clock keeps changes to the
    program and drops most of the drift.
    """
    segments = []            # (raw start, raw end, mapped start, factor)
    mapped = 0.0
    for (_, t0, a), (t1, _, b) in zip(samples, samples[1:]):
        factor = REF_S / (a * b) ** 0.5 if scaled else 1.0
        segments.append((t0, t1, mapped, factor))
        mapped += (t1 - t0) * factor

    def clock(t):
        for t0, t1, base, factor in segments:
            if t <= t1:
                return base + (t - t0) * factor
        raise ValueError("time after the last reference sample")
    return clock


class HeadProbe:
    """Epoch-head stamps, host-speed samples and the solve result of the
    current run."""

    def __init__(self, cpus=None):
        # with solver threads on several CPUs, a sample visits each of them
        self.cpus = sorted(cpus) if cpus and len(cpus) > 1 else None
        self._rebinder = _Rebinder()
        self.reset()
        for mod in (ddss.sequential, ddss.distributed):
            self._rebinder.one(mod, "evaluate_screen", self._head)
        for attr in ("solve_sequential", "solve_shared", "dist_solve"):
            self._rebinder.one(ddss.harness, attr,
                               self._solver(getattr(ddss.harness, attr)))

    def reset(self):
        self.heads = []        # (t_enter, t_exit, ScreeningReport)
        self.samples = []      # (t_start, t_end, reference loop seconds)
        self.result = None
        self.t_result = None

    def sample(self):
        """Time the reference loop; returns the moment it ended."""
        t0 = perf_counter()
        if self.cpus:
            home = os.sched_getaffinity(0)      # this thread's own CPU set
            loops = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                loops.append(reference_loop())
            os.sched_setaffinity(0, home)
            loop_s = sum(loops) / len(loops)
        else:
            loop_s = reference_loop()
        t1 = perf_counter()
        self.samples.append((t0, t1, loop_s))
        return t1

    def _head(self, *args, **kwargs):
        t_in = self.sample()
        # looked up per call, so a Tracer installed later wraps it too
        out = ddss.screening.evaluate_screen(*args, **kwargs)
        self.heads.append((t_in, perf_counter(), out[0]))
        return out

    def _solver(self, orig):
        @functools.wraps(orig)
        def solve(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.t_result = perf_counter()
            self.result = result
            return result
        return solve

    def close(self):
        self._rebinder.restore()


def _pct_us(samples, q):
    return float(np.percentile(samples, q) * 1e6) if samples else 0.0


class Tracer:
    """Spans and per-step latency arrays for one traced solve."""

    def __init__(self):
        self.spans = []        # (id, name, thread, start, end, parent id)
        self.samples = collections.defaultdict(list)   # name -> seconds
        self.tag_bytes = collections.Counter()         # frame tag -> bytes
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rebinder = _Rebinder()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name):
        def make(orig):
            @functools.wraps(orig)
            def traced(*args, **kwargs):
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self.spans.append((sid, name, threading.get_ident(),
                                       t0, t1, parent))
            return traced
        return make

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _timed(self, name):
        samples = self.samples[name]

        def make(orig):
            @functools.wraps(orig)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                out = orig(*args, **kwargs)
                samples.append(perf_counter() - t0)
                return out
            return timed
        return make

    def _kernel(self, orig):
        """Time a step kernel and count the coordinates its ``xb`` covers,
        which is what the solver adds to its coordinate touches."""
        samples = self.samples["engine.step"]
        touched = self.samples["engine.step_touches"]

        @functools.wraps(orig)
        def kernel(ws, model, i_loc, xb, *args, **kwargs):
            t0 = perf_counter()
            out = orig(ws, model, i_loc, xb, *args, **kwargs)
            samples.append(perf_counter() - t0)
            touched.append(len(xb))
            return out
        return kernel

    def _run_epochs(self, orig):
        inner_span = self._span("sequential.inner")

        @functools.wraps(orig)
        def run_epochs(model, data, config, inner_fn, *args, **kwargs):
            return orig(model, data, config, inner_span(inner_fn),
                        *args, **kwargs)
        return run_epochs

    def _encode(self, orig):
        samples = self.samples["distributed.encode"]

        @functools.wraps(orig)
        def encode(msg):
            t0 = perf_counter()
            out = orig(msg)
            samples.append(perf_counter() - t0)
            self.tag_bytes[msg.tag.name] += len(out)
            return out
        return encode

    def _shared_read(self, orig):
        @functools.wraps(orig)
        def read(shared, idx):
            self._local.read_t = perf_counter()
            return orig(shared, idx)
        return read

    def _shared_commit(self, orig):
        commits = self.samples["shared_mem.commit"]
        steps = self.samples["shared_mem.step"]

        @functools.wraps(orig)
        def commit(shared, idx, vals):
            t0 = perf_counter()
            orig(shared, idx, vals)
            t1 = perf_counter()
            commits.append(t1 - t0)
            steps.append(t1 - self._local.read_t)
        return commit

    def _worker_send(self, orig):
        @functools.wraps(orig)
        def send(ep, msg):
            if msg.tag == ddss.distributed.Tag.DELTA_PUSH:
                self._local.rt_start = perf_counter()
            return orig(ep, msg)
        return send

    def _worker_recv(self, orig):
        trips = self.samples["distributed.round_trip"]

        @functools.wraps(orig)
        def recv(ep, *args, **kwargs):
            msg = orig(ep, *args, **kwargs)
            start = getattr(self._local, "rt_start", None)
            if start is not None and msg.tag == ddss.distributed.Tag.PARAM_PUSH:
                trips.append(perf_counter() - start)
                self._local.rt_start = None
            return msg
        return recv

    # -- installation -------------------------------------------------------

    def install(self):
        R, S = self._rebinder, self._span
        data, screening = ddss.data, ddss.screening
        engine, dist = ddss.engine, ddss.distributed
        R.everywhere(data, "parse_libsvm", S("data.parse"))
        R.everywhere(data, "build_support_map", S("data.support_map"))
        R.everywhere(data, "column_dual_norms", S("data.column_dual_norms"))
        R.everywhere(data, "smoothness_constant", S("data.smoothness"))
        R.everywhere(ddss.model, "critical_lambda_scaled",
                     S("model.lambda_max"))
        R.everywhere(screening, "precompute", S("screening.precompute"))
        R.everywhere(screening, "evaluate_screen", S("screening.epoch_head"))
        R.everywhere(screening, "chunked_AT_u", S("screening.gradient_fold"))
        R.one(engine.EpochWorkspace, "__init__",
              S("engine.workspace_build")(engine.EpochWorkspace.__init__))
        R.everywhere(engine, "vr_proposal", self._kernel)
        R.everywhere(engine, "naive_proposal", self._kernel)
        R.everywhere(ddss.sequential, "run_epochs", self._run_epochs)
        shared = ddss.shared_mem.SharedIterate
        R.everywhere(ddss.shared_mem, "_worker_loop",
                     S("shared_mem.worker_loop"))
        R.one(shared, "read", self._shared_read(shared.read))
        for attr in ("commit_add", "commit_overwrite"):
            R.one(shared, attr, self._shared_commit(getattr(shared, attr)))
        R.everywhere(dist, "run_dist_server", S("distributed.server"))
        R.everywhere(dist, "run_dist_worker", S("distributed.worker"))
        R.everywhere(dist, "encode", self._encode)
        R.everywhere(dist, "decode_body", self._timed("distributed.decode"))
        recv_timer = self._timed("distributed.server_recv")
        for cls in (dist._LoopbackServerEnd, dist.TcpServerEndpoint):
            for attr in ("recv_from", "recv_any"):
                R.one(cls, attr, recv_timer(getattr(cls, attr)))
        for cls in (dist._LoopbackWorkerEnd, dist.TcpWorkerEndpoint):
            R.one(cls, "send", self._worker_send(cls.send))
            R.one(cls, "recv", self._worker_recv(cls.recv))

    def uninstall(self):
        self._rebinder.restore()

    # -- results ------------------------------------------------------------

    def total(self, name):
        return float(sum(s[4] - s[3] for s in self.spans if s[1] == name))

    def count(self, name):
        return sum(1 for s in self.spans if s[1] == name)

    def _under(self, name, ancestor):
        """Total time of ``name`` spans that run inside an ``ancestor``."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s[1] != name:
                continue
            parent = s[5]
            while parent is not None and by_id[parent][1] != ancestor:
                parent = by_id[parent][5]
            if parent is not None:
                total += s[4] - s[3]
        return total

    def layer_metrics(self, steps_drawn, touches, backend, threads, tau_hat):
        """Per-layer metrics of the traced solve, keyed by metric name."""
        kernel = self.samples["engine.step"]
        kernel_s = float(sum(kernel))
        inner_s = self.total("sequential.inner")
        frame_bytes = sum(self.tag_bytes.values())
        shared = backend == "shared"
        return {
            "data.parse_s": self.total("data.parse"),
            "model.lambda_max_s": self.total("model.lambda_max"),
            "data.column_dual_norms_s": self.total("data.column_dual_norms"),
            "data.support_map_s": self.total("data.support_map"),
            "screening.precompute_s": self.total("screening.precompute"),
            "screening.precompute_calls": self.count("screening.precompute"),
            "screening.epoch_head_s": self.total("screening.epoch_head"),
            "screening.epoch_head_calls": self.count("screening.epoch_head"),
            "screening.gradient_fold_s": self.total("screening.gradient_fold"),
            "engine.workspace_builds": self.count("engine.workspace_build"),
            "engine.workspace_build_s": self.total("engine.workspace_build"),
            "engine.steps": len(kernel),
            "engine.step_s": kernel_s,
            "engine.step_us_p50": _pct_us(kernel, 50),
            "engine.step_us_p99": _pct_us(kernel, 99),
            "engine.touches_per_step": touches / len(kernel) if kernel else 0.0,
            "sequential.inner_s": inner_s,
            "sequential.empty_step_ratio": 1.0 - len(kernel) / steps_drawn,
            "shared_mem.step_us_p50": _pct_us(self.samples["shared_mem.step"], 50),
            "shared_mem.step_us_p99": _pct_us(self.samples["shared_mem.step"], 99),
            "shared_mem.commit_us": _pct_us(self.samples["shared_mem.commit"], 50),
            "shared_mem.thread_busy_ratio": (
                kernel_s / (threads * inner_s) if shared and inner_s else 0.0),
            "shared_mem.tau_hat": tau_hat if shared else 0.0,
            "distributed.frames": len(self.samples["distributed.encode"]),
            "distributed.bytes": frame_bytes,
            "distributed.bytes_per_step": frame_bytes / steps_drawn,
            "distributed.param_push_share": (
                self.tag_bytes["PARAM_PUSH"] / frame_bytes if frame_bytes
                else 0.0),
            "distributed.encode_s": float(sum(self.samples["distributed.encode"])),
            "distributed.decode_s": float(sum(self.samples["distributed.decode"])),
            "distributed.server_recv_wait_s": float(
                sum(self.samples["distributed.server_recv"])),
            "distributed.round_trip_us_p50": _pct_us(
                self.samples["distributed.round_trip"], 50),
            "distributed.round_trip_us_p99": _pct_us(
                self.samples["distributed.round_trip"], 99),
            "distributed.worker_precompute_s": self._under(
                "screening.precompute", "distributed.worker"),
            "distributed.tau_hat": tau_hat if backend == "dist" else 0.0,
            "trace.wrapped_touch_share": (
                sum(self.samples["engine.step_touches"]) / touches if touches
                else 0.0),
        }

    def span_records(self, t_origin):
        """Spans as JSON-ready dicts, times in seconds from ``t_origin``."""
        threads = {}
        return [{"id": sid, "name": name,
                 "thread": threads.setdefault(tid, len(threads)),
                 "start_s": t0 - t_origin, "end_s": t1 - t_origin,
                 "parent": parent}
                for sid, name, tid, t0, t1, parent in self.spans]
