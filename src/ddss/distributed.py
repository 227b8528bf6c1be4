"""Server/worker backend over an explicit message protocol.

One server owns the iterate; workers own contiguous row shards.  The server
runs ``sequential.run_epochs``, the outer loop of every backend, and
supplies only the two phases the architecture changes:

* the gradient gather at the epoch head (flag true): the server ships the
  current parameters, every worker returns the partial gradient of its
  shard, and the server folds the partials in worker-id order;
* the inner phase (flag false): the server broadcasts the surviving blocks
  with the anchor gradient, and workers propose variance-reduced steps
  against their latest parameter copy; every delta push is answered with a
  parameter push, so a single-worker synchronous run replays the sequential
  iterate stream bit for bit, for any block partition.

A worker that fails closes its connection; the server's next receive from
it raises ``ConnectionError``, and the server sends SHUTDOWN to every worker.

Messages are framed as ``[u32 length][u8 tag][u64 epoch]`` followed by a
``u32`` id count, the ids (u32), and the values (f64).  The same encoding is
used by the in-process loopback transport and the TCP transport.
"""

import queue
import selectors
import socket
import struct
import threading
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .data import fold_partials
from .engine import (EpochWorkspace, naive_apply, naive_gradient,
                     naive_step_size, vr_proposal)
# evaluate_screen is unused here but stays bound: perfbench's HeadProbe
# rebinds it in this module by name.
from .screening import ActiveSet, evaluate_screen, precompute
from .sequential import resolve_step, rng_for, run_epochs, split_inner


class Tag(IntEnum):
    FLAG_TRUE = 1       # enter the gather phase
    FLAG_FALSE = 2      # enter the inner phase
    PARAMS = 3          # full parameter vector (also the worker hello)
    PARTIAL_GRAD = 4    # shard partial gradient, dense over active features
    GRAD_AND_ACTIVE = 5 # surviving block ids + anchor gradient
    PARAM_PUSH = 6      # authoritative parameters after a commit
    DELTA_PUSH = 7      # proposed update on its (compact) support
    SHUTDOWN = 8


_EMPTY_IDS = np.empty(0, dtype=np.uint32)
_EMPTY_VALS = np.empty(0, dtype=np.float64)


@dataclass
class Message:
    tag: Tag
    epoch: int = 0
    ids: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    vals: np.ndarray = field(default_factory=lambda: _EMPTY_VALS)


_HEAD = struct.Struct("<BQI")  # tag, epoch, n_ids


def encode(msg):
    ids = np.ascontiguousarray(msg.ids, dtype=np.uint32)
    vals = np.ascontiguousarray(msg.vals, dtype=np.float64)
    body = _HEAD.pack(int(msg.tag), int(msg.epoch), len(ids))
    body += ids.tobytes() + vals.tobytes()
    return struct.pack("<I", len(body)) + body


def decode_body(body):
    tag, epoch, nids = _HEAD.unpack_from(body, 0)
    off = _HEAD.size
    ids = np.frombuffer(body, dtype="<u4", count=nids, offset=off)
    off += 4 * nids
    rest = len(body) - off
    if rest % 8:
        raise ValueError("malformed frame: value section not f64-aligned")
    vals = np.frombuffer(body, dtype="<f8", count=rest // 8, offset=off)
    return Message(Tag(tag), int(epoch), ids.astype(np.int64),
                   vals.astype(np.float64))


# ---------------------------------------------------------------------------
# transports

class LoopbackHub:
    """In-process transport: one inbound queue plus per-worker outboxes."""

    def __init__(self, n_workers):
        self.n_workers = n_workers
        self.to_worker = [queue.Queue() for _ in range(n_workers)]
        self.to_server = queue.Queue()

    def server_endpoint(self):
        return _LoopbackServerEnd(self)

    def worker_endpoint(self, wid):
        return _LoopbackWorkerEnd(self, wid)


class _LoopbackServerEnd:
    def __init__(self, hub):
        self.hub = hub
        self._pending = {w: [] for w in range(hub.n_workers)}

    def send(self, wid, msg):
        # round-trip through the codec so both transports exercise it
        self.hub.to_worker[wid].put(encode(msg))

    def _get(self, timeout):
        w, body = self.hub.to_server.get(timeout=timeout)
        if body is None:
            raise ConnectionError(f"worker {w} closed the connection")
        return w, decode_body(body)

    def recv_any(self, timeout=None):
        for w, stash in self._pending.items():
            if stash:
                return w, stash.pop(0)
        return self._get(timeout)

    def recv_from(self, wid, timeout=None):
        if self._pending[wid]:
            return self._pending[wid].pop(0)
        while True:
            w, msg = self._get(timeout)
            if w == wid:
                return msg
            self._pending[w].append(msg)

    def close(self):
        pass


class _LoopbackWorkerEnd:
    def __init__(self, hub, wid):
        self.hub = hub
        self.wid = wid

    def send(self, msg):
        self.hub.to_server.put((self.wid, encode(msg)[4:]))

    def recv(self, timeout=None):
        frame = self.hub.to_worker[self.wid].get(timeout=timeout)
        return decode_body(frame[4:])

    def close(self):
        self.hub.to_server.put((self.wid, None))  # end of stream


def _recv_frame(sock):
    head = _recv_exact(sock, 4)
    (length,) = struct.unpack("<I", head)
    return _recv_exact(sock, length)


def _recv_exact(sock, nbytes):
    buf = bytearray()
    while len(buf) < nbytes:
        chunk = sock.recv(nbytes - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return bytes(buf)


class TcpServerEndpoint:
    """Accepts ``n_workers`` connections; each worker registers with a
    PARAMS hello whose epoch field carries its worker id."""

    def __init__(self, host, port, n_workers):
        self.n_workers = n_workers
        self.listener = socket.create_server((host, port))
        self.port = self.listener.getsockname()[1]
        self.conns = {}
        self._sel = selectors.DefaultSelector()

    def accept_workers(self):
        while len(self.conns) < self.n_workers:
            conn, _ = self.listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = decode_body(_recv_frame(conn))
            if hello.tag != Tag.PARAMS:
                raise ConnectionError("worker hello must be a PARAMS message")
            wid = hello.epoch
            if wid in self.conns or not 0 <= wid < self.n_workers:
                raise ConnectionError(f"bad worker id {wid} in hello")
            self.conns[wid] = conn
            self._sel.register(conn, selectors.EVENT_READ, wid)

    def send(self, wid, msg):
        self.conns[wid].sendall(encode(msg))

    def recv_from(self, wid, timeout=None):
        return decode_body(_recv_frame(self.conns[wid]))

    def recv_any(self, timeout=None):
        events = self._sel.select(timeout)
        if not events:
            raise TimeoutError("no worker message within the timeout")
        key = events[0][0]
        wid = key.data
        return wid, decode_body(_recv_frame(key.fileobj))

    def close(self):
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self.listener.close()


class TcpWorkerEndpoint:
    def __init__(self, host, port, wid):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(encode(Message(Tag.PARAMS, epoch=wid)))

    def send(self, msg):
        self.sock.sendall(encode(msg))

    def recv(self, timeout=None):
        return decode_body(_recv_frame(self.sock))

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------------
# sharding

def shard_ranges(n, n_workers):
    """Contiguous equal row ranges, remainder to the low worker ids."""
    sizes = split_inner(n, n_workers)
    out = []
    a = 0
    for sz in sizes:
        out.append((a, a + sz))
        a += sz
    return out


def _block_offsets_for(active, ids):
    """Segment bounds of a whole-blocks compact support (for the prox)."""
    bpos = np.searchsorted(active.block_bounds, ids, side="right") - 1
    cuts = np.flatnonzero(np.diff(bpos)) + 1
    return np.concatenate(([0], cuts, [len(ids)])).astype(np.int64)


# ---------------------------------------------------------------------------
# server

def run_dist_server(model, data, config, endpoint, n_workers, sync=True):
    """Drive the protocol through ``run_epochs`` and return the solve result.

    ``endpoint`` must expose ``send(wid, msg)``, ``recv_from(wid)``,
    ``recv_any()``.  ``sync=True`` serves delta pushes in round-robin worker
    order, which makes the run deterministic; a single synchronous worker
    reproduces the sequential solver exactly.
    """
    naive = config.mode == "ddss_naive"
    state = {"commits": 0, "t": 0}  # commit count, naive-step counter
    last_push = [0] * n_workers

    def push(w, s, x):
        endpoint.send(w, Message(Tag.PARAM_PUSH, epoch=s, vals=x))
        last_push[w] = state["commits"]

    def gather(s, x):
        for w in range(n_workers):
            endpoint.send(w, Message(Tag.FLAG_TRUE, epoch=s))
            endpoint.send(w, Message(Tag.PARAMS, epoch=s, vals=x))
        partials = []
        for w in range(n_workers):
            while True:
                msg = endpoint.recv_from(w)
                if msg.tag == Tag.DELTA_PUSH and msg.epoch < s:
                    continue  # stale delta from the previous epoch: discard
                if msg.tag != Tag.PARTIAL_GRAD:
                    raise RuntimeError(
                        f"expected PARTIAL_GRAD from worker {w}, "
                        f"got {msg.tag.name}")
                partials.append(np.asarray(msg.vals, dtype=np.float64))
                break
        return fold_partials(partials, len(x))

    def inner(s, ws, x, x0, z0_deriv, grad0, eta, K, lam):
        active = ws.active
        for w in range(n_workers):
            endpoint.send(w, Message(
                Tag.GRAD_AND_ACTIVE, epoch=s, ids=active.blocks, vals=grad0))
            endpoint.send(w, Message(Tag.FLAG_FALSE, epoch=s))
            push(w, s, x)

        # apply each worker's share of the K deltas
        remaining = split_inner(K, n_workers)
        touches = 0
        stale_epoch = 0
        order = [w for w in range(n_workers) if remaining[w] > 0]
        while sum(remaining) > 0:
            if sync:
                w = order[0]
                msg = endpoint.recv_from(w)
            else:
                w, msg = endpoint.recv_any()
            if msg.tag != Tag.DELTA_PUSH:
                raise RuntimeError(
                    f"expected DELTA_PUSH from worker {w}, got {msg.tag.name}")
            if msg.epoch < s:
                push(w, s, x)
                continue
            ids = msg.ids
            stale_epoch = max(stale_epoch, state["commits"] - last_push[w])
            if naive:
                eta_t = naive_step_size(eta, state["t"], K)
                state["t"] += 1
                if len(ids):
                    x[ids] = naive_apply(model.reg, x[ids], msg.vals, eta_t,
                                         lam, _block_offsets_for(active, ids))
            elif len(ids):
                x[ids] += msg.vals
            state["commits"] += 1
            touches += len(ids)
            remaining[w] -= 1
            if remaining[w] == 0:
                order.remove(w)
            push(w, s, x)
        return touches, float(stale_epoch)

    try:
        return run_epochs(model, data, config, inner, gather=gather)
    finally:
        for w in range(n_workers):
            try:
                endpoint.send(w, Message(Tag.SHUTDOWN))
            except OSError:
                pass  # best effort: that worker is already gone


# ---------------------------------------------------------------------------
# worker

def run_dist_worker(model, data, config, endpoint, wid, n_workers):
    """Serve gather and inner phases until the server shuts us down."""
    naive = config.mode == "ddss_naive"
    stats = precompute(model, data)
    lam, _ = model.lambdas(data.n)
    eta, K = resolve_step(config, model, stats, data.n)
    splits = split_inner(K, n_workers)
    a, b = shard_ranges(data.n, n_workers)[wid]
    shard = np.arange(a, b)
    n_local = len(shard)

    active = ActiveSet(model.partition)
    ws = EpochWorkspace(data, model.partition, stats.support, active,
                        sample_ids=shard)
    while True:
        msg = endpoint.recv()
        if msg.tag == Tag.SHUTDOWN:
            endpoint.close()
            return
        if msg.tag != Tag.FLAG_TRUE:
            raise RuntimeError(f"expected FLAG_TRUE, got {msg.tag.name}")
        s = msg.epoch
        params = endpoint.recv()
        if params.tag != Tag.PARAMS:
            raise RuntimeError(f"expected PARAMS, got {params.tag.name}")
        x = np.asarray(params.vals, dtype=np.float64).copy()

        partial = ws.partial_gradient(x, model.loss)
        endpoint.send(Message(Tag.PARTIAL_GRAD, epoch=s, vals=partial))

        ga = endpoint.recv()
        if ga.tag != Tag.GRAD_AND_ACTIVE:
            raise RuntimeError(f"expected GRAD_AND_ACTIVE, got {ga.tag.name}")
        new_blocks = ga.ids
        grad0 = np.asarray(ga.vals, dtype=np.float64).copy()
        if len(new_blocks) != active.q_s or np.any(
                new_blocks != active.blocks):
            active = ActiveSet(model.partition, new_blocks)
            ws = EpochWorkspace(data, model.partition, stats.support, active,
                                sample_ids=shard)

        flag = endpoint.recv()
        if flag.tag != Tag.FLAG_FALSE:
            raise RuntimeError(f"expected FLAG_FALSE, got {flag.tag.name}")
        prime = endpoint.recv()
        if prime.tag != Tag.PARAM_PUSH:
            raise RuntimeError(f"expected PARAM_PUSH, got {prime.tag.name}")
        x = np.asarray(prime.vals, dtype=np.float64).copy()
        x0 = x.copy()
        z0 = ws.z_of(x0)
        z0_deriv = model.loss.deriv(z0, ws.targets)

        rng = rng_for(config.seed, wid, s)
        for _ in range(splits[wid]):
            i = int(rng.integers(n_local)) if n_local else 0
            idx = ws.tf[i] if n_local else np.empty(0, dtype=np.int64)
            if naive:
                if len(idx):
                    v = naive_gradient(ws, model, i, x[idx])
                else:
                    v = _EMPTY_VALS
                endpoint.send(Message(Tag.DELTA_PUSH, epoch=s, ids=idx,
                                      vals=v))
            else:
                if len(idx):
                    delta = vr_proposal(ws, model, i, x[idx], z0_deriv[i],
                                        x0[idx], grad0[idx], eta, lam)
                else:
                    delta = _EMPTY_VALS
                endpoint.send(Message(Tag.DELTA_PUSH, epoch=s, ids=idx,
                                      vals=delta))
            reply = endpoint.recv()
            if reply.tag != Tag.PARAM_PUSH:
                raise RuntimeError(
                    f"expected PARAM_PUSH, got {reply.tag.name}")
            x = np.asarray(reply.vals, dtype=np.float64).copy()


# ---------------------------------------------------------------------------
# in-process orchestration

def dist_solve(model, data, config, n_workers=1, transport="loopback",
               sync=True, host="127.0.0.1", port=0):
    """Run server and workers as threads and return the server's result."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if transport == "loopback":
        hub = LoopbackHub(n_workers)
        server_ep = hub.server_endpoint()
        worker_eps = [hub.worker_endpoint(w) for w in range(n_workers)]
    elif transport == "tcp":
        server_ep = TcpServerEndpoint(host, port, n_workers)
        worker_eps = None
    else:
        raise ValueError(f"unknown transport {transport!r}")

    errors = []

    def worker_main(wid, ep=None):
        try:
            if ep is None:
                ep = TcpWorkerEndpoint(host, server_ep.port, wid)
            run_dist_worker(model, data, config, ep, wid, n_workers)
        except BaseException as exc:  # surfaced after join
            errors.append((wid, exc))
            if ep is not None:
                ep.close()  # the server's next receive from us fails

    threads = []
    for w in range(n_workers):
        ep = worker_eps[w] if worker_eps is not None else None
        th = threading.Thread(target=worker_main, args=(w, ep), daemon=True)
        th.start()
        threads.append(th)
    try:
        if transport == "tcp":
            server_ep.accept_workers()
        result = run_dist_server(model, data, config, server_ep, n_workers,
                                 sync=sync)
    except ConnectionError:
        if not errors:  # otherwise a failed worker closed it: report that
            raise
    finally:
        for th in threads:
            th.join(timeout=30)
        server_ep.close()
    if errors:
        raise RuntimeError(f"worker {errors[0][0]} failed") from errors[0][1]
    return result
