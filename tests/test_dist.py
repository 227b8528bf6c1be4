import itertools
import threading

import numpy as np
import pytest

import ddss.distributed
import ddss.engine
import ddss.screening
from conftest import interleaved_group_lasso, lasso_model, random_lasso
from ddss import traces_equal
from ddss.distributed import (LoopbackHub, Message, Tag, decode_body,
                              dist_solve, encode, run_dist_server,
                              run_dist_worker, shard_ranges,
                              _block_offsets_for)
from ddss.model import primal_objective
from ddss.screening import ActiveSet
from ddss.sequential import (DivergenceError, SolverConfig, oracle_solve,
                             solve_sequential)
from ddss import BlockPartition, parse_libsvm


class TestWireFormat:
    def test_round_trip_all_tags(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tag = Tag(int(rng.integers(1, 9)))
            nid = int(rng.integers(0, 50))
            nval = int(rng.integers(0, 50))
            msg = Message(tag, epoch=int(rng.integers(0, 1 << 40)),
                          ids=rng.integers(0, 1 << 31, size=nid),
                          vals=rng.normal(size=nval))
            out = decode_body(encode(msg)[4:])
            assert out.tag == msg.tag and out.epoch == msg.epoch
            assert np.array_equal(out.ids, msg.ids)
            assert np.array_equal(out.vals, msg.vals)

    def test_golden_bytes(self):
        msg = Message(Tag.DELTA_PUSH, epoch=3,
                      ids=np.array([2], dtype=np.uint32),
                      vals=np.array([1.5]))
        frame = encode(msg)
        # u32 length | u8 tag | u64 epoch | u32 count | ids | vals
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "little")
        assert frame[4] == 7
        assert frame[5:13] == (3).to_bytes(8, "little")
        assert frame[13:17] == (1).to_bytes(4, "little")
        assert frame[17:21] == (2).to_bytes(4, "little")
        assert frame[21:29] == np.float64(1.5).tobytes()

    def test_malformed_values_rejected(self):
        frame = encode(Message(Tag.PARAMS, vals=np.array([1.0])))
        with pytest.raises(ValueError):
            decode_body(frame[4:-3])

    def test_empty_payload(self):
        out = decode_body(encode(Message(Tag.SHUTDOWN))[4:])
        assert len(out.ids) == 0 and len(out.vals) == 0


class TestSharding:
    def test_shard_ranges_partition(self):
        for n in (1, 7, 100, 1234):
            for w in (1, 2, 5, 8):
                ranges = shard_ranges(n, w)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (a, b), (c, d) in zip(ranges, ranges[1:]):
                    assert b == c
                sizes = [b - a for a, b in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_block_offsets(self):
        part = BlockPartition.contiguous(6, 2)
        active = ActiveSet(part)
        ids = np.array([0, 1, 2, 3, 4, 5])
        assert _block_offsets_for(active, ids).tolist() == [0, 2, 4, 6]
        ids = np.array([2, 3])
        assert _block_offsets_for(active, ids).tolist() == [0, 2]


class TestSingleWorker:
    @pytest.mark.parametrize("mode,interleaved", [
        ("ddss", False), ("ddss_naive", False),
        ("ddss", True), ("ddss_naive", True)],
        ids=["ddss", "ddss_naive", "ddss-interleaved-groups",
             "ddss_naive-interleaved-groups"])
    def test_bit_identical_to_sequential(self, mode, interleaved):
        for seed in range(5):
            if interleaved:
                ds, m = interleaved_group_lasso(60, 16, 0.6, 200 + seed, 0.3)
            else:
                ds = random_lasso(40, 15, 0.7, seed=200 + seed)
                m = lasso_model(ds, ratio=0.25)
            cfg = SolverConfig(epochs=5, seed=seed, mode=mode)
            seq = solve_sequential(m, ds, cfg)
            dst = dist_solve(m, ds, cfg, n_workers=1, sync=True)
            assert traces_equal(seq.trace, dst.trace)
            assert np.array_equal(seq.x, dst.x)
            assert seq.final_objective == dst.final_objective
            assert seq.final_gap == dst.final_gap

    def test_empty_row_keeps_naive_schedule(self):
        # a dataset with an empty sample row: empty delta pushes must still
        # advance the diminishing-step counter, exactly as sequential does
        text = "1 1:1\n0.5\n-1 2:1\n0.2 1:0.5 2:0.5"
        ds = parse_libsvm(text)
        m = lasso_model(ds, ratio=0.2)
        cfg = SolverConfig(epochs=4, seed=1, mode="ddss_naive")
        seq = solve_sequential(m, ds, cfg)
        dst = dist_solve(m, ds, cfg, n_workers=1, sync=True)
        assert traces_equal(seq.trace, dst.trace)
        assert np.array_equal(seq.x, dst.x)


class TestMultiWorker:
    def test_four_workers_reach_oracle(self):
        ds = random_lasso(60, 20, 1.0, seed=9, row_norm=np.sqrt(0.1))
        m = lasso_model(ds, ratio=0.1, mu_f=1e-2)
        res = dist_solve(m, ds, SolverConfig(epochs=8, seed=0), n_workers=4,
                         sync=True)
        xs = oracle_solve(m, ds, tol_gap=1e-13)
        assert abs(res.final_objective
                   - primal_objective(m, ds, xs)) <= 1e-6

    def test_sync_runs_reproducible(self):
        ds = random_lasso(50, 16, 0.8, seed=3)
        m = lasso_model(ds, ratio=0.3)
        cfg = SolverConfig(epochs=4, seed=2)
        a = dist_solve(m, ds, cfg, n_workers=3, sync=True)
        b = dist_solve(m, ds, cfg, n_workers=3, sync=True)
        assert traces_equal(a.trace, b.trace)
        assert np.array_equal(a.x, b.x)

    def test_async_converges(self):
        ds = random_lasso(50, 16, 0.8, seed=4)
        m = lasso_model(ds, ratio=0.3)
        res = dist_solve(m, ds, SolverConfig(epochs=10, seed=0), n_workers=3,
                         sync=False)
        assert res.final_gap < res.trace[0].gap

    def test_more_workers_than_inner_steps(self):
        ds = random_lasso(20, 8, 1.0, seed=5)
        m = lasso_model(ds, ratio=0.4)
        cfg = SolverConfig(epochs=3, seed=0, inner=3)
        res = dist_solve(m, ds, cfg, n_workers=4, sync=True)
        assert len(res.trace) == 3

    def test_trivial_lambda(self):
        ds = random_lasso(30, 10, 1.0, seed=6)
        m = lasso_model(ds, ratio=1.2)
        res = dist_solve(m, ds, SolverConfig(epochs=3, seed=0), n_workers=3,
                         sync=True)
        assert np.all(res.x == 0.0)
        assert res.trace[-1].active_blocks == 0

    def test_empty_shards_loopback_matches_tcp(self):
        # 3 rows over 5 workers: workers 3 and 4 own no rows and push only
        # empty deltas
        ds = random_lasso(3, 6, 0.8, seed=12)
        m = lasso_model(ds, ratio=0.3)
        cfg = SolverConfig(epochs=4, seed=0)
        loop = dist_solve(m, ds, cfg, n_workers=5, sync=True,
                          transport="loopback")
        tcp = dist_solve(m, ds, cfg, n_workers=5, sync=True, transport="tcp")
        assert loop.touches > 0
        assert traces_equal(loop.trace, tcp.trace)
        assert np.array_equal(loop.x, tcp.x)
        assert loop.touches == tcp.touches

    def test_column_dual_norms_computed_once(self, monkeypatch):
        # only the server screens; workers need the support map and L only
        calls = itertools.count()
        real = ddss.screening.column_dual_norms

        def counting(*args, **kwargs):
            next(calls)
            return real(*args, **kwargs)

        monkeypatch.setattr(ddss.screening, "column_dual_norms", counting)
        ds = random_lasso(40, 12, 0.8, seed=8)
        m = lasso_model(ds, ratio=0.3)
        dist_solve(m, ds, SolverConfig(epochs=2, seed=0), n_workers=2)
        assert next(calls) == 1

    def test_invalid_worker_count(self):
        ds = random_lasso(10, 5, 1.0, seed=0)
        m = lasso_model(ds, ratio=0.5)
        with pytest.raises(ValueError):
            dist_solve(m, ds, SolverConfig(), n_workers=0)


class _StaleInjectingEndpoint:
    """Wraps a worker endpoint and, once per epoch >= 1, fires a stale
    DELTA_PUSH from the previous epoch right before the gather reply."""

    def __init__(self, inner):
        self.inner = inner
        self.injected_for = set()

    def send(self, msg):
        if (msg.tag == Tag.PARTIAL_GRAD and msg.epoch >= 1
                and msg.epoch not in self.injected_for):
            self.injected_for.add(msg.epoch)
            self.inner.send(Message(Tag.DELTA_PUSH, epoch=msg.epoch - 1,
                                    ids=np.array([0], dtype=np.uint32),
                                    vals=np.array([1e6])))
        self.inner.send(msg)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)

    def close(self):
        self.inner.close()


class TestStaleDeltas:
    def test_stale_delta_discarded(self):
        import threading
        from ddss.distributed import (LoopbackHub, run_dist_server,
                                      run_dist_worker)
        ds = random_lasso(40, 12, 0.8, seed=7)
        m = lasso_model(ds, ratio=0.3)
        cfg = SolverConfig(epochs=5, seed=0)
        clean = dist_solve(m, ds, cfg, n_workers=1, sync=True)

        hub = LoopbackHub(1)
        ep = _StaleInjectingEndpoint(hub.worker_endpoint(0))
        errors = []

        def wmain():
            try:
                run_dist_worker(m, ds, cfg, ep, 0, 1)
            except BaseException as exc:
                errors.append(exc)

        th = threading.Thread(target=wmain, daemon=True)
        th.start()
        res = run_dist_server(m, ds, cfg, hub.server_endpoint(), 1, sync=True)
        th.join(timeout=30)
        assert not errors
        # the poisoned stale delta (1e6) must leave no trace in the run
        assert traces_equal(clean.trace, res.trace)
        assert np.array_equal(clean.x, res.x)


class TestTcpTransport:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tcp_matches_loopback(self, workers):
        ds = random_lasso(40, 12, 0.8, seed=8)
        m = lasso_model(ds, ratio=0.3)
        cfg = SolverConfig(epochs=4, seed=0)
        loop = dist_solve(m, ds, cfg, n_workers=workers, sync=True,
                          transport="loopback")
        tcp = dist_solve(m, ds, cfg, n_workers=workers, sync=True,
                         transport="tcp")
        assert traces_equal(loop.trace, tcp.trace)
        assert np.array_equal(loop.x, tcp.x)

    def test_unknown_transport(self):
        ds = random_lasso(10, 5, 1.0, seed=0)
        m = lasso_model(ds, ratio=0.5)
        with pytest.raises(ValueError):
            dist_solve(m, ds, SolverConfig(), n_workers=1,
                       transport="carrier-pigeon")


def _raises_within(seconds, fn):
    """Run ``fn`` in a daemon thread; return what it raised, failing the
    test if it neither raised nor returned within ``seconds``."""
    out = []

    def body():
        try:
            fn()
        except BaseException as exc:
            out.append(exc)
        else:
            out.append(None)

    th = threading.Thread(target=body, daemon=True)
    th.start()
    th.join(timeout=seconds)
    assert out, f"still running after {seconds} s"
    assert out[0] is not None, "no error raised"
    return out[0]


class TestWorkerFault:
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_ends_solve(self, monkeypatch, transport, workers):
        calls = itertools.count(1)
        real = ddss.engine.vr_proposal

        def faulty(*args, **kwargs):
            if next(calls) >= 5:
                raise ValueError("injected worker fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(ddss.engine, "vr_proposal", faulty)
        ds = random_lasso(40, 12, 0.8, seed=5)
        m = lasso_model(ds, ratio=0.3)
        exc = _raises_within(10, lambda: dist_solve(
            m, ds, SolverConfig(epochs=4, seed=0), n_workers=workers,
            transport=transport))
        assert isinstance(exc, RuntimeError)
        assert isinstance(exc.__cause__, ValueError)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shutdown_mid_epoch_stops_worker_cleanly(self, workers):
        # the server diverges at the head of epoch 1, after the workers sent
        # their partial gradients: they get SHUTDOWN instead of
        # GRAD_AND_ACTIVE and must return without an error
        ds = random_lasso(30, 10, 1.0, seed=10)
        m = lasso_model(ds, ratio=0.05)
        cfg = SolverConfig(epochs=30, seed=0, eta=500.0)
        hub = LoopbackHub(workers)
        outcomes = []

        def worker(wid):
            try:
                run_dist_worker(m, ds, cfg, hub.worker_endpoint(wid), wid,
                                workers)
            except BaseException as exc:
                outcomes.append(exc)
            else:
                outcomes.append(None)

        threads = [threading.Thread(target=worker, args=(w,), daemon=True)
                   for w in range(workers)]
        for th in threads:
            th.start()
        with pytest.raises(DivergenceError):
            run_dist_server(m, ds, cfg, hub.server_endpoint(), workers)
        for th in threads:
            th.join(timeout=10)
        assert outcomes == [None] * workers

    def test_server_divergence_releases_workers(self):
        ds = random_lasso(30, 10, 1.0, seed=10)
        m = lasso_model(ds, ratio=0.05)
        exc = _raises_within(10, lambda: dist_solve(
            m, ds, SolverConfig(epochs=30, seed=0, eta=500.0), n_workers=2))
        assert isinstance(exc, DivergenceError)
