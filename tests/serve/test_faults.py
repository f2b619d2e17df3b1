"""Fault injection: induced crashes, leaked segments, broken peers.

The daemon honors the frame ``fault`` field only when constructed with
``allow_fault_injection=True``; these tests use it to crash a request
mid-execution and assert the full failure contract — typed 503 with
retry metadata, a flight-recorder bundle, a connection that keeps
serving, and no ``/dev/shm`` residue after clients disconnect.
"""

from __future__ import annotations

import glob
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.native import sz
from repro.obs import flight as _flight
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer
from repro.serve.errors import (
    InternalServeError,
    PayloadTooLargeError,
    WorkerCrashedError,
)
from repro.serve.wire import Request


@pytest.fixture()
def fault_server():
    with ServeServer(port=0, workers=2,
                     allow_fault_injection=True) as srv:
        yield srv


def _faulty_request(arr: np.ndarray, fault: str) -> Request:
    return Request(op="roundtrip", compressor="noop",
                   dtype=str(arr.dtype), dims=arr.shape,
                   payload=arr.tobytes(), fault=fault)


class TestWorkerCrash:
    def test_crash_returns_typed_503_and_respawns(self, fault_server,
                                                  tmp_path):
        rec = _flight.enable_flight(dump_dir=str(tmp_path),
                                    install_hooks=False)
        try:
            arr = np.arange(64, dtype=np.float32)
            client = ServeClient(port=fault_server.port, tenant="chaos")
            try:
                with pytest.raises(WorkerCrashedError) as ei:
                    client._call(_faulty_request(arr, "crash-worker"))
                assert ei.value.http_status == 503
                assert ei.value.retryable
                assert ei.value.retry_after_s and ei.value.retry_after_s > 0

                # the connection survives and the retry succeeds
                out, _ = client.roundtrip(arr, "noop")
                np.testing.assert_array_equal(out, arr)

                assert fault_server.pool.crashes == 1
                assert fault_server.pool.permits.inflight == 0
            finally:
                client.close()

            # the crash left a flight bundle naming the failed request
            bundles = glob.glob(str(tmp_path / "flight_*.json"))
            assert bundles, "crash produced no flight-recorder bundle"
            with open(max(bundles)) as fh:
                bundle = json.load(fh)
            assert bundle["reason"] == "serve-worker-crash"
            assert any(e.get("kind") == "error" for e in bundle["events"])
        finally:
            _flight.disable_flight()

    def test_induced_exception_is_500_not_hang(self, fault_server):
        arr = np.arange(16, dtype=np.float64)
        client = ServeClient(port=fault_server.port)
        try:
            with pytest.raises(InternalServeError):
                client._call(_faulty_request(arr, "exception"))
            assert fault_server.pool.failed >= 1
            out, _ = client.roundtrip(arr, "noop")
            np.testing.assert_array_equal(out, arr)
        finally:
            client.close()

    def test_fault_field_ignored_without_opt_in(self, server):
        # the shared module server was built WITHOUT fault injection:
        # hostile frames carrying fault directives must execute normally
        arr = np.arange(16, dtype=np.float32)
        client = ServeClient(port=server.port)
        try:
            resp = client._call(_faulty_request(arr, "crash-worker"))
            assert resp.ok
        finally:
            client.close()


class TestShmHygiene:
    def test_no_dev_shm_residue_after_close(self, server):
        arr = np.linspace(0, 1, 512, dtype=np.float32)
        client = ServeClient(port=server.port, use_shm=True)
        client.roundtrip(arr, "noop")
        names = [seg.seg.name for seg in (client._in_seg,
                                          client._out_seg)
                 if seg.seg is not None]
        assert names, "shm round trip created no segments"
        client.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}"), \
                f"segment {name} leaked after client close"

    def test_leaked_segment_is_released_server_side(self, server):
        # a client that dies without releasing: the server must drop its
        # cached views on demand and the unlink must still succeed
        from repro.serve.shm import create_segment

        arr = np.arange(256, dtype=np.float32)
        seg = create_segment(arr.nbytes, prefix="psvleak")
        try:
            seg.buf[:arr.nbytes] = arr.tobytes()
            client = ServeClient(port=server.port)
            try:
                from repro.serve.wire import ShmRef

                req = Request(op="compress", compressor="noop",
                              dtype=str(arr.dtype), dims=arr.shape,
                              shm=ShmRef(seg.name, arr.nbytes, 0))
                resp = client._call(req)
                assert resp.ok
                # simulate the crash: client vanishes, segment sticks
                status, _, body = client._http(
                    "POST", "/v1/release",
                    json.dumps({"name": seg.name}).encode())
                assert status == 200
                assert json.loads(body)["released"] is True
            finally:
                client.close()
        finally:
            seg.close()
            seg.unlink()
        assert not os.path.exists(f"/dev/shm/{seg.name}")

    def test_view_counts_hold_under_concurrent_hits(self):
        # more threads than cores and a short switch interval: a lost
        # hit-count update would break builds + hits == calls
        import sys
        import threading

        from repro.serve.shm import SegmentCache, create_segment
        from repro.serve.wire import ShmRef

        threads, calls = 8, 300
        seg = create_segment(64 * 4, prefix="psvhits")
        cache = SegmentCache()
        ref = ShmRef(seg.name, 64 * 4, 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer() -> None:
                for _ in range(calls):
                    data, raw = cache.input_data(ref, "float32", (64,))
                    assert len(raw) == 64 * 4 and data.dims == (64,)

            workers = [threading.Thread(target=hammer)
                       for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(interval)
            stats = cache.stats()
            cache.close_all()
            seg.close()
            seg.unlink()
        assert stats["view_builds"] >= 1
        assert stats["view_builds"] + stats["view_hits"] == threads * calls
        assert cache.stats()["attached"] == 0

    def test_server_shutdown_leaves_no_attached_segments(self):
        arr = np.arange(128, dtype=np.float64)
        srv = ServeServer(port=0, workers=1)
        srv.start()
        client = ServeClient(port=srv.port, use_shm=True)
        try:
            client.roundtrip(arr, "noop")
        finally:
            client.close()
            srv.stop()
        assert srv.segments.stats()["attached"] == 0


class TestBrokenPeers:
    def test_garbage_request_line_gets_400_and_close(self, server):
        """A bare frame is not HTTP: 400, then that connection drops,
        and the daemon keeps serving everyone else."""
        import socket

        s = socket.create_connection(("127.0.0.1", server.port),
                                     timeout=5)
        try:
            s.sendall(b"PSV1" + (20).to_bytes(4, "big") + b"x" * 20
                      + b"\r\n")
            reply = b""
            while chunk := s.recv(4096):
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 400 ")
        finally:
            s.close()
        client = ServeClient(port=server.port)
        try:
            assert client.ping() is True  # daemon unharmed
        finally:
            client.close()

    def test_oversized_body_rejected_with_413(self):
        arr = np.zeros(4096, dtype=np.float64)
        with ServeServer(port=0, workers=1, max_payload=1024) as server:
            client = ServeClient(port=server.port)
            try:
                from repro.serve.errors import PayloadTooLargeError

                with pytest.raises(PayloadTooLargeError):
                    client.roundtrip(arr, "noop")
            finally:
                client.close()


def _sz_zeros(count: int) -> bytes:
    """An sz stream of float64 zeros declaring dims (count,): genuine
    up to 2**20 values, past that a 2**20-value one with its first dim
    forged, which the daemon must refuse on the request's dims alone.
    """
    stream = bytearray(sz.compress(np.zeros(min(count, 1 << 20)),
                                   sz.sz_params(absErrBound=1e-4)))
    stream[9:17] = count.to_bytes(8, "little")  # the first dim
    return bytes(stream)


class TestOutputCap:
    """``max_payload`` also caps what a decompress may make the daemon
    allocate: its template is built from the client's own dims."""

    @pytest.mark.parametrize("use_shm", [False, True],
                             ids=["inline", "shm"])
    @pytest.mark.parametrize("count", [1 << 20, 1 << 34],
                             ids=["8MiB", "128GiB"])
    def test_forged_output_size_fails_typed_before_allocating(
            self, use_shm, count):
        with ServeServer(port=0, workers=1, max_payload=1 << 20) as srv:
            client = ServeClient(port=srv.port, use_shm=use_shm)
            try:
                req = client._build_request(
                    "decompress", "sz", None, _sz_zeros(count), "float64",
                    (count,), False, "bypass", want_out_shm=False)
                tracemalloc.start()
                try:
                    with pytest.raises(PayloadTooLargeError) as ei:
                        client._call(req)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert ei.value.http_status == 413
                assert not ei.value.retryable
                assert peak < 1 << 20
                # refused before dispatch: nothing reached the plugin
                assert srv.pool.completed + srv.pool.failed == 0
            finally:
                client.close()

    def test_output_within_cap_decodes(self):
        with ServeServer(port=0, workers=1, max_payload=1 << 20) as srv:
            client = ServeClient(port=srv.port)
            try:
                out, _ = client.decompress(_sz_zeros(1 << 16), "sz",
                                           "float64", (1 << 16,))
                assert out.shape == (1 << 16,) and not out.any()
            finally:
                client.close()
