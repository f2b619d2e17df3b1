"""Concurrency soak: many threads, mixed tenants, mixed compressors.

The invariants under load, asserted exactly:

* zero 5xx — every request either succeeds or fails with a *client*
  class error (4xx taxonomy), and in this battery none should fail;
* every result is byte-identical to the single-threaded expectation;
* pool counter arithmetic: ``completed + failed`` equals the number of
  requests that reached the pool, and nothing is left in flight;
* one execution tier: every request runs on the connection thread that
  decoded it, and the daemon starts no worker threads of its own;
* gauge consistency: the health endpoint and the execution permits
  agree after the storm (in-flight back to zero, peak bounded by the
  ceiling).

Runs under ``PRESSIO_SANITIZE=1`` in CI so the dynamic race sanitizer
watches the locks while the storm runs.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.data import PressioData
from repro.core.library import Pressio
from repro.serve import daemon as _daemon
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer

THREADS = 8
REQUESTS_PER_THREAD = 12
COMPRESSORS = ("noop", "sz", "zfp")
TENANTS = ("alpha", "beta", "gamma", "delta")


def _expected_outputs(block: np.ndarray) -> dict[str, bytes]:
    lib = Pressio()
    out: dict[str, bytes] = {}
    for cid in COMPRESSORS:
        plugin = lib.get_compressor(cid)
        data = PressioData.from_numpy(block, copy=False)
        blob = plugin.compress(data)
        res = plugin.decompress(
            blob, PressioData.empty(data.dtype, data.dims))
        out[cid] = bytes(res.as_memoryview())
    return out


def test_soak_mixed_tenants_compressors_and_paths(monkeypatch):
    rng = np.random.default_rng(20210429)
    block = np.ascontiguousarray(
        np.cumsum(rng.standard_normal(1000)).reshape(
            10, 10, 10).astype(np.float32))
    expected = _expected_outputs(block)
    total = THREADS * REQUESTS_PER_THREAD

    decode = _daemon.decode_request

    def tagged_decode(body):
        req = decode(body)
        req.decoded_on = threading.get_ident()
        return req

    monkeypatch.setattr(_daemon, "decode_request", tagged_decode)
    with ServeServer(port=0, workers=4, max_inflight=64) as server:
        errors: list[str] = []
        barrier = threading.Barrier(THREADS)
        execute = server.pool._execute
        elsewhere: list[str] = []

        def watched_execute(req, comp_cache):
            if req.decoded_on != threading.get_ident():
                elsewhere.append(threading.current_thread().name)
            return execute(req, comp_cache)

        server.pool._execute = watched_execute

        def storm(tid: int) -> None:
            # even threads take the shm fast path, odd threads inline;
            # half of the shm threads disable lean replies
            client = ServeClient(
                port=server.port, tenant=TENANTS[tid % len(TENANTS)],
                use_shm=tid % 2 == 0, lean=tid % 4 == 0)
            try:
                barrier.wait(timeout=10)
                for i in range(REQUESTS_PER_THREAD):
                    cid = COMPRESSORS[(tid + i) % len(COMPRESSORS)]
                    out, _stats = client.roundtrip(block, cid)
                    if out.tobytes() != expected[cid]:
                        errors.append(
                            f"thread {tid} req {i} ({cid}): wrong bytes")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"thread {tid}: {type(exc).__name__}: {exc}")
            finally:
                client.close()

        threads = [threading.Thread(target=storm, args=(t,))
                   for t in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "soak thread hung"
        assert errors == []

        # -- pool counter invariants -----------------------------------
        assert server.pool.completed + server.pool.failed == total
        assert server.pool.failed == 0
        assert server.pool.crashes == 0

        # -- one execution tier ----------------------------------------
        assert elsewhere == []
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("serve-worker")] == []

        # -- busy gate / gauge consistency -----------------------------
        assert server.pool.permits.inflight == 0
        assert server.pool.permits.shed == 0
        assert 1 <= server.pool.permits.peak <= 64

        # -- quota accounting (disabled -> everything admitted) --------
        assert server.quota.admitted >= total
        assert server.quota.denied == 0

        probe = ServeClient(port=server.port)
        try:
            health = probe.health()
        finally:
            probe.close()
        assert health["inflight"] == 0
        assert health["completed"] == server.pool.completed
        assert health["failed"] == 0


def test_saturation_sheds_cleanly_and_recovers():
    """Past the in-flight ceiling the daemon must shed with the typed
    503 — never hang, never 500 — and serve normally afterwards."""
    from repro.serve.errors import SaturatedError, ServeError

    arr = np.linspace(0, 1, 20000, dtype=np.float64)
    failures: list[str] = []
    shed = threading.Semaphore(0)
    with ServeServer(port=0, workers=1, max_inflight=2) as server:

        def hammer(tid: int) -> None:
            client = ServeClient(port=server.port, tenant=f"t{tid}")
            try:
                for _ in range(6):
                    try:
                        client.roundtrip(arr, "zlib-best")
                    except SaturatedError as e:
                        if not e.retryable or e.retry_after_s is None:
                            failures.append("503 without retry metadata")
                        shed.release()
                    except ServeError as e:
                        failures.append(f"unexpected {e.etype}")
            except Exception as exc:  # noqa: BLE001 - collected
                failures.append(f"{type(exc).__name__}: {exc}")
            finally:
                client.close()

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []
        assert server.pool.permits.inflight == 0
        # afterwards: an idle daemon serves normally again
        client = ServeClient(port=server.port)
        try:
            out, _ = client.roundtrip(arr, "noop")
            np.testing.assert_array_equal(out, arr)
        finally:
            client.close()
