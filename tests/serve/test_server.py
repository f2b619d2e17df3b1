"""End-to-end daemon tests: endpoints, payload paths, transports.

One module-scoped daemon serves every test; correctness is always
checked against the in-process plugin result, because the daemon's
contract is to be an invisible transport (see also the byte-identity
battery in ``test_conformance_serve.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.data import PressioData
from repro.core.library import Pressio
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer
from repro.serve.errors import (
    OptionRejectedError,
    UnknownCompressorError,
)


def _local_roundtrip(arr: np.ndarray, compressor: str,
                     options: dict | None = None) -> np.ndarray:
    lib = Pressio()
    plugin = lib.get_compressor(compressor)
    assert plugin is not None, lib.error_msg()
    if options:
        assert plugin.set_options(options) == 0, plugin.status.msg
    data = PressioData.from_numpy(np.ascontiguousarray(arr), copy=False)
    blob = plugin.compress(data)
    out = plugin.decompress(blob, PressioData.empty(data.dtype, data.dims))
    return out.to_numpy().reshape(arr.shape)


@pytest.fixture(scope="module")
def block():
    rng = np.random.default_rng(7)
    return np.cumsum(rng.standard_normal(512)).reshape(
        8, 8, 8).astype(np.float32)


class TestRoundtripCorrectness:
    @pytest.mark.parametrize("compressor", ("noop", "sz", "zfp"))
    def test_inline_matches_local(self, client, block, compressor):
        served, _stats = client.roundtrip(block, compressor)
        expected = _local_roundtrip(block, compressor)
        np.testing.assert_array_equal(served, expected)

    @pytest.mark.parametrize("compressor", ("noop", "sz", "zfp"))
    def test_shm_matches_local(self, shm_client, block, compressor):
        served, _stats = shm_client.roundtrip(block, compressor)
        expected = _local_roundtrip(block, compressor)
        np.testing.assert_array_equal(served, expected)

    def test_lean_and_full_replies_agree(self, server, block):
        lean = ServeClient(port=server.port, use_shm=True, lean=True)
        full = ServeClient(port=server.port, use_shm=True, lean=False)
        try:
            a, _ = lean.roundtrip(block, "sz")
            b, stats = full.roundtrip(block, "sz")
            np.testing.assert_array_equal(a, b)
            # the lean trade-off is documented: stats only on the full path
            assert stats.get("compressed_bytes", 0) > 0
        finally:
            lean.close()
            full.close()

    def test_uds_transport_agrees_with_tcp(self, server, block):
        if server.uds_path is None:
            pytest.skip("platform refused the AF_UNIX listener")
        uds = ServeClient(use_shm=True, uds=server.uds_path)
        tcp = ServeClient(port=server.port, use_shm=True)
        try:
            a, _ = uds.roundtrip(block, "sz")
            b, _ = tcp.roundtrip(block, "sz")
            np.testing.assert_array_equal(a, b)
        finally:
            uds.close()
            tcp.close()

    def test_input_array_zero_copy_path(self, server, block):
        c = ServeClient(port=server.port, use_shm=True)
        try:
            staged = c.input_array(block.shape, block.dtype)
            staged[:] = block
            served, _ = c.roundtrip(staged, "sz")
            np.testing.assert_array_equal(
                served, _local_roundtrip(block, "sz"))
            # mutate in place: the next request must see the new bytes
            staged[:] = block * 2.0
            served2, _ = c.roundtrip(staged, "sz")
            np.testing.assert_array_equal(
                served2, _local_roundtrip(block * 2.0, "sz"))
        finally:
            c.close()


class TestOperations:
    def test_compress_then_decompress(self, client, block):
        blob, stats = client.compress(block, "zlib")
        assert stats["compressed_bytes"] == len(blob)
        out, _ = client.decompress(blob, "zlib", str(block.dtype),
                                   block.shape)
        np.testing.assert_array_equal(out, block)

    def test_options_are_honored(self, client, block):
        loose, _ = client.roundtrip(block, "sz",
                                    {"pressio:abs": 1e-1})
        tight, _ = client.roundtrip(block, "sz",
                                    {"pressio:abs": 1e-6})
        # float32 storage adds ~eps*|value| on top of the abs bound
        assert np.abs(tight - block).max() <= 1e-5
        assert np.abs(loose - block).max() <= 1e-1 + 1e-6
        np.testing.assert_array_equal(
            tight, _local_roundtrip(block, "sz", {"pressio:abs": 1e-6}))

    def test_scalar_roundtrip(self, client):
        out, _ = client.roundtrip(np.float64(3.25), "noop")
        assert out.shape == ()
        assert float(out) == 3.25

    def test_empty_array_roundtrip(self, client):
        empty = np.empty((0, 3), dtype=np.float32)
        out, _ = client.roundtrip(empty, "noop")
        assert out.size == 0

    def test_expanding_compressor_falls_back_inline(self, shm_client,
                                                    block):
        # delta_encoding expands past the out segment's 2x headroom on
        # incompressible data; the daemon must deliver inline, not fail
        served, _ = shm_client.roundtrip(block, "delta_encoding")
        np.testing.assert_array_equal(
            served, _local_roundtrip(block, "delta_encoding"))

    def test_copy_false_views_alias_the_out_segment(self, shm_client,
                                                    block):
        view, _ = shm_client.roundtrip(block, "noop", copy=False)
        copied, _ = shm_client.roundtrip(block, "noop", copy=True)
        np.testing.assert_array_equal(view, copied)

    def test_lean_roundtrips_return_fresh_stats(self, shm_client, block):
        # the lean reply path memoizes its synthesized response; the
        # stats a caller receives must still be its own
        _out, st1 = shm_client.roundtrip(block, "sz")
        st1["caller_key"] = 1
        _out, st2 = shm_client.roundtrip(block, "sz")
        assert st2 is not st1
        assert "caller_key" not in st2

    def test_reshaped_array_is_served_with_its_new_shape(self, shm_client):
        arr = np.arange(24 ** 3, dtype=np.float64).reshape(24, 24, 24)
        out, _ = shm_client.roundtrip(arr, "noop")
        assert out.shape == (24, 24, 24)
        # the same ndarray object with a new shape, then a new dtype
        arr.shape = (576, 24)
        out, _ = shm_client.roundtrip(arr, "noop")
        assert out.shape == (576, 24)
        np.testing.assert_array_equal(out, arr)
        arr.dtype = np.float32
        out, _ = shm_client.roundtrip(arr, "noop")
        assert out.dtype == np.float32 and out.shape == (576, 48)
        np.testing.assert_array_equal(out, arr)

    def test_ping(self, client):
        assert client.ping() is True


class TestErrors:
    def test_unknown_compressor_is_typed_404(self, client, block):
        with pytest.raises(UnknownCompressorError):
            client.roundtrip(block, "definitely-not-a-compressor")

    def test_rejected_option_is_typed_400(self, client, block):
        with pytest.raises(OptionRejectedError):
            client.roundtrip(block, "sz", {"pressio:abs": "not-a-number"})

    def test_shm_path_raises_same_taxonomy(self, shm_client, block):
        with pytest.raises(UnknownCompressorError):
            shm_client.roundtrip(block, "definitely-not-a-compressor")

    def test_http_404_and_405(self, client):
        status, _, _ = client._http("GET", "/v1/no-such-endpoint")
        assert status == 404
        status, _, _ = client._http("GET", "/v1/compress")
        assert status == 405


class TestManagement:
    def test_health_reports_daemon_state(self, server, client, block):
        client.roundtrip(block, "noop")
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == "pressio-serve/1"
        assert health["workers"] == 4
        assert health["completed"] >= 1
        assert "uds" in health and health["uds"] == server.uds_path
        assert health["segments"]["attached"] >= 0

    def test_compressors_listing(self, client):
        ids = client.compressors()
        assert "sz" in ids and "zfp" in ids and "noop" in ids

    def test_metrics_endpoint(self, server, block):
        from repro import obs

        obs.enable_metrics()
        try:
            c = ServeClient(port=server.port, tenant="metrics-t")
            try:
                c.roundtrip(block, "noop")
                text = c.metrics_text()
            finally:
                c.close()
            assert "pressio_serve_requests_total" in text
            assert 'tenant="metrics-t"' in text
            assert "pressio_serve_request_seconds" in text
            # the execution permits publish the in-flight gauge
            assert "\npressio_serve_inflight 0" in text
        finally:
            obs.disable_metrics()

    def test_metrics_and_healthz_match_serve_metrics(self, server, block):
        """The daemon renders /metrics through the shared renderer:
        Prometheus content type, runtime gauges, JSON health."""
        import http.client

        from repro import obs
        from repro.obs.prometheus import parse

        obs.enable_metrics()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            text = resp.read().decode("utf-8")
            assert resp.status == 200
            assert resp.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4")
            names = {s.name for s in parse(text).samples}
            assert "pressio_pool_hits_total" in names
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert json.loads(resp.read())["status"] == "ok"
            assert resp.getheader("Content-Type") == "application/json"
        finally:
            conn.close()
            obs.disable_metrics()

    def test_shm_input_views_are_cached_once_per_segment(self):
        arr = np.linspace(0, 1, 24 ** 3, dtype=np.float32).reshape((24,) * 3)
        with ServeServer(port=0, workers=2) as server:
            c = ServeClient(port=server.port, use_shm=True)
            try:
                for _ in range(100):
                    out, _ = c.roundtrip(arr, "noop")
                np.testing.assert_array_equal(out, arr)
                seg = server.segments.stats()
                assert (seg["view_builds"], seg["view_hits"]) == (1, 99)
                assert c.health()["segments"] == seg
                status, _, _ = c._http("POST", "/v1/release", json.dumps(
                    {"name": c._in_seg.seg.name}).encode())
                assert status == 200
                assert server.segments.stats()["attached"] == 1  # out seg
                out, _ = c.roundtrip(arr, "noop")
                np.testing.assert_array_equal(out, arr)
                seg = server.segments.stats()
                assert (seg["view_builds"], seg["view_hits"]) == (2, 99)
            finally:
                c.close()

    def test_release_endpoint_forgets_segments(self, server, block):
        c = ServeClient(port=server.port, use_shm=True)
        try:
            c.roundtrip(block, "noop")
            name = c._in_seg.seg.name
            status, _, body = c._http(
                "POST", "/v1/release", json.dumps({"name": name}).encode())
            assert status == 200 and json.loads(body)["released"] is True
            status, _, _ = c._http("POST", "/v1/release", b"not json")
            assert status == 400
        finally:
            c.close()
