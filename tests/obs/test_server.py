"""The /metrics + /healthz HTTP endpoint, end to end.

The acceptance-critical property: after a compress/decompress run, a
``curl``-equivalent GET of ``/metrics`` returns valid Prometheus text
whose per-plugin operation counts equal the trace aggregate report's
counts for the same run.
"""

import json
import re
import urllib.request

import numpy as np
import pytest

from repro import PressioData, obs
from repro.trace import aggregate, tracing


def get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return (resp.status, resp.headers.get("Content-Type", ""),
                resp.read().decode("utf-8"))


@pytest.fixture()
def server():
    srv = obs.start_server()  # port 0 -> free port; enables collection
    yield srv
    srv.stop()


@pytest.fixture()
def sz(library):
    comp = library.get_compressor("sz")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    return comp


def roundtrips(comp, n=1, seed=3):
    data = PressioData.from_numpy(
        np.random.default_rng(seed).random((12, 12, 12)))
    template = PressioData.empty(data.dtype, data.dims)
    for _ in range(n):
        compressed = comp.compress(data)
        comp.decompress(compressed, template)


def sample_value(body: str, metric: str, **labels) -> float:
    """Parse one sample out of exposition text (scraper stand-in)."""
    for line in body.splitlines():
        if not line.startswith(metric):
            continue
        m = re.match(rf'{metric}(?:\{{([^}}]*)\}})? (\S+)$', line)
        if not m:
            continue
        found = dict(re.findall(r'(\w+)="([^"]*)"', m.group(1) or ""))
        if all(found.get(k) == v for k, v in labels.items()):
            return float(m.group(2))
    raise AssertionError(f"{metric}{labels} not found in:\n{body}")


class TestMetricsEndpoint:
    def test_metrics_counts_match_trace_aggregate(self, server, sz):
        with tracing() as trace:
            roundtrips(sz, n=3)
        _, ctype, body = get(f"{server.url}/metrics")
        assert ctype.startswith("text/plain")

        rows = aggregate(trace)
        compresses = sample_value(body, "pressio_operations_total",
                                  operation="compress", plugin="sz")
        decompresses = sample_value(body, "pressio_operations_total",
                                    operation="decompress", plugin="sz")
        assert compresses == 3
        assert decompresses == 3
        assert compresses + decompresses == rows["sz"]["calls"]

    def test_duration_histogram_counts_operations(self, server, sz):
        roundtrips(sz, n=2)
        _, _, body = get(f"{server.url}/metrics")
        assert sample_value(body, "pressio_operation_duration_seconds_count",
                            operation="compress", plugin="sz") == 2
        bucket_inf = sample_value(
            body, "pressio_operation_duration_seconds_bucket",
            operation="compress", plugin="sz", le="+Inf")
        assert bucket_inf == 2

    def test_trace_bridge_gauges_served_while_tracing(self, server, sz):
        with tracing():
            roundtrips(sz, n=1)
            _, _, body = get(f"{server.url}/metrics")
        assert sample_value(body, "pressio_trace_calls", plugin="sz") == 2
        assert sample_value(body, "pressio_trace_self_ms", plugin="sz") > 0

    def test_compression_ratio_gauge(self, server, sz):
        roundtrips(sz, n=1)
        _, _, body = get(f"{server.url}/metrics")
        assert sample_value(body, "pressio_last_compression_ratio",
                            plugin="sz") > 1.0

    def test_disabled_collection_still_scrapes(self, library):
        obs.disable_metrics()
        srv = obs.MetricsServer().start()
        try:
            status, _, body = get(f"{srv.url}/metrics")
            assert status == 200
            assert "disabled" in body
        finally:
            srv.stop()


class TestHealthz:
    def test_health_reports_ok_and_operations(self, server, sz):
        roundtrips(sz, n=2)
        status, ctype, body = get(f"{server.url}/healthz")
        assert status == 200
        assert ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["collecting"] is True
        assert payload["operations"] == 4
        assert payload["uptime_seconds"] >= 0

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            get(f"{server.url}/nope")
        assert exc.value.code == 404


class TestSharedLoop:
    """MetricsServer runs the daemon's keep-alive loop and route table."""

    def test_two_gets_share_one_connection(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            for path in ("/metrics", "/healthz"):
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                assert not resp.will_close
        finally:
            conn.close()

    @pytest.mark.parametrize("request_head", (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n",
        b"GET /healthz HTTP/1.0\r\n",
    ), ids=("connection-close", "http-1.0"))
    def test_connection_close_is_answered_then_closed(self, server,
                                                      request_head):
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as s:
            s.sendall(request_head + b"\r\n")
            reply = b""
            while chunk := s.recv(4096):  # ends only when the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    def test_route_table_answers_404_and_405(self):
        import http.client

        def echo(body):
            return 200, {}, bytes(body)

        from repro.obs.server import HTTPListener

        listener = HTTPListener(
            {"/v1/compress": ("POST", "application/octet-stream", echo)}
        ).start("127.0.0.1", 0)
        conn = http.client.HTTPConnection("127.0.0.1", listener.port,
                                          timeout=10)
        try:
            for method, path, status in (("GET", "/nope", 404),
                                         ("GET", "/v1/compress", 405),
                                         ("POST", "/v1/compress", 200)):
                conn.request(method, path, body=b"abc")
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == status
            assert body == b"abc"
        finally:
            conn.close()
            listener.stop()


class TestServerLifecycle:
    def test_port_zero_picks_free_port_and_stop_is_idempotent(self):
        srv = obs.MetricsServer(registry=obs.MetricsRegistry()).start()
        assert srv.port > 0
        srv.stop()
        srv.stop()  # second stop is a no-op

    def test_context_manager(self):
        with obs.MetricsServer(registry=obs.MetricsRegistry()) as srv:
            status, _, _ = get(f"{srv.url}/healthz")
            assert status == 200

    def test_start_server_installs_registry_when_none_active(self):
        assert obs.active_registry() is None
        srv = obs.start_server()
        try:
            assert obs.active_registry() is not None
            assert srv.registry is obs.active_registry()
        finally:
            srv.stop()


class TestPortConflict:
    def test_bound_port_raises_typed_error_with_details(self):
        with obs.MetricsServer(registry=obs.MetricsRegistry()) as srv:
            busy = srv.port
            with pytest.raises(obs.PortInUseError) as exc:
                obs.MetricsServer(registry=obs.MetricsRegistry(),
                                  port=busy).start()
        err = exc.value
        assert isinstance(err, OSError)
        assert (err.host, err.port) == ("127.0.0.1", busy)
        assert f"127.0.0.1:{busy}" in str(err)

    def test_conflict_is_taxonomy_counted(self):
        with obs.metrics_enabled() as reg:
            with obs.MetricsServer(registry=obs.MetricsRegistry()) as srv:
                with pytest.raises(obs.PortInUseError):
                    obs.MetricsServer(registry=obs.MetricsRegistry(),
                                      port=srv.port).start()
                family = reg.get("pressio_metrics_port_in_use_total")
                assert family is not None
                ((labels, child),) = list(family.samples())
                assert child.value == 1
                assert str(srv.port) in labels

    def test_serve_metrics_cli_fails_with_hint_without_auto_port(
            self, capsys):
        from repro.tools.cli import run as cli_run

        with obs.MetricsServer(registry=obs.MetricsRegistry()) as srv:
            rc = cli_run(["serve-metrics", "--port", str(srv.port),
                          "--duration", "0"])
        assert rc == 1
        assert "--auto-port" in capsys.readouterr().err

    def test_serve_metrics_cli_auto_port_rebinds(self, capsys):
        from repro.tools.cli import run as cli_run

        with obs.MetricsServer(registry=obs.MetricsRegistry()) as srv:
            busy = srv.port
            rc = cli_run(["serve-metrics", "--port", str(busy),
                          "--auto-port", "--duration", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"port {busy} in use; bound port" in out
        assert "serving metrics on" in out
