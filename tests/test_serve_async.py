"""Tests for the event-loop network front end (:mod:`repro.serve.netfront`).

Protocol level: the incremental HTTP/1.1 parser against torn reads,
pipelined requests, oversized heads/bodies, bad framing.  Wire level,
against a live :class:`PECANServer`: keep-alive reuse (including across a
deploy → promote lifecycle), in-order pipelined responses, the connection
budget's 503 + ``Retry-After`` reply, the slowloris 408 guard and the idle
reaper — plus a slow-marked chaos leg where clients disconnect mid-response
and a slowloris swarm trickles headers while healthy load keeps flowing.
"""

from __future__ import annotations

import json
import shutil
import socket
import sys
import threading
import time

import numpy as np
import pytest

from harness import SlowlorisSwarm, run_concurrent_load
from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import (BundleEngine, Headers, HTTPParseError, PECANServer,
                         RequestParser, ServeClient, ServeConfig,
                         render_response)


def small_model(seed: int):
    rng = np.random.default_rng(seed)
    cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
    model = Sequential(
        Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * 4 * 4, 6, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("netfront")
    v1 = export_deployment_bundle(small_model(0), root / "v1.npz",
                                  input_shape=(1, 10, 10))
    v2 = root / "v2.npz"
    shutil.copyfile(v1, v2)
    v3 = export_deployment_bundle(small_model(99), root / "v3.npz",
                                  input_shape=(1, 10, 10))
    return {"v1": v1, "v2": v2, "v3": v3}


def predict_body(x: np.ndarray, **extra) -> bytes:
    return json.dumps({"inputs": np.asarray(x).tolist(), **extra}).encode()


def http_request(method: str, path: str, body: bytes = b"",
                 headers: str = "") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n{headers}\r\n")
    return head.encode() + body


def read_response(sock: socket.socket, buf: bytearray = None,
                  timeout: float = 10.0):
    """One framed response off a blocking socket → (status, headers, body).

    Pass the same ``buf`` bytearray across calls when reading pipelined
    responses: bytes past the first response stay in it for the next call.
    """
    if buf is None:
        buf = bytearray()
    sock.settimeout(timeout)
    while b"\r\n\r\n" not in buf:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError(f"closed mid-head: {bytes(buf)!r}")
        buf += data
    head_end = buf.index(b"\r\n\r\n")
    head = bytes(buf[:head_end]).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split()[1])
    header_map = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        header_map[name.strip().lower()] = value.strip()
    length = int(header_map.get("content-length", "0"))
    total = head_end + 4 + length
    while len(buf) < total:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError("closed mid-body")
        buf += data
    body = bytes(buf[head_end + 4:total])
    del buf[:total]
    return status, header_map, body


# --------------------------------------------------------------------------- #
# Incremental parser
# --------------------------------------------------------------------------- #
class TestRequestParser:
    def test_torn_reads_byte_at_a_time(self):
        parser = RequestParser()
        raw = http_request("POST", "/predict", b'{"inputs": []}',
                           headers="X-Priority: batch\r\n")
        seen = []
        for i in range(len(raw)):
            seen.extend(parser.feed(raw[i:i + 1]))
            # Mid-request the parser must report partial state (for the
            # slowloris clock); after the final byte it must be clean.
            assert parser.partial == (i < len(raw) - 1)
        assert len(seen) == 1
        request = seen[0]
        assert request.method == "POST"
        assert request.path == "/predict"
        assert request.body == b'{"inputs": []}'
        assert request.headers["x-priority"] == "batch"
        assert request.keep_alive

    def test_pipelined_requests_in_one_feed(self):
        parser = RequestParser()
        raw = (http_request("GET", "/healthz")
               + http_request("POST", "/predict", b"{}")
               + http_request("GET", "/metrics"))
        requests = parser.feed(raw)
        assert [(r.method, r.path) for r in requests] == [
            ("GET", "/healthz"), ("POST", "/predict"), ("GET", "/metrics")]
        assert requests[1].body == b"{}"
        assert not parser.partial

    def test_connection_close_stops_keep_alive(self):
        parser = RequestParser()
        (request,) = parser.feed(
            http_request("GET", "/healthz", headers="Connection: close\r\n"))
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        parser = RequestParser()
        (request,) = parser.feed(
            b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        assert not request.keep_alive

    def test_oversized_header_block_431(self):
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(HTTPParseError) as excinfo:
            parser.feed(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 200)
        assert excinfo.value.status == 431

    def test_oversized_declared_body_413(self):
        # The declared Content-Length alone must trip the guard — the
        # parser never buffers toward an impossible body.
        parser = RequestParser(max_body_bytes=1024)
        with pytest.raises(HTTPParseError) as excinfo:
            parser.feed(b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: 1000000000\r\n\r\n")
        assert excinfo.value.status == 413

    def test_bad_content_length_400(self):
        parser = RequestParser()
        with pytest.raises(HTTPParseError) as excinfo:
            parser.feed(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert excinfo.value.status == 400

    def test_chunked_transfer_encoding_501(self):
        parser = RequestParser()
        with pytest.raises(HTTPParseError) as excinfo:
            parser.feed(b"POST / HTTP/1.1\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501

    def test_malformed_request_line_400(self):
        parser = RequestParser()
        with pytest.raises(HTTPParseError) as excinfo:
            parser.feed(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_headers_case_insensitive_and_merged(self):
        headers = Headers()
        headers.add("X-Tenant", "a")
        headers.add("x-tenant", "b")
        assert headers["X-TENANT"] == "a, b"
        assert headers.get("missing") is None
        assert "x-Tenant" in headers

    def test_render_response_framing(self):
        raw = render_response(200, b'{"ok": true}',
                              {"X-Trace-Id": "t1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok": true}'
        text = head.decode()
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Length: 12" in text
        assert "Content-Type: application/json" in text
        assert "X-Trace-Id: t1" in text
        assert "Connection: close" not in text
        assert b"Connection: close" in render_response(400, b"{}", close=True)


# --------------------------------------------------------------------------- #
# Live server, raw sockets
# --------------------------------------------------------------------------- #
class TestEventLoopWire:
    @pytest.fixture
    def server(self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, max_connections=16, idle_timeout_s=30.0,
            request_read_timeout_s=5.0, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            yield server, client
            client.close()

    def connect(self, server) -> socket.socket:
        return socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10.0)

    def test_torn_request_over_socket(self, server, bundles):
        srv, _ = server
        x = np.random.default_rng(3).standard_normal((2, 1, 10, 10))
        raw = http_request("POST", "/predict", predict_body(x))
        with self.connect(srv) as sock:
            for i in range(0, len(raw), 7):        # 7-byte shreds
                sock.sendall(raw[i:i + 7])
                time.sleep(0.001)
            leftover = bytearray()
            status, _, body = read_response(sock, leftover)
        assert status == 200 and leftover == b""
        outputs = np.asarray(json.loads(body)["outputs"])
        np.testing.assert_array_equal(outputs,
                                      BundleEngine(bundles["v1"]).predict(x))

    def test_pipelined_requests_answered_in_order(self, server, bundles):
        srv, _ = server
        x = np.random.default_rng(4).standard_normal((1, 1, 10, 10))
        burst = (http_request("GET", "/healthz")
                 + http_request("POST", "/predict", predict_body(x))
                 + http_request("GET", "/models"))
        with self.connect(srv) as sock:
            sock.sendall(burst)
            buf = bytearray()
            s1, _, b1 = read_response(sock, buf)
            s2, _, b2 = read_response(sock, buf)
            s3, _, b3 = read_response(sock, buf)
        assert (s1, s2, s3) == (200, 200, 200)
        assert json.loads(b1)["status"] == "ok"
        np.testing.assert_array_equal(
            np.asarray(json.loads(b2)["outputs"]),
            BundleEngine(bundles["v1"]).predict(x))
        assert "models" in json.loads(b3)

    def test_keep_alive_connection_reused(self, server):
        srv, client = server
        before = srv.frontend_snapshot()["accepted_total"]
        x = np.random.default_rng(5).standard_normal((1, 1, 10, 10))
        for _ in range(8):
            client.predict(x, model="m")
        after = srv.frontend_snapshot()["accepted_total"]
        # All eight predicts ride the client's pooled keep-alive socket.
        assert after == before

    def test_threads_share_one_client_pool(self, server, bundles):
        """Threads sharing one client never share a socket mid-exchange and
        never lose one: every connection opened ends up parked."""
        srv, _ = server
        x = np.random.default_rng(10).standard_normal((1, 1, 10, 10))
        expected = BundleEngine(bundles["v1"]).predict(x)
        client = ServeClient(srv.url, transient_retries=0)
        before = srv.frontend_snapshot()["accepted_total"]
        failures = []

        def run():
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(
                        client.predict(x, model="m"), expected)
            except Exception as exc:           # noqa: BLE001 - asserted below
                failures.append(exc)

        threads = [threading.Thread(target=run) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        opened = srv.frontend_snapshot()["accepted_total"] - before
        assert 1 <= opened <= len(threads)
        assert sum(map(len, client._connections.idle.values())) == opened
        client.close()

    def test_connection_budget_rejects_with_shed_shape(self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, max_connections=2, cache_mb=0.0,
            mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        with server:
            holders = [self.connect(server) for _ in range(2)]
            try:
                # Prove both holders are live connections, not just sockets
                # in the backlog.
                for sock in holders:
                    sock.sendall(http_request("GET", "/healthz"))
                    status, _, _ = read_response(sock)
                    assert status == 200
                with self.connect(server) as rejected:
                    # The 503 arrives at accept time, before any request
                    # bytes are sent — rejection costs the server nothing.
                    status, headers, body = read_response(rejected)
                    assert status == 503
                    payload = json.loads(body)
                    assert payload["reason"] == "connection-budget"
                    assert payload["retry_after_s"] > 0
                    assert float(headers["retry-after"]) > 0
                    assert rejected.recv(1) == b""      # server closed it
                snap = server.frontend_snapshot()
                assert snap["rejected_over_budget"] >= 1
                # Releasing a slot readmits new connections.
                holders.pop().close()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    with self.connect(server) as retry:
                        retry.sendall(http_request("GET", "/healthz"))
                        status, _, _ = read_response(retry)
                    if status == 200:
                        break
                    time.sleep(0.05)
                assert status == 200
            finally:
                for sock in holders:
                    sock.close()

    def test_slowloris_answered_408_and_dropped(self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, request_read_timeout_s=0.5, cache_mb=0.0,
            mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        with server:
            with self.connect(server) as sock:
                sock.sendall(b"POST /predict HTTP/1.1\r\nHost: t\r\n")
                started = time.monotonic()
                status, _, body = read_response(sock)
                elapsed = time.monotonic() - started
                assert status == 408
                assert "error" in json.loads(body)
                assert sock.recv(1) == b""              # then closed
            assert elapsed < 5.0
            assert server.frontend_snapshot()["slowloris_closed"] == 1
            # A well-behaved request still gets served afterwards.
            x = np.random.default_rng(6).standard_normal((1, 1, 10, 10))
            with ServeClient(server.url) as client:
                assert client.predict(x, model="m").shape == (1, 6)

    def test_idle_keep_alive_connection_reaped(self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, idle_timeout_s=0.3, cache_mb=0.0,
            mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        with server:
            with self.connect(server) as sock:
                sock.sendall(http_request("GET", "/healthz"))
                status, _, _ = read_response(sock)
                assert status == 200
                # Now sit idle past the deadline: the server hangs up.
                assert sock.recv(1) == b""
            # The FIN races the counter increment by a hair; poll briefly.
            deadline = time.monotonic() + 2.0
            while (server.frontend_snapshot()["idle_closed"] < 1
                    and time.monotonic() < deadline):
                time.sleep(0.02)
            assert server.frontend_snapshot()["idle_closed"] >= 1

    def test_client_replays_on_a_reaped_keep_alive_socket(self, bundles):
        """The server reaps the client's parked socket between two predicts:
        the second is replayed on one fresh connection, free of the
        transient retry budget (here zero)."""
        server = PECANServer(config=ServeConfig.build(
            port=0, idle_timeout_s=0.3, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        x = np.random.default_rng(9).standard_normal((1, 1, 10, 10))
        expected = BundleEngine(bundles["v1"]).predict(x)
        with server, ServeClient(server.url, transient_retries=0) as client:
            np.testing.assert_array_equal(client.predict(x, model="m"),
                                          expected)
            deadline = time.monotonic() + 5.0
            while (server.frontend_snapshot()["idle_closed"] < 1
                    and time.monotonic() < deadline):
                time.sleep(0.02)
            snapshot = server.frontend_snapshot()
            assert snapshot["idle_closed"] == 1
            np.testing.assert_array_equal(client.predict(x, model="m"),
                                          expected)
            assert server.frontend_snapshot()["accepted_total"] \
                == snapshot["accepted_total"] + 1

    def test_keep_alive_survives_deploy_and_promote(self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            x = np.random.default_rng(7).standard_normal((2, 1, 10, 10))
            v1_out = client.predict(x, model="m")
            pinned = server.frontend_snapshot()["accepted_total"]
            # Lifecycle churn happens on separate one-shot admin
            # connections; the pooled predict connection stays up.
            client.deploy("m", str(bundles["v3"]))
            client.promote("m", version=2)
            v2_out = client.predict(x, model="m")
            assert not np.array_equal(v2_out, v1_out)
            np.testing.assert_array_equal(
                v2_out, BundleEngine(bundles["v3"]).predict(x))
            after = server.frontend_snapshot()["accepted_total"]
            # Only the two admin POSTs opened connections — the predicts
            # before and after the flip shared one keep-alive socket.
            assert after == pinned + 2
            client.close()


# --------------------------------------------------------------------------- #
# Chaos: disconnects + slowloris under concurrent load (CI chaos-smoke leg)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestConnectionChaos:
    def test_sheds_misbehaving_connections_without_stalling_load(
            self, bundles):
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8,
            request_read_timeout_s=0.5, max_connections=128, cache_mb=0.0,
            mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        engine = BundleEngine(bundles["v1"])
        rng = np.random.default_rng(8)
        with server:
            with ServeClient(server.url) as client:
                assert client.wait_ready(10.0)
            bodies, references = [], []
            for _ in range(4):
                x = rng.standard_normal((1, 1, 10, 10))
                bodies.append(predict_body(x, model="m"))
                references.append(engine.predict(x).tolist())
            swarm = SlowlorisSwarm("127.0.0.1", server.port, count=4,
                                   interval_s=0.1).start()
            assert isinstance(swarm, SlowlorisSwarm)
            try:
                result = run_concurrent_load(
                    "127.0.0.1", server.port, bodies,
                    connections=24, window_s=3.0,
                    references=references, disconnect_every=7)
            finally:
                deadline = time.monotonic() + 10.0
                while swarm.remaining() and time.monotonic() < deadline:
                    time.sleep(0.1)
                remaining = swarm.remaining()
                swarm.stop()
            summary = result.summary()
            # Healthy traffic flowed at full tilt, bitwise-correct, while
            # chaos clients aborted mid-response and the swarm trickled.
            assert summary["errors"] == 0, result.errors[:5]
            assert summary["mismatches"] == 0
            assert result.aborted > 0
            assert summary["requests"] > 200
            # Every slow client was shed, none of them stalled the loop.
            assert remaining == 0
            snap = server.frontend_snapshot()
            assert snap["slowloris_closed"] >= 4
