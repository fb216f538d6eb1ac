"""Tests for :mod:`repro.serve.qos` — the SLO-aware admission plane.

Unit level: QoS parsing, token buckets, the weighted-fair scheduler and the
brownout state machine (driven with explicit clocks, no sleeps).  Integration
level: deadline propagation through *both* front ends — a request whose
deadline expires in a queue is shed before any engine work, and the 408
carries queue-time diagnostics — plus brownout shedding over HTTP with
``Retry-After``, client backoff behaviour, and (marked ``slow``) the chaos
smoke: an overload burst against a pool with an injected ``slow`` fault must
engage the brownout controller, never fail an interactive request, and
recover to ``healthy`` once the burst ends.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (BrownoutController, FairScheduler, PECANServer,
                         PoolServer, QoSConfig, RequestQoS, ServeClient,
                         ServeConfig, ServeHTTPError, ShedError, TokenBucket,
                         TokenBucketTable, parse_qos)
from repro.serve.client import BulkScorer
from repro.serve.cache import splice_json
from repro.serve.qos import backoff_delay, qos_wire_fields
from repro.serve.scheduler import QueueFullError, RequestTimeout


@pytest.fixture(scope="module")
def qos_bundle(toy_bundle) -> Path:
    return toy_bundle(7)


def _post_json(url, payload, headers=None):
    """POST and return ``(status, body_dict, response_headers)`` — never
    raises on HTTP errors, so tests can assert on 4xx/5xx bodies."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return (response.status,
                    json.loads(response.read().decode("utf-8")),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8")), dict(exc.headers)


# --------------------------------------------------------------------------- #
# QoS parsing and propagation
# --------------------------------------------------------------------------- #
class TestParseQoS:
    def test_defaults(self):
        qos = parse_qos({}, {})
        assert (qos.priority, qos.tenant, qos.deadline) == \
            ("standard", "default", None)
        assert qos.remaining_ms() is None and not qos.expired()

    def test_body_fields(self):
        qos = parse_qos({"priority": "interactive", "tenant": "acme",
                         "deadline_ms": 250.0}, now=100.0)
        assert qos.priority == "interactive"
        assert qos.tenant == "acme"
        assert qos.deadline == pytest.approx(100.25)
        assert qos.remaining_ms(now=100.1) == pytest.approx(150.0)
        assert qos.expired(now=100.3)

    def test_headers_and_body_precedence(self):
        headers = {"X-Priority": "batch", "X-Tenant": "hdr",
                   "X-Deadline-Ms": "1000"}
        from_headers = parse_qos({}, headers, now=0.0)
        assert (from_headers.priority, from_headers.tenant) == ("batch", "hdr")
        assert from_headers.deadline == pytest.approx(1.0)
        # Body fields win: a router that merged QoS into the body stays
        # authoritative over stale client headers.
        merged = parse_qos({"priority": "interactive", "tenant": "body"},
                           headers, now=0.0)
        assert (merged.priority, merged.tenant) == ("interactive", "body")

    def test_priority_is_normalised_and_validated(self):
        assert parse_qos({"priority": " Interactive "}).priority == "interactive"
        with pytest.raises(ValueError, match="unknown priority"):
            parse_qos({"priority": "urgent"})

    def test_malformed_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            parse_qos({"deadline_ms": "soon"})
        with pytest.raises(ValueError, match="positive"):
            parse_qos({"deadline_ms": -5})

    def test_wire_fields_rewrite_deadline_to_remaining_budget(self):
        qos = RequestQoS(priority="batch", tenant="bulk", deadline=10.0)
        fields = qos_wire_fields(qos, now=9.9)
        assert fields["priority"] == "batch" and fields["tenant"] == "bulk"
        assert fields["deadline_ms"] == pytest.approx(100.0)
        # No deadline -> no deadline field goes on the wire.
        assert qos_wire_fields(RequestQoS()) == {"priority": "standard",
                                                 "tenant": "default"}

    def test_spliced_body_carries_the_routers_remaining_budget(self):
        # The client asked for 999 ms; the router admitted it and 900 ms are
        # gone by the hop.  The worker must see the remaining 100 ms, and
        # the router's tenant/priority, not the client's originals.
        body = (b'{"inputs": [1.5], "deadline_ms": 999.0, '
                b'"priority": "interactive", "tenant": "client"}\n')
        qos = RequestQoS(priority="batch", tenant="bulk", deadline=10.0)
        spliced = splice_json(body, qos_wire_fields(qos, now=9.9))
        seen = parse_qos(json.loads(spliced), now=0.0)
        assert (seen.priority, seen.tenant) == ("batch", "bulk")
        assert seen.deadline * 1e3 == pytest.approx(100.0)


# --------------------------------------------------------------------------- #
# Token buckets
# --------------------------------------------------------------------------- #
class TestTokenBuckets:
    def test_burst_then_refusal_with_retry_hint(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        base = time.monotonic()                    # the bucket's own epoch
        assert bucket.try_take(now=base) == (True, 0.0)
        assert bucket.try_take(now=base) == (True, 0.0)
        granted, retry = bucket.try_take(now=base)
        assert not granted and retry == pytest.approx(1.0, abs=0.01)
        # Tokens accrue with time; the hint was honest.
        assert bucket.try_take(now=base + 1.01) == (True, 0.0)

    def test_table_without_default_rate_admits_everyone(self):
        table = TokenBucketTable(default_rate=None)
        assert all(table.admit(f"t{i}") == (True, 0.0) for i in range(50))

    def test_table_overrides_and_overflow_bound(self):
        table = TokenBucketTable(default_rate=1000.0, default_burst=1.0,
                                 overrides={"vip": 2000.0}, max_tenants=4)
        for i in range(6):
            table.admit(f"tenant{i}")
        # Tracked buckets stay bounded; extra tenants share the overflow.
        assert len(table._buckets) <= 5        # 4 + the vip override slot
        granted, _ = table.admit("vip")
        assert granted


# --------------------------------------------------------------------------- #
# Weighted-fair, priority-ordered dispatch slots
# --------------------------------------------------------------------------- #
class TestFairScheduler:
    def test_immediate_grant_and_release(self):
        scheduler = FairScheduler(slots=2)
        assert scheduler.acquire(RequestQoS()) == 0.0
        assert scheduler.acquire(RequestQoS()) == 0.0
        snap = scheduler.snapshot()
        assert snap["active"] == 2 and snap["waiting"] == 0
        scheduler.release()
        scheduler.release()
        assert scheduler.snapshot()["active"] == 0

    def _grant_order(self, waiters, slots=1):
        """Occupy the single slot, enqueue ``waiters`` (tag, qos) in order,
        then release repeatedly and record the order grants happen in."""
        scheduler = FairScheduler(slots=slots)
        scheduler.acquire(RequestQoS())            # occupy
        order = []
        lock = threading.Lock()

        def hold(tag, qos):
            scheduler.acquire(qos)
            with lock:
                order.append(tag)
            scheduler.release()

        threads = []
        for tag, qos in waiters:
            thread = threading.Thread(target=hold, args=(tag, qos), daemon=True)
            thread.start()
            threads.append(thread)
            # Deterministic arrival order: wait until this waiter is queued.
            deadline = time.monotonic() + 5.0
            while scheduler.snapshot()["waiting"] < len(threads):
                assert time.monotonic() < deadline
                time.sleep(0.001)
        scheduler.release()                        # start the grant chain
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        return order

    def test_strict_priority_order(self):
        order = self._grant_order([
            ("batch", RequestQoS(priority="batch")),
            ("standard", RequestQoS(priority="standard")),
            ("interactive", RequestQoS(priority="interactive")),
        ])
        assert order == ["interactive", "standard", "batch"]

    def test_tenants_interleave_within_a_class(self):
        # Tenant a floods first; fair queueing alternates grants instead of
        # serving a's backlog FIFO.
        order = self._grant_order(
            [(f"a{i}", RequestQoS(tenant="a")) for i in range(3)]
            + [(f"b{i}", RequestQoS(tenant="b")) for i in range(3)])
        assert order[:4] == ["a0", "b0", "a1", "b1"]

    def test_tenant_weights_bias_the_share(self):
        scheduler = FairScheduler(slots=1, tenant_weights={"gold": 3.0})
        scheduler.acquire(RequestQoS())
        order = []
        lock = threading.Lock()

        def hold(tag, qos):
            scheduler.acquire(qos)
            with lock:
                order.append(tag)
            scheduler.release()

        threads = []
        waiters = ([(f"g{i}", RequestQoS(tenant="gold")) for i in range(3)]
                   + [(f"f{i}", RequestQoS(tenant="free")) for i in range(3)])
        for tag, qos in waiters:
            thread = threading.Thread(target=hold, args=(tag, qos), daemon=True)
            thread.start()
            threads.append(thread)
            deadline = time.monotonic() + 5.0
            while scheduler.snapshot()["waiting"] < len(threads):
                assert time.monotonic() < deadline
                time.sleep(0.001)
        scheduler.release()
        for thread in threads:
            thread.join(timeout=5.0)
        # weight 3 tenant gets 3 grants per free-tenant grant at the front.
        assert order.index("g2") < order.index("f1")

    def test_deadline_expires_in_queue_sheds_without_a_slot(self):
        scheduler = FairScheduler(slots=1)
        scheduler.acquire(RequestQoS())            # slot stays occupied
        qos = RequestQoS(priority="interactive",
                         deadline=time.monotonic() + 0.05)
        with pytest.raises(RequestTimeout) as excinfo:
            scheduler.acquire(qos)
        assert excinfo.value.stage == "router-queue"
        assert excinfo.value.queue_ms >= 40.0
        snap = scheduler.snapshot()
        # The doomed waiter neither holds a slot nor lingers in the queue.
        assert snap["active"] == 1 and snap["waiting"] == 0
        assert snap["shed_deadline"] == 1

    def test_waiting_room_bound(self):
        scheduler = FairScheduler(slots=1, max_waiting=1)
        scheduler.acquire(RequestQoS())
        blocker = threading.Thread(
            target=lambda: scheduler.acquire(RequestQoS()), daemon=True)
        blocker.start()
        deadline = time.monotonic() + 5.0
        while scheduler.snapshot()["waiting"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        with pytest.raises(QueueFullError, match="router queue is full"):
            scheduler.acquire(RequestQoS())
        scheduler.release()
        blocker.join(timeout=5.0)

    def test_batch_class_waiting_cap(self):
        scheduler = FairScheduler(slots=1, max_waiting=8,
                                  batch_waiting_fraction=0.25)
        scheduler.acquire(RequestQoS())
        held = []
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: scheduler.acquire(RequestQoS(priority="batch")),
                daemon=True)
            thread.start()
            held.append(thread)
        deadline = time.monotonic() + 5.0
        while scheduler.snapshot()["waiting"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        # Batch share (8 * 0.25 = 2) is exhausted; interactive still queues.
        with pytest.raises(QueueFullError, match="batch-class"):
            scheduler.acquire(RequestQoS(priority="batch"))
        ok = threading.Thread(
            target=lambda: scheduler.acquire(RequestQoS(priority="interactive")),
            daemon=True)
        ok.start()
        deadline = time.monotonic() + 5.0
        while scheduler.snapshot()["waiting"] < 3:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        for _ in range(3):
            scheduler.release()
        for thread in held + [ok]:
            thread.join(timeout=5.0)
            assert not thread.is_alive()


# --------------------------------------------------------------------------- #
# Brownout state machine (explicit clock, no sleeps)
# --------------------------------------------------------------------------- #
class TestBrownoutController:
    def _controller(self, signals, **kwargs):
        iterator = iter(signals)
        state = {"last": (0.0, None)}

        def signal_fn():
            try:
                state["last"] = next(iterator)
            except StopIteration:
                pass
            return state["last"]
        defaults = dict(queue_high=10.0, alpha=1.0, observe_interval_s=0.0,
                        min_dwell_s=1.0)
        defaults.update(kwargs)
        return BrownoutController(signal_fn, **defaults)

    def test_escalates_immediately_and_sheds_lowest_class_first(self):
        controller = self._controller([(12.0, None)])
        with pytest.raises(ShedError) as excinfo:
            controller.admit("batch", now=1.0)
        assert controller.state == "shed-batch"
        assert excinfo.value.status == 503
        assert excinfo.value.reason == "brownout:shed-batch"
        assert excinfo.value.retry_after_s > 0
        # Higher classes still flow in shed-batch.
        controller.admit("standard", now=1.0)
        controller.admit("interactive", now=1.0)
        assert controller.snapshot()["shed_by_class"]["batch"] == 1

    def test_state_ladder_tracks_load(self):
        controller = self._controller([(17.0, None), (35.0, None)])
        with pytest.raises(ShedError):
            controller.admit("batch", now=1.0)     # load 1.7 -> shed-standard
        assert controller.state == "shed-standard"
        with pytest.raises(ShedError, match="emergency"):
            controller.admit("interactive", now=2.0)   # load 3.5 -> emergency
        assert controller.state == "emergency"

    def test_latency_signal_counts_toward_load(self):
        controller = self._controller([(0.0, 500.0)], p99_slo_ms=100.0)
        with pytest.raises(ShedError):
            controller.admit("batch", now=1.0)     # p99 5x SLO -> overload
        assert controller.snapshot()["load"] >= 3.0

    def test_recovery_is_one_state_per_dwell(self):
        controller = self._controller([(40.0, None)] + [(0.0, None)] * 10,
                                      min_dwell_s=1.0)
        with pytest.raises(ShedError):
            controller.admit("interactive", now=1.0)   # -> emergency
        with pytest.raises(ShedError):
            # Within the dwell: no recovery yet, emergency sheds everything.
            controller.admit("interactive", now=1.5)
        assert controller.state == "emergency"
        controller.admit("interactive", now=2.6)
        assert controller.state == "shed-standard"
        controller.admit("standard", now=3.7)
        assert controller.state == "shed-batch"
        controller.admit("batch", now=4.8)
        assert controller.state == "healthy"
        transitions = controller.snapshot()["transitions"]
        assert [t["to"] for t in transitions] == \
            ["emergency", "shed-standard", "shed-batch", "healthy"]

    def test_reescalation_after_recovery_doubles_the_dwell(self):
        controller = self._controller(
            [(12.0, None), (0.0, None), (12.0, None), (0.0, None),
             (0.0, None)], min_dwell_s=1.0)
        with pytest.raises(ShedError):
            controller.admit("batch", now=1.0)     # -> shed-batch
        controller.admit("batch", now=2.1)         # dwell met -> healthy
        assert controller.state == "healthy"
        with pytest.raises(ShedError):
            # Re-escalation 0.1s after recovering: a failed recovery probe —
            # the next recovery dwell doubles.
            controller.admit("batch", now=2.2)
        controller.admit("interactive", now=3.3)   # 1.1s: damped, no recovery
        assert controller.state == "shed-batch"
        controller.admit("interactive", now=4.3)   # 2.1s >= doubled dwell
        assert controller.state == "healthy"
        transitions = controller.snapshot()["transitions"]
        assert [t["to"] for t in transitions] == \
            ["shed-batch", "healthy", "shed-batch", "healthy"]

    def test_flap_backoff_caps_and_calm_escalation_resets(self):
        signals = ([(12.0, None)] + [(0.0, None), (12.0, None)] * 6
                   + [(0.0, None)] * 2 + [(12.0, None), (0.0, None)])
        controller = self._controller(signals, min_dwell_s=1.0)
        now = 1.0
        with pytest.raises(ShedError):
            controller.admit("batch", now=now)     # -> shed-batch
        # Flap hard: every recovery is met by an immediate re-escalation.
        # The recovery dwell doubles 1 -> 2 -> 4 -> 8 and caps at 8x.
        dwell = 1.0
        for _ in range(6):
            now += dwell + 0.1
            controller.admit("interactive", now=now)
            assert controller.state == "healthy"
            now += 0.1
            with pytest.raises(ShedError):
                controller.admit("batch", now=now)
            dwell = min(dwell * 2.0, 8.0)
        controller.admit("interactive", now=now + 7.0)   # < capped dwell
        assert controller.state == "shed-batch"
        now += 8.1
        controller.admit("interactive", now=now)         # >= capped dwell
        assert controller.state == "healthy"
        # A calm escalation — long after the last recovery — resets the
        # backoff: the very next recovery only waits min_dwell_s again.
        now += 3.0
        with pytest.raises(ShedError):
            controller.admit("batch", now=now)
        now += 1.1
        controller.admit("interactive", now=now)
        assert controller.state == "healthy"
        assert controller.snapshot()["recover_dwell_s"] == 1.0

    def test_force_state_validates(self):
        controller = self._controller([(0.0, None)])
        controller.force_state("emergency")
        assert controller.state == "emergency"
        with pytest.raises(ValueError, match="unknown brownout state"):
            controller.force_state("panic")


class TestBackoff:
    def test_retry_after_is_the_floor_and_cap_holds(self):
        for attempt in range(8):
            delay = backoff_delay(attempt, retry_after_s=0.5, cap_s=2.0)
            assert 0.5 <= delay <= 2.0
        assert backoff_delay(0, None, base_s=0.1) <= 0.1

    def test_qos_config_factories(self):
        config = QoSConfig(slots_per_worker=2, tenant_rate=5.0,
                           queue_high=4.0, batch_class_samples=3)
        scheduler = config.make_fair_scheduler(workers=3)
        assert scheduler.slots == 6
        table = config.make_buckets()
        assert table.admit("anyone")[0]
        brownout = config.make_brownout(lambda: (0.0, None))
        assert brownout.state == "healthy"


# --------------------------------------------------------------------------- #
# Client backoff against a scripted endpoint
# --------------------------------------------------------------------------- #
class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from ``server.script`` (a list of (status, headers) tuples),
    then 200s; records every request path."""

    def _serve(self):
        script = self.server.script
        status, headers = script.pop(0) if script else (200, {})
        self.server.hits.append((self.command, self.path))
        body = json.dumps({"ok": True, "status": "ok",
                           "outputs": [[0.0]], "classes": [0],
                           "error": "scripted refusal"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, format, *args):        # noqa: A002 - stdlib signature
        pass


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.hits = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class TestClientBackoff:
    def _client(self, server, **kwargs):
        kwargs.setdefault("backoff_cap_s", 0.05)
        return ServeClient(f"http://127.0.0.1:{server.server_port}", **kwargs)

    def test_retries_idempotent_predict_through_503(self, scripted_server):
        scripted_server.script = [(503, {"Retry-After": "0.02"}),
                                  (429, {"Retry-After": "0.02"})]
        client = self._client(scripted_server, backoff_retries=2)
        outputs = client.predict(np.zeros((1, 2)))
        assert outputs.shape == (1, 1)
        assert len(scripted_server.hits) == 3      # 503, 429, then success

    def test_exhausted_backoff_surfaces_retry_after(self, scripted_server):
        scripted_server.script = [(503, {"Retry-After": "0.75"})] * 5
        client = self._client(scripted_server, backoff_retries=1)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(np.zeros((1, 2)))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s == pytest.approx(0.75)
        assert len(scripted_server.hits) == 2

    def test_non_idempotent_admin_verbs_are_never_retried(self, scripted_server):
        scripted_server.script = [(503, {"Retry-After": "0.01"})]
        client = self._client(scripted_server, backoff_retries=3)
        with pytest.raises(ServeHTTPError):
            client.deploy("toy", "/tmp/toy.npz")
        assert len(scripted_server.hits) == 1      # one attempt, no retry

    def test_bulk_scorer_rides_out_refusals(self, scripted_server):
        scripted_server.script = [(503, {"Retry-After": "0.01"}),
                                  (200, {}), (429, {}), (200, {})]
        # backoff_retries=0: refusals surface to the scorer, whose own
        # backoff loop must absorb them.
        scorer = BulkScorer(self._client(scripted_server, backoff_retries=0),
                            chunk_size=1)
        logits = scorer.score(np.zeros((2, 2)))
        assert logits.shape == (2, 1)
        assert scorer.chunks_total == 2
        assert scorer.retries_total == 2

    @staticmethod
    def _score(server, *flags):
        from repro.cli import main

        return main(["score", "--url", f"http://127.0.0.1:{server.server_port}",
                     "--dataset", "random", "--input-shape", "1,2",
                     "--chunk", "1", *flags])

    def test_score_command_counts_every_request(self, scripted_server,
                                                capsys):
        scripted_server.script = [(503, {"Retry-After": "0.01"}), (200, {}),
                                  (503, {}), (429, {}), (200, {})]
        assert self._score(scripted_server, "--num_samples", "3") == 0
        out = capsys.readouterr().out
        chunks, retries = map(int, re.search(
            r"over (\d+) chunks; (\d+) chunk retries", out).groups())
        assert (chunks, retries) == (3, 3)
        # Every /predict the server saw is a chunk or a reported retry.
        assert len(scripted_server.hits) == chunks + retries

    def test_score_command_max_chunk_retries_bounds_requests(
            self, scripted_server, capsys):
        scripted_server.script = [(503, {"Retry-After": "0.01"})] * 20
        assert self._score(scripted_server, "--num_samples", "1",
                           "--max_chunk_retries", "2") == 1
        assert "score failed: HTTP 503" in capsys.readouterr().out
        assert len(scripted_server.hits) == 3      # 1 attempt + 2 retries


# --------------------------------------------------------------------------- #
# Deadline propagation + brownout through the single-process front end
# --------------------------------------------------------------------------- #
class TestServerQoS:
    @pytest.fixture
    def server(self, qos_bundle):
        config = ServeConfig.build(port=0, max_batch_size=8,
                                   cache_mb=0.0, mmap=False)
        config.qos = QoSConfig(min_dwell_s=0.1)
        server = PECANServer(config=config)
        server.add_bundle(qos_bundle, name="toy", preload=True)
        with server:
            client = ServeClient(server.url, backoff_retries=0)
            assert client.wait_ready(10.0)
            yield server, client

    def test_response_carries_qos_fields(self, server):
        pecan, client = server
        response = client.predict_response(np.zeros((1, 1, 10, 10)),
                                           priority="interactive",
                                           tenant="acme")
        assert response["priority"] == "interactive"
        assert response["tenant"] == "acme"
        qos_metrics = client.metrics()["server"]["qos"]
        assert "interactive" in qos_metrics["latency_by_class"]
        assert "acme" in qos_metrics["latency_by_tenant"]

    def test_invalid_priority_is_400(self, server):
        _, client = server
        status, body, _ = _post_json(
            f"{client.base_url}/predict",
            {"inputs": np.zeros((1, 1, 10, 10)).tolist(), "priority": "vip"})
        assert status == 400 and "priority" in body["error"]

    def test_deadline_expiring_in_batch_queue_sheds_before_engine(self, server):
        pecan, client = server
        pecan.injected_latency_s = 0.3
        try:
            engine_batches_before = pecan.metrics.batches_total
            blocker = threading.Thread(
                target=lambda: client.predict(np.zeros((1, 1, 10, 10))),
                daemon=True)
            blocker.start()
            time.sleep(0.1)                    # blocker owns the batch window
            status, body, _ = _post_json(
                f"{client.base_url}/predict",
                {"inputs": np.zeros((1, 1, 10, 10)).tolist(),
                 "priority": "interactive", "deadline_ms": 50.0})
            blocker.join(timeout=10.0)
        finally:
            pecan.injected_latency_s = 0.0
        assert status == 408
        # Queue-time diagnostics on the 408: where it waited, for how long.
        assert body["stage"] in ("batch-queue", "doomed")
        assert body["queue_ms"] >= 40.0
        # Exactly the blocker's batch ran; the doomed request never did.
        assert pecan.metrics.batches_total == engine_batches_before + 1
        assert pecan.metrics.timeouts_by_class.get("interactive") == 1

    def test_brownout_sheds_batch_with_retry_after(self, server):
        pecan, client = server
        pecan.brownout.force_state("shed-batch")
        try:
            status, body, headers = _post_json(
                f"{client.base_url}/predict",
                {"inputs": np.zeros((1, 1, 10, 10)).tolist(),
                 "priority": "batch"})
            assert status == 503
            assert body["reason"] == "brownout:shed-batch"
            assert float(headers["Retry-After"]) > 0
            # Interactive traffic still flows in shed-batch.
            response = client.predict_response(np.zeros((1, 1, 10, 10)),
                                               priority="interactive")
            assert response["priority"] == "interactive"
        finally:
            pecan.brownout.force_state("healthy")
        shed = client.metrics()["server"]["qos"]["shed_by_class"]
        assert shed["batch"]["brownout:shed-batch"] >= 1

    def test_metrics_expose_brownout_state(self, server):
        _, client = server
        brownout = client.metrics()["brownout"]
        assert brownout["state"] == "healthy"
        assert set(brownout) >= {"load", "queue_ewma", "shed_by_class",
                                 "transitions"}

    def test_in_process_deadline_has_diagnostics(self, server):
        pecan, _ = server
        pecan.injected_latency_s = 0.3
        try:
            blocker = threading.Thread(
                target=lambda: pecan.predict(np.zeros((1, 1, 10, 10))),
                daemon=True)
            blocker.start()
            time.sleep(0.1)
            with pytest.raises(RequestTimeout) as excinfo:
                pecan.predict(np.zeros((1, 1, 10, 10)),
                              qos=RequestQoS(priority="interactive",
                                             deadline=time.monotonic() + 0.05))
            blocker.join(timeout=10.0)
        finally:
            pecan.injected_latency_s = 0.0
        assert excinfo.value.stage in ("batch-queue", "doomed")
        assert excinfo.value.queue_ms is not None


# --------------------------------------------------------------------------- #
# The router: fairness slots, rate limits, deadline shed before dispatch
# --------------------------------------------------------------------------- #
def _wait_for_injected_latency(pool, x, at_least_s, timeout_s=10.0):
    """The ``slow`` fault lands over the async control pipe; poll until a
    request actually observes it and return that request's latency."""
    deadline = time.monotonic() + timeout_s
    while True:
        started = time.monotonic()
        pool.predict(x, model="toy")
        elapsed = time.monotonic() - started
        if elapsed >= at_least_s:
            return elapsed
        assert time.monotonic() < deadline, "slow fault never took effect"
        time.sleep(0.02)


@pytest.fixture(scope="module")
def qos_pool(qos_bundle):
    config = ServeConfig.build(port=0, workers=1, heartbeat_interval_s=0.1,
                               cache_mb=0.0)
    config.qos = QoSConfig(slots_per_worker=1, min_dwell_s=0.1,
                           tenant_burst=1.0, tenant_rates={"limited": 0.5})
    pool = PoolServer(config=config)
    pool.add_bundle(qos_bundle, name="toy")
    pool.start()
    assert pool.wait_ready(120.0), "pool worker never became ready"
    yield pool
    pool.stop(drain=True)


class TestPoolQoS:
    def test_router_metrics_expose_the_qos_plane(self, qos_pool):
        client = ServeClient(qos_pool.url)
        client.predict(np.zeros((1, 1, 10, 10)), model="toy",
                       priority="interactive", tenant="acme")
        qos_metrics = client.metrics()["qos"]
        assert qos_metrics["brownout"]["state"] == "healthy"
        assert qos_metrics["fair_queue"]["slots"] == 1
        assert qos_metrics["fair_queue"]["granted"] >= 1
        assert "rate_limits" in qos_metrics

    def test_tenant_rate_limit_answers_429_with_retry_after(self, qos_pool):
        x = np.zeros((1, 1, 10, 10))
        with pytest.raises(ServeHTTPError) as excinfo:
            for _ in range(4):                 # burst 1.0 at 0.5 rps
                qos_pool.predict(x, model="toy", tenant="limited")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s > 0
        # Unlimited tenants are unaffected.
        qos_pool.predict(x, model="toy", tenant="other")
        shed = qos_pool.metrics.shed_by_class.get("standard", {})
        assert shed.get("rate-limit", 0) >= 1

    def test_deadline_expiring_in_router_queue_sheds_before_dispatch(
            self, qos_pool):
        worker_id = qos_pool.ready_workers()[0].id
        qos_pool.inject_fault(worker_id, kind="slow", seconds=0.4)
        x = np.zeros((1, 1, 10, 10))
        try:
            _wait_for_injected_latency(qos_pool, x, at_least_s=0.3)
            dispatched_before = qos_pool.describe_pool()["workers"][0]["dispatched"]
            blocker = threading.Thread(
                target=lambda: qos_pool.predict(x, model="toy"), daemon=True)
            blocker.start()
            time.sleep(0.1)                    # blocker owns the single slot
            status, body, _ = _post_json(
                f"{qos_pool.url}/predict",
                {"inputs": x.tolist(), "model": "toy",
                 "priority": "interactive", "deadline_ms": 100.0})
            blocker.join(timeout=10.0)
        finally:
            qos_pool.inject_fault(worker_id, kind="slow", seconds=0.0)
        assert status == 408
        assert body["stage"] == "router-queue"
        assert body["queue_ms"] >= 80.0
        # Shed at the router: the worker never saw the doomed request.
        dispatched_after = qos_pool.describe_pool()["workers"][0]["dispatched"]
        assert dispatched_after == dispatched_before + 1
        assert qos_pool.fair_scheduler.snapshot()["shed_deadline"] >= 1

    def test_router_brownout_sheds_before_proxying(self, qos_pool):
        qos_pool.brownout.force_state("emergency")
        try:
            status, body, headers = _post_json(
                f"{qos_pool.url}/predict",
                {"inputs": np.zeros((1, 1, 10, 10)).tolist(), "model": "toy",
                 "priority": "interactive"})
            assert status == 503
            assert body["reason"] == "brownout:emergency"
            assert float(headers["Retry-After"]) >= 1.0
        finally:
            qos_pool.brownout.force_state("healthy")
        client = ServeClient(qos_pool.url)
        assert client.predict(np.zeros((1, 1, 10, 10)), model="toy").shape \
            == (1, 6)

    def test_slow_fault_injects_and_clears_latency(self, qos_pool):
        worker_id = qos_pool.ready_workers()[0].id
        x = np.zeros((1, 1, 10, 10))
        qos_pool.predict(x, model="toy")           # warm
        qos_pool.inject_fault(worker_id, kind="slow", seconds=0.25)
        try:
            slowed = _wait_for_injected_latency(qos_pool, x, at_least_s=0.2)
        finally:
            qos_pool.inject_fault(worker_id, kind="slow", seconds=0.0)
        # The clear lands asynchronously too; latency must drop back.
        deadline = time.monotonic() + 5.0
        while True:
            started = time.monotonic()
            qos_pool.predict(x, model="toy")
            recovered = time.monotonic() - started
            if recovered < 0.2 or time.monotonic() > deadline:
                break
        assert slowed >= 0.2
        assert recovered < 0.2


# --------------------------------------------------------------------------- #
# Chaos smoke (CI job): burst + slow fault -> brownout -> recovery
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestChaosBrownout:
    def test_overload_brownout_engages_and_recovers(self, qos_bundle):
        config = ServeConfig.build(port=0, workers=2,
                                   heartbeat_interval_s=0.1,
                                   cache_mb=0.0)
        config.qos = QoSConfig(slots_per_worker=1, queue_high=2.0, alpha=0.7,
                               min_dwell_s=0.2, recover_at=0.5,
                               emergency_at=1e9)
        pool = PoolServer(config=config)
        pool.add_bundle(qos_bundle, name="toy")
        pool.start()
        assert pool.wait_ready(120.0)
        x = np.zeros((1, 1, 10, 10)).tolist()
        stop = threading.Event()
        interactive_errors = []
        interactive_ok = [0]
        states_seen = set()
        shed_statuses = []

        def bulk_client(priority):
            while not stop.is_set():
                status, body, _ = _post_json(f"{pool.url}/predict",
                                             {"inputs": x, "model": "toy",
                                              "priority": priority,
                                              "tenant": "bulk"})
                if status != 200:
                    shed_statuses.append((status, body.get("reason", "")))
                    time.sleep(0.01)

        try:
            for worker in pool.ready_workers():
                pool.inject_fault(worker.id, kind="slow", seconds=0.1)
            threads = [threading.Thread(target=bulk_client,
                                        args=("batch" if i % 2 else "standard",),
                                        daemon=True)
                       for i in range(8)]
            for thread in threads:
                thread.start()
            burst_deadline = time.monotonic() + 4.0
            while time.monotonic() < burst_deadline:
                status, body, _ = _post_json(
                    f"{pool.url}/predict",
                    {"inputs": x, "model": "toy", "priority": "interactive",
                     "tenant": "online"})
                if status == 200:
                    interactive_ok[0] += 1
                else:
                    interactive_errors.append((status, body))
                states_seen.add(
                    pool.metrics_snapshot()["qos"]["brownout"]["state"])
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            for worker in pool.ready_workers():
                pool.inject_fault(worker.id, kind="slow", seconds=0.0)
            # The acceptance invariants of the brownout design:
            # 1. overload engaged the controller — either a non-healthy state
            #    was sampled from /metrics mid-burst, or bulk traffic carries
            #    brownout shed responses (the states can flap faster than the
            #    sampling cadence).
            engaged = bool(states_seen - {"healthy"}) or any(
                reason.startswith("brownout:") for _, reason in shed_statuses)
            assert engaged, (f"brownout never engaged "
                             f"(states: {states_seen}, sheds: "
                             f"{shed_statuses[:5]})")
            # 2. only lower classes were shed — zero interactive errors;
            assert interactive_errors == []
            assert interactive_ok[0] > 0
            # 3. the controller recovers to healthy once the burst ends.
            recovery_deadline = time.monotonic() + 20.0
            state = None
            while time.monotonic() < recovery_deadline:
                state = pool.metrics_snapshot()["qos"]["brownout"]["state"]
                if state == "healthy":
                    break
                time.sleep(0.1)
            assert state == "healthy", f"stuck in {state} after the burst"
            transitions = pool.brownout.snapshot()["transitions"]
            assert transitions, "no brownout transitions were recorded"
        finally:
            stop.set()
            pool.stop(drain=False)
