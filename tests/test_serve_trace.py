"""PR 7 — distributed tracing + runtime verification (`repro.serve.trace`).

Covers, per ISSUE.md:

* unit behaviour of the tracing plane: Lamport clocks, span rings, JSONL
  export with torn-tail tolerance, context parsing precedence, causal
  ordering, the offline summaries behind ``repro-pecan trace``;
* the :class:`InvariantMonitor` checks (finite logits, shape drift,
  retry-stable argmax, canary parity, causal order) and their sampling;
* single-server end-to-end: trace ids echoed on every reply, the
  ``/trace`` endpoint, per-stage latency in ``/metrics``;
* the pool end-to-end acceptance scenario: causal reconstruction of
  router → worker → engine from the JSONL export, trace continuity
  through crash/failover, shed (429/408/503) replies carrying ids,
  the ``slow`` fault visible as a long ``batch.infer`` span, and a
  corrupted canary tripping the PR5 rollout gate into rollback;
* client propagation (generated ids, ``X-Attempt`` retry tags);
* the ``repro-pecan trace`` CLI verb;
* a slow-marked chaos leg for CI: tracing under brownout overload, with
  every shed reply owning a terminal non-ok span in the JSONL export.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan import PQLayerConfig, convert_to_pecan
from repro.serve import (InvariantMonitor, PECANServer, PoolServer, QoSConfig,
                         ServeClient, ServeConfig, check_causal_order)
from repro.serve.trace import (ATTEMPT_HEADER, LAMPORT_HEADER,
                               PARENT_SPAN_HEADER, TRACE_HEADER, LamportClock,
                               Tracer, causal_sort, group_by_trace,
                               new_trace_id, parse_trace_context,
                               read_trace_dir, slowest_traces, summarize_spans)


def small_model(rng):
    cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
    model = Sequential(
        Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * 4 * 4, 6, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


@pytest.fixture(scope="module")
def trace_bundle(tmp_path_factory) -> Path:
    rng = np.random.default_rng(11)
    return export_deployment_bundle(
        small_model(rng), tmp_path_factory.mktemp("trace") / "toy.npz",
        input_shape=(1, 10, 10))


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


def _span(tracer, name, trace_id, parent=None, status="ok", **attrs):
    span = tracer.start_span(name, trace_id, parent_id=parent, attrs=attrs)
    tracer.finish_span(span, status=status)
    return span


# --------------------------------------------------------------------------- #
# Lamport clocks and context parsing
# --------------------------------------------------------------------------- #
class TestLamportClock:
    def test_ticks_are_strictly_increasing(self):
        clock = LamportClock()
        values = [clock.tick() for _ in range(5)]
        assert values == sorted(values) and len(set(values)) == 5

    def test_observe_merges_remote_clock(self):
        clock = LamportClock()
        clock.tick()
        assert clock.observe(100) == 101       # max(local, remote) + 1
        assert clock.observe(5) == 102         # a stale remote never rewinds
        assert clock.observe(None) == 103      # None observes like a tick

    def test_cross_process_causality(self):
        """The property everything rests on: receiver events after an
        observe are numbered strictly after the sender's send event."""
        sender, receiver = LamportClock(), LamportClock()
        for _ in range(7):
            sender.tick()
        sent_at = sender.tick()
        received_at = receiver.observe(sent_at)
        assert received_at > sent_at


class TestParseTraceContext:
    def test_headers_only(self):
        ctx = parse_trace_context(None, {TRACE_HEADER: "abc",
                                         PARENT_SPAN_HEADER: "p1",
                                         ATTEMPT_HEADER: "2",
                                         LAMPORT_HEADER: "17"})
        assert (ctx.trace_id, ctx.parent_span, ctx.attempt, ctx.lamport) == \
            ("abc", "p1", 2, 17)
        assert ctx.supplied

    def test_body_field_wins_over_header(self):
        ctx = parse_trace_context({"trace_id": "body-id"},
                                  {TRACE_HEADER: "header-id"})
        assert ctx.trace_id == "body-id"

    def test_malformed_values_never_fail_a_request(self):
        ctx = parse_trace_context({}, {ATTEMPT_HEADER: "soon",
                                       LAMPORT_HEADER: "not-a-clock"})
        assert ctx.attempt == 0 and ctx.lamport is None
        assert not ctx.supplied

    def test_ensure_trace_id_generates_once(self):
        ctx = parse_trace_context(None, None)
        generated = ctx.ensure_trace_id()
        assert len(generated) == 32
        assert ctx.ensure_trace_id() == generated
        assert len(new_trace_id()) == 32 and new_trace_id() != generated


# --------------------------------------------------------------------------- #
# Tracer: ring, export, introspection
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_ring_evicts_oldest_and_counts(self):
        tracer = Tracer("t", ring_size=4)
        for index in range(7):
            _span(tracer, f"op{index}", "trace")
        snap = tracer.snapshot()
        assert snap["buffered"] == 4 and snap["ring_evictions"] == 3
        assert snap["spans_started"] == snap["spans_finished"] == 7
        names = [s["name"] for s in tracer.find("trace")]
        assert names == ["op3", "op4", "op5", "op6"]

    def test_disabled_tracer_is_a_no_op(self):
        tracer = Tracer("t", enabled=False)
        assert tracer.start_span("op", "trace") is None
        assert tracer.finish_span(None) is None
        with tracer.span("op", "trace") as span:
            assert span is None
        assert tracer.snapshot()["spans_finished"] == 0

    def test_finish_is_idempotent_keeping_first_verdict(self):
        tracer = Tracer("t")
        span = tracer.start_span("op", "trace")
        tracer.finish_span(span, status="shed")
        tracer.finish_span(span, status="ok")
        assert span.status == "shed"
        assert tracer.snapshot()["spans_finished"] == 1

    def test_span_context_manager_marks_errors(self):
        tracer = Tracer("t")
        with pytest.raises(RuntimeError):
            with tracer.span("op", "trace"):
                raise RuntimeError("boom")
        assert tracer.find("trace")[0]["status"] == "error"

    def test_jsonl_roundtrip_and_torn_tail(self, tmp_path):
        tracer = Tracer("unit", trace_dir=str(tmp_path))
        _span(tracer, "root", "trace-a")
        _span(tracer, "child", "trace-a")
        _span(tracer, "root", "trace-b", status="shed")
        tracer.close()
        path = tmp_path / f"trace-unit-{os.getpid()}.jsonl"
        assert path.exists()
        # A worker killed mid-write leaves a torn final line: tolerated.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"trace_id": "torn", "name": "half')
        spans = read_trace_dir(str(tmp_path))
        assert [s["name"] for s in spans] == ["root", "child", "root"]
        assert {s["service"] for s in spans} == {"unit"}
        # But a malformed line in the middle means a broken exporter: raise.
        path.write_text('{"broken"\n' + "\n".join(
            json.dumps({"trace_id": "x"}) for _ in range(3)) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_trace_dir(str(tmp_path))

    def test_read_trace_dir_missing_directory(self, tmp_path):
        assert read_trace_dir(str(tmp_path / "nope")) == []

    def test_recent_traces_summarizes_distinct_ids(self):
        tracer = Tracer("t")
        root = tracer.start_span("router.predict", "trace-1")
        tracer.finish_span(root)
        _span(tracer, "dispatch", "trace-2", parent="x", status="failover")
        recent = tracer.recent_traces()
        assert [entry["trace_id"] for entry in recent] == ["trace-2", "trace-1"]
        assert recent[0]["status"] == "failover"
        assert recent[1]["root"] == "router.predict"


class TestCausalAnalysis:
    def _make_trace(self):
        """A synthetic two-service trace built with merged clocks."""
        router, worker = Tracer("router"), Tracer("worker")
        root = router.start_span("router.predict", "t1")
        dispatch = router.start_span("router.dispatch", "t1",
                                     parent_id=root.span_id)
        worker.observe_remote(router.clock.tick())          # the hop
        served = worker.start_span("server.predict", "t1",
                                   parent_id=dispatch.span_id)
        worker.finish_span(served)
        router.observe_remote(worker.clock.value)           # the reply
        router.finish_span(dispatch)
        router.finish_span(root)
        return ([s.to_dict() for s in (root, dispatch)] + [served.to_dict()])

    def test_causal_sort_orders_parents_before_children(self):
        spans = self._make_trace()
        ordered = [s["name"] for s in causal_sort(list(reversed(spans)))]
        assert ordered == ["router.predict", "router.dispatch", "server.predict"]

    def test_merged_clocks_have_no_anomalies(self):
        assert check_causal_order(self._make_trace()) == []

    def test_unmerged_clocks_are_flagged(self):
        spans = self._make_trace()
        spans[-1]["lamport"]["start"] = 1      # child "before" its parent
        anomalies = check_causal_order(spans)
        assert len(anomalies) == 1
        assert anomalies[0]["span"] == "server.predict"
        assert anomalies[0]["parent"] == "router.dispatch"

    def test_group_summarize_and_slowest(self):
        tracer = Tracer("t")
        for trace_id, delay in (("fast", 0.0), ("slow", 0.05)):
            span = tracer.start_span("router.predict", trace_id)
            time.sleep(delay)
            tracer.finish_span(span)
        spans = [s.to_dict() for s in tracer._ring]
        assert set(group_by_trace(spans)) == {"fast", "slow"}
        summary = summarize_spans(spans)
        assert summary["router.predict"]["count"] == 2
        assert summary["router.predict"]["max_ms"] >= 40.0
        ranked = slowest_traces(spans, limit=1)
        assert ranked[0]["trace_id"] == "slow"
        assert ranked[0]["root"] == "router.predict"


# --------------------------------------------------------------------------- #
# InvariantMonitor
# --------------------------------------------------------------------------- #
class TestInvariantMonitor:
    def test_sampling_rate(self):
        monitor = InvariantMonitor(4)
        decisions = [monitor.sample() for _ in range(8)]
        assert decisions == [True, False, False, False] * 2
        assert all(InvariantMonitor(1).sample() for _ in range(3))
        disabled = InvariantMonitor(0)
        assert not disabled.enabled and not disabled.sample()

    def test_finite_logits(self):
        monitor = InvariantMonitor(1)
        assert monitor.check_outputs("m", [[0.1, 0.9]]) == []
        violations = monitor.check_outputs("m", [[np.nan, 0.9]], trace_id="t")
        assert [v.invariant for v in violations] == ["logits_finite"]
        assert violations[0].model == "m"
        snap = monitor.snapshot()
        assert snap["violations"] == 1
        assert snap["by_invariant"]["logits_finite"] == 1
        assert snap["recent"][-1]["trace_id"] == "t"

    def test_shape_drift(self):
        monitor = InvariantMonitor(1)
        assert monitor.check_outputs("m", np.zeros((2, 6))) == []
        assert monitor.check_outputs("m", np.zeros((5, 6))) == []   # batch free
        violations = monitor.check_outputs("m", np.zeros((2, 7)))
        assert [v.invariant for v in violations] == ["shape_stable"]
        # Per-model signatures are independent.
        assert monitor.check_outputs("other", np.zeros((2, 7))) == []

    def test_non_numeric_outputs(self):
        monitor = InvariantMonitor(1)
        violations = monitor.check_outputs("m", [["a", "b"]])
        assert [v.invariant for v in violations] == ["shape_stable"]

    def test_argmax_stable_across_retries(self):
        monitor = InvariantMonitor(1)
        first = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert monitor.check_outputs("m", first, trace_id="t", attempt=0) == []
        # Identical retry (deterministic engine): clean.
        assert monitor.check_outputs("m", first, trace_id="t", attempt=1) == []
        violations = monitor.check_outputs("m", first[:, ::-1], trace_id="t",
                                           attempt=2)
        assert [v.invariant for v in violations] == ["argmax_stable"]
        # A *different* trace with different argmax is not a violation.
        assert monitor.check_outputs("m", first[:, ::-1], trace_id="u") == []

    def test_fingerprint_table_is_bounded(self):
        monitor = InvariantMonitor(1, max_fingerprints=8)
        for index in range(50):
            monitor.check_outputs("m", [[0.0, 1.0]], trace_id=f"t{index}")
        assert len(monitor._fingerprints) == 8

    @pytest.mark.parametrize("invariant", ["parity_audit", "canary_parity",
                                           "cache_parity"])
    def test_verdict(self, invariant):
        """Every re-run-and-compare verdict goes through one call: a match
        is a check, a mismatch is a check and a violation that reaches the
        callback (the rollout gate's feed)."""
        seen = []
        monitor = InvariantMonitor(1, on_violation=seen.append)
        assert monitor.verdict(invariant, True, model="m@v2") is None
        violation = monitor.verdict(invariant, False, model="m@v2",
                                    trace_id="t1")
        assert violation is not None and violation.invariant == invariant
        assert [v.invariant for v in seen] == [invariant]
        snap = monitor.snapshot()
        assert snap["checks"] == 2
        assert snap["by_invariant"][invariant] == 1
        assert snap["recent"][-1]["trace_id"] == "t1"

    def test_callback_failure_never_breaks_traffic(self):
        def explode(violation):
            raise RuntimeError("observer bug")
        monitor = InvariantMonitor(1, on_violation=explode)
        assert monitor.verdict("canary_parity", False,
                               model="m")["invariant"] == "canary_parity"

    def test_check_trace_and_violation_spans(self):
        tracer = Tracer("t")
        monitor = InvariantMonitor(1, tracer=tracer)
        spans = [{"span_id": "a", "name": "parent", "lamport": {"start": 5}},
                 {"span_id": "b", "name": "child", "parent_id": "a",
                  "lamport": {"start": 5}}]
        violations = monitor.check_trace(spans, trace_id="t1")
        assert [v.invariant for v in violations] == ["causal_order"]
        # Violations are exported as zero-duration spans too.
        events = tracer.find("t1")
        assert [e["name"] for e in events] == ["invariant.violation"]
        assert events[0]["status"] == "violation"
        assert events[0]["attrs"]["invariant"] == "causal_order"


# --------------------------------------------------------------------------- #
# Single server end to end
# --------------------------------------------------------------------------- #
class TestServerTracing:
    @pytest.fixture(scope="class")
    def server(self, trace_bundle, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("server-traces")
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8,
            trace_dir=str(trace_dir), invariant_every=1, cache_mb=0.0,
            mmap=False))
        server.add_bundle(trace_bundle, name="toy", preload=True)
        with server:
            client = ServeClient(server.url, backoff_retries=0)
            assert client.wait_ready(10.0)
            yield server, client, trace_dir

    def test_response_carries_generated_trace_id(self, server):
        _, client, _ = server
        response = client.predict_response(np.zeros((1, 1, 10, 10)))
        assert response["trace_id"] == client.last_trace_id
        assert len(response["trace_id"]) == 32

    def test_supplied_trace_id_is_honoured(self, server):
        pecan, client, _ = server
        for supply in ("header", "body"):
            trace_id = new_trace_id()
            payload = {"inputs": np.zeros((1, 1, 10, 10)).tolist()}
            headers = {}
            if supply == "header":
                headers[TRACE_HEADER] = trace_id
            else:
                payload["trace_id"] = trace_id
            status, body, reply_headers = _post_json(
                f"{client.base_url}/predict", payload, headers)
            assert status == 200
            assert body["trace_id"] == trace_id
            assert reply_headers[TRACE_HEADER] == trace_id

    def test_trace_endpoint_exposes_span_tree(self, server):
        _, client, _ = server
        response = client.predict_response(np.zeros((2, 1, 10, 10)))
        trace = client.trace(response["trace_id"])
        names = [s["name"] for s in trace["spans"]]
        for needed in ("server.predict", "batch.queue", "batch.infer",
                       "engine.predict"):
            assert needed in names, names
        assert all(s["trace_id"] == response["trace_id"]
                   for s in trace["spans"])
        assert check_causal_order(trace["spans"]) == []
        # The root records the request's verdict and queue diagnostics; the
        # infer span records batch membership.
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["server.predict"]["status"] == "ok"
        assert by_name["server.predict"]["attrs"]["queue_ms"] >= 0.0
        assert by_name["batch.infer"]["attrs"]["batch_samples"] >= 2
        # Bare /trace lists recent traces plus tracer counters.
        listing = client.trace()
        assert any(entry["trace_id"] == response["trace_id"]
                   for entry in listing["recent"])
        assert listing["trace"]["spans_finished"] >= 4

    def test_stage_latency_breakdown_in_metrics(self, server):
        _, client, _ = server
        client.predict_response(np.zeros((1, 1, 10, 10)),
                                priority="interactive")
        stages = client.metrics()["server"]["qos"]["stages_by_class"]
        assert {"batch_wait", "infer", "respond"} <= set(stages["interactive"])
        infer = stages["interactive"]["infer"]
        assert infer["count"] >= 1 and infer["p50_ms"] >= 0.0

    def test_error_replies_carry_trace_ids(self, server):
        _, client, _ = server
        trace_id = new_trace_id()
        status, body, _ = _post_json(
            f"{client.base_url}/predict",
            {"inputs": np.zeros((1, 1, 10, 10)).tolist(), "priority": "vip"},
            {TRACE_HEADER: trace_id})
        assert status == 400 and body["trace_id"] == trace_id

    def test_metrics_expose_trace_and_verification_planes(self, server):
        pecan, client, trace_dir = server
        metrics = client.metrics()
        assert metrics["trace"]["service"] == "server"
        assert metrics["trace"]["spans_finished"] >= 4
        verification = metrics["runtime_verification"]
        assert verification["enabled"] and verification["violations"] == 0
        # /metrics flushed the exporter: the JSONL is on disk already.
        spans = read_trace_dir(str(trace_dir))
        assert {s["service"] for s in spans} == {"server"}


# --------------------------------------------------------------------------- #
# Pool end to end: the acceptance scenario
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool_trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pool-traces")


@pytest.fixture(scope="module")
def trace_pool(trace_bundle, pool_trace_dir):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=2, policy="round_robin", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.5,
        trace_dir=str(pool_trace_dir), invariant_every=1, cache_mb=0.0))
    pool.add_bundle(trace_bundle, name="toy")
    pool.start()
    assert pool.wait_ready(120.0), "pool workers never became ready"
    yield pool
    pool.stop(drain=True)


class TestPoolTracing:
    def test_causal_reconstruction_from_jsonl(self, trace_pool, pool_trace_dir):
        """The tentpole acceptance: requests through the full pool, then the
        router → worker → engine causal chain rebuilt offline from the JSONL
        export alone, ordered by Lamport clocks with zero anomalies."""
        client = ServeClient(trace_pool.url, timeout_s=30.0)
        x = np.zeros((2, 1, 10, 10))
        trace_ids = []
        for _ in range(4):
            response = client.predict_response(x, model="toy")
            trace_ids.append(response["trace_id"])
        client.metrics()                       # flushes worker exporters
        trace_pool.tracer.flush()
        traces = group_by_trace(read_trace_dir(str(pool_trace_dir)))
        for trace_id in trace_ids:
            spans = traces[trace_id]
            services = {s["service"] for s in spans}
            assert services == {"router", "worker"}
            names = [s["name"] for s in spans]
            for needed in ("router.predict", "router.admission",
                           "router.dispatch", "server.predict",
                           "batch.queue", "batch.infer", "engine.predict"):
                assert needed in names, names
            # Lamport order: causally sorted, with zero anomalies, and the
            # cross-process edges strictly ordered.
            assert check_causal_order(spans) == []
            position = {name: index for index, name in enumerate(names)}
            assert position["router.predict"] == 0
            assert position["router.dispatch"] < position["server.predict"]
            assert position["server.predict"] < position["engine.predict"]
            by_name = {s["name"]: s for s in spans}
            assert (by_name["server.predict"]["lamport"]["start"]
                    > by_name["router.dispatch"]["lamport"]["start"])
            # The worker hop is parented under the router's dispatch span.
            assert (by_name["server.predict"]["parent_id"]
                    == by_name["router.dispatch"]["span_id"])

    def test_merged_trace_endpoint_spans_both_processes(self, trace_pool):
        client = ServeClient(trace_pool.url, timeout_s=30.0)
        response = client.predict_response(np.zeros((1, 1, 10, 10)),
                                           model="toy")
        trace = client.trace(response["trace_id"])
        services = {s["service"] for s in trace["spans"]}
        assert services == {"router", "worker"}
        assert check_causal_order(trace["spans"]) == []
        admission = [s for s in trace["spans"]
                     if s["name"] == "router.admission"][0]
        assert admission["attrs"]["verdict"] == "admitted"
        assert admission["attrs"]["queue_ms"] >= 0.0

    def test_router_stage_latency_breakdown(self, trace_pool):
        client = ServeClient(trace_pool.url, timeout_s=30.0)
        client.predict_response(np.zeros((1, 1, 10, 10)), model="toy")
        metrics = client.metrics()
        router_stages = metrics["router"]["qos"]["stages_by_class"]["standard"]
        assert "queue" in router_stages
        worker_stages = [w["server"]["qos"]["stages_by_class"]
                         for w in metrics["workers"].values()
                         if "server" in w]
        assert any({"batch_wait", "infer", "respond"} <= set(s.get("standard", {}))
                   for s in worker_stages)
        assert metrics["trace"]["service"] == "router"
        assert metrics["runtime_verification"]["enabled"]

    def test_slow_fault_shows_as_long_infer_span(self, trace_pool):
        client = ServeClient(trace_pool.url, timeout_s=30.0)
        x = np.zeros((1, 1, 10, 10))
        for worker in trace_pool.ready_workers():
            trace_pool.inject_fault(worker.id, "slow", seconds=0.2)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                started = time.monotonic()
                response = client.predict_response(x, model="toy")
                if time.monotonic() - started >= 0.15:
                    break
            trace = client.trace(response["trace_id"])
            infer = [s for s in trace["spans"] if s["name"] == "batch.infer"]
            assert infer and infer[0]["duration_ms"] >= 150.0
        finally:
            for worker in trace_pool.ready_workers():
                trace_pool.inject_fault(worker.id, "slow", seconds=0.0)

    def test_crash_failover_keeps_the_trace_id(self, trace_pool):
        """Crash a worker under live traffic: the router's retry hop shows up
        as a ``failover`` dispatch span and the retried hop shares the same
        trace id — the whole detour is one trace."""
        x = np.zeros((1, 1, 10, 10))

        def failover_spans():
            return [s for s in list(trace_pool.tracer._ring)
                    if s.name == "router.dispatch" and s.status == "failover"]

        errors = []
        observed = False
        for _ in range(5):                     # the monitor may reap first
            victim = trace_pool.ready_workers()[0].id
            stop = threading.Event()

            def hammer():
                client = ServeClient(trace_pool.url, timeout_s=30.0)
                while not stop.is_set():
                    try:
                        response = client.predict_response(x, model="toy")
                        assert response["trace_id"] == client.last_trace_id
                    except Exception as exc:   # noqa: BLE001 - asserted below
                        errors.append(f"{type(exc).__name__}: {exc}")
                        return

            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            time.sleep(0.05)
            trace_pool.inject_fault(victim, "crash")
            time.sleep(0.5)
            stop.set()
            thread.join(timeout=30.0)
            assert trace_pool.wait_ready(60.0)
            if failover_spans():
                observed = True
                break
        assert errors == [], errors[:3]        # service never blinked
        assert observed, "no failover dispatch span after 5 injected crashes"
        detour = failover_spans()[-1]
        hops = [s for s in trace_pool.tracer.find(detour.trace_id)
                if s["name"] == "router.dispatch"]
        assert len(hops) >= 2                  # dead hop + successful retry
        assert {h["trace_id"] for h in hops} == {detour.trace_id}
        assert any(h["status"] == "ok" for h in hops)
        assert len({h["attrs"]["worker"] for h in hops}) >= 2


@pytest.fixture
def shed_pool(trace_bundle, tmp_path):
    config = ServeConfig.build(
        port=0, workers=1, policy="round_robin", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.5, cache_mb=0.0,
        trace_dir=str(tmp_path / "traces"))
    config.qos = QoSConfig(slots_per_worker=1, min_dwell_s=0.1,
                           tenant_burst=1.0, tenant_rates={"limited": 0.5})
    pool = PoolServer(config=config)
    pool.add_bundle(trace_bundle, name="toy")
    pool.start()
    assert pool.wait_ready(120.0)
    yield pool
    pool.stop(drain=True)


class TestShedRepliesCarryTraceIds:
    """Every refusal must be attributable: 429/408/503 replies echo the
    trace id, and the router ring holds a terminal non-ok span for it."""

    def _terminal_status(self, pool, trace_id):
        roots = [s for s in pool.tracer.find(trace_id)
                 if s["name"] == "router.predict"]
        assert len(roots) == 1, roots
        return roots[0]["status"]

    def test_rate_limited_429(self, shed_pool):
        x = np.zeros((1, 1, 10, 10))
        trace_id = new_trace_id()
        # Burst 1.0 at 0.5 req/s: the warmup drains the only token, so the
        # traced request is deterministically rate-limited.
        _post_json(f"{shed_pool.url}/predict",
                   {"inputs": x.tolist(), "model": "toy", "tenant": "limited",
                    "trace_id": new_trace_id()})
        status, body, _ = _post_json(
            f"{shed_pool.url}/predict",
            {"inputs": x.tolist(), "model": "toy", "tenant": "limited",
             "trace_id": trace_id})
        assert status == 429 and body["reason"] == "rate-limit"
        assert body["trace_id"] == trace_id
        assert self._terminal_status(shed_pool, trace_id) == "shed"

    def test_deadline_408(self, shed_pool):
        x = np.zeros((1, 1, 10, 10))
        worker_id = shed_pool.ready_workers()[0].id
        shed_pool.inject_fault(worker_id, "slow", seconds=0.4)
        trace_id = new_trace_id()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:   # wait for the fault to bite
                started = time.monotonic()
                shed_pool.predict(x, model="toy")
                if time.monotonic() - started >= 0.3:
                    break
            blocker = threading.Thread(
                target=lambda: shed_pool.predict(x, model="toy"), daemon=True)
            blocker.start()
            time.sleep(0.1)                      # blocker owns the only slot
            status, body, headers = _post_json(
                f"{shed_pool.url}/predict",
                {"inputs": x.tolist(), "model": "toy", "trace_id": trace_id,
                 "priority": "interactive", "deadline_ms": 100.0})
            blocker.join(timeout=10.0)
        finally:
            shed_pool.inject_fault(worker_id, "slow", seconds=0.0)
        assert status == 408
        assert body["trace_id"] == trace_id
        assert headers[TRACE_HEADER] == trace_id
        assert self._terminal_status(shed_pool, trace_id) == "timeout"

    def test_brownout_503(self, shed_pool):
        x = np.zeros((1, 1, 10, 10))
        trace_id = new_trace_id()
        shed_pool.brownout.force_state("emergency")
        try:
            status, body, headers = _post_json(
                f"{shed_pool.url}/predict",
                {"inputs": x.tolist(), "model": "toy", "trace_id": trace_id})
        finally:
            shed_pool.brownout.force_state("healthy")
        assert status == 503
        assert body["trace_id"] == trace_id
        assert headers[TRACE_HEADER] == trace_id
        assert self._terminal_status(shed_pool, trace_id) == "shed"


# --------------------------------------------------------------------------- #
# Corrupted canary trips the rollout gate (runtime verification acceptance)
# --------------------------------------------------------------------------- #
class TestRuntimeVerificationTripsRollout:
    def test_corrupt_fault_is_caught_and_canary_rolls_back(self, trace_bundle,
                                                           tmp_path):
        """The ISSUE acceptance: inject the ``corrupt`` fault (NaN logits),
        watch the violation surface under ``runtime_verification`` in
        ``/metrics``, and watch an in-flight canary rollout flip to
        ``rollback`` without operator action."""
        pool = PoolServer(config=ServeConfig.build(
            port=0, workers=2, policy="round_robin", heartbeat_interval_s=0.1,
            heartbeat_timeout_s=5.0, invariant_every=1,
            trace_dir=str(tmp_path / "traces"), cache_mb=0.0))
        pool.add_bundle(trace_bundle, name="toy")
        pool.start()
        assert pool.wait_ready(120.0)
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.zeros((2, 1, 10, 10))
        try:
            # Identical candidate: the canary is healthy until corrupted.
            response = client.deploy("toy", str(trace_bundle),
                                     canary_fraction=1.0, min_samples=10_000,
                                     auto=True)
            assert response["deployed"] == "toy@v2"
            client.predict(x, model="toy")
            assert client.admin_status()["rollouts"]["toy"]["state"] == "canary"

            for worker in pool.ready_workers():
                pool.inject_fault(worker.id, "corrupt", seconds=1.0)
            deadline = time.monotonic() + 60.0
            rollout = None
            while time.monotonic() < deadline:
                client.predict(x, model="toy")
                rollout = client.admin_status()["rollouts"].get("toy")
                if rollout and rollout["state"] == "rolled_back":
                    break
                time.sleep(0.02)
            assert rollout and rollout["state"] == "rolled_back", rollout
            gate = rollout["gate"]
            assert (gate["invariant_violations"] >= 1
                    or gate["parity_violations"] >= 1), gate

            metrics = client.metrics()
            verification = metrics["runtime_verification"]
            assert verification["violations"] >= 1
            assert verification["by_invariant"]["logits_finite"] >= 1
            assert any(entry["invariant"] == "logits_finite"
                       for entry in verification["recent"])
            # v1 is active again and, once the fault clears, serving finite
            # logits — the plane detected, attributed and healed.
            for worker in pool.ready_workers():
                pool.inject_fault(worker.id, "corrupt", seconds=0.0)
            assert client.admin_status()["models"]["toy"]["active_version"] == 1
            outputs = client.predict(x, model="toy")
            assert np.isfinite(outputs).all()
        finally:
            pool.stop(drain=True)


# --------------------------------------------------------------------------- #
# Client propagation
# --------------------------------------------------------------------------- #
class _HeaderRecordingHandler(BaseHTTPRequestHandler):
    """Replays ``server.script`` statuses, recording every request's trace
    headers; then answers 200 with a canned predict body."""

    def do_POST(self):
        self.server.seen.append({
            "trace": self.headers.get(TRACE_HEADER),
            "attempt": self.headers.get(ATTEMPT_HEADER),
        })
        status = self.server.script.pop(0) if self.server.script else 200
        body = json.dumps({"outputs": [[0.25, 0.75]], "classes": [1],
                           "model": "toy", "num_samples": 1,
                           "error": "scripted refusal"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503):
            self.send_header("Retry-After", "0.01")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):     # noqa: A002 - stdlib signature
        pass


@pytest.fixture
def recording_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HeaderRecordingHandler)
    server.script = []
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class TestClientPropagation:
    def _client(self, server, **kwargs):
        kwargs.setdefault("backoff_cap_s", 0.05)
        return ServeClient(f"http://127.0.0.1:{server.server_port}", **kwargs)

    def test_client_generates_and_exposes_trace_id(self, recording_server):
        client = self._client(recording_server)
        response = client.predict_response(np.zeros((1, 2)))
        sent = recording_server.seen[0]["trace"]
        assert sent and len(sent) == 32
        assert client.last_trace_id == sent
        assert response["trace_id"] == sent    # filled in even by old servers

    def test_caller_supplied_id_passes_through(self, recording_server):
        client = self._client(recording_server)
        trace_id = new_trace_id()
        client.predict_response(np.zeros((1, 2)), trace_id=trace_id)
        assert recording_server.seen[0]["trace"] == trace_id
        assert client.last_trace_id == trace_id

    def test_retries_reuse_the_id_with_incremented_attempts(
            self, recording_server):
        recording_server.script = [503, 429]
        client = self._client(recording_server, backoff_retries=2)
        client.predict_response(np.zeros((1, 2)))
        assert len(recording_server.seen) == 3
        traces = {entry["trace"] for entry in recording_server.seen}
        assert len(traces) == 1                # one id across all attempts
        assert [entry["attempt"] for entry in recording_server.seen] == \
            ["0", "1", "2"]


# --------------------------------------------------------------------------- #
# The `repro-pecan trace` CLI verb
# --------------------------------------------------------------------------- #
class TestTraceCLI:
    @pytest.fixture
    def exported(self, tmp_path):
        tracer = Tracer("router", trace_dir=str(tmp_path))
        root = tracer.start_span("router.predict", "a" * 32)
        dispatch = tracer.start_span("router.dispatch", "a" * 32,
                                     parent_id=root.span_id)
        tracer.finish_span(dispatch)
        tracer.finish_span(root)
        _span(tracer, "router.predict", "b" * 32, status="shed")
        tracer.event("invariant.violation", "b" * 32, status="violation",
                     attrs={"invariant": "logits_finite", "detail": "2 NaNs"})
        tracer.close()
        return tmp_path

    def test_summary_listing(self, exported, capsys):
        assert cli_main(["trace", "--dir", str(exported)]) == 0
        out = capsys.readouterr().out
        assert "4 spans across 2 traces" in out
        assert "router.predict" in out and "p50=" in out
        assert "invariant violations: 1" in out
        assert "logits_finite: 2 NaNs" in out
        assert "slowest" in out

    def test_single_trace_timeline(self, exported, capsys):
        assert cli_main(["trace", "--dir", str(exported),
                         "--id", "a" * 32]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "router." in line]
        assert len(lines) == 2
        assert "router.predict" in lines[0]    # causal order: parent first
        assert "router.dispatch" in lines[1]

    def test_unknown_id_and_empty_dir_fail(self, exported, tmp_path, capsys):
        assert cli_main(["trace", "--dir", str(exported),
                         "--id", "missing"]) == 1
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["trace", "--dir", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Chaos leg for CI: tracing stays coherent under brownout overload
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestChaosTracing:
    def test_every_shed_under_overload_has_a_terminal_span(self, trace_bundle,
                                                           tmp_path):
        """CI's trace-enabled chaos leg: drive a 1-slot pool into shedding
        with a slow fault and a burst, then prove from the JSONL export
        alone that every shed/timeout reply owns a terminal non-ok root span
        with a matching trace id, and that the export never tore."""
        trace_dir = Path(os.environ.get("REPRO_CHAOS_TRACE_DIR",
                                        tmp_path / "chaos-traces"))
        config = ServeConfig.build(
            port=0, workers=1, policy="round_robin", heartbeat_interval_s=0.1,
            heartbeat_timeout_s=5.0, cache_mb=0.0,
            trace_dir=str(trace_dir), invariant_every=4)
        config.qos = QoSConfig(slots_per_worker=1, queue_high=2.0, alpha=0.7,
                               min_dwell_s=0.2, recover_at=0.5,
                               emergency_at=1e9, max_waiting=4)
        pool = PoolServer(config=config)
        pool.add_bundle(trace_bundle, name="toy")
        pool.start()
        assert pool.wait_ready(120.0)
        x = np.zeros((1, 1, 10, 10))
        shed: dict = {}                        # trace_id -> (status, body)
        lock = threading.Lock()
        try:
            worker_id = pool.ready_workers()[0].id
            pool.inject_fault(worker_id, "slow", seconds=0.15)

            def burst(index):
                for _ in range(12):
                    trace_id = new_trace_id()
                    status, body, _ = _post_json(
                        f"{pool.url}/predict",
                        {"inputs": x.tolist(), "model": "toy",
                         "trace_id": trace_id, "deadline_ms": 400.0,
                         "priority": "batch" if index % 2 else "standard"})
                    if status >= 400:
                        with lock:
                            shed[trace_id] = (status, body)

            threads = [threading.Thread(target=burst, args=(i,), daemon=True)
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            pool.inject_fault(worker_id, "slow", seconds=0.0)
            assert shed, "overload burst never shed — chaos leg is inert"
            # Every refusal echoed its trace id in the body.
            for trace_id, (status, body) in shed.items():
                assert status in (408, 429, 503), (status, body)
                assert body.get("trace_id") == trace_id, (trace_id, body)
            pool.predict(x, model="toy")       # the pool recovered
        finally:
            pool.stop(drain=True)
        # Offline: the JSONL parses clean and holds a terminal non-ok root
        # span for every shed reply.
        spans = read_trace_dir(str(trace_dir))
        traces = group_by_trace(spans)
        for trace_id, (status, body) in shed.items():
            roots = [s for s in traces.get(trace_id, [])
                     if s["name"] == "router.predict"]
            assert len(roots) == 1, (trace_id, status, roots)
            assert roots[0]["status"] in ("shed", "timeout"), roots[0]
            assert check_causal_order(traces[trace_id]) == []
