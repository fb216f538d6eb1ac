"""Tests for :mod:`repro.serve.pool` — the data-parallel serving tier.

Covers the routing policies (unit level, no processes), the cross-worker
metrics aggregation, memory-mapped bundle loading parity, the accelerator
pacer, the ``PECANServer`` port-churn fixes, and — against a real worker
pool — request parity, crash → respawn → request success, hung-worker
detection, graceful drain of in-flight requests, and the SIGTERM drain of
the CLI entry point.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import (BundleEngine, LeastOutstandingPolicy,
                         ModelAffinityPolicy, PECANServer, PoolServer,
                         RoundRobinPolicy, ServeClient, ServeConfig,
                         ServeHTTPError, WorkerConfig, aggregate_counter_trees,
                         make_policy)
from repro.serve.config import NetConfig
from repro.serve.pool import worker_serve_config
from repro.serve.qos import QoSConfig
from repro.serve.server import _AcceleratorPacer

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_model(rng, mode="distance", in_channels=1, image_size=10):
    cfg = PQLayerConfig(num_prototypes=4, mode=mode,
                        temperature=0.5 if mode == "distance" else 1.0)
    spatial = (image_size - 2) // 2
    model = Sequential(
        Conv2d(in_channels, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * spatial * spatial, 6, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


# --------------------------------------------------------------------------- #
# Routing policies (pure logic, no worker processes)
# --------------------------------------------------------------------------- #
class FakeWorker:
    def __init__(self, worker_id, outstanding=0):
        self.id = worker_id
        self.outstanding = outstanding

    def __repr__(self):
        return f"FakeWorker({self.id})"


class TestRoutingPolicies:
    def test_round_robin_rotates_uniformly(self):
        workers = [FakeWorker(i) for i in range(3)]
        policy = RoundRobinPolicy()
        picks = [policy.choose(workers).id for _ in range(9)]
        assert picks == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_least_outstanding_prefers_idle_worker(self):
        busy, idle = FakeWorker(0, outstanding=5), FakeWorker(1, outstanding=0)
        policy = LeastOutstandingPolicy()
        assert all(policy.choose([busy, idle]) is idle for _ in range(4))

    def test_least_outstanding_rotates_ties(self):
        workers = [FakeWorker(i) for i in range(3)]
        policy = LeastOutstandingPolicy()
        picks = {policy.choose(workers).id for _ in range(3)}
        assert picks == {0, 1, 2}          # ties spread, not pile onto worker 0

    def test_model_affinity_is_sticky_and_spreads(self):
        workers = [FakeWorker(i) for i in range(4)]
        policy = ModelAffinityPolicy()
        names = [f"model_{i}" for i in range(32)]
        first = {name: policy.choose(workers, model=name).id for name in names}
        second = {name: policy.choose(workers, model=name).id for name in names}
        assert first == second             # deterministic pinning
        assert len(set(first.values())) > 1    # hash actually spreads models

    def test_model_affinity_remaps_over_survivors(self):
        workers = [FakeWorker(i) for i in range(3)]
        policy = ModelAffinityPolicy()
        # Whatever worker "m" pins to, removing it must remap onto a survivor
        # (and deterministically so).
        pinned = policy.choose(workers, model="m")
        survivors = [worker for worker in workers if worker is not pinned]
        remapped = policy.choose(survivors, model="m")
        assert remapped in survivors
        assert policy.choose(survivors, model="m") is remapped

    def test_make_policy(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
        custom = LeastOutstandingPolicy()
        assert make_policy(custom) is custom
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("cleverest_worker")


# --------------------------------------------------------------------------- #
# Cross-worker metrics aggregation
# --------------------------------------------------------------------------- #
class TestAggregateCounterTrees:
    def test_sums_counters_and_maxes_percentiles(self):
        a = {"requests": {"total": 3, "errors": 1},
             "latency": {"p99_ms": 10.0, "count": 3},
             "name": "worker"}
        b = {"requests": {"total": 5, "errors": 0},
             "latency": {"p99_ms": 30.0, "count": 5},
             "name": "worker"}
        merged = aggregate_counter_trees([a, b])
        assert merged["requests"] == {"total": 8, "errors": 1}
        assert merged["latency"] == {"p99_ms": 30.0, "count": 8}
        assert merged["name"] == "worker"

    def test_tolerates_missing_subtrees_and_none(self):
        a = {"models": {"m": {"stored_values": 10}}, "extra": None}
        b = {"models": {}}
        merged = aggregate_counter_trees([a, b])
        assert merged["models"] == {"m": {"stored_values": 10}}
        assert merged["extra"] is None

    def test_histogram_keys_sum(self):
        a = {"histogram": {"1": 4, "2": 1}}
        b = {"histogram": {"2": 2, "8": 5}}
        merged = aggregate_counter_trees([a, b])
        assert merged["histogram"] == {"1": 4, "2": 3, "8": 5}


# --------------------------------------------------------------------------- #
# Memory-mapped engines and the accelerator pacer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def pool_bundle(tmp_path_factory, module_rng) -> Path:
    model = small_model(module_rng)
    return export_deployment_bundle(
        model, tmp_path_factory.mktemp("pool") / "toy.npz", input_shape=(1, 10, 10))


class TestMmapEngine:
    def test_mmap_engine_is_bitwise_identical(self, pool_bundle, module_rng):
        eager = BundleEngine(pool_bundle)
        mapped = BundleEngine(pool_bundle, mmap_mode="r")
        x = module_rng.standard_normal((6, 1, 10, 10))
        np.testing.assert_array_equal(mapped.predict(x), eager.predict(x))
        assert mapped.mmap_mode == "r"
        assert mapped.stats_snapshot()["mmap_mode"] == "r"
        # The backing arrays really are file-backed maps, not heap copies.
        lut = next(iter(mapped.bundle.luts.values()))
        assert isinstance(lut.prototypes, np.memmap)
        assert isinstance(lut.table, np.memmap)

    def test_worker_config_is_picklable(self, pool_bundle):
        import pickle

        router = ServeConfig.build(
            host="0.0.0.0", port=9000, max_connections=7, hardware_hz=1e6,
            cache_mb=8.0, batch_class_samples=4, slots_per_worker=3)
        config = WorkerConfig(serve=router,
                              bundles=(("toy", str(pool_bundle)),))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        # What the spawned worker derives from it: the router's engine and
        # trace settings on an ephemeral port, cache off, default front-end
        # budgets, and only the bulk-class budget of the QoS plane.
        worker = worker_serve_config(clone.serve)
        assert worker.net == NetConfig(host="0.0.0.0", port=0)
        assert worker.cache.effective_mb == 0.0
        assert worker.qos == QoSConfig(batch_class_samples=4)
        assert worker.engine == router.engine
        assert worker.trace == router.trace
        assert worker.lifecycle == router.lifecycle

    def test_pacer_stretches_batches_to_modeled_latency(self, pool_bundle):
        engine = BundleEngine(pool_bundle)
        x = np.zeros((2, 1, 10, 10))
        engine.predict(x)                      # measure per-batch cycles
        pacer_probe = _AcceleratorPacer(engine, hz=1.0)
        cycles = pacer_probe._cycles()
        assert cycles > 0
        engine.reset_counters()
        # Clock chosen so this batch models ~0.15 s of accelerator time.
        pacer = _AcceleratorPacer(engine, hz=cycles / 0.15)
        started = time.monotonic()
        outputs = pacer(x)
        elapsed = time.monotonic() - started
        np.testing.assert_array_equal(outputs, BundleEngine(pool_bundle).predict(x))
        assert elapsed >= 0.1                  # host is faster; pacer slept
        assert pacer.slept_s > 0.0

    def test_pacer_rejects_nonpositive_clock(self, pool_bundle):
        with pytest.raises(ValueError, match="clock"):
            _AcceleratorPacer(BundleEngine(pool_bundle), hz=0.0)


class TestServerPortChurn:
    def test_rapid_rebind_of_same_port(self, pool_bundle):
        # allow_reuse_address: an immediate restart on the very port a server
        # just released (socket in TIME_WAIT) must not flake with EADDRINUSE.
        first = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        first.add_bundle(pool_bundle, name="toy")
        first.start()
        bound = first.port
        assert bound != 0                      # ephemeral port is exposed
        first.stop()
        for _ in range(3):
            server = PECANServer(config=ServeConfig.build(
                port=bound, cache_mb=0.0, mmap=False))
            server.add_bundle(pool_bundle, name="toy")
            server.start()
            assert server.port == bound
            server.stop()


# --------------------------------------------------------------------------- #
# The worker pool, end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool(pool_bundle):
    server = PoolServer(config=ServeConfig.build(
        port=0, workers=2, policy="round_robin", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.5, cache_mb=0.0))
    server.add_bundle(pool_bundle, name="toy")
    server.start()
    assert server.wait_ready(120.0), "pool workers never became ready"
    yield server
    server.stop(drain=True)


class TestPoolServing:
    def test_pooled_predict_is_bitwise_identical(self, pool, pool_bundle, module_rng):
        engine = BundleEngine(pool_bundle)
        x = module_rng.standard_normal((4, 1, 10, 10))
        client = ServeClient(pool.url)
        np.testing.assert_array_equal(client.predict(x, model="toy"),
                                      engine.predict(x))

    def test_round_robin_spreads_load_across_workers(self, pool, module_rng):
        client = ServeClient(pool.url)
        x = module_rng.standard_normal((1, 1, 10, 10))
        for _ in range(6):
            client.predict(x, model="toy")
        dispatched = {worker["id"]: worker["dispatched"]
                      for worker in pool.describe_pool()["workers"]}
        assert len(dispatched) == 2
        assert all(count > 0 for count in dispatched.values())

    def test_aggregated_observability(self, pool, module_rng):
        client = ServeClient(pool.url)
        client.predict(module_rng.standard_normal((2, 1, 10, 10)), model="toy")
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == ["toy"]
        assert [w["state"] for w in health["pool"]["workers"]] == ["ready", "ready"]
        metrics = client.metrics()
        assert metrics["router"]["requests"]["total"] >= 1
        assert len(metrics["workers"]) == 2
        agg = metrics["aggregate"]
        worker_totals = [payload["server"]["requests"]["total"]
                         for payload in metrics["workers"].values()]
        assert agg["server"]["requests"]["total"] == sum(worker_totals)
        models = client.models()
        assert "models" in models
        assert {w["state"] for w in models["pool"]["workers"]} == {"ready"}
        # Heartbeats carried per-worker counters over the control pipe.
        beats = [w["counters"] for w in health["pool"]["workers"]]
        assert all("requests_total" in beat for beat in beats)

    def test_unknown_model_propagates_worker_404(self, pool, module_rng):
        client = ServeClient(pool.url)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(module_rng.standard_normal((1, 1, 10, 10)), model="nope")
        assert excinfo.value.status == 404
        # Worker-side failures stay visible at the router: the 4xx family is
        # tallied, and the response did not count as a completed request.
        status = pool.describe_pool()["proxied_status"]
        assert status["4xx"] >= 1 and status["2xx"] >= 1

    def test_worker_crash_respawn_and_service_continuity(self, pool, pool_bundle,
                                                         module_rng):
        engine = BundleEngine(pool_bundle)
        x = module_rng.standard_normal((2, 1, 10, 10))
        client = ServeClient(pool.url)
        restarts_before = pool.restarts_total
        victim = pool.ready_workers()[0].id
        pool.inject_fault(victim, "crash")
        # Service continues immediately: requests that land on the corpse are
        # retried on the survivor, bit-for-bit correct.
        for _ in range(4):
            np.testing.assert_array_equal(client.predict(x, model="toy"),
                                          engine.predict(x))
        deadline = time.monotonic() + 30.0
        while pool.restarts_total <= restarts_before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.restarts_total > restarts_before, "crashed worker never respawned"
        assert pool.wait_ready(60.0), "pool never returned to full strength"
        assert victim not in {worker.id for worker in pool.ready_workers()}
        np.testing.assert_array_equal(client.predict(x, model="toy"),
                                      engine.predict(x))

    def test_hung_worker_is_detected_and_replaced(self, pool, module_rng):
        client = ServeClient(pool.url)
        restarts_before = pool.restarts_total
        victim = pool.ready_workers()[0].id
        pool.inject_fault(victim, "hang")      # control loop freezes, HTTP lives
        deadline = time.monotonic() + 30.0
        while pool.restarts_total <= restarts_before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.restarts_total > restarts_before, \
            "heartbeat silence never triggered a respawn"
        assert pool.wait_ready(60.0)
        x = module_rng.standard_normal((1, 1, 10, 10))
        assert client.predict(x, model="toy").shape == (1, 6)

    def test_inject_fault_validates_kind_and_worker(self, pool):
        # The full slow-fault round trip (inject, observe, clear) lives in
        # tests/test_serve_qos.py; here just the injection API contract.
        with pytest.raises(ValueError, match="unknown fault"):
            pool.inject_fault(pool.ready_workers()[0].id, "meltdown")
        with pytest.raises(KeyError, match="no worker"):
            pool.inject_fault(10**9, "slow", seconds=0.1)


@pytest.fixture(scope="module")
def solo_pool(pool_bundle):
    server = PoolServer(config=ServeConfig.build(
        port=0, workers=1, heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        cache_mb=0.0))
    server.add_bundle(pool_bundle, name="toy")
    server.start()
    assert server.wait_ready(120.0), "pool worker never became ready"
    yield server
    server.stop(drain=True)


def _worker_accepts(pool) -> int:
    """Connections the pool's only worker has accepted so far."""
    (payload,) = pool.metrics_snapshot()["workers"].values()
    return payload["frontend"]["accepted_total"]


class TestKeepAliveHop:
    """The router→worker hop reuses kept-alive connections; a reused socket
    that died is replayed on a fresh one, invisibly to the client."""

    def test_sequential_misses_reuse_one_connection(self, solo_pool,
                                                    pool_bundle, module_rng):
        engine = BundleEngine(pool_bundle)
        x = module_rng.standard_normal((1, 1, 10, 10))
        client = ServeClient(solo_pool.url)
        before = _worker_accepts(solo_pool)
        for _ in range(30):
            np.testing.assert_array_equal(
                client.predict(x, model="toy", no_cache=True), engine.predict(x))
        # A connection per hop would add 30 accepts (31 with the scrape).
        assert _worker_accepts(solo_pool) - before <= 3

    def test_dead_pooled_socket_is_replayed_not_failed(self, solo_pool,
                                                        pool_bundle,
                                                        module_rng):
        engine = BundleEngine(pool_bundle)
        x = module_rng.standard_normal((2, 1, 10, 10))
        client = ServeClient(solo_pool.url)
        client.predict(x, model="toy", no_cache=True)      # park a connection
        (worker,) = solo_pool.ready_workers()
        idle = solo_pool._connections.idle[("127.0.0.1", worker.port)]
        assert idle, "the hop parked no connection"
        for connection in idle:
            connection.sock.shutdown(socket.SHUT_RDWR)
        failed = solo_pool.describe_pool()["proxied_status"]["5xx"]
        proxy_failures = worker.proxy_failures
        np.testing.assert_array_equal(
            client.predict(x, model="toy", no_cache=True), engine.predict(x))
        assert solo_pool.describe_pool()["proxied_status"]["5xx"] == failed
        assert worker.proxy_failures == proxy_failures


def test_respawn_closes_the_dead_workers_connections(pool_bundle, module_rng):
    """Idle connections to a crashed worker are closed when the monitor
    removes it (its successor listens on a new port), and ``stop()`` closes
    the rest: no socket outlives its peer."""
    engine = BundleEngine(pool_bundle)
    x = module_rng.standard_normal((1, 1, 10, 10))
    server = PoolServer(config=ServeConfig.build(
        port=0, workers=1, heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        cache_mb=0.0))
    server.add_bundle(pool_bundle, name="toy")
    server.start()
    try:
        assert server.wait_ready(120.0)
        client = ServeClient(server.url)
        client.predict(x, model="toy", no_cache=True)
        (victim,) = server.ready_workers()
        parked = list(server._connections.idle[("127.0.0.1", victim.port)])
        assert parked
        server.inject_fault(victim.id, "crash")
        deadline = time.monotonic() + 30.0
        while server.restarts_total == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server.restarts_total == 1, "crashed worker never respawned"
        assert server.wait_ready(60.0)
        assert all(connection.sock is None for connection in parked)
        np.testing.assert_array_equal(
            client.predict(x, model="toy", no_cache=True), engine.predict(x))
        client.close()
    finally:
        server.stop()
    assert server._connections.idle == {}


class TestPoolLifecycle:
    def test_add_bundle_rejected_after_start(self, pool, pool_bundle):
        with pytest.raises(RuntimeError, match="before the pool starts"):
            pool.add_bundle(pool_bundle, name="late")

    def test_pool_requires_workers_and_bundles(self, pool_bundle):
        with pytest.raises(ValueError, match="at least one worker"):
            PoolServer(config=ServeConfig.build(workers=0))
        empty = PoolServer(config=ServeConfig.build(
            port=0, workers=1, cache_mb=0.0))
        with pytest.raises(ValueError, match="no bundles"):
            empty.start()

    def test_unstarted_pool_rejects_requests(self, pool_bundle):
        idle = PoolServer(config=ServeConfig.build(
            port=0, workers=1, cache_mb=0.0))
        idle.add_bundle(pool_bundle)
        with pytest.raises(ServeHTTPError) as excinfo:
            idle.predict(np.zeros((1, 1, 10, 10)))
        assert excinfo.value.status == 503

    def test_draining_pool_refuses_predict_before_dispatch(self):
        # A stopping pool answers /predict with a structured 503 before it
        # dispatches anything.  Only the router is bound: no worker exists,
        # so any other answer would mean the refusal came too late.
        draining = PoolServer(config=ServeConfig.build(
            port=0, workers=1, cache_mb=0.0))
        draining._draining = True
        draining._bind()
        connection = http.client.HTTPConnection("127.0.0.1", draining.port,
                                                timeout=30.0)
        try:
            connection.request("POST", "/predict", body=json.dumps(
                {"inputs": np.zeros((1, 1, 10, 10)).tolist(),
                 "model": "toy"}))
            response = connection.getresponse()
            assert response.status == 503
            assert json.loads(response.read()) == {
                "error": "pool is draining", "reason": "draining"}
        finally:
            connection.close()
            draining.stop()

    def test_graceful_drain_completes_in_flight_requests(self, pool_bundle,
                                                         module_rng):
        # Pace the worker like a slow accelerator so one batch takes ~0.7 s,
        # guaranteeing the request is still in flight when the drain begins.
        engine = BundleEngine(pool_bundle)
        engine.predict(np.zeros((1, 1, 10, 10)))
        pacer = _AcceleratorPacer(engine, hz=1.0)
        per_sample_cycles = pacer._cycles()
        drain_pool = PoolServer(config=ServeConfig.build(
            port=0, workers=1, heartbeat_interval_s=0.1,
            heartbeat_timeout_s=5.0, hardware_hz=per_sample_cycles / 0.7,
            cache_mb=0.0))
        drain_pool.add_bundle(pool_bundle, name="toy")
        drain_pool.start()
        assert drain_pool.wait_ready(120.0)
        x = module_rng.standard_normal((1, 1, 10, 10))
        expected = BundleEngine(pool_bundle).predict(x)
        result = {}

        def slow_request():
            client = ServeClient(drain_pool.url, timeout_s=60.0)
            try:
                result["outputs"] = client.predict(x, model="toy")
            except Exception as exc:           # noqa: BLE001 - asserted below
                result["error"] = repr(exc)

        thread = threading.Thread(target=slow_request)
        thread.start()
        deadline = time.monotonic() + 10.0
        while drain_pool.outstanding_total() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)                  # wait until it is truly in flight
        assert drain_pool.outstanding_total() == 1
        stop_started = time.monotonic()
        drain_pool.stop(drain=True, timeout_s=30.0)
        drained_in = time.monotonic() - stop_started
        thread.join(10.0)
        assert "error" not in result, result
        np.testing.assert_array_equal(result["outputs"], expected)
        assert drained_in >= 0.2, "drain returned before the in-flight request"


class TestPoolCLI:
    def test_cli_pool_serves_and_drains_on_sigterm(self, pool_bundle, module_rng):
        # The context manager closes the stdout/stderr pipes on exit.
        with subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--bundle", f"toy={pool_bundle}", "--port", "0",
                 "--workers", "2", "--policy", "least_outstanding"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}) as process:
            try:
                url = None
                for _ in range(4):
                    line = process.stdout.readline()
                    if line.startswith("routing on "):
                        url = line.split()[2]
                        break
                assert url, "pool CLI never reported its URL"
                with ServeClient(url) as client:
                    assert client.wait_ready(120.0)
                    deadline = time.monotonic() + 120.0
                    while time.monotonic() < deadline:
                        if client.healthz()["status"] == "ok":
                            break
                        time.sleep(0.1)
                    logits = client.predict(
                        module_rng.standard_normal((2, 1, 10, 10)),
                        model="toy")
                    assert logits.shape == (2, 6)
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=60) == 0
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
