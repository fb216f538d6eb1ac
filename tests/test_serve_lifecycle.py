"""Tests for the model lifecycle plane (:mod:`repro.serve.lifecycle`).

Covers the versioned-name grammar, the deterministic canary splitter, the
rollout gate's verdicts, the version-aware refcounted registry (including
eviction racing concurrent checkouts), single-process hot reload over the
admin API, the client's transient-connection retry, and — against a real
2-worker pool — the end-to-end acceptance scenario: deploy under live
traffic with a 25% canary, zero failed requests, auto-promote on bitwise
parity, rollback, and auto-rollback of a deliberately perturbed bundle with
the parity violation recorded in ``/metrics``.
"""

from __future__ import annotations

import json
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (BundleEngine, CanaryPolicy, LifecycleError,
                         ModelRegistry, PECANServer, PoolServer, RolloutGate,
                         ServeClient, ServeConfig, ServeHTTPError,
                         format_versioned, split_versioned)
from repro.serve.server import _AcceleratorPacer


@pytest.fixture(scope="module")
def bundles(toy_bundle):
    """v1, an identical copy (v2) and a differently-trained bundle (v3)."""
    v1 = toy_bundle(0, name="v1")
    v2 = v1.parent / "v2.npz"
    shutil.copyfile(v1, v2)              # identical content → bitwise parity
    v3 = toy_bundle(99, name="v3")
    return {"v1": v1, "v2": v2, "v3": v3}


@pytest.fixture(scope="module")
def probe(bundles):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 1, 10, 10))
    expected = BundleEngine(bundles["v1"]).predict(x)
    perturbed = BundleEngine(bundles["v3"]).predict(x)
    assert not np.array_equal(perturbed, expected), \
        "the perturbed bundle must actually diverge for the gate tests"
    return x, expected


# --------------------------------------------------------------------------- #
# Versioned-name grammar
# --------------------------------------------------------------------------- #
class TestVersionedNames:
    def test_round_trip(self):
        assert split_versioned("m@v2") == ("m", 2)
        assert split_versioned("m") == ("m", None)
        assert format_versioned("m", 3) == "m@v3"
        assert split_versioned(format_versioned("resnet", 12)) == ("resnet", 12)

    def test_malformed_names_rejected(self):
        for bad in ("@v2", "m@vtwo", "m@v0", "m@v-1"):
            with pytest.raises(LifecycleError, match="malformed"):
                split_versioned(bad)


# --------------------------------------------------------------------------- #
# Canary splitter + rollout gate (pure logic)
# --------------------------------------------------------------------------- #
class TestCanaryPolicy:
    def test_exact_fraction(self):
        policy = CanaryPolicy(0.25)
        picks = [policy.sample() for _ in range(100)]
        assert sum(picks) == 25
        assert picks[3] and not picks[0]      # evenly spaced, deterministic

    def test_zero_and_full(self):
        assert not any(CanaryPolicy(0.0).sample() for _ in range(10))
        assert all(CanaryPolicy(1.0).sample() for _ in range(10))

    def test_invalid_fraction(self):
        with pytest.raises(LifecycleError, match="fraction"):
            CanaryPolicy(1.5)


class TestRolloutGate:
    def test_promotes_after_clean_samples(self):
        gate = RolloutGate(min_samples=3)
        for _ in range(2):
            gate.record(True, 0.01, 0.01)
            assert gate.verdict() == "pending"
        gate.record(True, 0.01, 0.01)
        assert gate.verdict() == "promote"
        assert "clean comparisons" in gate.reason()

    def test_single_violation_rolls_back(self):
        gate = RolloutGate(min_samples=3)
        gate.record(True, 0.01, 0.01)
        gate.record(False, 0.01, 0.01)
        assert gate.verdict() == "rollback"
        assert "parity violation" in gate.reason()

    def test_candidate_error_counts_as_violation(self):
        gate = RolloutGate(min_samples=1)
        gate.record_candidate_error()
        assert gate.verdict() == "rollback"
        assert gate.candidate_errors == 1

    def test_latency_ratio_gate(self):
        gate = RolloutGate(min_samples=2, max_latency_ratio=2.0)
        for _ in range(4):
            gate.record(True, active_seconds=0.010, canary_seconds=0.050)
        assert gate.latency_ratio() == pytest.approx(5.0)
        assert gate.verdict() == "rollback"
        assert "latency ratio" in gate.reason()

    def test_violation_budget(self):
        gate = RolloutGate(min_samples=2, max_parity_violations=1)
        gate.record(False, 0.01, 0.01)        # within budget
        gate.record(True, 0.01, 0.01)
        assert gate.verdict() == "promote"
        gate.record(False, 0.01, 0.01)        # budget blown
        assert gate.verdict() == "rollback"

    def test_snapshot_is_json_ready(self):
        gate = RolloutGate(min_samples=1)
        gate.record(True, 0.01, 0.02)
        snap = json.loads(json.dumps(gate.snapshot()))
        assert snap["verdict"] == "promote"
        assert snap["active_latency"]["count"] == 1
        assert snap["canary_latency"]["p50_ms"] >= snap["active_latency"]["p50_ms"]


# --------------------------------------------------------------------------- #
# Version-aware registry + refcounted leases
# --------------------------------------------------------------------------- #
class TestRegistryVersioning:
    def test_deploy_promote_rollback_aliasing(self, bundles, probe):
        x, expected = probe
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        record = registry.deploy("m", bundles["v3"])
        assert record.name == "m@v2"          # auto-numbered, canonical id
        # Deploy does not touch the alias; explicit names reach the version.
        assert registry.resolve_id("m") == "m"
        np.testing.assert_array_equal(registry.get_engine("m").predict(x), expected)
        assert not np.array_equal(registry.get_engine("m@v2").predict(x), expected)
        registry.set_active("m", 2)
        assert registry.resolve_id("m") == "m@v2"
        assert registry.active_version("m") == 2
        registry.rollback_active("m")
        assert registry.resolve_id("m") == "m"
        assert registry.previous_version("m") == 2

    def test_version_collisions_and_unknowns(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        registry.deploy("m", bundles["v2"], version=2)
        with pytest.raises(ValueError, match="already registered"):
            registry.deploy("m", bundles["v2"], version=2)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("m", bundles["v1"])
        with pytest.raises(LifecycleError, match="no version"):
            registry.set_active("m", 9)
        with pytest.raises(LifecycleError, match="no previous"):
            registry.rollback_active("m")

    def test_version_numbers_are_never_reused(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        assert registry.deploy("m", bundles["v2"]).name == "m@v2"
        registry.undeploy("m@v2")
        assert registry.deploy("m", bundles["v3"]).name == "m@v3"
        with pytest.raises(LifecycleError, match="already used; next free "
                                                 "version is 4"):
            registry.deploy("m", bundles["v2"], version=2)
        with pytest.raises(LifecycleError, match="already used"):
            registry.register("m@v2", bundles["v2"])
        with pytest.raises(ValueError, match="already registered"):
            registry.deploy("m", bundles["v2"], version=3)

    def test_server_and_pool_resolve_cache_namespaces_alike(self, bundles):
        """One resolver: both server kinds key the response cache the same
        way for bare, default, explicit, unknown and unregistered names."""
        server = PECANServer(config=ServeConfig.build(port=0))
        pool = PoolServer(config=ServeConfig.build(port=0))
        for front in (server, pool):
            front.add_bundle(bundles["v1"], name="m")
            front.add_bundle(bundles["v2"], name="m@v2")
        expected = {"": ("m@v1", "m"), "m": ("m@v1", "m"),
                    "m@v1": ("m@v1", "m@v1"), "m@v2": ("m@v2", "m@v2"),
                    "m@v9": None, "ghost": None}
        for model, namespace in expected.items():
            assert server.pipeline.resolve(model) == namespace, model
            assert pool.pipeline.resolve(model) == namespace, model

    def test_pool_deploy_without_ready_workers_publishes_nothing(self, bundles):
        pool = PoolServer(config=ServeConfig.build(port=0))
        pool.add_bundle(bundles["v1"], name="m")
        pool._running = True               # admitting, but no worker is up
        with pytest.raises(LifecycleError, match="no ready workers"):
            pool.deploy("m", bundles["v2"])
        # A worker spawned now must not come up with the failed candidate.
        assert dict(pool._worker_config().bundles) == {"m": str(bundles["v1"])}

    def test_undeploy_guards_active_version(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        registry.deploy("m", bundles["v2"])
        with pytest.raises(LifecycleError, match="active"):
            registry.undeploy("m")            # active with a sibling
        registry.undeploy("m@v2")
        assert "m@v2" not in registry
        registry.undeploy("m")                # last version: whole base goes
        assert "m" not in registry
        assert registry.default_name() is None

    def test_describe_marks_active_version(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        registry.deploy("m", bundles["v2"])
        listing = registry.describe()
        by_name = {entry["name"]: entry for entry in listing["models"]}
        assert by_name["m"]["active"] and by_name["m"]["version"] == 1
        assert not by_name["m@v2"]["active"]
        assert listing["active"] == {"m": "m@v1"}


class TestRegistryRefcounts:
    def test_unload_defers_until_release(self, bundles, probe):
        x, expected = probe
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        lease = registry.acquire("m")
        assert registry.unload("m") is True   # deferred, not dropped
        record = lease._record
        assert record.engine is not None and record.pending == "unload"
        assert registry.loaded_names() == []  # marked records are retiring
        np.testing.assert_array_equal(lease.engine.predict(x), expected)
        lease.release()
        assert record.engine is None          # dropped at last release

    def test_eviction_defers_for_leased_engines(self, bundles):
        one = BundleEngine(bundles["v1"]).bundle.total_values()
        registry = ModelRegistry(max_total_values=one)
        registry.register("a", bundles["v1"])
        registry.register("b", bundles["v3"])
        with registry.acquire("a") as lease_a:
            registry.get_engine("b")          # over budget; "a" is leased
            record_a = lease_a._record
            assert record_a.pending == "evict"
            assert record_a.engine is not None
        assert record_a.engine is None        # release applied the eviction
        assert registry.evictions_total == 1

    def test_reacquire_cancels_pending_drop(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        lease = registry.acquire("m")
        registry.unload("m")
        second = registry.acquire("m")        # re-use cancels the deferral
        lease.release()
        assert second._record.engine is not None
        assert second._record.pending is None
        second.release()
        assert second._record.engine is not None   # nothing pending anymore

    def test_eviction_racing_concurrent_checkouts(self, bundles, probe):
        """The satellite regression test: a budget of one engine, two models,
        many threads checking out and predicting concurrently.  Every
        checkout constantly evicts the other model; with leases this must
        never yank an engine mid-predict or corrupt an output."""
        x, expected = probe
        perturbed = BundleEngine(bundles["v3"]).predict(x)
        one = BundleEngine(bundles["v1"]).bundle.total_values()
        registry = ModelRegistry(max_total_values=one)
        registry.register("a", bundles["v1"])
        registry.register("b", bundles["v3"])
        errors: list = []

        def hammer(name: str, want: np.ndarray) -> None:
            try:
                for _ in range(12):
                    with registry.acquire(name) as lease:
                        got = lease.engine.predict(x)
                        if not np.array_equal(got, want):
                            errors.append(f"{name}: wrong outputs")
            except Exception as exc:          # noqa: BLE001 - asserted below
                errors.append(f"{name}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=hammer,
                                    args=("a", expected) if i % 2 else ("b", perturbed))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors, errors
        assert registry.evictions_total > 0   # the race actually happened
        # All leases released: at most one engine may stay resident.
        assert registry.resident_values() <= one


# --------------------------------------------------------------------------- #
# Single-process hot reload over the admin API
# --------------------------------------------------------------------------- #
class TestServerHotReload:
    def test_deploy_promote_rollback_in_process(self, bundles, probe):
        x, expected = probe
        server = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        try:
            deployed = server.deploy_bundle(bundles["v3"], name="m")
            assert deployed == "m@v2"
            # Both versions answer concurrently; the alias still routes v1.
            np.testing.assert_array_equal(
                np.asarray(server.predict(x, model="m")["outputs"]), expected)
            v2_outputs = np.asarray(server.predict(x, model="m@v2")["outputs"])
            assert not np.array_equal(v2_outputs, expected)
            info = server.promote("m")
            assert info["active_version"] == 2
            np.testing.assert_array_equal(
                np.asarray(server.predict(x, model="m")["outputs"]), v2_outputs)
            # The outgoing version's serving record was retired.
            assert "m" not in server._served
            info = server.rollback("m")
            assert info["active_version"] == 1
            # The restored version was warmed under its *record id* before
            # the flip (alias resolution must not warm the outgoing engine),
            # and the outgoing version's record was retired.
            assert "m" in server._served
            assert "m@v2" not in server._served
            np.testing.assert_array_equal(
                np.asarray(server.predict(x, model="m")["outputs"]), expected)
        finally:
            server.stop()

    def test_admin_http_endpoints(self, bundles, probe):
        x, expected = probe
        server = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        server.start()
        try:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            response = client.deploy("m", str(bundles["v3"]))
            assert response["deployed"] == "m@v2"
            status = client.admin_status()
            assert status["active"] == {"m": "m@v1"}
            assert "m@v2" in status["serving"]
            client.promote("m", version=2)
            assert client.admin_status()["active"] == {"m": "m@v2"}
            client.rollback("m")
            assert client.admin_status()["active"] == {"m": "m@v1"}
            np.testing.assert_array_equal(client.predict(x, model="m"), expected)
            with pytest.raises(ServeHTTPError) as excinfo:
                client.promote("ghost")
            assert excinfo.value.status == 404
            with pytest.raises(ServeHTTPError) as excinfo:
                client.deploy("m", str(bundles["v1"].parent / "missing.npz"))
            assert excinfo.value.status == 400
        finally:
            server.stop()

    def test_failed_deploy_leaves_no_version_behind(self, bundles, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a bundle")
        server = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        server.add_bundle(bundles["v1"], name="m", preload=True)
        try:
            with pytest.raises(Exception):
                server.deploy_bundle(bad, name="m")
            assert server.registry.versions_of("m") == {1: "m"}
            assert "outputs" in server.predict(np.zeros((1, 1, 10, 10)), model="m")
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Client-side transient retry (worker respawn from the caller's view)
# --------------------------------------------------------------------------- #
class _FlakyHTTPServer(threading.Thread):
    """Raw socket server that tears down the first ``resets`` connections
    without a response, then answers every request with a canned 200."""

    def __init__(self, resets: int, body: bytes):
        super().__init__(daemon=True)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.sock.settimeout(0.2)
        self.port = self.sock.getsockname()[1]
        self.resets = resets
        self.body = body
        self.accepted = 0
        self._stopping = threading.Event()

    def run(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            with conn:
                if self.accepted <= self.resets:
                    continue                   # close with nothing sent
                try:
                    conn.settimeout(2.0)
                    conn.recv(65536)
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Type: application/json\r\n"
                                 b"Content-Length: " +
                                 str(len(self.body)).encode() + b"\r\n"
                                 b"Connection: close\r\n\r\n" + self.body)
                except OSError:
                    pass

    def stop(self) -> None:
        self._stopping.set()
        self.join(2.0)
        self.sock.close()


class TestClientTransientRetry:
    BODY = json.dumps({"outputs": [[1.0, 2.0]], "classes": [1], "model": "m",
                       "num_samples": 1, "queue_ms": 0.0}).encode()

    def test_predict_retries_once_over_torn_connection(self):
        server = _FlakyHTTPServer(resets=1, body=self.BODY)
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=5.0)
            outputs = client.predict(np.zeros((1, 2)))
            np.testing.assert_array_equal(outputs, [[1.0, 2.0]])
            assert server.accepted == 2       # first torn, second answered
        finally:
            server.stop()

    def test_second_tear_is_fatal(self):
        server = _FlakyHTTPServer(resets=2, body=self.BODY)
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=5.0)
            with pytest.raises(Exception):
                client.predict(np.zeros((1, 2)))
            assert server.accepted == 2       # exactly one retry
        finally:
            server.stop()

    def test_non_idempotent_admin_is_never_retried(self):
        server = _FlakyHTTPServer(resets=1, body=b"{}")
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=5.0)
            with pytest.raises(Exception):
                client.deploy("m", "/tmp/nope.npz")
            assert server.accepted == 1       # no second attempt
        finally:
            server.stop()

    def test_gets_are_retried(self):
        server = _FlakyHTTPServer(resets=1, body=b'{"status": "ok"}')
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=5.0)
            assert client.healthz() == {"status": "ok"}
            assert server.accepted == 2
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# The pool, end to end (the acceptance scenario)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def lifecycle_pool(bundles):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=2, policy="round_robin", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=5.0, cache_mb=0.0))
    pool.add_bundle(bundles["v1"], name="m")
    pool.start()
    assert pool.wait_ready(120.0), "pool workers never became ready"
    yield pool
    pool.stop(drain=True)


class _LiveTraffic(threading.Thread):
    """Closed-loop traffic that checks every response bitwise."""

    def __init__(self, url: str, x: np.ndarray, expected: np.ndarray):
        super().__init__(daemon=True)
        self.client = ServeClient(url, timeout_s=30.0)
        self.x = x
        self.expected = expected
        self.requests = 0
        self.failures: list = []
        self._stopping = threading.Event()

    def run(self) -> None:
        while not self._stopping.is_set():
            try:
                outputs = self.client.predict(self.x, model="m")
                if not np.array_equal(outputs, self.expected):
                    self.failures.append("divergent outputs")
            except Exception as exc:           # noqa: BLE001 - asserted by tests
                self.failures.append(f"{type(exc).__name__}: {exc}")
            self.requests += 1

    def stop(self) -> "_LiveTraffic":
        self._stopping.set()
        self.join(30.0)
        return self


class TestPoolLifecycleEndToEnd:
    def _wait_rollout_state(self, client: ServeClient, state: str,
                            timeout_s: float = 60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            rollout = client.admin_status()["rollouts"].get("m")
            if rollout and rollout["state"] == state:
                return rollout
            time.sleep(0.05)
        raise AssertionError(f"rollout never reached state {state!r}: "
                             f"{client.admin_status()['rollouts']}")

    def test_canary_promote_rollback_and_gated_failure(self, lifecycle_pool,
                                                       bundles, probe):
        """Deploy v2 (identical) with a 25% canary under live traffic, observe
        zero failed requests, auto-promote on bitwise parity, roll back; then
        deploy a perturbed bundle and watch the gate auto-roll-back with the
        violation recorded in ``/metrics`` — the pool never restarts."""
        x, expected = probe
        pool = lifecycle_pool
        client = ServeClient(pool.url, timeout_s=30.0)
        pids_before = sorted(w["pid"] for w in pool.describe_pool()["workers"])
        traffic = _LiveTraffic(pool.url, x, expected)
        traffic.start()
        try:
            time.sleep(0.2)                    # traffic flowing before deploy
            response = client.deploy("m", str(bundles["v2"]),
                                     canary_fraction=0.25, min_samples=6)
            assert response["deployed"] == "m@v2"
            rollout = self._wait_rollout_state(client, "promoted")
            assert rollout["gate"]["parity_violations"] == 0
            assert rollout["gate"]["samples"] >= 6
            status = client.admin_status()
            assert status["models"]["m"]["active_version"] == 2
            # Canary traffic really was split (and judged) at ~the fraction.
            assert rollout["canary"]["fraction"] == 0.25
            assert rollout["canary"]["seen"] > rollout["gate"]["samples"]

            # Rollback restores v1 as the active version, still live.
            response = client.rollback("m")
            assert response["active_version"] == 1
            assert client.admin_status()["models"]["m"]["active_version"] == 1

            # A perturbed candidate: the gate must refuse it automatically.
            response = client.deploy("m", str(bundles["v3"]),
                                     canary_fraction=0.25, min_samples=6)
            assert response["deployed"] == "m@v3"
            rollout = self._wait_rollout_state(client, "rolled_back")
            assert rollout["gate"]["parity_violations"] >= 1
            assert "parity violation" in rollout["reason"]
            metrics = client.metrics()
            gate = metrics["lifecycle"]["rollouts"]["m"]["gate"]
            assert gate["parity_violations"] >= 1
            # The rejected version is gone from the pool's bundle set.
            versions = [entry["version"] for entry in
                        client.admin_status()["models"]["m"]["versions"]]
            assert versions == [1, 2]
        finally:
            traffic.stop()
        # The acceptance bar: heavy live traffic across two deploys, a
        # promote and two rollbacks — zero failed requests, and the pool
        # processes never restarted.
        assert traffic.requests > 50
        assert traffic.failures == [], traffic.failures[:5]
        pids_after = sorted(w["pid"] for w in pool.describe_pool()["workers"])
        assert pids_after == pids_before
        assert pool.restarts_total == 0

    def test_explicit_version_requests_bypass_canary(self, lifecycle_pool,
                                                     bundles, probe):
        x, expected = probe
        client = ServeClient(lifecycle_pool.url, timeout_s=30.0)
        # After the previous test the pool serves v1 (active) and v2.
        np.testing.assert_array_equal(client.predict(x, model="m@v2"), expected)
        np.testing.assert_array_equal(client.predict(x, model="m@v1"), expected)

    def test_deploy_conflicts_are_rejected(self, lifecycle_pool, bundles):
        client = ServeClient(lifecycle_pool.url, timeout_s=30.0)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.deploy("ghost", str(bundles["v2"]))
        assert excinfo.value.status == 404
        with pytest.raises(ServeHTTPError) as excinfo:
            client.deploy("m", str(bundles["v2"]), version=2)  # already used
        assert excinfo.value.status == 400

    def test_promote_defaults_to_newest_deployed_version(self, lifecycle_pool):
        """The rolled-back v3 burned its number but was undeployed: a bare
        promote must target the newest version workers actually hold (v2),
        never the raw version counter."""
        client = ServeClient(lifecycle_pool.url, timeout_s=30.0)
        response = client.promote("m")
        assert response["active_version"] == 2
        response = client.rollback("m")
        assert response["active_version"] == 1

    def test_promote_past_candidate_closes_the_rollout(self, lifecycle_pool,
                                                       bundles):
        """Promoting a version other than the canary candidate implicitly
        rejects it: the rollout must close (no eternal canary mirroring, no
        'already in flight' lockout of future deploys)."""
        client = ServeClient(lifecycle_pool.url, timeout_s=30.0)
        response = client.deploy("m", str(bundles["v2"]),
                                 canary_fraction=0.0, auto=False)
        candidate = response["deployed"]
        assert client.admin_status()["rollouts"]["m"]["state"] == "canary"
        client.promote("m", version=1)         # keep v1; reject the candidate
        rollout = client.admin_status()["rollouts"]["m"]
        assert rollout["state"] == "rolled_back"
        assert "superseded" in rollout["reason"]
        # The pool accepts new deploys again, and respawned workers would
        # come up with the (still-deployed, never-activated) candidate.
        config_bundles = dict(lifecycle_pool._worker_config().bundles)
        assert candidate in config_bundles


class TestDrainDuringDeploy:
    def test_draining_pool_refuses_lifecycle_commands(self, bundles, probe):
        """Drain-during-deploy: with an in-flight request holding the drain
        open, a concurrent deploy must be refused cleanly (no deadlock, no
        half-applied rollout) and the drain must still complete."""
        x, expected = probe
        engine = BundleEngine(bundles["v1"])
        engine.predict(np.zeros((1, 1, 10, 10)))
        cycles = _AcceleratorPacer(engine, hz=1.0)._cycles()
        pool = PoolServer(config=ServeConfig.build(
            port=0, workers=1, heartbeat_interval_s=0.1,
            heartbeat_timeout_s=5.0, cache_mb=0.0,
            hardware_hz=cycles / 0.8))                   # ~0.8 s per batch
        pool.add_bundle(bundles["v1"], name="m")
        pool.start()
        assert pool.wait_ready(120.0)
        result: dict = {}

        def slow_request():
            client = ServeClient(pool.url, timeout_s=60.0)
            try:
                result["outputs"] = client.predict(x, model="m")
            except Exception as exc:           # noqa: BLE001 - asserted below
                result["error"] = repr(exc)

        request_thread = threading.Thread(target=slow_request)
        request_thread.start()
        deadline = time.monotonic() + 10.0
        while pool.outstanding_total() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool.outstanding_total() == 1

        stop_thread = threading.Thread(
            target=lambda: pool.stop(drain=True, timeout_s=30.0))
        stop_thread.start()
        deadline = time.monotonic() + 5.0
        while not pool._draining and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(LifecycleError, match="draining|stopped"):
            pool.deploy("m", str(bundles["v2"]))
        stop_thread.join(60.0)
        request_thread.join(30.0)
        assert not stop_thread.is_alive()
        assert "error" not in result, result
        np.testing.assert_array_equal(result["outputs"], expected)
