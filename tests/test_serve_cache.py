"""Tests for the deterministic response cache (:mod:`repro.serve.cache`).

Covers the canonical input hasher (the shared request identity), the
byte-budgeted :class:`ResultCache` with epoch-guarded lifecycle
invalidation, in-flight coalescing (leader election, follower deadlines,
re-election after a failed leader), the ``cache_affinity`` routing policy,
the Zipf load generator, the cache-parity runtime-verification invariant,
and — against live servers — the end-to-end guarantees: cache hits are
bitwise identical to engine executions, a burst of identical concurrent
requests costs exactly one engine call, and promote/rollback/undeploy
atomically retire the outgoing version's namespace so post-flip traffic
never sees its bytes.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from harness import run_zipf_load
from repro.serve import (BundleEngine, CacheAffinityPolicy, InvariantMonitor,
                         ModelRegistry, PECANServer, PoolServer, ResultCache,
                         ServeClient, ServeConfig, ServeHTTPError,
                         ZipfWorkload,
                         canonical_input_hash, canonical_response_bytes,
                         format_versioned, splice_json,
                         stable_route_hash)
from repro.serve.scheduler import RequestTimeout


@pytest.fixture(scope="module")
def bundles(toy_bundle):
    """v1 and a differently-trained v2 (divergent outputs)."""
    return {"v1": toy_bundle(0, name="v1"), "v2": toy_bundle(99, name="v2")}


# --------------------------------------------------------------------------- #
# Canonical input hashing — the shared request identity
# --------------------------------------------------------------------------- #
class TestCanonicalHash:
    def test_list_and_array_payloads_share_an_entry(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        assert canonical_input_hash(x) == canonical_input_hash(x.tolist())

    def test_dtype_canonicalized_to_float64(self):
        ints = np.arange(8).reshape(2, 4)
        assert (canonical_input_hash(ints)
                == canonical_input_hash(ints.astype(np.float64)))

    def test_shape_discriminates_identical_bytes(self):
        flat = np.arange(4.0)
        assert (canonical_input_hash(flat.reshape(1, 4))
                != canonical_input_hash(flat.reshape(4, 1)))

    def test_value_sensitivity(self):
        x = np.zeros((2, 2))
        y = x.copy()
        y[0, 0] = 1e-300                      # tiniest float difference counts
        assert canonical_input_hash(x) != canonical_input_hash(y)

    def test_non_contiguous_views_match_their_copy(self):
        base = np.random.default_rng(1).normal(size=(4, 6))
        view = base[:, ::2]                   # non-contiguous
        assert not view.flags["C_CONTIGUOUS"]
        assert canonical_input_hash(view) == canonical_input_hash(view.copy())

    def test_non_numeric_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            canonical_input_hash([["not", "numbers"]])

    def test_stable_route_hash_is_deterministic(self):
        assert stable_route_hash("m@v1") == stable_route_hash("m@v1")
        assert stable_route_hash("m@v1") != stable_route_hash("m@v2")


class TestCanonicalResponse:
    def test_round_trip_is_bitwise(self):
        response = {"model": "m", "outputs": [[0.1 + 0.2, 1e-17]],
                    "classes": [0], "num_samples": 1, "queue_ms": 3.2}
        canonical = canonical_response_bytes(response)
        replayed = json.loads(canonical)
        assert replayed["outputs"] == response["outputs"]   # exact float64
        assert sorted(replayed) == ["classes", "num_samples", "outputs"]

    def test_accepts_raw_bytes_and_rejects_non_success_shapes(self):
        body = json.dumps({"outputs": [[1.0]], "classes": [0],
                           "num_samples": 1}).encode()
        assert canonical_response_bytes(body) is not None
        assert canonical_response_bytes(b"not json") is None
        assert canonical_response_bytes({"error": "boom"}) is None
        assert canonical_response_bytes(None) is None

    def test_splice_grafts_fields_without_touching_numbers(self):
        canonical = canonical_response_bytes(
            {"outputs": [[0.1 + 0.2]], "classes": [0], "num_samples": 1})
        spliced = json.loads(splice_json(
            canonical, {"model": "m@v1", "cached": True}))
        assert spliced["outputs"] == [[0.1 + 0.2]]
        assert spliced["model"] == "m@v1" and spliced["cached"] is True
        assert splice_json(canonical, {}) == canonical


class TestRequestSplice:
    """The router→worker hop: the client's request bytes plus the hop's
    fields, never a re-encode of the inputs."""

    FIELDS = {"priority": "batch", "tenant": "bulk", "deadline_ms": 12.5,
              "no_cache": True}

    @pytest.mark.parametrize("body", [
        b'{"inputs": [[0.30000000000000004, 1e-300]]}',
        b'{"inputs": [1.0, 2.0]}  \t ',
        b'{"inputs": [1.0]}\n',
        b'{"inputs": [1.0]}\r\n',
        b'  {"inputs": [1.0]} ',
        # Client-sent hop fields: the spliced values must win.
        b'{"inputs": [1.0], "priority": "interactive", "tenant": "client", '
        b'"deadline_ms": 5000, "no_cache": false, "model": "toy"}\n',
        b'{}',
        b'{ }\n',
    ])
    def test_splice_equals_a_dict_merge(self, body):
        spliced = splice_json(body, self.FIELDS)
        assert json.loads(spliced) == {**json.loads(body), **self.FIELDS}

    def test_client_bytes_are_forwarded_unchanged(self):
        body = (b'{"inputs": [[0.1, 2.5e-17, -3.0]], "model": "toy", '
                b'"deadline_ms": 5000}\r\n')
        spliced = splice_json(body, self.FIELDS)
        kept = body.rstrip()[:-1]              # everything before the "}"
        assert spliced.startswith(kept)
        assert spliced[len(kept):] == (b", " + json.dumps(
            self.FIELDS).encode()[1:])


# --------------------------------------------------------------------------- #
# ResultCache — LRU, byte budget, namespace invalidation, epoch guard
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_hit_after_fill(self):
        cache = ResultCache(1 << 20)
        status, call = cache.begin("m@v1", "h1")
        assert status == "lead"
        cache.insert("m@v1", "h1", b'{"outputs": [1]}')
        cache.finish_leader(call, b'{"outputs": [1]}')
        status, value = cache.begin("m@v1", "h1")
        assert status == "hit" and value == b'{"outputs": [1]}'
        assert cache.snapshot()["hit_rate"] == 0.5

    def test_lru_eviction_respects_byte_budget(self):
        cache = ResultCache(64)
        cache.insert("m@v1", "a", b"x" * 30)
        cache.insert("m@v1", "b", b"y" * 30)
        assert cache.begin("m@v1", "a")[0] == "hit"   # refresh a's recency
        cache.insert("m@v1", "c", b"z" * 30)           # evicts b (LRU)
        assert cache.begin("m@v1", "a")[0] == "hit"
        status, _ = cache.begin("m@v1", "b")
        assert status == "lead"
        snap = cache.snapshot()
        assert snap["evictions"] == 1 and snap["bytes"] <= 64

    def test_oversize_values_skipped(self):
        cache = ResultCache(16)
        assert not cache.insert("m@v1", "big", b"x" * 17)
        assert cache.snapshot()["skipped_oversize"] == 1
        assert len(cache) == 0

    def test_invalidate_namespace_is_scoped(self):
        cache = ResultCache(1 << 20)
        cache.insert("m@v1", "a", b"1")
        cache.insert("m@v1", "b", b"2")
        cache.insert("m@v2", "a", b"3")
        assert cache.invalidate_namespace("m@v1") == 2
        assert cache.begin("m@v2", "a")[0] == "hit"
        assert cache.begin("m@v1", "a")[0] == "lead"

    def test_epoch_guard_refuses_stale_fills(self):
        """The promote-during-dispatch race: a fill that captured its epoch
        before an invalidation must never land."""
        cache = ResultCache(1 << 20)
        epoch = cache.epoch()
        status, call = cache.begin("m@v1", "h")
        assert status == "lead"
        cache.invalidate_namespace("m@v1")     # lifecycle flip mid-dispatch
        assert not cache.insert("m@v1", "h", b"stale", epoch=epoch)
        cache.finish_leader(call, b"stale")    # followers still get bytes
        assert cache.begin("m@v1", "h")[0] == "lead"   # but nothing cached
        assert cache.snapshot()["stale_fills_skipped"] == 1

    def test_disabled_cache_never_stores(self):
        cache = ResultCache(0)
        assert not cache.insert("m@v1", "h", b"x")
        assert cache.begin("m@v1", "h")[0] == "lead"


class TestCoalescing:
    def test_followers_receive_leader_bytes(self):
        cache = ResultCache(1 << 20)
        _, leader = cache.begin("m@v1", "h")
        served = []

        def follow():
            status, call = cache.begin("m@v1", "h")
            assert status == "follow"
            assert call.wait(5.0) and call.ok
            served.append(call.value)

        threads = [threading.Thread(target=follow) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)                       # let followers join
        cache.finish_leader(leader, b"bytes")
        for t in threads:
            t.join(5.0)
        assert served == [b"bytes"] * 4
        snap = cache.snapshot()["coalesce"]
        assert snap["followers"] == 4 and snap["max_fan_in"] == 5

    def test_failed_leader_elects_a_successor(self):
        cache = ResultCache(1 << 20)
        _, leader = cache.begin("m@v1", "h")
        cache.finish_leader(leader, None)      # leader died
        assert leader.event.is_set() and not leader.ok
        status, _ = cache.begin("m@v1", "h")   # next request takes the lead
        assert status == "lead"

    def test_follower_wait_times_out(self):
        cache = ResultCache(1 << 20)
        cache.begin("m@v1", "h")
        _, call = cache.begin("m@v1", "h")
        assert not call.wait(0.01)


# --------------------------------------------------------------------------- #
# cache_affinity routing + Zipf load generator
# --------------------------------------------------------------------------- #
class TestCacheAffinityPolicy:
    def test_same_key_pins_same_worker(self):
        policy = CacheAffinityPolicy()
        workers = ["w0", "w1", "w2"]
        key = canonical_input_hash(np.ones((1, 4)))
        picks = {policy.choose(workers, model="m", key=key) for _ in range(8)}
        assert len(picks) == 1

    def test_keys_spread_across_workers(self):
        policy = CacheAffinityPolicy()
        workers = list(range(4))
        rng = np.random.default_rng(0)
        picks = {policy.choose(workers, model="m",
                               key=canonical_input_hash(rng.normal(size=(4,))))
                 for _ in range(64)}
        assert len(picks) == 4

    def test_falls_back_to_model_affinity_without_a_key(self):
        policy = CacheAffinityPolicy()
        workers = ["w0", "w1", "w2"]
        assert (policy.choose(workers, model="m", key="")
                == workers[stable_route_hash("m") % 3])


class TestZipfWorkload:
    def test_deterministic_and_skewed(self):
        items = list(range(64))
        workload = ZipfWorkload(items, alpha=1.2, seed=3)
        first = workload.indices(200, stream=1)
        again = ZipfWorkload(items, alpha=1.2, seed=3).indices(200, stream=1)
        assert list(first) == list(again)
        # Zipf: the head rank dominates; repeats make a real hit rate.
        assert workload.expected_hit_rate(200) > 0.5
        flat = ZipfWorkload(items, alpha=0.01, seed=3)
        assert workload.expected_hit_rate(200) > flat.expected_hit_rate(200)


# --------------------------------------------------------------------------- #
# Runtime verification: cache parity + cross-request argmax keying
# --------------------------------------------------------------------------- #
class TestCacheInvariants:
    def test_input_key_checks_span_distinct_traces(self):
        """With a canonical input key, *any* two executions of the same
        input against the same version must agree on the argmax — not just
        retries of one trace."""
        monitor = InvariantMonitor(1)
        key = "m@v1:" + canonical_input_hash(np.ones((1, 4)))
        a = np.array([[0.1, 0.9]])
        b = np.array([[0.9, 0.1]])
        assert not monitor.check_outputs("m@v1", a, trace_id="t1",
                                         input_key=key)
        violations = monitor.check_outputs("m@v1", b, trace_id="t2",
                                           input_key=key)
        assert [v.invariant for v in violations] == ["argmax_stable"]

    def test_trace_keys_still_require_a_retry(self):
        monitor = InvariantMonitor(1)
        a = np.array([[0.1, 0.9]])
        b = np.array([[0.9, 0.1]])
        assert not monitor.check_outputs("m", a, trace_id="t1")
        assert not monitor.check_outputs("m", b, trace_id="t1", attempt=0)


# --------------------------------------------------------------------------- #
# Single-process server end-to-end
# --------------------------------------------------------------------------- #
@pytest.fixture()
def server(bundles):
    registry = ModelRegistry()
    registry.register("m", bundles["v1"])
    return PECANServer(registry, config=ServeConfig.build(
        port=0, cache_mb=8.0))


class TestServerCache:
    def test_hit_is_bitwise_and_flagged(self, server):
        x = np.random.default_rng(2).normal(size=(2, 1, 10, 10))
        fresh = server.predict(x)
        hit = server.predict(x)
        forced = server.predict(x, no_cache=True)
        assert "cached" not in fresh and "cached" not in forced
        assert hit.get("cached") is True and hit["queue_ms"] == 0.0
        assert fresh["outputs"] == hit["outputs"] == forced["outputs"]
        assert fresh["classes"] == hit["classes"]
        snap = server.metrics_snapshot()["cache"]
        assert snap["hits"] == 1 and snap["misses"] == 2 - 1  # no_cache skips
        # hits keep per-class accounting truthful
        assert server.metrics_snapshot()["server"]["requests"]["responses"] == 3

    def test_burst_of_identical_requests_is_one_engine_call(self, server):
        x = np.random.default_rng(3).normal(size=(2, 1, 10, 10))
        barrier = threading.Barrier(8)
        results, errors = [], []

        def fire():
            barrier.wait()
            try:
                results.append(server.predict(x))
            except Exception as exc:           # noqa: BLE001 - recorded below
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert len({json.dumps(r["outputs"]) for r in results}) == 1
        snap = server.metrics_snapshot()["cache"]
        assert snap["misses"] == 1             # exactly one leader executed
        coalesce = snap["coalesce"]
        assert coalesce["leaders"] == 1
        assert coalesce["followers"] == coalesce["followers_served"]

    def test_follower_deadline_honoured(self, bundles):
        """A follower whose deadline expires mid-coalesce gets a timeout,
        not the leader's (late) bytes."""
        from repro.serve.qos import RequestQoS

        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        server = PECANServer(registry, config=ServeConfig.build(
            port=0, cache_mb=8.0))
        x = np.random.default_rng(4).normal(size=(1, 1, 10, 10))
        _, call = server.cache.begin(
            format_versioned("m", 1), canonical_input_hash(x))
        try:
            with pytest.raises(RequestTimeout, match="coalesced"):
                server.predict(x, qos=RequestQoS(
                    priority="interactive",
                    deadline=time.monotonic() + 0.03))
        finally:
            server.cache.finish_leader(call, None)

    def test_promote_retires_outgoing_namespace(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        server = PECANServer(registry, config=ServeConfig.build(
            port=0, cache_mb=8.0))
        x = np.random.default_rng(5).normal(size=(2, 1, 10, 10))
        v1_outputs = server.predict(x)["outputs"]
        assert server.predict(x).get("cached") is True   # primed
        server.deploy_bundle(bundles["v2"], "m")
        server.promote("m", 2)
        after = server.predict(x)
        assert "cached" not in after, "post-promote traffic served stale bytes"
        assert after["outputs"] != v1_outputs
        assert np.array_equal(np.asarray(after["outputs"]),
                              BundleEngine(bundles["v2"]).predict(x))
        assert server.predict(x).get("cached") is True   # new namespace fills
        assert server.metrics_snapshot()["cache"]["invalidations"] >= 1

    def test_explicit_version_namespaces_are_isolated(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        server = PECANServer(registry, config=ServeConfig.build(
            port=0, cache_mb=8.0))
        server.deploy_bundle(bundles["v2"], "m")
        x = np.random.default_rng(6).normal(size=(1, 1, 10, 10))
        active = server.predict(x)             # bare name → v1 namespace
        pinned = server.predict(x, model="m@v2")
        assert active["outputs"] != pinned["outputs"]
        assert server.predict(x, model="m@v2").get("cached") is True
        assert server.predict(x).get("cached") is True

    def test_undeploy_invalidates_namespace(self, bundles):
        registry = ModelRegistry()
        registry.register("m", bundles["v1"])
        server = PECANServer(registry, config=ServeConfig.build(
            port=0, cache_mb=8.0))
        server.deploy_bundle(bundles["v2"], "m")
        x = np.random.default_rng(7).normal(size=(1, 1, 10, 10))
        server.predict(x, model="m@v2")
        assert server.predict(x, model="m@v2").get("cached") is True
        server.undeploy("m@v2")
        assert server.metrics_snapshot()["cache"]["entries"] == 0


# --------------------------------------------------------------------------- #
# Pool end-to-end: router cache, coalescing, lifecycle invalidation, parity
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool(bundles):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=2, policy="cache_affinity", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=5.0, cache_mb=8.0,
        cache_check_every=0, batch_class_samples=3))
    pool.add_bundle(bundles["v1"], name="m")
    pool.start()
    assert pool.wait_ready(120.0), "pool workers never became ready"
    yield pool
    pool.stop(drain=True)


def _worker_engine_calls(client: ServeClient) -> int:
    metrics = client.metrics()
    return sum(worker["server"]["requests"]["total"]
               for worker in metrics["workers"].values()
               if "error" not in worker)


class TestPoolCache:
    def test_hit_is_bitwise_and_bypasses_workers(self, pool, bundles):
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.random.default_rng(10).normal(size=(2, 1, 10, 10))
        fresh = client.predict_response(x)
        before = _worker_engine_calls(client)
        hit = client.predict_response(x)
        assert hit.get("cached") is True
        assert hit["outputs"] == fresh["outputs"]
        assert hit["classes"] == fresh["classes"]
        assert np.array_equal(np.asarray(hit["outputs"]),
                              BundleEngine(bundles["v1"]).predict(x))
        assert _worker_engine_calls(client) == before   # no engine work
        # The router's cache is the only one: workers always run cache-off,
        # and their batchers keep the router's bulk-class sample budget.
        workers = list(client.metrics()["workers"].values())
        assert all(worker["cache"] == {"enabled": False} for worker in workers)
        budgets = [model["batching"]["batch_class_samples"]
                   for worker in workers
                   for model in worker["models"].values()]
        assert budgets and set(budgets) == {3}
        forced = client.predict_response(x, no_cache=True)
        assert "cached" not in forced
        assert forced["outputs"] == fresh["outputs"]

    def test_burst_coalesces_to_one_engine_call(self, pool):
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.random.default_rng(11).normal(size=(2, 1, 10, 10))
        before = _worker_engine_calls(client)
        barrier = threading.Barrier(10)
        results, errors = [], []

        def fire():
            barrier.wait()
            try:
                results.append(client.predict_response(x))
            except Exception as exc:           # noqa: BLE001 - recorded below
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        assert len(results) == 10
        assert len({json.dumps(r["outputs"]) for r in results}) == 1
        assert _worker_engine_calls(client) == before + 1

    def test_promote_never_serves_stale_bytes(self, pool, bundles):
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.random.default_rng(12).normal(size=(2, 1, 10, 10))
        v1_outputs = client.predict_response(x)["outputs"]
        assert client.predict_response(x).get("cached") is True
        client.deploy("m", str(bundles["v2"]), canary_fraction=0.0,
                      auto=False)
        client.promote("m")
        after = client.predict_response(x)
        assert "cached" not in after
        assert after["outputs"] != v1_outputs
        assert np.array_equal(np.asarray(after["outputs"]),
                              BundleEngine(bundles["v2"]).predict(x))
        assert client.predict_response(x).get("cached") is True
        # restore v1 for the other tests (module-scoped pool)
        client.rollback("m")
        restored = client.predict_response(x)
        assert "cached" not in restored        # rollback invalidated v2 too
        assert restored["outputs"] == v1_outputs

    def test_poisoned_entry_trips_cache_parity_invariant(self, pool, bundles):
        """Satellite 2: sampled hits are re-executed on a worker and compared
        bitwise; a corrupted entry must surface as a ``cache_parity``
        violation under ``runtime_verification``."""
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.random.default_rng(13).normal(size=(1, 1, 10, 10))
        client.predict_response(x)             # prime the true entry
        namespace = format_versioned("m", 1)
        poisoned = canonical_response_bytes(
            {"outputs": [[9.0] * 6], "classes": [0], "num_samples": 1})
        assert pool.cache.insert(namespace, canonical_input_hash(x), poisoned)
        pool.cache_check_every = 1             # verify every hit
        try:
            hit = client.predict_response(x)
            assert hit.get("cached") is True
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                counts = (client.metrics()["runtime_verification"]
                          ["by_invariant"])
                if counts.get("cache_parity", 0) >= 1:
                    break
                time.sleep(0.05)
            assert counts.get("cache_parity", 0) >= 1, \
                "poisoned cache entry was never caught"
        finally:
            pool.cache_check_every = 0
            pool.cache.clear()

    def test_sampled_hit_rechecks_share_one_bounded_queue(self, pool):
        """A burst of sampled hits against slowed workers: the router queues
        every re-execution on the monitor's one checker thread and one
        bounded queue.  The overflow is dropped and counted, and a re-run
        that fails (its worker hop times out) counts as an error, never as
        a violation."""
        client = ServeClient(pool.url, timeout_s=30.0)
        x = np.random.default_rng(15).normal(size=(1, 1, 10, 10))
        client.predict_response(x)             # prime the entry
        proxy_timeout_s, burst = pool.proxy_timeout_s, 24
        for worker in pool.ready_workers():
            pool.inject_fault(worker.id, kind="slow", seconds=1.0)
        pool.proxy_timeout_s = 0.3             # a slowed hop now times out
        try:
            deadline = time.monotonic() + 30.0
            while True:                        # until the fault is live
                try:
                    client.predict_response(x, no_cache=True)
                except ServeHTTPError as exc:
                    assert exc.status == 504
                    break
                assert time.monotonic() < deadline, "slow fault never applied"
            before = client.metrics()["runtime_verification"]
            existing = set(threading.enumerate())
            started, watching = set(), threading.Event()

            def watch() -> None:
                # Every thread the router starts while the burst runs.
                while not watching.is_set():
                    started.update(
                        thread for thread in threading.enumerate()
                        if thread not in existing
                        and thread is not threading.current_thread())
                    time.sleep(0.002)

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            pool.cache_check_every = 1         # sample every hit
            try:
                for _ in range(burst):
                    assert client.predict_response(x).get("cached") is True
            finally:
                pool.cache_check_every = 0
                watching.set()
                watcher.join(5.0)
            assert len(started) <= 1, [thread.name for thread in started]
            assert pool.monitor.drain(60.0)
            after = client.metrics()["runtime_verification"]
        finally:
            pool.proxy_timeout_s = proxy_timeout_s
            for worker in pool.ready_workers():
                pool.inject_fault(worker.id, kind="slow", seconds=0.0)

        def grew(key: str) -> int:
            return after[key] - before[key]

        assert grew("dropped") >= 1            # the queue is bounded
        assert grew("errors") >= 1             # timed-out re-runs
        assert grew("violations") == 0
        assert grew("dropped") + grew("errors") + grew("checks") == burst

    def test_crash_mid_leader_call_reelects_and_completes(self, pool):
        """Kill a worker while identical requests are coalesced behind a
        leader dispatched to it: the router's retry plus coalescing
        re-election must complete every request with identical bytes."""
        client = ServeClient(pool.url, timeout_s=60.0)
        x = np.random.default_rng(14).normal(size=(2, 1, 10, 10))
        barrier = threading.Barrier(6 + 1)
        results, errors = [], []

        def fire():
            barrier.wait()
            try:
                results.append(ServeClient(pool.url, timeout_s=60.0)
                               .predict_response(x))
            except Exception as exc:           # noqa: BLE001 - recorded below
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        barrier.wait()                         # release the burst...
        pool.inject_fault(0, "crash")          # ...and kill a worker under it
        for t in threads:
            t.join(120.0)
        assert not errors, errors
        assert len(results) == 6
        assert len({json.dumps(r["outputs"]) for r in results}) == 1
        assert pool.wait_ready(120.0)          # respawn heals the pool


# --------------------------------------------------------------------------- #
# Chaos: Zipf load with crash injection — zero stale, zero failed (slow)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_zipf_load_under_crash_chaos_serves_no_stale_bytes(bundles):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=2, policy="cache_affinity", heartbeat_interval_s=0.1,
        heartbeat_timeout_s=5.0, cache_mb=8.0,
        cache_check_every=0))
    pool.add_bundle(bundles["v1"], name="m")
    pool.start()
    try:
        assert pool.wait_ready(120.0)
        rng = np.random.default_rng(21)
        items = [rng.normal(size=(2, 1, 10, 10)) for _ in range(16)]
        engine = BundleEngine(bundles["v1"])
        references = [canonical_response_bytes(
            {"outputs": engine.predict(item).tolist(),
             "classes": engine.predict(item).argmax(axis=1).tolist(),
             "num_samples": 2}) for item in items]
        workload = ZipfWorkload(items, alpha=1.2, seed=7)
        url = pool.url
        clients = [ServeClient(url, timeout_s=60.0) for _ in range(4)]

        def predict(item, client_index):
            return canonical_response_bytes(
                clients[client_index].predict_response(item))

        crasher = threading.Timer(1.0, pool.inject_fault, args=(0, "crash"))
        crasher.start()
        try:
            result = run_zipf_load(predict, workload, clients=4,
                                   requests_per_client=40,
                                   references=references)
        finally:
            crasher.cancel()
        assert result.errors == [], result.errors[:3]
        assert result.mismatches == 0, "stale/corrupt bytes under chaos"
        assert result.requests == 160
        assert pool.wait_ready(120.0)
    finally:
        pool.stop(drain=True)
