"""Unit and integration tests for the :mod:`repro.serve` subsystem.

Covers the lean import graph (serving must not load the training substrate),
bundle format validation, the dynamic micro-batching scheduler, the LRU model
registry, the metrics accumulator, the sampled parity audit, and the HTTP
server/client pair end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io import export_deployment_bundle, load_deployment_bundle
from repro.io.deployment import BundleFormatError, _MANIFEST_KEY
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import (BundleEngine, DynamicBatcher, ModelRegistry,
                         PECANServer, QueueFullError,
                         RequestTimeout, SchedulerStopped, ServeClient,
                         ServeConfig, ServeHTTPError, ServerMetrics)
from repro.serve import scheduler
from repro.serve.metrics import percentile
from repro.serve.trace import Tracer

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_model(rng):
    """The toy conv→fc PECAN model as an object, for the one test that
    compares a model's engine with its exported bundle's."""
    cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
    model = Sequential(
        Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * 4 * 4, 6, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


@pytest.fixture
def bundle_path(toy_bundle) -> Path:
    return toy_bundle(1234)


@pytest.fixture
def engine(bundle_path) -> BundleEngine:
    return BundleEngine(bundle_path)


# --------------------------------------------------------------------------- #
# Satellite: the serving import graph stays free of training modules
# --------------------------------------------------------------------------- #
class TestImportGraph:
    def test_import_serve_does_not_load_training_modules(self):
        script = (
            "import sys\n"
            "import repro.serve\n"
            "banned = ('repro.autograd', 'repro.optim', 'repro.nn',\n"
            "          'repro.pecan.layers', 'repro.pecan.codebook',\n"
            "          'repro.pecan.similarity', 'repro.pecan.training',\n"
            "          'repro.pecan.convert', 'repro.models', 'repro.data',\n"
            "          'repro.experiments', 'repro.cam.lut', 'repro.cam.inference')\n"
            "loaded = [m for m in sys.modules\n"
            "          if any(m == b or m.startswith(b + '.') for b in banned)]\n"
            "print(json.dumps(loaded)) if False else None\n"
            "assert not loaded, f'training modules leaked into serve: {loaded}'\n"
            "print('LEAN')\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert "LEAN" in result.stdout

    def test_loading_a_bundle_stays_lean(self, bundle_path):
        script = (
            "import sys\n"
            "from repro.serve import BundleEngine\n"
            "import numpy as np\n"
            f"engine = BundleEngine({str(bundle_path)!r})\n"
            "engine.predict(np.zeros((2, 1, 10, 10)))\n"
            "leaked = [m for m in sys.modules\n"
            "          if m.startswith('repro.autograd') or m.startswith('repro.optim')\n"
            "          or m.startswith('repro.nn')]\n"
            "assert not leaked, leaked\n"
            "print('LEAN')\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert "LEAN" in result.stdout

    def test_cli_serve_parse_stays_lean(self):
        # The production entry point `repro-pecan serve` must not pay for (or
        # depend on) the training stack either.
        script = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['serve', '--bundle', 'x.npz'])\n"
            "banned = ('repro.autograd', 'repro.optim', 'repro.nn',\n"
            "          'repro.experiments', 'repro.models', 'repro.data')\n"
            "loaded = [m for m in sys.modules\n"
            "          if any(m == b or m.startswith(b + '.') for b in banned)]\n"
            "assert not loaded, f'training modules leaked into cli serve: {loaded}'\n"
            "print('LEAN')\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert "LEAN" in result.stdout

    def test_lazy_top_level_reexports_still_work(self):
        import repro
        assert repro.PECANMode.parse("adder").value == "distance"
        assert callable(repro.convert_to_pecan)


# --------------------------------------------------------------------------- #
# Satellite: bundle format validation
# --------------------------------------------------------------------------- #
class TestBundleValidation:
    def _rewrite(self, path, mutate, drop=()):
        """Rewrite a bundle with a mutated manifest / dropped arrays."""
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files if key not in drop}
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY].tobytes()).decode())
        mutate(manifest)
        arrays[_MANIFEST_KEY] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        out = path.parent / "mutated.npz"
        np.savez(out, **arrays)
        return out

    def test_unknown_format_version_is_clear(self, bundle_path):
        bad = self._rewrite(bundle_path, lambda m: m.update(format_version=99))
        with pytest.raises(BundleFormatError, match="format version 99"):
            load_deployment_bundle(bad)

    def test_missing_format_version_is_clear(self, bundle_path):
        bad = self._rewrite(bundle_path, lambda m: m.pop("format_version"))
        with pytest.raises(BundleFormatError, match="format version"):
            load_deployment_bundle(bad)

    def test_missing_layer_key_names_layer_and_key(self, bundle_path):
        def mutate(manifest):
            next(iter(manifest["layers"].values())).pop("stride")
        with pytest.raises(BundleFormatError, match="stride"):
            load_deployment_bundle(self._rewrite(bundle_path, mutate))

    def test_missing_array_is_reported(self, bundle_path):
        bundle = load_deployment_bundle(bundle_path)
        victim = f"{bundle.layer_names[0]}/prototypes"
        bad = self._rewrite(bundle_path, lambda m: None, drop=(victim,))
        with pytest.raises(BundleFormatError, match="missing array"):
            load_deployment_bundle(bad)

    def test_corrupt_manifest_is_reported(self, bundle_path, tmp_path):
        with np.load(bundle_path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays[_MANIFEST_KEY] = np.frombuffer(b"{not json", dtype=np.uint8)
        bad = tmp_path / "corrupt.npz"
        np.savez(bad, **arrays)
        with pytest.raises(BundleFormatError, match="corrupt"):
            load_deployment_bundle(bad)

    def test_not_a_bundle_is_reported(self, tmp_path):
        bad = tmp_path / "random.npz"
        np.savez(bad, data=np.zeros(3))
        with pytest.raises(BundleFormatError, match="not a repro deployment bundle"):
            load_deployment_bundle(bad)

    def test_bundle_errors_are_value_errors(self):
        assert issubclass(BundleFormatError, ValueError)

    def test_v1_bundle_without_program_still_loads(self, bundle_path):
        def mutate(manifest):
            manifest["format_version"] = 1
            manifest.pop("graph")
            manifest.pop("graph_output")
            manifest.pop("input_shape")
        old = self._rewrite(bundle_path, mutate)
        bundle = load_deployment_bundle(old)
        assert not bundle.has_program
        with pytest.raises(ValueError, match="no inference program"):
            BundleEngine(bundle)


# --------------------------------------------------------------------------- #
# Engine basics (full parity lives in test_serve_parity.py)
# --------------------------------------------------------------------------- #
class TestBundleEngine:
    def test_input_shape_enforced(self, engine):
        with pytest.raises(ValueError, match="input shape"):
            engine.predict(np.zeros((2, 3, 10, 10)))

    def test_batch_chunk_matches_unchunked(self, engine, rng):
        x = rng.standard_normal((5, 1, 10, 10))
        np.testing.assert_array_equal(engine.predict(x),
                                      engine.predict(x, batch_chunk=2))

    def test_stats_snapshot_shape(self, engine, rng):
        engine.predict(rng.standard_normal((2, 1, 10, 10)))
        snap = engine.stats_snapshot()
        assert snap["multiplier_free"]
        assert snap["cam"]["searches"] > 0
        assert snap["stored_values"] == engine.bundle.total_values()
        assert set(snap["kernels"]) == set(engine.bundle.layer_names)

    def test_op_counts_match_model_engine(self, bundle_path, rng):
        from repro.cam.inference import CAMInferenceEngine
        model = small_model(rng)
        x = rng.standard_normal((3, 1, 10, 10))
        bundle_engine = BundleEngine(
            export_deployment_bundle(model, bundle_path.parent / "again.npz",
                                     input_shape=(1, 10, 10)))
        model_engine = CAMInferenceEngine(model)
        bundle_engine.predict(x)
        model_engine.predict(x)
        assert bundle_engine.op_counter.summary() == model_engine.op_counter.summary()


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #
class TestDynamicBatcher:
    def test_coalesces_queued_singles_into_one_batch(self):
        batches = []

        def predict(x):
            batches.append(x.shape[0])
            return x.sum(axis=(1, 2, 3), keepdims=False)[:, None]

        batcher = DynamicBatcher(predict, max_batch_size=8)
        # Enqueue before starting the worker: deterministic coalescing.
        requests = [batcher.submit(np.full((1, 2, 3, 3), float(i))) for i in range(6)]
        batcher.start()
        results = [request.result(timeout=5.0) for request in requests]
        batcher.stop()
        assert batches == [6]
        assert batcher.metrics.batch_size_histogram == {6: 1}
        for i, result in enumerate(results):
            assert result.shape == (1, 1)
            np.testing.assert_allclose(result[0, 0], i * 18.0)

    def test_engine_cpu_time_rides_next_to_its_wall_time(self):
        """The ``batch.infer`` span carries the engine thread's CPU time for
        the call, which can never exceed the span's wall time, and
        ``/metrics`` reports it beside the inference latency."""
        tracer = Tracer("test")
        batcher = DynamicBatcher(lambda x: np.zeros((x.shape[0], 1)), tracer=tracer)
        requests = [batcher.submit(np.zeros((1, 2)), trace_id=f"{i:032x}")
                    for i in range(1, 4)]
        batcher.start()
        for request in requests:
            request.result(timeout=5.0)
        batcher.stop()
        spans = [span for request in requests
                 for span in tracer.find(request.trace_id)
                 if span["name"] == "batch.infer"]
        assert len(spans) == 3
        for span in spans:
            assert 0.0 <= span["attrs"]["cpu_ms"] <= span["duration_ms"] + 0.05
        snap = batcher.metrics.snapshot()
        assert snap["inference_cpu"]["count"] == snap["inference"]["count"] == 1

    def test_respects_max_batch_size(self):
        batches = []

        def predict(x):
            batches.append(x.shape[0])
            return np.zeros((x.shape[0], 1))

        batcher = DynamicBatcher(predict, max_batch_size=4)
        requests = [batcher.submit(np.zeros((1, 2))) for _ in range(10)]
        batcher.start()
        for request in requests:
            request.result(timeout=5.0)
        batcher.stop()
        assert max(batches) <= 4
        assert sum(batches) == 10

    def test_queue_full_rejects_with_backpressure(self):
        batcher = DynamicBatcher(lambda x: x, max_queue_depth=2)
        batcher.submit(np.zeros((1, 2)))
        batcher.submit(np.zeros((1, 2)))
        with pytest.raises(QueueFullError):
            batcher.submit(np.zeros((1, 2)))
        assert batcher.metrics.rejected_total == 1
        batcher.stop(drain=False)

    def test_expired_requests_are_failed_not_run(self):
        batcher = DynamicBatcher(lambda x: x, request_timeout_s=0.0)
        request = batcher.submit(np.zeros((1, 2)), timeout_s=1e-6)
        import time
        time.sleep(0.01)
        batcher.start()
        with pytest.raises(RequestTimeout):
            request.result(timeout=5.0)
        batcher.stop()
        assert batcher.metrics.timeouts_total == 1

    def test_engine_error_propagates_to_all_requests(self):
        def predict(x):
            raise RuntimeError("engine exploded")

        batcher = DynamicBatcher(predict)
        requests = [batcher.submit(np.zeros((1, 2))) for _ in range(3)]
        batcher.start()
        for request in requests:
            with pytest.raises(RuntimeError, match="engine exploded"):
                request.result(timeout=5.0)
        batcher.stop()
        assert batcher.metrics.errors_total == 1

    def test_stop_fails_pending_and_refuses_new_work(self):
        batcher = DynamicBatcher(lambda x: x)
        request = batcher.submit(np.zeros((1, 2)))
        batcher.stop(drain=False)
        with pytest.raises(SchedulerStopped):
            request.result(timeout=1.0)
        with pytest.raises(SchedulerStopped):
            batcher.submit(np.zeros((1, 2)))

    def test_never_overshoots_sample_budget(self):
        batches = []

        def predict(x):
            batches.append(x.shape[0])
            return np.zeros((x.shape[0], 1))

        batcher = DynamicBatcher(predict, max_batch_size=8)
        sizes = [6, 5, 3, 9]          # 6+5 would overshoot; 9 alone exceeds it
        requests = [batcher.submit(np.zeros((size, 2))) for size in sizes]
        batcher.start()
        for request in requests:
            request.result(timeout=5.0)
        batcher.stop()
        # The oversized follower seeds the next batch; only a request that is
        # single-handedly above the budget may exceed it (dispatching alone).
        assert batches == [6, 8, 9]

    def test_multi_sample_requests_coalesce_and_split(self):
        def predict(x):
            return x[:, :1, 0, 0] * 2.0

        batcher = DynamicBatcher(predict, max_batch_size=16)
        a = batcher.submit(np.ones((3, 1, 2, 2)))
        b = batcher.submit(np.full((2, 1, 2, 2), 5.0))
        batcher.start()
        ra, rb = a.result(timeout=5.0), b.result(timeout=5.0)
        batcher.stop()
        assert ra.shape == (3, 1) and rb.shape == (2, 1)
        np.testing.assert_allclose(ra, 2.0)
        np.testing.assert_allclose(rb, 10.0)


class TestWorkConservingDispatch:
    """``_collect_batch`` dispatches the moment nothing queued can join.

    Each test calls ``_collect_batch`` directly on an unstarted batcher with
    every way of idling — ``Condition.wait`` and ``time.sleep`` — patched to
    raise on the calling thread, so holding a batch open for followers fails
    the test outright instead of showing up as a timing difference.
    """

    @pytest.fixture
    def no_idle(self, monkeypatch):
        caller = threading.current_thread()
        real_sleep = time.sleep

        def refuse(*args, **kwargs):
            raise AssertionError("the batcher idled with a batch in hand")

        def sleep(seconds):
            if threading.current_thread() is caller:
                refuse()
            real_sleep(seconds)

        def forbid(batcher):
            monkeypatch.setattr(batcher._cond, "wait", refuse)
            return batcher

        monkeypatch.setattr(scheduler.time, "sleep", sleep)
        return forbid

    def test_lone_request_dispatches_alone(self, no_idle):
        batcher = no_idle(DynamicBatcher(lambda x: x, max_batch_size=32))
        request = batcher.submit(np.zeros((1, 2)))
        assert batcher._collect_batch() == [request]
        assert batcher.queue_depth == 0

    def test_bulk_requests_over_the_bulk_budget_dispatch_one_by_one(
            self, no_idle):
        # The perfbench bulk shape: 8-sample batch-class requests against a
        # 32-sample budget spend the whole bulk share (32 // 4 = 8) alone.
        batcher = no_idle(DynamicBatcher(lambda x: x, max_batch_size=32))
        first = batcher.submit(np.zeros((8, 2)), priority="batch")
        second = batcher.submit(np.zeros((8, 2)), priority="batch")
        assert batcher.batch_class_samples == 8
        assert batcher._collect_batch() == [first]
        assert batcher._collect_batch() == [second]

    def test_drains_everything_queued_in_priority_order(self, no_idle):
        batcher = no_idle(DynamicBatcher(lambda x: x, max_batch_size=32))
        bulk = batcher.submit(np.zeros((2, 2)), priority="batch")
        standard = batcher.submit(np.zeros((1, 2)))
        interactive = batcher.submit(np.zeros((1, 2)), priority="interactive")
        assert batcher._collect_batch() == [interactive, standard, bulk]

    def test_overshooting_follower_is_carried_without_waiting(self, no_idle):
        batcher = no_idle(DynamicBatcher(lambda x: x, max_batch_size=8))
        first = batcher.submit(np.zeros((6, 2)))
        second = batcher.submit(np.zeros((5, 2)))
        assert batcher._collect_batch() == [first]
        assert batcher._collect_batch() == [second]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_lazy_load_and_describe(self, bundle_path):
        registry = ModelRegistry()
        registry.register("toy", bundle_path)
        listing = registry.describe()
        assert listing["models"][0]["loaded"] is False
        engine = registry.get_engine("toy")
        assert isinstance(engine, BundleEngine)
        assert registry.describe()["models"][0]["loaded"] is True
        assert registry.resident_values() == engine.bundle.total_values()

    def test_unknown_and_duplicate_names(self, bundle_path):
        registry = ModelRegistry()
        registry.register("toy", bundle_path)
        with pytest.raises(KeyError, match="unknown"):
            registry.get_engine("unknown")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("toy", bundle_path)
        with pytest.raises(FileNotFoundError):
            registry.register("ghost", bundle_path.parent / "ghost.npz")

    def test_lru_eviction_by_total_values(self, toy_bundle):
        paths = {name: toy_bundle(seed, name=name)
                 for seed, name in enumerate(("a", "b", "c"))}
        one = BundleEngine(paths["a"]).bundle.total_values()
        registry = ModelRegistry(max_total_values=2 * one)
        for name in ("a", "b", "c"):
            registry.register(name, paths[name])
        registry.get_engine("a")
        registry.get_engine("b")
        registry.get_engine("c")                      # evicts "a" (LRU)
        loaded = {m["name"]: m["loaded"] for m in registry.describe()["models"]}
        assert loaded == {"a": False, "b": True, "c": True}
        assert registry.evictions_total == 1
        registry.get_engine("a")                      # reload evicts "b"
        loaded = {m["name"]: m["loaded"] for m in registry.describe()["models"]}
        assert loaded == {"a": True, "b": False, "c": True}


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.5) == pytest.approx(2.5)
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile([], 0.5) == 0.0

    def test_snapshot_aggregates(self):
        metrics = ServerMetrics()
        metrics.record_submitted(4)
        metrics.record_batch(4, 0.010)
        metrics.record_completed(0.015, 0.005)
        metrics.record_rejected()
        snap = metrics.snapshot(queue_depth=3)
        assert snap["requests"]["total"] == 2
        assert snap["requests"]["rejected"] == 1
        assert snap["batching"]["histogram"] == {"4": 1}
        assert snap["batching"]["mean_batch"] == 4.0
        assert snap["queue_depth"] == 3
        assert snap["latency"]["p95_ms"] == pytest.approx(15.0)
        # Audit counts live under /metrics -> runtime_verification only.
        assert "parity_audit" not in snap


# --------------------------------------------------------------------------- #
# Parity audit
# --------------------------------------------------------------------------- #
class TestParityAuditor:
    """Sampled fused-vs-reference audits: the server's batch hook queues a
    re-run through the reference engine on the invariant monitor."""

    @staticmethod
    def audit(bundle_path, every, batches):
        """Feed ``(inputs, outputs)`` batches to the served model's batch
        hook; return the drained monitor snapshot and the reference engine
        the batches were re-run through."""
        server = PECANServer(config=ServeConfig.build(
            audit_every=every, cache_mb=0.0, mmap=False))
        server.add_bundle(bundle_path, name="toy", preload=True)
        try:
            served = server._served["toy"]
            for inputs, outputs in batches:
                served.batcher.on_batch(inputs, outputs)
            assert server.monitor.drain()
            return server.monitor.snapshot(), served.reference
        finally:
            server.stop()

    def test_clean_traffic_has_no_mismatches(self, bundle_path, engine, rng):
        x = rng.standard_normal((3, 1, 10, 10))
        snap, reference = self.audit(bundle_path, 1, [(x, engine.predict(x))])
        assert snap["checks"] == 1
        assert snap["by_invariant"]["parity_audit"] == 0
        assert snap["errors"] == 0 and snap["dropped"] == 0
        # PECAN-D bundles audit bitwise.
        assert reference.bundle.is_multiplier_free()

    def test_detects_corrupted_outputs(self, bundle_path, engine, rng):
        x = rng.standard_normal((2, 1, 10, 10))
        outputs = engine.predict(x) + 1e-3        # simulated kernel regression
        snap, _ = self.audit(bundle_path, 1, [(x, outputs)])
        assert snap["by_invariant"]["parity_audit"] == 1
        violation = snap["recent"][-1]
        assert violation["invariant"] == "parity_audit"
        assert violation["model"] == "toy"
        assert violation["max_abs_error"] == pytest.approx(1e-3)

    def test_sampling_rate(self, bundle_path, engine, rng):
        x = rng.standard_normal((1, 1, 10, 10))
        y = engine.predict(x)
        snap, _ = self.audit(bundle_path, 4, [(x, y)] * 8)
        assert snap["checks"] == 2                # batches 1 and 5


# --------------------------------------------------------------------------- #
# HTTP server + client, end to end
# --------------------------------------------------------------------------- #
class TestServerEndToEnd:
    @pytest.fixture
    def server(self, bundle_path):
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8, audit_every=1,
            cache_mb=0.0, mmap=False))
        server.add_bundle(bundle_path, name="toy", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            yield server, client

    def test_predict_matches_engine_bitwise(self, server, bundle_path, rng):
        _, client = server
        engine = BundleEngine(bundle_path)
        x = rng.standard_normal((4, 1, 10, 10))
        response = client.predict_response(x)
        np.testing.assert_array_equal(np.asarray(response["outputs"]),
                                      engine.predict(x))
        assert response["classes"] == engine.predict(x).argmax(axis=1).tolist()
        assert response["model"] == "toy"

    def test_single_sample_gets_batch_axis(self, server, rng):
        _, client = server
        logits = client.predict(rng.standard_normal((1, 10, 10)))
        assert logits.shape == (1, 6)

    def test_concurrent_singles_are_coalesced(self, server, bundle_path, rng):
        pecan_server, client = server
        engine = BundleEngine(bundle_path)
        xs = rng.standard_normal((12, 1, 10, 10))
        expected = engine.predict(xs)
        results = [None] * 12
        # Hold the first dispatch in the engine until every other request is
        # queued: whatever arrives during one inference joins the next batch.
        batcher = pecan_server._served["toy"].batcher
        inner = batcher.predict_fn
        first_call = threading.Event()
        gate_reached = []

        def gated(x):
            if not first_call.is_set():
                first_call.set()
                deadline = time.monotonic() + 30.0
                while (batcher.queue_depth < 12 - x.shape[0]
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
                gate_reached.append(batcher.queue_depth == 12 - x.shape[0])
            return inner(x)

        batcher.predict_fn = gated

        def fire(i):
            results[i] = client.predict(xs[i:i + 1])

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i in range(12):
            np.testing.assert_array_equal(results[i][0], expected[i])
        assert gate_reached == [True]
        # The acceptance check: concurrent singles coalesced into batches > 1.
        assert pecan_server.metrics.max_batch_observed() > 1
        histogram = client.metrics()["server"]["batching"]["histogram"]
        assert any(int(size) > 1 for size in histogram)

    def test_metrics_endpoint_carries_engine_and_audit_stats(self, server, rng):
        pecan_server, client = server
        # Output sampling off, so `checks` counts the parity audits alone.
        pecan_server.monitor.every = 0
        client.predict(rng.standard_normal((2, 1, 10, 10)))
        # The scheduler unblocks the caller *before* it hands the batch to
        # the audit hook (audits must never delay results), so poll: drain
        # only empties work that has already been enqueued.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            pecan_server.monitor.drain()
            snap = client.metrics()
            if snap["runtime_verification"]["checks"] >= 1:
                break
            time.sleep(0.01)
        assert snap["models"]["toy"]["engine"]["multiplier_free"]
        assert snap["models"]["toy"]["engine"]["cam"]["searches"] > 0
        assert snap["models"]["toy"]["engine"]["cam"]["energy"] > 0
        verification = snap["runtime_verification"]
        assert verification["by_invariant"]["parity_audit"] == 0
        assert verification["checks"] >= 1
        assert "parity_audit" not in snap["server"]
        assert "parity_audit" not in snap["models"]["toy"]
        assert snap["registry"]["models"][0]["name"] == "toy"

    def test_http_error_codes(self, server, rng):
        _, client = server
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(rng.standard_normal((2, 1, 10, 10)), model="nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(rng.standard_normal((2, 3, 4, 4)))
        assert excinfo.value.status == 400
        with pytest.raises(ServeHTTPError) as excinfo:
            client._request("/predict", {"not_inputs": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeHTTPError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404
        # A malformed request must never wedge the batcher: valid traffic
        # keeps flowing after every rejection above.
        assert client.predict(rng.standard_normal((1, 1, 10, 10))).shape == (1, 6)

    def test_shape_mismatch_rejected_at_admission_not_in_batch(self, server, rng):
        # Concurrent good and bad requests: the bad one gets its own 400 and
        # must not poison the batch it would have coalesced into.
        _, client = server
        outcomes = {}

        def good():
            outcomes["good"] = client.predict(rng.standard_normal((2, 1, 10, 10)))

        def bad():
            try:
                client.predict(rng.standard_normal((2, 1, 10, 9)))
            except ServeHTTPError as exc:
                outcomes["bad"] = exc.status

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes["bad"] == 400
        assert outcomes["good"].shape == (2, 6)

    def test_healthz_and_models(self, server):
        _, client = server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == ["toy"]
        models = client.models()
        assert models["models"][0]["multiplier_free"]
        assert models["models"][0]["input_shape"] == [1, 10, 10]


class TestServerEviction:
    def test_registry_eviction_retires_served_record(self, rng, toy_bundle):
        paths = {name: toy_bundle(seed, name=name)
                 for seed, name in enumerate(("a", "b"))}
        one = BundleEngine(paths["a"]).bundle.total_values()
        registry = ModelRegistry(max_total_values=one)       # room for one engine
        server = PECANServer(registry=registry, config=ServeConfig.build(
            port=0, audit_every=1, cache_mb=0.0))
        server.add_bundle(paths["a"], name="a")
        server.add_bundle(paths["b"], name="b")
        x = rng.standard_normal((1, 1, 10, 10))
        try:
            server.predict(x, model="a")
            retired_batcher = server._served["a"].batcher
            server.predict(x, model="b")                     # evicts "a"
            assert "a" not in server._served                 # record released
            assert retired_batcher._stopped                  # batcher retired
            assert set(registry.loaded_names()) == {"b"}
            # The evicted model still answers: it reloads (and evicts "b").
            assert "outputs" in server.predict(x, model="a")
            assert set(registry.loaded_names()) == {"a"}
        finally:
            server.stop()

    def test_default_registry_honours_engine_config(self, rng, toy_bundle):
        # Without an explicit registry the server builds one from
        # config.engine: the value budget, the optimization passes and eager
        # (non-mmap) loading must all reach the engines it serves.
        paths = {name: toy_bundle(seed, name=name)
                 for seed, name in enumerate(("a", "b"))}
        one = BundleEngine(paths["a"]).bundle.total_values()
        server = PECANServer(config=ServeConfig.build(
            max_total_values=one, optimize=True, mmap=False,
            cache_mb=0.0))
        server.add_bundle(paths["a"], name="a")
        server.add_bundle(paths["b"], name="b")
        x = rng.standard_normal((1, 1, 10, 10))
        try:
            server.predict(x, model="a")
            outputs = server.predict(x, model="b")["outputs"]    # evicts "a"
            assert set(server.registry.loaded_names()) == {"b"}
            engine = server._served["b"].engine
            assert engine.optimized
            assert engine.mmap_mode is None
            lut = next(iter(engine.bundle.luts.values()))
            assert not isinstance(lut.table, np.memmap)
            np.testing.assert_allclose(
                outputs, BundleEngine(paths["b"]).predict(x), atol=1e-8)
        finally:
            server.stop()


class TestServeCLI:
    def test_serve_command_round_trip(self, bundle_path, rng):
        # The context manager closes the stdout/stderr pipes on exit.
        with subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--bundle", f"toy={bundle_path}", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}) as process:
            try:
                url = None
                for _ in range(3):
                    line = process.stdout.readline()
                    if line.startswith("serving on "):
                        url = line.split()[2]
                        break
                assert url, "CLI never reported its URL"
                with ServeClient(url) as client:
                    assert client.wait_ready(10.0)
                    logits = client.predict(
                        rng.standard_normal((2, 1, 10, 10)))
                    assert logits.shape == (2, 6)
                    assert client.healthz()["models"] == ["toy"]
            finally:
                process.terminate()
                process.wait(timeout=10)

    def test_parse_bundle_spec(self):
        from repro.cli import _parse_bundle_spec
        assert _parse_bundle_spec("a=/x/y.npz") == ("a", "/x/y.npz")
        assert _parse_bundle_spec("/x/y.npz") == (None, "/x/y.npz")
