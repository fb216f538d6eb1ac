"""Bench PR3 — serving a *residual* (graph-IR) bundle end to end.

PR2's serving bench used a sequential toy network because the linear program
recorder could not express anything else.  The graph IR lifts that limit:
this bench exports a PECAN-D **ResNet-20** (residual adds + option-A concat
shortcuts) to a format-v3 bundle and drives it through the full serving stack
— bundle-backed engine, dynamic micro-batching, HTTP front end — with eight
concurrent closed-loop single-sample clients at scheduler batch budgets
{1, 8, 32}.  Sustained requests/s and p50/p95/p99 latency per configuration
are recorded into ``.bench_results/BENCH_PR3.json``, alongside a
direct-engine comparison of the traced (unfolded) graph, built in process,
vs. the exported bundle's graph (BN-folded + ReLU-fused at export).

Asserts:

* responses are bitwise-identical to a direct :class:`BundleEngine` pass,
* the sampled parity audit ran at every budget and saw zero mismatches,
* micro-batching at budget 32 sustains at least 0.6× the req/s of budget 1
  (generous floor: 1.5 s windows on shared CI boxes are noisy),
* the exported, folded graph loses no accuracy (allclose to the unfolded
  engine) and has fewer nodes.

Run it alone with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_graph_serving.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np
import pytest

from bench_results import result_path
from harness import bench_model, run_singles, unfolded_bundle
from repro.io import export_deployment_bundle
from repro.serve import BundleEngine, PECANServer, ServeClient, ServeConfig

RESULT_PATH = result_path("BENCH_PR3.json")

BATCH_BUDGETS = (1, 8, 32)
CLIENTS = 8
#: Env-tunable so the CI bench-smoke job can run a tiny version.
WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "1.5"))
IMAGE = 16
IN_CHANNELS = 3
WIDTH = 0.125
PROTOTYPE_CAP = 4


def _engine_throughput(engine: BundleEngine, images: np.ndarray,
                       batch: int = 8, window_s: float = 0.75):
    """Direct-engine batched throughput (samples/s), no HTTP in the way."""
    stop_at = time.monotonic() + window_s
    samples = 0
    started = time.monotonic()
    while time.monotonic() < stop_at:
        engine.predict(images[:batch])
        samples += batch
    return round(samples / (time.monotonic() - started), 1)


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    shape = (IN_CHANNELS, IMAGE, IMAGE)
    model = bench_model(arch="resnet20_pecan_d", width=WIDTH,
                        prototypes=PROTOTYPE_CAP, image=IMAGE,
                        in_channels=IN_CHANNELS)
    bundle_path = export_deployment_bundle(
        model, tmp_path_factory.mktemp("graph_serving") / "resnet_bench.npz",
        input_shape=shape)
    engine = BundleEngine(bundle_path)
    unfolded = BundleEngine(unfolded_bundle(model, shape))
    rng = np.random.default_rng(1)
    images = rng.standard_normal((64, *shape))
    expected = engine.predict(images[:4])
    np.testing.assert_allclose(unfolded.predict(images[:4]), expected, atol=1e-8)

    results = {}
    for budget in BATCH_BUDGETS:
        # Output sampling off, so runtime_verification's `checks` counts
        # the parity audits alone.
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=budget,
            max_queue_depth=1024, audit_every=16, invariant_every=0,
            cache_mb=0.0, mmap=False))
        server.add_bundle(bundle_path, name="bench", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            # Parity spot-check through the full HTTP + batching stack.
            np.testing.assert_array_equal(client.predict(images[:4]), expected)
            load = run_singles(lambda _, batch: client.predict(batch),
                               images, clients=CLIENTS, window_s=WINDOW_S)
            # Every audit queued so far must have run before it is counted.
            assert server.monitor.drain(60.0), "parity audits never drained"
            metrics = server.metrics_snapshot()
            snapshot = metrics["server"]
            verification = metrics["runtime_verification"]
        assert not load.errors, load.errors[:3]
        assert load.latencies_ms, "no requests completed"
        results[f"max_batch_{budget}"] = {
            "max_batch_size": budget,
            **load.summary("requests", "window_s", "requests_per_s",
                           "p50_ms", "p95_ms", "p99_ms"),
            "batch_histogram": snapshot["batching"]["histogram"],
            "mean_batch": round(snapshot["batching"]["mean_batch"], 2),
            "audits": verification["checks"],
            "audit_mismatches": verification["by_invariant"]["parity_audit"],
        }
    return {
        "bench": "graph-IR residual-model serving (PR3)",
        "platform": platform.processor() or platform.machine(),
        "config": {
            "arch": "resnet20_pecan_d",
            "width_multiplier": WIDTH,
            "prototype_cap": PROTOTYPE_CAP,
            "clients": CLIENTS,
            "window_s": WINDOW_S,
            "image": [IN_CHANNELS, IMAGE, IMAGE],
            "graph_nodes": len(unfolded.executor.graph.nodes),
            "optimized_nodes": len(engine.executor.graph.nodes),
            "optimization_applied": engine.bundle.passes,
            "kernels": engine.kernel_names(),
        },
        "engine_direct": {
            "pristine_samples_per_s": _engine_throughput(unfolded, images),
            "optimized_samples_per_s": _engine_throughput(engine, images),
        },
        "results": results,
    }


class TestGraphServingBench:
    def test_parity_and_audits_clean(self, bench_results):
        for budget in BATCH_BUDGETS:
            entry = bench_results["results"][f"max_batch_{budget}"]
            assert entry["audit_mismatches"] == 0
            assert entry["audits"] >= 1            # the audit really ran
            sizes = [int(size) for size in entry["batch_histogram"]]
            # The parity spot-check submits one 4-sample request, which
            # legitimately dispatches alone even above a smaller budget.
            assert max(sizes) <= max(budget, 4)
        coalesced = bench_results["results"]["max_batch_32"]
        assert any(int(size) > 1 for size in coalesced["batch_histogram"]), \
            "dynamic batcher never coalesced concurrent singles"

    def test_batching_does_not_cost_throughput(self, bench_results):
        if WINDOW_S < 1.0:
            pytest.skip("smoke budget: the throughput floor needs a full "
                        "window to be meaningful (parity/coalescing asserted above)")
        unbatched = bench_results["results"]["max_batch_1"]["requests_per_s"]
        batched = bench_results["results"]["max_batch_32"]["requests_per_s"]
        assert batched >= 0.6 * unbatched

    def test_optimization_shrinks_graph(self, bench_results):
        config = bench_results["config"]
        assert config["optimized_nodes"] < config["graph_nodes"]
        assert "fold_batchnorm" in config["optimization_applied"]

    def test_results_recorded(self, bench_results):
        RESULT_PATH.write_text(json.dumps(bench_results, indent=2) + "\n")
        stored = json.loads(RESULT_PATH.read_text())
        assert set(stored["results"]) == {f"max_batch_{b}" for b in BATCH_BUDGETS}


def test_bench_graph_serving_report(bench_results):
    print("\nBench PR3 — residual-model serving (8 concurrent single-sample clients)")
    print(f"{'budget':>8} {'req/s':>10} {'p50 ms':>9} {'p95 ms':>9} "
          f"{'p99 ms':>9} {'mean batch':>11}")
    for budget in BATCH_BUDGETS:
        entry = bench_results["results"][f"max_batch_{budget}"]
        print(f"{budget:>8} {entry['requests_per_s']:>10} {entry['p50_ms']:>9} "
              f"{entry['p95_ms']:>9} {entry['p99_ms']:>9} {entry['mean_batch']:>11}")
    direct = bench_results["engine_direct"]
    print(f"direct engine: unfolded {direct['pristine_samples_per_s']} samples/s, "
          f"exported (folded) {direct['optimized_samples_per_s']} samples/s")
