"""Bench PR4 — data-parallel pool serving: throughput scaling over workers.

A PECAN-D toy network is exported once and served by
:class:`~repro.serve.pool.PoolServer` at 1, 2 and 4 worker processes (each a
full single-process serving plane over the same memory-mapped bundle), under
the same closed-loop multi-client load as the PR2/PR3 single-process
benches.  Results land in ``.bench_results/BENCH_PR4.json``.

Two load profiles run:

* **emulated accelerator** (the headline scaling numbers) — workers pace
  every batch to the latency the paper's Section 4.3 cost model predicts for
  a CAM accelerator (``hardware_hz`` chosen so one sample models ~8 ms).
  While a worker waits on the "accelerator" the host CPU is free, exactly as
  with real attached hardware, so data-parallel workers scale near-linearly
  **even on a single-core host** — this is the deployment shape the paper's
  serving story implies (host dispatches to CAM hardware), and the profile
  every pool autoscaling decision should be based on.
* **raw host compute** (reference) — no pacing; all workers share the host
  CPU for the NumPy kernels.  Scaling here is bounded by physical cores
  (recorded as ``cpu_count``), so on a 1-core CI box the expected ratio is
  ~1×; the assertion is gated accordingly.

The bench also asserts pooled serving is **bitwise-identical** (PECAN-D) to
a direct single-process :class:`BundleEngine` pass — through the router, the
worker HTTP stack, dynamic batching and the mmap-loaded arrays.

Budgets are env-tunable so the CI bench-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.4 REPRO_BENCH_POOL_WORKERS=1,2 \
        PYTHONPATH=src python -m pytest benchmarks/test_bench_pool_serving.py -q
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_singles
from repro.serve import BundleEngine, PoolServer, ServeClient, ServeConfig

RESULT_PATH = result_path("BENCH_PR4.json")

WORKER_COUNTS = tuple(int(w) for w in
                      os.environ.get("REPRO_BENCH_POOL_WORKERS", "1,2,4").split(","))
WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "1.6"))
CLIENTS = 8
IMAGE = 12
IN_CHANNELS = 3
PROTOTYPES = 8
#: Modeled accelerator latency per sample in the emulated profile.
ACCEL_SECONDS_PER_SAMPLE = 0.008


def run_pool_config(bundle_path: Path, workers: int, images: np.ndarray,
                    expected: np.ndarray, hardware_hz=None):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=workers, policy="least_outstanding",
        heartbeat_interval_s=0.25, heartbeat_timeout_s=10.0,
        max_queue_depth=1024, hardware_hz=hardware_hz, cache_mb=0.0))
    pool.add_bundle(bundle_path, name="bench")
    with pool:
        assert pool.wait_ready(180.0), "pool never became ready"
        client = ServeClient(pool.url)
        # Bitwise parity through router + worker + batching + mmap arrays.
        np.testing.assert_array_equal(client.predict(images[:4], model="bench"),
                                      expected)
        load = run_singles(
            lambda _, batch: client.predict(batch, model="bench"),
            images, clients=CLIENTS, window_s=WINDOW_S)
        pool_state = pool.describe_pool()
    assert not load.errors, load.errors[:3]
    assert load.latencies_ms, "no requests completed"
    return {
        "workers": workers,
        **load.summary("requests", "window_s", "requests_per_s", "p50_ms",
                       "p95_ms"),
        "restarts": pool_state["restarts"],
        "dispatched": {str(info["id"]): info["dispatched"]
                       for info in pool_state["workers"]},
    }


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    bundle_path = build_bundle(tmp_path_factory.mktemp("pool_serving"),
                               name="pool_bench", prototypes=PROTOTYPES)
    engine = BundleEngine(bundle_path)
    rng = np.random.default_rng(1)
    images = rng.standard_normal((64, IN_CHANNELS, IMAGE, IMAGE))
    expected = engine.predict(images[:4])

    hardware_hz = accelerator_hz(bundle_path, ACCEL_SECONDS_PER_SAMPLE)

    paced = {}
    for workers in WORKER_COUNTS:
        paced[f"workers_{workers}"] = run_pool_config(
            bundle_path, workers, images, expected, hardware_hz=hardware_hz)
    base = paced[f"workers_{WORKER_COUNTS[0]}"]["requests_per_s"]
    for entry in paced.values():
        entry["scaling_vs_1"] = round(entry["requests_per_s"] / base, 2)

    raw = {}
    for workers in (WORKER_COUNTS[0], WORKER_COUNTS[-1]):
        raw[f"workers_{workers}"] = run_pool_config(
            bundle_path, workers, images, expected, hardware_hz=None)
    raw_base = raw[f"workers_{WORKER_COUNTS[0]}"]["requests_per_s"]
    for entry in raw.values():
        entry["scaling_vs_1"] = round(entry["requests_per_s"] / raw_base, 2)

    return {
        "bench": "data-parallel pool serving (PR4)",
        "platform": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "clients": CLIENTS,
            "window_s": WINDOW_S,
            "image": [IN_CHANNELS, IMAGE, IMAGE],
            "prototypes": PROTOTYPES,
            "policy": "least_outstanding",
            "mmap_mode": "r",
            "kernels": engine.kernel_names(),
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
            "per_sample_cycles": round(
                hardware_hz * ACCEL_SECONDS_PER_SAMPLE, 3),
        },
        "results": {
            "emulated_accelerator": paced,
            "raw_host_compute": {
                "note": ("no pacing: all workers share the host CPU, so "
                         "scaling is bounded by cpu_count"),
                **raw,
            },
        },
    }


class TestPoolServingBench:
    def test_pooled_serving_matches_single_process_bitwise(self, bench_results):
        # The parity assertion ran inside every pool config; reaching here
        # means router+workers reproduced the single-process logits exactly.
        assert bench_results["results"]["emulated_accelerator"]

    def test_accelerator_profile_scales_with_workers(self, bench_results):
        paced = bench_results["results"]["emulated_accelerator"]
        low = paced[f"workers_{WORKER_COUNTS[0]}"]
        high = paced[f"workers_{WORKER_COUNTS[-1]}"]
        if WORKER_COUNTS[-1] < 4 * WORKER_COUNTS[0]:
            pytest.skip("smoke budget: fewer than 4x workers benchmarked")
        # The acceptance bar (>= 1.5x at 4 workers vs 1); with an emulated
        # accelerator the expected ratio is ~3-4x, so 1.5x is a roomy floor.
        assert high["requests_per_s"] >= 1.5 * low["requests_per_s"], (
            f"4-worker pool did not scale: {high['requests_per_s']} vs "
            f"{low['requests_per_s']} req/s")
        assert high["restarts"] == 0 and low["restarts"] == 0

    def test_raw_profile_is_recorded(self, bench_results):
        # The raw (unpaced) profile is informational: CPU-bound scaling
        # depends on the host's core count and on co-tenant noise, so it is
        # recorded for humans but never gated — a shared CI runner's load
        # spike must not fail the suite.  Scaling enforcement lives in the
        # deterministic emulated-accelerator profile above.
        raw = bench_results["results"]["raw_host_compute"]
        for key in (f"workers_{WORKER_COUNTS[0]}", f"workers_{WORKER_COUNTS[-1]}"):
            assert raw[key]["requests_per_s"] > 0
            assert raw[key]["restarts"] == 0

    def test_results_recorded(self, bench_results):
        RESULT_PATH.write_text(json.dumps(bench_results, indent=2) + "\n")
        stored = json.loads(RESULT_PATH.read_text())
        assert "emulated_accelerator" in stored["results"]
        assert "raw_host_compute" in stored["results"]


def test_bench_pool_serving_report(bench_results):
    print("\nBench PR4 — pool serving throughput "
          f"({CLIENTS} concurrent single-sample clients)")
    for profile in ("emulated_accelerator", "raw_host_compute"):
        rows = {key: value
                for key, value in bench_results["results"][profile].items()
                if key.startswith("workers_")}
        print(f"  [{profile}]")
        print(f"{'workers':>9} {'req/s':>10} {'p50 ms':>9} {'p95 ms':>9} "
              f"{'vs 1w':>7}")
        for key in sorted(rows, key=lambda k: int(k.split('_')[1])):
            entry = rows[key]
            print(f"{entry['workers']:>9} {entry['requests_per_s']:>10} "
                  f"{entry['p50_ms']:>9} {entry['p95_ms']:>9} "
                  f"{entry['scaling_vs_1']:>7}")
