"""Bench PR7 — the observability plane must be (near-)free.

The same paced 2-worker pool as the QoS bench is driven by closed-loop
clients twice:

* **tracing_off** — ``trace_enabled=False``, ``invariant_every=0``: the
  pre-PR7 stack.
* **tracing_on** — the PR7 defaults: per-request spans at every hop into
  the in-memory rings, plus the invariant monitor at its default 1-in-16
  sampling rate.

The contracts: with tracing and runtime verification on at defaults,
throughput and p50 stay within 10% of the tracing-off run (plus a small
absolute term so sub-ms noise on tiny CI windows cannot flake it), and
outputs for a fixed input are bitwise identical in both modes — the
observability plane observes, it never perturbs.

Results land in ``.bench_results/BENCH_PR7.json``.  Budgets are env-tunable so the CI
bench-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_trace.py -q
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_closed_loop
from repro.serve import BundleEngine, PoolServer, ServeClient, ServeConfig

RESULT_PATH = result_path("BENCH_PR7.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "2.0"))
CLIENTS = 4
SAMPLES_PER_REQUEST = 3
#: Per-sample accelerator latency (Section 4.3 pacing) — capacity is
#: ``workers / ACCEL_SECONDS_PER_SAMPLE`` samples/s, stable on any CI host.
ACCEL_SECONDS_PER_SAMPLE = 0.006
WORKERS = 2
IMAGE = 12
IN_CHANNELS = 3


def run_clients(url: str, images: np.ndarray, window_s: float):
    """Closed-loop clients, no think time: the pacing bounds throughput, so
    any per-request bookkeeping overhead shows up directly in the numbers."""
    clients = [ServeClient(url, timeout_s=60.0, backoff_retries=0,
                           transient_retries=0) for _ in range(CLIENTS)]

    def call(client: int, n: int):
        index = (client + n) % (len(images) - SAMPLES_PER_REQUEST)
        return clients[client].predict(
            images[index:index + SAMPLES_PER_REQUEST], model="m",
            tenant=f"client-{client}")

    load = run_closed_loop(call, clients=CLIENTS, window_s=window_s,
                           on_error="stop")
    summary = load.summary("requests", "p50_ms", "p95_ms", "p99_ms",
                           "errors")
    summary["samples_per_s"] = round(
        load.requests * SAMPLES_PER_REQUEST / load.elapsed_s, 1)
    return summary


def run_mode(bundle: Path, images: np.ndarray, probe: np.ndarray,
             hardware_hz: float, *, traced: bool):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=WORKERS, policy="round_robin",
        heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        hardware_hz=hardware_hz, invariant_every=16 if traced else 0,
        cache_mb=0.0, **{"trace.enabled": traced}))
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(180.0), "pool never became ready"
    try:
        warm = ServeClient(pool.url, timeout_s=60.0)
        for _ in range(4):
            warm.predict(images[:1], model="m")
        result = run_clients(pool.url, images, WINDOW_S)
        # The fixed probe's logits, for the bitwise-identity contract.
        outputs = warm.predict(probe, model="m")
        metrics = pool.metrics_snapshot()
        result["trace"] = {
            "enabled": metrics["trace"]["enabled"],
            "spans_finished": metrics["trace"]["spans_finished"],
        }
        result["runtime_verification"] = {
            "enabled": metrics["runtime_verification"]["enabled"],
            "checks": metrics["runtime_verification"]["checks"],
            "violations": metrics["runtime_verification"]["violations"],
        }
    finally:
        pool.stop(drain=True)
    return result, outputs


def test_bench_trace(tmp_path):
    bundle = build_bundle(tmp_path, name="trace")
    rng = np.random.default_rng(1)
    images = rng.standard_normal((32, IN_CHANNELS, IMAGE, IMAGE))
    probe = images[:2]
    reference = BundleEngine(bundle).predict(probe)
    hardware_hz = accelerator_hz(bundle, ACCEL_SECONDS_PER_SAMPLE)

    off, outputs_off = run_mode(bundle, images, probe, hardware_hz,
                                traced=False)
    on, outputs_on = run_mode(bundle, images, probe, hardware_hz,
                              traced=True)

    throughput_ratio = (on["samples_per_s"] / off["samples_per_s"]
                        if off["samples_per_s"] else 0.0)
    p50_delta_ms = on["p50_ms"] - off["p50_ms"]
    payload = {
        "bench": "tracing + runtime verification overhead (PR7)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "clients": CLIENTS,
            "samples_per_request": SAMPLES_PER_REQUEST,
            "workers": WORKERS,
            "window_s": WINDOW_S,
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
            "invariant_every": 16,
        },
        "results": {
            "tracing_off": off,
            "tracing_on": on,
            "throughput_ratio_on_vs_off": round(throughput_ratio, 4),
            "p50_delta_ms": round(p50_delta_ms, 3),
            "outputs_bitwise_identical": bool(
                np.array_equal(outputs_off, outputs_on)),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    assert off["errors"] == 0 and on["errors"] == 0

    # Contract 1: the traced run really traced (and verified) something.
    assert not off["trace"]["enabled"] and on["trace"]["enabled"]
    assert on["trace"]["spans_finished"] > 0
    assert on["runtime_verification"]["enabled"]
    assert on["runtime_verification"]["checks"] > 0
    assert on["runtime_verification"]["violations"] == 0

    # Contract 2: observing is (near-)free — within 10% on throughput and
    # p50 (plus a 1 ms absolute term for sub-ms noise on tiny CI windows).
    assert on["samples_per_s"] >= 0.9 * off["samples_per_s"], (off, on)
    assert on["p50_ms"] <= 1.1 * off["p50_ms"] + 1.0, (off, on)

    # Contract 3: the plane never perturbs the data path — bitwise-identical
    # logits with tracing on, off, and against the in-process reference.
    np.testing.assert_array_equal(outputs_off, outputs_on)
    np.testing.assert_array_equal(outputs_on, reference)
