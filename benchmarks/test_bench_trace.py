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
import threading
import time
from pathlib import Path

import numpy as np

from bench_results import result_path
from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import BundleEngine, PoolServer, ServeClient, ServeConfig
from repro.serve.server import _AcceleratorPacer

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


def build_bundle(tmp_path: Path) -> Path:
    rng = np.random.default_rng(0)
    cfg = PQLayerConfig(num_prototypes=8, mode="distance", temperature=0.5)
    spatial = (IMAGE - 2) // 2
    model = Sequential(
        Conv2d(IN_CHANNELS, 16, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(16 * spatial * spatial, 32, rng=rng), ReLU(),
        Linear(32, 10, rng=rng),
    )
    pecan = convert_to_pecan(model, cfg, rng=rng)
    return export_deployment_bundle(pecan, tmp_path / "trace.npz",
                                    input_shape=(IN_CHANNELS, IMAGE, IMAGE))


def pct(ordered, q):
    if not ordered:
        return 0.0
    return round(ordered[min(int(q * len(ordered)), len(ordered) - 1)], 3)


def run_closed_loop(url: str, images: np.ndarray, window_s: float):
    """Closed-loop clients, no think time: the pacing bounds throughput, so
    any per-request bookkeeping overhead shows up directly in the numbers."""
    stop_at = time.monotonic() + window_s
    latencies_ms = []
    errors = []
    lock = threading.Lock()

    def worker(offset: int):
        client = ServeClient(url, timeout_s=60.0, backoff_retries=0,
                             transient_retries=0)
        i = offset
        while time.monotonic() < stop_at:
            index = i % (len(images) - SAMPLES_PER_REQUEST)
            started = time.monotonic()
            try:
                client.predict(images[index:index + SAMPLES_PER_REQUEST],
                               model="m", tenant=f"client-{offset}")
            except Exception as exc:            # noqa: BLE001 - recorded below
                with lock:
                    errors.append(repr(exc))
                return
            elapsed = (time.monotonic() - started) * 1e3
            with lock:
                latencies_ms.append(elapsed)
            i += 1

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CLIENTS)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.monotonic() - started, 1e-9)
    ordered = sorted(latencies_ms)
    return {
        "requests": len(latencies_ms),
        "samples_per_s": round(len(latencies_ms) * SAMPLES_PER_REQUEST
                               / elapsed, 1),
        "p50_ms": pct(ordered, 0.50),
        "p95_ms": pct(ordered, 0.95),
        "p99_ms": pct(ordered, 0.99),
        "errors": len(errors),
    }


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
        result = run_closed_loop(pool.url, images, WINDOW_S)
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
    bundle = build_bundle(tmp_path)
    probe_engine = BundleEngine(bundle)
    rng = np.random.default_rng(1)
    images = rng.standard_normal((32, IN_CHANNELS, IMAGE, IMAGE))
    probe = images[:2]
    reference = probe_engine.predict(probe)
    pacer = _AcceleratorPacer(probe_engine, hz=1.0)
    hardware_hz = pacer._cycles() / ACCEL_SECONDS_PER_SAMPLE

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
