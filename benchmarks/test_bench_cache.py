"""Bench PR8 — the deterministic response cache under skewed load.

The same paced 2-worker pool as the QoS/trace benches is driven by
closed-loop clients walking a Zipf(1.2) stream over 64 unique inputs —
the traffic shape where an exact content-addressed cache pays off — in
two configurations:

* **cache_off** — ``cache_mb=0``: the pre-PR8 stack (every request is an
  engine execution, paced to the Section 4.3 accelerator cost model).
* **cache_on** — a 64 MiB router cache with in-flight coalescing and the
  ``cache_affinity`` routing policy.

Contracts (the PR's acceptance criteria):

1. every response in *every* phase is bitwise identical to the reference
   engine's canonical bytes (exactness is the whole point — PECAN-D
   inference is deterministic, so a cache hit must be indistinguishable
   from a fresh execution);
2. the cache-on run reaches ≥ 60% hit rate and ≥ 5× better p50 than
   cache-off;
3. a burst of N identical concurrent requests costs exactly ONE worker
   engine call (coalescing);
4. after a deploy + promote of a divergent v2, no response ever carries
   the outgoing version's bytes, and repeat traffic re-fills (and hits)
   under the new namespace.

Results land in ``.bench_results/BENCH_PR8.json``.  Budgets are env-tunable so the CI
bench-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_cache.py -q
"""

from __future__ import annotations

import json
import os
import platform
import threading
from pathlib import Path

import numpy as np

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_zipf_load
from repro.serve import (BundleEngine, PoolServer, ServeClient, ServeConfig,
                         ZipfWorkload, canonical_response_bytes)

RESULT_PATH = result_path("BENCH_PR8.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "2.0"))
CLIENTS = 4
SAMPLES_PER_REQUEST = 2
#: Unique-input pool size scales with the window so the cold fill phase is
#: an equivalent fraction of short CI smoke runs and full runs alike.
UNIQUE_ITEMS = max(8, min(64, int(round(32 * WINDOW_S))))
ZIPF_ALPHA = 1.2
BURST = 12
#: Per-sample accelerator latency (Section 4.3 pacing) — capacity is
#: ``workers / ACCEL_SECONDS_PER_SAMPLE`` samples/s, stable on any CI host.
#: Slower than the QoS/trace benches' 6 ms on purpose: this bench models a
#: larger CAM array where an engine execution clearly dominates the HTTP
#: front-end cost, so the measured speedup isolates cache vs accelerator
#: rather than cache vs JSON parsing.
ACCEL_SECONDS_PER_SAMPLE = 0.025
WORKERS = 2
IMAGE = 12
IN_CHANNELS = 3


def canonical_references(engine: BundleEngine, items) -> list:
    """Per-item canonical response bytes — the bitwise ground truth."""
    references = []
    for item in items:
        outputs = engine.predict(item)
        references.append(canonical_response_bytes({
            "outputs": outputs.tolist(),
            "classes": outputs.argmax(axis=1).tolist(),
            "num_samples": int(item.shape[0]),
        }))
    return references


def worker_engine_calls(client: ServeClient) -> int:
    metrics = client.metrics()
    return sum(worker["server"]["requests"]["total"]
               for worker in metrics["workers"].values()
               if "error" not in worker)


def start_pool(bundle: Path, hardware_hz: float, *, cache_mb: float):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=WORKERS, policy="cache_affinity",
        heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        hardware_hz=hardware_hz, cache_mb=cache_mb, cache_check_every=0))
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(180.0), "pool never became ready"
    return pool


def run_zipf_phase(pool, workload, references):
    clients = [ServeClient(pool.url, timeout_s=60.0, backoff_retries=0)
               for _ in range(CLIENTS)]

    def predict(item, client_index):
        return canonical_response_bytes(
            clients[client_index].predict_response(item, model="m"))

    result = run_zipf_load(predict, workload, clients=CLIENTS,
                           window_s=WINDOW_S, references=references)
    summary = result.summary()
    cache = pool.metrics_snapshot()["cache"]
    summary["cache"] = {
        "enabled": cache.get("enabled", False),
        "hit_rate": cache.get("hit_rate", 0.0),
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "coalesce": cache.get("coalesce", {}),
    }
    return summary


def run_burst_phase(pool, probe):
    """BURST identical concurrent requests on a cold key → 1 engine call."""
    client = ServeClient(pool.url, timeout_s=60.0)
    before = worker_engine_calls(client)
    barrier = threading.Barrier(BURST)
    responses, errors = [], []

    def fire():
        barrier.wait()
        try:
            responses.append(ServeClient(pool.url, timeout_s=60.0)
                             .predict_response(probe, model="m"))
        except Exception as exc:               # noqa: BLE001 - recorded below
            errors.append(repr(exc))

    threads = [threading.Thread(target=fire) for _ in range(BURST)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    distinct = len({json.dumps(r["outputs"]) for r in responses})
    return {
        "burst": BURST,
        "responses": len(responses),
        "errors": errors,
        "distinct_outputs": distinct,
        "engine_calls": worker_engine_calls(client) - before,
    }


def run_lifecycle_phase(pool, v2_bundle, items, v1_refs, v2_refs):
    """Promote a divergent v2 mid-traffic: no stale bytes, re-fill, re-hit."""
    client = ServeClient(pool.url, timeout_s=60.0)
    hot = items[:8]
    for item in hot:                           # prime v1's namespace hot set
        client.predict_response(item, model="m")
    primed = [canonical_response_bytes(client.predict_response(item, model="m"))
              for item in hot]
    stale_before = sum(got != ref for got, ref in zip(primed, v1_refs))

    client.deploy("m", str(v2_bundle), canary_fraction=0.0, auto=False)
    client.promote("m")

    first_pass = [client.predict_response(item, model="m") for item in hot]
    second_pass = [client.predict_response(item, model="m") for item in hot]
    stale_after = sum(
        canonical_response_bytes(response) != ref
        for response, ref in zip(first_pass, v2_refs))
    stale_after += sum(
        canonical_response_bytes(response) != ref
        for response, ref in zip(second_pass, v2_refs))
    return {
        "primed_hits_stale": int(stale_before),
        "post_promote_stale": int(stale_after),
        "post_promote_served_fresh": sum("cached" not in r
                                         for r in first_pass),
        "post_promote_repeat_cached": sum(bool(r.get("cached"))
                                          for r in second_pass),
        "cache": {"invalidations":
                  pool.metrics_snapshot()["cache"]["invalidations"]},
    }


def test_bench_cache(tmp_path):
    v1 = build_bundle(tmp_path, seed=0, name="v1")
    v2 = build_bundle(tmp_path, seed=99, name="v2")
    engine_v1 = BundleEngine(v1)
    engine_v2 = BundleEngine(v2)

    rng = np.random.default_rng(1)
    items = [rng.standard_normal((SAMPLES_PER_REQUEST, IN_CHANNELS,
                                  IMAGE, IMAGE)) for _ in range(UNIQUE_ITEMS)]

    # A SAMPLES_PER_REQUEST batch is paced to exactly
    # SAMPLES_PER_REQUEST * ACCEL_SECONDS_PER_SAMPLE of modeled latency.
    hardware_hz = accelerator_hz(v1, ACCEL_SECONDS_PER_SAMPLE)
    workload = ZipfWorkload(items, alpha=ZIPF_ALPHA, seed=7)
    v1_refs = canonical_references(engine_v1, items)
    v2_refs = canonical_references(engine_v2, items)
    probe = rng.standard_normal((SAMPLES_PER_REQUEST, IN_CHANNELS,
                                 IMAGE, IMAGE))

    pool = start_pool(v1, hardware_hz, cache_mb=0.0)
    try:
        off = run_zipf_phase(pool, workload, v1_refs)
    finally:
        pool.stop(drain=True)

    pool = start_pool(v1, hardware_hz, cache_mb=64.0)
    try:
        on = run_zipf_phase(pool, workload, v1_refs)
        burst = run_burst_phase(pool, probe)
        lifecycle = run_lifecycle_phase(pool, v2, items,
                                        v1_refs[:8], v2_refs[:8])
    finally:
        pool.stop(drain=True)

    speedup_p50 = (off["p50_ms"] / on["p50_ms"]) if on["p50_ms"] else 0.0
    payload = {
        "bench": "deterministic response cache under Zipf load (PR8)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "clients": CLIENTS,
            "samples_per_request": SAMPLES_PER_REQUEST,
            "unique_items": UNIQUE_ITEMS,
            "zipf_alpha": ZIPF_ALPHA,
            "workers": WORKERS,
            "window_s": WINDOW_S,
            "burst": BURST,
            "policy": "cache_affinity",
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
            "expected_zipf_hit_rate_at_400":
                round(workload.expected_hit_rate(400), 4),
        },
        "results": {
            "cache_off": off,
            "cache_on": on,
            "p50_speedup_on_vs_off": round(speedup_p50, 2),
            "throughput_ratio_on_vs_off": round(
                on["requests_per_s"] / off["requests_per_s"], 2)
            if off["requests_per_s"] else 0.0,
            "coalescing_burst": burst,
            "lifecycle": lifecycle,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    # Contract 1: exactness — zero mismatches, zero errors, in every phase.
    assert off["errors"] == 0 and on["errors"] == 0
    assert off["mismatches"] == 0, "cache-off run diverged from reference"
    assert on["mismatches"] == 0, "cache-on run served non-reference bytes"
    assert burst["errors"] == []
    assert burst["responses"] == BURST and burst["distinct_outputs"] == 1
    assert lifecycle["primed_hits_stale"] == 0

    # Contract 2: the win — ≥60% hit rate and ≥5× better p50 than cache-off.
    assert on["cache"]["enabled"] and not off["cache"]["enabled"]
    assert on["cache"]["hit_rate"] >= 0.60, on["cache"]
    assert speedup_p50 >= 5.0, (off["p50_ms"], on["p50_ms"])

    # Contract 3: a burst of identical requests costs exactly 1 engine call.
    assert burst["engine_calls"] == 1, burst

    # Contract 4: promote retires the outgoing namespace — no stale bytes,
    # and the new version's traffic re-fills and hits.
    assert lifecycle["post_promote_stale"] == 0, lifecycle
    assert lifecycle["post_promote_served_fresh"] == len(items[:8])
    assert lifecycle["post_promote_repeat_cached"] == len(items[:8])
    assert lifecycle["cache"]["invalidations"] >= 1
