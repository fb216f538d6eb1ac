"""Bench PR9 — connection scale of the event-loop network front end.

A paced 2-worker pool (Section 4.3 accelerator cost model, cache disabled so
every request really executes) is driven at 32 / 128 / 512 concurrent
**keep-alive** connections by ``run_concurrent_load`` from
``benchmarks/harness.py``, the selectors-multiplexed closed-loop driver.
The ``selectors`` front end has one loop thread owning every socket, a deep
accept backlog that absorbs the connect storm, and a bounded app-thread
bridge that keeps serving-plane concurrency at ``io_threads`` no matter how
many connections are open.

Contracts:

1. the event loop sustains all 512 clients — every connection established,
   zero errors, zero sheds;
2. its 512-client throughput is within 10% of its own 32-client rate
   (capacity-bound either way: more connections queue, they don't thrash);
3. every 200 response is bitwise identical to the reference engine's
   logits (``mismatches == 0``).

Results land in ``.bench_results/BENCH_PR9.json`` (leaf keys ``requests_per_s`` /
``p50_ms`` / ``p95_ms`` / ``p99_ms`` line up with
``benchmarks/compare_bench.py``).  Budgets are env-tunable so the CI
conn-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_connections.py -q
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_concurrent_load
from repro.serve import BundleEngine, PoolServer, ServeConfig

RESULT_PATH = result_path("BENCH_PR9.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "2.0"))
CONN_LEVELS = [32, 128, 512]
WORKERS = 2
UNIQUE_BODIES = 64
#: Per-sample accelerator latency — capacity is WORKERS / this, ~125
#: requests/s: slow enough that the paced pool (not the front end, and not
#: the host CPU — CI runners may have a single core) is the bottleneck at
#: every connection count, so the 512-vs-32 throughput ratio isolates
#: connection handling from compute.
ACCEL_SECONDS_PER_SAMPLE = 0.016
#: Paced pool capacity in requests/s (1 sample per request).
CAPACITY_RPS = WORKERS / ACCEL_SECONDS_PER_SAMPLE
IMAGE = 10
IN_CHANNELS = 1


def _raise_fd_limit(want: int = 4096) -> None:
    """512 client + 512 server sockets live in one process; make room."""
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < want:
            resource.setrlimit(resource.RLIMIT_NOFILE,
                               (min(want, hard), hard))
    except (ImportError, ValueError, OSError):
        pass


def start_pool(bundle: Path, hardware_hz: float) -> PoolServer:
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=WORKERS, policy="least_outstanding",
        heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        # Small batches keep the pacing quantum fine (8 × 16 ms = 128 ms):
        # worker throughput is unchanged, but completions stream instead of
        # arriving in half-second bursts that quantize short windows.
        max_batch_size=8, request_timeout_s=10.0,
        hardware_hz=hardware_hz, cache_mb=0.0,
        max_connections=max(CONN_LEVELS) + 88))   # budget above the storm
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(180.0), "pool never became ready"
    return pool


def run_leg(pool: PoolServer, bodies, references, conns: int,
            per_conn: int) -> dict:
    # Fixed work per leg, measured to full drain: every connection issues
    # exactly ``per_conn`` requests, and requests_per_s is total completions
    # over the time the whole storm took — queue ramp and tail are part of
    # the work, not artifacts cut off by a wall-clock window.  The window
    # below is only a safety cap against a wedged pool.
    cap_s = 2.0 * per_conn * conns / CAPACITY_RPS + 15.0
    result = run_concurrent_load(
        "127.0.0.1", pool.port, bodies,
        connections=conns, requests_per_connection=per_conn,
        window_s=cap_s, references=references,
        connect_timeout_s=15.0, request_timeout_s=10.0)
    summary = result.summary()
    summary["connections"] = conns
    summary["requests_per_connection"] = per_conn
    summary["elapsed_s"] = round(result.elapsed_s, 3)
    summary["connects"] = result.connects
    summary["connect_errors"] = result.connect_errors
    summary["error_sample"] = result.errors[:3]
    return summary


def test_bench_connections(tmp_path):
    _raise_fd_limit()
    bundle = build_bundle(tmp_path, name="m", image=IMAGE,
                          in_channels=IN_CHANNELS, prototypes=4, hidden=(4,),
                          classes=6)
    engine = BundleEngine(bundle)

    rng = np.random.default_rng(1)
    bodies, references = [], []
    for _ in range(UNIQUE_BODIES):
        x = rng.standard_normal((1, IN_CHANNELS, IMAGE, IMAGE))
        bodies.append(json.dumps(
            {"inputs": x.tolist(), "model": "m"}).encode())
        references.append(engine.predict(x).tolist())

    hardware_hz = accelerator_hz(bundle, ACCEL_SECONDS_PER_SAMPLE)

    #: Total requests per leg, scaled by the CI window knob; every
    #: connection gets at least two so keep-alive reuse is always exercised.
    target_total = int(512 * max(WINDOW_S, 0.5))
    legs: dict = {}
    pool = start_pool(bundle, hardware_hz)
    try:
        for conns in CONN_LEVELS:
            per_conn = max(2, round(target_total / conns))
            legs[f"c{conns}"] = run_leg(pool, bodies, references, conns,
                                        per_conn)
    finally:
        pool.stop(drain=True)

    low = legs[f"c{CONN_LEVELS[0]}"]["requests_per_s"]
    event_512 = legs[f"c{max(CONN_LEVELS)}"]
    event_ratio = round(event_512["requests_per_s"] / low, 3) if low else 0.0

    payload = {
        "bench": "connection scale of the eventloop front end (PR9)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "workers": WORKERS,
            "connection_levels": CONN_LEVELS,
            "unique_bodies": UNIQUE_BODIES,
            "window_s": WINDOW_S,
            "target_total_requests": target_total,
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
        },
        "results": {
            "eventloop": legs,
            "eventloop_512_vs_32_throughput_ratio": event_ratio,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    # Contract 1: the event loop sustains the full storm at every level.
    for name, leg in legs.items():
        assert leg["requests"] > 0, name
        assert leg["errors"] == 0, (name, leg["error_sample"])
        assert leg["connect_errors"] == 0, name
    assert event_512["connects"] >= max(CONN_LEVELS)

    # Contract 2: within 10% of its own 32-client throughput at 512.
    assert event_ratio >= 0.9, payload["results"]

    # Contract 3: bitwise parity on every completed response.
    for name, leg in legs.items():
        assert leg["mismatches"] == 0, (name, leg)
