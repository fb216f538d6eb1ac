"""Bench PR6 — QoS under mixed traffic: isolation, soak, and brownout.

A PECAN-D toy network is served by a 2-worker
:class:`~repro.serve.pool.PoolServer` with workers paced to the paper's
Section 4.3 accelerator cost model, and the QoS plane configured with a small
bulk-class budget (``batch_class_samples``).  Four phases:

* **interactive_baseline** — paced closed-loop interactive clients alone:
  the latency yardstick.
* **bulk_only** — :class:`~repro.serve.client.BulkScorer` jobs alone: what
  the pool's idle capacity is worth to offline scoring.
* **mixed** — both at once.  The contracts: interactive p99 stays within 2×
  its bulk-free baseline (the bulk budget bounds head-of-line blocking), and
  the bulk job still soaks at least half of the capacity interactive traffic
  leaves idle.
* **overload** — an unthrottled standard+batch burst.  The brownout
  controller must engage (transitions visible in ``/metrics``), shed only
  the lower classes, and leave **zero interactive errors**.

Results land in ``.bench_results/BENCH_PR6.json``.  Budgets are env-tunable so the CI
bench-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_qos.py -q
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time

import numpy as np

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_closed_loop
from repro.serve import PoolServer, QoSConfig, ServeClient, ServeConfig
from repro.serve.client import BulkScorer

RESULT_PATH = result_path("BENCH_PR6.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "2.0"))
INTERACTIVE_CLIENTS = 4
#: Per-sample accelerator latency (Section 4.3 pacing) — capacity is
#: ``workers / ACCEL_SECONDS_PER_SAMPLE`` samples/s, stable on any CI host.
ACCEL_SECONDS_PER_SAMPLE = 0.006
WORKERS = 2
BULK_SCORERS = 2
#: Bulk samples per scoring request.  A single request is never split
#: across micro-batches, so the chunk size — together with the per-batch
#: bulk budget below, which keeps a *second* chunk out of the same batch —
#: is the head-of-line blocking bound an interactive arrival can experience
#: behind bulk work.
BULK_CHUNK = 2
BATCH_CLASS_SAMPLES = 2
#: Interactive request size / pacing (closed loop with a think time).
INTERACTIVE_SAMPLES = 3
INTERACTIVE_THINK_S = 0.02
OVERLOAD_CLIENTS = 16
IMAGE = 12
IN_CHANNELS = 3


def run_interactive(url: str, images: np.ndarray, window_s: float,
                    deadline_ms=None):
    """Closed-loop interactive clients: ``INTERACTIVE_SAMPLES`` per request
    at ``interactive`` priority, with a think time between requests."""
    clients = [ServeClient(url, timeout_s=60.0, backoff_retries=0,
                           transient_retries=0)
               for _ in range(INTERACTIVE_CLIENTS)]

    def call(client: int, n: int):
        index = (client + n) % (len(images) - INTERACTIVE_SAMPLES)
        return clients[client].predict(
            images[index:index + INTERACTIVE_SAMPLES], model="m",
            priority="interactive", tenant=f"online-{client}",
            deadline_ms=deadline_ms)

    load = run_closed_loop(call, clients=INTERACTIVE_CLIENTS,
                           window_s=window_s, think_s=INTERACTIVE_THINK_S,
                           on_error="stop")
    summary = load.summary("requests", "p50_ms", "p95_ms", "p99_ms",
                           "errors")
    summary["samples_per_s"] = round(
        load.requests * INTERACTIVE_SAMPLES / load.elapsed_s, 1)
    return summary


def run_bulk(url: str, images: np.ndarray, window_s: float):
    """BulkScorer jobs re-submitting the dataset until the window closes."""
    stop_at = time.monotonic() + window_s
    totals = {"samples": 0, "retries": 0, "backoff_s": 0.0}
    lock = threading.Lock()

    def worker(offset: int):
        scorer = BulkScorer(ServeClient(url, timeout_s=60.0,
                                        backoff_retries=0),
                            model="m", tenant=f"bulk-{offset}",
                            chunk_size=BULK_CHUNK)
        while time.monotonic() < stop_at:
            scorer.score(images)
        with lock:
            totals["samples"] += scorer.chunks_total * BULK_CHUNK
            totals["retries"] += scorer.retries_total
            totals["backoff_s"] += scorer.backoff_s_total

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(BULK_SCORERS)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.monotonic() - started, 1e-9)
    return {
        "samples": totals["samples"],
        "samples_per_s": round(totals["samples"] / elapsed, 1),
        "chunk_retries": totals["retries"],
        "backoff_s": round(totals["backoff_s"], 2),
    }


def run_overload(pool, images: np.ndarray, window_s: float):
    """Unthrottled standard+batch burst with interactive probes riding along;
    returns per-class outcomes and the brownout states observed."""
    stop_at = time.monotonic() + window_s
    shed = {"standard": 0, "batch": 0}
    lock = threading.Lock()
    states_seen = set()
    interactive = {"ok": 0, "errors": []}
    x = images[:1].tolist()

    def bulk_client(priority):
        import urllib.error
        import urllib.request
        body = json.dumps({"inputs": x, "model": "m", "priority": priority,
                           "tenant": "burst"}).encode()
        while time.monotonic() < stop_at:
            request = urllib.request.Request(
                f"{pool.url}/predict", data=body,
                headers={"Content-Type": "application/json"}, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=30.0):
                    pass
            except urllib.error.HTTPError as exc:
                exc.read()
                with lock:
                    shed[priority] += 1
                time.sleep(0.01)
            except OSError:
                time.sleep(0.01)

    threads = [threading.Thread(target=bulk_client,
                                args=("batch" if i % 2 else "standard",))
               for i in range(OVERLOAD_CLIENTS)]
    for thread in threads:
        thread.start()
    client = ServeClient(pool.url, timeout_s=60.0, backoff_retries=0,
                         transient_retries=0)
    while time.monotonic() < stop_at:
        try:
            client.predict(images[:1], model="m", priority="interactive",
                           tenant="online")
            interactive["ok"] += 1
        except Exception as exc:                # noqa: BLE001 - the contract
            interactive["errors"].append(repr(exc))
        states_seen.add(pool.brownout.state)
        time.sleep(0.01)
    for thread in threads:
        thread.join()
    return {
        "interactive_ok": interactive["ok"],
        "interactive_errors": interactive["errors"],
        "shed_standard": shed["standard"],
        "shed_batch": shed["batch"],
        "brownout_states_seen": sorted(states_seen),
    }


def test_bench_qos(tmp_path):
    bundle = build_bundle(tmp_path, name="qos")
    rng = np.random.default_rng(1)
    images = rng.standard_normal((32, IN_CHANNELS, IMAGE, IMAGE))
    hardware_hz = accelerator_hz(bundle, ACCEL_SECONDS_PER_SAMPLE)

    config = ServeConfig.build(
        # Round-robin, not least_outstanding: a long-lived bulk chunk counts
        # the same as a quick interactive call in the outstanding tally, so
        # least_outstanding would occasionally pile every interactive client
        # onto one worker and fatten the p99 tail this bench measures.
        port=0, workers=WORKERS, policy="round_robin",
        heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        hardware_hz=hardware_hz, cache_mb=0.0)
    # Slots are sized so steady mixed traffic is never slot-limited (the
    # per-batch bulk budget does the isolation); queue_high is low enough
    # that the overload burst overflows the slots and engages the brownout
    # ladder.
    config.qos = QoSConfig(slots_per_worker=4, queue_high=2.0, alpha=0.7,
                           min_dwell_s=0.2, recover_at=0.5, emergency_at=1e9,
                           batch_class_samples=BATCH_CLASS_SAMPLES)
    pool = PoolServer(config=config)
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(180.0), "pool never became ready"
    results = {}
    try:
        warm = ServeClient(pool.url, timeout_s=60.0)
        for _ in range(4):
            warm.predict(images[:1], model="m")

        results["interactive_baseline"] = run_interactive(pool.url, images,
                                                          WINDOW_S)
        results["bulk_only"] = run_bulk(pool.url, images, WINDOW_S)

        mixed = {}

        def bulk_side():
            mixed["bulk"] = run_bulk(pool.url, images, WINDOW_S)

        bulk_thread = threading.Thread(target=bulk_side)
        bulk_thread.start()
        mixed["interactive"] = run_interactive(pool.url, images, WINDOW_S)
        bulk_thread.join()
        results["mixed"] = mixed

        results["overload"] = run_overload(pool, images, WINDOW_S)
        # Let the controller drain back to healthy; the recovery is part of
        # the published result.
        recovered = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            recovered = pool.metrics_snapshot()["qos"]["brownout"]["state"]
            if recovered == "healthy":
                break
            time.sleep(0.1)
        qos_metrics = pool.metrics_snapshot()["qos"]
        results["overload"]["recovered_state"] = recovered
        results["overload"]["brownout_transitions"] = \
            qos_metrics["brownout"]["transitions"]
        results["router_shed_by_class"] = \
            pool.metrics.snapshot()["qos"]["shed_by_class"]
    finally:
        pool.stop(drain=True)

    payload = {
        "bench": "QoS isolation, bulk soak and brownout (PR6)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "interactive_clients": INTERACTIVE_CLIENTS,
            "interactive_samples": INTERACTIVE_SAMPLES,
            "bulk_scorers": BULK_SCORERS,
            "bulk_chunk": BULK_CHUNK,
            "batch_class_samples": BATCH_CLASS_SAMPLES,
            "overload_clients": OVERLOAD_CLIENTS,
            "workers": WORKERS,
            "window_s": WINDOW_S,
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
        },
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    base = results["interactive_baseline"]
    mixed_interactive = results["mixed"]["interactive"]
    mixed_bulk = results["mixed"]["bulk"]
    assert base["errors"] == 0 and mixed_interactive["errors"] == 0

    # Contract 1: the bulk budget bounds interference — interactive p99 under
    # bulk pressure stays within 2x its bulk-free baseline (plus a small
    # absolute term so sub-ms noise on tiny CI windows cannot flake it).
    assert mixed_interactive["p99_ms"] <= 2.0 * base["p99_ms"] + 5.0, \
        (base, mixed_interactive)

    # Contract 2: bulk still soaks at least half of the idle capacity.
    # Conservation: what interactive traffic does not use of the bulk-only
    # throughput is the idle capacity on offer.
    idle = max(results["bulk_only"]["samples_per_s"]
               - mixed_interactive["samples_per_s"], 0.0)
    assert mixed_bulk["samples_per_s"] >= 0.5 * idle, \
        (results["bulk_only"], mixed)

    # Contract 3: overload sheds only the lower classes — zero interactive
    # errors — and the brownout controller's decisions are observable.
    overload = results["overload"]
    assert overload["interactive_errors"] == [], overload
    assert overload["interactive_ok"] > 0
    assert overload["shed_batch"] + overload["shed_standard"] > 0, overload
    # The controller engaged: visible in the /metrics transition log (the
    # probe's sampled states can miss a short excursion on tiny windows).
    assert any(t["to"] != "healthy"
               for t in overload["brownout_transitions"]), overload
    assert overload["recovered_state"] == "healthy", overload
    assert "interactive" not in results["router_shed_by_class"], \
        results["router_shed_by_class"]
