"""Bench PR10 — elasticity: the pool that sizes itself.

One **ramp** leg against the Section 4.3 paced accelerator cost model, so
capacity is worker-bound (not host-CPU-bound): one elastic
:class:`PoolServer` (autoscaler enabled, envelope 1..4) is hammered by
closed-loop clients.  Sustained queue pressure must double the pool up to
the ceiling (1 → 2 → 4), the 4-worker plateau must deliver a real multiple
of one worker's paced capacity, and when the load stops the idle dwell
must walk the pool back down to the floor (4 → 3 → 2 → 1).  Every response
along the whole ramp is verified bitwise against the reference engine; the
contract is zero failed requests and zero mismatches while the worker set
churns underneath the traffic.

Results land in ``.bench_results/BENCH_PR10.json`` (leaf keys ``requests_per_s`` /
``p50_ms`` / ``p95_ms`` / ``p99_ms`` line up with
``benchmarks/compare_bench.py``).  Budgets are env-tunable so the CI
scale-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_autoscale.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from bench_results import result_path
from harness import ClosedLoop, accelerator_hz, build_bundle
from repro.serve import BundleEngine, PoolServer, ServeClient
from repro.serve.config import ServeConfig

RESULT_PATH = result_path("BENCH_PR10.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "2.0"))
MAX_WORKERS = 4
HAMMERS = 16
#: Per-sample accelerator latency: one worker serves ~62 requests/s, so
#: 16 closed-loop clients sustain the queue depth the autoscaler needs
#: and the 4-worker plateau (~250 requests/s) is worker-bound.
ACCEL_SECONDS_PER_SAMPLE = 0.016
ONE_WORKER_RPS = 1.0 / ACCEL_SECONDS_PER_SAMPLE
UNIQUE_BODIES = 64
IMAGE = 10
IN_CHANNELS = 1


def wait_for(predicate, timeout_s=120.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def hammer(url: str, cases, model: str, threads: int) -> ClosedLoop:
    """Closed-loop clients verifying every response bitwise.

    ``cases`` is a list of ``(input, expected_logits)`` pairs; each thread
    cycles through them from its own offset so the stream stays unique
    enough that the PR8 response cache cannot absorb the load (the pools
    under test disable it anyway — the autoscaler must see real work).
    Runs until :meth:`ClosedLoop.stop`.
    """
    clients = [ServeClient(url, timeout_s=120.0) for _ in range(threads)]

    def case(client: int, n: int):
        return cases[(client + n) % len(cases)]

    return ClosedLoop(
        lambda client, n: clients[client].predict(case(client, n)[0],
                                                  model=model),
        clients=threads, expect=lambda client, n: case(client, n)[1])


def measure_rps(load: ClosedLoop, window_s: float) -> float:
    before = load.completed()
    time.sleep(window_s)
    return round((load.completed() - before) / window_s, 1)


def run_ramp_leg(bundle: Path, hardware_hz: float, cases) -> dict:
    config = ServeConfig.build(
        port=0, workers=1,
        **{"engine.hardware_hz": hardware_hz,
           "pool.heartbeat_interval_s": 0.1,
           "cache.cache_mb": 0.0,        # every request really executes
           "autoscale.enabled": True,
           "autoscale.max_workers": MAX_WORKERS,
           "autoscale.up_dwell_s": 0.2,
           "autoscale.cooldown_s": 0.3,
           "autoscale.down_idle_s": 0.4,
           "autoscale.up_queue_per_worker": 1.0})
    pool = PoolServer(config=config)
    pool.add_bundle(bundle, name="m")
    with pool:
        assert pool.wait_ready(180.0), "pool never became ready"
        ready = lambda: len(pool.ready_workers())   # noqa: E731

        load = hammer(pool.url, cases, "m", HAMMERS).start()
        ramp_started = time.monotonic()
        try:
            grew = wait_for(lambda: ready() >= MAX_WORKERS)
            ramp_up_s = time.monotonic() - ramp_started
            assert grew, (f"queue pressure never grew the pool to "
                          f"{MAX_WORKERS} (ready={ready()})")
            peak_rps = measure_rps(load, max(WINDOW_S, 0.5))
            peak_ready = ready()
        finally:
            result = load.stop()

        shrink_started = time.monotonic()
        shrank = wait_for(lambda: ready() == 1 and
                          len(pool.describe_pool()["workers"]) == 1)
        ramp_down_s = time.monotonic() - shrink_started
        assert shrank, f"idle pool never shrank to the floor ({ready()})"
        # The shrunken pool still serves, bitwise identically.
        tail = ServeClient(pool.url, timeout_s=120.0)
        tail_x, tail_expected = cases[0]
        np.testing.assert_array_equal(
            np.asarray(tail.predict(tail_x, model="m")), tail_expected)
        autoscale = pool.metrics_snapshot()["autoscale"]

    return {
        "requests": result.requests,
        "requests_per_s": peak_rps,
        "failures": result.summary("errors")["errors"],
        "mismatches": result.mismatches,
        "peak_ready_workers": peak_ready,
        "ramp_up_s": round(ramp_up_s, 3),
        "ramp_down_s": round(ramp_down_s, 3),
        "scale_ups": autoscale["scale_ups"],
        "scale_downs": autoscale["scale_downs"],
        "reasons": sorted({event["reason"]
                           for event in autoscale["events"]}),
        "failure_sample": result.errors[:3],
        **result.summary("p50_ms", "p95_ms", "p99_ms"),
    }


def test_bench_autoscale(tmp_path):
    bundle = build_bundle(tmp_path, name="m", image=IMAGE,
                          in_channels=IN_CHANNELS, prototypes=4, hidden=(4,),
                          classes=6)
    engine = BundleEngine(bundle)
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(UNIQUE_BODIES):
        x = rng.standard_normal((1, IN_CHANNELS, IMAGE, IMAGE))
        cases.append((x, engine.predict(x)))
    hardware_hz = accelerator_hz(bundle, ACCEL_SECONDS_PER_SAMPLE)

    ramp = run_ramp_leg(bundle, hardware_hz, cases)

    payload = {
        "bench": "elastic pool ramp (PR10)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "max_workers": MAX_WORKERS,
            "hammers": HAMMERS,
            "unique_bodies": UNIQUE_BODIES,
            "window_s": WINDOW_S,
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "one_worker_capacity_rps": round(ONE_WORKER_RPS, 1),
            "hardware_hz": round(hardware_hz, 1),
        },
        "results": {"ramp": ramp},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    # Contract 1: the ramp reached the ceiling and came back to the floor
    # with zero failed requests and bitwise-identical outputs throughout.
    assert ramp["peak_ready_workers"] == MAX_WORKERS
    assert ramp["failures"] == 0, ramp["failure_sample"]
    assert ramp["mismatches"] == 0
    assert ramp["scale_ups"] >= 2 and ramp["scale_downs"] >= 3
    assert "queue-pressure" in ramp["reasons"]

    # Contract 2: elasticity delivered real capacity — the 4-worker
    # plateau beats what one paced worker can possibly serve.
    assert ramp["requests_per_s"] > 1.5 * ONE_WORKER_RPS, ramp
