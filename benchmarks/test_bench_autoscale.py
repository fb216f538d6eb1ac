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
import threading
import time
from pathlib import Path

import numpy as np

from bench_results import result_path
from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import BundleEngine, PoolServer, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.server import _AcceleratorPacer

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


def build_bundle(tmp_path: Path) -> Path:
    rng = np.random.default_rng(0)
    cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
    model = Sequential(
        Conv2d(IN_CHANNELS, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * 4 * 4, 6, rng=rng),
    )
    pecan = convert_to_pecan(model, cfg, rng=rng)
    return export_deployment_bundle(pecan, tmp_path / "m.npz",
                                    input_shape=(IN_CHANNELS, IMAGE, IMAGE))


def calibrate_hardware_hz(bundle: Path) -> float:
    calibration = BundleEngine(bundle)
    calibration.predict(np.zeros((1, IN_CHANNELS, IMAGE, IMAGE)))
    hardware_hz = (_AcceleratorPacer(calibration, hz=1.0)._cycles()
                   / ACCEL_SECONDS_PER_SAMPLE)
    assert hardware_hz > 0
    return hardware_hz


def wait_for(predicate, timeout_s=120.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class Hammer:
    """Closed-loop clients verifying every response bitwise.

    ``cases`` is a list of ``(input, expected_logits)`` pairs; each thread
    cycles through them from its own offset so the stream stays unique
    enough that the PR8 response cache cannot absorb the load (the pools
    under test disable it anyway — the autoscaler must see real work).
    """

    def __init__(self, url: str, cases, model: str, threads: int):
        self.url, self.cases, self.model = url, cases, model
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.completed = 0
        self.failures: list = []
        self.mismatches = 0
        self.latencies_ms: list = []
        self.threads = [threading.Thread(target=self._run, args=(offset,))
                        for offset in range(threads)]

    def _run(self, offset: int):
        client = ServeClient(self.url, timeout_s=120.0)
        index = offset
        while not self.stop.is_set():
            x, expected = self.cases[index % len(self.cases)]
            index += 1
            started = time.monotonic()
            try:
                outputs = client.predict(x, model=self.model)
            except Exception as exc:    # noqa: BLE001 - collected for report
                with self.lock:
                    self.failures.append(repr(exc))
                continue
            elapsed_ms = (time.monotonic() - started) * 1e3
            ok = np.array_equal(np.asarray(outputs), expected)
            with self.lock:
                self.completed += 1
                self.latencies_ms.append(elapsed_ms)
                if not ok:
                    self.mismatches += 1

    def start(self):
        for thread in self.threads:
            thread.start()
        return self

    def join(self):
        self.stop.set()
        for thread in self.threads:
            thread.join(60.0)

    def count(self) -> int:
        with self.lock:
            return self.completed

    def percentiles(self) -> dict:
        with self.lock:
            lat = np.asarray(self.latencies_ms, dtype=float)
        if not lat.size:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        return {name: round(float(np.percentile(lat, q)), 3)
                for name, q in (("p50_ms", 50), ("p95_ms", 95),
                                ("p99_ms", 99))}


def measure_rps(hammer: Hammer, window_s: float) -> float:
    before = hammer.count()
    time.sleep(window_s)
    return round((hammer.count() - before) / window_s, 1)


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

        hammer = Hammer(pool.url, cases, "m", HAMMERS).start()
        ramp_started = time.monotonic()
        try:
            grew = wait_for(lambda: ready() >= MAX_WORKERS)
            ramp_up_s = time.monotonic() - ramp_started
            assert grew, (f"queue pressure never grew the pool to "
                          f"{MAX_WORKERS} (ready={ready()})")
            peak_rps = measure_rps(hammer, max(WINDOW_S, 0.5))
            peak_ready = ready()
        finally:
            hammer.join()

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

    leg = {
        "requests": hammer.count(),
        "requests_per_s": peak_rps,
        "failures": len(hammer.failures),
        "mismatches": hammer.mismatches,
        "peak_ready_workers": peak_ready,
        "ramp_up_s": round(ramp_up_s, 3),
        "ramp_down_s": round(ramp_down_s, 3),
        "scale_ups": autoscale["scale_ups"],
        "scale_downs": autoscale["scale_downs"],
        "reasons": sorted({event["reason"]
                           for event in autoscale["events"]}),
        "failure_sample": hammer.failures[:3],
    }
    leg.update(hammer.percentiles())
    return leg


def test_bench_autoscale(tmp_path):
    bundle = build_bundle(tmp_path)
    engine = BundleEngine(bundle)
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(UNIQUE_BODIES):
        x = rng.standard_normal((1, IN_CHANNELS, IMAGE, IMAGE))
        cases.append((x, engine.predict(x)))
    hardware_hz = calibrate_hardware_hz(bundle)

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
