"""Bench PR5 — zero-downtime rollout: serving throughput through a lifecycle.

A PECAN-D toy network is served by a 2-worker
:class:`~repro.serve.pool.PoolServer` under the same closed-loop multi-client
load as the PR4 pool bench, with workers paced to the paper's Section 4.3
accelerator cost model (so the numbers reflect the deployment shape the
paper implies — host dispatching to CAM hardware — and are stable on small
CI hosts).  Three phases run back to back **without restarting the pool**:

* **steady** — baseline traffic against the active version;
* **rollout** — the same load while a second (bitwise-identical) bundle
  version is deployed, 25% of traffic is mirrored through the candidate and
  the :class:`~repro.serve.lifecycle.RolloutGate` judges it to promotion;
* **post_promote** — traffic after the candidate became the active version.

The bench asserts the lifecycle's two contracts under load: **zero failed
requests** in every phase (a deploy is not an outage) and **bitwise-stable
outputs** (every response equals the direct single-process engine's, before,
during and after the rollout).  Throughput during the rollout is recorded —
the canary fraction temporarily mirrors 25% of requests through a second
engine, so some headroom is spent buying the parity proof.

Results land in ``.bench_results/BENCH_PR5.json``.  Budgets are env-tunable so the CI
bench-smoke job can run a tiny version::

    REPRO_BENCH_WINDOW_S=0.5 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_rollout.py -q
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import threading
import time

import numpy as np

from bench_results import result_path
from harness import accelerator_hz, build_bundle, run_singles
from repro.serve import BundleEngine, PoolServer, ServeClient, ServeConfig

RESULT_PATH = result_path("BENCH_PR5.json")

WINDOW_S = float(os.environ.get("REPRO_BENCH_WINDOW_S", "1.6"))
CLIENTS = 6
WORKERS = 2
CANARY_FRACTION = 0.25
IMAGE = 12
IN_CHANNELS = 3
#: Modeled accelerator latency per sample (Section 4.3 pacing).
ACCEL_SECONDS_PER_SAMPLE = 0.006


def run_load(url: str, images: np.ndarray, expected: np.ndarray,
             window_s: float):
    """Closed-loop load: CLIENTS threads fire singles for ``window_s``;
    every response is checked bitwise against the reference engine."""
    clients = [ServeClient(url, timeout_s=60.0) for _ in range(CLIENTS)]
    load = run_singles(
        lambda client, batch: clients[client].predict(batch, model="m"),
        images, clients=CLIENTS, window_s=window_s, expected=expected)
    summary = load.summary("requests", "window_s", "requests_per_s",
                           "p50_ms", "p95_ms", "errors")
    summary["output_mismatches"] = load.mismatches
    return summary


def test_bench_rollout_lifecycle(tmp_path):
    bundle = build_bundle(tmp_path, name="rollout_v1")
    candidate = tmp_path / "rollout_v2.npz"
    shutil.copyfile(bundle, candidate)        # identical → bitwise parity

    rng = np.random.default_rng(1)
    images = rng.standard_normal((32, IN_CHANNELS, IMAGE, IMAGE))
    expected = BundleEngine(bundle).predict(images)
    hardware_hz = accelerator_hz(bundle, ACCEL_SECONDS_PER_SAMPLE)

    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=WORKERS, policy="least_outstanding",
        heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        hardware_hz=hardware_hz, cache_mb=0.0))
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(180.0), "pool never became ready"
    results = {}
    try:
        client = ServeClient(pool.url, timeout_s=60.0)

        # Phase 1: steady state.
        results["steady"] = run_load(pool.url, images, expected, WINDOW_S)

        # Phase 2: the same load while a canary rollout runs to promotion.
        def deploy_soon():
            time.sleep(min(0.2, WINDOW_S / 4))
            client.deploy("m", str(candidate),
                          canary_fraction=CANARY_FRACTION,
                          min_samples=8)

        deployer = threading.Thread(target=deploy_soon)
        deployer.start()
        results["rollout"] = run_load(pool.url, images, expected, WINDOW_S)
        deployer.join(60.0)
        deadline = time.monotonic() + 60.0
        rollout_state = None
        while time.monotonic() < deadline:
            rollout_state = client.admin_status()["rollouts"].get("m")
            if rollout_state and rollout_state["state"] == "promoted":
                break
            # Feed the gate if the window was too small to finish it.
            client.predict(images[:1], model="m")
            time.sleep(0.02)
        assert rollout_state and rollout_state["state"] == "promoted", \
            f"rollout never promoted: {rollout_state}"
        results["gate"] = rollout_state["gate"]

        # Phase 3: after promotion (the candidate is now active).
        results["post_promote"] = run_load(pool.url, images, expected, WINDOW_S)
        restarts = pool.restarts_total
    finally:
        pool.stop(drain=True)

    payload = {
        "bench": "zero-downtime rollout lifecycle (PR5)",
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "clients": CLIENTS,
            "workers": WORKERS,
            "window_s": WINDOW_S,
            "canary_fraction": CANARY_FRACTION,
            "image": [IN_CHANNELS, IMAGE, IMAGE],
            "accel_seconds_per_sample": ACCEL_SECONDS_PER_SAMPLE,
            "hardware_hz": round(hardware_hz, 1),
        },
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    # The lifecycle contracts under load:
    for phase in ("steady", "rollout", "post_promote"):
        assert results[phase]["errors"] == 0, (phase, results[phase])
        assert results[phase]["output_mismatches"] == 0, (phase, results[phase])
        assert results[phase]["requests"] > 0
    assert results["gate"]["parity_violations"] == 0
    assert restarts == 0, "a rollout must not cost a worker restart"
    # The canary mirrors 25% of requests through a second engine; paced to
    # the accelerator model the pool has headroom, so the rollout phase must
    # retain most of the steady-state throughput.
    assert (results["rollout"]["requests_per_s"]
            >= 0.5 * results["steady"]["requests_per_s"]), results
