"""Tests for :mod:`repro.serve.autoscale` — elastic worker pools.

Unit level drives the pure :class:`Autoscaler` policy with a fake clock
(dwell, cooldown, doubling, scale-to-zero, wake, pin).  End-to-end level
runs a real ``PoolServer`` with the autoscaler enabled: operator pins grow
and shrink the live worker set through the probing/retiring state ladder,
scale-to-zero cold starts serve the request that woke the pool, and the
``slow``-marked chaos leg kills a worker mid-ramp and still loses nothing.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io import export_deployment_bundle
from repro.serve import BundleEngine, PoolServer, ServeClient
from repro.serve.autoscale import Autoscaler, ScaleSignals
from repro.serve.config import AutoscaleConfig, ServeConfig
from repro.serve.lifecycle import LifecycleError

from tests.test_serve_pool import small_model


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_scaler(clock, start_workers=1, **overrides) -> Autoscaler:
    config = AutoscaleConfig(enabled=True, **overrides)
    return Autoscaler(config, start_workers=start_workers, clock=clock)


def pressured(ready, queue=100.0) -> ScaleSignals:
    return ScaleSignals(ready=ready, queue_depth=queue)


IDLE = ScaleSignals(ready=2, queue_depth=0.0, inflight=0)


# --------------------------------------------------------------------------- #
# Policy (fake clock, no processes)
# --------------------------------------------------------------------------- #
class TestAutoscalerPolicy:
    def test_pressure_must_dwell_before_scaling_up(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=4,
                             up_dwell_s=1.0)
        assert scaler.observe(pressured(1)) is None          # dwell starts
        clock.advance(0.5)
        assert scaler.observe(pressured(1)) is None          # still dwelling
        clock.advance(0.6)
        decision = scaler.observe(pressured(1))
        assert decision is not None and decision.target == 2
        assert decision.reason == "queue-pressure"

    def test_doubling_reaches_the_ceiling_in_two_steps(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=4,
                             up_dwell_s=0.0, cooldown_s=1.0)
        assert scaler.observe(pressured(1)).target == 2
        clock.advance(1.1)                                   # cooldown
        assert scaler.observe(pressured(2)).target == 4
        clock.advance(1.1)
        assert scaler.observe(pressured(4)) is None          # at ceiling
        assert scaler.scale_ups == 2

    def test_cooldown_blocks_consecutive_actions(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=8,
                             up_dwell_s=0.0, cooldown_s=5.0)
        assert scaler.observe(pressured(1)).target == 2
        clock.advance(1.0)
        assert scaler.observe(pressured(2)) is None          # cooling down
        clock.advance(4.1)
        assert scaler.observe(pressured(2)).target == 4

    def test_idle_steps_down_one_at_a_time_to_the_floor(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=3, max_workers=3,
                             down_idle_s=2.0, cooldown_s=0.0)
        assert scaler.observe(IDLE) is None
        clock.advance(2.1)
        assert scaler.observe(IDLE).target == 2              # -1, not halve
        # Every action resets the dwell: the next step-down needs its own
        # full idle window, making retirement deliberately gradual.
        assert scaler.observe(IDLE) is None
        clock.advance(2.1)
        assert scaler.observe(IDLE).target == 1
        scaler.observe(IDLE)
        clock.advance(2.1)
        assert scaler.observe(IDLE) is None                  # floor of 1
        assert scaler.scale_downs == 2

    def test_scale_to_zero_retires_the_last_worker(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, scale_to_zero=True,
                             down_idle_s=1.0, cooldown_s=0.0)
        assert scaler.floor == 0
        clock.advance(0.0)
        scaler.observe(IDLE)
        clock.advance(1.1)
        assert scaler.observe(IDLE).target == 0

    def test_wake_forces_one_worker_immediately(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, scale_to_zero=True,
                             down_idle_s=0.0, cooldown_s=100.0)
        # Zero idle dwell: the first idle observation retires the last worker.
        assert scaler.observe(IDLE).target == 0
        # wake() bypasses both dwell and the (long) cooldown.
        decision = scaler.wake()
        assert decision.target == 1 and decision.reason == "cold-start"
        assert scaler.wake() is None                         # already awake

    def test_busy_but_coping_resets_both_dwells(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=4,
                             up_dwell_s=1.0, down_idle_s=1.0)
        scaler.observe(pressured(1))
        clock.advance(0.9)
        # In-flight work but no queue: neither pressured nor idle.
        scaler.observe(ScaleSignals(ready=1, queue_depth=0.0, inflight=3))
        clock.advance(0.2)
        assert scaler.observe(pressured(1)) is None          # dwell restarted

    def test_empty_pool_with_waiting_work_is_pressure(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, scale_to_zero=True,
                             up_dwell_s=0.0)
        scaler.target = 0
        decision = scaler.observe(
            ScaleSignals(ready=0, queue_depth=1.0))
        assert decision is not None and decision.target >= 1

    def test_p99_slo_breach_is_pressure(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=2,
                             up_dwell_s=0.0)
        decision = scaler.observe(ScaleSignals(
            ready=1, queue_depth=0.0, inflight=1, p99_ms=80.0,
            p99_slo_ms=50.0))
        assert decision is not None and decision.reason == "p99-slo"

    def test_pin_clamps_into_the_envelope(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=2, min_workers=1,
                             max_workers=4)
        assert scaler.pin(100).target == 4
        assert scaler.pin(0).target == 1
        assert scaler.pin(3, reason="operator").reason == "operator"

    def test_snapshot_shape(self):
        clock = FakeClock()
        scaler = make_scaler(clock, start_workers=1, max_workers=4,
                             up_dwell_s=0.0)
        scaler.observe(pressured(1))
        snapshot = scaler.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["target"] == 2 and snapshot["ceiling"] == 4
        assert snapshot["scale_ups"] == 1 and snapshot["scale_downs"] == 0
        assert snapshot["events"][-1]["reason"] == "queue-pressure"


# --------------------------------------------------------------------------- #
# The elastic pool, end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scale_bundle(tmp_path_factory) -> Path:
    rng = np.random.default_rng(42)
    return export_deployment_bundle(
        small_model(rng), tmp_path_factory.mktemp("autoscale") / "toy.npz",
        input_shape=(1, 10, 10))


def elastic_pool(scale_bundle, hardware_hz=None,
                 **autoscale_overrides) -> PoolServer:
    config = ServeConfig.build(
        port=0, workers=1,
        **{"engine.hardware_hz": hardware_hz,
           "pool.heartbeat_interval_s": 0.1,
           "autoscale.enabled": True,
           **{f"autoscale.{name}": value
              for name, value in autoscale_overrides.items()}})
    pool = PoolServer(config=config)
    pool.add_bundle(scale_bundle, name="toy")
    return pool


def wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestElasticPool:
    def test_pin_grows_through_probe_and_shrinks_through_drain(
            self, scale_bundle):
        with elastic_pool(scale_bundle, max_workers=3,
                          down_idle_s=600.0) as pool:
            assert pool.wait_ready(120.0)
            client = ServeClient(pool.url)
            x = np.random.default_rng(0).standard_normal((2, 1, 10, 10))
            expected = BundleEngine(scale_bundle).predict(x)

            response = client.scale(3)
            assert response["workers"] == 3 and response["spawned"] == 2
            # New workers join the rotation only after passing their probe.
            assert wait_for(lambda: len(pool.ready_workers()) == 3)
            np.testing.assert_array_equal(
                client.predict(x, model="toy"), expected)

            response = client.scale(1, reason="operator-shrink")
            assert response["retired"] == 2
            # Retired workers drain, stop, and are reaped without respawn.
            assert wait_for(lambda: len(pool.describe_pool()["workers"]) == 1)
            assert len(pool.ready_workers()) == 1
            np.testing.assert_array_equal(
                client.predict(x, model="toy"), expected)
            autoscale = pool.metrics_snapshot()["autoscale"]
            assert autoscale["enabled"] and autoscale["target"] == 1
            reasons = [event["reason"] for event in autoscale["events"]]
            assert "operator-shrink" in reasons

    def test_scale_to_zero_cold_start_serves_the_waking_request(
            self, scale_bundle):
        with elastic_pool(scale_bundle, max_workers=2, min_workers=0,
                          scale_to_zero=True, down_idle_s=600.0) as pool:
            assert pool.wait_ready(120.0)
            client = ServeClient(pool.url, timeout_s=120.0)
            x = np.zeros((1, 1, 10, 10))
            expected = BundleEngine(scale_bundle).predict(x)

            assert client.scale(0)["workers"] == 0
            assert wait_for(
                lambda: len(pool.describe_pool()["workers"]) == 0)
            # The request that finds an empty pool wakes it and is served by
            # the cold-started worker (mmap-backed bundle open, not a 503).
            np.testing.assert_array_equal(
                client.predict(x, model="toy"), expected)
            assert len(pool.ready_workers()) >= 1
            reasons = [event["reason"] for event
                       in pool.metrics_snapshot()["autoscale"]["events"]]
            assert "cold-start" in reasons

    def test_queue_pressure_grows_the_pool_under_load(self, scale_bundle):
        # Pace the workers to a slow modeled accelerator so the hammer
        # threads sustain real queue depth instead of being drained at
        # host speed (the tiny model is otherwise sub-millisecond).
        from repro.serve.server import _AcceleratorPacer

        probe = BundleEngine(scale_bundle)
        probe.predict(np.zeros((4, 1, 10, 10)))
        cycles = _AcceleratorPacer(probe, hz=1.0)._cycles()
        with elastic_pool(scale_bundle, max_workers=3, up_dwell_s=0.2,
                          cooldown_s=0.3, down_idle_s=600.0,
                          up_queue_per_worker=1.0,
                          hardware_hz=cycles / 0.15) as pool:
            assert pool.wait_ready(120.0)
            client = ServeClient(pool.url, timeout_s=120.0)
            x = np.zeros((4, 1, 10, 10))
            stop = threading.Event()
            failures = []

            def hammer():
                hammer_client = ServeClient(pool.url, timeout_s=120.0)
                while not stop.is_set():
                    try:
                        # no_cache: identical inputs would otherwise be
                        # answered by the router's cache, not the workers.
                        hammer_client.predict(x, model="toy", no_cache=True)
                    except Exception as exc:    # noqa: BLE001 - collected
                        failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            try:
                grew = wait_for(
                    lambda: pool.metrics_snapshot()["autoscale"]["target"] > 1,
                    timeout_s=60.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(30.0)
            assert grew, "sustained queue pressure never grew the pool"
            assert not failures
            assert client.predict(x, model="toy").shape == (4, 6)

    def test_scale_refuses_when_not_running(self, scale_bundle):
        pool = elastic_pool(scale_bundle)
        with pytest.raises(LifecycleError, match="not running"):
            pool.scale_to(2)

    def test_plain_pool_rejects_zero_and_reports_disabled(self, scale_bundle,
                                                          capsys):
        from repro.cli import main as cli_main

        config = ServeConfig.build(port=0, workers=1,
                                   **{"pool.heartbeat_interval_s": 0.1})
        pool = PoolServer(config=config)
        pool.add_bundle(scale_bundle, name="toy")
        with pool:
            assert pool.wait_ready(120.0)
            assert pool.metrics_snapshot()["autoscale"] == {"enabled": False}
            with pytest.raises(ValueError, match="at least one worker"):
                pool.scale_to(0)
            assert pool.scale_to(2)["spawned"] == 1
            assert wait_for(lambda: len(pool.ready_workers()) == 2)
            # The operator CLI rides the same admin verb.
            assert cli_main(["scale", "--url", pool.url, "--workers", "1",
                             "--reason", "cli-shrink"]) == 0
            assert "pool pinned to 1 worker(s)" in capsys.readouterr().out
            assert wait_for(lambda: len(pool.describe_pool()["workers"]) == 1)


# --------------------------------------------------------------------------- #
# Chaos: a worker dies mid-ramp and nothing is lost
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestAutoscaleChaos:
    def test_worker_kill_mid_ramp_loses_nothing(self, scale_bundle):
        with elastic_pool(scale_bundle, max_workers=4, up_dwell_s=0.2,
                          cooldown_s=0.3, down_idle_s=600.0,
                          up_queue_per_worker=1.0) as pool:
            assert pool.wait_ready(120.0)
            rng = np.random.default_rng(3)
            x = rng.standard_normal((2, 1, 10, 10))
            expected = BundleEngine(scale_bundle).predict(x)
            stop = threading.Event()
            failures = []
            completed = [0]

            def hammer():
                client = ServeClient(pool.url, timeout_s=120.0)
                while not stop.is_set():
                    try:
                        outputs = client.predict(x, model="toy")
                        np.testing.assert_array_equal(outputs, expected)
                        completed[0] += 1
                    except Exception as exc:    # noqa: BLE001 - collected
                        failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            try:
                # Let the ramp begin, then kill a ready worker outright.
                assert wait_for(lambda: completed[0] > 5, timeout_s=60.0)
                victim = pool.ready_workers()[0]
                victim.process.kill()
                # Traffic keeps flowing: the router retries connection
                # failures on surviving workers and the monitor respawns.
                before = completed[0]
                assert wait_for(lambda: completed[0] > before + 10,
                                timeout_s=60.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(30.0)
            assert not failures, failures[:3]
            # The pool healed: at least one ready worker, and every single
            # completed response was bitwise identical to the reference.
            assert wait_for(lambda: len(pool.ready_workers()) >= 1)
            assert completed[0] > 15
