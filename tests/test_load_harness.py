"""Tests for the benches' load scaffold (``benchmarks/harness.py``).

The drivers run against fake in-process calls: no sockets, no servers and
no wall-clock thresholds, so every count below is exact.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from harness import (MAX_RECORDED_ERRORS, ClosedLoop, accelerator_hz,
                     build_bundle, pct, run_closed_loop, run_singles,
                     run_zipf_load)
from repro.serve import BundleEngine, ZipfWorkload


class TestClosedLoop:
    def test_requests_per_client_is_exact(self):
        seen = []
        lock = threading.Lock()

        def call(client, n):
            with lock:
                seen.append((client, n))

        result = run_closed_loop(call, clients=3, requests_per_client=5)
        assert result.requests == 15
        assert len(result.latencies_ms) == 15
        assert sorted(seen) == [(c, n) for c in range(3) for n in range(5)]
        assert result.errors == [] and result.mismatches == 0

    @pytest.mark.parametrize("on_error, requests, errors", [
        ("record", 6, 2),     # each client fails once and carries on
        ("stop", 2, 2),       # each client ends at its failure
    ])
    def test_on_error_record_versus_stop(self, on_error, requests, errors):
        def call(client, n):
            if n == 1:
                raise RuntimeError(f"client {client} failed")

        result = run_closed_loop(call, clients=2, requests_per_client=4,
                                 on_error=on_error)
        assert result.requests == requests
        assert len(result.errors) == errors
        assert result.summary()["errors"] == errors
        assert "client" in result.errors[0]

    def test_unknown_on_error_and_missing_bound_are_refused(self):
        with pytest.raises(ValueError, match="on_error"):
            run_closed_loop(lambda c, n: None, clients=1,
                            requests_per_client=1, on_error="ignore")
        with pytest.raises(ValueError, match="window_s"):
            run_closed_loop(lambda c, n: None, clients=1)

    @pytest.mark.parametrize("good, bad", [
        (b"reference", b"stale"),
        (np.array([[1.0, 2.0]]), np.array([[1.0, 2.5]])),
    ])
    def test_mismatches_count_for_bytes_and_arrays(self, good, bad):
        result = run_closed_loop(lambda c, n: bad if n % 3 == 0 else good,
                                 clients=2, requests_per_client=6,
                                 expect=lambda c, n: good)
        assert result.requests == 12
        assert result.mismatches == 4          # n = 0 and 3, per client

    def test_wrong_shape_is_a_mismatch(self):
        expected = np.zeros((1, 3))
        result = run_closed_loop(lambda c, n: np.zeros((3,)), clients=1,
                                 requests_per_client=2,
                                 expect=lambda c, n: expected)
        assert result.mismatches == 2

    def test_error_cap_keeps_the_count_exact(self):
        total = MAX_RECORDED_ERRORS + 37

        def call(client, n):
            raise ValueError("boom")

        result = run_closed_loop(call, clients=1, requests_per_client=total)
        assert len(result.errors) == MAX_RECORDED_ERRORS
        assert result.error_overflow == 37
        assert result.summary()["errors"] == total
        assert result.requests == 0

    def test_stop_ends_an_unbounded_run(self):
        release = threading.Event()
        calls = []

        def call(client, n):
            calls.append(n)
            if len(calls) >= 10:
                release.set()

        load = ClosedLoop(call, clients=1).start()
        assert release.wait(30.0)
        result = load.stop()
        assert result.requests == len(calls) >= 10
        assert load.completed() == result.requests

    def test_run_singles_walks_strided_samples(self):
        images = np.arange(10.0).reshape(10, 1)
        sent = {0: [], 1: []}

        def predict(client, batch):
            sent[client].append(int(batch[0, 0]))
            if len(sent[client]) == 7:
                raise RuntimeError("end of stream")   # on_error="stop" ends it
            return batch

        result = run_singles(predict, images, clients=2, window_s=60.0,
                             expected=images)
        assert sent[0] == [0, 2, 4, 6, 8, 0, 2]
        assert sent[1] == [1, 3, 5, 7, 9, 1, 3]
        assert result.requests == 12 and result.mismatches == 0
        assert len(result.errors) == 2


class TestZipfLoad:
    def test_long_streams_continue_instead_of_repeating(self):
        workload = ZipfWorkload(np.arange(4096), alpha=1.1, seed=0)
        seen = []

        def predict(item, client):
            if len(seen) == 3072:
                raise RuntimeError("end of stream")   # on_error="stop" ends it
            seen.append(int(item))

        result = run_zipf_load(predict, workload, clients=1, window_s=600.0,
                               on_error="stop")
        assert result.requests == 3072
        assert seen == workload.indices(3072, stream=0).tolist()
        assert seen[2048:] != seen[1024:2048]

    def test_budget_references_and_streams(self):
        items = [np.full((1, 2), float(i)) for i in range(16)]
        workload = ZipfWorkload(items, alpha=1.2, seed=7)
        references = [item for item in items]
        references[0] = np.full((1, 2), -1.0)  # item 0 now reads as stale
        result = run_zipf_load(lambda item, client: item, workload,
                               clients=3, requests_per_client=20,
                               references=references)
        assert result.requests == 60
        zeros = sum(int(np.sum(workload.indices(20, stream=c) == 0))
                    for c in range(3))
        assert zeros > 0
        assert result.mismatches == zeros


class TestZipfWorkload:
    def test_streams_are_pinned(self):
        # perfbench's pool_zipf replays these streams; they must not move.
        workload = ZipfWorkload(np.arange(4096), alpha=1.1, seed=0)
        assert workload.indices(12, stream=0).tolist() == \
            [61, 2, 0, 0, 382, 1262, 46, 154, 26, 1683, 394, 0]
        assert workload.indices(12, stream=3).tolist() == \
            [1008, 661, 4, 3, 3, 102, 4, 144, 0, 1, 1192, 25]

    def test_streams_are_prefix_consistent(self):
        workload = ZipfWorkload(np.arange(4096), alpha=1.1, seed=0)
        np.testing.assert_array_equal(workload.indices(1024, stream=1),
                                      workload.indices(4096, stream=1)[:1024])


def test_pct_is_the_floor_index_quantile():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert pct(ordered, 0.50) == 3.0
    assert pct(ordered, 0.99) == 4.0
    assert pct(ordered, 0.0) == 1.0
    assert pct([], 0.5) == 0.0


def test_build_bundle_is_seeded_and_paced_per_sample(tmp_path):
    kwargs = dict(image=10, in_channels=1, prototypes=4, hidden=(4,),
                  classes=6)
    first = build_bundle(tmp_path, name="a", **kwargs)
    again = build_bundle(tmp_path, name="b", **kwargs)
    other = build_bundle(tmp_path, name="c", seed=1, **kwargs)
    x = np.random.default_rng(0).standard_normal((2, 1, 10, 10))
    logits = BundleEngine(first).predict(x)
    assert logits.shape == (2, 6)
    np.testing.assert_array_equal(BundleEngine(again).predict(x), logits)
    assert not np.array_equal(BundleEngine(other).predict(x), logits)
    # One calibration sample: twice the latency is half the clock.
    assert accelerator_hz(first, 0.01) == pytest.approx(
        2 * accelerator_hz(first, 0.02))
