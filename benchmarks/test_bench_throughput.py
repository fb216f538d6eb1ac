"""Bench PR1 — fused/streaming CAM engine throughput vs the seed per-group loop.

A medium deployment workload (a ResNet-ish two-conv PECAN block at batch 32)
is run through :class:`~repro.cam.inference.CAMInferenceEngine` twice: once on
the fused fast path (compiled kernel / batched BLAS with position chunking)
and once on the seed per-group reference loop.  The bench asserts

* element-wise agreement between the two paths (``atol=1e-10``; the compiled
  PECAN-D kernel is in fact bitwise-identical),
* a minimum speedup that depends on which kernel is active (≥ 5× for the
  compiled kernel, which is the configuration this repository ships on),
* bounded peak memory for the streamed fused path,

and records throughput (images/s), speedups, peak-memory numbers and the
active kernel per layer into ``.bench_results/BENCH_PR1.json`` so the
next change has a regression baseline.  Run it alone with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_throughput.py -q
"""

import json
import platform
import tracemalloc

import numpy as np
import pytest

from bench_results import result_path
from repro.cam.inference import CAMInferenceEngine
from repro.nn.layers import ReLU
from repro.nn.sequential import Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.layers import PECANConv2d
from repro.perf import ChunkPolicy, measure_throughput
from repro.perf.ckernels import kernel_available

RESULT_PATH = result_path("BENCH_PR1.json")

#: Medium config: two 3×3 PECAN convs (32→64→64 channels) on 16×16 inputs.
BATCH = 32
IMAGE = 16
CHANNELS = (32, 64, 64)
PROTOTYPES = 16

#: Minimum acceptable fused-vs-reference speedup per active kernel kind.
MIN_SPEEDUP = {"ckernel": 5.0, "cdist": 1.5, "blas": 0.8, "numpy": 0.0}


def build_block(rng, mode):
    temperature = 1.0 if mode == "angle" else 0.5
    cfg = PQLayerConfig(num_prototypes=PROTOTYPES, mode=mode, temperature=temperature)
    c0, c1, c2 = CHANNELS
    return Sequential(
        PECANConv2d(c0, c1, 3, cfg, padding=1, rng=rng), ReLU(),
        PECANConv2d(c1, c2, 3, cfg, padding=1, rng=rng), ReLU(),
    )


def measure_mode(rng, mode, repeats=3):
    model = build_block(rng, mode)
    x = rng.standard_normal((BATCH, CHANNELS[0], IMAGE, IMAGE))

    engine = CAMInferenceEngine(model)
    kernels = {name: rt.kernel_name for name, rt in engine.runtimes.items()}
    fused_out = engine.predict(x)
    fused = measure_throughput(lambda: engine.predict(x), f"{mode}/fused",
                               items_per_run=BATCH, repeats=repeats)

    reference_engine = CAMInferenceEngine(model, use_fused=False)
    reference_out = reference_engine.predict(x)
    reference = measure_throughput(lambda: reference_engine.predict(x),
                                   f"{mode}/reference",
                                   items_per_run=BATCH, repeats=repeats)

    np.testing.assert_allclose(fused_out, reference_out, atol=1e-10)

    # Peak-memory probes (tracemalloc tracks NumPy's allocations).
    tracemalloc.start()
    engine.predict(x)
    _, fused_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    streamed = CAMInferenceEngine(model, chunk_policy=ChunkPolicy(max_bytes=8 * 2 ** 20))
    streamed_out = streamed.predict(x, batch_chunk=8)
    if mode == "distance":
        np.testing.assert_array_equal(streamed_out, fused_out)
    else:
        # BLAS GEMMs may block differently per operand shape, so the angle
        # path is only guaranteed equal to floating-point round-off.
        np.testing.assert_allclose(streamed_out, fused_out, atol=1e-10)
    tracemalloc.start()
    streamed.predict(x, batch_chunk=8)
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "kernels": kernels,
        "fused": fused.to_dict(),
        "reference": reference.to_dict(),
        "speedup": fused.speedup_over(reference),
        "fused_peak_bytes": fused_peak,
        "streamed_peak_bytes": streamed_peak,
    }


@pytest.fixture(scope="module")
def throughput_results(rng):
    results = {mode: measure_mode(rng, mode) for mode in ("distance", "angle")}
    payload = {
        "bench": "PR1 fused group kernels + streaming CAM inference",
        "config": {
            "batch": BATCH, "image": IMAGE, "channels": list(CHANNELS),
            "num_prototypes": PROTOTYPES,
        },
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "compiled_kernel": kernel_available(),
        },
        "modes": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return results


class TestThroughput:
    def test_results_recorded(self, throughput_results):
        assert RESULT_PATH.exists()
        stored = json.loads(RESULT_PATH.read_text())
        assert set(stored["modes"]) == {"distance", "angle"}

    def test_distance_speedup_meets_floor(self, throughput_results):
        result = throughput_results["distance"]
        kernel_kinds = set(result["kernels"].values())
        floor = min(MIN_SPEEDUP[kind] for kind in kernel_kinds)
        assert result["speedup"] >= floor, (
            f"fused PECAN-D path is only {result['speedup']:.2f}x faster than the "
            f"seed per-group loop (kernels: {result['kernels']}, floor {floor}x)")

    def test_angle_not_regressed(self, throughput_results):
        assert throughput_results["angle"]["speedup"] >= MIN_SPEEDUP["blas"]

    def test_streamed_peak_memory_bounded(self, throughput_results):
        result = throughput_results["distance"]
        # The batch-8 streamed pass must not allocate more transient memory
        # than the full-batch fused pass did.
        assert result["streamed_peak_bytes"] <= max(result["fused_peak_bytes"],
                                                    8 * 2 ** 20)


def test_bench_throughput_report(benchmark, throughput_results):
    """Expose images/s of the fused PECAN-D path to the benchmark harness."""
    d = throughput_results["distance"]
    print("\nBench PR1 — CAM inference throughput (batch %d)" % BATCH)
    for mode, result in throughput_results.items():
        print(f"  {mode:9s}  fused {result['fused']['items_per_second']:9.1f} img/s"
              f"  reference {result['reference']['items_per_second']:9.1f} img/s"
              f"  speedup {result['speedup']:5.2f}x  kernels {result['kernels']}")
    benchmark(lambda: d["speedup"])
