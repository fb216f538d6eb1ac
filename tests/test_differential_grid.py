"""Differential grid: every PECAN-D kernel path and the exact batch norm.

PECAN-D inference must be bitwise deterministic whichever kernel runs it.
For generated conv and fc layers (stride 1/2, padding 0/1, position counts
that are not a multiple of the kernel's position block, batches of 1-17,
p from 1 to past the block, several d, permuted group layouts, and forced
ties from duplicated prototypes and integer-valued data) this compares:

* the compiled kernel (when it builds here),
* the fused NumPy path with scipy's ``cdist``,
* the fused NumPy broadcast path (no scipy),
* the per-group reference loop over the CAM banks,
* a runtime built with ``REPRO_DISABLE_CKERNELS=1``.

Outputs must match byte for byte, and usage, CAM statistics and op counts
must be equal. The ``batchnorm`` op (with and without a fused ReLU, NaNs
included) must equal the allocating NumPy expression byte for byte, for
float64 and float32 inputs.
"""

import importlib
import os
from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cam.runtime as runtime_mod
import repro.perf.ckernels as ck
from repro.cam.cam_array import CAMStats
from repro.cam.counters import OpCounter
from repro.cam.layer_lut import LayerLUT
from repro.ir.executor import GraphExecutor
from repro.ir.graph import Graph, Node
from repro.pecan.config import PECANMode

GRID = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Prototype counts: 1, 2, 4, 8 and one past the kernel's position block.
PROTOTYPES = (1, 2, 4, 8, ck.POSITION_BLOCK + 3)


@contextmanager
def kernels_disabled():
    """Reload the kernel module under ``REPRO_DISABLE_CKERNELS=1``."""
    saved = os.environ.get("REPRO_DISABLE_CKERNELS")
    os.environ["REPRO_DISABLE_CKERNELS"] = "1"
    importlib.reload(ck)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_DISABLE_CKERNELS"]
        else:
            os.environ["REPRO_DISABLE_CKERNELS"] = saved
        importlib.reload(ck)


@contextmanager
def scipy_hidden():
    saved = runtime_mod._cdist
    runtime_mod._cdist = None
    try:
        yield
    finally:
        runtime_mod._cdist = saved


def values(rng, shape, integer):
    """Small integers make distinct prototypes tie; normals do not."""
    if integer:
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    return rng.standard_normal(shape)


@st.composite
def pecan_d_cases(draw):
    kind = draw(st.sampled_from(["conv", "fc"]))
    if kind == "conv":
        k = draw(st.sampled_from([1, 2, 3]))
        cin = draw(st.integers(1, 3))
        stride = draw(st.sampled_from([1, 2]))
        padding = draw(st.sampled_from([0, 1]))
        h = draw(st.integers(max(1, k - 2 * padding), 9))
        w = draw(st.integers(max(1, k - 2 * padding), 9))
        rows = cin * k * k
    else:
        k, stride, padding, h, w = 1, 1, 0, 1, 1
        cin = rows = draw(st.integers(1, 12))
    d = draw(st.sampled_from([v for v in (1, 2, 3, 4, 5, 6, 9) if rows % v == 0]))
    return dict(
        kind=kind, k=k, cin=cin, stride=stride, padding=padding, h=h, w=w, d=d,
        groups=rows // d,
        p=draw(st.sampled_from(PROTOTYPES)),
        cout=draw(st.integers(1, 6)),
        batch=draw(st.integers(1, 17)),
        permuted=kind == "conv" and draw(st.booleans()),
        bias=draw(st.booleans()),
        integer=draw(st.booleans()),
        duplicates=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def build_lut(case, rng):
    g, d, p, cout = case["groups"], case["d"], case["p"], case["cout"]
    protos = values(rng, (g, d, p), case["integer"])
    if case["duplicates"] and p > 1:
        protos[:, :, 1::2] = protos[:, :, 0:-1:2]      # m+1 repeats m: exact ties
    permutation = rng.permutation(g * d) if case["permuted"] else None
    return LayerLUT(
        name="layer", kind=case["kind"], mode=PECANMode.DISTANCE,
        prototypes=protos, table=rng.standard_normal((g, cout, p)),
        bias=rng.standard_normal(cout) if case["bias"] else None,
        temperature=0.5, kernel_size=case["k"], stride=case["stride"],
        padding=case["padding"], in_channels=case["cin"], out_channels=cout,
        group_permutation=permutation)


def run(runtime, x):
    out = runtime(x)
    ops = runtime.counter.layer(runtime.lut.name, runtime.lut.kind)
    return (out, runtime.usage.copy(), runtime.stats,
            (ops.additions, ops.multiplications, ops.comparisons, ops.lookups))


@GRID
@given(case=pecan_d_cases())
def test_pecan_d_paths_agree_bitwise(case):
    rng = np.random.default_rng(case["seed"])
    lut = build_lut(case, rng)
    if case["kind"] == "conv":
        x = values(rng, (case["batch"], case["cin"], case["h"], case["w"]), case["integer"])
    else:
        x = values(rng, (case["batch"], case["cin"]), case["integer"])

    def make(**kwargs):
        return runtime_mod.LUTLayerRuntime(lut, OpCounter(), **kwargs)

    def make_fused_numpy():
        runtime = make()
        runtime._ckernel = None
        return runtime

    paths = {}
    compiled = make()
    if compiled.kernel_name == "ckernel":
        paths["ckernel"] = run(compiled, x)
    cdist = make_fused_numpy()
    if cdist.kernel_name == "cdist":
        paths["cdist"] = run(cdist, x)
    with scipy_hidden():
        broadcast = make_fused_numpy()
        assert broadcast.kernel_name == "numpy"
        paths["numpy"] = run(broadcast, x)
    reference = make(use_fused=False)
    paths["reference"] = run(reference, x)
    with kernels_disabled():
        disabled = make()
    assert disabled.kernel_name in ("cdist", "numpy")
    paths["disabled"] = run(disabled, x)

    out, usage, stats, ops = paths.pop("reference")
    for name, (p_out, p_usage, p_stats, p_ops) in paths.items():
        assert p_out.shape == out.shape, name
        assert p_out.tobytes() == out.tobytes(), name
        np.testing.assert_array_equal(p_usage, usage, err_msg=name)
        assert p_stats == stats, name
        assert p_ops == ops, name

    # The reference banks keep their own tallies; the static model must agree.
    banks = CAMStats()
    for bank in reference.cam_banks:
        banks = banks.merge(bank.stats)
    assert banks == stats
    np.testing.assert_array_equal(np.stack([b.usage for b in reference.cam_banks]), usage)
    positions = out.size // case["cout"]
    assert usage.sum() == positions * case["groups"]
    assert stats.searches == positions * reference.cost.searches


@st.composite
def batchnorm_cases(draw):
    return dict(ndim=draw(st.sampled_from([2, 4])),
                channels=draw(st.integers(1, 6)),
                batch=draw(st.integers(1, 9)),
                spatial=draw(st.integers(1, 5)),
                relu=draw(st.booleans()),
                nan=draw(st.booleans()),
                eps=draw(st.sampled_from([1e-5, 1e-3, 0.1])),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


def batchnorm_graph(case, rng):
    c = case["channels"]
    attrs = {"eps": case["eps"]}
    if case["relu"]:
        attrs["fused_relu"] = True
    arrays = {"mean": rng.standard_normal(c), "var": rng.random(c) * 2.0,
              "gamma": rng.standard_normal(c), "beta": rng.standard_normal(c)}
    bn = Node(1, "batchnorm", [0], attrs, arrays)
    return Graph([Node(0, "input"), bn], output_id=1), arrays


def reference_batch_norm(x, arrays, eps, relu):
    """The allocating expression the in-place pass must reproduce."""
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    normalized = ((x - arrays["mean"].reshape(shape))
                  / np.sqrt(arrays["var"].reshape(shape) + eps))
    out = normalized * arrays["gamma"].reshape(shape) + arrays["beta"].reshape(shape)
    return np.maximum(out, 0.0) if relu else out


@GRID
@given(case=batchnorm_cases())
def test_batchnorm_matches_reference_bitwise(case):
    rng = np.random.default_rng(case["seed"])
    graph, arrays = batchnorm_graph(case, rng)
    shape = (case["batch"], case["channels"])
    if case["ndim"] == 4:
        shape += (case["spatial"], case["spatial"] + 1)
    x = rng.standard_normal(shape)
    x.flat[::3] = arrays["mean"][0]                 # exact zeros after centring
    if case["nan"]:
        x.flat[1::5] = np.nan
    expected = reference_batch_norm(x, arrays, case["eps"], case["relu"])
    before = x.copy()
    got = GraphExecutor(graph).run(x)
    assert got.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes()          # the input is never written
    # float32 input promotes to float64 exactly as the allocating expression does.
    x32 = x.astype(np.float32)
    expected32 = reference_batch_norm(x32, arrays, case["eps"], case["relu"])
    got32 = GraphExecutor(graph).run(x32)
    assert got32.dtype == expected32.dtype
    assert got32.tobytes() == expected32.tobytes()
