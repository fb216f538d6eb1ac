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

Export folds batch norm into the PECAN tables, so the folded program is what
a served BN model runs: for generated ``pecan → batchnorm (→ relu)`` graphs
the folded program must agree byte for byte across the same kernel paths,
and to ``atol=1e-8`` with the unfolded program.

The ``/predict`` wire format has its own grid: for generated and named JSON
bodies, ``decode_predict_body`` (the compiled tensor parser with its
``json.loads`` fallback) must give exactly what ``json.loads`` +
``np.asarray`` give, or raise the same exception with the same message.
"""

import importlib
import json
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cam.runtime as runtime_mod
import repro.perf.ckernels as ck
from repro.cam.cam_array import CAMStats
from repro.cam.counters import OpCounter
from repro.cam.layer_lut import LayerLUT
from repro.ir.executor import GraphExecutor
from repro.ir.graph import Graph, Node
from repro.ir.passes import optimize_graph
from repro.pecan.config import PECANMode
from repro.serve.pipeline import decode_predict_body

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


def layer_input(case, rng):
    if case["kind"] == "conv":
        shape = (case["batch"], case["cin"], case["h"], case["w"])
    else:
        shape = (case["batch"], case["cin"])
    return values(rng, shape, case["integer"])


def kernel_paths(lut):
    """Yield ``(path name, runtime)`` for every kernel path available here.

    Run each runtime before asking for the next: the ``numpy`` path must run
    while scipy is hidden.
    """
    def make(**kwargs):
        return runtime_mod.LUTLayerRuntime(lut, OpCounter(), **kwargs)

    def make_fused_numpy():
        runtime = make()
        runtime._ckernel = None
        return runtime

    compiled = make()
    if compiled.kernel_name == "ckernel":
        yield "ckernel", compiled
    cdist = make_fused_numpy()
    if cdist.kernel_name == "cdist":
        yield "cdist", cdist
    with scipy_hidden():
        broadcast = make_fused_numpy()
        assert broadcast.kernel_name == "numpy"
        yield "numpy", broadcast
    yield "reference", make(use_fused=False)
    with kernels_disabled():
        disabled = make()
    assert disabled.kernel_name in ("cdist", "numpy")
    yield "disabled", disabled


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
    x = layer_input(case, rng)
    paths, runtimes = {}, {}
    for name, runtime in kernel_paths(lut):
        runtimes[name] = runtime
        paths[name] = run(runtime, x)
    reference = runtimes["reference"]

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


@st.composite
def folded_cases(draw):
    case = draw(pecan_d_cases())
    case.update(relu=draw(st.booleans()),
                eps=draw(st.sampled_from([1e-5, 1e-3, 0.1])))
    return case


def pecan_batchnorm_graph(case, rng):
    """``input → pecan → batchnorm (→ relu)``, the shape export folds."""
    c = case["cout"]
    arrays = {"mean": rng.standard_normal(c), "var": rng.random(c) * 2.0,
              "gamma": rng.standard_normal(c), "beta": rng.standard_normal(c)}
    nodes = [Node(0, "input"), Node(1, "pecan", [0], {"layer": "layer"}),
             Node(2, "batchnorm", [1], {"eps": case["eps"]}, arrays)]
    if case["relu"]:
        nodes.append(Node(3, "relu", [2]))
    return Graph(nodes, output_id=nodes[-1].id)


@GRID
@given(case=folded_cases())
def test_folded_batchnorm_paths_agree_bitwise(case):
    rng = np.random.default_rng(case["seed"])
    lut = build_lut(case, rng)
    graph = pecan_batchnorm_graph(case, rng)
    x = layer_input(case, rng)
    folded, luts, info = optimize_graph(graph, {"layer": lut})
    assert info["applied"][0] == "fold_batchnorm"
    assert folded.op_names() == ["pecan"]
    outputs = {name: GraphExecutor(folded, {"layer": runtime}).run(x)
               for name, runtime in kernel_paths(luts["layer"])}
    reference = outputs.pop("reference")
    for name, out in outputs.items():
        assert out.tobytes() == reference.tobytes(), name
    # The export check's rule against the unfolded program.
    unfolded = GraphExecutor(
        graph, {"layer": runtime_mod.LUTLayerRuntime(lut, OpCounter())}).run(x)
    np.testing.assert_allclose(reference, unfolded, rtol=0.0, atol=1e-8)


# --------------------------------------------------------------------------- #
# The /predict wire format
# --------------------------------------------------------------------------- #
def json_reference(body):
    """What ``decode_predict_body`` must match: ``json.loads`` of the UTF-8
    text (a BOM allowed), which must be an object holding ``inputs``."""
    payload = json.loads(body.decode("utf-8-sig"))
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    if "inputs" not in payload:
        raise ValueError("request body must contain 'inputs'")
    return payload


def decode_path(body):
    """Check ``decode_predict_body(body)`` against :func:`json_reference`
    and return the path that answered: ``compiled``, ``json`` or ``error``."""
    try:
        expected = json_reference(body)
    except Exception as exc:                   # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as raised:
            decode_predict_body(body)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return "error"
    got = decode_predict_body(body)
    assert list(got) == list(expected)                  # same keys, same order
    assert repr({k: v for k, v in got.items() if k != "inputs"}) \
        == repr({k: v for k, v in expected.items() if k != "inputs"})
    inputs = got["inputs"]
    if not isinstance(inputs, np.ndarray):
        assert repr(inputs) == repr(expected["inputs"])
        return "json"
    reference = np.asarray(expected["inputs"], dtype=np.float64)
    assert inputs.dtype == np.float64 and inputs.flags.c_contiguous
    assert inputs.shape == reference.shape
    assert inputs.tobytes() == reference.tobytes()
    return "compiled"


#: ``(body, path)``: the path a body takes when the kernels are on.
WIRE_CASES = {
    "minus_zero_int": (b'{"inputs": [-0, 0, 1]}', "compiled"),
    "minus_zero_float": (b'{"inputs": [-0.0, -0e0, -0E+3, 0.0]}', "compiled"),
    "ints": (b'{"inputs": [[1, -2], [3, 40]]}', "compiled"),
    "ints_above_2_63": (b'{"inputs": [9223372036854775809, -18446744073709551617,'
                        b' 123456789012345678901234567890]}', "compiled"),
    "int_above_1e308": (b'{"inputs": [1' + b"0" * 309 + b']}', "json"),
    "1e400": (b'{"inputs": [1e400]}', "json"),
    "minus_1e400": (b'{"inputs": [-1e400]}', "json"),
    "1e-400": (b'{"inputs": [1e-400]}', "json"),
    "subnormals": (b'{"inputs": [5e-324, 2.225073858507201e-308, -4.9e-324]}', None),
    "min_normal": (b'{"inputs": [2.2250738585072014e-308, 1.7976931348623157e308]}',
                   "compiled"),
    "ties_to_even": (b'{"inputs": [9007199254740993, 9007199254740995.0,'
                     b' 900719925474099.3e1]}', "compiled"),
    "many_digits": (b'{"inputs": [0.12345678901234567890123, 1.5e-300]}', "compiled"),
    "exponent_forms": (b'{"inputs": [1E5, 1e+5, 1e-5, 2.5E-3, 7e0]}', "compiled"),
    "nan": (b'{"inputs": [1, NaN]}', "json"),
    "infinity": (b'{"inputs": [Infinity, -Infinity]}', "json"),
    "null": (b'{"inputs": [1, null]}', "json"),
    "true": (b'{"inputs": [true, 2]}', "json"),
    "string_number": (b'{"inputs": ["1"]}', "json"),
    "scalar": (b'{"inputs": 5}', "json"),
    "empty": (b'{"inputs": []}', "json"),
    "empty_rows": (b'{"inputs": [[], []]}', "json"),
    "ragged": (b'{"inputs": [[1, 2], [3]]}', "json"),
    "ragged_depth": (b'{"inputs": [[1], 2]}', "json"),
    "ragged_deeper": (b'{"inputs": [1, [2]]}', "json"),
    "max_depth": (b'{"inputs": ' + b"[" * 8 + b"1" + b"]" * 8 + b"}", "compiled"),
    "too_deep": (b'{"inputs": ' + b"[" * 9 + b"1" + b"]" * 9 + b"}", "json"),
    "long_token": (b'{"inputs": [0.' + b"1" * 70 + b']}', "json"),
    "bom": (b'\xef\xbb\xbf{"inputs": [1.5]}', "json"),
    "escaped_key": (b'{"in\\u0070uts": [1.5]}', "json"),
    "escaped_other_key": (b'{"inputs": [1.5], "mo\\u0064el": "m"}', "json"),
    "duplicate_inputs": (b'{"inputs": [1], "model": "m", "inputs": [2, 3]}', "json"),
    "inputs_in_string": (b'{"model": "\\"inputs\\": [9]", "inputs": [1.5]}', "compiled"),
    "inputs_in_object": (b'{"meta": {"inputs": [9], "x": [1, {"inputs": 2}]},'
                         b' "inputs": [1.5], "tail": ["inputs", {}]}', "compiled"),
    "inputs_only_nested": (b'{"meta": {"inputs": [9]}}', "error"),
    "string_escapes": (b'{"model": "a\\\\\\"b\\\\", "inputs": [1.5]}', "compiled"),
    "key_order": (b'{"priority": "batch", "inputs": [1.5], "model": "m",'
                  b' "no_cache": true, "tenant": null}', "compiled"),
    "whitespace": (b' \t\n\r{ \t\n\r"inputs" \t\n\r: \t\n\r[ \t\n\r1 \t\n\r,'
                   b' \t\n\r2.5 \t\n\r] \t\n\r, "model"\t:\n"m"\r} \t\n\r', "compiled"),
    "form_feed": (b'{"inputs": [1,\x0c2]}', "error"),
    "truncated_tensor": (b'{"inputs": [1, 2', "error"),
    "truncated_object": (b'{"inputs": [1, 2]', "error"),
    "truncated_string": (b'{"inputs": [1, 2], "model": "m', "error"),
    "trailing_data": (b'{"inputs": [1]} x', "error"),
    "leading_zero": (b'{"inputs": [01]}', "error"),
    "bare_point": (b'{"inputs": [1.]}', "error"),
    "leading_point": (b'{"inputs": [.5]}', "error"),
    "plus_sign": (b'{"inputs": [+1]}', "error"),
    "hex": (b'{"inputs": [0x10]}', "error"),
    "empty_exponent": (b'{"inputs": [1e]}', "error"),
    "lone_minus": (b'{"inputs": [-]}', "error"),
    "non_utf8_in_tensor": (b'{"inputs": [1, \xff2]}', "error"),
    "non_utf8_outside": (b'{"inputs": [1.5], "model": "\xff"}', "error"),
    "not_an_object": (b'[1.5]', "error"),
    "missing_inputs": (b'{"model": "m"}', "error"),
    "empty_body": (b"", "error"),
}


@pytest.mark.parametrize("disabled", [False, True], ids=["kernels", "disabled"])
@pytest.mark.parametrize("case", sorted(WIRE_CASES))
def test_wire_cases_decode_like_json(case, disabled):
    body, path = WIRE_CASES[case]
    if disabled:
        with kernels_disabled():
            assert decode_path(body) in ("json", "error")
        return
    got = decode_path(body)
    if not ck.kernel_available():
        assert got in ("json", "error")
    elif path is not None:
        assert got == path


WHITESPACE = st.sampled_from(["", "", " ", "\t", "\n", "\r", " \r\n\t"])

NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(0, 24)).map(lambda t: f"{t[0]:.{t[1]}e}"),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["-0", "0", "-0.0", "-0e0", "1e400", "-1e400", "1e-400",
                     "5e-324", "2.2250738585072014e-308", "1E5", "1e+5",
                     "NaN", "Infinity", "-Infinity", "null", "true", '"1"',
                     "01", "1.", ".5", "+1", "0." + "1" * 70]),
)

OTHER_FIELDS = [("model", '"m"'), ("priority", '"batch"'), ("no_cache", "true"),
                ("tenant", '"t\\"inputs\\""'), ("meta", '{"inputs": [9], "x": [{}]}'),
                ("note", '"inputs"'), ("deadline_ms", "2.5e3")]


@st.composite
def predict_bodies(draw):
    """A ``/predict``-shaped body: a number tensor (sometimes ragged or with
    a non-number token) among other fields in any order, then sometimes
    damaged (BOM, truncation, a stray byte, a repeated or escaped key)."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tokens = iter(draw(st.lists(NUMBER_TOKENS, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape)))))
    ragged = draw(st.booleans()) and draw(st.booleans())

    def nest(dims):
        if not dims:
            return next(tokens)
        items = [nest(dims[1:]) for _ in range(dims[0])]
        if ragged and len(dims) == 1 and len(items) > 1:
            items.pop()
        sep = draw(WHITESPACE) + "," + draw(WHITESPACE)
        return "[" + draw(WHITESPACE) + sep.join(items) + draw(WHITESPACE) + "]"

    fields = [("inputs", nest(shape))] + draw(st.lists(
        st.sampled_from(OTHER_FIELDS), unique_by=lambda f: f[0], max_size=4))
    fields = draw(st.permutations(fields))
    text = "{" + ",".join(f'{draw(WHITESPACE)}"{key}"{draw(WHITESPACE)}:'
                          f'{draw(WHITESPACE)}{value}' for key, value in fields) + "}"
    body = text.encode()
    damage = draw(st.sampled_from(["none"] * 6 + ["bom", "truncate", "byte",
                                                 "duplicate", "escaped"]))
    if damage == "bom":
        body = b"\xef\xbb\xbf" + body
    elif damage == "truncate":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif damage == "byte":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + body[at:]
    elif damage == "duplicate":
        body = body[:-1] + b', "inputs": [7.5]}'
    elif damage == "escaped":
        body = body.replace(b'"inputs"', b'"in\\u0070uts"', 1)
    return body


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=predict_bodies())
def test_generated_bodies_decode_like_json(body):
    decode_path(body)
