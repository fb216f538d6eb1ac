"""The unified op registry: one lowering per inference-graph op.

Every forward implementation of the deployment stack lives here, exactly
once.  The numeric lowerings mirror :mod:`repro.autograd.functional` — same
im2col + einsum convolution, same reduction order, same constants — so a
graph replay is element-wise identical to running the source model (bitwise
on the PECAN-D lookup path), without importing autograd.

Two layers of API:

* plain NumPy functions (:func:`conv2d`, :func:`linear`, :func:`relu`, ...) —
  the lowerings themselves, importable directly;
* the registry — :func:`register_op` binds each graph op name to an
  :class:`OpSpec` whose kernel executes one :class:`~repro.ir.graph.Node`
  given its input arrays and an execution context (the
  :class:`~repro.ir.executor.GraphExecutor`, which owns the PECAN layer
  runtimes).

The ``multiplier_free`` flag on each spec records whether the lowering
performs multiplications — :meth:`BundleEngine.is_multiplier_free` derives
the program-level property from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ir.graph import Node, decode_index
from repro.perf.im2col import conv_output_size, im2col


# --------------------------------------------------------------------------- #
# Pure-NumPy lowerings (mirror repro.autograd.functional exactly)
# --------------------------------------------------------------------------- #
def conv2d(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray],
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution via im2col lowering; mirrors ``functional.conv2d``."""
    n, cin, h, w = x.shape
    cout, cin_w, k, _ = weight.shape
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input has {cin}, weight expects {cin_w}")
    hout = conv_output_size(h, k, stride, padding)
    wout = conv_output_size(w, k, stride, padding)
    cols = im2col(x, k, stride, padding)                 # (N, Cin*k*k, L)
    w_mat = weight.reshape(cout, -1)                     # (Cout, Cin*k*k)
    out = np.einsum("of,nfl->nol", w_mat, cols).reshape(n, cout, hout, wout)
    if bias is not None:
        out = out + bias.reshape(1, cout, 1, 1)
    return out


def linear(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]) -> np.ndarray:
    """``x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``."""
    out = np.matmul(x, weight.T)
    if bias is not None:
        out = out + bias
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, same constants)."""
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * (np.tanh(inner) + 1.0) * 0.5


def _pool_windows(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    k = kernel_size
    hout = (h - k) // stride + 1
    wout = (w - k) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, hout, wout, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def max_pool2d(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    stride = stride if stride is not None else kernel_size
    windows = _pool_windows(x, kernel_size, stride)
    k = kernel_size
    flat = windows.reshape(*windows.shape[:4], k * k)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]


def avg_pool2d(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    stride = stride if stride is not None else kernel_size
    return _pool_windows(x, kernel_size, stride).mean(axis=(-1, -2))


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def batch_norm(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
               gamma: np.ndarray, beta: np.ndarray, eps: float,
               relu: bool = False) -> np.ndarray:
    """Eval-mode batch normalization; mirrors ``functional.batch_norm``.

    ``relu`` applies a trailing ReLU.  The operations run in the usual order
    on one fresh buffer, so the result is bitwise equal to the allocating
    expression ``(x - mean) / sqrt(var + eps) * gamma + beta``.
    """
    if x.ndim == 4:
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")
    out = np.subtract(x, mean.reshape(shape))
    out /= np.sqrt(var.reshape(shape) + eps)
    out *= gamma.reshape(shape)
    out += beta.reshape(shape)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def concat(arrays: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """Concatenation with traced-constant batch broadcasting.

    Inference graphs are traced with a single-sample batch, so embedded
    constants carry a leading batch axis of 1; when a larger batch flows
    through a non-batch-axis concatenation the constants broadcast along the
    batch axis first (the values are identical to re-creating the constant at
    the live batch size, which is what the source model does).
    """
    arrays = [np.asarray(a) for a in arrays]
    ndim = arrays[0].ndim
    if axis % ndim != 0:
        batch = max(a.shape[0] for a in arrays)
        if batch > 1:
            arrays = [np.broadcast_to(a, (batch,) + a.shape[1:])
                      if a.shape[0] == 1 else a for a in arrays]
    return np.concatenate(arrays, axis=axis)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: Kernel signature: ``kernel(inputs, node, ctx) -> np.ndarray`` where ``ctx``
#: exposes ``ctx.runtimes`` (PECAN layer name -> LUTLayerRuntime).
Kernel = Callable[[Sequence[np.ndarray], Node, object], np.ndarray]


@dataclass(frozen=True)
class OpSpec:
    """One registered graph op: its kernel and static properties."""

    name: str
    kernel: Kernel
    #: The lowering performs no multiplications (PECAN-D accounting).
    multiplier_free: bool = False
    #: Output equals input shape element-for-element (safe for ReLU fusion).
    elementwise: bool = False


_REGISTRY: Dict[str, OpSpec] = {}


def register_op(name: str, multiplier_free: bool = False,
                elementwise: bool = False) -> Callable[[Kernel], Kernel]:
    """Decorator binding a kernel to a graph op name (one lowering per op)."""

    def decorate(kernel: Kernel) -> Kernel:
        if name in _REGISTRY:
            raise ValueError(f"op {name!r} is already registered")
        _REGISTRY[name] = OpSpec(name=name, kernel=kernel,
                                 multiplier_free=multiplier_free,
                                 elementwise=elementwise)
        return kernel

    return decorate


def get_op(name: str) -> OpSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown graph op {name!r} (bundle written by a newer "
                       f"exporter?); registered ops: {supported_ops()}") from None


def has_op(name: str) -> bool:
    return name in _REGISTRY


def supported_ops() -> List[str]:
    """All registered op names, sorted (error messages, tracing diagnostics)."""
    return sorted(_REGISTRY)


def _maybe_relu(out: np.ndarray, node: Node) -> np.ndarray:
    """Apply a fused trailing ReLU when the fusion pass marked this node."""
    if node.attrs.get("fused_relu"):
        return np.maximum(out, 0.0)
    return out


# --------------------------------------------------------------------------- #
# Registered lowerings
# --------------------------------------------------------------------------- #
@register_op("input", multiplier_free=True)
def _input_kernel(inputs, node, ctx):      # pragma: no cover - executor seeds it
    raise RuntimeError("the input placeholder is bound by the executor")


@register_op("constant", multiplier_free=True)
def _constant_kernel(inputs, node, ctx):
    return node.arrays["value"]


@register_op("pecan", multiplier_free=True)   # mode-dependent part is accounted
def _pecan_kernel(inputs, node, ctx):         # via the bundle's LUT modes
    runtime = ctx.runtimes[node.attrs["layer"]]
    return _maybe_relu(runtime(inputs[0]), node)


@register_op("conv")
def _conv_kernel(inputs, node, ctx):
    out = conv2d(inputs[0], node.arrays["weight"], node.arrays.get("bias"),
                 stride=int(node.attrs.get("stride", 1)),
                 padding=int(node.attrs.get("padding", 0)))
    return _maybe_relu(out, node)


@register_op("linear")
def _linear_kernel(inputs, node, ctx):
    out = linear(inputs[0], node.arrays["weight"], node.arrays.get("bias"))
    return _maybe_relu(out, node)


@register_op("batchnorm", elementwise=True)
def _batchnorm_kernel(inputs, node, ctx):
    arrays = node.arrays
    return batch_norm(inputs[0], arrays["mean"], arrays["var"], arrays["gamma"],
                      arrays["beta"], eps=float(node.attrs["eps"]),
                      relu=bool(node.attrs.get("fused_relu")))


@register_op("relu", multiplier_free=True, elementwise=True)
def _relu_kernel(inputs, node, ctx):
    return relu(inputs[0])


@register_op("gelu", elementwise=True)
def _gelu_kernel(inputs, node, ctx):
    return gelu(inputs[0])


@register_op("maxpool", multiplier_free=True)
def _maxpool_kernel(inputs, node, ctx):
    return max_pool2d(inputs[0], int(node.attrs["kernel_size"]),
                      int(node.attrs["stride"]))


@register_op("avgpool")
def _avgpool_kernel(inputs, node, ctx):
    return avg_pool2d(inputs[0], int(node.attrs["kernel_size"]),
                      int(node.attrs["stride"]))


@register_op("global_avgpool")
def _global_avgpool_kernel(inputs, node, ctx):
    return global_avg_pool2d(inputs[0])


@register_op("flatten", multiplier_free=True)
def _flatten_kernel(inputs, node, ctx):
    return flatten(inputs[0])


@register_op("identity", multiplier_free=True, elementwise=True)
def _identity_kernel(inputs, node, ctx):
    return inputs[0]


@register_op("add", multiplier_free=True, elementwise=True)
def _add_kernel(inputs, node, ctx):
    return _maybe_relu(inputs[0] + inputs[1], node)


@register_op("sub", multiplier_free=True, elementwise=True)
def _sub_kernel(inputs, node, ctx):
    return inputs[0] - inputs[1]


@register_op("mul", elementwise=True)
def _mul_kernel(inputs, node, ctx):
    return inputs[0] * inputs[1]


@register_op("div", elementwise=True)
def _div_kernel(inputs, node, ctx):
    return inputs[0] / inputs[1]


@register_op("neg", multiplier_free=True, elementwise=True)
def _neg_kernel(inputs, node, ctx):
    return -inputs[0]


@register_op("getitem", multiplier_free=True)
def _getitem_kernel(inputs, node, ctx):
    return inputs[0][decode_index(node.attrs["index"])]


@register_op("concat", multiplier_free=True)
def _concat_kernel(inputs, node, ctx):
    return concat(inputs, axis=int(node.attrs.get("axis", 0)))
