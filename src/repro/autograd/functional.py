"""Differentiable functional operators built on :class:`~repro.autograd.Tensor`.

Mirrors the subset of ``torch.nn.functional`` that the PECAN layers and the
baseline networks need, plus the PQ-specific primitives:

* :func:`pairwise_l1_distance` — the ``‖X_i − C_m‖₁`` term of Eq. (3)/(4),
* :func:`stop_gradient` — the ``sg`` operator of Eq. (5),
* :func:`straight_through` — the forward/backward split used by PECAN-D.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd.im2col import col2im, conv_output_size, im2col
from repro.autograd.tensor import Tensor, _notify_trace
from repro.perf.chunking import ChunkPolicy, iter_slices

#: Memory budget for the broadcasted ``(..., p, d, L)`` transient of the l1
#: kernels.  Callers can pass an explicit :class:`ChunkPolicy` to override.
DEFAULT_L1_CHUNK_POLICY = ChunkPolicy()


# --------------------------------------------------------------------------- #
# Activations and normalizations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * (inner.tanh() + 1.0) * 0.5


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between ``logits`` ``(N, K)`` and integer ``targets``.

    ``label_smoothing`` follows the usual convention of mixing the one-hot
    target with the uniform distribution.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, k = logits.shape
    logp = log_softmax(logits, axis=1)
    onehot = np.zeros((n, k), dtype=logits.data.dtype)
    onehot[np.arange(n), targets] = 1.0
    if label_smoothing > 0.0:
        onehot = onehot * (1.0 - label_smoothing) + label_smoothing / k
    return -(logp * Tensor(onehot)).sum() / float(n)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    return (prediction - target).abs().mean()


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in ``[0, 1]``."""
    predicted = logits.data.argmax(axis=1)
    return float((predicted == np.asarray(targets)).mean())


def topk_accuracy(logits: Tensor, targets: np.ndarray, k: int = 5) -> float:
    """Top-k classification accuracy in ``[0, 1]``."""
    targets = np.asarray(targets)
    topk = np.argsort(-logits.data, axis=1)[:, :k]
    return float(np.any(topk == targets[:, None], axis=1).mean())


# --------------------------------------------------------------------------- #
# Linear / convolution / pooling
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution via im2col lowering.

    ``x``: ``(N, Cin, H, W)``; ``weight``: ``(Cout, Cin, k, k)``.
    """
    n, cin, h, w = x.shape
    cout, cin_w, k, _ = weight.shape
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input has {cin}, weight expects {cin_w}")
    hout = conv_output_size(h, k, stride, padding)
    wout = conv_output_size(w, k, stride, padding)

    cols = im2col(x.data, k, stride, padding)            # (N, Cin*k*k, L)
    w_mat = weight.data.reshape(cout, -1)                # (Cout, Cin*k*k)
    out_data = np.einsum("of,nfl->nol", w_mat, cols)     # (N, Cout, L)
    out_data = out_data.reshape(n, cout, hout, wout)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, cout, hout * wout)     # (N, Cout, L)
        if weight.requires_grad:
            gw = np.einsum("nol,nfl->of", grad_mat, cols).reshape(weight.shape)
            weight._accumulate_grad(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = np.einsum("of,nol->nfl", w_mat, grad_mat)
            gx = col2im(gcols, (n, cin, h, w), k, stride, padding)
            x._accumulate_grad(gx)

    return Tensor.from_op(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square window; ``stride`` defaults to ``kernel_size``."""
    stride = stride if stride is not None else kernel_size
    n, c, h, w = x.shape
    k = kernel_size
    hout = (h - k) // stride + 1
    wout = (w - k) // stride + 1

    sn, sc, sh, sw = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, hout, wout, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    flat = windows.reshape(n, c, hout, wout, k * k)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        # col2im-style accumulation: one strided slice-add per window offset,
        # gated by the argmax mask, instead of a full-size fancy-index scatter.
        for offset in range(k * k):
            mask = arg == offset
            if not mask.any():
                continue
            ki, kj = divmod(offset, k)
            gx[:, :, ki:ki + stride * hout:stride,
               kj:kj + stride * wout:stride] += grad * mask
        x._accumulate_grad(gx)

    return Tensor.from_op(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square window."""
    stride = stride if stride is not None else kernel_size
    n, c, h, w = x.shape
    k = kernel_size
    hout = (h - k) // stride + 1
    wout = (w - k) // stride + 1

    sn, sc, sh, sw = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, hout, wout, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out_data = windows.mean(axis=(-1, -2))

    def backward(grad):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        share = grad / float(k * k)
        if stride >= k:
            # Non-overlapping windows (the usual pooling configuration) map to
            # disjoint memory, so a single broadcast through a strided view of
            # the gradient buffer distributes every share at once.
            gn, gc, gh, gw = gx.strides
            window_view = np.lib.stride_tricks.as_strided(
                gx,
                shape=(n, c, hout, wout, k, k),
                strides=(gn, gc, gh * stride, gw * stride, gh, gw),
            )
            window_view += share[..., None, None]
        else:
            # Overlapping windows alias memory; fall back to one strided
            # slice-add per window offset (col2im-style accumulation).
            for ki in range(k):
                for kj in range(k):
                    gx[:, :, ki:ki + stride * hout:stride,
                       kj:kj + stride * wout:stride] += share
        x._accumulate_grad(gx)

    return Tensor.from_op(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalization over ``(N, C, H, W)`` or ``(N, C)`` tensors.

    In training mode the input is normalized by its batch mean and biased
    batch variance, and gradients flow through both statistics (Ioffe &
    Szegedy, 2015).  ``running_mean``/``running_var`` are then updated in
    place with ``momentum`` from the same mean and biased variance.  In eval
    mode the running statistics are constants; ``repro.ir.ops.batch_norm``
    mirrors that branch.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        mean_t = x.mean(axis=axes, keepdims=True)
        centered = x - mean_t
        var_t = (centered * centered).mean(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean_t.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var_t.data.reshape(-1)
        std_t = (var_t + eps).sqrt()
    else:
        centered = x - Tensor(running_mean.reshape(shape))
        std_t = Tensor(np.sqrt(running_var.reshape(shape) + eps))

    normalized = centered / std_t
    return normalized * gamma.reshape(shape) + beta.reshape(shape)


# --------------------------------------------------------------------------- #
# Einstein summation
# --------------------------------------------------------------------------- #
def einsum(subscripts: str, *operands: Tensor) -> Tensor:
    """Differentiable ``np.einsum`` over explicit subscripts.

    Supports the multi-operand contractions the PECAN hot paths need — e.g.
    the fused ``Y = Σ_j W₁^(j) C^(j) K^(j)`` reconstruction
    ``einsum("god,gdp,ngpl->nol", W, C, K)`` — letting NumPy pick the optimal
    contraction order instead of materializing per-group intermediates.

    Restrictions (enough for our use, checked eagerly): the output subscript
    must be explicit (``->`` present), ellipses and repeated indices within a
    single operand are not supported, and every index of an operand must also
    appear in the output or another operand (otherwise its gradient would need
    an internal broadcast).

    The gradient of operand ``i`` is itself an einsum: contract the output
    gradient with every other operand, targeting operand ``i``'s subscript.
    """
    if "->" not in subscripts:
        raise ValueError("einsum requires an explicit output subscript, e.g. 'ij,jk->ik'")
    if "..." in subscripts:
        raise NotImplementedError("ellipsis subscripts are not supported")
    lhs, out_subs = (part.strip() for part in subscripts.split("->"))
    in_subs = [term.strip() for term in lhs.split(",")]
    if len(in_subs) != len(operands):
        raise ValueError(f"einsum got {len(operands)} operands for {len(in_subs)} subscripts")
    for term in in_subs + [out_subs]:
        if len(set(term)) != len(term):
            raise NotImplementedError(f"repeated index in term {term!r} is not supported")

    for i, term in enumerate(in_subs):
        available = set(out_subs).union(*(in_subs[:i] + in_subs[i + 1:])) \
            if len(in_subs) > 1 else set(out_subs)
        missing = [c for c in term if c not in available]
        if missing:
            raise NotImplementedError(
                f"index {missing[0]!r} appears only in operand {i}; its gradient "
                "would require an internal broadcast")

    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in operands]
    arrays = [t.data for t in tensors]
    out_data = np.einsum(subscripts, *arrays, optimize=True)

    def backward(grad):
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            other_subs = [in_subs[j] for j in range(len(tensors)) if j != i]
            other_arrays = [arrays[j] for j in range(len(tensors)) if j != i]
            grad_spec = ",".join([out_subs] + other_subs) + "->" + in_subs[i]
            t._accumulate_grad(np.einsum(grad_spec, grad, *other_arrays, optimize=True))

    return Tensor.from_op(out_data, tensors, backward)


# --------------------------------------------------------------------------- #
# Shape utilities
# --------------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                t._accumulate_grad(grad[tuple(index)])

    out = Tensor.from_op(out_data, tensors, backward)
    _notify_trace("concat", tuple(tensors), out, axis=axis)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate_grad(g)

    return Tensor.from_op(out_data, tensors, backward)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial dimensions of a 4-D tensor."""
    if padding == 0:
        return x
    out_data = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def backward(grad):
        if x.requires_grad:
            x._accumulate_grad(grad[:, :, padding:-padding, padding:-padding])

    return Tensor.from_op(out_data, (x,), backward)


def unfold(x: Tensor, kernel_size: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable im2col: ``(N, C, H, W) -> (N, C·k·k, Hout·Wout)``.

    This is the ``X`` matrix of the paper (Fig. 1b); the backward pass is the
    col2im fold, so gradients propagate to earlier layers through the PECAN
    quantization.
    """
    n, c, h, w = x.shape
    cols = im2col(x.data, kernel_size, stride, padding)

    def backward(grad):
        if x.requires_grad:
            x._accumulate_grad(col2im(grad, (n, c, h, w), kernel_size, stride, padding))

    return Tensor.from_op(cols, (x,), backward)


# --------------------------------------------------------------------------- #
# PQ-specific primitives
# --------------------------------------------------------------------------- #
def stop_gradient(x: Tensor) -> Tensor:
    """The ``sg(·)`` operator of Eq. (5): identity forward, zero gradient back."""
    return x.detach()


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Combine a soft (differentiable) and hard (discrete) value per Eq. (5).

    Forward value equals ``hard``; the gradient flows entirely through
    ``soft``:  ``soft - sg(soft - hard)``.
    """
    hard_t = Tensor(np.asarray(hard, dtype=soft.data.dtype))
    return soft - stop_gradient(soft - hard_t)


def pairwise_l1_distance(x: Tensor, prototypes: Tensor, sign_fn=None,
                         chunk_policy: Optional[ChunkPolicy] = None) -> Tensor:
    """l1 distances between columns of ``x`` and prototype columns.

    Parameters
    ----------
    x:
        Tensor of shape ``(..., d, L)`` — ``L`` subvectors of dimension ``d``.
    prototypes:
        Tensor of shape ``(..., d, p)`` — ``p`` prototypes of dimension ``d``.
    sign_fn:
        Subgradient of ``|·|`` used in the backward pass.  Defaults to the
        exact ``np.sign``; :mod:`repro.pecan.similarity` passes the smoothed
        ``tanh(a·x)`` surrogate of Eq. (6) here.
    chunk_policy:
        Memory budget for the broadcasted ``(..., p, d, L_chunk)`` transient.
        Defaults to :data:`DEFAULT_L1_CHUNK_POLICY`.

    Returns
    -------
    Tensor of shape ``(..., p, L)`` with ``out[..., m, i] = ‖x_i − c_m‖₁``.

    Neither the difference tensor nor its sign is retained between forward and
    backward: the backward pass recomputes ``x − c`` chunk-by-chunk over the
    column axis, so peak memory stays bounded even at production batch sizes.
    """
    sign_fn = np.sign if sign_fn is None else sign_fn
    policy = chunk_policy if chunk_policy is not None else DEFAULT_L1_CHUNK_POLICY
    x_data, proto_data = x.data, prototypes.data
    proto_cols = proto_data[..., :, :, None].swapaxes(-3, -2)    # (..., p, d, 1)
    d, length = x_data.shape[-2], x_data.shape[-1]
    p = proto_data.shape[-1]
    batch_shape = np.broadcast_shapes(x_data.shape[:-2], proto_data.shape[:-2])
    batch = int(np.prod(batch_shape, dtype=np.int64)) if batch_shape else 1
    dtype = np.result_type(x_data.dtype, proto_data.dtype)
    per_column = max(1, batch * p * d) * dtype.itemsize
    chunk = policy.columns_per_chunk(per_column, length)

    out_data = np.empty(batch_shape + (p, length), dtype=dtype)
    for sl in iter_slices(length, chunk):
        # diff shape: (..., p, d, L_chunk); prototypes broadcast over L, x over p
        diff = x_data[..., None, :, sl] - proto_cols
        np.abs(diff, out=diff)
        out_data[..., sl] = diff.sum(axis=-2)

    def backward(grad):
        gx = np.empty(batch_shape + (d, length), dtype=dtype) if x.requires_grad else None
        gp = np.zeros(batch_shape + (p, d), dtype=dtype) if prototypes.requires_grad else None
        for sl in iter_slices(length, chunk):
            sign = sign_fn(x_data[..., None, :, sl] - proto_cols)  # (..., p, d, Lc)
            g = grad[..., :, None, sl]
            if gx is not None:
                gx[..., sl] = (sign * g).sum(axis=-3)
            if gp is not None:
                gp -= (sign * g).sum(axis=-1)
        if gx is not None:
            x._accumulate_grad(gx)
        if gp is not None:
            prototypes._accumulate_grad(gp.swapaxes(-1, -2))

    return Tensor.from_op(out_data, (x, prototypes), backward)


def pairwise_dot(x: Tensor, prototypes: Tensor) -> Tensor:
    """Dot products ``prototypesᵀ x`` used by PECAN-A (Eq. 2).

    Shapes follow :func:`pairwise_l1_distance`: ``x`` is ``(..., d, L)``,
    ``prototypes`` is ``(..., d, p)`` and the result is ``(..., p, L)``.
    """
    return prototypes.transpose(*range(prototypes.ndim - 2), prototypes.ndim - 1,
                                prototypes.ndim - 2).matmul(x)


def one_hot(indices: np.ndarray, depth: int, dtype=np.float64) -> np.ndarray:
    """Plain (non-differentiable) one-hot encoding along a new trailing axis."""
    indices = np.asarray(indices)
    out = np.zeros(indices.shape + (depth,), dtype=dtype)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out
