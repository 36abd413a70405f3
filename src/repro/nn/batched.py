"""Batched multi-worker gradient engine.

The federated inner loop (Alg. 1 lines 4–6) evaluates one small
forward/backward pass *per worker* per iteration.  With per-worker
state already stacked into ``(num_workers, dim)`` matrices, those W
sequential passes are W tiny GEMMs plus W rounds of Python-level
bookkeeping — the bookkeeping dominates.  This module lowers a
:class:`~repro.nn.supervised.SupervisedModel` into a **batched
program** whose tensors carry a leading worker axis:

* forward is one stacked matmul ``(W, B, in) @ (W, in, out)`` per dense
  layer — and one stacked ``im2col`` + GEMM per conv layer — with each
  worker's weight block sliced **zero-copy** out of the stacked
  parameter matrix (the columns of a C-contiguous ``(W, dim)`` matrix
  reshape into per-worker weight views without copying — the same trick
  :class:`~repro.nn.module.FlatParamBuffer` uses within one model);
* backward writes every worker's flat gradient into the matching row of
  the stacked ``(W, dim)`` gradient matrix in place and returns the
  per-worker batch losses as one ``(W,)`` vector.

Lowering is structural and now covers the whole Table II model zoo:
dense layers, elementwise activations, dropout, ``Conv2d`` (workers
folded into the im2col batch axis), ``MaxPool2d`` / ``AvgPool2d`` /
``GlobalAvgPool2d`` / ``Flatten``, train-mode ``BatchNorm1d/2d``
(per-worker-row batch statistics; running-stat updates folded onto the
shared layer buffers in worker order, exactly as the sequential loop
would), and ResNet basic blocks (a composite mirroring the residual
forward/backward).  Anything else returns ``None`` with a
machine-readable *reason* (``lower_supervised_model(..., explain=True)``)
— counted on the tracer and debug-logged once — and callers keep the
per-worker loop.

Images travel channels-last, ``(R, B, H, W, C)``, from the program's
entry to ``Flatten``, which restores the per-worker ``(C, H, W)``
feature order the Dense weights expect: conv outputs come straight out
of the GEMM without a transpose and pooling, ReLU and the conv backward
read contiguous memory.  A ``ReLU`` directly followed by ``MaxPool2d``
lowers to max-pool-then-ReLU (the mask then covers the 4x smaller map),
and the first layer holding parameters forms no input gradient — the
program would discard it.  The batched math mirrors the per-worker
implementations operation for operation — same GEMM operands per worker
slice, same reduction order — so on the model zoo the two backends
agree bit for bit (asserted at rtol 1e-10 in the test suite and at rtol
1e-8 over whole golden trajectories).

Divergence contract: rows whose batch loss is non-finite get an all-NaN
gradient row.  Non-finite *parameter* rows must be filtered out by the
caller before invoking the program (``Federation.gradient_all`` falls
back to the loop in that case) — batch-norm models would otherwise fold
NaN statistics into the shared running buffers that the loop's
per-worker short-circuit never touches.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, one_hot, softmax
from repro.nn.linear import Dense
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm1d, BatchNorm2d, _BatchNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.reshape import Flatten
from repro.telemetry import get_tracer

__all__ = ["BatchedProgram", "lower_supervised_model"]

logger = logging.getLogger(__name__)

# (module-class-name, reason) pairs already debug-logged; lowering the
# same unsupported model shape again stays silent.
_logged_reasons: set[tuple[str, str]] = set()


# ----------------------------------------------------------------------
# Batched layers
# ----------------------------------------------------------------------
class _BatchedDense:
    """Dense layer over a leading worker axis.

    Holds only the layer's *offsets* into the flat parameter vector;
    :meth:`bind` resolves them against a concrete stacked ``(R, dim)``
    parameter/gradient matrix pair before each pass.
    """

    __slots__ = (
        "in_features",
        "out_features",
        "w_start",
        "w_stop",
        "b_start",
        "b_stop",
        "covered",
        "input_grad",
        "_w",
        "_params",
        "_grads",
        "_x",
    )

    def __init__(self, layer: Dense, offsets: dict[int, int]):
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.w_start = offsets[id(layer.weight)]
        self.w_stop = self.w_start + layer.weight.size
        self.covered = layer.weight.size
        if layer.use_bias:
            self.b_start = offsets[id(layer.bias)]
            self.b_stop = self.b_start + layer.bias.size
            self.covered += layer.bias.size
        else:
            self.b_start = self.b_stop = None
        self.input_grad = True
        self._w = None
        self._params = None
        self._grads = None
        self._x = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        rows = params.shape[0]
        # Zero-copy per-worker weight views: the column block of a
        # row-contiguous matrix splits into (R, out, in) without a copy.
        self._w = params[:, self.w_start : self.w_stop].reshape(
            rows, self.out_features, self.in_features
        )
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        # (R, B, in) @ (R, in, out): one stacked GEMM; each worker slice
        # is the exact ``x @ W.T`` the per-worker Dense computes.
        out = np.matmul(x, self._w.transpose(0, 2, 1))
        if self.b_start is not None:
            out += self._params[:, self.b_start : self.b_stop][:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        x = self._x
        rows = grad_output.shape[0]
        grad_w = np.matmul(grad_output.transpose(0, 2, 1), x)
        # Write each worker's flat weight gradient into its grad-matrix
        # row (strided assignment — the grad matrix is filled in place).
        self._grads[:, self.w_start : self.w_stop] = grad_w.reshape(rows, -1)
        if self.b_start is not None:
            self._grads[:, self.b_start : self.b_stop] = grad_output.sum(
                axis=1
            )
        self._x = None
        if not self.input_grad:
            return None
        return np.matmul(grad_output, self._w)


class _BatchedConv2d:
    """Conv2d over a leading worker axis (batched im2col + stacked GEMM).

    Images are channels-last ``(R, B, H, W, C)``.  The worker and image
    axes fold into im2col's batch axis — one ``im2col`` over
    ``(R*B, H, W, C)`` produces exactly the R per-worker patch matrices
    stacked row-block by row-block, in the per-worker layer's ``(c, kh,
    kw)`` column order — and the GEMM against the per-worker weight
    views runs as one stacked ``(R, B*OH*OW, CKK) @ (R, CKK, F)`` matmul
    whose output already *is* the channels-last ``(R, B, OH, OW, F)``
    activation.  The im2col scratch is cached across same-shape
    forwards, mirroring the per-worker layer.  With ``input_grad`` off
    (the program's first layer) the backward stops at the weight and
    bias gradients.
    """

    __slots__ = (
        "in_channels",
        "out_channels",
        "kernel_size",
        "stride",
        "padding",
        "w_start",
        "w_stop",
        "b_start",
        "b_stop",
        "covered",
        "input_grad",
        "_w",
        "_params",
        "_grads",
        "_cols",
        "_x_shape",
        "_scratch",
    )

    def __init__(self, layer: Conv2d, offsets: dict[int, int]):
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.w_start = offsets[id(layer.weight)]
        self.w_stop = self.w_start + layer.weight.size
        self.covered = layer.weight.size
        if layer.use_bias:
            self.b_start = offsets[id(layer.bias)]
            self.b_stop = self.b_start + layer.bias.size
            self.covered += layer.bias.size
        else:
            self.b_start = self.b_stop = None
        self.input_grad = True
        self._w = None
        self._params = None
        self._grads = None
        self._cols = None
        self._x_shape = None
        self._scratch = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        rows = params.shape[0]
        patch = self.in_channels * self.kernel_size * self.kernel_size
        self._w = params[:, self.w_start : self.w_stop].reshape(
            rows, self.out_channels, patch
        )
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows, batch, h, w, _ = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        patch = self.in_channels * k * k

        scratch_shape = (rows * batch * out_h * out_w, patch)
        if (
            self._scratch is None
            or self._scratch.shape != scratch_shape
            or self._scratch.dtype != x.dtype
        ):
            self._scratch = np.empty(scratch_shape, dtype=x.dtype)
        cols = im2col(
            x.reshape(rows * batch, h, w, self.in_channels),
            k, k, s, p, out=self._scratch, channels_last=True,
        )
        # Worker r's per-worker patch matrix is exactly rows
        # [r*B*OH*OW, (r+1)*B*OH*OW) of the folded im2col output.
        cols3 = cols.reshape(rows, batch * out_h * out_w, patch)
        out = np.matmul(cols3, self._w.transpose(0, 2, 1))
        if self.b_start is not None:
            out += self._params[:, self.b_start : self.b_stop][:, None, :]

        self._cols = cols3
        self._x_shape = (rows * batch, h, w, self.in_channels)
        return out.reshape(rows, batch, out_h, out_w, self.out_channels)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        rows, batch = grad_output.shape[:2]
        k, s, p = self.kernel_size, self.stride, self.padding

        # (R, B, OH, OW, F) is already (R, B*OH*OW, F) in im2col row order.
        grad_mat = grad_output.reshape(rows, -1, self.out_channels)
        grad_w = np.matmul(grad_mat.transpose(0, 2, 1), self._cols)
        self._grads[:, self.w_start : self.w_stop] = grad_w.reshape(rows, -1)
        if self.b_start is not None:
            self._grads[:, self.b_start : self.b_stop] = grad_mat.sum(axis=1)
        self._cols = None
        if not self.input_grad:
            return None

        grad_cols = np.matmul(grad_mat, self._w)
        grad_input = col2im(
            grad_cols, self._x_shape, k, k, s, p, channels_last=True
        )
        return grad_input.reshape((rows, batch) + self._x_shape[1:])


class _BatchedBatchNorm:
    """Batch norm over a leading worker axis.

    Default is *train-mode* semantics, matching the gradient oracle
    (``SupervisedModel.gradient`` always switches the module to training
    mode): statistics are computed per worker row over that worker's own
    batch, and the shared layer's running buffers receive the same
    sequential ``*= (1-m); += m*stat`` updates — in worker order — the
    per-worker loop applies, so the buffers the next *evaluation* reads
    agree between backends.  Setting :attr:`frozen` instead normalizes
    every row with the shared running statistics (inference-mode batch
    norm, the elementwise-affine adjoint) — used by the gradcheck
    battery and available to callers that freeze statistics.

    ``BatchNorm2d`` works on a channel-major ``(R, B, C, H, W)`` view of
    the channels-last map, with the incoming gradient copied
    channel-major — the layouts the per-worker layer sees (its gradient
    arrives from an NCHW ``col2im``).  NumPy reduces in memory order, so
    this keeps every statistic and parameter gradient bit-identical to
    the per-worker layer.  That matters: the gradient of a conv bias
    feeding a train-mode batch norm is exactly 0 in theory and roundoff
    in practice, and reordered sums change that roundoff.
    """

    __slots__ = (
        "layer",
        "num_features",
        "momentum",
        "eps",
        "g_start",
        "g_stop",
        "b_start",
        "b_stop",
        "covered",
        "frozen",
        "_axes",
        "_spatial",
        "_params",
        "_grads",
        "_cache",
    )

    def __init__(self, layer: _BatchNorm, offsets: dict[int, int]):
        self.layer = layer  # running-stat buffers live on the shared layer
        self.num_features = layer.num_features
        self.momentum = layer.momentum
        self.eps = layer.eps
        self.g_start = offsets[id(layer.gamma)]
        self.g_stop = self.g_start + layer.gamma.size
        self.b_start = offsets[id(layer.beta)]
        self.b_stop = self.b_start + layer.beta.size
        self.covered = layer.gamma.size + layer.beta.size
        self.frozen = False
        # (R, B, C) reduces over the batch axis; (R, B, C, H, W) over
        # batch and space — the per-worker axes shifted by the R axis.
        self._spatial = isinstance(layer, BatchNorm2d)
        self._axes = (1, 3, 4) if self._spatial else (1,)
        self._params = None
        self._grads = None
        self._cache = None

    def _bshape(self, rows: int) -> tuple:
        if self._spatial:
            return (rows, 1, self.num_features, 1, 1)
        return (rows, 1, self.num_features)

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self._spatial:
            x = x.transpose(0, 1, 4, 2, 3)  # channel-major view
        rows = x.shape[0]
        shape = self._bshape(rows)
        if self.frozen:
            inv_std = 1.0 / np.sqrt(self.layer.running_var + self.eps)
            inv_std_b = np.broadcast_to(
                inv_std.reshape(shape[1:]), shape
            )
            x_hat = (
                x - self.layer.running_mean.reshape(shape[1:])
            ) * inv_std_b
        else:
            mean = x.mean(axis=self._axes)  # (R, C)
            var = x.var(axis=self._axes)
            count = x[0].size // self.num_features
            unbiased = var * count / max(count - 1, 1)
            momentum = self.momentum
            running_mean = self.layer.running_mean
            running_var = self.layer.running_var
            # Same update sequence the per-worker layer applies, folded
            # in worker order onto the shared buffers.
            for row in range(rows):
                running_mean *= 1.0 - momentum
                running_mean += momentum * mean[row]
                running_var *= 1.0 - momentum
                running_var += momentum * unbiased[row]
            inv_std_b = (1.0 / np.sqrt(var + self.eps)).reshape(shape)
            x_hat = (x - mean.reshape(shape)) * inv_std_b
        gamma = self._params[:, self.g_start : self.g_stop].reshape(shape)
        beta = self._params[:, self.b_start : self.b_stop].reshape(shape)
        self._cache = (x_hat, inv_std_b)
        out = gamma * x_hat + beta
        return out.transpose(0, 1, 3, 4, 2) if self._spatial else out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std_b = self._cache
        if self._spatial:
            grad_output = np.ascontiguousarray(
                grad_output.transpose(0, 1, 4, 2, 3)
            )
        rows = grad_output.shape[0]
        shape = self._bshape(rows)
        count = grad_output[0].size // self.num_features

        self._grads[:, self.g_start : self.g_stop] = (
            grad_output * x_hat
        ).sum(axis=self._axes)
        self._grads[:, self.b_start : self.b_stop] = grad_output.sum(
            axis=self._axes
        )

        gamma = self._params[:, self.g_start : self.g_stop].reshape(shape)
        grad_xhat = grad_output * gamma
        if self.frozen:
            grad_input = grad_xhat * inv_std_b
        else:
            sum_grad = grad_xhat.sum(axis=self._axes, keepdims=True)
            sum_grad_xhat = (grad_xhat * x_hat).sum(
                axis=self._axes, keepdims=True
            )
            grad_input = (
                inv_std_b
                / count
                * (count * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
            )
        self._cache = None
        if self._spatial:
            return grad_input.transpose(0, 1, 3, 4, 2)
        return grad_input


class _Parameterless:
    """Base of lowered layers that hold no parameters: nothing to bind
    and no share of the flat parameter vector."""

    __slots__ = ()
    covered = 0

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        return None


def _pool_taps(x: np.ndarray, kernel: int, stride: int) -> list:
    """The ``kernel**2`` strided views of a channels-last ``(R, B, H, W,
    C)`` map, one per window tap in row-major ``(kh, kw)`` order; each is
    ``(R, B, OH, OW, C)`` and holds that tap of every pooling window."""
    out_h = conv_output_size(x.shape[2], kernel, stride, 0)
    out_w = conv_output_size(x.shape[3], kernel, stride, 0)
    return [
        x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        for i in range(kernel)
        for j in range(kernel)
    ]


class _BatchedMaxPool2d(_Parameterless):
    """Max pooling over channels-last ``(R, B, H, W, C)`` windows.

    The window max is a running elementwise max over the tap views, and
    each window's winning tap is the *first* tap equal to that max —
    the per-worker layer's ``argmax`` tie rule — so the backward routes
    every output gradient to the same input element.  The scatter is
    one ``np.bincount`` in window order, the accumulation order of the
    per-worker ``col2im``, so overlapping windows sum identically.

    ``relu=True`` is the lowering of ``ReLU -> MaxPool2d``: pool first,
    then apply the ReLU (and its mask) to the smaller pooled map.  The
    max then ignores NaN (``np.fmax``): ReLU maps NaN to 0, so a window
    holding NaN and a positive value yields the positive value and an
    all-NaN window yields 0 — exactly what ReLU-first computes, ties and
    exact zeros included (a window whose max is <= 0 passes no gradient
    either way).  Without the fused ReLU the max propagates NaN, like
    the per-worker layer; a NaN window then sends its gradient to its
    first tap where the per-worker ``argmax`` picks the first NaN.
    """

    __slots__ = (
        "kernel_size", "stride", "relu",
        "_x_shape", "_winner", "_mask", "_origins", "_offsets",
    )

    def __init__(self, layer: MaxPool2d, relu: bool = False):
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.relu = relu
        self._x_shape = None
        self._winner = None
        self._mask = None
        self._origins = None
        self._offsets = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        taps = _pool_taps(x, self.kernel_size, self.stride)
        combine = np.fmax if self.relu else np.maximum
        best = taps[0].copy()
        for tap in taps[1:]:
            combine(best, tap, out=best)
        winner = np.zeros(best.shape, dtype=np.intp)
        for index in range(len(taps) - 1, -1, -1):
            np.copyto(winner, index, where=taps[index] == best)
        if x.shape != self._x_shape:
            self._index_geometry(x.shape, best.shape)
        self._winner = winner
        if not self.relu:
            return best
        self._mask = best > 0
        return np.where(self._mask, best, 0.0)

    def _index_geometry(self, x_shape: tuple, out_shape: tuple) -> None:
        """Flat input index of every window's first tap, and each tap's
        offset from it, for the channels-last ``x_shape``."""
        rows, batch, h, w, c = x_shape
        _, _, out_h, out_w, _ = out_shape
        k, s = self.kernel_size, self.stride
        self._x_shape = x_shape
        self._origins = (
            np.arange(rows * batch).reshape(-1, 1, 1, 1) * (h * w * c)
            + np.arange(out_h).reshape(1, -1, 1, 1) * (s * w * c)
            + np.arange(out_w).reshape(1, 1, -1, 1) * (s * c)
            + np.arange(c)
        ).reshape(out_shape)
        self._offsets = (
            np.arange(k)[:, None] * (w * c) + np.arange(k) * c
        ).ravel()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.relu:
            grad_output = np.where(self._mask, grad_output, 0.0)
            self._mask = None
        targets = self._origins + self._offsets[self._winner]
        self._winner = None
        grad = np.bincount(
            targets.ravel(),
            weights=grad_output.ravel(),
            minlength=math.prod(self._x_shape),
        )
        return grad.reshape(self._x_shape)


class _BatchedAvgPool2d(_Parameterless):
    """Average pooling over channels-last ``(R, B, H, W, C)`` windows."""

    __slots__ = ("kernel_size", "stride", "_x_shape")

    def __init__(self, layer: AvgPool2d):
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        taps = _pool_taps(x, self.kernel_size, self.stride)
        total = taps[0].copy()
        for tap in taps[1:]:
            total += tap
        self._x_shape = x.shape
        return total / len(taps)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.zeros(self._x_shape, dtype=grad_output.dtype)
        share = grad_output / (self.kernel_size * self.kernel_size)
        for tap in _pool_taps(grad, self.kernel_size, self.stride):
            tap += share
        return grad


class _BatchedGlobalAvgPool2d(_Parameterless):
    """Spatial mean: channels-last ``(R, B, H, W, C)`` -> ``(R, B, C)``."""

    __slots__ = ("_x_shape",)

    def __init__(self):
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        _, _, h, w, _ = self._x_shape
        grad = grad_output[:, :, None, None, :] / (h * w)
        return np.broadcast_to(grad, self._x_shape).copy()


class _BatchedFlatten(_Parameterless):
    """Flatten each image to the per-worker layer's ``(C, H, W)`` order.

    Channels-last images ``(R, B, H, W, C)`` are transposed back so the
    feature order — and with it every Dense weight — matches the
    per-worker model; the backward returns a contiguous channels-last
    gradient.  Non-image inputs just collapse their trailing axes.
    """

    __slots__ = ("_x_shape",)

    def __init__(self):
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        rows, batch = x.shape[:2]
        if x.ndim == 5:
            x = x.transpose(0, 1, 4, 2, 3)
        return x.reshape(rows, batch, -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if len(self._x_shape) != 5:
            return grad_output.reshape(self._x_shape)
        rows, batch, h, w, c = self._x_shape
        grad = grad_output.reshape(rows, batch, c, h, w)
        return np.ascontiguousarray(grad.transpose(0, 1, 3, 4, 2))


class _BatchedBasicBlock:
    """ResNet basic block over a leading worker axis.

    Composes the batched conv/norm/activation counterparts and mirrors
    :class:`~repro.nn.models.resnet.BasicBlock`'s forward/backward —
    including the residual add and the gradient fan-in — operation for
    operation.
    """

    __slots__ = (
        "conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
        "proj_conv", "proj_bn", "covered",
    )

    def __init__(self, block, offsets: dict[int, int]):
        self.conv1 = _BatchedConv2d(block.conv1, offsets)
        self.bn1 = _BatchedBatchNorm(block.bn1, offsets)
        self.relu1 = _lower_layer(block.relu1, offsets)
        self.conv2 = _BatchedConv2d(block.conv2, offsets)
        self.bn2 = _BatchedBatchNorm(block.bn2, offsets)
        self.relu2 = _lower_layer(block.relu2, offsets)
        if block.has_projection:
            self.proj_conv = _BatchedConv2d(block.proj_conv, offsets)
            self.proj_bn = _BatchedBatchNorm(block.proj_bn, offsets)
        else:
            self.proj_conv = None
            self.proj_bn = None
        self.covered = sum(
            child.covered for child in self._children()
        )

    def _children(self):
        children = [
            self.conv1, self.bn1, self.relu1,
            self.conv2, self.bn2, self.relu2,
        ]
        if self.proj_conv is not None:
            children += [self.proj_conv, self.proj_bn]
        return children

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        for child in self._children():
            child.bind(params, grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.bn2.forward(self.conv2.forward(out))
        if self.proj_conv is not None:
            shortcut = self.proj_bn.forward(self.proj_conv.forward(x))
        else:
            shortcut = x
        return self.relu2.forward(out + shortcut)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_output)
        grad_main = self.conv1.backward(
            self.bn1.backward(
                self.relu1.backward(
                    self.conv2.backward(self.bn2.backward(grad))
                )
            )
        )
        if self.proj_conv is not None:
            grad_skip = self.proj_conv.backward(self.proj_bn.backward(grad))
        else:
            grad_skip = grad
        return grad_main + grad_skip


class _BatchedChain:
    """A lowered nested ``Sequential``: run children in order."""

    __slots__ = ("layers", "covered")

    def __init__(self, layers: list):
        self.layers = layers
        self.covered = sum(layer.covered for layer in layers)

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        for layer in self.layers:
            layer.bind(params, grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output


# ----------------------------------------------------------------------
# Batched losses (per-worker loss vector instead of a scalar)
# ----------------------------------------------------------------------
class _BatchedSoftmaxCE:
    """Softmax cross-entropy over ``(R, B, C)`` logits, ``(R, B)`` labels."""

    __slots__ = ("_probs", "_labels")

    def __init__(self):
        self._probs = None
        self._labels = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray):
        labels = np.asarray(targets, dtype=np.int64)
        log_probs = log_softmax(predictions, axis=-1)
        self._probs = softmax(predictions, axis=-1)
        self._labels = labels
        picked = np.take_along_axis(log_probs, labels[:, :, None], axis=2)
        return -picked[:, :, 0].mean(axis=1)

    def backward(self) -> np.ndarray:
        rows, batch = self._labels.shape
        grad = self._probs.copy()
        grad[
            np.arange(rows)[:, None], np.arange(batch)[None, :], self._labels
        ] -= 1.0
        grad /= batch
        self._probs = None
        self._labels = None
        return grad


class _BatchedMSE:
    """MSE over ``(R, B, C)`` predictions; integer labels one-hot encoded."""

    __slots__ = ("_diff",)

    def __init__(self):
        self._diff = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray):
        targets = np.asarray(targets)
        if targets.ndim == 2 and predictions.shape[-1] > 1:
            rows, batch = targets.shape
            targets = one_hot(
                targets.ravel(), predictions.shape[-1]
            ).reshape(rows, batch, predictions.shape[-1])
        targets = targets.reshape(predictions.shape).astype(np.float64)
        self._diff = predictions - targets
        return np.mean(self._diff**2, axis=(1, 2))

    def backward(self) -> np.ndarray:
        diff = self._diff
        grad = 2.0 * diff / (diff.shape[1] * diff.shape[2])
        self._diff = None
        return grad


# ----------------------------------------------------------------------
# Program
# ----------------------------------------------------------------------
class BatchedProgram:
    """A lowered model: batched layers plus a batched loss.

    Built once per model by :func:`lower_supervised_model`; executed via
    :meth:`gradient_all` with fresh parameter/gradient matrices every
    call (binding is a handful of reshaped views, so per-call cost is
    negligible).
    """

    def __init__(self, model, layers, loss):
        self.model = model
        self.layers = layers
        self.loss = loss
        # The backward stops at the first layer holding parameters:
        # nothing upstream of it has a gradient to receive, so that
        # layer does not form its input gradient either.
        self._first = next(
            (index for index, layer in enumerate(layers) if layer.covered), 0
        )
        if isinstance(layers[self._first], (_BatchedDense, _BatchedConv2d)):
            layers[self._first].input_grad = False

    def gradient_all(
        self,
        params: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        grads: np.ndarray,
    ) -> np.ndarray:
        """One batched forward/backward; returns per-worker losses.

        ``params``/``grads`` are aligned ``(R, dim)`` matrices; ``xs``
        is the stacked ``(R, B, ...)`` input and ``ys`` the stacked
        ``(R, B)`` targets.  Every gradient row is written in place.
        Rows whose batch loss is non-finite get an all-NaN gradient,
        matching the per-worker oracle's divergence short-circuit;
        non-finite *parameter* rows are the caller's job to filter out
        beforehand (batch-norm statistics are a shared side effect).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for layer in self.layers:
                layer.bind(params, grads)
            # Images run channels-last, (R, B, H, W, C), up to Flatten.
            h = xs.transpose(0, 1, 3, 4, 2) if xs.ndim == 5 else xs
            for layer in self.layers:
                h = layer.forward(h)
            losses = self.loss.forward(h, ys)
            grad = self.loss.backward()
            for layer in reversed(self.layers[self._first :]):
                grad = layer.backward(grad)
            weight_decay = self.model.weight_decay
            if weight_decay > 0.0:
                grads += weight_decay * params
            bad = ~np.isfinite(losses)
            if bad.any():
                grads[bad] = np.nan
        return losses


class _Bindable(_Parameterless):
    """Adapter giving stateless elementwise layers a no-op ``bind``."""

    __slots__ = ("_layer",)

    def __init__(self, layer: Module):
        self._layer = layer

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._layer.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._layer.backward(grad_output)


class _BatchedDropout(_Parameterless):
    """Batched inverted dropout consuming the original layer's stream.

    The per-worker loop shares one model across workers, so worker
    ``r``'s mask is the ``r``-th sequential draw from the layer's own
    generator.  The batched forward replays exactly that — row ``r``
    draws shape ``x.shape[1:]`` from the *original* layer's generator —
    so both backends consume identical streams, masks match bit for
    bit, and checkpointed dropout-RNG state stays backend-agnostic.

    Constraint: with several live dropout layers sharing one generator
    the loop interleaves draws worker-major (worker 0 layer A, worker 0
    layer B, worker 1 layer A, ...) while a layer-by-layer batched pass
    is layer-major; lowering refuses that configuration
    (``layer:Dropout(shared-rng)``) rather than silently diverge.
    """

    __slots__ = ("_layer", "_mask")

    def __init__(self, layer: Dropout):
        self._layer = layer
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        layer = self._layer
        keep = 1.0 - layer.p
        mask = np.empty(x.shape)
        for row in range(x.shape[0]):
            mask[row] = (layer.rng.random(x.shape[1:]) < keep) / keep
        self._mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output * self._mask
        self._mask = None
        return grad


# Elementwise layers are shape-agnostic: the exact per-worker classes
# run unchanged on (R, B, ...) tensors, so lowering just wraps a
# fresh instance (identical math, identical numerics).
_ELEMENTWISE = ("ReLU", "LeakyReLU", "Sigmoid", "Tanh")


def _lower_layer(layer: Module, offsets: dict[int, int]):
    """One layer's batched counterpart, or ``None`` if unsupported."""
    if isinstance(layer, Dense):
        return _BatchedDense(layer, offsets)
    if isinstance(layer, Conv2d):
        return _BatchedConv2d(layer, offsets)
    if isinstance(layer, _BatchNorm):
        return _BatchedBatchNorm(layer, offsets)
    if isinstance(layer, MaxPool2d):
        return _BatchedMaxPool2d(layer)
    if isinstance(layer, AvgPool2d):
        return _BatchedAvgPool2d(layer)
    if isinstance(layer, GlobalAvgPool2d):
        return _BatchedGlobalAvgPool2d()
    if isinstance(layer, Flatten):
        return _BatchedFlatten()
    name = type(layer).__name__
    if name in _ELEMENTWISE:
        clone = type(layer).__new__(type(layer))
        Module.__init__(clone)
        for attr, value in vars(layer).items():
            if attr.startswith("_") or attr == "training":
                continue
            object.__setattr__(clone, attr, value)
        # Reset per-pass caches the constructors normally initialize.
        for attr in ("_mask", "_out"):
            object.__setattr__(clone, attr, None)
        return _Bindable(clone)
    if isinstance(layer, Dropout):
        if layer.p == 0.0:
            # p=0 dropout is the identity in both modes and draws
            # nothing, so a detached clone suffices.
            return _Bindable(Dropout(0.0))
        return _BatchedDropout(layer)
    if isinstance(layer, Sequential):
        lowered, failed = _lower_stack(layer.layers, offsets)
        if failed is not None:
            return None
        return _BatchedChain(lowered)
    # ResNet's residual block (imported lazily: models sit above nn).
    from repro.nn.models.resnet import BasicBlock

    if isinstance(layer, BasicBlock):
        return _BatchedBasicBlock(layer, offsets)
    return None


def _lower_stack(layers, offsets: dict[int, int]):
    """Lower a layer pipeline: ``(lowered, None)`` or ``(None, layer)``
    naming the first layer that does not lower.

    A ``ReLU`` directly followed by ``MaxPool2d`` lowers to one
    max-pool-then-ReLU layer (ReLU is monotone, so it commutes with the
    window max; see :class:`_BatchedMaxPool2d`).
    """
    lowered = []
    index = 0
    while index < len(layers):
        layer = layers[index]
        following = layers[index + 1] if index + 1 < len(layers) else None
        if type(layer) is ReLU and isinstance(following, MaxPool2d):
            lowered.append(_BatchedMaxPool2d(following, relu=True))
            index += 2
            continue
        item = _lower_layer(layer, offsets)
        if item is None:
            return None, layer
        lowered.append(item)
        index += 1
    return lowered, None


def _unsupported_layer_reason(layer: Module) -> str:
    """Machine-readable reason tag for a layer that failed to lower."""
    return f"layer:{type(layer).__name__}"


def _note_unsupported(model, reason: str) -> None:
    """Surface a lowering fallback: tracer counter + one-time debug log."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count(f"batched.lower.unsupported.{reason}")
    key = (type(model.module).__name__, reason)
    if key not in _logged_reasons:
        _logged_reasons.add(key)
        logger.debug(
            "batched lowering unsupported for %s: %s "
            "(falling back to the per-worker loop)",
            type(model.module).__name__,
            reason,
        )


def _lower_model(model) -> tuple[BatchedProgram | None, str | None]:
    """Lowering core: ``(program, None)`` or ``(None, reason)``."""
    module = model.module
    if isinstance(module, Sequential):
        stack = list(module.layers)
    elif isinstance(module, Dense):
        stack = [module]
    elif hasattr(module, "batched_stack"):
        # Composite bodies (e.g. the ResNet trunk) expose their layer
        # pipeline explicitly for the lowering walk.
        stack = list(module.batched_stack())
    else:
        return None, f"module:{type(module).__name__}"

    if isinstance(model.loss_fn, SoftmaxCrossEntropyLoss):
        loss = _BatchedSoftmaxCE()
    elif isinstance(model.loss_fn, MSELoss):
        loss = _BatchedMSE()
    else:
        return None, f"loss:{type(model.loss_fn).__name__}"

    live_dropout = [
        child
        for child in module.modules()
        if isinstance(child, Dropout) and child.p > 0.0
    ]
    if len({id(child.rng) for child in live_dropout}) < len(live_dropout):
        # Worker-major vs layer-major draw interleaving diverges when
        # live dropout layers share a generator (see _BatchedDropout).
        return None, "layer:Dropout(shared-rng)"

    offsets: dict[int, int] = {}
    cursor = 0
    for param in module.parameters():
        offsets[id(param)] = cursor
        cursor += param.size

    layers, failed = _lower_stack(stack, offsets)
    if failed is not None:
        return None, _unsupported_layer_reason(failed)
    if sum(layer.covered for layer in layers) != cursor:
        # Some parameter lives outside the lowered layers; the batched
        # backward would leave its gradient stale.
        return None, "params:uncovered"
    return BatchedProgram(model, layers, loss), None


def lower_supervised_model(model, *, explain: bool = False):
    """Lower ``model`` to a :class:`BatchedProgram`, or ``None``.

    A model lowers when its module is a flat :class:`Sequential` (or a
    bare :class:`Dense`, or a composite exposing ``batched_stack()``)
    of supported layers, its loss is softmax cross-entropy or MSE, and
    the lowered layers cover every parameter (so the batched backward
    fills the whole gradient row).

    With ``explain=True`` returns ``(program, reason)`` where ``reason``
    is ``None`` on success and a machine-readable tag otherwise
    (``module:<Type>``, ``loss:<Type>``, ``layer:<Type>``,
    ``layer:Dropout(shared-rng)``, ``params:uncovered``).  Every failed
    lowering also bumps the ``batched.lower.unsupported.<reason>``
    tracer counter and emits a one-time debug log.
    """
    program, reason = _lower_model(model)
    if reason is not None:
        _note_unsupported(model, reason)
    if explain:
        return program, reason
    return program
