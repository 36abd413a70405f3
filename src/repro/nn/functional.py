"""Stateless tensor operations shared by the layers.

The conv/pool layers are built on the classic im2col/col2im transformation:
patches of the input become rows of a matrix so convolution reduces to one
GEMM, which is the only way to get acceptable conv performance from NumPy.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
    *,
    channels_last: bool = False,
) -> np.ndarray:
    """Rearrange (N, C, H, W) input — or (N, H, W, C) with
    ``channels_last`` — into patch rows.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one receptive field, ordered ``(c, kh, kw)`` in
    either layout.  ``out``, when given, must be a C-contiguous array of
    exactly that shape and receives the patch rows in place (layers pass
    a cached scratch buffer so repeated same-shape forwards allocate
    nothing).
    """
    if not channels_last:
        x = x.transpose(0, 2, 3, 1)
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        # Manual zero-padding: np.pad spends more time in Python
        # bookkeeping than this hot path can afford.
        padded = np.zeros(
            (n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype
        )
        padded[:, padding:-padding, padding:-padding] = x
        x = padded

    shape = (n * out_h * out_w, c * kernel_h * kernel_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape:
        raise ValueError(
            f"im2col out buffer has shape {out.shape}, needs {shape}"
        )
    # One copy from the sliding-window view (n, oh, ow, c, kh, kw) of
    # the image straight into the final patch-row layout.  The view is
    # built with as_strided: sliding_window_view's argument handling
    # costs more than the whole copy for the few-image per-worker calls.
    step_n, step_h, step_w, step_c = x.strides
    windows = as_strided(
        x,
        (n, out_h, out_w, c, kernel_h, kernel_w),
        (step_n, stride * step_h, stride * step_w, step_c, step_h, step_w),
        writeable=False,
    )
    np.copyto(out.reshape(n, out_h, out_w, c, kernel_h, kernel_w), windows)
    return out


# Fold-index buffers for col2im, keyed by the layout and the full
# geometry.  Each buffer maps every patch element (in the natural (n,
# oh, ow, c, kh, kw) im2col row layout) to its flat destination in the
# padded image, so the scatter-add is a single ``np.bincount`` pass with
# no transpose copy.  Geometries are few (one per conv/pool layer
# shape), but the cache is bounded anyway so pathological callers
# cannot leak.
_FOLD_INDEX_CACHE: dict[tuple, np.ndarray] = {}
_FOLD_INDEX_CACHE_MAX = 64


def _fold_indices(
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    channels_last: bool,
) -> np.ndarray:
    key = (channels_last, tuple(x_shape), kernel_h, kernel_w, stride, padding)
    cached = _FOLD_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    if channels_last:
        n, h, w, c = x_shape
    else:
        n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded_h = h + 2 * padding
    padded_w = w + 2 * padding
    rows = (
        stride * np.arange(out_h)[:, None] + np.arange(kernel_h)
    )  # (OH, KH)
    columns = (
        stride * np.arange(out_w)[:, None] + np.arange(kernel_w)
    )  # (OW, KW)
    # Flat strides of the padded image's n, c, row and column axes.
    if channels_last:
        strides = (padded_h * padded_w * c, 1, padded_w * c, c)
    else:
        strides = (c * padded_h * padded_w, padded_h * padded_w, padded_w, 1)
    indices = (
        np.arange(n).reshape(n, 1, 1, 1, 1, 1) * strides[0]
        + np.arange(c).reshape(1, 1, 1, c, 1, 1) * strides[1]
        + rows.reshape(1, out_h, 1, 1, kernel_h, 1) * strides[2]
        + columns.reshape(1, 1, out_w, 1, 1, kernel_w) * strides[3]
    ).ravel()
    if len(_FOLD_INDEX_CACHE) >= _FOLD_INDEX_CACHE_MAX:
        _FOLD_INDEX_CACHE.clear()
    _FOLD_INDEX_CACHE[key] = indices
    return indices


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    *,
    channels_last: bool = False,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch rows back to an image.

    ``x_shape`` is the image shape in the layout ``channels_last``
    names, and the result comes back in that layout.  Overlapping
    patches accumulate, which is exactly the gradient of ``im2col``.
    The scatter runs as one ``np.bincount`` over a cached fold-index
    buffer (patch element -> flat padded-image position), so repeated
    same-shape backwards pay no transpose and no per-tap strided loop.
    """
    indices = _fold_indices(
        x_shape, kernel_h, kernel_w, stride, padding, channels_last
    )
    if channels_last:
        n, h, w, c = x_shape
        padded_shape = (n, h + 2 * padding, w + 2 * padding, c)
    else:
        n, c, h, w = x_shape
        padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    padded = np.bincount(
        indices, weights=cols.ravel(), minlength=math.prod(padded_shape)
    ).reshape(padded_shape)
    if cols.dtype != padded.dtype:
        padded = padded.astype(cols.dtype)

    if padding == 0:
        return padded
    inner = slice(padding, -padding)
    if channels_last:
        return padded[:, inner, inner, :]
    return padded[:, :, inner, inner]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels (N,) -> one-hot matrix (N, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
