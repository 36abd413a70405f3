"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class _Pool2d(Module):
    """Shared im2col plumbing for max/avg pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(
            stride if stride is not None else kernel_size, "stride"
        )
        self._x_shape: tuple | None = None
        self._out_hw: tuple | None = None

    def _patches(self, x: np.ndarray) -> np.ndarray:
        """Return patches shaped (N*OH*OW*C, K*K)."""
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        cols = im2col(x, k, k, s, 0)  # (N*OH*OW, C*K*K)
        return cols.reshape(-1, k * k)

    def _scatter(self, grad_patches: np.ndarray) -> np.ndarray:
        """Scatter per-patch gradients (N*OH*OW*C, K*K) back to the input."""
        c = self._x_shape[1]
        k, s = self.kernel_size, self.stride
        grad_cols = grad_patches.reshape(-1, c * k * k)
        return col2im(grad_cols, self._x_shape, k, k, s, 0)


class MaxPool2d(_Pool2d):
    """Max pooling; gradient routes to the argmax element of each window."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__(kernel_size, stride)
        self._argmax: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self._patches(x)
        self._argmax = patches.argmax(axis=1)
        out = patches[np.arange(patches.shape[0]), self._argmax]
        n, c, _, _ = self._x_shape
        out_h, out_w = self._out_hw
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        grad_flat = grad_output.transpose(0, 2, 3, 1).ravel()
        grad_patches = np.zeros(
            (grad_flat.shape[0], k * k), dtype=grad_flat.dtype
        )
        grad_patches[np.arange(grad_flat.shape[0]), self._argmax] = grad_flat
        self._argmax = None
        return self._scatter(grad_patches)


class AvgPool2d(_Pool2d):
    """Average pooling; gradient spreads uniformly over each window."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self._patches(x)
        out = patches.mean(axis=1)
        n, c, _, _ = self._x_shape
        out_h, out_w = self._out_hw
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        grad_flat = grad_output.transpose(0, 2, 3, 1).ravel()
        grad_patches = np.repeat(
            grad_flat[:, None] / (k * k), k * k, axis=1
        )
        return self._scatter(grad_patches)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent: (N, C, H, W) -> (N, C)."""

    def __init__(self):
        super().__init__()
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected 4-D input, got shape {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        grad = grad_output[:, :, None, None] / (h * w)
        self._x_shape = None
        return np.broadcast_to(grad, (n, c, h, w)).copy()
