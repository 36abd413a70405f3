"""Helpers the micro-benchmarks share: a timer and a small federation."""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import Federation
from repro.data import Dataset
from repro.nn.models import make_mlp


def time_min(fn, repeats=9, iters=20):
    """Best-of-repeats mean iteration time (robust to scheduler noise)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iters


def make_bench_federation(num_edges=4, per_edge=6):
    """Small MLP (dim 421), 24 workers across 4 edges."""
    rng = np.random.default_rng(7)
    edges = [
        [
            Dataset(rng.normal(size=(96, 20)), rng.integers(0, 5, 96), 5)
            for _ in range(per_edge)
        ]
        for _ in range(num_edges)
    ]
    model = make_mlp(20, (16,), 5, rng=8)
    return Federation(model, edges, edges[0][0], batch_size=8, seed=9)
