"""Micro-benchmarks of the training substrate.

These use pytest-benchmark's statistical timing (many rounds) because
they measure steady-state kernel cost, not experiment outcomes: conv
forward/backward throughput, dense gradient cost, flat-vector
aggregation vs a naive per-layer loop (DESIGN.md §6 decision 1), and
the full HierAdMo iteration cost.
"""

import itertools

import numpy as np

from repro.core import Federation, HierAdMo
from repro.core.adaptive import AdaptiveGammaController
from repro.data import Dataset
from repro.nn.models import make_cnn, make_logistic_regression
from repro.utils.flatten import flatten_arrays, unflatten_like

from .common import make_bench_federation, time_min
from .recorder import record_bench

RNG = np.random.default_rng(0)


def test_bench_cnn_gradient(benchmark):
    model = make_cnn(1, 10, 10, width=8, hidden=32, rng=0)
    x = RNG.normal(size=(32, 1, 10, 10))
    y = RNG.integers(0, 10, 32)
    params = model.get_flat_params()
    benchmark(model.gradient, x, y, params)


def test_bench_logistic_gradient(benchmark):
    model = make_logistic_regression(100, 10, rng=0)
    x = RNG.normal(size=(64, 100))
    y = RNG.integers(0, 10, 64)
    params = model.get_flat_params()
    benchmark(model.gradient, x, y, params)


def test_bench_flat_aggregation(benchmark):
    """Weighted average of 16 flat parameter vectors (the hot FL path)."""
    dim = 100_000
    vectors = [RNG.normal(size=dim) for _ in range(16)]
    weights = np.full(16, 1 / 16)

    def aggregate():
        out = np.zeros(dim)
        for weight, vector in zip(weights, vectors):
            out += weight * vector
        return out

    result = benchmark(aggregate)
    assert result.shape == (dim,)


def test_bench_per_layer_aggregation(benchmark):
    """Ablation counterpart: the same average over 12 ragged layers.

    Compare with test_bench_flat_aggregation in the report — the flat
    layout wins by avoiding per-layer Python overhead.
    """
    shapes = [(64, 128), (64,), (128, 256), (128,)] * 3
    models = [
        [RNG.normal(size=shape) for shape in shapes] for _ in range(16)
    ]
    weights = np.full(16, 1 / 16)

    def aggregate():
        out = [np.zeros(shape) for shape in shapes]
        for weight, layers in zip(weights, models):
            for accumulator, layer in zip(out, layers):
                accumulator += weight * layer
        return out

    benchmark(aggregate)


def test_bench_stacked_aggregation(benchmark):
    """GEMM counterpart of test_bench_flat_aggregation.

    The buffer-backed runtime keeps worker state stacked in one
    (num_workers, dim) matrix, so the same weighted average is a single
    ``weights @ matrix`` product with no Python-level loop at all.
    """
    dim = 100_000
    matrix = RNG.normal(size=(16, dim))
    weights = np.full(16, 1 / 16)

    result = benchmark(lambda: weights @ matrix)
    assert result.shape == (dim,)


def test_bench_flatten_roundtrip(benchmark):
    arrays = [RNG.normal(size=(64, 128)), RNG.normal(size=(128, 256)),
              RNG.normal(size=(256,))]

    def roundtrip():
        return unflatten_like(flatten_arrays(arrays), arrays)

    benchmark(roundtrip)


def test_bench_hieradmo_iteration(benchmark):
    """One full HierAdMo local iteration across 4 workers."""
    rng = np.random.default_rng(1)
    edges = []
    for _ in range(2):
        edge = []
        for _ in range(2):
            edge.append(Dataset(
                rng.normal(size=(64, 50)), rng.integers(0, 5, 64), 5
            ))
        edges.append(edge)
    model = make_logistic_regression(50, 5, rng=2)
    federation = Federation(model, edges, edges[0][0], batch_size=32, seed=3)
    algo = HierAdMo(federation, tau=10**9, pi=1)
    algo.history = federation.new_history("bench", {})
    algo._setup()
    clock = itertools.count(1)
    benchmark(lambda: algo._step(next(clock)))


# ----------------------------------------------------------------------
# Before/after: the buffer-backed runtime vs the seed-era hot path
# ----------------------------------------------------------------------
def _legacy_parameters(module):
    """Seed-era parameter collection: a fresh tree walk on every call."""
    params = list(module._params.values())
    for child in module._children.values():
        params.extend(_legacy_parameters(child))
    return params


def _legacy_modules(module):
    """Seed-era ``modules()``: also an uncached walk (used by train())."""
    out = [module]
    for child in module._children.values():
        out.extend(_legacy_modules(child))
    return out


def _legacy_gradient(model, x, y, params):
    """Seed-era gradient oracle, walk for walk.

    The seed re-collected ``parameters()`` on every flat-access method:
    twice in ``set_flat_params`` (shapes, then the copy loop), once in
    ``zero_grad`` and once in ``get_flat_grads`` — four tree walks per
    gradient call — plus the unflatten slicing copies and a fresh
    concatenation of the per-parameter gradients on the way out.
    """
    module = model.module
    blocks = unflatten_like(params, [p.data for p in _legacy_parameters(module)])
    for param, block in zip(_legacy_parameters(module), blocks):
        np.copyto(param.data, block)
    for m in _legacy_modules(module):
        object.__setattr__(m, "training", True)
    for param in _legacy_parameters(module):
        param.grad.fill(0.0)
    predictions = module.forward(x)
    loss = model.loss_fn.forward(predictions, y)
    module.backward(model.loss_fn.backward())
    return flatten_arrays([p.grad for p in _legacy_parameters(module)]), float(loss)


def test_bench_buffered_vs_legacy_plumbing():
    """Before/after micro-benchmark of the paths the refactor changed.

    Measures one federated "plumbing round" with the forward/backward
    math (identical either way) excluded: per worker, the gradient-oracle
    bookkeeping — set parameters from a flat vector, zero the gradients,
    read the flat gradient back — then per edge, the weighted aggregation
    and redistribution.  ``legacy`` reproduces the seed implementations
    walk for walk (fresh ``parameters()`` tree walks per flat-access
    call, unflatten/flatten copies, Python-loop weighted sums over
    per-worker vectors, per-worker redistribution copies); ``buffered``
    is the live code (one ``np.copyto`` / ``fill`` / zero-copy view per
    oracle call, one GEMM + row broadcast per edge).  Acceptance target
    from the refactor issue: ≥ 2× on a small MLP with ≥ 20 workers.
    """
    fed = make_bench_federation()
    model, module, dim = fed.model, fed.model.module, fed.dim
    rng = np.random.default_rng(10)
    stacked = rng.normal(size=(fed.num_workers, dim))
    grad_matrix = np.empty_like(stacked)
    xs = [row.copy() for row in stacked]

    def legacy_round():
        for worker in range(fed.num_workers):
            blocks = unflatten_like(
                xs[worker], [p.data for p in _legacy_parameters(module)]
            )
            for param, block in zip(_legacy_parameters(module), blocks):
                np.copyto(param.data, block)
            for param in _legacy_parameters(module):
                param.grad.fill(0.0)
            flatten_arrays([p.grad for p in _legacy_parameters(module)])
        for edge in range(fed.num_edges):
            rows = fed.edge_slices[edge]
            average = np.zeros(dim)
            for weight, index in zip(
                fed.worker_w_in_edge[edge], range(rows.start, rows.stop)
            ):
                average += weight * xs[index]
            for index in range(rows.start, rows.stop):
                xs[index] = average.copy()

    def buffered_round():
        for worker in range(fed.num_workers):
            module.set_flat_params(stacked[worker])
            module.zero_grad()
            np.copyto(grad_matrix[worker], module.get_flat_grads())
        averages = fed.edge_average_all(stacked)
        for edge in range(fed.num_edges):
            stacked[fed.edge_slices[edge]] = averages[edge]

    legacy_round()  # warm-up both paths
    buffered_round()
    legacy_time = time_min(legacy_round, repeats=7, iters=10)
    buffered_time = time_min(buffered_round, repeats=7, iters=10)
    speedup = legacy_time / buffered_time
    print(
        f"\n[bench] oracle+aggregation plumbing, {fed.num_workers} workers, "
        f"dim={dim}: legacy {legacy_time * 1e6:.0f} us, "
        f"buffered {buffered_time * 1e6:.0f} us -> {speedup:.1f}x"
    )
    record_bench("substrate", "plumbing_round", {
        "workers": fed.num_workers,
        "dim": dim,
        "legacy_us": legacy_time * 1e6,
        "buffered_us": buffered_time * 1e6,
        "speedup": speedup,
    })
    assert speedup >= 2.0, (
        f"buffered plumbing only {speedup:.2f}x faster than legacy"
    )


def test_bench_buffered_vs_legacy_iteration():
    """End-to-end HierAdMo worker loop: buffered vs seed-era emulation.

    Context for the plumbing micro-benchmark above: the full iteration
    includes the forward/backward math that the refactor does not touch,
    so the end-to-end win is smaller — this records it and guards
    against the buffered runtime ever being slower overall.
    """
    fed = make_bench_federation()
    model = fed.model
    algo = HierAdMo(fed, tau=10**9, pi=1)
    algo.history = fed.new_history("bench", {})
    algo._setup()

    xs = [fed.initial_params() for _ in range(fed.num_workers)]
    ys = [x.copy() for x in xs]
    controller = AdaptiveGammaController(fed.num_workers, fed.dim, "velocity")
    eta, gamma = algo.eta, algo.gamma

    def legacy_iteration():
        for worker in range(fed.num_workers):
            x_batch, y_batch = fed.samplers[worker].next_batch()
            grad, _ = _legacy_gradient(model, x_batch, y_batch, xs[worker])
            y_new = xs[worker] - eta * grad
            velocity = y_new - ys[worker]
            controller.accumulate(worker, grad, ys[worker], velocity)
            xs[worker] = y_new + gamma * velocity
            ys[worker] = y_new

    clock = itertools.count(1)

    def buffered_iteration():
        algo._step(next(clock))  # tau=10**9: local steps only

    legacy_iteration()  # warm-up both paths
    buffered_iteration()
    legacy_time = time_min(legacy_iteration, repeats=7, iters=10)
    buffered_time = time_min(buffered_iteration, repeats=7, iters=10)
    speedup = legacy_time / buffered_time
    print(
        f"\n[bench] HierAdMo worker iteration, {fed.num_workers} workers, "
        f"dim={fed.dim}: legacy {legacy_time * 1e6:.0f} us, "
        f"buffered {buffered_time * 1e6:.0f} us -> {speedup:.2f}x"
    )
    record_bench("substrate", "hieradmo_iteration", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "legacy_us": legacy_time * 1e6,
        "buffered_us": buffered_time * 1e6,
        "speedup": speedup,
    })
    assert speedup >= 1.0, (
        f"buffered end-to-end iteration slower than legacy ({speedup:.2f}x)"
    )
