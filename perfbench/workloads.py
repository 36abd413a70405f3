"""The benchmark's workloads and the wrappers that time them.

All three run HierAdMo with tau=10, pi=2 and batch 32 (the CLI and
``ExperimentConfig`` default batch).  The lockstep workloads go through
``repro.cli.main(["run", ...])`` exactly as a user's ``repro run``
would; the async workload uses the public Python API, because the CLI
cannot start the event engine.  Layers are timed only by wrapping
public functions and methods from this file; nothing inside ``src/`` is
edited or relies on ``repro.telemetry``/``repro.monitoring`` for timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

from harness import Spans, Timeline, clock

TAU = 10
PI = 2

WORKLOADS = {
    "cnn-cifar10": {
        "driver": "lockstep",
        "why": "conv path: ~87% of training in BatchedProgram.gradient_all "
               "(im2col, col2im), ~10% eval; population, engine, monitor "
               "and checkpoint idle",
        "iterations": 120,
        "toy_iterations": 40,
        "accuracy_floor": 0.5,
        "batched": True,
    },
    "population-1m": {
        "driver": "lockstep",
        "why": "1M registered clients, 4x64 cohort resampled every round: "
               "tiny GEMM, time in batch sampling, stacking, cohort "
               "resampling and shard synthesis; bounded memory",
        "iterations": 200,
        "toy_iterations": 40,
        "accuracy_floor": 0.5,
        "batched": True,
    },
    "async-faults": {
        "driver": "event",
        "why": "AsyncHierAdMo on the event engine with stragglers, faults, "
               "a JSONL monitor and fsynced checkpoints: per-worker "
               "gradients, engine self time and durable writes",
        "iterations": 1000,
        "toy_iterations": 80,
        "accuracy_floor": 0.5,
        "batched": False,
    },
}


def derive_seed(seed: int, stream: str) -> int:
    """Independent 31-bit sub-seed of the workload seed for one stream."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def generate(workload: str, seed: int, toy: bool = False) -> dict:
    """The configuration the program receives for one workload seed.

    The seed reaches data synthesis, partition and cohort draws (through
    the config seed), straggler delays and the fault plan.
    """
    spec = WORKLOADS[workload]
    iterations = spec["toy_iterations" if toy else "iterations"]
    data_seed = derive_seed(seed, "data")
    common = ["--algorithm", "HierAdMo", "--tau", str(TAU), "--pi", str(PI),
              "--iterations", str(iterations), "--seed", str(data_seed)]
    if workload == "cnn-cifar10":
        argv = ["run", "--model", "cnn", "--dataset", "cifar10",
                "--samples", "800" if toy else "4000",
                "--edges", "2", "--workers-per-edge", "4", *common]
        return {"driver": "lockstep", "argv": argv}
    if workload == "population-1m":
        argv = ["run", "--model", "logistic",
                "--population", "10000" if toy else "1000000",
                "--edges", "4", "--cohort-per-edge", "64", *common]
        return {"driver": "lockstep", "argv": argv}
    return {
        "driver": "event",
        "config": {
            "model": "logistic", "dataset": "mnist",
            "num_samples": 1000 if toy else 4000,
            "num_edges": 4, "workers_per_edge": 8,
            "tau": TAU, "pi": PI, "batch_size": 32,
            "total_iterations": iterations, "seed": data_seed,
        },
        "stragglers": {"probability": 0.25, "factor": 10.0},
        "quorum": 0.5,
        "sim_seed": derive_seed(seed, "stragglers"),
        "faults": {"seed": derive_seed(seed, "faults"),
                   "worker_dropout": 0.05, "msg_loss": 0.05,
                   "msg_staleness": 0.1},
        "checkpoint_every": 100,
    }


def wrap(owner, attr: str, *, name: str | None = None,
         spans: Spans | None = None, before=None, after=None) -> None:
    """Replace ``owner.attr`` by a timing wrapper.

    ``before(args, kwargs)`` runs first, then the span (when tracing)
    opens; ``after(args, kwargs, result)`` runs before the span closes.
    """
    original = getattr(owner, attr)
    traced = spans is not None and name is not None
    if not traced and before is None and after is None:
        return

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = spans.open(name) if traced else None
        result = original(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        if traced:
            spans.close(span)
        return result

    setattr(owner, attr, wrapper)


class Probe:
    """What the wrappers observed about one run besides its timings."""

    def __init__(self):
        self.federation = None
        self.history = None
        self.loop_gradient_calls = 0
        self.checkpoint_bytes = 0
        self.setup: dict[str, float] = {}

    def timed(self, key: str, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.setup[key] = clock() - start
        return result


def instrument(driver: str, timeline: Timeline, probe: Probe,
               spans: Spans | None) -> None:
    """Install the wrappers for one run (process-wide, so once per child)."""
    from repro.algorithms.asynchronous import (
        AsyncExecutionMixin,
        AsyncHierAdMo,
    )
    from repro.checkpoint import CheckpointManager
    from repro.core.base import FLAlgorithm
    from repro.core.federation import Federation
    from repro.data.loader import BatchSampler
    from repro.data.shards import PrototypeShards
    from repro.experiments import runner
    from repro.monitoring.monitor import RunMonitor
    from repro.monitoring.sinks import JSONLStreamSink
    from repro.nn import batched, conv
    from repro.nn.supervised import SupervisedModel
    from repro.population.binder import PopulationBinder
    from repro.population.sampling import CohortSampler
    from repro.simulation.engine import EventLoopRunner

    lockstep = driver == "lockstep"

    # Set-up of the CLI path (the async path times its own builders).
    def build_federation(fn):
        def timed(config):
            probe.federation = probe.timed("build_federation", fn, config)
            return probe.federation
        return timed

    def build_algorithm(fn):
        def timed(*args, **kwargs):
            return probe.timed("build_algorithm", fn, *args, **kwargs)
        return timed

    runner.build_federation = build_federation(runner.build_federation)
    runner.build_algorithm = build_algorithm(runner.build_algorithm)

    # The training call.
    def train_end(args, kwargs, history):
        timeline.train_end()
        probe.history = history

    for cls in (FLAlgorithm, AsyncExecutionMixin):
        wrap(cls, "run", name="train", spans=spans,
             before=lambda args, kwargs: timeline.train_start(),
             after=train_end)

    # Gradient layer: samples are counted where the gradients are taken.
    def gradient_all_entry(args, kwargs):
        fed, rows = args[0], kwargs.get("rows")
        timeline.step()
        count = fed.num_workers if rows is None else len(rows)
        timeline.count_samples(count * fed.batch_size)

    def gradient_entry(args, kwargs):
        if lockstep:
            probe.loop_gradient_calls += 1
        else:
            timeline.count_samples(args[0].batch_size)

    wrap(Federation, "gradient_all", name="federation.gradient_all",
         spans=spans, before=gradient_all_entry if lockstep else None)
    wrap(Federation, "gradient", name="federation.gradient", spans=spans,
         before=gradient_entry)

    # Calls excluded from lockstep iterations (still in samples_per_s).
    pause = (lambda args, kwargs: timeline.pause()) if lockstep else None
    wrap(Federation, "evaluate", name="federation.evaluate", spans=spans,
         before=pause)
    wrap(PopulationBinder, "resample", name="population.resample",
         spans=spans, before=pause)

    def saved(args, kwargs, path):
        probe.checkpoint_bytes += os.path.getsize(path)

    wrap(CheckpointManager, "save", name="checkpoint.save", spans=spans,
         before=pause, after=saved)

    # Event engine: rounds end at round_complete barriers.
    if not lockstep:
        wrap(EventLoopRunner, "run", name="engine.run", spans=spans,
             before=lambda args, kwargs: timeline.engine_start())
        wrap(AsyncExecutionMixin, "round_complete",
             before=lambda args, kwargs: timeline.barrier(),
             after=lambda args, kwargs, result: timeline.barrier_done())

    if spans is None:
        return
    for owner, attr, name in (
        (batched.BatchedProgram, "gradient_all", "batched.gradient_all"),
        (batched, "im2col", "batched.im2col"),
        (batched, "col2im", "batched.col2im"),
        (SupervisedModel, "evaluate", "supervised.evaluate"),
        (conv, "im2col", "eval.im2col"),
        (BatchSampler, "next_batch", "loader.next_batch"),
        (Federation, "edge_average_all", "federation.edge_average_all"),
        (CohortSampler, "draw", "population.draw"),
        (PrototypeShards, "shard", "shards.shard"),
        (AsyncExecutionMixin, "local_step", "async.local_step"),
        (AsyncHierAdMo, "close_round", "async.close_round"),
        (AsyncHierAdMo, "cloud_sync", "async.cloud_sync"),
        (RunMonitor, "emit", "monitor.emit"),
        (JSONLStreamSink, "emit", "sink.emit"),
    ):
        wrap(owner, attr, name=name, spans=spans)


def run_lockstep(argv: list[str]) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro run exited with {code}")


def run_event(spec: dict, workdir: str, probe: Probe) -> None:
    from repro.algorithms import AsyncHierAdMo
    from repro.checkpoint import CheckpointManager
    from repro.experiments import ExperimentConfig
    from repro.experiments.builders import build_federation
    from repro.faults import FaultPlan
    from repro.monitoring import JSONLStreamSink, default_monitors, monitoring
    from repro.simulation import (
        AsyncDeployment,
        add_stragglers,
        worker_device_pool,
    )

    config = ExperimentConfig(**spec["config"])
    fed = probe.federation = probe.timed(
        "build_federation", build_federation, config
    )

    def build_algorithm():
        stragglers = spec["stragglers"]
        devices = add_stragglers(
            worker_device_pool(fed.num_workers),
            stragglers["probability"], stragglers["factor"],
        )
        deployment = AsyncDeployment(
            devices, payload_bytes=fed.dim * 8.0, quorum=spec["quorum"]
        )
        algorithm = AsyncHierAdMo(
            fed, eta=config.eta, gamma=config.gamma, tau=config.tau,
            pi=config.pi, deployment=deployment, sim_rng=spec["sim_seed"],
        )
        algorithm.attach_faults(FaultPlan(**spec["faults"]))
        return algorithm

    algorithm = probe.timed("build_algorithm", build_algorithm)
    checkpoints = CheckpointManager(
        os.path.join(workdir, "checkpoints"),
        every=spec["checkpoint_every"], config=config,
    )
    sink = JSONLStreamSink(os.path.join(workdir, "events.jsonl"))
    with monitoring(sinks=[sink], monitors=default_monitors()):
        algorithm.run(config.total_iterations, checkpoints=checkpoints)


def history_digest(history) -> str:
    """Bit-level digest of the loss, accuracy and simulated-time series."""
    h = hashlib.sha256()
    for series in (history.iterations, history.train_loss,
                   history.test_loss, history.test_accuracy,
                   history.eval_times):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
        h.update(b"|")
    return h.hexdigest()
