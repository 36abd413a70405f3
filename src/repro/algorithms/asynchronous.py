"""Staleness-aware asynchronous algorithm variants.

These run under the event-driven engine
(:class:`repro.simulation.engine.EventLoopRunner`) instead of the
lockstep driver: each worker's gradient steps fire at its simulated
completion time, and aggregation closes on whatever model versions have
arrived when the edge quorum is met.  Two variants ship:

* :class:`AsyncFedAvg` — workers under the cloud directly; round
  closure averages the fresh arrivals plus any buffered stale uploads
  with weights decayed by ``staleness_decay ** s``,
* :class:`AsyncHierAdMo` — the three-tier algorithm with *stale-momentum
  correction*: a buffered stale momentum contribution is contracted
  toward the edge's last distributed aggregate
  (``y_ref + decay**s · (y_snap − y_ref)``) before entering line 11, so
  an ancient velocity cannot re-accelerate the edge momentum, and the
  adaptive γℓ (eqs. 6–7) is measured over the fresh arrivals only.

With ``quorum=1.0`` and no faults, every closure takes the pristine
branch — the exact lockstep expressions over all members — so the
event-driven run reproduces the golden trajectories (pinned at rtol
1e-8 by the equivalence battery).  Histories gain a simulated-time axis
(``eval_times``), which makes the paper's Fig. 2 h/l time-to-accuracy
comparison emergent rather than re-priced after the fact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.twotier import FedAvg
from repro.core.base import ALL_ROWS
from repro.core.federation import Federation
from repro.core.hieradmo import HierAdMo
from repro.faults import RoundOutcome
from repro.metrics.history import TrainingHistory
from repro.monitoring.health import MonitorAbort
from repro.simulation.devices import worker_device_pool
from repro.simulation.engine import AsyncDeployment, EventLoopRunner
from repro.telemetry import get_tracer
from repro.utils.validation import check_positive

__all__ = ["AsyncExecutionMixin", "AsyncFedAvg", "AsyncHierAdMo"]


class AsyncExecutionMixin:
    """Event-driven execution for an existing lockstep algorithm.

    Mix in *before* the algorithm class.  Replaces ``run`` with the
    event-loop driver and implements the runner's client protocol on top
    of the algorithm's own update rules: a worker event runs
    ``_local_update`` on that worker's row, and the round hooks
    (``close_round``, ``cloud_sync``) come from the concrete subclass.
    Two-tier (``FLAT``) algorithms run one all-worker group uploading
    over the WAN, with no separate cloud barrier.
    """

    def __init__(
        self,
        federation: Federation,
        *,
        deployment: AsyncDeployment | None = None,
        staleness_decay: float = 0.5,
        sim_rng=0,
        **kwargs,
    ):
        super().__init__(federation, **kwargs)
        if deployment is None:
            deployment = AsyncDeployment(
                worker_device_pool(federation.num_workers),
                payload_bytes=federation.dim * 8.0 * self.payload_multiplier,
            )
        self.deployment = deployment
        if not 0.0 < staleness_decay <= 1.0:
            raise ValueError(
                f"staleness_decay must be in (0, 1], got {staleness_decay}"
            )
        self.staleness_decay = float(staleness_decay)
        self.sim_rng = sim_rng
        self.simulation = None
        self.runner: EventLoopRunner | None = None

    def config(self) -> dict:
        return {
            **super().config(),
            "quorum": self.deployment.quorum,
            "staleness_decay": self.staleness_decay,
        }

    # ------------------------------------------------------------------
    # Runner client protocol (scheduling side)
    # ------------------------------------------------------------------
    @property
    def group_members(self) -> list[np.ndarray]:
        fed = self.fed
        if self.FLAT:
            return [np.arange(fed.num_workers)]
        return [
            np.arange(rows.start, rows.stop) for rows in fed.edge_slices
        ]

    def local_step(self, worker: int, t: int) -> float:
        """One gradient step of ``worker`` at nominal iteration ``t``."""
        if self.eta_schedule is not None:
            self.eta = check_positive(
                self.eta_schedule(t - 1), "scheduled eta"
            )
        worker = int(worker)
        with get_tracer().span("worker_step"):
            _, loss = self.fed.gradient(
                worker, self.x[worker], out=self._grads[worker]
            )
            self._local_update(worker)
        loss = float(loss)
        if np.isfinite(loss):
            self._loss_sum += loss
            self._loss_count += 1
        return loss

    def round_complete(self, round_index: int, time: float) -> None:
        """Barrier notification: every group finished ``round_index``."""
        if self._records_gammas:
            self.history.record_gammas(
                self._gamma_pending.pop(round_index, {})
            )
        t = min(round_index * self.tau, self._total_iterations)
        if t % self._eval_every == 0 or t == self._total_iterations:
            train = (
                self._loss_sum / self._loss_count
                if self._loss_count
                else float("nan")
            )
            self._loss_sum = 0.0
            self._loss_count = 0
            self._evaluate(t, train, sim_time=float(time))
        # Round barriers are the async analogue of the lockstep rebind
        # point: every group has aggregated and redistributed, so slot
        # adoption sees broadcast-coherent rows.  Runs before the
        # engine's checkpoint hook for the same snapshot-after-rebind
        # guarantee the lockstep driver gives.
        population = self.population
        if (
            population is not None
            and t % population.resample_every == 0
            and t < self._total_iterations
        ):
            population.resample(
                self, t // population.resample_every, iteration=t
            )

    def monitor_round_data(self, group: int, round_index: int) -> dict:
        """Algorithm payload for the engine's ``edge_round`` events."""
        if not self._records_gammas:
            return {}
        gamma = self._gamma_pending.get(round_index, {}).get(group)
        if gamma is None:
            return {}
        return {"gammas": {str(group): float(gamma)}}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        super()._setup()
        # Last model each worker *received* — the evaluation view.  The
        # live ``x`` rows of mid-interval workers are private state no
        # deployment could actually read.
        self._eval_x = self.x.copy()
        self._stale_store: dict[int, tuple] = {}
        self._gamma_pending: dict[int, dict[int, float]] = {}
        self._loss_sum = 0.0
        self._loss_count = 0

    def _global_params(self) -> np.ndarray:
        return self.fed.global_average_workers(self._eval_x)

    def _wan_upload(self, label: str, matrix: np.ndarray) -> np.ndarray:
        # Staleness travels through the engine's message buffers, so the
        # cloud barrier reads the edge state as it stands.
        return matrix

    def _eval_grid(self, eval_every: int) -> int:
        # Evaluations only happen at round barriers.
        return int(math.ceil(eval_every / self.tau)) * self.tau

    # ------------------------------------------------------------------
    # Checkpoint protocol (engine-side state rides along with the
    # algorithm's declared CKPT_ARRAYS/CKPT_VALUES)
    # ------------------------------------------------------------------
    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(super().checkpoint_arrays())
        arrays["async:eval_x"] = self._eval_x
        for worker, snap in self._stale_store.items():
            parts = snap if isinstance(snap, tuple) else (snap,)
            for slot, part in enumerate(parts):
                arrays[f"async:stale:{worker}:{slot}"] = part
        return arrays

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        super().restore_arrays(
            {
                name: array
                for name, array in arrays.items()
                if not name.startswith("async:")
            }
        )
        np.copyto(self._eval_x, arrays["async:eval_x"])
        slots: dict[int, dict[int, np.ndarray]] = {}
        for name, array in arrays.items():
            if not name.startswith("async:stale:"):
                continue
            _, _, worker, slot = name.split(":")
            slots.setdefault(int(worker), {})[int(slot)] = array.copy()
        # Single-slot snapshots are bare arrays (AsyncFedAvg), multi-slot
        # ones tuples (AsyncHierAdMo) — mirroring ``snapshot_stale``.
        self._stale_store = {
            worker: (
                parts[0]
                if len(parts) == 1
                else tuple(parts[i] for i in range(len(parts)))
            )
            for worker, parts in slots.items()
        }

    def checkpoint_values(self) -> dict:
        values = dict(super().checkpoint_values())
        values["async:gamma_pending"] = {
            str(r): {str(g): float(v) for g, v in groups.items()}
            for r, groups in self._gamma_pending.items()
        }
        values["async:loss_sum"] = self._loss_sum
        values["async:loss_count"] = self._loss_count
        return values

    def restore_values(self, values: dict) -> None:
        values = dict(values)
        pending = values.pop("async:gamma_pending")
        self._loss_sum = float(values.pop("async:loss_sum"))
        self._loss_count = int(values.pop("async:loss_count"))
        super().restore_values(values)
        self._gamma_pending = {
            int(r): {int(g): float(v) for g, v in groups.items()}
            for r, groups in pending.items()
        }

    def run(
        self,
        total_iterations: int,
        *,
        eval_every: int | None = None,
        history: TrainingHistory | None = None,
        stop_on_divergence: bool = True,
        checkpoints=None,
        resume_from=None,
    ) -> TrainingHistory:
        """Train for ``total_iterations`` under the event-driven engine.

        Evaluations only happen at round-complete barriers (the only
        points with a coherent global model), so ``eval_every`` is
        rounded up to a multiple of ``tau``.  The same applies to
        ``checkpoints``: snapshots land at the first barrier whose
        nominal iteration the manager's schedule selects.  Resuming from
        a snapshot (``resume_from``) restores the full engine state —
        event queue, in-flight uploads, simulation RNG — and replays the
        remaining events bit-exact with an uninterrupted run.
        """
        history = self._begin_run(
            total_iterations, eval_every, history, resume_from, "event"
        )
        runner = EventLoopRunner(
            self,
            self.deployment,
            tau=self.tau,
            pi=self.pi,
            total_iterations=self._total_iterations,
            faults=self.faults,
            rng=self.sim_rng,
            flat=self.FLAT,
            stop_on_divergence=stop_on_divergence,
        )
        self.runner = runner
        if resume_from is not None:
            runner.load_state_dict(resume_from.driver_state)
        if checkpoints is not None:
            runner.checkpoint_hook = lambda active: self._maybe_checkpoint(
                checkpoints,
                min(active._notified * self.tau, self._total_iterations),
                lambda: {"kind": "event", "state": active.state_dict()},
            )
        try:
            self._open_run(resume_from, sim_time=0.0)
            self.simulation = runner.run(resume=resume_from is not None)
            if stop_on_divergence and runner.diverged_at is not None:
                history.diverged = True
                history.diverged_at = runner.diverged_at
                self._evaluate(
                    runner.diverged_at,
                    runner.diverged_loss,
                    sim_time=runner.last_event_time,
                )
        except MonitorAbort as abort:
            # The runner's finally-clause built ``result`` from the
            # rounds completed before the abort.
            self.simulation = runner.result
            return self._abort_run(
                history, abort, sim_time=runner.last_event_time
            )
        return self._finish_run(history)

    # ------------------------------------------------------------------
    # Run digests
    # ------------------------------------------------------------------
    def _stale_upload_tally(self) -> dict:
        """Summary of the stale uploads recorded at the cloud rounds."""
        cloud = self.simulation.cloud_rounds if self.simulation else []
        workers = sorted(
            {int(w) for record in cloud for w in record.stale_uploads}
        )
        return {
            "uploads": sum(len(r.stale_uploads) for r in cloud),
            "cloud_rounds": len(cloud),
            "rounds_with_stale": sum(
                1 for r in cloud if r.stale_uploads
            ),
            "workers": workers,
        }

    def _finish_run(self, history: TrainingHistory) -> TrainingHistory:
        tally = self._stale_upload_tally()
        tracer = get_tracer()
        if tracer.enabled and tally["uploads"]:
            # Counted before the base class freezes trace_summary.
            tracer.count("eventsim.stale_uploads", tally["uploads"])
        history = super()._finish_run(history)
        if history.fault_summary is not None:
            history.fault_summary["stale_uploads"] = tally
        return history


class AsyncHierAdMo(AsyncExecutionMixin, HierAdMo):
    """Event-driven HierAdMo with stale-momentum correction."""

    name = "AsyncHierAdMo"

    # ------------------------------------------------------------------
    # Per-event numerics
    # ------------------------------------------------------------------
    def snapshot_stale(self, worker: int) -> None:
        self._stale_store[worker] = (
            self.x[worker].copy(),
            self.y[worker].copy(),
        )

    def resync_worker(self, worker: int, group: int) -> None:
        """A late worker downloads the edge's current state and restarts."""
        self.y[worker] = self.edge_y_minus[group]
        self.x[worker] = self.edge_x_plus[group]
        self._eval_x[worker] = self.edge_x_plus[group]
        self.controller.reset_workers([worker])
        self.history.comm.record_worker_edge(1, rounds=0)

    def close_round(
        self,
        group: int,
        round_index: int,
        fresh: tuple[int, ...],
        stale: tuple[tuple[int, int], ...],
        receivers: tuple[int, ...],
        upload_events: int,
        *,
        dark: bool = False,
    ) -> None:
        """Lines 8–15 on whatever arrived at this edge's quorum."""
        fed = self.fed
        recv = np.asarray(receivers, dtype=int)
        with get_tracer().span("edge_agg"):
            if dark or (not fresh and not stale):
                # No aggregate this round: rebroadcast the edge's last
                # state so the barrier's workers restart coherently.
                if recv.size:
                    self.y[recv] = self.edge_y_minus[group]
                    self.x[recv] = self.edge_x_plus[group]
                    self._eval_x[recv] = self.edge_x_plus[group]
                    self.controller.reset_workers(recv)
                events = upload_events + recv.size
                if events:
                    self.history.comm.record_worker_edge(events, rounds=0)
                return
            rows = fed.edge_slices[group]
            full_weights = fed.worker_w_in_edge[group]
            if len(fresh) == rows.stop - rows.start and not stale:
                # Full barrier: the lockstep edge rule over every member.
                gamma_edge = self._edge_rule(
                    group,
                    RoundOutcome(
                        pristine=True,
                        agg_rows=rows,
                        agg_weights=full_weights,
                        receivers=recv,
                    ),
                )
            else:
                fresh_ids = np.asarray(fresh, dtype=int)
                decay = self.staleness_decay
                y_ref = self.edge_y_minus[group]
                blocks_y, blocks_x, blocks_w = [], [], []
                if fresh_ids.size:
                    blocks_y.append(self.y[fresh_ids])
                    blocks_x.append(self.x[fresh_ids])
                    blocks_w.append(full_weights[fresh_ids - rows.start])
                for w_id, s in stale:
                    x_snap, y_snap = self._stale_store.pop(w_id)
                    # Stale-momentum correction: contract the buffered
                    # momentum toward the last distributed aggregate so
                    # an s-rounds-old velocity cannot re-accelerate the
                    # edge momentum at full strength.
                    blocks_y.append(
                        (y_ref + decay**s * (y_snap - y_ref))[None, :]
                    )
                    blocks_x.append(x_snap[None, :])
                    blocks_w.append(
                        np.array(
                            [full_weights[w_id - rows.start] * decay**s]
                        )
                    )
                weights = np.concatenate(blocks_w)
                if fresh_ids.size:
                    # γℓ measures *current* agreement, so only fresh
                    # accumulators enter eq. 6.
                    w_fresh = full_weights[fresh_ids - rows.start]
                    gamma_edge = self._adapt_edge_gamma(
                        group, fresh_ids, w_fresh / w_fresh.sum()
                    )
                    self.controller.reset_workers(fresh_ids)
                else:
                    gamma_edge = self._gamma_state[group]
                self._edge_momentum(
                    group,
                    weights / weights.sum(),
                    np.vstack(blocks_y),
                    np.vstack(blocks_x),
                    gamma_edge,
                    recv,
                )
            self._eval_x[recv] = self.edge_x_plus[group]
            self._gamma_pending.setdefault(round_index, {})[group] = (
                gamma_edge
            )
            self.history.comm.record_worker_edge(upload_events + recv.size)

    def cloud_sync(self, index: int, receivers: tuple[int, ...]) -> None:
        """Lines 17–23 at the cloud barrier: the lockstep cloud rule
        over every edge, pushed to the barrier's receivers."""
        fed = self.fed
        recv = np.asarray(receivers, dtype=int)
        workers = ALL_ROWS if recv.size == fed.num_workers else recv
        with get_tracer().span("cloud_agg"):
            members = self._pristine_round(ALL_ROWS, fed.edge_w)
            self._cloud_rule(members, workers)
            # Every edge row now holds the merged model x̄.
            self._eval_x[workers] = self.edge_x_plus[0]
            self.history.comm.record_edge_cloud(members.events)
            if recv.size:
                self.history.comm.record_worker_edge(recv.size, rounds=0)


class AsyncFedAvg(AsyncExecutionMixin, FedAvg):
    """Event-driven FedAvg: staleness-decayed averaging at the cloud."""

    name = "AsyncFedAvg"

    CKPT_ARRAYS = FedAvg.CKPT_ARRAYS + ("_server_x",)

    def _setup(self) -> None:
        super()._setup()
        # The server's last distributed model (rebroadcast target when a
        # round closes empty, download source for late-worker resyncs).
        self._server_x = self.fed.initial_params()

    # ------------------------------------------------------------------
    # Per-event numerics
    # ------------------------------------------------------------------
    def snapshot_stale(self, worker: int) -> None:
        self._stale_store[worker] = self.x[worker].copy()

    def resync_worker(self, worker: int, group: int) -> None:
        self.x[worker] = self._server_x
        self._eval_x[worker] = self._server_x
        self.history.comm.record_edge_cloud(1, rounds=0)

    def close_round(
        self,
        group: int,
        round_index: int,
        fresh: tuple[int, ...],
        stale: tuple[tuple[int, int], ...],
        receivers: tuple[int, ...],
        upload_events: int,
        *,
        dark: bool = False,
    ) -> None:
        fed = self.fed
        recv = np.asarray(receivers, dtype=int)
        with get_tracer().span("cloud_agg"):
            if dark or (not fresh and not stale):
                if recv.size:
                    self.x[recv] = self._server_x
                    self._eval_x[recv] = self._server_x
                events = upload_events + recv.size
                if events:
                    self.history.comm.record_edge_cloud(events, rounds=0)
                return
            if len(fresh) == fed.num_workers and not stale:
                # Full barrier: the lockstep round average.
                x_bar = self._average(
                    self.x, self._pristine_round(ALL_ROWS, fed.global_worker_w)
                )
            else:
                fresh_ids = np.asarray(fresh, dtype=int)
                decay = self.staleness_decay
                blocks_x, blocks_w = [], []
                if fresh_ids.size:
                    blocks_x.append(self.x[fresh_ids])
                    blocks_w.append(fed.global_worker_w[fresh_ids])
                for w_id, s in stale:
                    blocks_x.append(self._stale_store.pop(w_id)[None, :])
                    blocks_w.append(
                        np.array([fed.global_worker_w[w_id] * decay**s])
                    )
                x_rows = np.vstack(blocks_x)
                weights = np.concatenate(blocks_w)
                x_bar = (weights / weights.sum()) @ x_rows
            self._server_x = x_bar
            if recv.size:
                self.x[recv] = x_bar
                self._eval_x[recv] = x_bar
            self.history.comm.record_edge_cloud(upload_events + recv.size)

    def cloud_sync(self, index: int, receivers: tuple[int, ...]) -> None:
        raise RuntimeError(
            "flat deployments aggregate at round closure; there is no "
            "separate cloud barrier"
        )
