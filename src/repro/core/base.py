"""Base class shared by every federated-learning algorithm.

:meth:`FLAlgorithm._step` is the one lockstep round schedule (Algorithm 1's
worker→edge→cloud loop): every iteration each up worker takes a local
step; every ``tau`` iterations each edge aggregates its workers
(three-tier algorithms only); every ``tau·pi`` iterations the cloud
aggregates.  The template resolves each round's membership under the
fault plan, bills the communication ledger, pushes the cloud model down
and emits the monitor's round events, so subclasses declare only their
update rules:

* ``_setup()`` — allocate per-worker / per-edge / server state (the
  stacked worker models ``x`` and the gradient scratch ``_grads``),
* ``_local_update(rows)`` — one local step of the workers ``rows``
  (:data:`ALL_ROWS` when every worker is up) from ``_grads[rows]``,
* ``_edge_rule(edge, members)`` — one edge's aggregation (three-tier),
* ``_cloud_rule(members, workers)`` — one cloud aggregation,
* ``_global_params()`` — the model evaluated on the test set (defaults
  to the data-weighted average of the worker models).

``members`` is a :class:`~repro.faults.RoundOutcome` whose row selectors
index the stacked matrices directly: a pristine round carries the
candidate slice itself, so no-fault numerics are the literal paper
expressions, and a degraded round carries index arrays.

``run`` drives the iteration loop, the evaluation schedule and history
recording so individual algorithms stay close to their paper pseudocode.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.federation import Federation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RoundOutcome,
    check_policy,
    degrade_round,
)
from repro.metrics.history import TrainingHistory
from repro.monitoring.events import (
    CHECKPOINT_RESTORED,
    CLOUD_ROUND,
    EDGE_ROUND,
)
from repro.monitoring.health import MonitorAbort
from repro.monitoring.monitor import get_monitor
from repro.telemetry import get_tracer
from repro.utils.memory import peak_rss_bytes
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["FLAlgorithm", "ALL_ROWS", "put_rows"]

# Row selector for "every row": a basic slice, so indexing with it gives
# views and in-place updates never copy the stacked matrix.
ALL_ROWS = slice(None)


def put_rows(matrix: np.ndarray, rows, value: np.ndarray) -> np.ndarray:
    """``matrix[rows] = value``; returns the matrix to keep.

    For :data:`ALL_ROWS` the freshly computed ``value`` itself is
    returned, so an all-up local step rebinds its state instead of
    copying a full ``(num_workers, dim)`` matrix into it.
    """
    if rows is ALL_ROWS:
        return value
    matrix[rows] = value
    return matrix


class FLAlgorithm:
    """Abstract federated-learning algorithm."""

    name = "base"

    # Wire payload per transfer, in model-vector units: 1.0 for plain
    # model shippers, 2.0 for algorithms that move model *and* momentum
    # (or another server statistic) on every exchange.  Feeds both the
    # run's communication ledger and the Fig. 2 timing replay.
    payload_multiplier = 1.0

    # Two-tier algorithms set True: workers sit directly under the
    # cloud, whose round (every ``tau·pi`` = ``tau`` iterations) is the
    # only aggregation tier.
    FLAT = False
    # Edge rounds per cloud round; three-tier algorithms set their own.
    pi = 1
    # Whether a cloud round pushes the merged model down to the up
    # workers of the receiving edges (CFL leaves it at the edges).
    cloud_push_down = True
    # Whether edge rounds record a γℓ per aggregated edge.
    _records_gammas = False

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        eta_schedule=None,
    ):
        self.fed = federation
        self.eta = check_positive(eta, "eta")
        # Optional callable t -> learning rate (0-indexed iteration);
        # applied before every _step so every algorithm supports decayed
        # or warmed-up learning rates without per-algorithm code.
        self.eta_schedule = eta_schedule
        # Fault injection (off by default): an attached injector feeds
        # the per-iteration availability mask consulted by the worker
        # loops and aggregations; ``None`` mask = everyone up.
        self.faults: FaultInjector | None = None
        self.degradation = "renormalize"
        self._up_mask: np.ndarray | None = None
        # Virtual-population binder (off by default): when attached,
        # the run driver rebinds the materialized cohort at every
        # resample boundary (see repro.population.binder).
        self.population = None
        # Index into the active monitor's alert list at run start, so
        # only this run's alerts land on its history.
        self._alert_mark = 0

    def attach_faults(
        self,
        plan: FaultPlan | FaultInjector,
        *,
        policy: str = "renormalize",
    ) -> FaultInjector:
        """Attach a fault plan (or prebuilt injector) to this run.

        ``policy`` selects the degradation behaviour on absences (see
        :data:`repro.faults.DEGRADATION_POLICIES`).  Returns the
        injector so callers can read its realized-event summary.
        """
        if isinstance(plan, FaultInjector):
            self.faults = plan
        else:
            self.faults = FaultInjector(
                plan,
                num_workers=self.fed.num_workers,
                num_edges=self.fed.num_edges,
            )
        self.degradation = check_policy(policy)
        return self.faults

    def attach_population(self, binder):
        """Attach a virtual-population binder to this run.

        The binder must own this algorithm's federation (its slot pool
        maps into the same stacked buffers).  ``resample_every``
        defaults to the algorithm's round length ``tau`` so cohorts
        change exactly at aggregation boundaries, where worker rows are
        broadcast-equal and slot adoption is well-defined.
        """
        if binder.fed is not self.fed:
            raise ValueError(
                "population binder was built for a different federation"
            )
        if binder.resample_every is None:
            binder.resample_every = int(getattr(self, "tau", 1))
        self.population = binder
        return binder

    def _iteration_rows(self) -> np.ndarray | None:
        """Up-worker indices this iteration (``None`` = all workers)."""
        mask = self._up_mask
        return None if mask is None else np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    # Names of the numpy matrices / JSON-able scalars that fully define
    # this algorithm's training state between iterations.  Dotted names
    # reach into sub-objects (e.g. "controller.grad_sums").  Scratch
    # buffers recomputed every step (like ``_grads``) are excluded.
    CKPT_ARRAYS: tuple[str, ...] = ()
    CKPT_VALUES: tuple[str, ...] = ()
    # Per-client persistent state: the (num_workers, dim) arrays whose
    # rows belong to the *client* bound to a slot, not to the slot
    # itself (momentum/optimizer buffers).  The population binder
    # carries these rows for evicted clients and restores them
    # bit-exactly on return.  The model row ``x`` is excluded by
    # design: rejoining clients adopt the current broadcast model.
    CLIENT_STATE: tuple[str, ...] = ()

    def _ckpt_resolve(self, name: str):
        obj = self
        *head, leaf = name.split(".")
        for part in head:
            obj = getattr(obj, part)
        return obj, leaf

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot every declared state array (by reference)."""
        arrays: dict[str, np.ndarray] = {}
        for name in self.CKPT_ARRAYS:
            obj, leaf = self._ckpt_resolve(name)
            arrays[name] = getattr(obj, leaf)
        return arrays

    def checkpoint_values(self) -> dict:
        """Snapshot every declared JSON-able state value."""
        values: dict = {}
        for name in self.CKPT_VALUES:
            obj, leaf = self._ckpt_resolve(name)
            values[name] = getattr(obj, leaf)
        return values

    def checkpoint_extra(self) -> dict:
        """Per-class extras (RNG streams, engine state); JSON-able."""
        return {}

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy a snapshot back over freshly ``_setup()``-allocated state."""
        for name in self.CKPT_ARRAYS:
            obj, leaf = self._ckpt_resolve(name)
            np.copyto(getattr(obj, leaf), arrays[name])

    def restore_values(self, values: dict) -> None:
        for name in self.CKPT_VALUES:
            obj, leaf = self._ckpt_resolve(name)
            setattr(obj, leaf, values[name])

    def restore_extra(self, extra: dict) -> None:
        pass

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        """Allocate the stacked worker models ``x`` (every row x⁰) and
        the gradient scratch ``_grads``; subclasses extend."""
        self.x = self.fed.initial_worker_matrix()
        self._grads = np.empty_like(self.x)

    def _local_update(self, rows) -> None:
        raise NotImplementedError

    def _edge_rule(self, edge: int, members: RoundOutcome):
        """One edge's aggregation; returns γℓ if ``_records_gammas``."""
        raise NotImplementedError

    def _cloud_rule(self, members: RoundOutcome, workers) -> None:
        """One cloud aggregation.

        ``workers`` selects the worker rows the merged model is pushed
        down to: the round's receivers for two-tier algorithms, the up
        workers of the receiving edges otherwise (``None`` when
        ``cloud_push_down`` is off).
        """
        raise NotImplementedError

    def _global_params(self) -> np.ndarray:
        """Data-weighted average of the current worker models."""
        return self.fed.global_average_workers(self.x)

    @staticmethod
    def _average(matrix: np.ndarray, members: RoundOutcome) -> np.ndarray:
        """Weighted average of ``matrix`` over the round's members."""
        return members.agg_weights @ matrix[members.agg_rows]

    def _wan_upload(self, label: str, matrix: np.ndarray) -> np.ndarray:
        """The edge-state ``matrix`` as it arrives at the cloud.

        Message staleness replaces some edges' rows with older uploads
        (:meth:`FaultInjector.stale_substitute`); without an active
        fault plan this is ``matrix`` itself.
        """
        if self.faults is None:
            return matrix
        return self.faults.stale_substitute(label, matrix)

    def config(self) -> dict:
        """Hyper-parameters recorded into the history."""
        return {"eta": self.eta}

    # ------------------------------------------------------------------
    # Lockstep round schedule
    # ------------------------------------------------------------------
    def _step(self, t: int) -> float:
        """Iteration ``t``: local steps, then the rounds due at ``t``.

        Returns the mean training batch loss of the up workers.
        """
        tracer = get_tracer()
        with tracer.span("worker_step"):
            rows = self._iteration_rows()
            losses = self.fed.gradient_all(self.x, rows=rows, out=self._grads)
            self._local_update(ALL_ROWS if rows is None else rows)
        if not self.FLAT and t % self.tau == 0:
            with tracer.span("edge_agg"):
                self._edge_round(t)
        if t % (self.tau * self.pi) == 0:
            with tracer.span("cloud_agg"):
                self._cloud_round(t)
        return float(losses.mean())

    @staticmethod
    def _pristine_round(candidates, weights: np.ndarray) -> RoundOutcome:
        """Every candidate aggregates and receives: one upload and one
        download each."""
        return RoundOutcome(
            pristine=True,
            agg_rows=candidates,
            agg_weights=weights,
            present=candidates,
            receivers=candidates,
            events=2 * len(weights),
        )

    def _resolve_round(
        self, candidates, weights: np.ndarray, up: np.ndarray | None
    ) -> RoundOutcome | None:
        """One round's membership over ``candidates`` (``None`` = skipped).

        :func:`~repro.faults.degrade_round` resolves the round; its
        candidate-relative rows are translated into selectors of the
        stacked matrices ``candidates`` indexes.
        """
        outcome = degrade_round(self.faults, self.degradation, weights, up)
        if outcome.skip:
            return None
        if outcome.pristine:
            return self._pristine_round(candidates, weights)
        if isinstance(candidates, slice):
            index = np.arange(len(weights)) + (candidates.start or 0)
        else:
            index = np.asarray(candidates)
        return replace(
            outcome,
            agg_rows=index[outcome.agg_rows],
            present=index[outcome.present],
            receivers=index[outcome.receivers],
        )

    def _edge_round(self, t: int) -> None:
        """Every edge's aggregation at ``t`` through ``_edge_rule``."""
        fed = self.fed
        faults = self.faults
        edge_up = None if faults is None else faults.edge_mask(t // self.tau)
        up_mask = self._up_mask
        gammas: dict[int, float] = {}
        transfers = 0
        aggregated = 0
        for edge, rows in enumerate(fed.edge_slices):
            if edge_up is not None and not edge_up[edge]:
                # Dark edge: no aggregation, no traffic; its workers keep
                # training on local state until the edge comes back.
                faults.note_round("skipped")
                continue
            members = self._resolve_round(
                rows,
                fed.worker_w_in_edge[edge],
                None if up_mask is None else up_mask[rows],
            )
            if members is None:
                continue
            gamma = self._edge_rule(edge, members)
            if self._records_gammas:
                gammas[edge] = gamma
            transfers += members.events
            aggregated += 1
        if transfers:
            self.history.comm.record_worker_edge(transfers)
        if self._records_gammas:
            self.history.record_gammas(gammas)
        monitor = get_monitor()
        if aggregated and monitor.enabled:
            data = {"edges": aggregated}
            if self._records_gammas:
                data["gammas"] = {str(k): v for k, v in gammas.items()}
            monitor.emit(EDGE_ROUND, iteration=t, tier="edge", **data)

    def _round_candidates(self) -> tuple:
        """Two-tier round candidates: (worker selector, weights)."""
        return ALL_ROWS, self.fed.global_worker_w

    def _cloud_round(self, t: int) -> None:
        """The cloud aggregation at ``t`` through ``_cloud_rule``."""
        fed = self.fed
        comm = self.history.comm
        if self.FLAT:
            # Workers talk to the cloud directly: one WAN upload and one
            # download per participating worker.
            candidates, weights = self._round_candidates()
            up = self._up_mask
            members = self._resolve_round(
                candidates, weights, None if up is None else up[candidates]
            )
            if members is None:
                return
            self._cloud_rule(members, members.receivers)
            comm.record_edge_cloud(members.events)
            tier_count = {"participants": len(members.agg_weights)}
        else:
            faults = self.faults
            edge_up = (
                None if faults is None else faults.edge_mask(t // self.tau)
            )
            members = self._resolve_round(ALL_ROWS, fed.edge_w, edge_up)
            if members is None:
                return
            comm.record_edge_cloud(members.events)
            workers = None
            if self.cloud_push_down:
                workers, reached = self._workers_under(members.receivers)
                # The push down to the workers is LAN traffic, but not
                # an edge round.
                if reached:
                    comm.record_worker_edge(reached, rounds=0)
            self._cloud_rule(members, workers)
            tier_count = {"edges": len(members.agg_weights)}
        monitor = get_monitor()
        if monitor.enabled:
            monitor.emit(
                CLOUD_ROUND,
                iteration=t,
                tier="cloud",
                transfers=int(members.events),
                **tier_count,
            )

    def _workers_under(self, edges) -> tuple:
        """(selector, count) of the up workers under ``edges``."""
        fed = self.fed
        up = self._up_mask
        if edges is ALL_ROWS:
            if up is None:
                return ALL_ROWS, fed.num_workers
            workers = np.flatnonzero(up)
        else:
            selected = np.zeros(fed.num_workers, dtype=bool)
            for edge in edges:
                selected[fed.edge_slices[edge]] = True
            if up is not None:
                selected &= up
            workers = np.flatnonzero(selected)
        return workers, workers.size

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _emit_run_start(self, total_iterations: int, eval_every: int) -> None:
        monitor = get_monitor()
        if not monitor.enabled:
            return
        self._alert_mark = len(monitor.alerts)
        monitor.emit(
            "run_start",
            algorithm=self.name,
            total_iterations=int(total_iterations),
            eval_every=int(eval_every),
            workers=self.fed.num_workers,
            edges=self.fed.num_edges,
            dim=self.fed.dim,
        )

    def _open_run(self, resume_from, sim_time: float | None = None) -> None:
        """The run's first stream point: the iteration-0 evaluation of a
        fresh run (no training loss yet), or the restore of a resumed
        one."""
        if resume_from is None:
            self._evaluate(0, float("nan"), sim_time)
            return
        monitor = get_monitor()
        if monitor.enabled:
            monitor.emit(
                CHECKPOINT_RESTORED,
                iteration=resume_from.iteration,
                path=str(resume_from.path),
            )

    def _abort_run(
        self,
        history: TrainingHistory,
        abort: MonitorAbort,
        sim_time: float | None = None,
    ) -> TrainingHistory:
        """Clean end-of-run path when a monitor raised :class:`MonitorAbort`.

        Records one final evaluation point (unless the abort fired on an
        eval event already recorded at that iteration) so the history
        ends at the abort, then finishes normally.
        """
        history.aborted_by = abort.alert.monitor
        iteration = abort.alert.iteration
        if not history.iterations or history.iterations[-1] != iteration:
            accuracy, loss = self.fed.evaluate(self._global_params())
            history.record_eval(
                iteration, accuracy, loss, train_loss=float("nan")
            )
            if sim_time is not None:
                history.eval_times.append(sim_time)
        return self._finish_run(history)

    def _evaluate(
        self, iteration: int, train_loss: float, sim_time: float | None = None
    ) -> None:
        """Evaluate the global model; record the point and stream it.

        The monitor only reads state (losses already computed, ledger
        counters), so monitored and unmonitored runs stay bit-exact.
        May raise :class:`MonitorAbort` when an aborting health monitor
        fires.
        """
        accuracy, loss = self.fed.evaluate(self._global_params())
        history = self.history
        history.record_eval(iteration, accuracy, loss, train_loss=train_loss)
        if sim_time is not None:
            history.eval_times.append(sim_time)
        monitor = get_monitor()
        if not monitor.enabled:
            return
        comm = history.comm
        data = {
            "accuracy": float(accuracy),
            "test_loss": float(loss),
            "train_loss": float(train_loss),
            "worker_edge_bytes": comm.worker_edge_bytes,
            "edge_cloud_bytes": comm.edge_cloud_bytes,
            "total_bytes": comm.total_bytes,
            "peak_rss_bytes": peak_rss_bytes(),
        }
        if self.faults is not None:
            data["fault_events"] = int(sum(self.faults.counts.values()))
        monitor.emit("eval", iteration=iteration, sim_time=sim_time, **data)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _eval_grid(self, eval_every: int) -> int:
        """The evaluation period the driver can honour."""
        return eval_every

    def _begin_run(
        self,
        total_iterations: int,
        eval_every: int | None,
        history: TrainingHistory | None,
        resume_from,
        driver_kind: str,
    ) -> TrainingHistory:
        """Run preamble shared by the lockstep and event drivers.

        Validates the schedule, sets up the history, fault injector,
        algorithm state and population, applies ``resume_from`` and
        announces the run to the monitor.
        """
        total_iterations = check_positive_int(
            total_iterations, "total_iterations"
        )
        if eval_every is None:
            eval_every = max(1, total_iterations // 10)
        eval_every = self._eval_grid(
            check_positive_int(eval_every, "eval_every")
        )
        self._total_iterations = total_iterations
        self._eval_every = eval_every

        if resume_from is not None:
            if resume_from.driver_kind != driver_kind:
                raise ValueError(
                    f"checkpoint was written by the "
                    f"{resume_from.driver_kind!r} driver, not the "
                    f"{driver_kind!r} driver"
                )
            history = resume_from.build_history()
        if history is None:
            history = self.fed.new_history(self.name, self.config())
        self.history = history
        history.comm.configure(
            dim=self.fed.dim, payload_multiplier=self.payload_multiplier
        )

        if self.faults is not None:
            self.faults.reset()
        self._up_mask = None

        self._setup()
        if self.population is not None:
            self.population.reset(self)
        if resume_from is not None:
            resume_from.apply(self)
        self._emit_run_start(total_iterations, eval_every)
        self._alerts_seen = self._alert_mark
        return history

    def _maybe_checkpoint(self, checkpoints, t: int, driver) -> None:
        """Save a snapshot at ``t`` if the schedule or a fresh alert asks.

        ``driver`` builds the driver-state section (called only when a
        snapshot is actually written).
        """
        monitor = get_monitor()
        alerts_now = len(monitor.alerts) if monitor.enabled else 0
        periodic = checkpoints.should_save(t)
        if not periodic and alerts_now <= self._alerts_seen:
            return
        checkpoints.save(
            self,
            iteration=t,
            driver=driver(),
            total_iterations=self._total_iterations,
            eval_every=self._eval_every,
            reason="periodic" if periodic else "alert",
        )
        self._alerts_seen = alerts_now

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
        """Train for ``total_iterations`` local iterations (the paper's T).

        ``eval_every`` defaults to ten evaluations per run.  The final
        iteration is always evaluated.

        With ``stop_on_divergence`` (default), a non-finite training
        loss ends the run early and marks ``history.diverged`` instead
        of silently training on NaNs for the remaining iterations.

        ``checkpoints`` takes a
        :class:`~repro.checkpoint.CheckpointManager`: the driver saves a
        durable snapshot after each iteration the manager's schedule
        selects, and additionally whenever a health monitor raised a
        fresh alert.  ``resume_from`` takes a
        :class:`~repro.checkpoint.RestoredRun`; the run then continues
        from the snapshot's next iteration, bit-exact with an
        uninterrupted run (the ``history`` argument is ignored in favor
        of the checkpointed one).
        """
        history = self._begin_run(
            total_iterations, eval_every, history, resume_from, "lockstep"
        )
        total_iterations = self._total_iterations
        eval_every = self._eval_every
        faults = self.faults
        population = self.population

        start_iteration = 1
        running_loss = 0.0
        since_eval = 0
        if resume_from is not None:
            state = resume_from.driver_state
            start_iteration = int(state["iteration"]) + 1
            running_loss = float(state["running_loss"])
            since_eval = int(state["since_eval"])

        try:
            self._open_run(resume_from)
            for t in range(start_iteration, total_iterations + 1):
                if faults is not None:
                    faults.maybe_crash(t)
                if self.eta_schedule is not None:
                    self.eta = check_positive(
                        self.eta_schedule(t - 1), "scheduled eta"
                    )
                if faults is not None:
                    self._up_mask = faults.worker_mask(t)
                step_loss = self._step(t)
                if stop_on_divergence and not np.isfinite(step_loss):
                    history.diverged = True
                    history.diverged_at = t
                    self._evaluate(t, step_loss)
                    return self._finish_run(history)
                running_loss += step_loss
                since_eval += 1
                if t % eval_every == 0 or t == total_iterations:
                    self._evaluate(t, running_loss / since_eval)
                    running_loss = 0.0
                    since_eval = 0
                # Cohort rebinding runs before the checkpoint block so
                # a snapshot at t always captures the post-rebind slot
                # pool and resume never misses a membership change.
                if (
                    population is not None
                    and t % population.resample_every == 0
                    and t < total_iterations
                ):
                    population.resample(
                        self, t // population.resample_every, iteration=t
                    )
                if checkpoints is not None:
                    self._maybe_checkpoint(
                        checkpoints,
                        t,
                        lambda: {
                            "kind": "lockstep",
                            "state": {
                                "iteration": t,
                                "running_loss": running_loss,
                                "since_eval": since_eval,
                            },
                        },
                    )
        except MonitorAbort as abort:
            return self._abort_run(history, abort)
        return self._finish_run(history)

    def _finish_run(self, history: TrainingHistory) -> TrainingHistory:
        """Attach tracer/fault/monitor digests when the run recorded them."""
        tracer = get_tracer()
        if tracer.enabled:
            history.trace_summary = tracer.summary()
        if self.faults is not None:
            history.fault_summary = self.faults.summary()
        monitor = get_monitor()
        if monitor.enabled:
            history.alerts.extend(
                alert.to_dict() for alert in monitor.alerts[self._alert_mark:]
            )
            if history.aborted_by:
                status = "aborted"
            elif history.diverged:
                status = "diverged"
            else:
                status = "finished"
            monitor.emit(
                "run_end",
                iteration=history.iterations[-1] if history.iterations else 0,
                status=status,
                aborted_by=history.aborted_by,
                final_accuracy=(
                    history.test_accuracy[-1] if history.test_accuracy else None
                ),
                total_bytes=history.comm.total_bytes,
                alerts=len(history.alerts),
            )
        return history
