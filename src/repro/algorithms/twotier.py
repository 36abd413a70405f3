"""Two-tier baseline algorithms (workers directly under the cloud).

These are the paper's categories ③ (two-tier momentum FL) and ④ (FedAvg).
All of them ignore the edge level of the federation: aggregation runs over
*all* workers with global data weights every ``tau`` iterations.  For the
paper's fair comparison, callers set this ``tau`` equal to the three-tier
algorithms' ``τ·π``.

Update rules implemented (one class per published algorithm):

* :class:`FedAvg`       — local SGD + periodic model averaging [4].
* :class:`FedNAG`       — local Nesterov momentum; model *and* momentum
  are averaged and redistributed at each round [21].
* :class:`FedMom`       — server Polyak momentum over the round
  pseudo-gradient [19].
* :class:`SlowMo`       — local SGD + server "slow momentum" with slow
  learning rate α [20].
* :class:`Mime`         — workers apply the *server's* momentum statistic
  in every local step; the server refreshes the statistic with the
  average gradient at the aggregated model (MimeLite-style) [22].
* :class:`FedADC`       — drift control: workers seed their local momentum
  buffer from the server's accumulated momentum each round [24].
* :class:`FastSlowMo`   — combined worker NAG (fast) + server slow
  momentum [23].
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FLAlgorithm, put_rows
from repro.core.federation import Federation
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "TwoTierAlgorithm",
    "FedAvg",
    "FedNAG",
    "FedMom",
    "SlowMo",
    "Mime",
    "FedADC",
    "FastSlowMo",
]


class TwoTierAlgorithm(FLAlgorithm):
    """Shared plumbing: stacked (num_workers, dim) models + global averaging."""

    FLAT = True
    # Checkpoint state: the stacked worker models; subclasses extend
    # with their momentum buffers / server vectors.
    CKPT_ARRAYS = ("x",)

    def __init__(self, federation: Federation, *, eta: float = 0.01, tau: int = 20):
        super().__init__(federation, eta=eta)
        self.tau = check_positive_int(tau, "tau")

    def config(self) -> dict:
        return {"eta": self.eta, "tau": self.tau}

    def _local_update(self, rows) -> None:
        """One plain SGD step on the workers ``rows``."""
        self.x[rows] -= self.eta * self._grads[rows]


class FedAvg(TwoTierAlgorithm):
    """McMahan et al.: local SGD, average the models every τ iterations."""

    name = "FedAvg"

    def _cloud_rule(self, members, workers) -> None:
        self.x[workers] = self._average(self.x, members)


class FedNAG(TwoTierAlgorithm):
    """Yang et al. TPDS'22: local NAG; aggregate model and momentum.

    This is exactly the two-tier special case HierAdMo's Theorem 1 reduces
    to, so it doubles as an analytical cross-check in the tests.
    """

    name = "FedNAG"
    payload_multiplier = 2.0  # ships model + momentum each round
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("y",)
    # The NAG momentum row follows the client across cohort evictions.
    CLIENT_STATE = ("y",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        gamma: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.gamma = check_fraction(gamma, "gamma")

    def config(self) -> dict:
        return {**super().config(), "gamma": self.gamma}

    def _setup(self) -> None:
        super()._setup()
        self.y = self.x.copy()

    def _local_update(self, rows) -> None:
        """One local NAG step on the workers ``rows``."""
        y_new = self.x[rows] - self.eta * self._grads[rows]
        self.x = put_rows(
            self.x, rows, y_new + self.gamma * (y_new - self.y[rows])
        )
        self.y = put_rows(self.y, rows, y_new)

    def _cloud_rule(self, members, workers) -> None:
        self.x[workers] = self._average(self.x, members)
        self.y[workers] = self._average(self.y, members)


class FedMom(TwoTierAlgorithm):
    """Huo et al.: server-side Polyak momentum on the round pseudo-gradient.

    Per round: Δ = w_prev − mean(worker models); m ← β·m + Δ;
    w ← w_prev − m.  β=0 reduces to FedAvg (unit-tested).
    """

    name = "FedMom"
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "server_momentum",
    )

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.server_momentum = np.zeros(self.fed.dim)

    def _cloud_rule(self, members, workers) -> None:
        delta = self.server_params - self._average(self.x, members)
        self.server_momentum = self.beta * self.server_momentum + delta
        self.server_params = self.server_params - self.server_momentum
        self.x[workers] = self.server_params

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()


class SlowMo(TwoTierAlgorithm):
    """Wang et al. ICLR'20: slow momentum over rounds.

    Per round: d = (w_prev − mean(models)) / η  (pseudo-gradient);
    u ← β·u + d; w ← w_prev − α·η·u.  α=1, β=0 reduces to FedAvg.
    """

    name = "SlowMo"
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "slow_momentum",
    )

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
        alpha: float = 1.0,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")
        self.alpha = check_positive(alpha, "alpha")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta, "alpha": self.alpha}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.slow_momentum = np.zeros(self.fed.dim)

    def _cloud_rule(self, members, workers) -> None:
        pseudo_grad = (
            self.server_params - self._average(self.x, members)
        ) / self.eta
        self.slow_momentum = self.beta * self.slow_momentum + pseudo_grad
        self.server_params = (
            self.server_params - self.alpha * self.eta * self.slow_momentum
        )
        self.x[workers] = self.server_params

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()


class Mime(TwoTierAlgorithm):
    """Karimireddy et al.: mimic centralized SGD-with-momentum.

    The server momentum statistic ``s`` is *frozen during local steps*:
    every worker update is ``x ← x − η((1−β)·g + β·s)``.  At each round
    the server refreshes ``s ← (1−β)·ḡ + β·s`` with the average worker
    gradient evaluated at the aggregated model (MimeLite's approximation).
    """

    name = "Mime"
    # Broadcasts the server statistic alongside the model; the round's
    # extra gradient exchange is folded into the same multiplier.
    payload_multiplier = 2.0
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("server_state",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_state = np.zeros(self.fed.dim)

    def _local_update(self, rows) -> None:
        self.x[rows] -= self.eta * (
            (1.0 - self.beta) * self._grads[rows]
            + self.beta * self.server_state
        )

    def _cloud_rule(self, members, workers) -> None:
        grads = self._grads
        x_bar = self._average(self.x, members)
        shared = np.broadcast_to(x_bar, grads.shape)
        if members.pristine:
            self.fed.gradient_all(shared, out=grads)
            mean_grad = self.fed.global_average_workers(grads)
        else:
            # Only the reachable workers can evaluate a fresh gradient
            # at the aggregate for the refresh.
            present = members.present
            self.fed.gradient_all(shared, rows=present, out=grads)
            w = self.fed.global_worker_w[present]
            mean_grad = (w / w.sum()) @ grads[present]
        self.server_state = (
            (1.0 - self.beta) * mean_grad + self.beta * self.server_state
        )
        self.x[workers] = x_bar


class FedADC(TwoTierAlgorithm):
    """Ozfatura et al. ISIT'21: accelerated FL with drift control.

    The server keeps a momentum over round pseudo-gradients; each round it
    broadcasts the momentum and workers *seed their local momentum buffer*
    with it, so local updates start aligned with the global direction
    (the drift-control mechanism).  Locally workers run Polyak-momentum
    SGD on that buffer.
    """

    name = "FedADC"
    # Broadcasts the server momentum alongside the model each round.
    payload_multiplier = 2.0
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "server_momentum",
        "local_momentum",
    )
    # The drift-control buffer is per-client state across cohorts.
    CLIENT_STATE = ("local_momentum",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.server_momentum = np.zeros(self.fed.dim)
        self.local_momentum = np.zeros((self.fed.num_workers, self.fed.dim))

    def _local_update(self, rows) -> None:
        self.local_momentum = put_rows(
            self.local_momentum,
            rows,
            self.beta * self.local_momentum[rows] + self._grads[rows],
        )
        self.x[rows] -= self.eta * self.local_momentum[rows]

    def _cloud_rule(self, members, workers) -> None:
        avg = self._average(self.x, members)
        pseudo_grad = (self.server_params - avg) / (self.eta * self.tau)
        self.server_momentum = (
            self.beta * self.server_momentum
            + (1.0 - self.beta) * pseudo_grad
        )
        self.server_params = avg
        self.x[workers] = self.server_params
        self.local_momentum[workers] = self.server_momentum


class FastSlowMo(FedNAG):
    """Yang et al. TAI'22: combined worker (fast) and server (slow) momenta.

    Workers run NAG locally (as FedNAG); every round the server aggregates
    model and momentum, then applies a SlowMo-style slow-momentum step to
    the aggregated model before redistribution.
    """

    name = "FastSlowMo"
    CKPT_ARRAYS = FedNAG.CKPT_ARRAYS + ("server_params", "slow_momentum")

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        gamma: float = 0.5,
        beta: float = 0.5,
        alpha: float = 1.0,
    ):
        super().__init__(federation, eta=eta, tau=tau, gamma=gamma)
        self.beta = check_fraction(beta, "beta")
        self.alpha = check_positive(alpha, "alpha")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta, "alpha": self.alpha}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.slow_momentum = np.zeros(self.fed.dim)

    def _cloud_rule(self, members, workers) -> None:
        x_bar = self._average(self.x, members)
        y_bar = self._average(self.y, members)
        pseudo_grad = (self.server_params - x_bar) / self.eta
        self.slow_momentum = self.beta * self.slow_momentum + pseudo_grad
        self.server_params = (
            self.server_params - self.alpha * self.eta * self.slow_momentum
        )
        self.x[workers] = self.server_params
        self.y[workers] = y_bar

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()
