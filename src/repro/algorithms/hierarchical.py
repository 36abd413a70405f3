"""Three-tier baseline algorithms without momentum (paper category ②).

* :class:`HierFAVG` — Liu et al. ICC'20 client–edge–cloud FedAvg: plain
  local SGD, edge model averaging every ``τ`` iterations, cloud averaging
  of edge models every ``τ·π`` iterations, full redistribution each time.

* :class:`CFL` — Wang et al. INFOCOM'21 resource-efficient hierarchical
  aggregation.  We implement its communication-saving core: the cloud
  round updates the *edge* models but does not broadcast all the way down
  to workers; workers pick up the cloud value at their next edge round.
  This halves cloud-to-worker broadcasts while staying within a τ-window
  of HierFAVG's trajectory, matching the near-identical accuracies the
  paper reports for the two baselines (Table II).  See DESIGN.md §3 for
  this substitution note.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.utils.validation import check_positive_int

__all__ = ["HierFAVG", "CFL"]


class HierFAVG(FLAlgorithm):
    """Hierarchical FedAvg (client–edge–cloud)."""

    name = "HierFAVG"

    CKPT_ARRAYS = ("x", "edge_models")

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 10,
        pi: int = 2,
    ):
        super().__init__(federation, eta=eta)
        self.tau = check_positive_int(tau, "tau")
        self.pi = check_positive_int(pi, "pi")

    def config(self) -> dict:
        return {"eta": self.eta, "tau": self.tau, "pi": self.pi}

    def _setup(self) -> None:
        super()._setup()
        self.edge_models = self.fed.initial_edge_matrix()

    def _local_update(self, rows) -> None:
        self.x[rows] -= self.eta * self._grads[rows]

    def _edge_rule(self, edge: int, members) -> None:
        self.edge_models[edge] = self._average(self.x, members)
        self.x[members.receivers] = self.edge_models[edge]

    def _cloud_model(self, members) -> np.ndarray:
        """The cloud's average of the uploaded edge models."""
        models = self._wan_upload("cloud.models", self.edge_models)
        global_model = self._average(models, members)
        self.edge_models[members.receivers] = global_model
        return global_model

    def _cloud_rule(self, members, workers) -> None:
        self.x[workers] = self._cloud_model(members)


class CFL(HierFAVG):
    """Resource-efficient hierarchical aggregation.

    Differs from HierFAVG in two communication-saving choices:

    1. the cloud round does NOT broadcast to workers — only the edge
       models are synchronized; workers receive the merged value at the
       next edge round, and
    2. each edge round pulls workers toward a blend of the fresh edge
       average and the edge's stored (cloud-synchronized) model, so the
       cloud information still propagates.
    """

    name = "CFL"

    CKPT_VALUES = ("_cloud_pending",)
    cloud_push_down = False

    def _setup(self) -> None:
        super()._setup()
        self._cloud_pending = [False] * self.fed.num_edges

    def _edge_rule(self, edge: int, members) -> None:
        fresh = self._average(self.x, members)
        if self._cloud_pending[edge]:
            # Fold in the cloud model the workers never received.
            merged = 0.5 * (fresh + self.edge_models[edge])
            self._cloud_pending[edge] = False
        else:
            merged = fresh
        self.edge_models[edge] = merged
        self.x[members.receivers] = merged

    def _cloud_rule(self, members, workers) -> None:
        self._cloud_model(members)
        # Only the edges that received the cloud model fold it in; a
        # dark edge keeps its pending model for the next round it is up.
        for edge in np.arange(self.fed.num_edges)[members.receivers]:
            self._cloud_pending[edge] = True
