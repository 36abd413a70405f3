"""Golden trajectories under an active fault plan.

The zero-fault goldens (``test_golden_trajectories.py``) only exercise
pristine aggregation rounds.  These runs replay the same 15 algorithms
under one fault plan that mixes worker dropout, message loss,
duplication and staleness with a scripted edge outage, once per
degradation policy, so pristine, degraded and skipped rounds are all
pinned: the four history series and the γℓ trace at rtol 1e-8, the
communication ledger and the fault round tally exactly.

Run this file as a script to regenerate ``golden_faulted_trajectories.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.faults import DEGRADATION_POLICIES, FaultPlan

from tests.integration.test_golden_trajectories import (
    ALGORITHMS,
    EVAL_EVERY,
    TOTAL_ITERATIONS,
    build_federation,
)

pytestmark = pytest.mark.faults

GOLDEN_PATH = Path(__file__).with_name("golden_faulted_trajectories.json")

# Edge 1 is dark for edge interval 2 (iterations 6-8 at tau=3), which
# also darkens the t=6 cloud round of the three-tier algorithms.
PLAN = FaultPlan(
    seed=3,
    worker_dropout=0.2,
    msg_loss=0.1,
    msg_duplication=0.05,
    msg_staleness=0.1,
    scripted_edge_down=((1, 2, 2),),
)


def run_faulted(name: str, policy: str) -> dict:
    """One seeded faulted run; the history plus ledger and round tally."""
    cls, kwargs = ALGORITHMS[name]
    algorithm = cls(build_federation(), **kwargs)
    algorithm.attach_faults(PLAN, policy=policy)
    history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    comm = history.comm
    return {
        "iterations": list(history.iterations),
        "test_accuracy": list(history.test_accuracy),
        "test_loss": list(history.test_loss),
        "train_loss": list(history.train_loss),
        "gamma_trace": [
            [trace[edge] for edge in sorted(trace)]
            for trace in history.gamma_trace
        ],
        "ledger": {
            "worker_edge_bytes": comm.worker_edge_bytes,
            "edge_cloud_bytes": comm.edge_cloud_bytes,
            "worker_edge_rounds": comm.worker_edge_rounds,
            "edge_cloud_rounds": comm.edge_cloud_rounds,
        },
        "rounds": history.fault_summary["rounds"],
    }


def _key(name: str, policy: str) -> str:
    return f"{name}/{policy}"


@pytest.fixture(scope="module")
def goldens() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("policy", DEGRADATION_POLICIES)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_matches_faulted_golden(goldens, name, policy):
    golden = goldens[_key(name, policy)]
    fresh = run_faulted(name, policy)

    assert fresh["iterations"] == golden["iterations"]
    assert math.isnan(fresh["train_loss"][0])
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            fresh[series], golden[series], rtol=1e-8, atol=1e-10
        ), f"{name}/{policy}.{series} drifted"
    assert np.allclose(
        fresh["train_loss"][1:],
        golden["train_loss"][1:],
        rtol=1e-8,
        atol=1e-10,
        equal_nan=True,
    ), f"{name}/{policy}.train_loss drifted"
    assert len(fresh["gamma_trace"]) == len(golden["gamma_trace"])
    for fresh_round, golden_round in zip(
        fresh["gamma_trace"], golden["gamma_trace"]
    ):
        assert np.allclose(
            fresh_round, golden_round, rtol=1e-8, atol=1e-10
        ), f"{name}/{policy} gamma trace drifted"
    assert fresh["ledger"] == golden["ledger"]
    assert fresh["rounds"] == golden["rounds"]


def test_plan_reaches_every_round_kind(goldens):
    """The plan must keep exercising pristine, degraded and skipped
    rounds, or the goldens stop pinning the degraded code paths."""
    for policy in DEGRADATION_POLICIES:
        rounds = goldens[_key("HierAdMo", policy)]["rounds"]
        assert rounds["pristine"] > 0
        assert rounds["degraded"] + rounds["skipped"] > 0
    assert goldens[_key("HierAdMo", "skip_round")]["rounds"]["skipped"] > 0


def _regenerate() -> None:
    goldens = {
        _key(name, policy): run_faulted(name, policy)
        for name in sorted(ALGORITHMS)
        for policy in DEGRADATION_POLICIES
    }
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1))
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} runs)")


if __name__ == "__main__":
    _regenerate()
