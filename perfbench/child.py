"""One workload process: set up, train once, check, report JSON.

Usage (spawned by ``run.py``; stdout's last line is the report)::

    python3 perfbench/child.py WORKLOAD SEED SPAWN_TIME WORKDIR \
        [--spans PATH] [--setup-only] [--toy]

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it
spawned this process, so set-up time includes interpreter start.
``WORKDIR`` holds the run's checkpoints and event stream and is removed
at exit.  With ``--spans`` the run is traced and its spans are written
to ``PATH`` as JSONL.  With ``--setup-only`` the process stops where the
first training iteration would start and reports its set-up time only.
"""

import json
import math
import os
import resource
import shutil
import sys
import time

_import_start = time.monotonic()
import repro.cli  # noqa: E402,F401  (timed: the user's `import repro`)
_import_s = time.monotonic() - _import_start

from harness import Calibrator, SetupDone, Spans, Timeline  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, spawn_time, workdir = argv[:4]
    seed, spawn_time = int(seed), float(spawn_time)
    options = argv[4:]
    spans_path = (
        options[options.index("--spans") + 1] if "--spans" in options
        else None
    )
    toy = "--toy" in options
    setup_only = "--setup-only" in options
    spec = workloads.WORKLOADS[workload]
    config = workloads.generate(workload, seed, toy)

    spans = (
        Spans(f"{workload}/seed{seed}/{os.getpid()}") if spans_path else None
    )
    # The event engine's tau-rounds alternate between edge-only and
    # cloud-sync rounds of different real cost, so its rounds are whole
    # cloud periods (pi barriers).
    timeline = Timeline(
        Calibrator(), workloads.TAU, spans, setup_only,
        barriers_per_round=workloads.PI if config["driver"] == "event" else 1,
    )
    probe = workloads.Probe()
    workloads.instrument(config["driver"], timeline, probe, spans)

    os.makedirs(workdir, exist_ok=True)
    try:
        if config["driver"] == "lockstep":
            workloads.run_lockstep(config["argv"])
        else:
            workloads.run_event(config, workdir, probe)
    except SetupDone:
        # Set-up is converted with a calibration taken right after it.
        timeline.cal.warm_up()
        timeline.cal.measure()
        print(json.dumps({
            "setup_raw_s": timeline.first_step - spawn_time,
            "cal_s": timeline.cal.samples,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    history = probe.history
    # train_loss[0] is NaN by design: no batch has run at iteration 0.
    losses = history.train_loss[1:] + history.test_loss
    accuracy = float(history.final_accuracy)
    checks = {
        "finite": not history.diverged
        and all(math.isfinite(x) for x in losses),
        "accuracy": accuracy >= spec["accuracy_floor"],
        "backend": (not spec["batched"])
        or (probe.federation.gradient_backend == "batched"
            and probe.loop_gradient_calls == 0),
    }
    summary = history.fault_summary or {}
    tta = history.time_to_accuracy(0.95) if history.eval_times else None
    report = {
        "setup_raw_s": timeline.first_step - spawn_time,
        "import_raw_s": _import_s,
        "build_federation_raw_s": probe.setup["build_federation"],
        "build_algorithm_raw_s": probe.setup["build_algorithm"],
        "cal_s": timeline.cal.samples,
        "iterations": timeline.iterations,
        "rounds": timeline.rounds,
        "train_raw_s": timeline.train_raw_s,
        "train_ref_s": timeline.train_reference_s(),
        "samples": timeline.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "checks": checks,
        "digest": workloads.history_digest(history),
        "quality": {
            "final_accuracy": accuracy,
            "final_loss": float(history.test_loss[-1]),
            "sim_tta_s": 0.0 if tta is None else float(tta),
        },
        "counts": {
            "checkpoint_bytes": probe.checkpoint_bytes,
            "faults_events": sum(
                n for kind, n in summary.get("events", {}).items()
                if kind != "fault.retry"
            ),
            "faults_retries": summary.get("events", {}).get("fault.retry", 0),
            "stale_uploads": summary.get("stale_uploads", {}).get(
                "uploads", 0
            ),
            "worker_edge_mb": history.comm.worker_edge_bytes / 1e6,
            "edge_cloud_mb": history.comm.edge_cloud_bytes / 1e6,
        },
    }
    if spans is not None:
        spans.write_jsonl(spans_path)
        report["spans_path"] = spans_path
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
