"""End-to-end benchmark of the HierAdMo reproduction.

One run measures one workload::

    python3 perfbench/run.py --workload cnn-cifar10 --seed 1 --seconds 40 --trace 0

It spawns workload processes one after another (each a full ``repro
run`` or async training, with BLAS/OpenMP pinned to one thread) until
``--seconds`` are spent, then one traced process of the same seed whose
loss history must match bit for bit.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` (from untraced processes only);
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics, and leaves the spans as JSONL under
``.perfbench/spans/``.  The last stdout line is the JSON result.

Steadiness mode runs each workload several times, one seed per run, and
prints each end-to-end metric's median, quartiles and spread against
its bound, calibrated and raw side by side::

    python3 perfbench/run.py --steadiness 5 --workload async-faults --seconds 40
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from harness import CAL_REF, layer_totals, load_spans_jsonl, to_reference
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_UNTRACED = 2
CHILD_TIMEOUT_S = 60
OUT_DIR = ".perfbench"

def declared_metrics() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn(workload: str, seed: int, index: int, *,
          options: tuple[str, ...] = ()) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.abspath("src"),
                               os.environ.get("PYTHONPATH")) if p))
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), repr(time.monotonic()), workdir]
    cmd += options
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} process failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Spawn processes until the time budget is spent.

    Returns ``(setups, untraced, traced)``.  Every training process is
    preceded by a set-up-only process, so set-up time is sampled twice
    as often as training.  Without tracing the training processes are
    untraced, plus one traced check run at the end; with tracing they
    alternate.
    """
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    extra = ("--toy",) if toy else ()
    setups: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    longest = 0.0

    def launch(with_spans: bool) -> None:
        nonlocal longest
        began = time.monotonic()
        index = len(untraced) + len(traced)
        setups.append(spawn(workload, seed, index,
                            options=("--setup-only", *extra)))
        options = extra
        if with_spans:
            path = os.path.join(spans_dir, f"{workload}-{len(traced)}.jsonl")
            options += ("--spans", path)
        report = spawn(workload, seed, index, options=options)
        (traced if with_spans else untraced).append(report)
        longest = max(longest, time.monotonic() - began)

    def budget_left(launches: int) -> bool:
        """Whether ``launches`` more launches fit in the budget."""
        return time.monotonic() - start + launches * longest <= seconds

    if trace:
        while not traced or budget_left(1):
            launch(with_spans=len(untraced) > len(traced))
    else:
        # Leave room for the traced check launch at the end.
        while len(untraced) < MIN_UNTRACED or budget_left(2):
            launch(with_spans=False)
        launch(with_spans=True)
    return setups, untraced, traced


def _warm(intervals: list) -> list:
    """Drop the warm-up round (round 1) of every process."""
    return [x for x in intervals if x[0] > 1]


def setup_seconds(process: dict, calibrated: bool = True) -> float:
    """Set-up time, converted with the calibration taken right after it."""
    raw = process["setup_raw_s"]
    return to_reference(raw, process["cal_s"][0]) if calibrated else raw


def end_to_end(setups: list[dict], children: list[dict],
               calibrated: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics over untraced processes (raw with ``calibrated=False``)."""
    def convert(raw: float, cal: float) -> float:
        return to_reference(raw, cal) if calibrated else raw

    iters = [convert(raw, cal) * 1e3
             for c in children for _, raw, cal in _warm(c["iterations"])]
    rounds = [convert(raw, cal) * 1e3
              for c in children for _, raw, cal in _warm(c["rounds"])]
    setup = statistics.median(
        setup_seconds(p, calibrated) for p in setups + children
    )
    train = sum(c["train_ref_s"] if calibrated else c["train_raw_s"]
                for c in children)
    return {
        "setup_s": setup,
        "samples_per_s": sum(c["samples"] for c in children) / train,
        "iter_ms.p50": statistics.median(iters),
        "iter_ms.p95": percentile(iters, 95),
        "round_ms.p50": statistics.median(rounds),
        "round_ms.p90": percentile(rounds, 90),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }, {"setup_s": len(setups) + len(children), "iter_ms": len(iters),
        "round_ms": len(rounds)}


def per_layer(untraced: list[dict], traced: list[dict],
              declared: dict) -> dict:
    """Per-layer metrics: means over the traced processes.

    Each wrapped layer (a ``<layer>.calls`` metric in ``declared``)
    reports calls, inclusive and self reference seconds, and its share
    of training time.
    """
    layers = [name[:-len(".calls")] for name in declared
              if name.endswith(".calls")]
    metrics: dict[str, float] = {}
    n = len(traced)
    totals = []
    for child in traced:
        scale = CAL_REF / statistics.median(child["cal_s"])
        spans = load_spans_jsonl(child["spans_path"])
        totals.append((layer_totals(spans), scale, child["train_raw_s"]))
    for layer in layers:
        calls = incl = self_s = share = 0.0
        for layers, scale, train in totals:
            entry = layers.get(layer, {"calls": 0, "incl_s": 0.0,
                                       "self_s": 0.0})
            calls += entry["calls"]
            incl += entry["incl_s"] * scale
            self_s += entry["self_s"] * scale
            share += entry["incl_s"] / train
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.incl_s"] = incl / n
        metrics[f"{layer}.self_s"] = self_s / n
        metrics[f"{layer}.share"] = share / n
    for key, span_name in (("driver", "driver.iteration"),
                           ("engine", "engine.run")):
        self_s = share = 0.0
        for layers, scale, train in totals:
            entry = layers.get(span_name, {"self_s": 0.0})
            self_s += entry["self_s"] * scale
            share += entry["self_s"] / train
        metrics[f"{key}.self_s"] = self_s / n
        metrics[f"{key}.self_share"] = share / n

    everyone = untraced + traced
    for key in ("import", "build_federation", "build_algorithm"):
        metrics[f"setup.{key}_s"] = statistics.median(
            to_reference(c[f"{key}_raw_s"], c["cal_s"][0]) for c in everyone
        )
    counts = traced[0]["counts"]
    metrics["checkpoint.bytes"] = counts["checkpoint_bytes"]
    metrics["faults.events"] = counts["faults_events"]
    metrics["faults.retries"] = counts["faults_retries"]
    metrics["engine.stale_uploads"] = counts["stale_uploads"]
    metrics["ledger.worker_edge_mb"] = counts["worker_edge_mb"]
    metrics["ledger.edge_cloud_mb"] = counts["edge_cloud_mb"]
    for key, value in traced[0]["quality"].items():
        metrics[f"quality.{key}"] = value
    metrics["calibration.ms"] = 1e3 * statistics.median(
        s for c in everyone for s in c["cal_s"]
    )
    metrics["raw.train_s"] = statistics.median(
        c["train_raw_s"] for c in untraced
    )
    metrics["raw.setup_s"] = statistics.median(
        c["setup_raw_s"] for c in untraced
    )
    metrics["tracing.overhead"] = statistics.median(
        c["train_ref_s"] for c in traced
    ) / statistics.median(c["train_ref_s"] for c in untraced) - 1.0
    return metrics


def verdict(children: list[dict]) -> tuple[int, int, list[str]]:
    """(rounds attempted, rounds failed, reasons) over every process.

    A process fails when any output check fails or its loss history is
    not bit-identical to the first process of the same seed.
    """
    reference = children[0]["digest"]
    attempted = failed = 0
    reasons: list[str] = []
    for child in children:
        rounds = len(child["rounds"])
        attempted += rounds
        bad = [name for name, ok in child["checks"].items() if not ok]
        if child["digest"] != reference:
            bad.append("history differs from the first process "
                       "(traced vs untraced)")
        if bad:
            failed += rounds
            reasons.extend(bad)
    return attempted, failed, sorted(set(reasons))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            declared: dict, toy: bool = False) -> dict:
    setups, untraced, traced = run_children(workload, seed, seconds, trace,
                                            toy)
    attempted, failed, reasons = verdict(untraced + traced)
    calibrated, sample_counts = end_to_end(setups, untraced)
    raw, _ = end_to_end(setups, untraced, calibrated=False)
    metrics = (per_layer(untraced, traced, declared["per_layer"]) if trace
               else calibrated)
    if trace:
        metrics["samples.iter_n"] = sample_counts["iter_ms"]
        metrics["samples.round_n"] = sample_counts["round_ms"]
        metrics["ops.attempted"] = attempted
        metrics["ops.failed"] = failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "metrics": metrics,
        "raw": raw,
        "sample_counts": sample_counts,
        "processes": {"untraced": len(untraced), "traced": len(traced)},
    }


def report(workload: str, result: dict, declared: dict) -> dict:
    """Print the human-readable table; return the contract JSON object."""
    metrics = result["metrics"]
    missing = set(declared) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")
    counts = result["sample_counts"]
    print(f"# {workload}: {result['processes']['untraced']} untraced + "
          f"{result['processes']['traced']} traced processes; samples "
          f"setup_s n={counts['setup_s']}, iter_ms n={counts['iter_ms']}, "
          f"round_ms n={counts['round_ms']}")
    for name in declared:
        print(f"{workload}/{name:<36} {metrics[name]:>16.6g} "
              f"{declared[name]['unit']}")
    print(f"# ops.attempted={result['attempted']} "
          f"ops.failed={result['failed']} correct={result['correct']}"
          + (f" ({'; '.join(result['reasons'])})" if result["reasons"] else ""))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]["unit"]}
            for name in declared
        },
    }


def steadiness(workloads: list[str], runs: int, seconds: float,
               declared: dict) -> dict:
    """Run each workload ``runs`` times (seeds 1..runs) and print spreads.

    ``spread`` is (q3 - q1) / median over the runs, as
    ``statistics.quantiles(n=4)`` gives the quartiles; ``raw_spread`` is
    the same for the uncalibrated figures.
    """
    e2e = declared["end_to_end"]
    summary: dict = {"runs": runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        raws: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            result = measure(workload, seed, seconds, trace=False,
                             declared=declared)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: "
                                   f"{result['reasons']}")
            for name in e2e:
                values.setdefault(name, []).append(result["metrics"][name])
                raws.setdefault(name, []).append(result["raw"][name])
            print(f"# {workload} seed {seed}: " + json.dumps(
                {k: round(v, 4) for k, v in result["metrics"].items()}),
                flush=True)
        rows = summary["workloads"][workload] = {}
        print(f"{'metric':<32} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6} {'raw spread':>10}")
        for name, spec in e2e.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            r1, rmed, r3 = statistics.quantiles(raws[name], n=4)
            row = {"median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med, "bound": spec["bound"],
                   "raw_median": rmed, "raw_spread": (r3 - r1) / rmed,
                   "values": values[name]}
            rows[name] = row
            print(f"{workload + '/' + name:<32} {med:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {row['spread']:>8.3f} {spec['bound']:>6.2f} "
                  f"{row['raw_spread']:>10.3f}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run each workload RUNS times and print spreads")
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("error: run from a checkout of the repository (src/repro "
              "not found)", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True, stdout=subprocess.DEVNULL)
    declared = declared_metrics()

    if args.steadiness:
        summary = steadiness(args.workload or sorted(WORKLOADS),
                             args.steadiness, args.seconds, declared)
        print(json.dumps(summary))
        return 0

    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    workload = args.workload[0]
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     declared, toy=args.toy)
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(report(workload, result, declared[kind])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
