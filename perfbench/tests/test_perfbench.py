"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def toy_runs(request):
    """One untraced and one traced toy-size run of each workload."""
    results = {}
    for trace in ("0", "1"):
        proc = _bench("--workload", request.param, "--seed", "3",
                      "--seconds", "1", "--trace", trace, "--toy")
        assert proc.returncode == 0, proc.stderr
        results[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]),
                          proc.stdout)
    return request.param, results


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}


def test_toy_runs_emit_every_metric_with_its_unit(toy_runs):
    workload, results = toy_runs
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result, stdout = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name in declared:
            assert f"{workload}/{name}" in stdout
    for name, entry in results["0"][0]["metrics"].items():
        assert entry["value"] > 0, name


def test_traced_spans_parse_and_nest(toy_runs):
    workload, _ = toy_runs
    path = os.path.join(ROOT, run.OUT_DIR, "spans", f"{workload}-0.jsonl")
    spans = harness.load_spans_jsonl(path)
    assert spans and all(s["run"] == spans[0]["run"] for s in spans)
    children = [0.0] * len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= (
                parent["end"])
            children[span["parent"]] += span["end"] - span["start"]
    for span, child in zip(spans, children):
        assert child <= span["end"] - span["start"] + 1e-9
    for totals in harness.layer_totals(spans).values():
        assert totals["self_s"] <= totals["incl_s"] + 1e-9


def test_span_self_time_excludes_children(tmp_path):
    spans = harness.Spans("unit")
    outer = spans.open("outer", 0.0)
    inner = spans.open("inner", 1.0)
    spans.close(inner, 3.0)
    spans.close(outer, 10.0)
    path = str(tmp_path / "spans.jsonl")
    spans.write_jsonl(path)
    totals = harness.layer_totals(harness.load_spans_jsonl(path))
    assert totals["outer"] == {"calls": 1, "incl_s": 10.0, "self_s": 8.0}
    assert totals["inner"] == {"calls": 1, "incl_s": 2.0, "self_s": 2.0}


def test_seed_changes_generated_inputs():
    from repro.experiments import ExperimentConfig
    from repro.experiments.builders import build_datasets

    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 1) == workloads.generate(
            workload, 1)
        assert workloads.generate(workload, 1) != workloads.generate(
            workload, 2)
    one, two = (workloads.generate("async-faults", s) for s in (1, 2))
    assert one["sim_seed"] != two["sim_seed"]
    assert one["faults"]["seed"] != two["faults"]["seed"]
    config = {**one["config"], "num_samples": 200}
    parts_one, _ = build_datasets(ExperimentConfig(**config))
    config["seed"] = two["config"]["seed"]
    parts_two, _ = build_datasets(ExperimentConfig(**config))
    assert not (parts_one[0][0].x.shape == parts_two[0][0].x.shape
                and (parts_one[0][0].x == parts_two[0][0].x).all())


class _FakeCalibrator:
    def __init__(self, seconds):
        self.seconds = seconds
        self.samples = []

    def warm_up(self):
        pass

    def measure(self):
        self.samples.append(self.seconds)
        return self.seconds


def _synthetic_run(monkeypatch, scale: float) -> dict:
    """Drive a Timeline through 3 rounds of a fake lockstep run.

    Every interval and the calibration are multiplied by ``scale``.
    """
    now = [0.0]
    monkeypatch.setattr(harness, "clock", lambda: now[0])
    timeline = harness.Timeline(_FakeCalibrator(0.02 * scale), tau=2)
    now[0] = 0.5 * scale
    timeline.train_start()
    for step in range(6):
        timeline.step()
        timeline.count_samples(64)
        now[0] += (0.003 + 0.001 * step) * scale
        if step % 2 == 1:
            timeline.pause()
            now[0] += 0.01 * scale
    timeline.train_end()
    child = {
        "iterations": timeline.iterations, "rounds": timeline.rounds,
        "setup_raw_s": 0.5 * scale, "cal_s": timeline.cal.samples,
        "train_ref_s": timeline.train_reference_s(),
        "train_raw_s": timeline.train_raw_s,
        "samples": timeline.samples, "peak_rss_mb": 1.0,
    }
    return run.end_to_end([], [child])[0]


def _synthetic_event_run(monkeypatch, scale: float) -> dict:
    """Drive a Timeline through 6 barriers (3 rounds of 2) of a fake engine."""
    now = [0.0]
    monkeypatch.setattr(harness, "clock", lambda: now[0])
    timeline = harness.Timeline(_FakeCalibrator(0.02 * scale), tau=2,
                                barriers_per_round=2)
    now[0] = 0.5 * scale
    timeline.train_start()
    timeline.engine_start()
    for barrier in range(6):
        timeline.count_samples(64)
        now[0] += (0.01 + 0.002 * barrier) * scale
        timeline.barrier()
        now[0] += 0.005 * scale  # inside round_complete: excluded
        timeline.barrier_done()
    timeline.train_end()
    assert [raw for _, raw, _ in timeline.rounds] == pytest.approx(
        [s * scale for s in (0.022, 0.03, 0.038)])
    child = {
        "iterations": timeline.iterations, "rounds": timeline.rounds,
        "setup_raw_s": 0.5 * scale, "cal_s": timeline.cal.samples,
        "train_ref_s": timeline.train_reference_s(),
        "train_raw_s": timeline.train_raw_s,
        "samples": timeline.samples, "peak_rss_mb": 1.0,
    }
    return run.end_to_end([], [child])[0]


@pytest.mark.parametrize("driver", [_synthetic_run, _synthetic_event_run])
def test_reference_seconds_cancel_a_uniform_slowdown(monkeypatch, driver):
    assert harness.to_reference(0.3, 0.02) == pytest.approx(
        harness.to_reference(0.6, 0.04))
    fast = driver(monkeypatch, 1.0)
    slow = driver(monkeypatch, 2.0)
    for name, value in fast.items():
        assert slow[name] == pytest.approx(value, rel=1e-9), name


def test_warm_up_round_is_excluded(monkeypatch):
    # Round 1 is warm-up; rounds 2-3 hold iterations of 5..8 ms, whose
    # median 6.5 ms at a 20 ms calibration is 3.25 reference ms.
    metrics = _synthetic_run(monkeypatch, 1.0)
    assert metrics["iter_ms.p50"] == pytest.approx(
        6.5 * harness.CAL_REF / 0.02, rel=1e-9)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "async-faults", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
