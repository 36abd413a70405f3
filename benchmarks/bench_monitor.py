"""Monitoring overhead benchmarks (PR acceptance: disabled ≤ 2%).

Two gates on the run-event stream:

* ``null_monitor_overhead`` — the null-monitor guards one HierAdMo
  ``_step`` makes (counted on the live path, priced at the measured
  guard cost, see ``bench_telemetry.null_overhead``) must cost ≤ 2% of
  the step;
* ``jsonl_sink_throughput`` — events per second through a live
  :class:`RunMonitor` into a line-buffered JSONL sink, pinned to a
  floor so streaming never silently becomes the bottleneck.

Results land in ``BENCH_monitor.json`` at the repo root.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.monitoring import JSONLStreamSink, RunMonitor, set_monitor

from .bench_telemetry import make_step_bench, null_overhead
from .recorder import record_bench

# Acceptance threshold for the disabled-monitoring ("null monitor") path.
MAX_DISABLED_OVERHEAD = 0.02
# Floor for streaming-sink throughput (events per second).  Measured
# ~85k/s on the reference container; the pin sits far below so only a
# real regression (per-event re-serialization, unbuffered writes) trips.
MIN_SINK_EVENTS_PER_SEC = 20_000


def test_bench_null_monitor_overhead():
    """Null-monitor guards of one ``_step`` cost ≤ 2% of the step."""
    telemetry.disable()
    set_monitor(None)  # the default, stated explicitly
    fed, step = make_step_bench()
    measured = null_overhead(step)
    overhead = measured["monitor_overhead"]
    print(
        f"\n[bench] monitoring overhead, {fed.num_workers} workers, "
        f"dim={fed.dim}: step {measured['step_us']:.0f} us, "
        f"{measured['monitor_guards_per_step']:.0f} null-monitor guards x "
        f"{measured['monitor_guard_ns']:.0f} ns ({overhead:+.2%})"
    )
    record_bench("monitor", "null_monitor_overhead", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "step_us": measured["step_us"],
        "guards_per_step": measured["monitor_guards_per_step"],
        "guard_ns": measured["monitor_guard_ns"],
        "disabled_overhead": overhead,
        "threshold": MAX_DISABLED_OVERHEAD,
    })
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"null-monitor guards cost {overhead:+.2%} of a step "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_bench_jsonl_sink_throughput(tmp_path):
    """Streamed events per second through the hub stays above the pin."""
    events = 20_000
    sink = JSONLStreamSink(tmp_path / "bench.jsonl")
    hub = RunMonitor(sinks=[sink])

    start = time.perf_counter()
    for i in range(events):
        hub.emit(
            "eval",
            iteration=i,
            accuracy=0.5,
            test_loss=0.5,
            train_loss=0.5,
            total_bytes=float(i),
        )
    elapsed = time.perf_counter() - start
    hub.close()

    per_sec = events / elapsed
    per_event_us = elapsed / events * 1e6
    print(
        f"\n[bench] jsonl sink: {per_sec:,.0f} events/s "
        f"({per_event_us:.1f} us/event, {events} events)"
    )
    record_bench("monitor", "jsonl_sink_throughput", {
        "events": events,
        "events_per_sec": per_sec,
        "per_event_us": per_event_us,
        "floor_events_per_sec": MIN_SINK_EVENTS_PER_SEC,
    })
    assert per_sec >= MIN_SINK_EVENTS_PER_SEC, (
        f"streaming sink at {per_sec:,.0f} events/s, below the "
        f"{MIN_SINK_EVENTS_PER_SEC:,} floor"
    )
