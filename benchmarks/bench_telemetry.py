"""Telemetry overhead benchmarks (PR acceptance: disabled ≤ 2%).

The disabled ("null") instrumentation cost is derived from the live
``_step`` path itself rather than from a hand-kept untraced replica
(which drifts from the code it is meant to mirror):

* a counting null tracer and monitor, installed through
  :func:`~repro.telemetry.set_tracer` / :func:`~repro.monitoring.set_monitor`,
  count the span calls and ``enabled`` guards one HierAdMo ``_step``
  makes (``tau = pi = 1``, so every step crosses the edge and cloud
  instrumentation points — the worst case);
* each call kind's cost is timed on the null instance actually installed;
* ``overhead = Σ calls × per-call cost / _step time``.

A slowed null span therefore raises the measured overhead, so the gate
can fail (``tests/telemetry/test_overhead.py`` checks exactly that).
The recording tracer's cost is measured as well, for documentation.

Results land in ``BENCH_telemetry.json`` at the repo root.
"""

from __future__ import annotations

import itertools

from repro import telemetry
from repro.core import HierAdMo
from repro.monitoring import (
    NULL_MONITOR,
    NullMonitor,
    get_monitor,
    set_monitor,
)
from repro.telemetry import NullTracer, get_tracer, set_tracer

from .common import make_bench_federation, time_min
from .recorder import record_bench

# The acceptance threshold for the disabled-tracer ("null tracer") path.
MAX_DISABLED_OVERHEAD = 0.02


def make_step_bench():
    """HierAdMo on the bench federation; returns ``(fed, step)``.

    ``tau = pi = 1``: every step runs an edge and a cloud round.
    """
    fed = make_bench_federation()
    algo = HierAdMo(fed, tau=1, pi=1)
    algo.history = fed.new_history("bench", {})
    algo._setup()
    clock = itertools.count(1)
    return fed, lambda: algo._step(next(clock))


class CountingTracer(NullTracer):
    """Null tracer that counts the span calls and guards made on it."""

    __slots__ = ("spans", "guards")

    def __init__(self):
        self.spans = 0
        self.guards = 0

    @property
    def enabled(self):
        self.guards += 1
        return False

    def span(self, name):
        self.spans += 1
        return super().span(name)


class CountingMonitor(NullMonitor):
    """Null monitor that counts the ``enabled`` guards read on it."""

    def __init__(self):
        self.guards = 0

    @property
    def enabled(self):
        self.guards += 1
        return False


def null_overhead(step, tracer=telemetry.NULL_TRACER, steps=20) -> dict:
    """Disabled-instrumentation share of one ``step`` call.

    Counts the span calls and tracer/monitor guards ``step`` makes, then
    prices them at the measured per-call cost of ``tracer`` (and of the
    null monitor) and divides by the time of ``step`` under ``tracer``.
    """
    counting_tracer, counting_monitor = CountingTracer(), CountingMonitor()
    previous_tracer = get_tracer()
    set_tracer(counting_tracer)
    previous_monitor = set_monitor(counting_monitor)
    try:
        for _ in range(steps):
            step()
    finally:
        set_tracer(previous_tracer)
        set_monitor(previous_monitor)
    spans = counting_tracer.spans / steps
    guards = counting_tracer.guards / steps
    monitor_guards = counting_monitor.guards / steps

    def null_span():
        with get_tracer().span("bench"):
            pass

    def tracer_guard():
        return get_tracer().enabled

    def monitor_guard():
        return get_monitor().enabled

    set_tracer(tracer)
    set_monitor(NULL_MONITOR)
    try:
        span_s = time_min(null_span, iters=1000)
        guard_s = time_min(tracer_guard, iters=1000)
        monitor_guard_s = time_min(monitor_guard, iters=1000)
        step()  # warm-up
        step_s = time_min(step)
    finally:
        set_tracer(previous_tracer)
        set_monitor(previous_monitor)
    return {
        "step_us": step_s * 1e6,
        "spans_per_step": spans,
        "tracer_guards_per_step": guards,
        "monitor_guards_per_step": monitor_guards,
        "null_span_ns": span_s * 1e9,
        "tracer_guard_ns": guard_s * 1e9,
        "monitor_guard_ns": monitor_guard_s * 1e9,
        "tracer_overhead": (spans * span_s + guards * guard_s) / step_s,
        "monitor_overhead": monitor_guards * monitor_guard_s / step_s,
    }


def test_bench_null_tracer_overhead():
    """Null-tracer calls of one ``_step`` cost ≤ 2% of the step."""
    telemetry.disable()
    fed, step = make_step_bench()
    measured = null_overhead(step)
    overhead = measured["tracer_overhead"]

    with telemetry.tracing():
        step()  # warm-up the recording path
        enabled_time = time_min(step)
    enabled_overhead = enabled_time / (measured["step_us"] * 1e-6) - 1.0
    print(
        f"\n[bench] telemetry overhead, {fed.num_workers} workers, "
        f"dim={fed.dim}: step {measured['step_us']:.0f} us, "
        f"{measured['spans_per_step']:.0f} null spans x "
        f"{measured['null_span_ns']:.0f} ns + "
        f"{measured['tracer_guards_per_step']:.0f} guards x "
        f"{measured['tracer_guard_ns']:.0f} ns ({overhead:+.2%}), "
        f"recording tracer {enabled_time * 1e6:.0f} us "
        f"({enabled_overhead:+.1%})"
    )
    record_bench("telemetry", "null_tracer_overhead", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "step_us": measured["step_us"],
        "spans_per_step": measured["spans_per_step"],
        "guards_per_step": measured["tracer_guards_per_step"],
        "null_span_ns": measured["null_span_ns"],
        "guard_ns": measured["tracer_guard_ns"],
        "enabled_us": enabled_time * 1e6,
        "disabled_overhead": overhead,
        "enabled_overhead": enabled_overhead,
        "threshold": MAX_DISABLED_OVERHEAD,
    })
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"null-tracer calls cost {overhead:+.2%} of a step "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_bench_span_primitives():
    """Raw cost of one span enter/exit, counter bump and observation."""
    tracer = telemetry.Tracer()

    def one_span():
        with tracer.span("bench"):
            pass

    null = telemetry.NULL_TRACER

    def one_null_span():
        with null.span("bench"):
            pass

    span_ns = time_min(one_span, iters=1000) * 1e9
    null_ns = time_min(one_null_span, iters=1000) * 1e9
    count_ns = time_min(lambda: tracer.count("c"), iters=1000) * 1e9
    observe_ns = time_min(lambda: tracer.observe("h", 1.0), iters=1000) * 1e9
    print(
        f"\n[bench] span {span_ns:.0f} ns, null span {null_ns:.0f} ns, "
        f"count {count_ns:.0f} ns, observe {observe_ns:.0f} ns"
    )
    record_bench("telemetry", "primitives", {
        "span_ns": span_ns,
        "null_span_ns": null_ns,
        "count_ns": count_ns,
        "observe_ns": observe_ns,
    })
    # Sanity only: the null span must be far cheaper than a real one.
    assert null_ns < span_ns
