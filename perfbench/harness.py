"""Measurement core: calibration kernel, reference seconds, spans, timeline.

Everything here is program-agnostic: it times calls, it does not know
what they compute.  ``workloads.py`` decides which public functions of
``repro`` get wrapped.

Reference seconds
-----------------
The benchmark runs on shared machines whose speed drifts in phases that
last several seconds.  A fixed calibration kernel (~10 ms: one third
interpreter loop, one third small GEMM, one third stacking small arrays
into a batch, the three kinds of work the workloads do) runs at every
round boundary, outside the timed intervals.  Each interval is converted to reference seconds
as ``raw * CAL_REF / cal``, where ``cal`` is the kernel time measured at
the start of the interval's round, so a machine-wide slowdown that hits
the program and the kernel alike cancels out.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Seconds the calibration kernel takes on the reference machine.  A
# constant, so reference seconds stay comparable across runs and commits.
CAL_REF = 0.010

# Kernel sizes: ~3.3 ms each of interpreter loop, 64x64 GEMMs and
# stacking 256 32x32 blocks, on one core of a 2-core x86-64 box.
_LOOP_STEPS = 24_000
_GEMM_STEPS = 330
_STACK_STEPS = 9

clock = time.monotonic


def to_reference(raw_s: float, cal_s: float) -> float:
    """Convert a raw interval to reference seconds."""
    return raw_s * CAL_REF / cal_s


class Calibrator:
    """The fixed calibration kernel and the samples it has measured."""

    def __init__(self):
        rng = np.random.default_rng(20230703)
        self._matrix = rng.standard_normal((64, 64)) / 8.0
        self._blocks = [rng.standard_normal((32, 32)) for _ in range(256)]
        self._batch = np.empty((256, 32, 32))
        self.samples: list[float] = []

    def _kernel(self) -> None:
        acc = 0
        for i in range(_LOOP_STEPS):
            acc = (acc * 31 + i) & 0xFFFFF
        product = self._matrix
        for _ in range(_GEMM_STEPS):
            product = np.dot(self._matrix, product)
        for _ in range(_STACK_STEPS):
            np.stack(self._blocks, out=self._batch)

    def warm_up(self) -> None:
        """Run the kernel once without recording (first-call BLAS set-up)."""
        self._kernel()

    def measure(self) -> float:
        """Run the kernel once; record and return its raw seconds."""
        start = clock()
        self._kernel()
        seconds = clock() - start
        self.samples.append(seconds)
        return seconds


class Spans:
    """In-memory span recorder, written as JSONL when the process ends.

    A span is ``[name, start, end, parent]``; its id is its index.  The
    parent is the innermost span open when it started, so self time is
    the span's duration minus the durations of its direct children.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.records.append(
            [name, clock() if start is None else start, None, parent]
        )
        span = len(self.records) - 1
        self._stack.append(span)
        return span

    def close(self, span: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != span:
            raise RuntimeError(
                f"span {self.records[span][0]!r} closed out of order"
            )
        self._stack.pop()
        self.records[span][2] = clock() if end is None else end

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, (name, start, end, parent) in enumerate(self.records):
                handle.write(json.dumps({
                    "id": span, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


def load_spans_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict[str, float]] = {}
    for span, child in zip(spans, child_time):
        entry = totals.setdefault(
            span["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["incl_s"] += duration
        entry["self_s"] += duration - child
    return totals


class SetupDone(Exception):
    """Raised at the first training iteration of a set-up-only process."""


class Timeline:
    """Cuts one training call into iterations, rounds and segments.

    Every interval is stored raw together with the calibration that
    converts it: ``iterations`` and ``rounds`` hold
    ``(round_index, raw_s, cal_s)``; ``segments`` cover the whole
    training call except the calibration runs themselves.

    Lockstep driver: an iteration starts when ``Federation.gradient_all``
    is entered and ends at the next driver boundary (the next
    ``gradient_all``, an excluded call such as ``Federation.evaluate``,
    or the end of the training call).  A round is ``tau`` consecutive
    iterations.  Event driver: a round is ``barriers_per_round``
    consecutive ``round_complete`` barriers (time inside the barrier
    calls excluded), and its iteration sample is the round's time over
    the nominal iterations it covers.
    """

    def __init__(self, calibrator: Calibrator, tau: int,
                 spans: Spans | None = None, setup_only: bool = False,
                 barriers_per_round: int = 1):
        self.cal = calibrator
        self.setup_only = setup_only
        self.tau = tau
        self.barriers_per_round = barriers_per_round
        self.spans = spans
        self.iterations: list[tuple[int, float, float]] = []
        self.rounds: list[tuple[int, float, float]] = []
        self.segments: list[tuple[float, float]] = []
        self.samples = 0
        self.first_step: float | None = None
        self.train_raw_s = 0.0
        self._train_start = 0.0
        self._segment_start = 0.0
        self._cal_now: float | None = None
        self._unconverted: list[float] = []
        self._round = 0
        self._round_start: float | None = None
        self._round_raw = 0.0
        self._in_round = 0
        self._iteration_start: float | None = None
        self._frame: int | None = None

    # -- training call -------------------------------------------------
    def train_start(self) -> None:
        self._train_start = self._segment_start = clock()

    def train_end(self) -> None:
        now = clock()
        self.pause(now)
        if self._in_round == self.tau:
            self._close_lockstep_round()
        self._close_segment(now)
        self.train_raw_s = now - self._train_start

    def _close_segment(self, now: float) -> None:
        raw = now - self._segment_start
        if self._cal_now is None:
            self._unconverted.append(raw)
        else:
            self.segments.append((raw, self._cal_now))

    def calibrate(self) -> None:
        """Run the kernel between two segments (never inside an interval)."""
        now = clock()
        self._close_segment(now)
        span = None if self.spans is None else self.spans.open(
            "calibration", now
        )
        if not self.cal.samples:
            self.cal.warm_up()
        cal = self.cal.measure()
        self._cal_now = cal
        # Work before the first calibration (run set-up, the initial
        # evaluation) is converted with the first measurement.
        self.segments.extend((raw, cal) for raw in self._unconverted)
        self._unconverted.clear()
        self._segment_start = clock()
        if span is not None:
            self.spans.close(span, self._segment_start)

    def count_samples(self, samples: int) -> None:
        self.samples += samples

    def _first_step(self) -> None:
        """Set-up ends where the first training iteration starts."""
        if self.first_step is None:
            self.first_step = clock()
            if self.setup_only:
                raise SetupDone

    # -- lockstep driver -----------------------------------------------
    def step(self) -> None:
        """``gradient_all`` entered: close the open iteration, open one."""
        self._first_step()
        self.pause()
        if self._in_round == self.tau:
            self._close_lockstep_round()
        if self._in_round == 0:
            self._round += 1
            self.calibrate()
        self._in_round += 1
        self._iteration_start = clock()
        if self.spans is not None:
            self._frame = self.spans.open(
                "driver.iteration", self._iteration_start
            )

    def pause(self, now: float | None = None) -> None:
        """A driver boundary: the open iteration (if any) ends here."""
        if self._iteration_start is None:
            return
        now = clock() if now is None else now
        raw = now - self._iteration_start
        self.iterations.append((self._round, raw, self._cal_now))
        self._round_raw += raw
        self._iteration_start = None
        if self._frame is not None:
            self.spans.close(self._frame, now)
            self._frame = None

    def _close_lockstep_round(self) -> None:
        self.rounds.append((self._round, self._round_raw, self._cal_now))
        self._round_raw = 0.0
        self._in_round = 0

    # -- event driver ----------------------------------------------------
    def engine_start(self) -> None:
        self._first_step()
        self._round = 1
        self.calibrate()
        self._round_start = clock()

    def barrier(self) -> None:
        """``round_complete`` entered: the interval since the last ends."""
        self._round_raw += clock() - self._round_start
        self._in_round += 1
        if self._in_round == self.barriers_per_round:
            raw, cal = self._round_raw, self._cal_now
            self.rounds.append((self._round, raw, cal))
            self.iterations.append(
                (self._round, raw / (self.tau * self._in_round), cal)
            )
            self._round_raw = 0.0
            self._in_round = 0

    def barrier_done(self) -> None:
        """``round_complete`` returned: calibrate if a round closed."""
        if self._in_round == 0:
            self._round += 1
            self.calibrate()
        self._round_start = clock()

    # -- results -------------------------------------------------------
    def train_reference_s(self) -> float:
        return sum(to_reference(raw, cal) for raw, cal in self.segments)
