"""Closed-loop op runner, machine-speed probe and latency summary.

One client runs ops back to back: the next op starts when the previous one
returns. Ops come in groups (a tampered trigger and its honest follow-up,
or one CLI pass); once ``seconds`` have passed the loop stops before the
next group, so a run never ends half way through one.

Times are reported in reference seconds. On a shared host the same
pairing takes anywhere from 1x to 1.8x as long, in phases lasting seconds
to minutes, which no run length averages away. So a fixed big-integer
probe (written here, independent of nomsig's code) runs before and after
every timed call and every PROBE_PERIOD_S during it, and the call's time
is scaled by PROBE_REF_S over the mean probe time: the time the call
would take on a machine where the probe takes PROBE_REF_S. A change to
nomsig moves the call and not the probe; a slow phase moves both. The
benchmark runs on one CPU, so the probe measures the CPU the call runs
on; a child process the call waits for is stopped while the probe runs,
and the pauses are not counted in the call's time.
"""

from __future__ import annotations

import os
import signal
import traceback
from dataclasses import dataclass, field
from statistics import fmean, median
from time import perf_counter
from typing import Callable, Iterator, Optional

TAIL_BEYOND = 10

# 4,000 Fp2 products over the BN254 base field; PROBE_REF_S is the probe's
# time in the host's fast phase on the shared 2-vCPU virtual machine the
# benchmark was built on (Python 3.11).
PROBE_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
PROBE_ITERS = 4000
PROBE_REF_S = 0.006
PROBE_PERIOD_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One timed call. ``check`` returns the list of failed expectations;
    ``prepare`` runs untimed just before the call."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    new_group: bool = True
    prepare: Optional[Callable[[], object]] = None


@dataclass
class Timing:
    result: object
    error: Optional[str]  # traceback of an exception fn raised
    wall: float  # wall seconds, probe pauses included
    paused: float  # seconds spent in the probe during the call
    probe: float  # mean probe time around and during the call

    @property
    def ref(self) -> float:
        """The call's time in reference seconds, pauses excluded."""
        return (self.wall - self.paused) * PROBE_REF_S / self.probe


@dataclass
class LoopResult:
    labels: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # reference seconds
    raw: list = field(default_factory=list)  # wall seconds, pauses excluded
    probes: list = field(default_factory=list)  # mean probe time per op
    # Per op, reference seconds per wall second including pauses: spans
    # measured inside the op contain any pause that fell inside them.
    span_scales: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def probe_s() -> float:
    """Wall time of the fixed machine-speed probe."""
    a0, a1 = 0x1234567890ABCDEF**4 % PROBE_P, 0xFEDCBA0987654321**4 % PROBE_P
    b0, b1 = a1, a0
    t = perf_counter()
    for _ in range(PROBE_ITERS):
        t0, t1 = a0 * b0, a1 * b1
        a0, a1 = (t0 - t1) % PROBE_P, ((a0 + a1) * (b0 + b1) - t0 - t1) % PROBE_P
    return perf_counter() - t


class Meter:
    """Times calls in reference seconds, sampling the probe while they run.

    Set ``child`` to the pid of a child process while the call waits for
    it, so the probe runs with the child stopped.
    """

    def __init__(self):
        self.child = None
        self._samples: list = []
        self._paused = 0.0

    def _signal_child(self, sig) -> None:
        if self.child is not None:
            try:
                os.kill(self.child, sig)
            except ProcessLookupError:
                pass

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._signal_child(signal.SIGSTOP)
        try:
            self._samples.append(probe_s())
        finally:
            self._signal_child(signal.SIGCONT)
            self._paused += perf_counter() - t0

    def measure(self, fn: Callable[[], object]) -> Timing:
        """Run fn once; exceptions are caught and returned in the Timing."""
        self._samples, self._paused = [probe_s()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        result, error = None, None
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:
            error = traceback.format_exc()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(probe_s())
        return Timing(result, error, wall, self._paused, fmean(self._samples))

    def timed(self, fn: Callable[[], object]) -> tuple[object, float]:
        """fn's result and its time in reference seconds; fn's errors propagate."""
        t = self.measure(fn)
        if t.error is not None:
            raise RuntimeError(f"timed call failed:\n{t.error}")
        return t.result, t.ref

    def timed_median(self, fn: Callable[[], object], reps: int) -> float:
        """Median time of ``reps`` calls, in reference seconds."""
        return median(self.timed(fn)[1] for _ in range(reps))


def tail_rank(n: int) -> tuple[int, float]:
    """1-based rank and percentile of the tail sample among n sorted samples.

    The tail is the highest percentile that has at least ten samples beyond
    it: rank n - 10, percentile 100 (n - 10) / n. Below 20 samples that
    rank lies under the median, so the tail falls back to the median and
    reports percentile 50 (rank 0 marks the fallback).
    """
    k = n - TAIL_BEYOND
    if k < n / 2:
        return 0, 50.0
    return k, 100.0 * k / n


def latency_summary(latencies: list) -> dict:
    n = len(latencies)
    rank, pct = tail_rank(n)
    p50 = median(latencies)
    return {
        "ops_per_s": n / sum(latencies),
        "op_s_p50": p50,
        "op_s_tail": sorted(latencies)[rank - 1] if rank else p50,
        "tail_percentile": pct,
        "samples": n,
    }


def closed_loop(ops: Iterator[Op], seconds: float, meter: Meter, tracer=None) -> LoopResult:
    """Run ops one at a time until ``seconds`` have passed (at least one op)."""
    out = LoopResult()
    t_end = perf_counter() + seconds
    for i, op in enumerate(ops):
        if op.new_group and out.latencies and perf_counter() >= t_end:
            break
        errors = []
        if op.prepare is not None:
            try:
                op.prepare()
            except Exception:
                errors.append(f"preparing the op failed:\n{traceback.format_exc()}")
        if tracer is not None:
            tracer.op = i
        t = meter.measure(op.run)
        if tracer is not None:
            tracer.op = None
        if t.error is not None:
            errors.append(f"unexpected exception:\n{t.error}")
        out.latencies.append(t.ref)
        out.raw.append(t.wall - t.paused)
        out.probes.append(t.probe)
        out.span_scales.append(t.ref / t.wall)
        out.labels.append(op.label)
        if t.result is not None:
            errors.extend(op.check(t.result))
        out.failures.extend((i, f"op {i} ({op.label}): {err}") for err in errors)
    return out
