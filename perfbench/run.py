"""nomsig benchmark: one closed-loop workload per run, measured from outside.

    python3 perfbench/run.py --workload trigger --seed 1 --seconds 15 --trace 0

``--workload all`` runs trigger, issue and cli one after the other, each in
its own process. With ``--trace 0`` the last line of output is a JSON
object whose metrics are the end-to-end metrics; with ``--trace 1`` the
same workload runs with spans recorded around nomsig's public functions,
and the metrics are the per-layer metrics (see perfbench/README.md). The
lines before it print every metric with its unit, the workload properties
and the op count. Any failed check makes the run exit 1; a checkout
without nomsig's sources makes it exit 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

from harness import END_TO_END_UNITS, PROBE_REF_S, Meter, closed_loop, latency_summary
from kernels import KERNEL_ROWS, kernel_rows
from tracing import EXP_COUNTERS, GAS_FIELDS, READ_BYTES, SPAN_NAMES, Tracer, layer_metrics
from workloads import CLI_COMMANDS, WORKLOADS, CliWorkload

ROOT = Path(__file__).resolve().parent.parent


def per_layer_names() -> list:
    names = [f"{span}.{stat}" for span in SPAN_NAMES for stat in ("calls", "self_s", "total_s")]
    names += EXP_COUNTERS + [READ_BYTES] + [f"gasmodel.{f}" for f in GAS_FIELDS]
    names += ["cli.import_s"] + [f"cli.{c}_s" for c in CLI_COMMANDS]
    return names + KERNEL_ROWS + ["bench.traced_op_s_p50", "bench.probe_ms"]


def layer_unit(name: str) -> str:
    if name == "gasmodel.tkverify_gas":
        return "gas"
    if name.endswith(".bytes"):
        return "bytes"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--backend", choices=("bn254", "mock"), default="bn254",
                   help="mock is for the benchmark's own fast tests")
    p.add_argument("--spans-out", default=None, help="write the traced run's raw spans here (JSON)")
    return p.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--backend", args.backend]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def run_workload(args) -> int:
    cli = args.workload == "cli"
    meter = Meter()
    if cli:
        wl = CliWorkload(args.seed, args.backend, ROOT, bool(args.trace), meter)
        import_s = 0.0  # each set-up spawns a child that imports the CLI
    else:
        import_s = meter.timed(lambda: importlib.import_module("nomsig"))[1]
        wl = WORKLOADS[args.workload](args.seed, args.backend)
    try:
        setup_s = import_s + meter.timed_median(wl.setup, wl.setup_reps) + meter.timed(wl.prepare)[1]
        wl.after_setup()
        tracer = Tracer() if args.trace and not cli else None
        if tracer is not None:
            tracer.install()
        try:
            loop = closed_loop(wl.ops(), args.seconds, meter, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        props = {"seed": args.seed, **wl.finish(loop.labels)}
        summary = latency_summary(loop.latencies)
        probe_ms = 1e3 * median(loop.probes)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss / 1024
        # The cli set-up is the import-only child, so its median is cli.import_s.
        command_times = {"cli.import_s": setup_s, **wl.command_times(loop.labels, loop.latencies)} if cli else {}
        layer = None
        if args.trace:
            spans, counts = wl.child_traces() if cli else (tracer.spans, tracer.counts)
            layer = traced_metrics(meter, loop, spans, counts, {
                **command_times, "bench.traced_op_s_p50": summary["op_s_p50"], "bench.probe_ms": probe_ms})
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(spans))
    finally:
        wl.close()

    failed_checks = [(name, errs) for name, errs in wl.checks if errs]
    for _, failure in loop.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, errs in failed_checks:
        for err in errs:
            print(f"FAILED check {name}: {err}", file=sys.stderr)
    attempted = len(loop.latencies) + len(wl.checks)
    failed = len({i for i, _ in loop.failures}) + len(failed_checks)

    e2e = {
        "setup_s": setup_s,
        "ops_per_s": summary["ops_per_s"],
        "op_s_p50": summary["op_s_p50"],
        "op_s_tail": summary["op_s_tail"],
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"perfbench workload={args.workload} backend={args.backend} seed={args.seed} "
          f"trace={args.trace} ops={len(loop.latencies)}")
    print("properties " + json.dumps(props))
    print(f"  times in reference seconds; probe median {probe_ms:.2f} ms against "
          f"{1e3 * PROBE_REF_S:.2f} ms reference; wall-clock op p50 {median(loop.raw):.6f} s")
    for name, value in e2e.items():
        note = ""
        if name == "op_s_tail":
            note = f"  (p{summary['tail_percentile']:.1f} of {summary['samples']} ops)"
        print(f"  {name:<34} {value:>14.6f} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'ops_failed_ratio':<34} {failed / attempted:>14.6f} ratio  ({failed} of {attempted})")
    for name, (value, unit) in wl.extra_metrics().items():
        print(f"  {name:<34} {value:>14.3f} {unit}")
    for name, value in command_times.items():
        print(f"  {name:<34} {value:>14.6f} s")

    if layer is None:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    else:
        metrics = {name: {"value": layer[name], "unit": layer_unit(name)} for name in per_layer_names()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def traced_metrics(meter, loop, spans, counts, rows) -> dict:
    """Every per-layer metric: spans and counters per op, kernel rows, and
    ``rows`` measured by the workload (0 for rows another workload measures)."""
    layer = layer_metrics(spans, counts, len(loop.latencies), loop.span_scales)
    layer.update({"cli.import_s": 0.0, **{f"cli.{c}_s": 0.0 for c in CLI_COMMANDS}})
    layer.update(rows)
    layer.update(kernel_rows(meter))
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nomsig" / "__init__.py").is_file():
        print(f"perfbench: nomsig sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the benchmark and the processes it starts, so the speed
    # probe measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
