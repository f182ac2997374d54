"""Tests of the benchmark harness: the tail rule, span self time, and a
smoke run of every workload on the mock backend.

Run with: python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import latency_summary, tail_rank
from tracing import Tracer, span_stats

PERFBENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(1, 0, 50.0), (10, 0, 50.0), (19, 0, 50.0), (20, 10, 50.0), (21, 11, 100 * 11 / 21),
     (40, 30, 75.0), (100, 90, 90.0), (1000, 990, 99.0)],
)
def test_tail_rank_leaves_ten_samples_beyond(n, rank, percentile):
    assert tail_rank(n) == (rank, pytest.approx(percentile))
    if rank:
        assert n - rank == 10


def test_latency_summary_picks_the_tail_sample():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    s = latency_summary(list(reversed(samples)))
    assert s["op_s_tail"] == 90.0 and s["tail_percentile"] == 90.0 and s["samples"] == 100
    assert s["op_s_p50"] == 50.5
    assert s["ops_per_s"] == pytest.approx(100 / sum(samples))
    few = latency_summary([3.0, 1.0, 2.0])
    assert few["op_s_tail"] == few["op_s_p50"] == 2.0 and few["tail_percentile"] == 50.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    stats = span_stats(spans)
    assert stats["root"] == [1, 10.0, 3.0]
    assert stats["a"] == [1, 3.0, 2.0]
    assert stats["b"] == [1, 1.0, 1.0]
    assert stats["c"] == [1, 4.0, 4.0]


def test_total_time_counts_recursive_spans_once():
    spans = [["f", 0.0, 10.0, -1, 0], ["f", 2.0, 6.0, 0, 0], ["g", 3.0, 4.0, 1, 0]]
    assert span_stats(spans)["f"] == [2, 10.0, 9.0]


def test_tracer_records_nested_spans_only_inside_ops():
    import nomsig.bn254 as bn254

    tracer = Tracer()
    tracer.install()
    try:
        bn254.pairing(bn254.G1_GEN, None)
        assert tracer.spans == []
        tracer.op = 7
        bn254.pairing(bn254.G1_GEN, None)
        tracer.op = None
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["bn254.pairing", "bn254.miller_loop", "bn254.final_exp"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0] and {s[4] for s in tracer.spans} == {7}
    assert bn254.pairing.__module__ == "nomsig.bn254" and not hasattr(bn254.pairing, "__wrapped__")


def run_bench(*args, cwd=PERFBENCH.parent, script=PERFBENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    props = json.loads(next(line for line in lines if line.startswith("properties "))[11:])
    return json.loads(lines[-1]), props


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_mock_smoke_emits_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--backend", "mock")
        assert proc.returncode == 0, proc.stderr
        result, props = parse(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert {"seed", "input_digest", "repeated_input_share", "tampered_share",
                "mean_waters_hamming_weight"} <= set(props)
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            assert "ops_failed_ratio" in proc.stdout and "(p50.0 of" in proc.stdout


def test_input_digest_follows_the_seed():
    def digest(seed):
        proc = run_bench("--workload", "issue", "--seed", str(seed), "--seconds", "0",
                         "--backend", "mock")
        return parse(proc)[1]["input_digest"]

    assert digest(5) == digest(5) != digest(6)


def test_trigger_mock_predictions_and_raw_spans(tmp_path):
    out = tmp_path / "spans.json"
    proc = run_bench("--workload", "trigger", "--seed", "2", "--seconds", "0.5",
                     "--trace", "1", "--backend", "mock", "--spans-out", str(out))
    m = {k: v["value"] for k, v in parse(proc)[0]["metrics"].items()}
    assert m["scheme.tk_verify.calls"] == 1 and m["gasmodel.pairing_pairs"] == 8
    assert m["algebra.exp.GT"] == 0 and m["bn254.g2_in_subgroup.calls"] == 0
    spans = json.loads(out.read_text())
    ops = {op for *_, op in spans}
    assert len(ops) == len([s for s in spans if s[0] == "contract.submit_trigger"]) > 1
    assert all(len(s) == 5 and s[1] <= s[2] for s in spans)


def test_all_runs_every_workload():
    proc = run_bench("--workload", "all", "--seed", "4", "--seconds", "0", "--backend", "mock")
    assert proc.returncode == 0, proc.stderr
    headers = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("perfbench ")]
    assert headers == [f"workload={w['name']}" for w in BENCHMARK["workloads"]]


def test_checkout_without_sources_exits_2_without_a_result(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "trigger", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 2 and proc.stdout == ""
