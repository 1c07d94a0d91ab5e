"""Tests of the benchmark's own code: statistics, span arithmetic, tracing, runs.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import walshcube  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_order_statistic_with_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert run.tail_latency(samples) == (90.0, 90.0)
    percentile, value = run.tail_latency([float(v) for v in range(11)])
    assert value == 0.0 and percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


def test_times_are_rescaled_by_the_median_pass_around_them():
    # The machine halves its speed after the third step; a lone slow pass is jitter.
    passes = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    rescaled = reference.ReferenceKernel.rescaled([1.0] * 7, passes)
    windows = [1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 2.0]
    assert rescaled == pytest.approx([reference.REFERENCE_S / w for w in windows])
    with pytest.raises(ValueError):
        reference.ReferenceKernel.rescaled([1.0] * 7, passes[:-1])


def test_self_time_subtracts_the_union_of_child_intervals():
    synthetic = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),  # overlaps a: 10..50 is covered once
        ("c", 60, 70, 0, 0),
        ("a.leaf", 12, 18, 1, 0),
        ("d", 95, 120, 0, 0),  # runs past its parent: clipped at 100
    ]
    assert spans.self_times(synthetic) == [100 - 40 - 10 - 5, 14, 30, 10, 6, 25]


def test_objective_calls_count_only_direct_calls_from_a_search():
    synthetic = [
        ("estimators.maximize_ratio", 0, 100, -1, 0),
        ("inequalities.pisier_lhs", 1, 2, 0, 0),
        ("inequalities.pisier_lhs", 3, 4, 0, 0),
        ("inequalities.pisier_report", 5, 9, 0, 0),
        ("inequalities.pisier_lhs", 6, 7, 3, 0),  # inside a report, not the objective
        ("inequalities.pisier_lhs", 200, 201, -1, 0),  # outside any search
        ("norms.signed_combination_average", 300, 310, -1, 16),
    ]
    totals = spans.SpanTotals()
    totals.add(synthetic)
    metrics = totals.per_layer(ops=2)
    assert metrics["estimators.objective_calls_per_cert"] == 2.0
    assert metrics["norms.sign_average.patterns"] == 8.0
    assert metrics["norms.sign_average.calls"] == 0.5


def test_patching_reaches_every_import_site_and_is_undone():
    originals = (
        walshcube.estimators.pisier_lhs,
        walshcube.inequalities.pisier_lhs,
        walshcube.HypercubeFunction.__dict__["__init__"],
        walshcube.HypercubeFunction.__dict__["from_values"],
    )
    config = walshcube.SearchConfig(
        functional="pisier", n=2, m=2, p=2.0, q=math.inf, restarts=1, iterations=2, probes=3, seed=5
    )
    plain = walshcube.maximize_ratio(config)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traced = walshcube.maximize_ratio(config)
    assert traced.digest == plain.digest and traced.ratio == plain.ratio
    assert originals == (
        walshcube.estimators.pisier_lhs,
        walshcube.inequalities.pisier_lhs,
        walshcube.HypercubeFunction.__dict__["__init__"],
        walshcube.HypercubeFunction.__dict__["from_values"],
    )
    names = {span[0] for span in tracer.spans}
    assert {
        "estimators.maximize_ratio",
        "inequalities.pisier_lhs",
        "norms.signed_combination_average",
        "hypercube.HypercubeFunction.__init__",
    } <= names
    totals = spans.SpanTotals()
    totals.add(tracer.spans)
    assert totals.searches == 1 and totals.objective_calls > 0


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_both_modes_and_reports_its_metrics(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= run.MIN_OPS or trace == 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_gate_is_counted_and_makes_the_run_fail(monkeypatch, capsys):
    class Flaky:
        trace_ops = 1

        def prepare(self, seed, index):
            return index

        def operate(self, index):
            return index

        def check(self, index, output):
            if index == 5:
                raise workloads.GateError("injected")
            return 1.0, str(index)

        def warm_up(self, seed):
            pass

    for name in run.THREAD_ENV:
        monkeypatch.setenv(name, "1")
    monkeypatch.setitem(workloads.WORKLOADS, "flaky", Flaky())
    code = run.main(["--workload", "flaky", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (run.MIN_OPS, 1)


def test_without_the_package_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
