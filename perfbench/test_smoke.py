"""Smoke test of the benchmark itself, at the seconds-long ``smoke`` size.

    python -m pytest perfbench/test_smoke.py

Runs every workload, including the two BENCHMARK.json does not list, traced
and untraced, and checks the result line against BENCHMARK.json's metrics;
checks the span recorder's self times; and checks that the benchmark refuses
to run in a tree without toricspec sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def _run(cwd, workload, trace, seed=3):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_result_line_matches_spec(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.count_drift"]["value"] == 0


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "census_cp2", 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_self_times_subtract_direct_children():
    rec = spans.SpanRecorder()
    rec.spans = [
        spans.Span("pass", 0.0, 10.0, -1, 0),
        spans.Span("harness.sweep", 1.0, 9.0, 0, 0),
        spans.Span("operator.eig", 2.0, 5.0, 1, 0),
        spans.Span("mesh.build", 6.0, 7.0, 1, 0),
        spans.Span("operator.eig", 9.5, 10.0, 0, 0),
    ]
    rec.counts[0] = {"operator.eig_calls": 2}
    assert rec.self_times() == [1.5, 4.0, 3.0, 1.0, 0.5]
    summary = rec.pass_summary(0)
    assert summary["harness.sweep_self_s"] == 4.0
    assert summary["operator.eig_s"] == 3.5
    assert summary["layer.operator_s"] == 3.5
    assert summary["trace.unattributed_s"] == 1.5
    assert summary["trace.wall_s"] == 10.0
    assert summary["operator.eig_calls"] == 2


def test_cli_choices_match_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
