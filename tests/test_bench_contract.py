"""The benchmark's workloads still run against the package in ``src/``.

perfbench/workloads.py drives toricspec through its public calls (the scan's
positional ``n, m``, ``OperatorFactory(spec, s, k, mesh)``, ...), and the
benchmark directory is not changed along with ``src/``.  One pass of every
workload BENCHMARK.json names, at the seconds-long ``smoke`` size, must
attempt at least one check and fail none.  The module is loaded without
writing a bytecode cache, so the test leaves perfbench/ as it found it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _tree(path):
    return sorted((str(p.relative_to(path)), p.stat().st_mtime_ns) for p in path.rglob("*"))


def _load_workloads():
    if "bench_workloads" in sys.modules:
        return sys.modules["bench_workloads"]
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look the module up while it runs
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_pass(name, tmp_path):
    before = _tree(BENCH_DIR)
    wl = _load_workloads().WORKLOADS[name]
    params = wl.sizes["smoke"]
    ctx = wl.setup(params)
    wl.prepare(ctx, params, np.random.default_rng(3), str(tmp_path))
    result = wl.run_pass(ctx, params)
    assert result.attempted >= 1
    assert result.failed == 0
    assert _tree(BENCH_DIR) == before
