"""Benchmark of toricspec: one workload, closed loop, every pass checked.

    python3 perfbench/run.py --workload census_cp2 --seed 1 --seconds 20 --trace 0

The tree measured is the parent of this directory; without ``src/toricspec``
there the run stops with exit code 2 and prints no result.  One process runs
one pass after another for ``--seconds`` seconds, after one warm-up pass,
with the BLAS thread pool capped at the number of usable cores.

--trace 0  end-to-end metrics: median wall and CPU seconds per pass, set-up
           time (median of fresh-process probes spread over the run) and
           peak resident memory.
--trace 1  per-layer metrics: untraced and traced passes alternate; traced
           passes wrap toricspec's call sites with spans (see spans.py).

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Results, the environment and (traced) the raw spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the keys of workloads.WORKLOADS; that module loads numpy, which must wait
# until the BLAS thread cap is set
WORKLOAD_NAMES = ("census_cp2", "sweep_cp1", "oracle_bs", "skew_corner")
SETUP_PROBES = 9        # fresh-process set-up probes per untraced run
MIN_PASSES = 3          # untraced passes per run (traced run: this many of each)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench")
    return ap.parse_args(argv)


def _src_digest():
    """Hash of every file under src/: identifies the code being measured."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _environment(nproc):
    import numpy
    import scipy
    from toricspec import operator

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "dense_cutoff": getattr(operator, "DENSE_CUTOFF", None),
    }


def _setup_probe(workload, size):
    """Seconds a fresh process takes to import toricspec and build the specs."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, size]
    out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _cpu_seconds():
    """User + system CPU of this process and its reaped children, all threads."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed_pass(wl, ctx, params):
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = wl.run_pass(ctx, params)
    wall = time.perf_counter() - t0
    return result, wall, _cpu_seconds() - cpu0


def _check_repeat(workload, size, src_sha, record):
    """Compare exact-repeat counts with the last run of the same code; store them."""
    path = STATE_DIR / "repeat" / f"{workload}-{size}-{src_sha[:16]}.json"
    drift = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="ascii"))
        drift = sorted(k for k in set(previous) | set(record) if previous.get(k) != record.get(k))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="ascii")
    return drift


def _measure(wl, ctx, params, seconds, rec=None, probe=None):
    """One warm-up pass, then timed passes for ``seconds``.

    With a recorder, every untraced pass is followed by a traced one, so both
    kinds see the same machine conditions and their difference is the
    tracing overhead.  With a probe, SETUP_PROBES set-up probes run between
    passes, spread evenly over the run for the same reason.
    """
    results = [_timed_pass(wl, ctx, params)[0]]     # warm-up: lazy imports, caches
    walls, cpus, traced_walls, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        res, wall, cpu = _timed_pass(wl, ctx, params)
        results.append(res)
        walls.append(wall)
        cpus.append(cpu)
        if rec is not None:
            with spans.instrumented(rec):
                t0 = time.perf_counter()
                with rec.traced_pass(len(traced_walls)):
                    results.append(wl.run_pass(ctx, params))
                traced_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if probe is not None and len(setups) < SETUP_PROBES * min(elapsed / seconds, 1.0):
            setups.append(probe())
        if elapsed >= seconds and len(walls) >= MIN_PASSES:
            while probe is not None and len(setups) < SETUP_PROBES:
                setups.append(probe())
            return results, walls, cpus, traced_walls, setups


def _per_layer(rec, walls, traced_walls):
    """Median self times and first-pass counts over the traced passes."""
    summaries = [rec.pass_summary(i) for i in range(len(traced_walls))]
    metrics, units = {}, {}
    for name in summaries[0]:
        if name in spans.COUNTERS:        # counts repeat; drift is checked apart
            metrics[name] = summaries[0][name]
            units[name] = "count"
        else:
            metrics[name] = statistics.median(s[name] for s in summaries)
            units[name] = "s"
    metrics["operator.eig_residual_max"] = max(s["operator.eig_residual_max"] for s in summaries)
    units["operator.eig_residual_max"] = "1"
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    units["trace.overhead_s"] = "s"
    return metrics, units, summaries


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "toricspec" / "__init__.py").is_file():
        print(f"error: no toricspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:           # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import toricspec

    if Path(toricspec.__file__).resolve().parent != ROOT / "src" / "toricspec":
        print(f"error: imported toricspec from {toricspec.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    params = wl.sizes[args.size]
    work_dir = STATE_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = wl.setup(params)
    wl.prepare(ctx, params, np.random.default_rng(args.seed), str(work_dir))
    rec = spans.SpanRecorder() if args.trace else None
    probe = None if args.trace else (lambda: _setup_probe(args.workload, args.size))
    results, walls, cpus, traced_walls, setups = _measure(
        wl, ctx, params, args.seconds, rec, probe
    )

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    checks = {"failed_frac": failed / attempted, "ref_err": max(r.ref_err for r in results)}
    env = _environment(nproc)
    correct = failed == 0

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        q1, _, q3 = statistics.quantiles(walls, n=4)
        extra = {"wall_samples": len(walls), "wall_q1_s": q1, "wall_q3_s": q3,
                 "setup_samples": setups}
    else:
        metrics, units, summaries = _per_layer(rec, walls, traced_walls)
        record = {name: summaries[0][name] for name in spans.EXACT_COUNTS}
        drift = [n for n in spans.EXACT_COUNTS if len({s[n] for s in summaries}) > 1]
        drift += _check_repeat(args.workload, args.size, env["src_sha256"], record)
        metrics["trace.count_drift"] = len(drift)
        units["trace.count_drift"] = "count"
        if drift:
            print(f"exact-repeat drift in: {', '.join(sorted(set(drift)))}", file=sys.stderr)
            correct = False
        metrics.update(checks)
        extra = {"traced_passes": len(traced_walls), "untraced_passes": len(walls),
                 "exact_repeat": record, "pass_summaries": summaries}
    units.update({name: "1" for name in checks})

    all_metrics = {**metrics, **checks}
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out_dir = STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.json", "w", encoding="ascii") as f:
        json.dump(
            {"workload": args.workload, "size": args.size, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "correct": correct,
             "attempted": attempted, "failed": failed,
             "metrics": {n: {"value": v, "unit": units[n]} for n, v in all_metrics.items()},
             "samples": {"wall_s": walls, "cpu_s": cpus, "traced_wall_s": traced_walls},
             **extra, "environment": env},
            f, indent=1, sort_keys=True,
        )
    if rec is not None:
        rec.dump(out_dir / f"{tag}-spans.jsonl")

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for key, value in extra.items():
        if key != "pass_summaries":
            print(f"# {key} {json.dumps(value)}")
    for name, value in all_metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
