# The full degeneration sweep with verdicts and reports
# ------------------------------------------------------
# A sweep solves every lattice mode at every s, matches quantized modes to
# their limit oscillators, tracks eigenfunction localization, and writes
# deterministic CSV/JSON/SVG reports.  The same pipeline backs the
# `toricspec sweep` command.

import json
import pathlib
import tempfile

from toricspec import (
    SweepConfig,
    emit_reports,
    make_potential_spec,
    run_sweep,
    segment,
)

spec = make_potential_spec(segment())
config = SweepConfig(
    spec=spec,
    k_list=(1, 2),
    s_list=(0.2, 0.1, 0.05, 0.02),
    eig_count=4,
)

print("running the interval sweep, k in {1, 2}, s down to 0.02 ...")
report = run_sweep(config)

print()
print("== verdicts ==")
for name, verdict in sorted(report.verdicts.items()):
    print(f"  {name}: {'pass' if verdict['ok'] else 'FAIL'}")

print()
print("== trajectory of the k=2 midpoint mode ==")
rows = report.trajectories[(2, ("1/2",))]
print("  predicted limit:", rows[0]["predicted"][:3])
for r in sorted(rows, key=lambda r: -r["s"]):
    print(f"  s={r['s']:5.2f}: eigenvalues {[round(v, 4) for v in r['dbar'][:3]]}"
          f"  gaps {[round(g, 4) for g in r['gaps'][:3]]}")

print()
print("== localization of ground modes ==")
for r in report.localization_rows:
    if r["k"] == 1 and r["s"] <= 0.05:
        print(f"  s={r['s']:5.2f} mode {r['mode']}: mass within B(b, 5 sqrt(s)) = "
              f"{r['mass_at_c5']:.4f}, minimal sufficient c = {r['c_min']}")

with tempfile.TemporaryDirectory(prefix="toricspec_demo_") as tmp:
    out = pathlib.Path(tmp)
    files = emit_reports(report, out)
    print()
    print(f"== report files in {out} ==")
    for f in files:
        print("  ", f)
    summary = json.loads((out / "report.json").read_text())
    print("  kernel counts:", summary["kernel_counts"][:2], "...")
