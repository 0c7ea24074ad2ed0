"""Sweep orchestration: mode solves across s, comparison against limit spectra.

A sweep solves every lattice mode of every requested level at every s, matches
quantized modes to their limit oscillators through m = k b, and turns the
comparison into tables and verdicts.  The paper-side statement is qualitative
(spectral convergence without rates), so verdict thresholds are engineering
choices; they are recorded in the report header and in VERDICT_NOTES.
"""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ToricSpecError
from .limit import predicted_limit
from .mesh import build_mesh
from .operator import OperatorFactory, map_dbar, mode_set, solve_eigs
from .polytope import bs_points, polytope_from_json, validate_delzant
from .potential import (
    PotentialSpec,
    family_hessian_batch,
    make_potential_spec,
    potential_spec_from_json,
)
from .reports import svg_line_plot, write_csv, write_json

KERNEL_TOL = 1e-3
BS_ZERO_TOL = 5e-4
LIMIT_REL_TOL = 0.05
TAIL_NOISE = 1.10
TAIL_ABS = 1e-3
LOCALIZATION_MASS = 0.99
C_GRID = tuple(np.arange(0.5, 10.01, 0.25))     # radii c of the balls B(b, c sqrt(s))
H_FACTOR = 40.0                                 # mesh size sqrt(s) / H_FACTOR above the floor

VERDICT_NOTES = {
    "kernel_tol": "mode counts as holomorphic when its lowest dbar eigenvalue < 1e-3",
    "bs_zero_tol": "quantized modes must keep their lowest dbar eigenvalue < 5e-4 at every s",
    "gap_normalization": "gap_j = |lambda_j - predicted_j| / max(predicted_j, k)",
    "limit_match": "raw gap at the smallest s <= max(0.05, 2 x discretization estimate) "
    "for j <= 2; richardson gap extrapolates the last two s values with sqrt(s) rate",
    "tail_monotone": "gap at the smallest s <= 1.1 x previous gap + 1e-3",
    "localization": "smallest c on a 0.25-grid with >= 99% quadrature mass inside "
    "the union of balls B(b, c sqrt(s)) over quantized points",
}


@dataclass
class SweepConfig:
    """Inputs of one sweep; the mesh size at each s is h_of(s)."""

    spec: PotentialSpec
    k_list: tuple
    s_list: tuple            # strictly descending, positive
    eig_count: int = 4
    mode_margin: int = 1

    def __post_init__(self):
        # JSON gives scalars, strings and booleans too; bool is an int subclass
        real, integer = (numbers.Real, "a number"), (numbers.Integral, "an integer")
        checks = [("eig_count", self.eig_count, integer), ("mode_margin", self.mode_margin, integer)]
        for name, kind in (("k_list", integer), ("s_list", real)):
            entries = getattr(self, name)
            if not isinstance(entries, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {entries!r}")
            checks += [(f"{name} entry", v, kind) for v in entries]
        for name, value, (kind, what) in checks:
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        # validated entries are stored as Python scalars, so reports serialize alike
        self.k_list = tuple(int(k) for k in self.k_list)
        self.s_list = tuple(float(s) for s in self.s_list)
        s = self.s_list
        # a repeated s would make the Richardson step divide by zero
        if any(v <= 0 for v in s) or any(a <= b for a, b in zip(s, s[1:])):
            raise ValueError("s_list must be positive and strictly descending")
        if not self.k_list or min(self.k_list) < 1:
            raise ValueError(f"k_list must name at least one level, each >= 1, got {self.k_list}")
        if self.eig_count < 1:
            raise ValueError("eig_count must be >= 1")

    def h_of(self, s):
        """Mesh size sqrt(s)/H_FACTOR, floored at 1/800 in 1-D and 1/80 otherwise."""
        floor = 1.0 / 800.0 if self.spec.polytope.dim == 1 else 1.0 / 80.0
        return max(float(np.sqrt(s)) / H_FACTOR, floor)


_SCALAR_KEYS = ("eig_count", "mode_margin")
# "out" is the CLI's output directory
_CONFIG_KEYS = {"polytope", "potential", "k_list", "s_list", "out", *_SCALAR_KEYS}


def sweep_config_from_json(data, base_dir="."):
    """SweepConfig from the sweep JSON schema (file paths or inline objects)."""
    def load(key, parser, inline_parser):
        val = data.get(key)
        if val is None:
            return None
        if isinstance(val, str):
            with open(os.path.join(base_dir, val), encoding="ascii") as f:
                return parser(f.read())
        return inline_parser(val)

    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {', '.join(unknown)}")
    P = load(
        "polytope",
        polytope_from_json,
        lambda v: validate_delzant([(f["normal"], f["offset"]) for f in v["facets"]], dim=v["dim"]),
    )
    if P is None:
        raise ValueError("sweep config needs a polytope")
    spec = load("potential", lambda t: potential_spec_from_json(P, t), lambda v: potential_spec_from_json(P, v))
    if spec is None:
        spec = make_potential_spec(P)
    kwargs = {key: data[key] for key in _SCALAR_KEYS if key in data}
    return SweepConfig(spec=spec, k_list=data["k_list"], s_list=data["s_list"], **kwargs)


def _b_label(bkey):
    """'b=(c1, c2, ...)' for a quantized point given as coordinate strings."""
    return f"b=({', '.join(bkey)})"


@dataclass
class ConvergenceReport:
    """All sweep tables plus pass/fail verdicts."""

    meta: dict
    eig_rows: list = field(default_factory=list)
    kernel_rows: list = field(default_factory=list)
    trajectories: dict = field(default_factory=dict)   # (k, b) -> list of rows
    localization_rows: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=lambda: dict(VERDICT_NOTES))
    elapsed_s: float = 0.0      # wall time; kept out of the serialized report

    @property
    def partial(self):
        return bool(self.failures)

    def passed(self):
        return all(v.get("ok", False) for v in self.verdicts.values()) and not self.partial

    def to_json(self):
        return {
            "meta": self.meta,
            "notes": self.notes,
            "eigenvalues": self.eig_rows,
            "kernel_counts": self.kernel_rows,
            "trajectories": {
                f"k={k} {_b_label(b)}": rows for (k, b), rows in sorted(self.trajectories.items())
            },
            "localization": self.localization_rows,
            "verdicts": self.verdicts,
            "failures": self.failures,
        }

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json."""
        trajectories = {}
        for key, rows in data["trajectories"].items():
            kpart, bpart = key.split(" b=(")
            trajectories[(int(kpart.removeprefix("k=")), tuple(bpart[:-1].split(", ")))] = rows
        return cls(
            meta=data["meta"],
            eig_rows=data["eigenvalues"],
            kernel_rows=data["kernel_counts"],
            trajectories=trajectories,
            localization_rows=data["localization"],
            verdicts=data["verdicts"],
            failures=data["failures"],
            notes=data["notes"],
        )


def run_sweep(config: SweepConfig):
    """Solve every (k, s, mode), compare quantized modes to their limits."""
    t_start = time.time()
    spec = config.spec
    P = spec.polytope
    n = P.dim
    report = ConvergenceReport(
        meta={
            "dim": n,
            "k_list": list(config.k_list),
            "s_list": list(config.s_list),
            "h": {repr(float(s)): config.h_of(s) for s in config.s_list},
            "eig_count": config.eig_count,
            "mode_margin": config.mode_margin,
        }
    )

    # a mesh depends only on h(s), and several s can share the floor h
    h_set = set(map(config.h_of, config.s_list))
    meshes = {h: build_mesh(P, h) for h in h_set}
    for k in config.k_list:
        points = bs_points(P, k)
        by_mode = {b.mode: b for b in points}
        predictions = predicted_limit(spec, k, count=config.eig_count + 2)
        modes = mode_set(P, k, config.mode_margin)
        lattice_count = len(points)
        non_bs_lowest = {m: [] for m in modes if m not in by_mode}

        for s in config.s_list:
            factory = OperatorFactory(spec, s, k, meshes[config.h_of(s)])
            results = {}
            for mode in modes:
                try:
                    spectrum = solve_eigs(factory.operator(mode), config.eig_count)
                    dbar = map_dbar(spectrum, k, n)
                except ToricSpecError as exc:
                    report.failures.append(
                        {"k": k, "s": float(s), "mode": list(mode), "error": str(exc)}
                    )
                    continue
                results[mode] = (dbar, spectrum)
                report.eig_rows.append(
                    {
                        "k": int(k),
                        "s": float(s),
                        "mode": list(mode),
                        "is_bs": mode in by_mode,
                        "dbar": [float(v) for v in dbar],
                    }
                )

            zero_modes = [m for m, (d, _) in results.items() if d[0] < KERNEL_TOL]
            report.kernel_rows.append(
                {
                    "k": int(k),
                    "s": float(s),
                    "zero_modes": len(zero_modes),
                    "lattice_count": lattice_count,
                }
            )
            for m in non_bs_lowest:
                if m in results:
                    non_bs_lowest[m].append(float(results[m][0][0]))

            # trajectories and localization for quantized modes
            ground = {m: sp.vectors[:, 0] for m, (_, sp) in results.items() if m in by_mode}
            masses = _localization_masses(factory, points, ground, s)
            for mode, (dbar, _) in results.items():
                if mode not in by_mode:
                    continue
                b = by_mode[mode]
                pred = predictions[b].flat(config.eig_count)
                gaps = [
                    abs(dbar[j] - pred[j]) / max(pred[j], float(k))
                    for j in range(min(len(pred), len(dbar)))
                ]
                report.trajectories.setdefault((k, tuple(str(c) for c in b.point)), []).append(
                    {
                        "s": float(s),
                        "dbar": [float(v) for v in dbar],
                        "predicted": [float(v) for v in pred],
                        "gaps": [float(g) for g in gaps],
                    }
                )
                c_min, mass5 = masses[mode]
                report.localization_rows.append(
                    {
                        "k": int(k),
                        "s": float(s),
                        "mode": list(mode),
                        "c_min": c_min,
                        "mass_at_c5": mass5,
                    }
                )

        _judge_level(report, k, non_bs_lowest)
    report.elapsed_s = time.time() - t_start
    return report


def _localization_masses(factory, all_points, vectors, s):
    """{mode: (c_min, mass_at_c5)} for {mode: ground vector} of quantized modes.

    c_min is the smallest c with 99% mass in the union of B(b, c sqrt(s)), and
    mass_at_c5 the mass fraction at c = 5.  Each mode's quadrature density and
    each ball mask are formed once; a mask holds 0 or 1, so a masked sum is
    exactly the masked quadrature.
    """
    q = factory.mesh.qpoints
    centers = np.array([[float(c) for c in b.point] for b in all_points])
    d2 = np.min(
        np.sum((q[:, :, None, :] - centers[None, None, :, :]) ** 2, axis=-1), axis=-1
    )
    dmin = np.sqrt(d2)
    density = {m: factory.l2_density(v) for m, v in vectors.items()}
    total = {m: float(np.sum(w)) for m, w in density.items()}
    c_min = dict.fromkeys(density, np.inf)
    for c in C_GRID:
        mask = dmin <= c * np.sqrt(s)
        for m, w in density.items():
            if c_min[m] == np.inf and float(np.sum(w * mask)) / total[m] >= LOCALIZATION_MASS:
                c_min[m] = float(c)
    mask5 = dmin <= 5.0 * np.sqrt(s)
    return {m: (c_min[m], float(np.sum(w * mask5)) / total[m]) for m, w in density.items()}


def _richardson_gap(rows, pred, j, k):
    """sqrt(s)-rate extrapolation of eigenvalue j from the last two s values."""
    if len(rows) < 2:
        return None
    s1, s2 = rows[-2]["s"], rows[-1]["s"]
    l1, l2 = rows[-2]["dbar"][j], rows[-1]["dbar"][j]
    w1, w2 = np.sqrt(s1), np.sqrt(s2)
    lam = l2 + (l2 - l1) * w2 / (w1 - w2)
    return abs(lam - pred[j]) / max(pred[j], float(k))


def _judge_level(report, k, non_bs_lowest):
    kernel_ok = all(
        row["zero_modes"] == row["lattice_count"]
        for row in report.kernel_rows
        if row["k"] == k
    )
    report.verdicts[f"kernel_identity_k{k}"] = {
        "ok": bool(kernel_ok),
        "detail": [r for r in report.kernel_rows if r["k"] == k],
    }

    bs_zero_ok = True
    limit_ok = True
    tail_ok = True
    limit_detail = {}
    for (kk, bkey), rows in report.trajectories.items():
        if kk != k:
            continue
        lowest = [r["dbar"][0] for r in rows]
        if max(lowest) >= BS_ZERO_TOL:
            bs_zero_ok = False
        pred = rows[-1]["predicted"]
        gaps_last = rows[-1]["gaps"]
        rich = [
            _richardson_gap(rows, pred, j, k) for j in range(min(3, len(pred)))
        ]
        n_check = min(3, len(gaps_last))
        raw_ok = all(g <= LIMIT_REL_TOL for g in gaps_last[:n_check])
        rich_ok = all(g is None or g <= LIMIT_REL_TOL for g in rich[:n_check])
        # with three or more s values the verdict extrapolates (sqrt-s rate);
        # shorter sweeps are judged on the raw gap at the smallest s
        if not (rich_ok if len(rows) >= 3 else raw_ok):
            limit_ok = False
        if len(rows) >= 2:
            for j in range(n_check):
                g_prev = rows[-2]["gaps"][j]
                g_last = rows[-1]["gaps"][j]
                if g_last > TAIL_NOISE * g_prev + TAIL_ABS:
                    tail_ok = False
        limit_detail[_b_label(bkey)] = {
            "raw_gaps_at_smallest_s": [float(g) for g in gaps_last[:n_check]],
            "richardson_gaps": [None if g is None else float(g) for g in rich[:n_check]],
        }
    report.verdicts[f"bs_zero_persistence_k{k}"] = {"ok": bool(bs_zero_ok)}
    report.verdicts[f"limit_match_k{k}"] = {"ok": bool(limit_ok), "detail": limit_detail}
    report.verdicts[f"gap_tail_monotone_k{k}"] = {"ok": bool(tail_ok)}

    divergent = {}
    for m, vals in non_bs_lowest.items():
        if len(vals) >= 2:
            divergent[str(list(m))] = bool(vals[-1] > vals[0])
    report.verdicts[f"non_bs_divergence_k{k}"] = {
        "ok": True,                  # informational flag, not a pass criterion
        "increasing": divergent,
    }


# ---------------------------------------------------------------------------
# standalone checks
# ---------------------------------------------------------------------------

def fiber_diameter_check(spec: PotentialSpec, s_list, grid_per_dim=9):
    """Proxy for the sqrt(s) fiber-diameter law: sup lambda_max(G_s^-1) <= C s.

    Returns (rows, fitted_C, analytic_bound); the per-s suprema rise toward
    the bound lambda_max((Hess psi)^-1) as s decreases.
    """
    P = spec.polytope
    lo, hi = P.bounding_box()
    axes = [np.linspace(float(a), float(b), grid_per_dim + 2)[1:-1] for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    inside = (pts @ P.normals_array().T - P.offsets_array()).min(axis=1) > 1e-9
    pts = pts[inside]
    # graded points toward facet midpoints catch the boundary behavior
    center = np.array([float(c) for c in P.interior_point()])
    extra = []
    for v in P.vertices:
        vv = np.array([float(c) for c in v])
        for eps in (1e-2, 1e-4):
            extra.append(center + (1 - eps) * (vv - center))
    pts = np.vstack([pts, np.array(extra)])

    rows = []
    fitted = 0.0
    for s in s_list:
        _, G_inv = family_hessian_batch(spec, s, pts)
        lam_max = np.linalg.eigvalsh(G_inv)[:, -1]
        sup = float(lam_max.max() / s)
        rows.append({"s": float(s), "sup_lambda_max_over_s": sup})
        fitted = max(fitted, sup)
    hess_psi = spec.psi.hessian(pts)
    bound = float(np.linalg.eigvalsh(np.linalg.inv(hess_psi))[:, -1].max())
    return rows, fitted, bound


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_reports(report: ConvergenceReport, out_dir):
    """Write report.json, per-level eigenvalue CSVs, localization and kernel
    CSVs, and one trajectory SVG per quantized point.  Deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report.to_json())
    files = ["report.json"]

    for k in sorted({row["k"] for row in report.eig_rows}):
        rows = [r for r in report.eig_rows if r["k"] == k]
        count = max(len(r["dbar"]) for r in rows)
        header = ["s"] + [f"m{i}" for i in range(len(rows[0]["mode"]))] + [
            "is_bs"
        ] + [f"dbar{j}" for j in range(count)]
        csv_rows = []
        for r in sorted(rows, key=lambda r: (-r["s"], r["mode"])):
            csv_rows.append(
                [r["s"]] + r["mode"] + [int(r["is_bs"])] + [float(v) for v in r["dbar"]]
            )
        name = f"eigs_k{k}.csv"
        write_csv(os.path.join(out_dir, name), header, csv_rows)
        files.append(name)

    if report.localization_rows:
        header = ["k", "s"] + [
            f"m{i}" for i in range(len(report.localization_rows[0]["mode"]))
        ] + ["c_min", "mass_at_c5"]
        rows = [
            [r["k"], r["s"]] + r["mode"] + [float(r["c_min"]), float(r["mass_at_c5"])]
            for r in sorted(
                report.localization_rows, key=lambda r: (r["k"], -r["s"], r["mode"])
            )
        ]
        write_csv(os.path.join(out_dir, "localization.csv"), header, rows)
        files.append("localization.csv")

    if report.kernel_rows:
        write_csv(
            os.path.join(out_dir, "kernel_counts.csv"),
            ["k", "s", "zero_modes", "lattice_count"],
            [
                [r["k"], r["s"], r["zero_modes"], r["lattice_count"]]
                for r in sorted(report.kernel_rows, key=lambda r: (r["k"], -r["s"]))
            ],
        )
        files.append("kernel_counts.csv")

    for i, ((k, bkey), rows) in enumerate(sorted(report.trajectories.items())):
        rows = sorted(rows, key=lambda r: -r["s"])
        xs = [r["s"] for r in rows]
        count = len(rows[0]["dbar"])
        series = [
            (f"eig {j}", xs, [r["dbar"][j] for r in rows]) for j in range(count)
        ]
        hlines = rows[0]["predicted"][:count]
        name = f"plot_b{i}.svg"
        svg_line_plot(
            os.path.join(out_dir, name),
            title=f"k={k} {_b_label(bkey)}",
            xlabel="s",
            ylabel="dbar eigenvalue",
            series=series,
            hlines=hlines,
        )
        files.append(name)
    return files
