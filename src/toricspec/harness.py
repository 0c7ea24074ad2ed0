"""Sweep orchestration: mode solves across s, comparison against limit spectra.

A sweep solves every lattice mode of every requested level at every s, matches
quantized modes to their limit oscillators through m = k b, and turns the
comparison into tables and verdicts.  The paper-side statement is qualitative
(spectral convergence without rates), so verdict thresholds are engineering
choices; they are recorded in the report header and in VERDICT_NOTES.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ToricSpecError, _check_integer, _check_s_list
from .limit import predicted_limit
from .mesh import build_mesh
from .operator import dbar_spectra, mode_set
from .polytope import polytope_from_json
from .potential import PotentialSpec, make_potential_spec, potential_spec_from_json
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
    "limit_match": "each of the lowest min(3, eig_count) gaps <= 0.05: with three or more s "
    "values the richardson gap, which extrapolates the last two s values at the sqrt(s) rate; "
    "with fewer, the raw gap at the smallest s",
    "tail_monotone": "gap at the smallest s <= 1.1 x previous gap + 1e-3",
    "localization": "smallest c on a 0.25-grid with >= 99% quadrature mass inside "
    "the union of balls B(b, c sqrt(s)) over quantized points",
}


@dataclass
class SweepConfig:
    """Inputs of one sweep; the mesh size at each s is h_of(s)."""

    spec: PotentialSpec
    k_list: tuple
    s_list: tuple            # strictly descending, finite, positive
    eig_count: int = 4
    mode_margin: int = 1

    def __post_init__(self):
        # JSON gives scalars, strings and booleans too
        for name in ("k_list", "s_list"):
            entries = getattr(self, name)
            if not isinstance(entries, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {entries!r}")
        # validated values are stored as Python scalars, so reports serialize alike
        self.k_list = tuple(_check_integer(k, "k_list entry", 1) for k in self.k_list)
        self.eig_count = _check_integer(self.eig_count, "eig_count", 1)
        self.mode_margin = _check_integer(self.mode_margin, "mode_margin", 0)
        # a repeated s would make the Richardson step divide by zero
        self.s_list = _check_s_list(self.s_list, "s_list")
        if not self.k_list:
            raise ValueError(f"k_list must name at least one level, got {self.k_list}")
        # each level is judged on its own rows
        if len(set(self.k_list)) < len(self.k_list):
            raise ValueError(f"k_list must not repeat a level, got {self.k_list}")

    def h_of(self, s):
        """Mesh size sqrt(s)/H_FACTOR, floored at 1/800 in 1-D and 1/80 otherwise."""
        floor = 1.0 / 800.0 if self.spec.polytope.dim == 1 else 1.0 / 80.0
        return max(float(np.sqrt(s)) / H_FACTOR, floor)


_SCALAR_KEYS = ("eig_count", "mode_margin")
# "out" is the CLI's output directory, a non-empty path string
_CONFIG_KEYS = {"polytope", "potential", "k_list", "s_list", "out", *_SCALAR_KEYS}


def sweep_config_from_json(data, base_dir="."):
    """SweepConfig from the sweep JSON schema (file paths or inline objects)."""
    def load(key, parser):
        val = data.get(key)
        if isinstance(val, str):
            with open(os.path.join(base_dir, val), encoding="ascii") as f:
                val = f.read()
        return None if val is None else parser(val)

    if not isinstance(data, dict):
        raise ValueError(f"sweep config must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {', '.join(unknown)}")
    if "out" in data and not (isinstance(data["out"], str) and data["out"]):
        raise ValueError(f"sweep config out must be a non-empty path string, got {data['out']!r}")
    P = load("polytope", polytope_from_json)
    if P is None:
        raise ValueError("sweep config needs a polytope")
    for key in ("k_list", "s_list"):
        if key not in data:
            raise ValueError(f"sweep config needs {key}")
    spec = load("potential", lambda v: potential_spec_from_json(P, v)) or make_potential_spec(P)
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
    """Solve every (k, s, mode), compare quantized modes to their limits.

    Each level is solved, recorded and judged in one pass.
    """
    spec = config.spec
    P = spec.polytope
    report = ConvergenceReport(
        meta={
            "dim": P.dim,
            "k_list": list(config.k_list),
            "s_list": list(config.s_list),
            "h": {repr(s): config.h_of(s) for s in config.s_list},
            "eig_count": config.eig_count,
            "mode_margin": config.mode_margin,
        }
    )

    # a mesh depends only on h(s), and several s can share the floor h
    h_set = set(map(config.h_of, config.s_list))
    meshes = {h: build_mesh(P, h) for h in h_set}
    for k in config.k_list:
        predictions = predicted_limit(spec, k, count=config.eig_count)
        points = list(predictions)           # the quantized points, in bs_points order
        by_mode = {b.mode: b for b in points}
        modes = mode_set(P, k, config.mode_margin)
        kernel_rows = []
        trajectories = {}
        non_bs_lowest = {m: [] for m in modes if m not in by_mode}

        for s in config.s_list:
            mesh = meshes[config.h_of(s)]
            results = dbar_spectra(spec, s, k, mesh, modes, config.eig_count)
            dbars = {}
            ground = {}
            for mode, result in zip(modes, results):
                row = {"k": k, "s": s, "mode": list(mode)}
                if isinstance(result, ToricSpecError):
                    report.failures.append({**row, "error": str(result)})
                    continue
                dbars[mode], spectrum = result
                report.eig_rows.append(
                    {**row, "is_bs": mode in by_mode, "dbar": dbars[mode].tolist()}
                )
                if mode in by_mode:
                    ground[mode] = spectrum.vectors[:, 0]
                else:
                    non_bs_lowest[mode].append(float(dbars[mode][0]))
            zero_modes = sum(1 for dbar in dbars.values() if dbar[0] < KERNEL_TOL)
            kernel_rows.append(
                {"k": k, "s": s, "zero_modes": zero_modes, "lattice_count": len(points)}
            )

            # trajectories and localization for quantized modes
            for mode, (c_min, mass5) in _localization_masses(mesh, points, ground, s).items():
                b = by_mode[mode]
                pred = predictions[b].flat(config.eig_count)
                trajectories.setdefault(tuple(str(c) for c in b.point), []).append(
                    {
                        "s": s,
                        "dbar": dbars[mode].tolist(),
                        "predicted": pred.tolist(),
                        "gaps": _gaps(dbars[mode], pred, k).tolist(),
                    }
                )
                report.localization_rows.append(
                    {"k": k, "s": s, "mode": list(mode), "c_min": c_min, "mass_at_c5": mass5}
                )

        report.kernel_rows += kernel_rows
        report.trajectories.update({(k, bkey): rows for bkey, rows in trajectories.items()})
        report.verdicts.update(_judge_level(k, kernel_rows, trajectories, non_bs_lowest))
    return report


def _localization_masses(mesh, all_points, vectors, s):
    """{mode: (c_min, mass_at_c5)} for {mode: ground vector} of quantized modes.

    c_min is the smallest c with 99% mass in the union of B(b, c sqrt(s)), and
    mass_at_c5 the mass fraction at c = 5.  Each mode's quadrature density
    (weight times the squared P1 interpolant, summing to ||v||^2) and each
    ball mask are formed once; a mask holds 0 or 1, so a masked sum is exactly
    the masked quadrature.
    """
    q = mesh.qpoints
    centers = np.array([[float(c) for c in b.point] for b in all_points])
    d2 = np.min(
        np.sum((q[:, :, None, :] - centers[None, None, :, :]) ** 2, axis=-1), axis=-1
    )
    dmin = np.sqrt(d2)
    vals = {m: np.einsum("qi,ci->cq", mesh.bary, v[mesh.cells]) for m, v in vectors.items()}
    density = {m: mesh.qweights * u * u for m, u in vals.items()}
    total = {m: float(np.sum(w)) for m, w in density.items()}
    c_min = dict.fromkeys(density, np.inf)
    for c in C_GRID:
        mask = dmin <= c * np.sqrt(s)
        for m, w in density.items():
            if c_min[m] == np.inf and float(np.sum(w * mask)) / total[m] >= LOCALIZATION_MASS:
                c_min[m] = float(c)
    mask5 = dmin <= 5.0 * np.sqrt(s)
    return {m: (c_min[m], float(np.sum(w * mask5)) / total[m]) for m, w in density.items()}


def _gaps(values, predicted, k):
    """gap_j = |lambda_j - predicted_j| / max(predicted_j, k), as VERDICT_NOTES states."""
    predicted = np.asarray(predicted)
    return np.abs(np.asarray(values) - predicted) / np.maximum(predicted, k)


def _judge_level(k, kernel_rows, trajectories, non_bs_lowest):
    """The verdicts of level k from its kernel rows, its trajectories keyed by
    quantized point, and the lowest values of its non-quantized modes."""
    bs_zero, limit, tail, limit_detail = [], [], [], {}
    for bkey, rows in trajectories.items():
        bs_zero.append(max(r["dbar"][0] for r in rows) < BS_ZERO_TOL)
        last = rows[-1]
        n_check = min(3, len(last["gaps"]))
        raw = last["gaps"][:n_check]
        rich = [None] * n_check
        if len(rows) >= 2:
            prev = rows[-2]
            # sqrt(s)-rate Richardson extrapolation from the last two s values
            w1, w2 = np.sqrt(prev["s"]), np.sqrt(last["s"])
            l1 = np.array(prev["dbar"][:n_check])
            l2 = np.array(last["dbar"][:n_check])
            rich = _gaps(l2 + (l2 - l1) * w2 / (w1 - w2), last["predicted"][:n_check], k).tolist()
            rising = [g > TAIL_NOISE * g_prev + TAIL_ABS for g_prev, g in zip(prev["gaps"], raw)]
            tail.append(not any(rising))
        # with three or more s values the verdict extrapolates (sqrt-s rate);
        # shorter sweeps are judged on the raw gap at the smallest s
        limit.append(all(g <= LIMIT_REL_TOL for g in (rich if len(rows) >= 3 else raw)))
        limit_detail[_b_label(bkey)] = {"raw_gaps_at_smallest_s": raw, "richardson_gaps": rich}

    kernel_ok = all(r["zero_modes"] == r["lattice_count"] for r in kernel_rows)
    divergent = {str(list(m)): v[-1] > v[0] for m, v in non_bs_lowest.items() if len(v) >= 2}
    return {
        f"kernel_identity_k{k}": {"ok": kernel_ok, "detail": kernel_rows},
        f"bs_zero_persistence_k{k}": {"ok": all(bs_zero)},
        f"limit_match_k{k}": {"ok": all(limit), "detail": limit_detail},
        f"gap_tail_monotone_k{k}": {"ok": all(tail)},
        # informational flag, not a pass criterion
        f"non_bs_divergence_k{k}": {"ok": True, "increasing": divergent},
    }


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
        mode_columns = [f"m{i}" for i in range(len(rows[0]["mode"]))]
        header = ["s"] + mode_columns + ["is_bs"] + [f"dbar{j}" for j in range(count)]
        csv_rows = [
            [r["s"]] + r["mode"] + [int(r["is_bs"])] + [float(v) for v in r["dbar"]]
            for r in sorted(rows, key=lambda r: (-r["s"], r["mode"]))
        ]
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
        svg_line_plot(os.path.join(out_dir, name), f"k={k} {_b_label(bkey)}", series, hlines)
        files.append(name)
    return files
