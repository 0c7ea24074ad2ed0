"""The four benchmark workloads, each pass checked against a known reference.

Every workload drives the public API of toricspec through module attributes
(``mesh.build_mesh``, ``operator.solve_eigs``, ...), so the traced run sees
each call at the binding it wraps.  A pass returns how many checked
operations it attempted and how many failed: a ToricSpecError or a miss
against the reference counts as a failure and never aborts the run.

The references and thresholds are defined here, not taken from the
program's own verdict thresholds, so a later change to a threshold in
``src/`` cannot loosen them; ``sweep_cp1`` checks the program's verdicts as
well.  Sizes: ``bench`` is what BENCHMARK.json runs, ``smoke`` a
seconds-long version for the test.
See NOTES.md for why each workload and size was chosen.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from toricspec import curvature, harness, limit, mesh, operator, polytope, potential
from toricspec.errors import ToricSpecError

KERNEL_TOL = 1e-3                 # criterion 1: a mode is holomorphic below this
BS_ZERO_TOL = 5e-4                # criterion 3: quantized modes stay below this at every s
LIMIT_REL_TOL = 0.05              # criterion 3: Richardson gap to the predicted limit
RICHARDSON_EIGS = 3               # criterion 3: eigenvalues extrapolated per quantized mode
EXPONENT_RANGE = (1.7, 2.3)       # criterion 2: fitted convergence exponents
CONE_REL_TOL = 0.01               # numeric cone eigenvalues vs closed form
CONE_BOTTOM_TOL = 1e-6            # |lowest cone eigenvalue|
SCAN_DECAY = 0.7                  # criterion 6: infimum shrinks by this per s step
ORACLE_REL_TOL = 1e-5             # criterion 5: FD oracle vs closed-form Ricci
ORACLE_S = 0.5
SKEW_A = ((2.0, 1.0), (1.0, 2.0))


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    ref_err: float = 0.0

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def _quantized(P, k, m):
    """m/k in P, by exact integer arithmetic on the facet inequalities."""
    return all(
        sum(nu_i * m_i for nu_i, m_i in zip(nu, m)) >= k * lam
        for nu, lam in zip(P.normals, P.offsets)
    )


class CensusCP2:
    """Kernel census of cp2: one shift-invert solve per lattice mode."""

    name = "census_cp2"
    sizes = {
        "smoke": {"h": 1 / 8, "k": 1, "s": 1.0},
        # h = 1/30 keeps the ARPACK path (7,003 dofs); at s = 0.1 that mesh
        # resolves only 3 of the 6 zero modes, so the bench size uses s = 1.0,
        # which criterion 1 also checks
        "bench": {"h": 1 / 30, "k": 2, "s": 1.0},
    }

    def setup(self, p):
        return {"spec": potential.make_potential_spec(polytope.simplex2())}

    def prepare(self, ctx, p, rng, work_dir):
        P = ctx["spec"].polytope
        modes = operator.mode_set(P, p["k"], 1)
        ctx["modes"] = [modes[i] for i in rng.permutation(len(modes))]
        ctx["quantized"] = {m for m in modes if _quantized(P, p["k"], m)}

    def run_pass(self, ctx, p):
        spec, k = ctx["spec"], p["k"]
        P = spec.polytope
        res = PassResult()
        factory = operator.OperatorFactory(spec, p["s"], k, mesh.build_mesh(P, p["h"]))
        zero = 0
        for m in ctx["modes"]:
            try:
                lowest = operator.map_dbar(
                    operator.solve_eigs(factory.operator(m), 1), k, P.dim
                )[0]
            except ToricSpecError:
                res.check(False)
                continue
            is_zero = lowest < KERNEL_TOL
            zero += is_zero
            if m in ctx["quantized"]:
                res.ref_err = max(res.ref_err, float(lowest))
            res.check(is_zero == (m in ctx["quantized"]))
        res.check(zero == len(ctx["quantized"]))
        return res


class SweepCP1:
    """Criterion 3 sweep on cp1, all dense solves, plus report emission."""

    name = "sweep_cp1"
    sizes = {
        "smoke": {"k_list": (1, 2), "s_list": (0.2, 0.1, 0.05, 0.02)},
        "bench": {"k_list": (1, 2, 3), "s_list": (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)},
    }

    def setup(self, p):
        return {"spec": potential.make_potential_spec(polytope.segment())}

    def prepare(self, ctx, p, rng, work_dir):
        ctx["config"] = harness.SweepConfig(
            spec=ctx["spec"], k_list=p["k_list"], s_list=p["s_list"], eig_count=4
        )
        ctx["work_dir"] = work_dir
        P, margin = ctx["spec"].polytope, ctx["config"].mode_margin
        ctx["quantized"] = {
            k: {m for m in operator.mode_set(P, k, margin) if _quantized(P, k, m)}
            for k in p["k_list"]
        }

    def run_pass(self, ctx, p):
        res = PassResult()
        try:
            report = harness.run_sweep(ctx["config"])
        except ToricSpecError:
            res.check(False)
            return res
        zero = {}
        for row in report.eig_rows:
            k, mode, lowest = row["k"], tuple(row["mode"]), row["dbar"][0]
            quantized = mode in ctx["quantized"][k]
            if lowest < KERNEL_TOL:
                zero.setdefault((k, row["s"]), set()).add(mode)
            bs_zero = not quantized or lowest < BS_ZERO_TOL
            res.check(quantized == (lowest < KERNEL_TOL) and bs_zero)
        for k in p["k_list"]:
            for s in p["s_list"]:
                res.check(zero.get((k, float(s)), set()) == ctx["quantized"][k])
        for _ in report.failures:
            res.check(False)
        for verdict in report.verdicts.values():
            res.check(verdict["ok"])
        gaps = [
            g
            for key, verdict in report.verdicts.items()
            if key.startswith("limit_match_")
            for detail in verdict["detail"].values()
            for g in detail["richardson_gaps"]
            if g is not None
        ]
        # one gap for each of the lowest RICHARDSON_EIGS eigenvalues of each quantized mode
        res.check(len(gaps) == RICHARDSON_EIGS * sum(map(len, ctx["quantized"].values())))
        for g in gaps:
            res.check(g <= LIMIT_REL_TOL)
        res.ref_err = max(gaps, default=float("inf"))
        with tempfile.TemporaryDirectory(dir=ctx["work_dir"]) as out_dir:
            harness.emit_reports(report, out_dir)
            with open(os.path.join(out_dir, "report.json"), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        res.check(digest == ctx.setdefault("report_sha256", digest))
        return res


class OracleBS:
    """Criterion 2: convergence order of interpolated exact bound states."""

    name = "oracle_bs"
    sizes = {
        "smoke": {
            "cp1": ((1 / 100, 1 / 200, 1 / 400), (1, 2)),
            "cp2": ((1 / 4, 1 / 8, 1 / 15), (1,)),
        },
        "bench": {
            "cp1": ((1 / 400, 1 / 800, 1 / 1600), (1, 2, 3)),
            "cp2": ((1 / 15, 1 / 30, 1 / 60), (1, 2)),
        },
    }
    s_list = (1.0, 0.1)

    def setup(self, p):
        return {
            "cp1": potential.make_potential_spec(polytope.segment()),
            "cp2": potential.make_potential_spec(polytope.simplex2()),
        }

    def prepare(self, ctx, p, rng, work_dir):
        pass

    def run_pass(self, ctx, p):
        res = PassResult()
        for key in ("cp1", "cp2"):
            spec = ctx[key]
            P = spec.polytope
            h_list, k_list = p[key]
            meshes = [mesh.build_mesh(P, h) for h in h_list]
            for k in k_list:
                modes = [b.mode for b in polytope.bs_points(P, k)]
                target = k * k + P.dim * k
                for s in self.s_list:
                    try:
                        quotients = [
                            operator.ground_state_rayleigh_batch(spec, s, k, modes, m)
                            for m in meshes
                        ]
                    except ToricSpecError:
                        for _ in modes:
                            res.check(False)
                        continue
                    for m in modes:
                        e = [abs(q[m] - target) for q in quotients]
                        rate = 0.5 * (np.log2(e[0] / e[1]) + np.log2(e[1] / e[2]))
                        res.ref_err = max(res.ref_err, abs(float(rate) - 2.0))
                        res.check(EXPONENT_RANGE[0] <= rate <= EXPONENT_RANGE[1])
        return res


def _active_normals(P, b):
    """Normals of the facets through the point b, by exact arithmetic."""
    return [
        np.array(nu, dtype=float)
        for nu, lam in zip(P.normals, P.offsets)
        if sum(Fraction(n) * c for n, c in zip(nu, b)) == lam
    ]


def _opening_angle(normals, A):
    """Opening angle, in xi = A^(1/2) x coordinates, of a cone with two facets."""
    A_inv = np.linalg.inv(A)
    n1, n2 = normals
    cos = (n1 @ A_inv @ n2) / np.sqrt((n1 @ A_inv @ n1) * (n2 @ A_inv @ n2))
    return np.pi - np.arccos(np.clip(cos, -1.0, 1.0))


def _sector_spectrum(k, alpha, count):
    """Lowest values k (2j + l pi/alpha) of the half Neumann oscillator on a sector."""
    nu = np.pi / alpha
    vals = sorted(k * (2 * j + l * nu) for j in range(count) for l in range(count))
    return np.array(vals[:count])


class SkewCorner:
    """Skew-cone numeric limits, curvature scan and FD oracle on cp2."""

    name = "skew_corner"
    sizes = {
        "smoke": {"k_list": (1,), "count": 6, "grid_points": 6, "oracle_points": 2},
        "bench": {"k_list": (1, 2), "count": 6, "grid_points": 12, "oracle_points": 8},
    }
    scan_s = (1.0, 0.1, 0.01)

    def setup(self, p):
        psi = potential.PolynomialFn.quadratic_form(np.array(SKEW_A))
        return {"spec": potential.make_potential_spec(polytope.simplex2(), psi=psi)}

    def prepare(self, ctx, p, rng, work_dir):
        ctx["points"] = rng.uniform(0.08, 0.32, size=(p["oracle_points"], 2))

    def run_pass(self, ctx, p):
        spec = ctx["spec"]
        P = spec.polytope
        A = np.array(SKEW_A)
        res = PassResult()
        for k in p["k_list"]:
            try:
                limits = limit.predicted_limit(spec, k, count=p["count"])
            except ToricSpecError:
                res.check(False)
                continue
            vertex_cones = 0
            for b, spectrum in limits.items():
                normals = _active_normals(P, b.point)
                if len(normals) != 2:
                    continue            # half-planes and interiors are right-angled
                vertex_cones += 1
                ref = _sector_spectrum(k, _opening_angle(normals, A), p["count"])
                vals = spectrum.flat(p["count"])
                if len(vals) < p["count"]:
                    res.check(False)
                    continue
                rel = float(np.max(np.abs(vals[1:] - ref[1:]) / ref[1:]))
                res.ref_err = max(res.ref_err, rel)
                res.check(rel <= CONE_REL_TOL and abs(vals[0]) <= CONE_BOTTOM_TOL)
            res.check(vertex_cones == len(P.vertices))
        try:
            _, infimum = curvature.ricci_lower_bound_scan(
                A, 2, 2, self.scan_s, [50.0, 50.0],
                grid_points=p["grid_points"], allow_corner=True,
            )
            vals = [infimum[s] for s in self.scan_s]
            res.check(all(b <= SCAN_DECAY * a for a, b in zip(vals, vals[1:])))
        except ToricSpecError:
            res.check(False)
        for x in ctx["points"]:
            try:
                ric = curvature.christoffel_ricci_oracle(spec, ORACLE_S, x)
                half_T = curvature.ricci_general(spec, ORACLE_S, x).T / 2
            except ToricSpecError:
                res.check(False)
                continue
            res.check(np.abs(ric - half_T).max() <= ORACLE_REL_TOL * np.abs(half_T).max())
        return res


WORKLOADS = {w.name: w for w in (CensusCP2(), SweepCP1(), OracleBS(), SkewCorner())}
