"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The gap semantics and trend thresholds match the harness report header notes.
"""

import time

import numpy as np
import pytest

from conftest import brute_force_bs_count, random_delzant
from toricspec import errors
from toricspec.curvature import (
    christoffel_ricci_oracle,
    model_potential,
    model_T,
    model_T_prime,
    ModelSpec,
    ricci_general,
    ricci_lower_bound_scan,
    ricci_of_potential,
)
from toricspec.harness import SweepConfig, run_sweep
from toricspec.limit import (
    ConeModel,
    cone_at,
    default_truncation_radius,
    exact_cone_spectrum,
    numeric_cone_spectrum,
)
from toricspec.mesh import build_mesh
from toricspec.operator import (
    OperatorFactory,
    ground_state_rayleigh_batch,
    map_dbar,
    mode_set,
    solve_eigs,
)
from toricspec.polytope import bs_points, delzant_violations, segment, simplex2
from toricspec.potential import PolynomialFn, make_potential_spec

MINOR_TOL = 1e-10


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def minor_identity_holds(A, I):
    """Jacobi's identity [A]_I = det(A) [A^-1]_I', I' the complement of I, to relative MINOR_TOL."""
    Ic = [i for i in range(len(A)) if i not in I]
    lhs = np.linalg.det(A[np.ix_(I, I)])
    rhs = np.linalg.det(A) * np.linalg.det(np.linalg.inv(A)[np.ix_(Ic, Ic)])
    return abs(lhs - rhs) <= MINOR_TOL * max(abs(lhs), abs(rhs), 1.0)


def kernel_census(spec, k, s, mesh, margin=1):
    P = spec.polytope
    factory = OperatorFactory(spec, s, k, mesh)
    zero = 0
    for m in mode_set(P, k, margin):
        dbar = map_dbar(solve_eigs(factory.operator(m), 1), k, P.dim)
        if dbar[0] < 1e-3:
            zero += 1
    return zero


@pytest.fixture(scope="module")
def cp1_spec():
    return make_potential_spec(segment())


@pytest.fixture(scope="module")
def cp2_spec():
    return make_potential_spec(simplex2())


@pytest.fixture(scope="module")
def cp2_mesh(cp2_spec):
    return build_mesh(cp2_spec.polytope, 1 / 60)


@pytest.fixture(scope="module")
def sweep_report(cp1_spec):
    """The criterion 3 sweep report and its wall time in seconds."""
    config = SweepConfig(
        spec=cp1_spec, k_list=(1, 2), s_list=(0.2, 0.1, 0.05, 0.02), eig_count=4
    )
    t0 = time.time()
    report = run_sweep(config)
    return report, time.time() - t0


def test_criterion_1_kernel_identity(cp1_spec, cp2_spec, cp2_mesh):
    t0 = time.time()
    observed = {}
    mesh1 = build_mesh(cp1_spec.polytope, 1 / 400)
    for k, expect in ((1, 2), (2, 3), (3, 4)):
        for s in (1.0, 0.1):
            observed[("cp1", k, s)] = (kernel_census(cp1_spec, k, s, mesh1), expect)
    for k, expect in ((1, 3), (2, 6)):
        for s in (1.0, 0.1):
            observed[("cp2", k, s)] = (kernel_census(cp2_spec, k, s, cp2_mesh), expect)
    elapsed = time.time() - t0
    ok = all(got == want for got, want in observed.values()) and elapsed < 120
    detail = (
        f"counts {{(config): zero_modes vs lattice}} = "
        f"{ {k: v for k, v in sorted(observed.items())} }, {elapsed:.0f}s (< 120s)"
    )
    report("criterion 1 kernel identity", ok, detail)


def test_criterion_2_ground_state_oracle(cp1_spec, cp2_spec):
    t0 = time.time()
    exponents = {}
    for spec, h_list in (
        (cp1_spec, (1 / 400, 1 / 800, 1 / 1600)),
        (cp2_spec, (1 / 60, 1 / 120, 1 / 240)),
    ):
        P = spec.polytope
        k_list = (1, 2, 3) if P.dim == 1 else (1, 2)
        meshes = [build_mesh(P, h) for h in h_list]
        target = lambda k: k * k + P.dim * k
        for k in k_list:
            modes = [b.mode for b in bs_points(P, k)]
            quotients = [
                ground_state_rayleigh_batch(spec, s, k, modes, mesh)
                for s in (1.0, 0.1)
                for mesh in meshes
            ]
            by_s = [quotients[0:3], quotients[3:6]]
            for s_idx, s in enumerate((1.0, 0.1)):
                for m in modes:
                    errs = [abs(by_s[s_idx][i][m] - target(k)) for i in range(3)]
                    p = 0.5 * (np.log2(errs[0] / errs[1]) + np.log2(errs[1] / errs[2]))
                    exponents[(P.dim, k, m, s)] = p
    elapsed = time.time() - t0
    worst_low = min(exponents.values())
    worst_high = max(exponents.values())
    ok = 1.7 <= worst_low and worst_high <= 2.3 and elapsed < 120
    report(
        "criterion 2 ground-state oracle",
        ok,
        f"fitted exponents in [{worst_low:.3f}, {worst_high:.3f}] (target [1.7, 2.3]) "
        f"over {len(exponents)} quantized modes, {elapsed:.0f}s (< 120s)",
    )


def test_criterion_3_spectral_convergence(sweep_report):
    rep, elapsed = sweep_report
    details = []
    ok = True
    # k = 1: raw gaps at s = 0.02 and extrapolated verdicts, both recorded
    for (k, bkey), rows in sorted(rep.trajectories.items()):
        rows = sorted(rows, key=lambda r: -r["s"])
        last = rows[-1]
        details.append(
            f"k={k} b=({','.join(bkey)}) raw={np.round(last['gaps'][:3], 4).tolist()}"
        )
    for key in ("limit_match_k1", "limit_match_k2", "gap_tail_monotone_k1",
                "gap_tail_monotone_k2", "bs_zero_persistence_k1", "bs_zero_persistence_k2"):
        ok = ok and rep.verdicts[key]["ok"]
    rich = [
        g
        for v in (rep.verdicts["limit_match_k1"], rep.verdicts["limit_match_k2"])
        for d in v["detail"].values()
        for g in d["richardson_gaps"]
    ]
    ok = ok and max(rich) <= 0.05 and elapsed < 300
    report(
        "criterion 3 spectral convergence",
        ok,
        f"extrapolated gaps <= {max(rich):.4f} (<= 0.05), verdicts pass, "
        f"{elapsed:.0f}s (< 300s); " + "; ".join(details),
    )


def test_criterion_4_limit_operator_consistency():
    t0 = time.time()
    worst_rel = 0.0
    worst_bottom = 0.0
    min_gap_ratio = np.inf
    # right-angled cones at the default mesh, then the 60-, 45- and 120-degree
    # sectors at h = R/80 (33,025 dofs; the default R/56 is 1.25% off in the
    # sixth value at 45 degrees); the 45-degree sector is a slanted corner of
    # simplex2 under the default psi
    cp2 = make_potential_spec(simplex2())
    slanted = cone_at(cp2, [b for b in bs_points(simplex2(), 1) if b.point[0] == 1][0])
    shapes = [(m, np.eye(n), None) for n in (1, 2) for m in range(0, n + 1)]
    shapes += [(2, A0, 80.0) for A0 in ([[2.0, 1.0], [1.0, 2.0]], slanted.A0,
                                        [[2.0, -1.0], [-1.0, 2.0]])]
    for m, A0, h_div in shapes:
        for k in (1, 2):
            cone = ConeModel(codim=m, A0=np.asarray(A0))
            h = None if h_div is None else default_truncation_radius(k) / h_div
            flat = numeric_cone_spectrum(cone, k, 6, target_h=h)
            exact = exact_cone_spectrum(cone, k, n_max=24).flat(6)
            worst_bottom = max(worst_bottom, abs(flat[0]))
            rel = np.max(np.abs(flat[1:] - exact[1:]) / exact[1:])
            worst_rel = max(worst_rel, float(rel))
            min_gap_ratio = min(min_gap_ratio, (flat[1] - flat[0]) / k)
    elapsed = time.time() - t0
    ok = (
        worst_rel <= 0.01
        and worst_bottom < 1e-6
        and min_gap_ratio > 0.1
        and elapsed < 120
    )
    report(
        "criterion 4 limit operator",
        ok,
        f"numeric vs exact rel err <= {worst_rel:.4f} (<= 0.01), |bottom| <= "
        f"{worst_bottom:.1e} (< 1e-6), gap/k >= {min_gap_ratio:.2f} (> 0.1), "
        f"{elapsed:.0f}s (< 120s)",
    )


def test_criterion_5_ricci_closed_forms(rng):
    t0 = time.time()
    worst_model = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, n + 1))
        B = rng.normal(size=(n, n))
        A = B @ B.T + (0.5 + rng.random()) * np.eye(n)
        y = rng.uniform(0.08, 3.0, size=m)
        s = 10.0 ** rng.uniform(-2, 0)
        mod = ModelSpec(A=A, y=y)
        T_closed = model_T(mod, s)
        T_general = ricci_of_potential(model_potential(mod, s), mod.x_coords(s)).T
        scale = max(np.abs(T_general).max(), 1e-30)
        worst_model = max(worst_model, float(np.abs(T_closed - T_general).max() / scale))

    worst_prime = 0.0
    for _ in range(20):
        y = rng.uniform(0.05, 3.0, size=2)
        s = 10.0 ** rng.uniform(-2, 0)
        tp, ratios = model_T_prime(y, np.array([]), s)
        mod = ModelSpec(A=np.eye(2), y=y)
        scale = max(np.abs(tp).max(), 1e-30)
        worst_prime = max(
            worst_prime, float(np.abs(np.diag(model_T(mod, s)) - tp).max() / scale)
        )
        worst_prime = max(
            worst_prime,
            float(np.abs(tp / ((y + 1.0) / s) - ratios).max() / max(np.abs(ratios).max(), 1e-30)),
        )

    worst_oracle = 0.0
    for trial in range(2):
        phi = PolynomialFn(
            dim=2,
            terms=(
                ((2, 0), float(rng.uniform(0.0, 0.2))),
                ((1, 1), float(rng.uniform(-0.1, 0.1))),
                ((0, 2), float(rng.uniform(0.0, 0.2))),
            ),
        )
        spec = make_potential_spec(simplex2(), phi=phi)
        for _ in range(5):
            x = rng.uniform(0.08, 0.32, size=2)
            ric = christoffel_ricci_oracle(spec, 0.5, x)
            T = ricci_general(spec, 0.5, x).T
            worst_oracle = max(
                worst_oracle, float(np.abs(ric - T / 2).max() / np.abs(T / 2).max())
            )
    elapsed = time.time() - t0
    ok = (
        worst_model <= 1e-8
        and worst_prime <= 1e-12
        and worst_oracle <= 1e-5
        and elapsed < 60
    )
    report(
        "criterion 5 ricci closed forms",
        ok,
        f"model vs general {worst_model:.2e} (<= 1e-8), reference diagonal "
        f"{worst_prime:.2e} (<= 1e-12), fd oracle {worst_oracle:.2e} (<= 1e-5), "
        f"{elapsed:.0f}s (< 60s)",
    )


def test_criterion_6_ricci_lower_bound_trends():
    t0 = time.time()
    s_list = [1.0, 0.1, 0.01]
    _, inf_identity = ricci_lower_bound_scan(
        np.eye(2), 2, 2, s_list, [50.0, 5.0], grid_points=12
    )
    bounded_ok = min(inf_identity.values()) >= -1e-9

    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    _, inf_skew = ricci_lower_bound_scan(
        A, 2, 2, s_list, [50.0, 50.0], grid_points=12, allow_corner=True
    )
    vals = [inf_skew[s] for s in s_list]
    decreasing_ok = vals[1] <= 0.7 * vals[0] and vals[2] <= 0.7 * vals[1]
    elapsed = time.time() - t0
    ok = bounded_ok and decreasing_ok and elapsed < 60
    report(
        "criterion 6 curvature lower bounds",
        ok,
        f"identity-model inf >= {min(inf_identity.values()):.2e} across s (single constant); "
        f"skew corner infimum decreases without stabilizing: {['%.2e' % v for v in vals]}, "
        f"{elapsed:.0f}s (< 60s)",
    )


def test_criterion_7_localization(sweep_report):
    rep, _ = sweep_report
    rows = [r for r in rep.localization_rows if r["k"] == 1]
    small_s = [r for r in rows if r["s"] <= 0.1]
    mass_ok = all(r["mass_at_c5"] >= 0.99 for r in small_s)
    by_mode = {}
    for r in rows:
        by_mode.setdefault(tuple(r["mode"]), []).append((r["s"], r["c_min"]))
    trend_ok = True
    for series in by_mode.values():
        series.sort(key=lambda t: -t[0])
        tail = [c for s, c in series if s <= 0.1]
        for prev, nxt in zip(tail, tail[1:]):
            if nxt > 1.2 * prev:
                trend_ok = False
    worst_mass = min(r["mass_at_c5"] for r in small_s)
    ok = mass_ok and trend_ok
    report(
        "criterion 7 localization",
        ok,
        f"mass in B(b, 5 sqrt(s)) >= {worst_mass:.4f} (>= 0.99) for s <= 0.1; "
        f"minimal c nonincreasing within 20%: {trend_ok}",
    )


def test_criterion_8_combinatorial_invariants(rng):
    t0 = time.time()
    checked = 0
    for _ in range(200):
        P = random_delzant(rng, int(rng.integers(1, 3)))
        k = int(rng.integers(1, 5))
        assert len(bs_points(P, k)) == brute_force_bs_count(P, k)
        checked += 1

    minor_trials = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n))
        while abs(np.linalg.det(A)) < 1e-3:
            A = rng.normal(size=(n, n))
        size = int(rng.integers(0, n + 1))
        I = sorted(rng.choice(n, size=size, replace=False).tolist())
        assert minor_identity_holds(A, I)
        minor_trials += 1

    seeded = {
        "unbounded": [((1, 0), 0), ((0, 1), 0)],
        "non_primitive": [((2, 0), 0), ((0, 1), 0), ((-1, -1), -1)],
        "redundant": [
            ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 0), -1),
        ],
        "non_unimodular": [((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)],
        "empty": [((1,), 0), ((-1,), 0)],
    }
    expected = {
        "unbounded": errors.Unbounded,
        "non_primitive": errors.NonPrimitiveNormal,
        "redundant": errors.RedundantFacet,
        "non_unimodular": errors.NotDelzant,
        "empty": errors.EmptyInterior,
    }
    rejected = {}
    for name, raw in seeded.items():
        problems = delzant_violations(raw)
        rejected[name] = bool(problems) and any(
            isinstance(p, expected[name]) for p in problems
        )
    elapsed = time.time() - t0
    ok = all(rejected.values()) and elapsed < 30
    report(
        "criterion 8 combinatorial invariants",
        ok,
        f"{checked} random polytopes match brute-force counting, {minor_trials} minor "
        f"identities pass, violation classes rejected {rejected}, {elapsed:.0f}s (< 30s)",
    )
