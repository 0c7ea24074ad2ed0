"""Command line interface: check, bs, ricci-scan, spectrum, limit, sweep, report.

Exit codes: 0 pass, 1 verdict failure, 2 input error, 3 solver failure.
Values in a --config file take precedence over the corresponding flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import errors
from .curvature import ricci_lower_bound_scan
from .errors import _finite_float
from .harness import ConvergenceReport, emit_reports, run_sweep, sweep_config_from_json
from .limit import predicted_limit
from .mesh import build_mesh
from .operator import dbar_spectrum
from .polytope import _facets_from_json, bs_points, delzant_violations, polytope_from_json
from .potential import make_potential_spec, potential_spec_from_json
from .reports import write_csv, write_json

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _load_polytope(path):
    with open(path, encoding="ascii") as f:
        return polytope_from_json(f.read())


def _load_spec(polytope, path):
    if path is None:
        return make_potential_spec(polytope)
    with open(path, encoding="ascii") as f:
        return potential_spec_from_json(polytope, f.read())


def _number_list(text, flag):
    """The comma-separated JSON numbers of a list flag, as a list."""
    try:
        return json.loads(f"[{text}]")
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated JSON numbers, got {text!r}") from None


def cmd_check(args):
    with open(args.polytope, encoding="ascii") as f:
        raw, dim = _facets_from_json(f.read())
    problems = delzant_violations(raw, dim=dim)
    if problems:
        for p in problems:
            print(f"violation: {type(p).__name__}: {p}")
        return EXIT_VERDICT
    print("valid Delzant polytope")
    return EXIT_PASS


def cmd_bs(args):
    P = _load_polytope(args.polytope)
    for b in bs_points(P, args.level):
        print(
            json.dumps(
                {
                    "point": [str(c) for c in b.point],
                    "strict_level": b.strict_level,
                    "face_codim": b.face_codim,
                },
                sort_keys=True,
            )
        )
    return EXIT_PASS


def cmd_ricci_scan(args):
    A = json.loads(args.matrix)
    rule = "--matrix must be a JSON n x n matrix of finite numbers, n >= 1"
    if not (isinstance(A, list) and A and all(isinstance(row, list) and len(row) == len(A) for row in A)):
        raise ValueError(f"{rule}, got {args.matrix}")
    A, n = np.array([[_finite_float(v, rule) for v in row] for row in A]), len(A)
    z_max = json.loads(args.z_max)
    if not (isinstance(z_max, list) and z_max):
        raise ValueError(f"--z-max must be a non-empty JSON list, got {args.z_max}")
    rows, infimum = ricci_lower_bound_scan(
        A,
        n,
        len(z_max),
        _number_list(args.s_list, "--s-list"),
        z_max,
        grid_points=args.grid_points,
        allow_corner=args.allow_corner,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(
            os.path.join(args.out, "ricci_scan.csv"),
            ["s"] + [f"x{i + 1}" for i in range(n)] + ["min_ratio"],
            [[s] + list(x) + [r] for s, x, r in rows],
        )
        write_json(
            os.path.join(args.out, "ricci_scan_summary.json"),
            {"infimum_per_s": {repr(k): v for k, v in infimum.items()}},
        )
    for s, inf in sorted(infimum.items(), reverse=True):
        print(f"s={s:g} inf(min_ratio)={inf:.6g}")
    return EXIT_PASS


def cmd_spectrum(args):
    P = _load_polytope(args.polytope)
    spec = _load_spec(P, args.potential)
    mode = json.loads(args.mode)
    mesh = build_mesh(P, args.h)
    dbar, spectrum = dbar_spectrum(spec, args.s, args.level, mode, mesh, args.count)
    record = {
        "s": float(args.s),
        "k": int(args.level),
        "mode": mode,
        "dbar_eigenvalues": [float(v) for v in dbar],
        "residuals": [float(r) for r in spectrum.residuals],
        "dofs": int(mesh.num_nodes),
        "h": float(mesh.max_diameter()),
        "steps": int(spectrum.steps),
        "factor_nnz": int(spectrum.factor_nnz),
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_PASS


def cmd_limit(args):
    P = _load_polytope(args.polytope)
    spec = _load_spec(P, args.potential)
    for b, ls in sorted(predicted_limit(spec, args.level, args.count).items(), key=lambda kv: kv[0].point):
        record = {
            "b": [str(c) for c in b.point],
            "k": int(args.level),
            "exact": bool(ls.exact),
            "eigenvalues": [float(v) for v in ls.values],
            "multiplicities": [int(m) for m in ls.multiplicities],
        }
        print(json.dumps(record, sort_keys=True))
    return EXIT_PASS


def cmd_sweep(args):
    if args.config:
        with open(args.config, encoding="ascii") as f:
            data = json.load(f)
        base = os.path.dirname(os.path.abspath(args.config))
    elif args.polytope:
        # the flags become the config-file dict, so both paths share one loader
        data = {
            "polytope": args.polytope,
            "k_list": _number_list(args.k_list, "--k-list"),
            "s_list": _number_list(args.s_list, "--s-list"),
        }
        if args.potential:
            data["potential"] = args.potential
        base = "."
    else:
        print("sweep needs --config or --polytope", file=sys.stderr)
        return EXIT_INPUT
    config = sweep_config_from_json(data, base_dir=base)
    # a config file's out is relative to the file, as its input paths are
    out_dir = os.path.join(base, data["out"]) if "out" in data else args.out
    if out_dir:
        # an unwritable output path is an input error, found before the solves
        os.makedirs(out_dir, exist_ok=True)
    report = run_sweep(config)
    if out_dir:
        emit_reports(report, out_dir)
    for name, verdict in sorted(report.verdicts.items()):
        print(f"{name}: {'pass' if verdict.get('ok') else 'FAIL'}")
    if report.partial:
        print(f"{len(report.failures)} solver failures", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_PASS if report.passed() else EXIT_VERDICT


def cmd_report(args):
    with open(args.report, encoding="ascii") as f:
        report = ConvergenceReport.from_json(json.load(f))
    emit_reports(report, args.out)
    return EXIT_PASS


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toricspec",
        description="Spectral laboratory for degenerating toric Kahler metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a polytope file")
    p.add_argument("--polytope", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bs", help="list quantized points of a level")
    p.add_argument("--polytope", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_bs)

    p = sub.add_parser("ricci-scan", help="corner-model curvature lower-bound scan")
    p.add_argument("--matrix", required=True, help="JSON n x n positive definite matrix")
    p.add_argument("--s-list", required=True, help="comma separated, strictly descending")
    p.add_argument("--z-max", required=True, help="JSON list of z bounds per corner direction")
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--allow-corner", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ricci_scan)

    p = sub.add_parser("spectrum", help="solve one reduced mode")
    p.add_argument("--polytope", required=True)
    p.add_argument("--potential")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mode", required=True, help="JSON integer vector")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--count", type=int, default=4)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("limit", help="limit spectra at quantized points")
    p.add_argument("--polytope", required=True)
    p.add_argument("--potential")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("sweep", help="full s-sweep with verdicts")
    p.add_argument("--config", help="sweep JSON; overrides flags")
    p.add_argument("--polytope")
    p.add_argument("--potential")
    p.add_argument("--k-list", default="1")
    p.add_argument("--s-list", default="0.2,0.1,0.05,0.02")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-emit files from a saved report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, errors.InputError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except errors.ToricSpecError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
