"""Sweep orchestration, report emission, standalone checks and the CLI."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
import scipy.linalg

from toricspec import cli, errors, harness
from toricspec.harness import (
    C_GRID,
    LOCALIZATION_MASS,
    ConvergenceReport,
    SweepConfig,
    _localization_masses,
    emit_reports,
    run_sweep,
    sweep_config_from_json,
)
from toricspec.limit import predicted_limit
from toricspec.mesh import build_mesh
from toricspec.operator import OperatorFactory, solve_eigs
from toricspec.polytope import bs_points, hirzebruch, polytope_to_json, segment, simplex2
from toricspec.potential import make_potential_spec

HUGE = 10**400      # a JSON integer too large for a float


@pytest.fixture(scope="module")
def cp1_report():
    spec = make_potential_spec(segment())
    config = SweepConfig(spec=spec, k_list=(1,), s_list=(0.2, 0.1, 0.05, 0.02), eig_count=4)
    return run_sweep(config)


class TestConfig:
    def test_rejects_ascending_s(self):
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError):
            SweepConfig(spec=spec, k_list=(1,), s_list=(0.1, 0.2))

    def test_rejects_non_finite_s(self):
        spec = make_potential_spec(segment())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="s_list must be finite"):
                SweepConfig(spec=spec, k_list=(1,), s_list=(bad, 0.1))

    def test_rejects_repeated_s(self, tmp_path):
        # a repeated s would divide the Richardson step by zero
        spec = make_potential_spec(segment())
        msg = "strictly descending"
        with pytest.raises(ValueError, match=msg):
            SweepConfig(spec=spec, k_list=(1,), s_list=(0.2, 0.1, 0.1))
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        with pytest.raises(ValueError, match=msg):
            sweep_config_from_json(
                {"polytope": "p.json", "k_list": [1], "s_list": [0.2, 0.1, 0.1]},
                base_dir=str(tmp_path),
            )

    def test_rejects_zero_count(self):
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError):
            SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), eig_count=0)

    def test_rejects_empty_s_list(self, tmp_path, capsys, monkeypatch):
        # a sweep over no s solves nothing, so every verdict would pass vacuously
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError, match="s_list must name at least one s"):
            SweepConfig(spec=spec, k_list=(1,), s_list=())
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"polytope": "p.json", "k_list": [1], "s_list": []}))
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "s_list must name at least one s" in capsys.readouterr().err
        assert cli.main(["sweep", "--polytope", str(poly), "--k-list", "1", "--s-list", ""]) == 2
        assert "s_list must name at least one s" in capsys.readouterr().err
        assert solves == []

    def test_rejects_bad_levels_and_h(self, tmp_path, capsys):
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError, match="k_list"):
            SweepConfig(spec=spec, k_list=(), s_list=(0.1,))
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        # h_factor, h_floor and h_list are not config keys: the mesh size follows h_of alone
        bad = ({"k_list": []}, {"h_factor": 0.0}, {"h_factor": -40.0},
               {"h_factor": float("inf")}, {"h_floor": 0.0}, {"h_floor": -1e-3},
               {"h_floor": float("nan")}, {"h_list": [0.01]})
        for kwargs in bad:
            data = {"polytope": "p.json", "k_list": [1], "s_list": [0.1], **kwargs}
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(data))
            assert cli.main(["sweep", "--config", str(cfg)]) == 2
            assert next(iter(kwargs)) in capsys.readouterr().err

    def test_rejects_bad_scalar_types(self, tmp_path):
        spec = make_potential_spec(segment())
        # a scalar level or s list is an input error, not a TypeError
        bad = ({"eig_count": "4"}, {"eig_count": 2.5}, {"eig_count": True},
               {"mode_margin": 1.0}, {"k_list": 1}, {"s_list": 0.1})
        for kwargs in bad:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                SweepConfig(**{"spec": spec, "k_list": (1,), "s_list": (0.1,), **kwargs})
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        for kwargs in bad:
            data = {"polytope": "p.json", "k_list": [1], "s_list": [0.1], **kwargs}
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(data))
            assert cli.main(["sweep", "--config", str(cfg)]) == 2
        # numpy scalars pass like Python ones
        cfg = SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), eig_count=np.int64(3))
        assert cfg.eig_count == 3

    def test_rejects_bad_list_entries(self, tmp_path):
        # JSON lists can hold fractions, booleans and strings; none may become a level or an s
        spec = make_potential_spec(segment())
        bad = ({"k_list": [1.5]}, {"k_list": [True]}, {"k_list": [0]}, {"k_list": ["1"]},
               {"s_list": [True, 0.1]}, {"s_list": ["0.1"]})
        for kwargs in bad:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                SweepConfig(**{"spec": spec, "k_list": (1,), "s_list": (0.1,), **kwargs})
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        for kwargs in bad:
            data = {"polytope": "p.json", "k_list": [1], "s_list": [0.1], **kwargs}
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(data))
            assert cli.main(["sweep", "--config", str(cfg)]) == 2
        # integer s and numpy entries are accepted and stored as Python scalars
        cfg = SweepConfig(spec=spec, k_list=(np.int64(2),), s_list=(1, np.float64(0.5)))
        assert cfg.k_list == (2,) and type(cfg.k_list[0]) is int
        assert cfg.s_list == (1.0, 0.5) and all(type(s) is float for s in cfg.s_list)

    def test_rejects_negative_mode_margin(self, tmp_path, capsys, monkeypatch):
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError, match="mode_margin must be an integer >= 0, got -1"):
            SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), mode_margin=-1)
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"polytope": "p.json", "k_list": [1], "s_list": [0.1], "mode_margin": -1}))
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "mode_margin" in capsys.readouterr().err and solves == []
        assert SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), mode_margin=0).mode_margin == 0

    def test_rejects_repeated_level(self):
        # each level is judged on its own rows, so a level runs once
        spec = make_potential_spec(segment())
        with pytest.raises(ValueError, match="k_list must not repeat a level"):
            SweepConfig(spec=spec, k_list=(1, 2, 1), s_list=(0.1,))

    def test_numpy_scalars_emit_like_python_ones(self, tmp_path):
        # numpy counts are stored as ints, so the report serializes
        spec = make_potential_spec(segment())
        cfg = SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), eig_count=np.int64(2),
                          mode_margin=np.int64(0))
        assert type(cfg.eig_count) is int and type(cfg.mode_margin) is int
        ref = SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), eig_count=2, mode_margin=0)
        emit_reports(run_sweep(cfg), str(tmp_path / "a"))
        emit_reports(run_sweep(ref), str(tmp_path / "b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_h_rule(self):
        spec = make_potential_spec(segment())
        cfg = SweepConfig(spec=spec, k_list=(1,), s_list=(0.04,))
        assert np.isclose(cfg.h_of(0.04), 0.2 / 40)
        assert cfg.h_of(1e-9) == 1.0 / 800.0
        cfg2 = SweepConfig(spec=make_potential_spec(simplex2()), k_list=(1,), s_list=(0.04,))
        assert cfg2.h_of(0.04) == 1.0 / 80.0 and np.isclose(cfg2.h_of(16.0), 0.1)

    def test_from_json(self, tmp_path):
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        cfg = sweep_config_from_json(
            {"polytope": "p.json", "k_list": [1], "s_list": [0.2, 0.1], "eig_count": 2},
            base_dir=str(tmp_path),
        )
        assert cfg.eig_count == 2 and cfg.spec.polytope.dim == 1

    def test_rejects_unknown_keys(self, tmp_path):
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        base = {"polytope": "p.json", "k_list": [1], "s_list": [0.2], "out": "o"}
        for extra in ({"eig_cout": 9}, {"workers": 4}):
            with pytest.raises(ValueError, match=next(iter(extra))):
                sweep_config_from_json({**base, **extra}, base_dir=str(tmp_path))
        assert sweep_config_from_json(base, base_dir=str(tmp_path)).eig_count == 4

    def test_missing_polytope_is_input_error(self, tmp_path, capsys):
        data = {"k_list": [1], "s_list": [0.2]}
        with pytest.raises(ValueError, match="^sweep config needs a polytope$"):
            sweep_config_from_json(data, base_dir=str(tmp_path))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "input error: sweep config needs a polytope\n"

    @pytest.mark.parametrize("key", ["k_list", "s_list"])
    def test_missing_list_names_the_key(self, tmp_path, capsys, monkeypatch, key):
        # a config without a level or an s list is an input error (exit 2)
        # naming the key, not a bare KeyError
        poly = tmp_path / "p.json"
        poly.write_text(polytope_to_json(segment()))
        data = {"polytope": "p.json", "k_list": [1], "s_list": [0.2]}
        del data[key]
        with pytest.raises(ValueError, match=f"^sweep config needs {key}$"):
            sweep_config_from_json(data, base_dir=str(tmp_path))
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"input error: sweep config needs {key}\n"
        assert solves == []


class TestSweep:
    def test_verdicts_pass(self, cp1_report):
        assert cp1_report.passed()
        assert not cp1_report.partial

    def test_kernel_rows(self, cp1_report):
        for row in cp1_report.kernel_rows:
            assert row["zero_modes"] == row["lattice_count"] == 2

    def test_gap_columns(self, cp1_report):
        for rows in cp1_report.trajectories.values():
            assert len(rows) == 4
            for r in rows:
                assert len(r["gaps"]) >= 3

    def test_one_gap_per_solved_value(self):
        # eig_count = 12 needs predicted values up to 2 k (eig_count - 1)
        spec = make_potential_spec(segment())
        report = run_sweep(SweepConfig(spec=spec, k_list=(1,), s_list=(0.1,), eig_count=12))
        rows = [r for rows in report.trajectories.values() for r in rows]
        assert len(rows) == 2
        assert all(len(r["predicted"]) == len(r["gaps"]) == 12 for r in rows)

    def test_one_mesh_per_h(self, monkeypatch):
        # s = 0.002 and 0.001 both sit at the 1-D floor h = 1/800
        built = []

        def counting_build_mesh(*args, **kwargs):
            built.append(args[1])
            return build_mesh(*args, **kwargs)

        monkeypatch.setattr(harness, "build_mesh", counting_build_mesh)
        spec = make_potential_spec(segment())
        run_sweep(SweepConfig(spec=spec, k_list=(1, 2), s_list=(0.1, 0.002, 0.001), eig_count=2))
        assert sorted(built) == [1 / 800, np.sqrt(0.1) / 40]

    @pytest.mark.parametrize("failure", ["overflow", "shift"])
    def test_one_failed_mode(self, cp1_report, monkeypatch, failure):
        # one mode at one s fails, at assembly or in its batch's solve: it
        # gets one failure row, and every other row matches an unbroken sweep
        class Failing(OperatorFactory):
            def __init__(self, spec, s, k, mesh):
                super().__init__(spec, s, k, mesh)
                self.s = s

            def operator(self, mode):
                op = super().operator(mode)
                if self.s != 0.05 or tuple(mode) != (2,):
                    return op
                if failure == "overflow":
                    raise errors.ToricSpecError("injected overflow")
                low = scipy.linalg.eigh(
                    op.K.toarray(), op.M.toarray(), subset_by_index=(0, 1), eigvals_only=True
                )
                return dataclasses.replace(op, sigma=0.5 * (low[0] + low[1]))

        monkeypatch.setattr("toricspec.operator.OperatorFactory", Failing)
        spec = make_potential_spec(segment())
        report = run_sweep(SweepConfig(spec=spec, k_list=(1,), s_list=(0.2, 0.1, 0.05, 0.02), eig_count=4))
        assert [(f["k"], f["s"], f["mode"]) for f in report.failures] == [(1, 0.05, [2])]
        assert ("injected" if failure == "overflow" else "negative pivots") in report.failures[0]["error"]
        expect = [r for r in cp1_report.eig_rows if (r["s"], r["mode"]) != (0.05, [2])]
        assert len(report.eig_rows) == len(expect) == len(cp1_report.eig_rows) - 1
        for got, want in zip(report.eig_rows, expect):
            assert {**got, "dbar": None} == {**want, "dbar": None}
            assert np.allclose(got["dbar"], want["dbar"], rtol=0, atol=1e-12 * 2)
        assert report.kernel_rows == cp1_report.kernel_rows
        assert [r["c_min"] for r in report.localization_rows] == [
            r["c_min"] for r in cp1_report.localization_rows
        ]

    def test_non_bs_modes_reported(self, cp1_report):
        flag = cp1_report.verdicts["non_bs_divergence_k1"]
        assert flag["increasing"]     # at least one margin mode tracked
        assert all(flag["increasing"].values())


CP1_LIMIT = np.array([0.0, 2.0, 4.0])     # cp1 oscillator values 2 k j at k = 1


def _cp1_sweep(s_list, monkeypatch=None, predicted=None):
    """cp1 sweep at k = 1 with three values; ``predicted`` replaces the limit values.

    The replacement offsets every quantized point's true limit spectrum, so
    the verdicts judge the solved values against ``predicted``.
    """
    if predicted is not None:
        class Offset:
            def __init__(self, limit):
                self.limit = limit

            def flat(self, count):
                return self.limit.flat(count) + (np.asarray(predicted) - CP1_LIMIT)[:count]

        def offset_limit(spec, k, count):
            return {b: Offset(ls) for b, ls in predicted_limit(spec, k, count=count).items()}

        monkeypatch.setattr(harness, "predicted_limit", offset_limit)
    spec = make_potential_spec(segment())
    return run_sweep(SweepConfig(spec=spec, k_list=(1,), s_list=s_list, eig_count=3))


def _last_two(report):
    """(s, dbar) of the last two rows of the trajectory at b = 0."""
    rows = report.trajectories[(1, ("0",))]
    return [(r["s"], np.array(r["dbar"])) for r in rows[-2:]]


def _extrapolated(report):
    """The sqrt(s)-rate Richardson value from the last two s values at b = 0."""
    (s1, l1), (s2, l2) = _last_two(report)
    w1, w2 = np.sqrt(s1), np.sqrt(s2)
    return l2 + (l2 - l1) * w2 / (w1 - w2)


def _gaps(values, predicted):
    return np.abs(values - predicted) / np.maximum(predicted, 1.0)


class TestVerdicts:
    # each sweep offsets the limit predictions so that the raw gap at the
    # smallest s and the Richardson gap land on known sides of LIMIT_REL_TOL

    def test_one_s_has_no_richardson_gap(self, monkeypatch):
        solved = _cp1_sweep((0.1,))
        dbar = np.array(solved.trajectories[(1, ("0",))][-1]["dbar"])
        report = _cp1_sweep((0.1,), monkeypatch, predicted=dbar)
        verdict = report.verdicts["limit_match_k1"]
        assert verdict["ok"]
        for detail in verdict["detail"].values():
            assert detail["richardson_gaps"] == [None, None, None]
            assert max(detail["raw_gaps_at_smallest_s"]) < 1e-12

    def test_two_s_judged_on_raw_gap(self, monkeypatch):
        s_list = (0.1, 0.05)
        solved = _cp1_sweep(s_list)
        lam = _extrapolated(solved)
        # 4% above the extrapolated values: Richardson passes, the raw gap fails
        predicted = 1.04 * lam
        last = _last_two(solved)[-1][1]
        assert max(_gaps(last, predicted)) > 1.5 * harness.LIMIT_REL_TOL
        report = _cp1_sweep(s_list, monkeypatch, predicted=predicted)
        verdict = report.verdicts["limit_match_k1"]
        assert not verdict["ok"]
        detail = verdict["detail"]["b=(0)"]
        assert np.allclose(detail["richardson_gaps"], _gaps(lam, predicted), rtol=1e-9, atol=1e-15)
        assert max(detail["richardson_gaps"]) < 0.8 * harness.LIMIT_REL_TOL
        assert np.allclose(detail["raw_gaps_at_smallest_s"], _gaps(last, predicted), rtol=1e-9, atol=1e-15)
        # predicted at the solved values: the raw gap is zero and passes
        report = _cp1_sweep(s_list, monkeypatch, predicted=last)
        verdict = report.verdicts["limit_match_k1"]
        assert verdict["ok"]
        assert all(g is not None for d in verdict["detail"].values() for g in d["richardson_gaps"])

    @pytest.mark.parametrize("s_list", [(0.2, 0.1, 0.05), (0.4, 0.2, 0.1, 0.05)])
    def test_three_s_judged_by_richardson(self, monkeypatch, s_list):
        solved = _cp1_sweep(s_list)
        lam = _extrapolated(solved)
        last = _last_two(solved)[-1][1]
        # raw fails and Richardson passes: the sweep passes
        predicted = 1.04 * lam
        assert max(_gaps(last, predicted)) > 1.5 * harness.LIMIT_REL_TOL
        report = _cp1_sweep(s_list, monkeypatch, predicted=predicted)
        verdict = report.verdicts["limit_match_k1"]
        assert verdict["ok"]
        for detail in verdict["detail"].values():
            assert max(detail["raw_gaps_at_smallest_s"]) > 1.5 * harness.LIMIT_REL_TOL
            assert max(detail["richardson_gaps"]) < 0.8 * harness.LIMIT_REL_TOL
        # Richardson fails although the raw gap passes: the sweep fails
        predicted = last + 0.03 * np.maximum(last, 1.0) * np.sign(last - lam)
        assert max(_gaps(lam, predicted)) > 1.5 * harness.LIMIT_REL_TOL
        report = _cp1_sweep(s_list, monkeypatch, predicted=predicted)
        verdict = report.verdicts["limit_match_k1"]
        assert not verdict["ok"]
        for detail in verdict["detail"].values():
            assert max(detail["raw_gaps_at_smallest_s"]) < 0.8 * harness.LIMIT_REL_TOL

    def test_rising_gap_fails_tail(self, monkeypatch):
        s_list = (0.2, 0.1, 0.05)
        solved = _cp1_sweep(s_list)
        assert solved.verdicts["gap_tail_monotone_k1"]["ok"]
        (_, prev), (_, last) = _last_two(solved)
        # predicted at the values of the previous s: that gap is 0, the last one is not
        assert max(_gaps(last, prev)) > 10 * harness.TAIL_ABS
        report = _cp1_sweep(s_list, monkeypatch, predicted=prev)
        assert not report.verdicts["gap_tail_monotone_k1"]["ok"]
        # a gap that falls by half keeps the tail monotone
        report = _cp1_sweep(s_list, monkeypatch, predicted=last + 2 * (last - prev))
        assert report.verdicts["gap_tail_monotone_k1"]["ok"]

    def test_two_failed_modes_at_one_s(self, cp1_report, monkeypatch):
        # mode 2 overflows at assembly and mode -1 gets a shift above its
        # lowest eigenvalue; both fail at s = 0.05, and rows keep mode order
        class Failing(OperatorFactory):
            def __init__(self, spec, s, k, mesh):
                super().__init__(spec, s, k, mesh)
                self.s = s

            def operator(self, mode):
                op = super().operator(mode)
                if self.s != 0.05 or tuple(mode) not in ((-1,), (2,)):
                    return op
                if tuple(mode) == (2,):
                    raise errors.ToricSpecError("injected overflow")
                low = scipy.linalg.eigh(
                    op.K.toarray(), op.M.toarray(), subset_by_index=(0, 1), eigvals_only=True
                )
                return dataclasses.replace(op, sigma=0.5 * (low[0] + low[1]))

        monkeypatch.setattr("toricspec.operator.OperatorFactory", Failing)
        spec = make_potential_spec(segment())
        report = run_sweep(SweepConfig(spec=spec, k_list=(1,), s_list=(0.2, 0.1, 0.05, 0.02), eig_count=4))
        assert [(f["k"], f["s"], f["mode"]) for f in report.failures] == [(1, 0.05, [-1]), (1, 0.05, [2])]
        assert "negative pivots" in report.failures[0]["error"]
        assert "injected overflow" in report.failures[1]["error"]
        expect = [r for r in cp1_report.eig_rows if r["s"] != 0.05 or r["mode"] not in ([-1], [2])]
        assert len(report.eig_rows) == len(expect) == len(cp1_report.eig_rows) - 2
        for got, want in zip(report.eig_rows, expect):
            assert {**got, "dbar": None} == {**want, "dbar": None}
            assert np.allclose(got["dbar"], want["dbar"], rtol=0, atol=1e-12 * 2)
        assert report.kernel_rows == cp1_report.kernel_rows
        assert report.localization_rows == cp1_report.localization_rows
        assert report.trajectories.keys() == cp1_report.trajectories.keys()
        for key, rows in report.trajectories.items():
            for got, want in zip(rows, cp1_report.trajectories[key], strict=True):
                assert got["s"] == want["s"] and got["predicted"] == want["predicted"]
                assert np.allclose(got["dbar"], want["dbar"], rtol=0, atol=1e-12 * 2)
        assert {key: v["ok"] for key, v in report.verdicts.items()} == {
            key: v["ok"] for key, v in cp1_report.verdicts.items()
        }
        assert report.verdicts["non_bs_divergence_k1"] == cp1_report.verdicts["non_bs_divergence_k1"]

    def test_notes_state_the_constants(self):
        # the notes land in every report.json: each number they state is the
        # one the verdicts use
        notes = harness.VERDICT_NOTES

        def number(key, pattern):
            return float(re.search(pattern, notes[key]).group(1))

        assert number("kernel_tol", r"< ([\d.e-]+)$") == harness.KERNEL_TOL
        assert number("bs_zero_tol", r"< ([\d.e-]+) at every s$") == harness.BS_ZERO_TOL
        assert number("limit_match", r"gaps <= ([\d.e-]+):") == harness.LIMIT_REL_TOL
        assert number("tail_monotone", r"<= ([\d.]+) x previous gap") == harness.TAIL_NOISE
        assert number("tail_monotone", r"\+ ([\d.e-]+)$") == harness.TAIL_ABS
        assert number("localization", r">= ([\d.]+)% quadrature mass") / 100 == harness.LOCALIZATION_MASS
        assert set(np.diff(harness.C_GRID)) == {number("localization", r"on a ([\d.]+)-grid")}
        # a level judged on five values checks the stated min(3, eig_count) of them
        checked = number("limit_match", r"lowest min\((\d+), eig_count\) gaps")
        rows = [{"s": s, "dbar": [0.0] * 5, "predicted": [1.0] * 5, "gaps": [1.0] * 5} for s in (0.2, 0.1)]
        detail = harness._judge_level(1, [], {("0",): rows}, {})["limit_match_k1"]["detail"]["b=(0)"]
        assert len(detail["raw_gaps_at_smallest_s"]) == len(detail["richardson_gaps"]) == checked


class TestEmission:
    def test_cp1_file_census(self, cp1_report, tmp_path):
        files = emit_reports(cp1_report, str(tmp_path))
        svgs = [f for f in files if f.endswith(".svg")]
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(svgs) == 2
        assert len(csvs) == 3
        assert "report.json" in files

    def test_byte_identical(self, cp1_report, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        files = emit_reports(cp1_report, str(d1))
        emit_reports(cp1_report, str(d2))
        for f in files:
            h1 = hashlib.sha256((d1 / f).read_bytes()).hexdigest()
            h2 = hashlib.sha256((d2 / f).read_bytes()).hexdigest()
            assert h1 == h2

    def test_rerun_byte_identical(self, cp1_report, tmp_path):
        # a second sweep of the same config, not only a second emission
        spec = make_potential_spec(segment())
        config = SweepConfig(spec=spec, k_list=(1,), s_list=(0.2, 0.1, 0.05, 0.02), eig_count=4)
        emit_reports(cp1_report, str(tmp_path / "a"))
        emit_reports(run_sweep(config), str(tmp_path / "b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_empty_report(self, tmp_path):
        report = ConvergenceReport(meta={})
        files = emit_reports(report, str(tmp_path))
        assert files == ["report.json"]
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["eigenvalues"] == [] and data["kernel_counts"] == []


class TestStandaloneChecks:
    def test_localization_masses_match_masked_quadrature(self):
        # reference: one masked quadrature of the interpolated mode per c
        spec = make_potential_spec(segment())
        config = SweepConfig(spec=spec, k_list=(2,), s_list=(0.05,))
        s = 0.05
        factory = OperatorFactory(spec, s, 2, build_mesh(spec.polytope, config.h_of(s)))
        points = bs_points(spec.polytope, 2)
        spectra = {b.mode: solve_eigs(factory.operator(b.mode), 1) for b in points}
        mesh = factory.mesh
        masses = _localization_masses(
            mesh, points, {m: sp.vectors[:, 0] for m, sp in spectra.items()}, s
        )

        qw, bary, q = mesh.qweights, mesh.bary, mesh.qpoints
        centers = np.array([[float(c) for c in b.point] for b in points])
        dmin = np.sqrt(np.min(np.sum((q[:, :, None, :] - centers) ** 2, axis=-1), axis=-1))
        for b in points:
            vals = np.einsum("qi,ci->cq", bary, spectra[b.mode].vectors[:, 0][mesh.cells])
            total = float(np.sum(qw * vals * vals))
            fracs = {}
            for c in C_GRID:
                mask = (dmin <= c * np.sqrt(s)).astype(float)
                fracs[c] = float(np.sum(qw * mask * vals * vals)) / total
            c_min = next(c for c in C_GRID if fracs[c] >= LOCALIZATION_MASS)
            assert masses[b.mode] == (c_min, fracs[5.0])


class TestCli:
    def _write_inputs(self, tmp_path):
        poly = tmp_path / "cp1.json"
        poly.write_text(polytope_to_json(segment()))
        return str(poly)

    def test_check_valid(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        assert cli.main(["check", "--polytope", poly]) == 0
        assert "valid" in capsys.readouterr().out

    def test_check_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"dim": 2, "facets": [
                    {"normal": [1, 0], "offset": 0},
                    {"normal": [0, 1], "offset": 0},
                    {"normal": [-1, -2], "offset": -2},
                ]}
            )
        )
        assert cli.main(["check", "--polytope", str(bad)]) == 1
        assert capsys.readouterr().out == "violation: NotDelzant: vertex (0, 1) has a non-unimodular cone\n"
        # a verb that loads the polytope stops on the same text
        code = cli.main(["spectrum", "--polytope", str(bad), "--s", "0.1", "--level", "1",
                         "--mode", "[0, 0]", "--h", "0.25"])
        assert code == 2
        assert capsys.readouterr().err == "input error: vertex (0, 1) has a non-unimodular cone\n"

    def test_check_wrong_length_normal(self, tmp_path, capsys):
        # a malformed normal is an input error (2), not a Delzant verdict (1)
        for normal in ([1], [1, 0, 7]):
            bad = tmp_path / "bad.json"
            bad.write_text(
                json.dumps(
                    {"dim": 2, "facets": [
                        {"normal": [1, 0], "offset": 0},
                        {"normal": normal, "offset": 0},
                        {"normal": [-1, -1], "offset": -1},
                    ]}
                )
            )
            assert cli.main(["check", "--polytope", str(bad)]) == 2
            assert "normal 1 has" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["check", "--polytope", str(bad)]) == 2

    def test_bs_and_limit(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        assert cli.main(["bs", "--polytope", poly, "--level", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert cli.main(["limit", "--polytope", poly, "--level", "1", "--count", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert json.loads(out[0])["eigenvalues"][:3] == [0.0, 2.0, 4.0]

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_limit_rejects_count_below_one(self, tmp_path, capsys, count):
        poly = self._write_inputs(tmp_path)
        assert cli.main(["limit", "--polytope", poly, "--level", "1", f"--count={count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err and f"count must be an integer >= 1, got {count}" in captured.err

    def test_spectrum_verb(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        code = cli.main(
            ["spectrum", "--polytope", poly, "--s", "0.1", "--level", "1",
             "--mode", "[0]", "--h", "0.01", "--count", "2"]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["dbar_eigenvalues"][0] < 1e-3
        # the solver record: Lanczos steps and the factor's stored entries
        assert rec["steps"] >= 2 and rec["factor_nnz"] >= rec["dofs"]

    def test_spectrum_rejects_bad_h(self, tmp_path, capsys):
        # a zero, negative, infinite or nan mesh size is an input error
        poly = self._write_inputs(tmp_path)
        tri = tmp_path / "cp2.json"
        tri.write_text(polytope_to_json(simplex2()))
        for path, mode, h in ((poly, "[0]", "0"), (poly, "[0]", "-0.5"),
                              (poly, "[0]", "inf"), (str(tri), "[0, 0]", "nan")):
            code = cli.main(
                ["spectrum", "--polytope", path, "--s", "0.1", "--level", "1",
                 "--mode", mode, f"--h={h}", "--count", "2"]
            )
            assert code == 2
            assert "target_h" in capsys.readouterr().err

    @pytest.mark.parametrize("polytope, flag, value, message", [
        ("cp1", "--mode", "[1,2]", "mode must have 1 integer entries"),
        ("cp2", "--mode", "[1]", "mode must have 2 integer entries"),
        ("cp1", "--mode", "[1.5]", "mode must have 1 integer entries"),
        ("cp1", "--mode", "5", "mode must have 1 integer entries"),
        ("cp1", "--level", "0", "level k must be"),
        ("cp1", "--level", "-1", "level k must be"),
        ("cp1", "--s", "nan", "s must be finite"),
        ("cp1", "--s", "inf", "s must be finite"),
        ("cp1", "--count", "0", "count 0 must be >= 1"),
    ])
    def test_spectrum_rejects_bad_input(self, tmp_path, capsys, polytope, flag, value, message):
        # each bad input is an input error (exit 2) whose message names it
        path = tmp_path / f"{polytope}.json"
        path.write_text(polytope_to_json(segment() if polytope == "cp1" else simplex2()))
        flags = {"--s": "0.1", "--level": "1", "--mode": "[0]" if polytope == "cp1" else "[0, 0]",
                 "--h": "0.25", "--count": "2", flag: value}
        code = cli.main(["spectrum", "--polytope", str(path)] + [f"{f}={v}" for f, v in flags.items()])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err

    @pytest.mark.parametrize("verb", ["spectrum", "limit", "sweep"])
    @pytest.mark.parametrize("polytope, potential, message", [
        ("cp1", {"psi": [{"alpha": [2], "c": -0.5}]}, "Hess(psi) fails at"),
        ("square", {"phi": [{"alpha": [2, 0], "c": -3.0}]}, "Hess(v_P + phi) fails at"),
    ])
    def test_non_admissible_potential_is_input_error(self, tmp_path, capsys, monkeypatch, verb, polytope,
                                                     potential, message):
        # a potential that is not positive definite is the caller's input: exit 2, before any solve
        P = segment() if polytope == "cp1" else hirzebruch(0)
        poly, pot = tmp_path / "poly.json", tmp_path / "pot.json"
        poly.write_text(polytope_to_json(P))
        pot.write_text(json.dumps(potential))
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        flags = {"spectrum": ["--s", "0.1", "--level", "1", "--mode", json.dumps([0] * P.dim), "--h", "0.25"],
                 "limit": ["--level", "1"], "sweep": ["--k-list", "1"]}[verb]
        assert cli.main([verb, "--polytope", str(poly), "--potential", str(pot)] + flags) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err and solves == []

    def test_sweep_rejects_non_finite_s(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        for s_list in ("NaN,0.1", "Infinity,0.1"):
            assert cli.main(["sweep", "--polytope", poly, "--k-list", "1", "--s-list", s_list]) == 2
            assert "s_list must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, flag", [("sweep", "--k-list"), ("sweep", "--s-list"), ("ricci-scan", "--s-list")])
    @pytest.mark.parametrize("text", ["1_0", ".5", "1,,0.5"])
    def test_list_flags_take_json_numbers(self, tmp_path, capsys, monkeypatch, verb, flag, text):
        # every list flag is one comma-separated list of JSON numbers: a
        # Python-only literal or an empty entry is an input error naming the flag
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        if verb == "sweep":
            flags = ["--polytope", self._write_inputs(tmp_path)]
        else:
            flags = ["--matrix", "[[1]]", "--z-max", "[5]"]
        assert cli.main([verb] + flags + [flag, text]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {flag} must be comma-separated JSON numbers, got {text!r}\n"
        assert solves == []

    def test_config_out_is_relative_to_the_config(self, tmp_path, capsys, monkeypatch):
        # a config's "out", like its "polytope", is a path beside the config
        # file; the --out flag stays relative to the working directory
        cfgdir = tmp_path / "cfgdir"
        cfgdir.mkdir()
        self._write_inputs(cfgdir)
        data = {"polytope": "cp1.json", "k_list": [1], "s_list": [0.2, 0.1, 0.05, 0.02]}
        (cfgdir / "with_out.json").write_text(json.dumps({**data, "out": "results"}))
        (cfgdir / "no_out.json").write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep", "--config", "cfgdir/with_out.json"]) == 0
        assert cli.main(["sweep", "--config", "cfgdir/no_out.json", "--out", "flag_out"]) == 0
        capsys.readouterr()
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("report.json")) == [
            "cfgdir/results/report.json", "flag_out/report.json"]

    def test_sweep_flags_with_potential(self, tmp_path, capsys):
        # --potential on the flag path reads the file as the config key does
        poly = self._write_inputs(tmp_path)
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"psi": [{"alpha": [2], "c": 2.0}]}))
        flags = ["sweep", "--polytope", poly, "--k-list", "1"]
        assert cli.main(flags + ["--potential", str(pot), "--out", str(tmp_path / "flags")]) == 0
        assert cli.main(flags + ["--out", str(tmp_path / "default")]) == 0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"polytope": "cp1.json", "potential": "pot.json", "k_list": [1],
                                   "s_list": [0.2, 0.1, 0.05, 0.02], "out": str(tmp_path / "config")}))
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        report = (tmp_path / "flags" / "report.json").read_bytes()
        assert report == (tmp_path / "config" / "report.json").read_bytes()
        assert report != (tmp_path / "default" / "report.json").read_bytes()

    def test_sweep_needs_config_or_polytope(self, capsys):
        assert cli.main(["sweep", "--k-list", "1"]) == 2
        assert capsys.readouterr().err == "sweep needs --config or --polytope\n"

    def test_sweep_exits_3_on_a_failed_mode(self, tmp_path, capsys, monkeypatch):
        # one mode fails at one s: the sweep finishes, reports it and exits 3
        class Failing(OperatorFactory):
            def __init__(self, spec, s, k, mesh):
                super().__init__(spec, s, k, mesh)
                self.s = s

            def operator(self, mode):
                if self.s == 0.05 and tuple(mode) == (2,):
                    raise errors.ToricSpecError("injected overflow")
                return super().operator(mode)

        monkeypatch.setattr("toricspec.operator.OperatorFactory", Failing)
        poly = self._write_inputs(tmp_path)
        assert cli.main(["sweep", "--polytope", poly, "--k-list", "1"]) == 3
        assert capsys.readouterr().err == "1 solver failures\n"

    def test_sweep_and_report_roundtrip(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        cfg = tmp_path / "sweep.json"
        out1 = tmp_path / "out1"
        cfg.write_text(
            json.dumps(
                {
                    "polytope": "cp1.json",
                    "k_list": [1],
                    "s_list": [0.2, 0.1, 0.05, 0.02],
                    "eig_count": 3,
                    "out": str(out1),
                }
            )
        )
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (out1 / "report.json").exists()
        out2 = tmp_path / "out2"
        assert cli.main(
            ["report", "--report", str(out1 / "report.json"), "--out", str(out2)]
        ) == 0
        # every emitted file: report.json, three CSVs and two trajectory SVGs
        files = sorted(p.name for p in out1.iterdir())
        assert len(files) == 6
        assert sorted(p.name for p in out2.iterdir()) == files
        for f in files:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert ConvergenceReport.from_json(report).to_json() == report

    def test_unwritable_out_is_input_error(self, tmp_path, capsys, monkeypatch):
        # an output path under a regular file cannot be created: exit 2 before any solve
        poly = self._write_inputs(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad_out = str(blocker / "out")
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda config: calls.append(config) or run_sweep(config))
        code = cli.main(["sweep", "--polytope", poly, "--k-list", "1",
                         "--s-list", "0.2,0.1", "--out", bad_out])
        assert code == 2 and calls == []
        assert "input error" in capsys.readouterr().err
        report = tmp_path / "report.json"
        report.write_text(json.dumps(ConvergenceReport(meta={}).to_json()))
        assert cli.main(["report", "--report", str(report), "--out", bad_out]) == 2
        assert "input error" in capsys.readouterr().err

    def test_exit_codes_by_error_class(self, tmp_path, capsys, monkeypatch):
        # polytope errors are input errors (2); solver errors are exit 3
        unbounded = tmp_path / "open.json"
        unbounded.write_text(json.dumps(
            {"dim": 2, "facets": [{"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0}]}
        ))
        assert cli.main(["bs", "--polytope", str(unbounded), "--level", "1"]) == 2
        assert "input error" in capsys.readouterr().err

        def failing_sweep(config):
            raise errors.ToricSpecError("no convergence")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        poly = self._write_inputs(tmp_path)
        assert cli.main(["sweep", "--polytope", poly, "--k-list", "1", "--s-list", "0.1"]) == 3
        assert "solver error: no convergence" in capsys.readouterr().err

    def test_unsupported_dimension_is_input_error(self, tmp_path, capsys):
        # the 3-simplex has skew 3-D vertex cones and no 3-D mesh: nothing is
        # solved, so both verbs exit 2, not the solver-failure 3
        poly = tmp_path / "cp3.json"
        poly.write_text(json.dumps({"dim": 3, "facets": [
            {"normal": [1, 0, 0], "offset": 0},
            {"normal": [0, 1, 0], "offset": 0},
            {"normal": [0, 0, 1], "offset": 0},
            {"normal": [-1, -1, -1], "offset": -1},
        ]}))
        assert cli.main(["limit", "--polytope", str(poly), "--level", "1"]) == 2
        assert "no closed form" in capsys.readouterr().err
        code = cli.main(["spectrum", "--polytope", str(poly), "--s", "0.1", "--level", "1",
                         "--mode", "[0, 0, 0]", "--h", "0.1"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_ricci_scan_verb(self, tmp_path, capsys):
        out = tmp_path / "scan"
        code = cli.main(
            ["ricci-scan", "--matrix", "[[1.0, 0.0], [0.0, 1.0]]",
             "--s-list", "1,0.1", "--z-max", "[5.0, 5.0]",
             "--allow-corner", "--grid-points", "5", "--out", str(out)]
        )
        assert code == 0
        assert "inf(min_ratio)" in capsys.readouterr().out
        header, *rows = (out / "ricci_scan.csv").read_text().splitlines()
        assert header == "s,x1,x2,min_ratio"
        assert rows and all(len(row.split(",")) == 4 for row in rows)
        summary = json.loads((out / "ricci_scan_summary.json").read_text())
        assert sorted(summary["infimum_per_s"]) == ["0.1", "1.0"]

    @pytest.mark.parametrize("matrix, z_max, message", [
        ("[[1, 5], [0, 1]]", "[5, 5]", "symmetric"),     # symmetric part is indefinite
        ("[[2]]", "[5, 5]", "m = 2"),                     # two corner directions in n = 1
        ("[[2, 0], [0, 2]]", "[0, 1]", "z_max entry must be finite and positive"),  # no geometric grid
        ("[[2]]", "[Infinity]", "z_max entry must be finite and positive"),
        ("[[2]]", "[-5]", "z_max entry must be finite and positive"),
        ("[[2, 0], [0, 2]]", "[5, true]", "z_max entry must be finite and positive"),
        ("[[1, 0], [0, -1]]", "[5]", "model matrix A must be positive definite"),
        ("[[2, 1], [1, 2]]", "[50, 50]", "reaches past 5.0 in two corner directions"),    # no --allow-corner
    ])
    def test_ricci_scan_rejects_bad_model(self, capsys, matrix, z_max, message):
        code = cli.main(["ricci-scan", "--matrix", matrix, "--s-list", "1", "--z-max", z_max])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err

    # each malformed input file or flag: (verb, the bad file's name and
    # content, or None for a flag, the extra flags, the words naming the input)
    MALFORMED = {
        "potential_unknown_key": ("limit", ("pot.json", {"psii": [{"alpha": [2], "c": 1.0}]}), [],
                                  "potential must be an object"),
        "potential_not_object": ("limit", ("pot.json", [3]), [], "potential must be an object"),
        "potential_alpha_length": ("limit", ("pot.json", {"phi": [{"alpha": [2, 0], "c": 1.0}]}), [],
                                   "potential phi must list terms {alpha: 1 integers"),
        "potential_alpha_negative": ("limit", ("pot.json", {"psi": [{"alpha": [-1], "c": 1.0}]}), [],
                                     "potential psi must list terms"),
        "polytope_facets_check": ("check", ("poly.json", {"dim": 1, "facets": 3}), [], "polytope must be"),
        "polytope_facets_bs": ("bs", ("poly.json", {"dim": 1, "facets": 3}), ["--level", "1"],
                               "polytope must be"),
        "sweep_not_object": ("sweep", ("sweep.json", [1]), [], "sweep config must be a JSON object"),
        "sweep_polytope_number": ("sweep", ("sweep.json", {"polytope": 5, "k_list": [1], "s_list": [0.1]}),
                                  [], "polytope must be"),
        "sweep_potential_number": ("sweep", ("sweep.json", {"polytope": "cp1.json", "potential": 7,
                                                            "k_list": [1], "s_list": [0.1]}),
                                   [], "potential must be an object"),
        "sweep_out_number": ("sweep", ("sweep.json", {"polytope": "cp1.json", "k_list": [1], "s_list": [0.1],
                                                      "out": 5}), [], "sweep config out must be a non-empty"),
        "sweep_out_null": ("sweep", ("sweep.json", {"polytope": "cp1.json", "k_list": [1], "s_list": [0.1],
                                                    "out": None}), [], "sweep config out must be a non-empty"),
        "sweep_out_empty": ("sweep", ("sweep.json", {"polytope": "cp1.json", "k_list": [1], "s_list": [0.1],
                                                     "out": ""}), [], "sweep config out must be a non-empty"),
        "sweep_out_bool": ("sweep", ("sweep.json", {"polytope": "cp1.json", "k_list": [1], "s_list": [0.1],
                                                    "out": True}), [], "sweep config out must be a non-empty"),
        "ricci_matrix_empty": ("ricci-scan", None, ["--matrix", "[]", "--s-list", "1", "--z-max", "[5]"],
                               "--matrix must be a JSON n x n matrix of finite numbers, n >= 1"),
        "ricci_matrix_scalar": ("ricci-scan", None, ["--matrix", "5", "--s-list", "1", "--z-max", "[5]"],
                                "--matrix must be a JSON n x n matrix"),
        "ricci_z_max_scalar": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "5"],
                               "--z-max must be a non-empty JSON list"),
        "ricci_z_max_null": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "[null]"],
                             "z_max entry must be finite and positive"),
        "ricci_z_max_empty": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "[]"],
                              "--z-max must be a non-empty JSON list"),
        "ricci_z_max_nested": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "[[5]]"],
                               "z_max entry must be finite and positive"),
        "ricci_z_max_object": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "{}"],
                               "--z-max must be a non-empty JSON list"),
        "ricci_s_zero": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "0", "--z-max", "[5]"],
                         "s must be finite and positive"),
        "ricci_s_negative": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1,-1", "--z-max", "[5]"],
                             "s must be finite and positive"),
        # an integer too large for a float is not a finite number
        "ricci_matrix_huge": ("ricci-scan", None, ["--matrix", f"[[{HUGE}]]", "--s-list", "1", "--z-max", "[5]"],
                              "--matrix must be a JSON n x n matrix of finite numbers"),
        "ricci_z_max_huge": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", f"[{HUGE}]"],
                             "z_max entry must be finite and positive"),
        "potential_c_huge": ("limit", ("pot.json", {"psi": [{"alpha": [2], "c": HUGE}]}), [],
                             "potential psi must list terms"),
        "sweep_s_huge": ("sweep", ("sweep.json", {"polytope": "cp1.json", "k_list": [1], "s_list": [HUGE]}),
                         [], "s_list must be finite"),
        "ricci_grid_points_zero": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "[5]",
                                                        "--grid-points", "0"], "grid_points must be an integer >= 1"),
        "ricci_grid_points_negative": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1", "--z-max", "[5]",
                                                            "--grid-points=-3"], "grid_points must be an integer >= 1"),
        # a repeated s wrote every row of ricci_scan.csv twice
        "ricci_s_repeated": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "1,1", "--z-max", "[5]"],
                             "s_list must be strictly descending"),
        "ricci_s_ascending": ("ricci-scan", None, ["--matrix", "[[1]]", "--s-list", "0.1,1", "--z-max", "[5]"],
                              "s_list must be strictly descending"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_file_is_input_error(self, tmp_path, capsys, monkeypatch, case):
        verb, bad, flags, message = self.MALFORMED[case]
        poly = self._write_inputs(tmp_path)
        solves = []
        monkeypatch.setattr(cli, "run_sweep", solves.append)
        if bad is not None:
            name, content = bad
            (tmp_path / name).write_text(json.dumps(content))
            flag = {"pot.json": "--potential", "poly.json": "--polytope", "sweep.json": "--config"}[name]
            flags = flags + [flag, str(tmp_path / name)]
            if verb == "limit":
                flags += ["--polytope", poly, "--level", "1"]
        assert cli.main([verb] + flags) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert solves == [] and not list(tmp_path.rglob("report.json"))
