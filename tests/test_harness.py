"""Sweep orchestration, report emission, standalone checks and the CLI."""

import hashlib
import json

import numpy as np
import pytest

from toricspec import cli, errors, harness
from toricspec.harness import (
    C_GRID,
    LOCALIZATION_MASS,
    ConvergenceReport,
    SweepConfig,
    _localization_masses,
    emit_reports,
    fiber_diameter_check,
    run_sweep,
    sweep_config_from_json,
)
from toricspec.mesh import build_mesh
from toricspec.operator import OperatorFactory, solve_eigs
from toricspec.polytope import bs_points, polytope_to_json, segment, simplex2
from toricspec.potential import PolynomialFn, make_potential_spec


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

    def test_non_bs_modes_reported(self, cp1_report):
        flag = cp1_report.verdicts["non_bs_divergence_k1"]
        assert flag["increasing"]     # at least one margin mode tracked
        assert all(flag["increasing"].values())


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
        masses = _localization_masses(
            factory, points, {m: sp.vectors[:, 0] for m, sp in spectra.items()}, s
        )

        mesh = factory.mesh
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

    def test_fiber_diameter_bound_and_scaling(self):
        spec = make_potential_spec(segment())
        rows, C, bound = fiber_diameter_check(spec, [1.0, 0.1, 0.01])
        assert C <= bound + 1e-12
        assert abs(C - bound) <= 0.1 * bound
        # psi scaled by 4 scales the constant by 1/4
        spec4 = make_potential_spec(
            segment(), psi=PolynomialFn(dim=1, terms=(((2,), 2.0),))
        )
        _, C4, bound4 = fiber_diameter_check(spec4, [1.0, 0.1, 0.01])
        assert np.isclose(bound4, bound / 4)
        assert abs(C4 - C / 4) <= 0.1 * (C / 4)

    def test_fiber_grid_insensitivity(self):
        spec = make_potential_spec(simplex2())
        _, C_coarse, _ = fiber_diameter_check(spec, [0.1, 0.01], grid_per_dim=5)
        _, C_fine, _ = fiber_diameter_check(spec, [0.1, 0.01], grid_per_dim=15)
        assert abs(C_coarse - C_fine) <= 0.15 * C_fine


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
        assert "NotDelzant" in capsys.readouterr().out

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

    def test_spectrum_verb(self, tmp_path, capsys):
        poly = self._write_inputs(tmp_path)
        code = cli.main(
            ["spectrum", "--polytope", poly, "--s", "0.1", "--level", "1",
             "--mode", "[0]", "--h", "0.01", "--count", "2"]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["dbar_eigenvalues"][0] < 1e-3

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
            raise errors.ConvergenceFailure("no convergence")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        poly = self._write_inputs(tmp_path)
        assert cli.main(["sweep", "--polytope", poly, "--k-list", "1", "--s-list", "0.1"]) == 3
        assert "solver error: no convergence" in capsys.readouterr().err

    def test_ricci_scan_verb(self, capsys):
        code = cli.main(
            ["ricci-scan", "--matrix", "[[1.0, 0.0], [0.0, 1.0]]",
             "--s-list", "1,0.1", "--z-max", "[5.0, 5.0]",
             "--allow-corner", "--grid-points", "5"]
        )
        assert code == 0
        assert "inf(min_ratio)" in capsys.readouterr().out
