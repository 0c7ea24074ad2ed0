"""Limit oscillators on cones: exact combinatorics vs weighted FEM."""

import dataclasses
import json
from itertools import combinations, product

import numpy as np
import pytest

from conftest import (
    affine_pullback,
    check_mesh,
    random_delzant,
    random_unimodular,
    transform_polytope,
)
from toricspec import cli, errors, limit
from toricspec.limit import (
    ConeModel,
    cone_at,
    default_truncation_radius,
    exact_cone_spectrum,
    is_separable,
    numeric_cone_spectrum,
    predicted_limit,
    truncated_cone_mesh,
)
from toricspec.polytope import (
    LocalChart,
    bs_points,
    hirzebruch,
    local_chart,
    polytope_to_json,
    segment,
    simplex2,
    validate_delzant,
)
from toricspec.potential import PolynomialFn, make_potential_spec


def synthetic_cone(n, m, A0=None):
    A0 = np.eye(n) if A0 is None else np.asarray(A0, dtype=float)
    return ConeModel(codim=m, A0=A0)


def brute_multiplicity(N, m, n, cap=40):
    count = 0
    for kappa in product(range(cap), repeat=n):
        if 2 * sum(kappa[:m]) + sum(kappa[m:]) == N:
            count += 1
    return count


class TestCones:
    def test_interval_vertex(self):
        spec = make_potential_spec(segment())
        b = bs_points(segment(), 1)[0]
        cone = cone_at(spec, b)
        assert cone.codim == 1 and np.allclose(cone.A0, 1.0)

    def test_interval_midpoint(self):
        spec = make_potential_spec(segment())
        b = [p for p in bs_points(segment(), 2) if p.face_codim == 0][0]
        cone = cone_at(spec, b)
        assert cone.codim == 0

    def test_simplex_corner_right_angle(self):
        spec = make_potential_spec(simplex2())
        b = [p for p in bs_points(simplex2(), 1) if p.face_codim == 2][0]
        cone = cone_at(spec, b)
        assert cone.codim == 2
        assert np.allclose(cone.facet_normals() @ cone.facet_normals().T, np.eye(2))


class TestSeparability:
    def test_low_codim_always(self):
        assert is_separable(synthetic_cone(2, 0))
        assert is_separable(synthetic_cone(2, 1, A0=[[2, 1], [1, 2]]))

    def test_identity_always(self):
        assert is_separable(synthetic_cone(2, 2))

    def test_skew_not(self):
        assert not is_separable(synthetic_cone(2, 2, A0=[[2, 1], [1, 2]]))

    def test_scale_invariant(self):
        # face cosine 5e-8, far above SEPARABLE_TOL; a tolerance relative to
        # inv(A0)'s largest diagonal entry (1 here) would call it right-angled
        cone = synthetic_cone(2, 2, A0=np.linalg.inv([[1, 5e-13], [5e-13, 1e-10]]))
        u = cone.facet_normals()
        assert abs(u[0] @ u[1] - 5e-8) < 1e-12
        assert not is_separable(cone)
        values = exact_cone_spectrum(cone, 1, n_max=4).values
        assert len(values) == 6 and abs(values[1] - 2.0) < 1e-7 and values[2] == 2.0


class TestExactSpectra:
    def test_half_line(self):
        ls = exact_cone_spectrum(synthetic_cone(1, 1), 1, n_max=8)
        assert ls.values == (0.0, 2.0, 4.0, 6.0, 8.0)
        assert all(m == 1 for m in ls.multiplicities)

    def test_line(self):
        ls = exact_cone_spectrum(synthetic_cone(1, 0), 1, n_max=4)
        assert ls.values == (0.0, 1.0, 2.0, 3.0, 4.0)

    def test_wedge_multiplicity(self):
        ls = exact_cone_spectrum(synthetic_cone(2, 1), 1, n_max=4)
        by_value = dict(zip(ls.values, ls.multiplicities))
        assert by_value[2.0] == brute_multiplicity(2, 1, 2)
        assert by_value[2.0] == 2

    def test_brute_force_multiplicities(self):
        for n, m in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            ls = exact_cone_spectrum(synthetic_cone(n, m), 1, n_max=6)
            for v, mult in zip(ls.values, ls.multiplicities):
                assert mult == brute_multiplicity(int(round(v)), m, n)

    def test_multiplicity_sum_rule(self):
        n, m, n_max = 2, 1, 6
        ls = exact_cone_spectrum(synthetic_cone(n, m), 1, n_max=n_max)
        total = sum(ls.multiplicities)
        brute = sum(
            1
            for kappa in product(range(n_max + 1), repeat=n)
            if 2 * sum(kappa[:m]) + sum(kappa[m:]) <= n_max
        )
        assert total == brute

    def test_skew_raises(self):
        # every 2-D cone has a closed form; a skew 3-D corner has none
        A0 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        for m in (2, 3):
            with pytest.raises(errors.InputError, match="no closed form"):
                exact_cone_spectrum(synthetic_cone(3, m, A0=A0), 1)

    def test_sector_at_right_angle_is_the_product_formula(self):
        for k in (1, 2, 3):
            for n_max in (0, 1, 2, 7, 12, 24):
                sector = limit._sector_spectrum(k, np.pi / 2, n_max)
                square = exact_cone_spectrum(synthetic_cone(2, 2), k, n_max=n_max)
                assert sector.values == square.values
                assert sector.multiplicities == square.multiplicities

    def test_skew_sectors(self):
        # half the Neumann oscillator on a sector of opening alpha has the
        # values k (2 j + l pi / alpha); pi / alpha = 3, 3/2, 4 at 60, 120, 45 degrees
        cases = (
            ([[2, 1], [1, 2]], (0, 2, 3, 4, 5, 6, 7, 8), (1, 1, 1, 1, 1, 2, 1, 2)),
            ([[2, -1], [-1, 2]], (0, 1.5, 2, 3, 3.5, 4, 4.5, 5), (1, 1, 1, 1, 1, 1, 1, 1)),
            ([[2, 1], [1, 1]], (0, 2, 4, 6, 8, 10), (1, 1, 2, 2, 3, 3)),
        )
        for A0, values, mults in cases:
            for k in (1, 2):
                ls = exact_cone_spectrum(synthetic_cone(2, 2, A0=A0), k, n_max=10)
                assert ls.exact and ls.values[0] == 0.0
                n = len(values)
                assert np.allclose(ls.values[:n], k * np.array(values), rtol=1e-12, atol=0)
                assert ls.multiplicities[:n] == mults
                assert max(ls.values) <= 10 * k

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_level_rule(self, k):
        # the level rule of bs_points and mode_set: at k = 0 the values would
        # all be 0, and at k = -1 they would descend
        for cone in (synthetic_cone(1, 1), synthetic_cone(2, 2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))):
            with pytest.raises(ValueError, match="level k"):
                exact_cone_spectrum(cone, k)
            with pytest.raises(ValueError, match="level k"):
                numeric_cone_spectrum(cone, k, 3)
        # k = 0 raised ZeroDivisionError, and k = -1 gave nan with a warning
        with pytest.raises(ValueError, match="level k must be an integer >= 1"):
            default_truncation_radius(k)
        half_line = synthetic_cone(1, 1)
        assert exact_cone_spectrum(half_line, np.int64(2)) == exact_cone_spectrum(half_line, 2)
        assert default_truncation_radius(np.int64(2)) == default_truncation_radius(2)

    @pytest.mark.parametrize("n_max", [-1, True, 2.0])
    def test_n_max_rule(self, n_max):
        # n_max = -1 gave an empty spectrum, and True was taken as 1
        for cone in (synthetic_cone(1, 1), synthetic_cone(2, 2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))):
            with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
                exact_cone_spectrum(cone, 1, n_max=n_max)
            assert exact_cone_spectrum(cone, 1, n_max=0).values == (0.0,)

    @pytest.mark.parametrize("count", [-2, True, 1.0])
    def test_flat_count_rule(self, count):
        # flat(-2) gave every value but the last two
        ls = exact_cone_spectrum(synthetic_cone(1, 1), 1, n_max=4)
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            ls.flat(count)
        assert len(ls.flat(0)) == 0 and len(ls.flat(np.int64(2))) == 2


class TestNumericSpectra:
    def test_half_line_within_percent(self):
        cone = synthetic_cone(1, 1)
        num = numeric_cone_spectrum(cone, 1, 6)
        exact = exact_cone_spectrum(cone, 1, n_max=12).flat(6)
        assert abs(num[0]) < 1e-6
        assert np.all(np.abs(num[1:] - exact[1:]) <= 0.01 * exact[1:])

    def test_plane_k1_multiplicities(self):
        cone = synthetic_cone(2, 0)
        num = numeric_cone_spectrum(cone, 1, 6)
        exact = exact_cone_spectrum(cone, 1, n_max=8).flat(6)
        assert np.all(np.abs(num[1:] - exact[1:]) <= 0.02 * exact[1:])

    def test_skew_wedge_golden_and_self_convergence(self):
        # A0 = [[2,1],[1,2]] opens a 60-degree wedge; the Neumann oscillator
        # there keeps the dihedral-invariant plane modes (angular index in
        # 3Z), so half its spectrum is {0, 2, 3, 4, 5, 6, 6, ...}
        cone = synthetic_cone(2, 2, A0=[[2.0, 1.0], [1.0, 2.0]])
        coarse = numeric_cone_spectrum(cone, 1, 6)
        R = default_truncation_radius(1)
        fine = numeric_cone_spectrum(cone, 1, 6, target_h=R / 112.0)
        assert abs(coarse[0]) < 1e-6
        assert np.all(np.abs(coarse[1:] - fine[1:]) <= 0.01 * fine[1:])
        golden = np.array([0.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.all(np.abs(fine - golden) <= 0.01 * np.maximum(golden, 1.0))

    def test_bottom_gap_contract(self):
        for n, m, k in ((1, 1, 1), (1, 0, 2), (2, 2, 1)):
            flat = numeric_cone_spectrum(synthetic_cone(n, m), k, 4)
            assert abs(flat[0]) < 1e-6
            assert flat[1] - flat[0] > 0.1 * k

    def test_bottom_off_zero_raises(self, monkeypatch):
        # a bottom value off zero means the truncation radius cut the ground state
        solve = limit.solve_eigs

        def lifted(op, count):
            sp = solve(op, count)
            return dataclasses.replace(sp, eigenvalues=sp.eigenvalues + 1e-3)

        monkeypatch.setattr(limit, "solve_eigs", lifted)
        with pytest.raises(errors.ToricSpecError, match="^bottom eigenvalue 1.000e-03 off zero$") as excinfo:
            numeric_cone_spectrum(synthetic_cone(1, 1), 1, 4)
        assert excinfo.type is errors.ToricSpecError

    def test_chart_independence_via_orthogonal_map(self):
        # two normalizations of the same corner give congruent cones; solving
        # on the orthogonally mapped mesh reproduces the spectrum exactly
        cone1 = synthetic_cone(2, 2, A0=np.eye(2))
        theta = 0.3
        O = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        half1 = numeric_cone_spectrum(cone1, 1, 5)
        from toricspec.mesh import Mesh
        from toricspec.operator import ReducedOperator, assemble_p1, solve_eigs

        R = default_truncation_radius(1)
        mesh1 = truncated_cone_mesh(cone1, R, R / 56.0)

        nodes2 = mesh1.nodes @ O.T
        mesh2 = Mesh(dim=2, nodes=nodes2, cells=mesh1.cells.copy())
        q = mesh2.qpoints.reshape(-1, 2)
        weight = np.exp(-np.sum(q * q, axis=1)).reshape(mesh2.qweights.shape)
        sp2 = solve_eigs(ReducedOperator(*assemble_p1(mesh2, weight), sigma=-1.0), 5)
        assert np.max(np.abs(0.5 * sp2.eigenvalues - half1)) < 1e-6


def _box_cut_vertices(nu, R):
    """Vertices of {|xi|_inf <= R, nu . xi >= 0} by brute force over pairs of sides."""
    A = np.vstack([np.eye(2), -np.eye(2), -nu])
    b = np.concatenate([np.full(4, R), np.zeros(len(nu))])
    verts = []
    for i, j in combinations(range(len(A)), 2):
        if abs(np.linalg.det(A[[i, j]])) > 1e-12:
            x = np.linalg.solve(A[[i, j]], b[[i, j]])
            if np.all(A @ x <= b + 1e-12 * R) and not any(np.allclose(x, v) for v in verts):
                verts.append(x)
    return np.array(verts)


class TestTruncatedConeMesh:
    @pytest.mark.parametrize("A0, m", [
        (np.eye(2), 0), (np.eye(2), 1), (np.eye(2), 2),
        ([[2, 1], [1, 2]], 1), ([[2, 1], [1, 2]], 2), ([[2, 1], [1, 1]], 2), ([[2, -1], [-1, 2]], 2),
        # A0^(-1/2) = [[1, 1], [1, 3]] or [[1, -1], [-1, 3]]: the first face
        # runs through two corners of the box
        (np.linalg.inv(np.array([[2, 4], [4, 10]])), 1), (np.linalg.inv(np.array([[2, 4], [4, 10]])), 2),
        (np.linalg.inv(np.array([[2, -4], [-4, 10]])), 1), (np.linalg.inv(np.array([[2, -4], [-4, 10]])), 2),
    ])
    def test_region_is_the_box_cut_by_the_faces(self, A0, m):
        # the mesh covers the cone within the box, and only it: nodes inside,
        # cells non-degenerate, and the area of the brute-force polygon
        cone = synthetic_cone(2, m, A0=A0)
        R = default_truncation_radius(1)
        mesh = truncated_cone_mesh(cone, R, R / 8.0)
        check_mesh(mesh)
        nu = cone.facet_normals()
        assert np.abs(mesh.nodes).max() <= R * (1 + 1e-14)
        assert m == 0 or (mesh.nodes @ nu.T).min() >= -1e-14 * R
        verts = _box_cut_vertices(nu, R)
        c = verts - verts.mean(axis=0)
        x, y = verts[np.argsort(np.arctan2(c[:, 1], c[:, 0]))].T
        area = 0.5 * (x @ np.roll(y, -1) - y @ np.roll(x, -1))
        assert abs(mesh.qweights.sum() - area) <= 1e-12 * area

    def test_dimension_guard(self):
        R = default_truncation_radius(1)
        with pytest.raises(errors.InputError, match=r"^numeric cone spectra for n <= 2 only$"):
            truncated_cone_mesh(synthetic_cone(3, 3), R, R / 8.0)


def _skew_spec(H=((2.0, 1.0), (1.0, 2.0))):
    return make_potential_spec(simplex2(), psi=PolynomialFn.quadratic_form(np.array(H)))


def _count_numeric_solves(monkeypatch):
    calls = []
    solve = limit.numeric_cone_spectrum

    def counted(cone, *args, **kwargs):
        calls.append(cone)
        return solve(cone, *args, **kwargs)

    monkeypatch.setattr(limit, "numeric_cone_spectrum", counted)
    return calls


def _sector_values(k, alpha, count):
    """Lowest count values k (2 j + l pi / alpha), listed with multiplicity."""
    nu = np.pi / alpha
    return np.array(sorted(k * (2 * j + l * nu) for j in range(count) for l in range(count))[:count])


class TestOneSolvePerCone:
    # the limit spectra are closed forms: no cone needs a finite element solve

    def test_congruent_corners_share_one_solve(self, monkeypatch):
        # the three corners of simplex2 under psi = x^T A x / 2, A = [[2,1],[1,2]],
        # are lattice-congruent 60-degree sectors
        calls = _count_numeric_solves(monkeypatch)
        spec = _skew_spec()
        for k in (1, 2):
            pred = predicted_limit(spec, k, count=4)
            corners = [ls for b, ls in pred.items() if b.face_codim == 2]
            assert len(corners) == 3 and all(ls.exact for ls in corners)
            assert all(ls == corners[0] for ls in corners)
            assert np.allclose(corners[0].flat(8), _sector_values(k, np.pi / 3, 8), rtol=1e-12)
        assert calls == []

    def test_lattice_image_is_bit_identical(self, monkeypatch):
        calls = _count_numeric_solves(monkeypatch)
        spec = _skew_spec()
        A = random_unimodular(np.random.default_rng(2), 2)
        c = np.array([-2, -2])
        A_inv = np.round(np.linalg.inv(A.astype(float)))
        Q = transform_polytope(spec.polytope, A, c)
        spec_Q = make_potential_spec(Q, psi=affine_pullback(spec.psi, A_inv, -A_inv @ c))
        # premise: a float inverse of some corner chart is inexact here
        floats = [np.linalg.inv(np.array(local_chart(Q, v).lattice_map, dtype=float)) for v in Q.vertices]
        assert any(np.any(F != np.round(F)) for F in floats)
        pred_Q = predicted_limit(spec_Q, 1, count=4)
        pred = predicted_limit(spec, 1, count=4)
        assert calls == []
        assert len(set(pred.values())) == 1
        assert all(ls == next(iter(pred.values())) for ls in pred_Q.values())

    def test_distinct_cones_solved_once_each(self, monkeypatch):
        # A = [[3,1],[1,3]]: the corners (1,0) and (0,1) share A0 = [[4,2],[2,3]],
        # a sector of opening arccos(1/sqrt(3)); the origin keeps A0 = A, of
        # opening arccos(1/3)
        calls = _count_numeric_solves(monkeypatch)
        spec = _skew_spec(((3.0, 1.0), (1.0, 3.0)))
        pred = predicted_limit(spec, 1, count=4)
        assert calls == []
        by_point = {tuple(int(c) for c in b.point): ls for b, ls in pred.items()}
        assert by_point[(1, 0)] == by_point[(0, 1)] != by_point[(0, 0)]
        angles = {(0, 0): np.arccos(1 / 3), (1, 0): np.arccos(1 / np.sqrt(3)), (0, 1): np.arccos(1 / np.sqrt(3))}
        for b, ls in pred.items():
            point = tuple(int(c) for c in b.point)
            assert ls.exact
            assert np.allclose(ls.flat(8), _sector_values(1, angles[point], 8), rtol=1e-12)
            assert ls == exact_cone_spectrum(cone_at(spec, b), 1, n_max=12)


class TestChartInverse:
    def test_exact_where_float_is_not(self):
        rows = ((3, 2), (1, 1))
        chart = LocalChart(lattice_map=rows, shift=(0, 0), local_codim=0)
        A = np.array(rows, dtype=float)
        assert np.any(np.linalg.inv(A) @ A != np.eye(2))
        A_inv = np.array(chart.lattice_inverse(), dtype=float)
        assert np.array_equal(A_inv, [[1.0, -2.0], [-1.0, 3.0]])
        assert np.array_equal(A @ A_inv, np.eye(2))
        assert np.array_equal(A_inv @ A, np.eye(2))

    def test_singular_chart_raises(self):
        chart = LocalChart(lattice_map=((1, 2), (2, 4)), shift=(0, 0), local_codim=0)
        with pytest.raises(ValueError, match="^chart matrix is singular$"):
            chart.lattice_inverse()


class TestPredictions:
    @pytest.mark.parametrize("count", [0, -5, 2.5, True, "3"])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            predicted_limit(make_potential_spec(segment()), 1, count=count)

    def test_interval_k1(self):
        spec = make_potential_spec(segment())
        pred = predicted_limit(spec, 1, count=4)
        assert len(pred) == 2
        for ls in pred.values():
            assert ls.exact and ls.values[:3] == (0.0, 2.0, 4.0)

    def test_interval_k2(self):
        spec = make_potential_spec(segment())
        pred = predicted_limit(spec, 2, count=4)
        for b, ls in pred.items():
            if b.face_codim == 1:
                assert ls.values[:3] == (0.0, 4.0, 8.0)
            else:
                assert ls.values[:3] == (0.0, 2.0, 4.0)

    def test_simplex_k1_corner_pattern(self):
        # with psi = ||x||^2/2 only the origin corner is right-angled; the
        # two slanted corners carry 45-degree wedges (angular index in 4Z)
        # whose half spectrum is {0, 2, 4, 4, 6, 6, ...}
        spec = make_potential_spec(simplex2())
        pred = predicted_limit(spec, 1, count=6)
        assert len(pred) == 3
        for b, ls in pred.items():
            assert ls.exact
            if all(c == 0 for c in b.point):
                assert ls.values[:3] == (0.0, 2.0, 4.0)
                assert ls.multiplicities[:3] == (1, 2, 3)
            else:
                assert ls.values[:5] == (0.0, 2.0, 4.0, 6.0, 8.0)
                assert ls.multiplicities[:5] == (1, 1, 2, 2, 3)

    def test_nonseparable_prediction_is_exact(self):
        psi = PolynomialFn(
            dim=2, terms=(((2, 0), 1.0), ((1, 1), 1.0), ((0, 2), 1.0))
        )   # Hess = [[2, 1], [1, 2]]
        spec = make_potential_spec(simplex2(), psi=psi)
        pred = predicted_limit(spec, 1, count=4)
        for b, ls in pred.items():
            assert ls.exact and b.face_codim == 2
            assert np.allclose(ls.values[:7], [0, 2, 3, 4, 5, 6, 7], rtol=1e-12)
            assert ls.multiplicities[:7] == (1, 1, 1, 1, 1, 2, 1)

    def test_every_point_exact(self):
        # 2-D inputs: default and skew psi on simplex2, hirzebruch(a), and
        # random Delzant polygons under a skew psi
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        specs = [make_potential_spec(simplex2()), _skew_spec()]
        specs += [make_potential_spec(hirzebruch(a)) for a in range(4)]
        rng = np.random.default_rng(9)
        specs += [
            make_potential_spec(random_delzant(rng, 2), psi=PolynomialFn.quadratic_form(H))
            for _ in range(4)
        ]
        for spec in specs:
            for k in (1, 2):
                pred = predicted_limit(spec, k, count=6)
                assert len(pred) == len(bs_points(spec.polytope, k))
                assert all(ls.exact and len(ls.flat(6)) == 6 for ls in pred.values())

    def test_half_line_lists_count_values(self):
        # a half-line has the values 2 j of multiplicity 1, so count values
        # reach 2 (count - 1), beyond count + 2 n + 4 from count = 11 on
        spec = make_potential_spec(segment())
        for count in (10, 13):
            for ls in predicted_limit(spec, 1, count=count).values():
                assert len(ls.flat(count)) == count
                assert np.array_equal(ls.flat(count), 2.0 * np.arange(count))

    def test_narrow_sector_lists_count_values(self):
        # psi = [[1, 0.99], [0.99, 1]] makes a corner of simplex2 a sector so
        # narrow that its values 2 j + l pi / alpha are nearly all from l = 0
        spec = _skew_spec(((1.0, 0.99), (0.99, 1.0)))
        for b, ls in predicted_limit(spec, 1, count=13).items():
            assert len(ls.flat(13)) == 13
            if b.face_codim == 2:
                alpha = limit._opening_angle(cone_at(spec, b))
                assert np.allclose(ls.flat(13), _sector_values(1, alpha, 13), rtol=1e-12)

    def test_skew_3d_cone_unsupported(self):
        P = validate_delzant([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)])
        with pytest.raises(errors.InputError, match="no closed form"):
            predicted_limit(make_potential_spec(P), 1)

    def test_record_schema(self, tmp_path, capsys):
        poly = tmp_path / "cp1.json"
        poly.write_text(polytope_to_json(segment()))
        assert cli.main(["limit", "--polytope", str(poly), "--level", "1", "--count", "3"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert set(rec) == {"b", "k", "exact", "eigenvalues", "multiplicities"}
