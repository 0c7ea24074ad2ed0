"""Meshes and the reduced operator family: assembly, spectra, oracles."""

import numpy as np
import pytest
import scipy.linalg

from conftest import transform_polytope
from toricspec import errors
from toricspec.mesh import (
    Mesh,
    _cell_edges,
    _fan,
    _red_green,
    build_mesh,
    check_mesh,
    interval_mesh,
    polygon_mesh,
)
from toricspec.operator import (
    OperatorFactory,
    assemble,
    assemble_p1,
    dbar_spectrum,
    ground_state_rayleigh,
    map_dbar,
    mode_set,
    rayleigh_quotient,
    reduced_coefficients,
    solve_eigs,
    solve_pencil,
    Spectrum,
)
from toricspec.polytope import segment, simplex2
from toricspec.potential import ground_state, make_potential_spec


class TestMesh:
    def test_uniform_interval(self):
        m = interval_mesh(0, 1, 0.1, graded=False)
        assert m.num_cells == 10 and m.num_nodes == 11

    def test_graded_interval(self):
        m = interval_mesh(0, 1, 0.1, graded=True)
        widths = np.diff(m.nodes[:, 0])
        assert widths.min() < 0.1
        # geometric decay toward both endpoints
        left = widths[:5]
        assert np.allclose(left[1:] / left[:-1], 1 / 0.7, rtol=1e-9)
        right = widths[-5:]
        assert np.allclose(right[:-1] / right[1:], 1 / 0.7, rtol=1e-9)

    def test_simplex_mesh_contract(self):
        S = simplex2()
        mesh = build_mesh(S, 0.1)
        check_mesh(mesh, S)
        assert mesh.max_diameter() <= 0.1 + 1e-12
        assert mesh.shape_regularity() <= 10.0

    def test_quadrature_interior(self):
        S = simplex2()
        mesh = build_mesh(S, 0.2)
        q = mesh.qpoints.reshape(-1, 2)
        vals = q @ S.normals_array().T - S.offsets_array()
        assert vals.min() > 0

    def test_quadrature_exactness(self):
        # the 6-point rule integrates quartics exactly on each triangle
        mesh = polygon_mesh([[0, 0], [1, 0], [0, 1]], 0.5, graded=False)
        q = mesh.qpoints.reshape(-1, 2)
        w = mesh.qweights.reshape(-1)
        val = float(np.sum(w * q[:, 0] ** 2 * q[:, 1] ** 2))
        assert np.isclose(val, 1.0 / 180.0, rtol=1e-12)

    def test_simplex_mesh_size_pinned(self):
        mesh = build_mesh(simplex2(), 1 / 30)
        assert (mesh.num_nodes, mesh.num_cells) == (7003, 13620)

    @staticmethod
    def _flipped_meshes():
        """1-D and 2-D meshes with cell 3 listed in reversed (clockwise) order."""
        out = []
        for mesh, volume in ((interval_mesh(0, 1, 0.1), 1.0), (build_mesh(simplex2(), 0.2), 0.5)):
            cells = mesh.cells.copy()
            cells[3] = cells[3][::-1]
            out.append((mesh, Mesh(dim=mesh.dim, nodes=mesh.nodes, cells=cells), volume))
        return out

    def test_p1_geometry(self):
        for mesh, flipped, volume in self._flipped_meshes():
            for m in (mesh, flipped):
                slope = np.array([0.7, -1.3])[: m.dim]
                f = m.nodes @ slope + 0.25
                grad_f = np.einsum("ci,cia->ca", f[m.cells], m.grads)
                assert np.max(np.abs(grad_f - slope)) < 1e-12
                scale = np.abs(m.grads).max()
                assert np.max(np.abs(m.grads.sum(axis=1))) < 1e-12 * scale
                assert np.isclose(m.qweights.sum(), volume, rtol=1e-12)
                assert np.all(m.qweights > 0)

    def test_assembly_ignores_vertex_order(self):
        for mesh, flipped, _ in self._flipped_meshes():
            pairs = []
            for m in (mesh, flipped):
                weight = np.exp(-np.sum(m.qpoints**2, axis=-1))
                pairs.append(assemble_p1(m, diffusion_q=weight, mass_weight_q=weight))
            for A, B in zip(*pairs):
                assert np.max(np.abs((A - B).toarray())) < 1e-12 * np.abs(A).max()

    def test_uniform_red_green(self):
        for vertices in ([[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [2, 1], [1, 2], [0, 1]]):
            nodes, cells = _fan(vertices)
            edges, _ = _cell_edges(cells)
            fine_nodes, fine_cells = _red_green(nodes, cells, np.ones(len(cells), dtype=bool))
            assert len(fine_cells) == 4 * len(cells)
            assert len(fine_nodes) == len(nodes) + len(edges)
            coarse = Mesh(dim=2, nodes=nodes, cells=cells)
            fine = Mesh(dim=2, nodes=fine_nodes, cells=fine_cells)
            assert np.isclose(fine.qweights.sum(), coarse.qweights.sum(), rtol=1e-13)
            check_mesh(fine)

    def test_cell_edges_match_row_unique(self):
        from toricspec.limit import ConeModel, truncated_cone_mesh

        cone = ConeModel(bs_point=None, codim=2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]), level=1)
        R = np.sqrt(30.0)
        for cells in (build_mesh(simplex2(), 1 / 30).cells,
                      truncated_cone_mesh(cone, R, R / 56.0).cells):
            edges, cell_edges = _cell_edges(cells)
            e = np.sort(np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]), axis=1)
            ref_edges, ref_inverse = np.unique(e, axis=0, return_inverse=True)
            assert np.array_equal(edges, ref_edges)
            assert np.array_equal(cell_edges, ref_inverse.reshape(3, len(cells)).T)

    def test_dimension_guard(self):
        from toricspec.polytope import validate_delzant

        cube = validate_delzant(
            [
                ((1, 0, 0), 0),
                ((0, 1, 0), 0),
                ((0, 0, 1), 0),
                ((-1, 0, 0), -1),
                ((0, -1, 0), -1),
                ((0, 0, -1), -1),
            ]
        )
        with pytest.raises(errors.DimensionUnsupported):
            build_mesh(cube, 0.2)


class TestCoefficients:
    def test_reference_values(self):
        spec = make_potential_spec(segment())
        Ginv, V = reduced_coefficients(spec, 0.1, 1, [0], [0.5])
        assert np.isclose(Ginv[0, 0], 1 / 14)
        assert np.isclose(V, 4.5)

    def test_bs_point_floor(self):
        # at x = m/k the quadratic form vanishes and V collapses to k^2
        spec = make_potential_spec(simplex2())
        _, V = reduced_coefficients(spec, 0.3, 2, [1, 0], [0.5, 1e-12])
        assert V >= 4.0
        spec1 = make_potential_spec(segment())
        _, V_mid = reduced_coefficients(spec1, 0.3, 2, [1], [0.5])
        assert np.isclose(V_mid, 4.0)

    def test_lower_bound(self, rng):
        spec = make_potential_spec(simplex2())
        s, k, m = 0.2, 2, np.array([1, 0])
        for _ in range(10):
            x = rng.uniform(0.05, 0.3, size=2)
            _, V = reduced_coefficients(spec, s, k, m, x)
            dist2 = float(np.sum((x - m / k) ** 2))
            assert V >= k * k + dist2 * k * k / s - 1e-9


class TestAssembly:
    def test_symmetry(self):
        pairs = []
        for P, h, mode in ((simplex2(), 0.15, (0, 0)), (segment(), 0.02, (1,))):
            mesh = build_mesh(P, h)
            op = assemble(make_potential_spec(P), 0.5, 1, mode, mesh)
            weight = np.exp(-np.sum(mesh.qpoints**2, axis=-1))
            pairs += [(op.K, op.M), assemble_p1(mesh, diffusion_q=weight, mass_weight_q=weight)]
        for K, M in pairs:
            assert (K - K.T).nnz == 0
            assert (M - M.T).nnz == 0

    def test_textbook_matrices(self):
        # uniform h = 1/10 with unit weights: K = tridiag(-1, 2, -1)/h and
        # M = h tridiag(1, 4, 1)/6, halved diagonals at the two end nodes
        h = 0.1
        mesh = interval_mesh(0, 1, h, graded=False)
        ones = np.ones_like(mesh.qweights)
        K, M = assemble_p1(mesh, diffusion_q=ones, mass_weight_q=ones)
        N = mesh.num_nodes
        lap = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
        lap[0, 0] = lap[-1, -1] = 1.0
        mass = 4.0 * np.eye(N) + np.eye(N, k=1) + np.eye(N, k=-1)
        mass[0, 0] = mass[-1, -1] = 2.0
        assert np.max(np.abs(K.toarray() - lap / h)) < 1e-13
        assert np.max(np.abs(M.toarray() - h * mass / 6.0)) < 1e-13

    def test_coercivity_floor(self):
        spec = make_potential_spec(segment())
        for k in (1, 2):
            op = assemble(spec, 0.5, k, (0,), build_mesh(segment(), 0.02))
            val = solve_eigs(op, 1).eigenvalues[0]
            assert val >= k * k - 1e-6

    def test_overflow_guard(self):
        spec = make_potential_spec(segment())
        factory = OperatorFactory(spec, 1.0, 1, build_mesh(segment(), 0.05))
        with pytest.raises(errors.CoefficientOverflow):
            factory.operator((10**8,))

    def test_ground_state_rayleigh_rate(self):
        spec = make_potential_spec(segment())
        errs = []
        for h in (1 / 100, 1 / 200, 1 / 400):
            mesh = build_mesh(segment(), h)
            errs.append(ground_state_rayleigh(spec, 1.0, 1, (0,), mesh) - 2.0)
        p1 = np.log2(errs[0] / errs[1])
        p2 = np.log2(errs[1] / errs[2])
        assert 1.7 <= p1 <= 2.3 and 1.7 <= p2 <= 2.3

    def test_rayleigh_matches_matrices(self):
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 0.01)
        op = assemble(spec, 1.0, 1, (0,), mesh)
        nodal = ground_state(spec, 1.0, 1, (0,))(mesh.nodes)
        assert np.isclose(
            rayleigh_quotient(op, nodal),
            ground_state_rayleigh(spec, 1.0, 1, (0,), mesh),
            rtol=1e-11,
        )


class TestSolvers:
    def test_identity_pencil(self):
        spec = make_potential_spec(segment())
        op = assemble(spec, 1.0, 1, (0,), build_mesh(segment(), 0.05))
        sp = solve_pencil(op.M.copy(), op.M.copy(), 3, sigma=0.0)
        assert np.allclose(sp.eigenvalues, 1.0, atol=1e-10)

    def test_neumann_laplacian_surrogate(self):
        # unit diffusion, no potential: eigenvalues (pi j)^2 on [0, 1]
        mesh = interval_mesh(0, 1, 1 / 200, graded=False)
        ones = np.ones_like(mesh.qweights)
        K, M = assemble_p1(mesh, diffusion_q=ones)
        sp = solve_pencil(K, M, 4, sigma=-1.0)
        expect = np.array([0.0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2])
        assert np.max(np.abs(sp.eigenvalues - expect)) < 2e-2

    def test_residual_contract(self):
        spec = make_potential_spec(segment())
        op = assemble(spec, 0.3, 1, (1,), build_mesh(segment(), 0.01))
        sp = solve_eigs(op, 5)
        assert np.all(sp.residuals <= 1e-8 * np.maximum(1.0, np.abs(sp.eigenvalues)))

    def test_matches_dense_reference(self):
        # 1-D and 2-D pencils against LAPACK's dense generalized eigh
        cases = (
            (segment(), 1 / 150, (0,), 3),
            (simplex2(), 0.1, (1, 0), 4),
        )
        for P, h, mode, count in cases:
            op = assemble(make_potential_spec(P), 0.5, 1, mode, build_mesh(P, h))
            ref = scipy.linalg.eigh(
                op.K.toarray(), op.M.toarray(), subset_by_index=(0, count - 1), eigvals_only=True
            )
            assert np.allclose(solve_eigs(op, count).eigenvalues, ref, rtol=1e-9)

    def test_count_guard(self):
        op = assemble(make_potential_spec(segment()), 1.0, 1, (0,), build_mesh(segment(), 0.1))
        for count in (op.K.shape[0], op.K.shape[0] + 1):
            with pytest.raises(ValueError):
                solve_eigs(op, count)


class TestDbar:
    def test_exact_bottom_at_any_s(self):
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 1 / 400)
        for s in (1.0, 0.3):
            for m in ((0,), (1,)):
                vals, _ = dbar_spectrum(spec, s, 1, m, mesh, 2)
                assert vals[0] < 1e-4

    def test_outside_mode_positive_and_stiffening(self):
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 1 / 200)
        lows = []
        for s in (0.5, 0.1, 0.02):
            vals, _ = dbar_spectrum(spec, s, 1, (2,), mesh, 1)
            lows.append(vals[0])
        assert lows[0] > 0.05
        assert lows[2] > lows[1] > lows[0]

    def test_negative_eigenvalue_guard(self):
        # k^2 + kn = 2 here; anything more than 2e-6 below it is an error
        fake = Spectrum(
            eigenvalues=np.array([1.9]), residuals=np.array([0.0]), vectors=np.zeros((1, 1))
        )
        with pytest.raises(errors.NegativeEigenvalue):
            map_dbar(fake, 1, 1)

    def test_tiny_negative_clipped(self):
        fake = Spectrum(
            eigenvalues=np.array([2.0 - 1e-7]), residuals=np.array([0.0]), vectors=np.zeros((1, 1))
        )
        assert map_dbar(fake, 1, 1)[0] == 0.0


class TestModeSet:
    def test_interval_examples(self):
        P = segment()
        assert mode_set(P, 2, 0) == [(0,), (1,), (2,)]
        assert mode_set(P, 2, 1) == [(-1,), (0,), (1,), (2,), (3,)]

    def test_simplex_example(self):
        assert mode_set(simplex2(), 1, 0) == [(0, 0), (0, 1), (1, 0)]

    def test_bs_modes_are_the_quantized_ones(self):
        from fractions import Fraction

        from toricspec.polytope import bs_points

        P = simplex2()
        for k in (1, 2):
            quantized = {b.mode for b in bs_points(P, k)}
            inside = {
                m
                for m in mode_set(P, k, 1)
                if P.contains(tuple(Fraction(v, k) for v in m))
            }
            assert quantized == inside


class TestInvariance:
    def test_chart_invariance_1d(self):
        # x -> 1 - x with the mapped mesh gives identical spectra; the mode
        # index transforms as m' = A m + k c
        P = segment()
        spec = make_potential_spec(P)
        Q = transform_polytope(P, np.array([[-1]]), np.array([1]))
        phi_new = spec.phi.affine_pullback([[-1.0]], [1.0])
        psi_new = spec.psi.affine_pullback([[-1.0]], [1.0])
        spec_Q = make_potential_spec(Q, phi=phi_new, psi=psi_new)
        mesh = build_mesh(P, 0.02)
        nodes_Q = 1.0 - mesh.nodes
        cells_Q = mesh.cells[:, ::-1]
        mesh_Q = Mesh(dim=1, nodes=nodes_Q, cells=cells_Q)
        k = 1
        for m in (0, 1):
            m_new = -m + k * 1
            v1 = solve_eigs(assemble(spec, 0.4, k, (m,), mesh), 3).eigenvalues
            v2 = solve_eigs(assemble(spec_Q, 0.4, k, (m_new,), mesh_Q), 3).eigenvalues
            assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1, np.abs(v1).max())

    def test_chart_invariance_2d(self, rng):
        from conftest import random_unimodular

        P = simplex2()
        spec = make_potential_spec(P)
        A = random_unimodular(rng, 2)
        c = np.array([2, -1])
        Q = transform_polytope(P, A, c)
        A_f = np.array(A, dtype=float)
        A_inv = np.linalg.inv(A_f)
        spec_Q = make_potential_spec(
            Q,
            phi=spec.phi.affine_pullback(A_inv, -A_inv @ c),
            psi=spec.psi.affine_pullback(A_inv, -A_inv @ c),
        )
        mesh = build_mesh(P, 0.15)
        mesh_Q = Mesh(dim=2, nodes=mesh.nodes @ A_f.T + c, cells=mesh.cells.copy())
        k = 1
        m = (1, 0)
        m_new = tuple(int(v) for v in np.array(A) @ np.array(m) + k * c)
        v1 = solve_eigs(assemble(spec, 0.5, k, m, mesh), 3).eigenvalues
        v2 = solve_eigs(assemble(spec_Q, 0.5, k, m_new, mesh_Q), 3).eigenvalues
        assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1, np.abs(v1).max())

    def test_refinement_stabilization(self):
        spec = make_potential_spec(segment())
        vals = []
        for h in (0.04, 0.02, 0.01, 0.005):
            mesh = interval_mesh(0, 1, h, graded=False)
            vals.append(solve_eigs(assemble(spec, 0.5, 1, (0,), mesh), 3).eigenvalues)
        change1 = np.abs(vals[1] - vals[0])
        change2 = np.abs(vals[2] - vals[1])
        change3 = np.abs(vals[3] - vals[2])
        assert np.all(change2 <= change1) and np.all(change3 <= change2)
        assert abs(vals[-1][0] - 2.0) < 1e-4

    def test_sector_exactness_rate(self):
        # the discrete bottom eigenvalue approaches k^2 + nk at second order
        spec = make_potential_spec(segment())
        gaps = []
        for h in (1 / 50, 1 / 100, 1 / 200):
            op = assemble(spec, 1.0, 1, (0,), build_mesh(segment(), h))
            gaps.append(solve_eigs(op, 1).eigenvalues[0] - 2.0)
        p1 = np.log2(gaps[0] / gaps[1])
        p2 = np.log2(gaps[1] / gaps[2])
        assert 1.7 <= p1 <= 2.3 and 1.7 <= p2 <= 2.3
