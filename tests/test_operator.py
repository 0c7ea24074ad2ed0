"""Meshes and the reduced operator family: assembly, spectra, oracles."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from conftest import (
    affine_pullback,
    brute_force_bs_count,
    check_mesh,
    fubini_study_values,
    mode_operator,
    shape_regularity,
    transform_polytope,
)
from toricspec import errors, operator
from toricspec.harness import KERNEL_TOL
from toricspec.limit import (
    ConeModel,
    _cone_pencil,
    default_truncation_radius,
    truncated_cone_mesh,
)
from toricspec.mesh import (
    Mesh,
    _cell_edges,
    _red_green,
    build_mesh,
    interval_mesh,
    polygon_mesh,
)
from toricspec.operator import (
    BATCH_DOFS,
    OperatorFactory,
    ReducedOperator,
    _mass_local,
    _stiffness_local,
    assemble_p1,
    dbar_spectrum,
    ground_state_rayleigh_batch,
    map_dbar,
    mode_potential,
    mode_set,
    solve_eigs,
    solve_pencils,
    Spectrum,
)
from toricspec.polytope import hirzebruch, segment, simplex2, validate_delzant
from toricspec.potential import (
    PotentialFamily,
    family_hessian_batch,
    ground_state,
    make_potential_spec,
)

HUGE = 10**400      # an integer too large for a float
# the GL_2(Z) images {x1 - x2 >= 0, x2 >= 0, -x1 >= -1} and
# {x1 - x2 >= 0, -x1 + 2 x2 >= 0, -x2 >= -1} of simplex2(), vertices
# (0, 0), (1, 0), (1, 1) and (0, 0), (1, 1), (2, 1)
SIMPLEX_IMAGE = validate_delzant([((1, -1), 0), ((0, 1), 0), ((-1, 0), -1)])
IMAGE_2 = validate_delzant([((1, -1), 0), ((-1, 2), 0), ((0, -1), -1)])


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
        assert shape_regularity(mesh) <= 10.0

    def test_quadrature_interior(self):
        S = simplex2()
        mesh = build_mesh(S, 0.2)
        q = mesh.qpoints.reshape(-1, 2)
        vals = q @ np.array(S.normals, dtype=float).T - np.array(S.offsets, dtype=float)
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
                pairs.append(assemble_p1(m, weight))
            for A, B in zip(*pairs):
                assert np.max(np.abs((A - B).toarray())) < 1e-12 * np.abs(A).max()

    def test_uniform_red_green(self):
        for vertices in ([[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [2, 1], [1, 2], [0, 1]]):
            fan = polygon_mesh(vertices, 10.0, graded=False)
            nodes, cells = fan.nodes, fan.cells
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

        cone = ConeModel(codim=2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))
        R = np.sqrt(30.0)
        for cells in (build_mesh(simplex2(), 1 / 30).cells,
                      truncated_cone_mesh(cone, R, R / 56.0).cells):
            edges, cell_edges = _cell_edges(cells)
            e = np.sort(np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]), axis=1)
            ref_edges, ref_inverse = np.unique(e, axis=0, return_inverse=True)
            assert np.array_equal(edges, ref_edges)
            assert np.array_equal(cell_edges, ref_inverse.reshape(3, len(cells)).T)

    def test_dimension_guard(self):
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
        with pytest.raises(errors.InputError, match="^meshes are built for n <= 2 only$"):
            build_mesh(cube, 0.2)
        with pytest.raises(errors.InputError, match="^meshes are built for n <= 2 only$"):
            Mesh(dim=3, nodes=np.eye(4)[:, :3], cells=np.array([[0, 1, 2, 3]]))


class TestCoefficients:
    def test_reference_values(self):
        x = np.array([0.5])
        G = PotentialFamily.of_spec(make_potential_spec(segment()), 0.1).tensor(x, 2)
        assert np.isclose(np.linalg.inv(G)[0, 0], 1 / 14)
        assert np.isclose(mode_potential(G, x, 1, [0]), 4.5)

    def test_bs_point_floor(self):
        # at x = m/k the quadratic form vanishes and V collapses to k^2
        x = np.array([0.5, 1e-12])
        G = PotentialFamily.of_spec(make_potential_spec(simplex2()), 0.3).tensor(x, 2)
        assert mode_potential(G, x, 2, [1, 0]) >= 4.0
        x1 = np.array([0.5])
        G1 = PotentialFamily.of_spec(make_potential_spec(segment()), 0.3).tensor(x1, 2)
        assert np.isclose(mode_potential(G1, x1, 2, [1]), 4.0)

    def test_lower_bound(self, rng):
        spec = make_potential_spec(simplex2())
        s, k, m = 0.2, 2, np.array([1, 0])
        family = PotentialFamily.of_spec(spec, s)
        for _ in range(10):
            x = rng.uniform(0.05, 0.3, size=2)
            V = mode_potential(family.tensor(x, 2), x, k, m)
            dist2 = float(np.sum((x - m / k) ** 2))
            assert V >= k * k + dist2 * k * k / s - 1e-9


class TestAssembly:
    def test_pattern_built_once_per_mesh(self):
        # two factories and an assemble_p1 call scatter through one cached
        # pattern; the matrix-free Rayleigh quotients never build it
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 0.05)
        ground_state_rayleigh_batch(spec, 1.0, 1, [(0,)], mesh)
        assert "_pattern" not in vars(mesh)
        OperatorFactory(spec, 1.0, 1, mesh)
        pattern = vars(mesh)["_pattern"]
        OperatorFactory(spec, 0.5, 2, mesh).operator((1,))
        ones = np.ones_like(mesh.qweights)
        assemble_p1(mesh, ones)
        assert vars(mesh)["_pattern"] is pattern

    def test_csr_matches_coo_summation(self, rng):
        # reference: scipy sums the duplicate (row, col) entries of the
        # symmetrized local arrays; on the cp2 mesh and a skew cone mesh
        cone = ConeModel(codim=2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))
        R = np.sqrt(30.0)
        for mesh in (build_mesh(simplex2(), 1 / 30), truncated_cone_mesh(cone, R, R / 56.0)):
            local = rng.standard_normal((mesh.num_cells, 3, 3))
            sym = 0.5 * (local + local.transpose(0, 2, 1))
            rows = np.broadcast_to(mesh.cells[:, :, None], sym.shape)
            cols = np.broadcast_to(mesh.cells[:, None, :], sym.shape)
            N = mesh.num_nodes
            ref = sparse.coo_matrix((sym.ravel(), (rows.ravel(), cols.ravel())), shape=(N, N)).tocsr()
            A = mesh.csr(local)
            assert A.shape == (N, N) and A.nnz == ref.nnz
            assert abs(A - ref).max() <= 1e-12 * abs(ref).max()

    def test_identity_diffusion_matches_scalar_branch(self):
        # D = I at every quadrature point gives the pair of the D-free branch,
        # on the cp2 mesh and on a skew cone mesh
        cone = ConeModel(codim=2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))
        R = np.sqrt(30.0)
        for mesh in (build_mesh(simplex2(), 1 / 30), truncated_cone_mesh(cone, R, R / 56.0)):
            weight = np.exp(-np.sum(mesh.qpoints**2, axis=-1))
            I_q = np.broadcast_to(np.eye(2), mesh.qweights.shape + (2, 2))
            for A, B in zip(assemble_p1(mesh, weight, I_q), assemble_p1(mesh, weight)):
                assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
                assert np.max(np.abs(A.data - B.data)) <= 1e-13 * np.max(np.abs(B.data))

    def test_symmetry(self):
        pairs = []
        for P, h, mode in ((simplex2(), 0.15, (0, 0)), (segment(), 0.02, (1,))):
            mesh = build_mesh(P, h)
            op = mode_operator(make_potential_spec(P), 0.5, 1, mode, mesh)
            weight = np.exp(-np.sum(mesh.qpoints**2, axis=-1))
            pairs += [(op.K, op.M), assemble_p1(mesh, weight)]
        for K, M in pairs:
            assert (K - K.T).nnz == 0
            assert (M - M.T).nnz == 0

    def test_textbook_matrices(self):
        # uniform h = 1/10 with unit weights: K = tridiag(-1, 2, -1)/h and
        # M = h tridiag(1, 4, 1)/6, halved diagonals at the two end nodes
        h = 0.1
        mesh = interval_mesh(0, 1, h, graded=False)
        ones = np.ones_like(mesh.qweights)
        K, M = assemble_p1(mesh, ones)
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
            op = mode_operator(spec, 0.5, k, (0,), build_mesh(segment(), 0.02))
            val = solve_eigs(op, 1).eigenvalues[0]
            assert val >= k * k - 1e-6

    def test_overflow_guard(self):
        spec = make_potential_spec(segment())
        factory = OperatorFactory(spec, 1.0, 1, build_mesh(segment(), 0.05))
        with pytest.raises(errors.ToricSpecError, match="^potential reaches .* at a quadrature point$") as excinfo:
            factory.operator((10**8,))
        assert excinfo.type is errors.ToricSpecError

    def test_ground_state_rayleigh_rate(self):
        spec = make_potential_spec(segment())
        errs = []
        for h in (1 / 100, 1 / 200, 1 / 400):
            mesh = build_mesh(segment(), h)
            errs.append(ground_state_rayleigh_batch(spec, 1.0, 1, [(0,)], mesh)[(0,)] - 2.0)
        p1 = np.log2(errs[0] / errs[1])
        p2 = np.log2(errs[1] / errs[2])
        assert 1.7 <= p1 <= 2.3 and 1.7 <= p2 <= 2.3

    def test_rayleigh_matches_matrices(self):
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 0.01)
        op = mode_operator(spec, 1.0, 1, (0,), mesh)
        nodal = ground_state(spec, 1.0, 1, (0,))(mesh.nodes)
        assert np.isclose(
            float(nodal @ (op.K @ nodal)) / float(nodal @ (op.M @ nodal)),
            ground_state_rayleigh_batch(spec, 1.0, 1, [(0,)], mesh)[(0,)],
            rtol=1e-11,
        )


class TestCertifiedShift:
    """sigma = min_q V_m - 1 and the stiffness as a combination of weight fields."""

    CASES = (
        # (polytope, s, level, h)
        (segment(), 0.005, 2, np.sqrt(0.005) / 40),
        (simplex2(), 0.1, 1, 1 / 8),
        (hirzebruch(1), 0.1, 1, 1 / 8),
    )

    @pytest.mark.parametrize("P, s, k, h", CASES)
    def test_sigma_below_dense_spectrum(self, P, s, k, h):
        # quantized or not, every mode's shift sits below its lowest
        # eigenvalue and never below the level's floor k^2 - 1
        spec = make_potential_spec(P)
        factory = OperatorFactory(spec, s, k, build_mesh(P, h))
        for mode in mode_set(P, k, 1):
            op = factory.operator(mode)
            assert op.K.shape[0] <= 1500
            lowest = scipy.linalg.eigh(
                op.K.toarray(), op.M.toarray(), subset_by_index=(0, 0), eigvals_only=True
            )[0]
            assert k * k - 1.0 <= op.sigma < lowest, mode

    @pytest.mark.parametrize("P, k, modes", [
        (segment(), 3, ((0,), (2,), (-7,), (40,))),
        (simplex2(), 2, ((0, 0), (1, 1), (-5, 3), (30, -45))),
        (hirzebruch(1), 1, ((1, 0), (-4, -6), (25, 17))),
    ])
    def test_combination_matches_direct_assembly(self, P, k, modes):
        spec = make_potential_spec(P)
        s = 0.2
        mesh = build_mesh(P, 0.05 if P.dim == 1 else 1 / 8)
        factory = OperatorFactory(spec, s, k, mesh)
        G_q, Ginv_q = family_hessian_batch(spec, s, mesh.qpoints.reshape(-1, P.dim))
        G_q = G_q.reshape(mesh.qweights.shape + (P.dim, P.dim))
        K_diff_local = _stiffness_local(mesh.qweights, mesh.grads, Ginv_q.reshape(G_q.shape))
        for mode in modes:
            V = mode_potential(G_q, mesh.qpoints, k, mode)
            ref = mesh.csr(K_diff_local + _mass_local(mesh.qweights * V, mesh.bary))
            op = factory.operator(mode)
            assert np.array_equal(op.K.indptr, ref.indptr)
            assert np.array_equal(op.K.indices, ref.indices)
            assert np.max(np.abs(op.K.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data))
            assert abs(op.sigma - (V.min() - 1.0)) <= 1e-13 * np.max(np.abs(V))

    def test_overflow_guard_2d(self):
        factory = OperatorFactory(make_potential_spec(simplex2()), 1.0, 1, build_mesh(simplex2(), 0.25))
        with pytest.raises(errors.ToricSpecError, match="^potential reaches .* at a quadrature point$") as excinfo:
            factory.operator((10**7, -10**7))
        assert excinfo.type is errors.ToricSpecError

    def test_pencil_must_share_pattern(self):
        op = mode_operator(make_potential_spec(segment()), 0.5, 1, (0,), build_mesh(segment(), 0.02))
        N = op.M.shape[0]
        wider = (op.M + 1e-3 * sparse.eye(N, k=2, format="csr")).tocsr()
        for K, M in ((op.K, wider), (op.K.tocsc(), op.M.tocsc()), (op.K, op.M.tocoo())):
            with pytest.raises(ValueError, match="one sparsity pattern"):
                solve_eigs(ReducedOperator(K, M, op.sigma), 3)


class TestSolvers:
    def test_identity_pencil(self):
        spec = make_potential_spec(segment())
        op = mode_operator(spec, 1.0, 1, (0,), build_mesh(segment(), 0.05))
        sp = solve_eigs(ReducedOperator(op.M.copy(), op.M.copy(), sigma=0.0), 3)
        assert np.allclose(sp.eigenvalues, 1.0, atol=1e-10)

    def test_neumann_laplacian_surrogate(self):
        # unit diffusion, no potential: eigenvalues (pi j)^2 on [0, 1]
        mesh = interval_mesh(0, 1, 1 / 200, graded=False)
        ones = np.ones_like(mesh.qweights)
        sp = solve_eigs(ReducedOperator(*assemble_p1(mesh, ones), sigma=-1.0), 4)
        expect = np.array([0.0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2])
        assert np.max(np.abs(sp.eigenvalues - expect)) < 2e-2

    def test_residual_contract(self):
        spec = make_potential_spec(segment())
        op = mode_operator(spec, 0.3, 1, (1,), build_mesh(segment(), 0.01))
        sp = solve_eigs(op, 5)
        assert np.all(sp.residuals <= 1e-8 * np.maximum(1.0, np.abs(sp.eigenvalues)))

    def test_matches_dense_reference(self):
        # 1-D and 2-D pencils against LAPACK's dense generalized eigh
        cases = (
            (segment(), 1 / 150, (0,), 3),
            (simplex2(), 0.1, (1, 0), 4),
        )
        for P, h, mode, count in cases:
            op = mode_operator(make_potential_spec(P), 0.5, 1, mode, build_mesh(P, h))
            ref = scipy.linalg.eigh(
                op.K.toarray(), op.M.toarray(), subset_by_index=(0, count - 1), eigvals_only=True
            )
            assert np.allclose(solve_eigs(op, count).eigenvalues, ref, rtol=1e-9)

    def test_count_guard(self):
        op = mode_operator(make_potential_spec(segment()), 1.0, 1, (0,), build_mesh(segment(), 0.1))
        N = op.K.shape[0]
        for count in (0, -1, N - 1, N, N + 1, 2.5, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="count .* must be >= 1 and below N - 1"):
                solve_eigs(op, count)
        assert np.array_equal(solve_eigs(op, np.int64(2)).eigenvalues, solve_eigs(op, 2).eigenvalues)

    def test_dependent_ritz_basis(self, monkeypatch):
        # two equal Ritz vectors make the Gram matrix singular
        op = mode_operator(make_potential_spec(segment()), 0.5, 1, (0,), build_mesh(segment(), 0.02))
        rayleigh_ritz = operator._rayleigh_ritz

        def repeated(K, M, W, count):
            W = W.copy()
            W[:, 1] = W[:, 0]
            return rayleigh_ritz(K, M, W, count)

        monkeypatch.setattr(operator, "_rayleigh_ritz", repeated)
        with pytest.raises(errors.ToricSpecError, match="^Ritz basis Gram matrix is rank-deficient") as excinfo:
            solve_eigs(op, 3)
        assert excinfo.type is errors.ToricSpecError

    @pytest.mark.parametrize("name, value, message", [
        ("LANCZOS_MAX_STEPS", 4, r"^Lanczos did not converge in 4 steps$"),
        ("RESIDUAL_TOL", 1e-30, r"^residuals .* exceed 1e-30 x max\(1, \|lambda\|\)$"),
    ])
    def test_solver_limits(self, monkeypatch, name, value, message):
        # a pencil not converged within LANCZOS_MAX_STEPS fails, and so do
        # converged Ritz pairs whose residuals exceed a bound below rounding;
        # dbar_spectrum raises the error its one mode returns
        spec, mesh = make_potential_spec(segment()), build_mesh(segment(), 0.02)
        op = mode_operator(spec, 0.5, 1, (0,), mesh)
        monkeypatch.setattr(operator, name, value)
        with pytest.raises(errors.ToricSpecError, match=message) as excinfo:
            solve_eigs(op, 3)
        assert excinfo.type is errors.ToricSpecError
        with pytest.raises(errors.ToricSpecError, match=message) as excinfo:
            dbar_spectrum(spec, 0.5, 1, (0,), mesh, 3)
        assert excinfo.type is errors.ToricSpecError

    def test_shift_above_lowest_value_raises(self):
        # Lanczos seeks the largest 1 / (lambda - sigma), so a shift between
        # the two lowest values would drop the lowest one without the
        # inertia guard
        spec = make_potential_spec(segment())
        op = mode_operator(spec, 0.005, 3, (1,), build_mesh(segment(), np.sqrt(0.005) / 40))
        low = scipy.linalg.eigh(
            op.K.toarray(), op.M.toarray(), subset_by_index=(0, 1), eigvals_only=True
        )
        mid = 0.5 * (low[0] + low[1])
        with pytest.raises(errors.ToricSpecError, match=re.escape(f"sigma = {float(mid)!r} is not below")) as excinfo:
            solve_eigs(dataclasses.replace(op, sigma=mid), 4)
        assert excinfo.type is errors.ToricSpecError
        assert np.allclose(solve_eigs(op, 1).eigenvalues, low[:1], rtol=1e-12)
        cone = ConeModel(codim=2, A0=np.eye(2))
        R = default_truncation_radius(1)
        assert abs(solve_eigs(_cone_pencil(cone, 1, R, R / 14.0), 1).eigenvalues[0]) < 1e-6

    def test_batch_matches_batch_of_one(self):
        # every pencil of a batch, including one with a shift above its
        # lowest value, gets its own result
        spec = make_potential_spec(segment())
        factory = OperatorFactory(spec, 0.02, 2, build_mesh(segment(), np.sqrt(0.02) / 40))
        ops = [factory.operator(m) for m in mode_set(segment(), 2, 1)]
        assert 1 < len(ops) <= BATCH_DOFS // ops[0].M.shape[0]
        shifted = list(ops)
        shifted[2] = dataclasses.replace(ops[2], sigma=10.0 * ops[2].sigma + 100.0)
        batch = solve_pencils(shifted, 4)
        assert type(batch[2]) is errors.ToricSpecError
        assert "is not below the spectrum" in str(batch[2])
        for i, (op, sp) in enumerate(zip(ops, batch)):
            if i == 2:
                continue
            alone = solve_eigs(op, 4)
            tol = 1e-12 * np.maximum(1.0, np.abs(alone.eigenvalues))
            assert np.all(np.abs(sp.eigenvalues - alone.eigenvalues) <= tol)
            assert sp.steps >= alone.steps

    def test_batch_guards(self):
        # a lock-step batch factors every pencil with one mass matrix, so
        # pencils of two factories fail even when their masses are equal;
        # no pencils give no results
        spec = make_potential_spec(segment())
        mesh = build_mesh(segment(), 0.05)
        a = OperatorFactory(spec, 0.5, 1, mesh).operator((0,))
        b = OperatorFactory(spec, 0.2, 1, mesh).operator((1,))
        assert np.array_equal(a.M.data, b.M.data)
        message = "^the pencils of one solve_pencils call must share one mass matrix$"
        for ops in ([a, b], [a, ReducedOperator(a.K, a.M.copy(), a.sigma)]):
            with pytest.raises(ValueError, match=message):
                solve_pencils(ops, 3)
        assert solve_pencils([], 3) == []

    def test_singular_pencil_fails_alone(self):
        # K = M at sigma = 1 makes an exactly zero block, which SuperLU
        # refuses for the whole batch; each pencil is then solved alone
        factory = OperatorFactory(make_potential_spec(segment()), 0.5, 1, build_mesh(segment(), 0.05))
        ops = [factory.operator(m) for m in mode_set(segment(), 1, 1)]
        M = ops[0].M
        batch = solve_pencils(ops + [ReducedOperator(M.copy(), M, sigma=1.0)], 3)
        assert type(batch[4]) is errors.ToricSpecError
        assert str(batch[4]).startswith("K - sigma M at sigma = 1.0: ")
        assert "exactly singular" in str(batch[4])
        for op, sp in zip(ops, batch):
            alone = solve_eigs(op, 3)
            tol = 1e-12 * np.maximum(1.0, np.abs(alone.eigenvalues))
            assert np.all(np.abs(sp.eigenvalues - alone.eigenvalues) <= tol)

    def test_solver_record_repeats(self):
        op = mode_operator(make_potential_spec(simplex2()), 0.5, 1, (1, 0), build_mesh(simplex2(), 1 / 16))
        first, second = solve_eigs(op, 3), solve_eigs(op, 3)
        assert first.steps == second.steps >= 3
        assert first.factor_nnz == second.factor_nnz >= op.K.nnz
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    @pytest.mark.parametrize("case", ["sweep_1d", "weighted_sector", "near_double"])
    def test_dense_reference(self, case):
        # a sweep pencil, a 60-degree cone pencil whose Gaussian mass weight
        # spans many orders of magnitude, and a pencil with a near-double
        # value (6.544146 / 6.544862) on the square
        if case == "sweep_1d":
            spec = make_potential_spec(segment())
            op, count = mode_operator(spec, 0.005, 3, (1,), build_mesh(segment(), np.sqrt(0.005) / 40)), 4
        elif case == "weighted_sector":
            cone = ConeModel(codim=2, A0=np.array([[2.0, 1.0], [1.0, 2.0]]))
            R = default_truncation_radius(1)
            op, count = _cone_pencil(cone, 1, R, R / 14.0), 6
        else:
            spec = make_potential_spec(hirzebruch(0))
            op, count = mode_operator(spec, 0.1, 1, (0, 0), build_mesh(hirzebruch(0), 1 / 16)), 4
        K, M = op.K, op.M
        assert K.shape[0] <= 1500
        ref = scipy.linalg.eigh(
            K.toarray(), M.toarray(), subset_by_index=(0, count - 1), eigvals_only=True
        )
        sp = solve_eigs(op, count)
        assert np.all(np.abs(sp.eigenvalues - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        V = sp.vectors
        assert np.max(np.abs(V.T @ (M @ V) - np.eye(count))) <= 1e-12


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
        message = "^holomorphic-sector eigenvalue -5.000e-02 below -1e-6$"
        with pytest.raises(errors.ToricSpecError, match=message) as excinfo:
            map_dbar(fake, 1, 1)
        assert excinfo.type is errors.ToricSpecError

    def test_tiny_negative_clipped(self):
        fake = Spectrum(
            eigenvalues=np.array([2.0 - 1e-7]), residuals=np.array([0.0]), vectors=np.zeros((1, 1))
        )
        assert map_dbar(fake, 1, 1)[0] == 0.0


class TestProductOracle:
    def test_square_is_sum_of_segments(self):
        # on hirzebruch(0), the unit square, u_s and psi split into one summand
        # per coordinate, so G_s is diagonal and the mode-(m1, m2) operator is a
        # sum of two segment operators: its dbar spectrum is {a + b}, with a and
        # b from the modes m1 and m2 of the segment
        s, k, count = 0.1, 1, 4
        square = make_potential_spec(hirzebruch(0))
        line = make_potential_spec(segment())
        mesh2 = build_mesh(square.polytope, 1 / 30)
        mesh1 = build_mesh(line.polytope, 1 / 800)
        one_d = {m: dbar_spectrum(line, s, k, (m,), mesh1, count)[0] for m in (-1, 0, 1, 2)}
        for mode in ((0, 0), (1, 0), (-1, 0), (2, 1)):
            ref = np.sort(np.add.outer(one_d[mode[0]], one_d[mode[1]]).ravel())[:count]
            vals, _ = dbar_spectrum(square, s, k, mode, mesh2, count)
            assert np.max(np.abs(vals - ref) / np.maximum(ref, 1.0)) <= 5e-3


class TestFubiniStudyEnd:
    """Every value of every mode at s = 1e10 against the closed form at u_s = v_P."""

    @pytest.mark.parametrize("P, k, h, count", [
        (segment(), 2, 1 / 200, 4),
        (segment(), 3, 1 / 200, 4),
        (simplex2(), 1, 1 / 15, 6),
        (simplex2(), 2, 1 / 15, 6),
        (SIMPLEX_IMAGE, 1, 1 / 15, 6),
        (SIMPLEX_IMAGE, 2, 1 / 15, 6),
        (IMAGE_2, 1, 1 / 8, 6),
        (IMAGE_2, 2, 1 / 8, 6),
    ])
    def test_every_value_at_h_squared_rate(self, P, k, h, count):
        # the worst error over the modes of mode_set(P, k, 1), relative to
        # max(1, value), falls by P1's factor 4 from h to h/2; a wrong value or
        # multiplicity would leave an O(1) error at both meshes
        spec = make_potential_spec(P)
        worst = []
        for mesh in (build_mesh(P, h), build_mesh(P, h / 2)):
            factory = OperatorFactory(spec, 1e10, k, mesh)
            modes = mode_set(P, k, 1)
            ops = [factory.operator(m) for m in modes]
            spectra = solve_pencils(ops, count)
            err = 0.0
            for m, op, sp in zip(modes, ops, spectra):
                exact = fubini_study_values(P, k, m, count)
                assert op.sigma < 2 * exact[0] + k * k + P.dim * k, m
                err = max(err, np.max(np.abs(map_dbar(sp, k, P.dim) - exact) / np.maximum(1.0, exact)))
            worst.append(err)
        assert worst[1] < 1e-2
        assert 3.0 <= worst[0] / worst[1] <= 5.0, worst


class TestKernelIdentity:
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_hirzebruch(self, a):
        # the zero modes of F_a at k = 1, s = 1 are its lattice points, one
        # factory solving every mode of the inflated set in one lock-step call;
        # h = 1/8 is too coarse here and misses two zero modes at a = 1 and 3
        P = hirzebruch(a)
        modes = mode_set(P, 1, 1)
        factory = OperatorFactory(make_potential_spec(P), 1.0, 1, build_mesh(P, 1 / 12))
        ops = [factory.operator(m) for m in modes]
        spectra = solve_pencils(ops, 1)
        lowest = {m: map_dbar(sp, 1, 2)[0] for m, sp in zip(modes, spectra)}
        zero = {m for m, d in lowest.items() if d < KERNEL_TOL}
        assert zero == set(mode_set(P, 1, 0))
        assert len(zero) == brute_force_bs_count(P, 1) == a + 4
        assert min(d for m, d in lowest.items() if m not in zero) > 1.0


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


class TestGuards:
    """A level is an integer >= 1 and a mode has n integer entries, on every path."""

    @pytest.mark.parametrize("k", [0, -1, 1.7, True])
    def test_factory_rejects_bad_level(self, k):
        with pytest.raises(ValueError, match="level k"):
            OperatorFactory(make_potential_spec(segment()), 1.0, k, build_mesh(segment(), 0.1))

    @pytest.mark.parametrize("P, mode", [
        (segment(), (1, 2)),      # too long: broadcast to a 2-vector operator
        (simplex2(), (1,)),       # too short
        (segment(), (0.5,)),      # fractional
        (segment(), (1.0,)),      # a float, however integral
    ])
    def test_operator_rejects_bad_mode(self, P, mode):
        factory = OperatorFactory(make_potential_spec(P), 1.0, 1, build_mesh(P, 0.25))
        with pytest.raises(ValueError, match="mode"):
            factory.operator(mode)

    def test_numpy_integers_accepted(self):
        P = simplex2()
        spec = make_potential_spec(P)
        mesh = build_mesh(P, 0.25)
        ref = OperatorFactory(spec, 1.0, 2, mesh).operator((1, 0))
        factory = OperatorFactory(spec, 1.0, np.int64(2), mesh)
        op = factory.operator(np.array([1, 0]))
        assert type(factory.k) is int and factory.k == 2
        assert (op.K != ref.K).nnz == 0
        assert mode_set(P, np.int64(2), 1) == mode_set(P, 2, 1)

    @pytest.mark.parametrize("margin", [-1, 0.5, 1.0, True])
    def test_mode_set_rejects_bad_margin(self, margin):
        with pytest.raises(ValueError, match="margin must be an integer >= 0"):
            mode_set(segment(), 1, margin)

    def test_mode_set_and_ground_state_reject_bad_level(self):
        spec = make_potential_spec(segment())
        for k in (0, 1.5):
            with pytest.raises(ValueError, match="level k"):
                mode_set(segment(), k)
            with pytest.raises(ValueError, match="level k"):
                ground_state(spec, 1.0, k, (0,))
        with pytest.raises(ValueError, match="level k"):
            ground_state_rayleigh_batch(spec, 1.0, 0, [(0,)], build_mesh(segment(), 0.1))
        with pytest.raises(ValueError, match="mode"):
            ground_state(spec, 1.0, 1, (0.5,))

    def test_ground_state_rejects_bad_s(self):
        spec = make_potential_spec(segment())
        for s in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="s must be finite and positive"):
                ground_state(spec, s, 1, (0,))
        with pytest.raises(ValueError, match="s must be finite and positive"):
            ground_state_rayleigh_batch(spec, np.nan, 1, [(0,)], build_mesh(segment(), 0.1))

    @pytest.mark.parametrize("s", [True, False, "0.1", pytest.param(HUGE, id="huge"), None])
    def test_s_is_a_finite_real(self, s):
        # a bool is not a number, and a string or an integer too large for a
        # float is a ValueError naming s, not a TypeError
        with pytest.raises(ValueError, match="s must be finite and positive"):
            errors._check_positive(s, "s")
        with pytest.raises(ValueError, match="s must be finite and positive"):
            ground_state(make_potential_spec(segment()), s, 1, (0,))

    def test_numpy_and_integer_s_accepted(self):
        for s in (np.float64(0.5), np.float32(0.5), 1):
            checked = errors._check_positive(s, "s")
            assert checked == float(s) and type(checked) is float

    @pytest.mark.parametrize("h", [True, "0.1", pytest.param(HUGE, id="huge"), None])
    def test_mesh_size_is_a_finite_real(self, h):
        for P in (segment(), simplex2()):
            with pytest.raises(ValueError, match="target_h must be finite and positive"):
                build_mesh(P, h)
        assert build_mesh(segment(), np.float64(0.25)).num_nodes == build_mesh(segment(), 0.25).num_nodes

    def test_factory_rejects_a_node_in_no_cell(self):
        # node 3 carries no mass, so the mass matrix is singular
        mesh = Mesh(dim=1, nodes=np.array([[0.1], [0.5], [0.9], [0.95]]), cells=np.array([[0, 1], [1, 2]]))
        with pytest.raises(errors.ToricSpecError, match="^mass matrix has a nonpositive diagonal$") as excinfo:
            OperatorFactory(make_potential_spec(segment()), 1.0, 1, mesh)
        assert excinfo.type is errors.ToricSpecError


class TestInvariance:
    def test_chart_invariance_1d(self):
        # x -> 1 - x with the mapped mesh gives identical spectra; the mode
        # index transforms as m' = A m + k c
        P = segment()
        spec = make_potential_spec(P)
        Q = transform_polytope(P, np.array([[-1]]), np.array([1]))
        phi_new = affine_pullback(spec.phi, [[-1.0]], [1.0])
        psi_new = affine_pullback(spec.psi, [[-1.0]], [1.0])
        spec_Q = make_potential_spec(Q, phi=phi_new, psi=psi_new)
        mesh = build_mesh(P, 0.02)
        nodes_Q = 1.0 - mesh.nodes
        cells_Q = mesh.cells[:, ::-1]
        mesh_Q = Mesh(dim=1, nodes=nodes_Q, cells=cells_Q)
        k = 1
        for m in (0, 1):
            m_new = -m + k * 1
            v1 = solve_eigs(mode_operator(spec, 0.4, k, (m,), mesh), 3).eigenvalues
            v2 = solve_eigs(mode_operator(spec_Q, 0.4, k, (m_new,), mesh_Q), 3).eigenvalues
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
            phi=affine_pullback(spec.phi, A_inv, -A_inv @ c),
            psi=affine_pullback(spec.psi, A_inv, -A_inv @ c),
        )
        mesh = build_mesh(P, 0.15)
        mesh_Q = Mesh(dim=2, nodes=mesh.nodes @ A_f.T + c, cells=mesh.cells.copy())
        k = 1
        m = (1, 0)
        m_new = tuple(int(v) for v in np.array(A) @ np.array(m) + k * c)
        v1 = solve_eigs(mode_operator(spec, 0.5, k, m, mesh), 3).eigenvalues
        v2 = solve_eigs(mode_operator(spec_Q, 0.5, k, m_new, mesh_Q), 3).eigenvalues
        assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1, np.abs(v1).max())

    def test_refinement_stabilization(self):
        spec = make_potential_spec(segment())
        vals = []
        for h in (0.04, 0.02, 0.01, 0.005):
            mesh = interval_mesh(0, 1, h, graded=False)
            vals.append(solve_eigs(mode_operator(spec, 0.5, 1, (0,), mesh), 3).eigenvalues)
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
            op = mode_operator(spec, 1.0, 1, (0,), build_mesh(segment(), h))
            gaps.append(solve_eigs(op, 1).eigenvalues[0] - 2.0)
        p1 = np.log2(gaps[0] / gaps[1])
        p2 = np.log2(gaps[1] / gaps[2])
        assert 1.7 <= p1 <= 2.3 and 1.7 <= p2 <= 2.3
