"""Potential family: closed-form derivatives, splits, exact bound states."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from conftest import affine_pullback, transform_polytope
from toricspec import errors
from toricspec.curvature import ricci_general
from toricspec.limit import cone_at
from toricspec.mesh import build_mesh
from toricspec.operator import ground_state_rayleigh_batch
from toricspec.polytope import (
    bs_points,
    hirzebruch,
    local_chart,
    segment,
    simplex2,
    validate_delzant,
)
from toricspec.potential import (
    GuilleminPotential,
    PolynomialFn,
    PotentialFamily,
    PotentialSpec,
    family_hessian_batch,
    ground_state,
    make_potential_spec,
    potential_spec_from_json,
)


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


class TestGuillemin:
    def test_midpoint_values(self):
        v = GuilleminPotential.of_polytope(segment())
        assert np.isclose(v([0.5]), -np.log(2))
        assert np.isclose(v.tensor([0.5], 2)[0, 0], 4.0)

    def test_quarter_point(self):
        v = GuilleminPotential.of_polytope(segment())
        assert np.isclose(v.tensor([0.25], 2)[0, 0], 4 + 4 / 3)
        assert np.isclose(v.tensor([0.25], 3)[0, 0, 0], -16 + 16 / 9)

    def test_order_below_one_rejected(self):
        v = GuilleminPotential.of_polytope(segment())
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            v.tensor([0.5], 0)

    def test_simplex_hessian(self):
        v = GuilleminPotential.of_polytope(simplex2())
        assert np.allclose(v.tensor([1 / 3, 1 / 3], 2), [[6, 3], [3, 6]])

    def test_derivatives_vs_finite_differences(self):
        P = simplex2()
        v = GuilleminPotential.of_polytope(P)
        x = np.array([0.3, 0.25])
        assert np.allclose(v.tensor(x, 1), fd_gradient(v, x), atol=1e-7)
        for order in (2, 3, 4):
            tensor = v.tensor(x, order)
            h = 1e-6
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (v.tensor(x + e, order - 1) - v.tensor(x - e, order - 1)) / (2 * h)
                assert np.allclose(tensor[..., i], fd, atol=1e-4), order

    def test_boundary_point_raises(self):
        v = GuilleminPotential.of_polytope(segment())
        for evaluate in (v, lambda x: v.tensor(x, 2)):
            with pytest.raises(errors.ToricSpecError, match=r"^point \[0\.\] is within 1e-14 of a facet$") as excinfo:
                evaluate([0.0])
            assert excinfo.type is errors.ToricSpecError
        # a batch names its first point on a facet, not the whole array
        spec = make_potential_spec(segment())
        X = np.linspace(0.0, 0.5, 2000)[:, None]
        with pytest.raises(errors.ToricSpecError, match=r"^point \[0\.\] is within 1e-14 of a facet$") as excinfo:
            family_hessian_batch(spec, 0.1, X)
        assert excinfo.type is errors.ToricSpecError
        v = GuilleminPotential.of_polytope(simplex2())
        with pytest.raises(errors.ToricSpecError, match=r"^point \[0\.5 0\.5\] is within") as excinfo:
            v.tensor([[0.2, 0.3], [0.5, 0.5], [0.0, 0.5]], 2)
        assert excinfo.type is errors.ToricSpecError
        # a point outside P is an input error, on the scalar and the batch path
        outside = r"^point \[1\.5\] is outside the polytope$"
        with pytest.raises(errors.InputError, match=outside):
            ricci_general(spec, 0.1, [1.5])
        with pytest.raises(errors.InputError, match=outside):
            family_hessian_batch(spec, 0.1, [[1.5]])
        # the first outside point is named, even after a point on a facet
        with pytest.raises(errors.InputError, match=r"^point \[0\.9 0\.3\] is outside the polytope$"):
            v.tensor([[0.2, 0.3], [0.5, 0.5], [0.9, 0.3], [-0.1, 0.5]], 2)
        # within 1e-14 of a facet on its outer side is a facet point, not an input error
        with pytest.raises(errors.ToricSpecError, match=r"is within 1e-14 of a facet$") as excinfo:
            family_hessian_batch(spec, 0.1, [[-1e-15]])
        assert excinfo.type is errors.ToricSpecError


class TestFamilyHessian:
    def test_s_must_be_finite_and_positive(self):
        spec = make_potential_spec(segment())
        for s in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="s must be finite and positive"):
                family_hessian_batch(spec, s, [[0.5]])

    def test_segment_values(self):
        spec = make_potential_spec(segment())
        assert np.isclose(family_hessian_batch(spec, 1.0, [[0.5]])[0][0, 0, 0], 5.0)
        assert np.isclose(family_hessian_batch(spec, 0.1, [[0.5]])[0][0, 0, 0], 14.0)

    def test_simplex_value(self):
        spec = make_potential_spec(simplex2())
        G, _ = family_hessian_batch(spec, 0.5, [[1 / 3, 1 / 3]])
        assert np.allclose(G[0], [[8, 3], [3, 8]])

    def test_invariants(self, rng):
        spec = make_potential_spec(simplex2())
        fam01 = PotentialFamily.of_spec(spec, 0.1)
        psi_min = np.linalg.eigvalsh(spec.psi.tensor(np.zeros(2), 2))[0]
        for _ in range(10):
            x = rng.uniform(0.05, 0.3, size=2)
            (G,), (G_inv,) = family_hessian_batch(spec, 0.1, [x])
            dG = fam01.tensor(x, 3)
            w = np.linalg.eigvalsh(G)
            assert w[0] > 0
            assert w[0] >= psi_min / 0.1 - 1e-9
            assert np.allclose(G @ G_inv, np.eye(2), atol=1e-12)
            # total symmetry of dG against finite differences of G
            h = 1e-6
            for idx in range(2):
                e = np.zeros(2)
                e[idx] = h
                fd = (fam01.tensor(x + e, 2) - fam01.tensor(x - e, 2)) / (2 * h)
                assert np.max(np.abs(dG[idx] - fd)) < 1e-4
            assert np.max(np.abs(dG - np.transpose(dG, (1, 0, 2)))) < 1e-10
            assert np.max(np.abs(dG - np.transpose(dG, (2, 1, 0)))) < 1e-10

    def test_degeneration_rate(self):
        spec = make_potential_spec(segment())
        x = [0.37]
        s_list = (1.0, 0.1, 0.01)
        vals = [np.abs(family_hessian_batch(spec, s, [x])[1]).max() for s in s_list]
        # G_s^-1 <= s (Hess psi)^-1 exactly, and the decay is O(s) on the tail
        for s, v in zip(s_list, vals):
            assert v <= s + 1e-15
        assert vals[2] / vals[1] < 0.15

    def test_not_positive_definite_rejected(self):
        P = segment()
        bad_phi = PolynomialFn(dim=1, terms=(((2,), -5.0),))
        with pytest.raises(errors.InputError, match=r"^Hess\(v_P \+ phi\) fails at "):
            make_potential_spec(P, phi=bad_phi)

    def test_batch_guard_matches_scalar(self):
        # psi = -x^2/2 gives G_s(1/2) = 4 - 1/s < 0 at s = 0.1
        P = segment()
        psi = PolynomialFn.quadratic_form([[-1.0]])
        spec = PotentialSpec(
            polytope=P, phi=PolynomialFn.zero(1), psi=psi,
        )
        with pytest.raises(errors.InputError, match=r"^G_s at \[0\.5\] has eigenvalue ratio below 1e-10$"):
            family_hessian_batch(spec, 0.1, [[0.5]])
        with pytest.raises(errors.InputError, match=r"^G_s at \[0\.5\] has eigenvalue ratio below 1e-10$"):
            family_hessian_batch(spec, 0.1, np.array([[0.01], [0.5], [0.99]]))

    def test_three_simplex(self):
        # n = 3 takes the guard's eigvalsh branch; a point 1e-12 from a facet
        # is inside, but its eigenvalue ratio is far below PD_RATIO_TOL
        P = validate_delzant([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)])
        spec = make_potential_spec(P)
        X = np.array([[0.25, 0.25, 0.25], [0.1, 0.2, 0.3], [0.6, 0.1, 0.2]])
        G, G_inv = family_hessian_batch(spec, 0.1, X)
        assert np.allclose(G @ G_inv, np.eye(3), rtol=0, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(G)[:, 0] > 0)
        with pytest.raises(errors.InputError, match=r"^G_s at \[3\.e-01 3\.e-01 1\.e-12\]"):
            family_hessian_batch(spec, 0.1, np.vstack([X, [0.3, 0.3, 1e-12]]))


def chart_reference(spec, s, chart, x0):
    """A^-T G_s(x0) A^-1: G_s at the original-coordinate point x0, in the chart's coordinates."""
    A_inv = np.array(chart.lattice_inverse(), dtype=float)
    (G,), _ = family_hessian_batch(spec, s, [x0])
    return A_inv.T @ G @ A_inv


class TestSpecDerivesBoundary:
    def test_direct_spec_equals_made_spec(self):
        # v_P is derived from the polytope, so (P, phi, psi) alone is a complete spec
        P = simplex2()
        phi, psi = PolynomialFn.zero(2), PolynomialFn.quadratic_form([[2.0, 1.0], [1.0, 2.0]])
        spec = PotentialSpec(P, phi, psi)
        made = make_potential_spec(P, phi, psi)
        assert spec == made
        v = spec.boundary
        assert np.array_equal(v.normals, np.array(P.normals, dtype=float))
        assert np.array_equal(v.offsets, np.array(P.offsets, dtype=float))
        X = np.array([[0.2, 0.3], [0.1, 0.05], [0.6, 0.3], [1e-6, 0.5]])
        for a, b in zip(family_hessian_batch(spec, 0.1, X), family_hessian_batch(made, 0.1, X), strict=True):
            assert np.array_equal(a, b)

    def test_replaced_polytope_brings_its_boundary(self):
        # (1/2, 1/2) lies on a facet of the simplex but inside the trapezoid F_1
        spec = dataclasses.replace(make_potential_spec(simplex2()), polytope=hirzebruch(1))
        x = [[0.5, 0.5]]
        G, _ = family_hessian_batch(spec, 0.3, x)
        G_ref, _ = family_hessian_batch(make_potential_spec(hirzebruch(1)), 0.3, x)
        assert np.array_equal(G, G_ref)


class TestBoundarySplit:
    @pytest.mark.parametrize("polytope", ["hirzebruch(1)", "image of simplex2"])
    def test_skewed_charts(self, polytope):
        # the 1/s part of G_s in a quantized point's chart is cone_at's A0;
        # the image's charts have non-diagonal inverses, psi and phi couple
        # the coordinates, and Hess(v_P + phi) cancels between the two s
        if polytope == "hirzebruch(1)":
            P = hirzebruch(1)
        else:
            P = transform_polytope(simplex2(), [[2, 1], [1, 1]], [1, -1])
        spec = make_potential_spec(
            P,
            phi=PolynomialFn(dim=2, terms=(((2, 1), 0.02), ((0, 3), -0.01))),
            psi=PolynomialFn.quadratic_form([[2.0, 1.0], [1.0, 2.0]]),
        )
        points = {b.point: b for k in (1, 2) for b in bs_points(P, k)}
        charts = {point: local_chart(P, point) for point in points}
        assert any(np.any(np.array(ch.lattice_inverse()) != np.eye(2)) for ch in charts.values())
        interior = np.array([float(c) for c in P.interior_point()])
        s1, s2 = 1.0, 0.1
        for point, b in points.items():
            A0 = cone_at(spec, b).A0
            base = np.array([float(c) for c in point])
            for t in (0.05, 0.01):
                x0 = base + t * (interior - base)
                G1, G2 = (chart_reference(spec, s, charts[point], x0) for s in (s1, s2))
                split = (G1 - G2) / (1 / s1 - 1 / s2)
                assert np.max(np.abs(split - A0)) <= 1e-12 * np.abs(A0).max()


class TestFiberLaw:
    def test_fiber_diameter_bound_and_scaling(self):
        # G_s = Hess(v_P + phi) + Hess(psi)/s with the first term positive
        # definite, so lambda_max(G_s^-1) <= s lambda_max(Hess(psi)^-1): the
        # torus fibers shrink like sqrt(s); the supremum nears the bound as s falls
        def fiber_sup(spec):
            P = spec.polytope
            center = np.array([float(c) for c in P.interior_point()])
            corners = np.array(P.vertices, dtype=float)
            X = np.array([center + t * (v - center) for v in corners for t in (0, 0.3, 0.7, 0.99, 1 - 1e-4)])
            bound = np.linalg.eigvalsh(np.linalg.inv(spec.psi.tensor(X, 2)))[:, -1]
            sup = []
            for s in (1.0, 0.1, 0.01):
                _, G_inv = family_hessian_batch(spec, s, X)
                lam_max = np.linalg.eigvalsh(G_inv)[:, -1]
                assert np.all(lam_max <= s * bound * (1 + 1e-12))
                sup.append(lam_max.max() / s)
            return sup[-1], bound.max()

        for P in (segment(), simplex2()):
            C, bound = fiber_sup(make_potential_spec(P))
            assert abs(C - bound) <= 0.1 * bound
        # psi scaled by 4 scales the bound by 1/4
        C, bound = fiber_sup(make_potential_spec(segment()))
        C4, bound4 = fiber_sup(make_potential_spec(segment(), psi=PolynomialFn(dim=1, terms=(((2,), 2.0),))))
        assert np.isclose(bound4, bound / 4)
        assert abs(C4 - C / 4) <= 0.1 * (C / 4)


class TestGroundState:
    def test_pure_boundary_potential_closed_forms(self):
        # with the test potential u = v_P alone on [0,1] the bound states are
        # the monomial sections 1 - x and x
        P = segment()
        spec = PotentialSpec(
            polytope=P,
            phi=PolynomialFn.zero(1),
            psi=PolynomialFn.zero(1),
        )
        xs = np.linspace(0.05, 0.95, 7)[:, None]
        phi0 = ground_state(spec, 1.0, 1, [0])
        phi1 = ground_state(spec, 1.0, 1, [1])
        assert np.allclose(phi0(xs), 1 - xs[:, 0], rtol=1e-12)
        assert np.allclose(phi1(xs), xs[:, 0], rtol=1e-12)

    def test_mirror_symmetry_up_to_constant(self):
        # psi = x^2/2 differs from its mirror by an affine term, which only
        # rescales the bound state by a constant
        spec = make_potential_spec(segment())
        phi0 = ground_state(spec, 0.5, 1, [0])
        phi1 = ground_state(spec, 0.5, 1, [1])
        xs = np.linspace(0.1, 0.9, 9)[:, None]
        ratio = phi0(xs) / phi1(1 - xs)
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_eigen_residual_fd_divergence(self):
        # flux F = phi (m - kx) has divergence phi ((m-kx) G (m-kx) - kn);
        # a 4th-order FD divergence of F checks gradient/Hessian consistency
        spec = make_potential_spec(simplex2())
        s, k, mode = 0.5, 2, np.array([1, 1])
        state = ground_state(spec, s, k, mode)
        fam = PotentialFamily.of_spec(spec, s)

        def flux(x):
            return state(x)[..., None] * (mode - k * x)

        target = k * k + k * 2
        h = 5e-4
        offs = np.array([-2, -1, 1, 2])
        wts = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
        for x in ([0.3, 0.2], [0.15, 0.4], [0.45, 0.35]):
            x = np.array(x)
            div = 0.0
            for i in range(2):
                for o, w in zip(offs, wts):
                    e = np.zeros(2)
                    e[i] = o * h
                    div += w * flux(x + e)[i] / h
            G = fam.tensor(x, 2)
            w_vec = mode - k * x
            V = w_vec @ G @ w_vec + k * k
            resid = abs(-div + V * state(x) - target * state(x)) / abs(state(x))
            assert resid < 1e-8

    def test_mode_outside_raises(self):
        spec = make_potential_spec(segment())
        with pytest.raises(errors.InputError, match=r"^mode \[2\.\] has m/k outside the polytope$"):
            ground_state(spec, 1.0, 1, [2])

    def test_point_outside_raises(self):
        # x = 1.5 gave 0.2607 silently; the closed polytope, and points less
        # than INTERIOR_TOL outside it, still evaluate
        state = ground_state(make_potential_spec(segment()), 0.1, 1, (1,))
        with pytest.raises(errors.InputError, match=r"^point \[1\.5\] is outside the polytope$"):
            state(np.array([[0.3], [1.5]]))
        assert state(np.array([1.0])) == 1.0
        assert np.allclose(state(np.array([[0.0], [1.0 + 5e-15]])), [0.0, 1.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("P", [segment(), simplex2(), hirzebruch(1)],
                             ids=["segment", "simplex2", "hirzebruch(1)"])
    def test_normalized_at_base_point(self, P):
        # with convex phi and psi the state peaks at b = m/k, where it is 1
        spec = make_potential_spec(P)
        nodes = build_mesh(P, 0.1).nodes
        for k in (1, 2, 3):
            for b in bs_points(P, k):
                x_b = np.array([float(c) for c in b.point])
                for s in (1.0, 0.01):
                    state = ground_state(spec, s, k, [int(k * c) for c in b.point])
                    assert state(x_b) == 1.0
                    assert state(x_b[None, :])[0] == 1.0
                    assert np.max(state(nodes)) <= 1.0 + 1e-12

    def test_rayleigh_quotient_without_overflow(self):
        # unnormalized, the states of these modes overflow a float at s = 0.01;
        # each quotient approximates the bound-state eigenvalue k^2 + k n
        P = hirzebruch(1)
        spec = make_potential_spec(P)
        mesh = build_mesh(P, 0.1)
        for k, modes in ((2, [(4, 0), (0, 0)]), (3, [(5, 0), (5, 1), (6, 0)])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                quotients = ground_state_rayleigh_batch(spec, 0.01, k, modes, mesh)
            target = k * k + 2 * k
            for q in quotients.values():
                assert np.isfinite(q) and q > 0
                assert abs(q - target) <= 0.05 * target


class TestPolynomialsAndJson:
    def test_quadratic_form_is_half_x_A_x(self):
        # a non-symmetric A counts through its symmetric part; a symmetric A
        # keeps its off-diagonal entries as they are
        x = np.array([1.0, 1.0])
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert PolynomialFn.quadratic_form(A)(x) == x @ A @ x / 2 == 2.0
        assert PolynomialFn.quadratic_form(A).terms == PolynomialFn.quadratic_form((A + A.T) / 2).terms
        assert PolynomialFn.quadratic_form([[2, 1], [1, 2]]).terms == (((2, 0), 1.0), ((1, 1), 1.0), ((0, 2), 1.0))
        for bad in ([[1, 2, 3], [0, 1, 2]], [1, 2], 1.0):
            with pytest.raises(ValueError, match="^quadratic form needs a square matrix"):
                PolynomialFn.quadratic_form(bad)

    def test_affine_pullback(self, rng):
        p = PolynomialFn(dim=2, terms=(((2, 1), 1.5), ((0, 3), -0.5), ((1, 0), 2.0)))
        B = rng.normal(size=(2, 2))
        d = rng.normal(size=2)
        q = affine_pullback(p, B, d)
        for _ in range(5):
            y = rng.normal(size=2)
            assert np.isclose(q(y), p(B @ y + d), rtol=1e-12)

    def test_json_defaults(self):
        P = simplex2()
        spec = potential_spec_from_json(P, "{}")
        assert spec.phi.terms == ()
        assert np.allclose(spec.psi.tensor(np.zeros(2), 2), np.eye(2))
        # the file format read back: the default psi written out as terms
        text = json.dumps({"psi": [{"alpha": list(a), "c": c} for a, c in spec.psi.terms]})
        spec2 = potential_spec_from_json(P, text)
        assert spec2.psi.terms == spec.psi.terms
