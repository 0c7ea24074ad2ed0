"""Curvature closed forms against the general route and the FD oracle."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import affine_pullback, random_unimodular
from toricspec import errors
from toricspec.curvature import (
    ModelSpec,
    _fd_stencil,
    _min_ratio,
    _model_T,
    christoffel_ricci_oracle,
    model_T,
    model_T_prime,
    model_potential,
    ricci_general,
    ricci_lower_bound_scan,
    ricci_of_potential,
)
from toricspec.polytope import segment, simplex2
from toricspec.potential import (
    GuilleminPotential,
    PolynomialFn,
    PotentialFamily,
    PotentialSpec,
    family_hessian_batch,
    make_potential_spec,
)


def model_min_ratio(model: ModelSpec, s):
    T, M = _model_T(model.A, model.y, s)
    return float(_min_ratio(T, M / s))


def random_model(rng, n=None, m=None):
    n = int(rng.integers(1, 3)) if n is None else n
    m = int(rng.integers(1, n + 1)) if m is None else m
    B = rng.normal(size=(n, n))
    A = B @ B.T + (0.5 + rng.random()) * np.eye(n)
    y = rng.uniform(0.08, 3.0, size=m)
    return ModelSpec(A=A, y=y)


def cofactor_model_T(A, y, s):
    """Reference: the closed form of T written with explicit cofactors."""
    n, m = A.shape[0], len(y)
    M = A.copy()
    M[np.arange(m), np.arange(m)] += y
    delta = np.linalg.det(M)

    def cof(p, q):
        sub = np.delete(np.delete(M, p, axis=0), q, axis=1)
        return (-1.0) ** (p + q) * (np.linalg.det(sub) if sub.size else 1.0)

    T = np.zeros((n, n))
    for j in range(m):
        for i in range(m):
            if i != j:
                T[j, i] = -4.0 * y[j] ** 2 * y[i] ** 2 * cof(i, j) ** 2 / (s * s * delta**2)
        acc = sum(y[j] ** 2 * y[h] ** 2 * cof(j, h) * cof(h, h) for h in range(m) if h != j)
        T[j, j] = (
            -4.0 * acc / (s * s * delta**2)
            + 8.0 * y[j] ** 3 * cof(j, j) / (s * s * delta)
            - 8.0 * y[j] ** 4 * cof(j, j) ** 2 / (s * s * delta**2)
        )
    return T


SKEW = np.array([[2.0, 1.0], [1.0, 2.0]])
A3 = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.2], [0.5, 0.2, 1.5]])


class TestGeneralRoute:
    def test_round_sphere_constant(self):
        # the interval with its bare boundary potential carries a metric of
        # constant curvature; the T/G ratio must not depend on the point
        vp = GuilleminPotential.of_polytope(segment())
        ratios = [
            ricci_of_potential(vp, np.array([x])).min_ratio for x in (0.3, 0.5, 0.7)
        ]
        assert np.allclose(ratios, ratios[0], atol=1e-8)
        assert np.isclose(ratios[0], 2.0, atol=1e-10)

    def test_T_symmetric(self, rng):
        spec = make_potential_spec(simplex2())
        for _ in range(5):
            x = rng.uniform(0.08, 0.35, size=2)
            data = ricci_general(spec, 0.4, x)
            assert np.max(np.abs(data.T - data.T.T)) < 1e-9 * max(np.abs(data.T).max(), 1)

    def test_chart_invariance_of_min_ratio(self, rng):
        from conftest import transform_polytope

        P = simplex2()
        spec = make_potential_spec(P)
        A = random_unimodular(rng, 2)
        c = np.array([1, -2])
        Q = transform_polytope(P, A, c)
        A_f = np.array(A, dtype=float)
        A_inv = np.linalg.inv(A_f)
        phi_new = affine_pullback(spec.phi, A_inv, -A_inv @ c)
        psi_new = affine_pullback(spec.psi, A_inv, -A_inv @ c)
        spec_Q = make_potential_spec(Q, phi=phi_new, psi=psi_new)
        for x in ([0.2, 0.3], [0.4, 0.15]):
            x = np.array(x)
            x_new = A_f @ x + c
            r1 = ricci_general(spec, 0.3, x).min_ratio
            r2 = ricci_general(spec_Q, 0.3, x_new).min_ratio
            assert abs(r1 - r2) < 1e-8 * max(1, abs(r1))


class TestMetricRule:
    # psi = -x^2/2 makes G_s = 4 - 1/0.1 = -6 at the midpoint of the segment
    INDEFINITE = PotentialSpec(segment(), PolynomialFn.zero(1), PolynomialFn.quadratic_form([[-1.0]]))
    CALLS = {
        "family_hessian_batch": lambda spec: family_hessian_batch(spec, 0.1, [[0.5]]),
        "ricci_general": lambda spec: ricci_general(spec, 0.1, [0.5]),
        "christoffel_ricci_oracle": lambda spec: christoffel_ricci_oracle(spec, 0.1, [0.5]),
        "ricci_of_potential": lambda spec: ricci_of_potential(PotentialFamily.of_spec(spec, 0.1), [0.5]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_indefinite_metric_is_one_input_error(self, call):
        # every path that forms G_s applies the rule of family_hessian_batch
        with pytest.raises(errors.InputError, match=r"^G_s at \[0\.5\] has eigenvalue ratio below 1e-10$"):
            self.CALLS[call](self.INDEFINITE)


class TestModelClosedForms:
    def test_scalar_model_value(self):
        # n = 1 closed form from G = 1/(2x) + 1/s: T = ((G'/G^2)') G
        mod = ModelSpec(A=np.eye(1), y=np.array([1.0]))
        assert np.isclose(model_T(mod, 1.0)[0, 0], 2.0, rtol=1e-12)
        for y, s in ((0.4, 0.7), (2.5, 0.05)):
            x = s / (2 * y)
            G = 1 / (2 * x) + 1 / s
            G1 = -1 / (2 * x**2)
            G2 = 1 / x**3
            T_scalar = (G2 / G**2 - 2 * G1**2 / G**3) * G
            mod = ModelSpec(A=np.eye(1), y=np.array([y]))
            assert np.isclose(model_T(mod, s)[0, 0], T_scalar, rtol=1e-12)

    def test_diagonal_A_has_no_off_diagonal(self):
        mod = ModelSpec(A=np.diag([2.0, 5.0]), y=np.array([0.7, 1.3]))
        T = model_T(mod, 0.3)
        assert T[0, 1] == 0.0 and T[1, 0] == 0.0

    def test_matches_general_route(self, rng):
        for _ in range(10):
            mod = random_model(rng)
            s = 10.0 ** rng.uniform(-2, 0)
            T_closed = model_T(mod, s)
            T_general = ricci_of_potential(model_potential(mod, s), mod.x_coords(s)).T
            scale = max(np.abs(T_general).max(), 1e-30)
            assert np.max(np.abs(T_closed - T_general)) < 1e-8 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_cofactor_reference(self, rng, n):
        for m in range(n + 1):
            for _ in range(10):
                mod = random_model(rng, n=n, m=m)
                s = 10.0 ** rng.uniform(-2, 0)
                T_ref = cofactor_model_T(mod.A, mod.y, s)
                T = model_T(mod, s)
                assert T.shape == (n, n)
                assert np.max(np.abs(T - T_ref)) <= 1e-12 * max(np.abs(T_ref).max(), 1e-300)

    def test_outside_block_vanishes(self, rng):
        mod = random_model(rng, n=2, m=1)
        T = model_T(mod, 0.2)
        assert T[1, 1] == 0.0 and T[0, 1] == 0.0 and T[1, 0] == 0.0

    def test_scaling_law(self, rng):
        # s^2 T depends on (y, A) only
        mod = random_model(rng, n=2, m=2)
        base = None
        for s in (1.0, 0.1, 0.01):
            val = s * s * ricci_of_potential(model_potential(mod, s), mod.x_coords(s)).T
            if base is None:
                base = val
            assert np.allclose(val, base, rtol=1e-9)


class TestModelInputs:
    def test_non_symmetric_A_rejected(self):
        # eigvalsh of [[1, 5], [0, 1]] reads 1, 1; its symmetric part has -1.5
        A = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ModelSpec(A=A, y=np.ones(2))
        with pytest.raises(ValueError, match="symmetric"):
            ricci_lower_bound_scan(A, 2, 2, [1.0], [5.0, 5.0], grid_points=3)

    def test_symmetry_tolerance_is_relative(self):
        A = SKEW * 1e6
        A[0, 1] += 1e-7                 # 1e-13 of the largest entry
        ModelSpec(A=A, y=np.ones(2))
        A[0, 1] += 1e-5
        with pytest.raises(ValueError, match="symmetric"):
            ModelSpec(A=A, y=np.ones(2))

    def test_m_above_n_rejected(self):
        with pytest.raises(ValueError, match="m = 2"):
            ModelSpec(A=np.eye(1), y=np.ones(2))
        with pytest.raises(ValueError, match="m = 2"):
            ricci_lower_bound_scan(np.eye(1), 1, 2, [1.0], [5.0, 5.0], grid_points=3)

    def test_indefinite_A_and_bad_y_rejected(self):
        with pytest.raises(errors.InputError, match="^model matrix A must be positive definite$"):
            ModelSpec(A=np.diag([1.0, -1.0]), y=np.ones(1))
        with pytest.raises(errors.InputError, match="^model matrix A must be positive definite$"):
            ricci_lower_bound_scan(np.diag([1.0, -1.0]), 2, 1, [1.0], [5.0], grid_points=3)
        with pytest.raises(ValueError, match="positive"):
            ModelSpec(A=np.eye(2), y=np.array([0.0]))
        with pytest.raises(ValueError, match="positive"):
            ricci_lower_bound_scan(np.eye(2), 2, 1, [0.0], [5.0], grid_points=3)


    def test_singular_metric_rejected(self):
        with pytest.raises(errors.InputError, match=r"^G_s at \[0\.5\] has eigenvalue ratio below 1e-10$"):
            ricci_of_potential(PolynomialFn.zero(1), [0.5])

    @pytest.mark.parametrize("grid_points", [0, -3, True, 2.0])
    def test_grid_points_must_be_a_positive_integer(self, grid_points):
        with pytest.raises(ValueError, match="grid_points must be an integer >= 1"):
            ricci_lower_bound_scan(np.eye(1), 1, 1, [1.0], [5.0], grid_points=grid_points)

    @pytest.mark.parametrize("s", [True, "1", pytest.param(10**400, id="huge")])
    def test_scan_s_is_a_finite_real(self, s):
        # True would otherwise scan s = 1.0
        with pytest.raises(ValueError, match="s must be finite and positive"):
            ricci_lower_bound_scan(np.eye(1), 1, 1, [s], [5.0], grid_points=3)

    @pytest.mark.parametrize("s_list, message", [
        ([1.0, 1.0], "s_list must be strictly descending"),     # would scan every row twice
        ([0.1, 1.0], "s_list must be strictly descending"),
        ([], "s_list must name at least one s"),
    ])
    def test_scan_s_list_rule(self, s_list, message):
        with pytest.raises(ValueError, match=message):
            ricci_lower_bound_scan(np.eye(1), 1, 1, s_list, [5.0], grid_points=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1", True])
    def test_non_finite_A_rejected(self, bad):
        # a nan matrix would otherwise give a nan infimum; each entry is a
        # finite real as given, where float() would turn "1" and True into 1.0
        with pytest.raises(ValueError, match="model matrix A must be finite"):
            ModelSpec(A=[[bad]], y=[1.0])
        with pytest.raises(ValueError, match="model matrix A must be finite"):
            ricci_lower_bound_scan(np.array([[bad]]), 1, 1, [1.0], [5.0], grid_points=2)

    @pytest.mark.parametrize("z", [np.nan, np.inf, -5.0, 0.0, True])
    def test_z_max_entries_are_finite_and_positive(self, z):
        # the message names z_max, and no log10 warning comes before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z_max entry must be finite and positive"):
                ricci_lower_bound_scan(np.eye(1), 1, 1, [1.0], [z], grid_points=3)

    @pytest.mark.parametrize("y", [[np.inf], [np.nan], [0.0], [-1.0], [True], [1.0, np.inf]])
    def test_model_y_entries_are_finite_and_positive(self, y):
        # y = [inf] was accepted: model_T gave [[nan]] and x_coords(1.0) gave [0.]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="y_j must be finite and positive"):
                ModelSpec(A=np.eye(2), y=y)

    @pytest.mark.parametrize("y", [np.ones((1, 2)), np.ones((2, 1)), 1.0])
    def test_model_y_must_be_one_dimensional(self, y):
        # a stacked y is not read as a longer one
        with pytest.raises(ValueError, match="model variables y must be a 1-D array"):
            ModelSpec(A=np.eye(2), y=y)

    def test_model_shape_comes_from_its_arrays(self):
        mod = ModelSpec(A=A3, y=[0.5, 2.0])
        assert [f.name for f in dataclasses.fields(mod)] == ["A", "y"]
        assert np.array_equal(mod.x_coords(0.4), [0.4, 0.1, 1.0])
        assert model_T(mod, 0.4).shape == (3, 3)

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones(2), np.zeros((0, 0))])
    def test_model_A_must_be_square(self, A):
        with pytest.raises(ValueError, match="model matrix A must be a non-empty square matrix"):
            ModelSpec(A=A, y=[1.0])

    @pytest.mark.parametrize("A, n, m, z_max", [
        (np.eye(2), 1, 1, [5.0]),
        (np.eye(2), 2, 1, [5.0, 5.0]),
    ])
    def test_scan_n_and_m_match_A_and_z_max(self, A, n, m, z_max):
        with pytest.raises(ValueError, match=r"A must be \d x \d and z_max of length \d"):
            ricci_lower_bound_scan(A, n, m, [1.0], z_max, grid_points=3)

    @pytest.mark.parametrize("m, z_max", [(0, []), (-1, []), (1.5, [5.0]), (True, [5.0])])
    def test_scan_m_is_a_positive_integer(self, m, z_max):
        # m = 0 raised numpy's "need at least one array to stack", 1.5 asked
        # for "z_max of length 1.5", and True scanned one corner direction
        with pytest.raises(ValueError, match="corner codimension m must be an integer >= 1"):
            ricci_lower_bound_scan(np.eye(2), 2, m, [0.1], z_max, grid_points=3)

    @pytest.mark.parametrize("n", [0, 2.0, True])
    def test_scan_n_is_a_positive_integer(self, n):
        # 2.0 and True matched np.shape(A) and scanned
        A = np.eye(max(int(n), 1))
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ricci_lower_bound_scan(A, n, 1, [0.1], [5.0], grid_points=3)

    @pytest.mark.parametrize("s", [np.nan, 0.0, -1.0])
    def test_model_T_s_is_finite_and_positive(self, s):
        with pytest.raises(ValueError, match="s must be finite and positive"):
            model_T(ModelSpec(A=np.eye(1), y=np.ones(1)), s)


class TestMinRatio:
    def test_smallest_pencil_value(self, rng):
        T = rng.normal(size=(6, 3, 3))
        B = rng.normal(size=(6, 3, 3))
        G = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(3)
        kappa = _min_ratio(T, G)
        assert kappa.shape == (6,)
        for k, t, g in zip(kappa, T, G):
            ref = scipy.linalg.eigh(0.5 * (t + t.T), g, eigvals_only=True)[0]
            assert abs(k - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_general_route_uses_it(self, rng):
        spec = make_potential_spec(simplex2())
        x = np.array([0.2, 0.3])
        data = ricci_general(spec, 0.4, x)
        G = spec.boundary.tensor(x, 2) + spec.phi.tensor(x, 2) + spec.psi.tensor(x, 2) / 0.4
        assert abs(data.min_ratio - float(_min_ratio(data.T, G))) <= 1e-12 * abs(data.min_ratio)


class TestModelTPrime:
    def test_reference_value(self):
        tp, ratios = model_T_prime(np.array([1.0]), np.array([]), 1.0)
        assert np.isclose(tp[0], 2.0)
        assert np.isclose(ratios[0], 1.0)

    def test_matches_identity_model_block(self, rng):
        y = rng.uniform(0.1, 2.0, size=2)
        s = 0.3
        tp, ratios = model_T_prime(y, np.array([]), s)
        mod = ModelSpec(A=np.eye(2), y=y)
        assert np.max(np.abs(np.diag(model_T(mod, s)) - tp)) < 1e-12 * max(tp.max(), 1)
        assert np.max(np.abs(tp / ((y + 1.0) / s) - ratios)) < 1e-12 * max(abs(ratios).max(), 1)

    def test_interior_branch_signs(self):
        # y_j < 1 gives nonnegative ratio, y_j > 1 negative
        s = 0.2
        for x, sign in ((s, 1.0), (s / 4.0, -1.0)):   # y = 1/2 and y = 2
            _, ratios = model_T_prime(np.array([1.0]), np.array([x]), s)
            assert np.sign(ratios[1]) == sign

    def test_vanishing_small_y(self):
        tp, _ = model_T_prime(np.array([1e-4]), np.array([]), 1.0)
        assert tp[0] < 1e-11

    def test_shape_comes_from_its_inputs(self):
        # m = len(y) corner directions first, then one per interior coordinate
        s, y, x_rest = 0.2, np.array([0.5, 2.0]), np.array([0.4, 0.05])
        tp, ratios = model_T_prime(y, x_rest, s)
        assert tp.shape == ratios.shape == (4,)
        tp_corner, ratios_corner = model_T_prime(y, np.array([]), s)
        assert np.array_equal(tp[:2], tp_corner) and np.array_equal(ratios[:2], ratios_corner)
        for j, x in enumerate(x_rest):
            tp_one, ratios_one = model_T_prime(np.array([]), np.array([x]), s)
            assert tp[2 + j] == tp_one[0] and ratios[2 + j] == ratios_one[0]
        y_rest = s / (2.0 * x_rest)
        assert np.allclose(tp[2:], 8.0 * y_rest**3 * (1.0 - y_rest) / s**2, rtol=1e-14)

    @pytest.mark.parametrize("y, x_rest, s, n, message", [
        ([np.nan], [], 1.0, 1, "y_j must be finite and positive"),
        ([0.0], [], 1.0, 1, "y_j must be finite and positive"),
        ([1.0], [-0.5], 1.0, 2, "x_j must be finite and positive"),    # gave T' = [2, -16]
        ([1.0], [np.inf], 1.0, 2, "x_j must be finite and positive"),
        ([1.0], [], np.nan, 1, "s must be finite and positive"),
        ([1.0], [], 0.0, 1, "s must be finite and positive"),
        ([np.inf], [0.5], 1.0, 2, "y_j must be finite and positive"),
    ])
    def test_inputs_are_finite_and_positive(self, y, x_rest, s, n, message):
        with pytest.raises(ValueError, match=message):
            model_T_prime(np.array(y), np.array(x_rest), s)
        # valid entries of the same shape give n = len(y) + len(x_rest) values
        tp, ratios = model_T_prime(np.ones(len(y)), np.ones(len(x_rest)), 1.0)
        assert tp.shape == ratios.shape == (n,)


class TestOracle:
    def test_flat_metric_is_ricci_flat(self):
        # the stencil tables are integers summing to zero, so every metric
        # derivative, and with it the curvature, of a constant metric is 0.0
        for n in (1, 2, 3):
            offsets, c1, c2 = _fd_stencil(n)
            assert len(np.unique(offsets, axis=0)) == len(offsets)
            for table in (c1, c2):
                assert np.array_equal(table, np.round(table))
                assert not np.any(table.sum(axis=-1))
            # built once per n, and read-only so no caller can change them
            assert all(a is b for a, b in zip(_fd_stencil(n), (offsets, c1, c2)))
            for table in (offsets, c1, c2):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1.0

    def test_sphere_block(self):
        spec = make_potential_spec(segment())
        x = np.array([0.4])
        ric = christoffel_ricci_oracle(spec, 1.0, x)
        T = ricci_general(spec, 1.0, x).T
        assert np.max(np.abs(ric - T / 2)) < 1e-6 * np.abs(T).max()

    def test_random_2d_specs(self, rng):
        P = simplex2()
        for trial in range(2):
            phi = PolynomialFn(
                dim=2,
                terms=(
                    ((2, 0), float(rng.uniform(0, 0.2))),
                    ((1, 1), float(rng.uniform(-0.1, 0.1))),
                ),
            )
            spec = make_potential_spec(P, phi=phi)
            for _ in range(3):
                x = rng.uniform(0.1, 0.3, size=2)
                ric = christoffel_ricci_oracle(spec, 0.5, x)
                T = ricci_general(spec, 0.5, x).T
                assert np.max(np.abs(ric - T / 2)) < 1e-5 * np.abs(T).max()

    def test_step_guard(self):
        # the potential's interior rule: x = 1e-15 and x = -1e-15 are both
        # within INTERIOR_TOL of the facet, and give one message
        spec = make_potential_spec(segment())
        for x, shown in ((0.0, r"0\."), (1.0, r"1\."), (-1e-15, r"-1\.e-15"), (1e-15, r"1\.e-15")):
            message = rf"^point \[{shown}\] is within 1e-14 of a facet$"
            with pytest.raises(errors.ToricSpecError, match=message) as excinfo:
                christoffel_ricci_oracle(spec, 1.0, np.array([x]))
            assert excinfo.type is errors.ToricSpecError
        with pytest.raises(errors.InputError, match=r"^point \[1\.5\] is outside the polytope$"):
            christoffel_ricci_oracle(spec, 1.0, np.array([1.5]))


class TestScans:
    def test_identity_model_nonnegative(self):
        rows, infimum = ricci_lower_bound_scan(
            np.eye(2), 2, 2, [1.0, 0.1, 0.01], [50.0, 5.0], grid_points=8
        )
        assert min(infimum.values()) >= -1e-12

    def test_corner_guard(self):
        with pytest.raises(errors.InputError, match="reaches past 5.0 in two corner directions"):
            ricci_lower_bound_scan(np.eye(2), 2, 2, [1.0], [50.0, 50.0])

    def test_skew_corner_decreases(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        _, infimum = ricci_lower_bound_scan(
            A, 2, 2, [1.0, 0.1, 0.01], [50.0, 50.0], grid_points=8, allow_corner=True
        )
        vals = [infimum[s] for s in (1.0, 0.1, 0.01)]
        assert vals[1] < 0.7 * vals[0] and vals[2] < 0.7 * vals[1]

    @pytest.mark.parametrize("A, n, m, z_max, allow_corner", [
        (np.eye(2), 2, 2, [50.0, 5.0], False),
        (SKEW, 2, 2, [50.0, 50.0], True),
        (A3, 3, 2, [5.0, 50.0], False),
    ])
    def test_rows_match_per_point_model(self, A, n, m, z_max, allow_corner):
        s_list, grid = [1.0, 0.1, 0.01], 6
        rows, infimum = ricci_lower_bound_scan(
            A, n, m, s_list, z_max, grid_points=grid, allow_corner=allow_corner
        )
        axes = [np.geomspace(1e-2, zm, grid) for zm in z_max]
        zs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert len(rows) == len(s_list) * grid**m
        for i, (s, x, ratio) in enumerate(rows):
            z = zs[i % len(zs)]
            assert s == s_list[i // len(zs)]
            assert np.array_equal(x[:m], np.sqrt(s) / (2.0 * z))
            assert np.all(np.isnan(x[m:])) and len(x) == n
            ref = model_min_ratio(ModelSpec(A=A, y=np.sqrt(s) * z), s)
            assert abs(ratio - ref) <= 1e-12 * abs(ref)
        for s in s_list:
            assert infimum[s] == min(r for t, _, r in rows if t == s)

    def test_rows_carry_coordinates(self):
        rows, _ = ricci_lower_bound_scan(
            np.eye(1), 1, 1, [0.5], [3.0], grid_points=4
        )
        s, x, ratio = rows[0]
        assert s == 0.5 and len(x) == 1 and np.isfinite(ratio)
