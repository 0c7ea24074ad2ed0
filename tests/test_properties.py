"""Property tests of the exact layer over lattice images of Delzant polytopes.

Each example draws a base polytope, a GL_n(Z) map and an integer shift, and
checks the lattice statements the spectral claims rest on: the count of
quantized points, the agreement of the mode set with them, the local charts
at every quantized point, and the limit cone spectra there.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_pullback,
    brute_force_bs_count,
    random_delzant,
    random_unimodular,
    transform_polytope,
)
from toricspec.curvature import ricci_general
from toricspec.limit import predicted_limit
from toricspec.operator import mode_set
from toricspec.polytope import (
    _det_fraction,
    bs_points,
    hirzebruch,
    local_chart,
    validate_delzant,
)
from toricspec.potential import PolynomialFn, PotentialFamily, make_potential_spec

# small and derandomized: a fixed handful of examples per property
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _image(P, seed):
    rng = np.random.default_rng(seed)
    A = random_unimodular(rng, P.dim)
    return transform_polytope(P, A, rng.integers(-3, 4, size=P.dim))


def _simplex3():
    return validate_delzant(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
    )


def _skew_image_specs(rng, dim):
    """A Delzant polytope P with a quadratic psi, skew for dim >= 2, and its image.

    In 1-D and 2-D P is random; in 3-D it is the simplex, with psi's matrix
    B B^T + 2 I for B with entries in [-1, 1].  The image under x -> A x + c
    carries psi pulled back by the inverse map, so the two metric families
    are isometric.  Returns (spec, spec_Q, A, c).
    """
    if dim == 3:
        P = _simplex3()
        B = rng.integers(-1, 2, size=(3, 3))
        H = B @ B.T + 2 * np.eye(3)
    elif dim == 2:
        P = random_delzant(rng, 2)
        a, d = rng.integers(2, 5, size=2)
        e = rng.choice([-1, 1])
        H = np.array([[a, e], [e, d]], dtype=float)     # positive definite, skew
    else:
        P = random_delzant(rng, 1)
        H = np.array([[rng.integers(2, 5)]], dtype=float)
    A = random_unimodular(rng, dim)
    c = rng.integers(-3, 4, size=dim)
    A_inv = np.round(np.linalg.inv(A.astype(float)))
    spec = make_potential_spec(P, psi=PolynomialFn.quadratic_form(H))
    spec_Q = make_potential_spec(
        transform_polytope(P, A, c), psi=affine_pullback(spec.psi, A_inv, -A_inv @ c)
    )
    return spec, spec_Q, A, c


def _check_lattice_layer(P, Q, levels):
    for k in levels:
        points = bs_points(Q, k)
        assert len(points) == len(bs_points(P, k)) == brute_force_bs_count(Q, k)
        assert mode_set(Q, k, 0) == [b.mode for b in points]
        for b in points:
            _check_chart(Q, b.point)


def _check_chart(P, b):
    ch = local_chart(P, b)
    active = P.active_facets(b)
    assert abs(_det_fraction(ch.lattice_map)) == 1
    assert ch.local_codim == len(active)
    assert ch.apply(b) == (0,) * P.dim
    for v in P.vertices:
        image = ch.apply(v)
        for i, r in enumerate(active):
            assert image[i] >= 0
            assert (image[i] == 0) == (P.facet_values(v)[r] == 0)


@PROPERTY
@given(seed=seeds, dim=st.integers(min_value=1, max_value=2))
def test_random_delzant_images(seed, dim):
    P = random_delzant(np.random.default_rng(seed), dim)
    _check_lattice_layer(P, _image(P, seed + 1), (1, 2, 3))


@PROPERTY
@given(seed=seeds, a=st.integers(min_value=0, max_value=3))
def test_hirzebruch_images(seed, a):
    P = hirzebruch(a)
    _check_lattice_layer(P, _image(P, seed), (1, 2, 3))


@PROPERTY
@given(seed=seeds)
def test_simplex3_images(seed):
    P = _simplex3()
    _check_lattice_layer(P, _image(P, seed), (1, 2))


@PROPERTY
@given(seed=seeds)
def test_cone_spectra_lattice_invariant(seed):
    # x -> A x + c with A in GL_2(Z) maps the quantized points of P onto those
    # of its image, and psi pulled back by the inverse map gives congruent cones
    spec, spec_Q, A, c = _skew_image_specs(np.random.default_rng(seed), 2)
    for k in (1, 2):
        pred = predicted_limit(spec, k)
        pred_Q = {b.point: ls for b, ls in predicted_limit(spec_Q, k).items()}
        assert len(pred_Q) == len(pred)
        for b, ls in pred.items():
            image = tuple(sum(int(A[i, j]) * b.point[j] for j in range(2)) + int(c[i]) for i in range(2))
            assert pred_Q[image].multiplicities == ls.multiplicities
            np.testing.assert_allclose(pred_Q[image].values, ls.values, rtol=1e-12, atol=0)


@PROPERTY
@given(seed=seeds)
def test_ricci_min_ratio_lattice_invariant(seed):
    # the image metric is the pullback of the original one, and min_ratio, the
    # smallest value of the pencil (T, G), does not see the change of chart.
    # The image-chart tensors carry the facet normals to the fourth power, so
    # their own rounding moves min_ratio by up to ~eps cond(G_Q)^2 times the
    # pencil's largest value; at the mild charts 1e-9 relative is what is left.
    # The lattice maps are those of GL_1(Z), GL_2(Z) and GL_3(Z) in turn
    for dim in (1, 2, 3):
        spec, spec_Q, A, c = _skew_image_specs(np.random.default_rng(seed), dim)
        verts = np.array(spec.polytope.vertices, dtype=float)
        centre = verts.mean(axis=0)
        for x in [centre] + [0.5 * (centre + v) for v in verts]:
            for s in (1.0, 0.1):
                data = ricci_general(spec, s, x)
                r = data.min_ratio
                r_Q = ricci_general(spec_Q, s, A @ x + c).min_ratio
                G = PotentialFamily.of_spec(spec, s).tensor(x, 2)
                G_Q = PotentialFamily.of_spec(spec_Q, s).tensor(A @ x + c, 2)
                scale = np.abs(np.linalg.eigvals(np.linalg.solve(G, data.T))).max()
                floor = 10 * np.finfo(float).eps * np.linalg.cond(G_Q) ** 2 * scale
                assert abs(r_Q - r) <= 1e-9 * abs(r) + floor


def test_chart_completion_rows_come_from_a_vertex():
    # on an edge of the 3-simplex the chart completes the two active normals
    # with the third normal of the least vertex of that edge
    P = _simplex3()
    b = (Fraction(1, 2), Fraction(0), Fraction(0))
    ch = local_chart(P, b)
    assert ch.local_codim == 2
    assert ch.lattice_map == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert ch.shift == (0, 0, Fraction(-1, 2))


def _reference_tensor(p, x, order):
    """The derivative chain of a PolynomialFn, derived afresh at every call."""
    n = p.dim
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (n,) * order)
    for idx in combinations_with_replacement(range(n), order):
        q = p
        for i in idx:
            q = q.derivative(i)
        val = q(x)
        for perm in set(permutations(idx)):
            out[(...,) + perm] = val
    return out


@PROPERTY
@given(seed=seeds, dim=st.integers(min_value=1, max_value=3))
def test_polynomial_derivative_tables(seed, dim):
    # tensor evaluates tables built once per order; in any order of requests,
    # repeated or not, it matches the chain to the bit, and a returned array
    # is the caller's to write into
    rng = np.random.default_rng(seed)
    alphas = [a for a in product(range(5), repeat=dim) if sum(a) <= 4]
    chosen = rng.choice(len(alphas), size=rng.integers(0, 7), replace=False)
    coeffs = rng.normal(size=len(chosen)) * (rng.random(len(chosen)) < 0.7)
    p = PolynomialFn(dim=dim, terms=tuple((alphas[i], float(c)) for i, c in zip(chosen, coeffs)))
    X = rng.uniform(-1.0, 1.0, size=(5, dim))
    for order in rng.permutation(np.repeat(np.arange(6), 2)).tolist():
        for x in (X[0], X):
            ref = _reference_tensor(p, x, order)
            got = p.tensor(x, order)
            assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()
            got[...] = np.nan
            assert np.array_equal(p.tensor(x, order), ref)
