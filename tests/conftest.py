"""Shared helpers: random Delzant polytopes and their potentials, brute-force
lattice oracles, mesh and operator helpers."""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from toricspec.mesh import Mesh, _cell_edges, _edge_lengths
from toricspec.operator import OperatorFactory
from toricspec.polytope import DelzantPolytope, validate_delzant
from toricspec.potential import PolynomialFn

SHAPE_LIMIT = 10.0       # largest admitted longest edge / (2 inradius)


def random_unimodular(rng, n):
    """Product of random elementary integer row operations, det = +-1."""
    A = np.eye(n, dtype=int)
    for _ in range(rng.integers(2, 6)):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        A[i] += int(rng.integers(-2, 3)) * A[j]
    if rng.random() < 0.5 and n > 1:
        A[[0, 1]] = A[[1, 0]]
    if rng.random() < 0.5:
        A[0] = -A[0]
    return A


def transform_polytope(P: DelzantPolytope, A, c):
    """Image polytope under x -> A x + c with A in GL_n(Z), c integer."""
    A = np.asarray(A, dtype=int)
    c = np.asarray(c, dtype=int)
    A_inv_T = np.round(np.linalg.inv(A.T)).astype(int)
    raw = []
    for nu, lam in zip(P.normals, P.offsets):
        nu_new = A_inv_T @ np.array(nu, dtype=int)
        lam_new = lam + int(nu_new @ c)
        raw.append((tuple(int(v) for v in nu_new), lam_new))
    return validate_delzant(raw, dim=P.dim)


def _poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def affine_pullback(p: PolynomialFn, B, d):
    """Polynomial q(y) = p(B y + d), expanded in y: the potential of an image polytope."""
    B = [[float(v) for v in row] for row in B]
    d = [float(v) for v in d]
    n = p.dim
    acc = {}
    for alpha, c in p.terms:
        poly = {tuple([0] * n): c}
        for i, a in enumerate(alpha):
            lin = {tuple([0] * n): d[i]}
            for j in range(n):
                if B[i][j] != 0.0:
                    key = tuple(1 if t == j else 0 for t in range(n))
                    lin[key] = lin.get(key, 0.0) + B[i][j]
            for _ in range(a):
                poly = _poly_mul(poly, lin)
        for key, val in poly.items():
            acc[key] = acc.get(key, 0.0) + val
    terms = tuple((k, v) for k, v in sorted(acc.items()) if v != 0.0)
    return PolynomialFn(dim=n, terms=terms)


def random_delzant(rng, n):
    """Random GL_n(Z)-image of a stock polytope, optionally dilated."""
    scale = int(rng.integers(1, 4))
    if n == 1:
        base = validate_delzant([((1,), 0), ((-1,), -scale)])
    else:
        kind = rng.integers(0, 3)
        if kind == 0:
            base = validate_delzant(
                [((1, 0), 0), ((0, 1), 0), ((-1, -1), -scale)]
            )
        elif kind == 1:
            base = validate_delzant(
                [((1, 0), 0), ((0, 1), 0), ((-1, 0), -scale), ((0, -1), -scale)]
            )
        else:
            base = validate_delzant(
                [((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -1), -scale - 1)]
            )
    A = random_unimodular(rng, n)
    c = rng.integers(-3, 4, size=n)
    return transform_polytope(base, A, c)


def brute_force_bs_count(P: DelzantPolytope, k):
    """Exhaustive scan of the integer bounding box of k P."""
    lo, hi = P.bounding_box()
    ranges = [
        range(int(np.floor(float(a) * k)) - 1, int(np.ceil(float(b) * k)) + 2)
        for a, b in zip(lo, hi)
    ]
    count = 0
    for m in product(*ranges):
        if P.contains(tuple(Fraction(v, k) for v in m)):
            count += 1
    return count


def shape_regularity(mesh: Mesh):
    """max over cells of longest edge / (2 inradius); 1d meshes return 1."""
    if mesh.dim == 1:
        return 1.0
    lengths = _edge_lengths(mesh.nodes, mesh.cells)
    s = 0.5 * lengths.sum(axis=1)
    area = np.sqrt(np.maximum(s * np.prod(s[:, None] - lengths, axis=1), 0.0))
    return float((lengths.max(axis=1) * s / (2.0 * area)).max())


def check_mesh(mesh: Mesh, P=None):
    """Raise AssertionError if the mesh violates its contract."""
    assert shape_regularity(mesh) <= SHAPE_LIMIT, "shape regularity exceeded"
    if P is not None:
        normals = np.array(P.normals, dtype=float)
        offsets = np.array(P.offsets, dtype=float)
        node_vals = mesh.nodes @ normals.T - offsets
        assert node_vals.min() > -1e-9, "node outside the closed polytope"
        q = mesh.qpoints.reshape(-1, mesh.dim)
        q_vals = q @ normals.T - offsets
        assert q_vals.min() > 0.0, "quadrature point not strictly interior"
    # conforming: every edge shared by at most two cells
    if mesh.dim == 2:
        _, cell_edges = _cell_edges(mesh.cells)
        assert np.bincount(cell_edges.ravel()).max() <= 2, "non-conforming edge"


def fubini_study_values(P, k, m, count):
    """Lowest ``count`` dbar values of mode m at the Fubini-Study end, ascending,
    each repeated by its multiplicity.

    The end is phi = 0 and s -> infinity, where u_s is v_P.  With
    D_m = sum_r |nu_r . m - k lambda_r| the values are
    ((q + D_m)(q + D_m + n) - k^2 - n k) / 2 with multiplicity C(q + n - 1, n - 1)
    for q >= 0; a quantized mode has D_m = k.  In 1-D, t = 1 - 2x turns the
    mode's operator on the segment into the Jacobi equation, whose eigenvalues
    are (q + D_m)(q + D_m + 1).  The 2-D form was measured, not derived: on
    the simplex and two of its GL_2(Z) images, at k = 1, 2 and every mode
    within one lattice unit of k P, the P1 values approach it at the h^2 rate.
    D_m reads the polytope's own facets, so the mode labelling of an image is
    checked too.
    """
    n = P.dim
    D = sum(abs(int(np.dot(nu, m)) - k * lam) for nu, lam in zip(P.normals, P.offsets))
    out, q = [], 0
    while len(out) < count:
        value = ((q + D) * (q + D + n) - k * k - n * k) / 2
        out += [value] * comb(q + n - 1, n - 1)
        q += 1
    return np.array(out[:count], dtype=float)


def mode_operator(spec, s, k, mode, mesh):
    """ReducedOperator of one mode, from a factory built for it alone."""
    return OperatorFactory(spec, s, k, mesh).operator(mode)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
