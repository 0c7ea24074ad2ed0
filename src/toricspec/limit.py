"""Limit operators at quantized points: Gaussian oscillators on cones.

At a quantized point b the polytope is normalized by a unimodular chart and
rescaled by xi = s^(-1/2) A0^(1/2) x with A0 the Hessian of the regulator psi
at b.  The limit operator sum_i(-d^2/dxi_i^2 + 2 k xi_i d/dxi_i) acts on
L^2(cone, e^{-k ||xi||^2} dxi) with the Neumann condition on the cone faces.
Its spectrum has a closed form on every right-angled cone and on every 2-D
cone, a sector, whose oscillator separates in polar coordinates; a weighted
finite element solve serves as the independent check of those forms.
Reported eigenvalues carry the factor 1/2 used in the degeneration dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import InputError, ToricSpecError, _check_integer
from .mesh import interval_mesh, polygon_mesh
from .operator import ReducedOperator, assemble_p1, solve_eigs
from .polytope import BSPoint, bs_points, local_chart
from .potential import PotentialSpec

SEPARABLE_TOL = 1e-12
SECTOR_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ConeModel:
    """Local cone A0^(1/2) (R_{>=0}^m x R^(n-m)) of a quantized point."""

    codim: int               # number of cone faces m
    A0: np.ndarray           # Hess(psi) at the base point, chart coordinates

    @property
    def dim(self):
        return self.A0.shape[0]

    def facet_normals(self):
        """Unit inward normals of the cone faces: rows of A0^(-1/2), by eigh(A0), normalized."""
        w, U = np.linalg.eigh(self.A0)
        rows = ((U / np.sqrt(w)) @ U.T)[: self.codim]
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@dataclass(frozen=True)
class LimitSpectrum:
    """Ascending eigenvalues of half the cone operator, with multiplicities."""

    values: tuple            # distinct eigenvalues, ascending
    multiplicities: tuple
    exact: bool

    def flat(self, count):
        """The lowest ``count`` values (an integer >= 0), each repeated by its multiplicity."""
        count = _check_integer(count, "count", 0)
        return np.array([v for v, m in zip(self.values, self.multiplicities) for _ in range(m)][:count])


def cone_at(spec: PotentialSpec, b: BSPoint):
    """Chart-normalized cone at a quantized point, A0 = Hess(psi) in the chart."""
    chart = local_chart(spec.polytope, b.point)
    A_inv = np.array(chart.lattice_inverse(), dtype=float)
    x0 = np.array([float(c) for c in b.point])
    A0 = A_inv.T @ spec.psi.tensor(x0, 2) @ A_inv
    return ConeModel(codim=chart.local_codim, A0=A0)


def is_separable(cone: ConeModel):
    """True when the cone is congruent to a right-angled model.

    The unit facet normals u_i, which also give a sector its opening angle,
    must be pairwise orthogonal: every cosine u_i . u_j, i != j, at most
    SEPARABLE_TOL, a test that no scaling of A0 changes.  Any cone with
    m <= 1 is a rotated half-space or all of R^n, hence always separable.
    """
    if cone.codim <= 1:
        return True
    u = cone.facet_normals()
    return bool(np.max(np.abs(u @ u.T - np.eye(cone.codim))) <= SEPARABLE_TOL)


def exact_cone_spectrum(cone: ConeModel, k, n_max=12):
    """Closed-form spectrum of half the cone operator, every value <= k n_max.

    A right-angled cone has value k N with multiplicity
    #{kappa in Z_{>=0}^n : 2 sum_{i<=m} kappa_i + sum_{i>m} kappa_i = N}.
    A skew 2-D cone is a sector of opening alpha; its eigenfunctions
    r^nu cos(nu theta) L_j^(nu)(k r^2), nu = l pi / alpha, give the values
    k (2 j + nu) for j, l >= 0.  A skew cone with n >= 3 has no closed form.
    n_max is an integer >= 0.
    """
    k = _check_integer(k, "level k", 1)
    n_max = _check_integer(n_max, "n_max", 0)
    n, m = cone.dim, cone.codim
    if not is_separable(cone):
        if n != 2:
            raise InputError(f"a skew cone with n >= 3 has no closed form (n = {n})")
        return _sector_spectrum(k, _opening_angle(cone), n_max)
    values, mults = [], []
    for N in range(n_max + 1):
        count = _weighted_compositions(N, m, n - m)
        if count > 0:
            values.append(float(k * N))
            mults.append(int(count))
    return LimitSpectrum(values=tuple(values), multiplicities=tuple(mults), exact=True)


def _opening_angle(cone: ConeModel):
    """Opening angle of a cone with two faces, pi minus the angle of its normals."""
    n1, n2 = cone.facet_normals()
    return float(np.pi - np.arccos(np.clip(n1 @ n2, -1.0, 1.0)))


def _sector_spectrum(k, alpha, n_max):
    """Values k (2 j + l pi / alpha) <= k n_max of a sector of opening alpha.

    Values that coincide because pi / alpha is rational are merged within
    SECTOR_MERGE_TOL relative, each group keeping its smallest member.
    """
    nu = np.pi / alpha
    top = n_max * (1.0 + SECTOR_MERGE_TOL)
    reduced = [
        2 * j + l * nu
        for l in range(int(top / nu) + 1)
        for j in range(int((top - l * nu) / 2) + 1)
    ]
    values, mults = _cluster(sorted(k * v for v in reduced), tol=SECTOR_MERGE_TOL)
    return LimitSpectrum(values=tuple(values), multiplicities=tuple(mults), exact=True)


def _weighted_compositions(N, m, rest):
    """#{kappa : 2(kappa_1 + .. + kappa_m) + kappa_{m+1} + .. + kappa_{m+rest} = N}."""
    return sum(_compositions(e, m) * _compositions(N - 2 * e, rest) for e in range(N // 2 + 1))


def _compositions(N, slots):
    """#{kappa in Z_{>=0}^slots : kappa_1 + .. + kappa_slots = N}."""
    return comb(N + slots - 1, slots - 1) if slots else int(N == 0)


def default_truncation_radius(k):
    """sqrt(30 / k), where the Gaussian weight e^{-k R^2} is e^-30; k is an integer >= 1."""
    return float(np.sqrt(30.0 / _check_integer(k, "level k", 1)))


def truncated_cone_mesh(cone: ConeModel, R, target_h):
    """Mesh of the cone intersected with the centered box of half-width R.

    In 2-D the region is one half-space intersection (qhull: Barber, Dobkin &
    Huhdanpaa 1996, in any dimension) of the box sides +-xi_i <= R and the
    cone faces nu . xi >= 0, from the point 0.1 R sum(nu), which is strictly
    inside because the faces of a Delzant corner meet at an angle below pi.
    """
    n, m = cone.dim, cone.codim
    if n == 1:
        lo = 0.0 if m >= 1 else -R
        return interval_mesh(lo, R, target_h, graded=False)
    if n == 2:
        # scipy.spatial adds 80 ms to the package's import, and a sweep meshes no cone
        from scipy.spatial import HalfspaceIntersection

        nu = cone.facet_normals()
        A = np.vstack([np.eye(n), -np.eye(n), -nu])
        b = np.concatenate([np.full(2 * n, -R), np.zeros(m)])
        region = HalfspaceIntersection(np.column_stack([A, b]), 0.1 * R * nu.sum(axis=0))
        return polygon_mesh(region.intersections, target_h, graded=False)
    raise InputError("numeric cone spectra for n <= 2 only")


def numeric_cone_spectrum(cone: ConeModel, k, count, target_h=None):
    """Weighted P1 solve of the cone operator, the FEM oracle of the closed forms.

    Returns half the lowest count eigenvalues as an array.  Stiffness and
    mass both carry the Gaussian weight e^{-k ||xi||^2}; the natural boundary
    condition realizes Neumann on the cone faces, and the truncation at
    radius R = default_truncation_radius(k) contributes only exponentially
    small error.  target_h defaults to R/400 in 1-D and R/56 in 2-D.
    predicted_limit never calls it.
    """
    k = _check_integer(k, "level k", 1)
    R = default_truncation_radius(k)
    if target_h is None:
        target_h = R / 400.0 if cone.dim == 1 else R / 56.0
    vals = solve_eigs(_cone_pencil(cone, k, R, target_h), count).eigenvalues
    if abs(vals[0]) > 1e-6:
        raise ToricSpecError(f"bottom eigenvalue {vals[0]:.3e} off zero")
    return 0.5 * vals


def _cone_pencil(cone: ConeModel, k, R, target_h):
    """The pencil of the cone truncated at R, stiffness and mass both weighted by
    e^{-k ||xi||^2}; the stiffness is nonnegative, so sigma = -1 is below the spectrum."""
    mesh = truncated_cone_mesh(cone, R, target_h)
    q = mesh.qpoints.reshape(-1, mesh.dim)
    weight = np.exp(-k * np.sum(q * q, axis=1)).reshape(mesh.qweights.shape)
    return ReducedOperator(*assemble_p1(mesh, weight), sigma=-1.0)


def _cluster(vals, tol):
    values, mults = [], []
    for v in vals:
        if values and abs(v - values[-1]) <= tol * (1.0 + abs(v)):
            mults[-1] += 1
        else:
            values.append(float(v))
            mults.append(1)
    return values, mults


def predicted_limit(spec: PotentialSpec, k, count=8):
    """Per quantized point, the closed-form limit spectrum of its cone.

    Every cone of dimension n <= 2 has one (right-angled or a sector), so no
    finite element solve runs; a skew cone with n >= 3 has none and raises
    InputError.  Each spectrum lists the values up to
    k max(count + 2 n + 4, 2 (count - 1)); every cone has the values 2 k j,
    j >= 0, so ``flat(count)`` always holds ``count`` values; ``count`` must be
    an integer >= 1.
    """
    count = _check_integer(count, "count", 1)
    out = {}
    for b in bs_points(spec.polytope, k):
        cone = cone_at(spec, b)
        n_max = max(count + 2 * cone.dim + 4, 2 * (count - 1))
        out[b] = exact_cone_spectrum(cone, k, n_max=n_max)
    return out

