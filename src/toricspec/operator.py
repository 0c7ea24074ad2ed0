"""Torus-reduced Laplacian family, one Schrodinger operator per lattice mode.

For each mode m in Z^n the operator on L^2(P, dx) is

    L_{s,k,m} f = -div(G_s^-1 grad f) + [ (m - k x) . G_s (m - k x) + k^2 ] f

with the natural boundary condition selected by its quadratic form.  P1 finite
elements with strictly interior Gauss quadrature discretize it; eigenvalues
map to the holomorphic-sector spectrum through lambda -> (lambda - k^2 - nk)/2.
The exact bound state exp((m - kx) . grad u_s + k u_s) with eigenvalue
k^2 + nk anchors the discretization, and the count of modes with vanishing
bottom eigenvalue must reproduce the lattice point count of k P.

Every P1 matrix goes through one kernel: weight fields at the mesh's
quadrature points become local (M, nb, nb) arrays by einsum with the mesh's
P1 gradients and barycentric values, and Mesh.csr turns their symmetric part
into a matrix with a single bincount on the one fixed CSR pattern of the
mesh, built once however many operators share the mesh.
A mode's stiffness is the shared diffusion part plus its potential part,
summed locally and scattered once; mode_potential is the one source of V_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .errors import (
    CoefficientOverflow,
    ConvergenceFailure,
    NegativeEigenvalue,
    NotPositiveDefiniteMass,
)
from .mesh import Mesh
from .polytope import _check_level, _check_mode, _lattice_points
from .potential import PotentialSpec, family_hessian_batch

V_OVERFLOW = 1e14
RESIDUAL_TOL = 1e-8
RAYLEIGH_CHUNK = 200000      # cells per block of the matrix-free Rayleigh quotient


@dataclass
class ReducedOperator:
    """Stiffness/mass pair of one (s, k, m) reduced operator; k sets the default shift."""

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    k: int


@dataclass
class Spectrum:
    """Ascending generalized eigenvalues with residuals and nodal vectors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray      # (n_dofs, count), M-orthonormal


def mode_potential(G, x, k, mode):
    """V_m = (m - k x) . G (m - k x) + k^2 at points x (..., n) with G = G_s(x)."""
    w = np.asarray(mode, dtype=float) - k * np.asarray(x, dtype=float)
    return np.einsum("...i,...ij,...j->...", w, G, w) + float(k) ** 2


def mode_set(P, k, margin=0):
    """Integer vectors of k P inflated by ``margin`` lattice units per facet.

    The inflated region is {m : nu_r . m >= k lambda_r - margin}; the modes
    with m/k in P are exactly the quantized ones, the rest probe divergence.
    """
    k = _check_level(k)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return _lattice_points(P, [k * lam - margin for lam in P.offsets])


def _stiffness_local(w_q, grads, D_q=None):
    """Local arrays int w grad phi_i . D grad phi_j, D = identity when omitted."""
    if D_q is None:
        return np.einsum("cq,cia,cja->cij", w_q, grads, grads)
    return np.einsum("cq,cia,cqab,cjb->cij", w_q, grads, D_q, grads)


def _mass_local(w_q, bary):
    """Local arrays int w phi_i phi_j from a weight field (M, Q)."""
    nb = bary.shape[1]
    outer = (bary[:, :, None] * bary[:, None, :]).reshape(len(bary), nb * nb)
    return (w_q @ outer).reshape(-1, nb, nb)


def assemble_p1(mesh: Mesh, diffusion_q, mass_weight_q):
    """Weighted P1 pair K = int w_D grad phi . grad phi, M = int w phi phi.

    diffusion_q and mass_weight_q are scalar fields (M, Q) at the quadrature
    points.
    """
    qw = mesh.qweights
    K = mesh.csr(_stiffness_local(qw * diffusion_q, mesh.grads))
    M = mesh.csr(_mass_local(qw * mass_weight_q, mesh.bary))
    return K, M


class OperatorFactory:
    """Shares G_s quadrature data and the mass matrix across modes of one (s, k)."""

    def __init__(self, spec: PotentialSpec, s, k, mesh: Mesh):
        self.k = _check_level(k)
        self.mesh = mesh
        n = mesh.dim
        G_q, Ginv_q = family_hessian_batch(spec, s, mesh.qpoints.reshape(-1, n))
        self._G_q = G_q.reshape(mesh.qweights.shape + (n, n))
        self._K_diff_local = _stiffness_local(
            mesh.qweights, mesh.grads, Ginv_q.reshape(self._G_q.shape)
        )
        self._M = mesh.csr(_mass_local(mesh.qweights, mesh.bary))
        if np.any(self._M.diagonal() <= 0.0):
            raise NotPositiveDefiniteMass("mass matrix has a nonpositive diagonal")

    def operator(self, mode):
        mesh = self.mesh
        mode = _check_mode(mode, mesh.dim)
        V = mode_potential(self._G_q, mesh.qpoints, self.k, mode)
        if np.max(V) > V_OVERFLOW:
            raise CoefficientOverflow(
                f"potential reaches {np.max(V):.3e} at a quadrature point"
            )
        K = mesh.csr(self._K_diff_local + _mass_local(mesh.qweights * V, mesh.bary))
        return ReducedOperator(K=K, M=self._M, k=self.k)


def ground_state_rayleigh_batch(spec: PotentialSpec, s, k, modes, mesh: Mesh):
    """Bound-state Rayleigh quotients for many modes without assembling matrices.

    Streams over cell blocks, so it handles the finest convergence-study
    meshes in bounded memory, and shares each block's G_s across the modes.
    """
    from .potential import ground_state

    nodal = {m: ground_state(spec, s, k, m)(mesh.nodes) for m in modes}
    num = dict.fromkeys(nodal, 0.0)
    den = dict.fromkeys(nodal, 0.0)
    for start in range(0, mesh.num_cells, RAYLEIGH_CHUNK):
        sl = slice(start, start + RAYLEIGH_CHUNK)
        qp = mesh.qpoints[sl]
        qw = mesh.qweights[sl]
        G, Ginv = family_hessian_batch(spec, s, qp.reshape(-1, mesh.dim))
        G = G.reshape(qw.shape + (mesh.dim, mesh.dim))
        Ginv = Ginv.reshape(G.shape)
        for m, values in nodal.items():
            v = values[mesh.cells[sl]]
            grad_v = np.einsum("ci,cia->ca", v, mesh.grads[sl])
            diff = np.einsum("ca,cqab,cb->cq", grad_v, Ginv, grad_v)
            vals = np.einsum("qi,ci->cq", mesh.bary, v)
            num[m] += float(np.sum(qw * (diff + mode_potential(G, qp, k, m) * vals * vals)))
            den[m] += float(np.sum(qw * vals * vals))
    return {m: num[m] / den[m] for m in nodal}


def solve_pencil(K, M, count, sigma):
    """Lowest ``count`` pairs of K v = lambda M v, residuals checked.

    ``sigma`` must sit below the lowest eigenvalue, and ``count`` must be at
    least 1 and below N - 1 for N dofs, the bound of ARPACK's nonsymmetric
    solver (dnaupd).

    Shift-invert in standard mode: ARPACK's generalized mode works in the M
    inner product and calls back for about three M products per Krylov step,
    which on small pencils costs more than the solves.  Here the operator
    x -> d * (K - sigma M)^-1 M (x / d), d = sqrt(diag M), is similar to
    (K - sigma M)^-1 M, with the values 1 / (lambda - sigma), and costs one
    callback per step.  It is not symmetric, so ARPACK's Arnoldi iteration
    runs it; the scaling by d makes it nearly symmetric, without which the
    Ritz vectors of a mass matrix with a Gaussian weight of many orders of
    magnitude miss the residual tolerance.  A Rayleigh-Ritz step on the real
    span of the Ritz vectors then returns values of the symmetric pencil,
    ascending, with M-orthonormal vectors, even where Arnoldi splits a
    near-double value into a conjugate pair.

    The start vector is random from a fixed seed: fixed so that a pencil
    solved twice gives the same bits, random because a symmetric start on a
    symmetric mesh keeps the Krylov space symmetric and can miss
    antisymmetric eigenvectors.
    """
    N = K.shape[0]
    if not 1 <= count < N - 1:
        raise ValueError(f"count {count} must be >= 1 and below N - 1 for N = {N} dofs")
    lu = splinalg.splu(sparse.csc_matrix(K - sigma * M))
    d = np.sqrt(M.diagonal())
    op = splinalg.LinearOperator(
        (N, N), matvec=lambda x: d * lu.solve(M @ (x / d)), dtype=float
    )
    v0 = np.random.default_rng(0).standard_normal(N)
    try:
        thetas, ritz = splinalg.eigs(op, k=count, which="LM", v0=v0)
    except splinalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # real basis of the Ritz span: a conjugate pair contributes Re and Im once
    columns, seen = [], set()
    for theta, v in zip(thetas, ritz.T):
        if theta.imag == 0.0:
            columns.append(v.real)
        elif theta.conjugate() not in seen:
            columns += [v.real, v.imag]
        seen.add(theta)
    W = np.column_stack(columns) / d[:, None]
    try:
        vals, C = scipy.linalg.eigh(W.T @ (K @ W), W.T @ (M @ W))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Ritz basis Gram matrix: {exc}") from exc
    vals, vecs = vals[:count], W @ C[:, :count]
    residuals = np.empty(count)
    for i in range(count):
        v = vecs[:, i]
        r = K @ v - vals[i] * (M @ v)
        residuals[i] = np.linalg.norm(r) / np.linalg.norm(M @ v)
    if np.any(residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))):
        raise ConvergenceFailure(
            f"residuals {residuals} exceed {RESIDUAL_TOL} x max(1, |lambda|)"
        )
    return Spectrum(eigenvalues=vals, residuals=residuals, vectors=vecs)


def solve_eigs(op: ReducedOperator, count):
    """Lowest ``count`` eigenpairs of a reduced operator, shifted below k^2."""
    return solve_pencil(op.K, op.M, count, op.k**2 - 1.0)


def dbar_spectrum(spec: PotentialSpec, s, k, mode, mesh: Mesh, count):
    """Holomorphic-sector eigenvalues (lambda - k^2 - nk)/2 of one mode."""
    spectrum = solve_eigs(OperatorFactory(spec, s, k, mesh).operator(mode), count)
    return map_dbar(spectrum, k, spec.polytope.dim), spectrum


def map_dbar(spectrum: Spectrum, k, n):
    shifted = (spectrum.eigenvalues - k * k - k * n) / 2.0
    if np.any(shifted < -1e-6):
        raise NegativeEigenvalue(
            f"holomorphic-sector eigenvalue {shifted.min():.3e} below -1e-6"
        )
    return np.maximum(shifted, 0.0)
