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
mode_potential defines V_m.  Expanded in the mode,

    V_m = k^2 (x . G x + 1) + sum_{i<=j} c_ij m_i m_j G_ij - 2k sum_i m_i (G x)_i

(c_ii = 1, c_ij = 2 for i < j), it is linear in 1 + n(n+1)/2 + n weight
fields.  An OperatorFactory scatters each field once, the diffusion part
riding with the first, so a mode's stiffness is a fixed combination of CSR
data vectors and the same coefficients give V_m at the quadrature points.

The discrete diffusion form is nonnegative, and V_m and the mass use the
same positive quadrature, so every Rayleigh quotient of a mode's pencil is
at least min_q V_m(x_q).  The operator's shift sigma = min_q V_m - 1 is
therefore certified below its spectrum, and it follows the spectrum of a
non-quantized mode, whose bottom grows like dist(m, kP)^2 / s.
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
    """Stiffness/mass pair of one (s, k, m) reduced operator on one CSR pattern.

    sigma = min_q V_m(x_q) - 1 lies below every eigenvalue of the pencil.
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    sigma: float


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
    """Shares G_s quadrature data and the mass matrix across modes of one (s, k).

    Each mode's stiffness data and quadrature values of V_m are one
    combination of the weight fields (see the module docstring).
    """

    def __init__(self, spec: PotentialSpec, s, k, mesh: Mesh):
        self.k = _check_level(k)
        self.mesh = mesh
        n = mesh.dim
        qw, x = mesh.qweights, mesh.qpoints
        G_q, Ginv_q = family_hessian_batch(spec, s, x.reshape(-1, n))
        G_q = G_q.reshape(qw.shape + (n, n))
        Gx = np.einsum("cqij,cqj->cqi", G_q, x)
        rows, cols = np.triu_indices(n)
        self._fields = np.concatenate([
            [self.k**2 * (np.einsum("cqi,cqi->cq", x, Gx) + 1.0)],
            np.moveaxis(G_q[..., rows, cols], -1, 0),
            np.moveaxis(Gx, -1, 0),
        ])
        self._data = np.stack([mesh.csr(_mass_local(qw * w, mesh.bary)).data for w in self._fields])
        self._data[0] += mesh.csr(_stiffness_local(qw, mesh.grads, Ginv_q.reshape(G_q.shape))).data
        self._pairs = np.where(rows == cols, 1.0, 2.0), rows, cols
        self._M = mesh.csr(_mass_local(qw, mesh.bary))
        if np.any(self._M.diagonal() <= 0.0):
            raise NotPositiveDefiniteMass("mass matrix has a nonpositive diagonal")

    def operator(self, mode):
        m = np.array(_check_mode(mode, self.mesh.dim), dtype=float)
        c, rows, cols = self._pairs
        coef = np.concatenate([[1.0], c * m[rows] * m[cols], -2.0 * self.k * m])
        # einsum, not a BLAS product: BLAS threads woken here keep spinning
        # through the factorization that follows and slow it on small hosts
        V = np.einsum("f,fcq->cq", coef, self._fields)
        if np.max(V) > V_OVERFLOW:
            raise CoefficientOverflow(
                f"potential reaches {np.max(V):.3e} at a quadrature point"
            )
        M = self._M
        data = np.einsum("f,fj->j", coef, self._data)
        K = sparse.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
        return ReducedOperator(K=K, M=M, sigma=float(np.min(V)) - 1.0)


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

    K and M are symmetric CSR matrices on one sparsity pattern (ValueError
    otherwise).  ``sigma`` must sit below the lowest eigenvalue, and
    ``count`` must be at least 1 and below N - 1 for N dofs, the bound of
    ARPACK's nonsymmetric solver (dnaupd).

    K - sigma M is formed on the shared pattern and factored as it stands:
    it is symmetric, so its CSR arrays read as CSC give the same matrix.
    Shift-invert in standard mode: ARPACK's generalized mode works in the M
    inner product and calls back for about three M products per Krylov step,
    which on small pencils costs more than the solves.  Here the operator
    x -> d * (K - sigma M)^-1 M (x / d), d = sqrt(diag M), is similar to
    (K - sigma M)^-1 M, with the values 1 / (lambda - sigma), and costs one
    callback per step.  It is not symmetric, so ARPACK's Arnoldi iteration
    runs it; the scaling by d makes it nearly symmetric, without which the
    Ritz vectors of a mass matrix with a Gaussian weight of many orders of
    magnitude miss the residual tolerance.  A Rayleigh-Ritz step on the real
    span W of the Ritz vectors then returns values of the symmetric pencil,
    ascending, with M-orthonormal vectors, even where Arnoldi splits a
    near-double value into a conjugate pair.  K W and M W are formed once and
    serve the projection and every residual.  A Gram matrix W^T M W whose
    smallest eigenvalue is not above RESIDUAL_TOL times its largest means a
    dependent basis and raises ConvergenceFailure.

    The start vector is random from a fixed seed: fixed so that a pencil
    solved twice gives the same bits, random because a symmetric start on a
    symmetric mesh keeps the Krylov space symmetric and can miss
    antisymmetric eigenvectors.
    """
    N = K.shape[0]
    if not 1 <= count < N - 1:
        raise ValueError(f"count {count} must be >= 1 and below N - 1 for N = {N} dofs")
    if not (
        K.format == M.format == "csr"
        and np.array_equal(K.indptr, M.indptr)
        and np.array_equal(K.indices, M.indices)
    ):
        raise ValueError("K and M must be CSR matrices on one sparsity pattern")
    shifted = sparse.csc_matrix((K.data - sigma * M.data, K.indices, K.indptr), shape=K.shape)
    lu = splinalg.splu(shifted)
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
    KW, MW = K @ W, M @ W
    gram = W.T @ MW
    gram_eigs = np.linalg.eigvalsh(gram)
    if not gram_eigs[0] > RESIDUAL_TOL * gram_eigs[-1]:
        raise ConvergenceFailure(
            f"Ritz basis Gram matrix is rank-deficient: eigenvalues "
            f"{gram_eigs[0]:.3e} to {gram_eigs[-1]:.3e}"
        )
    vals, C = scipy.linalg.eigh(W.T @ KW, gram)
    vals, C = vals[:count], C[:, :count]
    MV = MW @ C
    residuals = np.linalg.norm(KW @ C - MV * vals, axis=0) / np.linalg.norm(MV, axis=0)
    if np.any(residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))):
        raise ConvergenceFailure(
            f"residuals {residuals} exceed {RESIDUAL_TOL} x max(1, |lambda|)"
        )
    return Spectrum(eigenvalues=vals, residuals=residuals, vectors=W @ C)


def solve_eigs(op: ReducedOperator, count):
    """Lowest ``count`` eigenpairs of a reduced operator, shifted to its certified op.sigma."""
    return solve_pencil(op.K, op.M, count, op.sigma)


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
