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
P1 gradients and barycentric values, and one fixed CSR pattern of the mesh
turns their symmetric part into a matrix with a single bincount.
A mode's stiffness is the shared diffusion part plus its potential part,
summed locally and scattered once; mode_potential is the one source of V_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .errors import (
    CoefficientOverflow,
    ConvergenceFailure,
    NegativeEigenvalue,
    NotPositiveDefiniteMass,
)
from .mesh import Mesh
from .polytope import _lattice_points
from .potential import PotentialFamily, PotentialSpec, family_hessian_batch

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


def reduced_coefficients(spec: PotentialSpec, s, k, m, x):
    """Diffusion matrix G_s^-1(x) and potential V(x) of the mode-m operator."""
    x = np.asarray(x, dtype=float)
    G = PotentialFamily.of_spec(spec, s).hessian(x)
    return np.linalg.inv(G), float(mode_potential(G, x, k, m))


def mode_set(P, k, margin=0):
    """Integer vectors of k P inflated by ``margin`` lattice units per facet.

    The inflated region is {m : nu_r . m >= k lambda_r - margin}; the modes
    with m/k in P are exactly the quantized ones, the rest probe divergence.
    """
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


class _CSRPattern:
    """Fixed CSR pattern of P1 matrices on one mesh.

    indptr/indices hold the sorted unique (row, col) node pairs that share a
    cell; slot sends entry (c, i, j) of a local array (M, nb, nb) to its place
    in the CSR data, so every matrix on the mesh is one bincount.
    """

    def __init__(self, mesh: Mesh):
        cells = mesh.cells.astype(np.int64)
        N = mesh.num_nodes
        keys = cells[:, :, None] * N + cells[:, None, :]
        pairs, self.slot = np.unique(keys.reshape(-1), return_inverse=True)
        self.indices = pairs % N
        self.indptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // N, minlength=N), out=self.indptr[1:])
        self.shape = (N, N)

    def matrix(self, local):
        """CSR matrix of the symmetric part of the local arrays."""
        sym = 0.5 * (local + local.transpose(0, 2, 1))
        data = np.bincount(self.slot, weights=sym.reshape(-1), minlength=len(self.indices))
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def assemble_p1(mesh: Mesh, diffusion_q, mass_weight_q=None):
    """Weighted P1 pair K = int w_D grad phi . grad phi, M = int w phi phi.

    diffusion_q and mass_weight_q are scalar fields (M, Q) at the quadrature
    points; an omitted mass weight is 1.
    """
    qw = mesh.qweights
    pattern = _CSRPattern(mesh)
    K = pattern.matrix(_stiffness_local(qw * diffusion_q, mesh.grads))
    M = pattern.matrix(_mass_local(qw if mass_weight_q is None else qw * mass_weight_q, mesh.bary))
    return K, M


class OperatorFactory:
    """Shares G_s quadrature data and the mass matrix across modes of one (s, k)."""

    def __init__(self, spec: PotentialSpec, s, k, mesh: Mesh):
        self.k = int(k)
        self.mesh = mesh
        n = mesh.dim
        G_q, Ginv_q = family_hessian_batch(spec, s, mesh.qpoints.reshape(-1, n))
        self._G_q = G_q.reshape(mesh.qweights.shape + (n, n))
        self._pattern = _CSRPattern(mesh)
        self._K_diff_local = _stiffness_local(
            mesh.qweights, mesh.grads, Ginv_q.reshape(self._G_q.shape)
        )
        self._M = self._pattern.matrix(_mass_local(mesh.qweights, mesh.bary))
        if np.any(self._M.diagonal() <= 0.0):
            raise NotPositiveDefiniteMass("mass matrix has a nonpositive diagonal")

    def operator(self, mode):
        mesh = self.mesh
        V = mode_potential(self._G_q, mesh.qpoints, self.k, mode)
        if np.max(V) > V_OVERFLOW:
            raise CoefficientOverflow(
                f"potential reaches {np.max(V):.3e} at a quadrature point"
            )
        K = self._pattern.matrix(self._K_diff_local + _mass_local(mesh.qweights * V, mesh.bary))
        return ReducedOperator(K=K, M=self._M, k=self.k)

    def l2_density(self, nodal):
        """Quadrature weight times the squared P1 interpolant (M, Q); sums to ||v||^2."""
        mesh = self.mesh
        vals = np.einsum("qi,ci->cq", mesh.bary, nodal[mesh.cells])
        return mesh.qweights * vals * vals


def assemble(spec: PotentialSpec, s, k, mode, mesh: Mesh):
    """ReducedOperator for one mode; use OperatorFactory for mode sweeps."""
    return OperatorFactory(spec, s, k, mesh).operator(mode)


def rayleigh_quotient(op: ReducedOperator, nodal):
    """q(v)/||v||^2 for a nodal coefficient vector."""
    num = float(nodal @ (op.K @ nodal))
    den = float(nodal @ (op.M @ nodal))
    return num / den


def ground_state_rayleigh(spec: PotentialSpec, s, k, mode, mesh: Mesh):
    """Rayleigh quotient of the interpolated exact bound state; tends to k^2 + nk."""
    mode = tuple(mode)
    return ground_state_rayleigh_batch(spec, s, k, [mode], mesh)[mode]


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

    ARPACK shift-invert Lanczos about ``sigma``, which must sit below the
    lowest eigenvalue; ``count`` must be below the number of dofs.  The start
    vector is random from a fixed seed: fixed so that a pencil solved twice
    gives the same bits, random because a symmetric start on a symmetric mesh
    keeps the Krylov space symmetric and can miss antisymmetric eigenvectors.
    """
    N = K.shape[0]
    if count >= N:
        raise ValueError(f"count {count} must be below the number of dofs {N}")
    v0 = np.random.default_rng(0).standard_normal(N)
    try:
        vals, vecs = splinalg.eigsh(K, k=count, M=M, sigma=sigma, which="LM", v0=v0)
    except splinalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
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


def spectrum_record(s, k, mode, mesh, dbar_vals, spectrum: Spectrum):
    """JSON-ready record of one mode solve."""
    return {
        "s": float(s),
        "k": int(k),
        "mode": [int(v) for v in mode],
        "dbar_eigenvalues": [float(v) for v in dbar_vals],
        "residuals": [float(r) for r in spectrum.residuals],
        "dofs": int(mesh.num_nodes),
        "h": float(mesh.max_diameter()),
    }
