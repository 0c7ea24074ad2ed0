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
mesh, built once however many operators share the mesh.  assemble_p1 builds
every weighted pair, a factory's and a cone's; a mode's stiffness is the
diffusion data of its OperatorFactory plus the scatter of the mass form
weighted by V_m, which mode_potential alone evaluates.

The discrete diffusion form is nonnegative, and V_m and the mass use the
same positive quadrature, so every Rayleigh quotient of a mode's pencil is
at least min_q V_m(x_q).  The operator's shift sigma = min_q V_m - 1 is
therefore certified below its spectrum, and it follows the spectrum of a
non-quantized mode, whose bottom grows like dist(m, kP)^2 / s.

Every pencil, a sweep mode's or a cone's, is solved on one path:
shift-invert Lanczos in the M inner product (solve_pencils), run in
lock-step on the modes of a factory, which share M, with one sparse
factorization of their shifted matrices per batch.  The certified shift
makes each shifted matrix positive definite, which the factorization's
pivots confirm (Sylvester's law of inertia); solve_eigs is the batch of
one.  dbar_spectra turns a level's modes into dbar values on that path, and
dbar_spectrum is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .errors import (
    ToricSpecError,
    _check_integer,
    _check_mode,
    _is_integer,
)
from .mesh import Mesh
from .polytope import _lattice_points
from .potential import PotentialSpec, family_hessian_batch

V_OVERFLOW = 1e14
RESIDUAL_TOL = 1e-8
RAYLEIGH_CHUNK = 200000      # cells per block of the matrix-free Rayleigh quotient
BATCH_DOFS = 2048            # dofs per lock-step Lanczos batch: bounds its basis memory
LANCZOS_TOL = 1e-12          # Ritz residual estimate, relative to its value 1 / (lambda - sigma)
LANCZOS_BREAKDOWN = 1e-10    # a new vector this small, relative to the values seen, restarts
LANCZOS_CHECK = 2            # steps between convergence tests, from step 2 count + 8 on
LANCZOS_MAX_STEPS = 300      # a pencil not converged by then fails


@dataclass
class ReducedOperator:
    """A pencil (K, M) on one CSR pattern with sigma below its spectrum: a mode's pencil or a cone's."""

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    sigma: float


@dataclass
class Spectrum:
    """Ascending generalized eigenvalues with residuals and nodal vectors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray      # (n_dofs, count), M-orthonormal
    steps: int = 0           # Lanczos steps of the solve's batch
    factor_nnz: int = 0      # entries SuperLU stores for the batch's factor


def mode_potential(G, x, k, mode):
    """V_m = (m - k x) . G (m - k x) + k^2 at points x (..., n) with G = G_s(x)."""
    w = np.asarray(mode, dtype=float) - k * np.asarray(x, dtype=float)
    Gw = np.einsum("...ij,...j->...i", G, w)
    return np.einsum("...i,...i->...", Gw, w) + float(k) ** 2


def mode_set(P, k, margin=0):
    """Integer vectors of k P inflated by ``margin`` lattice units per facet.

    The inflated region is {m : nu_r . m >= k lambda_r - margin}; the modes
    with m/k in P are exactly the quantized ones, the rest probe divergence.
    """
    k = _check_integer(k, "level k", 1)
    margin = _check_integer(margin, "margin", 0)
    return _lattice_points(P, [k * lam - margin for lam in P.offsets])


def _stiffness_local(w_q, grads, D_q=None):
    """Local arrays int w grad phi_i . D grad phi_j, D = identity when omitted."""
    if D_q is None:
        return np.einsum("cq,cia,cja->cij", w_q, grads, grads)
    return np.einsum("cq,cia,cqab,cjb->cij", w_q, grads, D_q, grads)


def _mass_local(w_q, bary):
    """Local arrays int w phi_i phi_j from a weight field (M, Q)."""
    # einsum, not BLAS: woken BLAS threads spin through the next factorization
    return np.einsum("cq,qij->cij", w_q, bary[:, :, None] * bary[:, None, :])


def assemble_p1(mesh: Mesh, weight_q, D_q=None):
    """Weighted P1 pair K = int w grad phi . D grad phi, M = int w phi phi.

    weight_q is a field (M, Q) at the quadrature points or a number, and D_q
    a matrix field (M, Q, n, n), the identity when omitted.
    """
    w_q = mesh.qweights * weight_q
    K = mesh.csr(_stiffness_local(w_q, mesh.grads, D_q))
    M = mesh.csr(_mass_local(w_q, mesh.bary))
    return K, M


class OperatorFactory:
    """What no mode of one (s, k) changes: G_s at the quadrature points, the diffusion data, M."""

    def __init__(self, spec: PotentialSpec, s, k, mesh: Mesh):
        self.k = _check_integer(k, "level k", 1)
        self.mesh = mesh
        x = mesh.qpoints
        G_q, Ginv_q = family_hessian_batch(spec, s, x.reshape(-1, mesh.dim))
        self._G = G_q.reshape(x.shape + (mesh.dim,))
        diffusion, self._M = assemble_p1(mesh, 1.0, Ginv_q.reshape(self._G.shape))
        self._diffusion = diffusion.data
        if np.any(self._M.diagonal() <= 0.0):
            raise ToricSpecError("mass matrix has a nonpositive diagonal")

    def operator(self, mode):
        V = mode_potential(self._G, self.mesh.qpoints, self.k, _check_mode(mode, self.mesh.dim))
        if np.max(V) > V_OVERFLOW:
            raise ToricSpecError(
                f"potential reaches {np.max(V):.3e} at a quadrature point"
            )
        K = self.mesh.csr(_mass_local(self.mesh.qweights * V, self.mesh.bary))
        K.data += self._diffusion
        return ReducedOperator(K=K, M=self._M, sigma=float(np.min(V)) - 1.0)


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


def solve_pencils(ops, count):
    """Lowest ``count`` pairs of every pencil K_p v = lambda M v of one mass matrix.

    The pencils are ReducedOperators whose M is one object, as a factory's
    modes share it, and each K_p and M are symmetric CSR matrices on one
    sparsity pattern (ValueError otherwise); each sigma_p must sit below the
    lowest eigenvalue of pencil p, and ``count`` must be at least 1 and below
    N - 1 for N dofs.  Returns, in order, one Spectrum per pencil, or the
    ToricSpecError of that pencil alone; no pencils give no results.

    Spectral-transformation Lanczos (Ericsson & Ruhe 1980): the operator
    (K - sigma M)^-1 M is self-adjoint in the M inner product, with the
    values 1 / (lambda - sigma), so the lowest lambda are its largest values.
    Pencils run in lock-step, in batches of at most BATCH_DOFS dofs in all:
    one SuperLU factorization of the block-diagonal matrix of the
    K_p - sigma_p M, formed on the shared pattern and read as CSC (it is
    symmetric), serves the batch, so a Lanczos step is one triangular solve
    and one sparse product for every pencil at once.  Below its spectrum the
    matrix is SPD, so it is factored with diagonal pivots in symmetric mode;
    by Sylvester's law of inertia a negative pivot means sigma_p lies above
    an eigenvalue, which Lanczos would silently miss, and fails pencil p.
    The basis Q and M Q are kept and every new vector is M-orthogonalized
    against them twice, so a step needs no other M product.  From step
    2 count + 8 on, every LANCZOS_CHECK steps, each pencil's tridiagonal
    matrix gives Ritz values and residual estimates; a pencil whose ``count``
    lowest estimates are below LANCZOS_TOL keeps the basis it had then, while
    the batch steps on for the others.  A step whose new vector vanishes (an
    invariant subspace, as for K = M) restarts from a fresh seeded random
    vector.  Each pencil finishes with a Rayleigh-Ritz step on its Ritz
    vectors (_rayleigh_ritz), whose rank and residual checks are its own.

    The start vector is random from a fixed seed: fixed so that a pencil
    solved twice gives the same bits, random because a symmetric start on a
    symmetric mesh keeps the Krylov space symmetric and can miss
    antisymmetric eigenvectors.  Each Spectrum records the Lanczos steps of
    its batch and the entries SuperLU stores for the batch's factor.
    """
    if not ops:
        return []
    M = ops[0].M
    if any(op.M is not M for op in ops):
        raise ValueError("the pencils of one solve_pencils call must share one mass matrix")
    N = M.shape[0]
    if not _is_integer(count) or not 1 <= count < N - 1:
        raise ValueError(f"count {count} must be >= 1 and below N - 1 for N = {N} dofs")
    if not M.format == "csr" or not all(
        op.K.format == "csr"
        and np.array_equal(op.K.indptr, M.indptr)
        and np.array_equal(op.K.indices, M.indices)
        for op in ops
    ):
        raise ValueError("K and M must be CSR matrices on one sparsity pattern")
    size = max(1, BATCH_DOFS // N)
    out = []
    for start in range(0, len(ops), size):
        out += _lanczos_batch(ops[start:start + size], count)
    return out


def _lanczos_batch(ops, count):
    """solve_pencils on one batch, with one factorization."""
    M = ops[0].M
    B, N, nnz = len(ops), M.shape[0], M.nnz
    blocks = np.arange(B, dtype=M.indices.dtype)[:, None]    # keeps SuperLU's int32 indices
    indices = (M.indices + N * blocks).ravel()
    indptr = np.append((M.indptr[:-1] + nnz * blocks).ravel(), B * nnz)
    data = np.concatenate([op.K.data - op.sigma * M.data for op in ops])
    shifted = sparse.csc_matrix((data, indices, indptr), shape=(B * N, B * N))
    mass = sparse.csr_matrix((np.tile(M.data, B), indices, indptr), shape=shifted.shape)
    try:
        lu = splinalg.splu(shifted, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:          # exactly singular: find the pencil alone
        if B > 1:
            return [r for p in range(B) for r in _lanczos_batch(ops[p:p + 1], count)]
        return [ToricSpecError(f"K - sigma M at sigma = {float(ops[0].sigma)!r}: {exc}")]
    # with perm_r = perm_c the factorization is L D L^T of P A P^T, and dof
    # i's pivot is U[perm_c[i], perm_c[i]]; SuperLU leaves the diagonal only
    # at a zero pivot, which an SPD block never has
    off = (lu.U.diagonal()[lu.perm_c] < 0.0) | (lu.perm_r != lu.perm_c)
    negative = np.bincount(np.flatnonzero(off) // N, minlength=B)

    max_steps = min(N, LANCZOS_MAX_STEPS)
    Q = np.empty((32, B, N))           # step-major, so a step's vectors are contiguous
    MQ = np.empty_like(Q)
    alpha = np.zeros((max_steps, B))
    beta = np.zeros((max_steps, B))
    scale = np.zeros(B)                # largest |alpha| so far, the operator's scale
    v = np.tile(np.random.default_rng(0).standard_normal(N), (B, 1))
    Mv = (mass @ v.ravel()).reshape(B, N)
    norm = np.sqrt(np.einsum("bn,bn->b", v, Mv))[:, None]
    Q[0], MQ[0] = v / norm, Mv / norm
    restarts = np.zeros(B, dtype=int)
    done = {b: None for b in np.flatnonzero(negative)}    # pencil -> (steps, Ritz coefficients)
    for j in range(max_steps):
        m = j + 1
        w = lu.solve(MQ[j].ravel()).reshape(B, N)
        for _ in range(2):
            h = np.einsum("ibn,bn->bi", MQ[:m], w)
            w -= np.einsum("ibn,bi->bn", Q[:m], h)
            alpha[j] += h[:, j]
        Mw = (mass @ w.ravel()).reshape(B, N)
        norm = np.sqrt(np.einsum("bn,bn->b", w, Mw))
        beta[j] = norm
        if m == max_steps or (m >= 2 * count + 8 and m % LANCZOS_CHECK == 0):
            for b in range(B):
                if b in done:
                    continue
                theta, S = scipy.linalg.eigh_tridiagonal(alpha[:m, b], beta[:m - 1, b])
                theta, S = theta[-count:], S[:, -count:]
                if np.all(beta[j, b] * np.abs(S[-1]) <= LANCZOS_TOL * theta):
                    done[b] = (m, S)
            if len(done) == B or m == max_steps:
                break
        scale = np.maximum(scale, np.abs(alpha[j]))
        for b in np.flatnonzero(norm <= LANCZOS_BREAKDOWN * scale):
            restarts[b] += 1
            r = np.random.default_rng(restarts[b]).standard_normal(N)
            for _ in range(2):
                r -= np.einsum("in,i->n", Q[:m, b], np.einsum("in,n->i", MQ[:m, b], r))
            Mr = M @ r
            beta[j, b], norm[b] = 0.0, np.sqrt(r @ Mr)
            w[b], Mw[b] = r, Mr
        if m == len(Q):
            Q, MQ = np.concatenate([Q, np.empty_like(Q)]), np.concatenate([MQ, np.empty_like(MQ)])
        np.divide(w, norm[:, None], out=Q[m])
        np.divide(Mw, norm[:, None], out=MQ[m])

    out = []
    for b, op in enumerate(ops):
        if negative[b]:
            out.append(ToricSpecError(
                f"sigma = {float(op.sigma)!r} is not below the spectrum: "
                f"K - sigma M has {negative[b]} negative pivots"
            ))
        elif b not in done:
            out.append(ToricSpecError(f"Lanczos did not converge in {m} steps"))
        else:
            steps_b, S = done[b]
            W = np.einsum("in,ic->nc", Q[:steps_b, b], S)
            try:
                vals, residuals, vectors = _rayleigh_ritz(op.K, M, W, count)
            except ToricSpecError as exc:
                out.append(exc)
                continue
            out.append(Spectrum(vals, residuals, vectors, steps=m, factor_nnz=int(lu.nnz)))
    return out


def _rayleigh_ritz(K, M, W, count):
    """Lowest ``count`` Ritz pairs of (K, M) on the span of W, ascending, checked.

    K W and M W are formed once and serve the projection and every residual.
    A Gram matrix W^T M W whose smallest eigenvalue is not above
    RESIDUAL_TOL times its largest means a dependent basis.  Returns the
    values, their residuals and the M-orthonormal vectors.  The dense
    products are einsums: OpenBLAS threads an (N, c) @ (c, c) product at
    tens of thousands of dofs, and on a 2-core host that ran it ten times
    slower than one thread.
    """
    KW, MW = K @ W, M @ W
    gram = np.einsum("nc,nd->cd", W, MW)
    gram_eigs = np.linalg.eigvalsh(gram)
    if not gram_eigs[0] > RESIDUAL_TOL * gram_eigs[-1]:
        raise ToricSpecError(
            f"Ritz basis Gram matrix is rank-deficient: eigenvalues "
            f"{gram_eigs[0]:.3e} to {gram_eigs[-1]:.3e}"
        )
    vals, C = scipy.linalg.eigh(np.einsum("nc,nd->cd", W, KW), gram)
    vals, C = vals[:count], C[:, :count]
    MV = np.einsum("nc,cd->nd", MW, C)
    R = np.einsum("nc,cd->nd", KW, C) - MV * vals
    residuals = np.linalg.norm(R, axis=0) / np.linalg.norm(MV, axis=0)
    if np.any(residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))):
        raise ToricSpecError(
            f"residuals {residuals} exceed {RESIDUAL_TOL} x max(1, |lambda|)"
        )
    return vals, residuals, np.einsum("nc,cd->nd", W, C)


def solve_eigs(op: ReducedOperator, count):
    """Lowest ``count`` eigenpairs of one pencil, the batch of one of solve_pencils,
    which states the contract; its ToricSpecError is raised here."""
    result = solve_pencils([op], count)[0]
    if isinstance(result, ToricSpecError):
        raise result
    return result


def dbar_spectra(spec: PotentialSpec, s, k, mesh: Mesh, modes, count):
    """Per mode, in order: (dbar values, Spectrum), or that mode's ToricSpecError.

    One OperatorFactory, whose own ToricSpecError raises, assembles every
    mode first, and solve_pencils solves the assembled ones together.
    """
    factory = OperatorFactory(spec, s, k, mesh)
    solved = [_attempt(factory.operator, mode) for mode in modes]
    built = [op for op in solved if not isinstance(op, ToricSpecError)]
    spectra = iter(solve_pencils(built, count))
    solved = [op if isinstance(op, ToricSpecError) else next(spectra) for op in solved]
    return [_attempt(lambda sp: (map_dbar(sp, factory.k, mesh.dim), sp), sp) for sp in solved]


def _attempt(step, arg):
    """step(arg), or the ToricSpecError it raises; an arg that is one passes through."""
    if isinstance(arg, ToricSpecError):
        return arg
    try:
        return step(arg)
    except ToricSpecError as exc:
        return exc


def dbar_spectrum(spec: PotentialSpec, s, k, mode, mesh: Mesh, count):
    """Holomorphic-sector eigenvalues (lambda - k^2 - nk)/2 of one mode, with its
    Spectrum: the batch of one of dbar_spectra, whose ToricSpecError is raised here."""
    result = dbar_spectra(spec, s, k, mesh, [mode], count)[0]
    if isinstance(result, ToricSpecError):
        raise result
    return result


def map_dbar(spectrum: Spectrum, k, n):
    shifted = (spectrum.eigenvalues - k * k - k * n) / 2.0
    if np.any(shifted < -1e-6):
        raise ToricSpecError(
            f"holomorphic-sector eigenvalue {shifted.min():.3e} below -1e-6"
        )
    return np.maximum(shifted, 0.0)
