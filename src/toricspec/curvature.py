"""Ricci curvature of the toric metric family, closed forms and oracle.

Two independent routes are kept deliberately separate:

* ``ricci_general`` evaluates the matrices R, T = R G and rho = G^-1 R / 4
  from exact derivative tensors of the symplectic potential, and
* ``christoffel_ricci_oracle`` recomputes the Ricci tensor of the real 2n
  metric dx G dx + dtheta G^-1 dtheta from finite differences of the metric
  alone, arbitrating sign and factor conventions empirically.

``model_T`` and ``model_T_prime`` are the closed-form cofactor expressions for
the constant-coefficient model G_s = (Y_m + A)/s, valid in corner charts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RegionTouchesCodimTwo, SingularA, SingularG, StepTooLarge
from .potential import GuilleminPotential, PolynomialFn, PotentialFamily, PotentialSpec

CORNER_Z_CUT = 5.0
SCAN_Z_MIN = 1e-2


@dataclass(frozen=True)
class RicciData:
    """Curvature matrices at one interior point of the polytope."""

    point: np.ndarray
    s: float
    R: np.ndarray           # R[j, l], first index is the derivative direction
    T: np.ndarray           # T = R G, symmetric
    rho: np.ndarray         # rho = G^-1 R / 4, symmetric
    min_ratio: float        # smallest kappa with T v = kappa G v

    # [Ric >= kappa g] in the T-normalization holds iff min_ratio >= kappa.


@dataclass(frozen=True)
class ModelSpec:
    """Corner model G_s = (Y_m + A)/s with y_j = s/(2 x_j) for j <= m."""

    n: int
    m: int
    A: np.ndarray           # constant positive definite n x n matrix
    y: np.ndarray           # positive entries, length m

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if np.linalg.eigvalsh(A)[0] <= 0:
            raise SingularA("model matrix A must be positive definite")
        if np.any(self.y <= 0):
            raise ValueError("model variables y_j must be positive")

    def Y(self):
        Y = np.zeros((self.n, self.n))
        Y[: self.m, : self.m] = np.diag(self.y)
        return Y

    def G(self, s):
        return (self.Y() + self.A) / s

    def x_coords(self, s):
        """Action coordinates realizing the y variables, x_j = s / (2 y_j).

        Interior directions j > m carry no metric dependence; they are padded
        with ones so the point can feed coordinate-based evaluators.
        """
        x = np.ones(self.n)
        x[: self.m] = s / (2.0 * self.y)
        return x


# ---------------------------------------------------------------------------
# general route: exact derivative tensors
# ---------------------------------------------------------------------------

def ricci_from_tensors(G, dG, d2G, point=None, s=None):
    """R, T, rho and min_ratio from G and its first two derivative arrays.

    dG[k, i, j] = d_k G_ij and d2G[k, l, i, j] = d_k d_l G_ij.  Uses
    d(G^-1) = -G^-1 (dG) G^-1 and d log det(G^-1) = -tr(G^-1 dG).
    """
    n = G.shape[0]
    w = np.linalg.eigvalsh(G)
    if w[0] <= 0 or w[0] <= 1e-14 * w[-1]:
        raise SingularG("G is numerically singular")
    Ginv = np.linalg.inv(G)
    # v_h = d_h log det G^-1
    v = -np.einsum("ij,hji->h", Ginv, dG)
    dGinv = -np.einsum("il,klm,mj->kij", Ginv, dG, Ginv)
    # dv[j, h] = d_j d_h log det G^-1
    dv = np.einsum("ij,kjl,lm,hmi->kh", Ginv, dG, Ginv, dG) - np.einsum(
        "ij,khji->kh", Ginv, d2G
    )
    R = -(np.einsum("jlh,h->jl", dGinv, v) + np.einsum("lh,jh->jl", Ginv, dv))
    T = R @ G
    rho = Ginv @ R / 4.0
    T_sym = 0.5 * (T + T.T)
    kappa = scipy.linalg.eigh(T_sym, G, eigvals_only=True)[0]
    return RicciData(
        point=None if point is None else np.asarray(point, dtype=float),
        s=float(s) if s is not None else float("nan"),
        R=R,
        T=T,
        rho=rho,
        min_ratio=float(kappa),
    )


def ricci_of_potential(parts, x, s=None):
    """Curvature data for a potential given as a list of summands.

    Each part must provide hessian(x) and tensor(x, order); this is how the
    corner model is cross-checked against the general route.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    G = np.zeros((n, n))
    dG = np.zeros((n, n, n))
    d2G = np.zeros((n, n, n, n))
    for p in parts:
        G = G + p.hessian(x)
        dG = dG + p.tensor(x, 3)
        d2G = d2G + p.tensor(x, 4)
    return ricci_from_tensors(G, dG, d2G, point=x, s=s)


def ricci_general(spec: PotentialSpec, s, x):
    """RicciData of the family metric at an interior point x."""
    return ricci_of_potential([PotentialFamily.of_spec(spec, s)], x, s=s)


def model_potential_parts(model: ModelSpec, s):
    """Potential realizing the corner model: sum_j x_j log(x_j)/2 + x A x/(2s)."""
    normals = np.eye(model.n)[: model.m]
    offsets = np.zeros(model.m)
    half_logs = GuilleminPotential(normals, offsets, weights=0.5 * np.ones(model.m))
    quad = PolynomialFn.quadratic_form(model.A / s)
    return [half_logs, quad]


# ---------------------------------------------------------------------------
# closed-form model matrices
# ---------------------------------------------------------------------------

def _cofactor(M, p, q):
    sub = np.delete(np.delete(M, p, axis=0), q, axis=1)
    if sub.size == 0:
        return 1.0
    return (-1.0) ** (p + q) * np.linalg.det(sub)


def model_T(model: ModelSpec, s):
    """Cofactor closed form of T for the corner model; zero outside the m-block.

    With y_j = s/(2 x_j) the chain rule is d/dx_j = -(2 y_j^2 / s) d/dy_j, so
    T_ji = -(4/s^2) y_j^2 y_i^2 cof_ij^2 / det^2 off the diagonal and
    T_jj = -(4/s^2) sum_h y_j^2 y_h^2 cof_jh cof_hh / det^2
           + (8/s^2) (y_j^3 cof_jj / det - y_j^4 cof_jj^2 / det^2).
    The normalization is pinned by the finite-difference curvature oracle.
    """
    n, m = model.n, model.m
    M = model.Y() + model.A
    delta = np.linalg.det(M)
    cof = np.array([[_cofactor(M, p, q) for q in range(n)] for p in range(n)])
    y = model.y
    T = np.zeros((n, n))
    s2 = s * s
    for j in range(m):
        for i in range(m):
            if i != j:
                T[j, i] = -4.0 * (y[j] ** 2 * y[i] ** 2 * cof[i, j] ** 2) / (s2 * delta**2)
        acc = 0.0
        for h in range(m):
            if h != j:
                acc += y[j] ** 2 * y[h] ** 2 * cof[j, h] * cof[h, h] / delta**2
        T[j, j] = (
            -4.0 * acc / s2
            + 8.0 * y[j] ** 3 * cof[j, j] / (s2 * delta)
            - 8.0 * y[j] ** 4 * cof[j, j] ** 2 / (s2 * delta**2)
        )
    return T


def model_T_prime(y, x_rest, s, n, m):
    """Diagonal matrices of the reference metric (Y_m + I)/s split by index.

    Returns (T_prime, ratios) where T_prime[j] = 8 y_j^3 / (s^2 (y_j + 1)^2)
    for j <= m with ratio 8 y_j^3 / (s (y_j + 1)^3), and for j > m the
    interior-direction forms T_prime[j] = 8 y_j^3 (1 - y_j) / s^2 with ratio
    (s^2 / x_j^3)(1 - s/(2 x_j)), using y_j = s / (2 x_j).  The normalization
    matches model_T (and the curvature oracle): both branches are nonnegative
    exactly where the un-normalized forms are.
    """
    y = np.asarray(y, dtype=float)
    x_rest = np.asarray(x_rest, dtype=float)
    if np.any(y <= 0):
        raise ValueError("y_j must be positive")
    if len(y) != m or len(x_rest) != n - m:
        raise ValueError("expected m corner variables and n - m interior coordinates")
    T_prime = np.zeros(n)
    ratios = np.zeros(n)
    T_prime[:m] = 8.0 * y**3 / (s**2 * (y + 1.0) ** 2)
    ratios[:m] = 8.0 * y**3 / (s * (y + 1.0) ** 3)
    if n > m:
        y_rest = s / (2.0 * x_rest)
        T_prime[m:] = 8.0 * y_rest**3 * (1.0 - y_rest) / s**2
        ratios[m:] = (s**2 / x_rest**3) * (1.0 - s / (2.0 * x_rest))
    return T_prime, ratios


def minor_identity_check(A, index_set, tol=1e-10):
    """Verify [A]_I = det(A) [A^-1]_I' to relative tolerance."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    det = np.linalg.det(A)
    if abs(det) < 1e-300:
        raise SingularA("matrix is singular")
    I = sorted(index_set)
    Ic = [i for i in range(n) if i not in I]
    lhs = np.linalg.det(A[np.ix_(I, I)]) if I else 1.0
    Ainv = np.linalg.inv(A)
    rhs = det * (np.linalg.det(Ainv[np.ix_(Ic, Ic)]) if Ic else 1.0)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= tol * scale


# ---------------------------------------------------------------------------
# lower-bound scans
# ---------------------------------------------------------------------------

def model_min_ratio(model: ModelSpec, s):
    T = model_T(model, s)
    G = model.G(s)
    return float(scipy.linalg.eigh(0.5 * (T + T.T), G, eigvals_only=True)[0])


def ricci_lower_bound_scan(
    A,
    n,
    m,
    s_list,
    z_max,
    grid_points=12,
    allow_corner=False,
):
    """Grid of min_ratio over a z-box for the corner model, one table per s.

    z_j = sqrt(s)/(2 x_j) are the facet-distance variables, sampled
    geometrically from SCAN_Z_MIN; boxes where two or more of them reach past
    CORNER_Z_CUT touch a codimension-two face and are rejected unless
    ``allow_corner`` is set.  Returns (rows, per_s_infimum) where rows are
    (s, x_1..x_n, min_ratio).
    """
    z_max = np.asarray(z_max, dtype=float)
    if len(z_max) != m:
        raise ValueError("one z bound per corner direction expected")
    if not allow_corner and int(np.sum(z_max > CORNER_Z_CUT)) >= 2:
        raise RegionTouchesCodimTwo(
            f"z box {z_max} reaches past {CORNER_Z_CUT} in two corner directions"
        )
    axes = [np.geomspace(SCAN_Z_MIN, zm, grid_points) for zm in z_max]
    mesh = np.meshgrid(*axes, indexing="ij")
    zs = np.stack([g.ravel() for g in mesh], axis=-1)
    rows = []
    infimum = {}
    for s in s_list:
        best = np.inf
        for z in zs:
            y = np.sqrt(s) * z
            model = ModelSpec(n=n, m=m, A=A, y=y)
            ratio = model_min_ratio(model, s)
            x = np.full(n, np.nan)
            x[:m] = np.sqrt(s) / (2.0 * z)
            rows.append((float(s), tuple(float(v) for v in x), ratio))
            best = min(best, ratio)
        infimum[float(s)] = float(best)
    return rows, infimum


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

_FD1_OFFSETS = np.array([-2, -1, 1, 2])
_FD1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def _metric_blocks(hess_fn, x):
    G = hess_fn(x)
    n = G.shape[0]
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = G
    g[n:, n:] = np.linalg.inv(G)
    return g


def christoffel_ricci_oracle(spec_or_hess, s, x, step=None):
    """(dx, dx)-block of the Ricci tensor of dx G dx + dtheta G^-1 dtheta.

    Computed purely from 4th-order centered finite differences of the metric
    in the action coordinates (the angle coordinates are Killing directions).
    Under the Kahler dictionary this block equals T/2, which is what callers
    compare against.  ``spec_or_hess`` is a PotentialSpec or a bare Hessian
    callable; the step defaults to 1e-4 times the distance to the boundary.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if isinstance(spec_or_hess, PotentialSpec):
        fam = PotentialFamily.of_spec(spec_or_hess, s)
        hess_fn = fam.hessian
        ell = spec_or_hess.boundary.facet_values(x)
        min_ell = float(np.min(ell))
        if min_ell <= 0:
            raise StepTooLarge("point is not interior")
        h = step if step is not None else 1e-4 * min_ell
        if 2 * h >= min_ell:
            raise StepTooLarge("finite-difference stencil exits the polytope")
    else:
        hess_fn = spec_or_hess
        if step is None:
            raise StepTooLarge("a step must be given for bare Hessian callables")
        h = step

    N = 2 * n
    g0 = _metric_blocks(hess_fn, x)
    dg = np.zeros((n, N, N))
    d2g = np.zeros((n, n, N, N))
    cache = {}

    def g_at(offset):
        key = tuple(offset)
        if key not in cache:
            cache[key] = _metric_blocks(hess_fn, x + h * np.asarray(offset, dtype=float))
        return cache[key]

    for k in range(n):
        for off, wgt in zip(_FD1_OFFSETS, _FD1_WEIGHTS):
            e = np.zeros(n)
            e[k] = off
            dg[k] += wgt * g_at(e)
        dg[k] /= h
    for k in range(n):
        acc = -30.0 * g0
        for off, wgt in zip([-2, -1, 1, 2], [-1.0, 16.0, 16.0, -1.0]):
            e = np.zeros(n)
            e[k] = off
            acc += wgt * g_at(e)
        d2g[k, k] = acc / (12.0 * h * h)
    for k in range(n):
        for l in range(k + 1, n):
            acc = np.zeros((N, N))
            for off_k, w_k in zip(_FD1_OFFSETS, _FD1_WEIGHTS):
                for off_l, w_l in zip(_FD1_OFFSETS, _FD1_WEIGHTS):
                    e = np.zeros(n)
                    e[k] = off_k
                    e[l] = off_l
                    acc += w_k * w_l * g_at(e)
            d2g[k, l] = acc / (h * h)
            d2g[l, k] = d2g[k, l]

    g_inv = np.linalg.inv(g0)
    # partial derivatives indexed over all 2n slots; theta slots vanish
    dg_full = np.zeros((N, N, N))
    dg_full[:n] = dg
    d2g_full = np.zeros((N, N, N, N))
    d2g_full[:n, :n] = d2g

    gamma = 0.5 * np.einsum(
        "ad,bdc->abc", g_inv, dg_full + np.transpose(dg_full, (2, 1, 0)) - np.transpose(dg_full, (1, 0, 2))
    )
    # gamma[a, b, c] = Gamma^a_{bc}; symmetric in (b, c)
    dg_inv = -np.einsum("ai,ein,nd->ead", g_inv, dg_full, g_inv)
    inner = dg_full + np.transpose(dg_full, (2, 1, 0)) - np.transpose(dg_full, (1, 0, 2))
    d_inner = (
        d2g_full
        + np.transpose(d2g_full, (0, 3, 2, 1))
        - np.transpose(d2g_full, (0, 2, 1, 3))
    )
    # d_inner[e, b, d, c] = d_e (d_b g_dc + d_c g_bd - d_d g_bc)
    dgamma = 0.5 * (
        np.einsum("ead,bdc->eabc", dg_inv, inner) + np.einsum("ad,ebdc->eabc", g_inv, d_inner)
    )
    ric = (
        np.einsum("aabc->bc", dgamma)
        - np.einsum("caba->bc", dgamma)
        + np.einsum("aad,dbc->bc", gamma, gamma)
        - np.einsum("acd,dba->bc", gamma, gamma)
    )
    return ric[:n, :n]
