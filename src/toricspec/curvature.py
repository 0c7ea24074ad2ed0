"""Ricci curvature of the toric metric family, closed forms and oracle.

Two independent routes are kept deliberately separate:

* ``ricci_general`` evaluates T = R G and the smallest value of the pencil
  (T, G) from exact derivative tensors of the symplectic potential, and
* ``christoffel_ricci_oracle`` recomputes the Ricci tensor of the real 2n
  metric dx G dx + dtheta G^-1 dtheta from finite differences of the metric
  alone, arbitrating sign and factor conventions empirically.

``model_T`` and ``model_T_prime`` are the closed-form expressions for the
constant-coefficient model G_s = (Y_m + A)/s, valid in corner charts;
``model_potential`` is the same model as a PotentialFamily, for the general
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    InputError, _check_integer, _check_positive, _check_s_list, _finite_float,
)
from .potential import (
    GuilleminPotential, PolynomialFn, PotentialFamily, PotentialSpec, _check_pd, family_hessian_batch,
)

CORNER_Z_CUT = 5.0
SCAN_Z_MIN = 1e-2


@dataclass(frozen=True)
class RicciData:
    """Curvature matrices at one interior point of the polytope."""

    T: np.ndarray           # T = R G, symmetric
    min_ratio: float        # smallest kappa with T v = kappa G v

    # [Ric >= kappa g] in the T-normalization holds iff min_ratio >= kappa.


@dataclass(frozen=True)
class ModelSpec:
    """Corner model G_s = (Y_m + A)/s with y_j = s/(2 x_j) for j <= m = len(y)."""

    A: np.ndarray           # constant positive definite n x n matrix
    y: np.ndarray           # finite positive entries, one per corner direction

    def __post_init__(self):
        if np.ndim(self.y) != 1:
            raise ValueError(f"model variables y must be a 1-D array, got shape {np.shape(self.y)}")
        A, y = _check_model(self.A, np.array([_check_positive(v, "y_j") for v in self.y]))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    def x_coords(self, s):
        """Action coordinates realizing the y variables, x_j = s / (2 y_j).

        Interior directions j > m carry no metric dependence; they are padded
        with ones so the point can feed coordinate-based evaluators.
        """
        x = np.ones(len(self.A))
        x[: len(self.y)] = s / (2.0 * self.y)
        return x


def _check_model(A, y):
    """The corner-model inputs as float arrays, or the input error they make.

    A must be a finite, symmetric (relative tolerance 1e-12) positive
    definite n x n matrix, and y an array of shape (..., m) with m <= n, whose
    entries ``ModelSpec`` checks; the scan's grid is positive by construction.
    """
    # entries are checked as given: float() would accept "1" and True
    A = np.asarray(A, dtype=object)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"model matrix A must be a non-empty square matrix, got shape {A.shape}")
    A = np.array([_finite_float(v, "model matrix A must be finite") for v in A.ravel()]).reshape(A.shape)
    y = np.asarray(y, dtype=float)
    n, m = A.shape[0], y.shape[-1]
    if m > n:
        raise ValueError(f"corner codimension m = {m} must be at most n = {n}")
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValueError("model matrix A must be symmetric")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise InputError("model matrix A must be positive definite")
    return A, y


def _min_ratio(T, G):
    """Smallest kappa with sym(T) v = kappa G v, over stacked (..., n, n) pairs.

    With G = L L^T this is the smallest eigenvalue of L^-1 sym(T) L^-T.
    """
    L_inv = np.linalg.inv(np.linalg.cholesky(G))
    T_sym = 0.5 * (T + np.swapaxes(T, -1, -2))
    return np.linalg.eigvalsh(L_inv @ T_sym @ np.swapaxes(L_inv, -1, -2))[..., 0]


# ---------------------------------------------------------------------------
# general route: exact derivative tensors
# ---------------------------------------------------------------------------

def ricci_of_potential(potential, x):
    """RicciData of the metric G = Hess(potential) at x.

    ``potential`` is anything with ``tensor(x, order)``: a PotentialFamily, or
    one of its summands.  G is checked by the rule of ``family_hessian_batch``,
    so an indefinite or near-singular metric is an InputError naming x.  The
    curvature is evaluated in the coordinates xi = L^T x, G = L L^T, where the
    metric is the identity; there d(G^-1) = -dG, d log det(G^-1) = -tr(dG)
    and T = R.  Working in that frame keeps the digits a chart with large
    cond(G) would otherwise cost through G^-1.  T is (0,2), and R = T G^-1
    with the first index the derivative direction.
    """
    # dG[k, i, j] = d_k G_ij and d2G[k, l, i, j] = d_k d_l G_ij
    G, dG, d2G = (potential.tensor(x, order) for order in (2, 3, 4))
    _check_pd(G, x)
    L = np.linalg.cholesky(G)
    L_inv = np.linalg.inv(L)
    # derivatives in the xi frame: d/dxi_k = sum_a L_inv[k, a] d/dx_a
    dGw = L_inv @ np.einsum("ka,abc->kbc", L_inv, dG) @ L_inv.T
    d2Gw = L_inv @ np.einsum("ka,lb,abcd->klcd", L_inv, L_inv, d2G) @ L_inv.T
    # v_h = d_h log det G^-1 and dv[j, h] = d_j d_h log det G^-1
    v = -np.einsum("hii->h", dGw)
    dv = np.einsum("kij,hji->kh", dGw, dGw) - np.einsum("khii->kh", d2Gw)
    T_xi = np.einsum("jlh,h->jl", dGw, v) - dv
    T = L @ T_xi @ L.T
    return RicciData(T=T, min_ratio=float(_min_ratio(T, G)))


def ricci_general(spec: PotentialSpec, s, x):
    """RicciData of the family metric at an interior point x."""
    return ricci_of_potential(PotentialFamily.of_spec(spec, s), x)


def model_potential(model: ModelSpec, s):
    """The corner model as a family: sum_{j <= m} (x_j/2) log(x_j/2) + x A x/(2s).

    Its log terms differ from sum x_j log(x_j)/2 by an affine function.  Halving is
    exact, so tensors of orders 2 and 3 match that form to the bit, and order 4 to
    one ulp: pow may round (x_j/2)^3 apart from x_j^3/8 (4 points in a million).
    """
    n, m = len(model.A), len(model.y)
    half_logs = GuilleminPotential(0.5 * np.eye(n)[:m], np.zeros(m))
    return PotentialFamily(half_logs, PolynomialFn.zero(n), PolynomialFn.quadratic_form(model.A), s)


# ---------------------------------------------------------------------------
# closed-form model matrices
# ---------------------------------------------------------------------------

def _model_T(A, y, s):
    """T and M = Y_m + A of the corner model at stacked y of shape (..., m).

    With y_j = s/(2 x_j) the chain rule is d/dx_j = -(2 y_j^2 / s) d/dy_j, so
    with B = M^-1 = cof/det (M is symmetric) and i, j, h <= m,
    T_ji = -(4/s^2) y_j^2 y_i^2 B_ij^2 off the diagonal and
    T_jj = -(4/s^2) sum_{h != j} y_j^2 y_h^2 B_jh B_hh
           + (8/s^2) (y_j^3 B_jj - y_j^4 B_jj^2);
    T vanishes outside the m-block.  The inputs are not checked here.
    """
    n, m = A.shape[0], y.shape[-1]
    M = np.broadcast_to(A, y.shape[:-1] + (n, n)).copy()
    idx = np.arange(m)
    M[..., idx, idx] += y
    B = np.linalg.inv(M)[..., :m, :m]
    d = y * B[..., idx, idx]                        # d_j = y_j B_jj
    W = y[..., :, None] * B * y[..., None, :]       # W_jh = y_j y_h B_jh
    W[..., idx, idx] = 0.0
    T = np.zeros(M.shape)
    T[..., :m, :m] = -(W**2)
    # sum_{h != j} y_j^2 y_h^2 B_jh B_hh = y_j sum_{h != j} W_jh d_h
    T[..., idx, idx] = -y * np.einsum("...jh,...h->...j", W, d) + 2.0 * y**2 * d * (1.0 - d)
    return 4.0 / (s * s) * T, M


def model_T(model: ModelSpec, s):
    """Closed form of T for the corner model; zero outside the m-block.

    The formulas are those of ``_model_T``, evaluated at the one point
    ``model.y``.  The normalization is pinned by the finite-difference
    curvature oracle.
    """
    return _model_T(model.A, model.y, _check_positive(s, "s"))[0]


def model_T_prime(y, x_rest, s):
    """Diagonal matrices of the reference metric (Y_m + I)/s split by index.

    Returns (T_prime, ratios): for the m = len(y) corner directions
    T_prime[j] = 8 y_j^3 / (s^2 (y_j + 1)^2) with ratio 8 y_j^3 / (s (y_j + 1)^3),
    and for the interior directions, one per x_rest entry, T_prime[j] =
    8 y_j^3 (1 - y_j) / s^2 with ratio (s^2 / x_j^3)(1 - s/(2 x_j)), using
    y_j = s / (2 x_j).  The normalization matches model_T and the FD oracle:
    both branches are nonnegative exactly where the un-normalized forms are.
    """
    s = _check_positive(s, "s")
    y = np.array([_check_positive(v, "y_j") for v in y])
    x_rest = np.array([_check_positive(v, "x_j") for v in x_rest])
    y_rest = s / (2.0 * x_rest)
    T_prime = np.concatenate([8.0 * y**3 / (s**2 * (y + 1.0) ** 2), 8.0 * y_rest**3 * (1.0 - y_rest) / s**2])
    ratios = np.concatenate([8.0 * y**3 / (s * (y + 1.0) ** 3), (s**2 / x_rest**3) * (1.0 - y_rest)])
    return T_prime, ratios


# ---------------------------------------------------------------------------
# lower-bound scans
# ---------------------------------------------------------------------------

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
    (s, x_1..x_n, min_ratio).  s_list must be strictly descending; n, m and
    grid_points, the samples per axis, are integers >= 1, with A n x n and
    z_max of length m.
    """
    grid_points = _check_integer(grid_points, "grid_points", 1)
    s_arr = np.array(_check_s_list(s_list, "s"))
    z_max = np.array([_check_positive(z, "z_max entry") for z in z_max])
    n = _check_integer(n, "n", 1)
    m = _check_integer(m, "corner codimension m", 1)
    if np.shape(A) != (n, n) or len(z_max) != m:
        raise ValueError(f"A must be {n} x {n} and z_max of length {m}, got {np.shape(A)} and {len(z_max)}")
    if not allow_corner and int(np.sum(z_max > CORNER_Z_CUT)) >= 2:
        raise InputError(
            f"z box {z_max} reaches past {CORNER_Z_CUT} in two corner directions"
        )
    axes = [np.geomspace(SCAN_Z_MIN, zm, grid_points) for zm in z_max]
    mesh = np.meshgrid(*axes, indexing="ij")
    zs = np.stack([g.ravel() for g in mesh], axis=-1)
    root_s = np.sqrt(s_arr)[:, None, None]
    A, ys = _check_model(A, root_s * zs)
    xs = np.full((len(s_arr), len(zs), n), np.nan)
    xs[..., :m] = root_s / (2.0 * zs)
    rows = []
    infimum = {}
    for s, y, x_grid in zip(s_arr.tolist(), ys, xs.tolist()):
        T, M = _model_T(A, y, s)
        ratios = _min_ratio(T, M / s).tolist()
        rows.extend((s, tuple(x), r) for x, r in zip(x_grid, ratios))
        infimum[s] = float(min(ratios))
    return rows, infimum


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

_FD_STEPS = np.array([-2, -1, 1, 2])
_FD_D1 = np.array([1, -8, 8, -1])          # times 1 / (12 h)
_FD_D2 = np.array([-1, 16, 16, -1])        # times 1 / (12 h^2), centre -30


@cache
def _fd_stencil(n):
    """Stencil offsets and 4th-order centered coefficient tables in n dimensions.

    Returns (offsets, c1, c2): offsets is (S, n) with the centre first, then
    4 points per axis and 16 per pair of axes, all distinct.  For metric
    samples g[S] at x + h offsets[S], d_k g = sum_S c1[k, S] g[S] / (12 h) and
    d_k d_l g = sum_S c2[k, l, S] g[S] / (144 h^2).  The tables hold
    integers, so a constant metric has derivatives exactly zero.  They are
    built once per n and returned read-only.
    """
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    size = 1 + 4 * n + 16 * len(pairs)
    offsets = np.zeros((size, n))
    c1 = np.zeros((n, size))
    c2 = np.zeros((n, n, size))
    for k in range(n):
        cols = 1 + 4 * k + np.arange(4)
        offsets[cols, k] = _FD_STEPS
        c1[k, cols] = _FD_D1
        c2[k, k, cols] = 12 * _FD_D2
        c2[k, k, 0] = -12 * 30
    for p, (k, l) in enumerate(pairs):
        cols = 1 + 4 * n + 16 * p + np.arange(16)
        offsets[cols, k] = np.repeat(_FD_STEPS, 4)
        offsets[cols, l] = np.tile(_FD_STEPS, 4)
        c2[k, l, cols] = c2[l, k, cols] = np.outer(_FD_D1, _FD_D1).ravel()
    for table in (offsets, c1, c2):
        table.setflags(write=False)
    return offsets, c1, c2


def christoffel_ricci_oracle(spec: PotentialSpec, s, x):
    """(dx, dx)-block of the Ricci tensor of dx G dx + dtheta G^-1 dtheta.

    Computed purely from 4th-order centered finite differences of the family
    metric G_s of ``spec`` in the action coordinates (the angle coordinates
    are Killing directions).  The step is h = 1e-4 min_r ell_r(x), so the
    stencil, which reaches 2h along each axis, stays inside the polytope;
    the potential's interior rule makes a point outside P an InputError, and
    one on its boundary or within INTERIOR_TOL of it a ToricSpecError.
    G_s and G_s^-1 at the stencil come from ``family_hessian_batch``, whose
    rule makes an indefinite or near-singular metric an InputError naming
    the point.  Under the Kahler dictionary this block equals T/2, which is
    what callers compare against.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = 1e-4 * float(np.min(spec.boundary._ell_checked(x)))

    N = 2 * n
    offsets, c1, c2 = _fd_stencil(n)
    G, G_inv = family_hessian_batch(spec, s, x + h * offsets)
    # metric samples g = diag(G, G^-1) at every stencil point, centre first
    g = np.zeros((len(offsets), N, N))
    g[:, :n, :n] = G
    g[:, n:, n:] = G_inv
    g_inv = np.zeros((N, N))
    g_inv[:n, :n] = g[0, n:, n:]
    g_inv[n:, n:] = G[0]
    # partial derivatives indexed over all 2n slots; theta slots vanish
    dg_full = np.zeros((N, N, N))
    dg_full[:n] = np.einsum("kS,Sab->kab", c1, g) / (12.0 * h)
    d2g_full = np.zeros((N, N, N, N))
    d2g_full[:n, :n] = np.einsum("klS,Sab->klab", c2, g) / (144.0 * h * h)

    # inner[b, d, c] = d_b g_dc + d_c g_bd - d_d g_bc
    inner = dg_full + np.transpose(dg_full, (2, 1, 0)) - np.transpose(dg_full, (1, 0, 2))
    gamma = 0.5 * np.einsum("ad,bdc->abc", g_inv, inner)
    # gamma[a, b, c] = Gamma^a_{bc}; symmetric in (b, c)
    dg_inv = -np.einsum("ai,ein,nd->ead", g_inv, dg_full, g_inv)
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
