"""Symplectic-potential family u_s = v_P + phi + psi/s and its derivative tensors.

The boundary part v_P(x) = sum_r ell_r(x) log ell_r(x) has closed-form
derivatives of every order; phi and psi are polynomials, so the whole family
is evaluated exactly up to floating point.  Each summand computes all its
derivatives in one method, ``tensor(x, order)``; curvature formulas downstream
use orders up to four.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import (
    InputError,
    ToricSpecError,
    _check_integer,
    _check_mode,
    _check_positive,
    _finite_float,
)
from .polytope import DelzantPolytope, vertices_and_faces

INTERIOR_TOL = 1e-14
PD_RATIO_TOL = 1e-10
_TENSOR_INDICES = "ijklmnopq"     # einsum letters for derivative slots; "r" runs over facets


# ---------------------------------------------------------------------------
# polynomials with explicit coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialFn:
    """Polynomial sum_t c_t * x^alpha_t given by (multi-index, coefficient) terms."""

    dim: int
    terms: tuple    # tuple of (alpha tuple, float coefficient)

    @staticmethod
    def zero(dim):
        return PolynomialFn(dim=dim, terms=())

    @staticmethod
    def quadratic_form(A):
        """psi = x^T A x / 2 for a square matrix A; only its symmetric part counts."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"quadratic form needs a square matrix, got shape {A.shape}")
        n = A.shape[0]
        terms = []
        for i in range(n):
            for j in range(i, n):
                coeff = float(A[i, i] / 2.0 if i == j else (A[i, j] + A[j, i]) / 2.0)
                if coeff != 0.0:
                    alpha = [0] * n
                    alpha[i] += 1
                    alpha[j] += 1
                    terms.append((tuple(alpha), coeff))
        return PolynomialFn(dim=n, terms=tuple(terms))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for alpha, c in self.terms:
            mono = np.ones(x.shape[:-1])
            for i, a in enumerate(alpha):
                if a:
                    mono = mono * x[..., i] ** a
            out = out + c * mono
        return out

    def derivative(self, i):
        new_terms = []
        for alpha, c in self.terms:
            if alpha[i] == 0:
                continue
            new_alpha = list(alpha)
            new_alpha[i] -= 1
            new_terms.append((tuple(new_alpha), c * alpha[i]))
        return PolynomialFn(dim=self.dim, terms=tuple(new_terms))

    @cached_property
    def _derivative_tables(self):
        """{order: _derivatives(order)} for each order asked for; the terms fix them."""
        return {}

    def _derivatives(self, order):
        """(polynomials, slots, positions) of the order-fold derivative tensor.

        The polynomials are the nonzero derivatives d_idx p, one per sorted
        index tuple idx, taken in the order of idx; the value of
        polynomials[slots[j]] fills the flat position positions[j], one for
        each permutation of its idx.  An identically zero derivative is
        dropped, since the tensor starts at zero.
        """
        tables = self._derivative_tables
        if order not in tables:
            n = self.dim
            polys, slots, positions = [], [], []
            for idx in combinations_with_replacement(range(n), order):
                p = self
                for i in idx:
                    p = p.derivative(i)
                if p.terms:
                    perms = sorted(set(permutations(idx)))
                    slots += [len(polys)] * len(perms)
                    positions += [reduce(lambda flat, i: flat * n + i, perm, 0) for perm in perms]
                    polys.append(p)
            tables[order] = (tuple(polys), np.array(slots, dtype=int), np.array(positions, dtype=int))
        return tables[order]

    def tensor(self, x, order):
        """Symmetric derivative tensor of the given order at x; the tables are built once per order."""
        n = self.dim
        x = np.asarray(x, dtype=float)
        polys, slots, positions = self._derivatives(order)
        out = np.zeros(x.shape[:-1] + (n**order,))
        if polys:
            out[..., positions] = np.stack([p(x) for p in polys], axis=-1)[..., slots]
        return out.reshape(x.shape[:-1] + (n,) * order)


# ---------------------------------------------------------------------------
# Guillemin boundary potential
# ---------------------------------------------------------------------------

class GuilleminPotential:
    """v(x) = sum_r ell_r(x) log ell_r(x) over facets ell_r(x) = nu_r . x - lambda_r.

    Every facet has unit weight: for v_P (``of_polytope``, and the derived
    ``PotentialSpec.boundary``) the exact bound states then scale like integer
    powers of the facet functions, which keeps the P1 interpolation of the
    bound-state oracle at clean second order.  A corner model's x_j log(x_j)/2
    is the facet x_j/2, up to an affine function (``model_potential``).
    """

    def __init__(self, normals, offsets):
        self.normals = np.asarray(normals, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        self.dim = self.normals.shape[1]

    @staticmethod
    def of_polytope(P: DelzantPolytope):
        return GuilleminPotential(P.normals, P.offsets)

    def facet_values(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.normals.T - self.offsets

    def _ell_checked(self, x):
        """Facet values at x, or the error of its first point not inside P.

        A point more than INTERIOR_TOL outside a facet is an InputError; one
        on a facet or within INTERIOR_TOL of one is a ToricSpecError.
        """
        ell = self.facet_values(x)
        bad = np.any(ell <= INTERIOR_TOL, axis=-1)
        if bad.any():
            self._check_inside(x, ell)
            x = np.reshape(x, (-1, self.dim))[np.argmax(bad)]
            raise ToricSpecError(f"point {x} is within {INTERIOR_TOL} of a facet")
        return ell

    def _check_inside(self, x, ell):
        """Raise InputError naming the first point of x with some ell_r < -INTERIOR_TOL."""
        outside = np.any(ell < -INTERIOR_TOL, axis=-1)
        if outside.any():
            x = np.reshape(x, (-1, self.dim))[np.argmax(outside)]
            raise InputError(f"point {x} is outside the polytope")

    def __call__(self, x):
        ell = self._ell_checked(x)
        return np.sum(ell * np.log(ell), axis=-1)

    def tensor(self, x, order):
        """Derivative tensor of the given order >= 1.

        For order o >= 2 it is sum_r (-1)^o (o-2)! ell_r^(1-o) nu_r^(x o).
        """
        if order < 1:
            raise ValueError("order must be at least 1")
        ell = self._ell_checked(x)
        if order == 1:
            coef = 1.0 + np.log(ell)
        else:
            coef = (-1) ** order * math.factorial(order - 2) / ell ** (order - 1)
        idx = _TENSOR_INDICES[:order]
        subscripts = "...r," + ",".join("r" + i for i in idx) + "->..." + idx
        return np.einsum(subscripts, coef, *[self.normals] * order)


# ---------------------------------------------------------------------------
# the potential family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """The data (P, phi, psi) generating the family u_s = v_P + phi + psi/s."""

    polytope: DelzantPolytope
    phi: PolynomialFn
    psi: PolynomialFn

    @cached_property
    def boundary(self):
        """v_P, which the polytope fixes: unit weight on every facet."""
        return GuilleminPotential.of_polytope(self.polytope)


def _admissibility_sample(P: DelzantPolytope):
    """Interior grid plus graded near-boundary points for spot checks."""
    pts = []
    interior = np.array([float(c) for c in P.interior_point()])
    verts = np.array([[float(c) for c in v] for v in P.vertices])
    for t in np.linspace(0.15, 0.95, 5):
        for v in verts:
            pts.append(interior + t * (v - interior) * 0.999)
    for face in vertices_and_faces(P):
        if face.codim == 0:
            continue
        rep = np.array([float(c) for c in face.rep_point])
        for eps in (1e-2, 1e-4, 1e-6):
            pts.append(rep + eps * (interior - rep))
    pts.append(interior)
    return np.array(pts)


def make_potential_spec(P: DelzantPolytope, phi=None, psi=None):
    """Assemble a PotentialSpec, spot-checking admissibility on a sample of P.

    phi must keep Hess(v_P + phi) positive definite inside P, and psi must
    have positive definite Hessian on all of P; both are checked by sampling,
    not proved.
    """
    phi = phi if phi is not None else PolynomialFn.zero(P.dim)
    psi = psi if psi is not None else PolynomialFn.quadratic_form(np.eye(P.dim))
    spec = PotentialSpec(polytope=P, phi=phi, psi=psi)
    sample = _admissibility_sample(P)
    hess_v = spec.boundary.tensor(sample, 2) + phi.tensor(sample, 2)
    for name, H in (("psi", psi.tensor(sample, 2)), ("v_P + phi", hess_v)):
        fails = np.linalg.eigvalsh(H)[:, 0] <= 0
        if fails.any():
            raise InputError(f"Hess({name}) fails at {sample[np.argmax(fails)]}")
    return spec


def potential_spec_from_json(P: DelzantPolytope, text):
    """PotentialSpec from {"phi": [{"alpha": [...], "c": ...}], "psi": [...]}, as text or parsed.

    A missing or null key takes its default; other keys and malformed terms raise ValueError.
    """
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict) or set(data) - {"phi", "psi"}:
        raise ValueError(f"potential must be an object with the keys phi and psi only, got {data!r}")

    def parse(key, default):
        terms = data.get(key)
        if terms is None:
            return default
        rule = f"potential {key} must list terms {{alpha: {P.dim} integers >= 0, c: finite number}}"
        if not isinstance(terms, list) or not all(_is_term(t, P.dim) for t in terms):
            raise ValueError(rule)
        return PolynomialFn(dim=P.dim, terms=tuple((tuple(t["alpha"]), _finite_float(t["c"], rule)) for t in terms))

    phi = parse("phi", PolynomialFn.zero(P.dim))
    psi = parse("psi", PolynomialFn.quadratic_form(np.eye(P.dim)))
    return make_potential_spec(P, phi=phi, psi=psi)


def _is_term(t, n):
    """True for a term {"alpha": n integers >= 0, "c": ...}; c is checked by _finite_float."""
    alpha = t.get("alpha") if isinstance(t, dict) and set(t) == {"alpha", "c"} else None
    return isinstance(alpha, list) and len(alpha) == n and all(type(a) is int and a >= 0 for a in alpha)


class PotentialFamily:
    """u_s = v_P + phi + psi/s at fixed s; ``tensor`` sums the summands' tensors.

    ``tensor(x, order)`` is the only derivative API; G_s is ``tensor(x, 2)``,
    and every caller that forms it applies ``_check_pd``.
    """

    def __init__(self, boundary: GuilleminPotential, phi: PolynomialFn, psi: PolynomialFn, s: float):
        self.boundary = boundary
        self.phi = phi
        self.psi = psi
        self.s = _check_positive(s, "s")

    @staticmethod
    def of_spec(spec: PotentialSpec, s):
        return PotentialFamily(spec.boundary, spec.phi, spec.psi, s)

    def tensor(self, x, order):
        return (
            self.boundary.tensor(x, order)
            + self.phi.tensor(x, order)
            + self.psi.tensor(x, order) / self.s
        )


def _check_pd(G, X):
    """Raise InputError where lambda_min(G) <= PD_RATIO_TOL lambda_max(G).

    G has shape (..., n, n) at the points X (..., n).  For n <= 2 the extreme
    eigenvalues come from the trace and determinant, with lambda_min taken as
    det / lambda_max, which keeps the check cheap on quadrature batches.
    """
    n = G.shape[-1]
    G = G.reshape(-1, n, n)
    if n == 1:
        lo = hi = G[:, 0, 0]
    elif n == 2:
        a, b, d = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
        hi = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (a * d - b * b) / hi
    else:
        w = np.linalg.eigvalsh(G)
        lo, hi = w[:, 0], w[:, -1]
    bad = ~((hi > 0) & (lo > PD_RATIO_TOL * hi))
    if bad.any():
        x = np.reshape(X, (-1, n))[np.argmax(bad)]
        raise InputError(f"G_s at {x} has eigenvalue ratio below {PD_RATIO_TOL}")


def family_hessian_batch(spec: PotentialSpec, s, X):
    """G_s = Hess(v_P + phi + psi/s) and G_s^-1 at interior points X (Q, n).

    Both have shape (Q, n, n).  Raises InputError where the
    eigenvalue ratio of G_s falls below PD_RATIO_TOL.
    """
    fam = PotentialFamily.of_spec(spec, s)
    X = np.asarray(X, dtype=float)
    G = fam.tensor(X, 2)
    _check_pd(G, X)
    return G, np.linalg.inv(G)


# ---------------------------------------------------------------------------
# exact bound states
# ---------------------------------------------------------------------------

def ground_state(spec: PotentialSpec, s, k, mode):
    """Closed-form bottom eigenfunction of the reduced mode-m operator.

    phi_m(x) = exp((m - k x) . grad u_s(x) + k u_s(x)) satisfies
    L_{s,k,m} phi_m = (k^2 + k n) phi_m for every admissible potential.
    The boundary-facet log terms of v_P, whose weights are all 1, are
    resummed into the equivalent product

        phi_m = prod_r ell_r^{e_r} * exp(sum_r (e_r - k ell_r) + polynomial),

    with integer counts e_r = nu_r . m - k lambda_r = k ell_r(b) >= 0, so
    the returned callable extends continuously to the closed polytope; a
    point more than INTERIOR_TOL outside it is an InputError.  It is
    normalized to 1 at b = m/k: with f = phi + psi/s, log phi_m(x) -
    log phi_m(b) is -k (f(b) - f(x) - grad f(x) . (b - x)), a Bregman
    divergence, plus k ell_r(b) (1 - t + log t), t = ell_r(x)/ell_r(b), for
    each facet with e_r > 0.  So the state is at most 1, and cannot
    overflow, wherever phi and psi are convex.
    """
    k = _check_integer(k, "level k", 1)
    s = _check_positive(s, "s")
    m = _check_mode(mode, spec.polytope.dim)
    b = tuple(Fraction(mi, k) for mi in m)
    mode = np.asarray(m, dtype=float)
    if not spec.polytope.contains(b):
        raise InputError(f"mode {mode} has m/k outside the polytope")
    v = spec.boundary
    exponents = v.normals @ mode - k * v.offsets

    def log_state(x):
        x = np.asarray(x, dtype=float)
        ell = v.facet_values(x)
        v._check_inside(x, ell)
        ell = np.maximum(ell, 0.0)
        smooth = np.einsum(
            "...i,...i->...",
            mode - k * x,
            spec.phi.tensor(x, 1) + spec.psi.tensor(x, 1) / s,
        ) + k * (spec.phi(x) + spec.psi(x) / s)
        expo = smooth + np.sum(exponents - k * ell, axis=-1)
        log_ell = np.log(np.where(ell > 0.0, ell, 1.0))
        powers = np.where((exponents > 0.0) & (ell <= 0.0), -np.inf, exponents * log_ell)
        return expo + powers.sum(axis=-1)

    log_top = log_state(mode / k)
    return lambda x: np.exp(log_state(x) - log_top)
