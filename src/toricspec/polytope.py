"""Exact combinatorics of Delzant lattice polytopes.

Everything here runs in exact arithmetic: integers where the data are
integral, ``fractions.Fraction`` otherwise.  Delzant validation, vertex and
face enumeration, unimodular local charts and the enumeration of quantized
lattice points are lattice statements where floating point rounding is fatal.
Downstream metric modules convert to floats at the last moment.

Validation parses the facet data and enumerates the vertices once, and
returns the polytope its checks ran on, whose {vertex: active facets} table
charts and faces then read.  A point must have one coordinate per dimension.

One Gauss-Jordan elimination over the rationals serves determinants, square
solves and kernel vectors; one helper evaluates the facet functions
nu_r . x - lambda_r.  Charts need no integer normal form: by Delzant's
condition the normals at any vertex form a basis of Z^n, so the chart at a
boundary point takes the normals active there and completes them with the
other normals of a vertex of its minimal face.  One enumerator lists the
integer points of {nu_r . m >= c_r}; the quantized points of level k and the
lattice modes of the reduced operators are its two uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

import numpy as np

from .errors import (
    EmptyInterior,
    InputError,
    NonPrimitiveNormal,
    NotDelzant,
    RedundantFacet,
    Unbounded,
    _check_integer,
)


# ---------------------------------------------------------------------------
# exact linear algebra (tiny sizes, Fraction entries)
# ---------------------------------------------------------------------------

def _gauss_jordan(rows, n):
    """Reduce rows to reduced row echelon form over Q, pivoting in columns < n.

    Returns (reduced rows, pivot columns, det); det is the determinant of an
    n x n input and 0 whenever a column has no pivot.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for col in range(n):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        p = m[top][col]
        det *= p
        m[top] = [v / p for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots, det


def _det_fraction(rows):
    """Exact determinant of a square matrix."""
    return _gauss_jordan(rows, len(rows))[2]


def _solve_fraction(rows, rhs):
    """Solve the square rational system rows * x = rhs, or return None."""
    n = len(rows)
    m, pivots, _ = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in m)


def _kernel_vector(rows, n):
    """A nonzero rational kernel vector of the stacked rows, or None at rank n."""
    m, pivots, _ = _gauss_jordan(rows, n)
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    return tuple(vec)


def _facet_values(normals, offsets, x):
    """nu_r . x - c_r for every facet; integer x stays in integer arithmetic."""
    return tuple(
        sum(nu_i * x_i for nu_i, x_i in zip(nu, x)) - c for nu, c in zip(normals, offsets)
    )


def _point_text(x):
    """A point as "(0, 1/2)": its coordinates as numbers, not Fraction reprs."""
    return "(" + ", ".join(str(c) for c in x) + ")"


def _check_length(x, n):
    """Raise ValueError unless the point x has n coordinates; zip would drop or miss some."""
    if len(x) != n:
        raise ValueError(f"point {_point_text(x)} has {len(x)} coordinates in dimension {n}")


def _centroid(points):
    return tuple(sum(p[i] for p in points) / len(points) for i in range(len(points[0])))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelzantPolytope:
    """Lattice polytope {x : nu_r . x >= lambda_r} passing the Delzant checks."""

    dim: int
    normals: tuple           # tuple of integer tuples nu_r
    offsets: tuple           # tuple of integers lambda_r
    vertices: tuple          # tuple of rational vertex tuples, lexicographic

    def facet_values(self, x):
        """Exact facet functions ell_r(x) = nu_r . x - lambda_r at integer or rational x."""
        _check_length(x, self.dim)
        return _facet_values(self.normals, self.offsets, x)

    def contains(self, x):
        return all(v >= 0 for v in self.facet_values(x))

    def active_facets(self, x):
        vals = self.facet_values(x)
        if any(v < 0 for v in vals):
            raise InputError(f"{_point_text(x)} is outside the polytope")
        return tuple(r for r, v in enumerate(vals) if v == 0)

    @cached_property
    def vertex_facets(self):
        """{vertex: its active facets}, which the polytope data fix."""
        return {v: self.active_facets(v) for v in self.vertices}

    def interior_point(self):
        return _centroid(self.vertices)

    def bounding_box(self):
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lo, hi


@dataclass(frozen=True)
class Face:
    """A face given by its active facet set, with a rational witness point."""

    active: tuple            # sorted facet indices cutting the face out
    codim: int
    rep_point: tuple         # centroid of the face vertices


@dataclass(frozen=True)
class LocalChart:
    """Unimodular affine chart x -> A x + c sending the base point to 0.

    The facets active at the base point become {x_i = 0}, i = 1..local_codim,
    and the image of the polytope lies in {x : x_i >= 0, i <= local_codim}.
    """

    lattice_map: tuple       # rows of A in GL_n(Z)
    shift: tuple             # rational shift c
    local_codim: int

    def apply(self, x):
        _check_length(x, len(self.lattice_map))
        x = [Fraction(c) for c in x]
        return tuple(
            sum(a * x_j for a, x_j in zip(row, x)) + c
            for row, c in zip(self.lattice_map, self.shift)
        )

    def lattice_inverse(self):
        """Rows of A^-1 by one elimination of [A | I]; integers for A in GL_n(Z)."""
        n = len(self.lattice_map)
        rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.lattice_map)]
        m, pivots, _ = _gauss_jordan(rows, n)
        if len(pivots) < n:
            raise ValueError("chart matrix is singular")
        return tuple(tuple(row[n:]) for row in m)


@dataclass(frozen=True)
class BSPoint:
    """Quantized point b in P cap (1/k) Z^n, with its minimal denominator level."""

    point: tuple             # rational coordinates
    level: int               # the level k used for enumeration
    strict_level: int        # minimal l >= 1 with b in (1/l) Z^n
    face_codim: int          # codimension of the face whose interior holds b

    @property
    def mode(self):
        """Integer lattice label m = level * point."""
        return tuple(int(Fraction(c) * self.level) for c in self.point)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _enumerate_vertices(dim, normals, offsets):
    verts = set()
    for idx in combinations(range(len(normals)), dim):
        x = _solve_fraction([normals[r] for r in idx], [offsets[r] for r in idx])
        if x is not None and all(v >= 0 for v in _facet_values(normals, offsets, x)):
            verts.add(x)
    return sorted(verts)


def _recession_ray(dim, normals):
    """A nonzero rational direction in the recession cone, or None."""
    line = _kernel_vector(normals, dim)
    if line is not None:
        return line
    # extreme rays sit on dim-1 active constraints; every candidate is checked
    # against all normals, so a rank-deficient subset costs nothing
    zero = [0] * len(normals)
    for idx in combinations(range(len(normals)), dim - 1):
        v = _kernel_vector([normals[r] for r in idx], dim)
        for cand in (v, tuple(-c for c in v)):
            if all(d >= 0 for d in _facet_values(normals, zero, cand)):
                return cand
    return None


def _validated(raw_facets, dim):
    """(problems, polytope) of facet data, parsed and enumerated once; the polytope,
    None until its interior is known nonempty, is the one the later checks read."""
    normals = tuple(tuple(int(v) for v in nu) for nu, _ in raw_facets)
    offsets = tuple(int(lam) for _, lam in raw_facets)
    n = dim if dim is not None else (len(normals[0]) if normals else 0)
    for r, nu in enumerate(normals):
        if len(nu) != n:
            raise ValueError(f"normal {r} has {len(nu)} entries in dimension {n}")

    problems = [NonPrimitiveNormal(f"facet normal {r} is not primitive")
                for r, nu in enumerate(normals) if gcd(*nu) != 1]
    if problems:
        return problems, None

    ray = _recession_ray(n, normals)
    if ray is not None:
        return [Unbounded(f"recession direction {_point_text(ray)}")], None

    verts = _enumerate_vertices(n, normals, offsets)
    if not verts:
        return [EmptyInterior("no vertices")], None
    if any(v <= 0 for v in _facet_values(normals, offsets, _centroid(verts))):
        return [EmptyInterior("vertex centroid touches a facet")], None

    P = DelzantPolytope(dim=n, normals=normals, offsets=offsets, vertices=tuple(verts))
    for r in range(len(normals)):
        fv = [v for v, active in P.vertex_facets.items() if r in active]
        if not fv:
            problems.append(RedundantFacet(f"facet {r} is redundant"))
            continue
        at_centroid = P.facet_values(_centroid(fv))
        if any(val == 0 for q, val in enumerate(at_centroid) if q != r):
            problems.append(RedundantFacet(f"facet {r} is redundant"))
    if problems:
        return problems, P

    for v, active in P.vertex_facets.items():
        if len(active) != n:
            problems.append(NotDelzant(f"vertex {_point_text(v)} lies on {len(active)} facets"))
            continue
        if abs(_det_fraction([normals[r] for r in active])) != 1:
            problems.append(NotDelzant(f"vertex {_point_text(v)} has a non-unimodular cone"))
    return problems, P


def delzant_violations(raw_facets, dim=None):
    """Collect structured Delzant violations without raising.

    ``raw_facets`` is a list of (normal, offset) pairs with integer data.
    Returns a list of exception instances; empty means valid.  A normal whose
    length is not the dimension is malformed input and raises ValueError.
    """
    return _validated(raw_facets, dim)[0]


def validate_delzant(raw_facets, dim=None):
    """Validate integer facet data and return the DelzantPolytope the checks ran on, or raise."""
    problems, P = _validated(raw_facets, dim)
    if problems:
        raise problems[0]
    return P


# ---------------------------------------------------------------------------
# faces, charts, quantized points
# ---------------------------------------------------------------------------

def vertices_and_faces(P):
    """Complete face lattice for n <= 3, each face with a witness point.

    A Delzant polytope is simple, so faces of codimension m are exactly the
    m-subsets of the facet sets active at vertices.
    """
    if P.dim > 3:
        raise InputError("face lattices are built for n <= 3 only")
    active_at = P.vertex_facets

    faces = [Face(active=(), codim=0, rep_point=P.interior_point())]
    seen = set()
    for m in range(1, P.dim + 1):
        for act in active_at.values():
            for sub in combinations(act, m):
                if sub in seen:
                    continue
                seen.add(sub)
                fv = tuple(w for w in P.vertices if set(sub) <= set(active_at[w]))
                faces.append(Face(active=sub, codim=m, rep_point=_centroid(fv)))
    return faces


def _face_vertex(P, active):
    """The least vertex of the face cut out by the facets ``active``."""
    return min(v for v, act in P.vertex_facets.items() if set(active) <= set(act))


def local_chart(P, b):
    """Chart x -> A x + c with A in GL_n(Z) normalizing the polytope at b.

    The rows of A are the normals active at b, in order, followed by the other
    normals of the least vertex of b's minimal face; by Delzant's condition
    they form a basis of Z^n.  At an interior point A is the identity.  The
    shift c = -A b sends b to the origin and lies in (1/l) Z^n for the strict
    level l of b.
    """
    b = tuple(Fraction(c) for c in b)
    active = P.active_facets(b)   # raises InputError when b is not in P
    if active:
        rest = [r for r in P.vertex_facets[_face_vertex(P, active)] if r not in active]
        A = tuple(P.normals[r] for r in active + tuple(rest))
    else:
        A = tuple(tuple(int(i == j) for j in range(P.dim)) for i in range(P.dim))
    shift = tuple(-sum(a * b_j for a, b_j in zip(row, b)) for row in A)
    return LocalChart(lattice_map=A, shift=shift, local_codim=len(active))


def _lattice_points(P, offsets):
    """Integer points m with nu_r . m >= offsets_r, in lexicographic order."""
    corners = _enumerate_vertices(P.dim, P.normals, offsets)
    ranges = [
        range(ceil(min(v[i] for v in corners)), floor(max(v[i] for v in corners)) + 1)
        for i in range(P.dim)
    ]
    return [
        m for m in product(*ranges)
        if all(v >= 0 for v in _facet_values(P.normals, offsets, m))
    ]


def bs_points(P, k):
    """All points of P cap (1/k) Z^n with strict levels and face codimensions."""
    k = _check_integer(k, "level k", 1)
    offsets = [k * lam for lam in P.offsets]
    points = []
    for m in _lattice_points(P, offsets):
        b = tuple(Fraction(mi, k) for mi in m)
        codim = sum(v == 0 for v in _facet_values(P.normals, offsets, m))
        strict = lcm(*[c.denominator for c in b])
        points.append(BSPoint(point=b, level=k, strict_level=strict, face_codim=codim))
    return points


def fiber_holonomy(P, b, k):
    """Holonomy generators exp(2 pi i k b_i) in a vertex-anchored trivialization.

    The trivialization is taken over the chart of the vertex local_chart
    completes from (the least vertex of the minimal face containing b), where
    the connection is d - i x . dtheta; all generators equal one exactly when
    b is a quantized point of level k.
    """
    k = _check_integer(k, "level k", 1)
    b = tuple(Fraction(c) for c in b)
    chart = local_chart(P, _face_vertex(P, P.active_facets(b)))
    b_chart = chart.apply(b)
    gens = tuple(np.exp(2j * np.pi * float(k * c)) for c in b_chart)
    trivial = all((Fraction(k) * c).denominator == 1 for c in b_chart)
    return gens, trivial


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def polytope_to_json(P):
    facets = sorted(
        ({"normal": list(nu), "offset": lam} for nu, lam in zip(P.normals, P.offsets)),
        key=lambda f: f["normal"],
    )
    return json.dumps({"dim": P.dim, "facets": facets}, sort_keys=True)


def polytope_from_json(data):
    """DelzantPolytope from {"dim": n, "facets": [{"normal": [...], "offset": c}, ..]}, as text or parsed."""
    return validate_delzant(*_facets_from_json(data))


def _facets_from_json(data):
    """(facets, dim) of polytope JSON text or object; another shape raises ValueError."""
    data = json.loads(data) if isinstance(data, str) else data
    if not (
        isinstance(data, dict) and set(data) == {"dim", "facets"} and type(data["dim"]) is int
        and data["dim"] >= 1 and isinstance(data["facets"], list)
        and all(isinstance(f, dict) and set(f) == {"normal", "offset"} and isinstance(f["normal"], list)
                and all(type(v) is int for v in f["normal"] + [f["offset"]]) for f in data["facets"])
    ):
        raise ValueError(
            f"polytope must be {{dim, facets: [{{normal, offset}}, ..]}} of integers, got {data!r}"
        )
    return [(f["normal"], f["offset"]) for f in data["facets"]], data["dim"]


# -- stock examples used throughout tests and demos --------------------------

def segment():
    """The interval [0, 1] (projective line)."""
    return validate_delzant([((1,), 0), ((-1,), -1)])


def simplex2():
    """The standard 2-simplex {x >= 0, y >= 0, x + y <= 1} (projective plane)."""
    return validate_delzant([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])


def hirzebruch(a=2):
    """Trapezoid {x >= 0, 0 <= y <= 1, x + a y <= a + 1} of the Hirzebruch surface F_a.

    The normals (1, 0), (0, 1), (0, -1), (-1, -a) are Delzant for every integer
    a >= 0; a = 0 gives the unit square (P^1 x P^1), a = 1 the blown-up plane.
    """
    return validate_delzant([((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -a), -(a + 1))])
