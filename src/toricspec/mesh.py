"""Graded interval partitions and conforming triangle meshes with interior quadrature.

The reduced operators carry coefficients that blow up like 1/ell toward the
facets, so quadrature points must stay strictly interior and cells shrink
toward the boundary: geometric end layers in 1d, one conforming red-green
refinement pass along the boundary in 2d.

A Mesh owns its P1 geometry.  Each cell is the image of the reference simplex
under one affine map x = v_0 + J^T xi, whose rows of J are the edges from
vertex 0 (Ciarlet, The Finite Element Method for Elliptic Problems, 1978);
the P1 gradients, quadrature points and weights follow from J in any
dimension, and |det J| makes them independent of the vertex order.  It also
owns the CSR pattern of its P1 matrices, built on the first assembly, so
every matrix on the mesh is one bincount of local arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import atan2, ceil, factorial, log2

import numpy as np
import scipy.sparse as sparse

from .errors import InputError, _check_positive

GRADING_RATIO = 0.7      # width ratio of consecutive 1d end-layer cells
GRADING_DEPTH = 12       # number of 1d end-layer cells

_GAUSS_X = np.array([0.5 - np.sqrt(3.0 / 5.0) / 2.0, 0.5, 0.5 + np.sqrt(3.0 / 5.0) / 2.0])
_A1 = 0.445948490915965
_A2 = 0.091576213509771
# interior barycentric rules on the reference simplex, weights summing to 1:
# 3-point Gauss on [0, 1] and the 6-point degree-4 rule on the triangle
_BARY_RULES = {
    1: (np.stack([1.0 - _GAUSS_X, _GAUSS_X], axis=1), np.array([5.0, 8.0, 5.0]) / 18.0),
    2: (
        np.array(
            [
                [1 - 2 * _A1, _A1, _A1],
                [_A1, 1 - 2 * _A1, _A1],
                [_A1, _A1, 1 - 2 * _A1],
                [1 - 2 * _A2, _A2, _A2],
                [_A2, 1 - 2 * _A2, _A2],
                [_A2, _A2, 1 - 2 * _A2],
            ]
        ),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
    ),
}


@dataclass
class Mesh:
    """Conforming simplicial mesh of a convex region of R^n, n in {1, 2}.

    qpoints (M, Q, n) and qweights (M, Q) are the quadrature of each cell,
    bary (Q, n + 1) the P1 basis values at the quadrature points and grads
    (M, n + 1, n) the constant P1 gradients.
    """

    dim: int
    nodes: np.ndarray        # (N, dim)
    cells: np.ndarray        # (M, dim + 1) node indices
    qpoints: np.ndarray = field(init=False, repr=False)
    qweights: np.ndarray = field(init=False, repr=False)
    bary: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim not in _BARY_RULES:
            raise InputError("meshes are built for n <= 2 only")
        self.bary, w = _BARY_RULES[self.dim]
        coords = self.nodes[self.cells]
        J = coords[:, 1:] - coords[:, :1]
        ref = np.vstack([-np.ones(self.dim), np.eye(self.dim)])
        self.grads = ref @ np.linalg.inv(J).transpose(0, 2, 1)
        self.qpoints = self.bary @ coords
        self.qweights = np.outer(np.abs(np.linalg.det(J)) / factorial(self.dim), w)

    @cached_property
    def _pattern(self):
        """CSR indices and indptr of the node pairs sharing a cell, and slot.

        The pairs are sorted and unique; slot sends entry (c, i, j) of a local
        array (M, n + 1, n + 1) to its place in the CSR data.
        """
        cells = self.cells.astype(np.int64)
        N = self.num_nodes
        keys = cells[:, :, None] * N + cells[:, None, :]
        pairs, slot = np.unique(keys.reshape(-1), return_inverse=True)
        indptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // N, minlength=N), out=indptr[1:])
        return pairs % N, indptr, slot

    def csr(self, local):
        """CSR matrix of the symmetric part of local arrays (M, n + 1, n + 1)."""
        indices, indptr, slot = self._pattern
        sym = 0.5 * (local + local.transpose(0, 2, 1))
        data = np.bincount(slot, weights=sym.reshape(-1), minlength=len(indices))
        return sparse.csr_matrix((data, indices, indptr), shape=(self.num_nodes, self.num_nodes))

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def max_diameter(self):
        return float(_edge_lengths(self.nodes, self.cells).max())


def _edge_lengths(nodes, cells):
    """(M, E) lengths of the edges of each cell."""
    coords = nodes[cells]
    pairs = combinations(range(cells.shape[1]), 2)
    return np.stack([np.linalg.norm(coords[:, i] - coords[:, j], axis=1) for i, j in pairs], axis=1)


# ---------------------------------------------------------------------------
# 1d graded partitions
# ---------------------------------------------------------------------------

def interval_mesh(a, b, target_h, graded=True):
    """Uniform core with geometric layers stacked toward both endpoints.

    When graded, the first and last core cell are replaced by GRADING_DEPTH
    sub-cells whose widths shrink by GRADING_RATIO toward the endpoint;
    otherwise this is the plain uniform partition.
    """
    _check_positive(target_h, "mesh size target_h")
    a, b = float(a), float(b)
    n_core = max(int(ceil((b - a) / target_h)), 2)
    nodes = np.linspace(a, b, n_core + 1)
    if graded:
        widths = GRADING_RATIO ** np.arange(1, GRADING_DEPTH + 1)
        frac = np.cumsum(widths[::-1]) / widths.sum()
        left = nodes[0] + (nodes[1] - nodes[0]) * frac[:-1]
        right = nodes[-1] - (nodes[-1] - nodes[-2]) * frac[:-1]
        nodes = np.unique(np.concatenate([nodes, left, right[::-1]]))
    cells = np.stack([np.arange(len(nodes) - 1), np.arange(1, len(nodes))], axis=1)
    return Mesh(dim=1, nodes=nodes[:, None], cells=cells)


# ---------------------------------------------------------------------------
# 2d polygon meshes
# ---------------------------------------------------------------------------

def order_polygon(vertices):
    """Vertices of a convex polygon in counterclockwise order."""
    pts = np.asarray(vertices, dtype=float)
    center = pts.mean(axis=0)
    angles = np.array([atan2(p[1] - center[1], p[0] - center[0]) for p in pts])
    return pts[np.argsort(angles)]


def _cell_edges(cells):
    """Unique sorted edges and the (M, 3) map cell -> edge ids (ij, jk, ki)."""
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    e = np.sort(e, axis=1).astype(np.int64)
    # a * N + b sorts sorted pairs (a, b) lexicographically, like unique(axis=0)
    N = int(e.max()) + 1
    keys, inverse = np.unique(e[:, 0] * N + e[:, 1], return_inverse=True)
    edges = np.stack([keys // N, keys % N], axis=1)
    M = len(cells)
    return edges, inverse.reshape(3, M).T


def _red_green(nodes, cells, red):
    """One conforming refinement pass of the triangles selected by ``red``.

    Red cells split into four; cells inheriting two or more hanging edges are
    promoted to red until stable; a single hanging edge is fixed by a green
    bisection through the opposite vertex (Bank, Sherman & Weiser, 1983).
    With every cell red this is uniform quadrisection.
    """
    edges, cell_edges = _cell_edges(cells)
    marked = np.zeros(len(edges), dtype=bool)
    marked[cell_edges[red].ravel()] = True
    while True:
        count = marked[cell_edges].sum(axis=1)
        promote = (~red) & (count >= 2)
        if not promote.any():
            break
        red = red | promote
        marked[cell_edges[promote].ravel()] = True

    mid_id = np.full(len(edges), -1, dtype=int)
    which = np.nonzero(marked)[0]
    mid_id[which] = len(nodes) + np.arange(len(which))
    nodes = np.vstack([nodes, 0.5 * (nodes[edges[which, 0]] + nodes[edges[which, 1]])])

    i, j, k = cells.T
    ij, jk, ki = mid_id[cell_edges].T
    out = [np.stack(t, axis=1)[red] for t in ((i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki))]
    out.append(cells[(~red) & (count == 0)])
    green = (~red) & (count == 1)
    gcells, gedges = cells[green], cell_edges[green]
    e = np.argmax(marked[gedges], axis=1)         # hanging edge 0: (i,j), 1: (j,k), 2: (k,i)
    rows = np.arange(len(e))
    a, b, opp = gcells[rows, e], gcells[rows, (e + 1) % 3], gcells[rows, (e + 2) % 3]
    mid = mid_id[gedges[rows, e]]
    out += [np.stack([opp, a, mid], axis=1), np.stack([opp, mid, b], axis=1)]
    return nodes, np.concatenate(out)


def polygon_mesh(vertices, target_h, graded=True):
    """Fan triangulation of a convex polygon, refined to target_h.

    Uniform quadrisection until the longest edge is below target_h, then,
    when graded, one red-green pass refining every triangle with an edge on
    the polygon boundary, that is, an edge of exactly one triangle.
    """
    _check_positive(target_h, "mesh size target_h")
    pts = order_polygon(vertices)
    ring = 1 + np.arange(len(pts))
    nodes = np.vstack([pts.mean(axis=0), pts])
    cells = np.stack([np.zeros_like(ring), ring, np.roll(ring, -1)], axis=1)
    levels = max(0, ceil(log2(_edge_lengths(nodes, cells).max() / target_h)))
    for _ in range(levels):
        nodes, cells = _red_green(nodes, cells, np.ones(len(cells), dtype=bool))
    if graded:
        _, cell_edges = _cell_edges(cells)
        red = np.any(np.bincount(cell_edges.ravel())[cell_edges] == 1, axis=1)
        nodes, cells = _red_green(nodes, cells, red)
    return Mesh(dim=2, nodes=nodes, cells=cells)


def build_mesh(P, target_h):
    """Graded mesh of a Delzant polytope: intervals (n=1) or triangles (n=2)."""
    if P.dim == 1:
        lo, hi = P.bounding_box()
        return interval_mesh(float(lo[0]), float(hi[0]), target_h)
    if P.dim == 2:
        verts = [[float(c) for c in v] for v in P.vertices]
        return polygon_mesh(verts, target_h)
    raise InputError("meshes are built for n <= 2 only")

