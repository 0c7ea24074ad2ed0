"""Property tests of the exact layer over lattice images of Delzant polytopes.

Each example draws a base polytope, a GL_n(Z) map and an integer shift, and
checks the lattice statements the spectral claims rest on: the count of
quantized points, the agreement of the mode set with them, and the local
charts at every quantized point.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_bs_count, random_delzant, random_unimodular, transform_polytope
from toricspec.operator import mode_set
from toricspec.polytope import (
    _det_fraction,
    bs_points,
    hirzebruch,
    local_chart,
    validate_delzant,
)

# small and derandomized: a fixed handful of examples per property
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _image(P, seed):
    rng = np.random.default_rng(seed)
    A = random_unimodular(rng, P.dim)
    return transform_polytope(P, A, rng.integers(-3, 4, size=P.dim))


def _simplex3():
    return validate_delzant(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
    )


def _check_lattice_layer(P, Q, levels):
    for k in levels:
        points = bs_points(Q, k)
        assert len(points) == len(bs_points(P, k)) == brute_force_bs_count(Q, k)
        assert mode_set(Q, k, 0) == [b.mode for b in points]
        for b in points:
            _check_chart(Q, b.point)


def _check_chart(P, b):
    ch = local_chart(P, b)
    active = P.active_facets(b)
    assert abs(_det_fraction(ch.lattice_map)) == 1
    assert ch.local_codim == len(active)
    assert ch.apply(b) == (0,) * P.dim
    for v in P.vertices:
        image = ch.apply(v)
        for i, r in enumerate(active):
            assert image[i] >= 0
            assert (image[i] == 0) == (P.facet_values(v)[r] == 0)


@PROPERTY
@given(seed=seeds, dim=st.integers(min_value=1, max_value=2))
def test_random_delzant_images(seed, dim):
    P = random_delzant(np.random.default_rng(seed), dim)
    _check_lattice_layer(P, _image(P, seed + 1), (1, 2, 3))


@PROPERTY
@given(seed=seeds, a=st.integers(min_value=0, max_value=3))
def test_hirzebruch_images(seed, a):
    P = hirzebruch(a)
    _check_lattice_layer(P, _image(P, seed), (1, 2, 3))


@PROPERTY
@given(seed=seeds)
def test_simplex3_images(seed):
    P = _simplex3()
    _check_lattice_layer(P, _image(P, seed), (1, 2))


def test_chart_completion_rows_come_from_a_vertex():
    # on an edge of the 3-simplex the chart completes the two active normals
    # with the third normal of the least vertex of that edge
    P = _simplex3()
    b = (Fraction(1, 2), Fraction(0), Fraction(0))
    ch = local_chart(P, b)
    assert ch.local_codim == 2
    assert ch.lattice_map == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert ch.shift == (0, 0, Fraction(-1, 2))
