"""Exact polytope combinatorics: validation, faces, charts, quantized points."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_bs_count, random_delzant, random_unimodular, transform_polytope
from toricspec import errors, polytope
from toricspec.polytope import (
    bs_points,
    delzant_violations,
    fiber_holonomy,
    hirzebruch,
    local_chart,
    polytope_from_json,
    polytope_to_json,
    segment,
    simplex2,
    validate_delzant,
    vertices_and_faces,
)


class TestValidation:
    def test_segment_valid(self):
        P = segment()
        assert P.dim == 1 and len(P.normals) == 2
        assert P.vertices == ((Fraction(0),), (Fraction(1),))

    def test_simplex_valid(self):
        S = simplex2()
        assert len(S.vertices) == 3

    def test_non_unimodular_vertex_rejected(self):
        # {x >= 0, y >= 0, x + 2y <= 2} has determinant 2 at the top vertex
        # (the message prints the vertex as numbers, not Fraction reprs)
        raw = [((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)]
        with pytest.raises(errors.NotDelzant, match=r"^vertex \(0, 1\) has a non-unimodular cone$"):
            validate_delzant(raw)
        kinds = {type(v) for v in delzant_violations(raw)}
        assert errors.NotDelzant in kinds

    def test_vertex_on_too_many_facets_rejected(self):
        # the apex of a square pyramid lies on its four slanted facets
        raw = [((0, 0, 1), 0), ((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, 0, -1), -2), ((0, -1, -1), -2)]
        with pytest.raises(errors.NotDelzant, match=r"^vertex \(1, 1, 1\) lies on 4 facets$"):
            validate_delzant(raw)

    def test_unbounded_rejected(self):
        # a quadrant, and a strip {0 <= x <= 1}, whose normals span only a line
        for raw in ([((1, 0), 0), ((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)]):
            with pytest.raises(errors.Unbounded, match=r"^recession direction \(0, 1\)$"):
                validate_delzant(raw)

    def test_empty_interior_rejected(self):
        # {x = 0} has no interior, and {1 <= x <= 0} has no vertex
        for raw, message in (([((1,), 0), ((-1,), 0)], "touches a facet"),
                             ([((1,), 1), ((-1,), 0)], "no vertices")):
            with pytest.raises(errors.EmptyInterior, match=message):
                validate_delzant(raw)

    def test_non_primitive_rejected(self):
        with pytest.raises(errors.NonPrimitiveNormal):
            validate_delzant([((2, 0), 0), ((0, 1), 0), ((-1, -1), -1)])

    def test_redundant_facet_rejected(self):
        # x >= -1 never becomes tight inside the unit square
        raw = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 0), -1)]
        with pytest.raises(errors.RedundantFacet):
            validate_delzant(raw)
        # x + y >= 0 touches the unit square only at its corner (0, 0)
        raw = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 1), 0)]
        with pytest.raises(errors.RedundantFacet, match="^facet 4 is redundant$"):
            validate_delzant(raw)

    def test_wrong_length_normal_is_input_error(self):
        for normal in ((1,), (1, 0, 7)):
            raw = [((1, 0), 0), (normal, 0), ((-1, -1), -1)]
            with pytest.raises(ValueError, match="normal 1 has"):
                delzant_violations(raw, dim=2)
        with pytest.raises(ValueError):
            polytope_from_json('{"dim": 2, "facets": [{"normal": [1], "offset": 0}]}')

    def test_one_enumeration_returns_the_checked_polytope(self, monkeypatch):
        # the polytope validate_delzant returns is the one whose vertex table
        # the checks read, so its vertex_facets is already cached
        calls = []
        enumerate_vertices = polytope._enumerate_vertices

        def counted(*args):
            calls.append(args)
            return enumerate_vertices(*args)

        monkeypatch.setattr(polytope, "_enumerate_vertices", counted)
        P = validate_delzant([((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -2), -3)])
        assert len(calls) == 1
        assert "vertex_facets" in vars(P)
        assert delzant_violations([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]) == []
        assert len(calls) == 2

    def test_validity_invariant_under_lattice_maps(self, rng):
        for _ in range(20):
            P = random_delzant(rng, int(rng.integers(1, 3)))
            A = random_unimodular(rng, P.dim)
            c = rng.integers(-2, 3, size=P.dim)
            Q = transform_polytope(P, A, c)     # raises if invalid
            assert len(Q.normals) == len(P.normals)


class TestFaces:
    def test_segment_faces(self):
        faces = vertices_and_faces(segment())
        by_codim = {}
        for f in faces:
            by_codim.setdefault(f.codim, []).append(f)
        assert len(by_codim[0]) == 1 and len(by_codim[1]) == 2

    def test_simplex_euler(self):
        faces = vertices_and_faces(simplex2())
        counts = [sum(1 for f in faces if f.codim == c) for c in (0, 1, 2)]
        assert counts == [1, 3, 3]

    def test_hirzebruch_counts(self):
        H = hirzebruch(2)
        # brute-force vertex enumeration over facet pairs
        from itertools import combinations

        normals = np.array(H.normals, dtype=float)
        offsets = np.array(H.offsets, dtype=float)
        verts = set()
        for i, j in combinations(range(4), 2):
            M = normals[[i, j]]
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            x = np.linalg.solve(M, offsets[[i, j]])
            if np.all(normals @ x - offsets > -1e-9):
                verts.add(tuple(np.round(x, 9)))
        assert len(verts) == 4
        faces = vertices_and_faces(H)
        assert sum(1 for f in faces if f.codim == 1) == 4
        assert sum(1 for f in faces if f.codim == 2) == 4

    def test_hirzebruch_family(self):
        # {x >= 0, 0 <= y <= 1, x + a y <= a + 1} is Delzant for every a >= 0
        for a in range(4):
            H = hirzebruch(a)
            assert H.normals[-1] == (-1, -a)
            assert set(H.vertices) == {(0, 0), (0, 1), (1, 1), (a + 1, 0)}
        trapezoid = validate_delzant([((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -1), -2)])
        assert hirzebruch(1) == trapezoid

    def test_dimension_guard(self):
        simplex4 = validate_delzant([(tuple(int(i == j) for j in range(4)), 0) for i in range(4)]
                                    + [((-1, -1, -1, -1), -1)])
        with pytest.raises(errors.InputError, match=r"^face lattices are built for n <= 3 only$"):
            vertices_and_faces(simplex4)

    def test_rep_points_in_relative_interior(self):
        for P in (segment(), simplex2(), hirzebruch(3)):
            for f in vertices_and_faces(P):
                vals = P.facet_values(f.rep_point)
                for r, v in enumerate(vals):
                    if r in f.active:
                        assert v == 0
                    else:
                        assert v > 0


class TestCharts:
    def test_segment_endpoint_chart(self):
        ch = local_chart(segment(), (1,))
        assert ch.lattice_map == ((-1,),) and ch.shift == (Fraction(1),)
        assert ch.apply((Fraction(9, 10),)) == (Fraction(1, 10),)

    def test_simplex_vertex_chart(self):
        S = simplex2()
        ch = local_chart(S, (1, 0))
        assert ch.local_codim == 2
        assert ch.apply((1, 0)) == (0, 0)
        # active facets map onto the axes near the origin
        for v in S.vertices:
            img = ch.apply(v)
            assert all(c >= 0 for c in img[:2])

    def test_edge_chart_half_integer_shift(self):
        S = simplex2()
        b = (Fraction(1, 2), Fraction(0))
        ch = local_chart(S, b)
        assert ch.local_codim == 1
        assert ch.apply(b) == (0, 0)
        for c in ch.shift:
            assert (2 * c).denominator == 1

    def test_chart_roundtrip(self, rng):
        for _ in range(10):
            P = random_delzant(rng, 2)
            for b in bs_points(P, 2)[:4]:
                ch = local_chart(P, b.point)
                for v in P.vertices:
                    sample = tuple(
                        Fraction(2, 3) * bi + Fraction(1, 3) * vi
                        for bi, vi in zip(b.point, v)
                    )
                    y = ch.apply(sample)
                    back = tuple(sum(a * (y_j - c) for a, y_j, c in zip(row, y, ch.shift))
                                 for row in ch.lattice_inverse())
                    assert back == sample

    def test_vertex_facet_map(self):
        # the cached {vertex: active facets} map that charts and faces read
        simplex3 = validate_delzant(
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
        )
        for P in [segment(), simplex2(), simplex3] + [hirzebruch(a) for a in range(4)]:
            assert P.vertex_facets == {v: P.active_facets(v) for v in P.vertices}
            assert list(P.vertex_facets) == list(P.vertices)
        # edge points whose chart completes the active normal with the other
        # normal of the least vertex of the edge: (0, 0) and (0, 1)
        half = Fraction(1, 2)
        for P, b, A, shift in (
            (hirzebruch(1), (half, 0), ((0, 1), (1, 0)), (0, -half)),
            (simplex2(), (half, half), ((-1, -1), (1, 0)), (1, -half)),
        ):
            assert b in [q.point for q in bs_points(P, 2)]
            ch = local_chart(P, b)
            assert (ch.lattice_map, ch.shift, ch.local_codim) == (A, shift, 1)

    def test_point_of_wrong_length_raises(self):
        # a point is not truncated or padded to the dimension
        S = simplex2()
        too_short = r"^point \(0\) has 1 coordinates in dimension 2$"
        with pytest.raises(ValueError, match=r"^point \(0\.25, 0\.25, 7\) has 3 coordinates in dimension 2$"):
            S.contains((1 / 4, 1 / 4, 7))
        with pytest.raises(ValueError, match=too_short):
            local_chart(S, (0,))
        with pytest.raises(ValueError, match=r"^point \(1/2\) has 1 coordinates in dimension 2$"):
            fiber_holonomy(S, (Fraction(1, 2),), 2)
        with pytest.raises(ValueError, match=r"^point \(1\) has 1 coordinates in dimension 2$"):
            local_chart(S, (1, 0)).apply((1,))
        with pytest.raises(ValueError, match=too_short):
            S.active_facets((0,))

    def test_point_outside_raises(self):
        with pytest.raises(errors.InputError, match=r"^\(2\) is outside the polytope$"):
            local_chart(segment(), (2,))
        with pytest.raises(errors.InputError, match=r"^\(3/2, 0\) is outside the polytope$"):
            local_chart(simplex2(), (Fraction(3, 2), 0))


class TestBSPoints:
    def test_segment_levels(self):
        pts = bs_points(segment(), 1)
        assert [p.point for p in pts] == [(0,), (1,)]
        assert all(p.strict_level == 1 and p.face_codim == 1 for p in pts)
        pts2 = bs_points(segment(), 2)
        assert [p.point for p in pts2] == [(0,), (Fraction(1, 2),), (1,)]
        assert pts2[1].strict_level == 2 and pts2[1].face_codim == 0

    def test_simplex_count_k2(self):
        assert len(bs_points(simplex2(), 2)) == 6

    def test_brute_force_counts(self, rng):
        for _ in range(30):
            P = random_delzant(rng, int(rng.integers(1, 3)))
            for k in (1, 2, 3, 4):
                assert len(bs_points(P, k)) == brute_force_bs_count(P, k)

    def test_monotone_in_level(self, rng):
        for _ in range(10):
            P = random_delzant(rng, 2)
            for k, j in ((1, 2), (2, 2), (1, 3)):
                small = {p.point for p in bs_points(P, k)}
                big = {p.point for p in bs_points(P, j * k)}
                assert small <= big

    def test_level_guard(self):
        for k in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="level k"):
                bs_points(segment(), k)
        assert bs_points(simplex2(), np.int64(2)) == bs_points(simplex2(), 2)

    def test_mode_labels(self):
        for p in bs_points(simplex2(), 3):
            assert all(
                Fraction(m, 3) == c for m, c in zip(p.mode, p.point)
            )


class TestHolonomy:
    def test_trivial_at_quantized_point(self):
        gens, trivial = fiber_holonomy(simplex2(), (Fraction(1, 2), 0), 2)
        assert trivial
        assert np.allclose(gens, 1.0)

    def test_third_point(self):
        gens, trivial = fiber_holonomy(simplex2(), (Fraction(1, 3), 0), 1)
        assert not trivial
        assert np.isclose(gens[0], np.exp(2j * np.pi / 3))
        assert np.isclose(gens[1], 1.0)

    def test_matches_bs_membership(self, rng):
        P = simplex2()
        quantized = {p.point for p in bs_points(P, 2)}
        for _ in range(40):
            num = rng.integers(0, 7, size=2)
            b = (Fraction(int(num[0]), 6), Fraction(int(num[1]), 6))
            if not P.contains(b):
                continue
            _, trivial = fiber_holonomy(P, b, 2)
            assert trivial == (b in quantized)

    @pytest.mark.parametrize("k", [0, 1.5, True])
    def test_level_guard(self, k):
        with pytest.raises(ValueError, match="level k"):
            fiber_holonomy(segment(), (0,), k)


class TestJson:
    def test_roundtrip_canonical(self):
        H = hirzebruch()
        text = polytope_to_json(H)
        H2 = polytope_from_json(text)
        assert H2.vertices == H.vertices
        assert polytope_to_json(H2) == text

    def test_facets_sorted(self):
        text = polytope_to_json(simplex2())
        import json

        normals = [f["normal"] for f in json.loads(text)["facets"]]
        assert normals == sorted(normals)
