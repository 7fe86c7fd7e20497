"""Face lattices, sign classes, and normal-cone invariants.

The lattice reads sign classes off the facet offsets (and calls every face
mixed when o is off aff P); the references here build the normal cones
themselves: in-plane facet normals from a Gram solve, plus lin(P)^perp.
"""

import math
import random
from fractions import Fraction

from valgeo.geometry import (
    OUTSIDE, RELATIVE_INTERIOR, convex_hull, cube, standard_simplex,
)
from valgeo.geometry.linalg import identity_matrix, kernel_basis, rref, vdot, zero_vector
from valgeo.harness.oracles import affine_dim, brute_face_vertex_sets, brute_facets


def classes(P):
    lattice = P.face_lattice()
    minus = {f.vertex_ids for f in lattice.minus_class()}
    plus = {f.vertex_ids for f in lattice.plus_class()}
    return minus, plus


def test_simplex_f_vectors_up_to_dim_six():
    for d in range(1, 7):
        fv = standard_simplex(d).face_lattice().f_vector()
        assert fv == tuple(math.comb(d + 1, j + 1) for j in range(d)) + (1,)


def test_unit_square_counts():
    assert cube(2).face_lattice().f_vector() == (4, 4, 1)


def test_face_lattice_against_exhaustive_oracle():
    rng = random.Random(5)
    for trial in range(14):
        # n = 4 hulls get at most 7 points: the oracle enumerates facet subsets
        n = rng.choice([2, 3]) if trial < 8 else 4
        pts = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(n)) for _ in range(rng.randint(n + 1, 9 if n < 4 else 7))]
        P = convex_hull(pts)
        if P.dim != n:
            continue
        facets = brute_facets(list(P.vertices))
        expected_sets = brute_face_vertex_sets(list(P.vertices), facets)
        lattice = P.face_lattice()
        got = {frozenset(f.vertex_ids) for f in lattice.faces}
        assert got == expected_sets
        # dimensions agree with affine dimension of the vertex sets
        expected_dim = {s: affine_dim([P.vertices[i] for i in s]) for s in expected_sets}
        order = {f.vertex_ids: k for k, f in enumerate(lattice.faces)}
        for f in lattice.faces:
            assert f.dim == expected_dim[frozenset(f.vertex_ids)]
            # children: the faces one dimension down inside f, in faces order
            fset = frozenset(f.vertex_ids)
            kids = lattice.children(f)
            assert {frozenset(c.vertex_ids) for c in kids} == \
                {s for s in expected_sets if s < fset and expected_dim[s] == f.dim - 1}
            assert [order[c.vertex_ids] for c in kids] == sorted(order[c.vertex_ids] for c in kids)


def test_random_4_polytope_euler_relation():
    rng = random.Random(9)
    pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                 for _ in range(4)) for _ in range(20)]
    P = convex_hull(pts)
    assert P.dim == 4
    lattice = P.face_lattice()
    assert lattice.euler_alternating_sum() == 1
    # proper faces alone sum to 1 - (-1)^dim P
    proper = sum((-1) ** f.dim for f in lattice.faces if f.dim < P.dim)
    assert proper == 1 - (-1) ** P.dim


def test_minus_class_is_origin_faces_when_origin_inside():
    T2 = standard_simplex(2)
    minus, plus = classes(T2)
    assert minus == {(0,), (0, 1), (0, 2), (0, 1, 2)}
    assert plus == {f.vertex_ids for f in T2.face_lattice().faces}


def test_off_origin_segment_classes_via_rays():
    # [e1, 2e1] in R^1: the near endpoint and the body are in the minus class
    P = convex_hull([(1,), (2,)])
    minus, plus = classes(P)
    assert minus == {(0,), (0, 1)}
    assert plus == {(1,), (0, 1)}
    # same body embedded in R^2: the lineality directions are height-0
    P = convex_hull([(1, 0), (2, 0)])
    minus, plus = classes(P)
    assert minus == {(0,), (0, 1)}
    assert plus == {(1,), (0, 1)}


def test_symmetric_segment_classes():
    # o in the relative interior: only P itself carries h <= 0 on its cone
    P = convex_hull([(-1,), (1,)])
    minus, plus = classes(P)
    assert minus == {(0, 1)}
    assert plus == {(0,), (1,), (0, 1)}


def test_point_classes():
    o = convex_hull([(0, 0, 0)])
    assert classes(o) == ({(0,)}, {(0,)})
    p = convex_hull([(1, 0, 0)])
    assert classes(p) == (set(), set())


def _inplane_normals(P):
    """Per facet, the ambient u in lin(P) acting on aff P as the chart normal
    does: u.b = rho.project(b) for every chart basis row b (a Gram solve)."""
    basis = P.chart.basis
    gram = tuple(tuple(vdot(a, b) for b in basis) for a in basis)
    rays = []
    for normal, _ in P.rel_facets:
        # the Gram matrix is nonsingular: the reduced augmented column is the solution
        coeffs = [row[-1] for row in rref([g + (c,) for g, c in zip(gram, normal)])[0]]
        rays.append(tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                          for j in range(P.n)))
    return rays


def _lineality(P):
    """A basis of lin(P)^perp, which lies in every normal cone of P."""
    return kernel_basis(P.chart.basis) if P.chart.basis else identity_matrix(P.n)


def test_normal_cone_linearity():
    # h_P is linear on N(P, F): every facet ray gives u.v == h_P(u) on F,
    # and h_P is constant along lin(P)^perp
    rng = random.Random(12)
    for trial in range(6):
        n = rng.choice([2, 3])
        pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)) for _ in range(rng.randint(2, 9))]
        P = convex_hull(pts)
        rays = _inplane_normals(P)
        for f in P.face_lattice().faces:
            for i in f.facet_ids:
                vals = {vdot(rays[i], P.vertices[v]) for v in f.vertex_ids}
                assert vals == {P.support(rays[i])}
        for w in _lineality(P):
            vals = {vdot(w, v) for v in P.vertices}
            assert len(vals) == 1


def _cone_rule_signs(P):
    """Sign class of each face from h_P on its normal-cone generators.

    The generators are the in-plane facet normals plus the lineality basis
    with both signs; the facets through a face are found from coordinates.
    """
    rel = P.rel_vertices()
    rays = _inplane_normals(P)
    lineality = _lineality(P)
    signs = []
    for face in P.face_lattice().faces:
        ref = P.vertices[face.vertex_ids[0]]
        gen = [vdot(u, ref) for u, (normal, offset) in zip(rays, P.rel_facets)
               if all(vdot(normal, rel[v]) == offset for v in face.vertex_ids)]
        lin = [vdot(w, ref) for w in lineality]
        nonpos = all(v <= 0 for v in gen) and all(v == 0 for v in lin)
        nonneg = all(v >= 0 for v in gen) and all(v == 0 for v in lin)
        signs.append("zero" if nonpos and nonneg else "nonpositive" if nonpos
                     else "nonnegative" if nonneg else "mixed")
    return signs


def test_height_sign_matches_cone_rule():
    # the lattice reads the offset signs (every face mixed off aff P); the
    # cone rule through the in-plane normals is the reference
    rng = random.Random(21)
    signs = set()
    for trial in range(30):
        n = 2 + trial % 4
        pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 4))]
        shift = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        P = convex_hull([tuple(a + b for a, b in zip(p, shift)) for p in pts])
        if P.dim != n:
            continue
        got = [f.height_sign for f in P.face_lattice().faces]
        assert got == _cone_rule_signs(P)
        signs.update(got)
    assert signs == {"zero", "nonpositive", "nonnegative", "mixed"}
    # off aff P the lineality directions make every face mixed
    flat = [
        convex_hull([(1, 0, 1), (2, 1, 1), (0, 2, 1)]),   # triangle off o in R^3
        convex_hull([(1, 1), (3, 2)]),                     # segment in R^2
        convex_hull([(1, 0), (2, 0)]),                     # segment through o's line
        convex_hull([(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1)]),
    ]
    for P in flat:
        assert P.dim < P.n
        assert [f.height_sign for f in P.face_lattice().faces] == _cone_rule_signs(P)
    triangle = flat[0].face_lattice()
    assert {f.height_sign for f in triangle.faces} == {"mixed"}


def test_flat_triangles_through_the_origin():
    # triangles in the plane z = x + y of R^3, which holds o: inside, on an
    # edge, at a vertex and outside the triangle
    def lift(p):
        return (p[0], p[1], p[0] + p[1])
    cases = {
        "inside": [(-1, -1), (2, -1), (-1, 2)],
        "edge": [(-1, 0), (1, 0), (0, 1)],
        "vertex": [(0, 0), (1, 0), (0, 1)],
        "outside": [(1, 1), (2, 1), (1, 2)],
    }
    for where, tri in cases.items():
        P = convex_hull([lift(p) for p in tri])
        assert P.dim == 2 and P.chart.contains(zero_vector(3))
        got = [f.height_sign for f in P.face_lattice().faces]
        assert got == _cone_rule_signs(P), where
        minus, plus = classes(P)
        if where == "inside":
            assert minus == {(0, 1, 2)} and len(plus) == 7
        elif where == "edge":  # vertices (-1,0), (0,1), (1,0) in lex order
            assert minus == {(0, 2), (0, 1, 2)} and len(plus) == 7
        elif where == "vertex":
            assert minus == {(0,), (0, 1), (0, 2), (0, 1, 2)} and len(plus) == 7
        elif where == "outside":
            assert "mixed" in got and plus != {f.vertex_ids for f in P.face_lattice().faces}


def test_height_sign_on_random_flat_bodies():
    # lower-dimensional bodies at n = 2..5, half of them with o in aff P
    rng = random.Random(33)
    signs, through = set(), 0
    for trial in range(240):
        n = 2 + trial % 4
        k = rng.randint(0, n - 1)
        dirs = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
                for _ in range(k)]
        if trial % 2:  # o in aff P
            coef = [Fraction(rng.randint(-2, 2)) for _ in dirs]
            base = tuple(-sum(c * d[j] for c, d in zip(coef, dirs)) for j in range(n))
        else:
            base = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        pts = []
        for _ in range(rng.randint(1, k + 3)):
            coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in dirs]
            pts.append(tuple(base[j] + sum(c * d[j] for c, d in zip(coef, dirs))
                             for j in range(n)))
        P = convex_hull(pts)
        assert P.dim < n
        got = [f.height_sign for f in P.face_lattice().faces]
        assert got == _cone_rule_signs(P)
        signs.update(got)
        through += P.chart.contains(zero_vector(n))
    assert signs == {"zero", "nonpositive", "nonnegative", "mixed"}
    assert min(through, 240 - through) >= 80


def test_point_body_membership():
    for v in [(0, 0, 0), (1, -2, 3)]:
        P = convex_hull([v])
        assert P.point_membership(v) == RELATIVE_INTERIOR
        for y in [(1, -2, 4), (0, 0, 1), (2, -4, 6)]:
            assert P.point_membership(y) == OUTSIDE


def test_faces_containing_matches_one_face_form():
    from valgeo.harness.oracles import local_euler_probes
    rng = random.Random(8)
    bodies = [cube(3), standard_simplex(2, 3), convex_hull([(1, 1), (3, 2)])]
    for trial in range(4):
        n = rng.choice([2, 3, 4])
        bodies.append(convex_hull([tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                         for _ in range(n)) for _ in range(n + 3)]))
    for P in bodies:
        lattice = P.face_lattice()
        for y in local_euler_probes(P, rng):
            assert lattice.faces_containing(y) == \
                [f for f in lattice.faces if lattice.face_contains_point(f, y)]


def test_face_contains_point():
    C = cube(2)
    lattice = C.face_lattice()
    edge = next(f for f in lattice.faces_of_dim(1)
                if {C.vertices[i] for i in f.vertex_ids} ==
                {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))})
    assert lattice.face_contains_point(edge, (Fraction(1, 2), Fraction(0)))
    assert not lattice.face_contains_point(edge, (Fraction(1, 2), Fraction(1, 2)))
    assert not lattice.face_contains_point(edge, (Fraction(2), Fraction(0)))


def test_classify_faces_function():
    from valgeo.geometry import classify_faces
    minus, plus = classify_faces(standard_simplex(2))
    assert {f.vertex_ids for f in minus} == {(0,), (0, 1), (0, 2), (0, 1, 2)}
    assert len(plus) == 7


def test_body_and_caches_freed_without_the_cycle_collector():
    # the lattice points back to its body weakly and the triangulation
    # recursion is no closure, so dropping the last reference to a body
    # frees it and its lattice, triangulation and height forms at once
    import gc
    import weakref
    from valgeo.slicing import moment_transform, section_at
    from valgeo.slicing import weights as W
    P = convex_hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)])
    x = (Fraction(1), Fraction(-2), Fraction(1))
    moment_transform(P, x, W.power(2))
    section_at(P, x, 0)
    lattice = P.face_lattice()
    body = weakref.ref(P)
    gc.disable()
    try:
        del P
        assert body() is None
        assert lattice.f_vector() == (5, 9, 6, 1)
    finally:
        gc.enable()
