"""Hull stress: grids, cross-polytopes, heavy coplanarity, mixed degeneracy."""

import itertools
import math
import random
from fractions import Fraction

from valgeo.geometry import convex_hull, cube, volume
from valgeo.geometry.linalg import rref, unit_vector, vneg, vdot
from valgeo.harness.oracles import brute_facets


def test_planar_grid_collapses_to_square():
    pts = [(Fraction(i), Fraction(j)) for i in range(3) for j in range(3)]
    P = convex_hull(pts)
    assert len(P.vertices) == 4
    assert volume(P) == 4
    assert P.face_lattice().f_vector() == (4, 4, 1)


def test_lattice_cube_grid():
    pts = [tuple(Fraction(c) for c in p)
           for p in itertools.product(range(3), repeat=3)]
    P = convex_hull(pts)
    assert len(P.vertices) == 8
    assert volume(P) == 8
    assert P.face_lattice().f_vector() == (8, 12, 6, 1)
    # every facet of the doubled cube carries 4 vertices exactly
    assert sorted(len(m) for m in P.facet_members) == [4] * 6


def test_cross_polytopes():
    for n in (2, 3, 4, 5):
        pts = [unit_vector(n, i) for i in range(n)] + \
              [vneg(unit_vector(n, i)) for i in range(n)]
        P = convex_hull(pts)
        assert len(P.vertices) == 2 * n
        assert len(P.rel_facets) == 2 ** n
        assert volume(P) == Fraction(2 ** n, math.factorial(n))
        assert P.face_lattice().euler_alternating_sum() == 1


def test_prism_with_midedge_points():
    # triangular prism plus points lying on facets and edges: all pruned
    tri = [(0, 0), (2, 0), (0, 2)]
    pts = [(x, y, z) for (x, y) in tri for z in (0, 2)]
    extra = [(1, 0, 0), (0, 1, 2), (1, 1, 1), (Fraction(1, 2), Fraction(1, 2), 1)]
    P = convex_hull(pts + extra)
    assert len(P.vertices) == 6
    assert volume(P) == 4
    fv = P.face_lattice().f_vector()
    assert fv == (6, 9, 5, 1)


def test_collinear_runs_on_boundary():
    pts = [(Fraction(i), Fraction(0)) for i in range(5)] + [(2, 3)]
    P = convex_hull(pts)
    assert set(P.vertices) == {(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
                               (Fraction(2), Fraction(3))}


def test_grid_hull_matches_brute_oracle():
    rng = random.Random(77)
    for trial in range(6):
        pts = [tuple(Fraction(rng.randint(0, 2)) for _ in range(3))
               for _ in range(12)]
        P = convex_hull(pts)
        if P.dim != 3:
            continue
        assert set(P.facets_ambient()) == brute_facets(sorted(set(
            tuple(Fraction(c) for c in p) for p in pts)))


def test_hull_insertion_order_invariance():
    rng = random.Random(78)
    base = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(3)) for _ in range(10)]
    P = convex_hull(base)
    for _ in range(5):
        shuffled = base[:]
        rng.shuffle(shuffled)
        Q = convex_hull(shuffled)
        assert Q.vertices == P.vertices
        assert Q.rel_facets == P.rel_facets


def test_cube_with_pyramid_cap():
    # cap one facet with an apex: the capped facet disappears, four new ones
    C = cube(3)
    apex = (Fraction(1, 2), Fraction(1, 2), Fraction(2))
    P = convex_hull(list(C.vertices) + [apex])
    assert len(P.vertices) == 9
    assert len(P.rel_facets) == 9    # 5 cube facets + 4 cap facets
    assert volume(P) == 1 + Fraction(1, 3)


def test_six_dimensional_simplex_with_noise_points():
    pts = [tuple(Fraction(0) for _ in range(6))] + \
          [unit_vector(6, i) for i in range(6)]
    centroid = tuple(Fraction(1, 7) for _ in range(6))
    P = convex_hull(pts + [centroid])
    assert len(P.vertices) == 7
    assert volume(P) == Fraction(1, math.factorial(6))


def _grid_sets(rng, n, count, sizes, values=(-1, 0, 1)):
    return [[tuple(Fraction(rng.choice(values)) for _ in range(n))
             for _ in range(rng.randint(*sizes))] for _ in range(count)]


def test_hull_sweep_matches_brute_oracles():
    # heavy coplanarity: small grids, where horizon ridges are often shared by
    # more than two facets' member sets and points often land on facets
    rng = random.Random(2024)
    sets = (_grid_sets(rng, 2, 40, (3, 9)) + _grid_sets(rng, 3, 40, (5, 12))
            + _grid_sets(rng, 4, 48, (8, 12)) + _grid_sets(rng, 5, 12, (9, 11)))
    full = 0
    for pts in sets:
        n = len(pts[0])
        P = convex_hull(pts)
        if P.dim != n:
            continue
        full += 1
        distinct = sorted(set(pts))
        facets = brute_facets(distinct)
        assert set(P.facets_ambient()) == facets
        vertices = [p for p in distinct
                    if len(rref([u for u, c in facets if vdot(u, p) == c])[1]) == n]
        assert list(P.vertices) == vertices
        for (u, c), members in zip(P.facets_ambient(), P.facet_members):
            assert members == tuple(i for i, v in enumerate(P.vertices) if vdot(u, v) == c)
    assert full >= 100


def test_flat_hull_sweep_is_an_affine_image():
    # an injective integer affine map carries vertices to vertices and facets
    # to facets of the image, which is flat in the larger space
    rng = random.Random(2025)
    checked = 0
    for k, n in [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)] * 8:
        pts = _grid_sets(rng, k, 1, (k + 2, 10))[0]
        P = convex_hull(pts)
        if P.dim != k:
            continue
        while True:
            m = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)) for _ in range(n)]
            if len(rref(m)[1]) == k:
                break
        t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))

        def image(p):
            return tuple(vdot(row, p) + s for row, s in zip(m, t))

        Q = convex_hull([image(p) for p in pts])
        assert Q.dim == k
        assert set(Q.vertices) == {image(v) for v in P.vertices}
        assert len(Q.rel_facets) == len(P.rel_facets)
        checked += 1
    assert checked >= 40
