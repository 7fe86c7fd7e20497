"""Operator identities: Euler relations, derived bodies, expressions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valgeo.geometry import (
    cone_hull, convex_hull, cube, cut, reflect, scale, standard_simplex,
    translate, volume,
)
from valgeo.geometry.linalg import vdot, vneg
from valgeo.slicing import measure_transform, moment_transform, section_profile
from valgeo.slicing import weights as W
from valgeo import valuations as V

rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def rand_poly(rng, n, k, denom=3):
    return convex_hull([tuple(Fraction(rng.randint(-6, 6), rng.randint(1, denom))
                              for _ in range(n)) for _ in range(k)])


def rand_weight(rng):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(rng.randint(1, 4))]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return W.polynomial(coeffs)


# -- support composition --------------------------------------------------------


def test_supp_compose_polar_characteristic():
    # zeta = 1_{[0,1]} turns h_P into the characteristic function of the
    # polar body: zeta(h_P(x)) = 1 iff the gauge of the polar is at most 1
    C = cube(2, -1, 1)
    ind = W.indicator(0, 1)
    inside = (Fraction(1, 4), Fraction(1, 4))    # |x|_1 <= 1: in the polar
    outside = (Fraction(1), Fraction(1))
    assert V.supp_compose(C, inside, ind) == 1
    assert V.supp_compose(C, outside, ind) == 0


def test_supp_compose_normal_cone_characteristic():
    # zeta = 1_{{0}} marks the normal cone of P at the origin
    T2 = standard_simplex(2)
    point_ind = W.indicator(0, 0)
    assert V.supp_compose(T2, (-1, -1), point_ind) == 1   # h = 0 there
    assert V.supp_compose(T2, (1, 0), point_ind) == 0
    assert V.supp_compose(T2, (1, 0), W.power(1)) == 1


def test_supp_compose_reflect_body():
    P = convex_hull([(1, 0), (2, 1)])
    x = (Fraction(3), Fraction(-1))
    term = V.Term("supp_compose", weight=W.power(1), reflect_body=True)
    assert V.classified_evaluate(P, x, V.ValuationExpr((term,))) == \
        P.support(vneg(x))


# -- Euler operators --------------------------------------------------------------


def test_euler_minus_triangle_hand_count():
    # T^2 with the origin a vertex, zeta = 1: 1 - 2 + 1 = 0
    T2 = standard_simplex(2)
    assert V.euler_op(T2, (1, 1), W.constant(1), V.EULER_MINUS) == 0
    assert V.euler_op(T2, (1, 1), W.constant(1), V.EULER_PLUS) == 1


def test_euler_all_collapses_to_reflected_support():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.choice([1, 2, 3])
        P = rand_poly(rng, n, rng.randint(1, 7))
        if rng.random() < 0.5:
            P = translate(P, tuple(Fraction(rng.randint(1, 3)) for _ in range(n)))
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        if not any(x):
            x = (Fraction(1),) + tuple(Fraction(0) for _ in range(n - 1))
        lattice = P.face_lattice()
        anchors = [lattice.face_support(f, x) for f in lattice.faces]
        zeta = rng.choice([rand_weight(rng), W.indicator(-1, Fraction(1, 2)),
                           W.tabulated([(a, Fraction(rng.randint(1, 9), 7))
                                        for a in anchors])])
        assert V.euler_op(P, x, zeta, V.EULER_ALL) == \
            zeta.value(-P.support(vneg(x)))


def test_eu4_cone_hull_drop():
    rng = random.Random(32)
    for trial in range(30):
        P = rand_poly(rng, 3, rng.randint(1, 7))
        P = translate(P, tuple(Fraction(rng.randint(0, 2)) for _ in range(3)))
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        if not any(x):
            continue
        zeta = rand_weight(rng)
        C = cone_hull(P)
        lhs = V.euler_op(P, x, zeta, V.EULER_MINUS) - \
            V.euler_op(C, x, zeta, V.EULER_MINUS)
        rhs = zeta.value(-P.support(vneg(x))) - zeta.value(-C.support(vneg(x)))
        assert lhs == rhs


# -- derived bodies ----------------------------------------------------------------


def test_moment_body_segment():
    seg = convex_hull([(Fraction(-1, 2),), (Fraction(1, 2),)])
    got = V.moment_body_support(seg, (1,), 2)
    assert abs(got - math.sqrt(1 / 12)) < 1e-14


def test_moment_body_homogeneity_and_scaling():
    T3 = standard_simplex(3)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    p = 2
    base = V.moment_body_support(T3, x, p)
    # 1-homogeneous in x
    doubled = V.moment_body_support(T3, tuple(2 * c for c in x), p)
    assert abs(doubled - 2 * base) < 1e-12 * base
    # degree (n+p)/p in the body
    alpha = Fraction(3, 2)
    scaled = V.moment_body_support(scale(T3, alpha), x, p)
    assert abs(scaled - float(alpha) ** ((3 + p) / p) * base) < 1e-12 * base


def test_moment_body_midpoint_convexity_on_rays():
    rng = random.Random(33)
    P = rand_poly(rng, 3, 7)
    assert P.dim == 3
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        mid = tuple((a + b) / 2 for a, b in zip(x, y))
        for fn in (lambda z: V.moment_body_support(P, z, 2),
                   lambda z: V.difference_body_support(P, z, 3)):
            assert fn(mid) <= (fn(x) + fn(y)) / 2 + 1e-12


def test_polar_moment_matches_moment_body_for_p_ge_1():
    # the gauge of the polar equals the support of the body
    T3 = standard_simplex(3)
    x = (Fraction(2), Fraction(1), Fraction(1))
    for p in (1, 2, Fraction(3, 2)):
        assert abs(V.polar_moment_gauge(T3, x, p) -
                   V.moment_body_support(T3, x, p)) < 1e-12


def test_polar_moment_negative_p_cube():
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    got = V.polar_moment_gauge(C, (1, 0, 0), -0.5)
    # integral is 2 sqrt(2); gauge = (2 sqrt 2)^{1/p} with p = -1/2
    assert abs(got - (2 * math.sqrt(2)) ** -2) < 1e-12


def test_l0_polar_moment_gauge_segment():
    seg = convex_hull([(Fraction(-1, 2),), (Fraction(1, 2),)])
    got = V.l0_polar_moment_gauge(seg, (1,))
    assert abs(math.log(got) - (math.log(0.5) - 1)) < 1e-12


def test_intersection_body_cube():
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    assert V.intersection_body_gauge_inv(C, (1, 0, 0)) == 1
    assert V.intersection_body_gauge_inv(C, (1, 1, 0)) == 1  # |x| s(0), s(0)=1


def test_difference_body():
    P = convex_hull([(0, 0), (1, 0), (0, 1)])
    x = (Fraction(1), Fraction(0))
    # h_P = 1, h_{-P} = 0
    assert V.difference_body_support(P, x, 1) == 1.0
    assert V.difference_body_support(P, x, 2) == 1.0


def test_lp_combinators():
    h1 = lambda x: 1.0
    h2 = lambda x: 2.0
    assert abs(V.lp_minkowski_combine(h1, h2, 2)((0,)) - math.sqrt(5)) < 1e-15
    assert abs(V.lq_harmonic_combine(h1, h2, -1)((0,)) - (1 / (1 + 0.5))) < 1e-15
    with pytest.raises(ValueError):
        V.lp_minkowski_combine(h1, h2, 0.5)
    with pytest.raises(ValueError):
        V.lq_harmonic_combine(h1, h2, 0)


def test_star_body_fn():
    body = V.StarBodyFn("laplace", cube(3))
    assert abs(body.evaluate((0, 0, 0)) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        V.StarBodyFn("shadow", cube(3))


# -- cone volume --------------------------------------------------------------------


def test_cone_volume_cube_hand_masses():
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    atoms = V.cone_volume_measure(C)
    assert len(atoms) == 6
    assert all(m == Fraction(1, 6) for _, _, m in atoms)
    assert V.cone_volume_integral(C, lambda u: 1.0) == pytest.approx(1.0)


def test_cone_volume_total_mass_is_volume():
    rng = random.Random(34)
    P = rand_poly(rng, 3, 8)
    centroid = tuple(sum(v[i] for v in P.vertices) / len(P.vertices)
                     for i in range(3))
    L = translate(P, vneg(centroid))
    atoms = V.cone_volume_measure(L)
    assert sum(m for _, _, m in atoms) == volume(L)


def test_cone_volume_requires_interior_origin():
    with pytest.raises(ValueError):
        V.cone_volume_measure(standard_simplex(2))   # o is a vertex


def test_integrated_euler_relation_against_cone_measure():
    # integrated Euler collapse against the cone-volume atoms:
    # segment P, cube L, zeta = t
    lam = W.power(1)
    L = cube(3, Fraction(-1, 2), Fraction(1, 2))
    P = convex_hull([(0, 0, 0), (1, 2, 0)])
    atoms = V.cone_volume_measure(L)
    lattice = P.face_lattice()
    lhs = Fraction(0)
    for f in lattice.faces:
        term = sum((m * lam.value(lattice.face_support(f, u) / L.support(u))
                    for u, _, m in atoms), Fraction(0))
        lhs += (-1) ** f.dim * term
    rhs = sum((m * lam.value(-P.support(vneg(u)) / L.support(u))
               for u, _, m in atoms), Fraction(0))
    assert lhs == rhs


# -- expressions ----------------------------------------------------------------------


def test_measure_term_is_volume():
    expr = V.ValuationExpr((V.Term("measure", measure=W.lebesgue()),))
    T3 = standard_simplex(3)
    assert V.classified_evaluate(T3, (1, 2, 3), expr) == volume(T3)
    assert V.classified_evaluate(None, (1, 2, 3), expr) == 0


# Bodies with o inside, on the boundary (a vertex, a facet) and outside, and
# lower-dimensional ones; none is centrally symmetric, so h_P(x) != h_P(-x).
REFLECT_BODIES = [
    convex_hull([(-1, -1, -1), (3, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1)]),
    standard_simplex(3),
    convex_hull([(-1, -1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)]),
    translate(standard_simplex(3), (1, 2, Fraction(1, 2))),
    convex_hull([(1, 0, 0), (0, 2, 1), (1, 1, 1)]),
    convex_hull([(-1, 2), (3, -1)]),
    convex_hull([(2, 1)]),
]
REFLECT_DIRECTIONS = {3: [(3, -1, 2), (1, 0, 0), (-2, 1, Fraction(1, 2))],
                      2: [(1, 1), (-3, 2)]}
EULER_CLASSES = {"euler_minus": V.EULER_MINUS, "euler_plus": V.EULER_PLUS,
                 "euler_all": V.EULER_ALL}


@pytest.mark.parametrize("on_cone", [False, True])
@pytest.mark.parametrize("op", V.TERM_OPS)
def test_reflected_term_is_the_term_on_the_reflected_body(op, on_cone):
    # reflect() stays the reference: the term must equal its operator applied
    # to the hull of the negated vertices, at x itself
    weights = [W.polynomial([Fraction(1, 2), -2, 0, 1]), W.indicator(0, 1)]
    checked = 0
    for P in REFLECT_BODIES:
        body = cone_hull(P) if on_cone else P
        R = reflect(body)
        if op == "measure" and not body.is_full_dimensional:
            continue  # atoms on a flat body are rejected either way
        for x in REFLECT_DIRECTIONS[P.n]:
            x = tuple(Fraction(c) for c in x)
            if op == "measure":
                lo, hi = -R.support(vneg(x)), R.support(x)
                terms = [V.Term(op, measure=W.measure(
                    W.polynomial([1, 1]), atoms=[(lo, 2), (0, -1), (hi, 3)]),
                    reflect_body=True, cone_hull=on_cone)]
                expected = [measure_transform(R, x, terms[0].measure)]
            else:
                terms = [V.Term(op, weight=w, reflect_body=True, cone_hull=on_cone)
                         for w in weights]
                if op == "supp_compose":
                    expected = [V.supp_compose(R, x, w) for w in weights]
                else:
                    expected = [V.euler_op(R, x, w, EULER_CLASSES[op])
                                for w in weights]
            for term, want in zip(terms, expected):
                got = V.classified_evaluate(P, x, V.ValuationExpr((term,)))
                assert got == want, (P, x, term)
                checked += 1
    assert checked >= 12


def test_cone_hull_is_built_once_per_body():
    P = translate(standard_simplex(3), (1, 1, 1))
    C = cone_hull(P)
    assert cone_hull(P) is C
    assert C.vertices == convex_hull(list(P.vertices) + [(0, 0, 0)]).vertices


def test_expr_json_round_trip():
    expr = V.general_polytope_form(
        W.polynomial([1, 2]), W.indicator(0, 1), W.measure(W.power(1)),
        W.polynomial([0, 0, 1]), W.constant(2), W.measure(W.power(0), atoms=[(0, 1)]))
    again = V.expr_from_json(expr.to_json())
    assert again == expr


def test_representation_forms_are_valuations():
    rng = random.Random(35)
    exprs = [
        V.continuous_origin_form(rand_weight(rng), W.measure(rand_weight(rng))),
        V.regular_origin_form(rand_weight(rng), rand_weight(rng),
                                      W.measure(rand_weight(rng))),
        V.general_polytope_form(rand_weight(rng), rand_weight(rng),
                               W.measure(rand_weight(rng)), rand_weight(rng),
                               rand_weight(rng), W.measure(rand_weight(rng))),
        V.continuous_polytope_form(rand_weight(rng), W.measure(rand_weight(rng)),
                                          rand_weight(rng), W.measure(rand_weight(rng))),
    ]
    for expr in exprs:
        for trial in range(12):
            P = rand_poly(rng, 3, rng.randint(4, 8))
            if P.dim != 3:
                continue
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            if not any(x):
                continue
            u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            if not any(u):
                continue
            heights = sorted(vdot(u, v) for v in P.vertices)
            t = (heights[0] + heights[-1]) / 2
            minus, plus, mid = cut(P, u, t)
            lhs = V.classified_evaluate(P, x, expr) + V.classified_evaluate(mid, x, expr)
            rhs = V.classified_evaluate(minus, x, expr) + V.classified_evaluate(plus, x, expr)
            assert lhs == rhs


def test_continuous_polytope_form_smoke():
    # zeta = 0, mu = Lebesgue, zeta~ = 0, mu~ = t dt: the expression is
    # V(P) + M_t([P,o])(x), term by term
    expr = V.continuous_polytope_form(
        W.constant(0), W.lebesgue(), W.constant(0), W.measure(W.power(1)))
    rng = random.Random(36)
    for _ in range(6):
        P = rand_poly(rng, 3, 6)
        if P.dim != 3:
            continue
        x = (Fraction(1), Fraction(2), Fraction(-1))
        expected = volume(P) + moment_transform(cone_hull(P), x, W.power(1))
        assert V.classified_evaluate(P, x, expr) == expected


def test_moment_in_scale_is_polynomial():
    # s -> M_zeta(sT^n)(x) is a polynomial of degree <= n + deg zeta: the
    # (n + deg + 1)-st finite differences of the sampled values vanish
    T3 = standard_simplex(3)
    x = (Fraction(1), Fraction(-2), Fraction(1))
    zeta = W.polynomial([1, 0, 2])   # degree 2
    degree_bound = 3 + 2
    samples = [moment_transform(scale(T3, Fraction(s)), x, zeta)
               for s in range(1, degree_bound + 3)]
    for _ in range(degree_bound + 1):
        samples = [b - a for a, b in zip(samples, samples[1:])]
    assert all(v == 0 for v in samples)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rational, rational), min_size=1, max_size=6),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.lists(rational, min_size=1, max_size=3))
def test_euler_collapse_property(pts, x, coeffs):
    if not any(x):
        x = (1, 0)
    if not any(coeffs):
        coeffs = [Fraction(1)]
    P = convex_hull(pts)
    zeta = W.polynomial(coeffs)
    xv = tuple(Fraction(c) for c in x)
    assert V.euler_op(P, xv, zeta, V.EULER_ALL) == \
        zeta.value(-P.support(vneg(xv)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(rational, rational, rational), min_size=4, max_size=7),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
       st.lists(rational, min_size=1, max_size=3))
def test_fubini_property(pts, x, coeffs):
    P = convex_hull(pts)
    if P.dim != 3 or not any(x):
        return
    if not any(coeffs):
        coeffs = [Fraction(1)]
    xv = tuple(Fraction(c) for c in x)
    zeta = W.polynomial(coeffs)
    prof = section_profile(P, xv)
    assert moment_transform(P, xv, zeta) == prof.integrate_against(zeta)
    assert prof.mass() == volume(P)
