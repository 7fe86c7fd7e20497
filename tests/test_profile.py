"""Section profiles: hand slices, mass, continuity, endpoint semantics."""

import random
from fractions import Fraction

import pytest

from valgeo.geometry import (
    convex_hull, cube, cut, standard_simplex, volume, volume_full,
)
from valgeo.slicing import section_at, section_profile
from valgeo.slicing import weights as W
from valgeo.slicing.poly import peval, pintegral


def test_triangle_profile_is_one_minus_t():
    prof = section_profile(standard_simplex(2), (1, 0))
    assert prof.breakpoints == (Fraction(0), Fraction(1))
    assert prof.pieces == ((Fraction(1), Fraction(-1)),)
    assert prof.section_value(Fraction(1, 3)) == Fraction(2, 3)
    assert prof.section_value(Fraction(-1)) == 0 and prof.section_value(Fraction(2)) == 0


def test_unit_cube_profile_is_prism():
    for n in (1, 2, 3, 4):
        prof = section_profile(cube(n), (1,) + (0,) * (n - 1))
        assert prof.breakpoints == (Fraction(0), Fraction(1))
        assert prof.section_value(Fraction(1, 2)) == 1


def test_profile_mass_equals_volume():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        pts = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n)) for _ in range(rng.randint(n + 1, 9))]
        P = convex_hull(pts)
        if P.dim != n:
            continue
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        if not any(x):
            continue
        prof = section_profile(P, x)
        assert prof.mass() == volume(P)


def test_profile_continuity_and_nonnegativity():
    rng = random.Random(15)
    for _ in range(10):
        pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(3)) for _ in range(8)]
        P = convex_hull(pts)
        if P.dim != 3:
            continue
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not any(x):
            continue
        prof = section_profile(P, x)
        # interior breakpoints: adjacent pieces agree (no facet can sit in an
        # interior level set of a full-dimensional body)
        for k in range(1, len(prof.breakpoints) - 1):
            b = prof.breakpoints[k]
            assert peval(prof.pieces[k - 1], b) == peval(prof.pieces[k], b)
        for k, piece in enumerate(prof.pieces):
            lo, hi = prof.breakpoints[k], prof.breakpoints[k + 1]
            for j in range(5):
                t = lo + (hi - lo) * Fraction(2 * j + 1, 10)
                assert peval(piece, t) >= 0


def test_section_value_endpoints_take_inside_limits():
    # the slice at a facet level is the facet itself
    C = cube(3)
    prof = section_profile(C, (1, 0, 0))
    assert prof.section_value(0) == 1
    assert prof.section_value(1) == 1
    assert prof.section_value(2) == 0
    # at a vertex level the section is a point: value 0
    T = standard_simplex(3)
    prof = section_profile(T, (1, 0, 0))
    assert prof.section_value(1) == 0
    assert prof.section_value(0) == Fraction(1, 2)  # the facet y1 = 0


def test_skew_direction_cancels_norm():
    # V_1(P cap H_{x,0}) = |x| s(0): for the square and x = (1,-1) the section
    # is the main diagonal of length sqrt(2) = |x| * 1
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    prof = section_profile(sq, (1, -1))
    assert prof.section_value(0) == 1


def test_lower_dimensional_rejected():
    seg = convex_hull([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        section_profile(seg, (1, 0))
    with pytest.raises(ValueError):
        section_profile(standard_simplex(2), (0, 0))


def test_profile_additivity_under_cut():
    rng = random.Random(16)
    P = convex_hull([tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(3))
                     for _ in range(9)])
    assert P.dim == 3
    x = (Fraction(1), Fraction(2), Fraction(-1))
    minus, plus, _ = cut(P, (1, 1, 1), Fraction(1, 3))
    prof = section_profile(P, x)
    pm = section_profile(minus, x)
    pp = section_profile(plus, x)
    # true section volumes are additive at every height (the pieces overlap
    # in a set of lower dimension inside each level hyperplane)
    for j in range(-16, 17):
        t = Fraction(j, 4)
        assert prof.section_value(t) == pm.section_value(t) + pp.section_value(t)


def _mass_below(prof, t):
    """integral of s from the lowest breakpoint to t, exactly."""
    total = Fraction(0)
    for k, piece in enumerate(prof.pieces):
        lo, hi = prof.breakpoints[k], prof.breakpoints[k + 1]
        if lo >= t:
            break
        total += pintegral(piece, lo, min(hi, t))
    return total


def _profile_bodies():
    rng = random.Random(17)
    for n, count in ((3, 8), (4, 8), (5, 8)):
        while True:
            P = convex_hull([tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                   for _ in range(n)) for _ in range(count)])
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            if P.dim == n and any(x):
                break
        yield pytest.param(P, x, id=f"random-n{n}")
    yield pytest.param(cube(4), (1, 1, 0, 0), id="cube4-diagonal")
    yield pytest.param(cube(4), (1, 0, 0, 0), id="cube4-axis")


@pytest.mark.parametrize("P, x", list(_profile_bodies()))
def test_profile_integrates_to_cut_volumes(P, x):
    # independent oracle: vol{y in P : x.y <= t} from an exact cut, at every
    # breakpoint and every piece midpoint; the cubes repeat heights, and
    # along e_1 a facet is orthogonal to x
    prof = section_profile(P, x)
    bps = prof.breakpoints
    for t in bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:])):
        assert _mass_below(prof, t) == volume_full(cut(P, x, t)[0])


@pytest.mark.parametrize("P, x", list(_profile_bodies()) + [
    pytest.param(cube(3), (-1, 0, 0), id="cube3-negative-axis"),
    pytest.param(standard_simplex(3), (1, 1, 0), id="simplex3-edge-on-top"),
])
def test_section_at_matches_profile(P, x):
    # every breakpoint, both endpoints (a facet on top along the cube axes),
    # piece midpoints, and heights outside the support
    prof = section_profile(P, x)
    bps = prof.breakpoints
    points = bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:])) + \
        (bps[0] - 1, bps[-1] + Fraction(1, 3))
    for t in points:
        assert section_at(P, x, t) == prof.section_value(t), t


def test_section_at_raises_profile_errors():
    seg = convex_hull([(0, 0), (1, 1)])
    for P, x in ((seg, (1, 0)), (standard_simplex(2), (0, 0))):
        with pytest.raises(ValueError) as profile_error:
            section_profile(P, x)
        with pytest.raises(ValueError) as point_error:
            section_at(P, x, 0)
        assert str(point_error.value) == str(profile_error.value)
