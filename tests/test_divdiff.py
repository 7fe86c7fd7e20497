"""Divided differences: the exact height form, confluence, clustered nodes."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import exp as mpexp, mpf

from valgeo.geometry import convex_hull, cube, standard_simplex
from valgeo.geometry.linalg import vneg
from valgeo.slicing import weights as W
from valgeo.slicing.divdiff import dd_weights, divided_difference, height_form


def newton_table(nodes):
    """The confluent Newton table over sorted exact nodes, as a form.

    The O(m^2) reference for the integer kernel of ``dd_weights``: it may
    keep zero coefficients, and leaves some out ([a, a] gives only (a, 1)).
    """
    m = len(nodes)
    cur = [{(z, 0): Fraction(1)} for z in nodes]
    for level in range(1, m):
        nxt = []
        for i in range(m - level):
            lo, hi = nodes[i], nodes[i + level]
            if lo == hi:
                nxt.append({(lo, level): Fraction(1, math.factorial(level))})
                continue
            inv = 1 / (hi - lo)
            form = {key: c * inv for key, c in cur[i + 1].items()}
            for key, c in cur[i].items():
                form[key] = form.get(key, 0) - c * inv
            nxt.append(form)
        cur = nxt
    return cur[0]


def nonzero(form):
    return {key: c for key, c in form.items() if c != 0}


def _node_multisets(rng, count):
    """Sorted multisets of n + 1 exact nodes, n = 1..6, with multiplicities
    up to n + 1; every third one clustered within 10^-12 of a point."""
    for trial in range(count):
        n = rng.randint(1, 6)
        distinct = rng.randint(1, n + 1)
        cuts = sorted(rng.sample(range(1, n + 1), distinct - 1))
        mults = [b - a for a, b in zip([0] + cuts, cuts + [n + 1])]
        if trial % 3 == 0:
            base = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            offsets = rng.sample(range(-50, 50), distinct)
            values = [base + Fraction(k, 10 ** 12) for k in offsets]
        else:
            values = {Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                      for _ in range(3 * distinct)}
            values = rng.sample(sorted(values), distinct)
        yield sorted(z for z, m in zip(values, mults) for _ in range(m))


def test_int_kernel_matches_newton_table():
    rng = random.Random(20)
    for nodes in _node_multisets(rng, 1500):
        assert dd_weights(nodes) == nonzero(newton_table(nodes)), nodes


def _mirror_cases():
    rng = random.Random(22)
    for n, count in ((3, 8), (4, 9), (5, 9), (6, 9)):
        for _ in range(2):
            while True:
                P = convex_hull([tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                       for _ in range(n)) for _ in range(count)])
                x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                if P.dim == n and any(x):
                    break
            yield pytest.param(P, x, id=f"random-n{n}")
    for n in (3, 4, 5):
        axis = (Fraction(1),) + (Fraction(0),) * (n - 1)
        yield pytest.param(cube(n), axis, id=f"cube{n}-axis")
        yield pytest.param(cube(n), (Fraction(1),) * 2 + (Fraction(0),) * (n - 2),
                           id=f"cube{n}-diagonal")
    for n in (3, 6):
        yield pytest.param(standard_simplex(n), (Fraction(0),) * (n - 1) + (Fraction(2),),
                           id=f"simplex{n}-axis")


@pytest.mark.parametrize("P, x", list(_mirror_cases()))
def test_minus_x_rule_matches_fresh_form(P, x):
    # the form at -x derived from the cached form at x equals the form a
    # fresh body builds at -x; confluent heights on the axis directions
    assert not P._height_forms
    height_form(P, x)
    derived = height_form(P, vneg(x))
    fresh = height_form(convex_hull(P.vertices), vneg(x))
    assert nonzero(derived) == nonzero(fresh)
    assert {h for h, _ in derived} == {h for h, _ in fresh}


def test_height_form_is_cached_and_read_only():
    P = cube(3)
    x = (Fraction(1), Fraction(2), Fraction(0))
    form = height_form(P, x)
    assert height_form(P, x) is form
    with pytest.raises(TypeError):
        form[(Fraction(0), 0)] = Fraction(1)
    with pytest.raises(TypeError):
        height_form(P, vneg(x))[(Fraction(0), 0)] = Fraction(1)


def test_exact_polynomial_divided_difference():
    # [0,1,2]F for F(t)=t^2 is the leading coefficient 1
    F = W.polynomial([0, 0, 1]).exact_pieces()
    nodes = [Fraction(0), Fraction(1), Fraction(2)]
    assert divided_difference(nodes, F) == 1
    # degree below the order of the difference: 0
    F1 = W.polynomial([3, 2]).exact_pieces()
    assert divided_difference(nodes, F1) == 0


def test_confluent_equals_taylor_coefficient():
    # [a,a,a]F = F''(a)/2
    F = W.polynomial([0, 0, 0, 1]).exact_pieces()   # t^3
    a = Fraction(2)
    val = divided_difference([a, a, a], F)
    assert val == 3 * a                              # (6a)/2! = 3a


def test_confluent_matches_perturbed_nodes():
    # spec invariant: repeated nodes equal the perturbed-node limit within
    # 1e-7 for a perturbation of 1e-5
    def antideriv(t, order):
        import math
        from mpmath import mpf, exp
        return (-1) ** (3 - order) * exp(-mpf(str(t)))

    exact_nodes = [Fraction(1), Fraction(1), Fraction(1), Fraction(2)]
    eps = Fraction(1, 10 ** 5)
    perturbed = [Fraction(1) - eps, Fraction(1), Fraction(1) + eps, Fraction(2)]
    confluent = divided_difference(exact_nodes, antideriv)
    spread = divided_difference(perturbed, antideriv)
    assert abs(float(confluent) - float(spread)) < 1e-7


def test_clustered_float_nodes_keep_their_gaps():
    # float nodes 1 + k h, h = 1e-8: read as the binary rationals they are,
    # with the precision raised from their exact gaps; a fixed 45 digits
    # cancelled this to 0.343.  Expected: e^-1 ((1 - e^-h)/h)^6 / 6!
    h = 1e-8
    nodes = [1 + k * h for k in range(7)]
    val = divided_difference(nodes, lambda t, order: (-1) ** order * mpexp(-mpf(t)))
    expected = math.exp(-1) * (-math.expm1(-h) / h) ** 6 / math.factorial(6)
    assert abs(float(val) - expected) <= 1e-12 * expected


def test_public_divided_difference_exact_path():
    F = W.indicator(0, 1).exact_pieces().antiderivative_order(2)
    nodes = [Fraction(-1), Fraction(0), Fraction(2)]
    val = divided_difference(nodes, F)
    # oracle: the triangle conv((-1,0), (0,1), (2,0)) has heights (-1, 0, 2)
    # along e1, area 3/2, and strip area int_0^1 (1 - t/2) dt = 3/4, so
    # 2! * (3/2) * dd = 3/4 forces dd = 1/4
    assert val == Fraction(1, 4)
