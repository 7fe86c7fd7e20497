"""Divided differences: the exact height form, confluence, clustered nodes."""

import math
from fractions import Fraction

from mpmath import exp as mpexp, mpf

from valgeo.slicing import weights as W
from valgeo.slicing.divdiff import divided_difference


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
