"""Dense univariate polynomials over the rationals (tiny degrees).

Coefficient tuples, index = power.  Used for section-profile pieces and the
exact antiderivatives fed to the divided-difference integrator.
"""

from __future__ import annotations

from fractions import Fraction

Poly = tuple[Fraction, ...]

PZERO: Poly = ()


def normalize(coeffs) -> Poly:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def pscale(c, a: Poly) -> Poly:
    c = Fraction(c)
    if c == 0:
        return PZERO
    return tuple(c * x for x in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return normalize(out)


def ppow(a: Poly, k: int) -> Poly:
    out: Poly = (Fraction(1),)
    for _ in range(k):
        out = pmul(out, a)
    return out


def pderiv(a: Poly, order: int = 1) -> Poly:
    for _ in range(order):
        a = tuple(Fraction(i) * a[i] for i in range(1, len(a)))
    return a


def pantideriv(a: Poly) -> Poly:
    if not a:
        return PZERO
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(a))


def peval(a: Poly, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def preflect(a: Poly) -> Poly:
    """p(t) -> p(-t)."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(a))


def pintegral(a: Poly, lo, hi) -> Fraction:
    anti = pantideriv(a)
    return peval(anti, hi) - peval(anti, lo)
