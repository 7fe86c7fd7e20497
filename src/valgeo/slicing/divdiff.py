"""The divided-difference kernel: one exact height form per body and direction.

The integrator rests on one identity: for a d-simplex S with vertex heights
a_0..a_d along x and any F whose d-th derivative is zeta (absolutely
continuous (d-1)-st derivative suffices),

    integral_S zeta(x . y) dy  =  d! vol(S) [a_0, ..., a_d]F .

``dd_weights`` runs the confluent Newton table once over the exact heights
and returns the divided difference as a linear form {(h, k): c}, meaning
[a_0..a_d]F = sum c F^(k)(h) for every F; k + 1 equal heights contribute
F^(k)(h)/k!.  ``height_form`` sums d! vol(S) times these forms over a
triangulation of P: the vertex form of Lawrence (Math. Comp. 57, 1991) and
Baldoni-Berline-De Loera-Koeppe-Vergne (Math. Comp. 80, 2011).  Everything
downstream evaluates this one form with a different F: exact piecewise
antiderivatives for exact moments, mpmath antiderivatives for float moments,
and the truncated power (h - t)_+^{n-1}/(n-1)! for section profiles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

from ..geometry.linalg import vdot
from ..geometry.polytope import Polytope

FLOAT_DPS = 45

ONE = Fraction(1)


def dd_weights(nodes) -> dict[tuple[Fraction, int], Fraction]:
    """[nodes]F as the exact form {(h, k): c} with [nodes]F = sum c F^(k)(h).

    nodes are exact and sorted, so equal nodes are adjacent.
    """
    m = len(nodes)
    cur = [{(z, 0): ONE} for z in nodes]
    for level in range(1, m):
        nxt = []
        for i in range(m - level):
            lo, hi = nodes[i], nodes[i + level]
            if lo == hi:
                nxt.append({(lo, level): Fraction(1, math.factorial(level))})
                continue
            inv = ONE / (hi - lo)
            form = {key: c * inv for key, c in cur[i + 1].items()}
            for key, c in cur[i].items():
                form[key] = form.get(key, 0) - c * inv
            nxt.append(form)
        cur = nxt
    return cur[0]


def height_form(P: Polytope, x) -> dict[tuple[Fraction, int], Fraction]:
    """sum over the triangulation of P of n! vol(S) dd_weights(heights of S).

    integral_P zeta(x . y) dy = sum c F^(k)(h) for every n-th antiderivative
    F of zeta; P must be full-dimensional.
    """
    heights = [vdot(x, v) for v in P.vertices]
    form: dict[tuple[Fraction, int], Fraction] = {}
    for simplex, scale in zip(P.triangulation(), P.normalized_volumes()):
        for key, c in dd_weights(sorted(heights[i] for i in simplex)).items():
            form[key] = form.get(key, 0) + scale * c
    return form


def exact_value(form, F) -> Fraction:
    """sum c F^(k)(h) for an exact piecewise polynomial F."""
    return sum(c * F.deriv_value(h, k) for (h, k), c in form.items())


def _to_mpf(z):
    if isinstance(z, Fraction):
        return mpf(z.numerator) / mpf(z.denominator)
    return mpf(z)


def _working_dps(heights, levels: int) -> int:
    """Digits for summing a form over the sorted distinct exact heights.

    Each of the ``levels`` divided-difference levels can lose up to
    log10(R / g) digits to cancellation, where g is the smallest gap between
    the heights and R the larger of their span and magnitude.  FLOAT_DPS
    carries 25 digits of headroom over double precision; beyond that loss
    the precision is raised by the excess.
    """
    if len(heights) < 2:
        return FLOAT_DPS
    gap = min(b - a for a, b in zip(heights, heights[1:]))
    reach = max(heights[-1] - heights[0], abs(heights[0]), abs(heights[-1]))
    ratio = Fraction(reach) / Fraction(gap)
    digits = math.ceil(math.log10(ratio.numerator) - math.log10(ratio.denominator))
    return FLOAT_DPS + max(0, levels * digits - 25)


def float_value(form, f, levels: int) -> mpf:
    """sum c f(h, k) in mpmath, f(t, order) giving F^(order)(t) as an mpf.

    The whole sum runs in one precision block, at the digits the exact
    height gaps call for over ``levels`` divided-difference levels.
    """
    heights = sorted({h for h, _ in form})
    with mp.workdps(_working_dps(heights, levels)):
        return mp.fsum(_to_mpf(c) * f(h, k) for (h, k), c in form.items())


def divided_difference(nodes, antideriv):
    """Newton divided difference of an antiderivative spec over nodes.

    ``antideriv`` is either an exact piecewise polynomial (has
    ``deriv_value``), giving a Fraction, or a callable (t, order) -> mpf,
    giving an mpf.  Float nodes are read as the binary rationals they are,
    so confluence is exact and the precision follows the exact node gaps;
    the callable is called with the nodes as given.
    """
    given = {Fraction(z): z for z in nodes}
    form = dd_weights(sorted(Fraction(z) for z in nodes))
    if hasattr(antideriv, "deriv_value"):
        return exact_value(form, antideriv)
    return float_value(form, lambda h, k: antideriv(given[h], k), len(nodes) - 1)
