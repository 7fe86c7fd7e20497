"""Weighted moment transforms M_zeta P(x) = integral_P zeta(x.y) dy.

Exact weights ride the rational divided-difference path per simplex of a
pulling triangulation.  Float weights (real exponents, exp, log) take one
high-precision divided difference per simplex of a single antiderivative
defined on all of R: its (n-1)-st derivative is absolutely continuous across
height 0, so a simplex straddling 0 needs no cut.  The precision is read
from the exact gaps between the rational vertex heights.

The same machinery evaluates the section-measure transform

    M_mu P(x) = (1/|x|) integral V_{n-1}(P cap H_{x,t}) dmu(t)

whose density part reduces to M_zeta by Fubini and whose atoms read the
exact section profile.  Both maps are simple: they vanish on
lower-dimensional bodies, which the cut identity tests rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf, exp as mpexp, log as mplog, power as mppower

from ..geometry.linalg import as_vector, is_zero_vector, vdot, vneg
from ..geometry.polytope import Polytope, simplex_volume, volume
from .divdiff import FLOAT_DPS, dd_fraction, dd_mpf, _to_mpf
from .profile import section_profile
from .weights import MeasureSpec, WeightSpec

ZERO = Fraction(0)


# -- float-path antiderivatives ----------------------------------------------


def _harmonic(k: int) -> mpf:
    return _to_mpf(sum(Fraction(1, i) for i in range(1, k + 1)))


def _float_antideriv(weight: WeightSpec, m: int):
    """(t, order) -> F^(order)(t) where F is an m-th antiderivative of zeta.

    One F serves all of R: for every float kind F^(m-1) is absolutely
    continuous across 0, which is all the divided-difference identity needs.
    Height 0 is a node at most m times on a full-dimensional simplex, so
    every requested order has k = m - order >= 1 and F^(order)(0) = 0.
    """
    kind = weight.kind
    if kind == "exp_neg":
        def f(t, order):
            return (-1) ** (m - order) * mpexp(-_to_mpf(t))
        return f

    if kind in ("abs_power", "signed_power"):
        p = mpf(float(weight.p))
        if kind == "signed_power":
            active = (1,) if weight.side == "pos" else (-1,)
        else:
            active = (1, -1)

        def f(t, order):
            sign = (t > 0) - (t < 0)
            if sign not in active:
                return mpf(0)
            k = m - order
            denom = mpf(1)
            for i in range(1, k + 1):
                denom *= p + i
            val = mppower(abs(_to_mpf(t)), p + k) / denom
            return val if sign > 0 else (-1) ** k * val
        return f

    if kind == "log_abs":
        def f(t, order):
            if t == 0:
                return mpf(0)
            k = m - order
            s = abs(_to_mpf(t))
            val = mppower(s, k) * (mplog(s) - _harmonic(k)) / math.factorial(k)
            return val if t > 0 else (-1) ** k * val
        return f

    raise ValueError(f"no float antiderivative for weight kind {kind!r}")


def _working_dps(nodes) -> int:
    """Digits for a float divided difference over sorted nodes.

    Each of the len(nodes) - 1 levels can lose up to log10(R / g) digits to
    cancellation, where g is the smallest positive gap between the exact
    nodes and R the larger of their span and magnitude.  FLOAT_DPS carries
    25 digits of headroom over double precision; beyond that loss the
    precision is raised by the excess.
    """
    gaps = [b - a for a, b in zip(nodes, nodes[1:]) if b != a]
    if not gaps:
        return FLOAT_DPS
    reach = max(nodes[-1] - nodes[0], abs(nodes[0]), abs(nodes[-1]))
    ratio = Fraction(reach) / Fraction(min(gaps))
    digits = math.ceil(math.log10(ratio.numerator) - math.log10(ratio.denominator))
    return FLOAT_DPS + max(0, (len(nodes) - 1) * digits - 25)


# -- simplex and polytope transforms -------------------------------------------


def simplex_moment(vertices, x, weight: WeightSpec):
    """integral over the simplex [vertices] of zeta(x.y) dy, full-dimensional.

    Exact rational for exact-path weights.  Float weights take one mpmath
    divided difference of a single antiderivative over the vertex heights,
    also when they straddle 0; the precision is 45 digits, raised by
    ``_working_dps`` from the exact node gaps when the heights nearly
    coincide.
    """
    x = as_vector(x)
    n = len(x)
    if len(vertices) != n + 1:
        raise ValueError("simplex must have n + 1 vertices")
    if is_zero_vector(x) and not weight.smooth:
        raise ValueError("x = o needs a weight smooth at 0")
    if weight.reflect:
        return simplex_moment(vertices, vneg(x), _unreflected(weight))
    vol = simplex_volume(list(vertices))
    if vol == 0:
        return ZERO if weight.is_exact else 0.0
    nodes = sorted(vdot(x, v) for v in vertices)
    scale = Fraction(math.factorial(n)) * vol
    if weight.is_exact:
        F = weight.exact_pieces().antiderivative_order(n)
        return scale * dd_fraction(nodes, F.deriv_value)
    with mp.workdps(_working_dps(nodes)):
        f = _float_antideriv(weight, n)
        return float(_to_mpf(scale) * dd_mpf(nodes, f))


def _unreflected(weight: WeightSpec) -> WeightSpec:
    from dataclasses import replace
    return replace(weight, reflect=False)


def moment_transform(P: Polytope, x, weight: WeightSpec):
    """M_zeta P(x).  Exact Fraction on the exact path, float otherwise.

    Lower-dimensional bodies integrate to 0 (the transform is simple).  The
    zero direction is allowed only for weights smooth on all of R, where the
    value is zeta(0) vol(P).
    """
    if not weight.integrable:
        raise ValueError(f"weight kind {weight.kind!r} cannot be integrated")
    x = as_vector(x)
    if weight.reflect:
        return moment_transform(P, vneg(x), _unreflected(weight))
    if not P.is_full_dimensional:
        return ZERO if weight.is_exact else 0.0
    if is_zero_vector(x):
        if not weight.smooth:
            raise ValueError("x = o needs a weight smooth at 0")
        return weight.value(ZERO) * volume(P)

    if weight.is_exact:
        n = P.n
        F = weight.exact_pieces().antiderivative_order(n)
        total = ZERO
        rel = P.rel_vertices()
        fact = Fraction(math.factorial(n))
        for simplex in P.triangulation():
            vol = simplex_volume([rel[i] for i in simplex])
            nodes = sorted(vdot(x, P.vertices[i]) for i in simplex)
            total += fact * vol * dd_fraction(nodes, F.deriv_value)
        return total

    total = 0.0
    for simplex in P.triangulation():
        total += simplex_moment([P.vertices[i] for i in simplex], x, weight)
    return total


def measure_transform(P: Polytope, x, mu: MeasureSpec):
    """M_mu P(x) = (1/|x|) integral V_{n-1}(P cap H_{x,t}) dmu(t).

    The density part is M_density P(x) by Fubini; atoms c at t contribute
    c V_{n-1}(P cap H_{x,t})/|x| = c s(t) read off the exact section
    profile.  Continuous measures see 0 on lower-dimensional bodies; atoms
    there are distributional and rejected.
    """
    x = as_vector(x)
    if is_zero_vector(x):
        raise ValueError("measure transform needs x != o")
    if not P.is_full_dimensional:
        if mu.atoms:
            raise ValueError("atomic measure on a lower-dimensional body "
                             "is not function-valued")
        exact = mu.density is None or mu.density.is_exact
        return ZERO if exact else 0.0

    total = ZERO if (mu.density is None or mu.density.is_exact) else 0.0
    if mu.density is not None:
        total = moment_transform(P, x, mu.density)
    if mu.atoms:
        prof = section_profile(P, x)
        for t, c in mu.atoms:
            total += c * prof.section_value(t)
    return total


def laplace_transform(P: Polytope, x) -> float:
    """integral_P e^{-x.y} dy; defined for every x including x = o."""
    from .weights import exp_neg
    return moment_transform(P, x, exp_neg())
