"""Weighted moment transforms M_zeta P(x) = integral_P zeta(x.y) dy.

Every transform evaluates the exact height form {(h, k): c} of (P, x) from
``divdiff.height_form``: M_zeta P(x) = sum c F^(k)(h) for an n-th
antiderivative F of zeta.  Exact weights take F as an exact piecewise
polynomial.  Float weights (real exponents, exp, log) take one mpmath
antiderivative defined on all of R -- its (n-1)-st derivative is absolutely
continuous across height 0, so no simplex needs a cut -- and sum the form
in one precision block whose digits are read from the exact gaps between
the distinct heights, rounding to float once.

The same machinery evaluates the section-measure transform

    M_mu P(x) = (1/|x|) integral V_{n-1}(P cap H_{x,t}) dmu(t)

whose density part reduces to M_zeta by Fubini and whose atoms are exact
point sections s(t) of the same form.  Both maps are simple: they vanish on
lower-dimensional bodies, which the cut identity tests rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..geometry.linalg import as_vector, is_zero_vector, vdot, vneg
from ..geometry.polytope import Polytope, simplex_volume, volume
from .divdiff import _to_mpf, dd_weights, exact_value, float_value, height_form
from .profile import section_at
from .weights import MeasureSpec, WeightSpec

ZERO = Fraction(0)


# -- float-path antiderivatives ----------------------------------------------


def _harmonic(k: int):
    return _to_mpf(sum(Fraction(1, i) for i in range(1, k + 1)))


def _float_antideriv(weight: WeightSpec, m: int):
    """(t, order) -> F^(order)(t) where F is an m-th antiderivative of zeta.

    One F serves all of R: for every float kind F^(m-1) is absolutely
    continuous across 0, which is all the divided-difference identity needs.
    Height 0 is a node at most m times on a full-dimensional simplex, so
    every requested order has k = m - order >= 1 and F^(order)(0) = 0.
    """
    from mpmath import mpf, exp as mpexp, log as mplog, power as mppower

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


# -- simplex and polytope transforms -------------------------------------------


def simplex_moment(vertices, x, weight: WeightSpec):
    """integral over the simplex [vertices] of zeta(x.y) dy, full-dimensional.

    The form n! vol(S) dd_weights(heights), evaluated as in
    ``moment_transform``: exact rational for exact-path weights, else one
    mpmath sum over a single antiderivative, also when the heights
    straddle 0.
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
    scale = math.factorial(n) * vol
    nodes = sorted(vdot(x, v) for v in vertices)
    return _evaluate({key: scale * c for key, c in dd_weights(nodes).items()},
                     weight, n)


def _evaluate(form, weight: WeightSpec, n: int):
    """sum c F^(k)(h) for the n-th antiderivative F of the weight."""
    if weight.is_exact:
        return exact_value(form, weight.exact_pieces().antiderivative_order(n))
    return float(float_value(form, _float_antideriv(weight, n), n))


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

    return _evaluate(height_form(P, x), weight, P.n)


def measure_transform(P: Polytope, x, mu: MeasureSpec):
    """M_mu P(x) = (1/|x|) integral V_{n-1}(P cap H_{x,t}) dmu(t).

    The density part is M_density P(x) by Fubini; atoms c at t contribute
    c V_{n-1}(P cap H_{x,t})/|x| = c s(t), each an exact point section.
    Continuous measures see 0 on lower-dimensional bodies; atoms there are
    distributional and rejected.
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
    for t, c in mu.atoms:
        total += c * section_at(P, x, t)
    return total


def laplace_transform(P: Polytope, x) -> float:
    """integral_P e^{-x.y} dy; defined for every x including x = o."""
    from .weights import exp_neg
    return moment_transform(P, x, exp_neg())
