"""Exact hyperplane-section profiles of full-dimensional polytopes.

For P full-dimensional and x != 0, the profile stores the function

    s(t) = d/dt vol_n {y in P : x . y <= t},

an exact piecewise polynomial of degree <= n-1 with breakpoints at the
distinct vertex heights x . v.  The (n-1)-volume of the section satisfies
V_{n-1}(P cap H_{x,t}) = |x| s(t), so every |x| prefactor in the section
transforms cancels against s and the whole object stays rational.

s(t) is the moment of P for the point mass at height t, whose n-th
antiderivative is F(a) = (a - t)_+^{n-1}/(n-1)!, so it evaluates the exact
height form {(h, k): c} of (P, x) with F^(k)(h) = (h - t)_+^{n-1-k}/(n-1-k)!.
On the piece (b_i, b_{i+1}) exactly the heights h >= b_{i+1} contribute, so
one right-to-left sweep over the heights builds every piece.  A single
value s(t) needs no pieces: ``section_at`` sums the same terms at t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..geometry.linalg import Vector, as_vector, is_zero_vector, vdot
from ..geometry.polytope import Polytope
from . import poly as pp
from .divdiff import height_form
from .weights import WeightSpec, PiecewisePoly

ZERO = Fraction(0)


@dataclass(frozen=True)
class SectionProfile:
    direction: Vector
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[pp.Poly, ...]   # len(breakpoints) - 1 polynomials

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, t: Fraction) -> int | None:
        if t < self.breakpoints[0] or t > self.breakpoints[-1]:
            return None
        for k in range(len(self.pieces)):
            if t < self.breakpoints[k + 1]:
                return k
        return len(self.pieces) - 1

    def section_value(self, t) -> Fraction:
        """V_{n-1}(P cap H_{x,t}) / |x|, exactly, for every t; 0 outside the support.

        On the open support the profile is continuous, so any piece through t
        gives s(t).  At the two endpoints the section is the touching face,
        whose (n-1)-volume is the one-sided limit from inside the body: the
        first piece at b_0 and the last at b_max, which is what piece_index
        picks there.
        """
        t = Fraction(t)
        k = self.piece_index(t)
        return pp.peval(self.pieces[k], t) if k is not None else ZERO

    def mass(self) -> Fraction:
        """integral of s = vol(P), exactly."""
        total = ZERO
        for k, piece in enumerate(self.pieces):
            total += pp.pintegral(piece, self.breakpoints[k], self.breakpoints[k + 1])
        return total

    def integrate_against(self, weight: WeightSpec) -> Fraction:
        """Exact integral of s(t) zeta(t) dt for exact-path weights."""
        zeta = weight.exact_pieces()
        return integrate_pieces_product(self, zeta)


def _sectionable(P: Polytope, x) -> Vector:
    x = as_vector(x)
    if is_zero_vector(x):
        raise ValueError("direction must be nonzero")
    if not P.is_full_dimensional:
        raise ValueError("section profile of a lower-dimensional body is "
                         "a distribution, not a function")
    return x


def section_at(P: Polytope, x, t) -> Fraction:
    """s(t) = V_{n-1}(P cap H_{x,t}) / |x| at one point, without the profile.

    sum over h > t of c (h - t)^{n-1-k}/(n-1-k)!, read off the height form;
    at t = max height the heights h = t count too, which is the endpoint
    rule of ``SectionProfile.section_value``; 0 outside the support.
    """
    x = _sectionable(P, x)
    t = Fraction(t)
    form = height_form(P, x)
    top = max(h for h, _ in form)
    if t > top or t < min(h for h, _ in form):
        return ZERO
    deg = P.n - 1
    total = ZERO
    for (h, k), c in form.items():
        if h > t or h == top == t:
            total += c * (h - t) ** (deg - k) / math.factorial(deg - k)
    return total


def section_profile(P: Polytope, x) -> SectionProfile:
    x = _sectionable(P, x)
    breakpoints = tuple(sorted({vdot(x, v) for v in P.vertices}))
    if len(breakpoints) == 1:
        raise AssertionError("full-dimensional body with constant height")

    deg = P.n - 1
    terms: dict[Fraction, pp.Poly] = {}
    for (h, k), c in height_form(P, x).items():
        # c (h - t)^(deg - k) / (deg - k)!, a polynomial in t
        term = pp.pscale(c / math.factorial(deg - k), pp.ppow((h, Fraction(-1)), deg - k))
        terms[h] = pp.padd(terms.get(h, pp.PZERO), term)
    pieces = []
    total: pp.Poly = pp.PZERO
    for hi in reversed(breakpoints[1:]):
        total = pp.padd(total, terms.get(hi, pp.PZERO))
        pieces.append(total)
    return SectionProfile(tuple(x), breakpoints, tuple(reversed(pieces)))


def integrate_pieces_product(profile: SectionProfile, zeta: PiecewisePoly) -> Fraction:
    """Exact integral of s(t) * zeta(t) over the profile support."""
    cuts = sorted({*profile.breakpoints,
                   *(b for b in zeta.breakpoints
                     if profile.breakpoints[0] < b < profile.breakpoints[-1])})
    total = ZERO
    for lo, hi in zip(cuts, cuts[1:]):
        mid_num = (lo + hi) / 2
        k = profile.piece_index(mid_num)
        product = pp.pmul(profile.pieces[k], zeta.piece_at(mid_num))
        total += pp.pintegral(product, lo, hi)
    return total


def quadrature_against_profile(profile: SectionProfile, weight: WeightSpec,
                               tol: float = 1e-9) -> tuple[float, float]:
    """Adaptive quadrature of s(t) zeta(t) dt for float-path weights.

    Gauss-Kronrod adaptive integration per polynomial piece, with the
    integrable endpoint singularity of |t|^p (p < 0) removed by the
    substitution u = t^{1+p} so the transformed integrand is bounded.
    Each piece is held to the relative tolerance tol alone: an absolute
    bound of tol would let QUADPACK stop at its first estimate on pieces
    whose integral is small.  Returns (value, error_estimate); raises
    RuntimeError carrying the best estimate when the requested tolerance
    cannot be certified.
    """
    from scipy import integrate as sci

    if weight.kind == "tabulated":
        raise ValueError("tabulated weights cannot be integrated")

    cuts = sorted({*profile.breakpoints,
                   *((ZERO,) if profile.breakpoints[0] < 0 < profile.breakpoints[-1]
                     else ())})
    total, err_total = 0.0, 0.0
    p = weight.p
    singular = weight.kind in ("abs_power", "signed_power") and \
        not weight.is_exact and float(p) < 0

    for lo_f, hi_f in zip(cuts, cuts[1:]):
        k = profile.piece_index((lo_f + hi_f) / 2)
        piece = tuple(float(c) for c in profile.pieces[k])

        def s_val(t, _piece=piece):
            acc = 0.0
            for c in reversed(_piece):
                acc = acc * t + c
            return acc

        lo, hi = float(lo_f), float(hi_f)
        if singular and lo_f == 0:
            # int_0^h s(t) zeta(t) t^p dt with u = t^(1+p)
            q = 1.0 + float(p)
            zeta_extra = _nonsingular_factor(weight, +1)
            val, err = sci.quad(
                lambda u: s_val(u ** (1 / q)) * zeta_extra(u ** (1 / q)) / q,
                0.0, hi ** q, epsabs=0.0, epsrel=tol, limit=200)
        elif singular and hi_f == 0:
            q = 1.0 + float(p)
            zeta_extra = _nonsingular_factor(weight, -1)
            val, err = sci.quad(
                lambda u: s_val(-(u ** (1 / q))) * zeta_extra(-(u ** (1 / q))) / q,
                0.0, (-lo) ** q, epsabs=0.0, epsrel=tol, limit=200)
        else:
            val, err = sci.quad(lambda t: s_val(t) * float(weight.value(Fraction(t))),
                                lo, hi, epsabs=0.0, epsrel=tol, limit=200)
        total += val
        err_total += err
    if err_total > max(tol, tol * abs(total)) * 50:
        raise RuntimeError(
            f"quadrature tolerance {tol} unachievable: best estimate "
            f"{total!r} with error {err_total!r}")
    return total, err_total


def _nonsingular_factor(weight: WeightSpec, sign: int):
    """zeta(t) / |t|^p for signed/abs power weights: the bounded remainder."""
    if weight.kind == "abs_power":
        return lambda t: 1.0
    # signed_power: zero on the wrong side
    want_pos = (weight.side == "pos") != weight.reflect
    if (sign > 0) == want_pos:
        return lambda t: 1.0
    return lambda t: 0.0
