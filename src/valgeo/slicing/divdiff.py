"""The divided-difference kernel: one exact height form per body and direction.

The integrator rests on one identity: for a d-simplex S with vertex heights
a_0..a_d along x and any F whose d-th derivative is zeta (absolutely
continuous (d-1)-st derivative suffices),

    integral_S zeta(x . y) dy  =  d! vol(S) [a_0, ..., a_d]F .

``dd_weights`` returns the divided difference as an exact linear form
{(h, k): c}, meaning [a_0..a_d]F = sum c F^(k)(h) for every F.  It is the
residue of F(t) / prod (t - z_i)^{m_i} over the distinct nodes z_j of
multiplicities m_j, computed in integers.  Let L be the lcm of the node
denominators, H_i = L z_i, and for a node z = z_j let delta_i = H_j - H_i
(i != j), D = prod delta_i^{m_i} and Delta = prod delta_i.  Then

    c_{z,k} = L^{d-k} B_{m-1-k} / (D Delta^{m-1-k} k!),   m = m_j,

where B_r = Delta^r [s^r] prod_i (1 + s/delta_i)^{-m_i} are ints; a simple
node gets c = L^d / D.  Proof: the residue at z_j is
sum_k F^(k)(z_j)/k! [s^{m-1-k}] prod_i (s + z_j - z_i)^{-m_i}, and
z_j - z_i = delta_i / L turns the coefficient of s^r into
L^{d+1-m+r} [s^r] prod_i (delta_i + s)^{-m_i}.  Dividing the series by
(1 + s/delta) sends B_r to B_r - (Delta/delta) B_{r-1}, so the B_r stay
integral, and only one Fraction is made per (node, order).

``height_form`` sums d! vol(S) times these forms over a triangulation of P:
the vertex form of Lawrence (Math. Comp. 57, 1991) and
Baldoni-Berline-De Loera-Koeppe-Vergne (Math. Comp. 80, 2011).  The form is
built once per (body, direction) and cached on the body, read-only.  The
form at -x comes from the form at x by the -x rule

    (h, k, c)  ->  (-h, k, (-1)^{n+k} c).

Proof: if p interpolates G(t) = F(-t) at the a_i, p(-t) interpolates F at
the -a_i, so [-a]F = (-1)^d [a]G, and G^(k)(h) = (-1)^k F^(k)(-h).
Everything downstream evaluates this one form with a different F: exact
piecewise antiderivatives for exact moments, mpmath antiderivatives for
float moments, and the truncated power (h - t)_+^{n-1}/(n-1)! for section
profiles and point sections.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from ..geometry.linalg import vdot, vneg
from ..geometry.polytope import Polytope

FLOAT_DPS = 45


def _int_kernel(nodes, ints, L: int) -> dict[tuple[Fraction, int], Fraction]:
    """dd_weights for sorted exact nodes given as ints = L * nodes."""
    groups: list[list] = []   # [node, L * node, multiplicity]
    for z, H in zip(nodes, ints):
        if groups and groups[-1][1] == H:
            groups[-1][2] += 1
        else:
            groups.append([z, H, 1])
    d = len(nodes) - 1
    form = {}
    for z, H, m in groups:
        D = Delta = 1
        for _, Hi, mi in groups:
            if Hi != H:
                D *= (H - Hi) ** mi
                Delta *= H - Hi
        if m == 1:
            form[(z, 0)] = Fraction(L ** d, D)
            continue
        B = [1] + [0] * (m - 1)
        for _, Hi, mi in groups:
            if Hi != H:
                q = Delta // (H - Hi)
                for _ in range(mi):
                    for r in range(1, m):
                        B[r] -= q * B[r - 1]
        for k in range(m):
            r = m - 1 - k
            if B[r]:
                form[(z, k)] = Fraction(L ** (d - k) * B[r],
                                        D * Delta ** r * math.factorial(k))
    return form


def dd_weights(nodes) -> dict[tuple[Fraction, int], Fraction]:
    """[nodes]F as the exact form {(h, k): c} with [nodes]F = sum c F^(k)(h).

    nodes are exact and sorted, so equal nodes are adjacent.  Zero
    coefficients are left out; every node keeps its top order.
    """
    L = math.lcm(*(z.denominator for z in nodes))
    return _int_kernel(nodes, [z.numerator * (L // z.denominator) for z in nodes], L)


def height_form(P: Polytope, x) -> Mapping[tuple[Fraction, int], Fraction]:
    """sum over the triangulation of P of n! vol(S) dd_weights(heights of S).

    integral_P zeta(x . y) dy = sum c F^(k)(h) for every n-th antiderivative
    F of zeta; P must be full-dimensional and x a tuple.  The form is cached
    on P and returned read-only; the form at -x is derived from a cached one
    at x by the -x rule.
    """
    forms = P._height_forms
    form = forms.get(x)
    if form is None:
        mirror = forms.get(vneg(x))
        if mirror is not None:
            n = P.n
            form = {(-h, k): -c if (n + k) % 2 else c for (h, k), c in mirror.items()}
        else:
            form = _fresh_height_form(P, x)
        form = forms[x] = MappingProxyType(form)
    return form


def _fresh_height_form(P: Polytope, x) -> dict[tuple[Fraction, int], Fraction]:
    heights = [vdot(x, v) for v in P.vertices]
    L = math.lcm(*(h.denominator for h in heights))
    ints = [h.numerator * (L // h.denominator) for h in heights]
    form: dict[tuple[Fraction, int], Fraction] = {}
    for simplex, scale in zip(P.triangulation(), P.normalized_volumes()):
        order = sorted(simplex, key=ints.__getitem__)
        kernel = _int_kernel([heights[i] for i in order], [ints[i] for i in order], L)
        for key, c in kernel.items():
            form[key] = form.get(key, 0) + scale * c
    return form


def exact_value(form, F) -> Fraction:
    """sum c F^(k)(h) for an exact piecewise polynomial F."""
    return sum(c * F.deriv_value(h, k) for (h, k), c in form.items())


def _to_mpf(z):
    from mpmath import mpf
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


def float_value(form, f, levels: int):
    """sum c f(h, k) in mpmath, f(t, order) giving F^(order)(t) as an mpf.

    The whole sum runs in one precision block, at the digits the exact
    height gaps call for over ``levels`` divided-difference levels.
    """
    from mpmath import mp

    heights = sorted({h for h, _ in form})
    with mp.workdps(_working_dps(heights, levels)):
        return mp.fsum(_to_mpf(c) * f(h, k) for (h, k), c in form.items())


def divided_difference(nodes, antideriv):
    """Divided difference of an antiderivative spec over nodes.

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
