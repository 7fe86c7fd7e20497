"""Confluent Newton divided differences, exact and high-precision paths.

The integrator rests on one identity: for a d-simplex S with vertex heights
a_0..a_d along x and any F whose d-th derivative is zeta (absolutely
continuous (d-1)-st derivative suffices),

    integral_S zeta(x . y) dy  =  d! vol(S) [a_0, ..., a_d]F .

Repeated heights are routed through the confluent rule
[a,...,a] (k+1 copies) = F^(k)(a)/k!.  The same table is reused with
polynomial-valued entries to produce exact section-profile pieces.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

from . import poly as pp

FLOAT_DPS = 45


def dd_fraction(nodes, value_fn) -> Fraction:
    """Divided difference over rational nodes with Fraction values.

    nodes must be sorted so equal nodes are adjacent; value_fn(node, order)
    returns F^(order)(node) exactly.
    """
    m = len(nodes)
    cur = [value_fn(z, 0) for z in nodes]
    for level in range(1, m):
        nxt = []
        fact = Fraction(math.factorial(level))
        for i in range(m - level):
            if nodes[i + level] == nodes[i]:
                nxt.append(value_fn(nodes[i], level) / fact)
            else:
                nxt.append((cur[i + 1] - cur[i]) / (nodes[i + level] - nodes[i]))
        cur = nxt
    return cur[0]


def dd_poly(nodes, value_fn) -> pp.Poly:
    """Divided difference whose entries are polynomials over Q."""
    m = len(nodes)
    cur = [value_fn(z, 0) for z in nodes]
    for level in range(1, m):
        nxt = []
        inv_fact = Fraction(1, math.factorial(level))
        for i in range(m - level):
            if nodes[i + level] == nodes[i]:
                nxt.append(pp.pscale(inv_fact, value_fn(nodes[i], level)))
            else:
                step = Fraction(1) / (nodes[i + level] - nodes[i])
                nxt.append(pp.pscale(step, pp.psub(cur[i + 1], cur[i])))
        cur = nxt
    return cur[0]


def _to_mpf(z):
    if isinstance(z, Fraction):
        return mpf(z.numerator) / mpf(z.denominator)
    return mpf(z)


def _gap(a, b):
    """b - a as an mpf; Fraction nodes are subtracted exactly, then rounded."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return _to_mpf(b - a)
    return _to_mpf(b) - _to_mpf(a)


def dd_mpf(nodes, value_fn):
    """Divided difference over sorted nodes (Fractions or floats), mpf values."""
    m = len(nodes)
    cur = [value_fn(z, 0) for z in nodes]
    for level in range(1, m):
        nxt = []
        fact = mpf(math.factorial(level))
        for i in range(m - level):
            if nodes[i + level] == nodes[i]:
                nxt.append(value_fn(nodes[i], level) / fact)
            else:
                nxt.append((cur[i + 1] - cur[i]) / _gap(nodes[i], nodes[i + level]))
        cur = nxt
    return cur[0]


def merge_close_nodes(nodes, rel_tol: float = 1e-9) -> list:
    """Cluster float nodes closer than rel_tol * scale to a representative.

    Divided differences lose all accuracy over nearly coincident nodes; the
    merged clusters are handled by the confluent rule instead.
    """
    nodes = sorted(nodes)
    scale = max((abs(float(z)) for z in nodes), default=1.0) or 1.0
    tol = rel_tol * scale
    merged = []
    for z in nodes:
        if merged and abs(float(z) - float(merged[-1])) <= tol:
            merged.append(merged[-1])
        else:
            merged.append(z)
    return merged


def divided_difference(nodes, antideriv, exact: bool | None = None):
    """Newton divided difference of an antiderivative spec over nodes.

    ``antideriv`` is either an exact piecewise polynomial (has
    ``deriv_value``) or a callable (t, order) -> mpf.  Exact nodes use exact
    confluence; the float path first merges nearly equal nodes.
    """
    if exact is None:
        exact = hasattr(antideriv, "deriv_value")
    if exact:
        nodes = sorted(nodes)
        return dd_fraction(nodes, antideriv.deriv_value)
    nodes = merge_close_nodes(nodes)
    with mp.workdps(FLOAT_DPS):
        return dd_mpf(nodes, antideriv)
