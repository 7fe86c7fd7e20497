"""Exact rational linear algebra on small dense matrices.

Everything here operates on tuples of ``fractions.Fraction`` and is used by
the geometric predicates (orientation, rank, affine hulls).  No floating
point enters any of these routines.  ``as_scalar``, ``as_vector`` and
``json_shape`` also serve the JSON readers.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to a Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # floats are dyadic rationals; the conversion is exact
        return Fraction(value)
    return Fraction(value)


def format_scalar(value: Fraction) -> str:
    """Serialize a Scalar as ``"p"`` or ``"p/q"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_vector(coords) -> Vector:
    return tuple(as_scalar(c) for c in coords)


@contextmanager
def json_shape(reader: str):
    """Turn a missing key or a wrong type met while reading JSON into one
    ValueError naming the reader."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{reader}: JSON of the wrong shape "
                         f"({type(exc).__name__}: {exc})") from exc


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vdot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(vdot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def primitive(v: Vector) -> Vector:
    """Scale a nonzero rational vector to coprime integers, direction kept."""
    denom_lcm = 1
    for x in v:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [x.numerator * (denom_lcm // x.denominator) for x in v]
    g = 0
    for k in ints:
        g = gcd(g, abs(k))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(Fraction(k // g) for k in ints)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(m) -> tuple[Matrix, tuple[int, ...]]:
    rows = [list(row) for row in m]
    rows, pivots = _rref(rows)
    reduced = tuple(tuple(row) for row in rows[: len(pivots)])
    return reduced, tuple(pivots)


def kernel_basis(m) -> list[Vector]:
    """Basis of {x : m x = 0}, exact."""
    if not m:
        return []
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc]
        basis.append(tuple(vec))
    return basis


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    rows = [list(row) for row in m]
    result = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result
