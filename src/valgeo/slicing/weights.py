"""Weight functions zeta and measures mu, as closed symbolic specs.

A ``WeightSpec`` names one of the weight families the transforms accept:

=============  =================================  =====================
kind           zeta(t)                            evaluation path
=============  =================================  =====================
constant       c                                  exact
power          t^p, integer p >= 0                exact
poly           rational-coefficient polynomial    exact
indicator      1 on [a, b], else 0                exact
signed_power   t^q for t > 0, else 0 (side pos;   exact for integer
               mirrored for side neg)             q >= 0, float else
abs_power      |t|^p, p > -1, p != 0              exact for integer p,
                                                  float otherwise
exp_neg        e^{-t}                             float (high precision)
log_abs        log|t|, with zeta(0) = 0           float (high precision)
tabulated      table lookup with default          exact, pointwise only
=============  =================================  =====================

Each spec optionally carries ``reflect=True`` which turns zeta into its
reflection zeta(-t).  Specs are closed (no user callables), so every
expression built from them serializes and replays.

A ``MeasureSpec`` is a density (a WeightSpec or None) plus finitely many
atoms.  Signed continuous Radon measures with a singular-continuous part
have no finite description here and are out of reach by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..geometry.linalg import as_scalar, format_scalar, json_shape
from . import poly as pp

EXACT_KINDS = {"constant", "power", "poly", "indicator", "signed_power", "abs_power"}
FLOAT_KINDS = {"abs_power", "signed_power", "exp_neg", "log_abs"}
ALL_KINDS = EXACT_KINDS | FLOAT_KINDS | {"tabulated"}


def _is_int(x) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


@dataclass(frozen=True)
class WeightSpec:
    kind: str
    p: object = None          # exponent: int (exact) or float
    c: Fraction | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    coeffs: tuple = ()
    side: str = "pos"
    table: tuple = ()
    default: Fraction | None = None
    reflect: bool = False

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    # -- classification ---------------------------------------------------

    @property
    def is_exact(self) -> bool:
        if self.kind in ("constant", "power", "poly", "indicator", "tabulated"):
            return True
        if self.kind in ("signed_power", "abs_power"):
            return _is_int(self.p) and self.p >= 0
        return False

    @property
    def integrable(self) -> bool:
        return self.kind != "tabulated"

    @property
    def smooth(self) -> bool:
        """Smooth on all of R (safe to evaluate transforms at x = o)."""
        return self.kind in ("constant", "power", "poly", "exp_neg")

    # -- pointwise evaluation ----------------------------------------------

    def value(self, t):
        """zeta(t); Fraction on the exact path, float otherwise."""
        t = as_scalar(t)
        if self.reflect:
            t = -t
        return self._base_value(t)

    def _base_value(self, t: Fraction):
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            return t ** int(self.p)
        if self.kind == "poly":
            return pp.peval(self.coeffs, t)
        if self.kind == "indicator":
            return Fraction(1) if self.a <= t <= self.b else Fraction(0)
        if self.kind == "tabulated":
            return dict(self.table).get(t, self.default)
        if self.kind == "signed_power":
            s = t if self.side == "pos" else -t
            if s <= 0:
                return Fraction(0) if self.is_exact else 0.0
            if self.is_exact:
                return s ** int(self.p)
            return float(s) ** float(self.p)
        if self.kind == "abs_power":
            if t == 0:
                if self.p > 0:
                    return Fraction(0) if self.is_exact else 0.0
                return math.inf
            if self.is_exact:
                return abs(t) ** int(self.p)
            return abs(float(t)) ** float(self.p)
        if self.kind == "exp_neg":
            return math.exp(-float(t))
        if self.kind == "log_abs":
            return 0.0 if t == 0 else math.log(abs(float(t)))
        raise AssertionError(self.kind)

    # -- exact piecewise form ------------------------------------------------

    def exact_pieces(self) -> "PiecewisePoly":
        """Piecewise-polynomial form of an exact, integrable weight."""
        if not (self.is_exact and self.integrable):
            raise ValueError(f"{self.kind} has no exact piecewise form")
        pw = self._base_pieces()
        return pw.reflected() if self.reflect else pw

    def _base_pieces(self) -> "PiecewisePoly":
        one = (Fraction(1),)
        if self.kind == "constant":
            return PiecewisePoly((), ((self.c,) if self.c else (),))
        if self.kind == "power":
            k = int(self.p)
            return PiecewisePoly((), (tuple(Fraction(0) for _ in range(k)) + one,))
        if self.kind == "poly":
            return PiecewisePoly((), (pp.normalize(self.coeffs),))
        if self.kind == "indicator":
            if self.a == self.b:
                return PiecewisePoly((self.a,), (pp.PZERO, pp.PZERO))
            return PiecewisePoly((self.a, self.b), (pp.PZERO, one, pp.PZERO),
                                 point_values={self.b: Fraction(1)})
        if self.kind == "signed_power":
            q = int(self.p)
            mono = tuple(Fraction(0) for _ in range(q)) + one
            if self.side == "pos":
                return PiecewisePoly((Fraction(0),), (pp.PZERO, mono),
                                     point_values={Fraction(0): Fraction(0)})
            return PiecewisePoly((Fraction(0),), (pp.preflect(mono), pp.PZERO),
                                 point_values={Fraction(0): Fraction(0)})
        if self.kind == "abs_power":
            k = int(self.p)
            mono = tuple(Fraction(0) for _ in range(k)) + one
            return PiecewisePoly((Fraction(0),), (pp.preflect(mono), mono))
        raise AssertionError(self.kind)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "constant":
            out["c"] = format_scalar(self.c)
        elif self.kind in ("power", "abs_power", "signed_power"):
            out["p" if self.kind != "signed_power" else "q"] = (
                int(self.p) if _is_int(self.p) else float(self.p))
            if self.kind == "signed_power":
                out["side"] = self.side
        elif self.kind == "poly":
            out["coeffs"] = [format_scalar(c) for c in self.coeffs]
        elif self.kind == "indicator":
            out["a"], out["b"] = format_scalar(self.a), format_scalar(self.b)
        elif self.kind == "tabulated":
            out["points"] = [[format_scalar(t), format_scalar(v)] for t, v in self.table]
            out["default"] = format_scalar(self.default)
        if self.reflect:
            out["reflect"] = True
        return out


def _wrap_number(x):
    if isinstance(x, float) and not x.is_integer():
        return x
    return as_scalar(x)


def constant(c=1, reflect=False) -> WeightSpec:
    return _make("constant", c=as_scalar(c), reflect=reflect)


def power(p: int, reflect=False) -> WeightSpec:
    if not _is_int(p) or p < 0:
        raise ValueError("power weight needs integer p >= 0")
    return _make("power", p=int(p), reflect=reflect)


def polynomial(coeffs, reflect=False) -> WeightSpec:
    return _make("poly", coeffs=tuple(as_scalar(c) for c in coeffs), reflect=reflect)


def indicator(a, b, reflect=False) -> WeightSpec:
    a, b = as_scalar(a), as_scalar(b)
    if a > b:
        raise ValueError("indicator needs a <= b")
    return _make("indicator", a=a, b=b, reflect=reflect)


def signed_power(q, side="pos", reflect=False) -> WeightSpec:
    if side not in ("pos", "neg"):
        raise ValueError("side must be 'pos' or 'neg'")
    q = _wrap_number(q)
    if _is_int(q):
        if q < 0:
            raise ValueError("integer signed_power needs q >= 0")
        q = int(q)
    elif not q > -1:
        raise ValueError("signed_power needs q > -1 for integrability")
    return _make("signed_power", p=q, side=side, reflect=reflect)


def abs_power(p, reflect=False) -> WeightSpec:
    p = _wrap_number(p)
    if _is_int(p):
        p = int(p)
        if p <= 0:
            raise ValueError("integer abs_power needs p >= 1")
    elif not p > -1:
        raise ValueError("abs_power needs p > -1 for local integrability")
    return _make("abs_power", p=p, reflect=reflect)


def exp_neg(reflect=False) -> WeightSpec:
    return _make("exp_neg", reflect=reflect)


def log_abs(reflect=False) -> WeightSpec:
    return _make("log_abs", reflect=reflect)


def tabulated(points, default=0, reflect=False) -> WeightSpec:
    table = tuple(sorted((as_scalar(t), as_scalar(v)) for t, v in points))
    return _make("tabulated", table=table, default=as_scalar(default), reflect=reflect)


def _make(kind, **kw) -> WeightSpec:
    return WeightSpec(kind=kind, **kw)


def weight_from_dict(payload: dict) -> WeightSpec:
    with json_shape("weight_from_dict"):
        kind = payload["kind"]
        reflect = bool(payload.get("reflect", False))
        if kind == "constant":
            return constant(payload.get("c", 1), reflect)
        if kind == "power":
            return power(payload["p"], reflect)
        if kind == "poly":
            return polynomial(payload["coeffs"], reflect)
        if kind == "indicator":
            return indicator(payload["a"], payload["b"], reflect)
        if kind == "signed_power":
            return signed_power(payload.get("q", payload.get("p")),
                                payload.get("side", "pos"), reflect)
        if kind == "abs_power":
            return abs_power(payload["p"], reflect)
        if kind == "exp_neg":
            return exp_neg(reflect)
        if kind == "log_abs":
            return log_abs(reflect)
        if kind == "tabulated":
            return tabulated(payload["points"], payload.get("default", 0), reflect)
        raise ValueError(f"unknown weight kind {kind!r}")


class PiecewisePoly:
    """Piecewise polynomial with rational breakpoints.

    ``pieces[i]`` rules on the i-th interval of the partition
    (-inf, b_0), [b_0, b_1), ..., [b_{k-1}, inf); ``point_values`` overrides
    single points for pointwise evaluation (integration ignores them).
    """

    def __init__(self, breakpoints, pieces, point_values=None):
        self.breakpoints = tuple(breakpoints)
        self.pieces = tuple(pieces)
        assert len(self.pieces) == len(self.breakpoints) + 1
        self.point_values = dict(point_values or {})

    def piece_at(self, t: Fraction) -> pp.Poly:
        idx = 0
        for b in self.breakpoints:
            if t >= b:
                idx += 1
            else:
                break
        return self.pieces[idx]

    def value(self, t: Fraction) -> Fraction:
        if t in self.point_values:
            return self.point_values[t]
        return pp.peval(self.piece_at(t), t)

    def deriv_value(self, t: Fraction, order: int) -> Fraction:
        return pp.peval(pp.pderiv(self.piece_at(t), order), t)

    def reflected(self) -> "PiecewisePoly":
        bps = tuple(-b for b in reversed(self.breakpoints))
        pieces = tuple(pp.preflect(q) for q in reversed(self.pieces))
        pvals = {-t: v for t, v in self.point_values.items()}
        # interval convention flips from [b, .) to (., -b]; fix the boundary
        # points so pointwise values are preserved exactly
        for b in self.breakpoints:
            if -b not in pvals:
                pvals[-b] = pp.peval(self.piece_at(b), b)
        return PiecewisePoly(bps, pieces, pvals)

    def antiderivative(self) -> "PiecewisePoly":
        """The continuous antiderivative vanishing at the leftmost breakpoint."""
        if not self.breakpoints:
            return PiecewisePoly((), (pp.pantideriv(self.pieces[0]),))
        antis = [pp.pantideriv(q) for q in self.pieces]
        adjusted = []
        shift = -pp.peval(antis[0], self.breakpoints[0])
        adjusted.append(pp.padd(antis[0], (shift,)) if shift else antis[0])
        for i, b in enumerate(self.breakpoints):
            left_val = pp.peval(adjusted[i], b)
            shift = left_val - pp.peval(antis[i + 1], b)
            adjusted.append(pp.padd(antis[i + 1], (shift,)) if shift else antis[i + 1])
        return PiecewisePoly(self.breakpoints, tuple(adjusted))

    def antiderivative_order(self, order: int) -> "PiecewisePoly":
        out = self
        for _ in range(order):
            out = out.antiderivative()
        return out


@dataclass(frozen=True)
class MeasureSpec:
    density: WeightSpec | None
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    @property
    def is_continuous(self) -> bool:
        return not self.atoms

    def to_dict(self) -> dict:
        return {
            "density": self.density.to_dict() if self.density else None,
            "atoms": [[format_scalar(t), format_scalar(c)] for t, c in self.atoms],
        }


def measure(density: WeightSpec | None = None, atoms=()) -> MeasureSpec:
    atoms = tuple(sorted((as_scalar(t), as_scalar(c)) for t, c in atoms))
    if density is not None and not density.integrable:
        raise ValueError("measure density must be integrable")
    return MeasureSpec(density, atoms)


def measure_from_dict(payload: dict) -> MeasureSpec:
    with json_shape("measure_from_dict"):
        density = payload.get("density")
        return measure(weight_from_dict(density) if density else None,
                       payload.get("atoms", ()))


def lebesgue() -> MeasureSpec:
    return measure(constant(1))


def dirac(location, mass=1) -> MeasureSpec:
    return measure(None, [(location, mass)])
