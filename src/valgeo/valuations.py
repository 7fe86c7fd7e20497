"""The named operators: support compositions, Euler operators, derived bodies.

Everything here is a function-valued map P -> (x -> value).  Operators whose
weight rides the exact path return Fractions and satisfy their identities
with zero tolerance; float weights return floats.

The Euler operators are the signed face sums

    minus/plus/all:  sum over the face class of (-1)^dim F  zeta(h_F(x)),

where the classes are cut out by the sign of the support function on the
normal cone of each face.  Heights are collected exactly and zeta is applied
once per distinct height with its integer multiplicity, so alternating
cancellations happen in integer arithmetic even for float weights.

A term on the reflected body -Q (Q = P or [P, o]) is the same term on Q at
-x.  The faces of -Q are the -F, with the same dimensions and sign classes
(the facet offsets stay, the normals flip), and

    h_{-Q}(x) = h_Q(-x),    h_{-F}(x) = h_F(-x),
    -Q cap H_{x,t} = -(Q cap H_{-x,t}),

so supp_compose, euler_op and measure_transform on -Q at x equal the same
operator on Q at -x, exactly.  ``classified_evaluate`` therefore negates the
direction and never builds -Q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .geometry.linalg import (
    Vector, as_scalar, as_vector, format_scalar, json_shape, vdot, vneg, primitive,
)
from .geometry.polytope import (
    Polytope, cone_hull, convex_hull, volume, zero_vector,
)
from .slicing.moments import measure_transform, moment_transform
from .slicing.profile import section_at
from .slicing.weights import (
    MeasureSpec, WeightSpec, abs_power, log_abs,
    measure_from_dict, weight_from_dict,
)

ZERO = Fraction(0)

EULER_MINUS = "minus"
EULER_PLUS = "plus"
EULER_ALL = "all"


def supp_compose(P: Polytope, x, weight: WeightSpec):
    """zeta(h_P(x))."""
    return weight.value(P.support(as_vector(x)))


def euler_op(P: Polytope, x, weight: WeightSpec, which: str = EULER_ALL):
    """Signed face sum over the chosen class; P itself is included."""
    x = as_vector(x)
    lattice = P.face_lattice()
    if which == EULER_MINUS:
        faces = lattice.minus_class()
    elif which == EULER_PLUS:
        faces = lattice.plus_class()
    elif which == EULER_ALL:
        faces = lattice.faces
    else:
        raise ValueError(f"unknown face class {which!r}")
    heights = [vdot(x, v) for v in P.vertices]
    counts: dict[Fraction, int] = {}
    for f in faces:
        h = max(heights[i] for i in f.vertex_ids)
        counts[h] = counts.get(h, 0) + (-1) ** f.dim
    total = ZERO
    for h in sorted(counts):
        if counts[h]:
            total = total + counts[h] * weight.value(h)
    return total


# -- derived bodies -----------------------------------------------------------


def moment_body_support(P: Polytope, x, p) -> float:
    """h of the L_p moment body: (integral_P |x.y|^p dy)^{1/p}, p >= 1."""
    p = float(p)
    if p < 1:
        raise ValueError("moment body needs p >= 1")
    integral = moment_transform(P, x, _abs_power_weight(p))
    return float(integral) ** (1.0 / p)


def polar_moment_gauge(P: Polytope, x, p) -> float:
    """Gauge of the polar L_p moment body, p > -1, p != 0."""
    p = float(p)
    if not (p > -1 and p != 0):
        raise ValueError("polar moment body needs p > -1, p != 0")
    integral = moment_transform(P, x, _abs_power_weight(p))
    return float(integral) ** (1.0 / p)


def l0_polar_moment_gauge(P: Polytope, x) -> float:
    """Gauge of the polar L_0 moment body: V(P) log gauge = M_log P(x)."""
    if not P.is_full_dimensional:
        raise ValueError("the L_0 polar moment body needs a full-dimensional body")
    return math.exp(moment_transform(P, x, log_abs()) / float(volume(P)))


def intersection_body_gauge_inv(P: Polytope, x) -> Fraction:
    """1/gauge of the intersection body: (1/|x|) V_{n-1}(P cap H_{x,0}).

    The |x| normalization cancels inside the exact point section, so the
    value is an exact rational.
    """
    return section_at(P, x, 0)


def difference_body_support(P: Polytope, x, p) -> float:
    """(h_P(x)^p + h_{-P}(x)^p)^{1/p}: support of the L_p difference body."""
    p = float(p)
    if p < 1:
        raise ValueError("difference body needs p >= 1")
    x = as_vector(x)
    hp, hm = float(P.support(x)), float(P.support(vneg(x)))
    return (hp ** p + hm ** p) ** (1.0 / p)


def _abs_power_weight(p: float) -> WeightSpec:
    if float(p).is_integer() and p >= 1:
        return abs_power(int(p))
    return abs_power(p)


def laplace_body_value(P: Polytope, x) -> float:
    from .slicing.moments import laplace_transform
    return laplace_transform(P, x)


BODY_KINDS = {
    "moment": lambda P, x, p: moment_body_support(P, x, p),
    "polar_moment": lambda P, x, p: polar_moment_gauge(P, x, p),
    "l0_polar_moment": lambda P, x, p: l0_polar_moment_gauge(P, x),
    "intersection": lambda P, x, p: intersection_body_gauge_inv(P, x),
    "laplace": lambda P, x, p: laplace_body_value(P, x),
    "difference": lambda P, x, p: difference_body_support(P, x, p),
}
BODY_KINDS_WITH_P = frozenset({"moment", "polar_moment", "difference"})


@dataclass(frozen=True)
class StarBodyFn:
    """A derived body, represented by its support/gauge values."""
    body_kind: str
    base: Polytope
    p: float | None = None

    def __post_init__(self):
        if self.body_kind not in BODY_KINDS:
            raise ValueError(f"unknown body kind {self.body_kind!r}")

    def evaluate(self, x):
        return BODY_KINDS[self.body_kind](self.base, x, self.p)


def lp_minkowski_combine(h1, h2, p: float):
    """Support-function combinator of the L_p Minkowski sum: (h1^p + h2^p)^{1/p}."""
    if p < 1:
        raise ValueError("L_p Minkowski combination needs p >= 1")

    def combined(x):
        return (float(h1(x)) ** p + float(h2(x)) ** p) ** (1.0 / p)
    return combined


def lq_harmonic_combine(g1, g2, q: float):
    """Gauge combinator of the L_q harmonic sum: (g1^q + g2^q)^{1/q}."""
    if q == 0:
        raise ValueError("harmonic combination needs q != 0")

    def combined(x):
        return (float(g1(x)) ** q + float(g2(x)) ** q) ** (1.0 / q)
    return combined


# -- cone volume measure --------------------------------------------------------


def cone_volume_measure(L: Polytope) -> list[tuple[Vector, tuple[float, ...], Fraction]]:
    """Atoms (facet normal, unit normal, mass) of the cone volume measure.

    For a polytope the measure lives on the unit facet normals; the mass of
    facet i is the volume of the cone [o, facet_i], an exact rational when o
    is interior.
    """
    if not L.is_full_dimensional:
        raise ValueError("cone volume measure needs a full-dimensional body")
    if L.point_membership(zero_vector(L.n)) != "relative_interior":
        raise ValueError("cone volume measure here needs o in the interior of L")
    out = []
    for fid, (normal, _offset) in enumerate(L.rel_facets):
        members = L.facet_members[fid]
        pyramid = convex_hull([L.vertices[i] for i in members] + [zero_vector(L.n)])
        mass = volume(pyramid)
        nf = [float(c) for c in normal]
        norm = math.sqrt(sum(c * c for c in nf))
        out.append((primitive(normal), tuple(c / norm for c in nf), mass))
    return out


def cone_volume_integral(L: Polytope, g) -> float:
    """integral of g over the sphere against the cone volume measure of L."""
    return sum(float(mass) * float(g(unit))
               for _, unit, mass in cone_volume_measure(L))


# -- valuation expressions -------------------------------------------------------


TERM_OPS = ("supp_compose", "euler_minus", "euler_plus", "euler_all", "measure")
EULER_CLASS = {"euler_minus": EULER_MINUS, "euler_plus": EULER_PLUS,
               "euler_all": EULER_ALL}


@dataclass(frozen=True)
class Term:
    op: str
    weight: WeightSpec | None = None
    measure: MeasureSpec | None = None
    reflect_body: bool = False
    cone_hull: bool = False
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if self.op not in TERM_OPS:
            raise ValueError(f"unknown term op {self.op!r}")
        if self.op == "measure":
            if self.measure is None:
                raise ValueError("measure term needs a MeasureSpec")
        elif self.weight is None:
            raise ValueError(f"{self.op} term needs a WeightSpec")


@dataclass(frozen=True)
class ValuationExpr:
    """A sum of representation-formula terms, closed and serializable."""
    terms: tuple[Term, ...]

    def to_dict(self) -> dict:
        out = []
        for t in self.terms:
            d: dict = {"op": t.op}
            if t.weight is not None:
                d["weight"] = t.weight.to_dict()
            if t.measure is not None:
                d["measure"] = t.measure.to_dict()
            if t.reflect_body:
                d["reflect_body"] = True
            if t.cone_hull:
                d["cone_hull"] = True
            if t.coeff != 1:
                d["coeff"] = format_scalar(t.coeff)
            out.append(d)
        return {"terms": out}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def expr_from_dict(payload: dict) -> ValuationExpr:
    terms = []
    with json_shape("expr_from_dict"):
        for d in payload["terms"]:
            terms.append(Term(
                op=d["op"],
                weight=weight_from_dict(d["weight"]) if d.get("weight") else None,
                measure=measure_from_dict(d["measure"]) if d.get("measure") else None,
                reflect_body=bool(d.get("reflect_body", False)),
                cone_hull=bool(d.get("cone_hull", False)),
                coeff=as_scalar(d.get("coeff", 1)),
            ))
    return ValuationExpr(tuple(terms))


def expr_from_json(text: str) -> ValuationExpr:
    return expr_from_dict(json.loads(text))


def classified_evaluate(P: Polytope | None, x, expr: ValuationExpr):
    """Evaluate a representation-formula expression; Z(empty) = 0.

    A reflected term is its operator at -x (see the module docstring), and
    [P, o] comes from the hull cached on P.
    """
    if P is None:
        return ZERO
    x = as_vector(x)
    total = ZERO
    for term in expr.terms:
        body = cone_hull(P) if term.cone_hull else P
        y = vneg(x) if term.reflect_body else x
        if term.op == "supp_compose":
            val = supp_compose(body, y, term.weight)
        elif term.op == "measure":
            val = measure_transform(body, y, term.measure)
        else:
            val = euler_op(body, y, term.weight, EULER_CLASS[term.op])
        total = total + term.coeff * val
    return total


# -- representation-formula builders ----------------------------------------------


def continuous_origin_form(zeta: WeightSpec, mu: MeasureSpec) -> ValuationExpr:
    """zeta(h_P) + zeta(-h_{-P}) + M_mu P: the continuous representation
    form for origin-containing polytopes."""
    return ValuationExpr((
        Term("supp_compose", weight=zeta),
        Term("supp_compose", weight=replace(zeta, reflect=not zeta.reflect),
             reflect_body=True),
        Term("measure", measure=mu),
    ))


def regular_origin_form(zeta1: WeightSpec, zeta2: WeightSpec,
                                mu: MeasureSpec) -> ValuationExpr:
    """zeta1(h_P) + zeta1^R(h_{-P}) + euler-minus pair + M_mu P."""
    return ValuationExpr((
        Term("supp_compose", weight=zeta1),
        Term("supp_compose", weight=replace(zeta1, reflect=not zeta1.reflect),
             reflect_body=True),
        Term("euler_minus", weight=zeta2),
        Term("euler_minus", weight=replace(zeta2, reflect=not zeta2.reflect),
             reflect_body=True),
        Term("measure", measure=mu),
    ))


def general_polytope_form(zeta1: WeightSpec, zeta2: WeightSpec, mu: MeasureSpec,
                          zeta1_t: WeightSpec, zeta2_t: WeightSpec,
                          mu_t: MeasureSpec) -> ValuationExpr:
    """The widest representation form: plus/minus Euler pairs and a measure
    term, plus the same battery applied to [P, o]."""
    def battery(z1, z2, m, on_cone):
        return (
            Term("euler_plus", weight=z1, cone_hull=on_cone),
            Term("euler_plus", weight=replace(z1, reflect=not z1.reflect),
                 reflect_body=True, cone_hull=on_cone),
            Term("euler_minus", weight=z2, cone_hull=on_cone),
            Term("euler_minus", weight=replace(z2, reflect=not z2.reflect),
                 reflect_body=True, cone_hull=on_cone),
            Term("measure", measure=m, cone_hull=on_cone),
        )
    return ValuationExpr(battery(zeta1, zeta2, mu, False) +
                         battery(zeta1_t, zeta2_t, mu_t, True))


def continuous_polytope_form(zeta: WeightSpec, mu: MeasureSpec,
                             zeta_t: WeightSpec, mu_t: MeasureSpec) -> ValuationExpr:
    """The continuous form for arbitrary polytopes: the origin form for P
    plus the origin form for [P, o]."""
    def battery(z, m, on_cone):
        return (
            Term("supp_compose", weight=z, cone_hull=on_cone),
            Term("supp_compose", weight=replace(z, reflect=not z.reflect),
                 reflect_body=True, cone_hull=on_cone),
            Term("measure", measure=m, cone_hull=on_cone),
        )
    return ValuationExpr(battery(zeta, mu, False) + battery(zeta_t, mu_t, True))
