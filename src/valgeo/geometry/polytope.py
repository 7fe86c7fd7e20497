"""Exact rational polytopes: hulls, supports, cuts, volumes.

A ``Polytope`` is stored by its irredundant vertex set together with an
affine chart of its hull and the facet inequalities *inside that chart*.
For a full-dimensional body the chart is the identity and the facets are
ordinary ambient halfspaces.  All predicates are exact; nothing here ever
rounds.

The chart maps a point of the affine hull to its coordinates on the pivot
axes of the hull (the lexicographically smallest coordinate subset on which
the hull projects bijectively).  Lower-dimensional volumes are Lebesgue
volumes in that chart; see :func:`volume`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .linalg import (
    Matrix,
    Scalar,
    Vector,
    ZERO,
    ONE,
    as_scalar,
    as_vector,
    det,
    format_scalar,
    is_zero_vector,
    json_shape,
    kernel_basis,
    mat_vec,
    primitive,
    rref,
    unit_vector,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
    zero_vector,
)

MAX_DIM = 6
DEFAULT_MAX_VERTICES = 64

OUTSIDE = "outside"
BOUNDARY = "boundary"
RELATIVE_INTERIOR = "relative_interior"


@dataclass(frozen=True)
class AffineChart:
    """Coordinates on the affine hull of a point set.

    ``pivots`` are the ambient coordinate axes that parametrize the hull;
    ``project`` reads those coordinates off a point, ``lift`` reconstructs
    the ambient point.  ``basis`` rows span the direction space lin(P) and
    satisfy project(basis[a]) = e_a.
    """

    n: int
    base: Vector
    pivots: tuple[int, ...]
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def project(self, point: Vector) -> Vector:
        return tuple(point[j] for j in self.pivots)

    def lift(self, rel: Vector) -> Vector:
        point = self.base
        for a, coord in enumerate(rel):
            t = coord - self.base[self.pivots[a]]
            if t != 0:
                point = vadd(point, vscale(t, self.basis[a]))
        return point

    def contains(self, point: Vector) -> bool:
        return self.lift(self.project(point)) == point


def affine_chart(points: list[Vector]) -> AffineChart:
    n = len(points[0])
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    if diffs:
        reduced, pivots = rref(diffs)
    else:
        reduced, pivots = (), ()
    return AffineChart(n=n, base=base, pivots=tuple(pivots), basis=tuple(reduced))


@dataclass
class _WorkFacet:
    normal: Vector  # outward, primitive integer entries
    offset: Scalar
    members: set[int]


def _hull_full_dim(points: list[Vector]) -> list[_WorkFacet]:
    """Beneath-beyond hull of full-dimensional points in their own space.

    Points are added in order.  After the first simplex the loop is pure
    incidence code, resting on one invariant: a facet's ``members`` are all
    kept points on its hyperplane (a point inside the hull when it comes is
    dropped, and the hull is the hull of the kept points).  For the point p
    and a facet f write s_f = u_f.p - c_f; take f visible (s_f > 0), g
    invisible (s_g < 0) and R = f.members & g.members.

    - Ridge: R spans a ridge iff |R| >= k - 1 and no third facet's members
      contain R.  A ridge lies in exactly two facets; a nonempty face of
      dimension <= k - 3 lies in at least three.
    - New facet: u = primitive(s_f u_g - s_g u_f), c = u.p.  It vanishes on
      R and at p; as a positive combination of two outward normals it is
      <= c on the old hull, with equality exactly on f and g, so it points
      outward and meets the old hull in the ridge alone.
    - Members: R | {p}, as the kept points on that ridge are R.
    """
    k = len(points[0])
    # first simplex: greedily grow an affinely independent subset
    simplex = [0]
    for idx in range(1, len(points)):
        diffs = [vsub(points[i], points[0]) for i in simplex[1:] + [idx]]
        if len(rref(diffs)[1]) == len(simplex):
            simplex.append(idx)
            if len(simplex) == k + 1:
                break
    assert len(simplex) == k + 1

    facets = []
    for drop in simplex:
        members = [i for i in simplex if i != drop]
        base = points[members[0]]
        diffs = [vsub(points[i], base) for i in members[1:]] or [zero_vector(k)]
        normal = primitive(kernel_basis(diffs)[0])
        offset = vdot(normal, base)
        if vdot(normal, points[drop]) > offset:
            normal, offset = vneg(normal), -offset
        facets.append(_WorkFacet(normal, offset, set(members)))

    for idx, p in enumerate(points):
        if idx in simplex:
            continue
        sides = [vdot(f.normal, p) - f.offset for f in facets]
        if all(s <= 0 for s in sides):
            continue  # p inside the current hull (possibly on its boundary)
        # horizon ridges are shared with strictly invisible facets; ridges
        # shared with coplanar facets are covered by extending those
        new_facets = []
        for f, s_f in zip(facets, sides):
            if s_f <= 0:
                continue
            for g, s_g in zip(facets, sides):
                if s_g >= 0:
                    continue
                ridge = f.members & g.members
                if len(ridge) < k - 1 or any(
                        ridge <= h.members for h in facets if h is not f and h is not g):
                    continue
                normal = primitive(vsub(vscale(s_f, g.normal), vscale(s_g, f.normal)))
                new_facets.append(_WorkFacet(normal, vdot(normal, p), ridge | {idx}))
        for f, s in zip(facets, sides):
            if s == 0:
                f.members.add(idx)
        facets = [f for f, s in zip(facets, sides) if s <= 0] + new_facets
    return facets


class Polytope:
    """Convex hull of finitely many rational points, with exact structure.

    Construct through :func:`convex_hull`.  Instances are immutable in
    practice (nothing mutates them after construction) and safe to share.
    """

    def __init__(self, n: int, vertices: tuple[Vector, ...], chart: AffineChart,
                 rel_facets: tuple[tuple[Vector, Scalar], ...],
                 facet_members: tuple[tuple[int, ...], ...]):
        self.n = n
        self.vertices = vertices
        self.chart = chart
        self.rel_facets = rel_facets  # inequalities u.z <= c in chart coordinates
        self.facet_members = facet_members  # sorted vertex ids on each facet
        self._lattice = None
        self._triangulation = None
        self._normalized_volumes = None
        self._cone_hull = None
        self._height_forms = {}  # direction -> height form, see slicing.divdiff

    # -- basic descriptors -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.n

    def rel_vertices(self) -> list[Vector]:
        return [self.chart.project(v) for v in self.vertices]

    def facets_ambient(self) -> list[tuple[Vector, Scalar]]:
        """Facet inequalities as ambient halfspaces (valid within aff P)."""
        out = []
        for rel_normal, offset in self.rel_facets:
            ambient = [ZERO] * self.n
            for a, j in enumerate(self.chart.pivots):
                ambient[j] = rel_normal[a]
            out.append((tuple(ambient), offset))
        return out

    def __repr__(self):
        return f"Polytope(dim={self.dim}, n={self.n}, vertices={len(self.vertices)})"

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.n == other.n \
            and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.n, self.vertices))

    # -- support / gauge ---------------------------------------------------

    def support(self, x: Vector) -> Scalar:
        return max(vdot(x, v) for v in self.vertices)

    def gauge(self, x: Vector) -> Scalar | float:
        """min{lambda > 0 : x in lambda P}; +inf outside the cone of P."""
        if self.point_membership(zero_vector(self.n)) == OUTSIDE:
            raise ValueError("gauge requires the origin to lie in P")
        if all(c == 0 for c in x):
            return ZERO
        if not self.chart.contains(x):  # o is in aff P, so this is x in lin(P)
            return math.inf
        rel = self.chart.project(x)
        bound = ZERO
        for normal, offset in self.rel_facets:
            num = vdot(normal, rel)
            if offset == 0:
                if num > 0:
                    return math.inf
            elif num / offset > bound:
                bound = num / offset
        return bound

    # -- membership ----------------------------------------------------------

    def point_membership(self, y: Vector) -> str:
        if len(y) != self.n:
            raise ValueError("dimension mismatch")
        if not self.chart.contains(y):
            return OUTSIDE
        rel = self.chart.project(y)
        on_boundary = False
        for normal, offset in self.rel_facets:
            s = vdot(normal, rel)
            if s > offset:
                return OUTSIDE
            if s == offset:
                on_boundary = True
        return BOUNDARY if on_boundary else RELATIVE_INTERIOR

    def contains(self, y: Vector) -> bool:
        return self.point_membership(y) != OUTSIDE

    # -- caches --------------------------------------------------------------

    def face_lattice(self):
        if self._lattice is None:
            from .faces import build_face_lattice
            self._lattice = build_face_lattice(self)
        return self._lattice

    def triangulation(self) -> list[tuple[int, ...]]:
        """Pulling triangulation; simplices as tuples of vertex indices."""
        if self._triangulation is None:
            self._triangulation = _pulling_triangulation(self)
        return self._triangulation

    def normalized_volumes(self) -> list[Scalar]:
        """d! vol(S) in the chart for each simplex S of triangulation(), d = dim P."""
        if self._normalized_volumes is None:
            rel = self.rel_vertices()
            fact = math.factorial(self.dim)
            self._normalized_volumes = [fact * simplex_volume([rel[i] for i in simplex])
                                        for simplex in self.triangulation()]
        return self._normalized_volumes


def convex_hull(points, max_vertices: int = DEFAULT_MAX_VERTICES) -> Polytope:
    """Exact convex hull of rational points (dimension at most 6).

    The vertex list of the result is irredundant; facets are computed inside
    the affine hull when the input is lower-dimensional.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have mismatched dimensions")
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
    pts = sorted(set(pts))
    if len(pts) > max_vertices:
        raise ValueError(f"too many points ({len(pts)} > {max_vertices})")

    chart = affine_chart(pts)
    k = chart.dim
    if k == 0:
        return Polytope(n, (pts[0],), chart, (), ())

    rel_pts = [chart.project(p) for p in pts]
    facets = _hull_full_dim(rel_pts)

    # prune facet member lists down to true vertices: a point is a vertex
    # iff the members of the facets through it meet in that point alone
    meets: dict[int, set[int]] = {}
    for f in facets:
        for i in f.members:
            meets[i] = meets[i] & f.members if i in meets else set(f.members)
    vertex_ids = sorted(i for i, meet in meets.items() if len(meet) == 1)
    keep = set(vertex_ids)
    vertices = tuple(pts[i] for i in vertex_ids)

    remap = {old: new for new, old in enumerate(vertex_ids)}
    rel_facets = []
    for f in facets:
        rel_facets.append((f.normal, f.offset, tuple(sorted(remap[i] for i in f.members & keep))))
    rel_facets.sort()
    # pts[0] is the lex-min point, hence always a vertex, so the chart of the
    # pruned vertex list coincides with the chart computed above
    return Polytope(n, vertices, chart, tuple((u, c) for u, c, _ in rel_facets),
                    tuple(m for _, _, m in rel_facets))


# -- surgery ---------------------------------------------------------------


def scale(P: Polytope, alpha) -> Polytope:
    alpha = as_scalar(alpha)
    if alpha <= 0:
        raise ValueError("scale factor must be positive")
    return convex_hull([vscale(alpha, v) for v in P.vertices])


def translate(P: Polytope, t) -> Polytope:
    t = as_vector(t)
    return convex_hull([vadd(v, t) for v in P.vertices])


def reflect(P: Polytope) -> Polytope:
    return convex_hull([vneg(v) for v in P.vertices])


def cone_hull(P: Polytope) -> Polytope:
    """[P, o]: the convex hull of P and the origin, built once per body."""
    if P._cone_hull is None:
        P._cone_hull = convex_hull(list(P.vertices) + [zero_vector(P.n)])
    return P._cone_hull


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.n != Q.n:
        raise ValueError("ambient dimensions differ")
    return convex_hull([vadd(v, w) for v in P.vertices for w in Q.vertices],
                       max_vertices=len(P.vertices) * len(Q.vertices) + 1)


def apply_linear(P: Polytope, m: Matrix) -> Polytope:
    m = tuple(as_vector(row) for row in m)
    if det(m) == 0:
        raise ValueError("linear map must be nonsingular")
    return convex_hull([mat_vec(m, v) for v in P.vertices])


def cut(P: Polytope, normal, offset) -> tuple[Polytope | None, Polytope | None, Polytope | None]:
    """Split P by the hyperplane {y : normal.y = offset}.

    Returns (P cap H^-, P cap H^+, P cap H); empty pieces come back as None.
    The pieces' vertices are original vertices on the correct side plus the
    exact edge/hyperplane intersection points.
    """
    x = as_vector(normal)
    t = as_scalar(offset)
    if is_zero_vector(x):
        raise ValueError("cutting hyperplane needs a nonzero normal")
    sides = [vdot(x, v) - t for v in P.vertices]
    minus = [v for v, s in zip(P.vertices, sides) if s <= 0]
    plus = [v for v, s in zip(P.vertices, sides) if s >= 0]
    on = [v for v, s in zip(P.vertices, sides) if s == 0]

    crossings: list[Vector] = []
    if any(s < 0 for s in sides) and any(s > 0 for s in sides):
        for edge in P.face_lattice().faces_of_dim(1):
            i, j = edge.vertex_ids[0], edge.vertex_ids[-1]
            si, sj = sides[i], sides[j]
            if (si < 0 < sj) or (sj < 0 < si):
                lam = si / (si - sj)
                w = vadd(P.vertices[i], vscale(lam, vsub(P.vertices[j], P.vertices[i])))
                crossings.append(w)

    def hull_or_none(verts):
        return convex_hull(verts, max_vertices=max(DEFAULT_MAX_VERTICES, len(verts))) if verts else None

    piece_minus = hull_or_none(minus + crossings)
    piece_plus = hull_or_none(plus + crossings)
    piece_mid = hull_or_none(on + crossings)
    return piece_minus, piece_plus, piece_mid


# -- volume / triangulation --------------------------------------------------


def _pulling_triangulation(P: Polytope) -> list[tuple[int, ...]]:
    lattice = P.face_lattice()
    simplices = _pull(P, lattice, lattice.top(), {})
    # drop degenerate cones (apex inside the child's affine hull cannot occur
    # for pulling from a vertex, but keep the guard cheap and explicit)
    return [s for s in simplices if len(s) == P.dim + 1]


def _pull(P: Polytope, lattice, face, cache) -> list[tuple[int, ...]]:
    """Pulling triangulation of one face, memoized in cache by vertex ids.

    A module-level function, not a recursive closure: a closure that calls
    itself is a reference cycle that would keep P and its caches alive.
    """
    key = face.vertex_ids
    if key in cache:
        return cache[key]
    if face.dim == 0:
        out = [face.vertex_ids]
    else:
        rel_pts = {i: P.chart.project(P.vertices[i]) for i in face.vertex_ids}
        apex = min(face.vertex_ids, key=lambda i: rel_pts[i])
        out = []
        for child in lattice.children(face):
            if apex in child.vertex_ids:
                continue
            for simplex in _pull(P, lattice, child, cache):
                out.append(tuple(sorted((apex,) + simplex)))
    cache[key] = out
    return out


def triangulate(P: Polytope) -> list[tuple[Vector, ...]]:
    """Pulling triangulation as explicit simplices (tuples of vertices)."""
    return [tuple(P.vertices[i] for i in s) for s in P.triangulation()]


def simplex_volume(rel_points: list[Vector]) -> Scalar:
    base = rel_points[0]
    rows = [vsub(p, base) for p in rel_points[1:]]
    if not rows:
        return ONE
    d = det(tuple(rows))
    k = len(rows)
    return abs(d) / math.factorial(k)


def volume(P: Polytope) -> Scalar:
    """Exact volume of P inside its chart.

    Full-dimensional bodies get the ordinary Lebesgue volume.  For a
    k-dimensional body the value is the Lebesgue volume of the projection to
    the chart's pivot axes (a fixed normalization of the hull's Lebesgue
    measure); 0-dimensional bodies have volume 1.
    """
    return sum(P.normalized_volumes(), ZERO) / math.factorial(P.dim)


def volume_full(P: Polytope | None) -> Scalar:
    """n-dimensional volume: 0 for empty or lower-dimensional bodies."""
    if P is None or not P.is_full_dimensional:
        return ZERO
    return volume(P)


def euler_characteristic(P: Polytope | None) -> int:
    return 0 if P is None else 1


# -- serialization -----------------------------------------------------------


def polytope_to_json(P: Polytope) -> str:
    payload = {
        "n": P.n,
        "vertices": [[format_scalar(c) for c in v] for v in P.vertices],
    }
    return json.dumps(payload)


def polytope_from_json(text: str) -> Polytope:
    payload = json.loads(text)
    with json_shape("polytope_from_json"):
        n = payload["n"]
        verts = [as_vector(v) for v in payload["vertices"]]
    if any(len(v) != n for v in verts):
        raise ValueError("vertex length disagrees with declared dimension")
    return convex_hull(verts)


# -- convenient constructions -------------------------------------------------


def standard_simplex(d: int, n: int | None = None) -> Polytope:
    """T^d = [o, e_1, ..., e_d] inside R^n (defaults to n = d)."""
    n = d if n is None else n
    pts = [zero_vector(n)] + [unit_vector(n, i) for i in range(d)]
    return convex_hull(pts)


def cube(n: int, low=0, high=1) -> Polytope:
    low, high = as_scalar(low), as_scalar(high)
    pts = []
    for mask in range(2 ** n):
        pts.append(tuple(high if (mask >> i) & 1 else low for i in range(n)))
    return convex_hull(pts, max_vertices=max(DEFAULT_MAX_VERTICES, 2 ** n))
