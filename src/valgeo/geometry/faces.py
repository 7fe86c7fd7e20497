"""Face lattices, normal cones, and the signed face classes.

Faces of a polytope P are P itself plus every set P cap H_{u,h_P(u)}.
Each proper face is the intersection of the facets containing it, so the
lattice is enumerated as the closure of the facet vertex sets under
intersection.  The normal cone of a face is generated by the facet normals
through it together with the lineality space aff(P)^perp when P is
lower-dimensional.

A face F belongs to the minus class when h_P(u) <= 0 for every u in its
normal cone, and to the plus class when h_P(u) >= 0 there; both conditions
are checked exactly on the cone generators (h_P is linear on the cone, so
the generators decide).  P itself has normal cone {o} (+ lineality), which
makes the conditions vacuous for full-dimensional bodies: P is always in
both classes then.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vector, rref, vdot, vneg, vsub
from . import polytope as pt

SIGN_ZERO = "zero"
SIGN_NONPOS = "nonpositive"
SIGN_NONNEG = "nonnegative"
SIGN_MIXED = "mixed"


@dataclass(frozen=True)
class Face:
    vertex_ids: tuple[int, ...]
    dim: int
    facet_ids: tuple[int, ...]      # facets of P containing this face
    normal_cone_rays: tuple[Vector, ...]  # in-plane generators, ambient coords
    lineality: tuple[Vector, ...]   # basis of aff(P)^perp, ambient coords
    height_sign: str

    @property
    def in_minus_class(self) -> bool:
        return self.height_sign in (SIGN_ZERO, SIGN_NONPOS)

    @property
    def in_plus_class(self) -> bool:
        return self.height_sign in (SIGN_ZERO, SIGN_NONNEG)


class FaceLattice:
    def __init__(self, P: "pt.Polytope", faces: list[Face]):
        self.polytope = P
        self.faces = faces
        self._by_vertex_ids = {f.vertex_ids: f for f in faces}
        self._children: dict[tuple[int, ...], list[Face]] = {}
        for f in faces:
            self._children[f.vertex_ids] = []
        for f in faces:
            if f.dim == 0:
                continue
            fset = set(f.vertex_ids)
            for g in faces:
                if g.dim == f.dim - 1 and set(g.vertex_ids) < fset:
                    self._children[f.vertex_ids].append(g)

    def top(self) -> Face:
        return self.faces[-1]

    def faces_of_dim(self, d: int) -> list[Face]:
        return [f for f in self.faces if f.dim == d]

    def children(self, face: Face) -> list[Face]:
        return self._children[face.vertex_ids]

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.polytope.dim + 1)
        for f in self.faces:
            counts[f.dim] += 1
        return tuple(counts)

    def euler_alternating_sum(self) -> int:
        return sum((-1) ** f.dim for f in self.faces)

    def minus_class(self) -> list[Face]:
        return [f for f in self.faces if f.in_minus_class]

    def plus_class(self) -> list[Face]:
        return [f for f in self.faces if f.in_plus_class]

    def face_support(self, face: Face, x: Vector) -> Fraction:
        return max(vdot(x, self.polytope.vertices[i]) for i in face.vertex_ids)

    def face_contains_point(self, face: Face, y: Vector) -> bool:
        """Exact membership y in F, via P-membership plus facet equalities."""
        P = self.polytope
        if P.point_membership(y) == pt.OUTSIDE:
            return False
        rel = P.chart.project(y)
        for fid in face.facet_ids:
            normal, offset = P.rel_facets[fid]
            if vdot(normal, rel) != offset:
                return False
        # proper faces are exactly P cut by their facets' hyperplanes, but a
        # vertex set can also arise as intersection of fewer facets for
        # lower-dim faces; facet_ids stores all containing facets, so the
        # equalities above carve out precisely the face
        return True


def _classify(gen_values, lineality_values) -> str:
    nonpos = all(v <= 0 for v in gen_values) and all(v == 0 for v in lineality_values)
    nonneg = all(v >= 0 for v in gen_values) and all(v == 0 for v in lineality_values)
    if nonpos and nonneg:
        return SIGN_ZERO
    if nonpos:
        return SIGN_NONPOS
    if nonneg:
        return SIGN_NONNEG
    return SIGN_MIXED


def classify_faces(P: "pt.Polytope") -> tuple[list[Face], list[Face]]:
    """The signed face classes (minus, plus); faces may sit in both."""
    lattice = P.face_lattice()
    return lattice.minus_class(), lattice.plus_class()


def build_face_lattice(P: "pt.Polytope") -> FaceLattice:
    chart = P.chart
    lineality = chart.normal_basis
    m = len(P.vertices)
    all_ids = frozenset(range(m))

    if P.dim == 0:
        v = P.vertices[0]
        sign = _classify([], [vdot(w, v) for w in lineality] +
                             [vdot(vneg(w), v) for w in lineality])
        face = Face((0,), 0, (), (), lineality, sign)
        return FaceLattice(P, [face])

    facet_vertices = [frozenset(members) for members in P.facet_members]
    closure: set[frozenset] = set(facet_vertices) | {all_ids}
    frontier = list(facet_vertices)
    while frontier:
        nxt = []
        for fs in frontier:
            for fv in facet_vertices:
                meet = fs & fv
                if meet and meet not in closure:
                    closure.add(meet)
                    nxt.append(meet)
        frontier = nxt

    rel = P.rel_vertices()
    inplane_cache: dict[int, Vector] = {}

    def inplane(fid: int) -> Vector:
        if fid not in inplane_cache:
            inplane_cache[fid] = chart.inplane_normal(P.rel_facets[fid][0])
        return inplane_cache[fid]

    faces = []
    for vset in closure:
        ids = tuple(sorted(vset))
        base = rel[ids[0]]
        diffs = [vsub(rel[i], base) for i in ids[1:]]
        fdim = len(rref(diffs)[1]) if diffs else 0
        facet_ids = tuple(i for i, fv in enumerate(facet_vertices) if vset <= fv)
        rays = tuple(inplane(i) for i in facet_ids)
        ref_vertex = P.vertices[ids[0]]
        gen_values = [vdot(u, ref_vertex) for u in rays]
        lin_values = [vdot(w, ref_vertex) for w in lineality]
        lin_values += [-v for v in lin_values]
        faces.append(Face(ids, fdim, facet_ids, rays, lineality,
                          _classify(gen_values, lin_values)))

    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return FaceLattice(P, faces)
