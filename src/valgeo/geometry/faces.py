"""Face lattices and the signed face classes.

Faces of a polytope P are P itself plus every set P cap H_{u,h_P(u)}.  Once
the hull has recorded which vertices lie on which facet, the lattice is
purely combinatorial (Kaibel-Pfetsch, "Computing the face lattice of a
polytope from its vertex-facet incidences", Comput. Geom. 23, 2002).  Faces
are int bitmasks over vertex ids:

* every proper face is the intersection of the facets containing it, so the
  faces are P plus the closure of the facet masks under ``&``;
* the children (the facets) of a face F are the inclusion-maximal nonempty
  sets among {F & G : G a facet of P with G not containing F};
* dim F = 1 + dim of any child, and single vertices have dim 0;
* the facets of P through F are the G with F & G == F.

A face F belongs to the minus class when h_P(u) <= 0 for every u in its
normal cone N(P, F), and to the plus class when h_P(u) >= 0 there.  One sign
rule decides both for every body:

* N(P, F) = cone{u_i : facet i contains F} + lin(P)^perp, and h_P(u) = u.y
  on it for any y in F.
* If o is not in aff P, some w in lin(P)^perp has w.y != 0; both +-w lie in
  every normal cone, so every face is mixed, P included.
* If o is in aff P, take u_i in lin(P) acting on aff P as the chart normal
  rho_i of facet i does: u_i.y = rho_i.project(y).  Then h_P(u_i) = c_i, the
  chart offset, and the class is the sign pattern of the offsets of F's
  facets.

A point {v} is the same rule with no facets: zero when v = o, else mixed.
P itself has no facets through it, so it is in both classes whenever o is in
aff P.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vector, vdot, zero_vector
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
    height_sign: str

    @property
    def in_minus_class(self) -> bool:
        return self.height_sign in (SIGN_ZERO, SIGN_NONPOS)

    @property
    def in_plus_class(self) -> bool:
        return self.height_sign in (SIGN_ZERO, SIGN_NONNEG)


class FaceLattice:
    def __init__(self, P: "pt.Polytope", faces: list[Face],
                 children: dict[tuple[int, ...], list[Face]]):
        # P caches its lattice, so a strong reference back would make every
        # body a reference cycle, whose caches only the cyclic collector frees
        self.polytope = weakref.proxy(P)
        self.faces = faces
        self._children = children  # vertex_ids -> child faces, in faces order

    def top(self) -> Face:
        return self.faces[-1]

    def faces_of_dim(self, d: int) -> list[Face]:
        return [f for f in self.faces if f.dim == d]

    def children(self, face: Face) -> list[Face]:
        return self._children[face.vertex_ids]

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.top().dim + 1)
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

    def _tight_facets(self, y: Vector) -> int | None:
        """Bitmask of the facets whose hyperplane holds y; None when y is not in P."""
        P = self.polytope
        if P.point_membership(y) == pt.OUTSIDE:
            return None
        rel = P.chart.project(y)
        tight = 0
        for fid, (normal, offset) in enumerate(P.rel_facets):
            if vdot(normal, rel) == offset:
                tight |= 1 << fid
        return tight

    def faces_containing(self, y: Vector) -> list[Face]:
        """The faces holding y, in lattice order, from one membership test.

        A face is P cut by the hyperplanes of all its facets, so y lies in F
        iff y lies in P and every facet of F is tight at y.
        """
        tight = self._tight_facets(y)
        if tight is None:
            return []
        return [f for f in self.faces if all(tight >> fid & 1 for fid in f.facet_ids)]

    def face_contains_point(self, face: Face, y: Vector) -> bool:
        """Exact membership y in F: the one-face form of faces_containing."""
        tight = self._tight_facets(y)
        return tight is not None and all(tight >> fid & 1 for fid in face.facet_ids)


def _classify(offsets) -> str:
    nonpos = all(c <= 0 for c in offsets)
    nonneg = all(c >= 0 for c in offsets)
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


def _ids(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _maximal(masks: set[int]) -> list[int]:
    """The inclusion-maximal members of a set of bitmasks."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask & k != mask for k in kept):
            kept.append(mask)
    return kept


def build_face_lattice(P: "pt.Polytope") -> FaceLattice:
    facet_masks = [sum(1 << i for i in members) for members in P.facet_members]
    closure = set(facet_masks)
    frontier = list(facet_masks)
    while frontier:
        nxt = []
        for mask in frontier:
            for g in facet_masks:
                meet = mask & g
                if meet and meet not in closure:
                    closure.add(meet)
                    nxt.append(meet)
        frontier = nxt
    closure.add((1 << len(P.vertices)) - 1)

    # children have fewer vertices than their parent, so they come first
    child_masks: dict[int, list[int]] = {}
    dims: dict[int, int] = {}
    for mask in sorted(closure, key=int.bit_count):
        kids = _maximal({mask & g for g in facet_masks} - {mask, 0})
        child_masks[mask] = kids
        dims[mask] = dims[kids[0]] + 1 if kids else 0

    through_origin = P.chart.contains(zero_vector(P.n))
    by_mask: dict[int, Face] = {}
    for mask in closure:
        facet_ids = tuple(i for i, g in enumerate(facet_masks) if mask & g == mask)
        sign = _classify([P.rel_facets[i][1] for i in facet_ids]) if through_origin \
            else SIGN_MIXED
        by_mask[mask] = Face(_ids(mask), dims[mask], facet_ids, sign)

    faces = sorted(by_mask.values(), key=lambda f: (f.dim, f.vertex_ids))
    # the children of a face share one dimension, so faces order is id order
    children = {by_mask[mask].vertex_ids: sorted((by_mask[k] for k in kids),
                                                 key=lambda f: f.vertex_ids)
                for mask, kids in child_masks.items()}
    return FaceLattice(P, faces, children)
