"""Independent brute-force oracles used to cross-check the exact machinery.

Nothing here shares code with the structures under test: facets come from
exhaustive hyperplane enumeration, faces from exhaustive facet-subset
intersection, moments from Monte-Carlo rejection sampling.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..geometry.linalg import Vector, kernel_basis, primitive, vdot, vsub, zero_vector
from ..geometry.polytope import Polytope
from ..slicing.weights import WeightSpec


def brute_facets(points: list[Vector]) -> set[tuple[Vector, Fraction]]:
    """All facets of a full-dimensional hull by hyperplane enumeration.

    Tries every n-subset of points; keeps spanning hyperplanes that support
    the whole set.  Exponential: small fixtures only.
    """
    n = len(points[0])
    facets = set()
    for subset in itertools.combinations(range(len(points)), n):
        base = points[subset[0]]
        diffs = [vsub(points[i], base) for i in subset[1:]]
        kern = kernel_basis(diffs) if diffs else kernel_basis([zero_vector(n)])
        if len(kern) != 1:
            continue
        normal = primitive(kern[0])
        offset = vdot(normal, base)
        sides = {(vdot(normal, p) > offset) - (vdot(normal, p) < offset)
                 for p in points}
        if 1 not in sides:
            facets.add((normal, offset))
        if -1 not in sides:
            facets.add((tuple(-c for c in normal), -offset))
    return facets


def brute_face_vertex_sets(points: list[Vector],
                           facets: set[tuple[Vector, Fraction]]) -> set[frozenset]:
    """Vertex sets of all faces: every facet-subset intersection, plus P."""
    incidences = []
    for normal, offset in facets:
        incidences.append(frozenset(i for i, p in enumerate(points)
                                    if vdot(normal, p) == offset))
    out = {frozenset(range(len(points)))}
    for r in range(1, len(incidences) + 1):
        for combo in itertools.combinations(incidences, r):
            meet = frozenset.intersection(*combo)
            if meet:
                out.add(meet)
    return out


def affine_dim(points: list[Vector]) -> int:
    from ..geometry.linalg import rref
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    return len(rref(diffs)[1]) if diffs else 0


def mc_oracle_moment(P: Polytope, x, weight: WeightSpec, samples: int,
                     seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of integral_P zeta(x.y) dy with its stderr.

    Uniform rejection sampling in the bounding box of P; membership is the
    exact facet system evaluated in floats.
    """
    import numpy as np

    verts = np.array([[float(c) for c in v] for v in P.vertices])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    normals = np.array([[float(c) for c in normal] for normal, _ in P.rel_facets])
    offsets = np.array([float(c) for _, c in P.rel_facets])
    xf = np.array([float(c) for c in x])

    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, P.n))
    inside = np.all(pts @ normals.T <= offsets + 1e-12, axis=1)
    heights = pts @ xf
    vals = weight_values_array(weight, heights) * inside
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return box_vol * mean, box_vol * stderr


def weight_values_array(weight: WeightSpec, t):
    """Vectorized zeta(t) on a numpy array for the oracle; mirrors WeightSpec.value."""
    import numpy as np

    if weight.reflect:
        t = -t
    kind = weight.kind
    if kind == "constant":
        return np.full_like(t, float(weight.c))
    if kind == "power":
        return t ** int(weight.p)
    if kind == "poly":
        return np.polyval([float(c) for c in reversed(weight.coeffs)], t)
    if kind == "indicator":
        return ((t >= float(weight.a)) & (t <= float(weight.b))).astype(float)
    if kind == "abs_power":
        with np.errstate(divide="ignore"):
            out = np.abs(t) ** float(weight.p)
        return np.where(t == 0, 0.0 if float(weight.p) > 0 else np.inf, out)
    if kind == "signed_power":
        s = t if weight.side == "pos" else -t
        return np.where(s > 0, np.sign(s) * np.abs(s) ** float(weight.p), 0.0)
    if kind == "exp_neg":
        return np.exp(-t)
    if kind == "log_abs":
        with np.errstate(divide="ignore"):
            return np.where(t == 0, 0.0, np.log(np.abs(t)))
    raise ValueError(f"oracle cannot evaluate weight kind {kind!r}")


def local_euler_probes(P: Polytope, rng) -> list[Vector]:
    """Vertices, edge midpoints, facet centroids, body centroid, outside points."""
    lattice = P.face_lattice()
    probes: list[Vector] = list(P.vertices)
    for e in lattice.faces_of_dim(1):
        a, b = (P.vertices[i] for i in e.vertex_ids)
        probes.append(tuple((ca + cb) / 2 for ca, cb in zip(a, b)))
    if P.dim >= 1:
        for f in lattice.faces_of_dim(P.dim - 1):
            vs = [P.vertices[i] for i in f.vertex_ids]
            probes.append(tuple(sum(col) / len(vs) for col in zip(*vs)))
    vs = P.vertices
    probes.append(tuple(sum(col) / len(vs) for col in zip(*vs)))
    probes.append(zero_vector(P.n))
    far = tuple(Fraction(rng.randint(1, 3)) + max(abs(c) for v in vs for c in v)
                for _ in range(P.n))
    probes.append(far)
    return probes


def exhaustive_local_euler(P: Polytope, probes) -> bool:
    """sum_F (-1)^dim F V_0(x cap F) == (-1)^dim P V_0(x cap relint P), exactly."""
    from ..geometry.polytope import RELATIVE_INTERIOR
    lattice = P.face_lattice()
    for y in probes:
        lhs = sum((-1) ** f.dim for f in lattice.faces_containing(y))
        rhs = (-1) ** P.dim * (1 if P.point_membership(y) == RELATIVE_INTERIOR else 0)
        if lhs != rhs:
            return False
    return True
