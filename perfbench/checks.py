"""Output checks for benchmark requests, independent of valgeo.

Every request is checked in two ways:

* for any seed, against invariants the benchmark computes itself: exact
  hull facets and volumes from a Qhull triangulation redone in rational
  arithmetic, exact polynomial moments per simplex, profile mass and sample
  values, sign and support conditions, and each float row's own error
  column within the README tolerance;
* for the seeds that have a stored reference, the exact fields must be
  byte-equal to the reference and the float fields must agree with it
  within the README tolerances (1e-8 for exp, 1e-6 for |t|^p and log).

``check_request`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from math import factorial

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

from workloads import Request, fmt

_EXACT_CELL = re.compile(r"^-?\d+(/\d+)?$")


# -- output splitting ---------------------------------------------------------------


def split_fields(text: str) -> tuple[str, list[float]]:
    """(exact text with float cells masked, float cells in order).

    JSON outputs are exact throughout.  In CSV output a cell that is not an
    integer or p/q rational is a float field.
    """
    if text.startswith("{") or text.startswith("["):
        return text, []
    floats = []
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        for i, cell in enumerate(cells):
            if cell and not _EXACT_CELL.match(cell):
                try:
                    floats.append(float(cell))
                except ValueError:
                    continue
                cells[i] = "F"
        lines.append(",".join(cells))
    return "\n".join(lines), floats


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(text: str) -> dict:
    exact, floats = split_fields(text)
    return {"sha256": digest(exact), "floats": floats}


def within(value: float, ref: float, tol: float, scale: float) -> bool:
    """The harness rule: relative to the row's scale, or absolutely tiny."""
    gap = abs(value - ref)
    return gap <= tol * abs(scale) or gap <= tol * 1e-6


# -- exact linear algebra -------------------------------------------------------------


def _det(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return d


def _plane(points) -> tuple[tuple[int, ...], Fraction] | None:
    """Primitive integer normal and offset of the hyperplane through n points;
    None when the points are affinely dependent."""
    n = len(points[0])
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    # cofactor expansion: normal_j = (-1)^j det(rows without column j)
    normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
    lcm = 1
    for c in normal:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in normal]
    if not any(ints):
        return None
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    ints = [c // g for c in ints]
    return tuple(ints), sum(Fraction(c) * b for c, b in zip(ints, base))


class Oracle:
    """Exact hull and volume facts about one point set, from Qhull combinatorics."""

    def __init__(self, points):
        self.points = sorted(set(points))
        self.n = len(self.points[0])
        arr = np.array([[float(c) for c in p] for p in self.points])
        hull = ConvexHull(arr)
        self.vertices = sorted(self.points[i] for i in hull.vertices)
        centre = [sum(p[j] for p in self.vertices) / len(self.vertices)
                  for j in range(self.n)]
        self.facets = set()
        for simplex in hull.simplices:
            plane = _plane([self.points[i] for i in simplex])
            if plane is None:  # a degenerate simplex of a triangulated facet
                continue
            normal, offset = plane
            if sum(c * x for c, x in zip(normal, centre)) > offset:
                normal, offset = tuple(-c for c in normal), -offset
            self.facets.add((normal, offset))
        self.simplices = [[self.points[i] for i in s]
                          for s in Delaunay(arr).simplices]
        self._vols = [abs(_det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
                      / factorial(self.n) for s in self.simplices]
        self.volume = sum(self._vols, Fraction(0))

    def heights(self, x) -> list[Fraction]:
        return sorted({sum(a * b for a, b in zip(x, v)) for v in self.vertices})

    def power_moment(self, x, k: int) -> Fraction:
        """integral_P (x.y)^k dy: per simplex vol * k! n!/(k+n)! * h_k(heights)."""
        n = self.n
        total = Fraction(0)
        for s, vol in zip(self.simplices, self._vols):
            h = [Fraction(1)] + [Fraction(0)] * k
            for v in s:
                a = sum(c * y for c, y in zip(x, v))
                for j in range(1, k + 1):
                    h[j] += a * h[j - 1]
            total += vol * h[k]
        return total * Fraction(factorial(k) * factorial(n), factorial(k + n))

    def poly_moment(self, x, coeffs) -> Fraction:
        return sum((Fraction(c) * self.power_moment(x, k)
                    for k, c in enumerate(coeffs) if Fraction(c) != 0), Fraction(0))


# -- per-kind invariants ---------------------------------------------------------------


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_hull(req: Request, oracle: Oracle, text: str, problems: list[str]):
    payload = json.loads(text)
    verts = sorted(tuple(Fraction(c) for c in v) for v in payload["vertices"])
    if verts != oracle.vertices:
        problems.append("hull vertices differ from the oracle's")
    facets = {(tuple(int(c) for c in f["normal"]), Fraction(f["offset"]))
              for f in payload["facets"]}
    if facets != oracle.facets or len(payload["facets"]) != len(facets):
        problems.append("hull facets differ from the oracle's")


def _check_faces(req: Request, oracle: Oracle, text: str, problems: list[str]):
    payload = json.loads(text)
    fv = payload["f_vector"]
    n = oracle.n
    if (payload["dim"] != n or len(fv) != n + 1 or fv[0] != len(oracle.vertices)
            or fv[n - 1] != len(oracle.facets) or fv[n] != 1
            or len(payload["faces"]) != sum(fv)
            or payload["euler_alternating_sum"] != 1
            or sum((-1) ** d * c for d, c in enumerate(fv)) != 1):
        problems.append("face lattice counts are inconsistent")


def _peval(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _check_profile(req: Request, oracle: Oracle, text: str, problems: list[str]):
    header, rows = _csv_rows(text)
    breaks = [Fraction(r[1]) for r in rows if r[0] == "breakpoint"]
    pieces = [(Fraction(r[1]), Fraction(r[2]), [Fraction(c) for c in r[3].split(";")])
              for r in rows if r[0] == "piece"]
    samples = [(Fraction(r[1]), Fraction(r[3])) for r in rows if r[0] == "sample"]
    if header != ["row", "a", "b", "value"] or breaks != oracle.heights(req.directions[0]):
        problems.append("profile breakpoints differ from the vertex heights")
        return
    mass = Fraction(0)
    for lo, hi, coeffs in pieces:
        anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
        mass += _peval(anti, hi) - _peval(anti, lo)
    if mass != oracle.volume or len(pieces) != len(breaks) - 1:
        problems.append("profile mass differs from the volume")
    expected = [lo + (hi - lo) * Fraction(2 * j + 1, 8)
                for lo, hi, _ in pieces for j in range(4)]
    if [t for t, _ in samples] != expected:
        problems.append("profile sample positions are wrong")
        return
    for (t, value), (lo, hi, coeffs) in zip(samples, [p for p in pieces for _ in range(4)]):
        if _peval(coeffs, t) != value:
            problems.append("profile sample disagrees with its piece")
            return


def _grid_rows(req: Request, text: str, problems: list[str]):
    """Rows of a grid command as (direction, value cell, error cell or None)."""
    header, rows = _csv_rows(text)
    n = len(req.points[0])
    if header[:n] != [f"x{i + 1}" for i in range(n)] or header[n] != "value":
        problems.append("unexpected CSV header")
        return []
    out = [(tuple(Fraction(c) for c in r[:n]), r[n], r[n + 1] if len(r) > n + 1 else None)
           for r in rows]
    if req.directions is None:
        if len(out) != 16 or any(abs(sum(float(c) ** 2 for c in x) - 1) > 1e-12
                                 for x, _, _ in out):
            problems.append("fibonacci grid rows are wrong")
    elif [x for x, _, _ in out] != req.directions:
        problems.append("grid directions differ from the request")
    return out


def _check_exact_grid(req: Request, oracle: Oracle, text: str, problems: list[str]):
    kind = req.kind
    for x, cell, err in _grid_rows(req, text, problems):
        if not _EXACT_CELL.match(cell) or err:
            problems.append("exact value has a float form or an error estimate")
            return
        value = Fraction(cell)
        w = req.weight
        if kind.startswith("moment-poly"):
            ok = value == oracle.poly_moment(x, w["coeffs"])
        elif kind.startswith("moment-power"):
            ok = value == oracle.power_moment(x, w["p"])
        elif kind.startswith("moment-indicator"):
            ok = 0 <= value <= oracle.volume
        elif kind.startswith("moment-measure"):
            # atoms have positive mass and sections are nonnegative
            ok = value >= oracle.poly_moment(x, req.measure["density"]["coeffs"])
        elif kind.startswith("body-intersection"):
            h = oracle.heights(x)
            ok = value >= 0 and (h[0] <= 0 <= h[-1] or value == 0)
        else:  # eval: exactness and grid shape only; the reference covers values
            ok = True
        if not ok:
            problems.append(f"value {fmt(value)} fails the {kind} invariant")
            return


def _check_float_grid(req: Request, text: str, problems: list[str]):
    for x, cell, err in _grid_rows(req, text, problems):
        value = float(cell)
        if not math.isfinite(value):
            problems.append("float value is not finite")
            return
        if req.kind.startswith("body-") and value <= 0:
            problems.append("body support or gauge is not positive")
            return
        if req.kind.startswith("moment-"):
            if err is None or err == "" or not within(float(err), 0.0, req.tol, value):
                problems.append(f"error column {err} exceeds tolerance {req.tol}")
                return


def _check_suite(text: str, problems: list[str]):
    lines = [json.loads(line) for line in text.splitlines()]
    if not lines or any(not line.get("passed") or line.get("failures") for line in lines):
        problems.append("identity suite reported a violation")


def check_request(req: Request, code, text: str, ref: dict | None = None) -> list[str]:
    """Problems with one request's exit code and output; [] when correct."""
    if code != 0:
        return [f"exit code {code!r}"]
    problems: list[str] = []
    try:
        if req.argv[0] == "check":
            _check_suite(text, problems)
        elif req.tol is not None:
            _check_float_grid(req, text, problems)
        else:
            oracle = Oracle(req.points)
            if req.argv[0] == "hull":
                _check_hull(req, oracle, text, problems)
            elif req.argv[0] == "faces":
                _check_faces(req, oracle, text, problems)
            elif req.argv[0] == "profile":
                _check_profile(req, oracle, text, problems)
            else:
                _check_exact_grid(req, oracle, text, problems)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"malformed output: {exc!r}")
    if ref is not None:
        exact, floats = split_fields(text)
        if digest(exact) != ref["sha256"]:
            problems.append("exact fields differ from the reference")
        elif len(floats) != len(ref["floats"]):
            problems.append("float field count differs from the reference")
        else:
            # CSV float cells come in (value, error) pairs per moment row and
            # single values per body row; the row's value sets the scale.
            step = 2 if req.kind.startswith("moment-") else 1
            for i, (got, want) in enumerate(zip(floats, ref["floats"])):
                scale = ref["floats"][i - i % step]
                if not within(got, want, req.tol, scale):
                    problems.append(f"float field {got!r} differs from reference {want!r}")
                    break
    return problems
