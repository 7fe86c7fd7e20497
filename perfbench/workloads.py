"""Seeded request streams for the benchmark workloads.

A workload is a fixed recipe of request slots.  One pass over the recipe is
a *round*; round r of workload w under seed s is a pure function of
(w, s, r), so a run can be replayed request by request.  Every request gets
its own freshly generated body, so no polytope is shared across requests;
inside a request one body serves the whole direction grid.

Negative numbers are passed as ``--direction=-3,1,2`` and ``--p=-1/2``:
argparse reads ``--direction -3,1,2`` as two options and rejects it.  The
``--flag=value`` form is a workaround for that argument-parsing defect, not
part of what is measured.

Nothing here imports valgeo: inputs are written as plain JSON so they do not
depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli-exact", "cli-float", "check-exact")

# README tolerances of the float path: 1e-8 relative for exp, 1e-6 for
# |t|^p and log.
TOL_EXP = 1e-8
TOL_POWER_LOG = 1e-6

CHECK_SUITES = ("valuation", "euler", "local-euler", "covariance-sl",
                "covariance-gl", "eu4")


@dataclass
class Request:
    """One CLI command plus what the output checker needs to know about it."""
    index: int
    kind: str
    argv: list[str]
    points: list[tuple[Fraction, ...]] = field(default_factory=list)
    directions: list[tuple[Fraction, ...]] | None = None  # None: fib grid
    weight: dict | None = None
    measure: dict | None = None
    tol: float | None = None  # float-field tolerance; None = exact only


# -- exact small helpers ----------------------------------------------------------


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def affine_rank(points) -> int:
    """Exact rank of the difference vectors p - points[0]."""
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    rank, col, n = 0, 0, len(base)
    while rank < len(rows) and col < n:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _direction(rng: random.Random, n: int, bound: int = 3) -> tuple[Fraction, ...]:
    while True:
        x = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        if any(x):
            return x


# -- bodies --------------------------------------------------------------------------


def random_body(rng: random.Random, n: int, k: int):
    """k random points in convex position: distinct integer points of
    [-3, 3]^(n-1) lifted to the paraboloid x_n = |u|^2, then sheared and
    translated.  Every point is a vertex, so the hull size is fixed while
    its facets and faces vary with the seed."""
    while True:
        base = rng.sample([tuple(u) for u in _grid_points(n - 1)], k)
        pts = [tuple(Fraction(c) for c in u) + (Fraction(sum(c * c for c in u)),)
               for u in base]
        if affine_rank(pts) == n:
            return _shear_translate(rng, pts, centre=True)


def _grid_points(d: int):
    if d == 0:
        return [()]
    return [u + (c,) for u in _grid_points(d - 1) for c in range(-3, 4)]


def _shear_translate(rng: random.Random, pts, centre: bool = False):
    """Image under a seeded unimodular shear product plus a translation;
    with centre, the translation first moves the rounded centroid to o."""
    n = len(pts[0])
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        lam = rng.choice((-2, -1, 1, 2))
        m = [[m[r][c] + (lam * m[j][c] if r == i else 0) for c in range(n)]
             for r in range(n)]
    t = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    pts = [tuple(sum(m[r][c] * p[c] for c in range(n)) for r in range(n)) for p in pts]
    if centre:
        t = [c - round(sum(p[r] for p in pts) / len(pts)) for r, c in enumerate(t)]
    return [tuple(p[r] + t[r] for r in range(n)) for p in pts]


def cube_body(rng: random.Random, n: int):
    pts = [tuple(Fraction((mask >> i) & 1) for i in range(n)) for mask in range(2 ** n)]
    return _shear_translate(rng, pts)


def cross_body(rng: random.Random, n: int):
    pts = []
    for i in range(n):
        for s in (1, -1):
            pts.append(tuple(Fraction(s if j == i else 0) for j in range(n)))
    return _shear_translate(rng, pts)


def _body(rng, family: str, n: int):
    if family == "cube":
        return cube_body(rng, n)
    if family == "cross":
        return cross_body(rng, n)
    # "random" takes the default size for n; "random<k>" has k points
    k = int(family[len("random"):] or {3: 8, 4: 9, 5: 10}[n])
    return random_body(rng, n, k)


# -- weights -------------------------------------------------------------------------


def _poly_weight(rng: random.Random) -> dict:
    """A quadratic with random rational coefficients."""
    coeffs = [_rational(rng, 3, 3) for _ in range(2)] + [Fraction(rng.randint(1, 3))]
    return {"kind": "poly", "coeffs": [fmt(c) for c in coeffs]}


def _indicator_weight(rng: random.Random) -> dict:
    a = _rational(rng, 4, 2)
    b = a + abs(_rational(rng, 4, 2)) + 1
    return {"kind": "indicator", "a": fmt(a), "b": fmt(b)}


def _reflected(w: dict) -> dict:
    return {**w, "reflect": not w.get("reflect", False)}


def general_polytope_form(z1: dict, z2: dict, mu: dict, z1t: dict, z2t: dict,
                          mut: dict) -> dict:
    """The widest representation form: Euler pairs and a measure term, plus
    the same battery on the cone hull [P, o]."""
    def battery(za, zb, m, on_cone):
        extra = {"cone_hull": True} if on_cone else {}
        return [
            {"op": "euler_plus", "weight": za, **extra},
            {"op": "euler_plus", "weight": _reflected(za), "reflect_body": True, **extra},
            {"op": "euler_minus", "weight": zb, **extra},
            {"op": "euler_minus", "weight": _reflected(zb), "reflect_body": True, **extra},
            {"op": "measure", "measure": m, **extra},
        ]
    return {"terms": battery(z1, z2, mu, False) + battery(z1t, z2t, mut, True)}


# -- recipes -------------------------------------------------------------------------

# (kind, n, body family, grid) per slot; grid is "axes", "fib:16" or
# "json<k>", a JSON grid of k random integer directions.
CLI_EXACT = (
    ("hull", 3, "random", None),
    ("hull", 5, "random", None),
    ("hull", 5, "cube", None),
    ("hull", 4, "cube", None),
    ("faces", 3, "random", None),
    ("faces", 4, "cube", None),
    ("faces", 5, "cross", None),
    ("faces", 4, "random", None),
    ("profile", 3, "random", None),
    ("profile", 3, "cross", None),
    ("profile", 4, "cross", None),
    ("profile", 5, "random", None),
    ("moment-poly", 3, "random", "fib:16"),
    ("moment-poly", 5, "cross", "axes"),
    ("moment-power", 4, "cross", "json4"),
    ("moment-indicator", 4, "cross", "axes"),
    ("moment-measure", 3, "random", "json8"),
    ("body-intersection", 4, "random", "json4"),
    ("eval", 3, "random6", "axes"),
    ("eval", 3, "cross", "axes"),
)

# (kind, n, weight or body spec, directions): random bodies of 6 points,
# mostly n=3 with one or two directions, a few n=4 with one direction.
CLI_FLOAT = (
    ("moment", 3, {"kind": "abs_power", "p": -0.5}, 1),
    ("moment", 3, {"kind": "abs_power", "p": 0.5}, 2),
    ("moment", 3, {"kind": "abs_power", "p": 1.5}, 1),
    ("moment", 3, {"kind": "signed_power", "q": 0.5, "side": "pos"}, 2),
    ("moment", 3, {"kind": "log_abs"}, 1),
    ("moment", 3, {"kind": "exp_neg"}, 2),
    ("body", 3, ("moment", "3/2"), 1),
    ("body", 3, ("polar_moment", "-1/2"), 2),
    ("body", 3, ("l0_polar_moment", None), 1),
    ("body", 3, ("laplace", None), 2),
    ("moment", 4, {"kind": "abs_power", "p": 0.5}, 1),
    ("body", 4, ("laplace", None), 1),
)

RECIPES = {
    "cli-exact": CLI_EXACT,
    "cli-float": CLI_FLOAT,
    # local-euler stays at n=3: at n=4 one request takes up to 5 s, and a
    # handful of them would set the whole run's throughput.
    "check-exact": tuple((s, n) for s in CHECK_SUITES for n in (3, 4)
                         if (s, n) != ("local-euler", 4)),
}


def round_size(workload: str) -> int:
    return len(RECIPES[workload])


def _write_body(work_dir: Path, index: int, pts) -> str:
    path = work_dir / f"body{index}.json"
    n = len(pts[0])
    path.write_text(json.dumps({"n": n, "vertices": [[fmt(c) for c in p] for p in pts]}))
    return str(path)


def _grid(rng, grid: str, n: int):
    """(--grid value, exact directions or None for the fibonacci grid)."""
    if grid == "axes":
        dirs = []
        for i in range(n):
            for s in (1, -1):
                dirs.append(tuple(Fraction(s if j == i else 0) for j in range(n)))
        return "axes", dirs
    if grid.startswith("fib:"):
        return grid, None
    dirs = [_direction(rng, n) for _ in range(int(grid[len("json"):]))]
    return json.dumps({"directions": [[int(c) for c in d] for d in dirs]}), dirs


def _cli_exact(rng, index, slot, work_dir) -> Request:
    kind, n, family, grid = slot
    pts = _body(rng, family, n)
    inp = "--input=" + _write_body(work_dir, index, pts)
    req = Request(index, f"{kind}-n{n}-{family}", [], points=pts)
    if kind in ("hull", "faces"):
        req.argv = [kind, inp]
        return req
    if kind == "profile":
        x = _direction(rng, n)
        req.directions = [x]
        req.argv = ["profile", inp, "--direction=" + ",".join(fmt(c) for c in x)]
        return req
    spec, req.directions = _grid(rng, grid, n)
    grid_arg = "--grid=" + spec
    if kind == "moment-poly":
        req.weight = _poly_weight(rng)
    elif kind == "moment-power":
        req.weight = {"kind": "power", "p": rng.randint(1, 3)}
    elif kind == "moment-indicator":
        req.weight = _indicator_weight(rng)
    if req.weight is not None:
        req.argv = ["moment", inp, grid_arg, "--weight=" + json.dumps(req.weight)]
    elif kind == "moment-measure":
        atoms = [[fmt(_rational(rng, 4, 2)), fmt(Fraction(rng.randint(1, 3), rng.randint(1, 2)))]
                 for _ in range(2)]
        req.measure = {"density": _poly_weight(rng), "atoms": atoms}
        req.argv = ["moment", inp, grid_arg, "--measure=" + json.dumps(req.measure)]
    elif kind == "body-intersection":
        req.argv = ["body", "intersection", inp, grid_arg]
    elif kind == "eval":
        mus = [{"density": _poly_weight(rng),
                "atoms": [[fmt(_rational(rng, 3, 2)), "1"]]} for _ in range(2)]
        expr = general_polytope_form(_poly_weight(rng), _indicator_weight(rng), mus[0],
                                     _indicator_weight(rng), _poly_weight(rng), mus[1])
        req.argv = ["eval", inp, grid_arg, "--expr=" + json.dumps(expr)]
    else:
        raise ValueError(f"unknown slot kind {kind!r}")
    return req


def _cli_float(rng, index, slot, work_dir) -> Request:
    kind, n, spec, count = slot
    pts = random_body(rng, n, 6)
    inp = "--input=" + _write_body(work_dir, index, pts)
    dirs = [_direction(rng, n) for _ in range(count)]
    grid_arg = "--grid=" + json.dumps({"directions": [[int(c) for c in d] for d in dirs]})
    req = Request(index, "", [], points=pts, directions=dirs)
    if kind == "moment":
        req.kind = f"moment-{spec['kind']}" + (f"-{spec['p']}" if "p" in spec else "")
        req.weight = spec
        req.tol = TOL_EXP if spec["kind"] == "exp_neg" else TOL_POWER_LOG
        req.argv = ["moment", inp, grid_arg, "--weight=" + json.dumps(spec)]
    else:
        body, p = spec
        req.kind = f"body-{body}"
        req.tol = TOL_EXP if body == "laplace" else TOL_POWER_LOG
        req.argv = ["body", body, inp, grid_arg] + ([f"--p={p}"] if p else [])
    req.kind += f"-n{n}"
    return req


def check_seed(seed: int, index: int) -> int:
    """Harness seed of check request `index`: distinct per (seed, index)."""
    return seed * 1_000_003 + index


def _check_exact(index, slot, seed) -> Request:
    suite, n = slot
    return Request(index, f"check-{suite}-n{n}",
                   ["check", suite, "--trials", "1",
                    f"--seed={check_seed(seed, index)}", "--n", str(n)])


def make_round(workload: str, seed: int, r: int, work_dir: Path) -> list[Request]:
    """Requests of round r; bodies are written to work_dir."""
    recipe = RECIPES[workload]
    out = []
    for k, slot in enumerate(recipe):
        index = r * len(recipe) + k
        rng = random.Random(f"{workload}:{seed}:{index}")
        if workload == "cli-exact":
            out.append(_cli_exact(rng, index, slot, work_dir))
        elif workload == "cli-float":
            out.append(_cli_float(rng, index, slot, work_dir))
        else:
            out.append(_check_exact(index, slot, seed))
    return out


def warmup_requests(workload: str, work_dir: Path) -> list[list[str]]:
    """One request of each command kind the workload uses, on T^3."""
    path = work_dir / "warmup_t3.json"
    path.write_text(json.dumps({"n": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"],
                                                     ["0", "1", "0"], ["0", "0", "1"]]}))
    inp = f"--input={path}"
    if workload == "check-exact":
        return [["check", "valuation", "--trials", "1", "--seed=0", "--n", "3"]]
    if workload == "cli-float":
        return [["moment", inp, "--grid=axes", '--weight={"kind":"abs_power","p":0.5}'],
                ["body", "laplace", inp, "--grid=axes"]]
    poly = '{"kind":"poly","coeffs":["1","2"]}'
    expr = json.dumps(general_polytope_form(
        json.loads(poly), json.loads(poly), {"density": json.loads(poly), "atoms": []},
        json.loads(poly), json.loads(poly), {"density": json.loads(poly), "atoms": []}))
    return [["hull", inp], ["faces", inp], ["profile", inp, "--direction=1,0,0"],
            ["moment", inp, "--grid=axes", "--weight=" + poly],
            ["moment", inp, "--grid=axes",
             '--measure={"density":null,"atoms":[["1/2","1"]]}'],
            ["body", "intersection", inp, "--grid=axes"],
            ["eval", inp, "--grid=axes", "--expr=" + expr]]
