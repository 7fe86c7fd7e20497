"""Identity suites: seeded fuzzers for every relation the operators satisfy.

Each suite returns a ``SuiteResult`` whose rows are JSON-able dicts, one per
checked instance, replayable from (seed, trial index).  Violations carry the
offending inputs plus a shrunk copy (greedy vertex removal, then coordinate
simplification toward 0 and 1).

Exact-path checks demand delta == 0; float paths compare at the configured
relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..geometry.linalg import (
    Matrix, Vector, format_scalar, mat_vec, transpose, vneg, zero_vector,
)
from ..geometry.polytope import (
    Polytope, apply_linear, cone_hull, convex_hull, cube, cut, scale,
    standard_simplex, translate, volume,
)
from ..slicing import weights as W
from ..slicing.moments import laplace_transform, measure_transform, moment_transform
from ..slicing.profile import quadrature_against_profile, section_profile
from ..valuations import (
    EULER_ALL, EULER_MINUS, EULER_PLUS, cone_volume_measure, euler_op,
    supp_compose,
)
from .config import FuzzConfig
from .generators import (
    rand_direction, rand_glplus_matrix, rand_hyperplane, rand_indicator_weight,
    rand_polynomial_weight, rand_polytope, rand_sl_matrix, rand_tabulated_weight,
)
from .oracles import exhaustive_local_euler, local_euler_probes, mc_oracle_moment

ZERO = Fraction(0)


@dataclass
class SuiteResult:
    name: str
    rows: list[dict]
    passed: bool
    summary: dict

    def violations(self) -> list[dict]:
        return [r for r in self.rows if not r["ok"]]


# -- plumbing -----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_scalar(value)
    return repr(float(value))


def _compare(lhs, rhs, exact: bool, tol: float) -> tuple[bool, str]:
    if exact:
        delta = lhs - rhs
        return delta == 0, _fmt(delta)
    lf, rf = float(lhs), float(rhs)
    if lf == rf:  # also two equal infinities, whose difference is nan
        return True, "0.0"
    scale_ref = max(abs(lf), abs(rf), 1e-30)
    rel = abs(lf - rf) / scale_ref
    ok = rel <= tol or abs(lf - rf) <= tol * 1e-6
    return ok, repr(rel)


def _point_json(v) -> list[str]:
    return [format_scalar(c) for c in v]


def _poly_json(P: Polytope) -> list[list[str]]:
    return [_point_json(v) for v in P.vertices]


def _row(suite: str, identity: str, trial: int, ok: bool, exact: bool,
         lhs, rhs, delta, inputs: dict | None = None,
         shrunk: dict | None = None) -> dict:
    row = {
        "suite": suite,
        "identity": identity,
        "trial": trial,
        "ok": bool(ok),
        "exact": bool(exact),
        "lhs": _fmt(lhs),
        "rhs": _fmt(rhs),
        "delta": delta,
    }
    if not ok and inputs is not None:
        row["inputs"] = inputs
    if shrunk is not None:
        row["shrunk_inputs"] = shrunk
    return row


# -- shrinking -----------------------------------------------------------------


def shrink_points(points: list[Vector], violates) -> list[Vector]:
    """Greedy shrink: drop vertices, then simplify coordinates toward 0/1.

    ``violates(points)`` must return True while the counterexample persists;
    evaluation errors count as non-violating.
    """
    def safe(pts):
        try:
            return bool(violates(pts))
        except Exception:
            return False

    pts = list(points)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(pts) and len(pts) > 1:
            trial = pts[:i] + pts[i + 1:]
            if safe(trial):
                pts = trial
                changed = True
            else:
                i += 1
        for i, p in enumerate(pts):
            for j, c in enumerate(p):
                for cand in (Fraction(0), Fraction(1), Fraction(-1),
                             Fraction(round(float(c)))):
                    if cand == c:
                        continue
                    if abs(cand.numerator) + cand.denominator >= \
                            abs(c.numerator) + c.denominator:
                        continue
                    q = tuple(cand if jj == j else cc for jj, cc in enumerate(p))
                    trial = pts[:i] + [q] + pts[i + 1:]
                    if safe(trial):
                        pts = trial
                        changed = True
                        break
    return pts


# -- operator battery -----------------------------------------------------------


def _operator_battery(rng) -> list[tuple[str, bool, object]]:
    """The named operators under test, with per-run random exact weights.

    Returns (name, exact, evaluate(P, x)) triples; every evaluator treats
    empty (None) bodies as 0 and lower-dimensional input per its own
    simplicity convention.
    """
    zeta_m = rand_polynomial_weight(rng)
    zeta_e = rand_polynomial_weight(rng)
    zeta_s = rand_polynomial_weight(rng) if rng.random() < 0.5 \
        else rand_indicator_weight(rng)
    mu = W.measure(rand_polynomial_weight(rng))

    def wrap(fn):
        def ev(P, x):
            if P is None:
                return ZERO
            return fn(P, x)
        return ev

    return [
        ("moment_poly", True, wrap(lambda P, x: moment_transform(P, x, zeta_m))),
        ("measure_density", True, wrap(lambda P, x: measure_transform(P, x, mu))),
        ("euler_minus", True, wrap(lambda P, x: euler_op(P, x, zeta_e, EULER_MINUS))),
        ("euler_plus", True, wrap(lambda P, x: euler_op(P, x, zeta_e, EULER_PLUS))),
        ("euler_all", True, wrap(lambda P, x: euler_op(P, x, zeta_e, EULER_ALL))),
        ("supp_compose", True, wrap(lambda P, x: supp_compose(P, x, zeta_s))),
        ("laplace", False, wrap(lambda P, x: laplace_transform(P, x))),
    ]


# -- suites ----------------------------------------------------------------------


def _cut_identity(suite: str, cfg: FuzzConfig, battery,
                  extra_inputs: dict | None = None) -> SuiteResult:
    """Z(P) + Z(P cap H) = Z(P cap H^+) + Z(P cap H^-) for every
    (name, exact, evaluate(P, x)) of battery(rng), on one cut per trial.

    The battery is drawn from the trial's rng after the body, the hyperplane
    and the direction; exact violations carry a shrunk body.
    """
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound, full_dim=True)
        normal, offset = rand_hyperplane(rng, P)
        x = rand_direction(rng, n)
        minus, plus, mid = cut(P, normal, offset)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x),
                  "hyperplane": [_point_json(normal), format_scalar(offset)],
                  **(extra_inputs or {})}
        for name, exact, ev in battery(rng):
            lhs = ev(P, x) + ev(mid, x)
            rhs = ev(minus, x) + ev(plus, x)
            ok, delta = _compare(lhs, rhs, exact, cfg.tolerance_float)
            shrunk = None
            if not ok and exact:
                def violates(pts, _ev=ev, _x=x, _normal=normal, _offset=offset):
                    Q = convex_hull(pts)
                    mi, pl, md = cut(Q, _normal, _offset)
                    return _ev(Q, _x) + _ev(md, _x) != _ev(mi, _x) + _ev(pl, _x)
                small = shrink_points(list(P.vertices), violates)
                shrunk = {"vertices": [_point_json(v) for v in small]}
            rows.append(_row(suite, name, trial, ok, exact, lhs, rhs,
                             delta, inputs, shrunk))
    return SuiteResult(suite, rows, all(r["ok"] for r in rows), _counts(rows))


def valuation_suite(cfg: FuzzConfig) -> SuiteResult:
    """The cut identity for the whole operator battery."""
    return _cut_identity("valuation", cfg, _operator_battery)


def euler_relation_suite(cfg: FuzzConfig) -> SuiteResult:
    """The full Euler operator collapses to zeta(-h_{-P}(x)), for
    arbitrary weights including pathological tables."""
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, (1, max(2, cfg.vertex_count_range[1])),
                          cfg.coordinate_denominator_bound)
        if rng.random() < 0.4:  # push it off the origin
            P = translate(P, tuple(Fraction(rng.randint(1, 4)) for _ in range(n)))
        x = rand_direction(rng, n)
        lattice = P.face_lattice()
        anchors = [lattice.face_support(f, x) for f in lattice.faces]
        pick = trial % 3
        if pick == 0:
            zeta = rand_polynomial_weight(rng)
        elif pick == 1:
            zeta = rand_indicator_weight(rng)
        else:
            zeta = rand_tabulated_weight(rng, anchors)
        lhs = euler_op(P, x, zeta, EULER_ALL)
        rhs = zeta.value(-P.support(vneg(x)))
        ok, delta = _compare(lhs, rhs, True, cfg.tolerance_float)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x),
                  "weight": zeta.to_dict()}
        shrunk = None
        if not ok:
            def violates(pts, _x=x, _z=zeta):
                Q = convex_hull(pts)
                return euler_op(Q, _x, _z, EULER_ALL) != _z.value(-Q.support(vneg(_x)))
            small = shrink_points(list(P.vertices), violates)
            shrunk = {"vertices": [_point_json(v) for v in small]}
        rows.append(_row("euler", "euler_all_collapse", trial, ok, True,
                         lhs, rhs, delta, inputs, shrunk))
    return SuiteResult("euler", rows, all(r["ok"] for r in rows), _counts(rows))


def local_euler_suite(cfg: FuzzConfig) -> SuiteResult:
    """The local Euler-Schlaefli-Poincare identities, exactly, at probe points."""
    rows = []
    # hand fixture: unit triangle with the origin a vertex: 1 - 2 + 1 = 0
    T2 = standard_simplex(2)
    sm = sum((-1) ** f.dim for f in T2.face_lattice().minus_class())
    sp = sum((-1) ** f.dim for f in T2.face_lattice().plus_class())
    rows.append(_row("local_euler", "triangle_origin_vertex_minus", -1,
                     sm == 0, True, sm, 0, _fmt(Fraction(sm))))
    rows.append(_row("local_euler", "triangle_origin_vertex_plus", -1,
                     sp == 1, True, sp, 1, _fmt(Fraction(sp - 1))))
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, (1, max(2, cfg.vertex_count_range[1])),
                          cfg.coordinate_denominator_bound)
        if rng.random() < 0.3:
            P = translate(P, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        lattice = P.face_lattice()
        from ..geometry.polytope import OUTSIDE, RELATIVE_INTERIOR
        o = zero_vector(n)
        memb = P.point_membership(o)
        sm = sum((-1) ** f.dim for f in lattice.minus_class())
        sp = sum((-1) ** f.dim for f in lattice.plus_class())
        rhs_m = (-1) ** P.dim * (1 if memb == RELATIVE_INTERIOR else 0)
        rhs_p = 0 if memb == OUTSIDE else 1
        ok_classes = (sm == rhs_m) and (sp == rhs_p)
        ok_points = exhaustive_local_euler(P, local_euler_probes(P, rng))
        ok = ok_classes and ok_points
        inputs = {"vertices": _poly_json(P)}
        rows.append(_row("local_euler", "class_sums_and_pointwise", trial, ok,
                         True, int(ok_classes), int(ok_points),
                         "0" if ok else "1", inputs))
    return SuiteResult("local_euler", rows, all(r["ok"] for r in rows), _counts(rows))


FUBINI_FLOAT_WEIGHTS = (
    ("exp_neg", W.exp_neg(), 1e-8),
    ("abs_power_-1/2", W.abs_power(-0.5), 1e-6),
    ("abs_power_1/2", W.abs_power(0.5), 1e-6),
    ("abs_power_3/2", W.abs_power(1.5), 1e-6),
    ("log_abs", W.log_abs(), 1e-6),
)


def fubini_suite(cfg: FuzzConfig) -> SuiteResult:
    """M_zeta P(x) against the section-profile integral, exact and float."""
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound, full_dim=True)
        x = rand_direction(rng, n)
        prof = section_profile(P, x)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x)}

        mass_ok = prof.mass() == volume(P)
        rows.append(_row("fubini", "profile_mass", trial, mass_ok, True,
                         prof.mass(), volume(P), "0" if mass_ok else "1", inputs))

        zeta = rand_polynomial_weight(rng)
        lhs = moment_transform(P, x, zeta)
        rhs = prof.integrate_against(zeta)
        ok, delta = _compare(lhs, rhs, True, cfg.tolerance_float)
        rows.append(_row("fubini", "polynomial_exact", trial, ok, True,
                         lhs, rhs, delta, inputs))

        for name, wspec, tol in FUBINI_FLOAT_WEIGHTS:
            lhs = moment_transform(P, x, wspec)
            rhs, _err = quadrature_against_profile(prof, wspec)
            ok, delta = _compare(lhs, rhs, False, tol)
            rows.append(_row("fubini", name, trial, ok, False, lhs, rhs,
                             delta, inputs))
    return SuiteResult("fubini", rows, all(r["ok"] for r in rows), _counts(rows))


def covariance_suite(cfg: FuzzConfig, group: str = "SL") -> SuiteResult:
    """Z(phi P)(x) == Z P(phi^t x), exact on rational paths.

    group "SL": unimodular shear products, all operators.
    group "GLplus": positive-determinant maps (first trial uses det = 8),
    weight-0 operators only (support compositions and Euler operators).
    """
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound, full_dim=True)
        x = rand_direction(rng, n)
        if group == "SL":
            phi = rand_sl_matrix(rng, n)
        elif trial == 0:
            phi = rand_glplus_matrix(rng, n, diagonal=(Fraction(2),) * n)
        else:
            phi = rand_glplus_matrix(rng, n)
        phiP = apply_linear(P, phi)
        phit_x = mat_vec(transpose(phi), x)

        zeta = rand_polynomial_weight(rng)
        ops: list[tuple[str, bool, object]] = [
            ("supp_compose", True,
             lambda Q, y: supp_compose(Q, y, zeta)),
            ("euler_minus", True,
             lambda Q, y: euler_op(Q, y, zeta, EULER_MINUS)),
            ("euler_all", True,
             lambda Q, y: euler_op(Q, y, zeta, EULER_ALL)),
        ]
        if group == "SL":
            mu = W.measure(rand_polynomial_weight(rng),
                           atoms=[(ZERO, Fraction(1))])
            ops += [
                ("moment_poly", True,
                 lambda Q, y: moment_transform(Q, y, zeta)),
                ("measure_with_atom", True,
                 lambda Q, y: measure_transform(Q, y, mu)),
                ("laplace", False, laplace_transform),
            ]
        inputs = {"vertices": _poly_json(P), "x": _point_json(x),
                  "phi": [_point_json(r) for r in phi]}
        for name, exact, ev in ops:
            lhs = ev(phiP, x)
            rhs = ev(P, phit_x)
            ok, delta = _compare(lhs, rhs, exact, cfg.tolerance_float)
            rows.append(_row(f"covariance_{group}", name, trial, ok, exact,
                             lhs, rhs, delta, inputs))
    name = f"covariance_{group}"
    return SuiteResult(name, rows, all(r["ok"] for r in rows), _counts(rows))


HOMOGENEITY_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(5))


def homogeneity_suite(cfg: FuzzConfig) -> SuiteResult:
    """Degree laws in the body and the log law in the direction."""
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound,
                          contain_origin=True, full_dim=True)
        x = rand_direction(rng, n)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x)}
        q_supp = rng.randint(0, 3)
        q_mom = n + rng.randint(1, 2)
        for alpha in HOMOGENEITY_ALPHAS:
            aP = scale(P, alpha)
            # support powers: degree q
            lhs = P.support(x) ** q_supp
            ok = aP.support(x) ** q_supp == alpha ** q_supp * lhs
            rows.append(_row("homogeneity", f"support_power_q{q_supp}", trial,
                             ok, True, aP.support(x) ** q_supp,
                             alpha ** q_supp * lhs, "0" if ok else "1", inputs))
            # one-sided moment density t^{q-n}: degree q (exact, q > n-1)
            wq = W.signed_power(q_mom - n, "pos")
            lhs = moment_transform(aP, x, wq)
            rhs = alpha ** q_mom * moment_transform(P, x, wq)
            ok, delta = _compare(lhs, rhs, True, cfg.tolerance_float)
            rows.append(_row("homogeneity", f"moment_density_q{q_mom}", trial,
                             ok, True, lhs, rhs, delta, inputs))
            # fractional degree: float path within 1e-9
            wh = W.signed_power(0.5, "pos")
            lhs = moment_transform(aP, x, wh)
            rhs = float(alpha) ** (n + 0.5) * moment_transform(P, x, wh)
            ok, delta = _compare(lhs, rhs, False, 1e-9)
            rows.append(_row("homogeneity", "moment_density_q_half", trial,
                             ok, False, lhs, rhs, delta, inputs))
            # log law: M_log P(alpha x) = M_log P(x) + V(P) log alpha
            lhs = moment_transform(P, tuple(alpha * c for c in x), W.log_abs())
            rhs = moment_transform(P, x, W.log_abs()) + \
                float(volume(P)) * math.log(float(alpha))
            ok, delta = _compare(lhs, rhs, False, 1e-9)
            rows.append(_row("homogeneity", "log_law", trial, ok, False,
                             lhs, rhs, delta, inputs))
    return SuiteResult("homogeneity", rows, all(r["ok"] for r in rows), _counts(rows))


def _dissection_maps(n: int, lam: Fraction) -> tuple[Matrix, Matrix]:
    phi_rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
    phi_rows[0][0] = lam
    phi_rows[1][0] = 1 - lam
    psi_rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
    psi_rows[0][1] = lam
    psi_rows[1][1] = 1 - lam
    phi = tuple(tuple(r) for r in phi_rows)
    psi = tuple(tuple(r) for r in psi_rows)
    return phi, psi


def dissection_suite(cfg: FuzzConfig, dims=(2, 3), scales=(Fraction(1, 2), Fraction(1), Fraction(3)),
                     lambdas=(Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))) -> SuiteResult:
    """The standard-simplex dissection: piece algebra plus operator identity.

    Cutting sT^d by the plane x.((1-lam)e_1 - lam e_2) = 0 must produce
    exactly the two linear images of sT^d and the shared image of the
    reduced simplex; every operator then satisfies the four-term identity
    exactly on rational paths.
    """
    rows = []
    trial = 0
    for d in dims:
        for ambient in sorted({d, max(d, min(3, cfg.n_range[1]))}):
            for s in scales:
                for lam in lambdas:
                    rng = cfg.trial_rng(trial)
                    x = rand_direction(rng, ambient)
                    T = scale(standard_simplex(d, ambient), s)
                    normal = tuple([1 - lam, -lam] + [Fraction(0)] * (ambient - 2))
                    minus, plus, mid = cut(T, normal, 0)
                    phi, psi = _dissection_maps(ambient, lam)
                    phiT = apply_linear(T, phi)
                    psiT = apply_linear(T, psi)
                    hat = convex_hull(
                        [zero_vector(ambient)] +
                        [tuple(s if i == j else Fraction(0) for i in range(ambient))
                         for j in [0] + list(range(2, d))])
                    phihat = apply_linear(hat, phi)
                    pieces_ok = (minus is not None and plus is not None
                                 and mid is not None
                                 and set(minus.vertices) == set(phiT.vertices)
                                 and set(plus.vertices) == set(psiT.vertices)
                                 and set(mid.vertices) == set(phihat.vertices))
                    inputs = {"d": d, "ambient": ambient,
                              "s": format_scalar(s), "lambda": format_scalar(lam),
                              "x": _point_json(x)}
                    rows.append(_row("dissection", "piece_identification", trial,
                                     pieces_ok, True, int(pieces_ok), 1,
                                     "0" if pieces_ok else "1", inputs))
                    for name, exact, ev in _operator_battery(rng):
                        lhs = ev(T, x) + ev(mid, x)
                        rhs = ev(minus, x) + ev(plus, x)
                        ok, delta = _compare(lhs, rhs, exact, cfg.tolerance_float)
                        rows.append(_row("dissection", name, trial, ok, exact,
                                         lhs, rhs, delta, inputs))
                    trial += 1
    return SuiteResult("dissection", rows, all(r["ok"] for r in rows), _counts(rows))


def eu4_suite(cfg: FuzzConfig) -> SuiteResult:
    """Euler-minus drop under coning:
    euler_minus(P) - euler_minus([P,o]) == zeta(-h_{-P}) - zeta(-h_{-[P,o]})."""
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, (1, max(2, cfg.vertex_count_range[1])),
                          cfg.coordinate_denominator_bound)
        if rng.random() < 0.5:
            P = translate(P, tuple(Fraction(rng.randint(0, 3)) for _ in range(n)))
        x = rand_direction(rng, n)
        zeta = rand_polynomial_weight(rng)
        C = cone_hull(P)
        lhs = euler_op(P, x, zeta, EULER_MINUS) - euler_op(C, x, zeta, EULER_MINUS)
        rhs = zeta.value(-P.support(vneg(x))) - zeta.value(-C.support(vneg(x)))
        ok, delta = _compare(lhs, rhs, True, cfg.tolerance_float)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x),
                  "weight": zeta.to_dict()}
        rows.append(_row("eu4", "cone_hull_drop", trial, ok, True, lhs, rhs,
                         delta, inputs))
    return SuiteResult("eu4", rows, all(r["ok"] for r in rows), _counts(rows))


def mc_moment_suite(cfg: FuzzConfig, samples: int = 10 ** 6,
                    required_fraction: float = 0.99) -> SuiteResult:
    """Exact moments against Monte-Carlo bands: 4 sigma, 99% concordance."""
    rows = []
    hits = 0
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound, full_dim=True)
        x = rand_direction(rng, n)
        pick = trial % 3
        if pick == 0:
            zeta = rand_polynomial_weight(rng, max_deg=2)
        elif pick == 1:
            zeta = W.abs_power(1)
        else:
            zeta = rand_indicator_weight(rng)
        exact_val = float(moment_transform(P, x, zeta))
        est, stderr = mc_oracle_moment(P, x, zeta, samples, seed=cfg.seed + trial)
        band = 4 * stderr
        ok = abs(exact_val - est) <= band or (stderr == 0 and exact_val == est)
        hits += ok
        rows.append(_row("mc_moment", "four_sigma_band", trial, ok, False,
                         exact_val, est, repr(band),
                         {"vertices": _poly_json(P), "x": _point_json(x),
                          "weight": zeta.to_dict()}))
    passed = hits >= math.ceil(required_fraction * cfg.trials)
    result = SuiteResult("mc_moment", rows, passed, _counts(rows))
    result.summary["hits"] = hits
    result.summary["required"] = math.ceil(required_fraction * cfg.trials)
    return result


def cone_volume_suite(cfg: FuzzConfig) -> SuiteResult:
    """Cone-volume masses and the integrated Euler relation against them."""
    rows = []
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    atoms = cone_volume_measure(C)
    ok = sorted(m for _, _, m in atoms) == [Fraction(1, 6)] * 6
    rows.append(_row("cone_volume", "cube_masses", -1, ok, True,
                     sum(m for _, _, m in atoms), 1, "0" if ok else "1"))
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        L = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound,
                          contain_origin=True, full_dim=True)
        centroid = tuple(sum(v[i] for v in L.vertices) / len(L.vertices)
                         for i in range(n))
        L = translate(L, vneg(centroid))  # o strictly interior
        atoms = cone_volume_measure(L)
        total_ok = sum(m for _, _, m in atoms) == volume(L)
        rows.append(_row("cone_volume", "total_mass", trial, total_ok, True,
                         sum(m for _, _, m in atoms), volume(L),
                         "0" if total_ok else "1",
                         {"vertices": _poly_json(L)}))
        # integrated Euler relation: ratios h_F(u)/h_L(u) are scale-free in u
        P = rand_polytope(rng, n, (1, 7), cfg.coordinate_denominator_bound)
        zeta = rand_polynomial_weight(rng)
        lattice = P.face_lattice()
        lhs = ZERO
        for f in lattice.faces:
            acc = ZERO
            for normal, _unit, mass in atoms:
                acc += mass * zeta.value(lattice.face_support(f, normal)
                                         / L.support(normal))
            lhs += (-1) ** f.dim * acc
        rhs = ZERO
        for normal, _unit, mass in atoms:
            rhs += mass * zeta.value(-P.support(vneg(normal)) / L.support(normal))
        ok, delta = _compare(lhs, rhs, True, cfg.tolerance_float)
        rows.append(_row("cone_volume", "integrated_euler", trial, ok, True,
                         lhs, rhs, delta,
                         {"L": _poly_json(L), "P": _poly_json(P),
                          "weight": zeta.to_dict()}))
    return SuiteResult("cone_volume", rows, all(r["ok"] for r in rows), _counts(rows))


def closed_forms_suite(cfg: FuzzConfig) -> SuiteResult:
    """Frozen closed forms: simplex volumes, the cube Laplace product, 1/12."""
    rows = []
    for d in range(2, 7):
        v = volume(standard_simplex(d))
        ok = v == Fraction(1, math.factorial(d))
        rows.append(_row("closed_forms", f"simplex_volume_d{d}", -1, ok, True,
                         v, Fraction(1, math.factorial(d)), "0" if ok else "1"))
    m = moment_transform(standard_simplex(2), (1, 0), W.power(2))
    ok = m == Fraction(1, 12)
    rows.append(_row("closed_forms", "triangle_second_moment", -1, ok, True,
                     m, Fraction(1, 12), "0" if ok else "1"))
    C = cube(3)
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        x = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                  for _ in range(3))
        if not all(x):
            x = tuple(c if c else Fraction(1, 7) for c in x)
        lap = laplace_transform(C, x)
        closed = 1.0
        for c in x:
            cf = float(c)
            closed *= (1 - math.exp(-cf)) / cf
        ok, delta = _compare(lap, closed, False, 1e-12)
        rows.append(_row("closed_forms", "cube_laplace_product", trial, ok,
                         False, lap, closed, delta, {"x": _point_json(x)}))
    return SuiteResult("closed_forms", rows, all(r["ok"] for r in rows), _counts(rows))


def fuzz_valuation_identity(expr, cfg: FuzzConfig, exact: bool = True) -> SuiteResult:
    """Cut identity for an arbitrary closed valuation expression."""
    from ..valuations import classified_evaluate
    battery = [("expr_cut_identity", exact, lambda Q, y: classified_evaluate(Q, y, expr))]
    return _cut_identity("fuzz_valuation", cfg, lambda rng: battery,
                         {"expr": expr.to_dict()})


def fuzz_covariance(expr, group: str, cfg: FuzzConfig, exact: bool = True) -> SuiteResult:
    """Covariance of an arbitrary expression under SL or GL+ samples."""
    from ..valuations import classified_evaluate
    rows = []
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        n = rng.randint(*cfg.n_range)
        P = rand_polytope(rng, n, cfg.vertex_count_range,
                          cfg.coordinate_denominator_bound, full_dim=True)
        x = rand_direction(rng, n)
        phi = rand_sl_matrix(rng, n) if group == "SL" \
            else rand_glplus_matrix(rng, n)
        lhs = classified_evaluate(apply_linear(P, phi), x, expr)
        rhs = classified_evaluate(P, mat_vec(transpose(phi), x), expr)
        ok, delta = _compare(lhs, rhs, exact, cfg.tolerance_float)
        inputs = {"vertices": _poly_json(P), "x": _point_json(x),
                  "phi": [_point_json(r) for r in phi], "expr": expr.to_dict()}
        rows.append(_row("fuzz_covariance", f"expr_{group}", trial, ok, exact,
                         lhs, rhs, delta, inputs))
    return SuiteResult("fuzz_covariance", rows, all(r["ok"] for r in rows), _counts(rows))


def _counts(rows) -> dict:
    return {"checks": len(rows), "failures": sum(not r["ok"] for r in rows)}


SUITES = {
    "valuation": valuation_suite,
    "euler": euler_relation_suite,
    "local-euler": local_euler_suite,
    "fubini": fubini_suite,
    "covariance-sl": lambda cfg: covariance_suite(cfg, "SL"),
    "covariance-gl": lambda cfg: covariance_suite(cfg, "GLplus"),
    "homogeneity": homogeneity_suite,
    "dissection": dissection_suite,
    "eu4": eu4_suite,
    "mc-moment": mc_moment_suite,
    "cone-volume": cone_volume_suite,
    "closed-forms": closed_forms_suite,
}


def run_suite(name: str, cfg: FuzzConfig) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](cfg)
