"""Harness: determinism, shrinking, oracles, expression fuzzers."""

import random
from fractions import Fraction

from valgeo.geometry import convex_hull, cut, standard_simplex, volume, volume_full
from valgeo.harness import (
    FuzzConfig, fuzz_covariance, fuzz_valuation_identity, mc_oracle_moment,
    run_suite, shrink_points,
)
from valgeo.slicing import moment_transform
from valgeo.slicing import weights as W
from valgeo import valuations as V


def test_trial_rng_replays():
    cfg = FuzzConfig(seed=99, trials=3)
    a = [cfg.trial_rng(i).random() for i in range(3)]
    b = [cfg.trial_rng(i).random() for i in range(3)]
    assert a == b
    assert cfg.trial_rng(0).random() != cfg.trial_rng(1).random()


def test_suites_are_deterministic():
    cfg = FuzzConfig(seed=4, trials=6)
    first = run_suite("euler", cfg)
    second = run_suite("euler", cfg)
    assert first.rows == second.rows


def test_all_suites_pass_small():
    cfg = FuzzConfig(seed=17, trials=6)
    for name in ("valuation", "euler", "local-euler", "fubini",
                 "covariance-sl", "covariance-gl", "eu4", "cone-volume"):
        result = run_suite(name, cfg)
        assert result.passed, (name, result.violations()[:2])
    assert run_suite("homogeneity", FuzzConfig(seed=17, trials=3)).passed
    assert run_suite("dissection", FuzzConfig(seed=17, trials=1)).passed
    assert run_suite("closed-forms", FuzzConfig(seed=17, trials=3)).passed
    assert run_suite("mc-moment", FuzzConfig(seed=17, trials=3)).passed


def test_shrinker_reduces_and_preserves_violation():
    # a fake invariant that fails whenever the body has a vertex with a
    # positive first coordinate; the shrinker must keep that property while
    # simplifying toward a single simple point
    points = [(Fraction(7, 3), Fraction(5, 4)), (Fraction(-2), Fraction(1)),
              (Fraction(9, 7), Fraction(-3, 2)), (Fraction(0), Fraction(0))]

    def violates(pts):
        return any(p[0] > 0 for p in pts)

    small = shrink_points(points, violates)
    assert violates(small)
    assert len(small) == 1
    assert small[0][0] in (Fraction(1), Fraction(2))  # simplified coordinate


def test_shrinker_survives_evaluation_errors():
    def violates(pts):
        if len(pts) < 2:
            raise RuntimeError("needs two points")
        return pts[0][0] != 0

    small = shrink_points([(Fraction(5), Fraction(2)), (Fraction(3), Fraction(1))],
                          violates)
    assert len(small) == 2 and small[0][0] != 0


def test_mc_oracle_brackets_known_volume():
    T3 = standard_simplex(3)
    est, stderr = mc_oracle_moment(T3, (1, 1, 1), W.constant(1), 200_000, seed=5)
    assert abs(est - float(volume(T3))) <= 4 * stderr


def test_mc_oracle_brackets_known_moment():
    T2 = standard_simplex(2)
    exact = float(moment_transform(T2, (1, 0), W.power(2)))
    est, stderr = mc_oracle_moment(T2, (1, 0), W.power(2), 200_000, seed=6)
    assert abs(est - exact) <= 4 * stderr


def test_fuzz_valuation_identity_on_representation_form():
    rng = random.Random(0)
    expr = V.continuous_origin_form(
        W.polynomial([1, Fraction(1, 2)]),
        W.measure(W.polynomial([0, 1]), atoms=()))
    cfg = FuzzConfig(seed=23, trials=10)
    result = fuzz_valuation_identity(expr, cfg)
    assert result.passed, result.violations()[:1]


def test_fuzz_covariance_sl_exact():
    expr = V.regular_origin_form(
        W.indicator(0, 1), W.polynomial([1, 1]), W.measure(W.power(2)))
    cfg = FuzzConfig(seed=29, trials=10)
    assert fuzz_covariance(expr, "SL", cfg).passed


def test_fuzz_covariance_glplus_weight_zero():
    expr = V.ValuationExpr((
        V.Term("supp_compose", weight=W.polynomial([0, 1, 1])),
        V.Term("euler_minus", weight=W.indicator(0, 2)),
        V.Term("euler_all", weight=W.polynomial([1, 2]), reflect_body=True),
    ))
    cfg = FuzzConfig(seed=31, trials=10)
    assert fuzz_covariance(expr, "GLplus", cfg).passed


def test_suites_hold_in_dimension_two():
    # the weight-0 operators stay covariant and additive in the plane
    cfg = FuzzConfig(seed=53, trials=8, n_range=(2, 2))
    assert run_suite("valuation", cfg).passed
    assert run_suite("covariance-gl", cfg).passed
    assert run_suite("euler", cfg).passed


def test_cut_identity_reports_violations_with_shrunk_inputs():
    # vol(P)^2 is not additive: every cut through the body violates it
    from valgeo.harness.suites import _cut_identity

    def battery(rng):
        return [("volume_squared", True, lambda P, x: volume_full(P) ** 2)]

    result = _cut_identity("probe", FuzzConfig(seed=7, trials=3, n_range=(2, 2)),
                           battery, {"note": "vol^2"})
    bad = result.violations()
    assert bad and not result.passed
    for row in bad:
        assert {"vertices", "x", "hyperplane", "note"} <= set(row["inputs"])
        (normal, offset) = row["inputs"]["hyperplane"]
        Q = convex_hull(row["shrunk_inputs"]["vertices"])
        minus, plus, mid = cut(Q, normal, offset)
        assert volume_full(Q) ** 2 + volume_full(mid) ** 2 != \
            volume_full(minus) ** 2 + volume_full(plus) ** 2


def test_violation_reporting_carries_inputs():
    # run a suite against a deliberately broken comparison by monkeypatching
    # is unnecessary: instead check that rows carry the documented fields
    cfg = FuzzConfig(seed=41, trials=2)
    rows = run_suite("valuation", cfg).rows
    assert all({"suite", "identity", "trial", "ok", "exact", "lhs", "rhs",
                "delta"} <= set(r) for r in rows)


def test_compare_treats_equal_floats_as_agreeing():
    from valgeo.harness.suites import _compare
    inf = float("inf")
    assert _compare(inf, inf, False, 1e-12) == (True, "0.0")
    assert _compare(-inf, -inf, False, 1e-12) == (True, "0.0")
    assert not _compare(inf, 1e308, False, 1e-12)[0]
    assert not _compare(float("nan"), float("nan"), False, 1e-12)[0]


def test_overflowing_laplace_rows_pass():
    # heights near -700 push exp(-t) past a double on both sides of the
    # identity; two equal infinities agree
    import contextlib
    import io
    from valgeo.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", "covariance-sl", "--trials", "1", "--seed", "3000641",
                     "--n", "3"])
    assert code == 0
