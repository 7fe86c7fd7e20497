"""Moment and measure transforms: frozen closed forms and exact laws."""

import math
import random
from fractions import Fraction

import pytest

from valgeo.geometry import (
    convex_hull, cube, scale, standard_simplex, translate, volume,
)
from valgeo.geometry.linalg import vdot
from valgeo.slicing import (
    laplace_transform, measure_transform, moment_transform, simplex_moment,
)
from valgeo.slicing import weights as W


def test_constant_weight_recovers_volume():
    T3 = standard_simplex(3)
    assert moment_transform(T3, (1, 2, 3), W.constant(1)) == Fraction(1, 6)
    assert simplex_moment(T3.vertices, (1, 1, 1), W.constant(1)) == Fraction(1, 6)


def test_triangle_second_moment():
    # int_{T^2} y1^2 dy = int_0^1 t^2 (1 - t) dt = 1/12
    assert moment_transform(standard_simplex(2), (1, 0), W.power(2)) == Fraction(1, 12)


def test_segment_exponential_moment():
    # int_0^1 e^{-t} dt = 1 - e^{-1}
    seg = convex_hull([(0,), (1,)])
    val = moment_transform(seg, (1,), W.exp_neg())
    assert abs(val - (1 - math.exp(-1))) < 1e-14


def test_improper_abs_power_segment():
    # int_{-1}^{1} |t|^{-1/2} dt = 4
    seg = convex_hull([(-1,), (1,)])
    assert abs(moment_transform(seg, (1,), W.abs_power(-0.5)) - 4.0) < 1e-12


def test_improper_abs_power_cube():
    # int over [-1/2,1/2]^3 of |y1|^{-1/2} = 2 sqrt(2)
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    val = moment_transform(C, (1, 0, 0), W.abs_power(-0.5))
    assert abs(val - 2 * math.sqrt(2)) < 1e-12


def test_log_moment_segment():
    # int_{-1/2}^{1/2} log|t| dt = log(1/2) - 1
    seg = convex_hull([(Fraction(-1, 2),), (Fraction(1, 2),)])
    val = moment_transform(seg, (1,), W.log_abs())
    assert abs(val - (math.log(0.5) - 1)) < 1e-14


def test_laplace_cube_product_formula():
    rng = random.Random(2)
    C = cube(3)
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) or Fraction(1, 5)
                  for _ in range(3))
        val = laplace_transform(C, x)
        closed = 1.0
        for c in x:
            closed *= (1 - math.exp(-float(c))) / float(c)
        assert abs(val - closed) <= 1e-13 * abs(closed)


def test_laplace_at_origin_is_volume():
    T3 = standard_simplex(3)
    assert abs(laplace_transform(T3, (0, 0, 0)) - 1 / 6) < 1e-15


def test_simplicity_on_lower_dimensional_bodies():
    seg = convex_hull([(0, 0), (1, 1)])
    assert moment_transform(seg, (1, 0), W.power(2)) == 0
    assert moment_transform(seg, (1, 0), W.exp_neg()) == 0.0
    assert measure_transform(seg, (1, 0), W.lebesgue()) == 0


def test_translation_covariance_binomial():
    # M_{t^k}(P + v)(x) = sum_j C(k,j) (x.v)^{k-j} M_{t^j}(P)(x), exactly
    rng = random.Random(6)
    P = convex_hull([tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(3))
                     for _ in range(7)])
    assert P.dim == 3
    x = (Fraction(2), Fraction(-1), Fraction(1))
    v = (Fraction(1, 2), Fraction(1), Fraction(-1, 3))
    k = 3
    lhs = moment_transform(translate(P, v), x, W.power(k))
    rhs = sum(math.comb(k, j) * vdot(x, v) ** (k - j)
              * moment_transform(P, x, W.power(j)) for j in range(k + 1))
    assert lhs == rhs


def test_scaling_law():
    # M_{t^k}(alpha P) = alpha^{n+k} M_{t^k}(P), exactly
    P = standard_simplex(3)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    for k in (0, 1, 2):
        for alpha in (Fraction(1, 3), Fraction(5, 2)):
            lhs = moment_transform(scale(P, alpha), x, W.power(k))
            assert lhs == alpha ** (3 + k) * moment_transform(P, x, W.power(k))


def test_indicator_moment_is_slab_volume():
    C = cube(3)
    got = moment_transform(C, (1, 0, 0), W.indicator(Fraction(1, 4), Fraction(3, 4)))
    assert got == Fraction(1, 2)


def test_signed_power_is_one_sided():
    seg = convex_hull([(-1,), (1,)])
    assert moment_transform(seg, (1,), W.signed_power(1)) == Fraction(1, 2)
    assert moment_transform(seg, (1,), W.signed_power(1, side="neg")) == Fraction(1, 2)
    assert moment_transform(seg, (1,), W.polynomial([0, 1])) == 0


def test_measure_atoms_read_sections():
    C = cube(3, Fraction(-1, 2), Fraction(1, 2))
    assert measure_transform(C, (1, 0, 0), W.dirac(0)) == 1
    # atom exactly on the top facet level: the facet area counts
    assert measure_transform(C, (1, 0, 0), W.dirac(Fraction(1, 2))) == 1
    # atom outside the body: nothing
    assert measure_transform(C, (1, 0, 0), W.dirac(2)) == 0
    combo = W.measure(W.constant(1), atoms=[(0, Fraction(1, 2))])
    assert measure_transform(C, (1, 0, 0), combo) == volume(C) + Fraction(1, 2)


def test_measure_density_matches_moment():
    T3 = standard_simplex(3)
    x = (1, 0, 0)
    assert measure_transform(T3, x, W.measure(W.power(1))) == \
        moment_transform(T3, x, W.power(1))


def test_errors():
    seg = convex_hull([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        measure_transform(seg, (1, 0), W.dirac(0))       # atoms on lower dim
    with pytest.raises(ValueError):
        measure_transform(standard_simplex(2), (0, 0), W.lebesgue())
    with pytest.raises(ValueError):
        moment_transform(standard_simplex(2), (1, 0), W.tabulated([(0, 1)]))
    with pytest.raises(ValueError):
        moment_transform(standard_simplex(2), (0, 0), W.abs_power(0.5))


def test_reflected_weight_equals_negated_direction():
    rng = random.Random(13)
    P = convex_hull([tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(2))
                     for _ in range(6)])
    x = (Fraction(1), Fraction(-2))
    zeta = W.signed_power(2)
    refl = W.signed_power(2, reflect=True)
    assert moment_transform(P, x, refl) == \
        moment_transform(P, tuple(-c for c in x), zeta)


@pytest.mark.parametrize("weight, expected", [
    # int_{-1}^{1} zeta(t) (1 - |t|) dt over the triangle's sections
    (W.abs_power(0.5), 8 / 15),                       # 2 (2/3 - 2/5)
    (W.signed_power(0.5, "pos"), 4 / 15),
    (W.signed_power(0.5, "neg"), 4 / 15),
    (W.signed_power(0.5, "pos", reflect=True), 4 / 15),
    (W.log_abs(), -3 / 2),                            # 2 (-1 + 1/4)
    (W.abs_power(-0.5), 8 / 3),                       # 2 (2 - 2/3)
], ids=["abs_power", "signed_pos", "signed_neg", "signed_pos_reflected",
        "log_abs", "abs_power_neg"])
def test_float_weights_across_height_zero(weight, expected):
    # one simplex straddling the zero level of x, integrated in one piece
    S = convex_hull([(-1, 0), (1, 0), (0, 1)])
    val = moment_transform(S, (1, 0), weight)
    assert abs(val - expected) < 1e-12


@pytest.mark.parametrize("weight", [W.exp_neg(), W.abs_power(0.5), W.log_abs()],
                         ids=["exp_neg", "abs_power", "log_abs"])
@pytest.mark.parametrize("eps", ["1e-20", "1e-30", "1e-60"])
def test_nearly_confluent_heights_match_confluent_value(weight, eps):
    # heights 0, 1, 1 + eps, 1 + 2 eps: the precision must follow the exact
    # node gaps, or the divided difference cancels to noise
    T3 = standard_simplex(3)
    eps = Fraction(eps)
    confluent = moment_transform(T3, (1, 1, 1), weight)
    near = moment_transform(T3, (1, 1 + eps, 1 + 2 * eps), weight)
    assert abs(near - confluent) <= 1e-12 * abs(confluent)


@pytest.mark.parametrize("weight, zeta_at_2", [
    (W.exp_neg(), math.exp(-2)), (W.abs_power(0.5), math.sqrt(2)),
    (W.log_abs(), math.log(2)),
], ids=["exp_neg", "abs_power", "log_abs"])
@pytest.mark.parametrize("eps", ["1e-20", "1e-60"])
def test_tiny_simplex_far_from_zero(weight, zeta_at_2, eps):
    # heights 2, 2 + eps, 2 + 2 eps, 2 + 3 eps: the gaps are small against
    # the heights, not against their span, and the value is vol * zeta(2)
    eps = Fraction(eps)
    P = translate(scale(standard_simplex(3), eps), (2, 0, 0))
    expected = float(eps ** 3 / 6) * zeta_at_2
    val = moment_transform(P, (1, 2, 3), weight)
    assert abs(val - expected) <= 1e-12 * expected


def test_dirichlet_closed_form_high_dimensions():
    # int_{T^n} y1^k dy = k!/(n+k)!  (Dirichlet integral; matches 1/12 at
    # n = 2, k = 2 and the volume 1/n! at k = 0)
    for n, k in [(2, 2), (3, 2), (4, 2), (5, 3), (6, 1)]:
        got = moment_transform(standard_simplex(n),
                               (1,) + (0,) * (n - 1), W.power(k))
        assert got == Fraction(math.factorial(k), math.factorial(n + k))


def test_simplex_moment_power_direct():
    T2 = standard_simplex(2)
    assert simplex_moment(T2.vertices, (1, 0), W.power(2)) == Fraction(1, 12)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        simplex_moment(T2.vertices, (0, 0), W.indicator(0, 1))


def test_laplace_sl3_covariance_tight():
    from valgeo.geometry import apply_linear
    from valgeo.geometry.linalg import mat_vec, transpose
    from valgeo.harness.generators import rand_sl_matrix
    rng = random.Random(44)
    P = convex_hull([tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(3))
                     for _ in range(7)])
    assert P.dim == 3
    x = (Fraction(1), Fraction(-1, 2), Fraction(2))
    for _ in range(5):
        phi = rand_sl_matrix(rng, 3)
        lhs = laplace_transform(apply_linear(P, phi), x)
        rhs = laplace_transform(P, mat_vec(transpose(phi), x))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_exact_fubini_for_indicator_and_signed_weights():
    from valgeo.slicing import section_profile
    rng = random.Random(45)
    for _ in range(8):
        P = convex_hull([tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                               for _ in range(3)) for _ in range(8)])
        if P.dim != 3:
            continue
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not any(x):
            continue
        prof = section_profile(P, x)
        for zeta in (W.indicator(Fraction(-1, 2), Fraction(1, 3)),
                     W.signed_power(2), W.abs_power(1),
                     W.signed_power(1, side="neg", reflect=True)):
            assert moment_transform(P, x, zeta) == prof.integrate_against(zeta)
