"""Exact convex-geometry valuations toolkit.

Rational polytopes with face lattices and signed face classes, exact
hyperplane-section profiles, weighted moment transforms through divided
differences, the face-signed Euler operators and their derived bodies, plus a seeded identity-checking harness and a batch CLI.
"""

from .geometry import (
    Polytope, convex_hull, cut, minkowski_sum, reflect, cone_hull, scale,
    translate, apply_linear, volume, volume_full, euler_characteristic,
    standard_simplex, cube, polytope_to_json, polytope_from_json,
)
from .slicing import (
    WeightSpec, MeasureSpec, SectionProfile, section_at, section_profile,
    quadrature_against_profile, simplex_moment, moment_transform,
    measure_transform, laplace_transform, divided_difference, weights,
)
from .valuations import (
    StarBodyFn, Term, ValuationExpr, classified_evaluate, cone_volume_integral,
    cone_volume_measure, difference_body_support, euler_op, expr_from_json,
    intersection_body_gauge_inv, l0_polar_moment_gauge, lp_minkowski_combine,
    lq_harmonic_combine, moment_body_support, polar_moment_gauge, supp_compose,
)
from .harness import FuzzConfig, run_suite

__version__ = "0.1.0"
