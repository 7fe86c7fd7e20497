from . import weights
from .weights import WeightSpec, MeasureSpec
from .profile import (
    SectionProfile, section_at, section_profile, quadrature_against_profile,
)
from .moments import (
    simplex_moment, moment_transform, measure_transform, laplace_transform,
)
from .divdiff import divided_difference
