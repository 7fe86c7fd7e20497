from .config import FuzzConfig
from .suites import (
    SUITES, SuiteResult, run_suite, fuzz_valuation_identity, fuzz_covariance,
    valuation_suite, euler_relation_suite, local_euler_suite, fubini_suite,
    covariance_suite, homogeneity_suite, dissection_suite, eu4_suite,
    mc_moment_suite, cone_volume_suite, closed_forms_suite, shrink_points,
)
from .oracles import (
    mc_oracle_moment, brute_facets, brute_face_vertex_sets,
    exhaustive_local_euler, local_euler_probes,
)
