"""Exact transition probabilities for the asymmetric simple exclusion
process with multiple species, evaluated from nested contour integrals,
plus independent finite-window and Monte Carlo cross-checks.
"""

__version__ = "0.1.0"

from .bethe_algebra import (
    BethePoleError,
    RateParams,
    amplitude,
    dispersion,
    f_factor,
    s_factor,
)
from .contour_quadrature import (
    ContourSpec,
    Quadrature,
    admissible_radius_bound,
    balanced_radius,
    node_points,
)
from .markov_oracle import (
    StateSpace,
    build_generator,
    oracle_distribution,
    single_particle_series,
    window_for,
)
from .mc_simulator import ComparisonReport, SimulationResult, compare, simulate
from .permutations import (
    all_permutations,
    canonical_word,
    inverse,
    inversion_classes,
    inversions,
    reduced_words,
    species_orbit,
)
from .species_coeff import (
    BraidReport,
    check_braid_relations,
    coefficient_by_expansion,
    coefficient_table,
    expansion_summands,
    second_class_coefficient,
    species_coefficient,
)
from .transition_prob import (
    DeltaReport,
    DistributionReport,
    TargetValue,
    delta_recovery,
    distribution_over_window,
    inversion_class_sum,
    master_equation_residual,
    sigma_summand,
    single_species_probability,
    transition_probabilities,
    transition_probability,
)

__all__ = [
    "BethePoleError",
    "BraidReport",
    "ComparisonReport",
    "ContourSpec",
    "DeltaReport",
    "DistributionReport",
    "Quadrature",
    "RateParams",
    "SimulationResult",
    "StateSpace",
    "TargetValue",
    "admissible_radius_bound",
    "all_permutations",
    "amplitude",
    "balanced_radius",
    "build_generator",
    "canonical_word",
    "check_braid_relations",
    "coefficient_by_expansion",
    "coefficient_table",
    "compare",
    "delta_recovery",
    "dispersion",
    "distribution_over_window",
    "expansion_summands",
    "f_factor",
    "inverse",
    "inversion_class_sum",
    "inversion_classes",
    "inversions",
    "master_equation_residual",
    "node_points",
    "oracle_distribution",
    "reduced_words",
    "s_factor",
    "second_class_coefficient",
    "sigma_summand",
    "simulate",
    "single_particle_series",
    "single_species_probability",
    "species_coefficient",
    "species_orbit",
    "transition_probabilities",
    "transition_probability",
    "window_for",
]
