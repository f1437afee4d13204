"""Measure-independent multi-frequency signal design for Markov-function
responses: certified coefficient constructions, discrete-measure oracles,
time-domain bounds, and an operator-valued verification surrogate."""

from .design import (
    PoleSet,
    SignalDesign,
    design_derivative_target,
    design_frequency_target,
    design_moments,
    design_unit,
    design_with_zero_factor,
    verify_sup,
)
from .geometry import RegionSpec, in_region_H, joukowski_radius, segment_distance
from .measure import (
    DiscreteMeasure,
    markov_eval,
    moments,
    random_measure_with_moments,
    worst_case_point_mass,
)
from .operators import (
    HermitianOperator,
    operator_sweep,
    random_hermitian_in_spectrum,
    resolvent_combination,
    verify_operator_bound,
)
from .polynomial import (
    ComplexPolynomial,
    cheb_eval,
    cheb_eval_deriv,
    monic_cheb,
    monic_from_roots,
    poly_divmod,
)
from .response import (
    MaxwellPhase,
    SystemModel,
    TimeGrid,
    model_z,
    response_bounds,
    simulate_response,
    single_frequency_response,
    synthesize_input,
)

__all__ = [
    "PoleSet",
    "SignalDesign",
    "design_unit",
    "design_moments",
    "design_frequency_target",
    "design_derivative_target",
    "design_with_zero_factor",
    "verify_sup",
    "RegionSpec",
    "in_region_H",
    "joukowski_radius",
    "segment_distance",
    "DiscreteMeasure",
    "markov_eval",
    "moments",
    "random_measure_with_moments",
    "worst_case_point_mass",
    "HermitianOperator",
    "operator_sweep",
    "random_hermitian_in_spectrum",
    "resolvent_combination",
    "verify_operator_bound",
    "ComplexPolynomial",
    "cheb_eval",
    "cheb_eval_deriv",
    "monic_cheb",
    "monic_from_roots",
    "poly_divmod",
    "MaxwellPhase",
    "SystemModel",
    "TimeGrid",
    "model_z",
    "response_bounds",
    "simulate_response",
    "single_frequency_response",
    "synthesize_input",
]

__version__ = "0.1.0"
