"""Chained Bell tests with photon-number-resolved detection of four-mode squeezed vacuum."""

from .chain import (
    BellBreakdown,
    ChainSpec,
    asymptotic_bell_fixed_N,
    bell_fixed_N,
    bell_sv,
    make_chain,
    rhs_sv_asymptotic,
)
from .errors import CapExceededError, EnumerationBudgetError, PhotonNumberRangeError
from .loss import binomial_thin, thinning_matrix
from .lhv import empirical_distance, lhv_minimum, polygon_check
from .oracle import build_singlet, mc_thin, oracle_joint_distribution, rotated_projection_amplitude
from .singlet import (
    MAX_PHOTON_NUMBER,
    JointCountDistribution,
    joint_distribution,
    mean_abs_difference,
    singlet_amplitudes,
)
from .sv import (
    SVSpec,
    correlation_visibility,
    intensity_correlation,
    lambda_sq,
    mean_photons_per_beam,
    n_max_for,
    sv_mixture,
    truncated_mass,
)

__version__ = "0.1.0"

__all__ = [
    "BellBreakdown",
    "CapExceededError",
    "ChainSpec",
    "EnumerationBudgetError",
    "JointCountDistribution",
    "MAX_PHOTON_NUMBER",
    "PhotonNumberRangeError",
    "SVSpec",
    "asymptotic_bell_fixed_N",
    "bell_fixed_N",
    "bell_sv",
    "binomial_thin",
    "build_singlet",
    "correlation_visibility",
    "empirical_distance",
    "intensity_correlation",
    "joint_distribution",
    "lambda_sq",
    "lhv_minimum",
    "make_chain",
    "mc_thin",
    "mean_abs_difference",
    "mean_photons_per_beam",
    "n_max_for",
    "oracle_joint_distribution",
    "polygon_check",
    "rhs_sv_asymptotic",
    "rotated_projection_amplitude",
    "singlet_amplitudes",
    "sv_mixture",
    "thinning_matrix",
    "truncated_mass",
]
