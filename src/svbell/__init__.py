"""Chained Bell tests with photon-number-resolved detection of four-mode squeezed vacuum."""

from .chain import BellBreakdown, bell_fixed_N, bell_sv, make_chain, rhs_sv_asymptotic
from .lhv import lhv_minimum
from .loss import binomial_thin
from .oracle import mc_thin, oracle_joint_distribution
from .singlet import MAX_PHOTON_NUMBER, JointCountDistribution, joint_distribution, mean_abs_difference
from .sv import CapExceededError, SVSpec, lambda_sq, sv_mixture

__version__ = "0.1.0"

__all__ = [
    "BellBreakdown",
    "CapExceededError",
    "JointCountDistribution",
    "MAX_PHOTON_NUMBER",
    "SVSpec",
    "bell_fixed_N",
    "bell_sv",
    "binomial_thin",
    "joint_distribution",
    "lambda_sq",
    "lhv_minimum",
    "make_chain",
    "mc_thin",
    "mean_abs_difference",
    "oracle_joint_distribution",
    "rhs_sv_asymptotic",
    "sv_mixture",
]
