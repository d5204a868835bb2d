"""Chained Bell tests with photon-number-resolved detection of four-mode squeezed vacuum.

The package exports the six names the paper's results need; every other
public name is imported from its module, e.g.
``from svbell.singlet import joint_distribution``.
"""

from .chain import bell_fixed_N, make_chain
from .sv import SVSpec, bell_sv, lambda_sq, rhs_sv_asymptotic

__version__ = "0.1.0"

__all__ = ["SVSpec", "bell_fixed_N", "bell_sv", "lambda_sq", "make_chain", "rhs_sv_asymptotic"]
