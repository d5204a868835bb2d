"""The squeezed vacuum's series terms and its Gaussian closed form, at any photon number.

The library stops at MAX_PHOTON_NUMBER photons per beam, like its count
tables; a series that runs past it takes its terms above it from here.

    lambda_N^2 = (N+1) tanh(gamma)^(2N) / cosh(gamma)^4
    B_N(L -> infinity) = -(N^2/2 + N + 1/2)/(N+1) for odd N, -(N^2/2 + N)/(N+1) for even N
    <|m - n|>_theta = 2A / sqrt(1 + 4A),  A = eta s^2 (1 - eta + eta c^2 sin^2 theta),

s = sinh(gamma), c = cosh(gamma): Alice's and Bob's counted modes form a
two-mode Gaussian state whose count difference is discrete-Laplace
distributed (Weedbrook et al., RMP 84, 621 (2012)).
"""

import math

from svbell.chain import asymptotic_bell_fixed_N
from svbell.singlet import MAX_PHOTON_NUMBER
from svbell.sv import lambda_sq


def weight(N, gamma):
    """lambda_N^2 by the direct formula, at any N."""
    return (N + 1) * math.tanh(gamma) ** (2 * N) / math.cosh(gamma) ** 4


def fixed_N_limit(N):
    """The 2N-photon singlet's L -> infinity Bell value, at any N."""
    return -(N + 1) / 2 if N % 2 else -(N * (N + 2)) / (2 * (N + 1))


def series_weight(N, gamma):
    """The library's lambda_sq up to MAX_PHOTON_NUMBER, the direct formula above it."""
    return lambda_sq(N, gamma) if N <= MAX_PHOTON_NUMBER else weight(N, gamma)


def series_limit(N):
    """The library's asymptotic_bell_fixed_N up to MAX_PHOTON_NUMBER, the direct formula above it."""
    return asymptotic_bell_fixed_N(N) if N <= MAX_PHOTON_NUMBER else fixed_N_limit(N)


def mean_distance(gamma, eta, theta):
    """<|m - n|>_theta of the untruncated squeezed vacuum at efficiency eta."""
    s, c = math.sinh(gamma), math.cosh(gamma)
    a = eta * s**2 * (1.0 - eta) + (eta * s * c * math.sin(theta)) ** 2
    return 2.0 * a / math.sqrt(1.0 + 4.0 * a)
