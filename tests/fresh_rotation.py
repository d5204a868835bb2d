"""D_N(theta) grown from D_0 = [[1]] with no shared state, for pinning the cache.

The same recursion as ``svbell.singlet._step``, entry for entry: each entry
comes from the same two products, combined in the same order (``a - s b``
here is ``a + (-s) b`` there, the same IEEE sum) and divided by the same
norm.  So a table read from the library's cached or stacked rotation steps
must equal it bit for bit, signed zeros included.
"""

import math

import numpy as np


def fresh_rotations(N, theta):
    """D_0(theta), ..., D_N(theta), one photon at a time."""
    c, s = (0.0, 1.0) if theta == 0.5 * math.pi else (math.cos(theta), math.sin(theta))
    d = np.ones((1, 1))
    yield d
    for n in range(N):
        root = np.sqrt(np.arange(n + 2.0))
        zeros = np.zeros((1, n + 1))
        up = root[:, None] * np.vstack([zeros, d])
        down = root[::-1, None] * np.vstack([d, zeros])
        half = (n + 2) // 2
        via_b = (c * down[:, :half] - s * up[:, :half]) / root[::-1][:half]
        via_a = (c * up[:, half - 1 :] + s * down[:, half - 1 :]) / root[half:]
        d = np.hstack([via_b, via_a])
        yield d


def fresh_rotation(N, theta):
    *_, d = fresh_rotations(N, theta)
    return d


def reflected_rotation(N, theta):
    """D_N(pi/2 - theta) read off D_N(theta): entry [i, k] is (-1)^i D_N(theta)[i, N - k].

    Bob's V + (pi/2 - theta) output is his H + theta output, so the closing
    angle's table is the adjacent one's with its columns reversed.
    """
    return (-1.0) ** np.arange(N + 1)[:, None] * fresh_rotation(N, theta)[:, ::-1]
