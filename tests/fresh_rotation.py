"""D_N(theta) grown from D_0 = [[1]] with no shared state, for pinning the cache.

The same recursion, operation for operation, as ``svbell.singlet._step``, so
a table read from the library's per-angle ladder must equal it bit for bit.
"""

import math

import numpy as np


def fresh_rotation(N, theta):
    c, s = (0.0, 1.0) if theta == 0.5 * math.pi else (math.cos(theta), math.sin(theta))
    d = np.ones((1, 1))
    for n in range(N):
        root = np.sqrt(np.arange(n + 2.0))
        zeros = np.zeros((1, n + 1))
        up = root[:, None] * np.vstack([zeros, d])
        down = root[::-1, None] * np.vstack([d, zeros])
        half = (n + 2) // 2
        via_b = (c * down[:, :half] - s * up[:, :half]) / root[::-1][:half]
        via_a = (c * up[:, half - 1 :] + s * down[:, half - 1 :]) / root[half:]
        d = np.hstack([via_b, via_a])
    return d
