"""Small planar-geometry helpers shared across the package."""

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def rot2(angle):
    """Counter-clockwise 2x2 rotation matrix.

    Accepts a scalar (returns shape (2, 2)) or an array of angles
    (returns shape angle.shape + (2, 2)).
    """
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    out = np.empty(a.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def wrap_pi(angle):
    """Wrap angle(s) into (-pi, pi]; values already in range pass through
    bit-exact, others become pi - ((pi - a) mod 2 pi), and NaN or +-inf
    give NaN.

    A scalar (a number or a 0-d array) gives a Python float, computed with
    Python's float `%`, whose remainder is the one `np.mod` computes.
    Anything else gives a new float array of its shape; when every entry is
    in range it is a copy, and no `np.mod` runs.
    """
    if isinstance(angle, float) or np.ndim(angle) == 0:
        a = float(angle)
        return a if -math.pi < a <= math.pi else math.pi - (math.pi - a) % TWO_PI
    a = np.asarray(angle, dtype=float)
    inside = (a > -np.pi) & (a <= np.pi)
    if inside.all():
        return a.copy()
    return np.where(inside, a, np.pi - np.mod(np.pi - a, TWO_PI))
