"""Small planar-geometry helpers shared across the package."""

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
    bit-exact."""
    a = np.asarray(angle, dtype=float)
    wrapped = np.where((a > -np.pi) & (a <= np.pi), a,
                       np.pi - np.mod(np.pi - a, TWO_PI))
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped

