"""LP-tau low-discrepancy point generator.

Classic Sobol construction with direction numbers derived from primitive
polynomials over GF(2) (Joe/Kuo initialization values, dimensions up to
16).  Point n is generated from the plain binary expansion of n, not the
Gray-code shortcut, so dimension 1 reproduces the base-2 radical-inverse
(van der Corput) sequence exactly; that equivalence is the correctness
anchor for the whole table.  Output is deterministic: lp_tau(dim, n) is
bit-identical on every call and a prefix of lp_tau(dim, m) for m > n.
"""

import numpy as np

MAX_DIM = 16
_N_BITS = 32
# Point indices have _N_BITS bits: count must stay below this.
INDEX_LIMIT = 2 ** _N_BITS
_SCALE = 2.0 ** -_N_BITS

# Primitive polynomial (binary encoding, e.g. 11 = x^3 + x + 1) and initial
# direction values m_1..m_s for dimensions 2..16.
_POLYNOMIALS = (3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_INITIAL_M = (
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
    (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49),
)


def _direction_integers(dim):
    """Direction integers V[j][b] = m_b(dim j) << (32 - b), b = 1..32."""
    V = np.zeros((dim, _N_BITS + 1), dtype=np.uint64)
    for b in range(1, _N_BITS + 1):
        V[0, b] = 1 << (_N_BITS - b)  # dimension 1: every m_b = 1
    for j in range(1, dim):
        poly = _POLYNOMIALS[j - 1]
        degree = poly.bit_length() - 1
        m = list(_INITIAL_M[j - 1])
        for b in range(degree, _N_BITS):
            new = m[b - degree] ^ (m[b - degree] << degree)
            for i in range(1, degree):
                if (poly >> (degree - i)) & 1:
                    new ^= m[b - i] << i
            m.append(new)
        for b in range(1, _N_BITS + 1):
            V[j, b] = np.uint64(m[b - 1]) << np.uint64(_N_BITS - b)
    return V


def lp_tau(dim, count):
    """Points 0 .. count-1 of the dim-dimensional sequence.

    Returns an array of shape (count, dim) with entries in [0, 1).  Point
    index 0 is the origin; prefixes are nested, so enlarging count only
    appends points.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count >= INDEX_LIMIT:
        raise ValueError("sequence index would exceed 32-bit resolution")
    V = _direction_integers(dim)
    indices = np.arange(count, dtype=np.uint64)
    acc = np.zeros((count, dim), dtype=np.uint64)
    for bit in range(1, _N_BITS + 1):
        rows = (indices >> np.uint64(bit - 1)) & np.uint64(1)
        if rows.any():
            acc[rows.astype(bool)] ^= V[:, bit]
    return acc * _SCALE
