"""LP-tau low-discrepancy point generator.

Classic Sobol construction with direction numbers derived from primitive
polynomials over GF(2) (Joe/Kuo initialization values, dimensions up to
16), built by doubling (Bratley and Fox 1988): points 2^b .. 2^(b+1)-1
are points 0 .. 2^b-1 XOR direction integer b+1.  So point n is the XOR
over the set bits of n itself, not of its Gray code, and dimension 1
reproduces the base-2 radical-inverse (van der Corput) sequence exactly;
that equivalence is the correctness anchor for the whole table.  Output
is deterministic: lp_tau(dim, n) is bit-identical on every call and a
prefix of lp_tau(dim, m) for m > n.
"""

import operator

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
    rows = [[1] * _N_BITS]  # dimension 1: every m_b = 1
    for poly, m in zip(_POLYNOMIALS[:dim - 1], map(list, _INITIAL_M)):
        degree = poly.bit_length() - 1
        for b in range(degree, _N_BITS):
            new = m[b - degree] ^ (m[b - degree] << degree)
            for i in range(1, degree):
                if (poly >> (degree - i)) & 1:
                    new ^= m[b - i] << i
            m.append(new)
        rows.append(m)
    return np.array([[0] + [m_b << (_N_BITS - b) for b, m_b in enumerate(m, 1)]
                     for m in rows], dtype=np.uint64)


def _index(value, name):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def lp_tau(dim, count):
    """Points 0 .. count-1 of the dim-dimensional sequence.

    Returns an array of shape (count, dim) with entries in [0, 1).  Point
    index 0 is the origin; prefixes are nested, so enlarging count only
    appends points.  Each power-of-two block is the block before it XOR
    one direction integer, written in place into one uint64 table.
    """
    dim, count = _index(dim, "dim"), _index(count, "count")
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count >= INDEX_LIMIT:
        raise ValueError("sequence index would exceed 32-bit resolution")
    V = _direction_integers(dim)
    acc = np.zeros((count, dim), dtype=np.uint64)
    size, bit = 1, 1
    while size < count:
        end = min(2 * size, count)
        np.bitwise_xor(acc[:end - size], V[:, bit], out=acc[size:end])
        size, bit = 2 * size, bit + 1
    return acc * _SCALE
