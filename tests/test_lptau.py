import functools
import tracemalloc

import numpy as np
import pytest

from legsynth.lptau import (
    _INITIAL_M, _N_BITS, _POLYNOMIALS, MAX_DIM, _direction_integers, lp_tau)


def reference_direction_integers(dim):
    """Direction integers V[j][b] = m_b(dim j) << (32 - b), b = 1..32,
    stored entry by entry: the reference for lp_tau's own builder."""
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


ORACLE_COUNTS = (0, 1, 2, 3, 255, 256, 257, 1000, 4097)


@functools.cache
def per_point_oracle():
    """Points 0 .. max(ORACLE_COUNTS)-1 in all MAX_DIM dimensions, each the
    Python-int XOR of the direction integers of the set bits of n, scaled
    by 2^-32.  Coordinate j of a point does not depend on how many
    dimensions are drawn, so lp_tau(dim, count) is a top-left block."""
    columns = reference_direction_integers(MAX_DIM).T.tolist()
    rows = []
    for n in range(max(ORACLE_COUNTS)):
        point, bit = [0] * MAX_DIM, 1
        while n >> (bit - 1):
            if (n >> (bit - 1)) & 1:
                point = [p ^ v for p, v in zip(point, columns[bit])]
            bit += 1
        rows.append([p * 2.0 ** -_N_BITS for p in point])
    return np.array(rows)


def radical_inverse_base2(n):
    """Van der Corput oracle: reflect the binary digits of n about the
    radix point."""
    x, f = 0.0, 0.5
    while n:
        if n & 1:
            x += f
        f *= 0.5
        n >>= 1
    return x


class TestDimensionOne:
    def test_matches_radical_inverse_for_256_points(self):
        points = lp_tau(1, 256).ravel()
        oracle = np.array([radical_inverse_base2(n) for n in range(256)])
        assert np.array_equal(points, oracle)

    def test_first_points_after_zero(self):
        points = lp_tau(1, 5)[1:].ravel()
        assert np.array_equal(points, [0.5, 0.25, 0.75, 0.125])


class TestSequenceContract:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_unit_cube(self, dim):
        points = lp_tau(dim, 512)
        assert points.min() >= 0.0
        assert points.max() < 1.0

    def test_deterministic(self):
        a = lp_tau(5, 135)
        b = lp_tau(5, 135)
        assert np.array_equal(a, b)

    def test_prefixes_are_nested(self):
        assert np.array_equal(lp_tau(3, 150)[:100], lp_tau(3, 100))

    @pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
    def test_prefixes_are_nested_across_a_power_of_two(self, dim):
        assert np.array_equal(lp_tau(dim, 1025)[:1024], lp_tau(dim, 1024))

    @staticmethod
    def assert_refused_before_allocation(dim, count, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                lp_tau(dim, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("count, message", [
        (-1, "count must be non-negative"),
        (2 ** 32, "exceed 32-bit resolution"),
    ], ids=["minus-1", "2^32"])
    def test_count_out_of_range(self, count, message):
        self.assert_refused_before_allocation(1, count, message)

    @pytest.mark.parametrize("dim, count, message", [
        (2, 2.5, "count must be an integer, got 2.5"),
        (2, 4.0, "count must be an integer, got 4.0"),
        (2, "4", "count must be an integer, got '4'"),
        (2, 2.0 ** 40, "count must be an integer"),
        (2.5, 4, "dim must be an integer, got 2.5"),
        (None, 4, "dim must be an integer, got None"),
    ], ids=["count-2.5", "count-4.0", "count-str", "count-2^40-float",
            "dim-2.5", "dim-None"])
    def test_non_integer_argument_refused(self, dim, count, message):
        self.assert_refused_before_allocation(dim, count, message)

    def test_numpy_integers_accepted(self):
        assert np.array_equal(lp_tau(np.int64(3), np.uint32(100)),
                              lp_tau(3, 100))

    def test_dim_out_of_range(self):
        with pytest.raises(ValueError):
            lp_tau(0, 10)
        with pytest.raises(ValueError):
            lp_tau(MAX_DIM + 1, 10)

    def test_max_axis_gap_beats_uniform_random(self):
        # low-discrepancy proxy: the largest per-axis gap (edges included)
        # must be smaller than that of an equally sized random set
        def max_gap(points):
            worst = 0.0
            for axis in range(points.shape[1]):
                xs = np.sort(points[:, axis])
                gaps = np.diff(np.concatenate([[0.0], xs, [1.0]]))
                worst = max(worst, gaps.max())
            return worst

        quasi = lp_tau(5, 1024)
        random = np.random.default_rng(123).random((1024, 5))
        assert max_gap(quasi) < max_gap(random)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_point_sets_match_scipy_sobol(self, dim):
        # scipy generates the same digital net in Gray-code order, so each
        # power-of-two block holds the same point set
        qmc = pytest.importorskip("scipy.stats.qmc")
        mine = np.sort(lp_tau(dim, 256), axis=0)
        theirs = np.sort(qmc.Sobol(d=dim, scramble=False).random(256), axis=0)
        assert np.array_equal(mine, theirs)


class TestAgainstPerPointOracle:
    # the scipy comparison sorts each axis, so it cannot see points out of
    # order inside a power-of-two block; this oracle fixes every index

    @pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
    def test_direction_integers_match_reference(self, dim):
        mine = _direction_integers(dim)
        assert mine.dtype == np.uint64
        assert np.array_equal(mine, reference_direction_integers(dim))

    @pytest.mark.parametrize("count", ORACLE_COUNTS)
    @pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
    def test_every_point_matches_bitwise(self, dim, count):
        points = lp_tau(dim, count)
        assert points.shape == (count, dim)
        assert points.dtype == np.float64
        oracle = per_point_oracle()[:count, :dim]
        assert points.tobytes() == oracle.tobytes()

    def test_peak_memory_is_two_tables(self):
        # the build writes each block in place into the uint64 table, whose
        # scaled float copy is returned: about 2x, against 4x for a build
        # that concatenates the blocks
        tracemalloc.start()
        try:
            points = lp_tau(5, 2 ** 16 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * points.nbytes
