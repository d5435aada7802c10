import tracemalloc

import numpy as np
import pytest

from legsynth.lptau import MAX_DIM, lp_tau


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

    @pytest.mark.parametrize("count, message", [
        (-1, "count must be non-negative"),
        (2 ** 32, "exceed 32-bit resolution"),
    ], ids=["minus-1", "2^32"])
    def test_count_out_of_range(self, count, message):
        # refused before any point array is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                lp_tau(1, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

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
