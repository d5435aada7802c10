"""SvgPlot window bounds where a zero span's pad rounds away."""

import re

import numpy as np
import pytest

from legsynth.svgplot import SvgPlot


@pytest.mark.parametrize("equal_aspect", [False, True])
@pytest.mark.parametrize("value", [1e17, -3e20, 2.0 ** 60, 1e300])
def test_constant_series_far_out_renders(equal_aspect, value):
    # above about 2^53, value +- 0.25 rounds back to value
    plot = SvgPlot(equal_aspect=equal_aspect)
    plot.add_line([value, value], [0.0, 1.0])
    plot.add_scatter([value], [value])
    svg = plot.render()
    numbers = re.findall(r'(?:x|y|cx|cy)="([^"]+)"', svg)
    numbers += re.findall(r"-?[\d.]+(?:e[-+]?\d+)?",
                          " ".join(re.findall(r'points="([^"]+)"', svg)))
    assert numbers and np.all(np.isfinite(np.array(numbers, dtype=float)))


@pytest.mark.parametrize("value", [0.0, 5.0, 1e10, 2.0 ** 51, 2.0 ** 52,
                                   2.0 ** 53, 2.0 ** 54, 1e17])
def test_zero_span_pad_unchanged_where_it_survives(value):
    plot = SvgPlot()
    plot.add_line([value, value], [value, value])
    x0, x1, y0, y1 = plot._bounds()
    half = value / 2
    low, high = half - 0.25, half + 0.25
    if low != high:
        # a window that rendered before keeps every bound, and so every byte
        assert (x0, x1) == (y0, y1) == (low, high)
    else:
        assert (x0, x1) == (y0, y1) == (np.nextafter(half, -np.inf),
                                        np.nextafter(half, np.inf))
