"""SvgPlot window bounds where a zero span's pad rounds away, the
refusal of a plot with nothing in it, and the array render against the
per-point reference render."""

import re

import numpy as np
import pytest

from legsynth.svgplot import _COLORS, _HEIGHT, _MARGIN, _WIDTH, SvgPlot


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


def test_empty_plot_refused():
    with pytest.raises(ValueError, match="nothing to plot"):
        SvgPlot().render()


class PerPointPlot(SvgPlot):
    """Reference render: transforms each point as a numpy scalar."""

    def render(self, comment=None):
        if not self.series:
            raise ValueError("nothing to plot")
        x0, x1, y0, y1 = self._bounds()
        iw = _WIDTH - 2 * _MARGIN
        ih = _HEIGHT - 2 * _MARGIN

        def tx(x):
            return _MARGIN + (x - x0) / (x1 - x0) * iw

        def ty(y):
            return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * ih

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{_WIDTH}" height="{_HEIGHT}">']
        if comment:
            safe = comment.replace("--", "- -")
            parts.append(f"<!-- {safe} -->")
        parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" '
                     f'fill="white"/>')
        parts.append(
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{iw}" '
            f'height="{ih}" fill="none" stroke="#999"/>')
        if self.title:
            parts.append(f'<text x="{_WIDTH / 2}" y="{_MARGIN - 15}" '
                         f'text-anchor="middle" font-size="14">'
                         f'{self.title}</text>')
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            hx, hy = x0 + tick * (x1 - x0), y0 + tick * (y1 - y0)
            xv, yv = 2 * hx, 2 * hy
            parts.append(f'<text x="{tx(hx):.1f}" y="{_HEIGHT - _MARGIN + 18}" '
                         f'text-anchor="middle" font-size="10">{xv:.4g}</text>')
            parts.append(f'<text x="{_MARGIN - 6}" y="{ty(hy):.1f}" '
                         f'text-anchor="end" font-size="10">{yv:.4g}</text>')

        legend_y = _MARGIN + 14
        for i, series in enumerate(self.series):
            kind, xs, ys, label = series[0], series[1], series[2], series[3]
            color = series[4] or _COLORS[i % len(_COLORS)]
            if kind == "line":
                points = " ".join(f"{tx(x):.2f},{ty(y):.2f}"
                                  for x, y in zip(xs / 2, ys / 2))
                parts.append(f'<polyline points="{points}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
            else:
                radius = series[5]
                for x, y in zip(xs / 2, ys / 2):
                    parts.append(f'<circle cx="{tx(x):.2f}" cy="{ty(y):.2f}" '
                                 f'r="{radius}" fill="{color}" '
                                 f'fill-opacity="0.7"/>')
            if label:
                parts.append(f'<rect x="{_WIDTH - _MARGIN - 130}" '
                             f'y="{legend_y - 9}" width="12" height="12" '
                             f'fill="{color}"/>')
                parts.append(f'<text x="{_WIDTH - _MARGIN - 112}" '
                             f'y="{legend_y + 2}" font-size="11">{label}</text>')
                legend_y += 18
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _random_coordinates(rng, n):
    """n coordinates with a random scale and offset, sometimes constant,
    and sometimes far enough out that a zero span's pad rounds away and
    the bounds step out by nextafter."""
    scale = 10.0 ** rng.uniform(-6, 8)
    offset = rng.choice([0.0, rng.normal() * scale, 2.0 ** 60, -3e20])
    values = offset + scale * rng.normal(size=n)
    if rng.random() < 0.25:
        values[:] = values[0]
    return values


@pytest.mark.parametrize("seed", range(60))
def test_render_matches_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    equal_aspect = bool(seed % 2)
    plots = [SvgPlot(f"case {seed}", equal_aspect),
             PerPointPlot(f"case {seed}", equal_aspect)]
    for i in range(int(rng.integers(1, 5))):
        n = int(rng.integers(1, 40))
        xs, ys = _random_coordinates(rng, n), _random_coordinates(rng, n)
        scatter = rng.random() < 0.5
        for plot in plots:
            if scatter:
                plot.add_scatter(xs, ys, label=f"s{i}", radius=2.5)
            else:
                plot.add_line(xs, ys, label=f"l{i}" if i % 2 else "")
    assert plots[0].render(comment="seed -- x") == plots[1].render(comment="seed -- x")


@pytest.mark.parametrize("equal_aspect", [False, True])
def test_render_matches_per_point_reference_at_nextafter_bounds(equal_aspect):
    plots = [SvgPlot(equal_aspect=equal_aspect),
             PerPointPlot(equal_aspect=equal_aspect)]
    for plot in plots:
        plot.add_line([2.0 ** 60, 2.0 ** 60], [-3e20, -3e20])
        plot.add_scatter([2.0 ** 60], [-3e20])
        x0, x1, y0, y1 = plot._bounds()
        assert x0 == np.nextafter(2.0 ** 59, -np.inf)
        assert y1 == np.nextafter(-1.5e20, np.inf)
    assert plots[0].render() == plots[1].render()
