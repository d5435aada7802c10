"""Minimal SVG emitter for line and scatter plots.

Plots are built from polyline/circle primitives only, so outputs are
plain diff-able text with no plotting-toolkit dependency.
"""

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#555555")
_WIDTH, _HEIGHT, _MARGIN = 640, 480, 50  # document size and plot inset, px


class SvgPlot:
    """Accumulates data series, then renders one SVG document."""

    def __init__(self, title="", equal_aspect=False):
        self.title = title
        self.equal_aspect = equal_aspect
        self.series = []

    def add_line(self, xs, ys, label="", color=None):
        self.series.append(("line", np.asarray(xs, float),
                            np.asarray(ys, float), label, color))

    def add_scatter(self, xs, ys, label="", radius=3.0):
        self.series.append(("scatter", np.asarray(xs, float),
                            np.asarray(ys, float), label, None, radius))

    def _bounds(self):
        """Half the plot window (x0, x1, y0, y1), as tx and ty map halved
        data: exact for normal floats, and no span of finite data overflows."""
        xs = np.concatenate([s[1] for s in self.series if len(s[1])])
        ys = np.concatenate([s[2] for s in self.series if len(s[2])])
        x0, x1 = float(xs.min()) / 2, float(xs.max()) / 2
        y0, y1 = float(ys.min()) / 2, float(ys.max()) / 2
        if x1 - x0 < 1e-12 / 2:
            x0, x1 = x0 - 0.25, x1 + 0.25
        if y1 - y0 < 1e-12 / 2:
            y0, y1 = y0 - 0.25, y1 + 0.25
        if self.equal_aspect:
            spanx, spany = x1 - x0, y1 - y0
            span = max(spanx, spany)
            cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = cx - span / 2, cx + span / 2
            y0, y1 = cy - span / 2, cy + span / 2
        return x0, x1, y0, y1

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

    def write(self, path, comment=None):
        with open(path, "w") as fh:
            fh.write(self.render(comment=comment))
