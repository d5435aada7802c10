"""Trace a four-bar leg through its support arc.

Builds the classic crank-rocker straight-line proportions, sweeps the
support phase, and reports the coupler-point trajectory together with
the transmission-angle profile and the step-cycle figures.
"""

from pathlib import Path

import numpy as np

from legsynth.fourbar import (FourBarParams, arc_check, coupler_path,
                              gait_metrics, sweep)
from legsynth.svgplot import SvgPlot

OUT = Path("demo-output/fourbar")
OUT.mkdir(parents=True, exist_ok=True)

# crank : coupler : rocker = 0.5 : 1.25 : 1.25 of the frame length, with
# the foot point on the coupler extension (twice the coupler from B)
params = FourBarParams(crank=0.5, coupler=1.25, rocker=1.25,
                       start_angle=np.radians(65.0),
                       support_arc=np.radians(221.0))
trace = sweep(params, 200)
foot = coupler_path(trace, (2.5, 0.0))

metrics = gait_metrics(params, arc_check(params).mu_min[0])
print(f"support arc     : {metrics.support_deg:.1f} deg")
print(f"transfer arc    : {metrics.transfer_deg:.1f} deg")
print(f"step-cycle ratio: {metrics.cycle_ratio:.3f}")
print(f"min transmission: {metrics.min_transmission_deg:.1f} deg")

plot = SvgPlot(title="foot point trajectory over the support arc",
               equal_aspect=True)
plot.add_line(foot[:, 0], foot[:, 1], label="foot path")
plot.add_line(trace.B[:, 0], trace.B[:, 1], label="crank pin B")
plot.add_line(trace.C[:, 0], trace.C[:, 1], label="rocker pin C")
plot.write(OUT / "trajectory.svg")

angles = np.degrees(trace.phi)
mu = np.degrees(trace.mu)
profile = SvgPlot(title="transmission angle over the support arc")
profile.add_line(angles, mu, label="transmission angle (deg)")
profile.write(OUT / "transmission.svg")
print(f"wrote {OUT}/trajectory.svg and {OUT}/transmission.svg")
