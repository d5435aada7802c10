"""Hybrid leg synthesis: quasi-random outer scan + linear inner solve.

Sprays LP-tau points over the five nonlinear linkage parameters,
solves the coupler point and target line exactly at each sample, then
reduces the sampling table by feasibility limits and Pareto dominance.
"""

from pathlib import Path

import numpy as np

from legsynth.fourbar import FourBarParams, coupler_path, sweep
from legsynth.search import (DEFAULT_BOX, FeasibilityLimits, filter_feasible,
                             pareto_filter, scan, write_sampling_table)
from legsynth.svgplot import SvgPlot

OUT = Path("demo-output/synthesis")
OUT.mkdir(parents=True, exist_ok=True)

BUDGET = 2 ** 12

table = scan(DEFAULT_BOX, BUDGET)
print(f"scanned {BUDGET} samples, {table.feasible.sum()} assemble")

limits = FeasibilityLimits(max_delta=1e-3, min_transmission_deg=20.0,
                           min_cycle_ratio=1.2)
feasible = filter_feasible(table, limits)
front = pareto_filter(feasible)
print(f"{len(feasible)} pass the design limits, {len(front)} on the front")

write_sampling_table(table, OUT / "sampling_table.csv")
write_sampling_table(front, OUT / "pareto.csv")

best = np.argmin(feasible.delta0)
p = FourBarParams(*feasible.params[best])
x = feasible.x[best]
print(f"best accuracy design: rms {np.sqrt(feasible.delta0[best]):.4f}, "
      f"mu_min {feasible.min_transmission_deg[best]:.1f} deg, "
      f"cycle ratio {feasible.cycle_ratio[best]:.3f}")
print(f"  crank {p.crank:.3f}  coupler {p.coupler:.3f}  "
      f"rocker {p.rocker:.3f}  arc {np.degrees(p.support_arc):.1f} deg")

path = coupler_path(sweep(p, 200), x[:2])
targets = x[2:4] + np.linspace(0, 1, 200)[:, None] * x[4:]
plot = SvgPlot(title="best scanned design vs its target line",
               equal_aspect=True)
plot.add_line(path[:, 0], path[:, 1], label="foot path")
plot.add_line(targets[:, 0], targets[:, 1], label="target line")
plot.write(OUT / "best_design.svg")
print(f"wrote {OUT}/sampling_table.csv, pareto.csv, best_design.svg")
