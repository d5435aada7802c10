"""Evolve the accuracy-vs-transmission trade-off with NSGA-II.

The genome is the five nonlinear linkage parameters; objectives are the
trajectory error of the inner linear solve and the negated worst
transmission angle.  The run reports hypervolume convergence of the
nondominated archive and dumps the final front.
"""

from pathlib import Path

import numpy as np

from legsynth.nsga2 import GAConfig, evolve, leg_problem
from legsynth.svgplot import SvgPlot

OUT = Path("demo-output/nsga2")
OUT.mkdir(parents=True, exist_ok=True)

problem = leg_problem()
config = GAConfig(population=100, generations=300, seed=0)
result = evolve(problem, config)

hv = result.hypervolume
crossing = int(np.argmax(hv >= 0.99 * hv[-1]))
print(f"final hypervolume {hv[-1]:.3f}, 99% reached at generation "
      f"{crossing}")

front = (result.rank == 0) & (result.violation <= 0.0)
errors = result.F[front, 0]
angles = np.degrees(-result.F[front, 1])
print(f"front size {len(errors)}: error {errors.min():.2e}..{errors.max():.2e}, "
      f"transmission {angles.min():.1f}..{angles.max():.1f} deg")

curve = SvgPlot(title="hypervolume convergence")
curve.add_line(np.arange(len(hv)), hv, label="archive hypervolume")
curve.write(OUT / "hypervolume.svg")

scatter = SvgPlot(title="final front: error vs transmission angle")
scatter.add_scatter(errors, angles, label="front designs")
scatter.write(OUT / "front.svg")
print(f"wrote {OUT}/hypervolume.svg and {OUT}/front.svg")
