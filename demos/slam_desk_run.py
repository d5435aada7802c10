"""Desk-scale SLAM loop: drive, observe, correct, map, then plan.

Runs the same square loop twice, once with noise-free sensing and once
with realistic noise, compares the filter against pure dead reckoning,
and finally plans a path across the mapped occupancy grid.
"""

from pathlib import Path

import numpy as np

from legsynth.slam import (NoPathError, OdometryNoise, ProcessNoise,
                           SensorConfig, desk_world, loop_script, path_cost,
                           plan_path, simulate, write_grid_pgm,
                           write_run_log)
from legsynth.svgplot import SvgPlot

OUT = Path("demo-output/slam")
OUT.mkdir(parents=True, exist_ok=True)

world = desk_world()
script = loop_script() * 2

clean = simulate(world, script, SensorConfig(max_range=5.0, n_rays=360),
                 seed=0)
slam_err, dr_err = clean.final_errors()
print(f"noise-free run : slam error {slam_err:.2e}, "
      f"dead reckoning {dr_err:.2e}")

noisy = simulate(world, script,
                 SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=360),
                 odometry=OdometryNoise(velocity_sigma=0.05,
                                        angular_sigma=0.03),
                 process=ProcessNoise(x=0.001, y=0.001, heading=0.0005),
                 seed=1)
slam_err, dr_err = noisy.final_errors()
print(f"noisy run      : slam error {slam_err:.3f}, "
      f"dead reckoning {dr_err:.3f} "
      f"({'filter wins' if slam_err < dr_err else 'dead reckoning wins'})")

write_run_log(noisy, OUT / "run_log.csv")
write_grid_pgm(noisy.final_state.grid, OUT / "grid.pgm")

tracks = SvgPlot(title="trajectories: truth vs estimates",
                 equal_aspect=True)
tracks.add_line(noisy.truth[:, 0], noisy.truth[:, 1], label="ground truth")
tracks.add_line(noisy.dead_reckoning[:, 0], noisy.dead_reckoning[:, 1],
                label="dead reckoning")
tracks.add_line(noisy.slam[:, 0], noisy.slam[:, 1], label="slam estimate")
tracks.write(OUT / "tracks.svg")

grid = clean.final_state.grid
try:
    cells = plan_path(grid, grid.cell_of((-1.5, -1.5)).astype(int),
                      grid.cell_of((3.0, 3.0)).astype(int))
    print(f"planned path of {len(cells)} cells, cost {path_cost(cells):.2f}")
    occupied = np.argwhere(grid.probabilities() > 0.5)
    plan = SvgPlot(title="planned path over the mapped grid",
                   equal_aspect=True)
    plan.add_scatter(occupied[:, 1], occupied[:, 0], label="occupied",
                     radius=1.5)
    arr = np.array(cells)
    plan.add_line(arr[:, 1], arr[:, 0], label="path")
    plan.write(OUT / "path.svg")
except NoPathError as err:
    print(f"no path: {err}")

print(f"wrote {OUT}/run_log.csv, grid.pgm, tracks.svg, path.svg")
