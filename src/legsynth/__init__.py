"""Walking-robot design toolkit.

Library layers:

- fourbar / synthesis: four-bar leg position analysis and the inner
  least-squares stage of straight-line trajectory synthesis.
- lptau / search: quasi-random design-space scans, feasibility and Pareto
  filtering of the sampling table.
- nsga2: elitist multi-objective genetic engine plus the leg-synthesis
  problem instance and 2-D hypervolume tracking.
- isotropy: tripod-stance Jacobians, isotropy conditions, closed-form
  isotropic configuration families.
- mobility: degree-of-freedom counts and actuation-rationality audits.
- slam: desk-scale EKF-SLAM simulation, occupancy mapping, A* planning.
- cli: batch front-end over JSON configs (see README).
"""

__version__ = "0.1.0"
