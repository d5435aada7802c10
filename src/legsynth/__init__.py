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

from .fourbar import (ArcCheck, FourBarParams, GaitMetrics, Sweep, arc_check,
                      coupler_path, force_ratio_angle, gait_metrics,
                      sample_schedule, solve_position, sweep)
from .lptau import lp_tau
from .mobility import MechanismGraph, MobilityResult, mobility, rationality_report
from .search import (FeasibilityLimits, ParamBox, SamplingTable,
                     filter_feasible, pareto_filter, scan)
from .synthesis import (LineTarget, SynthesisSolution, reduced_objective,
                        residual_delta, solve)

__all__ = [
    "ArcCheck", "FourBarParams", "GaitMetrics", "Sweep", "arc_check",
    "coupler_path", "force_ratio_angle", "gait_metrics", "sample_schedule",
    "solve_position", "sweep",
    "lp_tau",
    "MechanismGraph", "MobilityResult", "mobility", "rationality_report",
    "FeasibilityLimits", "ParamBox", "SamplingTable", "filter_feasible",
    "pareto_filter", "scan",
    "LineTarget", "SynthesisSolution", "reduced_objective", "residual_delta",
    "solve",
]
