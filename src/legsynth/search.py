"""Outer quasi-random search over the five nonlinear linkage parameters.

Implements the parameter-space-investigation workflow: spray the search
box (start angles within two turns of 0) with LP-tau points, evaluate the
reduced objective and gait metrics of all points in one batch, keep
everything (infeasible samples included, with reasons) as a sampling
table of per-sample arrays, then reduce it by feasibility limits and
Pareto dominance: Kung's sort-based maxima filter (Kung, Luccio and
Preparata, JACM 1975), a block at a time, each block's front pruning the
rows after it.
"""

from dataclasses import dataclass, fields

import numpy as np

from .fourbar import FourBarParams, gait_metrics
from .lptau import lp_tau
from .synthesis import reduced_objective


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned search bounds for (crank, coupler, rocker,
    start_angle, support_arc); angles in radians, start in [-4*pi, 4*pi]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != (5,) or hi.shape != (5,):
            raise ValueError("bounds must be 5-vectors")
        # equal bounds collapse an axis to a point, which is allowed so a
        # box can pin parameters while others vary
        if not np.all(lo <= hi):
            raise ValueError("lower bounds must not exceed upper bounds")
        if not np.all(lo[:3] > 0):
            raise ValueError("link length bounds must be positive")
        if not (np.pi <= lo[4] and hi[4] < 2.0 * np.pi):
            raise ValueError("support-arc bounds must lie within [pi, 2*pi)")
        # far out, start + arc * k rounds to start; 2*pi may be rounded up
        if not (-4.0 * np.pi <= lo[3] and hi[3] <= 4.0 * np.pi):
            raise ValueError("start-angle bounds must lie in [-4*pi, 4*pi]")

    def map_unit(self, u):
        """Affine image of unit-cube points in the box."""
        return self.lower + np.asarray(u, dtype=float) * (self.upper - self.lower)


# Search-box convention used by the batch pipeline when a config does not
# override it.  The support-arc axis starts at pi so every sample has a
# support phase longer than its transfer phase.
DEFAULT_BOX = ParamBox(
    lower=np.array([0.1, 0.4, 0.4, 0.0, np.pi]),
    upper=np.array([0.6, 2.5, 2.5, 2.0 * np.pi, 2.0 * np.pi * 0.95]),
)

DEFAULT_SWEEP_SAMPLES = 24

# pareto_filter decides the rows in lexicographic order, PARETO_BLOCK at a
# time, and compares a block's front with the rows after it PRUNE_PAIRS
# pairs at a time, as many as a block's check against itself: its boolean
# temporaries stay under a megabyte.
PARETO_BLOCK = 256
PRUNE_PAIRS = 2 ** 16


@dataclass(frozen=True, eq=False)
class SamplingTable:
    """Evaluated search points, one row per point: the sample's LP-tau
    index, its parameters (crank, coupler, rocker, start_angle,
    support_arc), whether it assembled, the reason if not, its reduced
    objective delta0, the inner solution x and its gait metrics.

    An infeasible row keeps its reason and has delta0 inf and x and
    min_transmission_deg NaN.
    """

    index: np.ndarray
    params: np.ndarray
    feasible: np.ndarray
    reason: np.ndarray
    delta0: np.ndarray
    x: np.ndarray
    min_transmission_deg: np.ndarray
    cycle_ratio: np.ndarray
    support_deg: np.ndarray

    def __len__(self):
        return len(self.index)

    def take(self, rows):
        """The table of the rows selected by an index or mask array."""
        return SamplingTable(**{f.name: getattr(self, f.name)[rows]
                                for f in fields(self)})

    def objectives(self):
        """(error, -transmission, -cycle ratio) per row: all minimized."""
        return np.column_stack([self.delta0, -self.min_transmission_deg,
                                -self.cycle_ratio])


@dataclass(frozen=True)
class FeasibilityLimits:
    """Acceptance thresholds applied to the sampling table."""

    max_delta: float = np.inf
    min_transmission_deg: float = 0.0
    min_cycle_ratio: float = 0.0


def scan(box, budget, count=DEFAULT_SWEEP_SAMPLES, branch=+1):
    """Evaluate `budget` LP-tau points mapped into the box.

    Returns the sampling table, one row per point in sequence order,
    infeasible samples included.  The result is reproducible bit-for-bit
    for a given (box, budget, count, branch), and each row equals the
    evaluation of its point alone.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    points = box.map_unit(lp_tau(5, budget))
    params = FourBarParams(*points.T, branch=branch)
    result = reduced_objective(params, count)
    metrics = gait_metrics(params, result.mu_min)
    feasible = result.arc.violation <= 0.0
    reason = np.full(budget, "", dtype=object)
    rejected = np.flatnonzero(~feasible)
    reason[rejected] = result.arc.messages(rejected)
    return SamplingTable(
        index=np.arange(budget), params=points, feasible=feasible,
        reason=reason,
        delta0=result.delta0, x=result.x,
        min_transmission_deg=metrics.min_transmission_deg,
        cycle_ratio=metrics.cycle_ratio, support_deg=metrics.support_deg)


def filter_feasible(table, limits):
    """Rows that assembled and satisfy every limit, input order kept."""
    return table.take(
        table.feasible & ~(table.delta0 > limits.max_delta)
        & ~(table.min_transmission_deg < limits.min_transmission_deg)
        & ~(table.cycle_ratio < limits.min_cycle_ratio))


def dominates(A, B):
    """D[i, j] = row A_i strictly dominates row B_j under componentwise
    minimization: no worse in every objective, better in at least one."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    no_worse = np.ones((len(A), len(B)), dtype=bool)
    better = np.zeros((len(A), len(B)), dtype=bool)
    for a, b in zip(A.T, B.T):  # one objective at a time
        no_worse &= a[:, None] <= b
        better |= a[:, None] < b
    return no_worse & better


def pareto_filter(table):
    """Nondominated rows under componentwise minimization of
    (delta0, -min transmission angle, -cycle ratio), in input order.

    Rows with identical objective vectors are all kept.  Infeasible
    rows are excluded (their objectives are not comparable).  A row's
    dominators precede it in lexicographic order, and a dominated
    dominator is itself dominated by a front row (Kung, Luccio and
    Preparata, JACM 1975).  So after one sort the rows are decided
    PARETO_BLOCK at a time: the rows of a block that no row of it
    dominates are front rows, and they drop every later row they
    dominate, PRUNE_PAIRS pairs at a time, so that each later block holds
    only rows that no earlier front row dominates.
    """
    feasible = np.flatnonzero(table.feasible)
    F = table.objectives()[feasible]
    front = np.zeros(len(F), dtype=bool)
    rest = np.lexsort(F.T[::-1])
    while len(rest):
        rows, rest = rest[:PARETO_BLOCK], rest[PARETO_BLOCK:]
        # the block's first row is lexicographically least, so never
        # dominated inside it: kept is never empty
        kept = rows[~dominates(F[rows], F[rows]).any(axis=0)]
        front[kept] = True
        beaten = np.zeros(len(rest), dtype=bool)
        step = max(1, PRUNE_PAIRS // len(kept))
        for start in range(0, len(rest), step):
            beaten[start:start + step] = dominates(
                F[kept], F[rest[start:start + step]]).any(axis=0)
        rest = rest[~beaten]
    return table.take(feasible[front])


TABLE_COLUMNS = ("index", "crank", "coupler", "rocker", "start_angle",
                 "support_arc", "delta0", "min_transmission_deg",
                 "cycle_ratio", "support_deg", "feasible", "reason")


def write_sampling_table(table, path, header_comment=None):
    """Emit the sampling table as CSV, one formatted line per row: index
    %d, five parameters %.12g, then delta0 %.12g and min_transmission_deg,
    cycle_ratio, support_deg %.9g (empty on an infeasible row), feasible
    1 or 0, reason.  No cell is quoted: a reason is empty or an ArcCheck
    reason, which holds no comma, quote or line break."""
    feasible_row = "%d" + ",%.12g" * 6 + ",%.9g" * 3 + ",1,%s\n"
    infeasible_row = "%d" + ",%.12g" * 5 + ",,,,,0,%s\n"
    cells = np.column_stack([table.params, table.delta0,
                             table.min_transmission_deg, table.cycle_ratio,
                             table.support_deg]).tolist()
    rows = zip(table.index.tolist(), cells, table.feasible.tolist(),
               table.reason.tolist())
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(TABLE_COLUMNS) + "\n")
        fh.writelines(feasible_row % (i, *c, reason) if ok
                      else infeasible_row % (i, *c[:5], reason)
                      for i, c, ok, reason in rows)
