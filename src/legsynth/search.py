"""Outer quasi-random search over the five nonlinear linkage parameters.

Implements the parameter-space-investigation workflow: spray the search
box with LP-tau points, evaluate the reduced objective and gait metrics at
each point, keep everything (infeasible samples included, with reasons) as
a sampling table, then reduce by feasibility limits and Pareto dominance.
Evaluation is a pure function of the sample index, so records can be
computed in any order and merged deterministically.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .fourbar import FourBarParams, SweepInvalidError, gait_metrics
from .lptau import lp_tau
from .synthesis import reduced_objective


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned search bounds for (crank, coupler, rocker,
    start_angle, support_arc); angles in radians."""

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
        if not (np.pi <= lo[4] and hi[4] < 2.0 * np.pi):
            raise ValueError("support-arc bounds must lie within [pi, 2*pi)")

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


@dataclass(frozen=True)
class SampleRecord:
    """One evaluated search point; infeasible points keep their reason."""

    index: int
    params: FourBarParams
    feasible: bool
    reason: str
    delta0: float
    solution: object
    metrics: object

    def objectives(self):
        """(error, -transmission, -cycle ratio): all minimized."""
        return np.array([self.delta0,
                         -self.metrics.min_transmission_deg,
                         -self.metrics.cycle_ratio])


@dataclass(frozen=True)
class FeasibilityLimits:
    """Acceptance thresholds applied to the sampling table."""

    max_delta: float = np.inf
    min_transmission_deg: float = 0.0
    min_cycle_ratio: float = 0.0


def evaluate_sample(index, params, count=DEFAULT_SWEEP_SAMPLES):
    """Evaluate one parameter vector into a SampleRecord."""
    try:
        reduced = reduced_objective(params, count)
    except SweepInvalidError as err:
        return SampleRecord(index=index, params=params, feasible=False,
                            reason=str(err), delta0=np.inf,
                            solution=None, metrics=None)
    metrics = gait_metrics(params, reduced.poses)
    return SampleRecord(index=index, params=params, feasible=True, reason="",
                        delta0=reduced.delta0, solution=reduced.solution,
                        metrics=metrics)


def scan(box, budget, count=DEFAULT_SWEEP_SAMPLES, branch=+1):
    """Evaluate `budget` LP-tau points mapped into the box.

    Returns one record per point, in sequence order, infeasible samples
    included.  The result is reproducible bit-for-bit for a given
    (box, budget, count, branch).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    points = box.map_unit(lp_tau(5, budget))
    records = []
    for i, p in enumerate(points):
        params = FourBarParams(crank=p[0], coupler=p[1], rocker=p[2],
                               start_angle=p[3], support_arc=p[4],
                               branch=branch)
        records.append(evaluate_sample(i, params, count))
    return records


def filter_feasible(records, limits):
    """Records that assembled and satisfy every limit, input order kept."""
    kept = []
    for r in records:
        if not r.feasible:
            continue
        if r.delta0 > limits.max_delta:
            continue
        if r.metrics.min_transmission_deg < limits.min_transmission_deg:
            continue
        if r.metrics.cycle_ratio < limits.min_cycle_ratio:
            continue
        kept.append(r)
    return kept


def dominates(A, B):
    """D[i, j] = row A_i strictly dominates row B_j under componentwise
    minimization: no worse in every objective, better in at least one."""
    A = np.asarray(A, dtype=float)[:, None, :]
    B = np.asarray(B, dtype=float)[None, :, :]
    return np.all(A <= B, axis=2) & np.any(A < B, axis=2)


def pareto_filter(records):
    """Nondominated subset under componentwise minimization of
    (delta0, -min transmission angle, -cycle ratio).

    Records with identical objective vectors are all kept.  Infeasible
    records are excluded (their objectives are not comparable).
    """
    candidates = [r for r in records if r.feasible]
    if not candidates:
        return []
    F = np.array([r.objectives() for r in candidates])
    n = len(candidates)
    dominated = np.zeros(n, dtype=bool)
    chunk = 256  # bounds the (n, chunk, 3) comparison arrays
    for start in range(0, n, chunk):
        dominated[start:start + chunk] = dominates(F, F[start:start + chunk]).any(axis=0)
    return [r for r, d in zip(candidates, dominated) if not d]


TABLE_COLUMNS = ("index", "crank", "coupler", "rocker", "start_angle",
                 "support_arc", "delta0", "min_transmission_deg",
                 "cycle_ratio", "support_deg", "feasible", "reason")


def write_sampling_table(records, path, header_comment=None):
    """Emit the sampling table as CSV (one row per record)."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for r in records:
            p = r.params
            if r.feasible:
                mu = f"{r.metrics.min_transmission_deg:.9g}"
                nu = f"{r.metrics.cycle_ratio:.9g}"
                sup = f"{r.metrics.support_deg:.9g}"
                d0 = f"{r.delta0:.12g}"
            else:
                mu = nu = sup = ""
                d0 = ""
            writer.writerow([r.index, f"{p.crank:.12g}", f"{p.coupler:.12g}",
                             f"{p.rocker:.12g}", f"{p.start_angle:.12g}",
                             f"{p.support_arc:.12g}", d0, mu, nu, sup,
                             int(r.feasible), r.reason])
