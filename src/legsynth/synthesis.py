"""Inner linear stage of the hybrid leg synthesis.

Given a crank sweep of the four-bar, the coupler-point location (x_E, y_E)
and the straight target line (start point plus direction-times-length
vector) enter the trajectory error quadratically.  Their least-squares
optimum therefore solves a 6x6 linear system assembled from sweep means,
and the value of the error at that optimum is the reduced objective: a
function of the five nonlinear linkage parameters only, which the outer
quasi-random search minimizes.

The error is the mean (not the bare sum) of squared deviations over the
sweep samples, so the normal-equation blocks and the error share one
normalization.  Every function here also takes a batch of designs as
stacked arrays; reduced_objective, which sweeps, assembles and solves a
batch in bounded chunks, is the one evaluation kernel of the scan,
NSGA-II and the CLI.
"""

from dataclasses import dataclass

import numpy as np

from .fourbar import ArcCheck, _sampled, arc_check

# Condition number of the normal matrix above which the minimum-norm
# least-squares path is taken and the solution counts as rank-deficient.
RANK_DEFICIENCY_COND = 1e10

# Sample angles reduced_objective evaluates at once (512 designs of 24
# samples): a chunk of a large batch keeps its temporary arrays to a few
# megabytes.
CHUNK_ANGLES = 512 * 24


class InvalidSystemError(ValueError):
    """The assembled normal equations contain non-finite entries."""


@dataclass(frozen=True)
class LineTarget:
    """Straight target path traversed linearly in the sweep fraction.

    Desired point i is (x0 + span_x * k_i, y0 + span_y * k_i).
    """

    x0: float
    y0: float
    span_x: float
    span_y: float

    def points(self, fractions):
        k = np.asarray(fractions, dtype=float)
        return np.stack([self.x0 + self.span_x * k,
                         self.y0 + self.span_y * k], axis=-1)


@dataclass(frozen=True)
class LinearSystem:
    """Normal equations of the mean-square trajectory error.

    matrix is symmetric 6x6, rhs the 6-vector of sweep means, constant the
    error value at the zero unknown vector (mean squared B magnitude); the
    error is constant - 2 rhs.x + x.matrix.x for any unknown vector x.
    A stack of systems has a leading axis on all three.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    constant: float


@dataclass(frozen=True)
class SynthesisSolution:
    """Solved unknowns and the residual error of the inner stage.

    x packs (coupler_x, coupler_y, line_x0, line_y0, line_span_x,
    line_span_y) in that order; a stack of systems has a leading axis on
    x, delta and condition.  A condition above RANK_DEFICIENCY_COND marks
    a rank-deficient system, solved in the minimum-norm sense.
    """

    x: np.ndarray
    delta: float
    condition: float


@dataclass(frozen=True)
class ReducedObjective:
    """Reduced objective of each design of a batch, with its inner
    solution x, the worst transmission angle mu_min (rad) over its support
    arc, and its ArcCheck arc.  A design with arc.violation > 0 is neither
    swept nor solved and has delta0 inf and x, condition and mu_min NaN.
    """

    delta0: np.ndarray
    x: np.ndarray
    condition: np.ndarray
    mu_min: np.ndarray
    arc: ArcCheck


def assemble(sweep):
    """Build the 6x6 normal equations from a sweep (a stack of them for a
    batch sweep)."""
    beta, B, k = sweep.beta, sweep.B, sweep.fractions
    c, s = np.cos(beta), np.sin(beta)
    XB, YB = B[..., 0], B[..., 1]

    mc, ms = c.mean(axis=-1), s.mean(axis=-1)
    mkc, mks = (k * c).mean(axis=-1), (k * s).mean(axis=-1)
    mk2 = (k * k).mean()

    # the 2x2 blocks as the last two axes of each system
    A1 = np.moveaxis(np.array([[-mc, -ms], [ms, -mc]]), (0, 1), (-2, -1))
    A2 = np.moveaxis(np.array([[-mkc, -mks], [mks, -mkc]]), (0, 1), (-2, -1))
    eye2 = np.eye(2)

    A = np.zeros(mc.shape + (6, 6))
    A[..., 0:2, 0:2] = eye2
    A[..., 2:4, 2:4] = eye2
    A[..., 4:6, 4:6] = mk2 * eye2
    A[..., 0:2, 2:4] = A1
    A[..., 2:4, 0:2] = np.swapaxes(A1, -1, -2)
    A[..., 0:2, 4:6] = A2
    A[..., 4:6, 0:2] = np.swapaxes(A2, -1, -2)
    A[..., 2:4, 4:6] = 0.5 * eye2
    A[..., 4:6, 2:4] = 0.5 * eye2

    b = np.stack([
        -(XB * c + YB * s).mean(axis=-1),
        (XB * s - YB * c).mean(axis=-1),
        XB.mean(axis=-1),
        YB.mean(axis=-1),
        (k * XB).mean(axis=-1),
        (k * YB).mean(axis=-1),
    ], axis=-1)
    constant = (XB * XB + YB * YB).mean(axis=-1)
    return LinearSystem(matrix=A, rhs=b, constant=constant)


def solve(system, pinned=None):
    """Solve the normal equations, or a stack of them, optionally with
    pinned unknowns.

    pinned maps unknown indices (0..5) to fixed values, one number for
    every system or one per system; the remaining coordinates are solved
    from the correspondingly reduced system.  When the (reduced) matrix is
    ill-conditioned beyond RANK_DEFICIENCY_COND the minimum-norm
    least-squares solution is returned, one system at a time, instead of
    failing, so degenerate sweeps (for example constant coupler angle)
    stay usable inside an outer search.
    """
    A, b = system.matrix, system.rhs
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InvalidSystemError("normal equations contain non-finite entries")
    pinned = dict(pinned or {})
    for j, v in pinned.items():
        if not 0 <= j < 6:
            raise ValueError(f"pinned index {j} out of range")
        if not np.all(np.isfinite(v)):
            raise InvalidSystemError("pinned value is non-finite")

    shape = b.shape[:-1]
    A, b = A.reshape(-1, 6, 6), b.reshape(-1, 6)
    free = [j for j in range(6) if j not in pinned]
    x = np.zeros(b.shape)
    for j, v in pinned.items():
        x[:, j] = np.ravel(v)

    condition = np.ones(len(b))
    if free:
        Aff = A[:, free][:, :, free]
        rhs = b[:, free]
        if pinned:
            fixed = sorted(pinned)
            # contiguous operands take the same matmul path in any batch
            coupling = np.ascontiguousarray(A[:, free][:, :, fixed])
            known = np.ascontiguousarray(x[:, fixed, None])
            rhs = rhs - (coupling @ known)[..., 0]
        condition = np.linalg.cond(Aff)
        deficient = ~(condition <= RANK_DEFICIENCY_COND)
        xf = np.empty(rhs.shape)
        xf[~deficient] = np.linalg.solve(Aff[~deficient],
                                         rhs[~deficient, :, None])[..., 0]
        for i in np.flatnonzero(deficient):
            xf[i] = np.linalg.lstsq(Aff[i], rhs[i], rcond=None)[0]
        x[:, free] = xf

    # batched matmul, not einsum: it sums in the same order as the
    # single-system products, so a batch row matches its own solve
    delta = (np.reshape(system.constant, -1)
             - (2.0 * b[:, None, :] @ x[:, :, None])[:, 0, 0]
             + (x[:, None, :] @ A @ x[:, :, None])[:, 0, 0])
    return SynthesisSolution(x=x.reshape(shape + (6,)),
                             delta=np.maximum(delta, 0.0).reshape(shape)[()],
                             condition=condition.reshape(shape)[()])


def residual_delta(sweep, x):
    """Mean squared trajectory deviation of one design's sweep for an
    arbitrary unknown vector.

    Evaluates the error directly from the sweep samples (independent of
    the assembled normal equations), which makes it the cross-check path
    for the quadratic shortcut used in solve().
    """
    x = np.asarray(x, dtype=float)
    B, k = sweep.B, sweep.fractions
    c, s = np.cos(sweep.beta), np.sin(sweep.beta)
    u = B[:, 0] + x[0] * c - x[1] * s - x[2] - x[4] * k
    v = B[:, 1] + x[0] * s + x[1] * c - x[3] - x[5] * k
    return float(np.mean(u * u + v * v))


def reduced_objective(params, count, pinned=None):
    """Check, sweep, assemble and solve each design of a batch; the
    residual is the outer objective.

    One design counts as a batch of one.  pinned is as for solve, with
    arrays of one value per design.  Only the designs that arc_check
    accepts are swept, in chunks of CHUNK_ANGLES sample angles, and
    solved; outer searches take arc.violation as the constraint violation.
    """
    rows = np.size(params.crank)
    pinned = {j: np.broadcast_to(v, (rows,))
              for j, v in (pinned or {}).items()}
    delta0 = np.full(rows, np.inf)
    x = np.full((rows, 6), np.nan)
    condition = np.full(rows, np.nan)
    arc = arc_check(params)
    feasible = np.flatnonzero(arc.violation <= 0.0)
    mu_min = np.where(arc.violation <= 0.0, arc.mu_min, np.nan)
    step = max(1, CHUNK_ANGLES // count)
    for start in range(0, len(feasible), step):
        part = feasible[start:start + step]
        solution = solve(assemble(_sampled(params.take(part), count)),
                         pinned={j: v[part] for j, v in pinned.items()})
        delta0[part] = solution.delta
        x[part] = solution.x
        condition[part] = solution.condition
    return ReducedObjective(delta0=delta0, x=x, condition=condition,
                            mu_min=mu_min, arc=arc)
