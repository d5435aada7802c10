"""Inner linear stage of the hybrid leg synthesis.

Given a crank sweep of the four-bar, the coupler-point location (x_E, y_E)
and the straight target line (start point plus direction-times-length
vector) enter the trajectory error linearly.  Written in complex numbers,
their least-squares optimum is a closed-form projection: fitting the line
basis {1, k} out of the sweep leaves one complex unknown, the coupler
point, which is a ratio of two sweep means (variable projection, Golub
and Pereyra 1973).  The error at that optimum is the reduced objective:
a function of the five nonlinear linkage parameters only, which the
outer searches (the quasi-random scan and NSGA-II) minimize; the coupler
point is never a search variable.

The error is the mean (not the bare sum) of squared deviations over the
sweep samples.  solve and residual_delta read a sweep as plain arrays:
the schedule fractions k, joint B as an (x, y) pair and the coupler
angle beta (its cosine and sine for residual_delta), one row per design
of a batch.  reduced_objective, which sweeps and solves a batch in
bounded chunks through solve, is the one evaluation kernel of the scan,
NSGA-II and the CLI.
"""

from dataclasses import dataclass

import numpy as np

from .fourbar import ArcCheck, _sampled, arc_check

# Variance-inflation factor of the coupler point above which the
# minimum-norm solution is taken and the solution counts as
# rank-deficient.
RANK_DEFICIENCY_COND = 1e10

# Sample angles reduced_objective evaluates at once (512 designs of 24
# samples): a chunk of a large batch keeps its temporary arrays to a few
# megabytes.
CHUNK_ANGLES = 512 * 24


class InvalidSystemError(ValueError):
    """The sweep has non-finite entries."""


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
class SynthesisSolution:
    """Solved unknowns and the residual error of the inner stage.

    x packs (coupler_x, coupler_y, line_x0, line_y0, line_span_x,
    line_span_y) in that order; a batch sweep adds a leading axis to x,
    delta and condition.  A condition above RANK_DEFICIENCY_COND marks a
    rank-deficient design, solved in the minimum-norm sense.
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


def _line_fit(f, k):
    """Least-squares line w0 + w1 k through each row of f: w0, w1 and the
    residual f - w0 - w1 k.

    Products and sums run elementwise and along the last axis, so each
    row of a batch is fitted exactly as it would be alone; a sum divided
    by the count is np.mean bit for bit, with less overhead.
    """
    k_mean = k.sum() / len(k)
    kc = k - k_mean
    w1 = (f * kc).sum(axis=-1) / len(k) / ((kc * kc).sum() / len(k))
    mean = f.sum(axis=-1) / len(k)
    return mean - w1 * k_mean, w1, f - mean[..., None] - w1[..., None] * kc


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def solve(k, B, beta):
    """Least-squares coupler point and target line of a sweep, or of a
    batch of sweeps, in closed form.

    k is the (count,) sweep fractions, shared by every row; B is joint B
    as an (x, y) pair of arrays and beta the coupler angle, each of shape
    (count,) for one design or (rows, count) for a batch.

    In complex numbers the error is mean|b + e z - w0 - w1 k|^2 over the
    samples, with b the joint B, e = exp(i beta), z the coupler point and
    w0 + w1 k the target line.  Projecting the line basis {1, k} out of
    b and e (tilde) leaves mean|b~ + e~ z|^2, minimized by
    z = -mean(conj(e~) b~) / P with P = mean|e~|^2 <= 1; the line is then
    the fit of b + e z, and delta is residual_delta at x.  condition is
    1 / P, the variance-inflation factor of the coupler point.  Above
    RANK_DEFICIENCY_COND, e counts as lying on the line basis: every z
    fits equally well, and the minimum-norm solution is returned, so
    degenerate sweeps (for example constant coupler angle) stay usable
    inside an outer search.
    """
    if not (all(np.isfinite(v).all() for v in B)
            and np.isfinite(beta).all()):
        raise InvalidSystemError("sweep contains non-finite entries")
    c, s = np.cos(beta), np.sin(beta)
    a0, a1, e_res = _line_fit(c + 1j * s, k)
    b0, b1, b_res = _line_fit(B[0] + 1j * B[1], k)
    power = _abs2(e_res).sum(axis=-1) / len(k)
    with np.errstate(divide="ignore"):
        condition = 1.0 / power
    deficient = ~(condition <= RANK_DEFICIENCY_COND)
    # e = a0 + a1 k leaves z free; the norm |z|^2 + |b0 + a0 z|^2
    # + |b1 + a1 z|^2 of the solution is least at this z
    least_norm = -((a0.conjugate() * b0 + a1.conjugate() * b1)
                   / (1.0 + _abs2(a0) + _abs2(a1))) if deficient.any() else 0
    z = np.where(deficient, least_norm,
                 -((e_res.conjugate() * b_res).sum(axis=-1) / len(k))
                 / np.where(deficient, 1.0, power))
    # (z, w0, w1) as complex columns read as six real ones
    x = np.stack([z, b0 + a0 * z, b1 + a1 * z], axis=-1).view(float)
    return SynthesisSolution(x=x, delta=residual_delta(k, B, c, s, x),
                             condition=condition[()])


def residual_delta(k, B, c, s, x):
    """Mean squared trajectory deviation of a sweep for arbitrary unknown
    vectors: one design and a 6-vector, or a batch and a (rows, 6) array.

    k, B are the sweep fractions and joint B as solve takes them, and
    c = cos beta and s = sin beta of the coupler angle, which solve has
    at hand.  Evaluates the error directly from the sweep samples and the
    six real unknowns, independent of the projection; solve reports it
    at its own solution.
    """
    x = np.asarray(x, dtype=float)[..., None]
    u = B[0] + x[..., 0, :] * c - x[..., 1, :] * s - x[..., 2, :] \
        - x[..., 4, :] * k
    v = B[1] + x[..., 0, :] * s + x[..., 1, :] * c - x[..., 3, :] \
        - x[..., 5, :] * k
    return (u * u + v * v).sum(axis=-1) / len(k)


def reduced_objective(params, count):
    """Check, sweep and solve each design of a batch; the residual is the
    outer objective.

    One design counts as a batch of one.  Only the designs that arc_check
    accepts are swept, in chunks of CHUNK_ANGLES sample angles, and
    solved; outer searches take arc.violation as the constraint
    violation.
    """
    rows = np.size(params.crank)
    delta0 = np.full(rows, np.inf)
    x = np.full((rows, 6), np.nan)
    condition = np.full(rows, np.nan)
    arc = arc_check(params)
    feasible = np.flatnonzero(arc.violation <= 0.0)
    mu_min = np.where(arc.violation <= 0.0, arc.mu_min, np.nan)
    step = max(1, CHUNK_ANGLES // count)
    for start in range(0, len(feasible), step):
        part = feasible[start:start + step]
        solution = solve(*_sampled(params, count, part))
        delta0[part] = solution.delta
        x[part] = solution.x
        condition[part] = solution.condition
    return ReducedObjective(delta0=delta0, x=x, condition=condition,
                            mu_min=mu_min, arc=arc)
