"""Planar four-bar linkage ABCD: position analysis over a crank arc.

The linkage is normalized so the frame pivots sit at A = (0, 0) and
D = (1, 0) (frame length 1).  The crank AB rotates about A, the rocker CD
about D, and the coupler BC carries the foot point.  All lengths are
ratios to the frame length and all angles are radians unless a name says
otherwise.

The support phase of the walking gait is the crank arc
``start_angle .. start_angle + support_arc`` sampled at uniformly spaced
angles; the transfer phase is the remainder of the crank revolution.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import angle_diff

# Absolute tolerance on the circle-intersection discriminant below which a
# configuration is reported as degenerate (near-tangent circles).
DEGENERACY_TOL = 1e-9

# Bound on the coupler-angle step between consecutive sweep samples (rad).
# A larger jump is treated as a branch-continuity violation.
CONTINUITY_BOUND = 1.0


class LinkageError(Exception):
    """Base class for four-bar analysis failures."""


class NotAssemblableError(LinkageError):
    """The coupler/rocker circles do not intersect at the given crank angle."""

    def __init__(self, phi, gap):
        self.phi = float(phi)
        self.gap = float(gap)
        super().__init__(f"linkage not assemblable at crank angle {phi:.6f} rad "
                         f"(closure gap {gap:.3e})")


class DegenerateConfigurationError(LinkageError):
    """The circle intersection is within tolerance of tangency."""

    def __init__(self, phi, discriminant):
        self.phi = float(phi)
        self.discriminant = float(discriminant)
        super().__init__(f"near-tangent configuration at crank angle {phi:.6f} rad "
                         f"(discriminant {discriminant:.3e})")


class SweepInvalidError(LinkageError):
    """A crank sweep failed assemblability or branch continuity."""

    def __init__(self, index, reason):
        self.index = int(index)
        self.reason = reason
        super().__init__(f"sweep invalid at sample {index}: {reason}")


class SingularTransmissionError(LinkageError):
    """Force transmission undefined at a dead point (transmission angle 0)."""


@dataclass(frozen=True)
class FourBarParams:
    """Normalized linkage dimensions and crank schedule for the support arc.

    The five numeric fields are numbers for one design, or equal-length
    1-D arrays for a batch of designs (one per row) on a shared branch.

    Attributes:
        crank: crank length ratio l_AB / l_AD.
        coupler: coupler length ratio l_BC / l_AD.
        rocker: rocker length ratio l_CD / l_AD.
        start_angle: crank angle at the start of the support arc (rad).
        support_arc: angular extent of the support arc (rad).  A walking
            gait needs an arc above pi (support longer than transfer); the
            type itself accepts any arc in (0, 2*pi) so that sub-pi test
            mechanisms can be analyzed, and the gait-level requirement is
            enforced by the search-box bounds.
        branch: assembly-mode selector, +1 or -1, picking one of the two
            circle-intersection roots for joint C.
    """

    crank: float
    coupler: float
    rocker: float
    start_angle: float
    support_arc: float
    branch: int = +1

    def __post_init__(self):
        lengths = (self.crank, self.coupler, self.rocker)
        if not all(np.all(v > 0) for v in lengths):
            raise ValueError("link length ratios must be positive")
        arc = self.support_arc
        if not np.all((0.0 < arc) & (arc < 2.0 * np.pi)):
            raise ValueError("support_arc must lie in (0, 2*pi)")
        if self.branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")

    def take(self, rows):
        """The designs `rows` of a batch (one design counts as one row)."""
        fields = (self.crank, self.coupler, self.rocker, self.start_angle,
                  self.support_arc)
        return FourBarParams(*(np.atleast_1d(v)[rows] for v in fields),
                             self.branch)


@dataclass(frozen=True)
class Sweep:
    """Positions of the linkage at a set of crank angles.

    phi holds the crank angles: (count,) for one design, (rows, count)
    for a batch; fractions is the position i / (count - 1) of sample i
    along the support arc (None for the single angle of solve_position).
    B and C are the joint positions (phi's shape plus a last axis of 2),
    beta the coupler angle of BC from the x-axis, and mu the classical
    transmission angle between coupler and rocker at C folded into
    [0, pi/2].  error is the SweepInvalidError of a design's first
    failing sample, or None; a batch has a list of them, one per row, and
    the C, beta and mu of a failed row are NaN.
    """

    phi: np.ndarray
    fractions: np.ndarray
    B: np.ndarray
    C: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    error: object = None

    def row(self, i):
        """Design i of a batch, as a sweep of its own."""
        return Sweep(self.phi[i], self.fractions, self.B[i], self.C[i],
                     self.beta[i], self.mu[i], self.error[i])


@dataclass(frozen=True)
class GaitMetrics:
    """Step-cycle figures of merit, in degrees for reporting (arrays for a
    batch)."""

    support_deg: float
    transfer_deg: float
    cycle_ratio: float
    min_transmission_deg: float


def sample_schedule(start_angle, support_arc, count):
    """Uniformly sample the support arc with `count` crank angles.

    Returns (angles, fractions): fractions[i] = i / (count - 1) runs from
    0 to 1 with mean exactly 1/2, and angles[..., i] = start_angle +
    support_arc * fractions[i], a (rows, count) grid for arrays of arcs.
    The first sample is exactly start_angle and the last exactly
    start_angle + support_arc.
    """
    if count < 2:
        raise ValueError("schedule needs at least 2 samples")
    fractions = np.arange(count, dtype=float) / (count - 1)
    angles = (np.asarray(start_angle)[..., None]
              + np.asarray(support_arc)[..., None] * fractions)
    return angles, fractions


def _positions(params, phis, fractions=None):
    """Circle-intersection position analysis of a batch of designs, row r
    at the crank angles phis[r].

    Each row's error reports the first failing sample of the first check
    that fails, in this order: the coupler and rocker circles meet
    (NotAssemblableError); B does not sit on D and the circles are not
    near-tangent (DegenerateConfigurationError); the coupler angle does
    not jump by more than CONTINUITY_BOUND between consecutive samples.
    The last guards against solutions whose samples live on different
    assembly modes and are therefore not physically traceable.
    """
    p1, p2, p3 = (np.reshape(v, (-1, 1))
                  for v in (params.crank, params.coupler, params.rocker))
    phis = np.reshape(phis, (len(p1), -1))
    B = np.stack([p1 * np.cos(phis), p1 * np.sin(phis)], axis=-1)
    BD = np.array([1.0, 0.0]) - B
    d = np.hypot(BD[..., 0], BD[..., 1])
    gap = np.maximum(d - (p2 + p3), abs(p2 - p3) - d)

    # a failing row may divide by d = 0 or take the root of a negative
    # discriminant; its positions are replaced by NaN below
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (p2 * p2 - p3 * p3 + d * d) / (2.0 * d)
        disc = p2 * p2 - a * a
        h = np.sqrt(disc)
        u = BD / d[..., None]
        perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        C = B + a[..., None] * u + params.branch * h[..., None] * perp
        beta = np.arctan2(C[..., 1] - B[..., 1], C[..., 0] - B[..., 0])
        steps = np.abs(angle_diff(beta[:, 1:], beta[:, :-1]))

    cos_mu = (p2 * p2 + p3 * p3 - d * d) / (2.0 * p2 * p3)
    mu = np.arccos(np.clip(cos_mu, -1.0, 1.0))
    mu = np.minimum(mu, np.pi - mu)

    jump = np.zeros(d.shape, dtype=bool)
    jump[:, 1:] = steps > CONTINUITY_BOUND
    checks = (
        (gap > 0.0, lambda r, i: NotAssemblableError(phis[r, i], gap[r, i])),
        # B on top of D (crank ratio 1 at phi = 0 with equal coupler/rocker)
        # leaves the intersection direction undefined
        (d < 1e-12,
         lambda r, i: DegenerateConfigurationError(phis[r, i], 0.0)),
        (disc < DEGENERACY_TOL,
         lambda r, i: DegenerateConfigurationError(phis[r, i], disc[r, i])),
        (jump, lambda r, i: f"coupler-angle jump {steps[r, i - 1]:.3f} rad "
                            f"exceeds continuity bound {CONTINUITY_BOUND}"),
    )
    errors = [None] * len(phis)
    for bad, reason in checks:
        first = bad.argmax(axis=1)
        for r in np.flatnonzero(bad.any(axis=1)):
            if errors[r] is None:
                errors[r] = SweepInvalidError(first[r], reason(r, first[r]))
    failed = np.array([e is not None for e in errors])
    C[failed] = beta[failed] = mu[failed] = np.nan
    return Sweep(phi=phis, fractions=fractions, B=B, C=C, beta=beta, mu=mu,
                 error=errors)


def solve_position(params, phi):
    """Assemble one design at a single crank angle, as a Sweep of that one
    angle (phi, beta and mu are numbers, B and C 2-vectors).

    Raises NotAssemblableError / DegenerateConfigurationError when joint C
    cannot be placed on the selected branch.
    """
    at = _positions(params, float(phi)).row(0)
    if at.error is not None:
        raise at.error.reason
    return Sweep(phi=at.phi[0], fractions=None, B=at.B[0], C=at.C[0],
                 beta=at.beta[0], mu=at.mu[0])


def sweep(params, count):
    """Position analysis over the support schedule of one design, or of
    each design of a batch, on the params' assembly branch.

    A design that fails a check of _positions is reported in the Sweep's
    error, not raised.
    """
    angles, fractions = sample_schedule(params.start_angle,
                                        params.support_arc, count)
    trace = _positions(params, angles, fractions)
    return trace if np.ndim(params.crank) else trace.row(0)


def coupler_path(sweep, local_point):
    """World trajectory of a point fixed in the coupler frame.

    local_point = (x, y) in the frame with origin B and x-axis along BC.
    """
    xy = np.asarray(local_point, dtype=float)
    c, s = np.cos(sweep.beta), np.sin(sweep.beta)
    ex = xy[0] * c - xy[1] * s
    ey = xy[0] * s + xy[1] * c
    return sweep.B + np.stack([ex, ey], axis=-1)


def gait_metrics(params, mu_min):
    """Step-cycle ratio and worst transmission angle of designs whose valid
    sweeps have the worst transmission angle mu_min (rad), for example
    sweep.mu.min(axis=-1)."""
    support_deg = np.degrees(params.support_arc)
    transfer_deg = 360.0 - support_deg
    return GaitMetrics(support_deg=support_deg,
                       transfer_deg=transfer_deg,
                       cycle_ratio=support_deg / transfer_deg,
                       min_transmission_deg=np.degrees(mu_min))


def force_ratio_angle(params, pose, coupler_point=(0.0, 0.0)):
    """Foot-force direction angle arctan(|F_vertical| / |F_horizontal|) at
    a single-angle pose from solve_position.

    The coupler is modeled as a massless two-force member, so the contact
    force is transmitted along BC; the returned angle is the inclination
    of BC in the world frame folded into [0, pi/2].  Under this model the
    direction does not depend on where the foot point sits on the coupler;
    the argument is accepted for interface symmetry with coupler_path.

    Raises SingularTransmissionError at a dead point (transmission angle
    zero), where the member direction carries no force information.
    """
    del coupler_point
    if pose.mu < 1e-9:
        raise SingularTransmissionError(
            f"dead point at crank angle {pose.phi:.6f} rad")
    bc = pose.C - pose.B
    return float(np.arctan2(abs(bc[1]), abs(bc[0])))
