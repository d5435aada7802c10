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

from .geometry import TWO_PI

# Absolute tolerance on the circle-intersection discriminant below which a
# configuration is reported as degenerate (near-tangent circles).
DEGENERACY_TOL = 1e-9


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
    along the support arc.
    B and C are the joint positions (phi's shape plus a last axis of 2),
    beta the coupler angle of BC from the x-axis, and mu the classical
    transmission angle between coupler and rocker at C folded into
    [0, pi/2].
    """

    phi: np.ndarray
    fractions: np.ndarray
    B: np.ndarray
    C: np.ndarray
    beta: np.ndarray
    mu: np.ndarray

    def row(self, i):
        """Design i of a batch, as a sweep of its own."""
        return Sweep(self.phi[i], self.fractions, self.B[i], self.C[i],
                     self.beta[i], self.mu[i])


@dataclass(frozen=True)
class ArcCheck:
    """Closed-form whole-arc figures, one entry per design: the crank angle
    phi of the smallest circle-intersection discriminant, the closure gap
    and that discriminant there, the violation max(DEGENERACY_TOL -
    discriminant, 0), positive exactly on the designs that do not assemble
    over the whole arc, and the worst transmission angle mu_min (rad)."""

    phi: np.ndarray
    gap: np.ndarray
    discriminant: np.ndarray
    violation: np.ndarray
    mu_min: np.ndarray

    def error(self, i):
        """Design i's error at its worst crank angle, or None."""
        return _failure(self.phi[i], self.gap[i], self.discriminant[i])


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
    at the crank angles phis[r]: the Sweep, and the closure gap and the
    discriminant p2^2 - a^2 of every angle, 0 where B sits on D (|BD| <
    1e-12, no intersection direction).  C and beta are meaningless where
    the discriminant is below DEGENERACY_TOL."""
    p1, p2, p3 = (np.reshape(v, (-1, 1))
                  for v in (params.crank, params.coupler, params.rocker))
    phis = np.reshape(phis, (len(p1), -1))
    B = np.stack([p1 * np.cos(phis), p1 * np.sin(phis)], axis=-1)
    BD = np.array([1.0, 0.0]) - B
    d = np.hypot(BD[..., 0], BD[..., 1])
    gap = np.maximum(d - (p2 + p3), abs(p2 - p3) - d)

    with np.errstate(divide="ignore", invalid="ignore"):
        a = (p2 * p2 - p3 * p3 + d * d) / (2.0 * d)
        disc = np.where(d < 1e-12, 0.0, p2 * p2 - a * a)
        h = np.sqrt(disc)
        u = BD / d[..., None]
        perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        C = B + a[..., None] * u + params.branch * h[..., None] * perp
        beta = np.arctan2(C[..., 1] - B[..., 1], C[..., 0] - B[..., 0])

    cos_mu = (p2 * p2 + p3 * p3 - d * d) / (2.0 * p2 * p3)
    mu = np.arccos(np.clip(cos_mu, -1.0, 1.0))
    mu = np.minimum(mu, np.pi - mu)
    return (Sweep(phi=phis, fractions=fractions, B=B, C=C, beta=beta, mu=mu),
            gap, disc)


def _failure(phi, gap, discriminant):
    """The error of one crank angle, or None where joint C can be placed."""
    if gap > 0.0:
        return NotAssemblableError(phi, gap)
    if not discriminant >= DEGENERACY_TOL:
        return DegenerateConfigurationError(phi, discriminant)
    return None


def arc_check(params):
    """Whole-arc assemblability and worst transmission angle of each
    design, in closed form.

    Coupler and rocker see the crank only through |BD|^2 = 1 + p1^2 -
    2 p1 cos(phi); the discriminant is concave in it, and the folded mu
    falls as |cos mu|, linear in it, grows.  So both are worst where |BD|
    is shortest or longest: at phi = 0 and pi (modulo 2 pi) where the arc
    reaches them, else at the arc end of larger or smaller cosine
    (Grashof; Freudenstein 1954).
    """
    start = np.reshape(params.start_angle, -1)
    end = start + np.reshape(params.support_arc, -1)
    extreme = np.array([[0.0], [np.pi]])
    turn = extreme + TWO_PI * np.ceil((start - extreme) / TWO_PI)
    ends = np.where(np.cos(start) >= np.cos(end), [start, end], [end, start])
    phi = np.where(turn <= end, turn, ends).T
    trace, gap, disc = _positions(params, phi)
    rows, worst = np.arange(len(start)), np.argmin(disc, axis=1)
    least = disc[rows, worst]
    return ArcCheck(phi[rows, worst], gap[rows, worst], least,
                    np.maximum(DEGENERACY_TOL - least, 0.0),
                    trace.mu.min(axis=1))


def sweep(params, count):
    """Position analysis over the support schedule of one design, or of
    each design of a batch, on the params' assembly branch.  Raises
    NotAssemblableError / DegenerateConfigurationError at the worst crank
    angle of the first design that arc_check rejects."""
    check = arc_check(params)
    if not np.all(check.violation <= 0.0):
        raise check.error(np.argmin(check.violation <= 0.0))
    return _sampled(params, count)


def _sampled(params, count):
    """sweep without its arc_check, for designs already accepted."""
    trace, _, _ = _positions(params, *sample_schedule(
        params.start_angle, params.support_arc, count))
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
    """Step-cycle ratio and worst transmission angle of designs whose
    worst transmission angle is mu_min (rad), for example
    arc_check(params).mu_min."""
    support_deg = np.degrees(params.support_arc)
    transfer_deg = 360.0 - support_deg
    return GaitMetrics(support_deg=support_deg,
                       transfer_deg=transfer_deg,
                       cycle_ratio=support_deg / transfer_deg,
                       min_transmission_deg=np.degrees(mu_min))

