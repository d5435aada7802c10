"""Tripod-stance Jacobian analysis and isotropic configuration families.

During a tripod gait three legs support the body.  Modeling each
support-leg mechanism as a prismatic joint, the body pose rate
(xi_dot, eta_dot, L * theta_dot) maps linearly to the three prismatic
rates.  The map is singular at working-area boundaries and isotropic
(scaled orthogonal) at the configurations where force and velocity
transfer equally well in every direction; this module builds the map two
independent ways, evaluates the isotropy conditions, and constructs the
closed-form families of isotropic configurations.

Rotation convention: rot2 rotates counter-clockwise and the z axis
completes the right-handed triad.  The characteristic length L makes the
rotational coordinate commensurate with translations.

Leg i carries a local frame at its hip joint O_i, turned by the passive
angle alpha_i relative to the body; the foot S_i sits at local
coordinates (a_i, q_i) where q_i is the prismatic generalized coordinate.
beta_i = atan2(q_i, a_i) is the foot direction in the leg frame.

A `TripodConfig` keeps each per-leg figure as one read-only (3,) array,
and every function below computes on those arrays, all legs at once.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import rot2

# |sin beta| below this is reported as a singular leg (foot on the leg
# x-axis, prismatic rate unobservable in the closure projection).
SIN_BETA_TOL = 1e-12


class SingularLegError(ValueError):
    """A leg's foot lies on its frame x-axis (sin beta = 0)."""


class SingularConfigurationError(ValueError):
    """The stance matrix is singular (working-area boundary)."""


class UndefinedFamilyError(ValueError):
    """Closed-form family parameters make the hip radius diverge."""


@dataclass(frozen=True)
class TripodLeg:
    """One support leg: hip placement in the body frame plus foot coords.

    mount_radius and mount_angle place the hip joint O (polar, body
    frame); leg_angle is the passive rotation of the leg frame relative
    to the body; foot_offset and extension are the foot's fixed local x
    and prismatic local y coordinates.
    """

    mount_radius: float
    mount_angle: float
    leg_angle: float
    foot_offset: float
    extension: float

    def __post_init__(self):
        if not self.mount_radius > 0:
            raise ValueError("mount_radius must be positive")
        if self.extension == 0:
            raise ValueError("extension (generalized coordinate) must be nonzero")


@dataclass(frozen=True)
class TripodConfig:
    """Body pose plus the three supporting legs (gait legs 1, 3, 5).

    Each TripodLeg field, and beta = arctan2(extension, foot_offset), is
    also kept as a read-only (3,) float array of that name, one per leg.
    """

    legs: tuple
    heading: float = 0.0
    char_length: float = 1.0
    position: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        legs = self.legs
        if len(legs) != 3:
            raise ValueError("a tripod stance has exactly 3 legs")
        if not self.char_length > 0:
            raise ValueError("char_length must be positive")
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float))
        figures = {f.name: np.array([getattr(leg, f.name) for leg in legs],
                                    dtype=float) for f in fields(TripodLeg)}
        figures["beta"] = np.arctan2(figures["extension"],
                                     figures["foot_offset"])
        for name, value in figures.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class IsotropyReport:
    """Isotropy diagnostics for one stance configuration."""

    residuals: np.ndarray
    isotropic: bool
    lam: float
    u_values: np.ndarray
    condition: float


def _rotate(angle, vectors):
    """Each row of the (3, 2) `vectors` turned by rot2 of its `angle`."""
    return (rot2(angle) @ vectors[..., None])[..., 0]


def _hip_vectors(config):
    """The hip vectors r_O, one row per leg, in the body frame."""
    return config.mount_radius[:, None] * np.column_stack(
        [np.cos(config.mount_angle), np.sin(config.mount_angle)])


def inverse_jacobian(config):
    """Prismatic rates per unit body-pose rate, in closed trigonometric form.

    Row i is -[cos(theta+alpha+beta), sin(theta+alpha+beta),
    (r_O / L) sin(alpha+beta-gamma)] / sin(beta): the projection of the
    stance closure onto the foot direction, normalized so that
    q_dot = J_inv @ (xi_dot, eta_dot, L * theta_dot).
    """
    sines = np.sin(config.beta)
    small = np.nonzero(np.abs(sines) < SIN_BETA_TOL)[0]
    if small.size:
        raise SingularLegError(f"leg {int(small[0])} has its foot on the "
                               "leg x-axis (sin beta ~ 0)")
    total = (config.heading + config.leg_angle) + config.beta
    return (-1.0 / sines)[:, None] * np.column_stack(
        [np.cos(total), np.sin(total), u_values(config) / config.char_length])


def ab_matrices(config):
    """Stance closure matrices (A, B) built literally from rotations.

    A row i is [(rot2(theta+alpha) r_S)^T, (1/L) r_S . rot2(pi/2-alpha) r_O]
    with r_S the foot vector in the leg frame and r_O the hip vector in
    the body frame; B = -diag(q).  The body-rate map is A^-1 B.
    """
    r_s = np.column_stack([config.foot_offset, config.extension])
    turned = _rotate(np.pi / 2.0 - config.leg_angle, _hip_vectors(config))
    A = np.empty((3, 3))
    A[:, 0:2] = _rotate(config.heading + config.leg_angle, r_s)
    A[:, 2] = (r_s[:, None, :] @ turned[..., None])[:, 0, 0] \
        / config.char_length
    return A, -np.diag(config.extension)


def jacobian_via_AB(config):
    """Body-pose rates per unit prismatic rate, via the stance matrices.

    Returns A^-1 B; raises SingularConfigurationError at working-area
    boundaries where the stance matrix loses rank.  The rank test reads A
    scaled exactly, by a power of two, to a largest entry in [0.5, 1).
    """
    A, B = ab_matrices(config)
    unit = np.ldexp(A, -np.frexp(np.abs(A).max())[1])
    if abs(np.linalg.det(unit)) < 1e-12 * np.linalg.norm(unit) ** 3:
        raise SingularConfigurationError("stance matrix is singular "
                                         "(working-area boundary)")
    return np.linalg.solve(A, B)


def u_values(config):
    """Per-leg rotational coupling terms r_O * sin(alpha + beta - gamma)."""
    return config.mount_radius * np.sin(
        config.leg_angle + config.beta - config.mount_angle)


def isotropy_report(config, tol=1e-8):
    """Isotropy diagnostics of one stance, from one inverse Jacobian.

    The stance is isotropic when M = (J_inv)^T J_inv = (1/lambda^2) I:
    the flag is set when every off-diagonal entry of M is at most tol
    times its Frobenius norm and the diagonal entries agree to the same
    measure.  lambda = 1/sqrt(mean diagonal); the 2-norm condition number
    of J_inv is exactly 1 at isotropy.  The six residuals vanish exactly
    at an isotropic configuration: the two differences of the diagonal
    of M (eliminating the free isotropy scalar), its three off-diagonal
    entries (the first as 2 M_01, the sum of
    sin(2 (theta + alpha + beta)) / sin^2 beta over the legs), and the
    max pairwise gap of the per-leg rotational couplings u_i.
    """
    J_inv = inverse_jacobian(config)
    M = J_inv.T @ J_inv
    scale = np.linalg.norm(M)
    off = np.abs(M - np.diag(np.diag(M))).max()
    diag = np.diag(M)
    spread = diag.max() - diag.min()
    # Python floats: a bound past the float range is inf, with no warning
    bound = float(tol) * float(scale)
    u = u_values(config)
    u_gap = float(np.max(np.abs(u[:, None] - u[None, :])))
    residuals = np.array([M[0, 0] - M[1, 1], M[1, 1] - M[2, 2],
                          2.0 * M[0, 1], M[0, 2], M[1, 2], u_gap])
    return IsotropyReport(
        residuals=residuals,
        isotropic=bool(off <= bound and spread <= bound),
        lam=float(1.0 / np.sqrt(diag.mean())), u_values=u,
        condition=float(np.linalg.cond(J_inv, 2)))


def closed_form_family(alpha1, gamma1, beta, char_length=1.0,
                       variant=1, sign=+1):
    """Construct an isotropic stance from the closed-form solution family.

    Legs are spread 2*pi/3 apart in their passive angles (variant 1 turns
    leg 3 by -2*pi/3 and leg 5 by +2*pi/3; variant 2 swaps them), the hip
    polar angles follow the same differences, every leg shares the foot
    angle `beta` (extension 1, foot_offset back-solved), and the common
    hip radius is sign * L / (sqrt(2) sin(alpha1 + beta - gamma1)).
    Negative radii are materialized as positive radii with the hip angle
    advanced by pi (the same physical point).
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0.0 < beta < np.pi:
        raise ValueError("beta must lie in (0, pi) so a unit extension "
                         "realizes it")
    s = np.sin(alpha1 + beta - gamma1)
    if abs(s) < 1e-12:
        raise UndefinedFamilyError("sin(alpha1 + beta - gamma1) = 0: "
                                   "hip radius undefined")
    radius = sign * char_length / (np.sqrt(2.0) * s)
    shift = 0.0
    if radius < 0:
        radius, shift = -radius, np.pi

    step = 2.0 * np.pi / 3.0
    if variant == 1:
        alphas = (alpha1, alpha1 - step, alpha1 + step)
    else:
        alphas = (alpha1, alpha1 + step, alpha1 - step)
    gammas = tuple(gamma1 + (a - alpha1) for a in alphas)

    offset = np.cos(beta) / np.sin(beta)  # foot_offset for extension 1
    legs = tuple(
        TripodLeg(mount_radius=radius, mount_angle=g + shift, leg_angle=a,
                  foot_offset=offset, extension=1.0)
        for a, g in zip(alphas, gammas)
    )
    return TripodConfig(legs=legs, heading=0.0, char_length=char_length)


def hip_positions(config):
    """World coordinates of the three hip joints O_i."""
    return config.position + _rotate(config.heading, _hip_vectors(config))


def foot_positions(config):
    """World coordinates of the three feet for the given configuration."""
    foot = np.column_stack([config.foot_offset, config.extension])
    return hip_positions(config) + _rotate(config.heading + config.leg_angle,
                                           foot)
