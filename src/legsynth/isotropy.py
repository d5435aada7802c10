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
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import rot2

# |sin beta| below this is reported as a singular leg (foot on the leg
# x-axis, prismatic rate unobservable in the closure projection).
SIN_BETA_TOL = 1e-12
# forward_kinematics stops at this closure residual (infinity norm) and
# gives up after this many Newton steps.
_FK_TOL = 1e-12
_FK_MAX_ITER = 50


class SingularLegError(ValueError):
    """A leg's foot lies on its frame x-axis (sin beta = 0)."""


class SingularConfigurationError(ValueError):
    """The stance matrix is singular (working-area boundary)."""


class UndefinedFamilyError(ValueError):
    """Closed-form family parameters make the hip radius diverge."""


class FkDivergedError(RuntimeError):
    """Forward-kinematics Newton iteration failed to converge."""


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

    @property
    def beta(self):
        return float(np.arctan2(self.extension, self.foot_offset))


@dataclass(frozen=True)
class TripodConfig:
    """Body pose plus the three supporting legs (gait legs 1, 3, 5)."""

    legs: tuple
    heading: float = 0.0
    char_length: float = 1.0
    position: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if len(self.legs) != 3:
            raise ValueError("a tripod stance has exactly 3 legs")
        if not self.char_length > 0:
            raise ValueError("char_length must be positive")
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float))

    def extensions(self):
        return np.array([leg.extension for leg in self.legs])


@dataclass(frozen=True)
class IsotropyReport:
    """Isotropy diagnostics for one stance configuration."""

    residuals: np.ndarray
    isotropic: bool
    lam: float
    u_values: np.ndarray
    condition: float


def _leg_sines(config):
    sines = np.array([np.sin(leg.beta) for leg in config.legs])
    small = np.nonzero(np.abs(sines) < SIN_BETA_TOL)[0]
    if small.size:
        raise SingularLegError(f"leg {int(small[0])} has its foot on the "
                               "leg x-axis (sin beta ~ 0)")
    return sines


def inverse_jacobian(config):
    """Prismatic rates per unit body-pose rate, in closed trigonometric form.

    Row i is -[cos(theta+alpha+beta), sin(theta+alpha+beta),
    (r_O / L) sin(alpha+beta-gamma)] / sin(beta): the projection of the
    stance closure onto the foot direction, normalized so that
    q_dot = J_inv @ (xi_dot, eta_dot, L * theta_dot).
    """
    sines = _leg_sines(config)
    theta, L = config.heading, config.char_length
    rows = np.empty((3, 3))
    for i, leg in enumerate(config.legs):
        total = theta + leg.leg_angle + leg.beta
        swing = leg.leg_angle + leg.beta - leg.mount_angle
        rows[i] = (-1.0 / sines[i]) * np.array([
            np.cos(total),
            np.sin(total),
            leg.mount_radius * np.sin(swing) / L,
        ])
    return rows


def ab_matrices(config):
    """Stance closure matrices (A, B) built literally from rotations.

    A row i is [(rot2(theta+alpha) r_S)^T, (1/L) r_S . rot2(pi/2-alpha) r_O]
    with r_S the foot vector in the leg frame and r_O the hip vector in
    the body frame; B = -diag(q).  The body-rate map is A^-1 B.
    """
    theta, L = config.heading, config.char_length
    A = np.empty((3, 3))
    for i, leg in enumerate(config.legs):
        r_s = np.array([leg.foot_offset, leg.extension])
        r_o = leg.mount_radius * np.array([np.cos(leg.mount_angle),
                                           np.sin(leg.mount_angle)])
        A[i, 0:2] = rot2(theta + leg.leg_angle) @ r_s
        A[i, 2] = r_s @ (rot2(np.pi / 2.0 - leg.leg_angle) @ r_o) / L
    B = -np.diag(config.extensions())
    return A, B


def jacobian_via_AB(config):
    """Body-pose rates per unit prismatic rate, via the stance matrices.

    Returns A^-1 B; raises SingularConfigurationError at working-area
    boundaries where the stance matrix loses rank.
    """
    A, B = ab_matrices(config)
    norm = np.linalg.norm(A)
    if abs(np.linalg.det(A)) < 1e-12 * norm ** 3:
        raise SingularConfigurationError("stance matrix is singular "
                                         "(working-area boundary)")
    return np.linalg.solve(A, B)


def u_values(config):
    """Per-leg rotational coupling terms r_O * sin(alpha + beta - gamma)."""
    return np.array([
        leg.mount_radius * np.sin(leg.leg_angle + leg.beta - leg.mount_angle)
        for leg in config.legs
    ])


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
    u = u_values(config)
    u_gap = float(np.max(np.abs(u[:, None] - u[None, :])))
    residuals = np.array([M[0, 0] - M[1, 1], M[1, 1] - M[2, 2],
                          2.0 * M[0, 1], M[0, 2], M[1, 2], u_gap])
    return IsotropyReport(
        residuals=residuals,
        isotropic=bool(off <= tol * scale and spread <= tol * scale),
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
    return np.array([config.position + rot2(config.heading) @ (
        leg.mount_radius * np.array([np.cos(leg.mount_angle),
                                     np.sin(leg.mount_angle)]))
        for leg in config.legs])


def foot_positions(config):
    """World coordinates of the three feet for the given configuration."""
    return hip_positions(config) + np.array([
        rot2(config.heading + leg.leg_angle) @ np.array(
            [leg.foot_offset, leg.extension]) for leg in config.legs])


@dataclass(frozen=True)
class FkResult:
    position: np.ndarray
    heading: float
    leg_angles: np.ndarray
    residual: float
    iterations: int


def forward_kinematics(config, feet, extensions=None):
    """Solve the stance closure for body pose and passive leg angles.

    Given the three foot positions and prismatic extensions, Newton
    iteration, seeded with the pose and passive angles stored in
    `config`, drives the six closure equations
    S_i = R_C + rot(theta) r_O_i + rot(theta + alpha_i) (a_i, q_i)
    below 1e-12 in the infinity norm, or raises FkDivergedError after
    50 steps.  The six unknowns are the body position, heading, and the
    three passive angles.  Used as the finite-difference oracle for the
    analytic stance Jacobian.
    """
    feet = np.asarray(feet, dtype=float).reshape(3, 2)
    q = (config.extensions() if extensions is None
         else np.asarray(extensions, dtype=float))
    z = np.array([config.position[0], config.position[1], config.heading,
                  *(leg.leg_angle for leg in config.legs)])

    radius = np.array([leg.mount_radius for leg in config.legs])
    gamma = np.array([leg.mount_angle for leg in config.legs])
    a = np.array([leg.foot_offset for leg in config.legs])

    def residual_and_jacobian(z):
        pos, theta, alphas = z[0:2], z[2], z[3:6]
        R = np.empty(6)
        J = np.zeros((6, 6))
        for i in range(3):
            hip_dir = np.array([np.cos(theta + gamma[i]),
                                np.sin(theta + gamma[i])])
            hip = pos + radius[i] * hip_dir
            ang = theta + alphas[i]
            foot_vec = rot2(ang) @ np.array([a[i], q[i]])
            R[2 * i:2 * i + 2] = hip + foot_vec - feet[i]
            d_hip = radius[i] * np.array([-np.sin(theta + gamma[i]),
                                          np.cos(theta + gamma[i])])
            d_foot = rot2(ang + np.pi / 2.0) @ np.array([a[i], q[i]])
            J[2 * i:2 * i + 2, 0] = [1.0, 0.0]
            J[2 * i:2 * i + 2, 1] = [0.0, 1.0]
            J[2 * i:2 * i + 2, 2] = d_hip + d_foot
            J[2 * i:2 * i + 2, 3 + i] = d_foot
        return R, J

    for iteration in range(_FK_MAX_ITER):
        R, J = residual_and_jacobian(z)
        err = float(np.abs(R).max())
        if err <= _FK_TOL:
            return FkResult(position=z[0:2].copy(), heading=float(z[2]),
                            leg_angles=z[3:6].copy(), residual=err,
                            iterations=iteration)
        try:
            step = np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            raise FkDivergedError("closure Jacobian singular during Newton "
                                  "iteration") from None
        z = z - step
    raise FkDivergedError(f"no convergence in {_FK_MAX_ITER} iterations "
                          f"(residual {err:.3e})")
