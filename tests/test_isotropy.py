from dataclasses import dataclass

import numpy as np
import pytest

from legsynth.geometry import rot2
from legsynth.isotropy import (SIN_BETA_TOL, SingularConfigurationError,
                               SingularLegError, TripodConfig, TripodLeg,
                               UndefinedFamilyError, _rotate, ab_matrices,
                               closed_form_family, foot_positions,
                               hip_positions, inverse_jacobian,
                               isotropy_report, jacobian_via_AB, u_values)

# The stance closure solved by Newton iteration: the finite-difference
# oracle of the analytic stance Jacobian (here and in criterion 5).

# forward_kinematics stops at this closure residual (infinity norm) and
# gives up after this many Newton steps.
_FK_TOL = 1e-12
_FK_MAX_ITER = 50


class FkDivergedError(RuntimeError):
    """Forward-kinematics Newton iteration failed to converge."""


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
    q = (config.extension if extensions is None
         else np.asarray(extensions, dtype=float))
    z = np.array([config.position[0], config.position[1], config.heading,
                  *config.leg_angle])
    r_s = np.column_stack([config.foot_offset, q])
    radius = config.mount_radius[:, None]
    rows = np.arange(6)
    J = np.zeros((6, 6))
    J[rows, rows % 2] = 1.0

    for iteration in range(_FK_MAX_ITER):
        turn = z[2] + config.mount_angle
        ang = z[2] + z[3:6]
        hip = z[0:2] + radius * np.column_stack([np.cos(turn), np.sin(turn)])
        R = (hip + _rotate(ang, r_s) - feet).ravel()
        err = float(np.abs(R).max())
        if err <= _FK_TOL:
            return FkResult(position=z[0:2].copy(), heading=float(z[2]),
                            leg_angles=z[3:6].copy(), residual=err,
                            iterations=iteration)
        d_hip = radius * np.column_stack([-np.sin(turn), np.cos(turn)])
        d_foot = _rotate(ang + np.pi / 2.0, r_s)
        J[:, 2] = (d_hip + d_foot).ravel()
        J[rows, 3 + rows // 2] = d_foot.ravel()
        try:
            step = np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            raise FkDivergedError("closure Jacobian singular during Newton "
                                  "iteration") from None
        z = z - step
    raise FkDivergedError(f"no convergence in {_FK_MAX_ITER} iterations "
                          f"(residual {err:.3e})")


def random_config(rng, char_length=None):
    legs = tuple(
        TripodLeg(mount_radius=rng.uniform(0.5, 2.0),
                  mount_angle=rng.uniform(-np.pi, np.pi),
                  leg_angle=rng.uniform(-np.pi, np.pi),
                  foot_offset=rng.uniform(-1.0, 1.0),
                  extension=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        for _ in range(3))
    return TripodConfig(legs=legs, heading=rng.uniform(-np.pi, np.pi),
                        char_length=char_length or rng.uniform(0.5, 2.0),
                        position=rng.uniform(-1.0, 1.0, size=2))


def random_nonsingular_config(rng, max_condition=None, **kwargs):
    while True:
        config = random_config(rng, **kwargs)
        A, _ = ab_matrices(config)
        if abs(np.linalg.det(A)) <= 1e-3:
            continue
        if max_condition is not None \
                and np.linalg.cond(inverse_jacobian(config)) > max_condition:
            continue
        return config


class TestInverseJacobian:
    def test_reduced_single_leg_row(self):
        # leg 1: foot straight along the leg y-axis, no frame rotations,
        # hip one characteristic length out on the body x-axis
        lead = TripodLeg(mount_radius=1.0, mount_angle=0.0, leg_angle=0.0,
                         foot_offset=0.0, extension=1.0)
        others = (TripodLeg(1.0, 2.0, 0.5, 0.3, 1.0),
                  TripodLeg(1.0, -2.0, -0.5, -0.3, 1.0))
        config = TripodConfig(legs=(lead,) + others, heading=0.0,
                              char_length=1.0)
        row = inverse_jacobian(config)[0]
        # closure projection: q_dot = -(eta_dot + L theta_dot) for this leg
        assert np.allclose(row, [0.0, -1.0, -1.0], atol=1e-15)

    def test_row_direction_signs_match_finite_differences(self):
        # push one extension and check the body actually moves the way the
        # inverse map claims
        rng = np.random.default_rng(2)
        config = random_nonsingular_config(rng, max_condition=100.0)
        J_inv = inverse_jacobian(config)
        J = np.linalg.inv(J_inv)
        feet = foot_positions(config)
        q = config.extension
        h = 1e-7
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = h
            plus = forward_kinematics(config, feet, extensions=q + dq)
            minus = forward_kinematics(config, feet, extensions=q - dq)
            column = np.array([
                (plus.position[0] - minus.position[0]) / (2 * h),
                (plus.position[1] - minus.position[1]) / (2 * h),
                config.char_length * (plus.heading - minus.heading) / (2 * h),
            ])
            assert np.allclose(column, J[:, i], rtol=1e-5, atol=1e-8)

    def test_unit_row_norm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            config = random_config(rng)
            J_inv = inverse_jacobian(config)
            for i in range(3):
                expected = 1.0 / np.sin(config.beta[i]) ** 2
                assert np.isclose(J_inv[i, 0] ** 2 + J_inv[i, 1] ** 2,
                                  expected, rtol=1e-12)

    def test_family_rotation_column(self):
        config = closed_form_family(alpha1=0.3, gamma1=np.pi / 3,
                                    beta=np.pi / 2, char_length=1.0)
        column = inverse_jacobian(config)[:, 2]
        assert np.allclose(np.abs(column), 1.0 / np.sqrt(2.0), atol=1e-12)
        assert len(set(np.sign(column))) == 1

    def test_singular_leg_rejected(self):
        with pytest.raises(ValueError):
            TripodLeg(mount_radius=1.0, mount_angle=0.0, leg_angle=0.0,
                      foot_offset=1.0, extension=0.0)

    def test_two_legs_rejected(self):
        leg = TripodLeg(1.0, 0.0, 0.4, 0.2, 1.0)
        with pytest.raises(ValueError, match="exactly 3 legs"):
            TripodConfig(legs=(leg, leg))


class TestJacobianViaAB:
    def test_mutual_inverse_both_orders(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            config = random_nonsingular_config(rng)
            J = jacobian_via_AB(config)
            J_inv = inverse_jacobian(config)
            assert np.abs(J @ J_inv - np.eye(3)).max() < 1e-9
            assert np.abs(J_inv @ J - np.eye(3)).max() < 1e-9

    def test_trig_form_equals_literal_matrix_form(self):
        # same map built two ways: closed trig rows versus B^-1 A with A
        # assembled from rotation matrices
        rng = np.random.default_rng(6)
        for _ in range(50):
            config = random_config(rng)
            A, B = ab_matrices(config)
            literal = np.linalg.solve(B, A)
            assert np.abs(literal - inverse_jacobian(config)).max() < 1e-12

    def test_duplicate_legs_are_singular(self):
        leg = TripodLeg(mount_radius=1.0, mount_angle=0.5, leg_angle=0.2,
                        foot_offset=0.1, extension=1.0)
        other = TripodLeg(mount_radius=1.0, mount_angle=-1.0, leg_angle=1.4,
                          foot_offset=0.0, extension=0.8)
        config = TripodConfig(legs=(leg, leg, other))
        with pytest.raises(SingularConfigurationError):
            jacobian_via_AB(config)

    def test_rank_test_is_scale_free(self):
        # a power-of-two copy of a stance has A scaled exactly; at 2^+-500
        # its determinant and Frobenius norm cubed under- or overflow
        def scaled(config, factor):
            legs = tuple(TripodLeg(factor * leg.mount_radius,
                                   leg.mount_angle, leg.leg_angle,
                                   factor * leg.foot_offset,
                                   factor * leg.extension)
                         for leg in config.legs)
            return TripodConfig(legs=legs, heading=config.heading,
                                char_length=factor * config.char_length)

        rng = np.random.default_rng(24)
        sound = [random_nonsingular_config(rng) for _ in range(5)]
        leg = TripodLeg(1.0, 0.5, 0.2, 0.1, 1.0)
        doubled = TripodConfig(legs=(leg, leg, TripodLeg(1.0, -1.0, 1.4,
                                                         0.0, 0.8)))
        for factor in (2.0 ** -500, 2.0 ** -200, 2.0 ** 200, 2.0 ** 500):
            for config in sound:
                J = jacobian_via_AB(scaled(config, factor))
                assert J.tobytes() == jacobian_via_AB(config).tobytes()
            with pytest.raises(SingularConfigurationError):
                jacobian_via_AB(scaled(doubled, factor))

    def test_extension_scaling_scales_B(self):
        rng = np.random.default_rng(7)
        config = random_config(rng)
        scaled_legs = tuple(
            TripodLeg(mount_radius=leg.mount_radius,
                      mount_angle=leg.mount_angle, leg_angle=leg.leg_angle,
                      foot_offset=leg.foot_offset,
                      extension=3.0 * leg.extension)
            for leg in config.legs)
        scaled = TripodConfig(legs=scaled_legs, heading=config.heading,
                              char_length=config.char_length)
        _, B = ab_matrices(config)
        _, B_scaled = ab_matrices(scaled)
        assert np.allclose(B_scaled, 3.0 * B, atol=0)


class TestIsotropyConditions:
    def test_family_residuals_vanish(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            config = closed_form_family(alpha1=rng.uniform(-np.pi, np.pi),
                                        gamma1=np.pi / 3, beta=np.pi / 2,
                                        char_length=1.0)
            assert np.abs(isotropy_report(config).residuals).max() <= 1e-12

    def test_perturbed_family_violates(self):
        base = closed_form_family(alpha1=0.4, gamma1=np.pi / 3,
                                  beta=np.pi / 2)
        legs = list(base.legs)
        bent = legs[1]
        legs[1] = TripodLeg(mount_radius=bent.mount_radius,
                            mount_angle=bent.mount_angle + 0.1,
                            leg_angle=bent.leg_angle,
                            foot_offset=bent.foot_offset,
                            extension=bent.extension)
        perturbed = TripodConfig(legs=tuple(legs), heading=base.heading,
                                 char_length=base.char_length)
        assert np.abs(isotropy_report(perturbed).residuals).max() > 1e-3

    def test_residuals_periodic_in_heading(self):
        config = closed_form_family(alpha1=0.9, gamma1=-np.pi / 3,
                                    beta=1.1)
        turned = TripodConfig(legs=config.legs,
                              heading=config.heading + 2.0 * np.pi,
                              char_length=config.char_length)
        assert np.allclose(isotropy_report(config).residuals,
                           isotropy_report(turned).residuals, atol=1e-9)

    def test_report_flags_family_isotropic(self):
        config = closed_form_family(alpha1=-0.7, gamma1=np.pi / 3,
                                    beta=np.pi / 2, char_length=1.0)
        report = isotropy_report(config)
        assert report.isotropic
        assert abs(report.lam - np.sqrt(2.0 / 3.0)) < 1e-9
        assert abs(report.condition - 1.0) < 1e-8

    def test_random_configs_are_not_isotropic(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            config = random_nonsingular_config(rng)
            assert not isotropy_report(config).isotropic

    def test_product_matrix_symmetric_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            config = random_config(rng)
            J_inv = inverse_jacobian(config)
            M = J_inv.T @ J_inv
            assert np.abs(M - M.T).max() < 1e-12
            assert np.linalg.eigvalsh(M).min() >= -1e-12

    def test_residuals_and_flag_agree(self):
        rng = np.random.default_rng(12)
        tol = 1e-8
        configs = [closed_form_family(rng.uniform(-np.pi, np.pi),
                                      gamma1=np.pi / 3,
                                      beta=rng.uniform(0.4, np.pi - 0.4))
                   for _ in range(10)]
        configs += [random_nonsingular_config(rng) for _ in range(10)]
        for config in configs:
            report = isotropy_report(config, tol=tol)
            residual_small = np.abs(report.residuals).max() <= tol
            assert report.isotropic == residual_small

    def test_flag_matches_the_numpy_bound_at_every_tol(self):
        # a bound tol * scale past the float range is inf; the pytest
        # filter turns a RuntimeWarning from legsynth into an error
        rng = np.random.default_rng(23)
        configs = [closed_form_family(0.3, np.pi / 3, np.pi / 2,
                                      char_length=10.0),
                   random_nonsingular_config(rng),
                   random_nonsingular_config(rng)]
        for config in configs:
            J_inv = inverse_jacobian(config)
            M = J_inv.T @ J_inv
            scale = np.linalg.norm(M)
            off = np.abs(M - np.diag(np.diag(M))).max()
            spread = np.diag(M).max() - np.diag(M).min()
            for tol in (0.0, 5e-324, 1e-8, 0.5, 1e300, 1e308,
                        np.finfo(float).max):
                with np.errstate(over="ignore"):
                    expected = off <= tol * scale and spread <= tol * scale
                assert isotropy_report(config, tol=tol).isotropic == expected

    def test_equal_singular_values_on_family(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            config = closed_form_family(alpha1=rng.uniform(-np.pi, np.pi),
                                        gamma1=-np.pi / 3,
                                        beta=rng.uniform(0.5, np.pi - 0.5),
                                        char_length=rng.uniform(0.5, 2.0))
            s = np.linalg.svd(inverse_jacobian(config), compute_uv=False)
            assert (s.max() - s.min()) / s.max() <= 1e-9

    def test_report_bundles_diagnostics(self):
        config = closed_form_family(alpha1=0.2, gamma1=np.pi / 3,
                                    beta=np.pi / 2)
        report = isotropy_report(config)
        assert report.isotropic
        assert report.residuals.shape == (6,)
        assert np.allclose(report.u_values, report.u_values[0], atol=1e-12)


class TestClosedFormFamily:
    def test_first_solution_gamma_third_pi(self):
        config = closed_form_family(alpha1=0.0, gamma1=np.pi / 3,
                                    beta=np.pi / 2, variant=1)
        gammas = [leg.mount_angle for leg in config.legs]
        assert np.allclose(gammas, [np.pi / 3, -np.pi / 3, np.pi], atol=1e-15)

    def test_first_solution_gamma_minus_third_pi(self):
        config = closed_form_family(alpha1=0.0, gamma1=-np.pi / 3,
                                    beta=np.pi / 2, variant=1)
        gammas = [leg.mount_angle for leg in config.legs]
        assert np.allclose(gammas, [-np.pi / 3, -np.pi, np.pi / 3],
                           atol=1e-15)

    def test_variant_two_swaps_legs(self):
        a = closed_form_family(alpha1=0.3, gamma1=np.pi / 3, beta=1.2,
                               variant=1)
        b = closed_form_family(alpha1=0.3, gamma1=np.pi / 3, beta=1.2,
                               variant=2)
        assert a.legs[0] == b.legs[0]
        assert a.legs[1] == b.legs[2]
        assert a.legs[2] == b.legs[1]

    def test_negative_radius_materialized_positively(self):
        config = closed_form_family(alpha1=0.0, gamma1=np.pi / 3,
                                    beta=np.pi / 2, sign=-1)
        assert all(leg.mount_radius > 0 for leg in config.legs)
        assert np.abs(isotropy_report(config).residuals).max() <= 1e-12

    def test_undefined_family(self):
        # alpha1 + beta - gamma1 = 0 makes the hip radius diverge
        with pytest.raises(UndefinedFamilyError):
            closed_form_family(alpha1=0.0, gamma1=1.0, beta=1.0, variant=1)

    def test_u_values_equal_across_legs(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            config = closed_form_family(alpha1=rng.uniform(-np.pi, np.pi),
                                        gamma1=np.pi / 3,
                                        beta=rng.uniform(0.4, np.pi - 0.4))
            u = u_values(config)
            assert np.abs(u - u[0]).max() <= 1e-12


class TestForwardKinematics:
    def test_hips_and_feet_at_their_leg_lengths(self):
        rng = np.random.default_rng(19)
        config = random_config(rng)
        hips, feet = hip_positions(config), foot_positions(config)
        radius = [leg.mount_radius for leg in config.legs]
        reach = [np.hypot(leg.foot_offset, leg.extension)
                 for leg in config.legs]
        assert np.allclose(np.linalg.norm(hips - config.position, axis=1),
                           radius, rtol=1e-12)
        assert np.allclose(np.linalg.norm(feet - hips, axis=1), reach,
                           rtol=1e-12)

    def test_fixed_point_at_seed(self):
        rng = np.random.default_rng(15)
        config = random_nonsingular_config(rng)
        feet = foot_positions(config)
        result = forward_kinematics(config, feet)
        assert result.iterations == 0
        assert np.allclose(result.position, config.position, atol=1e-12)
        assert abs(result.heading - config.heading) < 1e-12

    def test_closure_residual_below_tolerance(self):
        rng = np.random.default_rng(16)
        config = random_nonsingular_config(rng)
        feet = foot_positions(config)
        q = config.extension * 1.02
        result = forward_kinematics(config, feet, extensions=q)
        assert result.residual <= 1e-12

    def test_finite_difference_jacobian_matches_analytic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            config = random_nonsingular_config(rng, max_condition=100.0)
            J = np.linalg.inv(inverse_jacobian(config))
            feet = foot_positions(config)
            q = config.extension
            h = 1e-6
            for i in range(3):
                dq = np.zeros(3)
                dq[i] = h
                plus = forward_kinematics(config, feet, extensions=q + dq)
                minus = forward_kinematics(config, feet, extensions=q - dq)
                fd = np.array([
                    (plus.position[0] - minus.position[0]) / (2 * h),
                    (plus.position[1] - minus.position[1]) / (2 * h),
                    config.char_length * (plus.heading - minus.heading)
                    / (2 * h)])
                scale = max(1.0, np.abs(J[:, i]).max())
                assert np.abs(fd - J[:, i]).max() <= 1e-5 * scale

    def test_divergence_reported(self):
        # inflate the foot triangle about its centroid until the fixed
        # extensions cannot close the stance at all
        rng = np.random.default_rng(18)
        config = random_nonsingular_config(rng)
        feet = foot_positions(config)
        centroid = feet.mean(axis=0)
        feet = centroid + 50.0 * (feet - centroid)
        with pytest.raises(FkDivergedError):
            forward_kinematics(config, feet)


# The per-leg forms the arrays of TripodConfig replaced, kept verbatim as
# oracles; `leg_beta` and `leg_extensions` stand for the deleted
# `TripodLeg.beta` and `TripodConfig.extensions()`.
def leg_beta(leg):
    return float(np.arctan2(leg.extension, leg.foot_offset))


def leg_extensions(config):
    return np.array([leg.extension for leg in config.legs])


def leg_sines_per_leg(config):
    sines = np.array([np.sin(leg_beta(leg)) for leg in config.legs])
    small = np.nonzero(np.abs(sines) < SIN_BETA_TOL)[0]
    if small.size:
        raise SingularLegError(f"leg {int(small[0])} has its foot on the "
                               "leg x-axis (sin beta ~ 0)")
    return sines


def inverse_jacobian_per_leg(config):
    sines = leg_sines_per_leg(config)
    theta, L = config.heading, config.char_length
    rows = np.empty((3, 3))
    for i, leg in enumerate(config.legs):
        total = theta + leg.leg_angle + leg_beta(leg)
        swing = leg.leg_angle + leg_beta(leg) - leg.mount_angle
        rows[i] = (-1.0 / sines[i]) * np.array([
            np.cos(total),
            np.sin(total),
            leg.mount_radius * np.sin(swing) / L,
        ])
    return rows


def ab_matrices_per_leg(config):
    theta, L = config.heading, config.char_length
    A = np.empty((3, 3))
    for i, leg in enumerate(config.legs):
        r_s = np.array([leg.foot_offset, leg.extension])
        r_o = leg.mount_radius * np.array([np.cos(leg.mount_angle),
                                           np.sin(leg.mount_angle)])
        A[i, 0:2] = rot2(theta + leg.leg_angle) @ r_s
        A[i, 2] = r_s @ (rot2(np.pi / 2.0 - leg.leg_angle) @ r_o) / L
    B = -np.diag(leg_extensions(config))
    return A, B


def jacobian_via_AB_unscaled(config):
    A, B = ab_matrices_per_leg(config)
    norm = np.linalg.norm(A)
    if abs(np.linalg.det(A)) < 1e-12 * norm ** 3:
        raise SingularConfigurationError("stance matrix is singular "
                                         "(working-area boundary)")
    return np.linalg.solve(A, B)


def u_values_per_leg(config):
    return np.array([
        leg.mount_radius * np.sin(leg.leg_angle + leg_beta(leg)
                                  - leg.mount_angle)
        for leg in config.legs
    ])


def hip_positions_per_leg(config):
    return np.array([config.position + rot2(config.heading) @ (
        leg.mount_radius * np.array([np.cos(leg.mount_angle),
                                     np.sin(leg.mount_angle)]))
        for leg in config.legs])


def foot_positions_per_leg(config):
    return hip_positions_per_leg(config) + np.array([
        rot2(config.heading + leg.leg_angle) @ np.array(
            [leg.foot_offset, leg.extension]) for leg in config.legs])


def forward_kinematics_per_leg(config, feet, extensions=None):
    feet = np.asarray(feet, dtype=float).reshape(3, 2)
    q = (leg_extensions(config) if extensions is None
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

    for iteration in range(50):
        R, J = residual_and_jacobian(z)
        err = float(np.abs(R).max())
        if err <= 1e-12:
            return FkResult(position=z[0:2].copy(), heading=float(z[2]),
                            leg_angles=z[3:6].copy(), residual=err,
                            iterations=iteration)
        try:
            step = np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            raise FkDivergedError("closure Jacobian singular during Newton "
                                  "iteration") from None
        z = z - step
    raise FkDivergedError(f"no convergence in 50 iterations "
                          f"(residual {err:.3e})")


def outcome(function, *args, **kwargs):
    """A call's result, or the type and message of the error it raised."""
    try:
        return function(*args, **kwargs)
    except (SingularLegError, SingularConfigurationError,
            FkDivergedError) as err:
        return type(err), str(err)


def assert_bit_identical(got, expected):
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    elif isinstance(expected, FkResult):
        for name in ("position", "heading", "leg_angles", "residual",
                     "iterations"):
            assert_bit_identical(getattr(got, name), getattr(expected, name))
    elif isinstance(expected, tuple):
        for part, expected_part in zip(got, expected, strict=True):
            assert_bit_identical(part, expected_part)
    else:
        assert type(got) is type(expected)
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def oracle_stance(rng, index):
    """A seeded stance: most as `random_config` draws them, every third
    with lengths spread over six decades and angles over several turns,
    every seventh with one foot on its leg x-axis and every eleventh with
    two legs alike."""
    if index % 3 != 2:
        config = random_config(rng)
    else:
        scale = 10.0 ** rng.integers(-3, 4)
        legs = tuple(
            TripodLeg(mount_radius=scale * rng.uniform(0.01, 5.0),
                      mount_angle=rng.uniform(-10.0, 10.0),
                      leg_angle=rng.uniform(-10.0, 10.0),
                      foot_offset=scale * rng.uniform(-5.0, 5.0),
                      extension=scale * rng.choice([-1.0, 1.0])
                      * rng.uniform(1e-3, 5.0))
            for _ in range(3))
        config = TripodConfig(legs=legs, heading=rng.uniform(-30.0, 30.0),
                              char_length=scale * rng.uniform(0.1, 3.0),
                              position=rng.uniform(-1.0, 1.0, size=2))
    legs = list(config.legs)
    if index % 7 == 3:
        k = rng.integers(3)
        legs[k] = TripodLeg(legs[k].mount_radius, legs[k].mount_angle,
                            legs[k].leg_angle, 1.0, 1e-14 * (index % 2 - 0.5))
    if index % 11 == 5:
        legs[2] = legs[1]
    return TripodConfig(legs=tuple(legs), heading=config.heading,
                        char_length=config.char_length,
                        position=config.position)


ORACLE_PAIRS = [
    (inverse_jacobian, inverse_jacobian_per_leg),
    (ab_matrices, ab_matrices_per_leg),
    (jacobian_via_AB, jacobian_via_AB_unscaled),
    (u_values, u_values_per_leg),
    (hip_positions, hip_positions_per_leg),
    (foot_positions, foot_positions_per_leg),
]


class TestArraysMatchPerLegOracles:
    def test_figures_are_read_only_leg_arrays(self):
        config = random_config(np.random.default_rng(20))
        for name in ("mount_radius", "mount_angle", "leg_angle",
                     "foot_offset", "extension"):
            figure = getattr(config, name)
            assert figure.shape == (3,) and not figure.flags.writeable
            assert figure.tolist() == [getattr(leg, name)
                                       for leg in config.legs]
        assert not config.beta.flags.writeable
        assert config.beta.tolist() == [leg_beta(leg) for leg in config.legs]

    def test_functions_bit_identical(self):
        rng = np.random.default_rng(21)
        raised = []
        for index in range(300):
            config = oracle_stance(rng, index)
            for function, oracle in ORACLE_PAIRS:
                expected = outcome(oracle, config)
                if isinstance(expected[0], type):
                    raised.append(expected[0])
                assert_bit_identical(outcome(function, config), expected)
        assert raised.count(SingularLegError) >= 35
        assert raised.count(SingularConfigurationError) >= 20

    def test_singular_leg_error_names_the_same_leg(self):
        leg = TripodLeg(1.0, 0.0, 0.3, 0.2, 1.0)
        for k in range(3):
            legs = [leg] * 3
            legs[k] = TripodLeg(1.0, 2.0, 1.0, -1.0, 1e-13)
            config = TripodConfig(legs=tuple(legs))
            expected = outcome(inverse_jacobian_per_leg, config)
            assert expected[0] is SingularLegError
            assert f"leg {k} " in expected[1]
            assert outcome(inverse_jacobian, config) == expected

    def test_forward_kinematics_bit_identical(self):
        rng = np.random.default_rng(22)
        converged = diverged = 0
        for index in range(120):
            config = oracle_stance(rng, index)
            feet = foot_positions_per_leg(config)
            centroid = feet.mean(axis=0)
            for args in ((feet,),
                         (feet, leg_extensions(config)
                          * rng.uniform(0.9, 1.1, size=3)),
                         (centroid + rng.uniform(1.0, 60.0)
                          * (feet - centroid),)):
                expected = outcome(forward_kinematics_per_leg, config, *args)
                if isinstance(expected, FkResult):
                    converged += 1
                else:
                    diverged += 1
                assert_bit_identical(
                    outcome(forward_kinematics, config, *args), expected)
        assert converged >= 100 and diverged >= 50
