import numpy as np
import pytest

from legsynth.isotropy import (FkDivergedError, SingularConfigurationError,
                               TripodConfig, TripodLeg, UndefinedFamilyError,
                               ab_matrices, closed_form_family,
                               foot_positions, forward_kinematics,
                               hip_positions, inverse_jacobian,
                               isotropy_report, jacobian_via_AB, u_values)


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
        q = config.extensions()
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
            for i, leg in enumerate(config.legs):
                expected = 1.0 / np.sin(leg.beta) ** 2
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
        q = config.extensions() * 1.02
        result = forward_kinematics(config, feet, extensions=q)
        assert result.residual <= 1e-12

    def test_finite_difference_jacobian_matches_analytic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            config = random_nonsingular_config(rng, max_condition=100.0)
            J = np.linalg.inv(inverse_jacobian(config))
            feet = foot_positions(config)
            q = config.extensions()
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
