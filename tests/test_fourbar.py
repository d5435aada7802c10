import numpy as np
import pytest

from legsynth.fourbar import (DegenerateConfigurationError, FourBarParams,
                              NotAssemblableError, SingularTransmissionError,
                              Sweep, SweepInvalidError, coupler_path,
                              force_ratio_angle, gait_metrics,
                              sample_schedule, solve_position, sweep)

PARALLELOGRAM = FourBarParams(crank=0.4, coupler=1.0, rocker=0.4,
                              start_angle=0.2, support_arc=1.5)
# classic straight-line proportions: crank 1.25, coupler 0.5, rocker 1.25
CHEBYSHEV = FourBarParams(crank=1.25, coupler=0.5, rocker=1.25,
                          start_angle=np.radians(40.0),
                          support_arc=np.radians(55.0))


def brute_force_assemblable_angles(params, n=3600):
    """Triangle-inequality scan over the full crank circle (test oracle)."""
    phis = 2.0 * np.pi * np.arange(n) / n
    d = np.sqrt(params.crank ** 2 + 1.0
                - 2.0 * params.crank * np.cos(phis))
    ok = (np.abs(params.coupler - params.rocker) <= d) & \
         (d <= params.coupler + params.rocker)
    return phis, ok


class TestSampleSchedule:
    def test_three_point_arc(self):
        angles, fractions = sample_schedule(0.0, np.pi, 3)
        assert np.allclose(angles, [0.0, np.pi / 2, np.pi], atol=0)
        assert np.allclose(fractions, [0.0, 0.5, 1.0], atol=0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_fraction_mean_is_half(self, n):
        _, fractions = sample_schedule(0.7, 2.0, n)
        assert fractions.mean() == 0.5

    def test_support_arc_span_221_degrees(self):
        angles, _ = sample_schedule(0.0, 2.0 * np.pi * 221.0 / 360.0, 12)
        assert abs(np.degrees(angles[-1] - angles[0]) - 221.0) < 1e-12

    def test_rejects_short_schedule(self):
        with pytest.raises(ValueError):
            sample_schedule(0.0, np.pi, 1)


class TestSolvePosition:
    def test_parallelogram_translates(self):
        pose = solve_position(PARALLELOGRAM, np.pi / 2)
        assert np.allclose(pose.B, [0.0, 0.4], atol=1e-15)
        assert np.allclose(pose.C, [1.0, 0.4], atol=1e-12)
        assert abs(pose.beta) < 1e-12

    def test_right_angle_transmission(self):
        # |BD|^2 = coupler^2 + rocker^2 makes the coupler and rocker
        # perpendicular at C.
        p1, p2, p3 = 0.5, 0.6, 0.8
        phi = np.arccos((p1 ** 2 + 1.0 - (p2 ** 2 + p3 ** 2)) / (2.0 * p1))
        params = FourBarParams(p1, p2, p3, 0.0, np.pi)
        pose = solve_position(params, phi)
        assert abs(pose.mu - np.pi / 2) < 1e-12

    def test_chebyshev_closure_at_16_angles(self):
        phis = np.linspace(np.radians(40.0), np.radians(100.0), 16)
        for phi in phis:
            pose = solve_position(CHEBYSHEV, phi)
            assert abs(np.hypot(*(pose.C - pose.B)) - 0.5) < 1e-12
            assert abs(np.hypot(pose.C[0] - 1.0, pose.C[1]) - 1.25) < 1e-12

    def test_not_assemblable_reports_angle(self):
        with pytest.raises(NotAssemblableError) as info:
            solve_position(CHEBYSHEV, 0.0)
        assert info.value.phi == 0.0

    def test_degenerate_near_tangency(self):
        # crank angle where |BD| almost exactly equals coupler + rocker
        params = FourBarParams(crank=0.5, coupler=0.75, rocker=0.75,
                               start_angle=0.0, support_arc=np.pi)
        with pytest.raises(DegenerateConfigurationError):
            solve_position(params, np.pi)

    def test_degenerate_coincident_pivots(self):
        # crank ratio 1 at phi = 0 stacks B on D; the intersection
        # direction is undefined even though the circles coincide
        params = FourBarParams(crank=1.0, coupler=0.7, rocker=0.7,
                               start_angle=0.0, support_arc=np.pi)
        with pytest.raises(DegenerateConfigurationError):
            solve_position(params, 0.0)

    def test_branches_differ(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p1 = rng.uniform(0.2, 0.6)
            p2 = rng.uniform(0.8, 1.5)
            p3 = rng.uniform(0.8, 1.5)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            plus = FourBarParams(p1, p2, p3, 0.0, np.pi, branch=+1)
            minus = FourBarParams(p1, p2, p3, 0.0, np.pi, branch=-1)
            try:
                a = solve_position(plus, phi)
                b = solve_position(minus, phi)
            except (NotAssemblableError, DegenerateConfigurationError):
                continue
            assert np.hypot(*(a.C - b.C)) > 1e-6

    def test_closure_property_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            p1 = rng.uniform(0.1, 1.5)
            p2 = rng.uniform(0.1, 2.5)
            p3 = rng.uniform(0.1, 2.5)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            params = FourBarParams(p1, p2, p3, 0.0, np.pi)
            try:
                pose = solve_position(params, phi)
            except (NotAssemblableError, DegenerateConfigurationError):
                continue
            checked += 1
            assert abs(np.hypot(*pose.B) - p1) <= 1e-10 * p1
            assert abs(np.hypot(*(pose.C - pose.B)) - p2) <= 1e-10 * p2
            assert abs(np.hypot(pose.C[0] - 1.0, pose.C[1]) - p3) <= 1e-10 * p3

    def test_transmission_angle_against_vector_fold(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 50:
            params = FourBarParams(rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5),
                                   rng.uniform(0.5, 1.5), 0.0, np.pi)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            try:
                pose = solve_position(params, phi)
            except (NotAssemblableError, DegenerateConfigurationError):
                continue
            checked += 1
            cb = (pose.B - pose.C) / np.hypot(*(pose.B - pose.C))
            cd = (np.array([1.0, 0.0]) - pose.C)
            cd = cd / np.hypot(*cd)
            angle = np.arccos(np.clip(cb @ cd, -1.0, 1.0))
            folded = min(angle, np.pi - angle)
            assert abs(folded - pose.mu) < 1e-12


class TestSweep:
    def test_parallelogram_constant_beta(self):
        trace = sweep(PARALLELOGRAM, 8)
        assert np.all(np.abs(trace.beta) < 1e-12)

    def test_unassemblable_sample_rejected(self):
        params = FourBarParams(crank=0.6, coupler=0.4, rocker=0.5,
                               start_angle=np.pi / 2, support_arc=np.pi)
        trace = sweep(params, 8)
        assert isinstance(trace.error, SweepInvalidError)
        assert np.all(np.isnan(trace.mu))

    def test_chebyshev_arc_inside_assemblable_range(self):
        phis, ok = brute_force_assemblable_angles(CHEBYSHEV)
        arc = (CHEBYSHEV.start_angle, CHEBYSHEV.start_angle
               + CHEBYSHEV.support_arc)
        inside = (phis >= arc[0] - 1e-9) & (phis <= arc[1] + 1e-9)
        assert ok[inside].all()
        trace = sweep(CHEBYSHEV, 16)
        assert trace.error is None
        assert trace.phi.shape == trace.mu.shape == (16,)
        assert trace.B.shape == trace.C.shape == (16, 2)

    def test_parallelogram_coupler_points_trace_circles(self):
        trace = sweep(PARALLELOGRAM, 32)
        rng = np.random.default_rng(5)
        for _ in range(5):
            local = rng.uniform(-1.0, 1.0, size=2)
            path = coupler_path(trace, local)
            radii = np.hypot(path[:, 0] - local[0], path[:, 1] - local[1])
            assert np.abs(radii - PARALLELOGRAM.crank).max() <= 1e-10

    def test_batch_rows_match_single_designs(self):
        # one design per failure kind, plus assemblable ones: every row of
        # the batch sweep equals the sweep of its design alone, bit for bit,
        # and carries the same error text
        designs = [CHEBYSHEV, PARALLELOGRAM,
                   FourBarParams(0.6, 0.4, 0.5, np.pi / 2, np.pi),
                   FourBarParams(1.0, 0.7, 0.7, 0.0, 1.5),
                   FourBarParams(0.5, 0.75, 0.75, 0.0, np.pi),
                   FourBarParams(2.0, 2.5, 2.2, 0.0, 1.9 * np.pi),
                   FourBarParams(0.5, 1.25, 1.25, 1.1, 3.9)]
        columns = np.array([[d.crank, d.coupler, d.rocker, d.start_angle,
                             d.support_arc] for d in designs]).T
        batch = sweep(FourBarParams(*columns), 5)
        kinds = []
        for i, design in enumerate(designs):
            alone, row = sweep(design, 5), batch.row(i)
            for name in ("phi", "B", "C", "beta", "mu"):
                np.testing.assert_array_equal(getattr(row, name),
                                              getattr(alone, name))
            assert str(row.error) == str(alone.error)
            kinds.append(None if row.error is None else type(row.error.reason))
        assert kinds == [None, None, NotAssemblableError,
                         DegenerateConfigurationError,
                         DegenerateConfigurationError, str, None]
        assert "continuity bound 1.0" in str(batch.error[5])


class TestGaitMetrics:
    @pytest.mark.parametrize("support_deg,expected,tol", [
        (221.0, 1.59, 0.005),
        (184.0, 1.045, 0.005),
        (180.0, 1.0, 1e-12),
    ])
    def test_cycle_ratio(self, support_deg, expected, tol):
        params = FourBarParams(0.5, 1.25, 1.25, np.radians(65.0),
                               np.radians(support_deg))
        metrics = gait_metrics(params, sweep(params, 12).mu.min())
        assert abs(metrics.cycle_ratio - expected) <= tol

    def test_cycle_ratio_round_trip(self):
        # nu * transfer reproduces the support angle up to rounding of
        # the division/multiplication pair (a few ulp, not exact).
        for support_deg in (184.0, 200.5, 221.0, 300.0):
            params = FourBarParams(0.5, 1.25, 1.25, np.radians(65.0),
                                   np.radians(support_deg))
            m = gait_metrics(params, sweep(params, 8).mu.min())
            assert abs(m.cycle_ratio * m.transfer_deg - m.support_deg) \
                <= 1e-12 * m.support_deg

    def test_support_plus_transfer_is_full_turn(self):
        params = FourBarParams(0.5, 1.25, 1.25, np.radians(65.0),
                               np.radians(221.0))
        m = gait_metrics(params, sweep(params, 8).mu.min())
        assert m.support_deg + m.transfer_deg == 360.0


class TestForceRatioAngle:
    def test_vertical_coupler(self):
        params = FourBarParams(crank=0.5, coupler=0.25, rocker=1.25,
                               start_angle=0.0, support_arc=np.pi)
        pose = solve_position(params, np.pi / 2)
        assert abs(pose.C[0] - pose.B[0]) < 1e-12  # BC vertical
        assert abs(force_ratio_angle(params, pose) - np.pi / 2) < 1e-12

    def test_horizontal_coupler(self):
        pose = solve_position(PARALLELOGRAM, np.pi / 2)
        assert abs(force_ratio_angle(PARALLELOGRAM, pose)) < 1e-12

    def test_against_equilibrium_solve(self):
        # independent oracle: solve the two-force-member equilibrium
        # (zero moment about B, unit tension) as a 2x2 linear system
        phi = np.radians(70.0)
        pose = solve_position(CHEBYSHEV, phi)
        bc = pose.C - pose.B
        system = np.array([[-bc[1], bc[0]],
                           [bc[0], bc[1]]])
        force = np.linalg.solve(system, np.array([0.0, np.hypot(*bc)]))
        expected = np.arctan2(abs(force[1]), abs(force[0]))
        got = force_ratio_angle(CHEBYSHEV, pose, coupler_point=(0.25, 0.1))
        assert abs(got - expected) < 1e-12

    def test_dead_point_rejected(self):
        # fold the linkage so coupler and rocker align: |BD| = p2 + p3
        # is degenerate, so use a pose built by hand
        pose = Sweep(phi=0.0, fractions=None, B=np.array([0.1, 0.0]),
                     C=np.array([0.6, 0.0]), beta=0.0, mu=0.0)
        with pytest.raises(SingularTransmissionError):
            force_ratio_angle(PARALLELOGRAM, pose)


class TestParamValidation:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            FourBarParams(0.0, 1.0, 1.0, 0.0, np.pi)

    def test_rejects_bad_arc(self):
        with pytest.raises(ValueError):
            FourBarParams(0.5, 1.0, 1.0, 0.0, 2.0 * np.pi)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            FourBarParams(0.5, 1.0, 1.0, 0.0, np.pi, branch=2)
