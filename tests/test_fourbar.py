from collections import namedtuple

import numpy as np
import pytest

from legsynth.fourbar import (DEGENERACY_TOL, DegenerateConfigurationError,
                              FourBarParams, LinkageError,
                              NotAssemblableError, Sweep, _failure,
                              arc_check, coupler_path, gait_metrics,
                              sample_schedule, sweep)
from legsynth.geometry import TWO_PI, wrap_pi

PARALLELOGRAM = FourBarParams(crank=0.4, coupler=1.0, rocker=0.4,
                              start_angle=0.2, support_arc=1.5)
# classic straight-line proportions: crank 1.25, coupler 0.5, rocker 1.25
CHEBYSHEV = FourBarParams(crank=1.25, coupler=0.5, rocker=1.25,
                          start_angle=np.radians(40.0),
                          support_arc=np.radians(55.0))


Pose = namedtuple("Pose", "phi B C beta mu")


def positions_oracle(params, phis, fractions=None):
    """Every piece of the circle intersection of a batch of designs, row r
    at the crank angles phis[r], in one pass over (..., 2) arrays (test
    oracle of the split kernel): the Sweep, and the closure gap and the
    discriminant of every angle, 0 where B sits on D."""
    p1, p2, p3 = (np.reshape(v, (-1, 1))
                  for v in (params.crank, params.coupler, params.rocker))
    phis = np.reshape(phis, (len(p1), -1))
    B = np.stack([p1 * np.cos(phis), p1 * np.sin(phis)], axis=-1)
    BD = np.array([1.0, 0.0]) - B
    d = np.hypot(BD[..., 0], BD[..., 1])
    gap = np.maximum(d - (p2 + p3), abs(p2 - p3) - d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def arc_check_oracle(params):
    """arc_check through positions_oracle at both candidate angles of
    each design (test oracle): (phi, gap, discriminant, violation,
    mu_min) per design."""
    start = np.reshape(params.start_angle, -1)
    end = start + np.reshape(params.support_arc, -1)
    extreme = np.array([[0.0], [np.pi]])
    turn = extreme + TWO_PI * np.ceil((start - extreme) / TWO_PI)
    ends = np.where(np.cos(start) >= np.cos(end), [start, end], [end, start])
    phi = np.where(turn <= end, turn, ends).T
    trace, gap, disc = positions_oracle(params, phi)
    rows, worst = np.arange(len(start)), np.argmin(disc, axis=1)
    least = disc[rows, worst]
    return (phi[rows, worst], gap[rows, worst], least,
            np.maximum(DEGENERACY_TOL - least, 0.0), trace.mu.min(axis=1))


def solve_position(params, phi):
    """Assemble one design at a single crank angle (test oracle of
    arc_check and sweep): its Pose, with phi, beta and mu numbers and B
    and C 2-vectors.

    Raises NotAssemblableError / DegenerateConfigurationError when joint C
    cannot be placed on the selected branch.
    """
    trace, gap, disc = positions_oracle(params, float(phi))
    if (failure := _failure(gap[0, 0], disc[0, 0])) is not None:
        raise failure[0](float(phi), failure[1])
    return Pose(*(getattr(trace, name)[0, 0] for name in Pose._fields))


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
        with pytest.raises(NotAssemblableError) as info:
            sweep(params, 8)
        assert info.value.phi == arc_check(params).phi[0]

    def test_chebyshev_arc_inside_assemblable_range(self):
        phis, ok = brute_force_assemblable_angles(CHEBYSHEV)
        arc = (CHEBYSHEV.start_angle, CHEBYSHEV.start_angle
               + CHEBYSHEV.support_arc)
        inside = (phis >= arc[0] - 1e-9) & (phis <= arc[1] + 1e-9)
        assert ok[inside].all()
        trace = sweep(CHEBYSHEV, 16)
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
        # one design per rejection kind, plus accepted ones: every row of a
        # batch arc check equals the check of its design alone, bit for
        # bit, a rejected design's sweep raises the error of its row, and
        # the batch sweep of the accepted designs matches their own sweeps
        designs = [CHEBYSHEV, PARALLELOGRAM,
                   FourBarParams(0.6, 0.4, 0.5, np.pi / 2, np.pi),
                   FourBarParams(1.0, 0.7, 0.7, 0.0, 1.5),
                   FourBarParams(0.5, 0.75, 0.75, 0.0, np.pi),
                   FourBarParams(2.0, 2.5, 2.2, 0.0, 1.9 * np.pi),
                   FourBarParams(0.5, 1.25, 1.25, 1.1, 3.9)]
        columns = np.array([[d.crank, d.coupler, d.rocker, d.start_angle,
                             d.support_arc] for d in designs]).T
        batch = arc_check(FourBarParams(*columns))
        kinds = []
        for i, design in enumerate(designs):
            alone = arc_check(design)
            for name in ("phi", "gap", "discriminant", "violation", "mu_min"):
                np.testing.assert_array_equal(getattr(batch, name)[i],
                                              getattr(alone, name)[0])
            error = batch.error(i)
            assert (error is None) == (batch.violation[i] <= 0.0)
            kinds.append(None if error is None else type(error))
            if error is not None:
                with pytest.raises(type(error)) as info:
                    sweep(design, 5)
                assert str(info.value) == str(error)
        assert kinds == [None, None, NotAssemblableError,
                         DegenerateConfigurationError,
                         DegenerateConfigurationError, None, None]
        accepted = [0, 1, 5, 6]
        rows = sweep(FourBarParams(*columns[:, accepted]), 5)
        for r, i in enumerate(accepted):
            alone = sweep(designs[i], 5)
            for name in ("phi", "B", "C", "beta", "mu"):
                np.testing.assert_array_equal(getattr(rows.row(r), name),
                                              getattr(alone, name))

    def test_matches_solve_position_oracle(self):
        # every sample of the public sweep, bit for bit, on both branches
        rng = np.random.default_rng(13)
        designs = [CHEBYSHEV, PARALLELOGRAM,
                   FourBarParams(0.5, 1.25, 1.25, 1.1, 3.9),
                   FourBarParams(2.0, 2.5, 2.2, 0.0, 1.9 * np.pi, branch=-1)]
        while len(designs) < 24:
            design = FourBarParams(*rng.uniform([0.1, 0.4, 0.4, 0.0, 0.5],
                                                [1.5, 2.5, 2.5, 6.3, 5.9]),
                                   branch=rng.choice([-1, 1]))
            if arc_check(design).violation[0] <= 0.0:
                designs.append(design)
        for design in designs:
            trace = sweep(design, 9)
            for i, phi in enumerate(trace.phi):
                pose = solve_position(design, phi)
                for name in ("B", "C", "beta", "mu"):
                    np.testing.assert_array_equal(getattr(trace, name)[i],
                                                  getattr(pose, name))

    def test_coarse_sweep_on_one_branch_is_accepted(self):
        # five samples of this design step the coupler angle by more than
        # 1 rad, which a sampled continuity bound would take for a branch
        # jump; a fine sweep shows one continuous branch over the arc
        design = FourBarParams(2.0, 2.5, 2.2, 0.0, 1.9 * np.pi)
        coarse = sweep(design, 5)
        assert np.abs(wrap_pi(np.diff(coarse.beta))).max() > 1.0
        fine = sweep(design, 4096)
        assert np.abs(wrap_pi(np.diff(fine.beta))).max() < 0.01


def sampled_checks(params, count):
    """The sampled feasibility test of a single design, computed directly
    from the circle intersection at `count` crank angles (test oracle).

    Returns (ok, worst mu): ok when every sample assembles (closure gap
    <= 0), keeps B off D, stays DEGENERACY_TOL away from tangency, and no
    coupler-angle step between consecutive samples exceeds 1 rad.
    """
    p1, p2, p3 = params.crank, params.coupler, params.rocker
    phi = params.start_angle + params.support_arc * np.linspace(0.0, 1.0,
                                                                count)
    bx, by = p1 * np.cos(phi), p1 * np.sin(phi)
    dx, dy = 1.0 - bx, -by
    d = np.hypot(dx, dy)
    gap = np.maximum(d - (p2 + p3), abs(p2 - p3) - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (p2 ** 2 - p3 ** 2 + d ** 2) / (2.0 * d)
        disc = p2 ** 2 - a ** 2
        h = params.branch * np.sqrt(disc)
        cx = bx + (a * dx - h * dy) / d
        cy = by + (a * dy + h * dx) / d
    beta = np.arctan2(cy - by, cx - bx)
    jump = np.abs(wrap_pi(np.diff(beta)))
    ok = bool(np.all(gap <= 0.0) and np.all(d >= 1e-12)
              and np.all(disc >= DEGENERACY_TOL) and np.all(jump <= 1.0))
    mu = np.arccos(np.clip((p2 ** 2 + p3 ** 2 - d ** 2) / (2.0 * p2 * p3),
                           -1.0, 1.0))
    return ok, np.minimum(mu, np.pi - mu).min()


def extreme_angles(params):
    """The arc ends and every multiple of pi the arc reaches (test
    oracle): |BD| is extreme over the arc at one of these angles."""
    start, arc = params.start_angle, params.support_arc
    multiples = np.arange(np.ceil(start / np.pi), np.floor((start + arc)
                                                          / np.pi) + 1)
    return [start, start + arc, *(np.pi * multiples)]


def oracle_designs(rng, n):
    """n seeded designs: random ones, with the crank on both sides of 1,
    arcs that wrap past 2 pi with and without 0 or pi inside and coupler
    equal to rocker; and designs built within 1e-6 of tangency at pi, at
    0 and at an arc end."""
    rows = []
    for i in range(n):
        p1 = rng.uniform(0.1, 2.0)
        p2 = rng.uniform(0.2, 2.5)
        p3 = p2 if i % 7 == 0 else rng.uniform(0.2, 2.5)
        arc = rng.uniform(0.05, 2.0 * np.pi - 0.05)
        start = rng.uniform(-2.0 * np.pi, 4.0 * np.pi)
        eps = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)
        kind = i % 4
        if kind == 1:
            # |BD| longest at pi, within eps of coupler + rocker
            start = np.pi - rng.uniform(0.0, 1.0) * arc \
                + 2.0 * np.pi * rng.integers(-1, 2)
            p3 = 1.0 + p1 - p2 + eps
        elif kind == 2:
            # |BD| shortest at 0, within eps of |coupler - rocker|
            start = -rng.uniform(0.0, 1.0) * arc \
                + 2.0 * np.pi * rng.integers(-1, 2)
            p3 = p2 + abs(1.0 - p1) + eps
        elif kind == 3:
            # an arc inside (0, pi), where |BD| grows with the crank
            # angle: tangent at its end to coupler + rocker
            arc = rng.uniform(0.05, np.pi - 0.1)
            start = rng.uniform(0.01, np.pi - arc - 0.01) \
                + 2.0 * np.pi * rng.integers(-1, 2)
            end = start + arc
            p3 = np.sqrt(1.0 + p1 ** 2 - 2.0 * p1 * np.cos(end)) - p2 + eps
        if p3 <= 0.0:
            p3 = p2
        rows.append((p1, p2, p3, start, arc))
    return np.array(rows)


class TestArcCheck:
    def test_matches_sampled_oracle(self):
        rng = np.random.default_rng(2025)
        designs = oracle_designs(rng, 2400)
        accepted = rejected = tangent = 0
        for branch in (+1, -1):
            rows = designs[(branch > 0)::2]
            check = arc_check(FourBarParams(*rows.T, branch=branch))
            for i, row in enumerate(rows):
                params = FourBarParams(*row, branch=branch)
                start, arc = row[3], row[4]
                assert -1e-12 <= check.phi[i] - start <= arc + 1e-12
                tangent += abs(check.discriminant[i]) < 1e-6
                if check.violation[i] > 0.0:
                    rejected += 1
                    assert check.violation[i] == DEGENERACY_TOL \
                        - check.discriminant[i]
                    with pytest.raises(LinkageError):
                        solve_position(params, check.phi[i])
                    continue
                accepted += 1
                assert check.violation[i] == 0.0
                ok, sampled_mu = sampled_checks(params, 4096)
                assert ok, row
                exact = [solve_position(params, phi).mu
                         for phi in extreme_angles(params)]
                assert abs(check.mu_min[i] - min(exact)) <= 1e-12
                assert check.mu_min[i] <= sampled_mu + 1e-12
        assert accepted >= 600 and rejected >= 600 and tangent >= 300

    def test_matches_one_pass_oracle(self):
        # the split kernel against the one-pass circle intersection, bit
        # for bit, on designs within 1e-6 of tangency and on links whose
        # squares overflow
        rng = np.random.default_rng(2026)
        designs = np.concatenate([oracle_designs(rng, 800),
                                  [[1e200, 1.5e200, 2e200, 0.0, 3.2],
                                   [1.0, 0.7, 0.7, 0.0, 1.5]]])
        for branch in (+1, -1):
            params = FourBarParams(*designs.T, branch=branch)
            check = arc_check(params)
            fields = ("phi", "gap", "discriminant", "violation", "mu_min")
            for name, expected in zip(fields, arc_check_oracle(params)):
                np.testing.assert_array_equal(getattr(check, name), expected)


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
