from dataclasses import replace

import numpy as np
import pytest

from legsynth import synthesis
from legsynth.fourbar import (DegenerateConfigurationError, FourBarParams,
                              NotAssemblableError, arc_check, coupler_path,
                              sweep)
from legsynth.synthesis import (RANK_DEFICIENCY_COND, InvalidSystemError,
                                LinearSystem, LineTarget, assemble,
                                reduced_objective, residual_delta, solve)

# crank-rocker straight-line proportions; the coupler midpoint extension
# traces a near-straight segment while the crank sweeps the far side
HOEKEN = FourBarParams(crank=0.5, coupler=1.25, rocker=1.25,
                       start_angle=np.radians(89.0), support_arc=np.pi)

PARALLELOGRAM = FourBarParams(crank=0.4, coupler=1.0, rocker=0.4,
                              start_angle=0.2, support_arc=1.5)


def hoeken_sweep(count=32):
    return sweep(HOEKEN, count)


class TestAssemble:
    def test_constant_beta_blocks(self):
        trace = hoeken_sweep(8)
        system = assemble(replace(trace, beta=np.zeros(8)))
        assert np.allclose(system.matrix[0:2, 2:4], -np.eye(2), atol=0)
        assert np.allclose(system.matrix[0:2, 4:6], -0.5 * np.eye(2),
                           atol=1e-15)

    def test_three_sample_fraction_block(self):
        trace = hoeken_sweep(3)
        system = assemble(trace)
        oracle = np.mean(trace.fractions ** 2)  # (0 + 1/4 + 1)/3
        assert oracle == 5.0 / 12.0
        assert np.allclose(system.matrix[4:6, 4:6], oracle * np.eye(2), atol=0)

    def test_symmetric(self):
        trace = hoeken_sweep(17)
        system = assemble(trace)
        assert np.array_equal(system.matrix, system.matrix.T)

    def test_rejects_length_mismatch(self):
        trace = hoeken_sweep(8)
        with pytest.raises(ValueError):
            assemble(replace(trace, fractions=trace.fractions[:-1]))

    def test_blocks_match_finite_differences(self):
        # the error function is the source of truth: rebuild A and b from
        # second/first differences of the residual in the unknowns; the
        # residual is exactly quadratic, so a large step carries no
        # truncation error and keeps roundoff small
        trace = hoeken_sweep(12)
        system = assemble(trace)
        h = 0.5
        grad0 = np.empty(6)
        hess = np.empty((6, 6))
        base = residual_delta(trace, np.zeros(6))
        for i in range(6):
            ei = np.zeros(6)
            ei[i] = h
            f_plus = residual_delta(trace, ei)
            f_minus = residual_delta(trace, -ei)
            grad0[i] = (f_plus - f_minus) / (2 * h)
            hess[i, i] = (f_plus - 2 * base + f_minus) / h ** 2
        for i in range(6):
            for j in range(i + 1, 6):
                e = np.zeros(6)
                e[i] = h
                e[j] = h
                fpp = residual_delta(trace, e)
                e[j] = -h
                fpm = residual_delta(trace, e)
                e[i] = -h
                fmm = residual_delta(trace, e)
                e[j] = h
                fmp = residual_delta(trace, e)
                hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
        assert np.abs(0.5 * hess - system.matrix).max() < 1e-10
        assert np.abs(-0.5 * grad0 - system.rhs).max() < 1e-10


class TestSolve:
    def test_parallelogram_is_rank_deficient(self):
        solution = solve(assemble(sweep(PARALLELOGRAM, 12)))
        assert solution.condition > RANK_DEFICIENCY_COND
        assert np.isfinite(solution.delta)

    def test_hoeken_small_error_vs_grid_oracle(self):
        # independent oracle: grid the coupler point; for each candidate,
        # fit the line by two separate 1-D regressions of the coupler path
        # against the sweep fraction
        trace = hoeken_sweep(32)
        k = trace.fractions
        design = np.stack([np.ones_like(k), k], axis=1)
        best = np.inf
        for xe in np.linspace(2.0, 3.0, 21):
            for ye in np.linspace(-0.5, 0.5, 21):
                path = coupler_path(trace, (xe, ye))
                rx = np.linalg.lstsq(design, path[:, 0], rcond=None)[1]
                ry = np.linalg.lstsq(design, path[:, 1], rcond=None)[1]
                delta = (rx[0] + ry[0]) / len(k)
                best = min(best, delta)
        assert best <= 1e-4  # the grid already exposes a small-error optimum
        solution = solve(assemble(trace))
        assert solution.delta <= best + 1e-12
        assert solution.delta <= 1e-4

    def test_zero_rhs_gives_zero_solution(self):
        trace = hoeken_sweep(8)
        system = assemble(trace)
        homogeneous = LinearSystem(matrix=system.matrix,
                                   rhs=np.zeros(6),
                                   constant=system.constant)
        solution = solve(homogeneous)
        assert np.allclose(solution.x, 0.0, atol=1e-12)
        assert abs(solution.delta - np.mean((trace.B ** 2).sum(axis=1))) < 1e-12

    def test_rejects_non_finite(self):
        bad = LinearSystem(matrix=np.full((6, 6), np.nan), rhs=np.zeros(6),
                           constant=0.0)
        with pytest.raises(InvalidSystemError):
            solve(bad)

    def test_pinned_unknowns_respected(self):
        trace = hoeken_sweep(16)
        system = assemble(trace)
        pinned = {0: 2.5, 1: 0.1}
        solution = solve(system, pinned=pinned)
        assert solution.x[0] == 2.5 and solution.x[1] == 0.1
        free = solve(system)
        assert free.delta <= solution.delta + 1e-15


class TestResidual:
    def test_stationary_at_solution(self):
        trace = hoeken_sweep(24)
        solution = solve(assemble(trace))
        h = 1e-6
        worst = 0.0
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            g = (residual_delta(trace, solution.x + e)
                 - residual_delta(trace, solution.x - e)) / (2 * h)
            worst = max(worst, abs(g))
        assert worst <= 1e-8 * (1.0 + solution.delta)

    def test_perturbation_increases_error(self):
        trace = hoeken_sweep(24)
        solution = solve(assemble(trace))
        for j in range(6):
            e = np.zeros(6)
            e[j] = 0.1
            assert residual_delta(trace, solution.x + e) \
                > solution.delta

    def test_dominates_random_draws(self):
        trace = hoeken_sweep(24)
        solution = solve(assemble(trace))
        rng = np.random.default_rng(9)
        draws = rng.uniform(-3.0, 3.0, size=(1000, 6))
        for x in draws:
            assert solution.delta <= residual_delta(trace, x) + 1e-15

    def test_matches_quadratic_shortcut(self):
        trace = hoeken_sweep(20)
        system = assemble(trace)
        solution = solve(system)
        direct = residual_delta(trace, solution.x)
        assert abs(direct - solution.delta) < 1e-12


class TestReducedObjective:
    def test_unassemblable_propagates(self):
        params = FourBarParams(crank=0.6, coupler=0.4, rocker=0.5,
                               start_angle=np.pi / 2, support_arc=np.pi)
        result = reduced_objective(params, 12)
        assert result.arc.violation[0] > 0.0
        assert isinstance(result.arc.error(0), NotAssemblableError)
        assert result.delta0[0] == np.inf
        assert np.isnan(result.mu_min[0])

    def test_nonnegative_on_random_valid_params(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            params = FourBarParams(rng.uniform(0.1, 0.6),
                                   rng.uniform(0.4, 2.5),
                                   rng.uniform(0.4, 2.5),
                                   rng.uniform(0.0, 2.0 * np.pi),
                                   rng.uniform(np.pi, 1.9 * np.pi))
            result = reduced_objective(params, 16)
            if result.arc.violation[0] > 0.0:
                continue
            checked += 1
            assert result.delta0[0] >= 0.0

    def test_invariant_under_frame_rotation(self):
        # the target line direction is solved, so rotating the whole sweep
        # cannot change the reduced objective
        trace = hoeken_sweep(24)
        base = solve(assemble(trace)).delta
        angle = 0.7
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        rotated = replace(trace, B=trace.B @ R.T, C=trace.C @ R.T,
                          beta=trace.beta + angle)
        turned = solve(assemble(rotated)).delta
        assert abs(turned - base) <= 1e-12

    def test_scale_covariance(self):
        trace = hoeken_sweep(24)
        solution = solve(assemble(trace))
        s = 2.5
        scaled = replace(trace, B=s * trace.B, C=s * trace.C)
        scaled_solution = solve(assemble(scaled))
        assert np.allclose(scaled_solution.x, s * solution.x, rtol=1e-9)
        assert np.isclose(scaled_solution.delta, s ** 2 * solution.delta,
                          rtol=1e-9)

    def test_embeds_solution(self):
        result = reduced_objective(HOEKEN, 24)
        trace = hoeken_sweep(24)
        solution = solve(assemble(trace))
        assert result.delta0[0] == solution.delta
        assert np.array_equal(result.x[0], solution.x)
        assert result.mu_min[0] == arc_check(HOEKEN).mu_min[0] \
            <= trace.mu.min()
        assert result.arc.violation[0] == 0.0


# A batch with every kind of row, in this order: assemblable designs, a
# not-assemblable one, coincident pivots and near-tangency (degenerate),
# a design whose 5 samples step the coupler angle by more than 1 rad on
# one branch, and the rank-deficient parallelogram; seeded random designs
# fill the rest.  Each of these is what its name says (checked below).
KERNEL_COUNT = 5
KERNEL_DESIGNS = [
    HOEKEN, FourBarParams(1.25, 0.5, 1.25, 0.7, 0.96),
    FourBarParams(0.6, 0.4, 0.5, np.pi / 2, np.pi),
    FourBarParams(1.0, 0.7, 0.7, 0.0, 1.5),
    FourBarParams(0.5, 0.75, 0.75, 0.0, np.pi),
    FourBarParams(2.0, 2.5, 2.2, 0.0, 1.9 * np.pi),
    PARALLELOGRAM,
]


def kernel_batch(seed=3, extra=9):
    rng = np.random.default_rng(seed)
    rows = [[d.crank, d.coupler, d.rocker, d.start_angle, d.support_arc]
            for d in KERNEL_DESIGNS]
    rows += [[rng.uniform(0.1, 0.6), rng.uniform(0.4, 2.5),
              rng.uniform(0.4, 2.5), rng.uniform(0.0, 2.0 * np.pi),
              rng.uniform(np.pi, 1.9 * np.pi)] for _ in range(extra)]
    return FourBarParams(*np.array(rows).T), rng.uniform(-1.0, 3.0, (len(rows), 2))


class TestBatchKernel:
    """reduced_objective on a batch against one-design calls and against
    the direct residual, with chunks of three rows."""

    @pytest.fixture(autouse=True)
    def three_row_chunks(self, monkeypatch):
        monkeypatch.setattr(synthesis, "CHUNK_ANGLES", 3 * KERNEL_COUNT)

    @pytest.mark.parametrize("explicit", [False, True],
                             ids=["solved", "pinned"])
    def test_rows_match_single_designs_and_residual(self, explicit):
        params, coupler = kernel_batch()
        pinned = {0: coupler[:, 0], 1: coupler[:, 1]} if explicit else None
        batch = reduced_objective(params, KERNEL_COUNT, pinned=pinned)
        rows = len(coupler)
        assert len(batch.arc.violation) == batch.delta0.shape[0] == rows
        errors = [batch.arc.error(i) for i in range(rows)]
        kinds = [None if e is None else type(e) for e in errors]
        assert kinds[:7] == [None, None, NotAssemblableError,
                             DegenerateConfigurationError,
                             DegenerateConfigurationError, None, None]
        # pinning the coupler point takes the parallelogram's degeneracy out
        assert (batch.condition[6] > RANK_DEFICIENCY_COND) != explicit
        assert kinds[7:].count(None) >= 3
        for i in range(rows):
            design = params.take(i)
            alone = reduced_objective(
                design, KERNEL_COUNT,
                pinned=pinned and {j: v[i] for j, v in pinned.items()})
            assert str(errors[i]) == str(alone.arc.error(0))
            for name in ("delta0", "x", "condition", "mu_min"):
                np.testing.assert_array_equal(getattr(batch, name)[i],
                                              getattr(alone, name)[0])
            for name in ("phi", "gap", "discriminant", "violation", "mu_min"):
                np.testing.assert_array_equal(getattr(batch.arc, name)[i],
                                              getattr(alone.arc, name)[0])
            if errors[i] is not None:
                assert batch.delta0[i] == np.inf
                assert np.isnan(batch.mu_min[i])
                continue
            trace = sweep(design, KERNEL_COUNT)
            direct = residual_delta(trace, batch.x[i])
            assert abs(direct - batch.delta0[i]) <= 1e-12 * (1.0 + direct)
            assert batch.mu_min[i] == batch.arc.mu_min[i] <= trace.mu.min()
            if explicit:
                assert np.array_equal(batch.x[i, :2], coupler[i])

    def test_chunking_does_not_change_results(self, monkeypatch):
        params, _ = kernel_batch(seed=8, extra=40)
        chunked = reduced_objective(params, KERNEL_COUNT)
        monkeypatch.setattr(synthesis, "CHUNK_ANGLES", 1000 * KERNEL_COUNT)
        whole = reduced_objective(params, KERNEL_COUNT)
        for name in ("delta0", "x", "condition", "mu_min"):
            np.testing.assert_array_equal(getattr(chunked, name),
                                          getattr(whole, name))
        for name in ("phi", "gap", "discriminant", "violation", "mu_min"):
            np.testing.assert_array_equal(getattr(chunked.arc, name),
                                          getattr(whole.arc, name))
