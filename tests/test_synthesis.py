from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from legsynth import search, synthesis
from legsynth.fourbar import (NEAR_TANGENT, NOT_ASSEMBLABLE, FourBarParams,
                              arc_check, coupler_path, sample_schedule,
                              sweep)
from legsynth.lptau import lp_tau
from legsynth.synthesis import (RANK_DEFICIENCY_COND, InvalidSystemError,
                                SynthesisSolution, reduced_objective,
                                residual_delta, solve)
from test_fourbar import arc_check_oracle, kind, positions_oracle, reason

EPS = np.finfo(float).eps

# crank-rocker straight-line proportions; the coupler midpoint extension
# traces a near-straight segment while the crank sweeps the far side
HOEKEN = FourBarParams(crank=0.5, coupler=1.25, rocker=1.25,
                       start_angle=np.radians(89.0), support_arc=np.pi)

PARALLELOGRAM = FourBarParams(crank=0.4, coupler=1.0, rocker=0.4,
                              start_angle=0.2, support_arc=1.5)


def take(params, rows):
    """The designs `rows` of a batch (one design counts as one row)."""
    fields = (params.crank, params.coupler, params.rocker,
              params.start_angle, params.support_arc)
    return FourBarParams(*(np.atleast_1d(v)[rows] for v in fields),
                         params.branch)


def hoeken_sweep(count=32):
    return sweep(HOEKEN, count)


def sweep_arrays(trace):
    """The fractions, joint B as an (x, y) pair and beta of a Sweep: the
    arrays solve takes."""
    return trace.fractions, (trace.B[..., 0], trace.B[..., 1]), trace.beta


def residual(trace, x):
    """residual_delta of a Sweep at x."""
    k, B, beta = sweep_arrays(trace)
    return residual_delta(k, B, np.cos(beta), np.sin(beta), x)


# The oracle: the six real unknowns' 6x6 normal equations, solved with an
# SVD condition number, a batched solve and a per-row minimum-norm lstsq
# fallback, with the error from the quadratic shortcut.  solve() must
# agree with it (TestOracle); the finite-difference test below anchors it
# to residual_delta.
LinearSystem = namedtuple("LinearSystem", "matrix rhs constant")


def assemble(sweep):
    """The 6x6 normal equations of a sweep (a stack for a batch sweep)."""
    beta, B, k = sweep.beta, sweep.B, sweep.fractions
    c, s = np.cos(beta), np.sin(beta)
    XB, YB = B[..., 0], B[..., 1]

    mc, ms = c.mean(axis=-1), s.mean(axis=-1)
    mkc, mks = (k * c).mean(axis=-1), (k * s).mean(axis=-1)
    mk2 = (k * k).mean()

    A1 = np.moveaxis(np.array([[-mc, -ms], [ms, -mc]]), (0, 1), (-2, -1))
    A2 = np.moveaxis(np.array([[-mkc, -mks], [mks, -mkc]]), (0, 1), (-2, -1))
    eye2 = np.eye(2)

    A = np.zeros(mc.shape + (6, 6))
    A[..., 0:2, 0:2] = eye2
    A[..., 2:4, 2:4] = eye2
    A[..., 4:6, 4:6] = mk2 * eye2
    A[..., 0:2, 2:4] = A1
    A[..., 2:4, 0:2] = np.swapaxes(A1, -1, -2)
    A[..., 0:2, 4:6] = A2
    A[..., 4:6, 0:2] = np.swapaxes(A2, -1, -2)
    A[..., 2:4, 4:6] = 0.5 * eye2
    A[..., 4:6, 2:4] = 0.5 * eye2

    b = np.stack([
        -(XB * c + YB * s).mean(axis=-1),
        (XB * s - YB * c).mean(axis=-1),
        XB.mean(axis=-1),
        YB.mean(axis=-1),
        (k * XB).mean(axis=-1),
        (k * YB).mean(axis=-1),
    ], axis=-1)
    constant = (XB * XB + YB * YB).mean(axis=-1)
    return LinearSystem(matrix=A, rhs=b, constant=constant)


def solve_oracle(system):
    """Solve the normal equations, or a stack of them.  Returns (x, delta,
    condition)."""
    A, b = system.matrix, system.rhs
    shape = b.shape[:-1]
    A, b = A.reshape(-1, 6, 6), b.reshape(-1, 6)
    condition = np.linalg.cond(A)
    deficient = ~(condition <= RANK_DEFICIENCY_COND)
    x = np.empty(b.shape)
    x[~deficient] = np.linalg.solve(A[~deficient],
                                    b[~deficient, :, None])[..., 0]
    for i in np.flatnonzero(deficient):
        x[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    delta = (np.reshape(system.constant, -1)
             - (2.0 * b[:, None, :] @ x[:, :, None])[:, 0, 0]
             + (x[:, None, :] @ A @ x[:, :, None])[:, 0, 0])
    return (x.reshape(shape + (6,)), np.maximum(delta, 0.0).reshape(shape),
            condition.reshape(shape))


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
        base = residual(trace, np.zeros(6))
        for i in range(6):
            ei = np.zeros(6)
            ei[i] = h
            f_plus = residual(trace, ei)
            f_minus = residual(trace, -ei)
            grad0[i] = (f_plus - f_minus) / (2 * h)
            hess[i, i] = (f_plus - 2 * base + f_minus) / h ** 2
        for i in range(6):
            for j in range(i + 1, 6):
                e = np.zeros(6)
                e[i] = h
                e[j] = h
                fpp = residual(trace, e)
                e[j] = -h
                fpm = residual(trace, e)
                e[i] = -h
                fmm = residual(trace, e)
                e[j] = h
                fmp = residual(trace, e)
                hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
        assert np.abs(0.5 * hess - system.matrix).max() < 1e-10
        assert np.abs(-0.5 * grad0 - system.rhs).max() < 1e-10


class TestSolve:
    def test_parallelogram_is_rank_deficient(self):
        solution = solve(*sweep_arrays(sweep(PARALLELOGRAM, 12)))
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
        solution = solve(*sweep_arrays(trace))
        assert solution.delta <= best + 1e-12
        assert solution.delta <= 1e-4

    def test_zero_rhs_gives_zero_solution(self):
        # B at the origin throughout: every normal-equation mean of B (the
        # right-hand side) vanishes, and so does the best fit
        trace = replace(hoeken_sweep(8), B=np.zeros((8, 2)))
        solution = solve(*sweep_arrays(trace))
        assert np.allclose(solution.x, 0.0, atol=1e-12)
        assert solution.delta == 0.0

    def test_rejects_non_finite(self):
        trace = hoeken_sweep(8)
        B = trace.B.copy()
        B[3, 1] = np.nan
        with pytest.raises(InvalidSystemError):
            solve(*sweep_arrays(replace(trace, B=B)))
        with pytest.raises(InvalidSystemError):
            solve(*sweep_arrays(replace(trace, beta=np.full(8, np.inf))))


class TestResidual:
    def test_stationary_at_solution(self):
        trace = hoeken_sweep(24)
        solution = solve(*sweep_arrays(trace))
        h = 1e-6
        worst = 0.0
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            g = (residual(trace, solution.x + e)
                 - residual(trace, solution.x - e)) / (2 * h)
            worst = max(worst, abs(g))
        assert worst <= 1e-8 * (1.0 + solution.delta)

    def test_perturbation_increases_error(self):
        trace = hoeken_sweep(24)
        solution = solve(*sweep_arrays(trace))
        for j in range(6):
            e = np.zeros(6)
            e[j] = 0.1
            assert residual(trace, solution.x + e) \
                > solution.delta

    def test_dominates_random_draws(self):
        trace = hoeken_sweep(24)
        solution = solve(*sweep_arrays(trace))
        rng = np.random.default_rng(9)
        draws = rng.uniform(-3.0, 3.0, size=(1000, 6))
        for x in draws:
            assert solution.delta <= residual(trace, x) + 1e-15

    def test_matches_quadratic_shortcut(self):
        trace = hoeken_sweep(20)
        solution = solve(*sweep_arrays(trace))
        direct = residual(trace, solution.x)
        assert abs(direct - solution.delta) < 1e-12


def oracle_designs(rng, rows, branch):
    """Seeded designs in the default box, seeded parallelograms (coupler
    equal to the frame, rocker to the crank: constant coupler angle) and
    near-parallelograms off by 1e-12..1e-1, and PARALLELOGRAM; rows of
    each kind."""
    crank = rng.uniform(0.2, 0.8, rows)
    off = 10.0 ** rng.uniform(-12.0, -1.0, rows) * rng.choice([-1, 1], rows)
    off[: rows // 4] = 0.0
    designs = np.concatenate([
        search.DEFAULT_BOX.map_unit(rng.random((rows, 5))),
        np.column_stack([crank, 1.0 + off, crank,
                         rng.uniform(0.0, 2.0 * np.pi, rows),
                         rng.uniform(0.3, 1.5, rows)]),
        [[PARALLELOGRAM.crank, PARALLELOGRAM.coupler, PARALLELOGRAM.rocker,
          PARALLELOGRAM.start_angle, PARALLELOGRAM.support_arc]]])
    params = FourBarParams(*designs.T, branch=branch)
    return take(params, np.flatnonzero(arc_check(params).violation <= 0.0))


class TestOracle:
    """solve() against the normal-equation oracle, with tolerances from
    the oracle's own rounding.

    The oracle's delta is a shortcut that cancels terms as large as
    mean|B|^2 + |x|^2, so the deltas agree within 16 eps of that.  Its x
    solves a matrix of condition number cond, so the x agree within
    16 eps cond (1 + |x|).  cond and solve()'s 1 / P measure different
    matrices (their ratio is 4-17 here), so the deficiency decisions need
    to agree only where cond lies outside [1e8, 1e12].  On a deficient
    design, solve() drops the part of e off the line basis, of norm
    sqrt(P), while lstsq truncates the normal matrix's least singular
    pair; the minimum-norm x agree within 16 (eps + sqrt(P)) (1 + |x|)
    and their residuals within 16 (eps + sqrt(P)) mean|B|^2.
    """

    @pytest.mark.parametrize("count", [2, 3, 5, 24, 200])
    @pytest.mark.parametrize("branch", [+1, -1])
    def test_matches_normal_equations(self, count, branch):
        rng = np.random.default_rng(count + (branch > 0) * 1000)
        trace = sweep(oracle_designs(rng, 120, branch), count)
        system = assemble(trace)
        new = solve(*sweep_arrays(trace))
        x, delta, cond = solve_oracle(system)
        scale = (trace.B ** 2).sum(axis=-1).mean(axis=-1)
        size = 1.0 + np.abs(x).max(axis=-1)
        dx = np.abs(new.x - x).max(axis=-1)

        deficient = new.condition > RANK_DEFICIENCY_COND
        decided = (cond < 1e8) | (cond > 1e12)
        assert np.array_equal(deficient[decided],
                              cond[decided] > RANK_DEFICIENCY_COND)

        regular = ~deficient & (cond <= RANK_DEFICIENCY_COND)
        assert np.all(np.abs(new.delta - delta)[regular]
                      <= 16 * EPS * (scale + (x * x).sum(axis=-1))[regular])
        assert np.all(dx[regular] <= 16 * EPS * (cond * size)[regular])

        singular = deficient & (cond > 1e12)
        assert singular.sum() >= 10
        if branch > 0:
            assert singular[-1]  # PARALLELOGRAM, the last row
        if count > 2:
            assert regular.sum() >= 100
        for i in np.flatnonzero(singular):
            least = np.linalg.lstsq(system.matrix[i], system.rhs[i],
                                    rcond=1.0 / RANK_DEFICIENCY_COND)[0]
            gap = 16 * (EPS + new.condition[i] ** -0.5)
            assert np.abs(new.x[i] - least).max() \
                <= gap * (1.0 + np.abs(least).max())
            assert abs(new.delta[i] - residual(trace.row(i), least)) \
                <= gap * scale[i]


# The inner solve before its two line fits shared the statistics of k
# and summed in place of np.mean, copied verbatim but for its names: the
# oracle of the bit-for-bit tests.


def oracle_line_fit(f, k):
    """Least-squares line w0 + w1 k through each row of f: w0, w1 and the
    residual f - w0 - w1 k.

    Products and sums run elementwise and along the last axis, so each
    row of a batch is fitted exactly as it would be alone.
    """
    kc = k - k.mean()
    w1 = (f * kc).mean(axis=-1) / (kc * kc).mean()
    mean = f.mean(axis=-1)
    return mean - w1 * k.mean(), w1, f - mean[..., None] - w1[..., None] * kc


def oracle_abs2(z):
    return z.real * z.real + z.imag * z.imag


def oracle_solve(k, B, beta):
    """solve of the sweep with fractions k, joint B as an (x, y) pair of
    arrays and coupler angle beta."""
    if not (all(np.all(np.isfinite(v)) for v in B)
            and np.all(np.isfinite(beta))):
        raise InvalidSystemError("sweep contains non-finite entries")
    c, s = np.cos(beta), np.sin(beta)
    a0, a1, e_res = oracle_line_fit(c + 1j * s, k)
    b0, b1, b_res = oracle_line_fit(B[0] + 1j * B[1], k)
    power = oracle_abs2(e_res).mean(axis=-1)
    with np.errstate(divide="ignore"):
        condition = 1.0 / power
    deficient = ~(condition <= RANK_DEFICIENCY_COND)
    # e = a0 + a1 k leaves z free; the norm |z|^2 + |b0 + a0 z|^2
    # + |b1 + a1 z|^2 of the solution is least at this z
    least_norm = -((a0.conjugate() * b0 + a1.conjugate() * b1)
                   / (1.0 + oracle_abs2(a0) + oracle_abs2(a1)))
    z = np.where(deficient, least_norm,
                 -(e_res.conjugate() * b_res).mean(axis=-1)
                 / np.where(deficient, 1.0, power))
    w0, w1 = b0 + a0 * z, b1 + a1 * z
    x = np.stack([z.real, z.imag, w0.real, w0.imag, w1.real, w1.imag],
                 axis=-1)
    return SynthesisSolution(x=x, delta=oracle_residual(k, B, c, s, x),
                             condition=condition[()])


def oracle_residual(k, B, c, s, x):
    """residual_delta of the sweep with fractions k, joint B as an (x, y)
    pair, and c = cos beta and s = sin beta, which solve has at hand."""
    x = np.asarray(x, dtype=float)[..., None]
    u = B[0] + x[..., 0, :] * c - x[..., 1, :] * s - x[..., 2, :] \
        - x[..., 4, :] * k
    v = B[1] + x[..., 0, :] * s + x[..., 1, :] * c - x[..., 3, :] \
        - x[..., 5, :] * k
    return np.mean(u * u + v * v, axis=-1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestSolveAgainstOracle:
    """The kernel's solve of batch sweeps against oracle_solve, bit for
    bit, on oracle_designs: regular rows, rank-deficient parallelograms
    and near-parallelograms."""

    @pytest.mark.parametrize("count", [2, 3, 5, 24, 25])
    @pytest.mark.parametrize("branch", [+1, -1])
    def test_batches(self, count, branch):
        rng = np.random.default_rng(3 * count + (branch > 0))
        trace = sweep(oracle_designs(rng, 60, branch), count)
        args = sweep_arrays(trace)
        expected = oracle_solve(*args)
        deficient = expected.condition > RANK_DEFICIENCY_COND
        batches = [args]
        if count > 2:
            # and a batch with no deficient row, which skips the
            # minimum-norm branch
            assert 0 < deficient.sum() < len(deficient)
            regular = np.flatnonzero(~deficient)
            batches.append((args[0], tuple(b[regular] for b in args[1]),
                            args[2][regular]))
        for batch in batches:
            got, expected = solve(*batch), oracle_solve(*batch)
            for name in ("x", "delta", "condition"):
                assert same_bits(getattr(got, name), getattr(expected, name))

    def test_one_design(self):
        # one design's solve runs on numpy scalars, as the oracle's does
        rng = np.random.default_rng(12)
        params = oracle_designs(rng, 12, +1)
        for i in range(len(params.crank)):
            trace = sweep(take(params, i), 24)
            got = solve(*sweep_arrays(trace))
            expected = oracle_solve(*sweep_arrays(trace))
            for name in ("x", "delta", "condition"):
                assert same_bits(getattr(got, name), getattr(expected, name))
        assert expected.condition > RANK_DEFICIENCY_COND  # PARALLELOGRAM


class TestDeltaIsResidual:
    """delta0 is the mean squared deviation at the reported x, within 4
    ulps of delta0 (solve() evaluates residual_delta itself, so rows come
    out equal).  The normal-equation shortcut missed the default scan's
    best row by about 3.5e4 ulps."""

    def test_default_scan_and_seeded_batches(self):
        count = search.DEFAULT_SWEEP_SAMPLES
        points = search.DEFAULT_BOX.map_unit(lp_tau(5, 2 ** 14))
        scan = FourBarParams(*points.T)
        batches = [scan] + [kernel_batch(seed=seed, extra=60)
                            for seed in range(3)]
        for params in batches:
            result = reduced_objective(params, count)
            rows = np.flatnonzero(result.arc.violation <= 0.0)
            trace = sweep(take(params, rows), count)
            for j, i in enumerate(rows):
                direct = residual(trace.row(j), result.x[i])
                assert abs(result.delta0[i] - direct) \
                    <= 4 * np.spacing(result.delta0[i]), i
            if params is scan:
                # the best design through the public one-design sweep
                best = np.argmin(result.delta0)
                direct = residual(sweep(take(scan, best), count),
                                  result.x[best])
                assert abs(result.delta0[best] - direct) \
                    <= 4 * np.spacing(result.delta0[best])


def reduced_objective_oracle(params, count):
    """reduced_objective through the one-pass positions_oracle, then
    solve and residual_delta on whole Sweeps (test oracle): the arc
    figures of arc_check_oracle, and delta0, x, condition and mu_min."""
    arc = arc_check_oracle(params)
    ok = arc[3] <= 0.0
    delta0 = np.full(len(ok), np.inf)
    x = np.full((len(ok), 6), np.nan)
    condition = np.full(len(ok), np.nan)
    accepted = take(params, np.flatnonzero(ok))
    trace, _, _ = positions_oracle(accepted, *sample_schedule(
        accepted.start_angle, accepted.support_arc, count))
    solution = solve(*sweep_arrays(trace))
    delta0[ok] = residual(trace, solution.x)
    x[ok] = solution.x
    condition[ok] = solution.condition
    return arc, delta0, x, condition, np.where(ok, arc[4], np.nan)


class TestKernelOracle:
    @pytest.mark.parametrize("count", [5, 24])
    @pytest.mark.parametrize("branch", [+1, -1])
    def test_lp_tau_batch_matches_one_pass_chain(self, count, branch):
        # 1024 LP-tau points of the default box, about half of them
        # rejected, with PARALLELOGRAM (rank-deficient on branch +1) in
        # row 7; every figure equal bit for bit
        points = search.DEFAULT_BOX.map_unit(lp_tau(5, 1024))
        points[7] = [PARALLELOGRAM.crank, PARALLELOGRAM.coupler,
                     PARALLELOGRAM.rocker, PARALLELOGRAM.start_angle,
                     PARALLELOGRAM.support_arc]
        params = FourBarParams(*points.T, branch=branch)
        result = reduced_objective(params, count)
        arc, delta0, x, condition, mu_min = reduced_objective_oracle(
            params, count)
        rejected = (result.arc.violation > 0.0).sum()
        assert 200 <= rejected <= 824
        assert (result.condition[7] > RANK_DEFICIENCY_COND) == (branch > 0)
        for name, expected in zip(("delta0", "x", "condition", "mu_min"),
                                  (delta0, x, condition, mu_min)):
            np.testing.assert_array_equal(getattr(result, name), expected)
        for name, expected in zip(("phi", "gap", "discriminant",
                                   "violation", "mu_min"), arc):
            np.testing.assert_array_equal(getattr(result.arc, name),
                                          expected)


class TestReducedObjective:
    def test_unassemblable_propagates(self):
        params = FourBarParams(crank=0.6, coupler=0.4, rocker=0.5,
                               start_angle=np.pi / 2, support_arc=np.pi)
        result = reduced_objective(params, 12)
        assert result.arc.violation[0] > 0.0
        assert kind(result.arc, 0) == NOT_ASSEMBLABLE
        assert result.arc.messages([0]) == [reason(result.arc, 0)]
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
        base = solve(*sweep_arrays(trace)).delta
        angle = 0.7
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        rotated = replace(trace, B=trace.B @ R.T, C=trace.C @ R.T,
                          beta=trace.beta + angle)
        turned = solve(*sweep_arrays(rotated)).delta
        assert abs(turned - base) <= 1e-12

    def test_scale_covariance(self):
        trace = hoeken_sweep(24)
        solution = solve(*sweep_arrays(trace))
        s = 2.5
        scaled = replace(trace, B=s * trace.B, C=s * trace.C)
        scaled_solution = solve(*sweep_arrays(scaled))
        assert np.allclose(scaled_solution.x, s * solution.x, rtol=1e-9)
        assert np.isclose(scaled_solution.delta, s ** 2 * solution.delta,
                          rtol=1e-9)

    def test_embeds_solution(self):
        result = reduced_objective(HOEKEN, 24)
        trace = hoeken_sweep(24)
        solution = solve(*sweep_arrays(trace))
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
    return FourBarParams(*np.array(rows).T)


class TestBatchKernel:
    """reduced_objective on a batch against one-design calls and against
    the direct residual, with chunks of three rows."""

    @pytest.fixture(autouse=True)
    def three_row_chunks(self, monkeypatch):
        monkeypatch.setattr(synthesis, "CHUNK_ANGLES", 3 * KERNEL_COUNT)

    def test_rows_match_single_designs_and_residual(self):
        params = kernel_batch()
        batch = reduced_objective(params, KERNEL_COUNT)
        rows = len(params.crank)
        assert len(batch.arc.violation) == batch.delta0.shape[0] == rows
        reasons = [reason(batch.arc, i) for i in range(rows)]
        kinds = [kind(batch.arc, i) for i in range(rows)]
        assert kinds[:7] == [None, None, NOT_ASSEMBLABLE, NEAR_TANGENT,
                             NEAR_TANGENT, None, None]
        assert batch.condition[6] > RANK_DEFICIENCY_COND
        assert kinds[7:].count(None) >= 3
        for i in range(rows):
            design = take(params, i)
            alone = reduced_objective(design, KERNEL_COUNT)
            assert reasons[i] == reason(alone.arc, 0)
            for name in ("delta0", "x", "condition", "mu_min"):
                np.testing.assert_array_equal(getattr(batch, name)[i],
                                              getattr(alone, name)[0])
            for name in ("phi", "gap", "discriminant", "violation", "mu_min"):
                np.testing.assert_array_equal(getattr(batch.arc, name)[i],
                                              getattr(alone.arc, name)[0])
            if reasons[i] is not None:
                assert batch.arc.messages([i]) == [reasons[i]]
                assert batch.delta0[i] == np.inf
                assert np.isnan(batch.mu_min[i])
                continue
            trace = sweep(design, KERNEL_COUNT)
            direct = residual(trace, batch.x[i])
            assert abs(direct - batch.delta0[i]) <= 1e-12 * (1.0 + direct)
            assert batch.mu_min[i] == batch.arc.mu_min[i] <= trace.mu.min()

    def test_chunking_does_not_change_results(self, monkeypatch):
        params = kernel_batch(seed=8, extra=40)
        chunked = reduced_objective(params, KERNEL_COUNT)
        monkeypatch.setattr(synthesis, "CHUNK_ANGLES", 1000 * KERNEL_COUNT)
        whole = reduced_objective(params, KERNEL_COUNT)
        for name in ("delta0", "x", "condition", "mu_min"):
            np.testing.assert_array_equal(getattr(chunked, name),
                                          getattr(whole, name))
        for name in ("phi", "gap", "discriminant", "violation", "mu_min"):
            np.testing.assert_array_equal(getattr(chunked.arc, name),
                                          getattr(whole.arc, name))
