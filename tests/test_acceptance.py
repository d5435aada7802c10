"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them live).  The
hybrid-synthesis check (criterion 2) first tries the full target figures
over the documented default search box; when that filter comes back
empty, the documented fallback applies: the best design found must still
dominate the prototype figures.
"""

import heapq
import json

import numpy as np
import pytest

from legsynth import cli, slam
from legsynth.fourbar import FourBarParams, arc_check, gait_metrics, sweep
from legsynth.isotropy import (ab_matrices, closed_form_family,
                               foot_positions, inverse_jacobian,
                               isotropy_report, jacobian_via_AB)
from legsynth.lptau import lp_tau
from legsynth.mobility import mobility, reference_graphs
from legsynth.nsga2 import (GAConfig, evolve,
                            fast_nondominated_sort, hypervolume_2d,
                            leg_problem)
from legsynth.slam import (MotionInput, NoPathError, OccupancyGrid,
                           OdometryNoise, ProcessNoise, SensorConfig,
                           desk_world, loop_script, path_cost, plan_path,
                           simulate, update_map)
from legsynth.synthesis import RANK_DEFICIENCY_COND, solve
from test_isotropy import forward_kinematics
from test_synthesis import assemble, residual, solve_oracle, sweep_arrays


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {marker} - {detail}")
    assert passed, detail


def test_criterion_1_step_cycle_arithmetic():
    values = {}
    for support_deg in (221.0, 184.0):
        params = FourBarParams(0.5, 1.25, 1.25, np.radians(65.0),
                               np.radians(support_deg))
        values[support_deg] = gait_metrics(params, sweep(params, 12).mu.min())
    ok = (abs(values[221.0].cycle_ratio - 1.59) <= 0.005
          and abs(values[184.0].cycle_ratio - 1.045) <= 0.005)
    report(1, ok, f"nu(221deg) = {values[221.0].cycle_ratio:.4f} "
                  f"(target 1.59 +/- 0.005), nu(184deg) = "
                  f"{values[184.0].cycle_ratio:.4f} (target 1.045 +/- 0.005)")


def test_criterion_2_hybrid_synthesis(tmp_path):
    budget = 2 ** 14
    primary_limits = {"max_delta": 2.5e-5,  # rms 5e-3 in squared form
                      "min_transmission_deg": 24.0,
                      "min_cycle_ratio": 1.55}

    def run_synth(name, limits):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({"budget": budget,
                                           "limits": limits}))
        out = tmp_path / name
        code = cli.main(["synth", "--config", str(config_path),
                         "--out", str(out), "--seed", "0"])
        summary = None
        if code == 0:
            summary = json.loads((out / "summary.json").read_text())
        return code, summary

    code, summary = run_synth("primary", primary_limits)
    if code == 0:
        best = summary["best"]
        ok = (best["rms"] <= 5e-3
              and best["min_transmission_deg"] >= 24.0
              and best["cycle_ratio"] >= 1.55
              and best["support_deg"] >= 215.0)
        report(2, ok, "primary target met: "
                      f"rms {best['rms']:.2e}, mu {best['min_transmission_deg']:.1f} deg, "
                      f"nu {best['cycle_ratio']:.3f}, arc {best['support_deg']:.1f} deg")
        return

    # the documented box is too tight for the full target at this budget;
    # the fallback requires the best found to dominate the prototype
    fallback_limits = {"min_transmission_deg": 15.0001,
                       "min_cycle_ratio": 1.0455}  # arc > 184 deg
    code, summary = run_synth("fallback", fallback_limits)
    ok = code == 0
    detail = "primary filter empty at budget 2^14; fallback "
    if ok:
        best = summary["best"]
        ok = (best["min_transmission_deg"] > 15.0
              and best["cycle_ratio"] > 1.045
              and best["support_deg"] > 184.0)
        detail += (f"best dominates prototype: rms {best['rms']:.2e}, "
                   f"mu {best['min_transmission_deg']:.1f} deg > 15, "
                   f"nu {best['cycle_ratio']:.3f} > 1.045, "
                   f"arc {best['support_deg']:.1f} deg > 184")
    else:
        detail += "scan produced no dominating design"
    report(2, ok, detail)


def test_criterion_3_nsga2_convergence():
    problem = leg_problem()
    result = evolve(problem, GAConfig(population=100, generations=2000,
                                      seed=0))
    hv = result.hypervolume
    monotone = bool(np.all(np.diff(hv) >= -1e-12))
    final = hv[-1]
    crossing = int(np.argmax(hv >= 0.99 * final))
    ok = monotone and final > 0 and crossing <= 2000
    report(3, ok, f"hypervolume monotone={monotone}, reaches 99% of final "
                  f"({final:.3f}) at generation {crossing} <= 2000")


def test_criterion_4_isotropy_closed_forms():
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_condition = 0.0
    worst_lambda = 0.0
    for i in range(50):
        gamma1 = rng.choice([np.pi / 3.0, -np.pi / 3.0])
        char_length = 1.0 if i % 2 == 0 else float(rng.uniform(0.5, 2.0))
        while True:
            alpha1 = float(rng.uniform(-np.pi, np.pi))
            beta = float(rng.uniform(0.3, np.pi - 0.3))
            if abs(np.sin(alpha1 + beta - gamma1)) >= 0.1:
                break
        config = closed_form_family(alpha1=alpha1, gamma1=gamma1, beta=beta,
                                    char_length=char_length,
                                    variant=int(rng.choice([1, 2])),
                                    sign=int(rng.choice([1, -1])))
        iso = isotropy_report(config)
        worst_residual = max(worst_residual, np.abs(iso.residuals).max())
        worst_condition = max(worst_condition, abs(iso.condition - 1.0))
        if char_length == 1.0:
            expected = np.sin(beta) * np.sqrt(2.0 / 3.0)
            worst_lambda = max(worst_lambda, abs(iso.lam - expected))
    ok = (worst_residual <= 1e-10 and worst_condition <= 1e-8
          and worst_lambda <= 1e-9)
    report(4, ok, f"50 family configs: max residual {worst_residual:.1e} "
                  f"(<= 1e-10), |cond-1| {worst_condition:.1e} (<= 1e-8), "
                  f"|lambda - sin(beta) sqrt(2/3)| {worst_lambda:.1e} "
                  f"(<= 1e-9, unit characteristic length)")


def _random_stance(rng, max_condition=None):
    from legsynth.isotropy import TripodConfig, TripodLeg
    while True:
        legs = tuple(
            TripodLeg(mount_radius=rng.uniform(0.5, 2.0),
                      mount_angle=rng.uniform(-np.pi, np.pi),
                      leg_angle=rng.uniform(-np.pi, np.pi),
                      foot_offset=rng.uniform(-1.0, 1.0),
                      extension=rng.choice([-1.0, 1.0])
                      * rng.uniform(0.5, 2.0))
            for _ in range(3))
        config = TripodConfig(legs=legs,
                              heading=rng.uniform(-np.pi, np.pi),
                              char_length=rng.uniform(0.5, 2.0),
                              position=rng.uniform(-1.0, 1.0, 2))
        A, _ = ab_matrices(config)
        if abs(np.linalg.det(A)) <= 1e-3:
            continue
        if max_condition is not None \
                and np.linalg.cond(inverse_jacobian(config)) > max_condition:
            continue
        return config


def test_criterion_5_jacobian_cross_checks():
    rng = np.random.default_rng(7)
    worst_product = 0.0
    for _ in range(100):
        config = _random_stance(rng)
        J = jacobian_via_AB(config)
        J_inv = inverse_jacobian(config)
        worst_product = max(worst_product,
                            np.abs(J @ J_inv - np.eye(3)).max(),
                            np.abs(J_inv @ J - np.eye(3)).max())
    # the det filter alone admits badly conditioned stances where h = 1e-6
    # central differences lose accuracy; keep the finite-difference sample
    # well away from the working-area boundary
    worst_fd = 0.0
    for _ in range(20):
        config = _random_stance(rng, max_condition=100.0)
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
                config.char_length * (plus.heading - minus.heading) / (2 * h),
            ])
            scale = max(1.0, np.abs(J[:, i]).max())
            worst_fd = max(worst_fd, np.abs(fd - J[:, i]).max() / scale)
    ok = worst_product <= 1e-9 and worst_fd <= 1e-5
    report(5, ok, f"100 stance products: max |J J^-1 - I| = "
                  f"{worst_product:.1e} (<= 1e-9); 20 finite-difference "
                  f"checks: max relative error {worst_fd:.1e} (<= 1e-5)")


def _random_sweep(rng, count=16):
    while True:
        params = FourBarParams(rng.uniform(0.1, 0.6), rng.uniform(0.4, 2.5),
                               rng.uniform(0.4, 2.5),
                               rng.uniform(0.0, 2.0 * np.pi),
                               rng.uniform(np.pi, 1.9 * np.pi))
        if arc_check(params).violation[0] <= 0.0:
            return sweep(params, count)


def test_criterion_6_linear_solve_stationarity():
    rng = np.random.default_rng(11)
    worst_grad = 0.0
    for _ in range(100):
        trace = _random_sweep(rng)
        solution = solve(*sweep_arrays(trace))
        if solution.condition > RANK_DEFICIENCY_COND:
            continue
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            g = (residual(trace, solution.x + e)
                 - residual(trace, solution.x - e)) / (2 * h)
            worst_grad = max(worst_grad, abs(g) / (1.0 + solution.delta))
    # the blocks of the normal-equation oracle against finite differences
    # of the residual, and solve() against that oracle at the tolerances
    # of tests/test_synthesis.py::TestOracle
    eps = np.finfo(float).eps
    worst_block = 0.0
    worst_x = worst_delta = 0.0
    for _ in range(10):
        trace = _random_sweep(rng)
        system = assemble(trace)
        x, delta, cond = solve_oracle(system)
        solution = solve(*sweep_arrays(trace))
        scale = np.mean((trace.B ** 2).sum(axis=1)) + x @ x
        worst_x = max(worst_x, np.abs(solution.x - x).max()
                      / (eps * cond * (1.0 + np.abs(x).max())))
        worst_delta = max(worst_delta,
                          abs(solution.delta - delta) / (eps * scale))
        h = 0.5  # exact for a quadratic, keeps roundoff small
        grad0 = np.empty(6)
        hess = np.empty((6, 6))
        base = residual(trace, np.zeros(6))
        for i in range(6):
            ei = np.zeros(6)
            ei[i] = h
            fp = residual(trace, ei)
            fm = residual(trace, -ei)
            grad0[i] = (fp - fm) / (2 * h)
            hess[i, i] = (fp - 2 * base + fm) / h ** 2
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
                hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) \
                    / (4 * h ** 2)
        worst_block = max(worst_block,
                          np.abs(0.5 * hess - system.matrix).max(),
                          np.abs(-0.5 * grad0 - system.rhs).max())
    ok = (worst_grad <= 1e-8 and worst_block <= 1e-10
          and worst_x <= 16 and worst_delta <= 16)
    report(6, ok, f"gradient at optimum: max scaled infinity-norm "
                  f"{worst_grad:.1e} (<= 1e-8); normal-equation blocks vs "
                  f"finite differences: {worst_block:.1e} (<= 1e-10); "
                  f"closed form vs normal equations: x {worst_x:.2f} eps "
                  f"cond (1 + |x|), delta {worst_delta:.2f} eps "
                  f"(mean|B|^2 + |x|^2) (both <= 16)")


def test_criterion_7_mobility_fixtures():
    results = [mobility(g) for g in reference_graphs()]
    dofs = [r.dof for r in results]
    ok = (dofs == [3, 6, 6, 8]
          and results[1].rational is True
          and results[2].rational is False
          and results[2].actuated_inputs == 12
          and results[3].rational is True)
    report(7, ok, f"reference mechanisms give W = {dofs} "
                  "(expected [3, 6, 6, 8]; 6 vs 12 inputs flagged irrational)")


def test_criterion_8_oracle_equivalences():
    # non-dominated sorting against the quadratic peeling oracle
    rng = np.random.default_rng(17)
    sort_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        F = rng.integers(0, 8, size=(n, 2)).astype(float)
        rank = fast_nondominated_sort(F, np.zeros(n))
        # beats[j, i]: row j is no worse than row i in every objective
        # and better in one
        beats = ((F[:, None, :] <= F[None, :, :]).all(axis=2)
                 & (F[:, None, :] < F[None, :, :]).any(axis=2))
        remaining = np.ones(n, dtype=bool)
        for r in range(rank.max() + 1):
            front = np.flatnonzero(rank == r)
            expected = np.flatnonzero(remaining
                                      & ~beats[remaining].any(axis=0))
            if not np.array_equal(front, expected):
                sort_ok = False
                break
            remaining[front] = False
        if remaining.any():
            sort_ok = False
        if not sort_ok:
            break

    hv_ok = (hypervolume_2d([(0.0, 0.0)], (1.0, 1.0)) == 1.0
             and abs(hypervolume_2d([(0.0, 0.5), (0.5, 0.0)],
                                    (1.0, 1.0)) - 0.75) < 1e-15
             and hypervolume_2d([(0.0, 0.5), (0.5, 0.0), (0.9, 0.9)],
                                (1.0, 1.0))
             == hypervolume_2d([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0)))

    def dijkstra_cost(grid, start, goal):
        blocked = grid.probabilities() > 0.5
        if blocked[start] or blocked[goal]:
            return None
        moves = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
                 (-1, -1, 2 ** 0.5), (-1, 1, 2 ** 0.5), (1, -1, 2 ** 0.5),
                 (1, 1, 2 ** 0.5)]
        dist = {start: 0.0}
        queue = [(0.0, start)]
        while queue:
            d, cell = heapq.heappop(queue)
            if cell == goal:
                return d
            if d > dist.get(cell, np.inf):
                continue
            for dr, dc, w in moves:
                nxt = (cell[0] + dr, cell[1] + dc)
                if not grid.contains(nxt) or blocked[nxt]:
                    continue
                nd = d + w
                if nd < dist.get(nxt, np.inf):
                    dist[nxt] = nd
                    heapq.heappush(queue, (nd, nxt))
        return None

    astar_ok = True
    grid_rng = np.random.default_rng(31)
    for _ in range(50):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=18,
                             height=18)
        occupied = grid_rng.random((18, 18)) < 0.25
        grid.log_odds = np.where(occupied, 5.0, -5.0)
        grid.log_odds[0, 0] = grid.log_odds[17, 17] = -5.0
        oracle = dijkstra_cost(grid, (0, 0), (17, 17))
        try:
            cost = path_cost(plan_path(grid, (0, 0), (17, 17)))
        except NoPathError:
            cost = None
        if oracle is None:
            astar_ok &= cost is None
        else:
            astar_ok &= cost is not None and abs(cost - oracle) < 1e-9

    def radical_inverse(n):
        x, f = 0.0, 0.5
        while n:
            if n & 1:
                x += f
            f *= 0.5
            n >>= 1
        return x

    lp_ok = np.array_equal(
        lp_tau(1, 256).ravel(),
        np.array([radical_inverse(n) for n in range(256)]))

    ok = sort_ok and hv_ok and astar_ok and lp_ok
    report(8, ok, f"sorting oracle (1000 populations): {sort_ok}; "
                  f"hypervolume hand values: {hv_ok}; "
                  f"A* vs Dijkstra (50 grids): {astar_ok}; "
                  f"LP-tau dim 1 vs radical inverse (256 points): {lp_ok}")


def test_criterion_9_slam_behavior(monkeypatch):
    # the smallest covariance eigenvalue of every state a step ends in
    minima = []

    def spy(state, z):
        state = update_map(state, z)
        minima.append(np.linalg.eigvalsh(state.cov).min())
        return state

    world = desk_world()
    noise_free = simulate(world, loop_script(),
                          SensorConfig(max_range=5.0, n_rays=0), seed=0)
    slam_err, _ = noise_free.final_errors()
    clean_ok = slam_err <= 1e-6

    sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                          bearing_sigma=0.01, n_rays=0)
    odometry = OdometryNoise(velocity_sigma=0.05, angular_sigma=0.03)
    process = ProcessNoise(x=0.001, y=0.001, heading=0.0005)
    script = loop_script() * 2
    wins = 0
    monkeypatch.setattr(slam, "update_map", spy)
    for seed in range(10):
        log = simulate(world, script, sensor, odometry=odometry,
                       process=process, seed=seed)
        se, de = log.final_errors()
        wins += se < de
    min_eigenvalue = min(minima)
    psd_ok = len(minima) == 10 * len(script) and min_eigenvalue >= -1e-12
    ok = clean_ok and wins >= 9 and psd_ok
    report(9, ok, f"noise-free final error {slam_err:.1e} (<= 1e-6); "
                  f"SLAM beats dead reckoning in {wins}/10 seeds (>= 9); "
                  f"min covariance eigenvalue {min_eigenvalue:.1e} "
                  f"(>= -1e-12)")
