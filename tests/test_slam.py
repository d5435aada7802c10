import heapq
import json

import numpy as np
import pytest

from legsynth.geometry import wrap_pi
from legsynth.slam import (MotionInput, NoPathError, OccupancyGrid,
                           OdometryNoise, ProcessNoise, SensorConfig,
                           SlamState, World, WorldFormatError, correct,
                           desk_world, initial_state, load_world, loop_script,
                           observe, path_cost, plan_path, predict, simulate,
                           unicycle, update_map, world_from_dict,
                           world_to_dict, write_grid_pgm, write_run_log)

SENSOR_EXACT = SensorConfig(max_range=10.0, n_rays=0)


def single_landmark_world():
    return World(landmarks={1: np.array([2.0, 1.0])}, obstacles=(),
                 grid_resolution=0.5, grid_origin=np.array([-1.0, -1.0]),
                 grid_width=10, grid_height=10)


def seeded_state_with_landmark(pose, landmark, pose_cov):
    world = single_landmark_world()
    mean = np.concatenate([pose, landmark])
    cov = np.zeros((5, 5))
    cov[:3, :3] = pose_cov
    return SlamState(mean=mean, cov=cov, landmark_ids=(1,),
                     grid=world.make_grid())


def dijkstra_cost(grid, start, goal, threshold=0.5):
    """Independent optimal-cost oracle on the same move rules."""
    blocked = grid.probabilities() > threshold
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


class TestPredict:
    def test_zero_motion_grows_by_process_noise_only(self):
        state = initial_state([0.5, -0.2, 0.3], desk_world())
        noise = ProcessNoise(x=0.01, y=0.02, heading=0.005)
        out = predict(state, MotionInput(0.0, 0.0, 2.0), noise)
        assert np.array_equal(out.mean, state.mean)
        assert np.allclose(out.cov, np.diag([0.02, 0.04, 0.01]), atol=1e-15)

    def test_straight_line(self):
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        out = predict(state, MotionInput(1.0, 0.0, 1.0))
        assert np.allclose(out.mean, [1.0, 0.0, 0.0], atol=1e-15)

    def test_turn_against_exact_arc(self):
        # the first-order step deviates from the exact constant-rate arc
        # by at most v * |w| * dt^2 / sqrt(2)
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        v, w, dt = 1.0, np.pi / 2, 1.0
        out = predict(state, MotionInput(v, w, dt))
        assert abs(out.mean[2] - np.pi / 2) < 1e-15
        exact = np.array([v / w * np.sin(w * dt),
                          v / w * (1.0 - np.cos(w * dt))])
        deviation = np.hypot(*(out.mean[:2] - exact))
        assert deviation <= v * abs(w) * dt ** 2 / np.sqrt(2.0)

    def test_heading_wrapped(self):
        state = initial_state([0.0, 0.0, 3.0], desk_world())
        out = predict(state, MotionInput(0.0, 1.0, 1.0))
        assert -np.pi < out.mean[2] <= np.pi


class TestObserve:
    def test_exact_range_bearing(self):
        world = World(landmarks={7: np.array([1.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5,
                      grid_origin=np.array([-1.0, -1.0]),
                      grid_width=8, grid_height=8)
        z = observe(np.array([0.0, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        assert z.measurements == ((7, 1.0, 0.0),)

    def test_landmark_beyond_range_excluded(self):
        world = World(landmarks={7: np.array([50.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5,
                      grid_origin=np.array([-1.0, -1.0]),
                      grid_width=8, grid_height=8)
        z = observe(np.array([0.0, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        assert z.measurements == ()

    def test_seeded_noise_reproducible(self):
        world = desk_world()
        sensor = SensorConfig(max_range=6.0, range_sigma=0.1,
                              bearing_sigma=0.05, n_rays=16)
        a = observe(np.array([0.2, 0.1, 0.4]), world, sensor,
                    np.random.default_rng(99))
        b = observe(np.array([0.2, 0.1, 0.4]), world, sensor,
                    np.random.default_rng(99))
        assert a.measurements == b.measurements
        assert a.rays == b.rays

    def test_rays_hit_obstacle(self):
        world = desk_world()
        pose = np.array([0.0, 1.2, 0.0])  # obstacle sits ahead at x ~ 0.8
        z = observe(pose, world, SensorConfig(max_range=5.0, n_rays=8),
                    np.random.default_rng(1))
        forward = [r for r in z.rays if abs(r.angle) < 1e-9]
        assert forward and forward[0].hit
        assert abs(forward[0].distance - 0.8) < 1e-12


class TestCorrect:
    def test_zero_innovation_keeps_mean_and_contracts(self):
        state = seeded_state_with_landmark([0.0, 0.0, 0.0], [2.0, 1.0],
                                           np.diag([0.3, 0.3, 0.1]))
        z = observe(np.array([0.0, 0.0, 0.0]), single_landmark_world(),
                    SENSOR_EXACT, np.random.default_rng(0))
        result = correct(state, z)
        assert np.array_equal(result.state.mean, state.mean)
        assert np.trace(result.state.cov) < np.trace(state.cov)

    def test_noise_free_convergence_with_inflation(self):
        # heading pinned by zero initial variance; repeated noise-free
        # fixes drive the planar offset to the exact pose
        state = seeded_state_with_landmark([0.3, -0.2, 0.0], [2.0, 1.0],
                                           np.diag([0.5, 0.5, 0.0]))
        world = single_landmark_world()
        rng = np.random.default_rng(0)
        hold = MotionInput(0.0, 0.0, 1.0)
        inflate = ProcessNoise(x=1e-4, y=1e-4, heading=0.0)
        for _ in range(50):
            state = predict(state, hold, inflate)
            z = observe(np.array([0.0, 0.0, 0.0]), world, SENSOR_EXACT, rng)
            state = correct(state, z).state
        assert np.hypot(*state.mean[:2]) < 1e-6

    def test_informative_update_reduces_trace(self):
        rng = np.random.default_rng(3)
        world = single_landmark_world()
        sensor = SensorConfig(max_range=10.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=0)
        for _ in range(100):
            pose = rng.uniform(-0.5, 0.5, 3)
            state = seeded_state_with_landmark(pose, [2.0, 1.0],
                                               np.diag([0.2, 0.2, 0.05]))
            z = observe(pose, world, sensor, rng)
            result = correct(state, z)
            assert not result.skipped
            assert np.trace(result.state.cov) < np.trace(state.cov)

    def test_unknown_ids_ignored(self):
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        z = observe(np.array([0.0, 0.0, 0.0]), single_landmark_world(),
                    SENSOR_EXACT, np.random.default_rng(0))
        result = correct(state, z)
        assert result.moved_ids == ()
        assert np.array_equal(result.state.mean, state.mean)

    def test_same_inputs_same_outputs(self):
        # one Kalman implementation serves both the correction and the
        # odometry-lidar fusion roles: identical inputs, identical outputs
        state = seeded_state_with_landmark([0.1, 0.0, 0.0], [2.0, 1.0],
                                           np.diag([0.2, 0.2, 0.01]))
        z = observe(np.array([0.0, 0.0, 0.0]), single_landmark_world(),
                    SENSOR_EXACT, np.random.default_rng(0))
        a = correct(state, z)
        b = correct(state, z)
        assert np.array_equal(a.state.mean, b.state.mean)
        assert np.array_equal(a.state.cov, b.state.cov)


class TestUpdateMap:
    def test_empty_observation_is_noop(self):
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        from legsynth.slam import Observation
        empty = Observation(measurements=(), rays=(), range_sigma=0.0,
                            bearing_sigma=0.0)
        result = update_map(state, empty)
        assert result.added_ids == ()
        assert np.array_equal(result.state.grid.log_odds,
                              state.grid.log_odds)

    def test_inverse_observation_initialization(self):
        state = initial_state([0.0, 0.0, 0.0], single_landmark_world())
        z = observe(np.array([0.0, 0.0, 0.0]),
                    World(landmarks={5: np.array([2.0, 0.0])}, obstacles=(),
                          grid_resolution=0.5,
                          grid_origin=np.array([-1.0, -1.0]),
                          grid_width=10, grid_height=10),
                    SENSOR_EXACT, np.random.default_rng(0))
        result = update_map(state, z)
        assert result.added_ids == (5,)
        assert np.allclose(result.state.landmarks[5], [2.0, 0.0], atol=1e-12)

    def test_log_odds_stay_bounded(self):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=4,
                             height=4)
        for _ in range(1000):
            grid.stamp((1, 1), 0.85)
            grid.stamp((1, 1), -0.4)
        p = grid.probabilities()[1, 1]
        assert 0.0 < p < 1.0


class TestPlanner:
    def test_start_equals_goal(self):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=5,
                             height=5)
        assert plan_path(grid, (2, 2), (2, 2)) == [(2, 2)]

    def test_empty_grid_corner_to_corner(self):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=10,
                             height=10)
        path = plan_path(grid, (0, 0), (9, 9))
        oracle = dijkstra_cost(grid, (0, 0), (9, 9))
        assert abs(path_cost(path) - oracle) < 1e-9
        assert abs(oracle - 9.0 * np.sqrt(2.0)) < 1e-9

    def test_walled_goal(self):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=8,
                             height=8)
        grid.log_odds[:, 4] = 10.0  # full wall
        with pytest.raises(NoPathError):
            plan_path(grid, (0, 0), (7, 7))

    def test_matches_dijkstra_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2),
                                 width=20, height=20)
            occupied = rng.random((20, 20)) < 0.25
            grid.log_odds = np.where(occupied, 5.0, -5.0)
            grid.log_odds[0, 0] = grid.log_odds[19, 19] = -5.0
            oracle = dijkstra_cost(grid, (0, 0), (19, 19))
            try:
                cost = path_cost(plan_path(grid, (0, 0), (19, 19)))
            except NoPathError:
                cost = None
            if oracle is None:
                assert cost is None
            else:
                assert cost is not None and abs(cost - oracle) < 1e-9

    def test_path_avoids_occupied_cells(self):
        rng = np.random.default_rng(43)
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=15,
                             height=15)
        occupied = rng.random((15, 15)) < 0.2
        grid.log_odds = np.where(occupied, 5.0, -5.0)
        grid.log_odds[0, 0] = grid.log_odds[14, 14] = -5.0
        try:
            path = plan_path(grid, (0, 0), (14, 14))
        except NoPathError:
            return
        blocked = grid.probabilities() > 0.5
        assert not any(blocked[c] for c in path)


class TestSimulate:
    def test_noise_free_matches_ground_truth(self):
        log = simulate(desk_world(), loop_script(),
                       SensorConfig(max_range=5.0, n_rays=0), seed=0)
        slam_err, dr_err = log.final_errors()
        assert slam_err <= 1e-6
        assert dr_err <= 1e-6

    def test_seeded_noise_beats_dead_reckoning(self):
        world = desk_world()
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=0)
        odo = OdometryNoise(velocity_sigma=0.05, angular_sigma=0.03)
        process = ProcessNoise(x=0.001, y=0.001, heading=0.0005)
        script = loop_script() * 2
        wins = 0
        for seed in range(10):
            log = simulate(world, script, sensor, odometry=odo,
                           process=process, seed=seed)
            slam_err, dr_err = log.final_errors()
            wins += slam_err < dr_err
        assert wins >= 9

    def test_covariance_stays_psd(self):
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=0)
        log = simulate(desk_world(), loop_script(), sensor,
                       odometry=OdometryNoise(0.05, 0.03),
                       process=ProcessNoise(0.001, 0.001, 0.0005), seed=5)
        assert min(s.min_cov_eigenvalue for s in log.steps) >= -1e-12

    def test_heading_always_wrapped(self):
        log = simulate(desk_world(), loop_script(),
                       SensorConfig(max_range=5.0, n_rays=8), seed=2)
        for s in log.steps:
            for pose in (s.truth, s.dead_reckoning, s.slam):
                assert -np.pi < pose[2] <= np.pi

    def test_same_seed_identical_logs(self):
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=4)
        args = dict(odometry=OdometryNoise(0.05, 0.03),
                    process=ProcessNoise(0.001, 0.001, 0.0005), seed=7)
        a = simulate(desk_world(), loop_script(), sensor, **args)
        b = simulate(desk_world(), loop_script(), sensor, **args)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.slam, sb.slam)
            assert np.array_equal(sa.dead_reckoning, sb.dead_reckoning)
            assert sa.cov_trace == sb.cov_trace

    def test_grid_gets_painted(self):
        log = simulate(desk_world(), loop_script(),
                       SensorConfig(max_range=5.0, n_rays=36), seed=0)
        probs = log.final_state.grid.probabilities()
        assert (probs > 0.5).sum() > 0
        assert (probs < 0.4).sum() > 100


class TestWorldIO:
    def test_round_trip(self, tmp_path):
        world = desk_world()
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world_to_dict(world)))
        loaded = load_world(path)
        assert loaded.landmarks.keys() == world.landmarks.keys()
        assert loaded.grid_width == world.grid_width

    def test_unknown_keys_rejected(self):
        data = world_to_dict(desk_world())
        data["lidar_model"] = "fancy"
        with pytest.raises(WorldFormatError):
            world_from_dict(data)

    def test_bad_polygon_rejected(self):
        data = world_to_dict(desk_world())
        data["obstacles"] = [[[0.0, 0.0], [1.0, 1.0]]]
        with pytest.raises(WorldFormatError):
            world_from_dict(data)

    @pytest.mark.parametrize("grid", [
        5,
        {"resolution": 0.1, "origin": [-2.0, -2.0], "height": 60},
        {"resolution": 0, "origin": [-2.0, -2.0], "width": 60, "height": 60},
        {"resolution": 0.1, "origin": [-2.0, -2.0], "width": 0, "height": 60},
        {"resolution": 0.1, "origin": [-2.0], "width": 60, "height": 60},
        {"resolution": 0.1, "origin": [-2.0, -2.0], "width": float("inf"),
         "height": 60},
    ], ids=["a-number", "no-width", "zero-resolution", "zero-width",
            "1-d-origin", "infinite-width"])
    def test_bad_grid_rejected(self, grid):
        data = world_to_dict(desk_world())
        data["grid"] = grid
        with pytest.raises(WorldFormatError):
            world_from_dict(data)

    def test_nan_landmark_rejected(self):
        data = world_to_dict(desk_world())
        data["landmarks"][0]["x"] = float("nan")
        with pytest.raises(WorldFormatError):
            world_from_dict(data)

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text('{"grid": ')
        with pytest.raises(WorldFormatError):
            load_world(path)

    def test_writers_produce_files(self, tmp_path):
        log = simulate(desk_world(), loop_script()[:40],
                       SensorConfig(max_range=5.0, n_rays=12), seed=0)
        write_run_log(log, tmp_path / "run.csv", header_comment="config abc")
        write_grid_pgm(log.final_state.grid, tmp_path / "grid.pgm")
        text = (tmp_path / "run.csv").read_text().splitlines()
        assert text[0] == "# config abc"
        assert len(text) == 2 + 40
        pgm = (tmp_path / "grid.pgm").read_text().splitlines()
        assert pgm[0] == "P2"


class TestWrap:
    def test_wrap_pi_range(self):
        values = np.array([-np.pi, np.pi, 0.0, 3 * np.pi, -3 * np.pi, 6.0])
        wrapped = wrap_pi(values)
        assert np.all(wrapped > -np.pi)
        assert np.all(wrapped <= np.pi)
        assert wrap_pi(np.pi) == np.pi
        assert wrap_pi(-np.pi) == np.pi

    def test_unicycle_matches_manual_integration(self):
        pose = np.array([0.1, 0.2, 0.3])
        u = MotionInput(0.7, -0.2, 0.5)
        stepped = unicycle(pose, u)
        manual = pose + np.array([0.7 * np.cos(0.3) * 0.5,
                                  0.7 * np.sin(0.3) * 0.5, -0.2 * 0.5])
        assert np.allclose(stepped, manual, atol=1e-15)
