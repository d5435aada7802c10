import copy
import csv
import heapq
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from legsynth import cli, slam
from legsynth.geometry import wrap_pi
from legsynth.slam import (LOG_ODDS_FREE, LOG_ODDS_LIMIT, LOG_ODDS_OCCUPIED,
                           FilterDivergedError, MotionInput, NoPathError,
                           Observation, OccupancyGrid, OdometryNoise,
                           ProcessNoise, SensorConfig, SlamState, World,
                           _walk, correct, desk_world, initial_state,
                           loop_script, observe, path_cost, plan_path,
                           predict, simulate, unicycle, update_map,
                           write_grid_pgm, write_run_log)

SENSOR_EXACT = SensorConfig(max_range=10.0, n_rays=0)
FRAME_FIELDS = ("ids", "ranges", "bearings", "ray_angles", "ray_distances",
                "ray_hits")


def ray_frame(angles=(), distances=(), hits=()):
    """An observation of rays only, no landmarks."""
    return Observation(ids=np.zeros(0, dtype=int), ranges=np.zeros(0),
                       bearings=np.zeros(0),
                       ray_angles=np.asarray(angles, dtype=float),
                       ray_distances=np.asarray(distances, dtype=float),
                       ray_hits=np.asarray(hits, dtype=bool),
                       range_sigma=0.0, bearing_sigma=0.0)


def observe_oracle(pose, world, sensor, rng):
    """The scalar sensor model: landmark by landmark, then ray by ray, each
    ray against each obstacle edge, one noise draw at a time."""
    heading = pose[2]
    ids, ranges, bearings = [], [], []
    for lid in sorted(world.landmarks):
        delta = np.asarray(world.landmarks[lid], dtype=float) - pose[:2]
        dist = float(np.hypot(delta[0], delta[1]))
        bearing = wrap_pi(np.arctan2(delta[1], delta[0]) - heading)
        if dist > sensor.max_range or abs(bearing) > sensor.fov / 2.0:
            continue
        ids.append(lid)
        ranges.append(max(dist + sensor.range_sigma * rng.standard_normal(),
                          0.0))
        bearings.append(wrap_pi(bearing + sensor.bearing_sigma
                                * rng.standard_normal()))
    segments = []
    for poly in world.obstacles:
        pts = np.asarray(poly, dtype=float)
        for i in range(len(pts)):
            segments.append((pts[i], pts[(i + 1) % len(pts)]))
    angles = heading + np.linspace(-sensor.fov / 2.0, sensor.fov / 2.0,
                                   sensor.n_rays, endpoint=False)
    distances, hits = [], []
    for angle in angles:
        d = np.array([np.cos(angle), np.sin(angle)])
        best, hit = sensor.max_range, False
        for p, q in segments:
            e = q - p
            denom = d[0] * e[1] - d[1] * e[0]
            if abs(denom) < 1e-15:
                continue
            rel = p - pose[:2]
            t = (rel[0] * e[1] - rel[1] * e[0]) / denom
            s = (rel[0] * d[1] - rel[1] * d[0]) / denom
            if t >= 0.0 and 0.0 <= s <= 1.0 and t < best:
                best, hit = t, True
        if hit and sensor.range_sigma:
            best = float(np.clip(best + sensor.range_sigma
                                 * rng.standard_normal(),
                                 0.0, sensor.max_range))
        distances.append(best)
        hits.append(hit)
    return dict(ids=ids, ranges=ranges, bearings=bearings,
                ray_angles=[wrap_pi(a) for a in angles],
                ray_distances=distances, ray_hits=hits)


def bresenham(start, end):
    """Integer cells from start to end inclusive (8-connected line)."""
    (r0, c0), (r1, c1) = start, end
    cells = []
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        cells.append((r, c))
        if (r, c) == (r1, c1):
            return cells
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr


def stamp_oracle(grid, position, z):
    """Per-cell log-odds stamping of the rays of z from position, ray by
    ray along Bresenham lines, each cell clipped as it is stamped."""

    def cell_of(point):
        return (int(np.floor((point[1] - grid.origin[1]) / grid.resolution)),
                int(np.floor((point[0] - grid.origin[0]) / grid.resolution)))

    def stamp(cell, increment):
        if grid.contains(cell):
            value = grid.log_odds[cell] + increment
            grid.log_odds[cell] = np.clip(value, -LOG_ODDS_LIMIT,
                                          LOG_ODDS_LIMIT)

    x, y = position
    origin = cell_of(position)
    nudge = 0.25 * grid.resolution
    for angle, distance, hit in zip(z.ray_angles.tolist(),
                                    z.ray_distances.tolist(),
                                    z.ray_hits.tolist()):
        reach = distance + (nudge if hit else 0.0)
        end = np.array([x + reach * np.cos(angle), y + reach * np.sin(angle)])
        cells = bresenham(origin, cell_of(end))
        for cell in cells[:-1] if hit else cells:
            stamp(cell, LOG_ODDS_FREE)
        if hit:
            stamp(cells[-1], LOG_ODDS_OCCUPIED)


def stamped_as_oracle(state, frame):
    """update_map's log-odds for frame, checked bit for bit against
    stamp_oracle from the same state."""
    expected = copy.deepcopy(state.grid)
    stamp_oracle(expected, state.mean[:2], frame)
    result = update_map(state, frame).grid.log_odds
    assert np.array_equal(result, expected.log_odds)
    return result


def jacobian_oracle(mean, slots):
    """The dense 2k x n range-bearing Jacobian of the landmarks in the given
    state slots, and the predicted measurements."""
    x, y, heading = mean[:3]
    cols = 3 + 2 * slots
    dx = mean[cols] - x
    dy = mean[cols + 1] - y
    q = dx * dx + dy * dy
    sq = np.sqrt(q)
    predicted = np.stack([sq, wrap_pi(np.arctan2(dy, dx) - heading)],
                         axis=1).ravel()
    block = np.stack([dx / sq, dy / sq, -dy / q, dx / q], axis=1).reshape(-1, 2, 2)
    H = np.zeros((len(slots), 2, len(mean)))
    H[:, :, :2] = -block
    H[:, 1, 2] = -1.0
    k = np.arange(len(slots))
    H[k, :, cols] = block[:, :, 0]
    H[k, :, cols + 1] = block[:, :, 1]
    return H.reshape(-1, len(mean)), predicted


def correct_oracle(state, z):
    """The dense correction: the full H, the gain through inv(S), the
    Joseph form as (I - KH) P (I - KH)^T + K R K^T, and the skip rule on
    np.linalg.cond.  Returns (mean, cov) or None when skipped, and cond(S)."""
    match = z.ids[:, None] == np.asarray(state.landmark_ids, dtype=int)
    known = match.any(axis=1)
    H, predicted = jacobian_oracle(state.mean, match.argmax(axis=1)[known])
    observed = np.stack([z.ranges[known], z.bearings[known]], axis=1).ravel()
    innovation = observed - predicted
    innovation[1::2] = wrap_pi(innovation[1::2])
    r_var = max(z.range_sigma ** 2, slam.MEASUREMENT_VARIANCE_FLOOR)
    b_var = max(z.bearing_sigma ** 2, slam.MEASUREMENT_VARIANCE_FLOOR)
    R = np.diag([r_var, b_var] * np.count_nonzero(known))
    P = state.cov
    S = H @ P @ H.T + R
    condition = np.linalg.cond(S)
    if not np.isfinite(condition) or condition > 1e12:
        return None, condition
    K = P @ H.T @ np.linalg.inv(S)
    mean = state.mean + K @ innovation
    mean[2] = wrap_pi(mean[2])
    IKH = np.eye(len(state.mean)) - K @ H
    P = IKH @ P @ IKH.T + K @ R @ K.T
    return (mean, 0.5 * (P + P.T)), condition


def eigenvalue_rule(S):
    """The skip rule by the extreme eigenvalues: S is accepted when it is
    finite, lambda_min > 0 and lambda_max <= 1e12 lambda_min."""
    if not np.isfinite(S).all():
        return False
    eigenvalues = np.linalg.eigvalsh(S)
    return eigenvalues[0] > 0 and eigenvalues[-1] <= 1e12 * eigenvalues[0]


def spd_with_condition(rng, m, condition, spread, rotated):
    """An m x m symmetric positive definite matrix with eigenvalues from 1
    to `condition`: half at each end ("split") or log-spaced ("log").  Not
    rotated, it is diagonal in a shuffled order and its condition number
    is exact; rotated, rounding moves it by up to about m eps condition."""
    if spread == "split":
        eigenvalues = np.where(np.arange(m) < m // 2, 1.0, condition)
    else:
        eigenvalues = np.logspace(0.0, np.log10(condition), m)
        eigenvalues[-1] = condition
    if not rotated:
        return np.diag(rng.permutation(eigenvalues))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    S = (Q * eigenvalues) @ Q.T
    return 0.5 * (S + S.T)


def seeded_filter_case(rng, n_landmarks, every, sigmas, rank=None):
    """A state of n_landmarks landmarks in shuffled id order, 1 to 4 m from
    the pose, and one frame of landmark id 0 (unknown) plus one or every
    mapped landmark, measured from a perturbed truth.  The covariance is
    B B^T for an n x rank B, full rank when rank is None."""
    n = 3 + 2 * n_landmarks
    pose = rng.uniform(-0.5, 0.5, 3)
    angle = rng.uniform(-np.pi, np.pi, n_landmarks)
    reach = rng.uniform(1.0, 4.0, n_landmarks)
    spots = pose[:2] + reach[:, None] * np.stack([np.cos(angle),
                                                  np.sin(angle)], axis=1)
    ids = rng.permutation(n_landmarks) + 1
    B = rng.standard_normal((n, rank or n)) * (3.0 if rank else 0.1)
    cov = B @ B.T
    state = SlamState(mean=np.concatenate([pose, spots.ravel()]),
                      cov=0.5 * (cov + cov.T), landmark_ids=tuple(ids.tolist()),
                      grid=single_landmark_world().make_grid())
    seen = np.sort(ids if every else ids[:1])
    slot = np.argsort(ids)[seen - 1]
    truth = spots[slot] + rng.normal(0.0, 0.05, (len(seen), 2))
    true_pose = pose + rng.normal(0.0, 0.05, 3)
    d = truth - true_pose[:2]
    z = Observation(ids=np.concatenate([[0], seen]),
                    ranges=np.concatenate([[1.0], np.hypot(d[:, 0], d[:, 1])]),
                    bearings=np.concatenate([[0.0], wrap_pi(
                        np.arctan2(d[:, 1], d[:, 0]) - true_pose[2])]),
                    ray_angles=np.zeros(0), ray_distances=np.zeros(0),
                    ray_hits=np.zeros(0, dtype=bool),
                    range_sigma=sigmas[0], bearing_sigma=sigmas[1])
    return state, z


def grow_oracle(state, z):
    """Landmark initialization one landmark at a time: each new landmark
    grows the mean and the covariance that the next one reads.  Returns
    the mean and covariance."""
    mean, P = state.mean, state.cov
    r_var = max(z.range_sigma ** 2, slam.MEASUREMENT_VARIANCE_FLOOR)
    b_var = max(z.bearing_sigma ** 2, slam.MEASUREMENT_VARIANCE_FLOOR)
    x, y, heading = state.mean[:3]
    fresh = ~np.isin(z.ids, state.landmark_ids)
    for dist, bearing in zip(z.ranges[fresh], z.bearings[fresh]):
        direction = heading + bearing
        cos, sin = np.cos(direction), np.sin(direction)
        position = np.array([x + dist * cos, y + dist * sin])
        G_pose = np.array([[1.0, 0.0, -dist * sin],
                           [0.0, 1.0, dist * cos]])
        G_meas = np.array([[cos, -dist * sin],
                           [sin, dist * cos]])
        n = len(mean)
        grown = np.zeros((n + 2, n + 2))
        grown[:n, :n] = P
        cross = G_pose @ P[:3, :]
        grown[n:, :n] = cross
        grown[:n, n:] = cross.T
        grown[n:, n:] = (G_pose @ P[:3, :3] @ G_pose.T
                         + G_meas @ np.diag([r_var, b_var]) @ G_meas.T)
        mean = np.concatenate([mean, position])
        P = 0.5 * (grown + grown.T)
    return mean, P


def joining_frame(rng, n_known, n_new):
    """A state of n_known landmarks with a random full-rank covariance, and
    a ray-less frame that sees every known landmark and n_new new ones, in
    shuffled id order, 0.5 to 4 m away."""
    n = 3 + 2 * n_known
    B = rng.standard_normal((n, n)) * 0.1
    cov = B @ B.T
    state = SlamState(mean=rng.uniform(-2.0, 2.0, n), cov=0.5 * (cov + cov.T),
                      landmark_ids=tuple(range(1, n_known + 1)),
                      grid=single_landmark_world().make_grid())
    count = n_known + n_new
    return state, Observation(
        ids=rng.permutation(count) + 1, ranges=rng.uniform(0.5, 4.0, count),
        bearings=rng.uniform(-np.pi, np.pi, count),
        ray_angles=np.zeros(0), ray_distances=np.zeros(0),
        ray_hits=np.zeros(0, dtype=bool), range_sigma=0.05,
        bearing_sigma=0.01)


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


def plan_path_oracle(grid, start, goal, occupied_threshold=0.5):
    """The planner as first written: A* over (row, col) tuples, each
    neighbour tested by grid.contains and a numpy index, with the same
    heap keys (f, counter, cell) and float cost sums as plan_path."""
    start, goal = tuple(start), tuple(goal)
    if not (grid.contains(start) and grid.contains(goal)):
        raise ValueError("start and goal must lie inside the grid")
    blocked = grid.probabilities() > occupied_threshold
    if blocked[start] or blocked[goal]:
        raise NoPathError("start or goal cell is occupied")
    diag = np.sqrt(2.0)
    moves = ((-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
             (-1, -1, diag), (-1, 1, diag), (1, -1, diag), (1, 1, diag))

    def heuristic(cell):
        dr = abs(cell[0] - goal[0])
        dc = abs(cell[1] - goal[1])
        return (dr + dc) + (diag - 2.0) * min(dr, dc)

    frontier = [(heuristic(start), 0, start)]
    best_cost = {start: 0.0}
    came_from = {}
    counter = 1
    while frontier:
        _, _, cell = heapq.heappop(frontier)
        if cell == goal:
            path = [cell]
            while path[-1] != start:
                path.append(came_from[path[-1]])
            path.reverse()
            return path
        base = best_cost[cell]
        for dr, dc, move_cost in moves:
            nxt = (cell[0] + dr, cell[1] + dc)
            if not grid.contains(nxt) or blocked[nxt]:
                continue
            cost = base + move_cost
            if cost < best_cost.get(nxt, np.inf) - 1e-12:
                best_cost[nxt] = cost
                came_from[nxt] = cell
                heapq.heappush(frontier, (cost + heuristic(nxt), counter, nxt))
                counter += 1
    raise NoPathError("goal is unreachable")


def plan_outcome(planner, grid, start, goal, threshold):
    """The path a planner returns, or the type and text of what it raises."""
    try:
        return planner(grid, start, goal, occupied_threshold=threshold)
    except (NoPathError, ValueError) as err:
        return type(err), str(err)


def border_cells(height, width, rng):
    """The four corners and one random cell of each side, not a corner."""
    r = int(rng.integers(1, height - 1))
    c = int(rng.integers(1, width - 1))
    return [(0, 0), (0, width - 1), (height - 1, 0), (height - 1, width - 1),
            (0, c), (height - 1, c), (r, 0), (r, width - 1)]


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


class TestWorld:
    EXTREME_IDS = (5, -3, 2 ** 63 - 1, 0, -2 ** 63, 17)

    def extreme_world(self, landmarks):
        triangle = np.array([[0.8, 0.8], [1.6, 0.8], [1.6, 1.6]])
        return World(landmarks=landmarks, obstacles=(triangle,),
                     grid_resolution=0.5, grid_origin=np.zeros(2),
                     grid_width=4, grid_height=4)

    def test_landmark_table_is_the_sorted_mapping(self):
        # ids given out of order, negative, and at the int64 extremes
        rng = np.random.default_rng(4)
        given = {lid: rng.uniform(-3.0, 3.0, 2) for lid in self.EXTREME_IDS}
        world = self.extreme_world(given)
        order = sorted(given)
        assert world.landmark_ids.dtype == np.int64
        assert world.landmark_ids.tolist() == order
        assert world.landmark_points.shape == (len(order), 2)
        assert np.array_equal(world.landmark_points,
                              [given[lid] for lid in order])
        assert list(world.landmarks) == list(self.EXTREME_IDS)
        for lid in given:
            assert np.array_equal(world.landmarks[lid], given[lid])
        sensor = SensorConfig(n_rays=12, range_sigma=0.1, bearing_sigma=0.1)
        rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
        z = observe(np.array([0.1, -0.2, 0.3]), world, sensor, rng)
        expected = observe_oracle(np.array([0.1, -0.2, 0.3]), world, sensor,
                                  oracle_rng)
        assert z.ids.tolist() == order
        for name in FRAME_FIELDS:
            assert np.array_equal(getattr(z, name),
                                  np.asarray(expected[name])), name

    def test_landmarks_and_arrays_are_read_only(self):
        given = {lid: np.array([float(i), 1.0])
                 for i, lid in enumerate(self.EXTREME_IDS)}
        world = self.extreme_world(given)
        with pytest.raises(TypeError):
            world.landmarks[9] = np.zeros(2)
        with pytest.raises(TypeError):
            del world.landmarks[5]
        for array in (world.landmarks[5], world.landmark_ids,
                      world.landmark_points, world.edge_starts,
                      world.edge_vectors, world.obstacles[0]):
            with pytest.raises(ValueError):
                array[0] = 0
        # the world holds copies: changing what it was given changes nothing
        points = world.landmark_points.copy()
        given[5][0] = 99.0
        given[9] = np.zeros(2)
        assert 9 not in world.landmarks
        assert world.landmarks[5].tolist() == [0.0, 1.0]
        assert np.array_equal(world.landmark_points, points)

    def test_grids_own_their_origin(self):
        given = np.array([-2, -2])
        world = World(landmarks={}, obstacles=(), grid_resolution=0.5,
                      grid_origin=given, grid_width=4, grid_height=3)
        assert world.grid_origin.dtype == float
        with pytest.raises(ValueError):
            world.grid_origin[0] = 5.0
        given[0] = 7
        assert world.grid_origin.tolist() == [-2.0, -2.0]
        grid, other = world.make_grid(), world.make_grid()
        assert grid.origin is not world.grid_origin
        grid.origin[0] = 5.0
        assert world.grid_origin.tolist() == [-2.0, -2.0]
        assert other.origin.tolist() == [-2.0, -2.0]
        assert world.make_grid().origin.tolist() == [-2.0, -2.0]
        for name in ("origin", "log_odds"):
            assert not np.shares_memory(getattr(grid, name),
                                        getattr(other, name))

    @pytest.mark.parametrize("point", [np.zeros(3), np.zeros((2, 2)),
                                       np.zeros(1)])
    def test_landmark_not_a_point_rejected(self, point):
        with pytest.raises(ValueError):
            self.extreme_world({1: np.zeros(2), 2: point})


class TestObserve:
    def test_exact_range_bearing(self):
        world = World(landmarks={7: np.array([1.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5,
                      grid_origin=np.array([-1.0, -1.0]),
                      grid_width=8, grid_height=8)
        z = observe(np.array([0.0, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        assert z.ids.tolist() == [7]
        assert z.ranges.tolist() == [1.0]
        assert z.bearings.tolist() == [0.0]

    def test_landmark_beyond_range_excluded(self):
        world = World(landmarks={7: np.array([50.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5,
                      grid_origin=np.array([-1.0, -1.0]),
                      grid_width=8, grid_height=8)
        z = observe(np.array([0.0, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        assert z.ids.size == z.ranges.size == z.bearings.size == 0

    def test_seeded_noise_reproducible(self):
        world = desk_world()
        sensor = SensorConfig(max_range=6.0, range_sigma=0.1,
                              bearing_sigma=0.05, n_rays=16)
        a = observe(np.array([0.2, 0.1, 0.4]), world, sensor,
                    np.random.default_rng(99))
        b = observe(np.array([0.2, 0.1, 0.4]), world, sensor,
                    np.random.default_rng(99))
        for name in FRAME_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_rays_hit_obstacle(self):
        world = desk_world()
        pose = np.array([0.0, 1.2, 0.0])  # obstacle sits ahead at x ~ 0.8
        z = observe(pose, world, SensorConfig(max_range=5.0, n_rays=8),
                    np.random.default_rng(1))
        forward = np.flatnonzero(np.abs(z.ray_angles) < 1e-9)
        assert forward.size and z.ray_hits[forward[0]]
        assert abs(z.ray_distances[forward[0]] - 0.8) < 1e-12

    @pytest.mark.parametrize("pose, world, sensor", [
        # the forward ray runs along the obstacle's bottom edge (denom 0)
        ((0.0, 0.8, 0.0), desk_world(), SensorConfig(n_rays=4)),
        # the forward ray passes through the obstacle's corner (0.8, 0.8)
        ((0.0, 0.0, np.pi / 4), desk_world(), SensorConfig(n_rays=2)),
        ((0.5, 0.5, 0.0), World(landmarks={1: np.array([1.0, 1.0])},
                                obstacles=(), grid_resolution=0.5,
                                grid_origin=np.zeros(2), grid_width=4,
                                grid_height=4),
         SensorConfig(n_rays=12, range_sigma=0.1, bearing_sigma=0.1)),
        ((0.2, -0.3, 2.5), desk_world(),
         SensorConfig(max_range=4.0, fov=np.pi, n_rays=90, range_sigma=0.05,
                      bearing_sigma=0.02)),
        ((1.2, 1.2, -1.0), desk_world(),  # inside the obstacle
         SensorConfig(max_range=5.0, n_rays=36, range_sigma=0.3)),
    ], ids=["ray-along-edge", "ray-through-vertex", "no-obstacles",
            "half-fov-noisy", "inside-obstacle"])
    def test_frame_matches_scalar_sensor(self, pose, world, sensor):
        pose = np.asarray(pose, dtype=float)
        rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            z = observe(pose, world, sensor, rng)
            expected = observe_oracle(pose, world, sensor, oracle_rng)
            for name in FRAME_FIELDS:
                assert np.array_equal(getattr(z, name),
                                      np.asarray(expected[name])), name
        assert rng.standard_normal() == oracle_rng.standard_normal()

    @pytest.mark.parametrize("rays_per_chunk", [1, 7])
    def test_chunked_cast_matches_scalar_sensor(self, monkeypatch,
                                                rays_per_chunk):
        # the cast works through CAST_PAIRS ray-edge pairs at a time; one
        # ray per chunk, and chunks of 7 rays with a ragged last one, give
        # the scalar sensor's frame and keep the noise streams aligned
        world = desk_world()
        edges = len(world.edge_starts)
        monkeypatch.setattr(slam, "CAST_PAIRS", rays_per_chunk * edges)
        sensor = SensorConfig(max_range=4.0, n_rays=90, range_sigma=0.05,
                              bearing_sigma=0.02)
        pose = np.array([0.2, -0.3, 2.5])
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            z = observe(pose, world, sensor, rng)
            expected = observe_oracle(pose, world, sensor, oracle_rng)
            for name in FRAME_FIELDS:
                assert np.array_equal(getattr(z, name),
                                      np.asarray(expected[name])), name
        assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_frame_against_many_edges_casts_in_bounded_memory(self):
        # 10 000 rays against 2000 edges: cast at once, each (rays x edges)
        # array would take 160 MB; cast in chunks the peak stays under 32 MB
        corners = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]])
        cells = [(i, j) for i in range(-12, 13) for j in range(-10, 11)
                 if (i, j) != (0, 0)][:500]
        world = World(landmarks={}, grid_resolution=1.0,
                      obstacles=tuple(corners + 0.5 * np.array(c) for c in cells),
                      grid_origin=np.array([-8.0, -8.0]), grid_width=16,
                      grid_height=16)
        sensor = SensorConfig(max_range=10.0, n_rays=10_000)
        tracemalloc.start()
        try:
            z = observe(np.array([0.2, 0.2, 0.0]), world, sensor,
                        np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(world.edge_starts) == 2000
        assert peak < 32 * 2 ** 20
        assert 0 < np.count_nonzero(z.ray_hits) < sensor.n_rays
        assert (z.ray_distances[z.ray_hits] < sensor.max_range).all()

    def test_no_obstacles_no_hits(self):
        world = World(landmarks={}, obstacles=(), grid_resolution=0.5,
                      grid_origin=np.zeros(2), grid_width=4, grid_height=4)
        z = observe(np.zeros(3), world, SensorConfig(max_range=3.0, n_rays=7),
                    np.random.default_rng(0))
        assert not z.ray_hits.any()
        assert z.ray_distances.tolist() == [3.0] * 7


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
        assert not result.skipped
        assert np.array_equal(result.state.mean, state.mean)
        assert np.array_equal(result.state.cov, state.cov)

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


    # the forward error of a linear solve in S is bounded by cond2(S) eps;
    # the compact path and the dense oracle stay within 16 times that
    @pytest.mark.parametrize("n_landmarks", [1, 3, 12, 40])
    def test_matches_dense_oracle(self, n_landmarks):
        eps = np.finfo(float).eps
        skipped = 0
        for seed in range(10):
            for every in (False, True):
                # (0, 0) puts both variances at the 1e-12 floor
                for sigmas in ((0.05, 0.01), (0.0, 0.0)):
                    for rank in (None, 1):
                        rng = np.random.default_rng([seed, n_landmarks])
                        state, z = seeded_filter_case(rng, n_landmarks, every,
                                                      sigmas, rank)
                        before = (state.mean.copy(), state.cov.copy())
                        result = correct(state, z)
                        oracle, condition = correct_oracle(state, z)
                        assert result.skipped == (oracle is None), condition
                        if oracle is None:
                            skipped += 1
                            assert np.array_equal(result.state.mean, before[0])
                            assert np.array_equal(result.state.cov, before[1])
                            continue
                        tol = 16 * eps * condition
                        scale = np.abs(state.mean).max()
                        assert (np.abs(result.state.mean - oracle[0]).max()
                                <= tol * scale)
                        assert (np.abs(result.state.cov - oracle[1]).max()
                                <= tol * np.abs(state.cov).max())
                        assert np.array_equal(result.state.cov,
                                              result.state.cov.T)
        # a rank-1 covariance seen through every landmark at the floor
        assert skipped >= 10

    def test_compact_jacobian_scatters_to_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n_landmarks in (1, 3, 12, 40):
            for every in (False, True):
                state, z = seeded_filter_case(rng, n_landmarks, every,
                                              (0.05, 0.01))
                match = z.ids[:, None] == np.asarray(state.landmark_ids)
                slots = match.argmax(axis=1)[match.any(axis=1)]
                J, columns, predicted = slam._measurement_jacobian(state.mean,
                                                                   slots)
                H, oracle_predicted = jacobian_oracle(state.mean, slots)
                dense = np.zeros_like(H)
                dense[:, columns] = J
                assert J.shape == (2 * len(slots), 3 + 2 * len(slots))
                assert np.array_equal(dense, H)
                assert np.array_equal(predicted, oracle_predicted)

    def test_singular_innovation_skips_and_is_logged(self, tmp_path):
        # only the pose's x is uncertain and the landmark lies dead ahead,
        # so S = diag(10 + 1e-12, 1e-12) at the variance floor: cond > 1e12
        state = seeded_state_with_landmark([0.0, 0.0, 0.0], [2.0, 0.0],
                                           np.diag([10.0, 0.0, 0.0]))
        world = World(landmarks={1: np.array([2.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5, grid_origin=np.array([-1.0, -1.0]),
                      grid_width=10, grid_height=10)
        z = observe(np.array([0.1, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        result = correct(state, z)
        assert result.skipped
        assert np.array_equal(result.state.mean, state.mean)
        assert np.array_equal(result.state.cov, state.cov)
        # in a run: the landmark enters at step 0 carrying the pose's x
        # variance; at step 1 the range sees their difference, variance 10,
        # and the bearing only the floor
        log = simulate(world, [MotionInput(0.0, 0.0, 1.0)] * 2, SENSOR_EXACT,
                       process=ProcessNoise(x=10.0), seed=0)
        assert log.skipped.tolist() == [False, True]
        path = tmp_path / "run.csv"
        write_run_log(log, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["events"] for row in rows] == [
            "", "correction-skipped: innovation covariance singular"]

    def test_failed_factorization_skips(self, monkeypatch):
        state = seeded_state_with_landmark([0.1, 0.0, 0.0], [2.0, 1.0],
                                           np.diag([0.2, 0.2, 0.01]))
        z = observe(np.array([0.0, 0.0, 0.0]), single_landmark_world(),
                    SENSOR_EXACT, np.random.default_rng(0))
        assert not correct(state, z).skipped

        def cholesky(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        before = (state.mean.copy(), state.cov.copy())
        result = correct(state, z)
        assert result.skipped
        assert np.array_equal(result.state.mean, before[0])
        assert np.array_equal(result.state.cov, before[1])

    # the factor's bound accepts only below 1e11; between it and the rule's
    # 1e12, and beyond, the eigenvalues decide
    def test_skip_rule_matches_eigenvalue_rule_at_its_boundary(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(15)
        by_bound = by_eigenvalues = skipped = 0
        for m in (2, 3, 8, 30, 90, 120):
            for condition in (1e10, 0.99e12, 1.01e12, 1e14):
                for spread in ("split", "log"):
                    for rotated in (False, True):
                        S = spd_with_condition(rng, m, condition, spread,
                                               rotated)
                        L_inv = slam._inverse_factor(S)
                        accepted = eigenvalue_rule(S)
                        assert (L_inv is not None) == accepted, (
                            m, condition, spread, rotated)
                        if not accepted:
                            skipped += 1
                            continue
                        # the LU solve as oracle, within the forward error
                        # bound of inverting L
                        L = np.linalg.cholesky(S)
                        oracle = np.linalg.solve(L, np.eye(m))
                        assert (np.abs(L_inv - oracle).max()
                                <= 4 * m * eps * np.linalg.cond(L)
                                * np.abs(oracle).max())
                        bound = np.trace(S) * np.square(L_inv).sum()
                        by_bound += bound <= 1e11
                        by_eigenvalues += bound > 1e11
        # both ways of accepting and the skip are all exercised
        assert min(by_bound, by_eigenvalues, skipped) >= 10
        for S in (np.diag([1.0, -1.0]), np.diag([1.0, np.nan]),
                  np.diag([1.0, 0.0])):
            assert slam._inverse_factor(S) is None

    # sizes on both sides of the 32-row leaf limit, with no, one and two
    # levels of block recursion
    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 65, 120])
    def test_lower_inverse(self, m):
        eps = np.finfo(float).eps
        rng = np.random.default_rng([16, m])
        for condition in (1e2, 1e6, 1e11):
            for rotated in (False, True):
                S = spd_with_condition(rng, m, condition, "log", rotated)
                L = np.linalg.cholesky(S)
                L_inv = slam._lower_inverse(L)
                assert not np.triu(L_inv, 1).any()
                residual = np.abs(L_inv @ L - np.eye(m)).max()
                assert residual <= 4 * m * eps * np.linalg.cond(L)


class TestUpdateMap:
    def test_empty_observation_is_noop(self):
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        result = update_map(state, ray_frame())
        assert result.landmark_ids == ()
        assert np.array_equal(result.mean, state.mean)
        assert np.array_equal(result.grid.log_odds, state.grid.log_odds)

    def test_inverse_observation_initialization(self):
        state = initial_state([0.0, 0.0, 0.0], single_landmark_world())
        z = observe(np.array([0.0, 0.0, 0.0]),
                    World(landmarks={5: np.array([2.0, 0.0])}, obstacles=(),
                          grid_resolution=0.5,
                          grid_origin=np.array([-1.0, -1.0]),
                          grid_width=10, grid_height=10),
                    SENSOR_EXACT, np.random.default_rng(0))
        result = update_map(state, z)
        assert result.landmark_ids == (5,)
        assert np.allclose(result.mean[3:5], [2.0, 0.0], atol=1e-12)

    # each covariance entry of a joining landmark sums at most eleven
    # products of two Jacobian entries, each at most 1 + range, and a
    # covariance or noise entry
    @pytest.mark.parametrize("n_known", [0, 5, 60])
    @pytest.mark.parametrize("n_new", [1, 3, 40])
    def test_block_initialization_matches_one_at_a_time(self, n_known, n_new):
        eps = np.finfo(float).eps
        rng = np.random.default_rng([n_known, n_new])
        state, z = joining_frame(rng, n_known, n_new)
        result = update_map(state, z)
        mean, cov = grow_oracle(state, z)
        n = len(state.mean)
        assert result.landmark_ids == state.landmark_ids + tuple(
            z.ids[z.ids > n_known].tolist())
        assert result.cov.shape == (n + 2 * n_new,) * 2
        assert np.array_equal(result.mean[:n], state.mean)
        assert np.array_equal(result.cov[:n, :n], state.cov)
        reach = 1.0 + z.ranges.max()
        assert (np.abs(result.mean - mean).max()
                <= 4 * eps * reach * np.abs(state.mean).max())
        assert (np.abs(result.cov - cov).max()
                <= 16 * eps * reach ** 2 * max(np.abs(state.cov).max(),
                                               0.05 ** 2))
        assert np.array_equal(result.cov, result.cov.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_new_landmarks_match_isin(self, seed):
        # known ids are looked up in a set; np.isin on the same ids picks
        # the same new landmarks, in frame order, extreme ids included
        rng = np.random.default_rng(seed)
        pool = np.unique(np.concatenate([
            [-2 ** 63, -1, 0, 1, 2 ** 63 - 1],
            rng.integers(-2 ** 63, 2 ** 63 - 1, 30, dtype=np.int64)]))
        known = rng.choice(pool, int(rng.integers(0, 20)), replace=False)
        seen = rng.choice(pool, int(rng.integers(0, 20)), replace=False)
        n = 3 + 2 * len(known)
        state = SlamState(mean=rng.uniform(-2.0, 2.0, n), cov=np.eye(n),
                          landmark_ids=tuple(known.tolist()),
                          grid=single_landmark_world().make_grid())
        z = Observation(ids=seen, ranges=rng.uniform(0.5, 4.0, len(seen)),
                        bearings=rng.uniform(-np.pi, np.pi, len(seen)),
                        ray_angles=np.zeros(0), ray_distances=np.zeros(0),
                        ray_hits=np.zeros(0, dtype=bool), range_sigma=0.05,
                        bearing_sigma=0.01)
        fresh = ~np.isin(z.ids, state.landmark_ids)
        result = update_map(state, z)
        assert result.landmark_ids == state.landmark_ids + tuple(
            z.ids[fresh].tolist())
        assert len(result.mean) == n + 2 * np.count_nonzero(fresh)

    def test_log_odds_stay_bounded(self):
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=4, grid_height=4)
        state = initial_state([0.5, 1.5, 0.0], world)
        # from cell (1, 0): a hit in cell (1, 1), then a ray through it
        frame = ray_frame([0.0, 0.0], [1.0, 2.0], [True, False])
        for _ in range(1000):
            state = update_map(state, frame)
        assert np.abs(state.grid.log_odds).max() <= LOG_ODDS_LIMIT
        assert state.grid.log_odds[1, 1] == LOG_ODDS_LIMIT + LOG_ODDS_FREE
        p = state.grid.probabilities()[1, 1]
        assert 0.0 < p < 1.0

    def test_walk_matches_bresenham(self):
        rng = np.random.default_rng(5)
        octants = set()
        for start in rng.integers(-30, 30, (6, 2)):
            deltas = rng.integers(-40, 41, (150, 2))
            deltas[:10] = 0                          # zero-length lines
            deltas[10:20, 1] = deltas[10:20, 0]      # diagonals, |dr| = |dc|
            deltas[20:30, 0] = 0                     # along a row
            octants |= {(dr > 0, dc > 0, abs(dr) > abs(dc))
                        for dr, dc in deltas if dr and dc and abs(dr) != abs(dc)}
            ends = start + deltas
            rows, cols, length = _walk(start, ends)
            for i, end in enumerate(ends.tolist()):
                walked = list(zip(rows[i, :length[i]].tolist(),
                                  cols[i, :length[i]].tolist()))
                assert walked == bresenham(tuple(start.tolist()), tuple(end))
        assert len(octants) == 8

    @pytest.mark.parametrize("seed", [0, 3])
    def test_seeded_runs_match_per_cell_stamping(self, seed):
        world = desk_world()
        sensor = SensorConfig(max_range=5.0, n_rays=120, range_sigma=0.05,
                              bearing_sigma=0.01)
        rng = np.random.default_rng(seed)
        truth = np.array([0.0, 0.0, 0.0])
        state = initial_state(truth, world)
        expected = copy.deepcopy(state.grid)
        for u in loop_script()[:120:4]:
            truth = unicycle(truth, MotionInput(u.velocity * 4, u.angular_velocity * 4,
                                                u.dt))
            # the map is drawn from an estimate off the true pose, at times
            # off the grid altogether
            offset = rng.normal(0.0, 0.4, 3) * (1 if rng.random() < 0.8 else 10)
            state.mean[:3] = truth + offset
            z = observe(truth, world, sensor, rng)
            stamp_oracle(expected, state.mean[:2], z)
            state = update_map(state, z)
            assert np.array_equal(state.grid.log_odds, expected.log_odds)
        assert (np.abs(expected.log_odds) == LOG_ODDS_LIMIT).any()

    def test_saturated_cell_stamped_free_and_occupied(self):
        # clipping is per stamp in ray order: a cell at +10 hit and then
        # crossed ends at 9.6, a cell at -10 crossed and then hit at -9.15
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=8, grid_height=8)
        state = initial_state([0.5, 0.5, 0.0], world)
        state.grid.log_odds[0, 3] = LOG_ODDS_LIMIT
        state.grid.log_odds[0, 1] = -LOG_ODDS_LIMIT
        frame = ray_frame([0.0, 0.0, 0.0], [3.0, 5.0, 1.0], [True, False, True])
        expected = copy.deepcopy(state.grid)
        stamp_oracle(expected, state.mean[:2], frame)
        result = update_map(state, frame).grid.log_odds
        assert np.array_equal(result, expected.log_odds)
        assert result[0, 3] == LOG_ODDS_LIMIT + LOG_ODDS_FREE
        assert result[0, 1] == -LOG_ODDS_LIMIT + LOG_ODDS_OCCUPIED

    def test_desk_run_in_small_chunks_matches_per_cell_stamping(self, monkeypatch):
        # a few rays a chunk: the robot's own cell, crossed by every ray,
        # gets stamps in every chunk of a frame
        monkeypatch.setattr(slam, "WALK_CELLS", 256)
        walked = []
        walk = slam._walk
        monkeypatch.setattr(slam, "_walk",
                            lambda *args: walked.append(1) or walk(*args))
        world = desk_world()
        sensor = SensorConfig(max_range=5.0, n_rays=360, range_sigma=0.05,
                              bearing_sigma=0.01)
        rng = np.random.default_rng(1)
        truth = np.array([0.0, 0.0, 0.0])
        state = initial_state(truth, world)
        expected = copy.deepcopy(state.grid)
        frames = loop_script()[:160:10]
        for u in frames:
            truth = unicycle(truth, MotionInput(u.velocity * 10,
                                                u.angular_velocity * 10, u.dt))
            state.mean[:3] = truth + rng.normal(0.0, 0.05, 3)
            z = observe(truth, world, sensor, rng)
            stamp_oracle(expected, state.mean[:2], z)
            state = update_map(state, z)
            assert np.array_equal(state.grid.log_odds, expected.log_odds)
        assert len(walked) > 10 * len(frames)
        assert (expected.log_odds == -LOG_ODDS_LIMIT).any()
        assert (expected.log_odds > 0).any()

    @pytest.mark.parametrize("start", [LOG_ODDS_LIMIT, -LOG_ODDS_LIMIT])
    def test_hit_cell_crossed_before_and_after_its_hit(self, start):
        # cell (0, 3) is crossed, hit, then crossed twice, all in one chunk
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=8, grid_height=8)
        state = initial_state([0.5, 0.5, 0.0], world)
        state.grid.log_odds[0, 3] = start
        frame = ray_frame(np.zeros(4), [5.0, 3.0, 5.0, 5.0],
                          [False, True, False, False])
        result = stamped_as_oracle(state, frame)
        if start > 0:
            assert result[0, 3] == LOG_ODDS_LIMIT + LOG_ODDS_FREE + LOG_ODDS_FREE
        else:
            assert result[0, 3] == (-LOG_ODDS_LIMIT + LOG_ODDS_OCCUPIED
                                    + LOG_ODDS_FREE + LOG_ODDS_FREE)

    @pytest.mark.parametrize("start", [LOG_ODDS_LIMIT, -LOG_ODDS_LIMIT])
    def test_hit_in_the_robots_own_cell(self, start):
        # every ray crosses cell (4, 4) first; rays 0 and 8 end in it
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=9, grid_height=9)
        state = initial_state([4.5, 4.5, 0.0], world)
        state.grid.log_odds[4, 4] = start
        hits = np.arange(16) % 8 == 0
        frame = ray_frame(np.linspace(-np.pi, np.pi, 16, endpoint=False),
                          np.where(hits, 0.1, 3.0), hits)
        result = stamped_as_oracle(state, frame)
        value = start
        for inc in ([LOG_ODDS_OCCUPIED] + [LOG_ODDS_FREE] * 7) * 2:
            value = min(max(value + inc, -LOG_ODDS_LIMIT), LOG_ODDS_LIMIT)
        assert result[4, 4] == value

    def test_free_cell_passes_the_limit_within_a_frame(self):
        # four rays cross row 0; cells that fall below -LIMIT after their
        # first, second, third or fourth stamp end at -LIMIT
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=8, grid_height=8)
        state = initial_state([0.5, 0.5, 0.0], world)
        state.grid.log_odds[0, :5] = [-8.7, -9.3, -9.9, -8.9, -7.7]
        frame = ray_frame(np.zeros(4), np.full(4, 4.0), np.zeros(4, dtype=bool))
        result = stamped_as_oracle(state, frame)
        assert (result[0, :4] == -LOG_ODDS_LIMIT).all()
        assert result[0, 4] > -LOG_ODDS_LIMIT

    def test_add_at_adds_in_index_order(self):
        # update_map's free cells rely on np.add.at adding repeated indices
        # one at a time, in index order, as a Python loop does
        rng = np.random.default_rng(11)
        start = rng.normal(0.0, 3.0, 50)
        index = rng.integers(0, 50, 5000)
        increment = rng.normal(0.0, 0.7, 5000)
        expected = start.copy()
        for i, inc in zip(index.tolist(), increment.tolist()):
            expected[i] += inc
        result = start.copy()
        np.add.at(result, index, increment)
        assert np.array_equal(result, expected)
        # the other order gives other bits, so a reordering would show
        reordered = start.copy()
        np.add.at(reordered, index[::-1], increment[::-1])
        assert not np.array_equal(reordered, expected)

    def test_pose_far_off_the_grid_stamps_nothing(self):
        state = initial_state([0.0, 0.0, 0.0], desk_world())
        frame = ray_frame(np.linspace(-np.pi, np.pi, 16, endpoint=False),
                          np.full(16, 5.0), np.arange(16) % 2 == 0)
        for x in (1e20, -1e150, 1e300, np.inf, np.nan):
            state.mean[0] = x
            result = update_map(state, frame)
            assert not result.grid.log_odds.any()

    @staticmethod
    def walked_cell_types(monkeypatch):
        """The integer type of each chunk update_map walks."""
        types = []
        walk = slam._walk
        monkeypatch.setattr(slam, "_walk", lambda start, ends: types.append(
            ends.dtype) or walk(start, ends))
        return types

    def test_frame_beyond_32_bits_walks_in_64(self, monkeypatch):
        # a thin grid, the robot 40 000 rows below it: each near-diagonal
        # ray crosses the grid 40 000 cells out, where its 2 i minor passes
        # 2^31 and 32-bit cells would wrap
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=45_000,
                      grid_height=3)
        state = initial_state([0.5, -39_998.5, 0.0], world)
        types = self.walked_cell_types(monkeypatch)
        # rays to [x, y] points in, beside and beyond the grid
        reach = np.array([[40_000.5, 1.5], [40_003.5, 2.5], [39_998.5, 0.5],
                          [40_012.5, 6.5]]) - state.mean[:2]
        frame = ray_frame(np.arctan2(reach[:, 1], reach[:, 0]),
                          np.hypot(reach[:, 0], reach[:, 1]),
                          [False, True, True, False])
        result = stamped_as_oracle(state, frame)
        assert set(types) == {np.dtype(np.int64)}
        assert (result < 0).sum() >= 6 and (result > 0).sum() == 2

    def test_frame_at_the_caps_walks_in_32_bits(self, monkeypatch):
        # the CLI's largest grid and longest rays, the robot at the far end
        # of a two-row grid so the flat cells reach their largest
        width = cli.MAX_GRID_CELLS // 2
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.zeros(2), grid_width=width,
                      grid_height=2)
        state = initial_state([width - 0.5, 1.5, 0.0], world)
        types = self.walked_cell_types(monkeypatch)
        angles = np.linspace(-np.pi, np.pi, 24, endpoint=False)
        frame = ray_frame(angles, np.full(24, cli.MAX_RAY_CELLS - 0.5),
                          np.arange(24) % 3 == 0)
        result = stamped_as_oracle(state, frame)
        assert set(types) == {np.dtype(np.int32)}
        assert (result[1] < 0).sum() >= cli.MAX_RAY_CELLS - 1

    def test_frame_at_the_caps_walks_in_bounded_memory(self):
        # 10 000 rays of 4096 cells: walked at once they would take
        # gigabytes; walked in chunks the peak stays under 32 MB
        world = World(landmarks={}, obstacles=(), grid_resolution=1.0,
                      grid_origin=np.array([-32.0, -32.0]), grid_width=64,
                      grid_height=64)
        state = initial_state([0.0, 0.0, 0.0], world)
        angles = np.linspace(-np.pi, np.pi, 10_000, endpoint=False)
        frame = ray_frame(angles, np.full(10_000, 4095.5),
                          np.zeros(10_000, dtype=bool))
        tracemalloc.start()
        try:
            result = update_map(state, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert (result.grid.log_odds == -LOG_ODDS_LIMIT).all()


class TestStateUntouched:
    """No step function writes to its input's arrays or grid."""

    @staticmethod
    def mapped_state(max_range, n_rays):
        """A desk-world state mapped from one frame at the origin."""
        world = desk_world()
        state = initial_state([0.1, 0.2, 0.3], world)
        state.cov[:] = np.diag([0.1, 0.1, 0.02])
        sensor = SensorConfig(max_range=max_range, n_rays=n_rays,
                              range_sigma=0.05, bearing_sigma=0.01)
        rng = np.random.default_rng(4)
        state = update_map(state, observe(np.zeros(3), world, sensor, rng))
        return state, world, rng

    @staticmethod
    def snapshot(state):
        return (state.mean.copy(), state.cov.copy(), state.landmark_ids,
                state.grid.log_odds.copy())

    @staticmethod
    def assert_unchanged(state, before):
        assert np.array_equal(state.mean, before[0])
        assert np.array_equal(state.cov, before[1])
        assert state.landmark_ids == before[2]
        assert np.array_equal(state.grid.log_odds, before[3])

    def test_predict_correct_update_map_leave_input_unchanged(self):
        state, world, rng = self.mapped_state(5.0, 36)
        sensor = SensorConfig(max_range=5.0, n_rays=36, range_sigma=0.05,
                              bearing_sigma=0.01)
        z = observe(np.array([0.05, 0.0, 0.0]), world, sensor, rng)
        before = self.snapshot(state)
        outputs = [predict(state, MotionInput(0.2, 0.1, 0.5),
                           ProcessNoise(0.01, 0.01, 0.01)),
                   correct(state, z).state, update_map(state, z)]
        self.assert_unchanged(state, before)
        # only update_map writes to the grid; the other two share it
        assert outputs[0].grid is state.grid and outputs[1].grid is state.grid
        assert outputs[2].grid is not state.grid
        assert not np.array_equal(outputs[2].grid.log_odds, before[3])

    def test_rayless_frame_of_known_landmarks_shares_the_state(self):
        state, world, rng = self.mapped_state(5.0, 0)
        z = observe(np.array([0.05, 0.0, 0.0]), world,
                    SensorConfig(max_range=5.0, n_rays=0), rng)
        assert len(z.ids) and np.isin(z.ids, state.landmark_ids).all()
        before = self.snapshot(state)
        result = update_map(state, z)
        self.assert_unchanged(state, before)
        assert result.landmark_ids == state.landmark_ids
        assert result.mean is state.mean and result.cov is state.cov
        assert result.grid is state.grid

    def test_frame_adding_a_landmark_leaves_input_unchanged(self):
        state, world, rng = self.mapped_state(2.0, 0)
        z = observe(np.array([0.05, 0.0, 0.0]), world,
                    SensorConfig(max_range=5.0, n_rays=0), rng)
        fresh = ~np.isin(z.ids, state.landmark_ids)
        assert fresh.any() and not fresh.all()
        before = self.snapshot(state)
        result = update_map(state, z)
        self.assert_unchanged(state, before)
        n = len(state.mean)
        assert len(result.mean) == n + 2 * np.count_nonzero(fresh)
        assert np.array_equal(result.mean[:n], before[0])
        assert np.array_equal(result.cov[:n, :n], before[1])
        assert result.grid is state.grid

    def test_skipped_correction_leaves_input_unchanged(self):
        # the singular innovation of test_singular_innovation_skips_and_is_logged
        state = seeded_state_with_landmark([0.0, 0.0, 0.0], [2.0, 0.0],
                                           np.diag([10.0, 0.0, 0.0]))
        world = World(landmarks={1: np.array([2.0, 0.0])}, obstacles=(),
                      grid_resolution=0.5, grid_origin=np.array([-1.0, -1.0]),
                      grid_width=10, grid_height=10)
        z = observe(np.array([0.1, 0.0, 0.0]), world, SENSOR_EXACT,
                    np.random.default_rng(0))
        before = self.snapshot(state)
        result = correct(state, z)
        assert result.skipped
        self.assert_unchanged(state, before)
        self.assert_unchanged(result.state, before)


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

    @pytest.mark.parametrize("shape", [(17, 23), (23, 17), (1, 9), (12, 12)])
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    def test_same_path_as_oracle_on_random_grids(self, shape, threshold):
        # the same cells, tie-breaks included, or the same exception, with
        # start and goal on every corner and side of non-square grids
        height, width = shape
        rng = np.random.default_rng([height, width, int(threshold * 10)])
        paths = 0
        for density in (0.2, 0.35, 0.6):
            for _ in range(3):
                grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2),
                                     width=width, height=height)
                # most cells free, the rest spread over every probability
                grid.log_odds = np.where(rng.random(shape) < density,
                                         rng.uniform(-3.0, 3.0, shape), -5.0)
                ends = (border_cells(height, width, rng) if min(shape) > 2
                        else [(0, 0), (0, width - 1), (0, width // 2)])
                for start in ends:
                    goal = ends[int(rng.integers(len(ends)))]
                    expected = plan_outcome(plan_path_oracle, grid, start,
                                            goal, threshold)
                    assert plan_outcome(plan_path, grid, start, goal,
                                        threshold) == expected
                    paths += isinstance(expected, list) and len(expected) > 1
        # any blocked cell cuts a one-row grid
        assert paths >= (2 if height == 1 else 20)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    def test_special_cases_match_oracle(self, threshold):
        grid = OccupancyGrid(resolution=1.0, origin=np.zeros(2), width=23,
                             height=17)
        grid.log_odds[:] = -5.0
        grid.log_odds[:, 11] = 10.0          # a full wall
        grid.log_odds[4, 3] = 10.0           # a blocked cell
        cases = [((2, 2), (2, 2)),           # start == goal
                 ((16, 22), (16, 22)),
                 ((0, 0), (16, 22)),         # behind the wall
                 ((4, 3), (9, 5)),           # blocked start
                 ((9, 5), (4, 3)),           # blocked goal
                 ((0, 0), (16, 10)),
                 ((16, 0), (0, 10)),
                 ((0, 0), (17, 0)),          # goal outside the grid
                 ((-1, 3), (2, 2))]          # start outside the grid
        outcomes = [plan_outcome(plan_path, grid, start, goal, threshold)
                    for start, goal in cases]
        assert outcomes == [plan_outcome(plan_path_oracle, grid, start, goal,
                                         threshold) for start, goal in cases]
        assert outcomes[0] == [(2, 2)]
        assert outcomes[2] == (NoPathError, "goal is unreachable")
        assert outcomes[3] == outcomes[4] == (
            NoPathError, "start or goal cell is occupied")
        assert outcomes[7][0] is outcomes[8][0] is ValueError

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

    def test_covariance_stays_psd(self, monkeypatch):
        # every state a step ends in is the one update_map returns
        minima = []

        def spy(state, z):
            state = update_map(state, z)
            minima.append(np.linalg.eigvalsh(state.cov).min())
            return state

        monkeypatch.setattr(slam, "update_map", spy)
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=0)
        log = simulate(desk_world(), loop_script(), sensor,
                       odometry=OdometryNoise(0.05, 0.03),
                       process=ProcessNoise(0.001, 0.001, 0.0005), seed=5)
        assert len(minima) == len(log.cov_trace)
        assert min(minima) >= -1e-12

    def test_rayless_run_takes_no_eigenvalues_and_copies_no_grid(
            self, monkeypatch):
        # counts, not times: the skip rule reads the Cholesky factor and
        # takes eigenvalues only when its bound is inconclusive, and a
        # frame without rays leaves the grid to be shared
        rng = np.random.default_rng(40)
        world = World(landmarks={i + 1: rng.uniform(-1.5, 3.5, 2)
                                 for i in range(40)}, obstacles=(),
                      grid_resolution=0.1, grid_origin=np.array([-2.0, -2.0]),
                      grid_width=60, grid_height=60)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        shared = []

        def spy(state, z):
            result = update_map(state, z)
            shared.append(result.grid is state.grid)
            return result

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(slam, "update_map", spy)
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=0)
        log = simulate(world, loop_script()[:30], sensor,
                       odometry=OdometryNoise(0.05, 0.03),
                       process=ProcessNoise(0.001, 0.001, 0.0005), seed=3)
        assert log.n_measurements.min() >= 20 and not log.skipped.any()
        assert len(calls) <= 2
        assert shared == [True] * 30

    def test_heading_always_wrapped(self):
        log = simulate(desk_world(), loop_script(),
                       SensorConfig(max_range=5.0, n_rays=8), seed=2)
        for poses in (log.truth, log.dead_reckoning, log.slam):
            assert np.all((-np.pi < poses[:, 2]) & (poses[:, 2] <= np.pi))

    def test_same_seed_identical_logs(self):
        sensor = SensorConfig(max_range=5.0, range_sigma=0.05,
                              bearing_sigma=0.01, n_rays=4)
        args = dict(odometry=OdometryNoise(0.05, 0.03),
                    process=ProcessNoise(0.001, 0.001, 0.0005), seed=7)
        a = simulate(desk_world(), loop_script(), sensor, **args)
        b = simulate(desk_world(), loop_script(), sensor, **args)
        assert np.array_equal(a.slam, b.slam)
        assert np.array_equal(a.dead_reckoning, b.dead_reckoning)
        assert np.array_equal(a.cov_trace, b.cov_trace)

    def test_state_not_finite_raises(self):
        script = [MotionInput(0.2, 0.0, 0.1)] * 3
        with pytest.raises(FilterDivergedError) as err:
            simulate(desk_world(), script, SensorConfig(),
                     odometry=OdometryNoise(velocity_sigma=1e300))
        assert err.value.step == 1

    def test_grid_gets_painted(self):
        log = simulate(desk_world(), loop_script(),
                       SensorConfig(max_range=5.0, n_rays=36), seed=0)
        probs = log.final_state.grid.probabilities()
        assert (probs > 0.5).sum() > 0
        assert (probs < 0.4).sum() > 100


WORLD_DOC = {"landmarks": [{"id": 3, "x": 1.0, "y": 2.0},
                           {"id": 1, "x": -1, "y": 0.5}],
             "obstacles": [[[0.8, 0.8], [1.6, 0.8], [1.6, 1.6], [0.8, 1.6]]],
             "grid": {"resolution": 0.1, "origin": [-2.0, -2.0], "width": 60,
                      "height": 60}}


class TestWorldIO:
    """World documents, read by the config reader `cli._world`."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(WORLD_DOC))
        loaded = cli._world(str(path))
        assert list(loaded.landmarks) == [3, 1]
        assert loaded.landmarks[1].tolist() == [-1.0, 0.5]
        assert [poly.tolist() for poly in loaded.obstacles] \
            == WORLD_DOC["obstacles"]
        assert (loaded.grid_resolution, loaded.grid_origin.tolist(),
                loaded.grid_width, loaded.grid_height) \
            == (0.1, [-2.0, -2.0], 60, 60)

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli._world(dict(WORLD_DOC, lidar_model="fancy"))

    def test_bad_polygon_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli._world(dict(WORLD_DOC, obstacles=[[[0.0, 0.0], [1.0, 1.0]]]))

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
        with pytest.raises(cli.ConfigError):
            cli._world(dict(WORLD_DOC, grid=grid))

    def test_nan_landmark_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli._world(dict(WORLD_DOC, landmarks=[
                {"id": 1, "x": float("nan"), "y": 0.0}]))

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text('{"grid": ')
        with pytest.raises(cli.ConfigError):
            cli._world(str(path))

    @pytest.mark.parametrize("grid", [
        {"grid_resolution": 0.0}, {"grid_width": 0}, {"grid_height": 0},
        {"grid_origin": np.zeros(3)}], ids=["resolution", "width", "height",
                                            "origin"])
    def test_world_checks_its_grid(self, grid):
        with pytest.raises(ValueError):
            replace(desk_world(), **grid)

    def test_writers_produce_files(self, tmp_path):
        log = simulate(desk_world(), loop_script()[:40],
                       SensorConfig(max_range=5.0, n_rays=12), seed=0)
        write_run_log(log, tmp_path / "run.csv", header_comment="config abc")
        write_grid_pgm(log.final_state.grid, tmp_path / "grid.pgm")
        text = (tmp_path / "run.csv").read_text().splitlines()
        assert text[0] == "# config abc"
        assert len(text) == 2 + 40
        assert log.truth.shape == log.slam.shape == (40, 3)
        pgm = (tmp_path / "grid.pgm").read_text().splitlines()
        assert pgm[0] == "P2"

    def test_run_log_rows_read_back_to_the_log(self, tmp_path):
        log = simulate(desk_world(), loop_script()[:30],
                       SensorConfig(max_range=5.0, n_rays=12, range_sigma=0.05,
                                    bearing_sigma=0.01),
                       odometry=OdometryNoise(0.05, 0.03),
                       process=ProcessNoise(0.001, 0.001, 0.0005), seed=3)
        write_run_log(log, tmp_path / "run.csv")
        with open(tmp_path / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 30
        expected = np.column_stack([log.truth, log.dead_reckoning, log.slam,
                                    log.cov_trace])
        for step, row in enumerate(rows[1:]):
            assert row[0] == str(step)
            # 9 significant digits: a relative error of at most 5e-9
            assert np.allclose(np.array(row[1:11], dtype=float),
                               expected[step], rtol=5e-9, atol=0.0)
            assert int(row[11]) == log.n_measurements[step]
            assert row[12] == ("correction-skipped: innovation covariance "
                               "singular" if log.skipped[step] else "")


def str_loop_pgm(grid, path, comment=None):
    """The per-cell str loop that wrote the PGM, kept as a byte oracle for
    write_grid_pgm."""
    values = np.round((1.0 - grid.probabilities()) * 255.0).astype(int)
    with open(path, "w") as fh:
        fh.write("P2\n")
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"{grid.width} {grid.height}\n255\n")
        for row in values[::-1]:
            fh.write(" ".join(str(v) for v in row) + "\n")


def extreme_grid():
    """A 3 x 5 grid whose log-odds include the clip limits, 0 and both
    infinities, with no row equal to its mirror image."""
    log_odds = np.array([
        [LOG_ODDS_LIMIT, -LOG_ODDS_LIMIT, 0.0, np.inf, -np.inf],
        [LOG_ODDS_OCCUPIED, LOG_ODDS_FREE, 1e-3, -7.5, 0.0],
        [-np.inf, np.inf, 2.0 * LOG_ODDS_FREE, 3.25, -LOG_ODDS_LIMIT],
    ])
    return OccupancyGrid(resolution=0.1, origin=np.zeros(2), width=5,
                         height=3, log_odds=log_odds)


class TestGridPgm:
    @pytest.mark.parametrize("comment", [None, "config abc"])
    @pytest.mark.parametrize("case", ["desk-run", "extreme-values"])
    def test_bytes_match_str_loop(self, tmp_path, case, comment):
        if case == "desk-run":
            grid = simulate(desk_world(), loop_script()[:12],
                            SensorConfig(max_range=5.0, n_rays=90),
                            seed=2).final_state.grid
            assert len(np.unique(grid.log_odds)) > 3
        else:
            grid = extreme_grid()
        write_grid_pgm(grid, tmp_path / "new.pgm", comment=comment)
        str_loop_pgm(grid, tmp_path / "old.pgm", comment=comment)
        assert (tmp_path / "new.pgm").read_bytes() == \
            (tmp_path / "old.pgm").read_bytes()

    def test_extreme_values_span_the_range(self, tmp_path):
        write_grid_pgm(extreme_grid(), tmp_path / "grid.pgm")
        lines = (tmp_path / "grid.pgm").read_text().splitlines()
        assert lines[:3] == ["P2", "5 3", "255"]
        values = [[int(v) for v in line.split()] for line in lines[3:]]
        assert values[0] == [255, 0, 176, 10, 255]   # the grid's last row
        assert values[2] == [0, 255, 128, 0, 255]

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (15,)])
    def test_log_odds_of_another_shape_refused(self, tmp_path, shape):
        # the header would say 5 x 3 over rows of another shape
        path = tmp_path / "grid.pgm"
        with pytest.raises(ValueError, match="shape"):
            write_grid_pgm(OccupancyGrid(0.1, np.zeros(2), 5, 3,
                                         log_odds=np.zeros(shape)), path)
        assert not path.exists()
        grid = OccupancyGrid(0.1, np.zeros(2), 5, 3, log_odds=np.zeros((3, 5)))
        assert grid.log_odds.shape == (3, 5)

    def test_nan_log_odds_refused(self, tmp_path):
        grid = OccupancyGrid(resolution=0.1, origin=np.zeros(2), width=3,
                             height=2)
        grid.log_odds[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            write_grid_pgm(grid, tmp_path / "grid.pgm")
        assert not (tmp_path / "grid.pgm").exists()


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
