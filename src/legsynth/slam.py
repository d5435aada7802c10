"""Desk-scale 2-D EKF-SLAM simulation with occupancy mapping and planning.

The simulation loop mirrors the classic recursion: predict the pose from
odometry through a unicycle motion model, observe range and bearing to
visible landmarks plus a ray-cast point cloud against obstacle polygons,
correct pose and landmark estimates with an extended Kalman update, and
fold the observation into the map: a frame's new landmarks by inverse
observation, in one block, and occupancy-grid cells along each ray by
log-odds (free along the ray, occupied at the hit), walked as Bresenham
lines in 32-bit cells whenever a frame fits them.  Grid path planning is
8-connected A* over a padded table of open cells.

A World builds what a sensor frame reads once, as read-only arrays: its
landmark ids in increasing order with their positions, and its obstacle
edges.  Its landmark mapping is read-only, so the arrays cannot go stale,
and no step rebuilds them.

The correction assumes known data association and updates the
covariance in Cholesky form, P - W W^T with W = P H^T L^-T for the
Cholesky factor L of the innovation covariance: about n^2 m + 4 n m^2
flops for n state entries and m <= n measurement rows, and an exactly
symmetric result.

One seeded generator drives every stochastic draw of a run, so runs are
reproducible bit-for-bit; independent seeds give independent runs.
Headings are always wrapped to (-pi, pi].
"""

import heapq
import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .geometry import wrap_pi

LOG_ODDS_OCCUPIED = 0.85
LOG_ODDS_FREE = -0.4
LOG_ODDS_LIMIT = 10.0

# Floor on measurement variance; keeps the innovation covariance
# invertible in noise-free runs once the filter has converged.
MEASUREMENT_VARIANCE_FLOOR = 1e-12

# Grid cells update_map walks at once (rays x cells per ray), so a frame
# of many long rays keeps its temporary arrays to a few megabytes.
WALK_CELLS = 2 ** 16

# Ray-edge pairs observe intersects at once, so a frame against a world of
# many obstacle edges keeps its temporary arrays to a few megabytes.
CAST_PAIRS = 2 ** 16


class NoPathError(RuntimeError):
    """The goal cell cannot be reached on the current grid."""


class FilterDivergedError(ArithmeticError):
    """The pose estimate, its covariance or dead reckoning is not finite."""

    def __init__(self, step):
        super().__init__(f"the filter state is not finite after step {step}")
        self.step = step


@dataclass(frozen=True)
class MotionInput:
    """One odometry/control sample: forward and angular velocity over dt."""

    velocity: float
    angular_velocity: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class SensorConfig:
    """Range-bearing and ray sensor model."""

    max_range: float = 5.0
    fov: float = 2.0 * np.pi
    n_rays: int = 72
    range_sigma: float = 0.0
    bearing_sigma: float = 0.0

    def __post_init__(self):
        if self.max_range <= 0 or self.n_rays < 0:
            raise ValueError("max_range must be positive, n_rays non-negative")
        if not 0 < self.fov <= 2.0 * np.pi:
            raise ValueError("fov must lie in (0, 2 pi]")
        if self.range_sigma < 0 or self.bearing_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")


@dataclass(frozen=True)
class ProcessNoise:
    """Additive pose-space process noise rates (variance per unit time)."""

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0

    def __post_init__(self):
        if min(self.x, self.y, self.heading) < 0:
            raise ValueError("process noise rates must be non-negative")

    def matrix(self, dt):
        return np.diag([self.x, self.y, self.heading]) * dt


@dataclass(frozen=True)
class OdometryNoise:
    """Gaussian noise on the velocity commands as seen by odometry."""

    velocity_sigma: float = 0.0
    angular_sigma: float = 0.0

    def __post_init__(self):
        if self.velocity_sigma < 0 or self.angular_sigma < 0:
            raise ValueError("odometry noise sigmas must be non-negative")


@dataclass
class OccupancyGrid:
    """Log-odds occupancy grid over a rectangle of the plane."""

    resolution: float
    origin: np.ndarray
    width: int
    height: int
    log_odds: np.ndarray = None

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if self.log_odds is None:
            self.log_odds = np.zeros((self.height, self.width))
        if np.shape(self.log_odds) != (self.height, self.width):
            raise ValueError("log_odds must have shape (height, width)")

    def probabilities(self):
        return 1.0 - 1.0 / (1.0 + np.exp(self.log_odds))

    def cell_of(self, points):
        """Float (row, col) cells of (..., 2) points; no point overflows."""
        offset = np.asarray(points, dtype=float) - self.origin
        return np.floor(offset / self.resolution)[..., ::-1]

    def contains(self, cell):
        row, col = cell
        return (0 <= row) & (row < self.height) & (0 <= col) & (col < self.width)

    def blocked(self, threshold):
        """The cells a planner at this occupancy threshold may not enter."""
        return self.probabilities() > threshold


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class World:
    """Landmarks, obstacle polygons, and the grid frame of one scenario.

    The grid needs a positive resolution, a width and height of at least
    one cell and an [x, y] origin.  A World builds the arrays a sensor
    frame reads once, read-only: `landmark_ids`, the landmark ids in
    increasing order, with their (k, 2) `landmark_points`, and the
    obstacle edges as (S, 2) `edge_starts` and `edge_vectors`.  Its
    `landmarks` is a read-only mapping over a copy of the given one, in
    the given order, and its [x, y] points, obstacles and `grid_origin`
    are read-only float copies, so the arrays cannot go stale.  Each grid
    that `make_grid` makes gets an origin of its own.
    """

    landmarks: dict
    obstacles: tuple
    grid_resolution: float
    grid_origin: np.ndarray
    grid_width: int
    grid_height: int

    def __post_init__(self):
        if not (self.grid_resolution > 0 and self.grid_width >= 1
                and self.grid_height >= 1
                and np.shape(self.grid_origin) == (2,)):
            raise ValueError("the grid needs resolution > 0, width and "
                             "height >= 1 and an [x, y] origin")
        ids = np.fromiter(self.landmarks, dtype=np.int64,
                          count=len(self.landmarks))
        points = _read_only(np.array(list(self.landmarks.values()),
                                     dtype=float).reshape(-1, 2))
        if len(points) != len(ids):
            raise ValueError("each landmark is one [x, y] point")
        polys = tuple(_read_only(np.array(poly, dtype=float))
                      for poly in self.obstacles)
        starts = np.concatenate([np.empty((0, 2)), *polys])
        ends = np.concatenate([np.empty((0, 2)),
                               *(np.roll(poly, -1, axis=0) for poly in polys)])
        order = np.argsort(ids)
        built = dict(
            grid_origin=_read_only(np.array(self.grid_origin, dtype=float)),
            landmarks=MappingProxyType(dict(zip(self.landmarks, points))),
            obstacles=polys, landmark_ids=_read_only(ids[order]),
            landmark_points=_read_only(points[order]),
            edge_starts=_read_only(starts),
            edge_vectors=_read_only(ends - starts))
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def make_grid(self):
        return OccupancyGrid(resolution=self.grid_resolution,
                             origin=self.grid_origin.copy(),
                             width=self.grid_width, height=self.grid_height)


@dataclass(frozen=True)
class Observation:
    """One sensor frame: ids, ranges and bearings of the visible landmarks
    in id order, and the angle, distance and hit flag of each ray."""

    ids: np.ndarray
    ranges: np.ndarray
    bearings: np.ndarray
    ray_angles: np.ndarray
    ray_distances: np.ndarray
    ray_hits: np.ndarray
    range_sigma: float
    bearing_sigma: float


@dataclass
class SlamState:
    """Joint Gaussian over robot pose and landmark positions plus the grid.

    mean = [x, y, heading, l1x, l1y, ...]; landmark_ids gives the block
    order; cov is the full joint covariance.  No step function writes to
    the arrays or the grid of the state it is given, so the state it
    returns may share them with its input.
    """

    mean: np.ndarray
    cov: np.ndarray
    landmark_ids: tuple
    grid: OccupancyGrid


def initial_state(pose, world):
    """The robot at a known pose: zero covariance, no landmarks, and the
    world's empty grid."""
    return SlamState(mean=np.array(pose, dtype=float), cov=np.zeros((3, 3)),
                     landmark_ids=(), grid=world.make_grid())


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of one Kalman correction; `skipped` if S was singular."""

    state: SlamState
    skipped: bool = False


def unicycle(pose, u):
    """First-order unicycle step; heading wrapped to (-pi, pi]."""
    x, y, heading = pose
    x += u.velocity * np.cos(heading) * u.dt
    y += u.velocity * np.sin(heading) * u.dt
    heading = wrap_pi(heading + u.angular_velocity * u.dt)
    return np.array([x, y, heading])


def predict(state, u, noise=None):
    """Propagate the pose block through the motion model.

    Covariance is pushed through the motion Jacobian and inflated by the
    process noise; landmark blocks are untouched except through their
    cross-covariance with the pose.
    """
    heading = state.mean[2]
    mean = state.mean.copy()
    mean[:3] = unicycle(state.mean[:3], u)
    F = np.array([
        [1.0, 0.0, -u.velocity * np.sin(heading) * u.dt],
        [0.0, 1.0, u.velocity * np.cos(heading) * u.dt],
        [0.0, 0.0, 1.0],
    ])
    P = state.cov.copy()
    P[:3, :3] = F @ P[:3, :3] @ F.T
    P[:3, 3:] = F @ P[:3, 3:]
    P[3:, :3] = P[:3, 3:].T
    if noise is not None:
        P[:3, :3] += noise.matrix(u.dt)
    # the rest of P is exactly symmetric on entry and stays so
    P[:3, :3] = 0.5 * (P[:3, :3] + P[:3, :3].T)
    return replace(state, mean=mean, cov=P)


def observe(pose, world, sensor, rng):
    """Simulate one sensor frame from the pose (x, y, heading).

    Landmarks beyond max_range or outside the field of view are omitted;
    visible ones get seeded Gaussian range/bearing noise.  The ray set is
    cast against the obstacle polygons at fixed angular resolution, with
    the same range noise applied to hits.
    """
    pose = np.asarray(pose, dtype=float)
    delta = world.landmark_points - pose[:2]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    bearing = wrap_pi(np.arctan2(delta[:, 1], delta[:, 0]) - pose[2])
    visible = ~((dist > sensor.max_range) | (np.abs(bearing) > sensor.fov / 2.0))
    # one range and one bearing draw per visible landmark, in id order
    noise = rng.standard_normal((np.count_nonzero(visible), 2))
    ranges = np.maximum(dist[visible] + sensor.range_sigma * noise[:, 0], 0.0)
    bearings = wrap_pi(bearing[visible] + sensor.bearing_sigma * noise[:, 1])

    # each ray against every obstacle edge: ray = pose + t d, edge =
    # start + s e; the nearest crossing with t >= 0 and s in [0, 1] is a hit
    angles = pose[2] + np.linspace(-sensor.fov / 2.0, sensor.fov / 2.0,
                                   sensor.n_rays, endpoint=False)
    edges = world.edge_vectors
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, None, :]
    rel = world.edge_starts - pose[:2]
    hits = np.zeros(sensor.n_rays, dtype=bool)
    distances = np.full(sensor.n_rays, float(sensor.max_range))
    step = max(1, CAST_PAIRS // max(1, len(edges)))
    for first in range(0, sensor.n_rays, step):
        part = slice(first, first + step)
        d = directions[part]
        denom = d[..., 0] * edges[:, 1] - d[..., 1] * edges[:, 0]
        parallel = np.abs(denom) < 1e-15
        denom = np.where(parallel, 1.0, denom)
        t = (rel[:, 0] * edges[:, 1] - rel[:, 1] * edges[:, 0]) / denom
        s = (rel[:, 0] * d[..., 1] - rel[:, 1] * d[..., 0]) / denom
        crossing = (~parallel & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
                    & (t < sensor.max_range))
        hits[part] = crossing.any(axis=1)
        distances[part] = t.min(axis=1, initial=sensor.max_range, where=crossing)
    if sensor.range_sigma:
        noisy = distances[hits] + sensor.range_sigma * rng.standard_normal(
            np.count_nonzero(hits))
        distances[hits] = np.clip(noisy, 0.0, sensor.max_range)
    return Observation(ids=world.landmark_ids[visible], ranges=ranges,
                       bearings=bearings, ray_angles=wrap_pi(angles),
                       ray_distances=distances, ray_hits=hits,
                       range_sigma=sensor.range_sigma,
                       bearing_sigma=sensor.bearing_sigma)


def _measurement_jacobian(mean, slots):
    """Stacked range-bearing Jacobian of the landmarks in the given state
    slots, on the columns it touches: the (2k, 3 + 2k) matrix J, the state
    columns of J's columns (the pose, then each landmark's x and y), and
    the predicted measurements."""
    x, y, heading = mean[:3]
    cols = 3 + 2 * slots
    dx = mean[cols] - x
    dy = mean[cols + 1] - y
    q = dx * dx + dy * dy
    sq = np.sqrt(q)
    predicted = np.stack([sq, wrap_pi(np.arctan2(dy, dx) - heading)],
                         axis=1).ravel()
    # d(range, bearing) / d(landmark x, y); the block for the pose's x, y
    # is its negative, and the bearing falls one for one with the heading
    block = np.stack([dx / sq, dy / sq, -dy / q, dx / q], axis=1).reshape(-1, 2, 2)
    m = len(slots)
    J = np.zeros((m, 2, 3 + 2 * m))
    J[:, :, :2] = -block
    J[:, 1, 2] = -1.0
    k = np.arange(m)
    J[k, :, 3 + 2 * k] = block[:, :, 0]
    J[k, :, 4 + 2 * k] = block[:, :, 1]
    columns = np.concatenate([[0, 1, 2], np.stack([cols, cols + 1], axis=1).ravel()])
    return J.reshape(2 * m, -1), columns, predicted


def _lower_inverse(L):
    """L^-1 for a lower-triangular L, by 2 x 2 block recursion:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].  Blocks of at
    most 32 rows are inverted by LU; above that the inverse costs about
    m^3 / 3 flops, all in matrix products.  The strict upper triangle is
    exactly zero."""
    m = len(L)
    if m <= 32:
        # the pivoted LU inverse leaves rounding above the diagonal
        return np.tril(np.linalg.inv(L))
    h = m // 2
    A_inv = _lower_inverse(L[:h, :h])
    C_inv = _lower_inverse(L[h:, h:])
    inverse = np.zeros((m, m))
    inverse[:h, :h] = A_inv
    inverse[h:, h:] = C_inv
    inverse[h:, :h] = -C_inv @ (L[h:, :h] @ A_inv)
    return inverse


def _inverse_factor(S):
    """L^-1 for the Cholesky factor L of S, or None when S is not finite,
    not positive definite or has cond2(S) above 1e12.  As cond2(S) <=
    ||L||_F^2 ||L^-1||_F^2 = trace(S) ||L^-1||_F^2, eigenvalues decide only
    when that bound is above 1e11, a factor 10 for the rounding of eigvalsh."""
    if not np.isfinite(S).all():
        return None
    try:
        L_inv = _lower_inverse(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:
        return None
    if not np.trace(S) * np.square(L_inv).sum() <= 1e11:
        eigenvalues = np.linalg.eigvalsh(S)
        if not (eigenvalues[0] > 0 and eigenvalues[-1] <= 1e12 * eigenvalues[0]):
            return None
    return L_inv


def correct(state, z):
    """Extended Kalman correction with known data association.

    Measurements whose landmark id is not in the map are ignored here
    (update_map initializes them).  The update is batched over all known
    landmarks and touches only the columns of the covariance P that the
    measurement Jacobian H reaches.  With L the Cholesky factor of the
    innovation covariance S and W = P H^T L^-T, the gain is K = W L^-1,
    the mean moves by W L^-1 (z - h(x)) and the covariance becomes
    P - K S K^T = P - W W^T (the Cholesky-form update of Bailey et al.,
    "Consistency of the EKF-SLAM algorithm", IROS 2006).  For n state
    entries and m = 2k measurement rows a step costs about n^2 m flops
    for W W^T, 4 n m^2 for P H^T and W, and under 3 m^3 for S, its factor
    and L^-1.  numpy forms W W^T with one symmetric rank-k update, so the
    covariance comes out exactly symmetric.  An innovation covariance that is not finite, is
    not positive definite (no Cholesky factor) or has a 2-norm condition
    number above 1e12 skips the whole measurement batch: the state comes
    back unchanged, `skipped` set.  The skip rule reads the factor: its
    bound trace(S) ||L^-1||_F^2 on the condition number accepts S up to
    1e11, and only above that do the eigenvalues of S decide.
    """
    match = z.ids[:, None] == np.asarray(state.landmark_ids, dtype=int)
    known = match.any(axis=1)
    if not known.any():
        return CorrectionResult(state=state)
    slots = match.argmax(axis=1)[known]
    J, columns, predicted = _measurement_jacobian(state.mean, slots)
    observed = np.stack([z.ranges[known], z.bearings[known]], axis=1).ravel()
    innovation = observed - predicted
    innovation[1::2] = wrap_pi(innovation[1::2])

    r_var = max(z.range_sigma ** 2, MEASUREMENT_VARIANCE_FLOOR)
    b_var = max(z.bearing_sigma ** 2, MEASUREMENT_VARIANCE_FLOOR)
    R = np.diag([r_var, b_var] * len(slots))
    P = state.cov
    PHt = P[:, columns] @ J.T
    S = J @ PHt[columns] + R
    L_inv = _inverse_factor(S)
    if L_inv is None:
        return CorrectionResult(state=state, skipped=True)
    W = PHt @ L_inv.T
    mean = state.mean + W @ (L_inv @ innovation)
    mean[2] = wrap_pi(mean[2])
    cov = W @ W.T
    # in place, so the update allocates one n x n array, not two
    np.subtract(P, cov, out=cov)
    return CorrectionResult(state=replace(state, mean=mean, cov=cov))


def _walk(start, ends):
    """8-connected Bresenham lines from the integer (row, col) cell start to
    each of the (k, 2) cells ends: the (k, L) rows and cols, and each line's
    length, beyond which its entries are not part of it.  At step i the
    major axis has moved i cells and the minor axis
    ceil(i * minor / major - 1/2), the cells the error term of the classic
    integer walk picks.  The arithmetic runs in the integer type of start
    and ends; it is exact while 2 (L - 1)^2 and each |start| + L fit in it.
    """
    delta = ends - start
    span = np.abs(delta)
    major = np.maximum(span[:, :1], span[:, 1:])
    minor = np.minimum(span[:, :1], span[:, 1:])
    i = np.arange(major.max(initial=0) + 1, dtype=delta.dtype)
    across = -((major - 2 * i * minor) // np.maximum(2 * major, 1))
    rows_major = span[:, :1] > span[:, 1:]
    sign = np.where(delta >= 0, 1, -1).astype(delta.dtype)
    rows = start[0] + sign[:, :1] * np.where(rows_major, i, across)
    cols = start[1] + sign[:, 1:] * np.where(rows_major, across, i)
    return rows, cols, major[:, 0] + 1


def update_map(state, z):
    """The state after initializing unknown landmarks and stamping the rays.

    A frame's new landmarks enter the state together, by inverse
    observation from the current pose estimate: one block of cross terms
    G_pose P[:3, :] and one new block G_pose P[:3, :3] G_pose^T plus each
    landmark's G_meas R G_meas^T, for the stacked pose Jacobian G_pose and
    the per-landmark measurement Jacobians G_meas.  As the pose rows of P
    do not change while landmarks join, this is the covariance that adding
    them one at a time would give.  Grid cells crossed by a ray
    get the free log-odds decrement; the hit cell gets the occupied
    increment.  Each stamp clips to +-LOG_ODDS_LIMIT, in ray order: in a
    chunk of rays, a cell no ray ends in only falls, so an ordered
    np.add.at and one clip at -LOG_ODDS_LIMIT give the same bits, and a
    cell a ray ends in has its stamps replayed one at a time.  A boolean
    mark over the flat grid, made once per call and set and cleared per
    chunk, finds the stamps on those cells.  The walk runs in int32 cells
    while 2 L^2 and |origin| + L stay below 2^31 for the longest line L,
    as they always do within the CLI caps, and in int64 otherwise; a cell
    is inside the grid when its row and col, read unsigned, are below the
    height and width.  The output shares what it does not change with the
    input: the mean and covariance when no landmark joins, the grid when
    no ray comes near it.
    """
    mean, P = state.mean, state.cov
    x, y, heading = state.mean[:3]
    known = set(state.landmark_ids)
    fresh = np.array([lid not in known for lid in z.ids.tolist()], dtype=bool)
    if fresh.any():
        dist = z.ranges[fresh]
        direction = heading + z.bearings[fresh]
        cos, sin = np.cos(direction), np.sin(direction)
        k, n = len(dist), len(mean)
        # d(landmark x, y) / d(pose), stacked (2k, 3), and
        # d(landmark x, y) / d(range, bearing), (k, 2, 2)
        G_pose = np.zeros((2 * k, 3))
        G_pose[0::2, 0] = G_pose[1::2, 1] = 1.0
        G_pose[0::2, 2] = -dist * sin
        G_pose[1::2, 2] = dist * cos
        G_meas = np.stack([cos, -dist * sin, sin, dist * cos],
                          axis=1).reshape(k, 2, 2)
        r_var = max(z.range_sigma ** 2, MEASUREMENT_VARIANCE_FLOOR)
        b_var = max(z.bearing_sigma ** 2, MEASUREMENT_VARIANCE_FLOOR)
        cross = G_pose @ P[:3, :]
        block = cross[:, :3] @ G_pose.T
        # each landmark's own measurement noise, on the 2 x 2 diagonal blocks
        i = np.arange(k)
        block.reshape(k, 2, k, 2)[i, :, i, :] += (
            (G_meas * [r_var, b_var]) @ G_meas.transpose(0, 2, 1))
        mean = np.concatenate([mean, np.stack([x + dist * cos, y + dist * sin],
                                              axis=1).ravel()])
        P = np.empty((n + 2 * k, n + 2 * k))
        P[:n, :n] = state.cov
        P[n:, :n] = cross
        P[:n, n:] = cross.T
        P[n:, n:] = 0.5 * (block + block.T)
    new = replace(state, mean=mean, cov=P, landmark_ids=tuple(
        state.landmark_ids) + tuple(z.ids[fresh].tolist()))
    if not len(z.ray_angles):
        return new

    grid = state.grid
    # push the hit a quarter cell along the ray so surfaces lying
    # exactly on cell boundaries register on their own side of the
    # boundary instead of in the free cell in front of them
    reach = z.ray_distances + np.where(z.ray_hits, 0.25 * grid.resolution, 0.0)
    ends = np.stack([x + reach * np.cos(z.ray_angles),
                     y + reach * np.sin(z.ray_angles)], axis=1)
    cells = grid.cell_of(np.vstack([(x, y), ends]))
    origin, ends = cells[0], cells[1:]
    # a line stays in the box of its end cells; a ray whose box misses the
    # grid, as every ray does from a pose far off it or not finite, is dropped
    near = ((np.maximum(origin, ends) >= 0)
            & (np.minimum(origin, ends) < (grid.height, grid.width))).all(axis=1)
    if not near.any():
        return new
    grid = new.grid = replace(grid, log_odds=grid.log_odds.copy())
    height, width = grid.height, grid.width
    stops = ends[near]
    longest = int(np.abs(stops - origin).max(initial=0)) + 1
    # the walk's cells lie within longest of the origin: 32 bits hold them
    # and _walk's 2 (longest - 1)^2 unless the frame is huge
    bound = max(2 * longest ** 2, int(np.abs(origin).max()) + longest)
    cell_type, unsigned = ((np.int32, np.uint32) if bound < 2 ** 31
                           else (np.int64, np.uint64))
    start, stops = origin.astype(cell_type), stops.astype(cell_type)
    hits = z.ray_hits[near]
    step = max(1, WALK_CELLS // longest)
    flat = grid.log_odds.reshape(-1)    # a view of update_map's own copy
    # the cells some ray of a chunk ends in; set and cleared per chunk
    ended_mark = np.zeros(height * width, dtype=bool)
    for first in range(0, len(hits), step):
        part = slice(first, first + step)
        rows, cols, length = _walk(start, stops[part])
        i = np.arange(rows.shape[1], dtype=cell_type)
        # a negative row or col wraps to a huge unsigned one
        inside = ((rows.view(unsigned) < height)
                  & (cols.view(unsigned) < width) & (i < length[:, None]))
        occupied = (hits[part, None] & (i == length[:, None] - 1))[inside]
        # the flat cell of every stamp, in ray order, in numpy's index type:
        # fancy indexing converts int32 indices on every call
        cell = rows[inside].astype(np.intp) * width + cols[inside]
        hit = cell[occupied]
        ended_mark[hit] = True
        ended = ended_mark[cell]
        ended_mark[hit] = False
        # np.add.at adds one stamp at a time, in ray order; once the sum
        # passes -LIMIT every later stamp would clip it back to -LIMIT
        free = cell[~ended]
        np.add.at(flat, free, LOG_ODDS_FREE)
        flat[free] = np.maximum(flat[free], -LOG_ODDS_LIMIT)
        # a cell a ray ends in rises and falls: replay its stamps
        increment = np.where(occupied, LOG_ODDS_OCCUPIED, LOG_ODDS_FREE)[ended]
        for c, inc in zip(cell[ended].tolist(), increment.tolist()):
            flat[c] = min(max(flat[c] + inc, -LOG_ODDS_LIMIT), LOG_ODDS_LIMIT)
    return new


_DIAG = math.sqrt(2.0)
_MOVES = ((-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
          (-1, -1, _DIAG), (-1, 1, _DIAG), (1, -1, _DIAG), (1, 1, _DIAG))


def plan_path(grid, start, goal, occupied_threshold=0.5):
    """8-connected A* on the occupancy grid.

    Cells with occupancy probability above the threshold are blocked.
    Straight moves cost 1, diagonal moves sqrt(2); the heuristic is the
    octile distance, which is admissible for those costs, so the returned
    path cost is optimal among grid paths.  Raises NoPathError when the
    goal is unreachable.

    The search runs over a table of open cells built once per call: one
    byte per cell of the grid padded by a blocked border, so a neighbour's
    flat index is the cell's plus a fixed offset and needs no bounds test.
    Heap entries are (f, counter, cell) with a unique counter, so ties
    break by push order.
    """
    start, goal = tuple(start), tuple(goal)
    if not (grid.contains(start) and grid.contains(goal)):
        raise ValueError("start and goal must lie inside the grid")
    blocked = grid.blocked(occupied_threshold)
    if blocked[start] or blocked[goal]:
        raise NoPathError("start or goal cell is occupied")
    span = grid.width + 2
    table = np.zeros((grid.height + 2, span), dtype=bool)
    table[1:-1, 1:-1] = ~blocked
    is_open = table.tobytes()
    moves = [(dr * span + dc, move_cost) for dr, dc, move_cost in _MOVES]
    source = (start[0] + 1) * span + start[1] + 1
    target = (goal[0] + 1) * span + goal[1] + 1
    goal_row, goal_col = divmod(target, span)

    def heuristic(cell):
        row, col = divmod(cell, span)
        dr = abs(row - goal_row)
        dc = abs(col - goal_col)
        return (dr + dc) + (_DIAG - 2.0) * min(dr, dc)

    frontier = [(heuristic(source), 0, source)]
    best_cost = {source: 0.0}
    came_from = {}
    counter = 1
    while frontier:
        _, _, cell = heapq.heappop(frontier)
        if cell == target:
            path = [cell]
            while path[-1] != source:
                path.append(came_from[path[-1]])
            return [(c // span - 1, c % span - 1) for c in reversed(path)]
        base = best_cost[cell]
        for offset, move_cost in moves:
            nxt = cell + offset
            if not is_open[nxt]:
                continue
            cost = base + move_cost
            if cost < best_cost.get(nxt, math.inf) - 1e-12:
                best_cost[nxt] = cost
                came_from[nxt] = cell
                heapq.heappush(frontier, (cost + heuristic(nxt), counter, nxt))
                counter += 1
    raise NoPathError("goal is unreachable")


def path_cost(path):
    """Total step cost of a cell path under the planner's move costs."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += 1.0 if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 else _DIAG
    return total


@dataclass
class RunLog:
    """One row per step: the (steps, 3) `truth`, `dead_reckoning` and `slam`
    poses; the (steps,) `cov_trace`, `n_measurements` and `skipped`
    correction flags; and the state the run ends in."""

    truth: np.ndarray
    dead_reckoning: np.ndarray
    slam: np.ndarray
    cov_trace: np.ndarray
    n_measurements: np.ndarray
    skipped: np.ndarray
    final_state: SlamState

    def final_errors(self):
        slam_err = float(np.hypot(*(self.slam[-1, :2] - self.truth[-1, :2])))
        dr_err = float(np.hypot(*(self.dead_reckoning[-1, :2]
                                  - self.truth[-1, :2])))
        return slam_err, dr_err


def simulate(world, script, sensor, odometry=None, process=None, seed=0,
             start_pose=(0.0, 0.0, 0.0)):
    """Run the full predict/observe/correct/update loop over a script.

    Ground truth integrates the commanded motion exactly; odometry (and
    hence dead reckoning and the filter prediction) sees the commands
    corrupted by the odometry noise.  Returns a RunLog with one row per
    step of the script.  A skipped correction is logged in its row, never
    raised; a state that stops being finite raises FilterDivergedError,
    without numpy's overflow warnings on the way.  Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(seed)
    odometry = odometry or OdometryNoise()
    truth = np.asarray(start_pose, dtype=float).copy()
    dead_reckoning = truth.copy()
    state = initial_state(truth, world)
    n = len(script)
    log = RunLog(truth=np.empty((n, 3)), dead_reckoning=np.empty((n, 3)),
                 slam=np.empty((n, 3)), cov_trace=np.empty(n),
                 n_measurements=np.empty(n, dtype=int),
                 skipped=np.empty(n, dtype=bool), final_state=state)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, u in enumerate(script):
            truth = unicycle(truth, u)
            u_measured = MotionInput(
                velocity=(u.velocity
                          + odometry.velocity_sigma * rng.standard_normal()),
                angular_velocity=(u.angular_velocity + odometry.angular_sigma
                                  * rng.standard_normal()),
                dt=u.dt)
            dead_reckoning = unicycle(dead_reckoning, u_measured)
            state = predict(state, u_measured, process)
            z = observe(truth, world, sensor, rng)
            result = correct(state, z)
            state = update_map(result.state, z)
            if not all(np.isfinite(a).all()
                       for a in (state.mean, state.cov, dead_reckoning)):
                raise FilterDivergedError(i)
            log.truth[i], log.dead_reckoning[i], log.slam[i] = (
                truth, dead_reckoning, state.mean[:3])
            log.cov_trace[i] = np.trace(state.cov)
            log.n_measurements[i] = len(z.ids)
            log.skipped[i] = result.skipped
    log.final_state = state
    return log


# ---------------------------------------------------------------------------
# File outputs


def write_run_log(log, path, header_comment=None):
    """CSV: step, truth pose, dead-reckoning pose, SLAM pose, trace(cov),
    landmarks measured and the step's events."""
    figures = np.column_stack([log.truth, log.dead_reckoning, log.slam,
                               log.cov_trace])
    events = np.where(log.skipped,
                      "correction-skipped: innovation covariance singular", "")
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("step,truth_x,truth_y,truth_heading,"
                 "dr_x,dr_y,dr_heading,slam_x,slam_y,slam_heading,"
                 "cov_trace,n_measurements,events\n")
        for step, row in enumerate(figures.tolist()):
            cells = [str(step), *(f"{v:.9g}" for v in row),
                     str(log.n_measurements[step]), events[step]]
            fh.write(",".join(cells) + "\n")


def write_grid_pgm(grid, path, comment=None):
    """Plain-text PGM, one formatted line per row, top row first, of
    values 0-255 (white free, black occupied).  A grid with a NaN log-odds
    has no such value: it raises ValueError before the file is opened."""
    if np.isnan(grid.log_odds).any():
        raise ValueError("grid log-odds must not be NaN")
    values = np.round((1.0 - grid.probabilities()) * 255.0).astype(int)
    labels = [str(v) for v in range(256)]
    with open(path, "w") as fh:
        fh.write("P2\n")
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"{grid.width} {grid.height}\n255\n")
        fh.writelines(" ".join([labels[v] for v in row]) + "\n"
                      for row in values[::-1].tolist())


def write_path_csv(path_cells, path, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("row,col\n")
        fh.writelines(f"{r},{c}\n" for r, c in path_cells)


_TURN_RATE = np.pi / 4.0  # rad/s


def loop_script(side=2.0, speed=0.25, dt=0.1):
    """Square loop trajectory: four straight legs joined by quarter turns
    at pi/4 rad/s."""
    straight_steps = int(round(side / (speed * dt)))
    turn_steps = int(round((np.pi / 2.0) / (_TURN_RATE * dt)))
    script = []
    for _ in range(4):
        script.extend(MotionInput(speed, 0.0, dt) for _ in range(straight_steps))
        script.extend(MotionInput(speed * 0.4, _TURN_RATE, dt)
                      for _ in range(turn_steps))
    return script


def desk_world():
    """Small indoor scenario: eight landmarks around a 6 x 6 m area with a
    rectangular obstacle, gridded at 0.1 m."""
    landmarks = {
        1: np.array([-1.0, -1.0]), 2: np.array([3.0, -1.0]),
        3: np.array([3.5, 1.5]), 4: np.array([3.0, 3.5]),
        5: np.array([-0.5, 3.5]), 6: np.array([-1.5, 1.5]),
        7: np.array([1.0, 4.0]), 8: np.array([1.5, -1.5]),
    }
    obstacle = np.array([[0.8, 0.8], [1.6, 0.8], [1.6, 1.6], [0.8, 1.6]])
    return World(landmarks=landmarks, obstacles=(obstacle,),
                 grid_resolution=0.1,
                 grid_origin=np.array([-2.0, -2.0]),
                 grid_width=60, grid_height=60)
