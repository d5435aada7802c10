"""Batch front-end: JSON config in, CSV/SVG/JSON artifacts out.

Subcommands: synth (hybrid linkage synthesis pipeline), pareto (NSGA-II
on the leg problem), isotropy (stance diagnostics), mobility (structure
audit), slam (simulation run).  Every command is deterministic given
(config, seed); each output file carries, in a header comment, a hash of
the config document as written together with the seed.  Exit codes: 0
success, 1 configuration error, 2 computational infeasibility.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import isotropy as iso
from . import nsga2
from . import search
from . import slam
from .fourbar import FourBarParams, coupler_path, sweep
from .mobility import MechanismGraph, mobility, reference_graphs
from .svgplot import SvgPlot
from .synthesis import LineTarget

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

# Bounds on the config values that size an allocation or a loop, checked
# before any pipeline starts: each is at least 16x the largest value any
# test, demo, README sketch or benchmark config uses.
MAX_SAMPLES = 2 ** 20        # synth budget, LP-tau points
MAX_SWEEP_SAMPLES = 4096     # crank positions per design
MAX_POPULATION = 2000        # designs bred, evaluated, sorted per generation
MAX_GENERATIONS = 32_000     # the run histories hold one row per generation
MAX_RAYS = 10_000            # sensor rays per scan
MAX_RAY_CELLS = 4096         # grid cells a ray walks, max_range / resolution
MAX_STEPS = 10 ** 6          # script steps, given or derived
MAX_GRID_CELLS = 10 ** 7     # occupancy grid width x height
MAX_LANDMARKS = 2048         # the EKF covariance is (3 + 2 landmarks)^2
MAX_RAY_EDGES = 2 ** 15      # ray-edge pairs one sensor frame casts


class ConfigError(ValueError):
    """Bad or unknown configuration content (exit code 1)."""


class InfeasibleError(RuntimeError):
    """Computation came up empty or singular (exit code 2)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _check_keys(block, allowed, context):
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _value(value, kind, name, lo=-math.inf, hi=math.inf):
    """`value` checked as a `kind` (float, int, str, bool or np.ndarray,
    which takes a list of floats).  A float also takes a JSON integer and
    must be finite; a number must lie in [lo, hi]."""
    if kind is float:
        # the bound test also rejects NaN, infinities and integers too
        # large to convert
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{name} must be a finite number")
        value = float(value)
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
    elif kind is np.ndarray:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers")
        value = np.array([_value(v, float, name) for v in value])
    elif not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}")
    if kind in (int, float) and not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}]")
    return value


def _get(block, key, kind, default=None, context="", lo=-math.inf,
         hi=math.inf):
    if key not in block:
        return default
    return _value(block[key], kind, f"{context}{key}", lo, hi)


def _vector(block, key, kind, size, context="", default=None):
    """A list of `size` values of `kind` under `key`."""
    value = block.get(key, default)
    if not isinstance(value, list) or len(value) != size:
        raise ConfigError(f"{context}{key} must be a list of {size} numbers")
    return [_value(v, kind, f"{context}{key}") for v in value]


def _list(block, key, context=""):
    """The list under `key`, empty where the key is absent."""
    value = block.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{context}{key} must be a list")
    return value


def _build(cls, block, context, **fixed):
    """Dataclass `cls` built from a config block.

    The fields not in `fixed` are the allowed keys and each field's
    annotation is the type its value must have (see `_value`); null is
    taken where the default is None.  A missing required key and the
    class's own ValueError become a ConfigError.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)
              if f.name not in fixed}
    _check_keys(block, fields, context)
    values = {name: value if value is None and fields[name].default is None
              else _value(value, fields[name].type, f"{context} {name}")
              for name, value in block.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{context}: {err}") from None


def _config_hash(config, seed):
    try:
        payload = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    except RecursionError:
        raise ConfigError("config nests too deeply") from None
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"cannot read config: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scan_args(config):
    """Search box, sweep samples and assembly branch: the scan settings
    that synth and pareto share."""
    box = (_build(search.ParamBox, config["box"], "box") if "box" in config
           else search.DEFAULT_BOX)
    # the inner solve has three complex unknowns, the coupler point and
    # the target line, so fewer than four samples fit every design exactly
    count = _get(config, "sweep_samples", int, search.DEFAULT_SWEEP_SAMPLES,
                 lo=4, hi=MAX_SWEEP_SAMPLES)
    branch = _get(config, "branch", int, 1)
    if branch not in (1, -1):
        raise ConfigError("branch must be 1 or -1")
    return box, count, branch


# ---------------------------------------------------------------------------
# synth


def cmd_synth(config, out, seed, tag):
    _check_keys(config, {"box", "budget", "sweep_samples", "branch",
                         "limits"}, "synth config")
    box, count, branch = _scan_args(config)
    budget = _get(config, "budget", int, 2 ** 14, "synth ", lo=1,
                  hi=MAX_SAMPLES)
    limits = _build(search.FeasibilityLimits, config.get("limits", {}),
                    "limits")

    table = search.scan(box, budget, count=count, branch=branch)
    feasible = search.filter_feasible(table, limits)
    pareto = search.pareto_filter(feasible)

    search.write_sampling_table(table, out / "sampling_table.csv",
                                header_comment=f"config {tag}")
    search.write_sampling_table(pareto, out / "pareto.csv",
                                header_comment=f"config {tag}")

    assemblable = int(table.feasible.sum())
    if not len(feasible):
        raise InfeasibleError(
            "no sample satisfies the feasibility limits",
            diagnostics={"budget": budget, "assemblable": assemblable,
                         "feasible": 0})

    best = int(np.argmin(feasible.delta0))
    p = FourBarParams(*feasible.params[best], branch=branch)
    x = feasible.x[best]
    path = coupler_path(sweep(p, 200), x[:2])
    line = LineTarget(*x[2:])
    targets = line.points(np.linspace(0.0, 1.0, 200))
    plot = SvgPlot(title="best foot trajectory vs target line",
                   equal_aspect=True)
    plot.add_line(path[:, 0], path[:, 1], label="coupler path")
    plot.add_line(targets[:, 0], targets[:, 1], label="target line")
    plot.write(out / "best_trajectory.svg", comment=f"config {tag}")

    delta0 = feasible.delta0[best]
    summary = {
        "config_hash": tag,
        "budget": budget,
        "assemblable": assemblable,
        "feasible": len(feasible),
        "pareto": len(pareto),
        "best": {
            "crank": p.crank, "coupler": p.coupler, "rocker": p.rocker,
            "start_angle": p.start_angle, "support_arc": p.support_arc,
            "delta0": delta0, "rms": float(np.sqrt(delta0)),
            "min_transmission_deg": feasible.min_transmission_deg[best],
            "cycle_ratio": feasible.cycle_ratio[best],
            "support_deg": feasible.support_deg[best],
            "coupler_point": x[:2].tolist(),
            "line": {"x0": line.x0, "y0": line.y0,
                     "span_x": line.span_x, "span_y": line.span_y},
        },
    }
    _write_json(out / "summary.json", summary)
    print(f"synth: {len(feasible)} feasible / {budget} samples, "
          f"best rms {summary['best']['rms']:.4g}, "
          f"mu_min {summary['best']['min_transmission_deg']:.2f} deg, "
          f"nu {summary['best']['cycle_ratio']:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pareto


OVERLAP_PAIRS = 2 ** 18  # front-table pairs _overlap_report compares at once


def _overlap_report(front, table_points):
    """Front-to-table comparison, over blocks of OVERLAP_PAIRS pairs:
    chamfer distances in normalized objective space plus mutual
    domination counts."""
    combined = np.vstack([front, table_points])
    lo = combined.min(axis=0)
    extent = np.ptp(combined, axis=0)
    span = np.where(extent > 0, extent, 1.0)
    f = (front - lo) / span
    t = (table_points - lo) / span
    front_to_table, table_to_front = np.full(len(f), np.inf), np.empty(len(t))
    front_dominated, table_dominated = np.zeros(len(f), dtype=bool), 0
    block = max(1, OVERLAP_PAIRS // len(f))
    for start in range(0, len(t), block):
        rows = slice(start, start + block)
        d = np.sqrt(((f[:, None, :] - t[None, rows, :]) ** 2).sum(axis=2))
        front_to_table = np.minimum(front_to_table, d.min(axis=1))
        table_to_front[rows] = d.min(axis=0)
        block_points = table_points[rows]
        front_dominated |= search.dominates(block_points, front).any(axis=0)
        table_dominated += search.dominates(front, block_points).any(axis=0).sum()
    return {
        "front_size": int(len(front)),
        "table_size": int(len(table_points)),
        "mean_front_to_table": float(front_to_table.mean()),
        "mean_table_to_front": float(table_to_front.mean()),
        "front_points_dominated_by_table": int(front_dominated.sum()),
        "table_points_dominated_by_front": int(table_dominated),
    }


def _read_table_points(path):
    """(delta0, -min transmission in rad) of each feasible row of a
    sampling table written by `synth`."""
    pts = []
    try:
        with open(path, newline="") as fh:
            first = fh.readline()
            if not first.startswith("#"):
                fh.seek(0)
            reader = csv.DictReader(fh)
            missing = ({"feasible", "delta0", "min_transmission_deg"}
                       - set(reader.fieldnames or ()))
            if missing:
                raise ValueError(f"missing columns {sorted(missing)}")
            for row in reader:
                if row["feasible"] != "1":
                    continue
                pts.append([float(row["delta0"]),
                            -np.radians(float(row["min_transmission_deg"]))])
        if not np.isfinite(pts).all():
            raise ValueError("a feasible row has a non-finite figure")
    except (OSError, TypeError, ValueError, csv.Error) as err:
        raise ConfigError(f"cannot read sampling table {path!r}: {err}") from None
    return pts


def cmd_pareto(config, out, seed, tag):
    _check_keys(config, {"box", "sweep_samples", "branch", "ga",
                         "sampling_table"}, "pareto config")
    box, count, branch = _scan_args(config)
    ga = _build(nsga2.GAConfig, config.get("ga", {}), "ga", seed=seed)
    if ga.population > MAX_POPULATION:
        raise ConfigError(f"ga population must be at most {MAX_POPULATION}")
    if ga.generations > MAX_GENERATIONS:
        raise ConfigError(f"ga generations must be at most {MAX_GENERATIONS}")
    problem = nsga2.leg_problem(box=box, count=count, branch=branch)
    table_path = _get(config, "sampling_table", str, None, "pareto ")
    table_points = [] if table_path is None else _read_table_points(table_path)

    result = nsga2.evolve(problem, ga)

    with open(out / "hypervolume.csv", "w") as fh:
        fh.write(f"# config {tag}\n")
        fh.write("generation,hypervolume,best_error,best_transmission_rad\n")
        for generation, area in enumerate(result.hypervolume):
            error, transmission = result.best_objectives[generation]
            fh.write(f"{generation},{area:.12g},{error:.12g},"
                     f"{-transmission:.12g}\n")

    hv = result.hypervolume
    plot = SvgPlot(title="hypervolume convergence")
    plot.add_line(np.arange(len(hv)), hv, label="hypervolume")
    plot.write(out / "hypervolume.svg", comment=f"config {tag}")

    front = (result.rank == 0) & (result.violation <= 0.0)
    F = result.F[front]
    with open(out / "front.csv", "w") as fh:
        fh.write(f"# config {tag}\n")
        fh.write("crank,coupler,rocker,start_angle,support_arc,error,"
                 "transmission_rad\n")
        for genome, f in zip(result.genomes[front], F):
            genes = ",".join(f"{g:.12g}" for g in genome)
            fh.write(f"{genes},{f[0]:.12g},{-f[1]:.12g}\n")

    if len(F):
        plot = SvgPlot(title="final front: error vs -transmission")
        plot.add_scatter(F[:, 0], F[:, 1], label="front")
        plot.write(out / "front.svg", comment=f"config {tag}")

    if table_points and len(F):
        report = _overlap_report(F, np.array(table_points))
        report["config_hash"] = tag
        _write_json(out / "overlap.json", report)

    print(f"pareto: front size {len(F)}, final hypervolume {hv[-1]:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# isotropy


# closed_form_family's arguments and the values a config may leave out
_FAMILY_DEFAULTS = {"alpha1": 0.0, "gamma1": np.pi / 3, "beta": np.pi / 2,
                    "char_length": 1.0, "variant": 1, "sign": 1}


def _isotropy_config(config):
    if "legs" in config:
        if "family" in config:
            raise ConfigError("give either 'family' or 'legs', not both")
        legs = config["legs"]
        if not isinstance(legs, list) or len(legs) != 3:
            raise ConfigError("legs must be a list of exactly 3 objects")
        return _build(iso.TripodConfig,
                      {key: config[key] for key in ("heading", "char_length")
                       if key in config},
                      "isotropy config",
                      legs=tuple(_build(iso.TripodLeg, leg, "leg")
                                 for leg in legs))
    if "heading" in config or "char_length" in config:
        raise ConfigError("heading and char_length go with explicit legs; "
                          "a family takes family.char_length")
    block = config.get("family", {})
    _check_keys(block, _FAMILY_DEFAULTS, "family")
    try:
        return iso.closed_form_family(**{
            key: _get(block, key, type(default), default, "family ")
            for key, default in _FAMILY_DEFAULTS.items()})
    except iso.UndefinedFamilyError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_isotropy(config, out, seed, tag):
    _check_keys(config, {"family", "legs", "heading", "char_length", "tol"},
                "isotropy config")
    try:
        stance = _isotropy_config(config)
        tol = _get(config, "tol", float, 1e-8, lo=0.0)
        # a figure past the float range is refused below, not warned about
        with np.errstate(all="ignore"):
            report = iso.isotropy_report(stance, tol=tol)
            jacobian = iso.jacobian_via_AB(stance)
    except (iso.SingularLegError, iso.SingularConfigurationError,
            iso.UndefinedFamilyError) as err:
        raise InfeasibleError(str(err), diagnostics={"error": str(err)})
    if not all(np.isfinite(figure).all() for figure in (
            report.residuals, report.lam, report.u_values, report.condition,
            jacobian)):
        error = "a figure of the stance overflows the float range"
        raise InfeasibleError(error, diagnostics={"error": error})

    payload = {
        "config_hash": tag,
        "residuals": report.residuals.tolist(),
        "isotropic": report.isotropic,
        "lambda": report.lam,
        "u_values": report.u_values.tolist(),
        "condition_number": report.condition,
        "jacobian": jacobian.tolist(),
        "legs": [{
            "mount_radius": leg.mount_radius, "mount_angle": leg.mount_angle,
            "leg_angle": leg.leg_angle, "foot_offset": leg.foot_offset,
            "extension": leg.extension} for leg in stance.legs],
        "heading": stance.heading,
        "char_length": stance.char_length,
    }
    _write_json(out / "isotropy.json", payload)

    feet = iso.foot_positions(stance)
    hips = iso.hip_positions(stance)
    plot = SvgPlot(title="tripod stance layout", equal_aspect=True)
    loop = np.vstack([feet, feet[:1]])
    plot.add_line(loop[:, 0], loop[:, 1], label="support triangle")
    for i in range(3):
        seg = np.vstack([hips[i], feet[i]])
        plot.add_line(seg[:, 0], seg[:, 1], color="#777777")
    plot.add_scatter(hips[:, 0], hips[:, 1], label="hips")
    plot.add_scatter(feet[:, 0], feet[:, 1], label="feet")
    plot.add_scatter([stance.position[0]], [stance.position[1]],
                     label="body center")
    plot.write(out / "layout.svg", comment=f"config {tag}")

    print(f"isotropy: isotropic={report.isotropic}, lambda={report.lam:.6f}, "
          f"condition={report.condition:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mobility


def cmd_mobility(config, out, seed, tag):
    _check_keys(config, {"graphs", "use_reference_fixtures"},
                "mobility config")
    blocks = _list(config, "graphs")
    graphs = [_build(MechanismGraph, block, "graph") for block in blocks]
    if _get(config, "use_reference_fixtures", bool, not blocks):
        graphs = reference_graphs() + graphs

    results = [mobility(g) for g in graphs]
    with open(out / "mobility.csv", "w", newline="") as fh:
        fh.write(f"# config {tag}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "dof", "actuated_inputs", "rational",
                         "diagnosis"])
        for r in results:
            inputs = "" if r.actuated_inputs is None else r.actuated_inputs
            rational = "" if r.rational is None else int(r.rational)
            writer.writerow([r.label, r.dof, inputs, rational, r.diagnosis])
    for r in results:
        inputs = "-" if r.actuated_inputs is None else r.actuated_inputs
        print(f"{r.label:48s} W={r.dof:>3} inputs={inputs!s:>3} "
              f"{r.diagnosis}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# slam


def _parse_script(block):
    if isinstance(block, list):
        return [_build(slam.MotionInput, step, "script step")
                for step in block]
    if not isinstance(block, dict):
        raise ConfigError("script must be a JSON object or a list of steps")
    kind = _get(block, "type", str, "loop", "script ")
    if kind == "loop":
        _check_keys(block, {"type", "side", "speed", "dt"}, "loop script")
        side = _get(block, "side", float, 2.0, "script ", lo=0.0)
        speed = _get(block, "speed", float, 0.25, "script ")
        dt = _get(block, "dt", float, 0.1, "script ")
        # loop_script divides by speed * dt, which must not underflow to 0;
        # it drives 4 sides of side/(speed dt) steps, 4 turns of 2/dt steps
        if not (dt > 0 and speed * dt > 0
                and 4 * (side / speed + 2.0) / dt <= MAX_STEPS):
            raise ConfigError("a loop script needs speed > 0 and dt > 0 "
                              f"and has at most {MAX_STEPS} steps")
        return slam.loop_script(side=side, speed=speed, dt=dt)
    if kind == "constant":
        steps = _get(block, "steps", int, 100, "script ", lo=1, hi=MAX_STEPS)
        motion = {"velocity": 0.2, "angular_velocity": 0.0, "dt": 0.1}
        motion.update((key, value) for key, value in block.items()
                      if key not in ("type", "steps"))
        return [_build(slam.MotionInput, motion, "script")] * steps
    raise ConfigError(f"unknown script type {kind!r}")


def _world(block):
    """The world of a slam config: the desk world where none is given,
    else a world document or the path of a JSON file holding one."""
    if block is None:
        return slam.desk_world()
    if isinstance(block, str):
        block = _load_config(block)
    _check_keys(block, {"grid", "landmarks", "obstacles"}, "world")
    landmarks = {}
    for item in _list(block, "landmarks", "world "):
        _check_keys(item, {"id", "x", "y"}, "world landmark")
        # an id indexes an int64 array
        lid = _value(item.get("id"), int, "world landmark id", lo=-2 ** 63,
                     hi=2 ** 63 - 1)
        if lid in landmarks:
            raise ConfigError(f"world landmark id {lid} is repeated")
        landmarks[lid] = np.array([
            _value(item.get(key), float, f"world landmark {key}")
            for key in ("x", "y")])
    obstacles = []
    for poly in _list(block, "obstacles", "world "):
        points = [_value(point, np.ndarray, "world obstacle point")
                  for point in poly] if isinstance(poly, list) else []
        if len(points) < 3 or any(len(point) != 2 for point in points):
            raise ConfigError("a world obstacle is a list of at least 3 "
                              "[x, y] points")
        obstacles.append(np.array(points))
    grid = block.get("grid")
    _check_keys(grid, {"resolution", "origin", "width", "height"},
                "world grid")
    return _build(slam.World, {f"grid_{key}": value
                               for key, value in grid.items()},
                  "world", landmarks=landmarks, obstacles=tuple(obstacles))


def cmd_slam(config, out, seed, tag):
    _check_keys(config, {"world", "script", "sensor", "odometry_noise",
                         "process_noise", "start_pose", "plan"}, "slam config")
    world = _world(config.get("world"))
    if world.grid_width * world.grid_height > MAX_GRID_CELLS:
        raise ConfigError(f"a world grid has at most {MAX_GRID_CELLS} cells")
    if len(world.landmarks) > MAX_LANDMARKS:
        raise ConfigError(f"a world has at most {MAX_LANDMARKS} landmarks")
    sensor = _build(slam.SensorConfig, config.get("sensor", {}), "sensor")
    if sensor.n_rays > MAX_RAYS:
        raise ConfigError(f"sensor n_rays must be at most {MAX_RAYS}")
    if sensor.n_rays * sum(map(len, world.obstacles)) > MAX_RAY_EDGES:
        raise ConfigError(f"sensor n_rays times the world's obstacle edges "
                          f"must be at most {MAX_RAY_EDGES}")
    ray_cells = sensor.max_range / world.grid_resolution
    if sensor.n_rays and ray_cells > MAX_RAY_CELLS:
        raise ConfigError(f"a sensor ray spans at most {MAX_RAY_CELLS} grid "
                          "cells (max_range / grid resolution)")
    odometry = _build(slam.OdometryNoise, config.get("odometry_noise", {}),
                      "odometry_noise")
    process = _build(slam.ProcessNoise, config.get("process_noise", {}),
                     "process_noise")
    script = _parse_script(config.get("script", {"type": "loop"}))
    if not 1 <= len(script) <= MAX_STEPS:
        raise ConfigError(f"a script has 1 to {MAX_STEPS} steps")
    start = _vector(config, "start_pose", float, 3,
                    default=[0.0, 0.0, 0.0])
    plan = config.get("plan")
    if plan is not None:
        _check_keys(plan, {"start", "goal", "occupied_threshold"}, "plan")
        plan = {"start": _vector(plan, "start", int, 2, "plan "),
                "goal": _vector(plan, "goal", int, 2, "plan "),
                "occupied_threshold": _get(plan, "occupied_threshold",
                                           float, 0.5, "plan ")}
        # log-odds are clipped, so every cell's probability lies inside
        # (0, 1): a threshold outside it blocks every cell or none
        if not 0.0 < plan["occupied_threshold"] < 1.0:
            raise ConfigError("plan occupied_threshold must lie in (0, 1)")
        for key in ("start", "goal"):
            row, col = plan[key]
            if not (0 <= row < world.grid_height
                    and 0 <= col < world.grid_width):
                raise ConfigError(f"plan {key} must be a cell of the "
                                  f"{world.grid_height} x {world.grid_width} "
                                  "world grid")

    try:
        log = slam.simulate(world, script, sensor, odometry=odometry,
                            process=process, seed=seed, start_pose=start)
    except slam.FilterDivergedError as err:
        raise InfeasibleError(str(err), diagnostics={"error": str(err),
                                                     "step": err.step})

    slam.write_run_log(log, out / "run_log.csv",
                       header_comment=f"config {tag}")
    slam.write_grid_pgm(log.final_state.grid, out / "grid.pgm",
                        comment=f"config {tag}")

    slam_err, dr_err = log.final_errors()
    summary = {
        "config_hash": tag,
        "steps": len(script),
        "final_slam_error": slam_err,
        "final_dead_reckoning_error": dr_err,
        "min_cov_eigenvalue": float(
            np.linalg.eigvalsh(log.final_state.cov).min()),
        "landmarks_mapped": len(log.final_state.landmark_ids),
        "corrections_skipped": int(np.count_nonzero(log.skipped)),
    }

    if plan is not None:
        grid = log.final_state.grid
        try:
            cells = slam.plan_path(grid, **plan)
        except slam.NoPathError as err:
            raise InfeasibleError(str(err), diagnostics={"error": str(err)})
        slam.write_path_csv(cells, out / "path.csv",
                            header_comment=f"config {tag}")
        # below 0.5 every cell never observed (p = 0.5) is blocked too;
        # only the cells with evidence are drawn
        threshold = plan["occupied_threshold"]
        drawn = np.argwhere(grid.blocked(threshold)
                            & (grid.probabilities() != 0.5))
        plot = SvgPlot(title="planned path", equal_aspect=True)
        if len(drawn):
            plot.add_scatter(drawn[:, 1], drawn[:, 0], radius=1.5,
                             label="occupied" if threshold >= 0.5
                             else "blocked (observed)")
        arr = np.array(cells)
        plot.add_line(arr[:, 1], arr[:, 0], label="path")
        plot.write(out / "path.svg", comment=f"config {tag}")
        summary["path_cells"] = len(cells)
        summary["path_cost"] = slam.path_cost(cells)

    _write_json(out / "summary.json", summary)
    print(f"slam: {len(script)} steps, final error slam {slam_err:.3g} "
          f"vs dead reckoning {dr_err:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Flag/usage problems are configuration errors (exit code 1).
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_COMMANDS = {
    "synth": cmd_synth,
    "pareto": cmd_pareto,
    "isotropy": cmd_isotropy,
    "mobility": cmd_mobility,
    "slam": cmd_slam,
}


def main(argv=None):
    parser = _Parser(prog="legsynth",
                     description="walking-robot design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default="legsynth-out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        config = _load_config(args.config)
        tag = _config_hash(config, args.seed)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory: {err}") from None
        try:
            return _COMMANDS[args.command](config, out, args.seed, tag)
        except OSError as err:
            # an output file that cannot be opened names itself; an error
            # with no file, such as a closed stdout, is not a config error
            if err.filename is None:
                raise
            raise ConfigError(f"cannot write output: {err}") from None
    except ConfigError as err:
        print(f"legsynth: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as err:
        print(f"legsynth: infeasible: {err}", file=sys.stderr)
        diagnostics = dict(err.diagnostics, config_hash=tag)
        try:
            _write_json(out / "diagnostics.json", diagnostics)
        except OSError:
            pass
        print(json.dumps(diagnostics, sort_keys=True), file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
