"""Batch front-end: JSON config in, CSV/SVG/JSON artifacts out.

Subcommands: synth (hybrid linkage synthesis pipeline), pareto (NSGA-II
on the leg problem), isotropy (stance diagnostics), mobility (structure
audit), slam (simulation run).  Every command is deterministic given
(config, seed); each output file carries the effective-config hash in a
header comment.  Exit codes: 0 success, 1 configuration error, 2
computational infeasibility.
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import isotropy as iso
from . import nsga2
from . import search
from . import slam
from .fourbar import SweepInvalidError, coupler_path, sweep
from .lptau import INDEX_LIMIT
from .mobility import MechanismGraph, rationality_report, reference_graphs
from .svgplot import SvgPlot

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


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


def _get(block, key, kind, default=None, context=""):
    if key not in block:
        return default
    value = block[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{context}{key} must be a number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{context}{key} must be an integer")
        return value
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"{context}{key} must be a string")
    return value


def _config_hash(config, seed):
    payload = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_box(block):
    _check_keys(block, {"lower", "upper"}, "box")
    try:
        return search.ParamBox(lower=np.asarray(block["lower"], dtype=float),
                               upper=np.asarray(block["upper"], dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad search box: {err}") from None


# ---------------------------------------------------------------------------
# synth


_SYNTH_KEYS = {"box", "budget", "sweep_samples", "branch", "limits"}
_LIMIT_KEYS = {"max_delta", "min_transmission_deg", "min_cycle_ratio"}


def _sweep_samples(config, context):
    count = _get(config, "sweep_samples", int, search.DEFAULT_SWEEP_SAMPLES,
                 context)
    if count < 2:
        raise ConfigError("sweep_samples must be at least 2")
    return count


def cmd_synth(config, out, seed):
    _check_keys(config, _SYNTH_KEYS, "synth config")
    box = _parse_box(config["box"]) if "box" in config else search.DEFAULT_BOX
    budget = _get(config, "budget", int, 2 ** 14, "synth ")
    count = _sweep_samples(config, "synth ")
    branch = _get(config, "branch", int, 1, "synth ")
    if branch not in (1, -1):
        raise ConfigError("branch must be 1 or -1")
    if not 1 <= budget < INDEX_LIMIT:
        raise ConfigError(f"budget must lie in 1..{INDEX_LIMIT - 1}")
    limits_block = config.get("limits", {})
    _check_keys(limits_block, _LIMIT_KEYS, "limits")
    limits = search.FeasibilityLimits(
        max_delta=_get(limits_block, "max_delta", float, np.inf, "limits "),
        min_transmission_deg=_get(limits_block, "min_transmission_deg",
                                  float, 0.0, "limits "),
        min_cycle_ratio=_get(limits_block, "min_cycle_ratio", float, 0.0,
                             "limits "),
    )

    tag = _config_hash(config, seed)
    records = search.scan(box, budget, count=count, branch=branch)
    feasible = search.filter_feasible(records, limits)
    pareto = search.pareto_filter(feasible)

    search.write_sampling_table(records, out / "sampling_table.csv",
                                header_comment=f"config {tag}")
    search.write_sampling_table(pareto, out / "pareto.csv",
                                header_comment=f"config {tag}")

    assemblable = sum(r.feasible for r in records)
    if not feasible:
        raise InfeasibleError(
            "no sample satisfies the feasibility limits",
            diagnostics={"budget": budget, "assemblable": assemblable,
                         "feasible": 0, "config_hash": tag})

    best = min(feasible, key=lambda r: r.delta0)
    p = best.params
    try:
        poses = sweep(p, 200)
    except SweepInvalidError:
        # a design feasible at the scan resolution can straddle a thin
        # unassemblable sliver at finer sampling; plot what was checked
        poses = sweep(p, count)
    path = coupler_path(poses, best.solution.coupler_point)
    line = best.solution.line
    targets = line.points(np.linspace(0.0, 1.0, 200))
    plot = SvgPlot(title="best foot trajectory vs target line",
                   equal_aspect=True)
    plot.add_line(path[:, 0], path[:, 1], label="coupler path")
    plot.add_line(targets[:, 0], targets[:, 1], label="target line")
    plot.write(out / "best_trajectory.svg", comment=f"config {tag}")

    summary = {
        "config_hash": tag,
        "budget": budget,
        "assemblable": assemblable,
        "feasible": len(feasible),
        "pareto": len(pareto),
        "best": {
            "crank": p.crank, "coupler": p.coupler, "rocker": p.rocker,
            "start_angle": p.start_angle, "support_arc": p.support_arc,
            "delta0": best.delta0, "rms": float(np.sqrt(best.delta0)),
            "min_transmission_deg": best.metrics.min_transmission_deg,
            "cycle_ratio": best.metrics.cycle_ratio,
            "support_deg": best.metrics.support_deg,
            "coupler_point": best.solution.coupler_point.tolist(),
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


_PARETO_KEYS = {"box", "sweep_samples", "branch", "coupler", "ga",
                "sampling_table"}
_GA_KEYS = {"population", "generations", "crossover_prob", "crossover_eta",
            "mutation_prob", "mutation_eta"}


def _overlap_report(front, table_points):
    """Front-to-table comparison: chamfer distances in normalized
    objective space plus mutual domination counts."""
    combined = np.vstack([front, table_points])
    lo = combined.min(axis=0)
    extent = np.ptp(combined, axis=0)
    span = np.where(extent > 0, extent, 1.0)
    f = (front - lo) / span
    t = (table_points - lo) / span
    d_ft = np.sqrt(((f[:, None, :] - t[None, :, :]) ** 2).sum(axis=2))
    front_dominated = search.dominates(table_points, front).any(axis=0).sum()
    table_dominated = search.dominates(front, table_points).any(axis=0).sum()
    return {
        "front_size": int(len(front)),
        "table_size": int(len(table_points)),
        "mean_front_to_table": float(d_ft.min(axis=1).mean()),
        "mean_table_to_front": float(d_ft.min(axis=0).mean()),
        "front_points_dominated_by_table": int(front_dominated),
        "table_points_dominated_by_front": int(table_dominated),
    }


_TABLE_COLUMNS = {"feasible", "delta0", "min_transmission_deg"}


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
            missing = _TABLE_COLUMNS - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"missing columns {sorted(missing)}")
            for row in reader:
                if row["feasible"] != "1":
                    continue
                pts.append([float(row["delta0"]),
                            -np.radians(float(row["min_transmission_deg"]))])
    except (OSError, TypeError, ValueError, csv.Error) as err:
        raise ConfigError(f"cannot read sampling table {path!r}: {err}") from None
    return pts


def cmd_pareto(config, out, seed):
    _check_keys(config, _PARETO_KEYS, "pareto config")
    box = _parse_box(config["box"]) if "box" in config else search.DEFAULT_BOX
    count = _sweep_samples(config, "pareto ")
    branch = _get(config, "branch", int, 1, "pareto ")
    coupler = _get(config, "coupler", str, "solved", "pareto ")
    ga_block = config.get("ga", {})
    _check_keys(ga_block, _GA_KEYS, "ga")
    try:
        ga = nsga2.GAConfig(
            population=_get(ga_block, "population", int, 100, "ga "),
            generations=_get(ga_block, "generations", int, 250, "ga "),
            crossover_prob=_get(ga_block, "crossover_prob", float, 0.9, "ga "),
            crossover_eta=_get(ga_block, "crossover_eta", float, 15.0, "ga "),
            mutation_prob=_get(ga_block, "mutation_prob", float, None, "ga "),
            mutation_eta=_get(ga_block, "mutation_eta", float, 20.0, "ga "),
            seed=seed)
        problem = nsga2.leg_problem(box=box, count=count, branch=branch,
                                    coupler=coupler)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    table_path = _get(config, "sampling_table", str, None, "pareto ")
    table_points = [] if table_path is None else _read_table_points(table_path)

    tag = _config_hash(config, seed)
    result = nsga2.evolve(problem, ga)

    with open(out / "hypervolume.csv", "w") as fh:
        fh.write(f"# config {tag}\n")
        fh.write("generation,hypervolume,best_error,best_transmission_rad\n")
        for row in result.trace:
            best_mu = -row.best_objectives[1]
            fh.write(f"{row.generation},{row.hypervolume:.12g},"
                     f"{row.best_objectives[0]:.12g},{best_mu:.12g}\n")

    hv = [row.hypervolume for row in result.trace]
    plot = SvgPlot(title="hypervolume convergence")
    plot.add_line(np.arange(len(hv)), np.array(hv), label="hypervolume")
    plot.write(out / "hypervolume.svg", comment=f"config {tag}")

    front = [result.population[i] for i in result.fronts[0]]
    front = [ind for ind in front if ind.feasible]
    with open(out / "front.csv", "w") as fh:
        fh.write(f"# config {tag}\n")
        names = ["crank", "coupler", "rocker", "start_angle", "support_arc"]
        if coupler == "explicit":
            names += ["coupler_x", "coupler_y"]
        fh.write(",".join(names) + ",error,transmission_rad\n")
        for ind in front:
            genes = ",".join(f"{g:.12g}" for g in ind.genome)
            fh.write(f"{genes},{ind.objectives[0]:.12g},"
                     f"{-ind.objectives[1]:.12g}\n")

    F = np.array([ind.objectives for ind in front]).reshape(-1, 2)
    if len(F):
        plot = SvgPlot(title="final front: error vs -transmission")
        plot.add_scatter(F[:, 0], F[:, 1], label="front")
        plot.write(out / "front.svg", comment=f"config {tag}")

    if table_points and len(F):
        report = _overlap_report(F, np.array(table_points))
        report["config_hash"] = tag
        _write_json(out / "overlap.json", report)

    final_hv = hv[-1] if hv else 0.0
    print(f"pareto: front size {len(front)}, final hypervolume "
          f"{final_hv:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# isotropy


_ISOTROPY_KEYS = {"family", "legs", "heading", "char_length", "tol"}
_FAMILY_KEYS = {"alpha1", "gamma1", "beta", "char_length", "variant", "sign"}
_LEG_KEYS = {"mount_radius", "mount_angle", "leg_angle", "foot_offset",
             "extension"}


def _isotropy_config(config):
    if "family" in config and "legs" in config:
        raise ConfigError("give either 'family' or 'legs', not both")
    if "family" in config:
        block = config["family"]
        _check_keys(block, _FAMILY_KEYS, "family")
        try:
            return iso.closed_form_family(
                alpha1=_get(block, "alpha1", float, 0.0, "family "),
                gamma1=_get(block, "gamma1", float, np.pi / 3, "family "),
                beta=_get(block, "beta", float, np.pi / 2, "family "),
                char_length=_get(block, "char_length", float, 1.0, "family "),
                variant=_get(block, "variant", int, 1, "family "),
                sign=_get(block, "sign", int, 1, "family "))
        except iso.UndefinedFamilyError:
            raise
        except ValueError as err:
            raise ConfigError(str(err)) from None
    if "legs" in config:
        legs = config["legs"]
        if not isinstance(legs, list) or len(legs) != 3:
            raise ConfigError("legs must be a list of exactly 3 objects")
        built = []
        for leg in legs:
            _check_keys(leg, _LEG_KEYS, "leg")
            try:
                built.append(iso.TripodLeg(
                    mount_radius=float(leg["mount_radius"]),
                    mount_angle=float(leg["mount_angle"]),
                    leg_angle=float(leg["leg_angle"]),
                    foot_offset=float(leg["foot_offset"]),
                    extension=float(leg["extension"])))
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"bad leg: {err}") from None
        try:
            return iso.TripodConfig(
                legs=tuple(built),
                heading=_get(config, "heading", float, 0.0),
                char_length=_get(config, "char_length", float, 1.0))
        except ValueError as err:
            raise ConfigError(str(err)) from None
    return iso.closed_form_family(alpha1=0.0, gamma1=np.pi / 3,
                                  beta=np.pi / 2)


def cmd_isotropy(config, out, seed):
    _check_keys(config, _ISOTROPY_KEYS, "isotropy config")
    tag = _config_hash(config, seed)
    try:
        stance = _isotropy_config(config)
        tol = _get(config, "tol", float, 1e-8)
        report = iso.isotropy_report(stance, tol=tol)
        jacobian = iso.jacobian_via_AB(stance)
    except (iso.SingularLegError, iso.SingularConfigurationError,
            iso.UndefinedFamilyError) as err:
        raise InfeasibleError(str(err), diagnostics={"config_hash": tag,
                                                     "error": str(err)})

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
    hips = np.array([stance.position + iso.rot2(stance.heading) @ (
        leg.mount_radius * np.array([np.cos(leg.mount_angle),
                                     np.sin(leg.mount_angle)]))
        for leg in stance.legs])
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


_MOBILITY_KEYS = {"graphs", "use_reference_fixtures"}
_GRAPH_KEYS = {"space", "moving_links", "p5", "p4", "p3", "p2", "p1",
               "actuated_inputs", "label"}


def cmd_mobility(config, out, seed):
    _check_keys(config, _MOBILITY_KEYS, "mobility config")
    tag = _config_hash(config, seed)
    blocks = config.get("graphs", [])
    if not isinstance(blocks, list):
        raise ConfigError("graphs must be a list of objects")
    graphs = []
    if config.get("use_reference_fixtures", not blocks):
        graphs.extend(reference_graphs())
    for block in blocks:
        _check_keys(block, _GRAPH_KEYS, "graph")
        try:
            graphs.append(MechanismGraph(
                space=block["space"],
                moving_links=int(block["moving_links"]),
                p5=int(block.get("p5", 0)), p4=int(block.get("p4", 0)),
                p3=int(block.get("p3", 0)), p2=int(block.get("p2", 0)),
                p1=int(block.get("p1", 0)),
                actuated_inputs=block.get("actuated_inputs"),
                label=str(block.get("label", ""))))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad graph: {err}") from None

    results = rationality_report(graphs)
    with open(out / "mobility.csv", "w", newline="") as fh:
        fh.write(f"# config {tag}\n")
        writer = csv.writer(fh)
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


_SLAM_KEYS = {"world", "script", "sensor", "odometry_noise", "process_noise",
              "start_pose", "plan"}
_SENSOR_KEYS = {"max_range", "fov", "n_rays", "range_sigma", "bearing_sigma"}
_SCRIPT_KEYS = {"type", "side", "speed", "dt", "steps", "velocity",
                "angular_velocity"}
_PLAN_KEYS = {"start", "goal", "occupied_threshold"}


def _parse_script(block):
    if isinstance(block, list):
        steps = []
        for item in block:
            _check_keys(item, {"velocity", "angular_velocity", "dt"}, "step")
            try:
                steps.append(slam.MotionInput(
                    velocity=float(item["velocity"]),
                    angular_velocity=float(item["angular_velocity"]),
                    dt=float(item["dt"])))
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"bad script step: {err}") from None
        return steps
    _check_keys(block, _SCRIPT_KEYS, "script")
    kind = _get(block, "type", str, "loop", "script ")
    if kind == "loop":
        return slam.loop_script(side=_get(block, "side", float, 2.0),
                                speed=_get(block, "speed", float, 0.25),
                                dt=_get(block, "dt", float, 0.1))
    if kind == "constant":
        steps = _get(block, "steps", int, 100, "script ")
        return [slam.MotionInput(
            velocity=_get(block, "velocity", float, 0.2),
            angular_velocity=_get(block, "angular_velocity", float, 0.0),
            dt=_get(block, "dt", float, 0.1))] * steps
    raise ConfigError(f"unknown script type {kind!r}")


def cmd_slam(config, out, seed):
    _check_keys(config, _SLAM_KEYS, "slam config")
    tag = _config_hash(config, seed)

    world_block = config.get("world")
    if world_block is None:
        world = slam.desk_world()
    elif isinstance(world_block, str):
        try:
            world = slam.load_world(world_block)
        except (OSError, slam.WorldFormatError) as err:
            raise ConfigError(f"bad world file: {err}") from None
    else:
        try:
            world = slam.world_from_dict(world_block)
        except slam.WorldFormatError as err:
            raise ConfigError(str(err)) from None

    sensor_block = config.get("sensor", {})
    _check_keys(sensor_block, _SENSOR_KEYS, "sensor")
    try:
        sensor = slam.SensorConfig(
            max_range=_get(sensor_block, "max_range", float, 5.0),
            fov=_get(sensor_block, "fov", float, 2.0 * np.pi),
            n_rays=_get(sensor_block, "n_rays", int, 72),
            range_sigma=_get(sensor_block, "range_sigma", float, 0.0),
            bearing_sigma=_get(sensor_block, "bearing_sigma", float, 0.0))
    except ValueError as err:
        raise ConfigError(str(err)) from None

    odo_block = config.get("odometry_noise", {})
    _check_keys(odo_block, {"velocity_sigma", "angular_sigma"},
                "odometry_noise")
    odometry = slam.OdometryNoise(
        velocity_sigma=_get(odo_block, "velocity_sigma", float, 0.0),
        angular_sigma=_get(odo_block, "angular_sigma", float, 0.0))
    proc_block = config.get("process_noise", {})
    _check_keys(proc_block, {"x", "y", "heading"}, "process_noise")
    process = slam.ProcessNoise(x=_get(proc_block, "x", float, 0.0),
                                y=_get(proc_block, "y", float, 0.0),
                                heading=_get(proc_block, "heading", float,
                                             0.0))

    script = _parse_script(config.get("script", {"type": "loop"}))
    if not script:
        raise ConfigError("script must have at least one step")
    start = config.get("start_pose", [0.0, 0.0, 0.0])
    if (not isinstance(start, list) or len(start) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in start)):
        raise ConfigError("start_pose must be [x, y, heading]")
    log = slam.simulate(world, script, sensor, odometry=odometry,
                        process=process, seed=seed, start_pose=start)

    slam.write_run_log(log, out / "run_log.csv",
                       header_comment=f"config {tag}")
    slam.write_grid_pgm(log.final_state.grid, out / "grid.pgm",
                        comment=f"config {tag}")

    slam_err, dr_err = log.final_errors()
    summary = {
        "config_hash": tag,
        "steps": len(log.steps),
        "final_slam_error": slam_err,
        "final_dead_reckoning_error": dr_err,
        "min_cov_eigenvalue": min(s.min_cov_eigenvalue for s in log.steps),
        "landmarks_mapped": len(log.final_state.landmark_ids),
    }

    if "plan" in config:
        plan_block = config["plan"]
        _check_keys(plan_block, _PLAN_KEYS, "plan")
        grid = log.final_state.grid
        try:
            cells = slam.plan_path(
                grid,
                tuple(plan_block["start"]), tuple(plan_block["goal"]),
                occupied_threshold=_get(plan_block, "occupied_threshold",
                                        float, 0.5))
        except (KeyError, TypeError) as err:
            raise ConfigError(f"bad plan block: {err}") from None
        except (ValueError, slam.NoPathError) as err:
            raise InfeasibleError(str(err),
                                  diagnostics={"config_hash": tag,
                                               "error": str(err)})
        slam.write_path_csv(cells, out / "path.csv",
                            header_comment=f"config {tag}")
        occupied = np.argwhere(grid.probabilities() > 0.5)
        plot = SvgPlot(title="planned path", equal_aspect=True)
        if len(occupied):
            plot.add_scatter(occupied[:, 1], occupied[:, 0],
                             label="occupied", radius=1.5)
        arr = np.array(cells)
        plot.add_line(arr[:, 1], arr[:, 0], label="path")
        plot.write(out / "path.svg", comment=f"config {tag}")
        summary["path_cells"] = len(cells)
        summary["path_cost"] = slam.path_cost(cells)

    _write_json(out / "summary.json", summary)
    print(f"slam: {len(log.steps)} steps, final error slam {slam_err:.3g} "
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
        config = _load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args.seed)
    except ConfigError as err:
        print(f"legsynth: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as err:
        print(f"legsynth: infeasible: {err}", file=sys.stderr)
        diag_path = out / "diagnostics.json"
        try:
            _write_json(diag_path, err.diagnostics)
        except OSError:
            pass
        print(json.dumps(err.diagnostics, sort_keys=True), file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
