"""Output checks for each workload, written against the files a run leaves
behind rather than against legsynth's own code.

Each check returns (failures, quality, work): a list of failure
messages, the workload's quality figures, and the amount of work the
outputs show was done (samples, genome evaluations or script steps).
"""

import csv
import json
import math

# Relative slack for figures that went through the CLI's %.12g / %.9g
# formatting before being compared.
PRINT_RTOL = 1e-9


def read_csv(path):
    """Rows of a CLI CSV file, skipping its leading `#` comment line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def clearly_dominates(a, b):
    """a is better than b in every objective (all minimized) by more than
    the print precision, so it dominates b whatever the unprinted digits."""
    return all(x < y - PRINT_RTOL * max(abs(x), abs(y)) for x, y in zip(a, b))


def weakly_dominates(a, b):
    """a is no worse than b in any objective, up to the print precision."""
    return all(x <= y + PRINT_RTOL * max(abs(x), abs(y)) for x, y in zip(a, b))


def mutually_nondominated(points):
    return not any(clearly_dominates(p, q) for p in points for q in points)


def residual_delta(params, branch, count, x):
    """Mean squared deviation of the coupler point from the target line,
    from a circle-intersection position analysis of the normalized
    four-bar (ground pivots at (0, 0) and (1, 0))."""
    crank, coupler, rocker, start, arc = params
    total = 0.0
    for i in range(count):
        k = i / (count - 1)
        phi = start + arc * k
        bx, by = crank * math.cos(phi), crank * math.sin(phi)
        dx, dy = 1.0 - bx, -by
        d = math.hypot(dx, dy)
        a = (coupler ** 2 - rocker ** 2 + d * d) / (2.0 * d)
        h = math.sqrt(coupler ** 2 - a * a)
        ux, uy = dx / d, dy / d
        cx = bx + a * ux - branch * h * uy
        cy = by + a * uy + branch * h * ux
        beta = math.atan2(cy - by, cx - bx)
        c, s = math.cos(beta), math.sin(beta)
        u = bx + x[0] * c - x[1] * s - x[2] - x[4] * k
        v = by + x[0] * s + x[1] * c - x[3] - x[5] * k
        total += u * u + v * v
    return total / count


def loop_steps(side, speed, dt):
    """Steps of the CLI's square loop script (four sides, four quarter
    turns at pi/4 rad/s)."""
    return 4 * (round(side / (speed * dt)) + round((math.pi / 2.0) / (math.pi / 4.0 * dt)))


def check_synth(config, out):
    failures = []
    table = read_csv(out / "sampling_table.csv")
    if len(table) != config["budget"]:
        failures.append(f"sampling table has {len(table)} rows, expected {config['budget']}")
    feasible = [r for r in table if r["feasible"] == "1"]
    front = read_csv(out / "pareto.csv")
    rows = {tuple(r.values()) for r in table}
    if any(tuple(r.values()) not in rows for r in front):
        failures.append("pareto.csv has a row that is not in the sampling table")

    def objectives(r):
        return (float(r["delta0"]), -float(r["min_transmission_deg"]), -float(r["cycle_ratio"]))

    front_points = [objectives(r) for r in front]
    if not mutually_nondominated(front_points):
        failures.append("pareto.csv rows are not mutually nondominated")
    front_index = {r["index"] for r in front}
    for r in feasible:
        if r["index"] in front_index:
            continue
        p = objectives(r)
        if not any(weakly_dominates(q, p) for q in front_points):
            failures.append(f"sample {r['index']} is nondominated but missing from pareto.csv")
            break
    if not feasible:
        failures.append("no assemblable sample")
        return failures, {}, len(table)

    best = min(feasible, key=lambda r: float(r["delta0"]))
    summary = json.loads((out / "summary.json").read_text())["best"]
    params = [float(best[k]) for k in ("crank", "coupler", "rocker", "start_angle", "support_arc")]
    reported = [summary[k] for k in ("crank", "coupler", "rocker", "start_angle", "support_arc")]
    if any(abs(p - q) > PRINT_RTOL * abs(q) for p, q in zip(params, reported)):
        failures.append("summary.json best design is not the table's lowest-delta0 row")
    line = summary["line"]
    x = summary["coupler_point"] + [line["x0"], line["y0"], line["span_x"], line["span_y"]]
    delta0 = float(best["delta0"])
    recomputed = residual_delta(params, config["branch"], config["sweep_samples"], x)
    # params and delta0 were printed to 12 digits; the tolerance covers that
    if abs(recomputed - delta0) > 1e-6 * delta0 + 1e-15:
        failures.append(f"best delta0 {delta0!r} but the direct residual gives {recomputed!r}")
    return failures, {"best_rms": math.sqrt(delta0)}, len(table)


def check_pareto(config, out):
    failures = []
    ga = config["ga"]
    trace = read_csv(out / "hypervolume.csv")
    if len(trace) != ga["generations"] + 1:
        failures.append(f"hypervolume.csv has {len(trace)} rows, expected {ga['generations'] + 1}")
    hv = [float(r["hypervolume"]) for r in trace]
    if any(b < a - PRINT_RTOL * abs(a) for a, b in zip(hv, hv[1:])):
        failures.append("hypervolume decreases between generations")
    front = read_csv(out / "front.csv")
    points = [(float(r["error"]), -float(r["transmission_rad"])) for r in front]
    if not points:
        failures.append("front.csv is empty")
    elif not mutually_nondominated(points):
        failures.append("front.csv rows are not mutually nondominated")
    quality = {"hv_final": hv[-1]} if hv else {}
    return failures, quality, ga["population"] * (len(trace))


def _pose_rmse(log):
    squares = [(float(r["slam_x"]) - float(r["truth_x"])) ** 2
               + (float(r["slam_y"]) - float(r["truth_y"])) ** 2 for r in log]
    return math.sqrt(sum(squares) / len(squares))


def _check_run_log(config, log):
    script = config["script"]
    expected = loop_steps(script["side"], script["speed"], script["dt"])
    if len(log) != expected:
        return [f"run_log.csv has {len(log)} steps, expected {expected}"]
    return []


def read_pgm(path):
    """Plain PGM as rows of ints, top row first."""
    with open(path) as fh:
        tokens = [t for line in fh if not line.startswith("#") for t in line.split()]
    if tokens[0] != "P2":
        raise ValueError("not a plain PGM file")
    width, height = int(tokens[1]), int(tokens[2])
    values = [int(t) for t in tokens[4:]]
    if len(values) != width * height:
        raise ValueError("PGM size does not match its header")
    return [values[i * width:(i + 1) * width] for i in range(height)]


def check_slam_dense(config, out):
    failures = []
    log = read_csv(out / "run_log.csv")
    failures += _check_run_log(config, log)
    summary = json.loads((out / "summary.json").read_text())
    if not summary["min_cov_eigenvalue"] >= -1e-12:
        failures.append(f"covariance eigenvalue {summary['min_cov_eigenvalue']} < -1e-12")
    cells = [(int(r["row"]), int(r["col"])) for r in read_csv(out / "path.csv")]
    plan = config["plan"]
    if not cells or cells[0] != tuple(plan["start"]) or cells[-1] != tuple(plan["goal"]):
        failures.append("path does not run from start to goal")
    if any(max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1 for a, b in zip(cells, cells[1:])):
        failures.append("path is not 8-connected")
    image = read_pgm(out / "grid.pgm")
    height = len(image)
    # the PGM stores round((1 - p) * 255); p > 0.5 (occupied) prints as <= 127
    if any(image[height - 1 - row][col] <= 127 for row, col in cells):
        failures.append("path crosses a cell grid.pgm marks occupied")
    return failures, {"pose_rmse_m": _pose_rmse(log)}, len(log)


def check_slam_landmarks(config, out):
    failures = []
    log = read_csv(out / "run_log.csv")
    failures += _check_run_log(config, log)
    summary = json.loads((out / "summary.json").read_text())
    max_range = config["sensor"]["max_range"]
    poses = [(float(r["truth_x"]), float(r["truth_y"])) for r in log]
    sure = unsure = 0
    for lm in config["world"]["landmarks"]:
        nearest = min(math.hypot(lm["x"] - x, lm["y"] - y) for x, y in poses)
        # run_log.csv prints poses to 9 digits; a landmark this close to
        # max_range may go either way
        if abs(nearest - max_range) < 1e-6:
            unsure += 1
        elif nearest < max_range:
            sure += 1
    mapped = summary["landmarks_mapped"]
    if not sure <= mapped <= sure + unsure:
        failures.append(f"{mapped} landmarks mapped, but {sure} came within range")
    return failures, {"pose_rmse_m": _pose_rmse(log)}, len(log)
