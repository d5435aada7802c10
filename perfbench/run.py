"""Benchmark of the legsynth command-line pipelines, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload synth-scan --seed 1 --seconds 30 --trace 0

`--workload` takes one name or a comma-separated list; a list is run
round-robin, one run of each workload in turn, so drift of the host is
shared between them.  Each run is one `legsynth.cli.main` call in a fresh
interpreter (perfbench/worker.py), one at a time: a closed loop with a
single client.  The CLI gets its defaults (no --threads, and
LEGSYNTH_THREADS removed from its environment).  The first run of each
workload warms the file and bytecode caches and is checked but not
timed.  Runs repeat until `--seconds` is used up, with at least
MIN_TIMED_ROUNDS timed runs.

`--trace 0` reports the end-to-end metrics, each the median over the
timed runs: set-up time (interpreter start until `legsynth.cli` is
imported), wall time inside `cli.main`, work per second at the workload's
stated size, and peak resident memory of the run's process.  `--trace 1`
alternates untraced and traced runs and reports the per-layer span
statistics of the traced ones (perfbench/tracer.py), the tracing
overhead, and the workload's quality figure.

Times are host-normalized.  The speed of a small shared virtual machine
drifts by itself: on the 2-vCPU development host the same run took up to
1.5x longer for stretches of one to twenty seconds.  Between two sets of
ten 30-second runs the raw medians moved by 8-18%.  Each worker
therefore times a fixed gauge (`host_reference`) right before and right
after its `cli.main` call, and every time it reports is multiplied by
REFERENCE_S / gauge time; the same two sets then moved by at most 5%.
The raw seconds and the gauge times are in the report line.

Every run's outputs are checked (perfbench/checks.py) and hashed; runs of
one workload and seed must produce byte-identical files.  A run that
fails either way counts in `failed`.  The last line of standard output
is the result object; the line before it is a report with the per-run
figures, host noise (CPU steal, load average) and the environment.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

MIN_TIMED_ROUNDS = 3
# Every run of the benchmark must end within 180 s; children are killed
# at this point and count as failed.
HARD_LIMIT_S = 165.0

SENSOR = {"max_range": 5.0, "n_rays": 360, "range_sigma": 0.05, "bearing_sigma": 0.01}
VEHICLE_NOISE = {
    "odometry_noise": {"velocity_sigma": 0.05, "angular_sigma": 0.03},
    "process_noise": {"x": 0.001, "y": 0.001, "heading": 0.0005},
}


def synth_config(seed):
    del seed  # the scan is a pure function of its box and budget
    return {"budget": 4096, "sweep_samples": 24, "branch": 1}


def pareto_config(seed):
    del seed  # the CLI seed drives the genetic engine
    return {"sweep_samples": 24, "branch": 1, "ga": {"population": 100, "generations": 40}}


def slam_dense_config(seed):
    del seed  # the CLI seed drives the sensor and odometry noise
    return {"script": {"type": "loop", "side": 2.0, "speed": 1.0, "dt": 0.5},
            "sensor": SENSOR, **VEHICLE_NOISE,
            "plan": {"start": [5, 5], "goal": [50, 50]}}


def slam_landmarks_config(seed):
    rng = random.Random(seed)
    landmarks = [{"id": i + 1, "x": round(rng.uniform(-4.0, 10.0), 6),
                  "y": round(rng.uniform(-4.0, 10.0), 6)} for i in range(128)]
    world = {"landmarks": landmarks, "obstacles": [],
             "grid": {"resolution": 0.04, "origin": [-4.0, -4.0], "width": 350, "height": 350}}
    return {"world": world, "script": {"type": "loop", "side": 6.0, "speed": 0.5, "dt": 0.25},
            "sensor": dict(SENSOR, n_rays=0), **VEHICLE_NOISE}


@dataclass(frozen=True)
class Workload:
    command: str
    make_config: object
    why: str
    work_unit: str
    # layers this workload must reach; one with no calls is reported unreached
    home: tuple


_KERNEL = ("fourbar.sweep", "synthesis.assemble", "synthesis.solve")
_SLAM = ("slam.predict", "slam.observe", "slam.correct", "slam.update_map", "slam.simulate",
         "slam.write_run_log", "slam.write_grid_pgm")

WORKLOADS = {
    "synth-scan": Workload(
        "synth", synth_config,
        "legsynth synth, default box, 4096 LP-tau samples, 24 sweep samples, default "
        "2-thread pool: per-sample kernel plus the O(n^2) Pareto filter",
        "samples",
        ("lptau.lp_tau", *_KERNEL, "fourbar.gait_metrics", "synthesis.reduced_objective",
         "search.scan", "search.pareto_filter", "search.write_sampling_table",
         "svgplot.SvgPlot.write", "cli.main")),
    "pareto-ga": Workload(
        "pareto", pareto_config,
        "legsynth pareto, 100 x 40, seed from --seed: the same kernel one genome at a time, "
        "interleaved with sorting, crowding, hypervolume and breeding",
        "genome evaluations",
        (*_KERNEL, "nsga2.evaluate_leg", "nsga2.fast_nondominated_sort",
         "nsga2.crowding_distance", "nsga2.hypervolume_2d", "nsga2.evolve",
         "svgplot.SvgPlot.write", "cli.main")),
    "slam-dense": Workload(
        "slam", slam_dense_config,
        "legsynth slam, desk world, one 32-step loop, 360 noisy rays, A* plan, noise from "
        "--seed: ray casting and grid stamping dominate",
        "script steps",
        (*_SLAM, "slam.plan_path", "svgplot.SvgPlot.write", "cli.main")),
    "slam-landmarks": Workload(
        "slam", slam_landmarks_config,
        "legsynth slam, 128 landmarks placed from --seed, 224-step loop, no rays: mapping is "
        "bypassed and the O(n^3) EKF work dominates",
        "script steps",
        (*_SLAM, "cli.main")),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

# The two host_reference() gauges of one run, summed, on the 2-vCPU
# development host at full speed: reported times are rescaled to it.
REFERENCE_S = 0.05

QUALITY = {"best_rms": "1", "hv_final": "1", "pose_rmse_m": "m"}
WRITERS = ("search.write_sampling_table", "slam.write_run_log", "slam.write_grid_pgm",
           "svgplot.SvgPlot.write")


def per_layer_spec():
    """name -> (unit, better) of every per-layer metric."""
    spec = {}
    for layer in LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.time_s"] = ("s", "lower")
        spec[f"{layer}.self_s"] = ("s", "lower")
    spec.update({
        "synthesis.solve.rank_deficient": ("count", "lower"),
        "search.scan.feasible_ratio": ("ratio", "higher"),
        "search.scan.threads": ("count", "lower"),
        "search.pareto_filter.n_in": ("count", "lower"),
        "search.pareto_filter.n_out": ("count", "lower"),
        **{f"{w}.bytes": ("bytes", "lower") for w in WRITERS},
        "nsga2.evaluate_leg.infeasible_ratio": ("ratio", "lower"),
        "slam.observe.rays": ("count", "lower"),
        "slam.observe.hit_ratio": ("ratio", "higher"),
        "slam.correct.skipped": ("count", "lower"),
        "slam.plan_path.cells": ("count", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.unreached": ("count", "lower"),
        "result.best_rms": (QUALITY["best_rms"], "lower"),
        "result.hv_final": (QUALITY["hv_final"], "higher"),
        "result.pose_rmse_m": (QUALITY["pose_rmse_m"], "lower"),
    })
    return spec


def layer_values(spans, quality):
    """Per-layer metric values of one traced run (0 where never called)."""
    def get(layer, key):
        return spans.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for layer in LAYERS:
        for stat in ("calls", "time_s", "self_s"):
            values[f"{layer}.{stat}"] = get(layer, stat)
    values.update({
        "synthesis.solve.rank_deficient": get("synthesis.solve", "rank_deficient"),
        "search.scan.feasible_ratio": ratio(get("search.scan", "assemblable"),
                                            get("search.scan", "attempted")),
        # the scan's kernel entry runs only on the scan's pool threads
        "search.scan.threads": get("synthesis.reduced_objective", "threads"),
        "search.pareto_filter.n_in": get("search.pareto_filter", "n_in"),
        "search.pareto_filter.n_out": get("search.pareto_filter", "n_out"),
        **{f"{w}.bytes": get(w, "bytes") for w in WRITERS},
        "nsga2.evaluate_leg.infeasible_ratio": ratio(
            get("nsga2.evaluate_leg", "raised.SweepInvalidError"),
            get("nsga2.evaluate_leg", "calls")),
        "slam.observe.rays": get("slam.observe", "rays"),
        "slam.observe.hit_ratio": ratio(get("slam.observe", "hits"), get("slam.observe", "rays")),
        "slam.correct.skipped": get("slam.correct", "skipped"),
        "slam.plan_path.cells": get("slam.plan_path", "cells"),
    })
    for name in QUALITY:
        values[f"result.{name}"] = quality.get(name, 0.0)
    return values


def read_steal_s():
    """Machine-wide CPU steal time so far, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def child_env(src):
    # the CLI runs with its defaults: no thread-count override
    env = {k: v for k, v in os.environ.items() if k != "LEGSYNTH_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def run_once(job, env, timeout):
    """One worker process; returns its result with set-up time and host
    noise figures added, or a failed record."""
    out = Path(job["out"])
    shutil.rmtree(out, ignore_errors=True)
    steal_before = read_steal_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=HERE.parent)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, err = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    steal_after = read_steal_s()
    lines = rest.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if first.strip() == "ready" and lines else {}
    except json.JSONDecodeError:
        record = {}
    if "failures" not in record:
        record = {"failures": [record.get("fatal") or
                               f"worker exited {proc.returncode}: {err.strip()[-2000:]}"]}
    record["setup_s"] = setup
    record["traced"] = job["traced"]
    record["load_avg_1m"] = os.getloadavg()[0]
    if steal_before is not None and steal_after is not None:
        record["steal_s"] = steal_after - steal_before
    return record


def spread(values):
    """Sample count, median, quartiles and range of a list of numbers."""
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def normalized(record):
    """A run's end-to-end figures, times rescaled to REFERENCE_S."""
    scale = REFERENCE_S / record["reference_s"]
    wall = record["wall_s"] * scale
    return {"setup_s": record["setup_s"] * scale, "wall_s": wall,
            "work_per_s": record["work"] / wall, "peak_rss_mb": record["peak_rss_mb"]}


def traced_values(record):
    """Per-layer values of a traced run, times rescaled to REFERENCE_S."""
    scale = REFERENCE_S / record["reference_s"]
    values = layer_values(record["spans"], record["quality"])
    return {k: v * scale if k.endswith(("time_s", "self_s")) else v for k, v in values.items()}


def summarize(name, records, traced):
    """(result object, report) for one workload's records."""
    reference = next((r["digests"] for r in records if r.get("digests")), None)
    for r in records:
        if "digests" in r and r["digests"] != reference:
            changed = sorted(k for k in set(r["digests"]) | set(reference)
                             if r["digests"].get(k) != reference.get(k))
            r["failures"].append(f"outputs differ from the first run's: {changed}")
    failed = sum(bool(r["failures"]) for r in records)
    good = [r for r in records[1:] if not r["failures"]]
    plain = [normalized(r) for r in good if not r["traced"]]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    workload = WORKLOADS[name]
    report = {
        "work_unit": workload.work_unit,
        "fail_rate": failed / len(records),
        "failures": [f for r in records for f in r["failures"]][:5],
        "digests": reference,
        "quality": records[0].get("quality", {}),
        "runs": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "reference_s",
                                         "peak_rss_mb", "steal_s", "load_avg_1m")}
                 for r in records],
        "normalized": {k: spread([p[k] for p in plain]) for k in END_TO_END},
        "raw": {k: spread([r[k] for r in good if not r["traced"]])
                for k in ("setup_s", "wall_s", "reference_s")},
    }
    if traced:
        spans = [r for r in good if r["traced"]]
        per_run = [traced_values(r) for r in spans]
        metrics = {k: median(v[k] for v in per_run)
                   for k in per_layer_spec() if not k.startswith("trace.")}
        metrics["trace.overhead_s"] = (median(normalized(r)["wall_s"] for r in spans)
                                       - median(p["wall_s"] for p in plain))
        unreached = sorted(layer for layer in workload.home
                           if not metrics[f"{layer}.calls"])
        metrics["trace.unreached"] = len(unreached)
        report["unreached"] = unreached
        report["missing_layers"] = spans[0]["missing_layers"] if spans else None
        report["probe_failed"] = sorted({layer for r in spans for layer, stat in r["spans"].items()
                                         if stat.get("probe_failed")})
        units = per_layer_spec()
    else:
        metrics = {k: median(p[k] for p in plain) for k in END_TO_END}
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or a comma-separated list" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")

    root = HERE.parent
    src = root / "src"
    if not (src / "legsynth" / "cli.py").is_file():
        print(f"perfbench: no legsynth sources under {src}", file=sys.stderr)
        return 2
    env = child_env(src)
    work = root / ".perfbench_work"
    jobs = {}
    for i, name in enumerate(names):
        workload = WORKLOADS[name]
        directory = work / name
        directory.mkdir(parents=True, exist_ok=True)
        config = workload.make_config(args.seed)
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config, indent=1))
        jobs[name] = {"workload": name, "command": workload.command, "config": config,
                      "config_path": str(config_path), "out": str(directory / "out"),
                      "seed": args.seed, "src": str(src), "traced": False,
                      "environment": i == 0}

    start = time.perf_counter()
    deadline = start + args.seconds
    records = {name: [] for name in names}
    modes = (False, True) if args.trace else (False,)
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for name in names:
            # round 0 is the untimed warm-up run
            for traced in modes if rounds else (False,):
                job = dict(jobs[name], traced=traced, environment=jobs[name]["environment"]
                           and not rounds)
                timeout = max(1.0, start + HARD_LIMIT_S - time.perf_counter())
                records[name].append(run_once(job, env, timeout))
        rounds += 1
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S or (rounds > MIN_TIMED_ROUNDS
                                          and now + (now - round_start) > deadline):
            break

    results, reports = {}, {}
    for name in names:
        results[name], reports[name] = summarize(name, records[name], args.trace)
    env_info = next((r["environment"] for rs in records.values() for r in rs
                     if "environment" in r), {})
    env_info["num_threads_env"] = {k: v for k, v in os.environ.items()
                                   if k.endswith("_NUM_THREADS")}
    env_info["legsynth_threads_removed"] = "LEGSYNTH_THREADS" in os.environ
    print(json.dumps({"report": reports, "environment": env_info, "seed": args.seed,
                      "seconds": args.seconds, "rounds": rounds}))
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
