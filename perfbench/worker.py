"""One benchmark run of the legsynth CLI in a fresh interpreter.

Usage: python3 worker.py JOB_JSON

Prints `ready` once its imports, `legsynth.cli` among them, are done
(the parent times set-up up to that line), then runs `cli.main` once,
optionally traced, and prints one JSON line: exit code, wall time inside
`cli.main`, the host-speed gauge timed right before and after it, peak
resident memory, sha256 of every output file, check failures, quality
figures and, when traced, the span statistics.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import legsynth.cli as cli
import numpy as np

import checks
import tracer as tracing

CHECKS = {
    "synth-scan": checks.check_synth,
    "pareto-ga": checks.check_pareto,
    "slam-dense": checks.check_slam_dense,
    "slam-landmarks": checks.check_slam_landmarks,
}

# Wall-clock profiles sit outside the CLI's byte-identity promise.
UNHASHED = {"profile.json"}


def digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name not in UNHASHED}


def environment():
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def host_reference(rounds=2500):
    """Seconds a fixed mix of interpreter work and small numpy calls takes
    now: a gauge of the host's current speed.  It allocates next to
    nothing, so it leaves the run's peak memory alone."""
    phi = np.linspace(0.0, 3.0, 24)
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(rounds):
        acc += float((np.cos(phi + i) * np.sin(phi)).mean())
        for j in range(40):
            table[(i * 7 + j) % 97] = acc + j
    return time.perf_counter() - start


def main():
    print("ready", flush=True)
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(json.dumps({"fatal": f"legsynth imported from {cli.__file__}, not {src}"}))
        return 1
    tracer = missing = None
    if job["traced"]:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    out = Path(job["out"])
    argv = [job["command"], "--config", job["config_path"], "--out", str(out),
            "--seed", str(job["seed"])]
    captured = io.StringIO()
    failures = []
    reference = host_reference()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as err:
        code = err.code
    except Exception:  # the run is reported as failed, with its traceback
        code = None
        failures.append(traceback.format_exc())
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference += host_reference()

    result = {"code": code, "wall_s": wall, "reference_s": reference, "peak_rss_mb": rss_mb,
              "quality": {}, "work": 0}
    if code != 0:
        failures.append(f"exit code {code}: {captured.getvalue()[-2000:]}")
    else:
        try:
            found, result["quality"], result["work"] = CHECKS[job["workload"]](job["config"], out)
            failures += found
        except (OSError, ValueError, KeyError, IndexError) as err:
            failures.append(f"unreadable output: {type(err).__name__}: {err}")
    result["digests"] = digests(out)
    result["failures"] = failures
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["missing_layers"] = missing
    if job.get("environment"):
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
