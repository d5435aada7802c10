import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from legsynth import cli, nsga2, search, slam
from legsynth.cli import _overlap_report, main
from legsynth.slam import desk_world

TIGHT_BOX = {
    "lower": [0.45, 1.15, 1.15, 0.9599310885968813, 3.8310770045216016],
    "upper": [0.55, 1.35, 1.35, 1.3089969389957472, 3.9269908169872414],
}


def world_to_dict(world):
    """The world document that `cli._world` reads back as `world`."""
    return {
        "landmarks": [{"id": int(lid), "x": float(p[0]), "y": float(p[1])}
                      for lid, p in sorted(world.landmarks.items())],
        "obstacles": [np.asarray(poly).tolist() for poly in world.obstacles],
        "grid": {"resolution": world.grid_resolution,
                 "origin": list(map(float, world.grid_origin)),
                 "width": world.grid_width, "height": world.grid_height},
    }


def run(tmp_path, command, config, seed=0, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out", str(out),
                 "--seed", str(seed), *extra])
    return code, out


class TestSynth:
    def test_small_run_produces_artifacts(self, tmp_path):
        code, out = run(tmp_path, "synth", {"box": TIGHT_BOX, "budget": 64})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["feasible"] > 0
        assert (out / "sampling_table.csv").exists()
        assert (out / "pareto.csv").exists()
        assert (out / "best_trajectory.svg").exists()

    def test_budget_one(self, tmp_path):
        code, out = run(tmp_path, "synth", {"box": TIGHT_BOX, "budget": 1})
        assert code == 0
        lines = (out / "sampling_table.csv").read_text().splitlines()
        assert len(lines) == 3  # comment + header + one row

    def test_byte_identical_reruns(self, tmp_path):
        config = {"box": TIGHT_BOX, "budget": 32}
        _, out_a = run(tmp_path / "a", "synth", config)
        _, out_b = run(tmp_path / "b", "synth", config)
        assert (out_a / "sampling_table.csv").read_bytes() \
            == (out_b / "sampling_table.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() \
            == (out_b / "summary.json").read_bytes()

    def test_retired_thread_flag_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(tmp_path, "synth", {"box": TIGHT_BOX, "budget": 8},
                extra=("--threads", "4"))
        assert info.value.code == 1

    def test_config_hash_in_headers(self, tmp_path):
        code, out = run(tmp_path, "synth", {"box": TIGHT_BOX, "budget": 8})
        assert code == 0
        first = (out / "sampling_table.csv").read_text().splitlines()[0]
        assert first.startswith("# config ")
        tag = first.split()[-1]
        assert json.loads((out / "summary.json").read_text())["config_hash"] \
            == tag

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "synth", {"budgets": 64})
        assert code == 1

    def test_empty_feasible_set_is_infeasible(self, tmp_path):
        config = {"box": TIGHT_BOX, "budget": 16,
                  "limits": {"min_transmission_deg": 91.0}}
        code, out = run(tmp_path, "synth", config)
        assert code == 2
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["feasible"] == 0
        assert diagnostics["assemblable"] > 0

    def test_overflowing_link_lengths_are_infeasible(self, tmp_path, capsys):
        # |BD|^2 overflows, so no discriminant is finite: every design is
        # rejected with its reason, and no sweep reaches the solver
        box = {"lower": [1e200, 1e200, 1e200, 0.0, 3.2],
               "upper": [2e200, 2e200, 2e200, 6.0, 5.0]}
        code, out = run(tmp_path, "synth", {"box": box, "budget": 16})
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        rows = (out / "sampling_table.csv").read_text().splitlines()[2:]
        assert all(row.endswith("(discriminant nan)") for row in rows)


UNDERFLOW_BOX = {"lower": [1e-300, 1e-300, 1e-300, 0.0, 3.2],
                 "upper": [2e-300, 2e-300, 2e-300, 6.0, 5.0]}


@pytest.mark.parametrize("command, config, code", [
    ("synth", {"box": UNDERFLOW_BOX, "budget": 16}, 2),
    ("pareto", {"box": UNDERFLOW_BOX,
                "ga": {"population": 16, "generations": 2}}, 0),
], ids=["synth", "pareto"])
def test_underflowing_link_products_print_no_warning(tmp_path, command,
                                                     config, code):
    # products of the links underflow to 0; a separate interpreter with
    # the default warning filters prints what a user would see
    (tmp_path / "config.json").write_text(json.dumps(config))
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "legsynth.cli", command, "--config",
         "config.json", "--out", "out"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default"),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == code, result.stderr
    assert "Warning" not in result.stderr


class TestPareto:
    def test_zero_generations_front_is_initial_rank0(self, tmp_path):
        config = {"box": TIGHT_BOX,
                  "ga": {"population": 16, "generations": 0}}
        code, out = run(tmp_path, "pareto", config)
        assert code == 0
        lines = [l for l in (out / "front.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) >= 2  # header + at least one front member

    def test_seeded_rerun_identical_front(self, tmp_path):
        config = {"box": TIGHT_BOX,
                  "ga": {"population": 16, "generations": 5}}
        _, out_a = run(tmp_path / "a", "pareto", config, seed=3)
        _, out_b = run(tmp_path / "b", "pareto", config, seed=3)
        assert (out_a / "front.csv").read_bytes() \
            == (out_b / "front.csv").read_bytes()
        assert (out_a / "hypervolume.csv").read_bytes() \
            == (out_b / "hypervolume.csv").read_bytes()

    def test_hypervolume_trace_monotone(self, tmp_path):
        config = {"box": TIGHT_BOX,
                  "ga": {"population": 20, "generations": 30}}
        code, out = run(tmp_path, "pareto", config)
        assert code == 0
        rows = [l.split(",") for l in
                (out / "hypervolume.csv").read_text().splitlines()[2:]]
        hv = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_box_with_a_pinned_axis(self, tmp_path):
        # equal bounds pin the crank, as under synth
        box = {"lower": [0.3, 1.0, 1.0, 0.0, 3.5],
               "upper": [0.3, 1.5, 1.5, 6.0, 5.0]}
        config = {"box": box, "ga": {"population": 16, "generations": 3}}
        code, out = run(tmp_path, "pareto", config)
        assert code == 0
        rows = (out / "front.csv").read_text().splitlines()[2:]
        assert rows and all(row.split(",")[0] == "0.3" for row in rows)

    def test_invalid_ga_config_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "pareto",
                      {"ga": {"population": 7, "generations": 1}})
        assert code == 1

    def test_overlap_report_against_table(self, tmp_path):
        synth_code, synth_out = run(tmp_path / "synth", "synth",
                                    {"box": TIGHT_BOX, "budget": 32})
        assert synth_code == 0
        config = {"box": TIGHT_BOX,
                  "ga": {"population": 16, "generations": 5},
                  "sampling_table": str(synth_out / "sampling_table.csv")}
        code, out = run(tmp_path / "ga", "pareto", config)
        assert code == 0
        overlap = json.loads((out / "overlap.json").read_text())
        assert overlap["front_size"] > 0
        assert overlap["table_size"] == 32
        assert overlap["mean_front_to_table"] >= 0.0

    def test_overlap_report_skips_infeasible_rows(self, tmp_path):
        # the default box rejects some designs: their rows carry a reason
        # and no figures, and the report reads only the feasible ones
        synth_code, synth_out = run(tmp_path / "synth", "synth",
                                    {"budget": 256})
        assert synth_code == 0
        table = synth_out / "sampling_table.csv"
        with open(table, newline="") as fh:
            fh.readline()
            flags = [row["feasible"] for row in csv.DictReader(fh)]
        feasible = flags.count("1")
        assert 0 < feasible < len(flags) == 256
        config = {"ga": {"population": 8, "generations": 2},
                  "sampling_table": str(table)}
        code, out = run(tmp_path / "ga", "pareto", config)
        assert code == 0
        overlap = json.loads((out / "overlap.json").read_text())
        assert overlap["table_size"] == feasible

    @pytest.mark.parametrize("seed", range(5))
    def test_overlap_counts_match_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # integer coordinates on a 4 x 4 grid make ties and repeats common
        front = rng.integers(0, 4, size=(rng.integers(1, 15), 2)).astype(float)
        table = rng.integers(0, 4, size=(rng.integers(1, 40), 2)).astype(float)

        def dominated_count(points, others):
            return sum(
                any(all(o <= p for o, p in zip(other, point))
                    and any(o < p for o, p in zip(other, point))
                    for other in others)
                for point in points)

        report = _overlap_report(front, table)
        assert report["front_points_dominated_by_table"] \
            == dominated_count(front.tolist(), table.tolist())
        assert report["table_points_dominated_by_front"] \
            == dominated_count(table.tolist(), front.tolist())

    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_overlap_report_equals_one_shot(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        # a 4 x 4 grid repeats rows, so blocks of a few rows cut through ties
        front = rng.integers(0, 4, size=(rng.integers(1, 15), 2)).astype(float)
        table = rng.integers(0, 4, size=(rng.integers(1, 60), 2)).astype(float)
        combined = np.vstack([front, table])
        extent = np.ptp(combined, axis=0)
        span = np.where(extent > 0, extent, 1.0)
        f = (front - combined.min(axis=0)) / span
        t = (table - combined.min(axis=0)) / span
        d_ft = np.sqrt(((f[:, None, :] - t[None, :, :]) ** 2).sum(axis=2))
        one_shot = {
            "front_size": len(front), "table_size": len(table),
            "mean_front_to_table": float(d_ft.min(axis=1).mean()),
            "mean_table_to_front": float(d_ft.min(axis=0).mean()),
            "front_points_dominated_by_table": int(
                search.dominates(table, front).any(axis=0).sum()),
            "table_points_dominated_by_front": int(
                search.dominates(front, table).any(axis=0).sum()),
        }
        for pairs in (1, 3 * len(front), 7 * len(front), 10 ** 6):
            monkeypatch.setattr(cli, "OVERLAP_PAIRS", pairs)
            assert _overlap_report(front, table) == one_shot

    def test_overlap_report_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        front, table = rng.random((200, 2)), rng.random((500_000, 2))
        tracemalloc.start()
        try:
            report = _overlap_report(front, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["table_size"] == 500_000
        # one (front, table) array of distances alone would take 800 MB
        assert peak < 64 * 2 ** 20


# three legs of a sound stance, the base of the extreme-scale configs
STANCE_LEGS = [{"mount_radius": 1.0, "mount_angle": m, "leg_angle": a,
                "foot_offset": 0.2, "extension": 1.0}
               for m, a in ((0.0, 0.3), (2.0, 1.0), (-2.0, 2.0))]


class TestIsotropy:
    def test_family_defaults_are_isotropic(self, tmp_path):
        code, out = run(tmp_path, "isotropy",
                        {"family": {"gamma1": np.pi / 3}})
        assert code == 0
        payload = json.loads((out / "isotropy.json").read_text())
        assert payload["isotropic"]
        assert max(abs(r) for r in payload["residuals"]) <= 1e-10
        assert abs(payload["condition_number"] - 1.0) <= 1e-8
        assert (out / "layout.svg").exists()

    def test_explicit_legs(self, tmp_path):
        legs = [{"mount_radius": 1.0, "mount_angle": g, "leg_angle": a,
                 "foot_offset": 0.2, "extension": 1.0}
                for g, a in ((0.0, 0.4), (2.0, -0.6), (-2.0, 1.5))]
        code, out = run(tmp_path, "isotropy", {"legs": legs})
        assert code == 0
        payload = json.loads((out / "isotropy.json").read_text())
        assert not payload["isotropic"]

    def test_undefined_family_exit_2(self, tmp_path):
        config = {"family": {"alpha1": 0.0, "gamma1": 1.0, "beta": 1.0}}
        code, _ = run(tmp_path, "isotropy", config)
        assert code == 2

    def test_unknown_family_key_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "isotropy", {"family": {"gamma": 1.0}})
        assert code == 1

    @pytest.mark.parametrize("config, code, error", [
        pytest.param({"legs": [dict(STANCE_LEGS[0], mount_radius=1e200),
                               *STANCE_LEGS[1:]], "char_length": 1e-200},
                     2, "overflows", id="radius-1e200-length-1e-200"),
        pytest.param({"legs": [dict(leg, mount_radius=1e200, extension=1e200)
                               for leg in STANCE_LEGS],
                      "char_length": 1e200},
                     2, "overflows", id="lengths-1e200"),
        pytest.param({"legs": [dict(leg, mount_radius=1e-300,
                                    extension=1e-300, foot_offset=1e-301)
                               for leg in STANCE_LEGS],
                      "char_length": 1e-300},
                     2, "singular", id="lengths-1e-300"),
        pytest.param({"family": {"char_length": 1e308}}, 0, None,
                     id="family-length-1e308"),
        pytest.param({"tol": 1e308}, 0, None, id="tol-1e308"),
    ])
    def test_extreme_scales_write_standard_json(self, tmp_path, capsys,
                                                config, code, error):
        # in-process, so that a RuntimeWarning fails the test
        got, out = run(tmp_path, "isotropy", config)
        err = capsys.readouterr().err
        assert got == code
        assert "Traceback" not in err

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        if code == 2:
            assert not (out / "isotropy.json").exists()
            diagnostics = (out / "diagnostics.json").read_text()
            assert error in json.loads(diagnostics,
                                       parse_constant=refuse)["error"]
        else:
            json.loads((out / "isotropy.json").read_text(),
                       parse_constant=refuse)
            svg = (out / "layout.svg").read_text()
            assert "nan" not in svg and "inf" not in svg


class TestMobility:
    def test_reference_fixtures(self, tmp_path):
        import csv as csvmod
        code, out = run(tmp_path, "mobility", {})
        assert code == 0
        with open(out / "mobility.csv") as fh:
            fh.readline()  # config hash comment
            rows = list(csvmod.DictReader(fh))
        assert [int(r["dof"]) for r in rows] == [3, 6, 6, 8]
        assert [r["diagnosis"] for r in rows] == [
            "unaudited", "rational", "redundant-actuation", "rational"]

    def test_custom_graph(self, tmp_path):
        import csv as csvmod
        config = {"graphs": [{"space": "planar", "moving_links": 3, "p5": 4,
                              "actuated_inputs": 1, "label": "four-bar"}]}
        code, out = run(tmp_path, "mobility", config)
        assert code == 0
        with open(out / "mobility.csv") as fh:
            fh.readline()
            rows = list(csvmod.DictReader(fh))
        assert rows[-1]["label"] == "four-bar"
        assert rows[-1]["dof"] == "1"
        assert rows[-1]["diagnosis"] == "rational"

    def test_bad_graph_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "mobility",
                      {"graphs": [{"space": "planar"}]})
        assert code == 1


class TestSlam:
    def test_noise_free_run(self, tmp_path):
        config = {"script": {"type": "loop", "side": 1.5},
                  "sensor": {"max_range": 5.0, "n_rays": 24}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_slam_error"] <= 1e-6
        assert summary["min_cov_eigenvalue"] >= -1e-12
        assert (out / "run_log.csv").exists()
        assert (out / "grid.pgm").read_text().startswith("P2")

    def test_plan_outputs(self, tmp_path):
        config = {"script": {"type": "loop"},
                  "sensor": {"max_range": 5.0, "n_rays": 72},
                  "plan": {"start": [5, 5], "goal": [50, 50]}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        assert (out / "path.csv").exists()
        assert (out / "path.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["path_cells"] > 0

    def test_unreachable_goal_exit_2(self, tmp_path):
        # dense rays paint a closed wall around the obstacle; a goal in
        # its interior is then unreachable
        config = {"script": {"type": "loop"},
                  "sensor": {"max_range": 5.0, "n_rays": 360},
                  "plan": {"start": [5, 5], "goal": [32, 32]}}
        code, _ = run(tmp_path, "slam", config)
        assert code == 2

    @pytest.mark.parametrize("threshold", [0.4, 0.5, 0.9])
    def test_path_svg_draws_the_planners_blocked_cells(self, tmp_path,
                                                       monkeypatch, threshold):
        grids, drawn = [], []
        plan_path, add_scatter = slam.plan_path, cli.SvgPlot.add_scatter

        def planned(grid, **kw):
            grids.append(grid)
            return plan_path(grid, **kw)

        def scattered(plot, xs, ys, **kw):
            drawn.append(set(zip(ys, xs)))
            return add_scatter(plot, xs, ys, **kw)

        monkeypatch.setattr(slam, "plan_path", planned)
        monkeypatch.setattr(cli.SvgPlot, "add_scatter", scattered)
        config = {"script": {"type": "loop", "side": 2.0, "speed": 1.0,
                             "dt": 0.5},
                  "sensor": {"max_range": 5.0, "n_rays": 360,
                             "range_sigma": 0.05, "bearing_sigma": 0.01},
                  "plan": {"start": [5, 5], "goal": [50, 50],
                           "occupied_threshold": threshold}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        probabilities = grids[0].probabilities()
        blocked = probabilities > threshold
        # cells never observed (p = 0.5) are blocked below 0.5 but not drawn
        observed = set(map(tuple, np.argwhere(blocked
                                              & (probabilities != 0.5))))
        assert drawn == [observed]
        unobserved = blocked & (probabilities == 0.5)
        assert unobserved.any() == (threshold < 0.5)
        svg = (out / "path.svg").read_text()
        assert ("blocked (observed)" in svg) == (threshold < 0.5)
        # cells with 0.5 < p <= 0.9 exist, so a drawing at 0.5 would differ
        assert (probabilities > 0.5).sum() > (probabilities > 0.9).sum() > 0
        path = np.loadtxt(out / "path.csv", delimiter=",", skiprows=2,
                          dtype=int)
        assert not blocked[tuple(path.T)].any()

    def test_summary_counts_skipped_corrections(self, tmp_path):
        # the singular innovation of test_slam's
        # test_singular_innovation_skips_and_is_logged, through the CLI
        config = {"world": {"landmarks": [{"id": 1, "x": 2.0, "y": 0.0}],
                            "obstacles": [],
                            "grid": {"resolution": 0.5, "origin": [-1.0, -1.0],
                                     "width": 10, "height": 10}},
                  "script": [{"velocity": 0.0, "angular_velocity": 0.0,
                              "dt": 1.0}] * 2,
                  "sensor": {"max_range": 10.0, "n_rays": 0},
                  "process_noise": {"x": 10.0}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        events = (out / "run_log.csv").read_text().count("correction-skipped")
        assert summary["corrections_skipped"] == events == 1

    def test_plan_outside_the_grid_refused_before_the_run(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(slam, "simulate", _reached)
        config = {"sensor": {"n_rays": 360},
                  "plan": {"start": [5, 5], "goal": [500, 50]}}
        code, out = run(tmp_path, "slam", config)
        assert code == 1
        assert not (out / "run_log.csv").exists()

    def test_world_file_round_trip(self, tmp_path):
        # the desk world read back from a file runs as the default world:
        # every output is the same but for the config hash
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(world_to_dict(desk_world())))
        config = {"script": {"type": "constant", "steps": 20},
                  "sensor": {"max_range": 5.0, "n_rays": 8},
                  "plan": {"start": [5, 5], "goal": [50, 50]}}
        texts = []
        for name, world in (("default", {}), ("file", {"world": str(world_path)})):
            code, out = run(tmp_path / name, "slam", dict(config, **world))
            assert code == 0
            tag = json.loads((out / "summary.json").read_text())["config_hash"]
            texts.append({p.name: p.read_text().replace(tag, "")
                          for p in out.iterdir()})
        assert len(texts[0]) == 5
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("sensor, key", [
        ({"range_sigma": 1e300}, "range_sigma"),
        ({"bearing_sigma": 1e200}, "bearing_sigma"),
        ({"range_sigma": 1e155, "n_rays": 0}, "range_sigma"),
    ])
    def test_sigma_with_no_finite_square_exit_1(self, tmp_path, capsys,
                                                 sensor, key):
        # squared, each would overflow the measurement variance
        code, out = run(tmp_path, "slam", {"sensor": sensor})
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not (out / "run_log.csv").exists()

    def test_unknown_world_key_exit_1(self, tmp_path):
        data = world_to_dict(desk_world())
        data["weather"] = "sunny"
        config = {"world": data, "script": {"type": "constant", "steps": 5}}
        code, _ = run(tmp_path, "slam", config)
        assert code == 1

    # a pose estimate 1e18 or 1e148 m off the grid maps nothing and still
    # runs to the end; these digests are the outputs of the per-cell mapping
    @pytest.mark.parametrize("sigma, digests", [
        (1e20, {"grid.pgm": "628c39663fc2a565", "run_log.csv": "05a292f3ce8758fb",
                "summary.json": "3e9e673f25b466fa"}),
        (1e150, {"grid.pgm": "495f0d3bc496ac0f", "run_log.csv": "675e8698ef19f377",
                 "summary.json": "614a63a0d834cda0"}),
    ], ids=["1e20", "1e150"])
    def test_huge_odometry_noise_runs(self, tmp_path, sigma, digests):
        config = {"script": {"type": "constant", "steps": 3},
                  "odometry_noise": {"velocity_sigma": sigma}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                for p in out.iterdir()} == digests

    def test_diverged_filter_exit_2(self, tmp_path):
        config = {"script": {"type": "constant", "steps": 3},
                  "odometry_noise": {"velocity_sigma": 1e300}}
        code, out = run(tmp_path, "slam", config)
        assert code == 2
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["step"] == 1
        assert not (out / "run_log.csv").exists()


def _table(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    return str(path)


def _desk_world(**grid):
    """The desk world document with grid keys replaced; None drops one."""
    data = world_to_dict(desk_world())
    data["grid"].update(grid)
    data["grid"] = {k: v for k, v in data["grid"].items() if v is not None}
    return data


ONE_STEP = {"type": "constant", "steps": 1}
LEG = {"mount_radius": 1.0, "mount_angle": 0.0, "leg_angle": 0.4,
       "foot_offset": 0.2, "extension": 1.0}
NAN = float("nan")


# start + arc * k rounds to start for every sample of such a start angle,
# and the span of the second box overflows
START_1E17 = {"lower": [0.1, 0.4, 0.4, 1e17, 3.2],
              "upper": [0.6, 2.5, 2.5, 1e17, 5.9]}
START_SPAN_OVERFLOWS = {"lower": [0.1, 0.4, 0.4, -1e308, 3.2],
                        "upper": [0.6, 2.5, 2.5, 1e308, 5.9]}

BAD_CONFIGS = [
    pytest.param("pareto", lambda tmp: {"sampling_table": 5},
                 id="table-not-a-string"),
    pytest.param("pareto", lambda tmp: {"sampling_table": str(tmp / "nope.csv")},
                 id="table-missing"),
    pytest.param("pareto", lambda tmp: {"sampling_table": str(tmp)},
                 id="table-is-a-directory"),
    pytest.param("pareto", lambda tmp: {
        "sampling_table": _table(tmp, "index,delta0\n0,0.5\n")},
        id="table-without-feasible"),
    pytest.param("pareto", lambda tmp: {
        "sampling_table": _table(tmp, "index,feasible,min_transmission_deg\n"
                                      "0,1,30\n")},
        id="table-without-delta0"),
    pytest.param("pareto", lambda tmp: {
        "sampling_table": _table(tmp, "feasible,delta0,min_transmission_deg\n"
                                      "1,nan,30\n")},
        id="table-with-nan-delta0"),
    pytest.param("synth", lambda tmp: {"box": START_1E17, "budget": 256},
                 id="synth-start-angle-1e17"),
    pytest.param("pareto", lambda tmp: {"box": START_1E17},
                 id="pareto-start-angle-1e17"),
    pytest.param("synth", lambda tmp: {"box": START_SPAN_OVERFLOWS,
                                       "budget": 256},
                 id="synth-start-angle-span-overflows"),
    pytest.param("pareto", lambda tmp: {"box": START_SPAN_OVERFLOWS},
                 id="pareto-start-angle-span-overflows"),
    pytest.param("synth", lambda tmp: {"budget": 2 ** 32}, id="budget-2^32"),
    pytest.param("synth", lambda tmp: {"budget": 2 ** 40}, id="budget-2^40"),
    pytest.param("synth", lambda tmp: {"sweep_samples": 1},
                 id="synth-one-sweep-sample"),
    pytest.param("pareto", lambda tmp: {"sweep_samples": 1},
                 id="pareto-one-sweep-sample"),
    pytest.param("synth", lambda tmp: {"sweep_samples": 2},
                 id="synth-two-sweep-samples"),
    pytest.param("pareto", lambda tmp: {"sweep_samples": 2},
                 id="pareto-two-sweep-samples"),
    pytest.param("synth", lambda tmp: {"sweep_samples": 3},
                 id="synth-three-sweep-samples"),
    pytest.param("pareto", lambda tmp: {"sweep_samples": 3},
                 id="pareto-three-sweep-samples"),
    pytest.param("pareto", lambda tmp: {"coupler": "solved"},
                 id="pareto-coupler-key"),
    pytest.param("slam", lambda tmp: {"script": []}, id="empty-script"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "steps": 0}},
                 id="zero-steps"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "steps": -3}},
                 id="negative-steps"),
    pytest.param("mobility", lambda tmp: {"graphs": 5}, id="graphs-a-number"),
    pytest.param("mobility", lambda tmp: {"graphs": True}, id="graphs-true"),
    pytest.param("mobility", lambda tmp: {"graphs": [
        {"space": "planar", "moving_links": 3, "p5": 4, "p3": 5,
         "actuated_inputs": 1}]}, id="planar-graph-with-p3"),
    pytest.param("slam", lambda tmp: {"script": {"type": "loop", "speed": 0}},
                 id="loop-zero-speed"),
    pytest.param("slam", lambda tmp: {"script": {"type": "loop", "dt": 0}},
                 id="loop-zero-dt"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "dt": 0}},
                 id="constant-zero-dt"),
    pytest.param("slam", lambda tmp: {"script": {"type": "loop",
                                                 "speed": 1e-12}},
                 id="loop-unbounded-steps"),
    pytest.param("slam", lambda tmp: {"script": {"type": "loop", "speed": -1}},
                 id="loop-negative-speed"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), grid=5)},
                 id="world-grid-a-number"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(width=None)},
                 id="world-grid-without-width"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(resolution=0)},
                 id="world-zero-resolution"),
    pytest.param("slam", lambda tmp: {"world": _table(tmp, '{"grid": ')},
                 id="world-file-bad-json"),
    pytest.param("slam", lambda tmp: {"world": "a\0b"},
                 id="world-path-with-nul"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(width=10 ** 6,
                                                           height=10 ** 6)},
                 id="world-grid-10^12-cells"),
    pytest.param("slam", lambda tmp: {
        "world": dict(_desk_world(), landmarks=[
            {"id": i, "x": 1000.0 + i, "y": 1000.0} for i in range(2049)]),
        "script": {"type": "constant", "steps": 1}},
        id="world-2049-landmarks"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(width=60.5),
                                      "script": ONE_STEP},
                 id="world-grid-fractional-width"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(height=True),
                                      "script": ONE_STEP},
                 id="world-grid-height-true"),
    pytest.param("slam", lambda tmp: {"world": _desk_world(resolution="0.1"),
                                      "script": ONE_STEP},
                 id="world-grid-resolution-as-string"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), landmarks=[
        {"id": 1.7, "x": 0.5, "y": 0.5}]), "script": ONE_STEP},
        id="world-fractional-landmark-id"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), landmarks=[
        {"id": 2 ** 70, "x": 0.5, "y": 0.5}]), "script": ONE_STEP},
        id="world-landmark-id-2^70"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), landmarks=[
        {"id": 1, "x": "0.5", "y": 0.5}]), "script": ONE_STEP},
        id="world-landmark-number-as-string"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), landmarks=[
        {"id": 1, "x": 0.5, "y": 0.5}, {"id": 1, "x": 1.5, "y": 0.5}]),
        "script": ONE_STEP}, id="world-repeated-landmark-id"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), landmarks=[
        {"id": 1, "x": 0.5, "y": 0.5, "z": 0.0}]), "script": ONE_STEP},
        id="world-landmark-unknown-key"),
    pytest.param("slam", lambda tmp: {"world": dict(_desk_world(), obstacles=[
        [[0.0, 0.0], [1, "0"], [1.0, 1.0]]]), "script": ONE_STEP},
        id="world-obstacle-point-as-string"),
    pytest.param("slam", lambda tmp: {"sensor": {"fov": -1.0},
                                      "script": ONE_STEP},
                 id="sensor-negative-fov"),
    pytest.param("slam", lambda tmp: {"sensor": {"fov": 7.0},
                                      "script": ONE_STEP},
                 id="sensor-fov-above-2pi"),
    pytest.param("slam", lambda tmp: {"sensor": {"n_rays": 10 ** 9}},
                 id="n-rays-10^9"),
    pytest.param("slam", lambda tmp: {
        "world": dict(_desk_world(), obstacles=[
            [[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 6.28, 20000)]]),
        "sensor": {"n_rays": 10000},
        "script": {"type": "constant", "steps": 1}},
        id="10000-rays-on-20000-edges"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "steps": 3},
                                      "sensor": {"max_range": 1e300,
                                                 "n_rays": 4}},
                 id="ray-of-1e301-cells"),
    pytest.param("synth", lambda tmp: {"sweep_samples": 10 ** 8},
                 id="sweep-samples-10^8"),
    pytest.param("pareto", lambda tmp: {"ga": {"population": 10 ** 8}},
                 id="population-10^8"),
    pytest.param("pareto", lambda tmp: {"ga": {"population": 4,
                                               "generations": 10 ** 12}},
                 id="generations-10^12"),
    pytest.param("pareto", lambda tmp: {"ga": {
        "population": 4, "generations": cli.MAX_GENERATIONS + 1}},
        id="generations-above-cap"),
    pytest.param("pareto", lambda tmp: {"ga": {
        "population": 6, "generations": 2, "crossover_eta": -1}},
        id="crossover-eta-minus-1"),
    pytest.param("pareto", lambda tmp: {"ga": {
        "population": 6, "generations": 2, "mutation_eta": -1}},
        id="mutation-eta-minus-1"),
    pytest.param("isotropy", lambda tmp: {"tol": -1}, id="negative-tol"),
    pytest.param("slam", lambda tmp: {"plan": {"start": [1.5, 2],
                                               "goal": [50, 50]}},
                 id="plan-fractional-cell"),
    pytest.param("slam", lambda tmp: {"plan": {"start": [5, 5],
                                               "goal": [50, 500]}},
                 id="plan-goal-column-500"),
    pytest.param("slam", lambda tmp: {"plan": {"start": [-1, 5],
                                               "goal": [50, 50]}},
                 id="plan-start-row-minus-1"),
    pytest.param("slam", lambda tmp: {"start_pose": [NAN, 0, 0]},
                 id="start-pose-nan"),
    pytest.param("slam", lambda tmp: {"plan": {
        "start": [5, 5], "goal": [50, 50], "occupied_threshold": 0}},
        id="plan-threshold-0"),
    pytest.param("slam", lambda tmp: {"plan": {
        "start": [5, 5], "goal": [50, 50], "occupied_threshold": 1}},
        id="plan-threshold-1"),
    pytest.param("mobility", lambda tmp: {"graphs": [
        {"space": "planar", "moving_links": 3.7, "p5": 4}]},
        id="fractional-moving-links"),
    pytest.param("mobility", lambda tmp: {"use_reference_fixtures": "no"},
                 id="fixtures-flag-a-string"),
    pytest.param("isotropy", lambda tmp: {"legs": [dict(LEG, extension="1.0")]
                                          * 3},
                 id="leg-number-as-string"),
    pytest.param("slam", lambda tmp: {"script": [
        {"velocity": 0.1, "angular_velocity": 0.0, "dt": "0.1"}]},
        id="step-number-as-string"),
    pytest.param("synth", lambda tmp: {"box": TIGHT_BOX, "budget": 8,
                                       "limits": {"max_delta": NAN}},
                 id="max-delta-nan"),
    pytest.param("synth", lambda tmp: {"box": dict(TIGHT_BOX, lower=[
        0.0, *TIGHT_BOX["lower"][1:]]), "budget": 8}, id="box-zero-crank"),
    pytest.param("pareto", lambda tmp: {"box": dict(TIGHT_BOX, lower=[
        0.45, -1.0, *TIGHT_BOX["lower"][2:]])}, id="box-negative-coupler"),
    pytest.param("isotropy", lambda tmp: {"family": {}, "heading": 0.5},
                 id="heading-beside-family"),
    pytest.param("isotropy", lambda tmp: {"family": {}, "char_length": 2.0},
                 id="char-length-beside-family"),
    pytest.param("slam", lambda tmp: {"odometry_noise":
                                      {"velocity_sigma": -0.1}},
                 id="negative-odometry-sigma"),
    pytest.param("slam", lambda tmp: {"process_noise": {"heading": -0.001}},
                 id="negative-process-noise"),
    pytest.param("mobility", lambda tmp: [], id="config-root-a-list"),
    pytest.param("synth", lambda tmp: {"branch": 0}, id="synth-branch-0"),
    pytest.param("pareto", lambda tmp: {"branch": 0}, id="pareto-branch-0"),
    pytest.param("isotropy", lambda tmp: {"family": {}, "legs": [LEG] * 3},
                 id="family-beside-legs"),
    pytest.param("slam", lambda tmp: {"script": {"type": "spiral"}},
                 id="script-type-spiral"),
    pytest.param("isotropy", lambda tmp: {"legs": [
        dict(LEG, mount_radius=0.0), LEG, LEG]}, id="leg-mount-radius-0"),
    pytest.param("isotropy", lambda tmp: {"legs": [LEG] * 3,
                                          "char_length": 0.0},
                 id="legs-char-length-0"),
    pytest.param("isotropy", lambda tmp: {"family": {"variant": 3}},
                 id="family-variant-3"),
    pytest.param("isotropy", lambda tmp: {"family": {"sign": 0}},
                 id="family-sign-0"),
    pytest.param("isotropy", lambda tmp: {"family": {"beta": 0.0}},
                 id="family-beta-0"),
    pytest.param("isotropy", lambda tmp: {"family": {"beta": np.pi}},
                 id="family-beta-pi"),
    pytest.param("pareto", lambda tmp: {"ga": {"population": 4,
                                               "generations": -1}},
                 id="generations-minus-1"),
    pytest.param("pareto", lambda tmp: {"ga": {
        "population": 4, "generations": 0, "mutation_prob": 1.5}},
        id="mutation-prob-1.5"),
    pytest.param("mobility", lambda tmp: {"graphs": [
        {"space": "planar", "moving_links": 3, "p5": 4,
         "actuated_inputs": -1}]}, id="actuated-inputs-minus-1"),
]


class TestParserBehavior:
    @pytest.mark.parametrize("command, make_config", BAD_CONFIGS)
    def test_bad_config_exit_1(self, tmp_path, capsys, command, make_config):
        config = make_config(tmp_path)
        if command == "pareto":
            config.setdefault("ga", {"population": 4, "generations": 0})
        code, _ = run(tmp_path / "run", command, config)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, message", [
        ("mobility", [], "config root must be a JSON object"),
        ("isotropy", {"family": {"sign": 0}}, "sign must be +1 or -1"),
    ], ids=["config-root-a-list", "family-sign-0"])
    def test_first_check_names_the_fault(self, tmp_path, capsys, command,
                                         config, message):
        # a later check refuses these configs too, under another name
        code, _ = run(tmp_path, command, config)
        assert code == 1
        assert capsys.readouterr().err == f"legsynth: config error: " \
                                          f"{message}\n"

    @pytest.mark.parametrize("command", ["synth", "pareto", "slam"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, command):
        code, _ = run(tmp_path, command, {}, seed=-1)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err

    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--frobnicate"])
        assert info.value.code == 1

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_under_a_file_exit_1(self, tmp_path, capsys, below):
        # --out names an existing file, or a directory inside one
        (tmp_path / "taken").write_text("")
        code = main(["mobility", "--out", str(tmp_path / "taken" / below)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, name", [
        *(("synth", {"box": TIGHT_BOX, "budget": 64}, name)
          for name in ("sampling_table.csv", "pareto.csv",
                       "best_trajectory.svg", "summary.json")),
        *(("pareto", {"box": TIGHT_BOX,
                      "ga": {"population": 8, "generations": 2}}, name)
          for name in ("hypervolume.csv", "hypervolume.svg", "front.csv",
                       "front.svg")),
        ("isotropy", {}, "isotropy.json"),
        ("isotropy", {}, "layout.svg"),
        ("mobility", {}, "mobility.csv"),
        *(("slam", {"script": ONE_STEP, "sensor": {"n_rays": 8},
                    "plan": {"start": [5, 5], "goal": [6, 8]}}, name)
          for name in ("run_log.csv", "grid.pgm", "path.csv", "path.svg",
                       "summary.json")),
    ])
    def test_output_file_that_cannot_be_opened_exit_1(self, tmp_path, capsys,
                                                      command, config, name):
        # a directory where the output file should go
        (tmp_path / "out" / name).mkdir(parents=True)
        code, _ = run(tmp_path, command, config)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert name in err

    def test_diagnostics_that_cannot_be_written_still_print(self, tmp_path,
                                                            capsys):
        # a directory where diagnostics.json should go: the run still
        # exits 2 and prints its diagnostics to stderr
        (tmp_path / "out" / "diagnostics.json").mkdir(parents=True)
        config = {"box": TIGHT_BOX, "budget": 16,
                  "limits": {"min_transmission_deg": 91.0}}
        code, _ = run(tmp_path, "synth", config)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        first, printed = err.splitlines()
        assert first.startswith("legsynth: infeasible: ")
        diagnostics = json.loads(printed)
        assert diagnostics["feasible"] == 0 and diagnostics["config_hash"]

    def test_stdout_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["mobility", "--out", str(tmp_path / "out")])

    def test_unreadable_config_exit_1(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_config_too_deep_to_hash_exit_1(self, tmp_path, capsys):
        # every depth up to the recursion limit exits 1: json.load refuses
        # the deepest files, the command's config checks the rest
        config = tmp_path / "config.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 400, limit + 10):
            config.write_text('{"family": ' + "[" * depth + "]" * depth + "}")
            code = main(["isotropy", "--config", str(config),
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1
            assert "config error" in err and "Traceback" not in err

    def test_config_hash_refuses_what_it_cannot_dump(self):
        # json.load and json.dumps spend the same recursion per level of a
        # config read from a file, so the load refuses first; a config
        # built in memory reaches the hash's own refusal
        config = []
        for _ in range(sys.getrecursionlimit()):
            config = [config]
        with pytest.raises(cli.ConfigError, match="config nests too deeply"):
            cli._config_hash({"a": config}, 0)


def test_text_outputs_end_lines_with_newline_only(tmp_path):
    # every file each command writes, the pareto overlap report included
    code, synth_out = run(tmp_path / "synth", "synth",
                          {"box": TIGHT_BOX, "budget": 64})
    assert code == 0
    table = str(synth_out / "sampling_table.csv")
    outputs = [synth_out]
    for command, config in [
            ("pareto", {"box": TIGHT_BOX, "sampling_table": table,
                        "ga": {"population": 8, "generations": 2}}),
            ("isotropy", {}),
            ("mobility", {}),
            ("slam", {"script": {"type": "constant", "steps": 5},
                      "sensor": {"n_rays": 8},
                      "plan": {"start": [5, 5], "goal": [50, 50]}})]:
        code, out = run(tmp_path / command, command, config)
        assert code == 0
        outputs.append(out)
    files = [p for out in outputs for p in out.iterdir()]
    assert {p.name for p in files} >= {
        "sampling_table.csv", "pareto.csv", "overlap.json", "front.csv",
        "hypervolume.csv", "isotropy.json", "mobility.csv", "run_log.csv",
        "grid.pgm", "path.csv"}
    assert [p.name for p in files if b"\r" in p.read_bytes()] == []


class _Reached(Exception):
    """Raised in place of a pipeline: the config passed every check."""


def _reached(*args, **kwargs):
    raise _Reached


# One valid config per command and config shape, with every key set.
FUZZ_BASES = [
    ("synth", {"box": TIGHT_BOX, "budget": 8, "sweep_samples": 24,
               "branch": 1, "limits": {"max_delta": 1.0,
                                       "min_transmission_deg": 10.0,
                                       "min_cycle_ratio": 1.2}}),
    ("pareto", {"box": TIGHT_BOX, "sweep_samples": 24, "branch": -1,
                "ga": {"population": 8, "generations": 2,
                       "crossover_prob": 0.9, "crossover_eta": 15.0,
                       "mutation_prob": 0.2, "mutation_eta": 20.0}}),
    ("isotropy", {"family": {"alpha1": 0.1, "gamma1": 1.0, "beta": 1.5,
                             "char_length": 1.0, "variant": 2, "sign": -1},
                  "tol": 1e-8}),
    ("isotropy", {"legs": [LEG, dict(LEG, mount_angle=2.0, leg_angle=-0.6),
                           dict(LEG, mount_angle=-2.0, leg_angle=1.5)],
                  "heading": 0.2, "char_length": 1.5}),
    ("mobility", {"graphs": [{"space": "spatial", "moving_links": 10,
                              "p5": 9, "p4": 0, "p3": 3, "p2": 0, "p1": 0,
                              "actuated_inputs": 6, "label": "hexapod"}],
                  "use_reference_fixtures": True}),
    ("slam", {"world": world_to_dict(desk_world()),
              "script": {"type": "loop", "side": 1.0, "speed": 0.5,
                         "dt": 0.5},
              "sensor": {"max_range": 5.0, "fov": 3.0, "n_rays": 8,
                         "range_sigma": 0.05, "bearing_sigma": 0.01},
              "odometry_noise": {"velocity_sigma": 0.05,
                                 "angular_sigma": 0.03},
              "process_noise": {"x": 0.001, "y": 0.001, "heading": 0.0005},
              "start_pose": [0.0, 0.0, 0.0],
              "plan": {"start": [5, 5], "goal": [50, 50],
                       "occupied_threshold": 0.5}}),
    ("slam", {"script": {"type": "constant", "steps": 3, "velocity": 0.1,
                         "angular_velocity": 0.1, "dt": 0.1}}),
    ("slam", {"script": [{"velocity": 0.1, "angular_velocity": 0.0,
                          "dt": 0.1}] * 2}),
]


def _keys(node):
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


FUZZ_KEYS = sorted(set().union(*(_keys(base) for _, base in FUZZ_BASES)))


def _containers(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3))


FUZZ_VALUES = st.sampled_from([
    None, True, 0, 0.0, -1, 1e-300, 2 ** 60, float("nan"), float("inf"),
    float("-inf"), "0.1", [], {}, [1.5, 2]]) | st.recursive(
    st.integers() | st.floats() | st.text(max_size=4), _containers,
    max_leaves=6)


def _slots(node):
    """Every (container, key or index) pair in a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    pairs = [(node, key) for key in keys]
    for key in keys:
        if isinstance(node[key], (dict, list)):
            pairs += _slots(node[key])
    return pairs


@st.composite
def _mutated(draw, base):
    """`base` with one to three keys or items, at any depth, dropped,
    replaced, or given a new sibling."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(_slots(doc) or [(doc, None)]))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        # a copy, so that no two slots share one list or dict
        value = json.loads(json.dumps(draw(FUZZ_VALUES)))
        if action == "add" or key is None:
            if isinstance(node, dict):
                node[draw(st.sampled_from(FUZZ_KEYS) | st.text(max_size=3))] \
                    = value
            else:
                node.append(value)
        elif action == "drop":
            del node[key]
        else:
            node[key] = value
    return doc


FUZZ_IDS = [f"{c}-{i}" for i, (c, _) in enumerate(FUZZ_BASES)]


class TestConfigFuzz:
    @pytest.mark.parametrize("command, base", FUZZ_BASES, ids=FUZZ_IDS)
    def test_base_config_is_valid(self, tmp_path, monkeypatch, command,
                                  base):
        # a base that fails its own checks would leave every mutation of
        # it failing at the same check
        monkeypatch.setattr(search, "scan", _reached)
        monkeypatch.setattr(nsga2, "evolve", _reached)
        monkeypatch.setattr(slam, "simulate", _reached)
        if command in ("isotropy", "mobility"):
            assert run(tmp_path, command, base)[0] == 0
        else:
            with pytest.raises(_Reached):
                run(tmp_path, command, base)

    @pytest.mark.parametrize("command, base", FUZZ_BASES, ids=FUZZ_IDS)
    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_config(self, tmp_path, monkeypatch, capsys, command,
                            base, data):
        monkeypatch.setattr(search, "scan", _reached)
        monkeypatch.setattr(nsga2, "evolve", _reached)
        monkeypatch.setattr(slam, "simulate", _reached)
        config = data.draw(_mutated(base))
        try:
            code, _ = run(tmp_path, command, config)
        except _Reached:
            assert command in ("synth", "pareto", "slam")
            return
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command in ("isotropy", "mobility"):
            assert code in (0, 1, 2)
        else:
            assert code == 1
        if code == 1:
            assert "config error" in err


def _readme_sketches():
    """(command, config) for each sketch in the README's jsonc block under
    "Config sketches", with the // comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Config sketches"):]
    lines = section.split("```jsonc\n", 1)[1].split("```", 1)[0].splitlines()
    commands = [m.group(1) for m in map(re.compile(r"// (\w+):").match, lines)
                if m]
    text = "\n".join(line.split("//", 1)[0] for line in lines).strip()
    decoder, configs = json.JSONDecoder(), []
    while text:
        config, end = decoder.raw_decode(text)
        configs.append(config)
        text = text[end:].strip()
    assert len(commands) == len(configs)
    return list(zip(commands, configs))


README_SKETCHES = _readme_sketches()


class TestReadmeSketches:
    @pytest.mark.parametrize("command, config", README_SKETCHES,
                             ids=[command for command, _ in README_SKETCHES])
    def test_sketch_is_a_valid_config(self, tmp_path, monkeypatch, command,
                                      config):
        monkeypatch.setattr(search, "scan", _reached)
        monkeypatch.setattr(nsga2, "evolve", _reached)
        monkeypatch.setattr(slam, "simulate", _reached)
        monkeypatch.chdir(tmp_path)
        # the pareto sketch names the sampling table a synth run writes
        table = tmp_path / "runs" / "synth" / "sampling_table.csv"
        table.parent.mkdir(parents=True)
        table.write_text("feasible,delta0,min_transmission_deg\n1,1e-4,30\n")
        if command == "isotropy":
            assert run(tmp_path, command, config)[0] == 0
        else:
            with pytest.raises(_Reached):
                run(tmp_path, command, config)


def test_cli_import_loads_neither_numpy_random_nor_scipy(tmp_path):
    # benchmark runs time interpreter start-up until `import legsynth.cli`
    # in a fresh interpreter.  numpy imports numpy.random at the first
    # default_rng, inside a command; scipy is a test-only dependency.
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, legsynth.cli; "
             "print(sorted({'numpy.random', 'scipy'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
