import json

import numpy as np
import pytest

from legsynth.cli import _overlap_report, main

TIGHT_BOX = {
    "lower": [0.45, 1.15, 1.15, 0.9599310885968813, 3.8310770045216016],
    "upper": [0.55, 1.35, 1.35, 1.3089969389957472, 3.9269908169872414],
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

    def test_world_file_round_trip(self, tmp_path):
        from legsynth.slam import desk_world, world_to_dict
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(world_to_dict(desk_world())))
        config = {"world": str(world_path),
                  "script": {"type": "constant", "steps": 20},
                  "sensor": {"max_range": 5.0, "n_rays": 8}}
        code, out = run(tmp_path, "slam", config)
        assert code == 0
        assert (out / "summary.json").exists()

    def test_unknown_world_key_exit_1(self, tmp_path):
        from legsynth.slam import desk_world, world_to_dict
        data = world_to_dict(desk_world())
        data["weather"] = "sunny"
        config = {"world": data, "script": {"type": "constant", "steps": 5}}
        code, _ = run(tmp_path, "slam", config)
        assert code == 1


def _table(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    return str(path)


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
    pytest.param("synth", lambda tmp: {"budget": 2 ** 32}, id="budget-2^32"),
    pytest.param("synth", lambda tmp: {"budget": 2 ** 40}, id="budget-2^40"),
    pytest.param("synth", lambda tmp: {"sweep_samples": 1},
                 id="synth-one-sweep-sample"),
    pytest.param("pareto", lambda tmp: {"sweep_samples": 1},
                 id="pareto-one-sweep-sample"),
    pytest.param("slam", lambda tmp: {"script": []}, id="empty-script"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "steps": 0}},
                 id="zero-steps"),
    pytest.param("slam", lambda tmp: {"script": {"type": "constant", "steps": -3}},
                 id="negative-steps"),
    pytest.param("mobility", lambda tmp: {"graphs": 5}, id="graphs-a-number"),
    pytest.param("mobility", lambda tmp: {"graphs": True}, id="graphs-true"),
]


class TestParserBehavior:
    @pytest.mark.parametrize("command, make_config", BAD_CONFIGS)
    def test_bad_config_exit_1(self, tmp_path, capsys, command, make_config):
        config = make_config(tmp_path)
        if command == "pareto":
            config["ga"] = {"population": 4, "generations": 0}
        code, _ = run(tmp_path / "run", command, config)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err

    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--frobnicate"])
        assert info.value.code == 1

    def test_unreadable_config_exit_1(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
