import itertools

import numpy as np
import pytest

from legsynth.fourbar import FourBarParams
from legsynth.search import (DEFAULT_BOX, FeasibilityLimits, ParamBox,
                             SampleRecord, evaluate_sample, filter_feasible,
                             pareto_filter, scan, write_sampling_table)
from legsynth.synthesis import SynthesisSolution
from legsynth.fourbar import GaitMetrics

GOOD_POINT = np.array([0.5, 1.25, 1.25, np.radians(65.0), np.radians(221.0)])

# narrow box around the known good design region
TIGHT_BOX = ParamBox(
    lower=np.array([0.45, 1.15, 1.15, np.radians(55.0), np.radians(219.5)]),
    upper=np.array([0.55, 1.35, 1.35, np.radians(75.0), np.radians(225.0)]))

# wider box that still contains the straight-line proportions
CHEB_BOX = ParamBox(lower=np.array([0.3, 0.9, 0.9, 0.0, np.pi]),
                    upper=np.array([0.7, 1.6, 1.6, 2.0 * np.pi,
                                    2.0 * np.pi * 0.95]))


def fake_record(index, objectives):
    """Feasible record with prescribed (delta0, -mu, -nu) objectives."""
    delta0, neg_mu, neg_nu = objectives
    params = FourBarParams(0.5, 1.25, 1.25, 0.0, np.pi)
    nu = -neg_nu
    support = 360.0 * nu / (1.0 + nu)
    metrics = GaitMetrics(support_deg=support, transfer_deg=360.0 - support,
                          cycle_ratio=nu, min_transmission_deg=-neg_mu)
    solution = SynthesisSolution(x=np.zeros(6), delta=delta0, condition=1.0,
                                 rank_deficient=False)
    return SampleRecord(index=index, params=params, feasible=True, reason="",
                        delta0=delta0, solution=solution, metrics=metrics)


def brute_force_pareto(records):
    """O(n^2) dominance oracle."""
    F = [r.objectives() for r in records]
    keep = []
    for i, fi in enumerate(F):
        dominated = any(np.all(fj <= fi) and np.any(fj < fi)
                        for j, fj in enumerate(F) if j != i)
        if not dominated:
            keep.append(records[i])
    return keep


class TestScan:
    def test_collapsed_box_yields_identical_records(self):
        box = ParamBox(lower=GOOD_POINT, upper=GOOD_POINT)
        records = scan(box, 16)
        assert all(r.feasible for r in records)
        assert len({r.delta0 for r in records}) == 1
        assert len({r.params.crank for r in records}) == 1

    def test_record_count_equals_budget(self):
        assert len(scan(TIGHT_BOX, 37)) == 37

    def test_infeasible_samples_are_kept_with_reason(self):
        # a box of short couplers against long rockers cannot assemble
        box = ParamBox(lower=np.array([0.1, 0.4, 2.0, 0.0, np.pi]),
                       upper=np.array([0.15, 0.45, 2.5, 0.1, 1.05 * np.pi]))
        records = scan(box, 8)
        assert len(records) == 8
        assert not any(r.feasible for r in records)
        assert all(r.reason for r in records)

    def test_finds_straight_line_region(self):
        # oracle: a coarse 5-level grid over the same box already contains
        # parameter vectors with small error and healthy transmission
        levels = [np.linspace(CHEB_BOX.lower[i], CHEB_BOX.upper[i], 5)
                  for i in range(5)]
        grid_hit = False
        for combo in itertools.product(*levels):
            record = evaluate_sample(0, FourBarParams(*combo))
            if record.feasible and record.delta0 <= 1e-3 \
                    and record.metrics.min_transmission_deg >= 20.0:
                grid_hit = True
                break
        assert grid_hit
        records = scan(CHEB_BOX, 2 ** 12)
        hits = [r for r in records
                if r.feasible and r.delta0 <= 1e-3
                and r.metrics.min_transmission_deg >= 20.0]
        assert hits

    def test_best_error_non_increasing_with_budget(self):
        best = []
        for budget in (256, 512, 1024):
            records = scan(CHEB_BOX, budget)
            best.append(min(r.delta0 for r in records if r.feasible))
        assert best[1] <= best[0]
        assert best[2] <= best[1]

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            scan(TIGHT_BOX, 0)


class TestFilterFeasible:
    def test_no_limits_is_identity_on_feasible_scan(self):
        records = scan(TIGHT_BOX, 32)
        assert all(r.feasible for r in records)
        assert filter_feasible(records, FeasibilityLimits()) == records

    def test_impossible_transmission_angle_empties(self):
        records = scan(TIGHT_BOX, 32)
        limits = FeasibilityLimits(min_transmission_deg=91.0)
        assert filter_feasible(records, limits) == []

    def test_synthesized_design_point_survives(self):
        records = scan(TIGHT_BOX, 256)
        limits = FeasibilityLimits(min_transmission_deg=25.0,
                                   min_cycle_ratio=1.59)
        assert filter_feasible(records, limits)


class TestParetoFilter:
    def test_single_record(self):
        record = fake_record(0, (1.0, -30.0, -1.5))
        assert pareto_filter([record]) == [record]

    def test_dominated_pair(self):
        better = fake_record(0, (1.0, -30.0, -1.5))
        worse = fake_record(1, (2.0, -20.0, -1.2))
        assert pareto_filter([better, worse]) == [better]

    def test_ties_all_kept(self):
        a = fake_record(0, (1.0, -30.0, -1.5))
        b = fake_record(1, (1.0, -30.0, -1.5))
        assert pareto_filter([a, b]) == [a, b]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(77)
        records = [fake_record(i, (rng.uniform(0, 1), -rng.uniform(0, 90),
                                   -rng.uniform(1, 2)))
                   for i in range(200)]
        fast = pareto_filter(records)
        oracle = brute_force_pareto(records)
        assert [r.index for r in fast] == [r.index for r in oracle]

    def test_no_output_member_dominated(self):
        rng = np.random.default_rng(78)
        records = [fake_record(i, tuple(rng.uniform(-2, 2, 3)))
                   for i in range(150)]
        front = pareto_filter(records)
        F = np.array([r.objectives() for r in records])
        for keep in front:
            fk = keep.objectives()
            dominated = np.all(F <= fk, axis=1) & np.any(F < fk, axis=1)
            assert not dominated.any()


class TestBoxAndTable:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            ParamBox(lower=np.array([0.2, 0.4, 0.4, 0.0, np.pi]),
                     upper=np.array([0.1, 2.5, 2.5, 6.0, 5.0]))
        with pytest.raises(ValueError):
            ParamBox(lower=np.array([0.1, 0.4, 0.4, 0.0, 1.0]),
                     upper=np.array([0.6, 2.5, 2.5, 6.0, 2.0]))

    def test_default_box_produces_samples(self):
        records = scan(DEFAULT_BOX, 64)
        assert len(records) == 64
        assert any(r.feasible for r in records)

    def test_table_round_trip(self, tmp_path):
        records = scan(TIGHT_BOX, 16)
        path = tmp_path / "table.csv"
        write_sampling_table(records, path, header_comment="config deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config deadbeef"
        assert lines[1].startswith("index,crank")
        assert len(lines) == 2 + 16
