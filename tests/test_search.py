import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from legsynth import search
from legsynth.fourbar import (NEAR_TANGENT, NOT_ASSEMBLABLE, FourBarParams,
                              arc_check)
from legsynth.search import (DEFAULT_BOX, FeasibilityLimits, ParamBox,
                             SamplingTable, filter_feasible, pareto_filter,
                             scan, write_sampling_table)
from legsynth.synthesis import reduced_objective
from test_fourbar import reason

GOOD_POINT = np.array([0.5, 1.25, 1.25, np.radians(65.0), np.radians(221.0)])

# narrow box around the known good design region
TIGHT_BOX = ParamBox(
    lower=np.array([0.45, 1.15, 1.15, np.radians(55.0), np.radians(219.5)]),
    upper=np.array([0.55, 1.35, 1.35, np.radians(75.0), np.radians(225.0)]))

# wider box that still contains the straight-line proportions
CHEB_BOX = ParamBox(lower=np.array([0.3, 0.9, 0.9, 0.0, np.pi]),
                    upper=np.array([0.7, 1.6, 1.6, 2.0 * np.pi,
                                    2.0 * np.pi * 0.95]))


def fake_table(objectives):
    """Feasible rows with prescribed (delta0, -mu, -nu) objectives."""
    F = np.asarray(objectives, dtype=float).reshape(-1, 3)
    n = len(F)
    nu = -F[:, 2]
    return SamplingTable(
        index=np.arange(n), params=np.tile([0.5, 1.25, 1.25, 0.0, np.pi], (n, 1)),
        feasible=np.ones(n, dtype=bool), reason=np.full(n, "", dtype=object),
        delta0=F[:, 0], x=np.zeros((n, 6)), min_transmission_deg=-F[:, 1],
        cycle_ratio=nu, support_deg=360.0 * nu / (1.0 + nu))


def csv_writer_table(table, path, header_comment=None):
    """The csv.writer loop that wrote the sampling table one cell at a
    time, kept as a byte oracle for write_sampling_table."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "crank", "coupler", "rocker", "start_angle",
                         "support_arc", "delta0", "min_transmission_deg",
                         "cycle_ratio", "support_deg", "feasible", "reason"))
        metrics = (table.min_transmission_deg, table.cycle_ratio,
                   table.support_deg)
        for i in range(len(table)):
            figures = [""] * 4
            if table.feasible[i]:
                figures = [f"{table.delta0[i]:.12g}",
                           *(f"{m[i]:.9g}" for m in metrics)]
            writer.writerow([table.index[i],
                             *(f"{p:.12g}" for p in table.params[i]),
                             *figures, int(table.feasible[i]),
                             table.reason[i]])


@pytest.fixture(scope="module")
def default_scan():
    return scan(DEFAULT_BOX, 4096)


def edge_case_table(table):
    """Rows of a scan edited to the values a writer can trip on."""
    rows = np.concatenate([np.flatnonzero(table.feasible)[:4],
                           np.flatnonzero(~table.feasible)[:2]])
    edited = table.take(rows)
    edited.reason[4] = NEAR_TANGENT % (4.25, -3.5e-10)
    edited.min_transmission_deg[0] = np.nan
    edited.delta0[1] = 5e-324
    edited.delta0[2] = 1e308
    edited.params[3, 3] = -0.0
    edited.params[5, 0] = -0.0
    return edited


def brute_force_pareto(table):
    """O(n^2) dominance oracle: indices of the nondominated rows."""
    F = table.objectives().tolist()
    keep = []
    for i, fi in enumerate(F):
        dominated = any(all(a <= b for a, b in zip(fj, fi))
                        and any(a < b for a, b in zip(fj, fi))
                        for j, fj in enumerate(F) if j != i)
        if not dominated:
            keep.append(int(table.index[i]))
    return keep


def brute_force_front(F):
    """Row-at-a-time dominance oracle over an (n, 3) objective array:
    the nondominated rows, for tables too large for brute_force_pareto."""
    return [i for i, f in enumerate(F)
            if not (np.all(F <= f, axis=1) & np.any(F < f, axis=1)).any()]


def layered(rng, n_front, n_rest):
    """n_front mutually nondominated rows with the least first
    objectives, and n_rest rows that each of them dominates, shuffled."""
    t = np.arange(n_front) / (4.0 * n_front)
    F = np.concatenate([np.column_stack([t, 1.0 - t, np.zeros(n_front)]),
                        1.0 + rng.random((n_rest, 3))])
    return F[rng.permutation(len(F))]


def anticorrelated(rng, n, behind):
    """n rows near the plane a + b + c = 1, a share `behind` of them
    moved off it: a front of about (1 - behind) n rows."""
    a, b = rng.random((2, n))
    F = np.column_stack([a, (1.0 - a) * b, (1.0 - a) * (1.0 - b)])
    return F + (rng.random((n, 1)) < behind) * rng.uniform(0.0, 0.1, (n, 1))


class TestScan:
    def test_collapsed_box_yields_identical_records(self):
        box = ParamBox(lower=GOOD_POINT, upper=GOOD_POINT)
        table = scan(box, 16)
        assert table.feasible.all()
        assert len(set(table.delta0)) == 1
        assert len(set(table.params[:, 0])) == 1

    def test_record_count_equals_budget(self):
        assert len(scan(TIGHT_BOX, 37)) == 37

    def test_infeasible_samples_are_kept_with_reason(self):
        # a box of short couplers against long rockers cannot assemble
        box = ParamBox(lower=np.array([0.1, 0.4, 2.0, 0.0, np.pi]),
                       upper=np.array([0.15, 0.45, 2.5, 0.1, 1.05 * np.pi]))
        table = scan(box, 8)
        assert len(table) == 8
        assert not table.feasible.any()
        assert all(table.reason)

    def test_finds_straight_line_region(self):
        # oracle: a coarse 5-level grid over the same box already contains
        # parameter vectors with small error and healthy transmission
        levels = [np.linspace(CHEB_BOX.lower[i], CHEB_BOX.upper[i], 5)
                  for i in range(5)]
        grid = np.array(list(itertools.product(*levels)))
        result = reduced_objective(FourBarParams(*grid.T), 24)
        grid_hit = (result.delta0 <= 1e-3) & (np.degrees(result.mu_min) >= 20.0)
        assert grid_hit.any()
        table = scan(CHEB_BOX, 2 ** 12)
        hits = (table.feasible & (table.delta0 <= 1e-3)
                & (table.min_transmission_deg >= 20.0))
        assert hits.any()

    def test_best_error_non_increasing_with_budget(self):
        best = []
        for budget in (256, 512, 1024):
            table = scan(CHEB_BOX, budget)
            best.append(table.delta0[table.feasible].min())
        assert best[1] <= best[0]
        assert best[2] <= best[1]

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            scan(TIGHT_BOX, 0)

    def test_reasons_match_errors_on_every_branch(self):
        # a table that reaches every branch of a rejection: the default
        # box (not assemblable, gap > 0), designs tangent at pi (gap 0,
        # discriminant 0), crank 1 at phi = 0 (B on D) and links whose
        # squares overflow (NaN discriminant); the reason column must be
        # the oracle's reason of each rejected row, and empty elsewhere
        boxes = [DEFAULT_BOX,
                 ParamBox(lower=[0.5, 0.75, 0.75, 0.0, np.pi],
                          upper=[0.5, 0.75, 0.75, 0.5, 1.2 * np.pi]),
                 ParamBox(lower=[1.0, 1.5, 1.5, 0.0, np.pi],
                          upper=[1.0, 1.5, 1.5, 0.0, np.pi]),
                 ParamBox(lower=[1e200, 1e200, 1e200, 0.0, 3.2],
                          upper=[2e200, 2e200, 2e200, 6.0, 5.0])]
        tables = [scan(box, 64) for box in boxes]
        params = FourBarParams(*np.concatenate([t.params for t in tables]).T)
        check = arc_check(params)
        reasons = np.concatenate([t.reason for t in tables])
        for i, found in enumerate(reasons):
            assert found == (reason(check, i) or ""), i
        rejected = ~(check.violation <= 0.0)  # a NaN violation rejects
        gap, disc = check.gap, check.discriminant
        assert (~rejected).any()
        assert (rejected & (gap > 0.0)).any()
        assert (rejected & (gap <= 0.0) & (disc == 0.0)
                & (params.crank != 1.0)).any()
        assert (rejected & (gap <= 0.0) & (params.crank == 1.0)
                & (check.phi == 0.0)).any()
        assert np.isnan(disc).any() and rejected[np.isnan(disc)].all()


class TestFilterFeasible:
    def test_no_limits_is_identity_on_feasible_scan(self):
        table = scan(TIGHT_BOX, 32)
        assert table.feasible.all()
        kept = filter_feasible(table, FeasibilityLimits())
        assert np.array_equal(kept.index, table.index)
        assert np.array_equal(kept.delta0, table.delta0)

    def test_impossible_transmission_angle_empties(self):
        table = scan(TIGHT_BOX, 32)
        limits = FeasibilityLimits(min_transmission_deg=91.0)
        assert len(filter_feasible(table, limits)) == 0

    def test_synthesized_design_point_survives(self):
        table = scan(TIGHT_BOX, 256)
        limits = FeasibilityLimits(min_transmission_deg=25.0,
                                   min_cycle_ratio=1.59)
        assert len(filter_feasible(table, limits)) > 0


class TestParetoFilter:
    def test_single_record(self):
        table = fake_table([(1.0, -30.0, -1.5)])
        assert list(pareto_filter(table).index) == [0]

    def test_dominated_pair(self):
        table = fake_table([(1.0, -30.0, -1.5), (2.0, -20.0, -1.2)])
        assert list(pareto_filter(table).index) == [0]

    def test_ties_all_kept(self):
        table = fake_table([(1.0, -30.0, -1.5), (1.0, -30.0, -1.5)])
        assert list(pareto_filter(table).index) == [0, 1]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(77)
        table = fake_table([(rng.uniform(0, 1), -rng.uniform(0, 90),
                             -rng.uniform(1, 2)) for _ in range(200)])
        fast = pareto_filter(table)
        assert list(fast.index) == brute_force_pareto(table)

    def test_matches_brute_force_oracle_on_integer_grids(self):
        # 300-1000 integer rows with repeats, so ties in every objective
        # and duplicate rows fall inside and across the 256-row blocks the
        # filter works in.  Near a plane, a row's dominators mostly have a
        # smaller first objective; on three levels of the first objective
        # they mostly share it; on a cube, front rows sort early and
        # dominate rows several blocks later
        rng = np.random.default_rng(79)

        def plane(n):
            a, b = rng.integers(0, 13, size=(2, n))
            return np.column_stack([a, b, 30 - a - b + rng.integers(0, 3, n)])

        def levels(n):
            level, b = rng.integers(0, 3, n), rng.integers(0, 21, n)
            return np.column_stack([level, b, 30 - b - 3 * level
                                    + rng.integers(0, 4, n)])

        def cube(n):
            return rng.integers(0, 30, size=(n, 3)) + [0, 0, 2]

        for n in (300, 640, 1000):
            for grid in (plane, levels, cube):
                F = grid(n)
                F[rng.integers(0, n, n // 3)] = F[rng.integers(0, n, n // 3)]
                table = fake_table(F)
                assert list(pareto_filter(table).index) == brute_force_pareto(table)

    def test_front_spanning_blocks_matches_oracle(self):
        # front rows in three or more of the blocks the filter decides
        F = anticorrelated(np.random.default_rng(80), 1200, 0.4)
        front = brute_force_front(F)
        assert len(front) > 2 * search.PARETO_BLOCK
        assert list(pareto_filter(fake_table(F)).index) == front

    def test_first_block_front_prunes_every_later_row(self, monkeypatch):
        F = layered(np.random.default_rng(81), 100, 1900)
        calls = []

        def counted(A, B):
            calls.append((len(A), len(B)))
            return dominates(A, B)

        dominates = search.dominates
        monkeypatch.setattr(search, "dominates", counted)
        front = pareto_filter(fake_table(F))
        assert list(front.index) == brute_force_front(F)
        assert len(front) == 100
        # one block check, then the front against the 1900 later rows
        assert calls[0] == (search.PARETO_BLOCK,) * 2
        assert all(a == 100 for a, _ in calls[1:])
        assert sum(b for _, b in calls[1:]) == 2000 - search.PARETO_BLOCK

    def test_large_anticorrelated_front_matches_oracle(self):
        F = anticorrelated(np.random.default_rng(82), 1500, 0.1)
        front = brute_force_front(F)
        assert len(front) > 1000
        assert list(pareto_filter(fake_table(F)).index) == front

    def test_memory_bounded_on_wide_first_front(self):
        # 2^16 rows whose first block is all front and dominates all the
        # rest.  One unchunked front x rest comparison would allocate
        # about 80 MiB; the filter that copied the feasible rows first and
        # checked every block in full peaked at 11.6 MiB on this table,
        # which bounds this one (about 3.6 MiB)
        F = layered(np.random.default_rng(83), search.PARETO_BLOCK,
                    2 ** 16 - search.PARETO_BLOCK)
        table = fake_table(F)
        tracemalloc.start()
        try:
            front = pareto_filter(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(front) == search.PARETO_BLOCK
        assert np.all(front.delta0 < 1.0)
        assert peak <= 11.5 * 2 ** 20

    def test_no_output_member_dominated(self):
        rng = np.random.default_rng(78)
        table = fake_table(rng.uniform(-2, 2, (150, 3)))
        front = pareto_filter(table)
        F = table.objectives()
        for fk in front.objectives():
            dominated = np.all(F <= fk, axis=1) & np.any(F < fk, axis=1)
            assert not dominated.any()

    def test_infeasible_rows_excluded(self):
        table = fake_table([(1.0, -30.0, -1.5), (2.0, -20.0, -1.2)])
        table.feasible[0] = False
        assert list(pareto_filter(table).index) == [1]


class TestBoxAndTable:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            ParamBox(lower=np.array([0.2, 0.4, 0.4, 0.0, np.pi]),
                     upper=np.array([0.1, 2.5, 2.5, 6.0, 5.0]))
        with pytest.raises(ValueError):
            ParamBox(lower=np.array([0.1, 0.4, 0.4, 0.0, 1.0]),
                     upper=np.array([0.6, 2.5, 2.5, 6.0, 2.0]))

    @pytest.mark.parametrize("start", [(1e17, 1e17), (-1e308, 1e308),
                                       (-12.6, 0.0), (0.0, 12.6)])
    def test_start_angle_beyond_two_turns_rejected(self, start):
        # far out, start + arc * k rounds to start: a sweep of one point
        with pytest.raises(ValueError, match="start-angle"):
            ParamBox(lower=[0.1, 0.4, 0.4, start[0], 3.2],
                     upper=[0.6, 2.5, 2.5, start[1], 5.9])

    @pytest.mark.parametrize("start", [(-4.0 * np.pi, 4.0 * np.pi),
                                       (0.0, 6.2832)])
    def test_start_angle_window_accepted(self, start):
        # the edges, and 2*pi rounded up as the README box writes it
        box = ParamBox(lower=[0.1, 0.4, 0.4, start[0], 3.2],
                       upper=[0.6, 2.5, 2.5, start[1], 5.9])
        assert (box.lower[3], box.upper[3]) == start

    def test_default_box_produces_samples(self):
        table = scan(DEFAULT_BOX, 64)
        assert len(table) == 64
        assert table.feasible.any()

    def test_table_round_trip(self, tmp_path):
        table = scan(TIGHT_BOX, 16)
        path = tmp_path / "table.csv"
        write_sampling_table(table, path, header_comment="config deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config deadbeef"
        assert lines[1].startswith("index,crank")
        assert len(lines) == 2 + 16


class TestTableWriter:
    @pytest.mark.parametrize("comment", [None, "config deadbeef"])
    @pytest.mark.parametrize("case", ["default-scan", "no-row-passes",
                                      "edge-values"])
    def test_bytes_match_csv_writer(self, tmp_path, default_scan, case,
                                    comment):
        table = {"default-scan": default_scan,
                 "no-row-passes": pareto_filter(filter_feasible(
                     default_scan, FeasibilityLimits(max_delta=-1.0))),
                 "edge-values": edge_case_table(default_scan)}[case]
        write_sampling_table(table, tmp_path / "new.csv", comment)
        csv_writer_table(table, tmp_path / "old.csv", comment)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_cases_cover_both_row_kinds(self, default_scan):
        assert default_scan.feasible.any() and not default_scan.feasible.all()
        edited = edge_case_table(default_scan)
        assert list(edited.feasible) == [True] * 4 + [False] * 2
        assert edited.reason[4].startswith("near-tangent configuration")

    @pytest.mark.parametrize("template", [NOT_ASSEMBLABLE, NEAR_TANGENT],
                             ids=["NOT_ASSEMBLABLE", "NEAR_TANGENT"])
    def test_linkage_messages_need_no_quoting(self, template):
        values = [np.nan, np.inf, -np.inf, -0.0, 1e308, 0.5]
        for phi, figure in itertools.product(values, repeat=2):
            message = template % (phi, figure)
            assert not set(message) & set(',"\r\n'), message

    def test_reasons_read_back_unchanged(self, tmp_path, default_scan):
        for n, table in enumerate([default_scan,
                                   edge_case_table(default_scan)]):
            path = tmp_path / f"table{n}.csv"
            write_sampling_table(table, path, header_comment="config abc")
            with open(path, newline="") as fh:
                assert fh.readline() == "# config abc\n"
                rows = list(csv.DictReader(fh))
            assert [row["reason"] for row in rows] == list(table.reason)
            assert [row["feasible"] for row in rows] == \
                ["1" if ok else "0" for ok in table.feasible]
