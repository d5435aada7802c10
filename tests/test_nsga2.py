import bisect
import tracemalloc

import numpy as np
import pytest

from legsynth.cli import MAX_POPULATION
from legsynth.fourbar import (FourBarParams, LinkageError, arc_check,
                              coupler_path, sweep)
from legsynth import nsga2
from legsynth.nsga2 import (GAConfig, OBJECTIVE_SENTINEL, Problem, _breed,
                            _nondominated_2d, _survivors,
                            crowding_distance,
                            evolve, fast_nondominated_sort, hypervolume_2d,
                            leg_problem)
from legsynth.search import ParamBox
from legsynth.search import dominates as dominance_matrix
from legsynth.synthesis import solve
from test_synthesis import sweep_arrays

HOEKEN_GENOME = np.array([0.5, 1.25, 1.25, np.radians(65.0),
                          np.radians(221.0)])


def individuals(objective_rows, violations=None):
    """(F, violation) arrays of a population, all feasible by default."""
    F = np.asarray(objective_rows, dtype=float)
    if violations is None:
        violations = np.zeros(len(F))
    return F, np.asarray(violations, dtype=float)


def dominates(fi, fj, vi, vj):
    """Constraint-domination oracle for tests.  A violation that is not
    <= 0 (NaN included) is infeasible, and NaN is the largest violation."""
    feasible_i, feasible_j = vi <= 0.0, vj <= 0.0
    if feasible_i != feasible_j:
        return feasible_i
    if not feasible_i:
        return vi < vj or (np.isnan(vj) and not np.isnan(vi))
    return bool(np.all(fi <= fj) and np.any(fi < fj))


def brute_force_fronts(F, V):
    """O(n^2) peeling oracle."""
    n = len(F)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(F[j], F[i], V[j], V[i])
                            for j in remaining if j != i)]
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def matrix_fronts(F):
    """Peeling oracle over a dense dominance matrix, for many feasible
    rows."""
    D = (np.all(F[:, None] <= F[None], axis=2)
         & np.any(F[:, None] < F[None], axis=2))
    remaining = np.ones(len(F), dtype=bool)
    fronts = []
    while remaining.any():
        front = remaining & ~D[remaining].any(axis=0)
        fronts.append(np.flatnonzero(front).tolist())
        remaining &= ~front
    return fronts


def fronts_of(rank):
    """The rows of each rank as ascending index lists, in rank order."""
    return [np.flatnonzero(rank == r).tolist()
            for r in range(rank.max(initial=-1) + 1)]


def front_crowding(front_objectives):
    """Crowding distances of one front's objective matrix (n, m), one
    argsort per objective."""
    F = np.asarray(front_objectives, dtype=float)
    n = len(F)
    if n <= 2:
        return np.full(n, np.inf)
    d = np.zeros(n)
    for j in range(F.shape[1]):
        order = np.argsort(F[:, j], kind="stable")
        span = F[order[-1], j] - F[order[0], j]
        d[order[0]] = d[order[-1]] = np.inf
        if span > 0:
            d[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return d


def survivors_oracle(F, fronts, size):
    """Truncation front by front over the given fronts: the `size`
    surviving rows in survival order, and the rank and crowding distance
    of every row in the fronts read (-1 and 0 elsewhere).  Whole fronts
    enter in index order; of the front that does not fit, the members of
    largest crowding distance enter."""
    rank = np.full(len(F), -1)
    crowding = np.zeros(len(F))
    rows = []
    for r, front in enumerate(fronts):
        if len(rows) == size:
            break
        d = front_crowding(F[front])
        rank[front], crowding[front] = r, d
        room = size - len(rows)
        if len(front) > room:
            front = np.asarray(front)[np.argsort(-d, kind="stable")[:room]]
        rows.extend(front)
    return np.array(rows), rank, crowding


def staircase_oracle(points):
    """Point-by-point scan of the 2-D nondominated subset."""
    if len(points) == 0:
        return points
    order = np.lexsort((points[:, 1], points[:, 0]))
    kept = []
    best_y = np.inf
    for p in points[order]:
        if p[1] < best_y:
            kept.append(p)
            best_y = p[1]
    return np.array(kept).reshape(-1, 2)


def hypervolume_oracle(front, reference, normalization=None):
    """Strip-by-strip area sum, left to right."""
    F = np.asarray(front, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float)
    pts = F[np.all(F < ref, axis=1)]
    area = 0.0
    if len(pts):
        stairs = staircase_oracle(pts)
        xs = np.append(stairs[:, 0], ref[0])
        for i, y in enumerate(stairs[:, 1]):
            area += (xs[i + 1] - xs[i]) * (ref[1] - y)
    if normalization is not None:
        box = float(np.prod(ref - np.asarray(normalization, dtype=float)))
        if box > 0:
            area /= box
    return area


def zdt1_problem(dim=10):
    def evaluate(X):
        f1 = X[:, 0]
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        F = np.column_stack([f1, g * (1.0 - np.sqrt(f1 / g))])
        return F, np.zeros(len(X))

    return Problem(lower=np.zeros(dim), upper=np.ones(dim), evaluate=evaluate)


def leg_objectives(genome, **kwargs):
    """(error, -transmission) and violation of one genome."""
    F, violation = leg_problem(**kwargs).evaluate(np.asarray(genome)[None])
    return F[0], violation[0]


# The engine's ranking, crowding, truncation and breeding as they were
# before ranking, crowding and truncation were fused for two objectives,
# copied verbatim but for their names: the oracles of the bit-for-bit
# tests.  oracle_peel_ranks is the m-objective path the engine dropped.


def oracle_fast_nondominated_sort(F, violation):
    """The nondomination rank of every row (Deb et al., IEEE TEC 2002).

    Rank 0 is the nondominated set; each later rank is nondominated once
    all lower ranks are removed, under constraint-domination: feasible
    rows (violation <= 0) are ranked by objective dominance, and every
    other row follows, one rank per distinct violation in increasing
    order (NaN last).  Two objectives take one lexicographic sort and a
    binary-search sweep, O(N log N) (Jensen, IEEE TEC 7(5), 2003); more
    objectives peel an N x N dominance matrix front by front.  A feasible
    row with a NaN objective raises ValueError.
    """
    F = np.asarray(F, dtype=float)
    violation = np.asarray(violation, dtype=float)
    feasible = np.flatnonzero(violation <= 0.0)
    if np.isnan(F[feasible]).any():
        raise ValueError("feasible rows must have no NaN objective")
    rank = np.empty(len(F), dtype=int)
    if F.shape[1] == 2:
        rank[feasible] = oracle_sweep_ranks_2d(F[feasible])
    else:
        rank[feasible] = oracle_peel_ranks(F[feasible])
    fronts = rank[feasible].max(initial=-1) + 1
    infeasible = np.flatnonzero(~(violation <= 0.0))
    _, level = np.unique(violation[infeasible], return_inverse=True)
    rank[infeasible] = fronts + level
    return rank


def oracle_sweep_ranks_2d(F):
    """Nondomination ranks of two-objective rows without NaN.

    In (f1, f2) order every dominator of a row comes before it, and
    tails[r], the least f2 of the rows ranked r so far, never decreases
    with r.  A row's rank is then the number of fronts holding a member
    with f2 no greater than its own, bisect_right of tails.  An exact
    repeat of the row before it has that row's dominators and so takes
    its rank.
    """
    order = np.lexsort((F[:, 1], F[:, 0]))
    tails, ranks, previous = [], [], None
    for row in F[order].tolist():
        if row != previous:
            r = bisect.bisect_right(tails, row[1])
            if r == len(tails):
                tails.append(row[1])
            else:
                tails[r] = row[1]
            previous = row
        ranks.append(r)
    rank = np.empty(len(order), dtype=int)
    rank[order] = ranks
    return rank


def oracle_peel_ranks(F):
    """Nondomination ranks by peeling the dominance matrix of F."""
    D = dominance_matrix(F, F)
    dominators = D.sum(axis=0)
    rank = np.empty(len(F), dtype=int)
    fronts = 0
    # ranked rows stay at -1: no row of a later front dominates them
    while (dominators >= 0).any():
        current = np.flatnonzero(dominators == 0)
        rank[current] = fronts
        fronts += 1
        dominators = dominators - D[current].sum(axis=0)
        dominators[current] = -1
    return rank


def oracle_crowding_distance(F, rank):
    """Crowding distance of each row of F (n, m) within its `rank` front.

    Boundary members of every objective get infinity; interior members
    accumulate range-normalized neighbor gaps per objective, ties in index
    order.  Ranks are non-negative.
    """
    F = np.asarray(F, dtype=float)
    rank = np.asarray(rank)
    d = np.zeros(len(F))
    for j in range(F.shape[1]):
        order = np.lexsort((F[:, j], rank))
        r, f = rank[order], F[order, j]
        first = np.diff(r, prepend=-1) != 0
        last = np.diff(r, append=-1) != 0
        span = (f[last] - f[first])[np.cumsum(first) - 1]
        inner = np.flatnonzero(~(first | last) & (span > 0))
        d[order[inner]] += (f[inner + 1] - f[inner - 1]) / span[inner]
        d[order[first | last]] = np.inf
    return d


def oracle_survivors(F, violation, size):
    """The `size` rows that survive truncation, in survival order, and
    the rank and crowding distance of every row.

    Whole fronts enter in rank order, each in index order; of the front
    that does not fit, the members of largest crowding distance enter.
    """
    rank = oracle_fast_nondominated_sort(F, violation)
    crowding = oracle_crowding_distance(F, rank)
    filled = np.cumsum(np.bincount(rank))
    cut = np.searchsorted(filled, size)
    # a front that fits exactly keeps its index order
    key = np.where((rank == cut) & (filled[cut] > size), -crowding, 0.0)
    return np.lexsort((key, rank))[:size], rank, crowding


def oracle_breed(genomes, rank, crowding, problem, config, rng):
    """One generation of offspring genomes (vectorized operators)."""
    pop = config.population
    dim = problem.dimension
    lo, hi = problem.lower, problem.upper

    draws = rng.integers(0, pop, size=(pop, 2))
    a, b = draws[:, 0], draws[:, 1]
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowding[b] > crowding[a]))
    genomes = genomes[np.where(b_wins, b, a)]

    # simulated binary crossover on consecutive pairs
    half = pop // 2
    p1 = genomes[0::2].copy()
    p2 = genomes[1::2].copy()
    do_pair = rng.random(half) < config.crossover_prob
    do_var = rng.random((half, dim)) < 0.5
    u = rng.random((half, dim))
    eta = config.crossover_eta
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    mask = do_pair[:, None] & do_var
    c1 = np.where(mask, 0.5 * ((1 + beta) * p1 + (1 - beta) * p2), p1)
    c2 = np.where(mask, 0.5 * ((1 - beta) * p1 + (1 + beta) * p2), p2)
    children = np.empty_like(genomes)
    children[0::2] = c1
    children[1::2] = c2

    # polynomial mutation
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / dim
    mut = rng.random((pop, dim)) < pm
    u = rng.random((pop, dim))
    eta_m = config.mutation_eta
    delta = np.where(u < 0.5,
                     (2.0 * u) ** (1.0 / (eta_m + 1.0)) - 1.0,
                     1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta_m + 1.0)))
    children = np.where(mut, children + delta * (hi - lo), children)
    return np.clip(children, lo, hi)


def seeded_populations(seed, count=400):
    """(F, violation) of seeded two-objective populations: coarse
    objectives for repeated rows and ties, -0.0 beside 0.0, rows at
    OBJECTIVE_SENTINEL, violations that are NaN, inf or negative, NaN
    objectives on infeasible rows, populations with every row
    infeasible, and one with no rows at all."""
    rng = np.random.default_rng(seed)
    yield np.empty((0, 2)), np.empty(0)
    for trial in range(count):
        n = int(rng.integers(1, 60))
        F = rng.integers(0, int(rng.integers(1, 8)), size=(n, 2)) \
            + rng.choice([0.0, 0.25, 1e-9], size=(n, 2))
        F[rng.random((n, 2)) < 0.1] *= -1.0
        F[rng.random(n) < 0.1] = OBJECTIVE_SENTINEL
        V = [np.zeros(n),
             np.where(rng.random(n) < 0.3, rng.integers(1, 4, n), 0.0),
             rng.integers(1, 4, n).astype(float),
             np.where(rng.random(n) < 0.3, np.nan,
                      np.where(rng.random(n) < 0.3, rng.integers(1, 3, n),
                               0.0)),
             np.where(rng.random(n) < 0.5, np.inf,
                      -rng.random(n) * (rng.random(n) < 0.5))][trial % 5]
        F[~(V <= 0.0) & (rng.random(n) < 0.2)] = np.nan
        yield F, V


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestNondominatedSort:
    def test_two_front_example(self):
        pop = individuals([(1, 2), (2, 1), (3, 3)])
        assert fronts_of(fast_nondominated_sort(*pop)) == [[0, 1], [2]]

    def test_identical_objectives_single_front(self):
        pop = individuals([(1, 1)] * 5)
        assert fronts_of(fast_nondominated_sort(*pop)) == [[0, 1, 2, 3, 4]]

    def test_chain_gives_singletons(self):
        pop = individuals([(1, 1), (2, 2), (3, 3)])
        assert fronts_of(fast_nondominated_sort(*pop)) == [[0], [1], [2]]

    def test_feasible_dominates_infeasible(self):
        pop = individuals([(5, 5), (0, 0)], violations=[0.0, 1.0])
        assert fronts_of(fast_nondominated_sort(*pop)) == [[0], [1]]

    def test_lower_violation_dominates(self):
        pop = individuals([(0, 0), (0, 0)], violations=[2.0, 1.0])
        assert fronts_of(fast_nondominated_sort(*pop)) == [[1], [0]]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            F = rng.integers(0, 6, size=(n, 2)).astype(float)
            V = np.where(rng.random(n) < 0.3, rng.uniform(0, 2, n), 0.0)
            assert (fronts_of(fast_nondominated_sort(F, V))
                    == brute_force_fronts(F, V))
        # rows that are not feasible: none feasible, all at one violation,
        # NaN among them, inf beside negative violations.  Every row lands
        # in exactly one front: a violation that is not <= 0 counts as
        # infeasible and is never dropped
        cases = [lambda n: rng.uniform(0.5, 2.0, n),
                 lambda n: np.full(n, 1.5),
                 lambda n: np.where(rng.random(n) < 0.3, np.nan,
                                    np.where(rng.random(n) < 0.3,
                                             rng.integers(1, 3, n), 0.0)),
                 lambda n: np.where(rng.random(n) < 0.5, np.inf,
                                    -rng.random(n))]
        for violations in cases:
            for _ in range(30):
                n = int(rng.integers(1, 40))
                F = rng.integers(0, 4, size=(n, 2)).astype(float)
                V = violations(n)
                fronts = fronts_of(fast_nondominated_sort(F, V))
                flat = sorted(i for front in fronts for i in front)
                assert flat == list(range(n))
                assert fronts == brute_force_fronts(F, V)
        # two-objective ties the sort-and-sweep ranking must get right
        S = OBJECTIVE_SENTINEL
        cases = [
            ([(1, 2), (1, 2), (2, 1), (1, 2), (2, 1), (3, 3), (3, 3)], None),
            ([(1, 1), (2, 0), (1, 1), (0, 2), (2, 2), (2, 2), (1, 3)], None),
            ([(0.0, 1), (-0.0, 1), (1, 0.0), (1, -0.0), (-0.0, -0.0),
              (0.0, 0.0), (1, 1)], None),
            ([(S, S), (1, 1), (S, S), (0, S), (S, 0), (S, S)], None),
            ([(S, S), (0, 0), (1, 1)], [0.0, 1.0, 0.0]),
            ([(2, 5)] * 7, None),
            ([(4, 4)], None),
            ([(1, 2), (0, 0), (1, 2), (3, 1)], [0.5, 2.0, 0.5, np.nan]),
        ]
        for rows, violations in cases:
            F, V = individuals(rows, violations)
            assert (fronts_of(fast_nondominated_sort(F, V))
                    == brute_force_fronts(F, V))
        # 2000 rows over 625 distinct points
        F = rng.integers(0, 25, size=(2000, 2)).astype(float)
        assert (fronts_of(fast_nondominated_sort(*individuals(F)))
                == matrix_fronts(F))

    @pytest.mark.parametrize("objectives", [2, 3])
    def test_nan_objective_of_feasible_row_refused(self, objectives):
        # the engine is bi-objective: three objectives are refused whole,
        # before any row is read
        F = np.ones((4, objectives))
        F[2, 1] = np.nan
        refusal = "NaN" if objectives == 2 else r"\(n, 2\)"
        with pytest.raises(ValueError, match=refusal):
            fast_nondominated_sort(F, np.zeros(4))
        violation = np.array([0.0, 0.0, 1.0, 0.0])
        if objectives == 2:
            # an infeasible row's objectives are never compared
            rank = fast_nondominated_sort(F, violation)
            assert fronts_of(rank) == [[0, 1, 3], [2]]
        else:
            with pytest.raises(ValueError, match=refusal):
                fast_nondominated_sort(F, violation)

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3), (2, 2, 2)])
    def test_objectives_other_than_two_columns_refused(self, shape):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fast_nondominated_sort(np.zeros(shape), np.zeros(4))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            crowding_distance(np.zeros(shape), np.zeros(4, dtype=int))

    def test_population_cap_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        F, V = individuals(rng.random((2 * MAX_POPULATION, 2)))
        tracemalloc.start()
        try:
            rank = fast_nondominated_sort(F, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fronts_of(rank) == matrix_fronts(F)
        # one (rows, rows) boolean dominance matrix alone would take 16 MB
        assert peak < 4 * 2 ** 20

    def test_fronts_partition_population(self):
        rng = np.random.default_rng(5)
        F = rng.random((40, 2))
        fronts = fronts_of(fast_nondominated_sort(*individuals(F)))
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(40))
        for k in range(len(fronts) - 1):
            for i in fronts[k + 1]:
                assert any(dominates(F[j], F[i], 0.0, 0.0)
                           for j in fronts[k])


class TestCrowdingDistance:
    def test_pair_is_boundary(self):
        d = crowding_distance([(0, 1), (1, 0)], [0, 0])
        assert np.all(np.isinf(d))

    def test_evenly_spaced_middle(self):
        d = crowding_distance([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], [0, 0, 0])
        assert d[1] == 2.0
        assert np.isinf(d[0]) and np.isinf(d[2])

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(6)
        F = rng.random((20, 2))
        d = crowding_distance(F, np.zeros(20, dtype=int))
        expected = np.zeros(20)
        for j in range(2):
            order = np.argsort(F[:, j], kind="stable")
            expected[order[0]] = expected[order[-1]] = np.inf
            span = F[order[-1], j] - F[order[0], j]
            for pos in range(1, 19):
                if np.isinf(expected[order[pos]]):
                    continue
                expected[order[pos]] += (F[order[pos + 1], j]
                                         - F[order[pos - 1], j]) / span
        finite = np.isfinite(expected)
        assert np.allclose(d[finite], expected[finite], atol=1e-12)
        assert np.array_equal(np.isinf(d), np.isinf(expected))

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        F = rng.random((15, 2))
        scaled = F * np.array([7.3, 1.0])
        pop_a, pop_b = individuals(F), individuals(scaled)
        rank = fast_nondominated_sort(*pop_a)
        assert np.array_equal(rank, fast_nondominated_sort(*pop_b))
        da = crowding_distance(F, rank)
        db = crowding_distance(scaled, rank)
        finite = np.isfinite(da)
        assert np.allclose(da[finite], db[finite], atol=1e-12)

    def test_fronts_in_one_pass_match_per_front(self):
        # many fronts in one rank vector, ties in every objective, fronts
        # of one and two rows, in shuffled row order
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            F = rng.integers(0, 5, size=(n, 2))
            F = F + rng.choice([0.0, 0.5, 1e-9], size=F.shape)
            rank = rng.integers(0, int(rng.integers(1, 12)), size=n)
            d = crowding_distance(F, rank)
            expected = np.zeros(n)
            for front in fronts_of(rank):
                expected[front] = front_crowding(F[front])
            assert np.array_equal(d, expected)


class TestSurvivors:
    @pytest.mark.parametrize("violations", [
        lambda rng, n: np.zeros(n),
        lambda rng, n: np.where(rng.random(n) < 0.3,
                                rng.integers(1, 4, n).astype(float), 0.0),
        lambda rng, n: rng.integers(1, 5, n).astype(float),
        lambda rng, n: np.where(rng.random(n) < 0.3, np.nan,
                                np.where(rng.random(n) < 0.3,
                                         rng.integers(1, 3, n), 0.0)),
        lambda rng, n: np.where(rng.random(n) < 0.4, np.inf, 0.0),
    ], ids=["feasible", "mixed", "all-infeasible", "nan", "inf"])
    def test_survival_order_matches_per_front_oracle(self, violations):
        # every size from 1 to n: fronts that fit exactly, and cut fronts
        rng = np.random.default_rng(9)
        exact_fits = cuts = 0
        for _ in range(40):
            n = int(rng.integers(4, 41))
            F = rng.integers(0, 6, size=(n, 2)) + rng.choice(
                [0.0, 0.25], size=(n, 2))
            V = violations(rng, n)
            fronts = brute_force_fronts(F, V)
            filled = np.cumsum([len(front) for front in fronts])
            for size in range(1, n + 1):
                rows, rank, crowding = _survivors(F, V, size)
                expected = survivors_oracle(F, fronts, size)
                assert rows.tolist() == expected[0].tolist()
                assert np.array_equal(rank[rows], expected[1][rows])
                assert np.array_equal(crowding[rows], expected[2][rows])
                exact_fits += size in filled and len(fronts) > 1
                cuts += size not in filled
        assert exact_fits > 0 and cuts > 0


# a bi-objective benchmark and the leg problem, each with a short run
EVOLVE_CASES = pytest.mark.parametrize("make_problem, config", [
    (lambda: zdt1_problem(dim=4),
     GAConfig(population=24, generations=30, seed=5)),
    (lambda: leg_problem(count=12),
     GAConfig(population=16, generations=12, seed=7)),
], ids=["zdt1", "leg"])


class TestAgainstOracleEngine:
    """Ranking, crowding, truncation and breeding against the oracle
    copies of the engine before the fused two-objective survival step,
    bit for bit, on seeded_populations."""

    def test_ranks(self):
        peeled = 0
        for F, V in seeded_populations(31):
            rank = fast_nondominated_sort(F, V)
            assert same_bits(rank, oracle_fast_nondominated_sort(F, V))
            if np.all(V <= 0.0):
                # the dominance-matrix peeling the engine dropped
                assert same_bits(rank, oracle_peel_ranks(F))
                peeled += 1
        assert peeled > 50

    def test_crowding(self):
        rng = np.random.default_rng(32)
        for F, V in seeded_populations(33):
            # true ranks, and ranks with empty fronts between them
            for rank in (oracle_fast_nondominated_sort(F, V),
                         rng.integers(0, 12, size=len(F))):
                assert same_bits(crowding_distance(F, rank),
                                 oracle_crowding_distance(F, rank))

    def test_survivors(self):
        rng = np.random.default_rng(34)
        cuts = 0
        for F, V in seeded_populations(35):
            if not len(F):
                continue  # the oracle has no front to cut in
            for size in {1, len(F), int(rng.integers(1, len(F) + 1))}:
                got = _survivors(F, V, size)
                expected = oracle_survivors(F, V, size)
                for a, b in zip(got, expected):
                    assert same_bits(a, b)
                cuts += size not in np.cumsum(np.bincount(expected[1]))
        assert cuts > 100

    def test_children(self):
        rng = np.random.default_rng(36)
        for trial in range(300):
            dim, pop = int(rng.integers(1, 7)), 2 * int(rng.integers(2, 30))
            lo = rng.normal(size=dim)
            hi = lo + rng.random(dim) * rng.choice([0.0, 1.0, 100.0], dim)
            problem = Problem(lower=lo, upper=hi, evaluate=None)
            config = GAConfig(
                population=pop, crossover_prob=float(rng.random()),
                crossover_eta=float(rng.choice([0.0, 1.0, 15.0])),
                mutation_prob=[None, 1.0, float(rng.random())][trial % 3],
                mutation_eta=float(rng.choice([0.0, 5.0, 20.0])))
            genomes = lo + rng.random((pop, dim)) * (hi - lo)
            rank = rng.integers(0, 5, size=pop)
            crowding = np.where(rng.random(pop) < 0.2, np.inf,
                                rng.random(pop))
            children = _breed(genomes, rank, crowding, problem, config,
                              np.random.default_rng(trial))
            expected = oracle_breed(genomes, rank, crowding, problem, config,
                                    np.random.default_rng(trial))
            assert same_bits(children, expected)

    @EVOLVE_CASES
    def test_evolve(self, monkeypatch, make_problem, config):
        result = evolve(make_problem(), config)
        monkeypatch.setattr(nsga2, "_survivors", oracle_survivors)
        monkeypatch.setattr(nsga2, "_breed", oracle_breed)
        expected = evolve(make_problem(), config)
        for name in ("genomes", "F", "violation", "rank", "hypervolume",
                     "best_objectives", "archive"):
            assert same_bits(getattr(result, name), getattr(expected, name))


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([(0.0, 0.0)], (1.0, 1.0)) == 1.0

    def test_inclusion_exclusion_pair(self):
        value = hypervolume_2d([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
        assert abs(value - 0.75) < 1e-15

    def test_dominated_point_no_effect(self):
        base = hypervolume_2d([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
        more = hypervolume_2d([(0.0, 0.5), (0.5, 0.0), (0.6, 0.6)],
                              (1.0, 1.0))
        assert base == more

    def test_non_dominating_point_excluded(self):
        value = hypervolume_2d([(0.5, 0.5), (2.0, 0.1)], (1.0, 1.0))
        assert abs(value - 0.25) < 1e-15

    def test_normalization(self):
        value = hypervolume_2d([(0.0, 0.0)], (2.0, 2.0),
                               normalization=(0.0, 0.0))
        assert value == 1.0

    def test_staircase_matches_scan_oracle_bitwise(self):
        # duplicates, ties in x and in y, and NaN in either coordinate
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            points = rng.integers(0, 12, size=(n, 2)) + rng.choice(
                [0.0, 0.25, 1e-9], size=(n, 2))
            points[rng.random((n, 2)) < 0.05] = np.nan
            fast, oracle = _nondominated_2d(points), staircase_oracle(points)
            assert fast.tobytes() == oracle.tobytes()

    def test_matches_strip_sum_oracle_bitwise(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            front = rng.random((n, 2)) * rng.uniform(1e-6, 1e3, 2)
            front[rng.random(n) < 0.1] = front[0]
            reference = front.max(axis=0) * rng.uniform(0.8, 1.2)
            ideal = front.min(axis=0) if rng.random() < 0.5 else None
            value = hypervolume_2d(front, reference, normalization=ideal)
            assert value == hypervolume_oracle(front, reference, ideal)


class TestEvolve:
    def test_zdt1_reaches_analytic_front(self):
        result = evolve(zdt1_problem(), GAConfig(population=100,
                                                 generations=250, seed=1))
        F = result.F[result.rank == 0]
        ts = np.linspace(0.0, 1.0, 2001)
        curve = np.stack([ts, 1.0 - np.sqrt(ts)], axis=1)
        dists = np.sqrt(((F[:, None, :] - curve[None, :, :]) ** 2)
                        .sum(axis=2)).min(axis=1)
        assert dists.mean() <= 0.02

    def test_deterministic_given_seed(self):
        config = GAConfig(population=24, generations=30, seed=9)
        a = evolve(zdt1_problem(dim=5), config)
        b = evolve(zdt1_problem(dim=5), config)
        assert np.array_equal(a.hypervolume, b.hypervolume)
        assert np.array_equal(a.best_objectives, b.best_objectives)
        assert np.array_equal(a.genomes, b.genomes)
        assert a.hypervolume.shape == (31,)
        assert a.best_objectives.shape == (31, 2)

    def test_genomes_stay_in_bounds(self):
        problem = zdt1_problem(dim=4)
        result = evolve(problem, GAConfig(population=20, generations=40,
                                          seed=3))
        assert np.all(result.genomes >= problem.lower)
        assert np.all(result.genomes <= problem.upper)

    @EVOLVE_CASES
    def test_history_matches_union_oracle(self, make_problem, config):
        # each generation's hypervolume and best objectives, bit for bit,
        # from the union of every feasible point evaluated so far, with
        # the reference and ideal of the first generation that has one
        base = make_problem()
        history = []

        def evaluate(X):
            F, violation = base.evaluate(X)
            history.append((np.array(F, dtype=float),
                            np.array(violation, dtype=float)))
            return F, violation

        problem = Problem(lower=base.lower, upper=base.upper,
                          evaluate=evaluate)
        result = evolve(problem, config)
        assert len(history) == config.generations + 1
        union = np.empty((0, 2))
        reference = ideal = None
        for g, (F, violation) in enumerate(history):
            kept = ((violation <= 0.0) & np.isfinite(violation)
                    & np.all(np.isfinite(F), axis=1)
                    & np.all(np.abs(F) < OBJECTIVE_SENTINEL, axis=1))
            if kept.any() and reference is None:
                reference, ideal = F[kept].max(axis=0), F[kept].min(axis=0)
            union = np.vstack([union, F[kept]])
            if len(union):
                hv = hypervolume_oracle(union, reference, ideal)
                best = union.min(axis=0)
            else:
                hv, best = 0.0, np.full(2, np.nan)
            assert result.hypervolume[g] == hv
            assert same_bits(result.best_objectives[g], best)
        assert len(union) and result.hypervolume[-1] > 0.0

    def test_archive_hypervolume_monotone(self):
        result = evolve(zdt1_problem(dim=6), GAConfig(population=30,
                                                      generations=60, seed=2))
        hv = result.hypervolume
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_zero_generations_front_is_initial_rank0(self):
        problem = zdt1_problem(dim=5)
        result = evolve(problem, GAConfig(population=16, generations=0,
                                          seed=11))
        oracle = brute_force_fronts(result.F, result.violation)
        assert fronts_of(result.rank) == oracle

    def test_non_finite_objectives_survive_as_infeasible(self):
        def evaluate(X):
            F = np.column_stack([X[:, 0], 1.0 - X[:, 0]])
            F[X[:, 0] > 0.5] = np.nan
            return F, np.zeros(len(X))

        problem = Problem(lower=np.zeros(2), upper=np.ones(2),
                          evaluate=evaluate)
        result = evolve(problem, GAConfig(population=16, generations=10,
                                          seed=5))
        assert result.genomes.shape == (16, 2)
        assert len(result.F) == len(result.violation) == 16
        assert np.all(result.violation[result.rank == 0] == 0.0)

    def test_one_evaluate_call_per_generation(self):
        calls = []
        base = zdt1_problem(dim=3)

        def evaluate(X):
            calls.append(X.shape)
            return base.evaluate(X)

        problem = Problem(lower=base.lower, upper=base.upper,
                          evaluate=evaluate)
        evolve(problem, GAConfig(population=12, generations=5, seed=4))
        assert calls == [(12, 3)] * 6


class TestConfigValidation:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(population=25)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(population=2)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(crossover_prob=1.5)

    def test_bounds_not_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D arrays"):
            Problem(lower=np.zeros((2, 2)), upper=np.ones((2, 2)),
                    evaluate=None)

    def test_crossed_bounds_rejected(self):
        for lower, upper in (([1.0], [0.0]), ([0.0, np.nan], [1.0, 1.0])):
            with pytest.raises(ValueError, match="must not exceed"):
                Problem(lower=lower, upper=upper, evaluate=None)

    @pytest.mark.parametrize("lower, upper", [
        ([-1e308, 0.0], [1e308, 1.0]),
        ([-np.inf, 0.0], [0.0, 1.0]),
        ([0.0, 0.0], [np.inf, 1.0]),
    ], ids=["span-overflows", "lower-infinite", "upper-infinite"])
    def test_bounds_without_finite_span_rejected(self, lower, upper):
        # the initial sample draws lower + u (upper - lower)
        with pytest.raises(ValueError, match="finite"):
            Problem(lower=lower, upper=upper, evaluate=None)

    def test_equal_bounds_pin_a_gene(self):
        # the pinned gene keeps its value through sampling, crossover and
        # mutation, which here touches every gene of every child
        genes = []
        base = zdt1_problem(dim=3)

        def evaluate(X):
            genes.append(X[:, 1].copy())
            return base.evaluate(X)

        problem = Problem(lower=[0.0, 0.25, 0.0], upper=[1.0, 0.25, 1.0],
                          evaluate=evaluate)
        evolve(problem, GAConfig(population=12, generations=5,
                                 mutation_prob=1.0, seed=2))
        assert len(genes) == 6 and np.all(np.concatenate(genes) == 0.25)

    def test_three_objectives_rejected(self):
        problem = Problem(lower=np.zeros(2), upper=np.ones(2),
                          evaluate=lambda X: (np.zeros((len(X), 3)),
                                              np.zeros(len(X))))
        with pytest.raises(ValueError):
            evolve(problem, GAConfig(population=4, generations=0))


class TestLegProblem:
    def test_unassemblable_genome_is_infeasible(self):
        genome = np.array([0.6, 0.4, 0.5, np.pi / 2, 1.05 * np.pi])
        F, violation = leg_objectives(genome)
        assert np.all(F == OBJECTIVE_SENTINEL)
        assert violation > 0.0

    def test_error_objective_matches_direct_evaluation(self):
        # independent path: build the coupler trajectory and the solved
        # target line, then average the squared deviations directly
        problem = leg_problem()
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 10:
            genome = problem.lower + rng.random(5) * (problem.upper
                                                      - problem.lower)
            F = problem.evaluate(genome[None])[0][0]
            if F[0] >= OBJECTIVE_SENTINEL:
                continue
            checked += 1
            params = FourBarParams(*genome)
            count = 24
            trace = sweep(params, count)
            solution = solve(*sweep_arrays(trace))
            path = coupler_path(trace, solution.x[:2])
            x = solution.x
            targets = x[2:4] + trace.fractions[:, None] * x[4:]
            direct = np.mean(((path - targets) ** 2).sum(axis=1))
            assert abs(direct - F[0]) <= 1e-12 * (1.0 + direct)

    def test_batch_matches_single_genomes(self):
        # a generation evaluated in one call gives each genome's own
        # objectives, and a genome whose support arc does not assemble
        # the arc check's violation, with a sweep that raises
        problem = leg_problem(count=12)
        rng = np.random.default_rng(14)
        genomes = problem.lower + rng.random((40, 5)) * (problem.upper
                                                         - problem.lower)
        F, violation = problem.evaluate(genomes)
        for genome, f, v in zip(genomes, F, violation):
            alone, v_alone = leg_objectives(genome, count=12)
            assert np.array_equal(f, alone) and v == v_alone
            params = FourBarParams(*genome)
            assert v == arc_check(params).violation[0]
            if v == 0.0:
                assert f[1] < 0.0
                sweep(params, 12)
            else:
                assert np.all(f == OBJECTIVE_SENTINEL)
                with pytest.raises(LinkageError):
                    sweep(params, 12)
        assert 0 < np.count_nonzero(violation) < len(genomes)

    def test_straight_line_genome_scores_well(self):
        F, _ = leg_objectives(HOEKEN_GENOME)
        assert F[0] <= 1e-3
        assert np.degrees(-F[1]) >= 20.0

    def test_short_leg_run_improves_archive(self):
        box = ParamBox(
            lower=np.array([0.4, 1.0, 1.0, 0.0, np.pi]),
            upper=np.array([0.6, 1.5, 1.5, 2.0 * np.pi, 1.3 * np.pi]))
        problem = leg_problem(box=box, count=12)
        result = evolve(problem, GAConfig(population=20, generations=25,
                                          seed=0))
        hv = result.hypervolume
        assert hv[-1] >= hv[0]
        assert len(result.archive) >= 1
        # the ranks kept through truncation are those of the final population
        assert np.array_equal(result.rank, fast_nondominated_sort(
            result.F, result.violation))

    def test_all_infeasible_run_ranks_by_violation(self):
        box = ParamBox(lower=np.array([0.55, 0.4, 0.4, 0.0, 3.2]),
                       upper=np.array([0.6, 0.45, 0.45, 0.1, 3.3]))
        result = evolve(leg_problem(box=box),
                        GAConfig(population=8, generations=3, seed=3))
        assert np.all(result.violation > 0.0)
        assert np.array_equal(result.rank, fast_nondominated_sort(
            result.F, result.violation))
        assert np.array_equal(np.argsort(result.violation, kind="stable"),
                              np.argsort(result.rank, kind="stable"))
        assert np.all(result.hypervolume == 0.0)
        assert np.isnan(result.best_objectives).all()
