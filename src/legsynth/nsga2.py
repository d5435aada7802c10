"""Elitist multi-objective genetic engine (NSGA-II) and the leg instance.

The engine is bi-objective: it takes real-coded problems with two
objectives, box bounds (equal bounds pin a gene), and a total
constraint violation handled by constraint-domination: a feasible
individual beats any infeasible one, and among infeasible individuals
the smaller total violation wins.
Breeding uses binary tournament on (rank, crowding distance), simulated
binary crossover, and polynomial mutation; survival is (mu + lambda)
truncation by nondomination rank with crowding-distance tie-breaking.
The ranks of two objectives come from one lexicographic sort and a
binary-search sweep, O(N log N) for N rows (Jensen, IEEE TEC 7(5),
2003), with no N x N dominance matrix; crowding distances of both
objectives take one pass.  Ranking and crowding refuse objectives that
are not (n, 2).

Convergence is tracked by the exact hypervolume of the running
nondominated archive (every feasible point ever evaluated, reduced to
its nondominated subset) against a reference point frozen from the
first feasible points, computed by hypervolume_2d, the function
acceptance criterion 8 checks.  The archive reading makes the trace
monotone by construction, which the population-only front does not
guarantee under crowding truncation.

The leg instance's genome is the five nonlinear linkage parameters; the
coupler point and the target line of each genome come out of the
closed-form inner solve of synthesis.reduced_objective.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .fourbar import FourBarParams
from .search import DEFAULT_BOX, DEFAULT_SWEEP_SAMPLES
from .synthesis import reduced_objective

OBJECTIVE_SENTINEL = 1e30


@dataclass(frozen=True)
class Problem:
    """Real-coded minimization problem for the engine.

    evaluate maps an (n, dimension) array of genomes to (F, violation):
    the (n, 2) objective matrix and the n total constraint violations, 0
    for a feasible genome and positive otherwise.  Each row must be a pure
    function of its genome.  The bounds, and upper - lower, are finite.
    """

    lower: np.ndarray
    upper: np.ndarray
    evaluate: object

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lo <= hi):
            raise ValueError("lower bounds must not exceed upper bounds")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(hi - lo).all():
                raise ValueError("bounds and their spans must be finite")

    @property
    def dimension(self):
        return len(self.lower)


@dataclass(frozen=True)
class GAConfig:
    """Engine hyperparameters.

    The distribution indices and probabilities default to common NSGA-II
    conventions: crossover probability 0.9 with index 15, mutation
    probability 1/dimension with index 20.
    """

    population: int = 100
    generations: int = 250
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = None
    mutation_eta: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")
        for name in ("crossover_eta", "mutation_eta"):
            # SBX and polynomial mutation raise to the power 1 / (eta + 1)
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be at least 0")


@dataclass
class EvolveResult:
    """The final population as arrays, one row per individual: `genomes`,
    objectives `F`, total constraint `violation` and nondomination `rank`;
    one row per generation from 0: the `hypervolume` and `best_objectives`
    of the nondominated `archive` of every feasible point evaluated."""

    genomes: np.ndarray
    F: np.ndarray
    violation: np.ndarray
    rank: np.ndarray
    hypervolume: np.ndarray
    best_objectives: np.ndarray
    archive: np.ndarray


def _evaluate(problem, genomes):
    """(F, violation) of one generation's genomes, from a single call.

    Non-finite objective or violation values mark a row maximally
    infeasible instead of aborting the run.
    """
    F, violation = problem.evaluate(genomes)
    F = np.array(F, dtype=float)
    violation = np.array(violation, dtype=float)
    n = len(genomes)
    if F.shape != (n, 2) or violation.shape != (n,):
        raise ValueError("evaluate must return (n, 2) objectives and n "
                         "violations")
    bad = ~(np.all(np.isfinite(F), axis=1) & np.isfinite(violation))
    F[bad] = OBJECTIVE_SENTINEL
    violation[bad] = np.inf
    return F, violation


def fast_nondominated_sort(F, violation):
    """The nondomination rank of every row of the (n, 2) objectives F
    (Deb et al., IEEE TEC 2002), under constraint-domination: feasible
    rows (violation <= 0) are ranked by dominance, rank 0 nondominated,
    and every other row follows, one rank per distinct violation in
    increasing order (NaN last).  F that is not (n, 2), or a feasible row
    with a NaN objective, raises ValueError.

    One sort and a binary-search sweep rank the feasible rows in O(N log
    N) (Jensen, IEEE TEC 7(5), 2003): in (f1, f2) order a row's
    dominators come first and tails[r], the least f2 ranked r so far,
    grows with r, so a row's rank is bisect_right of tails; an exact
    repeat of the row before it takes that row's rank.
    """
    F, violation = _objectives(F), np.asarray(violation, dtype=float)
    feasible = np.flatnonzero(violation <= 0.0)
    G = F[feasible]
    if np.isnan(G).any():
        raise ValueError("feasible rows must have no NaN objective")
    # a row f1 + i f2 as one complex number sorts in (f1, f2) order
    z = G.view(complex)[:, 0]
    order = np.argsort(z, kind="stable")
    z = z[order]
    fresh = np.ones(len(z), dtype=bool)
    np.not_equal(z[1:], z[:-1], out=fresh[1:])
    tails, ranks = [], []
    for f2, new in zip(z.imag.tolist(), fresh.tolist()):
        if new:
            r = bisect_right(tails, f2)
            if r < len(tails):
                tails[r] = f2
            else:
                tails.append(f2)
        ranks.append(r)
    rank = np.empty(len(F), dtype=int)
    rank[feasible[order]] = ranks
    if len(feasible) < len(F):
        infeasible = np.flatnonzero(~(violation <= 0.0))
        _, level = np.unique(violation[infeasible], return_inverse=True)
        rank[infeasible] = level + len(tails)
    return rank


def _objectives(F):
    """F as a float array, refused unless it is (n, 2)."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError("objectives must form an (n, 2) array")
    return F


def crowding_distance(F, rank):
    """Crowding distance of each row of the (n, 2) objectives F within
    its `rank` front (ranks non-negative): boundary members of each
    objective get infinity, interior members accumulate range-normalized
    neighbor gaps per objective, ties in index order.  Both objectives
    sort by rank first, so they share the front edges."""
    F, rank = _objectives(F), np.asarray(rank)
    order = np.array([np.lexsort((column, rank)) for column in F.T])
    f = F[order, [[0], [1]]]
    counts = np.bincount(rank)
    counts = counts[counts > 0]
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    edge = np.zeros(len(F), dtype=bool)
    edge[first] = edge[last] = True
    span = np.repeat(f[:, last] - f[:, first], counts, axis=1)
    # 0 off the interior adds nothing: no distance is ever -0.0
    step = np.zeros_like(f)
    np.divide(f[:, 2:] - f[:, :-2], span[:, 1:-1], out=step[:, 1:-1],
              where=~edge[1:-1] & (span[:, 1:-1] > 0))
    d = np.zeros(len(F))
    for rows, s in zip(order, step):
        d[rows] += s
        d[rows[edge]] = np.inf
    return d


def hypervolume_2d(front, reference, normalization=None):
    """Exact area of the region dominated by a 2-D front up to `reference`.

    Points that do not dominate the reference contribute nothing.  When
    `normalization` (an ideal point) is given, the area is divided by the
    reference-to-ideal box area.
    """
    F = np.asarray(front, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float)
    stairs = _nondominated_2d(F[np.all(F < ref, axis=1)])
    area = 0.0
    if len(stairs):
        widths = np.diff(np.append(stairs[:, 0], ref[0]))
        # a running sum adds the strips left to right, as a loop would
        area = np.cumsum(widths * (ref[1] - stairs[:, 1]))[-1]
    if normalization is not None:
        ideal = np.asarray(normalization, dtype=float)
        box = float(np.prod(ref - ideal))
        if box > 0:
            area /= box
    return area


def _nondominated_2d(points):
    """Nondominated subset of 2-D points (duplicates removed)."""
    if len(points) == 0:
        return points
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    # keep a point below the lowest y seen before it; fmin skips NaN as
    # the point-by-point scan does
    lowest_before = np.fmin.accumulate(np.append(np.inf, pts[:-1, 1]))
    return pts[pts[:, 1] < lowest_before]


def _survivors(F, violation, size):
    """The `size` rows that survive truncation, in survival order, and
    the rank and crowding distance of every row.

    Whole fronts enter in rank order, each in index order; of the front
    that does not fit, the members of largest crowding distance enter.
    """
    rank = fast_nondominated_sort(F, violation)
    crowding = crowding_distance(F, rank)
    counts = np.bincount(rank)
    rows = np.argsort(rank, kind="stable")
    end = np.cumsum(counts)
    cut = np.searchsorted(end, size)
    # a front that fits exactly keeps its index order
    if end[cut] > size:
        front = rows[end[cut] - counts[cut]:end[cut]]
        front[:] = front[np.argsort(-crowding[front], kind="stable")]
    return rows[:size], rank, crowding


def _breed(genomes, rank, crowding, problem, config, rng):
    """One generation of offspring genomes (vectorized operators)."""
    pop, dim = config.population, problem.dimension
    lo, hi = problem.lower, problem.upper

    a, b = rng.integers(0, pop, size=(pop, 2)).T
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowding[b] > crowding[a]))
    genomes = genomes[np.where(b_wins, b, a)]

    # simulated binary crossover on consecutive pairs
    half = pop // 2
    p1, p2 = genomes[0::2], genomes[1::2]
    do_pair = rng.random(half) < config.crossover_prob
    do_var = rng.random((half, dim)) < 0.5
    u = rng.random((half, dim))
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) \
        ** (1.0 / (config.crossover_eta + 1.0))
    mask = do_pair[:, None] & do_var
    plus, minus = 1 + beta, 1 - beta
    children = np.empty_like(genomes)
    children[0::2] = np.where(mask, 0.5 * (plus * p1 + minus * p2), p1)
    children[1::2] = np.where(mask, 0.5 * (minus * p1 + plus * p2), p2)

    # polynomial mutation
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / dim
    mut = rng.random((pop, dim)) < pm
    u = rng.random((pop, dim))
    low = u < 0.5
    power = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) \
        ** (1.0 / (config.mutation_eta + 1.0))
    delta = np.where(low, power - 1.0, 1.0 - power)
    children = np.where(mut, children + delta * (hi - lo), children)
    return np.clip(children, lo, hi)


def evolve(problem, config):
    """Run the NSGA-II loop; deterministic for a fixed config seed.

    Returns the final population as arrays with its ranks, and per
    generation the hypervolume of the nondominated archive (normalized to
    the ideal/nadir box of the first feasible points) and its best
    objectives.  Until a feasible point turns up, a generation reads
    hypervolume 0 and NaN best objectives.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = problem.lower, problem.upper
    genomes = lo + rng.random((config.population, problem.dimension)) * (hi - lo)
    F, violation = _evaluate(problem, genomes)

    archive = np.empty((0, 2))
    reference = None
    ideal = None
    hypervolume = np.zeros(config.generations + 1)
    best = np.full((config.generations + 1, 2), np.nan)

    def record(generation, F_new, v_new):
        nonlocal archive, reference, ideal
        pts = F_new[(v_new <= 0.0)
                    & np.all(np.abs(F_new) < OBJECTIVE_SENTINEL, axis=1)]
        if len(pts):
            if reference is None:
                reference = pts.max(axis=0)
                ideal = pts.min(axis=0)
            archive = _nondominated_2d(np.vstack([archive, pts]))
        if len(archive):
            hypervolume[generation] = hypervolume_2d(archive, reference,
                                                     ideal)
            best[generation] = archive.min(axis=0)

    _, rank, crowding = _survivors(F, violation, len(F))
    record(0, F, violation)

    for generation in range(1, config.generations + 1):
        children = _breed(genomes, rank, crowding, problem, config, rng)
        F_children, v_children = _evaluate(problem, children)
        record(generation, F_children, v_children)
        genomes = np.concatenate([genomes, children])
        F = np.concatenate([F, F_children])
        violation = np.concatenate([violation, v_children])
        rows, rank, crowding = _survivors(F, violation, config.population)
        genomes, F, violation = genomes[rows], F[rows], violation[rows]
        rank, crowding = rank[rows], crowding[rows]

    return EvolveResult(genomes=genomes, F=F, violation=violation,
                        rank=rank, hypervolume=hypervolume,
                        best_objectives=best, archive=archive)


def leg_problem(box=None, count=DEFAULT_SWEEP_SAMPLES, branch=+1):
    """Leg-synthesis Problem instance over the search box.

    Objectives are (mean squared trajectory error, -worst support-phase
    transmission angle in radians).  The genome is the five nonlinear
    parameters; the coupler point and the target line come out of the
    inner linear solve.  The single constraint is assemblability over the
    whole support arc, with arc_check's continuous violation as the
    constraint violation.
    """
    box = box if box is not None else DEFAULT_BOX

    def evaluate(genomes):
        result = reduced_objective(FourBarParams(*genomes.T, branch=branch),
                                   count)
        F = np.column_stack([result.delta0, -result.mu_min])
        F[result.arc.violation > 0] = OBJECTIVE_SENTINEL
        return F, result.arc.violation

    return Problem(lower=box.lower, upper=box.upper, evaluate=evaluate)
