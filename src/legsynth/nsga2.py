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
2003), with no N x N dominance matrix.

Convergence is tracked by the exact hypervolume of the running
nondominated archive (every feasible point ever evaluated, reduced to
its nondominated subset) against a reference point frozen from the
first feasible points.  The archive reading makes the trace monotone by
construction, which the population-only front does not guarantee under
crowding truncation.

The leg instance's genome is the five nonlinear linkage parameters; the
coupler point and the target line of each genome come out of the
closed-form inner solve of synthesis.reduced_objective.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .fourbar import FourBarParams
from .search import DEFAULT_BOX, DEFAULT_SWEEP_SAMPLES, dominates
from .synthesis import reduced_objective

OBJECTIVE_SENTINEL = 1e30


@dataclass(frozen=True)
class Problem:
    """Real-coded minimization problem for the engine.

    evaluate maps an (n, dimension) array of genomes to (F, violation):
    the (n, 2) objective matrix and the n total constraint violations, 0
    for a feasible genome and positive otherwise.  Each row must be a pure
    function of its genome.
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
        rank[feasible] = _sweep_ranks_2d(F[feasible])
    else:
        rank[feasible] = _peel_ranks(F[feasible])
    fronts = rank[feasible].max(initial=-1) + 1
    infeasible = np.flatnonzero(~(violation <= 0.0))
    _, level = np.unique(violation[infeasible], return_inverse=True)
    rank[infeasible] = fronts + level
    return rank


def _sweep_ranks_2d(F):
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


def _peel_ranks(F):
    """Nondomination ranks by peeling the dominance matrix of F."""
    D = dominates(F, F)
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


def crowding_distance(F, rank):
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


def hypervolume_2d(front, reference, normalization=None):
    """Exact area of the region dominated by a 2-D front up to `reference`.

    Points that do not dominate the reference contribute nothing.  When
    `normalization` (an ideal point) is given, the area is divided by the
    reference-to-ideal box area.
    """
    F = np.asarray(front, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float)
    stairs = _nondominated_2d(F[np.all(F < ref, axis=1)])
    return _staircase_area(stairs, ref, normalization)


def _staircase_area(stairs, ref, normalization):
    """hypervolume_2d of a nondominated staircase: points that dominate
    `ref`, sorted by f1, with no repeats and f2 strictly falling."""
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
    filled = np.cumsum(np.bincount(rank))
    cut = np.searchsorted(filled, size)
    # a front that fits exactly keeps its index order
    key = np.where((rank == cut) & (filled[cut] > size), -crowding, 0.0)
    return np.lexsort((key, rank))[:size], rank, crowding


def _breed(genomes, rank, crowding, problem, config, rng):
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
            # the archive is already a staircase, and so is any subset
            hypervolume[generation] = _staircase_area(
                archive[np.all(archive < reference, axis=1)], reference,
                ideal)
            best[generation] = archive.min(axis=0)

    _, rank, crowding = _survivors(F, violation, len(F))
    record(0, F, violation)

    for generation in range(1, config.generations + 1):
        children = _breed(genomes, rank, crowding, problem, config, rng)
        F_children, v_children = _evaluate(problem, children)
        record(generation, F_children, v_children)
        genomes = np.vstack([genomes, children])
        F = np.vstack([F, F_children])
        violation = np.append(violation, v_children)
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
