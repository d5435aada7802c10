"""Elitist multi-objective genetic engine (NSGA-II) and the leg instance.

The engine is generic over real-coded problems with m >= 2 objectives,
box bounds, and optional inequality/equality constraints handled by
constraint-domination: a feasible individual beats any infeasible one,
and among infeasible individuals the smaller total violation wins.
Breeding uses binary tournament on (rank, crowding distance), simulated
binary crossover, and polynomial mutation; survival is (mu + lambda)
truncation by nondomination rank with crowding-distance tie-breaking.

Convergence is tracked for two-objective problems by the exact
hypervolume of the running nondominated archive (every feasible point
ever evaluated, reduced to its nondominated subset) against a reference
point frozen from the initial population.  The archive reading makes the
trace monotone by construction, which the population-only front does not
guarantee under crowding truncation.
"""

from dataclasses import dataclass, field

import numpy as np

from .fourbar import FourBarParams, SweepInvalidError
from .search import DEFAULT_BOX, DEFAULT_SWEEP_SAMPLES, dominates
from .synthesis import reduced_objective

OBJECTIVE_SENTINEL = 1e30


@dataclass(frozen=True)
class Problem:
    """Real-coded minimization problem for the engine.

    objectives maps a genome to an m-vector; constraints (optional) maps a
    genome to (g, h) where feasibility means g <= 0 and h == 0.  Both
    evaluators must be pure functions.
    """

    lower: np.ndarray
    upper: np.ndarray
    n_objectives: int
    objectives: object
    constraints: object = None

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.n_objectives < 2:
            raise ValueError("the engine handles m >= 2 objectives")

    @property
    def dimension(self):
        return len(self.lower)


@dataclass
class Individual:
    genome: np.ndarray
    objectives: np.ndarray
    violation: float
    rank: int = -1
    crowding: float = 0.0

    @property
    def feasible(self):
        return self.violation <= 0.0


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


@dataclass
class GenerationStats:
    generation: int
    hypervolume: float
    best_objectives: np.ndarray


@dataclass
class EvolveResult:
    population: list
    fronts: list
    trace: list
    archive: np.ndarray
    reference_point: np.ndarray
    ideal_point: np.ndarray

    def front_objectives(self):
        return np.array([self.population[i].objectives for i in self.fronts[0]])


def _evaluate(problem, genome):
    """Evaluate one genome into (objectives, violation).

    Non-finite objective or constraint values mark the individual
    maximally infeasible instead of aborting the run.
    """
    F = np.asarray(problem.objectives(genome), dtype=float)
    violation = 0.0
    if problem.constraints is not None:
        g, h = problem.constraints(genome)
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            return np.full(problem.n_objectives, OBJECTIVE_SENTINEL), np.inf
        violation = float(np.clip(g, 0.0, None).sum() + np.abs(h).sum())
    if F.shape != (problem.n_objectives,) or not np.all(np.isfinite(F)):
        return np.full(problem.n_objectives, OBJECTIVE_SENTINEL), np.inf
    return F, violation


def _domination_matrix(F, violation):
    """D[i, j] = individual i constraint-dominates individual j."""
    feas = violation <= 0.0
    obj_dom = dominates(F, F)
    fi = feas[:, None]
    fj = feas[None, :]
    viol_dom = violation[:, None] < violation[None, :]
    return np.where(fi & fj, obj_dom,
                    np.where(fi & ~fj, True,
                             np.where(~fi & ~fj, viol_dom, False)))


def fast_nondominated_sort(population):
    """Partition the population into nondomination fronts (index lists).

    Front 0 is the nondominated set; each later front is nondominated
    once all earlier fronts are removed.  Constraint-domination is
    applied throughout.
    """
    n = len(population)
    if n == 0:
        return []
    F = np.array([ind.objectives for ind in population])
    violation = np.array([ind.violation for ind in population])
    D = _domination_matrix(F, violation)
    dominators = D.sum(axis=0)
    fronts = []
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = np.nonzero(~assigned & (dominators == 0))[0]
        fronts.append([int(i) for i in current])
        assigned[current] = True
        dominators = dominators - D[current].sum(axis=0)
        dominators[assigned] = -1
    return fronts


def crowding_distance(front_objectives):
    """Crowding distances for one front's objective matrix (n, m).

    Boundary members of every objective get infinity; interior members
    accumulate range-normalized neighbor gaps per objective.
    """
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


def hypervolume_2d(front, reference, normalization=None, return_excluded=False):
    """Exact area of the region dominated by a 2-D front up to `reference`.

    Points that do not dominate the reference contribute nothing and are
    excluded (their count is available via return_excluded).  When
    `normalization` (an ideal point) is given, the area is divided by the
    reference-to-ideal box area.
    """
    F = np.asarray(front, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float)
    keep = np.all(F < ref, axis=1)
    excluded = int(len(F) - keep.sum())
    pts = F[keep]
    area = 0.0
    if len(pts):
        stairs = _nondominated_2d(pts)
        xs = np.append(stairs[:, 0], ref[0])
        for i, y in enumerate(stairs[:, 1]):
            area += (xs[i + 1] - xs[i]) * (ref[1] - y)
    if normalization is not None:
        ideal = np.asarray(normalization, dtype=float)
        box = float(np.prod(ref - ideal))
        if box > 0:
            area /= box
    if return_excluded:
        return area, excluded
    return area


def _nondominated_2d(points):
    """Nondominated subset of 2-D points (duplicates removed)."""
    if len(points) == 0:
        return points
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    kept = []
    best_y = np.inf
    for p in pts:
        if p[1] < best_y:
            kept.append(p)
            best_y = p[1]
    return np.array(kept)


def _ranked_fronts(individuals):
    """Nondomination fronts in rank order, each with its crowding distances.

    Sets the rank and crowding fields of each yielded front's members; a
    caller that stops early leaves the later fronts unassigned.
    """
    for rank, front in enumerate(fast_nondominated_sort(individuals)):
        d = crowding_distance(np.array([individuals[i].objectives for i in front]))
        for i, dist in zip(front, d):
            individuals[i].rank = rank
            individuals[i].crowding = float(dist)
        yield front, d


def _breed(parents, problem, config, rng):
    """One generation of offspring genomes (vectorized operators)."""
    pop = config.population
    dim = problem.dimension
    lo, hi = problem.lower, problem.upper
    ranks = np.array([p.rank for p in parents])
    crowds = np.array([p.crowding for p in parents])

    draws = rng.integers(0, pop, size=(pop, 2))
    a, b = draws[:, 0], draws[:, 1]
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowds[b] > crowds[a]))
    winners = np.where(b_wins, b, a)
    genomes = np.array([parents[i].genome for i in winners])

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

    Returns the final population with its fronts and, for two-objective
    problems, the per-generation hypervolume trace of the nondominated
    archive (normalized to the initial population's ideal/nadir box).
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = problem.lower, problem.upper
    genomes = lo + rng.random((config.population, problem.dimension)) * (hi - lo)
    population = []
    for g in genomes:
        F, v = _evaluate(problem, g)
        population.append(Individual(genome=g, objectives=F, violation=v))

    track_hv = problem.n_objectives == 2
    archive = np.empty((0, problem.n_objectives))
    reference = None
    ideal = None
    trace = []

    def good_points(inds):
        pts = [ind.objectives for ind in inds
               if ind.feasible and np.all(np.abs(ind.objectives) < OBJECTIVE_SENTINEL)]
        return np.array(pts) if pts else np.empty((0, problem.n_objectives))

    def record(generation, new_individuals):
        nonlocal archive, reference, ideal
        pts = good_points(new_individuals)
        if track_hv:
            if reference is None and len(pts):
                reference = pts.max(axis=0)
                ideal = pts.min(axis=0)
            if len(pts):
                archive = _nondominated_2d(np.vstack([archive, pts]))
            hv = (hypervolume_2d(archive, reference, normalization=ideal)
                  if reference is not None and len(archive) else 0.0)
        else:
            hv = np.nan
        best = archive.min(axis=0) if len(archive) else np.full(problem.n_objectives, np.nan)
        trace.append(GenerationStats(generation=generation, hypervolume=float(hv),
                                     best_objectives=best))

    list(_ranked_fronts(population))  # breeding reads rank and crowding
    record(0, population)

    for generation in range(1, config.generations + 1):
        child_genomes = _breed(population, problem, config, rng)
        offspring = []
        for g in child_genomes:
            F, v = _evaluate(problem, g)
            offspring.append(Individual(genome=g, objectives=F, violation=v))

        combined = population + offspring
        survivors = []
        for front, d in _ranked_fronts(combined):
            if len(survivors) + len(front) <= config.population:
                survivors.extend(front)
            else:
                order = np.argsort(-d, kind="stable")
                need = config.population - len(survivors)
                survivors.extend(front[j] for j in order[:need])
            if len(survivors) >= config.population:
                break
        population = [combined[i] for i in survivors]
        record(generation, offspring)

    fronts = [front for front, _ in _ranked_fronts(population)]
    return EvolveResult(population=population, fronts=fronts, trace=trace,
                        archive=archive,
                        reference_point=reference, ideal_point=ideal)


@dataclass(frozen=True)
class LegObjectives:
    """Leg-synthesis criteria: mean squared trajectory error (minimized)
    and worst support-phase transmission angle in radians (maximized)."""

    error: float
    transmission: float

    def vector(self):
        return np.array([self.error, -self.transmission])


def evaluate_leg(genome, count=DEFAULT_SWEEP_SAMPLES, branch=+1, coupler="solved"):
    """Leg objectives for a genome; None when the sweep is untraceable.

    With coupler="solved" the genome is the five nonlinear parameters and
    the coupler point comes out of the inner linear solve; with
    coupler="explicit" the genome carries (x_E, y_E) as two extra genes
    and only the target line is solved.
    """
    params = FourBarParams(crank=genome[0], coupler=genome[1], rocker=genome[2],
                           start_angle=genome[3], support_arc=genome[4],
                           branch=branch)
    pinned = None
    if coupler == "explicit":
        pinned = {0: float(genome[5]), 1: float(genome[6])}
    reduced = reduced_objective(params, count, pinned=pinned)
    mu_min = min(p.transmission_angle for p in reduced.poses)
    return LegObjectives(error=reduced.delta0, transmission=float(mu_min))


def leg_problem(box=None, count=DEFAULT_SWEEP_SAMPLES, branch=+1,
                coupler="solved", coupler_bounds=(-3.0, 3.0)):
    """Leg-synthesis Problem instance over the search box.

    Objectives are (trajectory error, -transmission angle); the single
    inequality constraint is sweep assemblability, with a violation that
    grows the earlier the sweep fails.
    """
    if coupler not in ("solved", "explicit"):
        raise ValueError("coupler must be 'solved' or 'explicit'")
    box = box if box is not None else DEFAULT_BOX
    lower = np.array(box.lower)
    upper = np.array(box.upper)
    if coupler == "explicit":
        lower = np.append(lower, [coupler_bounds[0], coupler_bounds[0]])
        upper = np.append(upper, [coupler_bounds[1], coupler_bounds[1]])

    memo = {}

    def evaluate(genome):
        key = genome.tobytes()
        if key not in memo:
            memo.clear()
            try:
                obj = evaluate_leg(genome, count=count, branch=branch,
                                   coupler=coupler)
                memo[key] = (obj.vector(), 0.0)
            except SweepInvalidError as err:
                violation = 1.0 + (count - err.index) / count
                memo[key] = (np.full(2, OBJECTIVE_SENTINEL), violation)
        return memo[key]

    def objectives(genome):
        return evaluate(genome)[0]

    def constraints(genome):
        return np.array([evaluate(genome)[1]]), np.array([])

    return Problem(lower=lower, upper=upper, n_objectives=2,
                   objectives=objectives, constraints=constraints)
