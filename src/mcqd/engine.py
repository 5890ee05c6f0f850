"""The multi-container search loop.

One engine owns a set of grid containers (each with its own descriptor
space), the depot of everything ever accepted, and optionally the
auto-encoder ensemble that defines the learned descriptor spaces.  The loop
is the usual illumination cycle: select a parent by curiosity roulette,
mutate it with bounded polynomial mutation, evaluate, and attempt insertion
either into every container (shared strategy) or into a rotating focus
container (non-shared strategy).

Determinism contract: every random decision comes from a named substream of
the master seed (init, selection, mutation, per-evaluation episodes, model
training), selection and mutation for a whole batch happen before any
evaluation, and insertions are committed in iteration order.

The engine takes the experiment config's grids and its ``search`` and
``training`` sections; the genome bounds and the hardcoded FDs come from
the task.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import ModularAutoEncoderEnsemble, ObservationScaler, train_ensemble
from .config import GridSpec, MutationSection, SearchSection, TrainingSection
from .core import (
    AddOutcome,
    ConfigurationError,
    DepotContainer,
    EmptyContainerError,
    GridContainer,
    InvalidValueError,
)
from .descriptors import HardcodedExtractor, LearnedExtractor
from .postprocess import QuantileTransform
from .tasks import Task

# Named RNG substream keys under the master seed.
STREAM_INIT = 0
STREAM_SELECTION = 1
STREAM_MUTATION = 2
STREAM_EPISODES = 3
STREAM_TRAINING = 4


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a named substream of the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def episode_seed_sequence(master_seed: int, eval_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(STREAM_EPISODES, eval_index))


def mutate_polynomial(genomes: np.ndarray, cfg: MutationSection,
                      bounds: tuple[float, float], rng) -> np.ndarray:
    """Bounded polynomial mutation with crowding index eta.

    ``genomes`` is one genome (g,) or a stack (..., g).  Each gene mutates
    independently with probability ``cfg.probability``; the perturbation
    follows the bounded polynomial distribution and the result is clipped
    back into ``bounds``.  RNG consumption is constant (two draws per gene)
    so downstream draws do not depend on which genes fired, and each genome
    takes its mutation mask and then its ``u``, so a stack gets the same
    bits as one call per genome in order.
    """
    lo, hi = bounds
    x = np.asarray(genomes, dtype=float)
    span = hi - lo
    draws = rng.random((*x.shape[:-1], 2, x.shape[-1]))
    do_mut = draws[..., 0, :] < cfg.probability
    u = draws[..., 1, :]
    delta_1 = (x - lo) / span
    delta_2 = (hi - x) / span
    mut_pow = 1.0 / (cfg.eta + 1.0)

    low_side = u < 0.5
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta_1) ** (cfg.eta + 1.0)
    dq_low = val_low ** mut_pow - 1.0
    val_high = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta_2) ** (cfg.eta + 1.0)
    dq_high = 1.0 - val_high ** mut_pow
    delta_q = np.where(low_side, dq_low, dq_high)

    mutated = np.clip(x + delta_q * span, lo, hi)
    return np.where(do_mut, mutated, x)


def select_curiosity_roulette(container: GridContainer, curiosity: np.ndarray,
                              draws, floor: float = 0.01) -> np.ndarray:
    """The depot row each uniform draw in [0, 1) picks among the stored
    elites, in first-fill order, with probability proportional to their
    curiosity (indexed by depot row) floored at ``floor``."""
    rows = container.rows()
    if not len(rows):
        raise EmptyContainerError(
            f"container {container.container_id} holds no solution")
    cumulative = np.cumsum(np.maximum(curiosity[rows], floor))
    idx = np.searchsorted(cumulative, np.asarray(draws) * cumulative[-1], side="right")
    return rows[np.minimum(idx, len(rows) - 1)]


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN or infinity; a non-finite value is written as null."""
    return float(value) if np.isfinite(value) else None


def check_task_grids(task: Task, grids: list[GridSpec]) -> None:
    """Check the grids against the task: it must declare a hardcoded FD pair
    for every hardcoded grid, with one reduction per grid dimension.  These
    are the config checks that need the task but no evaluation;
    ``run_experiment`` makes them before it writes anything."""
    d = task.definition
    hardcoded = [g for g in grids if g.fd == "hardcoded"]
    if len(hardcoded) > len(d.hardcoded_fds):
        raise ConfigurationError(
            f"task {d.name!r} declares only {len(d.hardcoded_fds)} hardcoded FD "
            f"pairs, the config has {len(hardcoded)} hardcoded grids")
    for grid, reductions in zip(hardcoded, d.hardcoded_fds):
        if len(reductions) != len(grid.shape):
            raise ConfigurationError(
                f"FD spec has {len(reductions)} dims, grid "
                f"{list(grid.shape)} has {len(grid.shape)}")


# A batch's batches.jsonl record holds these two reports' fields, in order.

@dataclass
class BatchStats:
    evals: int
    adds: int = 0
    evictions: int = 0
    rejections: int = 0
    accepted_solutions: int = 0
    partial: bool = False

    def tally(self, outcome: AddOutcome) -> None:
        if outcome is AddOutcome.ADDED_TO_EMPTY:
            self.adds += 1
        elif outcome is AddOutcome.REPLACED_WEAKER:
            self.evictions += 1
        else:
            self.rejections += 1


@dataclass
class ContainerReindex:
    container_id: int
    retained: int
    dropped: int


@dataclass
class RetrainReport:
    diverged: bool = False
    message: str = ""
    train_loss: float | None = None  # None: diverged
    val_loss: float | None = None  # None: diverged, or no row held out
    epochs: int = 0
    corpus: int = 0  # depot rows trained on
    reindex: list[ContainerReindex] = field(default_factory=list)


class Engine:
    """Search state plus the operations that advance it."""

    def __init__(self, task: Task, grids: list[GridSpec], search: SearchSection,
                 training: TrainingSection, seed: int):
        """One container per grid.  The hardcoded grids take the task's
        declared FD pairs in order, after ``check_task_grids``."""
        check_task_grids(task, grids)
        self.task = task
        self.grids = list(grids)
        self.search = search
        self.training = training
        self.seed = int(seed)

        d = task.definition
        pairs = iter(d.hardcoded_fds)
        # extractors[c] defines container c's FDs; _train sets the learned ones
        self.extractors = [HardcodedExtractor(next(pairs), d.channel_names)
                           if g.fd == "hardcoded" else None for g in self.grids]
        # learned[k] is the container that ensemble module k describes
        self.learned = [cid for cid, g in enumerate(self.grids) if g.fd != "hardcoded"]
        self.containers = [GridContainer(cid, g.shape)
                           for cid, g in enumerate(self.grids)]
        self.depot = DepotContainer(d.genome_dim, (d.n_obs_channels, d.n_timepoints),
                                    [len(g.shape) for g in self.grids])
        self.ensemble: ModularAutoEncoderEnsemble | None = None
        self.scaler: ObservationScaler | None = None
        self.quantile_transforms: dict[int, QuantileTransform] = {}

        self._rng_selection = substream(self.seed, STREAM_SELECTION)
        self._rng_mutation = substream(self.seed, STREAM_MUTATION)
        self.eval_budget_used = 0
        self.total_evaluations = 0
        self.retrain_count = 0
        self.initialized = False

    # -- helpers ----------------------------------------------------------

    def _evaluate_genomes(self, genomes: np.ndarray):
        """Run the task on the whole batch and charge its evaluation indices,
        which become the children's solution ids.  Returns (ids, fitness,
        observations); non-finite task output raises before anything is
        committed."""
        base = self.total_evaluations
        seeds = [episode_seed_sequence(self.seed, base + i)
                 for i in range(len(genomes))]
        fitness, observations = self.task.evaluate_many(genomes, seeds)
        if not np.all(np.isfinite(fitness)):
            raise InvalidValueError("task returned a non-finite fitness")
        if not np.all(np.isfinite(observations)):
            raise InvalidValueError("task returned non-finite observations")
        self.total_evaluations += len(genomes)
        return np.arange(base, base + len(genomes)), fitness, observations

    def _commit(self, ids, genomes, fitness, observations, focus, parents,
                stats: BatchStats, learned_fds=()) -> int:
        """Insert a batch of evaluated children in iteration order.

        ``focus[i]`` is the one container child i competes in; ``focus``
        None means every child competes in every container.  ``parents[i]``
        is its parent's depot row (-1 for none).  Every container extracts
        the whole batch once, except the learned ones whose FD matrices of
        the batch ``learned_fds`` gives, in ``learned`` order.  A child
        accepted anywhere takes the next depot row, and the accepted rows
        are appended in one step at the end.  Returns the number of
        accepted children.
        """
        given = dict(zip(self.learned, learned_fds))
        fds = [given[cid] if cid in given else ex.extract_many(observations)
               for cid, ex in enumerate(self.extractors)]
        cells = [c.cells(fd).tolist() for c, fd in zip(self.containers, fds)]
        first_row = len(self.depot)
        # fitness by depot row, with room for the rows this batch adds
        row_fitness = np.concatenate([self.depot.fitness, fitness])
        curiosity = self.depot.curiosity
        cfg = self.search.curiosity
        everywhere = range(len(self.containers))
        accepted = []
        for i, parent in enumerate(parents):
            row = first_row + len(accepted)
            row_fitness[row] = fitness[i]
            hit = False
            for cidx in everywhere if focus is None else (focus[i],):
                outcome, _ = self.containers[cidx].add(cells[cidx][i], row, row_fitness)
                stats.tally(outcome)
                hit |= outcome.accepted
            if parent >= 0:
                delta = cfg.success_delta if hit else cfg.failure_delta
                curiosity[parent] = max(curiosity[parent] + delta, cfg.floor)
            if hit:
                accepted.append(i)
        self.depot.append(ids[accepted], genomes[accepted], fitness[accepted],
                          observations[accepted], np.full(len(accepted), cfg.initial),
                          [fd[accepted] for fd in fds])
        return len(accepted)

    def _train(self, corpus):
        """Fit the scaling and train the ensemble (built fresh on the first
        pass, else a warm-started copy) on ``corpus``, which the training
        scales minibatch by minibatch.  Unless training diverged, publish
        the ensemble, scaler, quantile transforms and extractors.  Returns
        the train report and, unless training diverged, each learned
        container's FD matrix of the corpus, in ``learned`` order: its
        module's encoding, which its quantile transform is fit on, through
        that transform.
        """
        rng = substream(self.seed, STREAM_TRAINING, self.retrain_count)
        scaler = ObservationScaler.fit(corpus)
        if self.ensemble is None:
            t = self.training
            candidate = ModularAutoEncoderEnsemble.build(
                input_dim=corpus[0].size,
                latent_dim=t.latent_dim,
                n_modules=len(self.learned),
                hidden=t.hidden,
                dropout=t.dropout,
                diversity_kind=t.diversity.kind,
                diversity_weight=t.diversity.weight,
                diversity_sign=t.diversity.sign,
                rng=rng,
            )
        else:
            candidate = self.ensemble.clone()
        report = train_ensemble(candidate, corpus, self.training, rng, scaler=scaler)
        if report.diverged:
            return report, None
        self.retrain_count += 1
        self.ensemble = candidate
        self.scaler = scaler
        self.quantile_transforms = {}
        fds = []
        for module, cid in enumerate(self.learned):
            fd = LearnedExtractor(candidate, module, scaler).extract_many(corpus)
            qt = None
            if self.grids[cid].fd == "ae_qt":
                qt = QuantileTransform.fit(fd, self.training.quantiles)
                self.quantile_transforms[cid] = qt
                fd = qt.apply(fd)
            self.extractors[cid] = LearnedExtractor(candidate, module, scaler, qt)
            fds.append(fd)
        return report, fds

    # -- lifecycle --------------------------------------------------------

    def initialize(self) -> None:
        """Draw and evaluate the initial collection, train the initial
        descriptor models on it, then seed every container from it, the
        learned ones at the FDs that the training's encoding gave."""
        if self.initialized:
            raise RuntimeError("engine already initialized")
        lo, hi = self.task.definition.genome_bounds
        rng = substream(self.seed, STREAM_INIT)
        n = self.search.initialization_budget
        genomes = rng.uniform(lo, hi, (n, self.task.definition.genome_dim))
        ids, fitness, observations = self._evaluate_genomes(genomes)
        learned_fds = []
        if self.learned:
            report, learned_fds = self._train(observations)
            if report.diverged:
                raise RuntimeError(
                    f"initial descriptor training diverged: {report.message}")
        self._commit(ids, genomes, fitness, observations, None, [-1] * n,
                     BatchStats(evals=n), learned_fds)
        self.depot.added_since_last_training = 0
        self.initialized = True

    def _plan_iterations(self, n: int) -> np.ndarray:
        """Container index for each of the n iterations of a batch.  Non-shared,
        the n split evenly from the focus container, ``eval_budget_used mod
        m``, and the first ``n mod m`` containers from it take one more."""
        m = len(self.containers)
        if self.search.sharing == "shared":
            return self._rng_selection.integers(m, size=n)
        base, rem = divmod(n, m)
        c = np.arange(m)
        return np.repeat((self.eval_budget_used + c) % m, base + (c < rem))

    def run_batch(self, batch_size: int) -> BatchStats:
        """One batch of select -> mutate -> evaluate -> insert iterations.

        Selection, one roulette call per container, and mutation are planned
        up front against the batch-start container state; the whole batch is
        then evaluated in one task call; insertions, curiosity updates and
        depot records are committed in iteration order.  Every container
        holds an elite from ``initialize`` on, so every child has a parent.
        A batch that would overrun the evaluation budget is truncated and
        flagged partial.
        """
        if not self.initialized:
            raise RuntimeError("initialize() must run before run_batch()")
        remaining = self.search.evaluation_budget - self.eval_budget_used
        n = min(batch_size, remaining)
        stats = BatchStats(evals=n, partial=n < batch_size)
        if n <= 0:
            return stats

        plan = self._plan_iterations(n)
        draws = self._rng_selection.random(n)
        parents = np.empty(n, dtype=np.intp)  # depot rows
        for cidx, container in enumerate(self.containers):
            mine = plan == cidx
            parents[mine] = select_curiosity_roulette(
                container, self.depot.curiosity, draws[mine],
                self.search.curiosity.floor)

        bounds = self.task.definition.genome_bounds
        genomes = mutate_polynomial(self.depot.genomes[parents], self.search.mutation,
                                    bounds, self._rng_mutation)
        ids, fitness, observations = self._evaluate_genomes(genomes)
        self.eval_budget_used += n

        focus = None if self.search.sharing == "shared" else plan.tolist()
        stats.accepted_solutions = self._commit(ids, genomes, fitness, observations,
                                                focus, parents.tolist(), stats)
        return stats

    def maybe_retrain(self) -> RetrainReport | None:
        """Retrain descriptors when the depot grew enough; None means no-op.

        The pre-trained strategy never retrains after initialization.  The
        depot counter is reset after every attempt, so the next one waits a
        full ``training.period``.  On training divergence the previous models
        are kept and the report is flagged; otherwise the depot takes the new
        FD matrices and the learned containers are rebuilt from them.
        """
        if self.training.strategy != "online":
            return None
        if self.depot.added_since_last_training < self.training.period:
            return None
        corpus = self.depot.observation_corpus()
        report, fds = self._train(corpus)
        self.depot.added_since_last_training = 0
        result = RetrainReport(diverged=report.diverged, message=report.message,
                               epochs=report.epochs_run, corpus=len(corpus))
        if report.diverged:
            return result
        result.train_loss = _finite_or_none(report.train_losses[-1])
        result.val_loss = _finite_or_none(report.val_loss)
        for cid, fd in zip(self.learned, fds):
            self.depot.fds[cid] = fd
        result.reindex = self.reindex_all()
        return result

    def reindex_all(self) -> list[ContainerReindex]:
        """Rebuild each learned container from the depot's FD matrix.

        Each learned container's elites are drained and re-inserted at their
        rows of ``depot.fds`` in descending fitness order (ties by solution
        id), so collisions deterministically keep the best solution.  Dropped
        elites stay in the depot.
        """
        depot = self.depot
        reports = []
        for cid in self.learned:
            container = self.containers[cid]
            elites = container.rows()
            order = elites[np.lexsort((depot.ids[elites], -depot.fitness[elites]))]
            container.clear()
            cells = container.cells(depot.fds[cid][order])
            for cell, row in zip(cells.tolist(), order.tolist()):
                container.add(cell, row, depot.fitness)
            retained = container.occupancy
            reports.append(ContainerReindex(container_id=cid, retained=retained,
                                            dropped=len(elites) - retained))
        return reports
