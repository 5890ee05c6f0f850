"""Search-loop mechanics: mutation, selection, batches, retraining."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcqd.config import (
    SHARING_STRATEGIES,
    GridSpec,
    MutationSection,
    SearchSection,
    TrainingSection,
)
from mcqd.core import EmptyContainerError, GridContainer, InvalidValueError
from mcqd.descriptors import ENCODE_ROWS, ChannelReduction, LearnedExtractor, row_parts
from mcqd.engine import (
    STREAM_MUTATION,
    STREAM_SELECTION,
    Engine,
    mutate_polynomial,
    select_curiosity_roulette,
    substream,
)
from mcqd.postprocess import QuantileTransform
from mcqd.tasks import Task, TaskDefinition, make_task

from conftest import poison_theta_after_epoch
from test_core import make_depot, offer


def polynomial_mutation_cdf(t, x, lo, hi, eta):
    """Analytic CDF of one mutated gene (mutation probability 1)."""
    span = hi - lo
    d1 = (x - lo) / span
    d2 = (hi - x) / span
    if t <= lo:
        return 0.0
    if t >= hi:
        return 1.0
    dq = (t - x) / span
    if dq < 0:
        xy = 1.0 - d1
        val = (1.0 + dq) ** (eta + 1.0)
        return (val - xy ** (eta + 1.0)) / (2.0 * (1.0 - xy ** (eta + 1.0)))
    xy = 1.0 - d2
    val = (1.0 - dq) ** (eta + 1.0)
    return (2.0 - xy ** (eta + 1.0) - val) / (2.0 * (1.0 - xy ** (eta + 1.0)))


class TestPolynomialMutation:
    def test_zero_probability_is_identity(self):
        cfg = MutationSection(probability=0.0, eta=20.0)
        g = np.linspace(-1, 1, 7)
        out = mutate_polynomial(g, cfg, (-1.0, 1.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, g)

    def test_bounds_respected_from_boundary_gene(self):
        cfg = MutationSection(probability=1.0, eta=20.0)
        rng = np.random.default_rng(1)
        for start in (-1.0, 1.0, 0.0):
            g = np.full(100, start)
            for _ in range(50):
                g = mutate_polynomial(g, cfg, (-1.0, 1.0), rng)
                assert np.all(g >= -1.0) and np.all(g <= 1.0)

    def test_distribution_matches_analytic_cdf(self):
        cfg = MutationSection(probability=1.0, eta=20.0)
        rng = np.random.default_rng(2)
        n = 100_000
        samples = np.sort(mutate_polynomial(np.full(n, 0.5), cfg, (0.0, 1.0), rng))
        grid = np.arange(1, n + 1) / n
        cdf = np.array([polynomial_mutation_cdf(s, 0.5, 0.0, 1.0, 20.0)
                        for s in samples])
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - grid + 1.0 / n)))
        assert ks < 0.01

    def test_rng_consumption_constant(self):
        # identical downstream draws whether or not genes mutated
        cfg_lo = MutationSection(probability=0.0, eta=20.0)
        cfg_hi = MutationSection(probability=1.0, eta=20.0)
        g = np.full(5, 0.5)
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        mutate_polynomial(g, cfg_lo, (0.0, 1.0), r1)
        mutate_polynomial(g, cfg_hi, (0.0, 1.0), r2)
        assert r1.random() == r2.random()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), g=st.integers(1, 12),
           probability=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_equals_one_call_per_genome(self, data, n, g, probability, seed):
        """run_batch mutates the batch's (n, g) parent stack in one call; it
        must give the bits of n one-genome calls, in order, from the same
        generator state, and leave the generator in the same state."""
        genomes = data.draw(arrays(float, (n, g), elements=st.floats(-1.0, 1.0)))
        cfg = MutationSection(probability=probability, eta=20.0)
        r_stack, r_rows = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = mutate_polynomial(genomes, cfg, (-1.0, 1.0), r_stack)
        rows = np.stack([mutate_polynomial(x, cfg, (-1.0, 1.0), r_rows)
                         for x in genomes])
        np.testing.assert_array_equal(stacked.view(np.int64), rows.view(np.int64))
        assert r_stack.random() == r_rows.random()


def filled_container(fds, curiosity, shape=(4, 4)):
    """A container holding depot rows 0..n-1 at the given FDs, each of
    fitness 1 and the given curiosity."""
    depot = make_depot([1.0] * len(fds), [fds], curiosity=curiosity)
    c = GridContainer(0, shape)
    for row in range(len(fds)):
        offer(c, depot, row)
    return c, depot


class TestCuriosityRoulette:
    def test_single_solution_always_selected(self):
        c, depot = filled_container([[0.1, 0.1]], [1.0])
        draws = np.random.default_rng(0).random(20)
        assert np.all(select_curiosity_roulette(c, depot.curiosity, draws) == 0)

    def test_empty_container_raises(self):
        with pytest.raises(EmptyContainerError):
            select_curiosity_roulette(GridContainer(0, (4, 4)), np.empty(0), [0.5])

    def test_three_to_one_ratio(self):
        c, depot = filled_container([[0.1, 0.1], [0.9, 0.9]], [3.0, 1.0])
        n = 100_000
        draws = np.random.default_rng(1).random(n)
        hits = np.count_nonzero(select_curiosity_roulette(c, depot.curiosity, draws) == 0)
        assert abs(hits / n - 0.75) < 0.02

    def test_uniform_when_scores_equal(self):
        from scipy.stats import chisquare
        c, depot = filled_container([[0.05 + 0.1 * i, 0.5] for i in range(10)],
                                    [1.0] * 10, shape=(10, 10))
        draws = np.random.default_rng(2).random(100_000)
        counts = np.bincount(select_curiosity_roulette(c, depot.curiosity, draws),
                             minlength=10)
        assert chisquare(counts).pvalue > 0.01

    def test_floor_keeps_probability_positive(self):
        # raw zero would never be drawn
        c, depot = filled_container([[0.1, 0.1], [0.9, 0.9]], [0.0, 100.0])
        draws = np.random.default_rng(3).random(1000)
        picked = select_curiosity_roulette(c, depot.curiosity, draws, floor=1.0)
        assert np.count_nonzero(picked == 0) > 0

    @settings(max_examples=200, deadline=None)
    @given(offers=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 3.0)),
                           min_size=1, max_size=12),
           curiosity=st.lists(st.sampled_from((0.0, 0.005, 0.01, 0.5))
                              | st.floats(0.0, 10.0), min_size=12, max_size=12),
           draws=st.lists(st.floats(0.0, 1.0, exclude_max=True)
                          | st.sampled_from((0.25, 0.5, 0.75)), max_size=20),
           floor=st.sampled_from((0.01, 0.5)))
    @example(offers=[(2, 1.0), (0, 1.0), (2, 2.0)], curiosity=[0.0, 1.0, 3.0] * 4,
             draws=[0.2, 0.75], floor=0.01)
    def test_one_call_matches_the_per_draw_formula(self, offers, curiosity, draws,
                                                   floor):
        """Offer row r at (cell, fitness) = offers[r] to a 6-cell grid, then
        pick a row for each draw (and for 0.0 and the largest draw below 1)
        in one call: each must be the row the per-draw formula picks over
        the elites in first-fill order.  In the example, cell 2's replaced
        elite keeps first place, and the draw 0.75 lands on the boundary 3
        of the cumulative curiosity (3, 4)."""
        fitness = np.array([f for _, f in offers])
        curiosity = np.array(curiosity)
        c = GridContainer(0, (6,))
        elite = {}  # cell -> row; a replaced elite keeps its key's place
        for row, (cell, f) in enumerate(offers):
            c.add(cell, row, fitness)
            if cell not in elite or f > fitness[elite[cell]]:
                elite[cell] = row
        rows = np.array(list(elite.values()))
        draws = draws + [0.0, 1.0 - 2.0 ** -53]
        cumulative = np.cumsum(np.maximum(curiosity[rows], floor))
        expected = [rows[min(np.searchsorted(cumulative, d * cumulative[-1], "right"),
                             len(rows) - 1)] for d in draws]
        np.testing.assert_array_equal(
            select_curiosity_roulette(c, curiosity, draws, floor), expected)


# ---------------------------------------------------------------------------
# A controllable 1-gene task: fitness equals the gene value.
# ---------------------------------------------------------------------------

# The line task's one FD, the gene's final value, declared once for each of
# the up to four one-cell containers the tests build.
GENE_FD = (ChannelReduction("gene", "final", (0.0, 1.0)),)


class LineTask(Task):
    def __init__(self):
        self.definition = TaskDefinition(
            name="line", genome_dim=1, genome_bounds=(0.0, 1.0), n_timepoints=4,
            fitness_bounds=(0.0, 1.0), channel_names=("gene",),
            hardcoded_fds=(GENE_FD,) * 4,
        )

    def evaluate_many(self, genomes, seed_seqs):
        g = np.asarray(genomes, dtype=float)[:, 0]
        return g.copy(), np.repeat(g[:, np.newaxis, np.newaxis], 4, axis=2)


class PoisonedLineTask(LineTask):
    """LineTask whose output turns non-finite once ``poison`` names a part."""

    poison = None  # "fitness" or "observations"

    def evaluate_many(self, genomes, seed_seqs):
        fitness, obs = super().evaluate_many(genomes, seed_seqs)
        if self.poison == "fitness":
            fitness[:] = np.nan
        elif self.poison == "observations":
            obs[:, 0, -1] = np.inf
        return fitness, obs


def line_engine(grids=None, eval_budget=100, seed=11, task=None):
    return Engine(
        task=LineTask() if task is None else task,
        grids=one_cell_grids(1) if grids is None else grids,
        search=SearchSection(sharing="non_shared",
                             initialization_budget=1,
                             evaluation_budget=eval_budget),
        training=TrainingSection(strategy="none"),
        seed=seed,
    )


def planned_iterations(engine, batch_sizes):
    """Run one batch per size and count, per container, the iterations the
    engine's plans gave it."""
    counts = [0] * len(engine.containers)
    plan = engine._plan_iterations

    def counted(n):
        cidxs = plan(n)
        for cidx in cidxs:
            counts[cidx] += 1
        return cidxs

    engine._plan_iterations = counted
    for size in batch_sizes:
        engine.run_batch(size)
    return counts


def one_cell_grids(n):
    return [GridSpec(shape=(1,), fd="hardcoded") for _ in range(n)]


class TestNonFiniteTaskOutput:
    """A non-finite fitness or observation raises where the engine receives
    the batch, before anything is committed."""

    @pytest.mark.parametrize("poison", ["fitness", "observations"])
    def test_initialize_raises_and_commits_nothing(self, poison):
        task = PoisonedLineTask()
        task.poison = poison
        engine = line_engine(task=task)
        with pytest.raises(InvalidValueError):
            engine.initialize()
        assert len(engine.depot) == 0
        assert engine.containers[0].occupancy == 0
        assert not engine.initialized

    @pytest.mark.parametrize("poison", ["fitness", "observations"])
    def test_run_batch_raises_and_commits_nothing(self, poison):
        task = PoisonedLineTask()
        engine = line_engine(grids=one_cell_grids(2), task=task)
        engine.initialize()
        engine.run_batch(4)

        def state():
            d = engine.depot
            return (engine_fingerprint(engine), d.curiosity.tolist(),
                    [fd.tolist() for fd in d.fds], d.observations.tolist(),
                    d.added_since_last_training,
                    [(c.grid.tolist(), list(c.order)) for c in engine.containers])

        before = state()
        task.poison = poison
        with pytest.raises(InvalidValueError):
            engine.run_batch(4)
        assert state() == before


class TestBookkeepingOracle:
    def test_micro_run_matches_hand_stepped_replay(self):
        """Replays the engine's batch logic for a single 1-cell container
        with independent RNG streams and checks curiosity, depot and elite
        bookkeeping step by step."""
        seed = 11
        engine = line_engine(seed=seed)
        engine.initialize()

        # independent replay state
        sel = substream(seed, STREAM_SELECTION)
        mut = substream(seed, STREAM_MUTATION)
        init_rng = substream(seed, 0)
        elite_gene = float(init_rng.uniform(0.0, 1.0, (1, 1))[0, 0])
        elite_curiosity = 1.0
        depot_size = 1
        cfg = engine.search.mutation

        for _ in range(5):
            # plan phase: all four iterations select the batch-start elite
            parent_gene = elite_gene
            parent_curiosity = elite_curiosity
            genes = []
            for _ in range(4):
                sel.random()  # roulette draw over the single elite
                genes.append(float(mutate_polynomial(np.array([parent_gene]),
                                                     cfg, (0.0, 1.0), mut)[0]))
            # commit phase: children compete against the current elite, but
            # curiosity updates land on the planned parent object
            replaced = False
            for child in genes:
                if child > elite_gene:
                    parent_curiosity += 1.0
                    elite_gene = child
                    replaced = True
                    depot_size += 1
                else:
                    parent_curiosity = max(parent_curiosity - 0.5, 0.01)
            elite_curiosity = 1.0 if replaced else parent_curiosity

            engine.run_batch(4)
            stored = engine.containers[0].grid[0]
            assert engine.depot.fitness[stored] == pytest.approx(elite_gene, abs=1e-12)
            assert engine.depot.curiosity[stored] == pytest.approx(elite_curiosity,
                                                                   abs=1e-12)
            assert len(engine.depot) == depot_size

    def test_rejected_everywhere_decrements_with_floor(self):
        engine = line_engine(seed=12)
        engine.initialize()
        elite = engine.containers[0].grid[0]
        engine.depot.fitness[elite] = 2.0  # unbeatable: every offspring rejected
        engine.run_batch(6)
        # 1.0 -> 0.5 -> 0.01 (floor) and stays there
        assert engine.depot.curiosity[elite] == pytest.approx(0.01)
        assert len(engine.depot) == 1


# ---------------------------------------------------------------------------
# Full-engine behaviour on the toy task
# ---------------------------------------------------------------------------

def toy_hardcoded_specs():
    return [
        (ChannelReduction("g1", "mean", (-5.12, 5.12)),
         ChannelReduction("g2", "mean", (-5.12, 5.12))),
        (ChannelReduction("g_sum", "mean", (-10.24, 10.24)),
         ChannelReduction("g_diff", "mean", (-10.24, 10.24))),
    ]


def toy_engine(sharing="shared", learned=False,
               training_strategy="online", training_period=40,
               seed=5, learned_fds=("ae_qt", "ae_qt")):
    task = make_task("rastrigin_toy")
    if learned:
        grids = [GridSpec(shape=(6, 6), fd=fd) for fd in learned_fds]
        strategy = training_strategy
    else:
        task.definition = dataclasses.replace(
            task.definition, hardcoded_fds=tuple(toy_hardcoded_specs()))
        grids = [GridSpec(shape=(6, 6), fd="hardcoded")
                 for _ in task.definition.hardcoded_fds]
        strategy = "none"
    return Engine(
        task=task, grids=grids,
        search=SearchSection(
            sharing=sharing, initialization_budget=30, evaluation_budget=200,
            # two-gene genomes need a high per-gene rate to mutate at all
            mutation=MutationSection(probability=0.5, eta=20.0)),
        training=TrainingSection(
            strategy=strategy, period=training_period, epochs=3,
            learning_rate=0.01, batch_size=16, hidden=(8,), quantiles=50),
        seed=seed,
    )


def engine_fingerprint(engine):
    d = engine.depot
    cells = []
    for c in engine.containers:
        for cell in np.flatnonzero(c.grid >= 0):
            row = c.grid.flat[cell]
            cells.append((c.container_id, np.unravel_index(cell, c.shape), d.ids[row],
                          d.fitness[row], d.curiosity[row], tuple(d.genomes[row])))
    return cells, list(zip(d.ids.tolist(), d.fitness.tolist()))


def test_row_parts_are_equal_and_at_least_half_of_the_most():
    """A learned extraction's chunks: one for at most ENCODE_ROWS rows, else
    equal parts of ENCODE_ROWS // 2 to ENCODE_ROWS rows; no rows are one
    empty part."""
    assert row_parts(0, ENCODE_ROWS) == [0, 0]
    assert row_parts(700, ENCODE_ROWS) == [0, 700]
    assert row_parts(ENCODE_ROWS, ENCODE_ROWS) == [0, ENCODE_ROWS]
    for n in [*range(ENCODE_ROWS + 1, 3 * ENCODE_ROWS + 2), 20_000, 100_003]:
        edges = row_parts(n, ENCODE_ROWS)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n
        assert sizes.max() - sizes.min() <= 1
        assert ENCODE_ROWS // 2 <= sizes.min() and sizes.max() <= ENCODE_ROWS
        assert len(sizes) == -(-n // ENCODE_ROWS)


class TestHardcodedPairing:
    def test_interleaved_grids_take_the_task_pairs_in_order(self):
        """Hardcoded grids take the task's declared FDs in grid order, and a
        learned grid between them takes none."""
        task = make_task("surrogate_walker", {"episode_steps": 20, "obs_window": 5})
        grids = [GridSpec(shape=(5, 5), fd=fd) for fd in ("hardcoded", "ae_qt",
                                                          "hardcoded")]
        engine = Engine(task, grids, SearchSection(), TrainingSection(), seed=0)
        pairs = task.definition.hardcoded_fds
        assert engine.extractors[0].reductions is pairs[0]
        assert engine.extractors[2].reductions is pairs[1]
        assert engine.learned == [1]


class TestEngineLifecycle:
    def test_initialize_fills_containers_and_resets_counter(self):
        engine = toy_engine()
        engine.initialize()
        for c in engine.containers:
            assert 0 < c.occupancy <= min(30, c.capacity)
        assert len(engine.depot) <= 30
        assert engine.depot.added_since_last_training == 0
        assert engine.total_evaluations == 30

    def test_child_accepted_by_two_containers_is_one_depot_row(self):
        engine = line_engine(grids=one_cell_grids(2))
        engine.initialize()  # the initial genome fills both empty containers
        assert len(engine.depot) == 1
        assert [int(c.grid[0]) for c in engine.containers] == [0, 0]

        shared = toy_engine(sharing="shared")
        shared.initialize()
        before = len(shared.depot)
        stats = shared.run_batch(25)
        assert len(shared.depot) - before == stats.accepted_solutions
        assert stats.accepted_solutions <= stats.adds + stats.evictions
        np.testing.assert_array_equal(shared.depot.ids, np.unique(shared.depot.ids))

    def test_initialize_twice_rejected(self):
        engine = toy_engine()
        engine.initialize()
        with pytest.raises(RuntimeError):
            engine.initialize()

    def test_same_seed_bit_identical(self):
        runs = []
        for _ in range(2):
            engine = toy_engine(seed=42)
            engine.initialize()
            for _ in range(3):
                engine.run_batch(20)
            runs.append(engine_fingerprint(engine))
        assert runs[0] == runs[1]

    def test_budget_accounting_exact(self):
        engine = toy_engine()
        engine.initialize()
        evals = 0
        while engine.eval_budget_used < engine.search.evaluation_budget:
            stats = engine.run_batch(60)
            evals += stats.evals
        assert engine.eval_budget_used == engine.search.evaluation_budget == evals
        assert engine.total_evaluations == 30 + evals
        # the final batch was truncated by the budget (200 = 60*3 + 20)
        assert stats.partial and stats.evals == 20

    def test_shared_attempts_every_container(self):
        engine = toy_engine(sharing="shared")
        engine.initialize()
        stats = engine.run_batch(25)
        attempts = stats.adds + stats.evictions + stats.rejections
        assert attempts == 25 * len(engine.containers)

    def test_non_shared_attempts_only_focus(self):
        engine = toy_engine(sharing="non_shared")
        engine.initialize()
        stats = engine.run_batch(25)
        assert stats.adds + stats.evictions + stats.rejections == 25

    def test_non_shared_budget_split_evenly(self):
        engine = toy_engine(sharing="non_shared")
        engine.initialize()
        counts = planned_iterations(engine, [20] * 4)
        assert sum(counts) == 80
        assert max(counts) - min(counts) == 0  # 20 divides evenly across 2

    def test_non_shared_remainder_rotates(self):
        engine = toy_engine(sharing="non_shared")
        engine.initialize()
        counts = planned_iterations(engine, [5, 5])  # 5 = 2*2 + 1 remainder
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 5 % 2

    def test_non_shared_four_containers_split_thousand(self):
        # the canonical split: batch of 1000 over 4 containers -> 250 each
        engine = line_engine(grids=one_cell_grids(4), eval_budget=1000)
        engine.initialize()
        assert planned_iterations(engine, [1000]) == [250, 250, 250, 250]

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), data=st.data())
    def test_non_shared_plan_follows_the_focus_recurrence(self, m, data):
        """Each batch's plan is the even split from the focus container, the
        first n mod m containers taking one more, and the focus moves on by
        n mod m per batch, whatever the initialization budget."""
        init = data.draw(st.integers(1, 40).filter(lambda b: m == 1 or b % m), "init")
        sizes = data.draw(st.lists(st.integers(1, 25), min_size=1, max_size=8), "sizes")
        budget = data.draw(st.integers(1, sum(sizes)), "budget")
        task = LineTask()
        task.definition = dataclasses.replace(task.definition,
                                              hardcoded_fds=(GENE_FD,) * m)
        engine = Engine(task, one_cell_grids(m),
                        SearchSection(sharing="non_shared", initialization_budget=init,
                                      evaluation_budget=budget),
                        TrainingSection(strategy="none"), seed=3)
        engine.initialize()
        plans = []
        plan = engine._plan_iterations

        def recorded(n):
            plans.append(plan(n))
            return plans[-1]

        engine._plan_iterations = recorded
        for size in sizes:
            engine.run_batch(size)

        focus, remaining, expected = 0, budget, []
        for size in sizes:
            n = min(size, remaining)
            if n <= 0:
                break
            remaining -= n
            base, rem = divmod(n, m)
            expected.append([(focus + c) % m for c in range(m)
                             for _ in range(base + (c < rem))])
            focus = (focus + n % m) % m
        assert [p.tolist() for p in plans] == expected

    def test_emptied_container_raises_in_run_batch(self):
        """The engine never empties a container; one emptied from outside
        has no parent to give, and the batch fails before evaluating."""
        engine = toy_engine(sharing="non_shared")
        engine.initialize()
        engine.containers[1].clear()
        with pytest.raises(EmptyContainerError):
            engine.run_batch(10)
        assert engine.total_evaluations == 30 and engine.eval_budget_used == 0

    @pytest.mark.parametrize("sharing", SHARING_STRATEGIES)
    def test_every_container_keeps_an_elite(self, sharing):
        """run_batch gives every child a parent from its planned container,
        with no fallback for an empty one: every container must hold an
        elite after initialize, after every batch and after every reindex."""
        engine = toy_engine(sharing=sharing, learned=True, training_period=10)
        occupancy = []
        reindex_all = engine.reindex_all

        def recorded_reindex():
            reports = reindex_all()
            occupancy.append(("reindex", [c.occupancy for c in engine.containers]))
            return reports

        engine.reindex_all = recorded_reindex
        engine.initialize()
        occupancy.append(("initialize", [c.occupancy for c in engine.containers]))
        while engine.eval_budget_used < engine.search.evaluation_budget:
            engine.run_batch(25)
            occupancy.append(("batch", [c.occupancy for c in engine.containers]))
            engine.maybe_retrain()
        assert [when for when, _ in occupancy].count("reindex") >= 2
        assert all(min(counts) >= 1 for _, counts in occupancy), occupancy

    def test_curiosity_floor_invariant(self):
        engine = toy_engine()
        engine.initialize()
        for _ in range(5):
            engine.run_batch(30)
        for c in engine.containers:
            assert np.all(engine.depot.curiosity[c.rows()] >= engine.search.curiosity.floor)


class TestRetraining:
    def test_hardcoded_strategy_never_retrains(self):
        engine = toy_engine()
        engine.initialize()
        engine.depot.added_since_last_training = 10 ** 9
        assert engine.maybe_retrain() is None

    def test_pre_trained_never_retrains(self):
        engine = toy_engine(learned=True,
                            training_strategy="pre_trained")
        engine.initialize()
        engine.depot.added_since_last_training = 10 ** 9
        assert engine.maybe_retrain() is None

    def test_online_fires_exactly_at_period(self):
        engine = toy_engine(learned=True, training_period=40)
        engine.initialize()
        engine.depot.added_since_last_training = 39
        assert engine.maybe_retrain() is None
        engine.depot.added_since_last_training = 40
        report = engine.maybe_retrain()
        assert report is not None and not report.diverged
        assert engine.depot.added_since_last_training == 0

    def test_retrain_reports_conserve_occupancy(self):
        engine = toy_engine(learned=True, training_period=30)
        engine.initialize()
        fired = 0
        for _ in range(6):
            engine.run_batch(25)
            pre = {c.container_id: c.occupancy for c in engine.containers}
            report = engine.maybe_retrain()
            if report is not None and not report.diverged:
                fired += 1
                for r in report.reindex:
                    assert r.retained + r.dropped == pre[r.container_id]
                    assert engine.containers[r.container_id].occupancy == r.retained
        assert fired >= 1

    def test_retrain_publishes_the_fds_of_its_extractors(self):
        """The FD matrices a retrain stores come from the encoding its
        quantile transforms are fit on; they must be the bits the new
        extractors give over the depot."""
        engine = toy_engine(learned=True, learned_fds=("ae", "ae_qt"))
        engine.initialize()
        engine.run_batch(40)
        old = list(engine.extractors)
        engine.depot.added_since_last_training = engine.training.period
        report = engine.maybe_retrain()
        assert report is not None and not report.diverged
        assert engine.learned == [0, 1] and list(engine.quantile_transforms) == [1]
        for cid in engine.learned:
            extractor = engine.extractors[cid]
            assert extractor is not old[cid]
            expected = extractor.extract_many(engine.depot.observations)
            np.testing.assert_array_equal(engine.depot.fds[cid].view(np.int64),
                                          expected.view(np.int64))

    def test_initialize_seeds_learned_containers_from_the_training_encoding(
            self, monkeypatch):
        """The initial batch is scaled and encoded once per learned module,
        by the training: the depot's initial learned FDs are that encoding's
        rows, with the bits the new extractors give over the batch."""
        trained, extracted = [], []
        real_train, real_extract = Engine._train, LearnedExtractor.extract_many

        def train(engine, corpus):
            report, fds = real_train(engine, corpus)
            trained.append((corpus, fds))
            return report, fds

        def extract_many(extractor, observations):
            extracted.append((extractor.module_index, len(observations)))
            return real_extract(extractor, observations)

        monkeypatch.setattr(Engine, "_train", train)
        monkeypatch.setattr(LearnedExtractor, "extract_many", extract_many)
        engine = toy_engine(learned=True, learned_fds=("ae", "ae_qt"))
        engine.initialize()
        n = engine.search.initialization_budget
        assert extracted == [(0, n), (1, n)] and len(trained) == 1
        (corpus, fds), depot = trained[0], engine.depot
        for cid, fd in zip(engine.learned, fds):
            assert depot.fds[cid].tobytes() == fd[depot.ids].tobytes()
            batch = real_extract(engine.extractors[cid], corpus)
            assert depot.fds[cid].tobytes() == batch[depot.ids].tobytes()

    @pytest.mark.parametrize("rows", [1025, 2049, 5000])
    def test_chunked_encoding_keeps_the_one_product_bits(self, rows):
        """``LearnedExtractor.extract_many`` scales and encodes in equal
        chunks of at most ENCODE_ROWS rows, 512 to 1024 rows here.  On the
        OpenBLAS kernel the golden pins were recorded with (SkylakeX), each
        encoded row keeps the bits of one product over the whole scaled
        batch, and so do the quantile fit and its FDs.  ``_train``'s FD
        matrices are its new extractors' output over the corpus."""
        task = make_task("surrogate_walker")  # 14 channels x 10 timepoints
        grids = [GridSpec(shape=(5, 5), fd="ae"), GridSpec(shape=(5, 5), fd="ae_qt")]
        engine = Engine(task, grids, SearchSection(),
                        TrainingSection(epochs=1, quantiles=20), seed=7)
        d = task.definition
        corpus = np.random.default_rng(rows).normal(
            size=(rows, d.n_obs_channels, d.n_timepoints))
        report, fds = engine._train(corpus)
        assert not report.diverged
        inputs = engine.scaler.transform(corpus)
        for module, (cid, fd) in enumerate(zip(engine.learned, fds)):
            z = engine.ensemble.encode(inputs, module)
            raw = LearnedExtractor(engine.ensemble, module, engine.scaler)
            assert raw.extract_many(corpus).tobytes() == z.tobytes()
            if cid in engine.quantile_transforms:
                qt = engine.quantile_transforms[cid]
                assert qt.landmarks.tobytes() == QuantileTransform.fit(z, 20).landmarks.tobytes()
                z = qt.apply(z)
            assert fd.tobytes() == z.tobytes()
            assert fd.tobytes() == engine.extractors[cid].extract_many(corpus).tobytes()

    def test_reindex_idempotent_with_unchanged_extractor(self):
        engine = toy_engine(learned=True)
        engine.initialize()
        for _ in range(2):
            engine.run_batch(25)
        before = engine_fingerprint(engine)[0]
        reports = engine.reindex_all()
        for r in reports:
            assert r.dropped == 0
        assert engine_fingerprint(engine)[0] == before

    def test_reindex_collisions_keep_best(self):
        engine = toy_engine(learned=True)
        engine.initialize()
        best = engine.depot.fitness[engine.containers[0].rows()].max()
        # every depot row collapses onto one descriptor of container 0
        engine.depot.fds[0] = np.full((len(engine.depot), 2), 0.5)
        reports = engine.reindex_all()
        assert engine.containers[0].occupancy == 1
        survivor = engine.containers[0].rows()[0]
        assert engine.depot.fitness[survivor] == best
        r0 = [r for r in reports if r.container_id == 0][0]
        assert r0.retained == 1

    def test_divergent_retrain_keeps_previous_models(self, monkeypatch):
        engine = toy_engine(learned=True, training_period=10)
        engine.initialize()
        old_ensemble = engine.ensemble
        old_extractors = list(engine.extractors)
        engine.depot.added_since_last_training = 50

        import mcqd.engine as engine_mod
        from mcqd.autoencoder import TrainReport

        def always_diverges(ensemble, inputs, cfg, rng, scaler):
            return TrainReport(diverged=True, message="synthetic blow-up")

        monkeypatch.setattr(engine_mod, "train_ensemble", always_diverges)
        report = engine.maybe_retrain()
        assert report is not None and report.diverged
        assert engine.ensemble is old_ensemble
        assert engine.extractors == old_extractors
        # reset all the same: the next attempt waits a full period
        assert engine.depot.added_since_last_training == 0
        engine.depot.added_since_last_training = 9
        assert engine.maybe_retrain() is None

    def test_retrain_diverged_mid_training_keeps_previous_models(self, monkeypatch):
        """Parameters that turn non-finite after the first epoch fail the
        second epoch's training loss; the engine keeps every model and FD."""
        engine = toy_engine(learned=True, training_period=10)
        engine.initialize()
        old_ensemble, old_theta = engine.ensemble, engine.ensemble.theta.copy()
        old_scaler, old_qts = engine.scaler, dict(engine.quantile_transforms)
        old_extractors = list(engine.extractors)
        old_fds = [fd.copy() for fd in engine.depot.fds]
        engine.depot.added_since_last_training = 50
        poison_theta_after_epoch(monkeypatch, 0)
        report = engine.maybe_retrain()
        assert report.diverged
        assert report.message == "non-finite training loss at epoch 1"
        assert report.epochs == 1
        assert report.train_loss is None and report.val_loss is None
        assert report.reindex == []
        assert engine.ensemble is old_ensemble and engine.scaler is old_scaler
        np.testing.assert_array_equal(engine.ensemble.theta, old_theta)
        assert engine.quantile_transforms == old_qts
        assert engine.extractors == old_extractors
        for fd, old in zip(engine.depot.fds, old_fds):
            np.testing.assert_array_equal(fd, old)

    def test_grid_invariants_hold_after_retrain(self):
        engine = toy_engine(learned=True, training_period=30)
        engine.initialize()
        for _ in range(4):
            engine.run_batch(30)
            engine.maybe_retrain()
        for c in engine.containers:
            assert c.occupancy <= c.capacity
            stored = c.rows()
            np.testing.assert_array_equal(
                c.cells(engine.depot.fds[c.container_id][stored]), c.order)
