"""Search-loop mechanics: mutation, selection, batches, retraining."""
import numpy as np
import pytest

from mcqd.config import MutationSection, SearchSection, TrainingSection
from mcqd.core import EmptyContainerError, Evaluation, GridContainer
from mcqd.descriptors import ChannelReduction, HardcodedSpec
from mcqd.engine import (
    STREAM_MUTATION,
    STREAM_SELECTION,
    ContainerSpec,
    Engine,
    SharingStrategy,
    TrainingStrategy,
    mutate_polynomial,
    select_curiosity_roulette,
    substream,
)
from mcqd.tasks import Task, TaskDefinition, make_task

from test_core import make_solution


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


class TestCuriosityRoulette:
    def test_single_solution_always_selected(self):
        c = GridContainer(0, (4, 4))
        sol = make_solution(1, 1.0, [0.1, 0.1])
        c.add(sol)
        rng = np.random.default_rng(0)
        assert all(select_curiosity_roulette(c, rng) is sol for _ in range(20))

    def test_empty_container_raises(self):
        with pytest.raises(EmptyContainerError):
            select_curiosity_roulette(GridContainer(0, (4, 4)),
                                      np.random.default_rng(0))

    def test_three_to_one_ratio(self):
        c = GridContainer(0, (4, 4))
        a = make_solution(1, 1.0, [0.1, 0.1])
        b = make_solution(2, 1.0, [0.9, 0.9])
        a.curiosity, b.curiosity = 3.0, 1.0
        c.add(a)
        c.add(b)
        rng = np.random.default_rng(1)
        n = 100_000
        hits = sum(select_curiosity_roulette(c, rng) is a for _ in range(n))
        assert abs(hits / n - 0.75) < 0.02

    def test_uniform_when_scores_equal(self):
        from scipy.stats import chisquare
        c = GridContainer(0, (10, 10))
        sols = [make_solution(i, 1.0, [0.05 + 0.1 * i, 0.5]) for i in range(10)]
        for s in sols:
            c.add(s)
        rng = np.random.default_rng(2)
        counts = np.zeros(10)
        index = {s.id: k for k, s in enumerate(sols)}
        for _ in range(100_000):
            counts[index[select_curiosity_roulette(c, rng).id]] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_floor_keeps_probability_positive(self):
        c = GridContainer(0, (4, 4))
        a = make_solution(1, 1.0, [0.1, 0.1])
        b = make_solution(2, 1.0, [0.9, 0.9])
        a.curiosity, b.curiosity = 0.0, 100.0  # raw zero would never be drawn
        c.add(a)
        c.add(b)
        rng = np.random.default_rng(3)
        hits = sum(select_curiosity_roulette(c, rng, floor=1.0) is a
                   for _ in range(1000))
        assert hits > 0


# ---------------------------------------------------------------------------
# A controllable 1-gene task: fitness equals the gene value.
# ---------------------------------------------------------------------------

class LineTask(Task):
    def __init__(self):
        self.definition = TaskDefinition(
            name="line", genome_dim=1, genome_bounds=(0.0, 1.0),
            n_obs_channels=1, n_timepoints=4, obs_averaging_window=1,
            episodes_per_eval=1, fitness_bounds=(0.0, 1.0),
            channel_names=("gene",),
            channel_fd_bounds={"gene": (0.0, 1.0)},
        )

    def evaluate(self, genome, seed_seq):
        g = float(genome[0])
        return Evaluation(fitness=g, observations=np.full((1, 4), g),
                          episode_count=1)


def line_engine(container_specs=None, eval_budget=100, seed=11):
    spec = HardcodedSpec((ChannelReduction("gene", "final", (0.0, 1.0)),))
    if container_specs is None:
        container_specs = [ContainerSpec(shape=(1,), fd_type="hardcoded",
                                         hardcoded=spec)]
    return Engine(
        task=LineTask(),
        container_specs=container_specs,
        search=SearchSection(sharing=SharingStrategy.NON_SHARED,
                             initialization_budget=1,
                             evaluation_budget=eval_budget),
        training=TrainingSection(strategy=TrainingStrategy.NONE),
        seed=seed,
    )


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
        cfg = engine.mutation

        for batch in range(5):
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

            engine.run_batch(4, batch)
            stored = engine.containers[0].cells[(0,)]
            assert stored.fitness == pytest.approx(elite_gene, abs=1e-12)
            assert stored.curiosity == pytest.approx(elite_curiosity, abs=1e-12)
            assert len(engine.depot) == depot_size

    def test_rejected_everywhere_decrements_with_floor(self):
        engine = line_engine(seed=12)
        engine.initialize()
        elite = engine.containers[0].cells[(0,)]
        elite.evaluation.fitness = 2.0  # unbeatable: every offspring rejected
        engine.run_batch(6, 0)
        # 1.0 -> 0.5 -> 0.01 (floor) and stays there
        assert elite.curiosity == pytest.approx(0.01)
        assert len(engine.depot) == 1


# ---------------------------------------------------------------------------
# Full-engine behaviour on the toy task
# ---------------------------------------------------------------------------

def toy_hardcoded_specs():
    return [
        HardcodedSpec((ChannelReduction("g1", "mean", (-5.12, 5.12)),
                       ChannelReduction("g2", "mean", (-5.12, 5.12)))),
        HardcodedSpec((ChannelReduction("g_sum", "mean", (-10.24, 10.24)),
                       ChannelReduction("g_diff", "mean", (-10.24, 10.24)))),
    ]


def toy_engine(sharing=SharingStrategy.SHARED, learned=False,
               training_strategy=TrainingStrategy.ONLINE, training_period=40,
               seed=5):
    task = make_task("rastrigin_toy")
    if learned:
        specs = [ContainerSpec(shape=(6, 6), fd_type="ae_qt") for _ in range(2)]
        strategy = training_strategy
    else:
        specs = [ContainerSpec(shape=(6, 6), fd_type="hardcoded", hardcoded=hs)
                 for hs in toy_hardcoded_specs()]
        strategy = TrainingStrategy.NONE
    return Engine(
        task=task, container_specs=specs,
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
    cells = []
    for c in engine.containers:
        for bin_idx in sorted(c.cells):
            s = c.cells[bin_idx]
            cells.append((c.container_id, bin_idx, s.id, s.fitness, s.curiosity,
                          tuple(s.genome)))
    depot = [(s.id, s.fitness) for s in engine.depot.solutions]
    return cells, depot


class TestEngineLifecycle:
    def test_initialize_fills_containers_and_resets_counter(self):
        engine = toy_engine()
        engine.initialize()
        for c in engine.containers:
            assert 0 < c.occupancy <= min(30, c.capacity)
        assert len(engine.depot) <= 30
        assert engine.depot.added_since_last_training == 0
        assert engine.total_evaluations == 30

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
            for i in range(3):
                engine.run_batch(20, i)
            runs.append(engine_fingerprint(engine))
        assert runs[0] == runs[1]

    def test_budget_accounting_exact(self):
        engine = toy_engine()
        engine.initialize()
        executed = 0
        i = 0
        while engine.eval_budget_used < engine.eval_budget:
            stats = engine.run_batch(60, i)
            executed += stats.executed
            i += 1
        assert engine.eval_budget_used == engine.eval_budget == executed
        assert engine.total_evaluations == 30 + executed
        # the final batch was truncated by the budget (200 = 60*3 + 20)
        assert stats.partial and stats.executed == 20

    def test_shared_attempts_every_container(self):
        engine = toy_engine(sharing=SharingStrategy.SHARED)
        engine.initialize()
        stats = engine.run_batch(25, 0)
        assert stats.attempts == 25 * len(engine.containers)

    def test_non_shared_attempts_only_focus(self):
        engine = toy_engine(sharing=SharingStrategy.NON_SHARED)
        engine.initialize()
        stats = engine.run_batch(25, 0)
        assert stats.attempts == 25

    def test_non_shared_budget_split_evenly(self):
        engine = toy_engine(sharing=SharingStrategy.NON_SHARED)
        engine.initialize()
        for i in range(4):
            engine.run_batch(20, i)
        counts = engine.per_container_evals
        assert sum(counts) == 80
        assert max(counts) - min(counts) == 0  # 20 divides evenly across 2

    def test_non_shared_remainder_rotates(self):
        engine = toy_engine(sharing=SharingStrategy.NON_SHARED)
        engine.initialize()
        for i in range(2):
            engine.run_batch(5, i)  # 5 = 2*2 + 1 remainder
        counts = engine.per_container_evals
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 5 % 2

    def test_non_shared_four_containers_split_thousand(self):
        # the canonical split: batch of 1000 over 4 containers -> 250 each
        spec = HardcodedSpec((ChannelReduction("gene", "final", (0.0, 1.0)),))
        engine = line_engine(
            container_specs=[ContainerSpec(shape=(1,), fd_type="hardcoded",
                                           hardcoded=spec) for _ in range(4)],
            eval_budget=1000)
        engine.initialize()
        engine.run_batch(1000, 0)
        assert engine.per_container_evals == [250, 250, 250, 250]

    def test_empty_container_falls_back_to_random_genome(self):
        engine = toy_engine(sharing=SharingStrategy.NON_SHARED)
        engine.initialize()
        engine.containers[0].cells.clear()
        engine.containers[1].cells.clear()
        stats = engine.run_batch(10, 0)
        assert stats.executed == 10
        assert engine.containers[0].occupancy + engine.containers[1].occupancy > 0

    def test_curiosity_floor_invariant(self):
        engine = toy_engine()
        engine.initialize()
        for i in range(5):
            engine.run_batch(30, i)
        for c in engine.containers:
            for s in c.cells.values():
                assert s.curiosity >= engine.curiosity.floor


class TestRetraining:
    def test_hardcoded_strategy_never_retrains(self):
        engine = toy_engine()
        engine.initialize()
        engine.depot.added_since_last_training = 10 ** 9
        assert engine.maybe_retrain() is None

    def test_pre_trained_never_retrains(self):
        engine = toy_engine(learned=True,
                            training_strategy=TrainingStrategy.PRE_TRAINED)
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
        assert report is not None and report.fired and not report.diverged
        assert engine.depot.added_since_last_training == 0

    def test_retrain_reports_conserve_occupancy(self):
        engine = toy_engine(learned=True, training_period=30)
        engine.initialize()
        fired = 0
        for i in range(6):
            engine.run_batch(25, i)
            pre = {c.container_id: c.occupancy for c in engine.containers}
            report = engine.maybe_retrain()
            if report is not None and not report.diverged:
                fired += 1
                for r in report.reindex:
                    assert r.retained + r.dropped == pre[r.container_id]
                    assert engine.containers[r.container_id].occupancy == r.retained
        assert fired >= 1

    def test_reindex_idempotent_with_unchanged_extractor(self):
        engine = toy_engine(learned=True)
        engine.initialize()
        for i in range(2):
            engine.run_batch(25, i)
        before = engine_fingerprint(engine)[0]
        reports = engine.reindex_all()
        for r in reports:
            assert r.dropped == 0
        assert engine_fingerprint(engine)[0] == before

    def test_reindex_collisions_keep_best(self):
        engine = toy_engine(learned=True)
        engine.initialize()

        class CollapseExtractor:
            out_dim = 2

            def extract(self, observations):
                return np.array([0.5, 0.5])

            def extract_many(self, obs_list):
                return np.tile([0.5, 0.5], (len(obs_list), 1))

        best = max(s.fitness for s in engine.containers[0].cells.values())
        engine.containers[0].extractor = CollapseExtractor()
        reports = engine.reindex_all()
        assert engine.containers[0].occupancy == 1
        survivor = next(iter(engine.containers[0].cells.values()))
        assert survivor.fitness == best
        r0 = [r for r in reports if r.container_id == 0][0]
        assert r0.retained == 1

    def test_divergent_retrain_keeps_previous_models(self, monkeypatch):
        engine = toy_engine(learned=True, training_period=10)
        engine.initialize()
        old_ensemble = engine.ensemble
        old_extractors = [c.extractor for c in engine.containers]
        engine.depot.added_since_last_training = 50

        import mcqd.engine as engine_mod
        from mcqd.autoencoder import TrainReport

        def always_diverges(ensemble, inputs, cfg, rng):
            return TrainReport(diverged=True, message="synthetic blow-up")

        monkeypatch.setattr(engine_mod, "train_ensemble", always_diverges)
        report = engine.maybe_retrain()
        assert report is not None and report.fired and report.diverged
        assert engine.ensemble is old_ensemble
        assert [c.extractor for c in engine.containers] == old_extractors
        assert engine.depot.added_since_last_training == 50  # not reset

    def test_grid_invariants_hold_after_retrain(self):
        engine = toy_engine(learned=True, training_period=30)
        engine.initialize()
        for i in range(4):
            engine.run_batch(30, i)
            engine.maybe_retrain()
        for c in engine.containers:
            assert c.occupancy <= c.capacity
            for bin_idx, sol in c.cells.items():
                from mcqd.core import bin_index
                assert bin_index(sol.descriptors[c.container_id], c.shape,
                                 c.fd_bounds) == bin_idx
