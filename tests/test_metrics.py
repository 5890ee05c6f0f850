"""Coverage, QD-score, redundancy, FD correlation, KL-coverage."""
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcqd.core import GridContainer
from mcqd.metrics import (
    METRIC_COLUMNS,
    fd_abs_correlation,
    kl_coverage,
    snapshot,
)

from test_core import make_depot, offer

BOUNDS = (0.0, 10.0)


def metrics_of(containers, depot):
    """The snapshot of a search state, whose fields the tests read."""
    return snapshot(0, containers, depot, BOUNDS)


def fill(containers, entries):
    """entries: one (fitness, {container_id: fd}) per depot row; each row is
    offered to every container it has an FD for, and must be accepted.
    Returns the depot."""
    n = len(entries)
    fds = [np.full((n, len(c.shape)), 0.5) for c in containers]
    for row, (_, placed) in enumerate(entries):
        for cid, fd in placed.items():
            fds[cid][row] = fd
    depot = make_depot([fitness for fitness, _ in entries], fds)
    for row, (_, placed) in enumerate(entries):
        for cid in placed:
            outcome, _ = offer(containers[cid], depot, row)
            assert outcome.accepted
    return depot


class PassThroughExtractor:
    """Reads the FD straight out of the observation matrix's first column."""

    def __init__(self, rows):
        self.rows = rows
        self.out_dim = len(rows)

    def extract_many(self, observations):
        return np.asarray(observations)[:, self.rows, 0]


def depot_of(points, extractors=(PassThroughExtractor([0, 1]),), fitness=None):
    """Depot whose row r carries the (k, 1) observation matrix ``points[r]``
    and, per extractor, the FD that extractor reads from it."""
    obs = np.asarray(points, dtype=float)[:, :, np.newaxis]
    return make_depot(np.ones(len(obs)) if fitness is None else fitness,
                      [ex.extract_many(obs) for ex in extractors], observations=obs)


class TestCoverageAndScores:
    def test_empty_everything(self):
        cs = [GridContainer(0, (10, 10)), GridContainer(1, (5, 5))]
        depot = make_depot([], [np.empty((0, 2))] * 2)
        assert metrics_of(cs, depot).coverage_pct == 0.0
        assert metrics_of(cs, depot).qd_score == 0.0
        assert metrics_of(cs, depot).best_fitness is None

    def test_full_coverage(self):
        c = GridContainer(0, (2, 2))
        depot = fill([c], [(1.0, {0: [0.1, 0.1]}), (1.0, {0: [0.9, 0.1]}),
                           (1.0, {0: [0.1, 0.9]}), (1.0, {0: [0.9, 0.9]})])
        assert metrics_of([c], depot).coverage_pct == 100.0

    def test_direct_count(self):
        c = GridContainer(0, (10, 10))
        rng = np.random.default_rng(0)
        taken = set()
        entries = []
        while len(taken) < 37:
            fd = rng.random(2)
            cell = tuple((fd * 10).astype(int))
            if cell not in taken:
                taken.add(cell)
                entries.append((1.0, {0: fd}))
        depot = fill([c], entries)
        assert metrics_of([c], depot).coverage_pct == 37.0

    def test_qd_score_normalization(self):
        c = GridContainer(0, (10, 10))
        depot = fill([c], [(10.0, {0: [0.05 + 0.1 * i, 0.5]}) for i in range(10)])
        assert metrics_of([c], depot).qd_score == pytest.approx(10.0)
        c2 = GridContainer(0, (10, 10))
        depot2 = fill([c2], [(5.0, {0: [0.05 + 0.1 * i, 0.5]}) for i in range(3)])
        assert metrics_of([c2], depot2).qd_score == pytest.approx(1.5)

    def test_qd_score_clamps_out_of_bounds_fitness(self):
        c = GridContainer(0, (10, 10))
        depot = fill([c], [(99.0, {0: [0.1, 0.1]}), (-99.0, {0: [0.9, 0.9]})])
        assert metrics_of([c], depot).qd_score == pytest.approx(1.0)

    def test_sums_run_left_to_right_in_first_fill_order(self):
        # the metric log's bits depend on the summation order: entries are
        # added container by container, each in first-fill order, from 0.0
        cs = [GridContainer(0, (10, 10)), GridContainer(1, (10, 10))]
        rng = np.random.default_rng(6)
        entries = [(float(f), {k % 2: [0.05 + 0.1 * (k // 2), 0.5]})
                   for k, f in enumerate(rng.uniform(0.0, 10.0, 20))]
        entries[7] = (entries[7][0], {0: [0.95, 0.95], 1: [0.95, 0.95]})
        depot = fill(cs, entries)
        expected = 0.0
        for c in cs:
            for row in c.rows():
                expected += float(depot.fitness[row]) / 10.0
        assert metrics_of(cs, depot).qd_score == expected
        uq = metrics_of(cs, depot).unique_qd_score
        seen = dict.fromkeys(int(r) for c in cs for r in c.rows())
        assert uq == sum(float(depot.fitness[r]) / 10.0 for r in seen)


class TestUniqueAndRedundancy:
    def make_pair(self, share):
        cs = [GridContainer(0, (10, 10)), GridContainer(1, (10, 10))]
        entries = [(5.0, {0: [0.1, 0.1]}), (7.0, {0: [0.9, 0.9]})]
        if share:
            entries[0][1][1] = [0.3, 0.3]
        else:
            entries.append((5.0, {1: [0.3, 0.3]}))
        return cs, fill(cs, entries)

    def test_single_container_unique_equals_base(self):
        c = GridContainer(0, (10, 10))
        depot = fill([c], [(4.0, {0: [0.05 + 0.1 * i, 0.5]}) for i in range(7)])
        snap = metrics_of([c], depot)
        uq, ucov = snap.unique_qd_score, snap.unique_coverage_pct
        assert uq == snap.qd_score
        assert ucov == snap.coverage_pct
        assert snap.redundancy == 0.0

    def test_shared_solution_counted_once(self):
        cs, depot = self.make_pair(share=True)
        snap = metrics_of(cs, depot)
        uq, ucov = snap.unique_qd_score, snap.unique_coverage_pct
        assert uq == pytest.approx(0.5 + 0.7)
        assert snap.qd_score == pytest.approx(0.5 + 0.7 + 0.5)
        assert ucov == pytest.approx(100.0 * 2 / 200)
        assert snap.coverage_pct == pytest.approx(100.0 * 3 / 200)
        assert snap.redundancy == pytest.approx(1 / 200)

    def test_disjoint_contents_not_redundant(self):
        cs, depot = self.make_pair(share=False)
        snap = metrics_of(cs, depot)
        uq, ucov = snap.unique_qd_score, snap.unique_coverage_pct
        assert uq == snap.qd_score
        assert ucov == snap.coverage_pct
        assert snap.redundancy == 0.0

    def test_one_solution_in_four_containers(self):
        containers = [GridContainer(cid, (10, 10)) for cid in range(4)]
        depot = fill(containers, [(5.0, {cid: [0.5, 0.5] for cid in range(4)})])
        snap = metrics_of(containers, depot)
        assert snap.redundancy == pytest.approx(3 / 400)
        ucov = snap.unique_coverage_pct
        assert ucov == pytest.approx(100.0 / 400)
        assert snap.coverage_pct == pytest.approx(400.0 / 400)


class TestBestFitness:
    def test_single(self):
        c = GridContainer(0, (4, 4))
        depot = fill([c], [(7.0, {0: [0.5, 0.5]})])
        assert metrics_of([c], depot).best_fitness == 7.0

    def test_max_over_containers(self):
        cs = [GridContainer(0, (4, 4)), GridContainer(1, (4, 4))]
        depot = fill(cs, [(3.0, {0: [0.5, 0.5]}), (9.0, {1: [0.5, 0.5]})])
        assert metrics_of(cs, depot).best_fitness == 9.0


class TestFdAbsCorrelation:
    def test_exact_copies_give_one(self):
        rng = np.random.default_rng(0)
        depot = depot_of(np.column_stack([rng.random(50)] * 2))
        c = GridContainer(0, (4, 4))
        assert fd_abs_correlation([c], depot) == pytest.approx(1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(1)
        depot = depot_of(rng.random((10_000, 2)))
        c = GridContainer(0, (4, 4))
        assert fd_abs_correlation([c], depot) < 0.05

    def test_zero_variance_column_excluded(self, caplog):
        rng = np.random.default_rng(2)
        pts = rng.random((100, 2))
        pts[:, 1] = 0.7
        depot = depot_of(pts, (PassThroughExtractor([0, 1]), PassThroughExtractor([0])))
        c0 = GridContainer(0, (4, 4))
        c1 = GridContainer(1, (4,))
        with caplog.at_level("WARNING"):
            value = fd_abs_correlation([c0, c1], depot)
        assert value == pytest.approx(1.0)  # the two surviving columns are copies
        assert any("zero-variance" in r.message for r in caplog.records)

    def test_undefined_cases_return_none(self):
        c = GridContainer(0, (4, 4))
        assert fd_abs_correlation([c], depot_of([(0.1, 0.2)])) is None


class TestKlCoverage:
    extractors = [PassThroughExtractor([0, 1])]

    def solutions(self, points):
        """The (n, 2, 1) observations of a solution set."""
        return np.asarray(points, dtype=float)[:, :, np.newaxis]

    def test_identical_sets_are_zero(self):
        xs = self.solutions(np.random.default_rng(0).random((200, 2)))
        assert kl_coverage(xs, xs, self.extractors) <= 1e-6

    def test_matches_hand_summation(self):
        # reference uniform over bins 0..9 in dim 0; compared concentrated
        ref = self.solutions([(0.05 + 0.1 * k, 0.05) for k in range(10)])
        cmp_ = self.solutions([(0.05, 0.05)] * 10)
        got = kl_coverage(ref, cmp_, self.extractors)  # smoothing 1e-9

        def hand_kl(ref_counts, cmp_counts):
            p = np.array(ref_counts, dtype=float) + 1e-9
            q = np.array(cmp_counts, dtype=float) + 1e-9
            p, q = p / p.sum(), q / q.sum()
            return float(np.sum(p * np.log(p / q)))

        dim0 = hand_kl([1] * 10, [10] + [0] * 9)
        dim1 = hand_kl([10] + [0] * 9, [10] + [0] * 9)
        assert got == pytest.approx(dim0 + dim1, abs=1e-9)

    def test_asymmetric(self):
        rng = np.random.default_rng(3)
        a = self.solutions(rng.random((100, 2)))
        b = self.solutions(rng.random((100, 2)) * 0.3)
        assert kl_coverage(a, b, self.extractors) != kl_coverage(b, a, self.extractors)

    def test_empty_set_is_rejected(self):
        xs = self.solutions(np.random.default_rng(4).random((50, 2)))
        with pytest.raises(ValueError):
            kl_coverage(xs[:0], xs, self.extractors)
        with pytest.raises(ValueError):
            kl_coverage(xs, xs[:0], self.extractors)


class TestBestFitnessDepotCrossCheck:
    def test_equals_depot_max_over_stored_ids(self):
        # independent recomputation from the depot restricted to stored ids
        from test_engine import toy_engine
        engine = toy_engine(sharing="shared")
        engine.initialize()
        for _ in range(3):
            engine.run_batch(30)
        depot = engine.depot
        stored_ids = {int(depot.ids[r]) for c in engine.containers for r in c.rows()}
        oracle = max(f for i, f in zip(depot.ids.tolist(), depot.fitness.tolist())
                     if i in stored_ids)
        assert metrics_of(engine.containers, depot).best_fitness == oracle


class TestToyTaskClosedFormCorrelation:
    def test_identity_extractor_matches_analytic_value(self):
        # channels (g1, g2, g1+g2, g1-g2) with independent uniform genes:
        # |r| is 0 for (g1,g2) and (sum,diff), 1/sqrt(2) for the other four
        # pairs, so the mean over the six pairs is 4/(6*sqrt(2))
        from mcqd.tasks import RastriginToyTask
        task = RastriginToyTask()
        rng = np.random.default_rng(11)
        genomes = rng.uniform(-5.12, 5.12, (20_000, 2))
        fitness, obs = task.evaluate_many(genomes, [None] * len(genomes))
        depot = make_depot(fitness, [PassThroughExtractor([0, 1, 2, 3]).extract_many(obs)],
                           observations=obs)
        c = GridContainer(0, (4, 4, 4, 4))
        expected = 4.0 / (6.0 * np.sqrt(2.0))
        assert fd_abs_correlation([c], depot) == pytest.approx(expected, abs=0.01)


class TestSnapshot:
    def test_snapshot_fields_and_order(self):
        c = GridContainer(0, (10, 10))
        points = np.random.default_rng(5).random((20, 2))
        points[:2] = [[0.1, 0.1], [0.9, 0.9]]
        depot = depot_of(points, fitness=[5.0, 7.0] + [1.0] * 18)
        for row in (0, 1):
            offer(c, depot, row)
        snap = snapshot(3, [c], depot, BOUNDS)
        assert snap.iteration == 3
        assert snap.coverage_pct == 2.0
        assert snap.unique_coverage_pct <= snap.coverage_pct
        assert snap.unique_qd_score <= snap.qd_score
        assert snap.depot_size == 20
        row = snap.as_row()
        assert len(row) == len(METRIC_COLUMNS)
        assert row[0] == 3

    def test_readme_lists_the_metric_columns(self):
        """README's ``metrics.csv`` column block is ``METRIC_COLUMNS``."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("`rep_<k>/metrics.csv`", 1)[1]
        block = section.split("```\n", 2)[1]
        assert tuple(name.strip() for name in block.split(",")) == METRIC_COLUMNS


def per_metric_formulas(containers, depot, fitness_bounds) -> dict:
    """The snapshot fields as the one-metric functions that ``snapshot``
    replaced computed them, each on its own read of the elites."""
    def total_capacity(containers):
        return sum(c.capacity for c in containers)

    def elite_rows(containers):
        return np.concatenate([c.rows() for c in containers])

    def normalized_fitness(fitness, bounds):
        lo, hi = bounds
        return np.minimum(np.maximum((fitness - lo) / (hi - lo), 0.0), 1.0)

    def sum_in_order(values):
        total = 0.0
        for v in values.tolist():
            total += v
        return total

    rows = elite_rows(containers)
    _, first = np.unique(rows, return_index=True)
    unique = rows[np.sort(first)]
    return {
        "coverage_pct": 100.0 * sum(c.occupancy for c in containers)
        / total_capacity(containers),
        "unique_coverage_pct": 100.0 * len(unique) / total_capacity(containers),
        "qd_score": sum_in_order(
            normalized_fitness(depot.fitness[elite_rows(containers)], fitness_bounds)),
        "unique_qd_score": sum_in_order(
            normalized_fitness(depot.fitness[unique], fitness_bounds)),
        "best_fitness": (float(depot.fitness[elite_rows(containers)].max())
                         if len(elite_rows(containers)) else None),
        "redundancy": (len(rows) - len(np.unique(rows))) / total_capacity(containers),
    }


def bits(value):
    return None if value is None else struct.pack("<d", value)


class TestSnapshotOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fields_equal_the_per_metric_formulas(self, data):
        """Containers filled at random, with rows shared across containers
        and empty containers: every field has the old formula's bits."""
        shapes = data.draw(st.lists(
            st.sampled_from([(1,), (3,), (2, 2), (3, 3), (4, 4)]), min_size=1, max_size=4))
        containers = [GridContainer(cid, shape) for cid, shape in enumerate(shapes)]
        # full-mantissa values, whose sums round differently in another order
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        fitness = rng.uniform(-20.0, 20.0, data.draw(st.integers(0, 40)))
        fds = [rng.random((len(fitness), len(shape))) for shape in shapes]
        depot = make_depot(fitness, fds)
        for row in range(len(fitness)):
            for cid in sorted(data.draw(st.sets(st.sampled_from(range(len(shapes)))))):
                offer(containers[cid], depot, row)
        lo = data.draw(st.floats(-25.0, 5.0))
        bounds = (lo, lo + data.draw(st.floats(1.0, 50.0)))
        snap = snapshot(4, containers, depot, bounds)
        for name, expected in per_metric_formulas(containers, depot, bounds).items():
            assert bits(getattr(snap, name)) == bits(expected), name
        assert bits(snap.fd_abs_corr) == bits(fd_abs_correlation(containers, depot))
        assert (snap.iteration, snap.depot_size) == (4, len(fitness))

    def test_bounds_must_be_increasing(self):
        c = GridContainer(0, (2, 2))
        depot = fill([c], [(1.0, {0: [0.1, 0.1]})])
        with pytest.raises(ValueError, match="hi > lo"):
            snapshot(0, [c], depot, (1.0, 1.0))
