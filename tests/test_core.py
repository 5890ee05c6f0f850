"""Grid discretization, elite competition, and the depot table."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcqd.core import (
    AddOutcome,
    DepotContainer,
    GridContainer,
    InvalidValueError,
    StructuralError,
)
from mcqd.engine import select_curiosity_roulette


def make_depot(fitness, fds=None, observations=None, curiosity=None, genome_dim=4):
    """A depot whose row r has id r and the given fitness.  ``fds`` holds one
    (n, dim) matrix per container (default: one 2-D container at the grid
    centre); observations default to (2, 3) zeros and curiosity to 1."""
    fitness = np.asarray(fitness, dtype=float)
    n = len(fitness)
    if fds is None:
        fds = [np.full((n, 2), 0.5)]
    fds = [np.atleast_2d(np.asarray(fd, dtype=float)) for fd in fds]
    obs = np.zeros((n, 2, 3)) if observations is None else np.asarray(observations, float)
    depot = DepotContainer(genome_dim, obs.shape[1:], [fd.shape[1] for fd in fds])
    depot.append(np.arange(n), np.zeros((n, genome_dim)), fitness, obs,
                 np.ones(n) if curiosity is None else np.asarray(curiosity, float), fds)
    return depot


def offer(container, depot, row):
    """Offer depot row ``row`` at its FD for this container, as the engine does."""
    fd = depot.fds[container.container_id][row]
    cell = int(container.cells(fd[np.newaxis])[0])
    return container.add(cell, row, depot.fitness)


def bin_of(container, fd):
    """The grid index of one FD vector."""
    cell = container.cells(np.asarray(fd, dtype=float)[np.newaxis])[0]
    return tuple(int(i) for i in np.unravel_index(cell, container.shape))


def elite_fitness(container, depot) -> dict:
    """Grid index -> stored elite's fitness."""
    return {tuple(int(i) for i in np.unravel_index(cell, container.shape)):
            float(depot.fitness[container.grid.flat[cell]])
            for cell in container.order}


def _scalar_bin(v: float, n: int) -> int:
    return min(max(math.floor(v * n), 0), n - 1)


class TestBinIndex:
    def test_center(self):
        assert bin_of(GridContainer(0, (25, 25)), [0.5, 0.5]) == (12, 12)

    def test_lower_boundary(self):
        assert bin_of(GridContainer(0, (25, 25)), [0.0, 0.0]) == (0, 0)

    def test_upper_boundary_clamps(self):
        assert bin_of(GridContainer(0, (25, 25)), [1.0, 0.999]) == (24, 24)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            GridContainer(0, (25, 25)).cells(np.array([[0.5]]))
        with pytest.raises(StructuralError):
            GridContainer(0, (25, 25)).cells(np.array([0.5, 0.5]))

    def test_non_finite_component(self):
        with pytest.raises(InvalidValueError):
            GridContainer(0, (25, 25)).cells(np.array([[0.5, 0.5], [0.5, np.nan]]))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_per_dimension(self, a, b, other):
        c = GridContainer(0, (25, 25))
        lo, hi = sorted((a, b))
        b_lo = bin_of(c, [lo, other])
        b_hi = bin_of(c, [hi, other])
        assert b_lo[0] <= b_hi[0]
        assert b_lo[1] == b_hi[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1, allow_subnormal=True),
                              st.floats(0, 1, allow_subnormal=True)),
                    min_size=1, max_size=20),
           st.integers(1, 40), st.integers(1, 40))
    @example([(0.5, 0.5)], 25, 25)
    @example([(0.0, 0.0)], 25, 25)
    @example([(1.0, 0.999)], 25, 25)
    @example([(5e-324, 1.0), (2.2250738585072014e-308, 0.9999999999999999)], 7, 3)
    def test_array_binning_equals_scalar_formula(self, points, n0, n1):
        c = GridContainer(0, (n0, n1))
        flat = c.cells(np.array(points))
        for cell, (a, b) in zip(flat.tolist(), points):
            assert np.unravel_index(cell, c.shape) == (_scalar_bin(a, n0),
                                                       _scalar_bin(b, n1))


class TestGridContainer:
    def test_add_to_empty(self):
        c = GridContainer(0, (10, 10))
        depot = make_depot([5.0], [[0.35, 0.35]])
        outcome, evicted = offer(c, depot, 0)
        assert outcome is AddOutcome.ADDED_TO_EMPTY
        assert evicted is None
        assert c.occupancy == 1
        assert c.grid[3, 3] == 0

    def test_better_replaces_and_returns_evictee(self):
        c = GridContainer(0, (10, 10))
        depot = make_depot([3.0, 4.0], [[[0.5, 0.5], [0.52, 0.52]]])  # same cell
        offer(c, depot, 0)
        outcome, evicted = offer(c, depot, 1)
        assert outcome is AddOutcome.REPLACED_WEAKER
        assert evicted == 0
        assert c.occupancy == 1

    def test_weaker_and_tie_rejected(self):
        c = GridContainer(0, (10, 10))
        depot = make_depot([3.0, 2.0, 3.0])
        offer(c, depot, 0)
        for row in (1, 2):  # incumbent wins ties
            outcome, _ = offer(c, depot, row)
            assert outcome is AddOutcome.REJECTED
        assert c.grid[5, 5] == 0

    def test_missing_descriptor_is_structural_error(self):
        c = GridContainer(3, (10, 10))
        with pytest.raises(StructuralError):
            c.cells(np.full((1, 3), 0.5))  # an FD of another container's space

    def test_occupancy_and_cell_fitness_monotone(self):
        rng = np.random.default_rng(0)
        c = GridContainer(0, (5, 5))
        depot = make_depot(rng.normal(size=200), [rng.random((200, 2))])
        prev_occupancy = 0
        best_per_cell = {}
        for row in range(200):
            offer(c, depot, row)
            assert c.occupancy >= prev_occupancy
            prev_occupancy = c.occupancy
            for cell, fitness in elite_fitness(c, depot).items():
                if cell in best_per_cell:
                    assert fitness >= best_per_cell[cell]
                best_per_cell[cell] = fitness
        assert c.occupancy <= c.capacity
        assert c.occupancy == np.count_nonzero(c.grid >= 0) == len(set(c.order))

    def test_replaced_elite_keeps_its_selection_place(self):
        # cells A, B, C filled in that order (not the grid's C order), then
        # A's elite replaced: the roulette's cumulative sum runs over A', B, C
        c = GridContainer(0, (10, 10))
        depot = make_depot(
            [1.0, 1.0, 1.0, 2.0],
            [[[0.95, 0.95], [0.15, 0.15], [0.55, 0.55], [0.95, 0.96]]],
            curiosity=[100.0, 2.0, 3.0, 1.0])
        for row in range(4):
            offer(c, depot, row)
        np.testing.assert_array_equal(c.rows(), [3, 1, 2])

        # cumulative curiosity over (A', B, C) is (1, 3, 6)
        np.testing.assert_array_equal(
            select_curiosity_roulette(c, depot.curiosity, [0.1, 0.3, 0.9]), [3, 1, 2])
        c.clear()
        assert c.occupancy == 0 and not c.rows().size and np.all(c.grid == -1)


class TestDepot:
    def test_append_is_one_row_per_solution(self):
        depot = make_depot([1.0, 2.0])
        depot.append([7], np.ones((1, 4)), [3.0], np.ones((1, 2, 3)), [1.0],
                     [np.array([[0.1, 0.2]])])
        assert len(depot) == 3
        np.testing.assert_array_equal(depot.ids, [0, 1, 7])
        np.testing.assert_array_equal(depot.fitness, [1.0, 2.0, 3.0])
        assert depot.observation_corpus().shape == (3, 2, 3)
        assert depot.fds[0].shape == (3, 2)
        assert depot.added_since_last_training == 3

    def test_counter_reset(self):
        depot = make_depot([1.0] * 5)
        assert depot.added_since_last_training == 5
        depot.added_since_last_training = 0
        assert depot.added_since_last_training == 0
        assert len(depot) == 5

    def test_depot_covers_container_occupancy(self):
        from test_engine import toy_engine
        engine = toy_engine()
        engine.initialize()
        for _ in range(5):
            engine.run_batch(20)
            depot = engine.depot
            stored = np.concatenate([c.rows() for c in engine.containers])
            assert len(depot) >= max(c.occupancy for c in engine.containers)
            assert 0 <= stored.min() and stored.max() < len(depot)
            assert len(np.unique(depot.ids)) == len(depot)
            assert all(len(a) == len(depot) for a in
                       (depot.genomes, depot.fitness, depot.observations,
                        depot.curiosity, *depot.fds))
