"""Surrogate walker and analytic toy task."""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcqd.core import StructuralError
from mcqd.engine import episode_seed_sequence
from mcqd.tasks import RastriginToyTask, SurrogateWalkerTask, make_task

from conftest import outputs_at_blas_threads


def evaluate_one(task, genome, seed_seq):
    """One genome evaluated as a one-row batch: (fitness, observations)."""
    fitness, obs = task.evaluate_many(np.asarray(genome)[np.newaxis], [seed_seq])
    return fitness[0], obs[0]


@pytest.fixture(scope="module")
def walker():
    return make_task("surrogate_walker",
                     {"episode_steps": 150, "obs_window": 15})


class TestWalker:
    def test_observation_shape_and_timepoints(self, walker):
        d = walker.definition
        assert d.n_timepoints == 10
        assert walker.episode_steps == d.n_timepoints * walker.obs_window
        for task in (walker, make_task("rastrigin_toy")):
            assert task.definition.n_obs_channels == len(task.definition.channel_names)
        fitness, obs = walker.evaluate_many(np.zeros((3, d.genome_dim)),
                                            [episode_seed_sequence(0, i) for i in range(3)])
        assert fitness.shape == (3,)
        assert obs.shape == (3, d.n_obs_channels, d.n_timepoints)

    def test_full_scale_shape_recipe(self):
        task = make_task("surrogate_walker",
                         {"episode_steps": 300, "obs_window": 30})
        assert task.definition.n_timepoints == 10

    def test_zero_torque_stays_near_origin(self):
        task = make_task("surrogate_walker",
                         {"episode_steps": 150, "obs_window": 15,
                          "terrain_roughness": 0.0})
        _, obs = evaluate_one(task, np.zeros(task.definition.genome_dim),
                              episode_seed_sequence(1, 0))
        displacement = obs[0, -1]
        assert abs(displacement) < 0.01 * SurrogateWalkerTask.ARENA_LENGTH

    def test_deterministic_per_seed(self, walker):
        g = np.random.default_rng(3).uniform(-1, 1, walker.definition.genome_dim)
        a = evaluate_one(walker, g, episode_seed_sequence(7, 5))
        b = evaluate_one(walker, g, episode_seed_sequence(7, 5))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_substreams_differ(self, walker):
        rng = np.random.default_rng(4)
        g = rng.uniform(-1, 1, walker.definition.genome_dim)
        a, _ = evaluate_one(walker, g, episode_seed_sequence(7, 500))
        b, _ = evaluate_one(walker, g, episode_seed_sequence(7, 501))
        assert a != b

    def test_batch_matches_single(self, walker):
        rng = np.random.default_rng(5)
        genomes = rng.uniform(-1, 1, (6, walker.definition.genome_dim))
        seeds = [episode_seed_sequence(9, i) for i in range(6)]
        fitness, obs = walker.evaluate_many(genomes, seeds)
        for i in range(6):
            single_fitness, single_obs = walker.evaluate_many(
                genomes[i:i + 1], [episode_seed_sequence(9, i)])
            np.testing.assert_array_equal(single_fitness, fitness[i:i + 1])
            np.testing.assert_array_equal(single_obs, obs[i:i + 1])

    def test_observations_finite_and_genome_checked(self, walker):
        rng = np.random.default_rng(6)
        g = rng.uniform(-1, 1, walker.definition.genome_dim)
        _, obs = evaluate_one(walker, g, episode_seed_sequence(0, 1))
        assert np.all(np.isfinite(obs))
        with pytest.raises(StructuralError):
            walker.evaluate_many(np.zeros((1, 3)), [episode_seed_sequence(0, 0)])
        with pytest.raises(StructuralError):  # one genome is a one-row batch
            walker.evaluate_many(g, [episode_seed_sequence(0, 0)])

    def test_window_mismatch_rejected(self):
        from mcqd.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            make_task("surrogate_walker", {"episode_steps": 100, "obs_window": 30})

    def test_channels_cover_hardcoded_needs(self, walker):
        required = {"displacement", "body_angle", "hip1", "knee1", "hip2",
                    "knee2", "torque_total", "airborne"}
        assert required <= set(walker.definition.channel_names)


class TestToyTask:
    def test_global_optimum(self):
        task = RastriginToyTask()
        fitness, _ = evaluate_one(task, np.zeros(2), None)
        assert fitness == pytest.approx(0.0, abs=1e-12)

    def test_observation_structure(self):
        task = RastriginToyTask()
        _, obs = evaluate_one(task, np.array([1.5, -0.5]), None)
        assert obs.shape == (4, 10)
        np.testing.assert_allclose(obs[2], obs[0] + obs[1])
        np.testing.assert_allclose(obs[3], obs[0] - obs[1])
        assert np.all(obs == obs[:, [0]])  # constant over time

    def test_symmetric_genomes_mirror(self):
        task = RastriginToyTask()
        a_fitness, a = evaluate_one(task, np.array([0.7, -1.2]), None)
        b_fitness, b = evaluate_one(task, np.array([-1.2, 0.7]), None)
        assert a_fitness == pytest.approx(b_fitness, abs=1e-12)
        np.testing.assert_allclose(a[0], b[1])
        np.testing.assert_allclose(a[3], -b[3])

    def test_known_rastrigin_value(self):
        task = RastriginToyTask()
        # f(1, 0) = 1 for the standard parameters
        fitness, _ = evaluate_one(task, np.array([1.0, 0.0]), None)
        assert fitness == pytest.approx(-1.0, abs=1e-9)


# sha256 of evaluate_many's fitness and observation bytes for six fixed
# genomes and seeds, re-recorded when the controller products moved from
# einsum to a stacked matmul; any change to the dynamics, the terrain lookup
# or the observation averaging shows up here.
WALKER_GOLDEN_SHA256 = "8762eb04e8e2ed4851a311200faf6b6407b53db6fe711b065ccaae485fbfb4cb"


def _golden_batch(walker):
    rng = np.random.default_rng(2021)
    genomes = rng.uniform(-1, 1, (6, walker.definition.genome_dim))
    genomes[0] = 0.0  # the zero controller only settles onto its springs
    seeds = [episode_seed_sequence(31, 7 * i) for i in range(6)]
    return walker.evaluate_many(genomes, seeds)


def test_walker_golden_bytes(walker):
    fitness, obs = _golden_batch(walker)
    digest = hashlib.sha256(fitness.tobytes())
    for row in obs:
        digest.update(np.ascontiguousarray(row, dtype=float).tobytes())
    assert digest.hexdigest() == WALKER_GOLDEN_SHA256


# Fitness of the six golden genomes before the controller contractions moved
# from einsum (which accumulates with FMA) to a stacked matmul; the rewrite may
# move the last bits only.
WALKER_GOLDEN_FITNESS_BEFORE_MATMUL = [
    3.000000000000002, -0.5506919559821498, -100.43465670717498,
    -3.388994241877646, 3.3923820778659506, 1.3472501206267122,
]


def test_walker_golden_fitness_drift_is_last_bits(walker):
    fitness, _ = _golden_batch(walker)
    np.testing.assert_allclose(fitness, WALKER_GOLDEN_FITNESS_BEFORE_MATMUL,
                               rtol=0.0, atol=1e-12)


def _torque_planes():
    """(4, batch, episodes) joint torques, as the walker's step records them."""
    return st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, (4,) + shape, elements=st.one_of(
            st.just(-0.0), st.floats(allow_subnormal=True))))


class TestStepRewrites:
    """The step loop's forms against the ones they replaced, compared as
    int64 bit patterns."""

    @settings(max_examples=300, deadline=None)
    @given(_torque_planes())
    @example(np.array([-0.0, np.nan, -np.nan, np.inf]).reshape(4, 1, 1))
    def test_abs_total_is_abs_sum(self, torque):
        """The walker's total absolute torque, the sum over the planes'
        first axis, against the four joints added left to right."""
        a = np.abs(torque)
        with np.errstate(over="ignore"):
            got = a.sum(axis=0)
            want = a[0] + a[1] + a[2] + a[3]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.bool_, shape + (2,))))
    def test_either_contact_is_any(self, contact):
        np.testing.assert_array_equal(contact[..., 0] | contact[..., 1],
                                      contact.any(axis=-1))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.sampled_from([1, 2, 15, 30]), st.integers(1, 14),
                     st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.one_of(
            st.just(-0.0), st.floats(-1e3, 1e3, allow_subnormal=True)))))
    @example(np.full((2, 14, 1, 1), -0.0))
    @example(np.full((30, 1, 1, 1), 49.47543795))
    def test_running_window_sum_is_window_mean(self, buf):
        """The walker's window average, a sum started from 0.0 with each
        (channels, rows, episodes) step added in order and then divided by
        the window length, against the mean over a buffer of the window's
        steps.  Starting from a copy of the first step instead would keep a
        window of -0.0 at -0.0, where the mean gives 0.0.

        The mean reduces left to right only where a step has two or more
        elements, as the walker's 14-channel steps do.  Over a one-element
        step it sums the window pairwise from 8 steps on, so there the
        oracle is the explicit left-to-right sum from 0.0."""
        got = np.empty(buf.shape[1:])
        for w, step in enumerate(buf):
            if w == 0:
                got.fill(0.0)
            got += step
        got /= len(buf)
        want = np.empty(buf.shape[1:])
        if want.size == 1:
            total = 0.0
            for value in buf.ravel().tolist():
                total += value
            want.fill(total / len(buf))
        else:
            buf.mean(axis=0, out=want)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from mcqd.engine import episode_seed_sequence
from mcqd.tasks import make_task
task = make_task("surrogate_walker", {"episode_steps": 150, "obs_window": 15})
genomes = np.random.default_rng(77).uniform(-1, 1, (300, task.definition.genome_dim))
seeds = [episode_seed_sequence(13, i) for i in range(300)]
fitness, obs = task.evaluate_many(genomes, seeds)
for i in (0, 1, 149, 299):
    single_fitness, single_obs = task.evaluate_many(genomes[i:i + 1], seeds[i:i + 1])
    if (single_fitness.tobytes() != fitness[i:i + 1].tobytes()
            or single_obs.tobytes() != obs[i:i + 1].tobytes()):
        sys.exit(f"row {i} differs from its single-row evaluation")
digest = hashlib.sha256(fitness.tobytes())
for row in obs:
    digest.update(row.tobytes())
print(digest.hexdigest())
"""


def test_walker_bytes_independent_of_blas_threads():
    """Each row of a 300-row batch gets the same bits at one and at two BLAS
    threads, and the same bits as when it is evaluated alone."""
    one, two = outputs_at_blas_threads(_THREADS_SCRIPT)
    assert one == two


def test_walker_holds_one_observation_window_not_the_episode(walker):
    """A 500-genome batch (the benchmarks' initial collection) keeps no
    episode's worth of steps, which took 42 MB: its observations stream
    through one window's running sum, and the call peaks near 5 MB."""
    import tracemalloc

    genomes = np.random.default_rng(8).uniform(-1, 1, (500, walker.definition.genome_dim))
    seeds = [episode_seed_sequence(1, i) for i in range(500)]
    tracemalloc.start()
    try:
        walker.evaluate_many(genomes, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


def _walker_peak_bytes(window):
    """tracemalloc peak of a 200-genome, 120-step walker call."""
    import tracemalloc

    task = make_task("surrogate_walker", {"episode_steps": 120, "obs_window": window})
    genomes = np.random.default_rng(10).uniform(-1, 1, (200, task.definition.genome_dim))
    seeds = [episode_seed_sequence(3, i) for i in range(200)]
    tracemalloc.start()
    try:
        task.evaluate_many(genomes, seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walker_memory_does_not_grow_with_the_window():
    """Each step is added into its window's running sum as it is made, so
    a 60-step window (two timepoints) peaks no higher than a 2-step one
    (sixty timepoints), which has the larger observation array."""
    long_window, short_window = _walker_peak_bytes(60), _walker_peak_bytes(2)
    assert long_window <= short_window, (
        f"window 60 peak {long_window / 1e6:.2f} MB, "
        f"window 2 peak {short_window / 1e6:.2f} MB")


def test_chunk_boundary_rows_match_single_rows():
    """A batch larger than ``CHUNK`` runs in chunks; the rows on each side
    of the first boundary get the bits they get when evaluated alone."""
    task = make_task("surrogate_walker", {"episode_steps": 10, "obs_window": 5})
    n = SurrogateWalkerTask.CHUNK + 2
    genomes = np.random.default_rng(21).uniform(-1, 1, (n, task.definition.genome_dim))
    seeds = [episode_seed_sequence(17, i) for i in range(n)]
    fitness, obs = task.evaluate_many(genomes, seeds)
    assert obs.shape == (n, task.definition.n_obs_channels, task.definition.n_timepoints)
    for i in (n - 3, n - 2, n - 1):
        single_fitness, single_obs = task.evaluate_many(genomes[i:i + 1], seeds[i:i + 1])
        assert single_fitness.tobytes() == fitness[i:i + 1].tobytes()
        assert single_obs.tobytes() == obs[i:i + 1].tobytes()


def test_large_batch_memory_is_bounded_by_the_chunk():
    """A 3000-row batch with one 30-step window: the per-step arrays of the
    lockstep pass grow with the rows it runs, so the call runs 1000-row
    chunks, one after another, and peaks near 10 MB."""
    import tracemalloc

    task = make_task("surrogate_walker", {"episode_steps": 30, "obs_window": 30})
    genomes = np.random.default_rng(9).uniform(-1, 1, (3000, task.definition.genome_dim))
    seeds = [episode_seed_sequence(2, i) for i in range(3000)]
    tracemalloc.start()
    try:
        task.evaluate_many(genomes, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(1, 11), max_size=11))
def test_any_split_of_a_batch_gives_the_same_bytes(cuts):
    task = make_task("surrogate_walker", {"episode_steps": 30, "obs_window": 15})
    genomes = np.random.default_rng(23).uniform(-1, 1, (12, task.definition.genome_dim))
    seeds = [episode_seed_sequence(29, i) for i in range(12)]
    whole = task.evaluate_many(genomes, seeds)
    edges = [0, *sorted(cuts), 12]
    parts = [task.evaluate_many(genomes[lo:hi], seeds[lo:hi])
             for lo, hi in zip(edges, edges[1:])]
    assert np.concatenate([f for f, _ in parts]).tobytes() == whole[0].tobytes()
    assert np.concatenate([o for _, o in parts]).tobytes() == whole[1].tobytes()


def test_fallen_episode_is_frozen():
    """After the step of its fall, an episode keeps its final state and
    applies no torque, so with one episode per evaluation every channel is
    constant in every window after the one holding the fall."""
    window, steps = 15, 150
    task = make_task("surrogate_walker", {"episode_steps": steps, "obs_window": window,
                                          "episodes_per_eval": 1})
    rng = np.random.default_rng(0)

    def fallen_by(genome, seed, n):
        # the terrain and dynamics do not depend on the episode length, and
        # the fall penalty outweighs every other reward
        short = make_task("surrogate_walker", {"episode_steps": n, "obs_window": 1,
                                               "episodes_per_eval": 1})
        return evaluate_one(short, genome, seed)[0] < -0.5 * SurrogateWalkerTask.FALL_PENALTY

    for i in range(40):
        genome = rng.uniform(-1, 1, task.definition.genome_dim)
        seed = episode_seed_sequence(5, i)
        if not fallen_by(genome, seed, steps - 2 * window):
            continue
        lo, hi = 1, steps - 2 * window  # the fall happens within the first hi steps
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fallen_by(genome, seed, mid) else (mid + 1, hi)
        fall_window = (lo - 1) // window
        _, obs = evaluate_one(task, genome, seed)
        after = obs[:, fall_window + 1:]
        assert after.shape[1] >= 2
        np.testing.assert_array_equal(after, np.repeat(after[:, :1], after.shape[1], axis=1))
        return
    pytest.fail("no genome fell")
