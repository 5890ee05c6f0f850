"""Surrogate walker and analytic toy task."""
import hashlib

import numpy as np
import pytest

from mcqd.core import StructuralError
from mcqd.engine import episode_seed_sequence
from mcqd.tasks import RastriginToyTask, SurrogateWalkerTask, make_task


@pytest.fixture(scope="module")
def walker():
    return make_task("surrogate_walker",
                     {"episode_steps": 150, "obs_window": 15})


class TestWalker:
    def test_observation_shape_and_timepoints(self, walker):
        d = walker.definition
        assert d.n_timepoints == 10
        assert d.episode_steps == d.n_timepoints * d.obs_averaging_window
        ev = walker.evaluate(np.zeros(d.genome_dim), episode_seed_sequence(0, 0))
        assert ev.observations.shape == (d.n_obs_channels, d.n_timepoints)
        assert ev.episode_count == d.episodes_per_eval

    def test_full_scale_shape_recipe(self):
        task = make_task("surrogate_walker",
                         {"episode_steps": 300, "obs_window": 30})
        assert task.definition.n_timepoints == 10

    def test_zero_torque_stays_near_origin(self):
        task = make_task("surrogate_walker",
                         {"episode_steps": 150, "obs_window": 15,
                          "terrain_roughness": 0.0})
        ev = task.evaluate(np.zeros(task.definition.genome_dim),
                           episode_seed_sequence(1, 0))
        displacement = ev.observations[0, -1]
        assert abs(displacement) < 0.01 * SurrogateWalkerTask.ARENA_LENGTH

    def test_deterministic_per_seed(self, walker):
        g = np.random.default_rng(3).uniform(-1, 1, walker.definition.genome_dim)
        a = walker.evaluate(g, episode_seed_sequence(7, 5))
        b = walker.evaluate(g, episode_seed_sequence(7, 5))
        assert a.fitness == b.fitness
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_different_substreams_differ(self, walker):
        rng = np.random.default_rng(4)
        g = rng.uniform(-1, 1, walker.definition.genome_dim)
        a = walker.evaluate(g, episode_seed_sequence(7, 500))
        b = walker.evaluate(g, episode_seed_sequence(7, 501))
        assert a.fitness != b.fitness

    def test_batch_matches_single(self, walker):
        rng = np.random.default_rng(5)
        genomes = rng.uniform(-1, 1, (6, walker.definition.genome_dim))
        seeds = [episode_seed_sequence(9, i) for i in range(6)]
        batch = walker.evaluate_many(genomes, seeds)
        for i in range(6):
            single = walker.evaluate(genomes[i], episode_seed_sequence(9, i))
            assert single.fitness == batch[i].fitness
            np.testing.assert_array_equal(single.observations,
                                          batch[i].observations)

    def test_observations_finite_and_genome_checked(self, walker):
        rng = np.random.default_rng(6)
        g = rng.uniform(-1, 1, walker.definition.genome_dim)
        ev = walker.evaluate(g, episode_seed_sequence(0, 1))
        assert np.all(np.isfinite(ev.observations))
        with pytest.raises(StructuralError):
            walker.evaluate(np.zeros(3), episode_seed_sequence(0, 0))

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
        ev = task.evaluate(np.zeros(2), None)
        assert ev.fitness == pytest.approx(0.0, abs=1e-12)

    def test_observation_structure(self):
        task = RastriginToyTask()
        ev = task.evaluate(np.array([1.5, -0.5]), None)
        obs = ev.observations
        assert obs.shape == (4, 10)
        np.testing.assert_allclose(obs[2], obs[0] + obs[1])
        np.testing.assert_allclose(obs[3], obs[0] - obs[1])
        assert np.all(obs == obs[:, [0]])  # constant over time

    def test_symmetric_genomes_mirror(self):
        task = RastriginToyTask()
        a = task.evaluate(np.array([0.7, -1.2]), None)
        b = task.evaluate(np.array([-1.2, 0.7]), None)
        assert a.fitness == pytest.approx(b.fitness, abs=1e-12)
        np.testing.assert_allclose(a.observations[0], b.observations[1])
        np.testing.assert_allclose(a.observations[3], -b.observations[3])

    def test_known_rastrigin_value(self):
        task = RastriginToyTask()
        # f(1, 0) = 1 for the standard parameters
        ev = task.evaluate(np.array([1.0, 0.0]), None)
        assert ev.fitness == pytest.approx(-1.0, abs=1e-9)


# sha256 of evaluate_many's fitness and observation bytes for six fixed
# genomes and seeds, recorded before the walker's hot loop was vectorised;
# any change to the dynamics, the terrain lookup or the observation
# averaging shows up here.
WALKER_GOLDEN_SHA256 = "36727a9244311681af928a99c953d08e5d8409506757f09428050cc7fb5f6129"


def test_walker_golden_bytes(walker):
    rng = np.random.default_rng(2021)
    genomes = rng.uniform(-1, 1, (6, walker.definition.genome_dim))
    genomes[0] = 0.0  # the zero controller only settles onto its springs
    seeds = [episode_seed_sequence(31, 7 * i) for i in range(6)]
    batch = walker.evaluate_many(genomes, seeds)
    digest = hashlib.sha256(np.array([ev.fitness for ev in batch]).tobytes())
    for ev in batch:
        digest.update(np.ascontiguousarray(ev.observations, dtype=float).tobytes())
    assert digest.hexdigest() == WALKER_GOLDEN_SHA256
