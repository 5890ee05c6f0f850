"""Quantile transform: uniformization, monotonicity, degenerate cases."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcqd.core import StructuralError
from mcqd.postprocess import QuantileTransform


def ks_distance_to_uniform(values):
    values = np.sort(values)
    n = len(values)
    grid = np.arange(1, n + 1) / n
    return max(np.max(np.abs(grid - values)), np.max(np.abs(grid - 1 / n - values)))


class TestFit:
    def test_two_point_landmarks(self):
        qt = QuantileTransform.fit(np.array([[0.0], [1.0]]), n_quantiles=2)
        np.testing.assert_array_equal(qt.landmarks[:, 0], [0.0, 1.0])

    def test_quantile_count_lowered_to_sample_count(self):
        qt = QuantileTransform.fit(np.random.default_rng(0).random((5, 1)), 1000)
        assert qt.landmarks.shape == (5, 1)

    def test_single_sample_rejected(self):
        with pytest.raises(StructuralError):
            QuantileTransform.fit(np.array([[1.0]]), 10)

    def test_constant_samples_map_to_half(self):
        qt = QuantileTransform.fit(np.full((20, 2), 3.3), 10)
        out = qt.apply(np.array([[3.3, -5.0]]))
        np.testing.assert_array_equal(out, [[0.5, 0.5]])


class TestApply:
    def test_median_maps_to_half(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(10_001, 1))
        qt = QuantileTransform.fit(samples, 101)  # odd -> median is a landmark
        med = np.quantile(samples[:, 0], 0.5)
        assert qt.apply(np.array([[med]]))[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_clamping_outside_landmarks(self):
        qt = QuantileTransform.fit(np.random.default_rng(2).random((100, 1)), 50)
        out = qt.apply(np.array([[-10.0], [10.0]]))
        np.testing.assert_array_equal(out, [[0.0], [1.0]])

    def test_uniformization_of_training_set(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(10_000, 2))
        qt = QuantileTransform.fit(samples, 1000)
        transformed = qt.apply(samples)
        for d in range(2):
            assert ks_distance_to_uniform(transformed[:, d]) <= 0.02

    def test_agreement_with_empirical_cdf(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(size=(2_000, 1))
        n_q = 500
        qt = QuantileTransform.fit(samples, n_q)
        probes = rng.normal(size=200)
        ecdf = np.array([np.mean(samples[:, 0] <= p) for p in probes])
        got = qt.apply(probes[:, np.newaxis])[:, 0]
        assert np.max(np.abs(got - ecdf)) <= 1.0 / n_q + 1e-9

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(5)
        qt = QuantileTransform.fit(rng.normal(size=(500, 3)), 100)
        z = rng.normal(size=(10, 3))
        batch = qt.apply(z)
        for i in range(10):
            np.testing.assert_array_equal(batch[i:i + 1], qt.apply(z[i:i + 1]))

    def test_dimension_mismatch(self):
        qt = QuantileTransform.fit(np.random.default_rng(6).random((50, 2)), 10)
        for shape in [(1, 3), (2,), (1, 1, 2)]:  # one latent is a one-row batch
            with pytest.raises(StructuralError):
                qt.apply(np.zeros(shape))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_monotone(self, a, b):
        rng = np.random.default_rng(7)
        qt = QuantileTransform.fit(rng.normal(size=(300, 1)), 100)
        lo, hi = sorted((a, b))
        out = qt.apply(np.array([[lo], [hi]]))
        assert out[0, 0] <= out[1, 0]

    def test_range_closed_unit_interval(self):
        rng = np.random.default_rng(8)
        qt = QuantileTransform.fit(rng.normal(size=(1_000, 2)), 200)
        probes = rng.normal(scale=3.0, size=(100_000, 2))
        out = qt.apply(probes)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestGridCoverageEffect:
    def test_transform_beats_raw_sigmoid_on_bin_occupancy(self):
        # normal latents squashed by a sigmoid hug the grid center; the
        # transform spreads them out and strictly wins on occupied bins
        rng = np.random.default_rng(9)
        latents = rng.normal(size=(5_000, 2))
        squashed = 1.0 / (1.0 + np.exp(-latents))
        qt = QuantileTransform.fit(latents, 1000)
        transformed = qt.apply(latents)

        def occupied(points):
            bins = np.clip((points * 25).astype(int), 0, 24)
            return len({tuple(b) for b in bins})

        assert occupied(transformed) > occupied(squashed)


# Landmarks that two neighbours may tie or split by a subnormal gap: a
# sigmoid driven to its tail gives latents like 3.7e-318.
_TINY = st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 2.5e-322, 3.7e-318,
                         2.2250738585072014e-308, 1e-300])
_LANDMARKS = st.lists(st.one_of(_TINY, st.floats(0.0, 1.0)), min_size=2, max_size=12).map(
    sorted).filter(lambda lm: lm[0] < lm[-1])


class TestSubnormalLandmarks:
    def test_roadmap_case_is_finite(self):
        """np.interp's slope overflows over a subnormal gap and returned inf."""
        qt = QuantileTransform(np.array([[0.0], [1.5e-323], [0.5], [1.0]]),
                               np.linspace(0.0, 1.0, 4))
        out = qt.apply(np.array([[5e-324]]))
        assert np.isfinite(out).all()
        assert 0.0 < out[0, 0] < 1.0 / 3.0

    @settings(max_examples=400, deadline=None)
    @given(_LANDMARKS, st.lists(st.one_of(_TINY, st.floats(-0.5, 1.5)), min_size=1,
                                max_size=30))
    def test_finite_in_unit_interval_and_monotone(self, landmarks, probes):
        lm = np.array(landmarks)
        qt = QuantileTransform(lm[:, np.newaxis], np.linspace(0.0, 1.0, len(lm)))
        x = np.sort(np.concatenate([probes, lm, (lm[:-1] + lm[1:]) / 2]))
        out = qt.apply(x[:, np.newaxis])[:, 0]
        assert np.isfinite(out).all()
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert (np.diff(out) >= 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(_LANDMARKS, st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30))
    def test_finite_outputs_are_np_interp(self, landmarks, probes):
        lm = np.array(landmarks)
        levels = np.linspace(0.0, 1.0, len(lm))
        x = np.array(probes)
        want = np.interp(x, lm, levels, left=0.0, right=1.0)
        got = QuantileTransform(lm[:, np.newaxis], levels).apply(x[:, np.newaxis])[:, 0]
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[finite].view(np.int64),
                                      want[finite].view(np.int64))
