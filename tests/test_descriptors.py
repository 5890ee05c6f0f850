"""Descriptor extraction: hardcoded reductions and learned latents."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcqd.autoencoder import ObservationScaler
from mcqd.core import ConfigurationError
from mcqd.descriptors import (
    ChannelReduction,
    HardcodedExtractor,
    LearnedExtractor,
)
from mcqd.postprocess import QuantileTransform
from mcqd.tasks import make_task

from conftest import build_toy_ensemble


def extract_one(extractor, observations):
    """The FD of one (channels, timepoints) observation matrix."""
    return extractor.extract_many(np.asarray(observations)[np.newaxis])[0]


class TestHardcoded:
    def setup_method(self):
        self.channels = ("disp", "angle")

    def test_final_value_at_declared_max_is_one(self):
        spec = (ChannelReduction("disp", "final", (0.0, 10.0)),)
        ex = HardcodedExtractor(spec, self.channels)
        obs = np.array([[0.0, 5.0, 10.0], [0.1, 0.1, 0.1]])
        assert extract_one(ex, obs)[0] == 1.0

    def test_all_reduction_kinds(self):
        spec = (
            ChannelReduction("disp", "mean", (0.0, 4.0)),
            ChannelReduction("disp", "final", (0.0, 4.0)),
            ChannelReduction("angle", "mean_abs", (0.0, 2.0)),
        )
        ex = HardcodedExtractor(spec, self.channels)
        obs = np.array([[1.0, 2.0, 3.0], [-1.0, 1.0, 1.0]])
        fd = extract_one(ex, obs)
        np.testing.assert_allclose(fd, [2.0 / 4, 3.0 / 4, 1.0 / 2])

    def test_clamped_to_unit_interval(self):
        spec = (ChannelReduction("disp", "final", (0.0, 1.0)),)
        ex = HardcodedExtractor(spec, self.channels)
        assert extract_one(ex, np.array([[5.0], [0.0]]))[0] == 1.0
        assert extract_one(ex, np.array([[-5.0], [0.0]]))[0] == 0.0

    def test_unknown_channel_is_configuration_error(self):
        spec = (ChannelReduction("nope", "mean", (0.0, 1.0)),)
        with pytest.raises(ConfigurationError):
            HardcodedExtractor(spec, self.channels)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelReduction("disp", "median", (0.0, 1.0))


def _reference_extract(spec, channels, obs):
    """The original one-observation reduction loop, kept as the oracle."""
    fd = np.empty(len(spec))
    for k, red in enumerate(spec):
        series = obs[channels.index(red.channel)]
        if red.kind == "mean":
            value = series.mean()
        elif red.kind == "final":
            value = series[-1]
        else:
            value = np.abs(series).mean()
        lo, hi = red.bounds
        fd[k] = np.clip((value - lo) / (hi - lo), 0.0, 1.0)
    return fd


@st.composite
def _observation_batches(draw):
    n = draw(st.integers(1, 12))
    t = draw(st.sampled_from((1, 10, 13)))
    # exact bound values sit on the normalization edges
    values = st.one_of(st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
                       st.sampled_from((0.5, -1.0, 2.0, 0.0, -0.0)))
    return draw(arrays(float, (n, 2, t), elements=values))


class TestHardcodedBatch:
    SPEC = (
        ChannelReduction("disp", "mean", (-1.0, 2.0)),
        ChannelReduction("disp", "final", (-1.0, 2.0)),
        ChannelReduction("angle", "mean_abs", (0.0, 3.0)),
        ChannelReduction("angle", "mean", (-0.5, 0.5)),
    )
    CHANNELS = ("disp", "angle")

    @settings(max_examples=200, deadline=None)
    @given(_observation_batches())
    def test_batch_is_bit_identical_to_per_row(self, obs):
        ex = HardcodedExtractor(self.SPEC, self.CHANNELS)
        batch = ex.extract_many(obs)
        assert batch.shape == (len(obs), len(self.SPEC))
        per_row = np.stack([extract_one(ex, o) for o in obs])
        reference = np.stack([_reference_extract(self.SPEC, self.CHANNELS, o)
                              for o in obs])
        # int64 views compare bits, so a flipped zero sign fails too
        np.testing.assert_array_equal(batch.view(np.int64), per_row.view(np.int64))
        np.testing.assert_array_equal(batch.view(np.int64), reference.view(np.int64))
        assert np.all((batch >= 0.0) & (batch <= 1.0))


class TestLearned:
    def make_extractor(self, with_qt=False, seed=0):
        ens = build_toy_ensemble(n_modules=2, input_dim=6, seed=seed)
        scaler = ObservationScaler(lo=np.zeros(2), hi=np.ones(2))
        qt = None
        if with_qt:
            rng = np.random.default_rng(seed)
            qt = QuantileTransform.fit(rng.random((100, 2)), 50)
        return LearnedExtractor(ens, 0, scaler, qt), ens

    def test_zero_weight_encoder_gives_center(self):
        ex, ens = self.make_extractor()
        for w, b in ens.nets[0][0]:  # module 0's encoder layers
            w[...] = 0.0
            b[...] = 0.0
        fd = extract_one(ex, np.random.default_rng(0).random((2, 3)))
        np.testing.assert_allclose(fd, [0.5, 0.5])

    def test_raw_latent_in_open_interval(self):
        ex, _ = self.make_extractor(seed=1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            fd = extract_one(ex, rng.random((2, 3)))
            assert np.all(fd > 0.0) and np.all(fd < 1.0)

    def test_deterministic(self):
        ex, _ = self.make_extractor(seed=2)
        obs = np.random.default_rng(2).random((2, 3))
        np.testing.assert_array_equal(extract_one(ex, obs), extract_one(ex, obs))

    def test_qt_applied_when_configured(self):
        ex, ens = self.make_extractor(with_qt=True, seed=3)
        obs = np.random.default_rng(3).random((2, 3))
        raw = extract_one(LearnedExtractor(ens, 0, ex.scaler, None), obs)
        cooked = extract_one(ex, obs)
        np.testing.assert_array_equal(cooked,
                                      ex.quantile_transform.apply(raw[np.newaxis])[0])

    def test_extract_many_matches_loop(self):
        # batched BLAS paths may differ from one-by-one calls in the last
        # ulp; each call site is internally consistent, which is what the
        # determinism contract needs
        ex, _ = self.make_extractor(seed=4)
        rng = np.random.default_rng(4)
        many = [rng.random((2, 3)) for _ in range(7)]
        batch = ex.extract_many(many)
        for i, obs in enumerate(many):
            np.testing.assert_allclose(batch[i], extract_one(ex, obs),
                                       rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(batch, ex.extract_many(many))


class TestDefaultPairs:
    def test_walker_pairs(self):
        # the (channel, kind, bounds) triples the walker's hardcoded grids
        # have always used, written out from the task's constants
        w = make_task("surrogate_walker").definition
        fall, joint = 1.3, 1.2
        assert [[(r.channel, r.kind, r.bounds) for r in spec]
                for spec in w.hardcoded_fds] == [
            [("displacement", "final", (-5.0, 25.0)),
             ("body_angle", "mean", (-fall, fall))],
            [("torque_total", "mean_abs", (0.0, 4.0)), ("airborne", "mean", (0.0, 1.0))],
            [("hip1", "mean", (-joint, joint)), ("knee1", "mean", (-joint, joint))],
            [("hip2", "mean", (-joint, joint)), ("knee2", "mean", (-joint, joint))],
        ]
        for spec in w.hardcoded_fds:
            HardcodedExtractor(spec, w.channel_names)  # every channel exists

    def test_task_without_channels_rejected(self):
        toy = make_task("rastrigin_toy").definition
        assert toy.hardcoded_fds == ()
        walker_pair = make_task("surrogate_walker").definition.hardcoded_fds[0]
        with pytest.raises(ConfigurationError):
            HardcodedExtractor(walker_pair, toy.channel_names)
