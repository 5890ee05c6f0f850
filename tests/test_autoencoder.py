"""Loss oracles, analytic-gradient checks, and training behaviour."""
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcqd.autoencoder import (
    Adam,
    ModularAutoEncoderEnsemble,
    ObservationScaler,
    _gather,
    _gradient,
    backward,
    d_corr,
    load_checkpoint,
    net_backward,
    net_forward,
    save_checkpoint,
    train_ensemble,
    _sigmoid,
)
from mcqd.config import TrainingSection
from mcqd.core import InvalidValueError, StructuralError
from mcqd.postprocess import QuantileTransform

from conftest import build_toy_ensemble, poison_theta_after_epoch
from reference_losses import (
    combined_loss,
    forward_all,
    loss_cmd,
    loss_cov,
    loss_outputs,
    loss_recons,
    parameters,
)


# ---------------------------------------------------------------------------
# Brute-force scalar-loop oracles (kept deliberately dumb)
# ---------------------------------------------------------------------------

def brute_recons(x, ys):
    b, m = x.shape[0], len(ys)
    total = 0.0
    for y in ys:
        acc = 0.0
        for i in range(b):
            for k in range(x.shape[1]):
                acc += (y[i, k] - x[i, k]) ** 2
        total += acc / b
    return total / m


def brute_outputs(ys):
    b, m = ys[0].shape[0], len(ys)
    total = 0.0
    for i in range(b):
        mean = sum(y[i] for y in ys) / m
        for y in ys:
            for k in range(len(mean)):
                total += (y[i, k] - mean[k]) ** 2
    return total / (b * m)


def brute_cov_matrix(z):
    b, d = z.shape
    mu = [sum(z[i, k] for i in range(b)) / b for k in range(d)]
    c = np.zeros((d, d))
    for a in range(d):
        for bb in range(d):
            c[a, bb] = sum((z[i, a] - mu[a]) * (z[i, bb] - mu[bb])
                           for i in range(b)) / (b - 1)
    return c


def brute_cov(zs):
    z = np.hstack(zs)
    c = brute_cov_matrix(z)
    total = 0.0
    for a in range(c.shape[0]):
        for bb in range(c.shape[0]):
            if a != bb:
                total += abs(c[a, bb])
    return total


def brute_d_corr(h1, h2):
    n = h1.shape[0]
    tr = sum(sum(h1[i, k] * h2[k, i] for k in range(n)) for i in range(n))
    f1 = np.sqrt(sum(h1[i, k] ** 2 for i in range(n) for k in range(n)))
    f2 = np.sqrt(sum(h2[i, k] ** 2 for i in range(n) for k in range(n)))
    return 1.0 - tr / (f1 * f2)


def brute_corr(z):
    c = brute_cov_matrix(z)
    d = c.shape[0]
    s = [max(np.sqrt(c[i, i]), 1e-8) for i in range(d)]
    r = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            r[i, j] = c[i, j] / (s[i] * s[j])
    return r


def brute_cmd(zs):
    rs = [brute_corr(z) for z in zs]
    total = 0.0
    for i in range(len(rs)):
        for j in range(len(rs)):
            if i != j:
                total += brute_d_corr(rs[i], rs[j])
    return total


# ---------------------------------------------------------------------------
# Loss values
# ---------------------------------------------------------------------------

class TestLossOracles:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_losses_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        ens = build_toy_ensemble(n_modules=m, seed=seed)
        x = rng.random((4 + seed % 5, 6))
        zs, ys, _, _ = forward_all(ens, x)
        assert loss_recons(ens, x) == pytest.approx(brute_recons(x, ys), abs=1e-10)
        assert loss_outputs(ens, x) == pytest.approx(brute_outputs(ys), abs=1e-10)
        assert loss_cov(ens, x) == pytest.approx(brute_cov(zs), abs=1e-10)
        assert loss_cmd(ens, x) == pytest.approx(brute_cmd(zs), abs=1e-10)

    def test_recons_simple_case(self):
        # B=1, M=1, x=(1,0), y=(0,0) -> squared L2 norm 1
        ens = build_toy_ensemble(n_modules=1, input_dim=2, hidden=(2,), seed=0)
        for w, b in ens.nets[0][1]:  # the decoder's layers
            w[...] = 0.0
            b[...] = -60.0  # sigmoid(-60) == 0 in float64
        x = np.array([[1.0, 0.0]])
        assert loss_recons(ens, x) == pytest.approx(1.0, abs=1e-12)

    def test_outputs_hand_example(self):
        # y1=(1,0), y2=(0,0) at B=1 -> 0.25
        ens = build_toy_ensemble(n_modules=2, input_dim=2, hidden=(2,), seed=0)
        big = 60.0
        for w, b in ens.nets[0][1] + ens.nets[1][1]:  # both decoders
            w[...] = 0.0
            b[...] = -big
        ens.nets[0][1][-1][1][...] = np.array([big, -big])
        x = np.array([[0.3, 0.7]])
        assert loss_outputs(ens, x) == pytest.approx(0.25, abs=1e-12)

    def test_outputs_zero_for_single_module_and_clones(self):
        rng = np.random.default_rng(3)
        x = rng.random((5, 6))
        single = build_toy_ensemble(n_modules=1, seed=1)
        assert loss_outputs(single, x) == 0.0
        clone = build_toy_ensemble(n_modules=2, seed=2)
        per_module = clone.theta.reshape(2, -1)  # theta is module-major
        per_module[1] = per_module[0]
        assert loss_outputs(clone, x) == pytest.approx(0.0, abs=1e-30)
        assert loss_cmd(clone, x) == pytest.approx(0.0, abs=1e-12)

    def test_cov_duplicated_columns(self):
        # two identical latent columns of variance v -> loss 2v
        rng = np.random.default_rng(4)
        col = rng.random(20)
        z = np.column_stack([col, col])
        from mcqd.autoencoder import _cov_term
        v = np.var(col, ddof=1)
        assert _cov_term([z], False)[0] == pytest.approx(2 * v, rel=1e-12)

    def test_cov_independent_columns_near_zero(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(10_000, 2))
        from mcqd.autoencoder import _cov_term
        assert _cov_term([z], False)[0] < 0.05

    def test_cov_single_column_is_zero(self):
        from mcqd.autoencoder import _cov_term
        assert _cov_term([np.random.default_rng(0).random((10, 1))], False)[0] == 0.0

    def test_cov_requires_batch_of_two(self):
        ens = build_toy_ensemble(n_modules=1, seed=0)
        with pytest.raises(StructuralError):
            loss_cov(ens, np.random.default_rng(0).random((1, 6)))

    def test_losses_permutation_invariant_in_modules(self):
        rng = np.random.default_rng(6)
        x = rng.random((7, 6))
        ens = build_toy_ensemble(n_modules=3, seed=7)
        values = (loss_outputs(ens, x), loss_cov(ens, x), loss_cmd(ens, x))
        per_module = ens.theta.reshape(3, -1)  # theta is module-major
        per_module[...] = per_module[[2, 0, 1]]
        permuted = (loss_outputs(ens, x), loss_cov(ens, x), loss_cmd(ens, x))
        np.testing.assert_allclose(values, permuted, rtol=1e-12)

    def test_recons_invariant_under_batch_reordering(self):
        rng = np.random.default_rng(8)
        x = rng.random((9, 6))
        ens = build_toy_ensemble(n_modules=2, seed=9)
        a = loss_recons(ens, x)
        b = loss_recons(ens, x[::-1])
        assert a == pytest.approx(b, rel=1e-12)


class TestDCorr:
    def test_hand_value(self):
        value = d_corr(np.eye(2), np.ones((2, 2)))
        assert value == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-12)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        a = rng.random((3, 3))
        h = (a + a.T) / 2
        assert d_corr(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b = rng.random((3, 3)), rng.random((3, 3))
            h1, h2 = (a + a.T) / 2, (b + b.T) / 2
            assert d_corr(h1, h2) == d_corr(h2, h1)
            assert 0.0 <= d_corr(h1, h2) <= 1.0

    def test_zero_norm_errors(self):
        with pytest.raises(InvalidValueError):
            d_corr(np.zeros((2, 2)), np.eye(2))

    def test_cmd_hand_example(self):
        # module latents engineered to give R1 = I, R2 = all-ones
        z1 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        z2 = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        from mcqd.autoencoder import _cmd_term
        expected = 2 * (1.0 - 1.0 / np.sqrt(2.0))
        assert _cmd_term([z1, z2], False)[0] == pytest.approx(expected, abs=1e-12)


class TestCombinedLoss:
    def test_zero_weight_is_bitwise_recons(self):
        rng = np.random.default_rng(2)
        x = rng.random((6, 6))
        for kind in ("none", "outputs", "cov", "cmd"):
            ens = build_toy_ensemble(n_modules=2, diversity_kind=kind,
                                     diversity_weight=0.0, seed=11)
            assert combined_loss(ens, x) == loss_recons(ens, x)

    def test_outputs_sign_contract(self):
        # with the canonical sign, more output diversity lowers the loss
        rng = np.random.default_rng(3)
        x = rng.random((6, 6))
        ens = build_toy_ensemble(n_modules=2, diversity_kind="outputs",
                                 diversity_weight=1.0, diversity_sign=-1, seed=12)
        assert combined_loss(ens, x) == pytest.approx(
            loss_recons(ens, x) - loss_outputs(ens, x), rel=1e-12)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def finite_difference_grads(ensemble, x, h=1e-5):
    """Central differences of combined_loss, laid out like ``theta``."""
    theta = ensemble.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = combined_loss(ensemble, x)
        theta[i] = orig - h
        down = combined_loss(ensemble, x)
        theta[i] = orig
        grad[i] = (up - down) / (2 * h)
    return grad


def assert_gradients_match(ensemble, x, tol=1e-4):
    loss, analytic = backward(ensemble, x)
    assert np.isfinite(loss)
    numeric = finite_difference_grads(ensemble, x)
    assert analytic.shape == numeric.shape
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    assert rel.max() < tol, f"max rel err {rel.max():.2e}"


GRAD_CASES = [(kind, sign) for kind in ("none", "outputs", "cov", "cmd")
              for sign in (-1, 1)]


class TestGradients:
    @pytest.mark.parametrize("kind,sign", GRAD_CASES)
    def test_analytic_matches_finite_differences(self, kind, sign):
        for seed in range(3):
            m = 1 + (seed + 1) % 3
            ens = build_toy_ensemble(n_modules=m, diversity_kind=kind,
                                     diversity_sign=sign, seed=100 + seed)
            x = np.random.default_rng(200 + seed).random((5, 6))
            assert_gradients_match(ens, x)

    def test_zero_weight_reduces_to_recons_gradients(self):
        x = np.random.default_rng(4).random((5, 6))
        ens_zero = build_toy_ensemble(n_modules=2, diversity_kind="cov",
                                      diversity_weight=0.0, seed=13)
        ens_none = build_toy_ensemble(n_modules=2, diversity_kind="none", seed=13)
        _, g_zero = backward(ens_zero, x)
        _, g_none = backward(ens_none, x)
        np.testing.assert_array_equal(g_zero, g_none)

    def test_cloned_modules_are_stationary_for_outputs(self):
        # at the symmetric point the outputs term contributes no gradient
        ens = build_toy_ensemble(n_modules=2, diversity_kind="outputs", seed=14)
        per_module = ens.theta.reshape(2, -1)  # theta is module-major
        per_module[1] = per_module[0]
        x = np.random.default_rng(5).random((5, 6))
        _, g_div = backward(ens, x)
        ens.diversity_kind = "none"
        _, g_rec = backward(ens, x)
        np.testing.assert_allclose(g_div, g_rec, atol=1e-12)

    @pytest.mark.parametrize("kind", ["none", "outputs", "cov", "cmd"])
    def test_backward_loss_is_bitwise_combined_loss(self, kind):
        # backward streams the output layer through scratch buffers;
        # combined_loss runs forward_all and the plain loss functions
        ens = build_toy_ensemble(n_modules=3, diversity_kind=kind, seed=16)
        x = np.random.default_rng(7).random((9, 6))
        loss, _ = backward(ens, x)
        assert loss == combined_loss(ens, x)

    def test_reused_buffers_give_the_same_gradients(self):
        from mcqd.autoencoder import _output_buffers
        ens = build_toy_ensemble(n_modules=2, diversity_kind="outputs", seed=17)
        rng = np.random.default_rng(8)
        big, small = rng.random((12, 6)), rng.random((5, 6))
        buffers = _output_buffers(ens, 12)
        backward(ens, big, buffers=buffers)  # leaves stale rows behind
        loss, grads = backward(ens, small, buffers=buffers)
        fresh_loss, fresh_grads = backward(ens, small)
        # two gradient vectors computed independently, not one array twice
        assert not np.shares_memory(grads, fresh_grads)
        assert loss == fresh_loss
        np.testing.assert_array_equal(grads, fresh_grads)

    @pytest.mark.parametrize("kind", ["none", "outputs", "cov", "cmd"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_caller_gradient_vector_gives_fresh_bits(self, kind, train):
        """backward overwrites every element of a caller's gradient vector,
        here pre-filled with NaN, with the bits a fresh call returns."""
        ens = build_toy_ensemble(n_modules=3, diversity_kind=kind, dropout=0.3,
                                 seed=19)
        x = np.random.default_rng(9).random((10, 6))
        grad = _gradient(ens)
        grad[0].fill(np.nan)
        loss, got = backward(ens, x, train, np.random.default_rng(10), grad=grad)
        fresh_loss, fresh = backward(ens, x, train, np.random.default_rng(10))
        assert got is grad[0] and not np.shares_memory(got, fresh)
        assert np.float64(loss).tobytes() == np.float64(fresh_loss).tobytes()
        assert got.tobytes() == fresh.tobytes()

    def test_dropout_gradients_consistent_with_masked_forward(self):
        # two calls with the same rng state must agree loss-wise
        ens = build_toy_ensemble(n_modules=2, dropout=0.3, seed=15)
        x = np.random.default_rng(6).random((8, 6))
        loss1, _ = backward(ens, x, train=True, rng=np.random.default_rng(99))
        loss2, _ = backward(ens, x, train=True, rng=np.random.default_rng(99))
        assert loss1 == loss2


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

class TestSigmoid:
    @staticmethod
    def masked_sigmoid(a):
        """The former two-branch formula, kept as the oracle."""
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        ea = np.exp(a[~pos])
        out[~pos] = ea / (1.0 + ea)
        return out

    def test_bit_identical_to_masked_formula(self):
        edge = np.array([800.0, -800.0, 1e-320, -1e-320, 0.0, -0.0, np.nan,
                         -np.nan, np.inf, -np.inf, 745.2, -745.2, 1e308, -1e308])
        wide = np.random.default_rng(11).normal(0.0, 30.0, 10_000)
        for a in (edge, wide, wide.reshape(100, 100)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _sigmoid(a)
            assert got.shape == a.shape
            np.testing.assert_array_equal(got.view(np.int64),
                                          self.masked_sigmoid(a).view(np.int64))


class TestEluSlope:
    """The ELU factor of ``net_backward``, exp(min(a, 0)), against the
    former ``np.where(a > 0, 1.0, np.exp(a))``, as int64 bit patterns."""

    EDGE = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                     5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310,
                     *(sign * 10.0 ** p for sign in (1, -1)
                       for p in range(-300, 301, 20))])

    @staticmethod
    def backward_slope(a):
        """The factor by which ``net_backward`` multiplies a hidden layer's
        gradient: its bias gradient at an output gradient of ones, for a
        one-row batch through the first of two layers."""
        n = a.size
        net = [(np.zeros((n, 1)), np.zeros(n)), (np.zeros((1, n)), np.zeros(1))]
        grads = [(np.empty((n, 1)), np.empty(n)), (np.empty((1, n)), np.empty(1))]
        cache = [(np.ones((1, 1)), a.reshape(1, n), None, None)]
        net_backward(net, grads, cache, np.ones((1, n)), input_grad=False)
        return grads[0][1]

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example(EDGE)
    def test_bit_identical_to_where_form(self, a):
        with np.errstate(over="ignore"):
            want = np.where(a > 0, 1.0, np.exp(a))
        np.testing.assert_array_equal(self.backward_slope(a).view(np.int64),
                                      want.view(np.int64))


class TestDenseNet:
    """One encoder or decoder: (W, b) views run by net_forward/net_backward."""

    def test_xavier_limits_and_zero_bias(self, rng):
        ens = ModularAutoEncoderEnsemble.build(4, 2, 1, hidden=(), rng=rng)
        for w, b in ens.nets[0][0] + ens.nets[0][1]:  # 4 -> 2 and 2 -> 4
            assert np.all(np.abs(w) <= 1.0)  # sqrt(6/6)
            assert np.all(b == 0.0)

    def test_xavier_mean_near_zero(self):
        rng = np.random.default_rng(0)
        ens = ModularAutoEncoderEnsemble.build(250, 400, 1, hidden=(), rng=rng)
        w = ens.nets[0][0][0][0].ravel()  # the encoder's (400, 250) weights
        limit = np.sqrt(6.0 / 650)
        sigma = limit / np.sqrt(3.0) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma

    def test_zero_network_gives_half_latent(self):
        ens = build_toy_ensemble(n_modules=1)
        for w, b in ens.nets[0][0]:  # the encoder's layers
            w[...] = 0.0
            b[...] = 0.0
        z = ens.encode(np.ones((1, 6)), 0)
        np.testing.assert_allclose(z, 0.5)
        with pytest.raises(StructuralError):  # one input is a one-row batch
            ens.encode(np.ones(6), 0)

    def test_latent_strictly_inside_unit_interval(self, rng):
        ens = build_toy_ensemble(n_modules=2, seed=20)
        x = rng.random((20, 6))
        zs, _, _, _ = forward_all(ens, x)
        for z in zs:
            assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_stop_and_input_grad(self, rng):
        ens = ModularAutoEncoderEnsemble.build(4, 2, 1, hidden=(3,), rng=rng)
        net = ens.nets[0][0]  # 4 -> 3 (ELU) -> 2 (sigmoid)
        x = rng.random((5, 4))
        out, cache = net_forward(net, x)
        head, head_cache = net_forward(net, x, stop=-1)
        assert len(head_cache) == 1
        np.testing.assert_array_equal(head, cache[1][0])
        g = rng.random(out.shape)
        full = ens.views(np.full_like(ens.theta, np.nan))[0][0]
        part = ens.views(np.full_like(ens.theta, np.nan))[0][0]
        dx = net_backward(net, full, cache, g)
        none = net_backward(net, part, cache, g, input_grad=False)
        assert dx.shape == x.shape and none is None
        for (w1, b1), (w2, b2) in zip(full, part):
            assert np.all(np.isfinite(w1)) and np.all(np.isfinite(b1))
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_cache_keeps_the_last_layer_activation_only(self, rng):
        """net_backward reads a layer's activation before dropout only at
        the last layer, so only that one is cached."""
        ens = ModularAutoEncoderEnsemble.build(6, 2, 1, hidden=(4, 3), rng=rng)
        _, cache = net_forward(ens.nets[0][0], rng.random((5, 6)), 0.5, rng)
        assert [h_act is None for _, _, h_act, _ in cache] == [True, True, False]
        assert [mask is None for _, _, _, mask in cache] == [False, False, True]

    def test_forward_deterministic_in_eval_mode(self, rng):
        ens = build_toy_ensemble(n_modules=1, dropout=0.5, seed=21)
        x = rng.random((3, 6))
        z1, y1, *_ = forward_all(ens, x)[:2]
        z2, y2, *_ = forward_all(ens, x)[:2]
        np.testing.assert_array_equal(z1[0], z2[0])
        np.testing.assert_array_equal(y1[0], y2[0])


class TestEnsembleLayout:
    def test_parameters_are_views_into_theta(self):
        ens = build_toy_ensemble(n_modules=3, hidden=(4, 3), seed=22)
        params = parameters(ens)
        assert all(np.shares_memory(p, ens.theta) for p in params)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]),
                                      ens.theta)
        # per module: encoder 6->4->3->2, decoder 2->3->4->6, W then b
        shapes = [(4, 6), (4,), (3, 4), (3,), (2, 3), (2,),
                  (3, 2), (3,), (4, 3), (4,), (6, 4), (6,)]
        assert [p.shape for p in params] == shapes * 3

    def test_clone_copies_theta_once(self):
        ens = build_toy_ensemble(n_modules=2, dropout=0.3, diversity_kind="cov",
                                 seed=23)
        twin = ens.clone()
        assert not np.shares_memory(twin.theta, ens.theta)
        np.testing.assert_array_equal(twin.theta, ens.theta)
        assert (twin.hidden, twin.dropout, twin.diversity_kind) == (
            ens.hidden, ens.dropout, ens.diversity_kind)
        twin.theta += 1.0  # the clone's views follow its own vector only
        np.testing.assert_array_equal(parameters(twin)[0], parameters(ens)[0] + 1.0)

    @pytest.mark.parametrize("dropout", [1.0, -0.5])
    def test_rejects_dropout_outside_unit_interval(self, dropout):
        with pytest.raises(StructuralError):
            build_toy_ensemble(n_modules=1, dropout=dropout)

    def test_rejects_zero_width_hidden_layer(self):
        with pytest.raises(StructuralError):
            build_toy_ensemble(n_modules=1, hidden=(3, 0))


class TestTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        ens = build_toy_ensemble(n_modules=2, seed=30)
        before = [p.copy() for p in parameters(ens)]
        cfg = TrainingSection(epochs=1, learning_rate=0.0, batch_size=4,
                              validation_split=0.25)
        x = np.random.default_rng(1).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(2))
        assert not report.diverged
        for p, q in zip(parameters(ens), before):
            np.testing.assert_array_equal(p, q)

    def test_convergence_on_constant_corpus(self):
        # identical inputs: loss must collapse far below the mid-level
        # constant predictor's loss on a 4-dim toy input
        ens = build_toy_ensemble(n_modules=1, input_dim=4, hidden=(4,), seed=31)
        vec = np.array([0.9, 0.1, 0.8, 0.2])
        x = np.tile(vec, (32, 1))
        baseline = np.sum((vec - 0.5) ** 2)
        cfg = TrainingSection(epochs=200, learning_rate=0.02, batch_size=16,
                              validation_split=0.25)
        report = train_ensemble(ens, x, cfg, np.random.default_rng(3))
        assert not report.diverged
        assert report.val_loss < 1e-3 * baseline

    def test_training_is_deterministic_given_seed(self):
        x = np.random.default_rng(4).random((24, 6))
        cfg = TrainingSection(epochs=3, learning_rate=0.01, batch_size=8,
                              validation_split=0.25)
        runs = []
        for _ in range(2):
            ens = build_toy_ensemble(n_modules=2, dropout=0.2, seed=32)
            train_ensemble(ens, x, cfg, np.random.default_rng(5))
            runs.append([p.copy() for p in parameters(ens)])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_divergence_flagged(self):
        ens = build_toy_ensemble(n_modules=1, seed=33)
        # poison a parameter so the first forward pass already explodes
        ens.nets[0][1][-1][1][...] = np.nan  # the decoder's output bias
        cfg = TrainingSection(epochs=2, learning_rate=0.01, batch_size=8,
                              validation_split=0.25)
        x = np.random.default_rng(6).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(7))
        assert report.diverged
        assert "non-finite" in report.message

    def test_collapsed_cmd_module_is_a_divergence(self):
        """A module whose latents are all constant has a zero correlation
        matrix; the cmd loss is undefined there, and training reports that
        instead of raising."""
        ens = build_toy_ensemble(n_modules=3, diversity_kind="cmd", seed=41)
        ens.nets[1][0][-1][0][...] = 0.0  # module 1's latent layer sees nothing
        cfg = TrainingSection(epochs=2, learning_rate=0.01, batch_size=8,
                              validation_split=0.25)
        x = np.random.default_rng(10).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(11))
        assert report.diverged
        assert "module 1" in report.message and "at epoch 0" in report.message

    @pytest.mark.parametrize("kind", ["cov", "cmd"])
    @pytest.mark.parametrize("rows,split,held_out", [
        (3, 0.25, 0), (4, 0.25, 0), (5, 0.25, 0), (3, 0.9, 0), (4, 0.9, 2), (8, 0.25, 2),
    ])
    def test_covariance_split_leaves_no_one_row_side(self, kind, rows, split, held_out):
        """A covariance needs two rows: under cov or cmd, a split that would
        leave one row on either side holds out fewer rows, or none."""
        ens = build_toy_ensemble(n_modules=2, diversity_kind=kind, seed=42)
        cfg = TrainingSection(epochs=2, learning_rate=0.01, batch_size=8,
                              validation_split=split)
        x = np.random.default_rng(12).random((rows, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(13))
        assert not report.diverged
        assert np.isnan(report.val_loss) == (held_out == 0)

    @pytest.mark.parametrize("kind", ["none", "cmd"])
    def test_working_set_is_the_named_arrays(self, kind):
        """Given the raw corpus and its scaler, a training holds above it the
        arrays README § Performance names, plus every live module's forward
        caches and a stated slack: one minibatch sizes every rows-sized
        array, though more rows are held out than a minibatch has, and
        beside Adam's m and v only a module-sized gradient and scratch."""
        rows, n_val, batch, channels, t, m = 600, 150, 128, 7, 20, 3
        dim = channels * t
        ens = ModularAutoEncoderEnsemble.build(dim, 2, m, hidden=(16, 5),
                                               diversity_kind=kind,
                                               rng=np.random.default_rng(35))
        cfg = TrainingSection(epochs=2, learning_rate=0.01, batch_size=batch,
                              validation_split=n_val / rows)
        corpus = np.random.default_rng(36).normal(size=(rows, channels, t)) * 3.0
        scaler = ObservationScaler.fit(corpus)
        named = (3 * batch * dim  # output buffers
                 + batch * dim  # the gathered rows
                 + 2 * ens.theta.size  # Adam's m and v
                 + 3 * ens.module_size) * 8  # the gradient and Adam's scratch
        # per row and module, training: a, dropout mask and masked output of
        # each hidden unit; a and sigmoid of each latent unit.  Validation
        # keeps no caches, and under cmd every held-out row's latents.
        live = 1 if kind == "none" else m
        caches = batch * (3 * 2 * (16 + 5) + 2 * 2) * 8 * live
        latents = 0 if kind == "none" else n_val * 2 * m * 8
        slack = 192 * 1024  # backward's per-layer temporaries
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            report = train_ensemble(ens, corpus, cfg, np.random.default_rng(37), scaler)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert not report.diverged and np.isfinite(report.val_loss)
        assert peak <= named + caches + latents + slack, (peak, named, caches)

    def test_raw_corpus_and_scaler_train_like_the_scaled_corpus(self):
        """Scaling each gathered minibatch gives the parameters and losses
        of a training on the corpus scaled up front, bit for bit."""
        corpus = np.random.default_rng(44).normal(size=(29, 4, 6)) * 5.0
        corpus[:, 1] = 2.0  # a constant channel
        scaler = ObservationScaler.fit(corpus)
        cfg = TrainingSection(epochs=3, learning_rate=0.01, batch_size=7,
                              validation_split=0.25)
        runs = []
        for args in ((scaler.transform(corpus),), (corpus, scaler)):
            ens = build_toy_ensemble(n_modules=2, input_dim=24, hidden=(6, 3),
                                     diversity_kind="cov", dropout=0.2, seed=45)
            report = train_ensemble(ens, args[0], cfg, np.random.default_rng(46),
                                    *args[1:])
            runs.append((_int64_sha256(parameters(ens)), report.train_losses,
                         report.val_loss))
        assert runs[0] == runs[1]

    def test_scaler_needs_a_three_dimensional_corpus(self):
        x = np.random.default_rng(47).random((16, 6))
        scaler = ObservationScaler.fit(x.reshape(16, 2, 3))
        cfg = TrainingSection(epochs=1, learning_rate=0.01, batch_size=8,
                              validation_split=0.25)
        with pytest.raises(StructuralError):
            train_ensemble(build_toy_ensemble(), x, cfg, np.random.default_rng(48),
                           scaler)

    @pytest.mark.parametrize("kind", ["none", "cov"])
    @pytest.mark.parametrize("k", [0, 2])
    def test_divergence_shows_at_the_next_epoch(self, monkeypatch, kind, k):
        """Parameters that turn non-finite after epoch k are caught as epoch
        k+1's non-finite training loss: no validation runs before the
        last epoch."""
        poison_theta_after_epoch(monkeypatch, k)
        ens = build_toy_ensemble(n_modules=2, diversity_kind=kind, seed=43)
        cfg = TrainingSection(epochs=5, learning_rate=0.01, batch_size=4,
                              validation_split=0.25)
        x = np.random.default_rng(14).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(15))
        assert report.diverged
        assert report.message == f"non-finite training loss at epoch {k + 1}"
        assert report.epochs_run == k + 1
        assert np.isfinite(report.train_losses).all() and np.isnan(report.val_loss)

    def test_non_finite_final_validation_is_a_divergence(self, monkeypatch):
        poison_theta_after_epoch(monkeypatch, 2)  # the last epoch's last step
        ens = build_toy_ensemble(n_modules=2, seed=43)
        cfg = TrainingSection(epochs=3, learning_rate=0.01, batch_size=4,
                              validation_split=0.25)
        x = np.random.default_rng(14).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(15))
        assert report.diverged
        assert report.message == "non-finite validation loss at epoch 2"
        assert report.epochs_run == 3
        assert np.isfinite(report.train_losses).all() and np.isnan(report.val_loss)

    def test_modules_without_a_diversity_term_run_one_at_a_time(self):
        """Without a diversity term a module's activations are freed before
        the next module runs: from 1 to 3 modules the traced peak grows by
        Adam's m and v, the only ensemble-sized vectors a training
        allocates, and at most 64 KiB more."""
        rows, dim = 1400, 140
        x = np.random.default_rng(38).random((rows, dim))
        cfg = TrainingSection(epochs=1, learning_rate=0.01, batch_size=1024,
                              validation_split=0.25)
        peaks, sizes = [], []
        for m in (1, 3):
            ens = ModularAutoEncoderEnsemble.build(dim, 2, m, hidden=(16, 5),
                                                   rng=np.random.default_rng(39))
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                report = train_ensemble(ens, x, cfg, np.random.default_rng(40))
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
            assert not report.diverged
            sizes.append(ens.theta.size)
        vectors = 2 * (sizes[1] - sizes[0]) * 8
        assert peaks[1] - peaks[0] <= vectors + 64 * 1024, (peaks, vectors)

    def test_loss_curves_have_epoch_length(self):
        ens = build_toy_ensemble(n_modules=1, seed=34)
        cfg = TrainingSection(epochs=5, learning_rate=0.01, batch_size=8,
                              validation_split=0.25)
        x = np.random.default_rng(8).random((16, 6))
        report = train_ensemble(ens, x, cfg, np.random.default_rng(9))
        assert report.epochs_run == len(report.train_losses) == 5

    @pytest.mark.parametrize("kind", ["none", "outputs", "cov", "cmd"])
    def test_per_module_steps_equal_whole_vector_steps(self, kind):
        """Stepping each module's slice as soon as its gradient is written
        gives, bit for bit, the parameters and losses of a loop that takes
        the whole gradient from ``backward`` and steps the whole vector."""
        x = np.random.default_rng(53).random((29, 24))
        cfg = TrainingSection(epochs=3, learning_rate=0.01, batch_size=7,
                              validation_split=0.25)

        def ensemble():
            return build_toy_ensemble(n_modules=3, input_dim=24, hidden=(6, 3),
                                      diversity_kind=kind, dropout=0.2, seed=54)

        ens = ensemble()
        report = train_ensemble(ens, x, cfg, np.random.default_rng(55))
        # the reference loop: 7 rows held out, minibatches of 7, 7 and 8 rows
        ref, rng = ensemble(), np.random.default_rng(55)
        perm = rng.permutation(29)
        train_idx, opt, losses = perm[7:], Adam(ref.theta, 0.01), []
        for _ in range(3):
            order, total = rng.permutation(22), 0.0
            for lo, hi in ((0, 7), (7, 14), (14, 22)):
                loss, grad = backward(ref, x[train_idx[order[lo:hi]]], True, rng)
                total += loss * (hi - lo)
                opt.step(grad)
            losses.append(total / 22)
        val = combined_loss(ref, x[perm[:7]])
        assert not report.diverged
        assert (_int64_sha256(parameters(ens)), report.train_losses, report.val_loss) \
            == (_int64_sha256(parameters(ref)), losses, val)

    @pytest.mark.parametrize("kind", ["none", "outputs", "cov", "cmd"])
    def test_held_out_rows_in_chunks_give_the_loss_over_all_of_them(self, kind):
        """30 held-out rows are scored in chunks of the 8-row minibatch; the
        reconstruction and outputs terms add up chunk by chunk, and the cov
        and cmd terms come from all 30 rows' latents."""
        x = np.random.default_rng(56).random((60, 6))
        cfg = TrainingSection(epochs=2, learning_rate=0.01, batch_size=8,
                              validation_split=0.5)
        ens = build_toy_ensemble(n_modules=3, diversity_kind=kind, dropout=0.2,
                                 seed=57)
        report = train_ensemble(ens, x, cfg, np.random.default_rng(58))
        held_out = x[np.random.default_rng(58).permutation(60)[:30]]
        whole = backward(ens, held_out)[0]
        assert not report.diverged
        assert whole == combined_loss(ens, held_out)
        assert report.val_loss == pytest.approx(whole, rel=1e-12, abs=0.0)

    def test_held_out_rows_within_one_minibatch_give_backward_bits(self):
        """Held-out rows that fit one minibatch are one chunk, scored to the
        bits of one ``backward`` over them."""
        x = np.random.default_rng(59).random((40, 6))
        cfg = TrainingSection(epochs=1, learning_rate=0.01, batch_size=30,
                              validation_split=0.25)
        for kind in ("none", "outputs", "cov", "cmd"):
            ens = build_toy_ensemble(n_modules=3, diversity_kind=kind, seed=60)
            report = train_ensemble(ens, x, cfg, np.random.default_rng(61))
            held_out = x[np.random.default_rng(61).permutation(40)[:10]]
            assert report.val_loss == backward(ens, held_out)[0]


def _int64_sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes())
    return digest.hexdigest()


# Parameters (sha256 of their int64 views, in ``parameters()`` order), the
# exact training-loss curve and validation loss after ``TestTrainingGolden``'s
# run, recorded before the training step was restructured.  The validation
# loss is the last value of the per-epoch curve that training once kept.  They
# hold at 1 and 2 BLAS threads.
TRAINING_GOLDEN = {
    "none": (
        "3090e8eb29c6817f20997fc3c9406de0162db54de3ba29dd16f6a6bf0f285b29",
        [2.1447193303233636, 2.083051194282705, 2.040310095272463],
        2.1320316450935155),
    "outputs": (
        "5d333f6c5704f630405ea398970d6e0e3ba1ea89cc96cc2a1843ea641d429717",
        [2.092817051673205, 2.057630366648749, 2.015166245177451],
        2.1407112137828204),
    "cov": (
        "c880ffe9fd6351e132f60676290e16938ceb81cbe9099c2901921f6c90c7974f",
        [2.021261680479683, 1.9574323356389824, 1.7707275348618319],
        1.9885267506362592),
    "cmd": (
        "1589a89471b688b7cebe985c603f91d614fe2282a02d48f629f9cfe747fc8271",
        [-0.41163713458898316, 0.26911275679341684, -0.5035982057139882],
        -1.7419197714966876),
}


class TestTrainingGolden:
    @pytest.mark.parametrize("kind", sorted(TRAINING_GOLDEN))
    def test_parameters_and_losses_are_pinned(self, kind):
        ens = build_toy_ensemble(n_modules=3, input_dim=24, hidden=(6, 3),
                                 diversity_kind=kind, dropout=0.2, seed=50)
        x = np.random.default_rng(51).random((29, 24))
        # 7 validation rows; 22 training rows in batches of 7, so the
        # trailing single row merges into the batch before it
        cfg = TrainingSection(epochs=3, learning_rate=0.01, batch_size=7,
                              validation_split=0.25)
        report = train_ensemble(ens, x, cfg, np.random.default_rng(52))
        assert not report.diverged
        got = (_int64_sha256(parameters(ens)), report.train_losses,
               report.val_loss)
        assert got == TRAINING_GOLDEN[kind]


def reference_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The former per-array Adam loop, kept as the oracle."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class TestAdam:
    def test_block_steps_are_bit_identical_to_whole_vector_steps(self):
        """Module by module, one block per module and minibatch, with t
        advanced by block 0, gives the bits of whole-vector steps."""
        ens = build_toy_ensemble(n_modules=3, input_dim=24, hidden=(6, 3), seed=62)
        rng = np.random.default_rng(63)
        steps = [rng.normal(size=ens.theta.size) * 10.0 ** rng.integers(-6, 3, ens.theta.size)
                 for _ in range(5)]
        whole, blocks = ens.theta.copy(), ens.theta.copy()
        opt_whole, opt_blocks = Adam(whole, 0.01), Adam(blocks, 0.01, ens.module_size)
        for step in steps:
            opt_whole.step(step)
            for k, g in enumerate(np.split(step, 3)):
                opt_blocks.step(g, k)
        assert opt_blocks.t == opt_whole.t == 5
        assert blocks.tobytes() == whole.tobytes()
        assert opt_blocks.m.tobytes() == opt_whole.m.tobytes()
        assert opt_blocks.v.tobytes() == opt_whole.v.tobytes()

    def test_single_step_matches_reference_formula(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        opt = Adam(p, lr=0.1)
        opt.step(g)
        # first step: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p, expected, rtol=1e-9)

    def test_flat_step_is_bit_identical_to_per_array_loop(self):
        ens = build_toy_ensemble(n_modules=3, input_dim=24, hidden=(6, 3), seed=60)
        rng = np.random.default_rng(61)
        size = ens.theta.size
        # gradients spanning nine orders of magnitude, with exact zeros
        steps = [rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size)
                 * (rng.random(size) > 0.05) for _ in range(6)]
        params = [p.copy() for p in parameters(ens)]
        edges = np.cumsum([p.size for p in params])[:-1]
        reference_adam(params, [[g.reshape(p.shape) for g, p in
                                 zip(np.split(step, edges), params)]
                                for step in steps], lr=0.01)
        opt = Adam(ens.theta, lr=0.01)
        for step in steps:
            opt.step(step)
        assert len(parameters(ens)) == 3 * 12
        for got, want in zip(parameters(ens), params):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# sha256 of the bytes save_checkpoint writes for TestCheckpoint.toy(),
# recorded before the parameters moved into one vector.
CHECKPOINT_SHA256 = "36e955fbe32df8c1976bedffe4ba7ea58d5df26734dc9a7f6eebcd790337b2fe"


class TestCheckpoint:
    @staticmethod
    def toy(hidden=(3,)):
        ens = build_toy_ensemble(n_modules=2, diversity_kind="cmd", hidden=hidden,
                                 seed=40)
        scaler = ObservationScaler(lo=np.array([0.0, -1.0]), hi=np.array([2.0, 1.0]))
        qt = QuantileTransform.fit(np.random.default_rng(41).normal(size=(50, 2)), 10)
        return ens, scaler, {1: qt}

    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, *self.toy())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256

    def test_load_then_save_gives_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_checkpoint(first, *self.toy())
        save_checkpoint(second, *load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("edit", ["mixed", "linear_output", "output_dropout"])
    def test_load_rejects_other_topologies(self, tmp_path, edit):
        def arrays(hidden):
            path = tmp_path / f"h{len(hidden)}.npz"
            save_checkpoint(path, *self.toy(hidden))
            with np.load(path) as data:
                return dict(data)

        data = arrays((3,))
        structure = json.loads(str(data["structure"]))
        decoder = structure["modules"][1]["decoder"]
        if edit == "mixed":
            # module 1 gets two hidden layers, with arrays to match
            other = arrays((4, 3))
            structure["modules"][1] = json.loads(str(other["structure"]))["modules"][1]
            data = {k: v for k, v in data.items() if not k.startswith("m1_")}
            data.update({k: v for k, v in other.items() if k.startswith("m1_")})
        elif edit == "linear_output":
            decoder["activations"][-1] = "linear"
        else:
            decoder["dropouts"][-1] = 0.1
        data["structure"] = np.array(json.dumps(structure, sort_keys=True))
        path = tmp_path / "edited.npz"
        np.savez(path, **data)
        with pytest.raises(StructuralError):
            load_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        ens = build_toy_ensemble(n_modules=2, diversity_kind="cmd", seed=40)
        scaler = ObservationScaler(lo=np.array([0.0, -1.0]), hi=np.array([2.0, 1.0]))
        qt = QuantileTransform.fit(rng.normal(size=(50, 2)), 10)
        path = tmp_path / "model.npz"
        save_checkpoint(path, ens, scaler, {1: qt})
        loaded, scaler2, qts2 = load_checkpoint(path)
        assert loaded.diversity_kind == "cmd"
        assert loaded.diversity_sign == ens.diversity_sign
        for a, b in zip(parameters(ens), parameters(loaded)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(scaler.lo, scaler2.lo)
        np.testing.assert_array_equal(qts2[1].landmarks, qt.landmarks)
        x = rng.random((4, 6))
        np.testing.assert_array_equal(combined_loss(ens, x), combined_loss(loaded, x))


@st.composite
def _corpora_and_rows(draw):
    """A corpus with some constant channels, -0.0 among its values, and row
    indices into it that may repeat."""
    n = draw(st.integers(1, 8))
    channels = draw(st.integers(1, 3))
    t = draw(st.sampled_from((1, 4)))
    values = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                       st.sampled_from((0.0, -0.0, 1.5)))
    corpus = draw(arrays(float, (n, channels, t), elements=values))
    for ch in range(channels):
        if draw(st.booleans()):
            corpus[:, ch] = draw(st.sampled_from((0.0, -0.0, 2.5)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return corpus, np.array(rows)


class TestObservationScaler:
    @settings(max_examples=200, deadline=None)
    @given(_corpora_and_rows())
    def test_scaling_gathered_rows_is_gathering_scaled_rows(self, case):
        """What training does to a minibatch, gathering rows and scaling
        them in place, gives the bits of scaling the corpus and gathering."""
        corpus, rows = case
        scaler = ObservationScaler.fit(corpus)
        want = scaler.transform(corpus)[rows]
        out = np.full((len(rows) + 2, *corpus.shape[1:]), np.nan)
        got = _gather(corpus, rows, out, scaler)
        assert got.shape == want.shape and np.shares_memory(got, out)
        # int64 views compare bits, so a flipped zero sign fails too
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_scales_to_unit_interval_and_flattens(self):
        corpus = np.stack([
            np.array([[0.0, 2.0], [5.0, 5.0]]),
            np.array([[1.0, 2.0], [5.0, 5.0]]),
        ])
        scaler = ObservationScaler.fit(corpus)
        flat = scaler.transform(corpus[:1])
        assert flat.shape == (1, 4)
        np.testing.assert_allclose(flat, [[0.0, 1.0, 0.5, 0.5]])  # const channel -> 0.5
        with pytest.raises(StructuralError):  # one matrix is a one-row batch
            scaler.transform(corpus[0])

    def test_transform_is_bitwise_the_masked_formula(self):
        """The in-place transform gives the bits of the former expression."""
        rng = np.random.default_rng(38)
        corpus = rng.normal(size=(40, 5, 7)) * 10.0 ** rng.integers(-3, 4, (1, 5, 1))
        corpus[:, 2] = -1.25  # a constant channel
        scaler = ObservationScaler.fit(corpus)
        obs = rng.normal(size=(9, 5, 7)) * 100.0
        lo = scaler.lo[:, np.newaxis]
        span = (scaler.hi - scaler.lo)[:, np.newaxis]
        ok = span > 0
        want = np.where(ok, (obs - lo) / np.where(ok, span, 1.0), 0.5).reshape(9, -1)
        got = scaler.transform(obs)
        assert not ok.all() and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
