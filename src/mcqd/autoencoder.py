"""Modular auto-encoder ensemble with diversity-enforcing losses.

Everything here is plain numpy with hand-written reverse-mode gradients, so
the coupling that the diversity terms introduce between modules stays fully
auditable and can be checked against finite differences.

An ensemble holds M independent (encoder, decoder) pairs sharing the input
and latent dimensionality.  The training objective is

    combined = recons + diversity_sign * diversity_weight * diversity_term

where the diversity term is one of:

* ``outputs``: mean squared deviation of each module's reconstruction from
  the ensemble-mean reconstruction of the same input,
* ``cov``: sum of absolute off-diagonal entries of the covariance matrix of
  all modules' latent codes concatenated column-wise,
* ``cmd``: sum over module pairs of the correlation-matrix distance
  1 - tr(R_i R_j) / (||R_i||_F ||R_j||_F).

With the canonical sign (-1) the outputs/cmd terms are maximized, pushing the
modules toward complementary representations.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidValueError, StructuralError
from .postprocess import QuantileTransform

DIVERSITY_KINDS = ("none", "outputs", "cov", "cmd")

_STD_FLOOR = 1e-8  # regularizes correlation of a collapsed latent column


def _sigmoid(a):
    # 1/(1+e) where a >= 0 and e/(1+e) elsewhere, with e = exp(-|a|) never
    # overflowing; minimum(a, -a) is -|a| that keeps a NaN's sign bit.
    e = np.exp(np.minimum(a, -a))
    pos = a >= 0
    return (pos + (1.0 - pos) * e) / (1.0 + e)


def _elu(a):
    return np.where(a > 0, a, np.expm1(a))


def _activate(name, a):
    if name == "elu":
        return _elu(a)
    if name == "sigmoid":
        return _sigmoid(a)
    if name == "linear":
        return a
    raise StructuralError(f"unknown activation {name!r}")


def _activate_grad(name, a, h):
    # h is the post-activation value, handy for sigmoid
    if name == "elu":
        return np.where(a > 0, 1.0, np.exp(a))
    if name == "sigmoid":
        return h * (1.0 - h)
    if name == "linear":
        return np.ones_like(a)
    raise StructuralError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)
    activation: str
    dropout: float = 0.0


class DenseNet:
    """Small fully-connected network with per-layer activation and dropout.

    Dropout uses inverted scaling at train time (mask / keep_prob), so
    inference needs no rescaling and is fully deterministic.
    """

    def __init__(self, layers: list[DenseLayer]):
        self.layers = layers
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise StructuralError("adjacent layer dimensions are incompatible")

    @classmethod
    def build(cls, sizes, activations, dropouts=None) -> "DenseNet":
        """Allocate zeroed layers: sizes [in, h1, ..., out], one activation each."""
        if len(activations) != len(sizes) - 1:
            raise StructuralError("need one activation per layer")
        if dropouts is None:
            dropouts = [0.0] * len(activations)
        layers = []
        for i, act in enumerate(activations):
            layers.append(
                DenseLayer(
                    weights=np.zeros((sizes[i + 1], sizes[i])),
                    bias=np.zeros(sizes[i + 1]),
                    activation=act,
                    dropout=float(dropouts[i]),
                )
            )
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def forward(self, x: np.ndarray, train: bool = False, rng=None):
        """Run a (batch, in) matrix through the net; returns (out, cache)."""
        h = x
        cache = []
        for layer in self.layers:
            a = h @ layer.weights.T + layer.bias
            h_act = _activate(layer.activation, a)
            mask = None
            if train and layer.dropout > 0.0:
                keep = 1.0 - layer.dropout
                mask = (rng.random(h_act.shape) < keep) / keep
                out = h_act * mask
            else:
                out = h_act
            cache.append((h, a, h_act, mask))
            h = out
        return h, cache

    def backward(self, cache, grad_out: np.ndarray):
        """Backpropagate grad_out (d loss / d output) through cached forward.

        Returns ([(dW, db) per layer], d loss / d input).
        """
        g = grad_out
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            x_in, a, h_act, mask = cache[i]
            if mask is not None:
                g = g * mask
            da = g * _activate_grad(layer.activation, a, h_act)
            grads[i] = (da.T @ x_in, da.sum(axis=0))
            g = da @ layer.weights
        return grads, g


def xavier_uniform_init(net: DenseNet, rng) -> None:
    """Glorot-uniform weights, zero biases."""
    for layer in net.layers:
        fan_out, fan_in = layer.weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layer.weights[...] = rng.uniform(-limit, limit, size=layer.weights.shape)
        layer.bias[...] = 0.0


@dataclass
class AutoEncoderModule:
    encoder: DenseNet
    decoder: DenseNet

    def forward(self, x: np.ndarray):
        """Deterministic (z, y) for one flattened observation (dropout off)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InvalidValueError("non-finite encoder input")
        z, _ = self.encoder.forward(np.atleast_2d(x))
        y, _ = self.decoder.forward(z)
        if x.ndim == 1:
            return z[0], y[0]
        return z, y


class ModularAutoEncoderEnsemble:
    """M encoder/decoder pairs trained jointly under a combined loss."""

    def __init__(self, modules, diversity_kind="none", diversity_weight=1.0,
                 diversity_sign=-1):
        if not modules:
            raise StructuralError("ensemble needs at least one module")
        if diversity_kind not in DIVERSITY_KINDS:
            raise StructuralError(f"unknown diversity kind {diversity_kind!r}")
        if diversity_sign not in (1, -1):
            raise StructuralError("diversity_sign must be +1 or -1")
        in_dim = modules[0].encoder.input_dim
        lat = modules[0].encoder.output_dim
        for m in modules:
            if m.encoder.input_dim != in_dim or m.encoder.output_dim != lat:
                raise StructuralError("modules must share input and latent dims")
            if m.decoder.input_dim != lat or m.decoder.output_dim != in_dim:
                raise StructuralError("decoder dims must mirror the encoder")
        if diversity_kind == "cmd" and len(modules) >= 2 and lat < 2:
            raise StructuralError("cmd diversity needs latent_dim >= 2")
        self.modules: list[AutoEncoderModule] = list(modules)
        self.diversity_kind = diversity_kind
        self.diversity_weight = float(diversity_weight)
        self.diversity_sign = int(diversity_sign)

    @classmethod
    def build(cls, input_dim, latent_dim, n_modules, hidden=(16, 5), dropout=0.2,
              diversity_kind="none", diversity_weight=1.0, diversity_sign=-1,
              rng=None):
        """Desk topology: in -> hidden (ELU, dropout) -> latent (sigmoid), mirrored."""
        hidden = tuple(int(h) for h in hidden)
        enc_sizes = [input_dim, *hidden, latent_dim]
        dec_sizes = [latent_dim, *reversed(hidden), input_dim]
        n_h = len(hidden)
        modules = []
        for _ in range(n_modules):
            enc = DenseNet.build(enc_sizes, ["elu"] * n_h + ["sigmoid"],
                                 [dropout] * n_h + [0.0])
            dec = DenseNet.build(dec_sizes, ["elu"] * n_h + ["sigmoid"],
                                 [dropout] * n_h + [0.0])
            if rng is not None:
                xavier_uniform_init(enc, rng)
                xavier_uniform_init(dec, rng)
            modules.append(AutoEncoderModule(enc, dec))
        return cls(modules, diversity_kind, diversity_weight, diversity_sign)

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    @property
    def input_dim(self) -> int:
        return self.modules[0].encoder.input_dim

    @property
    def latent_dim(self) -> int:
        return self.modules[0].encoder.output_dim

    def clone(self) -> "ModularAutoEncoderEnsemble":
        return copy.deepcopy(self)

    def parameters(self) -> list[np.ndarray]:
        params = []
        for m in self.modules:
            params.extend(m.encoder.parameters())
            params.extend(m.decoder.parameters())
        return params

    def encode(self, x: np.ndarray, module_index: int) -> np.ndarray:
        """Latent codes for a (batch, in) matrix, inference mode."""
        z, _ = self.modules[module_index].encoder.forward(np.atleast_2d(np.asarray(x, float)))
        return z

    def forward_all(self, x: np.ndarray, train: bool = False, rng=None):
        """Forward every module; returns (zs, ys, enc_caches, dec_caches)."""
        zs, ys, enc_caches, dec_caches = [], [], [], []
        for m in self.modules:
            z, ec = m.encoder.forward(x, train=train, rng=rng)
            y, dc = m.decoder.forward(z, train=train, rng=rng)
            zs.append(z)
            ys.append(y)
            enc_caches.append(ec)
            dec_caches.append(dc)
        return zs, ys, enc_caches, dec_caches


# ---------------------------------------------------------------------------
# Loss values
# ---------------------------------------------------------------------------

def _as_batch(batch) -> np.ndarray:
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise StructuralError("batch must be a non-empty (n, dim) matrix")
    return x


def _recons_value(x, ys) -> float:
    b, m = x.shape[0], len(ys)
    total = 0.0
    for y in ys:
        total += np.sum((y - x) ** 2) / b
    return total / m


def _outputs_value(ys) -> float:
    b, m = ys[0].shape[0], len(ys)
    mean_y = sum(ys) / m
    total = 0.0
    for y in ys:
        total += np.sum((y - mean_y) ** 2)
    return total / (b * m)


def _cov_value(zs) -> float:
    z_cat = np.hstack(zs)
    if z_cat.shape[0] < 2:
        raise StructuralError("covariance needs a batch of at least 2")
    if z_cat.shape[1] < 2:
        return 0.0
    c = np.cov(z_cat, rowvar=False, ddof=1)
    return float(np.sum(np.abs(c)) - np.trace(np.abs(c)))


def _corr_matrix(z):
    """Correlation matrix with the std of each column floored at 1e-8.

    Returns (R, C, s, active) where active marks columns whose std exceeded
    the floor (those participate in std gradients).
    """
    c = np.cov(z, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    s_raw = np.sqrt(np.maximum(np.diag(c), 0.0))
    s = np.maximum(s_raw, _STD_FLOOR)
    r = c / np.outer(s, s)
    return r, c, s, s_raw > _STD_FLOOR


def d_corr(h1: np.ndarray, h2: np.ndarray) -> float:
    """Correlation-matrix distance, 1 - tr(H1 H2) / (||H1||_F ||H2||_F)."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape or h1.ndim != 2 or h1.shape[0] != h1.shape[1]:
        raise StructuralError("correlation matrices must be square and same shape")
    n1 = np.linalg.norm(h1)
    n2 = np.linalg.norm(h2)
    if n1 == 0.0 or n2 == 0.0:
        raise InvalidValueError("correlation matrix has zero Frobenius norm")
    raw = 1.0 - np.trace(h1 @ h2) / (n1 * n2)
    return float(np.clip(raw, 0.0, 1.0))


def _cmd_value(zs, latent_dim) -> float:
    if zs[0].shape[0] < 2:
        raise StructuralError("correlations need a batch of at least 2")
    if len(zs) < 2:
        return 0.0
    if latent_dim < 2:
        raise StructuralError("cmd diversity needs latent_dim >= 2")
    rs = [_corr_matrix(z)[0] for z in zs]
    total = 0.0
    for i in range(len(rs)):
        for j in range(len(rs)):
            if i != j:
                total += d_corr(rs[i], rs[j])
    return total


def loss_recons(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Mean over modules of per-module mean squared reconstruction error."""
    x = _as_batch(batch)
    _, ys, _, _ = ensemble.forward_all(x)
    return _recons_value(x, ys)


def loss_outputs(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Mean squared deviation of each module's output from the ensemble mean."""
    x = _as_batch(batch)
    _, ys, _, _ = ensemble.forward_all(x)
    return _outputs_value(ys)


def loss_cov(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Sum of |off-diagonal| covariance over all modules' concatenated latents."""
    x = _as_batch(batch)
    zs, _, _, _ = ensemble.forward_all(x)
    return _cov_value(zs)


def loss_cmd(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Sum over ordered module pairs of their correlation-matrix distance."""
    x = _as_batch(batch)
    zs, _, _, _ = ensemble.forward_all(x)
    return _cmd_value(zs, ensemble.latent_dim)


def combined_loss(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """recons + sign * weight * diversity; bit-identical to recons when inactive."""
    x = _as_batch(batch)
    zs, ys, _, _ = ensemble.forward_all(x)
    return _combined_value(ensemble, x, zs, ys)


def _combined_value(ensemble, x, zs, ys) -> float:
    value = _recons_value(x, ys)
    kind = ensemble.diversity_kind
    lam = ensemble.diversity_weight
    if kind == "none" or lam == 0.0:
        return value
    if kind == "outputs":
        div = _outputs_value(ys)
    elif kind == "cov":
        div = _cov_value(zs)
    else:
        div = _cmd_value(zs, ensemble.latent_dim)
    return value + ensemble.diversity_sign * lam * div


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _cov_latent_grads(zs):
    """d cov-loss / d z_m for each module, via sign of the covariance matrix."""
    z_cat = np.hstack(zs)
    b = z_cat.shape[0]
    if z_cat.shape[1] < 2:
        return [np.zeros_like(z) for z in zs]
    c = np.cov(z_cat, rowvar=False, ddof=1)
    sgn = np.sign(c)
    np.fill_diagonal(sgn, 0.0)
    centered = z_cat - z_cat.mean(axis=0)
    g = 2.0 / (b - 1) * centered @ sgn
    grads, col = [], 0
    for z in zs:
        grads.append(g[:, col:col + z.shape[1]])
        col += z.shape[1]
    return grads


def _d_corr_grad_h1(h1, h2):
    """d d_corr(H1, H2) / d H1 (unclamped form)."""
    n1 = np.linalg.norm(h1)
    n2 = np.linalg.norm(h2)
    tr = np.trace(h1 @ h2)
    return -h2 / (n1 * n2) + tr * h1 / (n1 ** 3 * n2)


def _corr_to_latent_grad(g_r, c, s, active, z):
    """Chain d loss / d R into d loss / d Z for one module's latent batch."""
    b = z.shape[0]
    inv = 1.0 / s
    g_c = g_r * np.outer(inv, inv)
    g_sym = 0.5 * (g_r + g_r.T)
    # std path: only columns above the floor feed gradients through s
    diag_corr = active * inv ** 3 * np.sum(g_sym * c * inv[np.newaxis, :], axis=1)
    g_c[np.diag_indices_from(g_c)] -= diag_corr
    centered = z - z.mean(axis=0)
    return centered @ (g_c + g_c.T) / (b - 1)


def _cmd_latent_grads(zs):
    mats = [_corr_matrix(z) for z in zs]
    m = len(zs)
    grads = []
    for i in range(m):
        r_i, c_i, s_i, active_i = mats[i]
        g_r = np.zeros_like(r_i)
        for j in range(m):
            if j == i:
                continue
            # d_corr appears as both (i, j) and (j, i); it is symmetric in
            # its arguments, so each pair contributes twice.
            g_r += 2.0 * _d_corr_grad_h1(r_i, mats[j][0])
        grads.append(_corr_to_latent_grad(g_r, c_i, s_i, active_i, zs[i]))
    return grads


def backward(ensemble: ModularAutoEncoderEnsemble, batch, train=False, rng=None):
    """Combined loss and its gradient w.r.t. every parameter of every module.

    Returns (loss, grads) with grads a flat list matching
    ``ensemble.parameters()`` order.  With ``train=True`` dropout masks are
    sampled from ``rng`` and the returned gradients incorporate them.
    """
    x = _as_batch(batch)
    b, m = x.shape[0], ensemble.n_modules
    zs, ys, enc_caches, dec_caches = ensemble.forward_all(x, train=train, rng=rng)
    loss = _combined_value(ensemble, x, zs, ys)
    if not np.isfinite(loss):
        return loss, []  # diverged; gradients would be garbage

    d_ys = [2.0 / (b * m) * (y - x) for y in ys]
    d_zs_extra = None
    kind = ensemble.diversity_kind
    lam = ensemble.diversity_sign * ensemble.diversity_weight
    if kind != "none" and ensemble.diversity_weight != 0.0:
        if kind == "outputs":
            mean_y = sum(ys) / m
            for i in range(m):
                d_ys[i] = d_ys[i] + lam * 2.0 / (b * m) * (ys[i] - mean_y)
        elif kind == "cov":
            d_zs_extra = [lam * g for g in _cov_latent_grads(zs)]
        else:
            d_zs_extra = [lam * g for g in _cmd_latent_grads(zs)]

    grads: list[np.ndarray] = []
    for i, module in enumerate(ensemble.modules):
        dec_grads, d_z = module.decoder.backward(dec_caches[i], d_ys[i])
        if d_zs_extra is not None:
            d_z = d_z + d_zs_extra[i]
        enc_grads, _ = module.encoder.backward(enc_caches[i], d_z)
        for dw, db in enc_grads:
            grads.extend((dw, db))
        for dw, db in dec_grads:
            grads.extend((dw, db))
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer and training
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


@dataclass
class TrainingConfig:
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 1024
    validation_split: float = 0.25
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.validation_split < 1.0:
            raise StructuralError("validation_split must be in (0, 1)")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    diverged: bool = False
    message: str = ""

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


def _batch_slices(n, batch_size):
    """Contiguous batch index ranges; a trailing singleton merges backwards
    so covariance-based losses always see at least two samples."""
    edges = list(range(0, n, batch_size)) + [n]
    slices = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    if len(slices) > 1 and slices[-1][1] - slices[-1][0] < 2:
        last = slices.pop()
        prev = slices.pop()
        slices.append((prev[0], last[1]))
    return slices


def train_ensemble(ensemble: ModularAutoEncoderEnsemble, inputs: np.ndarray,
                   cfg: TrainingConfig, rng=None) -> TrainReport:
    """Mini-batch Adam on the combined loss; mutates the ensemble in place.

    ``inputs`` is the (n, input_dim) corpus already min-max scaled to [0, 1].
    A validation fraction is held out and scored with dropout disabled after
    each epoch.  On a non-finite loss the pass aborts and the report is
    flagged diverged; the caller decides whether to keep the old model.
    """
    x = _as_batch(inputs)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_val = min(int(round(n * cfg.validation_split)), n - 1)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    x_val = x[val_idx]
    x_train = x[train_idx]

    params = ensemble.parameters()
    opt = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_adam)
    report = TrainReport()
    for epoch in range(cfg.epochs):
        order = rng.permutation(x_train.shape[0])
        epoch_loss = 0.0
        for lo, hi in _batch_slices(x_train.shape[0], cfg.batch_size):
            xb = x_train[order[lo:hi]]
            loss, grads = backward(ensemble, xb, train=True, rng=rng)
            if not np.isfinite(loss):
                report.diverged = True
                report.message = f"non-finite training loss at epoch {epoch}"
                return report
            epoch_loss += loss * (hi - lo)
            opt.step(params, grads)
        report.train_losses.append(epoch_loss / x_train.shape[0])
        if n_val > 0:
            val = combined_loss(ensemble, x_val)
            if not np.isfinite(val):
                report.diverged = True
                report.message = f"non-finite validation loss at epoch {epoch}"
                return report
            report.val_losses.append(float(val))
        else:
            report.val_losses.append(float("nan"))
    return report


# ---------------------------------------------------------------------------
# Input scaling and checkpoints
# ---------------------------------------------------------------------------

class ObservationScaler:
    """Per-channel min-max map to [0, 1], fit on an observation corpus.

    Degenerate channels (constant over the corpus) map to 0.5.  The scaler is
    stored with the model so descriptor extraction always sees the same
    scaling the ensemble was trained under.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @classmethod
    def fit(cls, corpus: np.ndarray) -> "ObservationScaler":
        """corpus: (n, channels, timepoints)."""
        lo = corpus.min(axis=(0, 2))
        hi = corpus.max(axis=(0, 2))
        return cls(lo, hi)

    def transform(self, observations: np.ndarray) -> np.ndarray:
        """Scale (channels, t) or (n, channels, t) and flatten channel-major."""
        obs = np.asarray(observations, dtype=float)
        lo = self.lo[:, np.newaxis]
        span = (self.hi - self.lo)[:, np.newaxis]
        ok = span > 0
        scaled = np.where(ok, (obs - lo) / np.where(ok, span, 1.0), 0.5)
        if obs.ndim == 2:
            return scaled.reshape(-1)
        return scaled.reshape(obs.shape[0], -1)


def save_checkpoint(path, ensemble: ModularAutoEncoderEnsemble,
                    scaler: ObservationScaler,
                    quantile_transforms: dict[int, QuantileTransform] | None = None):
    """Write model parameters, input scaling and quantile landmarks to .npz.

    Layout: a ``structure`` JSON string describing layer sizes, activations,
    dropouts and the diversity configuration, plus float64 arrays
    ``m{i}_{enc|dec}_{w|b}{l}``, ``scale_lo``/``scale_hi`` and
    ``qt{cid}_landmarks``/``qt{cid}_levels``.  Values round-trip bit-exactly.
    """
    quantile_transforms = quantile_transforms or {}

    def net_meta(net):
        return {
            "sizes": [net.input_dim] + [l.weights.shape[0] for l in net.layers],
            "activations": [l.activation for l in net.layers],
            "dropouts": [l.dropout for l in net.layers],
        }

    structure = {
        "diversity_kind": ensemble.diversity_kind,
        "diversity_weight": ensemble.diversity_weight,
        "diversity_sign": ensemble.diversity_sign,
        "modules": [
            {"encoder": net_meta(m.encoder), "decoder": net_meta(m.decoder)}
            for m in ensemble.modules
        ],
        "qt_ids": sorted(quantile_transforms),
    }
    arrays = {"structure": np.array(json.dumps(structure, sort_keys=True))}
    for i, module in enumerate(ensemble.modules):
        for tag, net in (("enc", module.encoder), ("dec", module.decoder)):
            for l, layer in enumerate(net.layers):
                arrays[f"m{i}_{tag}_w{l}"] = layer.weights
                arrays[f"m{i}_{tag}_b{l}"] = layer.bias
    arrays["scale_lo"] = scaler.lo
    arrays["scale_hi"] = scaler.hi
    for cid, qt in quantile_transforms.items():
        arrays[f"qt{cid}_landmarks"] = qt.landmarks
        arrays[f"qt{cid}_levels"] = qt.levels
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (ensemble, scaler, {cid: qt})."""
    with np.load(path, allow_pickle=False) as data:
        structure = json.loads(str(data["structure"]))
        modules = []
        for i, meta in enumerate(structure["modules"]):
            nets = {}
            for tag in ("enc", "dec"):
                nm = meta["encoder" if tag == "enc" else "decoder"]
                net = DenseNet.build(nm["sizes"], nm["activations"], nm["dropouts"])
                for l, layer in enumerate(net.layers):
                    layer.weights[...] = data[f"m{i}_{tag}_w{l}"]
                    layer.bias[...] = data[f"m{i}_{tag}_b{l}"]
                nets[tag] = net
            modules.append(AutoEncoderModule(nets["enc"], nets["dec"]))
        ensemble = ModularAutoEncoderEnsemble(
            modules,
            diversity_kind=structure["diversity_kind"],
            diversity_weight=structure["diversity_weight"],
            diversity_sign=structure["diversity_sign"],
        )
        scaler = ObservationScaler(data["scale_lo"], data["scale_hi"])
        qts = {
            int(cid): QuantileTransform(data[f"qt{cid}_landmarks"],
                                        data[f"qt{cid}_levels"])
            for cid in structure["qt_ids"]
        }
    return ensemble, scaler, qts
