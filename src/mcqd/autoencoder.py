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

import json
from dataclasses import dataclass, field

import numpy as np

from .config import COVARIANCE_KINDS, DIVERSITY_KINDS, TrainingSection
from .core import InvalidValueError, StructuralError
from .postprocess import QuantileTransform

_STD_FLOOR = 1e-8  # regularizes correlation of a collapsed latent column


def _sigmoid(a, out=None, tmp=None):
    # 1/(1+e) where a >= 0 and e/(1+e) elsewhere, with e = exp(-|a|) never
    # overflowing: the numerator max(e, a >= 0) is 1 or e.  minimum(a, -a)
    # is -|a| that keeps a NaN's sign bit.  out (which may be a itself) and
    # tmp, when given, are arrays shaped like a.
    e = np.negative(a, out=tmp)
    np.minimum(a, e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, a >= 0, out=out)
    return np.divide(num, np.add(e, 1.0, out=e), out=num)


def _elu(a):
    return np.where(a > 0, a, np.expm1(a))


def net_forward(net, x, dropout=0.0, rng=None, stop=None):
    """Run a (batch, in) matrix through one encoder or decoder.

    ``net`` is a list of (W, b) layer views, W shaped (fan_out, fan_in).
    Every layer but the last applies ELU and then, when ``dropout`` > 0,
    an inverted dropout mask drawn from ``rng`` (mask / keep_prob, so
    inference needs no rescaling); the last layer applies a sigmoid.  With
    ``stop`` the pass ends before ``net[stop]``.  Returns (out, cache).
    The cache keeps a layer's activation before dropout only for the last
    layer, the one ``net_backward`` reads it for.
    """
    h, cache, last = x, [], len(net) - 1
    for i, (w, b) in enumerate(net[:stop]):
        a = h @ w.T + b
        mask = None
        if i == last:
            h_act = out = _sigmoid(a)
        else:
            h_act = out = _elu(a)
            if dropout > 0.0:
                keep = 1.0 - dropout
                mask = (rng.random(h_act.shape) < keep) / keep
                out = h_act * mask
        cache.append((h, a, h_act if i == last else None, mask))
        h = out
    return h, cache


def net_backward(net, grads, cache, g, input_grad=True):
    """Backpropagate g (d loss / d output) through a cached forward pass.

    Writes each cached layer's (dW, db) into ``grads``, a list of views
    parallel to ``net``.  The cache may cover only the first layers (a pass
    ended by ``stop``).  Returns d loss / d input, None without
    ``input_grad``.
    """
    last = len(net) - 1
    for i in range(len(cache) - 1, -1, -1):
        x_in, a, h_act, mask = cache[i]
        if mask is not None:
            g = g * mask
        if i == last:
            da = g * (h_act * (1.0 - h_act))
        else:
            da = g * np.exp(np.minimum(a, 0.0))  # ELU's slope: exp(a), or exp(0) = 1 above 0
        dw, db = grads[i]
        np.matmul(da.T, x_in, out=dw)
        da.sum(axis=0, out=db)
        g = da @ net[i][0] if i or input_grad else None
    return g


class ModularAutoEncoderEnsemble:
    """M encoder/decoder pairs of one topology, trained jointly under a
    combined loss.

    Each encoder is in -> hidden... (ELU, dropout) -> latent (sigmoid) and
    each decoder mirrors it back to in.  Every parameter lives in one
    float64 vector ``theta``: module by module, the encoder's layers then
    the decoder's, each layer's weights then its bias.  ``nets[k]`` holds
    module k's (encoder, decoder) lists of (W, b) views into ``theta``.
    """

    def __init__(self, input_dim, latent_dim, n_modules, hidden=(16, 5), dropout=0.2,
                 diversity_kind="none", diversity_weight=1.0, diversity_sign=-1,
                 theta=None):
        hidden = tuple(int(h) for h in hidden)
        if n_modules < 1:
            raise StructuralError("ensemble needs at least one module")
        if diversity_kind not in DIVERSITY_KINDS:
            raise StructuralError(f"unknown diversity kind {diversity_kind!r}")
        if diversity_sign not in (1, -1):
            raise StructuralError("diversity_sign must be +1 or -1")
        if any(h < 1 for h in hidden):
            raise StructuralError("hidden layer widths must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise StructuralError("dropout must be in [0, 1)")
        if diversity_kind == "cmd" and n_modules >= 2 and latent_dim < 2:
            raise StructuralError("cmd diversity needs latent_dim >= 2")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.n_modules = int(n_modules)
        self.hidden = hidden
        self.dropout = float(dropout)
        self.diversity_kind = diversity_kind
        self.diversity_weight = float(diversity_weight)
        self.diversity_sign = int(diversity_sign)
        sizes = [self.input_dim, *hidden, self.latent_dim]
        self._layer_shapes = [(fan_out, fan_in) for s in (sizes, sizes[::-1])
                              for fan_in, fan_out in zip(s, s[1:])]
        self.module_size = sum(o * i + o for o, i in self._layer_shapes)
        size = self.n_modules * self.module_size
        self.theta = np.zeros(size) if theta is None else theta
        self.nets = [self.module_views(flat)
                     for flat in np.split(self.theta, self.n_modules)]

    @classmethod
    def build(cls, input_dim, latent_dim, n_modules, hidden=(16, 5), dropout=0.2,
              diversity_kind="none", diversity_weight=1.0, diversity_sign=-1,
              rng=None):
        """Glorot-uniform weights drawn from ``rng`` (zeros without one) and
        zero biases, module by module, encoder then decoder, layer by layer."""
        ensemble = cls(input_dim, latent_dim, n_modules, hidden, dropout,
                       diversity_kind, diversity_weight, diversity_sign)
        if rng is not None:
            for enc, dec in ensemble.nets:
                for w, _ in enc + dec:
                    fan_out, fan_in = w.shape
                    limit = np.sqrt(6.0 / (fan_in + fan_out))
                    w[...] = rng.uniform(-limit, limit, size=w.shape)
        return ensemble

    def module_views(self, flat: np.ndarray) -> tuple[list, list]:
        """(encoder, decoder) lists of (W, b) views into a vector laid out
        like one module's ``module_size`` elements of ``theta``."""
        layers, at = [], 0
        for fan_out, fan_in in self._layer_shapes:
            w = flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in)
            at += w.size
            layers.append((w, flat[at:at + fan_out]))
            at += fan_out
        depth = len(self.hidden) + 1
        return layers[:depth], layers[depth:]

    def clone(self) -> "ModularAutoEncoderEnsemble":
        return ModularAutoEncoderEnsemble(
            self.input_dim, self.latent_dim, self.n_modules, self.hidden,
            self.dropout, self.diversity_kind, self.diversity_weight,
            self.diversity_sign, theta=self.theta.copy())

    def encode(self, x: np.ndarray, module_index: int) -> np.ndarray:
        """Latent codes for a (batch, in) matrix, inference mode."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise StructuralError(f"encode takes a (batch, in) matrix, not {x.shape}")
        return net_forward(self.nets[module_index][0], x)[0]


# ---------------------------------------------------------------------------
# Loss values
# ---------------------------------------------------------------------------

def _as_batch(batch) -> np.ndarray:
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise StructuralError("batch must be a non-empty (n, dim) matrix")
    return x


def _cov_term(zs, need_grads):
    """The cov term and, with ``need_grads``, its gradient d term / d z_m for
    each module (else None), from one covariance matrix of the concatenated
    latents; the gradient is the centered latents times the sign of the
    off-diagonal covariances."""
    z_cat = np.hstack(zs)
    b = z_cat.shape[0]
    if b < 2:
        raise StructuralError("covariance needs a batch of at least 2")
    if z_cat.shape[1] < 2:
        return 0.0, [np.zeros_like(z) for z in zs] if need_grads else None
    c = np.cov(z_cat, rowvar=False, ddof=1)
    value = float(np.sum(np.abs(c)) - np.trace(np.abs(c)))
    if not need_grads:
        return value, None
    sgn = np.sign(c)
    np.fill_diagonal(sgn, 0.0)
    centered = z_cat - z_cat.mean(axis=0)
    g = 2.0 / (b - 1) * centered @ sgn
    grads, col = [], 0
    for z in zs:
        grads.append(g[:, col:col + z.shape[1]])
        col += z.shape[1]
    return value, grads


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


def _cmd_term(zs, need_grads):
    """The cmd term and, with ``need_grads``, its gradient d term / d z_m for
    each module (else None), from one correlation matrix per module.  A
    single module's term is 0."""
    m = len(zs)
    if zs[0].shape[0] < 2:
        raise StructuralError("correlations need a batch of at least 2")
    mats = [_corr_matrix(z) for z in zs]
    total = 0.0
    if m >= 2:
        for k, (r, *_) in enumerate(mats):
            if not r.any():
                raise InvalidValueError(
                    f"module {k} collapsed (its latents are constant): its "
                    f"correlation matrix is zero, so the cmd distance is undefined")
        for i in range(m):
            for j in range(m):
                if i != j:
                    total += d_corr(mats[i][0], mats[j][0])
    if not need_grads:
        return total, None
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
    return total, grads


def _diversity_kind(ensemble) -> str:
    """The diversity term that takes part in the loss ("none" at weight 0)."""
    if ensemble.diversity_weight == 0.0:
        return "none"
    return ensemble.diversity_kind


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _output_buffers(ensemble: ModularAutoEncoderEnsemble, rows: int) -> np.ndarray:
    """Scratch (rows, input_dim) arrays for the decoders' wide output layer.

    One set is sized per training, for its largest minibatch, and shared by
    every module, minibatch and chunk of held-out rows, which use the first
    rows of each: the reconstruction y, its gradient d, a temporary and, for
    the outputs diversity term, the ensemble-mean reconstruction.
    """
    k = 4 if _diversity_kind(ensemble) == "outputs" else 3
    return np.empty((k, rows, ensemble.input_dim))


def _decode_output(layer, h, y, tmp) -> np.ndarray:
    """sigmoid(h @ W.T + b) of a decoder's (W, b) output layer, written into y."""
    w, b = layer
    np.matmul(h, w.T, out=y)
    y += b
    return _sigmoid(y, out=y, tmp=tmp)


def _mean_output(ensemble, hs, y, tmp, mean_y) -> None:
    """The ensemble-mean reconstruction into mean_y, from hs, each module's
    input to its decoder's output layer in module order."""
    mean_y[...] = 0.0
    for k, h in enumerate(hs):
        mean_y += _decode_output(ensemble.nets[k][1][-1], h, y, tmp)
    mean_y /= len(hs)


def _output_terms(y, x, d, tmp, n, mean_y) -> tuple[float, float]:
    """One module's loss terms from its reconstruction y of x: the
    reconstruction error sum((y - x)^2) / n and, with the ensemble mean
    mean_y, the outputs sum sum((y - mean_y)^2), else 0.  Leaves y - x in d."""
    np.subtract(y, x, out=d)
    recons = np.sum(np.multiply(d, d, out=tmp)) / n
    outputs = 0.0
    if mean_y is not None:
        outputs = np.sum(np.square(np.subtract(y, mean_y, out=tmp), out=tmp))
    return recons, outputs


def _loss(ensemble, terms, div, n) -> float:
    """recons + sign * weight * diversity over n rows, from each module's
    (recons, outputs) terms in module order; ``div`` is the cov or cmd term."""
    kind, m = _diversity_kind(ensemble), ensemble.n_modules
    recons = outputs = 0.0
    for r, o in terms:
        recons += r
        outputs += o
    loss = recons / m
    if kind == "outputs":
        div = outputs / (n * m)
    if kind != "none":
        loss = loss + ensemble.diversity_sign * ensemble.diversity_weight * div
    return loss


def backward(ensemble: ModularAutoEncoderEnsemble, batch, step, train=False,
             rng=None, *, buffers: np.ndarray, grad: np.ndarray) -> float:
    """One optimizer step per module on the combined loss; returns the loss.

    Module k's gradient goes into ``grad``, one module-sized vector, and
    ``step(grad, k)``, an optimizer step such as ``Adam.step``, runs as soon
    as module k's backward pass has written every element of it.  No
    module's backward pass reads another module's parameters, and a
    diversity term's coupling is taken from the forward passes, which all
    run first, so stepping module k early changes no other module's
    gradient.  With ``train=True`` dropout masks are sampled from ``rng``
    and the gradients incorporate them.  ``buffers`` come from
    ``_output_buffers`` with at least as many rows as the batch.  The loss
    is known only after the last step, so when it is not finite the steps
    have already used that minibatch's non-finite gradients.

    The wide decoder output layer runs one module at a time in the buffers:
    its forward pass, the loss terms, their gradient and the layer's
    backward pass share three (n, input_dim) arrays.  Without a diversity
    term each module finishes its backward pass, and drops its activations,
    before the next one starts, so one module's activations are alive at a
    time.  Dropout masks are drawn module by module, encoder then decoder,
    layer by layer.  Each float operation, with its operand order, is the
    one that a plain forward pass of every module and then the loss
    formulas perform, so without dropout the loss is bit-identical to the
    tests' reference loss.
    """
    x = _as_batch(batch)
    b, m = x.shape[0], ensemble.n_modules
    kind = _diversity_kind(ensemble)
    lam = ensemble.diversity_sign * ensemble.diversity_weight
    dropout = ensemble.dropout if train else 0.0
    y, d, tmp, *mean = buffers[:, :b]
    mean_y = mean[0] if kind == "outputs" else None
    grad_enc, grad_dec = ensemble.module_views(grad)

    def finish(k, h, enc_cache, dec_cache, d_z_extra=None):
        """Module k's output layer, loss terms and backward pass; returns
        its (recons, outputs) loss terms and writes its gradients."""
        enc, dec = ensemble.nets[k]
        _decode_output(dec[-1], h, y, tmp)
        terms = _output_terms(y, x, d, tmp, b, mean_y)
        np.multiply(2.0 / (b * m), d, out=d)  # d loss / d y
        if mean_y is not None:
            np.add(d, np.multiply(lam * 2.0 / (b * m),
                                  np.subtract(y, mean_y, out=tmp), out=tmp), out=d)
        sigmoid_grad = np.multiply(y, np.subtract(1.0, y, out=tmp), out=tmp)
        np.multiply(d, sigmoid_grad, out=d)
        dw, db = grad_dec[-1]
        np.matmul(d.T, h, out=dw)
        d.sum(axis=0, out=db)
        d_z = net_backward(dec, grad_dec, dec_cache, d @ dec[-1][0])
        if d_z_extra is not None:
            d_z = d_z + d_z_extra
        net_backward(enc, grad_enc, enc_cache, d_z, input_grad=False)
        step(grad, k)
        return terms

    # A diversity term couples the modules, so their backward passes wait
    # until every module has run forward.
    terms, zs, passes = [], [], []
    for k, (enc, dec) in enumerate(ensemble.nets):
        z, enc_cache = net_forward(enc, x, dropout, rng)
        h, dec_cache = net_forward(dec, z, dropout, rng, stop=-1)
        if kind == "none":
            terms.append(finish(k, h, enc_cache, dec_cache))
            del z, h, enc_cache, dec_cache  # free before the next module runs
        else:
            zs.append(z)
            passes.append((k, h, enc_cache, dec_cache))

    div, d_zs_extra = 0.0, [None] * len(passes)
    if kind == "outputs":
        # finish() computes each reconstruction again, to the same bits
        _mean_output(ensemble, [h for _, h, _, _ in passes], y, tmp, mean_y)
    elif kind in COVARIANCE_KINDS:
        div, latent_grads = (_cov_term(zs, True) if kind == "cov"
                             else _cmd_term(zs, True))
        d_zs_extra = [lam * g for g in latent_grads]
    for p, d_z_extra in zip(passes, d_zs_extra):
        terms.append(finish(*p, d_z_extra))

    return _loss(ensemble, terms, div, b)


def _decoder_heads(ensemble, x, zs=None):
    """Each module's input to its decoder's output layer, in module order
    and inference mode; with ``zs``, module k's latents go into zs[k]."""
    for k, (enc, dec) in enumerate(ensemble.nets):
        z = net_forward(enc, x)[0]
        if zs is not None:
            zs[k] = z
        yield net_forward(dec, z, stop=-1)[0]


def _heldout_loss(ensemble: ModularAutoEncoderEnsemble, chunks, n: int,
                  buffers: np.ndarray) -> float:
    """The combined loss, inference mode, over n rows that come as
    ``chunks``: (rows, input_dim) matrices of at most the buffers' rows.

    Each module's reconstruction and outputs terms add up chunk by chunk.
    The cov and cmd terms come from every row's latents, kept in one
    (n, latent_dim) matrix per module, the only arrays that span all n
    rows.  One chunk gives the bits of ``backward``'s loss on its rows.
    """
    m, kind = ensemble.n_modules, _diversity_kind(ensemble)
    terms = np.zeros((m, 2))  # each module's (recons, outputs), summed over chunks
    zs = np.empty((m, n, ensemble.latent_dim)) if kind in COVARIANCE_KINDS else None
    lo = 0
    for x in chunks:
        b = x.shape[0]
        y, d, tmp, *mean = buffers[:, :b]
        heads = _decoder_heads(ensemble, x, None if zs is None else zs[:, lo:lo + b])
        mean_y = None
        if kind == "outputs":
            mean_y, heads = mean[0], list(heads)
            _mean_output(ensemble, heads, y, tmp, mean_y)
        for k, h in enumerate(heads):
            _decode_output(ensemble.nets[k][1][-1], h, y, tmp)
            terms[k] += _output_terms(y, x, d, tmp, n, mean_y)
        lo += b
    div = 0.0
    if kind == "cov":
        div = _cov_term(list(zs), False)[0]
    elif kind == "cmd":
        div = _cmd_term(list(zs), False)[0]
    return _loss(ensemble, terms, div, n)


# ---------------------------------------------------------------------------
# Optimizer and training
# ---------------------------------------------------------------------------

class Adam:
    """Adam over one parameter vector, updated in place, whole or one
    equal-sized block at a time."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, theta, lr, block_size=None):
        """``block_size``, the size of the blocks that ``step`` takes, sizes
        its scratch vectors; by default it is the whole vector."""
        self.theta = theta
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._scratch = np.empty((2, block_size or theta.size))

    def step(self, grad, block=0) -> None:
        """Step block ``block`` of ``grad.size`` elements of theta, m and v
        (by default, with a whole-vector grad, all of them): theta -= lr *
        (m / bias1) / (sqrt(v / bias2) + eps) after the moment updates, each
        operation of that expression in its order, through the two scratch
        vectors, which grad's size must match.

        A step of block 0 advances t, so a training that steps every
        module's block in module order takes one Adam step per minibatch.
        Each operation is elementwise, so stepping the blocks one at a time
        gives the bits of one whole-vector step.
        """
        n = grad.size
        at = slice(block * n, (block + 1) * n)
        if block == 0:
            self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        s, r = self._scratch
        theta, m, v = self.theta[at], self.m[at], self.v[at]
        m *= b1
        m += np.multiply(1 - b1, grad, out=s)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, grad, out=s), grad, out=s)
        np.multiply(self.lr, np.divide(m, bias1, out=s), out=s)
        np.add(np.sqrt(np.divide(v, bias2, out=r), out=r), self.eps, out=r)
        theta -= np.divide(s, r, out=s)


# perfbench/micro.py imports this name; ROADMAP item 6's benchmark change
# drops it.
TrainingConfig = TrainingSection


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_loss: float = float("nan")  # after the last epoch; NaN: no row held out
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


def _gather(corpus, rows, out, scaler):
    """corpus[rows] into the first rows of out and, with a scaler, scaled
    there in place; returns them as a (len(rows), input_dim) matrix."""
    # the rows are in range; mode="raise" would gather into a copy
    xb = np.take(corpus, rows, axis=0, out=out[:len(rows)], mode="clip")
    return xb if scaler is None else scaler.transform(xb, out=xb)


def train_ensemble(ensemble: ModularAutoEncoderEnsemble, inputs: np.ndarray,
                   training: TrainingSection, rng,
                   scaler: ObservationScaler | None = None) -> TrainReport:
    """Mini-batch Adam on the combined loss; mutates the ensemble in place.

    ``inputs`` is the corpus: the raw (n, channels, t) observations that
    ``scaler`` was fit on or, without a scaler, an (n, input_dim) matrix
    already scaled to [0, 1].  ``training`` gives the epochs, learning
    rate, minibatch size and validation split.
    A validation fraction is held out and scored once, with dropout
    disabled, after the last epoch.  On a non-finite loss, or a module
    collapsed under the cmd loss (every latent constant), the pass aborts
    and the report is flagged diverged; the caller decides whether to keep
    the old model.  A minibatch's modules are stepped before its loss is
    known, so after a non-finite training loss the ensemble holds that
    minibatch's step, which may have made its parameters non-finite.

    One minibatch bounds every rows-sized array that a training allocates.
    Each minibatch is gathered from the corpus, and scaled in place, into
    one array sized for the largest minibatch; after the last epoch the
    held-out rows are gathered and scaled into it the same way, in chunks
    of at most that many rows.  The output buffers have the same rows.
    Beside them a training holds Adam's ``m`` and ``v``, one module-sized
    gradient vector and Adam's module-sized scratch: ``backward`` steps
    module k's slice of ``theta``, ``m`` and ``v`` as soon as it has written
    module k's gradient.  The held-out rows' latents, one (n_val,
    latent_dim) matrix per module, are kept only under the cov and cmd
    terms.  Scaling is elementwise, so scaling the gathered rows gives the
    bits of gathering from a scaled corpus.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != (2 if scaler is None else 3) or not len(x):
        raise StructuralError("the corpus must be a non-empty (n, input_dim) matrix, "
                              "or (n, channels, t) observations with a scaler")
    n = x.shape[0]
    perm = rng.permutation(n)
    n_val = min(int(round(n * training.validation_split)), n - 1)
    if _diversity_kind(ensemble) in COVARIANCE_KINDS:
        # both sides of the split need two rows, else no row is held out
        n_val = min(n_val, n - 2)
        if n_val < 2:
            n_val = 0
    train_idx = perm[n_val:]
    n_train = train_idx.shape[0]

    opt = Adam(ensemble.theta, training.learning_rate, ensemble.module_size)
    slices = _batch_slices(n_train, training.batch_size)
    rows = max(hi - lo for lo, hi in slices)
    # each minibatch, and after the last epoch each chunk of held-out rows,
    # is gathered into the first rows of one array
    gathered = np.empty((rows, *x.shape[1:]))
    buffers = _output_buffers(ensemble, rows)
    grad = np.empty(ensemble.module_size)
    report = TrainReport()
    try:
        for epoch in range(training.epochs):
            order = rng.permutation(n_train)
            epoch_loss = 0.0
            for lo, hi in slices:
                xb = _gather(x, train_idx[order[lo:hi]], gathered, scaler)
                loss = backward(ensemble, xb, opt.step, True, rng, buffers=buffers,
                                grad=grad)
                if not np.isfinite(loss):
                    raise InvalidValueError("non-finite training loss")
                epoch_loss += loss * (hi - lo)
            report.train_losses.append(epoch_loss / n_train)
        if n_val > 0:
            chunks = (_gather(x, perm[lo:min(lo + rows, n_val)], gathered, scaler)
                      for lo in range(0, n_val, rows))
            val = _heldout_loss(ensemble, chunks, n_val, buffers)
            if not np.isfinite(val):
                raise InvalidValueError("non-finite validation loss")
            report.val_loss = float(val)
    except InvalidValueError as exc:
        report.diverged = True
        report.message = f"{exc} at epoch {epoch}"
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

    def transform(self, observations: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Scale (n, channels, t) and flatten each row channel-major.

        ``out``, a float64 array shaped like the observations (it may be the
        observations themselves), takes the scaled values instead of a new
        array; the flattened rows are then a view into it.
        """
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 3:
            raise StructuralError(
                f"observations have shape {obs.shape}, expected (n, channels, t)")
        lo = self.lo[:, np.newaxis]
        span = (self.hi - self.lo)[:, np.newaxis]
        ok = span > 0
        # one (n, channels, t) array: (obs - lo) / span, 0.5 where constant
        scaled = np.subtract(obs, lo, out=out)
        np.divide(scaled, np.where(ok, span, 1.0), out=scaled)
        np.copyto(scaled, 0.5, where=~ok)
        return scaled.reshape(obs.shape[0], -1)


def _module_structure(ensemble: ModularAutoEncoderEnsemble) -> dict:
    """The checkpoint's description of one module; every module has it."""
    n_h = len(ensemble.hidden)

    def net_meta(sizes):
        return {
            "sizes": sizes,
            "activations": ["elu"] * n_h + ["sigmoid"],
            "dropouts": [ensemble.dropout] * n_h + [0.0],
        }

    sizes = [ensemble.input_dim, *ensemble.hidden, ensemble.latent_dim]
    return {"encoder": net_meta(sizes), "decoder": net_meta(sizes[::-1])}


def save_checkpoint(path, ensemble: ModularAutoEncoderEnsemble,
                    scaler: ObservationScaler,
                    quantile_transforms: dict[int, QuantileTransform] | None = None):
    """Write model parameters, input scaling and quantile landmarks to .npz.

    Layout: a ``structure`` JSON string describing each module's layer
    sizes, activations and dropouts and the diversity configuration, plus
    float64 arrays ``m{i}_{enc|dec}_{w|b}{l}``, ``scale_lo``/``scale_hi``
    and ``qt{cid}_landmarks``/``qt{cid}_levels``.  Values round-trip
    bit-exactly.
    """
    quantile_transforms = quantile_transforms or {}
    structure = {
        "diversity_kind": ensemble.diversity_kind,
        "diversity_weight": ensemble.diversity_weight,
        "diversity_sign": ensemble.diversity_sign,
        "modules": [_module_structure(ensemble)] * ensemble.n_modules,
        "qt_ids": sorted(quantile_transforms),
    }
    arrays = {"structure": np.array(json.dumps(structure, sort_keys=True))}
    for i, nets in enumerate(ensemble.nets):
        for tag, net in zip(("enc", "dec"), nets):
            for l, (w, b) in enumerate(net):
                arrays[f"m{i}_{tag}_w{l}"] = w
                arrays[f"m{i}_{tag}_b{l}"] = b
    arrays["scale_lo"] = scaler.lo
    arrays["scale_hi"] = scaler.hi
    for cid, qt in quantile_transforms.items():
        arrays[f"qt{cid}_landmarks"] = qt.landmarks
        arrays[f"qt{cid}_levels"] = qt.levels
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (ensemble, scaler, {cid: qt}).

    Raises StructuralError unless every module has the topology that
    ``ModularAutoEncoderEnsemble`` builds, the same for all.
    """
    with np.load(path, allow_pickle=False) as data:
        structure = json.loads(str(data["structure"]))
        modules = structure["modules"]
        encoder = modules[0]["encoder"]
        sizes = encoder["sizes"]
        ensemble = ModularAutoEncoderEnsemble(
            sizes[0], sizes[-1], len(modules), hidden=sizes[1:-1],
            dropout=encoder["dropouts"][0] if len(sizes) > 2 else 0.0,
            diversity_kind=structure["diversity_kind"],
            diversity_weight=structure["diversity_weight"],
            diversity_sign=structure["diversity_sign"],
        )
        if any(meta != _module_structure(ensemble) for meta in modules):
            raise StructuralError(
                "checkpoint modules must all share the encoder/decoder topology")
        for i, nets in enumerate(ensemble.nets):
            for tag, net in zip(("enc", "dec"), nets):
                for l, (w, b) in enumerate(net):
                    w[...] = data[f"m{i}_{tag}_w{l}"]
                    b[...] = data[f"m{i}_{tag}_b{l}"]
        scaler = ObservationScaler(data["scale_lo"], data["scale_hi"])
        qts = {
            int(cid): QuantileTransform(data[f"qt{cid}_landmarks"],
                                        data[f"qt{cid}_levels"])
            for cid in structure["qt_ids"]
        }
    return ensemble, scaler, qts
