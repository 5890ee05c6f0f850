"""Reference losses of the auto-encoder ensemble, from plain forward passes.

No run executes these.  ``autoencoder.backward`` computes the training loss
fused with the decoders' output layer, and the tests check it against
``combined_loss`` bit for bit.  ``forward_all`` runs every module in
inference mode, and each loss is a formula over the latents and
reconstructions it returns.
"""
import numpy as np

from mcqd.autoencoder import (
    ModularAutoEncoderEnsemble,
    _as_batch,
    _cmd_term,
    _cov_term,
    _diversity_kind,
    net_forward,
)


def parameters(ensemble) -> list[np.ndarray]:
    """Every weight and bias view, in ``theta`` order."""
    return [p for enc, dec in ensemble.nets for layer in enc + dec for p in layer]


def forward_all(ensemble, x: np.ndarray):
    """Forward every module, inference mode; returns (zs, ys, enc_caches,
    dec_caches)."""
    zs, ys, enc_caches, dec_caches = [], [], [], []
    for enc, dec in ensemble.nets:
        z, ec = net_forward(enc, x)
        y, dc = net_forward(dec, z)
        zs.append(z)
        ys.append(y)
        enc_caches.append(ec)
        dec_caches.append(dc)
    return zs, ys, enc_caches, dec_caches


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


def loss_recons(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Mean over modules of per-module mean squared reconstruction error."""
    x = _as_batch(batch)
    _, ys, _, _ = forward_all(ensemble, x)
    return _recons_value(x, ys)


def loss_outputs(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Mean squared deviation of each module's output from the ensemble mean."""
    x = _as_batch(batch)
    _, ys, _, _ = forward_all(ensemble, x)
    return _outputs_value(ys)


def loss_cov(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Sum of |off-diagonal| covariance over all modules' concatenated latents."""
    x = _as_batch(batch)
    zs, _, _, _ = forward_all(ensemble, x)
    return _cov_term(zs, need_grads=False)[0]


def loss_cmd(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """Sum over ordered module pairs of their correlation-matrix distance."""
    x = _as_batch(batch)
    zs, _, _, _ = forward_all(ensemble, x)
    return _cmd_term(zs, need_grads=False)[0]


def combined_loss(ensemble: ModularAutoEncoderEnsemble, batch) -> float:
    """recons + sign * weight * diversity; bit-identical to recons when inactive."""
    x = _as_batch(batch)
    zs, ys, _, _ = forward_all(ensemble, x)
    return _combined_value(ensemble, x, zs, ys)


def _combined_value(ensemble, x, zs, ys) -> float:
    value = _recons_value(x, ys)
    kind = _diversity_kind(ensemble)
    if kind == "none":
        return value
    if kind == "outputs":
        div = _outputs_value(ys)
    elif kind == "cov":
        div = _cov_term(zs, need_grads=False)[0]
    else:
        div = _cmd_term(zs, need_grads=False)[0]
    return value + ensemble.diversity_sign * ensemble.diversity_weight * div
