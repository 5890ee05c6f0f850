import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcqd
from mcqd.autoencoder import ModularAutoEncoderEnsemble


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def build_toy_ensemble(n_modules=2, input_dim=6, latent_dim=2, hidden=(3,),
                       diversity_kind="none", diversity_weight=1.0,
                       diversity_sign=-1, seed=0, dropout=0.0):
    """Small randomly initialized ensemble for oracle and gradient tests."""
    rng = np.random.default_rng(seed)
    return ModularAutoEncoderEnsemble.build(
        input_dim=input_dim, latent_dim=latent_dim, n_modules=n_modules,
        hidden=hidden, dropout=dropout, diversity_kind=diversity_kind,
        diversity_weight=diversity_weight, diversity_sign=diversity_sign,
        rng=rng)


def poison_theta_after_epoch(monkeypatch, epoch):
    """Make every later training's parameters NaN once its ``epoch``
    (0-based) has taken its last Adam step: the step of the last block
    (module) of its last minibatch."""
    import mcqd.autoencoder as ae
    steps_per_epoch = []
    real_slices, real_step = ae._batch_slices, ae.Adam.step

    def batch_slices(n, batch_size):
        slices = real_slices(n, batch_size)
        steps_per_epoch.append(len(slices))
        return slices

    def step(self, grad, block=0):
        real_step(self, grad, block)
        last_block = (block + 1) * grad.size == self.theta.size
        if last_block and self.t == steps_per_epoch[-1] * (epoch + 1):
            self.theta[...] = np.nan

    monkeypatch.setattr(ae, "_batch_slices", batch_slices)
    monkeypatch.setattr(ae.Adam, "step", step)


def outputs_at_blas_threads(script: str, extra_env: dict | None = None) -> list[str]:
    """Standard output of ``python -c script`` in a fresh process at one and
    at two BLAS threads; BLAS reads its thread count once, when numpy loads.
    ``extra_env`` is added to both processes' environment only."""
    src = str(Path(mcqd.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                   PYTHONPATH=path, **(extra_env or {}))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    return outputs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid or report.when not in (None, "call"):
                continue
            name = nodeid.split("::")[-1]
            lines[name] = "PASS" if status == "passed" else status.upper()
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{lines[name]:>5}  {name}")
