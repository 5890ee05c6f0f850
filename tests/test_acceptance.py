"""Acceptance suite: one test per criterion, pass/fail summarized at exit.

The directional criteria (4, 5, 12) share a battery of desk-scale searches
on the locomotion surrogate (4 containers of 10x10, 500 init evaluations,
5000 search evaluations, 5 paired seeds per case), built once per session.
Per-replicate scores are the run means over all logged snapshots, which is
what smooths the sawtooth the periodic reindexing produces.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from mcqd.autoencoder import backward, d_corr
from mcqd.config import (
    DiversitySection,
    GridSpec,
    MutationSection,
    SearchSection,
    TrainingSection,
    build_preset,
)
from mcqd.core import GridContainer
from mcqd.engine import (
    Engine,
    mutate_polynomial,
    select_curiosity_roulette,
)
from mcqd.metrics import MetricSnapshot, kl_coverage, snapshot
from mcqd.postprocess import QuantileTransform
from mcqd.runner import _one_blas_thread, run_experiment
from mcqd.tasks import make_task

from conftest import build_toy_ensemble
from reference_losses import _outputs_value, _recons_value, forward_all
from test_autoencoder import (
    brute_cmd,
    brute_cov,
    brute_d_corr,
    brute_outputs,
    brute_recons,
    finite_difference_grads,
)
from test_engine import polynomial_mutation_cdf
from test_metrics import PassThroughExtractor, depot_of

DESK_SEEDS = tuple(range(2000, 2005))


# ---------------------------------------------------------------------------
# Shared desk-scale battery
# ---------------------------------------------------------------------------

@dataclass
class DeskRun:
    snaps: list[MetricSnapshot]
    reindex_records: list[dict] = field(default_factory=list)
    integrity_ok: bool = True

    def mean_of(self, name):
        values = [getattr(s, name) for s in self.snaps]
        return float(np.mean([v for v in values if v is not None]))


def run_desk_search(fd_type, sharing, diversity=("none", 1.0, -1), seed=0,
                    n_containers=4):
    task = make_task("surrogate_walker", {"episode_steps": 150, "obs_window": 15})
    grids = [GridSpec(shape=(10, 10), fd=fd_type) for _ in range(n_containers)]
    if fd_type == "hardcoded":
        strategy = "none"
    else:
        strategy = "online"
    kind, weight, sign = diversity
    engine = Engine(
        task=task, grids=grids,
        search=SearchSection(sharing=sharing, initialization_budget=500,
                             evaluation_budget=5000),
        training=TrainingSection(
            strategy=strategy, period=500, epochs=50, learning_rate=0.01,
            batch_size=1024, quantiles=1000,
            diversity=DiversitySection(kind=kind, weight=weight, sign=sign)),
        seed=seed)
    engine.initialize()
    bounds = task.definition.fitness_bounds
    run = DeskRun(snaps=[snapshot(0, engine.containers, engine.depot, bounds)])
    for i in range(1, 11):
        engine.run_batch(500)
        pre = {c.container_id: c.occupancy for c in engine.containers}
        report = engine.maybe_retrain()
        if report is not None and not report.diverged:
            for r in report.reindex:
                run.reindex_records.append({
                    "container_id": r.container_id, "retained": r.retained,
                    "dropped": r.dropped, "pre": pre[r.container_id],
                    "post": engine.containers[r.container_id].occupancy,
                })
            for c in engine.containers:
                fd = engine.depot.fds[c.container_id][c.rows()]
                run.integrity_ok &= np.array_equal(c.cells(fd), c.order)
                run.integrity_ok &= c.occupancy <= c.capacity
        run.snaps.append(snapshot(i, engine.containers, engine.depot, bounds))
    return run


@pytest.fixture(scope="session")
def desk_battery():
    cases = {
        "qt_shared": ("ae_qt", "shared", ("none", 1.0, -1)),
        "raw_shared": ("ae", "shared", ("none", 1.0, -1)),
        "qt_ns": ("ae_qt", "non_shared", ("none", 1.0, -1)),
        "outputs_ns": ("ae_qt", "non_shared", ("outputs", 1.0, -1)),
        "cmd_ns": ("ae_qt", "non_shared", ("cmd", 1.0, -1)),
    }
    battery = {}
    # Minibatches of up to 1024 rows: outside a replicate, one BLAS thread
    # keeps the searches' bits independent of the machine's core count.
    with _one_blas_thread():
        for name, (fd, sharing, diversity) in cases.items():
            battery[name] = [run_desk_search(fd, sharing, diversity, seed=s)
                             for s in DESK_SEEDS]
        battery["single"] = [run_desk_search("hardcoded", "shared",
                                             seed=DESK_SEEDS[0], n_containers=1)]
    return battery


@pytest.fixture(scope="session")
def determinism_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    config = build_preset("qt-reco-4-ns", desk=True, seed=7, replicates=1)
    paths = {}
    for label in ("first", "second"):
        result = run_experiment(config, root / label)
        assert not result.failed
        paths[label] = result.run_dir / "rep_000"
    return paths


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_c01_gradient_correctness():
    """All loss variants: analytic gradients vs central finite differences."""
    start = time.time()
    variants = [("none", -1)] + [(k, s) for k in ("outputs", "cov", "cmd")
                                 for s in (-1, 1)]
    for kind, sign in variants:
        for seed in range(20):
            m = 1 + seed % 3
            ens = build_toy_ensemble(n_modules=m, input_dim=6, latent_dim=2,
                                     hidden=(3,), diversity_kind=kind,
                                     diversity_sign=sign, seed=1000 + seed)
            x = np.random.default_rng(2000 + seed).random((5, 6))
            loss, analytic = backward(ens, x)
            assert np.isfinite(loss)
            numeric = finite_difference_grads(ens, x)
            for a, f in zip(analytic, numeric):
                rel = np.abs(a - f) / (np.abs(f) + 1e-8)
                assert rel.max() < 1e-4, (kind, sign, seed, rel.max())
    assert time.time() - start < 60.0


def test_c02_loss_oracles():
    """Vectorized losses vs brute-force scalar loops, 50 random batches: the
    reference loss terms, and the combined loss of every diversity kind as
    the training step (``backward``) and the held-out score
    (``_heldout_loss``, one chunk) compute it."""
    start = time.time()
    from mcqd.autoencoder import (_cmd_term, _cov_term, _heldout_loss,
                                  _output_buffers)
    rng = np.random.default_rng(0)
    for trial in range(50):
        m = 1 + trial % 3
        kind = ("none", "outputs", "cov", "cmd")[trial % 4]
        ens = build_toy_ensemble(n_modules=m, input_dim=5, latent_dim=2,
                                 hidden=(3,), diversity_kind=kind,
                                 diversity_sign=(-1, 1)[trial % 2],
                                 seed=3000 + trial)
        x = rng.random((2 + trial % 6, 5))
        zs, ys, _, _ = forward_all(ens, x)
        assert abs(_recons_value(x, ys) - brute_recons(x, ys)) < 1e-10
        assert abs(_outputs_value(ys) - brute_outputs(ys)) < 1e-10
        assert abs(_cov_term(zs, False)[0] - brute_cov(zs)) < 1e-10
        assert abs(_cmd_term(zs, False)[0] - brute_cmd(zs)) < 1e-10
        div = {"none": 0.0, "outputs": brute_outputs(ys), "cov": brute_cov(zs),
               "cmd": brute_cmd(zs)}[kind]
        want = brute_recons(x, ys) + ens.diversity_sign * ens.diversity_weight * div
        loss, _ = backward(ens, x, train=False)
        assert abs(loss - want) < 1e-10
        held_out = _heldout_loss(ens, [x], len(x), _output_buffers(ens, len(x)))
        assert abs(held_out - want) < 1e-10
        for i in range(m):
            for j in range(m):
                if i != j:
                    r_i = np.corrcoef(zs[i], rowvar=False)
                    r_j = np.corrcoef(zs[j], rowvar=False)
                    assert abs(d_corr(r_i, r_j) -
                               brute_d_corr(r_i, r_j)) < 1e-10
    assert abs(d_corr(np.eye(2), np.ones((2, 2))) -
               (1.0 - 1.0 / np.sqrt(2.0))) < 1e-12
    assert time.time() - start < 60.0


def test_c03_quantile_uniformization():
    """KS distance to uniform <= 0.02 on the training set; monotone, in [0,1]."""
    start = time.time()
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(10_000, 2))
    qt = QuantileTransform.fit(samples, 1000)
    transformed = qt.apply(samples)
    for dim in range(2):
        values = np.sort(transformed[:, dim])
        n = len(values)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - values)),
                 np.max(np.abs(grid - 1.0 / n - values)))
        assert ks <= 0.02, ks
    probes = np.sort(rng.normal(scale=2.0, size=(100_000, 2)), axis=0)
    out = qt.apply(probes)
    assert np.all(np.diff(out, axis=0) >= 0.0)  # monotone per dimension
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert time.time() - start < 60.0


def test_c04_qt_coverage_effect(desk_battery):
    """AE+QT beats raw AE on run-mean coverage in >= 4 of 5 paired seeds."""
    qt = [r.mean_of("coverage_pct") for r in desk_battery["qt_shared"]]
    raw = [r.mean_of("coverage_pct") for r in desk_battery["raw_shared"]]
    wins = sum(q > r for q, r in zip(qt, raw))
    print(f"\n  qt coverage {np.round(qt, 1)} vs raw {np.round(raw, 1)}: "
          f"wins {wins}/5")
    assert wins >= 4


def test_c05_sharing_redundancy_ordering(desk_battery):
    """Shared strategy exceeds non-shared on run-mean redundancy, >= 4/5."""
    shared = [r.mean_of("redundancy") for r in desk_battery["qt_shared"]]
    ns = [r.mean_of("redundancy") for r in desk_battery["qt_ns"]]
    wins = sum(s > n for s, n in zip(shared, ns))
    print(f"\n  shared redundancy {np.round(shared, 3)} vs non-shared "
          f"{np.round(ns, 3)}: wins {wins}/5")
    assert wins >= 4


def test_c06_metric_identities(desk_battery):
    """Snapshot identities on every logged snapshot of every desk run."""
    all_runs = [run for runs in desk_battery.values() for run in runs]
    assert all_runs
    for run in all_runs:
        best_so_far = None
        for snap in run.snaps:
            assert snap.unique_qd_score <= snap.qd_score + 1e-12
            assert snap.unique_coverage_pct <= snap.coverage_pct + 1e-12
            assert 0.0 <= snap.coverage_pct <= 100.0
            if snap.best_fitness is not None:
                if best_so_far is not None:
                    assert snap.best_fitness >= best_so_far
                best_so_far = snap.best_fitness
    for run in desk_battery["single"]:
        for snap in run.snaps:
            assert snap.redundancy == 0.0
            assert snap.unique_qd_score == snap.qd_score
            assert snap.unique_coverage_pct == snap.coverage_pct


def test_c07_kl_coverage_identities():
    """KLC(X, X) ~ 0, hand-oracle agreement, asymmetry on a constructed pair."""
    extractors = [PassThroughExtractor([0, 1])]

    def solutions(points):
        return depot_of(points).observations

    rng = np.random.default_rng(2)
    xs = solutions(rng.random((500, 2)))
    assert kl_coverage(xs, xs, extractors) <= 1e-6

    ref = solutions([(0.05 + 0.1 * k, 0.05) for k in range(10)])
    conc = solutions([(0.05, 0.05)] * 10)

    def hand_kl(p_counts, q_counts, eps=1e-9):
        p = np.asarray(p_counts, float) + eps
        q = np.asarray(q_counts, float) + eps
        p, q = p / p.sum(), q / q.sum()
        return float(np.sum(p * np.log(p / q)))

    expected = (hand_kl([1] * 10, [10] + [0] * 9)
                + hand_kl([10] + [0] * 9, [10] + [0] * 9))
    got = kl_coverage(ref, conc, extractors)
    assert abs(got - expected) <= 1e-9
    assert kl_coverage(ref, conc, extractors) != kl_coverage(conc, ref, extractors)


def test_c08_determinism(determinism_runs):
    """Byte-identical logs and snapshots across reruns."""
    reference = {name: (determinism_runs["first"] / name).read_bytes()
                 for name in ("metrics.csv", "containers.jsonl")}
    for name, blob in reference.items():
        assert (determinism_runs["second"] / name).read_bytes() == blob, name


def test_c09_mutation_operator():
    """KS <= 0.01 against the analytic CDF; bounds hold over 1e6 mutations."""
    start = time.time()
    cfg = MutationSection(probability=1.0, eta=20.0)
    rng = np.random.default_rng(3)
    n = 100_000
    samples = np.sort(mutate_polynomial(np.full(n, 0.5), cfg, (0.0, 1.0), rng))
    grid = np.arange(1, n + 1) / n
    cdf = np.array([polynomial_mutation_cdf(s, 0.5, 0.0, 1.0, 20.0)
                    for s in samples])
    ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - grid + 1.0 / n)))
    assert ks < 0.01, ks

    big = np.full(1_000_000, 0.0)
    cfg_edge = MutationSection(probability=1.0, eta=20.0)
    mutated = mutate_polynomial(big, cfg_edge, (-1.0, 1.0), rng)
    assert np.all(mutated >= -1.0) and np.all(mutated <= 1.0)
    mutated = mutate_polynomial(np.full(1_000_000, 1.0), cfg_edge, (-1.0, 1.0), rng)
    assert np.all(mutated >= -1.0) and np.all(mutated <= 1.0)
    assert time.time() - start < 60.0


def test_c10_reindexing_conservation(desk_battery):
    """Every retrain conserves occupancy and preserves the grid invariants."""
    records = [rec for runs in desk_battery.values() for run in runs
               for rec in run.reindex_records]
    assert records, "no retrain fired in the desk battery"
    for rec in records:
        assert rec["retained"] + rec["dropped"] == rec["pre"]
        assert rec["post"] == rec["retained"]
    assert all(run.integrity_ok for runs in desk_battery.values()
               for run in runs)


def test_c11_curiosity_roulette():
    """Selection frequencies track score proportions within 2% over 1e5 draws."""
    from test_core import make_depot, offer
    container = GridContainer(0, (10, 10))
    scores = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    depot = make_depot([1.0] * len(scores),
                       [[[0.05 + 0.1 * k, 0.5] for k in range(len(scores))]],
                       curiosity=scores)
    for row in range(len(scores)):
        offer(container, depot, row)
    n = 100_000
    draws = np.random.default_rng(4).random(n)
    counts = np.bincount(select_curiosity_roulette(container, depot.curiosity, draws),
                         minlength=len(scores))
    total = sum(scores)
    for k, score in enumerate(scores):
        assert abs(counts[k] / n - score / total) <= 0.02


def test_c12_diversity_loss_effect(desk_battery):
    """A diversity term (outputs or cmd, weight 1) lowers run-mean FD
    correlation vs weight 0 in >= 4 of 5 paired seeds.

    Both kinds are run and reported.  The outputs form carries the effect
    robustly.  The cmd form cannot be relied on with 2-D latents: over 2x2
    correlation matrices, maximizing the pairwise correlation-matrix
    distance has its optimum at internal correlations of +1/-1, which
    saturates within-module |r| and inflates the mean it is meant to lower.
    """
    base = [r.mean_of("fd_abs_corr") for r in desk_battery["qt_ns"]]
    wins = {}
    for kind in ("outputs", "cmd"):
        div = [r.mean_of("fd_abs_corr") for r in desk_battery[f"{kind}_ns"]]
        wins[kind] = sum(d < b for d, b in zip(div, base))
        print(f"\n  {kind}: fd-corr {np.round(div, 3)} vs base "
              f"{np.round(base, 3)}: wins {wins[kind]}/5")
    assert max(wins.values()) >= 4, wins
