"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Criteria 5 and 6 run the full desk-scale comparison at the package defaults:
about 13 s for criterion 5's 25 runs and 2 s for criterion 6, of about 16 s
for the module on a 2-vCPU machine. Everything else takes under a second.
"""

import csv
import io
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hdus.baselines import fedunl_replay
from hdus.data import gen_blobs, partition_noniid
from hdus.distill import DistillConfig, incubate_seed
from hdus.harness import (FRAMEWORKS, ExperimentConfig, build_partition,
                          make_engine, run_experiment, timeline_csv_text,
                          unlearn_demo, verify_unlearning)
from hdus.numeric import (MlpModel, MlpSpec, _train_stack, init_mlp,
                          kl_divergence, mlp_backward, mlp_forward, sgd_train,
                          softmax_temp, training_step_count)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _uncaptured_reporting(request):
    """Let report() write through pytest's fd-level capture, so the pass/fail
    lines show up even without -s."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}{tail}\n"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line


# --- shared small simulation setup -------------------------------------------

F, C = 6, 5


def small_partition(n_clients=5, seed=60):
    ds = gen_blobs(160, C, F, 0.5, np.random.default_rng(seed))
    return partition_noniid(ds, n_clients, 80, 0.2, np.random.default_rng(seed + 1))


def tiny_experiment(**kw) -> ExperimentConfig:
    base = dict(dataset="blobs", n_clients=4, rounds=3, repeats=1,
                blob_classes=5, blob_features=6, blob_samples_per_class=60,
                blob_spread=0.5, blob_components=2, ref_size=50,
                incubate_epochs=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_1_exact_unlearning_equivalence():
    """Unlearning any client j leaves every survivor bitwise equal to a
    control run in which j was retired before round 0 (`verify_unlearning`):
    main and own-seed parameters, repository ids in order, every repository
    seed's parameters, the prediction bytes and the logged accuracies."""
    t0 = time.monotonic()
    differ = [verify_unlearning(tiny_experiment(rounds=4, unlearn_round=2,
                                                unlearn_client=j))
              for j in range(4)]
    elapsed = time.monotonic() - t0
    report(1, "exact unlearning == never-participated control, bitwise",
           differ == [([], 0)] * 4 and elapsed <= 120.0,
           f"{sum(len(d) for d, _ in differ)} of 12 survivors differ, "
           f"{elapsed:.1f}s")


def test_criterion_2_zero_retraining_step_counter():
    """Step-counter delta during unlearning: exactly 0 for HDUS, ISGD and
    SISA-A, > 0 for DSGD and FedUnl recovery."""
    deltas = {}
    for fw in ("hdus", "isgd", "sisa_a", "dsgd", "fedunl"):
        cfg = tiny_experiment(framework=fw)
        part = build_partition(cfg, 0)
        eng = make_engine(cfg, part, 0)
        for r in range(2):
            eng.round(r)
        before = training_step_count()
        eng.unlearn(3)
        if fw in ("dsgd", "fedunl"):
            eng.round(2)      # recovery is where these retrain
        deltas[fw] = training_step_count() - before
    ok = (deltas["hdus"] == 0 and deltas["isgd"] == 0 and deltas["sisa_a"] == 0
          and deltas["dsgd"] > 0 and deltas["fedunl"] > 0)
    report(2, "unlearning performs zero training steps (HDUS, ISGD, SISA-A)", ok,
           ", ".join(f"{k}={v}" for k, v in deltas.items()))


def _central_differences(model, loss, h=1e-5) -> np.ndarray:
    """d loss / d params of `model`, one central difference per parameter."""
    theta = model.params
    probe = model.copy()
    fd = np.empty_like(theta)
    for i in range(theta.size):
        probe.params[i] = theta[i] + h
        up = loss(probe)
        probe.params[i] = theta[i] - h
        fd[i] = (up - loss(probe)) / (2 * h)
        probe.params[i] = theta[i]
    return fd


def _rel_err(g, fd) -> float:
    return float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))


def test_criterion_3_gradient_correctness():
    """Analytic CE and distillation gradients vs central finite differences,
    relative error <= 1e-4, on >= 10 random small MLPs: `mlp_backward`'s, and
    the step training runs, g = theta - theta' of one full-batch
    `_train_stack` step at lr = 1 (T = 1 toward one-hot targets, then T = 2
    toward the teacher), against losses built without `mlp_backward`:
    cross-entropy from `softmax_temp` and a log, and T^2 * `kl_divergence`."""
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(10):
        depth = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(2, 11)) for _ in range(depth + 1))
        model = init_mlp(MlpSpec(dims), rng)
        x = rng.normal(size=(5, dims[0]))
        onehot = np.eye(dims[-1])[rng.integers(0, dims[-1], size=5)]
        teacher = softmax_temp(rng.normal(size=(5, dims[-1])), 2.0)
        for kwargs in (dict(onehot=onehot),
                       dict(teacher_soft=teacher, temperature=2.0)):
            _, grads = mlp_backward(model, x, **kwargs)
            fd = _central_differences(model, lambda m: mlp_backward(m, x, **kwargs)[0])
            worst = max(worst, _rel_err(grads, fd))
        losses = {   # temperature -> (targets, loss)
            1.0: (onehot, lambda m: -np.log(
                softmax_temp(mlp_forward(m, x), 1.0)[onehot == 1]).mean()),
            2.0: (teacher, lambda m: 4.0 * kl_divergence(
                teacher, softmax_temp(mlp_forward(m, x), 2.0)))}
        for T, (targets, loss) in losses.items():
            stack = MlpModel(model.spec, model.params[np.newaxis].copy())
            _train_stack(stack, x[np.newaxis], targets[np.newaxis], T, epochs=1,
                         lr=1.0, batch_size=5, rngs=[np.random.default_rng(trial)])
            worst = max(worst, _rel_err(model.params - stack.params[0],
                                        _central_differences(model, loss)))
    elapsed = time.monotonic() - t0
    report(3, "analytic gradients match finite differences",
           worst <= 1e-4 and elapsed <= 30.0,
           f"worst rel err = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_tempered_softmax_properties():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=4.0, size=(64, 9))
    ok = True
    for T in (0.5, 1.0, 3.0, 10.0):
        p = softmax_temp(logits, T)
        ok &= bool(np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12)
        ok &= bool(np.array_equal(p.argmax(axis=1), logits.argmax(axis=1)))
    # T=1 is the standard softmax
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    ok &= bool(np.abs(softmax_temp(logits, 1.0) - e / e.sum(axis=1, keepdims=True)).max() <= 1e-12)
    # scale identity: softmax(c*d, c*T) == softmax(d, T)
    for c in (0.25, 3.0, 17.0):
        diff = np.abs(softmax_temp(c * logits, c * 2.0)
                      - softmax_temp(logits, 2.0)).max()
        ok &= bool(diff <= 1e-12)
    report(4, "tempered softmax: normalization, T=1, argmax, scale identity", ok)


@pytest.fixture(scope="module")
def comparison_reports():
    cfg = ExperimentConfig(repeats=5)     # package defaults, 5 seeds
    return {fw: run_experiment(replace(cfg, framework=fw)) for fw in FRAMEWORKS}


def test_criterion_5_directional_accuracy_comparison(comparison_reports):
    """Heterogeneous trend: HDUS beats ISGD by >= 1 point and beats every
    baseline constrained to the smallest tier."""
    means = {fw: rep.mean() for fw, rep in comparison_reports.items()}
    ok = (means["hdus"] - means["isgd"] >= 0.01
          and all(means["hdus"] > means[fw]
                  for fw in ("dsgd", "fedunl", "sisa_a")))
    report(5, "HDUS outperforms all baselines (heterogeneous, 5 seeds)", ok,
           ", ".join(f"{k}={v:.4f}" for k, v in means.items()))


def test_criterion_6_unlearning_timeline_shapes():
    """Recovery-curve shapes, verified from timeline.csv content: HDUS/SISA-A
    continuous across t=0; DSGD resets to ~chance then recovers; FedUnl dips
    then recovers."""
    cfg = ExperimentConfig(rounds=30, unlearn_round=20, unlearn_client=4)
    reports = unlearn_demo(cfg)
    rows = list(csv.DictReader(io.StringIO(timeline_csv_text(reports))))
    acc = {(r["framework"], int(r["t"])): float(r["mean_accuracy"])
           for r in rows}
    last_t = cfg.rounds - 1 - cfg.unlearn_round
    chance = 1.0 / cfg.blob_classes
    checks = {
        "hdus continuous": abs(acc[("hdus", 0)] - acc[("hdus", -1)]) <= 0.03,
        "sisa continuous": abs(acc[("sisa_a", 0)] - acc[("sisa_a", -1)]) <= 0.03,
        "dsgd resets to chance": abs(acc[("dsgd", 0)] - chance) <= 0.10,
        "dsgd recovers": acc[("dsgd", last_t)] >= acc[("dsgd", 0)] + 0.15,
        "fedunl dips": acc[("fedunl", 0)] <= acc[("fedunl", -1)] - 0.02,
        "fedunl recovers": acc[("fedunl", last_t)] >= acc[("fedunl", 0)] + 0.02,
    }
    report(6, "unlearning timeline shapes", all(checks.values()),
           "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_7_seed_isolated_from_local_labels():
    """Incubated seed parameters are bitwise invariant to permuting the
    client's local labels, everything else held fixed."""
    part = small_partition(3, seed=70)
    local = part.client_splits[0]
    main = init_mlp(MlpSpec((F, 16, C)), np.random.default_rng(0))
    sgd_train(main, local.features, local.labels, C, epochs=3, lr=0.05,
              batch_size=32, rng=np.random.default_rng(1))
    cfg = DistillConfig(epochs=3)
    a = incubate_seed(main, MlpSpec((F, 8, C)), part.reference, cfg,
                      np.random.default_rng(2))
    perm = np.random.default_rng(3).permutation(len(local))
    local.labels = local.labels[perm]      # scramble labels in place
    b = incubate_seed(main, MlpSpec((F, 8, C)), part.reference, cfg,
                      np.random.default_rng(2))
    ok = np.array_equal(a.params, b.params)
    report(7, "incubated seed bitwise invariant to local-label permutation", ok)


def test_criterion_8_byte_identical_event_logs():
    ok = True
    for fw in FRAMEWORKS:
        cfg = tiny_experiment(framework=fw, rounds=4, unlearn_round=2,
                              unlearn_client=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        ta = "".join(r.event_log.to_csv_text() for r in a.repeats)
        tb = "".join(r.event_log.to_csv_text() for r in b.repeats)
        ok &= (ta == tb) and a.config_hash == b.config_hash
    report(8, "identical config + seed give byte-identical event logs", ok)


def test_criterion_9_fedunl_replay_and_inexactness():
    cfg = tiny_experiment(framework="fedunl", unlearn_round=2, unlearn_client=2)
    eng = make_engine(cfg, build_partition(cfg, 0), 0)
    initial = eng.server.global_model.copy()
    for r in range(3):
        eng.round(r)
    replay_err = float(np.abs(fedunl_replay(eng.server, initial).params
                              - eng.server.global_model.params).max())
    differ, _ = verify_unlearning(cfg)
    ok = replay_err <= 1e-10 and differ == [0, 1, 3]
    report(9, "FedUnl ledger replays exactly; subtraction is inexact", ok,
           f"replay err = {replay_err:.2e}, {len(differ)} of 3 survivors "
           f"differ from the never-joined control")


def _audit_partition(part, n_clients, class_count, expected_size=None):
    groups = [set(map(int, ci)) for ci in part.client_indices]
    all_rows = set().union(*groups)
    ok = sum(len(g) for g in groups) == len(all_rows)           # disjoint
    sizes = [len(s) for s in part.client_splits]
    ok &= (max(sizes) - min(sizes) <= 1) if expected_size is None \
        else all(s == expected_size for s in sizes)
    ok &= len(set(part.omitted_class)) == n_clients             # distinct omissions
    for split, omitted in zip(part.client_splits, part.omitted_class):
        present = set(np.unique(split.labels))
        ok &= omitted not in present
        ok &= len(present) == class_count - 1                   # covers C-1 classes
    return ok


def test_criterion_10_noniid_partition_audit():
    # blobs: unconditional structural audit
    part = small_partition(5, seed=90)
    ok = _audit_partition(part, 5, C)
    detail = "blobs ok"
    # MNIST: only when IDX files are available locally
    mnist_dir = next((d for d in ("data/mnist", "/root/data/mnist")
                      if os.path.isdir(d)), None)
    if mnist_dir is not None:
        cfg = ExperimentConfig(dataset="mnist", data_dir=os.path.dirname(mnist_dir)
                               or ".", n_clients=6, ref_size=1000,
                               test_fraction=21000 / 69000)
        mpart = build_partition(cfg, 0)
        ok &= _audit_partition(mpart, 6, 10, expected_size=8000)
        detail += ", mnist ok"
    else:
        detail += ", mnist skipped (no IDX files)"
    report(10, "non-IID partition audit", ok, detail)
