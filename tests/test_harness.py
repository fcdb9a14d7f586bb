import csv
import gzip
import io
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hdus.harness as harness
from hdus import baselines as bl
from hdus import cli
from hdus.cli import main as cli_main
from hdus.data import MAX_BLOB_ENTRIES
from hdus.ensemble import add_neighbor_seed, unlearn_neighbor
from hdus.errors import ConfigError, DivergenceError, StateError
from hdus.harness import (CONFIG_KEYS, FRAMEWORKS, ExperimentConfig,
                          build_dataset, build_partition, emit_metrics,
                          load_config, make_engine, run_experiment, sweep,
                          summary_csv_text, timeline_csv_text, unlearn_demo,
                          verify_unlearning)
from hdus.numeric import TIERS
from test_data import make_idx


def tiny(**kw) -> ExperimentConfig:
    """Desk-scale config that keeps each run well under a second."""
    base = dict(dataset="blobs", n_clients=4, rounds=2, repeats=1,
                blob_classes=5, blob_features=6, blob_samples_per_class=60,
                blob_spread=0.5, blob_components=2, ref_size=50,
                incubate_epochs=1, local_epochs=1)
    base.update(kw)
    return ExperimentConfig(**base)


# --- config -----------------------------------------------------------------

def _key(e: ConfigError) -> str:
    return str(e).partition(":")[0]


def test_validate_catches_bad_fields():
    for bad in (dict(framework="sgd"), dict(dataset="cifar"),
                dict(ensemble_lambda=1.0), dict(temperature=0),
                dict(rounds=0), dict(unlearn_round=1),
                dict(unlearn_round=5, unlearn_client=0, rounds=3),
                dict(unlearn_round=1, unlearn_client=9),
                dict(setting="mixed"), dict(dataset="mnist"),
                dict(ref_size=0), dict(ref_size=-1), dict(test_fraction=-0.5),
                dict(test_fraction=1.0), dict(blob_samples_per_class=-3),
                dict(blob_spread=-1.0), dict(blob_components=-1),
                dict(blob_components=0), dict(incubate_every_rounds=0),
                dict(incubate_every_rounds=-1), dict(master_seed=-1),
                dict(incubate_epochs=0), dict(n_clients=6), dict(n_clients=1),
                dict(dataset="mnist", data_dir="idx", n_clients=11),
                dict(blob_classes=1, n_clients=1), dict(blob_features=1),
                dict(blob_features=3), dict(ref_size=300),
                dict(ref_size=100000),
                dict(blob_classes=6, blob_features=4, ref_size=356),
                dict(lr=-1.0), dict(incubate_lr=-1.0), dict(unlearn_client=1)):
        with pytest.raises(ConfigError) as e:
            tiny(**bad).validate()
        assert _key(e.value) in CONFIG_KEYS, e.value
    tiny().validate()
    # At both bounds: 12 clusters fill the grid of 4 features, and the 5 rows
    # left after the reference set make 1 test row and 1 training row per client.
    tiny(blob_classes=6, blob_features=4, ref_size=355).validate()
    # IDX pool sizes are checked at run time, once the files load.
    tiny(dataset="mnist", data_dir="idx", ref_size=100000).validate()


# Extreme finite floats inside each field's domain ...
_RATES = st.sampled_from([0.0, 5e-324, 1e-8, 0.05, 0.5, 1e8, 1e100, 1e300])
_TEMPERATURES = st.sampled_from([5e-324, 1e-300, 0.5, 3.0, 1e8, 1e300])
_LAMBDAS = st.sampled_from([0.0, 5e-324, 0.3, 0.6, 1 - 2**-53])
_SPREADS = st.sampled_from([0.0, 5e-324, 0.5, 1e8, 1e100])
_FRACTIONS = st.sampled_from([5e-324, 0.1, 0.2, 0.3, 0.5, 1 - 2**-53])
# ... and values just outside it, one of which may replace a drawn value.
_OUTSIDE = {"n_clients": [1, 0], "blob_classes": [1, 0], "blob_features": [1, 0],
            "blob_components": [0, -1], "blob_samples_per_class": [0, -1],
            "ref_size": [0, -1], "test_fraction": [0.0, 1.0], "rounds": [0],
            "lr": [-5e-324, -1e300], "incubate_lr": [-5e-324],
            "temperature": [0.0, -5e-324], "ensemble_lambda": [1.0, -5e-324],
            "blob_spread": [1e300, -5e-324], "batch_size": [0],
            "local_epochs": [-1], "incubate_epochs": [0],
            "incubate_every_rounds": [0], "master_seed": [-1],
            "unlearn_client": [None, -1]}
# Sizes that may be drawn huge instead. `validate` rejects a blob pool over
# MAX_BLOB_ENTRIES; one under it that passes is not run, as it would be slow.
_HUGE = ("blob_samples_per_class", "blob_features", "n_clients")


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blob_configs_validate_or_run_cleanly(data):
    """Every blob config either fails `validate` with a keyed ConfigError, or
    runs one round to finite accuracies, a DivergenceError or a keyed
    ConfigError; no other exception and no warning."""
    draw = data.draw
    classes = draw(st.integers(2, 5), label="blob_classes")
    n_clients = draw(st.integers(2, classes), label="n_clients")
    quitter = draw(st.none() | st.integers(0, n_clients - 1), label="unlearn_client")
    components = draw(st.integers(1, 2), label="blob_components")
    # The smallest grid that holds every cluster, and the fewest rows per
    # class that leave a test row and a training row per client.
    grid = next(f for f in range(2, 7) if f * (f - 1) >= components * classes)
    ref_size = draw(st.integers(1, 12), label="ref_size")
    per_class = -(-(ref_size + 1 + n_clients) // classes)
    cfg = ExperimentConfig(
        framework=draw(st.sampled_from(FRAMEWORKS)),
        setting=draw(st.sampled_from(["homogeneous", "heterogeneous"])),
        seed_tier=draw(st.sampled_from(sorted(TIERS))),
        combine=draw(st.sampled_from(["proba", "logits"])),
        n_clients=n_clients, blob_classes=classes,
        blob_features=draw(st.integers(grid, 6), label="blob_features"),
        blob_components=components,
        blob_samples_per_class=draw(st.integers(per_class, per_class + 8),
                                    label="blob_samples_per_class"),
        blob_spread=draw(_SPREADS, label="blob_spread"),
        ref_size=ref_size,
        test_fraction=draw(_FRACTIONS, label="test_fraction"),
        lr=draw(_RATES, label="lr"), incubate_lr=draw(_RATES, label="incubate_lr"),
        temperature=draw(_TEMPERATURES, label="temperature"),
        ensemble_lambda=draw(_LAMBDAS, label="ensemble_lambda"),
        batch_size=draw(st.integers(1, 40), label="batch_size"),
        local_epochs=draw(st.integers(0, 2), label="local_epochs"),
        incubate_epochs=draw(st.integers(1, 2), label="incubate_epochs"),
        incubate_every_rounds=draw(st.integers(1, 2), label="incubate_every_rounds"),
        rounds=1, unlearn_round=None if quitter is None else 0, unlearn_client=quitter,
        master_seed=draw(st.sampled_from([0, 1, 2**32, 2**63 - 1]), label="master_seed"))
    # About one draw in four puts one field out of its domain.
    outside = (draw(st.sampled_from(sorted(_OUTSIDE)), label="outside")
               if draw(st.integers(0, 3), label="out of domain") == 0 else None)
    huge = outside in _HUGE and draw(st.booleans(), label="huge")
    if huge:
        cfg = replace(cfg, **{outside: draw(st.integers(10**5, 10**15), label="size")})
    elif outside is not None:
        cfg = replace(cfg, **{outside: draw(st.sampled_from(_OUTSIDE[outside]), label="value")})
    try:
        cfg.validate()
    except ConfigError as e:
        event("rejected by validate")
        assert _key(e) in CONFIG_KEYS, e
        return
    if huge:
        assert cfg.blob_classes * cfg.blob_samples_per_class * cfg.blob_features \
            <= MAX_BLOB_ENTRIES
        return
    try:
        report = run_experiment(cfg)
    except DivergenceError:
        event("diverged")
        return
    except ConfigError as e:
        event("rejected at build time")
        assert _key(e) in CONFIG_KEYS, e
        return
    event("ran")
    points = [p.mean_accuracy for r in report.repeats for p in r.timeline]
    assert np.isfinite(points + report.final_accuracies()).all()


def _sized_by_setting(cfg: ExperimentConfig) -> list[str]:
    """The mains' tiers by `setting` alone: homogeneous runs are all large;
    heterogeneous hdus and isgd spread the clients over the three tiers, the
    remainder to the larger ones, and dsgd, fedunl and sisa_a are all small."""
    n = cfg.n_clients
    if cfg.setting == "homogeneous":
        return ["large"] * n
    if cfg.framework in ("dsgd", "fedunl", "sisa_a"):
        return ["small"] * n
    base, extra = divmod(n, 3)
    return (["small"] * base + ["medium"] * (base + (extra == 2))
            + ["large"] * (base + (extra >= 1)))


def test_client_tiers_spread():
    assert tiny(n_clients=5, setting="heterogeneous").client_tiers() == \
        ["small", "medium", "medium", "large", "large"]
    assert tiny(n_clients=6, setting="heterogeneous").client_tiers() == \
        ["small", "small", "medium", "medium", "large", "large"]
    assert tiny(n_clients=3, setting="homogeneous").client_tiers() == ["large"] * 3
    for fw in FRAMEWORKS:
        for setting in ("homogeneous", "heterogeneous"):
            for n in range(2, 6):
                cfg = tiny(framework=fw, setting=setting, n_clients=n)
                cfg.validate()
                assert cfg.client_tiers() == _sized_by_setting(cfg), (fw, setting, n)


def test_config_hash_stable_and_sensitive():
    a, b = tiny(), tiny()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 16
    assert a.config_hash() != tiny(ensemble_lambda=0.31).config_hash()
    # output_path is excluded from the hash
    assert a.config_hash() == tiny(output_path="/tmp/x").config_hash()


def test_load_config_file(tmp_path):
    p = tmp_path / "exp.conf"
    p.write_text("# comment\nframework = dsgd\nlambda = 0.25\nrounds = 3\n"
                 "dataset = blobs\nlr = 1\n")
    cfg = load_config(p)
    assert cfg.framework == "dsgd"
    assert cfg.ensemble_lambda == 0.25
    assert cfg.rounds == 3
    # an int written for a float field is read as that float
    assert type(cfg.lr) is float
    assert cfg.config_hash() == ExperimentConfig(
        framework="dsgd", ensemble_lambda=0.25, rounds=3, lr=1.0).config_hash()


def test_load_config_rejects_junk(tmp_path):
    for text in ("nonsense\n", "unknown_key = 3\n", "rounds = 2\nrounds = 3\n",
                 "rounds = 2\ntiers = null\n"):
        p = tmp_path / "bad.conf"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)


def test_load_config_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.conf"
    p.write_bytes(b"rounds = 3\nframework = \xe9sgd\n")
    with pytest.raises(ConfigError,
                       match=r"latin1.conf: not UTF-8 text \(byte offset 23\)"):
        load_config(p)


def test_load_config_rejects_wrong_types(tmp_path):
    p = tmp_path / "bad.conf"
    for line in ("n_clients = five", 'rounds = "3"', "lr = true"):
        p.write_text(f"# comment\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"bad.conf:2: {key}: expected"):
            load_config(p)


# --- experiment loop ---------------------------------------------------------

def test_run_experiment_deterministic():
    a = run_experiment(tiny(framework="hdus"))
    b = run_experiment(tiny(framework="hdus"))
    assert a.final_accuracies() == b.final_accuracies()
    assert a.repeats[0].event_log.to_csv_text() == b.repeats[0].event_log.to_csv_text()


def test_repeats_use_distinct_seeds():
    rep = run_experiment(tiny(framework="isgd", repeats=2))
    assert [r.seed for r in rep.repeats] == [0, 1]
    assert rep.repeats[0].final_accuracy != rep.repeats[1].final_accuracy


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_every_framework_runs_and_unlearns(fw):
    cfg = tiny(framework=fw, rounds=4, unlearn_round=2, unlearn_client=3)
    rep = run_experiment(cfg)
    tl = rep.repeats[0].timeline
    assert [p.round for p in tl] == [0, 1, 2, 3]
    assert [p.t for p in tl] == [-2, -1, 0, 1]
    assert all(0.0 <= p.mean_accuracy <= 1.0 for p in tl)


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_every_framework_quits_before_any_round(fw):
    rep = run_experiment(tiny(framework=fw, rounds=3, unlearn_round=0,
                              unlearn_client=1))
    tl = rep.repeats[0].timeline
    assert [p.t for p in tl] == [0, 1, 2]
    assert all(0.0 <= p.mean_accuracy <= 1.0 for p in tl)


def test_heterogeneous_tiers_assigned():
    cfg = tiny(framework="hdus", setting="heterogeneous")
    part = build_partition(cfg, 0)
    eng = make_engine(cfg, part, 0)
    assert [c.tier for c in eng.clients] == ["small", "medium", "large", "large"]
    # param-free check: mains really differ in size
    sizes = {c.main.spec.param_count() for c in eng.clients}
    assert len(sizes) == 3


def test_baselines_fall_back_to_small_tier():
    cfg = tiny(framework="dsgd", setting="heterogeneous")
    part = build_partition(cfg, 0)
    eng = make_engine(cfg, part, 0)
    assert len({c.main.spec for c in eng.clients}) == 1


def test_fedunl_recovers_once_then_trains():
    """The round after a quit distills the global back without touching the
    ledger; the round after that trains the survivors again."""
    cfg = tiny(framework="fedunl", rounds=5)
    eng = make_engine(cfg, build_partition(cfg, 0), 0)
    u = 2
    for r in range(u):
        eng.round(r)
    eng.unlearn(3)
    ledger = eng.server.update_ledger
    eng.round(u + 1)
    assert len(ledger) == u and eng.server.pre_unlearn_global is None
    eng.round(u + 2)
    assert len(ledger) == u + 1 and sorted(ledger[-1]) == [0, 1, 2]
    with pytest.raises(StateError):
        bl.fedunl_recover_round(eng.server, eng.clients, eng.part.reference, eng.sim)


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_verify_unlearning_against_the_never_joined_control(fw):
    """Every quitter, at the first, the middle and the last round: hdus, isgd
    and sisa_a leave every survivor bitwise as the control after 0 unlearn
    steps. DSGD's reset and FedUnl's subtraction leave every survivor apart
    from it, except DSGD's quit at round 0, whose reset restores the initial
    mains it already holds."""
    for q in range(4):
        for u in range(3):
            cfg = tiny(framework=fw, rounds=3, unlearn_round=u, unlearn_client=q)
            exact = fw in ("hdus", "isgd", "sisa_a") or (fw, u) == ("dsgd", 0)
            survivors = [i for i in range(4) if i != q]
            assert verify_unlearning(cfg) == ([] if exact else survivors, 0), (q, u)


def test_verify_unlearning_at_package_defaults():
    """unlearn-demo's quit, client 4 at round 15, at default sizes and tiers."""
    assert verify_unlearning(ExperimentConfig(unlearn_round=15,
                                              unlearn_client=4)) == ([], 0)
    with pytest.raises(ConfigError, match="unlearn_round: "):
        verify_unlearning(ExperimentConfig())


def test_verify_unlearning_reports_the_faulty_client(monkeypatch):
    """An unlearn that leaves the quitter's seed in client 0's repository is
    reported for client 0 alone; one that strips every repository but leaves
    the quitter active, at the last round, for the quitter alone."""
    real = harness.handle_unlearn_request

    def keeps_seed_at_client_0(clients, q):
        kept = dict(clients[0].repo.entries)[q]
        real(clients, q)
        add_neighbor_seed(clients[0].repo, q, kept)

    monkeypatch.setattr(harness, "handle_unlearn_request", keeps_seed_at_client_0)
    assert verify_unlearning(tiny(rounds=3, unlearn_round=1,
                                  unlearn_client=2)) == ([0], 0)
    monkeypatch.setattr(harness, "handle_unlearn_request", lambda clients, q: [
        unlearn_neighbor(c.repo, q) for c in clients if q in c.repo])
    assert verify_unlearning(tiny(rounds=3, unlearn_round=2,
                                  unlearn_client=2)) == ([2], 0)


# Each framework's round and unlearn functions, as the engine calls them:
# (module, name) -> calls in a run of 4 rounds with a quit at round 1.
_FRAMEWORK_CALLS = {
    "hdus": {("harness", "run_round"): 3, ("harness", "handle_unlearn_request"): 1},
    "isgd": {("baselines", "isgd_round"): 3, ("baselines", "isgd_unlearn"): 1},
    "dsgd": {("baselines", "dsgd_round"): 3, ("baselines", "dsgd_unlearn"): 1},
    "fedunl": {("baselines", "fedunl_round"): 2,
               ("baselines", "fedunl_recover_round"): 1,
               ("baselines", "fedunl_unlearn"): 1},
    "sisa_a": {("baselines", "sisa_round"): 3, ("baselines", "sisa_unlearn_client"): 1,
               ("baselines", "sisa_predict"): 4},
}


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_engine_looks_up_framework_functions_when_called(fw, monkeypatch):
    """Counting wrappers patched onto the modules see every call, so the
    engine binds no framework function at import time."""
    modules = {"harness": harness, "baselines": bl}
    counts = dict.fromkeys((key for calls in _FRAMEWORK_CALLS.values()
                            for key in calls), 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in counts:
        monkeypatch.setattr(modules[mod], name, counting((mod, name),
                                                         getattr(modules[mod], name)))
    run_experiment(tiny(framework=fw, rounds=4, unlearn_round=1, unlearn_client=3))
    assert {k: n for k, n in counts.items() if n} == _FRAMEWORK_CALLS[fw]


def test_sweep_grid_and_error_cells():
    grid = sweep(tiny(framework="hdus"), "lambda", [0.0, 0.5, 1.5])
    assert set(grid) == {0.0, 0.5, 1.5}
    assert not isinstance(grid[0.0], Exception)
    assert not isinstance(grid[0.5], Exception)
    assert isinstance(grid[1.5], ConfigError)   # bad cell recorded, sweep survives
    with pytest.raises(ConfigError):
        sweep(tiny(), "learning_rate", [0.1])


# --- metric emission ----------------------------------------------------------

def test_emit_metrics_files_and_idempotence(tmp_path):
    rep = run_experiment(tiny(framework="isgd"))
    out = tmp_path / "m"
    paths = emit_metrics(rep, str(out))
    first = {k: Path(p).read_bytes() for k, p in paths.items()}
    paths2 = emit_metrics(rep, str(out))
    second = {k: Path(p).read_bytes() for k, p in paths2.items()}
    assert first == second   # byte-identical re-emission

    rows = list(csv.DictReader(io.StringIO(first["summary"].decode())))
    assert len(rows) == 1
    assert rows[0]["framework"] == "isgd"
    assert float(rows[0]["final_accuracy_mean"]) == rep.mean()
    assert rows[0]["config_hash"] == rep.config_hash

    tl = list(csv.DictReader(io.StringIO(first["timeline"].decode())))
    assert len(tl) == rep.config.rounds
    assert tl[0]["t"] == ""   # no unlearn event scheduled

    ev = first["eventlog"].decode().splitlines()
    assert ev[0] == "round,client_id,framework,metric,value"
    assert first["config"].decode().startswith("# config_hash = ")


def test_timeline_csv_t_column():
    rep = run_experiment(tiny(framework="hdus", rounds=4, unlearn_round=1,
                              unlearn_client=0))
    rows = list(csv.DictReader(io.StringIO(timeline_csv_text([rep]))))
    assert [r["t"] for r in rows] == ["-1", "0", "1", "2"]


def test_summary_text_multi_framework():
    reps = [run_experiment(tiny(framework=f)) for f in ("hdus", "isgd")]
    rows = list(csv.DictReader(io.StringIO(summary_csv_text(reps))))
    assert [r["framework"] for r in rows] == ["hdus", "isgd"]


def test_unlearn_demo_covers_all_frameworks():
    reports = unlearn_demo(tiny(rounds=4))
    assert [r.config.framework for r in reports] == list(FRAMEWORKS)
    for r in reports:
        # default schedule: quit at rounds // 2, last client
        assert r.config.unlearn_round == 2
        assert r.config.unlearn_client == 3


def test_unlearn_demo_sizes_mains_by_setting():
    for setting in ("homogeneous", "heterogeneous"):
        for r in unlearn_demo(tiny(rounds=2, setting=setting)):
            assert r.config.client_tiers() == _sized_by_setting(r.config), \
                (setting, r.config.framework)


# --- CLI ----------------------------------------------------------------------

def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_validate_config(capsys):
    assert run_cli("validate-config", "--rounds", "2") == 0
    assert "config_hash" in capsys.readouterr().out
    assert run_cli("validate-config", "--lambda", "2.0") == 2
    assert "config error" in capsys.readouterr().err
    assert run_cli("validate-config", "--n-clients", "five") == 2
    assert "config error: n_clients: expected int" in capsys.readouterr().err
    for flag, value in (("--incubate-epochs", "0"), ("--n-clients", "11"),
                        ("--n-clients", "1"),
                        ("--ref-size", "100000"), ("--blob-features", "3"),
                        ("--test-fraction", "0.9999"), ("--ref-size", "4749"),
                        ("--test-fraction", "1e-300"), ("--seed-tier", "medium"),
                        ("--seed-tier", "large"), ("--blob-spread", "1e300")):
        assert run_cli("validate-config", flag, value) == 2
        assert f"config error: {flag[2:].replace('-', '_')}: " in capsys.readouterr().err
    # Only hdus distills seeds: the seed tier bounds its mains alone.
    for args in (("--n-clients", "2", "--seed-tier", "medium"),
                 ("--framework", "dsgd", "--seed-tier", "medium"),
                 ("--framework", "isgd", "--seed-tier", "large")):
        assert run_cli("validate-config", *args) == 0, args
        assert "config_hash" in capsys.readouterr().out
    assert run_cli("validate-config", "--combine", "logits", "--n-clients", "2") == 0
    assert "config_hash" in capsys.readouterr().out
    # `setting` alone sizes the mains: there is no per-client tier list.
    with pytest.raises(SystemExit) as e:
        run_cli("validate-config", "--tiers", '["small","large"]')
    assert e.value.code == 2
    assert "unrecognized arguments: --tiers" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--lr", "NaN"), ("--temperature", "NaN"), ("--temperature", "Infinity"),
    ("--incubate-lr", "Infinity"), ("--blob-spread", "Infinity")])
def test_cli_run_rejects_non_finite_floats(flag, value, tmp_path, capsys):
    """NaN passes every `x < 0` bound and inf overflows at run time; both are
    config errors naming the key, raised before any work."""
    assert run_cli("run", flag, value, "--rounds", "2",
                   "--output-path", str(tmp_path / "out")) == 2
    key = flag[2:].replace("-", "_")
    assert f"config error: {key}: must be finite, got {float(value)}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_cli_flag_for_every_config_key(key, capsys):
    default = ExperimentConfig()
    value = json.dumps(getattr(default, CONFIG_KEYS[key]))
    assert run_cli("validate-config", "--" + key.replace("_", "-"), value) == 0
    assert f"config_hash={default.config_hash()})" in capsys.readouterr().out


def test_cli_flags_keep_their_hash(capsys):
    assert run_cli("validate-config", "--lr", "1", "--lambda", "0.3",
                   "--rounds", "7", "--output-path", "123") == 0
    want = ExperimentConfig(lr=1.0, ensemble_lambda=0.3, rounds=7,
                            output_path="123").config_hash()
    assert f"config_hash={want})" in capsys.readouterr().out


def test_cli_one_field_takes_one_flag(capsys):
    """`--lambda` is `--ensemble-lambda` by another name. Both at once, in
    either order, is a config error naming both flags; either alone sets the
    field, as a config file sets it."""
    for argv in (("--lambda", "0.2", "--ensemble-lambda", "0.3"),
                 ("--ensemble-lambda", "0.3", "--lambda", "0.2")):
        assert run_cli("validate-config", *argv) == 2
        assert capsys.readouterr().err == ("config error: ensemble_lambda: set "
                                           "twice, by --ensemble-lambda and --lambda\n")
    want = ExperimentConfig(ensemble_lambda=0.2).config_hash()
    for flag in ("--lambda", "--ensemble-lambda"):
        assert run_cli("validate-config", flag, "0.2") == 0
        assert f"config_hash={want})" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--blob-samples-per-class", "1000000000000"),
                                         ("--blob-features", "1000000")])
@pytest.mark.parametrize("verb", [("validate-config",), ("run", "--rounds", "1")])
def test_cli_oversized_blob_pool_is_config_error(flag, value, verb, tmp_path, capsys):
    """A blob pool over 2**27 float64 entries (here 24 TiB and 38 GB) is a
    config error found before any array is made: the command traces under
    1 MiB of allocations and writes nothing."""
    tracemalloc.start()
    try:
        code = run_cli(*verb, flag, value, "--output-path", str(tmp_path / "o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error: blob_samples_per_class: a pool of " in capsys.readouterr().err
    assert peak < 2**20, peak
    assert not (tmp_path / "o").exists()


def test_cli_run_snapshot_is_a_config(tmp_path, capsys):
    """A run's config.snapshot is a config file that loads back to the hash it
    records, by load_config and by validate-config --config. A snapshot that
    still holds a `tiers` line fails on that key and its line."""
    out = tmp_path / "o"
    argv = ("--framework", "isgd", "--setting", "homogeneous", "--rounds", "2",
            "--n-clients", "3", "--ref-size", "40", "--unlearn-round", "1",
            "--unlearn-client", "2")
    assert run_cli("run", *argv, "--output-path", str(out)) == 0
    capsys.readouterr()
    assert run_cli("validate-config", *argv) == 0
    want = re.search(r"config_hash=(\w+)\)", capsys.readouterr().out).group(1)
    snap = out / "config.snapshot"
    lines = snap.read_text().splitlines()
    assert lines[0] == f"# config_hash = {want}"
    assert load_config(snap).config_hash() == want
    assert run_cli("validate-config", "--config", str(snap)) == 0
    assert f"config_hash={want})" in capsys.readouterr().out
    at = next(i for i, line in enumerate(lines) if line.startswith("unlearn_client"))
    old = tmp_path / "old.snapshot"
    old.write_text("\n".join(lines[:at] + ["tiers = null"] + lines[at:]) + "\n")
    assert run_cli("validate-config", "--config", str(old)) == 2
    assert capsys.readouterr().err == \
        f"config error: {old}:{at + 1}: unknown key 'tiers'\n"


def test_docs_name_only_real_flags(capsys):
    """Every `--flag` that README's CLI section or cli.py's docstring names is
    a flag of some hdus verb, as the verbs' --help lists them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section + cli.__doc__))

    def help_text(*argv) -> str:
        with pytest.raises(SystemExit):
            run_cli(*argv, "--help")
        return capsys.readouterr().out

    verbs = re.search(r"\{([a-z,-]+)\}", help_text()).group(1).split(",")
    flags = {f for verb in verbs for f in re.findall(r"--[a-z][a-z-]*", help_text(verb))}
    assert named and not named - flags, sorted(named - flags)


def test_cli_run_writes_metrics(tmp_path, capsys):
    code = run_cli("run", "--framework", "isgd", "--rounds", "2",
                   "--n-clients", "3", "--ref-size", "40",
                   "--output-path", str(tmp_path / "out"))
    assert code == 0
    out = capsys.readouterr().out
    assert "isgd: final accuracy" in out
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "timeline.csv").exists()
    assert (tmp_path / "out" / "eventlog.csv").exists()
    assert (tmp_path / "out" / "config.snapshot").exists()


def test_cli_unlearn_demo_checks_every_framework_first(tmp_path, capsys):
    """A seed tier that fits hdus's mains runs every framework; one that only
    the named small-main framework allows fails before any run."""
    assert run_cli("unlearn-demo", "--n-clients", "2", "--seed-tier", "medium",
                   "--rounds", "2", "--output-path", str(tmp_path / "ok")) == 0
    assert "sisa_a: final accuracy" in capsys.readouterr().out
    assert run_cli("unlearn-demo", "--framework", "dsgd", "--seed-tier", "large",
                   "--rounds", "2", "--output-path", str(tmp_path / "bad")) == 2
    out, err = capsys.readouterr()
    assert "config error: seed_tier: " in err and "final accuracy" not in out
    assert not (tmp_path / "bad").exists()


def test_cli_config_file_then_flag_overrides(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("rounds = 2\nframework = isgd\nn_clients = 3\nref_size = 40\n")
    code = run_cli("run", "--config", str(conf), "--framework", "dsgd",
                   "--output-path", str(tmp_path / "o"))
    assert code == 0
    assert "dsgd: final accuracy" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    code = run_cli("sweep", "--param", "lambda", "--values", "0.0,0.4",
                   "--framework", "hdus", "--rounds", "2", "--n-clients", "3",
                   "--ref-size", "40", "--output-path", str(tmp_path / "s"))
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=0.0:" in out and "lambda=0.4:" in out


def test_cli_sweep_rejects_bad_values(capsys):
    assert run_cli("sweep", "--param", "lambda", "--values", "0.2,abc") == 2
    assert "config error: --values: lambda: expected float, got 'abc'" \
        in capsys.readouterr().err


def test_cli_missing_config_file_is_config_error(capsys):
    assert run_cli("run", "--config", "/nonexistent/path.conf") == 2


def test_cli_non_utf8_config_file_is_config_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"rounds = \xff\n")
    assert run_cli("run", "--config", str(conf)) == 2
    assert "bad.conf: not UTF-8 text" in capsys.readouterr().err


def test_cli_missing_idx_files_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--rounds", "1")
    assert code == 2
    assert "config error: data_dir: IDX files not found" in capsys.readouterr().err


def test_cli_unfillable_split_is_config_error(tmp_path, capsys):
    """Two blob samples of each of two classes, one kept for reference and
    one for test: at seed 0 both training rows share a class, so the client
    that omits it gets nothing. Seed 1 deals one of each."""
    argv = ("run", "--n-clients", "2", "--blob-classes", "2",
            "--blob-samples-per-class", "2", "--blob-components", "1",
            "--blob-features", "2", "--ref-size", "1", "--test-fraction", "0.34",
            "--rounds", "1", "--output-path", str(tmp_path / "o"))
    assert run_cli(*argv, "--master-seed", "0") == 2
    assert "config error: n_clients: could not fill client splits, short by 1 " \
        "samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli(*argv, "--master-seed", "1") == 0


def test_cli_diverging_run_is_runtime_error(tmp_path, capsys):
    """Divergence is reported once, as a DivergenceError; no numpy warning
    escapes (pytest turns one into an error)."""
    code = run_cli("run", "--lr", "1e12", "--rounds", "2",
                   "--output-path", str(tmp_path / "o"))
    assert code == 3
    assert "runtime error: client 0: non-finite student output at epoch 0" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("framework,who", [("dsgd", "main model"),
                                           ("fedunl", "main model"),
                                           ("sisa_a", "shard")])
def test_cli_overflowing_evaluation_is_runtime_error(tmp_path, capsys, framework, who):
    """Finite parameters that overflow the test-set forward (gossip or the
    ledger step can make them) fail the run with the one DivergenceError
    naming the client, not an accuracy from NaN outputs."""
    code = run_cli("run", "--framework", framework, "--lr", "1e9", "--rounds", "3",
                   "--unlearn-round", "1", "--unlearn-client", "1",
                   "--output-path", str(tmp_path / "o"))
    assert code == 3
    assert capsys.readouterr().err == f"runtime error: client 0: {who}: non-finite output\n"
    assert not (tmp_path / "o").exists()


def test_cli_sweep_fails_only_when_no_cell_succeeds(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli("sweep", "--param", "lambda", "--values", "1.5,2",
                   "--output-path", str(out)) == 2
    assert "config error: lambda: must be in [0, 1), got 1.5" \
        in capsys.readouterr().err
    assert not (out / "summary.csv").exists()
    assert run_cli("sweep", "--param", "lambda", "--values", "0.2,1.5",
                   "--rounds", "1", "--n-clients", "3", "--ref-size", "40",
                   "--output-path", str(out)) == 0
    assert "lambda=1.5: error: " in capsys.readouterr().out
    assert (out / "summary.csv").exists()


def test_cli_fedunl_quit_at_round_zero_trains_again(tmp_path, capsys):
    """A quit before any round subtracts nothing, so the recovery round keeps
    the global's accuracy; the round after it trains on client data again."""
    out = tmp_path / "o"
    assert run_cli("run", "--framework", "fedunl", "--rounds", "3",
                   "--unlearn-round", "0", "--unlearn-client", "1",
                   "--output-path", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO((out / "timeline.csv").read_text())))
    acc = [float(r["mean_accuracy"]) for r in rows]
    assert acc[1] == acc[0] and acc[2] > acc[1]


# --- IDX datasets -------------------------------------------------------------

def _write_idx(root: Path, prefix: str, images, labels, gz: bool) -> None:
    img, lab = make_idx(images, labels)
    write = (lambda b: gzip.compress(b, mtime=0)) if gz else (lambda b: b)
    suffix = ".gz" if gz else ""
    (root / f"{prefix}-images-idx3-ubyte{suffix}").write_bytes(write(img))
    (root / f"{prefix}-labels-idx1-ubyte{suffix}").write_bytes(write(lab))


@pytest.fixture
def idx_dir(tmp_path):
    """mnist/ with 500 plain train and 100 gzipped t10k 4x5 images."""
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, size=(600, 4, 5))
    labels = np.arange(600) % 10
    root = tmp_path / "mnist"
    root.mkdir()
    _write_idx(root, "train", images[:500], labels[:500], gz=False)
    _write_idx(root, "t10k", images[500:], labels[500:], gz=True)
    return tmp_path, images, labels


def test_idx_dataset_runs_end_to_end(idx_dir):
    data_dir, images, labels = idx_dir
    cfg = tiny(dataset="mnist", data_dir=str(data_dir), n_clients=3,
               ref_size=100, rounds=2, unlearn_round=1, unlearn_client=2)
    data = build_dataset(cfg, 0)       # train rows, then t10k rows
    assert np.array_equal(data.features, images.reshape(600, 20) / 255.0)
    assert np.array_equal(data.labels, labels)
    part = build_partition(cfg, 0)
    assert len(part.reference) == 100
    assert sum(map(len, part.client_splits)) + len(part.test) == 500
    rep = run_experiment(cfg)
    assert [p.round for p in rep.repeats[0].timeline] == [0, 1]
    assert 0.0 <= rep.mean() <= 1.0


@pytest.mark.parametrize("t10k_shape", [
    pytest.param((5, 4), id="transposed"),   # one pixel count, other shape
    pytest.param((3, 3), id="smaller"),
])
def test_idx_image_shapes_must_agree(idx_dir, capsys, t10k_shape):
    """train (4x5) and t10k images of another shape do not pool."""
    data_dir, _, labels = idx_dir
    _write_idx(data_dir / "mnist", "t10k", np.zeros((100, *t10k_shape)),
               labels[500:], gz=True)
    cfg = tiny(dataset="mnist", data_dir=str(data_dir), n_clients=3, ref_size=100)
    shape = "x".join(map(str, t10k_shape))
    with pytest.raises(ConfigError, match="^data_dir: .*train-images-idx3-ubyte "
                       f"has 4x5 images, .*t10k-images-idx3-ubyte.gz has {shape}$"):
        build_dataset(cfg, 0)
    assert run_cli("run", "--dataset", "mnist", "--data-dir", str(data_dir),
                   "--n-clients", "3", "--ref-size", "100", "--rounds", "1",
                   "--output-path", str(data_dir / "o")) == 2
    assert "config error: data_dir: " in capsys.readouterr().err


def test_idx_ref_size_must_leave_samples(idx_dir, capsys):
    data_dir, _, _ = idx_dir
    assert run_cli("run", "--dataset", "mnist", "--data-dir", str(data_dir),
                   "--ref-size", "600", "--rounds", "1",
                   "--output-path", str(data_dir / "o")) == 2
    assert "config error: ref_size: 600 must leave a test row and 5 training " \
        "rows of the 600 samples" in capsys.readouterr().err


@pytest.mark.parametrize("ref_size, test_fraction", [
    ("590", "0.9"), ("100", "0.9999"), ("100", "0.0001")])
def test_idx_test_fraction_must_leave_rows(idx_dir, capsys, ref_size, test_fraction):
    """A test_fraction that leaves no test row, or fewer training rows than
    clients, of the 600 IDX samples is a config error found once they load."""
    data_dir, _, _ = idx_dir
    assert run_cli("validate-config", "--dataset", "mnist", "--data-dir",
                   str(data_dir), "--ref-size", ref_size,
                   "--test-fraction", test_fraction) == 0
    capsys.readouterr()
    assert run_cli("run", "--dataset", "mnist", "--data-dir", str(data_dir),
                   "--ref-size", ref_size, "--test-fraction", test_fraction,
                   "--rounds", "1", "--output-path", str(data_dir / "o")) == 2
    assert f"config error: test_fraction: {test_fraction} of the " \
        in capsys.readouterr().err
