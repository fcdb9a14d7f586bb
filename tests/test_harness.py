import csv
import gzip
import io
import json
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hdus.harness as harness
from hdus import baselines as bl
from hdus import cli
from hdus.cli import main as cli_main
from hdus.data import MAX_BLOB_ENTRIES, LabeledDataset, gen_blobs, partition_noniid
from hdus.distill import DistillConfig, ReferenceSet
from hdus.ensemble import EnsembleConfig, add_neighbor_seed, unlearn_neighbor
from hdus.errors import ConfigError, DivergenceError, StateError
from hdus.harness import (CONFIG_KEYS, FRAMEWORKS, ExperimentConfig,
                          build_dataset, build_partition, emit_metrics,
                          load_config, make_engine, run_experiment, sweep,
                          summary_csv_text, timeline_csv_text, unlearn_demo,
                          verify_unlearning)
from hdus.numeric import TIERS
from hdus.simulation import EventLog, SimConfig
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
            tiny(**bad)
        assert _key(e.value) in CONFIG_KEYS, e.value
    tiny()
    # At both bounds: 12 clusters fill the grid of 4 features, and the 5 rows
    # left after the reference set make 1 test row and 1 training row per client.
    tiny(blob_classes=6, blob_features=4, ref_size=355)
    # IDX pool sizes are checked at run time, once the files load.
    tiny(dataset="mnist", data_dir="idx", ref_size=100000)


@pytest.mark.parametrize("kw", [dict(setting="bogus"), dict(framework="bogus"),
                                dict(unlearn_round=1), dict(n_clients=1),
                                *(pytest.param(kw, id=f"{k}={v!r}")
                                  for kw in (dict(rounds=2.5), dict(n_clients=4.0),
                                             dict(lr="0.1"), dict(ensemble_lambda=None),
                                             dict(master_seed=True), dict(incubate_lr=True),
                                             dict(output_path=5), dict(output_path="o\0x"))
                                  for k, v in kw.items()),
                                *(pytest.param({k: 10**5000}, id=f"{k}=10**5000")
                                  for k in ("master_seed", "rounds", "repeats", "n_clients",
                                            "ref_size", "blob_features", "framework"))],
                         ids=lambda kw: next(iter(kw)))
def test_config_is_checked_when_built(kw):
    """Building a config checks it, from code as from `replace` (which the
    file and flag readers use too); the error names the bad key. A value of
    the wrong type is one: an int field takes no float and a float field no
    str, neither takes a bool, and only a nullable field takes None. So is an
    int too long for Python to write as text, which no hash, snapshot or
    message could hold."""
    (key,) = kw
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ExperimentConfig(**kw)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        replace(tiny(), **kw)


_RNG = np.random.default_rng


def _pool():
    return gen_blobs(20, 3, 4, 0.5, _RNG(0))


# Key, bad value, and the call of the module that reads the value.
_MOVED_BOUNDS = [
    ("lr", -1.0, lambda v: SimConfig(lr=v)),
    ("lr", float("nan"), lambda v: SimConfig(lr=v)),
    ("lr", float("inf"), lambda v: SimConfig(lr=v)),
    ("local_epochs", -1, lambda v: SimConfig(local_epochs=v)),
    ("batch_size", 0, lambda v: SimConfig(batch_size=v)),
    ("blob_samples_per_class", 0, lambda v: gen_blobs(v, 5, 6, 0.5, _RNG(0))),
    ("blob_samples_per_class", -1, lambda v: gen_blobs(v, 5, 6, 0.5, _RNG(0))),
    ("blob_spread", -1.0, lambda v: gen_blobs(10, 5, 6, v, _RNG(0))),
    ("blob_spread", float("nan"), lambda v: gen_blobs(10, 5, 6, v, _RNG(0))),
    ("blob_spread", 1e101, lambda v: gen_blobs(10, 5, 6, v, _RNG(0))),
    ("ref_size", -1, lambda v: partition_noniid(_pool(), 2, v, 0.2, _RNG(0))),
    ("ref_size", 0, lambda v: partition_noniid(_pool(), 2, v, 0.2, _RNG(0))),
    ("test_fraction", float("nan"), lambda v: partition_noniid(_pool(), 2, 10, v, _RNG(0))),
]


@pytest.mark.parametrize("key, value, call", _MOVED_BOUNDS,
                         ids=[f"{k}={v!r}" for k, v, _ in _MOVED_BOUNDS])
def test_each_bound_has_one_home(key, value, call):
    """A bound lives in the module config or data check that reads the
    value, so a library caller of that module gets the ConfigError, keyed
    the same, that building an experiment config gives."""
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        call(value)


_RATE_KEYS = {"lr", "incubate_lr", "temperature", "lambda", "blob_spread", "test_fraction"}
# Key, wrongly typed value, and the call of the module that reads the value.
_MISTYPED = [
    ("incubate_every_rounds", 1.5, lambda v: SimConfig(incubate_every_rounds=v)),
    ("local_epochs", 1.5, lambda v: SimConfig(local_epochs=v)),
    ("batch_size", 2.5, lambda v: SimConfig(batch_size=v)),
    ("lr", "0.1", lambda v: SimConfig(lr=v)),
    ("incubate_epochs", 2.5, lambda v: DistillConfig(epochs=v)),
    ("incubate_lr", "0.1", lambda v: DistillConfig(lr=v)),
    ("temperature", True, lambda v: DistillConfig(temperature=v)),
    ("lambda", "0.5", lambda v: EnsembleConfig(lam=v)),
    ("blob_samples_per_class", 10.5, lambda v: gen_blobs(v, 3, 4, 0.5, _RNG(0))),
    ("blob_spread", "0.5", lambda v: gen_blobs(10, 3, 4, v, _RNG(0))),
    ("ref_size", 10.5, lambda v: partition_noniid(_pool(), 2, v, 0.2, _RNG(0))),
    ("n_clients", True, lambda v: partition_noniid(_pool(), v, 10, 0.2, _RNG(0))),
    ("test_fraction", "0.2", lambda v: partition_noniid(_pool(), 2, 10, v, _RNG(0))),
]


@pytest.mark.parametrize("key, value, call", _MISTYPED,
                         ids=[f"{k}={v!r}" for k, v, _ in _MISTYPED])
def test_module_configs_check_types(key, value, call):
    """A module config or data check takes a count as any integral number
    but a bool and a rate as any real number but a bool, `_typed`'s rule,
    so a wrongly typed value is a ConfigError naming its key, not a bare
    TypeError or a float count that fails at the first training step."""
    kind = "float" if key in _RATE_KEYS else "int"
    message = f"{key}: expected {kind}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


def test_an_idx_config_skips_the_blob_fields():
    """An IDX config reads no blob_* field, so it does not check one; the
    split bounds that need no pool size still fail it when built."""
    idx = dict(dataset="mnist", data_dir="idx")
    ExperimentConfig(**idx, blob_samples_per_class=0)
    with pytest.raises(ConfigError, match="^ref_size: must be >= 1$"):
        ExperimentConfig(**idx, ref_size=0)


def test_module_config_defaults_are_the_experiments():
    """A library caller who composes the module configs' defaults trains,
    incubates and ensembles as a default run does."""
    sim = SimConfig()
    built = harness._sim_config(ExperimentConfig())
    for name in ("distill", "ensemble", "local_epochs", "lr", "batch_size",
                 "incubate_every_rounds"):
        assert getattr(sim, name) == getattr(built, name), name


def test_config_stores_one_type_per_field():
    """Every route stores a number field as a Python number: an int read
    into a float field is that float, and a numpy scalar a Python one, so
    equal configs hash equally and the snapshot and hash never fail."""
    assert ExperimentConfig(lr=1).config_hash() == \
        ExperimentConfig(lr=1.0).config_hash() == "0806c41a5dbec310"
    cfg = ExperimentConfig(n_clients=np.int64(5), lr=np.float32(0.5),
                           rounds=np.uint8(30), framework=np.str_("hdus"))
    assert [type(cfg.n_clients), type(cfg.lr), type(cfg.rounds), type(cfg.framework)] \
        == [int, float, int, str]
    assert replace(cfg, lr=0.05).config_hash() == "50d045603789bd50"
    assert type(replace(cfg, ensemble_lambda=0).ensemble_lambda) is float
    for bad in (np.bool_(True), np.float64(5.0), 5 + 0j):
        with pytest.raises(ConfigError, match="^n_clients: expected int, got "):
            ExperimentConfig(n_clients=bad)


def test_an_int_past_floats_range_is_infinite_in_a_float_field():
    """An int too large for a float reads as inf in a float field, which the
    finiteness check then rejects, as it rejects 1e999."""
    for value, shown in ((10**400, "inf"), (-10**400, "-inf")):
        with pytest.raises(ConfigError, match=f"^lr: must be finite, got {shown}$"):
            ExperimentConfig(lr=value)


@pytest.mark.parametrize("kw,message", [
    (dict(schema_version=2), "schema_version: unsupported value 2"),
    (dict(repeats=0), "repeats: must be >= 1"),
    (dict(local_epochs=-1), "local_epochs: must be >= 0"),
    (dict(seed_tier="huge"), "seed_tier: unknown tier 'huge'"),
    (dict(combine="mean"), "combine: must be proba or logits, got 'mean'")],
    ids=lambda v: next(iter(v)) if isinstance(v, dict) else "")
def test_config_bounds_name_their_key(kw, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        tiny(**kw)


def test_config_fields_cannot_change():
    valid = tiny()
    for f in fields(ExperimentConfig):
        with pytest.raises(FrozenInstanceError):
            setattr(valid, f.name, getattr(valid, f.name))
    assert valid == tiny()


# Extreme finite floats inside each field's domain ...
_RATES = st.sampled_from([0.0, 5e-324, 1e-8, 0.05, 0.5, 1e8, 1e100, 1e300])
_TEMPERATURES = st.sampled_from([5e-324, 1e-300, 0.5, 3.0, 1e8, 1e300])
_LAMBDAS = st.sampled_from([0.0, 5e-324, 0.3, 0.6, 1 - 2**-53])
_SPREADS = st.sampled_from([0.0, 5e-324, 0.5, 1e8, 1e100])
# ... and values just outside it, one of which may replace a drawn value. The
# extreme test fractions leave no test row or no training row in any pool.
_OUTSIDE = {"n_clients": [1, 0], "blob_classes": [1, 0], "blob_features": [1, 0],
            "blob_components": [0, -1], "blob_samples_per_class": [0, -1],
            "ref_size": [0, -1], "test_fraction": [0.0, 5e-324, 1 - 2**-53, 1.0],
            "rounds": [0],
            "lr": [-5e-324, -1e300], "incubate_lr": [-5e-324],
            "temperature": [0.0, -5e-324], "ensemble_lambda": [1.0, -5e-324],
            "blob_spread": [1e300, -5e-324], "batch_size": [0],
            "local_epochs": [-1], "incubate_epochs": [0],
            "incubate_every_rounds": [0], "master_seed": [-1],
            "unlearn_client": [None, -1]}
# Sizes that may be drawn huge instead. Building rejects a blob pool over
# MAX_BLOB_ENTRIES; one under it that passes is not run, as it would be slow.
_HUGE = ("blob_samples_per_class", "blob_features", "n_clients")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blob_configs_validate_or_run_cleanly(data):
    """Every blob config either fails to build with a keyed ConfigError, or
    runs one round to finite accuracies, a DivergenceError or a keyed
    ConfigError; no other exception and no warning."""
    draw = data.draw
    classes = draw(st.integers(2, 5), label="blob_classes")
    n_clients = draw(st.integers(2, classes), label="n_clients")
    quitter = draw(st.none() | st.integers(0, n_clients - 1), label="unlearn_client")
    components = draw(st.integers(1, 2), label="blob_components")
    # The smallest grid that holds every cluster, at least the fewest rows
    # per class that leave a test row and a training row per client, and a
    # test fraction that leaves them.
    grid = next(f for f in range(2, 7) if f * (f - 1) >= components * classes)
    ref_size = draw(st.integers(1, 12), label="ref_size")
    fewest = -(-(ref_size + 1 + n_clients) // classes)
    per_class = draw(st.integers(fewest, fewest + 8), label="blob_samples_per_class")
    rest = classes * per_class - ref_size
    test_rows = draw(st.integers(1, rest - n_clients), label="test rows")
    kw = dict(
        framework=draw(st.sampled_from(FRAMEWORKS)),
        setting=draw(st.sampled_from(["homogeneous", "heterogeneous"])),
        seed_tier=draw(st.sampled_from(sorted(TIERS))),
        combine=draw(st.sampled_from(["proba", "logits"])),
        n_clients=n_clients, blob_classes=classes,
        blob_features=draw(st.integers(grid, 6), label="blob_features"),
        blob_components=components,
        blob_samples_per_class=per_class,
        blob_spread=draw(_SPREADS, label="blob_spread"),
        ref_size=ref_size,
        test_fraction=test_rows / rest,
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
        kw[outside] = draw(st.integers(10**5, 10**15), label="size")
    elif outside is not None:
        kw[outside] = draw(st.sampled_from(_OUTSIDE[outside]), label="value")
    try:
        cfg = ExperimentConfig(**kw)
    except ConfigError as e:
        event("rejected when built")
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
    points = [a for r in report.repeats for a in r.mean_accuracies()]
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
    assert tiny(n_clients=6, blob_classes=6, setting="heterogeneous").client_tiers() == \
        ["small", "small", "medium", "medium", "large", "large"]
    assert tiny(n_clients=3, setting="homogeneous").client_tiers() == ["large"] * 3
    for fw in FRAMEWORKS:
        for setting in ("homogeneous", "heterogeneous"):
            for n in range(2, 6):
                cfg = tiny(framework=fw, setting=setting, n_clients=n)
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
                 "dataset = blobs\nlr = 1\n", encoding="utf-8")
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
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(p)


def test_load_config_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.conf"
    p.write_bytes(b"rounds = 3\nframework = \xe9sgd\n")
    with pytest.raises(ConfigError,
                       match=r"latin1.conf: not UTF-8 text \(byte offset 23\)"):
        load_config(p)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    text = "n_clients = 4\nframework = dsgd\nrounds = 3\n"
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_config(marked).config_hash() == load_config(plain).config_hash()
    # The offset of a bad byte counts the mark's three bytes.
    marked.write_bytes(b"\xef\xbb\xbfrounds = 3\nframework = \xe9sgd\n")
    with pytest.raises(ConfigError,
                       match=r"marked.conf: not UTF-8 text \(byte offset 26\)"):
        load_config(marked)


def test_load_config_rejects_wrong_types(tmp_path):
    p = tmp_path / "bad.conf"
    for line in ("n_clients = five", 'rounds = "3"', "lr = true"):
        p.write_text(f"# comment\n{line}\n", encoding="utf-8")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"bad.conf:2: {key}: expected"):
            load_config(p)


@pytest.mark.parametrize("digits", [4301, 5000])
def test_an_int_past_the_digit_limit_is_a_config_error(digits, tmp_path, capsys):
    """Python reads no int of over 4,300 digits from text; such a value in a
    file, a flag or a sweep grid is a config error naming the key."""
    huge = "9" * digits
    conf = tmp_path / "bad.conf"
    conf.write_text(f"rounds = {huge}\n", encoding="utf-8")
    limits = "past Python's limits on int digits or nesting depth\n"
    assert run_cli("validate-config", "--config", str(conf)) == 2
    assert capsys.readouterr().err == f"config error: {conf}:1: rounds: {limits}"
    assert run_cli("validate-config", "--rounds", huge) == 2
    assert capsys.readouterr().err == f"config error: rounds: {limits}"
    out = tmp_path / "s"
    assert run_cli("sweep", "--param", "lambda", "--values", f"0.1,{huge}",
                   "--output-path", str(out)) == 2
    assert capsys.readouterr().err == f"config error: --values: lambda: {limits}"
    assert not out.exists()
    # 4,300 digits still read, and the pool's bound holds at that size.
    assert run_cli("validate-config", "--blob-classes", huge[:4300],
                   "--blob-samples-per-class", huge[:4300]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: blob_samples_per_class: a pool of over 134217728 rows x 20 ")


def _never_run(cfg):
    raise AssertionError("run_experiment was called")


def test_a_nul_in_output_path_is_a_config_error(tmp_path, capsys, monkeypatch):
    """`output_path` cannot name a file with a NUL in it, nor be empty (a
    run read that as the default `hdus-out`): that fails when the config is
    built, before any run."""
    monkeypatch.setattr(harness, "run_experiment", _never_run)
    monkeypatch.setattr(cli, "run_experiment", _never_run)
    conf = tmp_path / "nul.conf"
    for value, reason in (('"out\\u0000x"', "must not hold a NUL character"),
                          ('""', "must not be empty")):
        conf.write_text(f"rounds = 2\noutput_path = {value}\n", encoding="utf-8")
        for verb in ("validate-config", "run"):
            assert run_cli(verb, "--config", str(conf)) == 2
            assert capsys.readouterr().err == f"config error: output_path: {reason}\n"
    assert run_cli("validate-config", "--output-path", "") == 2
    assert capsys.readouterr().err == "config error: output_path: must not be empty\n"


@pytest.mark.parametrize("verb", [("run",), ("unlearn-demo",),
                                  ("sweep", "--param", "lambda", "--values", "0.1,0.2")],
                         ids=lambda verb: verb[0])
def test_cli_makes_the_output_directory_before_any_run(verb, tmp_path, capsys,
                                                       monkeypatch):
    """An output directory that cannot be made (here, under a regular file)
    is a runtime error before any run. A command that fails after making
    the directory removes the ones it made; validate-config makes none."""
    monkeypatch.setattr(harness, "run_experiment", _never_run)
    monkeypatch.setattr(cli, "run_experiment", _never_run)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert run_cli(*verb, "--output-path", str(blocker / "out")) == 3
    assert capsys.readouterr().err.startswith("runtime error: ")
    with pytest.raises(AssertionError, match="run_experiment was called"):
        run_cli(*verb, "--output-path", str(tmp_path / "a" / "b"))
    assert not (tmp_path / "a").exists()
    assert run_cli("validate-config", "--output-path", str(tmp_path / "a" / "b")) == 0
    assert not (tmp_path / "a").exists()


# --- config file fuzzing: one documented error -------------------------------

_CONF_LINES = ExperimentConfig().snapshot_text().splitlines()
_CONF_VALUES = st.one_of(
    st.sampled_from(["null", "true", "false", "NaN", "-Infinity", "1e999", "[]",
                     "[1]", "{}", '"3"', '""', '"out\\u0000x"', "0", "-1", "2.5",
                     "5e-324", "-0.0", "1_000", "[" * 10**5, *FRAMEWORKS, "mnist",
                     "homogeneous", "logits", *TIERS]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(json.dumps), st.floats().map(repr),
    # Around Python's limit of 4,300 digits in an int read from text.
    st.integers(4295, 4305).map(lambda n: "9" * n),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
            max_size=6),
    st.text(max_size=6).map(json.dumps))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_config_file(tmp_path_factory, data):
    """A config file with drawn values, dropped and repeated lines, a flipped
    byte or a cut loads to a config whose snapshot loads back to the same
    hash, or fails with a ConfigError; validate-config exits 0 or 2."""
    draw = data.draw
    lines = list(_CONF_LINES)
    for _ in range(draw(st.integers(0, 4), label="values")):
        key = draw(st.sampled_from(sorted(CONFIG_KEYS)), label="key")
        line = f"{key} = {draw(_CONF_VALUES, label='value')}"
        at = [i for i, text in enumerate(lines)
              if text.startswith(f"{CONFIG_KEYS[key]} = ")]
        if at:
            lines[at[0]] = line
        else:
            lines.append(line)
    for _ in range(draw(st.integers(0, 2), label="line edits")):
        i = draw(st.integers(0, len(lines) - 1), label="line")
        if draw(st.booleans(), label="drop"):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    raw = bytearray("\n".join(lines).encode("utf-8"))
    edit = draw(st.sampled_from(["none", "flip", "cut"]), label="byte edit")
    pos = draw(st.integers(0, len(raw) - 1), label="pos")
    if edit == "flip":
        raw[pos] ^= draw(st.integers(1, 255), label="flip")
    elif edit == "cut":
        del raw[pos:]
    path = tmp_path_factory.mktemp("fuzz") / "exp.conf"
    path.write_bytes(bytes(raw))
    try:
        cfg = load_config(path)
    except ConfigError:
        event("rejected")
    else:
        event("loaded")
        snap = path.with_name("config.snapshot")
        snap.write_text(cfg.snapshot_text(), encoding="utf-8")
        assert load_config(snap).config_hash() == cfg.config_hash()
    assert cli_main(["validate-config", "--config", str(path)]) in (0, 2)


# --- experiment loop ---------------------------------------------------------

def _timeline(rep) -> list[dict[str, str]]:
    """The rows of `rep`'s timeline.csv."""
    return list(csv.DictReader(io.StringIO(timeline_csv_text([rep]))))


def test_run_experiment_deterministic():
    a = run_experiment(tiny(framework="hdus"))
    b = run_experiment(tiny(framework="hdus"))
    assert a.final_accuracies() == b.final_accuracies()
    assert a.repeats[0].event_log.to_csv_text() == b.repeats[0].event_log.to_csv_text()


def test_repeats_use_distinct_seeds():
    rep = run_experiment(tiny(framework="isgd", repeats=2))
    assert [r.seed for r in rep.repeats] == [0, 1]
    first, second = rep.final_accuracies()
    assert first != second


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_every_framework_runs_and_unlearns(fw):
    cfg = tiny(framework=fw, rounds=4, unlearn_round=2, unlearn_client=3)
    tl = _timeline(run_experiment(cfg))
    assert [p["round"] for p in tl] == ["0", "1", "2", "3"]
    assert [p["t"] for p in tl] == ["-2", "-1", "0", "1"]
    assert all(0.0 <= float(p["mean_accuracy"]) <= 1.0 for p in tl)


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_every_framework_quits_before_any_round(fw):
    tl = _timeline(run_experiment(tiny(framework=fw, rounds=3, unlearn_round=0,
                                       unlearn_client=1)))
    assert [p["t"] for p in tl] == ["0", "1", "2"]
    assert all(0.0 <= float(p["mean_accuracy"]) <= 1.0 for p in tl)


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


@settings(max_examples=25, deadline=None)
@given(setting=st.sampled_from(["homogeneous", "heterogeneous"]),
       every=st.integers(1, 3), combine=st.sampled_from(["proba", "logits"]),
       lam=st.sampled_from([0.0, 0.5]),
       quit=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_hdus_mains_are_isgd_mains(setting, every, combine, lam, quit):
    """Incubation reads a main and never writes it or draws from its
    client's `train_rng`: hdus and isgd from one seed hold bitwise-equal
    mains after every round, with or without a quit. At lambda = 0 the
    ensemble is the main alone, so their event logs match in every row but
    the framework column."""
    kw = {} if quit is None else dict(unlearn_round=quit[0], unlearn_client=quit[1])
    cfgs = [tiny(framework=fw, rounds=4, setting=setting, incubate_every_rounds=every,
                 combine=combine, ensemble_lambda=lam, **kw) for fw in ("hdus", "isgd")]
    part = build_partition(cfgs[0], 0)
    engines = [make_engine(cfg, part, 0) for cfg in cfgs]
    logs = [EventLog(), EventLog()]
    for r in range(4):
        for engine, cfg, log in zip(engines, cfgs, logs):
            harness._tick(engine, cfg, r)
            engine.evaluate(log, r)
        hdus_mains, isgd_mains = ([c.main.params.tobytes() for c in e.clients]
                                  for e in engines)
        assert hdus_mains == isgd_mains, r
    if lam == 0.0:
        hdus_rows, isgd_rows = ([(*rec[:2], *rec[3:]) for rec in log.records]
                                for log in logs)
        assert hdus_rows == isgd_rows


def _reachable(root) -> list:
    """Every object reachable from `root` through instance attributes (in
    `__dict__` or `__slots__`) and container items, except through the
    partition's datasets."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (LabeledDataset, ReferenceSet)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            todo.extend([*obj.keys(), *obj.values()])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        else:
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
                        if hasattr(obj, name))
    return found


@pytest.mark.parametrize("fw", FRAMEWORKS)
def test_unlearn_leaves_no_memory_of_the_quitter(fw):
    """Deleted is literal: after the unlearn and one further round, the
    quitter's `ClientState` is not reachable from the engine's clients,
    FedUnl server or sim config, and no array reachable from them shares
    memory with the quitter's last main, its own seed or the seed its
    neighbours decoded. The read-only partition is excluded."""
    cfg = tiny(framework=fw, rounds=3)
    part = build_partition(cfg, 0)
    for q in range(cfg.n_clients):
        engine = make_engine(cfg, part, 0)
        engine.round(0)
        quitter = engine.clients[q]
        gone = [quitter.main.params] + [
            seed.params for seed in [quitter.own_seed] + [
                dict(c.repo.entries).get(q) for c in engine.clients]
            if seed is not None]
        engine.unlearn(q)
        engine.round(1)
        reached = _reachable([engine.clients, engine.server, engine.sim])
        assert not any(obj is quitter for obj in reached), q
        reachable = [obj for obj in reached if isinstance(obj, np.ndarray)]
        # The walk reaches every survivor's main, so the check below is not vacuous.
        assert all(any(a is c.main.params for a in reachable) for c in engine.clients)
        assert not any(np.shares_memory(a, g) for a in reachable for g in gone), q


def test_a_pickled_engine_finishes_as_the_uninterrupted_run():
    """An hdus engine pickled after round 1 comes back with read-only
    datasets, so it evaluates, and finishes with the event-log bytes of the
    run that was never pickled."""
    cfg = tiny(rounds=4, unlearn_round=2, unlearn_client=3)
    engine, log = make_engine(cfg, build_partition(cfg, 0), 0), EventLog()
    for r in range(cfg.rounds):
        if r == 2:
            engine = pickle.loads(pickle.dumps(engine))
        harness._tick(engine, cfg, r)
        engine.evaluate(log, r)
    assert log.to_csv_text() == run_experiment(cfg).repeats[0].event_log.to_csv_text()


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


def test_sweep_checks_every_cell_before_any_run(monkeypatch):
    """`sweep` takes any config key and builds every cell's config before the
    first run: a grid holding a bad value, or a key that names no field, is
    a config error naming it, and the spy sees no run."""
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    for key, values, error in (("lambda", [0.0, 0.5, 1.5], "^lambda: must be in "),
                               ("framework", ["hdus", "sgd"], "^framework: must be one of "),
                               ("rounds", [2, 0], "^rounds: must be >= 1$"),
                               ("learning_rate", [0.1], "^unknown key 'learning_rate'$")):
        with pytest.raises(ConfigError, match=error):
            sweep(tiny(), key, values)
    assert runs == []
    assert list(sweep(tiny(), "n_clients", [3, 4])) == [3, 4]
    assert [c.n_clients for c in runs] == [3, 4]


def test_sweep_rejects_a_repeated_value_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    for values, repeated in (([0, 0.0, 0.2], "0.0"), ([0.1, 0.2, 0.3, 0.2], "0.2")):
        with pytest.raises(ConfigError, match=f"^lambda: grid value {repeated} "):
            sweep(tiny(), "lambda", values)
    assert runs == []
    sweep(tiny(), "lambda", [0.0, 0.2])   # the spy sees the runs of a clean grid
    assert [c.ensemble_lambda for c in runs] == [0.0, 0.2]


# --- metric emission ----------------------------------------------------------

def test_emit_metrics_files_and_idempotence(tmp_path):
    """Re-emission is byte-identical, and the three CSVs agree: each timeline
    row holds its `mean` row of the event log, and the summary holds the mean
    and std of each repeat's last one."""
    rep = run_experiment(tiny(framework="isgd", repeats=2, rounds=3,
                              unlearn_round=1, unlearn_client=2))
    out = tmp_path / "m"
    paths = emit_metrics(rep, str(out))
    first = {k: Path(p).read_bytes() for k, p in paths.items()}
    paths2 = emit_metrics(rep, str(out))
    second = {k: Path(p).read_bytes() for k, p in paths2.items()}
    assert first == second   # byte-identical re-emission

    ev = first["eventlog"].decode().splitlines()
    assert ev[0] == "round,client_id,framework,metric,value"
    assert first["config"].decode().startswith("# config_hash = ")
    rows = {k: list(csv.DictReader(io.StringIO(first[k].decode())))
            for k in ("summary", "timeline", "eventlog")}
    means = [e for e in rows["eventlog"] if e["client_id"] == "mean"]
    tl = rows["timeline"]
    assert len(tl) == len(means) == 2 * rep.config.rounds
    assert [(t["round"], t["framework"], t["mean_accuracy"]) for t in tl] == \
        [(e["round"], e["framework"], e["value"]) for e in means]
    assert [t["repeat"] for t in tl] == ["0"] * 3 + ["1"] * 3

    last = [float(e["value"]) for e in means[rep.config.rounds - 1::rep.config.rounds]]
    (summary,) = rows["summary"]
    assert summary["framework"] == "isgd" and summary["repeats"] == "2"
    assert summary["final_accuracy_mean"] == repr(float(np.mean(last))) == repr(rep.mean())
    assert summary["final_accuracy_std"] == repr(float(np.std(last)))
    assert summary["config_hash"] == rep.config.config_hash()


def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """`_atomic_write` removes its temp file when the final rename fails,
    and the target keeps its old text."""
    target = tmp_path / "out.csv"
    target.write_text("old", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(harness.os, "replace", refuse)
    with pytest.raises(OSError, match="^rename refused$"):
        harness._atomic_write(str(target), "new")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text(encoding="utf-8") == "old"


def test_timeline_csv_t_column():
    rep = run_experiment(tiny(framework="hdus", rounds=4, unlearn_round=1,
                              unlearn_client=0))
    assert [r["t"] for r in _timeline(rep)] == ["-1", "0", "1", "2"]
    # no unlearn event scheduled
    assert [r["t"] for r in _timeline(run_experiment(tiny(framework="isgd")))] == ["", ""]


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


def test_default_unlearn_demo_matches_the_golden_table():
    """The default `unlearn-demo` (quit (15, 4)) gives, round by round, the
    mean accuracies in `golden_unlearn_demo.csv`, exactly. Every test above
    compares runs with runs; this pins the values, so a change that moves
    every output (a client's random stream, say) fails here. Re-record the
    table only with a change that means to move the outputs, and say so."""
    table = Path(__file__).with_name("golden_unlearn_demo.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(table)))
    expected = {fw: [float(row[fw]) for row in rows] for fw in FRAMEWORKS}
    reports = unlearn_demo(ExperimentConfig())
    assert {r.config.framework: r.repeats[0].mean_accuracies() for r in reports} == expected


def test_unlearn_demo_is_the_sweep_over_framework():
    """`unlearn_demo` is its default quit plus the sweep over every framework."""
    cfg = tiny(rounds=4)
    demo = unlearn_demo(cfg)
    grid = sweep(replace(cfg, unlearn_round=2, unlearn_client=3), "framework", FRAMEWORKS)
    assert list(grid) == list(FRAMEWORKS)
    assert [r.config for r in grid.values()] == [r.config for r in demo]
    assert [rr.event_log.to_csv_text() for r in grid.values() for rr in r.repeats] == \
        [rr.event_log.to_csv_text() for r in demo for rr in r.repeats]


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
    lines = snap.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# config_hash = {want}"
    assert load_config(snap).config_hash() == want
    assert run_cli("validate-config", "--config", str(snap)) == 0
    assert f"config_hash={want})" in capsys.readouterr().out
    at = next(i for i, line in enumerate(lines) if line.startswith("unlearn_client"))
    old = tmp_path / "old.snapshot"
    old.write_text("\n".join(lines[:at] + ["tiers = null"] + lines[at:]) + "\n",
                   encoding="utf-8")
    assert run_cli("validate-config", "--config", str(old)) == 2
    assert capsys.readouterr().err == \
        f"config error: {old}:{at + 1}: unknown key 'tiers'\n"


def test_docs_name_only_real_flags(capsys):
    """Every `--flag` that README's CLI section or cli.py's docstring names is
    a flag of some hdus verb, as the verbs' --help lists them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
    conf.write_text("rounds = 2\nframework = isgd\nn_clients = 3\nref_size = 40\n",
                    encoding="utf-8")
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


def test_cli_sweep_rejects_bad_values(tmp_path, capsys):
    assert run_cli("sweep", "--param", "lambda", "--values", "0.2,abc") == 2
    assert "config error: --values: lambda: expected float, got 'abc'" \
        in capsys.readouterr().err
    # Parsed, 0 and 0.0 are one value: the grid fails before any cell runs.
    out = tmp_path / "s"
    assert run_cli("sweep", "--param", "lambda", "--values", "0,0.0,0.2,0.2",
                   "--output-path", str(out)) == 2
    captured = capsys.readouterr()
    assert "config error: lambda: grid value 0.0 " in captured.err
    assert captured.out == "" and not out.exists()


def test_load_config_unreadable_path_is_config_error(tmp_path):
    """A path that cannot be read is a ConfigError naming it, not a bare
    OSError."""
    missing = tmp_path / "missing.conf"
    with pytest.raises(ConfigError, match=f"^{re.escape(str(missing))}: No such file"):
        load_config(missing)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path))}: Is a directory$"):
        load_config(tmp_path)


def test_load_config_path_with_a_nul_is_config_error():
    """`open` rejects a path holding a NUL with a bare ValueError; load_config
    names the path in a ConfigError, as for any other unreadable path."""
    with pytest.raises(ConfigError, match="^a\0b: embedded null byte$"):
        load_config("a\0b")


def test_cli_missing_config_file_is_config_error(capsys):
    for verb in ("run", "validate-config"):
        assert run_cli(verb, "--config", "/nonexistent/path.conf") == 2
        assert capsys.readouterr().err == \
            "config error: /nonexistent/path.conf: No such file or directory\n"


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


def test_cli_unreadable_idx_file_is_config_error(tmp_path, capsys):
    """An IDX file that exists but cannot be read (here, a directory) is a
    config error naming it, as a missing one is."""
    base = tmp_path / "mnist"
    (base / "train-images-idx3-ubyte").mkdir(parents=True)
    (base / "train-labels-idx1-ubyte").write_bytes(b"")
    cfg = ExperimentConfig(dataset="mnist", data_dir=str(tmp_path))
    message = f"data_dir: {base / 'train-images-idx3-ubyte'}: Is a directory"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_dataset(cfg, 0)
    assert run_cli("run", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--rounds", "1", "--output-path", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


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


def test_cli_overflow_in_the_last_step_is_runtime_error(tmp_path, capsys):
    """A finite gradient that overflows the parameters in the last SGD step
    is a DivergenceError naming the client, not a wire-format error when its
    seed is decoded."""
    code = run_cli("run", "--framework", "hdus", "--setting", "homogeneous",
                   "--seed-tier", "large", "--n-clients", "2", "--blob-classes", "2",
                   "--blob-features", "3", "--blob-components", "1",
                   "--blob-samples-per-class", "2", "--blob-spread", "0.0",
                   "--ref-size", "1", "--lr", "1e100", "--incubate-lr", "1e100",
                   "--temperature", "1e300", "--lambda", "0.0", "--batch-size", "1",
                   "--incubate-epochs", "1", "--rounds", "1",
                   "--output-path", str(tmp_path / "o"))
    assert code == 3
    assert capsys.readouterr().err == \
        "runtime error: client 0: non-finite parameters after epoch 0\n"
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


def test_cli_sweep_fails_as_run_does(tmp_path, capsys, monkeypatch):
    """A sweep has the exit rules of `run`: a bad cell is a config error
    before any run, a failing run is a runtime error, and neither writes a
    file or leaves the output directory behind."""
    out = tmp_path / "s"
    with monkeypatch.context() as m:
        m.setattr(harness, "run_experiment", _never_run)
        for param, values, err in (
                ("lambda", "0.2,1.5", "config error: lambda: must be in [0, 1), got 1.5\n"),
                ("foo", "1,2", "config error: --values: unknown key 'foo'\n")):
            assert run_cli("sweep", "--param", param, "--values", values,
                           "--output-path", str(out)) == 2
            assert capsys.readouterr() == ("", err)
            assert not out.exists()
    assert run_cli("sweep", "--param", "lr", "--values", "0.05,1e9", "--framework", "dsgd",
                   "--rounds", "3", "--unlearn-round", "1", "--unlearn-client", "1",
                   "--output-path", str(out)) == 3
    assert capsys.readouterr().err == "runtime error: client 0: main model: non-finite output\n"
    assert not out.exists()


def test_cli_fedunl_quit_at_round_zero_trains_again(tmp_path, capsys):
    """A quit before any round subtracts nothing, so the recovery round keeps
    the global's accuracy; the round after it trains on client data again."""
    out = tmp_path / "o"
    assert run_cli("run", "--framework", "fedunl", "--rounds", "3",
                   "--unlearn-round", "0", "--unlearn-client", "1",
                   "--output-path", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO((out / "timeline.csv").read_text(encoding="utf-8"))))
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
    assert [p["round"] for p in _timeline(rep)] == ["0", "1"]
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
