import csv
import io
import json

import pytest

from hdus.cli import main as cli_main
from hdus.errors import ConfigError
from hdus.harness import (CONFIG_KEYS, FRAMEWORKS, ExperimentConfig,
                          build_partition, emit_metrics, load_config, run_experiment, sweep,
                          summary_csv_text, timeline_csv_text, unlearn_demo)


def tiny(**kw) -> ExperimentConfig:
    """Desk-scale config that keeps each run well under a second."""
    base = dict(dataset="blobs", n_clients=4, rounds=2, repeats=1,
                blob_classes=5, blob_features=6, blob_samples_per_class=60,
                blob_spread=0.5, blob_components=2, ref_size=50,
                incubate_epochs=1, local_epochs=1)
    base.update(kw)
    return ExperimentConfig(**base)


# --- config -----------------------------------------------------------------

def test_validate_catches_bad_fields():
    for bad in (dict(framework="sgd"), dict(dataset="cifar"),
                dict(ensemble_lambda=1.0), dict(temperature=0),
                dict(rounds=0), dict(unlearn_round=1),
                dict(unlearn_round=5, unlearn_client=0, rounds=3),
                dict(unlearn_round=1, unlearn_client=9),
                dict(setting="mixed"), dict(dataset="mnist"),
                dict(tiers=["small"], n_clients=2),
                dict(tiers=["small", "huge"], n_clients=2),
                dict(ref_size=0), dict(ref_size=-1), dict(test_fraction=-0.5),
                dict(test_fraction=1.0), dict(blob_samples_per_class=-3),
                dict(blob_spread=-1.0), dict(blob_components=-1),
                dict(blob_components=0), dict(incubate_every_rounds=0),
                dict(incubate_every_rounds=-1), dict(master_seed=-1),
                dict(incubate_epochs=0), dict(n_clients=6),
                dict(dataset="mnist", data_dir="idx", n_clients=11)):
        with pytest.raises(ConfigError):
            tiny(**bad).validate()
    tiny().validate()


def test_client_tiers_spread():
    assert tiny(n_clients=5, setting="heterogeneous").client_tiers() == \
        ["small", "medium", "medium", "large", "large"]
    assert tiny(n_clients=6, setting="heterogeneous").client_tiers() == \
        ["small", "small", "medium", "medium", "large", "large"]
    assert tiny(n_clients=3, setting="homogeneous").client_tiers() == ["large"] * 3
    assert tiny(n_clients=2, tiers=["small", "large"]).client_tiers() == \
        ["small", "large"]


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
    for text in ("nonsense\n", "unknown_key = 3\n", "rounds = 2\nrounds = 3\n"):
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
    for line in ("n_clients = five", 'rounds = "3"', "lr = true",
                 "tiers = small", 'tiers = ["small", 3]'):
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


def test_heterogeneous_tiers_assigned():
    cfg = tiny(framework="hdus", setting="heterogeneous")
    part = build_partition(cfg, 0)
    from hdus.harness import make_engine
    eng = make_engine(cfg, part, 0)
    assert [c.tier for c in eng.clients] == ["small", "medium", "large", "large"]
    # param-free check: mains really differ in size
    sizes = {c.main.spec.param_count() for c in eng.clients}
    assert len(sizes) == 3


def test_baselines_fall_back_to_small_tier():
    cfg = tiny(framework="dsgd", setting="heterogeneous")
    part = build_partition(cfg, 0)
    from hdus.harness import make_engine
    eng = make_engine(cfg, part, 0)
    assert len({c.main.spec for c in eng.clients}) == 1


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
    first = {k: open(p, "rb").read() for k, p in paths.items()}
    paths2 = emit_metrics(rep, str(out))
    second = {k: open(p, "rb").read() for k, p in paths2.items()}
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
    for flag, value in (("--incubate-epochs", "0"), ("--n-clients", "11")):
        assert run_cli("validate-config", flag, value) == 2
        assert f"config error: {flag[2:].replace('-', '_')}: " in capsys.readouterr().err
    assert run_cli("validate-config", "--combine", "logits", "--n-clients", "2",
                   "--tiers", '["small","large"]') == 0
    assert "config_hash" in capsys.readouterr().out


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


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # mnist requested but no IDX files present under data_dir
    code = run_cli("run", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--rounds", "1")
    assert code in (2, 3)
