"""Config-driven experiment runner: accuracy comparisons, unlearning
timelines, and hyperparameter sweeps, all reproducible from (config, seed)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baselines as bl
from .data import (LabeledDataset, PartitionedDataset, check_blobs, check_clients,
                   check_split, gen_blobs, load_idx_files, partition_noniid)
from .distill import DistillConfig
from .ensemble import EnsembleConfig, ensemble_predict
from .errors import ConfigError, is_count, is_rate
from .numeric import TIERS, MlpSpec, accuracy, tier_spec, training_step_count
from .simulation import (ClientState, EventLog, SimConfig, Topology, csv_text,
                         evaluate_all, handle_unlearn_request, init_network,
                         retire_client, run_round)

_SMALL_TIER_FRAMEWORKS = ("dsgd", "fedunl", "sisa_a")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked on construction (a file, flags, `replace` or code) and frozen."""

    schema_version: int = SCHEMA_VERSION
    dataset: str = "blobs"                 # blobs | mnist | fmnist
    framework: str = "hdus"
    n_clients: int = 5
    setting: str = "heterogeneous"         # homogeneous | heterogeneous
    ensemble_lambda: float = 0.6
    temperature: float = 3.0
    local_epochs: int = 1
    incubate_epochs: int = 8
    lr: float = 0.05
    incubate_lr: float = 0.1
    batch_size: int = 32
    rounds: int = 30
    unlearn_round: int | None = None
    unlearn_client: int | None = None
    repeats: int = 1
    master_seed: int = 0
    output_path: str | None = None
    ref_size: int = 1000
    test_fraction: float = 0.2
    blob_classes: int = 10
    blob_features: int = 20
    blob_samples_per_class: int = 475
    blob_spread: float = 0.6
    blob_components: int = 6
    data_dir: str | None = None            # IDX files for mnist/fmnist
    incubate_every_rounds: int = 1
    combine: str = "proba"
    seed_tier: str = "small"

    def __post_init__(self):
        for f in fields(self):
            value = _typed(f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
            # NaN passes every `x < 0` bound below, and inf overflows at run time.
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: unsupported value {self.schema_version}")
        if self.output_path == "":
            raise ConfigError("output_path: must not be empty")
        if self.output_path is not None and "\0" in self.output_path:
            raise ConfigError("output_path: must not hold a NUL character")
        if self.dataset not in ("blobs", "mnist", "fmnist"):
            raise ConfigError(f"dataset: unknown dataset {self.dataset!r}")
        if self.framework not in FRAMEWORKS:
            raise ConfigError(f"framework: must be one of {FRAMEWORKS}")
        if self.setting not in ("homogeneous", "heterogeneous"):
            raise ConfigError(f"setting: must be homogeneous or heterogeneous")
        _sim_config(self)
        check_clients(self.n_clients, self.blob_classes if self.dataset == "blobs" else 10,
                      self.ref_size, self.test_fraction)
        if self.rounds < 1:
            raise ConfigError("rounds: must be >= 1")
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        if (self.unlearn_round is None) != (self.unlearn_client is None):
            raise ConfigError("unlearn_round: must be set together with unlearn_client")
        if self.unlearn_round is not None:
            if not 0 <= self.unlearn_round < self.rounds:
                raise ConfigError("unlearn_round: must be within [0, rounds)")
            if not 0 <= self.unlearn_client < self.n_clients:
                raise ConfigError("unlearn_client: must be a valid client id")
        if self.dataset in ("mnist", "fmnist") and self.data_dir is None:
            raise ConfigError("data_dir: required for IDX datasets")
        if self.seed_tier not in TIERS:
            raise ConfigError(f"seed_tier: unknown tier {self.seed_tier!r}")
        # An IDX config reads no blob_* field, and its pool size is known
        # only once the files load: partition_noniid checks the split then.
        if self.dataset == "blobs":
            check_blobs(self.blob_classes, self.blob_samples_per_class,
                        self.blob_features, self.blob_components, self.blob_spread)
            check_split(self.blob_classes * self.blob_samples_per_class,
                        self.n_clients, self.ref_size, self.test_fraction)
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")
        # Only hdus distills seeds. Parameter count grows with the tier for
        # every F and C, and a seed may not outgrow the main it distills.
        if self.framework == "hdus":
            order = list(TIERS)
            smallest = min(self.client_tiers(), key=order.index)
            if order.index(self.seed_tier) > order.index(smallest):
                raise ConfigError(f"seed_tier: {self.seed_tier!r} is larger than "
                                  f"the smallest main, {smallest!r}")

    def client_tiers(self) -> list[str]:
        """Per-client size tiers, as the engine builds the mains. Homogeneous
        runs are all large. Heterogeneous hdus and isgd spread the clients over
        small/medium/large, the remainder going to the larger tiers; dsgd,
        fedunl and sisa_a need one spec and run all small."""
        if self.setting == "homogeneous":
            return ["large"] * self.n_clients
        if self.framework in _SMALL_TIER_FRAMEWORKS:
            return ["small"] * self.n_clients
        base, extra = divmod(self.n_clients, 3)
        counts = {"small": base, "medium": base + (1 if extra >= 2 else 0),
                  "large": base + (1 if extra >= 1 else 0)}
        return (["small"] * counts["small"] + ["medium"] * counts["medium"]
                + ["large"] * counts["large"])

    def canonical_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            if f.name == "output_path":
                continue
            items.append((f.name, json.dumps(getattr(self, f.name))))
        return sorted(items)

    def config_hash(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def snapshot_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in self.canonical_items()]
        return "\n".join([f"# config_hash = {self.config_hash()}"] + lines) + "\n"


# Config keys (file keys and, with `_` as `-`, CLI flags) -> field names:
# every field under its own name, plus these aliases.
_KEY_ALIASES = {"lambda": "ensemble_lambda"}
CONFIG_KEYS = {**{f.name: f.name for f in fields(ExperimentConfig)}, **_KEY_ALIASES}
# Field name -> (type, whether None is allowed); every field is int, float or str.
_FIELD_KINDS = {name: (typing.get_args(hint)[0], True) if typing.get_args(hint)
                else (hint, False)
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _type_name(name: str) -> str:
    kind, nullable = _FIELD_KINDS[name]
    return kind.__name__ + (" | None" if nullable else "")


def _typed(name: str, value: object) -> object:
    """`value` as field `name` stores it, by the one type rule of every config
    route (files, flags, `replace`, code): a nullable field takes None, an int
    field any integral number but a bool, stored as a Python int, a float
    field any real number but a bool, stored as a Python float, and a str
    field only a str. Anything else raises ConfigError naming the field, as
    does an int past Python's limit on int digits, which neither `json.dumps`
    (the hash and snapshot) nor an error message could write."""
    kind, nullable = _FIELD_KINDS[name]
    if isinstance(value, int):
        try:
            repr(value)
        except ValueError:
            raise ConfigError(f"{name}: past Python's limit of "
                              f"{sys.get_int_max_str_digits()} int digits") from None
    if type(value) is kind or (value is None and nullable):
        return value
    if kind is str and isinstance(value, str):
        return str(value)
    if kind is int and is_count(value):
        return int(value)
    if kind is float and is_rate(value):
        try:
            return float(value)
        except OverflowError:   # an int past float's range, as infinite as 1e999
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{name}: expected {_type_name(name)}, got {value!r}")


def parse_config_value(key: str, text: str, where: str | None = None) -> tuple[str, object]:
    """Read the text of a config value: a JSON literal, or a bare word as a
    string. A number field also reads a bare word by Python's int()/float(),
    and a string field keeps the raw text of a literal that is not a string
    (or null, for a nullable one). Returns (field name, value) once
    `_typed` takes the value. Raises ConfigError naming the key, after
    `where` (e.g. "file:line"), for a value of the wrong type and for JSON
    past Python's limits on int digits or nesting depth."""
    prefix = f"{where}: " if where else ""
    name = CONFIG_KEYS.get(key)
    if name is None:
        raise ConfigError(f"{prefix}unknown key {key!r}")
    kind, nullable = _FIELD_KINDS[name]
    text = text.strip()
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
        if kind in (int, float):
            try:
                value = kind(text)
            except ValueError:
                pass
    except (ValueError, RecursionError):   # JSON that Python will not read
        raise ConfigError(f"{prefix}{key}: past Python's limits on int digits "
                          f"or nesting depth") from None
    if kind is str and not isinstance(value, str) and not (value is None and nullable):
        value = text
    try:
        return name, _typed(name, value)
    except ConfigError:
        raise ConfigError(f"{prefix}{key}: expected {_type_name(name)}, "
                          f"got {text!r}") from None


def load_config(path) -> ExperimentConfig:
    """Parse a `key = value` config file; each value is read by
    `parse_config_value`. Unknown and duplicate keys are rejected, and a
    path that cannot be read as UTF-8 text is a ConfigError naming it."""
    values: dict[str, object] = {}
    try:
        # Drop a leading byte-order mark after decoding, so offsets count it.
        with open(path, encoding="utf-8") as f:
            lines = f.read().removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte offset {e.start})") from None
    except OSError as e:     # missing, a directory, or not readable
        raise ConfigError(f"{path}: {e.strerror}") from None
    except ValueError as e:  # a path holding a NUL, which no file system names
        raise ConfigError(f"{path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        name, value = parse_config_value(key.strip(), text, f"{path}:{lineno}")
        if name in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key.strip()!r}")
        values[name] = value
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass
class RepeatResult:
    repeat: int
    seed: int
    event_log: EventLog

    def mean_accuracies(self) -> list[float]:
        """The mean accuracy of each round: the log's `mean` rows, in round order."""
        return [rec[4] for rec in self.event_log.records if rec[1] == "mean"]


@dataclass
class RunReport:
    config: ExperimentConfig
    repeats: list[RepeatResult]

    def final_accuracies(self) -> list[float]:
        return [r.mean_accuracies()[-1] for r in self.repeats]

    def mean(self) -> float:
        return float(np.mean(self.final_accuracies()))

    def std(self) -> float:
        return float(np.std(self.final_accuracies()))


# ---------------------------------------------------------------------------
# Framework engines: shared dataset, one engine, a table of framework steps
# ---------------------------------------------------------------------------

def build_dataset(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    """Blobs, or the pooled IDX train and t10k files under `data_dir/dataset`
    (plain or `.gz`); ConfigError if none exist, one cannot be read, or their
    image shapes differ."""
    if cfg.dataset == "blobs":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        return gen_blobs(cfg.blob_samples_per_class, cfg.blob_classes,
                         cfg.blob_features, cfg.blob_spread, rng,
                         components_per_class=cfg.blob_components)
    # IDX datasets: pool the train and test files; the partitioner re-carves
    # reference, test and client splits from the combined pool.
    base = os.path.join(cfg.data_dir, cfg.dataset)
    files = []   # (images, labels) paths of train, then t10k
    for prefix in ("train", "t10k"):
        img = os.path.join(base, f"{prefix}-images-idx3-ubyte")
        lab = os.path.join(base, f"{prefix}-labels-idx1-ubyte")
        files += [pair for pair in ((img, lab), (img + ".gz", lab + ".gz"))
                  if all(map(os.path.exists, pair))][:1]
    if not files:
        raise ConfigError(f"data_dir: IDX files not found under {base}")
    try:
        parts = [load_idx_files(img, lab) for img, lab in files]
    except OSError as e:     # a directory, or not readable
        raise ConfigError(f"data_dir: {e.filename}: {e.strerror}") from None
    if len(parts) == 1:
        return parts[0]
    shapes = ["x".join(map(str, p.image_shape)) for p in parts]
    if shapes[0] != shapes[1]:
        raise ConfigError(f"data_dir: {files[0][0]} has {shapes[0]} images, "
                          f"{files[1][0]} has {shapes[1]}")
    feats = np.concatenate([p.features for p in parts])
    labs = np.concatenate([p.labels for p in parts])
    return LabeledDataset(feats, labs, parts[0].class_count, parts[0].image_shape)


def build_partition(cfg: ExperimentConfig, seed: int) -> PartitionedDataset:
    data = build_dataset(cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return partition_noniid(data, cfg.n_clients, cfg.ref_size,
                            cfg.test_fraction, rng)


def _sim_config(cfg: ExperimentConfig, seed_spec: MlpSpec | None = None) -> SimConfig:
    """The one map from experiment keys to the module configs, which check
    their own fields: the ensemble's first, so two bad fields name one key."""
    return SimConfig(
        ensemble=EnsembleConfig(lam=cfg.ensemble_lambda, combine=cfg.combine),
        local_epochs=cfg.local_epochs, lr=cfg.lr, batch_size=cfg.batch_size,
        distill=DistillConfig(temperature=cfg.temperature,
                              epochs=cfg.incubate_epochs, lr=cfg.incubate_lr,
                              batch_size=cfg.batch_size),
        seed_spec=seed_spec,
        incubate_every_rounds=cfg.incubate_every_rounds)


def _fedunl_round(e: _Engine, r: int) -> None:
    # The round after a quit recovers the global once; later rounds train.
    if e.server.pre_unlearn_global is None:
        bl.fedunl_round(e.server, e.clients, e.sim)
    else:
        bl.fedunl_recover_round(e.server, e.clients, e.part.reference, e.sim)


# Framework -> (round step, unlearn step), each called with the engine. A step
# looks its callee up when it runs, so a patched module attribute sees the call.
_STEPS = {
    "hdus": (lambda e, r: run_round(e.clients, e.topology, e.sim, round_index=r),
             lambda e, q: handle_unlearn_request(e.clients, q)),
    "isgd": (lambda e, r: bl.isgd_round(e.clients, e.sim),
             lambda e, q: bl.isgd_unlearn(e.clients, q)),
    "dsgd": (lambda e, r: bl.dsgd_round(e.clients, e.topology, e.sim),
             lambda e, q: bl.dsgd_unlearn(e.clients, q, e.seed)),
    "fedunl": (_fedunl_round,
               lambda e, q: bl.fedunl_unlearn(e.server, e.clients, q)),
    "sisa_a": (lambda e, r: bl.sisa_round(e.clients, e.sim),
               lambda e, q: bl.sisa_unlearn_client(e.clients, q)),
}
FRAMEWORKS = tuple(_STEPS)


class _Engine:
    """One framework bound to one partition + master seed."""

    def __init__(self, cfg: ExperimentConfig, part: PartitionedDataset, seed: int):
        self.name = cfg.framework
        self.part = part
        self.seed = seed
        F = part.test.features.shape[1]
        C = part.test.class_count
        self.sim = _sim_config(cfg, tier_spec(cfg.seed_tier, F, C))
        self.topology = Topology.complete(range(cfg.n_clients))
        tiers = cfg.client_tiers()
        specs = [tier_spec(t, F, C) for t in tiers]
        self.clients = init_network(part, specs, self.topology, self.sim, seed,
                                    tiers=tiers)
        # FedUnl's server is the only state a framework adds to the roster.
        self.server = (bl.fedunl_init(self.clients[0].main.spec, seed)
                       if self.name == "fedunl" else None)

    def round(self, r: int) -> None:
        _STEPS[self.name][0](self, r)

    def unlearn(self, quitting_id: int) -> None:
        _STEPS[self.name][1](self, quitting_id)

    def evaluate(self, log: EventLog, r: int) -> None:
        if self.name == "sisa_a":
            # One ensemble of every shard; logged per client for schema uniformity.
            out = bl.sisa_predict(self.clients, self.part.test.features)
            acc = accuracy(out, self.part.test.labels)
            for c in self.clients:
                log.log(r, c.id, self.name, "accuracy", acc)
            log.log(r, "mean", self.name, "mean_accuracy", acc)
            return
        evaluate_all(self.clients, self.part.test, self.sim,
                     framework=self.name, log=log, round_index=r)


def make_engine(cfg: ExperimentConfig, part: PartitionedDataset, seed: int) -> _Engine:
    return _Engine(cfg, part, seed)


def _tick(engine: _Engine, cfg: ExperimentConfig, r: int, unlearn: bool = True) -> None:
    """Round r of a run. The unlearn event occupies the whole tick: no training
    this round, so the t=0 evaluation exposes the state right after the
    request. With unlearn=False the unlearn tick does nothing."""
    if r != cfg.unlearn_round:
        engine.round(r)
    elif unlearn:
        engine.unlearn(cfg.unlearn_client)


def _play(engine: _Engine, cfg: ExperimentConfig,
          unlearn: bool = True) -> tuple[EventLog, int]:
    """Every round of `cfg` on `engine`, each ticked and then evaluated into a
    fresh log. Returns the log and the SGD steps the unlearn tick took."""
    log, steps = EventLog(), 0
    for r in range(cfg.rounds):
        before = training_step_count()
        _tick(engine, cfg, r, unlearn)
        if r == cfg.unlearn_round:
            steps = training_step_count() - before
        engine.evaluate(log, r)
    return log, steps


def _single_run(cfg: ExperimentConfig, repeat: int, seed: int) -> RepeatResult:
    engine = make_engine(cfg, build_partition(cfg, seed), seed)
    return RepeatResult(repeat, seed, _play(engine, cfg)[0])


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """`repeats` independent runs (seed = master_seed + repeat index)."""
    results = [_single_run(cfg, k, cfg.master_seed + k)
               for k in range(cfg.repeats)]
    return RunReport(cfg, results)


def survivor_state(c: ClientState, sim: SimConfig, test: LabeledDataset) -> tuple:
    """What unlearning must leave a survivor as a never-joined control would:
    its main, own seed, repository ids in order, repository seeds and its
    `ensemble_predict` bytes on `test`."""
    own = None if c.own_seed is None else c.own_seed.params.tobytes()
    return (c.main.params.tobytes(), own, c.repo.neighbor_ids(),
            [s.params.tobytes() for _, s in c.repo.entries],
            ensemble_predict(c.main, c.repo, sim.ensemble, test.features).tobytes())


def verify_unlearning(cfg: ExperimentConfig) -> tuple[list[int], int]:
    """Exactness check of `cfg`'s one quit at `master_seed`, against a control
    from the same partition whose quitter retired before round 0 and whose
    unlearn tick does nothing. Returns, in id order, the clients on only one
    roster and the survivors whose `survivor_state` or event-log rows
    from the unlearn round on differ, and the SGD steps the unlearn took."""
    if cfg.unlearn_round is None:
        raise ConfigError("unlearn_round: verify_unlearning needs a quit")
    seed, u = cfg.master_seed, cfg.unlearn_round
    part = build_partition(cfg, seed)
    # The engines share only the read-only partition, so they run in turn.
    run = make_engine(cfg, part, seed)
    run_log, steps = _play(run, cfg)
    control = make_engine(cfg, part, seed)
    retire_client(control.clients, cfg.unlearn_client)
    control_log, _ = _play(control, cfg, unlearn=False)

    def state(engine: _Engine, log: EventLog, cid: int) -> tuple:
        c = next(c for c in engine.clients if c.id == cid)
        return (survivor_state(c, engine.sim, part.test),
                [rec for rec in log.records if rec[0] >= u and rec[1] == str(cid)])

    run_ids, control_ids = ({c.id for c in e.clients} for e in (run, control))
    differ = {cid for cid in run_ids & control_ids
              if state(run, run_log, cid) != state(control, control_log, cid)}
    return sorted((run_ids ^ control_ids) | differ), steps


def sweep(cfg: ExperimentConfig, key: str, values) -> dict[object, RunReport]:
    """One run_experiment per value of any config key. Every cell's config is
    built before the first run, so an unknown key, a bad value or a value
    equal to an earlier one is a ConfigError before any compute; a failing
    run fails the sweep, as it fails `run`."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    cells = {}
    for v in values:
        if v in cells:
            raise ConfigError(f"{key}: grid value {v!r} repeats an earlier one")
        cells[v] = replace(cfg, **{CONFIG_KEYS[key]: v})
    return {v: run_experiment(c) for v, c in cells.items()}


# ---------------------------------------------------------------------------
# Metric emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def summary_csv_text(reports: list[RunReport]) -> str:
    return csv_text(["framework", "repeats", "final_accuracy_mean",
                     "final_accuracy_std", "config_hash"],
                    ([rep.config.framework, len(rep.repeats), repr(rep.mean()),
                      repr(rep.std()), rep.config.config_hash()] for rep in reports))


def timeline_csv_text(reports: list[RunReport]) -> str:
    """One row per repeat and round, read from the event log's `mean` rows;
    `t` is the round's offset from the unlearn round, blank without one."""
    rows = []
    for rep in reports:
        cfg, h, u = rep.config, rep.config.config_hash(), rep.config.unlearn_round
        rows += ([rr.repeat, r, "" if u is None else r - u, cfg.framework, repr(acc), h]
                 for rr in rep.repeats for r, acc in enumerate(rr.mean_accuracies()))
    return csv_text(["repeat", "round", "t", "framework", "mean_accuracy",
                     "config_hash"], rows)


def emit_metrics(report: RunReport | list[RunReport], out_dir: str) -> dict[str, str]:
    """Write summary.csv, timeline.csv, eventlog.csv and config.snapshot
    atomically; returns the written paths. Re-emitting the same report yields
    byte-identical files."""
    reports = report if isinstance(report, list) else [report]
    paths = {
        "summary": os.path.join(out_dir, "summary.csv"),
        "timeline": os.path.join(out_dir, "timeline.csv"),
        "eventlog": os.path.join(out_dir, "eventlog.csv"),
        "config": os.path.join(out_dir, "config.snapshot"),
    }
    _atomic_write(paths["summary"], summary_csv_text(reports))
    _atomic_write(paths["timeline"], timeline_csv_text(reports))
    events = EventLog()
    events.records = [rec for rep in reports for rr in rep.repeats
                      for rec in rr.event_log.records]
    _atomic_write(paths["eventlog"], events.to_csv_text())
    _atomic_write(paths["config"], "".join(r.config.snapshot_text() for r in reports))
    return paths


def unlearn_demo(cfg: ExperimentConfig) -> list[RunReport]:
    """Run every framework on the same data/seed with the configured unlearning
    schedule; the merged timeline reproduces the recovery-curve comparison."""
    if cfg.unlearn_round is None:
        cfg = replace(cfg, unlearn_round=cfg.rounds // 2,
                      unlearn_client=cfg.n_clients - 1)
    return list(sweep(cfg, "framework", FRAMEWORKS).values())
