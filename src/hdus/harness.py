"""Config-driven experiment runner: accuracy comparisons, unlearning
timelines, and hyperparameter sweeps, all reproducible from (config, seed)."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baselines as bl
from .data import LabeledDataset, PartitionedDataset, gen_blobs, load_idx_files, partition_noniid
from .distill import DistillConfig
from .ensemble import EnsembleConfig
from .errors import ConfigError, HdusError
from .numeric import accuracy, tier_spec
from .simulation import (EventLog, SimConfig, Topology, active_clients,
                         csv_text, evaluate_all, handle_unlearn_request,
                         init_network, run_round)

FRAMEWORKS = ("hdus", "isgd", "dsgd", "fedunl", "sisa_a")
_SMALL_TIER_FRAMEWORKS = ("dsgd", "fedunl", "sisa_a")
SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    dataset: str = "blobs"                 # blobs | mnist | fmnist
    framework: str = "hdus"
    n_clients: int = 5
    setting: str = "heterogeneous"         # homogeneous | heterogeneous
    tiers: list[str] | None = None         # explicit per-client override
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

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: unsupported value {self.schema_version}")
        if self.dataset not in ("blobs", "mnist", "fmnist"):
            raise ConfigError(f"dataset: unknown dataset {self.dataset!r}")
        if self.framework not in FRAMEWORKS:
            raise ConfigError(f"framework: must be one of {FRAMEWORKS}")
        if self.setting not in ("homogeneous", "heterogeneous"):
            raise ConfigError(f"setting: must be homogeneous or heterogeneous")
        if not 0.0 <= self.ensemble_lambda < 1.0:
            raise ConfigError(f"lambda: must be in [0, 1), got {self.ensemble_lambda}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature: must be > 0, got {self.temperature}")
        # A lone client omits one class and has no donor for its rows.
        if self.n_clients < 2:
            raise ConfigError("n_clients: must be >= 2")
        # Each client never sees one distinct class, so classes bound clients.
        class_count = self.blob_classes if self.dataset == "blobs" else 10
        if self.n_clients > class_count:
            raise ConfigError(f"n_clients: {self.n_clients} exceeds the "
                              f"{class_count} classes of {self.dataset}")
        if self.rounds < 1:
            raise ConfigError("rounds: must be >= 1")
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs: must be >= 0")
        if self.incubate_epochs < 1:
            raise ConfigError("incubate_epochs: must be >= 1")
        if self.lr < 0 or self.incubate_lr < 0:
            raise ConfigError("lr/incubate_lr: must be >= 0")
        if self.tiers is not None:
            if len(self.tiers) != self.n_clients:
                raise ConfigError("tiers: length must equal n_clients")
            for t in self.tiers:
                if t not in ("small", "medium", "large"):
                    raise ConfigError(f"tiers: unknown tier {t!r}")
        if (self.unlearn_round is None) != (self.unlearn_client is None):
            raise ConfigError("unlearn_round and unlearn_client must be set together")
        if self.unlearn_round is not None:
            if not 0 <= self.unlearn_round < self.rounds:
                raise ConfigError("unlearn_round: must be within [0, rounds)")
            if not 0 <= self.unlearn_client < self.n_clients:
                raise ConfigError("unlearn_client: must be a valid client id")
        if self.dataset in ("mnist", "fmnist") and self.data_dir is None:
            raise ConfigError("data_dir: required for IDX datasets")
        if self.combine not in ("proba", "logits"):
            raise ConfigError("combine: must be proba or logits")
        if self.seed_tier not in ("small", "medium", "large"):
            raise ConfigError(f"seed_tier: unknown tier {self.seed_tier!r}")
        if self.ref_size < 1:
            raise ConfigError("ref_size: must be >= 1")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction: must be in (0, 1)")
        if self.blob_samples_per_class < 1:
            raise ConfigError("blob_samples_per_class: must be >= 1")
        if self.blob_spread < 0:
            raise ConfigError("blob_spread: must be >= 0")
        if self.blob_components < 1:
            raise ConfigError("blob_components: must be >= 1")
        if self.dataset == "blobs":
            # Bounds of gen_blobs and of the reference carve-out; IDX pool
            # sizes are known only once the files load.
            if self.blob_classes < 2:
                raise ConfigError("blob_classes: must be >= 2")
            if self.blob_features < 2:
                raise ConfigError("blob_features: must be >= 2")
            clusters = self.blob_components * self.blob_classes
            grid = self.blob_features * (self.blob_features - 1)
            if clusters > grid:
                raise ConfigError(
                    f"blob_features: a grid of {self.blob_features} features holds "
                    f"{grid} clusters, but blob_components x blob_classes = {clusters}")
            pool = self.blob_classes * self.blob_samples_per_class
            if self.ref_size >= pool:
                raise ConfigError(f"ref_size: {self.ref_size} must be < the {pool} "
                                  f"blob samples")
        if self.incubate_every_rounds < 1:
            raise ConfigError("incubate_every_rounds: must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")

    def client_tiers(self) -> list[str]:
        """Per-client size tiers, as the engine builds the mains. Heterogeneous
        dsgd, fedunl and sisa_a need one spec: all small, over any `tiers`.
        Otherwise heterogeneous spreads clients over small/medium/large with
        the remainder going to the larger tiers."""
        if self.setting == "heterogeneous" and self.framework in _SMALL_TIER_FRAMEWORKS:
            return ["small"] * self.n_clients
        if self.tiers is not None:
            return list(self.tiers)
        if self.setting == "homogeneous":
            return ["large"] * self.n_clients
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
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config_value(key: str, text: str, where: str | None = None) -> tuple[str, object]:
    """Read the text of a config value: a JSON literal, or a bare word as a
    string. Returns (field name, value) once the value fits the field's type:
    an int field takes no bool, a float field turns an int into a float, a
    number field also reads a bare word by Python's int()/float(), and a
    string field keeps the raw text of a literal that is not a string.
    Raises ConfigError naming the key, after `where` (e.g. "file:line")."""
    prefix = f"{where}: " if where else ""
    name = CONFIG_KEYS.get(key)
    if name is None:
        raise ConfigError(f"{prefix}unknown key {key!r}")
    hint = _FIELD_TYPES[name]
    nullable = type(None) in typing.get_args(hint)
    kind = typing.get_args(hint)[0] if nullable else hint
    text = text.strip()
    try:
        value, bare = json.loads(text), False
    except json.JSONDecodeError:
        value, bare = text, True
    if value is None and nullable:
        return name, None
    if kind is str:
        return name, value if isinstance(value, str) else text
    if bare and kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            pass
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is kind or (kind == list[str] and isinstance(value, list)
                               and all(isinstance(v, str) for v in value)):
        return name, value
    type_name = getattr(hint, "__name__", None) or str(hint)
    raise ConfigError(f"{prefix}{key}: expected {type_name}, got {text!r}")


def load_config(path) -> ExperimentConfig:
    """Parse a `key = value` config file; each value is read by
    `parse_config_value`. Unknown and duplicate keys are rejected."""
    values: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte offset {e.start})") from None
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
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass
class TimelinePoint:
    repeat: int
    round: int
    t: int | None            # round offset relative to the unlearn event
    framework: str
    mean_accuracy: float


@dataclass
class RepeatResult:
    repeat: int
    seed: int
    event_log: EventLog
    timeline: list[TimelinePoint]
    final_accuracy: float


@dataclass
class RunReport:
    config: ExperimentConfig
    config_hash: str
    repeats: list[RepeatResult]

    def final_accuracies(self) -> list[float]:
        return [r.final_accuracy for r in self.repeats]

    def mean(self) -> float:
        return float(np.mean(self.final_accuracies()))

    def std(self) -> float:
        return float(np.std(self.final_accuracies()))


# ---------------------------------------------------------------------------
# Framework engines: shared dataset + unified round/unlearn/evaluate loop
# ---------------------------------------------------------------------------

def build_dataset(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    if cfg.dataset == "blobs":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        return gen_blobs(cfg.blob_samples_per_class, cfg.blob_classes,
                         cfg.blob_features, cfg.blob_spread, rng,
                         components_per_class=cfg.blob_components)
    # IDX datasets: pool the train and test files; the partitioner re-carves
    # reference, test and client splits from the combined pool.
    base = os.path.join(cfg.data_dir, cfg.dataset)
    parts = []
    for img_name, lab_name in (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                               ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
        img = os.path.join(base, img_name)
        lab = os.path.join(base, lab_name)
        for cand_img, cand_lab in ((img, lab), (img + ".gz", lab + ".gz")):
            if os.path.exists(cand_img) and os.path.exists(cand_lab):
                parts.append(load_idx_files(cand_img, cand_lab))
                break
    if not parts:
        raise ConfigError(f"data_dir: IDX files not found under {base}")
    if len(parts) == 1:
        return parts[0]
    feats = np.concatenate([p.features for p in parts])
    labs = np.concatenate([p.labels for p in parts])
    return LabeledDataset(feats, labs, parts[0].class_count, parts[0].scaling)


def build_partition(cfg: ExperimentConfig, seed: int) -> PartitionedDataset:
    data = build_dataset(cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return partition_noniid(data, cfg.n_clients, cfg.ref_size,
                            cfg.test_fraction, rng)


def _sim_config(cfg: ExperimentConfig, feature_dim: int, class_count: int) -> SimConfig:
    return SimConfig(
        local_epochs=cfg.local_epochs, lr=cfg.lr, batch_size=cfg.batch_size,
        distill=DistillConfig(temperature=cfg.temperature,
                              epochs=cfg.incubate_epochs, lr=cfg.incubate_lr,
                              batch_size=cfg.batch_size),
        ensemble=EnsembleConfig(lam=cfg.ensemble_lambda, combine=cfg.combine),
        seed_spec=tier_spec(cfg.seed_tier, feature_dim, class_count),
        incubate_every_rounds=cfg.incubate_every_rounds)


class _Engine:
    """One framework bound to one partition + master seed."""

    name = "base"

    def __init__(self, cfg: ExperimentConfig, part: PartitionedDataset, seed: int):
        self.cfg = cfg
        self.part = part
        self.seed = seed
        F = part.test.features.shape[1]
        C = part.test.class_count
        self.sim = _sim_config(cfg, F, C)
        self.topology = Topology.complete(range(cfg.n_clients))
        tiers = cfg.client_tiers()
        specs = [tier_spec(t, F, C) for t in tiers]
        self.clients = init_network(part, specs, self.topology, self.sim, seed,
                                    tiers=tiers)

    def round(self, r: int) -> None:
        raise NotImplementedError

    def unlearn(self, quitting_id: int) -> None:
        raise NotImplementedError

    def evaluate(self, log: EventLog, r: int) -> float:
        _, mean = evaluate_all(self.clients, self.part.test, self.sim,
                               framework=self.name, log=log, round_index=r)
        return mean


class _HdusEngine(_Engine):
    name = "hdus"

    def round(self, r):
        run_round(self.clients, self.topology, self.sim, round_index=r)

    def unlearn(self, quitting_id):
        handle_unlearn_request(self.clients, quitting_id)


class _IsgdEngine(_Engine):
    name = "isgd"

    def round(self, r):
        bl.isgd_round(self.clients, self.sim)

    def unlearn(self, quitting_id):
        bl.isgd_unlearn(self.clients, quitting_id)


class _DsgdEngine(_Engine):
    name = "dsgd"

    def round(self, r):
        bl.dsgd_round(self.clients, self.topology, self.sim)

    def unlearn(self, quitting_id):
        bl.dsgd_unlearn(self.clients, quitting_id)


class _FedunlEngine(_Engine):
    name = "fedunl"

    def __init__(self, cfg, part, seed):
        super().__init__(cfg, part, seed)
        self.server = bl.fedunl_init(self.clients[0].main.spec, seed)

    def round(self, r):
        # Once a quit is subtracted, every round distills the global back.
        if self.server.pre_unlearn_global is None:
            bl.fedunl_round(self.server, self.clients, self.sim)
        else:
            bl.fedunl_recover_round(self.server, self.clients, self.part.reference,
                                    self.sim, epochs=self.cfg.local_epochs or 1)

    def unlearn(self, quitting_id):
        bl.fedunl_unlearn(self.server, self.clients, quitting_id)


class _SisaEngine(_Engine):
    name = "sisa_a"

    def round(self, r):
        bl.sisa_round(self.clients, self.sim)

    def unlearn(self, quitting_id):
        bl.sisa_unlearn_client(self.clients, quitting_id)

    def evaluate(self, log, r):
        # One ensemble of every shard; logged per client for schema uniformity.
        out = bl.sisa_predict(self.clients, self.part.test.features)
        acc = accuracy(out, self.part.test.labels)
        for c in active_clients(self.clients):
            log.log(r, c.id, self.name, "accuracy", acc)
        log.log(r, "mean", self.name, "mean_accuracy", acc)
        return acc


_ENGINES = {"hdus": _HdusEngine, "isgd": _IsgdEngine, "dsgd": _DsgdEngine,
            "fedunl": _FedunlEngine, "sisa_a": _SisaEngine}


def make_engine(cfg: ExperimentConfig, part: PartitionedDataset, seed: int) -> _Engine:
    return _ENGINES[cfg.framework](cfg, part, seed)


def _single_run(cfg: ExperimentConfig, repeat: int, seed: int) -> RepeatResult:
    engine = make_engine(cfg, build_partition(cfg, seed), seed)
    log = EventLog()
    timeline: list[TimelinePoint] = []
    u = cfg.unlearn_round
    final_acc = 0.0
    for r in range(cfg.rounds):
        t = None if u is None else r - u
        if u is not None and r == u:
            # The unlearn event occupies the whole tick: no training this round,
            # so the t=0 evaluation exposes the state right after the request.
            engine.unlearn(cfg.unlearn_client)
        else:
            engine.round(r)
        final_acc = engine.evaluate(log, r)
        timeline.append(TimelinePoint(repeat, r, t, engine.name, final_acc))
    return RepeatResult(repeat, seed, log, timeline, final_acc)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """`repeats` independent runs (seed = master_seed + repeat index)."""
    cfg.validate()
    results = [_single_run(cfg, k, cfg.master_seed + k)
               for k in range(cfg.repeats)]
    return RunReport(cfg, cfg.config_hash(), results)


def sweep(cfg: ExperimentConfig, param: str, values) -> dict[object, RunReport | HdusError]:
    """One run_experiment per grid value; a bad cell records its error and the
    sweep continues."""
    if param not in ("lambda", "temperature"):
        raise ConfigError(f"sweep param must be 'lambda' or 'temperature', got {param!r}")
    field_name = CONFIG_KEYS[param]
    grid: dict[object, RunReport | HdusError] = {}
    for v in values:
        try:
            cell_cfg = replace(cfg, **{field_name: v})
            grid[v] = run_experiment(cell_cfg)
        except HdusError as e:
            grid[v] = e
    return grid


# ---------------------------------------------------------------------------
# Metric emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
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
                      repr(rep.std()), rep.config_hash] for rep in reports))


def timeline_csv_text(reports: list[RunReport]) -> str:
    return csv_text(["repeat", "round", "t", "framework", "mean_accuracy",
                     "config_hash"],
                    ([p.repeat, p.round, "" if p.t is None else p.t, p.framework,
                      repr(p.mean_accuracy), rep.config_hash]
                     for rep in reports for rr in rep.repeats for p in rr.timeline))


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
    cfg.validate()
    return [run_experiment(replace(cfg, framework=fw)) for fw in FRAMEWORKS]
