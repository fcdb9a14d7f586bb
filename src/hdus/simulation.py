"""Deterministic simulation of the decentralized network: client state
machines, topology, synchronous round scheduling, seed exchange over the
binary wire format, and unlearning-request events."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import LabeledDataset, PartitionedDataset
from .distill import DistillConfig, ReferenceSet, incubate_seeds
from .ensemble import (EnsembleConfig, SeedRepository, _mix, _model_output,
                       add_neighbor_seed, deserialize_seed, serialize_seed,
                       unlearn_neighbor)
from .errors import (ConfigError, DivergenceError, NotFoundError, StateError,
                     ValidationError, check_count, check_rate)
from .numeric import (MlpModel, MlpSpec, _train_stack, accuracy, init_mlp,
                      onehot_labels)

ACTIVE = "active"


@dataclass
class Topology:
    adjacency: dict[int, frozenset[int]]

    def __post_init__(self):
        for i, nbrs in self.adjacency.items():
            if i in nbrs:
                raise ConfigError(f"self-loop at client {i}")
            for j in nbrs:
                if i not in self.adjacency.get(j, frozenset()):
                    raise ConfigError(f"asymmetric edge {i} -> {j}")

    @classmethod
    def complete(cls, client_ids) -> "Topology":
        ids = list(client_ids)
        return cls({i: frozenset(j for j in ids if j != i) for i in ids})

    def neighbors(self, client_id: int) -> frozenset[int]:
        return self.adjacency.get(client_id, frozenset())

    def without(self, client_id: int) -> "Topology":
        adj = {i: frozenset(n for n in nbrs if n != client_id)
               for i, nbrs in self.adjacency.items() if i != client_id}
        return Topology(adj)


def csv_text(header: list[str], rows) -> str:
    """CSV text: the header, then one line per row, with LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class EventLog:
    """Append-only (round, client, framework, metric, value) records."""

    def __init__(self):
        self.records: list[tuple[int, str, str, str, float]] = []

    def log(self, round_index: int, client_id, framework: str, metric: str,
            value: float) -> None:
        self.records.append((int(round_index), str(client_id), framework,
                             metric, float(value)))

    def to_csv_text(self) -> str:
        return csv_text(["round", "client_id", "framework", "metric", "value"],
                        ([*rec[:4], repr(rec[4])] for rec in self.records))


@dataclass(slots=True)
class ClientState:
    """A client on a roster: a quit deletes it, so every one is active. Slotted,
    so an instance cannot set the class-wide `status`."""

    id: int
    main: MlpModel
    own_seed: MlpModel | None
    repo: SeedRepository
    local_data: LabeledDataset
    ref: ReferenceSet
    train_rng: np.random.Generator
    distill_rng: np.random.Generator
    tier: str = "large"
    status: ClassVar[str] = ACTIVE     # read by perfbench's churn-10 filter


@dataclass
class SimConfig:
    local_epochs: int = 1
    lr: float = 0.05
    batch_size: int = 32
    distill: DistillConfig = field(default_factory=DistillConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    seed_spec: MlpSpec | None = None       # required for seed exchange
    incubate_every_rounds: int = 1

    def __post_init__(self):
        for key in ("local_epochs", "batch_size", "incubate_every_rounds"):
            check_count(key, getattr(self, key))
        check_rate("lr", self.lr)
        if self.local_epochs < 0:
            raise ConfigError("local_epochs: must be >= 0")
        if not 0 <= self.lr < float("inf"):
            raise ConfigError(f"lr: must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.incubate_every_rounds < 1:
            raise ConfigError("incubate_every_rounds: must be >= 1")


def client_rng_streams(master_seed: int, client_id: int):
    """Two independent streams per client (training, distillation), derived by
    mixing the client id into the master seed so that adding clients never
    perturbs existing streams."""
    train = np.random.default_rng(np.random.SeedSequence(master_seed,
                                                         spawn_key=(1, client_id, 0)))
    distill = np.random.default_rng(np.random.SeedSequence(master_seed,
                                                           spawn_key=(1, client_id, 1)))
    return train, distill


def init_network(partition: PartitionedDataset, specs: list[MlpSpec],
                 topology: Topology, cfg: SimConfig, master_seed: int,
                 tiers: list[str] | None = None) -> list[ClientState]:
    """The roster, in id order: independent rng streams, empty repositories."""
    n = partition.n_clients
    if len(specs) != n:
        raise ConfigError(f"{len(specs)} specs for {n} clients")
    dims = (partition.test.features.shape[1], partition.test.class_count)
    for i, s in enumerate(specs):
        if (s.in_dim, s.out_dim) != dims:
            raise ConfigError(f"client {i}: spec (F, C) = ({s.in_dim}, {s.out_dim}), "
                              f"partition has {dims}")
    clients = []
    for i in range(n):
        train_rng, distill_rng = client_rng_streams(master_seed, i)
        main = init_mlp(specs[i], train_rng)
        clients.append(ClientState(
            id=i, main=main, own_seed=None, repo=SeedRepository(owner_id=i),
            local_data=partition.client_splits[i], ref=partition.reference,
            train_rng=train_rng, distill_rng=distill_rng,
            tier=tiers[i] if tiers else "large"))
    return clients


def active_neighbors(clients: list[ClientState], topology: Topology,
                     client_id: int) -> list[ClientState]:
    """The clients on the roster adjacent to `client_id`, in roster order."""
    nbrs = topology.neighbors(client_id)
    return [c for c in clients if c.id in nbrs]


def local_training_phase(clients: list[ClientState], cfg: SimConfig) -> None:
    """Every framework's local training: one round of main-model SGD per
    client, as one `numeric._train_stack` call per (main spec, split size)
    group, groups in first-appearance order and clients in id order within
    one. Each client draws from its own `train_rng`, so its main ends bitwise
    as `sgd_train` alone would leave it.

    Fail fast: the first group to diverge raises `client N: ...`, N its
    lowest client at fault; its mains keep their pre-round parameters, and
    later groups do not train.
    """
    groups: dict[tuple[MlpSpec, int], list[ClientState]] = {}
    for c in clients:
        groups.setdefault((c.main.spec, len(c.local_data)), []).append(c)
    for (spec, _), group in groups.items():
        stack = np.stack([c.main.params for c in group])
        splits = [c.local_data for c in group]
        features = np.stack([d.features for d in splits])
        targets = np.stack([onehot_labels(d.labels, d.class_count) for d in splits])
        try:
            _train_stack(MlpModel(spec, stack), features, targets, 1.0,
                         cfg.local_epochs, cfg.lr, cfg.batch_size,
                         [c.train_rng for c in group])
        except DivergenceError as e:
            raise DivergenceError(f"client {group[e.index].id}: {e}") from e
        for c, row in zip(group, stack):
            c.main.params[...] = row


def run_round(clients: list[ClientState], topology: Topology, cfg: SimConfig,
              round_index: int = 0) -> None:
    """Synchronous round: (a) local main-model training, (b) seed incubation
    per cadence, (c) each due client's new seed replaces its entry in every
    neighbor's repository; an unchanged seed is not re-sent.

    The due clients' seeds are incubated as one stack (`incubate_seeds`),
    each bitwise what it would be alone. The first failing divergence check
    raises DivergenceError naming its lowest client at fault, and no
    client's seed is stored or sent. A sent seed is serialized and decoded
    once, and every receiver stores that same read-only seed object,
    remove-then-add. Every client holds a seed after its first round, so all
    clients are due or none, and repositories stay in sender-id order.
    """
    if not clients:
        raise StateError("no active clients")
    if cfg.seed_spec is None:
        raise ConfigError("cfg.seed_spec is required for seed exchange rounds")
    due = [c for c in clients
           if round_index % cfg.incubate_every_rounds == 0 or c.own_seed is None]
    ref = clients[0].ref
    if any(c.ref is not ref for c in due):
        raise ConfigError("clients must share one reference set")

    local_training_phase(clients, cfg)
    try:
        # Warm-started: each incubation pass refines the previous seed
        # against the current main model's targets.
        seeds = incubate_seeds([c.main for c in due], cfg.seed_spec, ref,
                               cfg.distill, [c.distill_rng for c in due],
                               [c.own_seed for c in due])
    except DivergenceError as e:
        raise DivergenceError(f"client {due[e.index].id}: {e}") from e
    for c, seed in zip(due, seeds):
        c.own_seed = seed
        receivers = active_neighbors(clients, topology, c.id)
        if not receivers:
            continue
        sent = deserialize_seed(serialize_seed(seed))
        for nbr in receivers:
            if c.id in nbr.repo:
                unlearn_neighbor(nbr.repo, c.id)
            add_neighbor_seed(nbr.repo, c.id, sent)


def retire_client(clients: list[ClientState], quitting_id: int) -> None:
    """Delete a client, with its data, models and repository, from the roster
    in place, keeping the others' order. Raises NotFoundError, before
    changing anything, if it is unknown or gone."""
    i = next((i for i, c in enumerate(clients) if c.id == quitting_id), None)
    if i is None:
        raise NotFoundError(f"client {quitting_id} is unknown or already quit")
    del clients[i]


def handle_unlearn_request(clients: list[ClientState], quitting_id: int) -> None:
    """Retire the quitter and remove its seed from every other client's
    repository. No retraining, no parameter mutation."""
    retire_client(clients, quitting_id)
    for c in clients:
        if quitting_id in c.repo:
            unlearn_neighbor(c.repo, quitting_id)


def _shared_prefix(a: list[tuple[int, MlpModel]],
                   b: list[tuple[int, MlpModel]]) -> int:
    """How many leading repository entries hold the same seed objects."""
    n = 0
    for (_, x), (_, y) in zip(a, b):
        if x is not y:
            break
        n += 1
    return n


def evaluate_all(clients: list[ClientState], test: LabeledDataset,
                 cfg: SimConfig, framework: str = "hdus",
                 log: EventLog | None = None,
                 round_index: int = 0) -> tuple[dict[int, float], float]:
    """Per-client ensemble accuracy on the shared test set + the mean.

    Bitwise what `ensemble_predict` gives each client, for less work:
    - A seed is forwarded once in its lifetime: repositories hold only
      read-only seeds (receivers share the seed decoded from one blob), and
      its output on the read-only `test.features` is stored on the seed,
      keyed by that array and the combine mode; another test set or mode
      forwards it anew. Writable test features (a copied test set) are a
      ValidationError.
    - Each repository sums its seed outputs in its own order, starting from
      the partial sum of the prefix it shares (by seed identity) with the
      previous client's repository, so a prefix common to a run of
      repositories is summed once.
    """
    features = test.features
    if features.flags.writeable:
        raise ValidationError("test features are writable (a copied test set?)")
    if not clients:
        raise StateError("no active clients")
    combine, lam = cfg.ensemble.combine, cfg.ensemble.lam

    def seed_output(nid: int, seed: MlpModel) -> np.ndarray:
        cached = seed._test_output
        if cached is None or cached[0] is not features or cached[1] != combine:
            out = _model_output(seed, features, combine, f"seed of neighbor {nid}")
            out.flags.writeable = False
            cached = seed._test_output = (features, combine, out)
        return cached[2]

    # One list per client, and an empty one after the last.
    repos = [c.repo.entries if lam != 0.0 else [] for c in clients] + [[]]
    carry = None    # (length, partial sum) of the prefix the next repo shares
    per_client: dict[int, float] = {}
    for i, c in enumerate(clients):
        out = _model_output(c.main, features, combine, f"client {c.id}: main model")
        entries = repos[i]
        if entries:
            keep = _shared_prefix(entries, repos[i + 1])
            done, seed_sum = carry or (0, np.zeros_like(out))
            carry = None
            if done <= keep and keep > 0:
                for nid, seed in entries[done:keep]:
                    seed_sum += seed_output(nid, seed)
                done = keep
                # The sum is not written after the last entry, so it needs
                # no copy when the next repository shares all of it.
                carry = (keep, seed_sum.copy() if keep < len(entries) else seed_sum)
            for nid, seed in entries[done:]:
                seed_sum += seed_output(nid, seed)
            out = _mix(out, seed_sum, lam, len(entries))
        per_client[c.id] = accuracy(out, test.labels)
    mean = float(np.mean(list(per_client.values())))
    if log is not None:
        for cid, acc in per_client.items():
            log.log(round_index, cid, framework, "accuracy", acc)
        log.log(round_index, "mean", framework, "mean_accuracy", mean)
    return per_client, mean
