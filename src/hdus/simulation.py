"""Deterministic simulation of the decentralized network: client state
machines, topology, synchronous round scheduling, seed exchange over the
binary wire format, and unlearning-request events."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, PartitionedDataset
from .distill import DistillConfig, ReferenceSet, incubate_seed
from .ensemble import (EnsembleConfig, SeedRepository, add_neighbor_seed,
                       deserialize_seed, ensemble_predict, serialize_seed,
                       unlearn_neighbor)
from .errors import ConfigError, DivergenceError, NotFoundError, StateError
from .numeric import MlpModel, MlpSpec, accuracy, init_mlp, sgd_train

ACTIVE = "active"
QUIT = "quit"


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


@dataclass
class ClientState:
    id: int
    main: MlpModel | None
    own_seed: MlpModel | None
    repo: SeedRepository
    local_data: LabeledDataset | None
    ref: ReferenceSet
    train_rng: np.random.Generator
    distill_rng: np.random.Generator
    status: str = ACTIVE
    tier: str = "large"
    initial_main: MlpModel | None = None   # snapshot for retrain-from-scratch baselines


@dataclass
class SimConfig:
    local_epochs: int = 1
    lr: float = 0.05
    batch_size: int = 32
    distill: DistillConfig = field(default_factory=DistillConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    seed_spec: MlpSpec | None = None       # required for seed exchange
    incubate_every_rounds: int = 1


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
    """Clients with independent rng sub-streams and empty repositories."""
    n = partition.n_clients
    if len(specs) != n:
        raise ConfigError(f"{len(specs)} specs for {n} clients")
    dims = {(s.in_dim, s.out_dim) for s in specs}
    if len(dims) != 1:
        raise ConfigError(f"all specs must share (F, C), got {sorted(dims)}")
    clients = []
    for i in range(n):
        train_rng, distill_rng = client_rng_streams(master_seed, i)
        main = init_mlp(specs[i], train_rng)
        clients.append(ClientState(
            id=i, main=main, own_seed=None, repo=SeedRepository(owner_id=i),
            local_data=partition.client_splits[i], ref=partition.reference,
            train_rng=train_rng, distill_rng=distill_rng,
            tier=tiers[i] if tiers else "large",
            initial_main=main.copy()))
    return clients


def active_clients(clients: list[ClientState]) -> list[ClientState]:
    return [c for c in clients if c.status == ACTIVE]


def local_training_phase(clients: list[ClientState], cfg: SimConfig) -> None:
    """One round of main-model SGD on each active client's local data."""
    for c in sorted(active_clients(clients), key=lambda c: c.id):
        try:
            sgd_train(c.main, c.local_data.features, c.local_data.labels,
                      c.local_data.class_count, cfg.local_epochs, cfg.lr,
                      cfg.batch_size, c.train_rng)
        except DivergenceError as e:
            raise DivergenceError(f"client {c.id}: {e}") from e


def run_round(clients: list[ClientState], topology: Topology, cfg: SimConfig,
              round_index: int = 0, wire_log: list[bytes] | None = None) -> list[ClientState]:
    """Synchronous round: (a) local main-model training, (b) seed incubation
    per cadence, (c) barrier exchange of serialized seeds to all active
    neighbors (remove-then-add replacement keeps repository order stable)."""
    active = active_clients(clients)
    if not active:
        raise StateError("no active clients")
    if cfg.seed_spec is None:
        raise ConfigError("cfg.seed_spec is required for seed exchange rounds")

    local_training_phase(clients, cfg)
    for c in sorted(active, key=lambda c: c.id):
        if round_index % cfg.incubate_every_rounds == 0 or c.own_seed is None:
            try:
                # Warm-started: each incubation pass refines the previous seed
                # against the current main model's targets.
                c.own_seed = incubate_seed(c.main, cfg.seed_spec, c.ref,
                                           cfg.distill, c.distill_rng,
                                           init=c.own_seed)
            except DivergenceError as e:
                raise DivergenceError(f"client {c.id}: {e}") from e

    by_id = {c.id: c for c in clients}
    for c in sorted(active, key=lambda c: c.id):
        blob = serialize_seed(c.own_seed)
        if wire_log is not None:
            wire_log.append(blob)
        for nid in sorted(topology.neighbors(c.id)):
            nbr = by_id.get(nid)
            if nbr is None or nbr.status != ACTIVE:
                continue
            if c.id in nbr.repo:
                unlearn_neighbor(nbr.repo, c.id)
            add_neighbor_seed(nbr.repo, c.id, deserialize_seed(blob))
    return clients


def retire_client(clients: list[ClientState], quitting_id: int) -> None:
    """Mark an active client as quit and drop its data, models and repository.
    Raises NotFoundError, before changing anything, if it is unknown or gone."""
    quitter = next((c for c in clients if c.id == quitting_id), None)
    if quitter is None or quitter.status != ACTIVE:
        raise NotFoundError(f"client {quitting_id} is unknown or already quit")
    quitter.status = QUIT
    quitter.main = None
    quitter.own_seed = None
    quitter.local_data = None
    quitter.repo = SeedRepository(owner_id=quitting_id)


def handle_unlearn_request(clients: list[ClientState], quitting_id: int) -> list[ClientState]:
    """Retire the quitter and remove its seed from every other client's
    repository. No retraining, no parameter mutation."""
    retire_client(clients, quitting_id)
    for c in clients:
        if c.id != quitting_id and quitting_id in c.repo:
            unlearn_neighbor(c.repo, quitting_id)
    return clients


def evaluate_all(clients: list[ClientState], test: LabeledDataset,
                 cfg: SimConfig, framework: str = "hdus",
                 log: EventLog | None = None,
                 round_index: int = 0) -> tuple[dict[int, float], float]:
    """Per-active-client ensemble accuracy on the shared test set + the mean."""
    if len(test) == 0:
        raise ConfigError("empty test set")
    per_client: dict[int, float] = {}
    for c in sorted(active_clients(clients), key=lambda c: c.id):
        out = ensemble_predict(c.main, c.repo, cfg.ensemble, test.features)
        per_client[c.id] = accuracy(out, test.labels)
    mean = float(np.mean(list(per_client.values())))
    if log is not None:
        for cid, acc in per_client.items():
            log.log(round_index, cid, framework, "accuracy", acc)
        log.log(round_index, "mean", framework, "mean_accuracy", mean)
    return per_client, mean
