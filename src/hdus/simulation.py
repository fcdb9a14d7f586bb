"""Deterministic simulation of the decentralized network: client state
machines, topology, synchronous round scheduling, seed exchange over the
binary wire format, and unlearning-request events."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, PartitionedDataset
from .distill import DistillConfig, ReferenceSet, incubate_seeds
from .ensemble import (EnsembleConfig, SeedRepository, _combine, _model_output,
                       add_neighbor_seed, deserialize_seed, serialize_seed,
                       unlearn_neighbor)
from .errors import ConfigError, DivergenceError, NotFoundError, StateError
from .numeric import (MlpModel, MlpSpec, _train_stack, accuracy, init_mlp,
                      onehot_labels)

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
    """The active clients in id order: the order every framework acts in."""
    return sorted((c for c in clients if c.status == ACTIVE), key=lambda c: c.id)


def active_neighbors(clients: list[ClientState], topology: Topology,
                     client_id: int) -> list[ClientState]:
    """The active clients adjacent to `client_id`, in id order."""
    nbrs = topology.neighbors(client_id)
    return [c for c in active_clients(clients) if c.id in nbrs]


def local_training_phase(clients: list[ClientState], cfg: SimConfig) -> None:
    """Every framework's local training: one round of main-model SGD per active
    client, as one `numeric._train_stack` call per (main spec, split size)
    group, groups in first-appearance order and clients in id order within
    one. Each client draws from its own `train_rng`, so its main ends bitwise
    as `sgd_train` alone would leave it.

    All or nothing: every group runs even if one diverges; then the lowest
    diverging client id is raised as `client N: ...`.
    """
    groups: dict[tuple[MlpSpec, int], list[ClientState]] = {}
    for c in active_clients(clients):
        groups.setdefault((c.main.spec, len(c.local_data)), []).append(c)
    failures = []
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
            failures.append((group[e.index].id, e))
        for c, row in zip(group, stack):
            c.main.params[...] = row
    if failures:
        cid, e = min(failures, key=lambda f: f[0])
        raise DivergenceError(f"client {cid}: {e}") from e


def run_round(clients: list[ClientState], topology: Topology, cfg: SimConfig,
              round_index: int = 0) -> list[ClientState]:
    """Synchronous round: (a) local main-model training, (b) seed incubation
    per cadence, (c) each due client's new seed replaces its entry in every
    active neighbor's repository; an unchanged seed is not re-sent.

    The due clients' seeds are incubated as one stack (`incubate_seeds`),
    each bitwise what it would be alone. If one diverges, DivergenceError
    names the lowest diverging client and no client's seed is stored or
    sent. A sent seed is serialized and decoded once, and every active
    receiver stores that same read-only seed object, remove-then-add. Every
    active client holds a seed after its first round, so the due clients
    are all active clients or none, and repositories stay in sender-id order.
    """
    active = active_clients(clients)
    if not active:
        raise StateError("no active clients")
    if cfg.seed_spec is None:
        raise ConfigError("cfg.seed_spec is required for seed exchange rounds")
    due = [c for c in active
           if round_index % cfg.incubate_every_rounds == 0 or c.own_seed is None]
    ref = active[0].ref
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
    """Per-active-client ensemble accuracy on the shared test set + the mean.

    Bitwise what `ensemble_predict` gives each client, but each distinct seed
    object is forwarded once per call, not once per repository holding it:
    receivers share the seed decoded from one blob, and decoded seeds are
    read-only. Each repository combines the outputs in its own
    order.
    """
    if len(test) == 0:
        raise ConfigError("empty test set")
    active = active_clients(clients)
    if not active:
        raise StateError("no active clients")
    combine = cfg.ensemble.combine
    seed_outputs: dict[int, np.ndarray] = {}   # id(seed) -> its test-set output

    def seed_output(nid: int, seed: MlpModel) -> np.ndarray:
        out = seed_outputs.get(id(seed))
        if out is None:
            out = seed_outputs[id(seed)] = _model_output(
                seed, test.features, combine, f"seed of neighbor {nid}")
        return out

    per_client: dict[int, float] = {}
    for c in active:
        main_out = _model_output(c.main, test.features, combine, "main model")
        out = _combine(main_out, c.repo, cfg.ensemble.lam, seed_output)
        per_client[c.id] = accuracy(out, test.labels)
    mean = float(np.mean(list(per_client.values())))
    if log is not None:
        for cid, acc in per_client.items():
            log.log(round_index, cid, framework, "accuracy", acc)
        log.log(round_index, "mean", framework, "mean_accuracy", mean)
    return per_client, mean
