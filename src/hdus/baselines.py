"""Comparison frameworks run under the same simulator: isolated SGD (ISGD),
decentralized gossip SGD (DSGD), federated unlearning with update subtraction
and distillation recovery (FedUnl), and the client-wise sharded ensemble
(SISA-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distill import ReferenceSet
from .errors import ConfigError, NotFoundError, StateError
from .numeric import (Gradients, MlpModel, MlpSpec, mlp_backward, mlp_forward,
                      onehot_labels, sgd_step, sgd_train, softmax_temp)
from .simulation import (ACTIVE, ClientState, SimConfig, Topology,
                         active_clients, local_training_phase, retire_client)


# ---------------------------------------------------------------------------
# ISGD
# ---------------------------------------------------------------------------

def isgd_round(clients: list[ClientState], cfg: SimConfig) -> list[ClientState]:
    """Local SGD only, no communication of any kind."""
    local_training_phase(clients, cfg)
    return clients


def isgd_unlearn(clients: list[ClientState], quitting_id: int) -> list[ClientState]:
    """Deleting the client is the whole unlearning procedure."""
    retire_client(clients, quitting_id)
    return clients


# ---------------------------------------------------------------------------
# DSGD
# ---------------------------------------------------------------------------

def _check_homogeneous(clients: list[ClientState]) -> None:
    specs = {c.main.spec for c in active_clients(clients)}
    if len(specs) > 1:
        raise ConfigError("DSGD/FedUnl require homogeneous model specs, got "
                          f"{len(specs)} distinct specs")


def dsgd_round(clients: list[ClientState], topology: Topology,
               cfg: SimConfig) -> list[ClientState]:
    """Local SGD epochs followed by synchronous gossip averaging: each client's
    parameters become the uniform average over itself and its active neighbors."""
    _check_homogeneous(clients)
    local_training_phase(clients, cfg)
    active = sorted(active_clients(clients), key=lambda c: c.id)
    by_id = {c.id: c for c in clients}
    averaged = {}
    for c in active:
        group = [c.main.flatten()]
        for nid in sorted(topology.neighbors(c.id)):
            nbr = by_id.get(nid)
            if nbr is not None and nbr.status == ACTIVE:
                group.append(nbr.main.flatten())
        averaged[c.id] = np.mean(group, axis=0)
    for c in active:
        c.main.load_flat(averaged[c.id])
    return clients


def dsgd_unlearn(clients: list[ClientState], quitting_id: int) -> list[int]:
    """Remove the quitter and reset every remaining client to its stored
    initial parameters; the caller then reruns dsgd rounds to retrain.
    Returns the remaining active client ids."""
    retire_client(clients, quitting_id)
    remaining = []
    for c in active_clients(clients):
        if c.initial_main is None:
            raise StateError(f"client {c.id} has no stored initial parameters")
        c.main = c.initial_main.copy()
        remaining.append(c.id)
    return remaining


# ---------------------------------------------------------------------------
# FedUnl
# ---------------------------------------------------------------------------

@dataclass
class CentralServerState:
    """Server-side state for FedUnl (global model + per-round delta ledger)
    and SISA-A (shard model ensemble)."""

    global_model: MlpModel | None = None
    update_ledger: list[dict[int, Gradients]] = field(default_factory=list)
    shard_models: dict[int, MlpModel] = field(default_factory=dict)
    pre_unlearn_global: MlpModel | None = None
    rng: np.random.Generator | None = None


def _param_delta(after: MlpModel, before: MlpModel) -> Gradients:
    return Gradients(
        [a - b for a, b in zip(after.weights, before.weights)],
        [a - b for a, b in zip(after.biases, before.biases)])


def _apply_delta(model: MlpModel, delta: Gradients, factor: float) -> None:
    for w, d in zip(model.weights, delta.weights):
        w += factor * d
    for b, d in zip(model.biases, delta.biases):
        b += factor * d


def fedunl_init(spec: MlpSpec, master_seed: int) -> CentralServerState:
    rng = np.random.default_rng(np.random.SeedSequence(master_seed,
                                                       spawn_key=(2, 0)))
    from .numeric import init_mlp
    return CentralServerState(global_model=init_mlp(spec, rng), rng=rng)


def fedunl_round(server: CentralServerState, clients: list[ClientState],
                 cfg: SimConfig) -> None:
    """Each client trains a copy of the global model; the server records every
    client's parameter delta in the ledger, moves the global by the mean delta,
    and redistributes the new global to all clients."""
    _check_homogeneous(clients)
    active = sorted(active_clients(clients), key=lambda c: c.id)
    deltas: dict[int, Gradients] = {}
    for c in active:
        local = server.global_model.copy()
        if cfg.local_epochs > 0:
            sgd_train(local, c.local_data.features, c.local_data.labels,
                      c.local_data.class_count, cfg.local_epochs, cfg.lr,
                      cfg.batch_size, c.train_rng)
        deltas[c.id] = _param_delta(local, server.global_model)
    server.update_ledger.append(deltas)
    n = len(deltas)
    for d in deltas.values():
        _apply_delta(server.global_model, d, 1.0 / n)
    for c in active:
        c.main = server.global_model.copy()


def fedunl_replay(server: CentralServerState, initial: MlpModel) -> MlpModel:
    """Reconstruct the global model from the initial state plus the ledger."""
    model = initial.copy()
    for deltas in server.update_ledger:
        n = len(deltas)
        for d in deltas.values():
            _apply_delta(model, d, 1.0 / n)
    return model


def fedunl_unlearn(server: CentralServerState, clients: list[ClientState],
                   quitting_id: int) -> None:
    """Subtract the quitter's ledger contribution (each round's delta at that
    round's 1/N averaging weight) from the global model. The pre-subtraction
    global is kept as the distillation teacher for recovery rounds."""
    if not server.update_ledger:
        raise StateError("update ledger is empty")
    retire_client(clients, quitting_id)
    server.pre_unlearn_global = server.global_model.copy()
    for deltas in server.update_ledger:
        if quitting_id in deltas:
            _apply_delta(server.global_model, deltas[quitting_id],
                         -1.0 / len(deltas))
    for c in active_clients(clients):
        c.main = server.global_model.copy()


def fedunl_recover_round(server: CentralServerState, clients: list[ClientState],
                         ref: ReferenceSet, cfg: SimConfig,
                         epochs: int = 1, alpha: float = 0.5) -> None:
    """Post-unlearning remedy: the new global distills from the pre-subtraction
    global on the reference set, mixed with cross-entropy on the reference
    labels (which only FedUnl may unseal)."""
    if server.pre_unlearn_global is None:
        raise StateError("no pre-unlearn global stored; call fedunl_unlearn first")
    if ref.sealed_labels is None:
        raise StateError("reference labels unavailable")
    temp = cfg.distill.temperature
    teacher = softmax_temp(mlp_forward(server.pre_unlearn_global, ref.features), temp)
    class_count = server.global_model.spec.out_dim
    targets = onehot_labels(ref.sealed_labels, class_count)
    model = server.global_model
    n = len(ref)
    for _ in range(epochs):
        order = server.rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, g_kd = mlp_backward(model, ref.features[idx],
                                   teacher_soft=teacher[idx], temperature=temp)
            _, g_ce = mlp_backward(model, ref.features[idx], onehot=targets[idx])
            mixed = Gradients(
                [alpha * a + (1 - alpha) * b for a, b in zip(g_kd.weights, g_ce.weights)],
                [alpha * a + (1 - alpha) * b for a, b in zip(g_kd.biases, g_ce.biases)])
            sgd_step(model, mixed, cfg.lr)
    for c in active_clients(clients):
        c.main = server.global_model.copy()


# ---------------------------------------------------------------------------
# SISA-A (client-wise shard ensemble)
# ---------------------------------------------------------------------------

def sisa_round(server: CentralServerState, clients: list[ClientState],
               cfg: SimConfig) -> None:
    """Train each shard model on its client's local data; shard models live on
    the server and are never aggregated in parameter space."""
    for c in sorted(active_clients(clients), key=lambda c: c.id):
        if c.id not in server.shard_models:
            server.shard_models[c.id] = c.main
        sgd_train(server.shard_models[c.id], c.local_data.features,
                  c.local_data.labels, c.local_data.class_count,
                  cfg.local_epochs, cfg.lr, cfg.batch_size, c.train_rng)


def sisa_predict(server: CentralServerState, batch: np.ndarray) -> np.ndarray:
    """Uniform mean of the shard models' softmax probabilities."""
    if not server.shard_models:
        raise StateError("no shard models trained")
    probs = None
    for cid in sorted(server.shard_models):
        p = softmax_temp(mlp_forward(server.shard_models[cid], batch), 1.0)
        probs = p if probs is None else probs + p
    return probs / len(server.shard_models)


def sisa_unlearn_client(server: CentralServerState, clients: list[ClientState],
                        quitting_id: int) -> None:
    """Drop the quitter's shard model from the ensemble; no retraining."""
    if quitting_id not in server.shard_models:
        raise NotFoundError(f"no shard model for client {quitting_id}")
    retire_client(clients, quitting_id)
    del server.shard_models[quitting_id]
