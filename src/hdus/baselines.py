"""Comparison frameworks run under the same simulator: isolated SGD (ISGD),
decentralized gossip SGD (DSGD), federated unlearning with update subtraction
and distillation recovery (FedUnl), and the client-wise sharded ensemble
(SISA-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distill import ReferenceSet, incubate_seed
from .ensemble import _model_output
from .errors import ConfigError, StateError
from .numeric import MlpModel, MlpSpec, init_mlp
from .simulation import (ClientState, SimConfig, Topology, active_neighbors,
                         client_rng_streams, local_training_phase, retire_client)


# ---------------------------------------------------------------------------
# ISGD
# ---------------------------------------------------------------------------

def isgd_round(clients: list[ClientState], cfg: SimConfig) -> None:
    """Local SGD only, no communication of any kind."""
    local_training_phase(clients, cfg)


def isgd_unlearn(clients: list[ClientState], quitting_id: int) -> None:
    """Deleting the client is the whole unlearning procedure."""
    retire_client(clients, quitting_id)


# ---------------------------------------------------------------------------
# DSGD
# ---------------------------------------------------------------------------

def _check_homogeneous(clients: list[ClientState]) -> None:
    specs = {c.main.spec for c in clients}
    if len(specs) > 1:
        raise ConfigError("DSGD/FedUnl require homogeneous model specs, got "
                          f"{len(specs)} distinct specs")


def dsgd_round(clients: list[ClientState], topology: Topology,
               cfg: SimConfig) -> None:
    """Local SGD epochs followed by synchronous gossip averaging: each client's
    parameters become the uniform average over itself and its neighbors."""
    _check_homogeneous(clients)
    local_training_phase(clients, cfg)
    groups = [[c, *active_neighbors(clients, topology, c.id)] for c in clients]
    averaged = [np.mean([m.main.params for m in g], axis=0) for g in groups]
    for c, params in zip(clients, averaged):
        c.main.params[...] = params


def dsgd_unlearn(clients: list[ClientState], quitting_id: int,
                 master_seed: int) -> None:
    """Remove the quitter and reset every remaining client to its initial
    parameters, re-drawn from its `master_seed` training stream; the caller
    then reruns dsgd rounds to retrain."""
    retire_client(clients, quitting_id)
    for c in clients:
        c.main = init_mlp(c.main.spec, client_rng_streams(master_seed, c.id)[0])


# ---------------------------------------------------------------------------
# FedUnl
# ---------------------------------------------------------------------------

@dataclass
class CentralServerState:
    """FedUnl's server: the global model, the per-round delta ledger, the
    pre-subtraction teacher (from a quit to its recovery) and the recovery rng."""

    global_model: MlpModel
    rng: np.random.Generator
    update_ledger: list[dict[int, np.ndarray]] = field(default_factory=list)
    pre_unlearn_global: MlpModel | None = None


def fedunl_init(spec: MlpSpec, master_seed: int) -> CentralServerState:
    rng = np.random.default_rng(np.random.SeedSequence(master_seed,
                                                       spawn_key=(2, 0)))
    return CentralServerState(global_model=init_mlp(spec, rng), rng=rng)


def _broadcast(server: CentralServerState, clients: list[ClientState]) -> None:
    """Give every client its own copy of the global model."""
    for c in clients:
        c.main = server.global_model.copy()


def _apply_ledger_step(model: MlpModel, deltas: dict[int, np.ndarray]) -> None:
    """Move `model` by one round's mean delta: each delta at weight 1/N."""
    n = len(deltas)
    for d in deltas.values():
        model.params += 1.0 / n * d


def fedunl_round(server: CentralServerState, clients: list[ClientState],
                 cfg: SimConfig) -> None:
    """Broadcast the global, train each copy in `local_training_phase`, record
    every client's delta in the ledger, move the global by the mean delta and
    broadcast it. If a client diverges, the global and the ledger stay put."""
    _check_homogeneous(clients)
    _broadcast(server, clients)
    local_training_phase(clients, cfg)
    deltas = {c.id: c.main.params - server.global_model.params for c in clients}
    server.update_ledger.append(deltas)
    _apply_ledger_step(server.global_model, deltas)
    _broadcast(server, clients)


def fedunl_replay(server: CentralServerState, initial: MlpModel) -> MlpModel:
    """Reconstruct the global model from the initial state plus the ledger."""
    model = initial.copy()
    for deltas in server.update_ledger:
        _apply_ledger_step(model, deltas)
    return model


def fedunl_unlearn(server: CentralServerState, clients: list[ClientState],
                   quitting_id: int) -> None:
    """Subtract the quitter's ledger contribution (each round's delta at that
    round's 1/N averaging weight) from the global model. The pre-subtraction
    global is kept as the distillation teacher for the recovery. A quit
    before any round finds an empty ledger and leaves the global as it is."""
    retire_client(clients, quitting_id)
    server.pre_unlearn_global = server.global_model.copy()
    for deltas in server.update_ledger:
        if quitting_id in deltas:
            server.global_model.params += -1.0 / len(deltas) * deltas[quitting_id]
    _broadcast(server, clients)


def fedunl_recover_round(server: CentralServerState, clients: list[ClientState],
                         ref: ReferenceSet, cfg: SimConfig) -> None:
    """Post-unlearning remedy, once per quit: the subtracted global distills
    from the pre-subtraction global on the unlabeled reference set (one
    `incubate_seed` from the subtracted global, under `cfg.distill`), then the
    teacher is dropped and the result broadcast."""
    if server.pre_unlearn_global is None:
        raise StateError("no pre-unlearn global stored; call fedunl_unlearn first")
    server.global_model = incubate_seed(server.pre_unlearn_global,
                                        server.global_model.spec, ref, cfg.distill,
                                        server.rng, init=server.global_model)
    server.pre_unlearn_global = None
    _broadcast(server, clients)


# ---------------------------------------------------------------------------
# SISA-A (client-wise shard ensemble)
# ---------------------------------------------------------------------------
# Client i's shard is its own main model, so the ensemble is the roster's
# mains in id order, and retiring a client drops its shard.

def sisa_round(clients: list[ClientState], cfg: SimConfig) -> None:
    """Train each client's shard; shards are never aggregated."""
    local_training_phase(clients, cfg)


def sisa_predict(clients: list[ClientState], batch: np.ndarray) -> np.ndarray:
    """Uniform mean of the clients' softmax probabilities."""
    if not clients:
        raise StateError("no active clients")
    probs = None
    for c in clients:
        p = _model_output(c.main, batch, "proba", f"client {c.id}: shard")
        probs = p if probs is None else probs + p
    return probs / len(clients)


def sisa_unlearn_client(clients: list[ClientState], quitting_id: int) -> None:
    """Retire the quitter, which drops its shard; no retraining."""
    retire_client(clients, quitting_id)
