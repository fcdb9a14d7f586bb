from dataclasses import replace

import numpy as np
import pytest

from hdus.baselines import (dsgd_round, dsgd_unlearn, fedunl_init,
                            fedunl_recover_round, fedunl_replay, fedunl_round,
                            fedunl_unlearn, isgd_round, isgd_unlearn,
                            sisa_predict, sisa_round, sisa_unlearn_client)
from hdus.data import gen_blobs, partition_noniid
from hdus.distill import DistillConfig, distill_fidelity
from hdus.ensemble import EnsembleConfig
from hdus.errors import ConfigError, DivergenceError, NotFoundError, StateError
from hdus.numeric import MlpSpec, mlp_forward, softmax_temp, training_step_count
from hdus.simulation import (SimConfig, Topology, init_network,
                             client_rng_streams)

F, C, N = 6, 5, 4


@pytest.fixture(scope="module")
def partition():
    ds = gen_blobs(140, C, F, 0.5, np.random.default_rng(50))
    return partition_noniid(ds, N, 80, 0.2, np.random.default_rng(51))


def make_cfg():
    return SimConfig(local_epochs=1, lr=0.05, batch_size=32,
                     distill=DistillConfig(epochs=2),
                     ensemble=EnsembleConfig(lam=0.5),
                     seed_spec=MlpSpec((F, 8, C)))


def make_clients(partition, cfg, master_seed=0, spec=None):
    specs = [spec or MlpSpec((F, 16, C))] * N
    topo = Topology.complete(range(N))
    return init_network(partition, specs, topo, cfg, master_seed), topo


def flat(c):
    return c.main.params.copy()


# --- ISGD -------------------------------------------------------------------

def test_isgd_no_communication(partition):
    """Clients evolve independently: rerunning one client alone from the same
    stream reproduces its parameters bitwise."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=5)
    for _ in range(3):
        isgd_round(clients, cfg)
    solo, _ = make_clients(partition, cfg, master_seed=5)
    lone = [solo[2]]
    for _ in range(3):
        isgd_round(lone, cfg)
    assert np.array_equal(flat(clients[2]), flat(solo[2]))


def test_isgd_unlearn_is_pure_deletion(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    isgd_round(clients, cfg)
    others = {c.id: flat(c).copy() for c in clients if c.id != 1}
    steps = training_step_count()
    isgd_unlearn(clients, 1)
    assert training_step_count() == steps
    assert clients[1].status == "quit" and clients[1].main is None
    for c in clients:
        if c.id != 1:
            assert np.array_equal(flat(c), others[c.id])
    with pytest.raises(NotFoundError):
        isgd_unlearn(clients, 1)


@pytest.mark.parametrize("framework", ["isgd", "dsgd", "fedunl", "sisa_a"])
def test_local_training_names_the_diverging_client(partition, framework):
    cfg = make_cfg()
    clients, topo = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    if framework == "fedunl":
        fedunl_round(server, clients, cfg)    # a clean round fills the ledger
        # Every client trains a copy of the global, so poison client 2's data
        # instead (a copy: the partition fixture is shared).
        split = clients[2].local_data
        clients[2].local_data = replace(split, features=np.full_like(split.features, np.nan))
    else:
        clients[2].main.weights[0][...] = np.nan
    global_before = server.global_model.params.copy()
    with pytest.raises(DivergenceError,
                       match="^client 2: non-finite student output at epoch 0"):
        if framework == "isgd":
            isgd_round(clients, cfg)
        elif framework == "dsgd":
            dsgd_round(clients, topo, cfg)
        elif framework == "fedunl":
            fedunl_round(server, clients, cfg)
        else:
            sisa_round(clients, cfg)
    if framework == "fedunl":
        # The server aggregates only after every client trained.
        assert np.array_equal(server.global_model.params, global_before)
        assert len(server.update_ledger) == 1


# --- DSGD -------------------------------------------------------------------

def test_dsgd_gossip_average_oracle(partition):
    """Averaging step recomputed by hand from the post-training parameters."""
    cfg = make_cfg()
    clients, topo = make_clients(partition, cfg, master_seed=1)
    # capture post-local-training params by running training separately
    pre, _ = make_clients(partition, cfg, master_seed=1)
    isgd_round(pre, cfg)   # same rng streams => identical local step
    want = np.mean([flat(c) for c in pre], axis=0)   # complete graph mean
    dsgd_round(clients, topo, cfg)
    for c in clients:
        assert np.allclose(flat(c), want, atol=1e-15)


def test_dsgd_respects_topology(partition):
    """On a ring, client 0 averages with only its two neighbors."""
    cfg = make_cfg()
    ring = Topology({i: frozenset({(i - 1) % N, (i + 1) % N}) for i in range(N)})
    clients = init_network(partition, [MlpSpec((F, 16, C))] * N, ring, cfg, 1)
    pre, _ = make_clients(partition, cfg, master_seed=1)
    isgd_round(pre, cfg)
    dsgd_round(clients, ring, cfg)
    want0 = np.mean([flat(pre[0]), flat(pre[1]), flat(pre[3])], axis=0)
    assert np.allclose(flat(clients[0]), want0, atol=1e-15)


def test_dsgd_rejects_heterogeneous(partition):
    cfg = make_cfg()
    specs = [MlpSpec((F, 16, C))] * (N - 1) + [MlpSpec((F, 64, C))]
    topo = Topology.complete(range(N))
    clients = init_network(partition, specs, topo, cfg, 0)
    with pytest.raises(ConfigError):
        dsgd_round(clients, topo, cfg)


def test_dsgd_unlearn_resets_and_retrains(partition):
    cfg = make_cfg()
    clients, topo = make_clients(partition, cfg)
    for r in range(2):
        dsgd_round(clients, topo, cfg)
    remaining = dsgd_unlearn(clients, 3, master_seed=0)
    assert remaining == [0, 1, 2]
    fresh, _ = make_clients(partition, cfg)     # the mains before any round
    for c in clients:
        if c.id == 3:
            assert c.main is None
        else:
            assert np.array_equal(flat(c), flat(fresh[c.id]))
    # retraining changes parameters again
    topo = topo.without(3)
    steps = training_step_count()
    dsgd_round(clients, topo, cfg)
    assert training_step_count() > steps


# --- FedUnl -----------------------------------------------------------------

def test_fedunl_ledger_replays_global_exactly(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=2)
    server = fedunl_init(MlpSpec((F, 16, C)), master_seed=2)
    initial = server.global_model.copy()
    for _ in range(3):
        fedunl_round(server, clients, cfg)
    replayed = fedunl_replay(server, initial)
    diff = np.abs(replayed.params - server.global_model.params).max()
    assert diff <= 1e-10
    assert len(server.update_ledger) == 3
    for deltas in server.update_ledger:
        assert sorted(deltas) == [0, 1, 2, 3]


def test_fedunl_round_redistributes_global(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    fedunl_round(server, clients, cfg)
    for c in clients:
        assert np.array_equal(flat(c), server.global_model.params)


def test_fedunl_unlearn_subtracts_ledger_share(partition):
    """Oracle: post-unlearn global == pre-unlearn global - sum_r delta_q / N_r."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=3)
    server = fedunl_init(MlpSpec((F, 16, C)), 3)
    for _ in range(3):
        fedunl_round(server, clients, cfg)
    before = server.global_model.params.copy()
    contrib = np.zeros_like(before)
    for deltas in server.update_ledger:
        contrib += deltas[2] / len(deltas)
    steps = training_step_count()
    fedunl_unlearn(server, clients, 2)
    assert training_step_count() == steps          # subtraction only
    assert np.allclose(server.global_model.params, before - contrib,
                       atol=1e-12)
    assert np.array_equal(server.pre_unlearn_global.params, before)
    assert clients[2].status == "quit"


def test_fedunl_recover_round_improves_reference_fit(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=6)
    server = fedunl_init(MlpSpec((F, 16, C)), 6)
    for _ in range(4):
        fedunl_round(server, clients, cfg)
    fedunl_unlearn(server, clients, 1)
    ref = partition.reference
    teacher = server.pre_unlearn_global
    T = cfg.distill.temperature
    before, _ = distill_fidelity(server.global_model, teacher, ref, T)
    fedunl_recover_round(server, clients, ref, cfg)
    after, _ = distill_fidelity(server.global_model, teacher, ref, T)
    assert after < before
    assert server.pre_unlearn_global is None    # one recovery per quit
    for c in clients:
        if c.status == "active":
            assert np.array_equal(flat(c), server.global_model.params)


def test_fedunl_recover_requires_unlearn_first(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    fedunl_round(server, clients, cfg)
    with pytest.raises(StateError):
        fedunl_recover_round(server, clients, partition.reference, cfg)


def test_fedunl_unlearn_before_any_round_keeps_global(partition):
    """An empty ledger means the quitter contributed nothing: nothing is
    subtracted and the teacher is the untouched global."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    before = server.global_model.params.copy()
    fedunl_unlearn(server, clients, 0)
    assert np.array_equal(server.global_model.params, before)
    assert np.array_equal(server.pre_unlearn_global.params, before)
    assert clients[0].status == "quit" and clients[0].main is None


# --- SISA-A -----------------------------------------------------------------

def test_sisa_predict_is_uniform_shard_mean(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=7)
    sisa_round(clients, cfg)
    batch = partition.test.features[:8]
    want = np.mean([softmax_temp(mlp_forward(c.main, batch), 1.0)
                    for c in clients], axis=0)
    assert np.allclose(sisa_predict(clients, batch), want, atol=1e-15)


def test_sisa_unlearn_unknown_shard_rejected(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    sisa_round(clients, cfg)
    with pytest.raises(NotFoundError):
        sisa_unlearn_client(clients, 99)
    for c in clients:
        sisa_unlearn_client(clients, c.id)
    with pytest.raises(StateError):
        sisa_predict(clients, partition.test.features[:4])
