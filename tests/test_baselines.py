import numpy as np
import pytest

from hdus.baselines import (dsgd_round, dsgd_unlearn, fedunl_init,
                            fedunl_recover_round, fedunl_replay, fedunl_round,
                            fedunl_unlearn, isgd_round, isgd_unlearn,
                            sisa_predict, sisa_round, sisa_unlearn_client)
from hdus.data import gen_blobs, partition_noniid
from hdus.distill import DistillConfig
from hdus.ensemble import EnsembleConfig
from hdus.errors import ConfigError, DivergenceError, NotFoundError, StateError
from hdus.numeric import (MlpSpec, accuracy, mlp_forward, softmax_temp,
                          training_step_count)
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
    return c.main.flatten()


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


@pytest.mark.parametrize("framework", ["isgd", "dsgd"])
def test_local_training_names_the_diverging_client(partition, framework):
    cfg = make_cfg()
    clients, topo = make_clients(partition, cfg)
    clients[2].main.weights[0][...] = np.nan
    with pytest.raises(DivergenceError,
                       match="^client 2: non-finite student output at epoch 0"):
        if framework == "isgd":
            isgd_round(clients, cfg)
        else:
            dsgd_round(clients, topo, cfg)


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
    remaining = dsgd_unlearn(clients, 3)
    assert remaining == [0, 1, 2]
    for c in clients:
        if c.id == 3:
            assert c.main is None
        else:
            assert np.array_equal(flat(c), c.initial_main.flatten())
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
    diff = np.abs(replayed.flatten() - server.global_model.flatten()).max()
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
        assert np.array_equal(flat(c), server.global_model.flatten())


def test_fedunl_unlearn_subtracts_ledger_share(partition):
    """Oracle: post-unlearn global == pre-unlearn global - sum_r delta_q / N_r."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=3)
    server = fedunl_init(MlpSpec((F, 16, C)), 3)
    for _ in range(3):
        fedunl_round(server, clients, cfg)
    before = server.global_model.flatten().copy()
    contrib = np.zeros_like(before)
    for deltas in server.update_ledger:
        contrib += deltas[2].flatten() / len(deltas)
    steps = training_step_count()
    fedunl_unlearn(server, clients, 2)
    assert training_step_count() == steps          # subtraction only
    assert np.allclose(server.global_model.flatten(), before - contrib,
                       atol=1e-12)
    assert np.array_equal(server.pre_unlearn_global.flatten(), before)
    assert clients[2].status == "quit"


def test_fedunl_unlearn_is_inexact(partition):
    """Subtraction does not equal never-having-joined: a control federation
    without the quitter ends at different parameters."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=4)
    server = fedunl_init(MlpSpec((F, 16, C)), 4)
    for _ in range(3):
        fedunl_round(server, clients, cfg)
    fedunl_unlearn(server, clients, 2)

    control, _ = make_clients(partition, cfg, master_seed=4)
    control_server = fedunl_init(MlpSpec((F, 16, C)), 4)
    control[2].status = "quit"
    for _ in range(3):
        fedunl_round(control_server, control, cfg)
    assert not np.allclose(server.global_model.flatten(),
                           control_server.global_model.flatten(), atol=1e-6)


def test_fedunl_recover_round_improves_reference_fit(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=6)
    server = fedunl_init(MlpSpec((F, 16, C)), 6)
    for _ in range(4):
        fedunl_round(server, clients, cfg)
    fedunl_unlearn(server, clients, 1)
    ref = partition.reference
    def ref_acc():
        p = softmax_temp(mlp_forward(server.global_model, ref.features), 1.0)
        return accuracy(p, ref.sealed_labels)
    before = ref_acc()
    for _ in range(3):
        fedunl_recover_round(server, clients, ref, cfg)
    assert ref_acc() >= before
    for c in clients:
        if c.status == "active":
            assert np.array_equal(flat(c), server.global_model.flatten())


def test_fedunl_recover_requires_unlearn_first(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    fedunl_round(server, clients, cfg)
    with pytest.raises(StateError):
        fedunl_recover_round(server, clients, partition.reference, cfg)


def test_fedunl_unlearn_empty_ledger_rejected(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    with pytest.raises(StateError):
        fedunl_unlearn(server, clients, 0)


# --- SISA-A -----------------------------------------------------------------

def test_sisa_predict_is_uniform_shard_mean(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=7)
    server = fedunl_init(MlpSpec((F, 16, C)), 7)
    server.shard_models.clear()
    sisa_round(server, clients, cfg)
    batch = partition.test.features[:8]
    want = np.mean([softmax_temp(mlp_forward(m, batch), 1.0)
                    for _, m in sorted(server.shard_models.items())], axis=0)
    assert np.allclose(sisa_predict(server, batch), want, atol=1e-15)


def test_sisa_unlearn_matches_never_trained(partition):
    """Dropping shard 2 gives bitwise the ensemble of a control server where
    client 2 never participated."""
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg, master_seed=8)
    server = fedunl_init(MlpSpec((F, 16, C)), 8)
    server.shard_models.clear()
    for _ in range(2):
        sisa_round(server, clients, cfg)
    steps = training_step_count()
    sisa_unlearn_client(server, clients, 2)
    assert training_step_count() == steps

    control, _ = make_clients(partition, cfg, master_seed=8)
    control_server = fedunl_init(MlpSpec((F, 16, C)), 8)
    control_server.shard_models.clear()
    control[2].status = "quit"
    for _ in range(2):
        sisa_round(control_server, control, cfg)
    batch = partition.test.features[:16]
    assert np.array_equal(sisa_predict(server, batch),
                          sisa_predict(control_server, batch))


def test_sisa_unlearn_unknown_shard_rejected(partition):
    cfg = make_cfg()
    clients, _ = make_clients(partition, cfg)
    server = fedunl_init(MlpSpec((F, 16, C)), 0)
    server.shard_models.clear()
    sisa_round(server, clients, cfg)
    with pytest.raises(NotFoundError):
        sisa_unlearn_client(server, clients, 99)
    with pytest.raises(StateError):
        empty = fedunl_init(MlpSpec((F, 16, C)), 0)
        empty.shard_models.clear()
        sisa_predict(empty, partition.test.features[:4])
