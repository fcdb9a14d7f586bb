import numpy as np
import pytest

import hdus.simulation as simulation
from hdus.data import gen_blobs, partition_noniid
from hdus.distill import DistillConfig
from hdus.ensemble import (EnsembleConfig, add_neighbor_seed, ensemble_predict,
                           unlearn_neighbor)
from hdus.errors import ConfigError, DivergenceError, NotFoundError, StateError
from hdus.numeric import MlpSpec, accuracy, init_mlp, training_step_count
from hdus.simulation import (EventLog, SimConfig, Topology, active_clients,
                             active_neighbors, client_rng_streams, evaluate_all,
                             handle_unlearn_request, init_network, run_round)

F, C = 6, 5


@pytest.fixture(scope="module")
def partition():
    ds = gen_blobs(140, C, F, 0.5, np.random.default_rng(40))
    return partition_noniid(ds, 4, 80, 0.2, np.random.default_rng(41))


def small_cfg(lam=0.5):
    return SimConfig(local_epochs=1, lr=0.05, batch_size=32,
                     distill=DistillConfig(epochs=2, lr=0.1),
                     ensemble=EnsembleConfig(lam=lam),
                     seed_spec=MlpSpec((F, 8, C)))


def fresh_network(partition, cfg, master_seed=0, specs=None):
    specs = specs or [MlpSpec((F, 16, C))] * partition.n_clients
    topo = Topology.complete(range(partition.n_clients))
    return init_network(partition, specs, topo, cfg, master_seed), topo


def test_topology_invariants():
    topo = Topology.complete(range(4))
    assert topo.neighbors(0) == frozenset({1, 2, 3})
    cut = topo.without(2)
    assert 2 not in cut.adjacency
    assert cut.neighbors(0) == frozenset({1, 3})
    with pytest.raises(ConfigError):
        Topology({0: frozenset({0})})
    with pytest.raises(ConfigError):
        Topology({0: frozenset({1}), 1: frozenset()})


def test_round_populates_repositories(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    for c in clients:
        assert sorted(c.repo.neighbor_ids()) == sorted(topo.neighbors(c.id))
        assert c.id not in c.repo
        assert c.own_seed is not None


def test_exchange_transmits_exact_parameters(partition):
    """What lands in a neighbor repo is bitwise the sender's own seed."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    sender = clients[1]
    stored = dict(clients[0].repo.entries)[1]
    assert np.array_equal(stored.params, sender.own_seed.params)


def test_own_seed_warm_starts_while_received_seeds_are_read_only(partition):
    """A client's own seed is its incubation output, not a decoded seed: it
    stays writable and warm-starts the next incubation, which leaves it as
    it was; the copy its neighbors received cannot be written."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    own = clients[1].own_seed
    stored = dict(clients[0].repo.entries)[1]
    assert own.params.flags.writeable
    with pytest.raises(ValueError):
        stored.weights[0][0, 0] = 0.0
    before = own.params.copy()
    run_round(clients, topo, cfg, 1)
    assert clients[1].own_seed is not own
    assert np.array_equal(own.params, before)
    assert not np.array_equal(clients[1].own_seed.params, before)


def test_rounds_deterministic(partition):
    cfg = small_cfg()
    a, topo = fresh_network(partition, cfg, master_seed=7)
    b, _ = fresh_network(partition, cfg, master_seed=7)
    for r in range(2):
        run_round(a, topo, cfg, r)
        run_round(b, topo, cfg, r)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.main.params, cb.main.params)
        assert np.array_equal(ca.own_seed.params, cb.own_seed.params)


def test_rng_streams_independent():
    """Training and distillation draw from separate streams, and streams are
    stable under adding more clients."""
    t0, d0 = client_rng_streams(5, 0)
    t0b, d0b = client_rng_streams(5, 0)
    assert np.array_equal(t0.random(4), t0b.random(4))
    assert not np.array_equal(t0b.random(4), d0b.random(4))
    t9, _ = client_rng_streams(5, 9)
    t0c, _ = client_rng_streams(5, 0)
    assert not np.array_equal(t9.random(4), t0c.random(4))


def test_unlearn_purges_quitter_everywhere(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    before = {c.id: c.main.params.copy() for c in clients if c.id != 2}
    steps = training_step_count()
    handle_unlearn_request(clients, 2)
    assert training_step_count() == steps          # zero retraining
    quitter = clients[2]
    assert quitter.status == "quit"
    assert quitter.main is None and quitter.own_seed is None
    assert quitter.local_data is None
    for c in clients:
        if c.id == 2:
            continue
        assert 2 not in c.repo
        assert np.array_equal(c.main.params, before[c.id])   # untouched


def test_unlearn_unknown_or_repeated_rejected(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    with pytest.raises(NotFoundError):
        handle_unlearn_request(clients, 99)
    handle_unlearn_request(clients, 1)
    with pytest.raises(NotFoundError):
        handle_unlearn_request(clients, 1)


def test_rounds_continue_after_quit(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    handle_unlearn_request(clients, 0)
    topo = topo.without(0)
    run_round(clients, topo, cfg, 1)
    for c in clients:
        if c.id == 0:
            continue
        assert 0 not in c.repo
        assert sorted(c.repo.neighbor_ids()) == sorted(topo.neighbors(c.id))


def test_all_quit_raises(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    for c in clients:
        c.status = "quit"
    with pytest.raises(StateError):
        run_round(clients, topo, cfg, 0)


def test_active_clients_in_id_order(partition):
    """Every framework acts on the active clients in id order, whatever the
    order of the client list."""
    clients, _ = fresh_network(partition, small_cfg())
    shuffled = [clients[i] for i in (2, 0, 3, 1)]
    shuffled[0].status = "quit"
    assert [c.id for c in active_clients(shuffled)] == [0, 1, 3]
    ring = Topology({i: frozenset({(i - 1) % 4, (i + 1) % 4}) for i in range(4)})
    assert [c.id for c in active_neighbors(shuffled, ring, 1)] == [0]
    assert [c.id for c in active_neighbors(shuffled, ring, 0)] == [1, 3]


def test_heterogeneous_mains_homogeneous_wire(partition, monkeypatch):
    """Clients may run different main architectures; seeds on the wire share
    one spec."""
    cfg = small_cfg()
    specs = [MlpSpec((F, 16, C)), MlpSpec((F, 64, C)),
             MlpSpec((F, 128, 64, C)), MlpSpec((F, 16, C))]
    clients, topo = fresh_network(partition, cfg, specs=specs)
    wire = []
    serialize = simulation.serialize_seed

    def spy(seed):
        wire.append(serialize(seed))
        return wire[-1]
    monkeypatch.setattr(simulation, "serialize_seed", spy)
    run_round(clients, topo, cfg, 0)
    assert len(wire) == 4
    from hdus.ensemble import deserialize_seed
    for blob in wire:
        assert deserialize_seed(blob).spec == cfg.seed_spec
    _, mean = evaluate_all(clients, partition.test, cfg)
    assert 0.0 <= mean <= 1.0


def test_evaluate_all_rejects_all_quit_roster(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    for c in clients:
        handle_unlearn_request(clients, c.id)
    with pytest.raises(StateError, match="no active clients"):
        evaluate_all(clients, partition.test, cfg)


def test_evaluate_logs_deterministic_csv(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg, master_seed=3)
    run_round(clients, topo, cfg, 0)
    log_a, log_b = EventLog(), EventLog()
    evaluate_all(clients, partition.test, cfg, log=log_a, round_index=0)
    evaluate_all(clients, partition.test, cfg, log=log_b, round_index=0)
    text = log_a.to_csv_text()
    assert text == log_b.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "round,client_id,framework,metric,value"
    assert len(lines) == 1 + len(clients) + 1   # per client + mean
    # values round-trip bitwise through repr
    val = float(lines[1].split(",")[4])
    assert repr(val) == lines[1].split(",")[4]


def test_incubation_cadence(partition):
    cfg = small_cfg()
    cfg.incubate_every_rounds = 2
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    seeds = {c.id: c.own_seed.params.copy() for c in clients}
    run_round(clients, topo, cfg, 1)     # off-cadence: seeds untouched
    for c in clients:
        assert np.array_equal(c.own_seed.params, seeds[c.id])
    run_round(clients, topo, cfg, 2)
    assert any(not np.array_equal(c.own_seed.params, seeds[c.id])
               for c in clients)


def _bits(model):
    return model.params.tobytes()


def _poison(model):
    model.weights[0][0, 0] = np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_incubation_divergence_is_all_or_nothing(partition):
    """A diverging seed stops the round before any seed is replaced, and the
    error names the lowest diverging client, even when a higher one is
    found first (client 3's teacher fails before any step, client 1's warm
    start at the first step)."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    cfg.local_epochs = 0       # no main training, so only incubation diverges
    _poison(clients[3].main)
    with pytest.raises(DivergenceError, match="^client 3: non-finite teacher"):
        run_round(clients, topo, cfg, 1)
    _poison(clients[1].own_seed)
    seeds = [c.own_seed for c in clients]
    bits = [_bits(s) for s in seeds]
    with pytest.raises(DivergenceError, match="^client 1: non-finite student"):
        run_round(clients, topo, cfg, 2)
    assert all(c.own_seed is s for c, s in zip(clients, seeds))
    assert [_bits(c.own_seed) for c in clients] == bits


def test_receivers_share_one_decoded_seed(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    run_round(clients, topo, cfg, 1)
    for sender in clients:
        held = [dict(c.repo.entries)[sender.id] for c in clients if c is not sender]
        assert all(seed is held[0] for seed in held)
        assert held[0] is not sender.own_seed
        assert _bits(held[0]) == _bits(sender.own_seed)
    # dropping it from one repository leaves the other receivers' entries
    held = {c.id: dict(c.repo.entries)[1] for c in clients if c.id != 1}
    bits = _bits(held[0])
    unlearn_neighbor(clients[0].repo, 1)
    assert 1 not in clients[0].repo
    for cid in (2, 3):
        assert dict(clients[cid].repo.entries)[1] is held[cid]
        assert _bits(held[cid]) == bits


@pytest.mark.parametrize("combine", ["proba", "logits"])
@pytest.mark.parametrize("lam", [0.0, 0.6])
def test_evaluate_all_equals_ensemble_predict(partition, monkeypatch, combine, lam):
    """Each distinct seed is forwarded once, yet every client's ensemble
    output is bitwise what ensemble_predict gives it, also for a repository
    holding equal but distinct seed copies and one mixing seed shapes."""
    cfg = small_cfg(lam)
    cfg.ensemble = EnsembleConfig(lam=lam, combine=combine)
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    # client 0 holds client 1's seed twice: once shared, once a copy
    unlearn_neighbor(clients[0].repo, 3)
    add_neighbor_seed(clients[0].repo, 3, dict(clients[0].repo.entries)[1].copy())
    # client 2 mixes seed shapes
    unlearn_neighbor(clients[2].repo, 0)
    add_neighbor_seed(clients[2].repo, 0, init_mlp(MlpSpec((F, 20, 7, C)),
                                                   np.random.default_rng(3)))
    seen = []

    def spy(out, labels):
        seen.append(out.tobytes())
        return accuracy(out, labels)
    monkeypatch.setattr(simulation, "accuracy", spy)
    per_client, mean = evaluate_all(clients, partition.test, cfg)
    for k, c in enumerate(clients):
        want = ensemble_predict(c.main, c.repo, cfg.ensemble, partition.test.features)
        assert seen[k] == want.tobytes()
        assert per_client[c.id] == accuracy(want, partition.test.labels)
    assert mean == float(np.mean(list(per_client.values())))
