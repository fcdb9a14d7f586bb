import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

import hdus.simulation as simulation
from hdus.data import LabeledDataset, gen_blobs, partition_noniid
from hdus.distill import DistillConfig, ReferenceSet
from hdus.ensemble import (EnsembleConfig, SeedRepository, add_neighbor_seed,
                           ensemble_predict, unlearn_neighbor)
from hdus.errors import ConfigError, DivergenceError, NotFoundError, StateError
from hdus.numeric import (MlpSpec, accuracy, init_mlp, sgd_train, tier_spec,
                          training_step_count)
from hdus.simulation import (ClientState, EventLog, SimConfig, Topology,
                             active_clients, active_neighbors, client_rng_streams,
                             evaluate_all, handle_unlearn_request, init_network,
                             local_training_phase, retire_client, run_round)

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


def test_seed_sent_once_in_the_round_it_is_incubated(partition, monkeypatch):
    """With incubation every 2 rounds, round 0 sends each client's new seed
    once; round 1 sends nothing, and every repository keeps the very seed
    objects round 0 stored; round 2 sends again. A quit, and the
    off-cadence round after it, send nothing."""
    cfg = small_cfg()
    cfg.incubate_every_rounds = 2
    clients, topo = fresh_network(partition, cfg)
    sent = []
    serialize = simulation.serialize_seed

    def spy(seed):
        sent.append(seed)
        return serialize(seed)
    monkeypatch.setattr(simulation, "serialize_seed", spy)
    run_round(clients, topo, cfg, 0)
    assert [id(s) for s in sent] == [id(c.own_seed) for c in clients]
    held = {c.id: list(c.repo.entries) for c in clients}
    run_round(clients, topo, cfg, 1)
    assert len(sent) == 4
    for c in clients:
        assert [nid for nid, _ in c.repo.entries] == [nid for nid, _ in held[c.id]]
        assert all(s is h for (_, s), (_, h) in zip(c.repo.entries, held[c.id]))
    run_round(clients, topo, cfg, 2)
    assert [id(s) for s in sent[4:]] == [id(c.own_seed) for c in clients]
    handle_unlearn_request(clients, 2)
    run_round(clients, topo, cfg, 3)
    assert len(sent) == 8


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


# --- local training: one stack per (main spec, split size) ------------------

_TIERS = ["small", "medium", "large"]


def _clients_with_splits(tiers, sizes, seed=0):
    """Active clients with the given main tiers and split row counts."""
    rng = np.random.default_rng(seed)
    ref = ReferenceSet(rng.normal(size=(8, F)))
    clients = []
    for i, (tier, n) in enumerate(zip(tiers, sizes)):
        train_rng, distill_rng = client_rng_streams(seed, i)
        split = LabeledDataset(rng.normal(size=(n, F)), rng.integers(0, C, size=n), C)
        clients.append(ClientState(
            id=i, main=init_mlp(tier_spec(tier, F, C), train_rng), own_seed=None,
            repo=SeedRepository(owner_id=i), local_data=split, ref=ref,
            train_rng=train_rng, distill_rng=distill_rng, tier=tier))
    return clients


def _sgd_train_alone(c, cfg):
    sgd_train(c.main, c.local_data.features, c.local_data.labels,
              c.local_data.class_count, cfg.local_epochs, cfg.lr,
              cfg.batch_size, c.train_rng)


@settings(max_examples=15, deadline=None)
@given(first=st.sampled_from(_TIERS), rest=st.lists(st.sampled_from(_TIERS), max_size=3),
       batch_size=st.integers(2, 7), full_batches=st.integers(0, 3),
       epochs=st.integers(0, 2), lr=st.sampled_from([0.0, 0.05]), data=st.data())
def test_local_training_equals_per_client_sgd_train(first, rest, batch_size,
                                                    full_batches, epochs, lr, data):
    """Stacked local training leaves every active main bitwise where
    `sgd_train` leaves it alone, from the same rng, takes the same number of
    steps, and leaves every rng in the same state. Clients 0 and 2 share a
    tier but their splits differ by one row; client 1 has another tier; the
    batch size does not divide client 0's split; one later client may have quit."""
    other = data.draw(st.sampled_from([t for t in _TIERS if t != first]), label="other")
    tiers = [first, other, first, *rest]
    n = full_batches * batch_size + data.draw(st.integers(1, batch_size - 1),
                                              label="remainder")
    sizes = [n, n + data.draw(st.integers(0, 1), label="size 1"), n + 1,
             *(n + data.draw(st.integers(0, 1), label="size") for _ in rest)]
    clients = _clients_with_splits(tiers, sizes, seed=n)
    quitter = data.draw(st.sampled_from([None, 1, *range(3, len(tiers))]), label="quitter")
    if quitter is not None:
        retire_client(clients, quitter)
    cfg = SimConfig(local_epochs=epochs, lr=lr, batch_size=batch_size)
    oracle = copy.deepcopy(clients)

    before = training_step_count()
    local_training_phase(clients, cfg)
    steps = training_step_count() - before
    before = training_step_count()
    for c in active_clients(oracle):
        _sgd_train_alone(c, cfg)
    assert steps == training_step_count() - before
    for c, want in zip(clients, oracle):
        if c.id == quitter:
            assert c.main is None
            continue
        assert _bits(c.main) == _bits(want.main)
        assert c.train_rng.bit_generator.state == want.train_rng.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_local_training_names_lowest_diverging_client_across_groups():
    """Clients 0 and 2 (large) train as the first group, client 1 (small) as
    the second and client 3 (small, one row more) as the third. With 2 and 1
    poisoned, client 2 diverges first, yet the error names client 1, and
    every group still trained: clients 0 and 3 end as `sgd_train` leaves
    them alone, though 3 comes after the named client."""
    cfg = SimConfig(local_epochs=1, lr=0.05, batch_size=4)
    clients = _clients_with_splits(["large", "small", "large", "small"],
                                   [10, 10, 10, 11])
    oracle = copy.deepcopy(clients)
    _poison(clients[2].main)
    _poison(clients[1].main)
    with pytest.raises(DivergenceError,
                       match="^client 1: non-finite student output at epoch 0"):
        local_training_phase(clients, cfg)
    for k in (0, 3):
        _sgd_train_alone(oracle[k], cfg)
        assert _bits(clients[k].main) == _bits(oracle[k].main)


# --- exact unlearning as a stateful property --------------------------------

@functools.lru_cache(maxsize=None)
def _tiny_partition(n_clients):
    ds = gen_blobs(140, C, F, 0.5, np.random.default_rng(40))
    return partition_noniid(ds, n_clients, 80, 0.2, np.random.default_rng(41))


def _survivor_state(c, cfg, test):
    own = None if c.own_seed is None else _bits(c.own_seed)
    return (_bits(c.main), own, c.repo.neighbor_ids(),
            [_bits(seed) for _, seed in c.repo.entries],
            ensemble_predict(c.main, c.repo, cfg.ensemble, test.features).tobytes())


class ExactUnlearning(RuleBasedStateMachine):
    """Rounds and quits in any order. After every step, each survivor is
    bitwise the same client in a control network where every quitter so far
    was cut off from the start (`Topology.without`) and the same rounds ran:
    main, own seed, repository ids in order, repository seeds and ensemble
    predictions."""

    @initialize(n=st.integers(2, 5), every=st.integers(1, 3),
                combine=st.sampled_from(["proba", "logits"]),
                lam=st.sampled_from([0.0, 0.5]), data=st.data())
    def build(self, n, every, combine, lam, data):
        tiers = data.draw(st.lists(st.sampled_from(_TIERS), min_size=n, max_size=n),
                          label="tiers")
        self.part = _tiny_partition(n)
        self.specs = [tier_spec(t, F, C) for t in tiers]
        self.cfg = SimConfig(local_epochs=1, lr=0.05, batch_size=32,
                             distill=DistillConfig(epochs=2, lr=0.1),
                             ensemble=EnsembleConfig(lam=lam, combine=combine),
                             seed_spec=MlpSpec((F, 8, C)), incubate_every_rounds=every)
        self.rounds = 0
        self.quitters = []
        self.clients, self.topo = self._network()
        self.control, self.control_topo = self._network()

    def _network(self):
        """A network cut off from every quitter so far, after the same rounds."""
        topo = Topology.complete(range(self.part.n_clients))
        for q in self.quitters:
            topo = topo.without(q)
        clients = init_network(self.part, self.specs, topo, self.cfg, 0)
        for r in range(self.rounds):
            run_round(clients, topo, self.cfg, r)
        return clients, topo

    @rule()
    def run_a_round(self):
        run_round(self.clients, self.topo, self.cfg, self.rounds)
        run_round(self.control, self.control_topo, self.cfg, self.rounds)
        self.rounds += 1

    @precondition(lambda self: len(active_clients(self.clients)) >= 2)
    @rule(data=st.data())
    def quit(self, data):
        ids = [c.id for c in active_clients(self.clients)]
        quitter = data.draw(st.sampled_from(ids), label="quitter")
        handle_unlearn_request(self.clients, quitter)
        self.quitters.append(quitter)
        self.control, self.control_topo = self._network()

    @invariant()
    def survivors_match_control(self):
        test = self.part.test
        for c in active_clients(self.clients):
            assert (_survivor_state(c, self.cfg, test)
                    == _survivor_state(self.control[c.id], self.cfg, test)), c.id


ExactUnlearning.TestCase.settings = settings(max_examples=25, stateful_step_count=8,
                                             deadline=None)
TestExactUnlearning = ExactUnlearning.TestCase
