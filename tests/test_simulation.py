import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

import hdus.simulation as simulation
from hdus.baselines import sisa_predict
from hdus.data import LabeledDataset, gen_blobs, partition_noniid
from hdus.distill import DistillConfig, ReferenceSet
from hdus.ensemble import (EnsembleConfig, SeedRepository, add_neighbor_seed,
                           deserialize_seed, ensemble_predict, serialize_seed,
                           unlearn_neighbor)
from hdus.errors import (ConfigError, DivergenceError, DomainError, NotFoundError,
                         StateError, ValidationError)
from hdus.harness import (ExperimentConfig, build_partition, make_engine,
                          survivor_state)
from hdus.numeric import (MlpModel, MlpSpec, accuracy, init_mlp, sgd_train,
                          tier_spec, training_step_count)
from hdus.simulation import (ClientState, EventLog, SimConfig, Topology,
                             active_neighbors, client_rng_streams, evaluate_all,
                             handle_unlearn_request, init_network,
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


def test_init_network_checks_each_spec_against_the_partition(partition):
    """Specs that agree with each other but not with the partition's (F, C)
    fail in `init_network`, naming the first client at fault, not in the
    first training step."""
    n = partition.n_clients
    for specs, client in (([MlpSpec((F, 8, C + 2))] * n, 0),
                          ([MlpSpec((F, 16, C))] * (n - 1) + [MlpSpec((F + 1, 16, C))],
                           n - 1)):
        with pytest.raises(ConfigError, match=f"client {client}: "):
            fresh_network(partition, small_cfg(), specs=specs)


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
    assert [c.id for c in clients] == [0, 1, 3]    # the quitter left the roster
    for c in clients:
        assert 2 not in c.repo
        assert np.array_equal(c.main.params, before[c.id])   # untouched


def test_unlearn_unknown_or_repeated_rejected(partition):
    """A request for an id that is unknown or already gone raises
    NotFoundError and leaves the roster as it was."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)

    def rejected(q):
        roster = list(clients)
        with pytest.raises(NotFoundError):
            handle_unlearn_request(clients, q)
        assert len(clients) == len(roster)
        assert all(a is b for a, b in zip(clients, roster))

    rejected(99)
    handle_unlearn_request(clients, 1)
    rejected(1)


def test_all_quit_raises(partition):
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    for q in range(partition.n_clients):
        retire_client(clients, q)
    with pytest.raises(StateError):
        run_round(clients, topo, cfg, 0)


def test_roster_in_id_order(partition):
    """`init_network` builds the roster in id order and a quit keeps the
    order, so every framework acts on the clients in id order."""
    clients, _ = fresh_network(partition, small_cfg())
    assert [c.id for c in clients] == [0, 1, 2, 3]
    retire_client(clients, 2)
    assert [c.id for c in clients] == [0, 1, 3]
    ring = Topology({i: frozenset({(i - 1) % 4, (i + 1) % 4}) for i in range(4)})
    assert [c.id for c in active_neighbors(clients, ring, 1)] == [0]
    assert [c.id for c in active_neighbors(clients, ring, 0)] == [1, 3]
    retire_client(clients, 0)
    assert [c.id for c in clients] == [1, 3]


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
    for q in range(partition.n_clients):
        handle_unlearn_request(clients, q)
    with pytest.raises(StateError, match="no active clients"):
        evaluate_all(clients, partition.test, cfg)


def test_evaluate_all_rejects_writable_test_features(partition):
    """Seeds keep their outputs keyed by the test features, so evaluation
    takes only read-only ones: a test set whose features array its owner
    made writable again is rejected before any forward."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    test = partition.test
    features = test.features.copy()
    thawed = LabeledDataset(features, test.labels, test.class_count)
    features.flags.writeable = True   # the array owns its memory, so this is allowed
    assert thawed.features is features
    with pytest.raises(ValidationError, match="^test features are writable"):
        evaluate_all(clients, thawed, cfg)
    assert all(seed._test_output is None for c in clients for _, seed in c.repo.entries)


def test_a_roster_survives_copy_and_pickle_read_only(partition):
    """`status` is class-wide, so a client cannot set it. A deep copy or a
    pickle of a roster gives clients equal to the originals, whose local
    splits are read-only again and share one read-only reference set."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    with pytest.raises(AttributeError, match="'status' is read-only"):
        clients[0].status = "quit"
    state = [survivor_state(c, cfg, partition.test) for c in clients]
    for twin in (copy.deepcopy(clients), pickle.loads(pickle.dumps(clients))):
        assert [survivor_state(c, cfg, partition.test) for c in twin] == state
        assert all(c.ref is twin[0].ref for c in twin)
        for c, orig in zip(twin, clients):
            for a, b in ((c.local_data.features, orig.local_data.features),
                         (c.local_data.labels, orig.local_data.labels),
                         (c.ref.features, orig.ref.features)):
                assert a is not b and np.array_equal(a, b) and not a.flags.writeable


def test_sim_config_checks_the_cadence():
    """The incubation cadence has one bound, checked when a SimConfig is
    built: 0 would divide by zero in `run_round`, and -1 would incubate
    every round."""
    for every in (0, -1):
        with pytest.raises(ConfigError, match="^incubate_every_rounds: must be >= 1$"):
            SimConfig(incubate_every_rounds=every)
    assert SimConfig(incubate_every_rounds=3).incubate_every_rounds == 3


def test_run_round_checks_its_inputs(partition):
    """A round needs a seed spec and one reference set shared by the clients
    it incubates; the network needs one spec per client."""
    with pytest.raises(ConfigError, match="^3 specs for 4 clients$"):
        fresh_network(partition, small_cfg(), specs=[MlpSpec((F, 16, C))] * 3)
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    no_spec = small_cfg()
    no_spec.seed_spec = None
    with pytest.raises(ConfigError, match="^cfg.seed_spec is required"):
        run_round(clients, topo, no_spec, 0)
    clients[2].ref = ReferenceSet(partition.reference.features.copy())
    with pytest.raises(ConfigError, match="^clients must share one reference set$"):
        run_round(clients, topo, cfg, 0)
    assert all(c.own_seed is None and not len(c.repo) for c in clients)


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


def _decoded(model):
    """`model` as a receiver stores it: sent over the wire, read-only."""
    return deserialize_seed(serialize_seed(model))


def _poison(model):
    model.weights[0][0, 0] = np.inf


def test_incubation_divergence_is_all_or_nothing(partition):
    """A diverging seed stops the round before any seed is replaced. Every
    teacher is checked before any step, so with client 3's teacher poisoned
    the error names client 3 even when client 1's warm start would diverge
    at the first step."""
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
    with pytest.raises(DivergenceError, match="^client 3: non-finite teacher"):
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
    add_neighbor_seed(clients[0].repo, 3,
                      _decoded(dict(clients[0].repo.entries)[1].copy()))
    # client 2 mixes seed shapes
    unlearn_neighbor(clients[2].repo, 0)
    add_neighbor_seed(clients[2].repo, 0, _decoded(init_mlp(MlpSpec((F, 20, 7, C)),
                                                            np.random.default_rng(3))))
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


def _graph(shape, n):
    """A connected symmetric graph of one shape over clients 0..n-1."""
    if shape == "complete":
        return Topology.complete(range(n))
    if shape == "path":
        return Topology({i: frozenset({i - 1, i + 1} & set(range(n))) for i in range(n)})
    return Topology({0: frozenset(range(1, n)),        # star around client 0
                     **{i: frozenset({0}) for i in range(1, n)}})


_SHAPES = ("complete", "path", "star")
_TOPOLOGIES = {
    **{shape: _graph(shape, 5) for shape in _SHAPES},
    # Clients 0 and 1 hold [3, 4], client 2 only [3]: the prefix client 1
    # shares with client 2 is shorter than the one it shares with client 0.
    "two_hubs": Topology({0: frozenset({3, 4}), 1: frozenset({3, 4}),
                          2: frozenset({3}), 3: frozenset({0, 1, 2}),
                          4: frozenset({0, 1})}),
}


def _resend(clients, topo, sender_id, scale):
    """A new seed for one client, sent to its neighbors as `run_round`
    sends one: decoded once, remove-then-add, so it moves to the end."""
    sender = next(c for c in clients if c.id == sender_id)
    sender.own_seed = MlpModel(sender.own_seed.spec, sender.own_seed.params * scale)
    sent = deserialize_seed(serialize_seed(sender.own_seed))
    for nbr in active_neighbors(clients, topo, sender_id):
        unlearn_neighbor(nbr.repo, sender_id)
        add_neighbor_seed(nbr.repo, sender_id, sent)


def _substitute(repo, neighbor_id, seed):
    """Hold `seed` for `neighbor_id` at the position the old one had."""
    held = list(repo.entries)
    for nid, _ in held:
        unlearn_neighbor(repo, nid)
    for nid, old in held:
        add_neighbor_seed(repo, nid, seed if nid == neighbor_id else old)


@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("combine", ["proba", "logits"])
@pytest.mark.parametrize("lam", [0.0, 0.6])
def test_evaluate_all_across_calls_equals_ensemble_predict(monkeypatch, topology,
                                                           combine, lam):
    """Outputs stored on seeds and partial sums shared between repositories
    leave every client's ensemble output bitwise what ensemble_predict gives
    it, call after call, across a quit, a single re-sent seed, a round, and
    another seed under a shared id at a shared position."""
    part = _partition(5)
    topo = _TOPOLOGIES[topology]
    cfg = small_cfg(lam)
    cfg.ensemble = EnsembleConfig(lam=lam, combine=combine)
    clients = init_network(part, [MlpSpec((F, 16, C))] * 5, topo, cfg, 0)
    run_round(clients, topo, cfg, 0)
    seen = []

    def spy(out, labels):
        seen.append(out.tobytes())
        return accuracy(out, labels)
    monkeypatch.setattr(simulation, "accuracy", spy)

    def check():
        seen.clear()
        per_client, _ = evaluate_all(clients, part.test, cfg)
        assert list(per_client) == [c.id for c in clients]
        assert seen == [ensemble_predict(c.main, c.repo, cfg.ensemble,
                                         part.test.features).tobytes()
                        for c in clients]

    check()
    check()
    handle_unlearn_request(clients, 3)
    check()
    _resend(clients, topo, 0, 0.5)
    check()
    run_round(clients, topo, cfg, 1)
    check()
    _resend(clients, topo, 4, 2.0)
    check()
    last = [c for c in clients if len(c.repo)][-1]
    nid, seed = last.repo.entries[0]
    _substitute(last.repo, nid, _decoded(MlpModel(seed.spec, seed.params * 0.5)))
    check()


def test_overflowing_main_is_divergence(partition):
    """A main whose finite parameters overflow the forward fails evaluation
    with DivergenceError naming it, and no numpy warning (pytest would turn
    one into an error)."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    clients[1].main.params[...] *= 1e200
    assert np.isfinite(clients[1].main.params).all()
    features = partition.test.features
    with pytest.raises(DivergenceError, match="^client 1: main model: non-finite output$"):
        evaluate_all(clients, partition.test, cfg)
    with pytest.raises(DivergenceError, match="^main model: non-finite output$"):
        ensemble_predict(clients[1].main, clients[1].repo, cfg.ensemble, features)
    with pytest.raises(DivergenceError, match="^client 1: shard: non-finite output$"):
        sisa_predict(clients, features)


def test_evaluate_all_forwards_a_read_only_seed_once(partition, monkeypatch):
    """A repository takes only read-only seeds. A decoded seed is forwarded
    once over calls on one test set; another test set or another combine
    mode forwards it anew."""
    cfg = small_cfg()
    clients, topo = fresh_network(partition, cfg)
    run_round(clients, topo, cfg, 0)
    # a writable copy of client 3's seed is rejected, and nothing changes
    held = list(clients[0].repo.entries)
    unlearn_neighbor(clients[0].repo, 3)
    with pytest.raises(ValidationError, match="^seed from neighbor 3 is writable"):
        add_neighbor_seed(clients[0].repo, 3, dict(held)[3].copy())
    add_neighbor_seed(clients[0].repo, 3, dict(held)[3])
    assert clients[0].repo.entries == held
    forwards = []
    model_output = simulation._model_output

    def spy(model, batch, combine, who):
        if not who.endswith(": main model"):
            forwards.append(id(model))
        return model_output(model, batch, combine, who)
    monkeypatch.setattr(simulation, "_model_output", spy)
    decoded = {id(seed) for c in clients for _, seed in c.repo.entries}
    assert len(decoded) == 4

    test = partition.test
    assert not test.features.flags.writeable
    evaluate_all(clients, test, cfg)
    evaluate_all(clients, test, cfg)
    assert sorted(forwards) == sorted(decoded)
    for c in clients:
        for _, seed in c.repo.entries:
            assert seed._test_output[0] is test.features
            assert not seed._test_output[2].flags.writeable

    # A deep copy of the network holds read-only seeds, shared as before,
    # that forward once before they keep their own outputs.
    forwards.clear()
    twin = copy.deepcopy(clients)
    twin_decoded = {id(seed) for c in twin for _, seed in c.repo.entries}
    assert len(twin_decoded) == 4 and not twin_decoded & decoded
    evaluate_all(twin, test, cfg)
    evaluate_all(twin, test, cfg)
    assert sorted(forwards) == sorted(twin_decoded)

    forwards.clear()
    other = LabeledDataset(test.features.copy(), test.labels, test.class_count)
    evaluate_all(clients, other, cfg)
    assert sorted(forwards) == sorted(decoded)

    forwards.clear()
    cfg.ensemble = EnsembleConfig(lam=cfg.ensemble.lam, combine="logits")
    evaluate_all(clients, other, cfg)     # the test set the seeds last kept
    assert sorted(forwards) == sorted(decoded)


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
    for c in oracle:
        _sgd_train_alone(c, cfg)
    assert steps == training_step_count() - before
    for c, want in zip(clients, oracle):
        assert _bits(c.main) == _bits(want.main)
        assert c.train_rng.bit_generator.state == want.train_rng.bit_generator.state


def test_local_training_stops_at_first_diverging_group():
    """Clients 0 and 2 (large) train as the first group, client 1 (small) as
    the second and client 3 (small, one row more) as the third. With 2 and 1
    poisoned, the first group diverges first and its error names client 2,
    though client 1 has the lower id. The failing group keeps its pre-round
    parameters, and the later groups do not train."""
    cfg = SimConfig(local_epochs=1, lr=0.05, batch_size=4)
    clients = _clients_with_splits(["large", "small", "large", "small"],
                                   [10, 10, 10, 11])
    _poison(clients[2].main)
    _poison(clients[1].main)
    bits = [_bits(c.main) for c in clients]
    with pytest.raises(DivergenceError,
                       match="^client 2: non-finite student output at epoch 0$"):
        local_training_phase(clients, cfg)
    assert [_bits(c.main) for c in clients] == bits


@pytest.mark.parametrize("lr, epochs", [(-0.1, 1), (np.nan, 1), (np.inf, 1),
                                        (0.05, -1)])
def test_bad_lr_or_epochs_is_rejected(lr, epochs):
    """A negative or NaN learning rate, or negative epochs, would otherwise
    train nothing and count no step, silently, and an infinite one would
    diverge; training rejects each once per call, before any step, and
    SimConfig rejects each when built, keyed as the experiment config is."""
    clients = _clients_with_splits(["small", "small"], [10, 10])
    d = clients[0].local_data
    bits = [_bits(c.main) for c in clients]
    with pytest.raises(DomainError, match="^(learning rate|epochs) must be"):
        sgd_train(clients[0].main, d.features, d.labels, C, epochs, lr, 4,
                  np.random.default_rng(0))
    with pytest.raises(ConfigError, match="^(lr|local_epochs): must be"):
        SimConfig(local_epochs=epochs, lr=lr)
    assert [_bits(c.main) for c in clients] == bits


@pytest.mark.parametrize("batch_size", [0, -5])
def test_batch_size_below_one_is_rejected(batch_size):
    """A batch size below 1 never advances the minibatch loop, so training
    rejects it once per call, before any step, rather than hanging, and
    SimConfig rejects it when built."""
    clients = _clients_with_splits(["small", "small"], [10, 10])
    model = clients[0].main
    d = clients[0].local_data
    bits = [_bits(c.main) for c in clients]
    with pytest.raises(DomainError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        sgd_train(model, d.features, d.labels, C, 3, 0.1, batch_size,
                  np.random.default_rng(0))
    with pytest.raises(ConfigError, match=f"^batch_size: must be >= 1, got {batch_size}$"):
        SimConfig(local_epochs=1, lr=0.05, batch_size=batch_size)
    assert [_bits(c.main) for c in clients] == bits


# --- exact unlearning as a stateful property --------------------------------

def _experiment(**kw) -> ExperimentConfig:
    return ExperimentConfig(blob_classes=C, blob_features=F, blob_samples_per_class=140,
                            ref_size=80, incubate_epochs=2, **kw)


@functools.lru_cache(maxsize=None)
def _partition(n_clients):
    return build_partition(_experiment(n_clients=n_clients), 0)


class ExactUnlearning(RuleBasedStateMachine):
    """Rounds and quits in any order, under hdus, isgd or sisa_a, on a
    complete, path or star graph (a quit on a path can split it). An unlearn
    takes no SGD step. After every step the run's and a control engine's
    rosters both hold the ids that never quit, in id order, each survivor's
    `survivor_state` is equal in both,
    and so are the logged evaluation rows. The control is a fresh
    `make_engine` on the same graph whose quitters so far retired before
    round 0, through the same rounds."""

    @initialize(framework=st.sampled_from(["hdus", "isgd", "sisa_a"]),
                n=st.integers(2, 5), shape=st.sampled_from(_SHAPES),
                setting=st.sampled_from(["homogeneous", "heterogeneous"]),
                every=st.integers(1, 3), combine=st.sampled_from(["proba", "logits"]),
                lam=st.sampled_from([0.0, 0.5]))
    def build(self, framework, n, shape, setting, every, combine, lam):
        self.cfg = _experiment(framework=framework, n_clients=n, setting=setting,
                               incubate_every_rounds=every, combine=combine,
                               ensemble_lambda=lam)
        self.graph = _graph(shape, n)
        self.rounds = 0
        self.quitters = []
        self.run = self._engine()
        self.control = self._engine()

    def _engine(self):
        """The rounds so far on an engine whose quitters so far retired first."""
        engine = make_engine(self.cfg, _partition(self.cfg.n_clients), 0)
        engine.topology = self.graph
        for q in self.quitters:
            retire_client(engine.clients, q)
        for r in range(self.rounds):
            engine.round(r)
        return engine

    @rule()
    def run_a_round(self):
        self.run.round(self.rounds)
        self.control.round(self.rounds)
        self.rounds += 1

    @precondition(lambda self: len(self.run.clients) >= 2)
    @rule(data=st.data())
    def quit(self, data):
        ids = [c.id for c in self.run.clients]
        quitter = data.draw(st.sampled_from(ids), label="quitter")
        steps = training_step_count()
        self.run.unlearn(quitter)
        assert training_step_count() == steps
        self.quitters.append(quitter)
        self.control = self._engine()

    @invariant()
    def survivors_match_control(self):
        engines = (self.run, self.control)
        ids = [[c.id for c in e.clients] for e in engines]
        never_quit = [i for i in range(self.cfg.n_clients) if i not in self.quitters]
        assert ids[0] == ids[1] == never_quit
        test = self.run.part.test
        for c, twin in zip(self.run.clients, self.control.clients):
            assert (survivor_state(c, self.run.sim, test)
                    == survivor_state(twin, self.control.sim, test)), c.id
        logs = [EventLog() for _ in engines]
        for engine, log in zip(engines, logs):
            engine.evaluate(log, self.rounds)
        assert logs[0].records == logs[1].records


ExactUnlearning.TestCase.settings = settings(max_examples=25, stateful_step_count=8,
                                             deadline=None)
TestExactUnlearning = ExactUnlearning.TestCase
