"""The benchmark's three workloads.

Every workload is a closed loop: one experiment at a time, from one process,
with the workload seed as hdus's `master_seed`. They call the package only
through public functions looked up on their module at call time (for example
`harness.run_experiment`), so the traced run's wrappers see every call.

A workload has four parts:
- `setup(seed)`: what a user pays before the first round (data, partition,
  network). A fresh interpreter runs it to measure `setup_s`.
- `prepare(seed)`: untimed state a pass starts from (None for most).
- `run_pass(seed, out_dir, mark, state)`: one timed pass. `mark(name)` opens
  a span of the benchmark's own in the traced run and does nothing otherwise.
- `inspect(raw)`: untimed reading of a pass's outputs (accuracies, digest).
Some also have `final_checks(seed)`, untimed checks made once per run.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import hdus.ensemble as ensemble
import hdus.harness as harness
import hdus.numeric as numeric
import hdus.simulation as simulation
from hdus.distill import DistillConfig
from hdus.ensemble import EnsembleConfig
from hdus.harness import ExperimentConfig

# A smaller data set for the smoke tests; the sizes exercise every code path.
_TINY_DATA = dict(blob_classes=5, blob_features=6, blob_samples_per_class=60,
                  blob_spread=0.5, blob_components=2, ref_size=50,
                  incubate_epochs=1)


@dataclass
class Raw:
    """What one pass produced, for `inspect` after the timer stopped."""

    hdus_s: float | None = None      # None: the whole pass is hdus
    baselines_s: float | None = None
    serve_s: list[float] = field(default_factory=list)
    payload: object = None


@dataclass
class Seen:
    final_accuracy: float
    accuracies: list[float]
    digest: str


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _event_values(report) -> list[float]:
    return [rec[4] for rr in report.repeats for rec in rr.event_log.records]


class PaperCompare:
    """The paper's recovery-curve experiment: what `hdus unlearn-demo` runs."""

    name = "paper-compare"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.cfg = ExperimentConfig(n_clients=4, rounds=3, unlearn_round=1,
                                        unlearn_client=3, **_TINY_DATA)
        else:
            self.cfg = ExperimentConfig(unlearn_round=15, unlearn_client=4)

    def _cfg(self, seed: int, framework: str = "hdus") -> ExperimentConfig:
        return replace(self.cfg, master_seed=seed, framework=framework)

    def setup(self, seed: int) -> None:
        cfg = self._cfg(seed)
        harness.make_engine(cfg, harness.build_partition(cfg, seed), seed)

    def prepare(self, seed: int) -> None:
        return None

    def run_pass(self, seed, out_dir, mark, state) -> Raw:
        reports, times = [], {}
        for fw in harness.FRAMEWORKS:
            t0 = time.perf_counter()
            with mark(f"perfbench.{fw}"):
                reports.append(harness.run_experiment(self._cfg(seed, fw)))
            times[fw] = time.perf_counter() - t0
        with mark("perfbench.emit"):
            paths = harness.emit_metrics(reports, str(out_dir))
        return Raw(hdus_s=times["hdus"],
                   baselines_s=sum(t for fw, t in times.items() if fw != "hdus"),
                   payload=(reports, paths))

    def inspect(self, raw: Raw) -> Seen:
        reports, paths = raw.payload
        files = []
        for key in sorted(paths):
            with open(paths[key], "rb") as f:
                files.append(f.read())
        return Seen(final_accuracy=reports[0].mean(),
                    accuracies=[v for rep in reports for v in _event_values(rep)],
                    digest=_digest(*files))


class Wide40:
    """40 clients on a pool the size of the default one, seeds incubated once:
    every evaluation forwards 1,560 repository copies of only 40 seeds."""

    name = "wide-40"
    ROUNDS = 6

    def __init__(self, tiny: bool = False):
        if tiny:
            data = dict(_TINY_DATA, blob_classes=8, blob_components=1)
            self.cfg = ExperimentConfig(n_clients=8, rounds=2,
                                        incubate_every_rounds=2, **data)
        else:
            self.cfg = ExperimentConfig(
                n_clients=40, blob_classes=40, blob_components=1,
                blob_samples_per_class=119, rounds=self.ROUNDS,
                incubate_every_rounds=self.ROUNDS)

    def setup(self, seed: int) -> None:
        cfg = replace(self.cfg, master_seed=seed)
        harness.make_engine(cfg, harness.build_partition(cfg, seed), seed)

    def prepare(self, seed: int) -> None:
        return None

    def run_pass(self, seed, out_dir, mark, state) -> Raw:
        return Raw(payload=harness.run_experiment(replace(self.cfg, master_seed=seed)))

    def inspect(self, raw: Raw) -> Seen:
        report = raw.payload
        text = harness.timeline_csv_text([report]) + "".join(
            rr.event_log.to_csv_text() for rr in report.repeats)
        return Seen(final_accuracy=report.mean(),
                    accuracies=_event_values(report),
                    digest=_digest(text.encode()))


def _model_bytes(model) -> bytes:
    return repr(model.spec.layer_dims).encode() + b"".join(
        w.tobytes() + b.tobytes() for w, b in zip(model.weights, model.biases))


@dataclass
class Snapshot:
    """A survivor's state right after it served, compared bit for bit."""

    main: bytes
    seed: bytes
    repo_ids: list[int]
    repo: list[bytes]
    predictions: bytes


def snapshot(client, sim, test) -> Snapshot:
    pred = ensemble.ensemble_predict(client.main, client.repo, sim.ensemble,
                                     test.features)
    return Snapshot(main=_model_bytes(client.main),
                    seed=_model_bytes(client.own_seed),
                    repo_ids=client.repo.neighbor_ids(),
                    repo=[_model_bytes(m) for _, m in client.repo.entries],
                    predictions=pred.tobytes())


class Churn10:
    """From a warmed-up network, clients quit one at a time until two remain;
    after each quit every survivor serves the test set (the sample), then one
    training-and-exchange round runs."""

    name = "churn-10"
    WARMUP_ROUNDS = 3
    # Sparse incubation: only round 0 incubates (pass rounds stop at 10), so
    # the timed pass does no distillation at all.
    INCUBATE_EVERY = 16
    SURVIVORS = 2

    def __init__(self, tiny: bool = False):
        if tiny:
            self.cfg = ExperimentConfig(n_clients=4, **_TINY_DATA,
                                        incubate_every_rounds=self.INCUBATE_EVERY)
            self.warmup = 1
        else:
            self.cfg = ExperimentConfig(n_clients=10,
                                        incubate_every_rounds=self.INCUBATE_EVERY)
            self.warmup = self.WARMUP_ROUNDS
        self._warm = None

    def quit_order(self, seed: int) -> list[int]:
        """Quits rotate through the tiers, largest first, and the seed picks
        the client within each tier, so every seed's pass does the same work."""
        tiers = self.cfg.client_tiers()
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
        queues = [rng.permutation([c for c, t in enumerate(tiers) if t == tier])
                  for tier in ("large", "medium", "small")]
        rotation = [int(c) for turn in itertools.zip_longest(*queues)
                    for c in turn if c is not None]
        return rotation[: len(tiers) - self.SURVIVORS]

    def sim_config(self, part) -> simulation.SimConfig:
        """The SimConfig the harness derives from the same ExperimentConfig."""
        cfg = self.cfg
        return simulation.SimConfig(
            local_epochs=cfg.local_epochs, lr=cfg.lr, batch_size=cfg.batch_size,
            distill=DistillConfig(temperature=cfg.temperature,
                                  epochs=cfg.incubate_epochs, lr=cfg.incubate_lr,
                                  batch_size=cfg.batch_size),
            ensemble=EnsembleConfig(lam=cfg.ensemble_lambda, combine=cfg.combine),
            seed_spec=numeric.tier_spec(cfg.seed_tier, part.test.features.shape[1],
                                        part.test.class_count),
            incubate_every_rounds=cfg.incubate_every_rounds)

    def setup(self, seed: int, never_joined=()):
        """Partition and network; clients in `never_joined` get no edges."""
        cfg = replace(self.cfg, master_seed=seed)
        part = harness.build_partition(cfg, seed)
        topology = simulation.Topology.complete(range(cfg.n_clients))
        for q in never_joined:
            topology = topology.without(q)
        sim = self.sim_config(part)
        tiers = cfg.client_tiers()
        specs = [numeric.tier_spec(t, part.test.features.shape[1],
                                   part.test.class_count) for t in tiers]
        clients = simulation.init_network(part, specs, topology, sim, seed,
                                          tiers=tiers)
        return part, topology, clients, sim

    def prepare(self, seed: int):
        """A fresh copy of the network after the warm-up rounds; the first
        call builds and warms it up."""
        if self._warm is None or self._warm[0] != seed:
            part, topology, clients, sim = self.setup(seed)
            for r in range(self.warmup):
                simulation.run_round(clients, topology, sim, r)
            self._warm = (seed, part, topology, clients, sim)
        _, part, topology, clients, sim = self._warm
        return part, topology, copy.deepcopy(clients), sim

    def run_pass(self, seed, out_dir, mark, state, on_serve=None) -> Raw:
        part, topology, clients, sim = state
        serve_s, served = [], []
        r = self.warmup
        for q in self.quit_order(seed):
            s0 = time.perf_counter()
            simulation.handle_unlearn_request(clients, q)
            per_client, mean = simulation.evaluate_all(clients, part.test, sim,
                                                       round_index=r)
            serve_s.append(time.perf_counter() - s0)
            served.append((per_client, mean))
            if on_serve is not None:
                on_serve(clients, sim, part.test)
            simulation.run_round(clients, topology, sim, r)
            r += 1
        return Raw(serve_s=serve_s, payload=(served, clients))

    def inspect(self, raw: Raw) -> Seen:
        served, clients = raw.payload
        accs = [a for per_client, mean in served
                for a in [*per_client.values(), mean]]
        state = [_model_bytes(m) for c in clients
                 if c.status == simulation.ACTIVE for m in (c.main, c.own_seed)]
        return Seen(final_accuracy=served[-1][1], accuracies=accs,
                    digest=_digest(repr(accs).encode(), *state))

    def build_control(self, seed: int, never_joined: list[int], rounds: int):
        """The same network in which `never_joined` were cut off from the
        start, so nobody ever held their seeds (as in acceptance criterion 1),
        after `rounds` rounds."""
        part, topology, clients, sim = self.setup(seed, never_joined)
        for r in range(rounds):
            simulation.run_round(clients, topology, sim, r)
        return clients, sim, part.test

    def final_checks(self, seed: int) -> list[tuple[str, bool, str]]:
        """After quit k, every survivor equals, bit for bit, its twin in a
        control run where the first k quitters never joined."""
        snaps = []

        def on_serve(clients, sim, test):
            snaps.append({c.id: snapshot(c, sim, test) for c in clients
                          if c.status == simulation.ACTIVE})

        self.run_pass(seed, None, None, self.prepare(seed), on_serve=on_serve)
        order = self.quit_order(seed)
        checks = []
        for k, actual in enumerate(snaps, start=1):
            # The pass had run the warm-up and one round per earlier quit.
            control, sim, test = self.build_control(seed, order[:k],
                                                    self.warmup + k - 1)
            by_id = {c.id: c for c in control}
            bad = [cid for cid, snap in actual.items()
                   if snapshot(by_id[cid], sim, test) != snap]
            checks.append((f"exact after quit {k} (client {order[k - 1]})",
                           not bad, f"survivors differing: {bad}" if bad else ""))
        return checks


WORKLOADS = {w.name: w for w in (PaperCompare, Wide40, Churn10)}


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
