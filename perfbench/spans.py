"""Call tracing for the benchmark, done from outside the package.

The traced run replaces public hdus functions with wrappers at every module
attribute that refers to them (the import sites the calls go through, such as
`hdus.simulation.incubate_seed` and `hdus.distill.mlp_backward`) and puts the
originals back afterwards. Nothing under `src/` is modified.

Two wrappers exist. `SpanRecorder` keeps one span per call (name, start, end,
parent) in flat in-memory arrays and derives busy and self time from them.
`Counters` does no timing: it inspects arguments and results to count work
(SGD steps, wire bytes, distinct seeds) in a separate, untimed pass, so that
hashing blobs never inflates a measured span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Traced public functions, by the hdus module that defines them.
TARGETS = {
    "numeric": ("sgd_train", "mlp_backward", "sgd_step", "softmax_temp",
                "mlp_forward"),
    "distill": ("incubate_seed",),
    "ensemble": ("serialize_seed", "deserialize_seed", "add_neighbor_seed",
                 "unlearn_neighbor", "ensemble_predict"),
    "simulation": ("init_network", "run_round", "local_training_phase",
                   "evaluate_all", "handle_unlearn_request"),
    "baselines": ("isgd_round", "dsgd_round", "fedunl_round", "sisa_round",
                  "fedunl_recover_round", "sisa_predict", "isgd_unlearn",
                  "dsgd_unlearn", "fedunl_unlearn", "sisa_unlearn_client"),
    "data": ("gen_blobs", "partition_noniid"),
    "harness": ("build_partition", "make_engine", "run_experiment",
                "emit_metrics"),
}


@contextmanager
def patched(wrap, names=None):
    """Replace each target function (or only those in `names`) by
    `wrap(name, fn)` wherever an hdus module holds a reference to it; restore
    every replaced attribute on exit."""
    replace = {}
    for mod_name, fns in TARGETS.items():
        mod = importlib.import_module(f"hdus.{mod_name}")
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if names is not None and name not in names:
                continue
            fn = getattr(mod, fn_name)
            wrapper = wrap(name, fn)
            if wrapper is not fn:
                replace[id(fn)] = (fn, wrapper)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "hdus" or key.startswith("hdus."))]
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class StepAudit:
    """Training steps taken inside every `handle_unlearn_request` call. The
    audit wraps only that one function, so it stays on in untimed runs."""

    NAME = "simulation.handle_unlearn_request"

    def __init__(self):
        self.deltas: list[int] = []
        self._steps = importlib.import_module("hdus.numeric").training_step_count

    def wrap(self, name, fn):
        steps, deltas = self._steps, self.deltas

        @functools.wraps(fn)
        def audited(*args, **kwargs):
            before = steps()
            try:
                return fn(*args, **kwargs)
            finally:
                deltas.append(steps() - before)
        return audited

    def installed(self):
        return patched(self.wrap, names={self.NAME})


class SpanRecorder:
    """In-memory spans: one row per call, parent = the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.pass_bounds: list[tuple[int, int]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        # The same steps as _Span, inlined: this runs on every traced call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def span(self, name: str) -> "_Span":
        """A span of the benchmark's own, such as one pass or one framework."""
        return _Span(self, self._nid(name))

    @contextmanager
    def pass_scope(self):
        first = len(self.name_id)
        with self.span("perfbench.pass"):
            yield
        self.pass_bounds.append((first, len(self.name_id)))

    def pass_stats(self, p: int) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, busy_ns, self_ns) for pass `p`."""
        lo, hi = self.pass_bounds[p]
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi])
        child = np.zeros(hi - lo, dtype=np.int64)
        inside = par >= lo
        np.add.at(child, par[inside] - lo, dur[inside])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=own, minlength=k)
        return {n: (int(calls[i]), int(busy[i]), int(selft[i]))
                for i, n in enumerate(self.names)}

    def breakdown(self, p: int, root: str, top: int = 8) -> list[tuple[str, float]]:
        """Busy time of each traced name inside the first `root` span of pass
        `p`, as a share of that span's duration, largest first."""
        lo, hi = self.pass_bounds[p]
        if root not in self._ids:
            return []
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        where = np.flatnonzero(ids[lo:hi] == self._ids[root])
        if where.size == 0:
            return []
        r = lo + int(where[0])
        starts = np.frombuffer(self.start, dtype=np.int64)
        ends = np.frombuffer(self.end, dtype=np.int64)
        # Spans are numbered in start order, so the root's descendants are
        # the spans after it that start before it ends.
        stop = r + 1 + int(np.searchsorted(starts[r + 1:hi], ends[r]))
        busy = np.bincount(ids[r + 1:stop], weights=ends[r + 1:stop] - starts[r + 1:stop],
                           minlength=len(self.names))
        total = float(ends[r] - starts[r])
        return [(self.names[i], busy[i] / total) for i in np.argsort(-busy)[:top]
                if busy[i] > 0]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 pass_bounds=np.array(self.pass_bounds, dtype=np.int64).reshape(-1, 2))


class _Span:
    def __init__(self, rec: SpanRecorder, nid: int):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        rec = self.rec
        self.i = len(rec.name_id)
        rec.name_id.append(self.nid)
        rec.parent.append(rec._stack[-1])
        rec.end.append(0)
        rec._stack.append(self.i)
        rec.start.append(time.perf_counter_ns())

    def __exit__(self, *exc):
        self.rec.end[self.i] = time.perf_counter_ns()
        self.rec._stack.pop()
        return False


def _model_digest(model) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(model.spec.layer_dims).encode())
    for w, b in zip(model.weights, model.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.digest()


class Counters:
    """Work counts read from arguments and results during one untimed pass."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(int)
        self._steps = importlib.import_module("hdus.numeric").training_step_count
        self._sent: set[bytes] = set()
        self._received: set[bytes] = set()
        self._eval_seeds: set[bytes] | None = None
        self._hooks = {
            "distill.incubate_seed": self._count_steps,
            "simulation.handle_unlearn_request": self._count_steps,
            "ensemble.serialize_seed": self._serialize,
            "ensemble.deserialize_seed": self._deserialize,
            "ensemble.ensemble_predict": self._predict,
            "simulation.evaluate_all": self._evaluate,
            "harness.emit_metrics": self._emit,
        }

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        if hook is None:
            return fn

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return hook(name, fn, args, kwargs)
        return counted

    def _count_steps(self, name, fn, args, kwargs):
        before = self._steps()
        out = fn(*args, **kwargs)
        self.values[f"{name}.steps"] += self._steps() - before
        return out

    def _serialize(self, name, fn, args, kwargs):
        blob = fn(*args, **kwargs)
        v = self.values
        v[f"{name}.calls"] += 1
        v[f"{name}.wire_bytes"] += len(blob)
        key = hashlib.blake2b(blob, digest_size=16).digest()
        if key not in self._sent:
            v[f"{name}.changed"] += 1
            self._sent.add(key)
        return blob

    def _deserialize(self, name, fn, args, kwargs):
        blob = args[0] if args else kwargs["blob"]
        self.values[f"{name}.calls"] += 1
        self._received.add(hashlib.blake2b(blob, digest_size=16).digest())
        return fn(*args, **kwargs)

    def _predict(self, name, fn, args, kwargs):
        repo, cfg = args[1], args[2]
        if len(repo) and cfg.lam != 0.0:   # else only the main model runs
            keys = [_model_digest(seed) for _, seed in repo.entries]
            self.values[f"{name}.seed_forwards"] += len(keys)
            if self._eval_seeds is not None:
                self._eval_seeds.update(keys)
        return fn(*args, **kwargs)

    def _evaluate(self, name, fn, args, kwargs):
        self._eval_seeds = set()
        try:
            return fn(*args, **kwargs)
        finally:
            self.values["ensemble.seed_forward.distinct"] += len(self._eval_seeds)
            self._eval_seeds = None

    def _emit(self, name, fn, args, kwargs):
        paths = fn(*args, **kwargs)
        self.values[f"{name}.bytes"] += sum(os.path.getsize(p) for p in paths.values())
        return paths

    def finish(self) -> dict[str, float]:
        """Counts and ratios of the pass (ratios are 0 when nothing was sent)."""
        v = dict(self.values)
        v["ensemble.deserialize_seed.distinct"] = len(self._received)

        def ratio(num, den):
            return v.get(num, 0) / v[den] if v.get(den) else 0.0
        v["ensemble.serialize_seed.changed_ratio"] = ratio(
            "ensemble.serialize_seed.changed", "ensemble.serialize_seed.calls")
        v["ensemble.deserialize_seed.distinct_ratio"] = ratio(
            "ensemble.deserialize_seed.distinct", "ensemble.deserialize_seed.calls")
        v["ensemble.seed_forward.distinct_ratio"] = ratio(
            "ensemble.seed_forward.distinct", "ensemble.ensemble_predict.seed_forwards")
        return v
