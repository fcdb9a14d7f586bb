#!/usr/bin/env python3
"""Benchmark of the hdus simulator.

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports hdus from ./src and
refuses to run without it. `--trace 0` measures the end-to-end metrics,
`--trace 1` the per-layer ones (see perfbench/README.md). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("paper-compare", "wide-40", "churn-10")
SETUP_PROBES = 9          # fresh interpreters per run, after one untimed one

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = {"setup_s": "s", "run_s": "s", "hdus_run_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "final_accuracy": "fraction"}
# Printed and saved with the others, but a workload has them or not.
WORKLOAD_ONLY = {"paper-compare": {"baselines_run_s": "s"},
                 "churn-10": {"unlearn_serve_ms_p50": "ms",
                              "unlearn_serve_ms_p90": "ms"}}

_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms",
          "us_per_call": "us", "ms_per_call": "ms", "steps": "count",
          "wire_bytes": "bytes", "bytes": "bytes", "changed_ratio": "ratio",
          "distinct_ratio": "ratio", "seed_forwards": "count"}
# Read from the traced passes' spans; every other kind comes from counters.
_SPAN_KINDS = ("calls", "busy_ms", "self_ms", "us_per_call", "ms_per_call")

_LAYERS = [
    ("numeric.mlp_backward", ("calls", "us_per_call")),
    ("numeric.sgd_step", ("calls", "us_per_call")),
    ("numeric.sgd_train", ("calls", "busy_ms")),
    ("numeric.softmax_temp", ("calls", "busy_ms")),
    ("numeric.mlp_forward", ("calls", "busy_ms")),
    ("distill.incubate_seed", ("calls", "busy_ms", "ms_per_call", "steps")),
    ("ensemble.serialize_seed", ("calls", "us_per_call", "wire_bytes",
                                 "changed_ratio")),
    ("ensemble.deserialize_seed", ("calls", "us_per_call", "distinct_ratio")),
    ("ensemble.add_neighbor_seed", ("calls", "us_per_call")),
    ("ensemble.unlearn_neighbor", ("calls", "us_per_call")),
    ("ensemble.ensemble_predict", ("calls", "busy_ms", "self_ms",
                                   "seed_forwards")),
    ("ensemble.seed_forward", ("distinct_ratio",)),
    ("simulation.run_round", ("calls", "busy_ms", "self_ms")),
    ("simulation.local_training_phase", ("busy_ms",)),
    ("simulation.evaluate_all", ("calls", "busy_ms", "self_ms")),
    ("simulation.handle_unlearn_request", ("calls", "us_per_call", "steps")),
    ("simulation.init_network", ("busy_ms",)),
    *[(f"baselines.{fn}", ("busy_ms",)) for fn in (
        "isgd_round", "dsgd_round", "fedunl_round", "sisa_round",
        "fedunl_recover_round", "sisa_predict", "isgd_unlearn", "dsgd_unlearn",
        "fedunl_unlearn", "sisa_unlearn_client")],
    ("data.gen_blobs", ("busy_ms",)),
    ("data.partition_noniid", ("busy_ms",)),
    ("harness.build_partition", ("busy_ms",)),
    ("harness.make_engine", ("busy_ms",)),
    ("harness.run_experiment", ("self_ms",)),
    ("harness.emit_metrics", ("busy_ms", "bytes")),
]
PER_LAYER = {"numeric.sgd_steps": "count",
             **{f"{fn}.{kind}": _UNITS[kind] for fn, kinds in _LAYERS for kind in kinds},
             "trace.overhead_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny data and networks, for the smoke tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)   # child process of the setup_s probe
    return p.parse_args(argv)


def load_hdus() -> None:
    """Import hdus from this checkout's sources, never from anywhere else."""
    if not (SRC / "hdus" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hdus sources at {SRC / 'hdus'}")
    sys.path.insert(0, str(SRC))
    import hdus
    if Path(hdus.__file__).resolve().parent != SRC / "hdus":
        raise SystemExit(f"perfbench: imported hdus from {hdus.__file__}, "
                         f"not from {SRC / 'hdus'}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS numpy loaded, if any."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return {"blas_runtime_threads": threads(),
                    "blas_runtime_config": config().decode()}
    return {"blas_runtime_threads": "unknown", "blas_runtime_config": "unknown"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        **_openblas_runtime(),
        **{v: os.environ.get(v, "unset") for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # The benchmark leaves the BLAS thread count as the environment sets it.
        "blas_threads_pinned_by_benchmark": False,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }
    return env


# ---------------------------------------------------------------------------
# Operations: every pass, setup probe and check is one
# ---------------------------------------------------------------------------

@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"perfbench: FAILED {what} {detail}".rstrip(), file=sys.stderr)
        return ok


class SetupProbes:
    """`setup_s` samples: a fresh interpreter runs the workload's set-up and
    prints the CLOCK_MONOTONIC time at which its network is ready. The speed
    of a shared machine drifts over tens of seconds, so the probes are spread
    across the run, between passes; one untimed probe first warms the caches."""

    def __init__(self, args, ops: Ops, count: int = SETUP_PROBES):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            self.cmd.append("--tiny")
        self.ops, self.count = ops, count
        self.times: list[float] = []
        self.done = 0
        self._probe(timed=False)

    def _probe(self, timed: bool = True) -> None:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
            ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
            ok, detail = proc.returncode == 0 and len(ready) == 1, proc.stderr
        except subprocess.TimeoutExpired:
            ok, detail = False, "timed out"
        if timed:
            self.done += 1
            if self.ops.record(f"setup probe {self.done}", ok, detail.strip()[-500:]):
                self.times.append(float(ready[0].split()[1]) - t0)

    def catch_up(self, fraction: float) -> None:
        """Probe until `fraction` of the probes are done."""
        while self.done < min(self.count, math.ceil(fraction * self.count)):
            self._probe()


@dataclass
class PassRecord:
    run_s: float
    cpu_s: float
    hdus_s: float
    baselines_s: float | None
    serve_s: list[float]
    steps: int
    seen: object


def timed_passes(wl, seed: int, seconds: float, ops: Ops, audit,
                 run_dir: Path, recorder=None, label: str = "pass",
                 min_passes: int = 1, between=None) -> list[PassRecord]:
    """Closed loop: passes back to back until `seconds` have gone by. After
    each pass, untimed, `between(share of the time gone)` is called."""
    import hdus.numeric as numeric
    import workloads
    mark = recorder.span if recorder is not None else (lambda name: nullcontext())
    records = []
    begin = time.perf_counter()
    k = 0
    while True:
        state = wl.prepare(seed)
        gc.collect()    # the previous pass's garbage is not this pass's cost
        n_audit = len(audit.deltas)
        s0 = numeric.training_step_count()
        scope = recorder.pass_scope() if recorder is not None else nullcontext()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with scope:
                raw = wl.run_pass(seed, run_dir / f"{label}{k}", mark, state)
        except Exception:
            ops.record(f"{label} {k}", False, traceback.format_exc()[-2000:])
            raw = None
        t1 = time.perf_counter()
        c1 = time.process_time()
        if raw is not None:
            ops.record(f"{label} {k}", True)
            seen = wl.inspect(raw)
            steps = numeric.training_step_count() - s0
            ops.record(f"{label} {k}: every accuracy finite",
                       workloads.finite(seen.accuracies))
            deltas = audit.deltas[n_audit:]
            if deltas:
                ops.record(f"{label} {k}: unlearning took zero training steps",
                           not any(deltas), f"steps {deltas}")
            if records:
                first = records[0]
                ops.record(f"{label} {k}: same outputs as {label} 0",
                           seen.digest == first.seen.digest
                           and steps == first.steps,
                           f"digest {seen.digest[:16]} vs {first.seen.digest[:16]}")
            records.append(PassRecord(
                run_s=t1 - t0, cpu_s=c1 - c0,
                hdus_s=raw.hdus_s if raw.hdus_s is not None else t1 - t0,
                baselines_s=raw.baselines_s, serve_s=raw.serve_s, steps=steps,
                seen=seen))
        k += 1
        if between is not None:
            between((time.perf_counter() - begin) / seconds)
        if t1 - begin >= seconds and k >= min_passes:
            return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _line(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return (f"  {name:<44} {med:>14.6g} {unit:<8} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def untraced(args, wl, ops, audit, run_dir) -> tuple[dict, dict]:
    probes = SetupProbes(args, ops)
    wl.setup(args.seed)
    with audit.installed():
        passes = timed_passes(wl, args.seed, args.seconds, ops, audit, run_dir,
                              min_passes=2, between=probes.catch_up)
    probes.catch_up(1.0)
    setups = probes.times
    if not passes or not setups:
        raise SystemExit("perfbench: every pass or every setup probe failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = getattr(wl, "final_checks", None)
    if final is not None:
        for what, ok, detail in final(args.seed):
            ops.record(what, ok, detail)

    samples = {
        "setup_s": setups,
        "run_s": [p.run_s for p in passes],
        "hdus_run_s": [p.hdus_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [peak_rss_mb],
        "final_accuracy": [passes[0].seen.final_accuracy],
    }
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    print(f"end-to-end metrics ({len(passes)} passes; median, quartiles):")
    for name, unit in END_TO_END.items():
        print(_line(name, unit, samples[name]))
    extra = {}
    if wl.name == "paper-compare":
        samples["baselines_run_s"] = [p.baselines_s for p in passes]
        extra["baselines_run_s"] = statistics.median(samples["baselines_run_s"])
        print(_line("baselines_run_s", "s", samples["baselines_run_s"]))
    serve_ms = [1e3 * s for p in passes for s in p.serve_s]
    if len(serve_ms) > 1:
        samples["unlearn_serve_ms"] = serve_ms
        p90 = statistics.quantiles(serve_ms, n=10)[8]
        extra["unlearn_serve_ms_p50"] = statistics.median(serve_ms)
        extra["unlearn_serve_ms_p90"] = p90
        print(f"  {'unlearn_serve_ms_p50':<44} {extra['unlearn_serve_ms_p50']:>14.6g} ms")
        print(f"  {'unlearn_serve_ms_p90':<44} {p90:>14.6g} ms       n={len(serve_ms)}, "
              f"{sum(1 for v in serve_ms if v > p90)} beyond p90")
    print(f"  digest of outputs (seed {args.seed}): {passes[0].seen.digest}")
    units = WORKLOAD_ONLY.get(wl.name, {})
    record = {"samples": samples, "digest": passes[0].seen.digest,
              "sgd_steps_per_pass": passes[0].steps,
              "workload_only": {n: {"value": v, "unit": units[n]}
                                for n, v in extra.items()}}
    return metrics, record


def traced(args, wl, ops, audit, run_dir) -> tuple[dict, dict]:
    import hdus.harness as harness
    import hdus.numeric as numeric
    import spans
    wl.setup(args.seed)
    # Half the time untraced and half traced: their ratio is the overhead.
    with audit.installed():
        plain = timed_passes(wl, args.seed, args.seconds / 2, ops, audit, run_dir,
                             label="untraced")
        recorder = spans.SpanRecorder()
        with spans.patched(recorder.wrap):
            traced_passes = timed_passes(wl, args.seed, args.seconds / 2, ops,
                                         audit, run_dir, recorder=recorder,
                                         label="traced")
        counters = spans.Counters()
        state = wl.prepare(args.seed)
        s0 = numeric.training_step_count()
        with spans.patched(counters.wrap):
            wl.run_pass(args.seed, run_dir / "counted", lambda name: nullcontext(),
                        state)
        counts = counters.finish()
        counts["numeric.sgd_steps"] = numeric.training_step_count() - s0
    if not plain or not traced_passes:
        raise SystemExit("perfbench: every pass failed")

    stats = [recorder.pass_stats(p) for p in range(len(traced_passes))]
    for p in range(1, len(stats)):
        same = {n: s[0] for n, s in stats[p].items()} == \
               {n: s[0] for n, s in stats[0].items()}
        ops.record(f"traced pass {p}: same call counts as traced pass 0", same)
    ops.record("counted pass: same SGD steps as the timed passes",
               counts["numeric.sgd_steps"] == plain[0].steps,
               f"{counts['numeric.sgd_steps']} vs {plain[0].steps}")
    unlearn_steps = counts.get("simulation.handle_unlearn_request.steps", 0)
    ops.record("counted pass: unlearning took zero training steps",
               unlearn_steps == 0, f"{unlearn_steps} steps")

    def span_value(fn: str, kind: str, st) -> float:
        calls, busy_ns, self_ns = st.get(fn, (0, 0, 0))
        return {"calls": calls, "busy_ms": busy_ns / 1e6, "self_ms": self_ns / 1e6,
                "us_per_call": busy_ns / calls / 1e3 if calls else 0.0,
                "ms_per_call": busy_ns / calls / 1e6 if calls else 0.0}[kind]

    metrics, samples = {}, {}
    for name in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind in _SPAN_KINDS:
            samples[name] = [span_value(fn, kind, st) for st in stats]
            # Call counts are equal in every pass (checked above).
            metrics[name] = samples[name][0] if kind == "calls" \
                else statistics.median(samples[name])
        elif name != "trace.overhead_ratio":
            metrics[name] = counts.get(name, 0)
    plain_s = statistics.median(p.run_s for p in plain)
    traced_s = statistics.median(p.run_s for p in traced_passes)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0

    print(f"per-layer metrics (median of {len(traced_passes)} traced passes; "
          f"counts from one counted pass):")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    print(f"  untraced run_s {plain_s:.4f} s over {len(plain)} passes, traced "
          f"run_s {traced_s:.4f} s over {len(traced_passes)} passes")
    roots = ["perfbench.pass"] + [f"perfbench.{fw}" for fw in harness.FRAMEWORKS]
    breakdown = {}
    for root in roots:
        shares = recorder.breakdown(0, root)
        if shares:
            breakdown[root] = shares
            print(f"  busy share inside {root} (traced pass 0): " + ", ".join(
                f"{n} {100 * s:.1f}%" for n, s in shares))
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
    recorder.save(spans_path)
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    record = {"samples": samples, "counts": counts, "breakdown": breakdown,
              "untraced_run_s": [p.run_s for p in plain],
              "traced_run_s": [p.run_s for p in traced_passes]}
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    load_hdus()
    import workloads
    from spans import StepAudit
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    if args.setup_probe:
        wl.setup(args.seed)
        print(f"READY {time.monotonic()!r}", flush=True)
        return 0

    env = environment(args.seed)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    run_dir = OUT / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = Ops()
    audit = StepAudit()
    measure = traced if args.trace else untraced
    metrics, record = measure(args, wl, ops, audit, run_dir)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"operations: {ops.failed} failed of {ops.attempted} attempted")
    for failure in ops.failures:
        print(f"  failed: {failure.splitlines()[0]}")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    saved = {"args": vars(args), "environment": env, **result,
             "failures": ops.failures, **record}
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(saved, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
