"""Smoke tests of the benchmark, at a tiny size.

    python3 -m pytest perfbench

They are not part of the package's own suite (`testpaths = ["tests"]`).
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_hdus()

import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_the_catalogue():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["simulation.handle_unlearn_request.steps"]["value"] == 0


def test_control_missing_a_repository_entry_counts_as_failed(monkeypatch):
    build = workloads.Churn10.build_control

    def broken(self, seed, never_joined, rounds):
        clients, sim, test = build(self, seed, never_joined, rounds)
        survivor = next(c for c in clients
                        if c.id not in never_joined and len(c.repo))
        del survivor.repo.entries[-1]
        return clients, sim, test

    monkeypatch.setattr(workloads.Churn10, "build_control", broken)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "churn-10", "--seed", "3",
                         "--seconds", "0.3", "--tiny"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    quits = len(workloads.Churn10(tiny=True).quit_order(3))
    assert result["failed"] == quits and not result["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "churn-10", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
