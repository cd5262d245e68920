"""Tests of the benchmark itself, at seconds-long shapes.

    python3 -m pytest -q bench/check_bench.py

Kept out of the package's test suite on purpose (the file name does not
match pytest's default pattern), so tier-1 does not pay for subprocess
runs of the sampler.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per layer: a call count, and the workloads on which the layer does work
# (README.md), where the count must not be zero
LAYER_CALLS = {
    "targets": ("targets.grad_log_density.calls", WORKLOADS),
    "tempering": ("tempering.next_beta.calls", ["lgcp-atsmc"]),
    "kernels": ("kernels.mala_step.calls", ["lgcp-atsmc"]),
    "kernels.flow": ("kernels.flow_step.calls", ["gmm4-mfm"]),
    "targets.hvp": ("targets.hvp_log_density.calls", ["gmm4-mfm"]),
    "flow": ("flow.integrate_rows.calls", ["gmm4-mfm"]),
    "cfm": ("cfm.train_step.calls", ["lgcp-train", "gmm4-mfm"]),
    "nets": ("nets.adam_step.calls", ["lgcp-train"]),
    "nets.pack": ("nets.pack.calls", ["lgcp-train"]),
    "diagnostics": ("diagnostics.compute_report.calls", WORKLOADS),
    "driver": ("driver.diagnose_flow.calls", ["gmm4-mfm", "lgcp-train"]),
    "cli": ("cli.artifacts.calls", WORKLOADS),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in WORKLOADS:
        proc = bench("--workload", w, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[w] = last_json(proc)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("layer", sorted(LAYER_CALLS))
def test_traced_run_counts_calls_into_every_layer(traced, layer):
    metric, workloads = LAYER_CALLS[layer]
    for w in workloads:
        assert traced[w]["metrics"][metric]["value"] > 0, (w, metric)


def test_gmm4_outputs_identical_for_one_and_two_workers():
    digests = []
    for workers in (1, 2):
        out = Path(".bench_out") / f"workers-{workers}"
        try:
            proc = subprocess.run(
                [sys.executable, "bench/worker.py", "--workload", "gmm4-mfm",
                 "--seed", "5", "--out", str(out), "--spawned", "0",
                 "--workers", str(workers), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(ROOT / out, ignore_errors=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["inputs"]["workers"] == workers
        digests.append(result["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_package():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
