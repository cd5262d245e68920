"""The benchmark's tracer still finds every layer boundary it patches.

``bench/tracing.py`` wraps the package's functions by module attribute
name and the run's target by its oracle names, and ``bench/check_bench.py``
requires each layer to record calls on the workloads that exercise it.  A
change under ``src/`` that renames or bypasses one of those patch points
would otherwise show only in the benchmark's own tests.  These tests run
the tracer in process, on the benchmark's tiny workload shapes, and put
every patched module attribute back afterwards.
"""

import importlib
import json
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

import mfm
from mfm import driver, targets

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
MODULES = [mfm] + [importlib.import_module(f"mfm.{info.name}")
                   for info in pkgutil.iter_modules(mfm.__path__)]


def snapshot():
    """Every attribute of every mfm module, by module."""
    return {m: dict(vars(m)) for m in MODULES}


def restore(snap):
    for module, attrs in snap.items():
        for name in set(vars(module)) - set(attrs):
            delattr(module, name)
        for name, value in attrs.items():
            if vars(module).get(name) is not value:
                setattr(module, name, value)


def changed(snap):
    return {(m.__name__, name) for m, attrs in snap.items()
            for name, value in attrs.items() if vars(m).get(name) is not value}


@pytest.fixture
def bench(monkeypatch):
    """bench/'s tracing, worker and check_bench modules; the mfm modules
    are restored from a snapshot afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import check_bench
    import tracing
    import worker
    snap = snapshot()
    try:
        yield tracing, worker, check_bench
    finally:
        restore(snap)


def test_install_and_trace_target_patch_and_restore(bench):
    tracing = bench[0]
    snap = snapshot()
    target = targets.make_gmm4()
    x = np.linspace(-9.0, 9.0, 6).reshape(3, 2)
    value, grad = target.value_and_grad(x)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracing.trace_target(tracer, target)
        patched = changed(snap)
        assert {module for module, _ in patched} == {
            f"mfm.{m}" for m in ("cfm", "cli", "diagnostics", "driver", "flow",
                                 "kernels", "nets", "tempering")}
        # the wrappers shadow the oracle methods on the instance; each call
        # is one span, and a tempered density's score reaches the target
        # through its fused call
        fused = target.log_density(x, with_grad=True)
        assert np.array_equal(fused[0], value) and np.array_equal(fused[1], grad)
        assert np.array_equal(target.log_density(x), value)
        assert np.array_equal(target.grad_log_density(x), grad)
        target.hvp_log_density(x, np.ones(2))
        targets.tempered(target, 0.5).grad_log_density(x)
        assert [span[0] for span in tracer.spans] == [
            "targets.log_density", "targets.log_density",
            "targets.grad_log_density", "targets.hvp_log_density",
            "targets.log_density"]
    finally:
        restore(snap)
    assert not changed(snap)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reaches_every_gated_layer(bench, workload, tmp_path, capsys):
    _, worker, check_bench = bench
    status = worker.main(["--workload", workload, "--seed", "3",
                          "--out", str(tmp_path / workload),
                          "--spawned", str(time.monotonic()), "--trace", "--tiny"])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed_checks"] == []
    gates = {layer: metric for layer, (metric, workloads)
             in check_bench.LAYER_CALLS.items() if workload in workloads}
    assert gates
    for layer, metric in gates.items():
        assert result["layers"][metric] > 0, (layer, metric)


@pytest.mark.parametrize("kernel", driver.NONLOCAL_KERNELS)
def test_every_flow_kernel_crosses_the_traced_layers(bench, kernel):
    # the workloads run only RWMH flow steps, so a tiny traced run_mfm checks
    # that IMH and CIS also pass through the patched kernel and integrator:
    # each flow step is one span with two integrations (the pull-back and
    # the push-forward) and one fused target call directly under it
    tracing = bench[0]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    target = targets.make_gmm4()
    tracing.trace_target(tracer, target)
    cfg = driver.ExperimentConfig(seed=3, iters=4, kq=2, particles=8, hidden=8,
                                  ode_steps=2, nonlocal_kernel=kernel)
    driver.run_mfm(target, cfg)
    steps = [i for i, span in enumerate(tracer.spans)
             if span[0] == "kernels.flow_step"]
    assert len(steps) == 2
    for i in steps:
        children = sorted(span[0] for span in tracer.spans if span[3] == i)
        assert children == ["flow.integrate_rows", "flow.integrate_rows",
                            "targets.log_density"], children
