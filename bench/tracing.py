"""Spans around the public functions of each ``mfm`` module, from outside.

Nothing in the package is edited.  ``install`` replaces module attributes
with timing wrappers, and it patches the name each caller actually looks
up: ``kernels`` imported ``integrate_rows`` by name, ``driver`` calls
``diagnose_flow`` as a bare global, and ``tempered()`` reads the target
instance's oracle attributes at call time.  Spans are kept in memory; each
records its parent, so a layer's self time is its duration minus that of
its direct children.  Only the main thread is traced (the benchmark runs
with workers=1).
"""

import threading
import time
from pathlib import Path

import numpy as np

# bytes an Adam step reads and writes: params, gradient, m, v in; m, v,
# params out; all float64 (computed from array sizes, not measured)
_ADAM_ARRAYS_MOVED = 7


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent_index, info]
        self._stack = []
        self._main = threading.get_ident()

    def wrap(self, name, fn, info=None):
        """Return fn timed as a span; info(args, result) adds per-call data."""
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result
        return traced

    def patch(self, module, attr, name, info=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), info))


def _rows(args, _result):
    return {"rows": int(np.atleast_2d(args[0]).shape[0])}


def install(tracer):
    """Wrap every layer boundary the sampler crosses; returns nothing."""
    from mfm import cfm, cli, diagnostics, driver, flow, kernels, nets, tempering

    def integration(args, _result):
        # integrate_rows(params, target, xb, cfg, rng, forward): 4 field
        # evaluations per RK4 step, each over the whole batch
        return {"rows": int(np.atleast_2d(args[2]).shape[0]),
                "field_evals": 4 * args[3].n_steps}

    def flow_outcome(_args, out):
        return {"nonfinite": int(out.n_nonfinite)}

    def levels(_args, state):
        return {"levels": len(state.history)}

    def adam(args, _result):
        n = int(args[1].size)
        return {"params": n, "bytes": _ADAM_ARRAYS_MOVED * 8 * n}

    def report(args, rep):
        return {"rows": int(np.atleast_2d(args[1]).shape[0]), "ksd_v": float(rep.ksd_v)}

    tracer.patch(cli, "build_target", "cli.build_target")
    tracer.patch(driver, "run_mfm", "driver")
    tracer.patch(driver, "run_atsmc", "driver")
    tracer.patch(driver, "diagnose_flow", "driver.diagnose_flow")
    tracer.patch(tempering, "next_beta", "tempering.next_beta", levels)
    tracer.patch(kernels, "mala_step", "kernels.mala_step")
    for step in ("flow_rwmh_step", "flow_imh_step", "flow_cis_step"):
        tracer.patch(kernels, step, "kernels.flow_step", flow_outcome)
    # kernels and push_samples each hold their own reference
    tracer.patch(kernels, "integrate_rows", "flow.integrate_rows", integration)
    tracer.patch(flow, "integrate_rows", "flow.integrate_rows", integration)
    tracer.patch(flow, "push_samples", "flow.push_samples")
    tracer.patch(cfm, "train_step", "cfm.train_step")
    tracer.patch(cfm, "cfm_loss_and_grad", "cfm.loss_and_grad")
    tracer.patch(cfm, "flow_to_vector", "nets.pack")
    tracer.patch(cfm, "vector_to_flow", "nets.pack")
    tracer.patch(nets, "adam_step", "nets.adam_step", adam)
    tracer.patch(diagnostics, "compute_report", "diagnostics.compute_report", report)
    tracer.patch(flow, "save_flow", "cli.artifacts")
    for writer in ("write_samples_csv", "write_runlog_csv", "write_diagnostics_json"):
        tracer.patch(cli, writer, "cli.artifacts")


def trace_target(tracer, target):
    """Wrap the oracles of the TargetDensity instance the run uses."""
    target.log_density = tracer.wrap(
        "targets.log_density", target.log_density, _rows)
    target.grad_log_density = tracer.wrap(
        "targets.grad_log_density", target.grad_log_density, _rows)
    target.hvp_log_density = tracer.wrap(
        "targets.hvp_log_density", target.hvp_log_density, _rows)


def _self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by_layer(tracer, first=0):
    """Self seconds per layer (the module part of a span name), spans[first:]."""
    totals = {}
    for span, own in list(zip(tracer.spans, _self_times(tracer.spans)))[first:]:
        layer = span[0].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def layer_metrics(tracer, out_dir, log_rows):
    """Per-layer counts and times from the recorded spans."""
    spans = tracer.spans
    own = _self_times(spans)

    def of(name):
        return [(s[2] - s[1], own[i], s[4] or {})
                for i, s in enumerate(spans) if s[0] == name]

    def calls(name):
        return len(of(name))

    def busy(name):
        return sum(d for d, _, _ in of(name))

    def self_s(name):
        return sum(s for _, s, _ in of(name))

    def total(name, key):
        return sum(info.get(key, 0) for _, _, info in of(name))

    def pct_ms(name, q):
        durations = [d for d, _, _ in of(name)]
        return 1e3 * float(np.percentile(durations, q)) if durations else 0.0

    def last(name, key):
        infos = [info for _, _, info in of(name)]
        return infos[-1][key] if infos else 0

    oracles = ("targets.log_density", "targets.grad_log_density",
               "targets.hvp_log_density")
    final = log_rows[-1] if log_rows else {}
    return {
        "targets.log_density.calls": calls(oracles[0]),
        "targets.grad_log_density.calls": calls(oracles[1]),
        "targets.hvp_log_density.calls": calls(oracles[2]),
        "targets.rows": sum(total(o, "rows") for o in oracles),
        "targets.busy_s": sum(busy(o) for o in oracles),
        "tempering.next_beta.calls": calls("tempering.next_beta"),
        "tempering.levels": last("tempering.next_beta", "levels"),
        "tempering.busy_s": busy("tempering.next_beta"),
        "kernels.mala_step.calls": calls("kernels.mala_step"),
        "kernels.mala_step.self_s": self_s("kernels.mala_step"),
        "kernels.mala_step.p50_ms": pct_ms("kernels.mala_step", 50),
        "kernels.flow_step.calls": calls("kernels.flow_step"),
        "kernels.flow_step.self_s": self_s("kernels.flow_step"),
        "kernels.acceptance_local": float(final.get("acceptance_local", 0.0)),
        "kernels.acceptance_flow": float(final.get("acceptance_flow", 0.0)),
        "kernels.flow_nonfinite": total("kernels.flow_step", "nonfinite"),
        "flow.integrate_rows.calls": calls("flow.integrate_rows"),
        "flow.integrate_rows.rows": total("flow.integrate_rows", "rows"),
        "flow.integrate_rows.busy_s": busy("flow.integrate_rows"),
        "flow.field_evals": total("flow.integrate_rows", "field_evals"),
        "flow.push_samples.busy_s": busy("flow.push_samples"),
        "cfm.train_step.calls": calls("cfm.train_step"),
        "cfm.train_step.p50_ms": pct_ms("cfm.train_step", 50),
        "cfm.train_step.p90_ms": pct_ms("cfm.train_step", 90),
        "cfm.train_step.self_s": self_s("cfm.train_step"),
        "cfm.loss_and_grad.busy_s": busy("cfm.loss_and_grad"),
        "nets.param_count": last("nets.adam_step", "params"),
        "nets.adam_step.calls": calls("nets.adam_step"),
        "nets.adam_step.busy_s": busy("nets.adam_step"),
        "nets.adam_step.p50_ms": pct_ms("nets.adam_step", 50),
        "nets.adam_step.bytes": last("nets.adam_step", "bytes"),
        "nets.pack.calls": calls("nets.pack"),
        "nets.pack.busy_s": busy("nets.pack"),
        "diagnostics.compute_report.calls": calls("diagnostics.compute_report"),
        "diagnostics.compute_report.busy_s": busy("diagnostics.compute_report"),
        "diagnostics.samples": total("diagnostics.compute_report", "rows"),
        "diagnostics.ksd_v": float(last("diagnostics.compute_report", "ksd_v")),
        "driver.diagnose_flow.calls": calls("driver.diagnose_flow"),
        "driver.diagnose_flow.busy_s": busy("driver.diagnose_flow"),
        "driver.self_s": self_s("driver"),
        "cli.build_target.calls": calls("cli.build_target"),
        "cli.build_target.busy_s": busy("cli.build_target"),
        "cli.artifacts.calls": calls("cli.artifacts"),
        "cli.artifacts.busy_s": busy("cli.artifacts"),
        "cli.artifacts.bytes": sum(p.stat().st_size for p in Path(out_dir).iterdir()),
    }
