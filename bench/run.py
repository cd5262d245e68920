"""Benchmark of the mfm sampler: end-to-end times and traced layer metrics.

    python3 bench/run.py --workload gmm4-mfm --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40   # both, every workload

Each repeat of a workload runs in a fresh interpreter (bench/worker.py),
one at a time, with workers=1 and the default BLAS threads.  Repeats run
back to back until another one would overrun ``--seconds`` (at least
three untraced repeats, or one untraced/traced pair).  With ``--trace 0``
the end-to-end metrics are the medians over the repeats; with
``--trace 1`` untraced and traced repeats alternate, the layer metrics are
the medians over the traced ones, and ``trace.overhead_s`` is the traced
minus the untraced median run time.

Every repeat is checked: it must exit cleanly, pass the workload's
correctness checks (bench/worker.py) and produce artifacts bit-identical
to the first untraced repeat of the same seed.  A repeat that fails counts
in ``failed``; the command then exits 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("gmm4-mfm", "lgcp-train", "lgcp-atsmc")
# layer (module) expected to take the most self time on each workload
PREDICTED_DOMINANT = {
    "gmm4-mfm": ("flow",),
    "lgcp-train": ("cfm", "nets"),
    "lgcp-atsmc": ("targets", "kernels"),
}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
MIN_UNTRACED_REPEATS = 3
HARD_LIMIT_S = 150.0     # start no repeat that is expected to end past this
DEADLINE_S = 175.0       # a repeat still running then is killed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.startswith("kernels.acceptance") or name == "diagnostics.ksd_v":
        return "1"
    return "count"


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_repeat(workload, seed, traced, tiny, timeout):
    """One worker interpreter; returns (result dict or None, error text)."""
    # the out path is part of the resolved config and so of its hash, which
    # the artifacts carry: keep it the same for every repeat and checkout
    out = Path(OUT.name) / f"{workload}-{seed}"
    shutil.rmtree(ROOT / out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.0f} s"
    finally:
        shutil.rmtree(ROOT / out, ignore_errors=True)
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def measure(workload, seed, seconds, trace, tiny=False):
    """Run repeats for about `seconds`; returns the summary of one workload."""
    plan = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_UNTRACED_REPEATS
    start = time.monotonic()
    repeats = []          # (traced, result, error)
    rounds = 0
    crashed = False
    while not crashed:
        for traced in plan:
            result, error = run_repeat(workload, seed, traced, tiny,
                                       DEADLINE_S - (time.monotonic() - start))
            repeats.append((traced, result, error))
            crashed = crashed or result is None
        rounds += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / rounds
        if next_end > HARD_LIMIT_S or (rounds >= min_rounds and next_end > seconds):
            break
    if OUT.is_dir() and not any(OUT.iterdir()):
        OUT.rmdir()

    reference = next((r["digest"] for t, r, _ in repeats if r and not t), None)
    failures = []
    for i, (traced, result, error) in enumerate(repeats):
        if result is None:
            failures.append(f"repeat {i}: {error}")
        elif result["failed_checks"]:
            failures.append(f"repeat {i}: failed {', '.join(result['failed_checks'])}")
        elif result["digest"] != reference:
            failures.append(f"repeat {i}{' (traced)' * traced}: artifacts differ "
                            "from the first untraced repeat of this seed")
    ok = [(t, r) for t, r, _ in repeats if r and not r["failed_checks"]]
    untraced = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    return {"workload": workload, "repeats": repeats, "failures": failures,
            "untraced": untraced, "traced": traced}


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(summary):
    return {name: {"value": median_of(summary["untraced"], name), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(summary):
    traced = summary["traced"]
    names = list(traced[0]["layers"])
    metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                      "unit": layer_unit(name)} for name in names}
    metrics["trace.overhead_s"] = {
        "value": median_of(traced, "run_s") - median_of(summary["untraced"], "run_s"),
        "unit": "s"}
    return metrics


def report(summary, trace):
    """Print the human-readable lines; returns (end-to-end, per-layer)."""
    w = summary["workload"]
    n_att = len(summary["repeats"])
    n_fail = len(summary["failures"])
    for failure in summary["failures"]:
        print(f"{w}: FAILED {failure}")
    first = summary["untraced"][0] if summary["untraced"] else None
    if first is not None:
        inputs = dict(first["inputs"], nproc=os.cpu_count(), commit=git_commit(),
                      **{k: os.environ.get(k, "unset") for k in BLAS_ENV})
        print(f"{w}: inputs {json.dumps(inputs, sort_keys=True)}")
    print(f"{w}: failed_frac {n_fail / n_att:.3f} ({n_fail} of {n_att} repeats)")
    if not summary["untraced"] or (trace and not summary["traced"]):
        return {}, {}
    n = len(summary["untraced"])
    metrics = end_to_end(summary)
    for name, m in metrics.items():
        values = sorted(r[name] for r in summary["untraced"])
        print(f"{w}: {name} median {m['value']:.4f} {m['unit']} "
              f"(n={n}, min {values[0]:.4f}, max {values[-1]:.4f})")
    if first["mmd2"] is not None:
        print(f"{w}: mmd2 {first['mmd2']:.6f} (gate, not tracked)")
    if not trace:
        return metrics, {}

    layers = per_layer(summary)
    for name, m in layers.items():
        print(f"{w}: {name} {m['value']:.6g} {m['unit']} (n={len(summary['traced'])})")
    self_s = {layer: statistics.median(r["layer_self_s"].get(layer, 0.0)
                                       for r in summary["traced"])
              for layer in summary["traced"][0]["layer_self_s"]}
    dominant = max(self_s, key=self_s.get)
    verdict = "as predicted" if dominant in PREDICTED_DOMINANT[w] else \
        f"MISMATCH, predicted {'/'.join(PREDICTED_DOMINANT[w])}"
    shares = ", ".join(f"{k} {v:.3f}" for k, v in
                       sorted(self_s.items(), key=lambda kv: -kv[1]))
    print(f"{w}: self time by layer (s): {shares}")
    print(f"{w}: dominant layer {dominant} ({verdict})")
    print(f"{w}: tracing overhead {layers['trace.overhead_s']['value']:+.4f} s "
          "(traced minus untraced median run_s)")
    return metrics, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long shapes for the benchmark's own tests")
    args = parser.parse_args(argv)

    # "all": every workload in one traced run, whose untraced repeats give
    # the end-to-end metrics
    everything = args.workload == "all"
    trace = 1 if everything else args.trace
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS if everything else (args.workload,):
        summary = measure(workload, args.seed, args.seconds, trace, args.tiny)
        e2e, layers = report(summary, trace)
        attempted += len(summary["repeats"])
        failed += len(summary["failures"])
        if everything:
            metrics.update({f"{workload}/{k}": v for k, v in {**e2e, **layers}.items()})
        else:
            metrics.update(layers if trace else e2e)
    if not metrics:
        print("no repeat produced a measurement", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
