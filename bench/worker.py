"""One repeat of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload gmm4-mfm --seed 1 --out DIR \
        --spawned T [--trace] [--tiny] [--workers N]

Builds the configured run through the public entry points
(``cli.parse_config``, ``cli.build_target``, ``cli.run``), times set-up
and run separately, checks the artifacts the run wrote, and prints one
JSON object as its last line.  ``--spawned`` is the parent's
``time.monotonic()`` just before it started this interpreter (one
system-wide clock on Linux), so set-up time includes interpreter start.
The package is imported from the ``src`` directory of the checkout this
file sits in, and nowhere else.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each workload loads a different layer; see README.md for the measured
# split behind these sizes.  Keys are ExperimentConfig fields.
WORKLOADS = {
    # flow integration (RWMH flow steps and the closing 2048-row push)
    # dominates; the only target with exact draws, so MMD^2 is checked
    "gmm4-mfm": dict(preset="gmm4", mode="mfm", iters=100, kq=25),
    # cfm.train_step on the 8.1M-parameter flow; iters < kq, so no flow
    # step fires, and the closing push is kept small
    "lgcp-train": dict(preset="lgcp", mode="mfm", iters=8, diag_samples=16,
                       ode_steps=4),
    # tempered MALA only: target oracles, kernels and tempering.  One MALA
    # pass per level on a fine ladder (ESS target 0.95, 53-61 levels over
    # seeds 1-10) keeps the seed-to-seed spread of the work near 6%; the
    # preset's 0.5 with k_q=5 gives 15-19 levels, a 13% spread.
    "lgcp-atsmc": dict(preset="lgcp", mode="atsmc", kq=1, alpha=0.95),
}

# Shapes for the benchmark's own tests: same modes and code paths, seconds
# to run.  gmm4's 600 diagnostics rows span several push and MMD chunks,
# so a workers=2 run really fans out.
TINY = {
    "gmm4-mfm": dict(iters=20, kq=5, particles=32, hidden=16, diag_samples=600),
    "lgcp-train": dict(iters=3, m_side=8, hidden=32, particles=16, diag_samples=8),
    "lgcp-atsmc": dict(kq=2, m_side=8, particles=32),
}

# Quality gates of the full-size runs, with margin over the values seen
# across seeds (see README.md).
GMM4_MMD2_MAX = 0.05
GMM4_MIN_PER_MODE = 8


def digest(out_dir):
    """sha256 over the deterministic artifacts of one run.

    The CSV stamp lines carry the config hash, which covers the output
    path and the worker count, so they are left out.
    """
    h = hashlib.sha256()
    for name in ("samples.csv", "runlog.csv", "flow.ckpt"):
        path = out_dir / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name.endswith(".csv"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"#"))
        h.update(name.encode())
        h.update(data)
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    diag.pop("wall_seconds")
    h.update(json.dumps(diag, sort_keys=True).encode())
    return h.hexdigest()


def check(workload, tiny, positions, rows, diag):
    """Names of the correctness checks this run failed."""
    import numpy as np

    failed = []
    if not np.all(np.isfinite(positions)):
        failed.append("samples_finite")
    rates = [row[k] for row in rows for k in ("acceptance_local", "acceptance_flow")]
    if not all(0.0 <= r <= 1.0 for r in rates):
        failed.append("acceptance_in_unit_interval")
    if workload == "gmm4-mfm" and not tiny:
        if not diag["mmd2"] < GMM4_MMD2_MAX:
            failed.append("gmm4_mmd2_under_tolerance")
        # modes sit at (+-8, +-8): one mode per quadrant
        quadrant = 2 * (positions[:, 0] > 0) + (positions[:, 1] > 0)
        if np.bincount(quadrant, minlength=4).min() < GMM4_MIN_PER_MODE:
            failed.append("gmm4_all_modes_occupied")
    if workload == "lgcp-atsmc":
        betas = [row["beta"] for row in rows]
        if betas[-1] != 1.0:
            failed.append("ladder_reaches_one")
        if any(b1 < b0 for b0, b1 in zip(betas, betas[1:])):
            failed.append("ladder_monotone")
    return failed


def counts_source(cli, cfg):
    """Which LGCP counts build_target used (mirrors its lookup order)."""
    if cfg.target != "lgcp":
        return "none"
    if cfg.counts_csv:
        return f"file:{cfg.counts_csv}"
    if cfg.m_side == 40 and cli._BUNDLED_COUNTS.exists():
        return "bundled:lgcp_counts_40.csv"
    return "synthetic_lgcp_counts(seed=0)"


def blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mfm" / "__init__.py").is_file():
        print(f"no mfm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import mfm
    from mfm import cli

    if Path(mfm.__file__).resolve().parent != (src / "mfm").resolve():
        print(f"imported mfm from {mfm.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = Path(args.out)
    overrides = dict(WORKLOADS[args.workload], seed=args.seed, out=str(out_dir),
                     workers=args.workers)
    if args.tiny:
        overrides.update(TINY[args.workload])
    cfg = cli.parse_config(None, overrides)
    target = cli.build_target(cfg)
    setup_s = time.monotonic() - args.spawned

    if tracer is not None:
        tracing.trace_target(tracer, target)
    cli.build_target = lambda _cfg: target   # cli.run reuses the set-up target
    first_run_span = len(tracer.spans) if tracer is not None else 0
    t0 = time.perf_counter()
    status = cli.run(cfg)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if status != 0:
        raise RuntimeError(f"cli.run returned {status}")

    positions = cli.load_samples_csv(out_dir / "samples.csv")
    rows = cli.load_runlog_csv(out_dir / "runlog.csv")
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(out_dir),
        "failed_checks": check(args.workload, args.tiny, positions, rows, diag),
        "mmd2": diag["mmd2"],
        "inputs": {
            "workers": cfg.workers,
            "config_hash": cli.config_hash(cfg),
            "numpy": np.__version__,
            "blas": blas_name(np),
            "lgcp_counts": counts_source(cli, cfg),
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, out_dir, rows)
        # the run's layers only: build_target belongs to set-up
        result["layer_self_s"] = tracing.self_time_by_layer(tracer, first_run_span)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
