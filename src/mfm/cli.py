"""Command-line entry point: config parsing, target construction, artifacts.

Configs are flat ``key = value`` files (JSON-typed values, ``#`` comments)
overridable by flags; presets bundle the per-experiment hyperparameters.
The run configuration itself is ``driver.ExperimentConfig``, which
validates every field when it is built, and the target is built before
the output directory, so a bad value or counts file is refused before
anything is written.  What each mode writes into the output directory:

- mfm and fm-oracle: the resolved config (config.resolved), the final
  particle ensemble (samples.csv), the per-iteration run log
  (runlog.csv), the diagnostics summary (diagnostics.json) and the
  trained flow (flow.ckpt).  diagnostics.json is written last, after the
  run is scored, so a failing report leaves the other artifacts;
- atsmc: the same without flow.ckpt, since it trains no flow;
- diagnose: reads flow.ckpt and runlog.csv of an earlier run and
  rewrites diagnostics.json only; config.resolved is left as it is.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import driver, flow, targets
from .driver import ExperimentConfig
from .errors import ConfigError

PRESETS = {
    "gmm4": dict(target="gmm4", particles=128, hidden=128, mala_tau=0.2,
                 iters=5000, kq=100),
    "gmm16": dict(target="gmm16", particles=128, hidden=128, mala_tau=0.2,
                  iters=5000, kq=100, init_mean=[-14.0, -14.0]),
    "manywell": dict(target="manywell", particles=128, hidden=128, mala_tau=0.1,
                     iters=5000, kq=100),
    "field": dict(target="field", particles=1024, hidden=256, mala_tau=1e-4,
                  iters=10000, kq=1000),
    "lgcp": dict(target="lgcp", particles=128, hidden=1024, mala_tau=0.01,
                 iters=10000, kq=1000),
}

# The thread variables of the BLAS builds numpy may load, as diagnostics.json
# records them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_BUNDLED_COUNTS = Path(__file__).parent / "data" / "lgcp_counts_40.csv"

_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}


def config_lines(cfg: ExperimentConfig) -> str:
    """Canonical flat serialization; its hash stamps every artifact."""
    rows = []
    for name in sorted(_FIELD_TYPES):
        rows.append(f"{name} = {json.dumps(getattr(cfg, name))}")
    return "\n".join(rows) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_lines(cfg).encode()).hexdigest()[:16]


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.strip()


def read_config_file(path) -> dict:
    """Flat key = value lines; unknown keys are rejected downstream, a key
    set twice here."""
    values, first_line = {}, {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}", "expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ConfigError(key, f"set twice in {path}, on lines "
                                   f"{first_line[key]} and {lineno}")
        first_line[key] = lineno
        values[key] = _parse_value(raw)
    return values


def parse_config(path=None, overrides: dict = None) -> ExperimentConfig:
    """Merge preset defaults, config file and flag overrides; building the
    ExperimentConfig validates the result."""
    file_values = read_config_file(path) if path else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    merged = dict(file_values)
    merged.update(overrides)

    preset = merged.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {preset!r}; "
                              f"choose from {sorted(PRESETS)}")
        base = dict(PRESETS[preset])
        if merged.get("mode", "mfm") != "mfm":   # gmm16's start is for mfm chains
            base.pop("init_mean", None)
        base.update(merged)
        merged = base

    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config field")
    return ExperimentConfig(**merged)


def build_target(cfg: ExperimentConfig) -> targets.TargetDensity:
    if cfg.target == "gmm4":
        return targets.make_gmm4()
    if cfg.target == "gmm16":
        return targets.make_gmm16()
    if cfg.target == "manywell":
        return targets.make_many_well()
    if cfg.target == "field":
        return targets.make_field_system()
    counts = None   # make_lgcp draws the seed-0 synthetic grid
    if cfg.counts_csv:
        counts = targets.load_counts_csv(cfg.counts_csv, cfg.m_side)
    elif cfg.m_side == 40 and _BUNDLED_COUNTS.exists():
        counts = targets.load_counts_csv(_BUNDLED_COUNTS, 40)
    return targets.make_lgcp(cfg.m_side, counts)


# -- Artifact I/O --------------------------------------------------------------

def _stamp(cfg: ExperimentConfig) -> str:
    return f"# config_hash={config_hash(cfg)} seed={cfg.seed}"


def write_samples_csv(path, cfg: ExperimentConfig, positions: np.ndarray) -> None:
    """One row per particle, every value as %.17g, csv-module line endings.

    No formatted value contains a delimiter or a quote, so one format
    string per row gives exactly the bytes csv.writer would.  Rows are
    converted to Python floats one at a time.
    """
    d = positions.shape[1]
    row_format = ",".join(["%.17g"] * d) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(_stamp(cfg) + "\n")
        fh.write(",".join(f"x_{i + 1}" for i in range(d)) + "\r\n")
        for row in positions:
            fh.write(row_format % tuple(row.tolist()))


def load_samples_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


RUNLOG_COLUMNS = ["iteration", "beta", "loss", "acceptance_local",
                  "acceptance_flow", "nonfinite_local", "nonfinite_flow"]
# integer columns; the non-finite counts are cumulative proposals rejected
# because they (or their flow integration) left the representable range
_RUNLOG_COUNTS = {"iteration", "nonfinite_local", "nonfinite_flow"}


def write_runlog_csv(path, cfg: ExperimentConfig, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_stamp(cfg) + "\n")
        writer = csv.DictWriter(fh, fieldnames=RUNLOG_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] if c in _RUNLOG_COUNTS else f"{row[c]:.17g}"
                             for c in RUNLOG_COLUMNS})


def load_runlog_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return [{k: (int(v) if k in _RUNLOG_COUNTS else float(v))
             for k, v in row.items()} for row in reader]


def _beta_trace_len(rows) -> int:
    return len({row["beta"] for row in rows})


def write_diagnostics_json(path, report, rows, wall_seconds: float) -> dict:
    """Strict JSON: a non-finite metric is written as null and named in
    nonfinite_metrics (mmd2 is also null when there are no exact draws).
    diag_rejected counts the scored rows the KSDs left out.

    wall_seconds is the time of the run (mfm, atsmc, fm-oracle), without
    its report, or of the re-scoring (diagnose).  thread_env holds the BLAS
    thread variables (THREAD_ENV) of the process's environment, null where
    unset; the report's worker count is the config's (config.resolved).  It
    is not written here, because the report is the same for any worker
    count and so is this file."""
    metrics = {
        "mmd2": report.mmd2_unbiased,
        "ksd_u": report.ksd_u,
        "ksd_v": report.ksd_v,
        "mean_logpi": report.mean_logpi,
        "wall_seconds": wall_seconds,
        "acceptance_local": rows[-1]["acceptance_local"] if rows else 0.0,
        "acceptance_flow": rows[-1]["acceptance_flow"] if rows else 0.0,
    }
    nonfinite = sorted(k for k, v in metrics.items()
                       if v is not None and not np.isfinite(v))
    payload = {k: None if k in nonfinite else v for k, v in metrics.items()}
    payload["beta_trace_len"] = _beta_trace_len(rows)
    payload["diag_rejected"] = report.diag_rejected
    payload["nonfinite_metrics"] = nonfinite
    payload["thread_env"] = {k: os.environ.get(k) for k in THREAD_ENV}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     allow_nan=False) + "\n")
    return payload


# -- Run dispatch ---------------------------------------------------------------

def run(cfg: ExperimentConfig) -> int:
    """Execute one configured run and write its artifacts; returns exit status."""
    out = Path(cfg.out)
    if cfg.mode == "diagnose":
        return _run_diagnose(cfg, out)
    target = build_target(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(config_lines(cfg))
    runner = {"mfm": driver.run_mfm, "atsmc": driver.run_atsmc,
              "fm-oracle": driver.run_fm_oracle}[cfg.mode]
    t0 = time.perf_counter()
    artifacts = runner(target, cfg)
    wall_seconds = time.perf_counter() - t0
    # the samples are stored before they are scored: a report that raises
    # still leaves the run behind
    if artifacts.flow_params is not None:
        flow.save_flow(out / "flow.ckpt", artifacts.flow_params)
    write_samples_csv(out / "samples.csv", cfg, artifacts.ensemble.positions)
    write_runlog_csv(out / "runlog.csv", cfg, artifacts.log_rows)
    report = driver.run_report(target, cfg, artifacts)
    write_diagnostics_json(out / "diagnostics.json", report, artifacts.log_rows,
                           wall_seconds)
    return 0


def _run_diagnose(cfg: ExperimentConfig, out: Path) -> int:
    """Re-score a stored flow; rewrites diagnostics.json and nothing else."""
    ckpt, runlog = out / "flow.ckpt", out / "runlog.csv"
    for what, path in (("flow checkpoint", ckpt), ("run log", runlog)):
        if not path.exists():
            raise ConfigError("out", f"no {what} at {path}")
    rows = load_runlog_csv(runlog)
    if not rows:   # the push needs the run's last beta
        raise ConfigError("out", f"no rows in the run log at {runlog}")
    target = build_target(cfg)
    flow_params = flow.load_flow(ckpt)
    t0 = time.perf_counter()
    report = driver.diagnose_flow(flow_params, target, cfg, rows[-1]["beta"])
    write_diagnostics_json(out / "diagnostics.json", report, rows,
                           time.perf_counter() - t0)
    return 0


HELP_EPILOG = (
    "Threads: the closing report's MMD and KSD Gram blocks fan out over "
    "--workers threads; the push of the diagnostics draws through the flow "
    "runs serially.  OPENBLAS_NUM_THREADS=1 with --workers 2 speeds the "
    "report up, because its blocks then do not compete with BLAS threads "
    "for the cores.  numpy reads OPENBLAS_NUM_THREADS when it is imported, "
    "so set it in the environment that starts mfm; the library never sets "
    "it.  Results are identical for any worker count.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfm",
        description="Sample unnormalized targets with flow-assisted adaptive MCMC.",
        epilog=HELP_EPILOG)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--mode", choices=driver.MODES)
    parser.add_argument("--kq", type=int)
    parser.add_argument("--iters", type=int)
    parser.add_argument("--particles", type=int)
    args = parser.parse_args(argv)

    overrides = {k: getattr(args, k) for k in
                 ("preset", "seed", "out", "workers", "mode", "kq", "iters",
                  "particles")}
    try:
        cfg = parse_config(args.config, overrides)
        return run(cfg)
    except Exception as exc:  # structured error report, nonzero exit
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
