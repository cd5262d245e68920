import csv
import hashlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mfm import cfm, cli, diagnostics, driver, flow, kernels, nets, targets, tempering
from mfm.errors import ConfigError, DimensionMismatch

from conftest import gaussian_with_overflow


def smoke_overrides(out, **kw):
    base = dict(preset="gmm4", seed=11, out=str(out), mode="mfm",
                iters=4, particles=6, kq=2, diag_samples=16)
    base.update(kw)
    return base


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_preset_defaults():
    cfg = cli.parse_config(overrides=dict(preset="gmm4", seed=1))
    assert cfg.particles == 128 and cfg.hidden == 128 and cfg.mala_tau == 0.2
    cfg = cli.parse_config(overrides=dict(preset="field", seed=1))
    assert cfg.particles == 1024 and cfg.hidden == 256 and cfg.mala_tau == 1e-4
    cfg = cli.parse_config(overrides=dict(preset="lgcp", seed=1))
    assert cfg.hidden == 1024 and cfg.mala_tau == 0.01
    cfg = cli.parse_config(overrides=dict(preset="manywell", seed=1))
    assert cfg.mala_tau == 0.1


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        cli.parse_config(overrides=dict(preset="gmm4"))


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\nbogus_field = 3\n")
    with pytest.raises(ConfigError, match="bogus_field"):
        cli.parse_config(path)


def test_config_file_roundtrip(tmp_path):
    cfg = cli.parse_config(overrides=smoke_overrides(tmp_path / "o"))
    path = tmp_path / "c.cfg"
    path.write_text(cli.config_lines(cfg))
    again = cli.parse_config(path)
    assert again == cfg


def test_flag_overrides_beat_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("preset = \"gmm4\"\nseed = 5\niters = 100\n")
    cfg = cli.parse_config(path, overrides=dict(iters=7))
    assert cfg.iters == 7 and cfg.seed == 5


INVALID_VALUES = [
    ("kq", 0), ("iters", 0), ("particles", 0), ("ode_steps", 0),
    ("n_candidates", 0), ("nonlocal_kernel", "foo"), ("mala_tau", 0),
    ("mala_tau", -0.1), ("sigma_min", 0.0), ("sigma_min", 1.0),
    ("sigma_min", 1.5), ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5),
    ("divergence", "hutchinson:0"), ("divergence", "exact:2"),
    ("divergence", "hutchinson:x"), ("divergence", "trace"),
    ("mode", "sample"), ("target", "gmm8"), ("diag_samples", 1),
    ("iters", "many"), ("divergence", 3), ("seed", "one"), ("temper", "yes"),
    # fields that no longer exist: the estimator follows from the dimension
    # and gmm16's variances are frozen at seed 0
    ("divergence", "exact"), ("divergence", "hutchinson:1"), ("gmm16_seed", 0),
    # the atsmc report scores the ensemble itself; mfm runs one particle
    ("particles", 1, {"mode": "atsmc"}),
    # no network without hidden units, no lgcp grid without cells, and no
    # Adam step that climbs the loss
    ("hidden", 0), ("m_side", 0), ("step_size", -1.0),
]


# (field, value, other overrides it needs); ids read "field=value,key=value"
INVALID_CASES = [(n, v, dict(*context)) for n, v, *context in INVALID_VALUES]


@pytest.mark.parametrize(
    "name, value, context", INVALID_CASES,
    ids=[",".join(f"{k}={x}" for k, x in {n: v, **c}.items()) for n, v, c in INVALID_CASES])
def test_invalid_value_refused_before_any_file(tmp_path, capsys, name, value, context):
    # parse_config names the field, and the command fails before it
    # creates the output directory
    out = tmp_path / "run"
    path = tmp_path / "c.cfg"
    values = dict(smoke_overrides(out), **{name: value}, **context)
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items()))
    with pytest.raises(ConfigError) as excinfo:
        cli.parse_config(path)
    assert excinfo.value.field == name
    assert cli.main(["--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_smoke_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["--preset", "gmm4", "--seed", "11", "--out", str(out),
                   "--iters", "4", "--particles", "6", "--kq", "2"])
    assert rc == 0
    for name in ["samples.csv", "runlog.csv", "diagnostics.json",
                 "flow.ckpt", "config.resolved"]:
        assert (out / name).exists()
    samples = cli.load_samples_csv(out / "samples.csv")
    assert samples.shape == (6, 2)
    rows = cli.load_runlog_csv(out / "runlog.csv")
    assert len(rows) == 4
    payload = json.loads((out / "diagnostics.json").read_text())
    for key in ["mmd2", "ksd_u", "ksd_v", "mean_logpi", "wall_seconds",
                "acceptance_local", "acceptance_flow", "beta_trace_len"]:
        assert key in payload
    assert payload["nonfinite_metrics"] == []


def test_rerun_same_seed_identical_artifacts(tmp_path):
    h = []
    for sub in ["a", "b"]:
        out = tmp_path / sub
        assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
        h.append((file_hash(out / "samples.csv"), file_hash(out / "flow.ckpt")))
    # the config hash stamp differs only through `out`, so compare bodies
    a = (tmp_path / "a" / "samples.csv").read_text().splitlines()[1:]
    b = (tmp_path / "b" / "samples.csv").read_text().splitlines()[1:]
    assert a == b
    assert file_hash(tmp_path / "a" / "flow.ckpt") == file_hash(tmp_path / "b" / "flow.ckpt")


def test_worker_count_does_not_change_samples(tmp_path):
    bodies = []
    for sub, workers in [("w1", 1), ("w4", 4)]:
        out = tmp_path / sub
        cfg = cli.parse_config(overrides=smoke_overrides(out, workers=workers))
        assert cli.run(cfg) == 0
        bodies.append((out / "samples.csv").read_text().splitlines()[1:])
    assert bodies[0] == bodies[1]


def test_diagnose_reproduces_stored_diagnostics(tmp_path):
    out = tmp_path / "run"
    cfg = cli.parse_config(overrides=smoke_overrides(out))
    assert cli.run(cfg) == 0
    stored = json.loads((out / "diagnostics.json").read_text())
    resolved = (out / "config.resolved").read_bytes()
    rc = cli.main(["--config", str(out / "config.resolved"), "--mode", "diagnose"])
    assert rc == 0
    # the run's config, whose hash stamps samples.csv and runlog.csv, stays
    assert (out / "config.resolved").read_bytes() == resolved
    recomputed = json.loads((out / "diagnostics.json").read_text())
    for key in stored:
        if key == "wall_seconds":
            continue
        assert recomputed[key] == stored[key], key


def test_diagnose_refuses_a_flow_of_another_dimension(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}

    def refuse(*_args, **_kwargs):
        raise AssertionError("the mismatched flow was pushed")

    monkeypatch.setattr(flow, "push_samples", refuse)
    # a d = 2 gmm4 flow against the d = 32 many-well target
    cfg = cli.parse_config(overrides=smoke_overrides(out, preset="manywell",
                                                     mode="diagnose"))
    with pytest.raises(DimensionMismatch, match="flow dim 2 != target dim 32"):
        cli.run(cfg)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_atsmc_mode_runs(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["--preset", "gmm4", "--seed", "3", "--out", str(out),
                   "--mode", "atsmc", "--iters", "2", "--particles", "32",
                   "--kq", "3"])
    assert rc == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["beta_trace_len"] >= 1
    assert not (out / "flow.ckpt").exists()
    # gmm4 has exact draws, so the ensemble is scored by MMD as well.
    assert isinstance(payload["mmd2"], float)
    assert np.isfinite(payload["mmd2"])


def test_fm_oracle_mode_runs(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["--preset", "gmm4", "--seed", "3", "--out", str(out),
                   "--mode", "fm-oracle", "--iters", "3", "--particles", "8"])
    assert rc == 0
    assert (out / "flow.ckpt").exists()


def test_error_exit_status(tmp_path, capsys):
    rc = cli.main(["--preset", "gmm4", "--out", str(tmp_path / "x")])  # no seed
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_divergence_flag_refused(tmp_path, capsys):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--preset", "gmm4", "--seed", "1", "--out", str(out),
                  "--divergence", "exact"])
    assert excinfo.value.code != 0
    assert "--divergence" in capsys.readouterr().err
    assert not out.exists()


# each preset at its default size: dimension and the divergence estimator
# that follows from it
PRESET_DIVERGENCE = {"gmm4": (2, "exact"), "gmm16": (2, "exact"),
                     "manywell": (32, "exact"), "field": (64, "exact"),
                     "lgcp": (1600, "hutchinson")}


@pytest.mark.parametrize("preset", sorted(PRESET_DIVERGENCE))
def test_preset_divergence_estimator(preset):
    # exact: d basis-direction hvp calls per field evaluation; Hutchinson:
    # one call with a Rademacher probe per row
    d, estimator = PRESET_DIVERGENCE[preset]
    target = cli.build_target(cli.parse_config(overrides=dict(preset=preset, seed=0)))
    assert target.dim == d
    directions = []
    inner = target.hvp_log_density

    def hvp(x, v):
        directions.append(np.shape(v))
        return inner(x, v)

    target.hvp_log_density = hvp
    rng = np.random.Generator(np.random.Philox(0))
    fp = flow.flow_init(rng, d, hidden=8)
    x = rng.standard_normal((3, d))
    flow.integrate_rows(fp, target, x, flow.OdeConfig(n_steps=1), rng, True)
    # one RK4 step is 4 field evaluations
    if estimator == "exact":
        assert directions == [(d,)] * (4 * d)
    else:
        assert directions == [(3, d)] * 4


def test_help_documents_blas_threads(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "OPENBLAS_NUM_THREADS" in capsys.readouterr().out


def test_lgcp_build_factors_covariance_once(monkeypatch):
    cfg = cli.parse_config(overrides=dict(preset="lgcp", seed=0, m_side=8))
    calls = []
    inner = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    target = cli.build_target(cfg)
    monkeypatch.undo()
    assert calls == [(64, 64)]

    # oracle: synthetic counts and precision each from a factor of their own
    spec = targets.LgcpSpec(m_side=8)
    rng = np.random.Generator(np.random.Philox(0))
    chol = np.linalg.cholesky(targets.lgcp_covariance(spec))
    latent = spec.mu0 + chol @ rng.standard_normal(spec.dim)
    counts = rng.poisson(spec.cell_area * np.exp(latent)).reshape(8, 8)
    chol_inv = np.linalg.solve(np.linalg.cholesky(targets.lgcp_covariance(spec)),
                               np.eye(spec.dim))
    precision = chol_inv.T @ chol_inv
    assert np.array_equal(targets.synthetic_lgcp_counts(spec, seed=0), counts)
    # at x = mu0 the gradient is y - area e^mu0, which exposes the counts
    x = np.full((1, spec.dim), spec.mu0)
    assert np.array_equal(target.grad_log_density(x)[0],
                          counts.ravel() - spec.cell_area * np.exp(x[0]))
    # where e^x = 0 the Hessian is -precision, and H I = H exactly
    xb = np.full((spec.dim, spec.dim), -np.inf)
    assert np.array_equal(-target.hvp_log_density(xb, np.eye(spec.dim)), precision)


def test_bundled_lgcp_counts_are_the_synthetic_counts(monkeypatch):
    # the package ships the seed-0 synthetic grid, so the m_side = 40 build
    # reads the file and the samples are those of synthetic counts
    spec = targets.LgcpSpec(m_side=40)
    counts = targets.synthetic_lgcp_counts(spec, seed=0)
    assert np.array_equal(targets.load_counts_csv(cli._BUNDLED_COUNTS, 40), counts)

    def unavailable(*_args, **_kwargs):
        raise AssertionError("build_target drew synthetic counts")

    monkeypatch.setattr(targets, "synthetic_lgcp_counts", unavailable)
    target = cli.build_target(cli.parse_config(overrides=dict(preset="lgcp", seed=0)))
    # at x = mu0 the gradient is y - area e^mu0, which exposes the counts
    x = np.full((1, spec.dim), spec.mu0)
    assert np.array_equal(target.grad_log_density(x)[0],
                          counts.ravel() - spec.cell_area * np.exp(x[0]))


@pytest.mark.parametrize("mode", ["mfm", "atsmc"])
def test_failing_report_leaves_the_run_artifacts(tmp_path, monkeypatch, mode):
    # the samples, run log and flow are written before the run is scored:
    # a report that raises re-raises, and what it leaves is what a clean run
    # writes, byte for byte
    out = tmp_path / mode
    cfg = cli.parse_config(overrides=smoke_overrides(out, mode=mode, hidden=8,
                                                     ode_steps=4))
    names = ["samples.csv", "runlog.csv"] + ["flow.ckpt"] * (mode == "mfm")
    assert cli.run(cfg) == 0
    clean = {name: (out / name).read_bytes() for name in names}
    shutil.rmtree(out)

    def failing(*_args, **_kwargs):
        raise RuntimeError("report failed")

    monkeypatch.setattr(diagnostics, "compute_report", failing)
    with pytest.raises(RuntimeError, match="report failed"):
        cli.run(cfg)
    assert {name: (out / name).read_bytes() for name in names} == clean
    assert not (out / "diagnostics.json").exists()
    assert (out / "flow.ckpt").exists() == (mode == "mfm")


def test_samples_csv_header_stamp(tmp_path):
    out = tmp_path / "run"
    cfg = cli.parse_config(overrides=smoke_overrides(out))
    cli.run(cfg)
    first = (out / "samples.csv").read_text().splitlines()[0]
    assert first.startswith("# config_hash=") and "seed=11" in first


@pytest.mark.parametrize("m_side", [8, 9])
def test_lgcp_property_run(tmp_path, m_side):
    # desk-scale grids on either side of flow.EXACT_DIVERGENCE_MAX_DIM
    # (d = 64 exact, d = 81 Hutchinson): finishes, finite KSD-V, local
    # acceptance above 0.1
    out = tmp_path / "lgcp"
    cfg = cli.parse_config(overrides=dict(
        preset="lgcp", seed=5, out=str(out), m_side=m_side, iters=30, particles=16,
        kq=10, diag_samples=32, ode_steps=4, hidden=32))
    assert cli.run(cfg) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert np.isfinite(payload["ksd_v"])
    assert payload["acceptance_local"] > 0.1
    assert payload["mmd2"] is None


@pytest.mark.parametrize("mode, threshold, start", [
    ("mfm", 3.0, dict(init_mean=[3.0, 0.0], init_scale=0.5)),
    ("atsmc", 1.0, {}),
], ids=["mfm", "atsmc"])
def test_nonfinite_proposals_reach_runlog(tmp_path, monkeypatch, mode, threshold,
                                          start):
    # chains that start where the gradient overflows cannot leave: each of
    # their Langevin proposals (and, in mfm, each flow pullback) is rejected
    # and counted, and the cumulative counts land in runlog.csv
    monkeypatch.setattr(cli, "build_target",
                        lambda _cfg: gaussian_with_overflow(threshold))
    out = tmp_path / mode
    cfg = cli.parse_config(overrides=smoke_overrides(
        out, mode=mode, iters=6, particles=16, kq=3, hidden=8, ode_steps=4,
        **start))
    assert cli.run(cfg) == 0
    header = (out / "runlog.csv").read_text().splitlines()[1].split(",")
    assert header == cli.RUNLOG_COLUMNS
    rows = cli.load_runlog_csv(out / "runlog.csv")
    local = [0] + [row["nonfinite_local"] for row in rows]
    flow_ = [0] + [row["nonfinite_flow"] for row in rows]
    assert local[-1] > 0
    for k, row in enumerate(rows, 1):
        assert isinstance(row["nonfinite_local"], int)
        flow_step = mode == "mfm" and driver.is_flow_iteration(k, cfg.kq)
        # each count grows only on the iterations of its own kernel
        assert local[k] >= local[k - 1] and flow_[k] >= flow_[k - 1]
        assert (local[k] == local[k - 1]) or not flow_step
        assert (flow_[k] == flow_[k - 1]) or flow_step
    assert (flow_[-1] > 0) == (mode == "mfm")
    # strict JSON: a non-finite metric is null and named, never a bare NaN
    payload = json.loads((out / "diagnostics.json").read_text(),
                         parse_constant=reject_constant)
    assert all(payload[k] is None for k in payload["nonfinite_metrics"])
    if mode == "atsmc":
        # chains stuck where the score is infinite: the KSDs are NaN
        assert {"ksd_u", "ksd_v"} <= set(payload["nonfinite_metrics"])


def reject_constant(name):
    raise ValueError(f"diagnostics.json holds the non-JSON constant {name}")


def test_samples_csv_matches_csv_writer(tmp_path):
    cfg = cli.parse_config(overrides=smoke_overrides(tmp_path / "o"))
    positions = np.array([[-0.0, 1e-300, 1e20],
                          [np.nan, np.inf, -np.inf],
                          [0.1, -2.5e-7, 123456789.123456789]])
    path = tmp_path / "samples.csv"
    cli.write_samples_csv(path, cfg, positions)
    expected = io.StringIO(newline="")
    expected.write(cli._stamp(cfg) + "\n")
    writer = csv.writer(expected)
    writer.writerow(["x_1", "x_2", "x_3"])
    for row in positions:
        writer.writerow([f"{v:.17g}" for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    assert np.array_equal(cli.load_samples_csv(path), positions, equal_nan=True)


# -- The benchmark's tracer sees every layer it gates -------------------------

TRACED_LAYERS = {
    "mfm": {"cli.build_target", "driver", "driver.diagnose_flow",
            "tempering.next_beta", "kernels.mala_step", "kernels.flow_step",
            "flow.integrate_rows", "cfm.train_step", "nets.pack",
            "nets.adam_step", "diagnostics.compute_report", "cli.artifacts",
            "targets.log_density", "targets.grad_log_density",
            "targets.hvp_log_density"},
    "atsmc": {"cli.build_target", "driver", "tempering.next_beta",
              "kernels.mala_step", "diagnostics.compute_report",
              "cli.artifacts", "targets.log_density", "targets.grad_log_density"},
}


def load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", sorted(TRACED_LAYERS))
def test_bench_tracing_records_every_gated_layer(tmp_path, mode):
    # bench/tracing.py patches module attributes by name; a refactor that
    # calls around one of them leaves its layer without spans
    tracing = load_bench_tracing()
    modules = (cfm, cli, diagnostics, driver, flow, kernels, nets, tempering)
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        build = cli.build_target

        def build_traced(cfg):
            target = build(cfg)
            tracing.trace_target(tracer, target)
            return target

        cli.build_target = build_traced
        # gmm4, k_q = 2: flow steps at k = 1 and 3
        cfg = cli.parse_config(overrides=smoke_overrides(
            tmp_path / mode, mode=mode, hidden=8, ode_steps=4))
        assert cli.run(cfg) == 0
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)
    assert TRACED_LAYERS[mode] <= {span[0] for span in tracer.spans}

    def ancestors(i):
        names = []
        while tracer.spans[i][3] >= 0:
            i = tracer.spans[i][3]
            names.append(tracer.spans[i][0])
        return names

    # a Langevin step costs one fused value-and-gradient call of the target
    # and no separate gradient call; the gradient gate is still fed, by the
    # report's KSD
    for i, span in enumerate(tracer.spans):
        if span[0] == "kernels.mala_step":
            children = [s[0] for s in tracer.spans if s[3] == i]
            assert children.count("targets.log_density") == 1
            assert "targets.grad_log_density" not in children
    assert any(span[0] == "targets.grad_log_density"
               and "diagnostics.compute_report" in ancestors(i)
               for i, span in enumerate(tracer.spans))
    if mode == "mfm":
        # every hvp comes from a flow step's divergence, none from the
        # positions-only closing push, which still integrates through
        # flow.integrate_rows
        for i, span in enumerate(tracer.spans):
            if span[0] == "targets.hvp_log_density":
                assert "kernels.flow_step" in ancestors(i)
                assert "flow.push_samples" not in ancestors(i)
        push = [i for i, s in enumerate(tracer.spans) if s[0] == "flow.push_samples"]
        assert len(push) == 1
        assert any(s[0] == "flow.integrate_rows" and s[3] == push[0]
                   for s in tracer.spans)
    for module, attrs in saved:
        assert vars(module).keys() == attrs.keys(), module.__name__
        assert all(vars(module)[k] is v for k, v in attrs.items()), module.__name__
