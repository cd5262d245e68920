import csv
import hashlib
import importlib.util
import io
import json
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfm import cfm, cli, diagnostics, driver, flow, kernels, nets, targets, tempering
from mfm.errors import ConfigError, DimensionMismatch

from conftest import gaussian_with_overflow, rewrite_checkpoint, write_pre_merge_checkpoint


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


def test_config_file_comments_blank_lines_and_bare_strings(tmp_path):
    # a value that is not JSON is read as the bare string it spells
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\n   \n  # indented comment\npreset = gmm4\nseed = 5\n")
    assert cli.read_config_file(path) == {"preset": "gmm4", "seed": 5}
    assert cli.parse_config(path).target == "gmm4"


def test_config_file_line_without_equals_refused(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 5\n# fine\npreset gmm4\n")
    with pytest.raises(ConfigError, match="expected 'key = value'") as excinfo:
        cli.read_config_file(path)
    assert excinfo.value.field == f"{path}:3"


def test_config_file_key_set_twice_refused(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\npreset = gmm4\n\nseed = 2\n")
    with pytest.raises(ConfigError, match="set twice .* on lines 1 and 4") as excinfo:
        cli.read_config_file(path)
    assert excinfo.value.field == "seed"


def test_flag_overrides_beat_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("preset = \"gmm4\"\nseed = 5\niters = 100\n")
    cfg = cli.parse_config(path, overrides=dict(iters=7))
    assert cfg.iters == 7 and cfg.seed == 5


INVALID_VALUES = [
    ("kq", 0), ("iters", 0), ("particles", 0), ("ode_steps", 0),
    ("nonlocal_kernel", "foo"), ("mala_tau", 0), ("mala_tau", -0.1),
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5),
    ("divergence", "hutchinson:0"), ("divergence", "exact:2"),
    ("divergence", "hutchinson:x"), ("divergence", "trace"),
    ("mode", "sample"), ("target", "gmm8"), ("diag_samples", 1),
    ("iters", "many"), ("divergence", 3), ("seed", "one"),
    # a seed is a Philox key, and a step size must be a finite number
    ("seed", -1), ("seed", 2 ** 128), ("mala_tau", float("inf")),
    # JSON true is a bool, which Python counts as an int
    ("iters", True), ("seed", True), ("mala_tau", True),
    # fields that no longer exist: the estimator follows from the dimension,
    # gmm16's variances are frozen at seed 0, and the rest are constants
    # (each at a value it used to accept)
    ("divergence", "exact"), ("divergence", "hutchinson:1"), ("gmm16_seed", 0),
    ("sigma_min", 0.01), ("step_size", 0.001), ("n_candidates", 4),
    ("temper", True), ("init_scale", 0.5, {"init_mean": [0.0, 0.0]}),
    # the atsmc report scores the ensemble itself; mfm runs one particle
    ("particles", 1, {"mode": "atsmc"}),
    # no network without hidden units and no lgcp grid without cells
    ("hidden", 0), ("m_side", 0),
    # no run without a worker (it would run serially under its own hash)
    ("workers", 0),
    # a start that the run would not use: atsmc and fm-oracle draw their own
    ("init_mean", [50.0, 50.0], {"mode": "atsmc"}),
    ("init_mean", [50.0, 50.0], {"mode": "fm-oracle"}),
    # one finite real entry per dimension of the target (gmm4: d = 2)
    ("init_mean", [50.0]), ("init_mean", [50.0, 50.0, 50.0]),
    ("init_mean", [50.0, "x"]), ("init_mean", [float("nan"), 50.0]),
    ("init_mean", [50.0, float("inf")]), ("init_mean", [True, 50.0]),
    ("init_mean", "origin"), ("init_mean", [50.0, 50.0], {"target": "manywell"}),
    # a counts file is a path, and only the lgcp target reads one
    ("counts_csv", 5, {"target": "lgcp"}), ("counts_csv", "counts.csv"),
    # a preset is named by a string; a list cannot even be looked up
    ("preset", [1]), ("preset", 1),
    # only the lgcp target has a grid for m_side to size
    ("m_side", 7, {"mode": "atsmc"}),
    # fm-oracle trains on exact draws, which these targets have none of
    ("mode", "fm-oracle", {"target": "field"}), ("mode", "fm-oracle", {"target": "lgcp"}),
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


@pytest.mark.parametrize("bad", ["missing", "negative"])
def test_bad_counts_file_refused_before_any_file(tmp_path, capsys, bad):
    # the counts are read when the target is built, before the output
    # directory is made or config.resolved is written, so an earlier
    # run's directory keeps its config beside its samples
    counts = tmp_path / "counts.csv"
    if bad == "negative":
        grid = np.ones((6, 6), dtype=int)
        grid[2, 3] = -1
        np.savetxt(counts, grid, fmt="%d", delimiter=",")
    fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(earlier))) == 0
    written = {p.name: p.read_bytes() for p in earlier.iterdir()}
    path = tmp_path / "c.cfg"
    for out in (fresh, earlier):
        values = dict(preset="lgcp", seed=1, m_side=6, counts_csv=str(counts),
                      out=str(out))
        path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items()))
        assert cli.main(["--config", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"missing": "FileNotFoundError", "negative": "ValueError"}[bad]
    assert not fresh.exists()
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == written


@pytest.mark.parametrize("mode", driver.MODES)
def test_preset_start_applies_in_mfm_mode_only(tmp_path, mode):
    # gmm16's preset start is for the mfm chains; the other modes run the
    # preset without it rather than refuse the preset
    cfg = cli.parse_config(overrides=dict(preset="gmm16", seed=1, mode=mode))
    assert cfg.init_mean == ([-14.0, -14.0] if mode == "mfm" else None)
    if mode == "diagnose":
        # diagnose re-reads an mfm run's resolved config, start included
        path = tmp_path / "config.resolved"
        path.write_text(cli.config_lines(cli.parse_config(
            overrides=dict(preset="gmm16", seed=1))))
        assert cli.parse_config(path, dict(mode=mode)).init_mean == [-14.0, -14.0]


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
    assert payload["diag_rejected"] == 0


def test_diagnostics_json_records_thread_env(tmp_path, monkeypatch):
    # the worker count is read back from config.resolved; diagnostics.json
    # is the same for any worker count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out, workers=2))) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                     "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert "workers" not in payload
    assert cli.parse_config(out / "config.resolved").workers == 2


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


def test_wall_seconds_times_the_run_without_its_report(tmp_path, monkeypatch):
    # a runner 0.2 s slower shows in wall_seconds; a report 0.3 s slower,
    # which runs after the run, does not
    run_mfm, run_report = driver.run_mfm, driver.run_report

    def slow(fn, seconds):
        def wrapped(*args):
            time.sleep(seconds)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(driver, "run_mfm", slow(run_mfm, 0.2))
    monkeypatch.setattr(driver, "run_report", slow(run_report, 0.3))
    out = tmp_path / "run"
    t0 = time.perf_counter()
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    elapsed = time.perf_counter() - t0
    wall = json.loads((out / "diagnostics.json").read_text())["wall_seconds"]
    assert 0.2 <= wall and wall + 0.3 <= elapsed


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


def test_field_run_below_beta_one_is_scored(tmp_path):
    # the run ends at beta = 0.030, where every pushed draw lands outside
    # the field target's finite range if pushed under the target itself;
    # pushed under the tempered density its flow was trained on, all stay
    # finite, and diagnose re-scores the run to the same report
    out = tmp_path / "run"
    path = tmp_path / "c.cfg"
    path.write_text("diag_samples = 64\node_steps = 8\nhidden = 64\n")
    rc = cli.main(["--config", str(path), "--preset", "field", "--seed", "1",
                   "--iters", "50", "--kq", "50", "--particles", "256",
                   "--out", str(out)])
    assert rc == 0
    assert cli.load_runlog_csv(out / "runlog.csv")[-1]["beta"] < 0.05
    stored = json.loads((out / "diagnostics.json").read_text())
    assert stored["nonfinite_metrics"] == [] and stored["diag_rejected"] == 0
    assert all(np.isfinite(stored[k]) for k in ("ksd_u", "ksd_v", "mean_logpi"))
    rc = cli.main(["--config", str(out / "config.resolved"), "--mode", "diagnose"])
    assert rc == 0
    recomputed = json.loads((out / "diagnostics.json").read_text())
    assert {k: v for k, v in recomputed.items() if k != "wall_seconds"} == \
        {k: v for k, v in stored.items() if k != "wall_seconds"}


def test_diagnose_reads_a_float32_checkpoint(tmp_path):
    # a flow wider than TIME_HIDDEN_MAX trains, saves and is re-scored in
    # float32; the re-scored report equals the stored one
    out = tmp_path / "run"
    cfg = cli.parse_config(overrides=smoke_overrides(
        out, hidden=flow.TIME_HIDDEN_MAX + 1))
    assert cli.run(cfg) == 0
    assert flow.load_flow(out / "flow.ckpt").flat.dtype == np.float32
    stored = json.loads((out / "diagnostics.json").read_text())
    rc = cli.main(["--config", str(out / "config.resolved"), "--mode", "diagnose"])
    assert rc == 0
    recomputed = json.loads((out / "diagnostics.json").read_text())
    assert {k: v for k, v in recomputed.items() if k != "wall_seconds"} == \
        {k: v for k, v in stored.items() if k != "wall_seconds"}


def test_diagnose_refuses_a_pre_merge_checkpoint(tmp_path, capsys, rng):
    # a checkpoint with a separate net_scale network, as every flow was
    # saved before the gate and the scale became one net_t
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    write_pre_merge_checkpoint(out / "flow.ckpt", rng)
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    rc = cli.main(["--config", str(out / "config.resolved"), "--mode", "diagnose"])
    assert rc == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "net_scale" in report["message"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


@pytest.mark.parametrize("missing", ["flow.ckpt", "runlog.csv"])
def test_diagnose_refuses_a_run_without_its_files(tmp_path, monkeypatch, missing):
    # refused before the target is built, and nothing is written
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    (out / missing).unlink()
    written = {p.name: p.read_bytes() for p in out.iterdir()}

    def unbuilt(_cfg):
        raise AssertionError("the target was built")

    monkeypatch.setattr(cli, "build_target", unbuilt)
    cfg = cli.parse_config(out / "config.resolved", dict(mode="diagnose"))
    with pytest.raises(ConfigError, match=str(out / missing)) as excinfo:
        cli.run(cfg)
    assert excinfo.value.field == "out"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_diagnose_refuses_a_run_log_without_rows(tmp_path, monkeypatch):
    # the push reads the run's last beta from the run log's last row
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    runlog = out / "runlog.csv"
    runlog.write_text("".join(runlog.read_text().splitlines(keepends=True)[:2]))
    written = {p.name: p.read_bytes() for p in out.iterdir()}

    def unbuilt(_cfg):
        raise AssertionError("the target was built")

    monkeypatch.setattr(cli, "build_target", unbuilt)
    cfg = cli.parse_config(out / "config.resolved", dict(mode="diagnose"))
    with pytest.raises(ConfigError, match=str(runlog)):
        cli.run(cfg)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_diagnose_refuses_a_malformed_checkpoint(tmp_path, capsys):
    # three bytes past the layout's data, which np.fromfile alone would drop
    out = tmp_path / "run"
    assert cli.run(cli.parse_config(overrides=smoke_overrides(out))) == 0
    rewrite_checkpoint(out / "flow.ckpt", data=lambda d: d + b"\0\0\0")
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    rc = cli.main(["--config", str(out / "config.resolved"), "--mode", "diagnose"])
    assert rc == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "data bytes" in report["message"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


@pytest.mark.parametrize("overrides", [dict(preset=p) for p in cli.PRESETS]
                         + [dict(preset="lgcp", m_side=6)],
                         ids=[*cli.PRESETS, "lgcp-m_side=6"])
def test_config_dim_is_the_target_dim(overrides):
    cfg = cli.parse_config(overrides=dict(overrides, seed=1))
    assert cfg.dim == cli.build_target(cfg).dim


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


@pytest.mark.parametrize("m_side", [8, 9, 17])
def test_lgcp_build_factors_covariance_once(monkeypatch, m_side):
    cfg = cli.parse_config(overrides=dict(preset="lgcp", seed=0, m_side=m_side))
    calls, built = [], []
    inner, covariance = np.linalg.cholesky, targets.lgcp_covariance

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(targets, "lgcp_covariance",
                        lambda m: built.append(m) or covariance(m))
    target = cli.build_target(cfg)
    monkeypatch.undo()
    d = m_side ** 2
    assert built == [m_side]
    if d <= targets._LGCP_BLOCK:
        assert calls == [(d, d)]
    else:   # numpy factors the diagonal blocks of the recursion only
        assert all(n <= targets._LGCP_BLOCK for n, _ in calls)
        assert sum(n for n, _ in calls) == d

    # oracle: synthetic counts and precision each from a factor of their own
    area, mu0 = 1.0 / m_side ** 2, targets.LGCP_MU0
    rng = np.random.Generator(np.random.Philox(0))
    chol = np.linalg.cholesky(targets.lgcp_covariance(m_side))
    latent = mu0 + chol @ rng.standard_normal(d)
    counts = rng.poisson(area * np.exp(latent)).reshape(m_side, m_side)
    own_chol = np.linalg.cholesky(targets.lgcp_covariance(m_side))
    if d <= 64:   # one block of the inverse: LAPACK's gesv itself
        chol_inv = np.linalg.solve(own_chol, np.eye(d))
    else:
        chol_inv = own_chol.copy()
        targets._invert_lower(chol_inv)
    precision = chol_inv.T @ chol_inv
    assert np.array_equal(targets.synthetic_lgcp_counts(m_side, seed=0), counts)
    # at x = mu0 the gradient is y - area e^mu0, which exposes the counts
    x = np.full((1, d), mu0)
    assert np.array_equal(target.grad_log_density(x)[0],
                          counts.ravel() - area * np.exp(x[0]))
    # where e^x = 0 the Hessian is -precision, and H I = H exactly
    xb = np.full((d, d), -np.inf)
    hessian = -target.hvp_log_density(xb, np.eye(d))
    if d <= targets._LGCP_BLOCK:   # one block of the factor and the product
        assert np.array_equal(hessian, precision)
    else:
        assert np.abs(hessian - precision).max() <= 1e-12 * np.abs(precision).max()


def test_lgcp_build_from_counts_csv(tmp_path, monkeypatch):
    # a counts file is read as it is, and the covariance is factored once
    counts = np.arange(36).reshape(6, 6) % 5
    path = tmp_path / "counts.csv"
    np.savetxt(path, counts, fmt="%d", delimiter=",")
    cfg = cli.parse_config(overrides=dict(preset="lgcp", seed=0, m_side=6,
                                          counts_csv=str(path)))
    calls = []
    inner = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or inner(a))
    target = cli.build_target(cfg)
    monkeypatch.undo()
    assert calls == [(36, 36)]
    # at x = mu0 the gradient is y - area e^mu0, which exposes the counts
    x = np.full((1, 36), targets.LGCP_MU0)
    assert np.array_equal(target.grad_log_density(x)[0],
                          counts.ravel() - (1.0 / 36) * np.exp(x[0]))


def test_bundled_lgcp_counts_are_the_synthetic_counts(monkeypatch):
    # the package ships the seed-0 synthetic grid, so the m_side = 40 build
    # reads the file and the samples are those of synthetic counts
    counts = targets.synthetic_lgcp_counts(40, seed=0)
    assert np.array_equal(targets.load_counts_csv(cli._BUNDLED_COUNTS, 40), counts)

    def unavailable(*_args, **_kwargs):
        raise AssertionError("build_target drew synthetic counts")

    monkeypatch.setattr(targets, "_draw_counts", unavailable)
    target = cli.build_target(cli.parse_config(overrides=dict(preset="lgcp", seed=0)))
    # at x = mu0 the gradient is y - area e^mu0, which exposes the counts
    x = np.full((1, 40 ** 2), targets.LGCP_MU0)
    assert np.array_equal(target.grad_log_density(x)[0],
                          counts.ravel() - (1.0 / 40 ** 2) * np.exp(x[0]))


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
    # (d = 64 exact target term, d = 81 Hutchinson target term; net_x's
    # trace is exact at both): finishes, finite KSD-V, local acceptance
    # above 0.1
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
    ("mfm", 3.0, dict(init_mean=[3.0, 0.0])),
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
        # chains stuck where the score is infinite are left out of the KSDs,
        # which score the other chains
        assert payload["diag_rejected"] > 0
        assert np.isfinite(payload["ksd_u"]) and np.isfinite(payload["ksd_v"])


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


def test_samples_csv_converts_one_row_at_a_time(tmp_path):
    # the lgcp presets' ensemble: a whole-array tolist() would hold 204,800
    # Python floats (about 6 MB) at once
    cfg = cli.parse_config(overrides=smoke_overrides(tmp_path / "o"))
    positions = np.random.Generator(np.random.Philox(4)).standard_normal((128, 1600))
    tracemalloc.start()
    try:
        cli.write_samples_csv(tmp_path / "samples.csv", cfg, positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(cli.load_samples_csv(tmp_path / "samples.csv"), positions)


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
