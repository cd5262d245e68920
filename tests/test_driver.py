from dataclasses import replace

import numpy as np
import pytest

from mfm import cfm, driver, flow, kernels, nets, targets
from mfm.driver import ExperimentConfig
from mfm.errors import ConfigError, DegenerateWeights, NonFiniteGradient, NonFiniteLoss

from conftest import gaussian, textbook_adam, while_running


def smoke_config(**kw):
    defaults = dict(iters=6, particles=8, kq=3, hidden=8, seed=0,
                    diag_samples=32, ode_steps=4)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_flow_iteration_branch_arithmetic():
    k_q = 10
    fired = [k for k in range(1, 101) if driver.is_flow_iteration(k, k_q)]
    assert len(fired) == 100 // k_q
    assert fired[0] == 9 and fired[-1] == 99
    # k_q = 1: every iteration is a flow step
    assert all(driver.is_flow_iteration(k, 1) for k in range(1, 20))


def test_smoke_run_completes_and_logs():
    target = targets.make_gmm4()
    art = driver.run_mfm(target, smoke_config(iters=1, particles=1))
    assert len(art.log_rows) == 1
    assert art.ensemble.positions.shape == (1, 2)
    assert np.all(np.isfinite(flow.flow_to_vector(art.flow_params)))


def test_run_mfm_deterministic():
    target = targets.make_gmm4()
    a = driver.run_mfm(target, smoke_config(iters=10))
    b = driver.run_mfm(target, smoke_config(iters=10))
    assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
    assert np.array_equal(flow.flow_to_vector(a.flow_params),
                          flow.flow_to_vector(b.flow_params))
    assert a.log_rows == b.log_rows


def out_of_place_adam(state, params, gradient):
    """nets.adam_step's contract through the textbook update: every returned
    array is new, and neither params nor the moments are written."""
    if not np.all(np.isfinite(gradient)):
        raise NonFiniteGradient("gradient contains non-finite entries")
    k = state.step + 1
    new, m, v = textbook_adam(state.m, state.v, k, state, params, gradient)
    return new, replace(state, m=m, v=v, step=k)


def test_run_mfm_same_with_out_of_place_adam(tmp_path, monkeypatch):
    # Adam overwrites the flow's parameters in place.  A caller that kept
    # the flow from before a train step would read the new parameters here
    # and the old ones under the oracle, so the runs would part.
    target = targets.make_gmm4()
    cfg = smoke_config(iters=9, particles=16)
    runs = []
    for variant in ("in_place", "oracle"):
        if variant == "oracle":
            monkeypatch.setattr(nets, "adam_step", out_of_place_adam)
        art = driver.run_mfm(target, cfg)
        flow.save_flow(tmp_path / f"{variant}.ckpt", art.flow_params)
        pushed = driver.diagnose_flow(art.flow_params, target, cfg,
                                      art.ensemble.temper.beta)
        runs.append(((tmp_path / f"{variant}.ckpt").read_bytes(),
                     art.ensemble.positions, art.log_rows, pushed))
    (ckpt_a, pos_a, rows_a, rep_a), (ckpt_b, pos_b, rows_b, rep_b) = runs
    assert sum(row["acceptance_flow"] > 0 for row in rows_a) > 0
    assert ckpt_a == ckpt_b
    assert np.array_equal(pos_a, pos_b)
    assert rows_a == rows_b and rep_a == rep_b


def test_beta_monotone_and_fresh_each_iteration():
    target = targets.make_gmm4()
    art = driver.run_mfm(target, smoke_config(iters=30, particles=64))
    betas = [row["beta"] for row in art.log_rows]
    assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
    hist = art.ensemble.temper.history
    assert all(b2 > b1 for b1, b2 in zip(hist, hist[1:]))


def test_mixed_kernels_accounting():
    target = targets.make_gmm4()
    cfg = smoke_config(iters=9, kq=3, particles=4)
    art = driver.run_mfm(target, cfg)
    # flow fires at k = 2, 5, 8 -> 3 of 9 iterations
    assert art.ensemble.flow_proposed == 3 * 4
    assert art.ensemble.local_proposed == 6 * 4
    assert len(art.log_rows) == 9


@pytest.mark.parametrize("kernel", ["imh", "cis"])
def test_alternative_nonlocal_kernels_run(kernel):
    target = targets.make_gmm4()
    art = driver.run_mfm(target, smoke_config(nonlocal_kernel=kernel, iters=6, kq=2))
    assert np.all(np.isfinite(art.ensemble.positions))


def test_init_override_controls_start():
    target = targets.make_gmm16(0)
    cfg = smoke_config(iters=1, particles=16, init_mean=[-14.0, -14.0], kq=100)
    art = driver.run_mfm(target, cfg)
    # after one MALA step at beta_1 the particles are still near the init blob
    assert np.all(np.abs(art.ensemble.positions - (-14.0)) < 5.0)


@pytest.mark.parametrize("init_mean", [[3.0], [3.0, 0.0, 1.0]], ids=["short", "long"])
def test_init_mean_of_wrong_length_refused(init_mean):
    # gmm4 has d = 2: one entry would be broadcast over both coordinates,
    # three would not broadcast at all.  The config refuses both before
    # anything runs
    with pytest.raises(ConfigError) as err:
        smoke_config(iters=1, init_mean=init_mean)
    assert err.value.field == "init_mean"


@pytest.mark.parametrize("preset", [[1], 3], ids=["list", "int"])
def test_non_string_preset_refused(preset):
    # built in code, such a config would be written to a config.resolved
    # that parse_config refuses
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(seed=1, preset=preset)
    assert err.value.field == "preset"


def failing_train_step(monkeypatch, fails):
    """Patch cfm.train_step to raise NonFiniteLoss on the calls (1-based)
    for which fails(call) is true, and to train normally on the others."""
    real = cfm.train_step
    calls = []

    def train_step(*args):
        calls.append(None)
        if fails(len(calls)):
            raise NonFiniteLoss("training loss is nan")
        return real(*args)

    monkeypatch.setattr(cfm, "train_step", train_step)


def test_isolated_nonfinite_losses_are_logged(monkeypatch):
    failed = {2, 5}
    failing_train_step(monkeypatch, lambda call: call in failed)
    art = driver.run_mfm(targets.make_gmm4(), smoke_config(iters=6))
    losses = [row["loss"] for row in art.log_rows]
    assert len(losses) == 6
    assert [k for k, loss in enumerate(losses, 1) if np.isnan(loss)] == sorted(failed)
    assert np.all(np.isfinite(flow.flow_to_vector(art.flow_params)))


def test_nonfinite_loss_streak_aborts_run(monkeypatch):
    # every step fails but the limit-th, which resets the streak; the next
    # limit failures in a row end the run at k = 2 * limit.  k_q > iters:
    # MALA steps only
    limit = driver.MAX_NONFINITE_LOSSES
    failing_train_step(monkeypatch, lambda call: call != limit)
    cfg = smoke_config(iters=2 * limit + 5, kq=4 * limit)
    with pytest.raises(NonFiniteLoss,
                       match=rf"for {limit} consecutive iterations \(k={2 * limit}\)"):
        driver.run_mfm(targets.make_gmm4(), cfg)


# -- AT-SMC baseline -----------------------------------------------------------------

def test_atsmc_identical_base_and_target_single_jump(rng):
    std = targets.standard_normal(2)
    cfg = smoke_config(iters=1, particles=32, kq=2, mala_tau=0.5)
    art = driver.run_atsmc(std, cfg)
    ens, rows = art.ensemble, art.log_rows
    assert ens.temper.history == [1.0]
    # one resampling level plus the final sweep
    assert len(rows) == 2
    assert np.all(np.isfinite(ens.positions))


def test_atsmc_evaluates_target_once_per_mala_pass(monkeypatch):
    # one fused value-and-gradient call per evaluation, none of the
    # separate gradient oracle; the run ends before its report
    target = targets.make_lgcp(4)
    calls = {"log_density": [], "grad_log_density": [], "mala_step": []}

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name].append(kwargs)
            return inner(*args, **kwargs)
        return wrapper

    target.log_density = counting("log_density", target.log_density)
    target.grad_log_density = counting("grad_log_density", target.grad_log_density)
    monkeypatch.setattr(kernels, "mala_step", counting("mala_step", kernels.mala_step))
    cfg = ExperimentConfig(particles=16, kq=2, alpha=0.9, mala_tau=0.01,
                           seed=1, hidden=8, diag_samples=16)
    rows = driver.run_atsmc(target, cfg).log_rows
    passes = cfg.kq * len(rows)    # k_q passes per level and in the final sweep
    assert len(rows) > 3 and len(calls["mala_step"]) == passes
    # the initial evaluation, then the proposals of each pass
    assert calls["log_density"] == [{"with_grad": True}] * (passes + 1)
    assert calls["grad_log_density"] == []


@pytest.mark.parametrize("kernel", ["rwmh", "imh", "cis"])
def test_flow_step_evaluates_target_once(kernel, monkeypatch):
    # k_q = 1: every iteration is a flow step.  Outside the flow's vector
    # field (ODE integration, the closing push and training read the
    # tempered score, which calls the target), one log-density call for
    # the initial cache, one per flow step (at the proposals, all
    # candidates of the CIS kernel stacked) and one in the diagnostics
    # report
    target = targets.make_gmm4()
    calls = []
    inner = target.log_density
    in_field = while_running(monkeypatch, (kernels, "integrate_rows"),
                             (cfm, "train_step"), (flow, "push_samples"))

    def counted(x, **kwargs):
        if not in_field:
            calls.append(len(x))
        return inner(x, **kwargs)

    target.log_density = counted
    cfg = smoke_config(iters=4, particles=16, kq=1, nonlocal_kernel=kernel)
    art = driver.run_mfm(target, cfg)
    driver.run_report(target, cfg, art)
    assert art.ensemble.flow_proposed == 4 * 16
    assert len(calls) == 6
    per_step = 16 * (kernels.CIS_CANDIDATES if kernel == "cis" else 1)
    assert calls == [16] + [per_step] * 4 + [cfg.diag_samples]


@pytest.mark.parametrize("run", ["mfm", "atsmc"])
def test_ensemble_cache_matches_fresh_evaluation(run):
    # after MALA passes, resampling and (mfm, k_q=3) flow steps, the cached
    # oracle values are those of the final positions
    target = targets.make_gmm4()
    cfg = smoke_config(iters=8, particles=16)
    if run == "mfm":
        ens = driver.run_mfm(target, cfg).ensemble
        assert ens.flow_proposed > 0
    else:
        ens = driver.run_atsmc(target, cfg).ensemble
    fresh = kernels.evaluate(target, ens.positions)
    for name in ("x", "log_target", "grad_target"):
        assert np.array_equal(getattr(ens.chains, name), getattr(fresh, name)), name


def test_atsmc_moments_1d():
    # the reference N(0, 1) is 3 times as wide as the target; in the
    # target's units (positions / scale, tau / scale^2) this is the run
    # from N(0, 3^2) to N(0, 1) with tau = 0.5
    scale = 1.0 / 3.0
    target = gaussian(np.zeros(1), scale)
    cfg = ExperimentConfig(iters=1, particles=4096, kq=20,
                           mala_tau=0.5 * scale ** 2, seed=3, hidden=8,
                           diag_samples=16)
    art = driver.run_atsmc(target, cfg)
    ens, rows = art.ensemble, art.log_rows
    assert abs((ens.positions / scale).var() - 1.0) <= 0.1
    betas = [r["beta"] for r in rows]
    increasing = [b for b in betas if b < 1.0] + [1.0]
    assert all(b2 > b1 for b1, b2 in zip(increasing, increasing[1:]))
    assert betas[-1] == 1.0


def test_atsmc_weights_match_ess_solve(rng):
    # the incremental weights the resampler uses are exactly the ESS weights
    from mfm import tempering
    target = targets.make_gmm4()
    x = rng.standard_normal((64, 2))
    lr = kernels.evaluate(target, x).log_ratios()
    assert np.array_equal(lr, target.log_density(x)
                          - targets.standard_normal(2).log_density(x))
    state = tempering.next_beta(lr, tempering.TemperState(0.0, 0.5))
    log_w = (state.beta - 0.0) * lr
    w = np.exp(log_w - log_w.max())
    ess = (w.sum() ** 2) / (64 * (w ** 2).sum())
    assert ess == pytest.approx(tempering.ess_fraction(lr, 0.0, state.beta),
                                rel=1e-12)


def test_atsmc_refuses_weights_that_all_vanish():
    # a log-density of -inf at every particle leaves no finite importance weight
    target = targets.TargetDensity(
        2, lambda x: (np.full(len(x), -np.inf), np.zeros_like(x)),
        lambda x, v: np.zeros_like(x))
    with np.errstate(invalid="ignore"), \
            pytest.raises(DegenerateWeights, match="importance weights vanished"):
        driver.run_atsmc(target, smoke_config(mode="atsmc"))


# -- FM oracle ------------------------------------------------------------------------

def test_fm_oracle_requires_sampler():
    lgcp = targets.make_lgcp(4)
    with pytest.raises(ValueError):
        driver.run_fm_oracle(lgcp, smoke_config())


def test_fm_oracle_smoke_gmm4():
    art = driver.run_fm_oracle(targets.make_gmm4(), smoke_config(iters=5))
    assert len(art.log_rows) == 5
    assert np.all(np.isfinite(flow.flow_to_vector(art.flow_params)))


def test_diagnose_flow_reproducible():
    target = targets.make_gmm4()
    cfg = smoke_config(iters=3)
    art = driver.run_mfm(target, cfg)
    r1 = driver.run_report(target, cfg, art)
    r2 = driver.diagnose_flow(art.flow_params, target, cfg, art.ensemble.temper.beta)
    assert r1.mmd2_unbiased == r2.mmd2_unbiased
    assert r1.ksd_u == r2.ksd_u
    assert r1.mean_logpi == r2.mean_logpi
