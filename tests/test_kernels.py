import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mfm import flow, kernels, targets
from mfm.flow import OdeConfig

from conftest import fused, gaussian_with_overflow

FAST_ODE = OdeConfig(n_steps=8)


def run_chains(step_fn, base, target, n_chains=256, n_steps=500, burn=100, d=1,
               seed=99):
    """Moment check over a bank of chains; one kernel call mutates all chains.

    step_fn(chains, rng) runs on the cached chain state of (base, target).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    chains = kernels.evaluate(base, target, rng.standard_normal((n_chains, d)))
    kept = []
    for i in range(n_steps):
        chains = step_fn(chains, rng).chains
        if i >= burn:
            kept.append(chains.x.copy())
    return np.concatenate(kept, axis=0), np.stack(kept)  # pooled, (T, N, d)


def moment_check(pooled, per_step):
    # SE of the grand mean from per-chain means (chains are independent)
    chain_means = per_step.mean(axis=0)[:, 0]
    se = chain_means.std(ddof=1) / np.sqrt(chain_means.size)
    assert abs(pooled.mean()) <= 3.0 * se
    assert abs(pooled.var() - 1.0) <= 0.05


# -- MALA --------------------------------------------------------------------------

def mala_at_target(target, tau, x, rng):
    """One Langevin step on target itself (beta = 1, target as both endpoints)."""
    return kernels.mala_step(target, target, tau, kernels.evaluate(target, target, x),
                             1.0, rng)


def test_mala_acceptance_to_one_as_tau_shrinks(rng):
    std = targets.standard_normal(2)
    x = np.zeros((64, 2))
    out = mala_at_target(std, 1e-6, x, rng)
    assert np.exp(out.log_alpha).min() > 1.0 - 1e-4


def test_mala_hastings_self_consistency(rng):
    # recompute both transition densities directly from the formula
    std = targets.make_gmm4()
    tau = 0.3
    x = rng.standard_normal((1, 2))
    grad_x = std.grad_log_density(x)
    y = x + tau * grad_x + np.sqrt(2 * tau) * rng.standard_normal((1, 2))
    grad_y = std.grad_log_density(y)

    def log_q(b, a, grad_a):
        return -np.sum((b - a - tau * grad_a) ** 2) / (4 * tau)

    direct = log_q(x, y, grad_y) - log_q(y, x, grad_x)
    again = log_q(x, y, std.grad_log_density(y)) - log_q(y, x, std.grad_log_density(x))
    assert direct == pytest.approx(again, abs=1e-12)


def test_mala_moments():
    std = targets.standard_normal(1)
    pooled, per_step = run_chains(
        lambda chains, rng: kernels.mala_step(std, std, 0.5, chains, 1.0, rng),
        std, std)
    moment_check(pooled, per_step)


def test_mala_invariant_under_lognormalization_shift(rng):
    base = targets.standard_normal(2)
    shifted = targets.TargetDensity(
        2, fused(lambda x: base.log_density(x) + 55.0, base.grad_log_density),
        base.grad_log_density, base.hvp_log_density)
    x = rng.standard_normal((8, 2))
    # the chain cache holds the shifted value, so the kernels below really
    # compare a shifted density with the base
    assert np.array_equal(kernels.evaluate(base, shifted, x).log_target,
                          base.log_density(x) + 55.0)
    r1 = np.random.Generator(np.random.Philox(3))
    r2 = np.random.Generator(np.random.Philox(3))
    o1 = mala_at_target(base, 0.2, x, r1)
    o2 = mala_at_target(shifted, 0.2, x, r2)
    assert np.array_equal(o1.chains.x, o2.chains.x)
    assert np.allclose(o1.log_alpha, o2.log_alpha, atol=1e-12)


def test_mala_rejects_nonfinite_proposals_row_by_row(rng):
    x = rng.standard_normal((8, 2))
    bad = np.array([1, 4, 5])
    x[bad, 0] = 10.0
    clean = gaussian_with_overflow(np.inf)
    overflowing = gaussian_with_overflow(5.0)
    o_clean = mala_at_target(clean, 0.5, x,
                             np.random.Generator(np.random.Philox(3)))
    out = mala_at_target(overflowing, 0.5, x,
                         np.random.Generator(np.random.Philox(3)))
    assert out.n_nonfinite == 3 and o_clean.n_nonfinite == 0
    assert not out.accepted[bad].any()
    assert np.all(out.log_alpha[bad] == -np.inf)
    assert np.array_equal(out.chains.x[bad], x[bad])
    good = np.setdiff1d(np.arange(8), bad)
    # the same noise and uniforms: the finite rows move exactly as before
    assert o_clean.accepted[good].any()
    assert np.array_equal(out.chains.x[good], o_clean.chains.x[good])
    assert np.array_equal(out.log_alpha[good], o_clean.log_alpha[good])


def fresh_mala_step(density, tau, x, rng):
    """The Langevin kernel with every oracle evaluated afresh on one density.

    Kept as the oracle for the cached kernel: the same draws in the same
    order, log pi and its gradient recomputed at x and at y.
    """
    grad_x = density.grad_log_density(x)
    noise = rng.standard_normal(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        y = x + tau * grad_x + np.sqrt(2.0 * tau) * noise
    ok = np.all(np.isfinite(y), axis=1)
    y = np.where(ok[:, None], y, x)
    grad_y = density.grad_log_density(y)
    logp_x = density.log_density(x)
    logp_y = density.log_density(y)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q_fwd = -np.sum((y - x - tau * grad_x) ** 2, axis=1) / (4.0 * tau)
        log_q_rev = -np.sum((x - y - tau * grad_y) ** 2, axis=1) / (4.0 * tau)
        log_alpha = np.minimum(0.0, logp_y + log_q_rev - logp_x - log_q_fwd)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    u = rng.uniform(size=log_alpha.shape)
    with np.errstate(invalid="ignore"):
        acc = np.log(u) < log_alpha
    return np.where(acc[:, None], y, x), acc, log_alpha, int(np.sum(~ok))


CHAIN_FIELDS = ("x", "log_target", "log_base", "grad_target", "grad_base")


def assert_same_chains(a, b):
    for name in CHAIN_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def small_lgcp():
    spec = targets.LgcpSpec(m_side=4)
    return targets.make_lgcp(spec, targets.synthetic_lgcp_counts(spec, seed=0))


@pytest.mark.parametrize("make_target, tau, scale",
                         [(targets.make_gmm4, 1.5, 4.0), (small_lgcp, 0.6, 1.0)],
                         ids=["gmm4", "lgcp"])
def test_mala_matches_fresh_evaluation_oracle(make_target, tau, scale):
    target = make_target()
    base = targets.standard_normal(target.dim)
    beta = 0.3
    x = scale * np.random.Generator(np.random.Philox(5)).standard_normal((64, target.dim))
    out = kernels.mala_step(base, target, tau,
                            kernels.evaluate(base, target, x), beta,
                            np.random.Generator(np.random.Philox(7)))
    new_x, acc, log_alpha, n_nonfinite = fresh_mala_step(
        targets.tempered(base, target, beta), tau, x,
        np.random.Generator(np.random.Philox(7)))
    assert acc.any() and not acc.all()
    assert np.array_equal(out.chains.x, new_x)
    assert np.array_equal(out.accepted, acc)
    assert np.array_equal(out.log_alpha, log_alpha)
    assert out.n_nonfinite == n_nonfinite == 0
    assert_same_chains(out.chains, kernels.evaluate(base, target, out.chains.x))


@settings(max_examples=40)
@given(beta=st.floats(0.0, 1.0), data=st.data())
def test_chain_state_mixes_like_tempered_and_commutes_with_rows(beta, data):
    base, target = targets.standard_normal(2), targets.make_gmm4()
    n = data.draw(st.integers(1, 9), label="n")
    coords = st.floats(-12.0, 12.0)
    x = data.draw(arrays(float, (n, 2), elements=coords), label="x")
    chains = kernels.evaluate(base, target, x)

    logp, grad = chains.tempered(beta)
    oracle = targets.tempered(base, target, beta)
    assert np.array_equal(logp, oracle.log_density(x))
    assert np.array_equal(grad, oracle.grad_log_density(x))

    idx = data.draw(arrays(np.intp, data.draw(st.integers(1, 9)),
                           elements=st.integers(0, n - 1)), label="idx")
    assert_same_chains(chains.take(idx), kernels.evaluate(base, target, x[idx]))

    y = data.draw(arrays(float, (n, 2), elements=coords), label="y")
    mask = data.draw(arrays(bool, n), label="mask")
    assert_same_chains(chains.where(mask, kernels.evaluate(base, target, y)),
                       kernels.evaluate(base, target,
                                        np.where(mask[:, None], y, x)))


# -- flow kernels: helpers and the fresh-evaluation oracles ----------------------------

def flow_at_target(step, target, fp, cfg, x, rng, *extra, base=None, **kw):
    """One flow step on target itself (beta = 1); base is the reference density."""
    base = base or target
    return step(base, target, fp, cfg, kernels.evaluate(base, target, x), 1.0, rng,
                *extra, **kw)


def rwmh_log_alpha(target, x, y):
    """Plain random-walk MH log ratio log pi(y) - log pi(x) (clamped at 0)."""
    return np.minimum(0.0, target.log_density(y) - target.log_density(x))


def fresh_flow_rwmh_step(density, fp, cfg, _p0, x, rng):
    """The flow kernels evaluating one density afresh at x and at the proposals.

    These three are kept as the oracles of the cached kernels: the same
    draws in the same order, log pi recomputed at the current points, and
    CIS integrating candidate by candidate and selecting row by row.
    Each takes the reference density p0 (unused by the random walk) and
    returns (new_x, accepted, log_alpha, n_nonfinite).
    """
    sigma = 2.38 / np.sqrt(x.shape[1])
    x0, dlp_back, ok_b = flow.integrate_rows(fp, density, x, cfg, rng, False)
    y0 = np.where(ok_b[:, None], x0, 0.0) + sigma * rng.standard_normal(x.shape)
    y1, dlp_fwd, ok_f = flow.integrate_rows(fp, density, y0, cfg, rng, True)
    ok = ok_b & ok_f
    logp_x = density.log_density(x)
    with np.errstate(invalid="ignore"):
        logp_y = density.log_density(np.where(ok[:, None], y1, 0.0))
        log_alpha = np.minimum(0.0, logp_y - dlp_fwd - logp_x - dlp_back)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = np.log(rng.uniform(size=log_alpha.shape)) < log_alpha
    new_x = np.where(acc[:, None], np.where(ok[:, None], y1, x), x)
    return new_x, acc, log_alpha, int(np.sum(~ok))


def fresh_flow_imh_step(density, fp, cfg, p0, x, rng):
    u0, dlp_back, ok_b = flow.integrate_rows(fp, density, x, cfg, rng, False)
    x0 = p0.sampler(rng, x.shape[0])
    x1, dlp_fwd, ok_f = flow.integrate_rows(fp, density, x0, cfg, rng, True)
    ok = ok_b & ok_f
    logp_x = density.log_density(x)
    with np.errstate(invalid="ignore"):
        log_q_x = p0.log_density(np.where(ok_b[:, None], u0, 0.0)) - dlp_back
        log_q_x1 = p0.log_density(x0) + dlp_fwd
        logp_x1 = density.log_density(np.where(ok[:, None], x1, 0.0))
        log_alpha = np.minimum(0.0, logp_x1 + log_q_x - log_q_x1 - logp_x)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = np.log(rng.uniform(size=log_alpha.shape)) < log_alpha
    new_x = np.where(acc[:, None], np.where(ok[:, None], x1, x), x)
    return new_x, acc, log_alpha, int(np.sum(~ok))


def fresh_flow_cis_step(density, fp, cfg, q0, x, rng, n_candidates):
    n, d = x.shape
    u0, dlp_back, ok_b = flow.integrate_rows(fp, density, x, cfg, rng, False)
    n_nonfinite = int(np.sum(~ok_b))
    with np.errstate(invalid="ignore"):
        log_w0 = (density.log_density(x)
                  - q0.log_density(np.where(ok_b[:, None], u0, 0.0)) + dlp_back)
    log_w = np.full((n, n_candidates + 1), -np.inf)
    log_w[:, 0] = np.where(ok_b, log_w0, -np.inf)
    candidates = np.empty((n, n_candidates, d))
    for k in range(n_candidates):
        x0 = q0.sampler(rng, n)
        x1, dlp_fwd, ok = flow.integrate_rows(fp, density, x0, cfg, rng, True)
        n_nonfinite += int(np.sum(~ok))
        with np.errstate(invalid="ignore"):
            lw = (density.log_density(np.where(ok[:, None], x1, 0.0))
                  - q0.log_density(x0) - dlp_fwd)
        log_w[:, k + 1] = np.where(ok, lw, -np.inf)
        candidates[:, k] = np.where(ok[:, None], x1, 0.0)
    finite_any = np.any(np.isfinite(log_w), axis=1)
    shifted = log_w - np.max(np.where(np.isfinite(log_w), log_w, -np.inf),
                             axis=1, initial=-np.inf, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    totals = w.sum(axis=1)
    u = rng.uniform(size=n)
    new_x = x.copy()
    accepted = np.zeros(n, dtype=bool)
    log_alpha = np.zeros(n)
    for i in range(n):
        if not finite_any[i] or totals[i] <= 0.0:
            log_alpha[i] = -np.inf
            continue
        probs = w[i] / totals[i]
        idx = min(int(np.searchsorted(np.cumsum(probs), u[i])), n_candidates)
        log_alpha[i] = min(0.0, np.log1p(-probs[0]) if probs[0] < 1.0 else -np.inf)
        if idx > 0:
            new_x[i] = candidates[i, idx - 1]
            accepted[i] = True
    return new_x, accepted, log_alpha, n_nonfinite


def bent_flow(rng, d, hidden, spread):
    """A random flow whose position net is switched on."""
    fp = flow.flow_init(rng, d, hidden=hidden)
    fp.net_x.weights[-1][...] = rng.uniform(-spread, spread, size=fp.net_x.weights[-1].shape)
    return fp


@pytest.mark.parametrize("kernel", ["rwmh", "imh", "cis"])
def test_flow_kernels_match_fresh_evaluation_oracle(kernel):
    # N = 64, a multiple of 4: the stacked CIS integration is then
    # bit-identical to candidate-by-candidate integration (at other N, BLAS
    # tails may differ in the last place)
    base, target, beta = targets.standard_normal(2), targets.make_gmm4(), 0.3
    fp = bent_flow(np.random.Generator(np.random.Philox(11)), 2, 8, 0.5)
    cfg = OdeConfig(n_steps=8)
    x = 4.0 * np.random.Generator(np.random.Philox(5)).standard_normal((64, 2))
    density = targets.tempered(base, target, beta)
    step, fresh, extra = {
        "rwmh": (kernels.flow_rwmh_step, fresh_flow_rwmh_step, ()),
        "imh": (kernels.flow_imh_step, fresh_flow_imh_step, ()),
        "cis": (kernels.flow_cis_step, fresh_flow_cis_step, (3,)),
    }[kernel]
    out = step(base, target, fp, cfg, kernels.evaluate(base, target, x), beta,
               np.random.Generator(np.random.Philox(7)), *extra)
    new_x, acc, log_alpha, n_nonfinite = fresh(
        density, fp, cfg, base, x, np.random.Generator(np.random.Philox(7)), *extra)
    assert acc.any() and not acc.all()
    assert np.array_equal(out.chains.x, new_x)
    assert np.array_equal(out.accepted, acc)
    assert np.array_equal(out.log_alpha, log_alpha)
    assert out.n_nonfinite == n_nonfinite
    assert_same_chains(out.chains, kernels.evaluate(base, target, new_x))


# -- flow-informed random walk -------------------------------------------------------

def test_flow_rwmh_zero_flow_equals_plain_rwmh(rng):
    std = targets.make_gmm4()
    zf = flow.flow_zero(2)
    x = np.array([[0.5, -0.3], [4.0, 4.0], [-7.0, 8.0]])
    out = flow_at_target(kernels.flow_rwmh_step, std, zf, FAST_ODE, x,
                         np.random.Generator(np.random.Philox(4)),
                         base=targets.standard_normal(2))
    # replay the same noise to recover the proposal, then compare ratios exactly
    replay = np.random.Generator(np.random.Philox(4))
    noise = replay.standard_normal(x.shape)
    y = x + (2.38 / np.sqrt(2.0)) * noise
    assert np.array_equal(out.log_alpha, rwmh_log_alpha(std, x, y))


def test_flow_rwmh_round_trip_alpha_one(rng):
    # zero injected noise: proposal is the round-trip point, alpha = 1 up to
    # integrator error
    d = 2
    fp = bent_flow(rng, d, 8, 0.2)
    std = targets.standard_normal(d)
    x = rng.standard_normal((4, d))
    out = flow_at_target(kernels.flow_rwmh_step, std, fp, OdeConfig(n_steps=32), x,
                         rng, noise_scale=0.0)
    assert np.all(out.log_alpha >= -1e-6)


def test_flow_rwmh_sigma_opt():
    assert 2.38 / np.sqrt(4.0) == pytest.approx(1.19)


def test_flow_rwmh_moments():
    std = targets.standard_normal(1)
    zf = flow.flow_zero(1)
    pooled, per_step = run_chains(
        lambda chains, rng: kernels.flow_rwmh_step(std, std, zf, FAST_ODE, chains,
                                                   1.0, rng),
        std, std)
    moment_check(pooled, per_step)


def test_flow_rwmh_nonfinite_counts_as_rejection(rng):
    # a flow whose scale net drives the field to astronomically large values
    d = 1
    fp = flow.flow_zero(d)
    fp.net_t.biases[-1][:] = 1e300
    def heavy_grad(x):
        return -2.0 * x ** 3

    heavy = targets.TargetDensity(
        1, fused(lambda x: -0.5 * np.sum(x ** 4, axis=-1), heavy_grad),
        heavy_grad,
        lambda x, v: -6.0 * x ** 2 * v)
    x = np.full((3, 1), 5.0)
    out = flow_at_target(kernels.flow_rwmh_step, heavy, fp, FAST_ODE, x, rng)
    assert out.n_nonfinite == 3
    assert not out.accepted.any()
    assert np.array_equal(out.chains.x, x)


# -- independence sampler ---------------------------------------------------------------

def test_flow_imh_zero_flow_exact_reference(rng):
    std = targets.standard_normal(2)
    zf = flow.flow_zero(2)
    x = rng.standard_normal((16, 2))
    out = flow_at_target(kernels.flow_imh_step, std, zf, FAST_ODE, x, rng)
    assert np.all(out.log_alpha > -1e-10)
    assert out.accepted.all()


def test_flow_imh_unnormalized_invariance(rng):
    std = targets.standard_normal(1)
    scaled = targets.TargetDensity(
        1, fused(lambda x: std.log_density(x) + np.log(2.0), std.grad_log_density),
        std.grad_log_density, std.hvp_log_density)
    zf = flow.flow_zero(1)
    x = rng.standard_normal((8, 1))
    r1 = np.random.Generator(np.random.Philox(6))
    r2 = np.random.Generator(np.random.Philox(6))
    o1 = flow_at_target(kernels.flow_imh_step, std, zf, FAST_ODE, x, r1, base=std)
    o2 = flow_at_target(kernels.flow_imh_step, scaled, zf, FAST_ODE, x, r2, base=std)
    assert np.allclose(o1.log_alpha, o2.log_alpha, atol=1e-12)


def test_flow_imh_matches_pullback_oracle(rng):
    # two-route check: acceptance recomputed from pullback_log_density
    d = 2
    fp = bent_flow(rng, d, 6, 0.3)
    target = targets.make_gmm4()
    p0 = targets.standard_normal(d)
    x = rng.standard_normal((5, d)) * 2
    seed = 1234
    cfg = OdeConfig(n_steps=32)
    out = flow_at_target(kernels.flow_imh_step, target, fp, cfg, x,
                         np.random.Generator(np.random.Philox(seed)), base=p0)
    # replay the draw to recover the fresh reference points
    replay = np.random.Generator(np.random.Philox(seed))
    u0 = flow.integrate_rows(fp, target, x, cfg, replay, False)[0]
    x0 = p0.sampler(replay, 5)
    # pullback-space IMH ratio: r(z) = pullback(z) - log p0(z) evaluated at the
    # two reference points; alpha = min(1, r(x0) - r(u0))
    ratio = (flow.pullback_log_density(fp, target, x0, cfg)
             - p0.log_density(x0)
             - flow.pullback_log_density(fp, target, u0, cfg)
             + p0.log_density(u0))
    assert np.allclose(out.log_alpha, np.minimum(0.0, ratio), atol=1e-6)


def test_flow_imh_moments():
    std = targets.standard_normal(1)
    ref = targets.gaussian(np.zeros(1), 1.5)
    zf = flow.flow_zero(1)
    pooled, per_step = run_chains(
        lambda chains, rng: kernels.flow_imh_step(ref, std, zf, FAST_ODE, chains,
                                                  1.0, rng),
        ref, std)
    moment_check(pooled, per_step)


# -- conditional importance sampling ------------------------------------------------------

def test_flow_cis_retention_probability_half(rng):
    std = targets.standard_normal(1)
    zf = flow.flow_zero(1)
    x = np.zeros((4000, 1))
    out = flow_at_target(kernels.flow_cis_step, std, zf, FAST_ODE, x, rng, 1)
    frac = out.accepted.mean()
    assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / 4000)


def test_flow_cis_unnormalized_invariance(rng):
    std = targets.standard_normal(1)
    scaled = targets.TargetDensity(
        1, fused(lambda x: std.log_density(x) + 3.0, std.grad_log_density),
        std.grad_log_density, std.hvp_log_density)
    zf = flow.flow_zero(1)
    x = rng.standard_normal((16, 1))
    o1 = flow_at_target(kernels.flow_cis_step, std, zf, FAST_ODE, x,
                        np.random.Generator(np.random.Philox(8)), 3, base=std)
    o2 = flow_at_target(kernels.flow_cis_step, scaled, zf, FAST_ODE, x,
                        np.random.Generator(np.random.Philox(8)), 3, base=std)
    assert np.array_equal(o1.chains.x, o2.chains.x)
    assert np.array_equal(o1.accepted, o2.accepted)


def test_flow_cis_evaluates_gradients_at_selected_rows_only(rng, monkeypatch):
    # log pi at all N * n_candidates candidates, which the weights need;
    # gradients, outside the ODE integration, only at the N selected rows
    base, target = targets.standard_normal(2), targets.make_gmm4()
    fp = bent_flow(np.random.Generator(np.random.Philox(11)), 2, 8, 0.5)
    chains = kernels.evaluate(base, target, 4.0 * rng.standard_normal((16, 2)))
    rows = {"log_density": [], "grad_log_density": []}
    integrating = []
    integrate = kernels.integrate_rows

    def flagged(*args):
        integrating.append(True)
        try:
            return integrate(*args)
        finally:
            integrating.pop()

    def counted(name, inner):
        def wrapper(x):
            if not integrating:
                rows[name].append(len(x))
            return inner(x)
        return wrapper

    monkeypatch.setattr(kernels, "integrate_rows", flagged)
    for name in rows:
        setattr(target, name, counted(name, getattr(target, name)))
    kernels.flow_cis_step(base, target, fp, FAST_ODE, chains, 0.3, rng, 4)
    assert rows == {"log_density": [64], "grad_log_density": [16]}


def test_flow_cis_zero_candidates_rejected(rng):
    std = targets.standard_normal(1)
    zf = flow.flow_zero(1)
    with pytest.raises(ValueError):
        flow_at_target(kernels.flow_cis_step, std, zf, FAST_ODE, np.zeros((2, 1)),
                       rng, 0)


def test_flow_cis_moments():
    std = targets.standard_normal(1)
    zf = flow.flow_zero(1)
    pooled, per_step = run_chains(
        lambda chains, rng: kernels.flow_cis_step(std, std, zf, FAST_ODE, chains,
                                                  1.0, rng, 4),
        std, std)
    moment_check(pooled, per_step)


def test_log_alpha_always_nonpositive(rng):
    std = targets.standard_normal(2)
    zf = flow.flow_zero(2)
    x = rng.standard_normal((32, 2))
    for out in [mala_at_target(std, 0.7, x, rng),
                flow_at_target(kernels.flow_rwmh_step, std, zf, FAST_ODE, x, rng),
                flow_at_target(kernels.flow_imh_step, std, zf, FAST_ODE, x, rng)]:
        assert np.all(out.log_alpha <= 0.0)
