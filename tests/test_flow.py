import numpy as np
import pytest
from scipy.linalg import expm

from mfm import flow, nets, targets
from mfm.errors import NonFiniteScore, NonFiniteState, ShapeMismatch
from mfm.flow import AugmentedState, OdeConfig


def gaussian_with_precision(prec):
    """Zero-mean Gaussian with a general SPD precision; score is -prec @ x."""
    prec = np.asarray(prec, dtype=float)
    d = prec.shape[0]
    return targets.TargetDensity(
        d,
        lambda x: -0.5 * np.sum(np.atleast_2d(x) * (np.atleast_2d(x) @ prec), axis=-1),
        lambda x: -np.atleast_2d(x) @ prec if np.ndim(x) > 1 else -prec @ np.asarray(x),
        lambda x, v: (-np.broadcast_to(v, np.shape(x)) @ prec
                      if np.ndim(x) > 1 else -prec @ np.asarray(v)),
        name="gauss_prec",
    )


def score_flow(d):
    """net_x = 0, net_t = 1, scale = 1: the field equals the target score."""
    fp = flow.flow_zero(d)
    fp.net_t.biases[-1][:] = 1.0
    fp.net_scale.biases[-1][:] = np.log(np.expm1(1.0 - flow.SCALE_FLOOR))
    return fp


def random_spd(rng, d, scale=0.5):
    a = rng.standard_normal((d, d)) * scale / d
    return a @ a.T + scale * np.eye(d)


# -- vector field ----------------------------------------------------------------

def test_zero_nets_zero_field(rng):
    fp = flow.flow_zero(3)
    x = rng.standard_normal((4, 3))
    assert np.all(flow.vector_field(fp, targets.standard_normal(3), 0.4, x) == 0.0)


def test_score_construction_gives_minus_x(rng):
    fp = score_flow(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((6, 2))
    assert np.allclose(flow.vector_field(fp, std, 0.7, x), -x, atol=1e-12)


def test_field_scales_inversely_with_time_reweighting(rng):
    d = 2
    std = targets.standard_normal(d)
    fp = score_flow(d)
    v1 = flow.vector_field(fp, std, 0.2, np.ones(d))
    # double the divisor: 0.1 + softplus(u) = 2
    fp.net_scale.biases[-1][:] = np.log(np.expm1(2.0 - flow.SCALE_FLOOR))
    v2 = flow.vector_field(fp, std, 0.2, np.ones(d))
    assert np.allclose(v2, v1 / 2.0, atol=1e-12)


# -- divergence --------------------------------------------------------------------

def test_divergence_zero_field(rng):
    fp = flow.flow_zero(3)
    std = targets.standard_normal(3)
    x = rng.standard_normal(3)
    assert flow.divergence(fp, std, 0.5, x, OdeConfig()) == 0.0
    hut = OdeConfig(divergence="hutchinson", n_probes=2)
    assert flow.divergence(fp, std, 0.5, x, hut, rng) == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_divergence_linear_diagonal_field(rng, d):
    fp = score_flow(d)
    std = targets.standard_normal(d)
    x = rng.standard_normal((5, d))
    div = flow.divergence(fp, std, 0.1, x, OdeConfig())
    assert np.allclose(div, -d, atol=1e-12)
    # Rademacher probes are exact on linear diagonal fields
    hut = OdeConfig(divergence="hutchinson", n_probes=1)
    divh = flow.divergence(fp, std, 0.1, x, hut, rng)
    assert np.allclose(divh, -d, atol=1e-12)


def test_exact_divergence_matches_finite_differences(rng):
    d = 3
    target = targets.make_gmm4() if d == 2 else gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=6)
    fp.net_x.weights[-1] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal(d)
    t = 0.37
    div = flow.divergence(fp, target, t, x, OdeConfig())
    h = 1e-6
    fd = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        fd += (flow.vector_field(fp, target, t, x + h * e)[i]
               - flow.vector_field(fp, target, t, x - h * e)[i]) / (2 * h)
    assert abs(div - fd) <= 1e-5 * max(1.0, abs(fd))


def test_hutchinson_unbiased(rng):
    d = 4
    target = gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal(d)
    exact = flow.divergence(fp, target, 0.5, x, OdeConfig())
    cfg = OdeConfig(divergence="hutchinson", n_probes=1)
    draws = np.array([flow.divergence(fp, target, 0.5, x, cfg, rng)
                      for _ in range(10_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 3.0 * max(se, 1e-12)


# -- the shared forward pass ----------------------------------------------------------

def test_nonfinite_score_rejected(rng):
    std = targets.standard_normal(2)
    bad = targets.TargetDensity(2, std.log_density,
                                lambda x: np.full(np.shape(x), np.nan),
                                std.hvp_log_density, name="nan_score")
    fp = flow.flow_init(rng, 2, hidden=4)
    x = rng.standard_normal((3, 2))
    with pytest.raises(NonFiniteScore):
        flow.vector_field(fp, bad, 0.3, x)
    with pytest.raises(NonFiniteScore):
        flow.divergence(fp, bad, 0.3, x, OdeConfig())


def test_time_rows_must_match_positions(rng):
    fp = flow.flow_init(rng, 2, hidden=4)
    std = targets.standard_normal(2)
    x = rng.standard_normal((3, 2))
    with pytest.raises(ShapeMismatch):
        flow.vector_field(fp, std, np.full(2, 0.3), x)
    with pytest.raises(ShapeMismatch):
        flow.divergence(fp, std, np.full(4, 0.3), x, OdeConfig())


def test_scalar_time_matches_per_row_time(rng):
    d, n, t = 3, 5, 0.37
    target = gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal((n, d))
    rows = np.full(n, t)
    assert np.allclose(flow.vector_field(fp, target, t, x),
                       flow.vector_field(fp, target, rows, x), rtol=0, atol=1e-12)
    exact = OdeConfig()
    assert np.allclose(flow.divergence(fp, target, t, x, exact),
                       flow.divergence(fp, target, rows, x, exact), rtol=0, atol=1e-12)
    hut = OdeConfig(divergence="hutchinson", n_probes=2)
    assert np.allclose(
        flow.divergence(fp, target, t, x, hut, np.random.Generator(np.random.Philox(9))),
        flow.divergence(fp, target, rows, x, hut, np.random.Generator(np.random.Philox(9))),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "hutchinson"])
def test_one_forward_pass_per_field_evaluation(rng, forward_passes, mode):
    d, n = 2, 7
    fp = flow.flow_init(rng, d, hidden=8)
    std = targets.standard_normal(d)
    x = rng.standard_normal((n, d))
    flow.integrate_rows(fp, std, x, OdeConfig(n_steps=1, divergence=mode), rng, True)
    # one RK4 step is 4 field evaluations, each net_x, net_t, net_scale once
    assert len(forward_passes) == 4 * 3
    assert [rows for net, rows in forward_passes if net is fp.net_x] == [n] * 4
    assert [rows for net, rows in forward_passes if net is fp.net_t] == [1] * 4
    assert [rows for net, rows in forward_passes if net is fp.net_scale] == [1] * 4


# -- integrator against the matrix-exponential oracle -------------------------------

def linear_errors(rng, n_steps, d=3):
    prec = random_spd(rng, d, scale=0.8)
    a_mat = -prec                       # field v = -prec x via the score flow
    fp = score_flow(d)
    target = gaussian_with_precision(prec)
    x0 = rng.standard_normal((4, d))
    state = flow.integrate_forward(fp, target, AugmentedState(x0, np.zeros(4)),
                                   OdeConfig(n_steps=n_steps))
    oracle_x = x0 @ expm(a_mat).T
    oracle_dlp = -np.trace(a_mat)
    ex = np.abs(state.x - oracle_x).max()
    ed = np.abs(state.delta_logp - oracle_dlp).max()
    return ex, ed


def test_integrator_matches_matrix_exponential(rng):
    ex, ed = linear_errors(rng, 32)
    assert ex <= 1e-6
    assert ed <= 1e-6


def test_integrator_fourth_order(rng):
    rng_state = np.random.Generator(np.random.Philox(77))
    e1, _ = linear_errors(rng_state, 8)
    rng_state = np.random.Generator(np.random.Philox(77))
    e2, _ = linear_errors(rng_state, 16)
    order = np.log2(e1 / e2)
    assert 3.7 <= order <= 4.3


def test_zero_field_integration_is_identity(rng):
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((3, 2))
    st = flow.integrate_forward(fp, std, AugmentedState(x, np.zeros(3)), OdeConfig())
    assert np.array_equal(st.x, x)
    assert np.all(st.delta_logp == 0.0)


def test_round_trip(rng):
    d = 3
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    cfg = OdeConfig(n_steps=64)
    x = rng.standard_normal((5, d))
    fwd = flow.integrate_forward(fp, std, AugmentedState(x, np.zeros(5)), cfg)
    back = flow.integrate_backward(fp, std, AugmentedState(fwd.x, np.zeros(5)), cfg)
    assert np.abs(back.x - x).max() <= 1e-6 * (1.0 + np.abs(x).max())
    assert np.abs(fwd.delta_logp + back.delta_logp).max() <= 1e-6


def test_nonzero_initial_dlp_rejected(rng):
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    with pytest.raises(ValueError):
        flow.integrate_forward(fp, std, AugmentedState(np.zeros((1, 2)), np.ones(1)),
                               OdeConfig())


# -- pullback -------------------------------------------------------------------------

def test_pullback_zero_field_equals_log_density(rng):
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((4, 2))
    assert np.allclose(flow.pullback_log_density(fp, std, x, OdeConfig()),
                       std.log_density(x))


def test_pullback_linear_oracle(rng):
    d = 2
    prec = random_spd(rng, d, scale=0.7)
    fp = score_flow(d)
    target = gaussian_with_precision(prec)
    x = rng.standard_normal(d)
    val = flow.pullback_log_density(fp, target, x, OdeConfig(n_steps=64))
    a_mat = -prec
    oracle = target.log_density(expm(a_mat) @ x) + np.trace(a_mat)
    assert abs(val - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_pullback_step_refinement(rng):
    d = 2
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    x = rng.standard_normal(d)
    v64 = flow.pullback_log_density(fp, std, x, OdeConfig(n_steps=64))
    v128 = flow.pullback_log_density(fp, std, x, OdeConfig(n_steps=128))
    assert abs(v64 - v128) <= 1e-6 * max(1.0, abs(v128))


# -- batch push ------------------------------------------------------------------------

def test_push_samples_zero_field_identity(rng):
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((6, 2))
    out, dlp = flow.push_samples(fp, std, x, OdeConfig())
    assert np.array_equal(out, x)
    assert np.all(dlp == 0.0)


def test_push_samples_single_row_matches_state_call(rng):
    d = 2
    fp = score_flow(d)
    std = targets.standard_normal(d)
    x = rng.standard_normal((1, d))
    out, dlp = flow.push_samples(fp, std, x, OdeConfig())
    st = flow.integrate_forward(fp, std, AugmentedState(x, np.zeros(1)), OdeConfig())
    assert np.array_equal(out, st.x)
    assert np.array_equal(dlp, st.delta_logp)


def test_push_samples_empty_batch():
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    out, dlp = flow.push_samples(fp, std, np.zeros((0, 2)), OdeConfig())
    assert out.shape == (0, 2) and dlp.shape == (0,)


def test_push_samples_worker_count_invariance(rng):
    d = 2
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    x = rng.standard_normal((700, d))
    out1, dlp1 = flow.push_samples(fp, std, x, OdeConfig(n_steps=8), workers=1)
    out4, dlp4 = flow.push_samples(fp, std, x, OdeConfig(n_steps=8), workers=4)
    assert np.array_equal(out1, out4)
    assert np.array_equal(dlp1, dlp4)


def test_push_samples_nonfinite_row_reports_index():
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = np.zeros((3, 2))
    x[1, 0] = np.inf
    with pytest.raises(NonFiniteState, match="row 1"):
        flow.push_samples(fp, std, x, OdeConfig())


def test_scale_positivity_arbitrary_params(rng):
    fp = flow.flow_init(rng, 2, hidden=8)
    fp.net_scale.weights[-1] = rng.normal(0, 10, size=fp.net_scale.weights[-1].shape)
    fp.net_scale.biases[-1] = rng.normal(-50, 10, size=fp.net_scale.biases[-1].shape)
    for t in np.linspace(0, 1, 101):
        ffb = nets.fourier_embed(t, fp.fourier)
        u = nets.mlp_forward(fp.net_scale, ffb)
        assert flow.SCALE_FLOOR + flow.softplus(u) > 0.0


def test_checkpoint_roundtrip(tmp_path, rng):
    fp = flow.flow_init(rng, 3, hidden=8)
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    loaded = flow.load_flow(path)
    assert loaded.dim == 3
    x = rng.standard_normal((4, 3))
    std = targets.standard_normal(3)
    assert np.array_equal(flow.vector_field(fp, std, 0.3, x),
                          flow.vector_field(loaded, std, 0.3, x))


def test_checkpoint_without_frequency_spacing_is_refused(tmp_path, rng):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 3, hidden=8))
    meta, arrays = nets.load_arrays(path)
    old_header = {k: v for k, v in meta.items() if k != "frequency_spacing"}
    nets.save_arrays(path, old_header, list(arrays.items()))
    with pytest.raises(ValueError, match="spacing"):
        flow.load_flow(path)
    nets.save_arrays(path, dict(old_header, frequency_spacing="geometric"),
                     list(arrays.items()))
    with pytest.raises(ValueError, match="spacing"):
        flow.load_flow(path)
