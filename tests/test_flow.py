import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from mfm import cfm, cli, flow, nets, targets
from mfm.errors import NonFiniteState, ShapeMismatch
from mfm.flow import OdeConfig

from conftest import fused, pack_arrays, rewrite_checkpoint, write_pre_merge_checkpoint


def gaussian_with_precision(prec):
    """Zero-mean Gaussian with a general SPD precision; score is -prec @ x."""
    prec = np.asarray(prec, dtype=float)
    d = prec.shape[0]

    def grad(x):
        return -x @ prec

    return targets.TargetDensity(
        d,
        fused(lambda x: -0.5 * np.sum(x * (x @ prec), axis=-1), grad),
        lambda x, v: -np.broadcast_to(v, x.shape) @ prec,
        name="gauss_prec",
    )


def score_flow(d):
    """net_x = 0, gate = 1, scale = 1: the field equals the target score."""
    fp = flow.flow_zero(d)
    fp.net_t.biases[-1][:d] = 1.0
    fp.net_t.biases[-1][d] = np.log(np.expm1(1.0 - flow.SCALE_FLOOR))
    return fp


def divergence_at(fp, target, t, x, rng=None):
    """Divergence of v(t, .) per row, from one forward pass of the field."""
    return flow.divergence(target, x, flow.field(fp, target, t, x), rng,
                           flow.Workspace.for_rows(fp, x.shape[0], True))


def use_hutchinson(monkeypatch):
    """Route every dimension to the one-probe Hutchinson divergence."""
    monkeypatch.setattr(flow, "EXACT_DIVERGENCE_MAX_DIM", 0)


def random_spd(rng, d, scale=0.5):
    a = rng.standard_normal((d, d)) * scale / d
    return a @ a.T + scale * np.eye(d)


# -- vector field ----------------------------------------------------------------

def test_zero_nets_zero_field(rng):
    fp = flow.flow_zero(3)
    x = rng.standard_normal((4, 3))
    assert np.all(flow.field(fp, targets.standard_normal(3), 0.4, x).v == 0.0)


def test_score_construction_gives_minus_x(rng):
    fp = score_flow(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((6, 2))
    assert np.allclose(flow.field(fp, std, 0.7, x).v, -x, atol=1e-12)


def test_field_scales_inversely_with_time_reweighting(rng):
    d = 2
    std = targets.standard_normal(d)
    fp = score_flow(d)
    v1 = flow.field(fp, std, 0.2, np.ones((1, d))).v
    # double the divisor: 0.1 + softplus(u) = 2
    fp.net_t.biases[-1][d] = np.log(np.expm1(2.0 - flow.SCALE_FLOOR))
    v2 = flow.field(fp, std, 0.2, np.ones((1, d))).v
    assert np.allclose(v2, v1 / 2.0, atol=1e-12)


# -- divergence --------------------------------------------------------------------

def test_divergence_zero_field(rng, monkeypatch):
    fp = flow.flow_zero(3)
    std = targets.standard_normal(3)
    x = rng.standard_normal((1, 3))
    assert divergence_at(fp, std, 0.5, x)[0] == 0.0
    use_hutchinson(monkeypatch)
    assert divergence_at(fp, std, 0.5, x, rng)[0] == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_divergence_linear_diagonal_field(rng, monkeypatch, d):
    fp = score_flow(d)
    std = targets.standard_normal(d)
    x = rng.standard_normal((5, d))
    div = divergence_at(fp, std, 0.1, x)
    assert np.allclose(div, -d, atol=1e-12)
    # Rademacher probes are exact on linear diagonal fields
    use_hutchinson(monkeypatch)
    divh = divergence_at(fp, std, 0.1, x, rng)
    assert np.allclose(divh, -d, atol=1e-12)


@pytest.mark.parametrize("case, point", [
    # near the mode at (8, 8), and between the modes at (-8, 8) and (8, 8)
    pytest.param("gmm4", (7.6, 8.3), id="gmm4-near-mode"),
    pytest.param("gmm4", (0.05, 7.7), id="gmm4-between-modes"),
    # unequal variances: near the mode at (4, -4), and amid the four modes
    # at (+-4, 4) and (+-4, 12)
    pytest.param("gmm16", (4.3, -3.8), id="gmm16-near-mode"),
    pytest.param("gmm16", (0.2, 8.1), id="gmm16-between-modes"),
    pytest.param("gauss3", None, id="gauss3"),
])
def test_exact_divergence_matches_finite_differences(case, point, rng):
    if case == "gauss3":
        target = gaussian_with_precision(random_spd(rng, 3))
        x = rng.standard_normal(3)
    else:
        target = targets.make_gmm4() if case == "gmm4" else targets.make_gmm16()
        x = np.array(point)
    d = target.dim
    fp = flow.flow_init(rng, d, hidden=6)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    t = 0.37
    div = divergence_at(fp, target, t, x[None])[0]
    h = 1e-6
    fd = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        fd += (flow.field(fp, target, t, (x + h * e)[None]).v[0, i]
               - flow.field(fp, target, t, (x - h * e)[None]).v[0, i]) / (2 * h)
    assert abs(div - fd) <= 1e-5 * max(1.0, abs(fd))


def test_hutchinson_unbiased(rng, monkeypatch):
    d = 4
    target = gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal(d)
    exact = divergence_at(fp, target, 0.5, x[None])[0]
    use_hutchinson(monkeypatch)
    draws = np.array([divergence_at(fp, target, 0.5, x[None], rng)[0]
                      for _ in range(10_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 3.0 * max(se, 1e-12)


def test_hutchinson_exact_without_gate(rng, monkeypatch):
    # net_t all zero: the gate, and with it the target term, vanishes, so
    # above the threshold the divergence is net_x's exact trace, whatever
    # the probes
    d, n = 4, 6
    target = gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    for a in fp.net_t.arrays():
        a[...] = 0.0
    x = rng.standard_normal((n, d))
    exact = divergence_at(fp, target, 0.5, x)
    use_hutchinson(monkeypatch)
    for seed in (1, 2):
        probes = np.random.Generator(np.random.Philox(seed))
        assert np.array_equal(divergence_at(fp, target, 0.5, x, probes), exact)


# -- the shared forward pass ----------------------------------------------------------

def test_time_rows_must_match_positions(rng):
    fp = flow.flow_init(rng, 2, hidden=4)
    std = targets.standard_normal(2)
    x = rng.standard_normal((3, 2))
    with pytest.raises(ShapeMismatch):
        flow.field(fp, std, np.full(2, 0.3), x)
    with pytest.raises(ShapeMismatch):
        flow.field(fp, std, np.full(4, 0.3), x)


def test_scalar_time_matches_per_row_time(rng, monkeypatch):
    d, n, t = 3, 5, 0.37
    target = gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal((n, d))
    rows = np.full(n, t)
    assert np.allclose(flow.field(fp, target, t, x).v,
                       flow.field(fp, target, rows, x).v, rtol=0, atol=1e-12)
    assert np.allclose(divergence_at(fp, target, t, x),
                       divergence_at(fp, target, rows, x), rtol=0, atol=1e-12)
    use_hutchinson(monkeypatch)
    assert np.allclose(
        divergence_at(fp, target, t, x, np.random.Generator(np.random.Philox(9))),
        divergence_at(fp, target, rows, x, np.random.Generator(np.random.Philox(9))),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "hutchinson"])
def test_one_forward_pass_per_field_evaluation(rng, monkeypatch, forward_passes, mode):
    d, n = 2, 7
    fp = flow.flow_init(rng, d, hidden=8)
    std = targets.standard_normal(d)
    x = rng.standard_normal((n, d))
    if mode == "hutchinson":
        use_hutchinson(monkeypatch)
    flow.integrate_rows(fp, std, x, OdeConfig(n_steps=1), rng, True)
    # one RK4 step is 4 field evaluations, each net_x and net_t once
    assert len(forward_passes) == 4 * 2
    assert [rows for net, rows in forward_passes if net is fp.net_x] == [n] * 4
    assert [rows for net, rows in forward_passes if net is fp.net_t] == [1] * 4


# -- integrator against the matrix-exponential oracle -------------------------------

def linear_errors(rng, n_steps, d=3):
    prec = random_spd(rng, d, scale=0.8)
    a_mat = -prec                       # field v = -prec x via the score flow
    fp = score_flow(d)
    target = gaussian_with_precision(prec)
    x0 = rng.standard_normal((4, d))
    x1, dlp, _ = flow.integrate_rows(fp, target, x0, OdeConfig(n_steps=n_steps),
                                     None, True)
    oracle_x = x0 @ expm(a_mat).T
    oracle_dlp = -np.trace(a_mat)
    ex = np.abs(x1 - oracle_x).max()
    ed = np.abs(dlp - oracle_dlp).max()
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
    x1, dlp, _ = flow.integrate_rows(fp, std, x, OdeConfig(), None, True)
    assert np.array_equal(x1, x)
    assert np.all(dlp == 0.0)


def test_round_trip(rng):
    d = 3
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    cfg = OdeConfig(n_steps=64)
    x = rng.standard_normal((5, d))
    fwd_x, fwd_dlp, _ = flow.integrate_rows(fp, std, x, cfg, None, True)
    back_x, back_dlp, _ = flow.integrate_rows(fp, std, fwd_x, cfg, None, False)
    assert np.abs(back_x - x).max() <= 1e-6 * (1.0 + np.abs(x).max())
    assert np.abs(fwd_dlp + back_dlp).max() <= 1e-6


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
    val = flow.pullback_log_density(fp, target, x[None], OdeConfig(n_steps=64))[0]
    a_mat = -prec
    oracle = target.log_density((expm(a_mat) @ x)[None])[0] + np.trace(a_mat)
    assert abs(val - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_pullback_step_refinement(rng):
    d = 2
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    x = rng.standard_normal(d)
    v64 = flow.pullback_log_density(fp, std, x[None], OdeConfig(n_steps=64))[0]
    v128 = flow.pullback_log_density(fp, std, x[None], OdeConfig(n_steps=128))[0]
    assert abs(v64 - v128) <= 1e-6 * max(1.0, abs(v128))


def test_pullback_nonfinite_row_raises():
    # a gate of 1e300 on the score blows up every row it touches; row 0
    # starts at the origin, where the standard normal score is zero.  Only
    # the gate: a scale of the same size would cancel it
    fp = flow.flow_zero(2)
    fp.net_t.biases[-1][:2] = 1e300
    std = targets.standard_normal(2)
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(NonFiniteState, match="row 1"):
        flow.pullback_log_density(fp, std, x, OdeConfig(n_steps=4))


# -- batch push ------------------------------------------------------------------------

def test_push_samples_zero_field_identity(rng):
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = rng.standard_normal((6, 2))
    out = flow.push_samples(fp, std, x, OdeConfig())
    assert np.array_equal(out, x)
    _, dlp, _ = flow.integrate_rows(fp, std, x, OdeConfig(), None, True)
    assert np.all(dlp == 0.0)


def test_push_samples_single_row_matches_state_call(rng):
    d = 2
    fp = score_flow(d)
    std = targets.standard_normal(d)
    x = rng.standard_normal((1, d))
    out = flow.push_samples(fp, std, x, OdeConfig())
    x1, dlp1, _ = flow.integrate_rows(fp, std, x, OdeConfig(), None, True)
    assert np.array_equal(out, x1)
    assert np.array_equal(flow.pullback_log_density(fp, std, x, OdeConfig()),
                          std.log_density(x1) - dlp1)


def test_push_samples_empty_batch():
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    out = flow.push_samples(fp, std, np.zeros((0, 2)), OdeConfig())
    assert out.shape == (0, 2)
    _, dlp, ok = flow.integrate_rows(fp, std, np.zeros((0, 2)), OdeConfig(),
                                     None, True)
    assert dlp.shape == (0,) and ok.shape == (0,)


def test_push_samples_matches_chunked_integration(rng):
    d = 2
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    x = rng.standard_normal((700, d))
    cfg = OdeConfig(n_steps=8)
    out = flow.push_samples(fp, std, x, cfg)
    # 256-row slices, as the push runs them at lgcp size, with the divergence
    chunks = [flow.integrate_rows(fp, std, x[lo:lo + 256], cfg, None, True)
              for lo in range(0, x.shape[0], 256)]
    assert np.array_equal(np.concatenate([r[0] for r in chunks]), out)
    # and the slicing does not show: one call over every row gives the same bits
    x1, _, ok = flow.integrate_rows(fp, std, x, cfg, None, True)
    assert ok.all()
    assert np.array_equal(x1, out)


@pytest.mark.parametrize("dim,hidden,slices", [(2, 128, [2048]), (1600, 1024, [256] * 8)])
def test_push_slices_by_values(monkeypatch, dim, hidden, slices):
    # rows per integrate_rows call are PUSH_SLICE_VALUES // max(dim, hidden);
    # the stub integrates nothing, so no lgcp-sized work runs
    calls = []

    def stub(params, target, xb, cfg, rng, forward, with_dlp=True):
        calls.append(xb.shape[0])
        return xb, np.zeros(xb.shape[0]), np.ones(xb.shape[0], dtype=bool)

    monkeypatch.setattr(flow, "integrate_rows", stub)
    x0 = np.broadcast_to(np.arange(2048.0)[:, None], (2048, dim))
    out = flow.push_samples(flow.flow_zero(dim, hidden), targets.standard_normal(dim),
                            x0, OdeConfig())
    assert calls == slices
    assert np.array_equal(out, x0)


@pytest.mark.parametrize("case", ["exact", "positions", "hutchinson"])
@pytest.mark.parametrize("forward", [True, False])
def test_integrate_rows_workspace_is_bit_identical(monkeypatch, case, forward):
    # integrate_rows writes every field evaluation into one workspace; the
    # reference calls field without one and gives the divergence a new
    # workspace, so each evaluation allocates its own arrays
    if case == "hutchinson":
        use_hutchinson(monkeypatch)
    with_dlp = case != "positions"
    d, n = 3, 256
    r = np.random.Generator(np.random.Philox(8))
    fp = flow.flow_init(r, d, hidden=32)
    fp.net_x.weights[-1][...] = r.uniform(-0.3, 0.3, size=fp.net_x.weights[-1].shape)
    target = gaussian_with_precision(random_spd(r, d))
    x = r.standard_normal((n, d))
    cfg = OdeConfig(n_steps=6)
    probes = np.random.Generator(np.random.Philox(9))

    def fresh(t, xb):
        fe = flow.field(fp, target, t, xb)
        div = (flow.divergence(target, xb, fe, probes,
                               flow.Workspace.for_rows(fp, n, True)) if with_dlp
               else np.zeros(n))
        return fe.v, div

    t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
    ref_x, ref_dlp = flow.rk4_integrate(fresh, x, t0, t1, cfg.n_steps)
    got_x, got_dlp, ok = flow.integrate_rows(
        fp, target, x, cfg, np.random.Generator(np.random.Philox(9)), forward,
        with_dlp=with_dlp)
    assert ok.all()
    assert np.array_equal(got_x, ref_x)
    assert np.array_equal(got_dlp, ref_dlp)


def counting_hvp(target):
    """target with hvp_log_density wrapped; returns (target, call list)."""
    calls = []
    inner = target.hvp_log_density

    def hvp(x, v):
        calls.append(x.shape[0])
        return inner(x, v)

    target.hvp_log_density = hvp
    return target, calls


@pytest.mark.parametrize("mode", ["exact", "hutchinson"])
def test_push_samples_evaluates_no_divergence(rng, monkeypatch, mode):
    cfg = OdeConfig(n_steps=4)
    if mode == "hutchinson":
        use_hutchinson(monkeypatch)
    fp = flow.flow_init(rng, 2, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std, calls = counting_hvp(targets.standard_normal(2))
    x = rng.standard_normal((200, 2))
    out = flow.push_samples(fp, std, x, cfg)
    assert calls == []
    # the kernels' integration still runs the divergence, and the push
    # lands every row exactly where it does
    x1, _, ok = flow.integrate_rows(fp, std, x, cfg, rng, True)
    assert len(calls) > 0 and ok.all()
    assert np.array_equal(out, x1)


def test_push_samples_ignores_nonfinite_hvp(rng):
    std = targets.standard_normal(2)
    bad = targets.TargetDensity(2, std.value_and_grad,
                                lambda x, v: np.full(x.shape, np.nan),
                                name="nan_hvp")
    fp = flow.flow_init(rng, 2, hidden=8)
    x = rng.standard_normal((5, 2))
    out = flow.push_samples(fp, bad, x, OdeConfig(n_steps=4))
    assert np.all(np.isfinite(out))
    _, _, ok = flow.integrate_rows(fp, bad, x, OdeConfig(n_steps=4), None, True)
    assert not ok.any()


def test_push_samples_blown_up_row_reports_index():
    # same blow-up as test_pullback_nonfinite_row_raises: the gate of 1e300
    # sends row 1's velocity to infinity, row 0 sits where the score is zero
    fp = flow.flow_zero(2)
    fp.net_t.biases[-1][:2] = 1e300
    std = targets.standard_normal(2)
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(NonFiniteState, match="row 1"):
        flow.push_samples(fp, std, x, OdeConfig(n_steps=4))


def test_push_samples_nonfinite_row_reports_index():
    fp = flow.flow_zero(2)
    std = targets.standard_normal(2)
    x = np.zeros((3, 2))
    x[1, 0] = np.inf
    with pytest.raises(NonFiniteState, match="row 1"):
        flow.push_samples(fp, std, x, OdeConfig())


def test_scale_positivity_arbitrary_params(rng):
    fp = flow.flow_init(rng, 2, hidden=8)
    fp.net_t.weights[-1][...] = rng.normal(0, 10, size=fp.net_t.weights[-1].shape)
    fp.net_t.biases[-1][...] = rng.normal(-50, 10, size=fp.net_t.biases[-1].shape)
    for t in np.linspace(0, 1, 101):
        ffb = nets.fourier_embed(t)[None]
        u = nets.mlp_forward_cache(fp.net_t, ffb)[0][:, -1]
        assert flow.SCALE_FLOOR + flow.softplus(u) > 0.0


def test_vector_to_flow_returns_views_without_packing(rng):
    fp = flow.flow_init(rng, 3, hidden=8)
    vec = flow.flow_to_vector(fp)
    back = flow.vector_to_flow(vec, fp)
    assert back.flat is vec
    for net_name in ("net_x", "net_t"):
        for a, b in zip(getattr(back, net_name).arrays(),
                        getattr(fp, net_name).arrays()):
            assert np.shares_memory(a, vec)
            assert np.array_equal(a, b)


# (dimension, hidden width, parameter count) of each preset's flow; only
# lgcp's hidden width is above TIME_HIDDEN_MAX
PRESET_FLOWS = {"gmm4": (2, 128, 38_277), "field": (64, 256, 189_825),
                "lgcp": (1600, 1024, 4_827_009)}


@pytest.mark.parametrize("preset", PRESET_FLOWS)
def test_preset_flow_parameter_counts(preset):
    dim, hidden, count = PRESET_FLOWS[preset]
    assert cli.PRESETS[preset]["hidden"] == hidden
    assert flow.flow_zero(dim, hidden).flat.size == count


def test_time_networks_are_capped_above_the_cap(rng):
    hidden, cap = flow.TIME_HIDDEN_MAX + 44, flow.TIME_HIDDEN_MAX
    fp = flow.flow_init(rng, 3, hidden)
    assert fp.net_x.sizes == (19, hidden, hidden, 3)
    assert fp.net_t.sizes == (16, cap, cap, 4)


def drawn_then_packed(rng, dim, hidden):
    """flat of flow_init as it was: every layer drawn as a float64 array
    (zeroing net_x's last layer after its draw), then all packed at once."""
    arrays = []
    for i, sizes in enumerate(flow._layer_sizes(dim, hidden)):
        for j, (a, b) in enumerate(zip(sizes, sizes[1:])):
            scale = 1.0 / np.sqrt(a)
            w = rng.uniform(-scale, scale, size=(a, b))
            if i == 0 and j == len(sizes) - 2:
                w = np.zeros_like(w)
            arrays += [w, np.zeros(b)]
    return pack_arrays(arrays, flow._param_dtype(hidden))


@pytest.mark.parametrize("dim, hidden", [(3, 16), (5, flow.TIME_HIDDEN_MAX),
                                         (3, flow.TIME_HIDDEN_MAX + 44)])
def test_flow_init_draws_the_bits_of_draw_then_pack(dim, hidden):
    fp = flow.flow_init(np.random.Generator(np.random.Philox(5)), dim, hidden)
    want = drawn_then_packed(np.random.Generator(np.random.Philox(5)), dim, hidden)
    assert fp.flat.dtype == want.dtype == flow._param_dtype(hidden)
    assert fp.flat.tobytes() == want.tobytes()


def test_flow_init_holds_one_float64_layer_at_a_time():
    # a float32 flow: the flat vector plus one float64 draw of its largest
    # layer, never every layer in float64 (3.4 MB more here)
    dim, hidden = 64, 2 * flow.TIME_HIDDEN_MAX
    largest = max(a * b for sizes in flow._layer_sizes(dim, hidden)
                  for a, b in zip(sizes, sizes[1:]))
    tracemalloc.start()
    try:
        fp = flow.flow_init(np.random.Generator(np.random.Philox(5)), dim, hidden)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fp.flat.dtype == np.float32
    assert peak <= fp.flat.nbytes + 8 * largest + 64 * 1024


@pytest.mark.parametrize("hidden, dtype", [(flow.TIME_HIDDEN_MAX + 1, np.float32),
                                           (flow.TIME_HIDDEN_MAX, np.float64)])
def test_network_dtype_follows_the_width(rng, hidden, dtype):
    # a cheap wide flow (d = 2) is float32, one at TIME_HIDDEN_MAX float64:
    # the networks, their caches, the workspace and the trace matrix are in
    # the flow's dtype; the field value, the score and everything the
    # integrator carries stay float64
    n, target, cfg = 5, targets.make_gmm4(), OdeConfig(n_steps=4)
    for fp in (flow.flow_init(rng, 2, hidden), flow.flow_zero(2, hidden)):
        assert fp.flat.dtype == dtype
        assert all(a.dtype == dtype for net in (fp.net_x, fp.net_t)
                   for a in net.arrays())
    x = rng.standard_normal((n, 2))
    ws = flow.Workspace.for_rows(fp, n, True)
    fe = flow.field(fp, target, 0.3, x, ws)
    assert all(a.dtype == dtype for a in ws.layers + ws.trace + [ws.mix])
    assert all(a.dtype == dtype for a in fe.acts_x + fe.acts_t)
    assert fe.v.dtype == fe.score.dtype == np.float64
    assert flow.divergence(target, x, fe, rng, ws).dtype == np.float64
    y, dlp, ok = flow.integrate_rows(fp, target, x, cfg, rng, True)
    assert ok.all() and y.dtype == dlp.dtype == np.float64
    assert flow.push_samples(fp, target, x, cfg).dtype == np.float64


def test_float32_flow_matches_its_float64_twin(rng):
    # the same weights in float64 are the reference; float32 network
    # arithmetic moves v and dlp by float32 rounding only
    fp32 = flow.flow_init(rng, 2, flow.TIME_HIDDEN_MAX + 1)
    fp32.net_x.weights[-1][...] = rng.uniform(-0.1, 0.1, fp32.net_x.weights[-1].shape)
    fp64 = flow.vector_to_flow(fp32.flat.astype(np.float64), fp32)
    target, x = targets.make_gmm4(), 3.0 * rng.standard_normal((6, 2))
    tol = 64 * np.finfo(np.float32).eps
    v32, v64 = (flow.field(fp, target, 0.3, x).v for fp in (fp32, fp64))
    assert np.allclose(v32, v64, rtol=tol, atol=tol * np.abs(v64).max())
    (y32, dlp32, _), (y64, dlp64, _) = (
        flow.integrate_rows(fp, target, x, OdeConfig(n_steps=4), None, True)
        for fp in (fp32, fp64))
    assert np.allclose(y32, y64, rtol=tol, atol=tol * np.abs(y64).max())
    assert np.allclose(dlp32, dlp64, rtol=tol, atol=tol * np.abs(dlp64).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wide_checkpoint_keeps_its_dtype(tmp_path, rng, dtype):
    # a float32 wide flow is written as it is, not widened, and stamped; a
    # float64 one, as every flow was saved before wide flows became
    # float32, is unstamped and read back in float64
    fp = flow.flow_init(rng, 2, flow.TIME_HIDDEN_MAX + 1)
    fp = flow.vector_to_flow(fp.flat.astype(dtype), fp)
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    header, data = path.read_bytes().split(b"\n", 1)
    assert json.loads(header).get("dtype") == ("float32" if dtype == np.float32 else None)
    assert data == fp.flat.tobytes()
    loaded = flow.load_flow(path)
    assert loaded.flat.dtype == dtype
    assert loaded.flat.tobytes() == fp.flat.tobytes()


def test_checkpoint_of_an_unknown_dtype_is_refused(tmp_path, rng):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 2, hidden=8))
    rewrite_checkpoint(path, lambda h: dict(h, dtype="float16"))
    with pytest.raises(ValueError, match="dtype 'float16'"):
        flow.load_flow(path)


def test_pre_merge_checkpoint_is_refused(tmp_path, rng):
    # a separate net_scale: the layout of every checkpoint saved before the
    # merge, refused rather than misread
    path = tmp_path / "flow.ckpt"
    write_pre_merge_checkpoint(path, rng)
    with pytest.raises(ValueError, match="net_scale"):
        flow.load_flow(path)


def test_checkpoint_roundtrip(tmp_path, rng):
    fp = flow.flow_init(rng, 3, hidden=8)
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    loaded = flow.load_flow(path)
    assert loaded.dim == 3
    x = rng.standard_normal((4, 3))
    std = targets.standard_normal(3)
    assert np.array_equal(flow.field(fp, std, 0.3, x).v,
                          flow.field(loaded, std, 0.3, x).v)


# the same weights under other time features: the spacing of checkpoints
# from before it was stamped (missing), the geometric spacing of earlier
# code, and another count or base frequency
OTHER_TIME_FEATURES = {"spacing_missing": ("frequency_spacing", None),
                       "spacing_geometric": ("frequency_spacing", "geometric"),
                       "n_frequencies_6": ("n_frequencies", 6),
                       "base_frequency_2pi": ("base_frequency", 2 * np.pi)}


@pytest.mark.parametrize("key, value", OTHER_TIME_FEATURES.values(),
                         ids=OTHER_TIME_FEATURES.keys())
def test_checkpoint_without_frequency_spacing_is_refused(tmp_path, rng, key, value):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 3, hidden=8))
    # a value of None drops the key
    rewrite_checkpoint(path, lambda h: {k: v for k, v in {**h, key: value}.items()
                                        if v is not None})
    stamped = re.escape(f"time features {{{key!r}: {value!r}}}")
    with pytest.raises(ValueError, match=stamped):
        flow.load_flow(path)


# save_flow's header line for flow_zero(2, hidden=3): the time features are
# stamped as they have been since the spacing became linear, and net_t ends
# in the gate's 2 outputs and u
CHECKPOINT_HEADER = (
    b'{"kind": "flow", "dim": 2, "n_frequencies": 8, '
    b'"base_frequency": 3.141592653589793, "frequency_spacing": "linear", '
    b'"arrays": {"names": ['
    b'"net_x.w0", "net_x.b0", "net_x.w1", "net_x.b1", "net_x.w2", "net_x.b2", '
    b'"net_t.w0", "net_t.b0", "net_t.w1", "net_t.b1", "net_t.w2", "net_t.b2"], '
    b'"shapes": [[18, 3], [3], [3, 3], [3], [3, 2], [2], '
    b'[16, 3], [3], [3, 3], [3], [3, 3], [3]]}}')


# the same for flow_zero(2, hidden=TIME_HIDDEN_MAX + 1), a float32 flow: the
# dtype stamp comes before the arrays, and net_t is TIME_HIDDEN_MAX wide
FLOAT32_CHECKPOINT_HEADER = (
    b'{"kind": "flow", "dim": 2, "n_frequencies": 8, '
    b'"base_frequency": 3.141592653589793, "frequency_spacing": "linear", '
    b'"dtype": "float32", '
    b'"arrays": {"names": ['
    b'"net_x.w0", "net_x.b0", "net_x.w1", "net_x.b1", "net_x.w2", "net_x.b2", '
    b'"net_t.w0", "net_t.b0", "net_t.w1", "net_t.b1", "net_t.w2", "net_t.b2"], '
    b'"shapes": [[18, 257], [257], [257, 257], [257], [257, 2], [2], '
    b'[16, 256], [256], [256, 256], [256], [256, 3], [3]]}}')


@pytest.mark.parametrize("hidden, header", [
    (3, CHECKPOINT_HEADER), (flow.TIME_HIDDEN_MAX + 1, FLOAT32_CHECKPOINT_HEADER)],
    ids=["float64", "float32"])
def test_checkpoint_header_is_stable(tmp_path, rng, hidden, header):
    fp = flow.flow_zero(2, hidden=hidden)
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    assert path.read_bytes().split(b"\n", 1)[0] == header
    # a checkpoint with that header loads as the field of its weights
    weights = rng.standard_normal(fp.flat.size).astype(fp.flat.dtype.newbyteorder("<"))
    path.write_bytes(header + b"\n" + weights.tobytes())
    loaded = flow.load_flow(path)
    x = rng.standard_normal((4, 2))
    std = targets.standard_normal(2)
    expected = flow.vector_to_flow(weights, fp)
    assert np.array_equal(flow.field(loaded, std, 0.3, x).v,
                          flow.field(expected, std, 0.3, x).v)


def test_checkpoint_with_mismatched_shapes_is_refused(tmp_path, rng):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 3, hidden=8))
    saved = path.read_bytes()

    def broken(header):
        # net_t's second layer takes 5 inputs where its first gives 8
        spec = header["arrays"]
        shapes = [[5, 8] if name == "net_t.w1" else shape
                  for name, shape in zip(spec["names"], spec["shapes"])]
        return dict(header, arrays=dict(spec, shapes=shapes))

    cases = [(broken, "net_t.w1"),
             # 3 positions + 16 time features, read as 4 + 16
             (lambda h: dict(h, dim=4), "net_x.w0")]
    for header, culprit in cases:
        path.write_bytes(saved)
        rewrite_checkpoint(path, header)
        with pytest.raises(ValueError, match=culprit.replace(".", r"\.")):
            flow.load_flow(path)


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _arrays(**entries):
    return lambda header: dict(header, arrays=dict(header["arrays"], **entries))


def _hidden_zero(header):
    """The d = 2 header of a flow without hidden units (5 output biases)."""
    layout = flow._checkpoint_arrays(2, 0)
    return dict(header, arrays={"names": [name for name, _ in layout],
                                "shapes": [shape for _, shape in layout]})


# (rewrite_checkpoint's maps, what the error names after the path) of d = 2
# checkpoints that load_flow refuses with a ValueError: a header that is not
# an object, a dim that is no positive integer, "arrays" that are not names
# and shapes lists of one length, a net_x without hidden units, and data
# that is not the layout's bytes
MALFORMED_CHECKPOINTS = {
    "header_a_list": ({"header": lambda h: [h]}, "the header is not a JSON object"),
    "kind_not_flow": ({"header": lambda h: dict(h, kind="adam")}, "is not a flow checkpoint"),
    "header_cut_short": ({"header": lambda h: b'{"kind": "flow"'},
                         "the header is not a JSON object"),
    "header_not_utf8": ({"header": lambda h: b"\xff"}, "the header is not a JSON object"),
    "dim_missing": ({"header": _without("dim")}, "dim None"),
    "dim_bool": ({"header": lambda h: dict(h, dim=True)}, "dim True"),
    "dim_fractional": ({"header": lambda h: dict(h, dim=2.7)}, "dim 2.7"),
    "dim_a_string": ({"header": lambda h: dict(h, dim="2")}, "dim '2'"),
    "dim_zero": ({"header": lambda h: dict(h, dim=0)}, "dim 0"),
    "arrays_missing": ({"header": _without("arrays")}, "arrays are not"),
    "arrays_a_list": ({"header": lambda h: dict(h, arrays=list(h["arrays"].values()))},
                      "arrays are not"),
    "names_missing": ({"header": lambda h: dict(h, arrays={"shapes": []})},
                      "arrays are not"),
    "shapes_not_a_list": ({"header": _arrays(shapes=5)}, "arrays are not"),
    "one_name_for_12_shapes": ({"header": _arrays(names=["net_x.w0"])}, "arrays are not"),
    "hidden_zero": ({"header": _hidden_zero, "data": lambda d: np.zeros(5).tobytes()},
                    "net_x is 0 wide"),
    "three_trailing_bytes": ({"data": lambda d: d + b"\0\0\0"}, "data bytes"),
    "one_value_short": ({"data": lambda d: d[:-8]}, "data bytes"),
    "three_bytes_short": ({"data": lambda d: d[:-3]}, "data bytes"),
}


@pytest.mark.parametrize("maps, named", MALFORMED_CHECKPOINTS.values(),
                         ids=MALFORMED_CHECKPOINTS.keys())
def test_malformed_checkpoint_is_refused(tmp_path, rng, maps, named):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 2, hidden=8))
    rewrite_checkpoint(path, **maps)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(named)):
        flow.load_flow(path)


def test_save_flow_refuses_a_flow_of_another_layout(tmp_path, rng):
    # net_t 5 wide, where _layer_sizes(3, 8) makes it 8 wide
    sizes = [flow._layer_sizes(3, 8)[0], (16, 5, 5, 4)]
    flat = rng.standard_normal(sum(nets.mlp_size(s) for s in sizes))
    parts = nets.unpack(flat, [(nets.mlp_size(s),) for s in sizes])
    odd = flow.FlowParams(*(nets.vector_to_mlp(p, s) for p, s in zip(parts, sizes)), flat)
    path = tmp_path / "flow.ckpt"
    with pytest.raises(ValueError, match="checkpoint layout"):
        flow.save_flow(path, odd)
    assert not path.exists()


def _flat_backed_flow(constructor, rng, tmp_path):
    """A flow from one of the constructors of a flat-backed FlowParams."""
    fp = flow.flow_init(rng, 3, hidden=8)
    if constructor == "flow_zero":
        return flow.flow_zero(3)
    if constructor == "vector_to_flow":
        return flow.vector_to_flow(rng.standard_normal(fp.flat.size), fp)
    if constructor == "load_flow":
        flow.save_flow(tmp_path / "saved.ckpt", fp)
        return flow.load_flow(tmp_path / "saved.ckpt")
    if constructor == "cfm_gradient":
        return cfm.cfm_loss_and_grad(fp, targets.standard_normal(3),
                                     rng.standard_normal((5, 3)), rng)[1]
    return fp


@pytest.mark.parametrize("constructor", ["flow_init", "flow_zero", "vector_to_flow",
                                         "load_flow", "cfm_gradient"])
def test_layers_are_views_into_flat(tmp_path, rng, constructor):
    fp = _flat_backed_flow(constructor, rng, tmp_path)
    flat = fp.flat
    assert flow.flow_to_vector(fp) is flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    offset = 0
    for net in (fp.net_x, fp.net_t):
        for layer in net.arrays():
            assert layer.ctypes.data == flat.ctypes.data + 8 * offset
            assert np.shares_memory(layer, flat)
            offset += layer.size
    assert offset == flat.size

    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    blob = path.read_bytes()
    assert blob[blob.index(b"\n") + 1:] == flat.tobytes()

    with pytest.raises(TypeError):
        fp.net_x.weights[-1] = np.zeros_like(fp.net_x.weights[-1])
    with pytest.raises(AttributeError):
        fp.net_t = fp.net_x
    fp.net_t.biases[-1][...] = 7.0
    assert flat[-1] == 7.0
