import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from mfm import cfm, flow, nets, targets
from mfm.errors import NonFiniteState, ShapeMismatch
from mfm.flow import OdeConfig

from conftest import fused


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
    """net_x = 0, net_t = 1, scale = 1: the field equals the target score."""
    fp = flow.flow_zero(d)
    fp.net_t.biases[-1][:] = 1.0
    fp.net_scale.biases[-1][:] = np.log(np.expm1(1.0 - flow.SCALE_FLOOR))
    return fp


def divergence_at(fp, target, t, x, rng=None):
    """Divergence of v(t, .) per row, from one forward pass of the field."""
    return flow.divergence(fp, target, x, flow.field(fp, target, t, x), rng)


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
    fp.net_scale.biases[-1][:] = np.log(np.expm1(2.0 - flow.SCALE_FLOOR))
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


def test_exact_divergence_matches_finite_differences(rng):
    d = 3
    target = targets.make_gmm4() if d == 2 else gaussian_with_precision(random_spd(rng, d))
    fp = flow.flow_init(rng, d, hidden=6)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    x = rng.standard_normal(d)
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
    # starts at the origin, where the standard normal score is zero
    fp = flow.flow_zero(2)
    fp.net_t.biases[-1][:] = 1e300
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


def test_push_samples_worker_count_invariance(rng):
    d = 2
    fp = flow.flow_init(rng, d, hidden=8)
    fp.net_x.weights[-1][...] = rng.uniform(-0.2, 0.2, size=fp.net_x.weights[-1].shape)
    std = targets.standard_normal(d)
    x = rng.standard_normal((700, d))
    cfg = OdeConfig(n_steps=8)
    out1 = flow.push_samples(fp, std, x, cfg, workers=1)
    out4 = flow.push_samples(fp, std, x, cfg, workers=4)
    assert np.array_equal(out1, out4)

    # the same row chunks with the divergence, in order and on 4 threads
    def chunk(bounds):
        return flow.integrate_rows(fp, std, x[bounds[0]:bounds[1]], cfg, None, True)

    chunks = flow._split_rows(x.shape[0])
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(chunk, chunks))
    serial = [chunk(c) for c in chunks]
    dlp1 = np.concatenate([r[1] for r in serial])
    dlp4 = np.concatenate([r[1] for r in threaded])
    assert np.array_equal(dlp1, dlp4)
    assert np.array_equal(np.concatenate([r[0] for r in serial]), out1)


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
    fp.net_t.biases[-1][:] = 1e300
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
    fp.net_scale.weights[-1][...] = rng.normal(0, 10, size=fp.net_scale.weights[-1].shape)
    fp.net_scale.biases[-1][...] = rng.normal(-50, 10, size=fp.net_scale.biases[-1].shape)
    for t in np.linspace(0, 1, 101):
        ffb = nets.fourier_embed(t)[None]
        u = nets.mlp_forward_cache(fp.net_scale, ffb)[0]
        assert flow.SCALE_FLOOR + flow.softplus(u) > 0.0


def test_vector_to_flow_returns_views_without_packing(rng, monkeypatch):
    fp = flow.flow_init(rng, 3, hidden=8)
    vec = flow.flow_to_vector(fp)

    def refuse(*_args):
        raise AssertionError("vector_to_flow packed a vector")

    monkeypatch.setattr(nets, "pack_arrays", refuse)
    back = flow.vector_to_flow(vec, fp)
    for net_name in ("net_x", "net_t", "net_scale"):
        for a, b in zip(getattr(back, net_name).arrays(),
                        getattr(fp, net_name).arrays()):
            assert np.shares_memory(a, vec)
            assert np.array_equal(a, b)


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
    meta, arrays = nets.load_arrays(path)
    header = {k: v for k, v in meta.items() if k != key}
    if value is not None:
        header[key] = value
    nets.save_arrays(path, header, list(arrays.items()))
    stamped = re.escape(f"time features {{{key!r}: {value!r}}}")
    with pytest.raises(ValueError, match=stamped):
        flow.load_flow(path)


# save_flow's header line for flow_zero(2, hidden=3): the time features are
# stamped as they have been since the spacing became linear
CHECKPOINT_HEADER = (
    b'{"kind": "flow", "dim": 2, "n_frequencies": 8, '
    b'"base_frequency": 3.141592653589793, "frequency_spacing": "linear", '
    b'"arrays": {"names": ['
    b'"net_x.w0", "net_x.b0", "net_x.w1", "net_x.b1", "net_x.w2", "net_x.b2", '
    b'"net_t.w0", "net_t.b0", "net_t.w1", "net_t.b1", "net_t.w2", "net_t.b2", '
    b'"net_scale.w0", "net_scale.b0", "net_scale.w1", "net_scale.b1", '
    b'"net_scale.w2", "net_scale.b2"], '
    b'"shapes": [[18, 3], [3], [3, 3], [3], [3, 2], [2], '
    b'[16, 3], [3], [3, 3], [3], [3, 2], [2], '
    b'[16, 3], [3], [3, 3], [3], [3, 1], [1]]}}')


def test_checkpoint_header_is_stable(tmp_path, rng):
    fp = flow.flow_zero(2, hidden=3)
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, fp)
    assert path.read_bytes().split(b"\n", 1)[0] == CHECKPOINT_HEADER
    # a checkpoint with that header loads as the field of its weights
    weights = rng.standard_normal(fp.flat.size)
    path.write_bytes(CHECKPOINT_HEADER + b"\n" + weights.astype("<f8").tobytes())
    loaded = flow.load_flow(path)
    x = rng.standard_normal((4, 2))
    std = targets.standard_normal(2)
    expected = flow.vector_to_flow(weights, fp)
    assert np.array_equal(flow.field(loaded, std, 0.3, x).v,
                          flow.field(expected, std, 0.3, x).v)


def test_checkpoint_with_mismatched_shapes_is_refused(tmp_path, rng):
    path = tmp_path / "flow.ckpt"
    flow.save_flow(path, flow.flow_init(rng, 3, hidden=8))
    meta, arrays = nets.load_arrays(path)
    # net_t's second layer takes 5 inputs where its first gives 8
    broken = dict(arrays, **{"net_t.w1": np.zeros((5, 8))})
    cases = [(meta, broken, "net_t.w1"),
             # 3 positions + 16 time features, read as 4 + 16
             (dict(meta, dim=4), arrays, "net_x.w0")]
    for header, named, culprit in cases:
        nets.save_arrays(path, header, list(named.items()))
        with pytest.raises(ValueError, match=culprit.replace(".", r"\.")):
            flow.load_flow(path)


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
        return cfm.cfm_loss_and_grad(fp, targets.standard_normal(3), 0.01,
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
    for net in (fp.net_x, fp.net_t, fp.net_scale):
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
    fp.net_scale.biases[-1][...] = 7.0
    assert flat[-1] == 7.0
