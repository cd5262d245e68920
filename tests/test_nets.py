import json
import tracemalloc

import numpy as np
import pytest

from mfm import nets
from mfm.errors import NonFiniteGradient, ShapeMismatch

from conftest import richardson_grad


def small_net(rng, sizes=(3, 4, 4, 2)):
    return nets.mlp_init(rng, sizes)


def acts(p, x):
    return nets.mlp_forward_cache(p, x)[1]


def gradient_vector(p, a, cot):
    """mlp_param_gradient written into a flat vector allocated here."""
    flat = np.empty(nets.mlp_size(p.sizes))
    nets.mlp_param_gradient(p, a, cot, out=nets.vector_to_mlp(flat, p.sizes))
    return flat


def test_zero_net_outputs_zero():
    sizes = (3, 4, 4, 2)
    p = nets.vector_to_mlp(np.zeros(nets.mlp_size(sizes)), sizes)
    assert np.all(nets.mlp_forward_cache(p, np.ones((1, 3)))[0] == 0.0)


def test_single_linear_layer_identity():
    p = nets.MlpParams([np.eye(3)], [np.zeros(3)])
    x = np.array([[0.3, -1.2, 2.0]])
    assert np.allclose(nets.mlp_forward_cache(p, x)[0], x)


def test_forward_not_homogeneous(rng):
    p = small_net(rng)
    x = rng.standard_normal((1, 3))
    assert not np.allclose(nets.mlp_forward_cache(p, 2.0 * x)[0],
                           2.0 * nets.mlp_forward_cache(p, x)[0])


def test_forward_shape_mismatch(rng):
    p = small_net(rng)
    with pytest.raises(ShapeMismatch):
        nets.mlp_forward_cache(p, np.ones((1, 5)))


def test_param_gradient_zero_cotangent(rng):
    p = small_net(rng)
    g = nets.vector_to_mlp(gradient_vector(p, acts(p, rng.standard_normal((1, 3))),
                                           np.zeros((1, 2))), p.sizes)
    assert all(np.all(a == 0.0) for a in g.arrays())


def test_param_gradient_linear_closed_form(rng):
    w = np.array([[1.7]])
    p = nets.MlpParams([w], [np.zeros(1)])
    x = np.array([[2.5]])
    cot = np.array([[3.0]])
    g = nets.vector_to_mlp(gradient_vector(p, acts(p, x), cot), p.sizes)
    assert g.weights[0][0, 0] == pytest.approx(cot[0, 0] * x[0, 0])
    assert g.biases[0][0] == pytest.approx(cot[0, 0])


def test_param_gradient_matches_finite_differences(rng):
    for _ in range(20):
        p = small_net(rng)
        x = rng.standard_normal((1, 3))
        cot = rng.standard_normal((1, 2))
        gvec = gradient_vector(p, acts(p, x), cot)
        vec0 = nets.pack_arrays(p.arrays())

        def f(vec):
            out, _ = nets.mlp_forward_cache(nets.vector_to_mlp(vec, p.sizes), x)
            return float(cot[0] @ out[0])

        fd = richardson_grad(f, vec0)
        assert np.abs(gvec - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_input_jvp_zero_tangent(rng):
    p = small_net(rng)
    assert np.all(nets.mlp_input_jvp(p, acts(p, rng.standard_normal((1, 3))), np.zeros(3)) == 0.0)


def test_input_jvp_linear_network(rng):
    w = rng.standard_normal((3, 2))
    p = nets.MlpParams([w], [np.zeros(2)])
    tangent = rng.standard_normal(3)
    out1 = nets.mlp_input_jvp(p, acts(p, rng.standard_normal((1, 3))), tangent)
    out2 = nets.mlp_input_jvp(p, acts(p, rng.standard_normal((1, 3))), tangent)
    assert np.allclose(out1, tangent @ w)
    assert np.allclose(out1, out2)


def test_input_jvp_matches_finite_differences(rng):
    p = small_net(rng)
    x = rng.standard_normal((1, 3))
    v = rng.standard_normal(3)
    h = 1e-6
    fd = (nets.mlp_forward_cache(p, x + h * v)[0]
          - nets.mlp_forward_cache(p, x - h * v)[0]) / (2 * h)
    jvp = nets.mlp_input_jvp(p, acts(p, x), v)
    assert np.abs(jvp - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_jacobian_trace_matches_jvp_columns(rng):
    # net_x shape: d = 3 positions plus 2 extra inputs, trace over the first 3
    p = small_net(rng, (5, 6, 6, 3))
    xb = rng.standard_normal((4, 5))
    cache = acts(p, xb)
    columns = 0.0
    for i in range(3):
        e = np.zeros(5)
        e[i] = 1.0
        columns = columns + nets.mlp_input_jvp(p, cache, e)[:, i]
    assert np.allclose(nets.mlp_input_jacobian_trace(p, cache, 3), columns,
                       rtol=0, atol=1e-12)


def test_batch_gradient_sums_rows(rng):
    p = small_net(rng)
    xb = rng.standard_normal((4, 3))
    cb = rng.standard_normal((4, 2))
    total = gradient_vector(p, acts(p, xb), cb)
    parts = sum(gradient_vector(p, acts(p, xb[i:i + 1]), cb[i:i + 1])
                for i in range(4))
    assert np.allclose(total, parts, atol=1e-12)


# -- Fourier features ------------------------------------------------------------

def test_fourier_frequencies_linear():
    assert np.allclose(nets.FREQUENCIES, np.pi * np.arange(1, 9), rtol=0, atol=1e-15)
    assert nets.N_TIME_FEATURES == 16
    assert nets.fourier_embed(np.linspace(0, 1, 3)).shape == (3, 16)


def test_fourier_embed_t_zero():
    e = nets.fourier_embed(0.0)
    assert np.all(e[:8] == 0.0) and np.all(e[8:] == 1.0)


def test_fourier_embed_bounded_and_lipschitz():
    grid = np.linspace(0, 1, 300)
    emb = nets.fourier_embed(grid)
    assert np.all(np.abs(emb) <= 1.0)
    diffs = np.abs(np.diff(emb, axis=0)).max(axis=1)
    assert np.all(diffs <= nets.FREQUENCIES.max() * np.diff(grid)[0] + 1e-9)


def test_fourier_embed_distinct_times():
    grid = np.linspace(0.01, 0.99, 50)
    emb = nets.fourier_embed(grid)
    dists = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
    dists[np.diag_indices(50)] = np.inf
    assert dists.min() > 1e-6


# -- Adam --------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    state = nets.adam_init(3, 1e-2, 10)
    params = np.array([1.0, -2.0, 0.5])
    new, _ = nets.adam_step(state, params, np.zeros(3))
    assert np.array_equal(new, params)


def test_adam_schedule_reaches_zero():
    state = nets.adam_init(1, 1e-2, 5)
    params = np.array([1.0])
    for _ in range(5):
        params, state = nets.adam_step(state, params, np.array([2.0]))
    frozen = params.copy()
    for _ in range(3):
        params, state = nets.adam_step(state, params, np.array([-3.0]))
        assert np.array_equal(params, frozen)


def test_adam_first_step_size_and_direction():
    k_total = 100
    state = nets.adam_init(1, 1e-3, k_total)
    params = np.array([0.0])
    g = np.array([0.37])
    new, _ = nets.adam_step(state, params, g)
    expected = -1e-3 * (1 - 1 / k_total) * g / (np.abs(g) + 1e-8)
    assert new[0] == pytest.approx(expected[0], rel=1e-6)


def test_adam_sign_pattern(rng):
    g = rng.standard_normal(20)
    state = nets.adam_init(20, 1e-3, 50)
    new, _ = nets.adam_step(state, np.zeros(20), g)
    assert np.all(np.sign(new) == -np.sign(g))


def test_adam_rejects_nonfinite():
    state = nets.adam_init(2, 1e-3, 10)
    with pytest.raises(NonFiniteGradient):
        nets.adam_step(state, np.zeros(2), np.array([1.0, np.nan]))


def textbook_adam(m, v, k, state, params, gradient):
    """The full-size-temporary Adam update the blocked adam_step reproduces."""
    lr = state.step_size * max(0.0, 1.0 - k / state.total_steps)
    m = state.beta1 * m + (1.0 - state.beta1) * gradient
    v = state.beta2 * v + (1.0 - state.beta2) * gradient ** 2
    m_hat = m / (1.0 - state.beta1 ** k)
    v_hat = v / (1.0 - state.beta2 ** k)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps), m, v


def spread_magnitudes(rng, n):
    """Random signs times magnitudes from 1e-6 to 10."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 1.0, n)


def test_adam_bit_identical_to_textbook_update(rng):
    n = 2 * nets.ADAM_BLOCK + 123   # two full blocks and a ragged tail
    state = nets.adam_init(n, 1e-2, total_steps=4)
    params = spread_magnitudes(rng, n)
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    for k in range(1, 7):           # steps 5 and 6 run past total_steps
        g = spread_magnitudes(rng, n)
        ref, m, v = textbook_adam(m, v, k, state, ref, g)
        params, state = nets.adam_step(state, params, g)
        assert state.step == k
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)


def test_adam_leaves_params_and_gradient_unmodified(rng):
    n = nets.ADAM_BLOCK + 5
    state = nets.adam_init(n, 1e-2, 10)
    params, g = rng.standard_normal(n), rng.standard_normal(n)
    params0, g0 = params.copy(), g.copy()
    for _ in range(2):
        _, state = nets.adam_step(state, params, g)
    assert np.array_equal(params, params0)
    assert np.array_equal(g, g0)


def test_adam_nonfinite_gradient_leaves_moments(rng):
    n = nets.ADAM_BLOCK + 5
    params, state = nets.adam_step(nets.adam_init(n, 1e-2, 10), np.zeros(n),
                                   rng.standard_normal(n))
    m0, v0 = state.m.copy(), state.v.copy()
    bad = rng.standard_normal(n)
    bad[-1] = np.inf
    with pytest.raises(NonFiniteGradient):
        nets.adam_step(state, params, bad)
    assert np.array_equal(state.m, m0)
    assert np.array_equal(state.v, v0)
    assert state.step == 1


def test_adam_rejects_mismatched_moments():
    state = nets.adam_init(3, 1e-3, 10)
    with pytest.raises(ShapeMismatch):
        nets.adam_step(state, np.zeros(4), np.zeros(4))


def test_adam_allocates_one_vector():
    n = 1_000_003
    state = nets.adam_init(n, 1e-3, 10)
    params, g = np.ones(n), np.full(n, 0.5)
    tracemalloc.start()
    try:
        new, state = nets.adam_step(state, params, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * params.nbytes


# -- serialization -----------------------------------------------------------------

def test_save_load_arrays_roundtrip(tmp_path, rng):
    arrays = [("a", rng.standard_normal((3, 2))), ("b", rng.standard_normal(4))]
    path = tmp_path / "blob.ckpt"
    nets.save_arrays(path, {"kind": "test", "note": 7}, arrays)
    meta, loaded = nets.load_arrays(path)
    assert meta == {"kind": "test", "note": 7}
    for name, arr in arrays:
        assert np.array_equal(loaded[name], arr)


def test_save_arrays_writes_the_concatenated_float64_blob(tmp_path, rng):
    base = rng.standard_normal((5, 6))
    arrays = [("c", np.asfortranarray(base)), ("strided", base[:, ::2]),
              ("f32", rng.standard_normal(7).astype(np.float32)),
              ("big", rng.standard_normal((2, 3)).astype(">f8")),
              ("ints", np.arange(4)), ("empty", np.zeros((0, 3))),
              ("scalar", np.array(2.5))]
    meta = {"kind": "test"}
    path = tmp_path / "blob.ckpt"
    nets.save_arrays(path, meta, arrays)
    header = dict(meta, arrays={"names": [name for name, _ in arrays],
                                "shapes": [list(a.shape) for _, a in arrays]})
    expected = (json.dumps(header).encode("utf-8") + b"\n"
                + np.concatenate([np.ravel(a) for _, a in arrays]).astype("<f8").tobytes())
    assert path.read_bytes() == expected


def test_determinism_same_seed():
    a = nets.mlp_init(np.random.Generator(np.random.Philox(4)), (3, 8, 8, 2))
    b = nets.mlp_init(np.random.Generator(np.random.Philox(4)), (3, 8, 8, 2))
    x = np.linspace(-1, 1, 3)[None]
    assert np.array_equal(nets.mlp_forward_cache(a, x)[0], nets.mlp_forward_cache(b, x)[0])
