import tracemalloc

import numpy as np
import pytest

from mfm import nets
from mfm.errors import NonFiniteGradient, ShapeMismatch

from conftest import pack_arrays, richardson_grad, textbook_adam


def small_net(rng, sizes=(3, 4, 4, 2)):
    """A float64 MLP drawn into the views of a new flat vector."""
    flat = np.empty(nets.mlp_size(sizes))
    return nets.mlp_init(rng, nets.vector_to_mlp(flat, sizes))


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
        vec0 = pack_arrays(p.arrays())

        def f(vec):
            out, _ = nets.mlp_forward_cache(nets.vector_to_mlp(vec, p.sizes), x)
            return float(cot[0] @ out[0])

        fd = richardson_grad(f, vec0)
        assert np.abs(gvec - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_jacobian_trace_matches_finite_differences(rng):
    # net_x shape: d = 3 positions plus 2 extra inputs, trace over the first 3
    p = small_net(rng, (5, 6, 6, 3))
    xb = rng.standard_normal((4, 5))
    h = 1e-6
    fd = 0.0
    for i in range(3):
        e = np.zeros(5)
        e[i] = h
        fd = fd + (nets.mlp_forward_cache(p, xb + e)[0][:, i]
                   - nets.mlp_forward_cache(p, xb - e)[0][:, i]) / (2 * h)
    mix = nets.mlp_trace_matrix(p)
    cache = acts(p, xb)
    scratch = [np.empty_like(cache[1]) for _ in range(3)]
    trace = nets.mlp_input_jacobian_trace(cache, mix, scratch)
    assert np.abs(trace - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


# The integrator and the train step write layers into buffers held across
# calls; the shapes below are those of a 256-row batch at hidden 128 (the
# closing push runs PUSH_SLICE_VALUES // max(dim, hidden) rows per call, all
# 2,048 at gmm4 size, 256 at lgcp's) and of a ragged batch, and the
# references are the expressions the buffered code replaced.

@pytest.mark.parametrize("rows", [256, 37, 1])
def test_forward_cache_into_buffers_is_bit_identical(rng, rows):
    p = small_net(rng, (18, 128, 128, 2))
    x = rng.standard_normal((rows, 18))
    out = [np.full((rows, w.shape[1]), np.nan) for w in p.weights]
    y, cache = nets.mlp_forward_cache(p, x, out)
    h = x
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w + b
        if i < 2:
            h = np.tanh(h)
        assert np.array_equal(cache[i + 1], h)
    assert np.array_equal(y, h)
    assert np.array_equal(nets.mlp_forward_cache(p, x)[0], y)
    assert cache[0] is x and all(a is o for a, o in zip(cache[1:], out))


@pytest.mark.parametrize("rows", [256, 37])
def test_jacobian_trace_with_scratch_is_bit_identical(rng, rows):
    p = small_net(rng, (18, 128, 128, 2))
    cache = acts(p, rng.standard_normal((rows, 18)))
    mix = nets.mlp_trace_matrix(p)
    a1, a2 = cache[1], cache[2]
    expected = np.sum((1 - a1 ** 2) * ((1 - a2 ** 2) @ mix.T), axis=1)
    scratch = [np.full_like(a1, np.nan) for _ in range(3)]
    assert np.array_equal(nets.mlp_input_jacobian_trace(cache, mix, scratch), expected)
    # a scratch written by an earlier call gives the same bits
    assert np.array_equal(nets.mlp_input_jacobian_trace(cache, mix, scratch), expected)


@pytest.mark.parametrize("sizes", [(18, 128, 128, 2), (3, 5, 7, 2)])
def test_param_gradient_is_bit_identical_to_textbook_backprop(rng, sizes):
    p = small_net(rng, sizes)
    cache = acts(p, rng.standard_normal((37, sizes[0])))
    cot = rng.standard_normal((37, sizes[-1]))
    expected, delta = [], cot
    for i in reversed(range(3)):
        expected[:0] = [cache[i].T @ delta, np.sum(delta, axis=0)]
        if i > 0:
            delta = (delta @ p.weights[i].T) * (1.0 - cache[i] ** 2)
    assert np.array_equal(gradient_vector(p, cache, cot), pack_arrays(expected))


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
    before = params.copy()
    new, _ = nets.adam_step(state, params, np.zeros(3))
    assert np.array_equal(new, before)


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


def test_adam_updates_params_in_place(rng):
    n = nets.ADAM_BLOCK + 5
    state = nets.adam_init(n, 1e-2, 10)
    params, g = rng.standard_normal(n), rng.standard_normal(n)
    g0 = g.copy()
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    for k in (1, 2):
        ref, m, v = textbook_adam(m, v, k, state, ref, g)
        new, state = nets.adam_step(state, params, g)
        assert new is params
        assert np.array_equal(params, ref)
    assert np.array_equal(g, g0)
    # a refused step writes nothing: not params, the moments or the step
    bad = g.copy()
    bad[-1] = np.nan
    m0, v0 = state.m.copy(), state.v.copy()
    with pytest.raises(NonFiniteGradient):
        nets.adam_step(state, params, bad)
    assert np.array_equal(params, ref)
    assert np.array_equal(state.m, m0) and np.array_equal(state.v, v0)
    assert state.step == 2


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


def test_adam_float32_matches_the_textbook_update_in_float32(rng):
    n = nets.ADAM_BLOCK + 5
    state = nets.adam_init(n, 1e-2, 10, np.float32)
    params = spread_magnitudes(rng, n).astype(np.float32)
    ref, m, v = params.copy(), np.zeros(n, np.float32), np.zeros(n, np.float32)
    for k in (1, 2):
        g = spread_magnitudes(rng, n).astype(np.float32)
        ref, m, v = textbook_adam(m, v, k, state, ref, g)
        params, state = nets.adam_step(state, params, g)
        assert params.dtype == state.m.dtype == state.v.dtype == ref.dtype == np.float32
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


@pytest.mark.parametrize("culprit", ["params", "gradient", "m", "v"])
def test_adam_refuses_mixed_dtypes_before_writing(rng, culprit):
    n = nets.ADAM_BLOCK + 5
    params = rng.standard_normal(n).astype(np.float32)
    g = rng.standard_normal(n).astype(np.float32)
    params, state = nets.adam_step(nets.adam_init(n, 1e-2, 10, np.float32), params, g)
    vectors = {"params": params, "gradient": g, "m": state.m, "v": state.v}
    vectors[culprit] = vectors[culprit].astype(np.float64)
    state.m, state.v = vectors["m"], vectors["v"]
    before = {name: x.copy() for name, x in vectors.items()}
    with pytest.raises(ShapeMismatch, match="mixed dtypes"):
        nets.adam_step(state, vectors["params"], vectors["gradient"])
    for name, x in vectors.items():
        assert x.dtype == before[name].dtype and np.array_equal(x, before[name]), name
    assert state.step == 1


def test_param_gradient_casts_the_cotangent_to_the_weights_dtype(rng):
    # a float64 cotangent entering a float32 network gives the bits of the
    # same cotangent cast to float32 first: the products run in float32
    sizes = (3, 4, 4, 2)
    p = nets.vector_to_mlp(pack_arrays(small_net(rng).arrays(), np.float32), sizes)
    a = acts(p, rng.standard_normal((5, 3)).astype(np.float32))
    cot = rng.standard_normal((5, 2))
    grads = []
    for c in (cot, cot.astype(np.float32)):
        flat = np.empty(nets.mlp_size(sizes), np.float32)
        nets.mlp_param_gradient(p, a, c, out=nets.vector_to_mlp(flat, sizes))
        grads.append(flat)
    assert np.array_equal(grads[0], grads[1])


def test_forward_pass_refuses_an_input_of_another_dtype(rng):
    sizes = (3, 4, 4, 2)
    p = nets.vector_to_mlp(pack_arrays(small_net(rng).arrays(), np.float32), sizes)
    assert nets.mlp_forward_cache(p, np.ones((2, 3), np.float32))[0].dtype == np.float32
    with pytest.raises(ShapeMismatch, match="dtype"):
        nets.mlp_forward_cache(p, np.ones((2, 3)))


def test_adam_allocates_no_parameter_vector():
    n = 1_000_003
    state = nets.adam_init(n, 1e-3, 10)
    params, g = np.ones(n), np.full(n, 0.5)
    tracemalloc.start()
    try:
        nets.adam_step(state, params, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two block-sized scratch buffers and the finiteness check's
    # block-sized mask, against 8 bytes per entry for a parameter vector
    assert peak <= 3 * nets.ADAM_BLOCK * 8


def test_determinism_same_seed():
    sizes = (3, 8, 8, 2)
    a = small_net(np.random.Generator(np.random.Philox(4)), sizes)
    b = small_net(np.random.Generator(np.random.Philox(4)), sizes)
    x = np.linspace(-1, 1, 3)[None]
    assert np.array_equal(nets.mlp_forward_cache(a, x)[0], nets.mlp_forward_cache(b, x)[0])
