import dataclasses
import tracemalloc

import numpy as np
import pytest

from mfm import cfm, flow, nets, targets
from mfm.cfm import SIGMA_MIN

from conftest import gaussian, richardson_grad


def test_interpolant_endpoints(rng):
    sigma_min = SIGMA_MIN
    x0 = rng.standard_normal((1, 3))
    x1 = rng.standard_normal((1, 3))
    assert np.allclose(cfm.interpolant(sigma_min, 0.0, x0, x1), x0)
    assert np.allclose(cfm.interpolant(sigma_min, 1.0, x0, x1),
                       sigma_min * x0 + x1)


def test_interpolant_affine_in_t(rng):
    sigma_min = SIGMA_MIN
    x0 = rng.standard_normal((1, 2))
    x1 = rng.standard_normal((1, 2))
    lo = cfm.interpolant(sigma_min, 0.2, x0, x1)
    hi = cfm.interpolant(sigma_min, 0.8, x0, x1)
    mid = cfm.interpolant(sigma_min, 0.5, x0, x1)
    assert np.allclose(mid, 0.5 * (lo + hi), atol=1e-12)


def test_conditional_field_values(rng):
    sigma_min = 0.05
    x0 = rng.standard_normal((1, 2))
    x1 = rng.standard_normal((1, 2))
    assert np.allclose(cfm.conditional_field(sigma_min, 0.0, x0, x1),
                       x1 - 0.95 * x0)
    zero_point = x1 / 0.95
    assert np.allclose(cfm.conditional_field(sigma_min, 0.3, zero_point, x1),
                       np.zeros((1, 2)), atol=1e-12)


def test_conditional_field_constant_along_path(rng):
    sigma_min = SIGMA_MIN
    shrink = 1.0 - sigma_min
    for _ in range(1000):
        t = rng.uniform()
        x0 = rng.standard_normal((1, 3))
        x1 = rng.standard_normal((1, 3))
        xt = cfm.interpolant(sigma_min, t, x0, x1)
        v = cfm.conditional_field(sigma_min, t, xt, x1)
        assert np.abs(v - (x1 - shrink * x0)).max() <= 1e-12 * (1 + np.abs(x1).max())


def test_zero_field_loss_equals_conditional_norm(rng):
    target = targets.standard_normal(2)
    fp = flow.flow_zero(2)
    sigma_min = SIGMA_MIN
    particles = rng.standard_normal((8, 2))
    seed_rng = np.random.Generator(np.random.Philox(3))
    loss, _ = cfm.cfm_loss_and_grad(fp, target, particles, seed_rng)
    ref_rng = np.random.Generator(np.random.Philox(3))
    t = ref_rng.uniform(size=8)
    x0 = ref_rng.standard_normal((8, 2))
    xt = cfm.interpolant(sigma_min, t[:, None], x0, particles)
    vc = cfm.conditional_field(sigma_min, t[:, None], xt, particles)
    assert loss == pytest.approx(np.mean(np.sum(vc ** 2, axis=1)), rel=1e-12)


def test_loss_nonnegative_and_permutation_invariant(rng):
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=4)
    sigma_min = SIGMA_MIN
    particles = rng.standard_normal((6, 2))
    l1, _ = cfm.cfm_loss_and_grad(fp, target, particles,
                                  np.random.Generator(np.random.Philox(5)))
    assert l1 >= 0.0
    # permuting particles AND the matching per-particle draws leaves loss unchanged;
    # with the same seed the (t, x0) stream is identical, so reversing rows of a
    # symmetric summand leaves the mean unchanged only when draws follow rows.
    # Verify via direct recomputation with explicitly permuted draws.
    ref = np.random.Generator(np.random.Philox(5))
    t = ref.uniform(size=6)
    x0 = ref.standard_normal((6, 2))
    perm = np.arange(5, -1, -1)
    xt = cfm.interpolant(sigma_min, t[:, None], x0, particles)
    v = flow.field(fp, target, t, xt).v
    resid = v - cfm.conditional_field(sigma_min, t[:, None], xt, particles)
    direct = np.mean(np.sum(resid ** 2, axis=1))
    permuted = np.mean(np.sum(resid[perm] ** 2, axis=1))
    assert l1 == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(permuted, rel=1e-12)


def test_full_gradient_matches_finite_differences(rng):
    # width-4 net, N=1, d=1, fixed draws
    target = targets.standard_normal(1)
    fp = flow.flow_init(rng, 1, hidden=4)
    fp.net_x.weights[-1][...] = rng.uniform(-0.5, 0.5, size=fp.net_x.weights[-1].shape)
    particles = np.array([[1.3]])

    loss, grad = cfm.cfm_loss_and_grad(fp, target, particles,
                                       np.random.Generator(np.random.Philox(17)))
    gvec = flow.flow_to_vector(grad)
    vec0 = flow.flow_to_vector(fp)

    def f(vec):
        p = flow.vector_to_flow(vec, fp)
        l, _ = cfm.cfm_loss_and_grad(p, target, particles,
                                     np.random.Generator(np.random.Philox(17)))
        return l

    fd = richardson_grad(f, vec0)
    assert np.abs(gvec - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def out_of_place_loss_and_grad(fp, target, sigma_min, particles, rng):
    """cfm_loss_and_grad with a new array for every (N, d) expression, as
    it was before its arithmetic ran in place: the oracle of that change."""
    n, d = particles.shape
    t = rng.uniform(size=n)
    x0 = rng.standard_normal((n, d))
    xt = cfm.interpolant(sigma_min, t[:, None], x0, particles)
    v_cond = cfm.conditional_field(sigma_min, t[:, None], xt, particles)
    fe = flow.field(fp, target, t, xt)
    residual = fe.v - v_cond
    loss = float(np.mean(np.sum(residual ** 2, axis=1)))
    cot_v = (2.0 / n) * residual
    cot_nx = cot_v / fe.scale
    cot_gate = cot_v * fe.score / fe.scale
    sig = 1.0 / (1.0 + np.exp(-fe.u))
    cot_u = -np.sum(cot_v * fe.v, axis=1, keepdims=True) * sig / fe.scale
    grad = flow.vector_to_flow(np.empty_like(fp.flat), fp)
    nets.mlp_param_gradient(fp.net_x, fe.acts_x, cot_nx, out=grad.net_x)
    nets.mlp_param_gradient(fp.net_t, fe.acts_t,
                            np.concatenate([cot_gate, cot_u], axis=1), out=grad.net_t)
    return loss, grad.flat


def read_only_scores(target):
    """target whose gradients come back read-only: writing one raises."""
    def value_and_grad(x):
        value, grad = target.value_and_grad(x)
        grad.setflags(write=False)
        return value, grad
    return dataclasses.replace(target, value_and_grad=value_and_grad)


@pytest.mark.parametrize("dim, hidden", [(2, 16), (300, 16),
                                         (300, flow.TIME_HIDDEN_MAX + 1)],
                         ids=["d2-float64", "d300-float64", "d300-float32"])
def test_in_place_loss_and_grad_equals_the_out_of_place_formula(rng, dim, hidden):
    # read-only particles and scores: the in-place arithmetic writes neither
    target = read_only_scores(gaussian(np.linspace(-3.0, 3.0, dim), 2.0))
    fp = flow.flow_init(rng, dim, hidden)
    last = fp.net_x.weights[-1]
    last[...] = rng.uniform(-0.1, 0.1, last.shape)
    particles = 4.0 * rng.standard_normal((16, dim))
    particles.setflags(write=False)
    loss, grad = cfm.cfm_loss_and_grad(fp, target, particles,
                                       np.random.Generator(np.random.Philox(3)))
    want_loss, want_flat = out_of_place_loss_and_grad(
        fp, target, SIGMA_MIN, particles, np.random.Generator(np.random.Philox(3)))
    assert grad.flat.dtype == flow._param_dtype(hidden)
    assert loss == want_loss
    assert grad.flat.tobytes() == want_flat.tobytes()


def test_loss_and_grad_runs_each_network_once(rng, forward_passes, monkeypatch):
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=4)
    particles = rng.standard_normal((6, 2))
    backward = []
    inner = nets.mlp_param_gradient

    def counted(params, *args, **kwargs):
        backward.append(params)
        return inner(params, *args, **kwargs)

    monkeypatch.setattr(nets, "mlp_param_gradient", counted)
    cfm.cfm_loss_and_grad(fp, target, particles, rng)
    assert [id(net) for net, _ in forward_passes] == [id(fp.net_x), id(fp.net_t)]
    assert [id(net) for net in backward] == [id(fp.net_x), id(fp.net_t)]


def test_train_step_final_schedule_step_freezes(rng):
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=4)
    before = flow.flow_to_vector(fp).copy()
    adam = nets.adam_init(before.size, 1e-3, total_steps=1)
    particles = rng.standard_normal((4, 2))
    new_fp, adam, _ = cfm.train_step(fp, adam, target, particles, rng)
    assert np.array_equal(flow.flow_to_vector(fp), before)
    assert np.array_equal(flow.flow_to_vector(new_fp), before)


def test_train_step_deterministic(rng):
    target = targets.make_gmm4()
    results = []
    for _ in range(2):
        r = np.random.Generator(np.random.Philox(11))
        fp = flow.flow_init(r, 2, hidden=8)
        adam = nets.adam_init(flow.flow_to_vector(fp).size, 1e-3, 50)
        particles = r.standard_normal((16, 2)) * 4
        for _ in range(5):
            fp, adam, loss = cfm.train_step(fp, adam, target, particles, r)
        results.append(flow.flow_to_vector(fp).copy())
    assert np.array_equal(results[0], results[1])


def train_step_peak(rng, hidden):
    """(flow, tracemalloc peak) of one train step of a fresh flow at d = 2."""
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=hidden)
    adam = nets.adam_init(fp.flat.size, 1e-3, 10, fp.flat.dtype)
    particles = rng.standard_normal((8, 2))
    tracemalloc.start()
    try:
        cfm.train_step(fp, adam, target, particles, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fp, peak


def test_train_step_allocates_no_parameter_vector(rng):
    # 0.41M float32 parameters (hidden 512 > TIME_HIDDEN_MAX) against
    # activations of 8 rows: the gradient goes into adam.grad and Adam
    # updates the flow in place, so nothing the step allocates is
    # parameter-sized
    fp, peak = train_step_peak(rng, 512)
    assert fp.flat.dtype == np.float32
    assert peak <= 0.5 * fp.flat.nbytes


def test_train_step_allocates_no_parameter_vector_float64(rng):
    # the float64 twin at hidden TIME_HIDDEN_MAX: 0.14M parameters
    fp, peak = train_step_peak(rng, flow.TIME_HIDDEN_MAX)
    assert fp.flat.dtype == np.float64
    assert peak <= 0.5 * fp.flat.nbytes


@pytest.mark.parametrize("hidden, dtype", [(flow.TIME_HIDDEN_MAX + 1, np.float32),
                                           (flow.TIME_HIDDEN_MAX, np.float64)])
def test_gradient_and_adam_state_have_the_flow_dtype(rng, hidden, dtype):
    # float32 networks on a wide flow, a float64 loss at every width
    target = targets.make_gmm4()
    fp = flow.flow_init(rng, 2, hidden)
    particles = rng.standard_normal((8, 2))
    loss, grad = cfm.cfm_loss_and_grad(fp, target, particles, rng)
    assert type(loss) is float
    assert grad.flat.dtype == dtype
    assert all(a.dtype == dtype for net in (grad.net_x, grad.net_t)
               for a in net.arrays())
    adam = nets.adam_init(fp.flat.size, 1e-3, 10, fp.flat.dtype)
    fp, adam, loss = cfm.train_step(fp, adam, target, particles, rng)
    assert type(loss) is float and np.isfinite(loss)
    assert fp.flat.dtype == adam.m.dtype == adam.v.dtype == adam.grad.dtype == dtype


def test_float32_gradient_matches_its_float64_twin(rng):
    # the same weights and draws in float64 are the reference: the loss and
    # the gradient move by float32 rounding only
    target = targets.make_gmm4()
    fp32 = flow.flow_init(rng, 2, flow.TIME_HIDDEN_MAX + 1)
    fp32.net_x.weights[-1][...] = rng.uniform(-0.1, 0.1, fp32.net_x.weights[-1].shape)
    fp64 = flow.vector_to_flow(fp32.flat.astype(np.float64), fp32)
    particles = 4.0 * rng.standard_normal((16, 2))
    (l32, g32), (l64, g64) = (
        cfm.cfm_loss_and_grad(fp, target, particles,
                              np.random.Generator(np.random.Philox(3)))
        for fp in (fp32, fp64))
    tol = 64 * np.finfo(np.float32).eps
    assert l32 == pytest.approx(l64, rel=tol)
    assert np.allclose(g32.flat, g64.flat, rtol=tol, atol=tol * np.abs(g64.flat).max())


def test_train_step_updates_the_flow_in_place(rng):
    target = targets.make_gmm4()
    fp = flow.flow_init(rng, 2, hidden=8)
    before = fp.flat.copy()
    adam = nets.adam_init(fp.flat.size, 1e-3, 50)
    particles = rng.standard_normal((16, 2)) * 4
    new_fp, adam, _ = cfm.train_step(fp, adam, target, particles, rng)
    assert new_fp.flat is fp.flat
    assert not np.array_equal(fp.flat, before)


@pytest.mark.slow
def test_training_on_exact_samples_reduces_loss(rng):
    # frozen exact 4-mode draws; 5000 steps must at least halve the theta=0 loss
    target = targets.make_gmm4()
    draw_rng = np.random.Generator(np.random.Philox(23))
    particles = target.sampler(draw_rng, 128)

    zero_rng = np.random.Generator(np.random.Philox(29))
    zero_losses = []
    fp0 = flow.flow_zero(2, hidden=64)
    for _ in range(50):
        l, _ = cfm.cfm_loss_and_grad(fp0, target, particles, zero_rng)
        zero_losses.append(l)
    baseline = np.mean(zero_losses)

    r = np.random.Generator(np.random.Philox(31))
    fp = flow.flow_init(r, 2, hidden=64)
    adam = nets.adam_init(flow.flow_to_vector(fp).size, 1e-3, 5000)
    losses = []
    for _ in range(5000):
        fp, adam, loss = cfm.train_step(fp, adam, target, particles, r)
        losses.append(loss)
    tail = np.mean(losses[-100:])
    assert tail < 0.5 * baseline
