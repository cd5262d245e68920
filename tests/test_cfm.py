import tracemalloc

import numpy as np
import pytest

from mfm import cfm, flow, nets, targets

from conftest import richardson_grad

SIGMA_MIN = 1e-2   # ExperimentConfig's default terminal scale


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
    loss, _ = cfm.cfm_loss_and_grad(fp, target, sigma_min, particles, seed_rng)
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
    l1, _ = cfm.cfm_loss_and_grad(fp, target, sigma_min, particles,
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
    sigma_min = SIGMA_MIN
    particles = np.array([[1.3]])

    loss, grad = cfm.cfm_loss_and_grad(fp, target, sigma_min, particles,
                                       np.random.Generator(np.random.Philox(17)))
    gvec = flow.flow_to_vector(grad)
    vec0 = flow.flow_to_vector(fp)

    def f(vec):
        p = flow.vector_to_flow(vec, fp)
        l, _ = cfm.cfm_loss_and_grad(p, target, sigma_min, particles,
                                     np.random.Generator(np.random.Philox(17)))
        return l

    fd = richardson_grad(f, vec0)
    assert np.abs(gvec - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_loss_and_grad_runs_each_network_once(rng, forward_passes):
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=4)
    particles = rng.standard_normal((6, 2))
    cfm.cfm_loss_and_grad(fp, target, SIGMA_MIN, particles, rng)
    assert len(forward_passes) == 3
    assert {id(net) for net, _ in forward_passes} == {id(fp.net_x), id(fp.net_t),
                                                     id(fp.net_scale)}


def test_train_step_final_schedule_step_freezes(rng):
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=4)
    before = flow.flow_to_vector(fp).copy()
    adam = nets.adam_init(before.size, 1e-3, total_steps=1)
    particles = rng.standard_normal((4, 2))
    new_fp, adam, _ = cfm.train_step(fp, adam, target, SIGMA_MIN, particles, rng)
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
            fp, adam, loss = cfm.train_step(fp, adam, target, SIGMA_MIN,
                                            particles, r)
        results.append(flow.flow_to_vector(fp))
    assert np.array_equal(results[0], results[1])


def test_train_step_peak_memory_is_two_parameter_vectors(rng):
    # 0.8M parameters against activations of 8 rows: the gradient and Adam's
    # new parameter vector are the only full-size allocations of the step
    target = targets.standard_normal(2)
    fp = flow.flow_init(rng, 2, hidden=512)
    adam = nets.adam_init(fp.flat.size, 1e-3, 10)
    particles = rng.standard_normal((8, 2))
    tracemalloc.start()
    try:
        cfm.train_step(fp, adam, target, SIGMA_MIN, particles, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * fp.flat.nbytes


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
        l, _ = cfm.cfm_loss_and_grad(fp0, target, SIGMA_MIN, particles, zero_rng)
        zero_losses.append(l)
    baseline = np.mean(zero_losses)

    r = np.random.Generator(np.random.Philox(31))
    fp = flow.flow_init(r, 2, hidden=64)
    adam = nets.adam_init(flow.flow_to_vector(fp).size, 1e-3, 5000)
    losses = []
    for _ in range(5000):
        fp, adam, loss = cfm.train_step(fp, adam, target, SIGMA_MIN,
                                        particles, r)
        losses.append(loss)
    tail = np.mean(losses[-100:])
    assert tail < 0.5 * baseline
