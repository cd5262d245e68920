import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mfm import cli, targets
from mfm.errors import DimensionMismatch, FactorizationFailure

from conftest import finite_diff_grad, gaussian


def all_targets():
    return [
        targets.make_gmm4(),
        targets.make_gmm16(seed=3),
        targets.make_many_well(n_copies=4),
        targets.make_field_system(8),
        targets.make_lgcp(4, targets.synthetic_lgcp_counts(4, seed=1)),
        targets.standard_normal(5),
    ]


# -- frozen example values -----------------------------------------------------

def test_gmm4_mode_value():
    t = targets.make_gmm4()
    assert t.log_density(np.array([[8.0, 8.0]]))[0] == pytest.approx(np.log(1.0 / (8.0 * np.pi)), abs=1e-12)


def test_gmm4_center_value():
    t = targets.make_gmm4()
    assert t.log_density(np.zeros((1, 2)))[0] == pytest.approx(-np.log(2.0 * np.pi) - 64.0, abs=1e-10)


def test_gmm4_gradient_vanishes_at_mode():
    t = targets.make_gmm4()
    assert np.all(np.abs(t.grad_log_density(np.array([[8.0, 8.0]]))) < 1e-50)


def test_gmm4_dihedral_symmetry(rng):
    t = targets.make_gmm4()
    x = rng.normal(0, 6, size=2)
    vals = t.log_density(np.array(
        [(x[0], x[1]), (-x[0], x[1]), (x[0], -x[1]), (x[1], x[0]),
         (-x[1], -x[0]), (-x[0], -x[1])]))
    assert np.ptp(vals) < 1e-10


def test_gmm16_deterministic_and_positive():
    a = targets.make_gmm16(seed=5)
    b = targets.make_gmm16(seed=5)
    x = np.array([[1.0, -2.0]])
    assert a.log_density(x)[0] == b.log_density(x)[0]


def test_gmm16_modes_beat_midpoints():
    t = targets.make_gmm16(seed=0)
    lattice = targets.GMM16_LATTICE
    for mx in lattice:
        mean = np.array([[mx, lattice[0]]])
        mid = np.array([[mx, 0.5 * (lattice[0] + lattice[1])]])
        assert t.log_density(mean)[0] >= t.log_density(mid)[0]


# -- mixture oracles against the per-component formulas ------------------------

def mixture_components(name):
    """(target, means (C, d), variances (C,)) of a library mixture."""
    if name == "gmm4":
        means = np.array([[8.0, 8.0], [-8.0, 8.0], [8.0, -8.0], [-8.0, -8.0]])
        return targets.make_gmm4(), means, np.ones(4)
    xs, ys = np.meshgrid(targets.GMM16_LATTICE, targets.GMM16_LATTICE)
    variances = np.random.Generator(np.random.Philox(0)).lognormal(0.0, 0.25, size=16)
    return targets.make_gmm16(), np.column_stack([xs.ravel(), ys.ravel()]), variances


def mixture_reference(means, variances, x, v):
    """Value, score and H v of the mixture in np.longdouble, per component:
    log sum_c N(x; mu_c, var_c I) / C, g = sum_c r_c u_c with the pulls
    u_c = (mu_c - x) / var_c, and H = sum_c r_c (u_c u_c^T - I / var_c) - g g^T."""
    means, variances, x, v = (np.asarray(a, dtype=np.longdouble)
                              for a in (means, variances, x, v))
    n_comp, dim = means.shape
    diff = means[None, :, :] - x[:, None, :]                         # (N, C, d)
    logs = (-np.log(np.longdouble(n_comp))
            - 0.5 * dim * np.log(2 * np.longdouble(np.pi) * variances)
            - 0.5 * np.sum(diff ** 2, axis=-1) / variances)
    top = logs.max(axis=1, keepdims=True)
    w = np.exp(logs - top)
    r = w / w.sum(axis=1, keepdims=True)
    value = (top + np.log(w.sum(axis=1, keepdims=True)))[:, 0]
    pulls = diff / variances[None, :, None]
    g = np.sum(r[:, :, None] * pulls, axis=1)
    uv = np.sum(pulls * v[:, None, :], axis=-1)
    hv = (np.sum(r[:, :, None] * (pulls * uv[:, :, None]
                                  - v[:, None, :] / variances[None, :, None]), axis=1)
          - g * np.sum(g * v, axis=-1, keepdims=True))
    return value, g, hv


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("name", ["gmm4", "gmm16"])
def test_mixture_oracles_match_extended_precision(name):
    # 100 rows each near the modes, between two modes, at |x| ~ 100 and at
    # |x| ~ 1,000, where a Hessian formed as a difference of |x|^2-sized
    # terms loses its digits
    target, means, variances = mixture_components(name)
    rng = np.random.Generator(np.random.Philox(11))
    n, c = 100, len(means)
    pairs = [rng.choice(c, size=2, replace=False) for _ in range(n)]
    directions = rng.standard_normal((2, n, 2))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    x = np.concatenate([
        means[rng.integers(0, c, size=n)] + 0.5 * rng.standard_normal((n, 2)),
        np.array([means[i] + means[j] for i, j in pairs]) / 2.0
        + 0.5 * rng.standard_normal((n, 2)),
        100.0 * directions[0] * rng.uniform(0.95, 1.05, size=(n, 1)),
        1000.0 * directions[1] * rng.uniform(0.95, 1.05, size=(n, 1)),
    ])
    v = rng.standard_normal(x.shape)
    value, grad = target.value_and_grad(x)
    hv = target.hvp_log_density(x, v)
    for got, ref in zip((value, grad, hv), mixture_reference(means, variances, x, v)):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert float(err.max()) <= 1e-11


@pytest.mark.parametrize("name", ["gmm4", "gmm16"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_mixture_bad_row_spoils_only_itself(name, bad, rng):
    # the integrator zeroes the rows a target call spoils and keeps the
    # rest, so every other row must come out as with a healthy row there
    target = mixture_components(name)[0]
    healthy = rng.normal(0.0, 8.0, size=(7, 2))
    spoiled = healthy.copy()
    spoiled[3, 1] = bad
    others = np.arange(7) != 3
    v = rng.standard_normal((7, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        outs = [(*target.value_and_grad(x), target.hvp_log_density(x, v),
                 target.hvp_log_density(x, v[0]))
                for x in (spoiled, healthy)]
    for got, ref in zip(*outs):
        assert not np.any(np.isfinite(got[3]))
        assert np.array_equal(got[others], ref[others])


@pytest.mark.parametrize("name", ["gmm4", "gmm16"])
def test_mixture_row_does_not_depend_on_its_batch(name, rng):
    # the chain cache (kernels.ChainState) takes and merges rows of earlier
    # calls, so a row's oracle values must not depend on the batch's size or
    # on the row's place in it
    target = mixture_components(name)[0]
    x = rng.normal(0.0, 8.0, size=(37, 2))
    v = rng.standard_normal((37, 2))
    e = np.array([0.0, 1.0])

    def oracles(rows):
        return (*target.value_and_grad(x[rows]), target.hvp_log_density(x[rows], v[rows]),
                target.hvp_log_density(x[rows], e))

    whole = oracles(slice(None))
    for rows in (np.arange(37)[::-1], [5], [5, 5], np.arange(3, 20), np.arange(36, 0, -3)):
        for got, ref in zip(oracles(rows), whole):
            assert np.array_equal(got, ref[rows])


def test_many_well_values():
    t = targets.make_many_well()
    assert t.log_density(np.zeros((1, 32)))[0] == 0.0
    x = np.zeros((1, 32))
    x[0, 0] = 1.0
    assert t.log_density(x)[0] == pytest.approx(5.5, abs=1e-12)
    x2 = np.zeros((1, 32))
    x2[0, 1] = 2.0
    assert t.grad_log_density(x2)[0, 1] == pytest.approx(-2.0, abs=1e-12)


def test_field_system_values():
    t = targets.make_field_system()
    assert t.log_density(np.zeros((1, 64)))[0] == pytest.approx(-50.0, abs=1e-10)
    assert t.log_density(np.ones((1, 64)))[0] == pytest.approx(-128.0, abs=1e-10)


def test_field_system_gradient_odd(rng):
    t = targets.make_field_system(12)
    x = rng.standard_normal((1, 12))
    assert np.allclose(t.grad_log_density(-x), -t.grad_log_density(x), atol=1e-12)


def test_field_system_reversal_invariance(rng):
    t = targets.make_field_system(10)
    x = rng.standard_normal((1, 10))
    assert t.log_density(x[:, ::-1])[0] == pytest.approx(t.log_density(x)[0], abs=1e-12)


def test_many_well_sampler_matches_quadrature():
    # even coordinates: the double well exp(-a^4 + 6a^2 + a/2), whose
    # moments come from quadrature; odd coordinates: N(0, 1).  200,000
    # draws of each; the bounds are about 5 standard errors.
    from scipy.integrate import quad

    def integral(f):
        weighted = lambda a: f(a) * np.exp(-a ** 4 + 6.0 * a ** 2 + 0.5 * a - 9.0)
        return quad(weighted, -8.0, 8.0, points=[-1.7, 0.0, 1.75], limit=200)[0]

    mean, second, positive = (integral(f) / integral(lambda a: 1.0)
                              for f in (lambda a: a, lambda a: a * a, lambda a: a > 0))
    target = targets.make_many_well(n_copies=2)
    draws = target.sampler(np.random.Generator(np.random.Philox(7)), 100_000)
    assert draws.shape == (100_000, 4)
    a, b = draws[:, 0::2].ravel(), draws[:, 1::2].ravel()
    assert abs(a.mean() - mean) <= 0.015
    assert abs(np.mean(a ** 2) - second) <= 0.015
    assert abs(np.mean(a > 0) - positive) <= 0.004
    assert abs(b.mean()) <= 0.012 and abs(np.mean(b ** 2) - 1.0) <= 0.016


@pytest.mark.parametrize("name", sorted(targets.DIMENSIONS))
def test_named_targets_match_the_tables(name):
    # each target as cli.build_target builds it (lgcp on a 5 x 5 grid): its
    # dimension is DIMENSIONS's, and it has an exact sampler exactly when
    # it is one of EXACT_SAMPLERS
    grid = {"m_side": 5} if name == "lgcp" else {}
    target = cli.build_target(cli.parse_config(overrides=dict(target=name, seed=0, **grid)))
    assert target.dim == (targets.DIMENSIONS[name] or 25)
    assert (target.sampler is not None) == (name in targets.EXACT_SAMPLERS)


def test_lgcp_prior_mean_value():
    t = targets.make_lgcp(6, np.zeros((6, 6), dtype=int))
    x = np.full((1, 36), targets.LGCP_MU0)
    expected = -(1.0 / 36) * 36 * np.exp(targets.LGCP_MU0)
    assert t.log_density(x)[0] == pytest.approx(expected, rel=1e-12)


def test_lgcp_hvp_zero_direction():
    t = targets.make_lgcp(4, targets.synthetic_lgcp_counts(4, seed=2))
    x = np.linspace(-1, 1, 16)[None]
    assert np.all(t.hvp_log_density(x, np.zeros(16)) == 0.0)


def test_lgcp_covariance_factorization():
    cov = targets.lgcp_covariance(8)
    chol = targets._lgcp_cholesky(8)
    rel = np.abs(chol @ chol.T - cov).max() / np.abs(cov).max()
    assert rel <= 1e-8


@pytest.mark.parametrize("m_side", [8, 13])
def test_lgcp_covariance_matches_pairwise_difference_tensor(m_side):
    # oracle: distances from the (N, N, 2) tensor of pairwise differences
    coords = (np.arange(m_side) + 0.5) / m_side
    px, py = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([px.ravel(), py.ravel()])
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    oracle = targets.LGCP_SIGMA2 * np.exp(-dist / targets.LGCP_BETA_LEN)
    assert np.array_equal(targets.lgcp_covariance(m_side), oracle)


def random_spd(rng, n):
    # x x^T / n + I: eigenvalues in [1, about 4], so well conditioned
    x = rng.standard_normal((n, n))
    return x @ x.T / n + np.eye(n)


@pytest.mark.parametrize("n", [1, 17, 256, 257, 600])
def test_cholesky_in_place_matches_numpy(rng, n):
    a = random_spd(rng, n)
    oracle = np.linalg.cholesky(a)
    targets._cholesky_in_place(a)
    assert np.abs(a - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.all(np.triu(a, 1) == 0.0)


def test_cholesky_fails_in_a_schur_complement_above_the_leaf(rng, monkeypatch):
    # the leading 300 x 300 block is positive definite, the whole matrix is
    # not: only the trailing Schur complement, itself above the leaf size,
    # shows it
    n = 600
    assert n - n // 2 > targets._LGCP_BLOCK
    a = random_spd(rng, n)
    a[-1, -1] = -1.0
    assert np.all(np.linalg.eigvalsh(a[:n // 2, :n // 2]) > 0.0)
    monkeypatch.setattr(targets, "lgcp_covariance", lambda m_side: a.copy())
    with pytest.raises(FactorizationFailure, match="m_side=3 is not positive definite"):
        targets._lgcp_cholesky(3)


def out_of_place_invert_lower(lower):
    # the out-of-place block inverse that _invert_lower repeats in place:
    # the same block operations into a fresh output
    out = np.zeros(lower.shape)

    def invert_into(a, dest):
        n = a.shape[0]
        if n <= 64:
            dest[...] = np.linalg.inv(a)
            return
        h = n // 2
        invert_into(a[:h, :h], dest[:h, :h])
        invert_into(a[h:, h:], dest[h:, h:])
        corner = dest[h:, :h]
        np.matmul(dest[h:, h:], a[h:, :h] @ dest[:h, :h], out=corner)
        np.negative(corner, out=corner)

    invert_into(lower, out)
    return out


@pytest.mark.parametrize("n", [1, 17, 64, 65, 100, 257])
def test_invert_lower(rng, n):
    # random lower-triangular matrices with a dominant diagonal: well conditioned
    lower = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    lower += np.diag(rng.uniform(1.0, 2.0, n))
    inverse = lower.copy()
    targets._invert_lower(inverse)
    assert np.array_equal(inverse, out_of_place_invert_lower(lower))
    oracle = np.linalg.inv(lower)
    if n <= 64:   # one block: numpy's inverse itself
        assert np.array_equal(inverse, oracle)
    else:
        assert np.abs(inverse - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.all(np.triu(inverse, 1) == 0.0)


@pytest.mark.parametrize("n", [1, 100, 256, 257, 600])
def test_gram_in_place(rng, n):
    lower = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    lower += np.diag(rng.uniform(1.0, 2.0, n))
    gram = lower.copy()
    targets._gram_in_place(gram)
    oracle = lower.T @ lower
    if n <= targets._LGCP_BLOCK:   # one block: the same product
        assert np.array_equal(gram, oracle)
    else:
        assert np.abs(gram - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.array_equal(gram, gram.T)


def test_make_lgcp_holds_one_matrix():
    # the covariance, its factor, the inverse and the precision share one
    # (d, d) array; every temporary is a fraction of it
    d = 24 ** 2
    tracemalloc.start()
    try:
        targets.make_lgcp(24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * d * d * 8


def test_lgcp_preset_precision_inverts_the_covariance():
    # the presets' m_side = 40 target, on the bundled counts; where e^x = 0
    # the Hessian is -precision, and H I = H exactly
    target = cli.build_target(cli.parse_config(overrides=dict(preset="lgcp", seed=0)))
    d = 40 ** 2
    xb = np.full((d, d), -np.inf)
    precision = -target.hvp_log_density(xb, np.eye(d))
    cov = targets.lgcp_covariance(40)
    assert np.array_equal(precision, precision.T)
    assert np.abs(precision @ cov - np.eye(d)).max() <= 1e-12
    # oracle: the precision from LAPACK's gesv, as built before the block inverse
    chol_inv = np.linalg.solve(np.linalg.cholesky(cov), np.eye(d))
    gesv = chol_inv.T @ chol_inv
    assert np.abs(precision - gesv).max() <= 1e-13 * np.abs(gesv).max()


def test_lgcp_without_counts_reads_the_synthetic_grid():
    # counts=None draws synthetic_lgcp_counts(m_side, seed=0) from the
    # factor it inverts: the same target, bit for bit
    x = np.random.Generator(np.random.Philox(3)).normal(4.0, 1.0, (3, 25))
    drawn = targets.make_lgcp(5).value_and_grad(x)
    given = targets.make_lgcp(5, targets.synthetic_lgcp_counts(5, seed=0)).value_and_grad(x)
    assert all(np.array_equal(p, q) for p, q in zip(drawn, given))


def test_lgcp_counts_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        targets.make_lgcp(4, np.zeros((5, 5), dtype=int))


# -- gradient / hvp oracles ----------------------------------------------------

@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
def test_gradient_matches_finite_differences(target, rng):
    for _ in range(10):
        x = rng.normal(0, 2, size=target.dim)
        g = target.grad_log_density(x[None])[0]
        fd = finite_diff_grad(lambda z: target.log_density(z[None])[0], x)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(g - fd).max() / denom <= 1e-5


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
def test_hvp_matches_finite_difference_hessian(target, rng):
    if target.dim > 16:
        pytest.skip("column-wise check runs on dims <= 16")
    x = rng.normal(0, 1.5, size=(1, target.dim))
    h = 1e-5
    cols = []
    for i in range(target.dim):
        e = np.zeros(target.dim)
        e[i] = 1.0
        cols.append((target.grad_log_density(x + h * e)[0]
                     - target.grad_log_density(x - h * e)[0]) / (2.0 * h))
    hess_fd = np.column_stack(cols)
    hvp = np.column_stack([target.hvp_log_density(x, np.eye(target.dim)[i])[0]
                           for i in range(target.dim)])
    denom = max(1.0, np.abs(hess_fd).max())
    assert np.abs(hvp - hess_fd).max() / denom <= 1e-4


@pytest.mark.parametrize(
    "target", all_targets() + [targets.tempered(targets.make_gmm4(), 0.3)],
    ids=lambda t: t.name)
def test_hvp_one_direction_broadcasts_over_rows(target, rng):
    # the exact divergence passes one (d,) basis direction for all rows,
    # Hutchinson one (N, d) probe per row; both must give the same rows
    xb = rng.normal(0, 2, size=(5, target.dim))
    for e in (np.eye(target.dim)[target.dim - 1], rng.standard_normal(target.dim)):
        assert np.array_equal(target.hvp_log_density(xb, e),
                              target.hvp_log_density(xb, np.tile(e, (5, 1))))


def contract_targets():
    """Every library target, and the tempered LGCP posterior at three betas."""
    lgcp = all_targets()[4]
    return all_targets() + [targets.tempered(lgcp, beta) for beta in (0.0, 0.37, 1.0)]


@pytest.mark.parametrize("target", contract_targets(),
                         ids=lambda t: f"{t.name}-{t.dim}")
@settings(max_examples=25)
@given(data=st.data())
def test_fused_oracle_equals_separate_calls(target, data):
    # log_density(x, with_grad=True) is (log_density(x), grad_log_density(x))
    # bit for bit.  Coordinates near 800 overflow LGCP's exp(x) to inf, so
    # its value and gradient hold -inf there; the last row always does.
    n = data.draw(st.integers(1, 6), label="n")
    coords = st.one_of(st.floats(-12.0, 12.0), st.floats(700.0, 900.0))
    x = data.draw(arrays(float, (n, target.dim), elements=coords), label="x")
    overflow = np.zeros((1, target.dim))
    overflow[0, -1] = 800.0
    x = np.concatenate([x, overflow])
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = target.log_density(x, with_grad=True)
        assert np.array_equal(value, target.log_density(x), equal_nan=True)
        assert np.array_equal(grad, target.grad_log_density(x), equal_nan=True)


def test_batched_matches_single(rng):
    for target in all_targets():
        xb = rng.normal(0, 2, size=(4, target.dim))
        lb = target.log_density(xb)
        gb = target.grad_log_density(xb)
        for i in range(4):
            assert lb[i] == pytest.approx(target.log_density(xb[i:i + 1])[0], rel=1e-14)
            assert np.allclose(gb[i], target.grad_log_density(xb[i:i + 1])[0], rtol=1e-14)


# -- tempering ------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 64, 1600])
def test_reference_matches_unit_gaussian(d):
    # the closed-form N(0, I) and its sampler equal the general isotropic
    # Gaussian at mean 0, scale 1 bit for bit
    unit = gaussian(np.zeros(d), 1.0)
    std = targets.standard_normal(d)
    x = 3.0 * np.random.Generator(np.random.Philox(1)).standard_normal((5, d))
    value, grad = unit.log_density(x, with_grad=True)
    assert np.array_equal(targets.reference_log_density(x), value)
    ref_value, ref_grad = targets.reference_log_density(x, with_grad=True)
    assert np.array_equal(ref_value, value) and np.array_equal(ref_grad, grad)
    assert np.array_equal(std.log_density(x), value)
    v = np.random.Generator(np.random.Philox(2)).standard_normal(d)
    assert np.array_equal(std.hvp_log_density(x, v), unit.hvp_log_density(x, v))
    assert np.array_equal(std.sampler(np.random.Generator(np.random.Philox(3)), 7),
                          unit.sampler(np.random.Generator(np.random.Philox(3)), 7))


def test_tempered_endpoints(rng):
    target = gaussian(np.ones(3), 2.0)
    x = rng.standard_normal((1, 3))
    assert (targets.tempered(target, 0.0).log_density(x)[0]
            == targets.standard_normal(3).log_density(x)[0])
    assert targets.tempered(target, 1.0).log_density(x)[0] == target.log_density(x)[0]


def test_tempered_identical_endpoints(rng):
    std = targets.standard_normal(2)
    half = targets.tempered(targets.standard_normal(2), 0.5)
    x = rng.standard_normal((1, 2))
    assert half.log_density(x)[0] == pytest.approx(std.log_density(x)[0], abs=1e-12)


def test_tempered_affine_in_beta(rng):
    base = targets.standard_normal(2)
    target = targets.make_gmm4()
    x = np.array([[5.0, 5.0]])
    vals = [targets.tempered(target, b).log_density(x)[0]
            for b in (0.2, 0.5, 0.8)]
    # affine: midpoint equals average of endpoints
    assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-10)
    if target.log_density(x)[0] > base.log_density(x)[0]:
        assert vals[0] < vals[1] < vals[2]


def test_tempered_gradient_and_hvp_combine(rng):
    base = targets.standard_normal(2)
    target = targets.make_gmm4()
    mid = targets.tempered(target, 0.3)
    x = rng.standard_normal((1, 2))
    v = rng.standard_normal(2)
    assert np.allclose(mid.grad_log_density(x),
                       0.3 * target.grad_log_density(x) + 0.7 * base.grad_log_density(x))
    assert np.allclose(mid.hvp_log_density(x, v),
                       0.3 * target.hvp_log_density(x, v) + 0.7 * base.hvp_log_density(x, v))


def test_counts_csv_roundtrip(tmp_path):
    counts = targets.synthetic_lgcp_counts(5, seed=9)
    path = tmp_path / "counts.csv"
    np.savetxt(path, counts, fmt="%d", delimiter=",")
    loaded = targets.load_counts_csv(path, 5)
    assert np.array_equal(loaded, counts)


def test_counts_csv_of_another_shape_refused(tmp_path):
    path = tmp_path / "counts.csv"
    np.savetxt(path, np.ones((4, 5), dtype=int), fmt="%d", delimiter=",")
    with pytest.raises(DimensionMismatch, match=r"\(4, 5\), expected \(4, 4\)"):
        targets.load_counts_csv(path, 4)


def test_counts_csv_with_negative_count_refused(tmp_path):
    counts = np.arange(9).reshape(3, 3)
    counts[1, 2] = -4
    counts[2, 0] = -1
    path = tmp_path / "counts.csv"
    np.savetxt(path, counts, fmt="%d", delimiter=",")
    with pytest.raises(ValueError, match="negative count -4 at row 2, column 3") as err:
        targets.load_counts_csv(path, 3)
    assert str(path) in str(err.value)
