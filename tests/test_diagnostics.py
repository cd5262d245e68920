import tracemalloc

import numpy as np
import pytest

from mfm import diagnostics, targets
from mfm.errors import TooFewSamples

from conftest import gaussian_with_overflow


def ksd_u(target, ys):
    """Unbiased U-statistic: mean of off-diagonal Stein-kernel entries."""
    off, _, n = diagnostics._ksd_sums(target, ys)
    return off / (n * (n - 1))


def ksd_v(target, ys):
    """Biased, non-negative V-statistic: mean over all pairs."""
    off, diag, n = diagnostics._ksd_sums(target, ys)
    return (off + diag) / (n * n)


def naive_mmd2(xs, ys):
    m = len(xs)
    a = sum(diagnostics.imq(xs[i], xs[j]) for i in range(m) for j in range(m) if i != j)
    b = sum(diagnostics.imq(xs[i], ys[j]) for i in range(m) for j in range(m))
    c = sum(diagnostics.imq(ys[i], ys[j]) for i in range(m) for j in range(m) if i != j)
    return a / (m * (m - 1)) - 2.0 * b / (m * m) + c / (m * (m - 1))


def test_imq_kernel_range(rng):
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    v = diagnostics.imq(x, y)
    assert 0.0 < v <= 1.0
    assert diagnostics.imq(x, x) == 1.0


def test_mmd_permutation_identity(rng):
    xs = rng.standard_normal((24, 2))
    ys = xs[rng.permutation(24)]
    val = diagnostics.mmd2_unbiased(xs, ys)
    # direct double-sum oracle
    assert val == pytest.approx(naive_mmd2(xs, ys), abs=1e-12)


def test_mmd_matches_double_loop_oracle(rng):
    xs = rng.standard_normal((16, 3))
    ys = rng.standard_normal((16, 3)) + 0.5
    assert diagnostics.mmd2_unbiased(xs, ys) == pytest.approx(
        naive_mmd2(xs, ys), rel=1e-10, abs=1e-12)


def test_mmd_unbiasedness_same_distribution():
    reps = []
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(30):
        xs = rng.standard_normal((1000, 2))
        ys = rng.standard_normal((1000, 2))
        reps.append(diagnostics.mmd2_unbiased(xs, ys))
    reps = np.array(reps)
    se = reps.std(ddof=1) / np.sqrt(reps.size)
    assert abs(reps.mean()) <= 3.0 * se


def test_mmd_too_few_samples():
    with pytest.raises(TooFewSamples):
        diagnostics.mmd2_unbiased(np.zeros((1, 2)), np.zeros((1, 2)))


def test_mmd_unequal_counts_rejected():
    with pytest.raises(TooFewSamples):
        diagnostics.mmd2_unbiased(np.zeros((4, 2)), np.zeros((5, 2)))


# -- Stein kernel -----------------------------------------------------------------

@pytest.mark.parametrize("d,expected", [(1, 1.0), (3, 3.0)])
def test_stein_kernel_coincidence_value(d, expected):
    std = targets.standard_normal(d)
    val = diagnostics.stein_kernel(std, np.zeros(d), np.zeros(d))
    assert val == pytest.approx(expected, abs=1e-12)


def test_stein_kernel_symmetry(rng):
    t = targets.make_gmm4()
    for _ in range(20):
        x = rng.normal(0, 4, size=2)
        y = rng.normal(0, 4, size=2)
        assert diagnostics.stein_kernel(t, x, y) == pytest.approx(
            diagnostics.stein_kernel(t, y, x), abs=1e-12)


def test_stein_kernel_matches_finite_differences(rng):
    # independent oracle: differentiate the base kernel numerically
    t = targets.standard_normal(2)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    h = 1e-5
    beta = diagnostics.IMQ_EXPONENT

    def k(a, b):
        return (1.0 + np.sum((a - b) ** 2)) ** beta

    def grad_x(a, b):
        g = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            g[i] = (k(a + e, b) - k(a - e, b)) / (2 * h)
        return g

    div_xy = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        div_xy += (grad_x(x, y + e)[i] - grad_x(x, y - e)[i]) / (2 * h)
    sx = t.grad_log_density(x[None])[0]
    sy = t.grad_log_density(y[None])[0]
    grad_y_k = -grad_x(x, y)  # k depends on x - y
    oracle = (div_xy + grad_x(x, y) @ sy + grad_y_k @ sx + k(x, y) * (sx @ sy))
    val = diagnostics.stein_kernel(t, x, y)
    assert val == pytest.approx(oracle, rel=1e-4, abs=1e-6)


# -- KSD statistics -----------------------------------------------------------------

def test_ksd_v_single_point_at_origin():
    std = targets.standard_normal(1)
    assert ksd_v(std, np.zeros((1, 1))) == pytest.approx(1.0)


def test_ksd_matches_double_loop_oracle(rng):
    t = targets.make_gmm4()
    ys = rng.normal(0, 5, size=(64, 2))
    naive = np.array([[diagnostics.stein_kernel(t, a, b) for b in ys]
                      for a in ys])
    n = 64
    u_naive = (naive.sum() - np.trace(naive)) / (n * (n - 1))
    v_naive = naive.sum() / (n * n)
    assert ksd_u(t, ys) == pytest.approx(u_naive, rel=1e-10)
    assert ksd_v(t, ys) == pytest.approx(v_naive, rel=1e-10)


def test_ksd_v_nonnegative(rng):
    t = targets.standard_normal(3)
    for _ in range(10):
        ys = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), size=(20, 3))
        assert ksd_v(t, ys) >= 0.0


def test_ksd_v_duplication_consistency(rng):
    t = targets.standard_normal(2)
    ys = rng.standard_normal((10, 2))
    doubled = np.concatenate([ys, ys], axis=0)
    naive = np.mean([[diagnostics.stein_kernel(t, a, b) for b in doubled]
                     for a in doubled])
    assert ksd_v(t, doubled) == pytest.approx(naive, rel=1e-10)


def test_ksd_permutation_invariance(rng):
    t = targets.standard_normal(2)
    ys = rng.standard_normal((30, 2))
    perm = ys[rng.permutation(30)]
    assert ksd_u(t, ys) == pytest.approx(
        ksd_u(t, perm), rel=1e-12)
    assert ksd_v(t, ys) == pytest.approx(
        ksd_v(t, perm), rel=1e-12)


def test_ksd_u_stein_identity():
    # U-statistic within 3 jackknife SEs of zero on exact target samples
    std = targets.standard_normal(1)
    rng = np.random.Generator(np.random.Philox(7))
    ys = rng.standard_normal((10_000, 1))
    scores = std.grad_log_density(ys)
    u = ksd_u(std, ys)
    n = ys.shape[0]
    # row means of the off-diagonal Stein matrix give the Hajek projection
    row_sums = np.zeros(n)
    block = 1000
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        b = whole_stein_block(ys[lo:hi], scores[lo:hi], ys, scores)
        b[np.arange(lo, hi) - lo, np.arange(lo, hi)] = 0.0
        row_sums[lo:hi] = b.sum(axis=1)
    g = row_sums / (n - 1)
    se = 2.0 * g.std(ddof=1) / np.sqrt(n)
    assert abs(u) <= 3.0 * se


def test_worker_count_invariance(rng):
    # each block builds its slabs in buffers of its own, so threads share
    # none; at n = 513 the last block holds one row
    t = targets.standard_normal(2)
    for n, worker_counts in ((1100, (2, 4)), (513, (2, 3))):
        ys = rng.standard_normal((n, 2))
        xs = rng.standard_normal((n, 2))
        for workers in worker_counts:
            assert diagnostics._ksd_sums(t, ys, workers) == diagnostics._ksd_sums(t, ys)
            assert diagnostics.mmd2_unbiased(xs, ys, workers) == \
                diagnostics.mmd2_unbiased(xs, ys)


def test_report_builds_one_stein_gram(rng):
    # both KSD statistics come from one pass: one score evaluation
    target = targets.make_gmm4()
    ys = rng.normal(0, 5, size=(600, 2))
    calls = []
    inner = target.grad_log_density

    def counted(x):
        calls.append(len(x))
        return inner(x)

    target.grad_log_density = counted
    report = diagnostics.compute_report(target, ys, None)
    assert calls == [600]
    assert report.ksd_u == ksd_u(target, ys)
    assert report.ksd_v == ksd_v(target, ys)


def test_report_leaves_out_rows_with_nonfinite_scores(rng):
    # the score overflows to inf where x_0 > 2: such a row would make every
    # Stein Gram entry it touches NaN, so the KSDs score the other rows
    target = gaussian_with_overflow(2.0)
    ys = rng.uniform(-1.5, 1.5, size=(40, 2))
    bad = ys.copy()
    bad[7, 0] = 3.0
    report = diagnostics.compute_report(target, bad, None)
    kept = np.delete(ys, 7, axis=0)
    assert report.diag_rejected == 1
    assert report.ksd_u == ksd_u(target, kept)
    assert report.ksd_v == ksd_v(target, kept)
    assert diagnostics.compute_report(target, ys, None).diag_rejected == 0
    # too few rows left for a statistic: it is NaN, and nothing raises
    for n_kept in (1, 0):
        few = ys.copy()
        few[n_kept:, 0] = 3.0
        report = diagnostics.compute_report(target, few, None)
        assert report.diag_rejected == 40 - n_kept
        assert np.isnan(report.ksd_u)
        assert np.isnan(report.ksd_v) == (n_kept == 0)


# -- mean log target ------------------------------------------------------------------

def test_mean_log_target_single_row():
    t = targets.standard_normal(2)
    x = np.array([0.5, -1.0])
    assert diagnostics.mean_log_target(t, x[None, :]) == pytest.approx(
        t.log_density(x[None])[0])


def test_mean_log_target_permutation_invariant(rng):
    t = targets.make_gmm4()
    xs = rng.normal(0, 5, size=(40, 2))
    assert diagnostics.mean_log_target(t, xs) == pytest.approx(
        diagnostics.mean_log_target(t, xs[rng.permutation(40)]), rel=1e-14)


def test_mean_log_target_gmm4_reference_value():
    t = targets.make_gmm4()
    rng = np.random.Generator(np.random.Philox(123))
    xs = t.sampler(rng, 10_000)
    assert diagnostics.mean_log_target(t, xs) == pytest.approx(-4.22, abs=0.1)


# -- Slabbed Gram sums against the whole-matrix formula ------------------------------
#
# The whole-matrix formula, the reference for the slabbed sums: every
# product is one (rows, n) temporary over a block's rows and all n columns.
# The module runs the same ufuncs in the same order on slabs of a block and
# reduces each slab over the unordered pairs it stands for, so its sums equal
# this formula's, reduced over the same slab pairs, bit for bit wherever the
# slab-sized matrix products equal the whole ones.

def whole_sq_dists(xs, ys):
    xx = np.sum(xs ** 2, axis=1)
    yy = np.sum(ys ** 2, axis=1)
    r2 = xx[:, None] + yy[None, :] - 2.0 * (xs @ ys.T)
    return np.maximum(r2, 0.0)


def whole_imq_block(xs, ys):
    return 1.0 / np.sqrt(1.0 + whole_sq_dists(xs, ys))


def whole_stein_block(xs, sxs, ys, sys_):
    beta = diagnostics.IMQ_EXPONENT
    d = xs.shape[1]
    base = 1.0 + whole_sq_dists(xs, ys)
    r = 1.0 / np.sqrt(base)        # base^b, b = -1/2
    pow1 = r / base                # base^(b-1)
    pow2 = pow1 / base             # base^(b-2)
    trace_term = -2.0 * beta * d * pow1 \
        - 4.0 * beta * (beta - 1.0) * (base - 1.0) * pow2
    u_dot = (np.hstack([xs, sxs]) @ np.hstack([sys_, ys]).T
             - np.sum(ys * sys_, axis=1)[None, :] - np.sum(xs * sxs, axis=1)[:, None])
    cross = 2.0 * beta * pow1 * u_dot
    return trace_term + cross + r * (sxs @ sys_.T)


def module_blocks(n):
    return [(lo, min(lo + diagnostics._BLOCK, n)) for lo in range(0, n, diagnostics._BLOCK)]


def slab_pair_sums(rows_of, n):
    """(off-diagonal, diagonal) sums of a symmetric n x n matrix over the
    module's slabs: slab rows [a, b) against columns [a, n), the square once
    and the rest twice.  rows_of(lo, hi) gives the matrix rows [lo, hi)."""
    off = diag = 0
    for lo, hi in module_blocks(n):
        rows = rows_of(lo, hi)
        block_off = block_diag = 0.0
        for a in range(lo, hi, diagnostics._SLAB):
            b = min(a + diagnostics._SLAB, hi)
            k = np.ascontiguousarray(rows[a - lo:b - lo, a:])
            square = k[:, :b - a]
            slab_diag = np.trace(square)
            block_off += 2.0 * k[:, b - a:].sum() + (square.sum() - slab_diag)
            block_diag += slab_diag
        off, diag = off + block_off, diag + block_diag
    return off, diag


def mmd2_from(within_x, across, within_y, n):
    return (within_x / (n * (n - 1)) - 2.0 * across / (n * n)
            + within_y / (n * (n - 1)))


def slab_sums(target, xs, ys):
    """(KSD off-diagonal sum, KSD diagonal sum, MMD^2) of ys (and xs) from the
    whole-matrix formula, with the slab pairs and reductions of the module."""
    n = ys.shape[0]
    scores = target.grad_log_density(ys)
    off, diag = slab_pair_sums(
        lambda lo, hi: whole_stein_block(ys[lo:hi], scores[lo:hi], ys, scores), n)
    within_x, within_y = (
        slab_pair_sums(lambda lo, hi: whole_imq_block(zs[lo:hi], zs), n)[0]
        for zs in (xs, ys))
    across = 0
    for lo, hi in module_blocks(n):
        k = whole_imq_block(xs[lo:hi], ys)
        across += sum((k[a:a + diagnostics._SLAB].sum()
                       for a in range(0, hi - lo, diagnostics._SLAB)), 0.0)
    return off, diag, mmd2_from(within_x, across, within_y, n)


def power_sums(target, xs, ys):
    """The same three sums from whole blocks through np.power, each matrix
    summed in full: the formula of the module before its square-root powers
    and its unordered pairs."""
    beta = diagnostics.IMQ_EXPONENT
    n, d = ys.shape
    scores = target.grad_log_density(ys)

    def imq(a, b):
        return (1.0 + whole_sq_dists(a, b)) ** beta

    def stein(a, sa, b, sb):
        base = 1.0 + whole_sq_dists(a, b)
        trace_term = -2.0 * beta * d * base ** (beta - 1.0) \
            - 4.0 * beta * (beta - 1.0) * (base - 1.0) * base ** (beta - 2.0)
        u_dot = (a @ sb.T - np.sum(b * sb, axis=1)[None, :]
                 - np.sum(a * sa, axis=1)[:, None] + sa @ b.T)
        return trace_term + 2.0 * beta * base ** (beta - 1.0) * u_dot \
            + base ** beta * (sa @ sb.T)

    def off_diagonal(k, lo, hi):
        return k.sum() - np.trace(k[:, lo:hi])

    off = diag = within_x = within_y = across = 0
    for lo, hi in module_blocks(n):
        b = stein(ys[lo:hi], scores[lo:hi], ys, scores)
        bdiag = np.trace(b[:, lo:hi])
        off, diag = off + (b.sum() - bdiag), diag + bdiag
        within_x += off_diagonal(imq(xs[lo:hi], xs), lo, hi)
        within_y += off_diagonal(imq(ys[lo:hi], ys), lo, hi)
        across += imq(xs[lo:hi], ys).sum()
    return off, diag, mmd2_from(within_x, across, within_y, n)


def gram_inputs(n, d):
    rng = np.random.Generator(np.random.Philox(n * 10 + d))
    target = targets.make_gmm4() if d == 2 else targets.standard_normal(d)
    return target, rng.normal(0, 3, size=(n, d)), rng.normal(0, 3, size=(n, d))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [2, 65, 513, 600, 1100, 2048])
def test_slabbed_sums_equal_whole_block_formula(n, d):
    # The slab-sized BLAS products equal the whole ones bit for bit when n
    # is a multiple of 8 or d = 1.  Otherwise OpenBLAS computes the last
    # n % 8 columns with edge kernels whose rounding depends on the number
    # of rows, so a few of those entries of a slab differ from the whole
    # matrix's in the last bit; every other entry is equal.  n = 65 ends in
    # a one-row slab and n = 513 in a one-row block.
    exact = n % 8 == 0 or d == 1
    target, xs, ys = gram_inputs(n, d)
    off, diag, mmd2 = slab_sums(target, xs, ys)
    got_off, got_diag, got_n = diagnostics._ksd_sums(target, ys)
    got_mmd2 = diagnostics.mmd2_unbiased(xs, ys)
    assert got_n == n
    if exact:
        assert (got_off, got_diag, got_mmd2) == (off, diag, mmd2)
    else:
        assert got_off == pytest.approx(off, rel=1e-13)
        assert got_diag == pytest.approx(diag, rel=1e-13)
        assert got_mmd2 == pytest.approx(mmd2, rel=1e-12, abs=1e-16)
    # against the full sums through np.power: rounding only
    old_off, old_diag, old_mmd2 = power_sums(target, xs, ys)
    assert got_off + got_diag == pytest.approx(old_off + old_diag, rel=1e-13)
    assert got_diag == pytest.approx(old_diag, rel=1e-13)
    assert got_mmd2 == pytest.approx(old_mmd2, rel=0, abs=1e-15)


def test_report_peak_memory_is_bounded(rng):
    # the four (64, 2048) float64 slab buffers of the Stein sums (4 MiB) at
    # a time, and the scores; whole (512, 2048) blocks took 12 MiB
    target = targets.make_gmm4()
    ys = rng.normal(0, 5, size=(2048, 2))
    exact = target.sampler(rng, 2048)
    tracemalloc.start()
    try:
        diagnostics.compute_report(target, ys, exact)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20
