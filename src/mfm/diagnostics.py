"""Sample-quality metrics: unbiased MMD^2 and kernel Stein discrepancies.

Both use the inverse multiquadric kernel k(x, y) = (1 + ||x - y||^2)^b
with b = IMQ_EXPONENT.  Pairwise terms are summed from Gram matrices in
row blocks of _BLOCK rows; the block partition is fixed, keeping
reductions deterministic for any worker count.  Each block is one
(_BLOCK, n) result array, reduced whole, and is built in slabs of _SLAB
rows through at most four (_SLAB, n) scratch buffers of its own.  A block
in flight therefore holds 1.5 * _BLOCK * n float64 values, 12 MiB at
n = 2,048, whatever d is.  The slabs run the ufuncs of the whole-block
formula in its order, so the sums are that formula's bit for bit wherever
a slab's matrix products equal the block's.  With OpenBLAS they do when n
is a multiple of 8 or d = 1; otherwise a few entries in the last n % 8
columns can differ in the last bit.  Sample sets are (n, d) batches.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TooFewSamples
from .targets import TargetDensity

_BLOCK = 512
# Rows per slab of a Gram block: a block's scratch buffers are (_SLAB, n).
_SLAB = 64
IMQ_EXPONENT = -0.5


def _map_blocks(fn, n, workers):
    """Apply fn to fixed row blocks [lo, hi); sum results in block order.

    The partition depends only on n, so totals are identical for any
    worker count.
    """
    blocks = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: fn(*b), blocks))
    else:
        parts = [fn(lo, hi) for lo, hi in blocks]
    return [sum(vals) for vals in zip(*parts)]


@dataclass
class DiagnosticsReport:
    """One run's sample-quality summary.

    mmd2_unbiased is None when the target admits no exact sampler.  The
    unbiased MMD^2 may legitimately be slightly negative; the KSD V-statistic
    is non-negative by construction.  The KSDs score only the rows whose
    position and score are finite; diag_rejected counts the others.  A KSD
    with too few such rows is NaN.
    """

    mmd2_unbiased: Optional[float]
    ksd_u: float
    ksd_v: float
    mean_logpi: float
    diag_rejected: int


def imq(x, y) -> float:
    """Pointwise kernel value for two single points.

    Not used by the blocked sums: kept as the deliberate per-pair oracle
    that the tests check them against.
    """
    r2 = float(np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2))
    return (1.0 + r2) ** IMQ_EXPONENT


def _slabs(rows, n, count):
    """Row slabs [lo, hi) of _SLAB rows covering range(rows), each with
    count contiguous (hi - lo, n) scratch buffers.

    The buffers are allocated per call, so blocks on other threads never
    share them; every slab reuses them.
    """
    buffers = np.empty((count, min(rows, _SLAB), n))
    for lo in range(0, rows, _SLAB):
        hi = min(lo + _SLAB, rows)
        yield lo, hi, buffers[:, :hi - lo]


def _base_into(out, tmp, xs, xx, ys, yy):
    """out = 1 + max(||x_i - y_j||^2, 0) via the Gram expansion; returns out.

    xx and yy are the squared row norms of xs and ys.  The ufuncs are those
    of 1 + max(xx[:, None] + yy[None, :] - 2 (xs @ ys.T), 0), in that order.
    """
    np.matmul(xs, ys.T, out=out)
    out *= 2.0
    np.add(xx[:, None], yy[None, :], out=tmp)
    np.subtract(tmp, out, out=out)
    np.maximum(out, 0.0, out=out)
    out += 1.0
    return out


def _imq_block(xs, ys):
    """IMQ Gram block k(xs_i, ys_j), built in slabs of _SLAB rows."""
    rows, n = xs.shape[0], ys.shape[0]
    xx = np.sum(xs ** 2, axis=1)
    yy = np.sum(ys ** 2, axis=1)
    k = np.empty((rows, n))
    for lo, hi, (b0, b1) in _slabs(rows, n, 2):
        base = _base_into(b0, b1, xs[lo:hi], xx[lo:hi], ys, yy)
        np.power(base, IMQ_EXPONENT, out=k[lo:hi])
    return k


def mmd2_unbiased(xs: np.ndarray, ys: np.ndarray, workers: int = 1) -> float:
    """Unbiased estimate of the squared maximum mean discrepancy.

    Both sample sets must have the same size m >= 2; the two within-set
    terms exclude the diagonal.
    """
    m = xs.shape[0]
    if m < 2 or ys.shape[0] != m:
        raise TooFewSamples("MMD needs two equally sized sets with m >= 2")

    def within(zs):
        def block(lo, hi):
            k = _imq_block(zs[lo:hi], zs)
            return (k.sum() - np.trace(k[:, lo:hi]),)
        return _map_blocks(block, m, workers)[0]

    def across():
        def block(lo, hi):
            return (_imq_block(xs[lo:hi], ys).sum(),)
        return _map_blocks(block, m, workers)[0]

    return (within(xs) / (m * (m - 1))
            - 2.0 * across() / (m * m)
            + within(ys) / (m * (m - 1)))


def stein_kernel(target: TargetDensity, x, y) -> float:
    """Pointwise Stein kernel k_pi(x, y) built on the IMQ base kernel.

    k_pi = div_x div_y k + grad_x k . s(y) + grad_y k . s(x)
           + k s(x) . s(y),   s = grad log pi.

    Not used by the blocked sums: kept as the deliberate per-pair oracle
    that the tests check them against.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size
    beta = IMQ_EXPONENT
    u = x - y
    r2 = float(np.sum(u ** 2))
    base = 1.0 + r2
    sx = target.grad_log_density(x[None])[0]
    sy = target.grad_log_density(y[None])[0]
    # grad_x k = 2 beta u base^(beta-1); grad_y k = -grad_x k
    trace_term = -2.0 * beta * d * base ** (beta - 1.0) \
        - 4.0 * beta * (beta - 1.0) * r2 * base ** (beta - 2.0)
    cross = 2.0 * beta * base ** (beta - 1.0) * float(np.dot(u, sy - sx))
    return trace_term + cross + base ** beta * float(np.dot(sx, sy))


def _stein_block(xs, sxs, ys, sys_):
    """Stein-kernel Gram block k_pi(xs_i, ys_j) from inner products only.

    Built in slabs of _SLAB rows through four slab-sized buffers.  Per slab,
    with base = 1 + r^2, the ufuncs run in the order of

        -2 b d base^(b-1) - 4 b (b-1) (base - 1) base^(b-2)
        + 2 b base^(b-1) u_dot + base^b (sxs @ sys_.T),

    where u_dot = u.(s(y) - s(x)) with u = x - y, expanded into four Gram
    products.
    """
    beta = IMQ_EXPONENT
    rows, d = xs.shape
    n = ys.shape[0]
    c_trace1 = -2.0 * beta * d
    c_trace2 = 4.0 * beta * (beta - 1.0)
    c_cross = 2.0 * beta
    xx = np.sum(xs ** 2, axis=1)
    yy = np.sum(ys ** 2, axis=1)
    xs_dot = np.sum(xs * sxs, axis=1)
    ys_dot = np.sum(ys * sys_, axis=1)
    k = np.empty((rows, n))
    for lo, hi, (b0, b1, b2, b3) in _slabs(rows, n, 4):
        x, sx, out = xs[lo:hi], sxs[lo:hi], k[lo:hi]
        base = _base_into(b0, b1, x, xx[lo:hi], ys, yy)
        pow1 = np.power(base, beta - 1.0, out=b1)
        # trace term
        np.multiply(c_trace1, pow1, out=out)
        np.subtract(base, 1.0, out=b2)
        b2 *= c_trace2
        b2 *= np.power(base, beta - 2.0, out=b3)
        out -= b2
        # cross term
        np.matmul(x, sys_.T, out=b2)
        b2 -= ys_dot[None, :]
        b2 -= xs_dot[lo:hi, None]
        b2 += np.matmul(sx, ys.T, out=b3)
        pow1 *= c_cross
        pow1 *= b2
        out += pow1
        # score term
        np.power(base, beta, out=base)
        base *= np.matmul(sx, sys_.T, out=b3)
        out += base
    return k


def _ksd_sums(target, ys, workers=1):
    """(off-diagonal sum, diagonal sum, n) of the Stein Gram matrix.

    A row whose position or score is not finite would poison every entry
    it touches, so the matrix is over the other rows, and n counts them.
    When every row is finite, ys and its scores are used as they are.
    """
    scores = target.grad_log_density(ys)
    finite = np.all(np.isfinite(ys), axis=1) & np.all(np.isfinite(scores), axis=1)
    if not finite.all():
        ys, scores = ys[finite], scores[finite]
    n = ys.shape[0]
    if n == 0:
        return 0.0, 0.0, 0

    def block(lo, hi):
        b = _stein_block(ys[lo:hi], scores[lo:hi], ys, scores)
        bdiag = np.trace(b[:, lo:hi])
        return b.sum() - bdiag, bdiag

    off, diag = _map_blocks(block, n, workers)
    return off, diag, n


def _u_statistic(off, _diag, n):
    if n < 2:
        raise TooFewSamples("KSD U-statistic needs n >= 2")
    return off / (n * (n - 1))


def _v_statistic(off, diag, n):
    if n < 1:
        raise TooFewSamples("KSD V-statistic needs n >= 1")
    return (off + diag) / (n * n)


def mean_log_target(target: TargetDensity, samples) -> float:
    if samples.shape[0] == 0:
        raise TooFewSamples("need at least one sample")
    return float(np.mean(target.log_density(samples)))


def compute_report(target: TargetDensity, flow_samples: np.ndarray,
                   exact_samples: Optional[np.ndarray],
                   workers: int = 1) -> DiagnosticsReport:
    """Assemble the standard report for a set of flow-generated samples."""
    mmd2 = None
    if exact_samples is not None:
        mmd2 = mmd2_unbiased(flow_samples, exact_samples, workers)
    # one Stein Gram pass serves both KSD statistics
    off, diag, n = _ksd_sums(target, flow_samples, workers)
    return DiagnosticsReport(
        mmd2_unbiased=mmd2,
        ksd_u=_u_statistic(off, diag, n) if n >= 2 else float("nan"),
        ksd_v=_v_statistic(off, diag, n) if n >= 1 else float("nan"),
        mean_logpi=mean_log_target(target, flow_samples),
        diag_rejected=flow_samples.shape[0] - n,
    )
