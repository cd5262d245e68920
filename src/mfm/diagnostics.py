"""Sample-quality metrics: unbiased MMD^2 and kernel Stein discrepancies.

Both use the inverse multiquadric kernel k(x, y) = (1 + ||x - y||^2)^b
with b = IMQ_EXPONENT = -1/2, whose powers are taken from one square root:
r = 1 / sqrt(base), base^(b-1) = r / base and base^(b-2) = r / base / base.

Every pairwise term is summed by one reducer, _gram_sums, over row blocks
of _BLOCK rows, and each block in slabs of _SLAB rows.  A slab is built in
at most four contiguous scratch buffers of the block's own and reduced at
once, so no (_BLOCK, n) array exists: at n = 2,048 a block holds 4 MiB
whatever d is.  The within-set MMD matrices and the Stein matrix are
symmetric, so slab rows [a, b) are scored against columns [a, n) only: the
square [a, b)^2 is summed once and gives the trace, the part right of it
counts twice.  The across-set MMD term scores every slab against all n
columns.  Slab sums add up in slab order and block sums in block order,
over a partition that depends on n alone, so the report is the same bit
for bit for any worker count.

Against the whole n x n matrices of the same formula (the tests' oracle),
summed over the same slab pairs, the sums are equal bit for bit wherever a
slab's matrix products equal the whole matrix's.  With OpenBLAS they do
when n is a multiple of 8 or d = 1; otherwise a few entries in the last
n % 8 columns can differ in the last bit.  Sample sets are (n, d) batches.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TooFewSamples
from .targets import TargetDensity

_BLOCK = 512
# Rows per slab of a Gram block: each of a block's scratch buffers holds
# _SLAB * n values.
_SLAB = 64
# b of the IMQ kernel; the Gram sums take its powers from 1 / sqrt(base), so
# they hold for b = -1/2 alone
IMQ_EXPONENT = -0.5


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


def _gram_sums(n, count, fill, symmetric, workers):
    """(off-diagonal, diagonal) sums of an n x n Gram matrix K.

    fill(bufs, rows, cols) writes K[rows, cols] into one of bufs, count
    contiguous scratch arrays of that shape, and returns it.  A symmetric
    K is filled over columns [a, n) of each slab [a, b) (see the module
    docstring); otherwise every slab is summed whole into off, and diag
    is 0.
    """
    def block(lo, hi):
        # allocated per block, so blocks on other threads never share them
        flat = np.empty((count, min(hi - lo, _SLAB) * n))
        off = diag = 0.0
        for a in range(lo, hi, _SLAB):
            b = min(a + _SLAB, hi)
            c = a if symmetric else 0
            size = (b - a) * (n - c)
            k = fill([buf[:size].reshape(b - a, n - c) for buf in flat],
                     slice(a, b), slice(c, None))
            if symmetric:
                square = k[:, :b - a]
                trace = np.trace(square)
                off += 2.0 * k[:, b - a:].sum() + (square.sum() - trace)
                diag += trace
            else:
                off += k.sum()
        return off, diag

    blocks = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda lo_hi: block(*lo_hi), blocks))
    else:
        parts = [block(lo, hi) for lo, hi in blocks]
    return sum(part[0] for part in parts), sum(part[1] for part in parts)


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


def _imq_into(out, tmp, xs, xx, ys, yy):
    """out = k(xs_i, ys_j) = 1 / sqrt(base); returns out."""
    base = _base_into(out, tmp, xs, xx, ys, yy)
    np.sqrt(base, out=base)
    return np.divide(1.0, base, out=base)


def mmd2_unbiased(xs: np.ndarray, ys: np.ndarray, workers: int = 1) -> float:
    """Unbiased estimate of the squared maximum mean discrepancy.

    Both sample sets must have the same size m >= 2; the two within-set
    terms exclude the diagonal.
    """
    m = xs.shape[0]
    if m < 2 or ys.shape[0] != m:
        raise TooFewSamples("MMD needs two equally sized sets with m >= 2")

    xx = np.sum(xs ** 2, axis=1)
    yy = np.sum(ys ** 2, axis=1)

    def imq_sum(rows, rows_sq, cols, cols_sq, symmetric):
        def fill(bufs, r, c):
            return _imq_into(*bufs, rows[r], rows_sq[r], cols[c], cols_sq[c])
        return _gram_sums(m, 2, fill, symmetric, workers)[0]

    return (imq_sum(xs, xx, xs, xx, True) / (m * (m - 1))
            - 2.0 * imq_sum(xs, xx, ys, yy, False) / (m * m)
            + imq_sum(ys, yy, ys, yy, True) / (m * (m - 1)))


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


def _stein_into(bufs, rows, cols):
    """bufs[0] = k_pi(xs_i, ys_j) from inner products only; returns bufs[0].

    bufs are four (len(xs), len(ys)) buffers.  rows = (xs, sxs, xx, x_dot,
    xsx) and cols = (ys, sys_, yy, y_dot, syy) hold the positions, their
    scores, squared norms and x . s(x), and xsx = [xs, sxs], syy = [sys_, ys]
    side by side, so that one product gives x.s(y) + s(x).y.  With
    base = 1 + r^2 the ufuncs run in the order of

        -2 b d base^(b-1) - 4 b (b-1) (base - 1) base^(b-2)
        + 2 b base^(b-1) u_dot + base^b (sxs @ sys_.T),

    where u_dot = u.(s(y) - s(x)) with u = x - y is
    xsx @ syy.T - y_dot - x_dot.
    """
    beta = IMQ_EXPONENT
    xs, sxs, xx, x_dot, xsx = rows
    ys, sys_, yy, y_dot, syy = cols
    out, r, pow1, tmp = bufs
    base = _base_into(out, tmp, xs, xx, ys, yy)
    np.sqrt(base, out=r)
    np.divide(1.0, r, out=r)                      # base^b
    np.divide(r, base, out=pow1)                  # base^(b-1)
    # trace term
    np.subtract(base, 1.0, out=tmp)
    tmp *= 4.0 * beta * (beta - 1.0)
    tmp *= np.divide(pow1, base, out=base)        # base^(b-2); base is done
    np.multiply(-2.0 * beta * xs.shape[1], pow1, out=out)
    out -= tmp
    # cross term
    np.matmul(xsx, syy.T, out=tmp)
    tmp -= y_dot[None, :]
    tmp -= x_dot[:, None]
    pow1 *= 2.0 * beta
    pow1 *= tmp
    out += pow1
    # score term
    r *= np.matmul(sxs, sys_.T, out=tmp)
    out += r
    return out


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
    yy = np.sum(ys ** 2, axis=1)
    y_dot = np.sum(ys * scores, axis=1)
    as_rows = (ys, scores, yy, y_dot, np.hstack([ys, scores]))
    as_cols = (ys, scores, yy, y_dot, np.hstack([scores, ys]))

    def fill(bufs, r, c):
        return _stein_into(bufs, [v[r] for v in as_rows], [v[c] for v in as_cols])

    n = ys.shape[0]
    return (*_gram_sums(n, 4, fill, True, workers), n)


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
        ksd_u=off / (n * (n - 1)) if n >= 2 else float("nan"),
        ksd_v=(off + diag) / (n * n) if n >= 1 else float("nan"),
        mean_logpi=mean_log_target(target, flow_samples),
        diag_rejected=flow_samples.shape[0] - n,
    )
