"""Sample-quality metrics: unbiased MMD^2 and kernel Stein discrepancies.

Both use the inverse multiquadric kernel k(x, y) = (1 + ||x - y||^2)^b
with b = IMQ_EXPONENT.  Pairwise terms are assembled from Gram matrices in
row blocks, so memory stays O(block * n) even for large sample sets, and
the block partition is fixed, keeping reductions deterministic for any
worker count.  Sample sets are (n, d) batches.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TooFewSamples
from .targets import TargetDensity

_BLOCK = 512
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
    is non-negative by construction.
    """

    mmd2_unbiased: Optional[float]
    ksd_u: float
    ksd_v: float
    mean_logpi: float
    wall_seconds: float


def imq(x, y) -> float:
    """Pointwise kernel value for two single points."""
    r2 = float(np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2))
    return (1.0 + r2) ** IMQ_EXPONENT


def _sq_dists(xs, ys):
    """Pairwise squared distances via the Gram expansion."""
    xx = np.sum(xs ** 2, axis=1)
    yy = np.sum(ys ** 2, axis=1)
    r2 = xx[:, None] + yy[None, :] - 2.0 * (xs @ ys.T)
    return np.maximum(r2, 0.0)


def mmd2_unbiased(xs: np.ndarray, ys: np.ndarray, workers: int = 1) -> float:
    """Unbiased estimate of the squared maximum mean discrepancy.

    Both sample sets must have the same size m >= 2; the two within-set
    terms exclude the diagonal.
    """
    m = xs.shape[0]
    if m < 2 or ys.shape[0] != m:
        raise TooFewSamples("MMD needs two equally sized sets with m >= 2")
    beta = IMQ_EXPONENT

    def within(zs):
        def block(lo, hi):
            k = (1.0 + _sq_dists(zs[lo:hi], zs)) ** beta
            return (k.sum() - np.trace(k[:, lo:hi]),)
        return _map_blocks(block, m, workers)[0]

    def across():
        def block(lo, hi):
            return (((1.0 + _sq_dists(xs[lo:hi], ys)) ** beta).sum(),)
        return _map_blocks(block, m, workers)[0]

    return (within(xs) / (m * (m - 1))
            - 2.0 * across() / (m * m)
            + within(ys) / (m * (m - 1)))


def stein_kernel(target: TargetDensity, x, y) -> float:
    """Pointwise Stein kernel k_pi(x, y) built on the IMQ base kernel.

    k_pi = div_x div_y k + grad_x k . s(y) + grad_y k . s(x)
           + k s(x) . s(y),   s = grad log pi.
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
    """Stein-kernel Gram block k_pi(xs_i, ys_j) from inner products only."""
    beta = IMQ_EXPONENT
    d = xs.shape[1]
    base = 1.0 + _sq_dists(xs, ys)
    pow1 = base ** (beta - 1.0)
    trace_term = -2.0 * beta * d * pow1 \
        - 4.0 * beta * (beta - 1.0) * (base - 1.0) * base ** (beta - 2.0)
    # u.(s(y)-s(x)) with u = x - y, expanded into four Gram products
    u_dot = (xs @ sys_.T - np.sum(ys * sys_, axis=1)[None, :]
             - np.sum(xs * sxs, axis=1)[:, None] + sxs @ ys.T)
    cross = 2.0 * beta * pow1 * u_dot
    return trace_term + cross + base ** beta * (sxs @ sys_.T)


def _ksd_sums(target, ys, workers=1):
    """(off-diagonal sum, diagonal sum, n) of the Stein Gram matrix."""
    n = ys.shape[0]
    scores = target.grad_log_density(ys)

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


def ksd_u(target: TargetDensity, ys, workers: int = 1) -> float:
    """Unbiased U-statistic: mean of off-diagonal Stein-kernel entries."""
    return _u_statistic(*_ksd_sums(target, ys, workers))


def ksd_v(target: TargetDensity, ys, workers: int = 1) -> float:
    """Biased, non-negative V-statistic: mean over all pairs."""
    return _v_statistic(*_ksd_sums(target, ys, workers))


def mean_log_target(target: TargetDensity, samples) -> float:
    if samples.shape[0] == 0:
        raise TooFewSamples("need at least one sample")
    return float(np.mean(target.log_density(samples)))


def compute_report(target: TargetDensity, flow_samples: np.ndarray,
                   exact_samples: Optional[np.ndarray],
                   wall_seconds: float = 0.0,
                   workers: int = 1) -> DiagnosticsReport:
    """Assemble the standard report for a set of flow-generated samples."""
    mmd2 = None
    if exact_samples is not None:
        mmd2 = mmd2_unbiased(flow_samples, exact_samples, workers)
    # one Stein Gram pass serves both KSD statistics
    sums = _ksd_sums(target, flow_samples, workers)
    return DiagnosticsReport(
        mmd2_unbiased=mmd2,
        ksd_u=_u_statistic(*sums),
        ksd_v=_v_statistic(*sums),
        mean_logpi=mean_log_target(target, flow_samples),
        wall_seconds=wall_seconds,
    )
