"""Benchmark target densities.

Every target is packaged as a :class:`TargetDensity` around one
first-order oracle, ``value_and_grad``: it maps an (N, d) batch of
positions to the (N,) unnormalized log-densities and their (N, d)
gradients, from one pass over the work both share (on the LGCP target,
one (N, d) by (d, d) product with the precision).  ``log_density`` and
``grad_log_density`` read that oracle, so the value and the gradient of a
target cannot disagree.  A Hessian-vector product completes each target;
a single point is a one-row batch.  Each target is built from its size
alone (``make_field_system(d)``, ``make_lgcp(m_side, counts)``); the model
constants are module constants.  Normalizing constants are never computed
anywhere; Metropolis ratios and tempering only ever see log-density
differences.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, FactorizationFailure

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class TargetDensity:
    """Unnormalized density with first- and second-order oracle access.

    Attributes:
        dim: Dimension of the state space.
        value_and_grad: The one first-order oracle: (N, d) positions ->
            ``(value, grad)``, the (N,) unnormalized log-densities and
            their (N, d) gradients.
        hvp_log_density: ``(x, v) -> H(x) v`` per row, where H is the
            Hessian of the log-density; ``v`` is one (d,) direction for
            every row or an (N, d) batch of directions.
        sampler: Optional exact sampler ``(rng, n) -> (n, d)``; present only
            for targets that admit one (mixtures, product targets).
        name: Short identifier used in logs and artifacts.

    ``log_density`` and ``grad_log_density`` are methods over
    ``value_and_grad``.  The class is neither frozen nor slotted, so a
    counting or timing wrapper may shadow them with instance attributes;
    :func:`tempered` looks the target's ``log_density`` up at call time
    and so sees such a wrapper.
    """

    dim: int
    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    hvp_log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    name: str = ""

    def log_density(self, x, with_grad=False):
        """(N,) log-densities at x; ``(value, grad)`` if with_grad."""
        out = self.value_and_grad(x)
        return out if with_grad else out[0]

    def grad_log_density(self, x):
        """(N, d) gradients of the log-density at x."""
        return self.value_and_grad(x)[1]


# The models are fixed; only their sizes vary (field d, lgcp m_side), so
# that tests can build small instances.  Field system: coupling a, well
# depth b and inverse temperature beta.  LGCP prior: the exponential
# covariance's variance sigma^2 and length scale beta, and the latent
# field's mean mu0, as in Moller, Syversveen & Waagepetersen (1998).
FIELD_COUPLING = 0.1
FIELD_WELL_DEPTH = 10.0
FIELD_BETA = 20.0
LGCP_SIGMA2 = 1.91
LGCP_BETA_LEN = 1.0 / 33.0
# log(126) - sigma^2 / 2, so that the intensity's prior mean is 126
LGCP_MU0 = np.log(126.0) - LGCP_SIGMA2 / 2.0


def _mixture_target(means: np.ndarray, variances: np.ndarray,
                    name: str) -> TargetDensity:
    """Equally weighted isotropic Gaussian mixture: means (C, d), variances (C,).

    Every oracle is (N, d) by (d, C) products and (N, C) arithmetic, with
    p_c = 1/var_c and a_c = mu_c/var_c fixed once; no (N, C, d) array is
    formed.  The products are np.einsum contractions, not BLAS matmuls:
    BLAS rounds a row differently with the batch's size and the row's place
    in it, and kernels.ChainState takes and merges rows of earlier calls as
    if evaluated afresh.  Component c's log-term is expanded as

        log(N(x; mu_c, var_c I) / C) = x.a_c - p_c |x|^2 / 2 + k_c,
        k_c = -log C - (d/2) log(2 pi var_c) - p_c |mu_c|^2 / 2,

    and the responsibilities r (N, C) are its softmax over c.  With the
    pulls u_c = a_c - p_c x, the mean pull m = r @ a and the mean
    precision s = r @ p, the score is g = sum_c r_c u_c = m - s x.  The
    Hessian is the responsibility-weighted covariance of the pulls, less
    s I:

        H v = sum_c r_c (D_c . v) D_c - s v,
        D_c = u_c - g = (a_c - m) - (p_c - s) x.

    The textbook form sum_c r_c (u_c u_c^T - p_c I) - g g^T subtracts two
    terms of size |x|^2 / var^2 that cancel to the spread of the pulls, so
    it loses accuracy as |x| grows.  D_c carries x only through the spread
    p_c - s of the precisions (zero when the variances are equal), so no
    |x|^2-sized term is formed, let alone subtracted.
    """
    n_comp, dim = means.shape
    precisions = 1.0 / variances                     # p (C,)
    # [a^T; p] (d + 1, C): one product with r gives both r @ a and r @ p
    moments = np.vstack([means.T * precisions, precisions])
    pulls_at_zero = moments[:-1]                     # a^T (d, C)
    half_precisions = 0.5 * precisions
    consts = (-np.log(n_comp) - 0.5 * dim * (LOG_2PI + np.log(variances))
              - half_precisions * np.sum(means ** 2, axis=1))

    def row_dots(a, b):
        """(N, 1) dot products of the rows of a and b."""
        return np.einsum("ij,ij->i", a, b)[:, None]

    def responsibilities(xb):
        """The (N,) log-densities and the (N, C) responsibilities."""
        logs = (np.einsum("nk,kc->nc", xb, pulls_at_zero) + consts
                - row_dots(xb, xb) * half_precisions)
        top = logs.max(axis=1, keepdims=True)
        w = np.exp(logs - top)
        total = w.sum(axis=1, keepdims=True)
        return (top + np.log(total))[:, 0], w / total

    def value_and_grad(xb):
        value, r = responsibilities(xb)
        mean = np.einsum("nc,jc->nj", r, moments)             # [m | s]
        return value, mean[:, :-1] - mean[:, -1:] * xb

    def hvp_log_density(xb, v):
        vb = np.broadcast_to(v, xb.shape)
        _, r = responsibilities(xb)
        mean = np.einsum("nc,jc->nj", r, moments)
        mean_pull, mean_prec = mean[:, :-1], mean[:, -1:]      # m (N, d), s (N, 1)
        spread = precisions - mean_prec                        # p_c - s (N, C)
        # r_c (D_c . v), then sum_c of it times D_c
        weighted = r * (np.einsum("nk,kc->nc", vb, pulls_at_zero)
                        - row_dots(mean_pull, vb) - row_dots(xb, vb) * spread)
        return (np.einsum("nc,kc->nk", weighted, pulls_at_zero)
                - weighted.sum(axis=1, keepdims=True) * mean_pull
                - row_dots(weighted, spread) * xb - mean_prec * vb)

    def sampler(rng, n):
        idx = rng.integers(0, n_comp, size=n)
        return means[idx] + np.sqrt(variances[idx])[:, None] * rng.standard_normal((n, dim))

    return TargetDensity(dim, value_and_grad, hvp_log_density,
                         sampler=sampler, name=name)


def make_gmm4() -> TargetDensity:
    """Four unit-variance modes at (+-8, +-8), equally weighted."""
    means = np.array([[8.0, 8.0], [-8.0, 8.0], [8.0, -8.0], [-8.0, -8.0]])
    return _mixture_target(means, np.ones(4), "gmm4")


GMM16_LATTICE = np.array([-12.0, -4.0, 4.0, 12.0])


def make_gmm16(seed: int = 0) -> TargetDensity:
    """Sixteen modes on the lattice {-12,-4,4,12}^2 with seed-frozen variances."""
    xs, ys = np.meshgrid(GMM16_LATTICE, GMM16_LATTICE)
    means = np.column_stack([xs.ravel(), ys.ravel()])
    variances = np.random.Generator(np.random.Philox(seed)).lognormal(0.0, 0.25, size=16)
    return _mixture_target(means, variances, "gmm16")


def reference_log_density(x, with_grad=False):
    """log N(x; 0, I) per row, constant included; ``(value, -x)`` if with_grad.

    The flow's one reference density: every flow starts from its draws and
    tempering bridges from it (beta = 0) to the target (beta = 1).
    """
    value = -0.5 * x.shape[-1] * LOG_2PI - 0.5 * np.sum(x ** 2, axis=-1)
    return (value, -x) if with_grad else value


def standard_normal(dim: int) -> TargetDensity:
    """The reference N(0, I) as a TargetDensity, with an exact sampler."""
    return TargetDensity(dim, lambda x: reference_log_density(x, with_grad=True),
                         lambda x, v: -np.broadcast_to(v, x.shape),
                         sampler=lambda rng, n: rng.standard_normal((n, dim)),
                         name="std_normal")


# -- Many Well ---------------------------------------------------------------

def _double_well_samples(rng, n):
    """Inverse-CDF draws from the 1-d density prop. to exp(-x^4 + 6x^2 + x/2)."""
    grid = np.linspace(-4.5, 4.5, 20001)
    logp = -grid ** 4 + 6.0 * grid ** 2 + 0.5 * grid
    p = np.exp(logp - logp.max())
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.uniform(size=n)
    return np.interp(u, cdf, grid)


def make_many_well(n_copies: int = 16) -> TargetDensity:
    """Product of 2-d double wells; dim = 2 * n_copies."""
    dim = 2 * n_copies

    def value_and_grad(xb):
        a = xb[:, 0::2]
        b = xb[:, 1::2]
        g = np.empty_like(xb)
        g[:, 0::2] = -4.0 * a ** 3 + 12.0 * a + 0.5
        g[:, 1::2] = -b
        return np.sum(-a ** 4 + 6.0 * a ** 2 + 0.5 * a - 0.5 * b ** 2, axis=-1), g

    def hvp_log_density(xb, v):
        vb = np.broadcast_to(v, xb.shape)
        hv = np.empty_like(xb)
        a = xb[:, 0::2]
        hv[:, 0::2] = (-12.0 * a ** 2 + 12.0) * vb[:, 0::2]
        hv[:, 1::2] = -vb[:, 1::2]
        return hv

    def sampler(rng, n):
        out = np.empty((n, dim))
        for j in range(n_copies):
            out[:, 2 * j] = _double_well_samples(rng, n)
            out[:, 2 * j + 1] = rng.standard_normal(n)
        return out

    return TargetDensity(dim, value_and_grad, hvp_log_density,
                         sampler=sampler, name="many_well")


# -- Field system ------------------------------------------------------------

def make_field_system(d: int = 64) -> TargetDensity:
    """Discretized scalar field with zero Dirichlet boundaries.

    log pi(x) = -beta [ a/(2 ds) sum_{i=1..d+1} (x_i - x_{i-1})^2
                        + b ds/4 sum_{i=1..d} (1 - x_i^2)^2 ]
    with x_0 = x_{d+1} = 0 (implicit, not in the state vector), ds = 1/d,
    a = FIELD_COUPLING, b = FIELD_WELL_DEPTH and beta = FIELD_BETA.
    """
    if d < 2:
        raise ValueError("field system needs d >= 2")
    beta, ds = FIELD_BETA, 1.0 / d
    coupling = FIELD_COUPLING / (2.0 * ds)
    onsite = FIELD_WELL_DEPTH * ds / 4.0

    def padded(xb):
        z = np.zeros((xb.shape[0], 1))
        return np.concatenate([z, xb, z], axis=1)

    def value_and_grad(xb):
        xp = padded(xb)
        jumps = np.sum(np.diff(xp, axis=1) ** 2, axis=1)
        wells = np.sum((1.0 - xb ** 2) ** 2, axis=1)
        lap = 2.0 * xb - xp[:, :-2] - xp[:, 2:]
        return (-beta * (coupling * jumps + onsite * wells),
                -beta * (2.0 * coupling * lap - 4.0 * onsite * xb * (1.0 - xb ** 2)))

    def hvp_log_density(xb, v):
        vb = np.broadcast_to(v, xb.shape)
        vp = padded(vb)
        lap_v = 2.0 * vb - vp[:, :-2] - vp[:, 2:]
        diag = -4.0 * onsite * (1.0 - 3.0 * xb ** 2)
        return -beta * (2.0 * coupling * lap_v + diag * vb)

    return TargetDensity(d, value_and_grad, hvp_log_density,
                         name="field_system")


# -- Log-Gaussian Cox process ------------------------------------------------

# Rows per block of the covariance fill, and the largest block that the
# in-place Cholesky factor and Gram product hand to numpy whole
_COVARIANCE_ROWS = 64
_LGCP_BLOCK = 256


def lgcp_covariance(m_side: int) -> np.ndarray:
    """Exponential covariance over the midpoints of the m_side x m_side grid
    cells of the unit square: LGCP_SIGMA2 exp(-distance / LGCP_BETA_LEN).

    Filled in blocks of rows, so that its only temporary is one block of
    squared y-differences.
    """
    coords = (np.arange(m_side) + 0.5) / m_side
    px, py = np.meshgrid(coords, coords, indexing="ij")
    px, py = px.ravel(), py.ravel()
    d = len(px)
    cov = np.empty((d, d))
    dy_rows = np.empty((min(d, _COVARIANCE_ROWS), d))
    for start in range(0, d, _COVARIANCE_ROWS):
        rows = slice(start, start + _COVARIANCE_ROWS)
        # dx*dx + dy*dy rounds exactly like summing the squared (N, N, 2)
        # difference tensor over its last axis, without building that tensor
        dx = np.subtract(px[rows, None], px[None, :], out=cov[rows])
        dy = np.subtract(py[rows, None], py[None, :], out=dy_rows[:len(dx)])
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        dx /= -LGCP_BETA_LEN
        np.exp(dx, out=dx)
        dx *= LGCP_SIGMA2
    return cov


# The three block recursions below overwrite their one (n, n) argument.
# Each keeps at most two temporaries of a quarter of it alive at once.

def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the symmetric positive definite a with its lower Cholesky
    factor, upper triangle zero, by 2 x 2 block recursion (Gustavson, IBM
    J. Res. Dev. 1997).  Blocks of at most _LGCP_BLOCK rows go to
    np.linalg.cholesky, whose LinAlgError is left to the caller.

    [[A11, .], [A21, A22]] = [[L11, 0], [L21, L22]] [[L11, 0], [L21, L22]]^T
    with L21 = A21 inv(L11)^T and L22 the factor of A22 - L21 L21^T.
    """
    n = a.shape[0]
    if n <= _LGCP_BLOCK:
        a[...] = np.linalg.cholesky(a)
        return
    h = n // 2
    _cholesky_in_place(a[:h, :h])
    inv11 = a[:h, :h].copy()
    _invert_lower(inv11)
    np.matmul(a[h:, :h], inv11.T, out=a[h:, :h])
    del inv11   # before the Schur complement's temporary
    a[h:, h:] -= a[h:, :h] @ a[h:, :h].T
    a[:h, h:] = 0.0
    _cholesky_in_place(a[h:, h:])


def _invert_lower(a: np.ndarray) -> None:
    """Overwrite the lower-triangular a with its inverse by 2 x 2 block recursion.

    inv([[A, 0], [C, B]]) = [[inv(A), 0], [-inv(B) (C inv(A)), inv(B)]]
    (Du Croz & Higham, IMA J. Numer. Anal. 1992).  Both halves are
    inverted in place before the corner is formed; blocks of at most 64
    rows go to np.linalg.inv.  The upper triangle is never written.
    """
    n = a.shape[0]
    if n <= 64:
        a[...] = np.linalg.inv(a)
        return
    h = n // 2
    _invert_lower(a[:h, :h])
    _invert_lower(a[h:, h:])
    corner = a[h:, :h]
    np.matmul(a[h:, h:], corner @ a[:h, :h], out=corner)
    np.negative(corner, out=corner)


def _gram_in_place(a: np.ndarray) -> None:
    """Overwrite the lower-triangular a with the symmetric a^T a.

    [[A, 0], [C, B]]^T [[A, 0], [C, B]] = [[A^T A + C^T C, C^T B],
    [B^T C, B^T B]]: the diagonal blocks recurse, so no product multiplies
    the triangles' zeros above the block level, and the upper block is the
    lower one transposed.  Blocks of at most _LGCP_BLOCK rows are one
    a.T @ a.
    """
    n = a.shape[0]
    if n <= _LGCP_BLOCK:
        a[...] = a.T @ a
        return
    h = n // 2
    lower = a[h:, :h]
    _gram_in_place(a[:h, :h])
    a[:h, :h] += lower.T @ lower
    np.matmul(a[h:, h:].T, lower, out=lower)
    a[:h, h:] = lower.T
    _gram_in_place(a[h:, h:])


def _lgcp_cholesky(m_side: int) -> np.ndarray:
    """Lower Cholesky factor of lgcp_covariance(m_side), in the covariance's
    own array."""
    chol = lgcp_covariance(m_side)
    try:
        _cholesky_in_place(chol)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"LGCP covariance for m_side={m_side} is not positive definite") from exc
    return chol


def _draw_counts(chol: np.ndarray, m_side: int, seed: int) -> np.ndarray:
    """Counts grid from the generative model whose covariance factor is chol."""
    rng = np.random.Generator(np.random.Philox(seed))
    latent = LGCP_MU0 + chol @ rng.standard_normal(m_side ** 2)
    rates = (1.0 / m_side ** 2) * np.exp(latent)
    return rng.poisson(rates).reshape(m_side, m_side)


def synthetic_lgcp_counts(m_side: int, seed: int = 0) -> np.ndarray:
    """Counts grid drawn from the generative model at a fixed seed."""
    return _draw_counts(_lgcp_cholesky(m_side), m_side, seed)


def make_lgcp(m_side: int, counts: Optional[np.ndarray] = None) -> TargetDensity:
    """Posterior of the latent log-intensity field given m_side x m_side counts.

    Without counts, the seed-0 synthetic grid (synthetic_lgcp_counts) is
    drawn from the same Cholesky factor that the precision is built from,
    so the covariance is factored once whatever the counts' source.  One
    (d, d) array holds the covariance, its factor, the factor's inverse
    and the precision in turn.
    """
    if counts is not None and np.shape(counts) != (m_side, m_side):
        raise DimensionMismatch(
            f"counts grid is {np.shape(counts)}, expected {(m_side, m_side)}")
    chol = _lgcp_cholesky(m_side)
    if counts is None:
        counts = _draw_counts(chol, m_side, seed=0)
    y = np.asarray(counts).ravel().astype(float)
    area = 1.0 / m_side ** 2

    # cov^{-1} = inv(chol)^T inv(chol), formed in the factor's own array
    # and read-only from then on
    precision = chol
    _invert_lower(precision)
    _gram_in_place(precision)

    def value_and_grad(xb):
        # one product with the precision and one exp serve both outputs
        centered = xb - LGCP_MU0
        pulled = centered @ precision
        rates = np.exp(xb)
        quad = np.sum(centered * pulled, axis=-1)
        lik = xb @ y - area * np.sum(rates, axis=-1)
        return -0.5 * quad + lik, -pulled + y - area * rates

    def hvp_log_density(xb, v):
        vb = np.broadcast_to(v, xb.shape)
        return -vb @ precision - area * np.exp(xb) * vb

    return TargetDensity(m_side ** 2, value_and_grad, hvp_log_density,
                         name=f"lgcp{m_side}")


# Each named target's dimension, as cli.build_target builds it from the
# constructors above; lgcp's is m_side ** 2, so its entry is None.  The
# named targets with an exact sampler, which the fm-oracle mode trains on.
DIMENSIONS = {"gmm4": 2, "gmm16": 2, "manywell": 32, "field": 64, "lgcp": None}
EXACT_SAMPLERS = frozenset({"gmm4", "gmm16", "manywell"})


def load_counts_csv(path, m_side: int) -> np.ndarray:
    """Row-major non-negative integer counts, m_side rows by m_side columns."""
    counts = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
    if counts.shape != (m_side, m_side):
        raise DimensionMismatch(
            f"counts file is {counts.shape}, expected {(m_side, m_side)}")
    negative = np.argwhere(counts < 0)
    if len(negative):
        i, j = negative[0]
        raise ValueError(f"counts file {path}: negative count {counts[i, j]} "
                         f"at row {i + 1}, column {j + 1}")
    return counts


# -- Geometric tempering -----------------------------------------------------

def geometric_mix(beta: float, target_value, reference_value):
    """beta * target_value + (1 - beta) * reference_value, exact at beta = 0 and 1.

    The one expression for every tempered quantity (log-density, gradient,
    HVP), whether freshly evaluated by :func:`tempered` or mixed from a
    cache of the target's oracle values.
    """
    if beta == 0.0:
        return reference_value
    if beta == 1.0:
        return target_value
    w = float(beta)
    return w * target_value + (1.0 - w) * reference_value


def tempered(target: TargetDensity, beta: float) -> TargetDensity:
    """Geometric interpolant of the reference N(0, I) and the target:
    log pi_beta = beta log pi_K + (1 - beta) log N(0, I)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    reference = standard_normal(target.dim)
    if beta == 0.0:
        return reference
    if beta == 1.0:
        return target

    def value_and_grad(x):
        # the target's oracle is looked up at call time, so a wrapper
        # installed on it later still sees every call
        value_k, grad_k = target.log_density(x, with_grad=True)
        value_0, grad_0 = reference_log_density(x, with_grad=True)
        return (geometric_mix(beta, value_k, value_0),
                geometric_mix(beta, grad_k, grad_0))

    return TargetDensity(
        target.dim,
        value_and_grad,
        lambda x, v: geometric_mix(beta, target.hvp_log_density(x, v),
                                   reference.hvp_log_density(x, v)),
        name=f"tempered({target.name},beta={beta:.6g})",
    )
