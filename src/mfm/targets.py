"""Benchmark target densities.

Every target is packaged as a :class:`TargetDensity`: an unnormalized
log-density together with its gradient and a Hessian-vector product, all
vectorized over a batch of positions.  Normalizing constants are never
computed anywhere; Metropolis ratios and tempering only ever see
log-density differences.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, FactorizationFailure

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class TargetDensity:
    """Unnormalized density with first- and second-order oracle access.

    Attributes:
        dim: Dimension of the state space.
        log_density: Maps (d,) or (N, d) positions to a scalar or (N,)
            unnormalized log-densities.
        grad_log_density: Gradient of ``log_density``, same batching.
        hvp_log_density: ``(x, v) -> H(x) v`` where H is the Hessian of
            ``log_density``; ``v`` broadcasts against the batch of ``x``.
        sampler: Optional exact sampler ``(rng, n) -> (n, d)``; present only
            for targets that admit one (mixtures, product targets).
        name: Short identifier used in logs and artifacts.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    grad_log_density: Callable[[np.ndarray], np.ndarray]
    hvp_log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    name: str = ""


@dataclass
class GaussianMixtureSpec:
    """Isotropic Gaussian mixture with equal weights."""

    means: np.ndarray        # (C, d)
    variances: np.ndarray    # (C,)

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.asarray(self.variances, dtype=float)
        if np.any(self.variances <= 0):
            raise ValueError("mixture variances must be positive")


@dataclass
class FieldSystemSpec:
    """One-dimensional lattice field with double-well on-site potential.

    Boundary values x_0 = x_{d+1} = 0 are implicit and not part of the
    state vector.
    """

    d: int = 64
    a: float = 0.1
    b: float = 10.0
    beta: float = 20.0

    @property
    def delta_s(self) -> float:
        return 1.0 / self.d


@dataclass
class LgcpSpec:
    """Grid discretization of a log-Gaussian Cox process on the unit square."""

    m_side: int = 40
    sigma2: float = 1.91
    beta_len: float = 1.0 / 33.0
    mu0: Optional[float] = None

    def __post_init__(self):
        if self.mu0 is None:
            self.mu0 = np.log(126.0) - self.sigma2 / 2.0

    @property
    def dim(self) -> int:
        return self.m_side ** 2

    @property
    def cell_area(self) -> float:
        return 1.0 / self.m_side ** 2


def _as_batch(x):
    """Return (x as (N, d), was_single_row)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _mixture_target(spec: GaussianMixtureSpec, name: str) -> TargetDensity:
    means = spec.means
    variances = spec.variances
    n_comp, dim = means.shape
    log_weight = -np.log(n_comp)
    # per-component constant of the normalized Gaussian density
    log_norm = -0.5 * dim * (LOG_2PI + np.log(variances))

    def component_logs(xb):
        sq = np.sum((xb[:, None, :] - means[None, :, :]) ** 2, axis=-1)
        return log_weight + log_norm[None, :] - 0.5 * sq / variances[None, :]

    def log_density(x):
        xb, single = _as_batch(x)
        logs = component_logs(xb)
        m = logs.max(axis=1)
        out = m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))
        return out[0] if single else out

    def responsibilities(xb):
        logs = component_logs(xb)
        m = logs.max(axis=1, keepdims=True)
        w = np.exp(logs - m)
        return w / w.sum(axis=1, keepdims=True)

    def grad_log_density(x):
        xb, single = _as_batch(x)
        r = responsibilities(xb)                       # (N, C)
        pulls = (means[None, :, :] - xb[:, None, :]) / variances[None, :, None]
        g = np.sum(r[:, :, None] * pulls, axis=1)
        return g[0] if single else g

    def hvp_log_density(x, v):
        # H = sum_c r_c (H_c + u_c u_c^T) - g g^T with u_c = (mu_c - x)/var_c
        xb, single = _as_batch(x)
        vb = np.broadcast_to(np.asarray(v, dtype=float), xb.shape)
        r = responsibilities(xb)
        pulls = (means[None, :, :] - xb[:, None, :]) / variances[None, :, None]
        g = np.sum(r[:, :, None] * pulls, axis=1)
        uv = np.sum(pulls * vb[:, None, :], axis=-1)   # (N, C)
        hv = np.sum(r[:, :, None] * (pulls * uv[:, :, None]
                                     - vb[:, None, :] / variances[None, :, None]),
                    axis=1)
        hv -= g * np.sum(g * vb, axis=-1, keepdims=True)
        return hv[0] if single else hv

    def sampler(rng, n):
        idx = rng.integers(0, n_comp, size=n)
        return means[idx] + np.sqrt(variances[idx])[:, None] * rng.standard_normal((n, dim))

    return TargetDensity(dim, log_density, grad_log_density, hvp_log_density,
                         sampler=sampler, name=name)


def make_gmm4() -> TargetDensity:
    """Four unit-variance modes at (+-8, +-8), equally weighted."""
    means = np.array([[8.0, 8.0], [-8.0, 8.0], [8.0, -8.0], [-8.0, -8.0]])
    return _mixture_target(GaussianMixtureSpec(means, np.ones(4)), "gmm4")


GMM16_LATTICE = np.array([-12.0, -4.0, 4.0, 12.0])


def make_gmm16(seed: int = 0) -> TargetDensity:
    """Sixteen modes on the lattice {-12,-4,4,12}^2 with seed-frozen variances."""
    xs, ys = np.meshgrid(GMM16_LATTICE, GMM16_LATTICE)
    means = np.column_stack([xs.ravel(), ys.ravel()])
    variances = np.random.Generator(np.random.Philox(seed)).lognormal(0.0, 0.25, size=16)
    return _mixture_target(GaussianMixtureSpec(means, variances), "gmm16")


def standard_normal(dim: int) -> TargetDensity:
    """Standard Gaussian with its normalizing constant included."""
    return gaussian(np.zeros(dim), 1.0, name="std_normal")


def gaussian(mean, scale: float, name: str = "gaussian") -> TargetDensity:
    """Isotropic Gaussian N(mean, scale^2 I)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    dim = mean.size
    var = float(scale) ** 2
    log_norm = -0.5 * dim * (LOG_2PI + np.log(var))

    def log_density(x):
        xb, single = _as_batch(x)
        out = log_norm - 0.5 * np.sum((xb - mean) ** 2, axis=-1) / var
        return out[0] if single else out

    def grad_log_density(x):
        xb, single = _as_batch(x)
        g = -(xb - mean) / var
        return g[0] if single else g

    def hvp_log_density(x, v):
        xb, single = _as_batch(x)
        vb = np.broadcast_to(np.asarray(v, dtype=float), xb.shape)
        hv = -vb / var
        return hv[0] if single else hv

    def sampler(rng, n):
        return mean + scale * rng.standard_normal((n, dim))

    return TargetDensity(dim, log_density, grad_log_density, hvp_log_density,
                         sampler=sampler, name=name)


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

    def log_density(x):
        xb, single = _as_batch(x)
        a = xb[:, 0::2]
        b = xb[:, 1::2]
        out = np.sum(-a ** 4 + 6.0 * a ** 2 + 0.5 * a - 0.5 * b ** 2, axis=-1)
        return out[0] if single else out

    def grad_log_density(x):
        xb, single = _as_batch(x)
        g = np.empty_like(xb)
        a = xb[:, 0::2]
        g[:, 0::2] = -4.0 * a ** 3 + 12.0 * a + 0.5
        g[:, 1::2] = -xb[:, 1::2]
        return g[0] if single else g

    def hvp_log_density(x, v):
        xb, single = _as_batch(x)
        vb = np.broadcast_to(np.asarray(v, dtype=float), xb.shape)
        hv = np.empty_like(xb)
        a = xb[:, 0::2]
        hv[:, 0::2] = (-12.0 * a ** 2 + 12.0) * vb[:, 0::2]
        hv[:, 1::2] = -vb[:, 1::2]
        return hv[0] if single else hv

    def sampler(rng, n):
        out = np.empty((n, dim))
        for j in range(n_copies):
            out[:, 2 * j] = _double_well_samples(rng, n)
            out[:, 2 * j + 1] = rng.standard_normal(n)
        return out

    return TargetDensity(dim, log_density, grad_log_density, hvp_log_density,
                         sampler=sampler, name="many_well")


# -- Field system ------------------------------------------------------------

def make_field_system(spec: FieldSystemSpec = None) -> TargetDensity:
    """Discretized scalar field with zero Dirichlet boundaries.

    log pi(x) = -beta [ a/(2 ds) sum_{i=1..d+1} (x_i - x_{i-1})^2
                        + b ds/4 sum_{i=1..d} (1 - x_i^2)^2 ]
    with x_0 = x_{d+1} = 0 and ds = 1/d.
    """
    spec = spec or FieldSystemSpec()
    if spec.d < 2:
        raise ValueError("field system needs d >= 2")
    d, a, b, beta, ds = spec.d, spec.a, spec.b, spec.beta, spec.delta_s
    coupling = a / (2.0 * ds)
    onsite = b * ds / 4.0

    def padded(xb):
        z = np.zeros((xb.shape[0], 1))
        return np.concatenate([z, xb, z], axis=1)

    def log_density(x):
        xb, single = _as_batch(x)
        xp = padded(xb)
        jumps = np.sum(np.diff(xp, axis=1) ** 2, axis=1)
        wells = np.sum((1.0 - xb ** 2) ** 2, axis=1)
        out = -beta * (coupling * jumps + onsite * wells)
        return out[0] if single else out

    def grad_log_density(x):
        xb, single = _as_batch(x)
        xp = padded(xb)
        lap = 2.0 * xb - xp[:, :-2] - xp[:, 2:]
        g = -beta * (2.0 * coupling * lap - 4.0 * onsite * xb * (1.0 - xb ** 2))
        return g[0] if single else g

    def hvp_log_density(x, v):
        xb, single = _as_batch(x)
        vb = np.broadcast_to(np.asarray(v, dtype=float), xb.shape)
        vp = padded(vb)
        lap_v = 2.0 * vb - vp[:, :-2] - vp[:, 2:]
        diag = -4.0 * onsite * (1.0 - 3.0 * xb ** 2)
        hv = -beta * (2.0 * coupling * lap_v + diag * vb)
        return hv[0] if single else hv

    return TargetDensity(d, log_density, grad_log_density, hvp_log_density,
                         name="field_system")


# -- Log-Gaussian Cox process ------------------------------------------------

def lgcp_covariance(spec: LgcpSpec) -> np.ndarray:
    """Exponential covariance over grid-cell midpoints of the unit square."""
    side = spec.m_side
    coords = (np.arange(side) + 0.5) / side
    px, py = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([px.ravel(), py.ravel()])
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    return spec.sigma2 * np.exp(-dist / spec.beta_len)


def make_lgcp(spec: LgcpSpec, counts: np.ndarray) -> TargetDensity:
    """Posterior of the latent log-intensity field given grid counts."""
    counts = np.asarray(counts)
    if counts.shape != (spec.m_side, spec.m_side):
        raise DimensionMismatch(
            f"counts grid is {counts.shape}, expected {(spec.m_side, spec.m_side)}")
    y = counts.ravel().astype(float)
    d = spec.dim
    area = spec.cell_area
    mu0 = spec.mu0

    cov = lgcp_covariance(spec)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"LGCP covariance for m_side={spec.m_side} is not positive definite") from exc
    ident = np.eye(d)
    chol_inv = np.linalg.solve(chol, ident)
    precision = chol_inv.T @ chol_inv    # cov^{-1}, built once then read-only

    def log_density(x):
        xb, single = _as_batch(x)
        centered = xb - mu0
        quad = np.sum(centered * (centered @ precision), axis=-1)
        lik = xb @ y - area * np.sum(np.exp(xb), axis=-1)
        out = -0.5 * quad + lik
        return out[0] if single else out

    def grad_log_density(x):
        xb, single = _as_batch(x)
        g = -(xb - mu0) @ precision + y - area * np.exp(xb)
        return g[0] if single else g

    def hvp_log_density(x, v):
        xb, single = _as_batch(x)
        vb = np.broadcast_to(np.asarray(v, dtype=float), xb.shape)
        hv = -vb @ precision - area * np.exp(xb) * vb
        return hv[0] if single else hv

    target = TargetDensity(d, log_density, grad_log_density, hvp_log_density,
                           name=f"lgcp{spec.m_side}")
    target.covariance_cholesky = chol
    return target


def synthetic_lgcp_counts(spec: LgcpSpec, seed: int = 0) -> np.ndarray:
    """Counts grid drawn from the generative model at a fixed seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    chol = np.linalg.cholesky(lgcp_covariance(spec))
    latent = spec.mu0 + chol @ rng.standard_normal(spec.dim)
    rates = spec.cell_area * np.exp(latent)
    return rng.poisson(rates).reshape(spec.m_side, spec.m_side)


def load_counts_csv(path, m_side: int) -> np.ndarray:
    """Row-major integer counts, m_side rows by m_side columns."""
    counts = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
    if counts.shape != (m_side, m_side):
        raise DimensionMismatch(
            f"counts file is {counts.shape}, expected {(m_side, m_side)}")
    return counts


# -- Geometric tempering -----------------------------------------------------

def tempered(base: TargetDensity, target: TargetDensity, beta: float) -> TargetDensity:
    """Geometric interpolant: log pi_beta = beta log pi_K + (1-beta) log pi_0."""
    if base.dim != target.dim:
        raise DimensionMismatch(f"base dim {base.dim} != target dim {target.dim}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if beta == 0.0:
        return base
    if beta == 1.0:
        return target
    w = float(beta)

    return TargetDensity(
        base.dim,
        lambda x: w * target.log_density(x) + (1.0 - w) * base.log_density(x),
        lambda x: w * target.grad_log_density(x) + (1.0 - w) * base.grad_log_density(x),
        lambda x, v: (w * target.hvp_log_density(x, v)
                      + (1.0 - w) * base.hvp_log_density(x, v)),
        name=f"tempered({target.name},beta={beta:.6g})",
    )
