"""Markov transition kernels: local Langevin and flow-informed moves.

All kernels are vectorized over a batch of chains: x may be (d,) or (N, d)
and the outcome fields match.  Acceptance arithmetic stays in log space
throughout, so adding a constant to any unnormalized log-density leaves
every kernel unchanged.  A Langevin proposal that overflows, or a flow
proposal whose ODE state blows up, is an automatic rejection of that row
(counted in the outcome), never a fatal error.

The Langevin kernel works on a :class:`ChainState`: the positions together
with log pi_K, log pi_0 and both gradients there, so a chain never
re-evaluates the densities at a point it already proposed.  The annealed
value and gradient at any beta are mixed from that cache, which is also
where the ESS solve reads its log-ratios.  The flow kernels take a
tempered :class:`TargetDensity` and positions, and evaluate it themselves.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import FlowParams, OdeConfig, integrate_rows
from .targets import TargetDensity, geometric_mix


@dataclass
class ChainState:
    """Chain positions and both endpoint densities' oracle values there.

    x is (N, d) or (d,); log_target/log_base hold log pi_K and log pi_0 at
    x, grad_target/grad_base their gradients, in the shapes the oracles
    return for that x.  Build it with :func:`evaluate`; reindex it with
    :meth:`take` and :meth:`where`, never by editing x alone.
    """

    x: np.ndarray
    log_target: np.ndarray
    log_base: np.ndarray
    grad_target: np.ndarray
    grad_base: np.ndarray

    def log_ratios(self) -> np.ndarray:
        """log pi_K - log pi_0 per row: the ESS solve's log-ratios."""
        return np.atleast_1d(self.log_target) - np.atleast_1d(self.log_base)

    def tempered(self, beta: float):
        """(log pi_beta, grad log pi_beta) per row, as targets.tempered mixes them."""
        return (np.atleast_1d(geometric_mix(beta, self.log_target, self.log_base)),
                np.atleast_2d(geometric_mix(beta, self.grad_target, self.grad_base)))

    def take(self, idx) -> "ChainState":
        """Rows idx (an index array): resampling."""
        return ChainState(self.x[idx], self.log_target[idx], self.log_base[idx],
                          self.grad_target[idx], self.grad_base[idx])

    def where(self, mask, other: "ChainState") -> "ChainState":
        """Row i of other where mask[i], else row i of self."""
        col = np.asarray(mask)[..., None]
        return ChainState(np.where(col, other.x, self.x),
                          np.where(mask, other.log_target, self.log_target),
                          np.where(mask, other.log_base, self.log_base),
                          np.where(col, other.grad_target, self.grad_target),
                          np.where(col, other.grad_base, self.grad_base))


def evaluate(base: TargetDensity, target: TargetDensity, x) -> ChainState:
    """Evaluate both endpoint densities and their gradients at x."""
    x = np.asarray(x, dtype=float)
    return ChainState(x, target.log_density(x), base.log_density(x),
                      target.grad_log_density(x), base.grad_log_density(x))


@dataclass
class KernelOutcome:
    """Result of one transition: next state, acceptance flag, log MH ratio.

    For the importance-sampling kernel, new_x is the selected candidate and
    accepted means the state changed.  n_nonfinite counts proposals discarded
    because they (or the flow integration) left the representable range.
    chains is the new ChainState (Langevin kernel only).
    """

    new_x: np.ndarray
    accepted: np.ndarray
    log_alpha: np.ndarray
    n_nonfinite: int = 0
    chains: Optional[ChainState] = None


@dataclass
class MalaConfig:
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _outcome(new_x, accepted, log_alpha, single, n_nonfinite=0):
    if single:
        return KernelOutcome(new_x[0], bool(accepted[0]), float(log_alpha[0]),
                             n_nonfinite)
    return KernelOutcome(new_x, accepted, log_alpha, n_nonfinite)


def _accept(rng, log_alpha):
    """Bernoulli(min{1, e^log_alpha}); -inf and NaN both reject."""
    u = rng.uniform(size=log_alpha.shape)
    with np.errstate(invalid="ignore"):
        return np.log(u) < log_alpha


def mala_step(base: TargetDensity, target: TargetDensity, cfg: MalaConfig,
              chains: ChainState, beta: float,
              rng: np.random.Generator) -> KernelOutcome:
    """Langevin proposal y = x + tau grad log pi_beta(x) + sqrt(2 tau) xi.

    pi_beta is the geometric interpolant of base (beta = 0) and target
    (beta = 1).  Its value and gradient at x are mixed from the cached
    chains; base and target are evaluated once each, at y only, and the
    outcome's chains carry y's values for accepted rows and x's otherwise.
    The Hastings correction uses the Gaussian proposal density with
    variance 2 tau in each coordinate.  A row whose proposal is not finite
    (its gradient overflowed) is rejected with log_alpha = -inf and counted
    in n_nonfinite; the densities are evaluated at its current point
    instead.  chains.x may be a single (d,) point.
    """
    xb, single = _as_batch(chains.x)
    tau = cfg.tau
    logp_x, grad_x = chains.tempered(beta)
    noise = rng.standard_normal(xb.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        y = xb + tau * grad_x + np.sqrt(2.0 * tau) * noise
    ok = np.all(np.isfinite(y), axis=1)
    y = np.where(ok[:, None], y, xb)
    proposed = evaluate(base, target, y[0] if single else y)
    logp_y, grad_y = proposed.tempered(beta)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q_fwd = -np.sum((y - xb - tau * grad_x) ** 2, axis=1) / (4.0 * tau)
        log_q_rev = -np.sum((xb - y - tau * grad_y) ** 2, axis=1) / (4.0 * tau)
        log_alpha = np.minimum(0.0, logp_y + log_q_rev - logp_x - log_q_fwd)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = _accept(rng, log_alpha)
    new = chains.where(acc[0] if single else acc, proposed)
    out = _outcome(np.atleast_2d(new.x), acc, log_alpha, single, int(np.sum(~ok)))
    out.chains = new
    return out


def rwmh_log_alpha(target: TargetDensity, x, y) -> np.ndarray:
    """Plain random-walk MH log ratio log pi(y) - log pi(x) (clamped at 0)."""
    return np.minimum(0.0, np.atleast_1d(target.log_density(y))
                      - np.atleast_1d(target.log_density(x)))


def flow_rwmh_step(target: TargetDensity, flow_params: FlowParams,
                   cfg: OdeConfig, x, rng: np.random.Generator,
                   noise_scale: float = None) -> KernelOutcome:
    """Random walk in reference space, conjugated by the flow.

    Pull x back through the flow (tracking dlp_back = +int div dt), perturb
    with N(0, sigma_opt^2 I) where sigma_opt = 2.38/sqrt(d), push the
    perturbed point forward (tracking dlp_fwd = -int div dt), and accept with

        log alpha = log pi(y) - dlp_fwd(y) - log pi(x) - dlp_back(x).

    The reference-space Gaussian is symmetric, so no proposal-density ratio
    appears; with the zero flow this reduces to plain random-walk MH.
    """
    xb, single = _as_batch(x)
    n, d = xb.shape
    sigma = (2.38 / np.sqrt(d)) if noise_scale is None else noise_scale

    x0, dlp_back, ok_b = integrate_rows(flow_params, target, xb, cfg, rng, False)
    noise = rng.standard_normal(xb.shape)
    y0 = np.where(ok_b[:, None], x0, 0.0) + sigma * noise
    y1, dlp_fwd, ok_f = integrate_rows(flow_params, target, y0, cfg, rng, True)
    ok = ok_b & ok_f

    logp_x = np.atleast_1d(target.log_density(xb))
    with np.errstate(invalid="ignore"):
        logp_y = np.atleast_1d(target.log_density(np.where(ok[:, None], y1, 0.0)))
        log_alpha = np.minimum(0.0, logp_y - dlp_fwd - logp_x - dlp_back)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = _accept(rng, log_alpha)
    new_x = np.where(acc[:, None], np.where(ok[:, None], y1, xb), xb)
    return _outcome(new_x, acc, log_alpha, single, int(np.sum(~ok)))


def flow_imh_step(target: TargetDensity, flow_params: FlowParams,
                  cfg: OdeConfig, p0: TargetDensity, x,
                  rng: np.random.Generator) -> KernelOutcome:
    """Independent proposal: push a fresh reference draw through the flow.

    The current point is pulled back to get its proposal density
    q(x) = p0(u0) exp(-dlp_back); the candidate's density is tracked along
    the forward pass, log q(x1) = log p0(x0) + dlp_fwd.  Acceptance is the
    standard independence ratio [pi(x1)/q(x1)] / [pi(x)/q(x)].
    """
    if p0.sampler is None:
        raise ValueError("reference density must provide a sampler")
    xb, single = _as_batch(x)
    n, _ = xb.shape

    u0, dlp_back, ok_b = integrate_rows(flow_params, target, xb, cfg, rng, False)
    x0 = p0.sampler(rng, n)
    x1, dlp_fwd, ok_f = integrate_rows(flow_params, target, x0, cfg, rng, True)
    ok = ok_b & ok_f

    logp_x = np.atleast_1d(target.log_density(xb))
    with np.errstate(invalid="ignore"):
        log_q_x = (np.atleast_1d(p0.log_density(np.where(ok_b[:, None], u0, 0.0)))
                   - dlp_back)
        log_q_x1 = np.atleast_1d(p0.log_density(x0)) + dlp_fwd
        logp_x1 = np.atleast_1d(target.log_density(np.where(ok[:, None], x1, 0.0)))
        log_alpha = np.minimum(0.0, logp_x1 + log_q_x - log_q_x1 - logp_x)
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = _accept(rng, log_alpha)
    new_x = np.where(acc[:, None], np.where(ok[:, None], x1, xb), xb)
    return _outcome(new_x, acc, log_alpha, single, int(np.sum(~ok)))


def flow_cis_step(target: TargetDensity, flow_params: FlowParams,
                  cfg: OdeConfig, q0: TargetDensity, x, n_candidates: int,
                  rng: np.random.Generator) -> KernelOutcome:
    """Conditional importance sampling through the flow.

    The current state enters with weight w0 = pi(x) / q(x) computed via the
    backward pass; each of the n_candidates fresh reference draws is pushed
    forward and weighted by pi(x1) / q(x1).  One index is selected with
    probability proportional to its weight (self-normalized, so constants
    on pi cancel).  If every weight underflows, the current state is kept.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if q0.sampler is None:
        raise ValueError("reference density must provide a sampler")
    xb, single = _as_batch(x)
    n, d = xb.shape

    u0, dlp_back, ok_b = integrate_rows(flow_params, target, xb, cfg, rng, False)
    n_nonfinite = int(np.sum(~ok_b))
    # w0 = pi(x)/q(x) with q(x) = q0(u0) exp(-dlp_back)
    with np.errstate(invalid="ignore"):
        log_w0 = (np.atleast_1d(target.log_density(xb))
                  - np.atleast_1d(q0.log_density(np.where(ok_b[:, None], u0, 0.0)))
                  + dlp_back)
    log_w0 = np.where(ok_b, log_w0, -np.inf)

    log_w = np.full((n, n_candidates + 1), -np.inf)
    log_w[:, 0] = log_w0
    candidates = np.empty((n, n_candidates, d))
    for k in range(n_candidates):
        x0 = q0.sampler(rng, n)
        x1, dlp_fwd, ok = integrate_rows(flow_params, target, x0, cfg, rng, True)
        n_nonfinite += int(np.sum(~ok))
        with np.errstate(invalid="ignore"):
            lw = (np.atleast_1d(target.log_density(np.where(ok[:, None], x1, 0.0)))
                  - np.atleast_1d(q0.log_density(x0)) - dlp_fwd)
        log_w[:, k + 1] = np.where(ok, lw, -np.inf)
        candidates[:, k] = np.where(ok[:, None], x1, 0.0)

    finite_any = np.any(np.isfinite(log_w), axis=1)
    shifted = log_w - np.max(np.where(np.isfinite(log_w), log_w, -np.inf),
                             axis=1, initial=-np.inf, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    totals = w.sum(axis=1)
    u = rng.uniform(size=n)
    new_x = xb.copy()
    accepted = np.zeros(n, dtype=bool)
    log_alpha = np.zeros(n)
    for i in range(n):
        if not finite_any[i] or totals[i] <= 0.0:
            # every weight underflowed: retain the current state
            log_alpha[i] = -np.inf
            continue
        probs = w[i] / totals[i]
        idx = int(np.searchsorted(np.cumsum(probs), u[i]))
        idx = min(idx, n_candidates)
        log_alpha[i] = min(0.0, np.log1p(-probs[0]) if probs[0] < 1.0 else -np.inf)
        if idx > 0:
            new_x[i] = candidates[i, idx - 1]
            accepted[i] = True
    return _outcome(new_x, accepted, log_alpha, single, n_nonfinite)
