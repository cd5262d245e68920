"""Markov transition kernels: local Langevin and flow-informed moves.

Every kernel works on a batch of chains held as a :class:`ChainState`:
the (N, d) positions together with log pi_K and its gradient there.  A
kernel reads the target's value (and gradient) at the current points from
that cache, evaluates the target once, at its proposals (the CIS kernel:
at all its candidates, stacked), and returns the next ChainState in its
outcome, so a chain never re-evaluates the target at a point it already
proposed.  That evaluation (:func:`evaluate`) is one call of the target's
first-order oracle, which returns the value and the gradient from one
pass: a Langevin proposal costs one target call.  pi_beta is the geometric
interpolant of the fixed reference N(0, I) (beta = 0; closed-form, so
never cached) and the target (beta = 1); the flow kernels draw from the
same reference.  Only the ODE vector field inside the flow kernels needs
the annealed density as a TargetDensity, built with ``targets.tempered``.

Acceptance arithmetic stays in log space throughout, so adding a constant
to any unnormalized log-density leaves every kernel unchanged.  A Langevin
proposal that overflows, or a flow proposal whose ODE state blows up, is
an automatic rejection of that row (counted in the outcome), never a fatal
error.
"""

from dataclasses import dataclass

import numpy as np

from .flow import FlowParams, OdeConfig, integrate_rows
from .targets import (TargetDensity, geometric_mix, reference_log_density,
                      tempered)


@dataclass
class ChainState:
    """Chain positions and the target's oracle values there.

    x is (N, d); log_target (N,) holds log pi_K at x and grad_target (N, d)
    its gradient.  Build it with :func:`evaluate`; reindex it with
    :meth:`take` and :meth:`where`, never by editing x alone.
    """

    x: np.ndarray
    log_target: np.ndarray
    grad_target: np.ndarray

    def log_ratios(self) -> np.ndarray:
        """log pi_K - log N(0, I) per row: the ESS solve's log-ratios."""
        return self.log_target - reference_log_density(self.x)

    def tempered(self, beta: float):
        """(log pi_beta, grad log pi_beta) per row, as targets.tempered mixes them."""
        if beta == 1.0:
            return self.log_target, self.grad_target
        log_ref, grad_ref = reference_log_density(self.x, with_grad=True)
        return (geometric_mix(beta, self.log_target, log_ref),
                geometric_mix(beta, self.grad_target, grad_ref))

    def take(self, idx) -> "ChainState":
        """Rows idx (an index array): resampling."""
        return ChainState(self.x[idx], self.log_target[idx], self.grad_target[idx])

    def where(self, mask, other: "ChainState") -> "ChainState":
        """Row i of other where mask[i], else row i of self."""
        col = np.asarray(mask)[:, None]
        return ChainState(np.where(col, other.x, self.x),
                          np.where(mask, other.log_target, self.log_target),
                          np.where(col, other.grad_target, self.grad_target))


def evaluate(target: TargetDensity, x) -> ChainState:
    """Evaluate the target and its gradient at x (N, d).

    One fused ``log_density(x, with_grad=True)`` call returns the value and
    the gradient together, so work they share (the LGCP target's product
    with its precision) is done once per proposal.
    """
    x = np.asarray(x, dtype=float)
    return ChainState(x, *target.log_density(x, with_grad=True))


@dataclass
class KernelOutcome:
    """Result of one transition over all chains.

    chains is the next ChainState.  accepted marks the rows that moved (for
    the importance-sampling kernel: that a fresh candidate was selected),
    log_alpha is the log acceptance ratio per row, and n_nonfinite counts
    proposals discarded because they, or the flow integration, left the
    representable range.
    """

    chains: ChainState
    accepted: np.ndarray
    log_alpha: np.ndarray
    n_nonfinite: int = 0


def _accept(rng, log_alpha):
    """Bernoulli(min{1, e^log_alpha}); -inf and NaN both reject."""
    u = rng.uniform(size=log_alpha.shape)
    with np.errstate(invalid="ignore"):
        return np.log(u) < log_alpha


def _metropolis(chains, proposed, ok, log_alpha, rng) -> KernelOutcome:
    """Accept row i of proposed with probability e^log_alpha[i]; rows not ok reject."""
    log_alpha = np.where(ok, log_alpha, -np.inf)
    acc = _accept(rng, log_alpha)
    return KernelOutcome(chains.where(acc, proposed), acc, log_alpha,
                         int(np.sum(~ok)))


def mala_step(target: TargetDensity, tau: float, chains: ChainState, beta: float,
              rng: np.random.Generator) -> KernelOutcome:
    """Langevin proposal y = x + tau grad log pi_beta(x) + sqrt(2 tau) xi.

    The Hastings correction uses the Gaussian proposal density with
    variance 2 tau (tau > 0) in each coordinate.  The target's value and
    gradient at x come from the chain cache; at the proposals y they come
    from one fused value-and-gradient call (see :func:`evaluate`).  A row
    whose proposal is not finite (its gradient overflowed) is rejected with
    log_alpha = -inf and counted in n_nonfinite; the target is evaluated at
    its current point instead.
    """
    x = chains.x
    logp_x, grad_x = chains.tempered(beta)
    noise = rng.standard_normal(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        y = x + tau * grad_x + np.sqrt(2.0 * tau) * noise
    ok = np.all(np.isfinite(y), axis=1)
    y = np.where(ok[:, None], y, x)
    proposed = evaluate(target, y)
    logp_y, grad_y = proposed.tempered(beta)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q_fwd = -np.sum((y - x - tau * grad_x) ** 2, axis=1) / (4.0 * tau)
        log_q_rev = -np.sum((x - y - tau * grad_y) ** 2, axis=1) / (4.0 * tau)
        log_alpha = np.minimum(0.0, logp_y + log_q_rev - logp_x - log_q_fwd)
    return _metropolis(chains, proposed, ok, log_alpha, rng)


def flow_rwmh_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                   chains: ChainState, beta: float,
                   rng: np.random.Generator) -> KernelOutcome:
    """Random walk in reference space, conjugated by the flow.

    Pull x back through the flow (tracking dlp_back = +int div dt), perturb
    with N(0, sigma_opt^2 I) where sigma_opt = 2.38/sqrt(d), push the
    perturbed point forward (tracking dlp_fwd = -int div dt), and accept with

        log alpha = log pi(y) - dlp_fwd(y) - log pi(x) - dlp_back(x).

    The reference-space Gaussian is symmetric, so no proposal-density ratio
    appears; with the zero flow this reduces to plain random-walk MH.
    """
    x = chains.x
    sigma = 2.38 / np.sqrt(x.shape[1])
    density = tempered(target, beta)

    x0, dlp_back, ok_b = integrate_rows(flow_params, density, x, cfg, rng, False)
    noise = rng.standard_normal(x.shape)
    y0 = np.where(ok_b[:, None], x0, 0.0) + sigma * noise
    y1, dlp_fwd, ok_f = integrate_rows(flow_params, density, y0, cfg, rng, True)
    ok = ok_b & ok_f

    proposed = evaluate(target, np.where(ok[:, None], y1, 0.0))
    with np.errstate(invalid="ignore"):
        log_alpha = np.minimum(0.0, proposed.tempered(beta)[0] - dlp_fwd
                               - chains.tempered(beta)[0] - dlp_back)
    return _metropolis(chains, proposed, ok, log_alpha, rng)


def flow_imh_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                  chains: ChainState, beta: float,
                  rng: np.random.Generator) -> KernelOutcome:
    """Independent proposal: push a fresh N(0, I) draw through the flow.

    The current point is pulled back to get its proposal density
    q(x) = p0(u0) exp(-dlp_back); the candidate's density is tracked along
    the forward pass, log q(x1) = log p0(x0) + dlp_fwd.  Acceptance is the
    standard independence ratio [pi(x1)/q(x1)] / [pi(x)/q(x)].
    """
    x = chains.x
    density = tempered(target, beta)

    u0, dlp_back, ok_b = integrate_rows(flow_params, density, x, cfg, rng, False)
    x0 = rng.standard_normal(x.shape)
    x1, dlp_fwd, ok_f = integrate_rows(flow_params, density, x0, cfg, rng, True)
    ok = ok_b & ok_f

    proposed = evaluate(target, np.where(ok[:, None], x1, 0.0))
    with np.errstate(invalid="ignore"):
        log_q_x = reference_log_density(np.where(ok_b[:, None], u0, 0.0)) - dlp_back
        log_q_x1 = reference_log_density(x0) + dlp_fwd
        log_alpha = np.minimum(0.0, proposed.tempered(beta)[0] + log_q_x
                               - log_q_x1 - chains.tempered(beta)[0])
    return _metropolis(chains, proposed, ok, log_alpha, rng)


def flow_cis_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                  chains: ChainState, beta: float, rng: np.random.Generator,
                  n_candidates: int) -> KernelOutcome:
    """Conditional importance sampling through the flow.

    The current state enters with weight w0 = pi(x) / q(x) computed via the
    backward pass; each of the n_candidates fresh N(0, I) draws per chain
    is pushed forward and weighted by pi(x1) / q(x1).  One index is selected
    with probability proportional to its weight (self-normalized, so
    constants on pi cancel).  If every weight underflows, the current state
    is kept.  The candidates of all chains are integrated and evaluated
    (:func:`evaluate`) as one stacked batch, and the selected rows of that
    evaluation become the chain cache.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    x = chains.x
    n = x.shape[0]
    density = tempered(target, beta)

    u0, dlp_back, ok_b = integrate_rows(flow_params, density, x, cfg, rng, False)
    # candidate-major: row k * n + i is candidate k of chain i
    x0 = rng.standard_normal((n_candidates * n, x.shape[1]))
    x1, dlp_fwd, ok = integrate_rows(flow_params, density, x0, cfg, rng, True)
    cand = evaluate(target, np.where(ok[:, None], x1, 0.0))
    with np.errstate(invalid="ignore"):
        # w0 = pi(x)/q(x) with q(x) = p0(u0) exp(-dlp_back)
        log_w0 = (chains.tempered(beta)[0]
                  - reference_log_density(np.where(ok_b[:, None], u0, 0.0)) + dlp_back)
        log_w1 = cand.tempered(beta)[0] - reference_log_density(x0) - dlp_fwd
    log_w1 = np.where(ok, log_w1, -np.inf).reshape(n_candidates, n).T
    log_w = np.column_stack([np.where(ok_b, log_w0, -np.inf), log_w1])

    shifted = log_w - np.max(np.where(np.isfinite(log_w), log_w, -np.inf),
                             axis=1, initial=-np.inf, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    totals = w.sum(axis=1)
    u = rng.uniform(size=n)
    # a row whose weights all underflowed keeps its state, log_alpha = -inf
    kept = totals <= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = w / totals[:, None]
        log_alpha = np.where(kept | (probs[:, 0] >= 1.0), -np.inf,
                             np.minimum(0.0, np.log1p(-probs[:, 0])))
    # searchsorted(cumsum(probs[i]), u[i], side="left"), for all rows at once
    idx = np.minimum(np.sum(np.cumsum(probs, axis=1) < u[:, None], axis=1),
                     n_candidates)
    accepted = ~kept & (idx > 0)
    rows = (np.maximum(idx, 1) - 1) * n + np.arange(n)
    return KernelOutcome(chains.where(accepted, cand.take(rows)), accepted,
                         log_alpha, int(np.sum(~ok_b)) + int(np.sum(~ok)))
