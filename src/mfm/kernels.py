"""Markov transition kernels: local Langevin and flow-informed moves.

Every kernel works on a batch of chains held as a :class:`ChainState`: the
(N, d) positions with log pi_K and its gradient there.  A kernel reads the
current points' values from that cache and calls the target once, at its
proposals (CIS: all its candidates, stacked), through the fused
value-and-gradient oracle (:func:`evaluate`); kept proposals bring their
values along.  pi_beta is the geometric interpolant of the reference
N(0, I) (beta = 0; closed-form, never cached) and the target (beta = 1).

Each flow kernel is a Metropolis move in the flow's reference space, where
the flow draws from N(0, I) and T pushes u forward.  It targets the
pulled-back density pi~(u) = pi_beta(T(u)) |det dT(u)|,

    log pi~(u) = log pi_beta(T(u)) - dlp_fwd(u) = log pi_beta(x) + dlp_back(x),

with dlp_fwd = -int div v dt forward from u and dlp_back = +int div v dt
backward from x = T(u), both integrated under ``targets.tempered``'s
pi_beta.  :func:`_pull_back` and :func:`_push_forward` compute it, so each
kernel holds only its acceptance rule.  The three flow kernels take the same
``(target, flow_params, cfg, chains, beta, rng)``, so a runner calls the one
it chose the same way; CIS draws CIS_CANDIDATES candidates per chain.

Acceptance arithmetic stays in log space, so a constant added to any
log-density changes no kernel.  A Langevin proposal that overflows, or a
flow proposal whose ODE state blows up, rejects its row (counted in the
outcome), never the run.
"""

from dataclasses import dataclass

import numpy as np

from .flow import FlowParams, OdeConfig, integrate_rows
from .targets import (TargetDensity, geometric_mix, reference_log_density,
                      tempered)

CIS_CANDIDATES = 4   # fresh candidates per chain of a CIS flow step


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


def _metropolis(chains, proposed, ok, log_alpha, rng) -> KernelOutcome:
    """Accept row i of proposed with probability e^log_alpha[i]; rows not ok reject."""
    log_alpha = np.where(ok, log_alpha, -np.inf)
    with np.errstate(invalid="ignore"):
        acc = np.log(rng.uniform(size=log_alpha.shape)) < log_alpha
    return KernelOutcome(chains.where(acc, proposed), acc, log_alpha,
                         int(np.sum(~ok)))


def mala_step(target: TargetDensity, tau: float, chains: ChainState, beta: float,
              rng: np.random.Generator) -> KernelOutcome:
    """Langevin proposal y = x + tau grad log pi_beta(x) + sqrt(2 tau) xi.

    The Hastings correction uses the Gaussian proposal density with
    variance 2 tau (tau > 0) in each coordinate.  A row whose proposal is
    not finite (its gradient overflowed) is rejected with log_alpha = -inf
    and counted in n_nonfinite; the target is evaluated at its current
    point instead.
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


def _pull_back(target, flow_params, cfg, chains, beta, rng):
    """The chains in reference space: (u, log pi~(u), ok) per row.

    log pi_beta(x) comes from the chain cache, so the target is not called.
    A row whose backward integration blew up is not ok, and its u is 0.
    """
    u, dlp_back, ok = integrate_rows(flow_params, tempered(target, beta), chains.x,
                                     cfg, rng, False)
    with np.errstate(invalid="ignore"):
        log_pt = chains.tempered(beta)[0] + dlp_back
    return np.where(ok[:, None], u, 0.0), log_pt, ok


def _push_forward(target, flow_params, cfg, u, beta, rng):
    """Reference points u pushed to y = T(u): (ChainState at y, log pi~(u), ok).

    One fused target call (:func:`evaluate`) at y, with rows not ok at 0."""
    y, dlp_fwd, ok = integrate_rows(flow_params, tempered(target, beta), u, cfg,
                                    rng, True)
    proposed = evaluate(target, np.where(ok[:, None], y, 0.0))
    with np.errstate(invalid="ignore"):
        log_pt = proposed.tempered(beta)[0] - dlp_fwd
    return proposed, log_pt, ok


def flow_rwmh_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                   chains: ChainState, beta: float,
                   rng: np.random.Generator) -> KernelOutcome:
    """Random walk on pi~ in reference space, conjugated by the flow.

    Pull x back to u, perturb with N(0, sigma_opt^2 I) where sigma_opt =
    2.38/sqrt(d), push u' forward and accept with log pi~(u') - log pi~(u).
    The reference-space Gaussian is symmetric, so no proposal-density ratio
    appears; with the zero flow this reduces to plain random-walk MH.
    """
    u, log_pt, ok_b = _pull_back(target, flow_params, cfg, chains, beta, rng)
    sigma = 2.38 / np.sqrt(u.shape[1])
    proposed, log_pt_new, ok_f = _push_forward(
        target, flow_params, cfg, u + sigma * rng.standard_normal(u.shape), beta, rng)
    with np.errstate(invalid="ignore"):
        log_alpha = np.minimum(0.0, log_pt_new - log_pt)
    return _metropolis(chains, proposed, ok_b & ok_f, log_alpha, rng)


def _log_weight(u, log_pt):
    """log pi~(u) - log N(u; 0, I): the importance weight of IMH and CIS."""
    return log_pt - reference_log_density(u)


def flow_imh_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                  chains: ChainState, beta: float,
                  rng: np.random.Generator) -> KernelOutcome:
    """Independent proposal: push a fresh N(0, I) draw u' through the flow.

    The independence sampler for pi~ in reference space: accept with
    log w(u') - log w(u) (:func:`_log_weight`), u the pulled-back point.
    """
    u, log_pt, ok_b = _pull_back(target, flow_params, cfg, chains, beta, rng)
    fresh = rng.standard_normal(u.shape)
    proposed, log_pt_new, ok_f = _push_forward(target, flow_params, cfg, fresh,
                                               beta, rng)
    with np.errstate(invalid="ignore"):
        log_alpha = np.minimum(0.0, _log_weight(fresh, log_pt_new)
                               - _log_weight(u, log_pt))
    return _metropolis(chains, proposed, ok_b & ok_f, log_alpha, rng)


def flow_cis_step(target: TargetDensity, flow_params: FlowParams, cfg: OdeConfig,
                  chains: ChainState, beta: float, rng: np.random.Generator,
                  n_candidates: int = CIS_CANDIDATES) -> KernelOutcome:
    """Conditional importance sampling through the flow.

    One of [u, u'_1..k] is selected in proportion to its weight w
    (:func:`_log_weight`; self-normalized, so constants on pi cancel): u is
    the pulled-back point, u' n_candidates fresh N(0, I) draws per chain
    (CIS_CANDIDATES, the one count a run uses; tests vary it).  If
    every weight underflows, the current state is kept.  The candidates are
    pushed and evaluated as one stacked batch; its selected rows are cached.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    u, log_pt, ok_b = _pull_back(target, flow_params, cfg, chains, beta, rng)
    n = u.shape[0]
    # candidate-major: row k * n + i is candidate k of chain i
    fresh = rng.standard_normal((n_candidates * n, u.shape[1]))
    cand, log_pt_new, ok = _push_forward(target, flow_params, cfg, fresh, beta, rng)
    log_w1 = np.where(ok, _log_weight(fresh, log_pt_new), -np.inf)
    log_w = np.column_stack([np.where(ok_b, _log_weight(u, log_pt), -np.inf),
                             log_w1.reshape(n_candidates, n).T])

    shifted = log_w - np.max(np.where(np.isfinite(log_w), log_w, -np.inf),
                             axis=1, initial=-np.inf, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    totals = w.sum(axis=1)
    draw = rng.uniform(size=n)
    # a row whose weights all underflowed keeps its state, log_alpha = -inf
    kept = totals <= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = w / totals[:, None]
        log_alpha = np.where(kept | (probs[:, 0] >= 1.0), -np.inf,
                             np.minimum(0.0, np.log1p(-probs[:, 0])))
    # searchsorted(cumsum(probs[i]), draw[i], side="left"), for all rows at once
    idx = np.minimum(np.sum(np.cumsum(probs, axis=1) < draw[:, None], axis=1),
                     n_candidates)
    accepted = ~kept & (idx > 0)
    rows = (np.maximum(idx, 1) - 1) * n + np.arange(n)
    return KernelOutcome(chains.where(accepted, cand.take(rows)), accepted,
                         log_alpha, int(np.sum(~ok_b)) + int(np.sum(~ok)))
