"""Adaptive annealing: ESS-matched inverse-temperature updates.

The next inverse temperature is the smallest beta for which the effective
sample size of the incremental importance weights
w_i = [pi_K(x_i)/pi_0(x_i)]^(beta - beta_prev), with pi_0 the reference
N(0, I), falls to a target fraction of the particle count.  The ESS curve
is monotone non-increasing in beta, so bisection is unconditionally
convergent.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np

BISECTION_ITERS = 60


@dataclass
class TemperState:
    """Current inverse temperature and the trajectory that led to it."""

    beta: float = 0.0
    alpha_target: float = 0.5
    history: List[float] = field(default_factory=list)


def ess_fraction(log_ratios: np.ndarray, beta_prev: float, beta: float) -> float:
    """ESS/N of weights exp((beta - beta_prev) * log_ratios), in log space."""
    if beta < beta_prev:
        raise ValueError("beta must be >= beta_prev")
    a = (beta - beta_prev) * np.asarray(log_ratios, dtype=float)
    m = a.max()
    log_sum_w = m + np.log(np.sum(np.exp(a - m)))
    log_sum_w2 = 2.0 * m + np.log(np.sum(np.exp(2.0 * (a - m))))
    return float(np.exp(2.0 * log_sum_w - log_sum_w2 - np.log(a.size)))


def next_beta(log_ratios: np.ndarray, state: TemperState) -> TemperState:
    """Solve for the next inverse temperature; jumps to 1 when no crossing.

    Bisection runs a fixed 60 halvings of (beta_prev, 1], well below 1e-10
    interval width.
    """
    if state.beta >= 1.0:
        raise ValueError("temperature ladder already finished")
    alpha = state.alpha_target
    if ess_fraction(log_ratios, state.beta, 1.0) >= alpha:
        new = 1.0
    else:
        lo, hi = state.beta, 1.0
        for _ in range(BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            if ess_fraction(log_ratios, state.beta, mid) >= alpha:
                lo = mid
            else:
                hi = mid
        new = 0.5 * (lo + hi)
    return TemperState(new, alpha, state.history + [new])
