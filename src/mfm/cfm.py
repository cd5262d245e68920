"""Conditional flow-matching objective on the optimal-transport path.

Given particles x1 approximating the target, each training step draws one
(t, x0) pair per particle, forms the affine interpolant, and regresses the
parametric vector field onto the closed-form conditional field.  The
parameter gradient is reverse-accumulated through the three sub-networks
only, from the forward caches that ``flow.field`` returns; the conditional
field carries no parameters.
"""

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import NonFiniteLoss
from .flow import FlowParams, field, flow_to_vector, vector_to_flow
from .nets import AdamState
from .targets import TargetDensity


@dataclass
class OtPathConfig:
    """Optimal-transport conditional path; sigma_min is the terminal scale."""

    sigma_min: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.sigma_min < 1.0:
            raise ValueError(f"sigma_min must lie strictly in (0, 1), got {self.sigma_min}")


def interpolant(cfg: OtPathConfig, t, x0, x1):
    """phi_t(x0 | x1) = (1 - (1 - sigma_min) t) x0 + t x1."""
    t = np.asarray(t, dtype=float)[..., None] if np.ndim(t) == 1 else t
    return (1.0 - (1.0 - cfg.sigma_min) * t) * np.asarray(x0) + t * np.asarray(x1)


def conditional_field(cfg: OtPathConfig, t, x, x1):
    """v_t(x | x1) = (x1 - (1 - sigma_min) x) / (1 - (1 - sigma_min) t)."""
    t = np.asarray(t, dtype=float)[..., None] if np.ndim(t) == 1 else t
    shrink = 1.0 - cfg.sigma_min
    return (np.asarray(x1) - shrink * np.asarray(x)) / (1.0 - shrink * t)


def cfm_loss_and_grad(flow_params: FlowParams, target: TargetDensity,
                      cfg: OtPathConfig, particles: np.ndarray,
                      rng: np.random.Generator):
    """Monte Carlo loss (1/N) sum ||v_theta - v_cond||^2 and its gradient.

    One t ~ U(0,1) and one x0 ~ N(0, I) are drawn per particle.  Returns
    (loss, gradient) with the gradient packaged in a FlowParams of the same
    shapes.
    """
    x1 = np.atleast_2d(np.asarray(particles, dtype=float))
    n, d = x1.shape
    if n < 1:
        raise ValueError("need at least one particle")
    t = rng.uniform(size=n)
    x0 = rng.standard_normal((n, d))
    xt = interpolant(cfg, t, x0, x1)
    v_cond = conditional_field(cfg, t, xt, x1)

    fe = field(flow_params, target, t, xt)
    residual = fe.v - v_cond
    loss = float(np.mean(np.sum(residual ** 2, axis=1)))
    if not np.isfinite(loss):
        raise NonFiniteLoss("flow-matching residual is not finite")

    # backpropagate through the cached forward pass of field()
    cot_v = (2.0 / n) * residual
    cot_nx = cot_v / fe.scale
    cot_nt = cot_v * fe.score / fe.scale
    # d loss / d u through scale = floor + softplus(u): dscale/du = sigmoid(u)
    sig = 1.0 / (1.0 + np.exp(-fe.u))
    cot_u = -np.sum(cot_v * fe.v, axis=1, keepdims=True) * sig / fe.scale

    grad = FlowParams(
        net_x=nets.mlp_param_gradient(flow_params.net_x, fe.acts_x, cot_nx),
        net_t=nets.mlp_param_gradient(flow_params.net_t, fe.acts_t, cot_nt),
        net_scale=nets.mlp_param_gradient(flow_params.net_scale, fe.acts_scale, cot_u),
        fourier=flow_params.fourier,
        dim=flow_params.dim,
    )
    return loss, grad


def train_step(flow_params: FlowParams, adam: AdamState, target: TargetDensity,
               cfg: OtPathConfig, particles: np.ndarray,
               rng: np.random.Generator):
    """One Adam update on the CFM gradient; returns (params, adam, loss)."""
    loss, grad = cfm_loss_and_grad(flow_params, target, cfg, particles, rng)
    vec, new_adam = nets.adam_step(adam, flow_to_vector(flow_params),
                                   flow_to_vector(grad))
    return vector_to_flow(vec, flow_params), new_adam, loss
