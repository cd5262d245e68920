"""Conditional flow-matching objective on the optimal-transport path.

Given particles x1 approximating the target, each training step draws one
(t, x0) pair per particle, forms the affine interpolant, and regresses the
parametric vector field onto the closed-form conditional field.  The
parameter gradient is reverse-accumulated through the three sub-networks
only, from the forward caches that ``flow.field`` returns; the conditional
field carries no parameters.
"""

import numpy as np

from . import flow, nets
from .errors import NonFiniteLoss
from .flow import FlowParams, field, flow_to_vector, vector_to_flow
from .nets import AdamState
from .targets import TargetDensity


def interpolant(sigma_min: float, t, x0, x1):
    """phi_t(x0 | x1) = (1 - (1 - sigma_min) t) x0 + t x1.

    sigma_min in (0, 1) is the terminal scale of the path; t is a scalar
    or an (N, 1) column against (N, d) positions.
    """
    return (1.0 - (1.0 - sigma_min) * t) * x0 + t * x1


def conditional_field(sigma_min: float, t, x, x1):
    """v_t(x | x1) = (x1 - (1 - sigma_min) x) / (1 - (1 - sigma_min) t).

    t is a scalar or an (N, 1) column against (N, d) positions.
    """
    shrink = 1.0 - sigma_min
    return (x1 - shrink * x) / (1.0 - shrink * t)


def cfm_loss_and_grad(flow_params: FlowParams, target: TargetDensity,
                      sigma_min: float, particles: np.ndarray,
                      rng: np.random.Generator):
    """Monte Carlo loss (1/N) sum ||v_theta - v_cond||^2 and its gradient.

    One t ~ U(0,1) and one x0 ~ N(0, I) are drawn per particle.  Returns
    (loss, gradient) with the gradient packaged in a FlowParams of the same
    shapes: each layer's gradient is written straight into the views of one
    new flat vector, the gradient's flat.
    """
    n, d = particles.shape
    if n < 1:
        raise ValueError("need at least one particle")
    t = rng.uniform(size=n)
    x0 = rng.standard_normal((n, d))
    xt = interpolant(sigma_min, t[:, None], x0, particles)
    v_cond = conditional_field(sigma_min, t[:, None], xt, particles)

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

    # flow.vector_to_flow, not this module's name, which only train_step's
    # packing calls use (bench/tracing.py counts those as nets.pack)
    grad = flow.vector_to_flow(np.empty(flow_params.flat.size), flow_params)
    nets.mlp_param_gradient(flow_params.net_x, fe.acts_x, cot_nx, out=grad.net_x)
    nets.mlp_param_gradient(flow_params.net_t, fe.acts_t, cot_nt, out=grad.net_t)
    nets.mlp_param_gradient(flow_params.net_scale, fe.acts_scale, cot_u,
                            out=grad.net_scale)
    return loss, grad


def train_step(flow_params: FlowParams, adam: AdamState, target: TargetDensity,
               sigma_min: float, particles: np.ndarray,
               rng: np.random.Generator):
    """One Adam update on the CFM gradient; returns (params, adam, loss).

    Nothing is packed: flow_to_vector hands Adam the flat vectors of the
    parameters and of the gradient as they are, and vector_to_flow wraps
    Adam's new vector as the returned flow's storage.  flow_params is left
    as it was.
    """
    loss, grad = cfm_loss_and_grad(flow_params, target, sigma_min, particles, rng)
    vec, new_adam = nets.adam_step(adam, flow_to_vector(flow_params),
                                   flow_to_vector(grad))
    return vector_to_flow(vec, flow_params), new_adam, loss
