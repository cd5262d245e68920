"""Conditional flow-matching objective on the optimal-transport path.

Given particles x1 approximating the target, each training step draws one
(t, x0) pair per particle, forms the affine interpolant, and regresses the
parametric vector field onto the closed-form conditional field.  The
parameter gradient is reverse-accumulated through the two sub-networks
only, from the forward caches that ``flow.field`` returns; the conditional
field carries no parameters.
"""

import numpy as np

from . import flow, nets
from .errors import NonFiniteLoss
from .flow import FlowParams, field, flow_to_vector, vector_to_flow
from .nets import AdamState
from .targets import TargetDensity

# terminal scale of the optimal-transport path (Lipman et al.)
SIGMA_MIN = 1e-2


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
                      particles: np.ndarray, rng: np.random.Generator,
                      out: np.ndarray = None):
    """Monte Carlo loss (1/N) sum ||v_theta - v_cond||^2 and its gradient.

    The path's terminal scale is SIGMA_MIN.  One t ~ U(0,1) and one
    x0 ~ N(0, I) are drawn per particle.  Returns
    (loss, gradient) with the gradient packaged in a FlowParams of the same
    shapes: each layer's gradient is written straight into the views of one
    flat vector, the gradient's flat.  That vector is out, a buffer of
    flow_params.flat's size and dtype, or a new one; out is not written
    when the loss is not finite.  The loss is computed in float64 from the
    float64 field value; the cotangents are cast to the flow's dtype where
    they enter nets.mlp_param_gradient.

    The (N, d) arithmetic runs in place, in three buffers of this call's
    own: v_cond, the field value fe.v once it has been read for the last
    time, and net_t's (N, d + 1) cotangent, with the ufuncs of the
    out-of-place formulas in the same order, so the bits are the same.
    particles and the target's score are never written.
    """
    n, d = particles.shape
    if n < 1:
        raise ValueError("need at least one particle")
    t = rng.uniform(size=n)
    x0 = rng.standard_normal((n, d))
    xt = interpolant(SIGMA_MIN, t[:, None], x0, particles)
    del x0
    v_cond = conditional_field(SIGMA_MIN, t[:, None], xt, particles)
    fe = field(flow_params, target, t, xt)
    del xt

    # net_t's cotangent: the gate's d columns, then u's
    cot_t = np.empty((n, d + 1))
    cot_gate, cot_u = cot_t[:, :-1], cot_t[:, -1:]
    residual = np.subtract(fe.v, v_cond, out=v_cond)
    loss = float(np.mean(np.sum(np.square(residual, out=cot_gate), axis=1)))
    if not np.isfinite(loss):
        raise NonFiniteLoss("flow-matching residual is not finite")

    # backpropagate through the cached forward pass of field()
    cot_v = np.multiply(2.0 / n, residual, out=residual)
    # d loss / d u through scale = floor + softplus(u): dscale/du = sigmoid(u)
    sig = 1.0 / (1.0 + np.exp(-fe.u))
    cot_u[...] = -np.sum(np.multiply(cot_v, fe.v, out=fe.v), axis=1,
                         keepdims=True) * sig / fe.scale
    cot_nx = np.divide(cot_v, fe.scale, out=fe.v)
    np.multiply(cot_v, fe.score, out=cot_gate)
    np.divide(cot_gate, fe.scale, out=cot_gate)

    # flow.vector_to_flow, not this module's name, which only train_step's
    # packing calls use (bench/tracing.py counts those as nets.pack)
    if out is None:
        out = np.empty(flow_params.flat.size, flow_params.flat.dtype)
    grad = flow.vector_to_flow(out, flow_params)
    nets.mlp_param_gradient(flow_params.net_x, fe.acts_x, cot_nx, out=grad.net_x)
    nets.mlp_param_gradient(flow_params.net_t, fe.acts_t, cot_t, out=grad.net_t)
    return loss, grad


def train_step(flow_params: FlowParams, adam: AdamState, target: TargetDensity,
               particles: np.ndarray, rng: np.random.Generator):
    """One Adam update on the CFM gradient; returns (params, adam, loss).

    Nothing is packed or allocated at parameter size: the gradient goes
    into adam.grad, flow_to_vector hands Adam the flat vectors as they are,
    Adam updates flow_params.flat in place, and vector_to_flow wraps the
    vector Adam returns.  So flow_params holds the new parameters afterwards
    (copy its flat first to keep the old ones).  A non-finite loss raises
    before anything is written.
    """
    loss, grad = cfm_loss_and_grad(flow_params, target, particles, rng,
                                   out=adam.grad)
    vec, new_adam = nets.adam_step(adam, flow_to_vector(flow_params),
                                   flow_to_vector(grad))
    return vector_to_flow(vec, flow_params), new_adam, loss
