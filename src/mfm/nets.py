"""Dense network substrate: MLPs, fixed Fourier time features, Adam.

Everything is plain numpy, in the dtype of the network's weights: float64,
or float32 for the flows wider than ``flow.TIME_HIDDEN_MAX``.  A network
never mixes the two: ``mlp_forward_cache`` refuses an input of another
dtype than its weights, and ``mlp_param_gradient`` casts the cotangent to
it, so no matrix product reads a float64 operand into a float32 result.
The MLPs are fixed-shape input -> hidden -> hidden -> output stacks with
tanh hidden activations and a linear output layer; reverse-mode parameter
gradients and the trace of the input Jacobian are written out by hand,
which is all this artifact needs (no general autodiff, and no forward-mode
input derivatives).  ``mlp_forward_cache`` is the one forward pass: the
derivative helpers take its cache of layer activations and never run the
network again.  The time embedding is fixed: every flow reads the same
FREQUENCIES, so nothing about it is stored per flow.  A flow stores all of
its layers as views into one flat vector; see "Flat-vector views" below.
Nothing here reads or writes files: ``flow`` owns the checkpoint format.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


# Time features: sin and cos of t at FREQUENCIES, linearly spaced.  They are
# integrated by fixed-step RK4 along with the rest of the field, so the top
# frequency must stay resolvable at the default OdeConfig.n_steps: with
# pi * 1..8 the top feature turns 8*pi over t in [0, 1], about 0.8 rad per
# step at the default 32 steps.  Geometric spacing (pi * 2^j, up to 128*pi)
# turns about 2*pi per step even at 64 steps, which RK4 cannot resolve, and
# breaks the backward/forward round trip of the flow.
FREQUENCIES = np.pi * np.arange(1, 9)
N_TIME_FEATURES = 2 * FREQUENCIES.size


def fourier_embed(t) -> np.ndarray:
    """Embed t in [0, 1] as [sin(w_j t), cos(w_j t)]; batches along axis 0."""
    t = np.asarray(t, dtype=float)
    phase = t[..., None] * FREQUENCIES
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weights/biases; tanh on all layers except the last.

    The layers are held in tuples and the fields cannot be rebound, so
    layers that are views into one flat vector (see vector_to_mlp) stay
    views: write into a layer in place (``w[...] = ...``) to change it.
    """

    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "biases", tuple(self.biases))

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Layer widths (n_in, ..., n_out), as mlp_shapes and mlp_size take them."""
        return (self.n_in,) + tuple(w.shape[1] for w in self.weights)

    def arrays(self) -> List[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def mlp_shapes(sizes: Sequence[int]) -> List[tuple]:
    """Array shapes of an MLP with layer widths sizes, in arrays() order."""
    return [shape for a, b in zip(sizes, sizes[1:]) for shape in ((a, b), (b,))]


def mlp_size(sizes: Sequence[int]) -> int:
    """Number of parameters of an MLP with layer widths sizes."""
    return sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))


def mlp_init(rng: np.random.Generator, out: MlpParams,
             zero_last: bool = False) -> MlpParams:
    """Centered-uniform init with scale 1/sqrt(fan_in), zero biases.

    Args:
        rng: Source of initial weights; one uniform draw per weight matrix,
            in layer order, the zeroed last one included.
        out: The MlpParams (views into a flat vector, say) into which each
            layer is drawn, cast to its dtype; its layers fix the widths.
            Only one layer's float64 draw is alive at a time.  Returns out.
        zero_last: Zero the final layer so the initial map is identically 0.
    """
    for w, b in zip(out.weights, out.biases):
        scale = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-scale, scale, size=w.shape)
        b[...] = 0.0
    if zero_last:
        out.weights[-1][...] = 0.0
    return out


def _check_input(params: MlpParams, x: np.ndarray) -> None:
    if x.shape[-1] != params.n_in:
        raise ShapeMismatch(
            f"input width {x.shape[-1]} != first layer width {params.n_in}")
    if x.dtype != params.weights[0].dtype:
        raise ShapeMismatch(
            f"input dtype {x.dtype} != weights' dtype {params.weights[0].dtype}")


def mlp_forward_cache(params: MlpParams, x, out=None):
    """Forward pass over an (N, n_in) batch, keeping every layer's values.

    Returns (y, acts): y is the (N, n_out) output and acts[i] is the input
    of layer i (acts[0] the input batch, acts[-1] is y).  The derivative
    helpers below take acts, so one forward pass serves all of them.  x
    must have the weights' dtype, and so do the layer outputs.

    Layer i is written into out[i] when out, a list of C-contiguous
    (N, output width of layer i) arrays, is given, so that a caller running
    many passes of one shape (the integrator) allocates none; otherwise
    into new arrays.  acts[1:] are those arrays.
    """
    _check_input(params, x)
    if out is None:
        out = [np.empty((x.shape[0], w.shape[1]), dtype=w.dtype) for w in params.weights]
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b, h) in enumerate(zip(params.weights, params.biases, out)):
        np.matmul(acts[-1], w, out=h)
        h += b
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_param_gradient(params: MlpParams, acts, cotangent,
                       out: MlpParams) -> MlpParams:
    """Gradient of sum_rows cotangent_i . output_i with respect to parameters.

    acts is the forward cache of mlp_forward_cache and cotangent is
    (N, n_out); it is cast to the weights' dtype here, the one place where
    a float64 cotangent meets a float32 network.  The per-row gradients are
    accumulated by the matrix products themselves, giving a deterministic
    ordered reduction.  Each
    layer's gradient is written into the matching array of out, which has
    the shapes of params (the views of a flat gradient vector, say).
    The back-propagated cotangent, (delta @ W^T) * (1 - a^2), is computed
    in two buffers allocated once per call.  Returns out.
    """
    dtype = params.weights[0].dtype
    n = acts[0].shape[0]
    if cotangent.shape != (n, params.n_out):
        raise ShapeMismatch(
            f"cotangent shape {cotangent.shape} != {(n, params.n_out)}")
    # delta alternates between two buffers of the widest hidden layer's
    # size: delta @ W^T goes into the one delta is not in, then 1 - a^2 into
    # the one it was in, which that product has finished reading
    size = n * max((a.shape[1] for a in acts[1:-1]), default=0)
    buffers = [np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)]
    delta = cotangent.astype(dtype, copy=False)
    for i in reversed(range(len(params.weights))):
        np.matmul(acts[i].T, delta, out=out.weights[i])
        np.sum(delta, axis=0, out=out.biases[i])
        if i > 0:
            back, slope = (b[:acts[i].size].reshape(acts[i].shape) for b in buffers)
            np.matmul(delta, params.weights[i].T, out=back)
            np.square(acts[i], out=slope)
            np.subtract(1.0, slope, out=slope)
            back *= slope
            delta = back
            buffers.reverse()
    return out


def mlp_trace_matrix(params: MlpParams) -> np.ndarray:
    """The constant matrix W2 * (W3 @ W1[:k])^T of the input trace, k = n_out.

    The trace runs over the first n_out inputs (net_x's positions, which
    precede its time features).  The matrix depends on the weights alone,
    so one serves every forward pass of one parameter set (see
    mlp_input_jacobian_trace).
    """
    w1, w2, w3 = params.weights
    return w2 * (w3 @ w1[:params.n_out, :]).T


def mlp_input_jacobian_trace(acts, mix, scratch) -> np.ndarray:
    """sum_i d output_i / d input_i over the first n_out coordinates, per row.

    For the fixed two-hidden-layer stack the trace collapses to a bilinear
    form in the two tanh' vectors (read from the forward cache acts) with
    mix = mlp_trace_matrix(params), which avoids materializing any
    Jacobian.  It is computed as np.sum((1 - a1**2) * ((1 - a2**2) @ mix.T),
    axis=1), in three hidden-sized buffers: scratch, a list of three
    C-contiguous arrays shaped like acts[1].
    """
    d1, d2, prod = scratch
    np.square(acts[1], out=d1)
    np.subtract(1.0, d1, out=d1)
    np.square(acts[2], out=d2)
    np.subtract(1.0, d2, out=d2)
    np.matmul(d2, mix.T, out=prod)
    prod *= d1
    return np.sum(prod, axis=1)


# -- Flat-vector views (flow storage) ------------------------------------------
#
# A flow keeps all of its layers as views into one flat vector
# (flow.FlowParams.flat), so Adam and flow's checkpoint read that vector as
# it is and the CFM gradient is written into a second one.  unpack and
# vector_to_mlp only make views; mlp_init draws a new flow's layers straight
# into them.

def unpack(vector: np.ndarray, shapes: Sequence[tuple]) -> List[np.ndarray]:
    """Consecutive pieces of a 1-D vector with the given shapes, in order.

    The pieces are views when vector is contiguous; the shapes must use up
    the whole vector.
    """
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vector[offset:offset + size].reshape(shape))
        offset += size
    if offset != vector.size:
        raise ShapeMismatch(f"vector length {vector.size}, shapes need {offset}")
    return out


def vector_to_mlp(vector: np.ndarray, sizes: Sequence[int]) -> MlpParams:
    """MLP with layer widths sizes whose layers are views into vector."""
    arrays = unpack(vector, mlp_shapes(sizes))
    return MlpParams(arrays[0::2], arrays[1::2])


# -- Adam with linear step-size decay -----------------------------------------

# Adam's decay rates b1, b2 and eps (Kingma & Ba's defaults); no run varies them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per block of adam_step: 256 KiB per float64 stream (128 KiB per
# float32 one), so the blocks of the seven vectors it touches (1.75 MiB at
# most) fit in a 2 MiB per-core L2 cache.
ADAM_BLOCK = 2 ** 15


@dataclass
class AdamState:
    """Adam moments plus a linear step-size schedule ending at zero.

    grad is a parameter-sized buffer that lives as long as the state: the
    train step writes each step's gradient into it (cfm.train_step), so no
    step allocates a parameter-sized vector.  adam_step does not read it.
    m, v and grad have the dtype of the parameters they serve.
    """

    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    step: int
    step_size: float
    total_steps: int


def adam_init(n_params: int, step_size: float, total_steps: int,
              dtype=np.float64) -> AdamState:
    """Zero moments and an empty gradient buffer, all of the given dtype."""
    return AdamState(np.zeros(n_params, dtype), np.zeros(n_params, dtype),
                     np.empty(n_params, dtype), 0, float(step_size), int(total_steps))


def adam_step(state: AdamState, params: np.ndarray, gradient: np.ndarray):
    """One Adam update of a flat parameter vector, in place; consumes ``state``.

    Returns (params, state): params is the argument, overwritten with the
    updated parameters, and the moments are updated in place too, so
    ``state.m`` and ``state.v`` are the arrays of the returned state and
    the caller must use only the returned state afterwards.  ``gradient``
    is never written, and nothing parameter-sized is allocated.  The vectors
    are walked in blocks of ADAM_BLOCK elements through two block-sized
    scratch buffers, with the float operations of the textbook update in
    the same order and in the vectors' dtype (the scalars are Python
    floats, which do not widen a float32 array), so the result is
    bit-identical to

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        new = params - lr (m / c1) / (sqrt(v / c2) + eps),

    with c1 = 1 - b1^k and c2 = 1 - b2^k.  The effective step size at
    (post-increment) step k is lr = step_size * max(0, 1 - k / total_steps),
    so the schedule terminates at exactly zero and further calls leave the
    parameters fixed.  Shapes, dtypes and the gradient's finiteness (block
    by block, so no parameter-sized mask) are checked before anything is
    written, so a refused step leaves params, the moments and the step
    count as they were.  The four vectors must share one dtype: an in-place
    update across dtypes would cast silently.
    """
    if (params.ndim != 1 or params.shape != gradient.shape
            or params.shape != state.m.shape or params.shape != state.v.shape):
        raise ShapeMismatch("params/gradient/moments are not flat vectors of one length")
    dtypes = [x.dtype for x in (params, gradient, state.m, state.v)]
    if len(set(dtypes)) > 1:
        raise ShapeMismatch(f"params/gradient/m/v have mixed dtypes {dtypes}")
    if not all(np.isfinite(gradient[lo:lo + ADAM_BLOCK]).all()
               for lo in range(0, gradient.size, ADAM_BLOCK)):
        raise NonFiniteGradient("gradient contains non-finite entries")
    k = state.step + 1
    lr = state.step_size * max(0.0, 1.0 - k / state.total_steps)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** k
    c2 = 1.0 - b2 ** k
    n = params.size
    scratch_a = np.empty(min(n, ADAM_BLOCK), dtype=params.dtype)
    scratch_b = np.empty_like(scratch_a)
    for lo in range(0, n, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, n)
        p, g, m, v = (x[lo:hi] for x in (params, gradient, state.m, state.v))
        a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.square(g, out=a)
        a *= 1.0 - b2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a
    return params, replace(state, step=k)

