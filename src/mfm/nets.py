"""Dense network substrate: MLPs, fixed Fourier time features, Adam.

Everything is plain float64 numpy.  The MLPs are fixed-shape
input -> hidden -> hidden -> output stacks with tanh hidden activations and
a linear output layer; reverse-mode parameter gradients and forward-mode
input derivatives are written out by hand, which is all this artifact
needs (no general autodiff).  ``mlp_forward_cache`` is the one forward
pass: the derivative helpers take its cache of layer activations and never
run the network again.  The time embedding is fixed: every flow reads the
same FREQUENCIES, so nothing about it is stored per flow.  A flow stores
all of its layers as views into one flat float64 vector; see "Flat-vector
packing" below.
"""

import json
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
        """Layer widths (n_in, ..., n_out), as mlp_init takes them."""
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


def mlp_init(rng: np.random.Generator, sizes: Sequence[int],
             zero_last: bool = False) -> MlpParams:
    """Centered-uniform init with scale 1/sqrt(fan_in).

    Args:
        rng: Source of initial weights.
        sizes: Layer widths, e.g. (n_in, hidden, hidden, n_out).
        zero_last: Zero the final layer so the initial map is identically 0.
    """
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        scale = 1.0 / np.sqrt(sizes[i])
        weights.append(rng.uniform(-scale, scale, size=(sizes[i], sizes[i + 1])))
        biases.append(np.zeros(sizes[i + 1]))
    if zero_last:
        weights[-1] = np.zeros_like(weights[-1])
        biases[-1] = np.zeros_like(biases[-1])
    return MlpParams(weights, biases)


def _check_input(params: MlpParams, x: np.ndarray) -> None:
    if x.shape[-1] != params.n_in:
        raise ShapeMismatch(
            f"input width {x.shape[-1]} != first layer width {params.n_in}")


def mlp_forward_cache(params: MlpParams, x):
    """Forward pass over an (N, n_in) batch, keeping every layer's values.

    Returns (out, acts): out is (N, n_out) and acts[i] is the input of layer
    i (acts[0] the input batch, acts[-1] is out).  The derivative helpers
    below take acts, so one forward pass serves all of them.
    """
    _check_input(params, x)
    h = x
    acts = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def mlp_param_gradient(params: MlpParams, acts, cotangent,
                       out: MlpParams) -> MlpParams:
    """Gradient of sum_rows cotangent_i . output_i with respect to parameters.

    acts is the forward cache of mlp_forward_cache and cotangent is
    (N, n_out).  The per-row gradients are accumulated by the matrix
    products themselves, giving a deterministic ordered reduction.  Each
    layer's gradient is written into the matching array of out, which has
    the shapes of params (the views of a flat gradient vector, say).
    Returns out.
    """
    if cotangent.shape != (acts[0].shape[0], params.n_out):
        raise ShapeMismatch(
            f"cotangent shape {cotangent.shape} != {(acts[0].shape[0], params.n_out)}")
    delta = cotangent
    for i in reversed(range(len(params.weights))):
        np.matmul(acts[i].T, delta, out=out.weights[i])
        np.sum(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i].T) * (1.0 - acts[i] ** 2)
    return out


def mlp_input_jvp(params: MlpParams, acts, tangent) -> np.ndarray:
    """Directional derivative of the output wrt the input (forward mode).

    acts is the forward cache; tangent is one input-width row or one per row.
    """
    d = np.broadcast_to(np.asarray(tangent, dtype=float), acts[0].shape)
    last = len(params.weights) - 1
    for i, w in enumerate(params.weights):
        d = d @ w
        if i < last:
            d = d * (1.0 - acts[i + 1] ** 2)
    return d


def mlp_input_jacobian_trace(params: MlpParams, acts, k: int) -> np.ndarray:
    """sum_i d output_i / d input_i over the first k coordinates, per row.

    For the fixed two-hidden-layer stack the trace collapses to a bilinear
    form in the two tanh' vectors (read from the forward cache acts) with
    the constant matrix W2 * (W3 @ W1[:k])^T, which avoids materializing
    any Jacobian.
    """
    w1, w2, w3 = params.weights
    if w3.shape[1] < k:
        raise ShapeMismatch(f"trace needs >= {k} outputs, net has {w3.shape[1]}")
    d1 = 1.0 - acts[1] ** 2
    d2 = 1.0 - acts[2] ** 2
    mix = w2 * (w3[:, :k] @ w1[:k, :]).T
    return np.sum(d1 * (d2 @ mix.T), axis=1)


# -- Flat-vector packing (flow storage, checkpoints, finite differences) ------
#
# A flow keeps all of its layers as views into one flat vector
# (flow.FlowParams.flat), so Adam and the checkpoint read that vector as it
# is and the CFM gradient is written into a second one.  pack_arrays copies
# separate arrays into a new vector once, when a flow is initialised;
# unpack and vector_to_mlp only make views.

def pack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


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

# Elements per block of adam_step: 256 KiB per float64 stream, so the blocks
# of the seven vectors it touches (1.75 MiB) fit in a 2 MiB per-core L2 cache.
ADAM_BLOCK = 2 ** 15


@dataclass
class AdamState:
    """Adam moments plus a linear step-size schedule ending at zero."""

    m: np.ndarray
    v: np.ndarray
    step: int
    step_size: float
    total_steps: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(n_params: int, step_size: float, total_steps: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0,
                     float(step_size), int(total_steps))


def adam_step(state: AdamState, params: np.ndarray, gradient: np.ndarray):
    """One Adam update on flat parameter vectors; consumes ``state``.

    The moments are updated in place: ``state.m`` and ``state.v`` are the
    arrays of the returned state, so the caller must use only the returned
    state afterwards.  ``params`` and ``gradient`` are never written; the
    only full-size allocation is the returned parameter vector.  The vectors
    are walked in blocks of ADAM_BLOCK elements through two block-sized
    scratch buffers, with the float operations of the textbook update in
    the same order, so the result is bit-identical to

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        new = params - lr (m / c1) / (sqrt(v / c2) + eps),

    with c1 = 1 - b1^k and c2 = 1 - b2^k.  The effective step size at
    (post-increment) step k is lr = step_size * max(0, 1 - k / total_steps),
    so the schedule terminates at exactly zero and further calls leave the
    parameters fixed.  Shapes and the gradient's finiteness are checked
    before anything is written.
    """
    if (params.ndim != 1 or params.shape != gradient.shape
            or params.shape != state.m.shape or params.shape != state.v.shape):
        raise ShapeMismatch("params/gradient/moments are not flat vectors of one length")
    if not np.all(np.isfinite(gradient)):
        raise NonFiniteGradient("gradient contains non-finite entries")
    k = state.step + 1
    lr = state.step_size * max(0.0, 1.0 - k / state.total_steps)
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** k
    c2 = 1.0 - b2 ** k
    n = params.size
    new_params = np.empty(n)
    scratch_a = np.empty(min(n, ADAM_BLOCK))
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
        b += state.eps
        a /= b
        np.subtract(p, a, out=new_params[lo:hi])
    return new_params, replace(state, step=k)


# -- Checkpoint serialization --------------------------------------------------

def save_arrays(path, meta: dict, named_arrays) -> None:
    """One JSON header line (meta + shapes) then float64 little-endian data.

    Each array's buffer is written straight to the file; only an array that
    is not already contiguous little-endian float64 is converted first.
    """
    names = [name for name, _ in named_arrays]
    shapes = [list(a.shape) for _, a in named_arrays]
    header = dict(meta)
    header["arrays"] = {"names": names, "shapes": shapes}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for _, a in named_arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").reshape(-1).data)


def load_blob(path):
    """Read a save_arrays file as (header, blob).

    The header keeps its "arrays" entry (names and shapes) and blob is one
    new float64 vector holding every array's data in file order.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    return header, blob


def load_arrays(path):
    """Inverse of save_arrays; returns (meta, {name: array}).

    The arrays are views into one blob (see load_blob).
    """
    header, blob = load_blob(path)
    spec = header.pop("arrays")
    arrays = unpack(blob, [tuple(shape) for shape in spec["shapes"]])
    return header, dict(zip(spec["names"], arrays))
