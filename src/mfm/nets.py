"""Dense network substrate: MLPs, Fourier time features, Adam.

Everything is plain float64 numpy.  The MLPs are fixed-shape
input -> hidden -> hidden -> output stacks with tanh hidden activations and
a linear output layer; reverse-mode parameter gradients and forward-mode
input derivatives are written out by hand, which is all this artifact
needs (no general autodiff).  ``mlp_forward_cache`` is the one forward
pass: the derivative helpers take its cache of layer activations and never
run the network again.
"""

import json
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


@dataclass
class FourierFeatures:
    """Sin/cos embedding of a time scalar at linearly spaced frequencies.

    The frequencies are w_j = base_frequency * j for j = 1..n.  The time
    features are integrated by fixed-step RK4 along with the rest of the
    field, so the top frequency must stay resolvable at the default
    ``OdeConfig.n_steps``: with pi * 1..8 the top feature turns 8*pi over
    t in [0, 1], about 0.8 rad per step at the default 32 steps.
    Geometric spacing (pi * 2^j, up to 128*pi) turns about 2*pi per step
    even at 64 steps, which RK4 cannot resolve, and breaks the
    backward/forward round trip of the flow.
    """

    n_frequencies: int = 8
    base_frequency: float = np.pi

    @property
    def n_features(self) -> int:
        return 2 * self.n_frequencies

    @property
    def frequencies(self) -> np.ndarray:
        return self.base_frequency * np.arange(1, self.n_frequencies + 1)


def fourier_embed(t, ff: FourierFeatures) -> np.ndarray:
    """Embed t in [0, 1] as [sin(w_j t), cos(w_j t)]; batches along axis 0."""
    t = np.asarray(t, dtype=float)
    phase = t[..., None] * ff.frequencies
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


@dataclass
class MlpParams:
    """Per-layer weights/biases; tanh on all layers except the last."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def size(self) -> int:
        """Number of parameters, the length of mlp_to_vector(self)."""
        return sum(a.size for a in self.arrays())

    def arrays(self) -> List[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


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


def mlp_zeros(sizes: Sequence[int]) -> MlpParams:
    weights = [np.zeros((sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
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


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Deterministic forward pass of an (N, n_in) batch to (N, n_out)."""
    return mlp_forward_cache(params, x)[0]


def mlp_param_gradient(params: MlpParams, acts, cotangent) -> MlpParams:
    """Gradient of sum_rows cotangent_i . output_i with respect to parameters.

    acts is the forward cache of mlp_forward_cache and cotangent is
    (N, n_out).  The per-row gradients are accumulated by the matrix
    products themselves, giving a deterministic ordered reduction.
    """
    if cotangent.shape != (acts[0].shape[0], params.n_out):
        raise ShapeMismatch(
            f"cotangent shape {cotangent.shape} != {(acts[0].shape[0], params.n_out)}")
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = cotangent
    for i in reversed(range(len(params.weights))):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (1.0 - acts[i] ** 2)
    return MlpParams(grads_w, grads_b)


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


# -- Flat-vector packing (checkpoints, Adam, finite differences) --------------

def pack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def unpack_like(vector: np.ndarray, template: Sequence[np.ndarray]) -> List[np.ndarray]:
    out, offset = [], 0
    for a in template:
        out.append(vector[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    if offset != vector.size:
        raise ShapeMismatch(f"vector length {vector.size}, template needs {offset}")
    return out


def mlp_to_vector(params: MlpParams) -> np.ndarray:
    return pack_arrays(params.arrays())


def vector_to_mlp(vector: np.ndarray, template: MlpParams) -> MlpParams:
    arrays = unpack_like(vector, template.arrays())
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


def load_arrays(path):
    """Inverse of save_arrays; returns (meta, {name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = np.frombuffer(fh.read(), dtype="<f8")
    spec = header.pop("arrays")
    out, offset = {}, 0
    for name, shape in zip(spec["names"], spec["shapes"]):
        size = int(np.prod(shape)) if shape else 1
        out[name] = blob[offset:offset + size].reshape(shape).copy()
        offset += size
    if offset != blob.size:
        raise ShapeMismatch("checkpoint blob length does not match its header")
    return header, out
