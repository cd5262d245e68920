"""Continuous normalizing flow built from the dense-network substrate.

The vector field combines a position network with one time network, whose
d + 1 outputs are a gate on the target score and a positive scalar time
reweighting:

    v(t, x) = [ net_x(x, t) + gate(t) * grad_log_pi(x) ] / scale(t),
    (gate(t), u(t)) = net_t(t),   scale(t) = 0.1 + softplus(u(t))

net_x takes the flow's hidden width.  net_t reads only the time features,
so it is at most TIME_HIDDEN_MAX wide (``_layer_sizes``); on a wide flow it
would otherwise hold a large share of the parameters, and of Adam's state,
for a function of one scalar.  ``_layer_sizes(dim, hidden)`` fixes every
layer, so a flow and its checkpoint's layout follow from dim and net_x's width.

A flow wider than TIME_HIDDEN_MAX (only the lgcp preset's) stores its
parameters and runs both networks in float32 (``_param_dtype``): there the
train step is dense BLAS and an elementwise Adam update over millions of
parameters, both bound by memory traffic.  Everything around the networks
stays float64: the target's oracles and the score, the RK4 state and its
delta_logp, the CFM loss and everything the Metropolis kernels compute.
The float64 state is cast where it enters a network (``field``), and a
float64 cotangent where it enters ``nets.mlp_param_gradient``; a network's
float32 output widens where it meets the float64 state, in v.

Integration is classical fixed-step RK4 on the augmented state
(x, delta_logp) with d(delta_logp)/dt = -div v, so the accumulated
delta_logp of a forward pass (t 0 -> 1) is -int_0^1 div v dt and of a
backward pass (t 1 -> 0) is +int_0^1 div v dt along the traversed path.
These are exactly the two Delta-log-p quantities the Metropolis kernels
consume, and a backward/forward round trip sums to zero.  Only the
Metropolis kernels and ``pullback_log_density`` need delta_logp; the
closing push of the diagnostics (``push_samples``) integrates positions
alone and never evaluates the divergence.

``field`` is the only forward pass of v.  It returns the value together
with the score, the gate, the scale and the forward caches of the two
networks; ``divergence`` and the CFM parameter gradients in ``cfm`` reuse
that cache instead of running the networks again.  For a scalar t, as at
every RK4 stage, the time network runs on one row.  It reads the fixed
features ``nets.fourier_embed(t)``; checkpoints stamp them, and
``load_flow`` refuses a checkpoint stamped with others.

``divergence`` is the one divergence, and the RK4 field closure calls it.
It splits div v into net_x's input-Jacobian trace, exact at every d, and
the target term tr(diag(gate) H), whose estimator follows from the
dimension d alone: exact (d target Hessian-vector products per field
evaluation) up to EXACT_DIVERGENCE_MAX_DIM, and above it one Rademacher
probe of Hutchinson's trace estimator (FFJORD), which draws from the
integrator's rng.

The parameters and the row count are fixed across the 4 * n_steps field
evaluations of one ``integrate_rows`` call, so it builds one ``Workspace``
per call: net_x's trace matrix, which the trace reads, and buffers into
which every evaluation writes net_x's layer outputs and the trace's
scratch, with the same operations as into fresh arrays, so the bits are the
same.  ``cfm`` calls ``field`` without one, because its backward pass reads
the caches after the forward pass.

The rest of the API is the integrator (``integrate_rows``, with
``rk4_integrate`` underneath), the closing push (``push_samples``), two
oracles for tests (``flow_zero`` and ``pullback_log_density``) and the
checkpoint pair ``save_flow``/``load_flow``, which alone own its format.
"""

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import NonFiniteState, ShapeMismatch
from .nets import MlpParams
from .targets import TargetDensity

SCALE_FLOOR = 0.1
# The time features (nets.FREQUENCIES) as flow checkpoints stamp them.
TIME_FEATURES = {"n_frequencies": nets.FREQUENCIES.size,
                 "base_frequency": float(nets.FREQUENCIES[0]),
                 "frequency_spacing": "linear"}
# Largest dimension whose target term tr(diag(gate) H) is exact (the field
# preset's d = 64); above it one Hutchinson probe estimates that term.
# net_x's trace is exact at every dimension.
EXACT_DIVERGENCE_MAX_DIM = 64
# Widest hidden layer of net_t, the network of t alone (the field preset's
# 256); only net_x grows with a flow's hidden width.
TIME_HIDDEN_MAX = 256
# Values per slice of the closing push (push_samples): a slice has this many
# over max(dim, hidden) rows, 256 at the lgcp preset's d = 1,600.
PUSH_SLICE_VALUES = 256 * 1600


@dataclass(frozen=True)
class FlowParams:
    """Weights of the two sub-networks; dim is net_x's output width.

    All parameters live in one contiguous vector, flat, of float64 or (for
    a wide flow, see _param_dtype) float32: every layer of net_x and net_t
    is a view into it, in that order and in MlpParams.arrays() order within
    each network.  That is flow_to_vector's order and the order of the
    checkpoint blob.  Neither the fields nor the layers can be rebound, so
    the views cannot come apart from flat; a layer written in place changes
    flat.  Build one with flow_init, flow_zero, vector_to_flow or load_flow,
    which lay flat out by _layer_sizes(dim, hidden).
    """

    net_x: MlpParams       # (x, fourier(t)) -> R^d
    net_t: MlpParams       # fourier(t) -> R^(d+1): the score's gate, then u
    flat: np.ndarray

    @property
    def dim(self) -> int:
        return self.net_x.n_out


@dataclass
class OdeConfig:
    """Fixed-step RK4 settings; the divergence estimator follows from d."""

    n_steps: int = 32

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def _layer_sizes(dim: int, hidden: int):
    """Layer widths of net_x and net_t.

    net_x is hidden wide.  net_t reads only the nets.N_TIME_FEATURES
    features of t, so it is min(hidden, TIME_HIDDEN_MAX) wide, and it has
    d + 1 outputs: the gate and the scale's pre-activation u.
    """
    nf = nets.N_TIME_FEATURES
    ht = min(hidden, TIME_HIDDEN_MAX)
    return (dim + nf, hidden, hidden, dim), (nf, ht, ht, dim + 1)


def _param_dtype(hidden: int):
    """dtype of a new flow's parameters and network arithmetic.

    float32 when net_x is wider than TIME_HIDDEN_MAX (only the lgcp preset's
    1,024), where the train step is bound by memory traffic; float64 for
    every narrower flow, which so keeps the bits it always had.
    """
    return np.float32 if hidden > TIME_HIDDEN_MAX else np.float64


def _on_flat(flat: np.ndarray, dim: int, hidden: int) -> FlowParams:
    """FlowParams whose networks, of _layer_sizes(dim, hidden), are views into flat.

    flat may be float32 or float64 at any width: a float64 checkpoint of a
    wide flow, written before wide flows were float32, loads as it is.
    """
    if (flat.ndim != 1 or flat.dtype not in (np.float32, np.float64)
            or not flat.flags.c_contiguous):
        raise ShapeMismatch("flow parameters must be one contiguous float32 or "
                            "float64 vector")
    sizes = _layer_sizes(dim, hidden)
    parts = nets.unpack(flat, [(nets.mlp_size(s),) for s in sizes])
    net_x, net_t = (nets.vector_to_mlp(p, s) for p, s in zip(parts, sizes))
    return FlowParams(net_x, net_t, flat)


def flow_init(rng: np.random.Generator, dim: int, hidden: int = 128) -> FlowParams:
    """Fresh flow; net_x's last layer is zeroed so the field starts small.

    The flat vector of _param_dtype(hidden) is allocated once and each
    network is drawn straight into its views (nets.mlp_init), layer by
    layer from float64 draws.
    """
    n = sum(map(nets.mlp_size, _layer_sizes(dim, hidden)))
    params = _on_flat(np.empty(n, _param_dtype(hidden)), dim, hidden)
    nets.mlp_init(rng, params.net_x, zero_last=True)
    nets.mlp_init(rng, params.net_t)
    return params


def flow_zero(dim: int, hidden: int = 8) -> FlowParams:
    """All-zero networks: the vector field is identically zero."""
    n = sum(map(nets.mlp_size, _layer_sizes(dim, hidden)))
    return _on_flat(np.zeros(n, _param_dtype(hidden)), dim, hidden)


def flow_to_vector(params: FlowParams) -> np.ndarray:
    """The flow's parameter vector: params.flat itself, not a copy.

    It is the flow's storage, so never write to it; copy it first.
    """
    return params.flat


def vector_to_flow(vector: np.ndarray, template: FlowParams) -> FlowParams:
    """Inverse of flow_to_vector: a flow shaped like template stored in vector.

    No copy is made: vector becomes the new flow's flat and its layers are
    views into it, so a later write to vector changes the flow.
    """
    return _on_flat(vector, template.dim, template.net_x.sizes[1])


def softplus(u):
    return np.logaddexp(0.0, u)


@dataclass(frozen=True)
class Workspace:
    """What the field evaluations of one integration over N rows reuse.

    layers receives net_x's three layer outputs, (N, hidden), (N, hidden)
    and (N, d).  mix is net_x's trace matrix (nets.mlp_trace_matrix) and
    trace the three (N, hidden) scratch arrays of its input-Jacobian trace;
    both are None unless with_dlp.  All of them have the flow's dtype.  A
    FieldEval computed with it keeps views of layers, which the next
    evaluation overwrites.
    """

    layers: list
    mix: np.ndarray
    trace: list

    @classmethod
    def for_rows(cls, params: FlowParams, n: int, with_dlp: bool):
        layers = [np.empty((n, w.shape[1]), w.dtype) for w in params.net_x.weights]
        if not with_dlp:
            return cls(layers, None, None)
        with np.errstate(over="ignore", invalid="ignore"):
            mix = nets.mlp_trace_matrix(params.net_x)
        return cls(layers, mix, [np.empty_like(layers[0]) for _ in range(3)])


@dataclass
class FieldEval:
    """One forward pass of v(t, x) and the pieces its derivatives reuse.

    For a scalar t the time network runs on one row, so gate, u and scale
    are (1, .) and broadcast against the N rows of v and score.  v and
    score are float64; gate, u, scale and the caches have the flow's dtype.
    """

    v: np.ndarray          # (N, d) field value
    score: np.ndarray      # (N, d) grad log pi(x)
    gate: np.ndarray       # net_t's first d outputs
    u: np.ndarray          # net_t's last output; scale = SCALE_FLOOR + softplus(u)
    scale: np.ndarray
    acts_x: list           # forward caches of net_x and net_t
    acts_t: list


def field(params: FlowParams, target: TargetDensity, t, xb: np.ndarray,
          ws: Workspace = None) -> FieldEval:
    """The single forward pass of the vector field over a batch xb (N, d).

    t is a scalar or one time per row.  Divergence and CFM gradients read
    the returned caches instead of running the networks again.  With a
    Workspace ws for N rows, net_x's layers are written into ws.layers.
    Both networks' inputs are cast to the flow's dtype here; v is float64.
    """
    t = np.asarray(t, dtype=float)
    n = xb.shape[0]
    dtype = params.flat.dtype
    ff = np.atleast_2d(nets.fourier_embed(t)).astype(dtype, copy=False)
    if t.ndim and ff.shape[0] != n:
        raise ShapeMismatch(f"{ff.shape[0]} time rows for {n} positions")
    score = target.grad_log_density(xb)
    ffb = np.broadcast_to(ff, (n, ff.shape[1]))
    nx, acts_x = nets.mlp_forward_cache(
        params.net_x, np.concatenate([xb, ffb], axis=1, dtype=dtype),
        None if ws is None else ws.layers)
    time_out, acts_t = nets.mlp_forward_cache(params.net_t, ff)
    gate, u = time_out[:, :-1], time_out[:, -1:]
    scale = SCALE_FLOOR + softplus(u)
    v = (nx + gate * score) / scale
    return FieldEval(v, score, gate, u, scale, acts_x, acts_t)


def divergence(target: TargetDensity, xb: np.ndarray, fe: FieldEval,
               rng: np.random.Generator, ws: Workspace):
    """Divergence of v(t, .) per row of xb (N, d), where fe = field(.., t, xb).

    net_x's trace is exact at every d, from ws.mix and in ws.trace, where
    ws = Workspace.for_rows(params, N, True) for the flow fe came from.  The
    target term tr(diag(gate) H) is exact for d <= EXACT_DIVERGENCE_MAX_DIM,
    with rng not read; above it one Rademacher probe eps drawn from rng
    gives Hutchinson's unbiased estimate sum(eps * gate * H eps).
    """
    d = xb.shape[1]
    div = nets.mlp_input_jacobian_trace(fe.acts_x, ws.mix, ws.trace)
    if d <= EXACT_DIVERGENCE_MAX_DIM:
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            div = div + fe.gate[:, i] * target.hvp_log_density(xb, e)[:, i]
        return div / fe.scale[:, 0]
    if rng is None:
        raise ValueError(f"the Hutchinson target term at d = {d} needs an rng")
    eps = rng.integers(0, 2, size=xb.shape) * 2.0 - 1.0
    hvp = target.hvp_log_density(xb, eps)
    return (div + np.sum(eps * fe.gate * hvp, axis=1)) / fe.scale[:, 0]


def rk4_integrate(field, x0: np.ndarray, t0: float, t1: float, n_steps: int):
    """Classical RK4 for dx/dt = v, d(dlp)/dt = -div, from t0 to t1.

    Args:
        field: Callable (t, x) -> (v, div) with x of shape (N, d) and
            div of shape (N,).
        x0: Start positions, (N, d).
        t0, t1: Integration endpoints; t1 < t0 integrates backwards.
        n_steps: Number of fixed RK4 steps.

    Returns:
        (x, dlp): end positions and accumulated -int div dt.

    Raises:
        NonFiniteState: the position state left the representable range.
    """
    x = np.array(x0, dtype=float)
    dlp = np.zeros(x.shape[0])
    h = (t1 - t0) / n_steps
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            v1, d1 = field(t, x)
            v2, d2 = field(t + 0.5 * h, x + 0.5 * h * v1)
            v3, d3 = field(t + 0.5 * h, x + 0.5 * h * v2)
            v4, d4 = field(t + h, x + h * v3)
            x = x + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            dlp = dlp - (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            t += h
    return x, dlp


def _flow_field(params, target, rng, with_dlp, n):
    """Row-tolerant field closure: broken rows carry NaN, healthy rows run on.

    Without with_dlp the divergence is not evaluated and reads as zero, so
    a row breaks only when its position or velocity is not finite.  The
    Workspace for the n rows is built here, once for every evaluation.
    """
    ws = Workspace.for_rows(params, n, with_dlp)

    def rk4_field(t, xb):
        ok = np.all(np.isfinite(xb), axis=1)
        safe = xb if ok.all() else np.where(ok[:, None], xb, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            fe = field(params, target, t, safe, ws)
            v = fe.v
            div = (divergence(target, safe, fe, rng, ws)
                   if with_dlp else np.zeros(xb.shape[0]))
        ok &= np.all(np.isfinite(v), axis=1) & np.isfinite(div)
        if not ok.all():
            v = np.where(ok[:, None], v, np.nan)
            div = np.where(ok, div, np.nan)
        return v, div
    return rk4_field


def integrate_rows(params: FlowParams, target: TargetDensity, xb: np.ndarray,
                   cfg: OdeConfig, rng: np.random.Generator, forward: bool,
                   with_dlp: bool = True):
    """The integrator: xb (N, d) from t = 0 to 1 (forward) or 1 to 0.

    Returns (x, dlp, finite_mask) and never raises: the Metropolis kernels
    treat a blown-up row as an automatic rejection, while push_samples and
    pullback_log_density raise NonFiniteState for it.  dlp is
    -int_0^1 div dt forward and +int_0^1 div dt backward.

    rng feeds only the Hutchinson probes of the target term above
    EXACT_DIVERGENCE_MAX_DIM and is not read at or below it.  With
    with_dlp=False no divergence is evaluated and rng is not read: dlp is
    all zeros, so the mask covers positions only.  The positions equal
    those of a with_dlp call bit for bit wherever that call's mask is set.
    """
    t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
    x, dlp = rk4_integrate(_flow_field(params, target, rng, with_dlp, xb.shape[0]),
                           xb, t0, t1, cfg.n_steps)
    ok = np.all(np.isfinite(x), axis=1) & np.isfinite(dlp)
    return x, dlp, ok


def pullback_log_density(params: FlowParams, target: TargetDensity, xb,
                         cfg: OdeConfig, rng: np.random.Generator = None):
    """Log-density of the target pulled back to reference space, per row.

    xb (N, d) lives in reference space; the value is
    log pi(phi_1(x)) + int_0^1 div v dt along the trajectory through x.
    """
    x1, dlp, ok = integrate_rows(params, target, xb, cfg, rng, True)
    _require_finite(ok)
    return target.log_density(x1) - dlp


def push_samples(params: FlowParams, target: TargetDensity, x0_batch,
                 cfg: OdeConfig):
    """Integrate a batch of reference draws forward; returns the samples (N, d).

    Positions only: the closing diagnostics score where the draws land, so
    no divergence is evaluated (integrate_rows with with_dlp=False).  A row
    whose position or velocity blows up raises NonFiniteState naming it.
    The rows run in slices of PUSH_SLICE_VALUES // max(dim, hidden) rows,
    one integrate_rows call each, one after another: the widest array a row
    takes is max(dim, hidden) values, so that bounds what the push holds at
    once.  lgcp (d 1,600, hidden 1,024) runs 256-row slices, where one call
    over 2,048 rows peaks at 2.4x the memory; gmm4 (d 2, hidden 128) runs
    all 2,048 rows in one call.  The positions do not depend on the slicing.
    """
    x0 = np.asarray(x0_batch, dtype=float)
    if x0.shape[0] == 0:
        return x0.copy()
    if not np.all(np.isfinite(x0)):
        bad = int(np.where(~np.all(np.isfinite(x0), axis=1))[0][0])
        raise NonFiniteState(f"input row {bad} is not finite")

    rows = PUSH_SLICE_VALUES // max(params.dim, params.net_x.sizes[1])
    results = [integrate_rows(params, target, x0[lo:lo + rows], cfg, None, True,
                              with_dlp=False)
               for lo in range(0, x0.shape[0], rows)]
    _require_finite(np.concatenate([ok for _, _, ok in results]))
    return np.concatenate([x for x, _, _ in results])


def _require_finite(ok):
    """Raise NonFiniteState naming the first row integrate_rows flagged."""
    if not ok.all():
        raise NonFiniteState(f"flow integration blew up (row {int(np.argmin(ok))})")


# -- Checkpointing -------------------------------------------------------------

# dtypes of a checkpoint's data, by the name its header stamps
_CHECKPOINT_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def _checkpoint_arrays(dim: int, hidden: int):
    """(name, shape) of every array of a flow checkpoint, in flat's order."""
    return [(f"{net}.{'wb'[j % 2]}{j // 2}", list(shape))
            for net, sizes in zip(("net_x", "net_t"), _layer_sizes(dim, hidden))
            for j, shape in enumerate(nets.mlp_shapes(sizes))]


def save_flow(path, params: FlowParams) -> None:
    """One JSON header line naming every layer (_checkpoint_arrays), then flat.

    flat is written as it is, in little-endian order; a float32 flow is
    stamped "dtype": "float32", a float64 one is not, as every flow was saved
    before wide flows became float32.  A flow of any other layout is refused.
    """
    layout = _checkpoint_arrays(params.dim, params.net_x.sizes[1])
    shapes = [list(a.shape) for a in params.net_x.arrays() + params.net_t.arrays()]
    if shapes != [shape for _, shape in layout]:
        raise ShapeMismatch(f"flow arrays {shapes} are not the checkpoint layout {layout}")
    dtype = params.flat.dtype.name
    header = {"kind": "flow", "dim": params.dim, **TIME_FEATURES,
              **({"dtype": dtype} if dtype == "float32" else {}),
              "arrays": {"names": [name for name, _ in layout], "shapes": shapes}}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(params.flat.astype(_CHECKPOINT_DTYPES[dtype], copy=False).data)


def load_flow(path) -> FlowParams:
    """Read a save_flow checkpoint, in its dtype; the flow's flat is its data.

    net_x's width is read from net_x.w0; dim fixes the rest (_layer_sizes).
    A ValueError naming path refuses a header that is not a JSON object, an
    unknown dtype, another kind or time features than TIME_FEATURES, a dim
    that is not a positive integer, "arrays" that are not names and shapes
    lists of one length naming that layout (such as the separate net_scale
    network saved before it joined net_t), a net_x narrower than 1, and
    data not of that size.
    """
    with open(path, "rb") as fh:
        try:
            meta = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            meta = None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: the header is not a JSON object")
        stamp = meta.get("dtype", "float64")
        if not isinstance(stamp, str) or stamp not in _CHECKPOINT_DTYPES:
            raise ValueError(f"{path} stamps dtype {stamp!r}, "
                             f"expected one of {sorted(_CHECKPOINT_DTYPES)}")
        if meta.get("kind") != "flow":
            raise ValueError(f"{path} is not a flow checkpoint")
        stamped = {k: meta.get(k) for k, v in TIME_FEATURES.items() if meta.get(k) != v}
        if stamped:
            # Another field from the same weights: refuse rather than misread.
            raise ValueError(f"{path} stamps time features {stamped}, "
                             f"expected {TIME_FEATURES}")
        dim, spec = meta.get("dim"), meta.get("arrays")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"{path}: dim {dim!r} is not a positive integer")
        names, shapes = map((spec if isinstance(spec, dict) else {}).get, ("names", "shapes"))
        if not (isinstance(names, list) and isinstance(shapes, list)
                and len(names) == len(shapes)):
            raise ValueError(f"{path}: arrays are not names and shapes lists of one length")
        if any(str(name).startswith("net_scale.") for name in names):
            raise ValueError(f"{path} holds a separate net_scale network, saved before "
                             "the gate and the scale became one net_t; it cannot be read")
        w0 = dict(zip(map(str, names), shapes)).get("net_x.w0") or [0]
        hidden = w0[-1] if isinstance(w0, list) and type(w0[-1]) is int else 0
        layout = _checkpoint_arrays(dim, hidden)
        for got, want in itertools.zip_longest(zip(names, shapes), layout):
            if got != want:
                raise ValueError(f"{path}: expected array {want}, found {got}")
        if hidden < 1:
            raise ValueError(f"{path}: net_x is {hidden} wide, not at least 1")
        dtype = _CHECKPOINT_DTYPES[stamp]
        size = sum(map(nets.mlp_size, _layer_sizes(dim, hidden))) * dtype.itemsize
        if os.fstat(fh.fileno()).st_size - fh.tell() != size:
            raise ValueError(f"{path} does not hold the layout's {size} data bytes")
        flat = np.fromfile(fh, dtype=dtype)
    return _on_flat(flat, dim, hidden)
