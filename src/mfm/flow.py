"""Continuous normalizing flow built from the dense-network substrate.

The vector field combines a position network, a time network gating the
target score, and a positive scalar time reweighting:

    v(t, x) = [ net_x(x, t) + net_t(t) * grad_log_pi(x) ] / scale(t),
    scale(t) = 0.1 + softplus(net_scale(t))

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
with the score, the gate, the scale and the forward caches of the three
networks; ``divergence`` and the CFM parameter gradients in ``cfm`` reuse
that cache instead of running the networks again.  For a scalar t, as at
every RK4 stage, the time networks run on one row.  The time networks read
the fixed features ``nets.fourier_embed(t)``; checkpoints stamp them, and
``load_flow`` refuses a checkpoint stamped with others.

``divergence`` is the one divergence, and the RK4 field closure calls it.
Its estimator follows from the dimension d alone: the exact trace (d
target Hessian-vector products per field evaluation) up to
EXACT_DIVERGENCE_MAX_DIM, and above it one Rademacher probe of
Hutchinson's trace estimator (FFJORD), which draws from the integrator's
rng.

The rest of the API is the integrator (``integrate_rows``, with
``rk4_integrate`` underneath), the closing push (``push_samples``), two
oracles for tests (``flow_zero`` and ``pullback_log_density``) and the
checkpoint pair ``save_flow``/``load_flow``.
"""

import itertools
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
# Largest dimension whose divergence is the exact trace (the field preset's
# d = 64); above it one Hutchinson probe estimates the divergence.
EXACT_DIVERGENCE_MAX_DIM = 64


@dataclass(frozen=True)
class FlowParams:
    """Weights of the three sub-networks and the dimension.

    All parameters live in one contiguous float64 vector, flat: every layer
    of net_x, net_t and net_scale is a view into it, in that order and in
    MlpParams.arrays() order within each network.  That is flow_to_vector's
    order and the order of the checkpoint blob.  Neither the fields nor the
    layers can be rebound, so the views cannot come apart from flat; a
    layer written in place changes flat.  Build one with flow_init,
    flow_zero, vector_to_flow or load_flow.
    """

    net_x: MlpParams       # (x, fourier(t)) -> R^d
    net_t: MlpParams       # fourier(t) -> R^d, gates the score
    net_scale: MlpParams   # fourier(t) -> R, reweights the whole field
    dim: int
    flat: np.ndarray


@dataclass
class OdeConfig:
    """Fixed-step RK4 settings; the divergence estimator follows from d."""

    n_steps: int = 32

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def _layer_sizes(dim: int, hidden: int):
    """Layer widths of net_x, net_t and net_scale."""
    nf = nets.N_TIME_FEATURES
    return ((dim + nf, hidden, hidden, dim), (nf, hidden, hidden, dim),
            (nf, hidden, hidden, 1))


def _on_flat(flat: np.ndarray, sizes, dim: int) -> FlowParams:
    """FlowParams whose networks, with layer widths sizes, are views into flat."""
    if flat.ndim != 1 or flat.dtype != np.float64 or not flat.flags.c_contiguous:
        raise ShapeMismatch("flow parameters must be one contiguous float64 vector")
    parts = nets.unpack(flat, [(nets.mlp_size(s),) for s in sizes])
    net_x, net_t, net_scale = (nets.vector_to_mlp(p, s) for p, s in zip(parts, sizes))
    return FlowParams(net_x, net_t, net_scale, dim, flat)


def flow_init(rng: np.random.Generator, dim: int, hidden: int = 128) -> FlowParams:
    """Fresh flow; net_x's last layer is zeroed so the field starts small.

    The networks are drawn layer by layer and packed into one flat vector
    once, here.
    """
    sizes = _layer_sizes(dim, hidden)
    drawn = [nets.mlp_init(rng, s, zero_last=(i == 0)) for i, s in enumerate(sizes)]
    flat = nets.pack_arrays([a for net in drawn for a in net.arrays()])
    return _on_flat(flat, sizes, dim)


def flow_zero(dim: int, hidden: int = 8) -> FlowParams:
    """All-zero networks: the vector field is identically zero."""
    sizes = _layer_sizes(dim, hidden)
    return _on_flat(np.zeros(sum(map(nets.mlp_size, sizes))), sizes, dim)


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
    sizes = [net.sizes for net in (template.net_x, template.net_t, template.net_scale)]
    return _on_flat(vector, sizes, template.dim)


def softplus(u):
    return np.logaddexp(0.0, u)


@dataclass
class FieldEval:
    """One forward pass of v(t, x) and the pieces its derivatives reuse.

    For a scalar t the time networks run on one row, so gate, u and scale
    are (1, .) and broadcast against the N rows of v and score.
    """

    v: np.ndarray          # (N, d) field value
    score: np.ndarray      # (N, d) grad log pi(x)
    gate: np.ndarray       # net_t output
    u: np.ndarray          # net_scale output; scale = SCALE_FLOOR + softplus(u)
    scale: np.ndarray
    acts_x: list           # forward caches of net_x, net_t, net_scale
    acts_t: list
    acts_scale: list


def field(params: FlowParams, target: TargetDensity, t, xb: np.ndarray) -> FieldEval:
    """The single forward pass of the vector field over a batch xb (N, d).

    t is a scalar or one time per row.  Divergence and CFM gradients read
    the returned caches instead of running the networks again.
    """
    t = np.asarray(t, dtype=float)
    n = xb.shape[0]
    ff = np.atleast_2d(nets.fourier_embed(t))
    if t.ndim and ff.shape[0] != n:
        raise ShapeMismatch(f"{ff.shape[0]} time rows for {n} positions")
    score = target.grad_log_density(xb)
    ffb = np.broadcast_to(ff, (n, ff.shape[1]))
    nx, acts_x = nets.mlp_forward_cache(params.net_x, np.concatenate([xb, ffb], axis=1))
    gate, acts_t = nets.mlp_forward_cache(params.net_t, ff)
    u, acts_scale = nets.mlp_forward_cache(params.net_scale, ff)
    scale = SCALE_FLOOR + softplus(u)
    v = (nx + gate * score) / scale
    return FieldEval(v, score, gate, u, scale, acts_x, acts_t, acts_scale)


def divergence(params: FlowParams, target: TargetDensity, xb: np.ndarray,
               fe: FieldEval, rng: np.random.Generator):
    """Divergence of v(t, .) per row of xb (N, d), where fe = field(.., t, xb).

    Exact for d <= EXACT_DIVERGENCE_MAX_DIM, where rng is not read; above
    it one Rademacher probe drawn from rng gives Hutchinson's unbiased
    estimate.
    """
    d = xb.shape[1]
    if d <= EXACT_DIVERGENCE_MAX_DIM:
        div = nets.mlp_input_jacobian_trace(params.net_x, fe.acts_x, d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            div = div + fe.gate[:, i] * target.hvp_log_density(xb, e)[:, i]
        return div / fe.scale[:, 0]
    if rng is None:
        raise ValueError(f"the Hutchinson divergence at d = {d} needs an rng")
    eps = rng.integers(0, 2, size=xb.shape) * 2.0 - 1.0
    tangent = np.zeros_like(fe.acts_x[0])
    tangent[:, :d] = eps
    jvp = nets.mlp_input_jvp(params.net_x, fe.acts_x, tangent)
    hvp = target.hvp_log_density(xb, eps)
    return np.sum(eps * (jvp + fe.gate * hvp), axis=1) / fe.scale[:, 0]


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


def _flow_field(params, target, rng, with_dlp):
    """Row-tolerant field closure: broken rows carry NaN, healthy rows run on.

    Without with_dlp the divergence is not evaluated and reads as zero, so
    a row breaks only when its position or velocity is not finite.
    """
    def rk4_field(t, xb):
        ok = np.all(np.isfinite(xb), axis=1)
        safe = xb if ok.all() else np.where(ok[:, None], xb, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            fe = field(params, target, t, safe)
            v = fe.v
            div = (divergence(params, target, safe, fe, rng)
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

    rng feeds the Hutchinson probes above EXACT_DIVERGENCE_MAX_DIM and is
    not read at or below it.  With with_dlp=False no divergence is
    evaluated and rng is not read: the result is (x, finite_mask), the
    mask covering positions only.  The positions equal those of a with_dlp
    call bit for bit wherever that call's mask is set.
    """
    t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
    x, dlp = rk4_integrate(_flow_field(params, target, rng, with_dlp),
                           xb, t0, t1, cfg.n_steps)
    ok = np.all(np.isfinite(x), axis=1) & np.isfinite(dlp)
    return (x, dlp, ok) if with_dlp else (x, ok)


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
                 cfg: OdeConfig, workers: int = 1):
    """Integrate a batch of reference draws forward; returns the samples (N, d).

    Positions only: the closing diagnostics score where the draws land, so
    no divergence is evaluated (integrate_rows with with_dlp=False).  A row
    whose position or velocity blows up raises NonFiniteState naming it.
    Chunks fan out across a thread pool when workers > 1; results are
    reassembled by chunk index, so the output is identical for any worker
    count.
    """
    x0 = np.asarray(x0_batch, dtype=float)
    if x0.shape[0] == 0:
        return x0.copy()
    if not np.all(np.isfinite(x0)):
        bad = int(np.where(~np.all(np.isfinite(x0), axis=1))[0][0])
        raise NonFiniteState(f"input row {bad} is not finite")

    def run_chunk(bounds):
        lo, hi = bounds
        # looked up at call time, so a wrapper on flow.integrate_rows sees it
        return integrate_rows(params, target, x0[lo:hi], cfg, None, True,
                              with_dlp=False)

    chunks = _split_rows(x0.shape[0])
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    samples = np.concatenate([r[0] for r in results], axis=0)
    _require_finite(np.concatenate([r[1] for r in results]))
    return samples


def _require_finite(ok):
    """Raise NonFiniteState naming the first row integrate_rows flagged."""
    if not ok.all():
        raise NonFiniteState(f"flow integration blew up (row {int(np.argmin(ok))})")


def _split_rows(n: int, chunk: int = 256):
    """Fixed-size row partition, independent of the worker count."""
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


# -- Checkpointing -------------------------------------------------------------

def save_flow(path, params: FlowParams) -> None:
    named = []
    for net_name in ("net_x", "net_t", "net_scale"):
        net = getattr(params, net_name)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            named.append((f"{net_name}.w{i}", w))
            named.append((f"{net_name}.b{i}", b))
    nets.save_arrays(path, {"kind": "flow", "dim": params.dim, **TIME_FEATURES},
                     named)


def _checkpoint_sizes(path, names, shapes, dim: int):
    """Layer widths of the three networks, read from a checkpoint header.

    The hidden widths are the weights' output widths; the input and output
    widths follow from dim and nets.N_TIME_FEATURES.  The arrays must be
    exactly those of such networks, in flow_to_vector order, or ValueError
    names the first one that is not.
    """
    nf = nets.N_TIME_FEATURES
    widths = {"net_x": (dim + nf, dim), "net_t": (nf, dim), "net_scale": (nf, 1)}
    sizes = []
    for net, (n_in, n_out) in widths.items():
        outs = [shape[-1] for name, shape in zip(names, shapes)
                if name.startswith(f"{net}.w") and shape]
        sizes.append((n_in, *outs[:-1], n_out))
    expected = [(f"{net}.{'wb'[j % 2]}{j // 2}", list(shape))
                for net, s in zip(widths, sizes)
                for j, shape in enumerate(nets.mlp_shapes(s))]
    for found, want in itertools.zip_longest(zip(names, shapes), expected):
        if found != want:
            raise ValueError(f"{path}: expected array {want}, found {found}")
    return sizes


def load_flow(path) -> FlowParams:
    """Read a save_flow checkpoint; the flow's flat is the loaded blob.

    A checkpoint that is not a flow, is stamped with other time features
    than TIME_FEATURES, or whose arrays do not fit its dim is refused with a
    ValueError.
    """
    meta, blob = nets.load_blob(path)
    if meta.get("kind") != "flow":
        raise ValueError(f"{path} is not a flow checkpoint")
    stamped = {k: meta.get(k) for k, v in TIME_FEATURES.items() if meta.get(k) != v}
    if stamped:
        # Another field from the same weights: refuse rather than misread.
        raise ValueError(f"{path} stamps time features {stamped}, "
                         f"expected {TIME_FEATURES}")
    dim = int(meta["dim"])
    spec = meta["arrays"]
    sizes = _checkpoint_sizes(path, spec["names"], spec["shapes"], dim)
    return _on_flat(blob, sizes, dim)
