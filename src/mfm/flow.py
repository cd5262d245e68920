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
consume, and a backward/forward round trip sums to zero.

``field`` is the only forward pass of v.  It returns the value together
with the score, the gate, the scale and the forward caches of the three
networks; the divergence (exact trace or Hutchinson) and the CFM parameter
gradients in ``cfm`` reuse that cache instead of running the networks again.
For a scalar t, as at every RK4 stage, the time networks run on one row.
"""

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import NonFiniteScore, NonFiniteState, ShapeMismatch
from .nets import FourierFeatures, MlpParams
from .targets import TargetDensity

SCALE_FLOOR = 0.1
# Spacing of FourierFeatures.frequencies, stamped into flow checkpoints.
FREQUENCY_SPACING = "linear"


@dataclass
class FlowParams:
    """Weights of the three sub-networks plus the time-feature config."""

    net_x: MlpParams       # (x, fourier(t)) -> R^d
    net_t: MlpParams       # fourier(t) -> R^d, gates the score
    net_scale: MlpParams   # fourier(t) -> R, reweights the whole field
    fourier: FourierFeatures
    dim: int


@dataclass
class OdeConfig:
    """Fixed-step integrator settings and divergence estimator choice."""

    n_steps: int = 32
    divergence: str = "exact"   # "exact" | "hutchinson"
    n_probes: int = 1

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.divergence not in ("exact", "hutchinson"):
            raise ValueError(f"unknown divergence mode {self.divergence!r}")
        if self.divergence == "hutchinson" and self.n_probes < 1:
            raise ValueError("hutchinson needs n_probes >= 1")


@dataclass
class AugmentedState:
    """Position plus accumulated log-density change along the flow ODE."""

    x: np.ndarray
    delta_logp: np.ndarray


def flow_init(rng: np.random.Generator, dim: int, hidden: int = 128,
              fourier: FourierFeatures = None) -> FlowParams:
    """Fresh flow; net_x's last layer is zeroed so the field starts small."""
    ff = fourier or FourierFeatures()
    nf = ff.n_features
    return FlowParams(
        net_x=nets.mlp_init(rng, (dim + nf, hidden, hidden, dim), zero_last=True),
        net_t=nets.mlp_init(rng, (nf, hidden, hidden, dim)),
        net_scale=nets.mlp_init(rng, (nf, hidden, hidden, 1)),
        fourier=ff,
        dim=dim,
    )


def flow_zero(dim: int, hidden: int = 8, fourier: FourierFeatures = None) -> FlowParams:
    """All-zero networks: the vector field is identically zero."""
    ff = fourier or FourierFeatures()
    nf = ff.n_features
    return FlowParams(
        net_x=nets.mlp_zeros((dim + nf, hidden, hidden, dim)),
        net_t=nets.mlp_zeros((nf, hidden, hidden, dim)),
        net_scale=nets.mlp_zeros((nf, hidden, hidden, 1)),
        fourier=ff,
        dim=dim,
    )


def flow_to_vector(params: FlowParams) -> np.ndarray:
    return nets.pack_arrays(params.net_x.arrays() + params.net_t.arrays()
                            + params.net_scale.arrays())


def vector_to_flow(vector: np.ndarray, template: FlowParams) -> FlowParams:
    nx = nets.mlp_to_vector(template.net_x).size
    nt = nets.mlp_to_vector(template.net_t).size
    return FlowParams(
        net_x=nets.vector_to_mlp(vector[:nx], template.net_x),
        net_t=nets.vector_to_mlp(vector[nx:nx + nt], template.net_t),
        net_scale=nets.vector_to_mlp(vector[nx + nt:], template.net_scale),
        fourier=template.fourier,
        dim=template.dim,
    )


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
    ff = np.atleast_2d(nets.fourier_embed(t, params.fourier))
    if t.ndim and ff.shape[0] != n:
        raise ShapeMismatch(f"{ff.shape[0]} time rows for {n} positions")
    score = np.atleast_2d(target.grad_log_density(xb))
    ffb = np.broadcast_to(ff, (n, ff.shape[1]))
    nx, acts_x = nets.mlp_forward_cache(params.net_x, np.concatenate([xb, ffb], axis=1))
    gate, acts_t = nets.mlp_forward_cache(params.net_t, ff)
    u, acts_scale = nets.mlp_forward_cache(params.net_scale, ff)
    scale = SCALE_FLOOR + softplus(u)
    v = (nx + gate * score) / scale
    return FieldEval(v, score, gate, u, scale, acts_x, acts_t, acts_scale)


def _checked_field(params, target, t, xb) -> FieldEval:
    fe = field(params, target, t, xb)
    if not np.all(np.isfinite(fe.score)):
        raise NonFiniteScore("target gradient is not finite")
    return fe


def vector_field(params: FlowParams, target: TargetDensity, t, x) -> np.ndarray:
    """Evaluate v(t, x); x is (d,) or (N, d), t scalar or per-row."""
    x = np.asarray(x, dtype=float)
    v = _checked_field(params, target, t, np.atleast_2d(x)).v
    return v[0] if x.ndim == 1 else v


def _divergence_rows(params, target, xb, fe: FieldEval, cfg: OdeConfig, rng):
    """Row-wise divergence of the evaluated field fe at positions xb."""
    d = xb.shape[1]
    if cfg.divergence == "exact":
        div = nets.mlp_input_jacobian_trace(params.net_x, fe.acts_x, d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            div = div + fe.gate[:, i] * target.hvp_log_density(xb, e)[:, i]
        return div / fe.scale[:, 0]
    if rng is None:
        raise ValueError("hutchinson divergence needs an rng")
    acc = np.zeros(xb.shape[0])
    tangent = np.zeros_like(fe.acts_x[0])
    for _ in range(cfg.n_probes):
        eps = rng.integers(0, 2, size=xb.shape) * 2.0 - 1.0
        tangent[:, :d] = eps
        jvp = nets.mlp_input_jvp(params.net_x, fe.acts_x, tangent)
        hvp = target.hvp_log_density(xb, eps)
        acc += np.sum(eps * (jvp + fe.gate * hvp), axis=1)
    return acc / (cfg.n_probes * fe.scale[:, 0])


def divergence(params: FlowParams, target: TargetDensity, t, x,
               cfg: OdeConfig, rng: np.random.Generator = None):
    """Divergence of the vector field at (t, x): exact trace or Hutchinson."""
    x = np.asarray(x, dtype=float)
    xb = np.atleast_2d(x)
    fe = _checked_field(params, target, t, xb)
    div = _divergence_rows(params, target, xb, fe, cfg, rng)
    return div[0] if x.ndim == 1 else div


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


def _flow_field(params, target, cfg, rng):
    """Row-tolerant field closure: broken rows carry NaN, healthy rows run on."""
    def rk4_field(t, xb):
        ok = np.all(np.isfinite(xb), axis=1)
        safe = xb if ok.all() else np.where(ok[:, None], xb, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            fe = field(params, target, t, safe)
            v = fe.v
            div = _divergence_rows(params, target, safe, fe, cfg, rng)
        ok &= np.all(np.isfinite(v), axis=1) & np.isfinite(div)
        if not ok.all():
            v = np.where(ok[:, None], v, np.nan)
            div = np.where(ok, div, np.nan)
        return v, div
    return rk4_field


def integrate_rows(params: FlowParams, target: TargetDensity, xb: np.ndarray,
                   cfg: OdeConfig, rng: np.random.Generator, forward: bool):
    """Batch integration that never raises: returns (x, dlp, finite_mask).

    Used by the Metropolis kernels, which treat a blown-up row as an
    automatic rejection rather than a fatal error.
    """
    t0, t1 = (0.0, 1.0) if forward else (1.0, 0.0)
    x, dlp = rk4_integrate(_flow_field(params, target, cfg, rng),
                           np.atleast_2d(xb), t0, t1, cfg.n_steps)
    ok = np.all(np.isfinite(x), axis=1) & np.isfinite(dlp)
    return x, dlp, ok


def _run(params, target, state, cfg, rng, forward: bool) -> AugmentedState:
    x = np.asarray(state.x, dtype=float)
    single = x.ndim == 1
    if np.any(np.asarray(state.delta_logp) != 0.0):
        raise ValueError("delta_logp must be zero at the start of an integration")
    out, dlp, ok = integrate_rows(params, target, np.atleast_2d(x), cfg, rng, forward)
    if not ok.all():
        bad = int(np.where(~ok)[0][0])
        raise NonFiniteState(f"flow integration blew up (row {bad})")
    if single:
        return AugmentedState(out[0], dlp[0])
    return AugmentedState(out, dlp)


def integrate_forward(params: FlowParams, target: TargetDensity,
                      state: AugmentedState, cfg: OdeConfig,
                      rng: np.random.Generator = None) -> AugmentedState:
    """Reference -> target direction (t: 0 -> 1); dlp = -int_0^1 div dt."""
    return _run(params, target, state, cfg, rng, True)


def integrate_backward(params: FlowParams, target: TargetDensity,
                       state: AugmentedState, cfg: OdeConfig,
                       rng: np.random.Generator = None) -> AugmentedState:
    """Target -> reference direction (t: 1 -> 0); dlp = +int_0^1 div dt."""
    return _run(params, target, state, cfg, rng, False)


def pullback_log_density(params: FlowParams, target: TargetDensity, x,
                         cfg: OdeConfig, rng: np.random.Generator = None):
    """Log-density of the target pulled back to reference space.

    x lives in reference space; the value is
    log pi(phi_1(x)) + int_0^1 div v dt along the trajectory through x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    state = integrate_forward(params, target, AugmentedState(np.atleast_2d(x), 0.0),
                              cfg, rng)
    out = np.atleast_1d(target.log_density(state.x)) - state.delta_logp
    return out[0] if single else out


def push_samples(params: FlowParams, target: TargetDensity, x0_batch,
                 cfg: OdeConfig, rng: np.random.Generator = None,
                 workers: int = 1):
    """Integrate a batch of reference draws forward; returns (samples, dlp).

    Chunks fan out across a thread pool when workers > 1; results are
    reassembled by chunk index, so the output is identical for any worker
    count.  Hutchinson probes, when used, are drawn up front from the
    caller's rng in a fixed order for the same reason.
    """
    x0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    if x0.shape[0] == 0:
        return x0.copy(), np.zeros(0)
    if not np.all(np.isfinite(x0)):
        bad = int(np.where(~np.all(np.isfinite(x0), axis=1))[0][0])
        raise NonFiniteState(f"input row {bad} is not finite")

    chunks = _split_rows(x0.shape[0])
    probe_rngs = [None] * len(chunks)
    if cfg.divergence == "hutchinson":
        if rng is None:
            raise ValueError("hutchinson divergence needs an rng")
        seeds = rng.integers(0, 2 ** 63 - 1, size=len(chunks))
        probe_rngs = [np.random.Generator(np.random.Philox(int(s))) for s in seeds]

    def run_chunk(i):
        lo, hi = chunks[i]
        return integrate_rows(params, target, x0[lo:hi], cfg, probe_rngs[i], True)

    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, range(len(chunks))))
    else:
        results = [run_chunk(i) for i in range(len(chunks))]

    samples = np.concatenate([r[0] for r in results], axis=0)
    dlp = np.concatenate([r[1] for r in results])
    ok = np.concatenate([r[2] for r in results])
    if not ok.all():
        bad = int(np.where(~ok)[0][0])
        raise NonFiniteState(f"flow integration blew up (row {bad})")
    return samples, dlp


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
    meta = {
        "kind": "flow",
        "dim": params.dim,
        "n_frequencies": params.fourier.n_frequencies,
        "base_frequency": params.fourier.base_frequency,
        "frequency_spacing": FREQUENCY_SPACING,
    }
    nets.save_arrays(path, meta, named)


def load_flow(path) -> FlowParams:
    meta, arrays = nets.load_arrays(path)
    if meta.get("kind") != "flow":
        raise ValueError(f"{path} is not a flow checkpoint")
    if meta.get("frequency_spacing") != FREQUENCY_SPACING:
        # Same shapes, different vector field: refuse rather than misread.
        raise ValueError(
            f"{path} has time-feature spacing "
            f"{meta.get('frequency_spacing')!r}, expected {FREQUENCY_SPACING!r}")
    ff = FourierFeatures(meta["n_frequencies"], meta["base_frequency"])

    def collect(prefix):
        ws, bs, i = [], [], 0
        while f"{prefix}.w{i}" in arrays:
            ws.append(arrays[f"{prefix}.w{i}"])
            bs.append(arrays[f"{prefix}.b{i}"])
            i += 1
        return MlpParams(ws, bs)

    return FlowParams(collect("net_x"), collect("net_t"), collect("net_scale"),
                      ff, int(meta["dim"]))
