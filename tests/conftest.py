import json
import math

import numpy as np
import pytest
from hypothesis import settings

from mfm import nets, targets

# Derandomized examples and no example database: every run checks the
# same cases, and no failing example is saved for replay.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240517))


@pytest.fixture
def forward_passes(monkeypatch):
    """Records (network, rows) for every nets.mlp_forward_cache call."""
    calls = []
    inner = nets.mlp_forward_cache

    def counted(params, x, out=None):
        calls.append((params, x.shape[0]))
        return inner(params, x, out)

    monkeypatch.setattr(nets, "mlp_forward_cache", counted)
    return calls


def finite_diff_grad(f, x, step=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def richardson_grad(f, x, step=1e-4):
    """Fourth-order finite differences (Richardson-extrapolated central)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))

        def d(hh):
            xp, xm = x.copy(), x.copy()
            xp[i] += hh
            xm[i] -= hh
            return (f(xp) - f(xm)) / (2.0 * hh)

        g[i] = (4.0 * d(h / 2.0) - d(h)) / 3.0
    return g


def while_running(monkeypatch, *points):
    """A list that is non-empty exactly while one of the patched (module,
    name) functions runs: lets a counting wrapper skip nested calls."""
    active = []

    def flagged(inner):
        def wrapper(*args):
            active.append(True)
            try:
                return inner(*args)
            finally:
                active.pop()
        return wrapper

    for module, name in points:
        monkeypatch.setattr(module, name, flagged(getattr(module, name)))
    return active


def fused(log_density, grad_log_density):
    """A TargetDensity.value_and_grad oracle from a value and a gradient function."""
    return lambda x: (log_density(x), grad_log_density(x))


def gaussian(mean, scale):
    """Isotropic Gaussian N(mean, scale^2 I) as a TargetDensity, with an exact
    sampler: a target of known normalizer and moments for the tests."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    dim = mean.size
    var = float(scale) ** 2
    log_norm = -0.5 * dim * (targets.LOG_2PI + np.log(var))

    def value_and_grad(xb):
        diff = xb - mean
        return log_norm - 0.5 * np.sum(diff ** 2, axis=-1) / var, -diff / var

    def hvp_log_density(xb, v):
        return -np.broadcast_to(v, xb.shape) / var

    def sampler(rng, n):
        return mean + scale * rng.standard_normal((n, dim))

    return targets.TargetDensity(dim, value_and_grad, hvp_log_density,
                                 sampler=sampler, name="gaussian")


def textbook_adam(m, v, k, state, params, gradient):
    """The Adam update with full-size temporaries, at (post-increment) step k.

    Returns new (params, m, v) arrays and writes none of its arguments: the
    out-of-place oracle that the blocked, in-place nets.adam_step reproduces
    bit for bit.
    """
    b1, b2 = nets.ADAM_BETA1, nets.ADAM_BETA2
    lr = state.step_size * max(0.0, 1.0 - k / state.total_steps)
    m = b1 * m + (1.0 - b1) * gradient
    v = b2 * v + (1.0 - b2) * gradient ** 2
    m_hat = m / (1.0 - b1 ** k)
    v_hat = v / (1.0 - b2 ** k)
    return params - lr * m_hat / (np.sqrt(v_hat) + nets.ADAM_EPS), m, v


def pack_arrays(arrays, dtype=np.float64):
    """One new flat vector of dtype holding arrays raveled, in order.

    flow_init drew every layer in float64 and packed them with this before
    it drew into the flat vector itself: the oracle of that path.
    """
    return np.concatenate([np.ravel(a) for a in arrays], dtype=dtype)


def gaussian_with_overflow(threshold):
    """Standard normal in 2-d whose gradient overflows to inf where x_0 > threshold."""
    def grad(x):
        with np.errstate(over="ignore"):
            return -x * np.exp(np.where(x[:, :1] > threshold, 1e3, 0.0))
    return targets.TargetDensity(
        2, fused(lambda x: -0.5 * np.sum(x ** 2, axis=-1), grad),
        lambda x, v: -np.broadcast_to(v, x.shape))


# save_flow's header line for flow_zero(2, hidden=3) before net_t and
# net_scale were merged into one time network: the layout of every flow
# checkpoint written until then
PRE_MERGE_CHECKPOINT_HEADER = (
    b'{"kind": "flow", "dim": 2, "n_frequencies": 8, '
    b'"base_frequency": 3.141592653589793, "frequency_spacing": "linear", '
    b'"arrays": {"names": ['
    b'"net_x.w0", "net_x.b0", "net_x.w1", "net_x.b1", "net_x.w2", "net_x.b2", '
    b'"net_t.w0", "net_t.b0", "net_t.w1", "net_t.b1", "net_t.w2", "net_t.b2", '
    b'"net_scale.w0", "net_scale.b0", "net_scale.w1", "net_scale.b1", '
    b'"net_scale.w2", "net_scale.b2"], '
    b'"shapes": [[18, 3], [3], [3, 3], [3], [3, 2], [2], '
    b'[16, 3], [3], [3, 3], [3], [3, 2], [2], '
    b'[16, 3], [3], [3, 3], [3], [3, 1], [1]]}}')


def rewrite_checkpoint(path, header=lambda h: h, data=lambda d: d):
    """Rewrite a flow checkpoint as header(its header) and data(its data).

    header maps the parsed JSON header line to the new one, any JSON value,
    or to bytes, written as they are; data maps the bytes after that line to
    the new ones.  A part whose map is not given is kept as it is.
    """
    line, blob = path.read_bytes().split(b"\n", 1)
    line = header(json.loads(line))
    if not isinstance(line, bytes):
        line = json.dumps(line).encode()
    path.write_bytes(line + b"\n" + data(blob))


def write_pre_merge_checkpoint(path, rng):
    """A d = 2 flow checkpoint in the pre-merge layout, with random weights."""
    shapes = json.loads(PRE_MERGE_CHECKPOINT_HEADER)["arrays"]["shapes"]
    weights = rng.standard_normal(sum(math.prod(shape) for shape in shapes))
    path.write_bytes(PRE_MERGE_CHECKPOINT_HEADER + b"\n" + weights.astype("<f8").tobytes())
