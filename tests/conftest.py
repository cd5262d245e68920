import numpy as np
import pytest

from mfm import nets


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240517))


@pytest.fixture
def forward_passes(monkeypatch):
    """Records (network, rows) for every nets.mlp_forward_cache call."""
    calls = []
    inner = nets.mlp_forward_cache

    def counted(params, x):
        calls.append((params, np.atleast_2d(x).shape[0]))
        return inner(params, x)

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
