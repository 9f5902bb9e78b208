import ctypes

import numpy as np
import pytest

from orchestra import autodiff as ad
from orchestra.autodiff import ALIGN
from orchestra.blas import openblas_function, openblas_threads
from orchestra.nn import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def one_blas_thread():
    """The loaded OpenBLAS runs one thread during the test, as it does where
    the PPO update uses its worker thread."""
    threads = openblas_threads()
    setter = openblas_function("set_num_threads")
    if threads is None or setter is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    setter.argtypes = [ctypes.c_int]
    setter(1)
    yield
    setter(threads)


def fd_gradient(loss_fn, params, h: float = 1e-5):
    """Central finite differences of loss_fn() w.r.t. each of params (Tensors)."""
    grads = []
    for p in params:
        base = p.data.copy()
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            p.data = base.copy()
            p.data[idx] += h
            lp = loss_fn()
            p.data = base.copy()
            p.data[idx] -= h
            lm = loss_fn()
            g[idx] = (lp - lm) / (2 * h)
        p.data = base
        grads.append(g)
    return grads


def tap(node):
    """``node`` behind a node that first appends the gradient it gets to a
    list, and that list."""
    seen = []

    def back(g):
        seen.append(g)
        node.back(g)

    return ad.Node(node.data, back), seen


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.zeros_like(n) if a is None else a
        denom = np.maximum(np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_parameters_stay_aligned(params, seed: int = 0):
    """Every parameter starts on an ALIGN-byte boundary and an Adam step
    updates it where it is."""
    params = list(params)
    assert params
    assert all(p.data.ctypes.data % ALIGN == 0 for p in params)
    before = [(p.data, p.data.copy()) for p in params]
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = rng.normal(size=p.data.shape)
    Adam(params, 1e-2).step()
    for p, (data, old) in zip(params, before):
        assert p.data is data
        assert not np.array_equal(p.data, old)
