import pickle

import numpy as np
import pytest

from orchestra import autodiff as ad
from orchestra.autodiff import Tensor, softmax_np
from orchestra.errors import ContractError, DimensionError
from orchestra.nn import Adam, Mlp, sample_categorical_batch
from orchestra.pnn import PnnStack
from orchestra.ppo import PpoConfig, policy_loss

from conftest import assert_parameters_stay_aligned, tap


def sample_categorical(probs, rng) -> int:
    """One draw from a single probability vector via the batched sampler."""
    return int(sample_categorical_batch(np.asarray(probs)[None, :], rng)[0])


def test_zero_weights_zero_biases_map_to_zero(rng):
    net = Mlp([4, 3, 2], rng)
    net.set_arrays([np.zeros_like(p.data) for p in net.parameters])
    out = net.forward_np(rng.normal(size=(5, 4)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_two_layer_forward_matches_hand_rolled_oracle(rng):
    net = Mlp([5, 4, 3], rng)
    x = rng.normal(size=(6, 5))
    w0, b0 = net.weights[0].data, net.biases[0].data
    w1, b1 = net.weights[1].data, net.biases[1].data
    oracle = np.tanh(x @ w0 + b0) @ w1 + b1  # straight-line recomputation
    assert np.abs(net.forward_np(x) - oracle).max() < 1e-12


def test_shape_mismatch_names_offending_layer(rng):
    net = Mlp([5, 4, 3], rng)
    with pytest.raises(DimensionError, match="layer 0"):
        net.forward_np(rng.normal(size=(2, 7)))


@pytest.mark.parametrize("sizes", [[3, 3], [3]])
def test_a_network_needs_a_hidden_layer(rng, sizes):
    with pytest.raises(DimensionError, match="hidden layer"):
        Mlp(sizes, rng)


def test_softmax_uniform_and_direct_values():
    assert np.allclose(softmax_np(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)
    probs = softmax_np(np.array([1.0, 2.0, 3.0]))
    e = np.exp([1.0, 2.0, 3.0])
    assert np.abs(probs - e / e.sum()).max() < 1e-12
    with pytest.raises(ContractError):
        softmax_np(np.array([np.nan, 0.0]))


def test_sample_categorical_one_hot_and_determinism():
    one_hot = np.array([0.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(7)
    assert all(sample_categorical(one_hot, rng) == 2 for _ in range(20))
    seq1 = [sample_categorical(np.full(4, 0.25), np.random.default_rng(3))
            for _ in range(1)]
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    s1 = [sample_categorical(np.full(4, 0.25), r1) for _ in range(50)]
    s2 = [sample_categorical(np.full(4, 0.25), r2) for _ in range(50)]
    assert s1 == s2
    with pytest.raises(ContractError):
        sample_categorical(np.zeros(3), rng)


def test_sample_categorical_uniform_frequencies():
    rng = np.random.default_rng(11)
    draws = sample_categorical_batch(np.tile(np.full(4, 0.25), (100_000, 1)), rng)
    freqs = np.bincount(draws, minlength=4) / 100_000
    assert np.abs(freqs - 0.25).max() < 0.01


class _FixedDraws:
    """A generator stand-in whose random(n) returns n copies of one value."""

    def __init__(self, u):
        self.u = u
        self.calls = []

    def random(self, n):
        self.calls.append(n)
        return np.full(n, self.u)


def test_sample_categorical_draw_above_the_rounded_cdf_takes_the_last_action():
    top = np.nextafter(1.0, 0.0)
    p = np.full((1, 10), 0.1)
    assert np.cumsum(p / p.sum(axis=-1, keepdims=True))[-1] <= top  # rounds below 1
    rng = _FixedDraws(top)
    assert sample_categorical_batch(p, rng)[0] == 9
    assert rng.calls == [1]
    # in a batch, only the row whose cdf rounds below the draw falls through,
    # and trailing actions without probability are never taken
    batch = np.zeros((2, 13))
    batch[0, :10] = 0.1
    batch[1, :2] = 0.5
    assert sample_categorical_batch(batch, _FixedDraws(top)).tolist() == [9, 1]


def test_sample_categorical_below_the_last_cdf_value_takes_the_first_crossing():
    rng = np.random.default_rng(4)
    p = rng.random((2000, 8)) * (rng.random((2000, 8)) < 0.7)
    p[:, 2] += 0.01
    u = np.random.default_rng(5).random(2000)
    cdf = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    drawn = sample_categorical_batch(p, np.random.default_rng(5))
    assert np.array_equal(drawn, (u[:, None] < cdf).argmax(axis=-1))
    assert (p[np.arange(2000), drawn] > 0).all()


def test_adam_zero_gradient_leaves_parameters_unchanged(rng):
    net = Mlp([3, 4, 2], rng)
    before = net.get_arrays()
    opt = Adam(net.parameters)
    for p in net.parameters:
        p.grad = np.zeros_like(p.data)
    opt.step()
    for b, a in zip(before, net.get_arrays()):
        assert np.array_equal(b, a)


def test_adam_descent_direction(rng):
    p = Tensor(np.zeros(3))
    opt = Adam([p], learning_rate=0.01)
    g = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        p.grad = g.copy()
        opt.step()
    assert (np.sign(p.data) == -np.sign(g)).all()


def test_adam_single_step_matches_formula(rng):
    p = Tensor(np.array([1.0, 2.0]))
    lr, b1, b2, eps = 0.0005, 0.9, 0.999, 1e-8
    opt = Adam([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    g = np.array([0.3, -0.7])
    p.grad = g.copy()
    opt.step()
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = np.array([1.0, 2.0]) - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.abs(p.data - expected).max() < 1e-12


# --- Adam's row index -------------------------------------------------------------

_SHAPES = [(40, 30), (30,), (30, 4)]     # a first layer, its bias and a dense layer
_LR, _B1, _B2, _EPS = 1e-3, 0.9, 0.999, 1e-8


def _dense_adam_step(p, g, m, v, t):
    """The 13 in-place ops of a dense Adam step at step count t, over every
    element: the reference the row index must give bit for bit."""
    bc1, bc2 = 1.0 - _B1**t, 1.0 - _B2**t
    m *= _B1
    m += (1.0 - _B1) * g
    g2 = (1.0 - _B2) * g
    g2 *= g
    v *= _B2
    v += g2
    step = m / bc1
    step *= _LR
    denom = np.divide(v, bc2, out=g2)
    np.sqrt(denom, out=denom)
    denom += _EPS
    step /= denom
    np.subtract(p, step, out=p)


def _live_rows(t: int) -> list[int]:
    """Rows of the sparse weight with a gradient at step t: rows 0-1
    always, row 7 only at step 3, rows 10-19 from step 6, row 30 from step 12."""
    return [0, 1] + [7] * (t == 3) + list(range(10, 20)) * (t >= 6) + [30] * (t >= 12)


def _gradients(t: int, rng) -> list[np.ndarray]:
    """Step t's gradients: the sparse weight's live rows, -0.0 in its row 39,
    and a dense bias and 2-D weight."""
    sparse = np.zeros(_SHAPES[0])
    sparse[_live_rows(t)] = rng.normal(size=(len(_live_rows(t)), _SHAPES[0][1]))
    sparse[39] = -0.0
    return [sparse] + [rng.normal(size=s) for s in _SHAPES[1:]]


def _adam_case(rng):
    """Parameters with -0.0 entries (in row 39, which never has a gradient,
    and in row 7, which has one once), their Adam and a dense reference."""
    data = [rng.normal(size=s) for s in _SHAPES]
    data[0][39] = -0.0
    data[0][7, :5] = -0.0
    params = [Tensor(d) for d in data]
    ref = [[p.data.copy() for p in params], [np.zeros(s) for s in _SHAPES],
           [np.zeros(s) for s in _SHAPES]]
    return params, Adam(params, _LR, _B1, _B2, _EPS), ref


def _step_both(opt, params, ref, t, rng):
    for p, (data, m, v), g in zip(params, zip(*ref), _gradients(t, rng)):
        p.grad = g.copy()
        _dense_adam_step(data, g, m, v, t)
    opt.step()


def _assert_matches_dense(opt, params, ref):
    """Parameters bit-identical to the reference, and each index's moments
    the reference's rows, every other row of whose is zero."""
    for i, (p, (data, m, v)) in enumerate(zip(params, zip(*ref))):
        assert p.data.tobytes() == data.tobytes()
        rows = opt.rows[i]
        if rows is None:
            assert opt.m[i].tobytes() == m.tobytes() and opt.v[i].tobytes() == v.tobytes()
            continue
        assert list(rows) == sorted(rows) and opt.m[i].shape == (len(rows),) + m.shape[1:]
        assert opt.m[i].tobytes() == m[rows].tobytes()
        assert opt.v[i].tobytes() == v[rows].tobytes()
        outside = np.setdiff1d(np.arange(len(m)), rows)
        assert not m[outside].any() and not v[outside].any()


def test_adam_row_index_matches_the_dense_step_bit_for_bit():
    rng = np.random.default_rng(3)
    params, opt, ref = _adam_case(rng)
    assert [None if r is None else len(r) for r in opt.rows] == [0, None, 0]
    seen = set()
    for t in range(1, 21):
        _step_both(opt, params, ref, t, rng)
        seen.update(_live_rows(t))
        _assert_matches_dense(opt, params, ref)
        # rows join late and stay, a row with one gradient included
        assert opt.rows[0].tolist() == sorted(seen)
        # the dense 2-D weight holds every row after its first step
        assert opt.rows[2] is None
    assert 7 in opt.rows[0] and 39 not in opt.rows[0]
    assert np.signbit(params[0].data[39]).all()        # -0.0 stays -0.0
    assert params[0].data[7, :5].any()


def test_adam_row_index_becomes_whole_once_every_row_had_a_gradient():
    p = Tensor(np.ones((3, 2)))
    opt = Adam([p], _LR)
    for row, index in ((1, [1]), (1, [1]), (0, [0, 1]), (2, None)):
        p.grad = np.zeros((3, 2))
        p.grad[row] = 1.0
        opt.step()
        assert (opt.rows[0] if index is None else opt.rows[0].tolist()) == index
    assert opt.m[0].shape == (3, 2) and opt.m[0].all()


def test_adam_with_a_row_index_pickles_and_steps_on():
    rng = np.random.default_rng(4)
    params, opt, ref = _adam_case(rng)
    for t in range(1, 8):
        _step_both(opt, params, ref, t, rng)
    copy = pickle.loads(pickle.dumps(opt))
    assert [None if r is None else r.tolist() for r in copy.rows] == \
           [None if r is None else r.tolist() for r in opt.rows]
    for t in range(8, 16):
        _step_both(copy, copy.params, ref, t, rng)
        _assert_matches_dense(copy, copy.params, ref)


def test_an_adam_pickled_with_whole_moments_compacts_on_load_and_steps_on():
    # an Adam pickled before the row index: whole m and v, and no rows
    rng = np.random.default_rng(5)
    params, _, ref = _adam_case(rng)
    for t in range(1, 8):
        for p, (data, m, v), g in zip(params, zip(*ref), _gradients(t, rng)):
            _dense_adam_step(data, g, m, v, t)
    earlier = Adam.__new__(Adam)
    vars(earlier).update(params=[Tensor(d) for d in ref[0]], learning_rate=_LR, beta1=_B1,
                         beta2=_B2, epsilon=_EPS, step_count=7,
                         m=[m.copy() for m in ref[1]], v=[v.copy() for v in ref[2]])
    state = pickle.dumps(earlier)
    assert b"rows" not in state
    opt = pickle.loads(state)
    assert opt.rows[0].tolist() == [0, 1, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert opt.rows[1:] == [None, None]
    _assert_matches_dense(opt, opt.params, ref)
    for t in range(8, 16):
        _step_both(opt, opt.params, ref, t, rng)
        _assert_matches_dense(opt, opt.params, ref)
    assert 30 in opt.rows[0]


def test_parameter_blob_round_trip(tmp_path, rng):
    # the checkpoint bundle stores an actor as get_arrays() in an .npz
    net = Mlp([6, 5, 4], rng)
    np.savez(tmp_path / "net.npz", *net.get_arrays())
    twin = Mlp([6, 5, 4], np.random.default_rng(999))
    with np.load(tmp_path / "net.npz") as arrays:
        twin.set_arrays([arrays[f"arr_{i}"] for i in range(len(twin.parameters))])
    assert [p.data.tobytes() for p in twin.parameters] == \
           [p.data.tobytes() for p in net.parameters]
    x = rng.normal(size=(2, 6))
    assert np.array_equal(net.forward_np(x), twin.forward_np(x))


# --- sparse first layer ---------------------------------------------------------


def _plain_forward(net, x):
    """Every layer as the dense product ``h @ W + b``."""
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.data + b.data
        if i < len(net.weights) - 1:
            h = np.tanh(h)
    return h


def _binary_batch(rng, rows, width=60, density=0.05):
    """Binary rows like MiniProc observations; row 0 is all zero."""
    x = (rng.random((rows, width)) < density).astype(np.float64)
    x[0] = 0.0
    return x


@pytest.mark.parametrize("rows", [1, 16, 512])
def test_forward_np_matches_forward_on_binary_batches(rows):
    rng = np.random.default_rng(rows)
    net = Mlp([60, 16, 16, 5], rng)
    empty = np.zeros((rows, 60))
    for x in (_binary_batch(rng, rows), empty):
        out, hidden = net.forward_np(x), net.hidden_np(x)
        g_out, g_hidden = net.forward(x), net.hidden(x)
        assert np.array_equal(out, g_out.data)
        assert np.array_equal(hidden, g_hidden.data)
        # the output layer over the hidden layer, as a node and in numpy
        assert np.array_equal(out, net.head(hidden))
        assert np.array_equal(out, net.head(g_hidden).data)
    # a batch that sets no cell multiplies no column: its output is the biases'
    assert np.array_equal(net.forward_np(empty), _plain_forward(net, empty))


def test_dense_input_gives_the_plain_product(rng):
    net = Mlp([5, 4, 3], rng)
    x = rng.normal(size=(6, 5))
    assert np.array_equal(net.forward_np(x), _plain_forward(net, x))
    assert np.array_equal(net.forward(x).data, _plain_forward(net, x))


def test_binary_input_of_any_dtype_gives_the_same_bits(rng):
    net = Mlp([60, 16, 16, 5], rng)
    x = _binary_batch(rng, 32)
    want = net.forward_np(x)
    for dtype in (np.uint8, bool, np.int64):
        assert net.forward_np(x.astype(dtype)).tobytes() == want.tobytes()
        assert net.forward(x.astype(dtype)).data.tobytes() == want.tobytes()


def _trained_arrays(net, x) -> list:
    """The buffers and gradients of one forward and backward of ``net``."""
    ad.zero_grads(net.parameters)
    ad.backward(net.forward(x), np.ones((len(x), net.sizes[-1])))
    return [*vars(net)["_buffers"].values(), *(p.grad for p in net.parameters)]


def test_no_two_networks_share_a_buffer(rng):
    net = Mlp([60, 16, 16, 5], rng)
    x = _binary_batch(rng, 32)
    state = pickle.dumps(net)
    _trained_arrays(net, x)
    assert pickle.dumps(net) == state        # the buffers are never pickled
    nets = [net, net.clone(), pickle.loads(state), Mlp([60, 16, 16, 5], rng)]
    assert not any("_buffers" in vars(other) for other in nets[1:])
    arrays = [_trained_arrays(n, x) for n in nets]
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


def test_an_unpickled_network_pickles_as_its_clone(rng):
    # pickle's default restore interns the attribute names, so an unpickled
    # network pickles to its clone's bytes
    net = Mlp([60, 16, 16, 5], rng)
    assert pickle.dumps([net, pickle.loads(pickle.dumps(net))]) == pickle.dumps([net, net.clone()])


def test_a_network_reuses_its_buffers_and_gradients(rng):
    net = Mlp([60, 16, 16, 5], rng)
    first = _trained_arrays(net, _binary_batch(rng, 32))
    again = _trained_arrays(net, _binary_batch(rng, 32))
    assert all(np.shares_memory(a, b) for a, b in zip(first, again))
    net.free_buffers()
    assert all(p._grad_array is None for p in net.parameters)
    fresh = _trained_arrays(net, _binary_batch(rng, 32))
    assert not any(np.shares_memory(a, b) for a in first for b in fresh)


# --- the stack node -----------------------------------------------------------------


def _reference_gradients(net, x, g, h=None) -> list:
    """The gradients of net's parameters, in ``parameters`` order, for the
    gradient g at its output, layer by layer in plain numpy: the bias's sum,
    the product's transposes and the tanh derivative. The output layer reads
    ``h`` if given, else net's last hidden layer. The first layer multiplies
    ``x[:, cols]`` by ``W0[cols]``, and its weight gradient fills those rows
    of a zero array."""
    cols = np.flatnonzero(x.any(axis=0))
    acts = [x[:, cols]]
    for i in range(len(net.weights) - 1):
        w = net.weights[i].data
        acts.append(np.tanh(acts[-1] @ (w[cols] if i == 0 else w) + net.biases[i].data))
    grads = [(acts[-1] if h is None else h).T @ g, g.sum(axis=0)]
    g = g @ net.weights[-1].data.T
    for i in reversed(range(len(acts) - 1)):
        g = g * (1.0 - acts[i + 1] * acts[i + 1])
        grads[:0] = [acts[i].T @ g, g.sum(axis=0)]
        g = g @ (net.weights[i].data[cols] if i == 0 else net.weights[i].data).T
    dense = np.zeros_like(net.weights[0].data)
    dense[cols] += grads[0]
    return [dense] + grads[1:]


def _surrogate(out, rng):
    """The policy loss over ``out`` for random actions, log-probs and advantages."""
    rows, n = out.data.shape
    return policy_loss(out, rng.integers(0, n, size=rows), rng.normal(size=rows) - np.log(n),
                       rng.normal(size=rows), PpoConfig())[0]


@pytest.mark.parametrize("rows", [1, 16, 512])
def test_forward_gradients_equal_a_per_layer_graph(rows):
    rng = np.random.default_rng(rows)
    net = Mlp([60, 16, 16, 5], rng)
    for x in (_binary_batch(rng, rows), np.zeros((rows, 60)), rng.normal(size=(rows, 60))):
        ad.zero_grads(net.parameters)
        out, seen = tap(net.forward(x))
        ad.backward(_surrogate(out, rng))
        want = _reference_gradients(net, x, seen[0])
        for p, g in zip(net.parameters, want, strict=True):
            assert np.array_equal(p.grad, g)


def test_pnn_graph_gradients_equal_a_per_layer_graph():
    # column c reads columns a and b through two adapters
    rng = np.random.default_rng(5)
    stack = PnnStack(60, 5, 16, 1e-3, rng)
    for task in "abc":
        stack.add_column(task)
    adapters = [stack.adapters[("actor", src, 2)] for src in (0, 1)]
    for adapter in adapters:
        adapter.weight.data = rng.normal(size=(16, 16))
        adapter.bias.data = rng.normal(size=16)
    x = _binary_batch(rng, 64)
    out, seen = tap(stack.net("c", "actor").forward(x))
    ad.backward(_surrogate(out, rng))

    actor = stack.columns[2].actor
    h = actor.hidden_np(x)
    feats = [np.maximum(stack.columns[src].actor.hidden_np(x), 0.0) for src in (0, 1)]
    for f, adapter in zip(feats, adapters):
        h = h + (f @ adapter.weight.data + adapter.bias.data)
    want = _reference_gradients(actor, x, seen[0], h)
    g = seen[0] @ actor.weights[-1].data.T
    for f in feats:
        want += [f.T @ g, g.sum(axis=0)]
    params = actor.parameters + [p for adapter in adapters for p in adapter.parameters]
    for p, g in zip(params, want, strict=True):
        assert np.array_equal(p.grad, g)
    assert all(p.grad is None for c in stack.columns[:2] for p in c.actor.parameters)


def test_forward_refuses_a_node_as_input(rng):
    # a network's input is an array: another network's output node would cut
    # the chain, so numpy refuses to read it as one
    net = Mlp([5, 4, 3], rng)
    for forward in (net.forward, net.hidden):
        with pytest.raises(ValueError):
            forward(Mlp([3, 4, 5], rng).forward(rng.normal(size=(2, 3))))


def test_numpy_output_layer_refuses_a_non_finite_output(rng):
    net = Mlp([5, 4, 3], rng)
    net.biases[-1].data[1] = np.nan
    x = rng.normal(size=(2, 5))
    with pytest.raises(ContractError, match="non-finite"):
        net.forward_np(x)
    with pytest.raises(ContractError, match="non-finite"):
        net.head(net.hidden_np(x))
    # as a node, the update's loss check sees it
    assert np.isnan(net.forward(x).data[:, 1]).all()


def test_parameters_stay_aligned_after_construction_clone_and_set_arrays():
    rng = np.random.default_rng(6)
    net = Mlp([405, 256, 256, 8], rng)
    assert_parameters_stay_aligned(net.parameters)
    assert_parameters_stay_aligned(net.clone().parameters)
    # set_arrays copies into the aligned arrays, wherever its own arrays start
    arrays = [np.concatenate([[0.0], a.ravel()])[1:].reshape(a.shape)
              for a in Mlp([405, 256, 256, 8], rng).get_arrays()]
    data = [p.data for p in net.parameters]
    net.set_arrays(arrays)
    assert all(p.data is d for p, d in zip(net.parameters, data))
    assert all(np.array_equal(p.data, a) for p, a in zip(net.parameters, arrays))
    assert_parameters_stay_aligned(net.parameters)
    for small in (Mlp([4, 3, 2], rng), Mlp([3, 1, 3], rng)):
        assert_parameters_stay_aligned(small.parameters)


def test_pnn_adapters_stay_aligned():
    stack = PnnStack(20, 4, 8, 1e-3, np.random.default_rng(2))
    for task in ("a", "b", "c"):
        stack.add_column(task)
    adapters = [p for adp in stack.adapters.values() for p in adp.parameters]
    assert len(adapters) == 12
    assert_parameters_stay_aligned(adapters)
    assert_parameters_stay_aligned(stack.columns[2].actor.parameters)


def test_unpickled_parameters_are_aligned_copies():
    net = Mlp([10, 7, 3], np.random.default_rng(1))
    restored = pickle.loads(pickle.dumps(net))
    for p, q in zip(net.parameters, restored.parameters):
        assert np.array_equal(p.data, q.data) and q.grad is None
    assert_parameters_stay_aligned(restored.parameters)


def test_a_parameter_pickles_as_a_leaf_of_the_older_general_graph():
    # (data, True) under orchestra.autodiff.Tensor, as before the chains, so
    # saved run state keeps its bytes and older run directories load
    p = Tensor(np.arange(3.0))
    _, (cls,), state, *_ = p.__reduce_ex__(4)
    assert (cls.__module__, cls.__qualname__) == ("orchestra.autodiff", "Tensor")
    assert state[0] is p.data and state[1] is True and len(state) == 2
