import math
import zlib

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor, backward, grad_check, no_grad


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForward:
    def test_softmax_of_constant_vector_is_uniform(self):
        y = ad.softmax(t64([3.0, 3.0, 3.0, 3.0]))
        assert np.allclose(y.data, 0.25)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = ad.softmax(rand64(rng, 4, 7), axis=-1)
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        a = ad.log_softmax(t64(x), axis=-1).data
        b = np.log(ad.softmax(t64(x), axis=-1).data)
        assert np.allclose(a, b, atol=1e-5)

    def test_layer_norm_zero_mean_unit_variance(self):
        rng = np.random.default_rng(2)
        y = ad.layer_norm(rand64(rng, 6, 16)).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_zero_length_axis_rejected(self):
        with pytest.raises(ValueError):
            ad.layer_norm(Tensor(np.zeros((2, 0))))

    def test_cross_entropy_uniform_two_way(self):
        loss = ad.cross_entropy(t64([0.0, 0.0]), 0)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-6)

    def test_cross_entropy_batch_mean(self):
        logits = t64([[10.0, 0.0], [0.0, 10.0]])
        loss = ad.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-3)

    def test_gelu_reference_values(self):
        # tanh approximation at a few anchor points
        x = t64([-1.0, 0.0, 1.0, 2.0])
        y = ad.gelu(x).data
        assert y[1] == pytest.approx(0.0, abs=1e-12)
        assert y[2] == pytest.approx(0.841192, abs=1e-5)
        assert y[0] == pytest.approx(-0.158808, abs=1e-5)

    def test_masked_fill(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        y = ad.masked_fill(x, np.array([[True, False], [False, True]]), -1e9)
        assert y.data[0, 0] == -1e9
        assert y.data[0, 1] == 2.0

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(3)
        y = ad.l2_normalize(rand64(rng, 5, 8), axis=-1).data
        assert np.allclose((y ** 2).sum(axis=-1), 1.0, atol=1e-6)

    def test_l2_normalize_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ad.l2_normalize(t64([0.0, 0.0]))

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_matmul_requires_two_dims(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, 2.0, 3.0])
        loss = ad.sum_(ad.mul(x, x))
        backward(loss)
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ValueError):
            backward(ad.mul(x, x))

    def test_constant_graph_no_grads_no_error(self):
        x = Tensor(np.array([1.0, 2.0]))
        loss = ad.sum_(ad.mul(x, x))
        backward(loss)
        assert x.grad is None

    def test_grads_accumulate_across_backward_calls(self):
        x = t64([1.0, 2.0])
        for _ in range(2):
            backward(ad.sum_(ad.mul(x, x)))
        assert np.allclose(x.grad, [4.0, 8.0])

    def test_reused_tensor_accumulates_within_graph(self):
        x = t64([3.0])
        loss = ad.sum_(ad.add(ad.mul(x, x), x))  # x^2 + x
        backward(loss)
        assert np.allclose(x.grad, [7.0])

    def test_interior_grads_dropped_leaf_grads_unchanged(self):
        def graph():
            rng = np.random.default_rng(4)
            x, w = rand64(rng, 3, 4), rand64(rng, 4, 2)
            h = ad.gelu(ad.matmul(x, w))
            return ad.sum_(ad.add(ad.mul(h, h), h)), (x, w)

        loss, leaves = graph()
        interior = [n for n in ad.ComputationTape.build(loss).nodes
                    if n._backward_fn is not None]
        backward(loss)
        assert interior and all(n.grad is None for n in interior)

        # reference: the same walk keeping every interior grad
        ref_loss, ref_leaves = graph()
        ref_loss.grad = np.ones_like(ref_loss.data)
        for node in reversed(ad.ComputationTape.build(ref_loss).nodes):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node)
        for leaf, ref in zip(leaves, ref_leaves):
            assert np.array_equal(leaf.grad, ref.grad)

    def test_tape_visits_each_node_once(self):
        x = t64([1.0, 2.0])
        y = ad.mul(x, x)
        z = ad.add(y, y)
        tape = ad.ComputationTape.build(ad.sum_(z))
        assert len({id(n) for n in tape.nodes}) == len(tape.nodes)

    def test_no_grad_blocks_recording(self):
        x = t64([1.0, 2.0])
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()


class TestGradCheck:
    def test_quadratic_below_1e8(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, 4, 3)
        err = grad_check(lambda t: ad.sum_(ad.mul(t, t)), x, h=1e-5)
        assert err < 1e-8

    def test_matmul_mean_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        b = Tensor(rng.standard_normal((3, 4)))
        x = rand64(rng, 2, 3)
        err = grad_check(lambda t: ad.mean(ad.matmul(t, b)), x, h=1e-5)
        assert err < 1e-8

    def test_requires_float64(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: ad.sum_(t), x)

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, 10, 10)
        err = grad_check(lambda t: ad.sum_(ad.mul(t, t)), x, h=1e-5,
                         sample=7, rng=np.random.default_rng(0))
        assert err < 1e-8


OP_CASES = [
    ("add", lambda x, c: ad.sum_(ad.mul(ad.add(x, c), ad.add(x, c)))),
    ("sub", lambda x, c: ad.sum_(ad.mul(ad.sub(x, c), ad.sub(x, c)))),
    ("mul", lambda x, c: ad.sum_(ad.mul(x, c))),
    ("div", lambda x, c: ad.sum_(ad.div(x, ad.add(ad.mul(c, c), 1.0)))),
    ("neg", lambda x, c: ad.sum_(ad.mul(ad.neg(x), ad.neg(x)))),
    ("tanh", lambda x, c: ad.sum_(ad.tanh(x))),
    ("gelu", lambda x, c: ad.sum_(ad.gelu(x))),
    ("softmax", lambda x, c: ad.sum_(ad.mul(ad.softmax(x, axis=-1), c.data))),
    ("log_softmax", lambda x, c: ad.sum_(ad.mul(ad.log_softmax(x, axis=-1), c.data))),
    ("layer_norm", lambda x, c: ad.sum_(ad.mul(ad.layer_norm(x), c.data))),
    ("l2_normalize", lambda x, c: ad.sum_(ad.mul(ad.l2_normalize(x, axis=-1), c.data))),
    ("mean", lambda x, c: ad.mean(ad.mul(x, x))),
    ("sum_axis", lambda x, c: ad.sum_(ad.mul(ad.sum_(x, axis=0), ad.sum_(x, axis=0)))),
    ("mean_axis", lambda x, c: ad.sum_(ad.mul(ad.mean(x, axis=1), ad.mean(x, axis=1)))),
    ("transpose", lambda x, c: ad.sum_(ad.mul(ad.transpose(x), ad.transpose(x)))),
    ("reshape", lambda x, c: ad.sum_(ad.mul(ad.reshape(x, (x.size,)),
                                            ad.reshape(x, (x.size,))))),
    ("narrow", lambda x, c: ad.sum_(ad.mul(ad.narrow(x, 1, 1, 4),
                                           ad.narrow(x, 1, 1, 4)))),
    ("masked_fill", lambda x, c: ad.sum_(ad.mul(
        ad.masked_fill(x, np.arange(x.size).reshape(x.shape) % 3 == 0, 0.5),
        c.data))),
    ("matmul", lambda x, c: ad.sum_(ad.mul(ad.matmul(x, c), ad.matmul(x, c)))),
    ("concat", lambda x, c: ad.sum_(ad.mul(ad.concat([x, x], axis=1),
                                           ad.concat([x, x], axis=1)))),
    ("stack", lambda x, c: ad.sum_(ad.mul(ad.stack([x, x], axis=0),
                                          ad.stack([x, x], axis=0)))),
]


@pytest.mark.parametrize("name,fn", OP_CASES, ids=[n for n, _ in OP_CASES])
def test_every_op_passes_grad_check(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rand64(rng, 3, 5)
    if name == "matmul":
        c = Tensor(rng.standard_normal((5, 4)))
    else:
        c = Tensor(rng.standard_normal((3, 5)))
    err = grad_check(lambda t: fn(t, c), x, h=1e-5)
    assert err < 1e-6, f"{name}: max relative error {err}"


def test_index_select_grad():
    rng = np.random.default_rng(20)
    x = rand64(rng, 6, 4)
    idx = np.array([0, 2, 2, 5])
    c = Tensor(rng.standard_normal((4, 4)))
    err = grad_check(lambda t: ad.sum_(ad.mul(ad.index_select(t, idx), c.data)),
                     x, h=1e-5)
    assert err < 1e-6


def test_pick_grad():
    rng = np.random.default_rng(21)
    x = rand64(rng, 4, 6)
    idx = np.array([1, 1, 3, 5])
    err = grad_check(lambda t: ad.mean(ad.mul(ad.pick(t, idx), ad.pick(t, idx))),
                     x, h=1e-5)
    assert err < 1e-6


def test_cross_entropy_grad():
    rng = np.random.default_rng(22)
    x = rand64(rng, 5, 9)
    targets = np.array([0, 3, 8, 1, 1])
    err = grad_check(lambda t: ad.cross_entropy(t, targets), x, h=1e-5)
    assert err < 1e-6


def test_batched_matmul_grad():
    rng = np.random.default_rng(23)
    x = rand64(rng, 2, 3, 4)
    c = Tensor(rng.standard_normal((2, 4, 3)))
    err = grad_check(lambda t: ad.sum_(ad.matmul(t, c)), x, h=1e-5)
    assert err < 1e-6


def test_broadcast_add_grad():
    rng = np.random.default_rng(24)
    bias = rand64(rng, 5)
    x = Tensor(rng.standard_normal((3, 5)))
    err = grad_check(lambda b: ad.sum_(ad.mul(ad.add(x, b), ad.add(x, b))),
                     bias, h=1e-5)
    assert err < 1e-6


def test_determinism():
    rng = np.random.default_rng(26)
    data = rng.standard_normal((4, 4))

    def run():
        x = t64(data.copy())
        loss = ad.mean(ad.gelu(ad.matmul(x, x)))
        backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("reduce", [ad.sum_, ad.mean], ids=["sum_", "mean"])
def test_axis_reduction_of_1d_tensor_grad(reduce):
    rng = np.random.default_rng(27)
    x = rand64(rng, 4)
    err = grad_check(lambda t: ad.sum_(ad.mul(reduce(ad.mul(t, t), axis=0), t)),
                     x, h=1e-5)
    assert err < 1e-6


@pytest.mark.parametrize("axis", [(0, 1), (0, 2)], ids=["axes01", "axes02"])
def test_mean_over_tuple_axis(axis):
    rng = np.random.default_rng(28)
    x = rand64(rng, 2, 3, 4)
    out = ad.mean(x, axis=axis)
    assert np.array_equal(out.data, x.data.mean(axis=axis))
    err = grad_check(lambda t: ad.sum_(ad.mul(ad.mean(ad.mul(t, t), axis=axis),
                                              ad.mean(t, axis=axis))),
                     x, h=1e-5)
    assert err < 1e-6


class TestScalarDtype:
    def test_python_scalar_keeps_float32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        for out in (ad.add(x, 0.5), ad.sub(x, 0.5), ad.mul(x, 0.5),
                    ad.div(x, 3.0), ad.add(2, x), 1.0 - x, 0.5 * x, x / 4):
            assert out.dtype == np.float32
        backward(ad.sum_(ad.mul(x, 1.0 / 3.0)))
        assert x.grad.dtype == np.float32

    def test_python_scalar_keeps_float64(self):
        x = t64([[1.0, 2.0]])
        assert ad.mul(x, 0.5).dtype == np.float64
        assert (1.0 - x).dtype == np.float64

    def test_scalar_value_rounds_to_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert np.array_equal(ad.mul(x, 0.1).data, x.data * np.float32(0.1))

    def test_numpy_operands_still_promote(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert ad.mul(x, np.float64(0.5)).dtype == np.float64
        assert ad.add(x, np.ones(3)).dtype == np.float64


def attention_chain(q, k, v, bias, scale, key_pad):
    """The composed op chain that ad.attention fuses."""
    logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), scale)
    logits = ad.add(logits, Tensor(bias))
    if key_pad is not None:
        logits = ad.masked_fill(logits, key_pad[None, None, :], -1e9)
    return ad.matmul(ad.softmax(logits, axis=-1), v)


def _attention_inputs(dtype, seq_len, padded, seed=28):
    rng = np.random.default_rng(seed)
    heads, dh = 3, 5

    def leaf():
        return Tensor(rng.standard_normal((heads, seq_len, dh)).astype(dtype),
                      requires_grad=True)

    q, k, v = leaf(), leaf(), leaf()
    dist = np.abs(np.arange(seq_len)[:, None] - np.arange(seq_len)[None, :])
    bias = (-np.array([0.5, 0.25, 0.125])[:, None, None] * dist).astype(dtype)
    key_pad = (np.arange(seq_len) % 3 == 2) if padded else None
    weights = rng.standard_normal((heads, seq_len, dh)).astype(dtype)
    return q, k, v, bias, key_pad, weights


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seq_len,padded", [(1, False), (7, False), (7, True),
                                            (37, False), (37, True)])
def test_attention_is_bitwise_the_composed_chain(dtype, seq_len, padded):
    scale = 1.0 / math.sqrt(5)
    results = []
    for op in (ad.attention, attention_chain):
        q, k, v, bias, key_pad, weights = _attention_inputs(dtype, seq_len, padded)
        out = op(q, k, v, bias, scale, key_pad)
        backward(ad.sum_(ad.mul(out, weights)))
        results.append((out.data, q.grad, k.grad, v.grad))
    for fused, chain, name in zip(*results, ("out", "q", "k", "v")):
        assert fused.dtype == np.dtype(dtype), name
        assert np.array_equal(fused, chain), name


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
@pytest.mark.parametrize("padded", [False, True], ids=["no_pad", "pad"])
def test_attention_grad_check(which, padded):
    q, k, v, bias, key_pad, weights = _attention_inputs(np.float64, 6, padded)
    inputs = [q, k, v]

    def f(t):
        args = inputs[:which] + [t] + inputs[which + 1:]
        return ad.sum_(ad.mul(ad.attention(*args, bias, 0.4, key_pad), weights))

    assert grad_check(f, inputs[which], h=1e-5) < 1e-6
