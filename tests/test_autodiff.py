import math
import weakref
import zlib

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor, backward, no_grad

from support import grad_check


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
        loss = ad.cross_entropy(t64([[0.0, 0.0]]), [0])
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


def dense_index_select(a, indices):
    """The reference backward: scatter-add into a zero array of a's shape,
    then add all of it into a.grad."""
    idx = np.asarray(indices, dtype=np.int64)

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            ad._accumulate(a, g)

    return ad._make(np.take(a.data, idx, axis=0), (a,), bw)


class TestIndexSelectBackward:
    """The compact scatter-add gives bitwise the dense reference's grads."""

    @staticmethod
    def grads(build, select, dtype, seed=30):
        rng = np.random.default_rng(seed)
        leaves = [Tensor(rng.standard_normal((10, 3)).astype(dtype), requires_grad=True)
                  for _ in range(2)]
        backward(build(select, rng, *leaves))
        return [leaf.grad for leaf in leaves]

    def check(self, build, dtype):
        got = self.grads(build, ad.index_select, dtype)
        want = self.grads(build, dense_index_select, dtype)
        for g, w in zip(got, want):
            assert (g is None and w is None) or \
                (g.dtype == w.dtype and g.tobytes() == w.tobytes())

    @staticmethod
    def weighted_sum(t, rng):
        return ad.sum_(ad.mul(t, rng.standard_normal(t.shape).astype(t.dtype)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("idx", [[3, 0, 3, 7, 3, 0, 9],
                                     [[1, 4, 1, 1], [4, 4, 9, 0]]],
                             ids=["S", "BxS"])
    def test_repeated_ids(self, idx, dtype):
        self.check(lambda sel, rng, a, _: self.weighted_sum(sel(a, idx), rng), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_selects_of_one_leaf(self, dtype):
        def build(sel, rng, a, b):
            first = self.weighted_sum(sel(a, [[2, 5], [5, 5]]), rng)
            second = self.weighted_sum(sel(a, [5, 8, 2, 2]), rng)
            return ad.add(ad.add(first, second),
                          self.weighted_sum(ad.matmul(a, ad.transpose(b)), rng))
        self.check(build, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_leaf_input(self, dtype):
        def build(sel, rng, a, b):
            h = ad.mul(a, b)
            picked = sel(h, [[7, 1, 7], [1, 1, 3]])
            return ad.add(self.weighted_sum(picked, rng), self.weighted_sum(h, rng))
        self.check(build, dtype)

    def test_grad_check_batched_and_shared(self):
        rng = np.random.default_rng(31)
        x = rand64(rng, 6, 4)
        c1 = rng.standard_normal((2, 3, 4))
        c2 = rng.standard_normal((4, 4))

        def f(t):
            return ad.add(ad.sum_(ad.mul(ad.index_select(t, [[0, 5, 5], [2, 0, 5]]), c1)),
                          ad.sum_(ad.mul(ad.index_select(t, [5, 1, 1, 0]), c2)))

        assert grad_check(f, x, h=1e-5) < 1e-6


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
                    ad.div(x, 3.0), ad.add(2, x), ad.sub(1.0, x), ad.mul(0.5, x),
                    ad.div(x, 4), ad.div(1.0, x)):
            assert out.dtype == np.float32
        backward(ad.sum_(ad.mul(x, 1.0 / 3.0)))
        assert x.grad.dtype == np.float32

    def test_python_scalar_keeps_float64(self):
        x = t64([[1.0, 2.0]])
        assert ad.mul(x, 0.5).dtype == np.float64
        for out in (ad.sub(1.0, x), ad.div(2, x), ad.mul(0.5, x)):
            assert out.dtype == np.float64

    def test_scalar_value_rounds_to_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert np.array_equal(ad.mul(x, 0.1).data, x.data * np.float32(0.1))

    def test_numpy_operands_still_promote(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert ad.mul(x, np.float64(0.5)).dtype == np.float64
        assert ad.add(x, np.ones(3)).dtype == np.float64


def attention_chain(q, k, v, bias, scale):
    """The composed op chain that ad.attention fuses, on (..., S, dh) inputs."""
    swap = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    logits = ad.mul(ad.matmul(q, ad.transpose(k, swap)), scale)
    logits = ad.add(logits, Tensor(bias))
    return ad.matmul(ad.softmax(logits, axis=-1), v)


def packed_attention_chain(q, k, v, runs, biases, scale):
    """ad.attention as composed ops: each run of packed (T, heads, dh) rows
    cut out, viewed as (count, heads, S, dh), run through attention_chain
    and laid back end to end."""
    parts, start = [], 0
    for (count, length), bias in zip(runs, biases):
        def heads_first(x):
            x = ad.narrow(x, 0, start, start + count * length)
            return ad.transpose(ad.reshape(x, (count, length) + x.shape[1:]), (0, 2, 1, 3))

        ctx = attention_chain(heads_first(q), heads_first(k), heads_first(v), bias, scale)
        parts.append(ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)),
                                (count * length,) + q.shape[1:]))
        start += count * length
    return ad.concat(parts, axis=0)


def _alibi_biases(runs, slopes, dtype):
    """One (heads, S, S) symmetric ALiBi bias per run."""
    biases = []
    for _, length in runs:
        dist = np.abs(np.arange(length)[:, None] - np.arange(length)[None, :])
        biases.append((-np.asarray(slopes)[:, None, None] * dist).astype(dtype))
    return biases


def _attention_inputs(dtype, runs, seed=28):
    rng = np.random.default_rng(seed)
    heads, dh = 3, 5
    rows = sum(count * length for count, length in runs)

    def leaf():
        return Tensor(rng.standard_normal((rows, heads, dh)).astype(dtype),
                      requires_grad=True)

    q, k, v = leaf(), leaf(), leaf()
    biases = _alibi_biases(runs, [0.5, 0.25, 0.125], dtype)
    weights = rng.standard_normal((rows, heads, dh)).astype(dtype)
    return q, k, v, biases, weights


MULTI_RUN = ((2, 1), (3, 7), (1, 37))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("runs", [((1, 1),), ((1, 7),), ((1, 37),), MULTI_RUN],
                         ids=["1", "7", "37", "multi"])
def test_attention_is_bitwise_the_composed_chain(dtype, runs):
    scale = 1.0 / math.sqrt(5)
    results = []
    for op in (ad.attention, packed_attention_chain):
        q, k, v, biases, weights = _attention_inputs(dtype, runs)
        out = op(q, k, v, runs, biases, scale)
        backward(ad.sum_(ad.mul(out, weights)))
        results.append((out.data, q.grad, k.grad, v.grad))
    for fused, chain, name in zip(*results, ("out", "q", "k", "v")):
        assert fused.dtype == np.dtype(dtype), name
        assert np.array_equal(fused, chain), name


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
def test_attention_grad_check(which):
    runs = ((2, 1), (1, 4), (2, 3))
    q, k, v, biases, weights = _attention_inputs(np.float64, runs)
    inputs = [q, k, v]

    def f(t):
        args = inputs[:which] + [t] + inputs[which + 1:]
        return ad.sum_(ad.mul(ad.attention(*args, runs, biases, 0.4), weights))

    assert grad_check(f, inputs[which], h=1e-5) < 1e-6


def test_attention_keeps_each_sequence_to_itself():
    """A sequence's output and gradients are those of attention over it
    alone, whatever runs sit before and after it."""
    runs = ((2, 3), (1, 5), (3, 2))
    q, k, v, biases, weights = _attention_inputs(np.float32, runs)
    out = ad.attention(q, k, v, runs, biases, 0.3)
    backward(ad.sum_(ad.mul(out, weights)))
    start = 0
    for (count, length), bias in zip(runs, biases):
        for _ in range(count):
            rows = slice(start, start + length)
            alone = [Tensor(t.data[rows], requires_grad=True) for t in (q, k, v)]
            got = ad.attention(*alone, ((1, length),), [bias], 0.3)
            backward(ad.sum_(ad.mul(got, weights[rows])))
            assert np.array_equal(got.data, out.data[rows])
            for t, whole in zip(alone, (q, k, v)):
                assert np.array_equal(t.grad, whole.grad[rows])
            start += length


def test_attention_rejects_a_layout_that_does_not_cover_the_rows():
    q, k, v, biases, _ = _attention_inputs(np.float32, ((2, 3),))
    with pytest.raises(ValueError):
        ad.attention(q, k, v, ((1, 3),), biases, 0.3)
    with pytest.raises(ValueError):
        ad.attention(q, k, v, ((2, 3),), biases * 2, 0.3)
    with pytest.raises(ValueError):
        ad.attention(q, k, v, ((0, 3), (2, 3)), biases * 2, 0.3)


def test_run_mean_is_bitwise_the_per_run_mean():
    runs = ((3, 1), (2, 4), (1, 9))
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((3 + 8 + 9, 6)).astype(np.float32), requires_grad=True)
    weights = rng.standard_normal((6, 6)).astype(np.float32)
    out = ad.run_mean(x, runs)
    backward(ad.sum_(ad.mul(out, weights)))
    want_grads = []
    start, row = 0, 0
    for count, length in runs:
        view = Tensor(x.data[start:start + count * length].reshape(count, length, 6),
                      requires_grad=True)
        want = ad.mean(view, axis=-2)
        backward(ad.sum_(ad.mul(want, weights[row:row + count])))
        assert np.array_equal(out.data[row:row + count], want.data)
        want_grads.append(view.grad.reshape(count * length, 6))
        start += count * length
        row += count
    assert np.array_equal(x.grad, np.concatenate(want_grads))


def test_run_mean_grad_check():
    x = rand64(np.random.default_rng(8), 7, 3)
    weights = np.random.default_rng(9).standard_normal((3, 3))
    assert grad_check(lambda t: ad.sum_(ad.mul(ad.run_mean(t, ((1, 1), (2, 3))),
                                               weights)), x) < 1e-6


def unflushed_attention(q, k, v, bias, scale):
    """softmax(scale * q @ k^T + bias) @ v in numpy, in the fused op's order
    but keeping every weight, subnormal or not; (output, weights)."""
    att = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))
    att *= np.asarray(scale, dtype=att.dtype)
    att += bias
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    return np.matmul(att, v), att


def _alibi_inputs(seq_len, heads=4, dh=32):
    """float32 q, k, v and the encoder's ALiBi bias for slopes 1/4, 1/16, ...
    q, k, v are (heads, S, dh), one sequence's heads-first view."""
    rng = np.random.default_rng(seq_len)
    q, k, v = (rng.standard_normal((heads, seq_len, dh)).astype(np.float32)
               for _ in range(3))
    slopes = 2.0 ** (-2.0 * np.arange(1, heads + 1))
    dist = np.abs(np.arange(seq_len)[:, None] - np.arange(seq_len)[None, :])
    bias = (-slopes[:, None, None] * dist).astype(np.float32)
    return q, k, v, bias


def _packed(x):
    """One sequence's (heads, S, dh) view as packed (S, heads, dh) rows."""
    return np.ascontiguousarray(np.swapaxes(x, 0, 1))


@pytest.mark.parametrize("seq_len", [512, 1024, 1536])
def test_attention_flush_keeps_long_alibi_outputs_bitwise(seq_len):
    q, k, v, bias = _alibi_inputs(seq_len)
    scale = 1.0 / math.sqrt(q.shape[-1])
    want, weights = unflushed_attention(q, k, v, bias, scale)
    tiny = np.finfo(np.float32).tiny
    assert ((weights > 0) & (weights < tiny)).any()  # there is something to flush
    with no_grad():
        got = ad.attention(_packed(q), _packed(k), _packed(v), ((1, seq_len),), [bias],
                           scale)
    assert np.array_equal(got.data, _packed(want))


def test_attention_weights_are_never_subnormal():
    seq_len = 1536
    q, k, _, bias = _alibi_inputs(seq_len, heads=1)
    eye = np.eye(seq_len, dtype=np.float32)
    out = ad.attention(_packed(q), _packed(k), eye[:, None, :], ((1, seq_len),), [bias],
                       0.2)
    weights = out.data[:, 0, :]  # row i of the weights times I
    tiny = np.finfo(np.float32).tiny
    assert not ((weights > 0) & (weights < tiny)).any()
    assert (weights == 0).any()
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-5)


def zeros_then_add(t, g):
    """The accumulate the one-pass first write replaced."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class TestFirstGradientWrite:
    def test_first_write_is_c_contiguous(self):
        x = rand64(np.random.default_rng(5), 3, 4)
        backward(ad.sum_(ad.mul(ad.transpose(x), 2.0)))
        assert x.grad.flags.c_contiguous
        assert np.array_equal(x.grad, np.full((3, 4), 2.0))

    def test_negative_zero_becomes_positive_zero(self):
        x = t64([1.0, 2.0, 3.0])
        y = ad.mul(x, t64([-1.0, 2.0, -3.0], requires_grad=False))
        backward(ad.sum_(ad.mul(y, t64([0.0, 0.0, 0.0], requires_grad=False))))
        assert np.array_equal(x.grad, np.zeros(3))
        assert not np.signbit(x.grad).any()

    def test_shape_mismatch_rejected(self):
        x = t64([1.0, 2.0])
        with pytest.raises(AssertionError):
            ad._accumulate(x, np.ones(1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_grads_bitwise_the_old_accumulate(self, monkeypatch, dtype):
        from medeir.model import ModelConfig, build_model, embed_batch, mlm_loss

        config = ModelConfig(vocab_size=40, hidden=16, layers=2, heads=2, ffn_dim=32,
                             num_projections=2, adaptive_cutoffs=(8, 20, 40),
                             max_train_len=32, max_infer_len=64)
        model = build_model(config, seed=2, dtype=dtype)
        ids = np.array([[6, 1, 9, 2, 17, 3, 33, 5], [11, 7, 8, 12, 30, 6, 9, 14]])
        corrupted = ids.copy()
        corrupted[:, [1, 4]] = 4

        def grads():
            model.zero_grad()
            emb = embed_batch(model, ids)
            loss = ad.add(mlm_loss(model, corrupted, [[1, 4], [1, 4]], ids),
                          ad.sum_(ad.mul(emb, emb)))
            backward(loss)
            return {name: p.grad for name, p in model.named_parameters().items()}

        new = grads()
        monkeypatch.setattr(ad, "_accumulate", zeros_then_add)
        old = grads()
        assert new.keys() == old.keys()
        for name in new:
            assert new[name].dtype == old[name].dtype, name
            assert new[name].tobytes() == old[name].tobytes(), name


# ---------------------------------------------------------------------------
# fused position-wise ops and the in-place gelu and layer_norm

def push(out, g):
    """Walk the graph below a node of any shape from the upstream gradient g,
    as backward walks it from a scalar loss, without consuming it."""
    out.grad = g
    for node in reversed(ad.ComputationTape.build(out).nodes):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node)


def upstream(rng, shape, dtype):
    """A gradient holding -0.0 entries, a row of -0.0 and +0.0 entries."""
    g = rng.standard_normal(shape).astype(dtype)
    g[rng.random(shape) < 0.2] = -0.0
    g[rng.random(shape) < 0.1] = 0.0
    g[0] = -0.0
    return g


def linear_chain(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def affine_norm_chain(a, gamma, beta):
    return ad.add(ad.mul(ad.layer_norm(a), gamma), beta)


# (rows, k, n): long-docs (hidden 128, FFN 512), short-pairs (hidden 32,
# FFN 64) and odd shapes
LINEAR_SHAPES = [(512, 128, 128), (512, 128, 512), (512, 512, 128),
                 (64, 32, 32), (64, 32, 64), (64, 64, 32),
                 (7, 5, 3), (1, 9, 13), (33, 17, 1)]
NORM_SHAPES = [(512, 128), (64, 32), (7, 5), (1, 3), (5, 1)]


def _fused_and_chain(fused, chain, shapes, dtype, preset, seed):
    """Forward bits and every input's gradient bits of fused and chain on
    the same inputs and upstream gradient. With preset, each input starts
    with a -0.0 gradient, so a -0.0 that reaches it keeps its sign."""
    results = []
    for op in (fused, chain):
        rng = np.random.default_rng(seed)
        inputs = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                  for shape in shapes]
        out = op(*inputs)
        if preset:
            for t in inputs:
                t.grad = np.full(t.shape, -0.0, dtype=dtype)
        push(out, upstream(rng, out.shape, dtype))
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
    return results


@pytest.mark.parametrize("preset", [False, True], ids=["first-write", "preset"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows,k,n", LINEAR_SHAPES)
def test_linear_is_bitwise_its_composed_chain(rows, k, n, dtype, preset):
    fused, chain = _fused_and_chain(ad.linear, linear_chain, [(rows, k), (k, n), (n,)],
                                    dtype, preset, seed=rows * k + n)
    for name, a, b in zip(("out", "x", "w", "b"), fused, chain):
        assert a == b, name


@pytest.mark.parametrize("preset", [False, True], ids=["first-write", "preset"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows,d", NORM_SHAPES)
def test_affine_norm_is_bitwise_its_composed_chain(rows, d, dtype, preset):
    fused, chain = _fused_and_chain(ad.affine_norm, affine_norm_chain,
                                    [(rows, d), (d,), (d,)], dtype, preset,
                                    seed=rows * d)
    for name, a, b in zip(("out", "a", "gamma", "beta"), fused, chain):
        assert a == b, name


def plain_layer_norm(x, g):
    """layer_norm's forward and input gradient as plain numpy expressions."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad._LAYER_NORM_EPS)
    y = (x - mu) * inv
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * y).mean(axis=-1, keepdims=True)
    return y, inv * (g - gm - y * gy)


def plain_gelu(x, g):
    """gelu's forward and input gradient as plain numpy expressions."""
    c = ad._GELU_C
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    y = 0.5 * x * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * (x * x))
    return y, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,plain", [(ad.layer_norm, plain_layer_norm),
                                      (ad.gelu, plain_gelu)], ids=["layer_norm", "gelu"])
@pytest.mark.parametrize("shape", [(512, 512), (512, 128), (64, 64), (64, 32),
                                   (7, 5), (1, 3), (5, 1)])
def test_in_place_op_is_bitwise_its_plain_expressions(op, plain, shape, dtype):
    rng = np.random.default_rng(shape[0] * shape[1])
    x = Tensor((3 * rng.standard_normal(shape)).astype(dtype), requires_grad=True)
    g = upstream(rng, shape, dtype)
    y, dx = plain(x.data, g)
    out = op(x)
    push(out, g)
    assert out.data.tobytes() == y.tobytes()
    assert x.grad.tobytes() == np.add(dx, 0).tobytes()


@pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "b"])
def test_linear_grad_check(which):
    rng = np.random.default_rng(40)
    inputs = [rand64(rng, 4, 3), rand64(rng, 3, 5), rand64(rng, 5)]
    c = rng.standard_normal((4, 5))

    def f(t):
        args = inputs[:which] + [t] + inputs[which + 1:]
        return ad.sum_(ad.mul(ad.tanh(ad.linear(*args)), c))

    assert grad_check(f, inputs[which]) < 1e-6


@pytest.mark.parametrize("which", [0, 1, 2], ids=["a", "gamma", "beta"])
def test_affine_norm_grad_check(which):
    rng = np.random.default_rng(41)
    inputs = [rand64(rng, 4, 6), rand64(rng, 6), rand64(rng, 6)]
    c = rng.standard_normal((4, 6))

    def f(t):
        args = inputs[:which] + [t] + inputs[which + 1:]
        return ad.sum_(ad.mul(ad.tanh(ad.affine_norm(*args)), c))

    assert grad_check(f, inputs[which]) < 1e-6


# ---------------------------------------------------------------------------
# neg, sub, pick and narrow as compositions: the closures they replaced

def closure_neg(a):
    def bw(out):
        if a.requires_grad:
            ad._accumulate(a, -out.grad)

    return ad._make(-a.data, (a,), bw)


def closure_sub(a, b):
    a, b = ad._operands(a, b)

    def bw(out):
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(-out.grad, b.data.shape))

    return ad._make(a.data - b.data, (a, b), bw)


def closure_pick(a, indices):
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, (rows, idx), out.grad)
            ad._accumulate(a, g)

    return ad._make(a.data[rows, idx], (a,), bw)


def closure_narrow(a, axis, start, end):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, end)
    idx = tuple(idx)

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[idx] = out.grad
            ad._accumulate(a, g)

    return ad._make(a.data[idx].copy(), (a,), bw)


def _composed_and_closure(composed, closure, shapes, dtype, preset, seed):
    """Forward bits and every input's gradient bits of both ops on the same
    inputs and upstream gradient. With preset, each input starts with a
    nonzero gradient, so the second write's += path runs."""
    results = []
    for op in (composed, closure):
        rng = np.random.default_rng(seed)
        inputs = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                  for shape in shapes]
        out = op(*inputs)
        if preset:
            for t in inputs:
                t.grad = rng.standard_normal(t.shape).astype(dtype)
        if out.ndim and out.size:
            push(out, upstream(rng, out.shape, dtype))
        else:   # a scalar loss, or a pick of no rows
            push(out, np.asarray(rng.standard_normal(out.shape), dtype=dtype))
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
    return results


def _check_bits(composed, closure, shapes, dtype, preset, seed):
    got, want = _composed_and_closure(composed, closure, shapes, dtype, preset, seed)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, "out" if i == 0 else f"input {i - 1}"


PRESET = pytest.mark.parametrize("preset", [False, True], ids=["first-write", "preset"])
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@PRESET
@DTYPES
@pytest.mark.parametrize("shape", [(), (3, 4), (5,), (2, 3, 4)])
def test_neg_is_bitwise_its_old_closure(shape, dtype, preset):
    _check_bits(ad.neg, closure_neg, [shape], dtype, preset, seed=len(shape))


# (a, b): a scalar loss, same shapes, broadcast b, broadcast a
SUB_SHAPES = [((), ()), ((3, 4), (3, 4)), ((3, 4), (4,)), ((2, 3, 4), (3, 1)),
              ((4,), (2, 3, 4)), ((16, 16), (16, 1))]


@PRESET
@DTYPES
@pytest.mark.parametrize("a_shape,b_shape", SUB_SHAPES)
def test_sub_is_bitwise_its_old_closure(a_shape, b_shape, dtype, preset):
    _check_bits(ad.sub, closure_sub, [a_shape, b_shape], dtype, preset,
                seed=len(a_shape) * 7 + len(b_shape))


@PRESET
@DTYPES
@pytest.mark.parametrize("scalar_first", [False, True], ids=["t-c", "c-t"])
def test_sub_with_a_python_scalar_is_bitwise_its_old_closure(scalar_first, dtype,
                                                              preset):
    def bind(op):
        return (lambda t: op(0.3, t)) if scalar_first else (lambda t: op(t, 0.3))

    _check_bits(bind(ad.sub), bind(closure_sub), [(3, 4)], dtype, preset, seed=8)


# (rows, columns): long-docs MLM head and tails (29,557-token vocabulary),
# short-pairs head and tails (400 tokens), contrastive and hard-negative
# logits, a tail no target hits, and odd shapes
PICK_SHAPES = [(77, 5913), (20, 11823), (38, 82), (12, 160), (16, 16), (8, 32),
               (0, 160), (1, 1), (5, 3)]


@PRESET
@DTYPES
@pytest.mark.parametrize("rows,cols", PICK_SHAPES)
def test_pick_is_bitwise_its_old_closure(rows, cols, dtype, preset):
    idx = np.random.default_rng(rows + cols).integers(0, cols, size=rows)
    _check_bits(lambda a: ad.pick(a, idx), lambda a: closure_pick(a, idx),
                [(rows, cols)], dtype, preset, seed=rows * cols)


# (shape, axis, start, end): the encoder's dropped top-up rows at both
# workloads' widths, criterion 03's axis 1, a middle axis, a negative axis,
# an empty and a whole slice
NARROW_CASES = [((3, 128), 0, 0, 1), ((66, 32), 0, 0, 64), ((3, 4), 1, 1, 3),
                ((2, 5, 3), 1, 2, 5), ((4, 6), -1, 0, 2), ((4, 6), 0, 2, 2),
                ((4, 6), 1, 0, 6)]


@PRESET
@DTYPES
@pytest.mark.parametrize("shape,axis,start,end", NARROW_CASES)
def test_narrow_is_bitwise_its_old_closure(shape, axis, start, end, dtype, preset):
    _check_bits(lambda a: ad.narrow(a, axis, start, end),
                lambda a: closure_narrow(a, axis, start, end),
                [shape], dtype, preset, seed=sum(shape) + start)


# ---------------------------------------------------------------------------
# index_select's one backward path and mean as sum_ over a count: the
# closures they replaced

def two_path_index_select(a, indices):
    """index_select's backward before it had one path: the first write
    scattered straight into zeros of a's shape, a later one went through a
    buffer of the distinct rows."""
    idx = np.asarray(indices, dtype=np.int64)

    def bw(out):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, out.grad)
            return
        rows, inverse = np.unique(idx, return_inverse=True)
        g = np.zeros((rows.size,) + a.data.shape[1:], dtype=a.data.dtype)
        np.add.at(g, inverse.reshape(idx.shape), out.grad)
        a.grad[rows] += g

    return ad._make(np.take(a.data, idx, axis=0), (a,), bw)


def closure_mean(a, axis=None, keepdims=False):
    kept = ad._keepdims_shape(a.data.shape, axis)
    count = math.prod(n for n, k in zip(a.data.shape, kept) if n != k)

    def bw(out):
        if a.requires_grad:
            g = out.grad.reshape(kept)
            ad._accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    return ad._make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


def _gradient(rng, shape, dtype, kind):
    """An upstream gradient: "mixed" holds -0.0 and +0.0 entries, "engine"
    is that as .grad holds it (-0.0 made +0.0, see _accumulate), "zeros"
    is all +0.0 and "-zeros" all -0.0."""
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "-zeros":
        return np.full(shape, -0.0, dtype=dtype)
    g = rng.standard_normal(shape).astype(dtype)
    g[rng.random(shape) < 0.2] = -0.0
    g[rng.random(shape) < 0.1] = 0.0
    return np.add(g, 0, dtype=dtype) if kind == "engine" else g


def _one_path_bits(new, old, shape, dtype, preset, kind, seed):
    """Output and input-gradient bits of new and old on one input that
    holds -0.0 entries. preset: "none" leaves a.grad unset for the first
    write; "random" and "-0.0" preset it, so the later-write path runs."""
    results = []
    for op in (new, old):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(dtype)
        x[rng.random(shape) < 0.2] = -0.0
        a = Tensor(x, requires_grad=True)
        out = op(a)
        if preset == "random":
            a.grad = rng.standard_normal(shape).astype(dtype)
        elif preset == "-0.0":
            a.grad = np.full(shape, -0.0, dtype=dtype)
        push(out, _gradient(rng, out.shape, dtype, kind))
        results.append((out.dtype, out.data.tobytes(), a.grad.tobytes()))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1], "out"
    assert results[0][2] == results[1][2], "grad"


PRESETS = pytest.mark.parametrize("preset", ["none", "random", "-0.0"])

# (rows, width, indices): repeated ids, a (B, S) block, each row once, an
# empty selection and one row many times
SELECT_CASES = [(10, 3, [3, 0, 3, 7, 3, 0, 9]), (10, 3, [[1, 4, 1, 1], [4, 4, 9, 0]]),
                (6, 4, [5, 4, 3, 2, 1, 0]), (6, 4, []), (4, 2, [2] * 9)]


@PRESETS
@DTYPES
@pytest.mark.parametrize("kind", ["mixed", "zeros", "-zeros"])
@pytest.mark.parametrize("rows,width,indices", SELECT_CASES)
def test_index_select_is_bitwise_its_two_path_closure(rows, width, indices, kind,
                                                     dtype, preset):
    _one_path_bits(lambda a: ad.index_select(a, indices),
                   lambda a: two_path_index_select(a, indices),
                   (rows, width), dtype, preset, kind, seed=rows + width)


# (rows, width, ids): the float32 embedding-table lookups of short-pairs
# (400-token vocabulary, hidden 32: an MLM batch of 4 x 64 tokens, 32
# contrastive texts of 30) and long-docs (29,557 tokens, hidden 128: one
# 512-token MLM chunk, 16 pairs of up to 128 tokens), a few ids frequent
# and many rare
TABLE_CASES = [(400, 32, 256), (400, 32, 960), (29557, 128, 512), (29557, 128, 4096)]


@PRESETS
@pytest.mark.parametrize("rows,width,ids", TABLE_CASES)
def test_index_select_is_bitwise_its_two_path_closure_at_workload_shapes(
        rows, width, ids, preset):
    indices = np.random.default_rng(ids).zipf(1.3, size=ids) % rows
    _one_path_bits(lambda a: ad.index_select(a, indices),
                   lambda a: two_path_index_select(a, indices),
                   (rows, width), np.float32, preset, "mixed", seed=rows + width)


# (shape, axis): whole-tensor means, cross_entropy's means over the
# per-row log-likelihoods of an MLM head and tails and of contrastive
# logits, and int, negative and tuple axes
MEAN_CASES = [((1,), None), ((5,), None), ((77,), None), ((20,), None), ((38,), None),
              ((16,), 0), ((512, 128), None), ((3, 4), 0), ((3, 4), -1),
              ((2, 3, 4), 1), ((2, 3, 4), (0, 1)), ((2, 3, 4), (0, 2)),
              ((2, 1, 4), 1), ((4, 6), (-1, 0))]


@PRESETS
@DTYPES
@pytest.mark.parametrize("kind", ["engine", "zeros"])
@pytest.mark.parametrize("keepdims", [False, True], ids=["drop", "keep"])
@pytest.mark.parametrize("shape,axis", MEAN_CASES)
def test_mean_is_bitwise_its_old_closure(shape, axis, keepdims, kind, dtype, preset):
    _one_path_bits(lambda a: ad.mean(a, axis, keepdims),
                   lambda a: closure_mean(a, axis, keepdims),
                   shape, dtype, preset, kind, seed=sum(shape) + len(shape))


def test_mean_adds_a_negative_zero_gradient_as_positive_zero():
    """Where the two can differ: div writes the sum's gradient as
    _accumulate does, so a -0.0 upstream reaches a preset -0.0 gradient as
    +0.0. No .grad the engine writes holds -0.0, so backward never gives
    mean such an upstream gradient."""
    a = t64([1.0, 2.0])
    out = ad.mean(a)
    a.grad = np.full(2, -0.0)
    push(out, np.asarray(-0.0))
    assert not np.signbit(a.grad).any()


@pytest.mark.parametrize("idx", [[0, 4, 1], [0, -1, 1]], ids=["past-end", "negative"])
def test_pick_column_out_of_range_rejected(idx):
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        ad.pick(t64(np.ones((3, 4))), idx)


@pytest.mark.parametrize("op", [ad.neg, ad.pick, ad.narrow, ad.sub, ad.mean])
def test_composed_op_has_no_backward_of_its_own(op):
    x = t64(np.ones((3, 4)))
    args = {ad.neg: (x,), ad.pick: (x, [0, 1, 2]), ad.narrow: (x, 1, 0, 2),
            ad.sub: (x, x), ad.mean: (x, 0)}[op]
    closure = op(*args)._backward_fn
    assert closure.__qualname__.split(".")[0] != op.__name__


# ---------------------------------------------------------------------------
# backward consumes the graph

class TestGraphRelease:
    def test_interior_activation_is_freed_before_backward_returns(self):
        rng = np.random.default_rng(42)
        x, w = rand64(rng, 4, 6), rand64(rng, 6, 6)
        first = ad.mul(x, 2.0)            # its closure is the last to run
        h = ad.gelu(ad.matmul(first, w))
        activation = weakref.ref(h.data)
        loss = ad.sum_(ad.mul(h, h))
        del h
        freed = []
        closure = first._backward_fn

        def spy(node):
            freed.append(activation() is None)
            closure(node)

        first._backward_fn = spy
        backward(loss)
        assert freed == [True]
        assert x.grad is not None and w.grad is not None

    def test_walked_nodes_keep_no_closure_parents_or_grad(self):
        rng = np.random.default_rng(43)
        x = rand64(rng, 3, 4)
        loss = ad.sum_(ad.gelu(ad.layer_norm(x)))
        interior = [n for n in ad.ComputationTape.build(loss).nodes if n._parents]
        backward(loss)
        for node in interior:
            assert node._parents == () and node.grad is None
            assert node._backward_fn is ad._consumed

    def test_second_backward_raises(self):
        rng = np.random.default_rng(44)
        x = rand64(rng, 3, 4)
        loss = ad.sum_(ad.mul(ad.gelu(x), 3.0))
        backward(loss)
        grad = x.grad.copy()
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
        assert np.array_equal(x.grad, grad)

    def test_new_graph_over_a_consumed_node_raises(self):
        rng = np.random.default_rng(45)
        x = rand64(rng, 3, 4)
        h = ad.gelu(x)
        backward(ad.sum_(h))
        with pytest.raises(ValueError, match="consumed"):
            backward(ad.sum_(ad.mul(h, h)))
