"""Autograd core: forward oracles and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from moetune import tensor as T
from moetune.errors import (
    DimensionError,
    EmptyMaskError,
    NumericError,
    RankError,
    VocabError,
)


def t64(data, requires_grad=True):
    return T.Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def rand64(rng, *shape):
    return t64(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_oracle():
    # [[1,2],[3,4]] x [[5,6],[7,8]]: row-by-column by hand
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    expected = np.array([[1 * 5 + 2 * 7, 1 * 6 + 2 * 8],
                         [3 * 5 + 4 * 7, 3 * 6 + 4 * 8]], dtype=np.float32)
    assert np.array_equal(T.matmul(a, b).data, expected)
    assert np.array_equal(expected, [[19, 22], [43, 50]])


def test_matmul_zeros():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    out = T.matmul(a, b)
    assert out.shape == (2, 4)
    assert np.all(out.data == 0)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


# ---------------------------------------------------------------------------
# row softmax: masked_row_softmax with every entry selected


def row_softmax(rows):
    x = T.Tensor(rows)
    return T.masked_row_softmax(x, np.ones(x.shape))


def test_row_softmax_uniform():
    out = row_softmax([[0.0, 0.0, 0.0, 0.0]])
    assert np.allclose(out.data, 0.25)


def test_row_softmax_hand_oracle():
    # e^2/(e^2+e^1) and e^1/(e^2+e^1)
    e2, e1 = math.exp(2), math.exp(1)
    out = row_softmax([[2.0, 1.0]])
    assert abs(out.data[0, 0] - e2 / (e2 + e1)) < 1e-4
    assert abs(out.data[0, 1] - e1 / (e2 + e1)) < 1e-4
    assert abs(out.data[0, 0] - 0.7311) < 1e-4
    assert abs(out.data[0, 1] - 0.2689) < 1e-4


def test_row_softmax_large_logits_no_overflow():
    out = row_softmax([[1000.0, 0.0]])
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] > 0.999
    assert out.data[0, 1] < 1e-6


def test_row_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7)).astype(np.float32)
    s1 = row_softmax(x).data
    s2 = row_softmax(x + 3.25).data
    assert np.allclose(s1.sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(s1, s2, atol=1e-6)


# ---------------------------------------------------------------------------
# masked_cross_entropy


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((3, 4)))
    loss = T.masked_cross_entropy(logits, [0, 1, 2], [1, 1, 1])
    assert abs(float(loss.data) - math.log(4)) < 1e-6


def test_cross_entropy_confident_correct():
    logits = np.zeros((2, 5), dtype=np.float32)
    logits[0, 3] = 30.0
    logits[1, 1] = 30.0
    loss = T.masked_cross_entropy(T.Tensor(logits), [3, 1], [1, 1])
    assert float(loss.data) < 1e-5


def test_cross_entropy_mask_selects_single_position():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((3, 6)).astype(np.float32)
    targets = [2, 4, 0]
    masked = T.masked_cross_entropy(T.Tensor(logits), targets, [0, 1, 0])
    # oracle: unmasked loss on the one-row slice
    single = T.masked_cross_entropy(T.Tensor(logits[1:2]), [4], [1])
    assert abs(float(masked.data) - float(single.data)) < 1e-6


def test_cross_entropy_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        T.masked_cross_entropy(T.Tensor(np.zeros((2, 4))), [0, 1], [0, 0])


def test_cross_entropy_permutation_equivariant():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 8)).astype(np.float32)
    targets = rng.integers(0, 8, 5)
    mask = np.array([1, 0, 1, 1, 0])
    perm = rng.permutation(5)
    a = T.masked_cross_entropy(T.Tensor(logits), targets, mask)
    b = T.masked_cross_entropy(T.Tensor(logits[perm]), targets[perm], mask[perm])
    assert abs(float(a.data) - float(b.data)) < 1e-6


def test_cross_entropy_bad_target_raises():
    with pytest.raises(VocabError):
        T.masked_cross_entropy(T.Tensor(np.zeros((1, 4))), [4], [1])


# ---------------------------------------------------------------------------
# backward basics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    T.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_elementwise_square():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.sum_all(T.mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RankError):
        T.mul(x, x).backward()


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    w = T.Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    x = T.Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)

    def run():
        w.zero_grad()
        x.zero_grad()
        T.sum_all(T.silu(T.matmul(x, w))).backward()
        return w.grad.copy(), x.grad.copy()

    gw1, gx1 = run()
    gw2, gx2 = run()
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gx1, gx2)


def test_grad_accumulates_across_backward_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.sum_all(x).backward()
    T.sum_all(x).backward()
    assert np.allclose(x.grad, [2.0, 2.0])


def test_overflow_is_an_error():
    big = T.Tensor(np.full((2, 2), 3e38), requires_grad=True)
    with pytest.raises(NumericError):
        T.mul(big, big)


# ---------------------------------------------------------------------------
# finite-difference checks, one per kernel (float64 oracle)


def check(loss_fn, params):
    return T.gradient_check(loss_fn, params, eps=1e-3, rtol=1e-3)


def test_grad_add_mul_scale():
    rng = np.random.default_rng(10)
    a, b = rand64(rng, 3, 4), rand64(rng, 3, 4)
    check(lambda: T.sum_all(T.mul(T.add(a, b), b)), [a, b])
    check(lambda: T.sum_all(T.scale(a, 1.7)), [a])


def test_grad_matmul():
    rng = np.random.default_rng(11)
    a, b = rand64(rng, 3, 5), rand64(rng, 5, 2)
    check(lambda: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])


def test_grad_embedding():
    rng = np.random.default_rng(13)
    table = rand64(rng, 7, 4)
    ids = [3, 1, 3, 0]  # repeated id exercises scatter-add
    check(lambda: T.sum_all(T.mul(T.embedding(table, ids),
                                  T.embedding(table, ids))), [table])


def test_embedding_out_of_range():
    table = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(VocabError):
        T.embedding(table, [0, 4])


def test_grad_softmaxes():
    rng = np.random.default_rng(14)
    x = rand64(rng, 4, 6)
    w = rand64(rng, 4, 6)
    mask = (rng.random((4, 6)) < 0.5).astype(np.float64)
    mask[:, 0] = 1  # every row selects something
    check(lambda: T.sum_all(T.mul(T.masked_row_softmax(x, mask), w)), [x])


def test_grad_norms():
    rng = np.random.default_rng(15)
    x, w = rand64(rng, 4, 8), rand64(rng, 8)
    check(lambda: T.sum_all(T.mul(T.rms_norm(x, w), T.rms_norm(x, w))), [x, w])


def test_grad_activations():
    rng = np.random.default_rng(16)
    x = rand64(rng, 5, 5)
    check(lambda: T.sum_all(T.mul(T.silu(x), x)), [x])


def test_grad_cross_entropy():
    rng = np.random.default_rng(17)
    logits = rand64(rng, 6, 9)
    targets = rng.integers(0, 9, 6)
    mask = [1, 0, 1, 1, 0, 1]
    check(lambda: T.masked_cross_entropy(logits, targets, mask), [logits])


def test_grad_causal_attention():
    rng = np.random.default_rng(18)
    q, k, v = rand64(rng, 5, 8), rand64(rng, 5, 8), rand64(rng, 5, 8)
    w = rand64(rng, 5, 8)
    check(lambda: T.sum_all(T.mul(T.causal_attention(q, k, v, 2), w)), [q, k, v])


def test_grad_rotary():
    rng = np.random.default_rng(19)
    x = rand64(rng, 6, 8)
    w = rand64(rng, 6, 8)
    check(lambda: T.sum_all(T.mul(T.rotary(x, 2), w)), [x])


def test_rotary_is_orthogonal():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((7, 8)).astype(np.float32)
    y = T.rotary(T.Tensor(x), 2).data
    assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1),
                       atol=1e-5)


def test_grad_row_routing_ops():
    rng = np.random.default_rng(21)
    x = rand64(rng, 6, 4)
    gates = rand64(rng, 6, 3)
    s = rand64(rng, 3, 1)
    idx = [4, 0, 2]
    check(lambda: T.sum_all(T.mul(T.index_rows(x, idx), T.index_rows(x, idx))),
          [x])
    y = rand64(rng, 3, 4)
    check(lambda: T.sum_all(T.mul(T.scatter_rows(y, idx, 6),
                                  T.scatter_rows(y, idx, 6))), [y])
    check(lambda: T.sum_all(T.mul(T.gather_column(gates, idx, 1),
                                  T.gather_column(gates, idx, 1))), [gates])
    yy = rand64(rng, 3, 4)
    check(lambda: T.sum_all(T.mul(T.scale_rows(yy, s), T.scale_rows(yy, s))),
          [yy, s])


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(22)
    x = rand64(rng, 5, 5)

    def loss():
        # same generator seed each call keeps the mask fixed for the check
        return T.sum_all(T.mul(T.dropout(x, 0.4, np.random.default_rng(7)), x))

    check(loss, [x])


def test_grad_three_layer_mlp():
    rng = np.random.default_rng(23)
    x = rand64(rng, 4, 6)
    w1, w2, w3 = rand64(rng, 6, 8), rand64(rng, 8, 8), rand64(rng, 8, 3)
    targets = rng.integers(0, 3, 4)

    def loss():
        h1 = T.silu(T.matmul(x, w1))
        h2 = T.silu(T.matmul(h1, w2))
        return T.masked_cross_entropy(T.matmul(h2, w3), targets, [1, 1, 1, 1])

    check(loss, [x, w1, w2, w3])


def test_dropout_eval_identity():
    x = T.Tensor(np.ones((3, 3)))
    assert T.dropout(x, 0.0, np.random.default_rng(0)) is x
