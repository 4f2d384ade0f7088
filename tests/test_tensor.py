"""Autograd core: forward oracles and finite-difference gradient checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

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

from gradcheck import gradient_check


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


# Every [K, N] operand of matmul in a forward of the default model: attention
# and expert kernels, lm head, router, and both LoRA factors at rank 8.
KERNEL_SHAPES = [(128, 128), (128, 256), (256, 128), (128, 262), (128, 8),
                 (256, 8), (8, 128), (8, 256)]
ROW_COUNTS = list(range(1, 3 * T.TILE + 1)) + [127, 128, 129, 511]


def test_matmul_rows_are_batch_invariant():
    """Each output row of matmul is bitwise independent of the call's rows.

    For every kernel shape, a call on the first t rows equals the first t
    rows of the largest call, and a call on rows that start mid-tile equals
    the same rows of the largest call.
    """
    rng = np.random.default_rng(0)
    for k, n in KERNEL_SHAPES:
        x = rng.standard_normal((max(ROW_COUNTS) + T.TILE, k)).astype(np.float32)
        w = T.Tensor(rng.standard_normal((k, n)).astype(np.float32))
        full = T.matmul(T.Tensor(x), w).data
        for t in ROW_COUNTS:
            prefix = T.matmul(T.Tensor(x[:t]), w).data
            assert np.array_equal(prefix, full[:t]), (k, n, t)
            s = 1 + t % (T.TILE - 1)
            inner = T.matmul(T.Tensor(x[s:s + t]), w).data
            assert np.array_equal(inner, full[s:s + t]), (k, n, t, s)


def run_on_one_blas_thread(*tests):
    """Run tests of this file in a pytest subprocess on one BLAS thread."""
    # BLAS reads its thread count when numpy loads, so run in a fresh process
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [f"{__file__}::{name}" for name in tests],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_matmul_rows_are_batch_invariant_on_one_blas_thread():
    run_on_one_blas_thread("test_matmul_rows_are_batch_invariant")


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
        w.grad = None
        x.grad = None
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
    return gradient_check(loss_fn, params, eps=1e-3, rtol=1e-3)


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
    k, v = rand64(rng, 5, 8), rand64(rng, 5, 8)
    # t_q < 5: the queries are the last t_q of the 5 key positions
    for t_q in (5, 2, 1):
        q, w = rand64(rng, t_q, 8), rand64(rng, t_q, 8)
        check(lambda: T.sum_all(T.mul(T.causal_attention(q, k, v, 2), w)),
              [q, k, v])


def attention_einsum64(q, k, v, n_heads):
    """float64 einsum reference for the forward of causal_attention."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    (t_q, d), t_k = q.shape, k.shape[0]
    hd = d // n_heads
    qh, kh, vh = (a.reshape(len(a), n_heads, hd).transpose(1, 0, 2)
                  for a in (q, k, v))
    scores = np.einsum("hid,hjd->hij", qh, kh) / math.sqrt(hd)
    causal = np.tril(np.ones((t_q, t_k), dtype=bool), t_k - t_q)
    scores = np.where(causal, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    out = np.einsum("hij,hjd->hid", e / e.sum(axis=2, keepdims=True), vh)
    return out.transpose(1, 0, 2).reshape(t_q, d)


@pytest.mark.parametrize("t_q", [300, 1])
def test_attention_forward_at_length_matches_einsum64(t_q):
    rng = np.random.default_rng(100 + t_q)
    q = T.Tensor(rng.standard_normal((t_q, 128)))
    k, v = (T.Tensor(rng.standard_normal((300, 128))) for _ in range(2))
    got = T.causal_attention(q, k, v, 4).data
    ref = attention_einsum64(q.data, k.data, v.data, 4)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=1e-5,
                               atol=1e-5 * np.abs(ref).max())


def attention_grads_einsum64(q, k, v, g, n_heads):
    """float64 einsum reference for the gradients of causal_attention."""
    q, k, v, g = (np.asarray(a, dtype=np.float64) for a in (q, k, v, g))
    (t_q, d), t_k = q.shape, k.shape[0]
    hd = d // n_heads
    qh, kh, vh, gh = (a.reshape(len(a), n_heads, hd).transpose(1, 0, 2)
                      for a in (q, k, v, g))
    scores = np.einsum("hid,hjd->hij", qh, kh) / math.sqrt(hd)
    causal = np.tril(np.ones((t_q, t_k), dtype=bool), t_k - t_q)
    scores = np.where(causal, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)
    gv = np.einsum("hij,hid->hjd", attn, gh)
    da = np.einsum("hid,hjd->hij", gh, vh)
    ds = attn * (da - (da * attn).sum(axis=2, keepdims=True)) / math.sqrt(hd)
    gq = np.einsum("hij,hjd->hid", ds, kh)
    gk = np.einsum("hij,hid->hjd", ds, qh)
    return [a.transpose(1, 0, 2).reshape(-1, d) for a in (gq, gk, gv)]


@pytest.mark.parametrize("t_q", [300, 1])
def test_attention_grads_at_length_match_einsum64(t_q):
    rng = np.random.default_rng(t_q)
    q = T.Tensor(rng.standard_normal((t_q, 128)), requires_grad=True)
    k, v = (T.Tensor(rng.standard_normal((300, 128)), requires_grad=True)
            for _ in range(2))
    g = T.Tensor(rng.standard_normal((t_q, 128)))
    T.sum_all(T.mul(T.causal_attention(q, k, v, 4), g)).backward()
    want = attention_grads_einsum64(q.data, k.data, v.data, g.data, 4)
    for name, got, ref in zip("qkv", (q.grad, k.grad, v.grad), want):
        # f32 rounding is relative to the largest entries, not to each entry
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5,
                                   atol=1e-5 * np.abs(ref).max(), err_msg=name)


# key counts on both sides of one, two, three and eight key blocks
@pytest.mark.parametrize("t_k", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 192,
                                 193, 300, 511, 512])
def test_attention_on_last_query_rows_is_bitwise_equal(t_k):
    rng = np.random.default_rng(t_k)
    q, k, v = (T.Tensor(rng.standard_normal((t_k, 16))) for _ in range(3))
    full = T.causal_attention(q, k, v, 4).data
    for t_q in sorted({1, min(2, t_k), t_k // 2 + 1, t_k}):
        part = T.causal_attention(T.Tensor(q.data[-t_q:]), k, v, 4).data
        assert np.array_equal(part, full[-t_q:]), (t_k, t_q)


# three key blocks, the last one holding 2 keys; and eight blocks, past which
# numpy's np.sum over the block axis would regroup the block sums pairwise
@pytest.mark.parametrize("t", [2 * T.KEY_BLOCK + 2, 8 * T.KEY_BLOCK])
def test_attention_on_every_prefix_is_bitwise_equal(t):
    rng = np.random.default_rng(t)
    q, k, v = (rng.standard_normal((t, 16)).astype(np.float32)
               for _ in range(3))
    full = T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4).data
    for n in range(1, t + 1):
        prefix = T.causal_attention(T.Tensor(q[:n]), T.Tensor(k[:n]),
                                    T.Tensor(v[:n]), 4).data
        assert np.array_equal(prefix, full[:n]), n


def test_attention_bitwise_tests_pass_on_one_blas_thread():
    # a row's tiles must give the same bits on one BLAS thread as on several
    run_on_one_blas_thread(
        "test_attention_on_last_query_rows_is_bitwise_equal",
        "test_attention_on_every_prefix_is_bitwise_equal")


def test_attention_rejects_more_queries_than_keys():
    rng = np.random.default_rng(3)
    q, kv = T.Tensor(rng.standard_normal((3, 8))), T.Tensor(rng.standard_normal((2, 8)))
    with pytest.raises(DimensionError):
        T.causal_attention(q, kv, kv, 2)


def test_rotary_offset_is_bitwise_equal_to_slicing():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 16)).astype(np.float32)
    full = T.rotary(T.Tensor(x), 4).data
    for s in (0, 1, 7, 128, 299):
        part = T.rotary(T.Tensor(x[s:]), 4, offset=s).data
        assert np.array_equal(part, full[s:]), s


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
