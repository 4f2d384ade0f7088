"""Autograd core: forward oracles and finite-difference gradient checks."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moetune import tensor as T
from moetune.errors import (
    ConfigError,
    DimensionError,
    EmptyMaskError,
    NumericError,
    RankError,
    TapeError,
    VocabError,
)

from gradcheck import gradient_check, mul, sum_all


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
# swiglu against the masked-sigmoid silu-then-mul it replaced


def masked_sigmoid(x):
    """The masked stable sigmoid that silu used before swiglu."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu_then_mul(x, u, g):
    """Forward and gradients of the silu op followed by a mul op, evaluated
    in the order that tape did: mul hands g * u to silu, which multiplies by
    sig * (1 + x * (1 - sig))."""
    sig = masked_sigmoid(x)
    act = x * sig
    return act * u, g * u * sig * (1.0 + x * (1.0 - sig)), g * act


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_swiglu_is_bitwise_silu_then_mul(dtype):
    rng = np.random.default_rng(24)
    for _ in range(20):
        rows, sigma = int(rng.integers(1, 506)), float(rng.uniform(0.1, 100.0))
        shape = (rows, int(rng.choice([16, 64, 256])))
        x = T.Tensor(rng.standard_normal(shape) * sigma, requires_grad=True,
                     dtype=dtype)
        u = T.Tensor(rng.standard_normal(shape), requires_grad=True,
                     dtype=dtype)
        g = T.Tensor(rng.standard_normal(shape), dtype=dtype)
        out = T.swiglu(x, u)
        sum_all(mul(out, g)).backward()
        want_out, want_gx, want_gu = silu_then_mul(x.data, u.data, g.data)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_gx)
        assert np.array_equal(u.grad, want_gu)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_swiglu_is_finite_at_large_magnitudes(dtype):
    x = T.Tensor([[1e4, -1e4, 0.0, -0.0]], requires_grad=True, dtype=dtype)
    u = T.Tensor([[2.0, -3.0, 5.0, 7.0]], requires_grad=True, dtype=dtype)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        out = T.swiglu(x, u)
        sum_all(out).backward()
    assert np.array_equal(out.data, [[2e4, 0.0, 0.0, 0.0]])
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(u.grad))
    assert np.array_equal(u.grad, [[1e4, 0.0, 0.0, 0.0]])


def test_swiglu_shape_mismatch():
    with pytest.raises(DimensionError):
        T.swiglu(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# lora_linear against the six-op chain it replaced


def dropout(x, p, rng):
    """The inverted-dropout op that the adapter branch used before
    lora_linear, kept here as the chain's oracle."""
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    factor = x.data.dtype.type(1.0 / (1.0 - p))

    def backward(g):
        T._accum(x, g * keep * factor)

    return T.Tensor._from_op(x.data * keep * factor, (x,), backward, "dropout")


def lora_chain(x, w, a, b, scaling, p, rng):
    """matmul, dropout, matmul, matmul, scale, add: the adapted projection
    as the tape recorded it before lora_linear."""
    h = dropout(x, p, rng) if p > 0 else x
    branch = T.scale(T.matmul(T.matmul(h, a), b), scaling)
    return T.add(T.matmul(x, w), branch)


def lora_operands(rng, rows, dtype, x_grad, w_grad, d_in=128, d_out=256,
                  rank=8):
    x = T.Tensor(rng.standard_normal((rows, d_in)), requires_grad=x_grad,
                 dtype=dtype)
    w = T.Tensor(rng.standard_normal((d_in, d_out)) * 0.1,
                 requires_grad=w_grad, dtype=dtype)
    a = T.Tensor(rng.normal(0.0, 0.02, (d_in, rank)), requires_grad=True,
                 dtype=dtype)
    b = T.Tensor(rng.standard_normal((rank, d_out)), requires_grad=True,
                 dtype=dtype)
    return x, w, a, b


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 130, 505])
@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("needs_grad", ["adapter", "x", "x and w"])
def test_lora_linear_is_bitwise_the_six_op_chain(rows, p, needs_grad):
    scaling = 16.0 / 3.0
    grads = []
    outs = []
    for op in (lora_chain, T.lora_linear):
        rng = np.random.default_rng(rows)
        x, w, a, b = lora_operands(rng, rows, np.float32,
                                   x_grad=needs_grad != "adapter",
                                   w_grad=needs_grad == "x and w")
        g = T.Tensor(rng.standard_normal((rows, 256)), dtype=np.float32)
        # a gradient that is already there makes the order of the two
        # shares x gets show in its bits
        for t in (x, w, a, b):
            if t.requires_grad:
                t.grad = rng.standard_normal(t.shape).astype(np.float32)
        out = op(x, w, a, b, scaling, p, np.random.default_rng(5))
        sum_all(mul(out, g)).backward()
        outs.append(out.data)
        grads.append([t.grad for t in (x, w, a, b)])
    assert outs[0].tobytes() == outs[1].tobytes()
    for want, got in zip(*grads):
        assert (want is None) == (got is None)
        if want is not None:
            assert want.tobytes() == got.tobytes()


def test_lora_linear_without_a_generator_is_bitwise_the_p0_call():
    outs, grads = [], []
    for p in (0.0, 0.3):
        x, w, a, b = lora_operands(np.random.default_rng(28), 9, np.float32,
                                   x_grad=True, w_grad=False)
        out = T.lora_linear(x, w, a, b, 2.0, p, None)
        sum_all(out).backward()
        outs.append(out.data.tobytes())
        grads.append([t.grad.tobytes() for t in (x, a, b)])
    assert outs[0] == outs[1] and grads[0] == grads[1]


def test_lora_linear_keeps_dropout_as_a_bool_mask():
    # test_lora_linear_is_bitwise_the_six_op_chain checks the gradients
    # against the f32 keep mask of the chain's dropout op
    x, w, a, b = lora_operands(np.random.default_rng(29), 130, np.float32,
                               x_grad=True, w_grad=False)
    out = T.lora_linear(x, w, a, b, 2.0, 0.3, np.random.default_rng(5))
    held = [c.cell_contents for c in out._backward.__closure__]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    assert not [v for v in arrays
                if v.shape == x.shape and v.dtype == np.float32]
    (mask,) = [v for v in arrays if v.shape == x.shape]
    assert mask.dtype == np.bool_
    want = np.random.default_rng(5).random(x.shape) >= 0.3
    assert np.array_equal(mask, want)


def test_grad_lora_linear():
    rng = np.random.default_rng(25)
    x, w, a, b = (rand64(rng, 5, 6), rand64(rng, 6, 4), rand64(rng, 6, 2),
                  rand64(rng, 2, 4))
    ref = rand64(rng, 5, 4)

    def loss():
        # same generator seed each call keeps the mask fixed for the check
        out = T.lora_linear(x, w, a, b, 1.5, 0.4, np.random.default_rng(7))
        return sum_all(mul(out, ref))

    check(loss, [x, w, a, b])


def test_lora_linear_raises_on_a_non_finite_branch_or_base():
    rng = np.random.default_rng(26)
    x, w, a, b = lora_operands(rng, 9, np.float32, x_grad=True, w_grad=False)
    b.data[0, 3] = np.nan
    with pytest.raises(NumericError):
        T.lora_linear(x, w, a, b, 2.0, 0.0, None)
    b.data[0, 3] = 0.0
    w.data[:] = 3e38
    with pytest.raises(NumericError):
        T.lora_linear(x, w, a, b, 2.0, 0.05, np.random.default_rng(0))


def test_lora_linear_shape_mismatch():
    rng = np.random.default_rng(27)
    x, w, a, b = lora_operands(rng, 3, np.float32, False, False, 6, 4, 2)
    for args in [(x, w, a, T.Tensor(np.ones((3, 4)))),
                 (x, w, T.Tensor(np.ones((5, 2))), b),
                 (x, T.Tensor(np.ones((6, 5))), a, b),
                 (T.Tensor(np.ones(6)), w, a, b)]:
        with pytest.raises(DimensionError):
            T.lora_linear(*args, 2.0, 0.0, None)


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


@pytest.mark.parametrize("mask", [[2, 0, 1], [-1, 1, 1], [0.5, 1, 1],
                                  [np.nan, 1, 1]])
def test_cross_entropy_mask_values_other_than_0_and_1_raise(mask):
    # a 2 would weight its position twice, a -1 would subtract it
    with pytest.raises(ConfigError):
        T.masked_cross_entropy(T.Tensor(np.zeros((3, 4))), [0, 1, 2], mask)


def test_cross_entropy_bad_target_raises():
    with pytest.raises(VocabError):
        T.masked_cross_entropy(T.Tensor(np.zeros((1, 4))), [4], [1])


# ---------------------------------------------------------------------------
# backward basics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_elementwise_square():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    sum_all(mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RankError):
        mul(x, x).backward()


def test_backward_without_a_tape_raises():
    with pytest.raises(TapeError):
        sum_all(T.Tensor(np.ones(3))).backward()
    w = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_tape():
        loss = sum_all(T.matmul(w, w))
    assert not loss.requires_grad and loss._parents == ()
    assert loss._backward is None
    with pytest.raises(TapeError):
        loss.backward()
    assert w.grad is None


def test_no_tape_nests_and_restores_recording_on_error():
    w = T.Tensor(np.ones((2, 2)), requires_grad=True)

    def records() -> bool:
        return T.matmul(w, w).requires_grad

    with T.no_tape():
        with T.no_tape():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(NumericError):
        with T.no_tape():
            T.scale(w, np.inf)
    assert records()


def test_first_gradient_is_bitwise_zeros_plus_g_and_a_copy():
    g = np.array([-0.0, 0.0, np.nan, -1.5, np.inf], dtype=np.float32)
    x = T.Tensor(np.ones(5), requires_grad=True)
    T._accum(x, g)
    want = np.zeros(5, dtype=np.float32)
    want += g
    assert x.grad.tobytes() == want.tobytes()
    T._accum(x, g)
    assert g[3] == -1.5  # the stored gradient does not alias g


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    w = T.Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    x = T.Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)

    def run():
        w.grad = None
        x.grad = None
        sum_all(T.swiglu(T.matmul(x, w), x)).backward()
        return w.grad.copy(), x.grad.copy()

    gw1, gx1 = run()
    gw2, gx2 = run()
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gx1, gx2)

    # attention over three row blocks, with cached keys before the queries:
    # the key and value gradients are sums over the row blocks
    q = T.Tensor(rng.standard_normal((130, 16)).astype(np.float32),
                 requires_grad=True)
    k, v = (T.Tensor(rng.standard_normal((200, 16)).astype(np.float32),
                     requires_grad=True) for _ in range(2))
    g = T.Tensor(rng.standard_normal((130, 16)).astype(np.float32))

    def run_attention():
        for t in (q, k, v):
            t.grad = None
        sum_all(mul(T.causal_attention(q, k, v, 4), g)).backward()
        return [t.grad.tobytes() for t in (q, k, v)]

    assert run_attention() == run_attention()


def test_grad_accumulates_across_backward_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    sum_all(x).backward()
    sum_all(x).backward()
    assert np.allclose(x.grad, [2.0, 2.0])


def test_overflow_is_an_error():
    big = T.Tensor(np.full((2, 2), 3e38), requires_grad=True)
    with pytest.raises(NumericError):
        mul(big, big)


def test_add_overflow_outside_a_forward_raises_naming_add():
    big = T.Tensor(np.full((2, 2), 3e38))
    with pytest.raises(NumericError, match="^add produced non-finite"):
        T.add(big, big)


def test_no_op_checks_skips_op_checks_nests_and_restores_on_error():
    big = T.Tensor(np.full((2, 2), 3e38))
    with T.no_op_checks():
        with T.no_op_checks():
            assert np.isinf(T.add(big, big).data).all()
        out = T.add(big, big)  # bitwise the checked op's values
        with pytest.raises(NumericError, match="^the sum produced"):
            T.check_finite(out.data, "the sum")  # checks inside the context
        with pytest.raises(RuntimeError):
            with T.no_op_checks():
                raise RuntimeError
        assert np.isinf(T.add(big, big).data).all()
    with pytest.raises(NumericError, match="^add"):
        T.add(big, big)


# ---------------------------------------------------------------------------
# finite-difference checks, one per kernel (float64 oracle)


def check(loss_fn, params):
    return gradient_check(loss_fn, params, eps=1e-3, rtol=1e-3)


def test_grad_add_mul_scale():
    rng = np.random.default_rng(10)
    a, b = rand64(rng, 3, 4), rand64(rng, 3, 4)
    check(lambda: sum_all(mul(T.add(a, b), b)), [a, b])
    check(lambda: sum_all(T.scale(a, 1.7)), [a])


def test_grad_matmul():
    rng = np.random.default_rng(11)
    a, b = rand64(rng, 3, 5), rand64(rng, 5, 2)
    check(lambda: sum_all(mul(T.matmul(a, b), T.matmul(a, b))), [a, b])


def test_grad_embedding():
    # the model's token lookup is index_rows on the embedding table
    rng = np.random.default_rng(13)
    table = rand64(rng, 7, 4)
    ids = [3, 1, 3, 0]  # repeated id exercises scatter-add
    check(lambda: sum_all(mul(T.index_rows(table, ids),
                                T.index_rows(table, ids))), [table])


def test_grad_softmaxes():
    rng = np.random.default_rng(14)
    x = rand64(rng, 4, 6)
    w = rand64(rng, 4, 6)
    mask = (rng.random((4, 6)) < 0.5).astype(np.float64)
    mask[:, 0] = 1  # every row selects something
    check(lambda: sum_all(mul(T.masked_row_softmax(x, mask), w)), [x])


def test_grad_norms():
    rng = np.random.default_rng(15)
    x, w = rand64(rng, 4, 8), rand64(rng, 8)
    check(lambda: sum_all(mul(T.rms_norm(x, w), T.rms_norm(x, w))), [x, w])


def test_grad_activations():
    rng = np.random.default_rng(16)
    x, u = rand64(rng, 5, 5), rand64(rng, 5, 5)
    check(lambda: sum_all(T.swiglu(x, u)), [x, u])
    check(lambda: sum_all(T.swiglu(x, x)), [x])


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
        check(lambda: sum_all(mul(T.causal_attention(q, k, v, 2), w)),
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


# (T_q, T_k) on both sides of the edges of the KEY_BLOCK-row blocks; an id
# that names one number has T_k = 300
GRAD_LENGTHS = {"300": (300, 300), "1": (1, 300), "63": (63, 300),
                "64": (64, 300), "65": (65, 300), "130-130": (130, 130),
                "505-505": (505, 505)}


@pytest.mark.parametrize("t_q, t_k", list(GRAD_LENGTHS.values()),
                         ids=list(GRAD_LENGTHS))
def test_attention_grads_at_length_match_einsum64(t_q, t_k):
    rng = np.random.default_rng(t_q)
    q = T.Tensor(rng.standard_normal((t_q, 128)), requires_grad=True)
    k, v = (T.Tensor(rng.standard_normal((t_k, 128)), requires_grad=True)
            for _ in range(2))
    g = T.Tensor(rng.standard_normal((t_q, 128)))
    sum_all(mul(T.causal_attention(q, k, v, 4), g)).backward()
    want = attention_grads_einsum64(q.data, k.data, v.data, g.data, 4)
    for name, got, ref in zip("qkv", (q.grad, k.grad, v.grad), want):
        # f32 rounding is relative to the largest entries, not to each entry
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5,
                                   atol=1e-5 * np.abs(ref).max(), err_msg=name)


def attention_whole_matrix(q, k, v, n_heads):
    """The tiled forward of causal_attention as it ran before row blocks,
    kept here as the oracle: every query tile meets every key block of the
    [H, T_q, T_k] matrix, those above the diagonal adding exact zeros.
    Returns the output and the [H, T_q, T_k] weights."""
    (t_q, d), t_k = q.shape, k.shape[0]
    hd = d // n_heads
    tile, kb = T.TILE, T.KEY_BLOCK
    n_qt, n_kb = -(-t_q // tile), -(-t_k // kb)
    tq_pad, tk_pad = n_qt * tile, n_kb * kb
    qp = np.zeros((tq_pad, d), dtype=np.float32)
    np.multiply(q, np.float32(1.0 / math.sqrt(hd)), out=qp[:t_q])
    kp = np.zeros((tk_pad, d), dtype=np.float32)
    kp[:t_k] = k
    vp = np.zeros((tk_pad, d), dtype=np.float32)
    vp[:t_k] = v
    q_tiles = qp.reshape(n_qt, tile, n_heads, hd).transpose(2, 0, 1, 3)
    k_blocks = kp.reshape(n_kb, kb, n_heads, hd).transpose(2, 0, 3, 1)
    v_blocks = vp.reshape(n_kb, kb, n_heads, hd).transpose(2, 0, 1, 3)
    attn = np.empty((n_heads, tq_pad, tk_pad), dtype=np.float32)
    a_tiles = attn.reshape(n_heads, n_qt, tile, n_kb, kb)
    a_tiles = a_tiles.transpose(0, 1, 3, 2, 4)
    np.matmul(q_tiles[:, :, None], k_blocks[:, None], out=a_tiles)
    q_pos = t_k - t_q + np.arange(tq_pad)
    np.copyto(attn, -np.inf, where=np.arange(tk_pad) > q_pos[:, None])
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    block_sums = attn.reshape(n_heads, tq_pad, n_kb, kb).sum(axis=3)
    total = block_sums[:, :, 0].copy()
    for b in range(1, n_kb):
        total += block_sums[:, :, b]
    attn /= total[:, :, None]
    pv = a_tiles @ v_blocks[:, None]
    out_h = pv[:, :, 0].copy()
    for b in range(1, n_kb):
        out_h += pv[:, :, b]
    out = (out_h.reshape(n_heads, tq_pad, hd)[:, :t_q]
           .transpose(1, 0, 2).reshape(t_q, d))
    return out, attn[:, :t_q, :t_k]


def attention_whole_matrix_grads(q, k, v, g, attn, n_heads):
    """The backward of causal_attention as it ran before row blocks: four
    batched products over the whole [H, T_q, T_k] weights."""
    (t_q, d), t_k = q.shape, k.shape[0]
    hd = d // n_heads
    qh, kh, vh, gh = (x.reshape(len(x), n_heads, hd).transpose(1, 0, 2)
                      for x in (q, k, v, g))
    gv = attn.transpose(0, 2, 1) @ gh
    da = gh @ vh.transpose(0, 2, 1)
    dot = (da * attn).sum(axis=2, keepdims=True)
    ds = attn * (da - dot) * (1.0 / math.sqrt(hd))
    gq = ds @ kh
    gk = ds.transpose(0, 2, 1) @ qh
    return [x.transpose(1, 0, 2).reshape(-1, d) for x in (gq, gk, gv)]


@pytest.mark.parametrize("t_k", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300,
                                 505, 511, 512])
def test_attention_forward_is_bitwise_the_whole_matrix_forward(t_k):
    rng = np.random.default_rng(t_k)
    q, k, v = (rng.standard_normal((t_k, 128)).astype(np.float32)
               for _ in range(3))
    # T_q < T_k: the queries follow T_k - T_q cached positions
    for t_q in sorted({1, min(2, t_k), t_k // 2 + 1, t_k}):
        got = T.causal_attention(T.Tensor(q[-t_q:]), T.Tensor(k),
                                 T.Tensor(v), 4).data
        want = attention_whole_matrix(q[-t_q:], k, v, 4)[0]
        # uint32 views: a signed zero counts as a difference
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
            (t_k, t_q)


# One row block: the backward reads the same weights in the same shapes as
# the whole-matrix backward, so its gradients are bitwise those.
@pytest.mark.parametrize("t_q", [1, 8, 63, T.KEY_BLOCK])
@pytest.mark.parametrize("cached", [0, 237])
def test_attention_grads_on_one_row_block_are_bitwise_the_whole_matrix(
        t_q, cached):
    rng = np.random.default_rng(t_q + cached)
    t_k = t_q + cached
    q = rng.standard_normal((t_q, 128)).astype(np.float32)
    k, v = (rng.standard_normal((t_k, 128)).astype(np.float32)
            for _ in range(2))
    g = rng.standard_normal((t_q, 128)).astype(np.float32)
    before = [rng.standard_normal(x.shape).astype(np.float32)
              for x in (q, k, v)]
    tensors = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
    for t, x in zip(tensors, before):
        t.grad = x.copy()
    out = T.causal_attention(*tensors, 4)
    out._backward(g)
    attn = attention_whole_matrix(q, k, v, 4)[1]
    want = attention_whole_matrix_grads(q, k, v, g, attn, 4)
    for name, t, x, w in zip("qkv", tensors, before, want):
        assert np.array_equal(t.grad.view(np.uint32), (x + w).view(np.uint32)), name


def attention_row_block_grads(q, k, v, g, attn, n_heads):
    """The backward of causal_attention as it ran on one [H, T_q, T_k]
    weights array: the same row blocks and products, each block reading its
    rows of the whole matrix."""
    (t_q, d), t_k = q.shape, k.shape[0]
    hd = d // n_heads
    qh, kh, vh, gh = (x.reshape(len(x), n_heads, hd).transpose(1, 0, 2)
                      for x in (q, k, v, g))
    gq = np.empty((t_q, n_heads, hd), dtype=np.float32)
    gk, gv = (np.zeros((t_k, n_heads, hd), dtype=np.float32) for _ in range(2))
    gq_h, gk_h, gv_h = (x.transpose(1, 0, 2) for x in (gq, gk, gv))
    ds_buf = np.empty((n_heads, min(T.KEY_BLOCK, t_q), t_k), dtype=np.float32)
    for i0 in range(0, t_q, T.KEY_BLOCK):
        i1 = min(i0 + T.KEY_BLOCK, t_q)
        kend = t_k - t_q + i1
        w = attn[:, i0:i1, :kend]
        g_b = gh[:, i0:i1]
        gv_h[:, :kend] += w.transpose(0, 2, 1) @ g_b
        ds = ds_buf[:, :i1 - i0, :kend]
        np.matmul(g_b, vh[:, :kend].transpose(0, 2, 1), out=ds)
        ds -= (ds * w).sum(axis=2, keepdims=True)
        ds *= w
        ds *= np.float32(1.0 / math.sqrt(hd))
        np.matmul(ds, kh[:, :kend], out=gq_h[:, i0:i1])
        gk_h[:, :kend] += ds.transpose(0, 2, 1) @ qh[:, i0:i1]
    return [x.reshape(-1, d) for x in (gq, gk, gv)]


# Several row blocks: the per-block weights hold the bits of the whole
# matrix's rows, so the gradients are those of the backward that read it.
@pytest.mark.parametrize("t_q, t_k", [(65, 65), (130, 200), (300, 300),
                                      (505, 505), (129, 511)])
def test_attention_grads_over_row_blocks_are_bitwise_the_whole_matrix_ones(
        t_q, t_k):
    rng = np.random.default_rng(t_q * t_k)
    q = rng.standard_normal((t_q, 128)).astype(np.float32)
    k, v = (rng.standard_normal((t_k, 128)).astype(np.float32)
            for _ in range(2))
    g = rng.standard_normal((t_q, 128)).astype(np.float32)
    tensors = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
    T.causal_attention(*tensors, 4)._backward(g)
    attn = attention_whole_matrix(q, k, v, 4)[1]
    want = attention_row_block_grads(q, k, v, g, attn, 4)
    for name, t, w in zip("qkv", tensors, want):
        assert np.array_equal(t.grad.view(np.uint32), w.view(np.uint32)), name


def test_attention_backward_allocates_less_than_its_weights():
    t, d, n_heads = 505, 128, 4
    rng = np.random.default_rng(9)
    q, k, v = (T.Tensor(rng.standard_normal((t, d)), requires_grad=True)
               for _ in range(3))
    for x in (q, k, v):
        x.grad = np.zeros_like(x.data)
    out = T.causal_attention(q, k, v, n_heads)
    g = rng.standard_normal((t, d)).astype(np.float32)
    tracemalloc.start()
    try:
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [H, T_q, T_k] f32 array is 4.1 MB here
    assert peak < n_heads * t * t * 4, peak


def test_attention_keeps_the_lower_triangle_for_its_backward_only():
    # 505 rows: 8 row blocks, block b's weights [4, 64, 64 (b + 1)]
    t, d, n_heads = 505, 128, 4
    rng = np.random.default_rng(9)
    q, k, v = (T.Tensor(rng.standard_normal((t, d)), requires_grad=True)
               for _ in range(3))
    retained, peaks = [], []
    for recording in (True, False):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if recording:
                out = T.causal_attention(q, k, v, n_heads)
            else:
                with T.no_tape():
                    out = T.causal_attention(q, k, v, n_heads)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained.append(now - before)
        peaks.append(peak - before)
        del out
    triangle = n_heads * T.KEY_BLOCK * T.KEY_BLOCK * 4 * sum(range(1, 9))
    whole = n_heads * 512 * 512 * 4
    assert triangle < whole * 0.6
    # the tape's closure holds the row blocks' weights and nothing more
    assert triangle <= retained[0] - retained[1] < triangle + 16384, retained
    # without a tape the op never holds two blocks' weights at once
    assert peaks[1] < triangle, peaks


def zero_padded(x, rows):
    buf = np.zeros((rows, x.shape[1]), dtype=x.dtype)
    buf[:len(x)] = x
    return buf


# key counts on both sides of the key-block edges; buffers of the next
# multiple of KEY_BLOCK rows and of 2 blocks more, as a cache has
@pytest.mark.parametrize("t_k", [1, 7, 63, 64, 65, 128, 129, 300, 505])
def test_attention_reads_a_zero_padded_buffer_in_place_bitwise(t_k):
    rng = np.random.default_rng(t_k)
    q, k, v = (rng.standard_normal((t_k, 128)).astype(np.float32)
               for _ in range(3))
    edge = -(-t_k // T.KEY_BLOCK) * T.KEY_BLOCK
    for t_q in sorted({1, min(2, t_k), t_k // 2 + 1, t_k}):
        want = T.causal_attention(T.Tensor(q[-t_q:]), T.Tensor(k),
                                  T.Tensor(v), 4).data
        for rows in (edge, edge + 2 * T.KEY_BLOCK):
            kb, vb = (T.Tensor(zero_padded(x, rows)) for x in (k, v))
            got = T.causal_attention(T.Tensor(q[-t_q:]), kb, vb, 4, t_k).data
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
                (t_k, t_q, rows)


@pytest.mark.parametrize("t_q, t_k", [(1, 70), (65, 130), (130, 130)])
def test_attention_grads_through_a_buffer_are_the_keys_grads_then_zeros(
        t_q, t_k):
    rng = np.random.default_rng(t_q + t_k)
    q, k, v = (rng.standard_normal((n, 16)).astype(np.float32)
               for n in (t_q, t_k, t_k))
    g = rng.standard_normal((t_q, 16)).astype(np.float32)
    rows = -(-t_k // T.KEY_BLOCK) * T.KEY_BLOCK + T.KEY_BLOCK
    grads = []
    for kk, vv, n in ((k, v, None),
                      (zero_padded(k, rows), zero_padded(v, rows), t_k)):
        ts = [T.Tensor(x, requires_grad=True) for x in (q, kk, vv)]
        T.causal_attention(*ts, 4, n)._backward(g)
        grads.append([t.grad for t in ts])
    (gq, gk, gv), (bq, bk, bv) = grads
    assert bk.shape == bv.shape == (rows, 16)
    assert np.array_equal(bq, gq)
    assert np.array_equal(bk[:t_k], gk) and np.array_equal(bv[:t_k], gv)
    assert not bk[t_k:].any() and not bv[t_k:].any()


def test_attention_rejects_a_key_count_outside_the_buffer():
    x = T.Tensor(np.ones((64, 8)))
    q = T.Tensor(np.ones((3, 8)))
    for t_k in (2, 65):  # fewer keys than queries, more than rows
        with pytest.raises(DimensionError):
            T.causal_attention(q, x, x, 2, t_k)


def test_a_key_above_the_diagonal_reaches_its_own_row():
    # Rows before position j mask key j out, so a NaN key j leaves them
    # finite; but row j attends to it, so it reaches that row's output,
    # which a forward that outputs every row checks.
    rng = np.random.default_rng(31)
    t, j = 130, 70
    q, k, v = (rng.standard_normal((t, 16)).astype(np.float32)
               for _ in range(3))
    k[j, 5] = np.nan
    with T.no_op_checks():
        out = T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4).data
    finite = np.isfinite(out).all(axis=1)
    assert finite[:j].all() and not finite[j:].any()
    with pytest.raises(NumericError, match="causal_attention"):
        T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4)


def test_an_infinite_key_that_scores_minus_inf_vanishes_from_the_output():
    # An Inf key whose score is -Inf in every row that sees it gets weight
    # exactly 0 there: no output row shows it. So the decoder checks the
    # keys themselves (tests/test_model.py).
    rng = np.random.default_rng(32)
    t, j = 130, 70
    q, k, v = (rng.standard_normal((t, 16)).astype(np.float32)
               for _ in range(3))
    q[:, 5] = np.abs(q[:, 5]) + 0.1  # every query positive on channel 5
    k[j, 5] = -np.inf
    with T.no_op_checks(), np.errstate(invalid="ignore"):
        out = T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4).data
    assert np.isfinite(out).all()


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
        "test_attention_on_every_prefix_is_bitwise_equal",
        "test_attention_reads_a_zero_padded_buffer_in_place_bitwise",
        "test_attention_forward_is_bitwise_the_whole_matrix_forward",
        "test_attention_grads_on_one_row_block_are_bitwise_the_whole_matrix",
        "test_attention_grads_over_row_blocks_are_bitwise_the_whole_matrix_ones")


def test_attention_rejects_more_queries_than_keys():
    rng = np.random.default_rng(3)
    q, kv = T.Tensor(rng.standard_normal((3, 8))), T.Tensor(rng.standard_normal((2, 8)))
    with pytest.raises(DimensionError):
        T.causal_attention(q, kv, kv, 2)


def test_rotary_offset_is_bitwise_equal_to_slicing():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 16)).astype(np.float32)
    cos, sin = T.rotary_table(300, 4, 10000.0)
    full = T.rotary(T.Tensor(x), cos, sin).data
    for s in (0, 1, 7, 128, 299):
        part = T.rotary(T.Tensor(x[s:]), cos[s:], sin[s:]).data
        assert np.array_equal(part, full[s:]), s


def test_grad_rotary():
    rng = np.random.default_rng(19)
    x = rand64(rng, 6, 8)
    w = rand64(rng, 6, 8)
    cos, sin = T.rotary_table(6, 4, 10000.0)
    check(lambda: sum_all(mul(T.rotary(x, cos, sin), w)), [x])


def test_rotary_is_orthogonal():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((7, 8)).astype(np.float32)
    y = T.rotary(T.Tensor(x), *T.rotary_table(7, 4, 10000.0)).data
    assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1),
                       atol=1e-5)


def test_rotary_table_row_is_the_angles_of_its_position_alone():
    cos, sin = T.rotary_table(512, 32, 10000.0)
    assert cos.shape == sin.shape == (512, 16)
    assert cos.dtype == sin.dtype == np.float32
    inv_freq = 10000.0 ** (-np.arange(0, 32, 2, dtype=np.float64) / 32)
    for p in range(512):
        angles = np.array([float(p)])[:, None] * inv_freq[None, :]
        assert np.array_equal(cos[p], np.cos(angles)[0].astype(np.float32)), p
        assert np.array_equal(sin[p], np.sin(angles)[0].astype(np.float32)), p


@pytest.mark.parametrize("cos_shape, sin_shape", [
    ((5, 2), (5, 2)),   # fewer table rows than x has
    ((7, 2), (7, 2)),   # more
    ((6, 3), (6, 3)),   # head dim 6 does not divide d = 8
    ((6, 0), (6, 0)),   # no angles at all
    ((6, 2), (6, 1))])  # sin not the shape of cos
def test_rotary_rejects_rows_that_do_not_match_x(cos_shape, sin_shape):
    x = T.Tensor(np.ones((6, 8), dtype=np.float32))
    with pytest.raises(DimensionError):
        T.rotary(x, np.ones(cos_shape, dtype=np.float32),
                 np.ones(sin_shape, dtype=np.float32))


def test_grad_row_routing_ops():
    rng = np.random.default_rng(21)
    x = rand64(rng, 6, 4)
    for idx in ([4, 0, 4, 2],  # a repeated row exercises the scatter-add
                [0, 2, 5]):    # increasing rows, as an expert's
        check(lambda: sum_all(mul(T.index_rows(x, idx),
                                  T.index_rows(x, idx))), [x])
    # row 2 is picked by two parts, part 1 has one row, column 1 gets none
    gates = rand64(rng, 6, 4)
    ys = [rand64(rng, 3, 4), rand64(rng, 1, 4), rand64(rng, 2, 4)]
    rows = [np.array([4, 0, 2]), np.array([5]), np.array([2, 3])]
    w = rand64(rng, 6, 4)

    def loss():
        parts = [(0, rows[0], ys[0]), (2, rows[1], ys[1]), (3, rows[2], ys[2])]
        return sum_all(mul(T.combine_rows(gates, parts, 6), w))

    check(loss, [gates, *ys])


@pytest.mark.parametrize("grad_before", [False, True])
def test_index_rows_backward_on_increasing_rows_is_bitwise_add_at(grad_before):
    # rows with no repeat, as an expert's, skip np.add.at; -0 entries in
    # the incoming and the existing gradient keep their signs as there
    rng = np.random.default_rng(27)
    rows = np.sort(rng.choice(100, 25, replace=False))
    g = rng.standard_normal((25, 16)).astype(np.float32)
    g[::2, :3] = -0.0
    x = T.Tensor(np.zeros((100, 16)), requires_grad=True)
    want = np.zeros((100, 16), dtype=np.float32)
    if grad_before:
        x.grad = rng.standard_normal((100, 16)).astype(np.float32)
        x.grad[rows[1::2], :6] = -0.0
        want = x.grad.copy()
    np.add.at(want, rows, g)
    T.index_rows(x, rows)._backward(g)
    assert x.grad.tobytes() == want.tobytes()


def test_combine_rows_rejects_no_parts_and_misshapen_parts():
    gates = T.Tensor(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        T.combine_rows(gates, [], 4)
    y = T.Tensor(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        T.combine_rows(gates, [(0, np.array([0, 1]), y),
                               (1, np.array([2]), y)], 4)


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(22)
    x = rand64(rng, 5, 5)
    # a zero base leaves the dropout path as x's only path to the loss
    w = t64(np.zeros((5, 5)), requires_grad=False)
    a, b = rand64(rng, 5, 3), rand64(rng, 3, 5)

    def loss():
        # same generator seed each call keeps the mask fixed for the check
        out = T.lora_linear(x, w, a, b, 1.0, 0.4, np.random.default_rng(7))
        return sum_all(mul(out, x))

    check(loss, [x])


def test_grad_three_layer_mlp():
    rng = np.random.default_rng(23)
    x = rand64(rng, 4, 6)
    w1, w2, w3 = rand64(rng, 6, 8), rand64(rng, 8, 8), rand64(rng, 8, 3)
    targets = rng.integers(0, 3, 4)

    def loss():
        a1 = T.matmul(x, w1)
        h1 = T.swiglu(a1, a1)
        a2 = T.matmul(h1, w2)
        h2 = T.swiglu(a2, a2)
        return T.masked_cross_entropy(T.matmul(h2, w3), targets, [1, 1, 1, 1])

    check(loss, [x, w1, w2, w3])


def test_dropout_eval_identity():
    rng = np.random.default_rng(28)
    x, w, a, b = lora_operands(rng, 9, np.float32, True, False)
    gen = np.random.default_rng(0)
    before = gen.bit_generator.state
    out = T.lora_linear(x, w, a, b, 2.0, 0.0, gen)
    # p == 0 draws nothing and runs the branch on x itself
    assert gen.bit_generator.state == before
    want = lora_chain(x, w, a, b, 2.0, 0.0, None)
    assert out.data.tobytes() == want.data.tobytes()
