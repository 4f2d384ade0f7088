"""Blockwise 4-bit quantization: bounds, round trips, and the 4-bit Adam."""

import dataclasses
import math

import numpy as np
import pytest

from moetune import quant as Q
from moetune import tensor as T
from moetune.checkpoint import TrainState, load_checkpoint, save_checkpoint
from moetune.errors import ConfigError, DimensionError, FormatError, NumericError
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import ModelConfig, init_model

from gradcheck import sum_all


def nearest_code_oracle(values, scale):
    """Exhaustive search over the 15 codes for the closest dequant value."""
    values = np.asarray(values, dtype=np.float64)
    if scale == 0:
        return np.full(values.shape, 7, dtype=np.uint8), np.abs(values)
    grid = np.arange(-7, 8, dtype=np.float64) * np.float64(scale)  # 15 levels
    dist = np.abs(values[:, None] - grid[None, :])
    codes = dist.argmin(axis=1).astype(np.uint8)
    return codes, dist.min(axis=1)


def test_zero_block_exact():
    q = Q.quantize_4bit(np.zeros((1, 8), dtype=np.float32), block_size=8)
    assert q.scales[0] == 0.0
    assert np.array_equal(Q.dequantize(q), np.zeros((1, 8)))


def test_identity_matrix_exact_round_trip():
    m = np.eye(4, dtype=np.float32)
    q = Q.quantize_4bit(m, block_size=4)
    assert np.array_equal(Q.dequantize(q), m)  # 1 == 7 * (1/7) in f32


def test_hand_block_oracle():
    # absmax 1.0 -> scale 1/7; 0.5/scale = 3.5 rounds away from zero to 4
    m = np.array([[0.5, -1.0, 0.25, 0.0]], dtype=np.float32)
    q = Q.quantize_4bit(m, block_size=4)
    scale = q.scales[0]
    assert abs(scale - 1.0 / 7.0) < 1e-7
    codes = Q._unpack_codes(q.codes, 4)
    assert list(codes) == [4 + 7, -7 + 7, 2 + 7, 0 + 7]
    deq = Q.dequantize(q)[0]
    assert abs(deq[0] - 4.0 / 7.0) < 1e-6
    assert abs(abs(deq[0] - 0.5) - scale / 2.0) < 1e-6  # worst case: half a step
    assert deq[1] == -1.0


def test_error_bound_and_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(200):
        vals = (rng.standard_normal((1, 16)) * 10 ** rng.uniform(-3, 3)).astype(np.float32)
        q = Q.quantize_4bit(vals, block_size=16)
        deq = Q.dequantize(q)
        scale = float(q.scales[0])
        err = np.abs(deq.astype(np.float64) - vals.astype(np.float64))
        assert np.all(err <= scale / 2 * (1 + 1e-5) + 1e-30)
        _, oracle_err = nearest_code_oracle(vals[0], scale)
        assert np.all(err[0] <= oracle_err + scale * 1e-5)


def test_sign_preserving():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((4, 32)).astype(np.float32)
    deq = Q.dequantize(Q.quantize_4bit(vals, block_size=8))
    s = np.sign(deq)
    assert np.all((s == np.sign(vals)) | (s == 0))


def test_round_trip_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(50):
        vals = (rng.standard_normal((3, 40)) * 10 ** rng.uniform(-4, 4)).astype(np.float32)
        q1 = Q.quantize_4bit(vals, block_size=16)
        d1 = Q.dequantize(q1)
        q2 = Q.quantize_4bit(d1, block_size=16)
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.scales, q2.scales)
        assert np.array_equal(d1, Q.dequantize(q2))


def test_all_zero_scales_give_zero_matrix():
    q = Q.quantize_4bit(np.zeros((5, 7), dtype=np.float32))
    assert np.all(Q.dequantize(q) == 0.0)


def test_pack_unpack_bitwise():
    rng = np.random.default_rng(3)
    for n in [1, 2, 7, 64, 129]:
        codes = rng.integers(0, 15, n).astype(np.uint8)
        assert np.array_equal(Q._unpack_codes(Q._pack_codes(codes), n), codes)


def test_random_8x8_block4_bound():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((8, 8)).astype(np.float32)
    q = Q.quantize_4bit(vals, block_size=4)
    deq = Q.dequantize(q)
    scales_per = np.repeat(q.scales, 4)[:64].reshape(8, 8)
    assert np.all(np.abs(deq - vals) <= scales_per / 2 * (1 + 1e-5))


def test_quantize_rejects_nonfinite():
    bad = np.zeros((2, 2), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        Q.quantize_4bit(bad)


def test_dequantize_rejects_corrupt_code():
    q = Q.quantize_4bit(np.ones((1, 2), dtype=np.float32), block_size=2)
    q = dataclasses.replace(q, codes=np.array([0xFF], dtype=np.uint8))
    # both nibbles = 15
    with pytest.raises(FormatError):
        Q.dequantize(q)


def test_payload_size_formula():
    for rows, cols, bs in [(8, 8, 4), (3, 7, 64), (1, 1, 64), (16, 16, 64)]:
        q = Q.quantize_4bit(np.ones((rows, cols), dtype=np.float32), block_size=bs)
        n = rows * cols
        assert q.codes.nbytes == (n + 1) // 2
        assert q.scales.nbytes == 4 * ((n + bs - 1) // bs)


# ---------------------------------------------------------------------------
# qmatmul


def test_qmatmul_identity_exact():
    q = Q.quantize_4bit(np.eye(6, dtype=np.float32), block_size=4)
    x = T.Tensor(np.random.default_rng(0).standard_normal((3, 6)).astype(np.float32))
    assert np.array_equal(Q.qmatmul(x, q).data, x.data)


def test_qmatmul_zeros():
    q = Q.quantize_4bit(np.ones((4, 5), dtype=np.float32))
    x = T.Tensor(np.zeros((2, 4), dtype=np.float32))
    assert np.all(Q.qmatmul(x, q).data == 0)


def test_qmatmul_matches_dequant_matmul_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.standard_normal((6, 4)).astype(np.float32)
        q = Q.quantize_4bit(w, block_size=8)
        x = T.Tensor(rng.standard_normal((5, 6)).astype(np.float32))
        ref = T.matmul(x, T.Tensor(Q.dequantize(q)))
        assert np.array_equal(Q.qmatmul(x, q).data, ref.data)


def test_qmatmul_gradient_to_x_only():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((4, 3)).astype(np.float32)
    q = Q.quantize_4bit(w, block_size=4)
    x = T.Tensor(rng.standard_normal((2, 4)).astype(np.float32), requires_grad=True)
    sum_all(Q.qmatmul(x, q)).backward()
    assert np.allclose(x.grad, np.ones((2, 3)) @ Q.dequantize(q).T)


def test_qmatmul_shape_mismatch():
    q = Q.quantize_4bit(np.ones((4, 3), dtype=np.float32))
    with pytest.raises(DimensionError):
        Q.qmatmul(T.Tensor(np.ones((2, 5))), q)


# ---------------------------------------------------------------------------
# 4-bit Adam


def f32_adam_reference(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain f32 Adam trajectory used as the oracle."""
    p = np.array(p0, dtype=np.float32)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float32)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 4097])
def test_zero_state_is_byte_equal_to_quantizing_zeros(n):
    # the flat layout pads n to whole blocks of 64
    end = 64 * -(-n // 64)
    want = Q.quantize_4bit(np.zeros((1, end), dtype=np.float32))
    state = Q.AdamState.zeros({"p": T.Tensor(np.zeros((1, n)))})
    assert (state.names, state.sizes, state.steps) == (["p"], [n], [0])
    for got in (state.m, state.v):
        assert (got.rows, got.cols, got.block_size) == (1, end, want.block_size)
        assert got.codes.dtype == want.codes.dtype
        assert got.codes.tobytes() == want.codes.tobytes()
        assert got.scales.dtype == want.scales.dtype
        assert got.scales.tobytes() == want.scales.tobytes()


def one_param_adam(p, lr):
    """A QuantizedAdam over the one parameter `p`, which it updates in place;
    returns the optimizer and a function that sets p's gradient and steps,
    at `lr` unless it is given another."""
    t = T.Tensor(p, requires_grad=True)
    assert t.data is p
    opt = Q.QuantizedAdam({"p": t})

    def step(grad, lr=lr):
        t.grad = np.asarray(grad, dtype=np.float32)
        opt.step(lr)

    return opt, step


def test_adam_zero_grad_step_is_noop():
    p = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    opt, step = one_param_adam(p, lr=0.1)
    before = p.copy()
    step(np.zeros(3, dtype=np.float32))
    assert np.array_equal(p, before)
    assert opt.state.steps == [1]


def test_adam_scalar_one_step_matches_f32():
    # single-element blocks round-trip moments exactly, so one quantized
    # step equals the f32 oracle to f32 precision
    p = np.array([0.5], dtype=np.float32)
    g = np.array([0.3], dtype=np.float32)
    expected = f32_adam_reference(p, [g], lr=0.01)
    _, step = one_param_adam(p, lr=0.01)
    step(g)
    assert np.allclose(p, expected, atol=1e-7)


def test_adam_quadratic_trajectory_close_to_f32():
    # minimize (x - 3)^2 for 100 steps; quantized moments stay within 5%
    def run(quantized):
        x = np.array([0.0], dtype=np.float32)
        _, step = one_param_adam(x, lr=0.05)
        m = np.zeros(1, dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        for t in range(1, 101):
            g = 2.0 * (x - 3.0)
            if quantized:
                step(g)
            else:
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                x = x - 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        return float(x[0])

    xq = run(True)
    xf = run(False)
    assert abs(xq - xf) <= 0.05 * max(abs(xf), 1e-6)


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(21)
    p = rng.standard_normal(130).astype(np.float32)
    opt, step = one_param_adam(p, lr=0.01)
    for _ in range(5):
        step(rng.standard_normal(130).astype(np.float32))
        assert np.all(opt.state.v.dequant() >= 0.0)


def test_adam_rejects_nonfinite_grad():
    p = np.ones(2, dtype=np.float32)
    _, step = one_param_adam(p, lr=0.1)
    with pytest.raises(NumericError):
        step(np.array([np.inf, 0.0]))


def test_optimizer_lr_zero_leaves_params_bitwise():
    rng = np.random.default_rng(17)
    t = T.Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    before = t.data.copy()
    opt = Q.QuantizedAdam({"w": t})
    for _ in range(3):
        t.grad = rng.standard_normal((4, 4)).astype(np.float32)
        opt.step(0.0)
    assert np.array_equal(t.data, before)


def test_optimizer_skips_a_parameter_without_grad_and_keeps_its_own_step():
    # an expert no token picked has grad None: its value, moments and step
    # count stay put, and its next update bias-corrects with its own t
    rng = np.random.default_rng(19)
    a = T.Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    b = T.Tensor(rng.standard_normal((2, 5)).astype(np.float32), requires_grad=True)
    opt = Q.QuantizedAdam({"a": a, "b": b})

    def grad(t):
        return rng.standard_normal(t.data.shape).astype(np.float32)

    a.grad, b.grad = grad(a), grad(b)
    opt.step(0.01)
    kept = b.data.copy()
    sb = segment(opt.state, "b")
    moments = [arr.copy() for arr in (sb.m.codes, sb.m.scales,
                                      sb.v.codes, sb.v.scales)]

    a.grad, b.grad = grad(a), None
    opt.step(0.01)
    assert np.array_equal(b.data, kept)
    sb = segment(opt.state, "b")
    assert all(np.array_equal(x, y) for x, y in
               zip(moments, (sb.m.codes, sb.m.scales, sb.v.codes, sb.v.scales)))
    assert opt.state.steps == [2, 1]

    a.grad, b.grad = grad(a), grad(b)
    own_t = OracleState(sb.m, sb.v, step=1)
    global_t = OracleState(sb.m, sb.v, step=2)
    want, wrong = kept.copy(), kept.copy()
    per_tensor_adam_step(want, b.grad, own_t, lr=0.01)
    per_tensor_adam_step(wrong, b.grad, global_t, lr=0.01)
    opt.step(0.01)
    assert opt.state.steps == [3, 2]
    assert np.array_equal(b.data, want)
    assert not np.array_equal(b.data, wrong)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
def test_adam_step_rejects_a_nan_infinite_or_negative_lr(lr):
    p = np.ones(3, dtype=np.float32)
    opt, step = one_param_adam(p, lr=0.1)
    with pytest.raises(ConfigError):
        step(np.ones(3, dtype=np.float32), lr)
    assert np.array_equal(p, np.ones(3)) and opt.state.steps == [0]


@pytest.mark.parametrize("max_norm", [math.nan, 0.0, -1.0, "1"])
def test_adam_step_rejects_a_max_norm_that_is_not_a_number_above_0(max_norm):
    # -1 would invert the update, NaN would turn clipping off
    p = np.ones(3, dtype=np.float32)
    opt, _ = one_param_adam(p, lr=0.1)
    opt.params["p"].grad = np.ones(3, dtype=np.float32)
    codes = opt.state.m.codes.copy()
    with pytest.raises(ConfigError, match="max_norm"):
        opt.step(0.1, max_norm)
    assert np.array_equal(p, np.ones(3)) and opt.state.steps == [0]
    assert np.array_equal(opt.state.m.codes, codes)


@pytest.mark.parametrize("field, value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan), ("beta2", 1.0),
    ("beta2", math.nan), ("eps", 0.0), ("eps", -1.0), ("eps", math.nan),
    ("eps", True)])
def test_adam_rejects_betas_and_eps_that_nan_or_invert_a_step(field, value):
    # beta 1 divides by a zero bias correction; eps 0 gives 0/0 at a zero
    # gradient, eps -1 gives -inf
    t = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigError, match=field):
        Q.QuantizedAdam({"p": t}, **{field: value})


def test_adam_rejects_a_state_of_other_parameters():
    rng = np.random.default_rng(43)
    a, b = (T.Tensor(rng.standard_normal(n).astype(np.float32),
                     requires_grad=True) for n in (3, 5))
    opt = Q.QuantizedAdam({"a": a, "b": b})
    opt.state = Q.QuantizedAdam({"b": b, "a": a}).state
    a.grad = np.ones(3, dtype=np.float32)
    before = a.data.copy()
    with pytest.raises(ConfigError, match="position 0"):
        opt.step(0.1)
    assert np.array_equal(a.data, before)


def test_optimizer_names_the_parameter_with_a_nonfinite_grad_and_changes_nothing():
    rng = np.random.default_rng(23)
    params = {name: T.Tensor(rng.standard_normal(shape).astype(np.float32),
                             requires_grad=True)
              for name, shape in [("a", (3, 4)), ("b", (65, 1)), ("c", (2, 2))]}
    opt = Q.QuantizedAdam(params)
    for t in params.values():
        t.grad = rng.standard_normal(t.data.shape).astype(np.float32)
    opt.step(0.01)
    before = {n: t.data.copy() for n, t in params.items()}
    m, v = opt.state.m, opt.state.v
    moments = [arr.copy() for arr in (m.codes, m.scales, v.codes, v.scales)]
    params["b"].grad[40, 0] = np.inf
    with pytest.raises(NumericError, match="for b"):
        opt.step(0.01)
    for n, t in params.items():
        assert np.array_equal(t.data, before[n])
    assert opt.state.m is m and opt.state.v is v
    assert opt.state.steps == [1, 1, 1]
    assert all(np.array_equal(x, y) for x, y in
               zip(moments, (m.codes, m.scales, v.codes, v.scales)))


@dataclasses.dataclass
class OracleState:
    """One parameter's moments as 1 x n 4-bit matrices, and its step count:
    what the per-tensor loop kept per parameter."""

    m: Q.QuantizedMatrix
    v: Q.QuantizedMatrix
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "OracleState":
        zeros = np.zeros((1, n), dtype=np.float32)
        return cls(Q.quantize_4bit(zeros), Q.quantize_4bit(zeros))


def segment(state, name: str) -> OracleState:
    """Parameter `name`'s part of a flat Q.AdamState, as views: its moment
    bytes and block scales as 1 x n matrices, and its step count."""
    i = state.names.index(name)
    n, bs = state.sizes[i], state.m.block_size
    lo = Q.flat_offsets(state.sizes, bs)[i]
    m, v = (Q.QuantizedMatrix(1, n, bs, q.codes[lo // 2:(lo + n + 1) // 2],
                              q.scales[lo // bs:(lo + n + bs - 1) // bs])
            for q in (state.m, state.v))
    return OracleState(m, v, state.steps[i])


def per_tensor_adam_step(param, grad, state, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """The per-tensor step that QuantizedAdam.step replaced, kept as the
    oracle: dequantize both moments, update param, requantize."""
    g = np.asarray(grad, dtype=np.float32).reshape(-1)
    p = param.reshape(-1)
    m = state.m.dequant().reshape(-1)
    v = state.v.dequant().reshape(-1)
    t = state.step + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)
    state.m = Q.quantize_4bit(m.reshape(1, -1), state.m.block_size)
    state.v = Q.quantize_4bit(v.reshape(1, -1), state.m.block_size)
    state.step = t


def mixed_grad(rng, shape):
    """Gradients over six decades, some blocks with one spike, some zeros."""
    g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 2)
    flat = g.reshape(-1)
    if rng.random() < 0.3:
        flat[rng.integers(flat.size)] *= 50.0
    if rng.random() < 0.1:
        flat[: rng.integers(flat.size + 1)] = 0.0
    return g.astype(np.float32)


def assert_same_as_oracle(params, state, oracle_params, oracle_states):
    """Each parameter and its part of the flat `state` (its n codes, its
    scales and its step count) are bitwise the per-tensor oracle's."""
    assert state.names == list(params)
    for name, t in params.items():
        want, got = oracle_states[name], segment(state, name)
        assert np.array_equal(t.data.view(np.uint32),
                              oracle_params[name].view(np.uint32)), name
        assert got.step == want.step, name
        for q, w in ((got.m, want.m), (got.v, want.v)):
            assert (q.rows, q.cols, q.block_size) == (w.rows, w.cols,
                                                      w.block_size), name
            n = w.n_elements
            assert np.array_equal(Q._unpack_codes(q.codes, n),
                                  Q._unpack_codes(w.codes, n)), name
            assert q.scales.tobytes() == w.scales.tobytes(), name


def oracle_of(params):
    """Copies of `params` and zero per-tensor states, for the oracle."""
    return ({n: t.data.copy() for n, t in params.items()},
            {n: OracleState.zeros(t.data.size) for n, t in params.items()})


def run_both(params, opt, oracle_params, oracle_states, rng, steps):
    """Step the optimizer and the per-tensor oracle on the same gradients,
    skipping each parameter with probability 0.3; compare after each step."""
    for step in range(steps):
        lr = 10.0 ** rng.uniform(-4, -1)
        for name, t in params.items():
            t.grad = (None if rng.random() < 0.3
                      else mixed_grad(rng, t.data.shape))
            if t.grad is not None:
                per_tensor_adam_step(oracle_params[name], t.grad,
                                     oracle_states[name], lr)
        opt.step(lr)
        assert_same_as_oracle(params, opt.state, oracle_params, oracle_states)


def clip_gradients(params, max_norm):
    """The trainer's clipping before QuantizedAdam.step took it over, kept
    as the oracle: scale the finite gradients in place to a global norm of
    at most max_norm; returns the norm they had before."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    total = math.sqrt(total)
    if total > max_norm:
        factor = np.float32(max_norm / (total + 1e-6))
        for t in params.values():
            if t.grad is not None:
                t.grad *= factor
    return total


@pytest.mark.parametrize("max_norm, clipped", [(1e-6, True), (1e9, False)])
def test_step_clips_like_clip_then_step(max_norm, clipped):
    # odd sizes pad their segments; "c" has no gradient on odd steps
    rng = np.random.default_rng(41)
    shapes = {"a": (3, 5), "b": (65, 1), "c": (16, 8), "d": (1, 7)}
    params = {n: T.Tensor(rng.standard_normal(shape).astype(np.float32),
                          requires_grad=True) for n, shape in shapes.items()}
    oracle = {n: T.Tensor(t.data.copy(), requires_grad=True)
              for n, t in params.items()}
    opt, oracle_opt = Q.QuantizedAdam(params), Q.QuantizedAdam(oracle)
    for step in range(6):
        lr = 10.0 ** rng.uniform(-4, -1)
        grads = {n: None if n == "c" and step % 2 else mixed_grad(rng, shape)
                 for n, shape in shapes.items()}
        for n, g in grads.items():
            params[n].grad = None if g is None else g.copy()
            oracle[n].grad = None if g is None else g.copy()
        want = clip_gradients(oracle, max_norm)
        oracle_opt.step(lr)
        got = opt.step(lr, max_norm)
        assert got == want and (got > max_norm) is clipped
        assert_same_as_oracle(params, opt.state,
                              {n: t.data for n, t in oracle.items()},
                              {n: segment(oracle_opt.state, n) for n in oracle})
        assert all(g is None or np.array_equal(params[n].grad, g)
                   for n, g in grads.items())  # left unclipped
    assert opt.state.steps == [6, 6, 3, 6]


SIZES = [1, 3, 10, 63, 64, 65, 130, 1024]
TINY_CKPT = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24,
                        n_experts=2, vocab_size=262, max_seq_len=32)


def adapted(d_ff: int = 24):
    """TINY_CKPT at `d_ff` with rank-3 adapters, which alone are trainable."""
    model = init_model(dataclasses.replace(TINY_CKPT, d_ff=d_ff), seed=0)
    attach_adapters(model, LoraConfig(rank=3), seed=0)
    return model


def reloaded(path, model, state) -> TrainState:
    """load(save(...)) of `model` with the optimizer state `state`."""
    save_checkpoint(TrainState(model=model, optim_state=state), path)
    return load_checkpoint(path)


def test_flat_pass_is_bitwise_the_per_tensor_loop(tmp_path):
    rng = np.random.default_rng(29)
    params = {f"p{n}": T.Tensor(rng.standard_normal((1, n)).astype(np.float32),
                                requires_grad=True) for n in SIZES}
    params["square"] = T.Tensor(rng.standard_normal((16, 8)).astype(np.float32),
                                requires_grad=True)
    oracle_params, oracle_states = oracle_of(params)
    opt = Q.QuantizedAdam(params)
    run_both(params, opt, oracle_params, oracle_states, rng, steps=300)
    assert min(opt.state.steps) > 150
    # every pad, the odd sizes' half bytes among them, is still code 7
    st = opt.state
    offsets = Q.flat_offsets(st.sizes, st.m.block_size)
    for q in (st.m, st.v):
        codes = Q._unpack_codes(q.codes, q.n_elements)
        for n, lo, hi in zip(st.sizes, offsets, offsets[1:]):
            assert np.all(codes[lo + n:hi] == 7), n

    # what a checkpoint holds: d_ff 25 gives adapters of 48 and 75 elements
    model = adapted(d_ff=25)
    params = model.trainable_parameters()
    assert {t.data.size for t in params.values()} == {48, 75}
    oracle_params, oracle_states = oracle_of(params)
    opt = Q.QuantizedAdam(params)
    run_both(params, opt, oracle_params, oracle_states, rng, steps=300)
    loaded = reloaded(tmp_path / "flat.bin", model, opt.state)
    assert_same_as_oracle(loaded.model.trainable_parameters(),
                          loaded.optim_state, oracle_params, oracle_states)


def test_resume_continues_like_the_per_tensor_loop(tmp_path):
    # rank 3 gives adapters of 48 and 72 elements: every segment is padded
    rng = np.random.default_rng(31)
    model = adapted()
    params = model.trainable_parameters()
    oracle_params, oracle_states = oracle_of(params)
    opt = Q.QuantizedAdam(params)
    run_both(params, opt, oracle_params, oracle_states, rng, steps=20)

    resumed = reloaded(tmp_path / "mid.bin", model, opt.state)
    resumed_params = resumed.model.trainable_parameters()
    assert_same_as_oracle(resumed_params, resumed.optim_state, oracle_params,
                          oracle_states)
    resumed_oracle_params = {n: p.copy() for n, p in oracle_params.items()}
    resumed_oracle_states = {n: OracleState(s.m, s.v, s.step)
                             for n, s in oracle_states.items()}

    tail_rng = np.random.default_rng(37)
    run_both(params, opt, oracle_params, oracle_states, tail_rng, steps=20)
    resumed_opt = Q.QuantizedAdam(resumed_params)
    resumed_opt.state = resumed.optim_state
    tail_rng = np.random.default_rng(37)
    run_both(resumed_params, resumed_opt, resumed_oracle_params,
             resumed_oracle_states, tail_rng, steps=20)
    assert_same_as_oracle(resumed_params, resumed_opt.state, oracle_params,
                          oracle_states)
