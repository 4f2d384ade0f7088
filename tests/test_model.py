"""MoE routing, sparse dispatch, decoder forward, and parameter census."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moetune import model as model_module
from moetune import tensor as T
from moetune.errors import (
    ConfigError,
    DimensionError,
    LengthError,
    NumericError,
    TapeError,
    VocabError,
)
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import (
    DecoderModel,
    Expert,
    KVCache,
    Linear,
    ModelConfig,
    MoELayer,
    build_model,
    init_model,
    moe_forward,
)
from moetune.quant import quantize_4bit
from moetune.tensor import Tensor

from gradcheck import gradient_check, mul, sum_all


def make_moe_layer(rng, d, ff, n_experts, top_k, dtype=np.float32,
                   router_rows=None):
    def lin(a, b):
        return Linear(Tensor(rng.standard_normal((a, b)) * 0.5,
                             requires_grad=True, dtype=dtype))

    router = Tensor(
        router_rows if router_rows is not None
        else rng.standard_normal((d, n_experts)),
        requires_grad=True, dtype=dtype)
    experts = [Expert(lin(d, ff), lin(d, ff), lin(ff, d))
               for _ in range(n_experts)]
    return MoELayer(router, experts, top_k)


def numpy_silu(x):
    return x / (1.0 + np.exp(-x))


def dense_dispatch_oracle(hidden, layer):
    """Evaluate ALL experts, weight by the renormalized full softmax with
    non-selected gates set to 0."""
    h = hidden.astype(np.float64)
    logits = h @ layer.router.data.astype(np.float64)
    full = np.exp(logits - logits.max(axis=1, keepdims=True))
    full /= full.sum(axis=1, keepdims=True)
    order = np.argsort(-logits, axis=1, kind="stable")[:, :layer.top_k]
    gates = np.zeros_like(full)
    rows = np.arange(h.shape[0])[:, None]
    gates[rows, order] = full[rows, order]
    gates /= gates.sum(axis=1, keepdims=True)

    out = np.zeros_like(h)
    for e, expert in enumerate(layer.experts):
        wg = expert.w_gate.kernel.data.astype(np.float64)
        wu = expert.w_up.kernel.data.astype(np.float64)
        wd = expert.w_down.kernel.data.astype(np.float64)
        y = (numpy_silu(h @ wg) * (h @ wu)) @ wd
        out += gates[:, e:e + 1] * y
    return out


# ---------------------------------------------------------------------------
# routing, through moe_forward


def expert_out(layer, e, h):
    return layer.experts[e].forward(Tensor(h)).data.astype(np.float64)


def test_route_all_zero_logits_tie_break():
    # every logit ties at 0: the two lowest indices win with equal gates
    rng = np.random.default_rng(0)
    layer = make_moe_layer(rng, 4, 8, 8, 2,
                           router_rows=np.zeros((4, 8), dtype=np.float32))
    h = rng.standard_normal((5, 4)).astype(np.float32)
    oracle = 0.5 * expert_out(layer, 0, h) + 0.5 * expert_out(layer, 1, h)
    assert np.allclose(moe_forward(Tensor(h), layer).data, oracle, atol=1e-6)


def test_route_hand_oracle():
    # logits [2,1,0,...]: renormalized softmax over {2,1} = e/(e+1) split
    rng = np.random.default_rng(1)
    router = np.zeros((1, 8), dtype=np.float32)
    router[0, 0], router[0, 1] = 2.0, 1.0
    layer = make_moe_layer(rng, 1, 4, 8, 2, router_rows=router)
    h = np.ones((1, 1), dtype=np.float32)
    e = np.e
    oracle = (e / (e + 1)) * expert_out(layer, 0, h) \
        + (1 / (e + 1)) * expert_out(layer, 1, h)
    assert np.allclose(moe_forward(Tensor(h), layer).data, oracle, atol=1e-6)


def test_route_top_k_equals_full_softmax():
    rng = np.random.default_rng(2)
    layer = make_moe_layer(rng, 6, 4, 5, 5)
    h = rng.standard_normal((3, 6)).astype(np.float32)
    logits = h.astype(np.float64) @ layer.router.data.astype(np.float64)
    full = np.exp(logits - logits.max(axis=1, keepdims=True))
    full /= full.sum(axis=1, keepdims=True)
    oracle = sum(full[:, e:e + 1] * expert_out(layer, e, h) for e in range(5))
    assert np.allclose(moe_forward(Tensor(h), layer).data, oracle, atol=1e-5)


def test_route_shift_invariance():
    rng = np.random.default_rng(5)
    layer = make_moe_layer(rng, 4, 4, 6, 3)
    h = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
    before = moe_forward(h, layer).data
    # the same column added to every expert's router column shifts all of a
    # token's logits by one constant, h . shift
    layer.router.data += rng.standard_normal((4, 1)).astype(np.float32)
    assert np.allclose(moe_forward(h, layer).data, before, atol=1e-5)


# ---------------------------------------------------------------------------
# moe_forward


def test_single_expert_equals_plain_ffn_bitwise():
    rng = np.random.default_rng(6)
    layer = make_moe_layer(rng, 8, 16, 1, 1)
    h = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    out = moe_forward(h, layer)
    plain = layer.experts[0].forward(h)
    assert np.array_equal(out.data, plain.data)


def test_identical_experts_match_single_expert():
    rng = np.random.default_rng(7)
    layer = make_moe_layer(rng, 8, 16, 4, 2)
    for expert in layer.experts[1:]:
        for attr in ("w_gate", "w_up", "w_down"):
            getattr(expert, attr).kernel.data[:] = \
                getattr(layer.experts[0], attr).kernel.data
    h = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
    out = moe_forward(h, layer)
    single = layer.experts[0].forward(h)
    assert np.allclose(out.data, single.data, atol=1e-5)


def test_moe_forward_matches_dense_dispatch_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n_e = int(rng.integers(2, 6))
        k = int(rng.integers(1, n_e + 1))
        layer = make_moe_layer(rng, 6, 8, n_e, k)
        h = rng.standard_normal((3, 6)).astype(np.float32)
        out = moe_forward(Tensor(h), layer)
        oracle = dense_dispatch_oracle(h, layer)
        assert np.allclose(out.data, oracle, atol=1e-5)


def test_moe_forward_adds_gated_expert_rows_in_expert_order_bitwise():
    # the tiled matmul makes an expert's row independent of the other rows,
    # so running each expert on all rows gives the rows moe_forward uses
    rng = np.random.default_rng(12)
    for n_e, k, t_len in [(1, 1, 5), (4, 2, 9), (4, 3, 17), (6, 4, 8),
                          (8, 8, 13)]:
        layer = make_moe_layer(rng, 8, 12, n_e, k)
        h = Tensor(rng.standard_normal((t_len, 8)).astype(np.float32))
        logits = T.matmul(h, layer.router)
        top = np.argsort(-logits.data, axis=1, kind="stable")[:, :k]
        sel = np.zeros_like(logits.data)
        np.put_along_axis(sel, top, 1.0, axis=1)
        gates = T.masked_row_softmax(logits, sel).data
        want = np.zeros_like(h.data)
        for e, expert in enumerate(layer.experts):
            rows = np.nonzero(sel[:, e])[0]
            want[rows] += expert.forward(h).data[rows] * gates[rows, e:e + 1]
        assert np.array_equal(moe_forward(h, layer).data, want), (n_e, k)


def test_moe_router_gradient_finite_difference():
    rng = np.random.default_rng(9)
    layer = make_moe_layer(rng, 5, 6, 4, 2, dtype=np.float64)
    h = Tensor(rng.standard_normal((4, 5)), requires_grad=True,
               dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)

    def loss():
        return sum_all(mul(moe_forward(h, layer), w))

    params = [layer.router, h,
              layer.experts[0].w_gate.kernel, layer.experts[1].w_down.kernel]
    gradient_check(loss, params, eps=1e-3, rtol=1e-3)


# ---------------------------------------------------------------------------
# decoder forward


TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=300, max_seq_len=32)


def test_causality_bitwise_all_prefixes():
    model = init_model(TINY, seed=0)
    ids = np.random.default_rng(10).integers(0, 300, 12)
    full = model.forward(ids).data
    for p in range(1, len(ids)):
        part = model.forward(ids[:p]).data
        assert np.array_equal(part, full[:p]), f"prefix {p} diverged"


def test_zero_lm_head_gives_uniform_softmax():
    model = init_model(TINY, seed=1)
    model.lm_head.kernel.data[:] = 0.0
    logits = model.forward([1, 2, 3]).data
    assert np.all(logits == 0.0)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(probs, 1.0 / 300)


def test_sequence_too_long():
    model = init_model(TINY, seed=2)
    with pytest.raises(LengthError):
        model.forward(np.zeros(33, dtype=np.int64))


def test_token_out_of_range():
    model = init_model(TINY, seed=2)
    with pytest.raises(VocabError):
        model.forward([0, 300])


@pytest.mark.parametrize("ids", [
    [1.7], [1, 2.0], [True], [3, False], np.array([1.0, 2.0]),
    np.array([True, False]), ["a", "b"], [10 ** 20]])
def test_token_ids_that_are_not_ints_are_a_vocab_error(ids):
    model = init_model(TINY, seed=2)
    with pytest.raises(VocabError):
        model.forward(ids)
    with pytest.raises(VocabError):
        model.forward(ids, cache=KVCache())


def test_empty_token_ids_are_a_length_error_before_the_type_check():
    model = init_model(TINY, seed=2)
    for ids in ([], np.array([], dtype=np.float64)):
        with pytest.raises(LengthError):
            model.forward(ids)


def test_token_ids_must_be_one_dimensional():
    model = init_model(TINY, seed=2)
    with pytest.raises(DimensionError):
        model.forward([[1, 2], [3, 4]])


def test_forward_deterministic():
    model = init_model(TINY, seed=3)
    ids = [5, 9, 250, 3]
    assert np.array_equal(model.forward(ids).data, model.forward(ids).data)


@pytest.fixture(scope="module")
def tuned_default_model():
    """Default config, q4 kernels, adapters with non-zero A and B."""
    model = init_model(ModelConfig(), seed=5)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(), seed=6)
    rng = np.random.default_rng(7)
    for t in model.trainable_parameters().values():
        t.data[:] = 0.05 * rng.standard_normal(t.data.shape)
    return model


# 8, 128 and the ~300 of a long chat history straddle the block edges of
# numpy's pairwise sums
@pytest.mark.parametrize("prompt_len", [1, 7, 8, 9, 127, 128, 129, 301])
def test_cached_decode_is_bitwise_equal_to_full_forward(tuned_default_model,
                                                        prompt_len):
    model = tuned_default_model
    ids = np.random.default_rng(prompt_len).integers(0, 262, prompt_len + 3)
    cache = KVCache()
    prefill = model.forward(ids[:prompt_len], cache=cache).data
    assert np.array_equal(prefill, model.forward(ids[:prompt_len]).data)
    for t in range(prompt_len, len(ids)):
        step = model.forward(ids[t:t + 1], cache=cache).data
        assert step.shape == (1, 262)
        assert np.array_equal(step[0], model.forward(ids[:t + 1]).data[-1]), t
    assert cache.length == len(ids)


# Prefix stability and cached decode at the default config, on the model of
# tuned_default_model; lengths on both sides of the tile, key-block and
# row-block edges.
BITWISE_SCRIPT = """
import numpy as np
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import KVCache, ModelConfig, init_model

model = init_model(ModelConfig(), seed=5)
model.quantize_frozen(64)
attach_adapters(model, LoraConfig(), seed=6)
rng = np.random.default_rng(7)
for t in model.trainable_parameters().values():
    t.data[:] = 0.05 * rng.standard_normal(t.data.shape)
ids = rng.integers(0, 262, 133)
full = model.forward(ids).data
for n in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129):
    assert np.array_equal(model.forward(ids[:n]).data, full[:n]), n
cache = KVCache()
model.forward(ids[:63], cache=cache)
for t in (63, 64, 65):
    assert np.array_equal(model.forward(ids[t:t + 1], cache=cache).data,
                          full[t:t + 1]), t
model.forward(ids[66:129], cache=cache)
for t in range(129, len(ids)):
    assert np.array_equal(model.forward(ids[t:t + 1], cache=cache).data,
                          full[t:t + 1]), t
# request-sized caches, read in place, as generate sizes them
for prompt_len, n_fed in ((7, 9), (60, 64), (63, 66), (120, 133)):
    cache = KVCache.for_positions(model.config, n_fed)
    assert cache.keys.shape[1] == -(-n_fed // 64) * 64
    model.forward(ids[:prompt_len], cache=cache)
    for t in range(prompt_len, n_fed):
        assert np.array_equal(model.forward(ids[t:t + 1], cache=cache).data,
                              full[t:t + 1]), (prompt_len, t)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prefix_and_cached_decode_are_bitwise_on_one_and_two_blas_threads(
        threads):
    # BLAS reads its thread count when numpy loads, so run in a fresh process
    src = str(Path(model_module.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", BITWISE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_cached_forward_that_raises_leaves_the_cache_as_it_was(
        tuned_default_model, monkeypatch):
    model = tuned_default_model
    ids = np.random.default_rng(11).integers(0, 262, 12)
    cache = KVCache()
    model.forward(ids[:10], cache=cache)
    broken, real = model.layers[2].moe, model_module.moe_forward

    def moe_forward(h, layer, *args):
        if layer is broken:
            raise RuntimeError("expert failed")
        return real(h, layer, *args)

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "moe_forward", moe_forward)
        with pytest.raises(RuntimeError):
            model.forward([(ids[10] + 1) % 262], cache=cache)
    assert cache.length == 10
    assert model.forward(ids[:3]).requires_grad  # recording is back on
    step = model.forward(ids[10:12], cache=cache).data
    assert np.array_equal(step, model.forward(ids).data[10:])
    assert cache.length == 12


@contextlib.contextmanager
def poisoned(adapter):
    """Context in which the adapter's B holds NaNs: every output row of its
    projection is NaN."""
    saved = adapter.b.data.copy()
    adapter.b.data[0] = np.nan
    try:
        yield
    finally:
        adapter.b.data[:] = saved


# The raising forward writes its rows of every layer it reaches, NaN values
# in layer 1, before the logits or a router check sees the NaN: read as
# zero-weighted values, those rows would turn a later row block to NaN.
@pytest.mark.parametrize("prefix", [0, 10], ids=["empty-cache", "filled-cache"])
def test_cached_forward_that_raises_midway_leaves_no_stale_rows(
        tuned_default_model, prefix):
    model = tuned_default_model
    ids = np.random.default_rng(12).integers(0, 262, prefix + 40)
    full = model.forward(ids).data
    cache = KVCache.for_positions(model.config, len(ids))
    if prefix:
        model.forward(ids[:prefix], cache=cache)
    keys, values = cache.keys.copy(), cache.values.copy()
    with poisoned(model.layers[1].wv.adapter):
        with pytest.raises(NumericError, match="^lora_linear produced"):
            model.forward(ids[prefix:prefix + 30], cache=cache)
    assert cache.length == prefix
    assert cache.keys.tobytes() == keys.tobytes()
    assert cache.values.tobytes() == values.tobytes()
    shorter = model.forward(ids[prefix:prefix + 5], cache=cache).data
    assert np.array_equal(shorter, full[prefix:prefix + 5])
    prefill = model.forward(ids[:prefix + 5], cache=KVCache()).data
    assert np.array_equal(shorter, prefill[prefix:])


def test_a_non_finite_forward_names_the_op_with_the_generator_it_started_with(
        tuned_default_model, monkeypatch):
    # The first run draws layer 2's o mask before its router check sees the
    # NaN of layer 2's values. The replay starts from the generator state of
    # the first run, so it draws the same masks, and raises where a forward
    # checking every op raises, with the generator where that one leaves it.
    model = tuned_default_model
    ids = np.random.default_rng(16).integers(0, 262, 20)
    errors, states = [], []
    for checks in ("at the logits", "per op"):
        rng = np.random.default_rng(17)
        with monkeypatch.context() as patch:
            if checks == "per op":
                patch.setattr(T, "no_op_checks", contextlib.nullcontext)
            with poisoned(model.layers[2].wv.adapter):
                with pytest.raises(NumericError) as info:
                    model.forward(ids, rng=rng)
        errors.append(str(info.value))
        # the traceback holds this frame and the frame `info`: a cycle that
        # would keep the first layers' tape alive until a collection
        del info
        states.append(rng.bit_generator.state)
    assert errors[0] == errors[1] == "lora_linear produced non-finite values"
    assert states[0] == states[1]


def test_an_unselected_experts_non_finite_router_logit_raises(monkeypatch):
    # NaN logits sort last, so expert 3 is never selected and its gate is
    # exactly 0: with no checks the logits stay finite
    model = init_model(TINY, seed=8)
    model.layers[1].moe.router.data[:, 3] = np.nan
    ids = np.arange(3, 20)
    with monkeypatch.context() as patch:
        patch.setattr(T, "FINITE_CHECKS", False)
        assert np.isfinite(model.forward(ids).data).all()
    with pytest.raises(NumericError, match="^matmul produced"):
        model.forward(ids)
    cache = KVCache()
    with pytest.raises(NumericError, match="^matmul produced"):
        model.forward(ids, cache=cache)
    assert cache.keys is None and cache.length == 0


def test_an_infinite_key_that_no_row_weighs_still_raises(monkeypatch):
    # key T - 1 scores -Inf for the one row that sees it, whose weight on
    # it is then exactly 0 (tests/test_tensor.py): the keys' own check
    # catches it
    model = init_model(TINY, seed=8)
    ids = np.arange(3, 20)
    real, seen = T.rotary, []

    def rotary(x, cos, sin):
        out = real(x, cos, sin)
        seen.append(out)
        if len(seen) == 2:  # layer 0's keys, after its queries
            q_last = seen[0].data[-1]
            out.data[-1] = -np.inf * np.sign(q_last)
        return out

    monkeypatch.setattr(T, "rotary", rotary)
    with pytest.raises(NumericError, match="^the keys produced"):
        model.forward(ids)


def test_cached_forward_records_no_tape_and_a_plain_one_does(
        tuned_default_model):
    model = tuned_default_model
    ids = np.random.default_rng(13).integers(0, 262, 10)
    targets, mask = ids[1:], np.ones(9)
    cached = model.forward(ids[:-1], cache=KVCache())
    assert not cached.requires_grad and cached._parents == ()
    with pytest.raises(TapeError):
        T.masked_cross_entropy(cached, targets, mask).backward()
    lora_a = model.trainable_parameters()["layers.0.attn.wq.lora_a"]
    assert lora_a.grad is None
    plain = model.forward(ids[:-1])  # training=False
    assert np.array_equal(plain.data, cached.data)
    try:
        T.masked_cross_entropy(plain, targets, mask).backward()
        assert np.any(lora_a.grad != 0)
    finally:
        for t in model.trainable_parameters().values():
            t.grad = None


def test_cached_forward_peaks_under_a_third_of_a_plain_forward(
        tuned_default_model):
    model = tuned_default_model
    ids = np.random.default_rng(14).integers(0, 262, 300)
    model.forward(ids)  # dequantizes every kernel the prompt routes to
    peaks = []
    for cache in (None, KVCache()):
        tracemalloc.start()
        try:
            logits = model.forward(ids, cache=cache)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del logits
    plain, cached = peaks
    # the plain forward's tape holds every op's intermediates
    assert cached < plain / 3, (cached, plain)


def dropout_loss(model, ids, seed):
    """Masked CE of a forward over ids with dropout on, every target kept."""
    logits = model.forward(ids[:-1], rng=np.random.default_rng(seed))
    return T.masked_cross_entropy(logits, ids[1:], np.ones(len(ids) - 1))


def test_backward_frees_every_op_output_and_a_second_backward_raises():
    model = init_model(TINY, seed=8)
    attach_adapters(model, LoraConfig(), seed=8)
    loss = dropout_loss(model, np.arange(3, 23), seed=0)
    nodes, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    ops = [t for t in nodes.values() if t._parents]
    leaves = [t for t in nodes.values() if not t._parents and t.requires_grad]
    assert len(ops) > 50 and leaves
    loss.backward()
    assert all(t.grad is None and t._backward is None and t._parents == ()
               and not t.requires_grad for t in ops)
    assert all(t.grad is not None for t in leaves)
    with pytest.raises(TapeError):
        loss.backward()


def test_backward_peaks_under_a_quarter_of_the_tape_above_it(
        tuned_default_model):
    # 137 tokens, as the longest fixture sample: the backward frees each
    # op's intermediates as it goes, so it needs little beyond the tape
    model = tuned_default_model
    ids = np.random.default_rng(15).integers(0, 262, 137)
    model.forward(ids)  # dequantizes every kernel the sample routes to
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = dropout_loss(model, ids, seed=1)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for t in model.trainable_parameters().values():
            t.grad = None
    tape = after_forward - before
    assert peak - after_forward < tape / 4, (tape, peak - after_forward)


def test_cache_rejects_training_and_overflow():
    model = init_model(TINY, seed=8)
    cache = KVCache()
    with pytest.raises(ConfigError):
        model.forward([1, 2], rng=np.random.default_rng(0), cache=cache)
    model.forward(np.arange(30), cache=cache)
    with pytest.raises(LengthError):
        model.forward([1, 2, 3], cache=cache)
    assert cache.length == 30
    model.forward([1, 2], cache=cache)
    assert cache.length == 32


@pytest.mark.parametrize("other", [
    ModelConfig(**{**TINY.to_dict(), "n_layers": 3}),
    ModelConfig(**{**TINY.to_dict(), "d_model": 32})])
def test_cache_another_models_forward_filled_is_a_config_error(other):
    cache = KVCache()
    init_model(other, seed=8).forward([1, 2, 3], cache=cache)
    with pytest.raises(ConfigError):
        init_model(TINY, seed=8).forward([4], cache=cache)
    assert cache.length == 3


# TINY's max_seq_len of 32 rounds up to one key block: the keys are
# [2, 64, 16], and each values shape differs from them in one way
@pytest.mark.parametrize("values", [None, (2, 128, 16), (2, 4, 16), (1, 64, 16)],
                         ids=["none", "longer", "shorter", "fewer-layers"])
def test_cache_values_that_do_not_fit_its_keys_are_a_config_error(values):
    cache = KVCache()
    model = init_model(TINY, seed=8)
    model.forward([1, 2, 3], cache=cache)
    assert cache.keys.shape == (2, T.KEY_BLOCK, 16)
    keys = cache.keys.copy()
    cache.values = None if values is None else np.zeros(values, np.float32)
    with pytest.raises(ConfigError, match="values"):
        model.forward([4], cache=cache)
    assert np.array_equal(cache.keys, keys) and cache.length == 3


def test_cache_for_positions_rounds_up_to_whole_zero_key_blocks():
    for positions, rows in ((0, 0), (1, 64), (64, 64), (65, 128)):
        cache = KVCache.for_positions(TINY, positions)
        assert cache.keys.shape == cache.values.shape == (2, rows, 16)
        assert cache.keys.dtype == np.float32 and cache.length == 0
        assert not cache.keys.any() and not cache.values.any()


@pytest.mark.parametrize("keys", [np.zeros((2, 48, 16), np.float32),
                                  np.zeros((2, 64, 16), np.float64)],
                         ids=["rows-not-whole-blocks", "float64"])
def test_cache_buffers_attention_cannot_read_in_place_are_a_config_error(keys):
    cache = KVCache(keys, keys.copy())
    with pytest.raises(ConfigError):
        init_model(TINY, seed=8).forward([1, 2], cache=cache)
    assert cache.length == 0 and not cache.keys.any()


def test_a_forward_past_the_caches_rows_is_a_length_error():
    # within max_seq_len, past the 64 rows of a cache sized for 62
    config = ModelConfig(**{**TINY.to_dict(), "max_seq_len": 128})
    model = init_model(config, seed=8)
    cache = KVCache.for_positions(config, 62)
    model.forward(np.arange(60), cache=cache)
    keys = cache.keys.copy()
    with pytest.raises(LengthError):
        model.forward([1, 2, 3, 4, 5], cache=cache)
    assert cache.length == 60 and np.array_equal(cache.keys, keys)
    model.forward([1, 2, 3, 4], cache=cache)
    assert cache.length == 64


@pytest.mark.parametrize("length", [-5, -1, 33, 2.0, "3", None])
def test_cache_length_outside_0_to_max_seq_len_is_a_config_error(length):
    cache = KVCache(length=length)
    with pytest.raises(ConfigError):
        init_model(TINY, seed=8).forward([1], cache=cache)
    assert cache.keys is None and cache.length == length


def test_cache_length_without_cached_keys_is_a_config_error():
    # the forward would attend to rows that no forward wrote
    cache = KVCache(length=3)
    with pytest.raises(ConfigError):
        init_model(TINY, seed=8).forward([1], cache=cache)
    assert cache.keys is None and cache.length == 3


def test_model_holds_one_rotary_table_of_max_seq_len_rows():
    model = init_model(ModelConfig(), seed=0)
    cos, sin = T.rotary_table(512, 32, 10000.0)
    assert np.array_equal(model.rope_cos, cos)
    assert np.array_equal(model.rope_sin, sin)
    assert model.rope_cos.nbytes + model.rope_sin.nbytes == 65536


def test_end_to_end_gradient_check():
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=8, n_experts=2,
                      top_k=1, vocab_size=12, max_seq_len=16)
    model = init_model(cfg, seed=4)
    for t in model.named_parameters().values():
        t.data = t.data.astype(np.float64)
    ids = [3, 7, 1, 9]
    targets = [7, 1, 9, 2]

    def loss():
        return T.masked_cross_entropy(model.forward(ids), targets, [1, 1, 1, 1])

    params = model.named_parameters()
    check_list = [params["embedding"], params["layers.0.attn.wq.weight"],
                  params["layers.0.moe.router"],
                  params["layers.0.moe.experts.0.w_gate.weight"],
                  params["layers.0.attn_norm.weight"],
                  params["lm_head.weight"]]
    gradient_check(loss, check_list, eps=1e-3, rtol=1e-3)


def test_build_model_asks_for_every_weight_once():
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=4, n_experts=2,
                      top_k=1, vocab_size=11, max_seq_len=8)
    asked = []

    def kernels_quantized(name, shape):
        asked.append(name)
        w = np.ones(shape, dtype=np.float32)
        return quantize_4bit(w) if ".attn." in name or ".experts." in name \
            else w

    model = build_model(cfg, kernels_quantized)
    assert len(asked) == len(set(asked))
    assert set(asked) == (set(model.named_parameters())
                          | set(model.named_quantized()))
    assert len(model.named_quantized()) == 2 * (4 + 2 * 3)


@pytest.mark.parametrize("quantized", ["embedding", "final_norm.weight",
                                       "layers.0.moe.router", "lm_head.weight"])
def test_build_model_rejects_a_quantized_non_kernel(quantized):
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=4, n_experts=2,
                      top_k=1, vocab_size=11, max_seq_len=8)

    def source(name, shape):
        w = np.ones(shape, dtype=np.float32)
        return quantize_4bit(w.reshape(shape[0], -1)) if name == quantized else w

    with pytest.raises(ConfigError):
        build_model(cfg, source)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(top_k=9, n_experts=8).validate()
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, n_heads=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(d_model=6, n_heads=2).validate()  # odd head dim


@pytest.mark.parametrize("field, value", [
    ("n_layers", 0), ("d_model", 0), ("n_heads", 0), ("n_heads", -4),
    ("d_ff", 0), ("n_experts", 0), ("vocab_size", 0), ("max_seq_len", 0),
    ("norm_eps", 0.0), ("norm_eps", float("nan")), ("rope_base", -1.0),
    ("rope_base", float("nan")), ("d_model", float("nan"))])
def test_config_rejects_empty_sizes_and_bad_constants(field, value):
    with pytest.raises(ConfigError):
        ModelConfig(**{field: value}).validate()
