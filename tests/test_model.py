"""MoE routing, sparse dispatch, decoder forward, and parameter census."""

import numpy as np
import pytest

from moetune import tensor as T
from moetune.errors import ConfigError, LengthError, VocabError
from moetune.model import (
    DecoderModel,
    Expert,
    Linear,
    ModelConfig,
    MoELayer,
    count_active_params,
    init_model,
    moe_forward,
    route_top_k,
)
from moetune.tensor import Tensor


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
# route_top_k


def test_route_all_zero_logits_tie_break():
    rng = np.random.default_rng(0)
    layer = make_moe_layer(rng, 4, 8, 8, 2,
                           router_rows=np.zeros((4, 8), dtype=np.float32))
    decision = route_top_k(np.ones(4, dtype=np.float32), layer)
    assert decision.expert_ids == [0, 1]
    assert np.allclose(decision.gate_weights, [0.5, 0.5])


def test_route_hand_oracle():
    # logits [2,1,0,...]: renormalized softmax over {2,1} = e/(e+1) split
    rng = np.random.default_rng(1)
    router = np.zeros((1, 8), dtype=np.float32)
    router[0, 0], router[0, 1] = 2.0, 1.0
    layer = make_moe_layer(rng, 1, 4, 8, 2, router_rows=router)
    decision = route_top_k(np.ones(1, dtype=np.float32), layer)
    assert decision.expert_ids == [0, 1]
    assert abs(decision.gate_weights[0] - 0.7311) < 1e-4
    assert abs(decision.gate_weights[1] - 0.2689) < 1e-4


def test_route_top_k_equals_full_softmax():
    rng = np.random.default_rng(2)
    layer = make_moe_layer(rng, 6, 4, 5, 5)
    h = rng.standard_normal(6).astype(np.float32)
    decision = route_top_k(h, layer, top_k=5)
    logits = h @ layer.router.data
    full = np.exp(logits - logits.max())
    full /= full.sum()
    for i, e in enumerate(decision.expert_ids):
        assert abs(decision.gate_weights[i] - full[e]) < 1e-6


def test_route_top_k_too_large():
    rng = np.random.default_rng(3)
    layer = make_moe_layer(rng, 4, 4, 4, 2)
    with pytest.raises(ConfigError):
        route_top_k(np.ones(4, dtype=np.float32), layer, top_k=5)


def test_route_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n_e = int(rng.integers(2, 9))
        k = int(rng.integers(1, n_e + 1))
        layer = make_moe_layer(rng, 5, 4, n_e, k)
        h = rng.standard_normal(5).astype(np.float32)
        d = route_top_k(h, layer)
        assert len(set(d.expert_ids)) == k
        assert abs(sum(d.gate_weights) - 1.0) < 1e-6
        assert all(g >= 0 for g in d.gate_weights)
        # descending logit order
        logits = h @ layer.router.data
        sel = [logits[i] for i in d.expert_ids]
        assert all(sel[i] >= sel[i + 1] for i in range(len(sel) - 1))


def test_route_shift_invariance():
    rng = np.random.default_rng(5)
    router = rng.standard_normal((1, 6)).astype(np.float32)
    layer = make_moe_layer(rng, 1, 4, 6, 3, router_rows=router)
    d1 = route_top_k(np.ones(1, dtype=np.float32), layer)
    layer.router.data += 7.5  # shifts every logit by the same constant
    d2 = route_top_k(np.ones(1, dtype=np.float32), layer)
    assert d1.expert_ids == d2.expert_ids
    assert np.allclose(d1.gate_weights, d2.gate_weights, atol=1e-5)


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


def test_moe_router_gradient_finite_difference():
    rng = np.random.default_rng(9)
    layer = make_moe_layer(rng, 5, 6, 4, 2, dtype=np.float64)
    h = Tensor(rng.standard_normal((4, 5)), requires_grad=True,
               dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)

    def loss():
        return T.sum_all(T.mul(moe_forward(h, layer), w))

    params = [layer.router, h,
              layer.experts[0].w_gate.kernel, layer.experts[1].w_down.kernel]
    T.gradient_check(loss, params, eps=1e-3, rtol=1e-3)


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


def test_forward_deterministic():
    model = init_model(TINY, seed=3)
    ids = [5, 9, 250, 3]
    assert np.array_equal(model.forward(ids).data, model.forward(ids).data)


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
    T.gradient_check(loss, check_list, eps=1e-3, rtol=1e-3)


# ---------------------------------------------------------------------------
# parameter census


def test_active_equals_total_when_dense():
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=8, n_experts=4,
                      top_k=4, vocab_size=16, max_seq_len=8)
    total, active = count_active_params(init_model(cfg))
    assert total == active


def test_active_ratio_top2_of_8():
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=8, n_experts=8,
                      top_k=2, vocab_size=16, max_seq_len=8)
    model = init_model(cfg)
    total, active = count_active_params(model)
    expert_total = sum(
        e.w_gate.kernel.data.size + e.w_up.kernel.data.size
        + e.w_down.kernel.data.size
        for layer in model.layers for e in layer.moe.experts)
    assert total - active == expert_total - expert_total * 2 // 8


def test_hand_counted_census():
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=4, n_experts=2,
                      top_k=1, vocab_size=11, max_seq_len=8)
    total, active = count_active_params(init_model(cfg))
    # embedding 11*8 + lm_head 8*11 + final_norm 8 + 2 layer norms 8+8
    # + 4 attn projections 8*8 + router 8*2 + 2 experts * (32+32+32)
    assert total == 88 + 88 + 8 + 16 + 256 + 16 + 192
    assert active == total - 192 + 96


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(top_k=9, n_experts=8).validate()
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, n_heads=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(d_model=6, n_heads=2).validate()  # odd head dim
