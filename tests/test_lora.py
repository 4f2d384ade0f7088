"""LoRA adapters: identity at init, merging, freezing, gradient flow."""

import numpy as np
import pytest

from moetune import tensor as T
from moetune.errors import ConfigError
from moetune.lora import (
    LoraConfig,
    LoraPair,
    attach_adapters,
    merge_adapters,
    trainable_parameter_report,
)
from moetune.model import Linear, ModelConfig, init_model, route_top_k
from moetune.quant import QuantizedAdam
from moetune.tensor import Tensor

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=280, max_seq_len=32)


def toy_pair():
    # r=1, alpha=1, A=[[1],[0]] (d_in 2 x r), B=[[1,0]] (r x d_out 2)
    cfg = LoraConfig(rank=1, alpha=1.0, dropout_p=0.0)
    return LoraPair(a=Tensor([[1.0], [0.0]], requires_grad=True),
                    b=Tensor([[1.0, 0.0]], requires_grad=True), cfg=cfg)


def toy_model():
    """Model with 2x2 projections; only wq carries the toy adapter over W = 0."""
    cfg = ModelConfig(n_layers=1, d_model=2, n_heads=1, d_ff=2, n_experts=1,
                      top_k=1, vocab_size=8, max_seq_len=4)
    model = init_model(cfg, seed=0)
    lin = model.layers[0].wq
    lin.kernel = Tensor(np.zeros((2, 2)))
    lin.adapter = toy_pair()
    return model, lin


def random_adapter(d_in, d_out, cfg, rng):
    """Adapter with a non-zero B, so its branch contributes."""
    pair = LoraPair.init(d_in, d_out, cfg, rng)
    pair.b.data[:] = rng.standard_normal(pair.b.shape).astype(np.float32)
    return pair


def test_fresh_pair_is_identity():
    rng = np.random.default_rng(0)
    cfg = LoraConfig(rank=4, alpha=8.0, dropout_p=0.0)
    lin = Linear(Tensor(rng.standard_normal((5, 6))))
    x = Tensor(rng.standard_normal((3, 5)))
    before = lin.forward(x).data
    lin.adapter = LoraPair.init(5, 6, cfg, rng)
    assert np.max(np.abs(lin.forward(x).data - before)) == 0.0


def test_hand_matrix_chain_oracle():
    y = toy_pair().branch(Tensor([[3.0, 5.0]]))
    assert np.array_equal(y.data, [[3.0, 0.0]])  # (x·A)·B = [[3]]·[[1, 0]]


def test_alpha_scales_adapter_branch_linearly():
    rng = np.random.default_rng(1)
    cfg1 = LoraConfig(rank=2, alpha=4.0, dropout_p=0.0)
    cfg2 = LoraConfig(rank=2, alpha=8.0, dropout_p=0.0)
    pair1 = random_adapter(3, 4, cfg1, rng)
    pair2 = LoraPair(pair1.a, pair1.b, cfg2)
    x = Tensor(rng.standard_normal((2, 3)))
    assert np.allclose(pair2.branch(x).data, 2.0 * pair1.branch(x).data,
                       atol=1e-6)


def test_merge_zero_adapter_is_w_bitwise():
    model = init_model(TINY, seed=2)
    attach_adapters(model, LoraConfig(rank=3, dropout_p=0.0), seed=3)
    before = {name: lin.kernel.data.copy()
              for name, _, lin in model._projections()}
    merge_adapters(model)
    for name, _, lin in model._projections():
        assert np.array_equal(lin.kernel.data, before[name]), name


def test_merge_toy_outer_product():
    model, lin = toy_model()
    assert merge_adapters(model) == 1
    assert np.array_equal(lin.kernel.data, [[1.0, 0.0], [0.0, 0.0]])  # A·B


def test_merged_forward_agrees_on_100_vectors():
    rng = np.random.default_rng(3)
    model = init_model(TINY, seed=3)
    attach_adapters(model, LoraConfig(rank=2, alpha=6.0, targets=("q",),
                                      dropout_p=0.0), seed=4)
    lin = model.layers[0].wq
    lin.adapter = random_adapter(16, 16, lin.adapter.cfg, rng)
    x = Tensor(rng.standard_normal((100, 16)))
    adapted = lin.forward(x).data
    merge_adapters(model)
    assert lin.adapter is None
    assert np.allclose(lin.forward(x).data, adapted, atol=1e-5)


def test_adapter_gradients_pass_finite_difference():
    rng = np.random.default_rng(4)
    cfg = LoraConfig(rank=2, alpha=4.0, dropout_p=0.0)
    a = Tensor(rng.standard_normal((5, 2)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
    pair = LoraPair(a, b, cfg)
    x = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    ref = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

    def loss():
        return T.sum_all(T.mul(pair.branch(x), ref))

    T.gradient_check(loss, [a, b], eps=1e-3, rtol=1e-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        LoraConfig(rank=0).validate()
    with pytest.raises(ConfigError):
        LoraConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError):
        LoraConfig(targets=()).validate()
    with pytest.raises(ConfigError):
        LoraConfig(targets=("q", "router")).validate()
    with pytest.raises(ConfigError):
        LoraConfig(dropout_p=1.0).validate()


# ---------------------------------------------------------------------------
# model-level behaviour


def test_attach_leaves_outputs_bitwise_unchanged():
    model = init_model(TINY, seed=5)
    ids = [4, 200, 31, 7]
    before = model.forward(ids).data.copy()
    attach_adapters(model, LoraConfig(rank=4, dropout_p=0.0), seed=6)
    after = model.forward(ids).data
    assert np.max(np.abs(after - before)) == 0.0


def test_report_no_adapters():
    model = init_model(TINY, seed=7)
    trainable, frozen, ratio = trainable_parameter_report(model)
    assert trainable == 0
    assert ratio == 0.0
    assert frozen == sum(t.data.size for t in model.named_parameters().values())


def test_report_single_projection_arithmetic():
    # one adapted 6 -> 4 projection at r=2 contributes 6*2 + 2*4 = 20
    cfg = LoraConfig(rank=2, dropout_p=0.0)
    rng = np.random.default_rng(8)
    pair = LoraPair.init(6, 4, cfg, rng)
    assert pair.a.data.size + pair.b.data.size == 20


def test_report_full_census():
    model = init_model(TINY, seed=9)
    cfg = LoraConfig(rank=8, dropout_p=0.0)
    n = attach_adapters(model, cfg, seed=10)
    # 2 layers x (4 attention + 4 experts x 3) = 32 projections
    assert n == 2 * (4 + 4 * 3)
    trainable, frozen, ratio = trainable_parameter_report(model)
    d, ff, r = 16, 24, 8
    per_attn = d * r + r * d            # A [d,r] + B [r,d]
    per_gate_up = d * r + r * ff        # in d -> out ff
    per_down = ff * r + r * d
    expected = 2 * (4 * per_attn + 4 * (2 * per_gate_up + per_down))
    assert trainable == expected
    assert 0.0 < ratio < 1.0


def test_frozen_weights_bitwise_constant_under_training():
    model = init_model(TINY, seed=11)
    attach_adapters(model, LoraConfig(rank=4, dropout_p=0.0), seed=12)
    frozen_before = {n: t.data.copy() for n, t in model.named_parameters().items()
                     if not t.requires_grad}
    opt = QuantizedAdam(model.trainable_parameters(), lr=0.05)
    rng = np.random.default_rng(13)
    for _ in range(10):
        ids = rng.integers(0, 280, 6)
        targets = rng.integers(0, 280, 6)
        loss = T.masked_cross_entropy(model.forward(ids, training=True,
                                                    rng=np.random.default_rng(0)),
                                      targets, np.ones(6))
        opt.zero_grad()
        loss.backward()
        opt.step()
    for name, before in frozen_before.items():
        t = model.named_parameters()[name]
        assert np.array_equal(t.data, before), f"{name} drifted"


def test_router_decisions_stable_when_router_frozen():
    model = init_model(TINY, seed=14)
    attach_adapters(model, LoraConfig(rank=4, dropout_p=0.0), seed=15)
    layer = model.layers[0].moe
    h = np.random.default_rng(16).standard_normal(16).astype(np.float32)
    before = route_top_k(h, layer)
    opt = QuantizedAdam(model.trainable_parameters(), lr=0.1)
    loss = T.masked_cross_entropy(model.forward([1, 2, 3]), [2, 3, 4], [1, 1, 1])
    loss.backward()
    opt.step()
    after = route_top_k(h, layer)
    assert before.expert_ids == after.expert_ids
    assert np.array_equal(before.gate_weights, after.gate_weights)


def test_merge_adapters_matches_adapter_forward():
    model = init_model(TINY, seed=17)
    attach_adapters(model, LoraConfig(rank=4, alpha=8.0, dropout_p=0.0), seed=18)
    rng = np.random.default_rng(19)
    # give the adapters non-trivial B so merging actually changes weights
    for _, _, lin in model._projections():
        if lin.adapter is not None:
            lin.adapter.b.data[:] = 0.1 * rng.standard_normal(
                lin.adapter.b.data.shape).astype(np.float32)
    ids = [9, 250, 77]
    with_adapters = model.forward(ids).data.copy()
    merged = merge_adapters(model)
    assert merged == 32
    after_merge = model.forward(ids).data
    assert np.allclose(after_merge, with_adapters, atol=1e-5)
