"""LoRA adapters: identity at init, freezing, gradient flow."""

import math

import numpy as np
import pytest

from moetune import tensor as T
from moetune.errors import ConfigError
from moetune.lora import LoraConfig, LoraPair, attach_adapters, load_adapters
from moetune.model import Linear, ModelConfig, init_model
from moetune.quant import QuantizedAdam, quantize_4bit
from moetune.tensor import Tensor

from gradcheck import gradient_check, mul, sum_all

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=280, max_seq_len=32)


def toy_pair():
    # r=1, alpha=1, A=[[1],[0]] (d_in 2 x r), B=[[1,0]] (r x d_out 2)
    cfg = LoraConfig(rank=1, alpha=1.0, dropout_p=0.0)
    return LoraPair(a=Tensor([[1.0], [0.0]], requires_grad=True),
                    b=Tensor([[1.0, 0.0]], requires_grad=True), cfg=cfg)


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
    w = Tensor([[1.0, 2.0], [3.0, 4.0]])
    y = toy_pair().project(Tensor([[3.0, 5.0]]), w)
    # x·W + (x·A)·B = [[18, 26]] + [[3]]·[[1, 0]]
    assert np.array_equal(y.data, [[21.0, 26.0]])


def test_alpha_scales_adapter_branch_linearly():
    rng = np.random.default_rng(1)
    cfg1 = LoraConfig(rank=2, alpha=4.0, dropout_p=0.0)
    cfg2 = LoraConfig(rank=2, alpha=8.0, dropout_p=0.0)
    pair1 = random_adapter(3, 4, cfg1, rng)
    pair2 = LoraPair(pair1.a, pair1.b, cfg2)
    x = Tensor(rng.standard_normal((2, 3)))
    w = Tensor(np.zeros((3, 4)))  # a zero base leaves the branch alone
    assert np.allclose(pair2.project(x, w).data,
                       2.0 * pair1.project(x, w).data, atol=1e-6)


def test_adapter_gradients_pass_finite_difference():
    rng = np.random.default_rng(4)
    cfg = LoraConfig(rank=2, alpha=4.0, dropout_p=0.0)
    a = Tensor(rng.standard_normal((5, 2)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
    pair = LoraPair(a, b, cfg)
    x = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    w = Tensor(rng.standard_normal((5, 4)), dtype=np.float64)
    ref = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

    def loss():
        return sum_all(mul(pair.project(x, w), ref))

    gradient_check(loss, [a, b], eps=1e-3, rtol=1e-3)


def op_count(out):
    """Ops on the tape that out.backward() would replay."""
    seen, stack, n = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        n += t._backward is not None
        stack.extend(t._parents)
    return n


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("with_rng", [False, True])
def test_adapted_projection_records_one_op(quantized, with_rng):
    rng = np.random.default_rng(2)
    kernel = rng.standard_normal((16, 24)).astype(np.float32)
    lin = Linear(quantize_4bit(kernel) if quantized else Tensor(kernel))
    lin.adapter = random_adapter(16, 24, LoraConfig(rank=4), rng)
    x = Tensor(rng.standard_normal((9, 16)), requires_grad=True)
    out = lin.forward(x, np.random.default_rng(3) if with_rng else None)
    assert op_count(out) == 1


def test_dropout_runs_exactly_when_a_generator_is_given():
    rng = np.random.default_rng(3)
    lin = Linear(quantize_4bit(rng.standard_normal((6, 4))))
    lin.adapter = random_adapter(6, 4, LoraConfig(rank=2, dropout_p=0.5), rng)
    x = Tensor(rng.standard_normal((8, 6)))
    plain = lin.forward(x).data
    g = np.random.default_rng(4)
    dropped = lin.forward(x, g).data
    assert not np.array_equal(dropped, plain)
    again = lin.forward(x, np.random.default_rng(4)).data
    assert np.array_equal(dropped, again)


def test_config_validation():
    with pytest.raises(ConfigError):
        LoraConfig(rank=0)
    with pytest.raises(ConfigError):
        LoraConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        LoraConfig(targets=())
    with pytest.raises(ConfigError):
        LoraConfig(targets=("q", "router"))
    with pytest.raises(ConfigError):
        LoraConfig(dropout_p=1.0)
    for field, value in [("rank", 2.5), ("rank", True), ("rank", "8"),
                         ("alpha", math.nan), ("alpha", math.inf),
                         ("alpha", True), ("alpha", "16"),
                         ("dropout_p", math.nan)]:
        with pytest.raises(ConfigError):
            LoraConfig(**{field: value})


@pytest.mark.parametrize("targets", ["qkv", "gate", 5, ("q", 5), [["q"]]])
def test_targets_must_be_a_tuple_or_list_of_names(targets):
    # a string would be read as its letters, and an int is not iterable
    rule = "targets must be a non-empty tuple or list of names"
    with pytest.raises(ConfigError, match=rule):
        LoraConfig(targets=targets)
    with pytest.raises(ConfigError, match=rule):
        LoraConfig.from_dict({**LoraConfig().to_dict(), "targets": targets})


@pytest.mark.parametrize("config, d, says", [
    (LoraConfig, {}, "lacks key 'rank'"),
    (LoraConfig, {"rank": 8, "alpha": 16.0, "dropout_p": 0.0}, "'targets'"),
    (LoraConfig, {**LoraConfig().to_dict(), "bias": 0}, "unknown key 'bias'"),
    (LoraConfig, None, "from a dict, got NoneType"),
    (ModelConfig, {"x": 1}, "unknown key 'x'"),
    (ModelConfig, {**ModelConfig().to_dict(), "n_heads": None}, "n_heads"),
    (ModelConfig, {k: v for k, v in ModelConfig().to_dict().items()
                   if k != "rope_base"}, "lacks key 'rope_base'"),
    (ModelConfig, [1], "from a dict, got list")],
    ids=["lora-empty", "lora-no-targets", "lora-unknown", "lora-none",
         "model-unknown", "model-none-heads", "model-no-rope", "model-list"])
def test_from_dict_names_the_missing_or_unknown_key(config, d, says):
    with pytest.raises(ConfigError, match=says):
        config.from_dict(d)


def test_targets_as_list_validates_and_round_trips():
    cfg = LoraConfig(targets=["q", "down"])
    assert cfg.targets == ("q", "down")
    assert cfg == LoraConfig(targets=("q", "down"))
    assert LoraConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# model-level behaviour


def test_attach_leaves_outputs_bitwise_unchanged():
    model = init_model(TINY, seed=5)
    ids = [4, 200, 31, 7]
    before = model.forward(ids).data.copy()
    attach_adapters(model, LoraConfig(rank=4, dropout_p=0.0), seed=6)
    after = model.forward(ids).data
    assert np.max(np.abs(after - before)) == 0.0


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
    trainable = model.trainable_parameters()
    assert len(trainable) == 2 * n
    assert all(name.endswith((".lora_a", ".lora_b")) for name in trainable)
    d, ff, r = 16, 24, 8
    per_attn = d * r + r * d            # A [d,r] + B [r,d]
    per_gate_up = d * r + r * ff        # in d -> out ff
    per_down = ff * r + r * d
    expected = 2 * (4 * per_attn + 4 * (2 * per_gate_up + per_down))
    assert sum(t.data.size for t in trainable.values()) == expected


def test_load_adapters_takes_every_factor_from_the_source():
    cfg = LoraConfig(rank=4, targets=("q", "down"))
    want = init_model(TINY, seed=14)
    attach_adapters(want, cfg, seed=15)
    factors = want.trainable_parameters()
    model = init_model(TINY, seed=14)
    asked = []

    def source(name, shape):
        asked.append(name)
        assert factors[name].data.shape == shape
        return factors[name].data.copy()

    assert load_adapters(model, cfg, source) == 2 * (1 + 4)
    assert asked == list(factors)
    got = model.trainable_parameters()
    assert list(got) == list(factors)
    for name, t in factors.items():
        assert np.array_equal(got[name].data, t.data), name


def test_load_adapters_rejects_a_quantized_factor():
    def source(name, shape):
        return quantize_4bit(np.zeros(shape, dtype=np.float32))

    with pytest.raises(ConfigError):
        load_adapters(init_model(TINY, seed=0), LoraConfig(rank=2), source)


@pytest.mark.parametrize("dropout_p", [0.0, 0.1])
def test_model_forward_given_a_generator_draws_only_at_dropout_p_above_0(
        dropout_p):
    model = init_model(TINY, seed=5)
    attach_adapters(model, LoraConfig(rank=4, dropout_p=dropout_p), seed=6)
    rng = np.random.default_rng(7)
    for name, t in model.trainable_parameters().items():
        if name.endswith("lora_b"):  # a branch that contributes
            t.data[:] = rng.standard_normal(t.shape) * 0.1
    ids = [3, 1, 4, 1, 5, 9]
    plain = model.forward(ids).data
    g = np.random.default_rng(8)
    before = g.bit_generator.state
    out = model.forward(ids, rng=g).data
    if dropout_p == 0.0:
        assert out.tobytes() == plain.tobytes()
        assert g.bit_generator.state == before
    else:
        assert not np.array_equal(out, plain)
        assert g.bit_generator.state != before


def test_frozen_weights_bitwise_constant_under_training():
    model = init_model(TINY, seed=11)
    attach_adapters(model, LoraConfig(rank=4, dropout_p=0.0), seed=12)
    frozen_before = {n: t.data.copy() for n, t in model.named_parameters().items()
                     if not t.requires_grad}
    trainable = model.trainable_parameters()
    opt = QuantizedAdam(trainable)
    rng = np.random.default_rng(13)
    for _ in range(10):
        ids = rng.integers(0, 280, 6)
        targets = rng.integers(0, 280, 6)
        loss = T.masked_cross_entropy(
            model.forward(ids, rng=np.random.default_rng(0)), targets,
            np.ones(6))
        for t in trainable.values():
            t.grad = None
        loss.backward()
        opt.step(0.05)
    for name, before in frozen_before.items():
        t = model.named_parameters()[name]
        assert np.array_equal(t.data, before), f"{name} drifted"
