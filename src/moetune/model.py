"""Decoder-only transformer with sparse top-k-routed mixture-of-experts FFNs.

Every feed-forward block holds `n_experts` gated-FFN experts; a router picks
the `top_k` highest-logit experts per token and combines their outputs with
softmax weights renormalized over the selected set. Attention is shared
across experts; positions are encoded with rotary embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .errors import ConfigError, LengthError, VocabError
from .quant import QuantizedMatrix, qmatmul, quantize_4bit
from .tensor import Tensor


@dataclass
class ModelConfig:
    """Architecture hyperparameters (SiLU experts, RMSNorm, as in Mixtral)."""

    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 256
    n_experts: int = 8
    top_k: int = 2
    vocab_size: int = 262
    max_seq_len: int = 512
    norm_eps: float = 1e-5
    rope_base: float = 10000.0

    def validate(self) -> "ModelConfig":
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(
                f"top_k must be in [1, n_experts], got {self.top_k}/{self.n_experts}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary pairs")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


@dataclass
class RoutingDecision:
    """Per-token routing outcome: expert_ids sorted by descending router
    logit (ties broken by ascending index), gate weights summing to 1."""

    expert_ids: list[int]
    gate_weights: list[float]


class Linear:
    """Projection y = x @ kernel with kernel [d_in, d_out].

    The kernel may be an f32 Tensor or a frozen QuantizedMatrix. An optional
    adapter (see lora module) contributes an additive low-rank branch.
    """

    def __init__(self, kernel: Tensor | QuantizedMatrix):
        self.kernel = kernel
        self.adapter = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernel.shape if isinstance(self.kernel, QuantizedMatrix) \
            else self.kernel.data.shape

    @property
    def is_quantized(self) -> bool:
        return isinstance(self.kernel, QuantizedMatrix)

    def quantize(self, block_size: int) -> None:
        if not self.is_quantized:
            self.kernel = quantize_4bit(self.kernel.data, block_size)

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        if self.is_quantized:
            out = qmatmul(x, self.kernel)
        else:
            out = tz.matmul(x, self.kernel)
        if self.adapter is not None:
            out = tz.add(out, self.adapter.branch(x, training=training, rng=rng))
        return out


class Norm:
    """RMSNorm with a learned gain."""

    def __init__(self, d: int, eps: float):
        self.eps = eps
        self.weight = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return tz.rms_norm(x, self.weight, self.eps)


class Expert:
    """Gated FFN: silu(x @ w_gate) * (x @ w_up) @ w_down."""

    def __init__(self, w_gate: Linear, w_up: Linear, w_down: Linear):
        self.w_gate = w_gate
        self.w_up = w_up
        self.w_down = w_down

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        gate = tz.silu(self.w_gate.forward(x, training, rng))
        up = self.w_up.forward(x, training, rng)
        return self.w_down.forward(tz.mul(gate, up), training, rng)


class MoELayer:
    """Router plus n_experts identically shaped feed-forward experts."""

    def __init__(self, router: Tensor, experts: list[Expert], top_k: int):
        if router.data.shape[1] != len(experts):
            raise ConfigError(
                f"router output dim {router.data.shape[1]} != n_experts {len(experts)}")
        self.router = router  # [d_model, n_experts]
        self.experts = experts
        self.top_k = top_k

    @property
    def n_experts(self) -> int:
        return len(self.experts)


def _top_k_by_logit(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, descending, ties by
    ascending index (stable sort on negated logits)."""
    return np.argsort(-logits, axis=-1, kind="stable")[..., :k]


def route_top_k(hidden: np.ndarray | Tensor, layer: MoELayer,
                top_k: int | None = None) -> RoutingDecision:
    """Route one token: logits = routerᵀ·hidden, gate = softmax over the
    selected logits (equal to the full softmax renormalized to that set)."""
    k = layer.top_k if top_k is None else top_k
    if k > layer.n_experts:
        raise ConfigError(f"top_k {k} > n_experts {layer.n_experts}")
    h = hidden.data if isinstance(hidden, Tensor) else np.asarray(hidden)
    logits = h @ layer.router.data
    ids = _top_k_by_logit(logits, k)
    sel = logits[ids].astype(np.float64)
    e = np.exp(sel - sel.max())
    gates = e / e.sum()
    return RoutingDecision(expert_ids=[int(i) for i in ids],
                           gate_weights=[float(g) for g in gates])


def moe_forward(hidden_states: Tensor, layer: MoELayer,
                training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
    """Sparse-dispatch forward over [T, d_model].

    Tokens are grouped by selected expert so each expert runs once on its
    sub-batch; outputs are scattered back weighted by the routing gates.
    Only selected experts are evaluated for a token. Gradients flow to the
    router through the gate softmax.
    """
    t_len = hidden_states.data.shape[0]
    router_logits = tz.matmul(hidden_states, layer.router)  # [T, E]
    ids = _top_k_by_logit(router_logits.data, layer.top_k)  # [T, k]
    sel_mask = np.zeros_like(router_logits.data)
    np.put_along_axis(sel_mask, ids, 1.0, axis=1)
    gates = tz.masked_row_softmax(router_logits, sel_mask)  # zeros off-selection

    out: Tensor | None = None
    for e, expert in enumerate(layer.experts):
        token_idx = np.nonzero(sel_mask[:, e] > 0)[0]
        if token_idx.size == 0:
            continue
        xe = tz.index_rows(hidden_states, token_idx)
        ye = expert.forward(xe, training, rng)
        ge = tz.gather_column(gates, token_idx, e)
        piece = tz.scatter_rows(tz.scale_rows(ye, ge), token_idx, t_len)
        out = piece if out is None else tz.add(out, piece)
    return out


class DecoderLayer:
    def __init__(self, attn_norm: Norm, wq: Linear, wk: Linear, wv: Linear,
                 wo: Linear, ffn_norm: Norm, moe: MoELayer):
        self.attn_norm = attn_norm
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.wo = wo
        self.ffn_norm = ffn_norm
        self.moe = moe


class DecoderModel:
    """Embedding -> n_layers x (norm, causal attention, norm, MoE) -> logits."""

    def __init__(self, config: ModelConfig, embedding: Tensor,
                 layers: list[DecoderLayer], final_norm: Norm, lm_head: Linear):
        self.config = config
        self.embedding = embedding
        self.layers = layers
        self.final_norm = final_norm
        self.lm_head = lm_head

    def forward(self, token_ids, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Logits [T, vocab_size] for a token-id sequence."""
        ids = np.asarray(token_ids, dtype=np.int64)
        cfg = self.config
        if ids.size == 0:
            raise LengthError("empty token sequence")
        if ids.size > cfg.max_seq_len:
            raise LengthError(
                f"sequence length {ids.size} > max_seq_len {cfg.max_seq_len}")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise VocabError(f"token id out of range [0, {cfg.vocab_size})")

        x = tz.embedding(self.embedding, ids)
        for layer in self.layers:
            h = layer.attn_norm.forward(x)
            q = tz.rotary(layer.wq.forward(h, training, rng), cfg.n_heads,
                          cfg.rope_base)
            k = tz.rotary(layer.wk.forward(h, training, rng), cfg.n_heads,
                          cfg.rope_base)
            v = layer.wv.forward(h, training, rng)
            attn = tz.causal_attention(q, k, v, cfg.n_heads)
            x = tz.add(x, layer.wo.forward(attn, training, rng))
            h = layer.ffn_norm.forward(x)
            x = tz.add(x, moe_forward(h, layer.moe, training, rng))
        x = self.final_norm.forward(x)
        return self.lm_head.forward(x, training, rng)

    # -- parameter plumbing ------------------------------------------------

    def _projections(self):
        """Yield (name, Linear) for every projection, attention then experts."""
        for i, layer in enumerate(self.layers):
            for pname, lin in (("q", layer.wq), ("k", layer.wk),
                               ("v", layer.wv), ("o", layer.wo)):
                yield f"layers.{i}.attn.w{pname}", pname, lin
            for e, expert in enumerate(layer.moe.experts):
                base = f"layers.{i}.moe.experts.{e}"
                yield f"{base}.w_gate", "gate", expert.w_gate
                yield f"{base}.w_up", "up", expert.w_up
                yield f"{base}.w_down", "down", expert.w_down

    def named_parameters(self) -> dict[str, Tensor]:
        """All f32 tensors by name (quantized kernels are excluded)."""
        params: dict[str, Tensor] = {"embedding": self.embedding}
        for i, layer in enumerate(self.layers):
            for norm_name, norm in (("attn_norm", layer.attn_norm),
                                    ("ffn_norm", layer.ffn_norm)):
                params[f"layers.{i}.{norm_name}.weight"] = norm.weight
            params[f"layers.{i}.moe.router"] = layer.moe.router
        for name, _, lin in self._projections():
            if not lin.is_quantized:
                params[f"{name}.weight"] = lin.kernel
            if lin.adapter is not None:
                params[f"{name}.lora_a"] = lin.adapter.a
                params[f"{name}.lora_b"] = lin.adapter.b
        params["final_norm.weight"] = self.final_norm.weight
        params["lm_head.weight"] = self.lm_head.kernel
        return params

    def named_quantized(self) -> dict[str, QuantizedMatrix]:
        return {f"{name}.weight": lin.kernel
                for name, _, lin in self._projections() if lin.is_quantized}

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named_parameters().items()
                if t.requires_grad}

    def quantize_frozen(self, block_size: int = 64) -> None:
        """Quantize attention and expert projections in place.

        Embeddings, norms, the router, the lm head and any adapters stay f32.
        """
        for _, _, lin in self._projections():
            lin.quantize(block_size)

    def freeze_base(self) -> None:
        """Mark every current parameter as frozen (no gradient)."""
        for t in self.named_parameters().values():
            t.requires_grad = False


def init_model(config: ModelConfig, seed: int = 0) -> DecoderModel:
    """Seeded Gaussian init; projections scale with 1/sqrt(d_in)."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, ff, e_n = config.d_model, config.d_ff, config.n_experts

    def proj(d_in: int, d_out: int) -> Linear:
        w = rng.normal(0.0, d_in ** -0.5, (d_in, d_out)).astype(np.float32)
        return Linear(Tensor(w, requires_grad=True))

    # unit-norm embedding rows: the first norm layer rescales anyway, and
    # O(1) row norms keep finite-difference checks in the smooth regime
    embedding = Tensor(rng.normal(0.0, d ** -0.5, (config.vocab_size, d))
                       .astype(np.float32), requires_grad=True)
    layers = []
    for _ in range(config.n_layers):
        attn_norm = Norm(d, config.norm_eps)
        wq, wk, wv, wo = proj(d, d), proj(d, d), proj(d, d), proj(d, d)
        ffn_norm = Norm(d, config.norm_eps)
        router = Tensor(rng.normal(0.0, d ** -0.5, (d, e_n)).astype(np.float32),
                        requires_grad=True)
        experts = [Expert(proj(d, ff), proj(d, ff), proj(ff, d))
                   for _ in range(e_n)]
        layers.append(DecoderLayer(attn_norm, wq, wk, wv, wo, ffn_norm,
                                   MoELayer(router, experts, config.top_k)))
    final_norm = Norm(d, config.norm_eps)
    lm_head = proj(d, config.vocab_size)
    return DecoderModel(config, embedding, layers, final_norm, lm_head)


def count_active_params(model: DecoderModel) -> tuple[int, int]:
    """(total, active-per-token): active counts non-MoE params, the router,
    and a top_k/n_experts share of the (identically shaped) expert params."""
    cfg = model.config

    def n_elems(lin: Linear) -> int:
        r, c = lin.shape
        return r * c

    expert_total = 0
    non_moe = model.embedding.data.size + n_elems(model.lm_head)
    non_moe += model.final_norm.weight.data.size
    router_total = 0
    for layer in model.layers:
        for norm in (layer.attn_norm, layer.ffn_norm):
            non_moe += norm.weight.data.size
        for lin in (layer.wq, layer.wk, layer.wv, layer.wo):
            non_moe += n_elems(lin)
        router_total += layer.moe.router.data.size
        for expert in layer.moe.experts:
            expert_total += (n_elems(expert.w_gate) + n_elems(expert.w_up)
                             + n_elems(expert.w_down))

    total = non_moe + router_total + expert_total
    active = non_moe + router_total + (expert_total * cfg.top_k) // cfg.n_experts
    return total, active
