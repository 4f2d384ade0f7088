"""Decoder-only transformer with sparse top-k-routed mixture-of-experts FFNs.

Every feed-forward block holds `n_experts` SwiGLU experts, each gating its
up projection with one fused `tensor.swiglu` op; a router picks the `top_k`
highest-logit experts per token and combines their outputs with softmax
weights renormalized over the selected set. Attention is shared across
experts; positions are encoded with rotary embeddings, their angles a
table the model computes once. Each RMSNorm gain is a plain Tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .errors import (ConfigError, DimensionError, LengthError, NumericError,
                     VocabError, check_rules, count_rule, is_int, is_number)
from .quant import DEFAULT_BLOCK_SIZE, QuantizedMatrix, qmatmul, quantize_4bit
from .tensor import Tensor
from .tokenizer import VOCAB_SIZE


@dataclass
class ModelConfig:
    """Architecture hyperparameters (SiLU experts, RMSNorm, as in Mixtral)."""

    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 256
    n_experts: int = 8
    top_k: int = 2
    vocab_size: int = VOCAB_SIZE
    max_seq_len: int = 512
    norm_eps: float = 1e-5
    rope_base: float = 10000.0

    def validate(self) -> "ModelConfig":
        # each rule holds only for a valid value, so NaN fails it; the head
        # rules divide only once d_model and n_heads are ints, n_heads >= 1
        heads = (is_int(self.d_model) and is_int(self.n_heads)
                 and self.n_heads >= 1)
        rules = [count_rule(self, name, 1)
                 for name in ("n_layers", "d_model", "n_heads", "d_ff",
                              "n_experts", "vocab_size", "max_seq_len")]
        rules += [("top_k", f"an int in [1, n_experts = {self.n_experts}]",
                   is_int(self.top_k) and is_int(self.n_experts)
                   and 1 <= self.top_k <= self.n_experts),
                  ("d_model", f"divisible by n_heads = {self.n_heads}",
                   heads and self.d_model % self.n_heads == 0),
                  ("d_model", "n_heads times an even head dim (rotary pairs)",
                   heads and self.d_model // self.n_heads % 2 == 0),
                  ("norm_eps", "a number > 0",
                   is_number(self.norm_eps) and self.norm_eps > 0),
                  ("rope_base", "a number > 0",
                   is_number(self.rope_base) and self.rope_base > 0)]
        check_rules(self, rules)
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


class Linear:
    """Projection y = x @ kernel with kernel [d_in, d_out].

    The kernel may be an f32 Tensor or a frozen QuantizedMatrix; a quantized
    kernel enters through `quant.qmatmul`, once per call. An optional
    adapter (see lora module) adds its low-rank branch inside the same op:
    an adapted projection records one `tensor.lora_linear` op and an
    unadapted one a single `tensor.matmul`.
    """

    def __init__(self, kernel: Tensor | QuantizedMatrix):
        self.kernel = kernel
        self.adapter = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernel.shape

    @property
    def is_quantized(self) -> bool:
        return isinstance(self.kernel, QuantizedMatrix)

    def forward(self, x: Tensor,
                rng: np.random.Generator | None = None) -> Tensor:
        if self.is_quantized:
            return qmatmul(x, self.kernel, self.adapter, rng)
        if self.adapter is None:
            return tz.matmul(x, self.kernel)
        return self.adapter.project(x, self.kernel, rng)


class Expert:
    """SwiGLU FFN: silu(x @ w_gate) * (x @ w_up) @ w_down.

    The gate's activation and product are one `tensor.swiglu` op.
    """

    def __init__(self, w_gate: Linear, w_up: Linear, w_down: Linear):
        self.w_gate = w_gate
        self.w_up = w_up
        self.w_down = w_down

    def forward(self, x: Tensor,
                rng: np.random.Generator | None = None) -> Tensor:
        gate_pre = self.w_gate.forward(x, rng)
        up = self.w_up.forward(x, rng)
        return self.w_down.forward(tz.swiglu(gate_pre, up), rng)


class MoELayer:
    """Router plus n_experts identically shaped feed-forward experts."""

    def __init__(self, router: Tensor, experts: list[Expert], top_k: int):
        if router.data.shape[1] != len(experts):
            raise ConfigError(
                f"router output dim {router.data.shape[1]} != n_experts {len(experts)}")
        self.router = router  # [d_model, n_experts]
        self.experts = experts
        self.top_k = top_k


def moe_forward(hidden_states: Tensor, layer: MoELayer,
                rng: np.random.Generator | None = None) -> Tensor:
    """Sparse-dispatch forward over [T, d_model].

    Tokens are grouped by selected expert so each expert runs once on its
    sub-batch, and only selected experts are evaluated for a token. One
    `combine_rows` weights every expert's rows by their routing gates and
    adds them up per token, in expert order. Gradients flow to the router
    through the gate softmax.
    """
    router_logits = tz.matmul(hidden_states, layer.router)  # [T, E]
    # an unselected expert's logit never reaches the gates, so a NaN there
    # would not reach the model's logits either
    tz.check_finite(router_logits.data, "the router")
    # [T, k]: the top_k largest logits per row, ties by ascending index
    ids = np.argsort(-router_logits.data, axis=-1, kind="stable")[:, :layer.top_k]
    sel_mask = np.zeros_like(router_logits.data)
    np.put_along_axis(sel_mask, ids, 1.0, axis=1)
    gates = tz.masked_row_softmax(router_logits, sel_mask)  # zeros off-selection

    parts = []
    for e, expert in enumerate(layer.experts):
        rows = np.nonzero(sel_mask[:, e] > 0)[0]
        if rows.size:
            xe = tz.index_rows(hidden_states, rows)
            parts.append((e, rows, expert.forward(xe, rng)))
    return tz.combine_rows(gates, parts, hidden_states.data.shape[0])


@dataclass
class KVCache:
    """Post-rotary keys and values of every decoder layer, for decoding.

    `keys` and `values` are [n_layers, rows, d_model] f32 buffers, rows a
    multiple of `tensor.KEY_BLOCK`; layer i's rows [:length] hold the
    positions seen so far, and every row from `length` on is zero, which
    lets attention read whole key blocks of the buffers in place. Start
    with `for_positions`, sized to the positions the sequence will feed, or
    with an empty cache, whose first forward allocates max_seq_len rows
    rounded up; pass it to every `DecoderModel.forward` call of one
    sequence. A forward given a cache records no autograd tape: decoding
    holds the cache and one op's working set, not the intermediates of the
    whole forward.
    """

    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    length: int = 0

    @classmethod
    def for_positions(cls, config: ModelConfig, positions: int) -> "KVCache":
        """An empty cache with zero rows for `positions` positions, rounded
        up to whole key blocks."""
        rows = -(-positions // tz.KEY_BLOCK) * tz.KEY_BLOCK
        keys, values = np.zeros((2, config.n_layers, rows, config.d_model),
                                dtype=tz.DTYPE)
        return cls(keys, values)


class DecoderLayer:
    def __init__(self, attn_norm: Tensor, wq: Linear, wk: Linear, wv: Linear,
                 wo: Linear, ffn_norm: Tensor, moe: MoELayer):
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
                 layers: list[DecoderLayer], final_norm: Tensor,
                 lm_head: Linear):
        self.config = config
        self.embedding = embedding
        self.layers = layers
        self.final_norm = final_norm
        self.lm_head = lm_head
        # rotary angles; row p is position p for every forward
        self.rope_cos, self.rope_sin = tz.rotary_table(
            config.max_seq_len, config.d_model // config.n_heads,
            config.rope_base)

    def forward(self, token_ids, rng: np.random.Generator | None = None,
                cache: KVCache | None = None) -> Tensor:
        """Logits [T, vocab_size] for a token-id sequence.

        The ids are ints in [0, vocab_size); a bool or float is a
        VocabError. They run at positions start .. end - 1, whose rows of
        the model's rotary table rotate every layer's queries and keys.
        Without a cache, start is 0. With a `cache`, `token_ids` are the
        next T tokens after the `cache.length` it already holds: start is
        cache.length, they attend to the cached keys and values, and are
        appended to the cache. Causal prefix stability makes the result
        bitwise equal to the last T rows of a forward over the whole
        sequence. Keys and values that are not f32 arrays of one shape
        [n_layers, rows, d_model], rows a multiple of KEY_BLOCK, a length
        that is not an int in [0, max_seq_len], or a length above 0 with no
        cached keys is a ConfigError; an end past the cache's rows is a
        LengthError. Both are raised before the cache is touched.

        Adapter dropout runs only when a generator `rng` is given, and draws
        from it. A cached forward is inference only: given a generator it
        raises ConfigError, and it runs under `tensor.no_tape`, so its
        logits have no parents, `requires_grad` is False, backward through
        them raises TapeError, and no op's intermediates outlive the op.
        Without a cache the forward records the tape whenever a parameter
        requires grad.

        The ops run under `tensor.no_op_checks`. What is checked instead is
        the logits, and in each layer the keys and the router logits, where
        attention's softmax or the routing could drop a NaN or an Inf before
        it reaches the logits. If one holds a NaN or an Inf, the forward
        runs again with every op checked, from the generator state it
        started with, so it draws the same dropout masks, and raises the
        NumericError of the first op that produced one. A cached forward
        that raises leaves the cache as it was.
        """
        ids = np.asarray(token_ids)
        if ids.ndim != 1:
            raise DimensionError(f"token_ids must be 1-D, got {ids.shape}")
        cfg = self.config
        if cache is not None and rng is not None:
            raise ConfigError("a key/value cache is for inference only")
        if cache is not None:
            if not (is_int(cache.length)
                    and 0 <= cache.length <= cfg.max_seq_len):
                raise ConfigError(
                    f"cache length must be an int in [0, max_seq_len = "
                    f"{cfg.max_seq_len}], got {cache.length!r}")
            if cache.keys is None and cache.length:
                raise ConfigError(f"cache length {cache.length} but no "
                                  "keys or values cached")
            if cache.keys is not None and not self._fits(cache):
                raise ConfigError(
                    f"cache keys {getattr(cache.keys, 'shape', None)} and "
                    "values must be f32 arrays of one shape [n_layers = "
                    f"{cfg.n_layers}, rows, d_model = {cfg.d_model}], rows "
                    f"a multiple of KEY_BLOCK = {tz.KEY_BLOCK}")
        start = 0 if cache is None else cache.length
        end = start + ids.size
        if ids.size == 0:
            raise LengthError("empty token sequence")
        if end > cfg.max_seq_len:
            raise LengthError(
                f"sequence length {end} > max_seq_len {cfg.max_seq_len}")
        if cache is not None and cache.keys is not None \
                and end > cache.keys.shape[1]:
            raise LengthError(f"sequence length {end} > the cache's "
                              f"{cache.keys.shape[1]} rows")
        # np.asarray turns a bool among ints into an int, so a list is
        # checked element by element
        if not (ids.dtype.kind in "iu" if isinstance(token_ids, np.ndarray)
                else all(map(is_int, token_ids))):
            raise VocabError("token ids must be ints")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise VocabError(f"token id out of range [0, {cfg.vocab_size})")

        if cache is None:
            return self._checked(ids, rng, None)
        if cache.keys is None:
            kv = KVCache.for_positions(cfg, cfg.max_seq_len)
        else:
            kv = KVCache(cache.keys, cache.values, start)
        with tz.no_tape():
            try:
                logits = self._checked(ids, None, kv)
            except BaseException:
                # rows from `length` on are zero, and stay so
                kv.keys[:, start:end] = 0
                kv.values[:, start:end] = 0
                raise
        cache.keys, cache.values, cache.length = kv.keys, kv.values, end
        return logits

    def _fits(self, cache: KVCache) -> bool:
        """Whether the cache's buffers are this model's f32 key/value rows."""
        keys, values = cache.keys, cache.values
        return (isinstance(keys, np.ndarray) and isinstance(values, np.ndarray)
                and keys.shape == values.shape and keys.ndim == 3
                and keys.dtype == values.dtype == tz.DTYPE
                and keys.shape[0] == self.config.n_layers
                and keys.shape[2] == self.config.d_model
                and keys.shape[1] % tz.KEY_BLOCK == 0)

    def _checked(self, ids: np.ndarray, rng: np.random.Generator | None,
                 cache: KVCache | None) -> Tensor:
        """`_run` with per-op checks off and its output checked; on a
        non-finite value, `_run` again with them on to name the op."""
        state = None if rng is None else rng.bit_generator.state
        try:
            with tz.no_op_checks():
                logits = self._run(ids, rng, cache)
            tz.check_finite(logits.data, "the logits")
            return logits
        except NumericError as e:
            # its traceback holds the frames of the whole run, and so their
            # tape: the error raised from here keeps only its message
            deferred = str(e)
        if rng is not None:
            rng.bit_generator.state = state
        self._run(ids, rng, cache)
        # the replay raises at the first op whose output is not finite;
        # should none be, the first error stands
        raise NumericError(deferred)

    def _run(self, ids: np.ndarray, rng: np.random.Generator | None,
             cache: KVCache | None) -> Tensor:
        """The layers over positions start .. end - 1; a cache's rows
        start .. end - 1 are written and its length left as it was."""
        cfg = self.config
        start = 0 if cache is None else cache.length
        end = start + ids.size
        cos, sin = self.rope_cos[start:end], self.rope_sin[start:end]
        x = tz.index_rows(self.embedding, ids)
        for i, layer in enumerate(self.layers):
            h = tz.rms_norm(x, layer.attn_norm, cfg.norm_eps)
            q = tz.rotary(layer.wq.forward(h, rng), cos, sin)
            k = tz.rotary(layer.wk.forward(h, rng), cos, sin)
            # an Inf key that scores -Inf in every row that sees it gets
            # weight 0 there, and so would not reach the logits
            tz.check_finite(k.data, "the keys")
            v = layer.wv.forward(h, rng)
            if cache is not None:
                # attention reads the layer's rows in place
                cache.keys[i, start:end] = k.data
                cache.values[i, start:end] = v.data
                k, v = Tensor(cache.keys[i]), Tensor(cache.values[i])
            attn = tz.causal_attention(q, k, v, cfg.n_heads, end)
            x = tz.add(x, layer.wo.forward(attn, rng))
            h = tz.rms_norm(x, layer.ffn_norm, cfg.norm_eps)
            x = tz.add(x, moe_forward(h, layer.moe, rng))
        x = tz.rms_norm(x, self.final_norm, cfg.norm_eps)
        return self.lm_head.forward(x, rng)

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
            params[f"layers.{i}.attn_norm.weight"] = layer.attn_norm
            params[f"layers.{i}.ffn_norm.weight"] = layer.ffn_norm
            params[f"layers.{i}.moe.router"] = layer.moe.router
        for name, _, lin in self._projections():
            if not lin.is_quantized:
                params[f"{name}.weight"] = lin.kernel
            if lin.adapter is not None:
                params[f"{name}.lora_a"] = lin.adapter.a
                params[f"{name}.lora_b"] = lin.adapter.b
        params["final_norm.weight"] = self.final_norm
        params["lm_head.weight"] = self.lm_head.kernel
        return params

    def named_quantized(self) -> dict[str, QuantizedMatrix]:
        return {f"{name}.weight": lin.kernel
                for name, _, lin in self._projections() if lin.is_quantized}

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named_parameters().items()
                if t.requires_grad}

    def quantize_frozen(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        """Quantize attention and expert projections in place.

        Embeddings, norms, the router, the lm head and any adapters stay f32.
        """
        for _, _, lin in self._projections():
            if not lin.is_quantized:
                lin.kernel = quantize_4bit(lin.kernel.data, block_size)

    def freeze_base(self) -> None:
        """Mark every current parameter as frozen (no gradient)."""
        for t in self.named_parameters().values():
            t.requires_grad = False


def build_model(config: ModelConfig, weight) -> DecoderModel:
    """Assemble a model whose every tensor comes from `weight(name, shape)`.

    Names are those of `named_parameters` and `named_quantized`. The source
    returns an f32 array of the given shape, or a QuantizedMatrix for an
    attention or expert kernel. It is asked once per name, in this order:
    embedding, then per layer attn_norm, wq, wk, wv, wo, ffn_norm, router and
    each expert's w_gate, w_up, w_down, then final_norm and lm_head. Every
    f32 tensor is trainable.
    """
    config.validate()
    d, ff = config.d_model, config.d_ff

    def param(name: str, shape: tuple[int, ...]) -> Tensor:
        w = weight(name, shape)
        if isinstance(w, QuantizedMatrix):
            raise ConfigError(f"{name}: only attention and expert kernels "
                              "are quantized")
        return Tensor(w, requires_grad=True)

    def proj(name: str, d_in: int, d_out: int) -> Linear:
        w = weight(f"{name}.weight", (d_in, d_out))
        return Linear(w if isinstance(w, QuantizedMatrix)
                      else Tensor(w, requires_grad=True))

    embedding = param("embedding", (config.vocab_size, d))
    layers = []
    for i in range(config.n_layers):
        pre = f"layers.{i}"
        attn_norm = param(f"{pre}.attn_norm.weight", (d,))
        wq, wk, wv, wo = (proj(f"{pre}.attn.w{p}", d, d) for p in "qkvo")
        ffn_norm = param(f"{pre}.ffn_norm.weight", (d,))
        router = param(f"{pre}.moe.router", (d, config.n_experts))
        experts = [Expert(proj(f"{pre}.moe.experts.{e}.w_gate", d, ff),
                          proj(f"{pre}.moe.experts.{e}.w_up", d, ff),
                          proj(f"{pre}.moe.experts.{e}.w_down", ff, d))
                   for e in range(config.n_experts)]
        layers.append(DecoderLayer(attn_norm, wq, wk, wv, wo, ffn_norm,
                                   MoELayer(router, experts, config.top_k)))
    final_norm = param("final_norm.weight", (d,))
    lm_head = Linear(param("lm_head.weight", (d, config.vocab_size)))
    return DecoderModel(config, embedding, layers, final_norm, lm_head)


def init_model(config: ModelConfig, seed: int = 0) -> DecoderModel:
    """A fresh trainable f32 model: unit norm gains, seeded Gaussian weights.

    Projections and the router draw with std 1/sqrt(d_in), in the order
    `build_model` asks for them, so a seed fixes every value.
    """
    rng = np.random.default_rng(seed)

    def gaussian(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith("norm.weight"):
            return np.ones(shape, dtype=np.float32)
        # unit-norm embedding rows: the first norm layer rescales anyway, and
        # O(1) row norms keep finite-difference checks in the smooth regime
        std = config.d_model ** -0.5 if name == "embedding" else shape[0] ** -0.5
        return rng.normal(0.0, std, shape).astype(np.float32)

    return build_model(config, gaussian)
