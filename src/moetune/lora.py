"""Low-rank adaptation: frozen base weights plus trainable A/B factors.

For a row-vector input x the adapted projection computes
y = x·W + (alpha/rank)·(x·A)·B, with W [d_in, d_out], A [d_in, rank] and
B [rank, d_out] (Hu et al., arXiv 2106.09685, in row-vector form). B starts at
zero so a freshly attached adapter leaves the model output unchanged; W
never receives gradient. Adapters attach to the decoder's attention
(q/k/v/o) and expert (up/gate/down) projections; the router stays frozen.
Each adapted projection (base product, dropout on x and the branch) is one
`tensor.lora_linear` op, so it records one tape op. Dropout runs only in a
forward given a generator, as a training forward is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import (Config, ConfigError, check_seed, check_type, count_rule,
                     is_number)
from .model import DecoderModel
from .quant import QuantizedMatrix
from .tensor import Tensor

ALL_TARGETS = ("q", "k", "v", "o", "up", "gate", "down")


@dataclass(frozen=True)
class LoraConfig(Config):
    rank: int = 8
    alpha: float = 16.0
    targets: tuple[str, ...] = ALL_TARGETS
    dropout_p: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        # a list of names passes the rules too; kept as a tuple, the config
        # equals one built with the tuple, and JSON writes a list of either
        object.__setattr__(self, "targets", tuple(self.targets))

    def _rules(self) -> list[tuple[str, str, bool]]:
        # each rule holds only for a valid value, so NaN fails it, and the
        # range rules run only on numbers; a string is not a list of names
        names = (isinstance(self.targets, (tuple, list)) and bool(self.targets)
                 and all(isinstance(t, str) for t in self.targets))
        return [
            count_rule(self, "rank", 1),
            ("alpha", "a finite number > 0",
             is_number(self.alpha) and 0 < self.alpha < math.inf),
            ("targets", "a non-empty tuple or list of names", names),
            ("targets", f"a subset of {ALL_TARGETS}",
             names and set(self.targets) <= set(ALL_TARGETS)),
            ("dropout_p", "in [0, 1)",
             is_number(self.dropout_p) and 0.0 <= self.dropout_p < 1.0)]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class LoraPair:
    """Trainable factors A [d_in, r] and B [r, d_out] beside a frozen kernel.

    Both factors share the [d_in, d_out] orientation of the model's Linear
    kernels, so the branch needs no transpose.
    """

    def __init__(self, a: Tensor, b: Tensor, cfg: LoraConfig):
        self.a = a
        self.b = b
        self.cfg = cfg

    @classmethod
    def init(cls, d_in: int, d_out: int, cfg: LoraConfig,
             rng: np.random.Generator) -> "LoraPair":
        a = Tensor(rng.normal(0.0, 0.02, (d_in, cfg.rank)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros((cfg.rank, d_out), dtype=np.float32),
                   requires_grad=True)
        return cls(a, b, cfg)

    def project(self, x: Tensor, w: Tensor,
                rng: np.random.Generator | None = None) -> Tensor:
        """x·W plus this adapter's branch, as one `tensor.lora_linear` op.

        Dropout at `dropout_p` draws from `rng`; without one nothing is drawn.
        """
        return tz.lora_linear(x, w, self.a, self.b, self.cfg.scaling,
                              self.cfg.dropout_p, rng)


def _attach(model: DecoderModel, cfg: LoraConfig, make_pair) -> int:
    """Freeze the base and set `make_pair(name, d_in, d_out)` on each target.
    A model that is not a DecoderModel or a cfg that is not a LoraConfig is
    a ConfigError."""
    check_type("model", model, DecoderModel)
    check_type("cfg", cfg, LoraConfig)
    model.freeze_base()
    count = 0
    for name, pname, lin in model._projections():
        if pname in cfg.targets:
            lin.adapter = make_pair(name, *lin.shape)
            count += 1
    if count == 0:
        raise ConfigError("no projections matched the adapter targets")
    return count


def attach_adapters(model: DecoderModel, cfg: LoraConfig, seed: int = 0) -> int:
    """Freeze every base parameter and add fresh adapters to the targets.

    Returns the number of adapted projections. Freshly attached adapters do
    not change any model output (B is zero). A seed that is not an int >= 0
    is a ConfigError.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return _attach(model, cfg, lambda _, d_in, d_out:
                   LoraPair.init(d_in, d_out, cfg, rng))


def load_adapters(model: DecoderModel, cfg: LoraConfig, weight) -> int:
    """Freeze every base parameter and attach adapters read from a source.

    `weight(name, shape)` returns the f32 factors `{projection}.lora_a`
    [d_in, rank] and `{projection}.lora_b` [rank, d_out], asked in
    `attach_adapters` order. Returns the number of adapted projections.
    """
    def pair(name: str, d_in: int, d_out: int) -> LoraPair:
        a = weight(f"{name}.lora_a", (d_in, cfg.rank))
        b = weight(f"{name}.lora_b", (cfg.rank, d_out))
        if isinstance(a, QuantizedMatrix) or isinstance(b, QuantizedMatrix):
            raise ConfigError(f"{name}: adapter factors must be f32")
        return LoraPair(Tensor(a, requires_grad=True),
                        Tensor(b, requires_grad=True), cfg)

    return _attach(model, cfg, pair)


def adapter_config(model: DecoderModel) -> LoraConfig | None:
    """The config of the adapters attached to the model; None without any."""
    for _, _, lin in model._projections():
        if lin.adapter is not None:
            return lin.adapter.cfg
    return None

