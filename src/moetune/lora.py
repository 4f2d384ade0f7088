"""Low-rank adaptation: frozen base weights plus trainable A/B factors.

For a row-vector input x the adapted projection computes
y = x·W + (alpha/rank)·(x·A)·B, with W [d_in, d_out], A [d_in, rank] and
B [rank, d_out] (Hu et al., arXiv 2106.09685, in row-vector form). B starts at
zero so a freshly attached adapter leaves the model output unchanged; W
never receives gradient. Adapters attach to the decoder's attention
(q/k/v/o) and expert (up/gate/down) projections; the router stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError
from .model import DecoderModel
from .tensor import Tensor

ALL_TARGETS = ("q", "k", "v", "o", "up", "gate", "down")


@dataclass
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0
    targets: tuple[str, ...] = ALL_TARGETS
    dropout_p: float = 0.05

    def validate(self) -> "LoraConfig":
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if not self.targets:
            raise ConfigError("targets must be non-empty")
        unknown = set(self.targets) - set(ALL_TARGETS)
        if unknown:
            raise ConfigError(f"unknown adapter targets: {sorted(unknown)}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        return self

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def to_dict(self) -> dict:
        return {"rank": self.rank, "alpha": self.alpha,
                "targets": list(self.targets), "dropout_p": self.dropout_p}

    @classmethod
    def from_dict(cls, d: dict) -> "LoraConfig":
        return cls(rank=d["rank"], alpha=d["alpha"],
                   targets=tuple(d["targets"]),
                   dropout_p=d["dropout_p"]).validate()


class LoraPair:
    """Trainable factors A [d_in, r] and B [r, d_out] beside a frozen kernel.

    Both factors share the [d_in, d_out] orientation of the model's Linear
    kernels, so the branch and the merge need no transpose.
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

    def branch(self, x: Tensor, training: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        """Adapter contribution (alpha/r)·(x A) B for row-vector inputs."""
        h = x
        if training and self.cfg.dropout_p > 0.0:
            if rng is None:
                raise ConfigError("training-mode dropout needs a generator")
            h = tz.dropout(h, self.cfg.dropout_p, rng)
        up = tz.matmul(tz.matmul(h, self.a), self.b)
        return tz.scale(up, self.cfg.scaling)


def attach_adapters(model: DecoderModel, cfg: LoraConfig, seed: int = 0) -> int:
    """Freeze every base parameter and add fresh adapters to the targets.

    Returns the number of adapted projections. Freshly attached adapters do
    not change any model output (B is zero).
    """
    cfg.validate()
    model.freeze_base()
    rng = np.random.default_rng(seed)
    count = 0
    for _, pname, lin in model._projections():
        if pname not in cfg.targets:
            continue
        d_in, d_out = lin.shape
        lin.adapter = LoraPair.init(d_in, d_out, cfg, rng)
        count += 1
    if count == 0:
        raise ConfigError("no projections matched the adapter targets")
    return count


def adapter_config(model: DecoderModel) -> LoraConfig | None:
    """The config of the adapters attached to the model; None without any."""
    for _, _, lin in model._projections():
        if lin.adapter is not None:
            return lin.adapter.cfg
    return None


def merge_adapters(model: DecoderModel) -> int:
    """Fold every attached adapter into its base kernel (dense f32 result).

    Quantized kernels are dequantized before merging; the merged projection
    is a plain frozen Linear with no adapter.
    """
    merged = 0
    for _, _, lin in model._projections():
        if lin.adapter is None:
            continue
        pair = lin.adapter
        kernel = lin.kernel.dequant() if lin.is_quantized else lin.kernel.data
        delta = pair.cfg.scaling * (pair.a.data @ pair.b.data)
        lin.kernel = Tensor(kernel + delta, requires_grad=False)
        lin.adapter = None
        merged += 1
    return merged


def trainable_parameter_report(model: DecoderModel) -> tuple[int, int, float]:
    """(trainable, frozen, ratio): trainable counts exactly the A/B matrices.

    A model without adapters reports 0 trainable; everything else, quantized
    or f32, counts as frozen.
    """
    trainable = 0
    frozen = 0
    for name, t in model.named_parameters().items():
        if name.endswith(("lora_a", "lora_b")):
            trainable += t.data.size
        else:
            frozen += t.data.size
    for q in model.named_quantized().values():
        frozen += q.n_elements
    ratio = trainable / (trainable + frozen) if trainable + frozen else 0.0
    return trainable, frozen, ratio
