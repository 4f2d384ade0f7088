"""Supervised fine-tuning loop with bit-exact checkpoint/resume.

Each epoch shuffles the corpus with a seed derived from (seed, epoch), so
resuming mid-epoch reproduces the exact batch order. Loss is the mean over
per-sample masked cross entropies; gradient accumulation averages micro
losses, so batch 8 and batch 2 x accum 4 see the same objective. Dropout
draws from a generator keyed by (seed, step, micro), independent of when
the process started.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .checkpoint import TrainState, save_checkpoint
from .errors import ConfigError, LengthError, TrainingAborted
from .lora import LoraConfig, adapter_config
from .model import DecoderModel
from .quant import QuantizedAdam
from .tokenizer import EOT_ID, PAD_ID, TokenizedSample


@dataclass
class TrainConfig:
    epochs: int = 3
    lr: float = 5e-5
    batch_size: int = 8
    grad_accum_steps: int = 1
    save_every: int = 1000
    seed: int = 0
    max_grad_norm: float = 1.0
    warmup_steps: int = 10
    schedule: str = "constant"
    max_steps: int | None = None  # optional cap, mainly for smoke runs
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.save_every < 1:
            raise ConfigError(f"save_every must be >= 1, got {self.save_every}")
        if self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ConfigError("batch_size and grad_accum_steps must be >= 1")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d).validate()


@dataclass
class LossLogRow:
    step: int
    epoch: int
    loss: float
    lr: float


def write_loss_log(rows: list[LossLogRow], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "epoch", "loss", "lr"])
        for r in rows:
            writer.writerow([r.step, r.epoch, repr(r.loss), r.lr])


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch]).permutation(n)


def _micro_batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def _lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if step <= cfg.warmup_steps and cfg.warmup_steps > 0:
        return cfg.lr * step / cfg.warmup_steps
    if cfg.schedule == "cosine":
        span = max(total_steps - cfg.warmup_steps, 1)
        progress = min((step - cfg.warmup_steps) / span, 1.0)
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    return cfg.lr


def _clip_gradients(params: dict, max_norm: float) -> None:
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


def batch_loss(model: DecoderModel, samples: list[TokenizedSample],
               rng: np.random.Generator | None, training: bool = True):
    """Mean per-sample masked CE over a batch padded to its max length."""
    max_len = max(len(s.token_ids) for s in samples)
    total = None
    for s in samples:
        pad = max_len - len(s.token_ids)
        ids = s.token_ids + [PAD_ID] * pad
        mask = s.loss_mask + [0] * pad
        logits = model.forward(ids[:-1], training=training, rng=rng)
        loss = tz.masked_cross_entropy(logits, ids[1:], mask[1:])
        total = loss if total is None else tz.add(total, loss)
    return tz.scale(total, 1.0 / len(samples))


def train(model: DecoderModel, corpus: list[TokenizedSample], cfg: TrainConfig,
          out_dir=None, lora_config: LoraConfig | None = None,
          resume: TrainState | None = None
          ) -> tuple[TrainState, list[LossLogRow]]:
    """Run SFT; returns the final state and per-step loss log.

    Saves a checkpoint every cfg.save_every optimizer steps and at the end
    when out_dir is given. Pass the loaded TrainState as `resume` to
    continue a run; the subsequent loss sequence matches uninterrupted
    training bit for bit. The optimizer always takes its hyperparameters
    from `cfg`; a resumed state contributes only its moments and step
    counts. `lora_config`, when given, must equal the config of the
    adapters attached to the model, which is what checkpoints record.
    """
    cfg.validate()
    if lora_config is not None:
        attached = adapter_config(model)
        if attached is None or attached.to_dict() != lora_config.to_dict():
            raise ConfigError(
                "lora_config does not match the adapters attached to the model")
    if not corpus:
        raise ConfigError("training corpus is empty")
    trainable = model.trainable_parameters()
    if not trainable:
        raise ConfigError("no trainable parameters (attach adapters first)")
    for s in corpus:
        if sum(s.loss_mask) == 0:
            raise ConfigError("corpus sample with all-zero loss mask")

    n_micros = (len(corpus) + cfg.batch_size - 1) // cfg.batch_size
    steps_per_epoch = (n_micros + cfg.grad_accum_steps - 1) // cfg.grad_accum_steps
    total_steps = steps_per_epoch * cfg.epochs
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)

    optimizer = QuantizedAdam(trainable, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    if resume is not None:
        if resume.optim_state is None:
            raise ConfigError("resume state carries no optimizer moments "
                              "(load it with with_optimizer=True)")
        optimizer.state = resume.optim_state
        global_step = resume.step
        start_epoch = resume.epoch
        start_cursor = resume.cursor
    else:
        global_step = 0
        start_epoch = 0
        start_cursor = 0

    log: list[LossLogRow] = []
    state = TrainState(model=model, train_config=cfg.to_dict(),
                       optim_state=optimizer.state,
                       step=global_step, epoch=start_epoch,
                       cursor=start_cursor, seed=cfg.seed)

    def maybe_save(name: str | None = None) -> None:
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        fname = name or f"ckpt_step{state.step}.bin"
        save_checkpoint(state, os.path.join(out_dir, fname))

    done = False
    for epoch in range(start_epoch, cfg.epochs):
        order = _epoch_order(cfg.seed, epoch, len(corpus))
        micros = _micro_batches(order, cfg.batch_size)
        cursor = start_cursor if epoch == start_epoch else 0
        consumed = min(cursor * cfg.grad_accum_steps, len(micros))
        pos = consumed
        step_in_epoch = cursor
        while pos < len(micros):
            chunk = micros[pos:pos + cfg.grad_accum_steps]
            pos += len(chunk)
            optimizer.zero_grad()
            total = None
            for micro_idx, micro in enumerate(chunk):
                rng = np.random.default_rng([cfg.seed, global_step, micro_idx])
                samples = [corpus[i] for i in micro]
                loss = batch_loss(model, samples, rng)
                total = loss if total is None else tz.add(total, loss)
            step_loss = tz.scale(total, 1.0 / len(chunk))
            loss_value = float(step_loss.data)
            if not math.isfinite(loss_value):
                raise TrainingAborted(global_step,
                                      f"non-finite loss at step {global_step}")
            step_loss.backward()
            _clip_gradients(trainable, cfg.max_grad_norm)
            global_step += 1
            step_in_epoch += 1
            lr_t = _lr_at(cfg, global_step, total_steps)
            optimizer.step(lr_t)
            log.append(LossLogRow(global_step, epoch, loss_value, lr_t))
            state.step = global_step
            state.epoch = epoch
            state.cursor = step_in_epoch
            if global_step % cfg.save_every == 0:
                maybe_save()
            if cfg.max_steps is not None and global_step >= cfg.max_steps:
                done = True
                break
        if done:
            break
        state.epoch = epoch + 1
        state.cursor = 0
    maybe_save("ckpt_final.bin")
    if out_dir is not None:
        write_loss_log(log, os.path.join(out_dir, "loss_log.csv"))
    return state, log


# ---------------------------------------------------------------------------
# decoding


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def generate(model: DecoderModel, prompt_tokens, max_new: int,
             mode: str = "greedy", temperature: float = 1.0,
             top_p: float = 0.9, seed: int = 0,
             stop_id: int = EOT_ID) -> list[int]:
    """Autoregressive decoding; stops at <eot> or after max_new tokens.

    greedy is deterministic (ties pick the lowest id); temperature sampling
    converges to greedy as temperature approaches 0.
    """
    prompt = [int(t) for t in prompt_tokens]
    if len(prompt) + max_new > model.config.max_seq_len:
        raise LengthError(
            f"prompt {len(prompt)} + max_new {max_new} exceeds "
            f"max_seq_len {model.config.max_seq_len}")
    if mode not in ("greedy", "temperature", "top_p"):
        raise ConfigError(f"unknown decode mode {mode!r}")
    rng = np.random.default_rng(seed)
    ids = list(prompt)
    out: list[int] = []
    for _ in range(max_new):
        logits = model.forward(ids).data[-1]
        if mode == "greedy":
            nxt = int(np.argmax(logits))
        elif mode == "temperature":
            tau = max(temperature, 1e-8)
            probs = _softmax64(logits / tau)
            nxt = int(rng.choice(len(probs), p=probs))
        else:  # top_p (nucleus) at temperature 1
            probs = _softmax64(logits)
            order = np.argsort(-probs, kind="stable")
            csum = np.cumsum(probs[order])
            cut = int(np.searchsorted(csum, top_p) + 1)
            keep = order[:cut]
            kp = probs[keep] / probs[keep].sum()
            nxt = int(rng.choice(keep, p=kp))
        ids.append(nxt)
        out.append(nxt)
        if nxt == stop_id:
            break
    return out
