"""Supervised fine-tuning loop with bit-exact checkpoint/resume.

Each epoch shuffles the corpus with a seed derived from (seed, epoch), so
resuming mid-epoch reproduces the exact batch order. A step takes
batch_size samples, pads them to their longest, and minimizes the mean of
their masked cross entropies. Every sample runs its own forward and its
own backward, which frees the sample's tape as it goes, before the next
sample's forward: a step holds one sample's activations at a time. The
backward's seed is f32(1 / batch), the gradient that one tape over the
batch (`batch_loss`) gives each sample's loss. Samples run in that tape's
order, so the gradients and the loss log are bitwise those of one backward
per batch. Dropout draws from a generator keyed by (seed, step),
independent of when the process started.

A run's position lives in its TrainState: after a step, `epoch` is the
epoch the step ran in and `cursor` the steps done in it. An epoch that ends
leaves (e, its step count), which resumes as (e + 1, 0) does. A resumed run
keeps the seed and batch_size it was saved with, since they fix which
samples each step takes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tz
from .checkpoint import TrainState, save_checkpoint
from .errors import (Config, ConfigError, LengthError, NumericError,
                     TrainingAborted, VocabError, check_path, check_seed,
                     check_type, count_rule, is_count, is_int, is_number)
from .lora import LoraConfig, adapter_config
from .model import DecoderModel, KVCache
from .quant import QuantizedAdam, adam_rules
from .tokenizer import EOT_ID, PAD_ID, TokenizedSample


@dataclass(frozen=True)
class TrainConfig(Config):
    """Hyperparameters of one `train` run. A step is one batch: a GPU
    recipe's per-device batch x accumulation steps is `batch_size`, at a
    cost: batch 2 x accum 4 becomes batch 8, which pads each sample to the
    longest of 8, not of 2."""

    epochs: int = 3
    lr: float = 5e-5
    batch_size: int = 8
    save_every: int = 1000
    seed: int = 0
    max_grad_norm: float = 1.0
    warmup_steps: int = 10
    schedule: str = "constant"
    max_steps: int | None = None  # optional cap, mainly for smoke runs
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def _rules(self) -> list[tuple[str, str, bool]]:
        # each rule holds only for a valid value, so NaN fails it, and the
        # range rules run only on numbers
        return [
            count_rule(self, "epochs", 1),
            ("lr", "a finite number >= 0",
             is_number(self.lr) and 0 <= self.lr < math.inf),
            count_rule(self, "save_every", 1),
            count_rule(self, "seed", 0),
            count_rule(self, "batch_size", 1),
            ("schedule", "'constant' or 'cosine'",
             self.schedule in ("constant", "cosine")),
            ("max_steps", "None or an int >= 1",
             self.max_steps is None or is_count(self.max_steps, 1)),
            ("max_grad_norm", "a number > 0",
             is_number(self.max_grad_norm) and self.max_grad_norm > 0),
            count_rule(self, "warmup_steps", 0),
            *adam_rules(self)]


@dataclass
class LossLogRow:
    """One optimizer step: its loss, learning rate, and the global gradient
    norm before clipping, with whether clipping scaled the gradients."""

    step: int
    epoch: int
    loss: float
    lr: float
    grad_norm: float
    clipped: bool


def write_loss_log(rows: list[LossLogRow], path) -> None:
    """Write the step log as JSONL: one JSON object per row, keyed by the
    fields of LossLogRow. Floats are written with repr, so they read back
    exactly. Rows that are not a list of LossLogRow, and a path that is not
    a str, bytes or os.PathLike, are a ConfigError, raised before the file
    is opened; so is a row whose fields JSON cannot write, such as a numpy
    int or bytes, which leaves the file at `path` as it was."""
    check_type("rows", rows, list)
    lines = []
    for i, r in enumerate(rows):
        check_type(f"row {i}", r, LossLogRow)
        try:
            lines.append(json.dumps(asdict(r)) + "\n")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"row {i} cannot be written as JSON: "
                              f"{e}") from None
    path = check_path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch]).permutation(n)


def _lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if step <= cfg.warmup_steps and cfg.warmup_steps > 0:
        return cfg.lr * step / cfg.warmup_steps
    if cfg.schedule == "cosine":
        span = max(total_steps - cfg.warmup_steps, 1)
        progress = min((step - cfg.warmup_steps) / span, 1.0)
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    return cfg.lr


def _sample_losses(model: DecoderModel, samples: list[TokenizedSample],
                   rng: np.random.Generator | None):
    """Yield each sample's masked CE, in order, over the sample padded to
    the batch's max length; adapter dropout draws from `rng`, and runs only
    when it is given. Each forward runs when the caller asks for its loss.
    The logits are released (`Tensor.release`) once the loss is built: its
    backward reads the exponentials it keeps, not the logits."""
    max_len = max(len(s.token_ids) for s in samples)
    for s in samples:
        pad = max_len - len(s.token_ids)
        ids = s.token_ids + [PAD_ID] * pad
        mask = s.loss_mask + [0] * pad
        logits = model.forward(ids[:-1], rng=rng)
        loss = tz.masked_cross_entropy(logits, ids[1:], mask[1:])
        logits.release()
        yield loss


def batch_loss(model: DecoderModel, samples: list[TokenizedSample],
               rng: np.random.Generator | None):
    """Mean per-sample masked CE over a batch padded to its max length, on
    one tape: the objective `train` minimizes a sample at a time."""
    total = None
    for loss in _sample_losses(model, samples, rng):
        total = loss if total is None else tz.add(total, loss)
    return tz.scale(total, 1.0 / len(samples))


def _steps(cfg: TrainConfig, n: int, epoch: int, cursor: int):
    """Yield (epoch, cursor after the step, its sample indices) for every
    step from `cursor` steps into `epoch` to the end of the last epoch.

    A cursor at or past an epoch's step count yields nothing for it.
    """
    size = cfg.batch_size
    for e in range(epoch, cfg.epochs):
        order = _epoch_order(cfg.seed, e, n)
        for c in range(cursor if e == epoch else 0, (n + size - 1) // size):
            yield e, c + 1, order[c * size:(c + 1) * size]


def train(model: DecoderModel, corpus: list[TokenizedSample], cfg: TrainConfig,
          out_dir=None, lora_config: LoraConfig | None = None,
          resume: TrainState | None = None
          ) -> tuple[TrainState, list[LossLogRow]]:
    """Run SFT; returns the final state and per-step loss log.

    Saves a checkpoint every cfg.save_every optimizer steps and at the end
    when out_dir is given; the checkpoints share one base file there (see
    `checkpoint`). Pass the loaded TrainState as `resume` to
    continue a run; the subsequent loss sequence matches uninterrupted
    training bit for bit. `cfg` must keep the state's seed and batch_size,
    and the state's moments must be those of the model's trainable
    parameters, or ConfigError is raised; the rest may change. The optimizer
    takes its hyperparameters from `cfg`, the state only its moments, step
    counts and position (see the module docstring). `lora_config`, when
    given, must equal the config of the adapters attached to the model,
    which is what checkpoints record. Every sample needs a target, at least
    2 tokens and a non-zero loss_mask[1:], and a loss_mask of 0s and 1s
    only, or ConfigError is raised before the first step; a sample longer
    than max_seq_len + 1 tokens raises LengthError there. A model, cfg,
    corpus, corpus entry, lora_config or resume of another type than the
    signature names, and an out_dir that is not None, a str, bytes or
    os.PathLike, are a ConfigError, raised there too.
    The optimizer step clips the gradients to cfg.max_grad_norm (`.grad`
    keeps them unclipped) and gives the log its norm before clipping. A
    non-finite loss or gradient, or a NumericError from the step's forward,
    backward or optimizer, raises TrainingAborted with the step index and
    leaves the parameters, moments and state as the last step left them.
    """
    for name, value, kind, optional in (
            ("model", model, DecoderModel, False),
            ("cfg", cfg, TrainConfig, False),
            ("corpus", corpus, list, False),
            ("lora_config", lora_config, LoraConfig, True),
            ("resume", resume, TrainState, True)):
        check_type(name, value, kind, optional)
    if out_dir is not None:
        out_dir = check_path(out_dir)
    if lora_config is not None and adapter_config(model) != lora_config:
        raise ConfigError(
            "lora_config does not match the adapters attached to the model")
    if not corpus:
        raise ConfigError("training corpus is empty")
    trainable = model.trainable_parameters()
    if not trainable:
        raise ConfigError("no trainable parameters (attach adapters first)")
    for i, s in enumerate(corpus):
        if not isinstance(s, TokenizedSample):
            raise ConfigError(f"corpus sample {i} must be a TokenizedSample, "
                              f"got {type(s).__name__}")
        # position 0 is never a target, so its mask bit does not count
        if len(s.token_ids) < 2 or not any(s.loss_mask[1:]):
            raise ConfigError(f"corpus sample {i} has no target to learn: "
                              "fewer than 2 tokens or loss_mask[1:] all 0")
        if not set(s.loss_mask) <= {0, 1}:  # a 2 would count a token twice
            raise ConfigError(f"corpus sample {i} has a loss_mask value "
                              "other than 0 and 1")
        # the forward reads every token but the last
        if len(s.token_ids) - 1 > model.config.max_seq_len:
            raise LengthError(
                f"corpus sample {i} has {len(s.token_ids)} tokens; the model "
                f"reads at most max_seq_len + 1 = {model.config.max_seq_len + 1}")

    steps_per_epoch = (len(corpus) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)

    optimizer = QuantizedAdam(trainable, cfg.beta1, cfg.beta2, cfg.eps)
    state = TrainState(model=model, train_config=cfg,
                       optim_state=optimizer.state)
    if resume is not None:
        _check_resume(cfg, resume, trainable)
        optimizer.state = state.optim_state = resume.optim_state
        state.step, state.epoch, state.cursor = (resume.step, resume.epoch,
                                                 resume.cursor)

    def maybe_save(name: str) -> None:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            save_checkpoint(state, os.path.join(out_dir, name))

    log: list[LossLogRow] = []
    for epoch, cursor, batch in _steps(cfg, len(corpus), state.epoch,
                                       state.cursor):
        if cfg.max_steps is not None and state.step >= cfg.max_steps:
            break
        for t in trainable.values():
            t.grad = None
        lr_t = _lr_at(cfg, state.step + 1, total_steps)
        try:
            rng = np.random.default_rng([cfg.seed, state.step])
            loss_sum = None  # f32, summed in sample order
            for loss in _sample_losses(model, [corpus[i] for i in batch], rng):
                loss_sum = (loss.data if loss_sum is None
                            else loss_sum + loss.data)
                if not math.isfinite(loss_sum):
                    raise TrainingAborted(
                        state.step, f"non-finite loss at step {state.step}")
                tz.scale(loss, 1.0 / len(batch)).backward()
            loss_value = float(loss_sum * np.float32(1 / len(batch)))
            grad_norm = optimizer.step(lr_t, cfg.max_grad_norm)
        except NumericError as e:
            raise TrainingAborted(state.step, f"step {state.step}: {e}") from e
        state.step, state.epoch, state.cursor = state.step + 1, epoch, cursor
        log.append(LossLogRow(state.step, epoch, loss_value, lr_t,
                              grad_norm, grad_norm > cfg.max_grad_norm))
        if state.step % cfg.save_every == 0:
            maybe_save(f"ckpt_step{state.step}.bin")
    maybe_save("ckpt_final.bin")
    if out_dir is not None:
        write_loss_log(log, os.path.join(out_dir, "loss_log.jsonl"))
    return state, log


def _check_resume(cfg: TrainConfig, resume: TrainState, trainable) -> None:
    """ConfigError unless `resume` has moments of the `trainable` parameters
    and was saved with the seed and batch_size of `cfg`."""
    if resume.optim_state is None:
        raise ConfigError("resume state carries no optimizer moments "
                          "(load it with with_optimizer=True)")
    why = resume.optim_state.mismatch(trainable)
    if why is not None:
        raise ConfigError(f"resume state's optimizer {why}")
    saved = resume.train_config
    if not isinstance(saved, TrainConfig):
        raise ConfigError("resume state carries no train_config")
    for key in ("seed", "batch_size"):
        if getattr(saved, key) != getattr(cfg, key):
            raise ConfigError(f"a resumed run keeps the saved {key} "
                              f"{getattr(saved, key)!r}, got "
                              f"{getattr(cfg, key)!r}")


# ---------------------------------------------------------------------------
# decoding


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def generate(model: DecoderModel, prompt_tokens, max_new: int,
             temperature: float = 0.0, top_p: float = 1.0, seed: int = 0,
             stop_id: int = EOT_ID) -> list[int]:
    """Autoregressive decoding; stops at `stop_id` or after max_new tokens.

    One forward over the prompt fills a key/value cache and gives the logits
    of its last position, those of the first token, alone; every further
    token runs as a single row against that cache. The cache is
    `KVCache(model.config, positions)` for the positions fed, the prompt
    and every new token but the last, so it has their rows rounded up to
    whole key blocks. The logits are bitwise equal to the last row of
    a forward over the whole prefix, so the tokens are those a full-prefix
    loop would pick.

    One sampling rule: temperature 0 is greedy (ties pick the lowest id).
    Above 0 the token is drawn, from a generator seeded with `seed`, out of
    softmax(logits / max(temperature, 1e-8)); a top_p below 1 first cuts
    that distribution to its nucleus, the most probable tokens whose mass
    reaches top_p (Holtzman et al., arXiv 1904.09751), renormalized. A
    model that is not a DecoderModel, a temperature below 0 or NaN, a top_p
    outside [0, 1], a max_new or seed that is not an int >= 0, or a stop_id
    that is not an int is a ConfigError, raised before any forward. A
    prompt that is not a sequence is a VocabError, raised before any
    forward; a prompt token that is not an int is a VocabError, raised by
    the forward.
    """
    check_type("model", model, DecoderModel)
    try:
        prompt = list(prompt_tokens)
    except TypeError:  # not iterable
        raise VocabError(f"prompt tokens must be a sequence of ints, got "
                         f"{type(prompt_tokens).__name__}") from None
    if not is_count(max_new):
        raise ConfigError(f"max_new must be an int >= 0, got {max_new!r}")
    if len(prompt) + max_new > model.config.max_seq_len:
        raise LengthError(
            f"prompt {len(prompt)} + max_new {max_new} exceeds "
            f"max_seq_len {model.config.max_seq_len}")
    if not (is_number(temperature) and temperature >= 0):  # NaN fails it
        raise ConfigError(f"temperature must be >= 0, got {temperature!r}")
    if not (is_number(top_p) and 0 <= top_p <= 1):
        raise ConfigError(f"top_p must be in [0, 1], got {top_p!r}")
    check_seed(seed)
    if not is_int(stop_id):  # any int, since -1 never stops
        raise ConfigError(f"stop_id must be an int, got {stop_id!r}")
    rng = np.random.default_rng(seed)
    cache = KVCache(model.config, max(len(prompt) + max_new - 1, 0))
    step_ids = prompt
    out: list[int] = []
    while len(out) < max_new:
        logits = model.forward(step_ids, cache=cache).data[-1]
        if temperature == 0:
            nxt = int(np.argmax(logits))
        else:
            probs = _softmax64(logits / max(temperature, 1e-8))
            keep = np.arange(len(probs))
            if top_p < 1:
                order = np.argsort(-probs, kind="stable")
                cut = int(np.searchsorted(np.cumsum(probs[order]), top_p) + 1)
                keep = order[:cut]
                probs = probs[keep] / probs[keep].sum()
            nxt = int(rng.choice(keep, p=probs))
        out.append(nxt)
        if nxt == stop_id:
            break
        step_ids = [nxt]
    return out
