"""The three benchmark workloads, driven through moetune's public API.

Each workload has the same shape:

- ``setup()`` builds everything a user needs before the first operation
  (corpus, model, quantized weights, adapters or a loaded checkpoint) and
  warms up with one forward pass, which fills the dequantization caches.
  ``timed_setup()`` times one more set-up into a spare copy.
- ``unit(i)`` runs one timed unit of work: a ``train()`` call for the SFT
  workloads, a block of chat requests for ``chat``.
- ``ckpt_round()`` saves the current state and loads it back, timing both.
- ``finish()`` runs the correctness checks.
- ``memory()`` repeats set-up and one operation under tracemalloc.

Calls into moetune always go through module attributes
(``trainer.train``, not an imported name), so the tracer sees them.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from moetune import checkpoint, lora, model, tensor, trainer

import inputs
import tracing

QUANT_BLOCK = 64
MODEL_SEED = 0
NEVER_STOP = -1  # stop_id no token can equal, so every request decodes N tokens

MIXED_BATCH = 4
MIXED_EPOCHS = 2       # per train() call: 6 steps over the 9-sample corpus
MIXED_SAVE_EVERY = 2   # saves after steps 2, 4, 6 plus ckpt_final
RESUME_FROM = "ckpt_step2.bin"  # mid-epoch: the resumed tail crosses an epoch
LONG_BATCH = 2         # one step per train() call
CHAT_NEW_TOKENS = 4
CKPT_ROUNDS = 3        # save/load rounds after each timed unit
SETUP_ROUNDS = 2       # spare set-ups timed after each timed unit

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class Checks:
    """Operations and checks attempted, and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def build_model() -> model.DecoderModel:
    """Default config, frozen weights quantized, adapters on every target."""
    m = model.init_model(model.ModelConfig(), seed=MODEL_SEED)
    m.quantize_frozen(QUANT_BLOCK)
    lora.attach_adapters(m, lora.LoraConfig(), seed=MODEL_SEED)
    return m


def snapshot(m: model.DecoderModel) -> dict[str, np.ndarray]:
    return {n: t.data.copy() for n, t in m.trainable_parameters().items()}


def restore(m: model.DecoderModel, snap: dict[str, np.ndarray]) -> None:
    for n, t in m.trainable_parameters().items():
        t.data[...] = snap[n]


def same_parameters(a: model.DecoderModel, b: model.DecoderModel) -> bool:
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(
        np.array_equal(pa[n].data, pb[n].data) for n in pa)


def eval_loss(m: model.DecoderModel, samples) -> float:
    """Mean per-sample masked cross entropy, no dropout."""
    losses = [float(tensor.masked_cross_entropy(
        m.forward(s.token_ids[:-1]), s.token_ids[1:], s.loss_mask[1:]).data)
        for s in samples]
    return float(np.mean(losses))


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def file_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@dataclass
class Unit:
    """One timed unit: wall seconds, useful tokens and per-op latencies."""

    wall_s: float
    tokens: int
    latencies_s: list[float]
    long_flags: list[bool] = field(default_factory=list)


class Workload:
    """What both kinds of workload share: checks and checkpoint rounds.

    ``self.state`` is the TrainState a round saves: the last ``train()``
    call's on the SFT workloads, the loaded tuned model on chat.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.saves_s: list[float] = []
        self.loads_s: list[float] = []
        self.ckpt_path = os.path.join(workdir, "ckpt.bin")

    def timed_setup(self) -> float:
        """Seconds of one set-up into a spare copy of this workload.

        The copy shares the checks and checkpoint timings; this workload
        keeps its warm model, so later units run as before.
        """
        return timed(copy.copy(self).setup)[0]

    def _load(self, path, **kwargs) -> checkpoint.TrainState:
        dt, st = timed(checkpoint.load_checkpoint, path, **kwargs)
        self.loads_s.append(dt)
        return st

    def ckpt_round(self) -> checkpoint.TrainState:
        """Save the current state and load it back, timing both."""
        dt, _ = timed(checkpoint.save_checkpoint, self.state, self.ckpt_path)
        self.saves_s.append(dt)
        return self._load(self.ckpt_path)

    def _round_trip(self, loaded: checkpoint.TrainState, original: str) -> None:
        """load(save(x)) is bitwise: same parameters, same bytes re-saved."""
        again = os.path.join(self.workdir, "round_trip.bin")
        checkpoint.save_checkpoint(loaded, again)
        self.checks.expect(file_bytes(again) == file_bytes(original),
                           f"{self.name}: re-saved checkpoint differs")
        self.checks.expect(same_parameters(loaded.model, self.model),
                           f"{self.name}: loaded parameters differ")


class SftWorkload(Workload):
    """SFT through ``trainer.train`` (sft_mixed and sft_long)."""

    def __init__(self, name: str, seed: int, workdir: str):
        super().__init__(name, seed, workdir)
        self.mixed = name == "sft_mixed"
        self.lora_config = lora.LoraConfig()
        self.runs: list[tuple[trainer.TrainConfig, list]] = []

    # -- set-up ------------------------------------------------------------

    def prepare(self) -> None:
        self.corpus = (inputs.fixture_corpus() if self.mixed
                       else inputs.long_conversations(self.seed))

    def setup(self) -> None:
        self.prepare()
        self.model = build_model()
        longest = max(self.corpus, key=lambda s: len(s.token_ids))
        self.model.forward(longest.token_ids[:-1])
        self.initial = snapshot(self.model)
        self.trained: dict[str, np.ndarray] | None = None

    # -- timed work --------------------------------------------------------

    def _call(self, i: int):
        """Config, samples and output directory of timed call i."""
        if self.mixed:
            cfg = trainer.TrainConfig(epochs=MIXED_EPOCHS, batch_size=MIXED_BATCH,
                                      save_every=MIXED_SAVE_EVERY,
                                      seed=inputs.train_seed(self.seed, i))
            return cfg, self.corpus, self.workdir
        n = len(self.corpus)
        pair = [self.corpus[(LONG_BATCH * i + j) % n] for j in range(LONG_BATCH)]
        cfg = trainer.TrainConfig(epochs=1, batch_size=LONG_BATCH,
                                  seed=inputs.train_seed(self.seed, i))
        return cfg, pair, None

    def unit(self, i: int, clock: tracing.Tracer | None = None) -> Unit:
        """One train() call from the set-up weights.

        ``clock`` is a tracer holding the step-end and save hooks; it turns
        the call into per-step walls and save times.
        """
        cfg, samples, out_dir = self._call(i)
        restore(self.model, self.initial)
        mark = clock.mark() if clock else 0
        t0 = time.perf_counter()
        state, log = trainer.train(self.model, samples, cfg, out_dir=out_dir,
                                   lora_config=self.lora_config)
        wall = time.perf_counter() - t0
        if self.trained is None:
            self.trained = snapshot(self.model)
        self.state = state
        self.runs.append((cfg, log))
        losses = [r.loss for r in log]
        self.checks.expect(bool(losses) and all(map(math.isfinite, losses)),
                           f"{self.name} call {i}: non-finite loss")
        tokens = cfg.epochs * sum(len(s.token_ids) - 1 for s in samples)
        steps = []
        if clock:
            ends = [t0]
            for s in clock.spans[mark:]:
                if s[tracing.NAME] == "quant.adam_step":
                    ends.append(s[tracing.END])
                elif s[tracing.NAME] == "checkpoint.save":
                    self.saves_s.append(s[tracing.END] - s[tracing.START])
            steps = list(np.diff(ends))
        return Unit(wall, tokens, steps)

    # -- checks ----------------------------------------------------------------

    def finish(self) -> None:
        if self.mixed:
            self._resume_check()
        self._round_trip(self.ckpt_round(), self.ckpt_path)
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        self._training_check()

    def _training_check(self) -> None:
        """Training changes the adapters and lowers the loss.

        The first train() call must have changed the adapters, and the mean
        masked cross entropy over the fixture corpus, without dropout, after
        it must lie in the window of ``reference.json``. A separate step
        must move the adapters against the gradient.
        """
        self.checks.expect(
            any(not np.array_equal(self.initial[n], self.trained[n])
                for n in self.initial),
            f"{self.name}: training left every adapter unchanged")
        self._direction_check()
        restore(self.model, self.trained)
        ref = self.reference = load_reference(self.name)
        loss = self.final_loss = eval_loss(self.model, inputs.fixture_corpus())
        self.checks.expect(
            ref["eval_loss_min"] <= loss <= ref["eval_loss_max"],
            f"{self.name}: eval loss {loss!r} outside "
            f"[{ref['eval_loss_min']}, {ref['eval_loss_max']}]")

    def _direction_check(self) -> None:
        """One train() step moves the adapters against the loss gradient.

        The gradient is that of the step's loss at the set-up weights on one
        fixture sample, with dropout keyed as train() keys it (seed, step 0,
        micro-batch 0). The step must make sum(delta * gradient) negative:
        zero for a step that does nothing, positive for one with the wrong
        sign. A loss comparison after a few steps is not reliable here: one
        step moves the loss less than the expert-routing flips it causes,
        and the 4-bit Adam moments can blow a later step up (see README).
        """
        sample = inputs.fixture_corpus()[:1]
        cfg = trainer.TrainConfig(epochs=1, batch_size=1, seed=self.seed)
        restore(self.model, self.initial)
        params = self.model.trainable_parameters()
        rng = np.random.default_rng([cfg.seed, 0, 0])
        trainer.batch_loss(self.model, sample, rng).backward()
        grads = {n: t.grad.copy() for n, t in params.items()
                 if t.grad is not None}
        trainer.train(self.model, sample, cfg, lora_config=self.lora_config)
        moved = sum(float(np.sum((params[n].data - self.initial[n]) * g,
                                 dtype=np.float64)) for n, g in grads.items())
        self.checks.expect(moved < 0.0, f"{self.name}: first step did not "
                           f"move the adapters against the gradient ({moved!r})")

    def _resume_check(self) -> None:
        """Resuming from a mid-run checkpoint reproduces the loss tail."""
        cfg, log = self.runs[-1]
        resumed = self._load(os.path.join(self.workdir, RESUME_FROM))
        _, tail = trainer.train(resumed.model, self.corpus, cfg,
                                lora_config=self.lora_config, resume=resumed)
        expect = [r.loss for r in log[resumed.step:]]
        self.checks.expect([r.loss for r in tail] == expect,
                           f"{self.name}: resumed loss tail differs")
        final = os.path.join(self.workdir, "ckpt_final.bin")
        self._round_trip(self._load(final), final)

    # -- memory ----------------------------------------------------------------

    def memory(self) -> tuple[int, int]:
        """(bytes alive after set-up, peak bytes over one worst-case step)."""
        tracemalloc.start()
        try:
            self.setup()
            resident = tracemalloc.get_traced_memory()[0]
            longest = sorted(self.corpus, key=lambda s: len(s.token_ids))
            batch = MIXED_BATCH if self.mixed else LONG_BATCH
            cfg = trainer.TrainConfig(epochs=1, batch_size=batch, seed=self.seed)
            tracemalloc.reset_peak()
            trainer.train(self.model, longest[-batch:], cfg,
                          lora_config=self.lora_config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return resident, peak


class ChatWorkload(Workload):
    """Greedy chat with one client in a closed loop over a tuned checkpoint."""

    def __init__(self, seed: int, workdir: str):
        super().__init__("chat", seed, workdir)
        self.requests: list[tuple[list[int], list[int]]] = []
        self.mix = inputs.chat_mix()  # (short, long) requests per block

    def tune(self) -> None:
        """Write the tuned checkpoint that set-up loads (not timed)."""
        m = build_model()
        cfg = trainer.TrainConfig(epochs=1, batch_size=MIXED_BATCH,
                                  seed=self.seed)
        tuned = os.path.join(self.workdir, "tuned")
        trainer.train(m, inputs.fixture_corpus(), cfg, out_dir=tuned,
                      lora_config=lora.LoraConfig())
        self.tuned_path = os.path.join(tuned, "ckpt_final.bin")
        self.ckpt_bytes = os.path.getsize(self.tuned_path)

    def prepare(self) -> None:
        self.short, self.long = inputs.chat_prompts(self.seed)

    def setup(self) -> None:
        self.prepare()
        self.state = self._load(self.tuned_path, with_optimizer=False)
        self.model = self.state.model
        trainer.generate(self.model, max(self.long, key=len), max_new=1,
                         stop_id=NEVER_STOP)

    def unit(self, i: int, clock=None) -> Unit:
        """One block: time to first token, then an N-token greedy decode."""
        ttfts, decode_s, flags = [], [], []
        for prompt in inputs.request_block(self.seed, i, self.short, self.long,
                                           *self.mix):
            dt, first = timed(trainer.generate, self.model, prompt, max_new=1,
                              stop_id=NEVER_STOP)
            ttfts.append(dt)
            dt, out = timed(trainer.generate, self.model, prompt,
                            max_new=CHAT_NEW_TOKENS, stop_id=NEVER_STOP)
            decode_s.append(dt)
            flags.append(prompt in self.long)
            self.checks.expect(len(out) == CHAT_NEW_TOKENS and first == out[:1],
                               f"chat block {i}: first token or length differs")
            self.requests.append((prompt, out))
        return Unit(sum(decode_s), CHAT_NEW_TOKENS * len(decode_s), ttfts,
                    long_flags=flags)

    def finish(self) -> None:
        """Greedy tokens against one full forward; checkpoint round trip."""
        for prompt, out in self.requests:
            self.checks.expect(self.greedy_matches(prompt, out),
                               "chat: token differs from full-forward argmax")
        self._round_trip(self.ckpt_round(), self.ckpt_path)

    def greedy_matches(self, prompt: list[int], out: list[int]) -> bool:
        """Token i is the argmax of the logits row that predicts it.

        Causal prefix stability makes row t of one forward over the whole
        sequence equal to the last row of a forward over its first t+1
        tokens, so one forward checks every decoded token.
        """
        logits = self.model.forward(prompt + out[:-1]).data
        rows = logits[len(prompt) - 1:]
        return [int(np.argmax(r)) for r in rows] == out

    def memory(self) -> tuple[int, int]:
        """(bytes alive after set-up, peak bytes over one long request)."""
        tracemalloc.start()
        try:
            self.setup()
            resident = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.generate(self.model, max(self.long, key=len),
                             max_new=CHAT_NEW_TOKENS, stop_id=NEVER_STOP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return resident, peak


WORKLOADS = ("sft_mixed", "sft_long", "chat")


def make(name: str, seed: int, workdir: str):
    if name == "chat":
        return ChatWorkload(seed, workdir)
    return SftWorkload(name, seed, workdir)

